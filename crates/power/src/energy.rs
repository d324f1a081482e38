//! Per-event and per-cycle energy parameters.

/// Per-event energies (picojoules) and per-router static powers (milliwatts)
/// used to convert activity counts into power.
///
/// Two presets exist: [`EnergyParams::chip_full_swing`] prices the datapath
/// at conventional full-swing repeated-wire cost (configs A/C of Fig. 6
/// before the low-swing optimisation is applied to them, and the baseline of
/// Fig. 8), and [`EnergyParams::chip_low_swing`] prices it with the tri-state
/// RSD crossbar and differential links (the fabricated chip). Every other
/// component is identical between the two, which is exactly what makes the
/// Fig. 6 waterfall attributable: the datapath step comes from swapping these
/// presets, the router-logic and buffer steps come from the activity changes
/// that multicast support and bypassing cause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// Energy of writing one 64-bit flit into an input buffer (pJ).
    pub buffer_write_pj: f64,
    /// Energy of reading one 64-bit flit out of an input buffer (pJ).
    pub buffer_read_pj: f64,
    /// Energy of one crossbar traversal of a 64-bit flit (pJ).
    pub crossbar_pj: f64,
    /// Energy of one router-to-router link traversal of a 64-bit flit (pJ).
    pub link_pj: f64,
    /// Energy of one NIC injection/ejection link traversal (pJ); these links
    /// are much shorter than inter-router links.
    pub local_link_pj: f64,
    /// Energy of one mSA-I (per-input round-robin) arbitration (pJ).
    pub sa_local_pj: f64,
    /// Energy of one mSA-II (per-output matrix) arbitration (pJ).
    pub sa_global_pj: f64,
    /// Energy of one VC allocation (free-VC queue pop) (pJ).
    pub vc_alloc_pj: f64,
    /// Energy of one next-route computation (pJ).
    pub route_pj: f64,
    /// Energy of generating and transmitting one 15-bit lookahead (pJ).
    pub lookahead_pj: f64,
    /// Clock-tree and pipeline-register power per router (mW), independent of
    /// traffic.
    pub clock_mw_per_router: f64,
    /// VC bookkeeping state power per router (mW), independent of traffic —
    /// the non-data-dependent component the paper highlights as untouched by
    /// virtual bypassing.
    pub vc_state_mw_per_router: f64,
    /// Leakage power per router (mW).
    pub leakage_mw_per_router: f64,
}

impl EnergyParams {
    /// Calibrated parameters with the **full-swing** datapath.
    #[must_use]
    pub fn chip_full_swing() -> Self {
        Self {
            buffer_write_pj: 1.0,
            buffer_read_pj: 0.8,
            crossbar_pj: 5.0,
            link_pj: 13.0,
            local_link_pj: 2.2,
            sa_local_pj: 0.15,
            sa_global_pj: 0.25,
            vc_alloc_pj: 0.1,
            route_pj: 0.08,
            lookahead_pj: 0.3,
            clock_mw_per_router: 5.0,
            vc_state_mw_per_router: 1.9,
            leakage_mw_per_router: 76.7 / 16.0,
        }
    }

    /// Calibrated parameters with the **low-swing** (tri-state RSD) datapath.
    ///
    /// Only the crossbar and link energies change; the 48.3% measured
    /// datapath power reduction of Fig. 6 is the ratio between these and the
    /// full-swing values at equal activity.
    #[must_use]
    pub fn chip_low_swing() -> Self {
        Self {
            crossbar_pj: 5.0 * (1.0 - 0.483),
            link_pj: 13.0 * (1.0 - 0.483),
            local_link_pj: 2.2 * (1.0 - 0.483),
            ..Self::chip_full_swing()
        }
    }

    /// Scales every component by per-group factors; used to derive the
    /// ORION-style and post-layout-style models from the measured
    /// calibration.
    #[must_use]
    pub fn scaled(&self, dynamic_factor: f64, clock_factor: f64, leakage_factor: f64) -> Self {
        Self {
            buffer_write_pj: self.buffer_write_pj * dynamic_factor,
            buffer_read_pj: self.buffer_read_pj * dynamic_factor,
            crossbar_pj: self.crossbar_pj * dynamic_factor,
            link_pj: self.link_pj * dynamic_factor,
            local_link_pj: self.local_link_pj * dynamic_factor,
            sa_local_pj: self.sa_local_pj * dynamic_factor,
            sa_global_pj: self.sa_global_pj * dynamic_factor,
            vc_alloc_pj: self.vc_alloc_pj * dynamic_factor,
            route_pj: self.route_pj * dynamic_factor,
            lookahead_pj: self.lookahead_pj * dynamic_factor,
            clock_mw_per_router: self.clock_mw_per_router * clock_factor,
            vc_state_mw_per_router: self.vc_state_mw_per_router * clock_factor,
            leakage_mw_per_router: self.leakage_mw_per_router * leakage_factor,
        }
    }

    /// Combined datapath energy of one hop (crossbar + link) in pJ.
    #[must_use]
    pub fn datapath_hop_pj(&self) -> f64 {
        self.crossbar_pj + self.link_pj
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::chip_low_swing()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_swing_only_changes_the_datapath() {
        let fs = EnergyParams::chip_full_swing();
        let ls = EnergyParams::chip_low_swing();
        assert!(ls.crossbar_pj < fs.crossbar_pj);
        assert!(ls.link_pj < fs.link_pj);
        assert_eq!(ls.buffer_write_pj, fs.buffer_write_pj);
        assert_eq!(ls.clock_mw_per_router, fs.clock_mw_per_router);
        assert_eq!(ls.leakage_mw_per_router, fs.leakage_mw_per_router);
    }

    #[test]
    fn low_swing_datapath_saves_48_percent() {
        let fs = EnergyParams::chip_full_swing();
        let ls = EnergyParams::chip_low_swing();
        let reduction = 1.0 - ls.datapath_hop_pj() / fs.datapath_hop_pj();
        assert!((reduction - 0.483).abs() < 1e-9);
    }

    #[test]
    fn scaling_applies_per_group() {
        let base = EnergyParams::chip_low_swing();
        let scaled = base.scaled(5.0, 4.0, 1.0);
        assert!((scaled.crossbar_pj - 5.0 * base.crossbar_pj).abs() < 1e-12);
        assert!((scaled.clock_mw_per_router - 4.0 * base.clock_mw_per_router).abs() < 1e-12);
        assert!((scaled.leakage_mw_per_router - base.leakage_mw_per_router).abs() < 1e-12);
    }

    #[test]
    fn chip_leakage_matches_the_measured_total() {
        let p = EnergyParams::chip_low_swing();
        assert!((p.leakage_mw_per_router * 16.0 - 76.7).abs() < 1e-9);
    }
}
