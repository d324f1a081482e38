//! Monte-Carlo analysis of sense-amplifier offset under process variation
//! (Fig. 10 of the paper).
//!
//! The dominant noise source of the low-swing receiver is the input-referred
//! offset of its sense amplifier, which process variation spreads roughly
//! Gaussian. A link bit fails when the offset exceeds half the differential
//! swing. The paper runs 1000 SPICE Monte-Carlo samples and picks a 300 mV
//! swing for better-than-3σ reliability; this module reproduces that analysis
//! with a Gaussian offset model.

use noc_types::SplitMix64;

use crate::params;

/// Gaussian model of the sense-amplifier input offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseAmpVariation {
    sigma_v: f64,
}

impl SenseAmpVariation {
    /// Creates a variation model with an explicit offset standard deviation
    /// (volts).
    ///
    /// # Panics
    ///
    /// Panics if `sigma_v` is not positive.
    #[must_use]
    pub fn new(sigma_v: f64) -> Self {
        assert!(sigma_v > 0.0, "offset sigma must be positive");
        Self { sigma_v }
    }

    /// The calibrated 45nm model (σ = 50 mV, which makes a 300 mV swing a 3-σ
    /// design point).
    #[must_use]
    pub fn chip_45nm() -> Self {
        Self::new(params::SENSE_AMP_OFFSET_SIGMA)
    }

    /// Offset standard deviation in volts.
    #[must_use]
    pub fn sigma_v(&self) -> f64 {
        self.sigma_v
    }

    /// How many σ of offset margin a differential swing of `swing_v` leaves
    /// (the sense amplifier sees ±swing/2).
    #[must_use]
    pub fn sigma_margin(&self, swing_v: f64) -> f64 {
        swing_v / 2.0 / self.sigma_v
    }

    /// Analytical link failure probability at `swing_v`:
    /// `P(|offset| > swing/2) = erfc(margin / sqrt(2))`.
    #[must_use]
    pub fn failure_probability(&self, swing_v: f64) -> f64 {
        erfc(self.sigma_margin(swing_v) / std::f64::consts::SQRT_2)
    }

    /// Runs a Monte-Carlo experiment of `runs` sampled sense amplifiers and
    /// counts how many fail at `swing_v` (the Fig. 10 methodology; the paper
    /// uses 1000 SPICE runs).
    #[must_use]
    pub fn monte_carlo(&self, swing_v: f64, runs: u32, seed: u64) -> MonteCarloResult {
        let mut rng = SplitMix64::new(seed);
        let mut failures = 0u32;
        for _ in 0..runs {
            let offset = self.sigma_v * standard_normal(&mut rng);
            if offset.abs() > swing_v / 2.0 {
                failures += 1;
            }
        }
        MonteCarloResult {
            swing_v,
            runs,
            failures,
        }
    }

    /// Sweeps swing levels and returns (swing, failure probability,
    /// normalised energy) triples — the two curves of Fig. 10. Energy is
    /// normalised to the 300 mV design point.
    #[must_use]
    pub fn fig10_sweep(&self, swings_v: &[f64]) -> Vec<(f64, f64, f64)> {
        let reference = energy_proxy(params::DEFAULT_SWING);
        swings_v
            .iter()
            .map(|&s| (s, self.failure_probability(s), energy_proxy(s) / reference))
            .collect()
    }
}

/// Relative link energy at a given swing (the `C·V_swing·V_LVDD` term that
/// scales with swing; receiver overhead excluded to isolate the trade-off).
fn energy_proxy(swing_v: f64) -> f64 {
    swing_v * params::LVDD
}

/// Result of a Monte-Carlo reliability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloResult {
    /// Differential swing tested (V).
    pub swing_v: f64,
    /// Number of sampled instances.
    pub runs: u32,
    /// Instances whose offset exceeded the available margin.
    pub failures: u32,
}

impl MonteCarloResult {
    /// Observed failure rate.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.failures) / f64::from(self.runs)
        }
    }
}

/// Samples a standard normal variate with the Box-Muller transform (keeps the
/// workspace free of extra dependencies).
fn standard_normal(rng: &mut SplitMix64) -> f64 {
    let u1 = f64::EPSILON + rng.next_unit_f64() * (1.0 - f64::EPSILON);
    let u2 = rng.next_unit_f64();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Complementary error function (Abramowitz & Stegun 7.1.26 approximation,
/// accurate to ~1.5e-7 which is ample for reliability curves).
fn erfc(x: f64) -> f64 {
    let sign_negative = x < 0.0;
    let x_abs = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x_abs);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x_abs * x_abs).exp();
    let erf = if sign_negative { -erf } else { erf };
    1.0 - erf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_design_point_is_three_sigma() {
        let model = SenseAmpVariation::chip_45nm();
        assert!((model.sigma_margin(0.3) - 3.0).abs() < 1e-9);
        // 3-sigma two-sided failure probability is about 0.27%.
        let p = model.failure_probability(0.3);
        assert!((0.002..0.004).contains(&p), "got {p}");
    }

    #[test]
    fn failure_probability_decreases_with_swing() {
        let model = SenseAmpVariation::chip_45nm();
        let p_low = model.failure_probability(0.15);
        let p_mid = model.failure_probability(0.3);
        let p_high = model.failure_probability(0.5);
        assert!(p_low > p_mid && p_mid > p_high);
        assert!(
            p_low > 0.1,
            "half the margin should fail often, got {p_low}"
        );
    }

    #[test]
    fn monte_carlo_agrees_with_the_analytic_rate() {
        let model = SenseAmpVariation::chip_45nm();
        let mc = model.monte_carlo(0.2, 20_000, 42);
        let analytic = model.failure_probability(0.2);
        assert!(
            (mc.failure_rate() - analytic).abs() < 0.01,
            "mc {} vs analytic {}",
            mc.failure_rate(),
            analytic
        );
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let model = SenseAmpVariation::chip_45nm();
        let a = model.monte_carlo(0.25, 1000, 7);
        let b = model.monte_carlo(0.25, 1000, 7);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn fig10_monte_carlo_failure_counts_are_pinned() {
        // The exact failure counts `fig10_report` prints (1000 runs, seed
        // 0xD0C5_EED5 at each of its seven swings). Any change to the
        // sampling stream or the Box-Muller mapping moves them.
        let model = SenseAmpVariation::chip_45nm();
        let swings = [0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50];
        let failures: Vec<u32> = swings
            .iter()
            .map(|&swing| model.monte_carlo(swing, 1000, 0xD0C5_EED5).failures)
            .collect();
        assert_eq!(failures, [338, 142, 36, 9, 2, 0, 0]);
    }

    #[test]
    fn fig10_sweep_trades_energy_for_reliability() {
        let model = SenseAmpVariation::chip_45nm();
        let sweep = model.fig10_sweep(&[0.15, 0.2, 0.25, 0.3, 0.4, 0.5]);
        assert_eq!(sweep.len(), 6);
        for pair in sweep.windows(2) {
            let (_, p_a, e_a) = pair[0];
            let (_, p_b, e_b) = pair[1];
            assert!(p_a > p_b, "failure probability must fall as swing grows");
            assert!(e_a < e_b, "energy must rise as swing grows");
        }
        // The 300 mV entry is the energy reference point.
        let (_, _, e_300) = sweep[3];
        assert!((e_300 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299).abs() < 1e-4);
        assert!((erfc(2.0) - 0.004_678).abs() < 1e-4);
        assert!((erfc(-1.0) - 1.842_701).abs() < 1e-4);
    }
}
