//! Fluent scenario construction: a configuration plus an operating point.
//!
//! Examples and experiments used to hand-assemble [`NocConfig`]s and thread
//! injection rates alongside them; [`Scenario`] packages the two together and
//! [`ScenarioBuilder`] provides the fluent surface:
//!
//! ```
//! use mesh_noc::{NetworkVariant, Scenario};
//! use noc_traffic::{SeedMode, SpatialPattern, TrafficMix};
//!
//! let scenario = Scenario::builder()
//!     .variant(NetworkVariant::LowSwingBroadcastBypass)
//!     .mesh(8)
//!     .pattern(SpatialPattern::Transpose)
//!     .mix(TrafficMix::unicast_only())
//!     .seed_mode(SeedMode::PerNode)
//!     .rate(0.6)
//!     .seed(7)
//!     .build()?;
//! assert_eq!(scenario.config().k, 8);
//! assert_eq!(scenario.rate(), 0.6);
//! # Ok::<(), noc_types::NocError>(())
//! ```
//!
//! Building validates everything at once (mesh side, pattern/mesh
//! compatibility, router configuration, rate range), so a `Scenario` is
//! always runnable.

use noc_traffic::{SeedMode, SpatialPattern, TrafficMix};
use noc_types::{ConfigError, NocError};

use crate::config::{NetworkVariant, NocConfig};
use crate::result::SimulationResult;
use crate::simulation::Simulation;
use crate::sweep::{SweepOutcome, SweepRunner};

/// A fully validated experiment scenario: one network configuration plus the
/// injection rate to drive it at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    config: NocConfig,
    rate: f64,
}

impl Scenario {
    /// Starts building a scenario from the fabricated chip's defaults.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The network configuration.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The offered injection rate (flits/node/cycle).
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Creates a fresh [`Simulation`] of this scenario's network.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] if the configuration became invalid after
    /// direct field edits (a freshly built scenario never fails).
    pub fn simulation(&self) -> Result<Simulation, NocError> {
        Simulation::new(self.config)
    }

    /// Runs warmup + measurement + drain at the scenario's rate.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the underlying simulation.
    pub fn run(
        &self,
        warmup_cycles: u64,
        measure_cycles: u64,
    ) -> Result<SimulationResult, NocError> {
        self.simulation()?
            .run(self.rate, warmup_cycles, measure_cycles)
    }

    /// Sweeps this scenario's network over `rates` through `runner` (the
    /// scenario's own rate is ignored; it marks the nominal operating point).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from the underlying simulations.
    pub fn sweep(&self, runner: &SweepRunner, rates: &[f64]) -> Result<SweepOutcome, NocError> {
        runner.run(self.config, rates)
    }
}

/// Fluent builder for [`Scenario`]s.
///
/// Every knob defaults to the fabricated chip (`ProposedChip` on a 4×4 mesh,
/// mixed traffic, legacy-uniform destinations, identical PRBS seeds, rate
/// 0.02); call only the setters you need and finish with
/// [`build`](ScenarioBuilder::build).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioBuilder {
    variant: NetworkVariant,
    k: u16,
    pattern: SpatialPattern,
    mix: TrafficMix,
    seed_mode: SeedMode,
    base_seed: u16,
    rate: f64,
}

impl ScenarioBuilder {
    /// A builder seeded with the fabricated chip's defaults.
    #[must_use]
    pub fn new() -> Self {
        Self {
            variant: NetworkVariant::ProposedChip,
            k: 4,
            pattern: SpatialPattern::uniform_legacy(),
            mix: TrafficMix::mixed(),
            seed_mode: SeedMode::Identical,
            base_seed: noc_traffic::TrafficGenerator::DEFAULT_BASE_SEED,
            rate: 0.02,
        }
    }

    /// Selects the network variant (router microarchitecture + datapath).
    #[must_use]
    pub fn variant(mut self, variant: NetworkVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Selects the mesh side length (`k` for a k×k mesh).
    #[must_use]
    pub fn mesh(mut self, k: u16) -> Self {
        self.k = k;
        self
    }

    /// Selects the spatial traffic pattern.
    #[must_use]
    pub fn pattern(mut self, pattern: SpatialPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Selects the traffic mix.
    #[must_use]
    pub fn mix(mut self, mix: TrafficMix) -> Self {
        self.mix = mix;
        self
    }

    /// Selects the PRBS seeding discipline.
    #[must_use]
    pub fn seed_mode(mut self, seed_mode: SeedMode) -> Self {
        self.seed_mode = seed_mode;
        self
    }

    /// Selects the base PRBS seed.
    #[must_use]
    pub fn seed(mut self, base_seed: u16) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Selects the offered injection rate (flits/node/cycle).
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Validates the assembled configuration and rate.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the mesh side, pattern, router
    /// configuration or rate is invalid.
    pub fn build(self) -> Result<Scenario, NocError> {
        let config = NocConfig::variant(self.variant)?
            .with_side(self.k)
            .with_pattern(self.pattern)
            .with_mix(self.mix)
            .with_seed_mode(self.seed_mode)
            .with_base_seed(self.base_seed);
        config.validate()?;
        ConfigError::check_injection_rate(self.rate)?;
        Ok(Scenario {
            config,
            rate: self.rate,
        })
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_chip_preset() {
        let scenario = Scenario::builder().build().unwrap();
        assert_eq!(scenario.config(), &NocConfig::proposed_chip().unwrap());
        assert_eq!(scenario.rate(), 0.02);
    }

    #[test]
    fn builder_threads_every_knob_through() {
        let scenario = Scenario::builder()
            .variant(NetworkVariant::FullSwingUnicast)
            .mesh(8)
            .pattern(SpatialPattern::Tornado)
            .mix(TrafficMix::unicast_only())
            .seed_mode(SeedMode::PerNode)
            .seed(0x1234)
            .rate(0.3)
            .build()
            .unwrap();
        let config = scenario.config();
        assert_eq!(config.k, 8);
        assert_eq!(config.pattern, SpatialPattern::Tornado);
        assert_eq!(config.mix, TrafficMix::unicast_only());
        assert_eq!(config.seed_mode, SeedMode::PerNode);
        assert_eq!(config.base_seed, 0x1234);
        assert_eq!(scenario.rate(), 0.3);
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        // Bit-reverse on a 5×5 mesh: not a power-of-two node count.
        assert!(Scenario::builder()
            .mesh(5)
            .pattern(SpatialPattern::BitReverse)
            .build()
            .is_err());
        // Rates outside [0, 1] are rejected at build time.
        assert!(Scenario::builder().rate(1.5).build().is_err());
        assert!(Scenario::builder().rate(-0.1).build().is_err());
        // Mesh side 0 is rejected.
        assert!(Scenario::builder().mesh(0).build().is_err());
    }

    #[test]
    fn scenario_runs_and_matches_a_hand_assembled_config() {
        let scenario = Scenario::builder()
            .pattern(SpatialPattern::Transpose)
            .mix(TrafficMix::unicast_only())
            .seed_mode(SeedMode::PerNode)
            .rate(0.05)
            .build()
            .unwrap();
        let via_scenario = scenario.run(100, 400).unwrap();
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_pattern(SpatialPattern::Transpose)
            .with_mix(TrafficMix::unicast_only())
            .with_seed_mode(SeedMode::PerNode);
        let mut sim = Simulation::new(config).unwrap();
        let by_hand = sim.run(0.05, 100, 400).unwrap();
        assert_eq!(via_scenario, by_hand);
    }
}
