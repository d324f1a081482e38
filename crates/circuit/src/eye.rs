//! Repeated versus repeaterless low-swing links (Fig. 12 of the paper).
//!
//! For a 2 mm span the designer can either insert a tri-state RSD repeater at
//! 1 mm (regenerating the signal at the cost of an extra cycle and extra
//! energy) or drive the full 2 mm directly. The paper's SPICE study finds the
//! repeated option has a larger vertical eye (more noise margin) under wire
//! resistance variation, but costs one additional cycle and ~28% more energy.

use crate::lowswing::LowSwingLink;
use crate::params;
use crate::wire::Wire;

/// Physical arrangement of a low-swing span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTopology {
    /// The span is broken into equal segments with an RSD repeater between
    /// them; each segment takes one clock cycle.
    Repeated {
        /// Number of segments (2 for the paper's 1 mm + 1 mm case).
        segments: u32,
    },
    /// The whole span is driven by a single RSD.
    Repeaterless,
}

/// Eye/noise-margin analysis of one low-swing span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeAnalysis {
    span_mm: f64,
    swing_v: f64,
    topology: LinkTopology,
}

impl EyeAnalysis {
    /// Creates an analysis of a `span_mm`-long link at `swing_v` volts.
    ///
    /// # Panics
    ///
    /// Panics if the span is not positive or a repeated topology has fewer
    /// than two segments.
    #[must_use]
    pub fn new(span_mm: f64, swing_v: f64, topology: LinkTopology) -> Self {
        assert!(span_mm > 0.0, "span must be positive");
        if let LinkTopology::Repeated { segments } = topology {
            assert!(segments >= 2, "a repeated span needs at least two segments");
        }
        Self {
            span_mm,
            swing_v,
            topology,
        }
    }

    /// The paper's repeated configuration: 2 mm covered as 1 mm + 1 mm.
    #[must_use]
    pub fn repeated_2mm() -> Self {
        Self::new(
            2.0,
            params::DEFAULT_SWING,
            LinkTopology::Repeated { segments: 2 },
        )
    }

    /// The paper's repeaterless configuration: a single 2 mm drive.
    #[must_use]
    pub fn repeaterless_2mm() -> Self {
        Self::new(2.0, params::DEFAULT_SWING, LinkTopology::Repeaterless)
    }

    /// Link topology.
    #[must_use]
    pub fn topology(&self) -> LinkTopology {
        self.topology
    }

    /// Length driven by a single RSD stage.
    #[must_use]
    pub fn segment_length_mm(&self) -> f64 {
        match self.topology {
            LinkTopology::Repeated { segments } => self.span_mm / f64::from(segments),
            LinkTopology::Repeaterless => self.span_mm,
        }
    }

    /// Cycles of latency the span costs at the network clock (one per
    /// segment).
    #[must_use]
    pub fn latency_cycles(&self) -> u32 {
        match self.topology {
            LinkTopology::Repeated { segments } => segments,
            LinkTopology::Repeaterless => 1,
        }
    }

    /// Energy per transmitted bit over the whole span, in femtojoules.
    ///
    /// Every repeated segment pays the full receiver/driver overhead again,
    /// which is why repeating costs more energy even though each segment is
    /// shorter.
    #[must_use]
    pub fn energy_per_bit_fj(&self) -> f64 {
        let per_segment =
            LowSwingLink::new(Wire::link_45nm(self.segment_length_mm()), self.swing_v)
                .energy_per_bit_fj();
        per_segment * f64::from(self.latency_cycles())
    }

    /// Vertical eye opening in volts at a given data rate and wire-resistance
    /// variation factor.
    ///
    /// The received swing is degraded by the RC settling of the segment: the
    /// longer the unrepeated wire (and the higher its resistance variation),
    /// the less of the swing has developed when the sense amplifier strobes.
    #[must_use]
    pub fn eye_height_v(&self, data_rate_gbps: f64, resistance_variation: f64) -> f64 {
        let wire = Wire::link_45nm(self.segment_length_mm())
            .with_resistance_variation(resistance_variation);
        let tau_ps = wire.elmore_delay_ps(params::RSD_DRIVE_RES, params::RSD_FIXED_CAP_FF);
        let bit_time_ps = 1000.0 / data_rate_gbps;
        // Fraction of the swing developed within one bit time (first-order
        // settling), assuming the strobe fires at the end of the bit.
        let settled = 1.0 - (-bit_time_ps / tau_ps).exp();
        self.swing_v * settled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE_GBPS: f64 = 2.5;

    #[test]
    fn repeated_span_has_larger_eye_under_variation() {
        let repeated = EyeAnalysis::repeated_2mm();
        let direct = EyeAnalysis::repeaterless_2mm();
        for variation in [1.0, 1.2, 1.5] {
            assert!(
                repeated.eye_height_v(RATE_GBPS, variation)
                    > direct.eye_height_v(RATE_GBPS, variation),
                "repeated segments must settle closer to the full swing"
            );
        }
    }

    #[test]
    fn repeaterless_span_saves_one_cycle_and_about_28_percent_energy() {
        let repeated = EyeAnalysis::repeated_2mm();
        let direct = EyeAnalysis::repeaterless_2mm();
        assert_eq!(repeated.latency_cycles(), 2);
        assert_eq!(direct.latency_cycles(), 1);
        let overhead = repeated.energy_per_bit_fj() / direct.energy_per_bit_fj() - 1.0;
        assert!(
            (0.18..=0.40).contains(&overhead),
            "expected ~28% energy overhead for the repeated span, got {:.0}%",
            overhead * 100.0
        );
    }

    #[test]
    fn eye_shrinks_with_resistance_variation_and_data_rate() {
        let direct = EyeAnalysis::repeaterless_2mm();
        assert!(direct.eye_height_v(RATE_GBPS, 1.0) > direct.eye_height_v(RATE_GBPS, 1.5));
        assert!(direct.eye_height_v(2.0, 1.0) > direct.eye_height_v(6.0, 1.0));
    }

    #[test]
    fn eye_never_exceeds_the_swing() {
        for analysis in [EyeAnalysis::repeated_2mm(), EyeAnalysis::repeaterless_2mm()] {
            let eye = analysis.eye_height_v(1.0, 1.0);
            assert!(eye > 0.0 && eye <= params::DEFAULT_SWING + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least two segments")]
    fn single_segment_repeated_is_rejected() {
        let _ = EyeAnalysis::new(2.0, 0.3, LinkTopology::Repeated { segments: 1 });
    }
}
