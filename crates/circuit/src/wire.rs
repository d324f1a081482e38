//! First-order RC wire model.

use crate::params;

/// A distributed RC wire of a given length.
///
/// The chip's link wires are 0.15 µm wide with 0.30 µm spacing, fully
/// shielded and routed differentially; [`Wire::link_45nm`] builds a wire with
/// the calibrated per-millimetre resistance and capacitance of that geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wire {
    length_mm: f64,
    r_per_mm: f64,
    c_per_mm_ff: f64,
}

impl Wire {
    /// Creates a wire with explicit per-millimetre parasitics.
    ///
    /// # Panics
    ///
    /// Panics if any argument is negative.
    #[must_use]
    pub fn new(length_mm: f64, r_per_mm: f64, c_per_mm_ff: f64) -> Self {
        assert!(
            length_mm >= 0.0 && r_per_mm >= 0.0 && c_per_mm_ff >= 0.0,
            "wire parameters must be non-negative"
        );
        Self {
            length_mm,
            r_per_mm,
            c_per_mm_ff,
        }
    }

    /// A link wire of the chip's 45nm process with the calibrated geometry
    /// (0.15 µm width / 0.30 µm space, shielded).
    #[must_use]
    pub fn link_45nm(length_mm: f64) -> Self {
        Self::new(length_mm, params::WIRE_R_PER_MM, params::WIRE_C_PER_MM)
    }

    /// Wire length in millimetres.
    #[must_use]
    pub fn length_mm(&self) -> f64 {
        self.length_mm
    }

    /// Total wire resistance in ohms.
    #[must_use]
    pub fn resistance_ohm(&self) -> f64 {
        self.r_per_mm * self.length_mm
    }

    /// Total wire capacitance in femtofarads.
    #[must_use]
    pub fn capacitance_ff(&self) -> f64 {
        self.c_per_mm_ff * self.length_mm
    }

    /// Returns a copy of this wire with its resistance scaled by `factor`
    /// (used by the wire-resistance-variation study of Fig. 12).
    #[must_use]
    pub fn with_resistance_variation(&self, factor: f64) -> Self {
        Self {
            r_per_mm: self.r_per_mm * factor,
            ..*self
        }
    }

    /// Elmore delay in picoseconds when driven by a source of
    /// `drive_resistance` ohms with `fixed_cap_ff` femtofarads of lumped load
    /// at the driver.
    #[must_use]
    pub fn elmore_delay_ps(&self, drive_resistance: f64, fixed_cap_ff: f64) -> f64 {
        let c_total = self.capacitance_ff() + fixed_cap_ff;
        // fF * Ohm = 1e-15 F * Ohm = 1e-15 s = 1e-3 ps.
        let driver_term = params::ELMORE_DRIVER * drive_resistance * c_total * 1e-3;
        let wire_term = params::ELMORE_WIRE * self.resistance_ohm() * self.capacitance_ff() * 1e-3;
        driver_term + wire_term
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parasitics_scale_with_length() {
        let w1 = Wire::link_45nm(1.0);
        let w2 = Wire::link_45nm(2.0);
        assert!((w2.resistance_ohm() - 2.0 * w1.resistance_ohm()).abs() < 1e-9);
        assert!((w2.capacitance_ff() - 2.0 * w1.capacitance_ff()).abs() < 1e-9);
    }

    #[test]
    fn elmore_delay_grows_superlinearly_with_length() {
        let d1 = Wire::link_45nm(1.0).elmore_delay_ps(params::RSD_DRIVE_RES, 30.0);
        let d2 = Wire::link_45nm(2.0).elmore_delay_ps(params::RSD_DRIVE_RES, 30.0);
        assert!(
            d2 > 2.0 * d1 * 0.9,
            "wire RC term must make delay superlinear-ish"
        );
        assert!(
            d2 < 4.0 * d1,
            "but far from pure quadratic at these lengths"
        );
    }

    #[test]
    fn resistance_variation_only_scales_r() {
        let w = Wire::link_45nm(2.0);
        let v = w.with_resistance_variation(1.3);
        assert!((v.resistance_ohm() - 1.3 * w.resistance_ohm()).abs() < 1e-9);
        assert!((v.capacitance_ff() - w.capacitance_ff()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_length_panics() {
        let _ = Wire::new(-1.0, 1.0, 1.0);
    }
}
