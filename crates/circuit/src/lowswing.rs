//! Low-swing versus full-swing link energetics and speed (Figs. 7 and 11).

use crate::params;
use crate::wire::Wire;

/// Which signaling technology drives a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTechnology {
    /// Differential reduced-swing signaling from a tri-state RSD into a sense
    /// amplifier (the proposed datapath).
    LowSwing,
    /// Conventional full-swing repeated wire (the baseline datapath).
    FullSwing,
}

/// An analytical model of one 1-bit crossbar-plus-link datapath segment.
///
/// # Examples
///
/// ```
/// use noc_circuit::{LowSwingLink, Wire};
///
/// let link = LowSwingLink::new(Wire::link_45nm(1.0), 0.3);
/// // The 300 mV tri-state RSD supports single-cycle ST+LT beyond 5 GHz.
/// assert!(link.max_frequency_ghz() > 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowSwingLink {
    wire: Wire,
    swing_v: f64,
    technology: LinkTechnology,
}

impl LowSwingLink {
    /// Creates a low-swing link over `wire` with the given voltage swing.
    ///
    /// # Panics
    ///
    /// Panics if `swing_v` is not in `(0, VDD]`.
    #[must_use]
    pub fn new(wire: Wire, swing_v: f64) -> Self {
        assert!(
            swing_v > 0.0 && swing_v <= params::VDD,
            "voltage swing must be in (0, VDD]"
        );
        Self {
            wire,
            swing_v,
            technology: LinkTechnology::LowSwing,
        }
    }

    /// Creates the equivalent full-swing repeated link over the same wire.
    #[must_use]
    pub fn full_swing_equivalent(wire: Wire) -> Self {
        Self {
            wire,
            swing_v: params::VDD,
            technology: LinkTechnology::FullSwing,
        }
    }

    /// The underlying wire.
    #[must_use]
    pub fn wire(&self) -> Wire {
        self.wire
    }

    /// Voltage swing on the wire.
    #[must_use]
    pub fn swing_v(&self) -> f64 {
        self.swing_v
    }

    /// Signaling technology of this link.
    #[must_use]
    pub fn technology(&self) -> LinkTechnology {
        self.technology
    }

    /// Energy per transmitted bit in femtojoules.
    ///
    /// Low-swing: two differential wires swing by `V_swing`, charged from the
    /// `LVDD` rail, plus a swing-independent receiver overhead (sense
    /// amplifier strobe, delay cell, enable distribution).
    /// Full-swing: the single-ended wire (plus repeater loading) swings by
    /// `VDD` from the `VDD` rail. Both are scaled by the PRBS switching
    /// activity.
    #[must_use]
    pub fn energy_per_bit_fj(&self) -> f64 {
        let c_wire = self.wire.capacitance_ff() + params::RSD_FIXED_CAP_FF;
        match self.technology {
            LinkTechnology::LowSwing => {
                let dynamic = 2.0 * c_wire * self.swing_v * params::LVDD;
                params::PRBS_ACTIVITY * dynamic + params::RECEIVER_OVERHEAD_FJ
            }
            LinkTechnology::FullSwing => {
                let c_repeated = c_wire * (1.0 + params::REPEATER_CAP_OVERHEAD);
                params::PRBS_ACTIVITY * c_repeated * params::VDD * params::VDD
            }
        }
    }

    /// Propagation delay of one switch-plus-link traversal in picoseconds.
    #[must_use]
    pub fn delay_ps(&self) -> f64 {
        match self.technology {
            LinkTechnology::LowSwing => self
                .wire
                .elmore_delay_ps(params::RSD_DRIVE_RES, params::RSD_FIXED_CAP_FF),
            LinkTechnology::FullSwing => {
                // An optimally repeated full-swing wire is delay-linear in
                // length but each repeater stage costs gate delay.
                params::REPEATER_DELAY_PS_PER_MM * self.wire.length_mm()
                    + self
                        .wire
                        .elmore_delay_ps(params::RSD_DRIVE_RES, params::RSD_FIXED_CAP_FF)
                        * 0.55
            }
        }
    }

    /// Maximum clock frequency (GHz) at which a single cycle covers the
    /// ST+LT traversal of this link.
    #[must_use]
    pub fn max_frequency_ghz(&self) -> f64 {
        1000.0 / self.delay_ps()
    }

    /// Dynamic power in milliwatts when carrying `data_rate_gbps` gigabits
    /// per second.
    #[must_use]
    pub fn dynamic_power_mw(&self, data_rate_gbps: f64) -> f64 {
        // fJ/bit * Gbit/s = microwatts; convert to milliwatts.
        self.energy_per_bit_fj() * data_rate_gbps * 1e-3
    }
}

/// One point of the Fig. 11 study: dynamic power of the 1-bit 5×5 tri-state
/// RSD crossbar with 1 mm links as a function of multicast fan-out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticastPowerPoint {
    /// Number of output ports driven simultaneously (1 = unicast,
    /// 4 = broadcast from one input of a 5×5 crossbar).
    pub fanout: u32,
    /// Dynamic power in milliwatts.
    pub power_mw: f64,
}

impl MulticastPowerPoint {
    /// Computes the Fig. 11 curve: the tri-state RSD drives only the vertical
    /// wires and links of the selected outputs, so power grows linearly with
    /// the multicast count.
    #[must_use]
    pub fn sweep(link_length_mm: f64, swing_v: f64, data_rate_gbps: f64) -> Vec<Self> {
        let per_branch = LowSwingLink::new(Wire::link_45nm(link_length_mm), swing_v)
            .dynamic_power_mw(data_rate_gbps);
        (1..=4)
            .map(|fanout| MulticastPowerPoint {
                fanout,
                power_mw: f64::from(fanout) * per_branch,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_swing_saves_roughly_3x_at_300mv_over_1mm() {
        let wire = Wire::link_45nm(1.0);
        let ls = LowSwingLink::new(wire, params::DEFAULT_SWING);
        let fs = LowSwingLink::full_swing_equivalent(wire);
        let gain = fs.energy_per_bit_fj() / ls.energy_per_bit_fj();
        assert!(
            (2.8..=3.6).contains(&gain),
            "expected ~3.2x energy gain, got {gain:.2}x"
        );
    }

    #[test]
    fn max_frequency_matches_measured_rates() {
        // The paper measures single-cycle ST+LT at up to 5.4 GHz with 1 mm
        // links and 2.6 GHz with 2 mm links.
        let f1 = LowSwingLink::new(Wire::link_45nm(1.0), 0.3).max_frequency_ghz();
        let f2 = LowSwingLink::new(Wire::link_45nm(2.0), 0.3).max_frequency_ghz();
        assert!((5.0..=5.8).contains(&f1), "1 mm: got {f1:.2} GHz");
        assert!((2.3..=2.9).contains(&f2), "2 mm: got {f2:.2} GHz");
    }

    #[test]
    fn energy_decreases_with_swing() {
        let wire = Wire::link_45nm(1.0);
        let e300 = LowSwingLink::new(wire, 0.3).energy_per_bit_fj();
        let e200 = LowSwingLink::new(wire, 0.2).energy_per_bit_fj();
        let e500 = LowSwingLink::new(wire, 0.5).energy_per_bit_fj();
        assert!(e200 < e300 && e300 < e500);
    }

    #[test]
    fn full_swing_is_faster_to_repeat_but_always_costlier() {
        for len in [0.5, 1.0, 2.0] {
            let wire = Wire::link_45nm(len);
            let ls = LowSwingLink::new(wire, 0.3);
            let fs = LowSwingLink::full_swing_equivalent(wire);
            assert!(fs.energy_per_bit_fj() > ls.energy_per_bit_fj());
        }
    }

    #[test]
    fn multicast_power_is_linear_in_fanout() {
        let points = MulticastPowerPoint::sweep(1.0, 0.3, 5.0);
        assert_eq!(points.len(), 4);
        let unit = points[0].power_mw;
        for p in &points {
            assert!((p.power_mw - unit * f64::from(p.fanout)).abs() < 1e-9);
        }
        assert!(points[3].power_mw > points[0].power_mw * 3.9);
    }

    #[test]
    fn dynamic_power_scales_with_data_rate() {
        let link = LowSwingLink::new(Wire::link_45nm(1.0), 0.3);
        assert!((link.dynamic_power_mw(10.0) - 2.0 * link.dynamic_power_mw(5.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "voltage swing")]
    fn zero_swing_panics() {
        let _ = LowSwingLink::new(Wire::link_45nm(1.0), 0.0);
    }
}
