//! Area model (Table 4 of the paper).
//!
//! The low-swing crossbar pays a large area premium over a synthesized
//! full-swing crossbar: differential signaling doubles the wire count, the
//! wires are fully shielded, and the tri-state RSDs must be placed and routed
//! by hand to control noise coupling, which prevents dense packing. At the
//! router level the premium is diluted by the buffers, allocators and VC
//! state that are common to both designs, and it shrinks further once a tile
//! (core + cache + router) is considered.

/// Area accounting for one router in square micrometres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area of one bit-slice of the synthesized full-swing 5×5 crossbar (µm²).
    pub full_swing_xbar_per_bit_um2: f64,
    /// Differential wiring factor of the low-swing crossbar (two wires per
    /// signal).
    pub differential_factor: f64,
    /// Shielding factor (grounded shield wires between signal pairs).
    pub shielding_factor: f64,
    /// Placement inefficiency of the hand-crafted RSD macro relative to
    /// synthesized standard cells.
    pub placement_factor: f64,
    /// Flit width in bits.
    pub flit_bits: u32,
    /// Area of everything in the router that is not the crossbar: input
    /// buffers, allocators, VC state, lookahead logic (µm²).
    pub non_crossbar_um2: f64,
    /// Extra router-level area needed only by the low-swing design: LVDD
    /// supply routing, level shifters at the crossbar boundary and the
    /// keep-out margin around the hand-placed macro (µm²).
    pub low_swing_integration_um2: f64,
}

impl AreaModel {
    /// The calibrated model of the fabricated 64-bit 5×5 router.
    #[must_use]
    pub fn chip_45nm() -> Self {
        Self {
            // 26,840 µm² / 64 bits ≈ 419 µm² per bit-slice.
            full_swing_xbar_per_bit_um2: 26_840.0 / 64.0,
            differential_factor: 2.0,
            shielding_factor: 1.25,
            placement_factor: 1.24,
            flit_bits: 64,
            // 227,230 µm² router minus its 26,840 µm² crossbar.
            non_crossbar_um2: 227_230.0 - 26_840.0,
            // 318,600 µm² measured low-swing router minus the shared logic
            // and the low-swing crossbar itself.
            low_swing_integration_um2: 318_600.0 - (227_230.0 - 26_840.0) - 83_200.0,
        }
    }

    /// Area of the synthesized full-swing crossbar (µm²).
    #[must_use]
    pub fn full_swing_crossbar_um2(&self) -> f64 {
        self.full_swing_xbar_per_bit_um2 * f64::from(self.flit_bits)
    }

    /// Area of the proposed low-swing crossbar (µm²).
    #[must_use]
    pub fn low_swing_crossbar_um2(&self) -> f64 {
        self.full_swing_crossbar_um2()
            * self.differential_factor
            * self.shielding_factor
            * self.placement_factor
    }

    /// Crossbar area overhead of low-swing signaling (3.1× in Table 4).
    #[must_use]
    pub fn crossbar_overhead(&self) -> f64 {
        self.low_swing_crossbar_um2() / self.full_swing_crossbar_um2()
    }

    /// Area of the router built around the full-swing crossbar (µm²).
    #[must_use]
    pub fn full_swing_router_um2(&self) -> f64 {
        self.non_crossbar_um2 + self.full_swing_crossbar_um2()
    }

    /// Area of the router built around the low-swing crossbar (µm²).
    #[must_use]
    pub fn low_swing_router_um2(&self) -> f64 {
        self.non_crossbar_um2 + self.low_swing_crossbar_um2() + self.low_swing_integration_um2
    }

    /// Router-level area overhead of low-swing signaling (1.4× in Table 4).
    #[must_use]
    pub fn router_overhead(&self) -> f64 {
        self.low_swing_router_um2() / self.full_swing_router_um2()
    }

    /// Overhead once the router sits in a tile of `tile_um2` square
    /// micrometres (core + cache + router); the premium keeps shrinking as
    /// the tile grows, which is the paper's argument for its acceptability.
    #[must_use]
    pub fn tile_overhead(&self, tile_um2: f64) -> f64 {
        let extra = self.low_swing_router_um2() - self.full_swing_router_um2();
        (tile_um2 + extra) / tile_um2
    }

    /// The four rows of Table 4.
    #[must_use]
    pub fn table4(&self) -> AreaReport {
        AreaReport {
            full_swing_crossbar_um2: self.full_swing_crossbar_um2(),
            low_swing_crossbar_um2: self.low_swing_crossbar_um2(),
            crossbar_overhead: self.crossbar_overhead(),
            full_swing_router_um2: self.full_swing_router_um2(),
            low_swing_router_um2: self.low_swing_router_um2(),
            router_overhead: self.router_overhead(),
        }
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::chip_45nm()
    }
}

/// The contents of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Synthesized full-swing crossbar area (µm²).
    pub full_swing_crossbar_um2: f64,
    /// Proposed low-swing crossbar area (µm²).
    pub low_swing_crossbar_um2: f64,
    /// Crossbar-level overhead factor.
    pub crossbar_overhead: f64,
    /// Router area with the full-swing crossbar (µm²).
    pub full_swing_router_um2: f64,
    /// Router area with the low-swing crossbar (µm²).
    pub low_swing_router_um2: f64,
    /// Router-level overhead factor.
    pub router_overhead: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close_pct(a: f64, b: f64, pct: f64) -> bool {
        (a - b).abs() <= b * pct / 100.0
    }

    #[test]
    fn table4_crossbar_areas() {
        let m = AreaModel::chip_45nm();
        assert!(close_pct(m.full_swing_crossbar_um2(), 26_840.0, 0.1));
        assert!(close_pct(m.low_swing_crossbar_um2(), 83_200.0, 1.5));
        assert!((m.crossbar_overhead() - 3.1).abs() < 0.05);
    }

    #[test]
    fn table4_router_areas() {
        let m = AreaModel::chip_45nm();
        assert!(close_pct(m.full_swing_router_um2(), 227_230.0, 0.1));
        assert!(close_pct(m.low_swing_router_um2(), 318_600.0, 2.5));
        assert!((m.router_overhead() - 1.4).abs() < 0.03);
    }

    #[test]
    fn overhead_shrinks_with_scope() {
        let m = AreaModel::chip_45nm();
        // Crossbar > router > tile overhead ordering.
        let tile = m.tile_overhead(2_000_000.0);
        assert!(m.crossbar_overhead() > m.router_overhead());
        assert!(m.router_overhead() > tile);
        assert!(tile < 1.05, "a 2 mm² tile hides the crossbar premium");
    }

    #[test]
    fn report_matches_model() {
        let m = AreaModel::chip_45nm();
        let r = m.table4();
        assert_eq!(r.crossbar_overhead, m.crossbar_overhead());
        assert_eq!(r.router_overhead, m.router_overhead());
    }
}
