//! Analytical model of prior mesh NoC chip prototypes (Table 2 of the paper).
//!
//! Table 2 compares the fabricated chip against Intel Teraflops, Tilera
//! TILE64 and SWIFT. Its latency and channel-load rows are *computed*, not
//! measured: zero-load latency is average hop count × pipeline depth (plus
//! source serialization when the chip lacks multicast support and the NIC
//! must inject `k²-1` unicast copies of each broadcast), and channel load is
//! the network-wide injected flit load per unit injection rate.
//!
//! The same arithmetic is reproduced here, parameterised per chip, so the
//! whole table can be regenerated (`repro table2`).

use crate::limits::MeshLimits;

/// Description of one chip prototype as modelled in Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipModel {
    /// Chip name as it appears in the paper.
    pub name: String,
    /// Mesh side length the chip is modelled as (8 for the prior chips,
    /// 4 for the fabricated prototype).
    pub modeled_k: u16,
    /// Process node, for reporting only (e.g. "65nm").
    pub process: String,
    /// Router clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Channel (flit) width in bits of one physical network.
    pub channel_bits: u32,
    /// Number of parallel physical networks (5 for TILE64, 1 otherwise).
    pub networks: u32,
    /// Cycles a flit needs to traverse one hop (router pipeline + link).
    pub cycles_per_hop: f64,
    /// Fixed per-packet overhead cycles (NIC injection/ejection, turn
    /// penalties) added on top of `hops × cycles_per_hop`.
    pub fixed_overhead_cycles: f64,
    /// Whether routers can replicate flits (router-level multicast support).
    pub multicast_support: bool,
    /// Reported total power, for the comparison table (string because the
    /// paper mixes W and mW).
    pub reported_power: String,
    /// Reported per-hop delay in nanoseconds (string: the paper quotes ranges).
    pub reported_delay_per_hop_ns: String,
}

impl ChipModel {
    /// Intel Teraflops, modelled as an 8×8 network: 5 GHz, 39-bit channels,
    /// 5-stage router pipeline, no multicast support.
    #[must_use]
    pub fn teraflops() -> Self {
        Self {
            name: "Intel Teraflops".to_owned(),
            modeled_k: 8,
            process: "65nm".to_owned(),
            frequency_ghz: 5.0,
            channel_bits: 39,
            networks: 1,
            cycles_per_hop: 5.0,
            fixed_overhead_cycles: 0.0,
            multicast_support: false,
            reported_power: "97W".to_owned(),
            reported_delay_per_hop_ns: "1".to_owned(),
        }
    }

    /// Tilera TILE64, modelled as an 8×8 network: 750 MHz, five 32-bit
    /// networks, single-cycle straight-through pipeline with turn and
    /// injection/ejection overheads, no multicast support.
    #[must_use]
    pub fn tile64() -> Self {
        Self {
            name: "Tilera TILE64".to_owned(),
            modeled_k: 8,
            process: "90nm".to_owned(),
            frequency_ghz: 0.75,
            channel_bits: 32,
            networks: 5,
            cycles_per_hop: 1.0,
            // One extra cycle for the (on average one) turning hop plus two
            // cycles of NIC injection/ejection.
            fixed_overhead_cycles: 3.0,
            multicast_support: false,
            reported_power: "15-22W".to_owned(),
            reported_delay_per_hop_ns: "1.3".to_owned(),
        }
    }

    /// SWIFT, modelled as an 8×8 network: 225 MHz, 64-bit channels,
    /// effectively two cycles per hop, no multicast support.
    #[must_use]
    pub fn swift() -> Self {
        Self {
            name: "SWIFT".to_owned(),
            modeled_k: 8,
            process: "90nm".to_owned(),
            frequency_ghz: 0.225,
            channel_bits: 64,
            networks: 1,
            cycles_per_hop: 2.0,
            fixed_overhead_cycles: 0.0,
            multicast_support: false,
            reported_power: "116.5mW".to_owned(),
            reported_delay_per_hop_ns: "8.9-17.8".to_owned(),
        }
    }

    /// The fabricated prototype modelled as an 8×8 network (for apples-to-
    /// apples comparison with the prior chips): 1 GHz, 64-bit channels,
    /// single cycle per hop, router-level multicast support.
    #[must_use]
    pub fn this_work_8x8() -> Self {
        Self {
            name: "This work (modeled 8x8)".to_owned(),
            modeled_k: 8,
            process: "45nm SOI".to_owned(),
            frequency_ghz: 1.0,
            channel_bits: 64,
            networks: 1,
            cycles_per_hop: 1.0,
            fixed_overhead_cycles: 0.0,
            multicast_support: true,
            reported_power: "427.3mW".to_owned(),
            reported_delay_per_hop_ns: "1-3".to_owned(),
        }
    }

    /// The fabricated 4×4 prototype itself.
    #[must_use]
    pub fn this_work_4x4() -> Self {
        Self {
            name: "This work (4x4)".to_owned(),
            modeled_k: 4,
            process: "45nm SOI".to_owned(),
            frequency_ghz: 1.0,
            channel_bits: 64,
            networks: 1,
            cycles_per_hop: 1.0,
            fixed_overhead_cycles: 0.0,
            multicast_support: true,
            reported_power: "427.3mW".to_owned(),
            reported_delay_per_hop_ns: "1-3".to_owned(),
        }
    }

    /// All five columns of Table 2 in paper order.
    #[must_use]
    pub fn table2_chips() -> Vec<ChipModel> {
        vec![
            Self::teraflops(),
            Self::tile64(),
            Self::swift(),
            Self::this_work_8x8(),
            Self::this_work_4x4(),
        ]
    }

    fn limits(&self) -> MeshLimits {
        MeshLimits::new(self.modeled_k)
    }

    /// Zero-load unicast latency in cycles:
    /// `H_avg × cycles_per_hop + fixed_overhead`.
    #[must_use]
    pub fn unicast_zero_load_latency_cycles(&self) -> f64 {
        self.limits().unicast_average_hops() * self.cycles_per_hop + self.fixed_overhead_cycles
    }

    /// Zero-load broadcast latency in cycles.
    ///
    /// Chips without router-level multicast support must inject `k²-1`
    /// unicast copies back-to-back from the source NIC; the last copy waits
    /// `k²-1` cycles of serialization before it even enters the network,
    /// which dominates their broadcast latency.
    #[must_use]
    pub fn broadcast_zero_load_latency_cycles(&self) -> f64 {
        let l = self.limits();
        let base = l.broadcast_average_hops() * self.cycles_per_hop + self.fixed_overhead_cycles;
        if self.multicast_support {
            base
        } else {
            base + (l.node_count() - 1.0)
        }
    }

    /// Network-wide injected channel load per unit injection rate `R`, for
    /// unicast traffic (the "64R"/"16R" unicast entries of Table 2).
    #[must_use]
    pub fn unicast_channel_load_factor(&self) -> f64 {
        self.limits().node_count()
    }

    /// Network-wide injected channel load per unit injection rate `R`, for
    /// broadcast traffic.
    ///
    /// With multicast support a broadcast enters the network once (`k²·R`
    /// total). Without it the source NIC injects `k²-1 ≈ k²` copies, so the
    /// load is `k²` times larger ("4096R" vs "64R" in Table 2).
    #[must_use]
    pub fn broadcast_channel_load_factor(&self) -> f64 {
        let n = self.limits().node_count();
        if self.multicast_support {
            n
        } else {
            n * n
        }
    }

    /// Bisection bandwidth in Gb/s.
    #[must_use]
    pub fn bisection_bandwidth_gbps(&self) -> f64 {
        f64::from(self.modeled_k)
            * f64::from(self.channel_bits)
            * self.frequency_ghz
            * f64::from(self.networks)
    }

    /// Per-hop delay in nanoseconds implied by the model
    /// (`cycles_per_hop / frequency`).
    #[must_use]
    pub fn delay_per_hop_ns(&self) -> f64 {
        self.cycles_per_hop / self.frequency_ghz
    }
}

/// One computed row of Table 2 for a single chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Chip name.
    pub name: String,
    /// Zero-load unicast latency in cycles.
    pub unicast_zero_load_cycles: f64,
    /// Zero-load broadcast latency in cycles.
    pub broadcast_zero_load_cycles: f64,
    /// Unicast channel-load factor (multiply by R).
    pub unicast_channel_load_factor: f64,
    /// Broadcast channel-load factor (multiply by R).
    pub broadcast_channel_load_factor: f64,
    /// Bisection bandwidth in Gb/s.
    pub bisection_bandwidth_gbps: f64,
    /// Per-hop delay in nanoseconds.
    pub delay_per_hop_ns: f64,
}

/// Computes every row of Table 2.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    ChipModel::table2_chips()
        .into_iter()
        .map(|chip| Table2Row {
            name: chip.name.clone(),
            unicast_zero_load_cycles: chip.unicast_zero_load_latency_cycles(),
            broadcast_zero_load_cycles: chip.broadcast_zero_load_latency_cycles(),
            unicast_channel_load_factor: chip.unicast_channel_load_factor(),
            broadcast_channel_load_factor: chip.broadcast_channel_load_factor(),
            bisection_bandwidth_gbps: chip.bisection_bandwidth_gbps(),
            delay_per_hop_ns: chip.delay_per_hop_ns(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn teraflops_matches_table2() {
        let c = ChipModel::teraflops();
        assert!(close(c.unicast_zero_load_latency_cycles(), 30.0, 1e-9));
        assert!(close(c.broadcast_zero_load_latency_cycles(), 120.5, 1e-9));
        assert!(close(c.unicast_channel_load_factor(), 64.0, 1e-9));
        assert!(close(c.broadcast_channel_load_factor(), 4096.0, 1e-9));
        assert!(close(c.bisection_bandwidth_gbps(), 1560.0, 1e-9));
        assert!(close(c.delay_per_hop_ns(), 1.0, 1e-9));
    }

    #[test]
    fn tile64_matches_table2() {
        let c = ChipModel::tile64();
        assert!(close(c.unicast_zero_load_latency_cycles(), 9.0, 1e-9));
        assert!(close(c.broadcast_zero_load_latency_cycles(), 77.5, 1e-9));
        assert!(close(c.unicast_channel_load_factor(), 64.0, 1e-9));
        assert!(close(c.broadcast_channel_load_factor(), 4096.0, 1e-9));
        // The paper reports 937.5 Gb/s; five 32-bit networks at 750 MHz over
        // 8 bisection links give 960 Gb/s — within a few percent (the paper
        // appears to use a slightly lower effective clock).
        assert!(close(c.bisection_bandwidth_gbps(), 960.0, 1e-9));
        assert!(c.delay_per_hop_ns() > 1.2 && c.delay_per_hop_ns() < 1.4);
    }

    #[test]
    fn swift_matches_table2() {
        let c = ChipModel::swift();
        assert!(close(c.unicast_zero_load_latency_cycles(), 12.0, 1e-9));
        assert!(close(c.broadcast_zero_load_latency_cycles(), 86.0, 1e-9));
        // Paper reports 112.5 Gb/s; 8 x 64b x 225 MHz = 115.2 Gb/s.
        assert!(close(c.bisection_bandwidth_gbps(), 115.2, 1e-9));
    }

    #[test]
    fn this_work_matches_table2() {
        let c8 = ChipModel::this_work_8x8();
        assert!(close(c8.unicast_zero_load_latency_cycles(), 6.0, 1e-9));
        assert!(close(c8.broadcast_zero_load_latency_cycles(), 11.5, 1e-9));
        assert!(close(c8.unicast_channel_load_factor(), 64.0, 1e-9));
        assert!(close(c8.broadcast_channel_load_factor(), 64.0, 1e-9));
        assert!(close(c8.bisection_bandwidth_gbps(), 512.0, 1e-9));

        let c4 = ChipModel::this_work_4x4();
        assert!(close(
            c4.unicast_zero_load_latency_cycles(),
            10.0 / 3.0,
            1e-9
        ));
        assert!(close(c4.broadcast_zero_load_latency_cycles(), 5.5, 1e-9));
        assert!(close(c4.unicast_channel_load_factor(), 16.0, 1e-9));
        assert!(close(c4.broadcast_channel_load_factor(), 16.0, 1e-9));
        assert!(close(c4.bisection_bandwidth_gbps(), 256.0, 1e-9));
    }

    #[test]
    fn multicast_support_removes_the_serialization_penalty() {
        let mut with = ChipModel::this_work_8x8();
        let mut without = ChipModel::this_work_8x8();
        with.multicast_support = true;
        without.multicast_support = false;
        let diff = without.broadcast_zero_load_latency_cycles()
            - with.broadcast_zero_load_latency_cycles();
        assert!(close(diff, 63.0, 1e-9));
        assert!(close(
            without.broadcast_channel_load_factor() / with.broadcast_channel_load_factor(),
            64.0,
            1e-9
        ));
    }

    #[test]
    fn table2_has_five_rows_in_paper_order() {
        let rows = table2();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].name, "Intel Teraflops");
        assert_eq!(rows[4].name, "This work (4x4)");
        // The proposed NoC has the lowest broadcast zero-load latency.
        let min = rows
            .iter()
            .map(|r| r.broadcast_zero_load_cycles)
            .fold(f64::INFINITY, f64::min);
        assert!(close(rows[4].broadcast_zero_load_cycles, min, 1e-9));
    }
}
