//! Theoretical limits of a k×k mesh NoC (Table 1 of the paper).
//!
//! The limits assume (Appendix A of the paper):
//!
//! 1. *Perfect routing* — minimal paths, perfectly balanced channel load,
//! 2. *Perfect flow control* — links never idle while traffic wants them,
//! 3. *Perfect router microarchitecture* — flits only pay the datapath
//!    (crossbar + link) delay and energy: one cycle and `Exbar + Elink` per
//!    hop, nothing for buffering, arbitration or VC state.
//!
//! Traffic model: every NIC injects flits as a Bernoulli process of rate `R`
//! flits/cycle; unicasts pick a uniformly random destination, broadcasts go
//! from a uniformly random source to all other nodes.

/// Per-traversal datapath energy used by the theoretical energy limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathEnergy {
    /// Energy of one crossbar traversal, in picojoules.
    pub crossbar_pj: f64,
    /// Energy of one link traversal, in picojoules.
    pub link_pj: f64,
}

impl DatapathEnergy {
    /// Creates a datapath energy description.
    #[must_use]
    pub fn new(crossbar_pj: f64, link_pj: f64) -> Self {
        Self {
            crossbar_pj,
            link_pj,
        }
    }
}

impl Default for DatapathEnergy {
    /// Representative 45nm full-swing values used when the caller does not
    /// supply calibrated numbers (the relative shape of the limits does not
    /// depend on them).
    fn default() -> Self {
        Self::new(1.0, 1.5)
    }
}

/// Closed-form theoretical limits of a k×k mesh (Table 1).
///
/// # Examples
///
/// ```
/// use noc_topology::limits::MeshLimits;
///
/// let limits = MeshLimits::new(4);
/// // Unicast average hop count: 2(k+1)/3.
/// assert!((limits.unicast_average_hops() - 10.0 / 3.0).abs() < 1e-12);
/// // Broadcast average hop count for even k: (3k-1)/2.
/// assert!((limits.broadcast_average_hops() - 5.5).abs() < 1e-12);
/// // Broadcast throughput is limited by the ejection links: R_sat = 1/k^2.
/// assert!((limits.broadcast_saturation_rate() - 1.0 / 16.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshLimits {
    k: u16,
}

impl MeshLimits {
    /// Limits for a k×k mesh.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: u16) -> Self {
        assert!(k > 0, "mesh side length must be positive");
        Self { k }
    }

    /// Mesh side length.
    #[must_use]
    pub fn side(&self) -> u16 {
        self.k
    }

    /// Number of nodes, `k²`.
    #[must_use]
    pub fn node_count(&self) -> f64 {
        let k = f64::from(self.k);
        k * k
    }

    // --- Latency ----------------------------------------------------------

    /// Average unicast hop count `H_avg = 2(k+1)/3` (Table 1).
    ///
    /// This is also the theoretical unicast latency limit in cycles, since a
    /// perfect router spends exactly one cycle per hop.
    #[must_use]
    pub fn unicast_average_hops(&self) -> f64 {
        2.0 * (f64::from(self.k) + 1.0) / 3.0
    }

    /// Average broadcast hop count (source to *furthest* destination),
    /// `(3k-1)/2` for even k and `(k-1)(3k+1)/(2k)` for odd k (Table 1).
    #[must_use]
    pub fn broadcast_average_hops(&self) -> f64 {
        let k = f64::from(self.k);
        if self.k.is_multiple_of(2) {
            (3.0 * k - 1.0) / 2.0
        } else {
            (k - 1.0) * (3.0 * k + 1.0) / (2.0 * k)
        }
    }

    /// Theoretical unicast latency limit in cycles (equals
    /// [`unicast_average_hops`](Self::unicast_average_hops)).
    #[must_use]
    pub fn unicast_latency_limit(&self) -> f64 {
        self.unicast_average_hops()
    }

    /// Theoretical broadcast latency limit in cycles (equals
    /// [`broadcast_average_hops`](Self::broadcast_average_hops)).
    #[must_use]
    pub fn broadcast_latency_limit(&self) -> f64 {
        self.broadcast_average_hops()
    }

    /// Theoretical *packet* latency limit including the NIC-to-router and
    /// router-to-NIC traversals (two extra cycles) and the serialization of a
    /// packet of `packet_flits` flits, as used for the latency-limit curves
    /// of Fig. 5 / Fig. 13.
    #[must_use]
    pub fn packet_latency_limit(&self, broadcast: bool, packet_flits: usize) -> f64 {
        let hops = if broadcast {
            self.broadcast_average_hops()
        } else {
            self.unicast_average_hops()
        };
        hops + 2.0 + (packet_flits as f64 - 1.0)
    }

    // --- Throughput -------------------------------------------------------

    /// Channel load on each bisection link under unicast traffic at
    /// injection rate `rate`: `k·R/4` (Table 1).
    #[must_use]
    pub fn unicast_bisection_load(&self, rate: f64) -> f64 {
        f64::from(self.k) * rate / 4.0
    }

    /// Channel load on each ejection link under unicast traffic: `R`.
    #[must_use]
    pub fn unicast_ejection_load(&self, rate: f64) -> f64 {
        rate
    }

    /// Channel load on each bisection link under broadcast traffic: `k²·R/4`.
    #[must_use]
    pub fn broadcast_bisection_load(&self, rate: f64) -> f64 {
        self.node_count() * rate / 4.0
    }

    /// Channel load on each ejection link under broadcast traffic: `k²·R`.
    ///
    /// Every node must eject a copy of every other node's broadcast, so the
    /// ejection links saturate first — this is what makes broadcast
    /// throughput ejection-limited rather than bisection-limited.
    #[must_use]
    pub fn broadcast_ejection_load(&self, rate: f64) -> f64 {
        self.node_count() * rate
    }

    /// Maximum channel load anywhere in the network under unicast traffic.
    #[must_use]
    pub fn unicast_max_channel_load(&self, rate: f64) -> f64 {
        self.unicast_bisection_load(rate)
            .max(self.unicast_ejection_load(rate))
    }

    /// Maximum channel load anywhere in the network under broadcast traffic.
    #[must_use]
    pub fn broadcast_max_channel_load(&self, rate: f64) -> f64 {
        self.broadcast_bisection_load(rate)
            .max(self.broadcast_ejection_load(rate))
    }

    /// Saturation injection rate for unicast traffic: the largest `R` (in
    /// flits/node/cycle) for which no channel exceeds unit load.
    ///
    /// For `k <= 4` the ejection links limit throughput (`R_sat = 1`); for
    /// larger meshes the bisection limits it (`R_sat = 4/k`).
    #[must_use]
    pub fn unicast_saturation_rate(&self) -> f64 {
        if self.k <= 4 {
            1.0
        } else {
            4.0 / f64::from(self.k)
        }
    }

    /// Saturation injection rate for broadcast traffic: `1/k²` (ejection
    /// limited).
    #[must_use]
    pub fn broadcast_saturation_rate(&self) -> f64 {
        1.0 / self.node_count()
    }

    /// Theoretical network throughput limit in accepted (received) flits per
    /// cycle across the whole network, for unicast traffic.
    ///
    /// Each of the `k²` nodes can accept at most one flit per cycle, and the
    /// bisection further caps acceptance for `k > 4`.
    #[must_use]
    pub fn unicast_throughput_limit_flits_per_cycle(&self) -> f64 {
        self.node_count() * self.unicast_saturation_rate()
    }

    /// Theoretical network throughput limit in *received* flits per cycle for
    /// broadcast traffic.
    ///
    /// At the saturation injection rate `1/k²`, each of the `k²` ejection
    /// links delivers one flit per cycle, so the network-wide received
    /// throughput is `k²` flits/cycle — for the 4×4 chip at 1 GHz with 64-bit
    /// flits this is the 1024 Gb/s theoretical limit quoted in §4.1.
    #[must_use]
    pub fn broadcast_throughput_limit_flits_per_cycle(&self) -> f64 {
        self.node_count()
    }

    /// Theoretical received-throughput limit converted to Gb/s.
    #[must_use]
    pub fn throughput_limit_gbps(
        &self,
        broadcast: bool,
        flit_bits: u32,
        frequency_ghz: f64,
    ) -> f64 {
        let flits = if broadcast {
            self.broadcast_throughput_limit_flits_per_cycle()
        } else {
            self.unicast_throughput_limit_flits_per_cycle()
        };
        flits * f64::from(flit_bits) * frequency_ghz
    }

    // --- Energy -----------------------------------------------------------

    /// Theoretical energy limit per unicast flit (Table 1):
    /// `H_avg·E_xbar + E_xbar + H_avg·E_link`.
    ///
    /// A flit traverses one crossbar per hop plus the ejection crossbar at
    /// the destination, and one link per hop.
    #[must_use]
    pub fn unicast_energy_limit_pj(&self, energy: DatapathEnergy) -> f64 {
        let h = self.unicast_average_hops();
        h * energy.crossbar_pj + energy.crossbar_pj + h * energy.link_pj
    }

    /// Theoretical energy limit per broadcast flit (Table 1):
    /// `k²·E_xbar + E_xbar + (k²-1)·E_link`.
    ///
    /// A broadcast must visit all `k²` routers (plus the injection crossbar)
    /// and traverse the `k²-1` tree links connecting them, so the limit grows
    /// quadratically with the number of routers.
    #[must_use]
    pub fn broadcast_energy_limit_pj(&self, energy: DatapathEnergy) -> f64 {
        let n = self.node_count();
        n * energy.crossbar_pj + energy.crossbar_pj + (n - 1.0) * energy.link_pj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn table1_hop_counts_for_the_prototype() {
        let l = MeshLimits::new(4);
        assert!((l.unicast_average_hops() - 10.0 / 3.0).abs() < EPS);
        assert!((l.broadcast_average_hops() - 5.5).abs() < EPS);
    }

    #[test]
    fn table1_hop_counts_odd_mesh() {
        let l = MeshLimits::new(5);
        // (k-1)(3k+1)/(2k) = 4*16/10 = 6.4
        assert!((l.broadcast_average_hops() - 6.4).abs() < EPS);
        assert!((l.unicast_average_hops() - 4.0).abs() < EPS);
    }

    #[test]
    fn table2_zero_load_latencies_match_hop_counts() {
        // "This work" zero-load latencies in Table 2: 3.3 / 5.5 cycles (4x4)
        // and 6 / 11.5 cycles (modeled as 8x8).
        let l4 = MeshLimits::new(4);
        assert!((l4.unicast_latency_limit() - 10.0 / 3.0).abs() < EPS);
        assert!((l4.broadcast_latency_limit() - 5.5).abs() < EPS);
        let l8 = MeshLimits::new(8);
        assert!((l8.unicast_latency_limit() - 6.0).abs() < EPS);
        assert!((l8.broadcast_latency_limit() - 11.5).abs() < EPS);
    }

    #[test]
    fn channel_loads_scale_with_rate_and_k() {
        let l = MeshLimits::new(8);
        let r = 0.1;
        assert!((l.unicast_bisection_load(r) - 0.2).abs() < EPS);
        assert!((l.unicast_ejection_load(r) - 0.1).abs() < EPS);
        assert!((l.broadcast_bisection_load(r) - 1.6).abs() < EPS);
        assert!((l.broadcast_ejection_load(r) - 6.4).abs() < EPS);
    }

    #[test]
    fn unicast_saturation_switches_at_k4() {
        assert!((MeshLimits::new(2).unicast_saturation_rate() - 1.0).abs() < EPS);
        assert!((MeshLimits::new(4).unicast_saturation_rate() - 1.0).abs() < EPS);
        assert!((MeshLimits::new(8).unicast_saturation_rate() - 0.5).abs() < EPS);
        assert!((MeshLimits::new(16).unicast_saturation_rate() - 0.25).abs() < EPS);
    }

    #[test]
    fn broadcast_is_ejection_limited() {
        let l = MeshLimits::new(4);
        let r_sat = l.broadcast_saturation_rate();
        assert!((r_sat - 1.0 / 16.0).abs() < EPS);
        // At saturation the ejection load is exactly 1 and the bisection load
        // is below 1.
        assert!((l.broadcast_ejection_load(r_sat) - 1.0).abs() < EPS);
        assert!(l.broadcast_bisection_load(r_sat) < 1.0);
    }

    #[test]
    fn theoretical_throughput_limit_is_1024_gbps_for_the_chip() {
        // 16 nodes x 64 bits x 1 GHz = 1024 Gb/s (Section 4.1).
        let l = MeshLimits::new(4);
        assert!((l.throughput_limit_gbps(true, 64, 1.0) - 1024.0).abs() < EPS);
        assert!((l.throughput_limit_gbps(false, 64, 1.0) - 1024.0).abs() < EPS);
    }

    #[test]
    fn energy_limits_grow_linearly_and_quadratically() {
        let e = DatapathEnergy::new(1.0, 1.0);
        let l4 = MeshLimits::new(4);
        let l8 = MeshLimits::new(8);
        // Unicast energy grows roughly linearly with k.
        let ratio_uni = l8.unicast_energy_limit_pj(e) / l4.unicast_energy_limit_pj(e);
        assert!(ratio_uni > 1.5 && ratio_uni < 2.5, "ratio was {ratio_uni}");
        // Broadcast energy grows quadratically (x4 when k doubles).
        let ratio_bc = l8.broadcast_energy_limit_pj(e) / l4.broadcast_energy_limit_pj(e);
        assert!(ratio_bc > 3.5 && ratio_bc < 4.5, "ratio was {ratio_bc}");
    }

    #[test]
    fn packet_latency_limit_adds_nic_and_serialization() {
        let l = MeshLimits::new(4);
        // Single-flit broadcast request: hops + 2 NIC cycles.
        assert!((l.packet_latency_limit(true, 1) - 7.5).abs() < EPS);
        // Five-flit unicast response: hops + 2 + 4 serialization cycles.
        assert!((l.packet_latency_limit(false, 5) - (10.0 / 3.0 + 6.0)).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_k_panics() {
        let _ = MeshLimits::new(0);
    }
}
