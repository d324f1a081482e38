//! Power breakdowns computed from activity counters.

use noc_sim::ActivityCounters;

use crate::energy::EnergyParams;

/// Power of one network (or one router) split into the components the paper
/// reports.
///
/// Fig. 6 groups these into three stacked segments — clocking, "router logic
/// and buffer", and datapath — which [`PowerBreakdown::clocking_group_mw`],
/// [`PowerBreakdown::router_logic_and_buffer_mw`] and
/// [`PowerBreakdown::datapath_mw`] reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Clock tree and pipeline registers (mW).
    pub clocking_mw: f64,
    /// Input buffer reads and writes (mW).
    pub buffers_mw: f64,
    /// VC bookkeeping state (mW) — non-data-dependent.
    pub vc_state_mw: f64,
    /// Switch and VC allocators (mW).
    pub allocators_mw: f64,
    /// Next-route computation (mW).
    pub routing_mw: f64,
    /// Lookahead generation and transmission (mW).
    pub lookahead_mw: f64,
    /// Crossbar and inter-router link traversal (mW).
    pub datapath_mw: f64,
    /// NIC injection/ejection links (mW).
    pub local_links_mw: f64,
    /// Silicon leakage (mW).
    pub leakage_mw: f64,
}

impl PowerBreakdown {
    /// Computes the breakdown for a simulation that ran `cycles` cycles at
    /// `frequency_ghz`, with the given per-event energies.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero or `frequency_ghz` is not positive.
    #[must_use]
    pub fn from_activity(
        counters: &ActivityCounters,
        cycles: u64,
        frequency_ghz: f64,
        energy: &EnergyParams,
    ) -> Self {
        assert!(cycles > 0, "cannot compute power over zero cycles");
        assert!(frequency_ghz > 0.0, "frequency must be positive");
        // pJ per window / (cycles / f) ns  -> mW : pJ/ns = mW.
        let window_ns = cycles as f64 / frequency_ghz;
        let to_mw = |pj: f64| pj / window_ns;
        let routers = counters.routers.max(1) as f64;

        Self {
            clocking_mw: energy.clock_mw_per_router * routers,
            buffers_mw: to_mw(
                counters.buffer_writes as f64 * energy.buffer_write_pj
                    + counters.buffer_reads as f64 * energy.buffer_read_pj,
            ),
            vc_state_mw: energy.vc_state_mw_per_router * routers,
            allocators_mw: to_mw(
                counters.sa_local_arbitrations as f64 * energy.sa_local_pj
                    + counters.sa_global_arbitrations as f64 * energy.sa_global_pj
                    + counters.vc_allocations as f64 * energy.vc_alloc_pj,
            ),
            routing_mw: to_mw(counters.route_computations as f64 * energy.route_pj),
            lookahead_mw: to_mw(counters.lookaheads_sent as f64 * energy.lookahead_pj),
            datapath_mw: to_mw(
                counters.crossbar_traversals as f64 * energy.crossbar_pj
                    + counters.link_traversals as f64 * energy.link_pj,
            ),
            local_links_mw: to_mw(counters.local_link_traversals as f64 * energy.local_link_pj),
            leakage_mw: energy.leakage_mw_per_router * routers,
        }
    }

    /// Total power in mW.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.clocking_mw
            + self.buffers_mw
            + self.vc_state_mw
            + self.allocators_mw
            + self.routing_mw
            + self.lookahead_mw
            + self.datapath_mw
            + self.local_links_mw
            + self.leakage_mw
    }

    /// Fig. 6's "Clocking Circuit" segment.
    #[must_use]
    pub fn clocking_group_mw(&self) -> f64 {
        self.clocking_mw
    }

    /// Fig. 6's "Router logic and buffer" segment: buffers, VC state,
    /// allocators, route computation and lookaheads.
    #[must_use]
    pub fn router_logic_and_buffer_mw(&self) -> f64 {
        self.buffers_mw
            + self.vc_state_mw
            + self.allocators_mw
            + self.routing_mw
            + self.lookahead_mw
    }

    /// Fig. 6's "Data path (crossbar + link)" segment, including the NIC
    /// links.
    #[must_use]
    pub fn datapath_group_mw(&self) -> f64 {
        self.datapath_mw + self.local_links_mw
    }

    /// Dynamic (data-dependent) power: everything except clocking, VC state
    /// and leakage.
    #[must_use]
    pub fn dynamic_mw(&self) -> f64 {
        self.total_mw() - self.clocking_mw - self.vc_state_mw - self.leakage_mw
    }

    /// Per-router power assuming `routers` identical routers.
    #[must_use]
    pub fn per_router_mw(&self, routers: u64) -> f64 {
        self.total_mw() / routers.max(1) as f64
    }

    /// Element-wise sum of two breakdowns.
    #[must_use]
    pub fn combined(&self, other: &PowerBreakdown) -> PowerBreakdown {
        PowerBreakdown {
            clocking_mw: self.clocking_mw + other.clocking_mw,
            buffers_mw: self.buffers_mw + other.buffers_mw,
            vc_state_mw: self.vc_state_mw + other.vc_state_mw,
            allocators_mw: self.allocators_mw + other.allocators_mw,
            routing_mw: self.routing_mw + other.routing_mw,
            lookahead_mw: self.lookahead_mw + other.lookahead_mw,
            datapath_mw: self.datapath_mw + other.datapath_mw,
            local_links_mw: self.local_links_mw + other.local_links_mw,
            leakage_mw: self.leakage_mw + other.leakage_mw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> ActivityCounters {
        ActivityCounters {
            buffer_writes: 1000,
            buffer_reads: 1000,
            crossbar_traversals: 3000,
            link_traversals: 2000,
            local_link_traversals: 1000,
            sa_local_arbitrations: 1500,
            sa_global_arbitrations: 1500,
            vc_allocations: 800,
            route_computations: 900,
            lookaheads_sent: 2000,
            bypasses: 1200,
            credits_sent: 2000,
            multicast_forks: 100,
            ejections: 900,
            cycles: 16_000,
            routers: 16,
        }
    }

    #[test]
    fn total_is_the_sum_of_components() {
        let b = PowerBreakdown::from_activity(
            &sample_counters(),
            1000,
            1.0,
            &EnergyParams::chip_low_swing(),
        );
        let sum = b.clocking_mw
            + b.buffers_mw
            + b.vc_state_mw
            + b.allocators_mw
            + b.routing_mw
            + b.lookahead_mw
            + b.datapath_mw
            + b.local_links_mw
            + b.leakage_mw;
        assert!((b.total_mw() - sum).abs() < 1e-9);
        assert!(b.total_mw() > 0.0);
    }

    #[test]
    fn figure6_groups_partition_the_total() {
        let b = PowerBreakdown::from_activity(
            &sample_counters(),
            1000,
            1.0,
            &EnergyParams::chip_low_swing(),
        );
        let grouped = b.clocking_group_mw()
            + b.router_logic_and_buffer_mw()
            + b.datapath_group_mw()
            + b.leakage_mw;
        assert!((grouped - b.total_mw()).abs() < 1e-9);
    }

    #[test]
    fn static_components_do_not_depend_on_activity() {
        let idle = ActivityCounters {
            routers: 16,
            cycles: 16_000,
            ..ActivityCounters::new()
        };
        let b = PowerBreakdown::from_activity(&idle, 1000, 1.0, &EnergyParams::chip_low_swing());
        assert_eq!(b.buffers_mw, 0.0);
        assert_eq!(b.datapath_mw, 0.0);
        assert!(b.clocking_mw > 0.0);
        assert!(b.vc_state_mw > 0.0);
        assert!(b.leakage_mw > 0.0);
        assert!(b.dynamic_mw().abs() < 1e-9);
    }

    #[test]
    fn full_swing_datapath_costs_more_than_low_swing() {
        let counters = sample_counters();
        let fs =
            PowerBreakdown::from_activity(&counters, 1000, 1.0, &EnergyParams::chip_full_swing());
        let ls =
            PowerBreakdown::from_activity(&counters, 1000, 1.0, &EnergyParams::chip_low_swing());
        assert!(fs.datapath_group_mw() > ls.datapath_group_mw());
        assert!((fs.buffers_mw - ls.buffers_mw).abs() < 1e-12);
        let reduction = 1.0 - ls.datapath_group_mw() / fs.datapath_group_mw();
        assert!((reduction - 0.483).abs() < 1e-6);
    }

    #[test]
    fn doubling_the_window_halves_dynamic_power() {
        let counters = sample_counters();
        let short = PowerBreakdown::from_activity(&counters, 1000, 1.0, &EnergyParams::default());
        let long = PowerBreakdown::from_activity(&counters, 2000, 1.0, &EnergyParams::default());
        assert!((short.buffers_mw - 2.0 * long.buffers_mw).abs() < 1e-9);
        assert_eq!(short.clocking_mw, long.clocking_mw);
    }

    #[test]
    #[should_panic(expected = "zero cycles")]
    fn zero_cycles_panics() {
        let _ = PowerBreakdown::from_activity(
            &ActivityCounters::new(),
            0,
            1.0,
            &EnergyParams::default(),
        );
    }
}
