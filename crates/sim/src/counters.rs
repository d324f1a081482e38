//! Per-component activity counters.
//!
//! Every microarchitectural event that costs energy on the real chip is
//! counted here during simulation; the `noc-power` crate multiplies these
//! counts by per-event energies to produce the power breakdowns of Fig. 6
//! and Fig. 8. Keeping the counters in the simulation kernel (rather than in
//! the router crate) lets the NICs, links and routers all contribute to one
//! ledger per network.

/// Counts of energy-relevant events accumulated during a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityCounters {
    /// Flit writes into input buffers (BW stage).
    pub buffer_writes: u64,
    /// Flit reads out of input buffers (BR, folded into ST on the chip).
    pub buffer_reads: u64,
    /// Crossbar traversals (ST stage); a multicast replicated to `n` output
    /// ports counts `n` traversals, matching the tri-state RSD crossbar that
    /// drives one vertical wire per selected output.
    pub crossbar_traversals: u64,
    /// Router-to-router link traversals (LT stage).
    pub link_traversals: u64,
    /// NIC injection / ejection link traversals.
    pub local_link_traversals: u64,
    /// First-stage (per-input-port, round-robin) switch-allocation decisions
    /// (mSA-I).
    pub sa_local_arbitrations: u64,
    /// Second-stage (per-output-port, matrix) switch-allocation decisions
    /// (mSA-II), including those triggered by lookaheads.
    pub sa_global_arbitrations: u64,
    /// Virtual-channel allocations (free-VC queue pops).
    pub vc_allocations: u64,
    /// Next-route computations performed for head flits (NRC).
    pub route_computations: u64,
    /// Lookahead signals sent to downstream routers.
    pub lookaheads_sent: u64,
    /// Link traversals on which the flit bypassed buffering thanks to a
    /// winning lookahead (a strict subset of `link_traversals`; local-port
    /// ejections of a bypassing flit are not counted).
    pub bypasses: u64,
    /// Flow-control credits sent upstream.
    pub credits_sent: u64,
    /// Multicast fork events (a flit replicated to more than one output).
    pub multicast_forks: u64,
    /// Packets ejected to a NIC.
    pub ejections: u64,
    /// Cycles simulated (for clock-tree and leakage energy, which accrue
    /// whether or not data moves).
    pub cycles: u64,
    /// Number of routers contributing to `cycles` (so per-router clock energy
    /// can be charged to each of them).
    pub routers: u64,
}

impl ActivityCounters {
    /// Creates a zeroed counter set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &ActivityCounters) {
        self.buffer_writes += other.buffer_writes;
        self.buffer_reads += other.buffer_reads;
        self.crossbar_traversals += other.crossbar_traversals;
        self.link_traversals += other.link_traversals;
        self.local_link_traversals += other.local_link_traversals;
        self.sa_local_arbitrations += other.sa_local_arbitrations;
        self.sa_global_arbitrations += other.sa_global_arbitrations;
        self.vc_allocations += other.vc_allocations;
        self.route_computations += other.route_computations;
        self.lookaheads_sent += other.lookaheads_sent;
        self.bypasses += other.bypasses;
        self.credits_sent += other.credits_sent;
        self.multicast_forks += other.multicast_forks;
        self.ejections += other.ejections;
        self.cycles += other.cycles;
        self.routers += other.routers;
    }

    /// Fraction of router-to-router link traversals that used the bypass
    /// path (0.0 when no link hop occurred). Always in `[0, 1]`: `bypasses`
    /// is counted per link traversal, so a bypassing flit forked to `n`
    /// links counts `n` of each, and one that only ejected locally counts
    /// neither.
    ///
    /// The paper reports that with identical PRBS seeds the bypass rate at
    /// low load is noticeably below 1.0, which is why measured low-load
    /// contention latency is ~1 cycle/hop instead of the ~0.04 cycles/hop of
    /// the fixed-RTL simulation.
    #[must_use]
    pub fn bypass_fraction(&self) -> f64 {
        let hops = self.link_traversals;
        if hops == 0 {
            0.0
        } else {
            debug_assert!(self.bypasses <= hops, "bypasses are a subset of hops");
            self.bypasses as f64 / hops as f64
        }
    }

    /// Average crossbar fan-out per traversal-triggering flit movement
    /// (1.0 for pure unicast traffic, higher when multicasts fork).
    #[must_use]
    pub fn average_fanout(&self) -> f64 {
        let moves = self.buffer_reads + self.bypasses;
        if moves == 0 {
            0.0
        } else {
            self.crossbar_traversals as f64 / moves as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = ActivityCounters {
            buffer_writes: 2,
            link_traversals: 4,
            bypasses: 1,
            cycles: 100,
            ..ActivityCounters::new()
        };
        let b = ActivityCounters {
            buffer_writes: 3,
            link_traversals: 6,
            bypasses: 5,
            cycles: 100,
            ..ActivityCounters::new()
        };
        a.merge(&b);
        assert_eq!(a.buffer_writes, 5);
        assert_eq!(a.link_traversals, 10);
        assert_eq!(a.bypasses, 6);
        assert_eq!(a.cycles, 200);
    }

    #[test]
    fn bypass_fraction_handles_zero() {
        let c = ActivityCounters::new();
        assert_eq!(c.bypass_fraction(), 0.0);
        let c = ActivityCounters {
            link_traversals: 10,
            bypasses: 4,
            ..ActivityCounters::new()
        };
        assert_eq!(c.bypass_fraction(), 0.4);
    }

    #[test]
    fn average_fanout_counts_multicast_replication() {
        let c = ActivityCounters {
            buffer_reads: 2,
            bypasses: 2,
            crossbar_traversals: 10,
            ..ActivityCounters::new()
        };
        assert_eq!(c.average_fanout(), 2.5);
    }
}
