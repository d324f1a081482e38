//! Per-node traffic generators: the Bernoulli PRBS packet sources the
//! chip's NICs implement in RTL (§4.1), including the identical-seed
//! artifact the paper measures and the per-node-seed "fixed RTL" variant.

use noc_sim::{bernoulli_threshold, PrbsGenerator};
use noc_types::{Cycle, DestinationSet, NodeId, Packet, PacketId, PacketKind, TrafficKind};

use crate::mix::TrafficMix;
use crate::pattern::SpatialPattern;

/// How the per-node PRBS generators are seeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Every NIC uses the same seed — the fabricated chip's artifact. All
    /// nodes make correlated injection decisions and destination choices,
    /// which causes avoidable contention and limits bypassing even at low
    /// injection rates (§4.1 attributes ~1 cycle/hop of measured contention
    /// latency to this).
    Identical,
    /// Each NIC derives its seed from its node id — the "fixed RTL"
    /// behaviour whose simulated contention is only ~0.04 cycles/hop.
    PerNode,
}

/// A Bernoulli packet source attached to one node.
///
/// Each cycle the generator flips a PRBS coin with probability
/// `rate / expected_flits_per_packet` (so that `rate` is the *flit* injection
/// rate the paper's throughput axes use), picks a packet kind from the
/// configured [`TrafficMix`], and draws a unicast destination through the
/// configured [`SpatialPattern`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficGenerator {
    node: NodeId,
    k: u16,
    mix: TrafficMix,
    pattern: SpatialPattern,
    rate: f64,
    /// Fixed-point Bernoulli threshold for `rate / expected_flits_per_packet`,
    /// cached so the per-cycle coin flip is one table-leap compare instead of
    /// a divide (recomputed only when the rate changes).
    coin_threshold: u32,
    prbs: PrbsGenerator,
    next_packet_seq: u64,
}

impl TrafficGenerator {
    /// The base seed the chip's PRBS generators boot from.
    pub const DEFAULT_BASE_SEED: u16 = 0xACE1;

    /// Creates a generator for `node` of a k×k mesh injecting `rate`
    /// flits/cycle on average, seeded from
    /// [`DEFAULT_BASE_SEED`](Self::DEFAULT_BASE_SEED).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `k == 0`.
    #[must_use]
    pub fn new(node: NodeId, k: u16, mix: TrafficMix, seed_mode: SeedMode, rate: f64) -> Self {
        Self::with_base_seed(node, k, mix, seed_mode, rate, Self::DEFAULT_BASE_SEED)
    }

    /// Creates a generator whose PRBS state boots from `base_seed` instead of
    /// the chip's default.
    ///
    /// Sweep runners derive one base seed per sweep point so that every point
    /// is statistically independent yet fully determined by `(configuration,
    /// point index)` — the property that makes parallel and sequential sweeps
    /// bit-identical.
    ///
    /// Destinations follow [`SpatialPattern::uniform_legacy`]; use
    /// [`with_pattern`](Self::with_pattern) to choose any other pattern.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `k == 0`.
    #[must_use]
    pub fn with_base_seed(
        node: NodeId,
        k: u16,
        mix: TrafficMix,
        seed_mode: SeedMode,
        rate: f64,
        base_seed: u16,
    ) -> Self {
        Self::with_pattern(
            node,
            k,
            mix,
            SpatialPattern::uniform_legacy(),
            seed_mode,
            rate,
            base_seed,
        )
    }

    /// Creates a generator drawing unicast destinations through `pattern`.
    ///
    /// This is the fully general constructor the NICs use; the narrower
    /// [`new`](Self::new) / [`with_base_seed`](Self::with_base_seed) default
    /// to the chip's uniform-random pattern.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or `k == 0`.
    #[must_use]
    pub fn with_pattern(
        node: NodeId,
        k: u16,
        mix: TrafficMix,
        pattern: SpatialPattern,
        seed_mode: SeedMode,
        rate: f64,
        base_seed: u16,
    ) -> Self {
        assert!(rate >= 0.0, "injection rate must be non-negative");
        assert!(k > 0, "mesh side length must be positive");
        let seed = match seed_mode {
            SeedMode::Identical => base_seed,
            SeedMode::PerNode => base_seed ^ (node.wrapping_mul(0x9E37) | 1),
        };
        let coin_threshold = bernoulli_threshold(rate / mix.expected_flits_per_packet());
        Self {
            node,
            k,
            mix,
            pattern,
            rate,
            coin_threshold,
            prbs: PrbsGenerator::new(seed),
            next_packet_seq: 0,
        }
    }

    /// Node this generator injects from.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Configured flit injection rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Changes the injection rate (used by sweeps reusing one generator).
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate >= 0.0, "injection rate must be non-negative");
        self.rate = rate;
        self.coin_threshold = bernoulli_threshold(rate / self.mix.expected_flits_per_packet());
    }

    /// Traffic mix.
    #[must_use]
    pub fn mix(&self) -> &TrafficMix {
        &self.mix
    }

    /// Spatial pattern unicast destinations are drawn through.
    #[must_use]
    pub fn pattern(&self) -> &SpatialPattern {
        &self.pattern
    }

    /// Number of packets generated so far.
    #[must_use]
    pub fn generated_packets(&self) -> u64 {
        self.next_packet_seq
    }

    /// Produces the packet this node creates at `cycle`, if any (the chip's
    /// NICs inject at most one packet per cycle, so no container — and no
    /// allocation — is needed).
    pub fn generate(&mut self, cycle: Cycle) -> Option<Packet> {
        if !self.prbs.coin(self.coin_threshold) {
            return None;
        }
        let kind_sample = f64::from(self.prbs.next_word()) / f64::from(u16::MAX);
        let kind = self.mix.pick(kind_sample.min(0.999_999));
        Some(self.build_packet(kind, cycle))
    }

    /// Scouts how many upcoming [`generate`](Self::generate) calls are
    /// guaranteed to produce no packet, without mutating any PRBS state.
    ///
    /// Returns `u64::MAX` when the generator can never inject (zero rate),
    /// otherwise the exact number of losing coin flips ahead, capped at
    /// `cap`. A scheduler may skip that many cycles and replay them later
    /// through [`skip_idle_cycles`](Self::skip_idle_cycles) with a bit-exact
    /// resulting stream.
    #[must_use]
    pub fn idle_cycles_hint(&self, cap: u64) -> u64 {
        self.prbs.scout_coin_run(self.coin_threshold, cap)
    }

    /// Replays `cycles` injection coin flips at once (each one a losing flip
    /// previously promised by [`idle_cycles_hint`](Self::idle_cycles_hint)),
    /// leaving the PRBS state exactly as `cycles` calls to
    /// [`generate`](Self::generate) returning `None` would.
    pub fn skip_idle_cycles(&mut self, cycles: u64) {
        self.prbs.skip_coin_flips(cycles);
    }

    /// Builds one packet of the given kind at `cycle` (also used by tests and
    /// deterministic workloads that bypass the Bernoulli process).
    pub fn build_packet(&mut self, kind: TrafficKind, cycle: Cycle) -> Packet {
        let id = self.packet_id();
        let (dests, packet_kind) = match kind {
            TrafficKind::BroadcastRequest => (
                DestinationSet::broadcast(self.k, self.node),
                PacketKind::Request,
            ),
            TrafficKind::UnicastRequest | TrafficKind::UnicastResponse => {
                let dest = self.pattern.draw(&mut self.prbs, self.node, self.k);
                let packet_kind = if kind == TrafficKind::UnicastRequest {
                    PacketKind::Request
                } else {
                    PacketKind::Response
                };
                (DestinationSet::unicast(dest), packet_kind)
            }
        };
        Packet::new(id, self.node, dests, packet_kind, cycle)
    }

    /// Globally unique packet id: the node id in the high bits, a per-node
    /// sequence number in the low bits.
    fn packet_id(&mut self) -> PacketId {
        let id = (u64::from(self.node) << 40) | self.next_packet_seq;
        self.next_packet_seq += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_packets(mut gen: TrafficGenerator, cycles: Cycle) -> u64 {
        let mut n = 0;
        for c in 0..cycles {
            n += u64::from(gen.generate(c).is_some());
        }
        n
    }

    #[test]
    fn injection_rate_controls_packet_count() {
        let low = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.05);
        let high = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.5);
        let n_low = total_packets(low, 10_000);
        let n_high = total_packets(high, 10_000);
        // Expected: 0.05/2 * 10k = 250 and 0.5/2 * 10k = 2500 packets.
        assert!(n_low > 150 && n_low < 350, "low-rate packets: {n_low}");
        assert!(
            n_high > 2200 && n_high < 2800,
            "high-rate packets: {n_high}"
        );
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let gen = TrafficGenerator::new(3, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.0);
        assert_eq!(total_packets(gen, 1000), 0);
    }

    #[test]
    fn mixed_traffic_produces_all_three_kinds() {
        let mut gen = TrafficGenerator::new(1, 4, TrafficMix::mixed(), SeedMode::PerNode, 1.0);
        let mut bcast = 0;
        let mut uni_req = 0;
        let mut uni_resp = 0;
        for c in 0..20_000 {
            if let Some(p) = gen.generate(c) {
                if p.is_multicast() {
                    bcast += 1;
                } else if p.kind() == PacketKind::Request {
                    uni_req += 1;
                } else {
                    uni_resp += 1;
                }
            }
        }
        let total = (bcast + uni_req + uni_resp) as f64;
        assert!(total > 0.0);
        assert!((f64::from(bcast) / total - 0.5).abs() < 0.05);
        assert!((f64::from(uni_req) / total - 0.25).abs() < 0.05);
        assert!((f64::from(uni_resp) / total - 0.25).abs() < 0.05);
    }

    #[test]
    fn unicasts_never_target_their_own_node() {
        let mut gen =
            TrafficGenerator::new(5, 4, TrafficMix::unicast_only(), SeedMode::PerNode, 1.0);
        for c in 0..5000 {
            if let Some(p) = gen.generate(c) {
                assert!(!p.destinations().contains(5));
                assert_eq!(p.destinations().len(), 1);
            }
        }
    }

    #[test]
    fn broadcast_only_targets_everyone_else() {
        let mut gen =
            TrafficGenerator::new(2, 4, TrafficMix::broadcast_only(), SeedMode::PerNode, 0.5);
        for c in 0..1000 {
            if let Some(p) = gen.generate(c) {
                assert_eq!(p.destinations().len(), 15);
                assert!(!p.destinations().contains(2));
            }
        }
    }

    #[test]
    fn identical_seeds_correlate_injection_decisions() {
        let mut a = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::Identical, 0.2);
        let mut b = TrafficGenerator::new(9, 4, TrafficMix::mixed(), SeedMode::Identical, 0.2);
        for c in 0..2000 {
            // Both nodes decide to inject (or not) on exactly the same cycles.
            assert_eq!(a.generate(c).is_some(), b.generate(c).is_some());
        }
        let mut a = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.2);
        let mut b = TrafficGenerator::new(9, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.2);
        let mut differs = false;
        for c in 0..2000 {
            if a.generate(c).is_some() != b.generate(c).is_some() {
                differs = true;
            }
        }
        assert!(differs, "per-node seeds must decorrelate the processes");
    }

    #[test]
    fn pattern_threads_through_to_unicast_destinations() {
        use crate::pattern::SpatialPattern;
        // Node 6 = (2, 1) on 4×4; transpose target = (1, 2) = node 9.
        let mut gen = TrafficGenerator::with_pattern(
            6,
            4,
            TrafficMix::unicast_requests_only(),
            SpatialPattern::Transpose,
            SeedMode::PerNode,
            1.0,
            TrafficGenerator::DEFAULT_BASE_SEED,
        );
        for c in 0..200 {
            if let Some(p) = gen.generate(c) {
                assert!(p.destinations().contains(9));
                assert_eq!(p.destinations().len(), 1);
            }
        }
        assert_eq!(gen.pattern(), &SpatialPattern::Transpose);
    }

    #[test]
    fn default_constructors_use_the_legacy_uniform_pattern() {
        use crate::pattern::SpatialPattern;
        let gen = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.1);
        assert_eq!(gen.pattern(), &SpatialPattern::uniform_legacy());
    }

    #[test]
    fn idle_hint_and_skip_replay_the_serial_coin_stream() {
        let mut serial = TrafficGenerator::new(3, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.01);
        let mut skipping = serial.clone();
        let mut cycle = 0;
        while cycle < 50_000 {
            let idle = skipping.idle_cycles_hint(1_000);
            if idle > 0 {
                let run = idle.min(1_000);
                for c in cycle..cycle + run {
                    assert!(serial.generate(c).is_none(), "promised-idle cycle {c}");
                }
                skipping.skip_idle_cycles(run);
                cycle += run;
            } else {
                assert_eq!(serial.generate(cycle), skipping.generate(cycle));
                cycle += 1;
            }
        }
        assert_eq!(serial, skipping, "PRBS states must converge identically");
    }

    #[test]
    fn zero_rate_scouts_as_forever_idle() {
        let gen = TrafficGenerator::new(3, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.0);
        assert_eq!(gen.idle_cycles_hint(u64::MAX), u64::MAX);
    }

    #[test]
    fn set_rate_recomputes_the_cached_threshold() {
        let fresh = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.5);
        let mut updated = TrafficGenerator::new(0, 4, TrafficMix::mixed(), SeedMode::PerNode, 0.05);
        updated.set_rate(0.5);
        assert_eq!(fresh, updated, "set_rate must match construction exactly");
    }

    #[test]
    fn packet_ids_are_unique_per_node() {
        let mut gen = TrafficGenerator::new(7, 4, TrafficMix::mixed(), SeedMode::PerNode, 1.0);
        let mut ids = std::collections::HashSet::new();
        for c in 0..2000 {
            if let Some(p) = gen.generate(c) {
                assert!(ids.insert(p.id()), "duplicate packet id {}", p.id());
            }
        }
    }
}
