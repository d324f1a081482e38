//! Network interface controllers (NICs).
//!
//! Each node's NIC generates packets (via `noc-traffic`), segments them into
//! flits, injects them into its router's local input port under credit-based
//! flow control, and sinks ejected flits. The NIC-to-router and router-to-NIC
//! traversals each take one cycle — the "two extra cycles" the paper adds to
//! its theoretical latency limits.
//!
//! The injection queue is a [`RingQueue`] — the same reusable slot-buffer
//! type the network's event wheel is built from — and packets are segmented
//! through a reused scratch buffer ([`noc_types::Packet::write_flits_into`]),
//! so steady-state injection performs no heap allocation.

use noc_router::{Lookahead, OutputBank};
use noc_sim::{ActivityCounters, RingQueue};
use noc_topology::{routing::XyPortMasks, Mesh};
use noc_traffic::{TrafficGenerator, TrafficSource};
use noc_types::{Credit, Cycle, DestinationSet, Flit, NodeId, Packet, PacketId, VcId};

use crate::config::NocConfig;

/// Port index of the single tracked port of a NIC's injection-side
/// [`OutputBank`] (see [`OutputBank::for_injection`]).
const INJECT_PORT: usize = 0;

/// A flit (and optional lookahead) the NIC sends towards its router this
/// cycle.
#[derive(Debug, Clone)]
pub struct NicInjection {
    /// The injected flit (already assigned its input VC at the router).
    pub flit: Flit,
    /// Lookahead pre-allocating the source router's crossbar, when virtual
    /// bypassing is enabled.
    pub lookahead: Option<Lookahead>,
}

/// Registration data for a packet the NIC just created, used by the network's
/// scoreboard to track end-to-end latency and reception counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRegistration {
    /// Packet identifier (shared by all duplicated copies of a broadcast on
    /// networks without multicast support).
    pub id: PacketId,
    /// Cycle the packet was created.
    pub created_at: Cycle,
    /// Number of destination NICs that must receive the packet.
    pub expected_receptions: u32,
    /// Flits delivered per reception.
    pub flits_per_reception: u32,
}

/// Notification that a tail flit completed a packet reception at this NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reception {
    /// Packet identifier.
    pub id: PacketId,
    /// Node whose NIC completed the reception.
    pub node: NodeId,
    /// Flits in the received packet.
    pub flits: u32,
    /// Cycle the reception completed.
    pub at: Cycle,
}

/// One node's network interface controller.
#[derive(Debug, Clone)]
pub struct Nic {
    node: NodeId,
    /// Precomputed XY first-hop port masks for this node, so per-flit
    /// lookahead generation avoids a destination-set scan.
    port_masks: XyPortMasks,
    lookahead_enabled: bool,
    duplicate_broadcasts: bool,
    source: TrafficSource,
    inject_queue: RingQueue<Flit>,
    /// Scratch buffer packets are segmented through before entering the
    /// injection queue; reused across every packet this NIC ever creates.
    flit_scratch: Vec<Flit>,
    /// Credit/VC tracker for the router input port this NIC injects into: a
    /// single-port [`OutputBank`] addressed as port [`INJECT_PORT`].
    upstream: OutputBank,
    current_vc: Option<(PacketId, VcId)>,
    counters: ActivityCounters,
    injected_flits: u64,
    injected_packets: u64,
    received_flits: u64,
}

impl Nic {
    /// Creates the NIC of `node` under `config`, generating traffic at
    /// `rate` flits/cycle.
    #[must_use]
    pub fn new(config: &NocConfig, mesh: Mesh, node: NodeId, rate: f64) -> Self {
        let generator = TrafficGenerator::with_pattern(
            node,
            config.k,
            config.mix,
            config.pattern,
            config.seed_mode,
            rate,
            config.base_seed,
        );
        Self {
            node,
            port_masks: XyPortMasks::new(&mesh, mesh.coord_of(node)),
            lookahead_enabled: config.lookahead_enabled(),
            duplicate_broadcasts: config.nic_duplicates_broadcasts(),
            source: TrafficSource::bernoulli(generator),
            inject_queue: RingQueue::with_capacity(16),
            flit_scratch: Vec::new(),
            upstream: OutputBank::for_injection(&config.router),
            current_vc: None,
            counters: ActivityCounters::new(),
            injected_flits: 0,
            injected_packets: 0,
            received_flits: 0,
        }
    }

    /// Node this NIC belongs to.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Restores the NIC to its post-construction state under `config` —
    /// injection queue empty, all upstream credits returned, statistics
    /// zeroed, and the traffic generator re-seeded from `config.base_seed` —
    /// keeping the queue and scratch-buffer capacity. The injection rate is
    /// preserved (a following [`set_rate`](Nic::set_rate), as every
    /// simulation run performs, makes the warm NIC indistinguishable from a
    /// cold one).
    pub fn reset(&mut self, config: &NocConfig) {
        self.source = TrafficSource::bernoulli(TrafficGenerator::with_pattern(
            self.node,
            config.k,
            config.mix,
            config.pattern,
            config.seed_mode,
            self.source.rate(),
            config.base_seed,
        ));
        self.inject_queue.clear();
        self.upstream.reset();
        self.current_vc = None;
        self.counters = ActivityCounters::new();
        self.injected_flits = 0;
        self.injected_packets = 0;
        self.received_flits = 0;
    }

    /// Changes the injection rate (used between sweep points).
    pub fn set_rate(&mut self, rate: f64) {
        self.source.set_rate(rate);
    }

    /// The packet source this NIC polls (Bernoulli generator or trace
    /// replayer).
    #[must_use]
    pub fn source(&self) -> &TrafficSource {
        &self.source
    }

    /// Mutable access to the packet source — how the network starts/stops
    /// trace recording and collects recorded events.
    pub fn source_mut(&mut self) -> &mut TrafficSource {
        &mut self.source
    }

    /// Replaces the packet source (how trace replay is installed). The
    /// source must belong to this node.
    ///
    /// # Panics
    ///
    /// Panics if `source.node()` differs from this NIC's node.
    pub fn set_source(&mut self, source: TrafficSource) {
        assert_eq!(source.node(), self.node, "source node mismatch");
        self.source = source;
    }

    /// Flits currently waiting in the injection queue.
    #[must_use]
    pub fn queued_flits(&self) -> usize {
        self.inject_queue.len()
    }

    /// Scouts how many upcoming injecting ticks are guaranteed to create no
    /// packet (see [`TrafficGenerator::idle_cycles_hint`]), capped at `cap`.
    /// Only meaningful while the injection queue is empty — a queued flit
    /// makes a tick observable regardless of the generator.
    #[must_use]
    pub fn idle_inject_cycles_hint(&self, cap: u64) -> u64 {
        self.source.idle_cycles_hint(cap)
    }

    /// Replays `cycles` skipped injecting ticks' PRBS coin flips at once
    /// (each previously promised idle by
    /// [`idle_inject_cycles_hint`](Nic::idle_inject_cycles_hint)), leaving
    /// the generator exactly as `cycles` packet-less ticks would.
    pub fn skip_inject_cycles(&mut self, cycles: u64) {
        self.source.skip_idle_cycles(cycles);
    }

    /// Flits injected into the router so far.
    #[must_use]
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Packets created so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.injected_packets
    }

    /// Flits ejected to this NIC so far.
    #[must_use]
    pub fn received_flits(&self) -> u64 {
        self.received_flits
    }

    /// Activity counters (injection-link traversals).
    #[must_use]
    pub fn counters(&self) -> &ActivityCounters {
        &self.counters
    }

    /// Runs one NIC cycle: possibly create a packet, and possibly inject one
    /// queued flit towards the router.
    ///
    /// Returns the injection (if any) and the registration of the packet
    /// created this cycle, if one was (the chip's NICs create at most one
    /// packet per cycle).
    pub fn tick(
        &mut self,
        now: Cycle,
        inject: bool,
    ) -> (Option<NicInjection>, Option<PacketRegistration>) {
        let registration = if inject {
            self.source.generate(now).map(|p| self.enqueue(p))
        } else {
            None
        };
        (self.try_inject(now), registration)
    }

    /// Queues one externally built packet (used by deterministic workloads in
    /// examples and tests) and returns its registration.
    pub fn enqueue_packet(&mut self, packet: Packet) -> PacketRegistration {
        self.enqueue(packet)
    }

    fn enqueue(&mut self, packet: Packet) -> PacketRegistration {
        self.injected_packets += 1;
        let expected_receptions = packet.destinations().len() as u32;
        let flits_per_reception = packet.flit_count() as u32;
        let registration = PacketRegistration {
            id: packet.id(),
            created_at: packet.created_at(),
            expected_receptions,
            flits_per_reception,
        };
        if packet.destinations().is_empty() {
            // Owed no reception, so nothing is sent: its flits would find
            // no route and hold the injection VC for ever.
            return registration;
        }
        if packet.is_multicast() && self.duplicate_broadcasts {
            // No router-level multicast support: the NIC must inject one
            // unicast copy per destination, serialising them through its
            // single injection port (the k²-1 penalty of §2.3).
            for dest in packet.destinations().iter() {
                let copy = Packet::new(
                    packet.id(),
                    packet.source(),
                    DestinationSet::unicast(dest),
                    packet.kind(),
                    packet.created_at(),
                );
                self.queue_flits_of(&copy);
            }
        } else {
            self.queue_flits_of(&packet);
        }
        registration
    }

    /// Segments `packet` through the reused scratch buffer into the
    /// injection ring.
    fn queue_flits_of(&mut self, packet: &Packet) {
        self.flit_scratch.clear();
        packet.write_flits_into(&mut self.flit_scratch);
        for flit in self.flit_scratch.drain(..) {
            self.inject_queue.push_back(flit);
        }
    }

    /// Attempts to send the flit at the head of the injection queue.
    fn try_inject(&mut self, now: Cycle) -> Option<NicInjection> {
        let front = self.inject_queue.front()?;
        let class = front.message_class();
        let vc = if front.kind().is_head() {
            let vc = self.upstream.peek_free_vc(INJECT_PORT, class)?;
            if !self.upstream.has_credit(INJECT_PORT, class, vc) {
                return None;
            }
            self.upstream.allocate_vc(INJECT_PORT, class, vc);
            vc
        } else {
            let (_, vc) = self.current_vc?;
            if !self.upstream.has_credit(INJECT_PORT, class, vc) {
                return None;
            }
            vc
        };

        let mut flit = self.inject_queue.pop_front().expect("front checked above");
        self.upstream
            .send_flit(INJECT_PORT, class, vc, flit.kind().is_tail());
        flit.set_vc(vc);
        flit.mark_injected(now);
        if flit.kind().is_head() && !flit.kind().is_tail() {
            self.current_vc = Some((flit.packet_id(), vc));
        }
        if flit.kind().is_tail() {
            self.current_vc = None;
        }
        self.injected_flits += 1;
        self.counters.local_link_traversals += 1;

        let lookahead = if self.lookahead_enabled {
            let ports = self.port_masks.ports(flit.destinations());
            self.counters.lookaheads_sent += 1;
            Some(Lookahead::new(flit.id(), class, vc, ports))
        } else {
            None
        };
        Some(NicInjection { flit, lookahead })
    }

    /// Accepts a flit ejected by the router; returns a [`Reception`] when the
    /// flit completes a packet at this NIC.
    pub fn accept_flit(&mut self, flit: &Flit, now: Cycle) -> Option<Reception> {
        self.received_flits += 1;
        if flit.kind().is_tail() {
            Some(Reception {
                id: flit.packet_id(),
                node: self.node,
                flits: u32::from(flit.packet_len()),
                at: now,
            })
        } else {
            None
        }
    }

    /// Accepts a credit returned by the router's local input port.
    pub fn accept_credit(&mut self, credit: Credit) {
        self.upstream.on_credit(INJECT_PORT, credit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkVariant, NocConfig};
    use noc_types::{PacketKind, TrafficKind};

    fn mesh4() -> Mesh {
        Mesh::new(4).unwrap()
    }

    fn chip_nic(rate: f64) -> Nic {
        Nic::new(&NocConfig::proposed_chip().unwrap(), mesh4(), 5, rate)
    }

    #[test]
    fn injection_assigns_a_vc_and_sends_a_lookahead() {
        let mut nic = chip_nic(0.0);
        let packet = Packet::new(1, 5, DestinationSet::unicast(10), PacketKind::Request, 0);
        nic.enqueue_packet(packet);
        let (injection, _) = nic.tick(0, false);
        let injection = injection.expect("a queued flit must inject when credits exist");
        assert!(injection.flit.vc().is_some());
        assert!(injection.lookahead.is_some());
        assert_eq!(nic.injected_flits(), 1);
    }

    #[test]
    fn baseline_nic_duplicates_broadcasts() {
        let config = NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap();
        let mut nic = Nic::new(&config, mesh4(), 0, 0.0);
        let bcast = Packet::new(
            9,
            0,
            DestinationSet::broadcast(4, 0),
            PacketKind::Request,
            0,
        );
        let reg = nic.enqueue_packet(bcast);
        assert_eq!(reg.expected_receptions, 15);
        // 15 unicast copies of a single-flit request.
        assert_eq!(nic.queued_flits(), 15);
        // Without lookaheads on the baseline.
        let (injection, _) = nic.tick(0, false);
        assert!(injection.unwrap().lookahead.is_none());
    }

    #[test]
    fn proposed_nic_keeps_broadcasts_as_one_flit() {
        let mut nic = chip_nic(0.0);
        let bcast = Packet::new(
            9,
            5,
            DestinationSet::broadcast(4, 5),
            PacketKind::Request,
            0,
        );
        let reg = nic.enqueue_packet(bcast);
        assert_eq!(reg.expected_receptions, 15);
        assert_eq!(nic.queued_flits(), 1);
    }

    #[test]
    fn injection_stalls_without_credits_and_resumes_on_credit_return() {
        let mut nic = chip_nic(0.0);
        // Fill all four request VCs with single-flit packets.
        for i in 0..4u64 {
            nic.enqueue_packet(Packet::new(
                i,
                5,
                DestinationSet::unicast(1),
                PacketKind::Request,
                0,
            ));
        }
        nic.enqueue_packet(Packet::new(
            99,
            5,
            DestinationSet::unicast(2),
            PacketKind::Request,
            0,
        ));
        for cycle in 0..4 {
            assert!(nic.tick(cycle, false).0.is_some());
        }
        // All request VCs are now allocated with no credits: the fifth packet
        // must wait.
        assert!(nic.tick(4, false).0.is_none());
        assert_eq!(nic.queued_flits(), 1);
        // A credit (and the implied VC release) lets it go.
        nic.accept_credit(Credit::new(noc_types::MessageClass::Request, 0));
        assert!(nic.tick(5, false).0.is_some());
    }

    #[test]
    fn five_flit_responses_inject_on_one_vc_in_order() {
        let mut nic = chip_nic(0.0);
        nic.enqueue_packet(Packet::new(
            3,
            5,
            DestinationSet::unicast(2),
            PacketKind::Response,
            0,
        ));
        let mut sequences = Vec::new();
        let mut vcs = Vec::new();
        // Credits come back two cycles after each injection, as the router
        // forwards the flit and frees the buffer slot — modelled with the
        // same fixed-horizon EventWheel the production credit path rides, so
        // the test and production timelines share one mechanism.
        let mut credit_wheel: noc_sim::EventWheel<Credit> = noc_sim::EventWheel::new(2);
        for cycle in 0..12 {
            if let (Some(injection), _) = nic.tick(cycle, false) {
                sequences.push(injection.flit.sequence());
                vcs.push(injection.flit.vc().unwrap());
                credit_wheel.schedule(cycle + 2, Credit::new(noc_types::MessageClass::Response, 0));
            }
            let mut due = credit_wheel.take_due(cycle);
            while let Some(credit) = due.pop_front() {
                nic.accept_credit(credit);
            }
            credit_wheel.restore(due);
        }
        assert_eq!(sequences, vec![0, 1, 2, 3, 4]);
        assert!(vcs.iter().all(|&vc| vc == vcs[0]), "one VC per packet");
    }

    #[test]
    fn reception_reports_tail_flits_only() {
        let mut nic = chip_nic(0.0);
        let packet = Packet::new(4, 0, DestinationSet::unicast(5), PacketKind::Response, 10);
        let flits = packet.to_flits();
        assert!(nic.accept_flit(&flits[0], 20).is_none());
        assert!(nic.accept_flit(&flits[1], 21).is_none());
        let reception = nic.accept_flit(&flits[4], 24).unwrap();
        assert_eq!(reception.id, 4);
        assert_eq!(reception.flits, 5);
        assert_eq!(reception.at, 24);
        assert_eq!(nic.received_flits(), 3);
    }

    #[test]
    fn generator_traffic_registers_packets() {
        let mut nic = chip_nic(1.0);
        let mut total = 0;
        for cycle in 0..200 {
            let (_, regs) = nic.tick(cycle, true);
            total += usize::from(regs.is_some());
        }
        assert!(total > 0, "a rate-1.0 NIC must create packets");
        assert_eq!(nic.injected_packets(), total as u64);
    }

    #[test]
    fn deterministic_kind_builder_is_exposed_via_traffic_generator() {
        // Sanity-check that TrafficKind broadcast maps to a 15-destination
        // registration through the NIC path.
        let config = NocConfig::proposed_chip().unwrap();
        let mut gen = TrafficGenerator::new(5, 4, config.mix, config.seed_mode, 0.0);
        let packet = gen.build_packet(TrafficKind::BroadcastRequest, 7);
        let mut nic = chip_nic(0.0);
        let reg = nic.enqueue_packet(packet);
        assert_eq!(reg.expected_receptions, 15);
        assert_eq!(reg.created_at, 7);
    }
}
