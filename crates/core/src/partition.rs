//! Spatial partitions of the network and the persistent worker pool that
//! steps them in parallel.
//!
//! The mesh is sharded into axis-aligned rectangles — row strips or 2-D
//! tiles ([`noc_topology::PartitionMap`]); each [`Partition`] owns the
//! routers, NICs, event-wheel lanes and flit slab of its [`TileRegion`] and
//! can run one full network cycle touching nothing but its own state —
//! except for events crossing a partition boundary, which it accumulates
//! into per-direction outboxes and hands to the grid neighbour on that side
//! through a per-directed-edge [`BoundaryMailbox`] by the end of the cycle. The
//! `Network` then drains the mailboxes in fixed edge order and merges
//! buffered receptions/registrations at a single-threaded merge point
//! (receptions in ascending destination-node order — exactly the serial
//! within-cycle order), which is what makes a partitioned run bit-identical
//! to the serial one for any shape and thread count (see `ARCHITECTURE.md`,
//! "Partitioned parallel stepping").
//!
//! Within one cycle every delivery commutes: a router input port receives at
//! most one flit and one lookahead per cycle (one link per port, one
//! departure per output port), credits are per-VC counter increments, wake
//! bits are idempotent ORs, and the latency/throughput accumulators are sums
//! and histograms. Cross-partition events therefore only need to arrive in
//! the right *cycle* — their order within a wheel slot is free — and the
//! per-edge FIFO mailboxes keep even that order deterministic.
//!
//! Each partition also accumulates a cumulative per-node **activity weight**
//! (router steps of the active-set walk). The weights are themselves pure
//! simulated state — identical for every shape and thread count — so the
//! `Network` can periodically recompute the cut positions from them
//! (deterministic load-aware repartitioning) and migrate the per-node state
//! via [`Partition::dismantle`] / [`Partition::assemble`] without perturbing
//! a single bit of the simulation.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use noc_router::{Departure, Lookahead, Router, RouterOutput};
use noc_sim::{BoundaryMailbox, EventWheel, FlitHandle, FlitSlab};
use noc_topology::{Mesh, TileRegion};
use noc_types::{Credit, Cycle, Direction, Flit, NodeId, Packet, Port, PORT_COUNT};

use crate::config::NocConfig;
use crate::nic::{Nic, PacketRegistration, Reception};

/// `port_code` value of a [`FlitEvent`] ejecting to the node's NIC (router
/// input ports use their `Port::index()`, `0..PORT_COUNT`).
pub(crate) const NIC_PORT_CODE: u8 = PORT_COUNT as u8;

/// Cap on how far a NIC scouts its injection coin stream ahead: one full
/// 16-bit LFSR word period. Bounds the scout's worst-case work; a NIC whose
/// idle run is longer simply naps in `MAX_NIC_SCOUT` instalments.
const MAX_NIC_SCOUT: u64 = 65_535;

/// A flit hop in flight on the flit lane: the payload is parked in the
/// owning partition's [`FlitSlab`] and only this small ticket rides the
/// wheel. `node` is the *global* node id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlitEvent {
    node: NodeId,
    /// Router input-port index (`Port::from_index`), or [`NIC_PORT_CODE`]
    /// for ejection to the node's NIC.
    port_code: u8,
    handle: FlitHandle,
}

/// A word-sized control message in flight on the word lane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WordEvent {
    Lookahead {
        node: NodeId,
        port: Port,
        lookahead: Lookahead,
    },
    CreditToRouter {
        node: NodeId,
        port: Port,
        credit: Credit,
    },
    CreditToNic {
        node: NodeId,
        credit: Credit,
    },
}

/// An event produced in one partition for delivery in another: a flit hop
/// (payload by value — it changes slabs), a lookahead or a returning credit
/// on a cut North/South link. `at` is the absolute delivery cycle, always in
/// the future of the cycle that produced it (link and credit delays are at
/// least one cycle), so the destination partition can schedule it after its
/// own phase A has passed.
#[derive(Debug, Clone)]
pub(crate) enum BoundaryEvent {
    /// A flit crossing the boundary; re-homed into the destination
    /// partition's slab on arrival.
    Flit {
        at: Cycle,
        node: NodeId,
        port_code: u8,
        flit: Flit,
    },
    /// A lookahead accompanying a boundary flit.
    Lookahead {
        at: Cycle,
        node: NodeId,
        port: Port,
        lookahead: Lookahead,
    },
    /// A credit returning upstream across the boundary.
    Credit {
        at: Cycle,
        node: NodeId,
        port: Port,
        credit: Credit,
    },
}

/// One directed partition edge: the mailbox a single producing partition
/// pushes its per-cycle boundary batch into, and the partition that drains
/// it at the merge point. The network materialises one `DirectedEdge` per
/// (partition, direction-with-a-grid-neighbour) pair, in ascending partition
/// order then [`Direction::ALL`] order — a fixed drain order for the merge.
#[derive(Debug)]
pub(crate) struct DirectedEdge {
    /// Destination partition that receives this edge's events.
    pub(crate) to: usize,
    pub(crate) mailbox: BoundaryMailbox<BoundaryEvent>,
}

/// Per-cycle parameters shared by every partition's step, copied into each
/// pool worker's job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepCtx {
    pub(crate) now: Cycle,
    pub(crate) inject: bool,
    /// Completed injecting steps before this one — the ordinal clock the
    /// quiescent-NIC nap bookkeeping is keyed by.
    pub(crate) inject_ordinal: u64,
    pub(crate) nic_idle_skip: bool,
    pub(crate) link_delay: u64,
    pub(crate) credit_delay: u64,
}

/// One axis-aligned rectangle of the mesh: the routers and NICs of a
/// [`TileRegion`] plus private copies of all per-cycle machinery
/// (event-wheel lanes, flit slab, active-set masks, NIC nap bookkeeping),
/// so a full cycle can run without touching any other partition's state.
#[derive(Debug, Clone)]
pub(crate) struct Partition {
    /// The rectangular node region owned by this partition. Local indices
    /// (`0..region.len()`) follow the region's row-major order, which
    /// ascends with global node id.
    region: TileRegion,
    routers: Vec<Router>,
    nics: Vec<Nic>,
    word_lane: EventWheel<WordEvent>,
    flit_lane: EventWheel<FlitEvent>,
    slab: FlitSlab,
    router_scratch: RouterOutput,
    /// Active-set words over this partition's routers (bit indices are
    /// partition-local: `region.local_of(node)`).
    router_wake: Vec<u64>,
    /// Bit set ⇔ the local NIC has queued flits (drain-phase active set).
    nic_active: Vec<u64>,
    /// Router-cycles skipped by the active-set scheduler, folded back into
    /// the merged `cycles` activity counter.
    pub(crate) idle_router_cycles: u64,
    /// Bit set ⇔ the local NIC is awake (must flip its injection coin when
    /// an injecting step runs).
    nic_awake: Vec<u64>,
    /// Per-NIC inject ordinal at which a sleeping NIC must be woken
    /// (`u64::MAX` = never).
    nic_wake_at: Vec<u64>,
    /// Per-NIC inject ordinal of the tick after which the NIC went to sleep.
    nic_slept_at: Vec<u64>,
    /// Minimum of `nic_wake_at` over sleeping NICs (`u64::MAX` when all are
    /// awake).
    next_nic_wake: u64,
    /// Cumulative per-node activity weight: router steps performed by the
    /// phase-B2 active-set walk since the last reset. Pure simulated state
    /// (identical for every shape and thread count), it drives the
    /// deterministic load-aware repartitioning and the per-partition busy
    /// reporting; migrated with its node on repartition.
    weights: Vec<u64>,
    /// Packet receptions completed this cycle, in local delivery order
    /// (ascending destination node: ejections are scheduled by the B2
    /// router walk); the network merges them in ascending global-node order
    /// at the deterministic merge point.
    pub(crate) receptions: Vec<Reception>,
    /// Packets registered by local NICs this cycle, in local tick order.
    pub(crate) registrations: Vec<PacketRegistration>,
    /// Per-direction boundary batches, accumulated over the cycle and pushed
    /// to the direction's edge mailbox in one batch (indexed by
    /// `Direction::port().index()`).
    outboxes: [Vec<BoundaryEvent>; 4],
    /// For each direction, the index into the network's edge vector this
    /// partition produces into (`None` at the partition-grid edge).
    edge_out: [Option<u32>; 4],
}

impl Partition {
    /// Builds the partition owning `region`, with every NIC injecting at
    /// `rate`. Edge routing (`edge_out`) is wired afterwards by the network.
    pub(crate) fn new(config: &NocConfig, mesh: Mesh, region: TileRegion, rate: f64) -> Self {
        let count = region.len();
        let routers = region
            .nodes()
            .map(|node| Router::new(&config.router, mesh, mesh.coord_of(node)))
            .collect();
        let nics = region
            .nodes()
            .map(|node| Nic::new(config, mesh, node, rate))
            .collect();
        let horizon = config
            .link_delay_cycles()
            .max(config.credit_delay_cycles)
            .max(1);
        let words = count.div_ceil(64);
        Self {
            region,
            routers,
            nics,
            word_lane: EventWheel::new(horizon),
            flit_lane: EventWheel::new(horizon),
            slab: FlitSlab::new(),
            router_scratch: RouterOutput::default(),
            router_wake: vec![0; words],
            nic_active: vec![0; words],
            idle_router_cycles: 0,
            nic_awake: full_awake_mask(words, count),
            nic_wake_at: vec![0; count],
            nic_slept_at: vec![0; count],
            next_nic_wake: u64::MAX,
            weights: vec![0; count],
            receptions: Vec::new(),
            registrations: Vec::new(),
            outboxes: [const { Vec::new() }; 4],
            edge_out: [None; 4],
        }
    }

    /// Restores the partition to its post-construction state, keeping every
    /// warmed-up buffer capacity (the partition half of `Network::reset`).
    pub(crate) fn reset(&mut self, config: &NocConfig) {
        for router in &mut self.routers {
            router.reset();
        }
        for nic in &mut self.nics {
            nic.reset(config);
        }
        self.word_lane.reset();
        self.flit_lane.reset();
        self.slab.reset();
        self.router_scratch.clear();
        self.router_wake.fill(0);
        self.nic_active.fill(0);
        self.idle_router_cycles = 0;
        let count = self.nics.len();
        self.nic_awake = full_awake_mask(self.nic_awake.len(), count);
        self.nic_wake_at.fill(0);
        self.nic_slept_at.fill(0);
        self.next_nic_wake = u64::MAX;
        self.weights.fill(0);
        self.receptions.clear();
        self.registrations.clear();
        for outbox in &mut self.outboxes {
            outbox.clear();
        }
    }

    /// The partition's routers, in ascending node order.
    pub(crate) fn routers(&self) -> &[Router] {
        &self.routers
    }

    /// The partition's NICs, in ascending node order.
    pub(crate) fn nics(&self) -> &[Nic] {
        &self.nics
    }

    /// Mutable access to the partition's NICs, in ascending node order.
    ///
    /// Used by trace record / replay to swap or poke the per-NIC traffic
    /// sources between steps; never called while a step is in flight.
    pub(crate) fn nics_mut(&mut self) -> &mut [Nic] {
        &mut self.nics
    }

    /// Enqueues an externally created packet at local NIC `local`, exactly
    /// as if the NIC's own source had generated it this cycle.
    ///
    /// The registration is buffered like any NIC-generated one (so the
    /// deterministic merge picks it up this cycle) and the NIC is marked
    /// active so drain-phase stepping keeps ticking it until its queue
    /// empties. This is the injection path of the closed-loop serving layer,
    /// which drives `step(inject = false)` and feeds every packet in by hand.
    pub(crate) fn enqueue_external(&mut self, local: usize, packet: Packet) {
        let registration = self.nics[local].enqueue_packet(packet);
        self.registrations.push(registration);
        self.nic_active[local / 64] |= 1 << (local % 64);
    }

    /// The rectangular node region owned by this partition.
    pub(crate) fn region(&self) -> TileRegion {
        self.region
    }

    /// Routes this partition's boundary events for direction `dir` to the
    /// network edge at `edge` (called while wiring a freshly built or
    /// repartitioned network).
    pub(crate) fn set_edge_out(&mut self, dir: Direction, edge: usize) {
        self.edge_out[dir.port().index()] = Some(u32::try_from(edge).expect("edge index fits u32"));
    }

    /// Total accumulated activity weight of this partition's nodes (the
    /// per-partition busy metric the hotspot stressor reports).
    pub(crate) fn load(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Scatters this partition's cumulative per-node weights into a
    /// mesh-sized `out` slice indexed by global node id.
    pub(crate) fn node_weights_into(&self, out: &mut [u64]) {
        for (local, &w) in self.weights.iter().enumerate() {
            out[usize::from(self.region.node_of(local))] = w;
        }
    }

    /// Changes the injection rate of every local NIC (waking sleepers first;
    /// see `Network::set_rate`).
    pub(crate) fn set_rate(&mut self, rate: f64, inject_steps: u64) {
        self.wake_all_nics(inject_steps);
        for nic in &mut self.nics {
            nic.set_rate(rate);
        }
    }

    /// Flits currently buffered in local routers plus queued in local NICs
    /// plus parked in the local slab (in flight on local links).
    pub(crate) fn in_flight_flits(&self) -> usize {
        let buffered: usize = self.routers.iter().map(Router::buffered_flits).sum();
        let queued: usize = self.nics.iter().map(Nic::queued_flits).sum();
        // Between steps every live slab handle is exactly one scheduled
        // flit-lane event, so the slab doubles as the on-links scoreboard.
        debug_assert_eq!(self.slab.live(), self.flit_lane.pending());
        buffered + queued + self.slab.live()
    }

    /// Runs one full network cycle over this partition's nodes. Events bound
    /// for other partitions are batched into the edge mailboxes; everything
    /// else is indistinguishable from the serial step restricted to this
    /// node range.
    pub(crate) fn step_cycle(&mut self, ctx: &StepCtx, edges: &[DirectedEdge]) {
        let now = ctx.now;

        // Phase A: deliver everything scheduled for this cycle — the word
        // lane (credits and lookaheads) first, then the flit lane. Each due
        // slot is detached from its wheel so deliveries can schedule
        // follow-up events, then its (drained) buffer is recycled. Every
        // delivery to a router marks it in the wake mask phase B2 walks.
        let mut due_words = self.word_lane.take_due(now);
        while let Some(event) = due_words.pop_front() {
            self.deliver_word(event);
        }
        self.word_lane.restore(due_words);
        let mut due_flits = self.flit_lane.take_due(now);
        while let Some(event) = due_flits.pop_front() {
            self.deliver_flit(event, now);
        }
        self.flit_lane.restore(due_flits);

        // Phase B1: NICs create and inject traffic. While injecting, the
        // serial contract is one Bernoulli PRBS coin per NIC per cycle;
        // quiescent NICs nap through provably losing flips and replay them
        // in one batched leap at wake (see `maybe_sleep_nic`). In the drain
        // phase only NICs that still hold queued flits can do anything.
        if ctx.inject {
            let ordinal = ctx.inject_ordinal;
            if ctx.nic_idle_skip {
                if self.next_nic_wake <= ordinal {
                    self.wake_due_nics(ordinal);
                }
                for w in 0..self.nic_awake.len() {
                    let mut bits = self.nic_awake[w];
                    while bits != 0 {
                        let local = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        self.tick_nic(local, now, true);
                        self.maybe_sleep_nic(local, ordinal);
                    }
                }
            } else {
                for local in 0..self.nics.len() {
                    self.tick_nic(local, now, true);
                }
            }
        } else {
            for w in 0..self.nic_active.len() {
                let mut bits = self.nic_active[w];
                while bits != 0 {
                    let local = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.tick_nic(local, now, false);
                }
            }
        }

        // Phase B2: step only the woken routers (ascending node order). Each
        // word is detached first so the carryover bits routers set for the
        // next cycle do not feed back into this one's scan.
        let mut output = std::mem::take(&mut self.router_scratch);
        let mut stepped = 0usize;
        for w in 0..self.router_wake.len() {
            let mut bits = std::mem::take(&mut self.router_wake[w]);
            stepped += bits.count_ones() as usize;
            while bits != 0 {
                let offset = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let local = w * 64 + offset;
                self.weights[local] += 1;
                self.step_router(local, now, ctx.link_delay, ctx.credit_delay, &mut output);
                if self.routers[local].buffered_flits() > 0 {
                    self.router_wake[w] |= 1 << offset;
                }
            }
        }
        self.idle_router_cycles += (self.routers.len() - stepped) as u64;
        self.router_scratch = output;

        // Hand this cycle's boundary batches to the per-direction edge
        // mailboxes (axis-aligned cuts: at most four grid neighbours).
        for d in 0..4 {
            match self.edge_out[d] {
                Some(edge) => edges[edge as usize]
                    .mailbox
                    .push_batch(&mut self.outboxes[d]),
                None => debug_assert!(
                    self.outboxes[d].is_empty(),
                    "boundary events pushed off the partition grid"
                ),
            }
        }
    }

    /// Schedules a boundary event arriving from a neighbouring partition
    /// (called by the network's merge point, once every partition has stepped).
    pub(crate) fn accept_boundary(&mut self, event: BoundaryEvent) {
        match event {
            BoundaryEvent::Flit {
                at,
                node,
                port_code,
                flit,
            } => {
                let handle = self.slab.insert(flit);
                self.flit_lane.schedule(
                    at,
                    FlitEvent {
                        node,
                        port_code,
                        handle,
                    },
                );
            }
            BoundaryEvent::Lookahead {
                at,
                node,
                port,
                lookahead,
            } => {
                self.word_lane.schedule(
                    at,
                    WordEvent::Lookahead {
                        node,
                        port,
                        lookahead,
                    },
                );
            }
            BoundaryEvent::Credit {
                at,
                node,
                port,
                credit,
            } => {
                self.word_lane
                    .schedule(at, WordEvent::CreditToRouter { node, port, credit });
            }
        }
    }

    /// Ticks local NIC `local` (phase B1), schedules whatever it produced,
    /// and refreshes its bit in the queued-flits mask. Registrations are
    /// buffered for the merge point rather than applied to the (shared)
    /// scoreboard.
    fn tick_nic(&mut self, local: usize, now: Cycle, inject: bool) {
        let (injection, registration) = self.nics[local].tick(now, inject);
        if let Some(registration) = registration {
            self.registrations.push(registration);
        }
        if let Some(injection) = injection {
            let arrival = now + 1;
            let node = self.region.node_of(local);
            let handle = self.slab.insert(injection.flit);
            self.flit_lane.schedule(
                arrival,
                FlitEvent {
                    node,
                    port_code: Port::Local.index() as u8,
                    handle,
                },
            );
            if let Some(lookahead) = injection.lookahead {
                self.word_lane.schedule(
                    arrival,
                    WordEvent::Lookahead {
                        node,
                        port: Port::Local,
                        lookahead,
                    },
                );
            }
        }
        let bit = 1u64 << (local % 64);
        if self.nics[local].queued_flits() > 0 {
            self.nic_active[local / 64] |= bit;
        } else {
            self.nic_active[local / 64] &= !bit;
        }
    }

    /// Runs local router `local`'s allocation/traversal cycle (phase B2) and
    /// schedules its departures and credits, reusing `output` as scratch.
    /// Events for nodes outside this partition's region go to the
    /// departing link's per-direction outbox (axis-aligned cuts guarantee
    /// the grid neighbour on that side owns the destination); boundary flits
    /// are taken out of the local slab by value (they are re-homed into the
    /// destination slab at the merge point).
    fn step_router(
        &mut self,
        local: usize,
        now: Cycle,
        link_delay: u64,
        credit_delay: u64,
        output: &mut RouterOutput,
    ) {
        self.routers[local].step_into(now, &mut self.slab, output);
        let node = self.region.node_of(local);
        for Departure {
            port,
            flit,
            lookahead,
        } in output.departures.drain(..)
        {
            if port.is_local() {
                self.flit_lane.schedule(
                    now + 1,
                    FlitEvent {
                        node,
                        port_code: NIC_PORT_CODE,
                        handle: flit,
                    },
                );
            } else {
                let dir = port.direction().expect("non-local port has a direction");
                let dest_node = self.routers[local]
                    .neighbor_id(dir)
                    .expect("routers never send off the mesh edge");
                let dest_port = dir.opposite().port();
                let arrival = now + link_delay;
                if self.owns(dest_node) {
                    self.flit_lane.schedule(
                        arrival,
                        FlitEvent {
                            node: dest_node,
                            port_code: dest_port.index() as u8,
                            handle: flit,
                        },
                    );
                    if let Some(lookahead) = lookahead {
                        self.word_lane.schedule(
                            arrival,
                            WordEvent::Lookahead {
                                node: dest_node,
                                port: dest_port,
                                lookahead,
                            },
                        );
                    }
                } else {
                    let payload = self.slab.take(flit);
                    let outbox = &mut self.outboxes[dir.port().index()];
                    outbox.push(BoundaryEvent::Flit {
                        at: arrival,
                        node: dest_node,
                        port_code: dest_port.index() as u8,
                        flit: payload,
                    });
                    if let Some(lookahead) = lookahead {
                        outbox.push(BoundaryEvent::Lookahead {
                            at: arrival,
                            node: dest_node,
                            port: dest_port,
                            lookahead,
                        });
                    }
                }
            }
        }
        for (in_port, credit) in output.credits.drain(..) {
            let arrival = now + credit_delay;
            if in_port.is_local() {
                self.word_lane
                    .schedule(arrival, WordEvent::CreditToNic { node, credit });
            } else {
                let dir = in_port.direction().expect("non-local port has a direction");
                let upstream = self.routers[local]
                    .neighbor_id(dir)
                    .expect("credits only go to existing neighbours");
                let up_port = dir.opposite().port();
                if self.owns(upstream) {
                    self.word_lane.schedule(
                        arrival,
                        WordEvent::CreditToRouter {
                            node: upstream,
                            port: up_port,
                            credit,
                        },
                    );
                } else {
                    self.outboxes[dir.port().index()].push(BoundaryEvent::Credit {
                        at: arrival,
                        node: upstream,
                        port: up_port,
                        credit,
                    });
                }
            }
        }
    }

    /// Whether global node id `node` lies in this partition's region.
    #[inline]
    fn owns(&self, node: NodeId) -> bool {
        self.region.contains(node)
    }

    /// Marks the router of global node `node` as having work this cycle.
    #[inline]
    fn wake_router(&mut self, node: NodeId) {
        let local = self.region.local_of(node);
        self.router_wake[local / 64] |= 1 << (local % 64);
    }

    /// Puts local NIC `local` to sleep after its tick at inject ordinal
    /// `ordinal` if it provably cannot act for a while (empty queue, scouted
    /// PRBS stream promises `idle ≥ 1` losing coin flips). Skipped flips are
    /// replayed in one batched leap at wake, keeping the coin stream
    /// bit-identical to serial ticking.
    fn maybe_sleep_nic(&mut self, local: usize, ordinal: u64) {
        if self.nics[local].queued_flits() > 0 {
            return;
        }
        let idle = self.nics[local].idle_inject_cycles_hint(MAX_NIC_SCOUT);
        if idle == 0 {
            return;
        }
        let wake_at = if idle == u64::MAX {
            u64::MAX
        } else {
            ordinal + idle + 1
        };
        self.nic_awake[local / 64] &= !(1 << (local % 64));
        self.nic_wake_at[local] = wake_at;
        self.nic_slept_at[local] = ordinal;
        self.next_nic_wake = self.next_nic_wake.min(wake_at);
    }

    /// Wakes every sleeping local NIC whose wake ordinal has arrived
    /// (replaying its napped-over coin flips) and recomputes
    /// `next_nic_wake` from the NICs still asleep.
    fn wake_due_nics(&mut self, ordinal: u64) {
        let mut next = u64::MAX;
        for local in 0..self.nics.len() {
            let bit = 1u64 << (local % 64);
            if self.nic_awake[local / 64] & bit != 0 {
                continue;
            }
            if self.nic_wake_at[local] <= ordinal {
                // The nap covered inject ordinals slept_at+1 ..= ordinal-1;
                // this ordinal's coin is consumed by the NIC's own tick.
                let missed = ordinal.saturating_sub(self.nic_slept_at[local] + 1);
                if missed > 0 {
                    self.nics[local].skip_inject_cycles(missed);
                }
                self.nic_awake[local / 64] |= bit;
            } else {
                next = next.min(self.nic_wake_at[local]);
            }
        }
        self.next_nic_wake = next;
    }

    /// Wakes every sleeping local NIC immediately, replaying the coin flips
    /// of all completed inject ordinals it napped through. Called before
    /// anything that invalidates a promised nap (rate changes, toggling the
    /// nap feature).
    pub(crate) fn wake_all_nics(&mut self, inject_steps: u64) {
        for local in 0..self.nics.len() {
            let bit = 1u64 << (local % 64);
            if self.nic_awake[local / 64] & bit != 0 {
                continue;
            }
            let missed = inject_steps.saturating_sub(self.nic_slept_at[local] + 1);
            if missed > 0 {
                self.nics[local].skip_inject_cycles(missed);
            }
            self.nic_awake[local / 64] |= bit;
        }
        self.next_nic_wake = u64::MAX;
    }

    fn deliver_word(&mut self, event: WordEvent) {
        match event {
            WordEvent::Lookahead {
                node,
                port,
                lookahead,
            } => {
                self.wake_router(node);
                let local = self.region.local_of(node);
                self.routers[local].accept_lookahead(port, lookahead);
            }
            WordEvent::CreditToRouter { node, port, credit } => {
                self.wake_router(node);
                let local = self.region.local_of(node);
                self.routers[local].accept_credit(port, credit);
            }
            WordEvent::CreditToNic { node, credit } => {
                let local = self.region.local_of(node);
                self.nics[local].accept_credit(credit);
            }
        }
    }

    fn deliver_flit(&mut self, event: FlitEvent, now: Cycle) {
        let local = self.region.local_of(event.node);
        if event.port_code == NIC_PORT_CODE {
            // NIC reception reads only override-independent payload fields
            // (kind, packet id, packet length), so a fork replica's shared
            // payload is peeked in place and never materialised. Completed
            // receptions are buffered for the merge point: the scoreboard
            // and statistics they feed are shared across partitions.
            let reception = self.nics[local].accept_flit(self.slab.peek_payload(event.handle), now);
            self.slab.release(event.handle);
            if let Some(reception) = reception {
                self.receptions.push(reception);
            }
        } else {
            self.wake_router(event.node);
            let port = Port::from_index(usize::from(event.port_code))
                .expect("flit events carry a valid router input port");
            let flit = self.slab.take(event.handle);
            self.routers[local].accept_flit(port, flit);
        }
    }

    /// Dismantles this partition into per-node state for repartitioning:
    /// every router, NIC, mask bit, weight and pending event is parked in
    /// `states` (indexed by global node id; pending flit payloads are
    /// materialised out of the slab, event lists in ascending cycle order).
    /// Returns the partition's idle-router-cycle ledger, which the network
    /// banks — it belongs to the run, not to any one partition shape.
    ///
    /// Must be called between steps (after the merge point): the per-cycle
    /// buffers are empty and every live slab handle is a pending flit event.
    pub(crate) fn dismantle(mut self, states: &mut [Option<NodeState>]) -> u64 {
        debug_assert!(self.receptions.is_empty() && self.registrations.is_empty());
        debug_assert!(self.outboxes.iter().all(Vec::is_empty));
        for (local, (router, nic)) in std::mem::take(&mut self.routers)
            .into_iter()
            .zip(std::mem::take(&mut self.nics))
            .enumerate()
        {
            let node = self.region.node_of(local);
            let bit = 1u64 << (local % 64);
            states[usize::from(node)] = Some(NodeState {
                router,
                nic,
                nic_awake: self.nic_awake[local / 64] & bit != 0,
                nic_wake_at: self.nic_wake_at[local],
                nic_slept_at: self.nic_slept_at[local],
                nic_active: self.nic_active[local / 64] & bit != 0,
                router_woken: self.router_wake[local / 64] & bit != 0,
                weight: self.weights[local],
                word_events: Vec::new(),
                flit_events: Vec::new(),
            });
        }
        let mut word_events = Vec::new();
        self.word_lane.drain_window_into(&mut word_events);
        for (at, event) in word_events {
            let node = match event {
                WordEvent::Lookahead { node, .. }
                | WordEvent::CreditToRouter { node, .. }
                | WordEvent::CreditToNic { node, .. } => node,
            };
            states[usize::from(node)]
                .as_mut()
                .expect("event targets an owned node")
                .word_events
                .push((at, event));
        }
        let mut flit_events = Vec::new();
        self.flit_lane.drain_window_into(&mut flit_events);
        for (at, event) in flit_events {
            let flit = self.slab.take(event.handle);
            states[usize::from(event.node)]
                .as_mut()
                .expect("event targets an owned node")
                .flit_events
                .push((at, event.port_code, flit));
        }
        debug_assert_eq!(self.slab.live(), 0, "every payload left with its event");
        self.idle_router_cycles
    }

    /// Rebuilds the partition owning `region` from dismantled per-node
    /// `states`, with both event-wheel cursors aligned to `cursor`
    /// (the cycle the network will step next). Nodes are consumed in
    /// ascending order, so within every rescheduled wheel slot events stay
    /// grouped by ascending node — preserving the serial within-cycle
    /// delivery order the reception merge depends on. Edge routing is wired
    /// afterwards by the network.
    pub(crate) fn assemble(
        config: &NocConfig,
        region: TileRegion,
        cursor: Cycle,
        states: &mut [Option<NodeState>],
    ) -> Self {
        let count = region.len();
        let words = count.div_ceil(64);
        let horizon = config
            .link_delay_cycles()
            .max(config.credit_delay_cycles)
            .max(1);
        let mut word_lane = EventWheel::new(horizon);
        word_lane.align_to(cursor);
        let mut flit_lane = EventWheel::new(horizon);
        flit_lane.align_to(cursor);
        let mut slab = FlitSlab::new();
        let mut routers = Vec::with_capacity(count);
        let mut nics = Vec::with_capacity(count);
        let mut router_wake = vec![0u64; words];
        let mut nic_active = vec![0u64; words];
        let mut nic_awake = vec![0u64; words];
        let mut nic_wake_at = vec![0u64; count];
        let mut nic_slept_at = vec![0u64; count];
        let mut weights = vec![0u64; count];
        let mut next_nic_wake = u64::MAX;
        for local in 0..count {
            let node = region.node_of(local);
            let state = states[usize::from(node)]
                .take()
                .expect("every node is dismantled exactly once");
            routers.push(state.router);
            nics.push(state.nic);
            let bit = 1u64 << (local % 64);
            if state.nic_awake {
                nic_awake[local / 64] |= bit;
            } else {
                next_nic_wake = next_nic_wake.min(state.nic_wake_at);
            }
            if state.nic_active {
                nic_active[local / 64] |= bit;
            }
            if state.router_woken {
                router_wake[local / 64] |= bit;
            }
            nic_wake_at[local] = state.nic_wake_at;
            nic_slept_at[local] = state.nic_slept_at;
            weights[local] = state.weight;
            for (at, event) in state.word_events {
                word_lane.schedule(at, event);
            }
            for (at, port_code, flit) in state.flit_events {
                let handle = slab.insert(flit);
                flit_lane.schedule(
                    at,
                    FlitEvent {
                        node,
                        port_code,
                        handle,
                    },
                );
            }
        }
        Self {
            region,
            routers,
            nics,
            word_lane,
            flit_lane,
            slab,
            router_scratch: RouterOutput::default(),
            router_wake,
            nic_active,
            idle_router_cycles: 0,
            nic_awake,
            nic_wake_at,
            nic_slept_at,
            next_nic_wake,
            weights,
            receptions: Vec::new(),
            registrations: Vec::new(),
            outboxes: [const { Vec::new() }; 4],
            edge_out: [None; 4],
        }
    }
}

/// One node's complete simulation state in transit between partition shapes:
/// its router and NIC, active-set and nap bookkeeping, cumulative activity
/// weight, and every pending event targeting it (flit payloads materialised,
/// lists in ascending cycle order). Produced by [`Partition::dismantle`] and
/// consumed by [`Partition::assemble`]; pure state relocation, so a
/// repartitioned run stays bit-identical.
#[derive(Debug)]
pub(crate) struct NodeState {
    router: Router,
    nic: Nic,
    nic_awake: bool,
    nic_wake_at: u64,
    nic_slept_at: u64,
    nic_active: bool,
    router_woken: bool,
    weight: u64,
    word_events: Vec<(Cycle, WordEvent)>,
    flit_events: Vec<(Cycle, u8, Flit)>,
}

/// Mask with one set bit per NIC of a `count`-node partition, spread over
/// `words` 64-bit words (the reset value of `nic_awake`).
fn full_awake_mask(words: usize, count: usize) -> Vec<u64> {
    let mut mask = vec![u64::MAX; words];
    if !count.is_multiple_of(64) {
        if let Some(last) = mask.last_mut() {
            *last = (1u64 << (count % 64)) - 1;
        }
    }
    mask
}

/// One cycle's work order for a pool worker: the partition it steps (moved
/// in by value), a handle on the shared edge mailboxes and the step
/// parameters.
type StepJob = (Partition, Arc<[DirectedEdge]>, StepCtx);

/// A persistent pool of `threads - 1` workers that step partitions
/// `1..threads` while the main thread steps partition 0. Each cycle the main
/// thread moves partition `slot + 1` to worker `slot` over a one-slot
/// channel and takes it back over another, so every partition has exactly
/// one owner at every instant. Spawned once per `Network::set_step_threads`
/// configuration and reused every step; dropping the pool closes the job
/// channels, which ends the workers.
#[derive(Debug)]
pub(crate) struct StepPool {
    jobs: Vec<SyncSender<StepJob>>,
    done: Vec<Receiver<Partition>>,
    workers: Vec<JoinHandle<()>>,
}

impl StepPool {
    /// Spawns a pool for `threads` total step threads (main + `threads - 1`
    /// workers; `threads` must be at least 2 — a single-partition network
    /// steps inline without a pool).
    pub(crate) fn spawn(threads: usize) -> Self {
        debug_assert!(threads >= 2, "a pool needs at least one worker");
        let mut pool = Self {
            jobs: Vec::with_capacity(threads - 1),
            done: Vec::with_capacity(threads - 1),
            workers: Vec::with_capacity(threads - 1),
        };
        for slot in 0..threads - 1 {
            let (job_tx, job_rx) = mpsc::sync_channel::<StepJob>(1);
            let (done_tx, done_rx) = mpsc::sync_channel(1);
            let worker = std::thread::Builder::new()
                .name(format!("noc-step-{}", slot + 1))
                .spawn(move || {
                    for (mut partition, edges, ctx) in job_rx {
                        partition.step_cycle(&ctx, &edges);
                        if done_tx.send(partition).is_err() {
                            return;
                        }
                    }
                })
                .expect("spawning a step worker thread");
            pool.jobs.push(job_tx);
            pool.done.push(done_rx);
            pool.workers.push(worker);
        }
        pool
    }

    /// Number of step threads (main included) this pool runs.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs one cycle: hands partitions `1..` to the workers, steps
    /// partition 0 on the calling thread, and takes the others back in slot
    /// order — at which point every partition has pushed its boundary
    /// batches and `partitions` is whole again, in its original order.
    ///
    /// `partitions.len()` must equal [`Self::threads`]: one partition per
    /// thread.
    pub(crate) fn step(
        &self,
        partitions: &mut Vec<Partition>,
        edges: &Arc<[DirectedEdge]>,
        ctx: StepCtx,
    ) {
        assert_eq!(
            partitions.len(),
            self.threads(),
            "one partition per step thread"
        );
        for (job, partition) in self.jobs.iter().zip(partitions.drain(1..)) {
            job.send((partition, Arc::clone(edges), ctx))
                .expect("step worker exited");
        }
        partitions[0].step_cycle(&ctx, edges);
        for done in &self.done {
            partitions.push(done.recv().expect("step worker panicked"));
        }
    }
}

impl Drop for StepPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.jobs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
