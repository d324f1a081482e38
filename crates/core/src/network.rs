//! The cycle-accurate network orchestrator.
//!
//! All inter-component messages (flits on links, lookaheads, returning
//! credits) travel at most a few cycles, so they are scheduled through
//! fixed-horizon [`noc_sim::EventWheel`]s instead of a general priority
//! queue: the steady-state [`Network::step`] performs zero heap allocation —
//! slot buffers, router outputs and NIC scratch space are all reused cycle
//! after cycle. The wheel is split into **typed lanes** (word-sized control
//! messages vs. slab-parked flit handles), and an **active-set scheduler**
//! visits only the routers woken by a delivery and naps quiescent NICs
//! through provably losing injection coin flips — both bit-identical to the
//! naive full scan (see `crate::partition` for the per-cycle phase
//! machinery).
//!
//! On top of that, the mesh is sharded into **spatial partitions** — row
//! strips or 2-D tiles ([`noc_topology::PartitionMap`]) — so
//! [`Network::with_step_threads`] / [`Network::set_partition_shape`] can
//! step them on a persistent worker pool. Each partition owns private
//! wheels, slab and masks; events crossing a cut ride per-directed-edge FIFO
//! mailboxes and are merged — together with the partitions' buffered
//! receptions and packet registrations — by the main thread at a single
//! merge point per cycle (mailboxes in fixed edge order, receptions in
//! ascending destination-node order — the serial within-cycle order).
//! Because every within-cycle delivery commutes and the merge order is
//! fixed, a partitioned run is **bit-identical to the serial one for any
//! shape and thread count** (`tests/determinism.rs` pins this). With one
//! partition (the default) the step runs inline with no pool, channels or
//! locking.
//!
//! With [`set_rebalance_epoch`](Network::set_rebalance_epoch), the network
//! additionally recomputes the cut positions every N cycles from the
//! partitions' cumulative per-node activity weights (router steps of the
//! active-set walk) and migrates the per-node state to the new shape. The
//! weights are pure simulated state, so the partition shape is itself a
//! function of the simulation — rebalanced runs stay bit-identical too.

use std::collections::BTreeMap;
use std::sync::Arc;

use noc_sim::{ActivityCounters, BoundaryMailbox, Clock, LatencyStats, ThroughputStats};
use noc_topology::{Mesh, PartitionMap};
use noc_traffic::TrafficSource;
use noc_types::{
    ConfigError, Cycle, Direction, NocError, NodeId, Packet, PacketId, Port, Trace, TraceEvent,
};

use crate::config::NocConfig;
use crate::nic::{PacketRegistration, Reception};
use crate::partition::{BoundaryEvent, DirectedEdge, NodeState, Partition, StepCtx, StepPool};

/// How the mesh is cut into spatial partitions for parallel stepping.
///
/// Both shapes produce axis-aligned rectangles; results are bit-identical
/// for every shape (`tests/determinism.rs`), so the choice only affects
/// wall-clock. Row strips minimise cut traffic on small meshes; tiles cut
/// both axes, which balances better when traffic concentrates in a corner
/// and is the natural shape for larger meshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionShape {
    /// `n` horizontal row strips (clamped to the mesh's row count).
    Rows(usize),
    /// A `rows × cols` grid of rectangular tiles (each axis clamped to the
    /// mesh side).
    Tiles {
        /// Tile rows (cuts along the y axis).
        rows: usize,
        /// Tile columns (cuts along the x axis).
        cols: usize,
    },
}

impl PartitionShape {
    /// The unweighted partition map this shape produces on `mesh`.
    fn map(self, mesh: &Mesh) -> PartitionMap {
        match self {
            Self::Rows(parts) => PartitionMap::rows(mesh, parts),
            Self::Tiles { rows, cols } => PartitionMap::tiles(mesh, rows, cols),
        }
    }

    /// The weighted map with the same grid dimensions as `map`, cuts placed
    /// by per-node `weights`.
    fn weighted_map(self, mesh: &Mesh, map: &PartitionMap, weights: &[u64]) -> PartitionMap {
        match self {
            Self::Rows(_) => PartitionMap::weighted_rows(mesh, map.tile_rows(), weights),
            Self::Tiles { .. } => {
                PartitionMap::weighted_tiles(mesh, map.tile_rows(), map.tile_cols(), weights)
            }
        }
    }

    /// Validates that every requested axis is non-zero.
    pub(crate) fn validate(self) -> Result<(), NocError> {
        let zero = match self {
            Self::Rows(parts) => parts == 0,
            Self::Tiles { rows, cols } => rows == 0 || cols == 0,
        };
        if zero {
            return Err(ConfigError::InvalidParallelism {
                jobs: 1,
                step_threads: 0,
            }
            .into());
        }
        Ok(())
    }
}

/// Scoreboard entry tracking one measured packet until every destination
/// received it.
#[derive(Debug, Clone, Copy)]
struct TrackedPacket {
    created_at: Cycle,
    remaining_receptions: u32,
}

/// A k×k mesh NoC: routers, NICs, links and the measurement machinery.
///
/// The network advances in lock-step cycles via [`Network::step`]. Traffic
/// injection and measurement are controlled per cycle so that a
/// [`crate::Simulation`] can run warmup / measurement / drain phases over the
/// same instance. Cloning snapshots the complete simulation state (used by
/// benches to replay from a fixed mid-flight state); the clone steps with
/// the same thread count but spawns its own worker pool lazily.
#[derive(Debug)]
pub struct Network {
    config: NocConfig,
    mesh: Mesh,
    /// Current per-NIC injection rate (kept so repartitioning can rebuild).
    rate: f64,
    /// The requested partition shape (grid dimensions); the current `map`
    /// may deviate from its unweighted cuts after a rebalance.
    shape: PartitionShape,
    /// The partition map currently instantiated in `partitions`.
    map: PartitionMap,
    /// Rectangular shards of the mesh, in `map` order (row-major over the
    /// partition grid). One partition means the serial inline step; more
    /// mean pool-stepped shards.
    partitions: Vec<Partition>,
    /// Boundary mailboxes, one per *directed* adjacent-partition edge, in
    /// the fixed order `wire_edges` produced them (ascending source
    /// partition, then [`Direction::ALL`] order). Shared with the pool
    /// workers by reference count; built once per (re)wire.
    edges: Arc<[DirectedEdge]>,
    /// Recompute the cuts from accumulated node weights every this many
    /// cycles (`None` disables rebalancing).
    rebalance_epoch: Option<u64>,
    /// Idle-router-cycle ledgers of dismantled partitions: the counter
    /// belongs to the run, not to any one partition shape.
    banked_idle_router_cycles: u64,
    /// Reused drain buffer for the merge point's mailbox sweeps.
    boundary_scratch: Vec<BoundaryEvent>,
    /// Reused per-partition cursors for the merge point's reception merge.
    merge_cursors: Vec<usize>,
    /// Worker pool stepping partitions `1..` (`None` until the first
    /// multi-partition step, and on clones).
    pool: Option<StepPool>,
    clock: Clock,
    /// Completed injecting steps (`step(true)` calls) — the ordinal clock the
    /// NIC nap bookkeeping is keyed by. Non-injecting steps flip no PRBS
    /// coins and therefore do not advance it.
    inject_steps: u64,
    /// Chicken bit for the quiescent-NIC nap (on by default; `false` restores
    /// the serial one-coin-per-NIC-per-cycle loop).
    nic_idle_skip: bool,
    /// Measured packets still owed at least one reception: an entry is
    /// inserted only for a packet with destinations and removed on its last
    /// reception, so the map's length is the outstanding count. Keyed by a
    /// `BTreeMap` so iteration (diagnostics) is deterministic — a hash map's
    /// order would depend on the hasher seed and leak into any output
    /// derived from a scan (noc-lint rule D01).
    scoreboard: BTreeMap<PacketId, TrackedPacket>,
    latency: LatencyStats,
    throughput: ThroughputStats,
    measuring: bool,
    /// When `true`, every reception is also appended to `deliveries` (in the
    /// deterministic merge order) for an external protocol layer to consume.
    log_deliveries: bool,
    /// Receptions logged since the last [`Network::clear_deliveries`].
    deliveries: Vec<Reception>,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Self {
            config: self.config,
            mesh: self.mesh,
            rate: self.rate,
            shape: self.shape,
            map: self.map.clone(),
            partitions: self.partitions.clone(),
            // Mailboxes are empty between steps; a clone gets fresh ones
            // with the same routing.
            edges: self
                .edges
                .iter()
                .map(|e| DirectedEdge {
                    to: e.to,
                    mailbox: BoundaryMailbox::new(),
                })
                .collect(),
            rebalance_epoch: self.rebalance_epoch,
            banked_idle_router_cycles: self.banked_idle_router_cycles,
            boundary_scratch: Vec::new(),
            merge_cursors: Vec::new(),
            // Worker pools are per-instance; the clone respawns lazily.
            pool: None,
            clock: self.clock,
            inject_steps: self.inject_steps,
            nic_idle_skip: self.nic_idle_skip,
            scoreboard: self.scoreboard.clone(),
            latency: self.latency.clone(),
            throughput: self.throughput,
            measuring: self.measuring,
            log_deliveries: self.log_deliveries,
            deliveries: self.deliveries.clone(),
        }
    }
}

impl Network {
    /// Builds a network from `config` with all NICs injecting at `rate`,
    /// stepped serially (one partition).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration is invalid, or
    /// with [`ConfigError::InvalidInjectionRate`] when `rate` is NaN,
    /// negative or above one flit/cycle.
    pub fn new(config: NocConfig, rate: f64) -> Result<Self, NocError> {
        Self::build(config, rate, PartitionShape::Rows(1))
    }

    /// Builds a network like [`Network::new`] and configures it to step with
    /// `threads` partition worker threads (see
    /// [`set_step_threads`](Network::set_step_threads) for clamping and
    /// determinism guarantees).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration or `rate` is
    /// invalid (see [`Network::new`]) or `threads` is zero.
    pub fn with_step_threads(
        config: NocConfig,
        rate: f64,
        threads: usize,
    ) -> Result<Self, NocError> {
        Self::build(config, rate, PartitionShape::Rows(threads))
    }

    /// Builds a network like [`Network::new`] partitioned into `shape` (see
    /// [`set_partition_shape`](Network::set_partition_shape)).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the configuration or `rate` is
    /// invalid (see [`Network::new`]) or the shape has a zero axis.
    pub fn with_partition_shape(
        config: NocConfig,
        rate: f64,
        shape: PartitionShape,
    ) -> Result<Self, NocError> {
        Self::build(config, rate, shape)
    }

    fn build(config: NocConfig, rate: f64, shape: PartitionShape) -> Result<Self, NocError> {
        shape.validate()?;
        config.validate()?;
        ConfigError::check_injection_rate(rate)?;
        let mesh = Mesh::new(config.k).map_err(NocError::from)?;
        let map = shape.map(&mesh);
        let mut partitions = (0..map.len())
            .map(|index| Partition::new(&config, mesh, map.region(index), rate))
            .collect::<Vec<_>>();
        let edges = Self::wire_edges(&map, &mut partitions);
        Ok(Self {
            config,
            mesh,
            rate,
            shape,
            map,
            partitions,
            edges,
            rebalance_epoch: None,
            banked_idle_router_cycles: 0,
            boundary_scratch: Vec::new(),
            merge_cursors: Vec::new(),
            pool: None,
            clock: Clock::new(),
            inject_steps: 0,
            nic_idle_skip: true,
            scoreboard: BTreeMap::new(),
            latency: LatencyStats::with_bins(4096),
            throughput: ThroughputStats::new(),
            measuring: false,
            log_deliveries: false,
            deliveries: Vec::new(),
        })
    }

    /// Builds the directed boundary edges of `map` and wires every
    /// partition's outboxes to them: for each partition in ascending order
    /// and each direction in [`Direction::ALL`] order with a neighbour on
    /// the partition grid, one [`DirectedEdge`] carrying that partition's
    /// departing events to the neighbour. The order is a pure function of
    /// the map, so the merge point's fixed edge sweep is deterministic.
    fn wire_edges(map: &PartitionMap, partitions: &mut [Partition]) -> Arc<[DirectedEdge]> {
        let mut edges = Vec::new();
        for (p, partition) in partitions.iter_mut().enumerate() {
            for dir in Direction::ALL {
                if let Some(to) = map.neighbor(p, dir) {
                    partition.set_edge_out(dir, edges.len());
                    edges.push(DirectedEdge {
                        to: usize::from(to),
                        mailbox: BoundaryMailbox::new(),
                    });
                }
            }
        }
        edges.into()
    }

    /// The configuration this network was built from.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Reconfigures how many threads step the mesh: the mesh is re-sharded
    /// into `threads` row strips (clamped to the mesh's row count — a strip
    /// must own at least one row; deliberately *not* clamped to the
    /// machine's core count, so determinism across thread counts can be
    /// exercised anywhere) and subsequent [`step`](Network::step)s run one
    /// strip per thread on a persistent worker pool. Results are
    /// bit-identical for every thread count; `threads == 1` restores the
    /// inline serial step.
    ///
    /// Repartitioning determines where every in-flight event lives, so this
    /// is a *configuration-time* operation: when the partition count
    /// actually changes, the network is rebuilt cold (same config, seed and
    /// rate; clock, traffic and statistics state reset) — call it before
    /// running, or follow it with [`reset`](Network::reset).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] with
    /// [`ConfigError::InvalidParallelism`] when `threads` is zero.
    pub fn set_step_threads(&mut self, threads: usize) -> Result<(), NocError> {
        self.set_partition_shape(PartitionShape::Rows(threads))
    }

    /// Reconfigures the partition shape: the mesh is re-sharded into
    /// `shape`'s row strips or tile grid (each axis clamped to the mesh
    /// side — a tile must own at least one row and column) and subsequent
    /// [`step`](Network::step)s run one partition per thread on a persistent
    /// worker pool. Results are bit-identical for every shape; a single
    /// partition restores the inline serial step.
    ///
    /// Like [`set_step_threads`](Network::set_step_threads) this is a
    /// *configuration-time* operation: when the node ownership actually
    /// changes, the network is rebuilt cold (same config, seed and rate;
    /// clock, traffic and statistics state reset) — call it before running,
    /// or follow it with [`reset`](Network::reset).
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] with
    /// [`ConfigError::InvalidParallelism`] when any axis of `shape` is zero.
    pub fn set_partition_shape(&mut self, shape: PartitionShape) -> Result<(), NocError> {
        shape.validate()?;
        let map = shape.map(&self.mesh);
        if map == self.map {
            // Same node ownership (e.g. `Rows(2)` vs `Tiles { 2, 1 }`, or a
            // re-request of the current shape): keep all run state, only
            // record the shape for future rebalances.
            self.shape = shape;
            return Ok(());
        }
        let nic_idle_skip = self.nic_idle_skip;
        let rebalance_epoch = self.rebalance_epoch;
        *self = Self::build(self.config, self.rate, shape)?;
        self.nic_idle_skip = nic_idle_skip;
        self.rebalance_epoch = rebalance_epoch;
        Ok(())
    }

    /// The currently requested partition shape (grid dimensions; the live
    /// cut positions may deviate after a rebalance).
    #[must_use]
    pub fn partition_shape(&self) -> PartitionShape {
        self.shape
    }

    /// Enables (`Some(epoch)`) or disables (`None`) deterministic load-aware
    /// repartitioning: every `epoch` cycles the merge point recomputes the
    /// cut positions of the current shape from the partitions' cumulative
    /// per-node activity weights and migrates the per-node state to the new
    /// cuts. The weights are pure simulated state, so the resulting shape —
    /// and therefore the run — is bit-identical for every thread count, and
    /// bit-identical to never rebalancing at all (`tests/determinism.rs`).
    ///
    /// # Panics
    ///
    /// Panics when `epoch` is `Some(0)`.
    pub fn set_rebalance_epoch(&mut self, epoch: Option<u64>) {
        assert!(epoch != Some(0), "rebalance epoch must be non-zero");
        self.rebalance_epoch = epoch;
    }

    /// Cumulative activity weight (router steps of the active-set walk) of
    /// every partition, in partition order — the per-partition busy metric
    /// the hotspot stressor reports.
    #[must_use]
    pub fn partition_loads(&self) -> Vec<u64> {
        self.partitions.iter().map(Partition::load).collect()
    }

    /// Number of threads (partitions) the network currently steps with.
    #[must_use]
    pub fn step_threads(&self) -> usize {
        self.partitions.len()
    }

    /// Restores the network to the state of a freshly built one whose
    /// configuration carries the given PRBS base seed, while keeping every
    /// warmed-up buffer capacity: the event wheels' slot rings, the NIC
    /// injection rings and segmentation scratch, the routers' VC buffers and
    /// fork caches, and the per-partition router-output scratch all survive
    /// with their high-water-mark storage intact — as do the partition
    /// structure and the worker pool. This is what lets a sweep runner batch
    /// many points through one network per worker thread without re-paying
    /// cold-start allocation (or thread spawning) per point.
    ///
    /// `seed` is folded (XOR of its 16-bit limbs, zero remapped to a fixed
    /// non-zero constant) into the 16-bit domain of the chip's PRBS LFSRs;
    /// seeds that already fit 16 bits are used as-is. Behaviour after a
    /// reset is bit-identical to `Network::new` with that base seed —
    /// `tests/determinism.rs` pins this.
    ///
    /// # Examples
    ///
    /// ```
    /// use mesh_noc::{Network, NocConfig};
    ///
    /// let mut network = Network::new(NocConfig::proposed_chip()?, 0.1)?;
    /// for _ in 0..50 {
    ///     network.step(true);
    /// }
    /// network.reset(0xBEEF);
    /// assert_eq!(network.now(), 0);
    /// assert_eq!(network.in_flight_flits(), 0);
    /// assert_eq!(network.injected_packets(), 0);
    /// assert_eq!(network.config().base_seed, 0xBEEF);
    /// # Ok::<(), noc_types::NocError>(())
    /// ```
    pub fn reset(&mut self, seed: u64) {
        let folded = (seed ^ (seed >> 16) ^ (seed >> 32) ^ (seed >> 48)) as u16;
        self.config.base_seed = if folded == 0 { 0x1D0C } else { folded };
        let config = self.config;
        let initial_map = self.shape.map(&self.mesh);
        if initial_map == self.map {
            for partition in &mut self.partitions {
                partition.reset(&config);
            }
        } else {
            // A mid-run rebalance moved the cuts; a fresh run must start
            // from the unweighted cuts to stay bit-identical to a cold
            // network (the warmed buffers of the displaced shape cannot be
            // kept — node ownership changes).
            let mesh = self.mesh;
            let rate = self.rate;
            self.partitions = (0..initial_map.len())
                .map(|index| Partition::new(&config, mesh, initial_map.region(index), rate))
                .collect();
            self.edges = Self::wire_edges(&initial_map, &mut self.partitions);
            self.map = initial_map;
        }
        self.banked_idle_router_cycles = 0;
        debug_assert!(self.edges.iter().all(|e| e.mailbox.is_empty()));
        self.boundary_scratch.clear();
        self.clock.reset();
        self.inject_steps = 0;
        self.scoreboard.clear();
        self.latency.reset();
        self.throughput.reset();
        self.measuring = false;
        // Delivery logging is a configuration knob; only the buffered log is
        // part of the run state.
        self.deliveries.clear();
    }

    /// The mesh topology.
    #[must_use]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.clock.now()
    }

    /// Changes the injection rate of every NIC.
    ///
    /// Sleeping NICs are woken first (replaying their napped-over coin
    /// flips), because a nap's length was promised under the old rate's
    /// Bernoulli threshold.
    pub fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
        let inject_steps = self.inject_steps;
        for partition in &mut self.partitions {
            partition.set_rate(rate, inject_steps);
        }
    }

    /// Enables or disables the quiescent-NIC nap (on by default). Disabling
    /// restores the serial one-coin-per-NIC-per-cycle inject loop; the
    /// traffic streams are bit-identical either way — this knob exists to
    /// prove exactly that (`tests/determinism.rs`) and as an escape hatch.
    pub fn set_nic_idle_skip(&mut self, enabled: bool) {
        let inject_steps = self.inject_steps;
        for partition in &mut self.partitions {
            partition.wake_all_nics(inject_steps);
        }
        self.nic_idle_skip = enabled;
    }

    /// Starts or stops counting receptions and latencies.
    pub fn set_measuring(&mut self, measuring: bool) {
        self.measuring = measuring;
    }

    /// Latency statistics of packets injected while measuring.
    #[must_use]
    pub fn latency(&self) -> &LatencyStats {
        &self.latency
    }

    /// Throughput statistics of receptions while measuring.
    #[must_use]
    pub fn throughput(&self) -> &ThroughputStats {
        &self.throughput
    }

    /// Mutable access to the throughput accumulator (the simulation driver
    /// sets the measurement window length).
    pub fn throughput_mut(&mut self) -> &mut ThroughputStats {
        &mut self.throughput
    }

    /// Enables or disables the delivery log. While enabled, every reception
    /// (local NIC accepting the tail flit of a packet copy) is appended to
    /// the log in the deterministic merge order — ascending destination-node
    /// order within a cycle, the serial within-cycle order — so consumers
    /// see the exact same sequence for every partition shape and
    /// step-thread count. The closed-loop serving layer uses this to match
    /// replies to outstanding requests.
    pub fn set_delivery_logging(&mut self, enabled: bool) {
        self.log_deliveries = enabled;
        if !enabled {
            self.deliveries.clear();
        }
    }

    /// Receptions logged since the last [`clear_deliveries`](Self::clear_deliveries),
    /// in deterministic merge order. Empty unless
    /// [`set_delivery_logging`](Self::set_delivery_logging) enabled the log.
    #[must_use]
    pub fn deliveries(&self) -> &[Reception] {
        &self.deliveries
    }

    /// Empties the delivery log, keeping its storage for reuse.
    pub fn clear_deliveries(&mut self) {
        self.deliveries.clear();
    }

    /// Starts recording every packet injected by every NIC from now on into
    /// an in-memory trace; collect it with
    /// [`take_recorded_trace`](Self::take_recorded_trace). Restarting
    /// recording discards anything recorded so far, and
    /// [`reset`](Self::reset) rebuilds the NIC sources cold (recording off).
    pub fn record_trace(&mut self) {
        for partition in &mut self.partitions {
            for nic in partition.nics_mut() {
                nic.source_mut().start_recording();
            }
        }
    }

    /// Stops recording and returns everything recorded since
    /// [`record_trace`](Self::record_trace) as one trace, events sorted by
    /// `(cycle, source)`. Returns an empty trace when recording was never
    /// started.
    pub fn take_recorded_trace(&mut self) -> Trace {
        let mut events = Vec::new();
        for partition in &mut self.partitions {
            for nic in partition.nics_mut() {
                events.append(&mut nic.source_mut().take_recorded_events());
            }
        }
        Trace::from_events(self.config.k, events)
    }

    /// Replaces every NIC's traffic source with a deterministic replayer of
    /// its per-node slice of `trace`. A subsequent run over the same phase
    /// schedule reproduces the recorded run bit-for-bit; nodes without
    /// events simply stay quiet. [`set_rate`](Self::set_rate) becomes a
    /// no-op on replay sources, and [`reset`](Self::reset) restores live
    /// Bernoulli generation.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::Config`] when the trace was recorded on a mesh of
    /// a different side length than this network's.
    pub fn load_trace(&mut self, trace: &Trace) -> Result<(), NocError> {
        if trace.k() != self.config.k {
            return Err(ConfigError::InvalidPattern {
                reason: format!(
                    "trace recorded on a {0}x{0} mesh cannot replay on a {1}x{1} mesh",
                    trace.k(),
                    self.config.k
                ),
            }
            .into());
        }
        let nodes = usize::from(self.config.k) * usize::from(self.config.k);
        let mut per_node: Vec<Vec<TraceEvent>> = vec![Vec::new(); nodes];
        for event in trace.events() {
            per_node[usize::from(event.source)].push(*event);
        }
        for partition in &mut self.partitions {
            let region = partition.region();
            for (local, nic) in partition.nics_mut().iter_mut().enumerate() {
                let node = region.node_of(local);
                let source =
                    TrafficSource::replay(node, std::mem::take(&mut per_node[usize::from(node)]));
                nic.set_source(source);
            }
        }
        Ok(())
    }

    /// Enqueues an externally created packet at its source node's NIC, as if
    /// the NIC's own source had generated it this cycle. The packet is
    /// segmented and injected through the normal NIC queue (so it competes
    /// for link bandwidth like any other packet), its registration joins
    /// this cycle's deterministic merge, and the NIC stays active through
    /// non-injecting steps until its queue drains. This is the injection
    /// path of the closed-loop serving layer, which drives
    /// `step(inject = false)` and feeds every request and reply in by hand.
    /// A packet with an empty destination set is registered (its injection
    /// counts toward throughput) but never enters the network.
    ///
    /// # Panics
    ///
    /// Panics when the packet's source node is outside the mesh.
    pub fn inject_packet(&mut self, packet: Packet) {
        let node = packet.source();
        assert!(
            usize::from(node) < self.mesh.node_count(),
            "packet source node is inside the mesh"
        );
        let p = usize::from(self.map.partition_of(node));
        let local = self.partitions[p].region().local_of(node);
        self.partitions[p].enqueue_external(local, packet);
    }

    /// Merged activity counters of all routers and NICs.
    ///
    /// Routers skipped by the active-set scheduler never stepped, so their
    /// individual `cycles` counters undercount wall-clock cycles; the
    /// partitions' idle-cycle ledgers make up the difference here, keeping
    /// the merged counters identical to stepping every router every cycle.
    /// Partitions are visited in ascending order, so the merge is the same
    /// fold a serial node scan performs.
    #[must_use]
    pub fn counters(&self) -> ActivityCounters {
        let mut total = ActivityCounters::new();
        for partition in &self.partitions {
            for router in partition.routers() {
                total.merge(router.counters());
            }
        }
        for partition in &self.partitions {
            for nic in partition.nics() {
                total.merge(nic.counters());
            }
        }
        total.cycles += self
            .partitions
            .iter()
            .map(|p| p.idle_router_cycles)
            .sum::<u64>()
            + self.banked_idle_router_cycles;
        total
    }

    /// Total flits currently buffered in routers plus queued in NICs
    /// (used to detect drain completion and saturation).
    #[must_use]
    pub fn in_flight_flits(&self) -> usize {
        // Between steps the boundary mailboxes are drained; nothing hides
        // in transit between partitions.
        debug_assert!(self.edges.iter().all(|e| e.mailbox.is_empty()));
        self.partitions.iter().map(Partition::in_flight_flits).sum()
    }

    /// Number of tracked packets that have not yet reached every destination.
    ///
    /// O(1): the scoreboard holds exactly the outstanding packets, so the
    /// drain loop can poll this every cycle.
    #[must_use]
    pub fn outstanding_tracked_packets(&self) -> usize {
        self.scoreboard.len()
    }

    /// Total packets injected by all NICs so far.
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.partitions
            .iter()
            .flat_map(|p| p.nics().iter())
            .map(crate::nic::Nic::injected_packets)
            .sum()
    }

    /// Prints the location of every buffered or queued flit to stderr
    /// (diagnostic aid used by tests and examples when a network fails to
    /// drain).
    pub fn debug_dump(&self) {
        for partition in &self.partitions {
            for (local, nic) in partition.nics().iter().enumerate() {
                let node = partition.region().node_of(local);
                if nic.queued_flits() > 0 {
                    eprintln!("nic {node}: {} queued flits", nic.queued_flits());
                }
            }
        }
        for partition in &self.partitions {
            for (local, router) in partition.routers().iter().enumerate() {
                let node = partition.region().node_of(local);
                if router.buffered_flits() == 0 {
                    continue;
                }
                for port in Port::ALL {
                    let input = router.input(port);
                    for vc_idx in 0..input.vc_count() {
                        let vc = input.vc_at(vc_idx);
                        if vc.occupancy() > 0 {
                            let head = vc.head().expect("non-empty VC has a head");
                            eprintln!(
                                "router {node} port {port} vc#{vc_idx} ({:?} vc {:?}): {} flits, head packet {} kind {:?} dests {:?} route {:?}",
                                vc.class(),
                                vc.id(),
                                vc.occupancy(),
                                head.packet_id(),
                                head.kind(),
                                head.destinations(),
                                vc.route(),
                            );
                        }
                    }
                }
            }
        }
        for partition in &self.partitions {
            for (local, router) in partition.routers().iter().enumerate() {
                let node = partition.region().node_of(local);
                if router.buffered_flits() == 0 {
                    continue;
                }
                for port in Port::ALL {
                    if port.is_local() {
                        continue;
                    }
                    let output = router.output(port);
                    for class in noc_types::MessageClass::ALL {
                        for vc in 0..2u8 {
                            if let Some(state) = output.downstream_vc(class, vc) {
                                if state.allocated || state.credits < state.depth() {
                                    eprintln!(
                                        "router {node} output {port} {class:?} vc {vc}: allocated={} credits={} tail_sent={}",
                                        state.allocated, state.credits, state.tail_sent
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        for (id, tracked) in &self.scoreboard {
            eprintln!(
                "scoreboard: packet {id} still needs {} receptions (created {})",
                tracked.remaining_receptions, tracked.created_at
            );
        }
    }

    /// Advances the network by one cycle.
    ///
    /// `inject` enables the NIC traffic generators for this cycle (warmup and
    /// measurement phases inject; the drain phase does not).
    ///
    /// With one partition the cycle runs inline; with more, each partition
    /// moves by value to its own pool thread for the cycle and back, and
    /// this (main) thread then performs the deterministic merge: boundary
    /// mailboxes are drained in fixed edge order, buffered packet
    /// registrations are applied in ascending partition order and buffered
    /// receptions in ascending destination-node order — exactly the order a
    /// serial node scan would have produced them in.
    pub fn step(&mut self, inject: bool) {
        let ctx = StepCtx {
            now: self.clock.now(),
            inject,
            inject_ordinal: self.inject_steps,
            nic_idle_skip: self.nic_idle_skip,
            link_delay: self.config.link_delay_cycles(),
            credit_delay: self.config.credit_delay_cycles,
        };
        if self.partitions.len() == 1 {
            self.partitions[0].step_cycle(&ctx, &self.edges);
        } else {
            let pool = self
                .pool
                .get_or_insert_with(|| StepPool::spawn(self.partitions.len()));
            pool.step(&mut self.partitions, &self.edges, ctx);
        }
        self.merge_cycle();
        if inject {
            self.inject_steps += 1;
        }
        self.clock.tick();
        if let Some(epoch) = self.rebalance_epoch {
            if self.partitions.len() > 1 && self.clock.now().is_multiple_of(epoch) {
                self.rebalance();
            }
        }
    }

    /// The load-aware repartition pass, run at the merge point every
    /// rebalance epoch: recompute the cut positions of the current shape
    /// from the partitions' cumulative per-node activity weights and, when
    /// they moved, migrate every node's state to its new partition
    /// ([`Partition::dismantle`] / [`Partition::assemble`]). The weights are
    /// pure simulated state and the migration is pure state relocation, so
    /// the run stays bit-identical to never rebalancing.
    fn rebalance(&mut self) {
        let mut weights = vec![0u64; self.mesh.node_count()];
        for partition in &self.partitions {
            partition.node_weights_into(&mut weights);
        }
        let new_map = self.shape.weighted_map(&self.mesh, &self.map, &weights);
        if new_map == self.map {
            return;
        }
        let cursor = self.clock.now();
        let config = self.config;
        let mut states: Vec<Option<NodeState>> = Vec::new();
        states.resize_with(self.mesh.node_count(), || None);
        for partition in self.partitions.drain(..) {
            self.banked_idle_router_cycles += partition.dismantle(&mut states);
        }
        self.partitions = (0..new_map.len())
            .map(|index| Partition::assemble(&config, new_map.region(index), cursor, &mut states))
            .collect();
        self.edges = Self::wire_edges(&new_map, &mut self.partitions);
        self.map = new_map;
        // The partition count is fixed by the shape, so the pool carries
        // over unchanged.
        debug_assert_eq!(self.partitions.len(), self.map.len());
    }

    /// The single-threaded merge point closing one cycle: re-homes boundary
    /// events into their destination partitions (fixed edge order, FIFO
    /// within an edge), applies the buffered packet registrations in
    /// ascending partition order (they fully commute — keyed map inserts
    /// plus sums), and applies the buffered receptions in ascending
    /// destination-node order. Receptions are the one merge input whose
    /// order is observable (the delivery log), and ascending node is exactly
    /// the serial within-cycle order: ejections are scheduled only during
    /// the ascending-node router walk with a fixed delay, so each
    /// partition's reception list is node-ascending and a k-way min-head
    /// merge reproduces the global serial sequence for every partition
    /// shape. Everything else applied here commutes within a cycle, so the
    /// result is bit-identical to the serial interleaving.
    fn merge_cycle(&mut self) {
        for e in 0..self.edges.len() {
            self.edges[e].mailbox.drain_into(&mut self.boundary_scratch);
            if !self.boundary_scratch.is_empty() {
                let to = self.edges[e].to;
                let mut batch = std::mem::take(&mut self.boundary_scratch);
                for event in batch.drain(..) {
                    self.partitions[to].accept_boundary(event);
                }
                self.boundary_scratch = batch;
            }
        }
        for p in 0..self.partitions.len() {
            if !self.partitions[p].registrations.is_empty() {
                let mut registrations = std::mem::take(&mut self.partitions[p].registrations);
                for registration in registrations.drain(..) {
                    self.register_packet(registration);
                }
                self.partitions[p].registrations = registrations;
            }
        }
        self.merge_receptions();
    }

    /// K-way merges the partitions' node-ascending reception lists into the
    /// global ascending-node order and applies them. Node ownership is
    /// disjoint, so the minimum head node is unique; within one node the
    /// owning partition's list order is kept. With one partition this
    /// degenerates to an in-order drain.
    fn merge_receptions(&mut self) {
        self.merge_cursors.clear();
        self.merge_cursors.resize(self.partitions.len(), 0);
        loop {
            let mut best: Option<(NodeId, usize)> = None;
            for (p, partition) in self.partitions.iter().enumerate() {
                if let Some(reception) = partition.receptions.get(self.merge_cursors[p]) {
                    if best.is_none_or(|(node, _)| reception.node < node) {
                        best = Some((reception.node, p));
                    }
                }
            }
            let Some((_, p)) = best else { break };
            let reception = self.partitions[p].receptions[self.merge_cursors[p]];
            self.merge_cursors[p] += 1;
            self.apply_reception(reception);
        }
        for partition in &mut self.partitions {
            partition.receptions.clear();
        }
    }

    fn register_packet(&mut self, registration: PacketRegistration) {
        // Packets created outside a measurement window are never recorded
        // anywhere (receptions of unknown ids are ignored), so they skip the
        // scoreboard entirely — at overdriven rates the map would otherwise
        // grow without bound and put a lookup on every reception.
        if !self.measuring {
            return;
        }
        self.throughput
            .record_injection(u64::from(registration.flits_per_reception));
        // A packet with no destinations is owed no reception; an entry for
        // it would never leave the map.
        if registration.expected_receptions == 0 {
            return;
        }
        self.scoreboard.insert(
            registration.id,
            TrackedPacket {
                created_at: registration.created_at,
                remaining_receptions: registration.expected_receptions,
            },
        );
    }

    fn apply_reception(&mut self, reception: Reception) {
        if self.log_deliveries {
            self.deliveries.push(reception);
        }
        if self.measuring {
            self.throughput.record_reception(u64::from(reception.flits));
        }
        if let Some(tracked) = self.scoreboard.get_mut(&reception.id) {
            tracked.remaining_receptions -= 1;
            if tracked.remaining_receptions == 0 {
                self.latency.record(reception.at - tracked.created_at);
                self.scoreboard.remove(&reception.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkVariant, NocConfig};
    use noc_types::{DestinationSet, PacketKind};

    fn run_cycles(network: &mut Network, cycles: u64, inject: bool) {
        for _ in 0..cycles {
            network.step(inject);
        }
    }

    #[test]
    fn an_idle_network_stays_idle() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.0).unwrap();
        run_cycles(&mut network, 100, true);
        assert_eq!(network.in_flight_flits(), 0);
        assert_eq!(network.injected_packets(), 0);
        assert_eq!(network.latency().count(), 0);
    }

    #[test]
    fn low_load_traffic_is_delivered_and_drains() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.05).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 500, true);
        run_cycles(&mut network, 300, false);
        assert!(network.injected_packets() > 0);
        assert!(network.latency().count() > 0, "packets must complete");
        assert_eq!(network.in_flight_flits(), 0, "the network must drain");
        assert_eq!(network.outstanding_tracked_packets(), 0);
    }

    #[test]
    fn packets_without_destinations_are_not_outstanding() {
        // An empty destination set is owed no reception, so it must neither
        // hold the outstanding count above zero nor stay in the scoreboard.
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.05).unwrap();
        network.set_measuring(true);
        for cycle in 0..500u64 {
            if cycle % 100 == 50 {
                let kind = if cycle % 200 == 50 {
                    PacketKind::Request
                } else {
                    PacketKind::Response
                };
                // Clear of generated ids (`node << 40 | seq`) and of the
                // serving layer's tag bits 59/58.
                let id = (1 << 56) | cycle;
                let source = (cycle % 16) as NodeId;
                network.inject_packet(Packet::new(
                    id,
                    source,
                    DestinationSet::empty(),
                    kind,
                    network.now(),
                ));
            }
            network.step(true);
        }
        network.set_measuring(false);
        // `Simulation::run`'s drain limit for a 500-cycle window.
        let drain_limit = 4 * 500 + 2000;
        let mut drained = 0;
        while network.outstanding_tracked_packets() > 0 && drained < drain_limit {
            network.step(false);
            drained += 1;
        }
        assert_eq!(network.outstanding_tracked_packets(), 0);
        assert!(
            drained < drain_limit / 10,
            "drained after {drained} of {drain_limit} cycles"
        );
        assert!(network.latency().count() > 0);
    }

    #[test]
    fn bad_injection_rates_are_rejected_at_construction() {
        let config = NocConfig::proposed_chip().unwrap();
        let is_rate_error = |result: Result<Network, NocError>| {
            matches!(
                result,
                Err(NocError::Config(ConfigError::InvalidInjectionRate { .. }))
            )
        };
        for rate in [f64::NAN, -0.1, 1.5] {
            assert!(is_rate_error(Network::new(config, rate)), "rate {rate}");
            assert!(
                is_rate_error(Network::with_step_threads(config, rate, 2)),
                "rate {rate}"
            );
            assert!(
                is_rate_error(Network::with_partition_shape(
                    config,
                    rate,
                    PartitionShape::Tiles { rows: 2, cols: 2 }
                )),
                "rate {rate}"
            );
        }
        // The closed interval's ends are valid.
        assert!(Network::new(config, 0.0).is_ok());
        assert!(Network::new(config, 1.0).is_ok());
    }

    #[test]
    fn proposed_network_achieves_near_single_cycle_hops_at_low_load() {
        // With per-node seeds (no artifact) and a very low rate, the average
        // mixed-traffic latency should sit close to the theoretical limit
        // (hops + 2 NIC cycles + serialization).
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let mut network = Network::new(config, 0.01).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 3000, true);
        run_cycles(&mut network, 500, false);
        let avg = network.latency().mean();
        assert!(network.latency().count() > 20);
        // Mixed traffic limit is ~8 cycles; allow generous contention slack.
        assert!(avg < 12.0, "average latency too high: {avg}");
        assert!(avg >= 5.0, "average latency implausibly low: {avg}");
    }

    #[test]
    fn baseline_broadcasts_are_much_slower_than_proposed() {
        let run = |variant| {
            let config = NocConfig::variant(variant)
                .unwrap()
                .with_mix(noc_traffic::TrafficMix::broadcast_only())
                .with_seed_mode(noc_traffic::SeedMode::PerNode);
            let mut network = Network::new(config, 0.02).unwrap();
            network.set_measuring(true);
            run_cycles(&mut network, 2000, true);
            run_cycles(&mut network, 1000, false);
            network.latency().mean()
        };
        let baseline = run(NetworkVariant::FullSwingUnicast);
        let proposed = run(NetworkVariant::LowSwingBroadcastBypass);
        assert!(
            baseline > 1.5 * proposed,
            "baseline {baseline:.1} cycles should be well above proposed {proposed:.1}"
        );
    }

    #[test]
    fn bypassing_actually_happens_on_the_proposed_network() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let mut network = Network::new(config, 0.02).unwrap();
        run_cycles(&mut network, 1000, true);
        let counters = network.counters();
        assert!(counters.bypasses > 0, "lookahead bypassing must occur");
        assert!(
            counters.bypass_fraction() > 0.5,
            "most hops should bypass at low load"
        );
        // The baseline never bypasses.
        let baseline = NocConfig::variant(NetworkVariant::FullSwingUnicast).unwrap();
        let mut baseline_net = Network::new(baseline, 0.02).unwrap();
        run_cycles(&mut baseline_net, 1000, true);
        assert_eq!(baseline_net.counters().bypasses, 0);
    }

    #[test]
    fn bypass_fraction_is_a_true_fraction_under_broadcast_traffic() {
        // Broadcast flits fork at bypass time and eject locally mid-tree;
        // counting bypasses per flit instead of per link traversal used to
        // push the ratio above 1.0 on broadcast-heavy runs.
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_mix(noc_traffic::TrafficMix::broadcast_only());
        let mut network = Network::new(config, 0.02).unwrap();
        run_cycles(&mut network, 2000, true);
        let counters = network.counters();
        assert!(counters.bypasses > 0, "broadcasts must bypass at low load");
        let fraction = counters.bypass_fraction();
        assert!(
            (0.0..=1.0).contains(&fraction),
            "bypass fraction must be a fraction: {fraction}"
        );
    }

    #[test]
    fn reset_reproduces_a_cold_network_exactly() {
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_seed_mode(noc_traffic::SeedMode::PerNode);
        let run = |network: &mut Network| {
            network.set_rate(0.1);
            network.set_measuring(true);
            run_cycles(network, 400, true);
            run_cycles(network, 400, false);
            (
                network.injected_packets(),
                network.latency().mean(),
                network.throughput().received_flits(),
                network.counters(),
            )
        };
        // Cold reference with the target seed.
        let mut cold = Network::new(config.with_base_seed(0x1234), 0.1).unwrap();
        let reference = run(&mut cold);
        // Warm network: drive it mid-flight on a different seed, then reset.
        let mut warm = Network::new(config, 0.2).unwrap();
        run_cycles(&mut warm, 300, true);
        assert!(warm.in_flight_flits() > 0, "warm network should be loaded");
        warm.reset(0x1234);
        assert_eq!(warm.now(), 0);
        assert_eq!(warm.in_flight_flits(), 0);
        assert_eq!(run(&mut warm), reference, "warm reset diverged from cold");
    }

    #[test]
    fn reset_folds_wide_seeds_into_the_lfsr_domain() {
        let mut network = Network::new(NocConfig::proposed_chip().unwrap(), 0.0).unwrap();
        network.reset(0xABCD);
        assert_eq!(network.config().base_seed, 0xABCD);
        network.reset(0x0001_0000_0000_ABCD);
        assert_eq!(network.config().base_seed, 0xABCC, "limbs are XOR-folded");
        network.reset(0);
        assert_ne!(network.config().base_seed, 0, "zero must be remapped");
    }

    #[test]
    fn conservation_no_flit_is_lost_or_duplicated() {
        // Inject for a while, drain completely, and check that every tracked
        // packet reached all of its destinations.
        let config = NocConfig::proposed_chip().unwrap();
        let mut network = Network::new(config, 0.08).unwrap();
        network.set_measuring(true);
        run_cycles(&mut network, 1500, true);
        run_cycles(&mut network, 1500, false);
        assert_eq!(network.in_flight_flits(), 0, "network must fully drain");
        assert_eq!(
            network.outstanding_tracked_packets(),
            0,
            "every measured packet must complete all receptions"
        );
        assert!(network.throughput().received_flits() > 0);
    }

    #[test]
    fn partitioned_stepping_matches_serial_exactly() {
        // The heavyweight cross-product lives in tests/determinism.rs; this
        // in-module test pins the core contract on one saturated run.
        let config = NocConfig::proposed_chip().unwrap();
        let run = |threads: usize| {
            let mut network = Network::with_step_threads(config, 0.2, threads).unwrap();
            assert_eq!(network.step_threads(), threads);
            network.set_measuring(true);
            run_cycles(&mut network, 400, true);
            run_cycles(&mut network, 400, false);
            (
                network.injected_packets(),
                network.in_flight_flits(),
                format!("{:?}", network.latency()),
                format!("{:?}", network.throughput()),
                network.counters(),
            )
        };
        let serial = run(1);
        assert_eq!(run(2), serial, "2-thread run diverged from serial");
        assert_eq!(run(4), serial, "4-thread run diverged from serial");
    }

    #[test]
    fn tiled_stepping_matches_serial_exactly() {
        // Vertical cuts exercise the East/West boundary mailboxes; the full
        // shape × thread × rebalance cross-product lives in
        // tests/determinism.rs.
        let config = NocConfig::proposed_chip().unwrap();
        let run = |shape: Option<PartitionShape>, epoch: Option<u64>| {
            let mut network = match shape {
                Some(shape) => Network::with_partition_shape(config, 0.2, shape).unwrap(),
                None => Network::new(config, 0.2).unwrap(),
            };
            network.set_rebalance_epoch(epoch);
            network.set_measuring(true);
            run_cycles(&mut network, 400, true);
            run_cycles(&mut network, 400, false);
            (
                network.injected_packets(),
                network.in_flight_flits(),
                format!("{:?}", network.latency()),
                format!("{:?}", network.throughput()),
                network.counters(),
            )
        };
        let serial = run(None, None);
        let tiles = PartitionShape::Tiles { rows: 2, cols: 2 };
        assert_eq!(
            run(Some(tiles), None),
            serial,
            "2x2-tile run diverged from serial"
        );
        assert_eq!(
            run(Some(tiles), Some(64)),
            serial,
            "rebalanced 2x2-tile run diverged from serial"
        );
        assert_eq!(
            run(Some(PartitionShape::Rows(4)), Some(100)),
            serial,
            "rebalanced 4-row run diverged from serial"
        );
    }

    #[test]
    fn rebalancing_moves_the_cuts_under_skewed_load() {
        // Drive a corner-hotspot pattern: the congestion tree rooted at the
        // far corner keeps the rows away from it busiest (blocked upstream
        // routers never nap), so the weighted cuts must displace the
        // unweighted even split once an epoch elapses.
        let mut hotspot = noc_types::DestinationSet::empty();
        hotspot.insert(15);
        let config = NocConfig::proposed_chip()
            .unwrap()
            .with_mix(noc_traffic::TrafficMix::unicast_only())
            .with_pattern(noc_traffic::SpatialPattern::hotspot(hotspot, 0.9));
        let mut network =
            Network::with_partition_shape(config, 0.05, PartitionShape::Rows(2)).unwrap();
        network.set_rebalance_epoch(Some(128));
        run_cycles(&mut network, 1024, true);
        let even = PartitionShape::Rows(2).map(network.mesh());
        assert_ne!(
            network.map, even,
            "hotspot load should displace the even cuts"
        );
        // A warm reset restores the unweighted cuts and replays bit-identically.
        let mut cold =
            Network::with_partition_shape(config, 0.05, PartitionShape::Rows(2)).unwrap();
        cold.reset(0x5EED);
        network.reset(0x5EED);
        assert_eq!(network.map, even, "reset must restore the unweighted cuts");
        run_cycles(&mut network, 300, true);
        run_cycles(&mut cold, 300, true);
        assert_eq!(network.counters(), cold.counters());
        assert_eq!(network.injected_packets(), cold.injected_packets());
    }

    #[test]
    fn partition_shape_requests_are_validated_and_clamped() {
        let config = NocConfig::proposed_chip().unwrap();
        assert!(matches!(
            Network::with_partition_shape(config, 0.0, PartitionShape::Tiles { rows: 0, cols: 2 }),
            Err(NocError::Config(ConfigError::InvalidParallelism { .. }))
        ));
        // Axes clamp to the mesh side (k = 4).
        let network =
            Network::with_partition_shape(config, 0.0, PartitionShape::Tiles { rows: 9, cols: 9 })
                .unwrap();
        assert_eq!(network.step_threads(), 16);
        // Same node ownership under a different name keeps all state.
        let mut network = Network::with_step_threads(config, 0.0, 2).unwrap();
        network
            .set_partition_shape(PartitionShape::Tiles { rows: 2, cols: 1 })
            .unwrap();
        assert_eq!(network.step_threads(), 2);
        assert_eq!(
            network.partition_shape(),
            PartitionShape::Tiles { rows: 2, cols: 1 }
        );
    }

    #[test]
    fn step_thread_requests_are_validated_and_clamped() {
        let config = NocConfig::proposed_chip().unwrap();
        assert!(matches!(
            Network::with_step_threads(config, 0.0, 0),
            Err(NocError::Config(ConfigError::InvalidParallelism { .. }))
        ));
        // Requests beyond the row count clamp to one strip per row (k = 4).
        let network = Network::with_step_threads(config, 0.0, 64).unwrap();
        assert_eq!(network.step_threads(), 4);
        // Reconfiguring to the same effective count is a cheap no-op.
        let mut network = Network::new(config, 0.0).unwrap();
        network.set_step_threads(1).unwrap();
        assert_eq!(network.step_threads(), 1);
        network.set_step_threads(2).unwrap();
        assert_eq!(network.step_threads(), 2);
        assert!(network.set_step_threads(0).is_err());
    }

    #[test]
    fn clones_of_partitioned_networks_step_independently() {
        let config = NocConfig::proposed_chip().unwrap();
        let mut network = Network::with_step_threads(config, 0.15, 2).unwrap();
        run_cycles(&mut network, 200, true);
        let mut clone = network.clone();
        run_cycles(&mut network, 100, true);
        run_cycles(&mut clone, 100, true);
        assert_eq!(network.injected_packets(), clone.injected_packets());
        assert_eq!(network.in_flight_flits(), clone.in_flight_flits());
        assert_eq!(network.counters(), clone.counters());
    }
}
