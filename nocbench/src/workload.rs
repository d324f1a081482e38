//! The three workloads, driven through the simulator's public entry points.
//!
//! Each workload has an *untraced* run — exactly the call a user makes
//! (`Simulation::run` or `ClosedLoop::run`) — and a *traced* pass that
//! re-drives the same schedule from outside through finer public calls
//! (`Network::step`, `Network::outstanding_tracked_packets`,
//! `ClosedLoop::advance(1)`) and times each of them. Both end in a digest of
//! every simulated statistic, so the traced pass proves it simulated the
//! same thing as the run it explains.

use std::time::Instant;

use noc_repro::noc::{
    ClosedLoop, Network, NocConfig, ServingOpts, ServingResult, Simulation, SimulationResult,
};
use noc_repro::topology::limits::MeshLimits;
use noc_repro::traffic::{SeedMode, TrafficMix};
use noc_repro::types::NocError;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16×16 proposed mesh, mixed traffic, 0.10 flits/node/cycle (past
    /// saturation), stepped by 2 row partitions.
    Mesh16Saturated,
    /// 8×8 mesh, unicast-only uniform traffic at 0.01 flits/node/cycle,
    /// long measurement window, serial.
    Mesh8Lowload,
    /// Closed-loop request/reply on the 4×4 chip at the throughput knee,
    /// serial.
    Chip4Serving,
}

/// Warmup / measurement windows of an open-loop workload and its rate.
#[derive(Debug, Clone, Copy)]
struct OpenSpec {
    rate: f64,
    warmup: u64,
    measure: u64,
}

/// `stress16`'s quick windows at its top rate.
const MESH16: OpenSpec = OpenSpec {
    rate: 0.10,
    warmup: 200,
    measure: 1_000,
};

const MESH8: OpenSpec = OpenSpec {
    rate: 0.01,
    warmup: 1_000,
    measure: 50_000,
};

/// Closed-loop population and protocol at the `serving` sweep's knee.
const CHIP4_CLIENTS: usize = 64;
const CHIP4_OPTS: ServingOpts = ServingOpts {
    window: 4,
    service_cycles: 16,
};
const CHIP4_WARMUP: u64 = 1_000;
const CHIP4_MEASURE: u64 = 10_000;
/// Bound on the conservation drain after a closed-loop run.
const CHIP4_DRAIN_BOUND: u64 = 20_000;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Mesh16Saturated,
        Workload::Mesh8Lowload,
        Workload::Chip4Serving,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh16Saturated => "mesh16_saturated",
            Workload::Mesh8Lowload => "mesh8_lowload",
            Workload::Chip4Serving => "chip4_serving",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mesh partitions (step threads) the workload runs on.
    pub fn step_threads(self) -> usize {
        match self {
            Workload::Mesh16Saturated => 2,
            Workload::Mesh8Lowload | Workload::Chip4Serving => 1,
        }
    }

    /// The simulated configuration for benchmark seed `seed`.
    pub fn config(self, seed: u64) -> Result<NocConfig, NocError> {
        let chip = NocConfig::proposed_chip()?.with_base_seed(base_seed(seed));
        let config = match self {
            Workload::Mesh16Saturated => chip.with_side(16).with_seed_mode(SeedMode::PerNode),
            Workload::Mesh8Lowload => chip
                .with_side(8)
                .with_mix(TrafficMix::unicast_only())
                .with_seed_mode(SeedMode::PerNode),
            Workload::Chip4Serving => chip,
        };
        config.validate()?;
        Ok(config)
    }

    fn open_spec(self) -> Option<OpenSpec> {
        match self {
            Workload::Mesh16Saturated => Some(MESH16),
            Workload::Mesh8Lowload => Some(MESH8),
            Workload::Chip4Serving => None,
        }
    }
}

/// Folds the benchmark seed into the simulator's non-zero 16-bit PRBS base
/// seed (SplitMix64 finaliser, so nearby seeds give unrelated streams).
fn base_seed(seed: u64) -> u16 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let folded = (z ^ (z >> 16) ^ (z >> 32) ^ (z >> 48)) as u16;
    folded.max(1)
}

/// A workload built and ready to run: the set-up step users pay.
#[derive(Debug)]
pub enum Built {
    /// An open-loop simulation.
    Open(Simulation),
    /// A closed-loop serving run.
    Serving(ClosedLoop),
}

/// Builds `workload` on `config` with `threads` mesh partitions.
pub fn build(workload: Workload, config: NocConfig, threads: usize) -> Result<Built, NocError> {
    Ok(match workload {
        Workload::Chip4Serving => Built::Serving(
            ClosedLoop::new(config, CHIP4_CLIENTS, CHIP4_OPTS)?.with_step_threads(threads)?,
        ),
        _ => Built::Open(Simulation::new(config)?.with_step_threads(threads)?),
    })
}

/// What one untraced run returned.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An open-loop run and the network state it left.
    Open(OpenOutcome),
    /// A closed-loop run.
    Serving(ServingOutcome),
}

/// An open-loop run's result plus the scoreboard and queue state at its end.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenOutcome {
    /// What `Simulation::run` returned.
    pub result: SimulationResult,
    /// Digest of every simulated statistic the network holds.
    pub digest: u64,
    /// Packets created in the measurement window.
    pub attempted: u64,
    /// Measured packets still undelivered when the drain stopped.
    pub undrained: u64,
    /// Flits buffered or queued when the run ended.
    pub in_flight_flits: u64,
    /// Packets the NIC traffic sources injected over the whole run.
    pub injected_packets: u64,
    /// Cumulative router steps per mesh partition.
    pub partition_loads: Vec<u64>,
}

/// A closed-loop run's result plus the loop state at its end.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOutcome {
    /// What `ClosedLoop::run` returned.
    pub result: ServingResult,
    /// Digest of the loop's trajectory (see [`serving_digest`]).
    pub digest: u64,
    /// Highest per-client outstanding count.
    pub peak_outstanding: u32,
}

impl Outcome {
    /// Simulated cycles: warmup, measurement and drain.
    pub fn cycles(&self) -> u64 {
        match self {
            Outcome::Open(o) => o.result.total_cycles,
            Outcome::Serving(s) => s.result.total_cycles,
        }
    }

    /// Measured packets (open loop) or request→reply pairs (closed loop)
    /// completed.
    pub fn delivered(&self) -> u64 {
        match self {
            Outcome::Open(o) => o.result.measured_packets,
            Outcome::Serving(s) => s.result.measured_requests,
        }
    }

    /// The digest the traced pass and the serial reference must reproduce.
    pub fn digest(&self) -> u64 {
        match self {
            Outcome::Open(o) => o.digest,
            Outcome::Serving(s) => s.digest,
        }
    }

    /// Received throughput in Gb/s.
    pub fn received_gbps(&self) -> f64 {
        match self {
            Outcome::Open(o) => o.result.received_gbps,
            Outcome::Serving(s) => s.result.received_gbps,
        }
    }
}

/// Runs a built workload once through its public entry point.
pub fn run(workload: Workload, built: &mut Built) -> Result<Outcome, NocError> {
    match built {
        Built::Open(sim) => {
            let spec = workload.open_spec().expect("open-loop workload");
            let result = sim.run(spec.rate, spec.warmup, spec.measure)?;
            Ok(Outcome::Open(open_outcome(result, sim.network())))
        }
        Built::Serving(closed) => {
            let result = closed.run(CHIP4_WARMUP, CHIP4_MEASURE)?;
            let digest = serving_digest(closed, result.total_cycles);
            Ok(Outcome::Serving(ServingOutcome {
                peak_outstanding: closed.peak_outstanding(),
                result,
                digest,
            }))
        }
    }
}

fn open_outcome(result: SimulationResult, network: &Network) -> OpenOutcome {
    OpenOutcome {
        digest: network_digest(network),
        attempted: network.throughput().injected_packets(),
        undrained: network.outstanding_tracked_packets() as u64,
        in_flight_flits: network.in_flight_flits() as u64,
        injected_packets: network.injected_packets(),
        partition_loads: network.partition_loads(),
        result,
    }
}

/// FNV-1a over the `Debug` rendering of every simulated statistic the
/// network holds: the full latency histogram, throughput counts, activity
/// counters, clock, queue and scoreboard state. `Debug` prints floats
/// exactly, so equal digests mean bit-identical statistics.
fn network_digest(network: &Network) -> u64 {
    fnv1a(&format!(
        "{:?}|{:?}|{:?}|{}|{}|{}|{}",
        network.latency(),
        network.throughput(),
        network.counters(),
        network.now(),
        network.in_flight_flits(),
        network.outstanding_tracked_packets(),
        network.injected_packets(),
    ))
}

/// Digest of a closed loop's trajectory after `cycles` cycles: requests
/// issued, replies completed, requests outstanding and the peak window.
/// The measurement window only decides which round trips are recorded, so
/// `ClosedLoop::run` and `cycles` calls of `ClosedLoop::advance(1)` reach
/// the same trajectory.
fn serving_digest(closed: &ClosedLoop, cycles: u64) -> u64 {
    fnv1a(&format!(
        "{}|{}|{}|{}|{}",
        cycles,
        closed.requests_issued(),
        closed.replies_completed(),
        closed.outstanding_requests(),
        closed.peak_outstanding(),
    ))
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Table 1 received-throughput limit in Gb/s for `config`'s mesh: the
/// ejection-bound broadcast limit when the traffic carries broadcasts, the
/// unicast limit otherwise.
pub fn limit_gbps(config: &NocConfig, workload: Workload) -> f64 {
    let broadcast = workload != Workload::Chip4Serving && config.mix.broadcast_request() > 0.0;
    MeshLimits::new(config.k).throughput_limit_gbps(
        broadcast,
        config.flit_bits,
        config.frequency_ghz,
    )
}

/// Host time and per-call samples of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The traced run's digest; must equal the untraced one.
    pub digest: u64,
    /// Host seconds building the network or loop.
    pub new_s: f64,
    /// Host seconds rewinding the network with `Network::reset`.
    pub reset_s: f64,
    /// Host seconds in the warmup, measurement and drain phases.
    pub warmup_s: f64,
    /// See [`Trace::warmup_s`].
    pub measure_s: f64,
    /// See [`Trace::warmup_s`].
    pub drain_s: f64,
    /// Simulated drain cycles.
    pub drain_cycles: u64,
    /// Host seconds polling `outstanding_tracked_packets` in the drain.
    pub drain_poll_s: f64,
    /// Nanoseconds of each injecting step (open loop).
    pub inject_step_ns: Vec<u64>,
    /// Nanoseconds of each draining step (open loop).
    pub drain_step_ns: Vec<u64>,
    /// Nanoseconds of each closed-loop cycle.
    pub cycle_ns: Vec<u64>,
    /// Requests issued in the measurement window (closed loop).
    pub measured_issued: u64,
    /// Whether a bounded drain completed every request with one reply
    /// (closed loop; `true` for open loop).
    pub conserved: bool,
}

impl Trace {
    /// Host seconds of the run proper (set-up excluded).
    pub fn run_s(&self) -> f64 {
        self.warmup_s + self.measure_s + self.drain_s
    }
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Traced pass of `workload`. `untraced` is a finished untraced run of the
/// same configuration; the closed loop replays its cycle count.
pub fn traced(
    workload: Workload,
    config: NocConfig,
    threads: usize,
    untraced: &Outcome,
) -> Result<Trace, NocError> {
    match workload.open_spec() {
        Some(spec) => traced_open(spec, config, threads),
        None => traced_serving(config, threads, untraced.cycles()),
    }
}

/// `Simulation::run`'s schedule, step by step on a bare `Network`.
fn traced_open(spec: OpenSpec, config: NocConfig, threads: usize) -> Result<Trace, NocError> {
    let mut trace = Trace {
        conserved: true,
        ..Trace::default()
    };
    let start = Instant::now();
    let mut network = Network::new(config, 0.0)?;
    network.set_step_threads(threads)?;
    trace.new_s = start.elapsed().as_secs_f64();

    network.set_rate(spec.rate);
    trace
        .inject_step_ns
        .reserve((spec.warmup + spec.measure) as usize);
    for (measuring, cycles) in [(false, spec.warmup), (true, spec.measure)] {
        network.set_measuring(measuring);
        let phase = Instant::now();
        for _ in 0..cycles {
            let step = Instant::now();
            network.step(true);
            trace.inject_step_ns.push(ns_since(step));
        }
        let phase_s = phase.elapsed().as_secs_f64();
        if measuring {
            trace.measure_s = phase_s;
        } else {
            trace.warmup_s = phase_s;
        }
    }
    network.set_measuring(false);
    network.throughput_mut().set_measured_cycles(spec.measure);

    let drain_limit = 4 * spec.measure + 2000;
    let phase = Instant::now();
    let mut poll_ns = 0;
    loop {
        let poll = Instant::now();
        let outstanding = network.outstanding_tracked_packets();
        poll_ns += ns_since(poll);
        if outstanding == 0 || trace.drain_cycles >= drain_limit {
            break;
        }
        let step = Instant::now();
        network.step(false);
        trace.drain_step_ns.push(ns_since(step));
        trace.drain_cycles += 1;
    }
    trace.drain_s = phase.elapsed().as_secs_f64();
    trace.drain_poll_s = poll_ns as f64 * 1e-9;
    trace.digest = network_digest(&network);

    let reset = Instant::now();
    network.reset(u64::from(config.base_seed));
    trace.reset_s = reset.elapsed().as_secs_f64();
    Ok(trace)
}

/// `ClosedLoop::run`'s `cycles`-cycle trajectory one `advance(1)` at a
/// time, then the conservation drain.
fn traced_serving(config: NocConfig, threads: usize, cycles: u64) -> Result<Trace, NocError> {
    let mut trace = Trace::default();
    let start = Instant::now();
    let Built::Serving(mut closed) = build(Workload::Chip4Serving, config, threads)? else {
        unreachable!("the serving workload builds a closed loop");
    };
    trace.new_s = start.elapsed().as_secs_f64();

    let measure_end = CHIP4_WARMUP + CHIP4_MEASURE;
    let phases = [
        CHIP4_WARMUP,
        CHIP4_MEASURE,
        cycles.saturating_sub(measure_end),
    ];
    trace.cycle_ns.reserve(cycles as usize);
    let mut issued_at_window_start = 0;
    for (index, length) in phases.into_iter().enumerate() {
        if index == 1 {
            issued_at_window_start = closed.requests_issued();
        }
        let phase = Instant::now();
        for _ in 0..length {
            let cycle = Instant::now();
            closed.advance(1);
            trace.cycle_ns.push(ns_since(cycle));
        }
        let phase_s = phase.elapsed().as_secs_f64();
        match index {
            0 => trace.warmup_s = phase_s,
            1 => {
                trace.measure_s = phase_s;
                trace.measured_issued = closed.requests_issued() - issued_at_window_start;
            }
            _ => trace.drain_s = phase_s,
        }
    }
    trace.drain_cycles = phases[2];
    trace.digest = serving_digest(&closed, cycles);

    let drained = closed.drain_remaining(CHIP4_DRAIN_BOUND);
    trace.conserved = drained && closed.replies_completed() == closed.requests_issued();
    Ok(trace)
}
