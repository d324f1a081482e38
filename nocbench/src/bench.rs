//! One benchmark run: set-up, the timed window, the correctness checks and
//! the metrics of either mode.

use std::collections::BTreeMap;
use std::error::Error;
use std::time::{Duration, Instant};

use noc_repro::noc::NocConfig;
use noc_repro::types::NocError;

use crate::metrics::{median, percentile, PER_LAYER};
use crate::workload::{self, Outcome, Trace, Workload};

/// Set-ups timed after each untraced run; `setup_s` is the median of all.
const SETUPS_PER_RUN: usize = 3;

/// Calls of `SimulationResult::power` timed for `power.price_us`.
const PRICE_REPEATS: usize = 101;

/// Everything one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Untraced runs attempted in the timed window.
    pub attempted: u64,
    /// Runs that returned an error.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Digest of the first untraced run's simulated statistics.
    pub digest: u64,
}

/// Host time and output of one untraced run.
#[derive(Debug)]
struct Sample {
    host_s: f64,
    outcome: Outcome,
}

impl Sample {
    fn cycles_per_s(&self) -> f64 {
        self.outcome.cycles() as f64 / self.host_s
    }

    fn delivered_per_s(&self) -> f64 {
        self.outcome.delivered() as f64 / self.host_s
    }
}

/// Untraced runs of one workload configuration, each built fresh.
#[derive(Debug)]
struct Window {
    threads: usize,
    samples: Vec<Sample>,
    failed: u64,
    check_failures: Vec<String>,
}

impl Window {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            samples: Vec::new(),
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    /// Builds and runs once; the run (not the build) is timed. Every run
    /// must return exactly what the first returned.
    fn run_once(&mut self, bench: &Bench) {
        let result =
            workload::build(bench.workload, bench.config, self.threads).and_then(|mut built| {
                let start = Instant::now();
                let outcome = workload::run(bench.workload, &mut built)?;
                Ok(Sample {
                    host_s: start.elapsed().as_secs_f64(),
                    outcome,
                })
            });
        match result {
            Ok(sample) => {
                if let Some(first) = self.samples.first() {
                    if first.outcome != sample.outcome {
                        self.check_failures.push(format!(
                            "{}-thread run {} differs from the first run of the same seed",
                            self.threads,
                            self.samples.len()
                        ));
                    }
                }
                self.samples.push(sample);
            }
            Err(error) => {
                self.failed += 1;
                self.check_failures
                    .push(format!("{}-thread run failed: {error}", self.threads));
            }
        }
    }

    fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    fn first(&self) -> Option<&Outcome> {
        self.samples.first().map(|s| &s.outcome)
    }

    fn median_of(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        median(&self.samples.iter().map(f).collect::<Vec<_>>())
    }
}

/// The untraced runs of one window and what was sampled between them.
#[derive(Debug)]
struct Windows {
    main: Window,
    serial: Option<Window>,
    /// Median set-up host seconds.
    setup_s: f64,
    /// Peak resident memory after the first run.
    peak_rss_mb: f64,
}

/// A workload at one seed.
#[derive(Debug)]
pub struct Bench {
    /// The workload.
    pub workload: Workload,
    /// Its simulated configuration.
    pub config: NocConfig,
}

impl Bench {
    /// The workload's configuration for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Result<Self, NocError> {
        Ok(Self {
            workload,
            config: workload.config(seed)?,
        })
    }

    /// Runs untraced windows for `budget`: the workload's own thread count
    /// and, when `serial_reference` is set and that count is above one, a
    /// serial reference interleaved run for run. Set-ups are timed between
    /// runs, so they sample the host over the whole window like the runs.
    fn windows(&self, budget: Duration, serial_reference: bool) -> Result<Windows, Box<dyn Error>> {
        let threads = self.workload.step_threads();
        let mut main = Window::new(threads);
        let mut serial = (serial_reference && threads > 1).then(|| Window::new(1));
        let mut setup_s = Vec::new();
        let mut peak_rss_mb = None;
        let start = Instant::now();
        while main.attempted() == 0 || start.elapsed() < budget {
            main.run_once(self);
            if let Some(serial) = &mut serial {
                serial.run_once(self);
            }
            // Every run repeats the first, and no set-up has been held yet,
            // so this is the peak of one run.
            if peak_rss_mb.is_none() {
                peak_rss_mb = Some(read_peak_rss_mb()?);
            }
            self.time_setups(&mut setup_s)?;
        }
        Ok(Windows {
            main,
            serial,
            setup_s: median(&setup_s),
            peak_rss_mb: peak_rss_mb.expect("the window ran at least once"),
        })
    }

    /// Times [`SETUPS_PER_RUN`] builds, all held until the last is timed so
    /// each gets fresh memory, as a process's first build does.
    fn time_setups(&self, times: &mut Vec<f64>) -> Result<(), NocError> {
        let mut held = Vec::with_capacity(SETUPS_PER_RUN);
        for _ in 0..SETUPS_PER_RUN {
            let start = Instant::now();
            let built = workload::build(self.workload, self.config, self.workload.step_threads())?;
            times.push(start.elapsed().as_secs_f64());
            held.push(built);
        }
        Ok(())
    }

    /// Checks that hold for any untraced outcome of this workload.
    fn check_outcome(&self, outcome: &Outcome, failures: &mut Vec<String>) {
        let limit = workload::limit_gbps(&self.config, self.workload);
        if outcome.received_gbps() > limit * (1.0 + 1e-9) {
            failures.push(format!(
                "received {:.3} Gb/s exceeds the Table 1 limit of {limit:.3} Gb/s",
                outcome.received_gbps()
            ));
        }
        if let Outcome::Open(open) = outcome {
            if open.attempted != open.result.measured_packets + open.undrained {
                failures.push(format!(
                    "measured packets do not add up: {} created, {} delivered, {} undrained",
                    open.attempted, open.result.measured_packets, open.undrained
                ));
            }
        }
    }

    /// Checks of a traced pass against the untraced run it re-drives.
    fn check_trace(trace: &Trace, untraced: &Outcome, failures: &mut Vec<String>) {
        if trace.digest != untraced.digest() {
            failures.push(format!(
                "traced digest {:016x} differs from untraced digest {:016x}",
                trace.digest,
                untraced.digest()
            ));
        }
        if !trace.conserved {
            failures.push("closed-loop drain lost a reply or did not finish".to_owned());
        }
    }

    /// Measured packets (or closed-loop requests) delivered over those
    /// created in the measurement window.
    fn delivered_share(outcome: &Outcome, trace: Option<&Trace>) -> f64 {
        let attempted = match (outcome, trace) {
            (Outcome::Open(open), _) => open.attempted,
            (Outcome::Serving(_), Some(trace)) => trace.measured_issued,
            (Outcome::Serving(_), None) => unreachable!("closed loop counts requests by replay"),
        };
        outcome.delivered() as f64 / attempted as f64
    }

    /// An untraced run: the timed window for `budget`.
    pub fn untraced(&self, budget: Duration) -> Result<RunReport, Box<dyn Error>> {
        let Windows {
            main,
            setup_s,
            peak_rss_mb,
            ..
        } = self.windows(budget, false)?;
        let mut failures = main.check_failures.clone();
        let first = main.first().ok_or("no untraced run succeeded")?;
        self.check_outcome(first, &mut failures);
        // The closed loop's attempted count and conservation come from an
        // advance-driven replay; it runs after the timed window.
        let replay = match first {
            Outcome::Serving(_) => {
                let trace = workload::traced(self.workload, self.config, main.threads, first)?;
                Self::check_trace(&trace, first, &mut failures);
                Some(trace)
            }
            Outcome::Open(_) => None,
        };
        let values = BTreeMap::from([
            ("sim_cycles_per_s", main.median_of(Sample::cycles_per_s)),
            ("packets_per_s", main.median_of(Sample::delivered_per_s)),
            ("setup_s", setup_s),
            ("peak_rss_mb", peak_rss_mb),
            (
                "delivered_share",
                Self::delivered_share(first, replay.as_ref()),
            ),
        ]);
        Ok(main.into_report(failures, values))
    }

    /// A traced run: half of `budget` untraced (with the serial reference
    /// interleaved on a partitioned workload), half traced passes.
    pub fn traced(&self, budget: Duration) -> Result<RunReport, Box<dyn Error>> {
        let Windows { main, serial, .. } = self.windows(budget / 2, true)?;
        let mut failures = main.check_failures.clone();
        let first = main.first().ok_or("no untraced run succeeded")?;
        self.check_outcome(first, &mut failures);
        if let Some(serial) = &serial {
            failures.extend(serial.check_failures.iter().cloned());
            if let Some(reference) = serial.first() {
                if reference.digest() != first.digest() {
                    failures.push(format!(
                        "serial reference digest {:016x} differs from the {}-thread digest {:016x}",
                        reference.digest(),
                        main.threads,
                        first.digest()
                    ));
                }
            }
        }

        let mut traces = Vec::new();
        let start = Instant::now();
        while traces.is_empty() || start.elapsed() < budget / 2 {
            let trace = workload::traced(self.workload, self.config, main.threads, first)?;
            Self::check_trace(&trace, first, &mut failures);
            traces.push(trace);
        }

        let values = self.per_layer(&main, serial.as_ref(), &traces);
        Ok(main.into_report(failures, values))
    }

    /// Per-layer values. A metric the workload does not exercise reads 0.
    fn per_layer(
        &self,
        main: &Window,
        serial: Option<&Window>,
        traces: &[Trace],
    ) -> BTreeMap<&'static str, f64> {
        let first = main.first().expect("at least one untraced run succeeded");
        let traced = |f: &dyn Fn(&Trace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
        let untraced_run_s = main.median_of(|s| s.host_s);
        let cycles_per_s = main.median_of(Sample::cycles_per_s);
        let serial_cycles_per_s =
            serial.map_or(cycles_per_s, |s| s.median_of(Sample::cycles_per_s));
        let drain_s = traced(&|t| t.drain_s);
        let drain_poll_s = traced(&|t| t.drain_poll_s);
        let limit = workload::limit_gbps(&self.config, self.workload);

        let mut values: BTreeMap<&'static str, f64> =
            PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
        values.extend([
            ("simulation.warmup_s", traced(&|t| t.warmup_s)),
            ("simulation.measure_s", traced(&|t| t.measure_s)),
            ("simulation.drain_s", drain_s),
            ("simulation.drain_cycles", traces[0].drain_cycles as f64),
            (
                "network.drain_step_ns_p50",
                traced(&|t| percentile(&t.drain_step_ns, 0.50)),
            ),
            (
                "network.drain_step_ns_p99",
                traced(&|t| percentile(&t.drain_step_ns, 0.99)),
            ),
            ("network.drain_poll_s", drain_poll_s),
            (
                "network.drain_poll_share",
                if drain_s > 0.0 {
                    drain_poll_s / drain_s
                } else {
                    0.0
                },
            ),
            (
                "network.inject_step_ns_p50",
                traced(&|t| percentile(&t.inject_step_ns, 0.50)),
            ),
            (
                "network.inject_step_ns_p99",
                traced(&|t| percentile(&t.inject_step_ns, 0.99)),
            ),
            ("network.new_s", traced(&|t| t.new_s)),
            ("network.reset_s", traced(&|t| t.reset_s)),
            ("partition.serial_ref_cycles_per_s", serial_cycles_per_s),
            (
                "partition.speedup_vs_serial",
                cycles_per_s / serial_cycles_per_s,
            ),
            ("partition.load_max_over_mean", 1.0),
            (
                "serving.cycle_ns_p50",
                traced(&|t| percentile(&t.cycle_ns, 0.50)),
            ),
            (
                "serving.cycle_ns_p99",
                traced(&|t| percentile(&t.cycle_ns, 0.99)),
            ),
            ("model.received_gbps", first.received_gbps()),
            ("model.limit_fraction", first.received_gbps() / limit),
            (
                "trace.overhead_share",
                traced(&|t| t.run_s()) / untraced_run_s - 1.0,
            ),
        ]);

        match first {
            Outcome::Open(open) => {
                let r = &open.result;
                let c = &r.counters;
                let energy = self.config.energy_params();
                let mut price_s = Vec::with_capacity(PRICE_REPEATS);
                let mut total_mw = 0.0;
                for _ in 0..PRICE_REPEATS {
                    let start = Instant::now();
                    total_mw = std::hint::black_box(r.power(&energy)).total_mw();
                    price_s.push(start.elapsed().as_secs_f64());
                }
                let loads = &open.partition_loads;
                let mean_load = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
                let max_load = loads.iter().copied().max().unwrap_or(0) as f64;
                values.extend([
                    ("power.price_us", median(&price_s) * 1e6),
                    ("model.total_mw", total_mw),
                    ("model.latency_mean_cycles", r.average_latency_cycles),
                    ("model.latency_p50_cycles", r.p50_latency_cycles),
                    ("model.latency_p99_cycles", r.p99_latency_cycles),
                    ("network.undrained_packets", open.undrained as f64),
                    (
                        "network.failed_share",
                        open.undrained as f64 / open.attempted as f64,
                    ),
                    ("network.in_flight_flits_end", open.in_flight_flits as f64),
                    (
                        "network.host_ns_per_flit_hop",
                        untraced_run_s * 1e9 / c.link_traversals as f64,
                    ),
                    (
                        "router.sa_local_arbitrations",
                        c.sa_local_arbitrations as f64,
                    ),
                    (
                        "router.sa_global_arbitrations",
                        c.sa_global_arbitrations as f64,
                    ),
                    ("router.vc_allocations", c.vc_allocations as f64),
                    ("router.buffer_writes", c.buffer_writes as f64),
                    ("router.crossbar_traversals", c.crossbar_traversals as f64),
                    ("router.multicast_forks", c.multicast_forks as f64),
                    ("router.route_computations", c.route_computations as f64),
                    ("router.bypass_fraction", r.bypass_fraction),
                    ("sim.link_traversals", c.link_traversals as f64),
                    ("sim.local_link_traversals", c.local_link_traversals as f64),
                    ("sim.credits_sent", c.credits_sent as f64),
                    ("sim.lookaheads_sent", c.lookaheads_sent as f64),
                    ("partition.load_max_over_mean", max_load / mean_load),
                    ("traffic.injected_packets", open.injected_packets as f64),
                ]);
            }
            // `ClosedLoop` exposes no network: no router, link or power
            // figures.
            Outcome::Serving(serving) => {
                let r = &serving.result;
                let issued = traces[0].measured_issued;
                let undrained = issued - r.measured_requests;
                values.extend([
                    ("model.latency_mean_cycles", r.rtt_mean_cycles),
                    ("model.latency_p50_cycles", r.rtt_p50_cycles),
                    ("model.latency_p99_cycles", r.rtt_p99_cycles),
                    ("network.undrained_packets", undrained as f64),
                    ("network.failed_share", undrained as f64 / issued as f64),
                    ("router.bypass_fraction", r.bypass_fraction),
                    ("serving.requests_issued", r.requests_issued as f64),
                    ("serving.replies_completed", r.replies_completed as f64),
                    (
                        "serving.peak_outstanding",
                        f64::from(serving.peak_outstanding),
                    ),
                    ("serving.completed_per_cycle", r.completed_per_cycle),
                ]);
            }
        }
        values
    }
}

impl Window {
    fn into_report(
        self,
        mut check_failures: Vec<String>,
        values: BTreeMap<&'static str, f64>,
    ) -> RunReport {
        for (name, value) in &values {
            if !value.is_finite() {
                check_failures.push(format!("metric {name} is not finite: {value}"));
            }
        }
        RunReport {
            attempted: self.attempted(),
            failed: self.failed,
            digest: self.first().map_or(0, Outcome::digest),
            check_failures,
            values,
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn read_peak_rss_mb() -> Result<f64, Box<dyn Error>> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS needs VmHWM in /proc/self/status (Linux)".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    /// Two runs of every workload agree exactly on every deterministic
    /// metric and on the digest, and pass every check.
    #[test]
    fn deterministic_values_repeat_across_runs() {
        for workload in Workload::ALL {
            let bench = Bench::new(workload, 1).expect("workload configuration is valid");
            for (defs, run) in [
                (END_TO_END, Bench::untraced as fn(&Bench, Duration) -> _),
                (PER_LAYER, Bench::traced),
            ] {
                let first = run(&bench, Duration::ZERO).expect("run succeeds");
                let second = run(&bench, Duration::ZERO).expect("run succeeds");
                for report in [&first, &second] {
                    assert!(
                        report.check_failures.is_empty(),
                        "{:?}",
                        report.check_failures
                    );
                }
                assert_eq!(first.digest, second.digest, "{}", workload.name());
                for metric in defs.iter().filter(|m| m.deterministic) {
                    assert_eq!(
                        first.values[metric.name].to_bits(),
                        second.values[metric.name].to_bits(),
                        "{} on {}",
                        metric.name,
                        workload.name()
                    );
                }
            }
        }
    }

    #[test]
    fn known_truncation_shows_only_past_saturation() {
        let share = |workload| {
            let bench = Bench::new(workload, 1).expect("workload configuration is valid");
            bench.untraced(Duration::ZERO).expect("run succeeds").values["delivered_share"]
        };
        assert!(share(Workload::Mesh16Saturated) < 1.0);
        assert_eq!(share(Workload::Mesh8Lowload), 1.0);
        assert_eq!(share(Workload::Chip4Serving), 1.0);
    }
}
