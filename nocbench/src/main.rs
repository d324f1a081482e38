//! The repository's benchmark: runs one workload through the simulator's
//! public API, checks its outputs and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path nocbench/Cargo.toml -- \
//!     --workload mesh16_saturated --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See README.md.

mod bench;
mod metrics;
mod workload;

use std::process::{Command, ExitCode};
use std::time::Duration;

use bench::Bench;
use metrics::{result_line, END_TO_END, PER_LAYER};
use workload::Workload;

/// Seed used while the benchmark was tuned.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: nocbench --workload <mesh16_saturated|mesh8_lowload|chip4_serving> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host and build facts printed with every result, so a host change shows
/// next to the numbers.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    // `GIT_DIR` keeps git from searching parent directories.
    let git = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "not a git checkout".to_owned(), |d| d.trim().to_owned());
    let threads = args.workload.step_threads();
    let serial = if args.trace && threads > 1 {
        ", serial reference 1"
    } else {
        ""
    };
    format!(
        "provenance: workload={} seed={} seconds={} trace={} step_threads={threads}{serial} \
         nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" git=\"{git}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("NOCBENCH_RUSTC_VERSION"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("nocbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    let budget = Duration::from_secs(args.seconds);
    let report = Bench::new(args.workload, args.seed)
        .map_err(Into::into)
        .and_then(|bench| {
            if args.trace {
                bench.traced(budget)
            } else {
                bench.untraced(budget)
            }
        });
    let report = match report {
        Ok(report) => report,
        Err(error) => {
            eprintln!("nocbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    for metric in defs {
        println!(
            "{:<36} {:>20.6} {}",
            metric.name, report.values[metric.name], metric.unit
        );
    }
    println!("digest: {:016x}", report.digest);
    for failure in &report.check_failures {
        println!("check failed: {failure}");
    }
    println!(
        "{}",
        result_line(
            report.check_failures.is_empty(),
            report.attempted,
            report.failed,
            defs,
            &report.values,
        )
    );
    ExitCode::SUCCESS
}
