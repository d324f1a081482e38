//! Metric names, units and directions, and the result line.
//!
//! The two tables below are the benchmark's contract with `BENCHMARK.json`;
//! the `names_match_benchmark_json` test keeps them identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// `true` when the value is a pure function of workload and seed (a
    /// simulated statistic or work count), so it repeats exactly.
    pub deterministic: bool,
}

const fn def(name: &'static str, unit: &'static str, higher: bool, det: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        deterministic: det,
    }
}

const UP: bool = true;
const DOWN: bool = false;
const EXACT: bool = true;
const TIMED: bool = false;

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    def("sim_cycles_per_s", "cycles/s", UP, TIMED),
    def("packets_per_s", "packets/s", UP, TIMED),
    def("setup_s", "s", DOWN, TIMED),
    def("peak_rss_mb", "MB", DOWN, TIMED),
    def("delivered_share", "share", UP, EXACT),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("simulation.warmup_s", "s", DOWN, TIMED),
    def("simulation.measure_s", "s", DOWN, TIMED),
    def("simulation.drain_s", "s", DOWN, TIMED),
    def("simulation.drain_cycles", "cycles", DOWN, EXACT),
    def("network.drain_step_ns_p50", "ns", DOWN, TIMED),
    def("network.drain_step_ns_p99", "ns", DOWN, TIMED),
    def("network.drain_poll_s", "s", DOWN, TIMED),
    def("network.drain_poll_share", "share", DOWN, TIMED),
    def("network.undrained_packets", "count", DOWN, EXACT),
    def("network.failed_share", "share", DOWN, EXACT),
    def("network.in_flight_flits_end", "count", DOWN, EXACT),
    def("network.inject_step_ns_p50", "ns", DOWN, TIMED),
    def("network.inject_step_ns_p99", "ns", DOWN, TIMED),
    def("network.host_ns_per_flit_hop", "ns", DOWN, TIMED),
    def("network.new_s", "s", DOWN, TIMED),
    def("network.reset_s", "s", DOWN, TIMED),
    def("router.sa_local_arbitrations", "count", DOWN, EXACT),
    def("router.sa_global_arbitrations", "count", DOWN, EXACT),
    def("router.vc_allocations", "count", DOWN, EXACT),
    def("router.buffer_writes", "count", DOWN, EXACT),
    def("router.crossbar_traversals", "count", DOWN, EXACT),
    def("router.multicast_forks", "count", DOWN, EXACT),
    def("router.route_computations", "count", DOWN, EXACT),
    def("router.bypass_fraction", "share", UP, EXACT),
    def("sim.link_traversals", "count", DOWN, EXACT),
    def("sim.local_link_traversals", "count", DOWN, EXACT),
    def("sim.credits_sent", "count", DOWN, EXACT),
    def("sim.lookaheads_sent", "count", DOWN, EXACT),
    def("partition.serial_ref_cycles_per_s", "cycles/s", UP, TIMED),
    def("partition.speedup_vs_serial", "ratio", UP, TIMED),
    def("partition.load_max_over_mean", "ratio", DOWN, EXACT),
    def("serving.cycle_ns_p50", "ns", DOWN, TIMED),
    def("serving.cycle_ns_p99", "ns", DOWN, TIMED),
    def("serving.requests_issued", "count", UP, EXACT),
    def("serving.replies_completed", "count", UP, EXACT),
    def("serving.peak_outstanding", "count", DOWN, EXACT),
    def("serving.completed_per_cycle", "1/cycle", UP, EXACT),
    def("traffic.injected_packets", "count", UP, EXACT),
    def("power.price_us", "us", DOWN, TIMED),
    def("model.latency_mean_cycles", "cycles", DOWN, EXACT),
    def("model.latency_p50_cycles", "cycles", DOWN, EXACT),
    def("model.latency_p99_cycles", "cycles", DOWN, EXACT),
    def("model.received_gbps", "Gb/s", UP, EXACT),
    def("model.limit_fraction", "share", UP, EXACT),
    def("model.total_mw", "mW", DOWN, EXACT),
    def("trace.overhead_share", "share", DOWN, TIMED),
];

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-quantile of `samples` (0 when empty).
pub fn percentile(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `defs`, in table order, with its unit.
///
/// # Panics
///
/// Panics when `values` lacks a metric of `defs`: every table entry must be
/// measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> String {
    let mut line = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (index, metric) in defs.iter().enumerate() {
        let value = values
            .get(metric.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", metric.name));
        let separator = if index == 0 { "" } else { ", " };
        write!(
            line,
            r#"{separator}"{}": {{"value": {value:?}, "unit": "{}"}}"#,
            metric.name, metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    /// A minimal JSON reader, enough for `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Str(String),
        Num(f64),
        Bool(bool),
        List(Vec<Json>),
        Object(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            let Json::Object(fields) = self else {
                panic!("{self:?} is not an object")
            };
            &fields
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("missing key {key}"))
                .1
        }

        fn str(&self) -> &str {
            let Json::Str(s) = self else {
                panic!("{self:?} is not a string")
            };
            s
        }

        fn list(&self) -> &[Json] {
            let Json::List(items) = self else {
                panic!("{self:?} is not a list")
            };
            items
        }
    }

    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut at = 0;
        let value = parse_value(bytes, &mut at);
        skip_space(bytes, &mut at);
        assert_eq!(at, bytes.len(), "trailing input");
        value
    }

    fn skip_space(bytes: &[u8], at: &mut usize) {
        while *at < bytes.len() && bytes[*at].is_ascii_whitespace() {
            *at += 1;
        }
    }

    fn expect(bytes: &[u8], at: &mut usize, byte: u8) {
        skip_space(bytes, at);
        assert_eq!(bytes[*at], byte, "expected {:?} at {}", byte as char, at);
        *at += 1;
    }

    fn parse_value(bytes: &[u8], at: &mut usize) -> Json {
        skip_space(bytes, at);
        match bytes[*at] {
            b'"' => {
                let start = *at + 1;
                let end = start + bytes[start..].iter().position(|&b| b == b'"').unwrap();
                *at = end + 1;
                Json::Str(String::from_utf8(bytes[start..end].to_vec()).unwrap())
            }
            b'[' | b'{' => {
                let object = bytes[*at] == b'{';
                let close = if object { b'}' } else { b']' };
                *at += 1;
                let mut items = Vec::new();
                let mut fields = Vec::new();
                loop {
                    skip_space(bytes, at);
                    if bytes[*at] == close {
                        *at += 1;
                        break;
                    }
                    if !items.is_empty() || !fields.is_empty() {
                        expect(bytes, at, b',');
                    }
                    if object {
                        let Json::Str(key) = parse_value(bytes, at) else {
                            panic!("object keys are strings")
                        };
                        expect(bytes, at, b':');
                        fields.push((key, parse_value(bytes, at)));
                    } else {
                        items.push(parse_value(bytes, at));
                    }
                }
                if object {
                    Json::Object(fields)
                } else {
                    Json::List(items)
                }
            }
            b't' | b'f' => {
                let value = bytes[*at] == b't';
                *at += if value { 4 } else { 5 };
                Json::Bool(value)
            }
            _ => {
                let start = *at;
                while *at < bytes.len() && b"+-.0123456789eE".contains(&bytes[*at]) {
                    *at += 1;
                }
                Json::Num(
                    std::str::from_utf8(&bytes[start..*at])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json sits next to nocbench/"))
    }

    #[test]
    fn names_match_benchmark_json() {
        let json = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = json
                .get(key)
                .list()
                .iter()
                .map(|m| {
                    (
                        m.get("name").str().to_owned(),
                        m.get("unit").str().to_owned(),
                        m.get("better").str().to_owned(),
                    )
                })
                .collect();
            let printed: Vec<(String, String, String)> = table
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (m.name.to_owned(), m.unit.to_owned(), better.to_owned())
                })
                .collect();
            assert_eq!(listed, printed, "{key} differs from BENCHMARK.json");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .list()
            .iter()
            .map(|w| w.get("name").str())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values = END_TO_END.iter().map(|m| (m.name, 0.25)).collect();
        let line = result_line(true, 3, 0, END_TO_END, &values);
        let json = parse(&line);
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted"), &Json::Num(3.0));
        let Json::Object(metrics) = json.get("metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(json.get("metrics").get("setup_s").get("unit").str(), "s");
    }

    #[test]
    fn quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
    }
}
