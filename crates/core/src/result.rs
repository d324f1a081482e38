//! Results of one simulation run.

use noc_power::{EnergyParams, PowerBreakdown};
use noc_sim::ActivityCounters;

/// Everything measured during one simulation at a fixed injection rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationResult {
    /// Offered flit injection rate per node per cycle.
    pub injection_rate: f64,
    /// Average end-to-end packet latency in cycles (creation at the source
    /// NIC to reception of the tail flit at the last destination NIC).
    pub average_latency_cycles: f64,
    /// Median (50th-percentile) packet latency in cycles.
    pub p50_latency_cycles: f64,
    /// 95th-percentile packet latency in cycles.
    pub p95_latency_cycles: f64,
    /// 99th-percentile packet latency in cycles.
    pub p99_latency_cycles: f64,
    /// Number of packets whose latency was measured.
    pub measured_packets: u64,
    /// Network-wide received throughput in flits per cycle.
    pub received_flits_per_cycle: f64,
    /// Received throughput in Gb/s at the configured flit width and clock.
    pub received_gbps: f64,
    /// Flits injected during the measurement window.
    pub injected_flits: u64,
    /// Cycles in the measurement window.
    pub measured_cycles: u64,
    /// Fraction of router-to-router hops that used the bypass path.
    pub bypass_fraction: f64,
    /// Merged activity counters over the whole run (warmup + measurement +
    /// drain), used for power estimation.
    pub counters: ActivityCounters,
    /// Total cycles simulated (warmup + measurement + drain).
    pub total_cycles: u64,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
}

impl SimulationResult {
    /// Prices the run's activity with the given per-event energies.
    #[must_use]
    pub fn power(&self, energy: &EnergyParams) -> PowerBreakdown {
        PowerBreakdown::from_activity(
            &self.counters,
            self.total_cycles.max(1),
            self.frequency_ghz,
            energy,
        )
    }

    /// Offered load in Gb/s (what the NICs tried to inject network-wide).
    #[must_use]
    pub fn offered_gbps(&self, k: u16, flit_bits: u32) -> f64 {
        self.injection_rate
            * f64::from(k)
            * f64::from(k)
            * f64::from(flit_bits)
            * self.frequency_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_load_formula() {
        let result = SimulationResult {
            injection_rate: 0.25,
            average_latency_cycles: 10.0,
            p50_latency_cycles: 9.0,
            p95_latency_cycles: 15.0,
            p99_latency_cycles: 18.0,
            measured_packets: 100,
            received_flits_per_cycle: 4.0,
            received_gbps: 256.0,
            injected_flits: 1000,
            measured_cycles: 250,
            bypass_fraction: 0.8,
            counters: ActivityCounters::new(),
            total_cycles: 1000,
            frequency_ghz: 1.0,
        };
        // 0.25 flits/node/cycle x 16 nodes x 64 bits x 1 GHz = 256 Gb/s.
        assert!((result.offered_gbps(4, 64) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn power_uses_the_whole_run_window() {
        let mut counters = ActivityCounters::new();
        counters.routers = 16;
        counters.crossbar_traversals = 1000;
        let result = SimulationResult {
            injection_rate: 0.1,
            average_latency_cycles: 8.0,
            p50_latency_cycles: 7.0,
            p95_latency_cycles: 12.0,
            p99_latency_cycles: 14.0,
            measured_packets: 10,
            received_flits_per_cycle: 1.0,
            received_gbps: 64.0,
            injected_flits: 100,
            measured_cycles: 100,
            bypass_fraction: 0.9,
            counters,
            total_cycles: 500,
            frequency_ghz: 1.0,
        };
        let power = result.power(&EnergyParams::chip_low_swing());
        assert!(power.total_mw() > 0.0);
        assert!(power.datapath_mw > 0.0);
    }
}
