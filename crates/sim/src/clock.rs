//! The global cycle counter shared by every component of a simulated
//! network (the chip is a single synchronous 1 GHz clock domain, §4).

use noc_types::Cycle;

/// The network clock.
///
/// All routers, links and NICs in a simulation share one clock; a simulation
/// step is "everyone computes with the state visible at cycle `t`, then
/// everyone commits, then the clock ticks to `t + 1`".
///
/// # Examples
///
/// ```
/// use noc_sim::Clock;
///
/// let mut clock = Clock::new();
/// assert_eq!(clock.now(), 0);
/// clock.tick();
/// clock.advance(9);
/// assert_eq!(clock.now(), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Clock {
    now: Cycle,
}

impl Clock {
    /// A clock starting at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Advances the clock by one cycle and returns the new current cycle.
    pub fn tick(&mut self) -> Cycle {
        self.now += 1;
        self.now
    }

    /// Advances the clock by `cycles` cycles.
    pub fn advance(&mut self, cycles: Cycle) {
        self.now += cycles;
    }

    /// Rewinds the clock to cycle zero (warm network reset).
    pub fn reset(&mut self) {
        self.now = 0;
    }

    /// Converts a cycle count into nanoseconds at `frequency_ghz`.
    #[must_use]
    pub fn cycles_to_ns(cycles: Cycle, frequency_ghz: f64) -> f64 {
        cycles as f64 / frequency_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_ticks() {
        let mut c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        c.advance(8);
        assert_eq!(c.now(), 10);
    }

    #[test]
    fn cycle_to_time_conversion() {
        // 1000 cycles at 1 GHz is 1000 ns; at 2 GHz it is 500 ns.
        assert_eq!(Clock::cycles_to_ns(1000, 1.0), 1000.0);
        assert_eq!(Clock::cycles_to_ns(1000, 2.0), 500.0);
    }
}
