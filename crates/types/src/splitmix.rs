//! The workspace's one general-purpose pseudo-random stream.

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit state advanced by
/// the golden-ratio increment and passed through a two-multiply finalizer.
/// Trivially seedable, statistically ample for Monte-Carlo sampling and
/// client draws, and a pure function of its seed — the determinism contract
/// needs nothing more. (The simulated NICs use the chip's own LFSRs, not
/// this.)
///
/// # Examples
///
/// ```
/// use noc_types::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let unit = a.next_unit_f64();
/// assert!((0.0..1.0).contains(&unit));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream whose first output is the finalizer of `seed + 0x9E37…7C15`.
    #[must_use]
    pub const fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next uniform float in `[0, 1)`: the top 53 bits scaled by `2^-53`.
    pub fn next_unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_outputs_match_the_reference_sequence() {
        // Reference values of SplitMix64 seeded with 0 (Vigna's C code).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_unit_f64(), b.next_unit_f64());
        }
    }

    #[test]
    fn f64_range_bounds_hold() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.next_unit_f64()));
        }
    }

    #[test]
    fn f64_mean_is_roughly_centered() {
        let mut rng = SplitMix64::new(2);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_unit_f64()).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
