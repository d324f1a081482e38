//! Arbiters used by the separable switch allocator.
//!
//! The chip uses a round-robin circuit for the first allocation stage
//! (mSA-I: each input port picks one of its VCs' output-port requests) and a
//! matrix arbiter for the second stage (mSA-II: each output port grants the
//! crossbar to one input port). Both are starvation-free.
//!
//! Requests are `u32` bitmask words ([`RoundRobinArbiter::arbitrate_mask`],
//! [`MatrixArbiter::arbitrate_mask`]): bit `i` asserts requestor `i`,
//! mirroring the chip where request vectors are hardware bit-vectors (5-bit
//! port requests into mSA-II, 6-bit VC requests into mSA-I).

/// Largest number of requestors the `u32` mask fast path supports.
const MASK_BITS: usize = u32::BITS as usize;

/// The mask of valid requestor bits for an arbiter of `size` requestors
/// (`size` is between 1 and [`MASK_BITS`], enforced at construction).
fn valid_mask(size: usize) -> u32 {
    if size == MASK_BITS {
        u32::MAX
    } else {
        (1u32 << size) - 1
    }
}

/// A round-robin arbiter over `n` requestors.
///
/// The winner of each arbitration becomes the *lowest* priority for the next
/// one, guaranteeing fairness and starvation freedom.
///
/// # Examples
///
/// ```
/// use noc_router::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(4);
/// assert_eq!(arb.arbitrate_mask(0b0101), Some(0));
/// // 0 just won, so 2 now has priority.
/// assert_eq!(arb.arbitrate_mask(0b0101), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    size: usize,
    /// Index with the highest priority in the next arbitration.
    next_priority: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` requestors.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `size > 32` (request vectors are `u32` words
    /// internally; the chip's are 5 and 6 bits wide).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one requestor");
        assert!(
            size <= MASK_BITS,
            "arbiter request vectors are u32 words ({size} > {MASK_BITS})"
        );
        Self {
            size,
            next_priority: 0,
        }
    }

    /// Number of requestors.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Restores the arbiter to its post-construction state (requestor 0 has
    /// the highest priority), as part of a warm network reset.
    pub fn reset(&mut self) {
        self.next_priority = 0;
    }

    /// Picks a winner among the asserted requests, or `None` when no request
    /// is asserted: bit `i` of `requests` asserts requestor `i`, and bits at
    /// or above [`size`](Self::size) are ignored. The winner drops to the
    /// lowest priority.
    ///
    /// This is the hot-path form: the rotating-priority scan collapses into
    /// two masks and a `trailing_zeros`, the word-wide analogue of the
    /// chip's one-hot rotate-and-pick circuit.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_router::RoundRobinArbiter;
    ///
    /// let mut arb = RoundRobinArbiter::new(4);
    /// assert_eq!(arb.arbitrate_mask(0b0101), Some(0));
    /// // 0 just won, so the scan now starts at 1 and finds 2.
    /// assert_eq!(arb.arbitrate_mask(0b0101), Some(2));
    /// assert_eq!(arb.arbitrate_mask(0), None);
    /// ```
    pub fn arbitrate_mask(&mut self, requests: u32) -> Option<usize> {
        let winner = self.peek_mask(requests)?;
        self.next_priority = (winner + 1) % self.size;
        Some(winner)
    }

    /// Peeks at the winner of [`arbitrate_mask`](Self::arbitrate_mask)
    /// without updating the priority pointer.
    #[must_use]
    pub fn peek_mask(&self, requests: u32) -> Option<usize> {
        let requests = requests & valid_mask(self.size);
        if requests == 0 {
            return None;
        }
        // Requests at or above the priority pointer win first; only when
        // none is asserted does the scan wrap around to the low indices.
        let unwrapped = requests & (u32::MAX << self.next_priority);
        let winner = if unwrapped != 0 {
            unwrapped.trailing_zeros()
        } else {
            requests.trailing_zeros()
        };
        Some(winner as usize)
    }
}

/// A matrix arbiter over `n` requestors (least-recently-served priority).
///
/// Row `i` of the precedence matrix is stored as a bitmask of the requestors
/// `i` currently beats. After `i` wins, every other requestor gains priority
/// over `i` (row `i` clears, column `i` sets). This is the arbiter the chip
/// instantiates at each output port for mSA-II.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixArbiter {
    size: usize,
    /// `rows[i]` bit `j` set means requestor `i` beats requestor `j`.
    rows: Vec<u32>,
}

impl MatrixArbiter {
    /// Creates a matrix arbiter over `size` requestors with an initial
    /// priority ordering 0 > 1 > … > n-1.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or `size > 32` (request vectors are `u32` words
    /// internally).
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one requestor");
        assert!(
            size <= MASK_BITS,
            "arbiter request vectors are u32 words ({size} > {MASK_BITS})"
        );
        let mut arb = Self {
            size,
            rows: vec![0; size],
        };
        arb.reset();
        arb
    }

    /// Number of requestors.
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Restores the initial priority ordering 0 > 1 > … > n-1, as part of a
    /// warm network reset.
    pub fn reset(&mut self) {
        let valid = valid_mask(self.size);
        for (i, row) in self.rows.iter_mut().enumerate() {
            // Row i beats everything with a larger index (the last row beats
            // nobody — the shift would overflow the word).
            *row = valid & u32::MAX.checked_shl(i as u32 + 1).unwrap_or(0);
        }
    }

    /// Picks the requestor that beats all other asserted requestors, updating
    /// the priority matrix so the winner drops to lowest priority: bit `i` of
    /// `requests` asserts requestor `i`, and bits at or above
    /// [`size`](Self::size) are ignored.
    ///
    /// The winner test is one word comparison per asserted requestor
    /// (`requests ⊆ row[i] ∪ {i}`), and the priority update is a row clear
    /// plus a column set — exactly the flip-flop matrix of the hardware.
    ///
    /// # Examples
    ///
    /// ```
    /// use noc_router::MatrixArbiter;
    ///
    /// let mut arb = MatrixArbiter::new(5);
    /// // Initial priority is index order...
    /// assert_eq!(arb.arbitrate_mask(0b11010), Some(1));
    /// // ...and a winner drops below everyone else.
    /// assert_eq!(arb.arbitrate_mask(0b11010), Some(3));
    /// assert_eq!(arb.arbitrate_mask(0b00000), None);
    /// ```
    pub fn arbitrate_mask(&mut self, requests: u32) -> Option<usize> {
        let winner = self.peek_mask(requests)?;
        // Winner loses priority against everyone else: clear its row, set
        // its column.
        self.rows[winner] = 0;
        let column = 1u32 << winner;
        for (j, row) in self.rows.iter_mut().enumerate() {
            if j != winner {
                *row |= column;
            }
        }
        Some(winner)
    }

    /// Peeks at the winner of [`arbitrate_mask`](Self::arbitrate_mask)
    /// without updating the priority matrix.
    #[must_use]
    pub fn peek_mask(&self, requests: u32) -> Option<usize> {
        let valid = valid_mask(self.size);
        let mut remaining = requests & valid;
        while remaining != 0 {
            let i = remaining.trailing_zeros() as usize;
            // i wins when every other asserted requestor is one it beats.
            if (requests & valid) & !self.rows[i] & !(1u32 << i) == 0 {
                return Some(i);
            }
            remaining &= remaining - 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_rotates_priority() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = 0b111;
        assert_eq!(arb.arbitrate_mask(all), Some(0));
        assert_eq!(arb.arbitrate_mask(all), Some(1));
        assert_eq!(arb.arbitrate_mask(all), Some(2));
        assert_eq!(arb.arbitrate_mask(all), Some(0));
    }

    #[test]
    fn round_robin_skips_idle_requestors() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate_mask(0b0100), Some(2));
        assert_eq!(arb.arbitrate_mask(0b0001), Some(0));
        assert_eq!(arb.arbitrate_mask(0), None);
    }

    #[test]
    fn round_robin_is_starvation_free() {
        let mut arb = RoundRobinArbiter::new(4);
        let mut wins = [0u32; 4];
        for _ in 0..400 {
            let w = arb.arbitrate_mask(0b1111).unwrap();
            wins[w] += 1;
        }
        assert!(wins.iter().all(|&w| w == 100), "wins = {wins:?}");
    }

    #[test]
    fn peek_does_not_change_state() {
        let arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.peek_mask(0b10), Some(1));
        assert_eq!(arb.peek_mask(0b10), Some(1));
    }

    #[test]
    fn round_robin_mask_ignores_out_of_range_bits() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate_mask(0xFFFF_FFF0), None);
        assert_eq!(arb.arbitrate_mask(0xFFFF_FFF4), Some(2));
    }

    #[test]
    fn full_width_round_robin_works() {
        let mut arb = RoundRobinArbiter::new(32);
        assert_eq!(arb.arbitrate_mask(u32::MAX), Some(0));
        assert_eq!(arb.arbitrate_mask(u32::MAX), Some(1));
        assert_eq!(arb.arbitrate_mask(1 << 31), Some(31));
        assert_eq!(arb.arbitrate_mask(u32::MAX), Some(0), "wraps past the top");
    }

    #[test]
    fn arbiter_reset_restores_initial_priority() {
        let mut rr = RoundRobinArbiter::new(4);
        rr.arbitrate_mask(0b1111);
        rr.reset();
        assert_eq!(rr, RoundRobinArbiter::new(4));
        let mut matrix = MatrixArbiter::new(5);
        matrix.arbitrate_mask(0b11111);
        matrix.arbitrate_mask(0b11111);
        matrix.reset();
        assert_eq!(matrix, MatrixArbiter::new(5));
    }

    #[test]
    fn matrix_initial_priority_is_index_order() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.arbitrate_mask(0b111), Some(0));
    }

    #[test]
    fn matrix_winner_drops_to_lowest_priority() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.arbitrate_mask(0b111), Some(0));
        assert_eq!(arb.arbitrate_mask(0b111), Some(1));
        assert_eq!(arb.arbitrate_mask(0b111), Some(2));
        assert_eq!(arb.arbitrate_mask(0b111), Some(0));
    }

    #[test]
    fn matrix_is_fair_under_sustained_load() {
        let mut arb = MatrixArbiter::new(5);
        let mut wins = [0u32; 5];
        for _ in 0..500 {
            let w = arb.arbitrate_mask(0b1_1111).unwrap();
            wins[w] += 1;
        }
        assert!(wins.iter().all(|&w| w == 100), "wins = {wins:?}");
    }

    #[test]
    fn matrix_handles_single_and_no_request() {
        let mut arb = MatrixArbiter::new(4);
        assert_eq!(arb.arbitrate_mask(0b1000), Some(3));
        assert_eq!(arb.arbitrate_mask(0), None);
    }

    #[test]
    fn matrix_mask_ignores_out_of_range_bits() {
        let mut arb = MatrixArbiter::new(4);
        assert_eq!(arb.arbitrate_mask(0xFFFF_FFF0), None);
        assert_eq!(arb.arbitrate_mask(0xFFFF_FFF8), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_size_panics() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "u32 words")]
    fn oversized_arbiter_panics() {
        let _ = MatrixArbiter::new(33);
    }
}
