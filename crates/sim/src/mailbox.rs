//! Per-edge boundary mailboxes for the partitioned stepper.
//!
//! When a mesh is sharded into spatial partitions, events crossing a
//! partition boundary (flits, lookaheads, credits on the cut links) cannot be
//! scheduled directly into the destination partition's event wheels — the
//! owning worker thread is mutating them. Instead each *directed* partition
//! edge gets a [`BoundaryMailbox`]: the producing worker appends its batch of
//! boundary events once per cycle, and the destination drains the mailbox at
//! the end-of-cycle deterministic merge point.
//!
//! The mailbox is an SPSC queue by protocol rather than by type: within one
//! step phase exactly one worker pushes to a given directed edge and nobody
//! drains it; draining happens strictly after every partition has stepped,
//! in fixed edge order. The `Mutex` inside therefore never contends — it
//! exists to make the type `Sync` so workers can share one slice of
//! mailboxes — and FIFO order is preserved end to end: events drain in
//! exactly the order they were pushed (`tests/properties.rs` pins this
//! no-reorder guarantee).

use std::sync::Mutex;

/// An order-preserving single-producer single-consumer mailbox used to hand
/// boundary events between mesh partitions at the end of each cycle.
///
/// # Examples
///
/// ```
/// use noc_sim::BoundaryMailbox;
///
/// let mailbox = BoundaryMailbox::new();
/// let mut batch = vec![1, 2, 3];
/// mailbox.push_batch(&mut batch);
/// assert!(batch.is_empty(), "the batch buffer is recycled");
///
/// let mut out = Vec::new();
/// mailbox.drain_into(&mut out);
/// assert_eq!(out, [1, 2, 3]);
/// assert!(mailbox.is_empty());
/// ```
#[derive(Debug)]
pub struct BoundaryMailbox<T> {
    queue: Mutex<Vec<T>>,
}

impl<T> Default for BoundaryMailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BoundaryMailbox<T> {
    /// An empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: Mutex::new(Vec::new()),
        }
    }

    /// Appends `batch` to the mailbox in order, leaving `batch` empty (its
    /// capacity is kept, so the producer's scratch buffer is recycled
    /// cycle after cycle). One lock acquisition per call: producers
    /// accumulate a cycle's events locally and push them in a single batch.
    pub fn push_batch(&self, batch: &mut Vec<T>) {
        if batch.is_empty() {
            return;
        }
        self.queue
            .lock()
            .expect("boundary mailbox poisoned")
            .append(batch);
    }

    /// Moves every queued event into `out` (appended in FIFO push order),
    /// leaving the mailbox empty with its capacity intact.
    pub fn drain_into(&self, out: &mut Vec<T>) {
        out.append(&mut self.queue.lock().expect("boundary mailbox poisoned"));
    }

    /// Returns `true` when no event is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue
            .lock()
            .expect("boundary mailbox poisoned")
            .is_empty()
    }

    /// Number of queued events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.lock().expect("boundary mailbox poisoned").len()
    }
}

impl<T: Clone> Clone for BoundaryMailbox<T> {
    fn clone(&self) -> Self {
        Self {
            queue: Mutex::new(
                self.queue
                    .lock()
                    .expect("boundary mailbox poisoned")
                    .clone(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_drain_in_push_order() {
        let mailbox = BoundaryMailbox::new();
        let mut a = vec![1, 2];
        let mut b = vec![3];
        mailbox.push_batch(&mut a);
        mailbox.push_batch(&mut b);
        assert_eq!(mailbox.len(), 3);
        let mut out = Vec::new();
        mailbox.drain_into(&mut out);
        assert_eq!(out, [1, 2, 3]);
        assert!(mailbox.is_empty());
    }

    #[test]
    fn batch_buffers_are_recycled_not_consumed() {
        let mailbox = BoundaryMailbox::new();
        let mut batch = Vec::with_capacity(64);
        batch.extend([7u32, 8]);
        mailbox.push_batch(&mut batch);
        assert!(batch.is_empty());
        assert!(batch.capacity() >= 64, "producer scratch keeps its storage");
    }

    #[test]
    fn empty_pushes_skip_the_lock_path_observably() {
        let mailbox: BoundaryMailbox<u8> = BoundaryMailbox::new();
        let mut empty = Vec::new();
        mailbox.push_batch(&mut empty);
        assert!(mailbox.is_empty());
        assert_eq!(mailbox.len(), 0);
    }

    #[test]
    fn mailboxes_are_shareable_across_threads() {
        let mailbox: BoundaryMailbox<usize> = BoundaryMailbox::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut batch = (0..100).collect();
                mailbox.push_batch(&mut batch);
            });
        });
        let mut out = Vec::new();
        mailbox.drain_into(&mut out);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }
}
