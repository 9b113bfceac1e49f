//! The bounded ring behind `/v1/traces` ([`crate::spans`]).
//!
//! One mutex-guarded FIFO of up to `capacity` entries that evicts its
//! oldest entry when full. Eviction is **counted, not hidden**. Each
//! entry is built under the lock from the next sequence number, so the
//! ring is in record order by construction. Only transport handlers
//! write, and only for kept traces (errored, slow or sampled), so the
//! one lock sees little contention. The mutex is a leaf lock: nothing is
//! acquired while it is held.

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// A bounded FIFO of `T`s with its sequence and eviction counters.
pub(crate) struct Ring<T> {
    capacity: usize,
    state: Mutex<RingState<T>>,
}

struct RingState<T> {
    entries: VecDeque<T>,
    /// The sequence number the next entry is recorded under.
    next_seq: u64,
    /// Entries evicted before being drained.
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring retaining up to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(RingState {
                entries: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    /// Records the entry `make(seq)` builds from its sequence number,
    /// evicting the oldest entry when the ring is full.
    pub fn record(&self, make: impl FnOnce(u64) -> T) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.entries.len() >= self.capacity && state.entries.pop_front().is_some() {
            state.dropped += 1;
        }
        state.entries.push_back(make(seq));
    }

    /// Drains the ring and returns its entries in record order.
    pub fn take(&self) -> Vec<T> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.entries.drain(..).collect()
    }

    /// Copies the entries in record order **without draining** — the
    /// `?peek=1` read for scraping tools, which must not race a human
    /// draining the ring.
    pub fn peek(&self) -> Vec<T>
    where
        T: Clone,
    {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.entries.iter().cloned().collect()
    }

    /// Entries evicted before being drained (ring saturation), since
    /// the ring was created.
    pub fn dropped(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_peeks_without_draining_and_counts_evictions() {
        // The payload is `(seq, the writer's own counter)`.
        let capacity = 64;
        let r = Ring::<(u64, usize)>::new(capacity);
        // One writer thread fills the whole ring, then evicts its
        // oldest five.
        for i in 0..capacity + 5 {
            r.record(|seq| (seq, i));
        }
        let peeked = r.peek();
        assert_eq!(peeked.len(), capacity);
        assert_eq!(r.dropped(), 5);
        assert!(peeked.windows(2).all(|w| w[0].0 < w[1].0));
        // The oldest 5 were evicted, the newest survive; a second peek
        // sees the same entries and a take still drains them.
        assert_eq!(peeked.first().map(|e| e.1), Some(5));
        assert_eq!(peeked.last().map(|e| e.1), Some(capacity + 4));
        assert_eq!(r.peek(), peeked);
        assert_eq!(r.take(), peeked);
        assert!(r.take().is_empty(), "take drains");
        assert!(r.peek().is_empty());
    }

    #[test]
    fn concurrent_writers_keep_global_order_consistent() {
        let r = std::sync::Arc::new(Ring::<(u64, usize)>::new(2048));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        r.record(|seq| (seq, t * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer");
        }
        let entries = r.take();
        assert_eq!(entries.len() as u64 + r.dropped(), 200);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
