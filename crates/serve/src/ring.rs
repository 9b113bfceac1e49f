//! The bounded, sharded ring behind `/v1/traces` ([`crate::spans`]).
//!
//! A fixed number of mutex-guarded shards — writers pick one by thread
//! id, so concurrent transport handlers rarely contend — each a
//! bounded ring that evicts its oldest entry
//! when full. Eviction is **counted, not hidden**. Reads merge the
//! shards in record order: a global atomic sequence number orders
//! entries across shards. The shard mutexes are leaf locks: nothing is
//! acquired while one is held.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Shards (independent rings) a ring's capacity is split across.
const SHARDS: usize = 8;

/// A ring of `T`s, each stored beside the sequence number it was
/// recorded under.
pub(crate) struct ShardedRing<T> {
    start: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    per_shard: usize,
    shards: Vec<Mutex<VecDeque<(u64, T)>>>,
}

impl<T> ShardedRing<T> {
    /// A ring retaining `capacity` entries in total across its shards.
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity / SHARDS;
        Self {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            per_shard,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                .collect(),
        }
    }

    /// Seconds since the ring (= server) was created.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records the entry `make(seq, at_s)` builds from its global
    /// sequence number and the seconds since the ring was created, into
    /// the calling thread's shard, evicting the shard's oldest entry
    /// when full.
    pub fn record(&self, make: impl FnOnce(u64, f64) -> T) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let entry = make(seq, self.uptime_s());
        let shard_idx = {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            (h.finish() as usize) % self.shards.len().max(1)
        };
        if let Some(shard) = self.shards.get(shard_idx) {
            let mut ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            if ring.len() >= self.per_shard {
                ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            ring.push_back((seq, entry));
        }
    }

    /// Drains every shard and returns the entries in record order.
    pub fn take(&self) -> Vec<T> {
        let mut entries: Vec<(u64, T)> = Vec::new();
        for shard in &self.shards {
            let mut ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            entries.extend(ring.drain(..));
        }
        in_record_order(entries)
    }

    /// Copies every shard's entries in record order **without draining**
    /// — the `?peek=1` read for scraping tools, which must not race a
    /// human draining the ring.
    pub fn peek(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut entries: Vec<(u64, T)> = Vec::new();
        for shard in &self.shards {
            let ring = shard.lock().unwrap_or_else(PoisonError::into_inner);
            entries.extend(ring.iter().cloned());
        }
        in_record_order(entries)
    }

    /// Entries evicted before being drained (ring saturation), since
    /// the ring was created.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

fn in_record_order<T>(mut entries: Vec<(u64, T)>) -> Vec<T> {
    entries.sort_by_key(|(seq, _)| *seq);
    entries.into_iter().map(|(_, entry)| entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_peeks_without_draining_and_counts_evictions() {
        // The payload is `(seq, the writer's own counter)`.
        let r = ShardedRing::<(u64, usize)>::new(64);
        // All from one thread → one shard → its ring bounds the run.
        let per_shard = 64 / SHARDS;
        for i in 0..per_shard + 5 {
            r.record(|seq, _| (seq, i));
        }
        let peeked = r.peek();
        assert_eq!(peeked.len(), per_shard);
        assert_eq!(r.dropped(), 5);
        assert!(peeked.windows(2).all(|w| w[0].0 < w[1].0));
        // The oldest 5 were evicted, the newest survive; a second peek
        // sees the same entries and a take still drains them.
        assert_eq!(peeked.first().map(|e| e.1), Some(5));
        assert_eq!(peeked.last().map(|e| e.1), Some(per_shard + 4));
        assert_eq!(r.peek(), peeked);
        assert_eq!(r.take(), peeked);
        assert!(r.take().is_empty(), "take drains");
        assert!(r.peek().is_empty());
    }

    #[test]
    fn concurrent_writers_keep_global_order_consistent() {
        let r = std::sync::Arc::new(ShardedRing::<(u64, usize)>::new(2048));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        r.record(|seq, _| (seq, t * 1000 + i));
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
