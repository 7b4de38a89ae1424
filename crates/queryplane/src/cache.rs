//! The epoch-keyed pointer cache.
//!
//! Pointer retrieval is the dominant fixed term of a query's modelled
//! latency (≈ 7.5 ms for a single switch — `CostModel::pointer_retrieval`).
//! Debugging traffic is bursty and repetitive: when an incident fires,
//! many queries interrogate the *same* switches over the *same* epoch
//! window. The pricing model therefore keeps an LRU cache keyed by
//! `(switch, epoch_lo, epoch_hi)`; a round whose keys are all resident is
//! charged `CostModel::pointer_cache_hit` instead of a retrieval round.
//!
//! The cache belongs to whoever prices a batch: [`crate::price_batch`]
//! consults it per retrieval round, in query submission order — never
//! from worker threads — so hit and miss counts are a pure function of
//! the submitted query sequence, no matter how many workers executed the
//! batch.

use std::collections::{BTreeMap, HashMap};

use netsim::packet::NodeId;
use telemetry::EpochRange;

/// Cache key: one switch's pointer union over one epoch window.
pub type PointerKey = (NodeId, u64, u64);

/// Builds the canonical key for a `(switch, range)` pull.
pub fn key_of(switch: NodeId, range: EpochRange) -> PointerKey {
    (switch, range.lo, range.hi)
}

/// LRU set of recently retrieved pointer keys. Recency is a dual index —
/// `entries` maps key → last-use stamp and `by_stamp` maps stamp → key
/// (stamps are unique, so no ties) — making both lookup and eviction
/// O(log n) rather than a full scan per miss.
#[derive(Debug)]
pub struct PointerCache {
    capacity: usize,
    /// key -> last-use stamp.
    entries: HashMap<PointerKey, u64>,
    /// last-use stamp -> key; the first entry is the LRU victim.
    by_stamp: BTreeMap<u64, PointerKey>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PointerCache {
    pub fn new(capacity: usize) -> Self {
        PointerCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks `key` up, refreshing recency; on a miss, inserts it (evicting
    /// the least recently used entry if full). Returns `true` on a hit.
    pub fn touch(&mut self, key: PointerKey) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.entries.get_mut(&key) {
            self.by_stamp.remove(stamp);
            *stamp = self.clock;
            self.by_stamp.insert(self.clock, key);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            if let Some((&oldest, &victim)) = self.by_stamp.first_key_value() {
                self.by_stamp.remove(&oldest);
                self.entries.remove(&victim);
                self.evictions += 1;
            }
        }
        self.entries.insert(key, self.clock);
        self.by_stamp.insert(self.clock, key);
        false
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u32) -> PointerKey {
        (NodeId(n), 0, 5)
    }

    #[test]
    fn hit_after_miss() {
        let mut c = PointerCache::new(4);
        assert!(!c.touch(k(1)));
        assert!(c.touch(k(1)));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn distinct_ranges_are_distinct_keys() {
        let mut c = PointerCache::new(4);
        c.touch((NodeId(1), 0, 5));
        assert!(!c.touch((NodeId(1), 0, 6)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PointerCache::new(2);
        c.touch(k(1));
        c.touch(k(2));
        c.touch(k(1)); // refresh 1 ⇒ 2 is now LRU
        c.touch(k(3)); // evicts 2
        assert!(c.touch(k(1)), "1 was refreshed and must survive");
        assert!(!c.touch(k(2)), "2 was evicted");
        assert_eq!(c.evictions(), 2); // k3 evicted k2; k2's re-insert evicted one more
    }

    #[test]
    fn capacity_bounds_residency() {
        let mut c = PointerCache::new(8);
        for i in 0..100 {
            c.touch(k(i));
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.evictions(), 92);
    }
}
