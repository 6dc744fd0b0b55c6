//! The Caching Service's LRU sub-table cache.
//!
//! "We choose the cache replacement policy to be LRU, since this is a
//! reasonable policy in many cases and commonly used." Capacity is in
//! *bytes* — the §5.1 memory assumption (`2·c_R + b·c_S` records fit) is a
//! byte budget per compute node.
//!
//! Implemented from scratch: a `HashMap` from key to entry plus a recency
//! index ordered by a monotone tick, giving `O(log n)` touch/evict.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// Named cache counters — replaces the old undocumented
/// `(hits, misses, evictions)` tuple so call sites can't transpose
/// fields silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build/fetch the value.
    pub misses: u64,
    /// Entries displaced to stay within the byte capacity.
    pub evictions: u64,
}

impl CacheStats {
    /// Total lookups: every lookup is either a hit or a miss, so
    /// `hits + misses == lookups()` is the balance invariant the
    /// concurrency harness asserts.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A byte-capacity LRU cache.
pub struct LruCache<K, V> {
    capacity: u64,
    used: u64,
    tick: u64,
    entries: HashMap<K, (V, u64, u64)>, // value, size, last-use tick
    recency: BTreeMap<u64, K>,          // tick → key
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up `key`, refreshing its recency. Records a hit or miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.entries.contains_key(key) {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.touch(key)
    }

    /// Look up `key`, refreshing its recency *without* touching the
    /// hit/miss counters. The single-flight cache service uses this so a
    /// waiter that re-checks after a peer's fetch completes does not count
    /// a second lookup.
    pub fn touch(&mut self, key: &K) -> Option<&V> {
        let tick = self.tick + 1;
        match self.entries.get_mut(key) {
            Some((_, _, last)) => {
                self.tick = tick;
                self.recency.remove(last);
                *last = tick;
                self.recency.insert(tick, key.clone());
                self.entries.get(key).map(|(v, _, _)| v)
            }
            None => None,
        }
    }

    /// Check for `key` without touching recency or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(v, _, _)| v)
    }

    /// Insert `key → value` of `size` bytes, evicting least-recently-used
    /// entries as needed. Values larger than the whole capacity are not
    /// cached at all (they would evict everything for no benefit); the
    /// key's previous value goes either way, so no stale entry stays
    /// resident and charged.
    pub fn put(&mut self, key: K, value: V, size: u64) {
        if let Some((_, old_size, last)) = self.entries.remove(&key) {
            self.used -= old_size;
            self.recency.remove(&last);
        }
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            let Some((&oldest, _)) = self.recency.iter().next() else {
                break;
            };
            let Some(victim) = self.recency.remove(&oldest) else {
                break;
            };
            let Some((_, vsize, _)) = self.entries.remove(&victim) else {
                break;
            };
            self.used -= vsize;
            self.evictions += 1;
        }
        let tick = self.next_tick();
        self.entries.insert(key.clone(), (value, size, tick));
        self.recency.insert(tick, key);
        self.used += size;
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Configured byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Named lookup/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: LruCache<u32, &str> = LruCache::new(100);
        assert!(c.get(&1).is_none());
        c.put(1, "a", 10);
        assert_eq!(c.get(&1), Some(&"a"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.lookups(), 2);
        assert_eq!(c.used(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(30);
        c.put(1, 10, 10);
        c.put(2, 20, 10);
        c.put(3, 30, 10);
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&1).is_some());
        c.put(4, 40, 10);
        assert!(c.peek(&2).is_none(), "2 was LRU and must be evicted");
        assert!(c.peek(&1).is_some());
        assert!(c.peek(&3).is_some());
        assert!(c.peek(&4).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c: LruCache<u32, ()> = LruCache::new(25);
        for i in 0..100 {
            c.put(i, (), 7);
            assert!(c.used() <= 25, "used {} at i={i}", c.used());
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_value_not_cached() {
        let mut c: LruCache<u32, ()> = LruCache::new(10);
        c.put(1, (), 5);
        c.put(2, (), 11);
        assert!(c.peek(&2).is_none());
        assert!(c.peek(&1).is_some(), "existing entries untouched");
    }

    #[test]
    fn oversized_reinsert_drops_the_stale_entry() {
        let mut c: LruCache<u32, &str> = LruCache::new(20);
        c.put(1, "old", 10);
        c.put(1, "too big", 21);
        assert!(c.peek(&1).is_none(), "the replaced value must not linger");
        assert_eq!(c.used(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn reinsert_updates_size() {
        let mut c: LruCache<u32, &str> = LruCache::new(20);
        c.put(1, "small", 5);
        c.put(1, "big", 15);
        assert_eq!(c.used(), 15);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), Some(&"big"));
        // Downsize too.
        c.put(1, "tiny", 2);
        assert_eq!(c.used(), 2);
    }

    #[test]
    fn peek_does_not_affect_recency() {
        let mut c: LruCache<u32, ()> = LruCache::new(20);
        c.put(1, (), 10);
        c.put(2, (), 10);
        // Peek 1 (no refresh), then insert: 1 is still LRU.
        assert!(c.peek(&1).is_some());
        c.put(3, (), 10);
        assert!(c.peek(&1).is_none());
        assert!(c.peek(&2).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "peek not counted");
    }

    #[test]
    fn touch_refreshes_recency_without_counting() {
        let mut c: LruCache<u32, ()> = LruCache::new(20);
        c.put(1, (), 10);
        c.put(2, (), 10);
        // Touch 1 (uncounted refresh), then insert: 2 is now the LRU.
        assert!(c.touch(&1).is_some());
        assert!(c.touch(&9).is_none());
        c.put(3, (), 10);
        assert!(c.peek(&2).is_none(), "2 was LRU after the touch");
        assert!(c.peek(&1).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "touch not counted");
        assert_eq!(s.hit_rate(), 0.0);
    }
}
