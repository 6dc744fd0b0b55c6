//! The Caching Service.
//!
//! "The Caching Service can be used by the QES to store and access
//! frequently accessed objects." One [`CacheService`] instance outlives
//! individual query executions — and, since the `QueryService` layer,
//! individual *clients*: each compute node owns one byte-budget LRU — the
//! memory §5.1 models — holding left sub-tables *with their built hash
//! tables* and right sub-tables, so a repeated or overlapping view query
//! finds its working set warm whether it comes from the same client or a
//! concurrent one.
//!
//! What is cached is what storage holds: whole sub-tables, and hash
//! tables over whole left sub-tables. A query's range is applied by the
//! Indexed Join to what it takes out of the cache, never to what goes in,
//! so one service serves every range over a view.
//!
//! ## Cross-query sharing
//!
//! Entries are keyed by [`CacheKey`]: the sub-table id plus the *role* the
//! entry plays (left-with-hash-table vs right) plus, for left entries, a
//! fingerprint of the join attributes and work factor the hash table was
//! built with. Two views joining the same tables on different attributes
//! therefore never alias each other's hash tables.
//!
//! ## Single-flight fetches
//!
//! [`CacheService::get_or_build`] deduplicates concurrent misses: the
//! first requester of a key becomes its *builder* (fetch + hash-table
//! build run with the node's lock released), every concurrent requester
//! waits on the node's condvar and is answered from the cache when the
//! builder publishes. This is what preserves the §5.1 zero-refetch bound
//! (`cache_misses == N_C·(a+b)`) under concurrency: N simultaneous
//! queries over the same view still fetch each sub-table exactly once.
//! Waits are sliced at [`SLEEP_SLICE`] and observe the caller's
//! [`CancelToken`], so a cancelled query stops waiting promptly even if
//! the builder is slow.

use crate::hash_join::HashJoiner;
use crate::lru::{CacheStats, LruCache};
use orv_chunk::SubTable;
use orv_cluster::{CancelToken, SLEEP_SLICE};
use orv_obs::{names, SpanTimer};
use orv_types::{Error, Result, SubTableId};
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a compute node caches per sub-table. Both variants are behind an
/// `Arc`, so handing a cached value to a worker is a pointer clone — the
/// node's lock is never held across a build or a probe.
#[derive(Clone)]
pub enum CachedEntry {
    /// A left sub-table with its built hash table (built once per left
    /// sub-table, as §5.1 requires).
    Left(Arc<HashJoiner>),
    /// A right sub-table.
    Right(Arc<SubTable>),
}

impl std::fmt::Debug for CachedEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CachedEntry::Left(j) => write!(f, "Left(hash table, {} rows)", j.num_rows()),
            CachedEntry::Right(st) => write!(f, "Right({} rows)", st.num_rows()),
        }
    }
}

/// Cache key: sub-table id + the role of the cached value.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// Left sub-table: the hash table depends on the join attributes and
    /// work factor, so those are part of the key (as a fingerprint).
    Left(SubTableId, u64),
    /// Right sub-table: its rows as stored, attribute-independent.
    Right(SubTableId),
}

/// Fingerprint of the parameters a left-side hash table was built with.
/// FNV-1a over the attribute names plus the work factor — collisions are
/// astronomically unlikely for the handful of attribute sets one
/// deployment ever joins on.
pub fn left_key_tag(join_attrs: &[&str], work_factor: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for attr in join_attrs {
        eat(attr.as_bytes());
        eat(&[0xff]); // separator so ["ab","c"] != ["a","bc"]
    }
    eat(&work_factor.to_le_bytes());
    h
}

/// One compute node's cache: the LRU over its whole byte budget, the
/// in-flight key set of the single-flight protocol, and the node's
/// hit/miss counters, all under the one lock.
struct Shard {
    state: Mutex<ShardState>,
    cond: Condvar,
}

struct ShardState {
    lru: LruCache<CacheKey, CachedEntry>,
    in_flight: HashSet<CacheKey>,
    hits: u64,
    misses: u64,
}

fn relock<T>(r: std::result::Result<T, PoisonError<T>>) -> T {
    // A builder panic unwinds with the node's lock released (build runs
    // outside it), so poisoning can only come from a panic inside the
    // LRU itself; the map stays structurally valid either way.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Per-compute-node caches, shared across join executions *and* across
/// concurrent queries.
pub struct CacheService {
    /// One shard per compute node.
    shards: Vec<Shard>,
    /// Watermark of counters already published into a metrics registry,
    /// so repeated [`CacheService::publish_into`] calls add only deltas.
    published: Mutex<CacheStats>,
    /// Seconds each single-flight waiter blocked on a peer's build,
    /// drained into the `lat/cache_wait_secs` histogram on publish.
    wait_samples: Mutex<Vec<f64>>,
}

impl CacheService {
    /// One LRU of `capacity_bytes` per compute node. An entry larger
    /// than that is handed to its requester but not cached.
    pub fn new(n_compute: usize, capacity_bytes: u64) -> Self {
        CacheService {
            shards: (0..n_compute)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        lru: LruCache::new(capacity_bytes),
                        in_flight: HashSet::new(),
                        hits: 0,
                        misses: 0,
                    }),
                    cond: Condvar::new(),
                })
                .collect(),
            published: Mutex::new(CacheStats::default()),
            wait_samples: Mutex::new(Vec::new()),
        }
    }

    /// Number of compute nodes served.
    pub fn n_compute(&self) -> usize {
        self.shards.len()
    }

    fn lock(shard: &Shard) -> MutexGuard<'_, ShardState> {
        relock(shard.state.lock())
    }

    /// Fetch `key` from shard `j`, building it with `build` on a miss.
    ///
    /// Returns the entry plus `true` when it came from the cache. Misses
    /// are single-flight: exactly one concurrent caller runs `build` (with
    /// the shard lock *released*); the rest wait, cancellably, and are
    /// answered from the cache — counted as hits, because they caused no
    /// fetch. If the builder fails, its error propagates to it alone and
    /// one waiter takes over as the next builder.
    pub fn get_or_build(
        &self,
        j: usize,
        key: CacheKey,
        cancel: &CancelToken,
        build: impl FnOnce() -> Result<(CachedEntry, u64)>,
    ) -> Result<(CachedEntry, bool)> {
        let shard = self
            .shards
            .get(j)
            .ok_or_else(|| Error::Config(format!("cache service has no shard {j}")))?;
        let mut state = Self::lock(shard);
        // Single-flight block time: armed on the first wait, sampled once
        // the waiter unblocks (answered from the cache, promoted to
        // builder, or cancelled).
        let mut waited: Option<SpanTimer> = None;
        let sample_wait = |w: &Option<SpanTimer>| {
            if let Some(sw) = w {
                relock(self.wait_samples.lock()).push(sw.elapsed_secs());
            }
        };
        loop {
            if let Some(entry) = state.lru.touch(&key) {
                let entry = entry.clone();
                state.hits += 1;
                drop(state);
                sample_wait(&waited);
                return Ok((entry, true));
            }
            if state.in_flight.insert(key.clone()) {
                break; // we are the builder for this key
            }
            // A peer is fetching this key: wait a slice, then re-check.
            waited.get_or_insert_with(SpanTimer::start);
            let (guard, _) = relock(shard.cond.wait_timeout(state, SLEEP_SLICE));
            state = guard;
            if let Err(e) = cancel.check() {
                drop(state);
                sample_wait(&waited);
                return Err(e);
            }
        }
        drop(state);
        sample_wait(&waited);
        // Build with the lock released: the fetch may retry, back off,
        // sleep, or take a while hashing — none of which may stall peers
        // on this shard. The guard unregisters the key even if `build`
        // panics, so waiters never wedge on a dead builder.
        let mut in_flight = InFlightGuard {
            shard,
            key: Some(key),
        };
        let built = build();
        let mut state = Self::lock(shard);
        let key = in_flight.disarm();
        match built {
            Ok((entry, size)) => {
                state.misses += 1;
                state.in_flight.remove(&key);
                state.lru.put(key, entry.clone(), size);
                shard.cond.notify_all();
                Ok((entry, false))
            }
            Err(e) => {
                state.in_flight.remove(&key);
                shard.cond.notify_all();
                Err(e)
            }
        }
    }

    /// Aggregate named counters (cumulative over the service's lifetime).
    /// Hits and misses follow single-flight semantics: a waiter answered
    /// by its builder's fetch counts as a hit; only builders count misses.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .into_iter()
            .fold(CacheStats::default(), |mut acc, s| {
                acc.hits += s.hits;
                acc.misses += s.misses;
                acc.evictions += s.evictions;
                acc
            })
    }

    /// Per-node counters, one entry per compute node. Summing them
    /// reproduces [`CacheService::stats`] exactly.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| {
                let state = Self::lock(s);
                CacheStats {
                    hits: state.hits,
                    misses: state.misses,
                    evictions: state.lru.stats().evictions,
                }
            })
            .collect()
    }

    /// Total bytes currently cached across shards.
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| Self::lock(s).lru.used()).sum()
    }

    /// Publish the counters into an observability registry under the
    /// [`orv_obs::names`] cache names. Deltas only: repeated publishes
    /// (e.g. once per completed query) never double-count.
    pub fn publish_into(&self, metrics: &orv_obs::MetricsRegistry) {
        let now = self.stats();
        let mut last = relock(self.published.lock());
        metrics
            .counter(names::CACHE_HITS)
            .add(now.hits.saturating_sub(last.hits));
        metrics
            .counter(names::CACHE_MISSES)
            .add(now.misses.saturating_sub(last.misses));
        metrics
            .counter(names::CACHE_EVICTIONS)
            .add(now.evictions.saturating_sub(last.evictions));
        metrics
            .counter(names::CACHE_LOOKUPS)
            .add(now.lookups().saturating_sub(last.lookups()));
        *last = now;
        drop(last);
        let samples: Vec<f64> = std::mem::take(&mut *relock(self.wait_samples.lock()));
        for secs in samples {
            metrics.record_latency(names::LAT_CACHE_WAIT, secs);
        }
    }
}

/// Removes an in-flight key on drop unless disarmed — the panic-safety
/// net of the single-flight protocol.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    key: Option<CacheKey>,
}

impl InFlightGuard<'_> {
    fn disarm(&mut self) -> CacheKey {
        // Only called with the key still armed; the panic-drop path is
        // the alternative consumer.
        self.key
            .take()
            .unwrap_or(CacheKey::Right(SubTableId::new(u32::MAX, u32::MAX)))
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut state = relock(self.shard.state.lock());
            state.in_flight.remove(&key);
            self.shard.cond.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::{ColumnBatch, ColumnData, Schema};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::sync::Barrier;

    fn st(rows: usize) -> Arc<SubTable> {
        let schema = Arc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::I32((0..rows as i32).collect()),
            ColumnData::F32((0..rows).map(|i| i as f32).collect()),
        ])
        .unwrap();
        Arc::new(SubTable::new(SubTableId::new(0u32, 0u32), schema, batch).unwrap())
    }

    fn rkey(c: u32) -> CacheKey {
        CacheKey::Right(SubTableId::new(0u32, c))
    }

    /// Build `key` on node `j` at `size` bytes; `true` if it was a hit.
    fn fetch(svc: &CacheService, j: usize, key: CacheKey, size: u64) -> bool {
        svc.get_or_build(j, key, &CancelToken::none(), || {
            Ok((CachedEntry::Right(st(1)), size))
        })
        .unwrap()
        .1
    }

    #[test]
    fn shards_are_independent() {
        let svc = CacheService::new(2, 1024);
        assert!(!fetch(&svc, 0, rkey(0), 32));
        assert!(!fetch(&svc, 1, rkey(0), 32), "node 1 has its own LRU");
        assert!(fetch(&svc, 0, rkey(0), 32));
        assert_eq!(svc.used_bytes(), 64);
        let out_of_range = svc.get_or_build(2, rkey(0), &CancelToken::none(), || {
            panic!("no such node: nothing to build")
        });
        assert!(matches!(out_of_range, Err(Error::Config(_))));
        assert_eq!(svc.n_compute(), 2);
    }

    #[test]
    fn aggregate_stats() {
        let svc = CacheService::new(2, 1024);
        assert!(!fetch(&svc, 0, rkey(1), 16)); // miss
        assert!(fetch(&svc, 0, rkey(1), 16)); // hit
        let s = svc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.lookups(), 2);
    }

    #[test]
    fn an_entry_as_large_as_the_node_capacity_is_cached() {
        // §5.1's budget is per compute node: an entry that fills it
        // exactly still fits.
        let svc = CacheService::new(1, 1024);
        assert!(!fetch(&svc, 0, rkey(0), 1024));
        assert!(fetch(&svc, 0, rkey(0), 1024), "built once, then a hit");
        assert_eq!(svc.used_bytes(), 1024);
    }

    #[test]
    fn left_key_tag_separates_attribute_sets() {
        assert_ne!(left_key_tag(&["x", "y"], 1), left_key_tag(&["x"], 1));
        assert_ne!(left_key_tag(&["ab", "c"], 1), left_key_tag(&["a", "bc"], 1));
        assert_ne!(left_key_tag(&["x"], 1), left_key_tag(&["x"], 2));
        assert_eq!(left_key_tag(&["x", "y"], 3), left_key_tag(&["x", "y"], 3));
    }

    #[test]
    fn get_or_build_builds_once_then_hits() {
        let svc = CacheService::new(1, 1024);
        let cancel = CancelToken::none();
        let (_, hit) = svc
            .get_or_build(0, rkey(7), &cancel, || Ok((CachedEntry::Right(st(2)), 16)))
            .unwrap();
        assert!(!hit);
        let (_, hit) = svc
            .get_or_build(0, rkey(7), &cancel, || {
                panic!("must not rebuild a cached key")
            })
            .unwrap();
        assert!(hit);
        let s = svc.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn builder_error_propagates_and_unblocks_the_key() {
        let svc = CacheService::new(1, 1024);
        let cancel = CancelToken::none();
        let err = svc
            .get_or_build(0, rkey(3), &cancel, || {
                Err(Error::Cluster("fetch died".into()))
            })
            .unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        // The key is no longer in flight: the next caller becomes the
        // builder and can succeed.
        let (_, hit) = svc
            .get_or_build(0, rkey(3), &cancel, || Ok((CachedEntry::Right(st(1)), 8)))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn concurrent_misses_are_single_flight() {
        let svc = Arc::new(CacheService::new(1, 1024));
        let builds = Arc::new(AtomicU64::new(0));
        let n = 4;
        let barrier = Arc::new(Barrier::new(n));
        let mut handles = Vec::new();
        for _ in 0..n {
            let svc = Arc::clone(&svc);
            let builds = Arc::clone(&builds);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let (_, hit) = svc
                    .get_or_build(0, rkey(9), &CancelToken::none(), || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        Ok((CachedEntry::Right(st(4)), 32))
                    })
                    .unwrap();
                hit
            }));
        }
        let hits = handles
            .into_iter()
            .filter(|_| true)
            .map(|h| h.join().unwrap())
            .filter(|&h| h)
            .count();
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one builder");
        assert_eq!(hits, n - 1, "every waiter answered from the cache");
        let s = svc.stats();
        assert_eq!((s.hits, s.misses), (n as u64 - 1, 1));
    }

    #[test]
    fn waiter_cancellation_unblocks_within_a_slice() {
        let svc = Arc::new(CacheService::new(1, 1024));
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let blocker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.get_or_build(0, rkey(5), &CancelToken::none(), || {
                    started_tx.send(()).ok();
                    release_rx.recv().ok();
                    Err(Error::Cluster("released".into()))
                })
            })
        };
        started_rx.recv().unwrap();
        let cancel = CancelToken::new();
        cancel.cancel();
        let start = std::time::Instant::now();
        let err = svc
            .get_or_build(0, rkey(5), &cancel, || {
                panic!("cancelled waiter must not become the builder")
            })
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
        assert!(
            start.elapsed() < SLEEP_SLICE * 3,
            "waiter took {:?}",
            start.elapsed()
        );
        release_tx.send(()).unwrap();
        assert!(blocker.join().unwrap().is_err());
    }

    #[test]
    fn shard_stats_are_per_node_and_sum_to_totals() {
        let svc = CacheService::new(2, 1 << 20);
        assert_eq!(svc.shard_stats().len(), 2);
        for c in 0..32u32 {
            let j = (c % 2) as usize;
            assert!(!fetch(&svc, j, rkey(c), 8));
            assert!(fetch(&svc, j, rkey(c), 8));
        }
        let total = svc.stats();
        assert_eq!((total.hits, total.misses), (32, 32));
        for node in svc.shard_stats() {
            assert_eq!((node.hits, node.misses), (16, 16));
        }
    }

    #[test]
    fn publish_into_adds_deltas_only() {
        let metrics = orv_obs::MetricsRegistry::new();
        let svc = CacheService::new(1, 1024);
        assert!(!fetch(&svc, 0, rkey(1), 8));
        svc.publish_into(&metrics);
        svc.publish_into(&metrics); // no new activity → no double count
        let snap = metrics.snapshot();
        assert_eq!(snap.counters.get(names::CACHE_MISSES).copied(), Some(1));
        assert_eq!(snap.counters.get(names::CACHE_LOOKUPS).copied(), Some(1));
        assert!(fetch(&svc, 0, rkey(1), 8));
        svc.publish_into(&metrics);
        let snap = metrics.snapshot();
        assert_eq!(snap.counters.get(names::CACHE_HITS).copied(), Some(1));
        assert_eq!(snap.counters.get(names::CACHE_LOOKUPS).copied(), Some(2));
    }
}
