//! Building blocks for the real threaded cluster runtime.
//!
//! The threaded runtime maps each cluster node to an OS thread; crossbeam
//! channels are the interconnect (see [`crate::exchange`]). This module
//! supplies the accounting those threads share:
//!
//! * [`ByteCounter`] — lock-free counters for bytes moved per link class;
//! * [`RunStats`] — the full accounting of one join execution, used both
//!   for reporting and for validating cost-model *inputs* exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable byte counter.
#[derive(Clone, Default, Debug)]
pub struct ByteCounter(Arc<AtomicU64>);

impl ByteCounter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` bytes.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Accounting of one distributed join execution on the threaded runtime.
#[derive(Clone, Default, Debug)]
pub struct RunStats {
    /// Wall-clock execution time, seconds.
    pub wall_secs: f64,
    /// Bytes of chunk data read from storage.
    pub bytes_read_storage: u64,
    /// Bytes of sub-table/record data sent storage → compute.
    pub bytes_transferred: u64,
    /// Grace Hash bucket bytes written to scratch.
    pub bytes_scratch_written: u64,
    /// Grace Hash bucket bytes read from scratch.
    pub bytes_scratch_read: u64,
    /// Hash-table insert operations performed.
    pub hash_builds: u64,
    /// Hash-table lookup operations performed.
    pub hash_probes: u64,
    /// Result tuples produced.
    pub result_tuples: u64,
    /// Sub-table fetches answered by the cache (IJ only).
    pub cache_hits: u64,
    /// Sub-table fetches that went to storage.
    pub cache_misses: u64,
    /// Chunk-fetch attempts repeated after a transient read failure.
    pub read_retries: u64,
    /// Interconnect sends repeated after a dropped message (GH only).
    pub send_retries: u64,
    /// Scratch bucket writes repeated after a transient failure (GH only).
    pub scratch_retries: u64,
    /// Checksum mismatches caught at a verification boundary (chunk read,
    /// interconnect frame, scratch read) and recovered by retry.
    pub corruptions_detected: u64,
    /// Compute workers that died (panicked) and were contained.
    pub worker_panics: u64,
    /// Sub-table pairs reassigned from dead workers to survivors (IJ only).
    pub pairs_reassigned: u64,
}

impl RunStats {
    /// Publish every field into `metrics` as `{prefix}/{field}`. Counter
    /// fields add (publishing per-node stats repeatedly merges them the
    /// same way [`RunStats::merge`] does); wall time goes to a
    /// microsecond gauge, which merges by max.
    pub fn record_into(&self, metrics: &orv_obs::MetricsRegistry, prefix: &str) {
        let c = |name: &str, v: u64| metrics.counter(&format!("{prefix}/{name}")).add(v);
        c("bytes_read_storage", self.bytes_read_storage);
        c("bytes_transferred", self.bytes_transferred);
        c("bytes_scratch_written", self.bytes_scratch_written);
        c("bytes_scratch_read", self.bytes_scratch_read);
        c("hash_builds", self.hash_builds);
        c("hash_probes", self.hash_probes);
        c("result_tuples", self.result_tuples);
        c("cache_hits", self.cache_hits);
        c("cache_misses", self.cache_misses);
        c("read_retries", self.read_retries);
        c("send_retries", self.send_retries);
        c("scratch_retries", self.scratch_retries);
        c("corruptions_detected", self.corruptions_detected);
        c("worker_panics", self.worker_panics);
        c("pairs_reassigned", self.pairs_reassigned);
        metrics
            .gauge(&format!("{prefix}/wall_us"))
            .raise((self.wall_secs * 1e6) as u64);
    }

    /// Merge another node's stats into this one (wall time maxes, counters
    /// add).
    pub fn merge(&mut self, other: &RunStats) {
        self.wall_secs = self.wall_secs.max(other.wall_secs);
        self.bytes_read_storage += other.bytes_read_storage;
        self.bytes_transferred += other.bytes_transferred;
        self.bytes_scratch_written += other.bytes_scratch_written;
        self.bytes_scratch_read += other.bytes_scratch_read;
        self.hash_builds += other.hash_builds;
        self.hash_probes += other.hash_probes;
        self.result_tuples += other.result_tuples;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.read_retries += other.read_retries;
        self.send_retries += other.send_retries;
        self.scratch_retries += other.scratch_retries;
        self.corruptions_detected += other.corruptions_detected;
        self.worker_panics += other.worker_panics;
        self.pairs_reassigned += other.pairs_reassigned;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_counter_is_shared() {
        let c = ByteCounter::new();
        let c2 = c.clone();
        let h = std::thread::spawn(move || {
            for _ in 0..1000 {
                c2.add(3);
            }
        });
        for _ in 0..1000 {
            c.add(2);
        }
        h.join().unwrap();
        assert_eq!(c.get(), 5000);
    }

    #[test]
    fn stats_merge_semantics() {
        let mut a = RunStats {
            wall_secs: 1.5,
            hash_builds: 10,
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        let b = RunStats {
            wall_secs: 2.0,
            hash_builds: 5,
            cache_hits: 1,
            cache_misses: 3,
            read_retries: 2,
            worker_panics: 1,
            pairs_reassigned: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.wall_secs, 2.0);
        assert_eq!(a.hash_builds, 15);
        assert_eq!((a.cache_hits, a.cache_misses), (4, 4));
        assert_eq!(a.read_retries, 2);
        assert_eq!(a.worker_panics, 1);
        assert_eq!(a.pairs_reassigned, 4);
    }

    #[test]
    fn stats_publish_into_registry_merges_like_merge() {
        let metrics = orv_obs::MetricsRegistry::new();
        let a = RunStats {
            wall_secs: 1.5,
            hash_builds: 10,
            bytes_transferred: 100,
            ..Default::default()
        };
        let b = RunStats {
            wall_secs: 2.0,
            hash_builds: 5,
            bytes_transferred: 50,
            ..Default::default()
        };
        a.record_into(&metrics, "join");
        b.record_into(&metrics, "join");
        let snap = metrics.snapshot();
        assert_eq!(snap.counters["join/hash_builds"], 15);
        assert_eq!(snap.counters["join/bytes_transferred"], 150);
        assert_eq!(snap.gauges["join/wall_us"], 2_000_000);
    }
}
