//! Building blocks for the real threaded cluster runtime.
//!
//! The threaded runtime maps each cluster node to an OS thread; crossbeam
//! channels are the interconnect. This module supplies the accounting and
//! storage pieces those threads share:
//!
//! * [`ByteCounter`] — lock-free counters for bytes moved per link class;
//! * [`Scratch`] — per-compute-node bucket storage for Grace Hash (memory
//!   or real temp files);
//! * [`RunStats`] — the full accounting of one join execution, used both
//!   for reporting and for validating cost-model *inputs* exactly.

use crate::checksum;
use orv_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
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

/// Backing store for Grace-Hash buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScratchKind {
    /// Buckets in process memory (fast; still byte-accounted).
    Memory,
    /// Buckets in real temp files (exercises the write/read path).
    TempFile,
}

/// RAII owner of a scratch temp directory: the directory is removed when
/// the guard drops, which happens on *every* exit path — normal drop,
/// early `?` returns during setup, and unwinds out of panicking worker
/// threads — so failed executions never leak temp files.
struct TempDirGuard {
    path: PathBuf,
}

impl TempDirGuard {
    fn create(path: PathBuf) -> Result<Self> {
        fs::create_dir_all(&path)?;
        Ok(TempDirGuard { path })
    }
}

impl Drop for TempDirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Per-compute-node scratch space: named append-only buckets.
///
/// [`Scratch::append`] takes each frame by value, and memory scratch keeps
/// it as it arrived: a bucket is its list of frames, copied once, when it
/// is read back whole. Every bucket keeps a running CRC32C updated per
/// appended frame (the write-boundary checksum), so
/// [`Scratch::verify_bucket`] can check a read-back bucket without ever
/// re-reading it from the store.
pub struct Scratch {
    kind: ScratchKind,
    mem: Mutex<HashMap<String, Vec<Vec<u8>>>>,
    dir: Option<TempDirGuard>,
    /// Incremental CRC32C state per bucket (absent = empty bucket).
    crcs: Mutex<HashMap<String, u32>>,
    written: ByteCounter,
    read: ByteCounter,
}

impl Scratch {
    /// Create scratch space; `TempFile` scratch creates a unique directory
    /// under the system temp dir (removed again when the `Scratch` drops,
    /// on success and error paths alike).
    pub fn new(kind: ScratchKind, label: &str) -> Result<Self> {
        let dir = match kind {
            ScratchKind::Memory => None,
            ScratchKind::TempFile => {
                let dir = std::env::temp_dir().join(format!(
                    "orv-scratch-{label}-{}-{:x}",
                    std::process::id(),
                    &*Box::new(0u8) as *const u8 as usize
                ));
                Some(TempDirGuard::create(dir)?)
            }
        };
        Ok(Scratch {
            kind,
            mem: Mutex::new(HashMap::new()),
            dir,
            crcs: Mutex::new(HashMap::new()),
            written: ByteCounter::new(),
            read: ByteCounter::new(),
        })
    }

    /// Append the frame `data` to bucket `name`.
    pub fn append(&self, name: &str, data: Vec<u8>) -> Result<()> {
        self.written.add(data.len() as u64);
        // The bucket name is allocated as a map key on first insert only.
        {
            let mut crcs = self.crcs.lock();
            match crcs.get_mut(name) {
                Some(state) => *state = checksum::update(*state, &data),
                None => {
                    crcs.insert(name.to_string(), checksum::update(checksum::begin(), &data));
                }
            }
        }
        match self.kind {
            ScratchKind::Memory => {
                let mut mem = self.mem.lock();
                match mem.get_mut(name) {
                    Some(frames) => frames.push(data),
                    None => {
                        mem.insert(name.to_string(), vec![data]);
                    }
                }
                Ok(())
            }
            ScratchKind::TempFile => {
                let path = self.bucket_path(name)?;
                #[allow(
                    clippy::disallowed_types,
                    reason = "cluster scratch: a running CRC is maintained on append"
                )]
                let mut f = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                f.write_all(&data)?;
                Ok(())
            }
        }
    }

    /// Read a whole bucket back (empty if never written).
    pub fn read_bucket(&self, name: &str) -> Result<Vec<u8>> {
        let data = match self.kind {
            ScratchKind::Memory => self
                .mem
                .lock()
                .get(name)
                .map(|frames| frames.concat())
                .unwrap_or_default(),
            ScratchKind::TempFile => {
                let path = self.bucket_path(name)?;
                match fs::File::open(path) {
                    Ok(mut f) => {
                        let mut buf = Vec::new();
                        f.read_to_end(&mut buf)?;
                        buf
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                    Err(e) => return Err(e.into()),
                }
            }
        };
        self.read.add(data.len() as u64);
        Ok(data)
    }

    /// Drop bucket `name` once it has been read for the last time: memory
    /// scratch frees its frames, file scratch deletes its file. The byte
    /// counters keep what it moved; a removed bucket reads back empty.
    pub fn remove(&self, name: &str) -> Result<()> {
        self.crcs.lock().remove(name);
        match self.kind {
            ScratchKind::Memory => {
                self.mem.lock().remove(name);
                Ok(())
            }
            ScratchKind::TempFile => match fs::remove_file(self.bucket_path(name)?) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
                _ => Ok(()),
            },
        }
    }

    fn bucket_path(&self, name: &str) -> Result<PathBuf> {
        if name.contains('/') || name.contains("..") {
            return Err(Error::Config(format!("invalid bucket name `{name}`")));
        }
        match &self.dir {
            Some(guard) => Ok(guard.path.join(name)),
            None => Err(Error::Config("memory scratch has no bucket files".into())),
        }
    }

    /// Size of one bucket in bytes (0 if never written).
    pub fn bucket_size(&self, name: &str) -> Result<u64> {
        match self.kind {
            ScratchKind::Memory => Ok(self
                .mem
                .lock()
                .get(name)
                .map_or(0, |frames| frames.iter().map(|f| f.len() as u64).sum())),
            ScratchKind::TempFile => {
                let path = self.bucket_path(name)?;
                match std::fs::metadata(path) {
                    Ok(m) => Ok(m.len()),
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
                    Err(e) => Err(e.into()),
                }
            }
        }
    }

    /// CRC32C of bucket `name`'s full contents, maintained incrementally
    /// across appends (0 for a never-written bucket, matching the CRC of
    /// the empty payload).
    pub fn bucket_crc(&self, name: &str) -> u32 {
        self.crcs
            .lock()
            .get(name)
            .map(|&state| checksum::finish(state))
            .unwrap_or_else(|| checksum::crc32c(&[]))
    }

    /// Verify bytes read back from bucket `name` against its running
    /// write-side checksum; a mismatch is a typed `Error::Integrity` and
    /// the caller should re-read (the durable bucket itself is intact).
    pub fn verify_bucket(&self, name: &str, bytes: &[u8]) -> Result<()> {
        checksum::verify(
            self.bucket_crc(name),
            bytes,
            format_args!("scratch bucket {name}"),
        )
    }

    /// Total bytes appended.
    pub fn bytes_written(&self) -> u64 {
        self.written.get()
    }

    /// Total bytes read back.
    pub fn bytes_read(&self) -> u64 {
        self.read.get()
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
    /// Cache hit rate in `[0, 1]` (0 if no fetches).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

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
    fn mem_scratch_roundtrip_and_accounting() {
        let s = Scratch::new(ScratchKind::Memory, "t").unwrap();
        s.append("b0", b"abc".to_vec()).unwrap();
        s.append("b0", b"def".to_vec()).unwrap();
        s.append("b1", b"xy".to_vec()).unwrap();
        assert_eq!(s.read_bucket("b0").unwrap(), b"abcdef");
        assert_eq!(s.read_bucket("b1").unwrap(), b"xy");
        assert_eq!(s.read_bucket("b9").unwrap(), b"");
        assert_eq!(s.bytes_written(), 8);
        assert_eq!(s.bytes_read(), 8);
    }

    #[test]
    fn bucket_sizes_reported() {
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            let s = Scratch::new(kind, "sz").unwrap();
            assert_eq!(s.bucket_size("b0").unwrap(), 0);
            s.append("b0", b"12345".to_vec()).unwrap();
            s.append("b0", b"678".to_vec()).unwrap();
            assert_eq!(s.bucket_size("b0").unwrap(), 8, "{kind:?}");
            assert_eq!(s.bucket_size("other").unwrap(), 0);
        }
    }

    #[test]
    fn file_scratch_roundtrip_and_cleanup() {
        let dir;
        {
            let s = Scratch::new(ScratchKind::TempFile, "t").unwrap();
            dir = s.dir.as_ref().unwrap().path.clone();
            s.append("b0", b"hello ".to_vec()).unwrap();
            s.append("b0", b"world".to_vec()).unwrap();
            assert_eq!(s.read_bucket("b0").unwrap(), b"hello world");
            assert_eq!(s.read_bucket("missing").unwrap(), b"");
            assert!(s.append("../evil", b"x".to_vec()).is_err());
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn file_scratch_cleaned_up_on_unwind() {
        // The temp dir must disappear even when the owning worker panics
        // mid-write: the RAII guard drops during the unwind.
        let dir = std::sync::Mutex::new(None::<std::path::PathBuf>);
        let r = std::panic::catch_unwind(|| {
            let s = Scratch::new(ScratchKind::TempFile, "unwind").unwrap();
            *dir.lock().unwrap() = Some(s.dir.as_ref().unwrap().path.clone());
            s.append("b0", b"partial".to_vec()).unwrap();
            panic!("worker died mid-append");
        });
        assert!(r.is_err());
        let dir = dir.into_inner().unwrap().unwrap();
        assert!(!dir.exists(), "scratch dir must be removed on unwind");
    }

    #[test]
    fn scratch_running_crc_matches_contents() {
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            let s = Scratch::new(kind, "crc").unwrap();
            // Empty bucket: CRC of the empty payload, verify passes.
            assert_eq!(s.bucket_crc("b0"), crate::checksum::crc32c(&[]));
            s.verify_bucket("b0", b"").unwrap();
            s.append("b0", b"hello ".to_vec()).unwrap();
            s.append("b0", b"world".to_vec()).unwrap();
            assert_eq!(
                s.bucket_crc("b0"),
                crate::checksum::crc32c(b"hello world"),
                "{kind:?}"
            );
            let bytes = s.read_bucket("b0").unwrap();
            s.verify_bucket("b0", &bytes).unwrap();
            // A flipped byte in the read-back copy is caught.
            let mut bad = bytes.clone();
            bad[3] ^= 0x40;
            let err = s.verify_bucket("b0", &bad).unwrap_err();
            assert!(matches!(err, Error::Integrity(_)), "{err}");
            assert!(err.to_string().contains("b0"), "{err}");
        }
    }

    #[test]
    fn scratch_interleaved_appends_keep_each_buckets_bytes_and_crc() {
        // First append (inserts the key) and later appends (reuse it) must
        // be indistinguishable, per bucket, however they interleave.
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            let s = Scratch::new(kind, "interleave").unwrap();
            for (name, part) in [
                ("L0", "ab"),
                ("R0", "xy"),
                ("L0", ""),
                ("L0", "cd"),
                ("R0", "z"),
            ] {
                s.append(name, part.as_bytes().to_vec()).unwrap();
            }
            for (name, all) in [("L0", "abcd"), ("R0", "xyz"), ("L1", "")] {
                let bytes = s.read_bucket(name).unwrap();
                assert_eq!(bytes, all.as_bytes(), "{kind:?} {name}");
                assert_eq!(s.bucket_size(name).unwrap(), all.len() as u64);
                assert_eq!(s.bucket_crc(name), crate::checksum::crc32c(all.as_bytes()));
                s.verify_bucket(name, &bytes).unwrap();
            }
            assert_eq!(s.bytes_written(), 7);
            s.remove("L0").unwrap();
            s.remove("L9").unwrap();
            assert_eq!(s.read_bucket("L0").unwrap(), b"", "{kind:?}");
            assert_eq!(s.bucket_size("L0").unwrap(), 0);
            s.verify_bucket("L0", b"").unwrap();
            assert_eq!(s.read_bucket("R0").unwrap(), b"xyz");
            assert_eq!(s.bytes_written(), 7, "counters keep what moved");
        }
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
        assert_eq!(a.cache_hit_rate(), 0.5);
        assert_eq!(a.read_retries, 2);
        assert_eq!(a.worker_panics, 1);
        assert_eq!(a.pairs_reassigned, 4);
        assert_eq!(RunStats::default().cache_hit_rate(), 0.0);
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
