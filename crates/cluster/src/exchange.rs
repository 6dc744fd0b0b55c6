//! How Grace Hash moves bytes. A frame is a run of records in the wire
//! format (each value's little-endian bytes, in schema order): see
//! [`encode_frames`] and [`decode_columns`]. A [`Link`] carries a storage
//! node's frames to a compute node (the paper's `h1` routing); a
//! [`BucketQueue`] holds a compute node's `h2` buckets until their pair is
//! joined (emberdb's `PartitionedQueue { enqueue, dequeue }`). Each trust
//! boundary seals and verifies its bytes once, and every fault draw and
//! retry runs under the execution's [`Recovery`].

use crate::{checksum, CancelToken, FaultInjector, RecoveryPolicy, RunStats, SendVerdict};
use crossbeam::channel::{bounded, Receiver, Sender};
use orv_obs::{names, SpanTimer, Spans};
use orv_types::{ColumnBatch, ColumnData, Error, Result, Schema};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One frame per distinct `frame_of[r]` among `batch`'s rows, ascending by
/// it: each frame holds its rows in order, in the wire format, written at
/// its exact size by [`ColumnBatch::encode_rows_le`]. A stable sort of the
/// row indices groups them, so the cost does not grow with the number of
/// frames the ids could name. Routing and overflow repartitioning both
/// encode through here.
pub fn encode_frames(batch: &ColumnBatch, frame_of: &[usize]) -> Vec<(usize, Vec<u8>)> {
    let mut order: Vec<u32> = (0..frame_of.len() as u32).collect();
    order.sort_by_key(|&r| frame_of[r as usize]);
    order
        .chunk_by(|&a, &b| frame_of[a as usize] == frame_of[b as usize])
        .map(|rows| (frame_of[rows[0] as usize], batch.encode_rows_le(rows)))
        .collect()
}

/// Decode a bucket of packed little-endian records into typed columns of
/// `schema`. Total: any byte string is either whole records or a typed
/// [`Error::Format`].
pub fn decode_columns(schema: &Schema, bytes: &[u8]) -> Result<ColumnBatch> {
    let rs = schema.record_size();
    if rs == 0 || !bytes.len().is_multiple_of(rs) {
        return Err(Error::Format(format!(
            "bucket of {} bytes is not a whole number of {rs}-byte records",
            bytes.len()
        )));
    }
    let nrows = bytes.len() / rs;
    let columns = schema
        .attrs()
        .iter()
        .enumerate()
        .map(|(ci, attr)| {
            ColumnData::decode_strided(attr.dtype, bytes, schema.offset_of(ci), rs, nrows, true)
        })
        .collect::<Result<Vec<_>>>()?;
    ColumnBatch::from_columns(columns)
}

/// What every exchange operation runs under: the execution's fault
/// injector, its retry policy and its cancellation token.
#[derive(Clone, Copy)]
pub struct Recovery<'a> {
    /// Where the link's and the queue's faults are drawn.
    pub faults: &'a FaultInjector,
    /// How a failed attempt is retried.
    pub policy: RecoveryPolicy,
    /// Observed by every attempt and every backoff sleep.
    pub cancel: &'a CancelToken,
}

impl Recovery<'_> {
    /// Run `op` as attempts under `RecoveryPolicy::run_cancellable`, the
    /// only retry loop: the outcome and the retries it took.
    fn attempts<T>(&self, op: impl FnMut() -> Result<T>) -> (Result<T>, u64) {
        self.policy.run_cancellable(self.cancel, op)
    }
}

/// Which table of the join a record comes from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Side {
    /// The left (inner, build) table.
    Left,
    /// The right (outer, probe) table.
    Right,
}

/// One delivery of the link: frames of one side, `(bucket, bytes)`.
pub struct Delivery {
    /// The table the frames' records come from.
    pub side: Side,
    /// The frames, in the order the sender routed them.
    pub frames: Vec<(u32, Vec<u8>)>,
}

/// One storage node's end of the interconnect: a sender to every compute
/// node, its fault stream and the execution's [`Recovery`].
pub struct Link<'a> {
    to: Vec<Sender<Delivery>>,
    stream: u64,
    recovery: Recovery<'a>,
}

/// The interconnect of one execution: a [`Link`] per storage node (its
/// index is its fault stream) and a receiver per compute node. A receiver
/// ends once every link is dropped.
pub fn interconnect(
    n_storage: usize,
    n_compute: usize,
    recovery: Recovery<'_>,
) -> (Vec<Link<'_>>, Vec<Receiver<Delivery>>) {
    let (to, from): (Vec<_>, Vec<_>) = (0..n_compute).map(|_| bounded(64)).unzip();
    let links = (0..n_storage as u64)
        .map(|stream| Link {
            to: to.clone(),
            stream,
            recovery,
        })
        .collect();
    (links, from)
}

impl Link<'_> {
    /// Send `frames` of `side` to compute node `dest`. Each frame is
    /// sealed with its CRC32C here, as it leaves its encoder, and its
    /// bytes are charged to `bytes_transferred`. Each delivery attempt
    /// draws a send verdict, then a corruption per frame, and verifies
    /// every frame once, up to the first that fails; a dropped message or
    /// a frame corrupted in flight is retried with fresh draws, and the
    /// "retransmission" restores the pristine frame (xor is involutive).
    /// The real channel send then happens once, outside the policy: a
    /// receiver that is gone (its compute node died) never comes back,
    /// so that fails fast with a typed error.
    pub fn send(
        &self,
        dest: usize,
        side: Side,
        mut frames: Vec<(u32, Vec<u8>)>,
        stats: &mut RunStats,
    ) -> Result<()> {
        let seals: Vec<u32> = frames.iter().map(|(_, f)| checksum::crc32c(f)).collect();
        stats.bytes_transferred += frames.iter().map(|(_, f)| f.len() as u64).sum::<u64>();
        let faults = self.recovery.faults;
        let mut corruptions = 0u64;
        let (link, retries) = self.recovery.attempts(|| {
            match faults.send_verdict(self.stream) {
                SendVerdict::Drop => {
                    return Err(Error::Cluster("interconnect message dropped".into()));
                }
                SendVerdict::Delay(d) => self.recovery.cancel.sleep(d)?,
                SendVerdict::Deliver => {}
            }
            for ((b, bytes), &seal) in frames.iter_mut().zip(&seals) {
                let flip = faults.corrupt_frame(self.stream, bytes);
                let verified = checksum::verify(seal, bytes, format_args!("frame bucket {b}"));
                if let Some((off, mask)) = flip {
                    bytes[off] ^= mask; // retransmit the pristine frame
                }
                if verified.is_err() {
                    corruptions += 1;
                    faults.events().emit(names::CORRUPTION_DETECTED, || {
                        vec![
                            ("site", "frame".into()),
                            ("what", format!("bucket {b}").into()),
                        ]
                    });
                    return verified;
                }
            }
            Ok(())
        });
        stats.send_retries += retries;
        stats.corruptions_detected += corruptions;
        link?;
        self.to[dest]
            .send(Delivery { side, frames })
            .map_err(|_| Error::Cluster("compute node hung up".into()))
    }
}

/// A bucket of a compute node's queue: `side`'s `h2` bucket `bucket`, or
/// a sub-bucket of it written by overflow repartitioning. `path` holds
/// one byte per level below the bucket, each that level's index plus
/// one, so up to eight levels.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BucketKey {
    side: Side,
    bucket: u32,
    path: u64,
}

impl BucketKey {
    /// Bucket `bucket` of `side`.
    pub const fn new(side: Side, bucket: u32) -> Self {
        BucketKey {
            side,
            bucket,
            path: 0,
        }
    }

    /// Sub-bucket `k` of this bucket, one level down.
    pub fn child(self, k: usize) -> Self {
        BucketKey {
            path: self.path << 8 | (k as u64 + 1),
            ..self
        }
    }
}

/// `L3` for left bucket 3, `L3.0.2` for sub-bucket 2 of its sub-bucket 0:
/// the bucket's file name and its name in events and errors.
impl fmt::Display for BucketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = match self.side {
            Side::Left => 'L',
            Side::Right => 'R',
        };
        write!(f, "{side}{}", self.bucket)?;
        let levels = (64 - self.path.leading_zeros()).div_ceil(8);
        for level in (0..levels).rev() {
            write!(f, ".{}", (self.path >> (8 * level)) as u8 - 1)?;
        }
        Ok(())
    }
}

/// Where a [`BucketQueue`] keeps its buckets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScratchKind {
    /// Buckets in process memory (fast; still byte-accounted).
    Memory,
    /// Buckets in real temp files (exercises the write/read path).
    TempFile,
}

/// One bucket's frames (memory queues only), its size and its running
/// CRC32C — the bucket's seal.
#[derive(Default)]
struct Bucket {
    frames: Vec<Vec<u8>>,
    len: u64,
    crc: u32,
}

/// One compute node's buckets, owned by its worker. A memory queue keeps
/// each frame as it arrived, a file queue appends it to the bucket's file;
/// both keep each bucket's size and seal in memory, so neither re-reads a
/// bucket to size or seal it.
pub struct BucketQueue<'a> {
    /// The bucket files' directory; `None` for a memory queue.
    dir: Option<PathBuf>,
    buckets: HashMap<BucketKey, Bucket>,
    /// The compute node: its fault stream and its span tag `c{node}`.
    node: usize,
    spans: Spans,
    recovery: Recovery<'a>,
}

impl<'a> BucketQueue<'a> {
    /// An empty queue for compute node `node`. A `TempFile` queue creates
    /// a directory `orv-scratch-gh{node}-{pid}-{n}` under the system temp
    /// dir, removed again when the queue drops.
    pub fn new(
        kind: ScratchKind,
        node: usize,
        spans: Spans,
        recovery: Recovery<'a>,
    ) -> Result<Self> {
        static QUEUES: AtomicU64 = AtomicU64::new(0);
        let dir = match kind {
            ScratchKind::Memory => None,
            ScratchKind::TempFile => {
                let n = QUEUES.fetch_add(1, Ordering::Relaxed);
                let pid = std::process::id();
                let path = std::env::temp_dir().join(format!("orv-scratch-gh{node}-{pid}-{n}"));
                fs::create_dir_all(&path)?;
                Some(path)
            }
        };
        Ok(BucketQueue {
            dir,
            buckets: HashMap::new(),
            node,
            spans,
            recovery,
        })
    }

    /// Append `frame` to bucket `key`. An injected write fault fires
    /// before any byte lands, so it is retried under the policy without
    /// duplicating data; a real I/O error from the append is returned
    /// as-is.
    pub fn enqueue(&mut self, key: BucketKey, frame: Vec<u8>, stats: &mut RunStats) -> Result<()> {
        let _write = self.span(names::PHASE_SCRATCH_WRITE);
        let faults = self.recovery.faults;
        let (writable, retries) = self
            .recovery
            .attempts(|| faults.before_scratch_write(self.node as u64));
        stats.scratch_retries += retries;
        writable?;
        if let Some(dir) = &self.dir {
            #[allow(
                clippy::disallowed_types,
                reason = "the bucket queue's append: its running CRC seals every byte"
            )]
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(key.to_string()))?;
            file.write_all(&frame)?;
        }
        stats.bytes_scratch_written += frame.len() as u64;
        let bucket = self.buckets.entry(key).or_default();
        bucket.len += frame.len() as u64;
        bucket.crc = checksum::extend(bucket.crc, &frame);
        if self.dir.is_none() {
            bucket.frames.push(frame);
        }
        Ok(())
    }

    /// Bytes enqueued to bucket `key` and not yet dequeued (0 if none).
    pub fn bytes(&self, key: BucketKey) -> u64 {
        self.buckets.get(&key).map_or(0, |b| b.len)
    }

    /// Read bucket `key` back for the last time: verified, then removed,
    /// then decoded into typed columns of `schema` — so its frames go back
    /// to the allocator before the decoded columns are allocated.
    pub fn dequeue(
        &mut self,
        key: BucketKey,
        schema: &Schema,
        stats: &mut RunStats,
    ) -> Result<ColumnBatch> {
        let bytes = self.take_verified(key, stats)?;
        decode_columns(schema, &bytes)
    }

    /// Drop bucket `key` unread: its pair's other side is empty.
    pub fn discard(&mut self, key: BucketKey) -> Result<()> {
        if self.buckets.remove(&key).is_some() {
            if let Some(dir) = &self.dir {
                fs::remove_file(dir.join(key.to_string()))?;
            }
        }
        Ok(())
    }

    /// Read bucket `key` and verify it against its seal, retrying under
    /// the policy when the read fails or an (injected) corruption is
    /// detected; then remove it. The durable bytes stay pristine — only
    /// the returned copy is damaged — so a retry with a fresh draw
    /// succeeds once the fault budget drains.
    fn take_verified(&mut self, key: BucketKey, stats: &mut RunStats) -> Result<Vec<u8>> {
        let faults = self.recovery.faults;
        let (bytes, retries) = self.recovery.attempts(|| {
            let bytes = {
                let _read = self.span(names::PHASE_SCRATCH_READ);
                let mut bytes = self.read(key)?;
                stats.bytes_scratch_read += bytes.len() as u64;
                faults.corrupt_scratch_read(self.node as u64, &mut bytes);
                bytes
            };
            if let Err(e) = self.verify(key, &bytes) {
                stats.corruptions_detected += 1;
                faults.events().emit(names::CORRUPTION_DETECTED, || {
                    vec![
                        ("site", "scratch_read".into()),
                        ("what", key.to_string().into()),
                        ("node", self.node.into()),
                    ]
                });
                return Err(e);
            }
            Ok(bytes)
        });
        stats.scratch_retries += retries;
        let bytes = bytes?;
        self.discard(key)?;
        Ok(bytes)
    }

    /// A `c{node}/{phase}` span.
    fn span(&self, phase: &str) -> SpanTimer {
        let path = || names::span_tagged(&names::gh_consumer_tag(self.node), phase);
        self.spans.span_with(path)
    }

    /// Bucket `key`'s bytes as stored (empty if it holds none).
    fn read(&self, key: BucketKey) -> Result<Vec<u8>> {
        let Some(bucket) = self.buckets.get(&key) else {
            return Ok(Vec::new());
        };
        match &self.dir {
            Some(dir) => Ok(fs::read(dir.join(key.to_string()))?),
            None => Ok(bucket.frames.concat()),
        }
    }

    /// Verify bytes read back from bucket `key` against its seal; a
    /// mismatch is a typed `Error::Integrity`, and a re-read recovers (the
    /// stored bucket itself is intact).
    fn verify(&self, key: BucketKey, bytes: &[u8]) -> Result<()> {
        let seal = self.buckets.get(&key).map_or(0, |b| b.crc);
        checksum::verify(seal, bytes, format_args!("scratch bucket {key}"))
    }
}

/// The queue's directory goes with it on *every* exit path — normal drop,
/// early `?` returns, and unwinds out of panicking worker threads — so
/// failed executions never leak temp files.
impl Drop for BucketQueue<'_> {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, FaultPlan};
    use orv_obs::EventLog;

    /// Run `f` with a fault-free [`Recovery`].
    fn clean<R>(f: impl FnOnce(Recovery) -> R) -> R {
        let (faults, cancel) = (FaultInjector::disabled(), CancelToken::none());
        f(Recovery {
            faults: &faults,
            policy: RecoveryPolicy::default(),
            cancel: &cancel,
        })
    }

    fn queue(kind: ScratchKind, recovery: Recovery) -> BucketQueue {
        BucketQueue::new(kind, 0, Spans::disabled(), recovery).unwrap()
    }

    const L0: BucketKey = BucketKey {
        side: Side::Left,
        bucket: 0,
        path: 0,
    };
    const L1: BucketKey = BucketKey { bucket: 1, ..L0 };
    const L9: BucketKey = BucketKey { bucket: 9, ..L0 };
    const R0: BucketKey = BucketKey {
        side: Side::Right,
        ..L0
    };

    #[test]
    fn bucket_keys_name_their_side_bucket_and_path() {
        assert_eq!(L0.to_string(), "L0");
        assert_eq!(R0.child(3).to_string(), "R0.3");
        assert_eq!(
            BucketKey::new(Side::Left, 12).child(0).child(2).to_string(),
            "L12.0.2"
        );
        assert_ne!(L0.child(0), L0);
        assert_ne!(L0.child(0).child(1), L0.child(1).child(0));
    }

    #[test]
    fn mem_scratch_roundtrip_and_accounting() {
        clean(|r| {
            let mut s = queue(ScratchKind::Memory, r);
            let mut stats = RunStats::default();
            s.enqueue(L0, b"abc".to_vec(), &mut stats).unwrap();
            s.enqueue(L0, b"def".to_vec(), &mut stats).unwrap();
            s.enqueue(L1, b"xy".to_vec(), &mut stats).unwrap();
            assert_eq!(s.take_verified(L0, &mut stats).unwrap(), b"abcdef");
            assert_eq!(s.take_verified(L1, &mut stats).unwrap(), b"xy");
            assert_eq!(s.take_verified(L9, &mut stats).unwrap(), b"");
            assert_eq!(stats.bytes_scratch_written, 8);
            assert_eq!(stats.bytes_scratch_read, 8);
        })
    }

    #[test]
    fn bucket_sizes_reported() {
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            clean(|r| {
                let (mut s, mut stats) = (queue(kind, r), RunStats::default());
                assert_eq!(s.bytes(L0), 0);
                s.enqueue(L0, b"12345".to_vec(), &mut stats).unwrap();
                s.enqueue(L0, b"678".to_vec(), &mut stats).unwrap();
                assert_eq!(s.bytes(L0), 8, "{kind:?}");
                assert_eq!(s.bytes(R0), 0);
            })
        }
    }

    #[test]
    fn file_scratch_roundtrip_and_cleanup() {
        let dir = clean(|r| {
            let (mut s, mut stats) = (queue(ScratchKind::TempFile, r), RunStats::default());
            let dir = s.dir.clone().unwrap();
            s.enqueue(L0, b"hello ".to_vec(), &mut stats).unwrap();
            s.enqueue(L0, b"world".to_vec(), &mut stats).unwrap();
            assert_eq!(s.read(L0).unwrap(), b"hello world");
            assert_eq!(s.read(L9).unwrap(), b"");
            assert!(dir.exists());
            dir
        });
        assert!(!dir.exists(), "scratch dir must be removed on drop");
    }

    #[test]
    fn file_scratch_cleaned_up_on_unwind() {
        // The temp dir must disappear even when the owning worker panics
        // mid-write: the RAII guard drops during the unwind.
        let dir = std::sync::Mutex::new(None::<std::path::PathBuf>);
        let r = std::panic::catch_unwind(|| {
            clean(|r| {
                let mut s = queue(ScratchKind::TempFile, r);
                *dir.lock().unwrap() = s.dir.clone();
                s.enqueue(L0, b"partial".to_vec(), &mut RunStats::default())
                    .unwrap();
                panic!("worker died mid-append");
            })
        });
        assert!(r.is_err());
        let dir = dir.into_inner().unwrap().unwrap();
        assert!(!dir.exists(), "scratch dir must be removed on unwind");
    }

    #[test]
    fn scratch_running_crc_matches_contents() {
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            clean(|r| {
                let (mut s, mut stats) = (queue(kind, r), RunStats::default());
                // Empty bucket: CRC of the empty payload, verify passes.
                s.verify(L0, b"").unwrap();
                s.enqueue(L0, b"hello ".to_vec(), &mut stats).unwrap();
                s.enqueue(L0, b"world".to_vec(), &mut stats).unwrap();
                let crc = s.buckets[&L0].crc;
                assert_eq!(crc, checksum::crc32c(b"hello world"), "{kind:?}");
                let bytes = s.read(L0).unwrap();
                s.verify(L0, &bytes).unwrap();
                // A flipped byte in the read-back copy is caught.
                let mut bad = bytes.clone();
                bad[3] ^= 0x40;
                let err = s.verify(L0, &bad).unwrap_err();
                assert!(matches!(err, Error::Integrity(_)), "{err}");
                assert!(err.to_string().contains("L0"), "{err}");
            })
        }
    }

    #[test]
    fn scratch_interleaved_appends_keep_each_buckets_bytes_and_crc() {
        // First append (inserts the key) and later appends (reuse it) must
        // be indistinguishable, per bucket, however they interleave.
        for kind in [ScratchKind::Memory, ScratchKind::TempFile] {
            clean(|r| {
                let (mut s, mut stats) = (queue(kind, r), RunStats::default());
                for (key, part) in [(L0, "ab"), (R0, "xy"), (L0, ""), (L0, "cd"), (R0, "z")] {
                    s.enqueue(key, part.as_bytes().to_vec(), &mut stats)
                        .unwrap();
                }
                for (key, all) in [(L0, "abcd"), (R0, "xyz"), (L1, "")] {
                    let bytes = s.read(key).unwrap();
                    assert_eq!(bytes, all.as_bytes(), "{kind:?} {key}");
                    assert_eq!(s.bytes(key), all.len() as u64);
                    s.verify(key, &bytes).unwrap();
                }
                assert_eq!(stats.bytes_scratch_written, 7);
                s.discard(L0).unwrap();
                s.discard(L9).unwrap();
                assert_eq!(s.read(L0).unwrap(), b"", "{kind:?}");
                assert_eq!(s.bytes(L0), 0);
                s.verify(L0, b"").unwrap();
                assert_eq!(s.take_verified(R0, &mut stats).unwrap(), b"xyz");
                assert_eq!(s.read(R0).unwrap(), b"", "taken for the last time");
                assert_eq!(stats.bytes_scratch_written, 7, "counters keep what moved");
            })
        }
    }

    #[test]
    fn send_to_a_dead_receiver_fails_fast_without_retry() {
        // Every verdict draw happens under the policy; the real send
        // happens once, outside it. A plan that would happily delay (and a
        // policy that would happily retry) must not turn "receiver gone"
        // into a retried operation.
        let plan = FaultPlan {
            seed: 1,
            ..FaultPlan::none()
        }
        .with(Fault::SendDelay, 1.0, 1);
        let injector = FaultInjector::new(plan, EventLog::disabled());
        let cancel = CancelToken::none();
        let recovery = Recovery {
            faults: &injector,
            policy: RecoveryPolicy::default(),
            cancel: &cancel,
        };
        let (links, receivers) = interconnect(1, 1, recovery);
        drop(receivers);
        let mut stats = RunStats::default();
        let err = links[0]
            .send(0, Side::Left, vec![(0, vec![7u8; 16])], &mut stats)
            .unwrap_err();
        assert!(
            matches!(&err, Error::Cluster(m) if m.contains("hung up")),
            "{err}"
        );
        assert_eq!(
            injector.stats()[Fault::SendDelay],
            1,
            "exactly one attempt: one verdict draw, zero send_retries"
        );
        assert_eq!(stats.send_retries, 0);
    }
}
