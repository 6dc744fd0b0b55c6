//! The distributed Grace Hash join on the threaded runtime.
//!
//! Phase 1 (partition): "each storage node runs a QES instance that
//! contacts the local BDS instance to retrieve matching sub-tables from the
//! left (inner) table. A hash function `h1` is used to map records to QES
//! instances executing on the compute cluster. A compute node QES instance,
//! upon receipt of a record, applies another hash function `h2` to map the
//! record to a bucket. Buckets are stored on local disks on the compute
//! nodes. The same procedure is repeated with the right (outer) table."
//!
//! Phase 2 (join): "each compute node QES instance then proceeds to join
//! pairs of buckets independently" — the paper's modification of
//! Kitsuregawa's algorithm that removes network costs from the join phase.
//!
//! Storage nodes and compute nodes are OS threads; `h1` routing is a
//! crossbeam channel per compute node; buckets live in a per-node
//! [`Scratch`] store (memory or real temp files). The sender hashes each
//! record once (deriving both `h1` and `h2` from the same 64-bit hash,
//! taken over the key columns' typed key bits) and encodes records
//! straight from the sub-table's typed columns into per-
//! `(destination, bucket)` byte buffers; buckets decode straight back
//! into typed columns, so no row objects are materialized on the
//! partition path — nor on the join path: a bucket pair is joined by the
//! same index-returning probe kernel IJ uses ([`HashJoiner`]), counted by
//! the number of matches, and collected as one typed [`ColumnBatch`] per
//! bucket pair.

//! ## Fault tolerance
//!
//! Every chunk read goes through the execution's [`SubTableReader`], and
//! every interconnect send, scratch write and scratch read-back is one
//! attempt closure under the same configured [`RecoveryPolicy`]
//! (`run_cancellable`, the only retry loop in either):
//! injected read/write faults, dropped messages and checksum-detected
//! corruptions are retried with fresh draws and backoff, and an exhausted
//! policy surfaces the underlying error. Storage and compute node threads
//! run on `orv_cluster::workers::run_workers`, which contains a panic as a
//! typed end and joins every handle. Unlike IJ, a dead compute node
//! cannot be replaced: its scratch buckets (and any in-flight records
//! routed to it by `h1`) die with it, so Grace Hash *fails fast* — the
//! dropped receiver unblocks every storage sender, and `all_done` reports
//! the panic (not the secondary "hung up" errors) as the join's error
//! within a bounded deadline rather than a hang.

use crate::hash_join::{gather_key_bits, is_float, HashJoiner, JoinCounters};
use orv_bds::{Deployment, SubTableReader};
use orv_chunk::SubTable;
use orv_cluster::{
    all_done, checksum, run_workers, CancelToken, FaultInjector, RecoveryPolicy, RunStats, Scratch,
    ScratchKind, SendVerdict, WorkerBody,
};
use orv_obs::{names, Obs};
use orv_types::{
    BoundingBox, ColumnBatch, ColumnData, Error, NodeId, Result, Schema, SubTableId, TableId,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of one Grace Hash execution.
#[derive(Clone, Debug)]
pub struct GraceHashConfig {
    /// Number of compute-node threads (`n_j`).
    pub n_compute: usize,
    /// Memory available per compute node for one in-memory bucket join —
    /// determines the bucket count ("the number of buckets is chosen so
    /// that each bucket fits in memory").
    pub mem_per_node: u64,
    /// Bucket storage backing.
    pub scratch: ScratchKind,
    /// Figure-8 work multiplier for hash build/probe.
    pub work_factor: u32,
    /// Collect the result (one batch per bucket pair); otherwise only
    /// count it.
    pub collect_results: bool,
    /// Optional range constraint applied to scanned sub-tables.
    pub range: Option<BoundingBox>,
    /// Optional fault injector exercising the execution (tests/chaos).
    pub faults: Option<Arc<FaultInjector>>,
    /// Retry/backoff/deadline policy for reads, sends and scratch writes.
    pub recovery: RecoveryPolicy,
    /// Cooperative cancellation: every worker loop and every recovery
    /// sleep observes this token, so a cancel (or deadline) unwinds the
    /// whole join within one sleep slice.
    pub cancel: CancelToken,
    /// Observability handle. Disabled by default; when enabled, storage
    /// nodes record `s{n}/read|partition|send` spans and compute nodes
    /// record `c{j}/scratch_write|scratch_read|build|probe` spans (one
    /// per cost-model term), and the merged [`RunStats`] are published
    /// into the metrics registry under the `gh/` prefix.
    pub obs: Obs,
}

impl Default for GraceHashConfig {
    fn default() -> Self {
        GraceHashConfig {
            n_compute: 2,
            mem_per_node: 256 << 20,
            scratch: ScratchKind::Memory,
            work_factor: 1,
            collect_results: false,
            range: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
            cancel: CancelToken::none(),
            obs: Obs::disabled(),
        }
    }
}

/// Result of a Grace Hash execution (same shape as IJ's).
pub type JoinOutput = crate::indexed::JoinOutput;

/// One routed message: encoded records of one side, grouped by bucket,
/// destined for one compute node.
struct Batch {
    side: Side,
    /// `(bucket index, packed records, CRC32C)` triples. The checksum is
    /// sealed when the frame is encoded; the link layer verifies it after
    /// any in-flight corruption and the receiver re-verifies before
    /// spilling to scratch.
    buckets: Vec<(u32, Vec<u8>, u32)>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    Left,
    Right,
}

/// splitmix64 over one row's join key, given as `(canonical key bits,
/// is-float family)` per key attribute. Both `h1` (low bits) and `h2`
/// (high bits) derive from this one hash.
fn hash_key(key: impl Iterator<Item = (u64, bool)>) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for (bits, float) in key {
        h ^= bits.wrapping_add((float as u64).wrapping_mul(0x1F83_D9AB_FB41_BD6B));
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// [`hash_key`] of every row of `batch` over the key columns
/// `key_indices`, handed to `each(row, hash)`. The key bits are gathered
/// with one typed pass per key column.
fn hash_rows(batch: &ColumnBatch, key_indices: &[usize], mut each: impl FnMut(usize, u64)) {
    let keys: Vec<(Vec<u64>, bool)> = key_indices
        .iter()
        .map(|&i| {
            let col = batch.column(i);
            (gather_key_bits(col), is_float(col.dtype()))
        })
        .collect();
    for r in 0..batch.num_rows() {
        each(
            r,
            hash_key(keys.iter().map(|(bits, float)| (bits[r], *float))),
        );
    }
}

/// Decode a bucket of packed little-endian records into typed columns of
/// `schema`. Total: any byte string is either whole records or a typed
/// [`Error::Format`].
pub(crate) fn decode_columns(schema: &Schema, bytes: &[u8]) -> Result<ColumnBatch> {
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

/// Pick the bucket count so each side's bucket fits in `mem_per_node`.
fn bucket_count(total_bytes: u64, n_compute: usize, mem_per_node: u64) -> usize {
    let per_node = total_bytes.div_ceil(n_compute as u64).max(1);
    per_node.div_ceil(mem_per_node.max(1)).max(1) as usize
}

/// Fan-out of one recursive repartitioning step.
const OVERFLOW_SPLIT: usize = 4;
/// Recursion limit — beyond this (extreme key skew) the bucket is joined
/// in memory regardless of the budget.
const MAX_OVERFLOW_DEPTH: u32 = 4;

/// Re-mix a [`hash_key`] with a depth salt for overflow repartitioning,
/// so sub-bucket assignment is independent of both `h1` and `h2`.
fn salt_hash(hash: u64, salt: u64) -> u64 {
    let mut h = hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// Everything one compute node's bucket-join phase needs; bundled so the
/// recursive helpers stay readable.
struct BucketJoinCtx<'a> {
    scratch: &'a Scratch,
    lschema: &'a Arc<Schema>,
    rschema: &'a Arc<Schema>,
    lkeys: &'a [usize],
    rkeys: &'a [usize],
    join_attrs: &'a [&'a str],
    counters: &'a JoinCounters,
    cfg: &'a GraceHashConfig,
    injector: &'a FaultInjector,
    /// Compute node index (for `corruption_detected` events).
    node: usize,
    /// Span group tag, `c{node}`.
    tag: String,
}

/// Read a scratch bucket and verify it against the store's running CRC,
/// retrying under the recovery policy when the read fails or an
/// (injected) corruption is detected. The durable bytes stay pristine —
/// only the returned copy is damaged — so a retry with a fresh draw
/// succeeds once the fault budget drains.
fn read_bucket_verified(ctx: &BucketJoinCtx, name: &str, stats: &mut RunStats) -> Result<Vec<u8>> {
    let mut corruptions = 0u64;
    let (bytes, retries) = ctx.cfg.recovery.run_cancellable(&ctx.cfg.cancel, || {
        let bytes = {
            let _read = ctx
                .cfg
                .obs
                .spans
                .span_with(|| names::span_tagged(&ctx.tag, names::PHASE_SCRATCH_READ));
            let mut bytes = ctx.scratch.read_bucket(name)?;
            ctx.injector
                .corrupt_scratch_read(ctx.node as u64, &mut bytes);
            bytes
        };
        if let Err(e) = ctx.scratch.verify_bucket(name, &bytes) {
            corruptions += 1;
            ctx.injector.events().emit(names::CORRUPTION_DETECTED, || {
                vec![
                    ("site", "scratch_read".into()),
                    ("what", name.to_string().into()),
                    ("node", ctx.node.into()),
                ]
            });
            return Err(e);
        }
        Ok(bytes)
    });
    stats.corruptions_detected += corruptions;
    stats.scratch_retries += retries;
    bytes
}

/// Repartition an oversized bucket into `OVERFLOW_SPLIT` sub-buckets on
/// scratch, re-hashing each record with a depth salt.
fn repartition_bucket(
    ctx: &BucketJoinCtx,
    name: &str,
    schema: &Schema,
    key_indices: &[usize],
    depth: u32,
    stats: &mut RunStats,
) -> Result<()> {
    let bytes = read_bucket_verified(ctx, name, stats)?;
    let batch = decode_columns(schema, &bytes)?;
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); OVERFLOW_SPLIT];
    hash_rows(&batch, key_indices, |r, h| {
        let k = (salt_hash(h, depth as u64 + 1) % OVERFLOW_SPLIT as u64) as usize;
        batch.encode_row_le(r, &mut outs[k]);
    });
    for (k, buf) in outs.into_iter().enumerate() {
        if !buf.is_empty() {
            let _write = ctx
                .cfg
                .obs
                .spans
                .span_with(|| names::span_tagged(&ctx.tag, names::PHASE_SCRATCH_WRITE));
            ctx.scratch.append(&format!("{name}.{k}"), &buf)?;
        }
    }
    Ok(())
}

/// Join one `(left, right)` bucket pair, recursively repartitioning when
/// either side exceeds the memory budget (Grace Hash overflow handling —
/// "bucket tuning" in its simplest recursive form).
fn join_bucket_pair(
    ctx: &BucketJoinCtx,
    lname: &str,
    rname: &str,
    depth: u32,
    stats: &mut RunStats,
    results: &mut Vec<ColumnBatch>,
) -> Result<u64> {
    let cfg = ctx.cfg;
    cfg.cancel.check()?;
    let spans = &cfg.obs.spans;
    let lsize = ctx.scratch.bucket_size(lname)?;
    let rsize = ctx.scratch.bucket_size(rname)?;
    if lsize == 0 || rsize == 0 {
        return Ok(0);
    }
    if depth < MAX_OVERFLOW_DEPTH && lsize.max(rsize) > cfg.mem_per_node {
        repartition_bucket(ctx, lname, ctx.lschema, ctx.lkeys, depth, stats)?;
        repartition_bucket(ctx, rname, ctx.rschema, ctx.rkeys, depth, stats)?;
        let mut produced = 0;
        for k in 0..OVERFLOW_SPLIT {
            produced += join_bucket_pair(
                ctx,
                &format!("{lname}.{k}"),
                &format!("{rname}.{k}"),
                depth + 1,
                stats,
                results,
            )?;
        }
        return Ok(produced);
    }
    let lbytes = read_bucket_verified(ctx, lname, stats)?;
    let rbytes = read_bucket_verified(ctx, rname, stats)?;
    let lst = SubTable::new(
        SubTableId::new(0u32, depth),
        Arc::clone(ctx.lschema),
        decode_columns(ctx.lschema, &lbytes)?,
    )?;
    let rst = SubTable::new(
        SubTableId::new(1u32, depth),
        Arc::clone(ctx.rschema),
        decode_columns(ctx.rschema, &rbytes)?,
    )?;
    let joiner = {
        let _build = spans.span_with(|| names::span_tagged(&ctx.tag, names::PHASE_BUILD));
        HashJoiner::build(Arc::new(lst), ctx.join_attrs, ctx.counters, cfg.work_factor)?
    };
    let _probe = spans.span_with(|| names::span_tagged(&ctx.tag, names::PHASE_PROBE));
    let found = joiner.matches(&rst, ctx.join_attrs, ctx.counters)?;
    if cfg.collect_results {
        results.push(joiner.gather(&rst, ctx.join_attrs, &found)?);
    }
    Ok(found.len())
}

/// Route one sub-table's rows into per-`(dest, bucket)` buffers, hashing
/// and encoding straight from the typed columns.
fn route_subtable(
    st: &SubTable,
    key_indices: &[usize],
    n_compute: usize,
    n_buckets: usize,
) -> Vec<Vec<(u32, Vec<u8>)>> {
    let mut out: Vec<Vec<(u32, Vec<u8>)>> = (0..n_compute).map(|_| Vec::new()).collect();
    // Dense (dest, bucket) → buffer map would waste memory for large
    // bucket counts; use a per-dest sparse assoc list (bucket counts per
    // message are small in practice).
    let batch = st.batch();
    hash_rows(batch, key_indices, |r, h| {
        let dest = (h % n_compute as u64) as usize;
        let bucket = ((h >> 32) % n_buckets as u64) as u32;
        let dest_buckets = &mut out[dest];
        let pos = match dest_buckets.iter().position(|(b, _)| *b == bucket) {
            Some(p) => p,
            None => {
                dest_buckets.push((bucket, Vec::new()));
                dest_buckets.len() - 1
            }
        };
        batch.encode_row_le(r, &mut dest_buckets[pos].1);
    });
    out
}

/// Send one batch. The (injected) link faults — a dropped message, a
/// frame corrupted in flight — are retried with fresh draws under the
/// recovery policy; the real channel send then happens once, outside it:
/// a receiver that is gone (its compute node died) never comes back, so
/// that fails fast with a typed error. Returns `(retries, corruptions
/// detected)`.
///
/// Integrity works like a link layer: each bucket's CRC32C was sealed at
/// encode time; an injected in-flight corruption flips one payload byte,
/// verification catches it, and the "retransmission" restores the
/// pristine frame (xor is involutive) before the next attempt.
fn send_with_recovery(
    sender: &crossbeam::channel::Sender<Batch>,
    mut batch: Batch,
    stream: u64,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
    cancel: &CancelToken,
) -> Result<(u64, u64)> {
    let mut corruptions = 0u64;
    let (link, retries) = policy.run_cancellable(cancel, || {
        match injector.send_verdict(stream) {
            SendVerdict::Drop => {
                return Err(Error::Cluster("interconnect message dropped".into()));
            }
            SendVerdict::Delay(d) => cancel.sleep(d)?,
            SendVerdict::Deliver => {}
        }
        for (b, bytes, crc) in batch.buckets.iter_mut() {
            // At most one corrupted frame per attempt.
            if let Some((off, mask)) = injector.corrupt_frame(stream, bytes) {
                let verified = checksum::verify(*crc, bytes, format_args!("frame bucket {b}"));
                bytes[off] ^= mask; // retransmit the pristine frame
                if verified.is_err() {
                    corruptions += 1;
                    injector.events().emit(names::CORRUPTION_DETECTED, || {
                        vec![
                            ("site", "frame".into()),
                            ("what", format!("bucket {b}").into()),
                        ]
                    });
                }
                return verified;
            }
        }
        Ok(())
    });
    link?;
    sender
        .send(batch)
        .map(|()| (retries, corruptions))
        .map_err(|_| Error::Cluster("compute node hung up".into()))
}

/// Execute `left ⊕ right` on `join_attrs` with the Grace Hash QES.
pub fn grace_hash_join(
    deployment: &Deployment,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    cfg: &GraceHashConfig,
) -> Result<JoinOutput> {
    if cfg.n_compute == 0 {
        return Err(Error::Config(
            "grace hash needs at least one compute node".into(),
        ));
    }
    let md = deployment.metadata();
    let lschema = md.schema(left)?;
    let rschema = md.schema(right)?;
    let lkeys: Vec<usize> = join_attrs
        .iter()
        .map(|a| lschema.require(a))
        .collect::<Result<_>>()?;
    let rkeys: Vec<usize> = join_attrs
        .iter()
        .map(|a| rschema.require(a))
        .collect::<Result<_>>()?;

    let total_bytes = md.total_records(left)? * lschema.record_size() as u64
        + md.total_records(right)? * rschema.record_size() as u64;
    let n_buckets = bucket_count(total_bytes, cfg.n_compute, cfg.mem_per_node);

    let injector = cfg.faults.clone().unwrap_or_else(FaultInjector::disabled);
    let reader = SubTableReader::new(
        deployment,
        Arc::clone(&injector),
        cfg.obs.spans.clone(),
        cfg.recovery,
        cfg.cancel.clone(),
    )?;
    let counters = JoinCounters::new();
    let results: Mutex<Vec<ColumnBatch>> = Mutex::new(Vec::new());
    let scratches: Vec<Scratch> = (0..cfg.n_compute)
        .map(|j| Scratch::new(cfg.scratch, &format!("gh{j}")))
        .collect::<Result<_>>()?;
    #[allow(
        clippy::disallowed_methods,
        reason = "wall-clock measurement feeding RunStats only; never drives control flow"
    )]
    let start = Instant::now();

    // Channels: one receiver per compute node, every storage node holds a
    // sender to each.
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..cfg.n_compute)
        .map(|_| crossbeam::channel::bounded::<Batch>(64))
        .unzip();
    let mut workers: Vec<(String, WorkerBody<'_, RunStats>)> = Vec::new();

    // --- Storage-node QES instances: scan local chunks, route records.
    for node in (0..deployment.num_storage_nodes()).map(|k| NodeId(k as u32)) {
        let senders = senders.clone();
        let (lkeys, rkeys, injector, reader) = (&lkeys, &rkeys, &injector, &reader);
        let body = move || {
            let mut stats = RunStats::default();
            for (table, keys, side) in [(left, lkeys, Side::Left), (right, rkeys, Side::Right)] {
                let chunks = md.all_chunks(table)?;
                for chunk in chunks {
                    cfg.cancel.check()?;
                    let id = SubTableId { table, chunk };
                    let meta = md.chunk_meta(id)?;
                    if meta.node != node {
                        continue;
                    }
                    if let Some(rg) = &cfg.range {
                        if !meta.bbox.overlaps(rg) {
                            continue;
                        }
                    }
                    let spans = &cfg.obs.spans;
                    let st = {
                        let _read = spans
                            .span_with(|| names::span_gh_sender(node.index(), names::PHASE_READ));
                        reader.fetch(id, cfg.range.as_ref(), &mut stats)?
                    };
                    let routed = {
                        let _partition = spans.span_with(|| {
                            names::span_gh_sender(node.index(), names::PHASE_PARTITION)
                        });
                        route_subtable(&st, keys, cfg.n_compute, n_buckets)
                    };
                    let _send =
                        spans.span_with(|| names::span_gh_sender(node.index(), names::PHASE_SEND));
                    for (dest, buckets) in routed.into_iter().enumerate() {
                        if buckets.is_empty() {
                            continue;
                        }
                        stats.bytes_transferred +=
                            buckets.iter().map(|(_, b)| b.len()).sum::<usize>() as u64;
                        // Seal each frame's CRC as it is encoded.
                        let buckets = buckets
                            .into_iter()
                            .map(|(b, bytes)| {
                                let crc = checksum::crc32c(&bytes);
                                (b, bytes, crc)
                            })
                            .collect();
                        let (retries, corruptions) = send_with_recovery(
                            &senders[dest],
                            Batch { side, buckets },
                            node.index() as u64,
                            injector,
                            &cfg.recovery,
                            &cfg.cancel,
                        )?;
                        stats.send_retries += retries;
                        stats.corruptions_detected += corruptions;
                    }
                }
            }
            Ok(stats)
        };
        workers.push((format!("storage node {node}"), Box::new(body)));
    }
    drop(senders); // compute receivers see EOF once storage finishes

    // --- Compute-node QES instances: spill buckets, then join pairs. A
    // dying compute worker drops its `rx`, which unblocks every storage
    // sender.
    for (j, rx) in receivers.into_iter().enumerate() {
        let scratch = &scratches[j];
        let (counters, results, injector) = (&counters, &results, &injector);
        let (lschema, rschema, lkeys, rkeys) = (&lschema, &rschema, &lkeys, &rkeys);
        let body = move || {
            let mut stats = RunStats::default();
            // Phase 1: append incoming bucket fragments to scratch.
            for batch in &rx {
                cfg.cancel.check()?;
                injector.worker_checkpoint(j);
                let prefix = match batch.side {
                    Side::Left => "L",
                    Side::Right => "R",
                };
                let _write = cfg.obs.spans.span_with(|| {
                    names::span_tagged(&names::gh_consumer_tag(j), names::PHASE_SCRATCH_WRITE)
                });
                for (b, bytes, crc) in batch.buckets {
                    // Defense in depth: the sender's link layer already
                    // verified the frame, so a mismatch here is a real
                    // bug, not a transient.
                    checksum::verify(crc, &bytes, format_args!("received bucket {prefix}{b}"))?;
                    // Injected write faults fire *before* any bytes land,
                    // so retrying them never duplicates data; a real I/O
                    // error from the append itself is returned as-is.
                    let (writable, retries) = cfg
                        .recovery
                        .run_cancellable(&cfg.cancel, || injector.before_scratch_write(j as u64));
                    stats.scratch_retries += retries;
                    writable?;
                    scratch.append(&format!("{prefix}{b}"), &bytes)?;
                }
            }
            // Phase 2: join bucket pairs independently, recursively
            // repartitioning any bucket that outgrew the memory budget.
            let mut local_results = Vec::new();
            let ctx = BucketJoinCtx {
                scratch,
                lschema,
                rschema,
                lkeys,
                rkeys,
                join_attrs,
                counters,
                cfg,
                injector,
                node: j,
                tag: names::gh_consumer_tag(j),
            };
            for b in 0..n_buckets {
                injector.worker_checkpoint(j);
                let produced = join_bucket_pair(
                    &ctx,
                    &format!("L{b}"),
                    &format!("R{b}"),
                    0,
                    &mut stats,
                    &mut local_results,
                )?;
                stats.result_tuples += produced;
            }
            results.lock().append(&mut local_results);
            Ok(stats)
        };
        workers.push((format!("compute node {j}"), Box::new(body)));
    }

    let per_node = all_done(run_workers(workers))?;

    let mut stats = RunStats::default();
    for s in &per_node {
        stats.merge(s);
    }
    // Scratch traffic is summed from the per-node Scratch handles rather
    // than per-worker stats snapshots: the handles are the single source
    // of truth, so bytes are never double-counted if a handle is shared
    // and never lost when a worker dies after writing.
    for sc in &scratches {
        stats.bytes_scratch_written += sc.bytes_written();
        stats.bytes_scratch_read += sc.bytes_read();
    }
    stats.corruptions_detected += reader.corruptions_detected();
    stats.wall_secs = start.elapsed().as_secs_f64();
    stats.hash_builds = counters.builds();
    stats.hash_probes = counters.probes();
    stats.record_into(&cfg.obs.metrics, "gh");
    Ok(JoinOutput {
        stats,
        batches: cfg.collect_results.then(|| results.into_inner()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{nested_loop_join, sort_records};
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_cluster::{Fault, FaultPlan};
    use orv_obs::EventLog;
    use orv_types::Interval;

    fn deploy(
        grid: [u64; 3],
        p1: [u64; 3],
        p2: [u64; 3],
        nodes: usize,
    ) -> (Deployment, TableId, TableId) {
        let d = Deployment::in_memory(nodes);
        let t1 = generate_dataset(
            &DatasetSpec::builder("t1")
                .grid(grid)
                .partition(p1)
                .scalar_attrs(&["oilp"])
                .seed(1)
                .build(),
            &d,
        )
        .unwrap();
        let t2 = generate_dataset(
            &DatasetSpec::builder("t2")
                .grid(grid)
                .partition(p2)
                .scalar_attrs(&["wp"])
                .seed(2)
                .build(),
            &d,
        )
        .unwrap();
        (d, t1.table, t2.table)
    }

    #[test]
    fn matches_nested_loop_oracle() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let cfg = GraceHashConfig {
            n_compute: 3,
            collect_results: true,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn agrees_with_indexed_join() {
        let (d, t1, t2) = deploy([8, 4, 2], [4, 2, 1], [2, 4, 2], 2);
        let gh = grace_hash_join(
            &d,
            t1,
            t2,
            &["x", "y", "z"],
            &GraceHashConfig {
                collect_results: true,
                ..Default::default()
            },
        )
        .unwrap();
        let ij = crate::indexed::indexed_join(
            &d,
            t1,
            t2,
            &["x", "y", "z"],
            &crate::indexed::IndexedJoinConfig {
                collect_results: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            sort_records(gh.records().unwrap()),
            sort_records(ij.records().unwrap())
        );
    }

    #[test]
    fn small_memory_forces_many_buckets() {
        assert_eq!(bucket_count(1000, 2, 100), 5);
        assert_eq!(bucket_count(1000, 2, 1 << 30), 1);
        assert_eq!(bucket_count(0, 2, 100), 1);
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [2, 2, 1], 2);
        let cfg = GraceHashConfig {
            n_compute: 2,
            mem_per_node: 64, // few records per bucket
            collect_results: true,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        assert!(out.stats.bytes_scratch_written > 0);
        assert_eq!(
            out.stats.bytes_scratch_written,
            out.stats.bytes_scratch_read
        );
    }

    #[test]
    fn oversized_buckets_recursively_repartition() {
        // Mismatched partitions with a tiny memory budget: several buckets
        // exceed it and must be split before joining.
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 1], 2);
        let cfg = GraceHashConfig {
            n_compute: 2,
            mem_per_node: 96, //6 records of 16 bytes
            collect_results: true,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        // Repartitioning re-writes data: scratch writes exceed one pass.
        assert!(
            out.stats.bytes_scratch_written > 128 * 2 * 16,
            "recursion must add scratch traffic: {}",
            out.stats.bytes_scratch_written
        );
    }

    #[test]
    fn extreme_key_skew_terminates_via_depth_limit() {
        // Joining on z over a z-extent-1 grid: every record shares ONE key,
        // so no amount of repartitioning can shrink the bucket. The depth
        // limit must kick in and the join still complete (64×64 pairs).
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [4, 4, 1], 2);
        let cfg = GraceHashConfig {
            n_compute: 2,
            mem_per_node: 64,
            collect_results: true,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["z"], &cfg).unwrap();
        assert_eq!(out.stats.result_tuples, 64 * 64);
        let expected = nested_loop_join(&d, t1, t2, &["z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn tempfile_scratch_roundtrips() {
        let (d, t1, t2) = deploy([4, 4, 2], [2, 2, 2], [4, 2, 1], 2);
        let cfg = GraceHashConfig {
            scratch: ScratchKind::TempFile,
            collect_results: true,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn range_constraint_matches_oracle() {
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [2, 2, 1], 2);
        let range = BoundingBox::from_dims([("x", Interval::new(2.0, 5.0))]);
        let cfg = GraceHashConfig {
            collect_results: true,
            range: Some(range.clone()),
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], Some(&range)).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn transfer_bytes_equal_both_tables() {
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [4, 4, 1], 2);
        let out =
            grace_hash_join(&d, t1, t2, &["x", "y", "z"], &GraceHashConfig::default()).unwrap();
        // Everything moves exactly once: T·(RS_R + RS_S).
        assert_eq!(out.stats.bytes_transferred, 64 * 16 + 64 * 16);
        assert_eq!(out.stats.result_tuples, 64);
    }

    #[test]
    fn transient_faults_all_recovered_and_counted() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let plan = FaultPlan {
            seed: 33,
            max_faults: 6,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 2)
        .with(Fault::SendDrop, 1.0, 2)
        .with(Fault::ScratchError, 1.0, 2);
        let cfg = GraceHashConfig {
            collect_results: true,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        assert!(out.stats.read_retries > 0, "{:?}", out.stats);
        assert!(out.stats.send_retries > 0, "{:?}", out.stats);
        assert!(out.stats.scratch_retries > 0, "{:?}", out.stats);
    }

    #[test]
    fn injected_corruptions_detected_recovered_and_logged() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let events = EventLog::enabled();
        let plan = FaultPlan {
            seed: 77,
            max_faults: 6,
            ..FaultPlan::none()
        }
        .with(Fault::ChunkCorrupt, 1.0, 2)
        .with(Fault::FrameCorrupt, 1.0, 2)
        .with(Fault::ScratchCorrupt, 1.0, 2);
        let injector = FaultInjector::new(plan, events.clone());
        let cfg = GraceHashConfig {
            collect_results: true,
            faults: Some(Arc::clone(&injector)),
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        // Every single injected corruption was caught by a checksum —
        // chunk pages at the BDS, frames at the link layer, scratch
        // buckets at read-back.
        let fstats = injector.stats();
        assert!(fstats[Fault::ChunkCorrupt] > 0, "{fstats:?}");
        assert!(fstats[Fault::FrameCorrupt] > 0, "{fstats:?}");
        assert!(fstats[Fault::ScratchCorrupt] > 0, "{fstats:?}");
        assert_eq!(out.stats.corruptions_detected, fstats.corruptions());
        assert_eq!(
            events.events_of_kind("corruption_detected").len() as u64,
            fstats.corruptions(),
            "one detection event per injected corruption"
        );
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
        let (tx, rx) = crossbeam::channel::bounded::<Batch>(1);
        drop(rx);
        let bytes = vec![7u8; 16];
        let crc = checksum::crc32c(&bytes);
        let batch = Batch {
            side: Side::Left,
            buckets: vec![(0, bytes, crc)],
        };
        let err = send_with_recovery(
            &tx,
            batch,
            0,
            &injector,
            &RecoveryPolicy::default(),
            &CancelToken::none(),
        )
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
    }

    #[test]
    fn exhausted_scratch_read_returns_the_integrity_error_unchanged() {
        let scratch = Scratch::new(ScratchKind::Memory, "t").unwrap();
        scratch.append("L0", &[1u8; 32]).unwrap();
        let plan = FaultPlan {
            seed: 4,
            max_faults: 10,
            ..FaultPlan::none()
        }
        .with(Fault::ScratchCorrupt, 1.0, 10);
        let injector = FaultInjector::new(plan, EventLog::disabled());
        let cfg = GraceHashConfig {
            recovery: RecoveryPolicy {
                max_attempts: 2,
                base_backoff_ms: 0,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        let schema = Arc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let counters = JoinCounters::new();
        let ctx = BucketJoinCtx {
            scratch: &scratch,
            lschema: &schema,
            rschema: &schema,
            lkeys: &[0],
            rkeys: &[0],
            join_attrs: &["x"],
            counters: &counters,
            cfg: &cfg,
            injector: &injector,
            node: 0,
            tag: names::gh_consumer_tag(0),
        };
        let mut stats = RunStats::default();
        let err = read_bucket_verified(&ctx, "L0", &mut stats).unwrap_err();
        // Not wrapped, not re-worded: the checksum layer's own error.
        assert!(
            matches!(&err, Error::Integrity(m) if m.starts_with("scratch bucket L0: crc32c mismatch")),
            "{err}"
        );
        assert_eq!(stats.scratch_retries, 1, "two attempts, one retry");
        assert_eq!(stats.corruptions_detected, 2);
        assert_eq!(
            injector.stats()[Fault::ScratchCorrupt],
            2,
            "one draw per attempt"
        );
    }

    #[test]
    fn seeded_fault_draws_match_the_hand_written_retry_loops() {
        // The `(kind, site, stream, draw)` multiset below was captured from
        // the hand-written retry loops this module had before it moved
        // under `RecoveryPolicy::run_cancellable`. Per-stream draw order
        // and count per attempt are part of the replay contract: one
        // `send_verdict` then `corrupt_frame` per bucket up to the first
        // hit; one `before_scratch_write`; one `corrupt_scratch_read`. No
        // cap binds, so the multiset is a pure function of the seed.
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let events = EventLog::enabled();
        let plan = FaultPlan {
            seed: 5,
            max_faults: 1_000_000,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 0.2, 1_000)
        .with(Fault::SendDrop, 0.15, 1_000)
        .with(Fault::SendDelay, 0.1, 1)
        .with(Fault::ScratchError, 0.2, 1_000)
        .with(Fault::ChunkCorrupt, 0.2, 1_000)
        .with(Fault::FrameCorrupt, 0.04, 1_000)
        .with(Fault::ScratchCorrupt, 0.2, 1_000);
        let cfg = GraceHashConfig {
            n_compute: 2,
            mem_per_node: 256,
            collect_results: true,
            faults: Some(FaultInjector::new(plan, events.clone())),
            recovery: RecoveryPolicy {
                max_attempts: 8,
                base_backoff_ms: 0,
                op_deadline_ms: 60_000,
            },
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        let mut got: Vec<(String, String, u64, u64)> = events
            .events_of_kind("fault_injected")
            .iter()
            .map(|e| {
                (
                    e.fields["kind"].as_str().unwrap().to_string(),
                    e.fields["site"].as_str().unwrap().to_string(),
                    e.fields["stream"].as_u64().unwrap(),
                    e.fields["draw"].as_u64().unwrap(),
                )
            })
            .collect();
        got.sort();
        let draws = |kind: &str, site: &str, stream: u64, draws: &[u64]| {
            draws
                .iter()
                .map(|&n| (kind.to_string(), site.to_string(), stream, n))
                .collect::<Vec<_>>()
        };
        let want: Vec<_> = [
            draws("chunk_corrupt", "chunk_page", 1, &[3]),
            draws("frame_corrupt", "frame", 0, &[39]),
            draws("frame_corrupt", "frame", 1, &[12, 38]),
            draws("read_error", "chunk_read", 0, &[0, 3]),
            draws("scratch_corrupt", "scratch_read", 0, &[13]),
            draws("scratch_corrupt", "scratch_read", 1, &[3, 5, 6, 9, 16, 19]),
            draws(
                "scratch_error",
                "scratch_write",
                0,
                &[
                    6, 8, 10, 13, 19, 23, 32, 37, 41, 43, 48, 54, 55, 56, 58, 62, 69,
                ],
            ),
            draws(
                "scratch_error",
                "scratch_write",
                1,
                &[8, 11, 13, 16, 18, 29, 37, 53, 55, 58],
            ),
            draws("send_delay", "send", 1, &[3, 15]),
            draws("send_drop", "send", 0, &[0, 9, 14]),
            draws("send_drop", "send", 1, &[8, 11]),
        ]
        .concat();
        assert_eq!(got, want);
        // …and the retry accounting the parent reported for this seed.
        assert_eq!(out.stats.read_retries, 3);
        assert_eq!(out.stats.send_retries, 8);
        assert_eq!(out.stats.scratch_retries, 34);
        assert_eq!(out.stats.corruptions_detected, 11);
    }

    #[test]
    fn cancelled_join_returns_cancelled_error() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = GraceHashConfig {
            cancel,
            ..Default::default()
        };
        let err = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
    }

    #[test]
    fn compute_worker_panic_fails_fast_with_typed_error() {
        use orv_cluster::{silence_injected_panics, WorkerPanicSpec};
        silence_injected_panics();
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [2, 2, 1], 2);
        let plan = FaultPlan {
            seed: 9,
            worker_panics: vec![WorkerPanicSpec {
                worker: 0,
                after_ops: 0,
            }],
            max_faults: 1,
            ..FaultPlan::none()
        };
        let cfg = GraceHashConfig {
            n_compute: 2,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        let err = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        assert!(
            err.to_string().contains("panicked"),
            "root cause, not 'hung up': {err}"
        );
    }

    #[test]
    fn instrumented_run_records_phase_spans_and_metrics() {
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [2, 2, 1], 2);
        let obs = Obs::enabled();
        let cfg = GraceHashConfig {
            n_compute: 2,
            mem_per_node: 256, // force scratch traffic through every phase
            obs: obs.clone(),
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let totals = obs.spans.total_secs_by_leaf();
        for leaf in [
            "read",
            "partition",
            "send",
            "scratch_write",
            "scratch_read",
            "build",
            "probe",
        ] {
            assert!(totals.contains_key(leaf), "missing {leaf}: {totals:?}");
        }
        // Storage phases under `s{n}` groups, compute phases under `c{j}`.
        let by_group = obs.spans.group_leaf_totals();
        assert!(by_group.keys().any(|g| g.starts_with('s')), "{by_group:?}");
        assert!(by_group.keys().any(|g| g.starts_with('c')), "{by_group:?}");
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.counters.get("gh/result_tuples").copied(),
            Some(out.stats.result_tuples)
        );
        assert_eq!(
            snap.counters.get("gh/bytes_scratch_written").copied(),
            Some(out.stats.bytes_scratch_written)
        );
    }

    #[test]
    fn scratch_bytes_survive_counting_once_per_handle() {
        // The coordinator derives scratch byte totals from the Scratch
        // handles; merged per-worker stats must agree with the symmetric
        // write/read invariant even when buckets repartition recursively.
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 1], 2);
        let cfg = GraceHashConfig {
            n_compute: 3,
            mem_per_node: 96,
            ..Default::default()
        };
        let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        assert!(out.stats.bytes_scratch_written > 0);
        assert_eq!(
            out.stats.bytes_scratch_written,
            out.stats.bytes_scratch_read
        );
    }

    /// A sub-table of `n` rows over `(x: i32, y: i32, wp: f32)`.
    fn xy_subtable(n: i32) -> SubTable {
        let schema = Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::I32((0..n).map(|i| i % 50).collect()),
            ColumnData::I32((0..n).map(|i| i / 50).collect()),
            ColumnData::F32((0..n).map(|i| i as f32 * 0.5).collect()),
        ])
        .unwrap();
        SubTable::new(SubTableId::new(0u32, 0u32), schema, batch).unwrap()
    }

    #[test]
    fn hash_functions_spread_and_are_deterministic() {
        let st = xy_subtable(1000);
        let mut hashes = Vec::new();
        hash_rows(st.batch(), &[0, 1], |r, h| {
            assert_eq!(r, hashes.len());
            hashes.push(h);
        });
        // `h1` (low bits → node) and `h2` (high bits → bucket).
        let mut node_counts = vec![0usize; 4];
        let mut bucket_counts = vec![0usize; 8];
        for (r, &h) in hashes.iter().enumerate() {
            node_counts[(h % 4) as usize] += 1;
            bucket_counts[((h >> 32) % 8) as usize] += 1;
            // The typed gather hashes what the `Value`s would.
            let key = [st.column(0).value(r), st.column(1).value(r)];
            let by_value = key.iter().map(|v| (v.key_bits(), is_float(v.data_type())));
            assert_eq!(h, hash_key(by_value));
        }
        for &c in &node_counts {
            assert!(c > 150, "h1 skewed: {node_counts:?}");
        }
        for &c in &bucket_counts {
            assert!(c > 60, "h2 skewed: {bucket_counts:?}");
        }
        // Same bits, other family: a different key.
        assert_ne!(
            hash_key([(7, false)].into_iter()),
            hash_key([(7, true)].into_iter())
        );
    }

    #[test]
    fn record_wire_format_roundtrips() {
        let st = xy_subtable(10);
        let schema = st.schema();
        let mut bytes = Vec::new();
        for r in 0..st.num_rows() {
            st.batch().encode_row_le(r, &mut bytes);
        }
        assert_eq!(bytes.len(), 10 * schema.record_size());
        // The wire format is each `Value`'s little-endian bytes, in order.
        let mut by_value = Vec::new();
        for rec in st.records().unwrap() {
            rec.values().iter().for_each(|v| v.encode_le(&mut by_value));
        }
        assert_eq!(bytes, by_value);
        assert_eq!(&decode_columns(schema, &bytes).unwrap(), st.batch());
        let err = decode_columns(schema, &bytes[..5]).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
    }

    #[test]
    fn routing_covers_all_rows_once() {
        let st = xy_subtable(100);
        let rs = st.schema().record_size();
        let routed = route_subtable(&st, &[0, 1], 3, 4);
        let mut rows = Vec::new();
        for dest in &routed {
            for (b, bytes) in dest {
                assert!(*b < 4, "bucket index in range");
                assert_eq!(bytes.len() % rs, 0);
                rows.extend(
                    decode_columns(st.schema(), bytes)
                        .unwrap()
                        .to_records()
                        .unwrap(),
                );
            }
        }
        assert_eq!(sort_records(rows), sort_records(st.records().unwrap()));
    }

    mod decode_props {
        use super::*;
        use orv_types::{Attribute, DataType};
        use proptest::prelude::*;

        fn schema_strategy() -> impl Strategy<Value = Schema> {
            let dtype = prop_oneof![
                Just(DataType::I32),
                Just(DataType::I64),
                Just(DataType::F32),
                Just(DataType::F64),
            ];
            proptest::collection::vec(dtype, 1..6).prop_map(|types| {
                let attrs = types.into_iter().enumerate();
                Schema::new(
                    attrs
                        .map(|(i, t)| Attribute::scalar(format!("a{i}"), t))
                        .collect(),
                )
                .unwrap()
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Any byte string decodes to whole records — exactly
            /// `len / record_size` rows in every column, each the
            /// little-endian value at its offset — or to a typed
            /// `Error::Format`; never a panic. Re-encoding reproduces the
            /// input, so every bit pattern (NaN payloads, `-0.0`)
            /// survives.
            #[test]
            fn decode_columns_is_total_and_bit_exact(
                schema in schema_strategy(),
                bytes in proptest::collection::vec(any::<u8>(), 0..256),
            ) {
                let rs = schema.record_size();
                match decode_columns(&schema, &bytes) {
                    Ok(batch) => {
                        prop_assert_eq!(bytes.len() % rs, 0);
                        prop_assert_eq!(batch.num_columns(), schema.arity());
                        prop_assert_eq!(batch.dtypes(), schema.dtypes());
                        for c in 0..batch.num_columns() {
                            prop_assert_eq!(batch.column(c).len(), bytes.len() / rs);
                        }
                        let mut back = Vec::with_capacity(bytes.len());
                        for r in 0..batch.num_rows() {
                            batch.encode_row_le(r, &mut back);
                        }
                        prop_assert_eq!(back, bytes);
                    }
                    Err(e) => {
                        prop_assert!(matches!(e, Error::Format(_)), "{e}");
                        prop_assert!(bytes.len() % rs != 0);
                    }
                }
            }
        }
    }
}
