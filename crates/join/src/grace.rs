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
//! Storage nodes and compute nodes are OS threads. This module holds the
//! algorithm; [`orv_cluster::exchange`] moves its bytes: `h1` routing is
//! a [`Link`](orv_cluster::exchange::Link) from every storage node to
//! every compute node, and each compute worker owns a [`BucketQueue`]
//! (memory or real temp files). The sender hashes each record once
//! (deriving both `h1` and `h2` from the same 64-bit hash, taken over the
//! key columns' typed key bits), groups a sub-table's rows by
//! `(destination, bucket)` and writes every frame at its exact size, one
//! typed loop per column ([`encode_frames`]); overflow repartitioning
//! uses the same encoder. The receiver enqueues each frame
//! as it arrived (a memory queue keeps the frame, not a copy of it), and
//! a bucket decodes straight back into typed columns, so no row objects
//! are materialized on the partition path.
//!
//! Nor on the join path. A bucket pair is joined the way Grace joins
//! tables, one level down (Shatdal, Kant & Naughton, "Cache Conscious
//! Algorithms for Relational Query Processing", VLDB 1994): a salted hash
//! of the key splits it into slices of about `SUBTABLE_ROWS` build rows,
//! the table size `α` is calibrated on, so that each slice's hash table
//! fits in the CPU cache. Slice by slice, the key columns are gathered,
//! built and probed by the index-returning kernel IJ uses
//! ([`HashJoiner`]). The matches are mapped back to bucket rows and put
//! back in probe order — the order one table over the whole bucket would
//! give — and the pair is gathered once into one typed [`ColumnBatch`],
//! or only counted.

//! ## Fault tolerance
//!
//! Every chunk read goes through the execution's
//! [`SubTableReader`](orv_bds::SubTableReader), and every interconnect
//! send, bucket write and bucket read-back is one attempt closure under
//! the same configured [`RecoveryPolicy`]
//! (`run_cancellable`, the only retry loop in either): injected
//! read/write faults, dropped messages and checksum-detected corruptions
//! are retried with fresh draws and backoff, and an exhausted policy
//! surfaces the underlying error. Storage and compute node threads
//! run on `orv_cluster::workers::run_workers`, which contains a panic as a
//! typed end and joins every handle. Unlike IJ, a dead compute node
//! cannot be replaced: its buckets (and any in-flight records
//! routed to it by `h1`) die with it, so Grace Hash *fails fast* — the
//! dropped receiver unblocks every storage sender, and `all_done` reports
//! the panic (not the secondary "hung up" errors) as the join's error
//! within a bounded deadline rather than a hang.

use crate::hash_join::{
    gather_matches, is_float, HashJoiner, JoinCounters, Matches, SUBTABLE_ROWS,
};
use crate::indexed::RunFrame;
use orv_bds::Deployment;
use orv_chunk::SubTable;
use orv_cluster::exchange::{encode_frames, interconnect, BucketKey, BucketQueue, Recovery, Side};
use orv_cluster::{
    all_done, run_workers, CancelToken, FaultInjector, RecoveryPolicy, RunStats, ScratchKind,
    WorkerBody,
};
use orv_obs::{names, Obs};
use orv_types::{BoundingBox, ChunkId, ColumnBatch, Error, Result, Schema, SubTableId, TableId};
use std::sync::Arc;

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
    /// Retry/backoff policy for reads, sends and scratch writes.
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

/// Starting state of a key hash.
const KEY_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Fold one key attribute — its canonical key bits and whether it is of
/// the float family — into a running key hash.
#[inline]
fn mix_key(h: u64, bits: u64, float: bool) -> u64 {
    let h = (h ^ bits.wrapping_add((float as u64).wrapping_mul(0x1F83_D9AB_FB41_BD6B)))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// splitmix64's finaliser, over a key folded by [`mix_key`].
#[inline]
fn finish_key(h: u64) -> u64 {
    let h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// The key hash of every row of `batch` over the key columns
/// `key_indices`: the key attributes folded in order from [`KEY_SEED`] by
/// [`mix_key`], then [`finish_key`]. Both `h1` (low bits) and `h2` (high
/// bits) derive from this one hash. It is folded one key column at a
/// time, into one running hash per row.
fn hash_rows(batch: &ColumnBatch, key_indices: &[usize]) -> Vec<u64> {
    let mut hashes = vec![KEY_SEED; batch.num_rows()];
    let mut bits = Vec::with_capacity(batch.num_rows());
    for &i in key_indices {
        let col = batch.column(i);
        let float = is_float(col.dtype());
        bits.clear();
        col.key_bits_into(&mut bits);
        for (h, &b) in hashes.iter_mut().zip(&bits) {
            *h = mix_key(*h, b, float);
        }
    }
    for h in &mut hashes {
        *h = finish_key(*h);
    }
    hashes
}

/// Rows grouped by their group `of[r] < groups`, a stable counting sort in
/// O(rows + groups): group `g` is `order[starts[g]..starts[g + 1]]`, its
/// rows ascending.
fn group_rows(of: &[u32], groups: usize) -> (Vec<u32>, Vec<usize>) {
    // `at[g + 1]` counts group `g`; summed up, `at[g]` is where group `g`
    // starts, and then the cursor of its next row.
    let mut at = vec![0usize; groups + 1];
    for &g in of {
        at[g as usize + 1] += 1;
    }
    for g in 0..groups {
        at[g + 1] += at[g];
    }
    let mut order = vec![0u32; of.len()];
    for (r, &g) in of.iter().enumerate() {
        let next = &mut at[g as usize];
        order[*next] = r as u32;
        *next += 1;
    }
    // Each cursor stopped where the next group starts.
    at.rotate_right(1);
    at[0] = 0;
    (order, at)
}

/// Pick the bucket count so each side's bucket fits in `mem_per_node`.
pub(crate) fn bucket_count(total_bytes: u64, n_compute: usize, mem_per_node: u64) -> usize {
    let per_node = total_bytes.div_ceil(n_compute as u64).max(1);
    per_node.div_ceil(mem_per_node.max(1)).max(1) as usize
}

/// Fan-out of one recursive repartitioning step.
const OVERFLOW_SPLIT: usize = 4;
/// Recursion limit — beyond this (extreme key skew) the bucket is joined
/// in memory regardless of the budget.
const MAX_OVERFLOW_DEPTH: u32 = 4;

/// Salt of the slice a row of a bucket pair is joined in: none of the
/// overflow depths' salts (`1..=MAX_OVERFLOW_DEPTH`), so slices are
/// independent of `h1`, `h2` and every sub-bucket.
const SLICE_SALT: u64 = 0x5_11CE;

/// Re-mix a key hash ([`hash_rows`]) with a salt — a depth for overflow
/// repartitioning, [`SLICE_SALT`] for slices — so the assignment is
/// independent of both `h1` and `h2`.
fn salt_hash(hash: u64, salt: u64) -> u64 {
    let mut h = hash ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 31)
}

/// Everything one compute node needs to join its bucket pairs; bundled so
/// the recursive helpers stay readable.
struct BucketJoinCtx<'a> {
    lschema: &'a Arc<Schema>,
    rschema: &'a Arc<Schema>,
    lkeys: &'a [usize],
    rkeys: &'a [usize],
    join_attrs: &'a [&'a str],
    counters: &'a JoinCounters,
    cfg: &'a GraceHashConfig,
    /// Span group tag, `c{node}`.
    tag: String,
}

/// Repartition an oversized bucket into `OVERFLOW_SPLIT` sub-buckets,
/// re-hashing each record with a depth salt.
fn repartition_bucket(
    queue: &mut BucketQueue,
    key: BucketKey,
    (schema, key_indices): (&Schema, &[usize]),
    depth: u32,
    stats: &mut RunStats,
) -> Result<()> {
    let batch = queue.dequeue(key, schema, stats)?;
    let sub_of: Vec<usize> = hash_rows(&batch, key_indices)
        .into_iter()
        .map(|h| (salt_hash(h, depth as u64 + 1) % OVERFLOW_SPLIT as u64) as usize)
        .collect();
    for (k, frame) in encode_frames(&batch, &sub_of) {
        queue.enqueue(key.child(k), frame, stats)?;
    }
    Ok(())
}

/// Join one `(left, right)` bucket pair, recursively repartitioning when
/// either side exceeds the memory budget (Grace Hash overflow handling —
/// "bucket tuning" in its simplest recursive form).
fn join_bucket_pair(
    ctx: &BucketJoinCtx,
    queue: &mut BucketQueue,
    [lkey, rkey]: [BucketKey; 2],
    depth: u32,
    stats: &mut RunStats,
    results: &mut Vec<ColumnBatch>,
) -> Result<u64> {
    let cfg = ctx.cfg;
    cfg.cancel.check()?;
    let (lsize, rsize) = (queue.bytes(lkey), queue.bytes(rkey));
    if lsize == 0 || rsize == 0 {
        // Nothing joins; the other side's bucket is not read again.
        queue.discard(lkey)?;
        queue.discard(rkey)?;
        return Ok(0);
    }
    if depth < MAX_OVERFLOW_DEPTH && lsize.max(rsize) > cfg.mem_per_node {
        repartition_bucket(queue, lkey, (ctx.lschema, ctx.lkeys), depth, stats)?;
        repartition_bucket(queue, rkey, (ctx.rschema, ctx.rkeys), depth, stats)?;
        let mut produced = 0;
        for k in 0..OVERFLOW_SPLIT {
            let pair = [lkey.child(k), rkey.child(k)];
            produced += join_bucket_pair(ctx, queue, pair, depth + 1, stats, results)?;
        }
        return Ok(produced);
    }
    let mut read = |table: u32, key, schema: &Arc<Schema>| {
        let batch = queue.dequeue(key, schema, stats)?;
        SubTable::new(SubTableId::new(table, depth), Arc::clone(schema), batch)
    };
    let (lst, rst) = (read(0, lkey, ctx.lschema)?, read(1, rkey, ctx.rschema)?);
    let found = bucket_matches(ctx, &lst, &rst)?;
    if cfg.collect_results {
        let _probe = cfg
            .obs
            .spans
            .span_with(|| names::span_tagged(&ctx.tag, names::PHASE_PROBE));
        results.push(gather_matches(&lst, &rst, ctx.join_attrs, &found)?);
    }
    Ok(found.len())
}

/// A bucket's rows split into slices by a salted hash of the key.
struct Slices {
    /// The slice of every row.
    of: Vec<u32>,
    /// The rows grouped by slice, as [`group_rows`] returns them.
    order: Vec<u32>,
    starts: Vec<usize>,
    /// The key columns, in storage order, and the schema of a slice.
    cols: Vec<usize>,
    schema: Arc<Schema>,
}

impl Slices {
    fn new(st: &SubTable, key_indices: &[usize], slices: usize) -> Result<Self> {
        let of: Vec<u32> = hash_rows(st.batch(), key_indices)
            .into_iter()
            .map(|h| (salt_hash(h, SLICE_SALT) % slices as u64) as u32)
            .collect();
        let (order, starts) = group_rows(&of, slices);
        let mut cols = key_indices.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let attrs = cols.iter().map(|&c| st.schema().attrs()[c].clone());
        let schema = Arc::new(Schema::new(attrs.collect())?);
        Ok(Slices {
            of,
            order,
            starts,
            cols,
            schema,
        })
    }

    /// The rows of slice `s`, ascending.
    fn rows(&self, s: usize) -> &[u32] {
        &self.order[self.starts[s]..self.starts[s + 1]]
    }

    /// Slice `s` of `st` as a sub-table of its key columns, all that
    /// building and probing read.
    fn gather(&self, st: &SubTable, s: usize) -> Result<SubTable> {
        let rows = self.rows(s);
        let cols = self.cols.iter().map(|&c| st.column(c).gather(rows));
        SubTable::new(
            st.id(),
            Arc::clone(&self.schema),
            ColumnBatch::from_columns(cols.collect())?,
        )
    }
}

/// The matched `(build row, probe row)` pairs of a decoded bucket pair, in
/// the order of [`Matches`] — the pairs one table over all of `lst` would
/// return — found in slices of about `SUBTABLE_ROWS` build rows. A key's
/// rows on both sides fall in one slice. Each slice's key columns are
/// gathered into sub-tables, built and probed in turn; its buffers are
/// freed before the next slice is gathered, which reuses their cache-warm
/// memory. Every build and probe row is counted once per `work_factor`,
/// as one table would count them. A count-only join takes the pairs in
/// slice order; a bucket of one slice has them in probe order already.
fn bucket_matches(ctx: &BucketJoinCtx, lst: &SubTable, rst: &SubTable) -> Result<Matches> {
    let cfg = ctx.cfg;
    let spans = &cfg.obs.spans;
    let span = |phase| spans.span_with(|| names::span_tagged(&ctx.tag, phase));
    let slices = lst.num_rows().div_ceil(SUBTABLE_ROWS).max(1);
    let lslices = {
        let _build = span(names::PHASE_BUILD);
        Slices::new(lst, ctx.lkeys, slices)?
    };
    let rslices = {
        let _probe = span(names::PHASE_PROBE);
        Slices::new(rst, ctx.rkeys, slices)?
    };
    // Slice `s`'s pairs, in bucket rows, are `found[ends[s - 1]..ends[s]]`.
    let mut found = Matches::default();
    found.build.reserve(rst.num_rows());
    found.probe.reserve(rst.num_rows());
    let mut ends = Vec::with_capacity(slices);
    for s in 0..slices {
        let (lrows, rrows) = (lslices.rows(s), rslices.rows(s));
        let joiner = {
            let _build = span(names::PHASE_BUILD);
            let left = Arc::new(lslices.gather(lst, s)?);
            HashJoiner::build(left, ctx.join_attrs, ctx.counters, cfg.work_factor)?
        };
        let _probe = span(names::PHASE_PROBE);
        let m = joiner.matches(&rslices.gather(rst, s)?, ctx.join_attrs, ctx.counters)?;
        found
            .build
            .extend(m.build.iter().map(|&b| lrows[b as usize]));
        found
            .probe
            .extend(m.probe.iter().map(|&p| rrows[p as usize]));
        ends.push(found.build.len());
    }
    if !cfg.collect_results || slices == 1 {
        return Ok(found);
    }
    // Back to probe order. The merge is not dead weight: the engine's row
    // edge sorts GH's rows stably and takes advantage of the ascending runs
    // probe order keeps. Without it `join_gh`'s p50 went 64.4 → 75.6 ms
    // (seed 1, medians of six alternating 8 s pairs on a 2-core x86-64
    // host, slower in all six). A probe row's pairs are one run of its
    // slice's, build rows ascending, and each slice's runs come in probe
    // order; so taking, for each probe row in turn, the run at its slice's
    // cursor is a stable sort of the pairs on the probe row.
    let _probe = span(names::PHASE_PROBE);
    let mut at: Vec<usize> = std::iter::once(0)
        .chain(ends[..slices - 1].iter().copied())
        .collect();
    let mut sorted = Matches::default();
    sorted.build.reserve(found.build.len());
    sorted.probe.reserve(found.build.len());
    for (p, &s) in rslices.of.iter().enumerate() {
        let (at, end) = (&mut at[s as usize], ends[s as usize]);
        while *at < end && found.probe[*at] as usize == p {
            sorted.build.push(found.build[*at]);
            sorted.probe.push(p as u32);
            *at += 1;
        }
    }
    Ok(sorted)
}

/// Route one sub-table's rows into per-`(dest, bucket)` frames: each row
/// is hashed once, and the rows of each `(dest, bucket)` pair become one
/// frame ([`encode_frames`]). A destination's frames come in bucket order.
pub(crate) fn route_subtable(
    st: &SubTable,
    key_indices: &[usize],
    n_compute: usize,
    n_buckets: usize,
) -> Vec<Vec<(u32, Vec<u8>)>> {
    let batch = st.batch();
    let pair_of: Vec<usize> = hash_rows(batch, key_indices)
        .into_iter()
        .map(|h| {
            let dest = (h % n_compute as u64) as usize;
            dest * n_buckets + ((h >> 32) % n_buckets as u64) as usize
        })
        .collect();
    let mut out: Vec<Vec<(u32, Vec<u8>)>> = (0..n_compute).map(|_| Vec::new()).collect();
    for (pair, frame) in encode_frames(batch, &pair_of) {
        out[pair / n_buckets].push(((pair % n_buckets) as u32, frame));
    }
    out
}

/// Execute `left ⊕ right` on `join_attrs` with the Grace Hash QES.
pub fn grace_hash_join(
    deployment: &Deployment,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    cfg: &GraceHashConfig,
) -> Result<JoinOutput> {
    let frame = RunFrame::open(
        deployment,
        "grace hash",
        cfg.n_compute,
        cfg.faults.as_ref(),
        cfg.recovery,
        &cfg.cancel,
        &cfg.obs,
    )?;
    let md = deployment.metadata();
    let lschema = md.schema(left)?;
    let rschema = md.schema(right)?;
    let keys = |schema: &Schema| -> Result<Vec<usize>> {
        join_attrs.iter().map(|a| schema.require(a)).collect()
    };
    let (lkeys, rkeys) = (keys(&lschema)?, keys(&rschema)?);

    let total_bytes = md.total_records(left)? * lschema.record_size() as u64
        + md.total_records(right)? * rschema.record_size() as u64;
    let n_buckets = bucket_count(total_bytes, cfg.n_compute, cfg.mem_per_node);

    // Each storage node's chunks of either table, ascending: the range's
    // R-tree lookup (or the whole table), once per table.
    let n_storage = deployment.num_storage_nodes();
    let mut local: Vec<[Vec<ChunkId>; 2]> = vec![Default::default(); n_storage];
    for (t, table) in [left, right].into_iter().enumerate() {
        let chunks = match &cfg.range {
            Some(rg) => md.find_chunks(table, rg)?,
            None => md.all_chunks(table)?,
        };
        for chunk in chunks {
            let node = md.chunk_meta(SubTableId { table, chunk })?.node;
            let missing = || Error::Cluster(format!("chunk {chunk} is on undeployed node {node}"));
            local.get_mut(node.index()).ok_or_else(missing)?[t].push(chunk);
        }
    }

    let recovery = Recovery {
        faults: &frame.injector,
        policy: cfg.recovery,
        cancel: &cfg.cancel,
    };
    let (links, receivers) = interconnect(n_storage, cfg.n_compute, recovery);
    let mut workers: Vec<(String, WorkerBody<'_, _>)> = Vec::new();

    // --- Storage-node QES instances: scan local chunks, route records. A
    // link drops when its node is done; compute receivers end once all
    // have.
    for (node, (link, chunks)) in links.into_iter().zip(local).enumerate() {
        let (lkeys, rkeys, reader) = (&lkeys, &rkeys, &frame.reader);
        let body = move || {
            let mut stats = RunStats::default();
            let [lchunks, rchunks] = chunks;
            let sides = [
                (left, lkeys, Side::Left, lchunks),
                (right, rkeys, Side::Right, rchunks),
            ];
            for (table, keys, side, chunks) in sides {
                for chunk in chunks {
                    cfg.cancel.check()?;
                    let spans = &cfg.obs.spans;
                    let st = {
                        let _read =
                            spans.span_with(|| names::span_gh_sender(node, names::PHASE_READ));
                        reader.fetch(SubTableId { table, chunk }, cfg.range.as_ref(), &mut stats)?
                    };
                    let routed = {
                        let _partition =
                            spans.span_with(|| names::span_gh_sender(node, names::PHASE_PARTITION));
                        route_subtable(&st, keys, cfg.n_compute, n_buckets)
                    };
                    let _send = spans.span_with(|| names::span_gh_sender(node, names::PHASE_SEND));
                    for (dest, frames) in routed.into_iter().enumerate() {
                        if !frames.is_empty() {
                            link.send(dest, side, frames, &mut stats)?;
                        }
                    }
                }
            }
            Ok((stats, Vec::new()))
        };
        workers.push((format!("storage node {node}"), Box::new(body)));
    }

    // --- Compute-node QES instances: enqueue bucket frames, then join
    // pairs. A dying compute worker drops its `rx`, which unblocks every
    // storage sender, and its queue, which removes its bucket files.
    for (j, rx) in receivers.into_iter().enumerate() {
        let (injector, counters) = (&frame.injector, &frame.counters);
        let (lschema, rschema, lkeys, rkeys) = (&lschema, &rschema, &lkeys, &rkeys);
        let body = move || {
            let mut stats = RunStats::default();
            let mut queue = BucketQueue::new(cfg.scratch, j, cfg.obs.spans.clone(), recovery)?;
            let ctx = BucketJoinCtx {
                lschema,
                rschema,
                lkeys,
                rkeys,
                join_attrs,
                counters,
                cfg,
                tag: names::gh_consumer_tag(j),
            };
            // Phase 1: enqueue incoming bucket frames.
            for delivery in &rx {
                cfg.cancel.check()?;
                injector.worker_checkpoint(j);
                for (b, bytes) in delivery.frames {
                    queue.enqueue(BucketKey::new(delivery.side, b), bytes, &mut stats)?;
                }
            }
            // Phase 2: join bucket pairs independently, recursively
            // repartitioning any bucket that outgrew the memory budget.
            let mut results = Vec::new();
            for b in 0..n_buckets as u32 {
                injector.worker_checkpoint(j);
                let pair = [
                    BucketKey::new(Side::Left, b),
                    BucketKey::new(Side::Right, b),
                ];
                stats.result_tuples +=
                    join_bucket_pair(&ctx, &mut queue, pair, 0, &mut stats, &mut results)?;
            }
            Ok((stats, results))
        };
        workers.push((format!("compute node {j}"), Box::new(body)));
    }

    let mut stats = RunStats::default();
    let mut batches = Vec::new();
    for (node_stats, mut node_batches) in all_done(run_workers(workers))? {
        stats.merge(&node_stats);
        batches.append(&mut node_batches);
    }
    Ok(frame.close(stats, "gh", cfg.collect_results.then_some(batches)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{nested_loop_join, sort_records};
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_cluster::exchange::decode_columns;
    use orv_cluster::{Fault, FaultPlan};
    use orv_obs::EventLog;
    use orv_obs::Spans;
    use orv_types::{Attribute, ColumnData, DataType, Interval};
    use proptest::prelude::*;

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
        // Per backend: the injected counts, the retries, and the
        // detection events by site.
        let mut seen = Vec::new();
        for scratch in [ScratchKind::Memory, ScratchKind::TempFile] {
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
                scratch,
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
            let detected = events.events_of_kind("corruption_detected");
            assert_eq!(
                detected.len() as u64,
                fstats.corruptions(),
                "one detection event per injected corruption"
            );
            let mut sites: Vec<String> = detected
                .iter()
                .map(|e| e.fields["site"].as_str().unwrap().to_string())
                .collect();
            sites.sort();
            let s = &out.stats;
            let retries = [s.read_retries, s.send_retries, s.scratch_retries];
            seen.push((fstats, retries, sites));
        }
        assert_eq!(
            seen[0], seen[1],
            "the file backend detects and retries the same"
        );
    }

    /// Run `f` on compute node `node`'s bucket-join context and an empty
    /// bucket queue of `cfg.scratch`, joining tables of `[left, right]`
    /// schemas on `join_attrs`.
    fn with_ctx<R>(
        node: usize,
        [lschema, rschema]: [&Arc<Schema>; 2],
        join_attrs: &[&str],
        cfg: &GraceHashConfig,
        counters: &JoinCounters,
        f: impl FnOnce(&BucketJoinCtx, &mut BucketQueue) -> R,
    ) -> R {
        let keys = |schema: &Schema| -> Vec<usize> {
            join_attrs
                .iter()
                .map(|a| schema.require(a).unwrap())
                .collect()
        };
        let injector = cfg.faults.clone().unwrap_or_else(FaultInjector::disabled);
        let recovery = Recovery {
            faults: &injector,
            policy: cfg.recovery,
            cancel: &cfg.cancel,
        };
        let mut queue = BucketQueue::new(cfg.scratch, node, Spans::disabled(), recovery).unwrap();
        let ctx = BucketJoinCtx {
            lschema,
            rschema,
            lkeys: &keys(lschema),
            rkeys: &keys(rschema),
            join_attrs,
            counters,
            cfg,
            tag: names::gh_consumer_tag(node),
        };
        f(&ctx, &mut queue)
    }

    const L0: BucketKey = BucketKey::new(Side::Left, 0);
    const R0: BucketKey = BucketKey::new(Side::Right, 0);

    /// `batch`'s column types and rows in the wire format: equal for two
    /// batches exactly when they are equal bit for bit.
    fn bits(batch: &ColumnBatch) -> (Vec<orv_types::DataType>, Vec<u8>) {
        let all: Vec<u32> = (0..batch.num_rows() as u32).collect();
        (batch.dtypes(), batch.encode_rows_le(&all))
    }

    #[test]
    fn sliced_bucket_join_equals_one_table_join() {
        // 256² in 32² chunks on two compute nodes: ~32 768 build rows a
        // node, so each bucket pair is joined in eight slices.
        let (d, t1, t2) = deploy([256, 256, 1], [32, 32, 1], [32, 32, 1], 2);
        let keys = ["x", "y", "z"];
        let md = d.metadata();
        let (lschema, rschema) = (md.schema(t1).unwrap(), md.schema(t2).unwrap());
        // Each node's one bucket pair, `[left, right]` frames, routed
        // chunk by chunk as the storage nodes route it.
        let services = orv_bds::BdsService::for_all_nodes(&d).unwrap();
        let mut buckets = vec![[Vec::new(), Vec::new()]; 2];
        for (side, table, schema) in [(0, t1, &lschema), (1, t2, &rschema)] {
            let key_indices = keys.map(|a| schema.require(a).unwrap());
            for chunk in md.all_chunks(table).unwrap() {
                let id = SubTableId { table, chunk };
                let node = md.chunk_meta(id).unwrap().node.index();
                let st = services[node].subtable(id).unwrap();
                let routed = route_subtable(&st, &key_indices, 2, 1);
                for (bucket, frames) in buckets.iter_mut().zip(routed) {
                    bucket[side].extend(frames.into_iter().map(|(_, frame)| frame));
                }
            }
        }
        let mut node_batches = Vec::new();
        for work_factor in [1, 3] {
            let cfg = GraceHashConfig {
                work_factor,
                collect_results: true,
                ..Default::default()
            };
            let reps = work_factor as usize;
            for [lframes, rframes] in &buckets {
                let decode = |schema: &Arc<Schema>, frames: &[Vec<u8>], table: u32| {
                    let batch = decode_columns(schema, &frames.concat()).unwrap();
                    SubTable::new(SubTableId::new(table, 0u32), Arc::clone(schema), batch).unwrap()
                };
                let lst = Arc::new(decode(&lschema, lframes, 0));
                let rst = decode(&rschema, rframes, 1);
                assert!(lst.num_rows() > 4 * SUBTABLE_ROWS, "{}", lst.num_rows());
                let counters = JoinCounters::new();
                let mut sliced = Vec::new();
                let produced = with_ctx(
                    0,
                    [&lschema, &rschema],
                    &keys,
                    &cfg,
                    &counters,
                    |ctx, queue| {
                        let mut stats = RunStats::default();
                        for (key, frames) in [(L0, lframes), (R0, rframes)] {
                            for frame in frames {
                                queue.enqueue(key, frame.clone(), &mut stats).unwrap();
                            }
                        }
                        join_bucket_pair(ctx, queue, [L0, R0], 0, &mut stats, &mut sliced)
                    },
                )
                .unwrap();
                assert_eq!(counters.builds() as usize, lst.num_rows() * reps);
                assert_eq!(counters.probes() as usize, rst.num_rows() * reps);
                let one =
                    HashJoiner::build(Arc::clone(&lst), &keys, &JoinCounters::new(), 1).unwrap();
                let found = one.matches(&rst, &keys, &JoinCounters::new()).unwrap();
                let want = one.gather(&rst, &keys, &found).unwrap();
                assert_eq!(produced, found.len());
                assert_eq!(sliced.len(), 1, "one batch per bucket pair");
                assert!(bits(&sliced[0]) == bits(&want), "sliced != one table");
                node_batches.push(want);
            }
            // The engine joins the same rows and counts every build and
            // probe row once per work factor.
            let out = grace_hash_join(&d, t1, t2, &keys, &cfg).unwrap();
            assert_eq!(out.stats.hash_builds, 65_536 * work_factor as u64);
            assert_eq!(out.stats.hash_probes, 65_536 * work_factor as u64);
            assert_eq!(out.stats.result_tuples, 65_536);
            let rows = |batches: &[ColumnBatch]| {
                let mut rows: Vec<Vec<u8>> = batches
                    .iter()
                    .flat_map(|b| bits(b).1.chunks(20).map(<[u8]>::to_vec).collect::<Vec<_>>())
                    .collect();
                rows.sort();
                rows
            };
            let got = rows(&out.batches.unwrap());
            assert!(got == rows(&node_batches), "end to end != per node");
            node_batches.clear();
        }
    }

    #[test]
    fn many_to_many_slices_keep_each_probe_rows_build_rows_ascending() {
        // 10 000 build rows over 500 keys, 20 rows each: three slices. Each
        // of 1 000 probe rows matches 20 build rows of its key's slice.
        let side = |table: u32, n: i32| {
            let schema = Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
            let batch = ColumnBatch::from_columns(vec![
                ColumnData::I32((0..n).map(|i| i % 500).collect()),
                ColumnData::I32(vec![7; n as usize]),
                ColumnData::F32((0..n).map(|i| i as f32).collect()),
            ])
            .unwrap();
            SubTable::new(SubTableId::new(table, 0u32), schema, batch).unwrap()
        };
        let (lst, rst) = (Arc::new(side(0, 10_000)), side(1, 1_000));
        let keys = ["x", "y"];
        let slices = lst.num_rows().div_ceil(SUBTABLE_ROWS);
        let busy = (0..slices)
            .filter(|&s| {
                !Slices::new(&lst, &[0, 1], slices)
                    .unwrap()
                    .rows(s)
                    .is_empty()
            })
            .count();
        assert!(busy >= 2, "{busy} of {slices} slices hold build rows");
        let cfg = GraceHashConfig {
            collect_results: true,
            ..Default::default()
        };
        let counters = JoinCounters::new();
        let found = with_ctx(0, [lst.schema(); 2], &keys, &cfg, &counters, |ctx, _| {
            bucket_matches(ctx, &lst, &rst)
        })
        .unwrap();
        assert_eq!(found.len(), 20_000);
        let pairs: Vec<(u32, u32)> = found
            .probe
            .iter()
            .copied()
            .zip(found.build.iter().copied())
            .collect();
        assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "probe rows ascend, and each one's build rows ascend"
        );
        let one = HashJoiner::build(Arc::clone(&lst), &keys, &JoinCounters::new(), 1).unwrap();
        let want = one.matches(&rst, &keys, &JoinCounters::new()).unwrap();
        assert_eq!((found.build, found.probe), (want.build, want.probe));
    }

    /// The bucket directories compute node `node`'s queues of this
    /// process hold open.
    fn queue_dirs(node: usize) -> Vec<std::path::PathBuf> {
        let prefix = format!("orv-scratch-gh{node}-{}-", std::process::id());
        std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .unwrap()
                    .to_string_lossy()
                    .starts_with(&prefix)
            })
            .collect()
    }

    #[test]
    fn overflow_writes_draw_scratch_faults_and_are_retried() {
        // A bucket pair over the memory budget is repartitioned before it
        // is joined. The two writes that fill the pair are draws 0 and 1
        // of the node's write stream, and the seed puts the plan's one
        // write fault on a later draw: a sub-bucket write, which the
        // policy retries like any phase 1 write. The right side holds
        // three of the left's 64 rows, so at least one of the four
        // sub-bucket pairs has rows on the left only; it joins nothing, and
        // its left bucket goes with the rest once the pair is done. Node 3
        // is no other test's, so its bucket directory is this test's.
        let st = xy_subtable(64);
        let all: Vec<u32> = (0..64).collect();
        let (left, right) = (
            st.batch().encode_rows_le(&all),
            st.batch().encode_rows_le(&all[..3]),
        );
        let written = (left.len() + right.len()) as u64;
        let left_subs: std::collections::BTreeSet<u64> = hash_rows(st.batch(), &[0, 1])
            .into_iter()
            .map(|h| salt_hash(h, 1) % OVERFLOW_SPLIT as u64)
            .collect();
        assert_eq!(
            left_subs.len(),
            OVERFLOW_SPLIT,
            "every left sub-bucket is written"
        );
        for scratch in [ScratchKind::Memory, ScratchKind::TempFile] {
            let events = EventLog::enabled();
            let plan = FaultPlan {
                seed: 6,
                max_faults: 1,
                ..FaultPlan::none()
            }
            .with(Fault::ScratchError, 0.5, 1);
            let injector = FaultInjector::new(plan, events.clone());
            let cfg = GraceHashConfig {
                mem_per_node: 256,
                scratch,
                collect_results: true,
                faults: Some(Arc::clone(&injector)),
                recovery: RecoveryPolicy {
                    base_backoff_ms: 0,
                    ..RecoveryPolicy::default()
                },
                ..Default::default()
            };
            let (mut stats, mut results) = (RunStats::default(), Vec::new());
            let produced = with_ctx(
                3,
                [st.schema(); 2],
                &["x", "y"],
                &cfg,
                &JoinCounters::new(),
                |ctx, queue| {
                    queue.enqueue(L0, left.clone(), &mut stats).unwrap();
                    queue.enqueue(R0, right.clone(), &mut stats).unwrap();
                    let produced =
                        join_bucket_pair(ctx, queue, [L0, R0], 0, &mut stats, &mut results);
                    for key in [L0, R0] {
                        let subs = (0..OVERFLOW_SPLIT).map(|k| key.child(k));
                        for key in std::iter::once(key).chain(subs) {
                            assert_eq!(queue.bytes(key), 0, "{key} left behind");
                        }
                    }
                    let dirs = queue_dirs(3);
                    match scratch {
                        ScratchKind::Memory => assert!(dirs.is_empty(), "{dirs:?}"),
                        ScratchKind::TempFile => {
                            assert_eq!(dirs.len(), 1, "{dirs:?}");
                            let left_behind = std::fs::read_dir(&dirs[0]).unwrap().count();
                            assert_eq!(left_behind, 0, "every bucket file is removed");
                        }
                    }
                    produced
                },
            )
            .unwrap();
            assert!(
                queue_dirs(3).is_empty(),
                "the queue's directory goes with it"
            );
            assert_eq!(produced, 3, "every right row joins itself once");
            assert_eq!(results.iter().map(ColumnBatch::num_rows).sum::<usize>(), 3);
            assert_eq!(injector.stats()[Fault::ScratchError], 1);
            let hits = events.events_of_kind("fault_injected");
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].fields["stream"].as_u64(), Some(3));
            assert!(
                hits[0].fields["draw"].as_u64().unwrap() >= 2,
                "the fault hits a sub-bucket write, not one that filled the pair"
            );
            assert_eq!(stats.scratch_retries, 1, "{stats:?}");
            assert_eq!(
                stats.bytes_scratch_written,
                2 * written,
                "sub-buckets were written"
            );
        }
    }

    #[test]
    fn exhausted_scratch_read_returns_the_integrity_error_unchanged() {
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
            },
            ..Default::default()
        };
        let cfg = GraceHashConfig {
            faults: Some(Arc::clone(&injector)),
            ..cfg
        };
        let schema = Arc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let mut stats = RunStats::default();
        let err = with_ctx(
            0,
            [&schema; 2],
            &["x"],
            &cfg,
            &JoinCounters::new(),
            |_, queue| {
                queue.enqueue(L0, vec![1u8; 32], &mut stats).unwrap();
                queue.dequeue(L0, &schema, &mut stats)
            },
        )
        .unwrap_err();
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
        // cap binds, so the multiset is a pure function of the seed. The
        // `chunk_read` / `chunk_page` rows and `read_retries` were captured
        // again when chunk reads moved from the storage node's draw stream
        // to the sub-table's (`table << 32 | chunk`).
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
            draws("chunk_corrupt", "chunk_page", 3, &[0]),
            draws("frame_corrupt", "frame", 0, &[39]),
            draws("frame_corrupt", "frame", 1, &[12, 38]),
            draws("read_error", "chunk_read", 0, &[0]),
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
        assert_eq!(out.stats.read_retries, 2);
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

    /// The key hash of one row, given as `(canonical key bits, is-float
    /// family)` per key attribute: what [`hash_rows`] folds column-wise.
    fn hash_key(key: impl Iterator<Item = (u64, bool)>) -> u64 {
        finish_key(key.fold(KEY_SEED, |h, (bits, float)| mix_key(h, bits, float)))
    }

    #[test]
    fn hash_functions_spread_and_are_deterministic() {
        let st = xy_subtable(1000);
        let hashes = hash_rows(st.batch(), &[0, 1]);
        assert_eq!(hashes.len(), st.num_rows());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every `(dest, bucket)` frame is the row-wise
        /// `ColumnBatch::encode_row_le` of its rows, in row order, and
        /// decodes back to them bit for bit — over 1–5 columns of all four
        /// types with NaN payloads and -0.0, 1–3 destinations and 1–64
        /// buckets, so buckets can outnumber rows. A destination's frames
        /// come in bucket order. This pins the
        /// wire format, `bytes_transferred` and the scratch CRCs.
        #[test]
        fn routing_covers_all_rows_once(
            types in proptest::collection::vec(0usize..4, 1..6),
            key_mask in 1u8..32,
            cells in proptest::collection::vec(
                prop_oneof![
                    any::<u64>(),
                    0u64..3,
                    proptest::sample::select(vec![
                        0x8000_0000,
                        0x7FC0_0001,
                        0xFF80_0001,
                        0x8000_0000_0000_0000,
                        0x7FF0_0000_0000_0001,
                        0xFFF8_0000_DEAD_BEEF,
                    ]),
                ],
                0..160,
            ),
            n_compute in 1usize..4,
            n_buckets in 1usize..65,
        ) {
            let types: Vec<DataType> = types
                .iter()
                .map(|&t| [DataType::I32, DataType::I64, DataType::F32, DataType::F64][t])
                .collect();
            let ncols = types.len();
            let nrows = cells.len() / ncols;
            let cell = |r: usize, c: usize| cells[r * ncols + c];
            let columns = types
                .iter()
                .enumerate()
                .map(|(c, ty)| {
                    let rows = 0..nrows;
                    match ty {
                        DataType::I32 => ColumnData::I32(rows.map(|r| cell(r, c) as i32).collect()),
                        DataType::I64 => ColumnData::I64(rows.map(|r| cell(r, c) as i64).collect()),
                        DataType::F32 => {
                            ColumnData::F32(rows.map(|r| f32::from_bits(cell(r, c) as u32)).collect())
                        }
                        DataType::F64 => ColumnData::F64(rows.map(|r| f64::from_bits(cell(r, c))).collect()),
                    }
                })
                .collect();
            let attrs = types.iter().enumerate();
            let schema = Arc::new(
                Schema::new(attrs.map(|(i, &t)| Attribute::scalar(format!("a{i}"), t)).collect())
                    .unwrap(),
            );
            let batch = ColumnBatch::from_columns(columns).unwrap();
            let st = SubTable::new(SubTableId::new(0u32, 0u32), Arc::clone(&schema), batch).unwrap();
            let keys: Vec<usize> = (0..ncols).filter(|c| key_mask >> c & 1 == 1).collect();
            let keys = if keys.is_empty() { vec![0] } else { keys };

            // The reference: each row's frame from its hash, encoded row
            // by row, a destination's frames in bucket order.
            let mut want = vec![std::collections::BTreeMap::<u32, Vec<u8>>::new(); n_compute];
            for (r, h) in hash_rows(st.batch(), &keys).into_iter().enumerate() {
                let dest = &mut want[(h % n_compute as u64) as usize];
                let bucket = ((h >> 32) % n_buckets as u64) as u32;
                st.batch().encode_row_le(r, dest.entry(bucket).or_default());
            }
            let want: Vec<Vec<(u32, Vec<u8>)>> =
                want.into_iter().map(|d| d.into_iter().collect()).collect();
            let routed = route_subtable(&st, &keys, n_compute, n_buckets);
            prop_assert!(routed == want, "frames differ from the row-wise encoder");
            let rs = schema.record_size();
            let total: usize = routed.iter().flatten().map(|(_, f)| f.len()).sum();
            prop_assert_eq!(total, nrows * rs);
            for (_, frame) in routed.iter().flatten() {
                let decoded = decode_columns(&schema, frame).unwrap();
                prop_assert_eq!(decoded.num_rows(), frame.len() / rs);
                let all: Vec<u32> = (0..decoded.num_rows() as u32).collect();
                prop_assert!(&decoded.encode_rows_le(&all) == frame, "decode round trip");
            }
        }
    }

    mod decode_props {
        use super::*;

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
