//! Query execution operators: scan, filter, project, aggregate.
//!
//! Range scans resolve chunk ids through the MetaData service's R-tree
//! ("the MetaData Service may be queried using the range part of the query
//! to retrieve ids of all matching sub-tables"), then fetch each sub-table
//! through the execution's [`SubTableReader`] — the same read path, with
//! the same retries, fault injection and `bds{n}` spans, that the join
//! QES instances use. [`scan_chunks`] is the one scan over it: an
//! explicit chunk list in, rows and per-chunk run lengths out. The engine
//! hands it the R-tree's list; a federation shard, the router's.
//!
//! ## The row edge
//!
//! A scan builds its rows chunk by chunk as it reads them, so no decoded
//! batch outlives its chunk. Above `SERIAL_BELOW_ROWS` rows it has the
//! shape of Grace Hash's storage phase without the hash: one reader per
//! storage node reads that node's chunks in scan order and streams each
//! chunk's rows over a bounded channel to one assembler worker, which
//! appends them in scan order to a result it allocates once.
//!
//! A join hands typed [`ColumnBatch`]es up to here, and [`join_rows`]
//! orders and builds its [`Record`]s in one pass, in the scan's shape.
//! Batches whose ranges overlap form a group, and the groups ascend. An
//! Indexed Join's are its x-stripes, 16 ascending pair runs each on a
//! 1 024² grid in 64² chunks, since the two-stage schedule interleaves a
//! stripe's pairs in `x`. Grace Hash's `h1` interleaves its compute
//! nodes' rows into one unsorted group; such a group, or any larger than
//! a worker's share, is cut at sampled keys into key-range parts of about
//! `PART_ROWS` rows that own their rows — sort cache-sized pieces, never
//! the whole (AlphaSort). One builder per compute worker, one more for
//! parts, takes whole groups round-robin. It lays a group of ascending
//! runs out by a galloping merge into `(batch, rows)` stretches, ties to
//! the earlier batch, and fills row blocks straight from them
//! ([`ColumnBatch::append_stretches_to`]): no sort key, permutation,
//! concatenation or gather. It sorts any other group, in cache. Then it
//! drops the group's batches and streams its rows over a bounded channel
//! to one assembler, which appends the groups in order to a result it
//! allocates once; it polls the query's token once per group. So
//! `join_ij_warm` (10⁶ rows) went from 74 to 61 ms at p50 and ~17 400 to
//! ~12 000 minor faults a query, and `join_gh` (512²) from 30–34 to ~22
//! ms in this edge and ~8 600 to ~90 faults, on a 2-core box.
//!
//! Either way each row is a view of a shared block of 16 KiB of values
//! (256 rows of a 4-column scan, 204 of a 5-column join), so the edge
//! allocates per block, not per row, takes each block from the
//! allocator's bins and fills it in the L1 cache; [`batches_to_rows`]
//! builds a run of batches as it stands on the calling thread. Results
//! under `SERIAL_BELOW_ROWS` rows stay on the calling thread — a
//! federation sub-scan, a window query or a unit test starts no thread.

use crate::agg::Accumulator;
use crate::ast::{AggFunc, RangePred, SelectItem};
use orv_bds::SubTableReader;
use orv_cluster::{all_done, checksum, run_workers, CancelToken, RunStats, WorkerBody};
use orv_types::{
    BoundingBox, ChunkId, ColumnBatch, ColumnData, DataType, Error, Interval, NodeId, Record,
    Result, Schema, SubTableId, TableId, Value,
};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::mem::replace;
use std::ops::Range;
use std::sync::{mpsc, Arc};

/// Materialized rows plus their schema-ish column names.
#[derive(Clone, Debug)]
pub struct RowSet {
    /// Column names, in row order.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Record>,
}

/// Range-filter one batch with typed column loops — the engine's (and
/// the benchmark's) name for [`ColumnBatch::filter_range`].
pub fn filter_batch_range(batch: &ColumnBatch, checks: &[(usize, Interval)]) -> ColumnBatch {
    batch.filter_range(checks)
}

/// A result this small is scanned, ordered and materialised on the
/// calling thread: starting workers would cost more than the work they
/// take over.
const SERIAL_BELOW_ROWS: usize = 1 << 16;

/// The rows of one key-range part a join's oversized group is cut into
/// (see the module docs): a part's sort keys take 128 KiB a column, so it
/// is sorted in cache. `join_gh`'s p50 on a 2-core box (two 5 s runs
/// each) was 90–113 ms with parts of 4 096 rows, 85–95 with 8 192, 82–84
/// with 16 384 and 32 768, 85–86 with 65 536 and 88–90 with 131 072, one
/// part per worker: what pays is sorting in cache, not more parallelism.
const PART_ROWS: usize = 1 << 14;

/// How many keys [`splitters`] samples per part it aims at.
const SAMPLES_PER_PART: usize = 32;

/// How many parts — a chunk's rows from a storage-node reader of a
/// parallel scan, a group's from a join's row builder — a producer may
/// have sent ahead of its assembler.
const CHANNEL_DEPTH: usize = 2;

/// `f` of each of `items`, in order, on up to `workers` threads of the
/// one worker harness, a contiguous run of items each; the root cause if
/// one failed.
fn map_on<T: Sync, U: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> U + Sync,
) -> Result<Vec<U>> {
    if workers < 2 || items.len() < 2 {
        return Ok(items.iter().map(f).collect());
    }
    let f = &f;
    let bodies = items
        .chunks(items.len().div_ceil(workers))
        .map(|run| Box::new(move || Ok(run.iter().map(f).collect())) as WorkerBody<'_, Vec<U>>);
    let done = all_done(run_workers(bodies.enumerate().collect()))?;
    Ok(done.into_iter().flatten().collect())
}

/// The service-edge conversion: materialize a run of batches into rows,
/// in order, on the calling thread.
pub fn batches_to_rows(batches: &[ColumnBatch]) -> Result<Vec<Record>> {
    let mut rows = Vec::with_capacity(batches.iter().map(|b| b.num_rows()).sum());
    for b in batches {
        b.append_records_to(&mut rows)?;
    }
    Ok(rows)
}

/// A join's rows in ascending row order — the order a stable sort of its
/// rows by `Record::values` leaves — built from its batches on up to
/// `workers` threads; the engine passes its compute-node count. No row is
/// built before its place is known, and only rows whose ranges overlap
/// are compared. Every column yields order-preserving `u64`s
/// (`Value::order_bits`, `Value::cmp` within a column). [`groups`]
/// bounds each batch and sweeps the batches into groups whose bounds
/// overlap; every row of a group is above every row of the groups before
/// it, so the groups, each ordered and laid end to end, are the stable
/// sort of everything. [`cut_groups`] cuts the oversized ones into parts;
/// [`stream_groups`], or the calling thread under `SERIAL_BELOW_ROWS`
/// rows, builds each with [`build_group`] (see the module docs).
/// `cancel` is polled before each cut and once per group built.
pub fn join_rows(
    batches: Vec<ColumnBatch>,
    workers: usize,
    cancel: &CancelToken,
) -> Result<Vec<Record>> {
    join_rows_on(batches, workers, SERIAL_BELOW_ROWS, PART_ROWS, cancel)
}

fn join_rows_on(
    batches: Vec<ColumnBatch>,
    workers: usize,
    serial_below: usize,
    part_rows: usize,
    cancel: &CancelToken,
) -> Result<Vec<Record>> {
    if let Some(first) = batches.first() {
        let types = first.dtypes();
        if let Some(other) = batches.iter().find(|b| b.dtypes() != types) {
            return Err(Error::Schema(format!(
                "a batch of types {:?} ordered with batches of types {types:?}",
                other.dtypes()
            )));
        }
    }
    let n = batches.iter().map(|b| b.num_rows()).sum::<usize>();
    if u32::try_from(n).is_err() {
        return Err(Error::Plan(format!(
            "a result of {n} rows is past the 32-bit row index its order is computed on"
        )));
    }
    let workers = if n < serial_below { 1 } else { workers.max(1) };
    let (groups, cut) = cut_groups(batches, workers, n.div_ceil(workers), part_rows, cancel)?;
    if workers == 1 || groups.len() < 2 {
        let mut rows = Vec::with_capacity(n);
        for group in groups {
            cancel.check()?;
            build_group(group, &mut rows)?;
        }
        return Ok(rows);
    }
    // A builder's row blocks stay in its allocator arena until the rows
    // are dropped; freed past the trim threshold, they go back to the
    // kernel, which zero-fills them on the next query. Parts are dealt
    // over one builder more than there are workers to stay under it:
    // ~3 200 → ~90 minor faults a GH query (`examples/scan_faults`).
    // IJ's stripes stay put: a third builder cost +9–11 % peak RSS there.
    stream_groups(groups, workers + usize::from(cut), n, cancel)
}

/// Build `groups`' rows on up to `builders` threads, which take whole
/// groups round-robin and stream each one's rows to one assembler; it
/// appends them, in group order, to a result of `total` rows that it
/// allocates once.
fn stream_groups(
    groups: Vec<Group>,
    builders: usize,
    total: usize,
    cancel: &CancelToken,
) -> Result<Vec<Record>> {
    let count = groups.len();
    let builders = builders.min(count);
    let mut dealt: Vec<Vec<Group>> = (0..builders).map(|_| Vec::new()).collect();
    for (g, group) in groups.into_iter().enumerate() {
        dealt[g % builders].push(group);
    }
    let (senders, receivers): (Vec<_>, Vec<_>) = dealt
        .iter()
        .map(|_| mpsc::sync_channel::<Result<Vec<Record>>>(CHANNEL_DEPTH))
        .unzip();
    let mut rows = Vec::new();
    let mut bodies: Vec<(String, WorkerBody<'_, ()>)> = Vec::new();
    for (k, (mine, tx)) in dealt.into_iter().zip(senders).enumerate() {
        // A builder stops at its first error, or once the assembler has
        // returned and its receiver is gone; errors travel to the
        // assembler, so a builder itself always ends `Ok`.
        let body = move || {
            for group in mine {
                let built = cancel.check().and_then(|()| {
                    let mut part = Vec::with_capacity(group.rows);
                    build_group(group, &mut part).map(|()| part)
                });
                let failed = built.is_err();
                if tx.send(built).is_err() || failed {
                    break;
                }
            }
            Ok(())
        };
        bodies.push((format!("join row builder {k}"), Box::new(body)));
    }
    let rows_out = &mut rows;
    let assemble = move || {
        // Allocated on this worker, as the scan's assembler does (DESIGN.md,
        // "Where rows are first built").
        *rows_out = Vec::with_capacity(total);
        // A builder sends every group it was dealt or an error, or dies
        // and drops its sender, and it polls the query's token between
        // groups. So each wait below ends, and a dead builder reads as a
        // hang-up.
        let mut parts: Vec<_> = receivers.into_iter().map(|rx| rx.into_iter()).collect();
        for g in 0..count {
            let part = parts[g % builders].next().ok_or_else(|| {
                Error::Cluster(format!("the builder of join row group {g} hung up"))
            })??;
            rows_out.extend(part);
        }
        Ok(())
    };
    bodies.push(("join row assembler".into(), Box::new(assemble)));
    all_done(run_workers(bodies))?;
    Ok(rows)
}

/// Append `group`'s rows to `out` in order; its batches are dropped on
/// return. A group of ascending runs is laid out by [`merge_stretches`]
/// and built straight from the stretches; any other is sorted first
/// ([`order_group`]).
fn build_group(group: Group, out: &mut Vec<Record>) -> Result<()> {
    if group.ascending {
        let stretches = merge_stretches(&group.batches);
        ColumnBatch::append_stretches_to(&group.batches, &stretches, out)
    } else {
        order_group(group)?.append_records_to(out)
    }
}

/// Lay out the rows of `runs`, each ascending, in ascending order as
/// `(run, rows)` stretches, rows that compare equal earlier run first —
/// the stable sort of the runs laid end to end. A k-way merge that
/// gallops: the unfinished runs are kept in the order their heads go;
/// each step takes the first run and finds how far it may go before the
/// second one's head by exponential then binary search, then files the
/// run back by its new head. So it compares rows per stretch, not per
/// row.
fn merge_stretches(runs: &[ColumnBatch]) -> Vec<(usize, Range<usize>)> {
    let mut heads = vec![0; runs.len()];
    // Whether row `i` of run `a` goes before row `j` of run `b`.
    let before = |a: usize, i: usize, b: usize, j: usize| {
        let (x, y) = (&runs[a], &runs[b]);
        let ord = (0..x.num_columns())
            .map(|c| x.value(i, c).order_bits().cmp(&y.value(j, c).order_bits()))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal);
        ord.is_lt() || (ord.is_eq() && a < b)
    };
    // File run `f`, whose head is row `head`, among the runs in `order`.
    let file = |order: &mut Vec<usize>, heads: &[usize], f: usize, head: usize| {
        let at = order.partition_point(|&r| before(r, heads[r], f, head));
        order.insert(at, f);
    };
    let mut order = Vec::with_capacity(runs.len());
    for r in (0..runs.len()).filter(|&r| !runs[r].is_empty()) {
        file(&mut order, &heads, r, 0);
    }
    let mut stretches = Vec::new();
    while let Some(&f) = order.first() {
        let (start, end) = (heads[f], runs[f].num_rows());
        let stop = match order.get(1) {
            Some(&s) => gallop(start + 1, end, |i| before(f, i, s, heads[s])),
            None => end,
        };
        stretches.push((f, start..stop));
        heads[f] = stop;
        order.remove(0);
        if stop < end {
            file(&mut order, &heads, f, stop);
        }
    }
    stretches
}

/// The first index in `lo..hi` at which `goes` fails, or `hi`, for a
/// `goes` that holds up to some index and fails from there on: probes at
/// doubling steps from `lo`, then a binary search between the last probe
/// that held and the one that failed.
fn gallop(mut lo: usize, hi: usize, goes: impl Fn(usize) -> bool) -> usize {
    // Every index below `lo` goes; every one from `end` on fails.
    let (mut end, mut step) = (hi, 1);
    while lo < end {
        let probe = (lo + step - 1).min(end - 1);
        if !goes(probe) {
            end = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    while lo < end {
        let mid = lo + (end - lo) / 2;
        if goes(mid) {
            lo = mid + 1;
        } else {
            end = mid;
        }
    }
    lo
}

/// Batches whose rows [`join_rows`] orders as one.
#[derive(Default)]
struct Group {
    /// In input order, so rows that compare equal keep it.
    batches: Vec<ColumnBatch>,
    rows: usize,
    /// Every batch's rows already ascend.
    ascending: bool,
}

/// The least and greatest row `batch` may hold, as per-column sort keys,
/// and whether its rows ascend — told by one typed pass per column over
/// the adjacent rows its leading columns leave tied. An ascending batch's
/// bounds are its first and last row. Any other's are column 0's least
/// and greatest key, padded with the least and greatest key: wider than
/// its rows, never narrower.
fn bounds(batch: &ColumnBatch) -> (Vec<u64>, Vec<u64>, bool) {
    let (n, width) = (batch.num_rows(), batch.num_columns());
    let mut bits = Vec::with_capacity(n);
    // Row `i` is tied with row `i - 1` on every column so far.
    let mut tied: Vec<u32> = (1..n as u32).collect();
    for c in 0..width {
        if tied.is_empty() {
            break;
        }
        bits.clear();
        batch.column(c).order_bits_into(&mut bits);
        let mut descends = false;
        tied.retain(|&i| {
            let (a, b) = (bits[i as usize - 1], bits[i as usize]);
            descends |= a > b;
            a == b
        });
        if descends {
            if c > 0 {
                bits.clear();
                batch.column(0).order_bits_into(&mut bits);
            }
            let lo = bits.iter().copied().min().unwrap_or(0);
            let hi = bits.iter().copied().max().unwrap_or(u64::MAX);
            let pad = |first, rest| {
                let rest = std::iter::repeat_n(rest, width - 1);
                std::iter::once(first).chain(rest).collect()
            };
            return (pad(lo, 0), pad(hi, u64::MAX), false);
        }
    }
    let row = |r| (0..width).map(|c| batch.value(r, c).order_bits()).collect();
    (row(0), row(n - 1), true)
}

/// Sweep the non-empty `batches`, lowest bound first, into groups whose
/// bounds overlap or touch, in ascending order. Rows that compare equal
/// always share a group. The batches are bounded on up to `workers`
/// threads, a contiguous run of batches each.
fn groups(batches: Vec<ColumnBatch>, workers: usize) -> Result<Vec<Group>> {
    let full: Vec<usize> = (0..batches.len())
        .filter(|&i| !batches[i].is_empty())
        .collect();
    let mut spans = map_on(&full, workers, |&i| (bounds(&batches[i]), i))?;
    spans.sort_by(|a, b| a.0 .0.cmp(&b.0 .0));
    // Each group's members, greatest bound and whether they all ascend.
    let mut swept: Vec<(Vec<usize>, Vec<u64>, bool)> = Vec::new();
    for ((low, high, sorted), i) in spans {
        match swept.last_mut() {
            Some((members, top, ascending)) if low <= *top => {
                members.push(i);
                *ascending &= sorted;
                if high > *top {
                    *top = high;
                }
            }
            _ => swept.push((vec![i], high, sorted)),
        }
    }
    let mut batches: Vec<Option<ColumnBatch>> = batches.into_iter().map(Some).collect();
    let groups = swept.into_iter().map(|(mut members, _, ascending)| {
        members.sort_unstable();
        let batches: Vec<ColumnBatch> = members.iter().filter_map(|&i| batches[i].take()).collect();
        Group {
            rows: batches.iter().map(|b| b.num_rows()).sum(),
            batches,
            ascending,
        }
    });
    Ok(groups.collect())
}

/// [`groups`] of `batches`, with each oversized group — not a set of
/// ascending runs and above `part_rows` rows, or above `share` rows —
/// replaced by its parts ([`cut`]), and whether any was.
fn cut_groups(
    batches: Vec<ColumnBatch>,
    workers: usize,
    share: usize,
    part_rows: usize,
    cancel: &CancelToken,
) -> Result<(Vec<Group>, bool)> {
    let part_rows = part_rows.max(1);
    let (mut out, mut any) = (Vec::new(), false);
    for group in groups(batches, workers)? {
        if group.rows > part_rows && (!group.ascending || group.rows > share) {
            cancel.check()?;
            cut(group, 0, part_rows, workers, &mut out)?;
            any = true;
        } else {
            out.push(group);
        }
    }
    Ok((out, any))
}

/// Cut `group`, whose rows tie on every column before `c`, into parts at
/// sampled keys of column `c` and push them to `out` in order. From an
/// even-stride sample of the group's keys ([`splitters`]) a row goes to
/// the part between the two splitters its key falls between, or to a
/// splitter's own part if its key equals one ([`route`]). So rows that
/// compare equal share a part, every row of a part is below every row of
/// the next, and a part keeps its rows in input order: the parts, each
/// sorted stably and laid end to end, are the stable sort of the group.
/// The batches are cut on up to `workers` threads, a contiguous run of
/// them each, and dropped; the parts do not depend on how many threads.
/// Neighbouring parts that fit in `part_rows` rows together become one,
/// and a larger part of one splitter's key is cut again on column
/// `c + 1`.
fn cut(
    group: Group,
    c: usize,
    part_rows: usize,
    workers: usize,
    out: &mut Vec<Group>,
) -> Result<()> {
    let width = group.batches[0].num_columns();
    let splitters = splitters(&group.batches, group.rows, c, group.rows / part_rows);
    let routed = map_on(&group.batches, workers, |b| route(b, c, &splitters))?;
    drop(group.batches);
    let empty = || Group {
        ascending: group.ascending,
        ..Group::default()
    };
    let mut parts: Vec<Group> = (0..=2 * splitters.len()).map(|_| empty()).collect();
    for (p, piece) in routed.into_iter().flatten() {
        parts[p].rows += piece.num_rows();
        parts[p].batches.push(piece);
    }
    let mut pending: Option<Group> = None;
    for (p, part) in parts.into_iter().enumerate().filter(|(_, g)| g.rows > 0) {
        // A splitter's own part ties on column `c`.
        if p % 2 == 1 && part.rows > part_rows && c + 1 < width {
            out.extend(pending.take());
            cut(part, c + 1, part_rows, workers, out)?;
            continue;
        }
        match &mut pending {
            // Their rows never compare equal, so their order in the joined
            // part is free.
            Some(joined) if joined.rows + part.rows <= part_rows => {
                joined.rows += part.rows;
                joined.batches.extend(part.batches);
            }
            _ => out.extend(pending.replace(part)),
        }
    }
    out.extend(pending);
    Ok(())
}

/// `count` splitters for the `rows` rows of `batches` in column `c`: the
/// keys at even ranks of a sorted sample of about `SAMPLES_PER_PART` keys
/// per part, taken at an even stride, duplicates dropped. No randomness:
/// the same rows give the same splitters.
fn splitters(batches: &[ColumnBatch], rows: usize, c: usize, count: usize) -> Vec<u64> {
    let samples = (SAMPLES_PER_PART * (count + 1)).min(rows);
    let mut keys = Vec::with_capacity(samples);
    let (mut b, mut first) = (0, 0);
    for i in 0..samples {
        let at = i * rows / samples;
        while at >= first + batches[b].num_rows() {
            first += batches[b].num_rows();
            b += 1;
        }
        keys.push(batches[b].value(at - first, c).order_bits());
    }
    keys.sort_unstable();
    let mut picked: Vec<u64> = (1..=count)
        .map(|k| keys[k * samples / (count + 1)])
        .collect();
    picked.dedup();
    picked
}

/// Cut `batch` at `splitters`, by its keys in column `c`: part `2k` takes
/// the rows whose key lies between splitters `k - 1` and `k`, part
/// `2k + 1` those whose key equals splitter `k`. Returns each non-empty
/// part's rows in input order, one typed gather per column, with its part
/// number.
fn route(batch: &ColumnBatch, c: usize, splitters: &[u64]) -> Vec<(usize, ColumnBatch)> {
    let column = batch.column(c);
    let mut sizes = vec![0; 2 * splitters.len() + 1];
    let part: Vec<u32> = (0..batch.num_rows())
        .map(|r| {
            let key = column.value(r).order_bits();
            let k = splitters.partition_point(|&s| s < key);
            let p = 2 * k + usize::from(splitters.get(k) == Some(&key));
            sizes[p] += 1;
            p as u32
        })
        .collect();
    // A stable counting sort of the row numbers by part.
    let mut next: Vec<usize> = sizes
        .iter()
        .scan(0, |at, n| Some(replace(at, *at + n)))
        .collect();
    let mut order = vec![0; part.len()];
    for (r, &p) in part.iter().enumerate() {
        order[next[p as usize]] = r as u32;
        next[p as usize] += 1;
    }
    let mut rest = &order[..];
    let mut pieces = Vec::new();
    for (p, &n) in sizes.iter().enumerate().filter(|(_, &n)| n > 0) {
        let (mine, tail) = rest.split_at(n);
        pieces.push((p, batch.gather(mine)));
        rest = tail;
    }
    pieces
}

/// Order one group on this thread: its batches concatenated, a `u32`
/// permutation stable-sorted on the rows' keys, then every column
/// gathered. A part of a cut group fits in cache.
fn order_group(group: Group) -> Result<ColumnBatch> {
    let all = ColumnBatch::concat(group.batches)?;
    let n = all.num_rows();
    // A column's keys are built when a comparison first reaches it, so
    // rows told apart by their leading columns never pay for the rest.
    let keys: Vec<OnceCell<Vec<u64>>> = (0..all.num_columns()).map(|_| OnceCell::new()).collect();
    // `join_rows_on` has checked that the whole result fits.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.sort_by(|a, b| {
        for (c, bits) in keys.iter().enumerate() {
            let bits = bits.get_or_init(|| {
                let mut bits = Vec::with_capacity(n);
                all.column(c).order_bits_into(&mut bits);
                bits
            });
            let ord = bits[*a as usize].cmp(&bits[*b as usize]);
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(all.gather(&perm))
}

/// A chunk scan: the schema, the rows, and per-chunk run lengths
/// `(chunk, rows)` in scan order.
pub type ChunkScan = (Arc<Schema>, Vec<Record>, Vec<(ChunkId, usize)>);

/// Scan an explicit chunk list of one table, in ascending chunk order,
/// returning the rows plus per-chunk run lengths `(chunk, rows)` in scan
/// order — the only scan. The engine passes the chunks the R-tree keeps
/// for a range (or all of them); a federation shard passes the router's
/// list, and the router needs the run boundaries to dedup and reassemble
/// partial results chunk by chunk. Base-table scans bypass the sub-table
/// cache: every chunk is read, CRC-verified and decoded on every call,
/// and its rows are built before the next chunk of its node is read.
///
/// Below `SERIAL_BELOW_ROWS` rows (summed from the catalog's per-chunk
/// counts) the scan runs on the calling thread. Above, one reader per
/// storage node and one assembler run on the worker harness (see the
/// module docs). Each reader draws its node's faults for the same chunks
/// in the same order as the serial scan does, and the scan returns the
/// first error in scan order. Every fetch checks the reader's token, so
/// a cancelled query stops within one chunk fetch on each node.
pub fn scan_chunks(
    reader: &SubTableReader,
    table: TableId,
    chunks: &[ChunkId],
    range: Option<&BoundingBox>,
) -> Result<ChunkScan> {
    scan_on(reader, table, chunks, range, SERIAL_BELOW_ROWS, None)
}

/// [`scan_chunks`] for a federation shard, plus the seal of its answer:
/// the CRC32C of the rows' canonical encoding ([`rows_checksum`]), written
/// by a [`BatchSeal`] from each chunk's batch as the scan fetches it, then
/// extended by the runs ([`seal_runs`]). The router re-verifies it from
/// the rows it received.
pub(crate) fn scan_sealed(
    reader: &SubTableReader,
    table: TableId,
    chunks: &[ChunkId],
    range: Option<&BoundingBox>,
) -> Result<(ChunkScan, u32)> {
    let mut seal = BatchSeal::new();
    let scan = scan_on(
        reader,
        table,
        chunks,
        range,
        SERIAL_BELOW_ROWS,
        Some(&mut seal),
    )?;
    let sealed = seal_runs(seal.finish(), &scan.2);
    Ok((scan, sealed))
}

/// The one scan, on the calling thread below `serial_below` rows and on
/// one reader per storage node plus one assembler above. With a `seal`,
/// each chunk's batch is folded into it in scan order: on the calling
/// thread right after its rows are built, or on the assembler, which a
/// reader then hands the batch along with the rows.
fn scan_on(
    reader: &SubTableReader,
    table: TableId,
    chunks: &[ChunkId],
    range: Option<&BoundingBox>,
    serial_below: usize,
    mut seal: Option<&mut BatchSeal>,
) -> Result<ChunkScan> {
    let md = reader.metadata();
    let schema = md.schema(table)?;
    let mut chunks = chunks.to_vec();
    chunks.sort();
    chunks.dedup();
    // Each chunk's home node and stored row count, in one catalog read.
    let homes = md.with_chunks(table, |metas| {
        chunks
            .iter()
            .map(|&chunk| {
                let meta = metas
                    .get(chunk.index())
                    .ok_or_else(|| Error::not_found(format!("chunk {chunk} of table {table}")))?;
                Ok((meta.node, meta.num_records as usize))
            })
            .collect::<Result<Vec<_>>>()
    })??;
    // Exact for a full scan, an upper bound under a range.
    let total = homes.iter().map(|&(_, rows)| rows).sum::<usize>();
    let mut runs = Vec::with_capacity(chunks.len());
    if total < serial_below {
        let (mut rows, mut stats) = (Vec::with_capacity(total), RunStats::default());
        for &chunk in &chunks {
            let batch = read_chunk(reader, table, chunk, range, &mut stats, &mut rows)?;
            if let Some(seal) = seal.as_deref_mut() {
                seal.fold(&batch);
            }
            runs.push((chunk, batch.num_rows()));
        }
        return Ok((schema, rows, runs));
    }
    // The chunks each node holds, in scan order, and which of those
    // lists each chunk is on.
    let mut per_node: Vec<(NodeId, Vec<ChunkId>)> = Vec::new();
    let mut owner = Vec::with_capacity(chunks.len());
    for (&chunk, &(node, _)) in chunks.iter().zip(&homes) {
        let k = match per_node.iter().position(|(n, _)| *n == node) {
            Some(k) => k,
            None => {
                per_node.push((node, Vec::new()));
                per_node.len() - 1
            }
        };
        per_node[k].1.push(chunk);
        owner.push(k);
    }
    // A chunk's rows, and its batch when the scan is sealed.
    type Part = (Vec<Record>, Option<ColumnBatch>);
    let (senders, receivers): (Vec<_>, Vec<_>) = per_node
        .iter()
        .map(|_| mpsc::sync_channel::<Result<Part>>(CHANNEL_DEPTH))
        .unzip();
    let sealing = seal.is_some();
    let mut rows = Vec::new();
    let mut workers: Vec<(String, WorkerBody<'_, ()>)> = Vec::new();
    for ((node, mine), tx) in per_node.into_iter().zip(senders) {
        // A reader stops at its first error, or once the assembler has
        // returned and its receiver is gone; errors travel to the
        // assembler, so a reader itself always ends `Ok`.
        let body = move || {
            let mut stats = RunStats::default();
            for chunk in mine {
                let mut part = Vec::new();
                let read = read_chunk(reader, table, chunk, range, &mut stats, &mut part)
                    .map(|batch| (part, sealing.then_some(batch)));
                let failed = read.is_err();
                if tx.send(read).is_err() || failed {
                    break;
                }
            }
            Ok(())
        };
        workers.push((format!("storage node {node}"), Box::new(body)));
    }
    let (rows_out, runs_out) = (&mut rows, &mut runs);
    let assemble = move || {
        // Allocated on this worker, not on the caller's thread: measured
        // on a 10⁶-row scan, that is what keeps the kernel from
        // zero-filling the result's pages on every query without raising
        // peak RSS (DESIGN.md, "Where rows are first built").
        *rows_out = Vec::with_capacity(total);
        // A reader sends every chunk of its list or an error, or dies and
        // drops its sender; its fetches observe the scan's token. So each
        // wait below ends, and a dead reader reads as a hang-up.
        let mut parts: Vec<_> = receivers.into_iter().map(|rx| rx.into_iter()).collect();
        for (&chunk, &k) in chunks.iter().zip(&owner) {
            let (part, batch) = parts[k]
                .next()
                .ok_or_else(|| Error::Cluster(format!("the reader of chunk {chunk} hung up")))??;
            if let (Some(seal), Some(batch)) = (seal.as_deref_mut(), &batch) {
                seal.fold(batch);
            }
            runs_out.push((chunk, part.len()));
            rows_out.extend(part);
        }
        Ok(())
    };
    workers.push(("scan assembler".into(), Box::new(assemble)));
    all_done(run_workers(workers))?;
    Ok((schema, rows, runs))
}

/// Fetch `chunk` of `table` through `reader`, range-filtered, and append
/// its rows to `out`; returns the decoded batch, which a sealed scan
/// folds into its seal before dropping it. A scan reports no run
/// statistics: `stats` is the fetch's scratch.
fn read_chunk(
    reader: &SubTableReader,
    table: TableId,
    chunk: ChunkId,
    range: Option<&BoundingBox>,
    stats: &mut RunStats,
    out: &mut Vec<Record>,
) -> Result<ColumnBatch> {
    let st = reader.fetch(SubTableId { table, chunk }, range, stats)?;
    st.batch().append_records_to(out)?;
    Ok(st.into_batch())
}

/// CRC32C over the canonical binary encoding of `rows`: what the router
/// re-verifies every federated sub-response's rows with, against the seal
/// the shard wrote from its batches (`BatchSeal`, the same bytes), so a
/// corrupted partial result is rejected (and hedged/failed over) instead
/// of merged.
///
/// The encoding, all little-endian: per row a `u32` arity, then per value
/// one type-tag byte (`0` = i32, `1` = i64, `2` = f32, `3` = f64) and the
/// value's bit pattern (4 or 8 bytes; floats via `to_bits`). The arity
/// prefix pins row boundaries and the tag pins the type, so two row
/// sequences share an encoding only if they are equal bit for bit — `0.0`
/// and `-0.0`, and NaNs with different payloads, stay distinct. It is
/// folded through [`checksum::update`] from a stack buffer: no
/// allocation, no formatter.
pub fn rows_checksum(rows: &[Record]) -> u32 {
    // The widest item is a tagged 8-byte value. Every item is stored at
    // that width (a fixed-size store, no `memcpy` call) and `len` advances
    // by the item's real width, so the next item overwrites the slack.
    const ITEM: usize = 9;
    /// Fold the filled prefix into `state` once an item might not fit.
    #[inline]
    fn make_room(state: &mut u32, buf: &[u8], len: &mut usize) {
        if buf.len() - *len < ITEM {
            *state = checksum::update(*state, &buf[..*len]);
            *len = 0;
        }
    }
    let mut buf = [0u8; 1024];
    let mut len = 0;
    let mut state = checksum::begin();
    for r in rows {
        make_room(&mut state, &buf, &mut len);
        buf[len..len + 4].copy_from_slice(&(r.arity() as u32).to_le_bytes());
        len += 4;
        for &v in r.values() {
            let (tag, bits, width) = match v {
                Value::I32(x) => (0u8, x as u32 as u64, 4),
                Value::I64(x) => (1, x as u64, 8),
                Value::F32(x) => (2, x.to_bits() as u64, 4),
                Value::F64(x) => (3, x.to_bits(), 8),
            };
            make_room(&mut state, &buf, &mut len);
            buf[len] = tag;
            buf[len + 1..len + ITEM].copy_from_slice(&bits.to_le_bytes());
            len += 1 + width;
        }
    }
    checksum::finish(checksum::update(state, &buf[..len]))
}

/// Rows per piece of a [`BatchSeal`]'s row image: 512 rows of a scan's
/// schema (two `i32` coordinates and a few `f32` scalars, ~30 B a row)
/// fill ~16 KiB, so a piece is written and read back in cache.
const SEAL_PIECE_ROWS: usize = 512;

/// The writer side of [`rows_checksum`]: the CRC32C of the same canonical
/// bytes, written from columns instead of [`Record`]s. A federation shard
/// folds each chunk's batch in while the scan holds it, so sealing costs
/// no second pass over the rows it built.
///
/// It lays each piece of up to `SEAL_PIECE_ROWS` rows out as fixed-width
/// row images: the arity prefix and the type tags are written once per
/// schema, each column's bit patterns by one typed loop per piece, and
/// each piece is folded with one CRC update. The bytes are the ones
/// [`rows_checksum`] folds for the rows the batches materialise into; the
/// equivalence proptest in this module pins that.
pub(crate) struct BatchSeal {
    state: u32,
    /// The schema the image's constant bytes were laid out for.
    types: Vec<DataType>,
    /// `SEAL_PIECE_ROWS` row images of that schema.
    image: Vec<u8>,
}

impl BatchSeal {
    pub(crate) fn new() -> Self {
        BatchSeal {
            state: checksum::begin(),
            types: Vec::new(),
            image: Vec::new(),
        }
    }

    /// Fold `batch`'s rows, in order.
    pub(crate) fn fold(&mut self, batch: &ColumnBatch) {
        let rows = batch.num_rows();
        if rows == 0 {
            return;
        }
        let columns = (0..batch.num_columns()).map(|c| batch.column(c));
        if !columns
            .clone()
            .map(ColumnData::dtype)
            .eq(self.types.iter().copied())
        {
            self.lay_out(batch.dtypes());
        }
        let width = self.image.len() / SEAL_PIECE_ROWS;
        for start in (0..rows).step_by(SEAL_PIECE_ROWS) {
            let piece = start..rows.min(start + SEAL_PIECE_ROWS);
            let image = &mut self.image[..piece.len() * width];
            let mut at = 4;
            for col in columns.clone() {
                write_bits(col, piece.clone(), image, at + 1, width);
                at += 1 + col.dtype().width();
            }
            self.state = checksum::update(self.state, image);
        }
    }

    /// Write the constant bytes of `types`' row image — the `u32` arity
    /// and one tag per value — into every row of the piece buffer.
    fn lay_out(&mut self, types: Vec<DataType>) {
        let width = 4 + types.iter().map(|t| 1 + t.width()).sum::<usize>();
        self.image.clear();
        self.image.resize(SEAL_PIECE_ROWS * width, 0);
        for row in self.image.chunks_exact_mut(width) {
            row[..4].copy_from_slice(&(types.len() as u32).to_le_bytes());
            let mut at = 4;
            for &ty in &types {
                row[at] = match ty {
                    DataType::I32 => 0,
                    DataType::I64 => 1,
                    DataType::F32 => 2,
                    DataType::F64 => 3,
                };
                at += 1 + ty.width();
            }
        }
        self.types = types;
    }

    /// The CRC32C of every row folded so far.
    pub(crate) fn finish(&self) -> u32 {
        checksum::finish(self.state)
    }
}

/// Write the little-endian bit patterns of `col`'s values at `rows` into
/// consecutive `width`-byte row images of `image`, at byte `at` of each —
/// one typed loop.
fn write_bits(col: &ColumnData, rows: Range<usize>, image: &mut [u8], at: usize, width: usize) {
    fn put<T: Copy, const N: usize>(
        values: &[T],
        image: &mut [u8],
        (at, width): (usize, usize),
        to: impl Fn(T) -> [u8; N],
    ) {
        for (row, &v) in image.chunks_exact_mut(width).zip(values) {
            row[at..at + N].copy_from_slice(&to(v));
        }
    }
    let place = (at, width);
    match col {
        ColumnData::I32(v) => put(&v[rows], image, place, i32::to_le_bytes),
        ColumnData::I64(v) => put(&v[rows], image, place, i64::to_le_bytes),
        ColumnData::F32(v) => put(&v[rows], image, place, |x| x.to_bits().to_le_bytes()),
        ColumnData::F64(v) => put(&v[rows], image, place, |x| x.to_bits().to_le_bytes()),
    }
}

/// The seal of a federated chunk-scan response: `rows_crc` — the CRC32C
/// of its rows, from [`rows_checksum`] at the router or a [`BatchSeal`]
/// on the shard — extended by its runs, each `(chunk, rows)` as two
/// little-endian `u64`s. A run dropped, added, renamed or resized changes
/// it, even where the rows do not change.
pub(crate) fn seal_runs(rows_crc: u32, runs: &[(ChunkId, usize)]) -> u32 {
    let mut bytes = Vec::with_capacity(runs.len() * 16);
    for &(chunk, rows) in runs {
        bytes.extend_from_slice(&u64::from(chunk.0).to_le_bytes());
        bytes.extend_from_slice(&(rows as u64).to_le_bytes());
    }
    checksum::extend(rows_crc, &bytes)
}

/// Column names of a schema.
pub fn column_names(schema: &Schema) -> Vec<String> {
    schema.attrs().iter().map(|a| a.name.clone()).collect()
}

/// Sort by output columns (stable; `(name, descending)` pairs applied in
/// order) and truncate to `limit`. A limit below the row count selects
/// its rows first and sorts only those: ties are broken by input
/// position, which is the order the stable sort of everything leaves.
pub fn order_and_limit(
    mut rowset: RowSet,
    order_by: &[(String, bool)],
    limit: Option<usize>,
) -> Result<RowSet> {
    if !order_by.is_empty() {
        let keys: Vec<(usize, bool)> = order_by
            .iter()
            .map(|(name, desc)| {
                rowset
                    .columns
                    .iter()
                    .position(|c| c == name)
                    .map(|i| (i, *desc))
                    .ok_or_else(|| Error::Plan(format!("unknown ORDER BY column `{name}`")))
            })
            .collect::<Result<_>>()?;
        let by_keys = |a: &Record, b: &Record| {
            for &(i, desc) in &keys {
                let ord = a.get(i).cmp(&b.get(i));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        };
        match limit {
            Some(k) if 0 < k && k < rowset.rows.len() => {
                let rows = &rowset.rows;
                let by_keys_then_position =
                    |a: &usize, b: &usize| by_keys(&rows[*a], &rows[*b]).then(a.cmp(b));
                let mut positions: Vec<usize> = (0..rows.len()).collect();
                positions.select_nth_unstable_by(k - 1, by_keys_then_position);
                positions.truncate(k);
                positions.sort_unstable_by(by_keys_then_position);
                rowset.rows = positions.iter().map(|&p| rows[p].clone()).collect();
            }
            _ => rowset.rows.sort_by(by_keys),
        }
    }
    if let Some(n) = limit {
        rowset.rows.truncate(n);
    }
    Ok(rowset)
}

/// Post-filter materialized rows by range predicates over named output
/// columns (used when predicates cannot be pushed below an aggregation
/// view).
pub fn filter_rows(
    columns: &[String],
    rows: Vec<Record>,
    preds: &[RangePred],
) -> Result<Vec<Record>> {
    if preds.is_empty() {
        return Ok(rows);
    }
    let checks: Vec<(usize, f64, f64)> = preds
        .iter()
        .map(|p| {
            columns
                .iter()
                .position(|c| c == &p.attr)
                .map(|i| (i, p.lo, p.hi))
                .ok_or_else(|| Error::Plan(format!("unknown column `{}` in predicate", p.attr)))
        })
        .collect::<Result<_>>()?;
    Ok(rows
        .into_iter()
        .filter(|r| {
            checks.iter().all(|&(i, lo, hi)| {
                let v = r.get(i).as_f64();
                lo <= v && v <= hi
            })
        })
        .collect())
}

/// Apply a select list (no aggregates) to rows.
pub fn project(columns: &[String], rows: Vec<Record>, items: &[SelectItem]) -> Result<RowSet> {
    if items.len() == 1 && items[0] == SelectItem::All {
        return Ok(RowSet {
            columns: columns.to_vec(),
            rows,
        });
    }
    let mut indices = Vec::new();
    let mut names = Vec::new();
    for item in items {
        match item {
            SelectItem::Column(name) => {
                let idx = columns
                    .iter()
                    .position(|c| c == name)
                    .ok_or_else(|| Error::Plan(format!("unknown column `{name}`")))?;
                indices.push(idx);
                names.push(name.clone());
            }
            SelectItem::All => {
                for (i, c) in columns.iter().enumerate() {
                    indices.push(i);
                    names.push(c.clone());
                }
            }
            SelectItem::Aggregate(..) => {
                return Err(Error::Plan(
                    "aggregates must be handled by the aggregate operator".into(),
                ))
            }
        }
    }
    let rows = rows.into_iter().map(|r| r.project(&indices)).collect();
    Ok(RowSet {
        columns: names,
        rows,
    })
}

/// Grouped aggregation. `items` may mix group columns and aggregates; every
/// plain column must appear in `group_by`.
pub fn aggregate(
    columns: &[String],
    rows: Vec<Record>,
    items: &[SelectItem],
    group_by: &[String],
) -> Result<RowSet> {
    merge_aggregate(columns, vec![rows], items, group_by)
}

/// Grouped aggregation over *partitioned* input: each element of `parts`
/// is one partition's rows (a federated shard's partial result). Every
/// partition is aggregated into partial accumulators, then the partials
/// are merged per group key ([`Accumulator::merge`]) — the re-aggregation
/// step of federated AVG/COUNT/SUM. With a single partition this *is*
/// [`aggregate`], so the two paths cannot drift.
pub fn merge_aggregate(
    columns: &[String],
    parts: Vec<Vec<Record>>,
    items: &[SelectItem],
    group_by: &[String],
) -> Result<RowSet> {
    let col_idx = |name: &str| -> Result<usize> {
        columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| Error::Plan(format!("unknown column `{name}`")))
    };
    let group_indices: Vec<usize> = group_by.iter().map(|g| col_idx(g)).collect::<Result<_>>()?;

    // Resolve the output plan: each item is either a group key or an
    // accumulator spec.
    enum OutCol {
        Group(usize),                // index into the group key
        Agg(AggFunc, Option<usize>), // column index to aggregate
    }
    let mut out_cols = Vec::new();
    let mut names = Vec::new();
    for item in items {
        match item {
            SelectItem::Column(name) => {
                let gpos = group_by.iter().position(|g| g == name).ok_or_else(|| {
                    Error::Plan(format!("column `{name}` must appear in GROUP BY"))
                })?;
                out_cols.push(OutCol::Group(gpos));
                names.push(name.clone());
            }
            SelectItem::Aggregate(f, arg) => {
                let idx = arg.as_deref().map(col_idx).transpose()?;
                out_cols.push(OutCol::Agg(*f, idx));
                names.push(match arg {
                    Some(a) => format!("{}({a})", f.name()),
                    None => format!("{}(*)", f.name()),
                });
            }
            SelectItem::All => {
                return Err(Error::Plan(
                    "SELECT * cannot be combined with aggregation".into(),
                ))
            }
        }
    }

    let make_accs = || -> Vec<Accumulator> {
        out_cols
            .iter()
            .filter_map(|c| match c {
                OutCol::Agg(f, _) => Some(Accumulator::new(*f)),
                OutCol::Group(_) => None,
            })
            .collect()
    };
    // Aggregate each partition independently, then merge partials.
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    for rows in &parts {
        let mut partial: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for row in rows {
            let key = row.key(&group_indices);
            let accs = partial.entry(key).or_insert_with(make_accs);
            let mut ai = 0;
            for c in &out_cols {
                if let OutCol::Agg(_, idx) = c {
                    accs[ai].update(idx.map(|i| row.get(i)));
                    ai += 1;
                }
            }
        }
        for (key, accs) in partial {
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (a, b) in e.get_mut().iter_mut().zip(&accs) {
                        a.merge(b);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs);
                }
            }
        }
    }
    // Global aggregation over zero rows still yields one output row.
    if groups.is_empty() && group_by.is_empty() {
        groups.insert(Vec::new(), make_accs());
    }

    let mut out_rows: Vec<Record> = groups
        .into_iter()
        .map(|(key, accs)| {
            let mut vals = Vec::with_capacity(out_cols.len());
            let mut ai = 0;
            for c in &out_cols {
                match c {
                    OutCol::Group(g) => vals.push(key[*g]),
                    OutCol::Agg(..) => {
                        vals.push(accs[ai].finish());
                        ai += 1;
                    }
                }
            }
            Record::new(vals)
        })
        .collect();
    out_rows.sort_by(|a, b| a.values().cmp(b.values()));
    Ok(RowSet {
        columns: names,
        rows: out_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AggFunc;
    use orv_bds::{generate_dataset, DatasetSpec, Deployment};
    use orv_cluster::{CancelToken, FaultInjector, RecoveryPolicy};
    use orv_obs::Obs;
    use orv_types::Interval;

    fn reader(d: &Deployment) -> SubTableReader {
        SubTableReader::new(
            d,
            FaultInjector::disabled(),
            Obs::disabled().spans,
            RecoveryPolicy::default(),
            CancelToken::none(),
        )
        .unwrap()
    }

    /// [`scan_chunks`] over the chunks the R-tree keeps, as the engine
    /// does for a base-table `SELECT`.
    fn scan(
        d: &Deployment,
        table: TableId,
        range: Option<&BoundingBox>,
    ) -> Result<(Arc<Schema>, Vec<Record>)> {
        let md = d.metadata();
        let chunks = match range {
            Some(rg) => md.find_chunks(table, rg)?,
            None => md.all_chunks(table)?,
        };
        let (schema, rows, _) = scan_chunks(&reader(d), table, &chunks, range)?;
        Ok((schema, rows))
    }

    fn deployed() -> (Deployment, TableId) {
        deployed_on(2, [4, 4, 2], [2, 2, 2])
    }

    fn deployed_on(nodes: usize, grid: [u64; 3], partition: [u64; 3]) -> (Deployment, TableId) {
        let d = Deployment::in_memory(nodes);
        let h = generate_dataset(
            &DatasetSpec::builder("t1")
                .grid(grid)
                .partition(partition)
                .scalar_attrs(&["oilp"])
                .seed(3)
                .build(),
            &d,
        )
        .unwrap();
        (d, h.table)
    }

    /// The parallel scan — one reader per storage node, one assembler —
    /// returns what the serial scan does, row for row and run for run:
    /// on 1, 2 and 3 nodes, for a full scan, windows that cut chunks, a
    /// window that keeps no row, a window on one node's chunks, a
    /// shuffled and duplicated chunk list and an unknown chunk.
    #[test]
    fn scan_on_workers_equals_the_serial_scan() {
        let window = |x: (f64, f64), y: (f64, f64)| {
            BoundingBox::from_dims([
                ("x", Interval::new(x.0, x.1)),
                ("y", Interval::new(y.0, y.1)),
            ])
        };
        for nodes in [1, 2, 3] {
            // 36 chunks of 4 × 4 × 2 rows.
            let (d, t) = deployed_on(nodes, [24, 24, 2], [4, 4, 2]);
            let md = d.metadata();
            let rd = reader(&d);
            let all = md.all_chunks(t).unwrap();
            let mut shuffled: Vec<ChunkId> = all.iter().rev().step_by(2).copied().collect();
            shuffled.extend(all.iter().step_by(2));
            shuffled.extend(&all[3..9]);
            let cut = window((1.0, 13.0), (2.5, 21.0));
            let empty = window((1.25, 1.75), (0.0, 23.0));
            let one_chunk = window((4.0, 7.0), (8.0, 11.0));
            let one_node: Vec<ChunkId> = all
                .iter()
                .copied()
                .filter(|&chunk| {
                    md.chunk_meta(SubTableId { table: t, chunk })
                        .unwrap()
                        .node
                        .0
                        == 0
                })
                .collect();
            let cases: [(&str, Vec<ChunkId>, Option<&BoundingBox>); 6] = [
                ("full", all.clone(), None),
                ("cut", md.find_chunks(t, &cut).unwrap(), Some(&cut)),
                ("empty", md.find_chunks(t, &empty).unwrap(), Some(&empty)),
                (
                    "one chunk",
                    md.find_chunks(t, &one_chunk).unwrap(),
                    Some(&one_chunk),
                ),
                ("one node's chunks, cut", one_node, Some(&cut)),
                ("shuffled", shuffled, None),
            ];
            for (what, chunks, range) in cases {
                let label = format!("{nodes} nodes, {what}");
                let (_, rows, runs) = scan_on(&rd, t, &chunks, range, usize::MAX, None).unwrap();
                let (_, on_workers, worker_runs) =
                    scan_on(&rd, t, &chunks, range, 0, None).unwrap();
                assert_eq!(on_workers, rows, "{label}");
                assert_eq!(worker_runs, runs, "{label}");
                assert_eq!(rows_checksum(&on_workers), rows_checksum(&rows), "{label}");
                // A sealed scan returns the same rows and runs, and its
                // seal is what the router computes from them.
                let want = seal_runs(rows_checksum(&rows), &runs);
                for serial_below in [usize::MAX, 0] {
                    let mut seal = BatchSeal::new();
                    let sealed = scan_on(&rd, t, &chunks, range, serial_below, Some(&mut seal));
                    let (_, sealed_rows, sealed_runs) = sealed.unwrap();
                    assert!(sealed_rows == rows && sealed_runs == runs, "{label}");
                    assert_eq!(seal_runs(seal.finish(), &runs), want, "{label}");
                }
                assert_eq!(
                    runs.iter().map(|r| r.1).sum::<usize>(),
                    rows.len(),
                    "{label}"
                );
                match what {
                    "full" | "shuffled" => assert_eq!(rows.len(), 24 * 24 * 2, "{label}"),
                    "empty" => assert!(rows.is_empty() && !runs.is_empty(), "{label}"),
                    "one chunk" => assert_eq!((runs.len(), rows.len()), (1, 32), "{label}"),
                    _ => assert!(!rows.is_empty(), "{label}"),
                }
            }
            for serial_below in [usize::MAX, 0] {
                let err = scan_on(&rd, t, &[all[0], ChunkId(99)], None, serial_below, None);
                let err = err.unwrap_err();
                assert!(matches!(err, Error::NotFound(_)), "{nodes} nodes: {err}");
            }
        }
    }

    #[test]
    fn scan_prunes_with_rtree() {
        let (d, t) = deployed();
        let range = BoundingBox::from_dims([
            ("x", Interval::new(0.0, 1.0)),
            ("y", Interval::new(0.0, 1.0)),
        ]);
        let (schema, rows) = scan(&d, t, Some(&range)).unwrap();
        assert_eq!(schema.arity(), 4);
        assert_eq!(rows.len(), 8); // 2×2×2 points
        let (_, all) = scan(&d, t, None).unwrap();
        assert_eq!(all.len(), 32);
    }

    #[test]
    fn project_selects_and_reorders() {
        let (d, t) = deployed();
        let (schema, rows) = scan(&d, t, None).unwrap();
        let cols = column_names(&schema);
        let rs = project(
            &cols,
            rows,
            &[
                SelectItem::Column("oilp".into()),
                SelectItem::Column("x".into()),
            ],
        )
        .unwrap();
        assert_eq!(rs.columns, vec!["oilp", "x"]);
        assert_eq!(rs.rows[0].arity(), 2);
        // Unknown column errors.
        let (schema, rows) = scan(&d, t, None).unwrap();
        assert!(project(
            &column_names(&schema),
            rows,
            &[SelectItem::Column("zz".into())]
        )
        .is_err());
    }

    #[test]
    fn grouped_aggregation() {
        let (d, t) = deployed();
        let (schema, rows) = scan(&d, t, None).unwrap();
        let cols = column_names(&schema);
        let rs = aggregate(
            &cols,
            rows,
            &[
                SelectItem::Column("z".into()),
                SelectItem::Aggregate(AggFunc::Count, None),
                SelectItem::Aggregate(AggFunc::Avg, Some("oilp".into())),
            ],
            &["z".into()],
        )
        .unwrap();
        assert_eq!(rs.columns, vec!["z", "COUNT(*)", "AVG(oilp)"]);
        assert_eq!(rs.rows.len(), 2); // z ∈ {0, 1}
        for row in &rs.rows {
            assert_eq!(row.get(1), Value::I64(16));
            let avg = row.get(2).as_f64();
            assert!((0.0..1.0).contains(&avg));
        }
    }

    #[test]
    fn global_aggregation_without_group_by() {
        let (d, t) = deployed();
        let (schema, rows) = scan(&d, t, None).unwrap();
        let cols = column_names(&schema);
        let rs = aggregate(
            &cols,
            rows,
            &[SelectItem::Aggregate(AggFunc::Sum, Some("x".into()))],
            &[],
        )
        .unwrap();
        assert_eq!(rs.rows.len(), 1);
        // Sum of x over 4×4×2 grid: each x in 0..4 appears 8 times.
        assert_eq!(rs.rows[0].get(0), Value::F64((1 + 2 + 3) as f64 * 8.0));
    }

    #[test]
    fn merge_aggregate_matches_single_pass_partitioning() {
        let (d, t) = deployed();
        let (schema, rows) = scan(&d, t, None).unwrap();
        let cols = column_names(&schema);
        let items = [
            SelectItem::Column("z".into()),
            SelectItem::Aggregate(AggFunc::Count, None),
            SelectItem::Aggregate(AggFunc::Min, Some("oilp".into())),
            SelectItem::Aggregate(AggFunc::Max, Some("oilp".into())),
        ];
        let group_by = ["z".to_string()];
        let single = aggregate(&cols, rows.clone(), &items, &group_by).unwrap();
        // Any partitioning (even with an empty part) re-aggregates to the
        // same result for the exact aggregates.
        let mid = rows.len() / 3;
        let parts = vec![rows[..mid].to_vec(), Vec::new(), rows[mid..].to_vec()];
        let merged = merge_aggregate(&cols, parts, &items, &group_by).unwrap();
        assert_eq!(merged.columns, single.columns);
        assert_eq!(merged.rows, single.rows);
    }

    #[test]
    fn scan_chunks_orders_dedups_and_accounts_runs() {
        let (d, t) = deployed();
        let md = d.metadata();
        let all = md.all_chunks(t).unwrap();
        // Shuffled, duplicated input: output is ascending, deduped.
        let mut chunks = all.clone();
        chunks.reverse();
        chunks.push(all[0]);
        let (_, rows, runs) = scan_chunks(&reader(&d), t, &chunks, None).unwrap();
        let (_, oracle) = scan(&d, t, None).unwrap();
        assert_eq!(rows, oracle, "chunk-order reassembly must equal a scan");
        assert_eq!(runs.len(), all.len());
        let run_ids: Vec<_> = runs.iter().map(|(c, _)| *c).collect();
        assert_eq!(run_ids, all, "runs must come back in ascending chunk order");
        assert_eq!(runs.iter().map(|(_, n)| n).sum::<usize>(), rows.len());

        // Checksums: equal rows agree, different rows disagree.
        assert_eq!(rows_checksum(&rows), rows_checksum(&oracle));
        assert_ne!(rows_checksum(&rows), rows_checksum(&rows[1..]));
        assert_eq!(rows_checksum(&[]), rows_checksum(&[]));
    }

    #[test]
    fn rows_checksum_separates_types_boundaries_and_bit_patterns() {
        let row = |vs: &[Value]| Record::new(vs.to_vec());
        let (a, b, c) = (Value::I32(1), Value::I32(2), Value::I32(3));
        let nan = |payload: u64| Value::F64(f64::from_bits(0x7FF8_0000_0000_0000 | payload));
        let distinct: [(&str, Vec<Record>, Vec<Record>); 9] = [
            (
                "i32 vs f32 with equal bits",
                vec![row(&[Value::I32(1)])],
                vec![row(&[Value::F32(f32::from_bits(1))])],
            ),
            (
                "i64 vs f64 with equal bits",
                vec![row(&[Value::I64(0x4000_0000_0000_0000)])],
                vec![row(&[Value::F64(2.0)])],
            ),
            (
                "i32 vs i64 with equal value",
                vec![row(&[Value::I32(7)])],
                vec![row(&[Value::I64(7)])],
            ),
            (
                "row boundary",
                vec![row(&[a, b]), row(&[c])],
                vec![row(&[a]), row(&[b, c])],
            ),
            (
                "signed zero",
                vec![row(&[Value::F64(0.0)]), row(&[Value::F32(0.0)])],
                vec![row(&[Value::F64(-0.0)]), row(&[Value::F32(0.0)])],
            ),
            ("nan payload", vec![row(&[nan(1)])], vec![row(&[nan(2)])]),
            (
                "row order",
                vec![row(&[a, b]), row(&[b, c])],
                vec![row(&[b, c]), row(&[a, b])],
            ),
            (
                "truncated tail",
                vec![row(&[a, b]), row(&[b, c])],
                vec![row(&[a, b])],
            ),
            ("empty row vs no row", vec![row(&[])], vec![]),
        ];
        for (what, left, right) in &distinct {
            assert_ne!(rows_checksum(left), rows_checksum(right), "{what}");
        }
        // `Debug` prints both NaNs as `NaN`: no text rendering of the
        // values could have told them apart.
        assert_eq!(format!("{:?}", nan(1)), format!("{:?}", nan(2)));
        assert_eq!(rows_checksum(&[]), orv_cluster::crc32c(&[]));
    }

    #[test]
    fn rows_checksum_is_the_crc_of_the_documented_encoding() {
        // Enough rows to cross the stack buffer several times, so a flush
        // that dropped or repeated bytes would show.
        let rows: Vec<Record> = (0..500i32)
            .map(|i| {
                Record::new(vec![
                    Value::I32(i),
                    Value::I64(i64::MIN + i as i64),
                    Value::F32(i as f32 * -0.5),
                    Value::F64(f64::from_bits(0x7FF8_0000_0000_0000 | i as u64)),
                ])
            })
            .collect();
        let mut bytes = Vec::new();
        for r in &rows {
            bytes.extend_from_slice(&(r.arity() as u32).to_le_bytes());
            for &v in r.values() {
                match v {
                    Value::I32(x) => {
                        bytes.push(0);
                        bytes.extend_from_slice(&x.to_le_bytes());
                    }
                    Value::I64(x) => {
                        bytes.push(1);
                        bytes.extend_from_slice(&x.to_le_bytes());
                    }
                    Value::F32(x) => {
                        bytes.push(2);
                        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                    Value::F64(x) => {
                        bytes.push(3);
                        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(bytes.len(), 500 * (4 + 5 + 9 + 5 + 9));
        assert_eq!(rows_checksum(&rows), orv_cluster::crc32c(&bytes));
    }

    #[test]
    fn plain_column_must_be_grouped() {
        let (d, t) = deployed();
        let (schema, rows) = scan(&d, t, None).unwrap();
        let cols = column_names(&schema);
        let err = aggregate(
            &cols,
            rows,
            &[
                SelectItem::Column("x".into()),
                SelectItem::Aggregate(AggFunc::Count, None),
            ],
            &["z".into()],
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    /// `batches_to_rows` lays a run of batches out as it stands; the
    /// join's row edge, on any number of workers and cut into parts of
    /// any size, lays it out as the stable row sort does.
    #[test]
    fn row_edge_on_workers_equals_the_serial_edge() {
        use orv_types::ColumnData;
        // Five batches of 0, 3, 0, 1 and 4 rows: empty ones at the front
        // and in the middle, and 8 rows that 3 workers cannot share evenly.
        let batch = |xs: &[i32]| {
            ColumnBatch::from_columns(vec![
                ColumnData::I32(xs.to_vec()),
                ColumnData::F64(xs.iter().map(|&x| x as f64 / 2.0).collect()),
            ])
            .unwrap()
        };
        let batches = [
            batch(&[]),
            batch(&[5, 6, 7]),
            batch(&[]),
            batch(&[1]),
            batch(&[9, 8, 7, 6]),
        ];
        let serial = batches_to_rows(&batches).unwrap();
        assert_eq!(serial.len(), 8);
        assert_eq!(serial[3].values(), &[Value::I32(1), Value::F64(0.5)]);
        let inputs: [&[ColumnBatch]; 5] =
            [&batches, &[], &batches[..1], &batches[2..4], &batches[1..2]];
        for input in inputs {
            let mut sorted = batches_to_rows(input).unwrap();
            sorted.sort_by(|a, b| a.values().cmp(b.values()));
            for workers in [0, 1, 2, 3, 4, 9] {
                for part_rows in [0, 1, 2, 3, PART_ROWS] {
                    // Threshold 0: every result is worth its workers.
                    let none = CancelToken::none();
                    let rows = join_rows_on(input.to_vec(), workers, 0, part_rows, &none);
                    assert_eq!(rows.unwrap(), sorted, "{workers} workers, {part_rows}");
                }
            }
        }
    }

    /// Three columns `(x, y, x · y)`, one row per cell.
    fn cell_batch(cells: &[(i32, i32)]) -> ColumnBatch {
        use orv_types::ColumnData;
        ColumnBatch::from_columns(vec![
            ColumnData::I32(cells.iter().map(|c| c.0).collect()),
            ColumnData::I32(cells.iter().map(|c| c.1).collect()),
            ColumnData::F32(cells.iter().map(|c| (c.0 * c.1) as f32).collect()),
        ])
        .unwrap()
    }

    /// IJ's shape: one ascending batch per sub-table pair of a grid cut
    /// into `chunks` × `chunks` chunks of `side` × `side` cells, in an
    /// order that is not the result's.
    fn pair_runs(chunks: i32, side: i32) -> Vec<ColumnBatch> {
        let pair = |cx: i32, cy: i32| {
            let cells =
                (0..side).flat_map(|x| (0..side).map(move |y| (cx * side + x, cy * side + y)));
            cell_batch(&cells.collect::<Vec<_>>())
        };
        (0..chunks)
            .flat_map(|cy| (0..chunks).rev().map(move |cx| pair(cx, cy)))
            .collect()
    }

    /// The pairs of an x-stripe overlap and stripes do not: a grid cut
    /// into 4 × 4 chunks makes 4 groups of 4 runs. Each stripe fits in a
    /// share on up to 4 workers, so it is not cut, however small the
    /// parts; [`join_rows_on`] builds them in the stable row sort's order
    /// on 1 to 4 workers, on either side of the serial threshold.
    #[test]
    fn pair_runs_group_by_x_stripe() {
        let batches = pair_runs(4, 4);
        assert!(batches.iter().all(|b| bounds(b).2), "every pair ascends");
        let sizes: Vec<usize> = groups(batches.clone(), 2)
            .unwrap()
            .iter()
            .map(|g| g.batches.len())
            .collect();
        assert_eq!(sizes, [4; 4]);
        let none = CancelToken::none();
        let whole: Vec<Vec<ColumnBatch>> = groups(batches.clone(), 1)
            .unwrap()
            .into_iter()
            .map(|g| g.batches)
            .collect();
        for workers in 1..=4 {
            let share = (16 * 16usize).div_ceil(workers);
            let (kept, cut) = cut_groups(batches.clone(), workers, share, 8, &none).unwrap();
            assert!(!cut, "{workers} workers");
            assert!(kept.iter().all(|g| g.ascending), "{workers} workers");
            let kept: Vec<Vec<ColumnBatch>> = kept.into_iter().map(|g| g.batches).collect();
            assert!(kept == whole, "{workers} workers: a stripe was cut");
        }
        // Were a share smaller than a stripe, the stripes would be cut,
        // the ties on `x` again on `y`, into ascending parts of at most 8
        // rows.
        let (parts, cut) = cut_groups(batches.clone(), 8, 32, 8, &none).unwrap();
        assert!(cut);
        assert!(parts.len() > 4 && parts.iter().all(|g| g.ascending && g.rows <= 8));
        assert_eq!(parts.iter().map(|g| g.rows).sum::<usize>(), 16 * 16);
        let mut expected = batches_to_rows(&batches).unwrap();
        expected.sort_by(|a, b| a.values().cmp(b.values()));
        for workers in 1..=4 {
            for serial_below in [0, usize::MAX] {
                for part_rows in [8, PART_ROWS] {
                    let rows =
                        join_rows_on(batches.clone(), workers, serial_below, part_rows, &none);
                    let label = format!("{workers} workers, {serial_below}, {part_rows}");
                    assert_eq!(rows.unwrap(), expected, "{label}");
                }
            }
        }
        // A run from stripe 0's last row to stripe 1's first touches both:
        // the two become one group.
        let mut bridged = batches.clone();
        bridged.push(cell_batch(&[(3, 15), (4, 0)]));
        assert_eq!(groups(bridged, 1).unwrap().len(), 3);
        // A batch that descends in a later column is bounded by column 0.
        let (low, high, sorted) = bounds(&cell_batch(&[(1, 5), (1, 2)]));
        let one = Value::I32(1).order_bits();
        assert!(!sorted);
        assert_eq!(
            (low, high),
            (vec![one, 0, 0], vec![one, u64::MAX, u64::MAX])
        );
    }

    /// The merge lays a 4 × 4 stripe out in one stretch per x value and
    /// pair — 16 per group of 64 rows, not one per row — and rows that
    /// compare equal in two runs come out earlier run first.
    #[test]
    fn a_stripe_merges_in_one_stretch_per_x_and_pair() {
        for group in groups(pair_runs(4, 4), 2).unwrap() {
            assert!(group.ascending);
            // The group's runs are its stripe's pairs in ascending y.
            let expected: Vec<(usize, Range<usize>)> = (0..4)
                .flat_map(|x| (0..4).map(move |pair| (pair, 4 * x..4 * x + 4)))
                .collect();
            assert_eq!(merge_stretches(&group.batches), expected);
        }
        let low = cell_batch(&[(0, 1), (0, 2), (0, 2), (0, 3)]);
        let ties = cell_batch(&[(0, 2), (0, 2)]);
        assert_eq!(
            merge_stretches(&[low.clone(), ties.clone()]),
            [(0, 0..3), (1, 0..2), (0, 3..4)]
        );
        assert_eq!(
            merge_stretches(&[ties, low]),
            [(1, 0..1), (0, 0..2), (1, 1..4)]
        );
        assert!(merge_stretches(&[]).is_empty());
    }

    /// A cancelled query builds no row: 2¹⁶ rows of pair runs, or one
    /// unordered batch of them (Grace Hash's shape, which is cut into
    /// parts), on one worker and on two, come back as the cancellation
    /// error; a live query builds them in order.
    #[test]
    fn a_cancelled_join_builds_no_rows() {
        let runs = pair_runs(16, 16);
        let rows = batches_to_rows(&runs).unwrap();
        assert_eq!(rows.len(), 1 << 16);
        let shuffled: Vec<Record> = rows.iter().rev().cloned().collect();
        let unordered = ColumnBatch::from_records(&runs[0].dtypes(), &shuffled).unwrap();
        let mut sorted = rows;
        sorted.sort_by(|a, b| a.values().cmp(b.values()));
        let cancel = CancelToken::new();
        cancel.cancel();
        for workers in [1, 2] {
            for batches in [runs.clone(), vec![unordered.clone()]] {
                let err = join_rows(batches.clone(), workers, &cancel).unwrap_err();
                assert!(matches!(err, Error::Cancelled), "{workers} workers: {err}");
                let live = join_rows(batches, workers, &CancelToken::new()).unwrap();
                assert!(live == sorted, "{workers} workers");
            }
        }
    }

    /// The two encoders of a federated response's seal agree: a
    /// [`BatchSeal`] written from columns and [`rows_checksum`] over the
    /// rows those columns build. `PROPTEST_CASES` sets the case count
    /// (CI runs 4 096).
    mod seal_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn cases() -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|n| n.parse().ok())
                .unwrap_or(256)
        }

        /// The bit patterns worth a special case: signed zeros, NaNs with
        /// payloads (quiet and signalling, both signs), infinities and
        /// the integer extremes.
        const SPECIAL_I64: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 1];
        const SPECIAL_I32: [i32; 5] = [i32::MIN, i32::MAX, 0, -1, 1];
        const SPECIAL_F64: [u64; 6] = [
            0,
            0x8000_0000_0000_0000,
            0x7FF8_0000_0000_0001,
            0xFFF0_0000_0000_0002,
            0x7FF0_0000_0000_0000,
            0x0000_0000_0000_0001,
        ];
        const SPECIAL_F32: [u32; 6] = [
            0,
            0x8000_0000,
            0x7FC0_0001,
            0xFF80_0002,
            0x7F80_0000,
            0x0000_0001,
        ];

        /// `rows` values of `ty` from `seed`: one in four a special
        /// value, the rest arbitrary bit patterns.
        fn column(ty: DataType, rows: usize, seed: u64) -> ColumnData {
            let mut x = seed | 1;
            let mut col = ColumnData::with_capacity(ty, rows);
            for _ in 0..rows {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (special, bits) = (x.is_multiple_of(4).then_some((x >> 2) as usize), x);
                let v = match ty {
                    DataType::I32 => {
                        Value::I32(special.map_or(bits as i32, |i| SPECIAL_I32[i % 5]))
                    }
                    DataType::I64 => {
                        Value::I64(special.map_or(bits as i64, |i| SPECIAL_I64[i % 5]))
                    }
                    DataType::F32 => Value::F32(f32::from_bits(
                        special.map_or(bits as u32, |i| SPECIAL_F32[i % 6]),
                    )),
                    DataType::F64 => {
                        Value::F64(f64::from_bits(special.map_or(bits, |i| SPECIAL_F64[i % 6])))
                    }
                };
                col.push(v).unwrap();
            }
            col
        }

        fn batch(types: &[DataType], rows: usize, seed: u64) -> ColumnBatch {
            let columns = types.iter().enumerate();
            let columns = columns.map(|(c, &ty)| column(ty, rows, seed.wrapping_add(c as u64)));
            ColumnBatch::from_columns(columns.collect()).unwrap()
        }

        fn any_type() -> impl Strategy<Value = DataType> {
            proptest::sample::select(vec![
                DataType::I32,
                DataType::I64,
                DataType::F32,
                DataType::F64,
            ])
        }

        /// Row counts around the piece size and none at all, or anything
        /// up to three pieces.
        fn any_rows() -> impl Strategy<Value = usize> {
            prop_oneof![
                proptest::sample::select(vec![0usize, 1, 511, 512, 513, 1_025]),
                0usize..1_600,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            /// Arity 1–8 in every mix of the four types; one batch, or
            /// two with the same or another schema, folded in order.
            #[test]
            fn batch_seal_equals_rows_checksum(
                types in proptest::collection::vec(any_type(), 1..9),
                other in proptest::collection::vec(any_type(), 1..9),
                rows in any_rows(),
                more in any_rows(),
                shape in 0u8..3,
                seed in any::<u64>(),
            ) {
                let first = batch(&types, rows, seed);
                let second = match shape {
                    0 => None,
                    1 => Some(batch(&types, more, seed ^ 0x9E37)),
                    _ => Some(batch(&other, more, seed ^ 0x9E37)),
                };
                let mut seal = BatchSeal::new();
                let mut records = first.to_records().unwrap();
                seal.fold(&first);
                if let Some(second) = &second {
                    seal.fold(second);
                    records.extend(second.to_records().unwrap());
                }
                prop_assert_eq!(seal.finish(), rows_checksum(&records));
            }

            /// Through the scan a shard runs, on its serial and its
            /// parallel path: 1–3 nodes, 0–5 scalars beside the three
            /// coordinates, a full scan or a window, 4–12 chunks of 1–64
            /// rows.
            #[test]
            fn scan_seal_equals_the_router_check(
                nodes in 1usize..4,
                scalars in 0usize..6,
                cells in (1u64..9, 1u64..9, 1u64..4),
                window in (any::<bool>(), 0u64..8, 0u64..8),
                seed in any::<u64>(),
            ) {
                let names = ["a", "b", "c", "d", "e"];
                let d = Deployment::in_memory(nodes);
                let grid = [cells.0 * 2, cells.1 * 2, cells.2];
                let h = generate_dataset(
                    &DatasetSpec::builder("t")
                        .grid(grid)
                        .partition([cells.0, cells.1, 1])
                        .scalar_attrs(&names[..scalars])
                        .seed(seed)
                        .build(),
                    &d,
                )
                .unwrap();
                let md = d.metadata();
                let (windowed, x, y) = window;
                let range = windowed.then(|| {
                    BoundingBox::from_dims([
                        ("x", Interval::new(x as f64, x as f64 + 2.5)),
                        ("y", Interval::new(y as f64 * 0.5, grid[1] as f64)),
                    ])
                });
                let chunks = match &range {
                    Some(rg) => md.find_chunks(h.table, rg).unwrap(),
                    None => md.all_chunks(h.table).unwrap(),
                };
                let rd = reader(&d);
                for serial_below in [usize::MAX, 0] {
                    let mut seal = BatchSeal::new();
                    let (_, rows, runs) =
                        scan_on(&rd, h.table, &chunks, range.as_ref(), serial_below, Some(&mut seal))
                            .unwrap();
                    prop_assert_eq!(seal.finish(), rows_checksum(&rows));
                    prop_assert_eq!(runs.iter().map(|r| r.1).sum::<usize>(), rows.len());
                }
            }
        }
    }

    mod order_props {
        use super::*;
        use orv_types::{ColumnData, DataType};
        use proptest::prelude::*;

        /// Few distinct values, so rows tie on leading columns and whole
        /// rows repeat; both zeros and two NaNs, which compare equal and
        /// must keep their input order.
        const FLOATS: [f64; 6] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0xFFF8_0000_0000_0001),
            -1.5,
            f64::INFINITY,
        ];
        const INTS: [i64; 4] = [0, -1, 3, i64::MIN];
        /// `f32` has NaN payloads of its own; a cast from `f64` drops them.
        const FLOATS32: [u32; 6] = [
            0,
            0x8000_0000,
            0x7FC0_0000,
            0xFFC0_0001,
            0xBFC0_0000,
            0x7F80_0000,
        ];

        fn column(ty: DataType, picks: &[usize]) -> ColumnData {
            let picks = picks.iter();
            match ty {
                DataType::I32 => ColumnData::I32(picks.map(|&i| INTS[i % 3] as i32).collect()),
                DataType::I64 => ColumnData::I64(picks.map(|&i| INTS[i % 4]).collect()),
                DataType::F32 => {
                    ColumnData::F32(picks.map(|&i| f32::from_bits(FLOATS32[i])).collect())
                }
                DataType::F64 => ColumnData::F64(picks.map(|&i| FLOATS[i]).collect()),
            }
        }

        fn batch(types: &[DataType], cells: &[&[usize]]) -> ColumnBatch {
            let columns = types
                .iter()
                .enumerate()
                .map(|(c, &ty)| column(ty, &cells.iter().map(|row| row[c]).collect::<Vec<_>>()));
            ColumnBatch::from_columns(columns.collect()).unwrap()
        }

        /// Bit-exact rendering: `Record` equality calls `-0.0 == 0.0` and
        /// any two NaNs equal, which is exactly what must not be reordered,
        /// and `Debug` prints every NaN payload as `NaN`.
        fn bits(rows: &[Record]) -> Vec<Vec<(u8, u64)>> {
            let bits = |v: &Value| match *v {
                Value::I32(x) => (0, x as u32 as u64),
                Value::I64(x) => (1, x as u64),
                Value::F32(x) => (2, x.to_bits() as u64),
                Value::F64(x) => (3, x.to_bits()),
            };
            rows.iter()
                .map(|r| r.values().iter().map(bits).collect())
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// [`join_rows_on`] is `batches_to_rows` then
            /// `sort_by(values().cmp())`, as a `Record` sequence down to
            /// the bit, for 1 to 4 workers, on both sides of the serial
            /// threshold and with parts of 1 to 23 rows or `PART_ROWS` —
            /// so through the streamed groups, and through the cut of a
            /// group that is unsorted or larger than a share. The input is
            /// ascending runs — windows of one sorted pool, thinned, so
            /// their ranges are disjoint, touching, nested or overlapping
            /// and equal rows fall in several runs — and, in two cases out
            /// of three, unsorted batches of up to 39 rows among them
            /// (Grace Hash's shape); up to two batches appear twice, so
            /// whole rows repeat across batches. Column 0 is as drawn, one
            /// key (the cut moves to column 1), or, in a float column, the
            /// two zeros or two NaNs, which tie: with parts of a few rows
            /// there are fewer distinct column-0 keys than parts.
            #[test]
            fn typed_order_equals_the_boxed_row_sort(
                types in proptest::collection::vec(
                    proptest::sample::select(vec![
                        DataType::I32, DataType::I64, DataType::F32, DataType::F64,
                    ]),
                    1..5,
                ),
                runs in proptest::collection::vec((0usize..40, 0usize..16, any::<u64>()), 0..8),
                unsorted in proptest::collection::vec(0usize..40, 0..3),
                repeated in proptest::collection::vec(any::<usize>(), 0..3),
                lead in 0usize..4,
                part_rows in 1usize..24,
                picks in proptest::collection::vec(0usize..6, 480..481),
            ) {
                let mut picks = picks;
                for row in picks.chunks_mut(types.len()) {
                    row[0] = match lead {
                        0 => row[0],
                        1 => 2,
                        // +0.0 and -0.0, or two NaN payloads, in a float
                        // column.
                        2 => row[0] % 2,
                        _ => 2 + row[0] % 2,
                    };
                }
                let mut picks = picks.chunks(types.len());
                let mut take = |rows| batch(&types, &picks.by_ref().take(rows).collect::<Vec<_>>());
                let mut pool = batches_to_rows(&[take(40)]).unwrap();
                pool.sort_by(|a, b| a.values().cmp(b.values()));
                let mut batches: Vec<ColumnBatch> = runs
                    .iter()
                    .map(|&(start, len, mask)| {
                        let window = &pool[start..(start + len).min(pool.len())];
                        let kept: Vec<Record> = (0..window.len())
                            .filter(|i| mask >> i & 1 == 1)
                            .map(|i| window[i].clone())
                            .collect();
                        ColumnBatch::from_records(&types, &kept).unwrap()
                    })
                    .collect();
                for (k, &rows) in unsorted.iter().enumerate() {
                    let at = (k * 5) % (batches.len() + 1);
                    batches.insert(at, take(rows));
                }
                for &r in &repeated {
                    if !batches.is_empty() {
                        batches.push(batches[r % batches.len()].clone());
                    }
                }
                let mut expected = batches_to_rows(&batches).unwrap();
                expected.sort_by(|a, b| a.values().cmp(b.values()));
                for workers in 1..=4 {
                    for serial_below in [0, usize::MAX] {
                        for part_rows in [part_rows, PART_ROWS] {
                            let none = CancelToken::none();
                            let rows =
                                join_rows_on(batches.clone(), workers, serial_below, part_rows, &none);
                            prop_assert_eq!(
                                bits(&rows.unwrap()),
                                bits(&expected),
                                "{} workers, parts of {}",
                                workers,
                                part_rows
                            );
                        }
                    }
                }
            }

            /// `LIMIT k` selects then sorts `k`: the same rows in the same
            /// order as the stable sort of everything, ties included.
            #[test]
            fn limit_selects_what_the_stable_sort_would_keep(
                cells in proptest::collection::vec((0i32..4, 0i32..3), 0..40),
                k in 0usize..45,
                (first_desc, second_desc) in (any::<bool>(), any::<bool>()),
                two_keys in any::<bool>(),
            ) {
                // Column `id` tells tied rows apart without being a key.
                let rows: Vec<Record> = cells
                    .iter()
                    .enumerate()
                    .map(|(id, &(a, b))| {
                        Record::new(vec![Value::I32(a), Value::F32(b as f32), Value::I64(id as i64)])
                    })
                    .collect();
                let columns: Vec<String> = ["a", "b", "id"].map(String::from).to_vec();
                let mut order_by = vec![("a".to_string(), first_desc)];
                if two_keys {
                    order_by.push(("b".to_string(), second_desc));
                }
                let input = || RowSet { columns: columns.clone(), rows: rows.clone() };
                let mut expected = order_and_limit(input(), &order_by, None).unwrap().rows;
                expected.truncate(k);
                let got = order_and_limit(input(), &order_by, Some(k)).unwrap().rows;
                prop_assert_eq!(got, expected);
            }
        }
    }
}
