//! The distributed page-level Indexed Join on the threaded runtime.
//!
//! "Each compute node runs a QES instance that receives a pair of sub-table
//! ids to join. The QES instance checks with the local Cache Service
//! Instance to see if either of the sub-tables are present. If not, the QES
//! instance requests for the sub-tables from appropriate BDS instances
//! running on the storage nodes. It then performs a hash join on the
//! received pairs of sub-tables."
//!
//! Each compute node is an OS thread. What is fetched and cached is what
//! storage holds — whole sub-tables, and hash tables over whole left ones —
//! so "a hash-table is created only once for every left sub-table" holds
//! for every query over a view, whatever its range, under the §5.1 memory
//! assumption. The range is the query's: it drops scheduled pairs of the
//! stored join index at sub-table level (the paper's pruning), then selects
//! rows per pair (ours): the right side's before the probe, the left's after.
//!
//! ## Fault tolerance
//!
//! Every sub-table fetch goes through the execution's
//! [`SubTableReader`], which reads under the configured [`RecoveryPolicy`]
//! (bounded retries, exponential backoff under the query's token), so
//! transient storage faults are retried rather than fatal. Each round's
//! workers run on `orv_cluster::workers::run_workers`, which contains a
//! panic as a typed `WorkerEnd::Panicked` and joins every handle: a
//! panicking worker's completed pairs stay committed exactly once, and
//! its remaining pairs are re-scheduled (via the same [`schedule`] used
//! for the initial assignment) over the surviving workers. Only when
//! every worker has died does the join fail, with a typed
//! `Error::Cluster`. Results and statistics are committed per completed
//! pair, so reassignment never duplicates or loses output.
//!
//! ## Output
//!
//! A pair's result is the probe kernel's matched row indices
//! ([`HashJoiner`]): a count-only run takes their number and builds
//! nothing; a collecting run gathers them into one typed [`ColumnBatch`]
//! per pair, and [`JoinOutput`] hands those batches on. No row object is
//! built here — that happens once, at the query engine's row edge.

use crate::cache::{left_key_tag, CacheKey, CacheService, CachedEntry};
use crate::connectivity::{join_index, ConnectivityGraph};
use crate::hash_join::{HashJoiner, JoinCounters};
use crate::schedule::{schedule, SchedulePolicy::TwoStageLexicographic};
use orv_bds::{Deployment, SubTableReader};
use orv_chunk::SubTable;
use orv_cluster::{
    run_workers, CancelToken, FaultInjector, RecoveryPolicy, RunStats, WorkerBody, WorkerEnd,
};
use orv_obs::{names, MetricsRegistry, Obs, SpanTimer};
use orv_types::{BoundingBox, ColumnBatch, Error, Interval, Record, Result, SubTableId, TableId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of one Indexed Join execution.
#[derive(Clone, Debug)]
pub struct IndexedJoinConfig {
    /// Number of compute-node threads (`n_j`).
    pub n_compute: usize,
    /// Sub-table cache capacity: bytes per compute node. An entry larger
    /// than that is not cached.
    pub cache_capacity: u64,
    /// Figure-8 work multiplier for hash build/probe.
    pub work_factor: u32,
    /// Collect the result (one batch per pair); otherwise only count it.
    pub collect_results: bool,
    /// Optional range constraint: prunes the join index's edges and
    /// selects rows per joined pair; never what is fetched or cached.
    pub range: Option<BoundingBox>,
    /// Optional fault injector exercising the execution (tests/chaos).
    pub faults: Option<Arc<FaultInjector>>,
    /// Retry/backoff policy for storage fetches.
    pub recovery: RecoveryPolicy,
    /// Cooperative cancellation: checked before every pair and observed by
    /// fetch retries/backoff, so a cancel (or deadline) unwinds the join
    /// within one sleep slice.
    pub cancel: CancelToken,
    /// Observability handle. Disabled by default; when enabled, workers
    /// record `n{j}/transfer`, `n{j}/build` and `n{j}/probe` spans (one
    /// per cost-model term) and the merged [`RunStats`] are published
    /// into the metrics registry under the `ij/` prefix.
    pub obs: Obs,
}

impl Default for IndexedJoinConfig {
    fn default() -> Self {
        IndexedJoinConfig {
            n_compute: 2,
            cache_capacity: 256 << 20,
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

/// Result of a distributed join execution.
#[derive(Debug)]
pub struct JoinOutput {
    /// Aggregated run statistics.
    pub stats: RunStats,
    /// The result if `collect_results` was set, as typed batches. IJ
    /// hands back one batch per joined sub-table pair, in completion
    /// order, its rows in the right sub-table's row order; GH one batch
    /// per bucket pair, by compute node and then bucket, its rows in the
    /// right bucket's row order (probe order). The engine
    /// orders and builds the rows in one pass (`exec::join_rows`): it
    /// merges overlapping ascending runs by stretches, as IJ's x-stripes
    /// are, sorts any other group, and checks each batch for an ascending
    /// run rather than trusting either shape.
    pub batches: Option<Vec<ColumnBatch>>,
}

impl JoinOutput {
    /// The collected result as rows, for tests and oracles; the engine
    /// orders and materialises the batches itself. By reference, so a
    /// test can still read `stats` afterwards.
    pub fn records(&self) -> Option<Vec<Record>> {
        let batches = self.batches.as_ref()?;
        let mut rows = Vec::with_capacity(batches.iter().map(|b| b.num_rows()).sum());
        for b in batches {
            b.append_records_to(&mut rows).ok()?;
        }
        Some(rows)
    }
}

/// What both join QES open an execution with and close it through: the
/// fault injector, the one [`SubTableReader`] every chunk read of the
/// execution goes through, the hash counters, the metrics the run is
/// published into and the wall clock.
pub(crate) struct RunFrame {
    pub(crate) injector: Arc<FaultInjector>,
    pub(crate) reader: SubTableReader,
    pub(crate) counters: JoinCounters,
    metrics: MetricsRegistry,
    /// Wall clock feeding `RunStats::wall_secs` only; never drives
    /// control flow.
    start: SpanTimer,
}

impl RunFrame {
    /// Open an execution of the QES `name` on `n_compute` compute nodes,
    /// which must be at least one.
    pub(crate) fn open(
        deployment: &Deployment,
        name: &str,
        n_compute: usize,
        faults: Option<&Arc<FaultInjector>>,
        recovery: RecoveryPolicy,
        cancel: &CancelToken,
        obs: &Obs,
    ) -> Result<Self> {
        if n_compute == 0 {
            return Err(Error::Config(format!(
                "{name} needs at least one compute node"
            )));
        }
        let injector = faults.cloned().unwrap_or_else(FaultInjector::disabled);
        let reader = SubTableReader::new(
            deployment,
            Arc::clone(&injector),
            obs.spans.clone(),
            recovery,
            cancel.clone(),
        )?;
        Ok(RunFrame {
            injector,
            reader,
            counters: JoinCounters::new(),
            metrics: obs.metrics.clone(),
            start: SpanTimer::start(),
        })
    }

    /// Close the execution: complete the workers' merged `stats` with the
    /// reader's corruption count, the wall time and the hash counters,
    /// publish them under `prefix`, and hand them back with the batches.
    pub(crate) fn close(
        self,
        mut stats: RunStats,
        prefix: &str,
        batches: Option<Vec<ColumnBatch>>,
    ) -> JoinOutput {
        stats.corruptions_detected += self.reader.corruptions_detected();
        stats.wall_secs = self.start.elapsed_secs();
        stats.hash_builds = self.counters.builds();
        stats.hash_probes = self.counters.probes();
        stats.record_into(&self.metrics, prefix);
        JoinOutput { stats, batches }
    }
}

/// Execute `left ⊕ right` on `join_attrs` with the Indexed Join QES,
/// using a fresh (query-lifetime) cache.
pub fn indexed_join(
    deployment: &Deployment,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    cfg: &IndexedJoinConfig,
) -> Result<JoinOutput> {
    let cache = CacheService::new(cfg.n_compute, cfg.cache_capacity);
    indexed_join_cached(deployment, left, right, join_attrs, cfg, &cache)
}

/// Execute with an externally owned [`CacheService`], so repeated queries
/// — of any range — find their working set warm. The service must have
/// one shard per compute node. Pairs run in the paper's two-stage
/// lexicographic schedule; the other policies are simulator ablations.
pub fn indexed_join_cached(
    deployment: &Deployment,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    cfg: &IndexedJoinConfig,
    cache: &CacheService,
) -> Result<JoinOutput> {
    let frame = RunFrame::open(
        deployment,
        "indexed join",
        cfg.n_compute,
        cfg.faults.as_ref(),
        cfg.recovery,
        &cfg.cancel,
        &cfg.obs,
    )?;
    if cache.n_compute() != cfg.n_compute {
        return Err(Error::Config(format!(
            "cache service has {} shards but the join uses {} compute nodes",
            cache.n_compute(),
            cfg.n_compute
        )));
    }
    let md = deployment.metadata();

    // Place all of the stored join index, then drop the pairs a chunk of
    // which misses the range: a pair keeps its node, and its cached sides.
    let edges = join_index(md, left, right, join_attrs)?.as_ref().clone();
    let graph = ConnectivityGraph::from_edges(left, right, join_attrs, edges);
    let mut pending = schedule(&graph, cfg.n_compute, TwoStageLexicographic);
    let (mut left_checks, mut right_checks) = (Vec::new(), Vec::new());
    if let Some(rg) = &cfg.range {
        let (ls, rs) = (md.find_chunks(left, rg)?, md.find_chunks(right, rg)?);
        let meets = |ids: &[_], id: &SubTableId| ids.binary_search(&id.chunk).is_ok();
        for plan in &mut pending {
            plan.retain(|(l, r)| meets(&ls, l) && meets(&rs, r));
        }
        left_checks = md.schema(left)?.range_checks(rg);
        right_checks = md.schema(right)?.range_checks(rg);
    }
    let run = PairRunner {
        cfg,
        frame: &frame,
        cache,
        join_attrs,
        // Left-side cache keys carry the hash-table parameters, so views
        // joining the same tables on different attributes never alias.
        left_tag: left_key_tag(join_attrs, cfg.work_factor),
        left_checks,
        right_checks,
        committed: Mutex::new((Vec::new(), RunStats::default())),
    };

    let mut alive = vec![true; cfg.n_compute];
    let mut worker_panics = 0u64;
    let mut pairs_reassigned = 0u64;
    let mut last_panic = String::new();
    let mut rounds = 0usize;

    loop {
        rounds += 1;
        if rounds > cfg.n_compute + 1 {
            // Unreachable in practice: each extra round requires a fresh
            // worker death, and workers are finite.
            return Err(Error::Cluster(
                "indexed join exceeded its recovery-round bound".into(),
            ));
        }

        // Per-worker count of *committed* pairs this round, read by the
        // coordinator only after the worker thread has terminated.
        let completed: Vec<AtomicU64> = (0..cfg.n_compute).map(|_| AtomicU64::new(0)).collect();
        let mut workers: Vec<(usize, WorkerBody<'_, ()>)> = Vec::new();
        for node_idx in 0..cfg.n_compute {
            if !alive[node_idx] || pending[node_idx].is_empty() {
                continue;
            }
            let (plan, completed) = (&pending[node_idx], &completed[node_idx]);
            let (run, injector) = (&run, &frame.injector);
            let body = move || {
                for (i, &(lid, rid)) in plan.iter().enumerate() {
                    cfg.cancel.check()?;
                    injector.worker_checkpoint(node_idx);
                    // The pair commits inside `join_pair`; publishing
                    // progress follows with nothing fallible in between.
                    run.join_pair(node_idx, lid, rid)?;
                    completed.store(i as u64 + 1, Ordering::Release);
                }
                Ok(())
            };
            workers.push((node_idx, Box::new(body)));
        }

        let mut orphaned: Vec<(SubTableId, SubTableId)> = Vec::new();
        let mut failed: Option<Error> = None;
        for (node_idx, end) in run_workers(workers) {
            match end {
                WorkerEnd::Done(()) => {}
                // Typed worker errors (fetch failed after all retries,
                // corrupt data, …) abort the join — they would recur on
                // any node. A cancellation is reported as such even when
                // some other worker failed with a secondary error first.
                WorkerEnd::Failed(e) => {
                    if e.is_cancellation() || failed.is_none() {
                        failed = Some(e);
                    }
                }
                // Died; its uncommitted pairs go to the survivors.
                WorkerEnd::Panicked(msg) => {
                    worker_panics += 1;
                    alive[node_idx] = false;
                    last_panic = msg;
                    let done = completed[node_idx].load(Ordering::Acquire) as usize;
                    orphaned.extend_from_slice(&pending[node_idx][done..]);
                }
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        if orphaned.is_empty() {
            break;
        }

        // Reassign the dead workers' remaining pairs over the survivors
        // with the same scheduler that produced the original assignment.
        let survivors: Vec<usize> = (0..cfg.n_compute).filter(|&k| alive[k]).collect();
        if survivors.is_empty() {
            return Err(Error::Cluster(format!(
                "all {} compute workers died; last panic: {last_panic}",
                cfg.n_compute
            )));
        }
        pairs_reassigned += orphaned.len() as u64;
        let regraph = ConnectivityGraph::from_edges(left, right, join_attrs, orphaned);
        let replans = schedule(&regraph, survivors.len(), TwoStageLexicographic);
        let mut next = vec![Vec::new(); cfg.n_compute];
        for (slot, pairs) in replans.into_iter().enumerate() {
            next[survivors[slot]] = pairs;
        }
        pending = next;
    }

    let (batches, mut stats) = run.committed.into_inner();
    stats.worker_panics = worker_panics;
    stats.pairs_reassigned = pairs_reassigned;
    Ok(frame.close(stats, "ij", cfg.collect_results.then_some(batches)))
}

/// What every compute worker of one execution shares to join a pair.
struct PairRunner<'a> {
    cfg: &'a IndexedJoinConfig,
    /// The execution's reader and hash counters.
    frame: &'a RunFrame,
    cache: &'a CacheService,
    join_attrs: &'a [&'a str],
    left_tag: u64,
    /// The range as each side's own column checks (a pair's rows start
    /// with the left columns). Both empty without a range.
    left_checks: Vec<(usize, Interval)>,
    right_checks: Vec<(usize, Interval)>,
    /// Exactly-once commit point: a pair's batch and stats deltas land
    /// here only after the pair fully completes, so a worker dying mid-pair
    /// neither loses nor duplicates output when the pair is reassigned.
    committed: Mutex<(Vec<ColumnBatch>, RunStats)>,
}

impl PairRunner<'_> {
    /// Fetch one sub-table to compute node `node_idx` — the §5.1 transfer
    /// term — charging the traffic to `delta`.
    fn fetch(&self, node_idx: usize, id: SubTableId, delta: &mut RunStats) -> Result<SubTable> {
        let cfg = self.cfg;
        let _transfer = cfg
            .obs
            .spans
            .span_with(|| names::span_ij(node_idx, names::PHASE_TRANSFER));
        let st = self.frame.reader.fetch(id, None, delta)?;
        delta.bytes_transferred += st.encoded_size() as u64;
        Ok(st)
    }

    /// Join one `(left, right)` sub-table pair on compute node `node_idx`:
    /// resolve both sides through the cache (fetching and building on a
    /// miss), probe, then commit the pair's batch and statistics.
    fn join_pair(&self, node_idx: usize, lid: SubTableId, rid: SubTableId) -> Result<()> {
        let cfg = self.cfg;
        let spans = &cfg.obs.spans;
        let mut delta = RunStats::default();
        // Left side: shared-cache hash table; on a miss, one node fetches +
        // builds while any concurrent requester of the same key waits
        // (single-flight) and counts a hit.
        let (entry, left_hit) = self.cache.get_or_build(
            node_idx,
            CacheKey::Left(lid, self.left_tag),
            &cfg.cancel,
            || {
                let st = Arc::new(self.fetch(node_idx, lid, &mut delta)?);
                let columns = st.encoded_size();
                let _build = spans.span_with(|| names::span_ij(node_idx, names::PHASE_BUILD));
                let j =
                    HashJoiner::build(st, self.join_attrs, &self.frame.counters, cfg.work_factor)?;
                // What is resident: the sub-table's columns and the table.
                let size = (columns + j.table_bytes()) as u64;
                Ok((CachedEntry::Left(Arc::new(j)), size))
            },
        )?;
        let CachedEntry::Left(joiner) = entry else {
            return Err(Error::Cluster(
                "left cache key resolved to a right entry".into(),
            ));
        };
        // Right side: shared-cache sub-table.
        let (entry, right_hit) =
            self.cache
                .get_or_build(node_idx, CacheKey::Right(rid), &cfg.cancel, || {
                    let st = self.fetch(node_idx, rid, &mut delta)?;
                    let size = st.encoded_size() as u64;
                    Ok((CachedEntry::Right(Arc::new(st)), size))
                })?;
        let CachedEntry::Right(rst) = entry else {
            return Err(Error::Cluster(
                "right cache key resolved to a left entry".into(),
            ));
        };
        for hit in [left_hit, right_hit] {
            if hit {
                delta.cache_hits += 1;
            } else {
                delta.cache_misses += 1;
            }
        }
        let batch = {
            let _probe = spans.span_with(|| names::span_ij(node_idx, names::PHASE_PROBE));
            let narrowed = match self.right_checks.is_empty() {
                true => None,
                false => Some(rst.select(&self.right_checks)?),
            };
            let right = narrowed.as_ref().unwrap_or(&rst);
            let found = joiner.matches(right, self.join_attrs, &self.frame.counters)?;
            let mut batch = match cfg.collect_results || !self.left_checks.is_empty() {
                true => Some(joiner.gather(right, self.join_attrs, &found)?),
                false => None,
            };
            if !self.left_checks.is_empty() {
                batch = batch.map(|b| b.filter_range(&self.left_checks));
            }
            delta.result_tuples += batch.as_ref().map_or(found.len(), |b| b.num_rows() as u64);
            batch.filter(|_| cfg.collect_results)
        };

        let mut c = self.committed.lock();
        c.0.extend(batch);
        c.1.merge(&delta);
        Ok(())
    }
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
        let cfg = IndexedJoinConfig {
            n_compute: 3,
            collect_results: true,
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(out.stats.result_tuples as usize, expected.len());
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn selectivity_one_produces_t_tuples() {
        let (d, t1, t2) = deploy([8, 4, 2], [4, 4, 2], [4, 2, 2], 2);
        let out =
            indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig::default()).unwrap();
        assert_eq!(out.stats.result_tuples, 64);
        assert!(out.records().is_none());
    }

    #[test]
    fn big_cache_never_refetches() {
        let (d, t1, t2) = deploy([8, 8, 1], [2, 2, 1], [4, 4, 1], 2);
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            cache_capacity: 1 << 30,
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        // 16 left + 4 right sub-tables fetched exactly once each; with the
        // two-stage schedule every pair beyond the first per sub-table hits.
        assert_eq!(out.stats.cache_misses, 20);
        let expected_bytes = 16 * 4 * 16 + 4 * 16 * 16; // chunks × rows × record size
        assert_eq!(out.stats.bytes_transferred as usize, expected_bytes);
    }

    #[test]
    fn warm_count_only_run_counts_without_collecting() {
        let (d, t1, t2) = deploy([8, 8, 1], [2, 2, 1], [4, 4, 1], 2);
        let cache = CacheService::new(2, 1 << 30);
        let run = |collect_results| {
            let cfg = IndexedJoinConfig {
                collect_results,
                ..Default::default()
            };
            indexed_join_cached(&d, t1, t2, &["x", "y", "z"], &cfg, &cache).unwrap()
        };
        let cold = run(true);
        assert_eq!(cold.records().map(|r| r.len()), Some(64));
        // 16 left sub-tables of 4 rows, each inside one of 4 right
        // sub-tables of 16 rows: 16 pairs, every one probing 16 rows.
        let warm = run(false);
        assert!(warm.batches.is_none() && warm.records().is_none());
        assert_eq!(warm.stats.result_tuples, 64);
        assert_eq!(warm.stats.hash_probes, 16 * 16);
        assert_eq!(warm.stats.hash_builds, 0);
        assert_eq!((warm.stats.cache_hits, warm.stats.cache_misses), (32, 0));
        assert_eq!(warm.stats.bytes_transferred, 0);
        let totals = cache.stats();
        assert_eq!((totals.misses, totals.evictions), (20, 0));
        assert_eq!(totals.hits, cold.stats.cache_hits + 32);
        // What is resident is what is charged: 20 sub-tables' columns and
        // 16 hash tables of 8 slots and 4 chain links; a table holds row
        // numbers, not keys.
        let columns = (16 * 4 + 4 * 16) * 16;
        assert_eq!(cache.used_bytes(), columns + 16 * (8 * 4 + 4 * 4));
    }

    #[test]
    fn tiny_cache_still_correct() {
        let (d, t1, t2) = deploy([8, 8, 1], [2, 2, 1], [4, 4, 1], 2);
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            cache_capacity: 1, // nothing fits
            collect_results: true,
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        assert_eq!(out.stats.cache_hits, 0);
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
    }

    #[test]
    fn range_constraint_prunes_and_matches_oracle() {
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [2, 2, 1], 2);
        let range = BoundingBox::from_dims([
            ("x", Interval::new(0.0, 3.0)),
            ("y", Interval::new(2.0, 5.0)),
        ]);
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            collect_results: true,
            range: Some(range.clone()),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], Some(&range)).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        assert_eq!(out.stats.result_tuples, 16);
    }

    #[test]
    fn work_factor_changes_ops_not_output() {
        let (d, t1, t2) = deploy([4, 4, 1], [2, 2, 1], [2, 2, 1], 1);
        let base =
            indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig::default()).unwrap();
        let cfg = IndexedJoinConfig {
            work_factor: 3,
            ..Default::default()
        };
        let tripled = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        assert_eq!(base.stats.result_tuples, tripled.stats.result_tuples);
        assert_eq!(tripled.stats.hash_builds, 3 * base.stats.hash_builds);
        assert_eq!(tripled.stats.hash_probes, 3 * base.stats.hash_probes);
    }

    #[test]
    fn join_index_is_persisted_and_reused() {
        let (d, t1, t2) = deploy([4, 4, 1], [2, 2, 1], [2, 2, 1], 1);
        assert!(d
            .metadata()
            .get_join_index(t1, t2, &["x", "y", "z"])
            .is_none());
        indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig::default()).unwrap();
        let idx = d
            .metadata()
            .get_join_index(t1, t2, &["x", "y", "z"])
            .unwrap();
        assert_eq!(idx.len(), 4); // identical partitions → 1:1 pairs
                                  // Second run consumes the stored index (still correct).
        let out =
            indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig::default()).unwrap();
        assert_eq!(out.stats.result_tuples, 16);
    }

    #[test]
    fn transient_read_faults_recovered_and_counted() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let plan = FaultPlan {
            seed: 21,
            max_faults: 3,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 1.0, 3);
        let cfg = IndexedJoinConfig {
            collect_results: true,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        assert_eq!(
            out.stats.read_retries, 3,
            "every injected failure costs one retry"
        );
        assert_eq!(out.stats.worker_panics, 0);
    }

    #[test]
    fn corrupted_chunk_pages_detected_and_recovered() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let events = EventLog::enabled();
        let plan = FaultPlan {
            seed: 13,
            max_faults: 3,
            ..FaultPlan::none()
        }
        .with(Fault::ChunkCorrupt, 1.0, 3);
        let injector = FaultInjector::new(plan, events.clone());
        let cfg = IndexedJoinConfig {
            collect_results: true,
            faults: Some(Arc::clone(&injector)),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        let fstats = injector.stats();
        assert_eq!(fstats[Fault::ChunkCorrupt], 3, "{fstats:?}");
        assert_eq!(out.stats.corruptions_detected, fstats.corruptions());
        assert_eq!(
            events.events_of_kind(names::CORRUPTION_DETECTED).len() as u64,
            fstats.corruptions()
        );
        assert_eq!(out.stats.worker_panics, 0);
    }

    #[test]
    fn cancelled_join_returns_cancelled_error() {
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = IndexedJoinConfig {
            cancel,
            ..Default::default()
        };
        let err = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
    }

    #[test]
    fn worker_panic_reassigns_remaining_pairs() {
        use orv_cluster::{silence_injected_panics, WorkerPanicSpec};
        silence_injected_panics();
        let (d, t1, t2) = deploy([8, 8, 2], [4, 4, 2], [2, 8, 2], 2);
        let plan = FaultPlan {
            seed: 5,
            worker_panics: vec![WorkerPanicSpec {
                worker: 0,
                after_ops: 1,
            }],
            max_faults: 1,
            ..FaultPlan::none()
        };
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let expected = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        assert_eq!(sort_records(out.records().unwrap()), sort_records(expected));
        assert_eq!(out.stats.worker_panics, 1);
        assert!(out.stats.pairs_reassigned > 0, "{:?}", out.stats);
    }

    #[test]
    fn all_workers_dead_is_a_typed_error() {
        use orv_cluster::{silence_injected_panics, WorkerPanicSpec};
        silence_injected_panics();
        let (d, t1, t2) = deploy([8, 8, 1], [4, 4, 1], [4, 4, 1], 2);
        let plan = FaultPlan {
            seed: 5,
            worker_panics: vec![
                WorkerPanicSpec {
                    worker: 0,
                    after_ops: 0,
                },
                WorkerPanicSpec {
                    worker: 1,
                    after_ops: 0,
                },
            ],
            max_faults: 2,
            ..FaultPlan::none()
        };
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        let err = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
        assert!(err.to_string().contains("died"), "{err}");
    }

    #[test]
    fn instrumented_run_records_phase_spans_and_metrics() {
        let (d, t1, t2) = deploy([8, 4, 2], [4, 4, 2], [4, 2, 2], 2);
        let obs = Obs::enabled();
        let cfg = IndexedJoinConfig {
            obs: obs.clone(),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let totals = obs.spans.total_secs_by_leaf();
        for leaf in ["transfer", "build", "probe"] {
            assert!(totals.contains_key(leaf), "missing {leaf}: {totals:?}");
        }
        // Worker spans live under compute-node groups `n{j}`, BDS spans
        // under `bds{n}` — both streams land in the one collector.
        let groups: std::collections::BTreeSet<String> = obs
            .spans
            .records()
            .into_iter()
            .map(|r| r.group().to_string())
            .collect();
        assert!(groups.iter().any(|g| g.starts_with('n')), "{groups:?}");
        assert!(groups.iter().any(|g| g.starts_with("bds")), "{groups:?}");
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.counters.get("ij/result_tuples").copied(),
            Some(out.stats.result_tuples)
        );
        assert_eq!(
            snap.counters.get("ij/bytes_transferred").copied(),
            Some(out.stats.bytes_transferred)
        );
    }

    #[test]
    fn zero_compute_nodes_rejected() {
        let (d, t1, t2) = deploy([4, 4, 1], [2, 2, 1], [2, 2, 1], 1);
        let cfg = IndexedJoinConfig {
            n_compute: 0,
            ..Default::default()
        };
        assert!(indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).is_err());
    }
}
