//! The query engine: DDS registry, statement binding and execution.
//!
//! A statement crosses the engine in two steps. [`QueryEngine::prepare`]
//! parses it, resolves every name (view, table, join input, WHERE
//! attribute) against one catalog snapshot and the MetaData Service, and
//! costs it from metadata alone; [`QueryEngine::run`] executes the
//! resulting [`Prepared`] under a [`Request`]. Nothing below `prepare`
//! looks a name up again, so every path agrees on what a statement
//! means: [`crate::service::QueryService`] queues `Prepared`s and
//! [`crate::federation::FederatedService`] ships them to shards.

use crate::ast::{
    predicates_to_bbox, JoinClause, Query, RangePred, SelectItem, Statement, ViewDef,
};
use crate::exec::{
    aggregate, column_names, filter_rows, join_rows, order_and_limit, project, scan_chunks,
    scan_sealed, RowSet,
};
use crate::parser::parse_statement;
use crate::plan::{PlanExplain, Planner};
use orv_bds::{Deployment, SubTableReader};
use orv_cluster::{CancelToken, ClusterSpec, FaultInjector, RecoveryPolicy};
use orv_join::{
    grace_hash_join, indexed_join_cached, CacheService, CacheStats, GraceHashConfig,
    IndexedJoinConfig, JoinAlgorithm, JoinOutput,
};
use orv_obs::{names, JsonValue, Obs, SpanTimer, TraceId};
use orv_types::{BoundingBox, ChunkId, Error, Record, Result, TableId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Canonical lowercase name of a QES algorithm, as used by
/// [`orv_obs::required_phases`] and the `qes_choice` event stream.
pub fn algorithm_slug(algorithm: JoinAlgorithm) -> &'static str {
    match algorithm {
        JoinAlgorithm::IndexedJoin => "indexed_join",
        JoinAlgorithm::GraceHash => "grace_hash",
    }
}

/// The view registry — the Derived Data Source catalog.
///
/// `Clone` is what `CREATE VIEW` publishes with: it clones the current
/// catalog, registers into the clone, and swaps the clone in. View
/// definitions are metadata, so the clone is a few map entries, not data.
#[derive(Clone, Default)]
pub struct Catalog {
    views: HashMap<String, ViewDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view (rejects duplicates and name clashes).
    pub fn register(&mut self, view: ViewDef) -> Result<()> {
        if self.views.contains_key(&view.name) {
            return Err(Error::Config(format!(
                "view `{}` already exists",
                view.name
            )));
        }
        self.views.insert(view.name.clone(), view);
        Ok(())
    }

    /// Look up a view.
    pub fn get(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// Registered view names (owned, so callers can drop the catalog
    /// lock before using them).
    pub fn names(&self) -> Vec<String> {
        self.views.keys().cloned().collect()
    }
}

/// Result of one executed statement.
#[derive(Debug)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Record>,
    /// Planning evidence, when a join view was executed.
    pub explain: Option<PlanExplain>,
    /// Per-chunk run lengths `(chunk, rows)` in scan order — set only on
    /// federated chunk-scan responses, so the router can dedup and
    /// reassemble chunk-by-chunk.
    pub chunk_runs: Option<Vec<(ChunkId, usize)>>,
    /// CRC32C over the rows and then `chunk_runs`, sealed shard-side on
    /// federated sub-query responses (`exec::seal_runs`); the router
    /// re-verifies before merging.
    pub checksum: Option<u32>,
}

impl QueryResult {
    pub(crate) fn empty() -> Self {
        QueryResult {
            columns: Vec::new(),
            rows: Vec::new(),
            explain: None,
            chunk_runs: None,
            checksum: None,
        }
    }
}

/// Views may layer this deep; a deeper stack is refused at bind, which
/// bounds the recursion of both the binder and the executor.
const MAX_VIEW_DEPTH: usize = 8;

/// One statement, parsed, resolved and costed once by
/// [`QueryEngine::prepare`] — the only thing [`QueryEngine::run`]
/// executes, the service queues and the federation router ships. Tables
/// are held by id and view definitions are embedded, so it means the same
/// whichever shard of a federation queues it.
#[derive(Clone, Debug)]
pub struct Prepared {
    /// What traces print for this job.
    pub(crate) detail: String,
    /// Admission-time cost prediction from the §5 models, in seconds.
    pub(crate) predicted_secs: f64,
    pub(crate) plan: Plan,
}

#[derive(Clone, Debug)]
pub(crate) enum Plan {
    /// Validate and register a view (metadata only).
    CreateView(ViewDef),
    Select(BoundSelect),
    /// The federation's sub-query: read exactly `chunks` of `table`,
    /// filter rows by `range`, and return them with per-chunk run
    /// lengths, sealed with one checksum over both.
    ChunkScan {
        table: TableId,
        range: Option<BoundingBox>,
        chunks: Vec<ChunkId>,
    },
}

/// A `SELECT` whose FROM clause is resolved: a [`Source`] producing
/// `columns`, then the select list, ordering and limit applied to it.
#[derive(Clone, Debug)]
pub(crate) struct BoundSelect {
    pub(crate) source: Source,
    /// The columns `source` yields; every WHERE attribute is one of them.
    pub(crate) columns: Vec<String>,
    pub(crate) select: Vec<SelectItem>,
    pub(crate) group_by: Vec<String>,
    pub(crate) order_by: Vec<(String, bool)>,
    pub(crate) limit: Option<usize>,
}

#[derive(Clone, Debug)]
pub(crate) enum Source {
    /// Basic Data Source scan with R-tree range pushdown.
    Scan {
        table: TableId,
        range: Option<BoundingBox>,
    },
    /// Distributed join of two base tables — a direct `JOIN`, or a
    /// pass-through join view with the outer predicates merged into the
    /// view's own.
    Join {
        left: TableId,
        right: TableId,
        on: Vec<String>,
        range: Option<BoundingBox>,
    },
    /// A general DDS (projection/aggregation view, possibly over another
    /// DDS): run `inner`, then filter its *output* columns.
    Derived {
        inner: Box<BoundSelect>,
        filters: Vec<RangePred>,
    },
}

impl Prepared {
    /// Admission-time predicted execution cost in seconds (0 for DDL).
    pub fn predicted_secs(&self) -> f64 {
        self.predicted_secs
    }

    /// The federation router's sub-query over `chunks` of a base-table
    /// scan it bound.
    pub(crate) fn chunk_scan(
        table: TableId,
        range: Option<BoundingBox>,
        chunks: Vec<ChunkId>,
        predicted_secs: f64,
    ) -> Prepared {
        Prepared {
            detail: format!("scan table {} ({} chunks)", table.0, chunks.len()),
            predicted_secs,
            plan: Plan::ChunkScan {
                table,
                range,
                chunks,
            },
        }
    }
}

/// The per-request half of a query; *what* runs is in the [`Prepared`].
#[derive(Clone, Debug, Default)]
pub struct Request {
    /// Threaded through scans, both QES runtimes and every backoff
    /// sleep: cancelling it (or passing its deadline) unwinds the
    /// statement within one sleep slice with a typed
    /// [`Error::Cancelled`] / [`Error::DeadlineExceeded`].
    pub cancel: CancelToken,
    /// The trace this request belongs under: the engine tags its
    /// `qes_choice` / `qes_failover` events with it; the service and the
    /// federation record it as the parent of the trace they mint.
    pub parent: Option<TraceId>,
}

impl From<CancelToken> for Request {
    fn from(cancel: CancelToken) -> Self {
        Request {
            cancel,
            parent: None,
        }
    }
}

/// The full engine a client talks to.
///
/// Every entry point takes `&self`: the catalog is an immutable
/// snapshot readers clone out from under a lock held for the clone
/// alone, the Caching Service is internally synchronized, and all
/// per-query state (cancel token, plan, join output) lives on the
/// caller's stack — so one engine can serve many concurrent clients
/// (see [`crate::service::QueryService`]).
pub struct QueryEngine {
    deployment: Deployment,
    /// The catalog and its version (+1 per successful `CREATE VIEW`). A
    /// leaf lock: nothing is acquired, bound or executed while it is held.
    catalog: Mutex<(u64, Arc<Catalog>)>,
    planner: Planner,
    n_compute: usize,
    force: Option<JoinAlgorithm>,
    /// The Caching Service: keeps IJ's whole sub-tables and hash tables
    /// warm across queries — of any range — *and* across concurrent
    /// clients.
    cache: Arc<CacheService>,
    cache_capacity: u64,
    obs: Obs,
    /// Optional fault injector handed down to every join execution
    /// (chaos tests drive the whole engine through one plan); a
    /// federation's shard services take their checkpoints from it.
    pub(crate) faults: Option<Arc<FaultInjector>>,
}

impl QueryEngine {
    /// Engine over a deployment, planning against a paper-testbed-shaped
    /// cluster with as many compute nodes as storage nodes.
    pub fn new(deployment: Deployment) -> Self {
        let n = deployment.num_storage_nodes().max(1);
        let spec = ClusterSpec::paper_testbed(n, n);
        let cache_capacity = 256 << 20;
        QueryEngine {
            deployment,
            catalog: Mutex::new((0, Arc::new(Catalog::new()))),
            planner: Planner::new(spec),
            n_compute: n,
            force: None,
            cache: Arc::new(CacheService::new(n, cache_capacity)),
            cache_capacity,
            obs: Obs::disabled(),
            faults: None,
        }
    }

    /// Attach an observability handle: planning and execution record
    /// `engine/plan` and `engine/exec` spans, every QES decision emits a
    /// `qes_choice` event carrying the cost-model evidence, the joins
    /// inherit the handle for their per-node phase spans, and MetaData
    /// Service usage counters are published after each join.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The engine's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Resize the Caching Service: bytes per compute node; an entry
    /// larger than that is not cached.
    pub fn with_cache_capacity(mut self, bytes: u64) -> Self {
        self.cache_capacity = bytes;
        self.cache = Arc::new(CacheService::new(self.n_compute, bytes));
        self
    }

    /// Named hit/miss/eviction counters of the Caching Service.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The engine's shared Caching Service (one instance across all
    /// concurrent queries).
    pub fn shared_cache(&self) -> Arc<CacheService> {
        Arc::clone(&self.cache)
    }

    /// Attach a fault injector: every read this engine does — a base-table
    /// scan's as much as a join's — and every join send and scratch access
    /// draws faults (and corruptions) from the one shared plan, so budget
    /// caps apply across the whole query — and across a failover
    /// re-execution.
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Force one algorithm regardless of the cost models (for experiments).
    pub fn force_algorithm(mut self, algorithm: Option<JoinAlgorithm>) -> Self {
        self.force = algorithm;
        self
    }

    /// The read path of one base-table scan: this engine's fault injector
    /// and span collector, the default recovery policy, the request's
    /// token — what a join's reader is built from.
    fn reader(&self, cancel: &CancelToken) -> Result<SubTableReader> {
        SubTableReader::new(
            &self.deployment,
            self.faults.clone().unwrap_or_else(FaultInjector::disabled),
            self.obs.spans.clone(),
            RecoveryPolicy::default(),
            cancel.clone(),
        )
    }

    /// Run one federated chunk scan: read exactly `chunks` of `table`
    /// (ascending, de-duplicated), filter by `range`, and seal the
    /// response — its rows, then its per-chunk run lengths — with a
    /// CRC32C the router re-verifies before merging. The scan is
    /// [`scan_chunks`], the one a base-table `SELECT` runs, writing the
    /// seal from each chunk's batch as it goes ([`scan_sealed`]); a
    /// sub-scan of fewer than 2¹⁶ rows stays on the shard worker's thread.
    /// Whether the shard owns `chunks` is its service's check, made before
    /// the job reaches the engine.
    fn chunk_scan(
        &self,
        table: TableId,
        range: Option<&BoundingBox>,
        chunks: &[ChunkId],
        cancel: &CancelToken,
    ) -> Result<QueryResult> {
        let ((schema, rows, runs), seal) =
            scan_sealed(&self.reader(cancel)?, table, chunks, range)?;
        Ok(QueryResult {
            columns: column_names(&schema),
            rows,
            explain: None,
            chunk_runs: Some(runs),
            checksum: Some(seal),
        })
    }

    /// The underlying deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The current catalog snapshot: an `Arc` clone under a lock held
    /// for the clone alone. Immutable — a concurrent `CREATE VIEW` swaps
    /// in a new catalog without disturbing this one, so the snapshot can
    /// be held across statement execution.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.lock().1)
    }

    /// The current catalog version (0 initially, +1 per successful
    /// `CREATE VIEW`).
    pub fn catalog_version(&self) -> u64 {
        self.catalog.lock().0
    }

    /// Parse and execute one statement: [`QueryEngine::prepare`], then
    /// [`QueryEngine::run`] under no deadline. A caller that wants one
    /// passes its token in the [`Request`] it hands `run`.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.run(&self.prepare(sql)?, &Request::default())
    }

    /// Parse `sql` and bind it against the current catalog snapshot and
    /// the MetaData Service: FROM resolves to a base-table scan, a
    /// distributed join or a derived view (recursively), every WHERE
    /// attribute is checked against the columns its source yields, and
    /// the statement is costed from the §5 models. Metadata only — the
    /// join index is neither built nor persisted until the join runs.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let (plan, predicted_secs) = match parse_statement(sql)? {
            // DDL is metadata-only; it is validated when it runs, against
            // the catalog of the engine that registers it.
            Statement::CreateView(view) => (Plan::CreateView(view), 0.0),
            Statement::Select(query) => {
                let bound = self.bind(&query, &self.catalog(), 0)?;
                let secs = self.source_secs(&bound.source);
                (Plan::Select(bound), secs)
            }
        };
        Ok(Prepared {
            detail: sql.to_string(),
            predicted_secs,
            plan,
        })
    }

    /// Execute a [`Prepared`] under `request`. The engine's one executor.
    pub fn run(&self, prepared: &Prepared, request: &Request) -> Result<QueryResult> {
        request.cancel.check()?;
        match &prepared.plan {
            Plan::CreateView(view) => {
                self.create_view(view)?;
                Ok(QueryResult::empty())
            }
            Plan::Select(select) => self.select(select, request),
            Plan::ChunkScan {
                table,
                range,
                chunks,
            } => self.chunk_scan(*table, range.as_ref(), chunks, &request.cancel),
        }
    }

    /// The cost [`QueryEngine::prepare`] predicts for `sql`, 0 if it does
    /// not bind. Only the benchmark's `query.predict_cost` rung calls it.
    pub fn predict_cost_secs(&self, sql: &str) -> f64 {
        self.prepare(sql).map_or(0.0, |p| p.predicted_secs)
    }

    /// Resolve `query`'s FROM (+ JOIN) and WHERE against `catalog` — one
    /// snapshot for the whole walk, so the result stays valid however
    /// long execution takes and whatever DDL publishes meanwhile.
    fn bind(&self, query: &Query, catalog: &Catalog, depth: usize) -> Result<BoundSelect> {
        let outer = predicates_to_bbox(&query.predicates);
        let (source, columns) = if let Some(join) = &query.join {
            self.bind_join(catalog, &query.from, join, outer)?
        } else if let Some(view) = catalog.get(&query.from) {
            if depth >= MAX_VIEW_DEPTH {
                return Err(Error::Plan(format!(
                    "view `{}` is nested more than {MAX_VIEW_DEPTH} views deep",
                    view.name
                )));
            }
            match &view.query.join {
                // Pushable DDS: merge the view's baked-in predicates with
                // the outer ones and run the distributed join directly.
                Some(join) if view.query.is_plain_join() => {
                    let range = match (predicates_to_bbox(&view.query.predicates), outer) {
                        (Some(a), Some(b)) => Some(a.intersect(&b)),
                        (a, b) => a.or(b),
                    };
                    self.bind_join(catalog, &view.query.from, join, range)?
                }
                // General DDS: materialize it, then post-filter by the
                // outer predicates on its *output* columns.
                _ => {
                    let inner = self.bind(&view.query, catalog, depth + 1)?;
                    let columns = output_columns(&inner);
                    let filters = query.predicates.clone();
                    (
                        Source::Derived {
                            inner: Box::new(inner),
                            filters,
                        },
                        columns,
                    )
                }
            }
        } else {
            let md = self.deployment.metadata();
            let table = md.table_id(&query.from)?;
            (
                Source::Scan {
                    table,
                    range: outer,
                },
                column_names(md.schema(table)?.as_ref()),
            )
        };
        // The one place a WHERE attribute is checked: below here ranges
        // are bounding boxes, and `Schema::range_checks` rightly skips an
        // attribute one join side lacks.
        for p in &query.predicates {
            if !columns.contains(&p.attr) {
                return Err(Error::Plan(format!(
                    "unknown column `{}` in predicate",
                    p.attr
                )));
            }
        }
        Ok(BoundSelect {
            source,
            columns,
            select: query.select.clone(),
            group_by: query.group_by.clone(),
            order_by: query.order_by.clone(),
            limit: query.limit,
        })
    }

    /// Bind `left_name JOIN join.table ON join.on` restricted to `range`.
    fn bind_join(
        &self,
        catalog: &Catalog,
        left_name: &str,
        join: &JoinClause,
        range: Option<BoundingBox>,
    ) -> Result<(Source, Vec<String>)> {
        if catalog.get(left_name).is_some() || catalog.get(&join.table).is_some() {
            return Err(Error::Plan(
                "join inputs must be base tables; layer a non-join view on top instead".into(),
            ));
        }
        let md = self.deployment.metadata();
        let left = md.table_id(left_name)?;
        let right = md.table_id(&join.table)?;
        let (lschema, rschema) = (md.schema(left)?, md.schema(right)?);
        let attrs: Vec<&str> = join.on.iter().map(String::as_str).collect();
        for attr in &attrs {
            lschema.require(attr)?;
            rschema.require(attr)?;
        }
        let columns = column_names(&lschema.join(&rschema, &attrs)?);
        let source = Source::Join {
            left,
            right,
            on: join.on.clone(),
            range,
        };
        Ok((source, columns))
    }

    /// Predicted execution cost of a bound source in seconds — the signal
    /// cost-aware admission classifies with. Joins take the cheaper of
    /// the planner's two QES totals (estimate-only); a derived view costs
    /// what its definition costs; base scans are bytes over aggregate
    /// storage-disk read bandwidth.
    fn source_secs(&self, source: &Source) -> f64 {
        match source {
            Source::Scan { table, .. } => self.table_scan_secs(*table),
            Source::Join {
                left, right, on, ..
            } => {
                let attrs: Vec<&str> = on.iter().map(String::as_str).collect();
                self.planner
                    .estimate_join(self.deployment.metadata(), *left, *right, &attrs)
                    .map_or(0.0, |plan| plan.choice.ij_total.min(plan.choice.gh_total))
            }
            Source::Derived { inner, .. } => self.source_secs(&inner.source),
        }
    }

    fn table_scan_secs(&self, table: TableId) -> f64 {
        let md = self.deployment.metadata();
        let (Ok(records), Ok(schema)) = (md.total_records(table), md.schema(table)) else {
            return 0.0;
        };
        let bytes = records as f64 * schema.record_size() as f64;
        let spec = self.planner.spec();
        bytes / (spec.disk_read_bw * spec.n_storage.max(1) as f64)
    }

    /// Register a view. Its defining query must bind against the current
    /// snapshot — FROM is a base table or an existing view (DDSs layer on
    /// BDSs or other DDSs), join inputs are base tables sharing the join
    /// attributes. Validation runs before the lock is taken, so it never
    /// blocks readers or writers.
    fn create_view(&self, view: &ViewDef) -> Result<()> {
        self.bind(&view.query, &self.catalog(), 1)?;
        // Clone, register and swap under the lock, so concurrent CREATE
        // VIEWs lose no update; `register` re-checks for duplicates there,
        // so of two racing for one name one wins and the other gets the
        // duplicate error and publishes nothing.
        let mut current = self.catalog.lock();
        let mut next = Catalog::clone(&current.1);
        next.register(view.clone())?;
        *current = (current.0 + 1, Arc::new(next));
        Ok(())
    }

    /// Run a distributed join between two base tables, letting the QPS
    /// pick the QES. Every Indexed Join, ranged or not, runs over the
    /// engine's Caching Service: a range narrows the query, not the cache.
    ///
    /// The order contract: a join's rows come back in ascending row order
    /// — lexicographic by column under `Value`'s order, rows that compare
    /// equal in the order the QES produced them — whichever QES ran,
    /// however many workers ran it, and across a failover. The QES hands
    /// back typed batches in completion order, and [`join_rows`] orders
    /// and builds the rows in one pass on this engine's compute workers,
    /// inside the `engine/rows` span. Batches that overlap form a group.
    /// An unsorted group above 2¹⁴ rows or a group above one worker's
    /// share — GH's one bucket-interleaved group — is first cut at sampled
    /// keys into key-range parts of about 2¹⁴ rows. Then one builder per
    /// worker takes whole groups: it lays out IJ's x-stripes of ascending
    /// pair runs by a galloping merge, with no sort, and sorts a GH part
    /// in cache; it streams their rows to one assembler that owns the
    /// result. The query's token is polled before each cut and once per
    /// group, so a cancelled query stops building its rows.
    fn run_join(
        &self,
        left: TableId,
        right: TableId,
        on: &[String],
        range: Option<BoundingBox>,
        request: &Request,
    ) -> Result<(Vec<Record>, Option<PlanExplain>)> {
        let md = self.deployment.metadata();
        let cancel = &request.cancel;
        let attrs: Vec<&str> = on.iter().map(|s| s.as_str()).collect();
        let trace_field = || {
            (
                "trace",
                match request.parent {
                    Some(t) => t.into(),
                    None => JsonValue::Null,
                },
            )
        };
        let planning = SpanTimer::start();
        let plan = self.planner.plan_join(md, left, right, &attrs)?;
        self.obs.phase(names::LAT_PLAN, names::ENGINE, &planning);
        let algorithm = self.force.unwrap_or(plan.algorithm);
        self.obs.events.emit(names::QES_CHOICE, || {
            vec![
                ("algorithm", algorithm_slug(algorithm).into()),
                ("forced", self.force.is_some().into()),
                ("ij_total_secs", plan.choice.ij_total.into()),
                ("gh_total_secs", plan.choice.gh_total.into()),
                ("left", md.table_name(left).unwrap_or_default().into()),
                ("right", md.table_name(right).unwrap_or_default().into()),
                trace_field(),
            ]
        });
        let _exec = self.obs.spans.span(names::ENGINE_EXEC);
        let exec_one = |engine: &Self, algorithm: JoinAlgorithm| -> Result<JoinOutput> {
            match algorithm {
                JoinAlgorithm::IndexedJoin => indexed_join_cached(
                    &engine.deployment,
                    left,
                    right,
                    &attrs,
                    &IndexedJoinConfig {
                        n_compute: engine.n_compute,
                        collect_results: true,
                        range: range.clone(),
                        obs: engine.obs.clone(),
                        faults: engine.faults.clone(),
                        cancel: cancel.clone(),
                        ..Default::default()
                    },
                    &engine.cache,
                ),
                JoinAlgorithm::GraceHash => grace_hash_join(
                    &engine.deployment,
                    left,
                    right,
                    &attrs,
                    &GraceHashConfig {
                        n_compute: engine.n_compute,
                        collect_results: true,
                        range: range.clone(),
                        obs: engine.obs.clone(),
                        faults: engine.faults.clone(),
                        cancel: cancel.clone(),
                        ..Default::default()
                    },
                ),
            }
        };
        let output = match exec_one(self, algorithm) {
            Ok(out) => out,
            // Plan-level QES failover: a terminal runtime fault (retries
            // exhausted, lost node, corrupted state) on the chosen engine
            // does not doom the query — re-execute the same plan on the
            // alternate QES. Cancellation is the user's verdict and planner
            // errors would recur, so neither triggers failover; a forced
            // algorithm pins the choice for benchmarking.
            Err(e) if self.force.is_none() && is_runtime_fault(&e) => {
                let fallback = match algorithm {
                    JoinAlgorithm::IndexedJoin => JoinAlgorithm::GraceHash,
                    JoinAlgorithm::GraceHash => JoinAlgorithm::IndexedJoin,
                };
                self.obs.events.emit(names::QES_FAILOVER, || {
                    vec![
                        ("from", algorithm_slug(algorithm).into()),
                        ("to", algorithm_slug(fallback).into()),
                        ("error", e.to_string().into()),
                        trace_field(),
                    ]
                });
                exec_one(self, fallback)?
            }
            Err(e) => return Err(e),
        };
        drop(_exec);
        md.publish_into(&self.obs.metrics);
        self.cache.publish_into(&self.obs.metrics);
        let batches = output.batches.ok_or_else(|| {
            Error::Plan("join output missing batches despite collect_results".into())
        })?;
        let _rows = self.obs.spans.span(names::ENGINE_ROWS);
        Ok((join_rows(batches, self.n_compute, cancel)?, Some(plan)))
    }

    /// Run a bound `SELECT`: its source's rows, then the select list,
    /// ordering and limit. A base-table scan hands [`scan_chunks`] the
    /// chunks the R-tree keeps for its range (all of them without one),
    /// which builds the rows as it reads; a join's rows come from
    /// [`QueryEngine::run_join`]; a derived view's from its inner select.
    fn select(&self, bound: &BoundSelect, request: &Request) -> Result<QueryResult> {
        let has_agg = bound
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate(..)));
        let (rows, explain) = match &bound.source {
            Source::Scan { table, range } => {
                let md = self.deployment.metadata();
                let chunks = match range {
                    Some(rg) => md.find_chunks(*table, rg)?,
                    None => md.all_chunks(*table)?,
                };
                let reader = self.reader(&request.cancel)?;
                let (_, rows, _) = scan_chunks(&reader, *table, &chunks, range.as_ref())?;
                (rows, None)
            }
            Source::Join {
                left,
                right,
                on,
                range,
            } => self.run_join(*left, *right, on, range.clone(), request)?,
            Source::Derived { inner, filters } => {
                let inner = self.select(inner, request)?;
                let rows = filter_rows(&inner.columns, inner.rows, filters)?;
                (rows, inner.explain)
            }
        };
        let rowset: RowSet = if has_agg || !bound.group_by.is_empty() {
            aggregate(&bound.columns, rows, &bound.select, &bound.group_by)?
        } else {
            project(&bound.columns, rows, &bound.select)?
        };
        let rowset = order_and_limit(rowset, &bound.order_by, bound.limit)?;
        Ok(QueryResult {
            columns: rowset.columns,
            rows: rowset.rows,
            explain,
            chunk_runs: None,
            checksum: None,
        })
    }
}

/// Whether `e` is a runtime fault — a lost node, exhausted retries, a
/// corrupted or unreadable store — rather than something the statement
/// itself got wrong. Such a fault may not recur elsewhere: the engine
/// re-runs a join on the other QES for it, and the federation router
/// re-issues a whole statement to another shard.
pub(crate) fn is_runtime_fault(e: &Error) -> bool {
    matches!(
        e,
        Error::Cluster(_) | Error::Integrity(_) | Error::Io(_) | Error::Format(_)
    )
}

/// The column names `bound` outputs — what [`project`] / [`aggregate`]
/// will name them — so predicates on a derived view bind to its output.
fn output_columns(bound: &BoundSelect) -> Vec<String> {
    let mut names = Vec::new();
    for item in &bound.select {
        match item {
            SelectItem::All => names.extend(bound.columns.iter().cloned()),
            SelectItem::Column(name) => names.push(name.clone()),
            SelectItem::Aggregate(f, arg) => {
                names.push(format!("{}({})", f.name(), arg.as_deref().unwrap_or("*")))
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_obs::EventLog;
    use orv_types::{SubTableId, Value};
    use std::time::Duration;

    impl QueryEngine {
        /// Use a specific cluster description for planning.
        fn with_cluster(mut self, spec: ClusterSpec) -> Self {
            self.n_compute = spec.n_compute;
            self.cache = Arc::new(CacheService::new(self.n_compute, self.cache_capacity));
            self.planner = Planner::new(spec);
            self
        }
    }

    fn engine() -> QueryEngine {
        let d = Deployment::in_memory(2);
        for (name, scalar, seed, part) in
            [("t1", "oilp", 1u64, [4, 4, 1]), ("t2", "wp", 2, [2, 8, 1])]
        {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([8, 8, 1])
                    .partition(part)
                    .scalar_attrs(&[scalar])
                    .seed(seed)
                    .build(),
                &d,
            )
            .unwrap();
        }
        QueryEngine::new(d)
    }

    #[test]
    fn base_table_range_query() {
        let e = engine();
        let r = e
            .execute("SELECT * FROM t1 WHERE x IN [0, 3] AND y IN [0, 1]")
            .unwrap();
        assert_eq!(r.columns, vec!["x", "y", "z", "oilp"]);
        assert_eq!(r.rows.len(), 8);
        assert!(r.explain.is_none());
    }

    #[test]
    fn view_join_and_query() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let r = e.execute("SELECT * FROM v1").unwrap();
        assert_eq!(r.rows.len(), 64);
        assert_eq!(r.columns, vec!["x", "y", "z", "oilp", "wp"]);
        let explain = r.explain.unwrap();
        assert!(explain.choice.ij_total > 0.0);
        // Range against the view.
        let r = e.execute("SELECT * FROM v1 WHERE x IN [2, 5]").unwrap();
        assert_eq!(r.rows.len(), 32);
    }

    #[test]
    fn view_with_baked_in_predicate() {
        let e = engine();
        e.execute("CREATE VIEW vsmall AS SELECT * FROM t1 JOIN t2 ON (x, y, z) WHERE x IN [0, 1]")
            .unwrap();
        let r = e.execute("SELECT * FROM vsmall").unwrap();
        assert_eq!(r.rows.len(), 16);
        // Query predicate intersects the view predicate.
        let r = e.execute("SELECT * FROM vsmall WHERE x IN [1, 7]").unwrap();
        assert_eq!(r.rows.len(), 8);
    }

    #[test]
    fn aggregation_over_view() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let r = e
            .execute("SELECT x, COUNT(*), AVG(wp) FROM v1 GROUP BY x")
            .unwrap();
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.columns, vec!["x", "COUNT(*)", "AVG(wp)"]);
        for row in &r.rows {
            assert_eq!(row.get(1), Value::I64(8));
        }
        // Paper's example query shape: average water pressure per grid row.
        let r = e.execute("SELECT AVG(wp) FROM v1 WHERE wp >= 0.0").unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn forced_algorithms_agree() {
        let ij = engine().force_algorithm(Some(JoinAlgorithm::IndexedJoin));
        let gh = engine().force_algorithm(Some(JoinAlgorithm::GraceHash));
        for e in [&ij, &gh] {
            e.execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
                .unwrap();
        }
        let a = ij.execute("SELECT * FROM v WHERE y IN [1, 4]").unwrap();
        let b = gh.execute("SELECT * FROM v WHERE y IN [1, 4]").unwrap();
        assert_eq!(a.rows, b.rows);
    }

    /// The order contract at 256×256 — 65 536 rows, the smallest result
    /// the engine orders and materialises on its compute workers.
    #[test]
    fn join_rows_ascend_whichever_engine_and_worker_count_ran() {
        use orv_bds::scalar_value;
        const SIDE: u64 = 256;
        // Under seed 133 two grid points share the sixth-highest `wp`.
        const SEEDS: [u64; 2] = [1, 133];
        let d = Deployment::in_memory(2);
        for (name, scalar, seed, part) in [
            ("t1", "oilp", SEEDS[0], [32, 32, 1]),
            ("t2", "wp", SEEDS[1], [64, 16, 1]),
        ] {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([SIDE, SIDE, 1])
                    .partition(part)
                    .scalar_attrs(&[scalar])
                    .seed(seed)
                    .build(),
                &d,
            )
            .unwrap();
        }
        // Nested loops over the grid, ascending by construction.
        let oracle: Vec<Record> = (0..SIDE)
            .flat_map(|x| (0..SIDE).map(move |y| (x, y)))
            .map(|(x, y)| {
                let scalar = |seed| Value::F32(scalar_value(seed, 0, [x, y, 0]));
                let coords = [x as i32, y as i32, 0].map(Value::I32);
                Record::new([&coords[..], &SEEDS.map(scalar)].concat())
            })
            .collect();
        // Highest `wp` first, ties in oracle (ascending row) order.
        let mut by_wp: Vec<(std::cmp::Reverse<Value>, usize)> = (0..oracle.len())
            .map(|i| (std::cmp::Reverse(oracle[i].get(4)), i))
            .collect();
        by_wp.sort();
        let top: Vec<Record> = by_wp[..10]
            .iter()
            .map(|&(_, i)| oracle[i].clone())
            .collect();
        let tied: Vec<&Record> = top.iter().filter(|r| r.get(4) == top[5].get(4)).collect();
        assert_eq!(tied.len(), 2, "the tie this test is about");
        assert!(
            tied[0].values() < tied[1].values(),
            "stable: (x, y) ascending"
        );

        let engines = [
            QueryEngine::new(d.clone()).force_algorithm(Some(JoinAlgorithm::IndexedJoin)),
            QueryEngine::new(d.clone()).force_algorithm(Some(JoinAlgorithm::GraceHash)),
            QueryEngine::new(d).with_cluster(ClusterSpec::paper_testbed(2, 1)),
        ];
        for e in &engines {
            e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
                .unwrap();
            let all = e.execute("SELECT * FROM v1").unwrap().rows;
            assert!(all.windows(2).all(|w| w[0].values() < w[1].values()));
            assert!(all == oracle, "not the oracle's sequence");
            let best = e
                .execute("SELECT * FROM v1 ORDER BY wp DESC LIMIT 10")
                .unwrap();
            assert_eq!(best.rows, top);
        }
    }

    #[test]
    fn errors_are_descriptive() {
        let e = engine();
        assert!(e.execute("SELECT * FROM nope").is_err());
        assert!(e
            .execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (bogus)")
            .is_err());
        e.execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let err = e
            .execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x)")
            .unwrap_err();
        assert!(err.to_string().contains("already exists"));
    }

    #[test]
    fn order_by_and_limit() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let r = e
            .execute("SELECT x, y, wp FROM v1 ORDER BY wp DESC LIMIT 3")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let wps: Vec<f64> = r.rows.iter().map(|row| row.get(2).as_f64()).collect();
        assert!(wps[0] >= wps[1] && wps[1] >= wps[2]);
        // Ascending multi-key with aggregation.
        let r = e
            .execute("SELECT x, AVG(wp) FROM v1 GROUP BY x ORDER BY x ASC LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(0), Value::I32(0));
        assert_eq!(r.rows[1].get(0), Value::I32(1));
        // Errors: unknown column, bad limit.
        assert!(e.execute("SELECT x FROM t1 ORDER BY nope").is_err());
        assert!(e.execute("SELECT x FROM t1 LIMIT -1").is_err());
        assert!(e.execute("SELECT x FROM t1 LIMIT 1.5").is_err());
    }

    #[test]
    fn direct_join_query_without_view() {
        let e = engine();
        let r = e
            .execute("SELECT * FROM t1 JOIN t2 ON (x, y, z) WHERE x IN [0, 1]")
            .unwrap();
        assert_eq!(r.rows.len(), 16);
        assert!(r.explain.is_some());
    }

    #[test]
    fn layered_dds_aggregation_view() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        // A DDS over a DDS: per-x profile of the join view.
        e.execute("CREATE VIEW profile AS SELECT x, AVG(wp), COUNT(*) FROM v1 GROUP BY x")
            .unwrap();
        let r = e.execute("SELECT * FROM profile").unwrap();
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.columns, vec!["x", "AVG(wp)", "COUNT(*)"]);
        // Outer predicates post-filter the view's *output* columns.
        let r = e
            .execute("SELECT * FROM profile WHERE x IN [2, 4]")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert_eq!(row.get(2), Value::I64(8));
        }
        // And a third layer: aggregate the aggregate.
        e.execute("CREATE VIEW summary AS SELECT COUNT(*) FROM profile")
            .unwrap();
        let r = e.execute("SELECT * FROM summary").unwrap();
        assert_eq!(r.rows[0].get(0), Value::I64(8));
    }

    #[test]
    fn projection_view_layers_and_filters() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        e.execute("CREATE VIEW slim AS SELECT x, wp FROM v1")
            .unwrap();
        let r = e.execute("SELECT * FROM slim WHERE wp >= 0.5").unwrap();
        assert_eq!(r.columns, vec!["x", "wp"]);
        assert!(r.rows.iter().all(|row| row.get(1).as_f64() >= 0.5));
        assert!(!r.rows.is_empty() && r.rows.len() < 64);
    }

    #[test]
    fn join_over_view_is_rejected_with_guidance() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let err = e
            .execute("CREATE VIEW bad AS SELECT * FROM v1 JOIN t2 ON (x)")
            .unwrap_err();
        assert!(err.to_string().contains("base tables"), "{err}");
        let err = e.execute("SELECT * FROM v1 JOIN t2 ON (x)").unwrap_err();
        assert!(err.to_string().contains("base tables"), "{err}");
    }

    #[test]
    fn caching_service_warms_across_queries() {
        let e = engine().force_algorithm(Some(JoinAlgorithm::IndexedJoin));
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let a = e.execute("SELECT COUNT(*) FROM v1").unwrap();
        let cold = e.cache_stats();
        assert!(cold.misses > 0, "cold run must miss");
        let b = e.execute("SELECT COUNT(*) FROM v1").unwrap();
        let warm = e.cache_stats();
        assert_eq!(a.rows, b.rows);
        assert_eq!(warm.misses, cold.misses, "warm run must not miss again");
        assert!(
            warm.hits > cold.hits,
            "warm run must hit the Caching Service"
        );
        assert_eq!(warm.lookups(), warm.hits + warm.misses);
        // Constrained queries share the warm cache and stay correct.
        let c = e
            .execute("SELECT COUNT(*) FROM v1 WHERE x IN [0, 3]")
            .unwrap();
        assert_eq!(c.rows[0].get(0), Value::I64(32));
        assert_eq!(
            e.cache_stats().misses,
            warm.misses,
            "a range misses nothing"
        );
        let d = e.execute("SELECT COUNT(*) FROM v1").unwrap();
        assert_eq!(d.rows[0].get(0), Value::I64(64));
    }

    #[test]
    fn warm_hits_perform_zero_chunk_reads() {
        // The warm path must be pure refcount bumps: cached entries pin
        // their `Arc<SubTable>`s, so repeating a query may not touch the
        // chunk stores at all — not "few reads", zero.
        let e = engine().force_algorithm(Some(JoinAlgorithm::IndexedJoin));
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let a = e.execute("SELECT * FROM v1").unwrap();
        let cold_reads = e.deployment().chunk_reads();
        assert!(cold_reads > 0, "cold run must read chunks");
        let b = e.execute("SELECT * FROM v1").unwrap();
        let warm_reads = e.deployment().chunk_reads();
        assert_eq!(a.rows.len(), b.rows.len());
        assert_eq!(
            warm_reads, cold_reads,
            "second identical query must perform zero chunk reads"
        );
    }

    /// `x IN [1, 4] AND y IN [2, 3]` over [`engine`]'s tables: 8 rows out
    /// of 2 of `t1`'s 4 chunks and 3 of `t2`'s 4.
    const WINDOW: &str = "SELECT * FROM v1 WHERE x IN [1, 4] AND y IN [2, 3]";

    fn observed_ij_engine() -> (QueryEngine, Obs) {
        let obs = Obs::enabled();
        let e = engine()
            .force_algorithm(Some(JoinAlgorithm::IndexedJoin))
            .with_obs(obs.clone());
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        (e, obs)
    }

    #[test]
    fn a_window_after_a_full_join_reads_builds_and_misses_nothing() {
        let (e, obs) = observed_ij_engine();
        let counter = |name: &str| obs.metrics.snapshot().counters.get(name).copied();
        let state = || {
            (
                e.deployment().chunk_reads(),
                e.cache_stats().misses,
                counter("ij/hash_builds"),
                counter("md/join_index_misses"),
            )
        };
        assert_eq!(e.execute("SELECT * FROM v1").unwrap().rows.len(), 64);
        let warm = state();
        assert_eq!(warm.2, Some(64), "one build per left row");
        assert_eq!(e.execute(WINDOW).unwrap().rows.len(), 8);
        let after = state();
        assert_eq!(after, warm, "(chunk reads, misses, builds, index misses)");
    }

    #[test]
    fn a_full_join_after_a_window_rereads_nothing_the_window_fetched() {
        let (e, _) = observed_ij_engine();
        assert_eq!(e.execute(WINDOW).unwrap().rows.len(), 8);
        assert_eq!(e.deployment().chunk_reads(), 2 + 3, "the window's chunks");
        assert_eq!(e.execute("SELECT * FROM v1").unwrap().rows.len(), 64);
        assert_eq!(e.deployment().chunk_reads(), 4 + 4, "every chunk once");
    }

    #[test]
    fn a_window_joins_the_stored_edges_whose_chunks_both_meet_it() {
        let (e, obs) = observed_ij_engine();
        e.execute(WINDOW).unwrap();
        let md = e.deployment().metadata();
        let (t1, t2) = (md.table_id("t1").unwrap(), md.table_id("t2").unwrap());
        let window = BoundingBox::from_dims([
            ("x", orv_types::Interval::new(1.0, 4.0)),
            ("y", orv_types::Interval::new(2.0, 3.0)),
        ]);
        let meets = |id: SubTableId| md.chunk_meta(id).unwrap().bbox.overlaps(&window);
        let stored = md.get_join_index(t1, t2, &["x", "y", "z"]).unwrap();
        let met = stored
            .iter()
            .filter(|(l, r)| meets(*l) && meets(*r))
            .count();
        assert_eq!((stored.len(), met), (8, 3));
        // A pair looks both its sides up, once each; the index is stored.
        let index_misses = || obs.metrics.snapshot().counters["md/join_index_misses"];
        let before = (e.cache_stats().lookups(), index_misses());
        e.execute(WINDOW).unwrap();
        assert_eq!(e.cache_stats().lookups() - before.0, 2 * met as u64);
        assert_eq!(index_misses(), before.1);
    }

    #[test]
    fn observed_engine_emits_choice_events_and_spans() {
        let obs = orv_obs::Obs::enabled();
        let e = engine().with_obs(obs.clone());
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let r = e.execute("SELECT * FROM v1").unwrap();
        assert_eq!(r.rows.len(), 64);
        let choices = obs.events.events_of_kind(names::QES_CHOICE);
        assert_eq!(choices.len(), 1);
        let ev = &choices[0];
        let algo = ev.fields["algorithm"].as_str().unwrap();
        assert_eq!(algo, algorithm_slug(r.explain.unwrap().algorithm));
        assert!(ev.fields["ij_total_secs"].as_f64().unwrap() > 0.0);
        assert!(ev.fields["gh_total_secs"].as_f64().unwrap() > 0.0);
        let totals = obs.spans.total_secs_by_leaf();
        assert!(totals.contains_key("plan"), "{totals:?}");
        assert!(totals.contains_key("exec"), "{totals:?}");
        // MetaData Service usage flows into the registry after the join.
        let snap = obs.metrics.snapshot();
        assert!(snap.counters.get("md/catalog_lookups").copied() > Some(0));
    }

    /// A traced Grace Hash query records its row edge in the engine's own
    /// span, after `engine/exec`, once per join.
    #[test]
    fn a_traced_grace_hash_join_records_its_row_edge() {
        let obs = orv_obs::Obs::enabled();
        let e = engine()
            .force_algorithm(Some(JoinAlgorithm::GraceHash))
            .with_obs(obs.clone());
        let r = e.execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)").unwrap();
        assert_eq!(r.rows.len(), 64);
        let paths: Vec<String> = obs
            .spans
            .records()
            .into_iter()
            .map(|r| r.path)
            .filter(|p| p.starts_with("engine/"))
            .collect();
        assert_eq!(paths, ["engine/plan", "engine/exec", "engine/rows"]);
    }

    /// The plan phase is timed once: on a traced IJ query the
    /// `lat/plan_secs` sample is the `engine/plan` span's duration.
    #[test]
    fn a_traced_plan_phase_is_one_measurement() {
        let obs = orv_obs::Obs::enabled();
        let e = engine()
            .force_algorithm(Some(JoinAlgorithm::IndexedJoin))
            .with_obs(obs.clone());
        e.execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)").unwrap();
        let plans: Vec<f64> = obs
            .spans
            .records()
            .into_iter()
            .filter(|r| r.path == "engine/plan")
            .map(|r| r.dur_secs)
            .collect();
        let snap = obs.metrics.snapshot();
        let hist = &snap.histograms[names::LAT_PLAN];
        assert_eq!((hist.count, vec![hist.sum]), (1, plans));
    }

    #[test]
    fn observed_scan_records_a_read_and_an_extract_span_per_chunk() {
        let obs = orv_obs::Obs::enabled();
        let e = engine().with_obs(obs.clone());
        // t1 is 8×8 in 4×4 chunks: four chunks over two nodes.
        assert_eq!(e.execute("SELECT * FROM t1").unwrap().rows.len(), 64);
        let mut paths: Vec<String> = obs.spans.records().into_iter().map(|r| r.path).collect();
        paths.sort();
        let want: Vec<String> = ["bds0/extract", "bds0/read", "bds1/extract", "bds1/read"]
            .iter()
            .flat_map(|p| [p.to_string(), p.to_string()])
            .collect();
        assert_eq!(paths, want);
    }

    #[test]
    fn projection_from_view() {
        let e = engine();
        e.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let r = e.execute("SELECT wp, oilp FROM v1 WHERE x = 0").unwrap();
        assert_eq!(r.columns, vec!["wp", "oilp"]);
        assert_eq!(r.rows.len(), 8);
        assert_eq!(r.rows[0].arity(), 2);
    }

    #[test]
    fn terminal_qes_failure_fails_over_to_alternate_algorithm() {
        use orv_cluster::{silence_injected_panics, FaultPlan, WorkerPanicSpec};
        silence_injected_panics();

        // Oracle: a clean engine, and the algorithm its planner picks.
        let clean = engine();
        let oracle = clean
            .execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let chosen = oracle.explain.as_ref().unwrap().algorithm;

        // Chaos engine: every compute worker dies mid-query on the first
        // execution (panic specs are one-shot, so the failover run is
        // clean). The planner is NOT forced — failover must kick in.
        let plan = FaultPlan {
            seed: 9,
            worker_panics: (0..2)
                .map(|w| WorkerPanicSpec {
                    worker: w,
                    after_ops: 0,
                })
                .collect(),
            max_faults: 64,
            ..Default::default()
        };
        let obs = orv_obs::Obs::enabled();
        let chaotic = engine()
            .with_obs(obs.clone())
            .with_faults(FaultInjector::new(plan, EventLog::disabled()));
        let r = chaotic
            .execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        assert_eq!(r.rows, oracle.rows, "failover must be oracle-identical");

        let failovers = obs.events.events_of_kind(names::QES_FAILOVER);
        assert_eq!(failovers.len(), 1, "exactly one failover");
        let ev = &failovers[0];
        assert_eq!(
            ev.fields["from"].as_str().unwrap(),
            algorithm_slug(chosen),
            "failed away from the planner's choice"
        );
        let fallback = match chosen {
            JoinAlgorithm::IndexedJoin => JoinAlgorithm::GraceHash,
            JoinAlgorithm::GraceHash => JoinAlgorithm::IndexedJoin,
        };
        assert_eq!(ev.fields["to"].as_str().unwrap(), algorithm_slug(fallback));
        assert!(
            !ev.fields["error"].as_str().unwrap().is_empty(),
            "failover event carries the triggering error"
        );
    }

    #[test]
    fn forced_algorithm_disables_failover() {
        use orv_cluster::{silence_injected_panics, FaultPlan, WorkerPanicSpec};
        silence_injected_panics();
        let plan = FaultPlan {
            seed: 9,
            worker_panics: (0..2)
                .map(|w| WorkerPanicSpec {
                    worker: w,
                    after_ops: 0,
                })
                .collect(),
            max_faults: 64,
            ..Default::default()
        };
        let e = engine()
            .force_algorithm(Some(JoinAlgorithm::IndexedJoin))
            .with_faults(FaultInjector::new(plan, EventLog::disabled()));
        let err = e
            .execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap_err();
        assert!(matches!(err, Error::Cluster(_)), "{err}");
    }

    #[test]
    fn cancelled_statement_returns_cancelled() {
        let e = engine();
        let cancel = CancelToken::new();
        cancel.cancel();
        let prepared = e.prepare("SELECT * FROM t1 JOIN t2 ON (x, y, z)").unwrap();
        let err = e.run(&prepared, &cancel.into()).unwrap_err();
        assert!(matches!(err, Error::Cancelled), "{err}");
    }

    #[test]
    fn views_nested_past_the_depth_cap_are_refused_at_creation() {
        let e = engine();
        e.execute("CREATE VIEW d0 AS SELECT x, oilp FROM t1")
            .unwrap();
        for depth in 1..MAX_VIEW_DEPTH {
            let sql = format!("CREATE VIEW d{depth} AS SELECT x, oilp FROM d{}", depth - 1);
            e.execute(&sql).unwrap();
        }
        let deepest = MAX_VIEW_DEPTH - 1;
        let r = e.execute(&format!("SELECT * FROM d{deepest}")).unwrap();
        assert_eq!(r.rows.len(), 64);
        let err = e
            .execute(&format!("CREATE VIEW too_deep AS SELECT x FROM d{deepest}"))
            .unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err}");
        assert!(e.catalog().get("too_deep").is_none());
    }

    #[test]
    fn catalog_is_unchanged_by_a_create_view_that_fails() {
        let e = engine();
        e.execute("CREATE VIEW v AS SELECT x, oilp FROM t1")
            .unwrap();
        let (v0, held) = (e.catalog_version(), e.catalog());
        let duplicate = e.execute("CREATE VIEW v AS SELECT x FROM t1").unwrap_err();
        assert!(matches!(duplicate, Error::Config(_)), "{duplicate}");
        assert!(e.execute("CREATE VIEW u AS SELECT * FROM nope").is_err());
        assert_eq!(e.catalog_version(), v0, "a failed edit publishes nothing");
        assert!(Arc::ptr_eq(&held, &e.catalog()));
        // A publish swaps the catalog; the held snapshot stays as taken.
        e.execute("CREATE VIEW u AS SELECT x FROM t1").unwrap();
        assert_eq!(e.catalog_version(), v0 + 1);
        assert_eq!(held.names(), vec!["v".to_string()]);
        assert!(e.catalog().get("u").is_some());
    }

    /// `n` threads each run `sql(thread)` once, released together; how
    /// many succeeded.
    fn race_creates(e: &QueryEngine, n: usize, sql: impl Fn(usize) -> String + Sync) -> usize {
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let racers: Vec<_> = (0..n)
                .map(|k| {
                    let (barrier, sql) = (&barrier, &sql);
                    s.spawn(move || {
                        barrier.wait();
                        e.execute(&sql(k)).is_ok()
                    })
                })
                .collect();
            let oks = racers.into_iter().map(|r| r.join().unwrap());
            oks.filter(|&ok| ok).count()
        })
    }

    #[test]
    fn catalog_loses_no_update_to_concurrent_creates() {
        let e = engine();
        let v0 = e.catalog_version();
        let ok = race_creates(&e, 8, |k| format!("CREATE VIEW c{k} AS SELECT x FROM t1"));
        assert_eq!(ok, 8);
        assert_eq!(e.catalog_version(), v0 + 8);
        let catalog = e.catalog();
        assert!((0..8).all(|k| catalog.get(&format!("c{k}")).is_some()));
    }

    #[test]
    fn catalog_name_raced_by_many_has_one_winner() {
        let e = engine();
        let v0 = e.catalog_version();
        let ok = race_creates(&e, 8, |k| {
            format!("CREATE VIEW same AS SELECT x FROM t1 WHERE x IN [0, {k}]")
        });
        assert_eq!(ok, 1, "exactly one CREATE VIEW of a name succeeds");
        assert_eq!(e.catalog_version(), v0 + 1);
    }

    #[test]
    fn catalog_readers_see_a_prefix_closed_set_during_a_publish_storm() {
        const WRITES: usize = 64;
        let e = engine();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    barrier.wait();
                    // w0, w1, … are created in order: a snapshot holding
                    // w{k} holds every earlier one, whenever it was taken.
                    loop {
                        let snap = e.catalog();
                        let held = (0..WRITES)
                            .take_while(|k| snap.get(&format!("w{k}")).is_some())
                            .count();
                        assert_eq!(snap.names().len(), held, "torn or reordered publish");
                        if held == WRITES {
                            return;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            barrier.wait();
            for k in 0..WRITES {
                e.execute(&format!("CREATE VIEW w{k} AS SELECT x FROM t1"))
                    .unwrap();
            }
        });
        assert_eq!(e.catalog_version(), WRITES as u64);
    }

    #[test]
    fn expired_query_deadline_returns_deadline_exceeded() {
        let e = engine();
        let run = |sql: &str, deadline: Duration| {
            let token = CancelToken::with_deadline(deadline);
            e.run(&e.prepare(sql).unwrap(), &token.into())
        };
        let err = run("SELECT * FROM t1 JOIN t2 ON (x, y, z)", Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded), "{err}");
        // A generous deadline leaves execution untouched.
        let r = run("SELECT COUNT(*) FROM t1", Duration::from_secs(300)).unwrap();
        assert_eq!(r.rows.len(), 1);
    }
}
