//! Federated query serving with shard-level fault tolerance.
//!
//! The paper's services are singletons: one Query Processing Service
//! fronts the whole dataset. This module shards that front-end the way a
//! production deployment would: `N` [`QueryService`] instances each own a
//! slice of the chunk catalog under **replicated placement** (every chunk
//! lives on `R >= 2` distinct shards, assigned by rendezvous hashing —
//! [`orv_metadata::Placement`]), and a [`FederatedService`] router binds
//! each statement once ([`QueryEngine::prepare`]) and routes on what it
//! bound to. A `CREATE VIEW` is broadcast; a join or view read is shipped
//! whole — the same [`Prepared`], cloned — to one healthy shard; a
//! base-table scan consults the MetaData Service's R-tree for the chunks
//! its range touches, fans chunk-scan `Prepared`s out to owning shards,
//! and merges the partial results (re-aggregation for
//! COUNT/SUM/AVG/MIN/MAX, in-order concatenation with dedup-by-chunk for
//! scans). Shards never see SQL text: they queue and run what the router
//! bound ([`QueryService::submit_prepared`]).
//!
//! Robustness machinery, all deterministic under seeded fault plans:
//!
//! - **Failover**: a failed sub-query re-routes its unfilled chunks to a
//!   replica that has not been tried yet, bounded per chunk by
//!   [`RecoveryPolicy::max_attempts`].
//! - **Hedged requests**: when a sub-query stays unanswered past
//!   `hedge_after`, the router re-issues its chunks to another replica and
//!   takes the first checksum-verified answer, cancelling the loser.
//! - **Circuit breaker**: per shard, `trip_after` *consecutive* failures
//!   open the breaker for `cooldown_ticks` logical ticks (the tick is the
//!   dispatched-flight counter, not wall clock, so seeded replays see the
//!   same trips); one half-open probe then closes or re-opens it. An open
//!   breaker demotes a shard in replica preference — it never makes data
//!   unreachable while an untried replica remains.
//! - **Graceful degradation**: chunks whose every replica failed are
//!   reported in a typed [`PartialResult`] carrying the exact missing
//!   chunk set and a completeness fraction; `strict` mode turns the same
//!   situation into [`Error::Unavailable`].
//! - **Deadline-budget propagation**: when the root query carries a
//!   deadline, every sub-query's token derives from the *same* absolute
//!   deadline minus one `HOP_MARGIN` ([`DeadlineBudget::shrink`]) — the
//!   budget only ever shrinks across hops, leaving the router time to
//!   collect, merge and degrade after a child gives up.
//! - **Retry budgets**: every failover, hedge and overload re-issue
//!   must draw a token from the failed/slow shard's [`RetryBudget`]
//!   (refilled only by successful completions). A dry bucket degrades
//!   to the partial path instead of amplifying the overload that caused
//!   the failure.
//! - **Overload backoff**: a shard rejecting with [`Error::Overloaded`]
//!   is *not* a fault — no breaker trip; the router backs off honoring
//!   the rejection's `retry_after_ms` hint (bounded) before re-issuing.
//! - **Brownout awareness**: hedging is disabled while any shard's
//!   brownout controller has left `Normal`, and failover re-issue stops
//!   entirely under `Shed` — degraded answers over added load (the
//!   policy is [`BrownoutState`]'s `allows_hedging`/`allows_reissue`).
//!
//! Every re-issue decision goes through one private gate, `may_reissue`
//! (brownout policy first, then one retry-token draw), and every
//! sub-query outcome through `shard_ok` / `shard_failed`.
//!
//! Merging is exact for scans and COUNT/MIN/MAX; SUM/AVG re-aggregation
//! is deterministic for a fixed partitioning but may differ from the
//! single-pass value in the last floating-point bits (see
//! [`Accumulator::merge`](crate::agg::Accumulator::merge)).

use crate::ast::SelectItem;
use crate::engine::{BoundSelect, Plan, Prepared, QueryEngine, QueryResult, Request, Source};
use crate::exec::{merge_aggregate, order_and_limit, project, rows_checksum, seal_runs, RowSet};
use crate::overload::BrownoutState;
use crate::service::{Landing, QueryService, QueryTicket, ServiceConfig};
use orv_bds::Deployment;
use orv_cluster::{CancelToken, DeadlineBudget, FaultInjector, RecoveryPolicy, RetryBudget};
use orv_metadata::Placement;
use orv_obs::{
    names, FlightRecorder, JsonValue, Obs, QueryTrace, Stopwatch, TraceId, TraceOutcome,
};
use orv_types::{BoundingBox, ChunkId, Error, Record, Result, SubTableId, TableId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// The longest the router sleeps between two sweeps of its flights while
/// none lands, so hedge timers are checked at least this often. Purely a
/// caller-side wait quantum (like [`QueryTicket::wait_timeout`]); it
/// never steers execution.
const POLL_SLICE: Duration = Duration::from_millis(2);

fn relock<T>(r: std::result::Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Sizing and robustness knobs for a [`FederatedService`].
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Number of shard engines.
    pub shards: usize,
    /// Replicas per chunk (`1 <= replication <= shards`).
    pub replication: usize,
    /// Admission/pool sizing applied to every shard's [`QueryService`].
    pub service: ServiceConfig,
    /// Re-issue a sub-query to another replica once it has been in flight
    /// this long. `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Attempt cap (per chunk, and per whole-query route) plus backoff
    /// shape for the whole-query retry path.
    pub recovery: RecoveryPolicy,
    /// Consecutive sub-query failures that open a shard's breaker.
    pub trip_after: u32,
    /// Logical ticks (dispatched flights) an open breaker stays open
    /// before its half-open probe.
    pub cooldown_ticks: u64,
    /// `true`: missing chunks fail the query with [`Error::Unavailable`]
    /// instead of degrading to a [`PartialResult`].
    pub strict: bool,
    /// Per-shard retry-budget capacity (whole tokens): the burst of
    /// failovers/hedges/overload-retries a shard may absorb before
    /// successes must pay for more. `0` disables retries entirely.
    pub retry_budget: u64,
}

/// Seed of the rendezvous placement (a pure function of this seed, the
/// chunk id and the shard count): `Placement::new(shards, replication,
/// PLACEMENT_SEED)` is the assignment every federation uses.
pub const PLACEMENT_SEED: u64 = 0x0bad_5eed_f00d_cafe;

/// Deadline slack subtracted per fan-out hop: a sub-query's budget is the
/// root budget shrunk by this, so the router always has a margin to
/// collect/merge/degrade after the child's deadline.
const HOP_MARGIN: Duration = Duration::from_millis(25);

/// Milli-tokens (1/1000ths of a retry) each successful sub-query earns
/// back into its shard's retry bucket.
const RETRY_EARN_MILLI: u64 = 100;

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            shards: 3,
            replication: 2,
            service: ServiceConfig::default(),
            hedge_after: None,
            recovery: RecoveryPolicy::default(),
            trip_after: 3,
            cooldown_ticks: 8,
            strict: false,
            retry_budget: 8,
        }
    }
}

/// A query answer missing some chunks: the rows that *were* reachable,
/// plus an exact account of what was not.
#[derive(Debug)]
pub struct PartialResult {
    /// The merged answer over every chunk that responded.
    pub result: QueryResult,
    /// `answered_chunks / targeted_chunks`, in `[0, 1)`.
    pub completeness: f64,
    /// Chunks whose every (untried-replica) route failed, ascending.
    pub missing_chunks: Vec<ChunkId>,
}

/// What a federated query returns: the full answer, or a degraded one
/// that says exactly how degraded it is.
#[derive(Debug)]
pub enum FederatedResponse {
    /// Every targeted chunk answered.
    Complete(QueryResult),
    /// Some chunks were unreachable on every allowed route.
    Partial(PartialResult),
}

impl FederatedResponse {
    /// Whether every targeted chunk contributed.
    pub fn is_complete(&self) -> bool {
        matches!(self, FederatedResponse::Complete(_))
    }

    /// The merged rows, regardless of completeness.
    pub fn result(&self) -> &QueryResult {
        match self {
            FederatedResponse::Complete(r) => r,
            FederatedResponse::Partial(p) => &p.result,
        }
    }

    /// Consume into the merged [`QueryResult`], discarding the
    /// completeness report.
    pub fn into_result(self) -> QueryResult {
        match self {
            FederatedResponse::Complete(r) => r,
            FederatedResponse::Partial(p) => p.result,
        }
    }
}

/// Per-shard circuit breaker over the router's logical clock.
enum BreakerState {
    Closed,
    Open { until_tick: u64 },
    HalfOpen,
}

struct ShardHealth {
    state: Mutex<(BreakerState, u32)>, // (state, consecutive failures)
}

impl ShardHealth {
    fn new() -> Self {
        ShardHealth {
            state: Mutex::new((BreakerState::Closed, 0)),
        }
    }

    /// Whether routing *prefers* this shard right now. An `Open` breaker
    /// whose cooldown has elapsed transitions to `HalfOpen` and admits
    /// exactly one probe (subsequent calls say no until the probe
    /// resolves).
    fn allows(&self, now_tick: u64) -> bool {
        let mut guard = relock(self.state.lock());
        match guard.0 {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open { until_tick } => {
                if now_tick >= until_tick {
                    guard.0 = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn record_success(&self) {
        let mut guard = relock(self.state.lock());
        *guard = (BreakerState::Closed, 0);
    }

    /// Returns `true` when this failure trips (or re-trips) the breaker.
    fn record_failure(&self, trip_after: u32, cooldown_ticks: u64, now_tick: u64) -> bool {
        let mut guard = relock(self.state.lock());
        guard.1 = guard.1.saturating_add(1);
        let reopen = matches!(guard.0, BreakerState::HalfOpen);
        let trip = matches!(guard.0, BreakerState::Closed) && guard.1 >= trip_after.max(1);
        if reopen || trip {
            guard.0 = BreakerState::Open {
                until_tick: now_tick.saturating_add(cooldown_ticks),
            };
        }
        reopen || trip
    }
}

/// One in-flight sub-query: a chunk group dispatched to one shard.
struct Flight {
    shard: usize,
    chunks: Vec<ChunkId>,
    ticket: QueryTicket,
    /// Wall-clock hedge trigger, armed when hedging is configured.
    hedge_timer: Option<DeadlineBudget>,
    /// This flight already spawned its hedge (never hedge twice).
    hedged: bool,
    /// This flight *is* a hedge re-issue.
    is_hedge: bool,
    /// Time since dispatch; when a hedge is issued, its elapsed value is
    /// the latency the hedge mechanism absorbed (`lat/hedge_overhead_secs`).
    age: Stopwatch,
}

/// Phase rows and resolved sub-query traces accumulated while one
/// federated query runs, folded into its root [`QueryTrace`] at the end.
#[derive(Default)]
struct TraceBuild {
    phases: Vec<(String, f64)>,
    children: Vec<QueryTrace>,
}

/// The sub-responses a federated scan has absorbed, each kept whole as it
/// landed, and which of them filled each chunk: the first verified
/// response to carry a chunk wins it (dedup for hedged duplicates).
#[derive(Default)]
struct Gathered {
    responses: Vec<Vec<Record>>,
    /// chunk → (index into `responses`, the chunk's rows there).
    filled: HashMap<ChunkId, (usize, Range<usize>)>,
}

impl Gathered {
    fn has(&self, chunk: &ChunkId) -> bool {
        self.filled.contains_key(chunk)
    }

    /// Rows over every filled chunk.
    fn rows(&self) -> usize {
        self.filled.values().map(|(_, run)| run.len()).sum()
    }

    /// Keep `rows`, cut into `runs`, and fill every chunk they carry that
    /// no earlier response filled; `true` if any was.
    fn keep(&mut self, rows: Vec<Record>, runs: &[(ChunkId, usize)]) -> bool {
        let (k, mut at, mut won) = (self.responses.len(), 0, false);
        for &(chunk, len) in runs {
            if let Entry::Vacant(e) = self.filled.entry(chunk) {
                e.insert((k, at..at + len));
                won = true;
            }
            at += len;
        }
        if won {
            self.responses.push(rows);
        }
        won
    }

    /// Hand `each` the rows of every filled chunk, in `chunks` order,
    /// moved out of the response that won it. `chunks` ascends, as every
    /// response's runs do, so each response is read front to back once.
    fn drain_runs(
        self,
        chunks: &[ChunkId],
        mut each: impl FnMut(std::iter::Take<&mut std::vec::IntoIter<Record>>),
    ) {
        let mut cursors: Vec<_> = self
            .responses
            .into_iter()
            .map(|rows| (0, rows.into_iter()))
            .collect();
        for chunk in chunks {
            let Some((k, run)) = self.filled.get(chunk) else {
                continue;
            };
            let (at, rows) = &mut cursors[*k];
            // Rows in between belong to chunks another response won.
            if run.start > *at {
                rows.nth(run.start - *at - 1);
            }
            *at = run.end;
            each(rows.by_ref().take(run.len()));
        }
    }
}

/// One federated query's flights, and the landing signal every one of
/// them pulses when its answer is published. Also a drop guard: whatever
/// is still flying when the router unwinds (parent cancellation,
/// strict-mode error, normal return with losers pending) gets cancelled
/// so no shard worker burns time on an abandoned query.
#[derive(Default)]
struct Flights {
    flying: Vec<Flight>,
    landing: Landing,
}

impl Drop for Flights {
    fn drop(&mut self) {
        for f in &self.flying {
            f.ticket.cancel();
        }
    }
}

/// The federation router: N shard [`QueryService`]s behind one query API.
///
/// All shards are clones of one [`Deployment`] (shared storage, shared
/// MetaData Service); what is sharded is *serving ownership* — which
/// front-end answers for which chunks — exactly the layer a fault plan's
/// shard-death/shard-slow specs target.
pub struct FederatedService {
    shards: Vec<QueryService>,
    placement: Placement,
    cfg: FederationConfig,
    deployment: Deployment,
    obs: Obs,
    health: Vec<ShardHealth>,
    /// Per-shard retry token buckets: failovers, hedges and overload
    /// re-issues draw; successful sub-queries earn back.
    retry: Vec<Arc<RetryBudget>>,
    /// Logical clock: one tick per dispatched flight. Breaker cooldowns
    /// count these, not wall time, so seeded replays trip identically.
    clock: AtomicU64,
    /// Root-query flight recorder: each retained trace carries the full
    /// cross-shard span tree of one federated query.
    recorder: FlightRecorder,
}

impl std::fmt::Debug for FederatedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FederatedService")
            .field("shards", &self.shards.len())
            .field("replication", &self.placement.replication())
            .finish()
    }
}

impl FederatedService {
    /// Build the federation over `deployment` with no instrumentation.
    pub fn new(deployment: Deployment, cfg: FederationConfig) -> Result<Self> {
        Self::with_instruments(deployment, cfg, Obs::disabled(), None)
    }

    /// Build the federation, wiring every shard engine to `obs` (spans,
    /// `fed/*` counters) and, when given, to one shared fault injector —
    /// the single seeded plan drives deaths and slowdowns across all
    /// shards, and its global budget caps them collectively.
    pub fn with_instruments(
        deployment: Deployment,
        cfg: FederationConfig,
        obs: Obs,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self> {
        if cfg.trip_after == 0 {
            return Err(Error::Config(
                "federation needs trip_after >= 1 (0 would trip on success)".into(),
            ));
        }
        let placement = Placement::new(cfg.shards, cfg.replication, PLACEMENT_SEED)?;
        let shards = (0..cfg.shards)
            .map(|i| {
                let mut engine = QueryEngine::new(deployment.clone())
                    .with_obs(obs.clone())
                    .with_shard(i)
                    .with_placement(placement);
                if let Some(f) = &faults {
                    engine = engine.with_faults(Arc::clone(f));
                }
                QueryService::new(engine, cfg.service.clone())
            })
            .collect::<Result<Vec<_>>>()?;
        let health = (0..cfg.shards).map(|_| ShardHealth::new()).collect();
        let retry = (0..cfg.shards)
            .map(|_| Arc::new(RetryBudget::new(cfg.retry_budget, RETRY_EARN_MILLI)))
            .collect();
        Ok(FederatedService {
            shards,
            placement,
            cfg,
            deployment,
            obs,
            health,
            retry,
            clock: AtomicU64::new(0),
            recorder: FlightRecorder::new(8, 64),
        })
    }

    /// The router's flight recorder: the K slowest federated queries plus
    /// every failed/partial/cancelled one, each with its full cross-shard
    /// sub-query tree.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// The chunk-to-shard assignment function.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Number of shard services.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's front-end (counters, engine, catalog inspection).
    pub fn shard(&self, i: usize) -> &QueryService {
        &self.shards[i]
    }

    /// The observability handle all shards share.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn bump(&self, name: &str, n: u64) {
        self.obs.metrics.counter(name).add(n);
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// One shard's retry token bucket (chaos tests assert total grants
    /// against [`RetryBudget::max_grants`]).
    pub fn retry_budget(&self, shard: usize) -> &RetryBudget {
        &self.retry[shard]
    }

    /// The federation's overload severity: the worst brownout state of
    /// any shard. What each state permits is [`BrownoutState`]'s to say.
    pub fn brownout_state(&self) -> BrownoutState {
        self.shards
            .iter()
            .map(|s| s.brownout().state())
            .max()
            .unwrap_or(BrownoutState::Normal)
    }

    /// The request a sub-query hop runs under: the root's trace as
    /// parent, and the root budget shrunk by one [`HOP_MARGIN`] when the
    /// root carries a deadline (a plain cancellable token otherwise).
    /// Budgets are monotone non-increasing across hops by construction
    /// ([`DeadlineBudget::shrink`]).
    fn hop(&self, root: &Request) -> Request {
        let cancel = match DeadlineBudget::from_token(&root.cancel) {
            Some(budget) => budget.shrink(HOP_MARGIN).token(),
            None => CancelToken::new(),
        };
        Request {
            cancel,
            parent: root.parent,
        }
    }

    /// The re-issue gate: may the router send `shard`'s work (a failover,
    /// a hedge, an overload retry) somewhere again? The brownout policy
    /// answers first, and only a "yes" goes on to pay one token from
    /// `shard`'s retry budget — a shedding federation draws nothing.
    /// `false` means degrade, do not re-issue.
    fn may_reissue(&self, shard: usize) -> bool {
        if !self.brownout_state().allows_reissue() {
            return false;
        }
        let granted = self.retry[shard].try_draw();
        self.bump(
            if granted {
                names::OVERLOAD_RETRY_GRANTED
            } else {
                names::OVERLOAD_RETRY_DENIED
            },
            1,
        );
        self.publish_retry_tokens();
        granted
    }

    /// A sub-query to `shard` succeeded: close its breaker and credit its
    /// retry budget.
    fn shard_ok(&self, shard: usize) {
        self.health[shard].record_success();
        self.retry[shard].on_success();
        self.publish_retry_tokens();
    }

    /// A sub-query to `shard` failed at logical tick `now`: count it and
    /// feed the breaker.
    fn shard_failed(&self, shard: usize, now: u64) {
        self.bump(names::FED_SHARD_ERRORS, 1);
        if self.health[shard].record_failure(self.cfg.trip_after, self.cfg.cooldown_ticks, now) {
            self.bump(names::FED_TRIPS, 1);
        }
    }

    fn publish_retry_tokens(&self) {
        let total: u64 = self.retry.iter().map(|b| b.available_milli()).sum();
        self.obs
            .metrics
            .gauge(names::OVERLOAD_RETRY_TOKENS)
            .set(total);
    }

    /// Bounded overload backoff honoring a rejection's `retry_after_ms`
    /// hint (capped at one [`orv_cluster::SLEEP_SLICE`]).
    fn overload_backoff(&self, cancel: &CancelToken, hint_ms: u64) -> Result<()> {
        self.bump(names::OVERLOAD_BACKOFFS, 1);
        cancel.sleep(Duration::from_millis(hint_ms).min(orv_cluster::SLEEP_SLICE))
    }

    /// Execute one statement, stamping the configured default deadline.
    pub fn execute(&self, sql: &str) -> Result<FederatedResponse> {
        let cancel = match self.cfg.service.default_deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        self.execute_request(sql, &cancel.into())
    }

    /// [`FederatedService::execute`] under a caller-owned [`Request`]:
    /// its token gates the router loop, and unwinding cancels every
    /// still-flying sub-query.
    ///
    /// A root [`TraceId`] is minted here (under `request.parent`, if any)
    /// and propagated into every shard sub-query, so the whole fan-out
    /// stitches into one span tree; the completed trace lands in
    /// [`FederatedService::recorder`].
    pub fn execute_request(&self, sql: &str, request: &Request) -> Result<FederatedResponse> {
        let born = Stopwatch::start();
        let trace = TraceId::mint();
        self.obs.events.emit(names::TRACE_BEGIN, || {
            vec![
                ("trace", trace.into()),
                ("parent", request.parent.map_or(JsonValue::Null, Into::into)),
                ("group", "fed".into()),
                ("detail", sql.into()),
            ]
        });
        let mut tb = TraceBuild::default();
        let root = Request {
            cancel: request.cancel.clone(),
            parent: Some(trace),
        };
        let out = self.route(sql, &root, &mut tb);
        let outcome = match &out {
            Ok(FederatedResponse::Complete(_)) => TraceOutcome::Ok,
            Ok(FederatedResponse::Partial(_)) => TraceOutcome::Partial,
            Err(e) if e.is_cancellation() => TraceOutcome::Cancelled,
            Err(_) => TraceOutcome::Error,
        };
        let total_secs = born.elapsed_secs();
        self.obs
            .metrics
            .record_latency(names::LAT_TOTAL, total_secs);
        self.obs.events.emit(names::TRACE_END, || {
            vec![
                ("trace", trace.into()),
                ("group", "fed".into()),
                ("outcome", outcome.as_str().into()),
                ("total_secs", total_secs.into()),
            ]
        });
        self.recorder.record(QueryTrace {
            trace,
            parent: request.parent,
            group: "fed".into(),
            detail: sql.to_string(),
            outcome,
            total_secs,
            phases: tb.phases,
            children: tb.children,
        });
        out
    }

    /// Bind `sql` once and decide, from what it bound to, how it
    /// crosses the federation. Any shard engine can bind: they share one
    /// deployment, and views are broadcast to every catalog.
    fn route(&self, sql: &str, root: &Request, tb: &mut TraceBuild) -> Result<FederatedResponse> {
        let cancel = &root.cancel;
        cancel.check()?;
        let prepared = self.shards[0].engine().prepare(sql)?;
        match &prepared.plan {
            Plan::CreateView(_) => {
                // Views live in each shard engine's catalog; broadcast so
                // any replica can serve view queries. A mid-broadcast
                // failure leaves earlier shards registered — re-issuing
                // the CREATE VIEW converges (duplicates error per shard,
                // which we surface as-is).
                for svc in &self.shards {
                    let ticket = svc.submit_prepared(prepared.clone(), self.hop(root))?;
                    let outcome = ticket.wait_cancellable(cancel);
                    tb.children.extend(ticket.trace());
                    outcome?;
                }
                Ok(FederatedResponse::Complete(QueryResult::empty()))
            }
            Plan::Select(
                select @ BoundSelect {
                    source: Source::Scan { table, range },
                    ..
                },
            ) => self.scan_federated(prepared.predicted_secs, select, *table, range, root, tb),
            // Joins and view reads are not chunk-decomposable at this
            // layer (the join QES already distributes its own work);
            // route the whole statement to one healthy replica with
            // retry/failover.
            _ => self
                .route_whole(&prepared, root, tb)
                .map(FederatedResponse::Complete),
        }
    }

    /// Whole-statement routing with shard failover: try healthy shards
    /// first, never the same shard twice, up to `max_attempts`.
    fn route_whole(
        &self,
        prepared: &Prepared,
        root: &Request,
        tb: &mut TraceBuild,
    ) -> Result<QueryResult> {
        let cancel = &root.cancel;
        let n = self.shards.len();
        let mut tried = vec![false; n];
        let mut last_err = Error::Cluster("federation has no shards".into());
        for attempt in 0..self.cfg.recovery.max_attempts {
            let now = self.tick();
            let pick = (0..n)
                .find(|&s| !tried[s] && self.health[s].allows(now))
                .or_else(|| (0..n).find(|&s| !tried[s]));
            let Some(shard) = pick else { break };
            tried[shard] = true;
            self.bump(names::FED_SUBQUERIES, 1);
            let outcome = self.shards[shard]
                .submit_prepared(prepared.clone(), self.hop(root))
                .and_then(|t| {
                    let outcome = t.wait_cancellable(cancel);
                    tb.children.extend(t.trace());
                    outcome
                });
            match outcome {
                Ok(result) => {
                    self.shard_ok(shard);
                    return Ok(result);
                }
                Err(e) if e.is_cancellation() && cancel.check().is_err() => return Err(e),
                Err(e) if e.retry_after_ms().is_some() => {
                    // Overload is not a fault: no breaker trip, and the
                    // shard stays eligible once its queue drains — but a
                    // re-issue still costs a retry token, and under `Shed`
                    // we stop adding load altogether.
                    let hint = e.retry_after_ms().unwrap_or(0);
                    tried[shard] = false;
                    last_err = e;
                    if attempt + 1 < self.cfg.recovery.max_attempts {
                        if !self.may_reissue(shard) {
                            break;
                        }
                        self.overload_backoff(cancel, hint)?;
                    }
                }
                Err(e) => {
                    self.shard_failed(shard, now);
                    last_err = e;
                    if attempt + 1 < self.cfg.recovery.max_attempts {
                        if !self.may_reissue(shard) {
                            break;
                        }
                        self.bump(names::FED_FAILOVERS, 1);
                        cancel.sleep(self.cfg.recovery.backoff(attempt))?;
                    }
                }
            }
        }
        Err(last_err)
    }

    /// Pick the serving replica for one chunk: an owner not yet tried,
    /// preferring those whose breaker admits traffic. The breaker only
    /// demotes — while any untried replica exists the chunk stays
    /// routable, so data never goes missing because of an open breaker
    /// alone.
    fn pick_shard(&self, owners: &[usize], tried: &[usize], now_tick: u64) -> Option<usize> {
        owners
            .iter()
            .find(|s| !tried.contains(s) && self.health[**s].allows(now_tick))
            .or_else(|| owners.iter().find(|s| !tried.contains(s)))
            .copied()
    }

    /// The chunk fan-out path for base-table SELECTs: `query` reads
    /// `table` restricted to `range`, predicted to cost `table_secs`.
    fn scan_federated(
        &self,
        table_secs: f64,
        query: &BoundSelect,
        table: TableId,
        range: &Option<BoundingBox>,
        root: &Request,
        tb: &mut TraceBuild,
    ) -> Result<FederatedResponse> {
        let cancel = &root.cancel;
        let md = self.deployment.metadata();
        // Same R-tree consultation (and chunk order) as a single engine's
        // scan, so a complete merge is byte-identical to the oracle.
        let all = md.all_chunks(table)?;
        let table_chunks = all.len();
        let chunks = match range {
            Some(rg) => md.find_chunks(table, rg)?,
            None => all,
        };
        // One sub-query: these chunks, costed as their share of the
        // whole-table scan the statement was bound to.
        let sub_query = |chunks: &[ChunkId]| {
            let share = chunks.len() as f64 / table_chunks.max(1) as f64;
            Prepared::chunk_scan(table, range.clone(), chunks.to_vec(), table_secs * share)
        };

        let mut tried: HashMap<ChunkId, Vec<usize>> = HashMap::new();
        let mut gathered = Gathered::default();
        let mut unassigned: Vec<ChunkId> = chunks.clone();
        let mut missing: Vec<ChunkId> = Vec::new();
        let mut flights = Flights::default();

        loop {
            cancel.check()?;

            // Dispatch every unassigned chunk (first pass: primaries;
            // later passes: failover targets). Chunks with no untried
            // replica left, or past the attempt cap, become missing.
            if !unassigned.is_empty() {
                let now = self.tick();
                let mut groups: HashMap<usize, Vec<ChunkId>> = HashMap::new();
                for chunk in unassigned.drain(..) {
                    let id = SubTableId { table, chunk };
                    let attempts = tried.entry(chunk).or_default();
                    if attempts.len() >= self.cfg.recovery.max_attempts as usize {
                        missing.push(chunk);
                        continue;
                    }
                    match self.pick_shard(&self.placement.owners(id), attempts, now) {
                        Some(shard) => {
                            attempts.push(shard);
                            groups.entry(shard).or_default().push(chunk);
                        }
                        None => missing.push(chunk),
                    }
                }
                for (shard, group) in groups {
                    let job = sub_query(&group);
                    match self.dispatch(&mut flights, shard, group.clone(), job, false, root) {
                        Ok(()) => {}
                        Err(e) if e.retry_after_ms().is_some() => {
                            // The shard's admission control rejected the
                            // sub-query. Not a fault: back off honoring
                            // the hint, then re-route the chunks (a
                            // later pass picks an untried replica) — if
                            // a retry token is available and we are not
                            // already shedding federation-wide.
                            self.overload_backoff(cancel, e.retry_after_ms().unwrap_or(0))?;
                            if self.may_reissue(shard) {
                                unassigned.extend(group);
                            } else {
                                missing.extend(group);
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
            }

            // Chunks an overloaded shard turned away wait in `unassigned`
            // for the next pass, even with nothing in flight.
            if flights.flying.is_empty() && unassigned.is_empty() {
                break;
            }

            // Sweep the outstanding flights without blocking, absorbing
            // whichever landed and hedging whichever went quiet. The
            // landing count is read first: a flight that lands after its
            // ticket was looked at has moved it, and the wait below
            // returns at once.
            let seen = flights.landing.count();
            let mut resolved: Vec<(usize, Result<QueryResult>)> = Vec::new();
            let mut hedges: Vec<(usize, Vec<ChunkId>)> = Vec::new();
            // Hedging only while every shard is in `Normal`: a hedge is
            // speculative extra load, the last thing a browned-out
            // federation needs. Checked before `hedged` is latched, so
            // hedging resumes for still-flying work once shards recover.
            let hedging_allowed = self.brownout_state().allows_hedging();
            for (i, f) in flights.flying.iter_mut().enumerate() {
                if let Some(result) = f.ticket.wait_timeout(Duration::ZERO) {
                    resolved.push((i, result));
                } else if hedging_allowed
                    && !f.hedged
                    && f.hedge_timer.as_ref().is_some_and(DeadlineBudget::expired)
                {
                    f.hedged = true;
                    let unfilled: Vec<ChunkId> = f
                        .chunks
                        .iter()
                        .filter(|c| !gathered.has(c))
                        .copied()
                        .collect();
                    if !unfilled.is_empty() {
                        // The flight's age at hedge time is the latency
                        // the hedge mechanism is absorbing.
                        let overhead = f.age.elapsed_secs();
                        self.obs.metrics.record_latency(names::LAT_HEDGE, overhead);
                        tb.phases
                            .push((names::lat_phase(names::LAT_HEDGE).into(), overhead));
                        hedges.push((f.shard, unfilled));
                    }
                }
            }

            // Issue hedges: same chunks, a different (untried) replica.
            // The hedge target counts as an attempt, so the per-chunk cap
            // covers hedges and failovers uniformly — and each hedge
            // event passes the re-issue gate against the slow shard (a dry
            // bucket means the slow flight just keeps waiting).
            for (slow_shard, unfilled) in hedges {
                if !self.may_reissue(slow_shard) {
                    continue;
                }
                let now = self.tick();
                let mut groups: HashMap<usize, Vec<ChunkId>> = HashMap::new();
                for chunk in unfilled {
                    let id = SubTableId { table, chunk };
                    let attempts = tried.entry(chunk).or_default();
                    if attempts.len() >= self.cfg.recovery.max_attempts as usize {
                        continue;
                    }
                    if let Some(shard) = self.pick_shard(&self.placement.owners(id), attempts, now)
                    {
                        attempts.push(shard);
                        groups.entry(shard).or_default().push(chunk);
                    }
                }
                for (shard, group) in groups {
                    let job = sub_query(&group);
                    match self.dispatch(&mut flights, shard, group, job, true, root) {
                        Ok(()) => self.bump(names::FED_HEDGES, 1),
                        // A hedge refused by admission control is simply
                        // dropped — the original flight still covers the
                        // chunks, so nothing is lost but the speculation.
                        Err(e) if e.retry_after_ms().is_some() => {}
                        Err(e) => return Err(e),
                    }
                }
            }

            // Handle resolutions (descending index so removals are safe).
            let landed = !resolved.is_empty();
            for (i, outcome) in resolved.into_iter().rev() {
                let flight = flights.flying.remove(i);
                // The resolver published the sub-query's trace before its
                // result became observable, so this is always present.
                tb.children.extend(flight.ticket.trace());
                // A response that fails re-verification is a failed shard.
                let outcome =
                    outcome.and_then(|result| self.absorb(&flight, result, &mut gathered));
                match outcome {
                    Ok(()) => {}
                    Err(e) if e.is_cancellation() && cancel.check().is_err() => return Err(e),
                    Err(_) => self.fail_over(&flight, &gathered, &mut unassigned, &mut missing),
                }
            }

            // Cancel losers: a flight whose every chunk someone else
            // already filled has nothing left to contribute.
            flights.flying.retain(|f| {
                let obsolete = f.chunks.iter().all(|c| gathered.has(c));
                if obsolete {
                    f.ticket.cancel();
                }
                !obsolete
            });

            // Nothing landed: sleep until a flight does, at most one
            // `POLL_SLICE`, then sweep again.
            if !landed && unassigned.is_empty() {
                flights.landing.wait_past(seen, POLL_SLICE, cancel);
            }
        }

        missing.sort();
        missing.dedup();
        if !missing.is_empty() {
            self.bump(names::FED_PARTIAL, 1);
            self.bump(names::FED_MISSING_CHUNKS, missing.len() as u64);
            if self.cfg.strict {
                return Err(Error::Unavailable {
                    missing_chunks: missing.len(),
                    detail: format!(
                        "table `{}` chunks {:?} lost all replicas",
                        md.table_name(table)?,
                        missing.iter().map(|c| c.0).collect::<Vec<_>>()
                    ),
                });
            }
        }

        // Merge. Chunk order follows the R-tree's chunk list, which
        // ascends — the order a single engine scans in — so a complete
        // federated scan is byte-identical to the oracle. Each winning
        // run moves once: into the one result vector, or into its chunk's
        // partition of the re-aggregation.
        let merge_sw = Stopwatch::start();
        let columns = &query.columns;
        let has_agg = query
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate(..)));
        let rowset: RowSet = if has_agg || !query.group_by.is_empty() {
            let mut parts: Vec<Vec<Record>> = Vec::new();
            gathered.drain_runs(&chunks, |run| parts.push(run.collect()));
            merge_aggregate(columns, parts, &query.select, &query.group_by)?
        } else {
            let mut rows = Vec::with_capacity(gathered.rows());
            gathered.drain_runs(&chunks, |run| rows.extend(run));
            project(columns, rows, &query.select)?
        };
        let rowset = order_and_limit(rowset, &query.order_by, query.limit)?;
        let result = QueryResult {
            columns: rowset.columns,
            rows: rowset.rows,
            ..QueryResult::empty()
        };
        let merge_secs = merge_sw.elapsed_secs();
        self.obs
            .metrics
            .record_latency(names::LAT_MERGE, merge_secs);
        tb.phases
            .push((names::lat_phase(names::LAT_MERGE).into(), merge_secs));
        if missing.is_empty() {
            Ok(FederatedResponse::Complete(result))
        } else {
            let total = chunks.len().max(1);
            Ok(FederatedResponse::Partial(PartialResult {
                completeness: (total - missing.len()) as f64 / total as f64,
                missing_chunks: missing,
                result,
            }))
        }
    }

    /// Submit `job`, the chunk-scan [`Prepared`] over `chunks`, to one
    /// shard, carrying the root query's trace ID and one hop's slice of
    /// the root's deadline budget; the shard pulses the flights' landing
    /// signal once the answer is published.
    fn dispatch(
        &self,
        flights: &mut Flights,
        shard: usize,
        mut chunks: Vec<ChunkId>,
        job: Prepared,
        is_hedge: bool,
        root: &Request,
    ) -> Result<()> {
        self.bump(names::FED_SUBQUERIES, 1);
        let landing = &flights.landing;
        let ticket = self.shards[shard].submit_signalled(job, self.hop(root), landing)?;
        // As the shard's scan reads them, so in the order of its runs: a
        // chunk two failed flights both returned to the pool is asked
        // for once.
        chunks.sort_unstable();
        chunks.dedup();
        flights.flying.push(Flight {
            shard,
            chunks,
            ticket,
            hedge_timer: self.cfg.hedge_after.map(DeadlineBudget::root),
            hedged: false,
            is_hedge,
            age: Stopwatch::start(),
        });
        Ok(())
    }

    /// A flight failed (its shard errored, or its response failed
    /// re-verification): feed the breaker, then send the chunks nobody
    /// else filled back to `unassigned` — the next dispatch pass re-routes
    /// them to a replica we have not tried — if the failed shard's retry
    /// budget grants it and the federation is not shedding. Otherwise
    /// degrade: the chunks go `missing` and the caller gets an exact
    /// PartialResult instead of amplified load.
    fn fail_over(
        &self,
        flight: &Flight,
        gathered: &Gathered,
        unassigned: &mut Vec<ChunkId>,
        missing: &mut Vec<ChunkId>,
    ) {
        self.shard_failed(flight.shard, self.tick());
        let unfilled: Vec<ChunkId> = flight
            .chunks
            .iter()
            .filter(|c| !gathered.has(c))
            .copied()
            .collect();
        if unfilled.is_empty() {
            return;
        }
        if self.may_reissue(flight.shard) {
            self.bump(names::FED_FAILOVERS, 1);
            unassigned.extend(unfilled);
        } else {
            missing.extend(unfilled);
        }
    }

    /// Verify one successful sub-response and keep it whole in
    /// `gathered`, the moment it lands. First responder wins per chunk
    /// (dedup for hedged duplicates). The response is discarded wholesale
    /// with a typed `Error::Integrity`, which the caller handles as a
    /// failed shard — its chunks stay unfilled and re-route — unless its
    /// runs name exactly the flight's chunks, ascending, with lengths
    /// that sum to its rows, and its seal matches: the shard wrote it
    /// from its batches, and the router recomputes it from the rows it
    /// received ([`rows_checksum`]) and the runs ([`seal_runs`]).
    fn absorb(&self, flight: &Flight, result: QueryResult, gathered: &mut Gathered) -> Result<()> {
        let runs = result.chunk_runs.unwrap_or_default();
        let covers = runs.iter().map(|r| r.0).eq(flight.chunks.iter().copied())
            && runs.iter().map(|r| r.1).sum::<usize>() == result.rows.len();
        if !covers {
            return Err(Error::Integrity(format!(
                "sub-response from shard {} does not cut its rows into one run per chunk asked for",
                flight.shard
            )));
        }
        if result.checksum != Some(seal_runs(rows_checksum(&result.rows), &runs)) {
            return Err(Error::Integrity(format!(
                "sub-response from shard {} does not match its seal",
                flight.shard
            )));
        }
        self.shard_ok(flight.shard);
        let won = gathered.keep(result.rows, &runs);
        if won && flight.is_hedge {
            self.bump(names::FED_HEDGE_WINS, 1);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_cluster::{FaultPlan, ShardDeathSpec, ShardSlowStormSpec};
    use orv_obs::EventLog;
    use orv_types::Value;

    fn deployment() -> Deployment {
        let d = Deployment::in_memory(2);
        for (name, scalar, seed) in [("t1", "oilp", 1u64), ("t2", "wp", 2)] {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([8, 8, 1])
                    .partition([2, 2, 1])
                    .scalar_attrs(&[scalar])
                    .seed(seed)
                    .build(),
                &d,
            )
            .unwrap();
        }
        d
    }

    fn oracle(sql: &str) -> QueryResult {
        QueryEngine::new(deployment()).execute(sql).unwrap()
    }

    #[test]
    fn federated_scan_and_aggregate_match_single_engine() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        for sql in [
            "SELECT * FROM t1",
            "SELECT * FROM t1 WHERE x IN [0, 3]",
            "SELECT COUNT(*) FROM t1",
            "SELECT z, COUNT(*), MIN(oilp), MAX(oilp) FROM t1 GROUP BY z",
            "SELECT oilp FROM t1 WHERE y IN [2, 5] ORDER BY oilp DESC LIMIT 7",
        ] {
            let got = fed.execute(sql).unwrap();
            assert!(got.is_complete(), "{sql} should be complete");
            let want = oracle(sql);
            assert_eq!(got.result().columns, want.columns, "{sql}");
            assert_eq!(got.result().rows, want.rows, "{sql}");
        }
    }

    #[test]
    fn altered_sub_response_is_discarded_and_rerouted() {
        let obs = Obs::enabled();
        let fed = FederatedService::with_instruments(
            deployment(),
            FederationConfig::default(),
            obs.clone(),
            None,
        )
        .unwrap();
        let counter = |name: &str| {
            let snap = obs.metrics.snapshot();
            snap.counters.get(name).copied().unwrap_or(0)
        };
        let md = fed.deployment.metadata();
        let table = md.table_id("t1").unwrap();
        let chunks: Vec<ChunkId> = md
            .all_chunks(table)
            .unwrap()
            .into_iter()
            .filter(|&chunk| fed.placement.primary(SubTableId { table, chunk }) == 0)
            .collect();
        assert!(
            !chunks.is_empty(),
            "placement seed must give shard 0 chunks"
        );
        // A real shard-sealed sub-response, as the router receives it.
        let sealed = || {
            let mut flights = Flights::default();
            let job = Prepared::chunk_scan(table, None, chunks.clone(), 0.0);
            let root = Request::default();
            fed.dispatch(&mut flights, 0, chunks.clone(), job, false, &root)
                .unwrap();
            let flight = flights.flying.pop().unwrap();
            let result = flight
                .ticket
                .wait_cancellable(&CancelToken::none())
                .unwrap();
            assert_eq!(flights.landing.count(), 1, "the shard pulses the landing");
            let runs = result.chunk_runs.as_deref().unwrap();
            assert!(
                runs.len() >= 2 && runs[0].1 > 0,
                "two runs, the first not empty"
            );
            let rows_crc = rows_checksum(&result.rows);
            assert_eq!(result.checksum, Some(seal_runs(rows_crc, runs)));
            (flight, result)
        };
        fn alter_value(r: &mut QueryResult) {
            let mut values = r.rows[0].values().to_vec();
            values[0] = match values[0] {
                Value::I32(x) => Value::I32(x ^ 1),
                other => panic!("t1's first column is an i32 coordinate, got {other:?}"),
            };
            r.rows[0] = Record::new(values);
        }
        fn runs(r: &mut QueryResult) -> &mut Vec<(ChunkId, usize)> {
            r.chunk_runs.as_mut().unwrap()
        }
        type Alter = fn(&mut QueryResult);
        let alterations: [(&str, Alter); 5] = [
            ("row value", alter_value),
            ("checksum", |r| r.checksum = r.checksum.map(|c| c ^ 1)),
            ("missing checksum", |r| r.checksum = None),
            // Its chunk would be neither filled nor missing: a
            // `Complete` answer without its rows.
            ("run dropped", |r| {
                runs(r).pop();
            }),
            // One row moved from the first chunk to the second.
            ("run lengths shifted", |r| {
                runs(r)[0].1 -= 1;
                runs(r)[1].1 += 1;
            }),
        ];
        for (what, alter) in alterations {
            let (flight, mut result) = sealed();
            alter(&mut result);
            let (errors, failovers) = (
                counter(names::FED_SHARD_ERRORS),
                counter(names::FED_FAILOVERS),
            );
            let mut gathered = Gathered::default();
            let (mut unassigned, mut missing) = (Vec::new(), Vec::new());
            // The two steps the routing loop takes on a resolved flight.
            let err = fed.absorb(&flight, result, &mut gathered).unwrap_err();
            fed.fail_over(&flight, &gathered, &mut unassigned, &mut missing);
            assert!(matches!(err, Error::Integrity(_)), "{what}: {err}");
            assert!(gathered.filled.is_empty(), "{what}: merged");
            assert_eq!(counter(names::FED_SHARD_ERRORS), errors + 1, "{what}");
            assert_eq!(counter(names::FED_FAILOVERS), failovers + 1, "{what}");
            assert_eq!(unassigned, chunks, "{what}: every chunk re-routes");
            assert!(missing.is_empty(), "{what}");
        }
        // The same response untouched is merged, chunk by chunk.
        let (flight, result) = sealed();
        let (want, errors) = (result.rows.clone(), counter(names::FED_SHARD_ERRORS));
        let mut gathered = Gathered::default();
        fed.absorb(&flight, result, &mut gathered).unwrap();
        assert_eq!(gathered.filled.len(), chunks.len());
        assert_eq!(gathered.rows(), want.len());
        assert_eq!(counter(names::FED_SHARD_ERRORS), errors);
        let mut merged = Vec::new();
        gathered.drain_runs(&chunks, |run| merged.extend(run));
        assert_eq!(merged, want);
    }

    #[test]
    fn views_broadcast_and_serve_from_any_shard() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        fed.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        for i in 0..fed.num_shards() {
            let catalog = fed.shard(i).engine().catalog();
            assert!(catalog.get("v1").is_some(), "shard {i}");
        }
        let got = fed.execute("SELECT COUNT(*) FROM v1").unwrap();
        let single = QueryEngine::new(deployment());
        single
            .execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .unwrap();
        let want = single.execute("SELECT COUNT(*) FROM v1").unwrap();
        assert_eq!(got.into_result().rows, want.rows);
    }

    #[test]
    fn view_read_bound_once_is_served_with_shard_zero_dead() {
        // The router binds on shard 0's *engine* — a function call on the
        // caller's thread — and ships the `Prepared`; shard 0's *service*
        // being dead only costs a failover.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                // The CREATE VIEW broadcast is shard 0's first job.
                after_subqueries: 1,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let fed = FederatedService::with_instruments(
            deployment(),
            FederationConfig::default(),
            obs.clone(),
            Some(faults),
        )
        .unwrap();
        let view = "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)";
        fed.execute(view).unwrap();
        let read = "SELECT x, COUNT(*) FROM v1 WHERE y >= 2 GROUP BY x ORDER BY x";
        let got = fed.execute(read).unwrap();
        assert!(got.is_complete());
        let single = QueryEngine::new(deployment());
        single.execute(view).unwrap();
        assert_eq!(got.result().rows, single.execute(read).unwrap().rows);
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters.get(names::FED_FAILOVERS).copied() >= Some(1),
            "shard 0 is first in line and dead: {:?}",
            snap.counters
        );

        // What traces print is what they always printed: the statement
        // for SQL jobs, table id and chunk count for chunk scans.
        fed.execute("SELECT * FROM t1 WHERE x IN [0, 3]").unwrap();
        let traces = fed.recorder().slowest();
        let root = |sql: &str| {
            traces
                .iter()
                .find(|t| t.detail == sql)
                .unwrap_or_else(|| panic!("no root trace for {sql}"))
        };
        assert!(root(view).children.iter().all(|c| c.detail == view));
        assert_eq!(root(view).children.len(), fed.num_shards());
        assert!(root(read).children.iter().all(|c| c.detail == read));
        let table = fed.deployment.metadata().table_id("t1").unwrap();
        let scans = &root("SELECT * FROM t1 WHERE x IN [0, 3]").children;
        assert!(!scans.is_empty());
        for child in scans {
            let n = child
                .detail
                .strip_prefix(&format!("scan table {} (", table.0))
                .and_then(|rest| rest.strip_suffix(" chunks)"))
                .unwrap_or_else(|| panic!("chunk-scan detail: {}", child.detail));
            assert!(n.parse::<usize>().unwrap() >= 1);
        }
    }

    #[test]
    fn shard_death_fails_over_without_changing_answers() {
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let fed = FederatedService::with_instruments(
            deployment(),
            FederationConfig::default(),
            obs.clone(),
            Some(faults),
        )
        .unwrap();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        assert!(got.is_complete(), "replication must mask one dead shard");
        assert_eq!(got.result().rows, oracle("SELECT * FROM t1").rows);
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters.get(names::FED_FAILOVERS).copied() >= Some(1),
            "dead primary must force at least one failover: {:?}",
            snap.counters
        );
    }

    #[test]
    fn all_replicas_dead_degrades_to_exact_partial() {
        // replication = 1: killing shard 0 makes its chunks unreachable.
        let obs = Obs::enabled();
        let cfg = FederationConfig {
            shards: 2,
            replication: 1,
            ..FederationConfig::default()
        };
        let placement = Placement::new(cfg.shards, cfg.replication, PLACEMENT_SEED).unwrap();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let d = deployment();
        let md = d.metadata();
        let table = md.table_id("t1").unwrap();
        let expected_missing: Vec<ChunkId> = md
            .all_chunks(table)
            .unwrap()
            .into_iter()
            .filter(|&chunk| placement.primary(SubTableId { table, chunk }) == 0)
            .collect();
        assert!(
            !expected_missing.is_empty(),
            "placement seed must give shard 0 some chunks"
        );
        let fed =
            FederatedService::with_instruments(d.clone(), cfg, obs.clone(), Some(faults)).unwrap();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        let FederatedResponse::Partial(partial) = got else {
            panic!("expected a partial result");
        };
        assert_eq!(partial.missing_chunks, expected_missing);
        let total = md.all_chunks(table).unwrap().len();
        let want = (total - expected_missing.len()) as f64 / total as f64;
        assert!((partial.completeness - want).abs() < 1e-12);
        assert!(partial.result.rows.len() < oracle("SELECT * FROM t1").rows.len());
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.counters.get(names::FED_PARTIAL).copied(),
            Some(1),
            "{:?}",
            snap.counters
        );
        assert_eq!(
            snap.counters.get(names::FED_MISSING_CHUNKS).copied(),
            Some(expected_missing.len() as u64)
        );
    }

    #[test]
    fn strict_mode_turns_partial_into_unavailable() {
        let cfg = FederationConfig {
            shards: 2,
            replication: 1,
            strict: true,
            ..FederationConfig::default()
        };
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, EventLog::disabled());
        let fed =
            FederatedService::with_instruments(deployment(), cfg, Obs::disabled(), Some(faults))
                .unwrap();
        let err = fed.execute("SELECT * FROM t1").unwrap_err();
        let Error::Unavailable { missing_chunks, .. } = err else {
            panic!("expected Unavailable, got {err}");
        };
        assert!(missing_chunks > 0);
    }

    #[test]
    fn hedged_request_beats_a_slow_shard() {
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_slow_storms: vec![
                // Every shard's first sub-query stalls well past the hedge
                // delay, so whichever shards serve this query go quiet and
                // force hedges.
                ShardSlowStormSpec {
                    shard: 0,
                    after_subqueries: 0,
                    delay_ms: 1_500,
                    storm_len: 1,
                },
                ShardSlowStormSpec {
                    shard: 1,
                    after_subqueries: 0,
                    delay_ms: 1_500,
                    storm_len: 1,
                },
                ShardSlowStormSpec {
                    shard: 2,
                    after_subqueries: 0,
                    delay_ms: 1_500,
                    storm_len: 1,
                },
            ],
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let cfg = FederationConfig {
            hedge_after: Some(Duration::from_millis(40)),
            ..FederationConfig::default()
        };
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(faults))
            .unwrap();
        let got = fed.execute("SELECT COUNT(*) FROM t1").unwrap();
        assert!(got.is_complete());
        assert_eq!(got.result().rows, oracle("SELECT COUNT(*) FROM t1").rows);
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters.get(names::FED_HEDGES).copied() >= Some(1),
            "a stalled shard must trigger hedging: {:?}",
            snap.counters
        );
    }

    #[test]
    fn flights_are_absorbed_as_they_land_while_a_stalled_shard_scans() {
        // Shard 0's first sub-query stalls; hedging is off, so nothing
        // else can serve its chunks. The router must verify and absorb
        // the other shards' answers as they land, not after the slowest.
        let plan = FaultPlan {
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: 0,
                after_subqueries: 0,
                delay_ms: 300,
                storm_len: 1,
            }],
            ..FaultPlan::none()
        };
        let obs = Obs::enabled();
        let faults = FaultInjector::new(plan, obs.events.clone());
        let cfg = FederationConfig {
            hedge_after: None,
            ..FederationConfig::default()
        };
        let fed = FederatedService::with_instruments(deployment(), cfg, obs, Some(faults)).unwrap();
        let sql = "SELECT * FROM t1";
        let got = fed.execute(sql).unwrap();
        assert!(got.is_complete());
        assert_eq!(got.result().rows, oracle(sql).rows, "byte-identical");
        let traces = fed.recorder().slowest();
        let root = traces.iter().find(|t| t.detail == sql).unwrap();
        // The root lists its sub-queries in the order it absorbed them.
        let order: Vec<(&str, f64)> = root
            .children
            .iter()
            .map(|c| (c.group.as_str(), c.total_secs))
            .collect();
        assert_eq!(order.len(), fed.num_shards(), "{order:?}");
        let (stalled, fast) = order.split_last().unwrap();
        assert_eq!(stalled.0, "fed0", "the stalled shard lands last: {order:?}");
        assert!(stalled.1 >= 0.3, "{order:?}");
        assert!(fast.iter().all(|(group, _)| *group != "fed0"), "{order:?}");
    }

    #[test]
    fn chunks_every_shard_turned_away_are_missing_not_dropped() {
        // No worker drains a queue of one, and each shard's is full: every
        // dispatch is rejected as overloaded, with nothing left in flight.
        let mut cfg = FederationConfig::default();
        cfg.service.workers = 0;
        cfg.service.queue_cap = 1;
        let fed = FederatedService::new(deployment(), cfg).unwrap();
        let _queued: Vec<QueryTicket> = (0..fed.num_shards())
            .map(|i| fed.shard(i).submit("SELECT COUNT(*) FROM t1").unwrap())
            .collect();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        let FederatedResponse::Partial(partial) = got else {
            panic!("every chunk was turned away, yet the answer is complete");
        };
        let md = fed.deployment.metadata();
        let table = md.table_id("t1").unwrap();
        assert_eq!(partial.missing_chunks, md.all_chunks(table).unwrap());
        assert!(partial.result.rows.is_empty());
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_half_open_recovers() {
        let h = ShardHealth::new();
        assert!(h.allows(0));
        assert!(!h.record_failure(3, 8, 0));
        assert!(!h.record_failure(3, 8, 1));
        assert!(h.record_failure(3, 8, 2), "third consecutive failure trips");
        assert!(!h.allows(5), "open until tick 10");
        assert!(h.allows(10), "cooldown elapsed: half-open probe admitted");
        assert!(!h.allows(10), "only one probe while half-open");
        assert!(h.record_failure(3, 8, 10), "failed probe re-opens");
        assert!(!h.allows(11));
        assert!(h.allows(30));
        h.record_success();
        assert!(h.allows(31), "closed again after a successful probe");
    }

    #[test]
    fn zero_trip_after_is_a_config_error() {
        let err = FederatedService::new(
            deployment(),
            FederationConfig {
                trip_after: 0,
                ..FederationConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    #[test]
    fn hop_tokens_shrink_the_deadline_budget_monotonically() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        let root = CancelToken::with_deadline(Duration::from_secs(10));
        let hop1 = fed.hop(&root.clone().into()).cancel;
        let hop2 = fed.hop(&hop1.clone().into()).cancel;
        let d0 = DeadlineBudget::from_token(&root).unwrap().hard_deadline();
        let d1 = DeadlineBudget::from_token(&hop1).unwrap().hard_deadline();
        let d2 = DeadlineBudget::from_token(&hop2).unwrap().hard_deadline();
        assert!(d1 < d0, "one hop must subtract the hop margin");
        assert!(d2 < d1, "budgets shrink monotonically across hops");
        assert_eq!(d0 - d1, HOP_MARGIN);
        // A root without a deadline fans out plain cancellable tokens —
        // no budget is invented where none was requested.
        let free = fed.hop(&Request::default()).cancel;
        assert!(DeadlineBudget::from_token(&free).is_none());
        assert!(free.check().is_ok());
    }

    #[test]
    fn dry_retry_budget_degrades_to_partial_instead_of_reissuing() {
        // Same dead-primary setup that normally fails over — but with a
        // zero-capacity retry budget every re-issue is denied, so the
        // dead shard's chunks degrade to an exact PartialResult rather
        // than re-routing.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let cfg = FederationConfig {
            retry_budget: 0,
            ..FederationConfig::default()
        };
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(faults))
            .unwrap();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        let FederatedResponse::Partial(partial) = got else {
            panic!("denied failover must degrade to a partial result");
        };
        assert!(!partial.missing_chunks.is_empty());
        assert!(partial.completeness < 1.0);
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters.get(names::OVERLOAD_RETRY_DENIED).copied() >= Some(1),
            "{:?}",
            snap.counters
        );
        assert_eq!(
            snap.counters.get(names::FED_FAILOVERS).copied(),
            None,
            "no failover may be issued on a dry budget: {:?}",
            snap.counters
        );
        assert_eq!(fed.retry_budget(0).granted(), 0);
    }

    #[test]
    fn shedding_federation_denies_reissue_without_drawing_a_token() {
        // The gate's short-circuit order is part of its contract: under
        // `Shed` the brownout policy says no *before* the retry budget is
        // consulted, so a failed flight neither draws nor is counted as a
        // denied draw. (Same dead-primary, dry-budget setup as above,
        // where in `Normal` the denial is counted.)
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let mut cfg = FederationConfig {
            retry_budget: 0,
            ..FederationConfig::default()
        };
        // A cooldown no query can outlast: the state set below holds.
        cfg.service.overload.cooldown_ticks = 1_000;
        let queue_cap = cfg.service.queue_cap;
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(faults))
            .unwrap();
        let ctl = fed.shard(0).brownout();
        ctl.observe(queue_cap);
        while ctl.state() != BrownoutState::Shed {
            ctl.observe(queue_cap);
        }
        assert_eq!(fed.brownout_state(), BrownoutState::Shed);

        let got = fed.execute("SELECT * FROM t1").unwrap();
        let FederatedResponse::Partial(partial) = got else {
            panic!("a shedding federation must degrade, not fail over");
        };
        assert!(!partial.missing_chunks.is_empty());
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counters.get(names::FED_SHARD_ERRORS).copied() >= Some(1),
            "the dead shard's flight must have failed: {:?}",
            snap.counters
        );
        for name in [
            names::OVERLOAD_RETRY_DENIED,
            names::OVERLOAD_RETRY_GRANTED,
            names::FED_FAILOVERS,
        ] {
            assert_eq!(snap.counters.get(name).copied(), None, "{name}");
        }
        for s in 0..fed.num_shards() {
            assert_eq!(fed.retry_budget(s).granted(), 0);
        }
    }

    #[test]
    fn failovers_draw_retry_tokens_and_successes_earn_them_back() {
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let fed = FederatedService::with_instruments(
            deployment(),
            FederationConfig::default(),
            obs.clone(),
            Some(faults),
        )
        .unwrap();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        assert!(got.is_complete(), "budgeted failover still masks the death");
        let granted: u64 = (0..fed.num_shards())
            .map(|s| fed.retry_budget(s).granted())
            .sum();
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.counters.get(names::FED_FAILOVERS).copied(),
            Some(granted),
            "every failover must be paid for by exactly one retry grant"
        );
        let subqueries = snap.counters.get(names::FED_SUBQUERIES).copied().unwrap();
        for s in 0..fed.num_shards() {
            let b = fed.retry_budget(s);
            assert!(
                b.granted() <= b.max_grants(subqueries),
                "shard {s} grants exceed its budget bound"
            );
        }
        // Completed sub-queries credited the living shards' buckets.
        assert!(
            snap.gauges.contains_key(names::OVERLOAD_RETRY_TOKENS),
            "{:?}",
            snap.gauges
        );
    }

    #[test]
    fn idle_federation_reports_normal_brownout_state() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        assert_eq!(fed.brownout_state(), BrownoutState::Normal);
    }

    #[test]
    fn count_matches_oracle_exactly_and_sum_within_epsilon() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        let count = fed.execute("SELECT COUNT(*) FROM t1").unwrap();
        assert_eq!(count.result().rows[0].get(0), Value::I64(64));
        let sum = fed.execute("SELECT SUM(oilp) FROM t1").unwrap();
        let want = oracle("SELECT SUM(oilp) FROM t1").rows[0].get(0).as_f64();
        let got = sum.result().rows[0].get(0).as_f64();
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "re-aggregated SUM drifted: {got} vs {want}"
        );
    }
}
