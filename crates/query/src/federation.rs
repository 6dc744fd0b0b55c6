//! Federated query serving with shard-level fault tolerance.
//!
//! The paper's services are singletons: one Query Processing Service
//! fronts the whole dataset. This module shards that front-end the way a
//! production deployment would: `N` [`QueryService`] instances each own a
//! slice of the chunk catalog under **replicated placement** (every chunk
//! lives on `R >= 2` distinct shards, assigned by rendezvous hashing —
//! [`orv_metadata::Placement`]), and a [`FederatedService`] router binds
//! each statement once ([`QueryEngine::prepare`]) and routes on what it
//! bound to. Every shard serves the same engine — one catalog, one
//! Caching Service — so a shard is a serving queue with an index.
//!
//! Every statement crosses the federation through one flight loop, as
//! *pieces*, each with the shards that own it. A base-table scan
//! consults the MetaData Service's R-tree for the chunks its range
//! touches: each chunk is a piece its replicas own, flown to its owners
//! in chunk-scan `Prepared`s, and the partial results are merged
//! (re-aggregation for COUNT/SUM/AVG/MIN/MAX, in-order concatenation
//! with dedup-by-chunk for scans). A `CREATE VIEW`, a join or a view
//! read is one piece every shard owns, shipped whole — the same
//! [`Prepared`], cloned — and never hedged. Shards never see SQL text:
//! they queue and run what the router bound.
//!
//! Robustness machinery, all deterministic under seeded fault plans:
//!
//! - **Failover in passes**: a pass dispatches, then waits until each of
//!   its flights has landed or lost to a hedge; only then are its
//!   failures re-routed, in dispatch order, each unfilled piece to an
//!   owner not tried yet, bounded per piece by the default
//!   [`RecoveryPolicy::max_attempts`]. A shard fault is re-issued — a
//!   runtime fault, a sub-response that fails re-verification, a hop
//!   cancelled while the root is live; an error of the statement itself
//!   would recur on every shard, so it is returned as it is. There is no
//!   sleep before a failover.
//! - **Hedged requests**: when a sub-query stays unanswered past
//!   `hedge_after`, the router re-issues its chunks to another replica and
//!   takes the first checksum-verified answer, cancelling the loser.
//! - **Circuit breaker**: per shard, `trip_after` *consecutive* failures
//!   open the breaker for `cooldown_ticks` logical ticks (one tick per
//!   routing decision and per failed sub-query, not wall clock, so seeded
//!   replays see the same trips); one half-open probe then closes or
//!   re-opens it. An open breaker demotes a shard in replica preference —
//!   it never makes data unreachable while an untried replica remains.
//! - **Graceful degradation**: chunks no replica answered are reported in
//!   a typed [`PartialResult`] carrying the exact missing chunk set and a
//!   completeness fraction; `strict` mode turns the same situation into
//!   [`Error::Unavailable`], whose detail names apart the chunks that
//!   failed on every owner tried and those refused a re-issue. A whole
//!   statement has no part to return: one no shard answered is an
//!   [`Error::Unavailable`] in either mode, naming the shards tried,
//!   whether a re-issue was refused, and the last fault — unless the
//!   last shard's admission control turned it away, when it is that
//!   [`Error::Overloaded`], hint and all.
//! - **Deadline and cancel propagation**: every sub-query runs under a
//!   [`CancelToken::child`] of the root's token, so cancelling the root
//!   reaches every hop, and a root deadline reaches each hop one
//!   `HOP_MARGIN` earlier — it only ever shrinks across hops, leaving the
//!   router time to collect, merge and degrade after a child gives up.
//! - **Retry budgets**: every failover, hedge and overload re-issue
//!   draws a token from the failed/slow shard's bucket (integer
//!   milli-tokens, refilled only by successful completions), and only
//!   once the re-issue has a target. A dry bucket degrades to the partial
//!   path instead of amplifying the overload that caused the failure.
//! - **Overload backoff**: a shard rejecting with [`Error::Overloaded`]
//!   is *not* a fault — no breaker trip — but it is an attempt on that
//!   shard, re-routed with its pass's failures; the router backs off honoring
//!   the rejection's `retry_after_ms` hint (bounded) before the re-issue
//!   it is about to make, and never for one it will not.
//! - **Brownout awareness**: hedging is disabled while any shard's
//!   brownout controller has left `Normal`, and failover re-issue stops
//!   entirely under `Shed` — degraded answers over added load.
//!
//! One private `Governor` holds all of it: per shard the breaker and the
//! token bucket, on one logical tick, under one lock. The router asks it
//! three things — `route` (an untried owner under the attempt cap,
//! breaker-preferred), `reissue` (the brownout policy, then a target,
//! then one token) and `landed` (close or trip the breaker, earn
//! tokens) — from the flight loop's dispatch, hedge and failover steps
//! alike, for chunks and whole statements.
//!
//! Merging is exact for scans and COUNT/MIN/MAX; SUM/AVG re-aggregation
//! is deterministic for a fixed partitioning but may differ from the
//! single-pass value in the last floating-point bits (see
//! [`Accumulator::merge`](crate::agg::Accumulator::merge)).

use crate::ast::SelectItem;
use crate::engine::{
    is_runtime_fault, BoundSelect, Plan, Prepared, QueryEngine, QueryResult, Request, Source,
};
use crate::exec::{merge_aggregate, order_and_limit, project, rows_checksum, seal_runs, RowSet};
use crate::overload::BrownoutState;
use crate::service::{Landing, QueryService, QueryTicket, ServiceConfig};
use orv_bds::Deployment;
use orv_cluster::{CancelToken, FaultInjector, RecoveryPolicy};
use orv_metadata::Placement;
use orv_obs::{names, FlightRecorder, MetricsRegistry, Obs, SpanTimer, TraceOutcome, TracedQuery};
use orv_types::{BoundingBox, ChunkId, Error, Record, Result, SubTableId, TableId};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The longest the router sleeps between two sweeps of its flights while
/// none lands, so flight ages are checked against `hedge_after` at least
/// this often. Purely a caller-side wait quantum (like
/// [`QueryTicket::wait_timeout`]); it never steers execution.
const POLL_SLICE: Duration = Duration::from_millis(2);

fn relock<T>(r: std::result::Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Sizing and robustness knobs for a [`FederatedService`].
#[derive(Clone, Debug)]
pub struct FederationConfig {
    /// Number of shard services.
    pub shards: usize,
    /// Replicas per chunk (`1 <= replication <= shards`).
    pub replication: usize,
    /// Admission/pool sizing applied to every shard's [`QueryService`].
    pub service: ServiceConfig,
    /// Re-issue a scan's sub-query to another replica once it has been
    /// in flight this long (a whole statement is never hedged). `None`
    /// disables hedging.
    pub hedge_after: Option<Duration>,
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

/// Deadline slack subtracted per fan-out hop: a sub-query's deadline is
/// the root's moved this much earlier, so the router always has a margin
/// to collect/merge/degrade after the child's deadline.
const HOP_MARGIN: Duration = Duration::from_millis(25);

/// Milli-tokens (1/1000ths of a retry) each successful sub-query earns
/// back into its shard's retry bucket.
const RETRY_EARN_MILLI: u64 = 100;

/// The attempt cap per piece of work, a chunk or a whole statement: the
/// default [`RecoveryPolicy`]'s.
fn attempt_cap() -> usize {
    RecoveryPolicy::default().max_attempts as usize
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            shards: 3,
            replication: 2,
            service: ServiceConfig::default(),
            hedge_after: None,
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

/// Milli-tokens per whole retry token; one re-issue costs exactly this.
/// Integer milli-tokens keep fractional earn rates free of float drift.
const MILLI_PER_TOKEN: u64 = 1000;

/// One shard's circuit breaker, on the governor's logical tick.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Breaker {
    #[default]
    Closed,
    Open {
        until_tick: u64,
    },
    HalfOpen,
}

/// What the governor keeps per shard: its breaker, consecutive failures
/// since the last success, and its bucket's milli-tokens and draws.
#[derive(Clone, Debug, Default)]
struct ShardLedger {
    breaker: Breaker,
    failures: u32,
    milli: u64,
    granted: u64,
    denied: u64,
}

/// Every shard's ledger, and the logical tick: one per routing decision
/// and one per failed sub-query. Breaker cooldowns count these, not wall
/// time, so seeded replays trip identically.
struct Ledger {
    tick: u64,
    shards: Vec<ShardLedger>,
}

/// Who may serve one piece of work — a chunk's owners, or every shard for
/// a whole statement — and whom the router has sent it to already.
struct Attempts {
    owners: Vec<usize>,
    tried: Vec<usize>,
}

impl Attempts {
    /// The owners left under an attempt cap of `cap`: the routing rule,
    /// the one every route and every re-issue's target check applies.
    fn untried(&self, cap: usize) -> impl Iterator<Item = usize> + '_ {
        let open = self.tried.len() < cap;
        self.owners
            .iter()
            .copied()
            .filter(move |s| open && !self.tried.contains(s))
    }
}

/// The one answer to "may the router send this shard's work again, and
/// where to?": per shard a circuit breaker and a retry-token bucket, on
/// one logical tick, under one lock.
struct Governor {
    trip_after: u32,
    cooldown_ticks: u64,
    cap_milli: u64,
    /// Milli-tokens each successful sub-query earns back.
    earn_milli: u64,
    metrics: MetricsRegistry,
    ledger: Mutex<Ledger>,
}

impl Governor {
    /// Every breaker closed and every bucket full, per `cfg`.
    fn new(cfg: &FederationConfig, earn_milli: u64, metrics: MetricsRegistry) -> Self {
        let cap_milli = cfg.retry_budget.saturating_mul(MILLI_PER_TOKEN);
        let full = ShardLedger {
            milli: cap_milli,
            ..ShardLedger::default()
        };
        Governor {
            trip_after: cfg.trip_after.max(1),
            cooldown_ticks: cfg.cooldown_ticks,
            cap_milli,
            earn_milli,
            metrics,
            ledger: Mutex::new(Ledger {
                tick: 0,
                shards: vec![full; cfg.shards],
            }),
        }
    }

    /// Choose an untried owner under `cap` for each piece of work,
    /// preferring one whose breaker admits traffic, and group the work by
    /// target, ascending; work with no owner left comes back second. The
    /// breaker only demotes: while an untried owner remains, the work is
    /// routed. An `Open` breaker whose cooldown has elapsed turns
    /// `HalfOpen` and admits one probe. One tick.
    fn route<'a, K>(
        &self,
        work: impl IntoIterator<Item = (K, &'a Attempts)>,
        cap: usize,
    ) -> (BTreeMap<usize, Vec<K>>, Vec<K>) {
        let mut ledger = relock(self.ledger.lock());
        let now = ledger.tick;
        ledger.tick += 1;
        let admits = |s: &mut ShardLedger| match s.breaker {
            Breaker::Closed => true,
            Breaker::Open { until_tick } if now >= until_tick => {
                s.breaker = Breaker::HalfOpen;
                true
            }
            Breaker::Open { .. } | Breaker::HalfOpen => false,
        };
        let (mut groups, mut lost) = (BTreeMap::<usize, Vec<K>>::new(), Vec::new());
        for (k, owners) in work {
            let pick = owners
                .untried(cap)
                .find(|&s| admits(&mut ledger.shards[s]))
                .or_else(|| owners.untried(cap).next());
            match pick {
                Some(s) => groups.entry(s).or_default().push(k),
                None => lost.push(k),
            }
        }
        (groups, lost)
    }

    /// May `shard`'s work be sent again, and where? The brownout policy
    /// answers first — a hedge only in `Normal`, no re-issue at all in
    /// `Shed` — then `route` must find the work a target, and only then is
    /// one token drawn from `shard`'s bucket. `Some` is the route paid for.
    fn reissue<T>(
        &self,
        shard: usize,
        hedge: bool,
        state: BrownoutState,
        route: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        if state == BrownoutState::Shed || (hedge && state != BrownoutState::Normal) {
            return None;
        }
        let target = route()?;
        let mut ledger = relock(self.ledger.lock());
        let s = &mut ledger.shards[shard];
        let granted = s.milli >= MILLI_PER_TOKEN;
        if granted {
            s.milli -= MILLI_PER_TOKEN;
            s.granted += 1;
        } else {
            s.denied += 1;
        }
        self.publish(ledger);
        let counter = if granted {
            names::OVERLOAD_RETRY_GRANTED
        } else {
            names::OVERLOAD_RETRY_DENIED
        };
        self.metrics.counter(counter).add(1);
        granted.then_some(target)
    }

    /// A sub-query to `shard` came back. A success closes the breaker
    /// and earns the bucket `earn_milli`, up to its capacity. A failure is
    /// one tick and one `fed/shard_errors`; the `trip_after`-th in a row,
    /// or a failed half-open probe, opens the breaker for
    /// `cooldown_ticks` (`fed/breaker_trips`).
    fn landed(&self, shard: usize, ok: bool) {
        let mut ledger = relock(self.ledger.lock());
        let now = ledger.tick;
        let s = &mut ledger.shards[shard];
        if ok {
            s.breaker = Breaker::Closed;
            s.failures = 0;
            s.milli = s.milli.saturating_add(self.earn_milli).min(self.cap_milli);
            return self.publish(ledger);
        }
        s.failures = s.failures.saturating_add(1);
        let trip = match s.breaker {
            Breaker::HalfOpen => true,
            Breaker::Closed => s.failures >= self.trip_after,
            Breaker::Open { .. } => false,
        };
        if trip {
            s.breaker = Breaker::Open {
                until_tick: now.saturating_add(self.cooldown_ticks),
            };
        }
        ledger.tick += 1;
        drop(ledger);
        self.metrics.counter(names::FED_SHARD_ERRORS).add(1);
        if trip {
            self.metrics.counter(names::FED_TRIPS).add(1);
        }
    }

    /// Release `ledger` and set the `overload/retry_tokens` gauge to the
    /// milli-tokens over every bucket.
    fn publish(&self, ledger: MutexGuard<'_, Ledger>) {
        let tokens = ledger.shards.iter().map(|s| s.milli).sum();
        drop(ledger);
        self.metrics.gauge(names::OVERLOAD_RETRY_TOKENS).set(tokens);
    }

    /// `shard`'s grants so far, with the bound they are held to.
    fn grants(&self, shard: usize) -> RetryGrants {
        RetryGrants {
            granted: relock(self.ledger.lock()).shards[shard].granted,
            cap_milli: self.cap_milli,
            earn_milli: self.earn_milli,
        }
    }
}

/// One shard's retry grants, as [`FederatedService::retry_budget`]
/// reads them from the router's governor.
#[derive(Clone, Copy, Debug)]
pub struct RetryGrants {
    granted: u64,
    cap_milli: u64,
    earn_milli: u64,
}

impl RetryGrants {
    /// Re-issues this shard's bucket has paid for.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// The most grants `successes` completions can fund: the capacity
    /// plus what the successes earned. A zero-capacity bucket never
    /// grants, because refills saturate at the capacity.
    pub fn max_grants(&self, successes: u64) -> u64 {
        if self.cap_milli == 0 {
            return 0;
        }
        (self.cap_milli + successes.saturating_mul(self.earn_milli)) / MILLI_PER_TOKEN
    }
}

/// One in-flight sub-query: some pieces of a statement, dispatched to one
/// shard.
struct Flight {
    shard: usize,
    /// The pieces it carries, ascending.
    pieces: Vec<usize>,
    /// Its place in dispatch order, the order a pass's failures re-route in.
    seq: usize,
    ticket: QueryTicket,
    /// This flight already spawned its hedge (never hedge twice).
    hedged: bool,
    /// This flight *is* a hedge re-issue.
    is_hedge: bool,
    /// Time since dispatch: past `hedge_after` the flight is hedged, and
    /// its elapsed value then is the latency the hedge mechanism absorbed
    /// (`lat/hedge_overhead_secs`).
    age: SpanTimer,
}

/// A dispatch that admission turned away, or a flight that failed on a
/// shard fault: held back until every flight of its pass has landed.
struct Failed {
    seq: usize,
    shard: usize,
    pieces: Vec<usize>,
    error: Error,
}

/// The pieces of a statement no answer filled, by why, the last shard
/// fault, and the shards each piece was sent to — what a caller that
/// kept nothing returns.
#[derive(Default)]
struct Unanswered {
    /// Pieces whose every owner under the attempt cap was tried.
    lost: Vec<usize>,
    /// Pieces with an owner left whose re-issue was refused, by the
    /// failed shard's retry budget or by `Shed`.
    refused: Vec<usize>,
    fault: Option<Error>,
    /// Per piece, its owners and the shards it was tried on; empty when
    /// every piece was answered.
    attempts: Vec<Attempts>,
}

impl Unanswered {
    /// What a whole statement — one piece every shard owns — that no
    /// shard answered fails with: the last shard's [`Error::Overloaded`]
    /// if admission control turned it away there (its hint says when to
    /// retry), else [`Error::Unavailable`], naming the shards tried,
    /// whether a re-issue was refused, and the last fault.
    fn statement_error(self) -> Error {
        let fault = match self.fault {
            Some(e @ Error::Overloaded { .. }) => return e,
            Some(e) => e.to_string(),
            None => "none".to_string(),
        };
        let tried = self.attempts.first().map_or(&[][..], |a| &a.tried[..]);
        let refused = if self.refused.is_empty() {
            ""
        } else {
            ", then the retry budget or shedding refused a re-issue"
        };
        Error::Unavailable {
            missing_chunks: 0,
            detail: format!("statement failed on shards {tried:?}{refused}; last fault: {fault}"),
        }
    }
}

/// What a federated scan keeps of its sub-responses: each verified one
/// whole, as it landed, and for each chunk which of them filled it. The
/// first verified response to carry a chunk wins it (dedup for hedged
/// duplicates).
struct Gathered<'a> {
    /// The scan's chunks, ascending: piece `i` is `chunks[i]`.
    chunks: &'a [ChunkId],
    responses: Vec<Vec<Record>>,
    /// piece → (index into `responses`, the chunk's rows there).
    filled: Vec<Option<(usize, Range<usize>)>>,
}

impl<'a> Gathered<'a> {
    fn new(chunks: &'a [ChunkId]) -> Self {
        Gathered {
            chunks,
            responses: Vec::new(),
            filled: vec![None; chunks.len()],
        }
    }

    /// Rows over every filled chunk.
    fn rows(&self) -> usize {
        self.filled.iter().flatten().map(|(_, run)| run.len()).sum()
    }

    /// Verify `flight`'s answer and keep it whole, the moment it lands,
    /// filling every chunk it carries that no earlier response filled.
    /// It is discarded wholesale with a typed `Error::Integrity` — a
    /// shard fault, so its chunks re-route — unless its runs name
    /// exactly the flight's chunks, ascending, with lengths that sum to
    /// its rows, and its seal matches: the shard wrote it from its
    /// batches, and the router recomputes it from the rows it received
    /// ([`rows_checksum`]) and the runs ([`seal_runs`]).
    fn keep(&mut self, flight: &Flight, result: QueryResult) -> Result<()> {
        let runs = result.chunk_runs.unwrap_or_default();
        let asked = flight.pieces.iter().map(|&p| self.chunks[p]);
        let covers = runs.iter().map(|r| r.0).eq(asked)
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
        let (k, mut at, mut won) = (self.responses.len(), 0, false);
        for (&p, &(_, len)) in flight.pieces.iter().zip(&runs) {
            if self.filled[p].is_none() {
                self.filled[p] = Some((k, at..at + len));
                won = true;
            }
            at += len;
        }
        if won {
            self.responses.push(result.rows);
        }
        Ok(())
    }

    /// Hand `each` the rows of every filled chunk, in chunk order, moved
    /// out of the response that won it. Every response's runs ascend as
    /// the chunks do, so each response is read front to back once.
    fn drain_runs(self, mut each: impl FnMut(std::iter::Take<&mut std::vec::IntoIter<Record>>)) {
        let mut cursors: Vec<_> = self
            .responses
            .into_iter()
            .map(|rows| (0, rows.into_iter()))
            .collect();
        for (k, run) in self.filled.into_iter().flatten() {
            let (at, rows) = &mut cursors[k];
            // Rows in between belong to chunks another response won.
            if run.start > *at {
                rows.nth(run.start - *at - 1);
            }
            *at = run.end;
            each(rows.by_ref().take(run.len()));
        }
    }
}

/// One federated statement's flights, and what the router knows of its
/// pieces: who owns each and whom it went to, and which an answer has
/// filled. Every flight pulses `landing` when its answer is published.
/// Also a drop guard: whatever is still flying when the router unwinds
/// (parent cancellation, strict-mode error, normal return with losers
/// pending) gets cancelled so no shard worker burns time on an abandoned
/// query.
struct Flights {
    attempts: Vec<Attempts>,
    filled: Vec<bool>,
    flying: Vec<Flight>,
    /// Dispatches so far: the next one's `seq`.
    dispatched: usize,
    landing: Landing,
}

impl Flights {
    /// Piece `i` owned by `owners[i]`, tried nowhere and unfilled.
    fn new(owners: Vec<Vec<usize>>) -> Self {
        Flights {
            filled: vec![false; owners.len()],
            attempts: owners
                .into_iter()
                .map(|owners| Attempts {
                    owners,
                    tried: Vec::new(),
                })
                .collect(),
            flying: Vec::new(),
            dispatched: 0,
            landing: Landing::default(),
        }
    }
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
/// All shards serve one [`QueryEngine`] over one [`Deployment`] (shared
/// storage, MetaData Service, view catalog and Caching Service), which
/// the router also binds on; what is sharded is *serving ownership* —
/// which queue answers for which chunks — exactly the layer a fault
/// plan's shard-death/shard-slow specs target.
pub struct FederatedService {
    shards: Vec<QueryService>,
    placement: Placement,
    cfg: FederationConfig,
    engine: Arc<QueryEngine>,
    /// Every shard's breaker and retry bucket: where each route and each
    /// re-issue is decided.
    governor: Governor,
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

    /// Build the federation: one engine over `deployment`, wired to `obs`
    /// (spans, `fed/*` counters) and, when given, to one fault injector,
    /// behind `cfg.shards` shard services. The single seeded plan drives
    /// deaths and slowdowns across all shards, and its global budget
    /// caps them collectively.
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
        let governor = Governor::new(&cfg, RETRY_EARN_MILLI, obs.metrics.clone());
        let mut engine = QueryEngine::new(deployment).with_obs(obs);
        if let Some(f) = faults {
            engine = engine.with_faults(f);
        }
        let engine = Arc::new(engine);
        let shards = (0..cfg.shards)
            .map(|i| {
                let shard = Some((i, placement));
                QueryService::serve(Arc::clone(&engine), shard, cfg.service.clone())
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(FederatedService {
            shards,
            placement,
            cfg,
            engine,
            governor,
            recorder: FlightRecorder::new(8, 64),
        })
    }

    /// The router's flight recorder: the K slowest federated queries plus
    /// every failed/partial/cancelled one, each with its full cross-shard
    /// sub-query tree.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Number of shard services.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard's front-end (counters, brownout state, the shared engine).
    pub fn shard(&self, i: usize) -> &QueryService {
        &self.shards[i]
    }

    /// The observability handle all shards share.
    pub fn obs(&self) -> &Obs {
        self.engine.obs()
    }

    fn bump(&self, name: &str, n: u64) {
        self.obs().metrics.counter(name).add(n);
    }

    /// One shard's retry grants (chaos tests hold them to
    /// [`RetryGrants::max_grants`]).
    pub fn retry_budget(&self, shard: usize) -> RetryGrants {
        self.governor.grants(shard)
    }

    /// The federation's overload severity: the worst brownout state of
    /// any shard, which the governor reads before any re-issue.
    pub fn brownout_state(&self) -> BrownoutState {
        self.shards
            .iter()
            .map(|s| s.brownout().state())
            .max()
            .unwrap_or(BrownoutState::Normal)
    }

    /// The request a sub-query hop runs under: the root's trace as
    /// parent, and a child of the root's token — cancelled with the root,
    /// and due one [`HOP_MARGIN`] before it when the root has a deadline.
    fn hop(&self, root: &Request) -> Request {
        Request {
            cancel: root.cancel.child(HOP_MARGIN),
            parent: root.parent,
        }
    }

    /// Execute one statement under a fresh token with no deadline.
    pub fn execute(&self, sql: &str) -> Result<FederatedResponse> {
        self.execute_request(sql, &CancelToken::new().into())
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
        let mut trace = TracedQuery::begin(self.obs(), "fed", sql.to_string(), request.parent);
        let root = Request {
            cancel: request.cancel.clone(),
            parent: Some(trace.id()),
        };
        let out = self.route(sql, &root, &mut trace);
        let outcome = match &out {
            Ok(FederatedResponse::Complete(_)) => TraceOutcome::Ok,
            Ok(FederatedResponse::Partial(_)) => TraceOutcome::Partial,
            Err(e) if e.is_cancellation() => TraceOutcome::Cancelled,
            Err(_) => TraceOutcome::Error,
        };
        trace.end(outcome, &self.recorder);
        out
    }

    /// Bind `sql` once, on the engine every shard serves, and fly it:
    /// a base-table scan as chunk groups, anything else whole.
    fn route(
        &self,
        sql: &str,
        root: &Request,
        trace: &mut TracedQuery,
    ) -> Result<FederatedResponse> {
        root.cancel.check()?;
        let prepared = self.engine.prepare(sql)?;
        let Plan::Select(
            select @ BoundSelect {
                source: Source::Scan { table, range },
                ..
            },
        ) = &prepared.plan
        else {
            // View DDL, joins and view reads are not chunk-decomposable
            // at this layer (the join QES already distributes its own
            // work): the statement is one piece every shard owns. It is
            // never hedged — a `CREATE VIEW` run twice is not a `CREATE
            // VIEW` run once — and a view registers once, in the one
            // catalog.
            let mut answer = None;
            let every_shard = vec![(0..self.shards.len()).collect()];
            let job = |_: &[usize]| prepared.clone();
            let keep = |_: &Flight, result| {
                answer.get_or_insert(result);
                Ok(())
            };
            let unanswered = self.fly(every_shard, None, root, trace, job, keep)?;
            return match answer {
                Some(result) => Ok(FederatedResponse::Complete(result)),
                None => Err(unanswered.statement_error()),
            };
        };
        self.scan_federated(prepared.predicted_secs, select, *table, range, root, trace)
    }

    /// The one flight loop. Piece `i` of a statement goes to one of
    /// `owners[i]`, the pieces sent to one shard as the one [`Prepared`]
    /// `job` makes of them; every answer that lands goes to `keep`,
    /// which checks it and keeps it, or fails it as a shard fault.
    ///
    /// It runs in passes. A pass dispatches every unassigned piece to an
    /// untried owner, grouped by shard, then sweeps its flights: a landed
    /// answer is kept at once, a flight quiet past `hedge_after` is
    /// hedged, and a flight whose every piece another answer filled is
    /// cancelled as a loser. A shard fault — a runtime fault, an answer
    /// `keep` rejects, a hop that gave up while the root is live — and a
    /// dispatch admission turned away are held back until every flight
    /// of the pass has landed or been cancelled, then re-routed in
    /// dispatch order ([`FederatedService::fail_over`]). So which pieces
    /// a failover sends, which tokens it draws and which pieces end up
    /// unanswered follow the seed, not which flight landed first. Any
    /// other error is the statement's own — every shard serves the same
    /// engine, so it would recur — and is returned as it is.
    fn fly(
        &self,
        owners: Vec<Vec<usize>>,
        hedge_after: Option<Duration>,
        root: &Request,
        trace: &mut TracedQuery,
        job: impl Fn(&[usize]) -> Prepared,
        mut keep: impl FnMut(&Flight, QueryResult) -> Result<()>,
    ) -> Result<Unanswered> {
        let cancel = &root.cancel;
        let cap = attempt_cap();
        let hedge_after = hedge_after.map(|h| h.as_secs_f64());
        let mut flights = Flights::new(owners);
        let mut unassigned: Vec<usize> = (0..flights.filled.len()).collect();
        let mut failed: Vec<Failed> = Vec::new();
        let mut unanswered = Unanswered::default();

        loop {
            cancel.check()?;

            // The pass has landed: re-route what failed in it, then
            // dispatch the next (the first: every piece to its preferred
            // owner). Pieces with no untried owner left are lost.
            if flights.flying.is_empty() {
                failed.sort_by_key(|f| f.seq);
                for f in failed.drain(..) {
                    self.fail_over(f, &flights, &mut unassigned, &mut unanswered, cancel)?;
                }
                if unassigned.is_empty() {
                    if !(unanswered.lost.is_empty() && unanswered.refused.is_empty()) {
                        unanswered.attempts = std::mem::take(&mut flights.attempts);
                    }
                    return Ok(unanswered);
                }
                unassigned.sort_unstable();
                let work = unassigned.drain(..).map(|p| (p, &flights.attempts[p]));
                let (groups, lost) = self.governor.route(work, cap);
                unanswered.lost.extend(lost);
                for (shard, group) in groups {
                    let job = job(&group);
                    match self.dispatch(&mut flights, shard, group, job, false, root) {
                        Ok(()) => {}
                        Err(f) if f.error.retry_after_ms().is_some() => failed.push(f),
                        Err(f) => return Err(f.error),
                    }
                }
                continue;
            }

            // Sweep the flights without blocking, taking whichever landed
            // and noting which went quiet past `hedge_after` with pieces
            // still unfilled. The landing count is read first: a flight
            // that lands after its ticket was looked at has moved it, and
            // the wait below returns at once.
            let seen = flights.landing.count();
            let mut resolved: Vec<(usize, Result<QueryResult>)> = Vec::new();
            let mut quiet: Vec<(usize, Vec<usize>)> = Vec::new();
            for (i, f) in flights.flying.iter().enumerate() {
                if let Some(result) = f.ticket.wait_timeout(Duration::ZERO) {
                    resolved.push((i, result));
                } else if !f.hedged && hedge_after.is_some_and(|h| f.age.elapsed_secs() >= h) {
                    let unfilled = f.pieces.iter().filter(|&&p| !flights.filled[p]);
                    quiet.push((i, unfilled.copied().collect()));
                }
            }

            // Hedge the quiet flights: their unfilled pieces to an untried
            // owner. A hedge target counts as an attempt, so the per-piece
            // cap covers hedges and failovers alike, and the slow shard's
            // bucket pays only for a hedge that has a target. A hedge the
            // brownout policy lets through to routing is spent, paid or
            // not; one it holds (the federation has left `Normal`) stays
            // unlatched, so hedging resumes once shards recover.
            let state = self.brownout_state();
            for (i, unfilled) in quiet.into_iter().filter(|(_, u)| !u.is_empty()) {
                let f = &mut flights.flying[i];
                let route = || {
                    f.hedged = true;
                    let work = unfilled.iter().map(|&p| (p, &flights.attempts[p]));
                    Some(self.governor.route(work, cap).0).filter(|g| !g.is_empty())
                };
                let Some(groups) = self.governor.reissue(f.shard, true, state, route) else {
                    continue;
                };
                // The flight's age at hedge time is the latency the hedge
                // mechanism is absorbing.
                trace.phase(names::LAT_HEDGE, Some(&f.age));
                for (shard, group) in groups {
                    let job = job(&group);
                    match self.dispatch(&mut flights, shard, group, job, true, root) {
                        Ok(()) => self.bump(names::FED_HEDGES, 1),
                        // A hedge refused by admission control is simply
                        // dropped — the original flight still covers the
                        // pieces, so nothing is lost but the speculation.
                        Err(f) if f.error.retry_after_ms().is_some() => {}
                        Err(f) => return Err(f.error),
                    }
                }
            }

            // Take the landed flights (descending index so removals are
            // safe).
            let landed = !resolved.is_empty();
            for (i, outcome) in resolved.into_iter().rev() {
                let flight = flights.flying.remove(i);
                // The resolver published the sub-query's trace before its
                // result became observable, so this is always present.
                trace.adopt(flight.ticket.trace());
                match outcome.and_then(|result| keep(&flight, result)) {
                    Ok(()) => {
                        self.governor.landed(flight.shard, true);
                        let won = flight.pieces.iter().any(|&p| !flights.filled[p]);
                        for &p in &flight.pieces {
                            flights.filled[p] = true;
                        }
                        if won && flight.is_hedge {
                            self.bump(names::FED_HEDGE_WINS, 1);
                        }
                    }
                    Err(e) if e.is_cancellation() && cancel.check().is_err() => return Err(e),
                    Err(error) if is_runtime_fault(&error) || error.is_cancellation() => {
                        failed.push(Failed {
                            seq: flight.seq,
                            shard: flight.shard,
                            pieces: flight.pieces,
                            error,
                        });
                    }
                    // The shard answered; the error is the statement's.
                    Err(e) => {
                        self.governor.landed(flight.shard, true);
                        return Err(e);
                    }
                }
            }

            // Cancel losers: a flight whose every piece someone else
            // already filled has nothing left to contribute.
            let filled = &flights.filled;
            flights.flying.retain(|f| {
                let obsolete = f.pieces.iter().all(|&p| filled[p]);
                if obsolete {
                    f.ticket.cancel();
                }
                !obsolete
            });

            // Nothing landed: sleep until a flight does, at most one
            // `POLL_SLICE`, then sweep again.
            if !landed {
                flights.landing.wait_past(seen, POLL_SLICE, cancel);
            }
        }
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
        trace: &mut TracedQuery,
    ) -> Result<FederatedResponse> {
        let md = self.engine.deployment().metadata();
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
        let job = |pieces: &[usize]| {
            let share = pieces.len() as f64 / table_chunks.max(1) as f64;
            let group = pieces.iter().map(|&p| chunks[p]).collect();
            Prepared::chunk_scan(table, range.clone(), group, table_secs * share)
        };
        let owners = chunks
            .iter()
            .map(|&chunk| self.placement.owners(SubTableId { table, chunk }))
            .collect();
        let mut gathered = Gathered::new(&chunks);
        let keep = |flight: &Flight, result| gathered.keep(flight, result);
        let unanswered = self.fly(owners, self.cfg.hedge_after, root, trace, job, keep)?;

        let (lost, refused) = (&unanswered.lost, &unanswered.refused);
        let mut missing: Vec<ChunkId> = lost.iter().chain(refused).map(|&p| chunks[p]).collect();
        missing.sort();
        if !missing.is_empty() {
            self.bump(names::FED_PARTIAL, 1);
            self.bump(names::FED_MISSING_CHUNKS, missing.len() as u64);
            if self.cfg.strict {
                let ids = |pieces: &[usize]| {
                    let mut ids: Vec<u32> = pieces.iter().map(|&p| chunks[p].0).collect();
                    ids.sort_unstable();
                    ids
                };
                return Err(Error::Unavailable {
                    missing_chunks: missing.len(),
                    detail: format!(
                        "table `{}`: chunks {:?} failed on every owner tried, chunks {:?} were \
                         refused a re-issue by the retry budget or shedding",
                        md.table_name(table)?,
                        ids(lost),
                        ids(refused)
                    ),
                });
            }
        }

        // Merge. Chunk order follows the R-tree's chunk list, which
        // ascends — the order a single engine scans in — so a complete
        // federated scan is byte-identical to the oracle. Each winning
        // run moves once: into the one result vector, or into its chunk's
        // partition of the re-aggregation.
        let merge = SpanTimer::start();
        let columns = &query.columns;
        let has_agg = query
            .select
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate(..)));
        let rowset: RowSet = if has_agg || !query.group_by.is_empty() {
            let mut parts: Vec<Vec<Record>> = Vec::new();
            gathered.drain_runs(|run| parts.push(run.collect()));
            merge_aggregate(columns, parts, &query.select, &query.group_by)?
        } else {
            let mut rows = Vec::with_capacity(gathered.rows());
            gathered.drain_runs(|run| rows.extend(run));
            project(columns, rows, &query.select)?
        };
        let rowset = order_and_limit(rowset, &query.order_by, query.limit)?;
        let result = QueryResult {
            columns: rowset.columns,
            rows: rowset.rows,
            ..QueryResult::empty()
        };
        trace.phase(names::LAT_MERGE, Some(&merge));
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

    /// Submit `job`, `pieces` of a statement, to one shard, carrying the
    /// root query's trace ID and a child of its token
    /// ([`FederatedService::hop`]). Each piece has now been tried on the
    /// shard, even if its admission control turns the job away. The shard
    /// pulses the flights' landing signal once the answer is published.
    fn dispatch(
        &self,
        flights: &mut Flights,
        shard: usize,
        pieces: Vec<usize>,
        job: Prepared,
        is_hedge: bool,
        root: &Request,
    ) -> std::result::Result<(), Failed> {
        self.bump(names::FED_SUBQUERIES, 1);
        let seq = flights.dispatched;
        flights.dispatched += 1;
        for &p in &pieces {
            flights.attempts[p].tried.push(shard);
        }
        match self.shards[shard].submit_signalled(job, self.hop(root), &flights.landing) {
            Ok(ticket) => {
                flights.flying.push(Flight {
                    shard,
                    pieces,
                    seq,
                    ticket,
                    hedged: false,
                    is_hedge,
                    age: SpanTimer::start(),
                });
                Ok(())
            }
            Err(error) => Err(Failed {
                seq,
                shard,
                pieces,
                error,
            }),
        }
    }

    /// Re-route one failure of a pass that has landed. A failed flight is
    /// a breaker failure on its shard; a dispatch turned away by
    /// admission is not. Its pieces that nobody filled and no earlier
    /// failure of the pass settled go back to `unassigned`, for the next
    /// pass to route to an owner not yet tried, if one of them has such
    /// an owner left, the federation is not shedding and the shard's
    /// bucket pays; the router then backs off on an overload hint, or
    /// counts a failover. Pieces with no owner left are lost, and the
    /// rest, when the re-issue is refused, are refused: the caller gets
    /// an exact account instead of amplified load.
    fn fail_over(
        &self,
        failed: Failed,
        flights: &Flights,
        unassigned: &mut Vec<usize>,
        unanswered: &mut Unanswered,
        cancel: &CancelToken,
    ) -> Result<()> {
        let hint = failed.error.retry_after_ms();
        if hint.is_none() {
            self.governor.landed(failed.shard, false);
        }
        let cap = attempt_cap();
        // What an earlier failure of the pass sent back or gave up on is
        // settled, as is what another flight filled.
        let settled = [&*unassigned, &unanswered.lost, &unanswered.refused];
        let (open, spent): (Vec<usize>, Vec<usize>) = failed
            .pieces
            .iter()
            .copied()
            .filter(|p| !flights.filled[*p] && !settled.iter().any(|s| s.contains(p)))
            .partition(|&p| flights.attempts[p].untried(cap).next().is_some());
        unanswered.fault = Some(failed.error);
        unanswered.lost.extend(spent);
        let target = || (!open.is_empty()).then_some(());
        let state = self.brownout_state();
        let Some(()) = self.governor.reissue(failed.shard, false, state, target) else {
            unanswered.refused.extend(open);
            return Ok(());
        };
        unassigned.extend(open);
        let Some(hint_ms) = hint else {
            self.bump(names::FED_FAILOVERS, 1);
            return Ok(());
        };
        // A bounded backoff on the rejection's hint, capped at one
        // `SLEEP_SLICE`.
        self.bump(names::OVERLOAD_BACKOFFS, 1);
        cancel.sleep(Duration::from_millis(hint_ms).min(orv_cluster::SLEEP_SLICE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_cluster::{FaultPlan, ShardDeathSpec, ShardSlowStormSpec};
    use orv_obs::EventLog;
    use orv_types::Value;
    use proptest::prelude::*;

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
        let md = fed.engine.deployment().metadata();
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
        // Piece `i` is `chunks[i]`, owned as placement says.
        let pieces: Vec<usize> = (0..chunks.len()).collect();
        let owners: Vec<Vec<usize>> = chunks
            .iter()
            .map(|&chunk| fed.placement.owners(SubTableId { table, chunk }))
            .collect();
        // A real shard-sealed sub-response, as the router receives it.
        let sealed = |flights: &mut Flights| {
            let job = Prepared::chunk_scan(table, None, chunks.clone(), 0.0);
            let root = Request::default();
            let sent = fed.dispatch(flights, 0, pieces.clone(), job, false, &root);
            assert!(sent.is_ok());
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
            let mut flights = Flights::new(owners.clone());
            let (flight, mut result) = sealed(&mut flights);
            alter(&mut result);
            let (errors, failovers) = (
                counter(names::FED_SHARD_ERRORS),
                counter(names::FED_FAILOVERS),
            );
            let mut gathered = Gathered::new(&chunks);
            let (mut unassigned, mut unanswered) = (Vec::new(), Unanswered::default());
            // The two steps the flight loop takes on a landed flight: keep
            // it, and re-route it as a shard fault once its pass landed.
            let error = gathered.keep(&flight, result).unwrap_err();
            assert!(matches!(error, Error::Integrity(_)), "{what}: {error}");
            let failed = Failed {
                seq: flight.seq,
                shard: flight.shard,
                pieces: flight.pieces.clone(),
                error,
            };
            let none = CancelToken::none();
            fed.fail_over(failed, &flights, &mut unassigned, &mut unanswered, &none)
                .unwrap();
            assert!(
                gathered.filled.iter().all(Option::is_none),
                "{what}: merged"
            );
            assert_eq!(counter(names::FED_SHARD_ERRORS), errors + 1, "{what}");
            assert_eq!(counter(names::FED_FAILOVERS), failovers + 1, "{what}");
            assert_eq!(unassigned, pieces, "{what}: every chunk re-routes");
            assert!(unanswered.lost.is_empty(), "{what}");
            assert!(unanswered.refused.is_empty(), "{what}");
        }
        // The same response untouched is merged, chunk by chunk.
        let mut flights = Flights::new(owners);
        let (flight, result) = sealed(&mut flights);
        let (want, errors) = (result.rows.clone(), counter(names::FED_SHARD_ERRORS));
        let mut gathered = Gathered::new(&chunks);
        gathered.keep(&flight, result).unwrap();
        assert!(gathered.filled.iter().all(Option::is_some));
        assert_eq!(gathered.rows(), want.len());
        assert_eq!(counter(names::FED_SHARD_ERRORS), errors);
        let mut merged = Vec::new();
        gathered.drain_runs(|run| merged.extend(run));
        assert_eq!(merged, want);
    }

    #[test]
    fn views_broadcast_and_serve_from_any_shard() {
        let fed = FederatedService::with_instruments(
            deployment(),
            Default::default(),
            Obs::enabled(),
            None,
        )
        .unwrap();
        let view = "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)";
        fed.execute(view).unwrap();
        for i in 0..fed.num_shards() {
            let catalog = fed.shard(i).engine().catalog();
            assert!(catalog.get("v1").is_some(), "shard {i}");
        }
        // One statement, one job: the view registered once, on one shard.
        let traces = fed.recorder().slowest();
        let root = traces.iter().find(|t| t.detail == view).unwrap();
        assert_eq!(root.children.len(), 1);
        assert_eq!(fed.engine.catalog_version(), 1);
        let got = fed.execute("SELECT COUNT(*) FROM v1").unwrap();
        let single = QueryEngine::new(deployment());
        single.execute(view).unwrap();
        let want = single.execute("SELECT COUNT(*) FROM v1").unwrap();
        assert_eq!(got.into_result().rows, want.rows);
    }

    /// A federation over `deployment()` whose fault plan kills `shard`
    /// once it has served `after` jobs, counting into the returned obs.
    fn with_dead_shard(shard: usize, after: u64) -> (FederatedService, Obs) {
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard,
                after_subqueries: after,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let cfg = FederationConfig::default();
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(faults))
            .unwrap();
        (fed, obs)
    }

    fn counter(obs: &Obs, name: &str) -> u64 {
        let snap = obs.metrics.snapshot();
        snap.counters.get(name).copied().unwrap_or(0)
    }

    #[test]
    fn every_shard_serves_one_engine() {
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        for i in 0..fed.num_shards() {
            assert!(std::ptr::eq(fed.shard(0).engine(), fed.shard(i).engine()));
        }
        assert!(std::ptr::eq(fed.shard(0).engine(), &*fed.engine));
    }

    #[test]
    fn create_view_fails_over_past_a_dead_first_shard() {
        // Shard 0 is first in line for a whole statement, and dead.
        let (fed, obs) = with_dead_shard(0, 0);
        let view = "CREATE VIEW v1 AS SELECT x, y, wp FROM t1 JOIN t2 ON (x, y, z)";
        fed.execute(view).unwrap();
        assert!(counter(&obs, names::FED_FAILOVERS) >= 1);
        let read = "SELECT x, COUNT(*), MAX(wp) FROM v1 GROUP BY x";
        let got = fed.execute(read).unwrap();
        assert!(got.is_complete());
        let single = QueryEngine::new(deployment());
        single.execute(view).unwrap();
        assert_eq!(got.result().rows, single.execute(read).unwrap().rows);
    }

    #[test]
    fn create_view_is_all_or_nothing_and_a_taken_name_is_not_a_shard_fault() {
        let (fed, obs) = with_dead_shard(1, 0);
        let view = "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)";
        fed.execute(view).unwrap();
        let faults = || {
            [
                names::FED_FAILOVERS,
                names::FED_SHARD_ERRORS,
                names::FED_TRIPS,
            ]
            .map(|name| counter(&obs, name))
        };
        let before = faults();
        // Every shard serves the one catalog, so every shard would refuse
        // the name: the error comes back as it is, from one shard.
        let err = fed.execute(view).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(err.to_string().contains("already exists"), "{err}");
        assert_eq!(faults(), before, "[failovers, shard errors, trips]");
        assert_eq!(fed.engine.catalog_version(), 1);
    }

    #[test]
    fn a_failed_over_join_finds_the_cache_warm() {
        // Shard 0 serves the first two joins, then dies; the third fails
        // over to a shard that serves the same Caching Service.
        let (fed, obs) = with_dead_shard(0, 2);
        let join = "SELECT * FROM t1 JOIN t2 ON (x, y, z)";
        let want = oracle(join).rows;
        for _ in 0..2 {
            assert_eq!(fed.execute(join).unwrap().into_result().rows, want);
        }
        assert_eq!(counter(&obs, names::FED_FAILOVERS), 0);
        assert!(fed.shard(0).engine().cache_stats().misses > 0, "ran cold");
        let engine = fed.shard(1).engine();
        let (reads, misses) = (
            engine.deployment().chunk_reads(),
            engine.cache_stats().misses,
        );
        assert_eq!(fed.execute(join).unwrap().into_result().rows, want);
        assert_eq!(counter(&obs, names::FED_FAILOVERS), 1);
        assert_eq!(engine.cache_stats().misses, misses, "cache misses");
        assert_eq!(engine.deployment().chunk_reads(), reads, "chunk reads");
    }

    #[test]
    fn view_read_bound_once_is_served_with_shard_zero_dead() {
        // The router binds on the shared engine — a function call on the
        // caller's thread — and ships the `Prepared`; shard 0's *service*
        // being dead only costs a failover.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_deaths: vec![ShardDeathSpec {
                shard: 0,
                // The CREATE VIEW is shard 0's first job.
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
        assert_eq!(root(view).children.len(), 1);
        assert!(root(read).children.iter().all(|c| c.detail == read));
        let table = fed.engine.deployment().metadata().table_id("t1").unwrap();
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
        let md = fed.engine.deployment().metadata();
        let table = md.table_id("t1").unwrap();
        assert_eq!(partial.missing_chunks, md.all_chunks(table).unwrap());
        assert!(partial.result.rows.is_empty());
    }

    #[test]
    fn an_overloaded_shard_is_an_attempt_for_a_whole_statement_too() {
        // Shard 0's one worker sleeps out a storm and its one-slot queue
        // is full; shards 1 and 2 are idle. A join is one piece every
        // shard owns: turned away by shard 0, it lands on shard 1.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: 0,
                after_subqueries: 0,
                delay_ms: 30_000,
                storm_len: 1,
            }],
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let mut cfg = FederationConfig::default();
        cfg.service.workers = 1;
        cfg.service.queue_cap = 1;
        let fed = FederatedService::with_instruments(
            deployment(),
            cfg,
            obs.clone(),
            Some(faults.clone()),
        )
        .unwrap();
        let stalled = fed.shard(0).submit("SELECT COUNT(*) FROM t1").unwrap();
        let watchdog = SpanTimer::start();
        while faults.stats().shard_slow_storm_delays == 0 {
            assert!(watchdog.elapsed_secs() < 30.0, "shard 0 never claimed");
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = fed.shard(0).submit("SELECT COUNT(*) FROM t1").unwrap();
        let join = "SELECT * FROM t1 JOIN t2 ON (x, y, z)";
        let got = fed.execute(join).unwrap();
        assert_eq!(got.into_result().rows, oracle(join).rows);
        let admitted = |s: usize| fed.shard(s).counters().admitted;
        assert_eq!(fed.shard(0).counters().rejected, 1);
        assert_eq!([admitted(0), admitted(1), admitted(2)], [2, 1, 0]);
        assert_eq!(counter(&obs, names::FED_SUBQUERIES), 2);
        assert_eq!(counter(&obs, names::FED_SHARD_ERRORS), 0);
        for ticket in [stalled, queued] {
            ticket.cancel();
        }
    }

    #[test]
    fn dropping_a_service_cancels_the_job_it_runs() {
        // Shard 0's one worker sleeps out a long storm; dropping the
        // federation drops its shard services, which must cancel the
        // running job rather than wait the storm out.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_slow_storms: vec![ShardSlowStormSpec {
                shard: 0,
                after_subqueries: 0,
                delay_ms: 600_000,
                storm_len: 1,
            }],
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let mut cfg = FederationConfig::default();
        cfg.service.workers = 1;
        let fed = FederatedService::with_instruments(deployment(), cfg, obs, Some(faults.clone()))
            .unwrap();
        let stalled = fed.shard(0).submit("SELECT COUNT(*) FROM t1").unwrap();
        let watchdog = SpanTimer::start();
        while faults.stats().shard_slow_storm_delays == 0 {
            assert!(watchdog.elapsed_secs() < 30.0, "shard 0 never claimed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(fed);
        let got = stalled.wait();
        assert!(matches!(got, Err(Error::Cancelled)), "{got:?}");
    }

    #[test]
    fn a_reissue_the_budget_refused_is_not_called_lost() {
        // Shard 0 is dead and every bucket dry: each of its chunks has a
        // live replica, but no re-issue is paid for.
        let cfg = FederationConfig {
            strict: true,
            retry_budget: 0,
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
        let md = fed.engine.deployment().metadata();
        let table = md.table_id("t1").unwrap();
        let refused: Vec<u32> = md
            .all_chunks(table)
            .unwrap()
            .into_iter()
            .filter(|&chunk| fed.placement.primary(SubTableId { table, chunk }) == 0)
            .map(|c| c.0)
            .collect();
        assert!(
            !refused.is_empty(),
            "placement seed must give shard 0 chunks"
        );
        let err = fed.execute("SELECT * FROM t1").unwrap_err();
        let Error::Unavailable {
            missing_chunks,
            detail,
        } = err
        else {
            panic!("expected Unavailable, got {err}");
        };
        assert_eq!(missing_chunks, refused.len());
        assert_eq!(
            detail,
            format!(
                "table `t1`: chunks [] failed on every owner tried, chunks {refused:?} were \
                 refused a re-issue by the retry budget or shedding"
            )
        );
        assert!(!detail.contains("lost"), "{detail}");
    }

    #[test]
    fn a_whole_statement_no_shard_answered_is_unavailable() {
        // Every shard is dead. With tokens to pay for failovers the join
        // is lost on every shard tried; with a dry bucket its one re-issue
        // is refused. Either way, and in either mode, the router answers
        // with a typed Unavailable naming what it tried, not the last
        // shard's raw fault.
        let dead = (0..3).map(|shard| ShardDeathSpec {
            shard,
            after_subqueries: 0,
        });
        let plan = FaultPlan {
            shard_deaths: dead.collect(),
            max_faults: 8,
            ..FaultPlan::none()
        };
        for (retry_budget, strict, want) in [
            (
                10,
                false,
                "statement failed on shards [0, 1, 2]; last fault: cluster error: injected: \
                 shard 2 is down",
            ),
            (
                0,
                true,
                "statement failed on shards [0], then the retry budget or shedding refused a \
                 re-issue; last fault: cluster error: injected: shard 0 is down",
            ),
        ] {
            let cfg = FederationConfig {
                strict,
                retry_budget,
                ..FederationConfig::default()
            };
            let faults = FaultInjector::new(plan.clone(), EventLog::disabled());
            let fed = FederatedService::with_instruments(
                deployment(),
                cfg,
                Obs::disabled(),
                Some(faults),
            )
            .unwrap();
            let err = fed
                .execute("SELECT * FROM t1 JOIN t2 ON (x, y, z)")
                .unwrap_err();
            let Error::Unavailable {
                missing_chunks,
                detail,
            } = err
            else {
                panic!("expected Unavailable, got {err}");
            };
            assert_eq!((missing_chunks, detail.as_str()), (0, want));
        }
    }

    /// A governor over `shards` shards with a bucket of `budget` tokens
    /// earning `earn_milli` per success, and the registry it counts into.
    fn governor(shards: usize, budget: u64, earn_milli: u64) -> (Governor, MetricsRegistry) {
        let cfg = FederationConfig {
            shards,
            retry_budget: budget,
            ..FederationConfig::default()
        };
        let metrics = MetricsRegistry::new();
        (Governor::new(&cfg, earn_milli, metrics.clone()), metrics)
    }

    /// One re-issue against shard 0 that has a target, in `Normal`.
    fn draw(gov: &Governor) -> bool {
        gov.reissue(0, false, BrownoutState::Normal, || Some(()))
            .is_some()
    }

    fn ledger(gov: &Governor, shard: usize) -> ShardLedger {
        relock(gov.ledger.lock()).shards[shard].clone()
    }

    #[test]
    fn starts_full_and_drains_to_zero() {
        let (gov, _) = governor(1, 3, 100);
        assert_eq!(ledger(&gov, 0).milli / MILLI_PER_TOKEN, 3);
        assert!(draw(&gov));
        assert!(draw(&gov));
        assert!(draw(&gov));
        assert!(!draw(&gov), "bucket must refuse once dry");
        let s = ledger(&gov, 0);
        assert_eq!(s.granted, 3);
        assert_eq!(s.denied, 1);
        assert_eq!(s.milli, 0);
    }

    #[test]
    fn successes_earn_fractional_tokens() {
        let (gov, _) = governor(1, 1, 250);
        assert!(draw(&gov));
        assert!(!draw(&gov));
        // Four successes at 0.25 tokens each buy exactly one retry.
        for _ in 0..3 {
            gov.landed(0, true);
            assert!(!draw(&gov));
        }
        gov.landed(0, true);
        assert!(draw(&gov));
        assert!(!draw(&gov));
    }

    #[test]
    fn refill_saturates_at_capacity() {
        let (gov, _) = governor(1, 2, 1000);
        for _ in 0..100 {
            gov.landed(0, true);
        }
        assert_eq!(
            ledger(&gov, 0).milli / MILLI_PER_TOKEN,
            2,
            "bucket must not grow past its cap"
        );
    }

    #[test]
    fn zero_capacity_budget_denies_everything() {
        let (gov, _) = governor(1, 0, 500);
        assert!(!draw(&gov));
        gov.landed(0, true);
        assert!(!draw(&gov), "cap 0 means earn saturates at 0");
        assert_eq!(ledger(&gov, 0).denied, 2);
        assert_eq!(gov.grants(0).max_grants(1000), 0);
    }

    #[test]
    fn concurrent_grants_respect_the_bound() {
        let gov = Arc::new(governor(1, 4, 100).0);
        let successes = 40u64;
        let mut handles = Vec::new();
        for t in 0..8 {
            let gov = Arc::clone(&gov);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    // Interleave draws with a fixed share of successes.
                    if t < 4 && i < 10 {
                        gov.landed(0, true);
                    }
                    draw(&gov);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (grants, s) = (gov.grants(0), ledger(&gov, 0));
        assert!(
            grants.granted() <= grants.max_grants(successes),
            "granted {} exceeded bound {}",
            grants.granted(),
            grants.max_grants(successes)
        );
        assert_eq!(s.granted + s.denied, 400);
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_half_open_recovers() {
        let cfg = FederationConfig {
            shards: 2,
            trip_after: 3,
            cooldown_ticks: 8,
            ..FederationConfig::default()
        };
        let metrics = MetricsRegistry::new();
        let gov = Governor::new(&cfg, RETRY_EARN_MILLI, metrics.clone());
        let trips = || metrics.snapshot().counters.get(names::FED_TRIPS).copied();
        let tick = || relock(gov.ledger.lock()).tick;
        // One chunk owned by shards 0 and 1, tried on neither: routing
        // prefers shard 0 exactly when its breaker admits traffic.
        let chunk = Attempts {
            owners: vec![0, 1],
            tried: Vec::new(),
        };
        let prefers_zero = || gov.route([((), &chunk)], 4).0.contains_key(&0);
        assert!(prefers_zero());
        gov.landed(0, false);
        gov.landed(0, false);
        assert_eq!(trips(), None);
        gov.landed(0, false);
        assert_eq!(trips(), Some(1), "third consecutive failure trips");
        // The trip was tick 3: open until tick 11.
        assert_eq!(tick(), 4);
        while tick() < 11 {
            assert!(!prefers_zero(), "open until tick 11");
        }
        assert!(prefers_zero(), "cooldown elapsed: half-open probe admitted");
        assert!(!prefers_zero(), "only one probe while half-open");
        gov.landed(0, false);
        assert_eq!(trips(), Some(2), "failed probe re-opens");
        // The probe failed at tick 13: open until tick 21.
        while tick() < 21 {
            assert!(!prefers_zero());
        }
        assert!(prefers_zero());
        gov.landed(0, true);
        assert!(prefers_zero(), "closed again after a successful probe");
        assert!(prefers_zero());
        // The breaker only demotes: a chunk whose one untried owner is
        // open is still routed there.
        for _ in 0..3 {
            gov.landed(0, false);
        }
        let only_zero = Attempts {
            owners: vec![0],
            tried: Vec::new(),
        };
        assert!(gov.route([((), &only_zero)], 4).0.contains_key(&0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random per-shard sequences of `route`, `reissue` and `landed`
        /// calls over three shards: grants stay under the bucket's bound,
        /// a chunk with an untried owner under the cap is always routed,
        /// a half-open breaker admits one probe, and a held re-issue draws
        /// nothing.
        #[test]
        fn governor_invariants_hold_over_any_call_sequence(
            budget in 0u64..4,
            earn_milli in 0u64..1_500,
            trip_after in 1u32..4,
            cooldown_ticks in 0u64..12,
            calls in proptest::collection::vec((0u8..3, 0usize..3, 0u8..4, 0u8..6), 1..160),
        ) {
            let cfg = FederationConfig {
                shards: 3,
                retry_budget: budget,
                trip_after,
                cooldown_ticks,
                ..FederationConfig::default()
            };
            let gov = Governor::new(&cfg, earn_milli, MetricsRegistry::new());
            let mut successes = [0u64; 3];
            for (call, shard, a, b) in calls {
                let (now, before) = {
                    let l = relock(gov.ledger.lock());
                    (l.tick, l.shards.clone())
                };
                let admitting = |s: usize| match before[s].breaker {
                    Breaker::Closed => true,
                    Breaker::Open { until_tick } => now >= until_tick,
                    Breaker::HalfOpen => false,
                };
                match call {
                    0 => {
                        let owners = vec![shard, (shard + 1 + usize::from(b & 1)) % 3];
                        let tried: Vec<usize> = owners
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| a >> i & 1 == 1)
                            .map(|(_, s)| *s)
                            .collect();
                        let cap = 1 + usize::from(b % 3);
                        let open: Vec<usize> = owners
                            .iter()
                            .copied()
                            .filter(|s| tried.len() < cap && !tried.contains(s))
                            .collect();
                        let chunk = Attempts { owners, tried };
                        let routed = gov.route([((), &chunk)], cap);
                        match routed.0.keys().next().copied() {
                            None => prop_assert!(open.is_empty(), "{open:?} left unrouted"),
                            Some(s) => {
                                prop_assert!(open.contains(&s));
                                // Demoted only when no untried owner admits.
                                if !admitting(s) {
                                    prop_assert!(open.iter().all(|&o| !admitting(o)));
                                }
                                // Half-open admits one probe: only the
                                // chosen shard may have left `Open`, and
                                // then it is half-open, demoted until the
                                // probe lands.
                                for (o, was) in before.iter().enumerate() {
                                    let probed = matches!(was.breaker, Breaker::Open { .. })
                                        && ledger(&gov, o).breaker == Breaker::HalfOpen;
                                    prop_assert!(!probed || o == s);
                                }
                                if admitting(s) && before[s].breaker != Breaker::Closed {
                                    let after = ledger(&gov, s).breaker;
                                    prop_assert_eq!(after, Breaker::HalfOpen);
                                }
                            }
                        }
                    }
                    1 => {
                        let hedge = a & 1 == 1;
                        let has_target = a & 2 == 0;
                        let state = [
                            BrownoutState::Normal,
                            BrownoutState::Brownout,
                            BrownoutState::Shed,
                        ][usize::from(b % 3)];
                        let mut routed = false;
                        let verdict = gov.reissue(shard, hedge, state, || {
                            routed = true;
                            has_target.then_some(())
                        });
                        let after = ledger(&gov, shard);
                        let held = state == BrownoutState::Shed
                            || (hedge && state != BrownoutState::Normal);
                        let draws = |l: &ShardLedger| l.granted + l.denied;
                        let drew = draws(&after) - draws(&before[shard]);
                        if held {
                            prop_assert!(verdict.is_none());
                            prop_assert!(!routed, "a held re-issue routes nothing");
                        }
                        if held || !has_target {
                            prop_assert!(verdict.is_none());
                            prop_assert_eq!(drew, 0);
                            prop_assert_eq!(after.milli, before[shard].milli);
                        } else {
                            prop_assert_eq!(drew, 1);
                            let paid = before[shard].milli >= MILLI_PER_TOKEN;
                            prop_assert_eq!(verdict.is_some(), paid);
                        }
                    }
                    _ => {
                        let ok = a & 1 == 0;
                        gov.landed(shard, ok);
                        let after = ledger(&gov, shard);
                        if ok {
                            successes[shard] += 1;
                            prop_assert_eq!(after.breaker, Breaker::Closed);
                            prop_assert_eq!(after.failures, 0);
                        } else {
                            prop_assert_eq!(after.failures, before[shard].failures + 1);
                        }
                    }
                }
                for (s, &n) in successes.iter().enumerate() {
                    let grants = gov.grants(s);
                    prop_assert!(grants.granted() <= grants.max_grants(n));
                    if budget == 0 {
                        prop_assert_eq!(grants.granted(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn a_hedge_pays_only_for_a_target() {
        // Every shard's first four sub-queries stall far past the hedge
        // timer, so the hedges stall too and hedge in turn, when both
        // owners of each chunk have been tried: a second hedge has nowhere
        // to go and must not draw a token.
        let obs = Obs::enabled();
        let plan = FaultPlan {
            shard_slow_storms: (0..3)
                .map(|shard| ShardSlowStormSpec {
                    shard,
                    after_subqueries: 0,
                    delay_ms: 300,
                    storm_len: 4,
                })
                .collect(),
            ..FaultPlan::none()
        };
        let faults = FaultInjector::new(plan, obs.events.clone());
        let cfg = FederationConfig {
            hedge_after: Some(Duration::from_millis(20)),
            ..FederationConfig::default()
        };
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(faults))
            .unwrap();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        assert!(got.is_complete());
        assert_eq!(got.result().rows, oracle("SELECT * FROM t1").rows);
        let snap = obs.metrics.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let granted: u64 = (0..fed.num_shards())
            .map(|s| fed.retry_budget(s).granted())
            .sum();
        assert!(counter(names::FED_HEDGES) >= 1, "{:?}", snap.counters);
        assert_eq!(counter(names::FED_FAILOVERS), 0, "{:?}", snap.counters);
        assert!(
            granted <= counter(names::FED_HEDGES),
            "{granted} grants for {} hedges: {:?}",
            counter(names::FED_HEDGES),
            snap.counters
        );
    }

    #[test]
    fn an_overload_reissue_pays_and_backs_off_only_with_a_target() {
        // The setup of `chunks_every_shard_turned_away_are_missing_not_dropped`:
        // every dispatch is turned away. The first pass's rejections have
        // a second owner to go to; the second pass's have none.
        let obs = Obs::enabled();
        let mut cfg = FederationConfig::default();
        cfg.service.workers = 0;
        cfg.service.queue_cap = 1;
        let fed = FederatedService::with_instruments(deployment(), cfg, obs.clone(), None).unwrap();
        let _queued: Vec<QueryTicket> = (0..fed.num_shards())
            .map(|i| fed.shard(i).submit("SELECT COUNT(*) FROM t1").unwrap())
            .collect();
        let got = fed.execute("SELECT * FROM t1").unwrap();
        assert!(!got.is_complete());
        let md = fed.engine.deployment().metadata();
        let table = md.table_id("t1").unwrap();
        let mut primaries: Vec<usize> = md
            .all_chunks(table)
            .unwrap()
            .into_iter()
            .map(|chunk| fed.placement.primary(SubTableId { table, chunk }))
            .collect();
        primaries.sort_unstable();
        primaries.dedup();
        let snap = obs.metrics.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let redispatched = counter(names::FED_SUBQUERIES) - primaries.len() as u64;
        let granted: u64 = (0..fed.num_shards())
            .map(|s| fed.retry_budget(s).granted())
            .sum();
        assert!(redispatched >= 1, "{:?}", snap.counters);
        assert_eq!(granted, redispatched, "{:?}", snap.counters);
        assert_eq!(
            counter(names::OVERLOAD_BACKOFFS),
            redispatched,
            "{:?}",
            snap.counters
        );
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
        let [d0, d1, d2] = [&root, &hop1, &hop2].map(|t| t.deadline().unwrap());
        assert!(d1 < d0, "one hop must subtract the hop margin");
        assert!(d2 < d1, "budgets shrink monotonically across hops");
        assert_eq!(d0 - d1, HOP_MARGIN);
        // A root without a deadline fans out tokens without one — no
        // budget is invented where none was requested — that still fire
        // with the root.
        let free_root = CancelToken::new();
        let free = fed.hop(&free_root.clone().into()).cancel;
        assert!(free.deadline().is_none());
        assert!(free.check().is_ok());
        free_root.cancel();
        assert!(matches!(free.check(), Err(Error::Cancelled)));
        assert!(hop2.check().is_ok());
        root.cancel();
        assert!(matches!(hop2.check(), Err(Error::Cancelled)));
    }

    /// Cancelling a federated query's root reaches the shard that admitted
    /// its sub-query: the shard resolves it as cancelled instead of
    /// sleeping out its storm and running it to completion. Covers both
    /// kinds of whole-statement route: a join and a `CREATE VIEW`.
    #[test]
    fn cancelling_the_root_cancels_every_admitted_sub_query() {
        for sql in [
            "SELECT * FROM t1 JOIN t2 ON (x, y, z)",
            "CREATE VIEW v_cancel AS SELECT * FROM t1 JOIN t2 ON (x, y, z)",
        ] {
            let plan = FaultPlan {
                shard_slow_storms: (0..3)
                    .map(|shard| ShardSlowStormSpec {
                        shard,
                        after_subqueries: 0,
                        delay_ms: 1_000,
                        storm_len: 1,
                    })
                    .collect(),
                ..FaultPlan::none()
            };
            let faults = FaultInjector::new(plan, EventLog::disabled());
            let fed = FederatedService::with_instruments(
                deployment(),
                FederationConfig::default(),
                Obs::disabled(),
                Some(faults),
            )
            .unwrap();
            let counters = || (0..fed.num_shards()).map(|i| fed.shard(i).counters());
            let root = CancelToken::new();
            let got = std::thread::scope(|scope| {
                scope.spawn(|| {
                    // Cancel once a shard has admitted the sub-query.
                    while counters().all(|c| c.admitted == 0) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_millis(100));
                    root.cancel();
                });
                fed.execute_request(sql, &root.clone().into())
            });
            assert!(matches!(got, Err(Error::Cancelled)), "{sql}: {got:?}");
            // The dropped ticket still resolves on its shard, as cancelled.
            let watchdog = SpanTimer::start();
            while !counters().all(|c| c.completion_balances()) {
                assert!(
                    watchdog.elapsed_secs() < 30.0,
                    "{sql}: a sub-query never resolved"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let (admitted, completed, cancelled) = counters().fold((0, 0, 0), |(a, d, c), s| {
                (a + s.admitted, d + s.completed, c + s.cancelled)
            });
            assert_eq!(admitted, 1, "{sql}");
            assert_eq!((completed, cancelled), (0, 1), "{sql}");
        }
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
