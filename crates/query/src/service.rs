//! The Query Processing Service's front door: concurrent query serving.
//!
//! The paper's QPS mediates queries from *many* clients over shared
//! BDS/DDS sub-tables; [`QueryService`] is that layer. It serves one
//! [`QueryEngine`] (whose entry points all take `&self`); a federation's
//! shard services all serve the same one. A statement is
//! bound once at submit ([`QueryEngine::prepare`]); what waits in the
//! queue is the [`Prepared`], and a worker hands it to
//! [`QueryEngine::run`]. Around that, the service adds:
//!
//! - a **bounded worker pool** — `workers` OS threads draining a
//!   two-class queue, so concurrency is capped no matter how many
//!   clients submit;
//! - **cost-aware admission control** — at most `queue_cap` queries may
//!   wait; submissions past the cap are rejected immediately with a
//!   typed [`Error::Overloaded`] (carrying a `retry_after_ms` hint),
//!   never silently dropped or unboundedly queued. Each submission is
//!   classified by the §5 cost already on its `Prepared`
//!   ([`Prepared::predicted_secs`]): predicted-cheap queries take
//!   a **fast lane** past the FIFO, and under pressure the
//!   [`BrownoutController`] sheds predicted-expensive work first;
//! - **per-query cancellation + deadline** — every admitted query gets a
//!   [`CancelToken`]: a fresh one from [`QueryService::submit`], or the
//!   caller's, deadline and all, from [`QueryService::submit_prepared`].
//!   Cancelling a *queued* query removes it from the queue and resolves
//!   its ticket with [`Error::Cancelled`] immediately; cancelling a
//!   *running* query unwinds it within one sleep slice. A query whose
//!   deadline budget expires *while queued* is shed at claim without
//!   touching the engine: its trace records only `queue_wait` and the
//!   outcome [`TraceOutcome::Shed`].
//!
//! Every admission decision and completion is counted, both in cheap
//! atomics ([`QueryService::counters`]) and in the engine's metrics
//! registry under the [`orv_obs::names`] `service/*` and `overload/*`
//! names. The balance invariants the concurrency harness asserts:
//!
//! ```text
//! submitted == admitted + rejected
//! admitted  == completed + cancelled + shed (once all tickets resolve)
//! ```

use crate::engine::{Plan, Prepared, QueryEngine, QueryResult, Request};
use crate::overload::{BrownoutController, BrownoutTransition, CostClass, OverloadConfig};
use orv_cluster::{CancelToken, SLEEP_SLICE};
use orv_metadata::Placement;
use orv_obs::{names, FlightRecorder, QueryTrace, SpanTimer, TraceId, TraceOutcome, TracedQuery};
use orv_types::{Error, Result, SubTableId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// The parking_lot shim has no Condvar; the queue and tickets block on
// std primitives directly.
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

fn relock<T>(r: std::result::Result<T, PoisonError<T>>) -> T {
    // Worker bodies never panic while holding these locks (the engine
    // call runs unlocked), so recover the guard rather than poisoning
    // every later client.
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Admission and pool sizing for a [`QueryService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. `0` is allowed (nothing runs
    /// until cancelled — deterministic admission tests use this).
    pub workers: usize,
    /// Maximum queries waiting in the queue; past it, submissions are
    /// rejected with [`Error::Overloaded`].
    pub queue_cap: usize,
    /// Cost classification thresholds and the brownout state machine.
    pub overload: OverloadConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_cap: 64,
            overload: OverloadConfig::default(),
        }
    }
}

/// Monotone admission/completion counters (see the module docs for the
/// balance invariants).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Queries handed to [`QueryService::submit`].
    pub submitted: u64,
    /// Queries accepted into the queue.
    pub admitted: u64,
    /// Queries rejected at the admission cap.
    pub rejected: u64,
    /// Admitted queries that ran to a non-cancellation result (ok or
    /// typed error).
    pub completed: u64,
    /// Admitted queries resolved by cancellation or deadline while
    /// running (or explicitly cancelled while queued).
    pub cancelled: u64,
    /// Admitted queries shed before touching a worker: the deadline
    /// budget expired in the queue.
    pub shed: u64,
}

impl ServiceCounters {
    /// `submitted == admitted + rejected` — true at every instant.
    pub fn admission_balances(&self) -> bool {
        self.submitted == self.admitted + self.rejected
    }

    /// `admitted == completed + cancelled + shed` — true once every
    /// admitted ticket has resolved.
    pub fn completion_balances(&self) -> bool {
        self.admitted == self.completed + self.cancelled + self.shed
    }
}

/// How many cleanly-completed slow queries each service's flight
/// recorder retains.
const RECORDER_KEEP_SLOWEST: usize = 8;
/// Ring size for anomalous (failed/partial/cancelled/rejected) traces.
const RECORDER_ANOMALY_CAP: usize = 64;

/// One queued query's rendezvous cell: the worker (or the queue-side
/// cancel path) publishes exactly one result; the ticket waits on it.
struct Slot {
    result: Mutex<Option<Result<QueryResult>>>,
    /// Set (under the `result` lock) when the slot is resolved; stays
    /// set after a waiter takes the result, so a late second resolver
    /// can never re-complete an already-consumed slot.
    resolved: AtomicBool,
    done: Condvar,
    /// The completed [`QueryTrace`], written by the winning resolver —
    /// the federation router collects these to stitch its span tree.
    trace: Mutex<Option<QueryTrace>>,
    /// Pulsed by the winning resolver once the result is published,
    /// still under the `result` lock: a result a waiter can take has
    /// been counted.
    landing: Option<Landing>,
}

impl Slot {
    fn new(landing: Option<Landing>) -> Arc<Self> {
        Arc::new(Slot {
            result: Mutex::new(None),
            resolved: AtomicBool::new(false),
            done: Condvar::new(),
            trace: Mutex::new(None),
            landing,
        })
    }
}

/// A landing signal several queries share: each pulse counts one result
/// published into a slot that carries it. The federation router gives one
/// to every sub-query of a federated query and sleeps on it between
/// sweeps of its flights, so it wakes when any of them lands instead of
/// waiting on each in turn.
#[derive(Clone, Default)]
pub(crate) struct Landing(Arc<(Mutex<u64>, Condvar)>);

impl Landing {
    /// Results landed so far. Read it before sweeping the tickets: a
    /// result that lands after the sweep looked at its ticket has moved
    /// the count past the value read, so [`Landing::wait_past`] returns.
    pub(crate) fn count(&self) -> u64 {
        *relock(self.0 .0.lock())
    }

    fn pulse(&self) {
        *relock(self.0 .0.lock()) += 1;
        self.0 .1.notify_all();
    }

    /// One bounded wait for the count to move past `seen`: it returns
    /// once a result lands, `slice` passes or `cancel`'s deadline does,
    /// whichever is first — at once if `cancel` has fired. The caller's
    /// loop repeats it; no query's execution depends on it.
    pub(crate) fn wait_past(&self, seen: u64, slice: Duration, cancel: &CancelToken) {
        let (count, landed) = &*self.0;
        let count = relock(count.lock());
        if *count == seen && cancel.check().is_ok() {
            let slice = cancel.remaining().map_or(slice, |left| left.min(slice));
            drop(relock(landed.wait_timeout(count, slice)));
        }
    }
}

struct Job {
    /// What to run — or why the statement did not bind: such a query is
    /// still admitted and resolves through its ticket like any other
    /// failed query, so the counters balance the same way.
    work: Result<Prepared>,
    cancel: CancelToken,
    slot: Arc<Slot>,
    trace: TracedQuery,
    /// Started as the job was queued; closed at claim as `queue_wait`.
    queued: SpanTimer,
}

/// The two-class admission queue: predicted-cheap queries wait in the
/// fast lane, which workers always drain first. Beside it, under the
/// same lock, the token of the job each worker runs, so a dropped
/// service cancels running jobs as well as queued ones.
#[derive(Default)]
struct Queues {
    fast: VecDeque<Job>,
    normal: VecDeque<Job>,
    running: Vec<Option<CancelToken>>,
}

impl Queues {
    fn len(&self) -> usize {
        self.fast.len() + self.normal.len()
    }

    fn pop(&mut self) -> Option<Job> {
        self.fast.pop_front().or_else(|| self.normal.pop_front())
    }

    fn remove_slot(&mut self, slot: &Arc<Slot>) -> Option<Job> {
        if let Some(i) = self.fast.iter().position(|j| Arc::ptr_eq(&j.slot, slot)) {
            return self.fast.remove(i);
        }
        let i = self
            .normal
            .iter()
            .position(|j| Arc::ptr_eq(&j.slot, slot))?;
        self.normal.remove(i)
    }

    fn drain_all(&mut self) -> Vec<Job> {
        self.fast.drain(..).chain(self.normal.drain(..)).collect()
    }
}

struct Inner {
    engine: Arc<QueryEngine>,
    /// Which federation shard this service is, and the placement that
    /// says what it owns; `None` standalone.
    shard: Option<(usize, Placement)>,
    cfg: ServiceConfig,
    queue: Mutex<Queues>,
    work: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    controller: BrownoutController,
    /// Span-group label of this service's traces: `service` standalone,
    /// `fed{N}` when it is federation shard N.
    group: String,
    recorder: FlightRecorder,
}

impl Inner {
    fn count(&self, which: &AtomicU64, name: &str) {
        which.fetch_add(1, Ordering::Relaxed);
        self.engine.obs().metrics.counter(name).add(1);
    }

    /// Resolve a finished (or cancelled) job: count it, publish the
    /// result into the slot, and finish the query's trace. First resolver
    /// wins (e.g. a worker finishing a query whose ticket was already
    /// resolved by queue-side cancellation loses), so each admitted query
    /// is counted exactly once — and the count lands *before* the waiter
    /// can observe the result, keeping `admitted == completed + cancelled`
    /// exact at the moment any ticket resolves.
    fn resolve(&self, slot: &Slot, trace: TracedQuery, result: Result<QueryResult>) {
        let is_cancel = result.as_ref().err().is_some_and(Error::is_cancellation);
        let outcome = match &result {
            Ok(_) => TraceOutcome::Ok,
            Err(_) if is_cancel => TraceOutcome::Cancelled,
            Err(_) => TraceOutcome::Error,
        };
        self.resolve_as(slot, trace, result, outcome);
    }

    /// [`Inner::resolve`] with the outcome chosen by the caller — the
    /// shed path uses this to distinguish a queue-expired query
    /// ([`TraceOutcome::Shed`]) from one cancelled mid-execution, even
    /// though both surface [`Error`] cancellation variants.
    fn resolve_as(
        &self,
        slot: &Slot,
        trace: TracedQuery,
        result: Result<QueryResult>,
        outcome: TraceOutcome,
    ) {
        let mut cell = relock(slot.result.lock());
        if slot.resolved.swap(true, Ordering::AcqRel) {
            return;
        }
        match outcome {
            TraceOutcome::Shed => self.count(&self.shed, names::SERVICE_SHED),
            TraceOutcome::Cancelled => self.count(&self.cancelled, names::SERVICE_CANCELLED),
            _ => self.count(&self.completed, names::SERVICE_COMPLETED),
        }
        *relock(slot.trace.lock()) = Some(trace.end(outcome, &self.recorder));
        *cell = Some(result);
        slot.done.notify_all();
        if let Some(landing) = &slot.landing {
            landing.pulse();
        }
    }

    /// Publish one brownout edge: counter, state gauge, and a
    /// replayable `brownout_transition` event.
    fn note_transition(&self, t: BrownoutTransition) {
        let obs = self.engine.obs();
        obs.metrics.counter(names::OVERLOAD_TRANSITIONS).add(1);
        obs.metrics
            .gauge(names::OVERLOAD_STATE)
            .set(t.to.severity());
        obs.events.emit(names::BROWNOUT_TRANSITION, || {
            vec![
                ("group", self.group.as_str().into()),
                ("tick", t.tick.into()),
                ("from", t.from.as_str().into()),
                ("to", t.to.as_str().into()),
                ("depth", t.depth.into()),
            ]
        });
    }

    /// Begin a query's trace in this service's group.
    fn begin(&self, detail: String, parent: Option<TraceId>) -> TracedQuery {
        TracedQuery::begin(self.engine.obs(), &self.group, detail, parent)
    }

    /// Resolve a job cancelled while still queued: the only phase that
    /// happened is the queue wait — no exec row is minted.
    fn cancel_queued(&self, mut job: Job) {
        job.trace.phase(names::LAT_QUEUE_WAIT, Some(&job.queued));
        let outcome = TraceOutcome::Cancelled;
        self.resolve_as(&job.slot, job.trace, Err(Error::Cancelled), outcome);
    }

    /// A shard's gate before a job reaches the engine; a standalone
    /// service passes the job through. The injector's shard checkpoint
    /// comes first, so an injected shard death or slowdown lands at a
    /// fixed point in the shard's job stream. Then a chunk scan naming a
    /// chunk this shard does not own is refused: the one sub-query fails,
    /// and the router re-routes its chunks.
    fn claim(&self, work: Result<Prepared>, cancel: &CancelToken) -> Result<Prepared> {
        let Some((shard, placement)) = &self.shard else {
            return work;
        };
        if let Some(faults) = &self.engine.faults {
            faults.shard_checkpoint(*shard, cancel)?;
        }
        let prepared = work?;
        if let Plan::ChunkScan { table, chunks, .. } = &prepared.plan {
            let table = *table;
            let foreign = chunks
                .iter()
                .find(|&&chunk| !placement.owns(*shard, SubTableId { table, chunk }));
            if let Some(chunk) = foreign {
                return Err(Error::Plan(format!(
                    "shard {shard} does not own chunk {} of table {} (misrouted sub-query)",
                    chunk.0, table.0
                )));
            }
        }
        Ok(prepared)
    }

    /// Worker `me`'s loop: claim a job, run it, resolve it.
    fn worker_loop(&self, me: usize) {
        loop {
            let mut job = {
                let mut queue = relock(self.queue.lock());
                queue.running[me] = None;
                loop {
                    if let Some(job) = queue.pop() {
                        queue.running[me] = Some(job.cancel.clone());
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = relock(self.work.wait(queue));
                }
            };
            let queue_wait = job.trace.phase(names::LAT_QUEUE_WAIT, Some(&job.queued));
            // The same measurements that feed lat/queue_wait_secs drive
            // the brownout controller's latency alarm.
            self.controller.note_queue_wait(queue_wait);
            // A queued query may already be past its deadline budget (or
            // explicitly cancelled) by the time a worker reaches it —
            // shed it here, before it touches the engine. Its trace
            // records only the queue wait: no exec phase ever happened.
            if let Err(e) = job.cancel.check() {
                let outcome = if matches!(e, Error::DeadlineExceeded) {
                    let metrics = &self.engine.obs().metrics;
                    metrics.counter(names::OVERLOAD_SHED_EXPIRED).add(1);
                    TraceOutcome::Shed
                } else {
                    TraceOutcome::Cancelled
                };
                self.resolve_as(&job.slot, job.trace, Err(e), outcome);
                continue;
            }
            let exec = SpanTimer::start();
            let result = self.claim(job.work, &job.cancel).and_then(|prepared| {
                let request = Request {
                    cancel: job.cancel.clone(),
                    parent: Some(job.trace.id()),
                };
                self.engine.run(&prepared, &request)
            });
            job.trace.phase(names::LAT_EXEC, Some(&exec));
            self.resolve(&job.slot, job.trace, result);
        }
    }
}

/// Handle to one submitted query.
pub struct QueryTicket {
    slot: Arc<Slot>,
    cancel: CancelToken,
    inner: Arc<Inner>,
    trace_id: TraceId,
}

impl std::fmt::Debug for QueryTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let resolved = relock(self.slot.result.lock()).is_some();
        f.debug_struct("QueryTicket")
            .field("trace", &self.trace_id)
            .field("resolved", &resolved)
            .finish()
    }
}

impl QueryTicket {
    /// The propagated trace ID this query carries.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    /// The completed trace, once the query resolved (phase attribution,
    /// outcome, latency). `None` while still in flight.
    pub fn trace(&self) -> Option<QueryTrace> {
        relock(self.slot.trace.lock()).clone()
    }

    /// Cancel the query. If it is still queued it resolves with
    /// [`Error::Cancelled`] immediately (no worker involved); if it is
    /// running, the token unwinds it within one sleep slice.
    pub fn cancel(&self) {
        self.cancel.cancel();
        // Pull the job out of the queue if a worker hasn't claimed it.
        let removed = {
            let mut queue = relock(self.inner.queue.lock());
            queue.remove_slot(&self.slot)
        };
        if let Some(job) = removed {
            self.inner.cancel_queued(job);
        }
    }

    /// Block until the query resolves.
    pub fn wait(self) -> Result<QueryResult> {
        let mut cell = relock(self.slot.result.lock());
        // orv-lint: allow(L009) -- every submitted slot is resolved exactly once: a worker resolves it (success, error, shed, or cancel), `cancel()` resolves still-queued slots inline, and service Drop drains the queue resolving leftovers as Cancelled — so this condvar wait always terminates; callers wanting a bound use `wait_timeout`
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = relock(self.slot.done.wait(cell));
        }
    }

    /// Block up to `timeout`; `None` if the query is still in flight
    /// (the ticket remains usable). A zero timeout only looks. The bound
    /// only caps how long the *caller* blocks; it never steers query
    /// execution, so seeded replays are unaffected.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<QueryResult>> {
        if timeout.is_zero() {
            return relock(self.slot.result.lock()).take();
        }
        self.wait_until(&CancelToken::with_deadline(timeout)).ok()
    }

    /// Block until the query resolves *or* `cancel` fires — at its
    /// deadline, or within one [`SLEEP_SLICE`] of a cancel. This is the
    /// one canonical `submit → wait slice → cancel-check` client loop;
    /// every caller that used to open-code it (stress harnesses, the
    /// benchmark's cost ladder) goes through here.
    pub fn wait_cancellable(&self, cancel: &CancelToken) -> Result<QueryResult> {
        self.wait_until(cancel)?
    }

    /// The query's result once it lands, or `until`'s error once that
    /// token fires; each wait is bounded by the token's
    /// [`remaining`](CancelToken::remaining) time and one slice.
    fn wait_until(&self, until: &CancelToken) -> Result<Result<QueryResult>> {
        let mut cell = relock(self.slot.result.lock());
        loop {
            if let Some(result) = cell.take() {
                return Ok(result);
            }
            until.check()?;
            let slice = until
                .remaining()
                .map_or(SLEEP_SLICE, |left| left.min(SLEEP_SLICE));
            cell = relock(self.slot.done.wait_timeout(cell, slice)).0;
        }
    }
}

/// A concurrent query front-end over one shared [`QueryEngine`].
///
/// ```no_run
/// use orv_query::{QueryEngine, service::{QueryService, ServiceConfig}};
/// # fn demo(engine: QueryEngine) -> orv_types::Result<()> {
/// let service = QueryService::new(engine, ServiceConfig::default())?;
/// let ticket = service.submit("SELECT COUNT(*) FROM v1")?;
/// let result = ticket.wait()?;
/// # Ok(()) }
/// ```
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryService {
    /// Spawn the worker pool over `engine`.
    pub fn new(engine: QueryEngine, cfg: ServiceConfig) -> Result<Self> {
        Self::serve(Arc::new(engine), None, cfg)
    }

    /// Spawn the worker pool over a shared `engine` — as federation
    /// shard `(index, placement)` when given: the engine every shard
    /// serves, and the chunks the placement gives this one.
    pub(crate) fn serve(
        engine: Arc<QueryEngine>,
        shard: Option<(usize, Placement)>,
        cfg: ServiceConfig,
    ) -> Result<Self> {
        if cfg.queue_cap == 0 {
            return Err(Error::Config(
                "query service needs queue_cap >= 1 (everything would be rejected)".into(),
            ));
        }
        cfg.overload.validate().map_err(Error::Config)?;
        let group = match shard {
            Some((s, _)) => format!("fed{s}"),
            None => "service".to_string(),
        };
        engine.obs().metrics.gauge(names::OVERLOAD_STATE).set(0);
        let inner = Arc::new(Inner {
            controller: BrownoutController::new(cfg.overload.clone(), cfg.queue_cap),
            engine,
            shard,
            cfg: cfg.clone(),
            queue: Mutex::new(Queues {
                running: vec![None; cfg.workers],
                ..Queues::default()
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            group,
            recorder: FlightRecorder::new(RECORDER_KEEP_SLOWEST, RECORDER_ANOMALY_CAP),
        });
        let workers = (0..cfg.workers)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || inner.worker_loop(me))
            })
            .collect();
        Ok(QueryService { inner, workers })
    }

    /// The served engine (catalog inspection, cache stats, obs handle);
    /// one engine behind every shard of a federation.
    pub fn engine(&self) -> &QueryEngine {
        &self.inner.engine
    }

    /// This service's flight recorder: the K slowest completed queries
    /// plus every anomalous one, with full phase attribution.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Admission/completion counter snapshot.
    pub fn counters(&self) -> ServiceCounters {
        ServiceCounters {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
        }
    }

    /// This service's brownout controller: state, transition log, and
    /// the hedging gate the federation router consults.
    pub fn brownout(&self) -> &BrownoutController {
        &self.inner.controller
    }

    /// Bind and submit one statement under a fresh token with no
    /// deadline. A statement that does not parse or bind is still
    /// admitted; its ticket resolves with the typed error.
    pub fn submit(&self, sql: &str) -> Result<QueryTicket> {
        let cancel = CancelToken::new();
        // Binding is part of admission: the query begins before it.
        let trace = self.inner.begin(sql.to_string(), None);
        let work = self.inner.engine.prepare(sql);
        self.enqueue(trace, work, cancel, None)
    }

    /// Submit a bound statement under a caller-owned [`Request`]: its
    /// token composes cancellation across several queries or carries a
    /// custom deadline; with a `parent`, the minted trace records it and
    /// the query's latency stays out of `lat/total_secs` (its root
    /// already accounts for it). Same queue, admission control and
    /// cancellation whatever the `Prepared` holds — the federation
    /// router's chunk scans take the same path, with a landing signal.
    pub fn submit_prepared(&self, prepared: Prepared, request: Request) -> Result<QueryTicket> {
        let trace = self.inner.begin(prepared.detail.clone(), request.parent);
        self.enqueue(trace, Ok(prepared), request.cancel, None)
    }

    /// [`QueryService::submit_prepared`], pulsing `landing` once the
    /// query's result is published — the federation router's sub-queries
    /// come through here.
    pub(crate) fn submit_signalled(
        &self,
        prepared: Prepared,
        request: Request,
        landing: &Landing,
    ) -> Result<QueryTicket> {
        let trace = self.inner.begin(prepared.detail.clone(), request.parent);
        self.enqueue(trace, Ok(prepared), request.cancel, Some(landing.clone()))
    }

    fn enqueue(
        &self,
        mut trace: TracedQuery,
        work: Result<Prepared>,
        cancel: CancelToken,
        landing: Option<Landing>,
    ) -> Result<QueryTicket> {
        let inner = &self.inner;
        let id = trace.id();
        inner.count(&inner.submitted, names::SERVICE_SUBMITTED);
        // Classify by the §5 cost bound into the statement; one that did
        // not bind predicts zero and fails fast at a worker.
        let predicted_secs = work.as_ref().map_or(0.0, Prepared::predicted_secs);
        let class = inner.cfg.overload.classify(predicted_secs);
        let slot = Slot::new(landing);
        let transition = {
            let mut queue = relock(inner.queue.lock());
            let depth = queue.len();
            // One logical tick per admission decision: the controller
            // observes depth under the queue lock, so a seeded replay
            // of the same submission sequence sees the same ticks.
            let (_, transition) = inner.controller.observe(depth);
            let full = depth >= inner.cfg.queue_cap;
            let shed_by_policy = !full && !inner.controller.allows(class, depth);
            // Admission ends with its decision, whichever way it went.
            trace.phase(names::LAT_ADMISSION, None);
            if full || shed_by_policy {
                drop(queue);
                if let Some(t) = transition {
                    inner.note_transition(t);
                }
                inner.count(&inner.rejected, names::SERVICE_REJECTED);
                if shed_by_policy && class == CostClass::Expensive {
                    inner
                        .engine
                        .obs()
                        .metrics
                        .counter(names::OVERLOAD_SHED_EXPENSIVE)
                        .add(1);
                }
                trace.end(TraceOutcome::Rejected, &inner.recorder);
                return Err(Error::Overloaded {
                    queued: depth,
                    cap: inner.cfg.queue_cap,
                    retry_after_ms: inner.controller.retry_after_ms(),
                });
            }
            let job = Job {
                work,
                cancel: cancel.clone(),
                slot: Arc::clone(&slot),
                trace,
                queued: SpanTimer::start(),
            };
            match class {
                CostClass::Cheap => {
                    inner
                        .engine
                        .obs()
                        .metrics
                        .counter(names::OVERLOAD_FAST_LANE)
                        .add(1);
                    queue.fast.push_back(job);
                }
                CostClass::Expensive => queue.normal.push_back(job),
            }
            transition
        };
        if let Some(t) = transition {
            inner.note_transition(t);
        }
        inner.count(&inner.admitted, names::SERVICE_ADMITTED);
        inner.work.notify_one();
        Ok(QueryTicket {
            slot,
            cancel,
            inner: Arc::clone(inner),
            trace_id: id,
        })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.submit(sql)?.wait()
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Drain: anything still queued resolves as cancelled so no
        // ticket-holder blocks forever on a dead service, and anything
        // running is cancelled, so the join below waits one sleep slice,
        // not the rest of a job.
        let (drained, running): (Vec<Job>, Vec<CancelToken>) = {
            let mut queue = relock(self.inner.queue.lock());
            let running = queue.running.iter().flatten().cloned().collect();
            (queue.drain_all(), running)
        };
        for token in running {
            token.cancel();
        }
        for job in drained {
            job.cancel.cancel();
            self.inner.cancel_queued(job);
        }
        self.inner.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overload::BrownoutState;
    use orv_bds::{generate_dataset, DatasetSpec, Deployment};
    use orv_types::ChunkId;

    fn engine() -> QueryEngine {
        let d = Deployment::in_memory(1);
        for (name, scalar, seed) in [("t1", "oilp", 1u64), ("t2", "wp", 2)] {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([4, 4, 1])
                    .partition([2, 2, 1])
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
    fn execute_matches_direct_engine() {
        let oracle = engine().execute("SELECT COUNT(*) FROM t1").unwrap();
        let svc = QueryService::new(engine(), ServiceConfig::default()).unwrap();
        let got = svc.execute("SELECT COUNT(*) FROM t1").unwrap();
        assert_eq!(got.rows, oracle.rows);
        let c = svc.counters();
        assert_eq!((c.submitted, c.admitted, c.completed), (1, 1, 1));
        assert!(c.admission_balances() && c.completion_balances());
    }

    #[test]
    fn misrouted_chunk_scan_is_refused() {
        let placement = Placement::new(3, 1, 7).unwrap();
        let engine = Arc::new(engine());
        let shard = Some((0, placement));
        let svc =
            QueryService::serve(Arc::clone(&engine), shard, ServiceConfig::default()).unwrap();
        let table = engine.deployment().metadata().table_id("t1").unwrap();
        let chunks = engine.deployment().metadata().all_chunks(table).unwrap();
        let (own, foreign): (Vec<ChunkId>, Vec<ChunkId>) = chunks
            .iter()
            .partition(|&&chunk| placement.owns(0, SubTableId { table, chunk }));
        assert!(!own.is_empty() && !foreign.is_empty(), "seed splits t1");
        let scan = |chunks: Vec<ChunkId>| {
            let job = Prepared::chunk_scan(table, None, chunks, 0.0);
            svc.submit_prepared(job, Request::default()).unwrap().wait()
        };
        let sealed = scan(own.clone()).unwrap();
        let runs = sealed.chunk_runs.unwrap();
        assert_eq!(runs.len(), own.len());
        let rows_crc = crate::exec::rows_checksum(&sealed.rows);
        assert_eq!(
            sealed.checksum,
            Some(crate::exec::seal_runs(rows_crc, &runs))
        );
        // One chunk this shard does not own poisons the whole sub-query.
        let mut mixed = own;
        mixed.push(foreign[0]);
        let err = scan(mixed).unwrap_err();
        assert!(matches!(err, Error::Plan(_)), "{err}");
        assert!(err.to_string().contains("misrouted sub-query"), "{err}");
    }

    /// Each ticket's `exec` row and its `lat/exec_secs` sample are one
    /// measurement: over many tickets the rows sum and count to the
    /// histogram's sum and count.
    #[test]
    fn exec_rows_are_the_exec_samples() {
        let svc = QueryService::new(engine(), ServiceConfig::default()).unwrap();
        let rows: Vec<f64> = (0..16)
            .map(|i| {
                let sql = ["SELECT COUNT(*) FROM t1", "SELECT * FROM t2"][i % 2];
                let ticket = svc.submit(sql).unwrap();
                ticket.wait_cancellable(&CancelToken::none()).unwrap();
                let trace = ticket.trace().unwrap();
                let exec = trace.phases.iter().filter(|r| r.leaf() == "exec");
                exec.map(|r| r.dur_secs).collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .concat();
        let snap = svc.engine().obs().metrics.snapshot();
        let hist = &snap.histograms[names::LAT_EXEC];
        assert_eq!(rows.len() as u64, hist.count);
        let sum: f64 = rows.iter().sum();
        assert!(
            (sum - hist.sum).abs() <= 1e-12 * sum.max(1.0),
            "{sum} vs {}",
            hist.sum
        );
    }

    #[test]
    fn queue_cap_rejects_with_overloaded() {
        // No workers: the queue fills deterministically.
        let svc = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 0,
                queue_cap: 2,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let t1 = svc.submit("SELECT * FROM t1").unwrap();
        let t2 = svc.submit("SELECT * FROM t1").unwrap();
        let err = svc.submit("SELECT * FROM t1").unwrap_err();
        assert!(
            matches!(
                err,
                Error::Overloaded {
                    queued: 2,
                    cap: 2,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("cap 2"), "{err}");
        assert!(
            err.retry_after_ms().unwrap() > 0,
            "rejection carries a hint"
        );
        let c = svc.counters();
        assert_eq!((c.submitted, c.admitted, c.rejected), (3, 2, 1));
        assert!(c.admission_balances());
        // Cancelling a queued ticket resolves it without any worker.
        t1.cancel();
        assert!(matches!(t1.wait(), Err(Error::Cancelled)));
        t2.cancel();
        assert!(matches!(t2.wait(), Err(Error::Cancelled)));
        let c = svc.counters();
        assert_eq!(c.cancelled, 2);
        assert!(c.completion_balances());
    }

    #[test]
    fn rejected_submission_frees_no_queue_slot() {
        let svc = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 0,
                queue_cap: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let t = svc.submit("SELECT * FROM t1").unwrap();
        for _ in 0..3 {
            assert!(matches!(
                svc.submit("SELECT * FROM t1"),
                Err(Error::Overloaded { .. })
            ));
        }
        // Cancelling the queued query frees its slot for a new admit.
        t.cancel();
        assert!(svc.submit("SELECT * FROM t1").is_ok());
    }

    #[test]
    fn zero_queue_cap_is_a_config_error() {
        let err = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 1,
                queue_cap: 0,
                ..ServiceConfig::default()
            },
        )
        .err()
        .unwrap();
        assert!(matches!(err, Error::Config(_)), "{err}");
    }

    /// A query submitted under an already-expired token.
    fn submit_expired(svc: &QueryService) -> QueryTicket {
        let prepared = svc.engine().prepare("SELECT * FROM t1").unwrap();
        let deadline = CancelToken::with_deadline(Duration::ZERO);
        svc.submit_prepared(prepared, deadline.into()).unwrap()
    }

    #[test]
    fn expired_deadline_token_resolves_as_deadline_exceeded() {
        let svc = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 1,
                queue_cap: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let err = submit_expired(&svc).wait().unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded), "{err}");
        // The budget expired while queued, so the query is *shed* — it
        // never touched the engine — rather than counted cancelled.
        let c = svc.counters();
        assert_eq!((c.shed, c.cancelled, c.completed), (1, 0, 0));
        assert!(c.completion_balances());
    }

    #[test]
    fn queue_expired_query_records_queue_wait_only_as_shed() {
        let svc = QueryService::new(
            engine().with_obs(orv_obs::Obs::enabled()),
            ServiceConfig {
                workers: 1,
                queue_cap: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ticket = submit_expired(&svc);
        assert!(matches!(
            ticket.wait_timeout(Duration::from_secs(30)),
            Some(Err(_))
        ));
        let trace = ticket.trace().expect("resolved ticket has a trace");
        assert_eq!(trace.outcome, TraceOutcome::Shed);
        let phase_names: Vec<&str> = trace.phases.iter().map(|r| r.leaf()).collect();
        assert_eq!(
            phase_names,
            vec!["admission", "queue_wait"],
            "no exec phase row may be minted for a shed query"
        );
        let snap = svc.engine().obs().metrics.snapshot();
        assert_eq!(
            snap.counters.get(names::OVERLOAD_SHED_EXPIRED).copied(),
            Some(1)
        );
        assert_eq!(snap.counters.get(names::SERVICE_SHED).copied(), Some(1));
    }

    #[test]
    fn queue_cancelled_query_records_queue_wait_only() {
        let svc = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 0,
                queue_cap: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let ticket = svc.submit("SELECT * FROM t1").unwrap();
        ticket.cancel();
        let trace = ticket
            .trace()
            .expect("queue-side cancel resolves the trace");
        assert_eq!(trace.outcome, TraceOutcome::Cancelled);
        let phase_names: Vec<&str> = trace.phases.iter().map(|r| r.leaf()).collect();
        assert_eq!(phase_names, vec!["admission", "queue_wait"]);
        let c = svc.counters();
        assert_eq!((c.cancelled, c.shed), (1, 0));
        assert!(c.completion_balances());
    }

    #[test]
    fn brownout_sheds_expensive_work_first() {
        // Force every query expensive and enter brownout immediately.
        let svc = QueryService::new(
            engine().with_obs(orv_obs::Obs::enabled()),
            ServiceConfig {
                workers: 0,
                queue_cap: 8,
                overload: OverloadConfig {
                    // Zero threshold: every positive predicted cost
                    // classifies expensive.
                    fast_lane_max_secs: 0.0,
                    brownout_enter: 0.25,
                    recover: 0.1,
                    cooldown_ticks: 1,
                    ..OverloadConfig::default()
                },
            },
        )
        .unwrap();
        let mut admitted = Vec::new();
        let mut rejected = 0;
        for _ in 0..8 {
            match svc.submit("SELECT * FROM t1") {
                Ok(t) => admitted.push(t),
                Err(e) => {
                    assert!(matches!(e, Error::Overloaded { .. }), "{e}");
                    rejected += 1;
                }
            }
        }
        assert!(
            rejected > 0,
            "brownout must shed expensive work below the cap"
        );
        assert!(
            admitted.len() >= 2,
            "work below the brownout threshold still lands"
        );
        assert_ne!(svc.brownout().state(), BrownoutState::Normal);
        let snap = svc.engine().obs().metrics.snapshot();
        assert!(snap.counters.get(names::OVERLOAD_SHED_EXPENSIVE).copied() >= Some(1));
        let c = svc.counters();
        assert!(c.admission_balances());
        for t in admitted {
            t.cancel();
        }
    }

    #[test]
    fn cheap_queries_take_the_fast_lane_past_expensive_ones() {
        // No workers: queue deterministically, then spot-check order by
        // starting one worker via drop-free claim — instead, verify lane
        // membership through the counters and queue introspection.
        let svc = QueryService::new(
            engine().with_obs(orv_obs::Obs::enabled()),
            ServiceConfig {
                workers: 0,
                queue_cap: 8,
                overload: OverloadConfig {
                    // Zero threshold: the scan's positive predicted
                    // cost classifies expensive.
                    fast_lane_max_secs: 0.0,
                    ..OverloadConfig::default()
                },
            },
        )
        .unwrap();
        let t = svc.submit("SELECT * FROM t1").unwrap();
        let snap = svc.engine().obs().metrics.snapshot();
        assert_eq!(snap.counters.get(names::OVERLOAD_FAST_LANE).copied(), None);
        t.cancel();
        // With a generous threshold the same query is cheap.
        let svc = QueryService::new(
            engine().with_obs(orv_obs::Obs::enabled()),
            ServiceConfig {
                workers: 0,
                queue_cap: 8,
                overload: OverloadConfig {
                    fast_lane_max_secs: 1e9,
                    ..OverloadConfig::default()
                },
            },
        )
        .unwrap();
        let t = svc.submit("SELECT * FROM t1").unwrap();
        let snap = svc.engine().obs().metrics.snapshot();
        assert_eq!(
            snap.counters.get(names::OVERLOAD_FAST_LANE).copied(),
            Some(1)
        );
        t.cancel();
    }

    #[test]
    fn drop_drains_queued_tickets_as_cancelled() {
        let svc = QueryService::new(
            engine(),
            ServiceConfig {
                workers: 0,
                queue_cap: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let t1 = svc.submit("SELECT * FROM t1").unwrap();
        let t2 = svc.submit("SELECT * FROM t1").unwrap();
        drop(svc);
        assert!(matches!(t1.wait(), Err(Error::Cancelled)));
        assert!(matches!(t2.wait(), Err(Error::Cancelled)));
    }

    #[test]
    fn service_counters_flow_into_obs_registry() {
        let svc = QueryService::new(
            engine().with_obs(orv_obs::Obs::enabled()),
            ServiceConfig {
                workers: 1,
                queue_cap: 4,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        svc.execute("SELECT COUNT(*) FROM t1").unwrap();
        let snap = svc.engine().obs().metrics.snapshot();
        assert_eq!(
            snap.counters.get(names::SERVICE_SUBMITTED).copied(),
            Some(1)
        );
        assert_eq!(snap.counters.get(names::SERVICE_ADMITTED).copied(), Some(1));
        assert_eq!(
            snap.counters.get(names::SERVICE_COMPLETED).copied(),
            Some(1)
        );
        assert_eq!(snap.counters.get(names::SERVICE_REJECTED).copied(), None);
    }

    #[test]
    fn landing_counts_each_published_result_and_wakes_its_waiter() {
        let cfg = |workers| ServiceConfig {
            workers,
            ..ServiceConfig::default()
        };
        let (svc, idle) = (
            QueryService::new(engine(), cfg(1)).unwrap(),
            QueryService::new(engine(), cfg(0)).unwrap(),
        );
        let landing = Landing::default();
        let prepared = || svc.engine().prepare("SELECT COUNT(*) FROM t1").unwrap();
        let forever = CancelToken::none();
        // A worker publishes the result: the wait returns with it taken.
        let seen = landing.count();
        let ran = svc
            .submit_signalled(prepared(), Request::default(), &landing)
            .unwrap();
        // One bounded wait; like the router, repeat it until the count
        // moves.
        while landing.count() == seen {
            landing.wait_past(seen, Duration::from_secs(60), &forever);
        }
        assert_eq!(landing.count(), seen + 1);
        assert!(ran.wait_timeout(Duration::ZERO).unwrap().is_ok());
        // Cancelling a queued query publishes too.
        let queued = idle
            .submit_signalled(prepared(), Request::default(), &landing)
            .unwrap();
        queued.cancel();
        assert_eq!(landing.count(), seen + 2);
        // With nothing to land, the wait ends at its bound, or at once
        // under a cancelled token.
        let clock = SpanTimer::start();
        landing.wait_past(seen + 2, Duration::from_millis(5), &forever);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        landing.wait_past(seen + 2, Duration::from_secs(60), &cancelled);
        assert!(clock.elapsed_secs() < 30.0, "{}", clock.elapsed_secs());
        // A plain submission carries no landing.
        svc.execute("SELECT COUNT(*) FROM t1").unwrap();
        assert_eq!(landing.count(), seen + 2);
    }
}
