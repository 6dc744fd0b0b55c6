//! The one span model: wall-clock span timers, the per-query traces they
//! attribute, and the slow-query flight recorder.
//!
//! A [`SpanTimer`] measures one interval. Recorded spans are
//! [`SpanRecord`]s with `/`-separated paths — by convention the first
//! segment names the executing node or group (`n0`, `s1`, `c2`,
//! `service`, `fed`) and the last names the phase (`transfer`, `build`,
//! `exec`, …), which is what the report layer aggregates on. Child spans
//! nest by extending the parent path.
//!
//! A served query is a [`TracedQuery`]: *begin* mints its [`TraceId`],
//! each *phase* is one measurement that feeds the `lat/*` histogram, the
//! query's attribution row and — when spans are enabled — the global
//! collector, and *end* folds the rows into a [`QueryTrace`] for the
//! [`FlightRecorder`], which retains the K slowest plus every
//! failed/partial/cancelled query. Federated sub-queries carry their
//! root's ID, so one query's traces stitch into a single tree.
//!
//! This module is the one home of the wall clock besides
//! `orv_cluster::cancel` (DESIGN.md §10): every timer in the runtime is a
//! [`SpanTimer`]. Records share one process epoch and one start-order
//! sequence, so a record reads the same in a trace and in a collector. A
//! disabled [`Spans`] handle (the default in all runtime configs) makes
//! every span a single branch on `None` — no allocation, no clock read.

#![allow(
    clippy::disallowed_methods,
    reason = "observability timing owns the wall clock"
)]

use crate::json::{obj, JsonValue};
use crate::{names, Obs};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Start-order source for every span in the process.
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);

/// The instant every record's `start_secs` counts from.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// One clock read: when an interval started, and its start-order number.
#[derive(Clone, Copy)]
struct Clock {
    seq: u64,
    start: Instant,
}

impl Clock {
    fn now() -> Self {
        EPOCH.get_or_init(Instant::now);
        Clock {
            seq: NEXT_SEQ.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
        }
    }

    /// Close the interval now, as a record at `path`.
    fn close(self, path: String) -> SpanRecord {
        let dur_secs = self.start.elapsed().as_secs_f64();
        let epoch = EPOCH.get_or_init(Instant::now);
        SpanRecord {
            seq: self.seq,
            path,
            start_secs: self.start.duration_since(*epoch).as_secs_f64(),
            dur_secs,
        }
    }
}

/// One completed span: a collector's record and a trace's attribution
/// row alike.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Start-order sequence number (children have higher seq than their
    /// parent, earlier siblings lower than later ones).
    pub seq: u64,
    /// `/`-separated hierarchical path.
    pub path: String,
    /// Start offset from the process's span epoch, seconds.
    pub start_secs: f64,
    /// Duration, seconds.
    pub dur_secs: f64,
}

impl SpanRecord {
    /// The last path segment — the phase name.
    pub fn leaf(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// The first path segment — the node/group name.
    pub fn group(&self) -> &str {
        self.path.split('/').next().unwrap_or(&self.path)
    }

    /// Serialize as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        obj([
            ("seq", self.seq.into()),
            ("path", self.path.as_str().into()),
            ("start_secs", self.start_secs.into()),
            ("dur_secs", self.dur_secs.into()),
        ])
    }
}

/// A span collector; clone it into every thread that should report spans.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Option<Arc<Mutex<Vec<SpanRecord>>>>,
}

impl Spans {
    /// An enabled collector.
    pub fn enabled() -> Self {
        Spans {
            inner: Some(Arc::default()),
        }
    }

    /// A disabled collector: every operation is a no-op.
    pub fn disabled() -> Self {
        Spans { inner: None }
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a span at `path`. Records when the returned timer drops.
    pub fn span(&self, path: &str) -> SpanTimer {
        self.span_with(|| path.to_string())
    }

    /// Start a span whose path is only formatted if collection is enabled
    /// — use for `format!`-built paths on warm paths.
    pub fn span_with(&self, path: impl FnOnce() -> String) -> SpanTimer {
        match &self.inner {
            None => SpanTimer::INERT,
            Some(inner) => SpanTimer {
                clock: Some(Clock::now()),
                sink: Some((Arc::clone(inner), path())),
            },
        }
    }

    fn push(&self, record: &SpanRecord) {
        if let Some(inner) = &self.inner {
            inner.lock().push(record.clone());
        }
    }

    /// All completed spans, in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.lock().clone();
        out.sort_by_key(|r| r.seq);
        out
    }

    /// Total seconds per leaf (phase) name, summed over all groups.
    pub fn total_secs_by_leaf(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for r in self.records() {
            *out.entry(r.leaf().to_string()).or_insert(0.0) += r.dur_secs;
        }
        out
    }

    /// Per-group totals per leaf: `group → leaf → seconds`.
    pub fn group_leaf_totals(&self) -> BTreeMap<String, BTreeMap<String, f64>> {
        let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
        for r in self.records() {
            *out.entry(r.group().to_string())
                .or_default()
                .entry(r.leaf().to_string())
                .or_insert(0.0) += r.dur_secs;
        }
        out
    }
}

impl std::fmt::Debug for Spans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Spans(disabled)"),
            Some(i) => write!(f, "Spans({} records)", i.lock().len()),
        }
    }
}

/// The one timer. A span from an enabled [`Spans`] records when it drops;
/// [`SpanTimer::start`] only measures; a span from a disabled collector
/// reads no clock and measures zero.
pub struct SpanTimer {
    clock: Option<Clock>,
    sink: Option<(Arc<Mutex<Vec<SpanRecord>>>, String)>,
}

impl SpanTimer {
    const INERT: SpanTimer = SpanTimer {
        clock: None,
        sink: None,
    };

    /// Start timing now, recording nowhere: its [`elapsed_secs`] is
    /// the measurement.
    ///
    /// [`elapsed_secs`]: SpanTimer::elapsed_secs
    pub fn start() -> Self {
        SpanTimer {
            clock: Some(Clock::now()),
            sink: None,
        }
    }

    /// Start a child span `name` under this span's path (inert unless
    /// this span records).
    pub fn child(&self, name: &str) -> SpanTimer {
        match &self.sink {
            None => SpanTimer::INERT,
            Some((inner, path)) => SpanTimer {
                clock: Some(Clock::now()),
                sink: Some((Arc::clone(inner), format!("{path}/{name}"))),
            },
        }
    }

    /// Seconds since the timer started (zero for an inert span).
    pub fn elapsed_secs(&self) -> f64 {
        self.clock.map_or(0.0, |c| c.start.elapsed().as_secs_f64())
    }

    /// Finish now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let (Some(clock), Some((inner, path))) = (self.clock, self.sink.take()) {
            inner.lock().push(clock.close(path));
        }
    }
}

impl Obs {
    /// Close one serving phase that began at `since`: its one measurement
    /// is the `lat` histogram's sample and the span `{group}/{phase}`
    /// (global when spans are enabled), returned as the record.
    pub fn phase(&self, lat: &str, group: &str, since: &SpanTimer) -> SpanRecord {
        let clock = since.clock.unwrap_or_else(Clock::now);
        let record = clock.close(format!("{group}/{}", names::lat_phase(lat)));
        self.metrics.record_latency(lat, record.dur_secs);
        self.spans.push(&record);
        record
    }
}

/// Process-wide trace-ID source; IDs are unique across every service in
/// the process, which is what lets federated sub-queries reference their
/// root unambiguously.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// The identity of one client query, propagated end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Mint a fresh process-unique ID.
    pub fn mint() -> Self {
        TraceId(NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw numeric value, as it appears in event payloads.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<TraceId> for JsonValue {
    fn from(id: TraceId) -> Self {
        JsonValue::Number(id.0 as f64)
    }
}

/// How one traced query ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Resolved with a complete result.
    Ok,
    /// Resolved with a `PartialResult` (federated degradation).
    Partial,
    /// Resolved with a non-cancellation error.
    Error,
    /// Resolved as `Cancelled`/`DeadlineExceeded`.
    Cancelled,
    /// Bounced at admission control (`Error::Overloaded`).
    Rejected,
    /// Admitted, but shed before touching a worker: the deadline budget
    /// expired in the queue, or the brownout shedder dropped it.
    Shed,
}

impl TraceOutcome {
    /// The stable string form used in JSON dumps and `trace_end` events.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOutcome::Ok => "ok",
            TraceOutcome::Partial => "partial",
            TraceOutcome::Error => "error",
            TraceOutcome::Cancelled => "cancelled",
            TraceOutcome::Rejected => "rejected",
            TraceOutcome::Shed => "shed",
        }
    }

    /// Anything other than a clean completion belongs in the anomaly ring.
    pub fn is_anomaly(self) -> bool {
        !matches!(self, TraceOutcome::Ok)
    }
}

/// The completed trace of one query: identity, phase attribution and the
/// sub-query traces it fanned out (one child per shard flight).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    /// This query's trace ID.
    pub trace: TraceId,
    /// The root query's trace ID, when this is a federated sub-query.
    pub parent: Option<TraceId>,
    /// Where the query ran (`service`, `fed`, `fed3`, …).
    pub group: String,
    /// What the query was (SQL text or a scan description).
    pub detail: String,
    /// How it ended.
    pub outcome: TraceOutcome,
    /// End-to-end latency, submit to resolve, seconds.
    pub total_secs: f64,
    /// Attribution rows, in serving order: one `{group}/{phase}` span per
    /// phase, whose leaf is the `lat/*` phase name (`queue_wait`, `exec`,
    /// `merge`, …).
    pub phases: Vec<SpanRecord>,
    /// Sub-query traces, one per federated flight that resolved.
    pub children: Vec<QueryTrace>,
}

impl QueryTrace {
    /// Sum of the phase attributions (children not included).
    pub fn phase_total_secs(&self) -> f64 {
        self.phases.iter().map(|r| r.dur_secs).sum()
    }

    /// Seconds attributed to `phase`, or zero.
    pub fn phase_secs(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .filter(|r| r.leaf() == phase)
            .map(|r| r.dur_secs)
            .sum()
    }

    /// This trace plus all descendants, depth-first.
    pub fn tree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(QueryTrace::tree_size)
            .sum::<usize>()
    }

    /// Serialize as a JSON value (recursively, children included).
    pub fn to_json_value(&self) -> JsonValue {
        let phases = self.phases.iter().map(SpanRecord::to_json_value);
        let children = self.children.iter().map(QueryTrace::to_json_value);
        obj([
            ("trace", self.trace.into()),
            ("parent", self.parent.map_or(JsonValue::Null, Into::into)),
            ("group", self.group.as_str().into()),
            ("detail", self.detail.as_str().into()),
            ("outcome", self.outcome.as_str().into()),
            ("total_secs", self.total_secs.into()),
            ("phases", JsonValue::Array(phases.collect())),
            ("children", JsonValue::Array(children.collect())),
        ])
    }

    /// Render the span tree as an indented text block (for README dumps
    /// and debugging).
    pub fn render_tree(&self) -> String {
        fn walk(t: &QueryTrace, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!(
                "{pad}{} [{}] {} {:.4}s",
                t.trace,
                t.group,
                t.outcome.as_str(),
                t.total_secs
            ));
            for r in &t.phases {
                out.push_str(&format!(" {}={:.4}s", r.leaf(), r.dur_secs));
            }
            out.push('\n');
            for c in &t.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

/// One served query from begin to end — the lifecycle the query
/// service and the federated router both run.
pub struct TracedQuery {
    obs: Obs,
    id: TraceId,
    parent: Option<TraceId>,
    group: String,
    detail: String,
    /// Started at begin; its elapsed time at end is the total.
    born: SpanTimer,
    phases: Vec<SpanRecord>,
    children: Vec<QueryTrace>,
}

impl TracedQuery {
    /// *Begin*: start the query's clock, mint its [`TraceId`] (under
    /// `parent`, for a sub-query) and emit `trace_begin`.
    pub fn begin(obs: &Obs, group: &str, detail: String, parent: Option<TraceId>) -> Self {
        let born = SpanTimer::start();
        let id = TraceId::mint();
        obs.events.emit(names::TRACE_BEGIN, || {
            vec![
                ("trace", id.into()),
                ("parent", parent.map_or(JsonValue::Null, Into::into)),
                ("group", group.into()),
                ("detail", detail.as_str().into()),
            ]
        });
        TracedQuery {
            obs: obs.clone(),
            id,
            parent,
            group: group.to_string(),
            detail,
            born,
            phases: Vec::new(),
            children: Vec::new(),
        }
    }

    /// The query's trace ID.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// *Phase*: close the `lat` phase that began at `since` (at the
    /// query's begin when `None`) — one measurement for the histogram,
    /// this trace's row and the global span. Returns its seconds.
    pub fn phase(&mut self, lat: &str, since: Option<&SpanTimer>) -> f64 {
        let since = since.unwrap_or(&self.born);
        let record = self.obs.phase(lat, &self.group, since);
        let secs = record.dur_secs;
        self.phases.push(record);
        secs
    }

    /// Stitch in a resolved sub-query's trace.
    pub fn adopt(&mut self, child: Option<QueryTrace>) {
        self.children.extend(child);
    }

    /// *End*: record the total (into `lat/total_secs` for a root that
    /// was not rejected — sub-queries are part of their root's total, and
    /// a rejection's ~zero would only dilute the distribution), emit
    /// `trace_end` and offer the trace to `recorder`.
    pub fn end(self, outcome: TraceOutcome, recorder: &FlightRecorder) -> QueryTrace {
        let total_secs = self.born.elapsed_secs();
        if self.parent.is_none() && outcome != TraceOutcome::Rejected {
            self.obs
                .metrics
                .record_latency(names::LAT_TOTAL, total_secs);
        }
        self.obs.events.emit(names::TRACE_END, || {
            vec![
                ("trace", self.id.into()),
                ("group", self.group.as_str().into()),
                ("outcome", outcome.as_str().into()),
                ("total_secs", total_secs.into()),
            ]
        });
        let trace = QueryTrace {
            trace: self.id,
            parent: self.parent,
            group: self.group,
            detail: self.detail,
            outcome,
            total_secs,
            phases: self.phases,
            children: self.children,
        };
        recorder.record(trace.clone());
        trace
    }
}

struct RecorderState {
    /// The K slowest cleanly-completed traces, slowest first.
    slowest: Vec<QueryTrace>,
    /// Every anomalous trace (failed/partial/cancelled/rejected), oldest
    /// evicted first once the ring is full.
    anomalies: VecDeque<QueryTrace>,
    recorded: u64,
}

/// A bounded ring of completed query traces: the K slowest plus all
/// anomalies, dumpable as JSON lines for post-hoc debugging.
pub struct FlightRecorder {
    keep_slowest: usize,
    anomaly_cap: usize,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// Retain the `keep_slowest` slowest clean queries and up to
    /// `anomaly_cap` most-recent anomalous ones.
    pub fn new(keep_slowest: usize, anomaly_cap: usize) -> Self {
        FlightRecorder {
            keep_slowest,
            anomaly_cap,
            state: Mutex::new(RecorderState {
                slowest: Vec::new(),
                anomalies: VecDeque::new(),
                recorded: 0,
            }),
        }
    }

    /// Record one completed trace.
    pub fn record(&self, trace: QueryTrace) {
        let mut st = self.state.lock();
        st.recorded += 1;
        if trace.outcome.is_anomaly() {
            if st.anomalies.len() == self.anomaly_cap {
                st.anomalies.pop_front();
            }
            if self.anomaly_cap > 0 {
                st.anomalies.push_back(trace);
            }
        } else {
            // Insertion keeps the pool sorted slowest-first; ties keep the
            // earlier arrival, so recording order stays deterministic.
            let at = st
                .slowest
                .partition_point(|t| t.total_secs >= trace.total_secs);
            st.slowest.insert(at, trace);
            st.slowest.truncate(self.keep_slowest);
        }
    }

    /// Total traces ever offered to the recorder (retained or not).
    pub fn recorded(&self) -> u64 {
        self.state.lock().recorded
    }

    /// The retained slow queries, slowest first.
    pub fn slowest(&self) -> Vec<QueryTrace> {
        self.state.lock().slowest.clone()
    }

    /// The retained anomalies, oldest first.
    pub fn anomalies(&self) -> Vec<QueryTrace> {
        self.state.lock().anomalies.iter().cloned().collect()
    }

    /// Every retained trace — slowest pool then anomalies — as one JSON
    /// object per line.
    pub fn to_json_lines(&self) -> String {
        let st = self.state.lock();
        st.slowest
            .iter()
            .chain(st.anomalies.iter())
            .map(|t| t.to_json_value().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FlightRecorder")
            .field("slowest", &st.slowest.len())
            .field("anomalies", &st.anomalies.len())
            .field("recorded", &st.recorded)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let s = Spans::disabled();
        assert!(!s.is_enabled());
        {
            let t = s.span("a");
            let _c = t.child("b");
        }
        assert!(s.records().is_empty());
    }

    #[test]
    fn disabled_span_with_never_formats_the_path() {
        // The disabled-overhead guarantee: a span on a warm path costs one
        // branch, not a `format!` allocation.
        let s = Spans::disabled();
        let t = s.span_with(|| panic!("path closure must not run when disabled"));
        assert_eq!(t.elapsed_secs(), 0.0, "and reads no clock");
    }

    #[test]
    fn paths_nest_and_order_by_start() {
        let s = Spans::enabled();
        {
            let t = s.span("n0/transfer");
            let c = t.child("decode");
            c.finish();
            t.child("route").finish();
        }
        s.span("n1/build").finish();
        let recs = s.records();
        let paths: Vec<_> = recs.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "n0/transfer",
                "n0/transfer/decode",
                "n0/transfer/route",
                "n1/build"
            ]
        );
        assert_eq!(recs[1].leaf(), "decode");
        assert_eq!(recs[1].group(), "n0");
    }

    #[test]
    fn group_and_leaf_aggregation() {
        let s = Spans::enabled();
        s.span("n0/build").finish();
        s.span("n0/probe").finish();
        s.span("n1/build").finish();
        let groups = s.group_leaf_totals();
        assert_eq!(groups.len(), 2);
        assert!(groups["n0"].contains_key("build"));
        assert!(groups["n0"].contains_key("probe"));
        let by_leaf = s.total_secs_by_leaf();
        assert!(by_leaf.contains_key("build"));
        assert!(by_leaf["build"] >= 0.0);
    }

    #[test]
    fn one_phase_is_one_measurement_in_all_three_sinks() {
        let obs = Obs::enabled();
        let mut q = TracedQuery::begin(&obs, "service", "SELECT 1".into(), None);
        let since = SpanTimer::start();
        let secs = q.phase(names::LAT_EXEC, Some(&since));
        let t = q.end(TraceOutcome::Ok, &FlightRecorder::new(1, 1));
        let hist = &obs.metrics.snapshot().histograms[names::LAT_EXEC];
        assert_eq!((hist.count, hist.sum), (1, secs));
        assert_eq!(obs.spans.records(), t.phases);
        assert_eq!(t.phases[0].path, "service/exec");
        assert_eq!(t.phase_secs("exec"), secs);
    }
}
