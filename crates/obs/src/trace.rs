//! Serving-path tracing: propagated query IDs, per-query phase
//! attribution and the slow-query flight recorder.
//!
//! A [`TraceId`] is minted once per client query (at `QueryService::submit`
//! or the federated router) and carried through admission, the worker
//! pool, plan/exec and every federated sub-query, so the events and spans
//! of one query — across all shards it touched — stitch into a single
//! tree keyed by the ID. When a query resolves, the service folds its
//! phase attributions into a [`QueryTrace`] and hands it to the
//! [`FlightRecorder`], which retains the K slowest plus every
//! failed/partial/cancelled query for post-hoc debugging.

#![allow(
    clippy::disallowed_methods,
    reason = "observability timing owns the wall clock"
)]

use crate::json::{obj, JsonValue};
use orv_types::{Error, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

    /// Rebuild from a raw value (e.g. parsed back out of an event log).
    pub fn from_raw(raw: u64) -> Self {
        TraceId(raw)
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

/// A wall-clock stopwatch for serving-path phase attribution.
///
/// Lives here because `crates/obs` is the one sanctioned home for ambient
/// clock reads (lint rule L006): services measure queue-wait/exec/merge
/// times through this instead of touching `Instant` directly.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
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

    /// Parse the string form back.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "ok" => Ok(TraceOutcome::Ok),
            "partial" => Ok(TraceOutcome::Partial),
            "error" => Ok(TraceOutcome::Error),
            "cancelled" => Ok(TraceOutcome::Cancelled),
            "rejected" => Ok(TraceOutcome::Rejected),
            "shed" => Ok(TraceOutcome::Shed),
            other => Err(Error::Config(format!("unknown trace outcome `{other}`"))),
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
    /// `(phase, seconds)` attribution rows, in serving order. Phases are
    /// the `lat/*` leaf names (`queue_wait`, `exec`, `merge`, …).
    pub phases: Vec<(String, f64)>,
    /// Sub-query traces, one per federated flight that resolved.
    pub children: Vec<QueryTrace>,
}

impl QueryTrace {
    /// Sum of the phase attributions (children not included).
    pub fn phase_total_secs(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Seconds attributed to `phase`, or zero.
    pub fn phase_secs(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(p, _)| p == phase)
            .map(|(_, s)| s)
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
        obj([
            ("trace", self.trace.into()),
            (
                "parent",
                match self.parent {
                    Some(p) => p.into(),
                    None => JsonValue::Null,
                },
            ),
            ("group", self.group.as_str().into()),
            ("detail", self.detail.as_str().into()),
            ("outcome", self.outcome.as_str().into()),
            ("total_secs", self.total_secs.into()),
            (
                "phases",
                JsonValue::Array(
                    self.phases
                        .iter()
                        .map(|(p, s)| obj([("phase", p.as_str().into()), ("secs", (*s).into())]))
                        .collect(),
                ),
            ),
            (
                "children",
                JsonValue::Array(self.children.iter().map(|c| c.to_json_value()).collect()),
            ),
        ])
    }

    /// Parse back from [`QueryTrace::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self> {
        let parent = match v.req("parent")? {
            JsonValue::Null => None,
            p => {
                Some(TraceId::from_raw(p.as_u64().ok_or_else(|| {
                    Error::Config("`parent` is not a u64".into())
                })?))
            }
        };
        let phases = v
            .req("phases")?
            .as_array()
            .ok_or_else(|| Error::Config("`phases` is not an array".into()))?
            .iter()
            .map(|p| Ok((p.req_str("phase")?.to_string(), p.req_f64("secs")?)))
            .collect::<Result<_>>()?;
        let children = v
            .req("children")?
            .as_array()
            .ok_or_else(|| Error::Config("`children` is not an array".into()))?
            .iter()
            .map(QueryTrace::from_json_value)
            .collect::<Result<_>>()?;
        Ok(QueryTrace {
            trace: TraceId::from_raw(v.req_u64("trace")?),
            parent,
            group: v.req_str("group")?.to_string(),
            detail: v.req_str("detail")?.to_string(),
            outcome: TraceOutcome::parse(v.req_str("outcome")?)?,
            total_secs: v.req_f64("total_secs")?,
            phases,
            children,
        })
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
            for (p, s) in &t.phases {
                out.push_str(&format!(" {p}={s:.4}s"));
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

    /// Parse traces back from [`FlightRecorder::to_json_lines`] output.
    pub fn from_json_lines(text: &str) -> Result<Vec<QueryTrace>> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| QueryTrace::from_json_value(&JsonValue::parse(l)?))
            .collect()
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

    fn trace(raw: u64, outcome: TraceOutcome, total: f64) -> QueryTrace {
        QueryTrace {
            trace: TraceId::from_raw(raw),
            parent: None,
            group: "service".into(),
            detail: "SELECT 1".into(),
            outcome,
            total_secs: total,
            phases: vec![
                ("queue_wait".into(), total / 4.0),
                ("exec".into(), total / 2.0),
            ],
            children: Vec::new(),
        }
    }

    #[test]
    fn minted_ids_are_unique_and_increasing() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert!(b.raw() > a.raw());
        assert_eq!(TraceId::from_raw(a.raw()), a);
        assert_eq!(format!("{a}"), format!("t{}", a.raw()));
    }

    #[test]
    fn trace_json_round_trips_with_children() {
        let mut root = trace(10, TraceOutcome::Partial, 1.0);
        root.group = "fed".into();
        let mut child = trace(11, TraceOutcome::Ok, 0.4);
        child.parent = Some(root.trace);
        child.group = "fed2".into();
        root.children.push(child);
        let parsed = QueryTrace::from_json_value(&root.to_json_value()).unwrap();
        assert_eq!(parsed, root);
        assert_eq!(parsed.tree_size(), 2);
        assert_eq!(parsed.children[0].parent, Some(root.trace));
        let tree = root.render_tree();
        assert!(tree.contains("[fed]"));
        assert!(tree.contains("  t11 [fed2]"));
    }

    #[test]
    fn phase_accessors_sum() {
        let t = trace(1, TraceOutcome::Ok, 1.0);
        assert!((t.phase_secs("exec") - 0.5).abs() < 1e-12);
        assert_eq!(t.phase_secs("nope"), 0.0);
        assert!((t.phase_total_secs() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn recorder_keeps_k_slowest() {
        let rec = FlightRecorder::new(2, 8);
        for (id, total) in [(1, 0.1), (2, 0.5), (3, 0.3), (4, 0.2)] {
            rec.record(trace(id, TraceOutcome::Ok, total));
        }
        let slow = rec.slowest();
        assert_eq!(
            slow.iter().map(|t| t.trace.raw()).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(rec.recorded(), 4);
        assert!(rec.anomalies().is_empty());
    }

    #[test]
    fn recorder_retains_all_anomalies_up_to_cap() {
        let rec = FlightRecorder::new(1, 2);
        rec.record(trace(1, TraceOutcome::Error, 0.01));
        rec.record(trace(2, TraceOutcome::Cancelled, 0.02));
        rec.record(trace(3, TraceOutcome::Partial, 0.03));
        // Ring of 2: oldest anomaly evicted.
        assert_eq!(
            rec.anomalies()
                .iter()
                .map(|t| t.trace.raw())
                .collect::<Vec<_>>(),
            vec![2, 3]
        );
        rec.record(trace(4, TraceOutcome::Ok, 9.0));
        assert_eq!(rec.slowest().len(), 1);
        assert_eq!(rec.recorded(), 4);
    }

    #[test]
    fn json_lines_round_trip() {
        let rec = FlightRecorder::new(4, 4);
        rec.record(trace(1, TraceOutcome::Ok, 0.5));
        rec.record(trace(2, TraceOutcome::Rejected, 0.0));
        let lines = rec.to_json_lines();
        let parsed = FlightRecorder::from_json_lines(&lines).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].outcome, TraceOutcome::Ok);
        assert_eq!(parsed[1].outcome, TraceOutcome::Rejected);
        assert!(FlightRecorder::from_json_lines("{bad").is_err());
    }

    #[test]
    fn outcome_strings_round_trip() {
        for o in [
            TraceOutcome::Ok,
            TraceOutcome::Partial,
            TraceOutcome::Error,
            TraceOutcome::Cancelled,
            TraceOutcome::Rejected,
            TraceOutcome::Shed,
        ] {
            assert_eq!(TraceOutcome::parse(o.as_str()).unwrap(), o);
        }
        assert!(TraceOutcome::parse("??").is_err());
        assert!(!TraceOutcome::Ok.is_anomaly());
        assert!(TraceOutcome::Rejected.is_anomaly());
        assert!(TraceOutcome::Shed.is_anomaly());
    }
}
