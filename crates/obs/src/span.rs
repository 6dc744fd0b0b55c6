//! Hierarchical wall-clock span timers.
//!
//! A [`SpanTimer`] measures one phase of work; dropping it records the
//! span. Paths are `/`-separated — by convention the first segment names
//! the executing node (`n0`, `s1`, `c2`) and the last segment names the
//! phase (`transfer`, `build`, `probe`, …), which is what the report layer
//! aggregates on. Child spans nest by extending the parent path.
//!
//! A disabled [`Spans`] handle (the default in all runtime configs) makes
//! every operation a single branch on `None` — no allocation, no clock
//! read — which is how instrumentation stays off the microbench profile.

#![allow(
    clippy::disallowed_methods,
    reason = "observability timing owns the wall clock"
)]

use crate::json::JsonValue;
use orv_types::Result;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Start-order sequence number (children have higher seq than their
    /// parent, earlier siblings lower than later ones).
    pub seq: u64,
    /// `/`-separated hierarchical path.
    pub path: String,
    /// Start offset from the collector's epoch, seconds.
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
        crate::json::obj([
            ("seq", self.seq.into()),
            ("path", self.path.as_str().into()),
            ("start_secs", self.start_secs.into()),
            ("dur_secs", self.dur_secs.into()),
        ])
    }

    /// Parse back from [`SpanRecord::to_json_value`] output.
    pub fn from_json_value(v: &JsonValue) -> Result<Self> {
        Ok(SpanRecord {
            seq: v.req_u64("seq")?,
            path: v.req_str("path")?.to_string(),
            start_secs: v.req_f64("start_secs")?,
            dur_secs: v.req_f64("dur_secs")?,
        })
    }
}

struct SpanInner {
    epoch: Instant,
    seq: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

/// A span collector; clone it into every thread that should report spans.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Option<Arc<SpanInner>>,
}

impl Spans {
    /// An enabled collector.
    pub fn enabled() -> Self {
        Spans {
            inner: Some(Arc::new(SpanInner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                records: Mutex::new(Vec::new()),
            })),
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
        self.start(|| path.to_string())
    }

    /// Start a span whose path is only formatted if collection is enabled
    /// — use for `format!`-built paths on warm paths.
    pub fn span_with(&self, path: impl FnOnce() -> String) -> SpanTimer {
        self.start(path)
    }

    fn start(&self, path: impl FnOnce() -> String) -> SpanTimer {
        SpanTimer {
            state: self.inner.as_ref().map(|inner| TimerState {
                inner: Arc::clone(inner),
                path: path(),
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
            }),
        }
    }

    /// All completed spans, in start order.
    pub fn records(&self) -> Vec<SpanRecord> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = inner.records.lock().clone();
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

    /// For each leaf (phase), the *maximum* per-group total — the
    /// critical-path approximation of parallel elapsed time, matching how
    /// the Section 5 cost models charge each phase once at `1/n` speed
    /// rather than summing work across nodes.
    pub fn max_group_secs_by_leaf(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for totals in self.group_leaf_totals().values() {
            for (leaf, secs) in totals {
                let e = out.entry(leaf.clone()).or_insert(0.0);
                *e = e.max(*secs);
            }
        }
        out
    }
}

impl std::fmt::Debug for Spans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Spans(disabled)"),
            Some(i) => write!(f, "Spans({} records)", i.records.lock().len()),
        }
    }
}

struct TimerState {
    inner: Arc<SpanInner>,
    path: String,
    seq: u64,
    start: Instant,
}

/// Live timer for one span; records on drop. No-op when spans are
/// disabled.
pub struct SpanTimer {
    state: Option<TimerState>,
}

impl SpanTimer {
    /// A timer that records nothing (for plumbing through optional paths).
    pub fn noop() -> Self {
        SpanTimer { state: None }
    }

    /// Start a child span `name` under this span's path.
    pub fn child(&self, name: &str) -> SpanTimer {
        SpanTimer {
            state: self.state.as_ref().map(|s| TimerState {
                inner: Arc::clone(&s.inner),
                path: format!("{}/{name}", s.path),
                seq: s.inner.seq.fetch_add(1, Ordering::Relaxed),
                start: Instant::now(),
            }),
        }
    }

    /// Finish now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let dur_secs = s.start.elapsed().as_secs_f64();
            let start_secs = s.start.duration_since(s.inner.epoch).as_secs_f64();
            s.inner.records.lock().push(SpanRecord {
                seq: s.seq,
                path: s.path,
                start_secs,
                dur_secs,
            });
        }
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
        let _t = s.span_with(|| panic!("path closure must not run when disabled"));
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
        let by_leaf = s.max_group_secs_by_leaf();
        assert!(by_leaf.contains_key("build"));
        assert!(by_leaf["build"] >= 0.0);
    }
}
