//! `orv-obs` — the observability spine of the reproduction.
//!
//! Three collectors, bundled into one cloneable [`Obs`] handle:
//!
//! * [`MetricsRegistry`] — named atomic counters/gauges/histograms with
//!   uniform snapshot-merge semantics (counters add, gauges max,
//!   histograms add bucketwise);
//! * [`Spans`] — the one span model's collector: hierarchical wall-clock
//!   [`SpanRecord`]s whose `/`-separated paths (`n0/transfer`,
//!   `c2/scratch_read`, …) aggregate into per-phase critical-path times;
//! * [`EventLog`] — a structured JSON-lines event stream (QES choices,
//!   a chaos run's plan and every fault it fires) for people and outside
//!   tools; a run replays from its seed.
//!
//! Every JSON form here is write-only: the one JSON the program reads
//! back is the metadata catalog, through [`JsonValue::parse`].
//!
//! The same span model traces served queries: a [`TracedQuery`] times
//! each serving phase once, and that one measurement is the `lat/*`
//! sample, the [`QueryTrace`] row and the global span alike; the
//! [`FlightRecorder`] keeps the traces worth reading.
//!
//! `Obs::disabled()` is the default everywhere in the runtime configs:
//! disabled spans and events cost one branch, so the instrumented join
//! path stays within the <5% overhead budget when observability is off.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

mod event;
mod json;
mod metrics;
pub mod names;
mod report;
mod span;
/// Unit tests of [`span`]'s traced-query half; they keep their own module.
#[cfg(test)]
mod trace {
    mod tests;
}

pub use event::{Event, EventLog};
pub use json::{obj, write_number, write_string, JsonValue, MAX_SAFE_INTEGER};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use report::{required_phases, ObsReport, PhaseRow, RunReport, GH_PHASES, IJ_PHASES};
pub use span::{
    FlightRecorder, QueryTrace, SpanRecord, SpanTimer, Spans, TraceId, TraceOutcome, TracedQuery,
};

/// One handle carrying all three observability collectors; clone it into
/// each service/config. The metrics registry is always live (atomic
/// increments are cheap and only touched at merge points); spans and
/// events honour the enabled/disabled mode.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Named instruments.
    pub metrics: MetricsRegistry,
    /// Span timers.
    pub spans: Spans,
    /// Structured events.
    pub events: EventLog,
}

impl Obs {
    /// Fully enabled observability.
    pub fn enabled() -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            spans: Spans::enabled(),
            events: EventLog::enabled(),
        }
    }

    /// Disabled spans/events (the default); the registry still works.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// Whether span/event collection is on.
    pub fn is_enabled(&self) -> bool {
        self.spans.is_enabled() || self.events.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        assert!(!obs.spans.is_enabled());
        assert!(!obs.events.is_enabled());
        // Registry still functions in disabled mode.
        obs.metrics.counter("x").inc();
        assert_eq!(obs.metrics.snapshot().counters["x"], 1);
    }

    #[test]
    fn enabled_collects_everything() {
        let obs = Obs::enabled();
        assert!(obs.is_enabled());
        obs.spans.span("g/leaf").finish();
        obs.events.emit("e", Vec::new);
        assert_eq!(obs.spans.records().len(), 1);
        assert_eq!(obs.events.events().len(), 1);
    }
}
