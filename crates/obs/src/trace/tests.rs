//! Unit tests of the traced-query half of the span module: trace IDs,
//! trace JSON, phase accessors and the flight recorder.

use crate::{FlightRecorder, JsonValue, QueryTrace, SpanRecord, TraceId, TraceOutcome};

fn row(path: &str, dur_secs: f64) -> SpanRecord {
    SpanRecord {
        seq: 0,
        path: path.into(),
        start_secs: 0.0,
        dur_secs,
    }
}

fn trace(outcome: TraceOutcome, total: f64) -> QueryTrace {
    QueryTrace {
        trace: TraceId::mint(),
        parent: None,
        group: "service".into(),
        detail: "SELECT 1".into(),
        outcome,
        total_secs: total,
        phases: vec![
            row("service/queue_wait", total / 4.0),
            row("service/exec", total / 2.0),
        ],
        children: Vec::new(),
    }
}

/// The retained traces' totals, in retention order.
fn totals(traces: &[QueryTrace]) -> Vec<f64> {
    traces.iter().map(|t| t.total_secs).collect()
}

/// The six outcomes, in declaration order.
const OUTCOMES: [TraceOutcome; 6] = [
    TraceOutcome::Ok,
    TraceOutcome::Partial,
    TraceOutcome::Error,
    TraceOutcome::Cancelled,
    TraceOutcome::Rejected,
    TraceOutcome::Shed,
];

#[test]
fn minted_ids_are_unique_and_increasing() {
    let a = TraceId::mint();
    let b = TraceId::mint();
    assert!(b.raw() > a.raw());
    assert_eq!(format!("{a}"), format!("t{}", a.raw()));
}

#[test]
fn trace_json_round_trips_with_children() {
    let mut root = trace(TraceOutcome::Partial, 1.0);
    root.group = "fed".into();
    let mut child = trace(TraceOutcome::Ok, 0.4);
    child.parent = Some(root.trace);
    child.group = "fed2".into();
    root.children.push(child.clone());
    let v = JsonValue::parse(&root.to_json_value().to_string()).unwrap();
    assert_eq!(v.req_u64("trace").unwrap(), root.trace.raw());
    assert_eq!(v.req("parent").unwrap(), &JsonValue::Null);
    assert_eq!(v.req_str("group").unwrap(), "fed");
    assert_eq!(v.req_str("detail").unwrap(), "SELECT 1");
    assert_eq!(v.req_str("outcome").unwrap(), "partial");
    assert_eq!(v.req_f64("total_secs").unwrap(), 1.0);
    let phases = v.req("phases").unwrap().as_array().unwrap();
    let want: Vec<JsonValue> = root.phases.iter().map(SpanRecord::to_json_value).collect();
    assert_eq!(phases, want);
    assert_eq!(phases[1].req_str("path").unwrap(), "service/exec");
    assert_eq!(phases[1].req_f64("dur_secs").unwrap(), 0.5);
    let children = v.req("children").unwrap().as_array().unwrap();
    assert_eq!(children.len(), 1);
    assert_eq!(children[0].req_u64("trace").unwrap(), child.trace.raw());
    assert_eq!(children[0].req_u64("parent").unwrap(), root.trace.raw());
    assert_eq!(children[0].req_str("group").unwrap(), "fed2");
    assert!(children[0]
        .req("children")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());
    assert_eq!(root.tree_size(), 2);
    let tree = root.render_tree();
    assert!(tree.contains("[fed]"));
    assert!(
        tree.contains(&format!("  {} [fed2]", child.trace)),
        "{tree}"
    );
    assert!(tree.contains(" queue_wait=0.2500s exec=0.5000s"), "{tree}");
}

#[test]
fn phase_accessors_sum() {
    let t = trace(TraceOutcome::Ok, 1.0);
    assert!((t.phase_secs("exec") - 0.5).abs() < 1e-12);
    assert_eq!(t.phase_secs("nope"), 0.0);
    assert!((t.phase_total_secs() - 0.75).abs() < 1e-12);
}

#[test]
fn recorder_keeps_k_slowest() {
    let rec = FlightRecorder::new(2, 8);
    for total in [0.1, 0.5, 0.3, 0.2] {
        rec.record(trace(TraceOutcome::Ok, total));
    }
    assert_eq!(totals(&rec.slowest()), vec![0.5, 0.3]);
    assert_eq!(rec.recorded(), 4);
    assert!(rec.anomalies().is_empty());
}

#[test]
fn recorder_retains_all_anomalies_up_to_cap() {
    let rec = FlightRecorder::new(1, 2);
    rec.record(trace(TraceOutcome::Error, 0.01));
    rec.record(trace(TraceOutcome::Cancelled, 0.02));
    rec.record(trace(TraceOutcome::Partial, 0.03));
    // Ring of 2: oldest anomaly evicted.
    assert_eq!(totals(&rec.anomalies()), vec![0.02, 0.03]);
    rec.record(trace(TraceOutcome::Ok, 9.0));
    assert_eq!(rec.slowest().len(), 1);
    assert_eq!(rec.recorded(), 4);
}

#[test]
fn json_lines_round_trip() {
    let rec = FlightRecorder::new(4, 4);
    let (slow, rejected) = (
        trace(TraceOutcome::Ok, 0.5),
        trace(TraceOutcome::Rejected, 0.0),
    );
    rec.record(slow.clone());
    rec.record(rejected.clone());
    let lines = rec.to_json_lines();
    let parsed: Vec<JsonValue> = lines
        .lines()
        .map(|l| JsonValue::parse(l).unwrap())
        .collect();
    assert_eq!(parsed, vec![slow.to_json_value(), rejected.to_json_value()]);
    assert_eq!(parsed[0].req_str("outcome").unwrap(), "ok");
    assert_eq!(parsed[1].req_str("outcome").unwrap(), "rejected");
}

/// Each outcome dumps as its own fixed string — the six an outside
/// reader of a flight-recorder dump matches on — and only `ok` is not an
/// anomaly.
#[test]
fn outcome_strings_round_trip() {
    let rec = FlightRecorder::new(0, OUTCOMES.len());
    for o in OUTCOMES {
        rec.record(trace(o, 0.1));
        assert_eq!(o.is_anomaly(), o != TraceOutcome::Ok, "{o:?}");
    }
    let dumped: Vec<String> = rec
        .to_json_lines()
        .lines()
        .map(|l| {
            JsonValue::parse(l)
                .unwrap()
                .req_str("outcome")
                .unwrap()
                .to_string()
        })
        .collect();
    // `ok` is no anomaly and a recorder keeping no slow traces drops it.
    assert_eq!(
        dumped,
        ["partial", "error", "cancelled", "rejected", "shed"]
    );
    assert_eq!(
        OUTCOMES.map(TraceOutcome::as_str),
        ["ok", "partial", "error", "cancelled", "rejected", "shed"]
    );
}
