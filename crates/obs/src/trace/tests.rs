//! Unit tests of the traced-query half of the span module: trace IDs,
//! trace JSON, phase accessors and the flight recorder.

use crate::{FlightRecorder, QueryTrace, SpanRecord, TraceId, TraceOutcome};

fn row(path: &str, dur_secs: f64) -> SpanRecord {
    SpanRecord {
        seq: 0,
        path: path.into(),
        start_secs: 0.0,
        dur_secs,
    }
}

fn trace(raw: u64, outcome: TraceOutcome, total: f64) -> QueryTrace {
    QueryTrace {
        trace: TraceId::from_raw(raw),
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
    assert!(tree.contains(" queue_wait=0.2500s exec=0.5000s"), "{tree}");
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
