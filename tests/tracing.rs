//! Serving-path tracing acceptance: every query carries a propagated
//! trace ID from submit to resolve, phase attributions decompose its
//! latency, and the flight recorder retains the traces worth keeping.
//!
//! 1. A [`QueryService`] query mints a trace ID visible on the ticket and
//!    in the `trace_begin`/`trace_end` events; its completed
//!    [`QueryTrace`] attributes admission, queue-wait and exec phases
//!    that sum to no more than the end-to-end latency, and the per-phase
//!    `lat/*` histograms fill in.
//! 2. A federated query stitches into a single span tree: one root in
//!    group `fed`, one child per shard flight, every child's parent
//!    pointing at the root ID — and the recorder's JSON-lines dump is
//!    that tree's JSON, one parseable line per retained trace.
//! 3. The recorder retains what matters: the seeded-slow (hedged) query
//!    ranks slowest, rejected submissions and strict-mode failures land
//!    in the anomaly ring.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{FaultInjector, FaultPlan, ShardDeathSpec, ShardSlowStormSpec};
use orv::obs::{names, EventLog, FlightRecorder, JsonValue, Obs, TraceOutcome};
use orv::query::{FederatedService, FederationConfig, QueryEngine, QueryService, ServiceConfig};
use orv::types::Error;
use std::time::Duration;

/// The recorder's dump is its slowest then its anomalous traces, one
/// `to_json_value` per line, and every line parses back to that value.
fn assert_dump_is_the_retained_traces(recorder: &FlightRecorder) {
    let retained: Vec<_> = recorder
        .slowest()
        .into_iter()
        .chain(recorder.anomalies())
        .map(|t| t.to_json_value())
        .collect();
    let want: Vec<String> = retained.iter().map(|v| v.to_string()).collect();
    let dump = recorder.to_json_lines();
    assert_eq!(dump, want.join("\n"));
    let parsed: Vec<JsonValue> = dump.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
    assert_eq!(parsed, retained);
}

/// Upper bound on any single ticket wait (see `service_stress.rs`).
const WATCHDOG: Duration = Duration::from_secs(30);

fn deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("tt")
            .grid([8, 8, 2])
            .partition([2, 2, 1])
            .scalar_attrs(&["p"])
            .seed(31)
            .build(),
        &d,
    )
    .unwrap();
    d
}

#[test]
fn service_query_carries_trace_end_to_end() {
    let obs = Obs::enabled();
    let engine = QueryEngine::new(deployment()).with_obs(obs.clone());
    let svc = QueryService::new(engine, ServiceConfig::default()).unwrap();

    let sql = "SELECT COUNT(*) FROM tt";
    let ticket = svc.submit(sql).unwrap();
    let id = ticket.trace_id();
    ticket.wait_timeout(WATCHDOG).expect("watchdog").unwrap();

    // The resolved ticket hands back the completed trace, and it is the
    // same identity the ticket advertised at submit time.
    let trace = ticket.trace().expect("resolved ticket must carry a trace");
    assert_eq!(trace.trace, id);
    assert_eq!(trace.parent, None, "service roots have no parent");
    assert_eq!(trace.group, "service");
    assert_eq!(trace.detail, sql);
    assert_eq!(trace.outcome, TraceOutcome::Ok);

    // Phase attribution: the serving path decomposes into admission →
    // queue-wait → exec, and the parts cannot exceed the whole.
    let phases: Vec<&str> = trace.phases.iter().map(|r| r.leaf()).collect();
    assert_eq!(phases, ["admission", "queue_wait", "exec"]);
    assert!(trace.phases.iter().all(|r| r.dur_secs >= 0.0));
    assert!(
        trace.phase_total_secs() <= trace.total_secs + 1e-6,
        "phases {:?} must sum to at most total {}",
        trace.phases,
        trace.total_secs
    );

    // The trace ID is propagated into the event log: begin/end events
    // carry it, and the engine's choice event is tagged with it.
    let begun = obs.events.events_of_kind(names::TRACE_BEGIN);
    assert_eq!(begun.len(), 1);
    assert_eq!(begun[0].fields["trace"].as_u64(), Some(id.raw()));
    assert_eq!(begun[0].fields["group"].as_str(), Some("service"));
    let ended = obs.events.events_of_kind(names::TRACE_END);
    assert_eq!(ended.len(), 1);
    assert_eq!(ended[0].fields["trace"].as_u64(), Some(id.raw()));
    assert_eq!(ended[0].fields["outcome"].as_str(), Some("ok"));

    // Per-phase latency histograms filled in, and quantiles are ordered.
    let snap = obs.metrics.snapshot();
    for name in [
        names::LAT_ADMISSION,
        names::LAT_QUEUE_WAIT,
        names::LAT_EXEC,
        names::LAT_TOTAL,
    ] {
        let h = snap
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name} must be recorded"));
        assert_eq!(h.count, 1, "{name}");
        assert!(h.p50().unwrap() <= h.quantile(0.99).unwrap(), "{name}");
    }

    // The recorder kept the (only) query, keyed by the same trace ID.
    assert_eq!(svc.recorder().recorded(), 1);
    let slowest = svc.recorder().slowest();
    assert_eq!(slowest.len(), 1);
    assert_eq!(slowest[0], trace);
}

#[test]
fn rejected_submissions_land_in_the_anomaly_ring() {
    // workers = 0: nothing drains, so the second submission overflows the
    // one-slot queue deterministically.
    let svc = QueryService::new(
        QueryEngine::new(deployment()),
        ServiceConfig {
            workers: 0,
            queue_cap: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let _held = svc.submit("SELECT COUNT(*) FROM tt").unwrap();
    let err = svc.submit("SELECT * FROM tt").unwrap_err();
    assert!(matches!(err, Error::Overloaded { .. }), "{err}");

    let anomalies = svc.recorder().anomalies();
    assert_eq!(anomalies.len(), 1, "the rejection must be recorded");
    assert_eq!(anomalies[0].outcome, TraceOutcome::Rejected);
    assert_eq!(anomalies[0].detail, "SELECT * FROM tt");
    assert!(svc.recorder().slowest().is_empty(), "rejections never rank");
}

#[test]
fn federated_query_stitches_into_one_span_tree() {
    let obs = Obs::enabled();
    let fed = FederatedService::with_instruments(
        deployment(),
        FederationConfig::default(),
        obs.clone(),
        None,
    )
    .unwrap();
    let sql = "SELECT * FROM tt";
    let got = fed.execute(sql).unwrap();
    assert!(got.is_complete());

    // One query → one recorded tree, rooted in the federation group.
    assert_eq!(fed.recorder().recorded(), 1);
    let root = fed.recorder().slowest().remove(0);
    assert_eq!(root.parent, None);
    assert_eq!(root.group, "fed");
    assert_eq!(root.detail, sql);
    assert_eq!(root.outcome, TraceOutcome::Ok);
    assert!(root.phases.iter().any(|r| r.leaf() == "merge"));
    assert!(
        root.phase_total_secs() <= root.total_secs + 1e-6,
        "{:?} vs {}",
        root.phases,
        root.total_secs
    );

    // One child per shard touched: every child is a shard-group
    // sub-query whose parent is the root's trace ID, and no shard
    // contributes two flights in a fault-free run.
    assert!(!root.children.is_empty());
    let mut groups: Vec<&str> = root.children.iter().map(|c| c.group.as_str()).collect();
    groups.sort_unstable();
    let distinct = {
        let mut g = groups.clone();
        g.dedup();
        g
    };
    assert_eq!(groups, distinct, "one flight per shard touched: {groups:?}");
    for child in &root.children {
        assert!(child.group.starts_with("fed"), "{}", child.group);
        assert_ne!(child.group, "fed", "children are shard groups");
        assert_eq!(child.parent, Some(root.trace));
        assert_eq!(child.outcome, TraceOutcome::Ok);
        assert!(child.phases.iter().any(|r| r.leaf() == "exec"));
        assert!(child.phase_total_secs() <= child.total_secs + 1e-6);
    }
    assert_eq!(root.tree_size(), 1 + root.children.len());

    // The event log tells the same story: one root begin, one begin per
    // child, and every non-root begin points back at the root ID.
    let begun = obs.events.events_of_kind(names::TRACE_BEGIN);
    let roots: Vec<_> = begun
        .iter()
        .filter(|e| e.fields["parent"].as_u64().is_none())
        .collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].fields["trace"].as_u64(), Some(root.trace.raw()));
    let child_begins: Vec<_> = begun
        .iter()
        .filter(|e| e.fields["parent"].as_u64().is_some())
        .collect();
    assert_eq!(child_begins.len(), root.children.len());
    for e in &child_begins {
        assert_eq!(e.fields["parent"].as_u64(), Some(root.trace.raw()));
    }

    // The recorder dump is the whole tree's JSON, and the rendered tree
    // shows the stitched hierarchy.
    assert_dump_is_the_retained_traces(fed.recorder());
    let dumped = JsonValue::parse(&fed.recorder().to_json_lines()).unwrap();
    assert_eq!(dumped, root.to_json_value());
    let children = dumped.req("children").unwrap().as_array().unwrap();
    assert_eq!(children.len(), root.children.len());
    let rendered = root.render_tree();
    assert!(rendered.contains("fed"), "{rendered}");
    for child in &root.children {
        assert!(rendered.contains(child.group.as_str()), "{rendered}");
    }
}

#[test]
fn recorder_ranks_the_seeded_slow_query_first() {
    let obs = Obs::enabled();
    let plan = FaultPlan {
        shard_slow_storms: vec![ShardSlowStormSpec {
            shard: 0,
            after_subqueries: 0,
            delay_ms: 2_000,
            storm_len: 1,
        }],
        ..FaultPlan::none()
    };
    let injector = FaultInjector::new(plan, obs.events.clone());
    let fed = FederatedService::with_instruments(
        deployment(),
        FederationConfig {
            hedge_after: Some(Duration::from_millis(40)),
            ..FederationConfig::default()
        },
        obs.clone(),
        Some(injector.clone()),
    )
    .unwrap();

    // First query hits the stalled shard and is rescued by a hedge after
    // ≥ 40ms; the follow-ups are ordinary fast scans.
    let slow_sql = "SELECT * FROM tt";
    assert!(fed.execute(slow_sql).unwrap().is_complete());
    assert_eq!(injector.stats().shard_slow_storm_delays, 1);
    for _ in 0..3 {
        assert!(fed
            .execute("SELECT COUNT(*) FROM tt")
            .unwrap()
            .is_complete());
    }

    assert_eq!(fed.recorder().recorded(), 4);
    let slowest = fed.recorder().slowest();
    assert_eq!(slowest[0].detail, slow_sql, "the hedged query ranks first");
    assert!(
        slowest[0].total_secs >= 0.040,
        "the stall dominates its latency: {}",
        slowest[0].total_secs
    );
    assert!(
        slowest[0]
            .phases
            .iter()
            .any(|r| r.leaf() == "hedge_overhead"),
        "{:?}",
        slowest[0].phases
    );
    assert!(
        slowest
            .windows(2)
            .all(|w| w[0].total_secs >= w[1].total_secs),
        "slowest-first order"
    );
    assert_dump_is_the_retained_traces(fed.recorder());
    let snap = obs.metrics.snapshot();
    assert!(snap.histograms[names::LAT_HEDGE].count >= 1);
}

#[test]
fn strict_mode_failure_is_retained_as_an_anomaly() {
    let plan = FaultPlan {
        shard_deaths: vec![
            ShardDeathSpec {
                shard: 0,
                after_subqueries: 0,
            },
            ShardDeathSpec {
                shard: 1,
                after_subqueries: 0,
            },
        ],
        max_faults: 8,
        ..FaultPlan::none()
    };
    let fed = FederatedService::with_instruments(
        deployment(),
        FederationConfig {
            strict: true,
            ..FederationConfig::default()
        },
        Obs::enabled(),
        Some(FaultInjector::new(plan, EventLog::disabled())),
    )
    .unwrap();
    let err = fed.execute("SELECT * FROM tt").unwrap_err();
    assert!(matches!(err, Error::Unavailable { .. }), "{err}");

    let anomalies = fed.recorder().anomalies();
    assert_eq!(anomalies.len(), 1);
    assert_eq!(anomalies[0].group, "fed");
    assert_eq!(anomalies[0].outcome, TraceOutcome::Error);
    // The failed tree still dumps: failure triage starts from this line.
    assert_dump_is_the_retained_traces(fed.recorder());
    let dump = fed.recorder().to_json_lines();
    assert!(dump
        .lines()
        .any(|l| JsonValue::parse(l).unwrap().req_str("outcome").unwrap() == "error"));
}
