//! Chaos runs are replayable from the event log alone: the injector
//! emits a `fault_plan` event carrying the full seeded plan plus one
//! `fault_injected` event per fired fault (kind, site, draw index), and
//! those must agree with the injector's own statistics and survive a
//! round-trip through the JSON-lines export.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{Fault, FaultInjector, FaultPlan};
use orv::join::reference::{nested_loop_join, sort_records};
use orv::join::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig};
use orv::obs::{EventLog, Obs};
use orv::types::TableId;

fn two_tables() -> (Deployment, TableId, TableId) {
    let d = Deployment::in_memory(2);
    let h1 = generate_dataset(
        &DatasetSpec::builder("ca")
            .grid([6, 6, 2])
            .partition([3, 3, 2])
            .scalar_attrs(&["u"])
            .seed(41)
            .build(),
        &d,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("cb")
            .grid([6, 6, 2])
            .partition([2, 3, 1])
            .scalar_attrs(&["v"])
            .seed(42)
            .build(),
        &d,
    )
    .unwrap();
    (d, h1.table, h2.table)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x0B5,
        max_faults: 15,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 0.4, 3)
    .with(Fault::SendDrop, 0.4, 3)
    .with(Fault::ScratchError, 0.4, 3)
    .with(Fault::ChunkCorrupt, 0.4, 2)
    .with(Fault::FrameCorrupt, 0.4, 2)
    .with(Fault::ScratchCorrupt, 0.4, 2)
}

/// Re-parse the log and check it pins the run: the plan round-trips, and
/// the injected-fault events agree with the injector's statistics.
fn assert_log_replays(events: &EventLog, plan: &FaultPlan, stats: orv::cluster::fault::FaultStats) {
    // Everything below reads the *parsed* log, not the live one — a chaos
    // run must be reconstructible from its exported lines alone.
    let parsed = EventLog::from_json_lines(&events.to_json_lines()).unwrap();

    let plans: Vec<_> = parsed.iter().filter(|e| e.kind == "fault_plan").collect();
    assert_eq!(plans.len(), 1, "exactly one plan event per injector");
    let logged = FaultPlan::from_json_value(&plans[0].fields["plan"]).unwrap();
    assert_eq!(&logged, plan, "the event stream must pin the exact plan");

    let faults: Vec<_> = parsed
        .iter()
        .filter(|e| e.kind == "fault_injected")
        .collect();
    let by_kind = |k: &str| {
        faults
            .iter()
            .filter(|e| e.fields["kind"].as_str() == Some(k))
            .count() as u64
    };
    assert_eq!(by_kind("read_error"), stats[Fault::ReadError]);
    assert_eq!(by_kind("send_drop"), stats[Fault::SendDrop]);
    assert_eq!(by_kind("scratch_error"), stats[Fault::ScratchError]);
    assert_eq!(by_kind("chunk_corrupt"), stats[Fault::ChunkCorrupt]);
    assert_eq!(by_kind("frame_corrupt"), stats[Fault::FrameCorrupt]);
    assert_eq!(by_kind("scratch_corrupt"), stats[Fault::ScratchCorrupt]);
    assert_eq!(
        faults.len() as u64,
        Fault::all().map(|k| stats[k]).iter().sum::<u64>() + stats.worker_panics,
        "every fired fault must be logged exactly once"
    );

    // Silent corruption is only tolerable because it is *never* silent:
    // every injected flip must surface as a `corruption_detected` event.
    let detected = parsed
        .iter()
        .filter(|e| e.kind == "corruption_detected")
        .count() as u64;
    assert_eq!(
        detected,
        stats.corruptions(),
        "checksums must catch 100% of injected corruptions"
    );

    // Draw indices are strictly increasing per (site, stream) — the
    // replay order. A stream is work one thread does (a chunk read's
    // sub-table, a frame's sending storage node, a scratch access's
    // compute node), so ordering across streams is a scheduler artifact
    // and deliberately unconstrained; so is which stream's draw claims
    // the last unit of a cap.
    let mut by_group: std::collections::BTreeMap<(String, u64), Vec<u64>> =
        std::collections::BTreeMap::new();
    for e in &faults {
        let site = e.fields["site"].as_str().unwrap().to_string();
        let stream = e.fields["stream"].as_u64().unwrap();
        let draw = e.fields["draw"].as_u64().unwrap();
        by_group.entry((site, stream)).or_default().push(draw);
    }
    for ((site, stream), draws) in by_group {
        assert!(
            draws.windows(2).all(|w| w[0] < w[1]),
            "draws at {site}/stream {stream} must be strictly increasing: {draws:?}"
        );
    }
}

#[test]
fn grace_hash_chaos_run_is_replayable_from_logs() {
    let (d, t1, t2) = two_tables();
    let plan = chaos_plan();
    let obs = Obs::enabled();
    let injector = FaultInjector::new(plan.clone(), obs.events.clone());
    let cfg = GraceHashConfig {
        n_compute: 2,
        collect_results: true,
        faults: Some(injector.clone()),
        obs: obs.clone(),
        ..Default::default()
    };
    let out = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
    let oracle = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
    assert_eq!(sort_records(out.records().unwrap()), sort_records(oracle));

    let stats = injector.stats();
    assert!(
        stats[Fault::ReadError] + stats[Fault::SendDrop] + stats[Fault::ScratchError] > 0,
        "the chaos plan must actually fire: {stats:?}"
    );
    assert!(
        stats.corruptions() > 0,
        "the corruption kinds must actually fire: {stats:?}"
    );
    assert_eq!(
        out.stats.corruptions_detected,
        stats.corruptions(),
        "every injected corruption must be detected: {stats:?}"
    );
    assert_log_replays(&obs.events, &plan, stats);
}

#[test]
fn indexed_join_chaos_run_is_replayable_from_logs() {
    let (d, t1, t2) = two_tables();
    let mut plan = chaos_plan();
    plan.prob[Fault::SendDrop] = 0.0;
    plan.prob[Fault::ScratchError] = 0.0;
    let obs = Obs::enabled();
    let injector = FaultInjector::new(plan.clone(), obs.events.clone());
    let cfg = IndexedJoinConfig {
        n_compute: 2,
        collect_results: true,
        faults: Some(injector.clone()),
        obs: obs.clone(),
        ..Default::default()
    };
    let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
    let oracle = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
    assert_eq!(sort_records(out.records().unwrap()), sort_records(oracle));

    let stats = injector.stats();
    assert!(stats[Fault::ReadError] > 0, "{stats:?}");
    // Reported read errors and detected chunk corruptions share the
    // fetch retry loop, so both surface as read retries.
    assert_eq!(
        stats[Fault::ReadError] + stats[Fault::ChunkCorrupt],
        out.stats.read_retries
    );
    assert_eq!(out.stats.corruptions_detected, stats.corruptions());
    assert_log_replays(&obs.events, &plan, stats);
}
