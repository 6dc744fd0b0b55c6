//! Failure injection: malformed chunks, bogus metadata, missing
//! extractors — errors must surface as typed `Error`s, never panics —
//! plus edge-shaped datasets (partitions that do not divide the grid),
//! plus seeded [`FaultPlan`] chaos: transient read faults, dropped
//! interconnect messages, scratch-write failures and compute-worker
//! crashes, driven both deterministically and by proptest. Under any
//! transient plan both join runtimes must produce oracle-identical output
//! or a typed `Error::Cluster` within a bounded deadline — never a hang,
//! never an escaped panic.
//!
//! Base-table scans read through the same `SubTableReader` as the joins,
//! so the same seeded plans reach them: directly, through the
//! `QueryService`, and as a federation shard's chunk scan. A scan of 2¹⁶
//! rows or more reads on one thread per storage node; the `parallel_scan`
//! tests hold it to the serial scan's draws, errors and cancellation.
//! Those tests take their seed from `ORV_CHAOS_SEED` (default 1) — the
//! chaos CI matrix drives them with each of its seeds.

use orv::bds::{generate_dataset, BdsService, DatasetSpec, Deployment, SubTableReader};
use orv::chunk::{ChunkLocation, ChunkMeta};
use orv::cluster::{
    silence_injected_panics, CancelToken, Fault, FaultInjector, FaultPlan, RecoveryPolicy,
    WorkerPanicSpec,
};
use orv::join::reference::{nested_loop_join, sort_records};
use orv::join::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig};
use orv::obs::{names, EventLog, Obs, Spans};
use orv::query::{
    exec, FederatedService, FederationConfig, QueryEngine, QueryService, ServiceConfig,
};
use orv::types::{BoundingBox, ChunkId, Error, Interval, NodeId, Record, SubTableId, TableId};
use proptest::prelude::*;
use std::time::{Duration, Instant};

fn demo_deployment() -> (Deployment, TableId) {
    let d = Deployment::in_memory(2);
    let h = generate_dataset(
        &DatasetSpec::builder("t")
            .grid([8, 8, 1])
            .partition([4, 4, 1])
            .scalar_attrs(&["p"])
            .seed(3)
            .build(),
        &d,
    )
    .unwrap();
    (d, h.table)
}

#[test]
fn chunk_with_bogus_location_errors_cleanly() {
    let (d, t) = demo_deployment();
    // Register an extra chunk whose location overruns the data file.
    d.metadata()
        .register_chunks(
            t,
            vec![ChunkMeta {
                table: t,
                chunk: ChunkId(4),
                node: NodeId(0),
                location: ChunkLocation {
                    file: "t.dat".into(),
                    offset: 1 << 20,
                    len: 4096,
                },
                attributes: vec!["x".into()],
                extractors: vec!["t_layout".into()],
                bbox: BoundingBox::unbounded(),
                num_records: 0,
                checksum: None,
            }],
        )
        .unwrap();
    let svc = &BdsService::for_all_nodes(&d).unwrap()[0];
    let err = svc.subtable(SubTableId::new(t.0, 4u32)).unwrap_err();
    assert!(err.to_string().contains("overruns"), "{err}");
}

#[test]
fn chunk_with_missing_extractor_errors_cleanly() {
    let (d, t) = demo_deployment();
    // A chunk that claims an extractor nobody registered.
    let loc = d
        .store(NodeId(0))
        .unwrap()
        .lock()
        .append("t.dat", vec![0u8; 64].into())
        .unwrap();
    d.metadata()
        .register_chunks(
            t,
            vec![ChunkMeta {
                table: t,
                chunk: ChunkId(4),
                node: NodeId(0),
                location: loc,
                attributes: vec!["x".into()],
                extractors: vec!["proprietary_v9".into()],
                bbox: BoundingBox::unbounded(),
                num_records: 4,
                checksum: None,
            }],
        )
        .unwrap();
    let svc = &BdsService::for_all_nodes(&d).unwrap()[0];
    let err = svc.subtable(SubTableId::new(t.0, 4u32)).unwrap_err();
    assert!(err.to_string().contains("extractor"), "{err}");
}

#[test]
fn corrupt_chunk_bytes_fail_extraction() {
    let (d, t) = demo_deployment();
    // Garbage whose length is not a whole number of records.
    let loc = d
        .store(NodeId(0))
        .unwrap()
        .lock()
        .append("t.dat", vec![0xAB; 37].into())
        .unwrap();
    d.metadata()
        .register_chunks(
            t,
            vec![ChunkMeta {
                table: t,
                chunk: ChunkId(4),
                node: NodeId(0),
                location: loc,
                attributes: vec!["x".into()],
                extractors: vec!["t_layout".into()],
                bbox: BoundingBox::unbounded(),
                num_records: 2,
                checksum: None,
            }],
        )
        .unwrap();
    let svc = &BdsService::for_all_nodes(&d).unwrap()[0];
    let err = svc.subtable(SubTableId::new(t.0, 4u32)).unwrap_err();
    assert!(err.to_string().contains("records"), "{err}");
}

#[test]
fn corrupt_chunk_poisons_joins_with_error_not_panic() {
    let (d, t) = demo_deployment();
    let h2 = generate_dataset(
        &DatasetSpec::builder("t2")
            .grid([8, 8, 1])
            .partition([4, 4, 1])
            .scalar_attrs(&["q"])
            .seed(4)
            .build(),
        &d,
    )
    .unwrap();
    // Corrupt chunk injected into t2: bad byte count, overlapping bbox so
    // joins must touch it.
    let loc = d
        .store(NodeId(0))
        .unwrap()
        .lock()
        .append("t2.dat", vec![0xCD; 33].into())
        .unwrap();
    d.metadata()
        .register_chunks(
            h2.table,
            vec![ChunkMeta {
                table: h2.table,
                chunk: ChunkId(4),
                node: NodeId(0),
                location: loc,
                attributes: vec!["x".into(), "y".into(), "z".into(), "q".into()],
                extractors: vec!["t2_layout".into()],
                bbox: BoundingBox::from_dims([("x", Interval::new(0.0, 7.0))]),
                num_records: 2,
                checksum: None,
            }],
        )
        .unwrap();
    let attrs = ["x", "y", "z"];
    assert!(indexed_join(&d, t, h2.table, &attrs, &IndexedJoinConfig::default()).is_err());
    assert!(grace_hash_join(&d, t, h2.table, &attrs, &GraceHashConfig::default()).is_err());
}

#[test]
fn uneven_partitions_still_join_correctly() {
    // Partitions that do NOT divide the grid: clipped edge chunks.
    let d = Deployment::in_memory(3);
    let h1 = generate_dataset(
        &DatasetSpec::builder("a")
            .grid([7, 5, 3])
            .partition([4, 2, 2])
            .scalar_attrs(&["u"])
            .seed(9)
            .build(),
        &d,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("b")
            .grid([7, 5, 3])
            .partition([3, 5, 1])
            .scalar_attrs(&["v"])
            .seed(10)
            .build(),
        &d,
    )
    .unwrap();
    assert_eq!(h1.total_tuples(), 105);
    let attrs = ["x", "y", "z"];
    let oracle = sort_records(nested_loop_join(&d, h1.table, h2.table, &attrs, None).unwrap());
    assert_eq!(oracle.len(), 105);
    let ij = indexed_join(
        &d,
        h1.table,
        h2.table,
        &attrs,
        &IndexedJoinConfig {
            collect_results: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(sort_records(ij.records().unwrap()), oracle);
    let gh = grace_hash_join(
        &d,
        h1.table,
        h2.table,
        &attrs,
        &GraceHashConfig {
            collect_results: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(sort_records(gh.records().unwrap()), oracle);
}

/// Two overlapping tables on 2 storage nodes, small enough to run under
/// many proptest cases.
fn two_tables() -> (Deployment, TableId, TableId) {
    let d = Deployment::in_memory(2);
    let h1 = generate_dataset(
        &DatasetSpec::builder("fa")
            .grid([6, 6, 1])
            .partition([3, 3, 1])
            .scalar_attrs(&["u"])
            .seed(21)
            .build(),
        &d,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("fb")
            .grid([6, 6, 1])
            .partition([2, 3, 1])
            .scalar_attrs(&["v"])
            .seed(22)
            .build(),
        &d,
    )
    .unwrap();
    (d, h1.table, h2.table)
}

/// Run `f` on its own thread and insist it finishes within `secs` —
/// the no-hang watchdog for fault scenarios.
fn within_deadline<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .expect("join under faults must finish within the deadline (no hang)")
}

/// The acceptance scenario: one seeded plan with transient read errors,
/// dropped interconnect messages AND a compute-worker crash. IJ must
/// recover everything (reassigning the dead worker's pairs) and still
/// match the oracle; GH cannot replace a dead compute node, so it must
/// fail fast with a typed `Error::Cluster` naming the panic — both within
/// a bounded deadline.
#[test]
fn mixed_fault_plan_recovers_or_fails_typed_within_deadline() {
    silence_injected_panics();
    let plan = FaultPlan {
        seed: 0xFA_07,
        worker_panics: vec![WorkerPanicSpec {
            worker: 1,
            after_ops: 1,
        }],
        max_faults: 5,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 1.0, 2)
    .with(Fault::SendDrop, 1.0, 2);

    let ij_plan = plan.clone();
    let (out, oracle) = within_deadline(30, move || {
        let (d, t1, t2) = two_tables();
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(FaultInjector::new(ij_plan, EventLog::disabled())),
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let oracle = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        (out, oracle)
    });
    assert_eq!(sort_records(out.records().unwrap()), sort_records(oracle));
    assert!(
        out.stats.read_retries > 0,
        "retry counter must be nonzero: {:?}",
        out.stats
    );
    assert_eq!(out.stats.worker_panics, 1, "{:?}", out.stats);
    assert!(
        out.stats.pairs_reassigned > 0,
        "reassignment counter must be nonzero: {:?}",
        out.stats
    );

    let gh_plan = plan.clone();
    let err = within_deadline(30, move || {
        let (d, t1, t2) = two_tables();
        let cfg = GraceHashConfig {
            n_compute: 2,
            faults: Some(FaultInjector::new(gh_plan, EventLog::disabled())),
            ..Default::default()
        };
        grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err()
    });
    assert!(matches!(err, Error::Cluster(_)), "{err}");
    assert!(err.to_string().contains("panicked"), "{err}");

    // The same plan *without* the crash is fully transient: GH recovers
    // the dropped messages and read faults and matches the oracle.
    let mut transient = plan;
    transient.worker_panics.clear();
    let (gh, oracle) = within_deadline(30, move || {
        let (d, t1, t2) = two_tables();
        let cfg = GraceHashConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(FaultInjector::new(transient, EventLog::disabled())),
            ..Default::default()
        };
        let gh = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let oracle = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        (gh, oracle)
    });
    assert_eq!(sort_records(gh.records().unwrap()), sort_records(oracle));
    assert!(
        gh.stats.send_retries > 0,
        "dropped sends must be retried: {:?}",
        gh.stats
    );
    assert!(gh.stats.read_retries > 0, "{:?}", gh.stats);
}

#[test]
fn every_worker_dead_errors_within_deadline() {
    silence_injected_panics();
    let err = within_deadline(30, || {
        let (d, t1, t2) = two_tables();
        let plan = FaultPlan {
            seed: 1,
            worker_panics: vec![
                WorkerPanicSpec {
                    worker: 0,
                    after_ops: 0,
                },
                WorkerPanicSpec {
                    worker: 1,
                    after_ops: 0,
                },
            ],
            max_faults: 2,
            ..FaultPlan::none()
        };
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        };
        indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap_err()
    });
    assert!(matches!(err, Error::Cluster(_)), "{err}");
}

#[test]
fn seeded_plans_are_reproducible() {
    assert_eq!(FaultPlan::from_seed(77), FaultPlan::from_seed(77));
    assert_ne!(FaultPlan::from_seed(77), FaultPlan::from_seed(78));
    // A from_seed plan is bounded, so the default recovery policy with
    // generous attempts must always push IJ through to the oracle.
    silence_injected_panics();
    let (out, oracle) = within_deadline(30, || {
        let (d, t1, t2) = two_tables();
        let plan = FaultPlan::from_seed(77);
        let cfg = IndexedJoinConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            recovery: RecoveryPolicy {
                max_attempts: 9,
                base_backoff_ms: 1,
            },
            ..Default::default()
        };
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &cfg).unwrap();
        let oracle = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        (out, oracle)
    });
    assert_eq!(sort_records(out.records().unwrap()), sort_records(oracle));
}

fn sorted(records: Option<Vec<Record>>) -> Vec<Record> {
    sort_records(records.expect("collect_results was set"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any purely transient plan (caps + budget, no crashes) with enough
    /// retry attempts MUST leave both runtimes oracle-identical: a worst
    /// case op sees at most `2 * cap` consecutive faults (a reported
    /// error plus a detected corruption share one retry loop), and
    /// attempts > 2 * cap, so every operation eventually succeeds. Every
    /// injected corruption must also be *detected* — checksums catch
    /// 100% of the silent flips.
    #[test]
    fn random_transient_plans_always_recover(
        seed in any::<u64>(),
        read_p in 0.0f64..1.0,
        drop_p in 0.0f64..1.0,
        scratch_p in 0.0f64..1.0,
        corrupt_p in 0.0f64..1.0,
        cap in 0u64..4,
    ) {
        let plan = FaultPlan {
            seed,
            max_faults: cap * 6,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, read_p, cap)
        .with(Fault::ReadDelay, 0.1, 1)
        .with(Fault::SendDrop, drop_p, cap)
        .with(Fault::SendDelay, 0.1, 1)
        .with(Fault::ScratchError, scratch_p, cap)
        .with(Fault::ChunkCorrupt, corrupt_p, cap)
        .with(Fault::FrameCorrupt, corrupt_p, cap)
        .with(Fault::ScratchCorrupt, corrupt_p, cap);
        let recovery = RecoveryPolicy {
            max_attempts: 2 * cap as u32 + 2,
            base_backoff_ms: 1,
        };
        let (d, t1, t2) = two_tables();
        let oracle =
            sort_records(nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap());
        let ij_faults = FaultInjector::new(plan.clone(), EventLog::disabled());
        let ij = indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(ij_faults.clone()),
            recovery,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(sorted(ij.records()), oracle.clone());
        prop_assert_eq!(ij.stats.corruptions_detected, ij_faults.stats().corruptions());
        let gh_faults = FaultInjector::new(plan, EventLog::disabled());
        let gh = grace_hash_join(&d, t1, t2, &["x", "y", "z"], &GraceHashConfig {
            n_compute: 2,
            collect_results: true,
            faults: Some(gh_faults.clone()),
            recovery,
            ..Default::default()
        }).unwrap();
        prop_assert_eq!(sorted(gh.records()), oracle);
        prop_assert_eq!(gh.stats.corruptions_detected, gh_faults.stats().corruptions());
    }

    /// A single worker crash anywhere in the schedule never costs IJ
    /// correctness: either the worker dies (pairs reassigned) or the
    /// checkpoint is never reached — both match the oracle.
    #[test]
    fn random_worker_crashes_never_break_indexed_join(
        seed in any::<u64>(),
        worker in 0usize..3,
        after_ops in 0u64..6,
    ) {
        silence_injected_panics();
        let plan = FaultPlan {
            seed,
            worker_panics: vec![WorkerPanicSpec { worker, after_ops }],
            max_faults: 1,
            ..FaultPlan::none()
        };
        let (d, t1, t2) = two_tables();
        let oracle =
            sort_records(nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap());
        let out = indexed_join(&d, t1, t2, &["x", "y", "z"], &IndexedJoinConfig {
            n_compute: 3,
            collect_results: true,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            ..Default::default()
        }).unwrap();
        prop_assert!(out.stats.worker_panics <= 1);
        prop_assert_eq!(sorted(out.records()), oracle);
    }
}

#[test]
fn empty_intersection_join_produces_zero_rows() {
    // Disjoint grids joined on x only — bounding boxes never overlap, so
    // the connectivity graph is empty and IJ does no work at all.
    let d = Deployment::in_memory(1);
    let h1 = generate_dataset(
        &DatasetSpec::builder("a")
            .grid([4, 4, 1])
            .partition([4, 4, 1])
            .scalar_attrs(&["u"])
            .seed(1)
            .build(),
        &d,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("b")
            .grid([4, 4, 1])
            .partition([4, 4, 1])
            .scalar_attrs(&["v"])
            .seed(2)
            .build(),
        &d,
    )
    .unwrap();
    // Constrain to a region that excludes everything.
    let range = BoundingBox::from_dims([("x", Interval::new(100.0, 200.0))]);
    let ij = indexed_join(
        &d,
        h1.table,
        h2.table,
        &["x", "y", "z"],
        &IndexedJoinConfig {
            collect_results: true,
            range: Some(range.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(ij.stats.result_tuples, 0);
    assert_eq!(ij.stats.cache_misses, 0, "nothing should be fetched");
    let gh = grace_hash_join(
        &d,
        h1.table,
        h2.table,
        &["x", "y", "z"],
        &GraceHashConfig {
            collect_results: true,
            range: Some(range),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(gh.stats.result_tuples, 0);
}

// ---- Chaos reaches scans -------------------------------------------------

const FULL_SCAN: &str = "SELECT * FROM t1";
const RANGED_SCAN: &str = "SELECT * FROM t1 WHERE x IN [3, 9] AND y IN [0, 11]";

/// `t1`: 64 chunks of 4 rows over two storage nodes — enough reads per
/// node stream that a 25 % plan fires on every seed we have tried.
fn scan_deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("t1")
            .grid([16, 16, 1])
            .partition([2, 2, 1])
            .scalar_attrs(&["oilp"])
            .seed(7)
            .build(),
        &d,
    )
    .unwrap();
    d
}

/// The seed of this run (`ORV_CHAOS_SEED`, default 1) and two derived
/// from it. Reproduce a CI failure with
/// `ORV_CHAOS_SEED=<seed> cargo test --test fault_injection scan`.
fn chaos_seeds() -> [u64; 3] {
    let seed = std::env::var("ORV_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1);
    [seed, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15), !seed]
}

fn assert_same_answer(label: &str, want: &orv::query::QueryResult, got: &orv::query::QueryResult) {
    assert_eq!(want.columns, got.columns, "{label}");
    assert_eq!(want.rows, got.rows, "{label}");
    assert_eq!(
        exec::rows_checksum(&want.rows),
        exec::rows_checksum(&got.rows),
        "{label}"
    );
}

/// (a) A seeded transient plan is consulted by — and retried away under —
/// a base-table scan, run directly and through the `QueryService`.
#[test]
fn scans_draw_seeded_read_faults_and_still_match_the_oracle() {
    let oracle = QueryEngine::new(scan_deployment());
    let mut read_errors = 0;
    for seed in chaos_seeds() {
        let injector = FaultInjector::new(FaultPlan::from_seed(seed), EventLog::disabled());
        let engine = QueryEngine::new(scan_deployment()).with_faults(injector.clone());
        for sql in [FULL_SCAN, RANGED_SCAN] {
            let want = oracle.execute(sql).unwrap();
            let got = engine.execute(sql).unwrap();
            assert_same_answer(&format!("seed {seed}: {sql}"), &want, &got);
        }
        let service = QueryService::new(engine, ServiceConfig::default()).unwrap();
        let want = oracle.execute(RANGED_SCAN).unwrap();
        let got = service.execute(RANGED_SCAN).unwrap();
        assert_same_answer(&format!("seed {seed}: via service"), &want, &got);
        read_errors += injector.stats()[Fault::ReadError];
    }
    assert!(
        read_errors > 0,
        "no seed of {:?} injected a read error into a scan",
        chaos_seeds()
    );
}

/// (b) Every page corruption injected into a scan is caught by the
/// read-side checksum, logged, and retried into the oracle's rows.
#[test]
fn scans_detect_every_injected_page_corruption() {
    let d = scan_deployment();
    let table = d.metadata().table_id("t1").unwrap();
    let want = QueryEngine::new(scan_deployment())
        .execute(FULL_SCAN)
        .unwrap();
    let mut corruptions = 0;
    for seed in chaos_seeds() {
        let events = EventLog::enabled();
        let injector = FaultInjector::new(FaultPlan::corrupting(seed), events.clone());
        // `corrupting`'s caps allow four consecutive failures of one read.
        let recovery = RecoveryPolicy {
            max_attempts: 8,
            ..RecoveryPolicy::default()
        };
        let reader = SubTableReader::new(
            &d,
            injector.clone(),
            Spans::disabled(),
            recovery,
            CancelToken::none(),
        )
        .unwrap();
        let chunks = d.metadata().all_chunks(table).unwrap();
        let (_, rows, _) = exec::scan_chunks(&reader, table, &chunks, None).unwrap();
        assert_eq!(rows, want.rows, "seed {seed}");
        let injected = events
            .events_of_kind(names::FAULT_INJECTED)
            .iter()
            .filter(|ev| ev.fields["kind"].as_str() == Some("chunk_corrupt"))
            .count() as u64;
        let detected = events.events_of_kind(names::CORRUPTION_DETECTED).len() as u64;
        assert_eq!(
            injected,
            injector.stats()[Fault::ChunkCorrupt],
            "seed {seed}"
        );
        assert_eq!(detected, injected, "seed {seed}: 100 % detection");
        assert_eq!(reader.corruptions_detected(), injected, "seed {seed}");
        corruptions += injected;
    }
    assert!(
        corruptions > 0,
        "no seed corrupted a page: {:?}",
        chaos_seeds()
    );
}

/// (c) Read errors that outlast the policy fail the scan with the
/// injector's own typed error, after exactly `max_attempts` reads.
#[test]
fn scan_fails_typed_once_read_errors_outlast_the_policy() {
    let plan = FaultPlan {
        seed: chaos_seeds()[0],
        max_faults: 1_000,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 1.0, 1_000);
    let injector = FaultInjector::new(plan, EventLog::disabled());
    let engine = QueryEngine::new(scan_deployment()).with_faults(injector.clone());
    let err = engine.execute(FULL_SCAN).unwrap_err();
    assert!(
        matches!(&err, Error::Cluster(m) if m == "injected transient chunk-read fault"),
        "{err}"
    );
    assert_eq!(
        injector.stats()[Fault::ReadError],
        RecoveryPolicy::default().max_attempts as u64
    );
}

/// (c) A cancel that lands while a scan sleeps a retry backoff stops the
/// scan within one sleep slice, as `Error::Cancelled`.
#[test]
fn cancel_stops_a_scan_inside_its_retry_backoff() {
    let plan = FaultPlan {
        seed: chaos_seeds()[0],
        max_faults: 1_000,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 1.0, 1_000);
    let injector = FaultInjector::new(plan, EventLog::disabled());
    // Four minutes of backoff if the token were ignored.
    let recovery = RecoveryPolicy {
        max_attempts: 1_000,
        base_backoff_ms: 250,
    };
    let cancel = CancelToken::new();
    let d = scan_deployment();
    let table = d.metadata().table_id("t1").unwrap();
    let reader = SubTableReader::new(
        &d,
        injector.clone(),
        Spans::disabled(),
        recovery,
        cancel.clone(),
    )
    .unwrap();
    let chunks = d.metadata().all_chunks(table).unwrap();
    let (err, took) = std::thread::scope(|s| {
        let scan = s.spawn(|| exec::scan_chunks(&reader, table, &chunks, None).unwrap_err());
        // The first injected error is what sends the scan into a backoff.
        while injector.stats()[Fault::ReadError] == 0 {
            std::thread::yield_now();
        }
        let cancelled_at = Instant::now();
        cancel.cancel();
        let err = scan.join().unwrap();
        (err, cancelled_at.elapsed())
    });
    assert!(matches!(err, Error::Cancelled), "{err}");
    assert!(
        took < Duration::from_secs(1),
        "cancel must interrupt the backoff within ~one slice, took {took:?}"
    );
    assert!(
        injector.stats()[Fault::ReadError] <= 2,
        "{:?}",
        injector.stats()
    );
}

/// (d) A federation whose shards share a seeded injector answers a
/// fan-out scan completely: each shard retries its own chunk reads, so
/// the router never fails a chunk over to a replica.
#[test]
fn federated_scan_retries_locally_instead_of_failing_over() {
    let want = QueryEngine::new(scan_deployment())
        .execute(RANGED_SCAN)
        .unwrap();
    let mut read_errors = 0;
    for seed in chaos_seeds() {
        let obs = Obs::enabled();
        let injector = FaultInjector::new(FaultPlan::from_seed(seed), EventLog::disabled());
        let fed = FederatedService::with_instruments(
            scan_deployment(),
            FederationConfig::default(),
            obs.clone(),
            Some(injector.clone()),
        )
        .unwrap();
        let got = fed.execute(RANGED_SCAN).unwrap();
        assert!(got.is_complete(), "seed {seed}");
        assert_same_answer(&format!("seed {seed}"), &want, got.result());
        let snap = obs.metrics.snapshot();
        assert_eq!(
            snap.counters
                .get(names::FED_FAILOVERS)
                .copied()
                .unwrap_or(0),
            0,
            "seed {seed}"
        );
        read_errors += injector.stats()[Fault::ReadError];
    }
    assert!(
        read_errors > 0,
        "no seed of {:?} injected a read error into a shard's scan",
        chaos_seeds()
    );
}

// ---- Chaos reaches parallel scans ----------------------------------------

/// `t1` at 256 × 256 in 32 × 32 chunks over three storage nodes: 65 536
/// rows, enough that a scan of every chunk runs on one reader per node
/// and an assembler, while a scan of one chunk stays serial.
fn parallel_scan_deployment() -> Deployment {
    let d = Deployment::in_memory(3);
    generate_dataset(
        &DatasetSpec::builder("t1")
            .grid([256, 256, 1])
            .partition([32, 32, 1])
            .scalar_attrs(&["oilp"])
            .seed(7)
            .build(),
        &d,
    )
    .unwrap();
    d
}

/// Every `fault_injected` and `corruption_detected` event of `events`,
/// rendered without its global sequence number, as a sorted multiset.
fn fault_draws(events: &EventLog) -> Vec<String> {
    let mut draws: Vec<String> = [names::FAULT_INJECTED, names::CORRUPTION_DETECTED]
        .iter()
        .flat_map(|kind| events.events_of_kind(kind))
        .map(|ev| format!("{} {:?}", ev.kind, ev.fields))
        .collect();
    draws.sort();
    draws
}

/// (e) One reader per node draws its node's faults for the same chunks in
/// the same order as the serial scan, so under a plan whose caps never
/// bind (a shared budget would make its last unit go to whichever node
/// draws first) the parallel scan injects and detects exactly the serial
/// scan's faults, and still returns the serial scan's rows and runs.
#[test]
fn parallel_scans_draw_the_serial_scans_faults() {
    let d = parallel_scan_deployment();
    let table = d.metadata().table_id("t1").unwrap();
    let chunks = d.metadata().all_chunks(table).unwrap();
    // Enough attempts that no chunk exhausts them at these odds.
    let recovery = RecoveryPolicy {
        max_attempts: 40,
        base_backoff_ms: 0,
    };
    let mut draws = 0;
    for seed in chaos_seeds() {
        let plan = FaultPlan {
            seed,
            max_faults: u64::MAX,
            ..FaultPlan::none()
        }
        .with(Fault::ReadError, 0.2, u64::MAX)
        .with(Fault::ChunkCorrupt, 0.2, u64::MAX);
        let scan = |each_alone: bool| {
            let events = EventLog::enabled();
            let injector = FaultInjector::new(plan.clone(), events.clone());
            let reader = SubTableReader::new(
                &d,
                injector,
                Spans::disabled(),
                recovery,
                CancelToken::none(),
            )
            .unwrap();
            let (rows, runs) = if each_alone {
                // One chunk per call: every call stays serial.
                let mut rows = Vec::new();
                let mut runs = Vec::new();
                for &chunk in &chunks {
                    let (_, r, run) = exec::scan_chunks(&reader, table, &[chunk], None).unwrap();
                    rows.extend(r);
                    runs.extend(run);
                }
                (rows, runs)
            } else {
                let (_, rows, runs) = exec::scan_chunks(&reader, table, &chunks, None).unwrap();
                (rows, runs)
            };
            (rows, runs, fault_draws(&events))
        };
        let (want_rows, want_runs, want_draws) = scan(true);
        let (rows, runs, got_draws) = scan(false);
        assert_eq!(rows.len(), 256 * 256, "seed {seed}");
        assert_eq!(rows, want_rows, "seed {seed}");
        assert_eq!(runs, want_runs, "seed {seed}");
        assert_eq!(got_draws, want_draws, "seed {seed}: the same draws");
        for kind in ["read_error", "chunk_corrupt"] {
            assert!(
                want_draws.iter().any(|d| d.contains(kind)),
                "seed {seed}: no {kind} drawn"
            );
        }
        draws += want_draws.len();
    }
    assert!(draws > 0);
    // And the rows are the fault-free engine's.
    let oracle = QueryEngine::new(parallel_scan_deployment())
        .execute(FULL_SCAN)
        .unwrap();
    let reader = SubTableReader::new(
        &d,
        FaultInjector::disabled(),
        Spans::disabled(),
        RecoveryPolicy::default(),
        CancelToken::none(),
    )
    .unwrap();
    let (_, rows, _) = exec::scan_chunks(&reader, table, &chunks, None).unwrap();
    assert_eq!(rows, oracle.rows);
}

/// (e) Read errors that outlast the policy fail a parallel scan with the
/// injector's own typed error; no node reads past its first failed chunk.
#[test]
fn parallel_scan_fails_typed_once_read_errors_outlast_the_policy() {
    let plan = FaultPlan {
        seed: chaos_seeds()[0],
        max_faults: 1_000,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 1.0, 1_000);
    let injector = FaultInjector::new(plan, EventLog::disabled());
    let engine = QueryEngine::new(parallel_scan_deployment()).with_faults(injector.clone());
    let err = engine.execute(FULL_SCAN).unwrap_err();
    assert!(
        matches!(&err, Error::Cluster(m) if m == "injected transient chunk-read fault"),
        "{err}"
    );
    let attempts = RecoveryPolicy::default().max_attempts as u64;
    let reads = injector.stats()[Fault::ReadError];
    assert!(
        (attempts..=3 * attempts).contains(&reads),
        "{reads} reads on 3 nodes at {attempts} attempts each"
    );
}

/// (e) A cancel that lands while every reader of a parallel scan sleeps a
/// retry backoff stops the scan within one sleep slice, as
/// `Error::Cancelled`.
#[test]
fn cancel_stops_a_parallel_scan() {
    let plan = FaultPlan {
        seed: chaos_seeds()[0],
        max_faults: 1_000,
        ..FaultPlan::none()
    }
    .with(Fault::ReadError, 1.0, 1_000);
    let injector = FaultInjector::new(plan, EventLog::disabled());
    let recovery = RecoveryPolicy {
        max_attempts: 1_000,
        base_backoff_ms: 250,
    };
    let cancel = CancelToken::new();
    let d = parallel_scan_deployment();
    let table = d.metadata().table_id("t1").unwrap();
    let chunks = d.metadata().all_chunks(table).unwrap();
    let reader = SubTableReader::new(
        &d,
        injector.clone(),
        Spans::disabled(),
        recovery,
        cancel.clone(),
    )
    .unwrap();
    let (err, took) = std::thread::scope(|s| {
        let scan = s.spawn(|| exec::scan_chunks(&reader, table, &chunks, None).unwrap_err());
        // Every node's first read has failed: all three readers back off.
        while injector.stats()[Fault::ReadError] < 3 {
            std::thread::yield_now();
        }
        let cancelled_at = Instant::now();
        cancel.cancel();
        let err = scan.join().unwrap();
        (err, cancelled_at.elapsed())
    });
    assert!(matches!(err, Error::Cancelled), "{err}");
    assert!(
        took < Duration::from_secs(1),
        "cancel must interrupt every reader's backoff within ~one slice, took {took:?}"
    );
}
