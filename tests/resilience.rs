//! End-to-end resilience acceptance: plan-level QES failover returns the
//! no-fault oracle, a query cancelled mid-join unwinds in bounded time
//! without leaking scratch state, and the recovery backoff sleep observes
//! the cancel token within one slice.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{
    silence_injected_panics, CancelToken, Fault, FaultInjector, FaultPlan, RecoveryPolicy,
    ScratchKind, WorkerPanicSpec,
};
use orv::join::{grace_hash_join, GraceHashConfig, JoinAlgorithm};
use orv::obs::{EventLog, Obs};
use orv::query::{algorithm_slug, QueryEngine};
use orv::types::{Error, TableId};
use std::time::{Duration, Instant};

fn deployment() -> (Deployment, TableId, TableId) {
    let d = Deployment::in_memory(2);
    let h1 = generate_dataset(
        &DatasetSpec::builder("ra")
            .grid([6, 6, 2])
            .partition([3, 3, 2])
            .scalar_attrs(&["u"])
            .seed(51)
            .build(),
        &d,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("rb")
            .grid([6, 6, 2])
            .partition([2, 3, 1])
            .scalar_attrs(&["v"])
            .seed(52)
            .build(),
        &d,
    )
    .unwrap();
    (d, h1.table, h2.table)
}

fn engine() -> QueryEngine {
    QueryEngine::new(deployment().0)
}

const JOIN_SQL: &str = "SELECT * FROM ra JOIN rb ON (x, y, z)";

/// A terminal mid-query failure of the planner's chosen QES (every
/// compute worker crashes) must fail over to the alternate algorithm and
/// still return the no-fault oracle rows, with the switch on the record.
#[test]
fn terminal_qes_failure_fails_over_and_matches_oracle() {
    silence_injected_panics();
    let oracle = engine().execute(JOIN_SQL).unwrap();
    let chosen = oracle.explain.as_ref().unwrap().algorithm;
    assert!(!oracle.rows.is_empty());

    let plan = FaultPlan {
        seed: 3,
        worker_panics: (0..2)
            .map(|w| WorkerPanicSpec {
                worker: w,
                after_ops: 0,
            })
            .collect(),
        max_faults: 8,
        ..FaultPlan::none()
    };
    let obs = Obs::enabled();
    let chaotic = engine()
        .with_obs(obs.clone())
        .with_faults(FaultInjector::new(plan, EventLog::disabled()));
    let r = chaotic.execute(JOIN_SQL).unwrap();
    assert_eq!(r.rows, oracle.rows, "failover result must match the oracle");

    let failovers = obs.events.events_of_kind("qes_failover");
    assert_eq!(failovers.len(), 1);
    assert_eq!(
        failovers[0].fields["from"].as_str().unwrap(),
        algorithm_slug(chosen)
    );
    let fallback = match chosen {
        JoinAlgorithm::IndexedJoin => JoinAlgorithm::GraceHash,
        JoinAlgorithm::GraceHash => JoinAlgorithm::IndexedJoin,
    };
    assert_eq!(
        failovers[0].fields["to"].as_str().unwrap(),
        algorithm_slug(fallback)
    );
}

/// Scratch temp directories created under the system temp dir for this
/// process (other test binaries have their own pid).
fn scratch_dirs() -> Vec<std::path::PathBuf> {
    let marker = "orv-scratch-gh";
    let pid = format!("-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(marker) && n.contains(&pid))
        })
        .collect()
}

/// The acceptance bound: cancelling a query mid-join returns a typed
/// `Error::Cancelled` in under two seconds, the worker threads all wind
/// down (the scoped runtime cannot return while any survive), and the
/// on-disk scratch directories are reclaimed by RAII.
#[test]
fn cancelled_mid_join_unwinds_fast_without_leaking_scratch() {
    let before = scratch_dirs().len();

    // Injected read delays keep the join busy long enough to be caught
    // mid-flight (delays are unbounded by the fault budget).
    let plan = FaultPlan {
        seed: 7,
        ..FaultPlan::none()
    }
    .with(Fault::ReadDelay, 1.0, 150);
    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    let worker = std::thread::spawn(move || {
        let (d, t1, t2) = deployment();
        let cfg = GraceHashConfig {
            n_compute: 2,
            collect_results: true,
            scratch: ScratchKind::TempFile,
            faults: Some(FaultInjector::new(plan, EventLog::disabled())),
            cancel,
            ..Default::default()
        };
        grace_hash_join(&d, t1, t2, &["x", "y", "z"], &cfg)
    });

    std::thread::sleep(Duration::from_millis(100));
    let cancelled_at = Instant::now();
    canceller.cancel();
    let result = worker.join().expect("join must not panic");
    let unwind = cancelled_at.elapsed();

    match result {
        Err(Error::Cancelled) => {}
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    assert!(
        unwind < Duration::from_secs(2),
        "cancel must unwind in under 2s, took {unwind:?}"
    );
    assert_eq!(
        scratch_dirs().len(),
        before,
        "cancelled join must not leak scratch directories"
    );
}

/// A query-level deadline surfaces as `Error::DeadlineExceeded` — and a
/// token that mixes cancel + deadline reports the cancel (the user's
/// explicit verdict wins).
#[test]
fn expired_deadline_is_typed_and_cancel_takes_precedence() {
    let e = engine().with_query_deadline(Duration::ZERO);
    let err = e.execute(JOIN_SQL).unwrap_err();
    assert!(matches!(err, Error::DeadlineExceeded), "{err}");

    let token = CancelToken::with_deadline(Duration::ZERO);
    token.cancel();
    let e = engine();
    let err = e
        .run(&e.prepare(JOIN_SQL).unwrap(), &token.into())
        .unwrap_err();
    assert!(matches!(err, Error::Cancelled), "{err}");
}

/// Watchdog regression: a `RecoveryPolicy` retry loop with a huge backoff
/// stops sleeping within one 250 ms slice of the token firing, and the
/// cancellation error is never itself retried.
#[test]
fn recovery_backoff_observes_cancel_within_one_slice() {
    let policy = RecoveryPolicy {
        max_attempts: 10,
        base_backoff_ms: 60_000,
        op_deadline_ms: 600_000,
    };
    let cancel = CancelToken::new();
    let canceller = cancel.clone();
    let watchdog = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        canceller.cancel();
    });
    let start = Instant::now();
    let (result, retries) = policy.run_cancellable(&cancel, || -> orv::types::Result<()> {
        Err(Error::Cluster("flaky".into()))
    });
    let took = start.elapsed();
    watchdog.join().unwrap();
    match result {
        Err(Error::Cancelled) => {}
        other => panic!("expected Error::Cancelled, got {other:?}"),
    }
    assert!(retries <= 1, "the first backoff sleep must be interrupted");
    assert!(
        took < Duration::from_secs(1),
        "cancel must interrupt the backoff sleep within ~one slice, took {took:?}"
    );
}
