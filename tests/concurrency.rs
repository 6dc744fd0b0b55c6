//! Deterministic concurrency harness for the [`QueryService`].
//!
//! Drives seeded client threads through scripted schedules — full-load
//! oracle comparison, barrier-stepped admission, queued and mid-flight
//! cancellation, cache-thrash interleavings — and asserts that every
//! result equals the single-threaded oracle and that every counter
//! balances:
//!
//! ```text
//! submitted    == admitted + rejected
//! admitted     == completed + cancelled      (once all tickets resolve)
//! cache hits + cache misses == cache lookups
//! ```
//!
//! All schedules are deterministic: client scripts come from a seeded
//! LCG, blocking points are real rendezvous (channels occupying a cache
//! key via single-flight), and wall-clock only enters the `< 2 s`
//! cancellation-latency assertions, never control flow.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::CancelToken;
use orv::join::reference::sort_records;
use orv::join::{left_key_tag, CacheKey, JoinAlgorithm};
use orv::query::{QueryEngine, QueryService, ServiceConfig};
use orv::types::{Error, Record, SubTableId};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Queued or running, a cancelled query's ticket must resolve faster
/// than this (the acceptance bound; the real latency is one 250 ms
/// sleep slice at worst).
const CANCEL_BOUND: Duration = Duration::from_secs(2);

/// Build a fresh engine over two 16×16 tables with two join views.
///
/// Everything is seeded, so two calls produce engines with identical
/// data — one serves concurrent clients, the other is the sequential
/// oracle.
fn build_engine(cache_bytes: Option<u64>) -> QueryEngine {
    let d = Deployment::in_memory(1);
    for (name, scalar, seed) in [("t1", "oilp", 1u64), ("t2", "wp", 2)] {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([16, 16, 1])
                .partition([4, 4, 1])
                .scalar_attrs(&[scalar])
                .seed(seed)
                .build(),
            &d,
        )
        .expect("dataset generation");
    }
    let mut engine = QueryEngine::new(d).force_algorithm(Some(JoinAlgorithm::IndexedJoin));
    if let Some(bytes) = cache_bytes {
        engine = engine.with_cache_capacity(bytes);
    }
    engine
        .execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
        .expect("create v1");
    engine
        .execute("CREATE VIEW v2 AS SELECT * FROM t1 JOIN t2 ON (x, y)")
        .expect("create v2");
    engine
}

/// The query mix the seeded clients draw from: unconstrained and
/// constrained view scans, base-table ranges and an aggregation.
const POOL: &[&str] = &[
    "SELECT * FROM v1",
    "SELECT * FROM v2",
    "SELECT * FROM v1 WHERE x IN [0, 7]",
    "SELECT * FROM v2 WHERE y IN [4, 11]",
    "SELECT * FROM t1 WHERE x IN [2, 9]",
    "SELECT COUNT(*), MIN(oilp) FROM v1",
];

/// Deterministic per-client script: `rounds` indices into [`POOL`].
fn client_script(seed: u64, rounds: usize) -> Vec<usize> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..rounds)
        .map(|_| {
            // SplitMix64 step — stable across platforms.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize % POOL.len()
        })
        .collect()
}

/// Canonical form of a result for byte-identical comparison: columns
/// plus rows sorted into the reference order.
fn canonical(columns: Vec<String>, rows: Vec<Record>) -> (Vec<String>, Vec<Record>) {
    (columns, sort_records(rows))
}

/// Tentpole scenario: 8 seeded clients hammer one service; every result
/// must be byte-identical to the sequential oracle and every counter
/// must balance afterwards.
#[test]
fn eight_clients_match_the_sequential_oracle() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;

    // Sequential oracle over an identical (seeded) engine.
    let oracle_engine = build_engine(None);
    let oracle: Vec<(Vec<String>, Vec<Record>)> = POOL
        .iter()
        .map(|sql| {
            let r = oracle_engine.execute(sql).expect("oracle query");
            canonical(r.columns, r.rows)
        })
        .collect();
    let oracle = Arc::new(oracle);

    let svc = Arc::new(
        QueryService::new(
            build_engine(None),
            ServiceConfig {
                workers: 4,
                queue_cap: 64,
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let oracle = Arc::clone(&oracle);
            let barrier = Arc::clone(&barrier);
            let script = client_script(client as u64, ROUNDS);
            std::thread::spawn(move || {
                barrier.wait();
                for idx in script {
                    let r = svc.execute(POOL[idx]).expect("client query");
                    let got = canonical(r.columns, r.rows);
                    assert_eq!(
                        got, oracle[idx],
                        "client {client} drifted from the oracle on {:?}",
                        POOL[idx]
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let c = svc.counters();
    assert!(c.admission_balances(), "admission imbalance: {c:?}");
    assert!(c.completion_balances(), "completion imbalance: {c:?}");
    assert_eq!(c.submitted, (CLIENTS * ROUNDS) as u64);
    assert_eq!(c.rejected, 0, "queue_cap 64 must never reject 8 clients");
    assert_eq!(c.cancelled, 0);
    assert_eq!(c.completed, c.submitted);

    let cache = svc.engine().cache_stats();
    assert_eq!(cache.lookups(), cache.hits + cache.misses);
    assert!(cache.hits > 0, "warm clients must hit the shared cache");
}

/// Barrier-stepped admission: 8 clients submit simultaneously into a
/// workers=0, cap=5 service. Exactly 5 are admitted, 3 are rejected
/// with the typed [`Error::Overloaded`], and cancelling the queued
/// tickets resolves each with [`Error::Cancelled`] in well under 2 s.
#[test]
fn barrier_stepped_admission_rejects_past_the_cap() {
    const CLIENTS: usize = 8;
    const CAP: usize = 5;

    let svc = Arc::new(
        QueryService::new(
            build_engine(None),
            ServiceConfig {
                workers: 0, // admission only: nothing ever drains the queue
                queue_cap: CAP,
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                svc.submit("SELECT * FROM v1")
            })
        })
        .collect();

    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for h in handles {
        match h.join().expect("submitter thread") {
            Ok(t) => tickets.push(t),
            Err(Error::Overloaded { queued, cap, .. }) => {
                assert_eq!(cap, CAP, "rejection must report the configured cap");
                assert!(
                    queued >= cap,
                    "rejection with {queued} queued under cap {cap}"
                );
                rejected += 1;
            }
            Err(other) => panic!("expected Overloaded, got {other}"),
        }
    }
    assert_eq!(tickets.len(), CAP, "exactly queue_cap submissions admitted");
    assert_eq!(rejected, CLIENTS - CAP);

    // Nothing runs (workers = 0), so every ticket is still pending…
    for t in &tickets {
        assert!(
            t.wait_timeout(Duration::from_millis(50)).is_none(),
            "no worker exists, yet a ticket resolved"
        );
    }
    // …and cancelling a queued ticket resolves it immediately.
    for t in tickets {
        let started = Instant::now();
        t.cancel();
        let err = t.wait().expect_err("cancelled queued query must fail");
        assert!(
            matches!(err, Error::Cancelled),
            "expected Cancelled, got {err}"
        );
        assert!(
            started.elapsed() < CANCEL_BOUND,
            "queued cancellation took {:?}",
            started.elapsed()
        );
    }

    let c = svc.counters();
    assert!(c.admission_balances(), "admission imbalance: {c:?}");
    assert!(c.completion_balances(), "completion imbalance: {c:?}");
    assert_eq!(
        (
            c.submitted,
            c.admitted,
            c.rejected,
            c.completed,
            c.cancelled
        ),
        (8, 5, 3, 0, 5)
    );
}

/// Scripted cancellation schedule against a single-worker service whose
/// worker is pinned mid-flight.
///
/// A helper thread occupies the first left-build cache key through the
/// single-flight path (its builder blocks on a channel), so the worker's
/// first query waits cancellably inside the Caching Service — a real
/// mid-flight block, not a sleep. Then:
///
/// 1. cancelling a *queued* query behind the busy worker resolves
///    `Error::Cancelled` in < 2 s without a worker touching it;
/// 2. cancelling the *running* query unwinds it within a sleep slice;
/// 3. once the key is released, a fresh query completes, proving the
///    single-flight slot was cleanly surrendered.
#[test]
fn queued_and_midflight_cancellation_resolve_quickly() {
    let svc = Arc::new(
        QueryService::new(
            build_engine(None),
            ServiceConfig {
                workers: 1,
                queue_cap: 8,
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    // The first key an unconstrained v1 scan builds: the lexicographically
    // smallest left sub-table on compute node 0, tagged with the view's
    // join attributes.
    let md = svc.engine().deployment().metadata();
    let t1 = md.table_id("t1").expect("t1 registered");
    let first_chunk = md
        .all_chunks(t1)
        .expect("t1 chunks")
        .into_iter()
        .min()
        .expect("t1 has chunks");
    let key = CacheKey::Left(
        SubTableId::new(t1, first_chunk),
        left_key_tag(&["x", "y", "z"], 1),
    );

    // Occupy the key: the blocker becomes the single-flight builder and
    // parks on a channel until the script releases it.
    let cache = svc.engine().shared_cache();
    let (occupied_tx, occupied_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let blocker = std::thread::spawn(move || {
        let res = cache.get_or_build(0, key, &CancelToken::none(), || {
            // Runs only once this thread owns the single-flight slot.
            occupied_tx.send(()).expect("occupied signal");
            release_rx.recv().expect("release signal");
            // Surrender the slot without publishing an entry; waiters
            // re-run the lookup and one of them becomes the builder.
            Err(Error::Cluster("blocker released".into()))
        });
        assert!(res.is_err(), "the blocking builder must not cache anything");
    });

    occupied_rx.recv().expect("blocker owns the key");

    // q1 occupies the only worker and blocks on the key; q2 queues.
    let q1 = svc.submit("SELECT * FROM v1").expect("submit q1");
    let q2 = svc.submit("SELECT * FROM v1").expect("submit q2");
    assert!(
        q1.wait_timeout(Duration::from_millis(300)).is_none(),
        "q1 must be pinned on the occupied cache key"
    );

    // (1) queued cancellation: resolved by the canceller, not a worker.
    let started = Instant::now();
    q2.cancel();
    let err = q2.wait().expect_err("cancelled queued query must fail");
    assert!(matches!(err, Error::Cancelled), "got {err}");
    assert!(
        started.elapsed() < CANCEL_BOUND,
        "queued cancellation took {:?}",
        started.elapsed()
    );

    // (2) mid-flight cancellation: the waiter inside get_or_build
    // notices the token within one sleep slice.
    let started = Instant::now();
    q1.cancel();
    let err = q1.wait().expect_err("cancelled running query must fail");
    assert!(err.is_cancellation(), "got {err}");
    assert!(
        started.elapsed() < CANCEL_BOUND,
        "mid-flight cancellation took {:?}",
        started.elapsed()
    );

    // (3) release the key; the service must serve fresh queries again.
    release_tx.send(()).expect("release blocker");
    blocker.join().expect("blocker thread");
    let oracle = build_engine(None)
        .execute("SELECT * FROM v1")
        .expect("oracle");
    let r = svc.execute("SELECT * FROM v1").expect("post-release query");
    assert_eq!(
        canonical(r.columns, r.rows),
        canonical(oracle.columns, oracle.rows),
        "post-release result drifted"
    );

    let c = svc.counters();
    assert!(c.admission_balances(), "admission imbalance: {c:?}");
    assert!(c.completion_balances(), "completion imbalance: {c:?}");
    assert_eq!(
        (
            c.submitted,
            c.admitted,
            c.rejected,
            c.completed,
            c.cancelled
        ),
        (3, 3, 0, 1, 2)
    );
}

/// Cache-thrash interleaving: a cache far too small for either view's
/// working set forces constant evictions while two views with the same
/// left sub-tables but *different* join-attribute tags interleave.
/// Results must still match the oracle (no cross-view key aliasing) and
/// the cache counters must balance.
#[test]
fn cache_thrash_interleaving_stays_correct() {
    const CLIENTS: usize = 4;
    const ROUNDS: usize = 4;

    let oracle_engine = build_engine(None);
    let oracle: Vec<(Vec<String>, Vec<Record>)> = ["SELECT * FROM v1", "SELECT * FROM v2"]
        .iter()
        .map(|sql| {
            let r = oracle_engine.execute(sql).expect("oracle query");
            canonical(r.columns, r.rows)
        })
        .collect();
    let oracle = Arc::new(oracle);

    // ~2 KiB: a handful of sub-tables at most, so interleaved v1/v2
    // scans continuously evict each other's entries.
    let svc = Arc::new(
        QueryService::new(
            build_engine(Some(2048)),
            ServiceConfig {
                workers: CLIENTS,
                queue_cap: 32,
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let oracle = Arc::clone(&oracle);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..ROUNDS {
                    // Alternate views out of phase across clients so
                    // every round interleaves both tags over the same
                    // left sub-tables.
                    let idx = (client + round) % 2;
                    let sql = ["SELECT * FROM v1", "SELECT * FROM v2"][idx];
                    let r = svc.execute(sql).expect("client query");
                    assert_eq!(
                        canonical(r.columns, r.rows),
                        oracle[idx],
                        "client {client} round {round} drifted on {sql}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let c = svc.counters();
    assert!(c.admission_balances(), "admission imbalance: {c:?}");
    assert!(c.completion_balances(), "completion imbalance: {c:?}");
    assert_eq!(c.completed, (CLIENTS * ROUNDS) as u64);

    let cache = svc.engine().cache_stats();
    assert_eq!(cache.lookups(), cache.hits + cache.misses);
    assert!(
        cache.evictions > 0,
        "a 2 KiB cache must thrash under interleaved views: {cache:?}"
    );
}

/// Dropping the service with queued work cancels the queue instead of
/// hanging or leaking tickets: every outstanding ticket resolves as
/// cancelled and the counters still balance.
#[test]
fn drop_with_queued_work_cancels_cleanly() {
    let svc = QueryService::new(
        build_engine(None),
        ServiceConfig {
            workers: 0,
            queue_cap: 4,
            ..ServiceConfig::default()
        },
    )
    .expect("service");

    let tickets: Vec<_> = (0..4)
        .map(|_| svc.submit("SELECT * FROM v1").expect("submit"))
        .collect();
    let counters_handle = {
        // Counters survive on the tickets' shared inner past the drop.
        let t = &tickets[0];
        t.cancel_token() // keep a token alive; exercises the accessor
    };
    drop(svc);
    for t in tickets {
        let err = t.wait().expect_err("drained ticket must be cancelled");
        assert!(matches!(err, Error::Cancelled), "got {err}");
    }
    // The kept token reports cancelled state once the queue drained it.
    assert!(counters_handle.check().is_err());
}

/// Catalog snapshot consistency under concurrent publishes: a reader
/// holding an old snapshot sees exactly the views it had when taken,
/// forever — a writer registering new views publishes fresh snapshots
/// without mutating any outstanding one.
#[test]
fn catalog_snapshots_survive_concurrent_publishes() {
    const WRITES: usize = 24;
    const READERS: usize = 4;

    let engine = Arc::new(build_engine(None));
    let v0 = engine.catalog_version();
    let snapshot0 = engine.catalog();
    let mut names0 = snapshot0.names();
    names0.sort();
    assert_eq!(names0, vec!["v1".to_string(), "v2".to_string()]);

    let barrier = Arc::new(Barrier::new(READERS + 1));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let barrier = Arc::clone(&barrier);
            let names0 = names0.clone();
            std::thread::spawn(move || {
                // Pin a snapshot before any write lands, then keep
                // re-reading it while the writer publishes: a
                // snapshot must never change underneath its holder.
                let pinned = engine.catalog();
                let pinned_version = engine.catalog_version();
                barrier.wait();
                loop {
                    let mut held = pinned.names();
                    held.sort();
                    assert_eq!(held, names0, "pinned snapshot mutated");
                    // Fresh loads are monotonic and internally
                    // consistent: every name the old snapshot had is still
                    // registered in any later one.
                    let fresh = engine.catalog();
                    for n in &held {
                        assert!(fresh.get(n).is_some(), "view {n} vanished");
                    }
                    if engine.catalog_version() >= pinned_version + WRITES as u64 {
                        return pinned_version;
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    barrier.wait();
    for k in 0..WRITES {
        engine
            .execute(&format!(
                "CREATE VIEW w{k} AS SELECT * FROM t1 JOIN t2 ON (x, y)"
            ))
            .unwrap_or_else(|e| panic!("create w{k}: {e}"));
    }

    for r in readers {
        let pinned_version = r.join().expect("reader thread");
        assert!(pinned_version >= v0);
    }

    // The snapshot taken before the first write still reads as it did.
    let mut held = snapshot0.names();
    held.sort();
    assert_eq!(held, names0);
    assert_eq!(engine.catalog_version(), v0 + WRITES as u64);
    // And the current catalog has everything.
    assert_eq!(engine.catalog().names().len(), names0.len() + WRITES);
}

/// Cancelling a query that is mid-flight while a writer storms the
/// catalog with publishes must still resolve within the cancellation
/// bound: catalog publishes never hold a lock a query's cancellation
/// path could block on.
#[test]
fn cancel_during_catalog_publish_resolves_quickly() {
    let svc = Arc::new(
        QueryService::new(
            build_engine(None),
            ServiceConfig {
                workers: 1,
                queue_cap: 8,
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    // Pin the only worker on an occupied single-flight key, exactly as
    // the mid-flight cancellation test does.
    let md = svc.engine().deployment().metadata();
    let t1 = md.table_id("t1").expect("t1 registered");
    let first_chunk = md
        .all_chunks(t1)
        .expect("t1 chunks")
        .into_iter()
        .min()
        .expect("t1 has chunks");
    let key = CacheKey::Left(
        SubTableId::new(t1, first_chunk),
        left_key_tag(&["x", "y", "z"], 1),
    );
    let cache = svc.engine().shared_cache();
    let (occupied_tx, occupied_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let blocker = std::thread::spawn(move || {
        let res = cache.get_or_build(0, key, &CancelToken::none(), || {
            occupied_tx.send(()).expect("occupied signal");
            release_rx.recv().expect("release signal");
            Err(Error::Cluster("blocker released".into()))
        });
        assert!(res.is_err());
    });
    occupied_rx.recv().expect("blocker owns the key");

    let q1 = svc.submit("SELECT * FROM v1").expect("submit q1");
    assert!(
        q1.wait_timeout(Duration::from_millis(300)).is_none(),
        "q1 must be pinned on the occupied cache key"
    );

    // Writer storm: publish views as fast as possible until told to stop.
    let publishing = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let writer = {
        let svc = Arc::clone(&svc);
        let publishing = Arc::clone(&publishing);
        std::thread::spawn(move || {
            let mut k = 0usize;
            while publishing.load(std::sync::atomic::Ordering::Relaxed) {
                svc.engine()
                    .execute(&format!(
                        "CREATE VIEW storm{k} AS SELECT * FROM t1 JOIN t2 ON (x, y)"
                    ))
                    .expect("storm view");
                k += 1;
            }
            k
        })
    };

    let started = Instant::now();
    q1.cancel();
    let err = q1.wait().expect_err("cancelled running query must fail");
    assert!(err.is_cancellation(), "got {err}");
    assert!(
        started.elapsed() < CANCEL_BOUND,
        "cancellation under publish storm took {:?}",
        started.elapsed()
    );

    publishing.store(false, std::sync::atomic::Ordering::Relaxed);
    let published = writer.join().expect("writer thread");
    assert!(published > 0, "the writer must actually have published");
    release_tx.send(()).expect("release blocker");
    blocker.join().expect("blocker thread");
}
