//! Randomized stress: arbitrary client mixes against the
//! [`QueryService`], checked against a sequential oracle.
//!
//! Two entry points share one engine:
//!
//! - a proptest that draws (seed, clients, rounds, pool sizing) and runs
//!   a full client mix per case;
//! - [`seeded_stress_from_env`], a heavier single round whose seed comes
//!   from `ORV_STRESS_SEED` — the chaos CI matrix drives it with each
//!   matrix seed so failures reproduce with one env var.
//!
//! Every wait goes through a watchdog timeout: a hang fails the test in
//! bounded time instead of wedging CI. Clients randomly execute, cancel
//! mid-flight, or attach ~expired deadlines; whatever the interleaving,
//! completed queries must match the oracle byte-for-byte, failed ones
//! must carry a cancellation error, and the admission / completion /
//! cache counters must balance once every ticket resolves.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::CancelToken;
use orv::join::reference::sort_records;
use orv::join::JoinAlgorithm;
use orv::query::{QueryEngine, QueryService, ServiceConfig};
use orv::types::{Error, Record};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Upper bound on any single ticket wait. A healthy query on this
/// workload takes milliseconds; hitting this means the service hung.
const WATCHDOG: Duration = Duration::from_secs(30);

const POOL: &[&str] = &[
    "SELECT * FROM v1",
    "SELECT * FROM v2",
    "SELECT * FROM v1 WHERE x IN [0, 3]",
    "SELECT * FROM t1 WHERE y IN [1, 5]",
    "SELECT COUNT(*), MAX(wp) FROM v2",
];

fn build_engine() -> QueryEngine {
    let d = Deployment::in_memory(1);
    for (name, scalar, seed) in [("t1", "oilp", 1u64), ("t2", "wp", 2)] {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([8, 8, 1])
                .partition([2, 2, 1])
                .scalar_attrs(&[scalar])
                .seed(seed)
                .build(),
            &d,
        )
        .expect("dataset generation");
    }
    let engine = QueryEngine::new(d).force_algorithm(Some(JoinAlgorithm::IndexedJoin));
    engine
        .execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
        .expect("create v1");
    engine
        .execute("CREATE VIEW v2 AS SELECT * FROM t1 JOIN t2 ON (x, y)")
        .expect("create v2");
    engine
}

fn canonical(columns: Vec<String>, rows: Vec<Record>) -> (Vec<String>, Vec<Record>) {
    (columns, sort_records(rows))
}

/// SplitMix64 — a tiny deterministic PRNG so client scripts depend only
/// on the seed, never on platform RNG state.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a client does with one scripted query.
#[derive(Clone, Copy, Debug)]
enum Action {
    /// Submit and wait for the result; must match the oracle.
    Execute,
    /// Submit, then cancel immediately; completion and cancellation are
    /// both legal outcomes of the race.
    CancelEarly,
    /// Submit with an (almost certainly) already-expired deadline.
    TightDeadline,
}

/// One full client-mix round. Returns after every ticket resolved, so
/// callers can assert global balances. Panics on oracle mismatch,
/// non-cancellation errors, or a watchdog hang.
fn stress_round(seed: u64, clients: usize, rounds: usize) {
    let oracle_engine = build_engine();
    let oracle: Arc<Vec<(Vec<String>, Vec<Record>)>> = Arc::new(
        POOL.iter()
            .map(|sql| {
                let r = oracle_engine.execute(sql).expect("oracle query");
                canonical(r.columns, r.rows)
            })
            .collect(),
    );

    let svc = Arc::new(
        QueryService::new(
            build_engine(),
            ServiceConfig {
                // Undersized on purpose: admission rejections are part
                // of the mix being stressed.
                workers: (clients / 2).max(1),
                queue_cap: clients.max(2),
                ..ServiceConfig::default()
            },
        )
        .expect("service"),
    );

    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let oracle = Arc::clone(&oracle);
            let barrier = Arc::clone(&barrier);
            let mut rng = Rng(seed ^ (client as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..rounds {
                    let idx = rng.below(POOL.len() as u64) as usize;
                    let action = match rng.below(4) {
                        0 => Action::CancelEarly,
                        1 => Action::TightDeadline,
                        _ => Action::Execute,
                    };
                    let submitted = match action {
                        Action::TightDeadline => svc.submit_prepared(
                            svc.engine().prepare(POOL[idx]).expect("pool binds"),
                            CancelToken::with_deadline(Duration::from_micros(rng.below(200)))
                                .into(),
                        ),
                        _ => svc.submit(POOL[idx]),
                    };
                    let ticket = match submitted {
                        Ok(t) => t,
                        // Admission control rejecting under burst load
                        // is correct behaviour, not a failure.
                        Err(Error::Overloaded { .. }) => continue,
                        Err(other) => panic!("unexpected submit error: {other}"),
                    };
                    if matches!(action, Action::CancelEarly) {
                        ticket.cancel();
                    }
                    let result = ticket.wait_timeout(WATCHDOG).unwrap_or_else(|| {
                        panic!(
                            "watchdog: client {client} round {round} \
                                 ({action:?} on {:?}) hung > {WATCHDOG:?}",
                            POOL[idx]
                        )
                    });
                    match result {
                        Ok(r) => {
                            assert_eq!(
                                canonical(r.columns, r.rows),
                                oracle[idx],
                                "client {client} round {round} drifted on {:?}",
                                POOL[idx]
                            );
                        }
                        Err(e) => {
                            assert!(
                                e.is_cancellation(),
                                "client {client} round {round}: non-cancellation \
                                 failure under {action:?}: {e}"
                            );
                            assert!(
                                !matches!(action, Action::Execute),
                                "plain execute must never be cancelled: {e}"
                            );
                        }
                    }
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
    let cache = svc.engine().cache_stats();
    assert_eq!(
        cache.lookups(),
        cache.hits + cache.misses,
        "cache counter imbalance: {cache:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random client mixes: any seed, 1–6 clients, short scripts. Each
    /// case is one full service lifecycle (spawn, stress, drain, drop).
    #[test]
    fn random_client_mixes_match_the_oracle(
        seed in 0u64..1 << 32,
        clients in 1usize..6,
        rounds in 1usize..8,
    ) {
        stress_round(seed, clients, rounds);
    }
}

/// Heavier deterministic round for the chaos CI matrix: 8 clients, long
/// scripts, seed from `ORV_STRESS_SEED` (default 42). Reproduce any CI
/// failure locally with
/// `ORV_STRESS_SEED=<seed> cargo test --test service_stress seeded_stress_from_env`.
#[test]
fn seeded_stress_from_env() {
    let seed = std::env::var("ORV_STRESS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);
    stress_round(seed, 8, 12);
}

/// Key-collision stress against the per-node cache: many clients hammer
/// a handful of keys. Single-flight must build every `(node, key)` pair
/// exactly once for the whole run (one generation — the cache is big
/// enough that nothing is ever evicted), and the per-node counters
/// must sum exactly to the aggregate totals.
#[test]
fn key_collision_single_flight_and_shard_counter_balance() {
    use orv::chunk::SubTable;
    use orv::join::{CacheKey, CacheService, CachedEntry};
    use orv::types::{Schema, SubTableId, Value};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    const NODES: usize = 2;
    const KEYS: u32 = 4; // few keys...
    const CLIENTS: usize = 16; // ...many clients
    const ROUNDS: usize = 32;

    let svc = Arc::new(CacheService::new(NODES, 1 << 20));
    let entry = || {
        let schema = Arc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let row = [Record::new(vec![Value::I32(0), Value::F32(0.0)])];
        CachedEntry::Right(Arc::new(
            SubTable::from_records(SubTableId::new(0u32, 0u32), schema, &row).unwrap(),
        ))
    };
    // Builds per (node, key); single-flight means each lands on 1.
    let builds: Arc<Mutex<HashMap<(usize, u32), u64>>> = Arc::new(Mutex::new(HashMap::new()));
    let calls = Arc::new(AtomicU64::new(0));

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let svc = Arc::clone(&svc);
            let builds = Arc::clone(&builds);
            let calls = Arc::clone(&calls);
            let barrier = Arc::clone(&barrier);
            let mut rng = Rng(0xc011_1de5 ^ (client as u64).wrapping_mul(0x9e37_79b9));
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..ROUNDS {
                    let c = rng.below(KEYS as u64) as u32;
                    let j = rng.below(NODES as u64) as usize;
                    let key = CacheKey::Right(SubTableId::new(0u32, c));
                    calls.fetch_add(1, Ordering::Relaxed);
                    svc.get_or_build(j, key, &CancelToken::none(), || {
                        *builds.lock().unwrap().entry((j, c)).or_insert(0) += 1;
                        Ok((entry(), 64))
                    })
                    .unwrap_or_else(|e| panic!("get_or_build failed: {e}"));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let builds = builds.lock().unwrap();
    for (&(j, c), &n) in builds.iter() {
        assert_eq!(
            n, 1,
            "key c{c} on node {j} built {n} times in one generation"
        );
    }
    assert!(!builds.is_empty());

    let total = svc.stats();
    assert_eq!(total.evictions, 0, "one generation: nothing may be evicted");
    assert_eq!(
        total.misses,
        builds.len() as u64,
        "every miss is one build of a distinct (node, key)"
    );
    assert_eq!(
        total.hits + total.misses,
        calls.load(Ordering::Relaxed),
        "every call is either the builder or answered from the cache"
    );

    // Per-node counters decompose the totals exactly.
    let per_shard = svc.shard_stats();
    assert_eq!(per_shard.len(), NODES);
    assert_eq!(per_shard.iter().map(|s| s.hits).sum::<u64>(), total.hits);
    assert_eq!(
        per_shard.iter().map(|s| s.misses).sum::<u64>(),
        total.misses
    );
}
