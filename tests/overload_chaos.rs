//! Overload-resilience acceptance: a seeded 2× client flood plus a
//! sustained slow-shard storm ([`FaultPlan::load_storm`]) against the
//! federation, checked for *clean degradation*:
//!
//! - every fully-admitted query comes back byte-identical to the
//!   single-engine oracle — overload may shed work, never corrupt it;
//! - everything shed is typed: `Error::Overloaded` (with a backoff
//!   hint), a cancellation error, or an exact `PartialResult` — no
//!   other failure mode may appear;
//! - admission and completion counters balance on every shard, and the
//!   service-level shed counter agrees with the `overload/shed_expired`
//!   metric;
//! - total retry issue (failovers + hedges + overload re-issues) stays
//!   within each shard's retry-grant bound
//!   ([`FederatedService::retry_budget`]);
//! - no query hangs: every wait is deadline-bounded well under the
//!   watchdog.
//!
//! A second, fully deterministic test (no worker threads) replays the
//! same scripted submission sequence twice and requires byte-identical
//! brownout transition logs, pinned to the ones this script has always
//! produced. Property tests pin two structural invariants: deadline
//! budgets shrink monotonically and never go negative, and a
//! queue-expired query is never admitted to a worker. (That the brownout
//! machine never oscillates within one cooldown window is a property
//! test beside the machine, in the service's unit tests.)

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{CancelToken, FaultInjector, FaultPlan};
use orv::obs::{names, Obs, TraceOutcome};
use orv::query::{
    FederatedService, FederationConfig, OverloadConfig, QueryEngine, QueryService, ServiceConfig,
};
use orv::types::Error;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Upper bound on any single query (see `service_stress.rs`). Every
/// query in this file carries a deadline far below it, so a hang shows
/// up as a typed deadline error long before CI times out.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Per-query deadline during the storm: generous against the seeded
/// 40–80 ms storm delays, tiny against the watchdog.
const QUERY_DEADLINE: Duration = Duration::from_secs(10);

const POOL: &[&str] = &[
    "SELECT COUNT(*) FROM t1",
    "SELECT * FROM t1 WHERE x IN [0, 3]",
    "SELECT oilp FROM t1 WHERE y IN [1, 5] ORDER BY oilp DESC LIMIT 9",
];

fn deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("t1")
            .grid([8, 8, 1])
            .partition([2, 2, 1])
            .scalar_attrs(&["oilp"])
            .seed(5)
            .build(),
        &d,
    )
    .expect("dataset generation");
    d
}

/// SplitMix64 (same as `service_stress.rs`): client scripts depend only
/// on the seed.
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

#[derive(Default)]
struct Tally {
    complete: AtomicU64,
    partial: AtomicU64,
    overloaded: AtomicU64,
    cancelled: AtomicU64,
}

/// One client's scripted queries against the federation; outcomes fold
/// into the shared tally, anything untyped panics the test.
#[allow(clippy::too_many_arguments)]
fn run_client(
    fed: &FederatedService,
    oracle: &[(Vec<String>, Vec<orv::types::Record>)],
    tally: &Tally,
    issued: &AtomicU64,
    seed: u64,
    client: u64,
    queries: u64,
    tight_deadlines: bool,
) {
    let mut rng = Rng(seed ^ client.wrapping_mul(0xa076_1d64_78bd_642f));
    for round in 0..queries {
        let idx = rng.below(POOL.len() as u64) as usize;
        // A slice of flood traffic carries deadlines the storm can
        // plausibly blow: those queries exercise the budget-expiry shed
        // path instead of waiting out the stall.
        let deadline = if tight_deadlines && rng.below(3) == 0 {
            Duration::from_millis(20 + rng.below(60))
        } else {
            QUERY_DEADLINE
        };
        let token = CancelToken::with_deadline(deadline);
        let outcome = fed.execute_request(POOL[idx], &token.into());
        issued.fetch_add(1, Ordering::Relaxed);
        match outcome {
            Ok(resp) if resp.is_complete() => {
                let r = resp.into_result();
                assert_eq!(
                    (r.columns, r.rows),
                    oracle[idx].clone(),
                    "client {client} round {round} drifted on {:?} under overload",
                    POOL[idx]
                );
                tally.complete.fetch_add(1, Ordering::Relaxed);
            }
            Ok(resp) => {
                let orv::query::FederatedResponse::Partial(p) = resp else {
                    unreachable!()
                };
                assert!(!p.missing_chunks.is_empty());
                assert!(p.completeness < 1.0);
                tally.partial.fetch_add(1, Ordering::Relaxed);
            }
            Err(Error::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms > 0, "overload rejections must carry a hint");
                tally.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.is_cancellation() => {
                tally.cancelled.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => panic!("client {client} round {round}: untyped failure under overload: {e}"),
        }
    }
}

/// One full seeded load-storm round. Seed comes from `ORV_OVERLOAD_SEED`
/// in the CI chaos matrix (default 7); reproduce any failure with
/// `ORV_OVERLOAD_SEED=<seed> cargo test --test overload_chaos seeded_load_storm`.
fn load_storm_round(seed: u64) {
    const BASELINE_CLIENTS: u64 = 3;
    const BASELINE_QUERIES: u64 = 8;
    let plan = FaultPlan::load_storm(seed, BASELINE_CLIENTS, 3);
    let flood = plan.client_floods[0].clone();
    let storm = plan.shard_slow_storms[0].clone();
    let obs = Obs::enabled();
    let injector = FaultInjector::new(plan, obs.events.clone());

    let oracle_engine = QueryEngine::new(deployment());
    let oracle: Vec<(Vec<String>, Vec<orv::types::Record>)> = POOL
        .iter()
        .map(|sql| {
            let r = oracle_engine.execute(sql).expect("oracle query");
            (r.columns, r.rows)
        })
        .collect();

    let fed = Arc::new(
        FederatedService::with_instruments(
            deployment(),
            FederationConfig {
                // Deliberately undersized so the doubled client load
                // actually saturates admission: one worker per shard and
                // a queue shorter than the peak client count.
                service: ServiceConfig {
                    workers: 1,
                    queue_cap: 4,
                    ..ServiceConfig::default()
                },
                hedge_after: Some(Duration::from_millis(25)),
                ..FederationConfig::default()
            },
            obs.clone(),
            Some(injector.clone()),
        )
        .expect("federation"),
    );

    let tally = Arc::new(Tally::default());
    let issued = Arc::new(AtomicU64::new(0));
    let oracle = Arc::new(oracle);

    // Baseline clients start together; the flood is released once the
    // plan's `after_queries` baseline queries have been issued.
    let barrier = Arc::new(Barrier::new(BASELINE_CLIENTS as usize));
    let baseline: Vec<_> = (0..BASELINE_CLIENTS)
        .map(|client| {
            let fed = Arc::clone(&fed);
            let oracle = Arc::clone(&oracle);
            let tally = Arc::clone(&tally);
            let issued = Arc::clone(&issued);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                run_client(
                    &fed,
                    &oracle,
                    &tally,
                    &issued,
                    seed,
                    client,
                    BASELINE_QUERIES,
                    false,
                )
            })
        })
        .collect();
    while issued.load(Ordering::Relaxed) < flood.after_queries {
        std::thread::yield_now();
    }
    let flooders: Vec<_> = (0..flood.clients)
        .map(|client| {
            let fed = Arc::clone(&fed);
            let oracle = Arc::clone(&oracle);
            let tally = Arc::clone(&tally);
            let issued = Arc::clone(&issued);
            std::thread::spawn(move || {
                run_client(
                    &fed,
                    &oracle,
                    &tally,
                    &issued,
                    seed ^ 0x0f1d_beef,
                    1_000 + client,
                    flood.queries_per_client,
                    true,
                )
            })
        })
        .collect();
    for h in baseline.into_iter().chain(flooders) {
        h.join().expect("client thread");
    }

    // Every query resolved typed; nothing fell through to a panic.
    let total = tally.complete.load(Ordering::Relaxed)
        + tally.partial.load(Ordering::Relaxed)
        + tally.overloaded.load(Ordering::Relaxed)
        + tally.cancelled.load(Ordering::Relaxed);
    assert_eq!(
        total,
        BASELINE_CLIENTS * BASELINE_QUERIES + flood.clients * flood.queries_per_client,
        "every submission must resolve to a typed outcome"
    );
    assert!(
        tally.complete.load(Ordering::Relaxed) > 0,
        "the storm must not starve the service entirely"
    );
    assert!(
        injector.stats().shard_slow_storm_delays >= 1,
        "the seeded storm must have fired: {:?}",
        injector.stats()
    );
    assert!(
        injector.stats().shard_slow_storm_delays <= storm.storm_len,
        "storm window must close after storm_len sub-queries"
    );

    // Per-shard bookkeeping survives the stampede.
    let snap = obs.metrics.snapshot();
    let mut shed_total = 0;
    for s in 0..fed.num_shards() {
        let c = fed.shard(s).counters();
        assert!(c.admission_balances(), "shard {s} admission: {c:?}");
        assert!(c.completion_balances(), "shard {s} completion: {c:?}");
        shed_total += c.shed;
        // Retry accounting: grants never exceed what the budget's
        // capacity plus success refills can fund.
        let b = fed.retry_budget(s);
        assert!(
            b.granted() <= b.max_grants(c.completed),
            "shard {s}: {} grants exceed budget bound {} ({} completions)",
            b.granted(),
            b.max_grants(c.completed),
            c.completed
        );
    }
    // Counter agreement: the service shed counters and the overload
    // metric tell the same story.
    assert_eq!(
        snap.counters
            .get(names::OVERLOAD_SHED_EXPIRED)
            .copied()
            .unwrap_or(0),
        shed_total,
        "queue-expiry sheds must agree with the overload metric"
    );
    // Structural shed typing: rejections happened iff the shards
    // reported them, and anything shed after admission was queue-expiry
    // (counted above) or an explicit cancel — nothing silent.
    let rejected: u64 = (0..fed.num_shards())
        .map(|s| fed.shard(s).counters().rejected)
        .sum();
    if rejected > 0 {
        assert!(
            snap.counters.contains_key(names::OVERLOAD_BACKOFFS)
                || tally.overloaded.load(Ordering::Relaxed) > 0,
            "shard rejections must surface as backoffs or typed Overloaded: {:?}",
            snap.counters
        );
    }
}

#[test]
fn seeded_load_storm_degrades_cleanly() {
    let seed = std::env::var("ORV_OVERLOAD_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(7);
    load_storm_round(seed);
}

/// Deterministic brownout replay: one scripted submission sequence
/// against a workerless service (so queue depth is a pure function of
/// the script), run twice from the same seed — the rendered transition
/// logs must be byte-identical. Returns the rendered log and the tick.
fn scripted_transition_log(seed: u64) -> (String, u64) {
    let svc = QueryService::new(
        QueryEngine::new(deployment()),
        ServiceConfig {
            workers: 0,
            queue_cap: 8,
            overload: OverloadConfig {
                // Tight hysteresis so a short script crosses every state.
                brownout_enter: 0.25,
                shed_enter: 0.75,
                recover: 0.125,
                cooldown_ticks: 2,
                // Classify everything cheap: this script exercises the
                // depth-driven state machine, not the cost classifier.
                fast_lane_max_secs: f64::MAX,
            },
        },
    )
    .expect("service");
    let mut rng = Rng(seed);
    let mut held = Vec::new();
    for _ in 0..64 {
        match rng.below(3) {
            // Push pressure: submit (tolerating the cap)…
            0 | 1 => {
                if let Ok(t) = svc.submit("SELECT COUNT(*) FROM t1") {
                    held.push(t);
                }
            }
            // …or relieve it: cancel the oldest queued ticket.
            _ => {
                if !held.is_empty() {
                    let t: orv::query::QueryTicket = held.remove(0);
                    t.cancel();
                    t.wait_timeout(WATCHDOG).expect("cancel resolves").ok();
                }
            }
        }
    }
    let log = svc.brownout_log();
    assert_eq!(log.dropped, 0, "a 64-step script stays under the log cap");
    drop(held);
    (log.render(), log.tick)
}

#[test]
fn brownout_transition_log_replays_identically_from_seed() {
    let (log_a, ticks_a) = scripted_transition_log(0xdead_beef);
    let (log_b, ticks_b) = scripted_transition_log(0xdead_beef);
    assert_eq!(ticks_a, ticks_b, "tick clocks must agree");
    assert_eq!(
        log_a, log_b,
        "same seed, same script => byte-identical transition log"
    );
    assert!(
        !log_a.is_empty(),
        "the script must actually drive transitions"
    );
    // A different seed drives a different script; the machine is a
    // function of its observations, so the log (almost surely) differs.
    let (log_c, ticks_c) = scripted_transition_log(0x0bad_cafe);
    assert_ne!(log_a, log_c, "distinct scripts should leave distinct logs");
    // Both logs are pinned: the state machine and the admission path
    // around it must keep producing exactly these edges.
    let pinned_a = "7:normal->brownout@2\n13:brownout->shed@6\n26:shed->brownout@1\n\
                    28:brownout->normal@1\n30:normal->brownout@3\n35:brownout->shed@6";
    let pinned_c = "8:normal->brownout@2\n10:brownout->normal@1\n12:normal->brownout@3\n\
                    20:brownout->shed@6\n25:shed->brownout@1\n31:brownout->shed@6";
    assert_eq!((log_a.as_str(), ticks_a), (pinned_a, 44));
    assert_eq!((log_c.as_str(), ticks_c), (pinned_c, 36));
}

/// An overloaded shard is not a fault, but it is an attempt: a whole
/// statement goes to each shard once, the router backs off honoring the
/// rejection hint, never trips the breaker, and surfaces the typed
/// `Overloaded` error once every shard has turned it away.
#[test]
fn a_whole_statement_tries_each_overloaded_shard_once_without_tripping_the_breaker() {
    let obs = Obs::enabled();
    let fed = FederatedService::with_instruments(
        deployment(),
        FederationConfig {
            service: ServiceConfig {
                workers: 0,
                queue_cap: 1,
                ..ServiceConfig::default()
            },
            ..FederationConfig::default()
        },
        obs.clone(),
        None,
    )
    .expect("federation");
    // Fill every shard's one-slot queue so whole-query routing meets
    // admission rejection everywhere.
    let held: Vec<_> = (0..fed.num_shards())
        .map(|s| {
            fed.shard(s)
                .submit("SELECT COUNT(*) FROM t1")
                .expect("queue filler")
        })
        .collect();
    // A join routes whole: the router binds it, and every shard's
    // admission control rejects it before a worker ever sees it.
    let err = fed
        .execute_request(
            "SELECT COUNT(*) FROM t1 JOIN t1 ON (x, y)",
            &CancelToken::with_deadline(WATCHDOG).into(),
        )
        .expect_err("all shards saturated");
    assert!(matches!(err, Error::Overloaded { .. }), "{err}");
    let snap = obs.metrics.snapshot();
    assert!(
        snap.counters.get(names::OVERLOAD_BACKOFFS).copied() >= Some(1),
        "the router must back off on the hint: {:?}",
        snap.counters
    );
    assert!(
        !snap.counters.contains_key(names::FED_TRIPS),
        "overload must not trip breakers: {:?}",
        snap.counters
    );
    assert!(
        !snap.counters.contains_key(names::FED_SHARD_ERRORS),
        "overload must not count as a shard fault: {:?}",
        snap.counters
    );
    for s in 0..fed.num_shards() {
        assert_eq!(fed.shard(s).counters().rejected, 1, "shard {s}");
    }
    for t in held {
        t.cancel();
        t.wait_timeout(WATCHDOG).expect("drain").ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Deadline budgets are monotone non-increasing down a chain of
    /// child tokens and never negative, whatever the margins; cancelling
    /// the root fires every link.
    #[test]
    fn deadline_budgets_shrink_monotonically(
        total_ms in 1u64..10_000,
        margins in proptest::collection::vec(0u64..5_000, 1..8),
    ) {
        let root = CancelToken::with_deadline(Duration::from_millis(total_ms));
        let mut chain = vec![root.clone()];
        for m in margins {
            let prev = chain.last().expect("the chain starts at the root");
            let next = prev.child(Duration::from_millis(m));
            prop_assert!(
                next.deadline() <= prev.deadline(),
                "a hop may never extend the deadline"
            );
            // `remaining` saturates at zero — a Duration cannot go
            // negative, and an oversized margin must not panic. The
            // parent is read first: the clock only moves on.
            let before = prev.remaining();
            prop_assert!(next.remaining() <= before);
            chain.push(next);
        }
        root.cancel();
        for link in &chain {
            prop_assert!(matches!(link.check(), Err(Error::Cancelled)));
        }
    }

    /// A query whose deadline expired while queued is never admitted to
    /// a worker: it resolves as `Shed` with queue-wait-only phases, and
    /// the completion counters agree.
    #[test]
    fn queue_expired_queries_never_reach_a_worker(
        n in 1usize..6,
        workers in 1usize..3,
    ) {
        let svc = QueryService::new(
            QueryEngine::new(deployment()),
            ServiceConfig {
                workers,
                queue_cap: 8,
                ..ServiceConfig::default()
            },
        )
        .expect("service");
        let tickets: Vec<_> = (0..n)
            .map(|_| {
                svc.submit_prepared(
                    svc.engine().prepare("SELECT COUNT(*) FROM t1").expect("binds"),
                    CancelToken::with_deadline(Duration::ZERO).into(),
                )
                .expect("admission is deadline-blind")
            })
            .collect();
        for t in tickets {
            let r = t.wait_timeout(WATCHDOG).expect("watchdog");
            prop_assert!(matches!(r, Err(Error::DeadlineExceeded)), "{r:?}");
            let trace = t.trace().expect("resolved trace");
            prop_assert_eq!(trace.outcome, TraceOutcome::Shed);
            let phases: Vec<&str> =
                trace.phases.iter().map(|r| r.leaf()).collect();
            prop_assert!(
                !phases.contains(&"exec"),
                "a shed query must never execute: {phases:?}"
            );
        }
        let c = svc.counters();
        prop_assert_eq!(c.shed, n as u64);
        prop_assert_eq!(c.completed, 0);
        prop_assert!(c.completion_balances(), "{:?}", c);
    }
}
