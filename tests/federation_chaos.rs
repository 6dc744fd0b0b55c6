//! Federated serving acceptance: seeded shard faults are masked (or
//! reported exactly) by the federation router.
//!
//! 1. A seeded fault plan killing one shard mid-sequence leaves every
//!    federated answer byte-identical to a single-engine oracle, via
//!    replica failover; the `fed/*` counters agree with the injected
//!    fault log.
//! 2. Killing *every* replica of some chunks degrades to a typed
//!    [`PartialResult`] whose missing set and completeness fraction match
//!    the dead shards' ownership exactly — or to [`Error::Unavailable`]
//!    in strict mode.
//! 3. A stalled shard is beaten by a hedged re-issue to a replica, again
//!    byte-identically.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{FaultInjector, FaultPlan, ShardDeathSpec, ShardSlowStormSpec};
use orv::metadata::Placement;
use orv::obs::{names, EventLog, Obs};
use orv::query::federation::PLACEMENT_SEED;
use orv::query::{FederatedResponse, FederatedService, FederationConfig, QueryEngine, QueryResult};
use orv::types::{ChunkId, Error, SubTableId};
use std::time::Duration;

const SCAN: &str = "SELECT * FROM ft WHERE x IN [0, 5]";
const COUNT: &str = "SELECT COUNT(*) FROM ft";

fn deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("ft")
            .grid([8, 8, 2])
            .partition([2, 2, 1])
            .scalar_attrs(&["p"])
            .seed(29)
            .build(),
        &d,
    )
    .unwrap();
    d
}

fn oracle(sql: &str) -> QueryResult {
    QueryEngine::new(deployment()).execute(sql).unwrap()
}

fn shard_death_events(obs: &Obs, kind: &str) -> usize {
    obs.events
        .events_of_kind(names::FAULT_INJECTED)
        .iter()
        .filter(|ev| ev.fields["kind"].as_str() == Some(kind))
        .count()
}

#[test]
fn seeded_shard_death_mid_sequence_is_byte_identical_to_oracle() {
    for seed in [3u64, 11, 42] {
        let obs = Obs::enabled();
        let dead_shard = (seed % 3) as usize;
        let plan = FaultPlan {
            seed,
            shard_deaths: vec![ShardDeathSpec {
                shard: dead_shard,
                // Serve a couple of sub-queries first, then die: the
                // death lands mid-sequence, so both the healthy path and
                // the failover path are exercised in one run.
                after_subqueries: 2,
            }],
            max_faults: 8,
            ..FaultPlan::none()
        };
        let injector = FaultInjector::new(plan, obs.events.clone());
        let fed = FederatedService::with_instruments(
            deployment(),
            FederationConfig::default(),
            obs.clone(),
            Some(injector.clone()),
        )
        .unwrap();

        let want_scan = oracle(SCAN);
        let want_count = oracle(COUNT);
        for round in 0..4 {
            let scan = fed.execute(SCAN).unwrap();
            assert!(scan.is_complete(), "seed {seed} round {round}");
            assert_eq!(
                scan.result().rows,
                want_scan.rows,
                "seed {seed} round {round}"
            );
            let count = fed.execute(COUNT).unwrap();
            assert_eq!(
                count.result().rows,
                want_count.rows,
                "seed {seed} round {round}"
            );
        }

        // Counters agree with the injected fault log: the one death shows
        // up in the log, and masking it took at least one failover (and
        // therefore at least one observed shard error). No partial
        // results: replication covered everything.
        let stats = injector.stats();
        assert_eq!(stats.shard_deaths, 1, "seed {seed}");
        assert_eq!(shard_death_events(&obs, "shard_death"), 1, "seed {seed}");
        let snap = obs.metrics.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        assert!(counter(names::FED_FAILOVERS) >= 1, "seed {seed}");
        assert!(counter(names::FED_SHARD_ERRORS) >= counter(names::FED_FAILOVERS));
        assert_eq!(counter(names::FED_PARTIAL), 0, "seed {seed}");
        assert_eq!(counter(names::FED_MISSING_CHUNKS), 0, "seed {seed}");
    }
}

#[test]
fn killing_every_replica_degrades_to_exact_partial_result() {
    let obs = Obs::enabled();
    let cfg = FederationConfig::default(); // 3 shards, R = 2
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
    let injector = FaultInjector::new(plan.clone(), obs.events.clone());
    let d = deployment();
    let md = d.metadata();
    let table = md.table_id("ft").unwrap();
    let placement = Placement::new(cfg.shards, cfg.replication, PLACEMENT_SEED).unwrap();
    // Oracle for the missing set: chunks whose whole owner set is dead.
    let expected_missing: Vec<ChunkId> = md
        .all_chunks(table)
        .unwrap()
        .into_iter()
        .filter(|&chunk| {
            placement
                .owners(SubTableId { table, chunk })
                .iter()
                .all(|&s| s == 0 || s == 1)
        })
        .collect();
    assert!(
        !expected_missing.is_empty(),
        "seeded placement must put some chunks wholly on shards 0+1"
    );
    let total = md.all_chunks(table).unwrap().len();

    let fed =
        FederatedService::with_instruments(d.clone(), cfg.clone(), obs.clone(), Some(injector))
            .unwrap();
    let FederatedResponse::Partial(partial) = fed.execute("SELECT * FROM ft").unwrap() else {
        panic!("two dead shards out of three (R=2) must yield a partial result");
    };
    assert_eq!(partial.missing_chunks, expected_missing);
    let want_completeness = (total - expected_missing.len()) as f64 / total as f64;
    assert!((partial.completeness - want_completeness).abs() < 1e-12);
    // The surviving rows are exactly the oracle rows of the live chunks:
    // a subset, never garbage.
    let full = oracle("SELECT * FROM ft");
    assert!(partial.result.rows.len() < full.rows.len());
    assert!(partial.result.rows.iter().all(|r| full.rows.contains(r)));
    let snap = obs.metrics.snapshot();
    assert_eq!(snap.counters.get(names::FED_PARTIAL).copied(), Some(1));
    assert_eq!(
        snap.counters.get(names::FED_MISSING_CHUNKS).copied(),
        Some(expected_missing.len() as u64)
    );

    // Strict mode on the same fault plan: a typed Unavailable error
    // carrying the same missing-chunk count.
    let strict = FederatedService::with_instruments(
        d,
        FederationConfig {
            strict: true,
            ..cfg
        },
        Obs::disabled(),
        Some(FaultInjector::new(plan, EventLog::disabled())),
    )
    .unwrap();
    let err = strict.execute("SELECT * FROM ft").unwrap_err();
    let Error::Unavailable { missing_chunks, .. } = err else {
        panic!("strict mode must fail typed, got {err}");
    };
    assert_eq!(missing_chunks, expected_missing.len());
}

#[test]
fn hedged_request_beats_a_stalled_shard_byte_identically() {
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
    let got = fed.execute("SELECT * FROM ft").unwrap();
    assert!(got.is_complete());
    assert_eq!(got.result().rows, oracle("SELECT * FROM ft").rows);

    // The stall fired, the hedge fired, and a hedge flight filled chunks
    // the stalled shard never delivered.
    assert_eq!(injector.stats().shard_slow_storm_delays, 1);
    assert_eq!(shard_death_events(&obs, "shard_slow_storm"), 1);
    let snap = obs.metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(counter(names::FED_HEDGES) >= 1, "{:?}", snap.counters);
    assert!(counter(names::FED_HEDGE_WINS) >= 1, "{:?}", snap.counters);
    assert!(counter(names::FED_HEDGE_WINS) <= counter(names::FED_HEDGES));
}

#[test]
fn breaker_trips_once_failures_accumulate_and_counters_stay_consistent() {
    let obs = Obs::enabled();
    let plan = FaultPlan {
        shard_deaths: vec![ShardDeathSpec {
            shard: 2,
            after_subqueries: 0,
        }],
        max_faults: 4,
        ..FaultPlan::none()
    };
    let injector = FaultInjector::new(plan, obs.events.clone());
    let fed = FederatedService::with_instruments(
        deployment(),
        FederationConfig {
            trip_after: 2,
            cooldown_ticks: 50,
            ..FederationConfig::default()
        },
        obs.clone(),
        Some(injector),
    )
    .unwrap();
    let want = oracle(COUNT);
    for _ in 0..6 {
        let got = fed.execute(COUNT).unwrap();
        assert!(got.is_complete());
        assert_eq!(got.result().rows, want.rows);
    }
    let snap = obs.metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter(names::FED_TRIPS) >= 1,
        "a permanently dead shard must trip its breaker: {:?}",
        snap.counters
    );
    assert!(counter(names::FED_SHARD_ERRORS) >= counter(names::FED_TRIPS) * 2);
    assert_eq!(counter(names::FED_PARTIAL), 0);
}
