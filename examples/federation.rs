//! Federated serving demo: a seeded fault plan kills one shard of a
//! three-shard federation mid-run, and replicated placement + failover
//! keep every answer byte-identical to a single-engine oracle. A view
//! is created first, through whichever shard is healthy, and each round
//! reads it back.
//!
//! ```text
//! cargo run --release --example federation -- <seed> [--strict]
//! ```
//!
//! With `--strict`, the demo instead kills *two* shards so some chunks
//! lose every replica, and shows the typed degradation: a partial result
//! carrying the exact missing-chunk set (or `Error::Unavailable` in
//! strict mode — which is what `--strict` demonstrates).
//!
//! The event log lands in `fed_events_<seed>.jsonl` and the flight
//! recorder's retained traces in `fed_flightrec_<seed>.jsonl` whether
//! the run passes or fails, so CI can upload both for post-mortems. The
//! slowest stitched span tree is printed at the end of every run. Any
//! violated invariant exits nonzero.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{silence_injected_panics, FaultInjector, FaultPlan, ShardDeathSpec};
use orv::obs::{names, Obs};
use orv::query::{FederatedService, FederationConfig, QueryEngine};
use orv::types::Error;

const VIEW: &str = "CREATE VIEW fv AS SELECT x, z, p FROM ft";

const QUERIES: [&str; 4] = [
    "SELECT * FROM ft WHERE x IN [0, 5]",
    "SELECT COUNT(*) FROM ft",
    "SELECT z, COUNT(*), MIN(p), MAX(p) FROM ft GROUP BY z",
    "SELECT z, COUNT(*) FROM fv GROUP BY z",
];

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
    .expect("dataset generation is fault-free");
    d
}

fn main() {
    let mut seed: u64 = 7;
    let mut strict = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strict" => strict = true,
            s => {
                seed = s.parse().unwrap_or_else(|_| {
                    eprintln!("usage: federation [seed] [--strict]");
                    std::process::exit(2);
                })
            }
        }
    }
    silence_injected_panics();

    let cfg = FederationConfig {
        strict,
        ..FederationConfig::default()
    };
    let dead_shard = (seed % cfg.shards as u64) as usize;
    let mut shard_deaths = vec![ShardDeathSpec {
        shard: dead_shard,
        after_subqueries: seed % 4,
    }];
    if strict {
        // Kill a second shard too: with R = 2 of 3 shards, some chunks
        // lose both replicas and the router must degrade *typed*.
        shard_deaths.push(ShardDeathSpec {
            shard: (dead_shard + 1) % cfg.shards,
            after_subqueries: 0,
        });
    }
    let plan = FaultPlan {
        seed,
        shard_deaths,
        max_faults: 8,
        ..FaultPlan::none()
    };
    println!("federation seed {seed}: killing shard {dead_shard} ({plan:?})");

    let obs = Obs::enabled();
    let injector = FaultInjector::new(plan, obs.events.clone());
    let fed =
        FederatedService::with_instruments(deployment(), cfg, obs.clone(), Some(injector.clone()))
            .expect("federation construction is fault-free");
    let oracle_engine = QueryEngine::new(deployment());
    oracle_engine
        .execute(VIEW)
        .expect("oracle run is fault-free");

    // The view is one whole statement: it registers once, in the one
    // catalog every shard serves, whichever shard takes it.
    let mut failures = Vec::new();
    match fed.execute(VIEW) {
        Ok(_) => println!("  ok  {VIEW}"),
        Err(e) => failures.push(format!("`{VIEW}` failed: {e}")),
    }

    // Several rounds, so the seeded death (after `seed % 4` sub-queries
    // on its shard) always lands *mid-sequence*: some answers come off
    // the healthy path, the rest exercise failover.
    for round in 0..3 {
        for sql in QUERIES {
            let want = oracle_engine
                .execute(sql)
                .expect("oracle run is fault-free");
            match fed.execute(sql) {
                Ok(resp) if resp.is_complete() => {
                    if resp.result().rows == want.rows {
                        println!(
                            "  ok  round {round} ({} rows) {sql}",
                            resp.result().rows.len()
                        );
                    } else {
                        failures.push(format!("round {round}: row mismatch vs oracle for `{sql}`"));
                    }
                }
                Ok(resp) => {
                    failures.push(format!(
                        "round {round}: unexpected partial result for `{sql}` ({} rows)",
                        resp.result().rows.len()
                    ));
                }
                // Strict mode degrades typed, and only typed: any other
                // error is a failure in either mode.
                Err(e @ Error::Unavailable { .. }) if strict => {
                    println!("  strict degradation (expected): {e}");
                }
                Err(e) => failures.push(format!(
                    "round {round}: query failed terminally: `{sql}`: {e}"
                )),
            }
        }
    }

    // Export the log and the flight recorder before judging the run — a
    // failing run's log and retained traces are the post-mortem artifacts.
    let log_path = format!("fed_events_{seed}.jsonl");
    std::fs::write(&log_path, obs.events.to_json_lines()).expect("cannot write event log");
    let rec_path = format!("fed_flightrec_{seed}.jsonl");
    std::fs::write(&rec_path, fed.recorder().to_json_lines())
        .expect("cannot write flight recorder dump");

    let stats = injector.stats();
    let snap = obs.metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    println!("injected: {stats:?}");
    println!(
        "fed counters: subqueries={} failovers={} shard_errors={} trips={} partial={} missing={}",
        counter(names::FED_SUBQUERIES),
        counter(names::FED_FAILOVERS),
        counter(names::FED_SHARD_ERRORS),
        counter(names::FED_TRIPS),
        counter(names::FED_PARTIAL),
        counter(names::FED_MISSING_CHUNKS),
    );
    println!("event log: {log_path}");
    println!("flight recorder: {rec_path}");
    if let Some(slowest) = fed.recorder().slowest().first() {
        println!("slowest stitched trace:\n{}", slowest.render_tree());
    }

    // Every executed query must leave a trace in the recorder — slow or
    // anomalous, nothing disappears.
    let executed = 1 + 3 * QUERIES.len() as u64;
    if fed.recorder().recorded() != executed {
        failures.push(format!(
            "flight recorder saw {} of {executed} queries",
            fed.recorder().recorded()
        ));
    }

    // Counters must agree with the injected fault log: a death that fired
    // before the last query implies at least one failover (non-strict),
    // and shard errors can never undercount failovers.
    if stats.shard_deaths == 0 {
        failures.push("the seeded shard death never fired (run is vacuous)".into());
    }
    if stats.shard_deaths > 0 && !strict && counter(names::FED_FAILOVERS) == 0 {
        failures.push("shard died but no failover was recorded".into());
    }
    if counter(names::FED_SHARD_ERRORS) < counter(names::FED_FAILOVERS) {
        failures.push("failovers outnumber shard errors (counter drift)".into());
    }
    if strict && stats.shard_deaths >= 2 && counter(names::FED_MISSING_CHUNKS) == 0 {
        failures.push("two dead shards but nothing went missing in strict mode".into());
    }

    if failures.is_empty() {
        println!("federation run OK");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
