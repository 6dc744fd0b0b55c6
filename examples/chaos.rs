//! Seed-matrix chaos driver: run one full query through the engine under
//! a seeded fault plan — transient errors, delays, a worker crash, and
//! (with `--heavy`) silent corruption on every checksummed boundary —
//! then prove the resilience story end to end:
//!
//! 1. the query's rows match a no-fault oracle run,
//! 2. every injected corruption was *detected* by a checksum (and under
//!    `--heavy`, each of the three boundaries — chunk pages, frames,
//!    scratch reads — was hit at least once, after the plan's two worker
//!    crashes failed the query over from IJ to GH), and
//! 3. the whole run is written out as a replayable JSON-lines event log.
//!
//! ```text
//! cargo run --release --example chaos -- <seed> [--heavy]
//! ```
//!
//! The event log lands in `chaos_events_<seed>.jsonl` whether the run
//! passes or fails, so CI can upload it as an artifact for post-mortems.
//! Any violated invariant exits nonzero. Every fault is drawn on a stream
//! one thread owns (see `orv_cluster::fault`), so a seed prints the same
//! lines on every run, however busy the machine is.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::{silence_injected_panics, Fault, FaultInjector, FaultPlan};
use orv::obs::Obs;
use orv::query::QueryEngine;

const JOIN_SQL: &str = "SELECT * FROM ca JOIN cb ON (x, y, z)";

fn deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    for (name, scalar, seed, part) in [("ca", "u", 41u64, [3, 3, 2]), ("cb", "v", 42, [2, 3, 1])] {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([6, 6, 2])
                .partition(part)
                .scalar_attrs(&[scalar])
                .seed(seed)
                .build(),
            &d,
        )
        .expect("dataset generation is fault-free");
    }
    d
}

fn main() {
    let mut seed: u64 = 7;
    let mut heavy = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--heavy" => heavy = true,
            s => {
                seed = s.parse().unwrap_or_else(|_| {
                    eprintln!("usage: chaos [seed] [--heavy]");
                    std::process::exit(2);
                })
            }
        }
    }
    silence_injected_panics();

    // The oracle: the same query on a fault-free engine.
    let oracle = QueryEngine::new(deployment())
        .execute(JOIN_SQL)
        .expect("oracle run is fault-free");

    let plan = if heavy {
        FaultPlan::corrupting(seed)
    } else {
        FaultPlan::from_seed(seed)
    };
    println!(
        "chaos seed {seed}{}: {plan:?}",
        if heavy { " (corruption-heavy)" } else { "" }
    );

    let obs = Obs::enabled();
    let injector = FaultInjector::new(plan, obs.events.clone());
    let engine = QueryEngine::new(deployment())
        .with_obs(obs.clone())
        .with_faults(injector.clone());
    let result = engine.execute(JOIN_SQL);

    // Export the log before judging the run — a failing run's log is the
    // post-mortem artifact.
    let log_path = format!("chaos_events_{seed}.jsonl");
    std::fs::write(&log_path, obs.events.to_json_lines()).expect("cannot write event log");

    let stats = injector.stats();
    let detected = obs.events.events_of_kind("corruption_detected").len() as u64;
    let failovers = obs.events.events_of_kind("qes_failover");
    println!("injected: {stats:?}");
    println!(
        "corruptions detected: {detected}/{}, failovers: {}",
        stats.corruptions(),
        failovers.len()
    );
    for ev in &failovers {
        println!(
            "  qes_failover: {} -> {}",
            ev.fields["from"].as_str().unwrap_or("?"),
            ev.fields["to"].as_str().unwrap_or("?")
        );
    }
    println!("event log: {log_path}");

    let mut failures = Vec::new();
    match result {
        Ok(r) if r.rows == oracle.rows => {
            println!("rows: {} (oracle match)", r.rows.len());
        }
        Ok(r) => failures.push(format!(
            "row mismatch: chaos run returned {} rows, oracle {}",
            r.rows.len(),
            oracle.rows.len()
        )),
        Err(e) => failures.push(format!("query failed terminally: {e}")),
    }
    if detected != stats.corruptions() {
        failures.push(format!(
            "detection gap: {} corruptions injected, {detected} detected",
            stats.corruptions()
        ));
    }
    // A heavy run must cross every checksummed boundary, or the seed no
    // longer covers what the matrix claims (GH's frames and scratch).
    let silent: Vec<Fault> = Fault::all()
        .into_iter()
        .filter(|&k| k.is_corruption() && stats[k] == 0)
        .collect();
    if heavy && !silent.is_empty() {
        failures.push(format!("corruption-heavy plan never fired {silent:?}"));
    }
    // The plan crashes both IJ workers, so GH must have run after IJ.
    if heavy && failovers.is_empty() {
        failures.push("corruption-heavy plan never failed over from IJ".into());
    }

    if failures.is_empty() {
        println!("chaos run OK");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
