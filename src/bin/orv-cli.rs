//! `orv-cli` — interactive front door to the view framework.
//!
//! ```text
//! orv-cli repl  [--nodes N] [--grid X,Y,Z] [--part1 X,Y,Z] [--part2 X,Y,Z]
//!               [--data-dir DIR]
//!     Generate the two-table demo dataset and enter a SQL REPL.
//!
//! orv-cli simulate --grid X,Y,Z --p X,Y,Z --q X,Y,Z [--ns N] [--nj N]
//!     Predict IJ vs GH on the paper-calibrated cluster simulator.
//! ```
//!
//! REPL commands: any supported SQL statement, plus `.tables`, `.views`,
//! `.help`, `.quit`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::cluster::ClusterSpec;
use orv::costmodel::{CostParams, GraceHashModel, IndexedJoinModel, SystemParams};
use orv::join::{simulate_grace_hash, simulate_indexed_join, SchedulePolicy, SimProblem};
use orv::query::QueryEngine;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("repl") | None => repl(&args),
        Some("simulate") => simulate(&args),
        Some("--help") | Some("-h") | Some("help") => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "orv-cli — object-relational views over scientific datasets\n\n\
         USAGE:\n  orv-cli repl [--nodes N] [--grid X,Y,Z] [--part1 X,Y,Z] [--part2 X,Y,Z] [--data-dir DIR]\n  \
         orv-cli simulate --grid X,Y,Z --p X,Y,Z --q X,Y,Z [--ns N] [--nj N]\n"
    );
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_triple(s: &str, what: &str) -> Result<[u64; 3], String> {
    let parts: Vec<u64> = s
        .split(',')
        .map(|p| p.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("bad {what} `{s}`: {e}"))?;
    if parts.len() != 3 {
        return Err(format!(
            "{what} must be three comma-separated integers, got `{s}`"
        ));
    }
    Ok([parts[0], parts[1], parts[2]])
}

fn repl(args: &[String]) -> i32 {
    let nodes: usize = flag(args, "--nodes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let grid = flag(args, "--grid")
        .map(|v| parse_triple(v, "--grid"))
        .unwrap_or(Ok([32, 32, 4]));
    let part1 = flag(args, "--part1")
        .map(|v| parse_triple(v, "--part1"))
        .unwrap_or(Ok([16, 16, 4]));
    let part2 = flag(args, "--part2")
        .map(|v| parse_triple(v, "--part2"))
        .unwrap_or(Ok([8, 32, 4]));
    let (grid, part1, part2) = match (grid, part1, part2) {
        (Ok(g), Ok(p1), Ok(p2)) => (g, p1, p2),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };

    let deployment = match flag(args, "--data-dir") {
        Some(dir) => match Deployment::on_disk(dir, nodes) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("cannot open data dir: {e}");
                return 1;
            }
        },
        None => Deployment::in_memory(nodes),
    };
    for (name, scalar, seed, part) in [("t1", "oilp", 1u64, part1), ("t2", "wp", 2, part2)] {
        let spec = DatasetSpec::builder(name)
            .grid(grid)
            .partition(part)
            .scalar_attrs(&[scalar])
            .seed(seed)
            .build();
        if let Err(e) = generate_dataset(&spec, &deployment) {
            eprintln!("dataset generation failed: {e}");
            return 1;
        }
    }
    println!(
        "generated t1(x,y,z,oilp) and t2(x,y,z,wp): {} tuples each over {nodes} storage nodes",
        grid.iter().product::<u64>()
    );
    println!("try:  CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)");
    println!("      SELECT z, AVG(wp) FROM v1 GROUP BY z        (.help for more)\n");

    let engine = QueryEngine::new(deployment);
    let stdin = std::io::stdin();
    loop {
        print!("orv> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => return 0, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                return 1;
            }
        }
        let line = line.trim();
        match line {
            "" => continue,
            ".quit" | ".exit" | "\\q" => return 0,
            ".help" => {
                println!(
                    "statements:\n  CREATE VIEW v AS SELECT * FROM a JOIN b ON (x, y, ...) [WHERE ...]\n  \
                     SELECT cols|aggs FROM table_or_view [WHERE attr IN [lo, hi] AND ...] [GROUP BY ...]\n\
                     commands: .tables  .views  .quit"
                );
            }
            ".tables" => {
                println!("t1, t2 (base tables)");
            }
            ".views" => {
                let names = engine.catalog().names();
                if names.is_empty() {
                    println!("(no views yet)");
                } else {
                    println!("{}", names.join(", "));
                }
            }
            sql => match engine.execute(sql) {
                Ok(result) => {
                    if !result.columns.is_empty() {
                        println!("{}", result.columns.join(" | "));
                        for row in result.rows.iter().take(25) {
                            println!("{row}");
                        }
                        if result.rows.len() > 25 {
                            println!("... ({} rows total)", result.rows.len());
                        } else {
                            println!("({} rows)", result.rows.len());
                        }
                    } else {
                        println!("ok");
                    }
                    if let Some(explain) = result.explain {
                        println!(
                            "[planner: {} — modelled IJ {:.3}s vs GH {:.3}s, n_e = {}]",
                            explain.algorithm,
                            explain.choice.ij_total,
                            explain.choice.gh_total,
                            explain.dataset.n_e
                        );
                    }
                }
                Err(e) => println!("error: {e}"),
            },
        }
    }
}

fn simulate(args: &[String]) -> i32 {
    let (grid, p, q) = match (
        flag(args, "--grid")
            .ok_or("missing --grid".to_string())
            .and_then(|v| parse_triple(v, "--grid")),
        flag(args, "--p")
            .ok_or("missing --p".to_string())
            .and_then(|v| parse_triple(v, "--p")),
        flag(args, "--q")
            .ok_or("missing --q".to_string())
            .and_then(|v| parse_triple(v, "--q")),
    ) {
        (Ok(g), Ok(p), Ok(q)) => (g, p, q),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let ns: usize = flag(args, "--ns").and_then(|v| v.parse().ok()).unwrap_or(5);
    let nj: usize = flag(args, "--nj").and_then(|v| v.parse().ok()).unwrap_or(5);

    let pr = SimProblem::from_regular(grid, p, q, 16.0, 16.0, 280.0, 230.0);
    let spec = ClusterSpec::paper_testbed(ns, nj);
    let d = CostParams {
        t: pr.t,
        c_r: pr.c_r,
        c_s: pr.c_s,
        n_e: pr.n_e(),
        rs_r: pr.rs_r,
        rs_s: pr.rs_s,
    };
    let s = SystemParams::from_cluster(&spec, 280.0, 230.0);
    println!(
        "T = {:.3e}, c_R = {}, c_S = {}, n_e = {:.3e}, n_e·c_S = {:.3e}, edge ratio = {:.3e}",
        pr.t,
        pr.c_r,
        pr.c_s,
        pr.n_e(),
        pr.n_e() * pr.c_s,
        d.edge_ratio()
    );
    match (
        simulate_indexed_join(&pr, &spec, SchedulePolicy::TwoStageLexicographic),
        simulate_grace_hash(&pr, &spec),
        IndexedJoinModel::evaluate(&d, &s),
        GraceHashModel::evaluate(&d, &s),
    ) {
        (Ok(ij), Ok(gh), Ok(ijm), Ok(ghm)) => {
            println!(
                "indexed join : sim {:>10.2}s   model {:>10.2}s",
                ij.total_secs,
                ijm.total()
            );
            println!(
                "grace hash   : sim {:>10.2}s   model {:>10.2}s",
                gh.total_secs,
                ghm.total()
            );
            let winner = if ij.total_secs < gh.total_secs {
                "IJ"
            } else {
                "GH"
            };
            println!("recommendation: {winner}");
            0
        }
        (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (.., Err(e)) => {
            eprintln!("simulation failed: {e}");
            1
        }
    }
}
