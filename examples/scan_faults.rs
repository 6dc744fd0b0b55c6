//! Guard against a full scan or a join that makes the kernel zero-fill
//! its memory again on every query, or holds more memory at its peak
//! than it needs. It builds three of `orvbench`'s
//! shapes, each behind a `QueryService` with two workers on two storage
//! nodes:
//! - `scan` (`scan_full`): a 1 024 × 1 024 grid in 64 × 64 chunks,
//!   `SELECT * FROM t1`;
//! - `join` (`join_ij_warm`): two such grids, the Indexed Join forced,
//!   `SELECT * FROM v1`, where `v1` is `t1 JOIN t2 ON (x, y, z)`;
//! - `gh` (`join_gh`): two 512 × 512 grids in 32 × 32 chunks, Grace Hash
//!   forced, `SELECT * FROM t1 JOIN t2 ON (x, y, z)`.
//!
//! After three warm-ups a client thread counts the minor page faults of
//! 20 queries (`/proc/self/stat`) and reads the peak resident set
//! (`VmHWM`).
//!
//! ```text
//! cargo run --release --example scan_faults            # all three, one process each
//! cargo run --release --example scan_faults -- gh      # one of `scan`, `join`, `gh`
//! ```
//!
//! Each shape runs in a process of its own, because how often the kernel
//! faults depends on what the allocator already holds. Exits 1 above
//! 1 024 minor faults per scan query, 2 000 per IJ join query or 1 024
//! per GH join query; above a peak resident set of 140 MiB for the scan,
//! 240 MiB for the IJ join or 64 MiB for the GH join; or if a query
//! returns the wrong number of rows.
//! A warm IJ join took 17 444 faults while one worker of the row edge
//! allocated its whole result, and 9 000–14 600 while each cached hash
//! table held a copy of its build rows' keys: the allocator then handed
//! row blocks back to the kernel between queries. With tables of row
//! numbers only it took ~3 500–5 600 and a VmHWM of ~265 MiB while the
//! row edge filled blocks of 4 096 rows (320 KiB), carved from the top
//! of an allocator heap; with blocks of 16 KiB, which the allocator
//! serves from its bins, it takes ~300–500 and ~216 MiB. A GH join
//! took 19 811–19 952 while it copied every frame into its bucket, and
//! ~8 600 while the row edge sorted its one interleaved group whole, on
//! all workers; cut into cache-sized parts, it takes ~50–120. On a
//! target other than Linux there is no `/proc/self/stat`: it prints a
//! note and exits 0.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::join::JoinAlgorithm;
use orv::query::{QueryEngine, QueryService, ServiceConfig};

const WARMUPS: usize = 3;
const QUERIES: u64 = 20;

/// One query shape the guard measures.
struct Guard {
    name: &'static str,
    /// Side of the square grid each table covers, and of its chunks.
    side: u64,
    chunk_side: u64,
    /// The join algorithm the engine is forced to use.
    algorithm: JoinAlgorithm,
    /// The tables it reads: name, scalar attribute, seed.
    tables: &'static [(&'static str, &'static str, u64)],
    /// A statement run once before the warm-ups.
    setup: Option<&'static str>,
    sql: &'static str,
    max_faults_per_query: u64,
    /// What a count above the limit means.
    verdict: &'static str,
    /// The most resident memory the process may have held, in MiB.
    max_peak_rss_mb: f64,
}

const GUARDS: [Guard; 3] = [
    Guard {
        name: "scan",
        side: 1024,
        chunk_side: 64,
        algorithm: JoinAlgorithm::IndexedJoin,
        tables: &[("t1", "oilp", 1)],
        setup: None,
        sql: "SELECT * FROM t1",
        max_faults_per_query: 1024,
        verdict: "the kernel is zero-filling the scan's memory on every query",
        max_peak_rss_mb: 140.0,
    },
    Guard {
        name: "join",
        side: 1024,
        chunk_side: 64,
        algorithm: JoinAlgorithm::IndexedJoin,
        tables: &[("t1", "oilp", 1), ("t2", "wp", 2)],
        setup: Some("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)"),
        sql: "SELECT * FROM v1",
        max_faults_per_query: 2_000,
        verdict: "the warm join faults as often as when its row blocks came from the top of a heap",
        max_peak_rss_mb: 240.0,
    },
    Guard {
        name: "gh",
        side: 512,
        chunk_side: 32,
        algorithm: JoinAlgorithm::GraceHash,
        tables: &[("t1", "oilp", 1), ("t2", "wp", 2)],
        setup: None,
        sql: "SELECT * FROM t1 JOIN t2 ON (x, y, z)",
        max_faults_per_query: 1024,
        verdict: "Grace Hash's row edge is zero-filling memory on every query again, \
                  as when it sorted the join's one interleaved group whole",
        max_peak_rss_mb: 64.0,
    },
];

/// Minor faults of this process so far: the 10th field of
/// `/proc/self/stat`, counted after the command name, whose parentheses
/// may enclose spaces.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let (_, fields) = stat
        .rsplit_once(')')
        .expect("a command name in parentheses");
    let minflt = fields.split_whitespace().nth(7).expect("field 10: minflt");
    minflt.parse().expect("minflt is a count")
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("a VmHWM line in kB");
    kb / 1024.0
}

/// Measure `guard` in this process; false if it failed.
fn measure(guard: &Guard) -> bool {
    let d = Deployment::in_memory(2);
    for &(name, scalar, seed) in guard.tables {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([guard.side, guard.side, 1])
                .partition([guard.chunk_side, guard.chunk_side, 1])
                .scalar_attrs(&[scalar])
                .seed(seed)
                .build(),
            &d,
        )
        .expect("dataset generation");
    }
    let service = QueryService::new(
        QueryEngine::new(d).force_algorithm(Some(guard.algorithm)),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    if let Some(sql) = guard.setup {
        service.execute(sql).expect("the setup statement runs");
    }
    let (faults, wrong) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            // The rows are dropped here, on the client's thread.
            let rows = || {
                service
                    .execute(guard.sql)
                    .expect("the query answers")
                    .rows
                    .len()
            };
            for _ in 0..WARMUPS {
                rows();
            }
            let before = minor_faults();
            let wrong = (0..QUERIES)
                .filter(|_| rows() as u64 != guard.side * guard.side)
                .count();
            (minor_faults() - before, wrong)
        });
        client.join().expect("the client thread")
    });
    let per_query = faults as f64 / QUERIES as f64;
    let peak = peak_rss_mb();
    println!(
        "scan_faults: {} {per_query:.1} minor faults/query over {QUERIES} queries \
         (limit {}), VmHWM {peak:.1} MiB (limit {})",
        guard.name, guard.max_faults_per_query, guard.max_peak_rss_mb
    );
    if wrong > 0 {
        eprintln!(
            "scan_faults: {wrong} of {QUERIES} {} queries returned other than {} rows",
            guard.name,
            guard.side * guard.side
        );
        return false;
    }
    let mut ok = true;
    if faults > guard.max_faults_per_query * QUERIES {
        eprintln!("scan_faults: {}", guard.verdict);
        ok = false;
    }
    if peak > guard.max_peak_rss_mb {
        eprintln!(
            "scan_faults: {} held {peak:.1} MiB at its peak, above its {} MiB",
            guard.name, guard.max_peak_rss_mb
        );
        ok = false;
    }
    ok
}

fn main() {
    if !cfg!(target_os = "linux") {
        println!("scan_faults: minor faults are read from /proc/self/stat, which only Linux has; nothing checked");
        return;
    }
    let ok = match std::env::args().nth(1) {
        Some(name) => {
            let guard = GUARDS.iter().find(|g| g.name == name);
            measure(guard.unwrap_or_else(|| panic!("no shape `{name}`: scan, join or gh")))
        }
        None => {
            let me = std::env::current_exe().expect("this program's path");
            let mut ok = true;
            for guard in &GUARDS {
                let status = std::process::Command::new(&me).arg(guard.name).status();
                ok &= status.expect("the shape's process runs").success();
            }
            ok
        }
    };
    if !ok {
        std::process::exit(1);
    }
}
