//! Guard against a full scan that makes the kernel zero-fill its result
//! again on every query. It builds `orvbench`'s `scan_full` shape: a
//! 1 024 × 1 024 grid in 64 × 64 chunks on two storage nodes, behind a
//! `QueryService` with two workers. A client thread sends
//! `SELECT * FROM t1`; after three warm-ups it counts the minor page
//! faults of 20 queries (`/proc/self/stat`) and reads the peak resident
//! set (`VmHWM`).
//!
//! ```text
//! cargo run --release --example scan_faults
//! ```
//!
//! Exits 1 above 1 024 minor faults per query, or if a query returns the
//! wrong number of rows. On a target other than Linux there is no
//! `/proc/self/stat`: it prints a note and exits 0.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::query::{QueryEngine, QueryService, ServiceConfig};

const SQL: &str = "SELECT * FROM t1";
const SIDE: u64 = 1024;
const WARMUPS: usize = 3;
const QUERIES: u64 = 20;
const MAX_FAULTS_PER_QUERY: u64 = 1024;

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

fn main() {
    if !cfg!(target_os = "linux") {
        println!("scan_faults: minor faults are read from /proc/self/stat, which only Linux has; nothing checked");
        return;
    }
    let d = Deployment::in_memory(2);
    generate_dataset(
        &DatasetSpec::builder("t1")
            .grid([SIDE, SIDE, 1])
            .partition([64, 64, 1])
            .scalar_attrs(&["oilp"])
            .seed(1)
            .build(),
        &d,
    )
    .expect("dataset generation");
    let service = QueryService::new(
        QueryEngine::new(d),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("service");
    let (faults, wrong) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            // The rows are dropped here, on the client's thread.
            let rows = || service.execute(SQL).expect("the scan answers").rows.len();
            for _ in 0..WARMUPS {
                rows();
            }
            let before = minor_faults();
            let wrong = (0..QUERIES)
                .filter(|_| rows() as u64 != SIDE * SIDE)
                .count();
            (minor_faults() - before, wrong)
        });
        client.join().expect("the client thread")
    });
    let per_query = faults as f64 / QUERIES as f64;
    println!(
        "scan_faults: {per_query:.1} minor faults/query over {QUERIES} queries \
         (limit {MAX_FAULTS_PER_QUERY}), VmHWM {:.1} MiB",
        peak_rss_mb()
    );
    if wrong > 0 {
        eprintln!(
            "scan_faults: {wrong} of {QUERIES} queries returned other than {} rows",
            SIDE * SIDE
        );
        std::process::exit(1);
    }
    if faults > MAX_FAULTS_PER_QUERY * QUERIES {
        eprintln!("scan_faults: the kernel is zero-filling the scan's memory on every query");
        std::process::exit(1);
    }
}
