//! The six workloads: what each builds, what it sends, and what it must
//! not touch. README.md says why each was chosen.
//!
//! Every workload is a closed loop of one client, which sends its next
//! query only when the previous answer has arrived and been counted: the
//! program's own worker and compute threads already fill the two cores of
//! the reference box, and a second client made the run measure the
//! scheduler (README.md, "Spread and bounds"). All run below saturation,
//! so any refusal or error is a failure, never load shedding.

use crate::oracle::{checksum_of, Oracle};
use crate::queries::{Class, Query, Rng};
use crate::report::median;
use orv_bds::{generate_dataset, DatasetHandle, DatasetSpec, Deployment};
use orv_join::JoinAlgorithm;
use orv_obs::Obs;
use orv_query::{
    FederatedResponse, FederatedService, FederationConfig, QueryEngine, QueryService, ServiceConfig,
};
use orv_types::{Error, Record, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const CREATE_VIEW: &str = "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)";

/// Storage (and so compute) nodes of every deployment: IJ and GH run two
/// compute threads, one per core of the reference box.
pub const NODES: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrontKind {
    /// Queries go through one `QueryService`.
    Service,
    /// Queries go through a `FederatedService` (3 shards, R = 2).
    Federation,
    /// No resident service: each operation ingests, restarts and queries.
    IngestCycle,
}

pub struct Spec {
    pub name: &'static str,
    /// Grid is `grid × grid × 1`, chunks are `part × part × 1`.
    pub grid: u64,
    pub part: u64,
    pub front: FrontKind,
    /// QES forced on the engine; `None` leaves the planner free.
    pub force: Option<JoinAlgorithm>,
    /// Warm-up operations; each is fully verified.
    pub warmup: usize,
    /// Query classes, cycled in order.
    pub classes: &'static [Class],
    /// In the timed window every `verify_every`-th answer gets the full
    /// checksum; every answer gets the row count.
    pub verify_every: usize,
    /// Chunk reads every timed query must cause, where that is exact.
    pub chunk_reads_per_query: Option<u64>,
    /// The engine's Caching Service must see no lookup at all.
    pub bypasses_cache: bool,
}

pub const WORKLOADS: [&str; 6] = [
    "scan_full",
    "join_ij_warm",
    "join_gh",
    "serve_mixed",
    "fed_scan",
    "ingest_reopen",
];

pub fn spec(name: &str) -> Option<Spec> {
    let batch = Spec {
        name: "",
        grid: 512,
        part: 32,
        front: FrontKind::Service,
        force: None,
        warmup: 3,
        classes: &[],
        verify_every: 8,
        chunk_reads_per_query: None,
        bypasses_cache: false,
    };
    Some(match name {
        "scan_full" => Spec {
            name: "scan_full",
            grid: 1024,
            part: 64,
            classes: &[Class::ScanFull],
            chunk_reads_per_query: Some(256),
            bypasses_cache: true,
            ..batch
        },
        "join_ij_warm" => Spec {
            name: "join_ij_warm",
            grid: 1024,
            part: 64,
            force: Some(JoinAlgorithm::IndexedJoin),
            classes: &[Class::JoinView],
            chunk_reads_per_query: Some(0),
            ..batch
        },
        "join_gh" => Spec {
            name: "join_gh",
            force: Some(JoinAlgorithm::GraceHash),
            warmup: 2,
            classes: &[Class::JoinDirect],
            bypasses_cache: true,
            ..batch
        },
        "serve_mixed" => Spec {
            name: "serve_mixed",
            warmup: 200,
            classes: &[
                Class::ScanWin,
                Class::JoinWin,
                Class::AggWin,
                Class::TopkWin,
            ],
            verify_every: 50,
            ..batch
        },
        "fed_scan" => Spec {
            name: "fed_scan",
            front: FrontKind::Federation,
            warmup: 20,
            classes: &[Class::Slab],
            verify_every: 10,
            bypasses_cache: true,
            ..batch
        },
        "ingest_reopen" => Spec {
            name: "ingest_reopen",
            front: FrontKind::IngestCycle,
            force: Some(JoinAlgorithm::IndexedJoin),
            warmup: 2,
            classes: &[Class::JoinDirect],
            verify_every: 4,
            ..batch
        },
        _ => return None,
    })
}

/// A directory under `orvbench/out/` that this process owns and removes
/// when it ends; on-disk deployments and catalog files live here.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn create(out_dir: &Path) -> std::io::Result<Self> {
        let root = out_dir.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A path no earlier call returned; nothing is created there yet.
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("{stem}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn dataset_seed(seed: u64, table: u64) -> u64 {
    Rng::new(seed ^ table.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

pub fn table_spec(spec: &Spec, name: &str, scalar: &str, seed: u64) -> DatasetSpec {
    DatasetSpec::builder(name)
        .grid([spec.grid, spec.grid, 1])
        .partition([spec.part, spec.part, 1])
        .scalar_attrs(&[scalar])
        .seed(seed)
        .build()
}

/// `t1` and `t2` generated into one deployment, and the oracle for them.
pub struct Dataset {
    pub dep: Deployment,
    pub t1: DatasetHandle,
    pub t2: DatasetHandle,
    pub oracle: Oracle,
    /// Data directory of an on-disk deployment (inside the scratch
    /// directory, so it goes when the process ends at the latest).
    pub dir: Option<PathBuf>,
}

impl Dataset {
    /// Generate into memory, or (`ingest_reopen`) into a fresh directory
    /// of `scratch`.
    pub fn generate(spec: &Spec, seed: u64, scratch: &Scratch) -> Result<Self> {
        let dir = (spec.front == FrontKind::IngestCycle).then(|| scratch.fresh("data"));
        let dep = match &dir {
            Some(d) => Deployment::on_disk(d, NODES)?,
            None => Deployment::in_memory(NODES),
        };
        let oracle = Oracle {
            seed_t1: dataset_seed(seed, 1),
            seed_t2: dataset_seed(seed, 2),
        };
        let t1 = generate_dataset(&table_spec(spec, "t1", "oilp", oracle.seed_t1), &dep)?;
        let t2 = generate_dataset(&table_spec(spec, "t2", "wp", oracle.seed_t2), &dep)?;
        Ok(Dataset {
            dep,
            t1,
            t2,
            oracle,
            dir,
        })
    }
}

pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_cap: 16,
        ..ServiceConfig::default()
    }
}

pub fn engine(force: Option<JoinAlgorithm>, dep: &Deployment, obs: Obs) -> QueryEngine {
    QueryEngine::new(dep.clone())
        .with_obs(obs)
        .force_algorithm(force)
}

/// The federation of `fed_scan`: 3 shards, every chunk on 2, no hedging.
pub fn federation(dep: &Deployment, obs: Obs) -> Result<FederatedService> {
    FederatedService::with_instruments(
        dep.clone(),
        FederationConfig {
            shards: 3,
            replication: 2,
            hedge_after: None,
            service: service_config(),
            ..FederationConfig::default()
        },
        obs,
        None,
    )
}

/// What clients talk to.
pub enum Front {
    Service(QueryService),
    Federation(Box<FederatedService>),
}

impl Front {
    /// Build the serving side over `dep` and define `v1`.
    pub fn build(
        kind: FrontKind,
        force: Option<JoinAlgorithm>,
        dep: &Deployment,
        obs: Obs,
    ) -> Result<Self> {
        let front = match kind {
            FrontKind::Federation => Front::Federation(Box::new(federation(dep, obs)?)),
            _ => Front::Service(QueryService::new(
                engine(force, dep, obs),
                service_config(),
            )?),
        };
        front.execute(CREATE_VIEW)?;
        Ok(front)
    }

    pub fn execute(&self, sql: &str) -> Result<Vec<Record>> {
        match self {
            Front::Service(s) => Ok(s.execute(sql)?.rows),
            Front::Federation(f) => match f.execute(sql)? {
                FederatedResponse::Complete(r) => Ok(r.rows),
                FederatedResponse::Partial(p) => Err(Error::Unavailable {
                    missing_chunks: p.missing_chunks.len(),
                    detail: "the federation answered in part".into(),
                }),
            },
        }
    }

    /// The query services behind this front (one, or one per shard).
    pub fn services(&self) -> Vec<&QueryService> {
        match self {
            Front::Service(s) => vec![s],
            Front::Federation(f) => (0..f.num_shards()).map(|i| f.shard(i)).collect(),
        }
    }

    pub fn obs(&self) -> &Obs {
        match self {
            Front::Service(s) => s.engine().obs(),
            Front::Federation(f) => f.obs(),
        }
    }
}

/// Does `rows` answer `q`? The row count always; the checksum when asked.
fn answer_ok(oracle: &Oracle, q: &Query, rows: &[Record], full: bool) -> bool {
    rows.len() as u64 == oracle.rows(q)
        && (!full || checksum_of(q.class, rows) == oracle.checksum(q))
}

/// When a sequence of operations ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many: a warm-up, every answer fully verified.
    Count(usize),
    /// Once this much time has passed: a timed window, every
    /// `verify_every`-th answer fully verified, every one counted.
    Seconds(f64),
}

impl Until {
    pub fn reached(self, done: usize, started: Instant) -> bool {
        match self {
            Until::Count(n) => done >= n,
            Until::Seconds(s) => done > 0 && started.elapsed().as_secs_f64() >= s,
        }
    }

    pub fn full_check(self, spec: &Spec, i: usize) -> bool {
        matches!(self, Until::Count(_)) || i.is_multiple_of(spec.verify_every)
    }
}

/// What a sequence of operations produced.
#[derive(Default)]
pub struct Window {
    /// Each operation's latency as its client saw it, ms.
    pub samples: Vec<f64>,
    pub attempted: u64,
    /// Errors, refusals and wrong answers among them.
    pub failed: u64,
    /// Rows received ÷ time spent waiting for them, per cycle through the
    /// workload's classes (every cycle asks for the same number of rows);
    /// the median cycle, so a stall counts once, not in proportion to
    /// its length. On `ingest_reopen`, rows ingested ÷ ingest time per
    /// operation, the median likewise.
    pub rows_per_s: f64,
    /// Answers ÷ time spent waiting for answers.
    pub qps: f64,
    /// Chunks read from the stores meanwhile.
    pub chunk_reads: u64,
}

impl Window {
    pub fn p50_ms(&self) -> f64 {
        median(self.samples.clone())
    }
}

/// The closed-loop client sends the workload's query classes through
/// `front` until `until`. `phase` separates the PRNG streams of the
/// windows of one seed.
///
/// The client gets a thread of its own: on the main thread its
/// allocations come from glibc's main arena, and the peak RSS of `join_gh`
/// then came out anywhere between 200 and 267 MiB from one process to the
/// next; this way it is 267 to 269 MiB every time.
pub fn run_client(
    spec: &Spec,
    front: &Front,
    oracle: &Oracle,
    seed: u64,
    phase: u64,
    until: Until,
) -> Window {
    std::thread::scope(|scope| {
        scope
            .spawn(|| client_loop(spec, front, oracle, seed, phase, until))
            .join()
            .expect("the client thread does not panic")
    })
}

fn client_loop(
    spec: &Spec,
    front: &Front,
    oracle: &Oracle,
    seed: u64,
    phase: u64,
    until: Until,
) -> Window {
    let mut rng = Rng::new(seed ^ ((phase + 1) << 40));
    let mut w = Window::default();
    let mut busy = Duration::ZERO;
    // Rows and waiting time of the cycle through the classes under way.
    let (mut cycle_rows, mut cycle_busy) = (0u64, Duration::ZERO);
    let mut cycle_rates = Vec::new();
    let started = Instant::now();
    for i in 0.. {
        if until.reached(i, started) {
            break;
        }
        let q = spec.classes[i % spec.classes.len()].draw(spec.grid, &mut rng);
        let sent = Instant::now();
        let answer = front.execute(&q.sql);
        let waited = sent.elapsed();
        busy += waited;
        cycle_busy += waited;
        w.samples.push(waited.as_secs_f64() * 1e3);
        // Verification happens after the clock stopped.
        match answer {
            Ok(rows) => {
                cycle_rows += rows.len() as u64;
                let full = until.full_check(spec, i);
                w.failed += u64::from(!answer_ok(oracle, &q, &rows, full));
            }
            Err(_) => w.failed += 1,
        }
        if (i + 1).is_multiple_of(spec.classes.len()) {
            cycle_rates.push(cycle_rows as f64 / cycle_busy.as_secs_f64());
            (cycle_rows, cycle_busy) = (0, Duration::ZERO);
        }
    }
    if cycle_busy > Duration::ZERO {
        cycle_rates.push(cycle_rows as f64 / cycle_busy.as_secs_f64());
    }
    w.attempted = w.samples.len() as u64;
    w.rows_per_s = median(cycle_rates);
    w.qps = w.attempted as f64 / busy.as_secs_f64();
    w
}

/// One `ingest_reopen` operation: generate both tables into a fresh
/// on-disk deployment and save the catalog (timed as ingest), drop it,
/// then reopen and answer the join on an empty cache (timed as
/// restart-to-first-answer).
pub struct Cycle {
    pub ingest_s: f64,
    pub restart_ms: f64,
    pub rows_ingested: u64,
    /// Chunks the restarted deployment read to answer.
    pub chunk_reads: u64,
    pub ok: bool,
}

pub fn ingest_cycle(
    spec: &Spec,
    seed: u64,
    scratch: &Scratch,
    obs: Obs,
    full_check: bool,
) -> Result<Cycle> {
    let started = Instant::now();
    let ds = Dataset::generate(spec, seed, scratch)?;
    let dir = ds.dir.clone().expect("ingest_reopen is on disk");
    let catalog = dir.join("catalog.json");
    ds.dep.save_catalog(&catalog)?;
    let ingest_s = started.elapsed().as_secs_f64();
    let rows_ingested = ds.t1.total_tuples() + ds.t2.total_tuples();
    // Keep the files and the oracle; drop the writer's deployment.
    let Dataset { oracle, .. } = ds;

    let restarted = Instant::now();
    let dep = Deployment::reopen(&dir, NODES, &catalog)?;
    let q = spec.classes[0].draw(spec.grid, &mut Rng::new(seed));
    let answer = engine(spec.force, &dep, obs).execute(&q.sql);
    let restart_ms = restarted.elapsed().as_secs_f64() * 1e3;
    let chunk_reads = dep.chunk_reads();

    let ok = answer.is_ok_and(|r| answer_ok(&oracle, &q, &r.rows, full_check));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Cycle {
        ingest_s,
        restart_ms,
        rows_ingested,
        chunk_reads,
        ok,
    })
}
