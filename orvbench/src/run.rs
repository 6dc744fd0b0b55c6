//! One workload run: set up, time, verify, report.
//!
//! The untraced run gives the end-to-end metrics. It is made of
//! [`TRIALS`] trials, each a fresh child process that sets up once and
//! times its share of `--seconds`, and reports the median trial: what
//! differs from one process to the next on the same code (where its
//! memory lands, how its threads get placed) is then drawn five times
//! per run, not once, and a burst of interference spoils one trial, not
//! the run.
//!
//! The traced run is one process: it arms the counting allocator, times a
//! short window twice (observability off, then `Obs::enabled()`), runs
//! the layer ladder and writes the spans.

use crate::alloc;
use crate::ladder;
use crate::report::{median, peak_rss_mb, percentile, sorted, Metric, Report};
use crate::trace::Tracer;
use crate::workload::{
    ingest_cycle, run_client, spec, Dataset, Front, FrontKind, Scratch, Spec, Until, Window,
};
use orv_obs::{obj, JsonValue, Obs};
use orv_types::{Error, Result};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh-process trials per untraced run.
const TRIALS: u64 = 5;
/// The traced run times two windows of this share of `--seconds` each.
const TRACED_WINDOW_SHARE: f64 = 0.25;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

fn known(workload: &str) -> Result<Spec> {
    spec(workload).ok_or_else(|| Error::Config(format!("unknown workload `{workload}`")))
}

fn shout(spec: &Spec, problems: &[String]) {
    for p in problems {
        eprintln!("orvbench: {}: ASSERTION FAILED: {p}", spec.name);
    }
}

pub fn run(args: &Args, out_dir: &Path) -> Result<Report> {
    let spec = known(&args.workload)?;
    if !args.traced {
        return untraced(&spec, args);
    }
    let scratch = Scratch::create(out_dir)?;
    let mut problems = Vec::new();
    alloc::arm();
    let mut tr = Tracer::new(spec.name);
    let (window, metrics) = traced(&spec, args, &scratch, &mut tr, &mut problems)?;
    tr.write_jsonl(&out_dir.join(format!("trace-{}.jsonl", spec.name)))?;
    shout(&spec, &problems);
    Ok(Report {
        workload: spec.name.to_string(),
        attempted: window.attempted,
        failed: window.failed,
        assertions_ok: problems.is_empty(),
        metrics,
        notes: Vec::new(),
    })
}

/// What a trial hands its parent, besides its counts: the end-to-end
/// metrics as that one process measured them, then three more for the
/// reader that carry no bound (README.md says why).
const OF_A_TRIAL: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
    ("query_p75_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("qps", "1/s"),
];
const END_TO_END: usize = 4;

/// The untraced run: [`TRIALS`] child processes, one after the other;
/// every metric is the median of the trials' values, so one disturbed
/// trial moves nothing.
fn untraced(spec: &Spec, args: &Args) -> Result<Report> {
    let exe = std::env::current_exe()?;
    let (mut attempted, mut failed, mut assertions_ok) = (0, 0, true);
    let mut of_trials: [Vec<f64>; OF_A_TRIAL.len()] = Default::default();
    for trial in 0..TRIALS {
        let child = Command::new(&exe)
            .args(["trial", "--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / TRIALS as f64).to_string()])
            .args(["--trial", &trial.to_string()])
            .stdout(Stdio::piped())
            .output()?;
        if !child.status.success() {
            return Err(Error::Config(format!(
                "trial {trial} ended with {}",
                child.status
            )));
        }
        let t = JsonValue::parse(String::from_utf8_lossy(&child.stdout).trim())?;
        attempted += t.req_u64("attempted")?;
        failed += t.req_u64("failed")?;
        assertions_ok &= t.get("assertions_ok") == Some(&JsonValue::Bool(true));
        for (values, (name, _)) in of_trials.iter_mut().zip(OF_A_TRIAL) {
            values.push(t.req_f64(name)?);
        }
    }
    let mut metrics: Vec<Metric> = of_trials
        .into_iter()
        .zip(OF_A_TRIAL)
        .map(|(values, (name, unit))| Metric::new(name, median(values), unit))
        .collect();
    let mut notes = metrics.split_off(END_TO_END);
    notes.extend([
        Metric::new("trials", TRIALS as f64, "count"),
        Metric::new("samples", attempted as f64, "count"),
        Metric::new("failed_share", failed as f64 / attempted as f64, "ratio"),
    ]);
    Ok(Report {
        workload: spec.name.to_string(),
        attempted,
        failed,
        assertions_ok,
        metrics,
        notes,
    })
}

/// One trial, in its own process: set up once, time `args.seconds`, and
/// hand the parent [`OF_A_TRIAL`] and the counts as one JSON object.
pub fn trial(args: &Args, trial: u64, out_dir: &Path) -> Result<JsonValue> {
    let spec = known(&args.workload)?;
    let scratch = Scratch::create(out_dir)?;
    let mut problems = Vec::new();
    let started = Instant::now();
    let (setup_s, window);
    match spec.front {
        FrontKind::IngestCycle => {
            let warm = Until::Count(spec.warmup);
            let warm = cycles(&spec, args.seed, &scratch, Obs::disabled(), warm)?;
            setup_s = started.elapsed().as_secs_f64();
            if warm.failed > 0 {
                problems.push(format!("{} warm-up cycles answered wrongly", warm.failed));
            }
            let until = Until::Seconds(args.seconds);
            window = cycles(&spec, args.seed, &scratch, Obs::disabled(), until)?;
        }
        _ => {
            let (ds, front) = set_up(&spec, args.seed, &scratch, Obs::disabled(), &mut problems)?;
            setup_s = started.elapsed().as_secs_f64();
            let (seed, phase) = (args.seed, 1 + trial);
            window = timed(&spec, &ds, &front, seed, phase, args.seconds, &mut problems);
        }
    }
    drop(scratch);
    shout(&spec, &problems);
    let samples = sorted(window.samples);
    Ok(obj([
        ("setup_s", setup_s.into()),
        ("query_p50_ms", percentile(&samples, 0.5).into()),
        ("rows_per_s", window.rows_per_s.into()),
        ("peak_rss_mb", peak_rss_mb().into()),
        ("query_p75_ms", percentile(&samples, 0.75).into()),
        ("query_p95_ms", percentile(&samples, 0.95).into()),
        ("qps", window.qps.into()),
        ("attempted", window.attempted.into()),
        ("failed", window.failed.into()),
        ("assertions_ok", problems.is_empty().into()),
    ]))
}

/// Dataset generation, service construction, view DDL, and warm-up until
/// the caches are full: everything `setup_s` covers.
fn set_up(
    spec: &Spec,
    seed: u64,
    scratch: &Scratch,
    obs: Obs,
    problems: &mut Vec<String>,
) -> Result<(Dataset, Front)> {
    let ds = Dataset::generate(spec, seed, scratch)?;
    let front = Front::build(spec.front, spec.force, &ds.dep, obs)?;
    let warm = run_client(spec, &front, &ds.oracle, seed, 0, Until::Count(spec.warmup));
    if warm.failed > 0 {
        problems.push(format!("{} warm-up answers were wrong", warm.failed));
    }
    Ok((ds, front))
}

/// The timed window plus the bypass assertions around it.
/// `phase` (never 0, the warm-up's) picks the PRNG stream of the window.
fn timed(
    spec: &Spec,
    ds: &Dataset,
    front: &Front,
    seed: u64,
    phase: u64,
    seconds: f64,
    problems: &mut Vec<String>,
) -> Window {
    let reads_before = ds.dep.chunk_reads();
    let mut window = run_client(
        spec,
        front,
        &ds.oracle,
        seed,
        phase,
        Until::Seconds(seconds),
    );
    window.chunk_reads = ds.dep.chunk_reads() - reads_before;
    if let Some(per_query) = spec.chunk_reads_per_query {
        if window.chunk_reads != per_query * window.attempted {
            problems.push(format!(
                "{} chunk reads over {} queries, expected exactly {per_query} each",
                window.chunk_reads, window.attempted
            ));
        }
    }
    for (i, svc) in front.services().iter().enumerate() {
        let lookups = svc.engine().cache_stats().lookups();
        if spec.bypasses_cache && lookups != 0 {
            problems.push(format!(
                "service {i}: {lookups} cache lookups, expected none"
            ));
        }
        let c = svc.counters();
        if c.rejected + c.shed + c.cancelled != 0 {
            problems.push(format!(
                "service {i}: {} rejected, {} shed, {} cancelled, expected none",
                c.rejected, c.shed, c.cancelled
            ));
        }
    }
    for name in [
        "gh/read_retries",
        "gh/send_retries",
        "gh/scratch_retries",
        orv_obs::names::FED_FAILOVERS,
        orv_obs::names::FED_PARTIAL,
    ] {
        let n = front.obs().metrics.counter(name).get();
        if n != 0 {
            problems.push(format!("{name} = {n}, expected 0"));
        }
    }
    window
}

/// Run `ingest_reopen` cycles until `until`.
fn cycles(spec: &Spec, seed: u64, scratch: &Scratch, obs: Obs, until: Until) -> Result<Window> {
    let started = Instant::now();
    let mut w = Window::default();
    let (mut ingest_rates, mut busy_s) = (Vec::new(), 0.0);
    for i in 0.. {
        if until.reached(i, started) {
            break;
        }
        let c = ingest_cycle(spec, seed, scratch, obs.clone(), until.full_check(spec, i))?;
        w.samples.push(c.restart_ms);
        w.attempted += 1;
        w.failed += u64::from(!c.ok);
        w.chunk_reads += c.chunk_reads;
        ingest_rates.push(c.rows_ingested as f64 / c.ingest_s);
        busy_s += c.ingest_s + c.restart_ms / 1e3;
    }
    w.rows_per_s = median(ingest_rates);
    w.qps = w.attempted as f64 / busy_s;
    Ok(w)
}

/// The traced run: per-layer metrics only.
fn traced(
    spec: &Spec,
    args: &Args,
    scratch: &Scratch,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(Window, Vec<Metric>)> {
    let seconds = args.seconds * TRACED_WINDOW_SHARE;
    let (ds, plain, observed);
    match spec.front {
        FrontKind::IngestCycle => {
            plain = cycles(
                spec,
                args.seed,
                scratch,
                Obs::disabled(),
                Until::Seconds(seconds),
            )?;
            observed = cycles(
                spec,
                args.seed,
                scratch,
                Obs::enabled(),
                Until::Seconds(seconds),
            )?;
            ds = Dataset::generate(spec, args.seed, scratch)?;
        }
        _ => {
            let (made, front) = set_up(spec, args.seed, scratch, Obs::disabled(), problems)?;
            plain = timed(spec, &made, &front, args.seed, 1, seconds, problems);
            drop(front);
            let front = Front::build(spec.front, spec.force, &made.dep, Obs::enabled())?;
            let warm = Until::Count(spec.warmup);
            run_client(spec, &front, &made.oracle, args.seed, 0, warm);
            observed = timed(spec, &made, &front, args.seed, 2, seconds, problems);
            ds = made;
        }
    }
    let mut metrics = ladder::run(spec, &ds, scratch, args.seed, tr)?;
    metrics.push(Metric::new(
        "bds.chunk_reads_per_query",
        plain.chunk_reads as f64 / plain.attempted as f64,
        "count",
    ));
    metrics.push(Metric::new("window.qps", plain.qps, "1/s"));
    let samples = sorted(plain.samples.clone());
    metrics.push(Metric::new(
        "window.p75_ms",
        percentile(&samples, 0.75),
        "ms",
    ));
    metrics.push(Metric::new(
        "window.p95_ms",
        percentile(&samples, 0.95),
        "ms",
    ));
    metrics.push(Metric::new(
        "obs.overhead_pct",
        (observed.p50_ms() / plain.p50_ms() - 1.0) * 100.0,
        "%",
    ));
    let mut window = plain;
    window.attempted += observed.attempted;
    window.failed += observed.failed;
    Ok((window, metrics))
}
