//! `orvbench`: the benchmark of the orv stack. README.md is the manual.
//!
//! ```text
//! orvbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! orvbench run --all [--traced] [--seed <n>] [--seconds <s>] [--out <file>]
//! orvbench compare <a.json> <b.json>
//! ```
//!
//! (`orvbench trial …` is what an untraced run starts its child processes
//! with; it is not meant to be typed.)
//!
//! Run from the repository root: `orvbench/out/` (results, spans, scratch
//! directories) and `BENCHMARK.json` are found relative to it.

mod alloc;
mod compare;
mod ladder;
mod oracle;
mod queries;
mod report;
mod run;
mod trace;
mod workload;

use orv_obs::{obj, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const OUT_DIR: &str = "orvbench/out";
const BENCHMARK: &str = "BENCHMARK.json";
/// `run_seconds` of BENCHMARK.json, for `run --all` without `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage:
  orvbench run --workload <name> --seed <n> --seconds <s> --trace <0|1>
  orvbench run --all [--traced] [--seed <n>] [--seconds <s>] [--out <file>]
  orvbench compare <a.json> <b.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run_command(rest),
        Some((cmd, rest)) if cmd == "trial" => trial_command(rest),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => compare::compare(
            Path::new(&rest[0]),
            Path::new(&rest[1]),
            Path::new(BENCHMARK),
        )
        .map_err(|e| e.to_string()),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("orvbench: {message}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Default)]
struct RunFlags {
    workload: Option<String>,
    all: bool,
    traced: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    trial: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<RunFlags, String> {
    let mut flags = RunFlags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |what: &str| format!("{flag}: not {what}\n{USAGE}");
        match flag.as_str() {
            "--all" => flags.all = true,
            "--traced" => flags.traced = true,
            "--workload" => flags.workload = Some(value()?.clone()),
            "--seed" => flags.seed = Some(value()?.parse().map_err(|_| bad("a whole number"))?),
            "--trial" => flags.trial = Some(value()?.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => flags.out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if flags.all == flags.workload.is_some() {
        return Err(format!("give either --all or --workload\n{USAGE}"));
    }
    Ok(flags)
}

fn trial_command(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let (Some(workload), Some(seed), Some(seconds), Some(trial)) =
        (flags.workload, flags.seed, flags.seconds, flags.trial)
    else {
        return Err(USAGE.to_string());
    };
    let args = run::Args {
        workload,
        seed,
        seconds,
        traced: false,
    };
    let result = run::trial(&args, trial, Path::new(OUT_DIR)).map_err(|e| e.to_string())?;
    println!("{result}");
    Ok(true)
}

/// `Ok(true)`: every result is correct.
fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = parse_flags(args)?;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if let Some(workload) = flags.workload {
        let report = run::run(
            &run::Args {
                workload,
                seed,
                seconds,
                traced: flags.traced,
            },
            Path::new(OUT_DIR),
        )
        .map_err(|e| e.to_string())?;
        report.print_lines();
        println!("{}", report.to_json());
        return Ok(report.correct());
    }

    // Each workload in a fresh process, so none inherits another's heap,
    // caches or peak memory.
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for name in workload::WORKLOADS {
        let child = Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if flags.traced { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (lines, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or_else(|| format!("{name}: no result (exit {})", child.status))?;
        println!("{lines}");
        let result = JsonValue::parse(last).map_err(|e| format!("{name}: {e}"))?;
        all_correct &= result.get("correct") == Some(&JsonValue::Bool(true));
        results.insert(name.to_string(), result);
    }
    let set = obj([
        ("seed", seed.into()),
        ("seconds", seconds.into()),
        ("traced", flags.traced.into()),
        ("workloads", JsonValue::Object(results)),
    ]);
    let out = flags.out.unwrap_or_else(|| {
        let kind = if flags.traced { "layers" } else { "results" };
        Path::new(OUT_DIR).join(format!("{kind}-seed{seed}.json"))
    });
    std::fs::write(&out, format!("{set}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(all_correct)
}
