//! `orvbench compare <a.json> <b.json>`: two result sets of `run --all`
//! against the bounds `BENCHMARK.json` fixes per end-to-end metric.

use orv_obs::JsonValue;
use orv_types::{Error, Result};
use std::path::Path;

fn load(path: &Path) -> Result<JsonValue> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Error::Config(format!("{}: {e}", path.display())))?;
    JsonValue::parse(&text).map_err(|e| Error::Config(format!("{}: {e}", path.display())))
}

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(benchmark: &JsonValue) -> Result<Vec<Bound>> {
    benchmark
        .req("end_to_end")?
        .as_array()
        .ok_or_else(|| Error::Config("BENCHMARK.json: end_to_end is not a list".into()))?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m.req_str("name")?.to_string(),
                lower_is_better: m.req_str("better")? == "lower",
                bound: m.req_f64("bound")?,
            })
        })
        .collect()
}

fn failed_share(w: &JsonValue) -> Result<f64> {
    Ok(w.req_f64("failed")? / w.req_f64("attempted")?)
}

/// Print the comparison; `Ok(true)` when nothing got worse.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<bool> {
    let bounds = bounds(&load(benchmark)?)?;
    let (a, b) = (load(a)?, load(b)?);
    let workloads = |set: &JsonValue| -> Result<std::collections::BTreeMap<String, JsonValue>> {
        set.req("workloads")?
            .as_object()
            .cloned()
            .ok_or_else(|| Error::Config("result set: workloads is not an object".into()))
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut all_fine = true;
    println!("workload metric a b b/a bound verdict");
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            println!("{name} - - - - - missing-in-b");
            all_fine = false;
            continue;
        };
        for m in &bounds {
            let value = |r: &JsonValue| r.req("metrics")?.req(&m.name)?.req_f64("value");
            let (va, vb) = (value(ra)?, value(rb)?);
            let ratio = vb / va;
            let worsening = if m.lower_is_better {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            let verdict = if worsening > m.bound {
                all_fine = false;
                "worse"
            } else if worsening < -m.bound {
                "better"
            } else {
                "within"
            };
            println!(
                "{name} {} {va} {vb} {ratio:.4} {} {verdict}",
                m.name, m.bound
            );
        }
        let (fa, fb) = (failed_share(ra)?, failed_share(rb)?);
        let verdict = if fb > fa {
            all_fine = false;
            "worse"
        } else {
            "within"
        };
        println!("{name} failed_share {fa} {fb} - 0 {verdict}");
    }
    Ok(all_fine)
}
