//! Metric values, order statistics and the result formats: the
//! `workload metric value unit` lines, the one-line JSON object a single
//! workload run ends with, and the per-set file `run --all` writes.

use orv_obs::{obj, JsonValue};
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The outcome of one workload run (one process).
#[derive(Debug)]
pub struct Report {
    pub workload: String,
    /// Operations attempted in the timed window (queries, or cycles on
    /// `ingest_reopen`).
    pub attempted: u64,
    /// Errors + refusals + oracle mismatches among them.
    pub failed: u64,
    /// Bypass assertions and warm-up verification all held.
    pub assertions_ok: bool,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Lines for the reader only (sample counts, `failed_share`, `qps`,
    /// `query_p95_ms`); not part of the JSON result.
    pub notes: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.assertions_ok && self.failed == 0
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print_lines(&self) {
        for m in self.notes.iter().chain(&self.metrics) {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
    }

    /// The object a single-workload run prints as its last line.
    pub fn to_json(&self) -> JsonValue {
        let metrics: BTreeMap<String, JsonValue> = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

/// Percentile by the nearest-rank rule on an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: Vec<f64>) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("/proc/self/status has a VmHWM line on Linux")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 20.0);
        assert_eq!(percentile(&v, 0.75), 30.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }
}
