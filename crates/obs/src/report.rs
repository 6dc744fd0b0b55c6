//! Predicted-vs-measured phase breakdowns.
//!
//! The report layer is numbers-only: it knows the canonical phase names
//! for each QES and how to render/validate a breakdown, but nothing about
//! the cost models themselves — the glue that evaluates `orv-costmodel`
//! and fills in `predicted_secs` lives above both crates (`orv::obs_report`),
//! keeping the dependency graph acyclic.

use orv_types::{Error, Result};
use std::collections::BTreeMap;

use crate::json::{obj, JsonValue};
use crate::metrics::MetricsSnapshot;
use crate::names;

/// Canonical phase names for the Indexed Join, in report order. They map
/// one-to-one onto the Section 5 IJ cost terms: `transfer` ↔ Transfer_IJ,
/// `build` ↔ BuildHT_IJ, `probe` ↔ Lookup_IJ.
pub const IJ_PHASES: &[&str] = &[
    names::PHASE_TRANSFER,
    names::PHASE_BUILD,
    names::PHASE_PROBE,
];

/// Canonical phase names for Grace Hash, in report order:
/// `transfer` ↔ Transfer_GH, `scratch_write` ↔ Write_GH,
/// `scratch_read` ↔ Read_GH, `cpu` ↔ Cpu_GH.
pub const GH_PHASES: &[&str] = &[
    names::PHASE_TRANSFER,
    names::PHASE_SCRATCH_WRITE,
    names::PHASE_SCRATCH_READ,
    names::PHASE_CPU,
];

/// The required phase list for an algorithm name, if known.
pub fn required_phases(algorithm: &str) -> Option<&'static [&'static str]> {
    match algorithm {
        "indexed_join" => Some(IJ_PHASES),
        "grace_hash" => Some(GH_PHASES),
        _ => None,
    }
}

/// One phase of one run: model prediction next to the measured time.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Canonical phase name.
    pub phase: String,
    /// Cost-model prediction, seconds.
    pub predicted_secs: f64,
    /// Measured critical-path time, seconds.
    pub measured_secs: f64,
}

impl PhaseRow {
    /// `measured / predicted`, or `NaN` when the prediction is zero.
    pub fn ratio(&self) -> f64 {
        self.measured_secs / self.predicted_secs
    }
}

/// Predicted-vs-measured breakdown of one join execution.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// `indexed_join` or `grace_hash`.
    pub algorithm: String,
    /// Per-phase rows, in canonical order.
    pub phases: Vec<PhaseRow>,
    /// Model total, seconds.
    pub predicted_total_secs: f64,
    /// End-to-end measured wall time, seconds.
    pub measured_wall_secs: f64,
    /// Measured span time that maps to no cost-model term
    /// (e.g. `partition`, `bds` internals), by leaf name.
    pub extra_measured_secs: BTreeMap<String, f64>,
}

impl RunReport {
    /// Sum of measured phase times.
    pub fn measured_phase_total(&self) -> f64 {
        self.phases.iter().map(|p| p.measured_secs).sum()
    }

    /// Check the report is well-formed: known algorithm, every required
    /// phase present exactly once, all numbers finite and non-negative.
    pub fn validate(&self) -> Result<()> {
        let required = required_phases(&self.algorithm).ok_or_else(|| {
            Error::Config(format!("unknown algorithm `{}` in report", self.algorithm))
        })?;
        for want in required {
            let n = self.phases.iter().filter(|p| p.phase == *want).count();
            if n != 1 {
                return Err(Error::Config(format!(
                    "phase `{want}` appears {n} times in {} report (want exactly 1)",
                    self.algorithm
                )));
            }
        }
        for p in &self.phases {
            if !p.predicted_secs.is_finite()
                || !p.measured_secs.is_finite()
                || p.predicted_secs < 0.0
                || p.measured_secs < 0.0
            {
                return Err(Error::Config(format!(
                    "phase `{}` has non-finite or negative times: predicted={}, measured={}",
                    p.phase, p.predicted_secs, p.measured_secs
                )));
            }
        }
        if !self.predicted_total_secs.is_finite() || !self.measured_wall_secs.is_finite() {
            return Err(Error::Config("non-finite totals in report".into()));
        }
        Ok(())
    }

    /// Render the breakdown as a fixed-width text table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — predicted vs measured\n", self.algorithm));
        out.push_str(&format!(
            "  {:<14} {:>12} {:>12} {:>8}\n",
            "phase", "predicted", "measured", "ratio"
        ));
        for p in &self.phases {
            let ratio = if p.predicted_secs > 0.0 {
                format!("{:.2}x", p.ratio())
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {:<14} {:>11.4}s {:>11.4}s {:>8}\n",
                p.phase, p.predicted_secs, p.measured_secs, ratio
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>11.4}s {:>11.4}s\n",
            "total(model)",
            self.predicted_total_secs,
            self.measured_phase_total()
        ));
        out.push_str(&format!(
            "  {:<14} {:>12} {:>11.4}s\n",
            "wall", "", self.measured_wall_secs
        ));
        for (name, secs) in &self.extra_measured_secs {
            out.push_str(&format!(
                "  {:<14} {:>12} {:>11.4}s (unmodeled)\n",
                name, "", secs
            ));
        }
        out
    }

    /// Serialize as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        obj([
            ("algorithm", self.algorithm.as_str().into()),
            (
                "phases",
                JsonValue::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            obj([
                                ("phase", p.phase.as_str().into()),
                                ("predicted_secs", p.predicted_secs.into()),
                                ("measured_secs", p.measured_secs.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("predicted_total_secs", self.predicted_total_secs.into()),
            ("measured_wall_secs", self.measured_wall_secs.into()),
            (
                "extra_measured_secs",
                JsonValue::Object(
                    self.extra_measured_secs
                        .iter()
                        .map(|(k, v)| (k.clone(), (*v).into()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The full export: every run's breakdown plus the merged metrics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsReport {
    /// Per-run predicted-vs-measured breakdowns.
    pub runs: Vec<RunReport>,
    /// Merged registry snapshot across all runs.
    pub metrics: MetricsSnapshot,
    /// Free-form context (dataset shape, calibration, host).
    pub notes: BTreeMap<String, JsonValue>,
}

impl ObsReport {
    /// Validate every run report.
    pub fn validate(&self) -> Result<()> {
        if self.runs.is_empty() {
            return Err(Error::Config("report contains no runs".into()));
        }
        for r in &self.runs {
            r.validate()?;
        }
        Ok(())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        obj([
            (
                "runs",
                JsonValue::Array(self.runs.iter().map(|r| r.to_json_value()).collect()),
            ),
            ("metrics", self.metrics.to_json_value()),
            ("notes", JsonValue::Object(self.notes.clone())),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(phase: &str, p: f64, m: f64) -> PhaseRow {
        PhaseRow {
            phase: phase.into(),
            predicted_secs: p,
            measured_secs: m,
        }
    }

    fn ij_report() -> RunReport {
        RunReport {
            algorithm: "indexed_join".into(),
            phases: vec![
                row("transfer", 0.5, 0.6),
                row("build", 0.2, 0.25),
                row("probe", 0.1, 0.12),
            ],
            predicted_total_secs: 0.8,
            measured_wall_secs: 1.0,
            extra_measured_secs: BTreeMap::new(),
        }
    }

    #[test]
    fn valid_report_passes_and_renders() {
        let r = ij_report();
        r.validate().unwrap();
        let table = r.render_table();
        assert!(table.contains("transfer"));
        assert!(table.contains("1.20x"));
    }

    #[test]
    fn missing_phase_rejected() {
        let mut r = ij_report();
        r.phases.retain(|p| p.phase != "build");
        assert!(r.validate().is_err());
        let mut dup = ij_report();
        dup.phases.push(row("build", 0.1, 0.1));
        assert!(dup.validate().is_err());
    }

    #[test]
    fn bad_numbers_rejected() {
        let mut r = ij_report();
        r.phases[0].measured_secs = f64::NAN;
        assert!(r.validate().is_err());
        let mut r = ij_report();
        r.phases[0].predicted_secs = -1.0;
        assert!(r.validate().is_err());
        assert!(RunReport {
            algorithm: "bogus".into(),
            ..ij_report()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn obs_report_round_trips() {
        let report = ObsReport {
            runs: vec![ij_report()],
            metrics: MetricsSnapshot::default(),
            notes: BTreeMap::from([("grid".to_string(), "8x8x2".into())]),
        };
        report.validate().unwrap();
        let parsed = JsonValue::parse(&report.to_json()).unwrap();
        let runs = parsed.req("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].req_str("algorithm").unwrap(), "indexed_join");
        assert_eq!(runs[0].req_f64("predicted_total_secs").unwrap(), 0.8);
        assert_eq!(runs[0].req_f64("measured_wall_secs").unwrap(), 1.0);
        assert!(runs[0]
            .req("extra_measured_secs")
            .unwrap()
            .as_object()
            .unwrap()
            .is_empty());
        let phases = runs[0].req("phases").unwrap().as_array().unwrap();
        let rows: Vec<(&str, f64, f64)> = phases
            .iter()
            .map(|p| {
                (
                    p.req_str("phase").unwrap(),
                    p.req_f64("predicted_secs").unwrap(),
                    p.req_f64("measured_secs").unwrap(),
                )
            })
            .collect();
        assert_eq!(
            rows,
            [
                ("transfer", 0.5, 0.6),
                ("build", 0.2, 0.25),
                ("probe", 0.1, 0.12)
            ]
        );
        assert_eq!(
            parsed.req("metrics").unwrap(),
            &MetricsSnapshot::default().to_json_value()
        );
        assert_eq!(
            parsed.req("notes").unwrap().req_str("grid").unwrap(),
            "8x8x2"
        );
        assert!(ObsReport::default().validate().is_err());
    }
}
