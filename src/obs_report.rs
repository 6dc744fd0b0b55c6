//! Predicted-vs-measured reporting: run a join QES with observability
//! enabled, evaluate the Section 5 cost model for the same dataset and
//! system, and diff the two phase by phase.
//!
//! The mapping from span leaves to cost-model terms:
//!
//! | algorithm | phase | spans (critical path over groups) | model term |
//! |---|---|---|---|
//! | IJ | `transfer` | `n{j}/transfer` | `Transfer_IJ` |
//! | IJ | `build` | `n{j}/build` | `BuildHT_IJ` |
//! | IJ | `probe` | `n{j}/probe` | `Lookup_IJ` |
//! | GH | `transfer` | `s{n}/read + s{n}/send` | `Transfer_GH` |
//! | GH | `scratch_write` | `c{j}/scratch_write` | `Write_GH` |
//! | GH | `scratch_read` | `c{j}/scratch_read` | `Read_GH` |
//! | GH | `cpu` | `c{j}/build + c{j}/probe` | `Cpu_GH` |
//!
//! "Critical path over groups" means: for every node group (`n0`, `s1`,
//! `c2`, …) sum the selected leaves, then take the maximum across groups —
//! matching the cost models, which charge parallel per-node work at the
//! slowest node. Span time that maps to no model term (`s{n}/partition`
//! hashing, `bds{n}` internals, `engine` planning) is reported separately
//! as unmodeled extras, keyed by `{group class}/{leaf}`.

use orv_bds::{generate_dataset, DatasetHandle, DatasetSpec, Deployment};
use orv_costmodel::{CostParams, GraceHashModel, IndexedJoinModel, SystemParams};
use orv_join::{
    calibrate_host, grace_hash_join, host_system_params, indexed_join, GraceHashConfig,
    IndexedJoinConfig, JoinOutput,
};
use orv_obs::{JsonValue, Obs, ObsReport, PhaseRow, RunReport};
use orv_query::Planner;
use orv_types::Result;
use std::collections::BTreeMap;

/// One observed join execution: the predicted-vs-measured breakdown plus
/// the raw output and the observability handle it was collected with.
pub struct JoinObservation {
    /// The per-phase breakdown.
    pub report: RunReport,
    /// The join's output (stats + optional records).
    pub output: JoinOutput,
    /// The handle holding the full span/event/metric streams.
    pub obs: Obs,
}

/// Cost-model dataset parameters for a generated table pair — the
/// planner's metadata-only estimate: `n_e` comes from the persisted
/// page-level join index when available (an IJ run stores it), falling
/// back to `max(m_R, m_S)`, exact for the aligned partitions the
/// generator produces.
pub fn dataset_params(
    deployment: &Deployment,
    left: &DatasetHandle,
    right: &DatasetHandle,
    join_attrs: &[&str],
) -> Result<CostParams> {
    Planner::estimate_params(deployment.metadata(), left.table, right.table, join_attrs)
}

/// True when `group` is `prefix` followed by a node index (`n0`, `c12`).
fn in_class(group: &str, prefix: &str) -> bool {
    group
        .strip_prefix(prefix)
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Group name with the node index stripped: `bds1` → `bds`, `n0` → `n`.
fn group_class(group: &str) -> &str {
    group.trim_end_matches(|c: char| c.is_ascii_digit())
}

/// Critical-path time of `leaves` over all groups in class `prefix`: per
/// group, sum the leaves; across groups, take the max.
fn max_over_class(
    by_group: &BTreeMap<String, BTreeMap<String, f64>>,
    prefix: &str,
    leaves: &[&str],
) -> f64 {
    by_group
        .iter()
        .filter(|(g, _)| in_class(g, prefix))
        .map(|(_, per_leaf)| {
            leaves
                .iter()
                .map(|l| per_leaf.get(*l).copied().unwrap_or(0.0))
                .sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// Sum every `(class, leaf)` that the phase mapping did not consume.
/// `consumed` maps a class prefix to the leaves it accounted for.
fn unmodeled_extras(
    by_group: &BTreeMap<String, BTreeMap<String, f64>>,
    consumed: &[(&str, &[&str])],
) -> BTreeMap<String, f64> {
    let mut extras = BTreeMap::new();
    for (group, per_leaf) in by_group {
        for (leaf, secs) in per_leaf {
            let taken = consumed
                .iter()
                .any(|(prefix, leaves)| in_class(group, prefix) && leaves.contains(&leaf.as_str()));
            if !taken {
                *extras
                    .entry(format!("{}/{leaf}", group_class(group)))
                    .or_insert(0.0) += secs;
            }
        }
    }
    extras
}

/// Run the Indexed Join with observability enabled and diff the measured
/// phase times against `IndexedJoinModel` under `sys`.
pub fn observe_indexed_join(
    deployment: &Deployment,
    left: &DatasetHandle,
    right: &DatasetHandle,
    join_attrs: &[&str],
    n_compute: usize,
    sys: &SystemParams,
) -> Result<JoinObservation> {
    let obs = Obs::enabled();
    let cfg = IndexedJoinConfig {
        n_compute,
        obs: obs.clone(),
        ..Default::default()
    };
    let output = indexed_join(deployment, left.table, right.table, join_attrs, &cfg)?;
    let d = dataset_params(deployment, left, right, join_attrs)?;
    let model = IndexedJoinModel::evaluate(&d, sys)?;
    let by_group = obs.spans.group_leaf_totals();
    let phase = |name: &str, predicted: f64, leaves: &[&str]| PhaseRow {
        phase: name.to_string(),
        predicted_secs: predicted,
        measured_secs: max_over_class(&by_group, "n", leaves),
    };
    let report = RunReport {
        algorithm: "indexed_join".to_string(),
        phases: vec![
            phase("transfer", model.transfer, &["transfer"]),
            phase("build", model.build, &["build"]),
            phase("probe", model.lookup, &["probe"]),
        ],
        predicted_total_secs: model.total(),
        measured_wall_secs: output.stats.wall_secs,
        extra_measured_secs: unmodeled_extras(&by_group, &[("n", &["transfer", "build", "probe"])]),
    };
    report.validate()?;
    Ok(JoinObservation {
        report,
        output,
        obs,
    })
}

/// Run Grace Hash with observability enabled and diff the measured phase
/// times against `GraceHashModel` under `sys`.
pub fn observe_grace_hash(
    deployment: &Deployment,
    left: &DatasetHandle,
    right: &DatasetHandle,
    join_attrs: &[&str],
    n_compute: usize,
    sys: &SystemParams,
) -> Result<JoinObservation> {
    let obs = Obs::enabled();
    let cfg = GraceHashConfig {
        n_compute,
        obs: obs.clone(),
        ..Default::default()
    };
    let output = grace_hash_join(deployment, left.table, right.table, join_attrs, &cfg)?;
    let d = dataset_params(deployment, left, right, join_attrs)?;
    let model = GraceHashModel::evaluate(&d, sys)?;
    let by_group = obs.spans.group_leaf_totals();
    let report = RunReport {
        algorithm: "grace_hash".to_string(),
        phases: vec![
            PhaseRow {
                phase: "transfer".to_string(),
                predicted_secs: model.transfer,
                measured_secs: max_over_class(&by_group, "s", &["read", "send"]),
            },
            PhaseRow {
                phase: "scratch_write".to_string(),
                predicted_secs: model.write,
                measured_secs: max_over_class(&by_group, "c", &["scratch_write"]),
            },
            PhaseRow {
                phase: "scratch_read".to_string(),
                predicted_secs: model.read,
                measured_secs: max_over_class(&by_group, "c", &["scratch_read"]),
            },
            PhaseRow {
                phase: "cpu".to_string(),
                predicted_secs: model.cpu,
                measured_secs: max_over_class(&by_group, "c", &["build", "probe"]),
            },
        ],
        predicted_total_secs: model.total(),
        measured_wall_secs: output.stats.wall_secs,
        extra_measured_secs: unmodeled_extras(
            &by_group,
            &[
                ("s", &["read", "send"]),
                ("c", &["scratch_write", "scratch_read", "build", "probe"]),
            ],
        ),
    };
    report.validate()?;
    Ok(JoinObservation {
        report,
        output,
        obs,
    })
}

/// Shape of the dataset pair the standard report runs over.
#[derive(Clone, Copy, Debug)]
pub struct ReportConfig {
    /// Grid extent of both tables.
    pub grid: [u64; 3],
    /// Partition of the left (inner) table.
    pub left_partition: [u64; 3],
    /// Partition of the right (outer) table.
    pub right_partition: [u64; 3],
    /// Storage nodes.
    pub n_storage: usize,
    /// Compute-node threads per QES.
    pub n_compute: usize,
    /// Tuples the host calibration loops over.
    pub calibration_tuples: u64,
}

impl Default for ReportConfig {
    fn default() -> Self {
        ReportConfig {
            grid: [16, 16, 4],
            left_partition: [8, 8, 4],
            right_partition: [4, 16, 2],
            n_storage: 2,
            n_compute: 2,
            calibration_tuples: 200_000,
        }
    }
}

/// Generate a dataset pair, run **both** QES implementations over it with
/// observability on, and assemble the combined predicted-vs-measured
/// report (IJ first, so its run persists the join index `n_e` that both
/// models read).
pub fn standard_report(cfg: &ReportConfig) -> Result<ObsReport> {
    let deployment = Deployment::in_memory(cfg.n_storage);
    let left = generate_dataset(
        &DatasetSpec::builder("t1")
            .grid(cfg.grid)
            .partition(cfg.left_partition)
            .scalar_attrs(&["oilp"])
            .seed(1)
            .build(),
        &deployment,
    )?;
    let right = generate_dataset(
        &DatasetSpec::builder("t2")
            .grid(cfg.grid)
            .partition(cfg.right_partition)
            .scalar_attrs(&["wp"])
            .seed(2)
            .build(),
        &deployment,
    )?;
    let attrs = ["x", "y", "z"];
    let cal = calibrate_host(cfg.calibration_tuples)?;
    let sys = host_system_params(&cal, cfg.n_storage, cfg.n_compute);

    let ij = observe_indexed_join(&deployment, &left, &right, &attrs, cfg.n_compute, &sys)?;
    let gh = observe_grace_hash(&deployment, &left, &right, &attrs, cfg.n_compute, &sys)?;

    let mut metrics = ij.obs.metrics.snapshot();
    metrics.merge(&gh.obs.metrics.snapshot())?;

    let mut notes: BTreeMap<String, JsonValue> = BTreeMap::new();
    notes.insert(
        "grid".to_string(),
        JsonValue::Array(cfg.grid.iter().map(|&g| JsonValue::from(g)).collect()),
    );
    notes.insert("total_tuples".to_string(), left.total_tuples().into());
    notes.insert(
        "result_tuples".to_string(),
        ij.output.stats.result_tuples.into(),
    );
    notes.insert(
        "algorithms_agree".to_string(),
        (ij.output.stats.result_tuples == gh.output.stats.result_tuples).into(),
    );

    let report = ObsReport {
        runs: vec![ij.report, gh.report],
        metrics,
        notes,
    };
    report.validate()?;
    Ok(report)
}
