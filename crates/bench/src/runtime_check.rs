//! Laptop-scale validation on the real threaded runtime.
//!
//! Runs the Figure 4 dataset family at a size the host can chew through in
//! seconds, measuring actual wall-clock times of both threaded QES
//! implementations, and compares the *orderings* against the cost models
//! fed with host-calibrated `α` constants. This is the "models fit actual
//! execution times closely" claim of Section 6.1, transplanted to the host
//! we actually have.

use crate::deploy_pair;
use crate::figures::family_partitions;
use orv_costmodel::choose_algorithm;
use orv_join::{
    calibrate_host, grace_hash_join, host_system_params, indexed_join, Calibration,
    GraceHashConfig, IndexedJoinConfig, JoinAlgorithm,
};
use orv_query::Planner;
use orv_types::Result;

/// One validation row.
#[derive(Clone, Copy, Debug)]
pub struct CheckRow {
    /// Fig-4 family index.
    pub i: u32,
    /// `n_e · c_S` of the dataset.
    pub ne_cs: f64,
    /// Measured threaded IJ wall time, seconds.
    pub ij_measured: f64,
    /// Measured threaded GH wall time, seconds.
    pub gh_measured: f64,
    /// `Total_IJ` of the host model, seconds.
    pub ij_model: f64,
    /// `Total_GH` of the host model, seconds.
    pub gh_model: f64,
    /// Result tuples (must equal `T` for both).
    pub tuples: u64,
    /// The planner's pick for this dataset on the host model.
    pub planner_pick: JoinAlgorithm,
    /// Whether the pick matched the empirically faster algorithm.
    pub pick_correct: bool,
}

/// Run the family at `grid` scale over `nodes` storage / `n_compute`
/// compute threads. Returns the rows plus the calibration used.
pub fn run_family(
    grid: [u64; 3],
    max_i: u32,
    nodes: usize,
    n_compute: usize,
) -> Result<(Vec<CheckRow>, Calibration)> {
    let cal = calibrate_host(500_000)?;
    let sparams = host_system_params(&cal, nodes, n_compute);
    let mut rows = Vec::new();
    for i in 0..=max_i {
        // Laptop-scale instance of the same family (64-point base).
        let (p, q) = family_partitions(64, i);
        let (d, t1, t2) = deploy_pair(grid, p, q, nodes, &["oilp"], &["wp"])?;

        let ij = indexed_join(
            &d,
            t1.table,
            t2.table,
            &["x", "y", "z"],
            &IndexedJoinConfig {
                n_compute,
                ..Default::default()
            },
        )?;
        let gh = grace_hash_join(
            &d,
            t1.table,
            t2.table,
            &["x", "y", "z"],
            &GraceHashConfig {
                n_compute,
                ..Default::default()
            },
        )?;
        assert_eq!(ij.stats.result_tuples, gh.stats.result_tuples);

        // `n_e` is exact: the IJ run above stored the join index.
        let dparams = Planner::estimate_params(d.metadata(), t1.table, t2.table, &["x", "y", "z"])?;
        let choice = choose_algorithm(&dparams, &sparams)?;
        let pick = if choice.indexed_join {
            JoinAlgorithm::IndexedJoin
        } else {
            JoinAlgorithm::GraceHash
        };
        let empirically_ij = ij.stats.wall_secs < gh.stats.wall_secs;
        rows.push(CheckRow {
            i,
            ne_cs: dparams.ne_cs(),
            ij_measured: ij.stats.wall_secs,
            gh_measured: gh.stats.wall_secs,
            ij_model: choice.ij_total,
            gh_model: choice.gh_total,
            tuples: ij.stats.result_tuples,
            planner_pick: pick,
            pick_correct: (pick == JoinAlgorithm::IndexedJoin) == empirically_ij,
        });
    }
    Ok((rows, cal))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_runs_and_outputs_t_tuples() {
        let (rows, cal) = run_family([64, 64, 1], 2, 2, 2).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.tuples, 64 * 64);
            assert!(r.ij_measured > 0.0 && r.gh_measured > 0.0);
        }
        assert!(cal.alpha_build > 0.0);
        // n_e·c_S doubles along the family.
        assert!((rows[1].ne_cs / rows[0].ne_cs - 2.0).abs() < 1e-9);
    }
}
