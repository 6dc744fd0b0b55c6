//! Experiment harness: regenerates every figure of the paper's evaluation.
//!
//! Each `figN` module returns a series of [`Point`]s containing four
//! values per x-coordinate: the simulated IJ and GH times (discrete-event
//! cluster, paper-testbed constants, paper scale) and the analytic
//! cost-model predictions. The `figures` binary prints them; the
//! `validate` binary cross-checks sim vs model and (at laptop scale)
//! threaded runtime vs model.
//!
//! The Figure 4 dataset family deserves a note. The paper varies
//! `n_e · c_S` at constant grid size *and* constant edge ratio. We use
//! partitions `p_i = (64, 64/2^i, 1)` and `q_i = (64/2^i, 64, 1)`:
//!
//! * chunk volume `c_i = 4096 / 2^i` (both tables equal),
//! * per-component overlap `E_C = 4^i`, components `N_C = T/4096`,
//! * hence `n_e·c_S = 2^i · T` — doubling each step — while the edge
//!   ratio `n_e·c_R·c_S/T² = 4096/T` stays exactly constant,
//!
//! which is precisely the paper's experimental design.

#![forbid(unsafe_code)]

pub mod figures;
pub mod runtime_check;

pub use figures::{
    ablation_cache_series, ablation_schedule_series, fig4_series, fig5_series, fig6_series,
    fig7_series, fig8_series, fig9_series, figures_json, Figure, Point, PolicyRow,
};

use orv_bds::{generate_dataset, DatasetHandle, DatasetSpec, Deployment};
use orv_types::Result;

/// Deploy the canonical two-table experiment dataset on `nodes` in-memory
/// storage nodes.
pub fn deploy_pair(
    grid: [u64; 3],
    p1: [u64; 3],
    p2: [u64; 3],
    nodes: usize,
    scalars1: &[&str],
    scalars2: &[&str],
) -> Result<(Deployment, DatasetHandle, DatasetHandle)> {
    let d = Deployment::in_memory(nodes);
    let t1 = generate_dataset(
        &DatasetSpec::builder("t1")
            .grid(grid)
            .partition(p1)
            .scalar_attrs(scalars1)
            .seed(1)
            .build(),
        &d,
    )?;
    let t2 = generate_dataset(
        &DatasetSpec::builder("t2")
            .grid(grid)
            .partition(p2)
            .scalar_attrs(scalars2)
            .seed(2)
            .build(),
        &d,
    )?;
    Ok((d, t1, t2))
}
