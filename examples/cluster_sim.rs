//! Paper-scale what-if analysis on the cluster simulator.
//!
//! Plans a 2-billion-tuple join on clusters you do not have: the paper's
//! 2001-era testbed, the same testbed with a modern CPU, and an NFS-backed
//! configuration — showing how the IJ/GH decision moves with hardware
//! (Sections 6.2's "existing trends" discussion).
//!
//! ```text
//! cargo run --release --example cluster_sim
//! ```

use orv::cluster::ClusterSpec;
use orv::join::{simulate_grace_hash, simulate_indexed_join, SchedulePolicy, SimProblem};
use orv::types::Result;

const GAMMA_BUILD: f64 = 280.0;
const GAMMA_LOOKUP: f64 = 230.0;

fn run(label: &str, pr: &SimProblem, spec: &ClusterSpec) -> Result<()> {
    let ij = simulate_indexed_join(pr, spec, SchedulePolicy::TwoStageLexicographic)?;
    let gh = simulate_grace_hash(pr, spec)?;
    let winner = if ij.total_secs < gh.total_secs {
        "IJ"
    } else {
        "GH"
    };
    println!(
        "{label:<42} IJ {:>9.1}s   GH {:>9.1}s   → {winner}",
        ij.total_secs, gh.total_secs
    );
    Ok(())
}

fn main() -> Result<()> {
    // A 2.1-billion-tuple join (the paper's Figure 6 maximum), moderately
    // mismatched partitions.
    let grid = [65536, 32768, 1];
    let pr = SimProblem::from_regular(
        grid,
        [1024, 256, 1],
        [256, 1024, 1],
        16.0,
        16.0,
        GAMMA_BUILD,
        GAMMA_LOOKUP,
    );
    println!(
        "join of T = {:.2e} tuples, n_e·c_S = {:.2e}\n",
        pr.t,
        pr.n_e() * pr.c_s
    );

    run(
        "paper testbed (5+5, PIII 933)",
        &pr,
        &ClusterSpec::paper_testbed(5, 5),
    )?;

    let mut fast_cpu = ClusterSpec::paper_testbed(5, 5);
    fast_cpu.cpu_work_factor = 1.0 / 30.0; // a ~30× faster core
    run("same cluster, modern CPU (30×)", &pr, &fast_cpu)?;

    let mut fast_everything = fast_cpu.clone();
    fast_everything.nic_bw = 1.25e9; // 10 GbE
    fast_everything.disk_read_bw = 500.0e6;
    fast_everything.disk_write_bw = 450.0e6;
    fast_everything.scratch_read_bw = 500.0e6;
    run("modern CPU + 10GbE + SSDs", &pr, &fast_everything)?;

    run(
        "NFS single file server (4 compute)",
        &pr,
        &ClusterSpec::paper_testbed_nfs(4),
    )?;

    let mut big = ClusterSpec::paper_testbed(10, 10);
    big.mem_per_node = 2 << 30;
    run("10+10 nodes, 2 GB RAM each", &pr, &big)?;

    println!(
        "\nSection 6.2's trend: as computing power grows faster than I/O, IJ \
         offers more and more improvement over Grace Hash."
    );
    Ok(())
}
