//! Sweep definitions for Figures 4–9.

use orv_cluster::ClusterSpec;
use orv_costmodel::{CostParams, GraceHashModel, IndexedJoinModel, SystemParams};
use orv_join::connectivity::predict_regular;
use orv_join::SchedulePolicy::{self, TwoStageLexicographic};
use orv_join::{simulate_grace_hash, simulate_indexed_join, SimProblem};
use orv_obs::{obj, JsonValue};
use orv_types::Result;

/// CPU operations per hash-table insert on the paper testbed (γ1), chosen
/// so `α_build = γ1/F ≈ 0.30 µs` on the 933 MHz PIII.
pub const GAMMA_BUILD: f64 = 280.0;
/// CPU operations per lookup (γ2): `α_lookup ≈ 0.25 µs`.
pub const GAMMA_LOOKUP: f64 = 230.0;

/// One x-coordinate of a figure: simulated and modelled times for both
/// algorithms.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// The swept quantity (axis meaning depends on the figure).
    pub x: f64,
    /// Discrete-event simulation of IJ, seconds.
    pub ij_sim: f64,
    /// Discrete-event simulation of GH, seconds.
    pub gh_sim: f64,
    /// Section 5.1 model, seconds.
    pub ij_model: f64,
    /// Section 5.2 model, seconds.
    pub gh_model: f64,
}

/// A reproduced figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure number.
    pub id: u32,
    /// Title.
    pub title: String,
    /// Meaning of `Point::x`.
    pub x_label: String,
    /// The series.
    pub points: Vec<Point>,
}

/// `figs` as one JSON array — what `figures --json` prints: per figure
/// its `id`, `title`, `x_label` and `points`, each point the five fields
/// of [`Point`].
pub fn figures_json(figs: &[Figure]) -> JsonValue {
    let point = |p: &Point| {
        obj([
            ("x", p.x.into()),
            ("ij_sim", p.ij_sim.into()),
            ("gh_sim", p.gh_sim.into()),
            ("ij_model", p.ij_model.into()),
            ("gh_model", p.gh_model.into()),
        ])
    };
    let figure = |f: &Figure| {
        obj([
            ("id", f.id.into()),
            ("title", f.title.as_str().into()),
            ("x_label", f.x_label.as_str().into()),
            (
                "points",
                f.points.iter().map(point).collect::<Vec<_>>().into(),
            ),
        ])
    };
    figs.iter().map(figure).collect::<Vec<_>>().into()
}

/// The Figure 4 dataset family at an arbitrary scale: partitions
/// `p_i = (base, base/2^i, 1)`, `q_i = (base/2^i, base, 1)` over a fixed
/// grid — `n_e·c_S = 2^i·T` at constant edge ratio, with both chunk
/// volumes equal (`c = base²/2^i`).
pub fn family_partitions(base: u64, i: u32) -> ([u64; 3], [u64; 3]) {
    let narrow = base >> i;
    assert!(narrow >= 1, "family defined while base/2^i ≥ 1");
    ([base, narrow, 1], [narrow, base, 1])
}

/// The paper-scale Figure 4 family: 16 MB chunks at `i = 0` shrinking to
/// 512 KB at `i = 5` — realistic chunk sizes, so per-request overheads
/// stay negligible as they were on the testbed.
pub fn fig4_partitions(i: u32) -> ([u64; 3], [u64; 3]) {
    family_partitions(1024, i)
}

fn problem(grid: [u64; 3], p: [u64; 3], q: [u64; 3], rs: f64) -> SimProblem {
    SimProblem::from_regular(grid, p, q, rs, rs, GAMMA_BUILD, GAMMA_LOOKUP)
}

fn cost_params(pr: &SimProblem) -> CostParams {
    CostParams {
        t: pr.t,
        c_r: pr.c_r,
        c_s: pr.c_s,
        n_e: pr.n_e(),
        rs_r: pr.rs_r,
        rs_s: pr.rs_s,
    }
}

fn point(x: f64, pr: &SimProblem, spec: &ClusterSpec) -> Result<Point> {
    let d = cost_params(pr);
    let s = SystemParams::from_cluster(spec, GAMMA_BUILD, GAMMA_LOOKUP);
    Ok(Point {
        x,
        ij_sim: simulate_indexed_join(pr, spec, TwoStageLexicographic)?.total_secs,
        gh_sim: simulate_grace_hash(pr, spec)?.total_secs,
        ij_model: IndexedJoinModel::evaluate(&d, &s)?.total(),
        gh_model: GraceHashModel::evaluate(&d, &s)?.total(),
    })
}

/// Figure 4: execution time vs `n_e · c_S` (5 storage + 5 compute nodes,
/// constant grid, constant edge ratio).
pub fn fig4_series() -> Result<Figure> {
    let grid = [8192, 8192, 1];
    let spec = ClusterSpec::paper_testbed(5, 5);
    let mut points = Vec::new();
    for i in 0..=5u32 {
        let (p, q) = fig4_partitions(i);
        let pr = problem(grid, p, q, 16.0);
        points.push(point(pr.n_e() * pr.c_s, &pr, &spec)?);
    }
    Ok(Figure {
        id: 4,
        title: "Varying dataset parameter combination n_e · c_S".into(),
        x_label: "n_e · c_S (tuple lookups)".into(),
        points,
    })
}

/// Figure 5: execution time vs number of compute nodes (low `n_e·c_S`
/// dataset, 5 storage nodes).
pub fn fig5_series() -> Result<Figure> {
    let grid = [8192, 8192, 1];
    let (p, q) = fig4_partitions(1);
    let mut points = Vec::new();
    for nj in 1..=8usize {
        let spec = ClusterSpec::paper_testbed(5, nj);
        let pr = problem(grid, p, q, 16.0);
        points.push(point(nj as f64, &pr, &spec)?);
    }
    Ok(Figure {
        id: 5,
        title: "Vary number of Compute Nodes".into(),
        x_label: "compute nodes (n_j)".into(),
        points,
    })
}

/// Figure 6: execution time vs total tuples `T`, up to the paper's
/// 2-billion-tuple maximum.
pub fn fig6_series() -> Result<Figure> {
    let (p, q) = fig4_partitions(1);
    let spec = ClusterSpec::paper_testbed(5, 5);
    let mut points = Vec::new();
    for k in 0..=5u32 {
        // Grids from 67M to 2.1B tuples, doubling.
        let gx = 8192u64 << (k / 2 + u32::from(k % 2 == 1));
        let gy = 8192u64 << (k / 2);
        let grid = [gx, gy, 1];
        let pr = problem(grid, p, q, 16.0);
        points.push(point(pr.t, &pr, &spec)?);
    }
    Ok(Figure {
        id: 6,
        title: "Vary number of tuples".into(),
        x_label: "total tuples (T)".into(),
        points,
    })
}

/// Figure 7: execution time vs number of attributes (4-byte attributes,
/// 4 → 21 as in the oil-reservoir schema).
pub fn fig7_series() -> Result<Figure> {
    let grid = [8192, 8192, 1];
    let (p, q) = fig4_partitions(1);
    let spec = ClusterSpec::paper_testbed(5, 5);
    let mut points = Vec::new();
    for attrs in [4u32, 6, 9, 12, 15, 18, 21] {
        let pr = problem(grid, p, q, attrs as f64 * 4.0);
        points.push(point(attrs as f64, &pr, &spec)?);
    }
    Ok(Figure {
        id: 7,
        title: "Vary number of attributes".into(),
        x_label: "attributes per record".into(),
        points,
    })
}

/// Figure 8: effect of computing power. x is the *relative* computing
/// power (1 = the PIII baseline); lower x means build/probe instructions
/// repeated `1/x` times, exactly the paper's slowdown trick.
pub fn fig8_series() -> Result<Figure> {
    let grid = [8192, 8192, 1];
    let (p, q) = fig4_partitions(3); // moderately tangled dataset
    let mut points = Vec::new();
    for rel_power in [0.125f64, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut spec = ClusterSpec::paper_testbed(5, 5);
        spec.cpu_work_factor = 1.0 / rel_power;
        let pr = problem(grid, p, q, 16.0);
        points.push(point(rel_power, &pr, &spec)?);
    }
    Ok(Figure {
        id: 8,
        title: "Effect of computing power".into(),
        x_label: "relative computing power (F / F_PIII)".into(),
        points,
    })
}

/// Figure 9: a single NFS file server serves all I/O; compute nodes have
/// no local disks. x is the number of compute nodes.
pub fn fig9_series() -> Result<Figure> {
    let grid = [4096, 4096, 1];
    // Finer partitions than fig4's baseline: bucket traffic becomes many
    // small NFS RPCs, which is what the shared server chokes on.
    let (p, q) = fig4_partitions(4);
    let mut points = Vec::new();
    for nj in 1..=8usize {
        let spec = ClusterSpec::paper_testbed_nfs(nj);
        let pr = problem(grid, p, q, 16.0);
        // The Section 5 models assume per-node scratch disks; under NFS the
        // single server serializes bucket I/O, so the models' write/read
        // terms lose their 1/n_j parallelism. Feed them the effective
        // per-node bandwidth (server bandwidth ÷ n_j) to keep them honest.
        let d = cost_params(&pr);
        let mut s = SystemParams::from_cluster(&spec, GAMMA_BUILD, GAMMA_LOOKUP);
        s.write_io_bw /= nj as f64;
        s.read_io_bw /= nj as f64;
        points.push(Point {
            x: nj as f64,
            ij_sim: simulate_indexed_join(&pr, &spec, TwoStageLexicographic)?.total_secs,
            gh_sim: simulate_grace_hash(&pr, &spec)?.total_secs,
            ij_model: IndexedJoinModel::evaluate(&d, &s)?.total(),
            gh_model: GraceHashModel::evaluate(&d, &s)?.total(),
        });
    }
    Ok(Figure {
        id: 9,
        title: "Shared Filesystem".into(),
        x_label: "compute nodes (n_j)".into(),
        points,
    })
}

/// Ablation A2 at paper scale: shrink each compute node's memory
/// (`mem_per_node`, the engine's per-node LRU) below the §5.1 working set
/// of the two-stage lexicographic schedule, `2·c_R + b·c_S` bytes, and
/// watch IJ fall past Grace Hash, which is cache-oblivious: one chunk
/// short, LRU evicts each right just before its next use. `x` is the cache
/// size in bytes; the "model" columns hold the ideal-cache predictions as
/// reference lines.
pub fn ablation_cache_series() -> Result<Figure> {
    let grid = [8192, 8192, 1];
    let (p, q) = fig4_partitions(3); // 2 MB chunks, a = b = 8
    let mut spec = ClusterSpec::paper_testbed(5, 5);
    let pr = problem(grid, p, q, 16.0);
    let d = cost_params(&pr);
    let s = SystemParams::from_cluster(&spec, GAMMA_BUILD, GAMMA_LOOKUP);
    let ij_model = IndexedJoinModel::evaluate(&d, &s)?;
    let gh_model = GraceHashModel::evaluate(&d, &s)?.total();
    let gh_sim = simulate_grace_hash(&pr, &spec)?.total_secs;
    let chunk_bytes = pr.c_r * pr.rs_r;
    let mut points = Vec::new();
    // From comfortably-fits (16 chunks) down to thrashing (2 chunks).
    for chunks_cached in [16.0f64, 10.0, 9.0, 6.0, 4.0, 2.0] {
        let cache = chunks_cached * chunk_bytes;
        spec.mem_per_node = cache as u64;
        points.push(Point {
            x: cache,
            ij_sim: simulate_indexed_join(&pr, &spec, TwoStageLexicographic)?.total_secs,
            gh_sim,
            ij_model: ij_model.total(),
            gh_model,
        });
    }
    Ok(Figure {
        id: 102,
        title: "Ablation A2: IJ under cache starvation (GH as reference)".into(),
        x_label: "cache bytes per compute node".into(),
        points,
    })
}

/// One row of ablation A1: every schedule policy's simulated IJ at one
/// cache size.
#[derive(Clone, Debug)]
pub struct PolicyRow {
    /// Cache bytes per compute node, as a multiple of the working set.
    pub fraction: f64,
    /// Cache bytes per compute node.
    pub cache_bytes: u64,
    /// Per policy: its cache misses and simulated seconds.
    pub runs: Vec<(SchedulePolicy, u64, f64)>,
}

/// Ablation A1 at paper scale: IJ under each schedule policy on the
/// a = b = 16 dataset (`[256, 256, 16]`, `p = [64, 4, 16]`,
/// `q = [4, 64, 16]`, 64 KiB chunks, 5 + 5 nodes), with 0.5×, 0.75×, 1×
/// and 1.5× the two-stage schedule's working set `2·c_R + b·c_S` per
/// compute node. OPAS's buffer holds as many sub-tables as the cache.
pub fn ablation_schedule_series() -> Result<Vec<PolicyRow>> {
    let (grid, p, q) = ([256, 256, 16], [64, 4, 16], [4, 64, 16]);
    let pr = problem(grid, p, q, 16.0);
    let b = predict_regular(grid, p, q).b as f64;
    let working_set = 2.0 * pr.c_r * pr.rs_r + b * pr.c_s * pr.rs_s;
    let row = |fraction: f64| -> Result<PolicyRow> {
        let mut spec = ClusterSpec::paper_testbed(5, 5);
        spec.mem_per_node = (fraction * working_set) as u64;
        let buffer_subtables = (spec.mem_per_node as f64 / (pr.c_r * pr.rs_r)) as usize;
        let policies = [
            TwoStageLexicographic,
            SchedulePolicy::RandomPairOrder(1),
            SchedulePolicy::PairRoundRobin,
            SchedulePolicy::OpasGreedy { buffer_subtables },
        ];
        let runs = policies.into_iter().map(|policy| {
            let run = simulate_indexed_join(&pr, &spec, policy)?;
            Ok((policy, run.cache_misses, run.total_secs))
        });
        Ok(PolicyRow {
            fraction,
            cache_bytes: spec.mem_per_node,
            runs: runs.collect::<Result<_>>()?,
        })
    };
    [0.5, 0.75, 1.0, 1.5].into_iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_rendering_parses_back_into_the_six_series() {
        let figs: Vec<Figure> = [
            fig4_series,
            fig5_series,
            fig6_series,
            fig7_series,
            fig8_series,
            fig9_series,
        ]
        .iter()
        .map(|series| series().unwrap())
        .collect();
        let text = figures_json(&figs).to_string();
        let parsed = JsonValue::parse(&text).unwrap();
        let parsed = parsed.as_array().unwrap();
        assert_eq!(parsed.len(), 6);
        for (fig, got) in figs.iter().zip(parsed) {
            assert_eq!(got.req_u64("id").unwrap(), fig.id as u64);
            assert_eq!(got.req_str("title").unwrap(), fig.title);
            let points = got.req("points").unwrap().as_array().unwrap();
            assert_eq!(points.len(), fig.points.len(), "figure {}", fig.id);
            for (p, got) in fig.points.iter().zip(points) {
                assert_eq!(got.req_f64("x").unwrap(), p.x);
                assert_eq!(got.req_f64("gh_model").unwrap(), p.gh_model);
            }
        }
    }

    #[test]
    fn fig4_family_has_paper_properties() {
        // n_e·c_S doubles each step; edge ratio constant.
        let grid = [8192, 8192, 1];
        let mut prev_necs = 0.0;
        let mut er0 = None;
        for i in 0..=5 {
            let (p, q) = fig4_partitions(i);
            let pr = problem(grid, p, q, 16.0);
            let necs = pr.n_e() * pr.c_s;
            if i > 0 {
                assert!((necs / prev_necs - 2.0).abs() < 1e-9, "step {i}");
            }
            prev_necs = necs;
            let d = cost_params(&pr);
            let er = d.edge_ratio();
            match er0 {
                None => er0 = Some(er),
                Some(e) => assert!((er - e).abs() < 1e-12, "edge ratio drifted at {i}"),
            }
            // Chunk volumes equal on both sides.
            assert_eq!(pr.c_r, pr.c_s);
        }
    }

    #[test]
    fn fig4_crossover_exists_and_models_agree_on_winner() {
        let f = fig4_series().unwrap();
        assert_eq!(f.points.len(), 6);
        // IJ wins on the left end, GH on the right end — in both sim and
        // model (the paper's headline result).
        let first = f.points.first().unwrap();
        let last = f.points.last().unwrap();
        assert!(first.ij_sim < first.gh_sim, "{first:?}");
        assert!(first.ij_model < first.gh_model, "{first:?}");
        assert!(last.gh_sim < last.ij_sim, "{last:?}");
        assert!(last.gh_model < last.ij_model, "{last:?}");
        // GH is insensitive to n_e·c_S: its curve is flat.
        let gh_spread = f
            .points
            .iter()
            .map(|p| p.gh_sim)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(v), hi.max(v))
            });
        assert!(gh_spread.1 / gh_spread.0 < 1.35, "GH spread {gh_spread:?}");
    }

    #[test]
    fn fig5_gap_shrinks_with_more_nodes() {
        let f = fig5_series().unwrap();
        let gap: Vec<f64> = f
            .points
            .iter()
            .map(|p| (p.gh_sim - p.ij_sim).abs())
            .collect();
        assert!(gap.last().unwrap() < gap.first().unwrap());
        // Both improve with more nodes.
        assert!(f.points.last().unwrap().ij_sim < f.points[0].ij_sim);
        assert!(f.points.last().unwrap().gh_sim < f.points[0].gh_sim);
    }

    #[test]
    fn fig6_is_linear_in_t() {
        let f = fig6_series().unwrap();
        for w in f.points.windows(2) {
            let t_ratio = w[1].x / w[0].x;
            for (a, b) in [
                (w[0].ij_sim, w[1].ij_sim),
                (w[0].gh_sim, w[1].gh_sim),
                (w[0].ij_model, w[1].ij_model),
                (w[0].gh_model, w[1].gh_model),
            ] {
                assert!(
                    ((b / a) / t_ratio - 1.0).abs() < 0.15,
                    "nonlinear: {a} → {b}"
                );
            }
        }
        assert!(f.points.last().unwrap().x >= 2.0e9, "reaches 2B tuples");
    }

    #[test]
    fn fig7_grows_with_record_size() {
        let f = fig7_series().unwrap();
        for w in f.points.windows(2) {
            assert!(w[1].ij_sim > w[0].ij_sim);
            assert!(w[1].gh_sim > w[0].gh_sim);
        }
    }

    #[test]
    fn fig8_ij_overtakes_gh_with_computing_power() {
        let f = fig8_series().unwrap();
        let slowest = f.points.first().unwrap();
        let fastest = f.points.last().unwrap();
        // At very low computing power the CPU-heavy IJ lookup term
        // dominates; with fast CPUs IJ wins.
        assert!(slowest.gh_sim < slowest.ij_sim, "{slowest:?}");
        assert!(fastest.ij_sim < fastest.gh_sim, "{fastest:?}");
        // Models agree on both endpoints.
        assert!(slowest.gh_model < slowest.ij_model);
        assert!(fastest.ij_model < fastest.gh_model);
    }

    #[test]
    fn ablation_cache_starvation_crosses_gh() {
        let f = ablation_cache_series().unwrap();
        // Monotone: less cache, slower IJ.
        for w in f.points.windows(2) {
            assert!(w[1].ij_sim >= w[0].ij_sim - 1e-9, "{:?}", w);
        }
        let first = f.points.first().unwrap();
        let last = f.points.last().unwrap();
        // With the working set resident, IJ matches its ideal model...
        assert!((first.ij_sim - first.ij_model).abs() / first.ij_model < 0.1);
        // ...and under starvation IJ falls behind the cache-oblivious GH.
        assert!(last.ij_sim > last.gh_sim, "{last:?}");
    }

    #[test]
    fn fig9_gh_degrades_and_ij_is_better() {
        let f = fig9_series().unwrap();
        // GH at 8 nodes is no better than at 2 nodes (the paper observed
        // it getting *worse*).
        let gh2 = f.points[1].gh_sim;
        let gh8 = f.points[7].gh_sim;
        assert!(gh8 >= gh2, "GH must not improve under NFS: {gh2} → {gh8}");
        // IJ beats GH at every point beyond the first.
        for p in &f.points[1..] {
            assert!(p.ij_sim < p.gh_sim, "{p:?}");
        }
    }

    #[test]
    fn a1_two_stage_fetches_each_subtable_once_from_the_working_set_up() {
        let pred = predict_regular([256, 256, 16], [64, 4, 16], [4, 64, 16]);
        let misses =
            |row: &PolicyRow, policy| row.runs.iter().find(|run| run.0 == policy).map(|run| run.1);
        let rows = ablation_schedule_series().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows.iter().filter(|row| row.fraction >= 1.0) {
            let two_stage = misses(row, TwoStageLexicographic).unwrap();
            assert_eq!(two_stage, pred.n_c * (pred.a + pred.b), "{row:?}");
            let scattered = misses(row, SchedulePolicy::PairRoundRobin).unwrap();
            assert!(scattered > two_stage, "{row:?}");
        }
    }
}
