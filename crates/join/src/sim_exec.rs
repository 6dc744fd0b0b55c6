//! Simulator executions of IJ and Grace Hash at paper scale.
//!
//! These functions drive the discrete-event [`SimCluster`] with the
//! operation sequences the threaded runtime performs — chunk fetches,
//! hash-table builds, probes, bucket writes/reads — but carry only *costs*,
//! so a 2-billion-tuple run finishes in milliseconds. Both sequences are
//! the engines' own, replayed with byte sizes: IJ's connectivity graph,
//! schedule and one [`LruCache`] per compute node; GH's bucket count,
//! chunk read order and one frame per `(compute node, bucket)`. Used by the
//! benchmark harness to regenerate Figures 4-9 and by the validation
//! harness to check the analytic cost models.

use crate::cache::CacheKey;
use crate::connectivity::{predict_regular, ConnectivityGraph};
use crate::grace::bucket_count;
use crate::lru::LruCache;
use crate::schedule::{schedule, SchedulePolicy};
use orv_bds::GridPartition;
use orv_cluster::{ClusterSpec, NodeClocks, SimCluster};
use orv_types::{Error, Result, TableId};

/// The dataset/compute shape of one simulated join, in cost-model terms.
#[derive(Clone, Copy, Debug)]
pub struct SimProblem {
    /// Tuples per table (`T`).
    pub t: f64,
    /// Tuples per left sub-table (`c_R`).
    pub c_r: f64,
    /// Tuples per right sub-table (`c_S`).
    pub c_s: f64,
    /// Record size of the left table, bytes (`RS_R`).
    pub rs_r: f64,
    /// Record size of the right table, bytes (`RS_S`).
    pub rs_s: f64,
    /// Grid extent shared by both tables (`g`).
    pub grid: [u64; 3],
    /// Left partition (chunk) shape (`p`).
    pub p: [u64; 3],
    /// Right partition (chunk) shape (`q`).
    pub q: [u64; 3],
    /// CPU operations per hash-table insert (`γ1`).
    pub gamma_build: f64,
    /// CPU operations per hash-table lookup (`γ2`).
    pub gamma_lookup: f64,
}

impl SimProblem {
    /// The join of grid `grid` partitioned `p` (left) and `q` (right).
    pub fn from_regular(
        grid: [u64; 3],
        p: [u64; 3],
        q: [u64; 3],
        rs_r: f64,
        rs_s: f64,
        gamma_build: f64,
        gamma_lookup: f64,
    ) -> Self {
        SimProblem {
            t: (grid[0] * grid[1] * grid[2]) as f64,
            c_r: (p[0] * p[1] * p[2]) as f64,
            c_s: (q[0] * q[1] * q[2]) as f64,
            rs_r,
            rs_s,
            grid,
            p,
            q,
            gamma_build,
            gamma_lookup,
        }
    }

    /// Total edges `n_e = N_C · E_C`, from the paper's closed forms.
    pub fn n_e(&self) -> f64 {
        predict_regular(self.grid, self.p, self.q).n_e as f64
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<()> {
        let positive = [
            self.t,
            self.c_r,
            self.c_s,
            self.rs_r,
            self.rs_s,
            self.gamma_build,
            self.gamma_lookup,
        ];
        if positive.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(Error::Config(
                "all SimProblem fields must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Per-phase timing of a simulated run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimBreakdown {
    /// Makespan, seconds — the figure the paper plots.
    pub total_secs: f64,
    /// End of the partition phase (GH only; 0 for IJ).
    pub partition_secs: f64,
    /// Aggregate CPU busy time across compute nodes.
    pub cpu_busy_secs: f64,
    /// Aggregate bytes received by compute nodes.
    pub bytes_received: f64,
    /// Bytes written to and read back from scratch (GH only) — the
    /// threaded `RunStats::bytes_scratch_written` / `bytes_scratch_read`.
    pub scratch_bytes: (f64, f64),
    /// Sub-table cache misses summed over compute nodes (IJ only; GH
    /// caches nothing) — the threaded `RunStats::cache_misses`.
    pub cache_misses: u64,
}

/// Simulate the Indexed Join as the engine runs it: the graph of the two
/// partitionings, [`schedule`]'s pair lists under `policy` (the engine
/// runs [`SchedulePolicy::TwoStageLexicographic`]), and per compute node
/// one [`LruCache`] of `spec.mem_per_node` bytes that each pair's left and
/// right sub-table go through, as `indexed_join_cached` does. A left miss
/// fetches and builds (`γ1` per row), a right miss fetches, and every pair
/// probes (`γ2` per right row); each chunk holds the rows of its
/// [`GridPartition::chunk_region`] and lives where
/// [`GridPartition::node_of_chunk`] puts it.
///
/// The cache replay needs no clock, so each node's pairs become a list of
/// steps first — one fetch each, with the CPU work up to the next fetch.
/// The driver then always advances the node furthest behind by one step,
/// so shared FIFO resources receive requests in (approximately) global
/// time order; a coarser step would enqueue far-future fetches ahead of
/// other nodes' earlier ones and fabricate contention.
pub fn simulate_indexed_join(
    problem: &SimProblem,
    spec: &ClusterSpec,
    policy: SchedulePolicy,
) -> Result<SimBreakdown> {
    problem.validate()?;
    let mut cluster = SimCluster::new(spec.clone())?;
    let (grid, p, q) = (problem.grid, problem.p, problem.q);
    let graph = ConnectivityGraph::regular(TableId(0), TableId(1), grid, p, q)?;
    // Per side: its partition, record size, and CPU operations per row on
    // a miss and on every pair.
    let (left, right) = (GridPartition::new(grid, p)?, GridPartition::new(grid, q)?);
    let sides = [
        (&left, problem.rs_r, problem.gamma_build, 0.0),
        (&right, problem.rs_s, 0.0, problem.gamma_lookup),
    ];

    let mut cache_misses = 0;
    let mut steps: Vec<std::vec::IntoIter<(usize, f64, f64)>> =
        schedule(&graph, spec.n_compute, policy)
            .into_iter()
            .map(|pairs| {
                let mut lru = LruCache::new(spec.mem_per_node);
                let mut steps = Vec::new();
                for (l, r) in pairs {
                    let mut pair_ops = 0.0;
                    // One join per run, so the left key needs no attribute tag.
                    for (key, id, (part, rs, miss_ops, ops)) in [
                        (CacheKey::Left(l, 0), l, &sides[0]),
                        (CacheKey::Right(r), r, &sides[1]),
                    ] {
                        let chunk = u64::from(id.chunk.0);
                        let rows = part.chunk_region(chunk).num_points() as f64;
                        pair_ops += rows * ops;
                        if lru.get(&key).is_none() {
                            let node = part.node_of_chunk(chunk, spec.n_storage);
                            steps.push((node.index(), rows * rs, rows * miss_ops));
                            lru.put(key, (), (rows * rs) as u64);
                        }
                    }
                    if let Some(last) = steps.last_mut() {
                        last.2 += pair_ops;
                    }
                }
                cache_misses += lru.stats().misses;
                steps.into_iter()
            })
            .collect();

    let mut clocks = NodeClocks::new(spec.n_compute);
    while let Some(j) = clocks.earliest_with_work(|k| steps[k].len() > 0) {
        if let Some((storage_node, bytes, ops)) = steps[j].next() {
            let t = cluster.fetch(storage_node, j, bytes, clocks.get(j));
            clocks.set(j, cluster.cpu(j, ops, t));
        }
    }

    Ok(SimBreakdown {
        total_secs: clocks.makespan(),
        cpu_busy_secs: cluster.cpu_busy(),
        bytes_received: cluster.bytes_received(),
        cache_misses,
        ..SimBreakdown::default()
    })
}

/// Simulate the Grace Hash join as `grace_hash_join` runs it, with its
/// [`bucket_count`]. Partition phase: each storage node reads its chunks
/// of [`GridPartition::chunks`] in ascending id, left table first, each
/// holding the rows of its region, and sends every compute node one
/// transfer per chunk, whose frames — one per bucket — the receiver writes
/// to scratch. Join phase: each compute node reads every bucket back once
/// per side, then builds (`γ1` per left row) and probes (`γ2` per right
/// row). Routing hashes keys, so a chunk's rows are charged evenly to its
/// `n_j · buckets` frames.
pub fn simulate_grace_hash(problem: &SimProblem, spec: &ClusterSpec) -> Result<SimBreakdown> {
    problem.validate()?;
    let mut cluster = SimCluster::new(spec.clone())?;
    let (nj, ns) = (spec.n_compute, spec.n_storage);
    // Both tables cover the grid.
    let rows = problem.grid.iter().product::<u64>() as f64;
    let (left, right) = (rows * problem.rs_r, rows * problem.rs_s);
    let n_buckets = bucket_count((left + right) as u64, nj, spec.mem_per_node);
    let frames = (nj * n_buckets) as f64;

    // --- Partition phase (storage nodes drive). A chunk's `n_j · buckets`
    // scratch writes are the requests a shared NFS server chokes on (Fig. 9).
    // A compute node may begin its bucket joins once its last frame landed.
    let mut storage_clocks = NodeClocks::new(ns);
    let mut join_start = vec![0.0f64; nj];
    for (part, rs) in [(problem.p, problem.rs_r), (problem.q, problem.rs_s)] {
        for (_, region, node) in GridPartition::new(problem.grid, part)?.chunks(ns) {
            let (s, bytes) = (node.index(), region.num_points() as f64 * rs);
            let t0 = storage_clocks.get(s);
            let read_done = cluster.read_chunk(s, bytes, t0);
            let mut send_done = read_done;
            for (dest, dest_start) in join_start.iter_mut().enumerate() {
                // Receiver backpressure: the destination QES is one
                // thread — it takes the next transfer once it has spilled
                // the previous one (as TCP flow control would make it).
                let net_done = cluster.transfer(s, dest, bytes / nj as f64, t0.max(*dest_start));
                send_done = send_done.max(net_done);
                for _ in 0..n_buckets {
                    let landed =
                        cluster.scratch_write(dest, bytes / frames, net_done.max(read_done));
                    *dest_start = dest_start.max(landed);
                }
            }
            // Cut-through: the storage node moves on once the chunk is
            // read and sent; its frames land asynchronously.
            storage_clocks.set(s, send_done);
        }
    }
    let partition_secs = join_start.iter().copied().fold(0.0, f64::max);

    // --- Join phase: per compute node and bucket, a read-back per side,
    // then build and probe; nodes interleave furthest-behind first.
    let ops = rows * (problem.gamma_build + problem.gamma_lookup);
    let steps = [(left / frames, 0.0), (right / frames, ops / frames)];
    let mut clocks = NodeClocks::new(nj);
    for (j, &start) in join_start.iter().enumerate() {
        clocks.set(j, start);
    }
    let mut taken = vec![0; nj];
    while let Some(j) = clocks.earliest_with_work(|k| taken[k] < steps.len() * n_buckets) {
        let (bytes, ops) = steps[taken[j] % steps.len()];
        taken[j] += 1;
        let t = cluster.scratch_read(j, bytes, clocks.get(j));
        clocks.set(j, cluster.cpu(j, ops, t));
    }

    Ok(SimBreakdown {
        total_secs: clocks.makespan(),
        partition_secs,
        cpu_busy_secs: cluster.cpu_busy(),
        bytes_received: cluster.bytes_received(),
        scratch_bytes: cluster.scratch_bytes(),
        cache_misses: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig};
    use orv_bds::{generate_dataset, DatasetSpec, Deployment};
    use orv_cluster::RunStats;

    /// γ values matching the paper-testbed CPU calibration.
    const GAMMA_BUILD: f64 = 280.0;
    const GAMMA_LOOKUP: f64 = 230.0;
    const TWO_STAGE: SchedulePolicy = SchedulePolicy::TwoStageLexicographic;

    fn problem(grid: [u64; 3], p: [u64; 3], q: [u64; 3]) -> SimProblem {
        SimProblem::from_regular(grid, p, q, 16.0, 16.0, GAMMA_BUILD, GAMMA_LOOKUP)
    }

    #[test]
    fn from_regular_matches_prediction() {
        let pr = problem([64, 64, 64], [16, 16, 16], [32, 8, 16]);
        assert_eq!(pr.t, 64.0 * 64.0 * 64.0);
        assert_eq!(pr.n_e(), 128.0);
        pr.validate().unwrap();
    }

    #[test]
    fn both_sims_scale_linearly_in_t() {
        let spec = ClusterSpec::paper_testbed(5, 5);
        let small = problem([128, 128, 16], [16, 16, 16], [16, 16, 16]);
        let big = problem([256, 128, 16], [16, 16, 16], [16, 16, 16]);
        let ij_s = simulate_indexed_join(&small, &spec, TWO_STAGE)
            .unwrap()
            .total_secs;
        let ij_b = simulate_indexed_join(&big, &spec, TWO_STAGE)
            .unwrap()
            .total_secs;
        let gh_s = simulate_grace_hash(&small, &spec).unwrap().total_secs;
        let gh_b = simulate_grace_hash(&big, &spec).unwrap().total_secs;
        assert!((ij_b / ij_s - 2.0).abs() < 0.15, "IJ ratio {}", ij_b / ij_s);
        assert!((gh_b / gh_s - 2.0).abs() < 0.15, "GH ratio {}", gh_b / gh_s);
    }

    #[test]
    fn ij_wins_at_low_ne_cs() {
        // Identical partitions → E_C = 1, minimal probe work for IJ, while
        // GH still pays bucket write+read.
        let spec = ClusterSpec::paper_testbed(5, 5);
        let pr = problem([256, 256, 16], [16, 16, 16], [16, 16, 16]);
        let ij = simulate_indexed_join(&pr, &spec, TWO_STAGE)
            .unwrap()
            .total_secs;
        let gh = simulate_grace_hash(&pr, &spec).unwrap().total_secs;
        assert!(ij < gh, "IJ {ij} should beat GH {gh} at low n_e·c_S");
    }

    #[test]
    fn gh_wins_at_high_ne_cs() {
        // Mismatched partitions with huge fan-out: IJ probe cost explodes.
        let spec = ClusterSpec::paper_testbed(5, 5);
        let pr = problem([256, 256, 16], [256, 1, 16], [1, 256, 16]);
        assert!(predict_regular(pr.grid, pr.p, pr.q).e_c >= 256 * 256);
        let ij = simulate_indexed_join(&pr, &spec, TWO_STAGE)
            .unwrap()
            .total_secs;
        let gh = simulate_grace_hash(&pr, &spec).unwrap().total_secs;
        assert!(gh < ij, "GH {gh} should beat IJ {ij} at high n_e·c_S");
    }

    #[test]
    fn gh_partition_phase_precedes_join_phase() {
        let spec = ClusterSpec::paper_testbed(2, 2);
        let pr = problem([64, 64, 4], [16, 16, 4], [16, 16, 4]);
        let r = simulate_grace_hash(&pr, &spec).unwrap();
        assert!(r.partition_secs > 0.0);
        assert!(r.total_secs > r.partition_secs);
    }

    #[test]
    fn more_compute_nodes_speed_both_up() {
        let pr = problem([256, 256, 8], [16, 16, 8], [8, 32, 8]);
        let t2 = simulate_indexed_join(&pr, &ClusterSpec::paper_testbed(5, 2), TWO_STAGE)
            .unwrap()
            .total_secs;
        let t8 = simulate_indexed_join(&pr, &ClusterSpec::paper_testbed(5, 8), TWO_STAGE)
            .unwrap()
            .total_secs;
        assert!(t8 < t2);
        let g2 = simulate_grace_hash(&pr, &ClusterSpec::paper_testbed(5, 2))
            .unwrap()
            .total_secs;
        let g8 = simulate_grace_hash(&pr, &ClusterSpec::paper_testbed(5, 8))
            .unwrap()
            .total_secs;
        assert!(g8 < g2);
    }

    #[test]
    fn nfs_punishes_grace_hash_more() {
        // Figure 9: under a single shared file server, GH's bucket I/O
        // contends with chunk reads; adding compute nodes must not help GH.
        let pr = problem([128, 128, 8], [16, 16, 8], [16, 16, 8]);
        let gh2 = simulate_grace_hash(&pr, &ClusterSpec::paper_testbed_nfs(2))
            .unwrap()
            .total_secs;
        let gh8 = simulate_grace_hash(&pr, &ClusterSpec::paper_testbed_nfs(8))
            .unwrap()
            .total_secs;
        assert!(
            gh8 >= gh2 * 0.95,
            "GH must not improve under NFS: {gh2} → {gh8}"
        );
        let ij2 = simulate_indexed_join(&pr, &ClusterSpec::paper_testbed_nfs(2), TWO_STAGE)
            .unwrap()
            .total_secs;
        assert!(ij2 < gh2, "IJ is the better choice under NFS");
    }

    #[test]
    fn work_factor_hurts_ij_more() {
        // Figure 8: lower computing power (higher work factor) hurts the
        // CPU-bound side of the comparison more. At low n_e·c_S, IJ is
        // CPU-light, so slowing the CPU narrows then flips the gap.
        let pr = problem([256, 256, 16], [8, 8, 16], [64, 64, 16]);
        let mut fast = ClusterSpec::paper_testbed(5, 5);
        fast.cpu_work_factor = 1.0;
        let mut slow = fast.clone();
        slow.cpu_work_factor = 16.0;
        let ij_gain_fast = simulate_grace_hash(&pr, &fast).unwrap().total_secs
            - simulate_indexed_join(&pr, &fast, TWO_STAGE)
                .unwrap()
                .total_secs;
        let ij_gain_slow = simulate_grace_hash(&pr, &slow).unwrap().total_secs
            - simulate_indexed_join(&pr, &slow, TWO_STAGE)
                .unwrap()
                .total_secs;
        assert!(
            ij_gain_slow < ij_gain_fast,
            "IJ's advantage should shrink on slower CPUs: fast {ij_gain_fast}, slow {ij_gain_slow}"
        );
    }

    #[test]
    fn cache_starvation_degrades_monotonically() {
        // A tangled component: a = b = 16, chunks of 4096·16 = 64 KiB.
        let pr = problem([256, 256, 16], [64, 4, 16], [4, 64, 16]);
        let with_cache = |chunks: u64| {
            let mut spec = ClusterSpec::paper_testbed(5, 5);
            spec.mem_per_node = chunks * 65536;
            simulate_indexed_join(&pr, &spec, TWO_STAGE).unwrap()
        };
        let ideal = with_cache(1 << 10);
        assert_eq!(ideal.cache_misses, 16 * (16 + 16), "N_C·(a + b): each once");
        // Lexicographic order keeps one left hot while the 16 rights
        // cycle: the working set is 2·c_R + b·c_S, and one chunk less
        // makes LRU miss every right.
        let at_working_set = with_cache(2 + 16);
        assert_eq!(at_working_set.total_secs, ideal.total_secs);
        assert_eq!(at_working_set.cache_misses, ideal.cache_misses);
        assert!(with_cache(2 + 16 - 1).total_secs > ideal.total_secs);
        let mut last = f64::INFINITY;
        for chunks in [1, 2, 9, 17, 18, 64] {
            let t = with_cache(chunks).total_secs;
            assert!(t <= last, "{chunks} chunks: {t} > {last}");
            last = t;
        }
    }

    /// Both engines on `grid` split `[30, 1, 1]` (2 storage + 2 compute
    /// nodes, 16-byte records), beside the simulators on the same problem.
    fn both_substrates(grid: [u64; 3], mem_per_node: u64) -> [(RunStats, SimBreakdown); 2] {
        let part = [30, 1, 1];
        let d = Deployment::in_memory(2);
        let table = |name: &str, seed| {
            let spec = DatasetSpec::builder(name)
                .grid(grid)
                .partition(part)
                .scalar_attrs(&["v"])
                .seed(seed)
                .build();
            generate_dataset(&spec, &d).unwrap().table
        };
        let (t1, t2, attrs) = (table("t1", 1), table("t2", 2), ["x", "y", "z"]);
        let gh = GraceHashConfig {
            n_compute: 2,
            mem_per_node,
            ..Default::default()
        };
        let ij = IndexedJoinConfig {
            n_compute: 2,
            cache_capacity: mem_per_node,
            ..Default::default()
        };
        let mut spec = ClusterSpec::paper_testbed(2, 2);
        spec.mem_per_node = mem_per_node;
        let pr = problem(grid, part, part);
        [
            (
                grace_hash_join(&d, t1, t2, &attrs, &gh).unwrap().stats,
                simulate_grace_hash(&pr, &spec).unwrap(),
            ),
            (
                indexed_join(&d, t1, t2, &attrs, &ij).unwrap().stats,
                simulate_indexed_join(&pr, &spec, TWO_STAGE).unwrap(),
            ),
        ]
    }

    #[test]
    fn simulated_grace_hash_moves_and_spills_the_engines_bytes() {
        // A dividing grid, and one whose last chunk is clipped to 10 rows.
        for grid in [[120u64, 1, 1], [100, 1, 1]] {
            let total = grid[0] * 32;
            // One bucket, then three: each side's bucket is half the budget.
            for (mem_per_node, buckets) in [(1 << 20, 1), (total.div_ceil(6), 3)] {
                assert_eq!(bucket_count(total, 2, mem_per_node), buckets);
                let [(engine, sim), _] = both_substrates(grid, mem_per_node);
                let bytes = |b: f64| b.round() as u64;
                assert_eq!(bytes(sim.bytes_received), total, "{grid:?} {buckets}");
                assert_eq!(bytes(sim.bytes_received), engine.bytes_transferred);
                assert_eq!(bytes(sim.scratch_bytes.0), engine.bytes_scratch_written);
                assert_eq!(bytes(sim.scratch_bytes.1), engine.bytes_scratch_read);
            }
        }
    }

    #[test]
    fn a_clipped_chunk_is_charged_its_own_rows() {
        for grid in [[120, 1, 1], [100, 1, 1]] {
            let [_, (engine, sim)] = both_substrates(grid, 1 << 20);
            assert_eq!(engine.bytes_transferred, grid[0] * 32);
            assert_eq!(sim.bytes_received.round() as u64, engine.bytes_transferred);
            assert_eq!(sim.cache_misses, engine.cache_misses);
        }
    }

    #[test]
    fn invalid_problem_rejected() {
        let mut pr = problem([8, 8, 8], [2, 2, 2], [2, 2, 2]);
        pr.t = 0.0;
        assert!(pr.validate().is_err());
        assert!(simulate_indexed_join(&pr, &ClusterSpec::paper_testbed(1, 1), TWO_STAGE).is_err());
    }
}
