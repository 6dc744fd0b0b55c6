//! The discrete-event cluster simulator.
//!
//! [`SimCluster`] instantiates one [`Resource`] per physical device named by
//! the [`ClusterSpec`] and exposes chunk-grained operations
//! ([`SimCluster::read_chunk`], [`transfer`](SimCluster::transfer),
//! [`scratch_write`](SimCluster::scratch_write), ...). Join-algorithm
//! simulators (in `orv-join::sim_exec`) drive these operations from
//! per-node logical clocks; [`NodeClocks`] keeps the interleaving honest by
//! always advancing the node that is furthest behind, so FIFO resource
//! queues see requests in (approximately) global time order.
//!
//! Because each operation is chunk-grained, *pipelining emerges*: a stream
//! of chunk fetches through disk → storage NIC → compute NIC converges to
//! the bottleneck stage's bandwidth, which is exactly the
//! `min(Net_bw, readIO_bw · n_s)` denominator of the paper's transfer-cost
//! term.

use crate::resource::Resource;
use crate::spec::ClusterSpec;
use orv_types::Result;

/// Simulated cluster state: every device is a FIFO bandwidth server.
pub struct SimCluster {
    spec: ClusterSpec,
    /// One per storage node (or a single shared server under NFS).
    storage_disks: Vec<Resource>,
    /// Storage-side NICs (one per storage node; one total under NFS).
    storage_nics: Vec<Resource>,
    /// Compute-side NICs.
    compute_nics: Vec<Resource>,
    /// Scratch disks on compute nodes. Under NFS these alias the shared
    /// server disk (handled in the op methods).
    scratch_disks: Vec<Resource>,
    /// Per-compute-node CPUs (rate already divided by the work factor).
    cpus: Vec<Resource>,
    /// Optional switch backplane.
    fabric: Option<Resource>,
    /// Bytes written to and read back from scratch.
    scratch_bytes: (f64, f64),
}

impl SimCluster {
    /// Build the resource set for `spec`.
    pub fn new(spec: ClusterSpec) -> Result<Self> {
        spec.validate()?;
        let storage_count = if spec.shared_fs { 1 } else { spec.n_storage };
        // The shared NFS server pays a full RPC + random seek per request
        // (its clients interleave); dedicated storage disks stream
        // contiguous chunks and amortize seeks.
        let disk_overhead = if spec.shared_fs {
            spec.nfs_rpc_s
        } else {
            spec.disk_seek_s
        };
        let storage_disks =
            vec![Resource::with_overhead(spec.disk_read_bw, disk_overhead); storage_count];
        let storage_nics =
            vec![Resource::with_overhead(spec.nic_bw, spec.net_overhead_s); storage_count];
        let compute_nics =
            vec![Resource::with_overhead(spec.nic_bw, spec.net_overhead_s); spec.n_compute];
        let scratch_disks = if spec.shared_fs {
            Vec::new() // all scratch I/O goes to the shared server disk
        } else {
            // One scratch disk per compute node; reads and writes share it.
            // Bucket appends are buffered sequential writes — no per-request
            // seek is charged (unlike the synchronous NFS RPC path).
            vec![Resource::new(spec.disk_write_bw.min(spec.scratch_read_bw)); spec.n_compute]
        };
        let cpus = vec![Resource::new(spec.effective_cpu_rate()); spec.n_compute];
        let fabric = spec.fabric_bw.map(Resource::new);
        Ok(SimCluster {
            spec,
            storage_disks,
            storage_nics,
            compute_nics,
            scratch_disks,
            cpus,
            fabric,
            scratch_bytes: (0.0, 0.0),
        })
    }

    /// The spec this cluster was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    fn storage_index(&self, node: usize) -> usize {
        if self.spec.shared_fs {
            0
        } else {
            node % self.storage_disks.len()
        }
    }

    /// Read `bytes` of chunk data from `storage_node`'s disk, starting no
    /// earlier than `t`. Returns completion time.
    pub fn read_chunk(&mut self, storage_node: usize, bytes: f64, t: f64) -> f64 {
        let i = self.storage_index(storage_node);
        self.storage_disks[i].request(t, bytes)
    }

    /// Move `bytes` from `storage_node` to `compute_node` over the network.
    /// Switched Ethernet forwards cut-through, so the message occupies the
    /// storage NIC, the fabric and the compute NIC *concurrently*; the
    /// completion time is the latest stage's, not their sum. Streams of
    /// chunks therefore run at the bottleneck stage's bandwidth.
    pub fn transfer(
        &mut self,
        storage_node: usize,
        compute_node: usize,
        bytes: f64,
        t: f64,
    ) -> f64 {
        let si = self.storage_index(storage_node);
        let mut done = self.storage_nics[si].request(t, bytes);
        if let Some(fabric) = &mut self.fabric {
            done = done.max(fabric.request(t, bytes));
        }
        let ci = compute_node % self.compute_nics.len();
        done.max(self.compute_nics[ci].request(t, bytes))
    }

    /// Read a chunk from storage and ship it to a compute node. The BDS
    /// streams the chunk as it reads, so the disk and the network stages
    /// overlap (cut-through): completion is the latest stage's completion,
    /// and a stream of fetches runs at the bottleneck stage's bandwidth —
    /// the `min(Net_bw, readIO_bw·n_s)` of the cost models.
    pub fn fetch(&mut self, storage_node: usize, compute_node: usize, bytes: f64, t: f64) -> f64 {
        let disk_done = self.read_chunk(storage_node, bytes, t);
        let net_done = self.transfer(storage_node, compute_node, bytes, t);
        disk_done.max(net_done)
    }

    /// Write `bytes` of Grace-Hash bucket data to `compute_node`'s scratch
    /// disk (or the shared server under NFS, crossing the network again).
    pub fn scratch_write(&mut self, compute_node: usize, bytes: f64, t: f64) -> f64 {
        self.scratch_bytes.0 += bytes;
        if self.spec.shared_fs {
            // Bucket data crosses the network (cut-through) and lands on
            // the server disk, paying the per-RPC overhead there.
            let net_done = self.net_hop(compute_node, t, bytes);
            self.storage_disks[0].request(net_done, bytes)
        } else {
            let si = compute_node % self.scratch_disks.len();
            self.scratch_disks[si].request(t, bytes)
        }
    }

    /// Read bucket data back from scratch.
    pub fn scratch_read(&mut self, compute_node: usize, bytes: f64, t: f64) -> f64 {
        self.scratch_bytes.1 += bytes;
        if self.spec.shared_fs {
            let after_disk = self.storage_disks[0].request(t, bytes);
            self.net_hop(compute_node, after_disk, bytes)
        } else {
            let si = compute_node % self.scratch_disks.len();
            self.scratch_disks[si].request(t, bytes)
        }
    }

    /// Cut-through hop between a compute node and the storage side.
    fn net_hop(&mut self, compute_node: usize, t: f64, bytes: f64) -> f64 {
        let ci = compute_node % self.compute_nics.len();
        let mut done = self.compute_nics[ci].request(t, bytes);
        if let Some(f) = &mut self.fabric {
            done = done.max(f.request(t, bytes));
        }
        done.max(self.storage_nics[0].request(t, bytes))
    }

    /// Spend `ops` cost-model operations on `compute_node`'s CPU.
    pub fn cpu(&mut self, compute_node: usize, ops: f64, t: f64) -> f64 {
        let ci = compute_node % self.cpus.len();
        self.cpus[ci].request(t, ops)
    }

    /// Total bytes moved over compute NICs (diagnostics).
    pub fn bytes_received(&self) -> f64 {
        self.compute_nics.iter().map(Resource::served).sum()
    }

    /// Total bytes written to and read back from scratch (diagnostics).
    pub fn scratch_bytes(&self) -> (f64, f64) {
        self.scratch_bytes
    }

    /// Total CPU busy time across compute nodes (diagnostics).
    pub fn cpu_busy(&self) -> f64 {
        self.cpus.iter().map(Resource::busy_time).sum()
    }
}

/// Per-node logical clocks with earliest-first scheduling.
///
/// Join simulators keep one clock per compute node and repeatedly ask for
/// the node furthest behind among those with work left
/// ([`NodeClocks::earliest_with_work`]), execute that node's next task
/// against the [`SimCluster`], and [`set`](NodeClocks::set) its advanced
/// clock. The makespan is the maximum clock at the end.
#[derive(Clone, Debug)]
pub struct NodeClocks {
    clocks: Vec<f64>,
}

impl NodeClocks {
    /// `n` clocks at time zero.
    pub fn new(n: usize) -> Self {
        NodeClocks {
            clocks: vec![0.0; n],
        }
    }

    /// The node with the smallest clock among those `has_work` accepts
    /// (ties to the lowest index); `None` once no node has work.
    pub fn earliest_with_work(&self, has_work: impl Fn(usize) -> bool) -> Option<usize> {
        (0..self.clocks.len())
            .filter(|&i| has_work(i))
            .min_by(|&a, &b| self.clocks[a].total_cmp(&self.clocks[b]))
    }

    /// Current clock of `node`.
    pub fn get(&self, node: usize) -> f64 {
        self.clocks[node]
    }

    /// Set `node`'s clock (must not move backwards).
    pub fn set(&mut self, node: usize, t: f64) {
        debug_assert!(t >= self.clocks[node], "clock moved backwards");
        self.clocks[node] = t;
    }

    /// Largest clock — the makespan once all work is issued.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// True if no clocks.
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ns: usize, nj: usize) -> ClusterSpec {
        let mut s = ClusterSpec::paper_testbed(ns, nj);
        // Round numbers for easy arithmetic.
        s.disk_read_bw = 100.0;
        s.disk_write_bw = 50.0;
        s.scratch_read_bw = 50.0;
        s.nic_bw = 100.0;
        s.cpu_ops_per_sec = 1000.0;
        s.disk_seek_s = 0.0;
        s.net_overhead_s = 0.0;
        s
    }

    #[test]
    fn single_fetch_is_fully_cut_through() {
        let mut c = SimCluster::new(spec(1, 1)).unwrap();
        // 100 bytes: disk (1s) and both NIC stages (1s each) overlap.
        let done = c.fetch(0, 0, 100.0, 0.0);
        assert!((done - 1.0).abs() < 1e-9, "done = {done}");
        // A second fetch queues behind the first on every stage.
        let done = c.fetch(0, 0, 100.0, 0.0);
        assert!((done - 2.0).abs() < 1e-9, "done = {done}");
    }

    #[test]
    fn chunk_stream_pipelines_to_bottleneck() {
        let mut s = spec(1, 1);
        s.nic_bw = 50.0; // network is the bottleneck
        let mut c = SimCluster::new(s).unwrap();
        let mut t = 0.0;
        for _ in 0..100 {
            t = c.fetch(0, 0, 100.0, 0.0);
        }
        // 10_000 bytes at bottleneck 50 B/s = 200s (+ pipeline fill ≈ 3s).
        assert!((200.0..206.0).contains(&t), "t = {t}");
    }

    #[test]
    fn parallel_storage_nodes_scale_read_bandwidth() {
        let mut one = SimCluster::new(spec(1, 4)).unwrap();
        let mut four = SimCluster::new(spec(4, 4)).unwrap();
        let mut t1: f64 = 0.0;
        let mut t4: f64 = 0.0;
        for i in 0..64 {
            t1 = t1.max(one.fetch(0, i % 4, 100.0, 0.0));
            t4 = t4.max(four.fetch(i % 4, i % 4, 100.0, 0.0));
        }
        assert!(
            t4 < t1 / 2.0,
            "4 disks should be much faster: t1={t1} t4={t4}"
        );
    }

    #[test]
    fn nfs_scratch_crosses_network_and_contends() {
        let mut s = spec(1, 4);
        s.shared_fs = true;
        let mut c = SimCluster::new(s).unwrap();
        // All four compute nodes write buckets concurrently; the single
        // server disk serializes them.
        let mut clocks = NodeClocks::new(4);
        for round in 0..10 {
            for n in 0..4 {
                let t = clocks.get(n);
                let done = c.scratch_write(n, 50.0, t);
                clocks.set(n, done);
                let _ = round;
            }
        }
        // 40 writes × 50 bytes = 2000 bytes through a 100 B/s disk ≥ 20s.
        assert!(clocks.makespan() >= 20.0);
    }

    #[test]
    fn cpu_work_factor_slows_compute() {
        let mut fast = SimCluster::new(spec(1, 1)).unwrap();
        let mut slow_spec = spec(1, 1);
        slow_spec.cpu_work_factor = 2.0;
        let mut slow = SimCluster::new(slow_spec).unwrap();
        assert_eq!(fast.cpu(0, 1000.0, 0.0), 1.0);
        assert_eq!(slow.cpu(0, 1000.0, 0.0), 2.0);
    }

    #[test]
    fn node_clocks_earliest_first() {
        let mut clocks = NodeClocks::new(3);
        clocks.set(0, 5.0);
        clocks.set(1, 2.0);
        assert_eq!(clocks.earliest_with_work(|_| true), Some(2)); // node 2 still at 0
        assert_eq!(clocks.earliest_with_work(|n| n != 2), Some(1));
        clocks.set(2, 9.0);
        assert_eq!(clocks.earliest_with_work(|_| true), Some(1));
        assert_eq!(clocks.earliest_with_work(|_| false), None);
        assert_eq!(clocks.makespan(), 9.0);
        assert_eq!(clocks.len(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "backwards")]
    fn clocks_cannot_rewind() {
        let mut clocks = NodeClocks::new(1);
        clocks.set(0, 5.0);
        clocks.set(0, 4.0);
    }

    #[test]
    fn fabric_cap_limits_aggregate() {
        let mut s = spec(4, 4);
        s.fabric_bw = Some(100.0);
        let mut c = SimCluster::new(s).unwrap();
        let mut clocks = NodeClocks::new(4);
        // Each pair (i→i) independently has 200 B/s of NIC path, but the
        // fabric serializes everything at 100 B/s.
        for _ in 0..10 {
            for n in 0..4 {
                let t = clocks.get(n);
                let done = c.transfer(n, n, 100.0, t);
                clocks.set(n, done);
            }
        }
        // 4000 bytes through 100 B/s fabric ≥ 40s.
        assert!(clocks.makespan() >= 40.0, "makespan {}", clocks.makespan());
    }
}
