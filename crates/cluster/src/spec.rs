//! Cluster descriptions consumed by both substrates.

use orv_types::{Error, Result};

/// Hardware description of a coupled storage/compute cluster.
///
/// Bandwidths are bytes/second; CPU rate is "operations"/second where one
/// operation is the unit the cost-model constants `γ1`/`γ2` count (see
/// `orv-costmodel`). `cpu_work_factor` replays the paper's Figure 8
/// methodology: a factor of `k` repeats hash build/probe work `k` times,
/// simulating a CPU `k×` slower.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of storage nodes (`n_s`).
    pub n_storage: usize,
    /// Number of compute/joiner nodes (`n_j`).
    pub n_compute: usize,
    /// Storage-disk read bandwidth per node (`readIO_bw`), bytes/s.
    pub disk_read_bw: f64,
    /// Scratch-disk write bandwidth per compute node (`writeIO_bw`), bytes/s.
    pub disk_write_bw: f64,
    /// Scratch-disk read bandwidth per compute node, bytes/s.
    pub scratch_read_bw: f64,
    /// Per-node NIC bandwidth, bytes/s (Switched Fast Ethernet ≈ 11.9 MB/s).
    pub nic_bw: f64,
    /// Optional switch-backplane cap on aggregate storage↔compute traffic,
    /// bytes/s. `None` = non-blocking switch.
    pub fabric_bw: Option<f64>,
    /// Memory available for sub-table caching per compute node, bytes.
    pub mem_per_node: u64,
    /// CPU rate in cost-model operations per second (the paper's `F`).
    pub cpu_ops_per_sec: f64,
    /// Work multiplier for hash build/probe (Figure 8's "halved computing
    /// power" trick): effective CPU rate is `cpu_ops_per_sec / factor`.
    pub cpu_work_factor: f64,
    /// If true, a single shared file server replaces per-node disks: all
    /// chunk reads *and* all scratch I/O go through one disk and one NIC
    /// (the paper's Figure 9 NFS scenario; compute nodes have no local
    /// disks).
    pub shared_fs: bool,
    /// Per-request overhead on storage disks, seconds. Chunks are laid out
    /// contiguously and read mostly sequentially, so this is a small
    /// amortized seek cost, not a full random-access seek.
    pub disk_seek_s: f64,
    /// Per-message network overhead, seconds.
    pub net_overhead_s: f64,
    /// Per-request overhead at the shared NFS server (RPC round trip plus
    /// the random seek caused by interleaved client streams), seconds.
    /// Only used when `shared_fs` is set.
    pub nfs_rpc_s: f64,
}

impl ClusterSpec {
    /// The paper's testbed: PIII 933 MHz nodes, 512 MB RAM, IDE disks
    /// (~25 MB/s streaming read, ~20 MB/s write), Switched Fast Ethernet
    /// (100 Mb/s ≈ 11.9 MB/s per node), up to 10 nodes.
    ///
    /// `cpu_ops_per_sec` is calibrated so that one hash-table insert
    /// (`γ1` ops) costs ≈ 0.30 µs and one lookup ≈ 0.25 µs on the PIII —
    /// the α values we also measure on the host via
    /// `orv-costmodel::calibrate`.
    pub fn paper_testbed(n_storage: usize, n_compute: usize) -> Self {
        ClusterSpec {
            n_storage,
            n_compute,
            disk_read_bw: 25.0e6,
            disk_write_bw: 20.0e6,
            scratch_read_bw: 25.0e6,
            nic_bw: 11.9e6,
            fabric_bw: None,
            mem_per_node: 512 << 20,
            cpu_ops_per_sec: 933.0e6,
            cpu_work_factor: 1.0,
            shared_fs: false,
            disk_seek_s: 0.0005,
            net_overhead_s: 0.0001,
            nfs_rpc_s: 0.030,
        }
    }

    /// Same testbed but with the single NFS file server of Figure 9.
    pub fn paper_testbed_nfs(n_compute: usize) -> Self {
        let mut s = Self::paper_testbed(1, n_compute);
        s.shared_fs = true;
        s
    }

    /// Validate counts and rates.
    pub fn validate(&self) -> Result<()> {
        if self.n_storage == 0 || self.n_compute == 0 {
            return Err(Error::Config(
                "cluster needs at least one storage and one compute node".into(),
            ));
        }
        let rates = [
            self.disk_read_bw,
            self.disk_write_bw,
            self.scratch_read_bw,
            self.nic_bw,
            self.cpu_ops_per_sec,
            self.cpu_work_factor,
        ];
        if rates.iter().any(|r| !(r.is_finite() && *r > 0.0)) {
            return Err(Error::Config(
                "all bandwidths/rates must be positive".into(),
            ));
        }
        if let Some(f) = self.fabric_bw {
            if !(f.is_finite() && f > 0.0) {
                return Err(Error::Config("fabric bandwidth must be positive".into()));
            }
        }
        if !(self.disk_seek_s >= 0.0 && self.net_overhead_s >= 0.0 && self.nfs_rpc_s >= 0.0) {
            return Err(Error::Config(
                "per-request overheads must be non-negative".into(),
            ));
        }
        Ok(())
    }

    /// Effective CPU rate after the work factor (`F / k`).
    pub fn effective_cpu_rate(&self) -> f64 {
        self.cpu_ops_per_sec / self.cpu_work_factor
    }

    /// `Net_bw(n_s, n_j)`: aggregate network bandwidth between the storage
    /// and compute sides.
    pub fn aggregate_net_bw(&self) -> f64 {
        let storage_side = if self.shared_fs {
            self.nic_bw
        } else {
            self.nic_bw * self.n_storage as f64
        };
        let compute_side = self.nic_bw * self.n_compute as f64;
        let mut net = storage_side.min(compute_side);
        if let Some(f) = self.fabric_bw {
            net = net.min(f);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_validates() {
        let s = ClusterSpec::paper_testbed(5, 5);
        s.validate().unwrap();
        assert_eq!(s.n_storage, 5);
        assert!(!s.shared_fs);
        assert!(ClusterSpec::paper_testbed_nfs(4).shared_fs);
    }

    #[test]
    fn invalid_specs_rejected() {
        let mut s = ClusterSpec::paper_testbed(0, 5);
        assert!(s.validate().is_err());
        s = ClusterSpec::paper_testbed(5, 5);
        s.nic_bw = 0.0;
        assert!(s.validate().is_err());
        s = ClusterSpec::paper_testbed(5, 5);
        s.fabric_bw = Some(-1.0);
        assert!(s.validate().is_err());
    }

    #[test]
    fn aggregate_bandwidth_minimum_rule() {
        let mut s = ClusterSpec::paper_testbed(5, 3);
        // Network limited by the 3 compute NICs: 3 * 11.9 MB/s < 5 disks.
        assert_eq!(s.aggregate_net_bw(), 3.0 * 11.9e6);
        // Fabric cap dominates when small.
        s.fabric_bw = Some(10.0e6);
        assert_eq!(s.aggregate_net_bw(), 10.0e6);
    }

    #[test]
    fn nfs_funnels_through_one_server() {
        let s = ClusterSpec::paper_testbed_nfs(8);
        // One NIC and one disk on the storage side.
        assert_eq!(s.aggregate_net_bw(), 11.9e6);
    }

    #[test]
    fn work_factor_scales_effective_rate() {
        let mut s = ClusterSpec::paper_testbed(1, 1);
        s.cpu_work_factor = 4.0;
        assert_eq!(s.effective_cpu_rate(), 933.0e6 / 4.0);
    }
}
