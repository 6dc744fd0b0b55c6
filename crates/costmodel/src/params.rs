//! The dataset and system parameters of Table 1.

use orv_cluster::ClusterSpec;
use orv_types::{Error, Result};

/// Dataset-side parameters (Table 1, upper half).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostParams {
    /// Number of tuples in tables `R` and `S` (the paper assumes equal
    /// cardinality and record-level join selectivity 1).
    pub t: f64,
    /// Tuples in an `R` (left/inner) sub-table (`c_R`).
    pub c_r: f64,
    /// Tuples in an `S` (right/outer) sub-table (`c_S`).
    pub c_s: f64,
    /// Number of edges in the sub-table connectivity graph (`n_e`).
    pub n_e: f64,
    /// Record size of `R`, bytes (`RS_R`).
    pub rs_r: f64,
    /// Record size of `S`, bytes (`RS_S`).
    pub rs_s: f64,
}

impl CostParams {
    /// Number of `S` sub-tables, `m_S = T / c_S`.
    pub fn m_s(&self) -> f64 {
        self.t / self.c_s
    }

    /// Number of `R` sub-tables, `m_R = T / c_R`.
    pub fn m_r(&self) -> f64 {
        self.t / self.c_r
    }

    /// The dataset factor Figure 4 sweeps: `n_e · c_S`.
    pub fn ne_cs(&self) -> f64 {
        self.n_e * self.c_s
    }

    /// The earlier works' edge ratio `n_e · c_R · c_S / T²`.
    pub fn edge_ratio(&self) -> f64 {
        self.n_e * self.c_r * self.c_s / (self.t * self.t)
    }

    /// Total bytes that must cross the network: `T · (RS_R + RS_S)`.
    pub fn total_bytes(&self) -> f64 {
        self.t * (self.rs_r + self.rs_s)
    }

    /// Validate positivity.
    pub fn validate(&self) -> Result<()> {
        let fields = [self.t, self.c_r, self.c_s, self.n_e, self.rs_r, self.rs_s];
        if fields.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(Error::Config("all cost parameters must be positive".into()));
        }
        Ok(())
    }
}

/// System-side parameters (Table 1, lower half).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemParams {
    /// Aggregate transfer bandwidth between storage and join nodes,
    /// `Net_bw(n_s, n_j)`, bytes/s.
    pub net_bw: f64,
    /// Disk read bandwidth per node (`readIO_bw`), bytes/s.
    pub read_io_bw: f64,
    /// Disk write bandwidth per node (`writeIO_bw`), bytes/s.
    pub write_io_bw: f64,
    /// Number of storage nodes (`n_s`).
    pub n_s: f64,
    /// Number of joiner nodes (`n_j`).
    pub n_j: f64,
    /// Seconds per hash-table build operation (`α_build = γ1 / F`).
    pub alpha_build: f64,
    /// Seconds per hash-table lookup (`α_lookup = γ2 / F`).
    pub alpha_lookup: f64,
}

impl SystemParams {
    /// Derive from a cluster description plus the CPU operation counts
    /// `γ1` (per build) and `γ2` (per lookup): `α = γ / (F / work_factor)`.
    pub fn from_cluster(spec: &ClusterSpec, gamma_build: f64, gamma_lookup: f64) -> Self {
        let f = spec.effective_cpu_rate();
        SystemParams {
            net_bw: spec.aggregate_net_bw(),
            read_io_bw: spec.disk_read_bw,
            write_io_bw: spec.disk_write_bw,
            n_s: if spec.shared_fs {
                1.0
            } else {
                spec.n_storage as f64
            },
            n_j: spec.n_compute as f64,
            alpha_build: gamma_build / f,
            alpha_lookup: gamma_lookup / f,
        }
    }

    /// The transfer denominator `min(Net_bw(n_s,n_j), readIO_bw · n_s)`.
    pub fn transfer_bw(&self) -> f64 {
        self.net_bw.min(self.read_io_bw * self.n_s)
    }

    /// Validate positivity.
    pub fn validate(&self) -> Result<()> {
        let fields = [
            self.net_bw,
            self.read_io_bw,
            self.write_io_bw,
            self.n_s,
            self.n_j,
            self.alpha_build,
            self.alpha_lookup,
        ];
        if fields.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(Error::Config(
                "all system parameters must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn dataset() -> CostParams {
        CostParams {
            t: 1.0e6,
            c_r: 4096.0,
            c_s: 4096.0,
            n_e: 244.0,
            rs_r: 16.0,
            rs_s: 16.0,
        }
    }

    #[test]
    fn derived_quantities() {
        let d = dataset();
        assert!((d.m_s() - 244.14).abs() < 0.01);
        assert_eq!(d.ne_cs(), 244.0 * 4096.0);
        assert_eq!(d.total_bytes(), 32.0e6);
        let er = d.edge_ratio();
        assert!((er - 244.0 * 4096.0 * 4096.0 / 1.0e12).abs() < 1e-12);
        d.validate().unwrap();
    }

    #[test]
    fn from_cluster_derives_alphas() {
        let spec = ClusterSpec::paper_testbed(5, 5);
        let s = SystemParams::from_cluster(&spec, 280.0, 230.0);
        assert_eq!(s.n_s, 5.0);
        assert_eq!(s.n_j, 5.0);
        assert!((s.alpha_build - 280.0 / 933.0e6).abs() < 1e-15);
        // Transfer bandwidth capped by the NIC side here.
        assert_eq!(s.transfer_bw(), (5.0 * 11.9e6f64).min(5.0 * 25.0e6));
        s.validate().unwrap();
    }

    #[test]
    fn work_factor_scales_alphas() {
        let mut spec = ClusterSpec::paper_testbed(5, 5);
        spec.cpu_work_factor = 2.0;
        let s = SystemParams::from_cluster(&spec, 280.0, 230.0);
        assert!((s.alpha_build - 2.0 * 280.0 / 933.0e6).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_nonpositive() {
        let mut d = dataset();
        d.n_e = 0.0;
        assert!(d.validate().is_err());
        let spec = ClusterSpec::paper_testbed(1, 1);
        let mut s = SystemParams::from_cluster(&spec, 1.0, 1.0);
        s.net_bw = f64::INFINITY;
        assert!(s.validate().is_err());
    }

    #[test]
    fn nfs_cluster_has_single_storage_side() {
        let spec = ClusterSpec::paper_testbed_nfs(4);
        let s = SystemParams::from_cluster(&spec, 1.0, 1.0);
        assert_eq!(s.n_s, 1.0);
        assert_eq!(s.transfer_bw(), 11.9e6f64.min(25.0e6));
    }
}
