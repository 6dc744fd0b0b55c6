//! The Query Planning Service: choose a QES from the cost models.
//!
//! "It is the task of the QPS to choose the appropriate QES, based on
//! dataset parameters, system parameters and the query, so as to achieve
//! best performance." The planner pulls dataset parameters (`T`, `c_R`,
//! `c_S`, `n_e`, record sizes) out of the MetaData service — building the
//! page-level join index if it is not already stored — derives system
//! parameters from the cluster description, and evaluates both Section 5
//! models.

use orv_cluster::ClusterSpec;
use orv_costmodel::{choose_algorithm, Choice, CostParams, SystemParams};
use orv_join::{join_index, JoinAlgorithm};
use orv_metadata::MetadataService;
use orv_types::{Result, TableId};

/// Default γ1 (CPU operations per hash build) of the paper's testbed, as in
/// the simulator — not of this host; override via [`Planner::with_gammas`].
pub const DEFAULT_GAMMA_BUILD: f64 = 280.0;
/// Default γ2.
pub const DEFAULT_GAMMA_LOOKUP: f64 = 230.0;

/// The planner's decision plus all the evidence.
#[derive(Clone, Copy, Debug)]
pub struct PlanExplain {
    /// The chosen algorithm.
    pub algorithm: JoinAlgorithm,
    /// Model comparison.
    pub choice: Choice,
    /// The dataset parameters used.
    pub dataset: CostParams,
    /// The system parameters used.
    pub system: SystemParams,
}

/// The Query Planning Service.
#[derive(Clone, Debug)]
pub struct Planner {
    spec: ClusterSpec,
    gamma_build: f64,
    gamma_lookup: f64,
}

impl Planner {
    /// Plan against the given cluster description.
    pub fn new(spec: ClusterSpec) -> Self {
        Planner {
            spec,
            gamma_build: DEFAULT_GAMMA_BUILD,
            gamma_lookup: DEFAULT_GAMMA_LOOKUP,
        }
    }

    /// Override the CPU operation counts (e.g. from host calibration).
    pub fn with_gammas(mut self, gamma_build: f64, gamma_lookup: f64) -> Self {
        self.gamma_build = gamma_build;
        self.gamma_lookup = gamma_lookup;
        self
    }

    /// The cluster spec planned against.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Dataset cost parameters for `left ⊕ right` on `join_attrs`, from
    /// metadata lookups alone: when no join index is stored for the pair,
    /// `n_e` is the aligned 1:1 estimate (one edge per chunk of the side
    /// with more chunks) and nothing is built or persisted.
    pub fn estimate_params(
        md: &MetadataService,
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
    ) -> Result<CostParams> {
        cost_params(md, left, right, join_attrs, IndexAbsent::Estimate)
    }

    /// [`Planner::plan_join`] over [`Planner::estimate_params`]: the same
    /// model comparison without ever building the join index. Binding
    /// costs a statement with this, so admission stays metadata-only.
    pub fn estimate_join(
        &self,
        md: &MetadataService,
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
    ) -> Result<PlanExplain> {
        self.plan(md, left, right, join_attrs, IndexAbsent::Estimate)
    }

    /// Full planning: choose IJ or GH for the join view, building and
    /// persisting the page-level join index if it is not stored yet.
    pub fn plan_join(
        &self,
        md: &MetadataService,
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
    ) -> Result<PlanExplain> {
        self.plan(md, left, right, join_attrs, IndexAbsent::Build)
    }

    fn plan(
        &self,
        md: &MetadataService,
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
        absent: IndexAbsent,
    ) -> Result<PlanExplain> {
        let dataset = cost_params(md, left, right, join_attrs, absent)?;
        let system = SystemParams::from_cluster(&self.spec, self.gamma_build, self.gamma_lookup);
        let choice = choose_algorithm(&dataset, &system)?;
        Ok(PlanExplain {
            algorithm: if choice.indexed_join {
                JoinAlgorithm::IndexedJoin
            } else {
                JoinAlgorithm::GraceHash
            },
            choice,
            dataset,
            system,
        })
    }
}

/// Where `n_e` comes from when the MetaData Service holds no join index
/// for the pair.
#[derive(Clone, Copy)]
enum IndexAbsent {
    /// Build and persist it ([`join_index`]).
    Build,
    /// `max(m_R, m_S)`: exact for aligned partitions, and free.
    Estimate,
}

/// The one "`CostParams` from the catalog".
fn cost_params(
    md: &MetadataService,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    absent: IndexAbsent,
) -> Result<CostParams> {
    let t = md.total_records(left)? as f64;
    let chunks_l = md.all_chunks(left)?.len().max(1) as f64;
    let chunks_r = md.all_chunks(right)?.len().max(1) as f64;
    let n_e = match absent {
        IndexAbsent::Build => join_index(md, left, right, join_attrs)?.len() as f64,
        IndexAbsent::Estimate => md
            .get_join_index(left, right, join_attrs)
            .map_or(chunks_l.max(chunks_r), |pairs| pairs.len() as f64),
    };
    Ok(CostParams {
        t,
        c_r: t / chunks_l,
        c_s: md.total_records(right)? as f64 / chunks_r,
        n_e,
        rs_r: md.schema(left)?.record_size() as f64,
        rs_s: md.schema(right)?.record_size() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_bds::{generate_dataset, DatasetSpec, Deployment};

    fn deploy(p1: [u64; 3], p2: [u64; 3]) -> (Deployment, TableId, TableId) {
        let d = Deployment::in_memory(2);
        let t1 = generate_dataset(
            &DatasetSpec::builder("t1")
                .grid([16, 16, 4])
                .partition(p1)
                .scalar_attrs(&["oilp"])
                .seed(1)
                .build(),
            &d,
        )
        .unwrap();
        let t2 = generate_dataset(
            &DatasetSpec::builder("t2")
                .grid([16, 16, 4])
                .partition(p2)
                .scalar_attrs(&["wp"])
                .seed(2)
                .build(),
            &d,
        )
        .unwrap();
        (d, t1.table, t2.table)
    }

    #[test]
    fn extracts_dataset_params_from_metadata() {
        let (d, t1, t2) = deploy([4, 4, 4], [4, 4, 4]);
        let planner = Planner::new(ClusterSpec::paper_testbed(2, 2));
        let p = planner
            .plan_join(d.metadata(), t1, t2, &["x", "y", "z"])
            .unwrap()
            .dataset;
        assert_eq!(p.t, 1024.0);
        assert_eq!(p.c_r, 64.0);
        assert_eq!(p.c_s, 64.0);
        assert_eq!(p.n_e, 16.0); // identical partitions → 1:1
        assert_eq!(p.rs_r, 16.0);
        // Index was persisted.
        assert!(d
            .metadata()
            .get_join_index(t1, t2, &["x", "y", "z"])
            .is_some());
    }

    #[test]
    fn estimate_params_never_builds_the_index() {
        let (d, t1, t2) = deploy([4, 4, 4], [4, 4, 4]);
        let planner = Planner::new(ClusterSpec::paper_testbed(2, 2));
        let md = d.metadata();
        let est = Planner::estimate_params(md, t1, t2, &["x", "y", "z"]).unwrap();
        assert_eq!(est.n_e, 16.0, "aligned estimate: one edge per chunk");
        assert!(
            md.get_join_index(t1, t2, &["x", "y", "z"]).is_none(),
            "estimation must not persist an index"
        );
        // Once the index exists, the estimate uses the exact edge count.
        planner.plan_join(md, t1, t2, &["x", "y", "z"]).unwrap();
        let exact = planner.estimate_join(md, t1, t2, &["x", "y", "z"]).unwrap();
        assert_eq!(exact.dataset.n_e, 16.0);
    }

    #[test]
    fn aligned_partitions_choose_ij() {
        let (d, t1, t2) = deploy([4, 4, 4], [4, 4, 4]);
        let planner = Planner::new(ClusterSpec::paper_testbed(2, 2));
        let plan = planner
            .plan_join(d.metadata(), t1, t2, &["x", "y", "z"])
            .unwrap();
        assert_eq!(plan.algorithm, JoinAlgorithm::IndexedJoin);
        assert!(plan.choice.ij_total < plan.choice.gh_total);
    }

    #[test]
    fn pathological_partitions_choose_gh() {
        // Orthogonal slabs: every left chunk overlaps every right chunk in
        // its x-row → n_e/m_S large.
        let (d, t1, t2) = deploy([16, 1, 1], [1, 16, 1]);
        // Make the CPU slow so the lookup blow-up dominates.
        let mut spec = ClusterSpec::paper_testbed(2, 2);
        spec.cpu_ops_per_sec = 1.0e6;
        let planner = Planner::new(spec);
        let plan = planner
            .plan_join(d.metadata(), t1, t2, &["x", "y", "z"])
            .unwrap();
        assert_eq!(plan.algorithm, JoinAlgorithm::GraceHash);
    }

    #[test]
    fn gammas_override_shifts_decision() {
        let (d, t1, t2) = deploy([16, 16, 1], [4, 4, 4]);
        let md = d.metadata();
        let base = Planner::new(ClusterSpec::paper_testbed(2, 2));
        let p = base
            .plan_join(md, t1, t2, &["x", "y", "z"])
            .unwrap()
            .dataset;
        assert!(p.n_e > p.m_s(), "mismatched partitions should add edges");
        // With free CPU, IJ always wins; with absurdly expensive lookups,
        // GH wins.
        let cheap = base.clone().with_gammas(1e-6, 1e-6);
        let costly = base.with_gammas(1e9, 1e9);
        assert_eq!(
            cheap
                .plan_join(md, t1, t2, &["x", "y", "z"])
                .unwrap()
                .algorithm,
            JoinAlgorithm::IndexedJoin
        );
        assert_eq!(
            costly
                .plan_join(md, t1, t2, &["x", "y", "z"])
                .unwrap()
                .algorithm,
            JoinAlgorithm::GraceHash
        );
    }
}
