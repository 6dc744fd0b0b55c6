//! The page-level join index and sub-table connectivity graph.
//!
//! Sub-tables whose bounding boxes overlap on the join attributes are
//! *candidate pairs*; the set of pairs forms the sub-table connectivity
//! graph (paper Figure 3). Independent connected components of the graph
//! are the IJ scheduler's unit of placement. The index belongs to the two
//! tables and the join attributes, not to a query: [`join_index`] builds
//! and stores it once, and a range only prunes the stored edges.
//!
//! For regularly partitioned grids the paper gives closed forms for the
//! component size `C`, component count `N_C` and per-component edge count
//! `E_C` (Section 6); [`predict_regular`] implements them and the test
//! suite checks the built graph against them exactly. The simulator builds
//! the same graph from the partition shapes alone
//! ([`ConnectivityGraph::regular`]), since it has no stored chunks.

use orv_bds::{GridPartition, Region};
use orv_metadata::MetadataService;
use orv_types::{BoundingBox, Error, Result, SubTableId, TableId};
use std::collections::HashMap;
use std::sync::Arc;

/// One connected component: `a` left sub-tables × `b` right sub-tables and
/// the candidate edges among them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Component {
    /// Left-table sub-tables in this component.
    pub lefts: Vec<SubTableId>,
    /// Right-table sub-tables in this component.
    pub rights: Vec<SubTableId>,
    /// Candidate pairs `(left, right)`.
    pub edges: Vec<(SubTableId, SubTableId)>,
}

impl Component {
    /// `a`: number of left sub-tables.
    pub fn a(&self) -> usize {
        self.lefts.len()
    }

    /// `b`: number of right sub-tables.
    pub fn b(&self) -> usize {
        self.rights.len()
    }
}

/// The sub-table connectivity graph of one join view.
#[derive(Clone, Debug)]
pub struct ConnectivityGraph {
    /// Left (inner) table.
    pub left_table: TableId,
    /// Right (outer) table.
    pub right_table: TableId,
    /// Join attribute names.
    pub join_attrs: Vec<String>,
    /// Connected components, each sorted lexicographically internally;
    /// components ordered by their smallest left sub-table id.
    pub components: Vec<Component>,
}

impl ConnectivityGraph {
    /// Build the page-level join index for `left ⊕ right` on `join_attrs`
    /// from the chunks' bounding boxes.
    pub fn build(
        md: &MetadataService,
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
    ) -> Result<Self> {
        let snapshot = |table: TableId| -> Result<Vec<(SubTableId, BoundingBox)>> {
            md.with_chunks(table, |chunks| {
                chunks
                    .iter()
                    .map(|m| (m.subtable_id(), m.bbox.clone()))
                    .collect()
            })
        };
        let lefts = snapshot(left)?;
        let rights = snapshot(right)?;

        let mut edges: Vec<(SubTableId, SubTableId)> = Vec::new();
        for (lid, lbox) in &lefts {
            for (rid, rbox) in &rights {
                if lbox.overlaps_on(rbox, Some(join_attrs)) {
                    edges.push((*lid, *rid));
                }
            }
        }
        Ok(Self::from_edges(left, right, join_attrs, edges))
    }

    /// The join index on `(x, y, z)` of two regular partitionings of grid
    /// `g` — `p` on the left, `q` on the right — with chunk ids numbered as
    /// [`GridPartition`] numbers them (as the generator stores them). Each
    /// left chunk's right neighbours come from its chunk coordinates, so
    /// this is O(`n_e`) and needs no metadata.
    pub fn regular(
        left: TableId,
        right: TableId,
        g: [u64; 3],
        p: [u64; 3],
        q: [u64; 3],
    ) -> Result<Self> {
        let (lp, rp) = (GridPartition::new(g, p)?, GridPartition::new(g, q)?);
        if u32::try_from(lp.num_chunks().max(rp.num_chunks())).is_err() {
            return Err(Error::Config(
                "chunk ids of a regular grid exceed u32".into(),
            ));
        }
        let mut edges = Vec::new();
        for l in 0..lp.num_chunks() {
            let Region { lo, hi } = lp.chunk_region(l);
            let span = |d: usize| lo[d] / q[d]..=(hi[d] - 1) / q[d];
            for x in span(0) {
                for y in span(1) {
                    for z in span(2) {
                        let r = rp.chunk_index([x, y, z]);
                        edges.push((
                            SubTableId::new(left, l as u32),
                            SubTableId::new(right, r as u32),
                        ));
                    }
                }
            }
        }
        Ok(Self::from_edges(left, right, &["x", "y", "z"], edges))
    }

    /// Assemble a graph from an explicit edge list (e.g. a precomputed
    /// index fetched from the MetaData service).
    pub fn from_edges(
        left: TableId,
        right: TableId,
        join_attrs: &[&str],
        mut edges: Vec<(SubTableId, SubTableId)>,
    ) -> Self {
        edges.sort();
        edges.dedup();

        // Union-find over left ∪ right node sets.
        let mut dsu = Dsu::new();
        for &(l, r) in &edges {
            dsu.union(NodeKey::Left(l), NodeKey::Right(r));
        }
        // Group edges by component root.
        let mut by_root: HashMap<NodeKey, Component> = HashMap::new();
        for &(l, r) in &edges {
            let root = dsu.find(NodeKey::Left(l));
            let comp = by_root.entry(root).or_insert_with(|| Component {
                lefts: Vec::new(),
                rights: Vec::new(),
                edges: Vec::new(),
            });
            if !comp.lefts.contains(&l) {
                comp.lefts.push(l);
            }
            if !comp.rights.contains(&r) {
                comp.rights.push(r);
            }
            comp.edges.push((l, r));
        }
        let mut components: Vec<Component> = by_root.into_values().collect();
        for c in &mut components {
            c.lefts.sort();
            c.rights.sort();
            c.edges.sort();
        }
        components.sort_by_key(|c| c.lefts[0]);
        ConnectivityGraph {
            left_table: left,
            right_table: right,
            join_attrs: join_attrs.iter().map(|s| s.to_string()).collect(),
            components,
        }
    }

    /// All edges across components, in component order.
    pub fn edges(&self) -> impl Iterator<Item = (SubTableId, SubTableId)> + '_ {
        self.components.iter().flat_map(|c| c.edges.iter().copied())
    }

    /// Total number of edges (`n_e`).
    pub fn num_edges(&self) -> usize {
        self.components.iter().map(|c| c.edges.len()).sum()
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Summary statistics for cost-model input.
    pub fn stats(&self, total_tuples: u64, c_r: u64, c_s: u64) -> ConnectivityStats {
        let n_e = self.num_edges() as u64;
        let m_s = total_tuples.checked_div(c_s).unwrap_or(0);
        ConnectivityStats {
            n_e,
            num_components: self.num_components() as u64,
            avg_a: avg(self.components.iter().map(Component::a)),
            avg_b: avg(self.components.iter().map(Component::b)),
            avg_right_degree: if m_s == 0 {
                0.0
            } else {
                n_e as f64 / m_s as f64
            },
            edge_ratio: if total_tuples == 0 {
                0.0
            } else {
                n_e as f64 * c_r as f64 * c_s as f64 / (total_tuples as f64 * total_tuples as f64)
            },
        }
    }
}

/// The stored page-level join index of `left ⊕ right` on `join_attrs`,
/// built and persisted the first time the planner or IJ asks for it.
pub fn join_index(
    md: &MetadataService,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
) -> Result<Arc<Vec<(SubTableId, SubTableId)>>> {
    if let Some(pairs) = md.get_join_index(left, right, join_attrs) {
        return Ok(pairs);
    }
    let edges: Vec<_> = ConnectivityGraph::build(md, left, right, join_attrs)?
        .edges()
        .collect();
    md.put_join_index(left, right, join_attrs, edges.clone());
    Ok(Arc::new(edges))
}

fn avg(it: impl Iterator<Item = usize>) -> f64 {
    let (mut sum, mut n) = (0usize, 0usize);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Dataset-level statistics of a connectivity graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConnectivityStats {
    /// Total edges `n_e`.
    pub n_e: u64,
    /// Number of connected components.
    pub num_components: u64,
    /// Mean left sub-tables per component (`a`).
    pub avg_a: f64,
    /// Mean right sub-tables per component (`b`).
    pub avg_b: f64,
    /// Mean degree of a right sub-table: `n_e / m_S`.
    pub avg_right_degree: f64,
    /// The earlier works' edge-ratio `n_e · c_R · c_S / T²`.
    pub edge_ratio: f64,
}

/// Closed-form prediction of the connectivity graph shape for a regular
/// grid `g` partitioned `p` (left) and `q` (right) — paper Section 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegularPrediction {
    /// Component size `C = (max(p_d, q_d))_d` in grid points.
    pub component_size: [u64; 3],
    /// Number of components `N_C`.
    pub n_c: u64,
    /// Edges per component `E_C`.
    pub e_c: u64,
    /// Total edges `n_e = N_C · E_C`.
    pub n_e: u64,
    /// Left sub-tables per component `a`.
    pub a: u64,
    /// Right sub-tables per component `b`.
    pub b: u64,
}

/// Evaluate the paper's `C`, `N_C`, `E_C` formulas.
///
/// Assumes `p` and `q` divide `g` (as in all paper experiments).
pub fn predict_regular(g: [u64; 3], p: [u64; 3], q: [u64; 3]) -> RegularPrediction {
    let c = [0, 1, 2].map(|d| p[d].max(q[d]));
    let n_c = (g[0] * g[1] * g[2]) / (c[0] * c[1] * c[2]);
    let e_c: u64 = (0..3)
        .map(|d| p[d].max(q[d]).div_ceil(p[d].min(q[d])))
        .product();
    let a: u64 = (0..3).map(|d| c[d] / p[d]).product();
    let b: u64 = (0..3).map(|d| c[d] / q[d]).product();
    RegularPrediction {
        component_size: c,
        n_c,
        e_c,
        n_e: n_c * e_c,
        a,
        b,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum NodeKey {
    Left(SubTableId),
    Right(SubTableId),
}

/// A tiny hash-based union-find.
struct Dsu {
    parent: HashMap<NodeKey, NodeKey>,
}

impl Dsu {
    fn new() -> Self {
        Dsu {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, k: NodeKey) -> NodeKey {
        let p = *self.parent.entry(k).or_insert(k);
        if p == k {
            return k;
        }
        let root = self.find(p);
        self.parent.insert(k, root);
        root
    }

    fn union(&mut self, a: NodeKey, b: NodeKey) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(t: u32, c: u32) -> SubTableId {
        SubTableId::new(t, c)
    }

    #[test]
    fn figure3_shape_from_edges() {
        // Figure 3: a component with a=2 left, b=4 right, complete bipartite
        // 8 edges — e.g. left partitioned (2,1,1)-ish vs right (1,2,1)-ish.
        let mut edges = Vec::new();
        for l in 0..2u32 {
            for r in 0..4u32 {
                edges.push((sid(0, l), sid(1, r)));
            }
        }
        // Plus a second identical component on different sub-tables.
        for l in 2..4u32 {
            for r in 4..8u32 {
                edges.push((sid(0, l), sid(1, r)));
            }
        }
        let g = ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x", "y"], edges);
        assert_eq!(g.num_components(), 2);
        assert_eq!(g.num_edges(), 16);
        for c in &g.components {
            assert_eq!(c.a(), 2);
            assert_eq!(c.b(), 4);
            assert_eq!(c.edges.len(), 8);
        }
    }

    #[test]
    fn duplicate_edges_deduped() {
        let edges = vec![(sid(0, 0), sid(1, 0)), (sid(0, 0), sid(1, 0))];
        let g = ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x"], edges);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.num_components(), 1);
    }

    #[test]
    fn prediction_matches_paper_formulas() {
        // g = 64³, p = (16,16,16), q = (32,8,16):
        // C = (32,16,16), N_C = 64³/(32·16·16) = 32,
        // E_C = ceil(32/16)·ceil(16/8)·1 = 4, a = (32/16)(16/16)(16/16) = 2,
        // b = (32/32)(16/8)(16/16) = 2.
        let pred = predict_regular([64, 64, 64], [16, 16, 16], [32, 8, 16]);
        assert_eq!(pred.component_size, [32, 16, 16]);
        assert_eq!(pred.n_c, 32);
        assert_eq!(pred.e_c, 4);
        assert_eq!(pred.n_e, 128);
        assert_eq!(pred.a, 2);
        assert_eq!(pred.b, 2);
    }

    #[test]
    fn identical_partitions_one_to_one() {
        let pred = predict_regular([8, 8, 8], [2, 2, 2], [2, 2, 2]);
        assert_eq!(pred.e_c, 1);
        assert_eq!(pred.a, 1);
        assert_eq!(pred.b, 1);
        assert_eq!(pred.n_c, 64);
        assert_eq!(pred.n_e, 64);
    }

    #[test]
    fn stats_computation() {
        let edges = vec![
            (sid(0, 0), sid(1, 0)),
            (sid(0, 0), sid(1, 1)),
            (sid(0, 1), sid(1, 2)),
        ];
        let g = ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x"], edges);
        // T = 64, c_R = 16, c_S = 16 → m_S = 4.
        let s = g.stats(64, 16, 16);
        assert_eq!(s.n_e, 3);
        assert_eq!(s.num_components, 2);
        assert_eq!(s.avg_right_degree, 0.75);
        assert!((s.edge_ratio - 3.0 * 256.0 / 4096.0).abs() < 1e-12);
        assert_eq!(s.avg_a, 1.0);
        assert_eq!(s.avg_b, 1.5);
    }

    #[test]
    fn regular_rejects_chunk_ids_beyond_u32() {
        let (g, one) = ([1 << 17, 1 << 16, 1], [1, 1, 1]);
        let err = ConnectivityGraph::regular(TableId(0), TableId(1), g, one, g).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        let ok =
            ConnectivityGraph::regular(TableId(0), TableId(1), [8, 8, 1], [4, 2, 1], [2, 4, 1]);
        assert_eq!(
            ok.unwrap().num_edges() as u64,
            predict_regular([8, 8, 1], [4, 2, 1], [2, 4, 1]).n_e
        );
    }

    #[test]
    fn empty_graph() {
        let g = ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x"], vec![]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_components(), 0);
        let s = g.stats(0, 0, 0);
        assert_eq!(s.n_e, 0);
        assert_eq!(s.avg_right_degree, 0.0);
    }
}
