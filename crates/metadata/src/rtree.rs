//! A from-scratch R-tree over n-dimensional rectangles, packed in one pass
//! by Sort-Tile-Recursive (Leutenegger, Lopez & Edgington, ICDE 1997).
//!
//! The MetaData service indexes chunk bounding boxes with this structure so
//! "the range part of the query \[can\] retrieve ids of all matching
//! sub-tables ... efficiently using index structures such as R-Trees".
//!
//! Implementation notes:
//! * fixed dimensionality per tree, checked on build;
//! * STR packing: the entries are sorted by rectangle centre on the first
//!   dimension, cut into slabs, each slab sorted and cut on the next
//!   dimension, and so on; the result is cut into nodes of `M = 8`
//!   entries, and every upper level is packed the same way from the
//!   bounding rectangles below it;
//! * every node but the last of each level is full, so the height is
//!   ⌈log₈ n⌉ (1 for at most 8 entries);
//! * built once, never updated: a table's tree is rebuilt when its chunks
//!   change, which happens when a dataset is generated or loaded;
//! * closed rectangles; overlap shares at least a face point.

use orv_types::Interval;

/// Entries per node.
const MAX_ENTRIES: usize = 8;

/// An axis-aligned rectangle in `dim` dimensions.
#[derive(Clone, PartialEq, Debug)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// Build from bounds; `lo.len()` is the dimensionality.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "rect bounds must agree in dimension");
        Rect { lo, hi }
    }

    /// Build from per-dimension intervals.
    pub fn from_intervals(ivs: &[Interval]) -> Self {
        Rect {
            lo: ivs.iter().map(|iv| iv.lo).collect(),
            hi: ivs.iter().map(|iv| iv.hi).collect(),
        }
    }

    /// A point rectangle.
    pub fn point(p: Vec<f64>) -> Self {
        Rect {
            lo: p.clone(),
            hi: p,
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Closed-rectangle overlap test.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
    }

    /// Smallest rectangle covering both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }
}

enum Node<T> {
    Leaf(Vec<(Rect, T)>),
    Inner(Vec<(Rect, Node<T>)>),
}

/// An R-tree mapping rectangles to payloads `T`.
pub struct RTree<T> {
    dim: usize,
    root: Node<T>,
    len: usize,
}

impl<T: Clone> RTree<T> {
    /// Pack `entries` into a tree over `dim`-dimensional rectangles.
    /// Panics if a rectangle's dimension differs from `dim`.
    pub fn build(dim: usize, entries: Vec<(Rect, T)>) -> Self {
        for (rect, _) in &entries {
            assert_eq!(rect.dim(), dim, "rect dimension mismatch");
        }
        let len = entries.len();
        let mut level: Vec<(Rect, Node<T>)> = pack(entries, dim)
            .into_iter()
            .map(|group| (bounds(&group), Node::Leaf(group)))
            .collect();
        while level.len() > 1 {
            level = pack(level, dim)
                .into_iter()
                .map(|group| (bounds(&group), Node::Inner(group)))
                .collect();
        }
        let root = level.pop().map_or(Node::Leaf(Vec::new()), |(_, node)| node);
        RTree { dim, root, len }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// All values whose rectangles overlap `query`.
    pub fn query(&self, query: &Rect) -> Vec<T> {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let mut out = Vec::new();
        search(&self.root, query, &mut out);
        out
    }

    /// Visit every `(rect, value)` pair.
    pub fn for_each(&self, mut f: impl FnMut(&Rect, &T)) {
        fn walk<T>(node: &Node<T>, f: &mut impl FnMut(&Rect, &T)) {
            match node {
                Node::Leaf(es) => {
                    for (r, v) in es {
                        f(r, v);
                    }
                }
                Node::Inner(es) => {
                    for (_, c) in es {
                        walk(c, f);
                    }
                }
            }
        }
        walk(&self.root, &mut f);
    }

    /// Height of the tree (1 for a single leaf root).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Inner(es) = node {
            h += 1;
            node = &es[0].1;
        }
        h
    }
}

fn search<T: Clone>(node: &Node<T>, query: &Rect, out: &mut Vec<T>) {
    match node {
        Node::Leaf(es) => {
            for (r, v) in es {
                if r.overlaps(query) {
                    out.push(v.clone());
                }
            }
        }
        Node::Inner(es) => {
            for (r, child) in es {
                if r.overlaps(query) {
                    search(child, query, out);
                }
            }
        }
    }
}

/// Cut one level's entries into nodes of [`MAX_ENTRIES`], tiled by STR.
fn pack<E>(mut entries: Vec<(Rect, E)>, dim: usize) -> Vec<Vec<(Rect, E)>> {
    tile(&mut entries, 0, dim);
    let mut nodes = Vec::with_capacity(entries.len().div_ceil(MAX_ENTRIES));
    let mut rest = entries.into_iter();
    loop {
        let node: Vec<_> = rest.by_ref().take(MAX_ENTRIES).collect();
        if node.is_empty() {
            return nodes;
        }
        nodes.push(node);
    }
}

/// Order `entries` so that consecutive runs of [`MAX_ENTRIES`] are STR's
/// nodes: sort on the centre in `axis`, cut into ⌈P^(1/k)⌉ slabs (P nodes,
/// k dimensions left) of whole nodes, and tile each slab on the next axis.
/// Only the last slab can hold a partial node, so the level has ⌈n/M⌉
/// nodes.
fn tile<E>(entries: &mut [(Rect, E)], axis: usize, dim: usize) {
    if axis == dim || entries.len() <= MAX_ENTRIES {
        return;
    }
    // `lo + hi` orders like the centre, without the halving. A NaN sum
    // takes the sign and payload of whichever operand the compiled code
    // reads first, so it is made one NaN, which `total_cmp` sorts last.
    let centre = |r: &Rect| {
        let c = r.lo[axis] + r.hi[axis];
        if c.is_nan() {
            f64::NAN
        } else {
            c
        }
    };
    entries.sort_by(|a, b| centre(&a.0).total_cmp(&centre(&b.0)));
    if axis + 1 == dim {
        return;
    }
    let nodes = entries.len().div_ceil(MAX_ENTRIES);
    let left = (dim - axis) as u32;
    let mut slabs = 1usize;
    while slabs.saturating_pow(left) < nodes {
        slabs += 1;
    }
    let per_slab = nodes.div_ceil(slabs) * MAX_ENTRIES;
    for slab in entries.chunks_mut(per_slab) {
        tile(slab, axis + 1, dim);
    }
}

/// The bounding rectangle of a node's (non-empty) entries.
fn bounds<E>(entries: &[(Rect, E)]) -> Rect {
    entries[1..]
        .iter()
        .fold(entries[0].0.clone(), |acc, (r, _)| acc.union(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(x: f64, y: f64) -> Rect {
        Rect::new(vec![x, y], vec![x + 1.0, y + 1.0])
    }

    #[test]
    fn rect_algebra() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let b = Rect::new(vec![1.0, 1.0], vec![3.0, 4.0]);
        assert!(a.overlaps(&b));
        assert_eq!(a.union(&b), Rect::new(vec![0.0, 0.0], vec![3.0, 4.0]));
        assert!(Rect::point(vec![1.0]).overlaps(&Rect::new(vec![0.0], vec![1.0])));
        // Touching rects overlap (closed).
        let c = Rect::new(vec![2.0, 0.0], vec![3.0, 1.0]);
        assert!(a.overlaps(&c));
    }

    /// Ids of `rects` overlapping `query`, by scanning them all.
    fn brute_force(rects: &[Rect], query: &Rect) -> Vec<usize> {
        (0..rects.len())
            .filter(|&i| rects[i].overlaps(query))
            .collect()
    }

    fn build(rects: &[Rect]) -> RTree<usize> {
        let dim = rects.first().map_or(2, Rect::dim);
        RTree::build(dim, rects.iter().cloned().zip(0..).collect())
    }

    fn sorted_query(tree: &RTree<usize>, query: &Rect) -> Vec<usize> {
        let mut hits = tree.query(query);
        hits.sort_unstable();
        hits
    }

    #[test]
    fn empty_tree_queries_empty() {
        let t: RTree<u32> = RTree::build(2, Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t
            .query(&Rect::new(vec![0.0, 0.0], vec![9.0, 9.0]))
            .is_empty());
    }

    #[test]
    fn grid_insert_and_query() {
        let mut entries = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                entries.push((cell(x as f64 * 2.0, y as f64 * 2.0), (x, y)));
            }
        }
        let t = RTree::build(2, entries);
        assert_eq!(t.len(), 100);
        // 100 entries: 13 leaves, 2 inner nodes, one root.
        assert_eq!(t.height(), 3);
        // Query covering exactly cells (0..=1, 0..=1) origins 0,2.
        let q = Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]);
        let mut hits = t.query(&q);
        hits.sort();
        assert_eq!(hits, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // Query off the grid.
        let far = Rect::new(vec![100.0, 100.0], vec![101.0, 101.0]);
        assert!(t.query(&far).is_empty());
    }

    #[test]
    fn for_each_visits_everything() {
        let entries = (0..50)
            .map(|i| (Rect::new(vec![i as f64], vec![i as f64 + 0.5]), i))
            .collect();
        let t = RTree::build(1, entries);
        let mut seen = Vec::new();
        t.for_each(|_, &v| seen.push(v));
        seen.sort();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_rects_all_returned() {
        let t = RTree::build(2, (0..20).map(|i| (cell(0.0, 0.0), i)).collect());
        let hits = t.query(&cell(0.5, 0.5));
        assert_eq!(hits.len(), 20);
    }

    #[test]
    fn node_boundary_sizes_match_brute_force() {
        // One leaf, one full leaf, two leaves, one full inner level, and
        // one entry past it — in one, two and three dimensions.
        for (n, height) in [(0, 1), (1, 1), (8, 1), (9, 2), (64, 2), (65, 3)] {
            for dim in 1..=3 {
                let rects: Vec<Rect> = (0..n)
                    .map(|i| {
                        let lo: Vec<f64> = (0..dim).map(|k| ((i * (k + 3)) % 11) as f64).collect();
                        let hi = lo.iter().map(|v| v + 1.5).collect();
                        Rect::new(lo, hi)
                    })
                    .collect();
                let t = RTree::build(dim, rects.iter().cloned().zip(0..).collect());
                assert_eq!((t.len(), t.height()), (n, height), "n={n} dim={dim}");
                for c in 0..12 {
                    let q = Rect::new(vec![c as f64; dim], vec![c as f64 + 0.5; dim]);
                    assert_eq!(
                        sorted_query(&t, &q),
                        brute_force(&rects, &q),
                        "n={n} dim={dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_duplicate_boxes_match_brute_force() {
        for n in [1, 8, 9, 64, 65, 300] {
            let rects = vec![cell(3.0, 4.0); n];
            let t = build(&rects);
            for q in [cell(3.5, 4.5), cell(4.0, 5.0), cell(9.0, 9.0)] {
                assert_eq!(sorted_query(&t, &q), brute_force(&rects, &q), "n={n}");
            }
        }
    }

    #[test]
    fn non_finite_bounds_build_and_finite_queries_match() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let odd = [
            Rect::new(vec![-inf, 0.0], vec![inf, 1.0]),
            Rect::new(vec![nan, 2.0], vec![5.0, 3.0]),
            Rect::new(vec![nan, nan], vec![nan, nan]),
            Rect::new(vec![1.0, -inf], vec![2.0, -inf]),
            Rect::new(vec![-inf, -inf], vec![inf, inf]),
            Rect::new(vec![4.0, 4.0], vec![nan, 6.0]),
        ];
        let rects: Vec<Rect> = (0..70)
            .map(|i| match i % 3 {
                0 => odd[(i / 3) % odd.len()].clone(),
                _ => cell((i % 9) as f64, (i / 9) as f64),
            })
            .collect();
        let t = build(&rects);
        assert_eq!(t.len(), 70);
        for x in -1..10 {
            for y in -1..10 {
                let q = Rect::new(
                    vec![x as f64, y as f64],
                    vec![x as f64 + 0.5, y as f64 + 2.0],
                );
                assert_eq!(sorted_query(&t, &q), brute_force(&rects, &q), "({x}, {y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _: RTree<u8> = RTree::build(2, vec![(Rect::point(vec![0.0]), 0)]);
    }
}
