//! A from-scratch R-tree (Guttman 1984) over n-dimensional rectangles.
//!
//! The MetaData service indexes chunk bounding boxes with this structure so
//! "the range part of the query \[can\] retrieve ids of all matching
//! sub-tables ... efficiently using index structures such as R-Trees".
//!
//! Implementation notes:
//! * fixed dimensionality per tree, checked on insert;
//! * quadratic split (Guttman's medium-cost heuristic);
//! * `M = 8` maximum entries per node, `m = 3` minimum on split;
//! * closed rectangles; overlap shares at least a face point.

use orv_types::Interval;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries in each half of a split.
const MIN_ENTRIES: usize = 3;

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

    /// True if `self` fully contains `other`.
    pub fn contains(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((alo, ahi), (blo, bhi))| alo <= blo && bhi <= ahi)
    }

    /// Hyper-volume (degenerate boxes have volume 0).
    pub fn volume(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0.0))
            .product()
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

    /// Volume increase needed to also cover `other`.
    fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).volume() - self.volume()
    }
}

/// Replacement halves returned by a node split.
type SplitHalves<T> = Option<(Rect, Box<Node<T>>, Rect, Box<Node<T>>)>;

enum Node<T> {
    Leaf(Vec<(Rect, T)>),
    Inner(Vec<(Rect, Box<Node<T>>)>),
}

/// An R-tree mapping rectangles to payloads `T`.
pub struct RTree<T> {
    dim: usize,
    root: Node<T>,
    len: usize,
}

impl<T: Clone> RTree<T> {
    /// An empty tree over `dim`-dimensional rectangles.
    pub fn new(dim: usize) -> Self {
        RTree {
            dim,
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
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

    /// Insert `rect → value`. Panics if the dimension differs from the
    /// tree's.
    pub fn insert(&mut self, rect: Rect, value: T) {
        assert_eq!(rect.dim(), self.dim, "rect dimension mismatch");
        self.len += 1;
        if let Some((r1, n1, r2, n2)) = insert_rec(&mut self.root, rect, value) {
            // Root split: grow the tree by one level.
            let old = std::mem::replace(&mut self.root, Node::Inner(Vec::new()));
            drop(old); // the split halves fully replace the old root
            self.root = Node::Inner(vec![(r1, n1), (r2, n2)]);
        }
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

/// Insert into `node`; on overflow, split and return the two replacement
/// halves `(rect1, node1, rect2, node2)`.
fn insert_rec<T>(node: &mut Node<T>, rect: Rect, value: T) -> SplitHalves<T> {
    match node {
        Node::Leaf(entries) => {
            entries.push((rect, value));
            if entries.len() > MAX_ENTRIES {
                let (g1, g2) = quadratic_split(std::mem::take(entries));
                let r1 = group_rect(&g1);
                let r2 = group_rect(&g2);
                Some((r1, Box::new(Node::Leaf(g1)), r2, Box::new(Node::Leaf(g2))))
            } else {
                None
            }
        }
        Node::Inner(entries) => {
            // ChooseLeaf: minimal enlargement, ties by smaller volume.
            #[allow(
                clippy::expect_used,
                reason = "inner nodes hold >= 1 entry by construction: splits emit two children, merges collapse empty inners"
            )]
            let best = (0..entries.len())
                .min_by(|&a, &b| {
                    let ea = entries[a].0.enlargement(&rect);
                    let eb = entries[b].0.enlargement(&rect);
                    ea.total_cmp(&eb)
                        .then_with(|| entries[a].0.volume().total_cmp(&entries[b].0.volume()))
                })
                .expect("inner node has children");
            entries[best].0 = entries[best].0.union(&rect);
            if let Some((r1, n1, r2, n2)) = insert_rec(&mut entries[best].1, rect, value) {
                entries[best] = (r1, n1);
                entries.push((r2, n2));
                if entries.len() > MAX_ENTRIES {
                    let (g1, g2) = quadratic_split(std::mem::take(entries));
                    let r1 = group_rect_nodes(&g1);
                    let r2 = group_rect_nodes(&g2);
                    return Some((r1, Box::new(Node::Inner(g1)), r2, Box::new(Node::Inner(g2))));
                }
            }
            None
        }
    }
}

fn group_rect<T>(es: &[(Rect, T)]) -> Rect {
    es.iter()
        .skip(1)
        .fold(es[0].0.clone(), |acc, (r, _)| acc.union(r))
}

fn group_rect_nodes<T>(es: &[(Rect, Box<Node<T>>)]) -> Rect {
    es.iter()
        .skip(1)
        .fold(es[0].0.clone(), |acc, (r, _)| acc.union(r))
}

/// Guttman's quadratic split over any entry type carrying a Rect first.
type Groups<E> = (Vec<(Rect, E)>, Vec<(Rect, E)>);

fn quadratic_split<E>(mut entries: Vec<(Rect, E)>) -> Groups<E> {
    // PickSeeds: the pair wasting the most volume if grouped.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in i + 1..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).volume()
                - entries[i].0.volume()
                - entries[j].0.volume();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Remove higher index first to keep the lower valid.
    let e2 = entries.swap_remove(s2.max(s1));
    let e1 = entries.swap_remove(s2.min(s1));
    let mut r1 = e1.0.clone();
    let mut r2 = e2.0.clone();
    let mut g1 = vec![e1];
    let mut g2 = vec![e2];

    while let Some(entry) = entries.pop() {
        let remaining = entries.len() + 1;
        // Honor the minimum fill requirement.
        if g1.len() + remaining <= MIN_ENTRIES {
            r1 = r1.union(&entry.0);
            g1.push(entry);
            continue;
        }
        if g2.len() + remaining <= MIN_ENTRIES {
            r2 = r2.union(&entry.0);
            g2.push(entry);
            continue;
        }
        let d1 = r1.enlargement(&entry.0);
        let d2 = r2.enlargement(&entry.0);
        if d1 < d2 || (d1 == d2 && g1.len() <= g2.len()) {
            r1 = r1.union(&entry.0);
            g1.push(entry);
        } else {
            r2 = r2.union(&entry.0);
            g2.push(entry);
        }
    }
    (g1, g2)
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
        assert!(!a.contains(&b));
        assert_eq!(a.union(&b), Rect::new(vec![0.0, 0.0], vec![3.0, 4.0]));
        assert_eq!(a.volume(), 4.0);
        assert_eq!(Rect::point(vec![1.0]).volume(), 0.0);
        // Touching rects overlap (closed).
        let c = Rect::new(vec![2.0, 0.0], vec![3.0, 1.0]);
        assert!(a.overlaps(&c));
    }

    #[test]
    fn empty_tree_queries_empty() {
        let t: RTree<u32> = RTree::new(2);
        assert!(t.is_empty());
        assert!(t
            .query(&Rect::new(vec![0.0, 0.0], vec![9.0, 9.0]))
            .is_empty());
    }

    #[test]
    fn grid_insert_and_query() {
        let mut t = RTree::new(2);
        for x in 0..10 {
            for y in 0..10 {
                t.insert(cell(x as f64 * 2.0, y as f64 * 2.0), (x, y));
            }
        }
        assert_eq!(t.len(), 100);
        assert!(t.height() > 1, "tree must have split");
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
        let mut t = RTree::new(1);
        for i in 0..50 {
            t.insert(Rect::new(vec![i as f64], vec![i as f64 + 0.5]), i);
        }
        let mut seen = Vec::new();
        t.for_each(|_, &v| seen.push(v));
        seen.sort();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn duplicate_rects_all_returned() {
        let mut t = RTree::new(2);
        for i in 0..20 {
            t.insert(cell(0.0, 0.0), i);
        }
        let hits = t.query(&cell(0.5, 0.5));
        assert_eq!(hits.len(), 20);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let mut t: RTree<u8> = RTree::new(2);
        t.insert(Rect::point(vec![0.0]), 0);
    }
}
