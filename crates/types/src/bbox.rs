//! Bounding boxes over attributes.
//!
//! Every chunk (and the sub-table extracted from it) carries lower/upper
//! bounds on its attributes — e.g. the paper's example
//! `[(0, 0, 0.2, 0.3), (64, 64, 0.8, 0.5)]` for `(x, y, oilp, wp)`.
//! Attributes not present in a box are implicitly unbounded
//! (`[-∞, +∞]`), which is exactly how sub-tables missing an attribute are
//! treated when the page-level join index tests overlap.
//!
//! Bounds are *closed* intervals over `f64` (grid coordinates embed
//! exactly).

use std::collections::BTreeMap;
use std::fmt;

/// A closed interval `[lo, hi]`. `lo > hi` denotes the empty interval.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Interval {
    /// `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval { lo, hi }
    }

    /// The unbounded interval `[-∞, +∞]`.
    pub fn unbounded() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// A single point `[v, v]`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// True if `lo > hi`.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// True if `v ∈ [lo, hi]`.
    #[inline]
    pub fn contains(self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// True if the closed intervals share at least one point.
    #[inline]
    pub fn overlaps(self, other: Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.lo <= other.hi && other.lo <= self.hi
    }

    /// Smallest interval containing both.
    #[inline]
    pub fn union(self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Largest interval contained in both (possibly empty).
    #[inline]
    pub fn intersect(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Length `hi - lo` (0 for points, negative never — empty gives 0).
    pub fn length(self) -> f64 {
        (self.hi - self.lo).max(0.0)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Bounds over a set of named attributes; missing attributes are unbounded.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BoundingBox {
    dims: BTreeMap<String, Interval>,
}

impl BoundingBox {
    /// The box that is unbounded in every attribute.
    pub fn unbounded() -> Self {
        BoundingBox::default()
    }

    /// Build from `(attribute, interval)` pairs.
    pub fn from_dims<I, S>(dims: I) -> Self
    where
        I: IntoIterator<Item = (S, Interval)>,
        S: Into<String>,
    {
        BoundingBox {
            dims: dims.into_iter().map(|(n, iv)| (n.into(), iv)).collect(),
        }
    }

    /// Bound (or re-bound) one attribute.
    pub fn set(&mut self, attr: impl Into<String>, iv: Interval) {
        self.dims.insert(attr.into(), iv);
    }

    /// The interval for `attr`; unbounded if not explicitly set.
    pub fn get(&self, attr: &str) -> Interval {
        self.dims
            .get(attr)
            .copied()
            .unwrap_or_else(Interval::unbounded)
    }

    /// Attributes with explicit bounds.
    pub fn bounded_attrs(&self) -> impl Iterator<Item = (&str, Interval)> {
        self.dims.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of explicitly bounded attributes.
    pub fn num_bounded(&self) -> usize {
        self.dims.len()
    }

    /// True if any explicit interval is empty.
    pub fn is_empty(&self) -> bool {
        self.dims.values().any(|iv| iv.is_empty())
    }

    /// True if the boxes overlap on *every* attribute bounded in either
    /// (missing attributes are unbounded, hence always overlap). This is the
    /// candidate-pair test of the page-level join index, restricted to
    /// `attrs` if given, or over all attributes if `attrs` is `None`.
    pub fn overlaps_on(&self, other: &BoundingBox, attrs: Option<&[&str]>) -> bool {
        match attrs {
            Some(attrs) => attrs.iter().all(|a| self.get(a).overlaps(other.get(a))),
            None => {
                // Only attributes bounded in at least one box can fail.
                self.dims
                    .keys()
                    .chain(other.dims.keys())
                    .all(|a| self.get(a).overlaps(other.get(a)))
            }
        }
    }

    /// Candidate-pair test over all attributes.
    pub fn overlaps(&self, other: &BoundingBox) -> bool {
        self.overlaps_on(other, None)
    }

    /// The paper's pair bound: the union of the two boxes, an upper bound on
    /// the extent of the join result of the two sub-tables. Attributes
    /// missing from either side become unbounded (dropped).
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        let mut dims = BTreeMap::new();
        for (k, iv) in &self.dims {
            if let Some(o) = other.dims.get(k) {
                dims.insert(k.clone(), iv.union(*o));
            }
        }
        BoundingBox { dims }
    }

    /// Intersection of bounds. Attributes bounded in either side are bounded
    /// in the result; used for range-constraint pushdown.
    pub fn intersect(&self, other: &BoundingBox) -> BoundingBox {
        let mut dims = self.dims.clone();
        for (k, iv) in &other.dims {
            let merged = match dims.get(k) {
                Some(mine) => mine.intersect(*iv),
                None => *iv,
            };
            dims.insert(k.clone(), merged);
        }
        BoundingBox { dims }
    }

    /// True if every explicit bound of `self` contains the corresponding
    /// value; `point` maps attribute name → value.
    pub fn contains_point(&self, point: &BTreeMap<String, f64>) -> bool {
        self.dims.iter().all(|(k, iv)| match point.get(k) {
            Some(v) => iv.contains(*v),
            None => true,
        })
    }

    /// True if `other` lies entirely within `self` on `self`'s bounded
    /// attributes.
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        self.dims.iter().all(|(k, iv)| {
            let o = other.get(k);
            !o.is_empty() && iv.lo <= o.lo && o.hi <= iv.hi
        })
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, iv)) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {iv}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bb(dims: &[(&str, f64, f64)]) -> BoundingBox {
        BoundingBox::from_dims(dims.iter().map(|&(n, lo, hi)| (n, Interval::new(lo, hi))))
    }

    #[test]
    fn interval_basics() {
        let a = Interval::new(0.0, 4.0);
        let b = Interval::new(4.0, 9.0);
        let c = Interval::new(5.0, 9.0);
        assert!(a.overlaps(b)); // closed: share {4}
        assert!(!a.overlaps(c));
        assert_eq!(a.union(c), Interval::new(0.0, 9.0));
        assert_eq!(a.intersect(b), Interval::point(4.0));
        assert!(a.intersect(c).is_empty());
        assert!(Interval::new(1.0, 0.0).is_empty());
        assert_eq!(Interval::new(1.0, 0.0).length(), 0.0);
    }

    #[test]
    fn empty_interval_neutral_for_union() {
        let e = Interval::new(2.0, 1.0);
        let a = Interval::new(0.0, 1.0);
        assert_eq!(e.union(a), a);
        assert_eq!(a.union(e), a);
        assert!(!e.overlaps(a));
    }

    #[test]
    fn paper_example_boxes() {
        // Lower-left chunk of T1: [(0,0,0.2,0.3), (64,64,0.8,0.5)] on
        // (x, y, oilp, wp).
        let t1 = bb(&[
            ("x", 0.0, 64.0),
            ("y", 0.0, 64.0),
            ("oilp", 0.2, 0.8),
            ("wp", 0.3, 0.5),
        ]);
        // A T2 chunk bounded only on x,y — wp unbounded in x/y terms.
        let t2 = bb(&[("x", 32.0, 96.0), ("y", 0.0, 64.0)]);
        assert!(t1.overlaps_on(&t2, Some(&["x", "y"])));
        // A far chunk does not overlap.
        let t3 = bb(&[("x", 65.0, 128.0), ("y", 0.0, 64.0)]);
        assert!(!t1.overlaps_on(&t3, Some(&["x", "y"])));
        // ... but overlaps if we only consider y.
        assert!(t1.overlaps_on(&t3, Some(&["y"])));
    }

    #[test]
    fn missing_attribute_is_unbounded() {
        let a = bb(&[("x", 0.0, 1.0)]);
        let b = bb(&[("wp", 0.0, 0.1)]);
        // Overlap: x unbounded in b, wp unbounded in a.
        assert!(a.overlaps(&b));
        assert_eq!(a.get("zzz"), Interval::unbounded());
    }

    #[test]
    fn union_keeps_only_common_attrs_and_bounds_result() {
        let a = bb(&[("x", 0.0, 2.0), ("wp", 0.1, 0.2)]);
        let b = bb(&[("x", 4.0, 6.0)]);
        let u = a.union(&b);
        assert_eq!(u.get("x"), Interval::new(0.0, 6.0));
        // wp bounded only in a → unbounded in the union (upper bound).
        assert_eq!(u.get("wp"), Interval::unbounded());
        assert_eq!(u.num_bounded(), 1);
    }

    #[test]
    fn intersect_tightens() {
        let a = bb(&[("x", 0.0, 10.0)]);
        let q = bb(&[("x", 4.0, 20.0), ("y", 0.0, 5.0)]);
        let i = a.intersect(&q);
        assert_eq!(i.get("x"), Interval::new(4.0, 10.0));
        assert_eq!(i.get("y"), Interval::new(0.0, 5.0));
    }

    #[test]
    fn contains_point_and_box() {
        let a = bb(&[("x", 0.0, 10.0), ("y", 0.0, 5.0)]);
        let mut p = BTreeMap::new();
        p.insert("x".to_string(), 3.0);
        p.insert("y".to_string(), 5.0);
        assert!(a.contains_point(&p));
        p.insert("y".to_string(), 5.1);
        assert!(!a.contains_point(&p));
        assert!(a.contains_box(&bb(&[("x", 1.0, 2.0), ("y", 0.0, 1.0)])));
        assert!(!a.contains_box(&bb(&[("x", 1.0, 11.0)])));
        // `other` unbounded on y is NOT contained by a's y-bound.
        assert!(a.contains_box(&bb(&[("x", 1.0, 2.0), ("y", 1.0, 2.0)])));
        assert!(!a.contains_box(&bb(&[("x", 1.0, 2.0)])));
    }

    #[test]
    fn empty_box_detection() {
        let mut a = bb(&[("x", 0.0, 1.0)]);
        assert!(!a.is_empty());
        a.set("x", Interval::new(2.0, 1.0));
        assert!(a.is_empty());
    }
}
