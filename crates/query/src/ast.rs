//! Abstract syntax of the query language.
//!
//! The supported subset mirrors the paper's examples:
//!
//! ```sql
//! SELECT * FROM t1 WHERE x IN [0, 256] AND y IN [0, 512]
//! CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y)
//! SELECT * FROM v1
//! SELECT AVG(wp), MAX(oilp) FROM v1 GROUP BY z
//! ```

use orv_types::{BoundingBox, Interval};

/// One parsed statement.
#[derive(Clone, PartialEq, Debug)]
pub enum Statement {
    /// A query against a table or view.
    Select(Query),
    /// A view definition.
    CreateView(ViewDef),
}

/// A `SELECT` query, optionally with an equi-join in its FROM clause.
#[derive(Clone, PartialEq, Debug)]
pub struct Query {
    /// Select list.
    pub select: Vec<SelectItem>,
    /// Table or view name.
    pub from: String,
    /// Optional `JOIN <table> ON (attrs)`.
    pub join: Option<JoinClause>,
    /// Conjunctive range predicates.
    pub predicates: Vec<RangePred>,
    /// GROUP BY attribute names (empty = no grouping).
    pub group_by: Vec<String>,
    /// ORDER BY output columns (applied after projection/aggregation;
    /// `(column, descending)` pairs).
    pub order_by: Vec<(String, bool)>,
    /// LIMIT on output rows.
    pub limit: Option<usize>,
}

/// The join part of a FROM clause.
#[derive(Clone, PartialEq, Debug)]
pub struct JoinClause {
    /// Right (outer) table name.
    pub table: String,
    /// Join attribute names.
    pub on: Vec<String>,
}

impl Query {
    /// True if this query is a plain pass-through join
    /// (`SELECT * FROM a JOIN b ON (...)` with no grouping) — the shape
    /// range predicates can be pushed *into*.
    pub fn is_plain_join(&self) -> bool {
        self.join.is_some()
            && self.select == vec![SelectItem::All]
            && self.group_by.is_empty()
            && self.order_by.is_empty()
            && self.limit.is_none()
    }
}

/// An item of the select list.
#[derive(Clone, PartialEq, Debug)]
pub enum SelectItem {
    /// `*`
    All,
    /// A plain column reference.
    Column(String),
    /// An aggregate: `AVG(wp)`, `COUNT(*)`, ...
    Aggregate(AggFunc, Option<String>),
}

/// Aggregation functions for the aggregation DDS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggFunc {
    /// Row count.
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Mean of a numeric column.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggFunc {
    /// Spelling for display and result column names.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// A closed range constraint on one attribute. The parser normalizes
/// every comparison to one: `x >= 3` is `[3, +∞]`, `x = 3` is `[3, 3]`,
/// and a strict `x > 3` is `[3.next_up(), +∞]` — the bound moved to the
/// neighbouring `f64`, so no strictness flag travels with the range.
#[derive(Clone, PartialEq, Debug)]
pub struct RangePred {
    /// Attribute name.
    pub attr: String,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl RangePred {
    /// `attr IN [lo, hi]`.
    pub fn between(attr: impl Into<String>, lo: f64, hi: f64) -> Self {
        RangePred {
            attr: attr.into(),
            lo,
            hi,
        }
    }
}

/// Fold conjunctive predicates into a bounding box (intersecting repeats).
pub fn predicates_to_bbox(preds: &[RangePred]) -> Option<BoundingBox> {
    if preds.is_empty() {
        return None;
    }
    let mut bbox = BoundingBox::unbounded();
    for p in preds {
        let merged = bbox.get(&p.attr).intersect(Interval::new(p.lo, p.hi));
        bbox.set(p.attr.clone(), merged);
    }
    Some(bbox)
}

/// A Derived Data Source definition: any supported query, named.
///
/// DDSs layer: the view's query may itself read from another view
/// ("Derived Data Sources provide more complex views and are layered on
/// BDSs or other DDSs"), including aggregation views — the paper's "view
/// definition may involve aggregation operations such as AVG or SUM".
#[derive(Clone, PartialEq, Debug)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// The defining query.
    pub query: Query,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_fold_into_bbox() {
        let preds = vec![
            RangePred::between("x", 0.0, 10.0),
            RangePred::between("y", -5.0, 5.0),
            RangePred::between("x", 4.0, 20.0), // repeated attr intersects
        ];
        let bb = predicates_to_bbox(&preds).unwrap();
        assert_eq!(bb.get("x"), Interval::new(4.0, 10.0));
        assert_eq!(bb.get("y"), Interval::new(-5.0, 5.0));
        assert!(predicates_to_bbox(&[]).is_none());
    }

    #[test]
    fn agg_names() {
        assert_eq!(AggFunc::Avg.name(), "AVG");
        assert_eq!(AggFunc::Count.name(), "COUNT");
    }
}
