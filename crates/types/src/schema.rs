//! Table schemas.
//!
//! A virtual table's schema lists its attributes in storage order. Each
//! attribute has a [`DataType`] and a [`AttrRole`]: *coordinate* attributes
//! locate a record in the simulation grid (the paper joins on these), while
//! *scalar* attributes carry physical properties (oil pressure, water
//! pressure, saturation, ...).

use crate::bbox::{BoundingBox, Interval};
use crate::error::{Error, Result};
use crate::value::DataType;
use std::fmt;

/// Whether an attribute is a grid coordinate or a measured property.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AttrRole {
    /// A spatial/grid coordinate (x, y, z, time-step, ...).
    Coordinate,
    /// A physical property at a grid point.
    Scalar,
}

/// A named, typed attribute of a table.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Attribute {
    /// Attribute name, unique within the schema.
    pub name: String,
    /// Scalar type.
    pub dtype: DataType,
    /// Coordinate or scalar role.
    pub role: AttrRole,
}

impl Attribute {
    /// A coordinate attribute (defaults to `i32`, the grid index type).
    pub fn coord(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            dtype: DataType::I32,
            role: AttrRole::Coordinate,
        }
    }

    /// A scalar attribute of the given type.
    pub fn scalar(name: impl Into<String>, dtype: DataType) -> Self {
        Attribute {
            name: name.into(),
            dtype,
            role: AttrRole::Scalar,
        }
    }
}

/// An ordered list of attributes describing one virtual table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Build a schema; attribute names must be unique and non-empty.
    pub fn new(attrs: Vec<Attribute>) -> Result<Self> {
        if attrs.is_empty() {
            return Err(Error::Schema(
                "schema must have at least one attribute".into(),
            ));
        }
        for (i, a) in attrs.iter().enumerate() {
            if a.name.is_empty() {
                return Err(Error::Schema(format!("attribute {i} has an empty name")));
            }
            if attrs[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::Schema(format!(
                    "duplicate attribute name `{}`",
                    a.name
                )));
            }
        }
        Ok(Schema { attrs })
    }

    /// The oil-reservoir convention: integer coordinates named per
    /// `coords`, followed by `f32` scalar properties named per `scalars`.
    pub fn grid(coords: &[&str], scalars: &[&str]) -> Result<Self> {
        let mut attrs = Vec::with_capacity(coords.len() + scalars.len());
        attrs.extend(coords.iter().map(|c| Attribute::coord(*c)));
        attrs.extend(scalars.iter().map(|s| Attribute::scalar(*s, DataType::F32)));
        Schema::new(attrs)
    }

    /// All attributes in storage order.
    #[inline]
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Number of attributes.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Index of the named attribute.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// The attribute types, in storage order.
    pub fn dtypes(&self) -> Vec<DataType> {
        self.attrs.iter().map(|a| a.dtype).collect()
    }

    /// Resolve `range` against this schema: `(column index, interval)`
    /// checks for the bounded attributes the schema has. Attributes the
    /// box bounds but the schema lacks are unconstrained — they never
    /// exclude a row: a join's range is pushed into both sides, and
    /// `wp IN [..]` must not empty the side that has no `wp`. Whether an
    /// attribute exists at all is checked once, when the statement is
    /// bound (`orv_query::QueryEngine::prepare`), not here.
    pub fn range_checks(&self, range: &BoundingBox) -> Vec<(usize, Interval)> {
        range
            .bounded_attrs()
            .filter_map(|(name, iv)| self.index_of(name).map(|i| (i, iv)))
            .collect()
    }

    /// Like [`Schema::index_of`] but with a descriptive error.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| Error::Schema(format!("attribute `{name}` not in schema {self}")))
    }

    /// Record size in bytes: the `RS_R` / `RS_S` of the cost models.
    pub fn record_size(&self) -> usize {
        self.attrs.iter().map(|a| a.dtype.width()).sum()
    }

    /// Indices of the coordinate attributes, in storage order.
    pub fn coordinate_indices(&self) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.role == AttrRole::Coordinate)
            .map(|(i, _)| i)
            .collect()
    }

    /// Byte offset of attribute `idx` within a packed record.
    pub fn offset_of(&self, idx: usize) -> usize {
        self.attrs[..idx].iter().map(|a| a.dtype.width()).sum()
    }

    /// Project onto the named attributes (in the given order).
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let attrs = names
            .iter()
            .map(|n| {
                self.index_of(n)
                    .map(|i| self.attrs[i].clone())
                    .ok_or_else(|| Error::Schema(format!("cannot project unknown attribute `{n}`")))
            })
            .collect::<Result<Vec<_>>>()?;
        Schema::new(attrs)
    }

    /// Schema of `self ⨝ other`: all of `self`'s attributes, then `other`'s
    /// attributes minus the join keys (which would be duplicates), with
    /// remaining name clashes disambiguated by a `r_` prefix.
    pub fn join(&self, other: &Schema, join_keys: &[&str]) -> Result<Schema> {
        let mut attrs = self.attrs.clone();
        for a in &other.attrs {
            if join_keys.contains(&a.name.as_str()) {
                continue;
            }
            let mut a = a.clone();
            if self.index_of(&a.name).is_some() {
                a.name = format!("r_{}", a.name);
            }
            attrs.push(a);
        }
        Schema::new(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            let role = match a.role {
                AttrRole::Coordinate => "#",
                AttrRole::Scalar => "",
            };
            write!(f, "{role}{}:{}", a.name, a.dtype)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t1() -> Schema {
        Schema::grid(&["x", "y", "z"], &["oilp"]).unwrap()
    }

    fn t2() -> Schema {
        Schema::grid(&["x", "y", "z"], &["wp"]).unwrap()
    }

    #[test]
    fn grid_schema_shape() {
        let s = t1();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.record_size(), 16); // 3 * i32 + 1 * f32
        assert_eq!(s.coordinate_indices(), vec![0, 1, 2]);
        assert_eq!(s.index_of("oilp"), Some(3));
        assert_eq!(s.offset_of(3), 12);
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::grid(&["x", "x"], &["p"]);
        assert!(matches!(r, Err(Error::Schema(_))));
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![Attribute::coord("")]).is_err());
    }

    #[test]
    fn projection_preserves_order_and_errors_on_unknown() {
        let s = t1();
        let p = s.project(&["oilp", "x"]).unwrap();
        assert_eq!(p.attrs()[0].name, "oilp");
        assert_eq!(p.attrs()[1].name, "x");
        assert!(s.project(&["nope"]).is_err());
    }

    #[test]
    fn join_schema_drops_keys_and_disambiguates() {
        let v = t1().join(&t2(), &["x", "y"]).unwrap();
        // x,y,z,oilp + (z → r_z, wp)
        let names: Vec<_> = v.attrs().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z", "oilp", "r_z", "wp"]);
        assert_eq!(v.record_size(), t1().record_size() + t2().record_size() - 8);
    }

    #[test]
    fn require_reports_schema_in_error() {
        let e = t1().require("bogus").unwrap_err();
        assert!(e.to_string().contains("bogus"));
        assert!(e.to_string().contains("oilp"));
    }

    #[test]
    fn display_marks_coordinates() {
        let s = Schema::grid(&["x"], &["wp"]).unwrap();
        assert_eq!(s.to_string(), "(#x:i32, wp:f32)");
    }

    #[test]
    fn paper_21_attribute_record_size() {
        // Section 2: "a total of 21 attributes", Section 6.1: 4 bytes each.
        let scalars: Vec<String> = (0..18).map(|i| format!("s{i}")).collect();
        let refs: Vec<&str> = scalars.iter().map(|s| s.as_str()).collect();
        let s = Schema::grid(&["x", "y", "z"], &refs).unwrap();
        assert_eq!(s.arity(), 21);
        assert_eq!(s.record_size(), 84);
    }
}
