//! Row representation.
//!
//! A [`Record`] is one row of a virtual table: a boxed slice of [`Value`]s
//! positionally matching a [`Schema`]. Bulk data lives in columnar
//! sub-tables (`orv-chunk`) and stays columnar through scans and both
//! join engines (Grace Hash routes packed bytes, not rows, through `h1`);
//! a `Record` is built where a result leaves the query engine, and is the
//! unit the row operators after that edge and the federation merge pass
//! around.

use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// One row of a virtual table.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Record {
    values: Box<[Value]>,
}

impl Record {
    /// Build from values. The caller is responsible for positional agreement
    /// with the intended schema; use [`Record::conforms_to`] to verify.
    pub fn new(values: Vec<Value>) -> Self {
        Record {
            values: values.into_boxed_slice(),
        }
    }

    /// All values in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        self.values[idx]
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True if arity and every field's type match `schema`.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.arity()
            && self
                .values
                .iter()
                .zip(schema.attrs())
                .all(|(v, a)| v.data_type() == a.dtype)
    }

    /// The values at `key_indices`, used as a join/group key.
    pub fn key(&self, key_indices: &[usize]) -> Vec<Value> {
        key_indices.iter().map(|&i| self.values[i]).collect()
    }

    /// Concatenate fields of `self` with the fields of `other` whose indices
    /// are *not* listed in `skip_right` — the row-level counterpart of
    /// [`Schema::join`].
    pub fn join(&self, other: &Record, skip_right: &[usize]) -> Record {
        let mut out = Vec::with_capacity(self.arity() + other.arity() - skip_right.len());
        out.extend_from_slice(&self.values);
        out.extend(
            other
                .values
                .iter()
                .enumerate()
                .filter(|(i, _)| !skip_right.contains(i))
                .map(|(_, v)| *v),
        );
        Record::new(out)
    }

    /// Project onto the given indices, in order.
    pub fn project(&self, indices: &[usize]) -> Record {
        Record::new(indices.iter().map(|&i| self.values[i]).collect())
    }

    /// Serialized size in bytes under the packed fixed-width encoding.
    pub fn encoded_size(&self) -> usize {
        self.values.iter().map(|v| v.data_type().width()).sum()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Record {
    fn from(v: Vec<Value>) -> Self {
        Record::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn rec(vals: &[i32]) -> Record {
        Record::new(vals.iter().map(|&v| Value::I32(v)).collect())
    }

    #[test]
    fn conformance_checks_types_and_arity() {
        let s = Schema::grid(&["x", "y"], &["wp"]).unwrap();
        let good = Record::new(vec![Value::I32(1), Value::I32(2), Value::F32(0.5)]);
        let wrong_ty = Record::new(vec![Value::I32(1), Value::F32(2.0), Value::F32(0.5)]);
        let wrong_arity = rec(&[1, 2]);
        assert!(good.conforms_to(&s));
        assert!(!wrong_ty.conforms_to(&s));
        assert!(!wrong_arity.conforms_to(&s));
    }

    #[test]
    fn key_extraction() {
        let r = rec(&[10, 20, 30]);
        assert_eq!(r.key(&[0, 2]), vec![Value::I32(10), Value::I32(30)]);
        assert_eq!(r.key(&[]), Vec::<Value>::new());
    }

    #[test]
    fn join_skips_right_indices() {
        let l = rec(&[1, 2, 9]);
        let r = rec(&[1, 2, 7]);
        let j = l.join(&r, &[0, 1]);
        assert_eq!(j, rec(&[1, 2, 9, 7]));
        // Skipping nothing concatenates fully.
        assert_eq!(l.join(&r, &[]).arity(), 6);
    }

    #[test]
    fn project_reorders() {
        let r = rec(&[5, 6, 7]);
        assert_eq!(r.project(&[2, 0]), rec(&[7, 5]));
    }

    #[test]
    fn encoded_size_sums_widths() {
        let r = Record::new(vec![Value::I32(0), Value::F64(0.0)]);
        assert_eq!(r.encoded_size(), 12);
    }
}
