//! Row representation.
//!
//! A [`Record`] is one row of a virtual table: a view of `arity`
//! [`Value`]s, positionally matching a [`Schema`], in a shared, immutable,
//! row-major block of values. Bulk data lives in columnar sub-tables
//! (`orv-chunk`) and stays columnar through scans and both join engines
//! (Grace Hash routes packed bytes, not rows, through `h1`); a `Record` is
//! built where a result leaves the query engine, and is the unit the row
//! operators after that edge and the federation merge pass around.
//!
//! The row edge ([`ColumnBatch::append_records_to`]) fills one block per
//! run of rows and hands out views of it, so a result costs one
//! allocation per block, not one per row. A block holds as many rows as
//! fit in 16 KiB of values, and at least one: 1 024 rows of one column,
//! 256 of 4, 204 of 5, one row of more than 1 024 columns. A block that
//! size comes from the allocator's bins rather than the top of a heap the
//! kernel must zero-fill again, and is filled in the L1 cache. A block is
//! never written after it is filled: cloning a row is a reference-count
//! bump, and a row kept past a `LIMIT` or a filter keeps its one block
//! alive. [`Record::new`] is a block of one row.
//!
//! [`ColumnBatch::append_records_to`]: crate::ColumnBatch::append_records_to
//! [`Schema`]: crate::Schema

use crate::value::Value;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The bytes of values the row edge puts in one shared block.
const BLOCK_BYTES: usize = 16 << 10;

/// The rows of `arity` values each in one block of the row edge: as many
/// as [`BLOCK_BYTES`] holds, and at least one.
pub(crate) fn block_rows(arity: usize) -> usize {
    (BLOCK_BYTES / (std::mem::size_of::<Value>() * arity.max(1))).max(1)
}

/// One row of a virtual table. Equality and hashing are the values'.
#[derive(Clone)]
pub struct Record {
    block: Arc<[Value]>,
    /// The row's first value in `block`.
    start: u32,
    arity: u32,
}

impl Record {
    /// Build from values. The caller is responsible for positional agreement
    /// with the intended schema.
    pub fn new(values: Vec<Value>) -> Self {
        Self::one(values.into())
    }

    /// A block of one row.
    fn one(block: Arc<[Value]>) -> Self {
        Record {
            arity: block.len() as u32,
            start: 0,
            block,
        }
    }

    /// Views of the `rows` rows of `arity` values each that `block` holds,
    /// in order, appended to `out`.
    pub(crate) fn views_into(block: Arc<[Value]>, arity: usize, out: &mut Vec<Record>) {
        let rows = block.len().checked_div(arity).unwrap_or(0);
        out.extend((0..rows).map(|r| Record {
            block: Arc::clone(&block),
            start: (r * arity) as u32,
            arity: arity as u32,
        }));
    }

    /// All values in schema order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        let start = self.start as usize;
        &self.block[start..start + self.arity as usize]
    }

    /// Value at position `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Value {
        self.values()[idx]
    }

    /// Number of fields.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity as usize
    }

    /// The values at `key_indices`, used as a join/group key.
    pub fn key(&self, key_indices: &[usize]) -> Vec<Value> {
        let values = self.values();
        key_indices.iter().map(|&i| values[i]).collect()
    }

    /// Concatenate fields of `self` with the fields of `other` whose indices
    /// are *not* listed in `skip_right` — the row-level counterpart of
    /// [`Schema::join`](crate::Schema::join).
    pub fn join(&self, other: &Record, skip_right: &[usize]) -> Record {
        let mut out = Vec::with_capacity(self.arity() + other.arity() - skip_right.len());
        out.extend_from_slice(self.values());
        out.extend(
            other
                .values()
                .iter()
                .enumerate()
                .filter(|(i, _)| !skip_right.contains(i))
                .map(|(_, v)| *v),
        );
        Record::new(out)
    }

    /// Project onto the given indices, in order.
    pub fn project(&self, indices: &[usize]) -> Record {
        let values = self.values();
        indices.iter().map(|&i| values[i]).collect()
    }

    /// Serialized size in bytes under the packed fixed-width encoding.
    pub fn encoded_size(&self) -> usize {
        self.values().iter().map(|v| v.data_type().width()).sum()
    }
}

/// A block of one row, allocated once when the iterator knows its length.
impl FromIterator<Value> for Record {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Self::one(values.into_iter().collect())
    }
}

impl PartialEq for Record {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Record {}

impl Hash for Record {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Record")
            .field("values", &self.values())
            .finish()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values().iter().enumerate() {
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
    use crate::batch::{ColumnBatch, ColumnData};
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn rec(vals: &[i32]) -> Record {
        Record::new(vals.iter().map(|&v| Value::I32(v)).collect())
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

    fn hash_of(h: &impl Hash) -> u64 {
        let mut s = DefaultHasher::new();
        h.hash(&mut s);
        s.finish()
    }

    /// NaNs with payloads, both zeros and every type, in one row.
    fn awkward() -> Vec<Value> {
        vec![
            Value::I32(-3),
            Value::I64(1 << 40),
            Value::F32(-0.0),
            Value::F64(-0.0),
            Value::F64(f64::from_bits(0x7FF8_0000_0000_0001)),
            Value::F32(f32::from_bits(0xFFC0_0001)),
            Value::F64(2.5),
        ]
    }

    #[test]
    fn debug_and_display_text_is_pinned() {
        let r = Record::new(awkward());
        assert_eq!(
            format!("{r:?}"),
            "Record { values: [I32(-3), I64(1099511627776), F32(-0.0), F64(-0.0), \
             F64(NaN), F32(NaN), F64(2.5)] }"
        );
        assert_eq!(format!("{r}"), "[-3, 1099511627776, -0, -0, NaN, NaN, 2.5]");
        let empty = Record::new(Vec::new());
        assert_eq!(format!("{empty:?}"), "Record { values: [] }");
        assert_eq!(format!("{empty}"), "[]");
        assert_eq!(
            format!("{:#?}", rec(&[7])),
            "Record {\n    values: [\n        I32(\n            7,\n        ),\n    ],\n}"
        );
    }

    #[test]
    fn batch_rows_and_new_rows_agree_on_eq_and_hash() {
        let values = awkward();
        let columns = values.iter().map(|&v| {
            let mut c = ColumnData::new(v.data_type());
            c.push(v).unwrap();
            c.push(v).unwrap();
            c
        });
        let batch = ColumnBatch::from_columns(columns.collect()).unwrap();
        let built = batch.to_records().unwrap();
        let fresh = Record::new(values.clone());
        for row in &built {
            assert_eq!(row, &fresh);
            assert_eq!(hash_of(row), hash_of(&fresh));
            assert_eq!(hash_of(row), hash_of(&values), "a row hashes as its values");
        }
        // Equality is `Value`'s: both zeros and any two NaNs are equal.
        let mut same = values;
        same[2] = Value::F32(0.0);
        same[4] = Value::F64(f64::NAN);
        assert_eq!(built[0], Record::new(same.clone()));
        assert_eq!(hash_of(&built[0]), hash_of(&Record::new(same)));
        assert_ne!(built[0], rec(&[1]));
    }

    #[test]
    fn records_cross_threads() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<Record>();
    }

    /// The blocks `rows` view, a block counted once per run of
    /// consecutive rows in it.
    fn blocks(rows: &[Record]) -> usize {
        let mut starts: Vec<*const Value> = rows.iter().map(|r| r.block.as_ptr()).collect();
        starts.dedup();
        starts.len()
    }

    #[test]
    fn a_batch_shares_three_blocks_and_a_row_outlives_it() {
        assert!(std::mem::size_of::<Record>() <= 24);
        let per_block = block_rows(2);
        assert_eq!(per_block * 2 * std::mem::size_of::<Value>(), BLOCK_BYTES);
        let n = (2 * per_block + 300) as i32;
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::I32((0..n).collect()),
            ColumnData::F64((0..n).map(|i| -f64::from(i)).collect()),
        ])
        .unwrap();
        let rows = batch.to_records().unwrap();
        assert_eq!(rows.len(), n as usize);
        // 512 + 512 + 300 rows.
        assert_eq!(blocks(&rows), 3);
        assert_eq!(blocks(&rows[..per_block]), 1);
        assert_eq!(blocks(&rows[per_block - 1..per_block + 1]), 2);
        // A clone shares the block; it is never copied.
        let copy = rows[1].clone();
        assert_eq!(copy.block.as_ptr(), rows[1].block.as_ptr());
        let last = rows[n as usize - 1].clone();
        drop((rows, copy, batch));
        assert_eq!(
            last.values(),
            &[Value::I32(n - 1), Value::F64(-f64::from(n - 1))]
        );
        // What survives holds its one block, and only that.
        assert_eq!(Arc::strong_count(&last.block), 1);
        assert_eq!(last.block.len(), (n as usize - 2 * per_block) * 2);
    }

    /// A block holds as many rows as fit in 16 KiB of values, and at
    /// least one, however wide the row; no arity divides by zero.
    #[test]
    fn a_block_holds_16_kib_of_values_and_at_least_one_row() {
        for (arity, per_block) in [
            (0, 1024),
            (1, 1024),
            (4, 256),
            (5, 204),
            (1024, 1),
            (1500, 1),
        ] {
            assert_eq!(block_rows(arity), per_block, "{arity} columns");
        }
        for (arity, n, sizes) in [
            (1, 3000, &[1024, 1024, 952][..]),
            (5, 500, &[204, 204, 92][..]),
            (1500, 3, &[1, 1, 1][..]),
        ] {
            // Row `r` holds `r` in every column.
            let batch = ColumnBatch::from_columns(vec![ColumnData::I32((0..n).collect()); arity]);
            let rows = batch.unwrap().to_records().unwrap();
            assert_eq!(rows.len(), n as usize);
            assert_eq!(blocks(&rows), sizes.len(), "{arity} columns");
            let mut at = 0;
            for &size in sizes {
                assert_eq!(rows[at].block.len(), size * arity, "{arity} columns");
                assert_eq!(blocks(&rows[at..at + size]), 1);
                at += size;
            }
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(row.values(), &vec![Value::I32(r as i32); arity][..]);
            }
        }
        assert!(ColumnBatch::from_columns(Vec::new())
            .unwrap()
            .to_records()
            .unwrap()
            .is_empty());
    }

    /// The ten highest of 100 000 rows, one per block, pin ten blocks of
    /// at most 16 KiB, not ten of the rows' whole result.
    #[test]
    fn a_top_ten_of_100_000_rows_keeps_at_most_ten_small_blocks() {
        let n = 100_000;
        // The key is highest on rows 9 999, 19 999, …, 99 999, each in a
        // block of its own.
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::I32(
                (0..n)
                    .map(|r| if r % 10_000 == 9_999 { n + r } else { r })
                    .collect(),
            ),
            ColumnData::F64((0..n).map(f64::from).collect()),
            ColumnData::F32(vec![0.5; n as usize]),
            ColumnData::I64((0..n).map(i64::from).collect()),
        ])
        .unwrap();
        let mut rows = batch.to_records().unwrap();
        drop(batch);
        rows.sort_by_key(|r| std::cmp::Reverse(r.get(0)));
        rows.truncate(10);
        rows.shrink_to_fit();
        let keys: Vec<i64> = rows.iter().map(|r| r.get(3).as_i64().unwrap()).collect();
        assert_eq!(
            keys,
            (0..10)
                .rev()
                .map(|k| k * 10_000 + 9_999)
                .collect::<Vec<_>>()
        );
        assert_eq!(blocks(&rows), 10);
        for row in &rows {
            assert_eq!(
                Arc::strong_count(&row.block),
                1,
                "only the kept row holds its block"
            );
            assert!(std::mem::size_of_val(&*row.block) <= BLOCK_BYTES);
        }
    }
}
