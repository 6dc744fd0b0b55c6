//! The columnar sub-table container.

use orv_types::{
    BoundingBox, ColumnBatch, ColumnData, Error, Interval, Record, Result, Schema, SubTableId,
};
use std::sync::{Arc, OnceLock};

/// A partition of a virtual table: a subset of records and attributes, with
/// methods to iterate through records and attributes in a record, plus the
/// bounding box of its contents.
///
/// This is the one in-memory table representation: the rows live in a
/// typed [`ColumnBatch`] (a primitive array per attribute), exactly as the
/// extractor decoded them, and scans, range filters, hash joins and the
/// Grace Hash partitioner all read those arrays directly. [`Record`]s are
/// first built where a result leaves the query engine. Sub-tables are
/// immutable once built; the caching service shares them across join
/// tasks behind an `Arc`, and [`SubTable::encoded_size`] is what a cached
/// one occupies.
#[derive(Clone, Debug)]
pub struct SubTable {
    id: SubTableId,
    schema: Arc<Schema>,
    /// Computed by the first [`SubTable::bbox`] call: no read path asks.
    bbox: OnceLock<BoundingBox>,
    batch: ColumnBatch,
}

impl SubTable {
    /// Wrap typed columns (one per schema attribute, in order). The types
    /// are checked once per column.
    pub fn new(id: SubTableId, schema: Arc<Schema>, batch: ColumnBatch) -> Result<Self> {
        if batch.num_columns() != schema.arity() {
            return Err(Error::Schema(format!(
                "sub-table {id}: {} columns for schema of arity {}",
                batch.num_columns(),
                schema.arity()
            )));
        }
        for (ci, attr) in schema.attrs().iter().enumerate() {
            let col = batch.column(ci);
            if col.dtype() != attr.dtype {
                return Err(Error::Schema(format!(
                    "sub-table {id}: column `{}` expects {} but holds {}",
                    attr.name,
                    attr.dtype,
                    col.dtype()
                )));
            }
        }
        Ok(SubTable {
            id,
            schema,
            bbox: OnceLock::new(),
            batch,
        })
    }

    /// Build from row records.
    pub fn from_records(id: SubTableId, schema: Arc<Schema>, records: &[Record]) -> Result<Self> {
        let batch = ColumnBatch::from_records(&schema.dtypes(), records)?;
        SubTable::new(id, schema, batch)
    }

    /// An empty sub-table of the given schema.
    pub fn empty(id: SubTableId, schema: Arc<Schema>) -> Self {
        SubTable {
            id,
            batch: ColumnBatch::new(&schema.dtypes()),
            schema,
            bbox: OnceLock::new(),
        }
    }

    /// This sub-table's `(table, chunk)` identity.
    #[inline]
    pub fn id(&self) -> SubTableId {
        self.id
    }

    /// The schema of the records held.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Bounds of the held data (explicit bounds for every attribute, unless
    /// the sub-table is empty, in which case the box is unbounded),
    /// computed from the columns on first call.
    pub fn bbox(&self) -> &BoundingBox {
        self.bbox.get_or_init(|| {
            let mut bbox = BoundingBox::unbounded();
            for (ci, attr) in self.schema.attrs().iter().enumerate() {
                if let Some((lo, hi)) = self.batch.column(ci).min_max() {
                    bbox.set(attr.name.clone(), Interval::new(lo, hi));
                }
            }
            bbox
        })
    }

    /// Number of records.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.batch.num_rows()
    }

    /// True if no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The rows, as typed columns.
    #[inline]
    pub fn batch(&self) -> &ColumnBatch {
        &self.batch
    }

    /// The rows, by move — a scan without a range hands them on as they
    /// were decoded.
    pub fn into_batch(self) -> ColumnBatch {
        self.batch
    }

    /// A copy of the rows. Kept for the benchmark ladder's
    /// `chunk.to_batch` rung; the engine borrows [`SubTable::batch`] or
    /// takes [`SubTable::into_batch`] instead.
    pub fn to_batch(&self) -> ColumnBatch {
        self.batch.clone()
    }

    /// The typed column for attribute index `idx`.
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnData {
        self.batch.column(idx)
    }

    /// Materialize row `row` as a [`Record`].
    pub fn record(&self, row: usize) -> Result<Record> {
        self.batch.record(row)
    }

    /// Materialize all rows as [`Record`]s.
    pub fn records(&self) -> Result<Vec<Record>> {
        self.batch.to_records()
    }

    /// Size in bytes of the typed columns, which is also the serialized
    /// size under the packed encoding (`rows × record_size`) — the
    /// quantity the cost models charge for transfers and the cache
    /// charges for residency.
    pub fn encoded_size(&self) -> usize {
        self.num_rows() * self.schema.record_size()
    }

    /// Keep only rows whose attributes fall inside `range` (attributes the
    /// box does not bound, or this sub-table lacks, are unconstrained).
    /// Keeps the same id/schema; the bounding box shrinks to the kept rows.
    /// When every row passes — every chunk inside a window — `self` comes
    /// back as it is, columns and all, instead of a copy.
    pub fn filter_range(self, range: &BoundingBox) -> Result<SubTable> {
        let checks = self.schema.range_checks(range);
        if checks.is_empty() {
            return Ok(self);
        }
        let keep = self.batch.keep_in_range(&checks);
        if keep.len() == self.num_rows() {
            return Ok(self);
        }
        SubTable::new(self.id, self.schema, self.batch.gather(&keep))
    }

    /// The rows passing every `(column, interval)` check, as a sub-table
    /// of the same id and schema; `self` — a cached one, say — is kept.
    pub fn select(&self, checks: &[(usize, Interval)]) -> Result<SubTable> {
        let rows = self.batch.filter_range(checks);
        SubTable::new(self.id, Arc::clone(&self.schema), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::Value;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap())
    }

    fn sample() -> SubTable {
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::I32(vec![0, 1, 2]),
            ColumnData::I32(vec![5, 6, 7]),
            ColumnData::F32(vec![0.5, 0.25, 0.75]),
        ])
        .unwrap();
        SubTable::new(SubTableId::new(0u32, 0u32), schema(), batch).unwrap()
    }

    #[test]
    fn bbox_covers_all_attributes() {
        let st = sample();
        assert_eq!(st.bbox().get("x"), Interval::new(0.0, 2.0));
        assert_eq!(st.bbox().get("y"), Interval::new(5.0, 7.0));
        assert_eq!(st.bbox().get("wp"), Interval::new(0.25, 0.75));
    }

    #[test]
    fn bbox_skips_nans_like_the_value_fold() {
        // What the `Value`-column fold computed: `f64::min`/`max` ignore a
        // NaN operand, and an all-NaN column ends at the fold's identities.
        let schema = Arc::new(
            Schema::new(vec![
                orv_types::Attribute::scalar("a", orv_types::DataType::F64),
                orv_types::Attribute::scalar("b", orv_types::DataType::F32),
                orv_types::Attribute::scalar("c", orv_types::DataType::I64),
            ])
            .unwrap(),
        );
        let batch = ColumnBatch::from_columns(vec![
            ColumnData::F64(vec![f64::NAN, -2.5, 7.0, f64::NAN]),
            ColumnData::F32(vec![f32::NAN, f32::NAN, f32::NAN, f32::NAN]),
            ColumnData::I64(vec![i64::MIN, 0, 3, i64::MAX]),
        ])
        .unwrap();
        let st = SubTable::new(SubTableId::new(0u32, 0u32), schema, batch).unwrap();
        assert_eq!(st.bbox().get("a"), Interval::new(-2.5, 7.0));
        let b = st.bbox().get("b");
        assert_eq!((b.lo, b.hi), (f64::INFINITY, f64::NEG_INFINITY));
        assert_eq!(
            st.bbox().get("c"),
            Interval::new(i64::MIN as f64, i64::MAX as f64)
        );
    }

    #[test]
    fn record_iteration_matches_columns() {
        let st = sample();
        let recs = st.records().unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(
            recs[1].values(),
            &[Value::I32(1), Value::I32(6), Value::F32(0.25)]
        );
    }

    #[test]
    fn from_records_roundtrip() {
        let st = sample();
        let recs = st.records().unwrap();
        let st2 = SubTable::from_records(st.id(), Arc::clone(st.schema()), &recs).unwrap();
        assert_eq!(st2.num_rows(), 3);
        assert_eq!(st2.bbox(), st.bbox());
        assert_eq!(st2.record(2).unwrap(), st.record(2).unwrap());
        assert_eq!(st2.batch(), st.batch());
    }

    #[test]
    fn type_and_shape_validation() {
        let s = schema();
        let id = SubTableId::new(0u32, 0u32);
        // Wrong arity.
        let one = ColumnBatch::from_columns(vec![ColumnData::I32(vec![])]).unwrap();
        assert!(SubTable::new(id, s.clone(), one).is_err());
        // Wrong type in column.
        let wrong = ColumnBatch::from_columns(vec![
            ColumnData::F32(vec![0.0]),
            ColumnData::I32(vec![0]),
            ColumnData::F32(vec![0.0]),
        ])
        .unwrap();
        let err = SubTable::new(id, s.clone(), wrong).unwrap_err();
        assert!(err.to_string().contains("column `x` expects"), "{err}");
        // A record that does not conform.
        let bad = [Record::new(vec![Value::I32(0), Value::I32(0)])];
        assert!(SubTable::from_records(id, s, &bad).is_err());
    }

    #[test]
    fn filter_range_keeps_matching_rows() {
        let st = sample();
        let range = BoundingBox::from_dims([("x", Interval::new(1.0, 2.0))]);
        let f = st.clone().filter_range(&range).unwrap();
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.column(0), &ColumnData::I32(vec![1, 2]));
        assert_eq!(f.bbox().get("y"), Interval::new(6.0, 7.0));
        // Unknown attribute in range → unconstrained.
        let range2 = BoundingBox::from_dims([("zzz", Interval::new(0.0, 0.0))]);
        assert_eq!(st.clone().filter_range(&range2).unwrap().num_rows(), 3);
        // Empty result.
        let range3 = BoundingBox::from_dims([("y", Interval::new(100.0, 200.0))]);
        assert_eq!(st.filter_range(&range3).unwrap().num_rows(), 0);
    }

    #[test]
    fn a_range_that_keeps_every_row_keeps_the_columns() {
        let buffer = |st: &SubTable| match st.column(2) {
            ColumnData::F32(v) => v.as_ptr(),
            other => panic!("wrong type: {other:?}"),
        };
        let st = sample();
        let before = buffer(&st);
        let everything = BoundingBox::from_dims([
            ("x", Interval::new(0.0, 2.0)),
            ("wp", Interval::new(0.25, 0.75)),
        ]);
        let kept = st.filter_range(&everything).unwrap();
        assert_eq!(buffer(&kept), before, "no row dropped, no copy made");
        assert_eq!(kept.batch(), sample().batch());
        // Otherwise the kept rows, exactly and in order.
        let some = BoundingBox::from_dims([("wp", Interval::new(0.5, 0.75))]);
        let part = sample().filter_range(&some).unwrap();
        assert_eq!(part.batch(), &sample().batch().gather(&[0, 2]));
        assert_eq!(
            part.records().unwrap(),
            vec![sample().record(0).unwrap(), sample().record(2).unwrap()]
        );
        assert_eq!(part.bbox().get("x"), Interval::new(0.0, 2.0));
    }

    #[test]
    fn encoded_size_is_the_resident_column_bytes() {
        let st = sample();
        assert_eq!(st.encoded_size(), 3 * 12);
        let resident: usize = (0..st.schema().arity())
            .map(|c| st.column(c).len() * st.column(c).dtype().width())
            .sum();
        assert_eq!(st.encoded_size(), resident);
        let empty = SubTable::empty(SubTableId::new(0u32, 9u32), schema());
        assert_eq!(empty.encoded_size(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn batch_accessors_agree() {
        let st = sample();
        assert_eq!(&st.to_batch(), st.batch());
        assert_eq!(st.batch().num_columns(), st.schema().arity());
        assert_eq!(st.batch().to_records().unwrap(), st.records().unwrap());
        let expected = st.batch().clone();
        assert_eq!(st.into_batch(), expected);
        let empty = SubTable::empty(SubTableId::new(0u32, 9u32), schema());
        assert!(empty.batch().is_empty());
        assert_eq!(empty.batch().num_columns(), 3);
    }
}
