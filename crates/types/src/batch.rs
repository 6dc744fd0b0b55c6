//! Typed columnar batches — the one in-memory table representation.
//!
//! A [`ColumnBatch`] holds a run of rows as fixed-width typed arrays —
//! one primitive `Vec` per attribute — instead of a `Vec<Record>` of
//! [`Value`] rows. A sub-table's rows are stored in one
//! (decoded straight from chunk bytes by [`ColumnData::decode_strided`]),
//! and scans, range filters, projections, hash-join key gathering and
//! the Grace Hash partitioner are tight loops over its primitive slices
//! (no per-row allocation, no enum dispatch in the inner loop). This
//! module owns the only range-filter kernel, projection, row
//! materialiser and `from_records` for table data. Rows are materialized
//! into [`Record`]s only where a result leaves the engine — views of
//! shared row-major blocks, one allocation per block of 16 KiB of values
//! ([`ColumnBatch::append_rows_to`], or
//! [`ColumnBatch::append_stretches_to`] across batches) — and the
//! conversion is bit-exact in both directions (every supported type is
//! fixed-width; float bit patterns, including NaNs and `-0.0`, survive
//! the round trip untouched). Every row holds a value in every column:
//! a [`Value`] cannot be null and no ingest path produces one.

use crate::bbox::Interval;
use crate::error::{Error, Result};
use crate::record::{block_rows, Record};
use crate::value::{DataType, Value};
use std::ops::Range;
use std::sync::Arc;

/// One attribute's values as a primitive array.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnData {
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit floats (bit patterns preserved).
    F32(Vec<f32>),
    /// 64-bit floats (bit patterns preserved).
    F64(Vec<f64>),
}

impl ColumnData {
    /// An empty column of type `ty`.
    pub fn new(ty: DataType) -> Self {
        Self::with_capacity(ty, 0)
    }

    /// An empty column of type `ty` with room for `cap` rows.
    pub fn with_capacity(ty: DataType, cap: usize) -> Self {
        match ty {
            DataType::I32 => ColumnData::I32(Vec::with_capacity(cap)),
            DataType::I64 => ColumnData::I64(Vec::with_capacity(cap)),
            DataType::F32 => ColumnData::F32(Vec::with_capacity(cap)),
            DataType::F64 => ColumnData::F64(Vec::with_capacity(cap)),
        }
    }

    /// The column's element type.
    #[inline]
    pub fn dtype(&self) -> DataType {
        match self {
            ColumnData::I32(_) => DataType::I32,
            ColumnData::I64(_) => DataType::I64,
            ColumnData::F32(_) => DataType::F32,
            ColumnData::F64(_) => DataType::F64,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ColumnData::I32(v) => v.len(),
            ColumnData::I64(v) => v.len(),
            ColumnData::F32(v) => v.len(),
            ColumnData::F64(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `v`, type-checked against the column.
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (ColumnData::I32(col), Value::I32(x)) => col.push(x),
            (ColumnData::I64(col), Value::I64(x)) => col.push(x),
            (ColumnData::F32(col), Value::F32(x)) => col.push(x),
            (ColumnData::F64(col), Value::F64(x)) => col.push(x),
            (col, v) => {
                return Err(Error::Schema(format!(
                    "column of type {} cannot hold {}",
                    col.dtype(),
                    v.data_type()
                )))
            }
        }
        Ok(())
    }

    /// The value at `row` (bit-exact round trip).
    #[inline]
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::I32(v) => Value::I32(v[row]),
            ColumnData::I64(v) => Value::I64(v[row]),
            ColumnData::F32(v) => Value::F32(v[row]),
            ColumnData::F64(v) => Value::F64(v[row]),
        }
    }

    /// Numeric view of `row` as `f64` (the predicate domain).
    #[inline]
    pub fn as_f64(&self, row: usize) -> f64 {
        match self {
            ColumnData::I32(v) => v[row] as f64,
            ColumnData::I64(v) => v[row] as f64,
            ColumnData::F32(v) => v[row] as f64,
            ColumnData::F64(v) => v[row],
        }
    }

    /// Append each row's canonical 8-byte join key ([`Value::key_bits`])
    /// to `out` — the hash-join key gather, one typed loop per column.
    pub fn key_bits_into(&self, out: &mut Vec<u64>) {
        match self {
            ColumnData::I32(v) => out.extend(v.iter().map(|&x| Value::I32(x).key_bits())),
            ColumnData::I64(v) => out.extend(v.iter().map(|&x| Value::I64(x).key_bits())),
            ColumnData::F32(v) => out.extend(v.iter().map(|&x| Value::F32(x).key_bits())),
            ColumnData::F64(v) => out.extend(v.iter().map(|&x| Value::F64(x).key_bits())),
        }
    }

    /// Append each row's sort key ([`Value::order_bits`]) to `out`: `u64`s
    /// that compare as the column's values do under [`Value::cmp`], so a
    /// result order is computed on plain integers, one typed loop per
    /// column.
    pub fn order_bits_into(&self, out: &mut Vec<u64>) {
        match self {
            ColumnData::I32(v) => out.extend(v.iter().map(|&x| Value::I32(x).order_bits())),
            ColumnData::I64(v) => out.extend(v.iter().map(|&x| Value::I64(x).order_bits())),
            ColumnData::F32(v) => out.extend(v.iter().map(|&x| Value::F32(x).order_bits())),
            ColumnData::F64(v) => out.extend(v.iter().map(|&x| Value::F64(x).order_bits())),
        }
    }

    /// Append `other`'s rows, type-checked against the column.
    fn extend_from(&mut self, other: &ColumnData) -> Result<()> {
        match (self, other) {
            (ColumnData::I32(a), ColumnData::I32(b)) => a.extend_from_slice(b),
            (ColumnData::I64(a), ColumnData::I64(b)) => a.extend_from_slice(b),
            (ColumnData::F32(a), ColumnData::F32(b)) => a.extend_from_slice(b),
            (ColumnData::F64(a), ColumnData::F64(b)) => a.extend_from_slice(b),
            (a, b) => {
                return Err(Error::Schema(format!(
                    "column of type {} cannot take rows of type {}",
                    a.dtype(),
                    b.dtype()
                )))
            }
        }
        Ok(())
    }

    /// A new column holding the rows at `keep`, in order.
    pub fn gather(&self, keep: &[u32]) -> ColumnData {
        match self {
            ColumnData::I32(v) => ColumnData::I32(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::I64(v) => ColumnData::I64(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::F32(v) => ColumnData::F32(keep.iter().map(|&r| v[r as usize]).collect()),
            ColumnData::F64(v) => ColumnData::F64(keep.iter().map(|&r| v[r as usize]).collect()),
        }
    }

    /// Write rows `rows` into field `field` of consecutive `arity`-wide
    /// rows of `block` — a row-major block's column, one typed loop.
    fn fill_rows(&self, rows: Range<usize>, block: &mut [Value], arity: usize, field: usize) {
        fn fill<T: Copy>(
            v: &[T],
            block: &mut [Value],
            arity: usize,
            field: usize,
            to: impl Fn(T) -> Value,
        ) {
            for (row, &x) in block.chunks_exact_mut(arity).zip(v) {
                row[field] = to(x);
            }
        }
        match self {
            ColumnData::I32(v) => fill(&v[rows], block, arity, field, Value::I32),
            ColumnData::I64(v) => fill(&v[rows], block, arity, field, Value::I64),
            ColumnData::F32(v) => fill(&v[rows], block, arity, field, Value::F32),
            ColumnData::F64(v) => fill(&v[rows], block, arity, field, Value::F64),
        }
    }

    /// The column as [`Value`]s — the shape the write path's
    /// `CompiledLayout::encode` takes. No read path calls this.
    pub fn to_vec(&self) -> Vec<Value> {
        (0..self.len()).map(|r| self.value(r)).collect()
    }

    /// `(min, max)` of the column in the predicate domain (`f64`), or
    /// `None` when it has no rows. NaNs are skipped, as `f64::min`/`max`
    /// skip them.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        fn fold<T: Copy>(v: &[T], to: impl Fn(T) -> f64) -> (f64, f64) {
            v.iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(to(x)), hi.max(to(x)))
                })
        }
        (!self.is_empty()).then(|| match self {
            ColumnData::I32(v) => fold(v, |x| x as f64),
            ColumnData::I64(v) => fold(v, |x| x as f64),
            ColumnData::F32(v) => fold(v, |x| x as f64),
            ColumnData::F64(v) => fold(v, |x| x),
        })
    }

    /// Append row `row`'s fixed-width little-endian bytes to `out` (the
    /// Grace Hash wire and bucket format).
    #[inline]
    pub fn encode_le(&self, row: usize, out: &mut Vec<u8>) {
        match self {
            ColumnData::I32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
            ColumnData::I64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
            ColumnData::F32(v) => out.extend_from_slice(&v[row].to_le_bytes()),
            ColumnData::F64(v) => out.extend_from_slice(&v[row].to_le_bytes()),
        }
    }

    /// Write the values at `rows` little-endian into `out`, the `i`-th at
    /// byte `first` of its `step`-wide record — [`ColumnData::decode_strided`]
    /// run backwards, one typed loop.
    fn encode_strided_le(&self, rows: &[u32], out: &mut [u8], first: usize, step: usize) {
        fn write<T: Copy, const N: usize>(
            v: &[T],
            rows: &[u32],
            out: &mut [u8],
            (first, step): (usize, usize),
            to: impl Fn(T) -> [u8; N],
        ) {
            for (rec, &r) in out.chunks_exact_mut(step).zip(rows) {
                rec[first..first + N].copy_from_slice(&to(v[r as usize]));
            }
        }
        let at = (first, step);
        match self {
            ColumnData::I32(v) => write(v, rows, out, at, i32::to_le_bytes),
            ColumnData::I64(v) => write(v, rows, out, at, i64::to_le_bytes),
            ColumnData::F32(v) => write(v, rows, out, at, f32::to_le_bytes),
            ColumnData::F64(v) => write(v, rows, out, at, f64::to_le_bytes),
        }
    }

    /// Decode `nrows` values of type `ty` from `bytes`, the `r`-th at
    /// byte `first + r * step` — one typed loop per column, whether the
    /// bytes are row-major records (`step` = record stride) or a packed
    /// column block (`step` = value width). Bit patterns are preserved.
    /// Total on hostile input: a read past the end of `bytes` is a typed
    /// [`Error::Format`], and nothing is allocated until the last value
    /// is known to be in bounds.
    pub fn decode_strided(
        ty: DataType,
        bytes: &[u8],
        first: usize,
        step: usize,
        nrows: usize,
        little_endian: bool,
    ) -> Result<ColumnData> {
        fn read<T, const N: usize>(
            bytes: &[u8],
            (first, step, nrows): (usize, usize, usize),
            from: impl Fn([u8; N]) -> T,
        ) -> Result<Vec<T>> {
            let malformed = || {
                Error::Format(format!(
                    "cannot read {nrows} values of {N} bytes at offset {first}, stride {step}, \
                     from {} bytes",
                    bytes.len()
                ))
            };
            if nrows == 0 {
                return Ok(Vec::new());
            }
            if step < N {
                return Err(malformed());
            }
            let end = (nrows - 1)
                .checked_mul(step)
                .and_then(|last| last.checked_add(first)?.checked_add(N))
                .ok_or_else(malformed)?;
            let span = bytes.get(first..end).ok_or_else(malformed)?;
            // `nrows - 1` whole records, then the last one's value: every
            // record holds its `N` bytes (`step >= N`), so the fill below
            // cannot fail, and its length is known up front.
            let (records, last) = span.split_at(span.len() - N);
            let value = |rec: &[u8]| {
                let mut raw = [0; N];
                raw.copy_from_slice(&rec[..N]);
                from(raw)
            };
            let mut out = Vec::with_capacity(nrows);
            out.extend(records.chunks_exact(step).map(value));
            out.push(value(last));
            Ok(out)
        }
        let at = (first, step, nrows);
        Ok(match (ty, little_endian) {
            (DataType::I32, true) => ColumnData::I32(read(bytes, at, i32::from_le_bytes)?),
            (DataType::I32, false) => ColumnData::I32(read(bytes, at, i32::from_be_bytes)?),
            (DataType::I64, true) => ColumnData::I64(read(bytes, at, i64::from_le_bytes)?),
            (DataType::I64, false) => ColumnData::I64(read(bytes, at, i64::from_be_bytes)?),
            (DataType::F32, true) => ColumnData::F32(read(bytes, at, f32::from_le_bytes)?),
            (DataType::F32, false) => ColumnData::F32(read(bytes, at, f32::from_be_bytes)?),
            (DataType::F64, true) => ColumnData::F64(read(bytes, at, f64::from_le_bytes)?),
            (DataType::F64, false) => ColumnData::F64(read(bytes, at, f64::from_be_bytes)?),
        })
    }
}

/// A run of rows in columnar form: typed arrays of equal row count.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnBatch {
    columns: Vec<ColumnData>,
}

impl ColumnBatch {
    /// An empty batch with the given column types.
    pub fn new(types: &[DataType]) -> Self {
        Self::with_capacity(types, 0)
    }

    /// An empty batch with room for `cap` rows per column.
    pub fn with_capacity(types: &[DataType], cap: usize) -> Self {
        ColumnBatch {
            columns: types
                .iter()
                .map(|&t| ColumnData::with_capacity(t, cap))
                .collect(),
        }
    }

    /// Build from typed columns of equal length.
    pub fn from_columns(columns: Vec<ColumnData>) -> Result<Self> {
        let nrows = columns.first().map(|c| c.len()).unwrap_or(0);
        if let Some((i, c)) = columns.iter().enumerate().find(|(_, c)| c.len() != nrows) {
            return Err(Error::Schema(format!(
                "batch column {i} has {} rows, expected {nrows}",
                c.len()
            )));
        }
        Ok(ColumnBatch { columns })
    }

    /// The rows of `batches`, in order, as one batch. Each input is freed
    /// as soon as it is copied, so the peak is the result plus one input;
    /// one batch is handed back as it is. No batches make a batch of no
    /// columns; batches of different shapes are a typed error.
    pub fn concat(mut batches: Vec<ColumnBatch>) -> Result<Self> {
        if batches.len() == 1 {
            return Ok(batches.swap_remove(0));
        }
        let Some(first) = batches.first() else {
            return Ok(ColumnBatch {
                columns: Vec::new(),
            });
        };
        let total = batches.iter().map(|b| b.num_rows()).sum();
        let mut out = Self::with_capacity(&first.dtypes(), total);
        for b in batches {
            if b.num_columns() != out.num_columns() {
                return Err(Error::Schema(format!(
                    "batch of {} columns concatenated onto {}",
                    b.num_columns(),
                    out.num_columns()
                )));
            }
            for (dst, src) in out.columns.iter_mut().zip(&b.columns) {
                dst.extend_from(src)?;
            }
        }
        Ok(out)
    }

    /// Build from row records, type-checked against `types`.
    pub fn from_records(types: &[DataType], records: &[Record]) -> Result<Self> {
        let mut batch = Self::with_capacity(types, records.len());
        for r in records {
            batch.push_record(r)?;
        }
        Ok(batch)
    }

    /// Append one row.
    fn push_record(&mut self, r: &Record) -> Result<()> {
        if r.arity() != self.columns.len() {
            return Err(Error::Schema(format!(
                "record of arity {} pushed into batch of {} columns",
                r.arity(),
                self.columns.len()
            )));
        }
        for (col, &v) in self.columns.iter_mut().zip(r.values()) {
            col.push(v)?;
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the batch has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// The column types, in order.
    pub fn dtypes(&self) -> Vec<DataType> {
        self.columns.iter().map(|c| c.dtype()).collect()
    }

    /// Column `idx`.
    #[inline]
    pub fn column(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// The value at `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `row` as a [`Record`] of its own: one allocation.
    pub fn record(&self, row: usize) -> Result<Record> {
        Ok(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Materialize every row — the service-edge conversion. Bit-exact:
    /// `ColumnBatch::from_records(t, &b.to_records()?)` reproduces `b`.
    pub fn to_records(&self) -> Result<Vec<Record>> {
        let mut rows = Vec::new();
        self.append_records_to(&mut rows)?;
        Ok(rows)
    }

    /// Append every row to `out` as [`Record`]s — the one row
    /// materialiser (the edge conversion for a run of batches, avoiding
    /// intermediate vectors).
    pub fn append_records_to(&self, out: &mut Vec<Record>) -> Result<()> {
        self.append_rows_to(0..self.num_rows(), out)
    }

    /// Append the rows in `rows` to `out` as [`Record`]s: views of shared
    /// row-major blocks of as many rows as fit in 16 KiB of values (at
    /// least one), each filled by one typed loop per column — one
    /// allocation per block, none per row.
    pub fn append_rows_to(&self, rows: Range<usize>, out: &mut Vec<Record>) -> Result<()> {
        Self::append_stretches_to(std::slice::from_ref(self), &[(0, rows)], out)
    }

    /// Append the rows of `stretches`, in order, to `out` as [`Record`]s;
    /// `(b, rows)` is rows `rows` of `batches[b]`. The blocks are
    /// [`ColumnBatch::append_rows_to`]'s, each filled across as many
    /// stretches as it spans, so rows laid out by a merge of several
    /// batches are built without first being copied into one.
    pub fn append_stretches_to(
        batches: &[ColumnBatch],
        stretches: &[(usize, Range<usize>)],
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let arity = batches.first().map_or(0, |b| b.num_columns());
        for (b, rows) in stretches {
            let Some(batch) = batches.get(*b) else {
                return Err(Error::Schema(format!(
                    "a stretch of batch {b} of {}",
                    batches.len()
                )));
            };
            if rows.start > rows.end || rows.end > batch.num_rows() || batch.num_columns() != arity
            {
                return Err(Error::Schema(format!(
                    "rows {rows:?} of a batch of {} rows and {} columns, among batches of {arity}",
                    batch.num_rows(),
                    batch.num_columns()
                )));
            }
        }
        let mut left = stretches.iter().map(|(_, rows)| rows.len()).sum::<usize>();
        out.reserve(left);
        let mut pending = stretches
            .iter()
            .map(|(b, rows)| (&batches[*b], rows.clone()));
        let mut current = pending.next();
        let per_block = block_rows(arity);
        while left > 0 {
            let len = left.min(per_block);
            let mut block: Arc<[Value]> = std::iter::repeat_n(Value::I32(0), len * arity).collect();
            // The block is ours alone until its first view is handed out,
            // so this writes it in place.
            let slots = Arc::make_mut(&mut block);
            let mut filled = 0;
            while filled < len {
                let Some((batch, rows)) = current.as_mut() else {
                    break;
                };
                let take = rows.len().min(len - filled);
                let (lo, hi) = (rows.start, rows.start + take);
                for (c, col) in batch.columns.iter().enumerate() {
                    col.fill_rows(lo..hi, &mut slots[filled * arity..], arity, c);
                }
                filled += take;
                rows.start = hi;
                if hi == rows.end {
                    current = pending.next();
                }
            }
            Record::views_into(block, arity, out);
            left -= len;
        }
        Ok(())
    }

    /// Append row `row` in the packed little-endian wire format: the
    /// row-by-row reference [`ColumnBatch::encode_rows_le`] is tested
    /// against.
    #[inline]
    pub fn encode_row_le(&self, row: usize, out: &mut Vec<u8>) {
        for col in &self.columns {
            col.encode_le(row, out);
        }
    }

    /// The rows at `rows`, in order, in the packed little-endian wire
    /// format: the bytes [`ColumnBatch::encode_row_le`] appends row by
    /// row, written into one buffer of exact size by one typed loop per
    /// column.
    pub fn encode_rows_le(&self, rows: &[u32]) -> Vec<u8> {
        let width: usize = self.columns.iter().map(|c| c.dtype().width()).sum();
        let mut out = vec![0u8; rows.len() * width];
        let mut first = 0;
        for col in &self.columns {
            col.encode_strided_le(rows, &mut out, first, width);
            first += col.dtype().width();
        }
        out
    }

    /// Keep the rows whose column `ci` lies inside `iv` for every
    /// `(ci, iv)` check — the one range-filter kernel: the keep list
    /// comes from primitive comparisons, then a gather; no [`Record`] is
    /// built.
    pub fn filter_range(&self, checks: &[(usize, Interval)]) -> ColumnBatch {
        if checks.is_empty() || self.is_empty() {
            return self.clone();
        }
        self.gather(&self.keep_in_range(checks))
    }

    /// The rows [`ColumnBatch::filter_range`] keeps, as a gather list.
    pub fn keep_in_range(&self, checks: &[(usize, Interval)]) -> Vec<u32> {
        self.mask_to_keep(|r| {
            checks
                .iter()
                .all(|&(ci, iv)| iv.contains(self.columns[ci].as_f64(r)))
        })
    }

    /// Row indices passing `predicate(row)`, as a gather list.
    fn mask_to_keep(&self, mut predicate: impl FnMut(usize) -> bool) -> Vec<u32> {
        (0..self.num_rows() as u32)
            .filter(|&r| predicate(r as usize))
            .collect()
    }

    /// A new batch holding the rows at `keep`, in order.
    pub fn gather(&self, keep: &[u32]) -> ColumnBatch {
        ColumnBatch {
            columns: self.columns.iter().map(|c| c.gather(keep)).collect(),
        }
    }

    /// A new batch with the columns at `indices`, in that order (the
    /// columnar projection: per-column memcpy, no row rebuild).
    pub fn project(&self, indices: &[usize]) -> Result<ColumnBatch> {
        let columns = indices
            .iter()
            .map(|&i| {
                self.columns
                    .get(i)
                    .cloned()
                    .ok_or_else(|| Error::Schema(format!("batch has no column {i}")))
            })
            .collect::<Result<_>>()?;
        Ok(ColumnBatch { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ColumnBatch {
        ColumnBatch::from_columns(vec![
            ColumnData::I32(vec![0, 1, 2, 3]),
            ColumnData::F32(vec![0.5, -0.0, f32::NAN, 4.25]),
            ColumnData::F64(vec![1.0, 2.0, 3.0, 4.0]),
        ])
        .unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let b = sample();
        let rows = b.to_records().unwrap();
        assert_eq!(rows.len(), 4);
        let back = ColumnBatch::from_records(&b.dtypes(), &rows).unwrap();
        // Bit patterns (NaN, -0.0) must survive, not just Value equality.
        match (back.column(1), b.column(1)) {
            (ColumnData::F32(a), ColumnData::F32(c)) => {
                for (x, y) in a.iter().zip(c) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            _ => panic!("column type changed in round trip"),
        }
        assert_eq!(back.num_rows(), b.num_rows());
        let mut middle = Vec::new();
        b.append_rows_to(1..3, &mut middle).unwrap();
        assert_eq!(middle, rows[1..3]);
    }

    /// Stretches of two batches, out of order, crossing block boundaries
    /// and each other, build what the rows one at a time do, in blocks of
    /// `block_rows` rows that run on across the seams between stretches;
    /// a stretch outside its batch, of a missing batch or of another width
    /// is refused.
    #[test]
    fn stretches_build_their_rows_in_order_across_batches() {
        let batch = |n: i32, scale: f64| {
            ColumnBatch::from_columns(vec![
                ColumnData::I32((0..n).collect()),
                ColumnData::F64((0..n).map(|x| x as f64 * scale).collect()),
            ])
            .unwrap()
        };
        let batches = [batch(5000, 0.5), batch(3000, -1.0)];
        let stretches = [
            (1, 0..2000),
            (0, 10..10),
            (0, 0..4500),
            (1, 2000..3000),
            (0, 4500..5000),
        ];
        let mut rows = Vec::new();
        ColumnBatch::append_stretches_to(&batches, &stretches, &mut rows).unwrap();
        let expected: Vec<Record> = stretches
            .iter()
            .flat_map(|(b, r)| r.clone().map(|i| batches[*b].record(i).unwrap()))
            .collect();
        assert_eq!(rows, expected);
        // A block starts wherever a row does not follow its predecessor
        // in memory.
        let starts = rows
            .windows(2)
            .filter(|w| w[0].values().as_ptr_range().end != w[1].values().as_ptr())
            .count();
        assert_eq!(starts + 1, 8000usize.div_ceil(block_rows(2)));
        // No seam between stretches falls on a block edge: the rows on
        // either side of each share a block.
        for seam in [2000, 6500, 7500] {
            assert_ne!(seam % block_rows(2), 0);
            let (before, after) = (rows[seam - 1].values(), rows[seam].values());
            assert_eq!(
                before.as_ptr_range().end,
                after.as_ptr(),
                "seam at row {seam}"
            );
        }
        let narrow = batches[0].project(&[0]).unwrap();
        for (bad, at) in [
            (&batches[..], (1, 2999..3001)),
            (&batches[..], (2, 0..1)),
            (&[batches[0].clone(), narrow][..], (1, 0..1)),
        ] {
            assert!(ColumnBatch::append_stretches_to(bad, &[at], &mut Vec::new()).is_err());
        }
    }

    #[test]
    fn push_is_type_checked() {
        let mut b = ColumnBatch::new(&[DataType::I32]);
        assert!(b.push_record(&Record::new(vec![Value::F64(1.0)])).is_err());
        assert!(b
            .push_record(&Record::new(vec![Value::I32(1), Value::I32(2)]))
            .is_err());
        b.push_record(&Record::new(vec![Value::I32(1)])).unwrap();
        assert_eq!(b.num_rows(), 1);
    }

    #[test]
    fn ragged_columns_rejected() {
        let err =
            ColumnBatch::from_columns(vec![ColumnData::I32(vec![1, 2]), ColumnData::I32(vec![1])])
                .unwrap_err();
        assert!(err.to_string().contains("expected 2"), "{err}");
    }

    #[test]
    fn gather_and_project() {
        let b = sample();
        let keep = b.mask_to_keep(|r| b.column(0).as_f64(r) >= 1.0 && b.column(0).as_f64(r) <= 2.0);
        assert_eq!(keep, vec![1, 2]);
        let f = b.gather(&keep);
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, 0), Value::I32(1));
        let p = f.project(&[2, 0]).unwrap();
        assert_eq!(p.num_columns(), 2);
        assert_eq!(p.value(1, 0), Value::F64(3.0));
        assert_eq!(p.value(1, 1), Value::I32(2));
        assert!(b.project(&[9]).is_err());
    }

    #[test]
    fn filter_range_keeps_rows_inside_every_interval() {
        let b = sample();
        let inside = b.filter_range(&[(0, Interval::new(1.0, 3.0)), (2, Interval::new(0.0, 3.5))]);
        assert_eq!(inside.column(0), &ColumnData::I32(vec![1, 2]));
        // NaN lies in no interval; no checks and empty batches pass through.
        assert!(b.filter_range(&[(1, Interval::unbounded())]).num_rows() == 3);
        assert_eq!(b.filter_range(&[]).num_rows(), 4);
        let empty = ColumnBatch::new(&[DataType::I32]);
        assert!(empty.filter_range(&[(0, Interval::point(1.0))]).is_empty());
    }

    #[test]
    fn min_max_and_to_vec() {
        let b = sample();
        assert_eq!(b.column(0).min_max(), Some((0.0, 3.0)));
        assert_eq!(b.column(1).min_max(), Some((-0.0, 4.25)), "NaN skipped");
        assert_eq!(ColumnData::new(DataType::F64).min_max(), None);
        assert_eq!(
            b.column(2).to_vec(),
            vec![
                Value::F64(1.0),
                Value::F64(2.0),
                Value::F64(3.0),
                Value::F64(4.0)
            ]
        );
    }

    #[test]
    fn wire_codec_round_trips_and_rejects_hostile_shapes() {
        let b = sample();
        let mut bytes = Vec::new();
        for r in 0..b.num_rows() {
            b.encode_row_le(r, &mut bytes);
        }
        assert_eq!(bytes.len(), 4 * 16);
        // The column-wise encoder writes the same bytes, for any rows in
        // any order (NaN and -0.0 included).
        assert_eq!(b.encode_rows_le(&[0, 1, 2, 3]), bytes);
        assert_eq!(
            b.encode_rows_le(&[2, 0, 2]),
            [&bytes[32..48], &bytes[..16], &bytes[32..48]].concat()
        );
        assert!(b.encode_rows_le(&[]).is_empty());
        let col = |ty, first| ColumnData::decode_strided(ty, &bytes, first, 16, 4, true);
        assert_eq!(
            col(DataType::I32, 0).unwrap(),
            ColumnData::I32(vec![0, 1, 2, 3])
        );
        assert_eq!(col(DataType::F64, 8).unwrap(), *b.column(2));
        match col(DataType::F32, 4).unwrap() {
            ColumnData::F32(v) => assert_eq!(v[2].to_bits(), f32::NAN.to_bits()),
            other => panic!("wrong type: {other:?}"),
        }
        // Big-endian reads the same bytes reversed.
        let be = ColumnData::decode_strided(DataType::I32, &[0, 0, 1, 2], 0, 4, 1, false);
        assert_eq!(be.unwrap(), ColumnData::I32(vec![258]));
        // Past the end, overlapping stride, overflowing extent: typed
        // errors, and no allocation sized by the hostile row count.
        for (first, step, nrows) in [(56, 16, 4), (0, 2, 4), (0, 16, 5), (1, usize::MAX, 3)] {
            let err = ColumnData::decode_strided(DataType::F64, &bytes, first, step, nrows, true);
            assert!(
                matches!(err, Err(Error::Format(_))),
                "{first} {step} {nrows}"
            );
        }
        let none = ColumnData::decode_strided(DataType::I64, &[], 9, 0, 0, true).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn key_bits_match_value_key_bits() {
        let b = sample();
        for ci in 0..b.num_columns() {
            let mut bits = Vec::new();
            b.column(ci).key_bits_into(&mut bits);
            for (r, &kb) in bits.iter().enumerate() {
                assert_eq!(kb, b.column(ci).value(r).key_bits());
            }
        }
    }

    #[test]
    fn order_bits_match_value_order_bits() {
        let b = sample();
        for ci in 0..b.num_columns() {
            let mut bits = Vec::new();
            b.column(ci).order_bits_into(&mut bits);
            for (r, &ob) in bits.iter().enumerate() {
                assert_eq!(ob, b.column(ci).value(r).order_bits());
            }
        }
    }

    #[test]
    fn concat_appends_in_order_and_checks_shapes() {
        let b = sample();
        let empty = b.gather(&[]);
        let all = ColumnBatch::concat(vec![b.gather(&[3, 0]), empty, b.gather(&[1])]).unwrap();
        assert_eq!(all, b.gather(&[3, 0, 1]));
        let none = ColumnBatch::concat(Vec::new()).unwrap();
        assert_eq!((none.num_rows(), none.num_columns()), (0, 0));
        let narrow = b.project(&[0]).unwrap();
        assert!(ColumnBatch::concat(vec![b.clone(), narrow]).is_err());
        let retyped = b.project(&[0, 2, 2]).unwrap();
        assert!(ColumnBatch::concat(vec![b, retyped]).is_err());
    }

    /// What is left of the null-bitmap test: a row stays whole, in every
    /// column, under a gather that skips and reorders. (The name is held
    /// by the test floor.)
    #[test]
    fn nulls_block_record_materialization_and_survive_gather() {
        let b = sample();
        let g = b.gather(&[2, 0]);
        assert_eq!(g.num_rows(), 2);
        assert_eq!(g.record(0).unwrap(), b.record(2).unwrap());
        assert_eq!(g.record(1).unwrap(), b.record(0).unwrap());
        let mut out = Vec::new();
        g.append_records_to(&mut out).unwrap();
        assert_eq!(out, vec![b.record(2).unwrap(), b.record(0).unwrap()]);
    }

    #[test]
    fn empty_batch_behaves() {
        let b = ColumnBatch::new(&[DataType::I64, DataType::F64]);
        assert!(b.is_empty());
        assert_eq!(b.to_records().unwrap(), Vec::<Record>::new());
        assert!(b.append_rows_to(0..1, &mut Vec::new()).is_err());
        assert_eq!(b.gather(&[]).num_rows(), 0);
        assert_eq!(b.dtypes(), vec![DataType::I64, DataType::F64]);
    }

    /// The decoder against a per-value reference that reads each value's
    /// bytes on its own: the same `Ok`/`Err`, and bit for bit the same
    /// values (NaN payloads and `-0.0` included), for every type and
    /// byte order, `step >= width`, and spans that end exactly at the end
    /// of the bytes or one byte past it. `PROPTEST_CASES` sets the case
    /// count (CI runs 4 096).
    mod decode_equivalence {
        use super::*;
        use proptest::prelude::*;

        fn cases() -> u32 {
            std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|n| n.parse().ok())
                .unwrap_or(256)
        }

        /// Little-endian bit patterns worth a special case: signed zeros,
        /// NaNs with payloads (quiet and signalling, both signs),
        /// infinities and the integer extremes.
        const SPECIAL: [u64; 12] = [
            0,
            0x8000_0000_0000_0000,
            0x7FF8_0000_0000_0001,
            0xFFF0_0000_0000_0002,
            0x7FF0_0000_0000_0000,
            0x7FFF_FFFF_FFFF_FFFF,
            0x8000_0000,
            0x7FC0_0001,
            0xFF80_0002,
            0x7F80_0000,
            0x7FFF_FFFF,
            u64::MAX,
        ];

        /// `len` bytes from `seed`; one in four of the values at `at`
        /// that fit is a special pattern in `little` or big-endian order.
        fn bytes(
            len: usize,
            width: usize,
            (first, step, nrows): (usize, usize, usize),
            little: bool,
            seed: u64,
        ) -> Vec<u8> {
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut out: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            for r in 0..nrows {
                let at = first + r * step;
                let pick = next();
                if let (true, Some(value)) = (pick.is_multiple_of(4), out.get_mut(at..at + width)) {
                    let special = SPECIAL[(pick >> 2) as usize % SPECIAL.len()].to_le_bytes();
                    value.copy_from_slice(&special[..width]);
                    if !little {
                        value.reverse();
                    }
                }
            }
            out
        }

        /// Each value's bits, zero-extended to 64.
        fn bits(col: &ColumnData) -> Vec<u64> {
            match col {
                ColumnData::I32(v) => v.iter().map(|&x| u64::from(x as u32)).collect(),
                ColumnData::I64(v) => v.iter().map(|&x| x as u64).collect(),
                ColumnData::F32(v) => v.iter().map(|&x| u64::from(x.to_bits())).collect(),
                ColumnData::F64(v) => v.iter().map(|&x| x.to_bits()).collect(),
            }
        }

        /// Value `r` is the `width` bytes at `first + r * step`, or the
        /// read fails.
        fn reference(
            width: usize,
            bytes: &[u8],
            (first, step, nrows): (usize, usize, usize),
            little: bool,
        ) -> Option<Vec<u64>> {
            (0..nrows)
                .map(|r| {
                    let at = r.checked_mul(step)?.checked_add(first)?;
                    let mut raw = bytes.get(at..at.checked_add(width)?)?.to_vec();
                    if !little {
                        raw.reverse();
                    }
                    raw.resize(8, 0);
                    Some(u64::from_le_bytes(raw.try_into().ok()?))
                })
                .collect()
        }

        fn any_type() -> impl Strategy<Value = DataType> {
            proptest::sample::select(vec![
                DataType::I32,
                DataType::I64,
                DataType::F32,
                DataType::F64,
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(cases()))]

            /// `shape` 0: the last value ends at the last byte; 1: one
            /// byte past it; 2: anywhere up to a record beyond.
            #[test]
            fn decode_strided_equals_per_value_reads(
                ty in any_type(),
                little in any::<bool>(),
                pad in 0usize..25,
                first in 0usize..40,
                nrows in prop_oneof![
                    proptest::sample::select(vec![0usize, 1, 2]),
                    0usize..300,
                ],
                shape in 0u8..3,
                slack in 0usize..48,
                seed in any::<u64>(),
            ) {
                let width = ty.width();
                let step = width + pad;
                let end = match nrows {
                    0 => first,
                    n => first + (n - 1) * step + width,
                };
                let len = match shape {
                    0 => end,
                    1 => end.saturating_sub(1),
                    _ => (end + slack).saturating_sub(24),
                };
                let at = (first, step, nrows);
                let bytes = bytes(len, width, at, little, seed);
                let got = ColumnData::decode_strided(ty, &bytes, first, step, nrows, little);
                let want = reference(width, &bytes, at, little);
                match (&got, &want) {
                    (Ok(col), Some(want)) => {
                        prop_assert_eq!(col.dtype(), ty);
                        prop_assert_eq!(&bits(col), want);
                    }
                    (Err(Error::Format(_)), None) => {}
                    _ => prop_assert!(false, "decoder {:?}, reference {:?}", got.map(|c| bits(&c)), want),
                }
            }
        }
    }
}
