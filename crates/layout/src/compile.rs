//! Compiling layout descriptions into executable extractors/encoders.
//!
//! A [`CompiledLayout`] resolves field offsets once, so extraction is a
//! tight loop over the chunk bytes. The encoder is the exact inverse, one
//! typed loop per field as well; the dataset generator uses it to write
//! chunks in arbitrary described formats, and round-trip tests rely on
//! `decode(encode(x)) == x`.

use crate::ast::{Endian, Item, LayoutDesc, RecordOrder};
use orv_types::{ColumnData, DataType, Error, Result, Value};

/// One field with its resolved byte offset within a record (row-major) or
/// its column block (column-major).
#[derive(Clone, Debug)]
struct FieldSlot {
    name: String,
    dtype: DataType,
    /// Byte offset of this field within one record (row-major view).
    offset: usize,
}

/// An executable extractor/encoder for one layout.
#[derive(Clone, Debug)]
pub struct CompiledLayout {
    name: String,
    endian: Endian,
    order: RecordOrder,
    header_len: usize,
    stride: usize,
    fields: Vec<FieldSlot>,
    /// Item-order walk of (offset, size, field_index-or-pad) used by the
    /// column-major codec: (byte offset of the item within a record, width,
    /// Some(field idx) or None for padding).
    walk: Vec<(usize, usize, Option<usize>)>,
}

impl CompiledLayout {
    /// Resolve offsets for `desc`.
    pub fn compile(desc: &LayoutDesc) -> Result<Self> {
        desc.validate()?;
        let mut fields = Vec::new();
        let mut walk = Vec::new();
        let mut off = 0usize;
        for item in &desc.items {
            let size = match item {
                Item::Field { name, dtype } => {
                    walk.push((off, dtype.width(), Some(fields.len())));
                    fields.push(FieldSlot {
                        name: name.clone(),
                        dtype: *dtype,
                        offset: off,
                    });
                    dtype.width()
                }
                Item::Pad(n) => {
                    walk.push((off, *n, None));
                    *n
                }
            };
            // Pad widths come straight from the description text.
            off = off.checked_add(size).ok_or_else(|| {
                Error::Format(format!(
                    "layout `{}` record stride overflows the address space",
                    desc.name
                ))
            })?;
        }
        Ok(CompiledLayout {
            name: desc.name.clone(),
            endian: desc.endian,
            order: desc.order,
            header_len: desc.header_len,
            stride: off,
            fields,
            walk,
        })
    }

    /// Layout name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Bytes per record, padding included.
    pub fn record_stride(&self) -> usize {
        self.stride
    }

    /// Header bytes skipped at the start of each chunk.
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// Field `(name, dtype)` pairs in on-disk order.
    pub fn fields(&self) -> Vec<(&str, DataType)> {
        self.fields
            .iter()
            .map(|f| (f.name.as_str(), f.dtype))
            .collect()
    }

    /// Number of records a chunk of `len` bytes holds, or an error if the
    /// byte count is inconsistent with the layout.
    pub fn row_count(&self, len: usize) -> Result<usize> {
        let body = len.checked_sub(self.header_len).ok_or_else(|| {
            Error::Format(format!(
                "chunk of {len} bytes shorter than `{}` header ({} bytes)",
                self.name, self.header_len
            ))
        })?;
        if self.stride == 0 {
            return Err(Error::Format(format!(
                "layout `{}` has zero stride",
                self.name
            )));
        }
        if body % self.stride != 0 {
            return Err(Error::Format(format!(
                "chunk body of {body} bytes is not a whole number of `{}` records (stride {})",
                self.name, self.stride
            )));
        }
        Ok(body / self.stride)
    }

    /// Extract typed columns (in field order) from raw chunk bytes: each
    /// field's bytes go straight into a primitive array of its declared
    /// type, one typed loop per column. Total on hostile input — any byte
    /// string yields either exactly [`CompiledLayout::row_count`] rows per
    /// column or a typed [`Error::Format`] — and bit-exact (NaN payloads
    /// and `-0.0` survive).
    pub fn decode(&self, bytes: &[u8]) -> Result<Vec<ColumnData>> {
        let nrows = self.row_count(bytes.len())?;
        let body = bytes.get(self.header_len..).unwrap_or_default();
        let little = self.endian == Endian::Little;
        self.fields
            .iter()
            .zip(self.placements(nrows))
            .map(|(f, (first, step))| {
                ColumnData::decode_strided(f.dtype, body, first, step, nrows, little)
            })
            .collect()
    }

    /// Encode typed columns into chunk bytes (header zero-filled, padding
    /// zero-filled). Columns must be in field order, equal length, and
    /// type-correct; the first faulty column in field order is the one
    /// reported, a wrong length before a wrong type.
    ///
    /// Each field is written by one typed loop over its destination
    /// (strided in a row-major record, packed in a column block), with the
    /// dtype and byte order matched once per column rather than once per
    /// value. Bit-exact: NaN payloads and `-0.0` are written as given.
    pub fn encode(&self, cols: &[Vec<Value>]) -> Result<Vec<u8>> {
        if cols.len() != self.fields.len() {
            return Err(Error::Schema(format!(
                "layout `{}` has {} fields but {} columns given",
                self.name,
                self.fields.len(),
                cols.len()
            )));
        }
        let nrows = cols.first().map_or(0, Vec::len);
        let mut out = vec![0u8; self.header_len + nrows * self.stride];
        let body = &mut out[self.header_len..];
        let little = self.endian == Endian::Little;
        let placed = cols.iter().zip(&self.fields).zip(self.placements(nrows));
        for (ci, ((col, f), (first, step))) in placed.enumerate() {
            if col.len() != nrows {
                return Err(Error::Schema(format!(
                    "column {ci} has {} rows, expected {nrows}",
                    col.len()
                )));
            }
            let dst = body.get_mut(first..).unwrap_or_default();
            encode_strided(f.dtype, col, dst, step, little).map_err(|found| {
                Error::Schema(format!(
                    "column `{}` expects {} but contains {found}",
                    f.name, f.dtype
                ))
            })?;
        }
        Ok(out)
    }

    /// Where each field's values sit in a chunk body of `nrows` records,
    /// in field order: `(offset of row 0, bytes from one row to the
    /// next)`. Row-major fields step by the record stride; column-major
    /// items (fields and padding) each own a block of `size * nrows`
    /// bytes in declaration order.
    fn placements(&self, nrows: usize) -> Vec<(usize, usize)> {
        match self.order {
            RecordOrder::RowMajor => self
                .fields
                .iter()
                .map(|f| (f.offset, self.stride))
                .collect(),
            RecordOrder::ColumnMajor => {
                let mut block_start = 0usize;
                self.walk
                    .iter()
                    .filter_map(|&(_, size, field)| {
                        let at = block_start;
                        block_start += size * nrows;
                        field.map(|_| (at, size))
                    })
                    .collect()
            }
        }
    }
}

/// Write `col` as `ty` into `dst`, one value every `step` bytes from
/// `dst[0]`, or return the type of the first value that is not a `ty`.
/// `dst` must hold `col.len()` such slots.
fn encode_strided(
    ty: DataType,
    col: &[Value],
    dst: &mut [u8],
    step: usize,
    little_endian: bool,
) -> std::result::Result<(), DataType> {
    fn write<T, const N: usize>(
        col: &[Value],
        dst: &mut [u8],
        step: usize,
        unwrap: impl Fn(Value) -> Option<T>,
        to: impl Fn(T) -> [u8; N],
    ) -> std::result::Result<(), DataType> {
        for (&v, slot) in col.iter().zip(dst.chunks_mut(step)) {
            let x = unwrap(v).ok_or(v.data_type())?;
            slot[..N].copy_from_slice(&to(x));
        }
        Ok(())
    }
    let i32_of = |v| match v {
        Value::I32(x) => Some(x),
        _ => None,
    };
    let i64_of = |v| match v {
        Value::I64(x) => Some(x),
        _ => None,
    };
    let f32_of = |v| match v {
        Value::F32(x) => Some(x),
        _ => None,
    };
    let f64_of = |v| match v {
        Value::F64(x) => Some(x),
        _ => None,
    };
    match (ty, little_endian) {
        (DataType::I32, true) => write(col, dst, step, i32_of, i32::to_le_bytes),
        (DataType::I32, false) => write(col, dst, step, i32_of, i32::to_be_bytes),
        (DataType::I64, true) => write(col, dst, step, i64_of, i64::to_le_bytes),
        (DataType::I64, false) => write(col, dst, step, i64_of, i64::to_be_bytes),
        (DataType::F32, true) => write(col, dst, step, f32_of, f32::to_le_bytes),
        (DataType::F32, false) => write(col, dst, step, f32_of, f32::to_be_bytes),
        (DataType::F64, true) => write(col, dst, step, f64_of, f64::to_le_bytes),
        (DataType::F64, false) => write(col, dst, step, f64_of, f64::to_be_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_layout;

    fn compile(src: &str) -> CompiledLayout {
        CompiledLayout::compile(&parse_layout(src).unwrap()).unwrap()
    }

    /// `decode`'s typed columns as the `Value` columns `encode` takes.
    fn decoded(c: &CompiledLayout, bytes: &[u8]) -> Vec<Vec<Value>> {
        let cols = c.decode(bytes).unwrap();
        cols.iter().map(ColumnData::to_vec).collect()
    }

    fn sample_cols() -> Vec<Vec<Value>> {
        vec![
            vec![Value::I32(1), Value::I32(-2), Value::I32(3)],
            vec![Value::F32(0.5), Value::F32(1.5), Value::F32(-2.5)],
        ]
    }

    #[test]
    fn row_major_roundtrip_with_header_and_pad() {
        let c = compile("layout t { header 16; field x: i32; pad 4; field wp: f32; }");
        assert_eq!(c.record_stride(), 12);
        let bytes = c.encode(&sample_cols()).unwrap();
        assert_eq!(bytes.len(), 16 + 3 * 12);
        assert_eq!(decoded(&c, &bytes), sample_cols());
    }

    #[test]
    fn column_major_roundtrip() {
        let c = compile("layout t { order column_major; field x: i32; field wp: f32; }");
        let bytes = c.encode(&sample_cols()).unwrap();
        // First 12 bytes are the x column.
        assert_eq!(&bytes[..4], &1i32.to_le_bytes());
        assert_eq!(&bytes[4..8], &(-2i32).to_le_bytes());
        assert_eq!(decoded(&c, &bytes), sample_cols());
    }

    #[test]
    fn big_endian_roundtrip_and_bytes() {
        let c = compile("layout t { endian big; field x: i32; field wp: f32; }");
        let cols = sample_cols();
        let bytes = c.encode(&cols).unwrap();
        assert_eq!(&bytes[..4], &1i32.to_be_bytes());
        assert_eq!(decoded(&c, &bytes), cols);
    }

    #[test]
    fn row_count_validation() {
        let c = compile("layout t { field x: i32; }");
        assert_eq!(c.row_count(12).unwrap(), 3);
        assert!(c.row_count(13).is_err());
        let h = compile("layout t { header 8; field x: i32; }");
        assert!(h.row_count(4).is_err()); // shorter than header
        assert_eq!(h.row_count(8).unwrap(), 0);
    }

    #[test]
    fn stride_overflow_is_a_typed_error() {
        // Found by `tests/prop_parsers.rs`: two pads that each fit a
        // `usize` but not together.
        let max = usize::MAX;
        let desc = parse_layout(&format!(
            "layout t {{ pad {max}; field x: i32; pad {max}; }}"
        ));
        let err = CompiledLayout::compile(&desc.unwrap()).unwrap_err();
        assert!(matches!(err, Error::Format(_)), "{err}");
    }

    #[test]
    fn encode_validates_columns() {
        let c = compile("layout t { field x: i32; field wp: f32; }");
        // Wrong column count.
        assert!(c.encode(&sample_cols()[..1]).is_err());
        // Ragged columns.
        let ragged = vec![vec![Value::I32(1)], vec![Value::F32(0.5), Value::F32(1.0)]];
        assert!(c.encode(&ragged).is_err());
        // Wrong type.
        let wrong = vec![vec![Value::F32(1.0)], vec![Value::F32(0.5)]];
        assert!(c.encode(&wrong).is_err());
    }

    /// The per-value encoder `encode` replaced — one `write_value` per row
    /// and field, every column validated before any byte is written —
    /// kept as its oracle.
    #[allow(clippy::needless_range_loop)] // row index drives several columns
    fn encode_per_value(c: &CompiledLayout, cols: &[Vec<Value>]) -> Result<Vec<u8>> {
        fn write_value(v: Value, out: &mut [u8], endian: Endian) {
            match (v, endian) {
                (Value::I32(x), Endian::Little) => out[..4].copy_from_slice(&x.to_le_bytes()),
                (Value::I32(x), Endian::Big) => out[..4].copy_from_slice(&x.to_be_bytes()),
                (Value::I64(x), Endian::Little) => out[..8].copy_from_slice(&x.to_le_bytes()),
                (Value::I64(x), Endian::Big) => out[..8].copy_from_slice(&x.to_be_bytes()),
                (Value::F32(x), Endian::Little) => out[..4].copy_from_slice(&x.to_le_bytes()),
                (Value::F32(x), Endian::Big) => out[..4].copy_from_slice(&x.to_be_bytes()),
                (Value::F64(x), Endian::Little) => out[..8].copy_from_slice(&x.to_le_bytes()),
                (Value::F64(x), Endian::Big) => out[..8].copy_from_slice(&x.to_be_bytes()),
            }
        }
        if cols.len() != c.fields.len() {
            return Err(Error::Schema(format!(
                "layout `{}` has {} fields but {} columns given",
                c.name,
                c.fields.len(),
                cols.len()
            )));
        }
        let nrows = cols.first().map(|c| c.len()).unwrap_or(0);
        for (ci, (col, f)) in cols.iter().zip(&c.fields).enumerate() {
            if col.len() != nrows {
                return Err(Error::Schema(format!(
                    "column {ci} has {} rows, expected {nrows}",
                    col.len()
                )));
            }
            if let Some(v) = col.iter().find(|v| v.data_type() != f.dtype) {
                return Err(Error::Schema(format!(
                    "column `{}` expects {} but contains {}",
                    f.name,
                    f.dtype,
                    v.data_type()
                )));
            }
        }
        let mut out = vec![0u8; c.header_len + nrows * c.stride];
        let body_start = c.header_len;
        match c.order {
            RecordOrder::RowMajor => {
                for r in 0..nrows {
                    let rec_start = body_start + r * c.stride;
                    for (ci, f) in c.fields.iter().enumerate() {
                        write_value(cols[ci][r], &mut out[rec_start + f.offset..], c.endian);
                    }
                }
            }
            RecordOrder::ColumnMajor => {
                let mut block_start = body_start;
                for &(_, size, field) in &c.walk {
                    if let Some(ci) = field {
                        for r in 0..nrows {
                            let at = block_start + r * size;
                            write_value(cols[ci][r], &mut out[at..], c.endian);
                        }
                    }
                    block_start += size * nrows;
                }
            }
        }
        Ok(out)
    }

    /// Every combination of byte order, record order and header, over all
    /// four types with padding between fields.
    fn kernel_layouts() -> Vec<CompiledLayout> {
        let mut layouts = Vec::new();
        for endian in ["little", "big"] {
            for order in ["row_major", "column_major"] {
                for header in [0, 24] {
                    layouts.push(compile(&format!(
                        "layout t {{ endian {endian}; order {order}; header {header}; \
                         field a: i32; pad 3; field b: i64; field c: f32; pad 1; field d: f64; }}"
                    )));
                }
            }
        }
        layouts
    }

    /// Five rows per type: extremes, `-0.0`, NaNs with payloads (quiet and
    /// signalling, both signs) and infinities.
    fn kernel_cols() -> Vec<Vec<Value>> {
        vec![
            [0, -1, i32::MIN, i32::MAX, 7].map(Value::I32).to_vec(),
            [0, -1, i64::MIN, i64::MAX, 1 << 40]
                .map(Value::I64)
                .to_vec(),
            [
                -0.0,
                f32::from_bits(0x7fc0_1234),
                f32::from_bits(0xffa0_0001),
                f32::INFINITY,
                1.5,
            ]
            .map(Value::F32)
            .to_vec(),
            [
                -0.0,
                f64::from_bits(0x7ff8_0000_dead_beef),
                f64::from_bits(0xfff0_0000_0000_0001),
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
            ]
            .map(Value::F64)
            .to_vec(),
        ]
    }

    #[test]
    fn typed_encode_writes_the_per_value_bytes() {
        let cols = kernel_cols();
        for c in kernel_layouts() {
            for nrows in [0, 1, 5] {
                let cols: Vec<Vec<Value>> = cols.iter().map(|col| col[..nrows].to_vec()).collect();
                let bytes = c.encode(&cols).unwrap();
                assert_eq!(bytes, encode_per_value(&c, &cols).unwrap(), "{c:?}");
                // Bit-exact both ways: NaN payloads and -0.0 come back.
                assert_eq!(c.encode(&decoded(&c, &bytes)).unwrap(), bytes);
            }
        }
    }

    #[test]
    fn typed_encode_reports_the_per_value_errors() {
        let good = kernel_cols();
        let with = |edits: &[(usize, Option<usize>, Value)]| {
            let mut cols = good.clone();
            for &(ci, row, v) in edits {
                match row {
                    Some(r) => cols[ci][r] = v,
                    None => {
                        cols[ci].pop();
                    }
                }
            }
            cols
        };
        let cases = [
            // A short column.
            with(&[(2, None, Value::F32(0.0))]),
            // A wrong type in the first row, and in the last.
            with(&[(1, Some(0), Value::I32(0))]),
            with(&[(1, Some(4), Value::F64(0.0))]),
            // Two faulty columns: the first in field order is reported,
            // whichever fault either has.
            with(&[(1, Some(4), Value::F32(0.0)), (3, None, Value::F64(0.0))]),
            with(&[(1, None, Value::I64(0)), (2, Some(0), Value::I32(0))]),
            with(&[(2, Some(0), Value::F64(0.0)), (3, Some(0), Value::F32(0.0))]),
            // A short first column makes every other one too long.
            with(&[(0, None, Value::I32(0)), (3, Some(2), Value::I64(1))]),
            // Too few columns.
            good[..3].to_vec(),
        ];
        for c in kernel_layouts() {
            for cols in &cases {
                let got = c.encode(cols).unwrap_err();
                let want = encode_per_value(&c, cols).unwrap_err();
                assert!(matches!(got, Error::Schema(_)), "{got}");
                assert_eq!(got.to_string(), want.to_string());
            }
        }
    }

    #[test]
    fn empty_chunk_roundtrip() {
        let c = compile("layout t { field x: i32; }");
        let bytes = c.encode(&[vec![]]).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(decoded(&c, &bytes), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn decode_is_order_insensitive_to_declaration_gaps() {
        // Interleaved pads in column-major create gaps between column blocks.
        let c = compile("layout t { order column_major; field x: i32; pad 2; field y: i32; }");
        let cols = vec![
            vec![Value::I32(7), Value::I32(8)],
            vec![Value::I32(70), Value::I32(80)],
        ];
        let bytes = c.encode(&cols).unwrap();
        assert_eq!(bytes.len(), 2 * (4 + 2 + 4));
        assert_eq!(decoded(&c, &bytes), cols);
    }
}
