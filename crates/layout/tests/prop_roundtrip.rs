//! Property tests: encode→decode is the identity — bit for bit — for
//! arbitrary layouts and arbitrary column data, and decode is total on
//! arbitrary bytes.

use orv_layout::{CompiledLayout, Endian, Item, LayoutDesc, RecordOrder};
use orv_types::{ColumnData, DataType, Error, Value};
use proptest::prelude::*;

fn dtype_strategy() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::I32),
        Just(DataType::I64),
        Just(DataType::F32),
        Just(DataType::F64),
    ]
}

fn layout_strategy() -> impl Strategy<Value = LayoutDesc> {
    let endian = prop_oneof![Just(Endian::Little), Just(Endian::Big)];
    let order = prop_oneof![Just(RecordOrder::RowMajor), Just(RecordOrder::ColumnMajor)];
    let item = prop_oneof![
        3 => dtype_strategy().prop_map(|d| (Some(d), 0usize)),
        1 => (1usize..8).prop_map(|n| (None, n)),
    ];
    (
        endian,
        order,
        0usize..32,
        proptest::collection::vec(item, 1..8),
    )
        .prop_map(|(endian, order, header_len, raw_items)| {
            let mut items = Vec::new();
            let mut fidx = 0;
            for (field, pad) in raw_items {
                match field {
                    Some(dtype) => {
                        items.push(Item::Field {
                            name: format!("f{fidx}"),
                            dtype,
                        });
                        fidx += 1;
                    }
                    None => items.push(Item::Pad(pad)),
                }
            }
            if fidx == 0 {
                items.push(Item::Field {
                    name: "f0".into(),
                    dtype: DataType::I32,
                });
            }
            LayoutDesc {
                name: "prop".into(),
                endian,
                order,
                header_len,
                items,
            }
        })
}

/// A value of `dtype` with exactly the (low) bits of `bits` — every bit
/// pattern, so NaN payloads, infinities, subnormals and `-0.0` all occur.
fn value_of_bits(dtype: DataType, bits: u64) -> Value {
    match dtype {
        DataType::I32 => Value::I32(bits as i32),
        DataType::I64 => Value::I64(bits as i64),
        DataType::F32 => Value::F32(f32::from_bits(bits as u32)),
        DataType::F64 => Value::F64(f64::from_bits(bits)),
    }
}

/// A decoded column as `(type, bit patterns, capacity in bytes)`.
fn bits_of(col: &ColumnData) -> (DataType, Vec<u64>, usize) {
    let (bits, cap): (Vec<u64>, usize) = match col {
        ColumnData::I32(v) => (v.iter().map(|&x| x as u32 as u64).collect(), v.capacity()),
        ColumnData::I64(v) => (v.iter().map(|&x| x as u64).collect(), v.capacity()),
        ColumnData::F32(v) => (v.iter().map(|x| x.to_bits() as u64).collect(), v.capacity()),
        ColumnData::F64(v) => (v.iter().map(|x| x.to_bits()).collect(), v.capacity()),
    };
    (col.dtype(), bits, cap * col.dtype().width())
}

/// What `decode` must read, computed from the description alone: the
/// bit pattern of every field value at its offset in `bytes`.
fn expected_bits(desc: &LayoutDesc, bytes: &[u8], nrows: usize) -> Vec<Vec<u64>> {
    let body = &bytes[desc.header_len..];
    let stride = desc.record_stride();
    let mut out = Vec::new();
    let mut off = 0;
    for item in &desc.items {
        let w = match item {
            Item::Field { dtype, .. } => dtype.width(),
            Item::Pad(n) => *n,
        };
        if let Item::Field { .. } = item {
            let value = |r: usize| {
                let at = match desc.order {
                    RecordOrder::RowMajor => r * stride + off,
                    // Items before this one own `off * nrows` bytes.
                    RecordOrder::ColumnMajor => off * nrows + r * w,
                };
                let mut le = [0u8; 8];
                le[..w].copy_from_slice(&body[at..at + w]);
                if desc.endian == Endian::Big {
                    le[..w].reverse();
                }
                u64::from_le_bytes(le)
            };
            out.push((0..nrows).map(value).collect());
        }
        off += w;
    }
    out
}

fn value_for(dtype: DataType, seed: i64) -> Value {
    match dtype {
        DataType::I32 => Value::I32(seed as i32),
        DataType::I64 => Value::I64(seed.wrapping_mul(1 << 33)),
        DataType::F32 => Value::F32(seed as f32 * 0.37),
        DataType::F64 => Value::F64(seed as f64 * -1.0e6),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_identity(desc in layout_strategy(), nrows in 0usize..40, seed in any::<i64>()) {
        let compiled = CompiledLayout::compile(&desc).unwrap();
        let cols: Vec<Vec<Value>> = compiled
            .fields()
            .iter()
            .enumerate()
            .map(|(ci, (_, dtype))| {
                (0..nrows)
                    .map(|r| value_for(*dtype, seed.wrapping_add((ci * 1000 + r) as i64)))
                    .collect()
            })
            .collect();
        let bytes = compiled.encode(&cols).unwrap();
        prop_assert_eq!(bytes.len(), desc.header_len + nrows * desc.record_stride());
        let back: Vec<Vec<Value>> =
            compiled.decode(&bytes).unwrap().iter().map(ColumnData::to_vec).collect();
        prop_assert_eq!(back, cols);
    }

    /// `decode(encode(cols))` reproduces every bit pattern, NaN payloads
    /// and `-0.0` included (`Value` equality would collapse those).
    #[test]
    fn roundtrip_is_bit_exact(
        desc in layout_strategy(),
        raw in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        let specials = [
            (-0.0f64).to_bits(),
            (-0.0f32).to_bits() as u64,
            0x7ff8_0000_dead_beef, // f64 NaN with a payload
            0xffc1_2345,           // negative f32 NaN with a payload
            f64::NEG_INFINITY.to_bits(),
        ];
        let raw: Vec<u64> = specials.into_iter().chain(raw).collect();
        let compiled = CompiledLayout::compile(&desc).unwrap();
        let fields = compiled.fields();
        let cols: Vec<Vec<Value>> = (0..fields.len())
            .map(|ci| {
                raw.iter()
                    .map(|&b| value_of_bits(fields[ci].1, b.rotate_left(ci as u32 * 8)))
                    .collect()
            })
            .collect();
        let bytes = compiled.encode(&cols).unwrap();
        let back = compiled.decode(&bytes).unwrap();
        prop_assert_eq!(back.len(), cols.len());
        for (ci, col) in back.iter().enumerate() {
            let (dtype, bits, _) = bits_of(col);
            prop_assert_eq!(dtype, fields[ci].1);
            let want: Vec<u64> = cols[ci]
                .iter()
                .map(|v| match *v {
                    Value::I32(x) => x as u32 as u64,
                    Value::I64(x) => x as u64,
                    Value::F32(x) => x.to_bits() as u64,
                    Value::F64(x) => x.to_bits(),
                })
                .collect();
            prop_assert_eq!(bits, want);
        }
    }

    /// Decode is total: for any layout (every order/endian/header/pad
    /// combination the strategy draws) and any byte string, it returns
    /// either exactly `row_count(len)` rows in every column, each value
    /// the bytes at its offset in the description, or a typed
    /// `Error::Format`. It never panics and never reserves more than the
    /// chunk body's worth of memory.
    #[test]
    fn decode_is_total_on_arbitrary_bytes(
        desc in layout_strategy(),
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        // Also lengths that are whole records by construction.
        whole in 0usize..6,
        exact in any::<bool>(),
    ) {
        let compiled = CompiledLayout::compile(&desc).unwrap();
        let mut bytes = bytes;
        if exact {
            bytes.resize(desc.header_len + whole * desc.record_stride(), 0xA5);
        }
        match (compiled.row_count(bytes.len()), compiled.decode(&bytes)) {
            (Ok(nrows), Ok(cols)) => {
                prop_assert_eq!(cols.len(), compiled.fields().len());
                let want = expected_bits(&desc, &bytes, nrows);
                let mut reserved = 0;
                for ((col, (_, dtype)), want) in cols.iter().zip(compiled.fields()).zip(want) {
                    let (got_dtype, bits, cap) = bits_of(col);
                    prop_assert_eq!(got_dtype, dtype);
                    prop_assert_eq!(bits.len(), nrows);
                    prop_assert_eq!(bits, want);
                    reserved += cap;
                }
                prop_assert!(reserved <= bytes.len(), "{reserved} > {}", bytes.len());
            }
            (Err(Error::Format(_)), Err(Error::Format(_))) => prop_assert!(!exact),
            (count, decoded) => {
                prop_assert!(false, "row_count {count:?} disagrees with decode {decoded:?}");
            }
        }
    }

    #[test]
    fn source_roundtrip_identity(desc in layout_strategy()) {
        let src = desc.to_source();
        let back = orv_layout::parse_layout(&src).unwrap();
        prop_assert_eq!(back, desc);
    }

    #[test]
    fn row_count_agrees_with_encode(desc in layout_strategy(), nrows in 0usize..40) {
        let compiled = CompiledLayout::compile(&desc).unwrap();
        let cols: Vec<Vec<Value>> = compiled
            .fields()
            .iter()
            .map(|(_, dtype)| (0..nrows).map(|r| value_for(*dtype, r as i64)).collect())
            .collect();
        let bytes = compiled.encode(&cols).unwrap();
        prop_assert_eq!(compiled.row_count(bytes.len()).unwrap(), nrows);
    }
}
