//! Scalar value model of virtual tables.
//!
//! Oil-reservoir datasets carry integer grid coordinates plus 4-byte float
//! properties (saturation, pressure, velocity components, ...). We support
//! the four fixed-width scalar types those datasets use; every type has a
//! fixed on-disk width so record sizes (`RS_R`, `RS_S` in the cost models)
//! are schema-derivable.

use std::cmp::Ordering;
use std::fmt;

/// The type of a scalar attribute.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DataType {
    /// 32-bit signed integer (grid coordinates).
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE float (most physical properties; paper uses 4-byte attrs).
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl DataType {
    /// On-disk width in bytes. Fixed per type, so a record's size is the sum
    /// of its attribute widths.
    #[inline]
    pub fn width(self) -> usize {
        match self {
            DataType::I32 | DataType::F32 => 4,
            DataType::I64 | DataType::F64 => 8,
        }
    }

    /// Parse from the spelling used by the layout language.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "i32" => Some(DataType::I32),
            "i64" => Some(DataType::I64),
            "f32" => Some(DataType::F32),
            "f64" => Some(DataType::F64),
            _ => None,
        }
    }

    /// Name as spelled in the layout language.
    pub fn name(self) -> &'static str {
        match self {
            DataType::I32 => "i32",
            DataType::I64 => "i64",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar attribute value.
///
/// `Value` implements a *total* order: NaN floats sort greater than all
/// other floats and equal to each other, so values can key hash tables and
/// sort runs without panics. Cross-type comparison is by numeric value
/// within the int and float families, and ints order before floats across
/// families only via [`Value::as_f64`] comparisons done by callers.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
}

impl Value {
    /// The value's type tag.
    #[inline]
    pub fn data_type(self) -> DataType {
        match self {
            Value::I32(_) => DataType::I32,
            Value::I64(_) => DataType::I64,
            Value::F32(_) => DataType::F32,
            Value::F64(_) => DataType::F64,
        }
    }

    /// Numeric view as `f64` (lossy for big i64).
    #[inline]
    pub fn as_f64(self) -> f64 {
        match self {
            Value::I32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
        }
    }

    /// Integer view, if this is an integer value.
    #[inline]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Value::I32(v) => Some(v as i64),
            Value::I64(v) => Some(v),
            Value::F32(_) | Value::F64(_) => None,
        }
    }

    /// A canonical 8-byte key for hashing/equality that identifies the value
    /// within its type family (ints by numeric value, floats by normalized
    /// bit pattern with `-0.0 → +0.0` and all NaNs collapsed).
    #[inline]
    pub fn key_bits(self) -> u64 {
        match self {
            Value::I32(v) => v as i64 as u64,
            Value::I64(v) => v as u64,
            Value::F32(v) => normalize_f64_bits(v as f64),
            Value::F64(v) => normalize_f64_bits(v),
        }
    }

    /// An 8-byte sort key that orders exactly as [`Value::cmp`] does
    /// *within* a type family: ints by numeric value, floats by
    /// `total_cmp` after the same normalisation as [`Value::key_bits`]
    /// (`-0.0 == +0.0`, every NaN equal and above `+∞`). A column has one
    /// family, so comparing these per column is comparing the values.
    #[inline]
    pub fn order_bits(self) -> u64 {
        const SIGN: u64 = 1 << 63;
        match self.as_i64() {
            Some(v) => v as u64 ^ SIGN,
            None => {
                let bits = total_f64(self.as_f64()).to_bits();
                if bits & SIGN == 0 {
                    bits | SIGN
                } else {
                    !bits
                }
            }
        }
    }
}

#[inline]
fn normalize_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        f64::NAN.to_bits()
    } else if v == 0.0 {
        0.0f64.to_bits() // collapse -0.0 onto +0.0
    } else {
        v.to_bits()
    }
}

#[inline]
fn total_f64(v: f64) -> f64 {
    // Normalize for IEEE total ordering: all NaNs collapse to the canonical
    // positive NaN (which `total_cmp` orders above +∞) and -0.0 onto +0.0,
    // matching `key_bits`/`Hash`.
    if v.is_nan() {
        f64::NAN
    } else if v == 0.0 {
        0.0
    } else {
        v
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order by family first (ints before floats), then by numeric value
        // within the family. Cross-family comparisons carry no semantic
        // meaning for joins (schemas type-check first); they only need to be
        // total and consistent with Eq/Hash, which also tag the family.
        let fam = |v: &Value| matches!(v, Value::F32(_) | Value::F64(_)) as u8;
        fam(self)
            .cmp(&fam(other))
            .then_with(|| match (self, other) {
                #[allow(clippy::unwrap_used, reason = "fam(a)==fam(b)==0 here, so both are integer variants and as_i64 is total")]
                (a, b) if fam(a) == 0 => a.as_i64().unwrap().cmp(&b.as_i64().unwrap()),
                (a, b) => total_f64(a.as_f64()).total_cmp(&total_f64(b.as_f64())),
            })
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash must agree with Eq: use the family-normalized key plus a
        // family tag (int vs float) since 1i32 == 1i64 but 1.0f32 != 1i32.
        let family = matches!(self, Value::F32(_) | Value::F64(_)) as u8;
        family.hash(state);
        self.key_bits().hash(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn widths_match_types() {
        assert_eq!(DataType::I32.width(), 4);
        assert_eq!(DataType::F32.width(), 4);
        assert_eq!(DataType::I64.width(), 8);
        assert_eq!(DataType::F64.width(), 8);
    }

    #[test]
    fn parse_and_name_roundtrip() {
        for ty in [DataType::I32, DataType::I64, DataType::F32, DataType::F64] {
            assert_eq!(DataType::parse(ty.name()), Some(ty));
        }
        assert_eq!(DataType::parse("u8"), None);
    }

    #[test]
    fn cross_width_int_equality() {
        assert_eq!(Value::I32(7), Value::I64(7));
        assert_ne!(Value::I32(7), Value::I64(8));
        assert_eq!(h(&Value::I32(7)), h(&Value::I64(7)));
    }

    #[test]
    fn float_total_order_handles_nan_and_neg_zero() {
        let nan = Value::F64(f64::NAN);
        let nan32 = Value::F32(f32::NAN);
        assert_eq!(nan, nan);
        assert_eq!(nan, nan32);
        assert!(Value::F64(1e300) < nan);
        assert_eq!(Value::F64(0.0), Value::F64(-0.0));
        assert_eq!(h(&Value::F64(0.0)), h(&Value::F64(-0.0)));
        assert_eq!(h(&nan), h(&Value::F32(f32::NAN)));
    }

    #[test]
    fn order_bits_order_as_cmp_does_within_a_family() {
        let ints = [
            Value::I64(i64::MIN),
            Value::I32(i32::MIN),
            Value::I32(-1),
            Value::I64(0),
            Value::I32(0),
            Value::I32(7),
            Value::I64(7),
            Value::I64(i64::MAX),
        ];
        let floats = [
            Value::F64(f64::NEG_INFINITY),
            Value::F32(-2.5),
            Value::F64(-f64::MIN_POSITIVE),
            Value::F64(-0.0),
            Value::F32(0.0),
            Value::F64(1e-300),
            Value::F32(0.1),
            Value::F64(0.1),
            Value::F64(f64::INFINITY),
            Value::F64(f64::NAN),
            Value::F32(-f32::NAN),
            Value::F64(f64::from_bits(0xFFF8_0000_0000_0001)),
        ];
        for family in [&ints[..], &floats[..]] {
            for a in family {
                for b in family {
                    assert_eq!(a.order_bits().cmp(&b.order_bits()), a.cmp(b), "{a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn ints_and_floats_are_distinct_families() {
        // 1i32 must not equal 1.0f64 (they live in different hash families).
        assert_ne!(Value::I32(1), Value::F64(1.0));
    }

    #[test]
    fn sort_is_total_and_stable_under_mixture() {
        let mut v = [
            Value::F64(2.5),
            Value::I32(3),
            Value::F32(f32::NAN),
            Value::I64(-1),
            Value::F64(-0.0),
        ];
        v.sort();
        // We only require: no panic, NaN last among float comparisons.
        assert_eq!(*v.last().unwrap(), Value::F32(f32::NAN));
    }
}
