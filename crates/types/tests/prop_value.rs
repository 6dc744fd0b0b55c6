//! Property tests: `Value`'s total order obeys the `Ord` laws (with NaNs
//! and mixed types), and `Hash` agrees with `Eq`.

use orv_types::{DataType, Value};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i32>().prop_map(Value::I32),
        any::<i64>().prop_map(Value::I64),
        any::<f32>().prop_map(Value::F32),
        any::<f64>().prop_map(Value::F64),
        Just(Value::F64(f64::NAN)),
        Just(Value::F32(f32::NAN)),
        Just(Value::F64(0.0)),
        Just(Value::F64(-0.0)),
        Just(Value::F64(f64::INFINITY)),
        Just(Value::F64(f64::NEG_INFINITY)),
    ]
}

fn hash_of(v: &Value) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

proptest! {
    #[test]
    fn ord_is_total_and_antisymmetric(a in value_strategy(), b in value_strategy()) {
        use std::cmp::Ordering::*;
        match a.cmp(&b) {
            Less => prop_assert_eq!(b.cmp(&a), Greater),
            Greater => prop_assert_eq!(b.cmp(&a), Less),
            Equal => {
                prop_assert_eq!(b.cmp(&a), Equal);
                prop_assert_eq!(&a, &b);
            }
        }
    }

    #[test]
    fn ord_is_transitive(a in value_strategy(), b in value_strategy(), c in value_strategy()) {
        let mut v = [a, b, c];
        v.sort(); // panics if the comparator is inconsistent
        prop_assert!(v[0] <= v[1] && v[1] <= v[2]);
        prop_assert!(v[0] <= v[2]);
    }

    #[test]
    fn hash_agrees_with_eq(a in value_strategy(), b in value_strategy()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn key_bits_identify_equal_values(a in value_strategy(), b in value_strategy()) {
        if a == b {
            prop_assert_eq!(a.key_bits(), b.key_bits());
        }
    }

    #[test]
    fn int_widening_is_consistent(v in any::<i32>()) {
        prop_assert_eq!(Value::I32(v), Value::I64(v as i64));
        prop_assert_eq!(hash_of(&Value::I32(v)), hash_of(&Value::I64(v as i64)));
    }

    #[test]
    fn type_widths_cover_all(ty in prop_oneof![
        Just(DataType::I32), Just(DataType::I64), Just(DataType::F32), Just(DataType::F64)
    ]) {
        prop_assert!(ty.width() == 4 || ty.width() == 8);
        prop_assert_eq!(DataType::parse(ty.name()), Some(ty));
    }
}
