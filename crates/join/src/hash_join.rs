//! The in-memory hash join sub-routine.
//!
//! Both QES implementations join a pair of in-memory record sets by
//! building a hash table on the left (inner) side and probing it with the
//! right (outer) side. The build stores *row indices* (the paper stores "a
//! pointer to the relevant record"), so build cost is independent of record
//! size — which is why the cost models can use flat `α_build`/`α_lookup`
//! constants. Neither build nor probe materializes row objects: keys are
//! gathered straight from the sub-tables' typed columns
//! ([`ColumnData::key_bits_into`]), and output records are only assembled
//! — again from the typed columns — for actual matches.
//!
//! [`JoinCounters`] tallies every insert and lookup; the threaded runtime
//! aggregates these across nodes and the calibration harness divides wall
//! time by them to measure `α` on the host.

use orv_chunk::SubTable;
use orv_types::{ColumnData, DataType, Record, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key-family flag: floats and ints hash into disjoint key spaces.
///
/// [`Value`] equality is family-first — `I32(7) == I64(7)` but no int
/// ever equals a float — and `Value::key_bits` is only canonical
/// *within* a family. A column's family is constant (it is determined
/// by the schema's [`DataType`]), so the join can key its hash table on
/// raw `u64` key bits and compare the per-column family vectors once
/// per probe instead of tagging every value.
#[inline]
pub(crate) fn is_float(ty: DataType) -> bool {
    matches!(ty, DataType::F32 | DataType::F64)
}

/// The canonical key bits of one key column, gathered in a single typed
/// pass.
pub(crate) fn gather_key_bits(col: &ColumnData) -> Vec<u64> {
    let mut bits = Vec::with_capacity(col.len());
    col.key_bits_into(&mut bits);
    bits
}

/// Shared counters for hash-join operations.
#[derive(Clone, Default, Debug)]
pub struct JoinCounters {
    builds: Arc<AtomicU64>,
    probes: Arc<AtomicU64>,
    results: Arc<AtomicU64>,
}

impl JoinCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hash-table inserts performed.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Hash-table lookups performed.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Result tuples produced.
    pub fn results(&self) -> u64 {
        self.results.load(Ordering::Relaxed)
    }
}

/// A built hash table over one left-side sub-table.
///
/// IJ caches these per left sub-table ("a hash-table is created only once
/// for every left sub-table"), so the type is cheap to clone and share:
/// the table and the build-side sub-table are both `Arc`ed. Keys are
/// gathered from, and matches materialised from, the sub-tables' typed
/// columns. The cache charges an entry its sub-table's
/// [`SubTable::encoded_size`] — the resident column bytes; the hash table
/// itself is not yet charged.
#[derive(Clone)]
pub struct HashJoiner {
    /// canonical key bits (one `u64` per key attribute) → row indices in
    /// the build side. Keys are compared as raw bits; families are
    /// checked once per probe (see [`is_float`]).
    table: Arc<HashMap<Box<[u64]>, Vec<u32>>>,
    /// Per-key-position family flags of the build side.
    families: Arc<[bool]>,
    /// The build-side sub-table, pinned behind an `Arc` so cache hits
    /// and clones are refcount bumps — no column vector is ever copied.
    left: Arc<SubTable>,
    /// Work multiplier (Figure 8's repeated-instructions trick): every
    /// build/probe is performed `work_factor` times.
    work_factor: u32,
}

impl HashJoiner {
    /// Build a hash table over `left`'s rows keyed by `key_attrs`.
    ///
    /// Columnar: the key bits of each key attribute are gathered in one
    /// pass per column, then the insert loop works on plain `u64`s —
    /// no per-row `Vec<Value>` is allocated.
    pub fn build(
        left: Arc<SubTable>,
        key_attrs: &[&str],
        counters: &JoinCounters,
        work_factor: u32,
    ) -> Result<Self> {
        let key_indices: Vec<usize> = key_attrs
            .iter()
            .map(|a| left.schema().require(a))
            .collect::<Result<_>>()?;
        let families: Arc<[bool]> = key_indices
            .iter()
            .map(|&i| is_float(left.schema().attrs()[i].dtype))
            .collect();
        let key_cols: Vec<Vec<u64>> = key_indices
            .iter()
            .map(|&i| gather_key_bits(left.column(i)))
            .collect();
        let nrows = left.num_rows();
        let mut table: HashMap<Box<[u64]>, Vec<u32>> = HashMap::with_capacity(nrows);
        let reps = work_factor.max(1);
        let mut key = vec![0u64; key_indices.len()];
        for rep in 0..reps {
            for r in 0..nrows {
                for (k, col) in key.iter_mut().zip(&key_cols) {
                    *k = col[r];
                }
                if rep == 0 {
                    match table.get_mut(key.as_slice()) {
                        Some(rows) => rows.push(r as u32),
                        None => {
                            table.insert(key.clone().into_boxed_slice(), vec![r as u32]);
                        }
                    }
                } else {
                    // Repeated work: re-hash and look up, discarding the
                    // result, exactly like re-running the insert
                    // instructions on a slower CPU.
                    std::hint::black_box(table.get(key.as_slice()));
                }
            }
        }
        counters
            .builds
            .fetch_add(nrows as u64 * reps as u64, Ordering::Relaxed);
        Ok(HashJoiner {
            table: Arc::new(table),
            families,
            left,
            work_factor: reps,
        })
    }

    /// Number of distinct keys in the table.
    pub fn num_keys(&self) -> usize {
        self.table.len()
    }

    /// Number of build-side rows.
    pub fn num_rows(&self) -> usize {
        self.left.num_rows()
    }

    /// Probe with every row of `right`; for each match, emit
    /// `left_row ⨝ right_row` (right key fields dropped) through `on_match`.
    /// Returns the number of result tuples.
    ///
    /// Columnar: right-side key bits are gathered per column up front;
    /// the match loop compares raw `u64`s. Matches are collected as
    /// `(left_row, right_row)` pairs and rows are materialized only for
    /// actual matches, at the end — the probe loop itself builds no
    /// [`Record`].
    pub fn probe(
        &self,
        right: &SubTable,
        key_attrs: &[&str],
        counters: &JoinCounters,
        mut on_match: impl FnMut(Record),
    ) -> Result<u64> {
        let right_keys: Vec<usize> = key_attrs
            .iter()
            .map(|a| right.schema().require(a))
            .collect::<Result<_>>()?;
        let nrows = right.num_rows();
        // Family mismatch on any key position (int column joined against
        // float column) means no right key can equal any build key —
        // `Value` equality never crosses families. Raw key bits could
        // collide across families, so skip lookups entirely; the op
        // counters still tick as if every lookup had run.
        let families_match = right_keys.len() == self.families.len()
            && right_keys
                .iter()
                .zip(self.families.iter())
                .all(|(&i, &fam)| is_float(right.schema().attrs()[i].dtype) == fam);
        let mut produced = 0u64;
        if families_match {
            let key_cols: Vec<Vec<u64>> = right_keys
                .iter()
                .map(|&i| gather_key_bits(right.column(i)))
                .collect();
            let mut key = vec![0u64; right_keys.len()];
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for rep in 0..self.work_factor {
                for ri in 0..nrows {
                    for (k, col) in key.iter_mut().zip(&key_cols) {
                        *k = col[ri];
                    }
                    if rep > 0 {
                        std::hint::black_box(self.table.get(key.as_slice()));
                        continue;
                    }
                    if let Some(rows) = self.table.get(key.as_slice()) {
                        pairs.extend(rows.iter().map(|&li| (li, ri as u32)));
                    }
                }
            }
            produced = pairs.len() as u64;
            // Materialize the matches: left row ++ right row minus its
            // key fields. This is the row edge of the join.
            let left_cols: Vec<&ColumnData> = (0..self.left.schema().arity())
                .map(|c| self.left.column(c))
                .collect();
            let right_cols: Vec<&ColumnData> = (0..right.schema().arity())
                .filter(|c| !right_keys.contains(c))
                .map(|c| right.column(c))
                .collect();
            for (li, ri) in pairs {
                let mut vals = Vec::with_capacity(left_cols.len() + right_cols.len());
                vals.extend(left_cols.iter().map(|c| c.value(li as usize)));
                vals.extend(right_cols.iter().map(|c| c.value(ri as usize)));
                on_match(Record::new(vals));
            }
        }
        counters
            .probes
            .fetch_add(nrows as u64 * self.work_factor as u64, Ordering::Relaxed);
        counters.results.fetch_add(produced, Ordering::Relaxed);
        Ok(produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::{ColumnBatch, Schema, SubTableId, Value};
    use std::sync::Arc as StdArc;

    fn subtable(table: u32, schema: StdArc<Schema>, cols: Vec<ColumnData>) -> SubTable {
        let batch = ColumnBatch::from_columns(cols).unwrap();
        SubTable::new(SubTableId::new(table, 0u32), schema, batch).unwrap()
    }

    fn left() -> SubTable {
        let schema = StdArc::new(Schema::grid(&["x", "y"], &["oilp"]).unwrap());
        let cols = vec![
            ColumnData::I32(vec![0, 1, 1]),
            ColumnData::I32(vec![0, 0, 1]),
            ColumnData::F32(vec![0.1, 0.2, 0.3]),
        ];
        subtable(0, schema, cols)
    }

    fn right() -> SubTable {
        let schema = StdArc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
        let cols = vec![
            ColumnData::I32(vec![1, 0, 2]),
            ColumnData::I32(vec![0, 0, 2]),
            ColumnData::F32(vec![0.5, 0.6, 0.7]),
        ];
        subtable(1, schema, cols)
    }

    #[test]
    fn joins_matching_keys() {
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["x", "y"], &counters, 1).unwrap();
        assert_eq!(hj.num_rows(), 3);
        assert_eq!(hj.num_keys(), 3);
        let mut out = Vec::new();
        let n = hj
            .probe(&right(), &["x", "y"], &counters, |r| out.push(r))
            .unwrap();
        assert_eq!(n, 2);
        // (1,0) matches and (0,0) matches; (2,2) does not.
        out.sort_by_key(|r| (r.values()[0], r.values()[1]));
        assert_eq!(
            out[0].values(),
            &[
                Value::I32(0),
                Value::I32(0),
                Value::F32(0.1),
                Value::F32(0.6)
            ]
        );
        assert_eq!(
            out[1].values(),
            &[
                Value::I32(1),
                Value::I32(0),
                Value::F32(0.2),
                Value::F32(0.5)
            ]
        );
        assert_eq!(counters.builds(), 3);
        assert_eq!(counters.probes(), 3);
        assert_eq!(counters.results(), 2);
    }

    #[test]
    fn duplicate_build_keys_fan_out() {
        let schema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let cols = vec![ColumnData::I32(vec![5, 5]), ColumnData::F32(vec![1.0, 2.0])];
        let l = subtable(0, schema.clone(), cols);
        let r_cols = vec![ColumnData::I32(vec![5]), ColumnData::F32(vec![9.0])];
        let r = subtable(1, schema, r_cols);
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(l), &["x"], &counters, 1).unwrap();
        assert_eq!(hj.num_keys(), 1);
        let n = hj.probe(&r, &["x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn work_factor_multiplies_op_counts_not_results() {
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["x", "y"], &counters, 3).unwrap();
        let n = hj.probe(&right(), &["x", "y"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2, "results unchanged by work factor");
        assert_eq!(counters.builds(), 9);
        assert_eq!(counters.probes(), 9);
        assert_eq!(counters.results(), 2);
    }

    #[test]
    fn missing_key_attr_errors() {
        let counters = JoinCounters::new();
        assert!(HashJoiner::build(StdArc::new(left()), &["zzz"], &counters, 1).is_err());
        let hj = HashJoiner::build(StdArc::new(left()), &["x"], &counters, 1).unwrap();
        assert!(hj.probe(&right(), &["zzz"], &counters, |_| {}).is_err());
    }

    #[test]
    fn empty_sides_produce_nothing() {
        let counters = JoinCounters::new();
        let schema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let empty = StdArc::new(SubTable::empty(SubTableId::new(0u32, 0u32), schema));
        let hj = HashJoiner::build(StdArc::clone(&empty), &["x"], &counters, 1).unwrap();
        let n = hj.probe(&empty, &["x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 0);
        assert_eq!(counters.builds(), 0);
    }

    #[test]
    fn family_mismatch_matches_nothing_but_counts_probes() {
        // Build keyed on an int column, probe keyed on a float column
        // whose key bits collide with the int's: `Value` equality never
        // crosses families, so the join must produce nothing.
        let counters = JoinCounters::new();
        let lschema = StdArc::new(Schema::grid(&["x"], &["p"]).unwrap());
        let l_cols = vec![ColumnData::I32(vec![1]), ColumnData::F32(vec![0.5])];
        let l = subtable(0, lschema, l_cols);
        let rschema = StdArc::new(
            Schema::new(vec![orv_types::Attribute::scalar(
                "x",
                orv_types::DataType::F64,
            )])
            .unwrap(),
        );
        let bits_one = f64::from_bits(Value::I32(1).key_bits());
        let r = subtable(1, rschema, vec![ColumnData::F64(vec![bits_one])]);
        let hj = HashJoiner::build(StdArc::new(l), &["x"], &counters, 1).unwrap();
        let n = hj
            .probe(&r, &["x"], &counters, |_| panic!("no match expected"))
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(counters.probes(), 1, "probe work still counted");
        assert_eq!(counters.results(), 0);
    }

    #[test]
    fn cloned_joiner_shares_build_side() {
        let counters = JoinCounters::new();
        let l = StdArc::new(left());
        let hj = HashJoiner::build(StdArc::clone(&l), &["x", "y"], &counters, 1).unwrap();
        let hj2 = hj.clone();
        assert!(
            StdArc::ptr_eq(&hj.left, &hj2.left),
            "clone is a refcount bump"
        );
        assert!(
            StdArc::ptr_eq(&hj2.left, &l),
            "build side pinned, not copied"
        );
    }

    #[test]
    fn key_order_respected_across_schemas() {
        // Joining on (y, x) — key positions differ from storage order.
        let counters = JoinCounters::new();
        let hj = HashJoiner::build(StdArc::new(left()), &["y", "x"], &counters, 1).unwrap();
        let n = hj.probe(&right(), &["y", "x"], &counters, |_| {}).unwrap();
        assert_eq!(n, 2);
    }
}
