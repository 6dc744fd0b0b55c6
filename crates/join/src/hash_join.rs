//! The in-memory hash join sub-routine.
//!
//! Both QES implementations join a pair of in-memory record sets by
//! building a hash table on the left (inner) side and probing it with the
//! right (outer) side. The table stores *row indices* (the paper stores "a
//! pointer to the relevant record"), so build cost is independent of record
//! size — which is why the cost models can use flat `α_build`/`α_lookup`
//! constants.
//!
//! ## Table layout
//!
//! [`FlatTable`] is two flat arrays of build row numbers and allocates
//! nothing per key. It holds no key: a key is confirmed against the build
//! side's own typed key columns, which [`HashJoiner`] pins.
//!
//! * `slots` — an open-addressing table (power of two, load ≤ ½, linear
//!   probing) over *distinct* keys: a slot holds the lowest build row
//!   with that key, found by a multiply-mix hash of the key's canonical
//!   bits ([`orv_types::ColumnData::key_bits_into`]);
//! * `next` — one `u32` per build row chaining the rows that share a key,
//!   in ascending row order, so duplicates cost one word each and a
//!   lookup that found its slot walks matches only.
//!
//! That is 12 bytes per build row at load ½ ([`HashJoiner::table_bytes`]),
//! what the Caching Service charges a cached hash table on top of its
//! sub-table. The build rows' key bits and hashes live in a scratch
//! buffer while the rows are inserted and are dropped once the table is
//! built.
//!
//! ## One kernel, no rows
//!
//! [`HashJoiner::matches`] is the probe kernel: it returns the matched
//! `(build row, probe row)` index vectors and builds nothing else. It runs
//! in stages, so that its random loads are independent of each other and
//! its compares are typed: hash every probe row; load every row's
//! home-slot head; confirm the heads with one typed loop per key column;
//! walk on along the slot scan only for the rows whose head holds another
//! key; walk `next` from every found head (a key with one build row ends
//! its chain at once). A count-only join takes the vectors' length; a
//! collecting join gathers typed output columns through them
//! ([`HashJoiner::gather`]) — the left columns by build row, the right
//! non-key columns by probe row — one [`ColumnBatch`] per sub-table pair
//! or bucket. [`HashJoiner::probe`] —
//! kernel, gather, then the rows in blocks, one [`Record`] each into a
//! callback — is kept for the benchmark ladder's `join.hash_probe` rung
//! and the unit tests; neither engine calls it.
//!
//! [`JoinCounters`] tallies every insert and lookup; the threaded runtime
//! aggregates these across nodes and the calibration harness divides wall
//! time by them to measure `α` on the host.

use orv_chunk::SubTable;
use orv_types::{ColumnBatch, ColumnData, DataType, Error, Record, Result, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key-family flag: floats and ints hash into disjoint key spaces.
///
/// [`Value`] equality is family-first — `I32(7) == I64(7)` but no int
/// ever equals a float — and `Value::key_bits` is only canonical
/// *within* a family. A column's family is constant (it is determined
/// by the schema's [`DataType`]), so the join can key its hash table on
/// raw `u64` key bits and compare the key columns' families once per
/// probe instead of tagging every value.
#[inline]
pub(crate) fn is_float(ty: DataType) -> bool {
    matches!(ty, DataType::F32 | DataType::F64)
}

/// Row indices are `u32`s with [`EMPTY`] reserved, on both sides.
fn check_row_count(st: &SubTable) -> Result<()> {
    if st.num_rows() > u32::MAX as usize {
        return Err(Error::Config(format!(
            "sub-table {} has {} rows; the hash join indexes rows with 32 bits",
            st.id(),
            st.num_rows()
        )));
    }
    Ok(())
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

/// Build rows of the tables the joins build: a 64×64 chunk. IJ builds one
/// table per left sub-table, and Grace Hash joins a bucket pair in slices
/// of about this many build rows, so that its tables fit in the CPU cache
/// as these do; a table that outgrows the cache pays memory latency per
/// operation instead, several times more. Calibration measures `α` on
/// tables of this size.
pub(crate) const SUBTABLE_ROWS: usize = 4096;

/// No row: an empty slot, or the end of a duplicate chain.
const EMPTY: u32 = u32::MAX;

/// Fold one key word into a multiply-mix hash. Keys are grid coordinates
/// and physical properties read from the dataset, not attacker-chosen
/// strings; a collision costs one more key comparison.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// The hash of one key's words, as [`KeyBits::hashes`] computes it for
/// every row at once.
#[cfg(test)]
fn hash_words(key: &[u64]) -> u64 {
    key.iter().fold(0, |h, &w| mix(h, w))
}

/// The canonical key bits of a sub-table's rows over its key columns,
/// column-major: key `k`'s bits are `bits[k * rows..(k + 1) * rows]`.
struct KeyBits {
    bits: Vec<u64>,
    rows: usize,
}

impl KeyBits {
    /// `st`'s key bits over `key_cols`, one typed pass per column.
    fn gather(st: &SubTable, key_cols: &[usize]) -> Self {
        let mut bits = Vec::with_capacity(st.num_rows() * key_cols.len());
        for &ci in key_cols {
            st.column(ci).key_bits_into(&mut bits);
        }
        KeyBits {
            bits,
            rows: st.num_rows(),
        }
    }

    /// Key `k`'s bits, one per row.
    #[inline]
    fn column(&self, k: usize) -> &[u64] {
        &self.bits[k * self.rows..(k + 1) * self.rows]
    }

    /// Whether rows `a` and `b` have the same key.
    #[inline]
    fn same(&self, a: usize, b: usize) -> bool {
        self.bits
            .chunks_exact(self.rows)
            .all(|col| col[a] == col[b])
    }

    /// Every row's hash, folded in one key column at a time.
    fn hashes(&self) -> Vec<u64> {
        let mut hashes = vec![0u64; self.rows];
        for col in self.bits.chunks_exact(self.rows.max(1)) {
            for (h, &w) in hashes.iter_mut().zip(col) {
                *h = mix(*h, w);
            }
        }
        hashes
    }
}

/// The hash table proper (see the module docs for the layout).
struct FlatTable {
    slots: Vec<u32>,
    next: Vec<u32>,
    num_keys: usize,
}

impl FlatTable {
    /// Index `st`'s rows over its key columns `key_cols`, and return the
    /// table with the rows' key bits, a scratch buffer for the caller to
    /// drop. Rows go in highest first and each takes over its key's slot,
    /// so every slot ends up holding its key's lowest row and every chain
    /// ascends.
    fn build(st: &SubTable, key_cols: &[usize]) -> (Self, KeyBits) {
        let nrows = st.num_rows();
        // The table is allocated before the scratch, so that freeing the
        // scratch does not leave a hole beneath a cached table's arrays.
        let mut table = FlatTable {
            slots: vec![EMPTY; (2 * nrows).next_power_of_two()],
            next: vec![EMPTY; nrows],
            num_keys: 0,
        };
        let keys = KeyBits::gather(st, key_cols);
        let hashes = keys.hashes();
        for r in (0..nrows).rev() {
            let slot = table.slot_of(hashes[r], |head| keys.same(head, r));
            let head = std::mem::replace(&mut table.slots[slot], r as u32);
            table.next[r] = head;
            table.num_keys += (head == EMPTY) as usize;
        }
        (table, keys)
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot whose head row `is_key` accepts, or the empty slot where
    /// that key would go. The table is never more than half full, so the
    /// scan ends.
    #[inline]
    fn slot_of(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> usize {
        let mask = self.mask();
        let mut slot = hash as usize & mask;
        loop {
            let head = self.slots[slot];
            if head == EMPTY || is_key(head as usize) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    fn bytes(&self) -> usize {
        (self.slots.len() + self.next.len()) * size_of::<u32>()
    }
}

/// `same[r] &=` whether build row `heads[r]` of the build key column `col`
/// has the probe key bits `bits[r]`, false at an [`EMPTY`] head: one
/// typed loop per column.
fn confirm_heads(col: &ColumnData, bits: &[u64], heads: &[u32], same: &mut [bool]) {
    fn confirm<T: Copy>(
        values: &[T],
        key_bits: impl Fn(T) -> u64,
        bits: &[u64],
        heads: &[u32],
        same: &mut [bool],
    ) {
        for ((s, &b), &h) in same.iter_mut().zip(bits).zip(heads) {
            *s &= values.get(h as usize).is_some_and(|&v| key_bits(v) == b);
        }
    }
    match col {
        ColumnData::I32(v) => confirm(v, |x| Value::I32(x).key_bits(), bits, heads, same),
        ColumnData::I64(v) => confirm(v, |x| Value::I64(x).key_bits(), bits, heads, same),
        ColumnData::F32(v) => confirm(v, |x| Value::F32(x).key_bits(), bits, heads, same),
        ColumnData::F64(v) => confirm(v, |x| Value::F64(x).key_bits(), bits, heads, same),
    }
}

/// The matched row pairs of one probe: `build[i]` of the build side
/// joins `probe[i]` of the probe side. Probe rows ascend; within one
/// probe row, build rows ascend.
#[derive(Default)]
pub(crate) struct Matches {
    pub(crate) build: Vec<u32>,
    pub(crate) probe: Vec<u32>,
}

impl Matches {
    /// Number of result tuples.
    pub(crate) fn len(&self) -> u64 {
        self.build.len() as u64
    }
}

/// The join's output rows for `found`, pairs of `left`'s and `right`'s
/// rows, as typed columns: every left column gathered by build row, then
/// `right`'s non-key columns by probe row.
pub(crate) fn gather_matches(
    left: &SubTable,
    right: &SubTable,
    key_attrs: &[&str],
    found: &Matches,
) -> Result<ColumnBatch> {
    let right_keys = HashJoiner::right_keys(right, key_attrs)?;
    let left_cols = (0..left.schema().arity()).map(|c| left.column(c));
    let right_cols = (0..right.schema().arity())
        .filter(|c| !right_keys.contains(c))
        .map(|c| right.column(c));
    ColumnBatch::from_columns(
        left_cols
            .map(|c| c.gather(&found.build))
            .chain(right_cols.map(|c| c.gather(&found.probe)))
            .collect(),
    )
}

/// A built hash table over one left-side sub-table.
///
/// IJ caches these per left sub-table ("a hash-table is created only once
/// for every left sub-table"), so the type is cheap to clone and share:
/// the table and the build-side sub-table are both `Arc`ed. The table
/// holds build row numbers only; keys are confirmed against, and matches
/// gathered out of, the sub-tables' typed columns. The cache charges an
/// entry its sub-table's [`SubTable::encoded_size`] — the resident column
/// bytes — plus [`HashJoiner::table_bytes`].
#[derive(Clone)]
pub struct HashJoiner {
    table: Arc<FlatTable>,
    /// `left`'s column indices of the key attributes, in key order.
    key_cols: Arc<[usize]>,
    /// The build-side sub-table, pinned behind an `Arc` so cache hits
    /// and clones are refcount bumps — no column vector is ever copied.
    /// Its key columns are the table's keys.
    left: Arc<SubTable>,
    /// Work multiplier (Figure 8's repeated-instructions trick): every
    /// build/probe is performed `work_factor` times.
    work_factor: u32,
}

impl HashJoiner {
    /// Build a hash table over `left`'s rows keyed by `key_attrs`.
    ///
    /// Columnar: the key bits of each key attribute are gathered in one
    /// pass per column into a scratch buffer, then the insert loop works
    /// on plain `u64`s and allocates nothing. The buffer is dropped
    /// before this returns.
    pub fn build(
        left: Arc<SubTable>,
        key_attrs: &[&str],
        counters: &JoinCounters,
        work_factor: u32,
    ) -> Result<Self> {
        check_row_count(&left)?;
        let key_cols: Arc<[usize]> = key_attrs
            .iter()
            .map(|a| left.schema().require(a))
            .collect::<Result<_>>()?;
        let nrows = left.num_rows();
        let (table, keys) = FlatTable::build(&left, &key_cols);
        let reps = work_factor.max(1);
        for _ in 1..reps {
            // Repeated work: re-hash and look up, discarding the result,
            // exactly like re-running the insert instructions on a
            // slower CPU.
            let hashes = keys.hashes();
            for (r, &h) in hashes.iter().enumerate() {
                std::hint::black_box(table.slot_of(h, |head| keys.same(head, r)));
            }
        }
        counters
            .builds
            .fetch_add(nrows as u64 * reps as u64, Ordering::Relaxed);
        Ok(HashJoiner {
            table: Arc::new(table),
            key_cols,
            left,
            work_factor: reps,
        })
    }

    /// Number of distinct keys in the table.
    pub fn num_keys(&self) -> usize {
        self.table.num_keys
    }

    /// Number of build-side rows.
    pub fn num_rows(&self) -> usize {
        self.left.num_rows()
    }

    /// Resident bytes of the hash table itself, beside the build-side
    /// sub-table's columns.
    pub fn table_bytes(&self) -> usize {
        self.table.bytes()
    }

    /// `right`'s column indices of `key_attrs`.
    fn right_keys(right: &SubTable, key_attrs: &[&str]) -> Result<Vec<usize>> {
        key_attrs
            .iter()
            .map(|a| right.schema().require(a))
            .collect()
    }

    /// Every probe row's lowest matching build row, or [`EMPTY`]: the
    /// probe's stages from hashing to the slot scan. The first three are
    /// one pass over all rows each, so their random loads are independent
    /// of each other.
    fn first_rows(&self, keys: &KeyBits) -> Vec<u32> {
        let table = &*self.table;
        let mask = table.mask();
        let hashes = keys.hashes();
        let mut first: Vec<u32> = hashes
            .iter()
            .map(|&h| table.slots[h as usize & mask])
            .collect();
        let mut same = vec![true; keys.rows];
        for (k, &ci) in self.key_cols.iter().enumerate() {
            confirm_heads(self.left.column(ci), keys.column(k), &first, &mut same);
        }
        // A row whose head holds another key walks on along the slot scan.
        for (r, (head, found)) in first.iter_mut().zip(same).enumerate() {
            if *head != EMPTY && !found {
                let slot = table.slot_of(hashes[r], |row| self.build_key_is(row, keys, r));
                *head = table.slots[slot];
            }
        }
        first
    }

    /// Whether build row `row` has probe row `r`'s key: the walk-on's
    /// compare, [`confirm_heads`] on one row per key column.
    fn build_key_is(&self, row: usize, keys: &KeyBits, r: usize) -> bool {
        self.key_cols.iter().enumerate().all(|(k, &ci)| {
            let mut same = [true];
            let bits = &keys.column(k)[r..=r];
            confirm_heads(self.left.column(ci), bits, &[row as u32], &mut same);
            same[0]
        })
    }

    /// The probe kernel: look up every row of `right` and return the
    /// matched row pairs. Right-side key bits are gathered per column up
    /// front and compared against the build side's typed key columns —
    /// no row is built and nothing is allocated per match.
    pub(crate) fn matches(
        &self,
        right: &SubTable,
        key_attrs: &[&str],
        counters: &JoinCounters,
    ) -> Result<Matches> {
        check_row_count(right)?;
        let right_keys = Self::right_keys(right, key_attrs)?;
        let nrows = right.num_rows();
        // Family mismatch on any key position (int column joined against
        // float column) means no right key can equal any build key —
        // `Value` equality never crosses families. Raw key bits could
        // collide across families, so skip lookups entirely; the op
        // counters still tick as if every lookup had run.
        let family = |st: &SubTable, c: usize| is_float(st.schema().attrs()[c].dtype);
        let families_match = right_keys.len() == self.key_cols.len()
            && right_keys
                .iter()
                .zip(self.key_cols.iter())
                .all(|(&r, &l)| family(right, r) == family(&self.left, l));
        let mut found = Matches::default();
        if families_match {
            let keys = KeyBits::gather(right, &right_keys);
            let first = self.first_rows(&keys);
            // Sized for the foreign-key case, one match per probe row.
            found.build.reserve(nrows);
            found.probe.reserve(nrows);
            let next = &self.table.next;
            for (ri, &li) in first.iter().enumerate() {
                let mut li = li;
                while li != EMPTY {
                    found.build.push(li);
                    found.probe.push(ri as u32);
                    li = next[li as usize];
                }
            }
            for _ in 1..self.work_factor {
                std::hint::black_box(self.first_rows(&keys));
            }
        }
        counters
            .probes
            .fetch_add(nrows as u64 * self.work_factor as u64, Ordering::Relaxed);
        counters.results.fetch_add(found.len(), Ordering::Relaxed);
        Ok(found)
    }

    /// The join's output rows for `found` as typed columns: every left
    /// column gathered by build row, then `right`'s non-key columns by
    /// probe row.
    pub(crate) fn gather(
        &self,
        right: &SubTable,
        key_attrs: &[&str],
        found: &Matches,
    ) -> Result<ColumnBatch> {
        gather_matches(&self.left, right, key_attrs, found)
    }

    /// Probe with every row of `right`; for each match, emit
    /// `left_row ⨝ right_row` (right key fields dropped) through `on_match`.
    /// Returns the number of result tuples.
    ///
    /// This is [`HashJoiner::matches`] and [`HashJoiner::gather`] with a
    /// row edge on the end — the shape the benchmark ladder and the unit
    /// tests call. The rows are built per block, as every engine row edge
    /// builds them ([`ColumnBatch::append_records_to`]). The engines keep
    /// the batch.
    pub fn probe(
        &self,
        right: &SubTable,
        key_attrs: &[&str],
        counters: &JoinCounters,
        on_match: impl FnMut(Record),
    ) -> Result<u64> {
        let found = self.matches(right, key_attrs, counters)?;
        let batch = self.gather(right, key_attrs, &found)?;
        let mut rows = Vec::with_capacity(batch.num_rows());
        batch.append_records_to(&mut rows)?;
        rows.into_iter().for_each(on_match);
        Ok(found.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::{ColumnBatch, ColumnData, Schema, SubTableId, Value};
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

    /// A one-column `I32` side keyed on `k`, with a payload column.
    fn keyed(table: u32, keys: &[i32]) -> SubTable {
        let schema = StdArc::new(Schema::grid(&["k"], &["p"]).unwrap());
        let payload = (0..keys.len()).map(|r| r as f32).collect();
        let cols = vec![ColumnData::I32(keys.to_vec()), ColumnData::F32(payload)];
        subtable(table, schema, cols)
    }

    /// `(build row, probe row)` of every match, in the kernel's order.
    fn pairs(hj: &HashJoiner, right: &SubTable) -> Vec<(u32, u32)> {
        let found = hj.matches(right, &["k"], &JoinCounters::new()).unwrap();
        found.build.into_iter().zip(found.probe).collect()
    }

    #[test]
    fn a_probe_walks_on_past_a_home_slot_holding_another_key() {
        // Four build rows: eight slots. Find, through the table's own
        // hash, two more keys whose home slot is key 0's.
        let mask = 7;
        let home = |k: i32| hash_words(&[Value::I32(k).key_bits()]) as usize & mask;
        let mut colliding = (1..).filter(|&k| home(k) == home(0));
        let (a, b) = (colliding.next().unwrap(), colliding.next().unwrap());
        // Rows go in highest first, so `a` (row 1) takes the home slot
        // and 0 (row 0) is displaced past it.
        let far = (1..).find(|&k| home(k) != home(0)).unwrap();
        let hj = HashJoiner::build(
            StdArc::new(keyed(0, &[0, a, far, far + 1000])),
            &["k"],
            &JoinCounters::new(),
            1,
        )
        .unwrap();
        assert_eq!(hj.table.slots.len(), mask + 1);
        assert_eq!(hj.table.slots[home(0)], 1, "key 0's home slot holds `a`");
        // 0 walks on and is found; `a` is found at home; `b` walks on
        // past both and misses.
        let right = keyed(1, &[b, 0, a, far]);
        assert_eq!(pairs(&hj, &right), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn duplicate_keys_walk_the_chain_and_unique_keys_need_none() {
        let right = keyed(1, &[5, 7, 9, 5]);
        let counters = JoinCounters::new();
        let dup = HashJoiner::build(
            StdArc::new(keyed(0, &[5, 3, 5, 7, 5])),
            &["k"],
            &counters,
            1,
        )
        .unwrap();
        assert_eq!((dup.num_keys(), dup.num_rows()), (3, 5));
        assert_eq!(
            pairs(&dup, &right),
            vec![(0, 0), (2, 0), (4, 0), (3, 1), (0, 3), (2, 3), (4, 3)]
        );
        let unique =
            HashJoiner::build(StdArc::new(keyed(0, &[5, 3, 7])), &["k"], &counters, 1).unwrap();
        assert!(unique.table.next.iter().all(|&n| n == EMPTY));
        assert_eq!(pairs(&unique, &right), vec![(0, 0), (2, 1), (0, 3)]);
    }

    mod kernel_props {
        use super::*;
        use orv_types::{Attribute, DataType};
        use proptest::prelude::*;
        use std::collections::HashMap;

        const INTS: [i32; 7] = [0, -1, 7, i32::MIN, 1, 2, -2];
        /// Exact in `f32`, so an `F32` key equals its `F64` twin by value;
        /// two zeros and two NaNs (one negative, with a payload).
        const FLOATS: [f64; 7] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::from_bits(0xFFF8_0000_0000_0001),
            1.5,
            -1.5,
            0.25,
        ];

        fn key_column(float: bool, wide: bool, picks: &[usize]) -> ColumnData {
            let picks = picks.iter();
            match (float, wide) {
                (false, false) => ColumnData::I32(picks.map(|&i| INTS[i]).collect()),
                (false, true) => ColumnData::I64(picks.map(|&i| INTS[i] as i64).collect()),
                (true, false) => ColumnData::F32(picks.map(|&i| FLOATS[i] as f32).collect()),
                (true, true) => ColumnData::F64(picks.map(|&i| FLOATS[i]).collect()),
            }
        }

        /// One side of the join: key columns `k0..` typed per `float` /
        /// `wide`, a payload column, stored keys-first or payload-first
        /// with the keys reversed.
        fn side(
            table: u32,
            float: &[bool],
            wide: u8,
            picks: &[usize],
            keys_first: bool,
        ) -> SubTable {
            let nkeys = float.len();
            let nrows = picks.len() / nkeys;
            let mut cols: Vec<(Attribute, ColumnData)> = (0..nkeys)
                .map(|k| {
                    let col: Vec<usize> = (0..nrows).map(|r| picks[r * nkeys + k]).collect();
                    let data = key_column(float[k], wide >> k & 1 == 1, &col);
                    (Attribute::scalar(format!("k{k}"), data.dtype()), data)
                })
                .collect();
            let payload =
                ColumnData::I64((0..nrows as i64).map(|r| r * 10 + table as i64).collect());
            let payload = (
                Attribute::scalar(format!("p{table}"), DataType::I64),
                payload,
            );
            if keys_first {
                cols.push(payload);
            } else {
                cols.reverse();
                cols.insert(0, payload);
            }
            let (attrs, data): (Vec<_>, Vec<_>) = cols.into_iter().unzip();
            subtable(table, StdArc::new(Schema::new(attrs).unwrap()), data)
        }

        /// `st`'s row `r` as the reference keys it: `Value::key_bits` of
        /// each key attribute, in `key_attrs` order.
        fn reference_key(st: &SubTable, key_attrs: &[&str], r: usize) -> Vec<u64> {
            key_attrs
                .iter()
                .map(|a| {
                    st.column(st.schema().require(a).unwrap())
                        .value(r)
                        .key_bits()
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The flat table and a `HashMap<Vec<u64>, Vec<u32>>` return
            /// the same `(build row, probe row)` pairs — duplicates on
            /// both sides, `I32` against `I64`, `F32` against `F64` with
            /// both zeros and NaNs, 1–4 key attributes given in an order
            /// that is neither side's storage order, empty sides, a work
            /// factor, and a family mismatch that must match nothing.
            #[test]
            fn flat_table_matches_a_hash_map_reference(
                nkeys in 1usize..5,
                float_mask in 0u8..16,
                (left_wide, right_wide) in (0u8..16, 0u8..16),
                left_picks in proptest::collection::vec(0usize..7, 0..48),
                right_picks in proptest::collection::vec(0usize..7, 0..48),
                rot in 0usize..4,
                mismatch_at in 0usize..12,
                work_factor in proptest::sample::select(vec![1u32, 3]),
            ) {
                // Fewer distinct values per attribute as attributes are
                // added, so multi-attribute keys still collide.
                let domain = [7, 4, 3, 2][nkeys - 1];
                let narrow = |picks: &[usize]| -> Vec<usize> {
                    picks.iter().map(|i| i % domain).collect()
                };
                let float: Vec<bool> = (0..nkeys).map(|k| float_mask >> k & 1 == 1).collect();
                let mut right_float = float.clone();
                let mismatched = mismatch_at < nkeys;
                if mismatched {
                    right_float[mismatch_at] ^= true;
                }
                let left = StdArc::new(side(0, &float, left_wide, &narrow(&left_picks), true));
                let right = side(1, &right_float, right_wide, &narrow(&right_picks), false);
                let mut names: Vec<String> = (0..nkeys).map(|k| format!("k{k}")).collect();
                names.rotate_left(rot % nkeys);
                let key_attrs: Vec<&str> = names.iter().map(String::as_str).collect();

                let mut reference: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
                for r in 0..left.num_rows() {
                    reference
                        .entry(reference_key(&left, &key_attrs, r))
                        .or_default()
                        .push(r as u32);
                }
                let mut expected: Vec<(u32, u32)> = Vec::new();
                if !mismatched {
                    for r in 0..right.num_rows() {
                        let rows = reference.get(&reference_key(&right, &key_attrs, r));
                        expected.extend(rows.into_iter().flatten().map(|&l| (l, r as u32)));
                    }
                }

                let counters = JoinCounters::new();
                let hj = HashJoiner::build(StdArc::clone(&left), &key_attrs, &counters, work_factor)
                    .unwrap();
                prop_assert_eq!(hj.num_keys(), reference.len());
                prop_assert_eq!(hj.num_rows(), left.num_rows());
                // Row numbers only, whatever the key columns' width: one
                // word per slot at load ≤ ½ and one chain link per row.
                let slots = (2 * left.num_rows()).next_power_of_two();
                prop_assert_eq!(hj.table_bytes(), 4 * (slots + left.num_rows()));
                let found = hj.matches(&right, &key_attrs, &counters).unwrap();
                let got: Vec<(u32, u32)> =
                    found.build.iter().copied().zip(found.probe.iter().copied()).collect();
                // The same multiset, and in the reference's order: probe
                // rows ascend and each one's build rows ascend.
                prop_assert_eq!(&got, &expected);
                let reps = work_factor as u64;
                prop_assert_eq!(counters.builds(), left.num_rows() as u64 * reps);
                prop_assert_eq!(counters.probes(), right.num_rows() as u64 * reps);
                prop_assert_eq!(counters.results(), expected.len() as u64);

                // The gathered batch is those pairs' rows: every left
                // column, then the right side's payload.
                let batch = hj.gather(&right, &key_attrs, &found).unwrap();
                prop_assert_eq!(batch.num_rows(), found.build.len());
                prop_assert_eq!(batch.num_columns(), left.schema().arity() + 1);
                for (i, (&l, &r)) in found.build.iter().zip(&found.probe).enumerate() {
                    let mut want = left.record(l as usize).unwrap().values().to_vec();
                    want.push(right.column(0).value(r as usize));
                    let row = batch.record(i).unwrap();
                    // Bit-exact, not `Value` equality: -0.0 stays -0.0.
                    prop_assert_eq!(format!("{row:?}"), format!("{:?}", Record::new(want)));
                }
            }
        }
    }
}
