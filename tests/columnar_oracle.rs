//! Closed-form oracle tier for the columnar execution path.
//!
//! Every query shape — full scan, range filter, projection, IJ join,
//! GH join, aggregation, ranged view query — is checked against rows
//! computed *here*, by
//! nested loops over the grid and `orv::bds::scalar_value`. The oracle
//! shares nothing with the path it checks: it reads no chunk and runs no
//! extractor, sub-table, batch, filter kernel or join of the program.
//!
//! Scans are compared as exact `Record` sequences per chunk run
//! (`scan_chunks` reports the run boundaries), so a row that lands in the
//! wrong chunk, the wrong order or the wrong type fails even when the
//! multiset of rows is right; the same rows must also agree on
//! [`rows_checksum`](exec::rows_checksum) — the CRC the federation router
//! uses to reject corrupted partials. Joins are order-free, so they are
//! compared as sorted multisets, against the closed form and (at sizes a
//! quadratic loop can afford) against the nested-loop reference join.
//!
//! Three entry points share the harness:
//!
//! - a proptest drawing the seed, from which grid, chunking, node count
//!   and range windows all derive;
//! - [`seeded_oracle_from_env`], a deterministic case whose seed comes
//!   from `ORV_ORACLE_SEED` — the chaos CI matrix drives it with each
//!   matrix seed, so any failure reproduces with one env var;
//! - [`seeded_oracle_at_256x256`], the same seed at 256×256 with 32×32
//!   chunks, sixteen times the rows of the largest drawn case.

use orv::bds::{generate_dataset, scalar_value, DatasetSpec, Deployment, SubTableReader};
use orv::cluster::{CancelToken, FaultInjector, RecoveryPolicy, RunStats};
use orv::join::reference::{nested_loop_join, sort_records};
use orv::join::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig, JoinAlgorithm};
use orv::query::{exec, QueryEngine};
use orv::types::{BoundingBox, ChunkId, ColumnBatch, Interval, Record, SubTableId, TableId, Value};
use proptest::prelude::*;

/// SplitMix64, so every derived parameter is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The shape of one case: tables `t1(x, y, z, oilp)` and `t2(x, y, z,
/// wp)` over a `side × side × 1` grid cut into `part × part × 1` chunks.
#[derive(Clone, Copy, Debug)]
struct Shape {
    side: u64,
    part: u64,
    nodes: usize,
    seed: u64,
}

impl Shape {
    /// Grid and partitioning drawn from the seed, so shapes vary.
    fn drawn(seed: u64) -> Self {
        let mut rng = Rng(seed);
        Shape {
            side: [4u64, 8, 8, 16][rng.below(4) as usize],
            part: [2u64, 4][rng.below(2) as usize],
            nodes: 1 + rng.below(2) as usize,
            seed,
        }
    }

    fn seed_of(&self, table: &str) -> u64 {
        self.seed ^ if table == "t1" { 1 } else { 2 }
    }

    fn deploy(&self) -> (Deployment, TableId, TableId) {
        let d = Deployment::in_memory(self.nodes);
        for (name, scalar) in [("t1", "oilp"), ("t2", "wp")] {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([self.side, self.side, 1])
                    .partition([self.part, self.part, 1])
                    .scalar_attrs(&[scalar])
                    .seed(self.seed_of(name))
                    .build(),
                &d,
            )
            .expect("dataset generation");
        }
        let md = d.metadata();
        let t1 = md.table_id("t1").expect("t1");
        let t2 = md.table_id("t2").expect("t2");
        (d, t1, t2)
    }

    fn num_chunks(&self) -> u64 {
        (self.side / self.part) * (self.side / self.part)
    }

    /// The row of `table` at grid point `(x, y, 0)`.
    fn row(&self, table: &str, x: u64, y: u64) -> [Value; 4] {
        [
            Value::I32(x as i32),
            Value::I32(y as i32),
            Value::I32(0),
            Value::F32(scalar_value(self.seed_of(table), 0, [x, y, 0])),
        ]
    }

    /// The rows chunk `chunk` of `table` must yield, in order: chunks
    /// tile the grid x-major, and a chunk holds its points x-major too.
    /// `keep` is the range predicate over a whole row.
    fn chunk_rows(
        &self,
        table: &str,
        chunk: u64,
        keep: &dyn Fn(&[Value; 4]) -> bool,
    ) -> Vec<[Value; 4]> {
        let per_dim = self.side / self.part;
        let (cx, cy) = (chunk / per_dim, chunk % per_dim);
        let mut rows = Vec::new();
        for x in cx * self.part..(cx + 1) * self.part {
            for y in cy * self.part..(cy + 1) * self.part {
                let row = self.row(table, x, y);
                if keep(&row) {
                    rows.push(row);
                }
            }
        }
        rows
    }
}

/// A drawn range: inclusive `[lo, hi]` per constrained column index.
struct Window(Vec<(usize, f64, f64)>);

impl Window {
    fn keeps(&self, row: &[Value; 4]) -> bool {
        self.0.iter().all(|&(c, lo, hi)| {
            let v = row[c].as_f64();
            lo <= v && v <= hi
        })
    }
}

/// A range over the join view `(x, y, z, oilp, wp)`: inclusive
/// `[lo, hi]` per constrained `(column index, attribute name)`.
type ViewWindow = Vec<(usize, &'static str, f64, f64)>;

fn records(rows: &[[Value; 4]]) -> Vec<Record> {
    rows.iter().map(|r| Record::new(r.to_vec())).collect()
}

/// Assert two row vectors are byte-identical: same records in the same
/// order and the same federation checksum.
fn assert_identical(label: &str, expected: &[Record], got: &[Record]) {
    assert_eq!(expected, got, "{label}: rows diverged");
    assert_eq!(
        exec::rows_checksum(expected),
        exec::rows_checksum(got),
        "{label}: checksums diverged on equal rows"
    );
}

/// Scan `t1` and compare with the closed form: `scan_chunks` run by run,
/// and the R-tree's chunks fetched one sub-table each, batch by batch.
/// Returns the expected rows in scan order and the batches.
fn check_scan(
    label: &str,
    shape: &Shape,
    d: &Deployment,
    t1: TableId,
    range: Option<(&BoundingBox, &Window)>,
) -> (Vec<Record>, Vec<ColumnBatch>) {
    let reader = SubTableReader::new(
        d,
        FaultInjector::disabled(),
        orv::obs::Spans::disabled(),
        RecoveryPolicy::default(),
        CancelToken::none(),
    )
    .expect("reader");
    let bbox = range.map(|(b, _)| b);
    let keep = |row: &[Value; 4]| range.is_none_or(|(_, w)| w.keeps(row));
    let per_chunk: Vec<Vec<Record>> = (0..shape.num_chunks())
        .map(|c| records(&shape.chunk_rows("t1", c, &keep)))
        .collect();
    let expected: Vec<Record> = per_chunk.concat();

    // `scan_chunks` over every chunk, handed over shuffled and with a
    // duplicate: one run per chunk, ascending, each exactly its rows.
    let mut ids: Vec<ChunkId> = (0..shape.num_chunks() as u32).rev().map(ChunkId).collect();
    ids.push(ChunkId(0));
    let (_, rows, runs) = exec::scan_chunks(&reader, t1, &ids, bbox).expect("scan_chunks");
    assert_eq!(runs.len(), per_chunk.len(), "{label}: one run per chunk");
    let mut at = 0;
    for (c, ((chunk, n), want)) in runs.iter().zip(&per_chunk).enumerate() {
        assert_eq!(*chunk, ChunkId(c as u32), "{label}: runs ascend");
        assert_eq!(*n, want.len(), "{label}: run length of chunk {c}");
        assert_eq!(&rows[at..at + n], &want[..], "{label}: rows of chunk {c}");
        at += n;
    }
    assert_eq!(at, rows.len(), "{label}: runs cover the rows");
    assert_identical(label, &expected, &rows);

    // One batch per chunk the R-tree keeps, ascending; a pruned chunk and
    // an empty batch both contribute no rows.
    let md = d.metadata();
    let kept = match bbox {
        Some(rg) => md.find_chunks(t1, rg),
        None => md.all_chunks(t1),
    }
    .expect("R-tree");
    assert!(
        kept.windows(2).all(|w| w[0] < w[1]),
        "{label}: R-tree ids ascend"
    );
    let mut stats = RunStats::default();
    let batches: Vec<ColumnBatch> = kept
        .iter()
        .map(|&chunk| {
            let st = reader.fetch(SubTableId { table: t1, chunk }, bbox, &mut stats);
            st.expect("fetch").into_batch()
        })
        .collect();
    let schema = md.schema(t1).expect("schema");
    assert_eq!(schema.arity(), 4);
    let nonempty = |n: &usize| *n > 0;
    let batch_rows: Vec<usize> = batches.iter().map(|b| b.num_rows()).collect();
    let want_rows: Vec<usize> = per_chunk.iter().map(Vec::len).collect();
    assert_eq!(
        batch_rows
            .iter()
            .copied()
            .filter(nonempty)
            .collect::<Vec<_>>(),
        want_rows
            .iter()
            .copied()
            .filter(nonempty)
            .collect::<Vec<_>>(),
        "{label}: batch boundaries are chunk boundaries"
    );
    let got = exec::batches_to_rows(&batches).expect("edge conversion");
    assert_identical(&format!("{label} (batches)"), &expected, &got);
    (expected, batches)
}

/// Run every query shape for one dataset shape. `quadratic` also runs
/// the nested-loop reference join, which only small grids can afford.
fn oracle_case(shape: Shape, quadratic: bool) {
    let (d, t1, t2) = shape.deploy();
    let mut rng = Rng(shape.seed ^ 0x0c01_a11e);

    // Shape 1: full scan.
    let (all_rows, batches) = check_scan("full scan", &shape, &d, t1, None);
    assert_eq!(all_rows.len() as u64, shape.side * shape.side);

    // Shape 2: range filter (drawn window; may be empty, full, or partial;
    // sometimes bounds the f32 scalar; also exercises an attribute bound
    // the schema lacks → unconstrained).
    let lo = rng.below(shape.side) as f64;
    let hi = lo + rng.below(shape.side / 2) as f64;
    let y_hi = rng.below(shape.side) as f64;
    let mut window = Window(vec![(0, lo, hi), (1, 0.0, y_hi)]);
    let mut range = BoundingBox::from_dims([
        ("x", Interval::new(lo, hi)),
        ("y", Interval::new(0.0, y_hi)),
    ]);
    if rng.below(2) == 0 {
        range.set("not_an_attr", Interval::new(0.0, 1.0));
    }
    if rng.below(2) == 0 {
        let p_lo = rng.below(50) as f64 / 100.0;
        let p_hi = p_lo + rng.below(50) as f64 / 100.0;
        window.0.push((3, p_lo, p_hi));
        range.set("oilp", Interval::new(p_lo, p_hi));
    }
    check_scan("range filter", &shape, &d, t1, Some((&range, &window)));

    // Shape 3: projection (drawn column permutation, with repeats).
    let indices: Vec<usize> = (0..1 + rng.below(4) as usize)
        .map(|_| rng.below(4) as usize)
        .collect();
    let expect_projected: Vec<Record> = all_rows
        .iter()
        .map(|r| Record::new(indices.iter().map(|&i| r.get(i)).collect()))
        .collect();
    let projected: Vec<_> = batches
        .iter()
        .map(|b| b.project(&indices).expect("batch project"))
        .collect();
    let got_projected = exec::batches_to_rows(&projected).expect("edge conversion");
    assert_identical("projection", &expect_projected, &got_projected);

    // Shapes 4 + 5: IJ and GH joins. Join output order is schedule-
    // dependent, so compare as sorted multisets — still byte-identical
    // record-for-record. One-to-one on (x, y, z): each grid point yields
    // `t1`'s row followed by `t2`'s scalar.
    let mut join_expected = Vec::new();
    for x in 0..shape.side {
        for y in 0..shape.side {
            let mut vals = shape.row("t1", x, y).to_vec();
            vals.push(shape.row("t2", x, y)[3]);
            join_expected.push(Record::new(vals));
        }
    }
    let join_expected = sort_records(join_expected);
    if quadratic {
        let reference = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).expect("oracle join");
        assert_identical("nested-loop join", &join_expected, &sort_records(reference));
    }
    for algo in [JoinAlgorithm::IndexedJoin, JoinAlgorithm::GraceHash] {
        let engine = QueryEngine::new(d.clone()).force_algorithm(Some(algo));
        engine
            .execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .expect("create view");
        let got = engine.execute("SELECT * FROM v").expect("join query");
        let got_rows = sort_records(got.rows);
        assert_identical(&format!("{algo} join"), &join_expected, &got_rows);
    }

    // Shape 6: aggregates — engine (columnar scans underneath) vs values
    // computed from the closed-form rows.
    let engine = QueryEngine::new(d.clone());
    let agg = engine
        .execute("SELECT COUNT(*), MIN(oilp), MAX(oilp) FROM t1")
        .expect("aggregate query");
    assert_eq!(agg.rows.len(), 1);
    let expect_min = all_rows.iter().map(|r| r.get(3)).min().expect("rows");
    let expect_max = all_rows.iter().map(|r| r.get(3)).max().expect("rows");
    assert_eq!(agg.rows[0].get(0), Value::I64(all_rows.len() as i64));
    assert_eq!(agg.rows[0].get(1), expect_min, "MIN diverged");
    assert_eq!(agg.rows[0].get(2), expect_max, "MAX diverged");

    // Shape 7: ranged view queries. One engine per forced algorithm runs
    // every window in turn, so each IJ window after the first crosses a
    // cache earlier windows filled with whole sub-tables.
    let p = shape.part as f64;
    let per_dim = shape.side / shape.part;
    let (cx, cy) = (rng.below(per_dim) as f64, rng.below(per_dim) as f64);
    let (s_lo, s_hi) = {
        let lo = rng.below(50) as f64 / 100.0;
        (lo, lo + rng.below(50) as f64 / 100.0)
    };
    let windows: Vec<(&str, ViewWindow)> = vec![
        // Starts inside the first chunk column, ends inside the second.
        ("cuts chunks", vec![(0, "x", 1.0, p), (1, "y", 0.0, y_hi)]),
        (
            "chunk edges",
            vec![
                (0, "x", cx * p, cx * p + p - 1.0),
                (1, "y", cy * p, cy * p + p - 1.0),
            ],
        ),
        // Meets the first chunks' boxes, holds no grid point.
        ("nothing, between points", vec![(0, "x", 0.25, 0.75)]),
        // Meets no chunk at all.
        (
            "nothing, off the grid",
            vec![(1, "y", shape.side as f64, shape.side as f64 + 3.0)],
        ),
        ("left-only attribute", vec![(3, "oilp", s_lo, s_hi)]),
        ("right-only attribute", vec![(4, "wp", s_lo, s_hi)]),
        (
            "both scalars, cut",
            vec![
                (0, "x", lo, hi),
                (3, "oilp", s_lo, 1.0),
                (4, "wp", 0.0, s_hi),
            ],
        ),
    ];
    let expected_in = |window: &ViewWindow| -> Vec<Record> {
        let keeps = |r: &&Record| {
            window
                .iter()
                .all(|&(c, _, lo, hi)| (lo..=hi).contains(&r.get(c).as_f64()))
        };
        join_expected.iter().filter(keeps).cloned().collect()
    };
    for algo in [JoinAlgorithm::IndexedJoin, JoinAlgorithm::GraceHash] {
        let engine = QueryEngine::new(d.clone()).force_algorithm(Some(algo));
        engine
            .execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
            .expect("create view");
        for (name, window) in &windows {
            let preds: Vec<String> = window
                .iter()
                .map(|(_, a, lo, hi)| format!("{a} IN [{lo}, {hi}]"))
                .collect();
            let sql = format!("SELECT * FROM v WHERE {}", preds.join(" AND "));
            let got = engine.execute(&sql).expect("ranged view query");
            let label = format!("{algo} view, {name}");
            assert_identical(&label, &expected_in(window), &sort_records(got.rows));
        }
    }
    // SQL refuses an attribute neither table has; below it, such a bound
    // constrains nothing. The reference join takes the same boxes.
    let attrs = ["x", "y", "z"];
    for (name, window) in &windows {
        let bounds = window
            .iter()
            .map(|&(_, a, lo, hi)| (a, Interval::new(lo, hi)));
        let mut range = BoundingBox::from_dims(bounds);
        range.set("not_an_attr", Interval::new(0.0, 1.0));
        let expected = expected_in(window);
        let ij_cfg = IndexedJoinConfig {
            collect_results: true,
            range: Some(range.clone()),
            ..Default::default()
        };
        let ij = indexed_join(&d, t1, t2, &attrs, &ij_cfg).expect("ranged IJ");
        assert_eq!(ij.stats.result_tuples as usize, expected.len(), "{name}");
        let ij_rows = sort_records(ij.records().expect("collected"));
        assert_identical(&format!("IJ, {name}"), &expected, &ij_rows);
        let gh_cfg = GraceHashConfig {
            collect_results: true,
            range: Some(range.clone()),
            ..Default::default()
        };
        let gh = grace_hash_join(&d, t1, t2, &attrs, &gh_cfg).expect("ranged GH");
        let gh_rows = sort_records(gh.records().expect("collected"));
        assert_identical(&format!("GH, {name}"), &expected, &gh_rows);
        if quadratic {
            let reference = nested_loop_join(&d, t1, t2, &attrs, Some(&range)).expect("oracle");
            assert_identical(
                &format!("nested loop, {name}"),
                &expected,
                &sort_records(reference),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeds: each case is a fresh deployment and the full shape
    /// battery. Replay any failure with the printed seed.
    #[test]
    fn execution_matches_closed_form(seed in 0u64..1 << 32) {
        oracle_case(Shape::drawn(seed), true);
    }
}

fn env_seed() -> u64 {
    std::env::var("ORV_ORACLE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42)
}

/// Deterministic case for the CI matrix: seed from `ORV_ORACLE_SEED`
/// (default 42). Reproduce locally with
/// `ORV_ORACLE_SEED=<seed> cargo test --test columnar_oracle seeded_oracle_from_env`.
#[test]
fn seeded_oracle_from_env() {
    let seed = env_seed();
    oracle_case(Shape::drawn(seed), true);
    // A couple of derived seeds widen the net without a second binary.
    oracle_case(Shape::drawn(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)), true);
    oracle_case(Shape::drawn(!seed), true);
}

/// The same seed at scale: 65 536 rows per table in 64 chunks of 1 024
/// over two nodes — every shape but the quadratic reference join.
#[test]
fn seeded_oracle_at_256x256() {
    let shape = Shape {
        side: 256,
        part: 32,
        nodes: 2,
        seed: env_seed(),
    };
    oracle_case(shape, false);
}
