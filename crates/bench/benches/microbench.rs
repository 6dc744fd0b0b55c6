//! Microbenchmarks for the cost-model constants: the per-operation costs
//! of hash-table build and probe (`α_build`, `α_lookup`), and the
//! supporting structures (extractor decode, R-tree query, LRU touch).
//! These are the γ/F quantities Section 5 treats as CPU-dependent
//! constants.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use orv_chunk::{Extractor as _, LayoutExtractor, SubTable};
use orv_join::{HashJoiner, JoinCounters, LruCache};
use orv_layout::parse_layout;
use orv_metadata::{RTree, Rect};
use orv_types::{ColumnBatch, ColumnData, Schema, SubTableId, Value};
use std::sync::Arc;

fn subtable(rows: usize, seed: u64) -> SubTable {
    let schema = Arc::new(Schema::grid(&["x", "y"], &["wp"]).unwrap());
    let batch = ColumnBatch::from_columns(vec![
        ColumnData::I32((0..rows).map(|i| (i as u64 ^ seed) as i32).collect()),
        ColumnData::I32((0..rows as i32).collect()),
        ColumnData::F32((0..rows).map(|i| i as f32).collect()),
    ])
    .unwrap();
    SubTable::new(SubTableId::new(0u32, 0u32), schema, batch).unwrap()
}

fn bench_hash_ops(c: &mut Criterion) {
    let rows = 64 * 1024;
    let left = Arc::new(subtable(rows, 0));
    let right = subtable(rows, 0);
    let counters = JoinCounters::new();
    let mut group = c.benchmark_group("alpha_constants");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("alpha_build", |b| {
        b.iter(|| HashJoiner::build(Arc::clone(&left), &["x", "y"], &counters, 1).unwrap())
    });
    let joiner = HashJoiner::build(Arc::clone(&left), &["x", "y"], &counters, 1).unwrap();
    group.bench_function("alpha_lookup", |b| {
        b.iter(|| {
            joiner
                .probe(&right, &["x", "y"], &counters, |_| {})
                .unwrap()
        })
    });
    group.finish();
}

fn bench_extractor(c: &mut Criterion) {
    let desc = parse_layout("layout t { field x: i32; field y: i32; field wp: f32; }").unwrap();
    let extractor = LayoutExtractor::generate(&desc, &["x", "y"]).unwrap();
    let st = subtable(64 * 1024, 0);
    let cols: Vec<Vec<Value>> = (0..3).map(|i| st.column(i).to_vec()).collect();
    let bytes = extractor.layout().encode(&cols).unwrap();
    let mut group = c.benchmark_group("extractor");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("decode_64k_rows", |b| {
        b.iter(|| {
            extractor
                .extract(SubTableId::new(0u32, 0u32), &bytes)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_rtree(c: &mut Criterion) {
    let mut tree = RTree::new(2);
    for x in 0..64 {
        for y in 0..64 {
            tree.insert(
                Rect::new(
                    vec![x as f64, y as f64],
                    vec![x as f64 + 1.0, y as f64 + 1.0],
                ),
                x * 64 + y,
            );
        }
    }
    c.bench_function("rtree_range_query_4k_entries", |b| {
        b.iter(|| tree.query(&Rect::new(vec![10.0, 10.0], vec![20.0, 20.0])))
    });
}

fn bench_lru(c: &mut Criterion) {
    c.bench_function("lru_get_put_cycle", |b| {
        let mut cache: LruCache<u32, u64> = LruCache::new(1024);
        let mut k = 0u32;
        b.iter(|| {
            k = (k + 1) % 2048;
            if cache.get(&k).is_none() {
                cache.put(k, k as u64, 1);
            }
        })
    });
}

/// Fast Criterion profile: these benches exist to show *shapes*
/// (who wins, how the curve moves), not microsecond-exact numbers.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_hash_ops, bench_extractor, bench_rtree, bench_lru
}
criterion_main!(benches);
