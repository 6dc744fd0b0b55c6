//! The layer ladder of the traced run: every layer a query crosses, timed
//! from outside by calling its public function over the workload's own
//! dataset. Module names are the layer names. One thread drives the
//! ladder (IJ, GH and the services start their own); every rung repeats
//! [`REPS`] times within a time budget and reports the median.
//!
//! A rung's time is the time spent inside the layer's function, summed
//! over its calls in one repetition: preparing an input and dropping a
//! result are outside it. The rungs are the same on every workload, so a
//! layer's number can be read next to any end-to-end number; README.md
//! says which end-to-end metric each is expected to move.

use crate::queries::{Class, Query, Rng, Window, TOPK};
use crate::report::{median, percentile, sorted, Metric};
use crate::trace::{Measured, Tracer};
use crate::workload::{
    engine, federation, service_config, table_spec, Dataset, FrontKind, Scratch, Spec, CREATE_VIEW,
    NODES,
};
use orv_bds::{generate_dataset, BdsService, Deployment};
use orv_chunk::{LayoutExtractor, SubTable};
use orv_cluster::{crc32c, CancelToken, ClusterSpec, RunStats};
use orv_join::{
    grace_hash_join, indexed_join_cached, CacheService, GraceHashConfig, HashJoiner,
    IndexedJoinConfig, JoinAlgorithm, JoinCounters,
};
use orv_metadata::MetadataService;
use orv_obs::{names, Obs};
use orv_query::ast::{AggFunc, RangePred, SelectItem};
use orv_query::exec::{
    aggregate, batches_to_rows, column_names, filter_batch_range, filter_rows, order_and_limit,
    project, rows_checksum, RowSet,
};
use orv_query::{parse_statement, Planner, QueryEngine, QueryService};
use orv_types::{BoundingBox, Interval, Record, Result, SubTableId, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of a rung; the median is reported.
const REPS: usize = 5;
/// A rung stops repeating early (never before two repetitions) once it has
/// used this much time, so the slowest rungs cannot stretch the run.
const RUNG_BUDGET_SECS: f64 = 1.0;
/// Row operators are measured over at most this many rows.
const ROW_OPERATOR_ROWS: u64 = 1 << 18;
/// 1/16 selectivity on a uniform `[0, 1)` scalar.
const SELECTIVE: Interval = Interval {
    lo: 0.0,
    hi: 0.0625,
};
const JOIN_ATTRS: [&str; 3] = ["x", "y", "z"];
const MIB: f64 = (1u64 << 20) as f64;
/// The interactive mix, the classes `serve_mixed` cycles.
const MIX: [Class; 4] = [
    Class::ScanWin,
    Class::JoinWin,
    Class::AggWin,
    Class::TopkWin,
];

/// Time one call into a layer.
fn call<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<Measured> {
    let (returned, m) = tr.span(name, |_| f());
    returned.map(|_| m)
}

/// One rung: `calls` makes the layer calls of one repetition (under the
/// span `parent`) and returns their sum; the median repetition by time is
/// the rung's value.
fn rung(
    tr: &mut Tracer,
    parent: &'static str,
    mut calls: impl FnMut(&mut Tracer) -> Result<Measured>,
) -> Result<Measured> {
    let started = Instant::now();
    let mut reps = Vec::with_capacity(REPS);
    for i in 0..REPS {
        if i >= 2 && started.elapsed().as_secs_f64() > RUNG_BUDGET_SECS {
            break;
        }
        reps.push(tr.span(parent, &mut calls).0?);
    }
    reps.sort_by(|a, b| a.secs.total_cmp(&b.secs));
    Ok(reps[(reps.len() - 1) / 2])
}

/// Median client-side time of `f` over `queries`, in milliseconds.
fn p50_ms(
    tr: &mut Tracer,
    span: &'static str,
    queries: &[Query],
    mut f: impl FnMut(&Query) -> Result<usize>,
) -> Result<f64> {
    queries
        .iter()
        .map(|q| call(tr, span, || f(q)).map(|m| m.secs * 1e3))
        .collect::<Result<Vec<f64>>>()
        .map(median)
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }

    fn rows_per_s(&mut self, name: &str, rows: u64, m: Measured) {
        self.put(name, rows as f64 / m.secs, "rows/s");
    }

    fn allocs_per_row(&mut self, name: &str, rows: u64, m: Measured) {
        self.put(name, m.allocs as f64 / rows as f64, "allocs/row");
    }

    fn per_call_us(&mut self, name: &str, calls: usize, m: Measured) {
        self.put(name, m.secs * 1e6 / calls as f64, "us");
    }
}

pub fn run(
    spec: &Spec,
    ds: &Dataset,
    scratch: &Scratch,
    seed: u64,
    tr: &mut Tracer,
) -> Result<Vec<Metric>> {
    let mut out = Out(Vec::new());
    let dep = &ds.dep;
    let md = dep.metadata();
    let (t1, t2) = (ds.t1.table, ds.t2.table);
    let ids_of = |table| -> Result<Vec<SubTableId>> {
        let chunks = md.all_chunks(table)?;
        Ok(chunks
            .into_iter()
            .map(|chunk| SubTableId { table, chunk })
            .collect())
    };
    let ids = ids_of(t1)?;
    let rows_t1 = ds.t1.total_tuples();
    let rows_both = rows_t1 + ds.t2.total_tuples();

    // ---- chunk, cluster, bds, layout: bytes -> sub-table -> batch ----
    let mut pages = Vec::with_capacity(ids.len());
    for &id in &ids {
        let meta = md.chunk_meta(id)?;
        pages.push(dep.store(meta.node)?.lock().read(&meta.location)?);
    }
    let page_mib = pages.iter().map(|p| p.len()).sum::<usize>() as f64 / MIB;
    let extractor = {
        let meta = md.chunk_meta(ids[0])?;
        dep.registry().read().resolve(&meta.extractors)?
    };
    let m = rung(tr, "ladder.chunk.extract", |tr| {
        let each = ids.iter().zip(&pages);
        each.map(|(&id, page)| call(tr, "chunk.extract", || extractor.extract(id, page)))
            .sum()
    })?;
    out.rows_per_s("chunk.extract.rows_per_s", rows_t1, m);
    out.put("chunk.extract.mb_per_s", page_mib / m.secs, "MiB/s");
    out.allocs_per_row("chunk.extract.allocs_per_row", rows_t1, m);

    let m = rung(tr, "ladder.cluster.crc32c", |tr| {
        let each = pages.iter();
        each.map(|page| call(tr, "cluster.crc32c", || Ok(black_box(crc32c(page)))))
            .sum()
    })?;
    out.put("cluster.crc32c.mb_per_s", page_mib / m.secs, "MiB/s");
    drop(pages);

    let services = BdsService::for_all_nodes(dep)?;
    let subtable = |id: SubTableId| -> Result<SubTable> {
        services[md.chunk_meta(id)?.node.index()].subtable(id)
    };
    let subtable_m = rung(tr, "ladder.bds.subtable", |tr| {
        let each = ids.iter();
        each.map(|&id| call(tr, "bds.subtable", || subtable(id)))
            .sum()
    })?;
    out.rows_per_s("bds.subtable.rows_per_s", rows_t1, subtable_m);
    out.put("bds.subtable.mb_per_s", page_mib / subtable_m.secs, "MiB/s");
    let left: Vec<SubTable> = ids.iter().map(|&id| subtable(id)).collect::<Result<_>>()?;
    let right: Vec<SubTable> = ids_of(t2)?
        .into_iter()
        .map(subtable)
        .collect::<Result<_>>()?;

    let to_batch_m = rung(tr, "ladder.chunk.to_batch", |tr| {
        let each = left.iter();
        each.map(|st| call(tr, "chunk.to_batch", || Ok(black_box(st.to_batch()))))
            .sum()
    })?;
    out.rows_per_s("chunk.to_batch.rows_per_s", rows_t1, to_batch_m);
    out.allocs_per_row("chunk.to_batch.allocs_per_row", rows_t1, to_batch_m);
    let batches: Vec<_> = left.iter().map(SubTable::to_batch).collect();

    let layout = LayoutExtractor::generate(&ds.t1.spec.layout(), &JOIN_ATTRS)?;
    let m = rung(tr, "ladder.layout.encode", |tr| {
        let each = left.iter();
        each.map(|st| {
            let columns: Vec<Vec<Value>> = (0..st.schema().arity())
                .map(|c| st.column(c).to_vec())
                .collect();
            call(tr, "layout.encode", || layout.layout().encode(&columns))
        })
        .sum()
    })?;
    out.rows_per_s("layout.encode.rows_per_s", rows_t1, m);

    let m = rung(tr, "ladder.bds.generate", |tr| {
        let target = match spec.front {
            FrontKind::IngestCycle => Deployment::on_disk(scratch.fresh("generate"), NODES)?,
            _ => Deployment::in_memory(NODES),
        };
        let table = table_spec(spec, "g", "oilp", ds.oracle.seed_t1);
        call(tr, "bds.generate", || generate_dataset(&table, &target))
    })?;
    out.rows_per_s("bds.generate.rows_per_s", rows_t1, m);

    // ---- types: batch filter, row materialisation ----
    let m = rung(tr, "ladder.types.filter_batch", |tr| {
        let checks = [(3, SELECTIVE)];
        let each = batches.iter();
        each.map(|b| {
            call(tr, "types.filter_batch", || {
                Ok(black_box(filter_batch_range(b, &checks)))
            })
        })
        .sum()
    })?;
    out.rows_per_s("types.filter_batch.rows_per_s", rows_t1, m);

    let to_records_m = rung(tr, "ladder.types.to_records", |tr| {
        call(tr, "types.to_records", || batches_to_rows(&batches))
    })?;
    out.rows_per_s("types.to_records.rows_per_s", rows_t1, to_records_m);
    out.allocs_per_row("types.to_records.allocs_per_row", rows_t1, to_records_m);

    // ---- metadata ----
    {
        const LOOKUPS: usize = 256;
        let mut rng = Rng::new(seed);
        let boxes: Vec<BoundingBox> = (0..LOOKUPS)
            .map(|_| {
                let w = Class::ScanWin.draw(spec.grid, &mut rng).window;
                BoundingBox::from_dims([
                    ("x", Interval::new(w.x0 as f64, w.x1 as f64)),
                    ("y", Interval::new(w.y0 as f64, w.y1 as f64)),
                ])
            })
            .collect();
        let mut found = 0;
        let m = rung(tr, "ladder.metadata.find_chunks", |tr| {
            found = 0;
            let each = boxes.iter();
            each.map(|b| {
                call(tr, "metadata.find_chunks", || {
                    let chunks = md.find_chunks(t1, b)?;
                    found += chunks.len();
                    Ok(chunks)
                })
            })
            .sum()
        })?;
        out.per_call_us("metadata.find_chunks.us", LOOKUPS, m);
        out.put(
            "metadata.find_chunks.chunks_per_call",
            found as f64 / LOOKUPS as f64,
            "count",
        );

        let path = scratch.fresh("catalog");
        let m = rung(tr, "ladder.metadata.save", |tr| {
            call(tr, "metadata.save_json", || md.save_json(&path))
        })?;
        out.put("metadata.save_ms", m.secs * 1e3, "ms");
        let m = rung(tr, "ladder.metadata.load", |tr| {
            call(tr, "metadata.load_json", || {
                MetadataService::load_json(&path)
            })
        })?;
        out.put("metadata.load_ms", m.secs * 1e3, "ms");
        let len = std::fs::metadata(&path)?.len();
        out.put("metadata.catalog_kb", len as f64 / 1024.0, "KiB");
        std::fs::remove_file(&path)?;
    }

    // ---- join: hash build and probe, then IJ and GH whole ----
    let counters = JoinCounters::new();
    let left: Vec<Arc<SubTable>> = left.into_iter().map(Arc::new).collect();
    let build = |st: &Arc<SubTable>| HashJoiner::build(Arc::clone(st), &JOIN_ATTRS, &counters, 1);
    let m = rung(tr, "ladder.join.hash_build", |tr| {
        let each = left.iter();
        each.map(|st| call(tr, "join.hash_build", || build(st)))
            .sum()
    })?;
    out.rows_per_s("join.hash_build.rows_per_s", rows_t1, m);
    let joiners: Vec<HashJoiner> = left.iter().map(build).collect::<Result<_>>()?;
    let m = rung(tr, "ladder.join.hash_probe", |tr| {
        let mut matched: Vec<Record> = Vec::new();
        let each = joiners.iter().zip(&right);
        each.map(|(joiner, st)| {
            call(tr, "join.hash_probe", || {
                joiner.probe(st, &JOIN_ATTRS, &counters, |r| matched.push(r))
            })
        })
        .sum()
    })?;
    out.rows_per_s("join.hash_probe.rows_per_s", rows_t1, m);
    out.allocs_per_row("join.hash_probe.allocs_per_row", rows_t1, m);
    drop((joiners, left, right));

    let ij_collect_ms;
    {
        let cache = CacheService::new(NODES, 256 << 20);
        let cfg = |collect| IndexedJoinConfig {
            n_compute: NODES,
            collect_results: collect,
            ..IndexedJoinConfig::default()
        };
        let join = |collect| indexed_join_cached(dep, t1, t2, &JOIN_ATTRS, &cfg(collect), &cache);
        // The cold run fills the cache; everything timed after it is warm.
        join(true)?;
        let cold = cache.stats();
        let (mut warm_runs, mut stats) = (0, RunStats::default());
        let mut timed = |tr: &mut Tracer, parent, name, collect| {
            rung(tr, parent, |tr| {
                warm_runs += 1;
                call(tr, name, || join(collect).map(|o| stats = o.stats))
            })
        };
        let collect = timed(tr, "ladder.join.ij.collect", "join.ij.collect", true)?;
        let count_only = timed(tr, "ladder.join.ij.count_only", "join.ij.count_only", false)?;
        ij_collect_ms = collect.secs * 1e3;
        out.put("join.ij.collect_ms", ij_collect_ms, "ms");
        out.put("join.ij.count_only_ms", count_only.secs * 1e3, "ms");
        out.put(
            "join.ij.hash_builds_per_query",
            stats.hash_builds as f64,
            "count",
        );
        out.put(
            "join.ij.hash_probes_per_query",
            stats.hash_probes as f64,
            "count",
        );
        out.put(
            "join.ij.bytes_read_storage",
            stats.bytes_read_storage as f64,
            "B",
        );
        let warm = cache.stats();
        out.put(
            "join.cache.hit_ratio",
            (warm.hits - cold.hits) as f64 / (warm.lookups() - cold.lookups()) as f64,
            "ratio",
        );
        out.put(
            "join.cache.misses_per_query",
            (warm.misses - cold.misses) as f64 / warm_runs as f64,
            "count",
        );
        out.put("join.cache.evictions", warm.evictions as f64, "count");
        let used = cache.used_bytes() as f64;
        out.put("join.cache.used_mb", used / MIB, "MiB");
        out.put("join.cache.bytes_per_row", used / rows_both as f64, "B/row");
    }

    let gh_collect_ms;
    {
        let mut stats = RunStats::default();
        let mut timed = |tr: &mut Tracer, parent, name, collect| {
            let cfg = GraceHashConfig {
                n_compute: NODES,
                collect_results: collect,
                ..GraceHashConfig::default()
            };
            rung(tr, parent, |tr| {
                call(tr, name, || {
                    grace_hash_join(dep, t1, t2, &JOIN_ATTRS, &cfg).map(|o| stats = o.stats)
                })
            })
        };
        let collect = timed(tr, "ladder.join.gh.collect", "join.gh.collect", true)?;
        let count_only = timed(tr, "ladder.join.gh.count_only", "join.gh.count_only", false)?;
        gh_collect_ms = collect.secs * 1e3;
        out.put("join.gh.collect_ms", gh_collect_ms, "ms");
        out.put("join.gh.count_only_ms", count_only.secs * 1e3, "ms");
        out.put(
            "join.gh.bytes_transferred",
            stats.bytes_transferred as f64,
            "B",
        );
        out.put(
            "join.gh.scratch_written_mb",
            stats.bytes_scratch_written as f64 / MIB,
            "MiB",
        );
        out.put(
            "join.gh.scratch_read_mb",
            stats.bytes_scratch_read as f64 / MIB,
            "MiB",
        );
        let retries = stats.read_retries + stats.send_retries + stats.scratch_retries;
        out.put("join.gh.retries", retries as f64, "count");
    }

    // ---- query.exec: the row operators after the scan ----
    let rows_checksum_per_s;
    {
        let chunks = (ROW_OPERATOR_ROWS / ds.t1.tuples_per_chunk()).clamp(1, ids.len() as u64);
        let rows = batches_to_rows(&batches[..chunks as usize])?;
        let n = rows.len() as u64;
        let columns = column_names(&ds.t1.schema);
        let col = |name: &str| SelectItem::Column(name.to_string());

        let preds = [RangePred::between("oilp", SELECTIVE.lo, SELECTIVE.hi)];
        let m = rung(tr, "ladder.query.exec.filter_rows", |tr| {
            let input = rows.clone();
            call(tr, "query.exec.filter_rows", || {
                filter_rows(&columns, input, &preds)
            })
        })?;
        out.rows_per_s("query.exec.filter_rows.rows_per_s", n, m);

        let items = [col("x"), col("y"), col("oilp")];
        let m = rung(tr, "ladder.query.exec.project", |tr| {
            let input = rows.clone();
            call(tr, "query.exec.project", || {
                project(&columns, input, &items)
            })
        })?;
        out.rows_per_s("query.exec.project.rows_per_s", n, m);

        let items = [
            col("x"),
            SelectItem::Aggregate(AggFunc::Count, None),
            SelectItem::Aggregate(AggFunc::Avg, Some("oilp".to_string())),
        ];
        let group_by = ["x".to_string()];
        let m = rung(tr, "ladder.query.exec.aggregate", |tr| {
            let input = rows.clone();
            call(tr, "query.exec.aggregate", || {
                aggregate(&columns, input, &items, &group_by)
            })
        })?;
        out.rows_per_s("query.exec.aggregate.rows_per_s", n, m);

        let order_by = [("oilp".to_string(), true)];
        let m = rung(tr, "ladder.query.exec.order_limit", |tr| {
            let input = RowSet {
                columns: columns.clone(),
                rows: rows.clone(),
            };
            call(tr, "query.exec.order_limit", || {
                order_and_limit(input, &order_by, Some(TOPK))
            })
        })?;
        out.rows_per_s("query.exec.order_limit.rows_per_s", n, m);

        let m = rung(tr, "ladder.query.exec.rows_checksum", |tr| {
            call(tr, "query.exec.rows_checksum", || {
                Ok(black_box(rows_checksum(&rows)))
            })
        })?;
        rows_checksum_per_s = n as f64 / m.secs;
        out.rows_per_s("query.exec.rows_checksum.rows_per_s", n, m);
    }
    drop(batches);

    // ---- query.plan: parser, cost model, planner ----
    let eng = engine(spec.force, dep, Obs::enabled());
    eng.execute(CREATE_VIEW)?;
    {
        const CALLS: usize = 1000;
        let mut rng = Rng::new(seed);
        let mix: Vec<Query> = (0..CALLS)
            .map(|i| MIX[i % MIX.len()].draw(spec.grid, &mut rng))
            .collect();
        let m = rung(tr, "ladder.query.parse", |tr| {
            let each = mix.iter();
            each.map(|q| call(tr, "query.parse", || parse_statement(&q.sql)))
                .sum()
        })?;
        out.per_call_us("query.parse.us", CALLS, m);
        let m = rung(tr, "ladder.query.predict_cost", |tr| {
            let each = mix.iter();
            each.map(|q| {
                call(tr, "query.predict_cost", || {
                    Ok(black_box(eng.predict_cost_secs(&q.sql)))
                })
            })
            .sum()
        })?;
        out.per_call_us("query.predict_cost.us", CALLS, m);

        const PLANS: usize = 100;
        let planner = Planner::new(ClusterSpec::paper_testbed(NODES, NODES));
        let m = rung(tr, "ladder.query.plan_join", |tr| {
            (0..PLANS)
                .map(|_| {
                    call(tr, "query.plan_join", || {
                        planner.plan_join(md, t1, t2, &JOIN_ATTRS)
                    })
                })
                .sum()
        })?;
        out.per_call_us("query.plan_join.us", PLANS, m);
    }

    // ---- query.engine: whole statements, and what the rungs leave over ----
    let rows_of = |e: &QueryEngine, q: &Query| e.execute(&q.sql).map(|r| r.rows.len());
    let draw = |class: Class, n: usize| -> Vec<Query> {
        let mut rng = Rng::new(seed ^ 0x5EED);
        (0..n).map(|_| class.draw(spec.grid, &mut rng)).collect()
    };
    let scan_ms = p50_ms(tr, "query.engine.scan", &draw(Class::ScanFull, REPS), |q| {
        rows_of(&eng, q)
    })?;
    let rungs_ms = (subtable_m.secs + to_batch_m.secs + to_records_m.secs) * 1e3;
    out.put(
        "ladder.unaccounted_pct",
        (1.0 - rungs_ms / scan_ms) * 100.0,
        "%",
    );
    // The join as this workload's engine runs it (IJ unless GH is forced),
    // warmed first, against the same QES called directly above.
    let joins = draw(Class::JoinDirect, REPS);
    rows_of(&eng, &joins[0])?;
    let join_ms = p50_ms(tr, "query.engine.join", &joins, |q| rows_of(&eng, q))?;
    let direct_ms = match spec.force {
        Some(JoinAlgorithm::GraceHash) => gh_collect_ms,
        _ => ij_collect_ms,
    };
    out.put("query.engine.post_join_ms", join_ms - direct_ms, "ms");
    let execute_ms = match (spec.classes, spec.front) {
        ([Class::ScanFull], _) => scan_ms,
        // ingest_reopen's query meets an empty cache every time.
        ([Class::JoinDirect], FrontKind::IngestCycle) => {
            p50_ms(tr, "query.engine.cold_join", &joins, |q| {
                rows_of(&engine(spec.force, dep, Obs::enabled()), q)
            })?
        }
        ([Class::JoinDirect] | [Class::JoinView], _) => join_ms,
        (classes, _) => {
            let mut rng = Rng::new(seed ^ 0x5EED);
            let own: Vec<Query> = (0..40)
                .map(|i| classes[i % classes.len()].draw(spec.grid, &mut rng))
                .collect();
            p50_ms(tr, "query.engine.execute", &own, |q| rows_of(&eng, q))?
        }
    };
    out.put("query.engine.execute_ms", execute_ms, "ms");

    // ---- query.service: admission, queueing, hand-off ----
    let svc = QueryService::new(eng, service_config())?;
    {
        let edge = spec.part - 1;
        let one_chunk = Query {
            class: Class::ScanWin,
            window: Window {
                x0: 0,
                x1: edge,
                y0: 0,
                y1: edge,
            },
            sql: format!("SELECT * FROM t1 WHERE x IN [0, {edge}] AND y IN [0, {edge}]"),
        };
        let many = vec![one_chunk; 200];
        let direct = p50_ms(tr, "query.engine.one_chunk", &many, |q| {
            rows_of(svc.engine(), q)
        })?;
        let served = p50_ms(tr, "query.service.one_chunk", &many, |q| {
            svc.execute(&q.sql).map(|r| r.rows.len())
        })?;
        out.put("query.service.overhead_us", (served - direct) * 1e3, "us");
    }
    serve_mix(&svc, spec, seed, tr, &mut out)?;
    drop(svc);

    // ---- query.federation: plan once, fan out, verify, merge ----
    {
        let obs = Obs::enabled();
        let fed = federation(dep, obs.clone())?;
        let plain = engine(spec.force, dep, Obs::enabled());
        let slabs = draw(Class::Slab, 12);
        let slab_rows = fed.execute(&slabs[0].sql)?.into_result().rows.len();
        let subqueries_before = obs.metrics.counter(names::FED_SUBQUERIES).get();
        let merge = obs.metrics.histogram(names::LAT_MERGE, names::LAT_BOUNDS)?;
        let mut merge_ms = Vec::new();
        let fed_ms = p50_ms(tr, "query.federation.execute", &slabs, |q| {
            let merged_before = merge.sum();
            let rows = fed.execute(&q.sql)?.into_result().rows.len();
            merge_ms.push((merge.sum() - merged_before) * 1e3);
            Ok(rows)
        })?;
        let subqueries = obs.metrics.counter(names::FED_SUBQUERIES).get() - subqueries_before;
        let engine_ms = p50_ms(tr, "query.engine.slab", &slabs, |q| rows_of(&plain, q))?;
        let merge_p50_ms = median(merge_ms);
        out.put("query.federation.overhead_ms", fed_ms - engine_ms, "ms");
        out.put(
            "query.federation.subqueries_per_query",
            subqueries as f64 / slabs.len() as f64,
            "count",
        );
        out.put("query.federation.merge_p50_ms", merge_p50_ms, "ms");
        for (metric, name) in [
            ("query.federation.failovers", names::FED_FAILOVERS),
            ("query.federation.hedges", names::FED_HEDGES),
            ("query.federation.partial_results", names::FED_PARTIAL),
        ] {
            out.put(metric, obs.metrics.counter(name).get() as f64, "count");
        }
        // Every row is checksummed shard-side and again at the router.
        let checksum_ms = 2.0 * slab_rows as f64 / rows_checksum_per_s * 1e3;
        out.put(
            "ladder.fed_unaccounted_pct",
            (1.0 - (engine_ms + checksum_ms + merge_p50_ms) / fed_ms) * 100.0,
            "%",
        );
    }
    Ok(out.0)
}

const MIX_QUERIES: usize = 200;

/// One query of the mix as the service's own trace accounts for it.
struct Served {
    class: Class,
    client_ms: f64,
    admission_s: f64,
    queue_wait_s: f64,
    exec_s: f64,
    total_s: f64,
}

/// The closed-loop client sends the mix through `svc`; every ticket's own
/// trace gives that query's admission, queue-wait and execution time (the
/// samples the `lat/*` histograms are fed, before bucketing).
fn serve_mix(
    svc: &QueryService,
    spec: &Spec,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Out,
) -> Result<()> {
    let mut rng = Rng::new(seed ^ (1 << 40));
    let before = svc.counters();
    let (served, _) = tr.span("ladder.query.service.mix", |_| {
        (0..MIX_QUERIES)
            .map(|i| {
                let q = MIX[i % MIX.len()].draw(spec.grid, &mut rng);
                let sent = Instant::now();
                let ticket = svc.submit(&q.sql)?;
                ticket.wait_cancellable(&CancelToken::none())?;
                let client_ms = sent.elapsed().as_secs_f64() * 1e3;
                let trace = ticket.trace().expect("a resolved ticket has its trace");
                let phase = |name| trace.phase_secs(names::lat_phase(name));
                Ok(Served {
                    class: q.class,
                    client_ms,
                    admission_s: phase(names::LAT_ADMISSION),
                    queue_wait_s: phase(names::LAT_QUEUE_WAIT),
                    exec_s: phase(names::LAT_EXEC),
                    total_s: trace.total_secs,
                })
            })
            .collect::<Result<Vec<Served>>>()
    });
    let served = served?;
    let after = svc.counters();
    let pick = |f: fn(&Served) -> f64| sorted(served.iter().map(f).collect());
    let queue_wait = pick(|s| s.queue_wait_s);
    for (name, value, unit) in [
        (
            "query.service.queue_wait_p50_us",
            percentile(&queue_wait, 0.5) * 1e6,
            "us",
        ),
        (
            "query.service.queue_wait_p95_us",
            percentile(&queue_wait, 0.95) * 1e6,
            "us",
        ),
        (
            "query.service.admission_p50_us",
            percentile(&pick(|s| s.admission_s), 0.5) * 1e6,
            "us",
        ),
        (
            "query.service.exec_p50_ms",
            percentile(&pick(|s| s.exec_s), 0.5) * 1e3,
            "ms",
        ),
        (
            "query.service.total_p99_ms",
            percentile(&pick(|s| s.total_s), 0.99) * 1e3,
            "ms",
        ),
        (
            "query.service.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        ),
        (
            "query.service.shed",
            (after.shed - before.shed) as f64,
            "count",
        ),
        (
            "query.service.cancelled",
            (after.cancelled - before.cancelled) as f64,
            "count",
        ),
    ] {
        out.put(name, value, unit);
    }
    for class in MIX {
        let of_class = served.iter().filter(|s| s.class == class);
        let ms = of_class.map(|s| s.client_ms).collect();
        out.put(&format!("serve.{}.p50_ms", class.slug()), median(ms), "ms");
    }
    Ok(())
}
