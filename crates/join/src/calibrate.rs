//! Host calibration: the §5 constants, measured on the kernels that run.
//!
//! The cost-model constants are CPU dependent (`α = γ/F`). This module
//! measures them on the machine the threaded runtime runs on by timing
//! the engine's own code over a generated, chunk-sized two-key sub-table:
//! `α_build` is [`HashJoiner::build`] per row, `α_lookup` the probe kernel
//! per row, and the two bandwidths standing in for Grace Hash's bucket I/O
//! are GH's routing (hash, group and typed scatter into frames) and its
//! bucket decoder. There is no second hash table and no second encoder to
//! drift from the real ones.
//! [`host_system_params`] is the one model of this host built from them.

use crate::grace::route_subtable;
use crate::hash_join::{HashJoiner, JoinCounters, SUBTABLE_ROWS};
use orv_chunk::SubTable;
use orv_cluster::exchange::decode_columns;
use orv_costmodel::SystemParams;
use orv_obs::SpanTimer;
use orv_types::{ColumnBatch, ColumnData, Error, Result, Schema, SubTableId};
use std::sync::Arc;

/// Measured per-operation costs on this host.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Seconds per hash-table insert.
    pub alpha_build: f64,
    /// Seconds per hash-table lookup.
    pub alpha_lookup: f64,
    /// Routing bandwidth, bytes/s: GH's hash, group and scatter of a
    /// sub-table into frames — the host-side stand-in for `writeIO_bw`
    /// when buckets live in memory (Grace Hash still pays this CPU cost
    /// per byte spilled).
    pub encode_bw: f64,
    /// Record deserialization bandwidth, bytes/s — stand-in for the
    /// bucket-read `readIO_bw`.
    pub decode_bw: f64,
    /// Operations timed per measurement.
    pub ops: u64,
}

/// Time the join kernel and the bucket codec for at least `n` operations
/// each, over a sub-table of distinct `(x, y)` keys (the join-key shape
/// of the paper's queries) and one `f32` scalar. The sub-table has up to
/// [`SUBTABLE_ROWS`] rows, the size of the tables the joins build — IJ's
/// per sub-table, GH's per slice — so `α` is per operation on a table
/// that fits in the CPU cache as theirs do.
pub fn calibrate_host(n: u64) -> Result<Calibration> {
    let rows = n.clamp(1, SUBTABLE_ROWS as u64);
    let reps = n.div_ceil(rows).max(1);
    let schema = Arc::new(Schema::grid(&["x", "y"], &["p"])?);
    let batch = ColumnBatch::from_columns(vec![
        ColumnData::I32((0..rows).map(|i| (i % 64) as i32).collect()),
        ColumnData::I32((0..rows).map(|i| (i / 64) as i32).collect()),
        ColumnData::F32((0..rows).map(|i| i as f32).collect()),
    ])?;
    let st = Arc::new(SubTable::new(SubTableId::new(0u32, 0u32), schema, batch)?);
    let (keys, counters) = (["x", "y"], JoinCounters::new());

    // Seconds spent building, probing, routing and decoding.
    let mut secs = [0.0f64; 4];
    let mut bytes = Vec::new();
    for _ in 0..reps {
        let sw = SpanTimer::start();
        let joiner = HashJoiner::build(Arc::clone(&st), &keys, &counters, 1)?;
        secs[0] += sw.elapsed_secs();
        let sw = SpanTimer::start();
        let found = joiner.matches(&st, &keys, &counters)?;
        secs[1] += sw.elapsed_secs();
        if found.len() != rows {
            return Err(Error::Config(
                "calibration self-check: every key must resolve".into(),
            ));
        }
        let sw = SpanTimer::start();
        let mut routed = route_subtable(&st, &[0, 1], 1, 1);
        secs[2] += sw.elapsed_secs();
        // One destination, one bucket: the whole sub-table in one frame.
        bytes = routed.swap_remove(0).swap_remove(0).1;
        let sw = SpanTimer::start();
        let decoded = decode_columns(st.schema(), &bytes)?;
        secs[3] += sw.elapsed_secs();
        std::hint::black_box(decoded);
    }
    // A one-row run can finish inside the clock's resolution.
    let secs = secs.map(|s| s.max(1e-9));

    let ops = rows * reps;
    let coded = (bytes.len() as u64 * reps) as f64;
    Ok(Calibration {
        alpha_build: secs[0] / ops as f64,
        alpha_lookup: secs[1] / ops as f64,
        encode_bw: coded / secs[2],
        decode_bw: coded / secs[3],
        ops,
    })
}

/// System parameters describing *this host*: crossbeam channels move
/// bytes at memory speed, and Grace Hash's bucket "I/O" is really per-byte
/// serialization CPU, which calibration measures as `encode_bw` /
/// `decode_bw`.
pub fn host_system_params(cal: &Calibration, n_storage: usize, n_compute: usize) -> SystemParams {
    SystemParams {
        net_bw: 8.0e9,
        read_io_bw: cal.decode_bw,
        write_io_bw: cal.encode_bw,
        n_s: n_storage as f64,
        n_j: n_compute as f64,
        alpha_build: cal.alpha_build,
        alpha_lookup: cal.alpha_lookup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_sane_constants() {
        let c = calibrate_host(200_000).unwrap();
        assert!(c.alpha_build > 0.0 && c.alpha_build < 1e-4, "{c:?}");
        assert!(c.alpha_lookup > 0.0 && c.alpha_lookup < 1e-4, "{c:?}");
        assert!(c.encode_bw > 1.0e6, "{c:?}");
        assert!(c.decode_bw > 1.0e6, "{c:?}");
        assert_eq!(
            c.ops,
            49 * SUBTABLE_ROWS as u64,
            "whole sub-tables, at least 200 000"
        );
    }

    #[test]
    fn gammas_scale_with_cpu_rate() {
        let c = Calibration {
            alpha_build: 1e-7,
            alpha_lookup: 5e-8,
            encode_bw: 1.0e9,
            decode_bw: 1.0e9,
            ops: 1,
        };
        let s = host_system_params(&c, 2, 4);
        assert_eq!((s.n_s, s.n_j, s.alpha_build), (2.0, 4.0, 1e-7));
        assert_eq!((s.read_io_bw, s.write_io_bw), (c.decode_bw, c.encode_bw));
    }

    #[test]
    fn minimum_one_op() {
        let c = calibrate_host(0).unwrap();
        assert_eq!(c.ops, 1);
    }
}
