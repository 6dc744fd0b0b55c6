//! Host calibration of `α_build` and `α_lookup`.
//!
//! The cost-model constants are CPU dependent (`α = γ/F`). This module
//! measures them on the machine the threaded runtime actually runs on, by
//! timing the same operations the in-memory hash join performs: inserting
//! `(key → row-index)` pairs into a hash table and probing it. The
//! validation harness feeds the measured constants back into the models
//! before comparing them with measured join times.

use orv_types::Value;
use std::collections::HashMap;
use std::time::Instant;

/// Measured per-operation costs on this host.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// Seconds per hash-table insert.
    pub alpha_build: f64,
    /// Seconds per hash-table lookup.
    pub alpha_lookup: f64,
    /// Record serialization bandwidth, bytes/s — the host-side stand-in
    /// for `writeIO_bw` when buckets live in memory (Grace Hash still pays
    /// this CPU cost per byte spilled).
    pub encode_bw: f64,
    /// Record deserialization bandwidth, bytes/s — stand-in for the
    /// bucket-read `readIO_bw`.
    pub decode_bw: f64,
    /// Operations timed per measurement.
    pub ops: u64,
}

impl Calibration {
    /// Convert to operation counts `γ` for a CPU of rate `f` ops/s.
    pub fn gammas(&self, f: f64) -> (f64, f64) {
        (self.alpha_build * f, self.alpha_lookup * f)
    }
}

/// Time `n` hash-table inserts and `n` lookups over 2-attribute integer
/// keys (the `(x, y)` join-key shape of the paper's queries).
///
/// Keys are pre-materialized so only the hash-table operations are timed.
pub fn calibrate_host(n: u64) -> Calibration {
    let n = n.max(1);
    let keys: Vec<[Value; 2]> = (0..n)
        .map(|i| [Value::I32((i % 1024) as i32), Value::I32((i / 1024) as i32)])
        .collect();

    // orv-lint: allow(L006) -- calibration exists to measure real hardware timings
    let start = Instant::now();
    let mut table: HashMap<&[Value], Vec<u32>> = HashMap::with_capacity(keys.len());
    for (i, k) in keys.iter().enumerate() {
        table.entry(k.as_slice()).or_default().push(i as u32);
    }
    let alpha_build = start.elapsed().as_secs_f64() / n as f64;

    // orv-lint: allow(L006) -- calibration exists to measure real hardware timings
    let start = Instant::now();
    let mut found = 0u64;
    for k in &keys {
        if let Some(rows) = table.get(k.as_slice()) {
            found += rows.len() as u64;
        }
    }
    let alpha_lookup = start.elapsed().as_secs_f64() / n as f64;
    assert_eq!(found, n, "calibration self-check: every key must resolve");

    // Serialization throughput: the wire/bucket format is packed
    // little-endian values, 16 bytes per 4-attribute record here.
    let record: Vec<Value> = vec![Value::I32(7), Value::I32(9), Value::I32(3), Value::F32(0.5)];
    let rec_bytes: usize = record.iter().map(|v| v.data_type().width()).sum();
    let reps = n as usize;
    // orv-lint: allow(L006) -- calibration exists to measure real hardware timings
    let start = Instant::now();
    let mut buf = Vec::with_capacity(reps * rec_bytes);
    for _ in 0..reps {
        for v in &record {
            v.encode_le(&mut buf);
        }
    }
    let encode_bw = buf.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);

    // orv-lint: allow(L006) -- calibration exists to measure real hardware timings
    let start = Instant::now();
    let mut checksum = 0u64;
    for chunk in buf.chunks_exact(rec_bytes) {
        let mut off = 0;
        for v in &record {
            let ty = v.data_type();
            // orv-lint: allow(L001) -- decoding the buffer this same loop just encoded; length is reps * rec_bytes by construction
            let val = Value::decode_le(ty, &chunk[off..]).expect("calibration decode");
            checksum ^= val.key_bits();
            off += ty.width();
        }
    }
    let decode_bw = buf.len() as f64 / start.elapsed().as_secs_f64().max(1e-9);
    std::hint::black_box(checksum);

    Calibration {
        alpha_build,
        alpha_lookup,
        encode_bw,
        decode_bw,
        ops: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_sane_constants() {
        let c = calibrate_host(200_000);
        assert!(c.alpha_build > 0.0 && c.alpha_build < 1e-4, "{c:?}");
        assert!(c.alpha_lookup > 0.0 && c.alpha_lookup < 1e-4, "{c:?}");
        assert!(c.encode_bw > 1.0e6, "{c:?}");
        assert!(c.decode_bw > 1.0e6, "{c:?}");
        assert_eq!(c.ops, 200_000);
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
        let (g1, g2) = c.gammas(1.0e9);
        assert!((g1 - 100.0).abs() < 1e-9);
        assert!((g2 - 50.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_one_op() {
        let c = calibrate_host(0);
        assert_eq!(c.ops, 1);
    }
}
