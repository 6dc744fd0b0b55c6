//! The metrics registry: named atomic counters, gauges and histograms.
//!
//! Instruments are cheap `Arc`-backed handles — a service looks its
//! instrument up once (get-or-create) and then increments a lock-free
//! atomic on the hot path. Snapshots are plain serde values with uniform
//! merge semantics: counters and histogram buckets *add*, gauges *max* —
//! the same rules [`RunStats::merge`](https://docs.rs) applies per node,
//! so per-node registries can be folded into a cluster-wide view.

use crate::json::JsonValue;
use orv_types::{Error, Result};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Default, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value instrument (e.g. workers alive, queue depth).
///
/// Merging two snapshots takes the max — the convention that makes a
/// per-node "peak" meaningful cluster-wide.
#[derive(Clone, Default, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, caller-supplied bucket bounds.
///
/// A sample `v` lands in the first bucket with `v <= bound`; samples above
/// every bound land in the implicit overflow bucket, so `buckets.len() ==
/// bounds.len() + 1` and no sample is ever dropped.
#[derive(Clone, Debug)]
pub struct Histogram {
    bounds: Arc<Vec<f64>>,
    buckets: Arc<Vec<AtomicU64>>,
    count: Arc<AtomicU64>,
    /// Sum of samples, stored as `f64` bits for lock-free accumulation.
    sum_bits: Arc<AtomicU64>,
}

impl Histogram {
    /// Build a histogram; bounds must be finite and strictly increasing.
    pub fn new(bounds: &[f64]) -> Result<Self> {
        validate_bounds(bounds)?;
        let buckets = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Ok(Histogram {
            bounds: Arc::new(bounds.to_vec()),
            buckets: Arc::new(buckets),
            count: Arc::new(AtomicU64::new(0)),
            sum_bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        })
    }

    /// Record one sample.
    pub fn record(&self, v: f64) {
        let idx = self.bounds.partition_point(|b| v > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Atomic f64 add via CAS on the bit pattern.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples recorded.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket counts, overflow bucket last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

fn validate_bounds(bounds: &[f64]) -> Result<()> {
    if bounds.is_empty() {
        return Err(Error::Config("histogram needs at least one bound".into()));
    }
    if bounds.iter().any(|b| !b.is_finite()) {
        return Err(Error::Config(format!(
            "histogram bounds must be finite, got {bounds:?}"
        )));
    }
    for w in bounds.windows(2) {
        if w[0] >= w[1] {
            return Err(Error::Config(format!(
                "histogram bounds must be strictly increasing, got {bounds:?}"
            )));
        }
    }
    Ok(())
}

/// Frozen state of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `bounds.len() + 1` entries, overflow last.
    pub buckets: Vec<u64>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Interpolated quantile estimate, `q` in `[0, 1]` (clamped).
    ///
    /// Samples are assumed uniform within their bucket, so the estimate
    /// interpolates linearly between the bucket's edges (the first bucket
    /// starts at 0 — latencies are non-negative). Samples in the overflow
    /// bucket have no upper edge and clamp to the last bound. Returns
    /// `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.bounds.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                below += n;
                continue;
            }
            let upto = below + n;
            if (upto as f64) >= target {
                let last = self.bounds.len() - 1;
                if i > last {
                    // Overflow bucket: unbounded above, clamp to the edge.
                    return Some(self.bounds[last]);
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
                return Some(lo + frac * (hi - lo));
            }
            below = upto;
        }
        // Unreachable when buckets sum to count; stay total regardless.
        Some(*self.bounds.last().unwrap_or(&0.0))
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Mean of the recorded samples (exact — from the tracked sum).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    fn to_json_value(&self) -> JsonValue {
        crate::json::obj([
            (
                "bounds",
                JsonValue::Array(self.bounds.iter().map(|b| (*b).into()).collect()),
            ),
            (
                "buckets",
                JsonValue::Array(self.buckets.iter().map(|b| (*b).into()).collect()),
            ),
            ("count", self.count.into()),
            ("sum", self.sum.into()),
        ])
    }
}

/// Frozen, serializable state of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge another snapshot into this one: counters add, gauges max,
    /// histograms add bucketwise. Histograms with the same name must have
    /// identical bounds.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<()> {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
                Some(mine) => {
                    if mine.bounds != h.bounds {
                        return Err(Error::Config(format!(
                            "histogram `{k}` bounds differ: {:?} vs {:?}",
                            mine.bounds, h.bounds
                        )));
                    }
                    for (a, b) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum += h.sum;
                }
            }
        }
        Ok(())
    }

    /// Serialize as a JSON value.
    pub fn to_json_value(&self) -> JsonValue {
        crate::json::obj([
            (
                "counters",
                JsonValue::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "gauges",
                JsonValue::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            (
                "histograms",
                JsonValue::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// A shared registry of named instruments.
///
/// Handles returned by the `counter`/`gauge`/`histogram` accessors stay
/// live after the registry is snapshotted; lookups take a read lock, so
/// callers on hot paths should look up once and increment the handle.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.counters.read().get(name) {
            return c.clone();
        }
        self.inner
            .counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.gauges.read().get(name) {
            return g.clone();
        }
        self.inner
            .gauges
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the histogram `name` with the given bucket bounds.
    /// Fails if the name exists with different bounds, or the bounds are
    /// not finite and strictly increasing.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Result<Histogram> {
        if let Some(h) = self.inner.histograms.read().get(name) {
            if h.bounds() != bounds {
                return Err(Error::Config(format!(
                    "histogram `{name}` already registered with bounds {:?}",
                    h.bounds()
                )));
            }
            return Ok(h.clone());
        }
        let mut map = self.inner.histograms.write();
        if let Some(h) = map.get(name) {
            if h.bounds() != bounds {
                return Err(Error::Config(format!(
                    "histogram `{name}` already registered with bounds {:?}",
                    h.bounds()
                )));
            }
            return Ok(h.clone());
        }
        let h = Histogram::new(bounds)?;
        map.insert(name.to_string(), h.clone());
        Ok(h)
    }

    /// Record one serving-path latency sample into histogram `name`,
    /// creating it with the canonical [`names::LAT_BOUNDS`](crate::names::LAT_BOUNDS)
    /// layout on first use. All `lat/*` histograms share that layout, so
    /// for registry-listed names the bounds conflict arm is unreachable;
    /// a conflicting ad-hoc name drops the sample rather than panicking
    /// on the serving path.
    pub fn record_latency(&self, name: &str, secs: f64) {
        if let Ok(h) = self.histogram(name, crate::names::LAT_BOUNDS) {
            h.record(secs);
        }
    }

    /// Freeze the current state of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .inner
                .counters
                .read()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .inner
                .gauges
                .read()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .inner
                .histograms
                .read()
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: h.bounds().to_vec(),
                            buckets: h.bucket_counts(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    )
                })
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.read().len())
            .field("gauges", &self.inner.gauges.read().len())
            .field("histograms", &self.inner.histograms.read().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handle_is_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(r.counter("x").get(), 4);
        assert_eq!(r.snapshot().counters["x"], 4);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = Gauge::new();
        g.set(5);
        g.raise(3);
        assert_eq!(g.get(), 5);
        g.raise(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn histogram_bounds_validated() {
        assert!(Histogram::new(&[]).is_err());
        assert!(Histogram::new(&[1.0, 1.0]).is_err());
        assert!(Histogram::new(&[2.0, 1.0]).is_err());
        assert!(Histogram::new(&[1.0, f64::INFINITY]).is_err());
        assert!(Histogram::new(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn histogram_bound_mismatch_rejected() {
        let r = MetricsRegistry::new();
        r.histogram("h", &[1.0, 2.0]).unwrap();
        assert!(r.histogram("h", &[1.0, 3.0]).is_err());
        assert!(r.histogram("h", &[1.0, 2.0]).is_ok());
    }

    #[test]
    fn snapshot_merge_semantics() {
        let r1 = MetricsRegistry::new();
        r1.counter("c").add(2);
        r1.gauge("g").set(7);
        r1.histogram("h", &[1.0]).unwrap().record(0.5);
        let r2 = MetricsRegistry::new();
        r2.counter("c").add(3);
        r2.gauge("g").set(4);
        r2.histogram("h", &[1.0]).unwrap().record(2.0);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot()).unwrap();
        assert_eq!(s.counters["c"], 5);
        assert_eq!(s.gauges["g"], 7);
        assert_eq!(s.histograms["h"].buckets, vec![1, 1]);
        assert_eq!(s.histograms["h"].count, 2);
        assert_eq!(s.histograms["h"].sum, 2.5);
    }

    fn snap(bounds: &[f64], buckets: &[u64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets: buckets.to_vec(),
            count: buckets.iter().sum(),
            sum: 0.0,
        }
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        let s = snap(&[1.0, 2.0], &[0, 0, 0]);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.quantile(0.99), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        // 10 samples in (0, 1]: uniform assumption puts the median at 0.5.
        let s = snap(&[1.0, 2.0], &[10, 0, 0]);
        assert!((s.p50().unwrap() - 0.5).abs() < 1e-12);
        assert!((s.quantile(0.0).unwrap() - 0.0).abs() < 1e-12);
        assert!((s.quantile(1.0).unwrap() - 1.0).abs() < 1e-12);
        // q is clamped, not rejected.
        assert_eq!(s.quantile(-3.0), s.quantile(0.0));
        assert_eq!(s.quantile(7.0), s.quantile(1.0));
    }

    #[test]
    fn quantile_spans_buckets() {
        // 4 in (0,1], 4 in (1,2]: p50 at the shared edge, p75 mid-second.
        let s = snap(&[1.0, 2.0], &[4, 4, 0]);
        assert!((s.p50().unwrap() - 1.0).abs() < 1e-12);
        assert!((s.quantile(0.75).unwrap() - 1.5).abs() < 1e-12);
        assert!((s.quantile(0.25).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_overflow_bucket_clamps_to_last_bound() {
        let s = snap(&[1.0, 2.0], &[1, 0, 9]);
        assert!((s.quantile(0.99).unwrap() - 2.0).abs() < 1e-12);
        assert!((s.quantile(1.0).unwrap() - 2.0).abs() < 1e-12);
        // All samples above every bound: every quantile clamps.
        let s = snap(&[1.0], &[0, 5]);
        assert_eq!(s.quantile(0.5), Some(1.0));
    }

    #[test]
    fn record_latency_uses_canonical_bounds_and_survives_conflicts() {
        let r = MetricsRegistry::new();
        r.record_latency(crate::names::LAT_EXEC, 0.001);
        r.record_latency(crate::names::LAT_EXEC, 99.0);
        let s = r.snapshot();
        let h = &s.histograms[crate::names::LAT_EXEC];
        assert_eq!(h.bounds, crate::names::LAT_BOUNDS.to_vec());
        assert_eq!(h.count, 2);
        assert_eq!(*h.buckets.last().unwrap(), 1, "99s lands in overflow");
        // A name already registered with foreign bounds drops the sample
        // instead of panicking.
        r.histogram("other", &[1.0]).unwrap();
        r.record_latency("other", 0.5);
        assert_eq!(r.snapshot().histograms["other"].count, 0);
    }

    #[test]
    fn merge_rejects_bound_mismatch() {
        let r1 = MetricsRegistry::new();
        r1.histogram("h", &[1.0]).unwrap();
        let r2 = MetricsRegistry::new();
        r2.histogram("h", &[2.0]).unwrap();
        let mut s = r1.snapshot();
        assert!(s.merge(&r2.snapshot()).is_err());
    }
}
