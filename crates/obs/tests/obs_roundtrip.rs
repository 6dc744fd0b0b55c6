//! Integration coverage for the metrics layer: bucket boundaries,
//! concurrency, span ordering and JSON round-trips.

use orv_obs::{EventLog, JsonValue, MetricsRegistry, MetricsSnapshot, Obs, SpanRecord, Spans};

#[test]
fn histogram_bucketing_boundaries() {
    let r = MetricsRegistry::new();
    let h = r.histogram("lat", &[1.0, 10.0, 100.0]).unwrap();
    // A sample exactly on a bound lands in that bound's bucket.
    h.record(0.0);
    h.record(1.0);
    h.record(1.0000001);
    h.record(10.0);
    h.record(99.9);
    h.record(100.0);
    h.record(100.1); // overflow
    h.record(1e12); // overflow
    assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
    assert_eq!(h.count(), 8);
    let snap = r.snapshot();
    assert_eq!(snap.histograms["lat"].buckets, vec![2, 2, 2, 2]);
    let want_sum = 0.0 + 1.0 + 1.0000001 + 10.0 + 99.9 + 100.0 + 100.1 + 1e12;
    assert!((snap.histograms["lat"].sum - want_sum).abs() < 1e-3);
}

#[test]
fn concurrent_counter_increments_from_scoped_threads() {
    let r = MetricsRegistry::new();
    let h = r.histogram("h", &[0.5]).unwrap();
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let r = r.clone();
            let h = h.clone();
            s.spawn(move || {
                let c = r.counter("shared");
                for i in 0..10_000u64 {
                    c.inc();
                    if i % 100 == 0 {
                        h.record((t as f64) / 8.0);
                    }
                }
                r.gauge("peak").raise(t);
            });
        }
    });
    let snap = r.snapshot();
    assert_eq!(snap.counters["shared"], 80_000);
    assert_eq!(snap.gauges["peak"], 7);
    assert_eq!(snap.histograms["h"].count, 800);
    // 5 threads with t/8 <= 0.5 (t = 0..4), 3 above.
    assert_eq!(snap.histograms["h"].buckets, vec![500, 300]);
}

#[test]
fn span_nesting_and_ordering() {
    let s = Spans::enabled();
    {
        let outer = s.span("n0/transfer");
        let inner = outer.child("decode");
        inner.finish();
    }
    s.span("n0/build").finish();
    let recs = s.records();
    assert_eq!(recs.len(), 3);
    // Start order, not completion order: the outer span completed after
    // its child but sorts first.
    assert_eq!(recs[0].path, "n0/transfer");
    assert_eq!(recs[1].path, "n0/transfer/decode");
    assert_eq!(recs[2].path, "n0/build");
    // The child's interval lies inside its parent's.
    assert!(recs[0].dur_secs >= recs[1].dur_secs);
    assert!(recs[0].start_secs <= recs[1].start_secs);
    // JSON round-trip of span records.
    for r in &recs {
        let back = SpanRecord::from_json_value(&r.to_json_value()).unwrap();
        assert_eq!(&back, r);
    }
}

#[test]
fn metrics_snapshot_json_round_trip() {
    let r = MetricsRegistry::new();
    r.counter("bytes_transferred").add(4096);
    r.gauge("workers").set(3);
    r.histogram("probe_us", &[10.0, 100.0])
        .unwrap()
        .record(42.5);
    let snap = r.snapshot();
    let text = snap.to_json_value().to_string();
    let back = MetricsSnapshot::from_json_value(&JsonValue::parse(&text).unwrap()).unwrap();
    assert_eq!(back, snap);
}

#[test]
fn event_log_json_round_trip_through_obs() {
    let obs = Obs::enabled();
    obs.events.emit("fault_injected", || {
        vec![
            ("kind", "read".into()),
            ("site", "chunk_read".into()),
            ("draw", 7u64.into()),
        ]
    });
    let text = obs.events.to_json_lines();
    let parsed = EventLog::from_json_lines(&text).unwrap();
    assert_eq!(parsed, obs.events.events());
    assert_eq!(parsed[0].fields["draw"].as_u64(), Some(7));
}
