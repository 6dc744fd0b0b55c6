//! Integration coverage for the metrics layer: bucket boundaries,
//! concurrency, span ordering and the JSON each one writes, read with
//! [`JsonValue::parse`].

use orv_obs::{JsonValue, MetricsRegistry, Obs, Spans};

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
    // Each record's JSON carries its four fields.
    for r in &recs {
        let v = JsonValue::parse(&r.to_json_value().to_string()).unwrap();
        assert_eq!(v.req_u64("seq").unwrap(), r.seq);
        assert_eq!(v.req_str("path").unwrap(), r.path);
        assert_eq!(v.req_f64("start_secs").unwrap(), r.start_secs);
        assert_eq!(v.req_f64("dur_secs").unwrap(), r.dur_secs);
        assert_eq!(v.as_object().unwrap().len(), 4);
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
    let text = r.snapshot().to_json_value().to_string();
    let v = JsonValue::parse(&text).unwrap();
    assert_eq!(
        v.req("counters")
            .unwrap()
            .req_u64("bytes_transferred")
            .unwrap(),
        4096
    );
    assert_eq!(v.req("gauges").unwrap().req_u64("workers").unwrap(), 3);
    let h = v.req("histograms").unwrap().req("probe_us").unwrap();
    let nums = |key: &str| -> Vec<f64> {
        let a = h.req(key).unwrap().as_array().unwrap();
        a.iter().map(|x| x.as_f64().unwrap()).collect()
    };
    assert_eq!(nums("bounds"), [10.0, 100.0]);
    assert_eq!(nums("buckets"), [0.0, 1.0, 0.0]);
    assert_eq!(h.req_u64("count").unwrap(), 1);
    assert_eq!(h.req_f64("sum").unwrap(), 42.5);
    // Nothing is written beyond the three maps and four histogram keys.
    assert_eq!(v.as_object().unwrap().len(), 3);
    assert_eq!(h.as_object().unwrap().len(), 4);
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
    let v = JsonValue::parse(&text).unwrap();
    assert_eq!(v, obs.events.events()[0].to_json_value());
    assert_eq!(v.req_u64("seq").unwrap(), 0);
    assert_eq!(v.req_str("kind").unwrap(), "fault_injected");
    let fields = v.req("fields").unwrap();
    assert_eq!(fields.req_str("kind").unwrap(), "read");
    assert_eq!(fields.req_str("site").unwrap(), "chunk_read");
    assert_eq!(fields.req_u64("draw").unwrap(), 7);
}
