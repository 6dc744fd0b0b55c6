//! The predicted-vs-measured report: both QES implementations run under
//! full observability, every required phase is present, and the export
//! is well-formed JSON carrying every run, phase and metric.

use orv::obs::{required_phases, JsonValue};
use orv::obs_report::{standard_report, ReportConfig};

fn small_config() -> ReportConfig {
    ReportConfig {
        grid: [8, 8, 2],
        left_partition: [4, 4, 2],
        right_partition: [2, 8, 1],
        n_storage: 2,
        n_compute: 2,
        calibration_tuples: 50_000,
    }
}

#[test]
fn standard_report_covers_both_algorithms_with_all_phases() {
    let report = standard_report(&small_config()).unwrap();
    report.validate().unwrap();

    let algorithms: Vec<&str> = report.runs.iter().map(|r| r.algorithm.as_str()).collect();
    assert_eq!(algorithms, vec!["indexed_join", "grace_hash"]);

    for run in &report.runs {
        let required = required_phases(&run.algorithm).unwrap();
        for phase in required {
            let row = run
                .phases
                .iter()
                .find(|p| p.phase == *phase)
                .unwrap_or_else(|| panic!("{} missing phase {phase}", run.algorithm));
            assert!(
                row.predicted_secs > 0.0,
                "{}/{phase} predicts zero",
                run.algorithm
            );
            assert!(row.measured_secs >= 0.0);
        }
        assert!(run.measured_wall_secs > 0.0);
        assert!(
            run.measured_phase_total() <= run.measured_wall_secs * run.phases.len() as f64,
            "critical-path phases cannot dwarf wall time: {run:?}"
        );
        // The render is a table with one line per phase plus headers.
        let table = run.render_table();
        assert!(table.contains(&run.algorithm));
        assert!(table.lines().count() >= run.phases.len() + 3);
    }

    // Both runs produced the same result set, and the registry carries
    // both algorithm prefixes.
    assert_eq!(
        report.notes["algorithms_agree"],
        orv::obs::JsonValue::Bool(true)
    );
    assert_eq!(
        report.metrics.counters["ij/result_tuples"],
        report.metrics.counters["gh/result_tuples"]
    );
}

#[test]
fn report_json_round_trips_and_is_well_formed() {
    let report = standard_report(&small_config()).unwrap();
    let v = JsonValue::parse(&report.to_json()).unwrap();
    let runs = v.req("runs").unwrap().as_array().unwrap();
    assert_eq!(runs.len(), report.runs.len());
    for (json, run) in runs.iter().zip(&report.runs) {
        assert_eq!(json, &run.to_json_value());
        assert_eq!(json.req_str("algorithm").unwrap(), run.algorithm);
        let phases = json.req("phases").unwrap().as_array().unwrap();
        for (p, row) in phases.iter().zip(&run.phases) {
            assert_eq!(p.req_str("phase").unwrap(), row.phase);
            assert_eq!(p.req_f64("predicted_secs").unwrap(), row.predicted_secs);
            assert_eq!(p.req_f64("measured_secs").unwrap(), row.measured_secs);
        }
        assert_eq!(phases.len(), run.phases.len());
        assert_eq!(
            json.req_f64("measured_wall_secs").unwrap(),
            run.measured_wall_secs
        );
    }
    assert_eq!(v.req("metrics").unwrap(), &report.metrics.to_json_value());
    let counters = v.req("metrics").unwrap().req("counters").unwrap();
    assert_eq!(
        counters.req_u64("ij/result_tuples").unwrap(),
        report.metrics.counters["ij/result_tuples"]
    );
    assert_eq!(v.req("notes").unwrap().as_object().unwrap(), &report.notes);
}

#[test]
fn measured_phases_track_wall_time_order_of_magnitude() {
    // The headline claim behind the report: the instrumented phase times
    // actually account for the bulk of the run, so the diff against the
    // model is meaningful. Sum of critical-path phases must be positive
    // and not exceed wall time by more than the compute fan-out.
    let report = standard_report(&small_config()).unwrap();
    for run in &report.runs {
        assert!(
            run.measured_phase_total() > 0.0,
            "{} measured nothing",
            run.algorithm
        );
    }
}

/// `dataset_params` is the planner's estimate, and on the generator's
/// aligned partitions that equals the closed form computed from the
/// dataset handles — before an IJ run stores the join index and after.
#[test]
fn dataset_params_match_the_handles_closed_form() {
    use orv::bds::{generate_dataset, DatasetSpec, Deployment};
    use orv::costmodel::CostParams;
    use orv::join::{indexed_join, IndexedJoinConfig};
    use orv::obs_report::dataset_params;

    let cfg = ReportConfig::default();
    let d = Deployment::in_memory(cfg.n_storage);
    let dataset = |name: &str, partition, scalar: &str, seed| {
        let spec = DatasetSpec::builder(name)
            .grid(cfg.grid)
            .partition(partition)
            .scalar_attrs(&[scalar])
            .seed(seed)
            .build();
        generate_dataset(&spec, &d).unwrap()
    };
    let left = dataset("t1", cfg.left_partition, "oilp", 1);
    let right = dataset("t2", cfg.right_partition, "wp", 2);
    let attrs = ["x", "y", "z"];
    let mut want = CostParams {
        t: left.total_tuples() as f64,
        c_r: left.tuples_per_chunk() as f64,
        c_s: right.tuples_per_chunk() as f64,
        n_e: 0.0,
        rs_r: left.record_size() as f64,
        rs_s: right.record_size() as f64,
    };
    want.n_e = want.m_r().max(want.m_s());
    assert_eq!(dataset_params(&d, &left, &right, &attrs).unwrap(), want);

    indexed_join(
        &d,
        left.table,
        right.table,
        &attrs,
        &IndexedJoinConfig::default(),
    )
    .unwrap();
    let stored = d.metadata().get_join_index(left.table, right.table, &attrs);
    want.n_e = stored.expect("IJ persists the index").len() as f64;
    assert_eq!(dataset_params(&d, &left, &right, &attrs).unwrap(), want);
}
