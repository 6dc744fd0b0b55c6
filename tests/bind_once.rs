//! Bind once: what a statement means is decided in one place
//! ([`QueryEngine::prepare`]) and is the same on every path it can take
//! — direct engine call, service queue, federation fan-out.
//!
//! 1. Strict comparisons exclude their bound, by exactly the boundary
//!    plane, on a base table, a join view and through the federation.
//! 2. An unknown WHERE column is a typed plan error naming the column on
//!    every path (it used to return the whole table on all but one).
//! 3. Binding is metadata-only: the join index appears when a join
//!    *runs*, never when it is bound.
//! 4. A statement that does not parse is still admitted by the service
//!    and resolves through its ticket.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::query::{
    FederatedService, FederationConfig, QueryEngine, QueryService, Request, ServiceConfig,
};
use orv::types::{Error, Value};

const VIEW: &str = "CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)";
/// An 8×8×2 grid: every `x` plane holds 16 tuples.
const PLANE: i64 = 16;

fn deployment() -> Deployment {
    let d = Deployment::in_memory(2);
    for (name, scalar, seed, part) in [("t1", "oilp", 1u64, [4, 4, 1]), ("t2", "wp", 2, [2, 8, 2])]
    {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([8, 8, 2])
                .partition(part)
                .scalar_attrs(&[scalar])
                .seed(seed)
                .build(),
            &d,
        )
        .unwrap();
    }
    d
}

/// The three ways in, each with `v1` registered.
struct Paths {
    engine: QueryEngine,
    fed: FederatedService,
}

impl Paths {
    fn new() -> Self {
        let engine = QueryEngine::new(deployment());
        engine.execute(VIEW).unwrap();
        let fed = FederatedService::new(deployment(), FederationConfig::default()).unwrap();
        fed.execute(VIEW).unwrap();
        Paths { engine, fed }
    }

    fn count(&self, federated: bool, from: &str, pred: &str) -> i64 {
        let sql = format!("SELECT COUNT(*) FROM {from} WHERE {pred}");
        let result = if federated {
            let resp = self.fed.execute(&sql).unwrap();
            assert!(resp.is_complete(), "{sql}");
            resp.into_result()
        } else {
            self.engine.execute(&sql).unwrap()
        };
        match result.rows[0].get(0) {
            Value::I64(n) => n,
            other => panic!("COUNT(*) is an i64, got {other:?}"),
        }
    }
}

#[test]
fn strict_comparisons_differ_from_closed_ones_by_the_boundary_plane() {
    let paths = Paths::new();
    // Base table, pushable join view, and both again through the
    // federation (chunk fan-out for `t1`, whole-statement for `v1`).
    for (federated, from) in [(false, "t1"), (false, "v1"), (true, "t1"), (true, "v1")] {
        let count = |pred: &str| paths.count(federated, from, pred);
        let what = format!("{from}, federated={federated}");
        assert_eq!(count("x >= 6"), 2 * PLANE, "{what}");
        assert_eq!(count("x > 6"), PLANE, "{what}");
        assert_eq!(count("x <= 1"), 2 * PLANE, "{what}");
        assert_eq!(count("x < 1"), PLANE, "{what}");
        assert_eq!(count("x = 1"), PLANE, "{what}");
        // The strict bounds partition the table with the closed ones.
        assert_eq!(count("x > 3") + count("x <= 3"), 8 * PLANE, "{what}");
        assert_eq!(count("x < 3") + count("x >= 3"), 8 * PLANE, "{what}");
        // Nothing lies strictly beyond the grid's edge.
        assert_eq!(count("x > 7"), 0, "{what}");
        assert_eq!(count("x < 0"), 0, "{what}");
    }
}

#[test]
fn unknown_where_column_is_a_plan_error_on_every_path() {
    let paths = Paths::new();
    paths
        .engine
        .execute("CREATE VIEW prof AS SELECT x, AVG(wp) FROM v1 GROUP BY x")
        .unwrap();
    let assert_names_bogus = |what: &str, err: Error| {
        assert!(matches!(err, Error::Plan(_)), "{what}: {err}");
        assert!(err.to_string().contains("`bogus`"), "{what}: {err}");
    };
    for from in [
        "t1",                      // base table
        "t1 JOIN t2 ON (x, y, z)", // direct join
        "v1",                      // pushable join view
        "prof",                    // aggregation view (always errored)
    ] {
        let sql = format!("SELECT COUNT(*) FROM {from} WHERE bogus IN [0, 1]");
        assert_names_bogus(from, paths.engine.execute(&sql).unwrap_err());
        assert_names_bogus(from, paths.engine.prepare(&sql).unwrap_err());
    }
    for from in ["t1", "v1"] {
        let sql = format!("SELECT COUNT(*) FROM {from} WHERE bogus IN [0, 1]");
        assert_names_bogus(from, paths.fed.execute(&sql).unwrap_err());
    }
    // A predicate on one join side's scalar is known to the join, and
    // still pushes down without emptying the side that lacks it.
    assert!(paths.count(false, "v1", "wp >= 0.0") > 0);
    assert_eq!(
        paths.count(false, "v1", "oilp >= 0.0 AND wp >= 0.0"),
        paths.count(true, "v1", "oilp >= 0.0 AND wp >= 0.0"),
    );
}

#[test]
fn binding_a_join_is_metadata_only_and_running_it_persists_the_index() {
    let d = deployment();
    let md = d.metadata();
    let (t1, t2) = (md.table_id("t1").unwrap(), md.table_id("t2").unwrap());
    let on = ["x", "y", "z"];
    let engine = QueryEngine::new(d.clone());
    engine.execute(VIEW).unwrap();
    assert!(md.get_join_index(t1, t2, &on).is_none(), "CREATE VIEW");

    let direct = engine
        .prepare("SELECT COUNT(*) FROM t1 JOIN t2 ON (x, y, z)")
        .unwrap();
    let over_view = engine.prepare("SELECT COUNT(*) FROM v1").unwrap();
    assert!(direct.predicted_secs() > 0.0 && over_view.predicted_secs() > 0.0);
    assert!(
        md.get_join_index(t1, t2, &on).is_none(),
        "binding must cost a join from the estimate, never build its index"
    );

    // Admission binds too, and stays as cheap.
    let svc = QueryService::new(
        engine,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let queued = svc.submit("SELECT COUNT(*) FROM v1").unwrap();
    assert!(md.get_join_index(t1, t2, &on).is_none(), "submit");
    queued.cancel();

    let engine = svc.engine();
    let result = engine.run(&over_view, &Request::default()).unwrap();
    assert_eq!(result.rows[0].get(0), Value::I64(8 * PLANE));
    assert!(
        md.get_join_index(t1, t2, &on).is_some(),
        "running the join plans it in full and persists the index"
    );
    // The same `Prepared` runs again, and elsewhere: on another engine
    // over the same deployment, which never saw the view.
    let elsewhere = QueryEngine::new(d);
    let again = elsewhere.run(&over_view, &Request::default()).unwrap();
    assert_eq!(again.rows, result.rows);
}

#[test]
fn unparsable_statement_is_admitted_and_resolves_with_the_parse_error() {
    let svc = QueryService::new(QueryEngine::new(deployment()), ServiceConfig::default()).unwrap();
    let before = svc.counters();
    let ticket = svc.submit("SELEKT 1").expect("not bounced from submit");
    let err = ticket.wait().unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err}");
    // A statement that parses but does not bind takes the same road.
    let ticket = svc.submit("SELECT * FROM nowhere").expect("admitted");
    assert!(ticket.wait().is_err());
    let c = svc.counters();
    assert_eq!(c.submitted, c.admitted);
    assert_eq!(c.submitted, before.submitted + 2);
    assert_eq!(c.completed, before.completed + 2);
    assert_eq!(c.rejected, before.rejected);
    assert!(c.admission_balances() && c.completion_balances());
}
