//! End-to-end integration: real chunk files on disk, different binary
//! layouts, both join QES, the planner, and the query layer — the whole
//! Figure 2 stack.

use orv::bds::{generate_dataset, BdsService, DatasetSpec, Deployment};
use orv::join::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig, JoinAlgorithm};
use orv::layout::{Endian, RecordOrder};
use orv::query::QueryEngine;
use orv::types::{SubTableId, Value};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("orv-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn on_disk_deployment_full_stack() {
    let dir = tmpdir("stack");
    let deployment = Deployment::on_disk(&dir, 3).unwrap();

    // Heterogeneous layouts: the extractor abstraction must hide them.
    let t1 = DatasetSpec::builder("t1")
        .grid([16, 16, 2])
        .partition([8, 8, 2])
        .scalar_attrs(&["oilp"])
        .seed(10)
        .header(32)
        .endian(Endian::Big)
        .build();
    let t2 = DatasetSpec::builder("t2")
        .grid([16, 16, 2])
        .partition([4, 16, 2])
        .scalar_attrs(&["wp"])
        .seed(20)
        .order(RecordOrder::ColumnMajor)
        .build();
    let h1 = generate_dataset(&t1, &deployment).unwrap();
    let h2 = generate_dataset(&t2, &deployment).unwrap();

    // Chunk files actually exist on disk, one file per table per node.
    let files: Vec<_> = (0..3)
        .flat_map(|n| {
            std::fs::read_dir(dir.join(format!("node{n}")))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
        })
        .collect();
    assert!(files.iter().any(|f| f == "t1.dat"));
    assert!(files.iter().any(|f| f == "t2.dat"));

    // Query the stack.
    let engine = QueryEngine::new(deployment);
    engine
        .execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
        .unwrap();
    let all = engine.execute("SELECT * FROM v1").unwrap();
    assert_eq!(all.rows.len() as u64, h1.total_tuples());
    assert_eq!(all.rows.len() as u64, h2.total_tuples());
    let agg = engine
        .execute("SELECT COUNT(*), MIN(oilp), MAX(wp) FROM v1 WHERE z = 1")
        .unwrap();
    assert_eq!(agg.rows[0].get(0), Value::I64(256));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bds_serves_each_node_locally_on_disk() {
    let dir = tmpdir("bds");
    let deployment = Deployment::on_disk(&dir, 2).unwrap();
    let h = generate_dataset(
        &DatasetSpec::builder("t")
            .grid([8, 8, 1])
            .partition([4, 4, 1])
            .scalar_attrs(&["p"])
            .seed(5)
            .build(),
        &deployment,
    )
    .unwrap();
    let services = BdsService::for_all_nodes(&deployment).unwrap();
    let mut rows = 0;
    for chunk in deployment.metadata().all_chunks(h.table).unwrap() {
        let id = SubTableId {
            table: h.table,
            chunk,
        };
        let node = deployment.metadata().chunk_meta(id).unwrap().node;
        rows += services[node.index()].subtable(id).unwrap().num_rows();
    }
    assert_eq!(rows as u64, h.total_tuples());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn forced_ij_and_gh_agree_on_disk() {
    let dir = tmpdir("joins");
    let deployment = Deployment::on_disk(&dir, 2).unwrap();
    let h1 = generate_dataset(
        &DatasetSpec::builder("a")
            .grid([16, 8, 2])
            .partition([8, 4, 2])
            .scalar_attrs(&["u"])
            .seed(1)
            .build(),
        &deployment,
    )
    .unwrap();
    let h2 = generate_dataset(
        &DatasetSpec::builder("b")
            .grid([16, 8, 2])
            .partition([4, 8, 1])
            .scalar_attrs(&["v"])
            .seed(2)
            .build(),
        &deployment,
    )
    .unwrap();
    let attrs = ["x", "y", "z"];
    let ij = indexed_join(
        &deployment,
        h1.table,
        h2.table,
        &attrs,
        &IndexedJoinConfig {
            n_compute: 3,
            collect_results: true,
            ..Default::default()
        },
    )
    .unwrap();
    let gh = grace_hash_join(
        &deployment,
        h1.table,
        h2.table,
        &attrs,
        &GraceHashConfig {
            n_compute: 3,
            collect_results: true,
            scratch: orv::cluster::ScratchKind::TempFile,
            ..Default::default()
        },
    )
    .unwrap();
    let sort = |mut v: Vec<orv::types::Record>| {
        v.sort_by(|a, b| a.values().cmp(b.values()));
        v
    };
    assert_eq!(sort(ij.records().unwrap()), sort(gh.records().unwrap()));
    assert_eq!(ij.stats.result_tuples, 256);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_deployment_from_saved_catalog() {
    let dir = tmpdir("reopen");
    let catalog_path = dir.join("catalog.json");
    {
        let deployment = Deployment::on_disk(&dir, 2).unwrap();
        for (name, seed, scalar) in [("t1", 1u64, "oilp"), ("t2", 2, "wp")] {
            generate_dataset(
                &DatasetSpec::builder(name)
                    .grid([8, 8, 2])
                    .partition([4, 4, 2])
                    .scalar_attrs(&[scalar])
                    .seed(seed)
                    .build(),
                &deployment,
            )
            .unwrap();
        }
        // Run a join once so the page-level join index gets persisted too.
        let md = deployment.metadata();
        let (t1, t2) = (md.table_id("t1").unwrap(), md.table_id("t2").unwrap());
        indexed_join(
            &deployment,
            t1,
            t2,
            &["x", "y", "z"],
            &IndexedJoinConfig::default(),
        )
        .unwrap();
        deployment.save_catalog(&catalog_path).unwrap();
    } // original deployment dropped

    // Cold restart: only the data files and the catalog JSON exist.
    let reopened = Deployment::reopen(&dir, 2, &catalog_path).unwrap();
    let md = reopened.metadata();
    let (t1, t2) = (md.table_id("t1").unwrap(), md.table_id("t2").unwrap());
    assert!(
        md.get_join_index(t1, t2, &["x", "y", "z"]).is_some(),
        "join index persisted"
    );
    let engine = QueryEngine::new(reopened);
    engine
        .execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
        .unwrap();
    let r = engine.execute("SELECT COUNT(*) FROM v1").unwrap();
    assert_eq!(r.rows[0].get(0), Value::I64(128));
    let r = engine
        .execute("SELECT * FROM t1 WHERE x IN [0, 1]")
        .unwrap();
    assert_eq!(r.rows.len(), 32);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn engine_respects_forced_algorithm() {
    let deployment = Deployment::in_memory(2);
    for (name, seed) in [("t1", 1u64), ("t2", 2)] {
        generate_dataset(
            &DatasetSpec::builder(name)
                .grid([8, 8, 1])
                .partition([4, 4, 1])
                .scalar_attrs(if seed == 1 { &["a"] } else { &["b"] })
                .seed(seed)
                .build(),
            &deployment,
        )
        .unwrap();
    }
    let engine = QueryEngine::new(deployment).force_algorithm(Some(JoinAlgorithm::GraceHash));
    engine
        .execute("CREATE VIEW v AS SELECT * FROM t1 JOIN t2 ON (x, y, z)")
        .unwrap();
    let r = engine.execute("SELECT COUNT(*) FROM v").unwrap();
    assert_eq!(r.rows[0].get(0), Value::I64(64));
}
