//! Nested-loop reference join — the correctness oracle.
//!
//! Gathers every sub-table of both tables through the BDS services and
//! joins them by brute force. Quadratic and single-threaded on purpose:
//! no scheduling, caching, hashing or partitioning code is shared with the
//! algorithms under test.

use orv_bds::{BdsService, Deployment};
use orv_types::{BoundingBox, Record, Result, SubTableId, TableId};

/// Materialize every record of `table`, optionally filtered by `range`.
pub fn scan_table(
    deployment: &Deployment,
    table: TableId,
    range: Option<&BoundingBox>,
) -> Result<Vec<Record>> {
    let services = BdsService::for_all_nodes(deployment)?;
    let md = deployment.metadata();
    let mut out = Vec::new();
    for chunk in md.all_chunks(table)? {
        let id = SubTableId { table, chunk };
        let meta = md.chunk_meta(id)?;
        if let Some(rg) = range {
            if !meta.bbox.overlaps(rg) {
                continue;
            }
        }
        let mut st = services[meta.node.index()].subtable(id)?;
        if let Some(rg) = range {
            st = st.filter_range(rg)?;
        }
        out.extend(st.records()?);
    }
    Ok(out)
}

/// Nested-loop equi-join of two tables on `join_attrs`, optionally range
/// constrained. Output records are `left ⨝ right` with right key fields
/// dropped (matching the hash-join output shape), in unspecified order.
pub fn nested_loop_join(
    deployment: &Deployment,
    left: TableId,
    right: TableId,
    join_attrs: &[&str],
    range: Option<&BoundingBox>,
) -> Result<Vec<Record>> {
    let md = deployment.metadata();
    let lschema = md.schema(left)?;
    let rschema = md.schema(right)?;
    let lkeys: Vec<usize> = join_attrs
        .iter()
        .map(|a| lschema.require(a))
        .collect::<Result<_>>()?;
    let rkeys: Vec<usize> = join_attrs
        .iter()
        .map(|a| rschema.require(a))
        .collect::<Result<_>>()?;

    let lrecs = scan_table(deployment, left, range)?;
    let rrecs = scan_table(deployment, right, range)?;
    let mut out = Vec::new();
    for l in &lrecs {
        let lk = l.key(&lkeys);
        for r in &rrecs {
            if lk == r.key(&rkeys) {
                out.push(l.join(r, &rkeys));
            }
        }
    }
    Ok(out)
}

/// Sort records for order-insensitive comparison in tests.
pub fn sort_records(mut records: Vec<Record>) -> Vec<Record> {
    records.sort_by(|a, b| a.values().cmp(b.values()));
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_bds::{generate_dataset, DatasetSpec};
    use orv_types::Interval;

    fn two_tables() -> (Deployment, TableId, TableId) {
        let d = Deployment::in_memory(2);
        let t1 = generate_dataset(
            &DatasetSpec::builder("t1")
                .grid([4, 4, 1])
                .partition([2, 2, 1])
                .scalar_attrs(&["oilp"])
                .seed(1)
                .build(),
            &d,
        )
        .unwrap();
        let t2 = generate_dataset(
            &DatasetSpec::builder("t2")
                .grid([4, 4, 1])
                .partition([4, 2, 1])
                .scalar_attrs(&["wp"])
                .seed(2)
                .build(),
            &d,
        )
        .unwrap();
        (d, t1.table, t2.table)
    }

    #[test]
    fn scan_returns_all_tuples() {
        let (d, t1, _) = two_tables();
        let recs = scan_table(&d, t1, None).unwrap();
        assert_eq!(recs.len(), 16);
    }

    #[test]
    fn scan_with_range_filters_rows() {
        let (d, t1, _) = two_tables();
        let range = BoundingBox::from_dims([("x", Interval::new(0.0, 1.0))]);
        let recs = scan_table(&d, t1, Some(&range)).unwrap();
        assert_eq!(recs.len(), 8);
    }

    #[test]
    fn full_coordinate_join_is_one_to_one() {
        let (d, t1, t2) = two_tables();
        let out = nested_loop_join(&d, t1, t2, &["x", "y", "z"], None).unwrap();
        // Selectivity 1 at record level: every grid point pairs exactly
        // once → T result tuples.
        assert_eq!(out.len(), 16);
        // Output arity: 4 + 4 - 3 keys = 5.
        assert_eq!(out[0].arity(), 5);
    }

    #[test]
    fn partial_key_join_fans_out() {
        let (d, t1, t2) = two_tables();
        // Joining only on (x, y) pairs each point with the z-line of the
        // other table: 16 × 1 here since z extent is 1.
        let out = nested_loop_join(&d, t1, t2, &["x", "y"], None).unwrap();
        assert_eq!(out.len(), 16);
    }
}
