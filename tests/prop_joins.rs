//! Property test: for arbitrary grid/partition shapes, node counts and
//! configurations, the distributed Indexed Join and Grace Hash produce
//! exactly the nested-loop oracle's result multiset.

use orv::bds::{generate_dataset, DatasetSpec, Deployment};
use orv::join::reference::{nested_loop_join, sort_records};
use orv::join::LruCache;
use orv::join::{grace_hash_join, indexed_join, GraceHashConfig, IndexedJoinConfig};
use proptest::prelude::*;

/// Small power-of-two divisor of `n`.
fn divisors_of(n: u64) -> Vec<u64> {
    (0..=n.trailing_zeros()).map(|k| 1u64 << k).collect()
}

fn shapes() -> impl Strategy<Value = ([u64; 3], [u64; 3], [u64; 3])> {
    // Grids up to 16×16×4, partitions arbitrary power-of-two divisors.
    (1u32..=4, 1u32..=4, 0u32..=2).prop_flat_map(|(lx, ly, lz)| {
        let grid = [1u64 << lx, 1u64 << ly, 1u64 << lz];
        let part = |g: u64| proptest::sample::select(divisors_of(g));
        (
            Just(grid),
            (part(grid[0]), part(grid[1]), part(grid[2])).prop_map(|(a, b, c)| [a, b, c]),
            (part(grid[0]), part(grid[1]), part(grid[2])).prop_map(|(a, b, c)| [a, b, c]),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ij_gh_and_oracle_agree(
        (grid, p1, p2) in shapes(),
        storage_nodes in 1usize..4,
        compute_nodes in 1usize..4,
        cache_bytes in prop_oneof![Just(0u64), Just(256u64), Just(1u64 << 30)],
        seed in 0u64..1000,
    ) {
        let deployment = Deployment::in_memory(storage_nodes);
        let h1 = generate_dataset(
            &DatasetSpec::builder("t1")
                .grid(grid)
                .partition(p1)
                .scalar_attrs(&["a"])
                .seed(seed)
                .build(),
            &deployment,
        )
        .unwrap();
        let h2 = generate_dataset(
            &DatasetSpec::builder("t2")
                .grid(grid)
                .partition(p2)
                .scalar_attrs(&["b"])
                .seed(seed + 1)
                .build(),
            &deployment,
        )
        .unwrap();
        let attrs = ["x", "y", "z"];

        let oracle = sort_records(
            nested_loop_join(&deployment, h1.table, h2.table, &attrs, None).unwrap(),
        );
        prop_assert_eq!(oracle.len() as u64, h1.total_tuples());

        let ij = indexed_join(
            &deployment,
            h1.table,
            h2.table,
            &attrs,
            &IndexedJoinConfig {
                n_compute: compute_nodes,
                cache_capacity: cache_bytes,
                collect_results: true,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(&sort_records(ij.records().unwrap()), &oracle);

        let gh = grace_hash_join(
            &deployment,
            h1.table,
            h2.table,
            &attrs,
            &GraceHashConfig {
                n_compute: compute_nodes,
                mem_per_node: 512, // force several buckets
                collect_results: true,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(&sort_records(gh.records().unwrap()), &oracle);
    }

    #[test]
    fn lru_cache_never_exceeds_capacity_and_counts_consistently(
        capacity in 1u64..64,
        ops in proptest::collection::vec((0u32..24, 1u64..16), 1..200),
    ) {
        let mut cache: LruCache<u32, u64> = LruCache::new(capacity);
        let mut lookups = 0u64;
        for (key, size) in ops {
            if cache.get(&key).is_none() {
                cache.put(key, size, size);
            }
            lookups += 1;
            prop_assert!(cache.used() <= capacity, "{} > {capacity}", cache.used());
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.lookups(), lookups);
    }
}
