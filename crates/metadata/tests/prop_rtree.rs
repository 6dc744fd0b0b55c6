//! Property test: R-tree range queries agree with a brute-force scan.

use orv_metadata::{RTree, Rect};
use proptest::prelude::*;

fn rect2(max: f64) -> impl Strategy<Value = Rect> {
    (0.0..max, 0.0..max, 0.0..(max / 4.0), 0.0..(max / 4.0))
        .prop_map(|(x, y, w, h)| Rect::new(vec![x, y], vec![x + w, y + h]))
}

fn rect3(max: f64) -> impl Strategy<Value = Rect> {
    let side = 0.0..(max / 4.0);
    (
        0.0..max,
        0.0..max,
        0.0..max,
        side.clone(),
        side.clone(),
        side,
    )
        .prop_map(|(x, y, z, w, h, d)| Rect::new(vec![x, y, z], vec![x + w, y + h, z + d]))
}

/// A bound that is usually finite, sometimes infinite or NaN of either
/// sign.
fn odd_bound() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => 0.0..50.0,
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::NAN),
        1 => Just(-f64::NAN),
    ]
}

fn odd_rect2() -> impl Strategy<Value = Rect> {
    (odd_bound(), odd_bound(), odd_bound(), odd_bound())
        .prop_map(|(x0, y0, x1, y1)| Rect::new(vec![x0, y0], vec![x1, y1]))
}

fn build(rects: &[Rect], dim: usize) -> RTree<usize> {
    RTree::build(dim, rects.iter().cloned().zip(0..).collect())
}

/// The tree's answer, sorted, and the brute-force scan's.
fn both_answers(tree: &RTree<usize>, rects: &[Rect], query: &Rect) -> (Vec<usize>, Vec<usize>) {
    let mut got = tree.query(query);
    got.sort_unstable();
    let expected = (0..rects.len())
        .filter(|&i| rects[i].overlaps(query))
        .collect();
    (got, expected)
}

/// The smallest `h >= 1` with `8^h >= n`: ⌈log₈ n⌉, and 1 for one leaf.
fn log8_ceil(n: usize) -> usize {
    let mut h = 1;
    while 8usize.pow(h as u32) < n {
        h += 1;
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_matches_brute_force(
        rects in proptest::collection::vec(rect2(100.0), 0..200),
        query in rect2(100.0),
    ) {
        let tree = build(&rects, 2);
        prop_assert_eq!(tree.len(), rects.len());
        let (got, expected) = both_answers(&tree, &rects, &query);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn query_matches_brute_force_in_3d(
        rects in proptest::collection::vec(rect3(40.0), 0..300),
        queries in proptest::collection::vec(rect3(40.0), 1..8),
    ) {
        let tree = build(&rects, 3);
        prop_assert!(tree.height() <= log8_ceil(rects.len()));
        for query in &queries {
            let (got, expected) = both_answers(&tree, &rects, query);
            prop_assert_eq!(got, expected);
        }
    }

    /// At the sizes where a level fills or spills: 0, 1, 8, 9, 64, 65.
    #[test]
    fn node_boundary_sizes_match_brute_force(
        pick in 0usize..6,
        pool in proptest::collection::vec(rect2(30.0), 65..66),
        queries in proptest::collection::vec(rect2(30.0), 1..8),
    ) {
        let n = [0, 1, 8, 9, 64, 65][pick];
        let rects = &pool[..n];
        let tree = build(rects, 2);
        prop_assert_eq!(tree.height(), log8_ceil(n));
        for query in &queries {
            let (got, expected) = both_answers(&tree, rects, query);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn all_duplicate_boxes_match_brute_force(
        rect in rect2(30.0),
        n in 1usize..300,
        queries in proptest::collection::vec(rect2(30.0), 1..8),
    ) {
        let rects = vec![rect; n];
        let tree = build(&rects, 2);
        prop_assert_eq!(tree.height(), log8_ceil(n));
        for query in &queries {
            let (got, expected) = both_answers(&tree, &rects, query);
            prop_assert_eq!(got, expected);
        }
    }

    /// NaN and infinite bounds build without a panic, and finite queries
    /// still find exactly what a scan finds.
    #[test]
    fn non_finite_bounds_match_brute_force_on_finite_queries(
        rects in proptest::collection::vec(odd_rect2(), 0..200),
        queries in proptest::collection::vec(rect2(50.0), 1..8),
    ) {
        let tree = build(&rects, 2);
        prop_assert_eq!(tree.len(), rects.len());
        for query in &queries {
            let (got, expected) = both_answers(&tree, &rects, query);
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn for_each_visits_exactly_inserted(
        rects in proptest::collection::vec(rect2(50.0), 1..100),
    ) {
        let tree = build(&rects, 2);
        let mut seen = Vec::new();
        tree.for_each(|_, &v| seen.push(v));
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..rects.len()).collect::<Vec<_>>());
    }

    #[test]
    fn height_is_logarithmic(
        n in 1usize..400,
    ) {
        let rects: Vec<Rect> = (0..n)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                Rect::new(vec![x, y], vec![x + 1.0, y + 1.0])
            })
            .collect();
        // Packed nodes are full but the last of each level, so the height
        // is ⌈log₈ n⌉ exactly.
        let tree = build(&rects, 2);
        prop_assert_eq!(tree.height(), log8_ceil(n), "n={}", n);
    }
}
