//! IJ scheduling strategies.
//!
//! The paper's two-stage strategy: "In the first stage, each QES instance
//! in the compute cluster is assigned equal number of components. Then,
//! local id pairs \[are\] sorted in lexicographic order of
//! `((i1,j1),(i2,j2))`". With the §5.1 memory assumption this guarantees no
//! sub-table is evicted while still needed.
//!
//! The engine runs that strategy only. The other policies are arguments of
//! the simulator's IJ and quantify *why* it matters (DESIGN.md A1):
//! [`SchedulePolicy::PairRoundRobin`] scatters pairs ignoring components
//! (edges of one component land on different nodes — the OPAS failure mode
//! of Section 6.2), and [`SchedulePolicy::RandomPairOrder`] keeps the
//! component placement but randomizes local order, defeating cache
//! residency.

use crate::connectivity::ConnectivityGraph;
use crate::lru::LruCache;
use orv_types::SubTableId;

/// How IJ distributes and orders candidate pairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulePolicy {
    /// The paper's strategy: components round-robin over nodes, local pairs
    /// in lexicographic order.
    TwoStageLexicographic,
    /// Components round-robin over nodes, local pair order shuffled
    /// deterministically by the given seed.
    RandomPairOrder(u64),
    /// Ignore components entirely: individual pairs round-robin over nodes
    /// in global lexicographic order.
    PairRoundRobin,
    /// Components round-robin over nodes, local order chosen by a greedy
    /// Optimal-Page-Access-Sequence heuristic (Chan & Ooi '97 / Fotouhi &
    /// Pramanik '89, the paper's refs [4, 5]): always run next a pair that
    /// reuses sub-tables currently resident in a simulated LRU buffer of
    /// the given capacity (in sub-tables). Useful in the high-edge-ratio
    /// regime of Section 6.2 where lexicographic order starts missing.
    OpasGreedy {
        /// Simulated buffer capacity, in sub-tables.
        buffer_subtables: usize,
    },
}

/// The pair lists assigned to each of `n_compute` QES instances.
pub fn schedule(
    graph: &ConnectivityGraph,
    n_compute: usize,
    policy: SchedulePolicy,
) -> Vec<Vec<(SubTableId, SubTableId)>> {
    assert!(n_compute > 0, "need at least one compute node");
    let mut plans: Vec<Vec<(SubTableId, SubTableId)>> = vec![Vec::new(); n_compute];
    match policy {
        SchedulePolicy::TwoStageLexicographic
        | SchedulePolicy::RandomPairOrder(_)
        | SchedulePolicy::OpasGreedy { .. } => {
            // Stage 1: equal number of components per node (round-robin).
            for (ci, comp) in graph.components.iter().enumerate() {
                plans[ci % n_compute].extend(comp.edges.iter().copied());
            }
            // Stage 2: local order.
            match policy {
                SchedulePolicy::TwoStageLexicographic => {
                    for plan in &mut plans {
                        plan.sort();
                    }
                }
                SchedulePolicy::RandomPairOrder(seed) => {
                    for (ni, plan) in plans.iter_mut().enumerate() {
                        shuffle(plan, seed ^ (ni as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    }
                }
                SchedulePolicy::OpasGreedy { buffer_subtables } => {
                    for plan in &mut plans {
                        opas_greedy(plan, buffer_subtables);
                    }
                }
                SchedulePolicy::PairRoundRobin => unreachable!(),
            }
        }
        SchedulePolicy::PairRoundRobin => {
            let mut edges: Vec<_> = graph.edges().collect();
            edges.sort();
            for (i, e) in edges.into_iter().enumerate() {
                plans[i % n_compute].push(e);
            }
        }
    }
    plans
}

/// Greedy OPAS: repeatedly run next a remaining pair with the most
/// sub-tables resident in an LRU of `capacity` sub-tables (scored with
/// [`LruCache::peek`], which leaves recency alone); the first such pair in
/// lexicographic order wins, so the order is deterministic.
fn opas_greedy(plan: &mut Vec<(SubTableId, SubTableId)>, capacity: usize) {
    let mut remaining = std::mem::take(plan);
    remaining.sort();
    let mut buffer = LruCache::new(capacity as u64);
    let resident = |buffer: &LruCache<SubTableId, ()>, (l, r): (SubTableId, SubTableId)| {
        u32::from(buffer.peek(&l).is_some()) + u32::from(buffer.peek(&r).is_some())
    };
    // `max_by_key` keeps the last maximum, so scan from the back.
    while let Some(best) = (0..remaining.len())
        .rev()
        .max_by_key(|&i| resident(&buffer, remaining[i]))
    {
        let (l, r) = remaining.remove(best);
        for id in [l, r] {
            if buffer.get(&id).is_none() {
                buffer.put(id, (), 1);
            }
        }
        plan.push((l, r));
    }
}

/// Deterministic Fisher-Yates with a splitmix64 stream.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orv_types::TableId;

    fn sid(t: u32, c: u32) -> SubTableId {
        SubTableId::new(t, c)
    }

    /// Four components of 2 edges each over 8 left / 4 right sub-tables.
    fn graph() -> ConnectivityGraph {
        let mut edges = Vec::new();
        for k in 0..4u32 {
            edges.push((sid(0, 2 * k), sid(1, k)));
            edges.push((sid(0, 2 * k + 1), sid(1, k)));
        }
        ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x"], edges)
    }

    #[test]
    fn components_balanced_across_nodes() {
        let g = graph();
        assert_eq!(g.num_components(), 4);
        let plans = schedule(&g, 2, SchedulePolicy::TwoStageLexicographic);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].len(), 4);
        assert_eq!(plans[1].len(), 4);
        // Component edges stay together: each node sees 2 complete
        // components.
        for plan in &plans {
            let rights: std::collections::HashSet<_> = plan.iter().map(|e| e.1).collect();
            assert_eq!(rights.len(), 2);
        }
    }

    #[test]
    fn local_order_is_lexicographic() {
        let plans = schedule(&graph(), 2, SchedulePolicy::TwoStageLexicographic);
        for plan in &plans {
            let mut sorted = plan.clone();
            sorted.sort();
            assert_eq!(*plan, sorted);
        }
    }

    #[test]
    fn all_edges_scheduled_exactly_once() {
        let g = graph();
        for policy in [
            SchedulePolicy::TwoStageLexicographic,
            SchedulePolicy::RandomPairOrder(42),
            SchedulePolicy::PairRoundRobin,
        ] {
            let plans = schedule(&g, 3, policy);
            let mut all: Vec<_> = plans.into_iter().flatten().collect();
            all.sort();
            let mut expected: Vec<_> = g.edges().collect();
            expected.sort();
            assert_eq!(all, expected, "{policy:?}");
        }
    }

    #[test]
    fn round_robin_splits_components() {
        let g = graph();
        let plans = schedule(&g, 2, SchedulePolicy::PairRoundRobin);
        // Adjacent edges of the same component alternate nodes, so each
        // node sees all 4 right sub-tables (instead of 2).
        let rights: std::collections::HashSet<_> = plans[0].iter().map(|e| e.1).collect();
        assert_eq!(rights.len(), 4);
    }

    #[test]
    fn random_order_is_deterministic_per_seed() {
        let g = graph();
        let a = schedule(&g, 2, SchedulePolicy::RandomPairOrder(7));
        let b = schedule(&g, 2, SchedulePolicy::RandomPairOrder(7));
        let c = schedule(&g, 2, SchedulePolicy::RandomPairOrder(8));
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should differ for 4-edge plans");
    }

    #[test]
    fn more_nodes_than_components() {
        let g = graph();
        let plans = schedule(&g, 8, SchedulePolicy::TwoStageLexicographic);
        let nonempty = plans.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 4);
    }

    /// One big tangled component: complete bipartite 6×6.
    fn tangled() -> ConnectivityGraph {
        let mut edges = Vec::new();
        for l in 0..6u32 {
            for r in 0..6u32 {
                edges.push((sid(0, l), sid(1, r)));
            }
        }
        ConnectivityGraph::from_edges(TableId(0), TableId(1), &["x"], edges)
    }

    /// Replay a pair order against a unit-size LRU of `cap` sub-tables and
    /// count fetches (first touches + refetches).
    fn replay_fetches(plan: &[(SubTableId, SubTableId)], cap: u64) -> u64 {
        let mut cache: crate::lru::LruCache<SubTableId, ()> = crate::lru::LruCache::new(cap);
        let mut fetches = 0;
        for &(l, r) in plan {
            for id in [l, r] {
                if cache.get(&id).is_none() {
                    fetches += 1;
                    cache.put(id, (), 1);
                }
            }
        }
        fetches
    }

    #[test]
    fn opas_schedules_every_edge_once() {
        let g = tangled();
        let plans = schedule(
            &g,
            2,
            SchedulePolicy::OpasGreedy {
                buffer_subtables: 3,
            },
        );
        let mut all: Vec<_> = plans.into_iter().flatten().collect();
        all.sort();
        let mut expected: Vec<_> = g.edges().collect();
        expected.sort();
        assert_eq!(all, expected);
    }

    #[test]
    fn opas_beats_random_order_under_tight_buffer() {
        let g = tangled();
        let cap = 3u64;
        let opas = schedule(
            &g,
            1,
            SchedulePolicy::OpasGreedy {
                buffer_subtables: cap as usize,
            },
        );
        let random = schedule(&g, 1, SchedulePolicy::RandomPairOrder(1234));
        let opas_fetches = replay_fetches(&opas[0], cap);
        let random_fetches = replay_fetches(&random[0], cap);
        assert!(
            opas_fetches <= random_fetches,
            "OPAS {opas_fetches} must not exceed random {random_fetches}"
        );
        // And it must do strictly better than the worst case of refetching
        // a side every pair.
        assert!(opas_fetches < 2 * g.num_edges() as u64);
    }

    #[test]
    fn opas_with_zero_buffer_degenerates_but_terminates() {
        let g = graph();
        let plans = schedule(
            &g,
            2,
            SchedulePolicy::OpasGreedy {
                buffer_subtables: 0,
            },
        );
        assert_eq!(plans.iter().map(Vec::len).sum::<usize>(), g.num_edges());
    }

    #[test]
    fn opas_is_deterministic() {
        let g = tangled();
        let a = schedule(
            &g,
            2,
            SchedulePolicy::OpasGreedy {
                buffer_subtables: 4,
            },
        );
        let b = schedule(
            &g,
            2,
            SchedulePolicy::OpasGreedy {
                buffer_subtables: 4,
            },
        );
        assert_eq!(a, b);
    }
}
