//! The join-based Derived Data Source: distributed Indexed Join and Grace
//! Hash join Query Execution Systems.
//!
//! This crate implements the paper's two join algorithms twice — once for
//! real on the threaded cluster runtime, once against the discrete-event
//! simulator — plus the structures they share:
//!
//! * [`hash_join`] — the in-memory hash join both algorithms use as a
//!   sub-routine, with per-operation counters (these are the `α_build` /
//!   `α_lookup` events of the cost models);
//! * [`calibrate`] — those constants measured on this host, by timing
//!   that kernel and GH's bucket codec, and the host's `SystemParams`;
//! * [`lru`] / [`cache`] — the byte-capacity LRU and the Caching Service
//!   built from it (per-compute-node shards that outlive single queries);
//! * [`connectivity`] — the page-level join index: candidate sub-table
//!   pairs, the sub-table connectivity graph, its connected components, and
//!   the paper's closed forms for `C`, `N_C`, `E_C`;
//! * [`schedule`] — the two-stage IJ scheduling strategy (components split
//!   evenly over compute nodes, then lexicographic pair order), plus
//!   ablation variants the simulator takes as an argument;
//! * [`indexed`] / [`grace`] — the threaded-runtime executions;
//! * [`sim_exec`] — the simulator executions at paper scale, replaying
//!   the engines' decisions with byte sizes (IJ: [`connectivity`],
//!   [`schedule`] and [`lru`]; GH: [`grace`]'s bucket count and frames);
//! * [`mod@reference`] — a nested-loop oracle used by the test suite.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod cache;
pub mod calibrate;
pub mod connectivity;
pub mod grace;
pub mod hash_join;
pub mod indexed;
pub mod lru;
pub mod reference;
pub mod schedule;
pub mod sim_exec;

pub use cache::{left_key_tag, CacheKey, CacheService, CachedEntry};
pub use calibrate::{calibrate_host, host_system_params, Calibration};
pub use connectivity::{join_index, ConnectivityGraph, ConnectivityStats};
pub use grace::{grace_hash_join, GraceHashConfig};
pub use hash_join::{HashJoiner, JoinCounters};
pub use indexed::{indexed_join, indexed_join_cached, IndexedJoinConfig, JoinOutput};
pub use lru::{CacheStats, LruCache};
pub use schedule::SchedulePolicy;
pub use sim_exec::{simulate_grace_hash, simulate_indexed_join, SimBreakdown, SimProblem};

/// Which QES executes a join-based view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JoinAlgorithm {
    /// Page-level Indexed Join.
    IndexedJoin,
    /// Grace Hash join (output-partitioned).
    GraceHash,
}

impl std::fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinAlgorithm::IndexedJoin => write!(f, "IJ"),
            JoinAlgorithm::GraceHash => write!(f, "GH"),
        }
    }
}
