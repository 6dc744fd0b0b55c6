//! The canonical registry of event and span names.
//!
//! Replay-from-log (PR 2) and the predicted-vs-measured phase mapping
//! (`report.rs`) both match on *strings*: a typo'd inline literal at an
//! emit site doesn't fail — it silently produces events no replay or
//! report ever finds. Every runtime emit/span site therefore takes its
//! name from here (`orv-lint` rule L005 enforces it); tests and examples
//! are encouraged to do the same so assertions can't drift either.
//!
//! Span paths are `group/phase`: the group identifies a node's role
//! (`n3`, `s0`, `c2`, `bds1`) and the phase must be one of the
//! cost-model phase constants below for the §5 mapping to see it.

/// Event: the engine picked a query-execution strategy.
pub const QES_CHOICE: &str = "qes_choice";
/// Event: plan-level failover re-ran the join on the alternate QES.
pub const QES_FAILOVER: &str = "qes_failover";
/// Event: a seeded fault plan was armed (one per chaos run).
pub const FAULT_PLAN: &str = "fault_plan";
/// Event: the injector fired one fault (kind/site/draw payload).
pub const FAULT_INJECTED: &str = "fault_injected";
/// Event: a checksum boundary caught corrupted bytes.
pub const CORRUPTION_DETECTED: &str = "corruption_detected";
/// Event: a trace ID was minted for a newly submitted query.
pub const TRACE_BEGIN: &str = "trace_begin";
/// Event: a traced query resolved (outcome + total latency payload).
pub const TRACE_END: &str = "trace_end";
/// Event: the brownout controller changed state (from/to/tick/reason
/// payload) — the replayable transition log of a chaos run.
pub const BROWNOUT_TRANSITION: &str = "brownout_transition";

/// Histogram: time a query sat in the admission queue before a worker
/// claimed it.
pub const LAT_QUEUE_WAIT: &str = "lat/queue_wait_secs";
/// Histogram: time spent inside admission control (submit → queued).
pub const LAT_ADMISSION: &str = "lat/admission_secs";
/// Histogram: engine planning time per query.
pub const LAT_PLAN: &str = "lat/plan_secs";
/// Histogram: single-flight block time — how long a cache lookup waited
/// for a peer's in-flight build.
pub const LAT_CACHE_WAIT: &str = "lat/cache_wait_secs";
/// Histogram: worker execution time (claim → resolve).
pub const LAT_EXEC: &str = "lat/exec_secs";
/// Histogram: how long a federated flight had been outstanding when its
/// hedge was issued — the latency the hedge mechanism absorbed.
pub const LAT_HEDGE: &str = "lat/hedge_overhead_secs";
/// Histogram: federated merge/assembly time per query.
pub const LAT_MERGE: &str = "lat/merge_secs";
/// Histogram: end-to-end latency of root queries (no parent trace).
pub const LAT_TOTAL: &str = "lat/total_secs";

/// Every serving-path latency histogram, in report order.
pub const LAT_ALL: &[&str] = &[
    LAT_QUEUE_WAIT,
    LAT_ADMISSION,
    LAT_PLAN,
    LAT_CACHE_WAIT,
    LAT_EXEC,
    LAT_HEDGE,
    LAT_MERGE,
    LAT_TOTAL,
];

/// The one canonical bucket layout for every `lat/*` histogram
/// (~50µs … 10s, roughly ×3–4 per step). A single shared layout keeps
/// registry bounds-conflicts impossible and snapshots mergeable.
pub const LAT_BOUNDS: &[f64] = &[
    50e-6, 200e-6, 500e-6, 2e-3, 5e-3, 20e-3, 50e-3, 200e-3, 500e-3, 2.0, 10.0,
];

/// The `lat/<leaf>_secs` leaf of a latency histogram name — the phase
/// label used in [`QueryTrace`](crate::QueryTrace) attribution rows.
pub fn lat_phase(name: &str) -> &str {
    name.strip_prefix("lat/")
        .and_then(|s| s.strip_suffix("_secs"))
        .unwrap_or(name)
}

/// Counter: shared-cache lookups answered from the cache.
pub const CACHE_HITS: &str = "cache/hits";
/// Counter: shared-cache lookups that had to fetch/build.
pub const CACHE_MISSES: &str = "cache/misses";
/// Counter: shared-cache entries displaced to stay within capacity.
pub const CACHE_EVICTIONS: &str = "cache/evictions";
/// Counter: total shared-cache lookups (hits + misses must equal this).
pub const CACHE_LOOKUPS: &str = "cache/lookups";

/// Counter: queries handed to the service (admitted + rejected).
pub const SERVICE_SUBMITTED: &str = "service/submitted";
/// Counter: queries accepted past admission control.
pub const SERVICE_ADMITTED: &str = "service/admitted";
/// Counter: queries rejected with `Error::Overloaded` at the queue cap.
pub const SERVICE_REJECTED: &str = "service/rejected";
/// Counter: admitted queries that ran to a result (ok or error).
pub const SERVICE_COMPLETED: &str = "service/completed";
/// Counter: admitted queries that ended in `Cancelled`/`DeadlineExceeded`.
pub const SERVICE_CANCELLED: &str = "service/cancelled";
/// Counter: admitted queries shed before touching a worker (deadline
/// budget expired in the queue, or dropped by the brownout shedder).
pub const SERVICE_SHED: &str = "service/shed";

/// Counter: queries shed because their deadline budget expired while
/// still queued — they never reached a worker.
pub const OVERLOAD_SHED_EXPIRED: &str = "overload/shed_expired";
/// Counter: expensive-class queries rejected by the cost-aware shedder
/// while the service was under pressure.
pub const OVERLOAD_SHED_EXPENSIVE: &str = "overload/shed_expensive";
/// Counter: cheap-class queries admitted through the fast lane, ahead
/// of the FIFO.
pub const OVERLOAD_FAST_LANE: &str = "overload/fast_lane_admits";
/// Counter: brownout controller state transitions (any direction).
pub const OVERLOAD_TRANSITIONS: &str = "overload/brownout_transitions";
/// Counter: retry/hedge issues denied because the shard's retry budget
/// was exhausted (the query degrades to a partial result instead).
pub const OVERLOAD_RETRY_DENIED: &str = "overload/retries_denied";
/// Counter: retry/hedge issues granted by a retry budget draw.
pub const OVERLOAD_RETRY_GRANTED: &str = "overload/retries_granted";
/// Counter: overload rejections whose callers honored the
/// `retry_after` hint with a bounded backoff instead of re-issuing.
pub const OVERLOAD_BACKOFFS: &str = "overload/backoffs";
/// Gauge: current brownout state (0 = Normal, 1 = Brownout, 2 = Shed).
pub const OVERLOAD_STATE: &str = "overload/state";
/// Gauge: retry-budget tokens currently available (milli-tokens).
pub const OVERLOAD_RETRY_TOKENS: &str = "overload/retry_tokens";

/// Counter: sub-queries fanned out by the federated router.
pub const FED_SUBQUERIES: &str = "fed/subqueries";
/// Counter: hedge flights issued after the hedge delay expired.
pub const FED_HEDGES: &str = "fed/hedges";
/// Counter: hedge flights whose answer filled at least one chunk first.
pub const FED_HEDGE_WINS: &str = "fed/hedge_wins";
/// Counter: sub-queries re-routed to a replica after a shard error.
pub const FED_FAILOVERS: &str = "fed/failovers";
/// Counter: circuit-breaker trips (a shard went Open).
pub const FED_TRIPS: &str = "fed/breaker_trips";
/// Counter: shard-level sub-query failures observed by the router.
pub const FED_SHARD_ERRORS: &str = "fed/shard_errors";
/// Counter: federated queries that returned a `PartialResult`.
pub const FED_PARTIAL: &str = "fed/partial_results";
/// Counter: chunks reported missing across all partial results.
pub const FED_MISSING_CHUNKS: &str = "fed/missing_chunks";

/// Span group of the engine's own phases: its plan phase is
/// `engine/plan`, timed once for `lat/plan_secs` and the span.
pub const ENGINE: &str = "engine";
/// Span: end-to-end plan execution inside the engine.
pub const ENGINE_EXEC: &str = "engine/exec";
/// Span: a join's row edge inside the engine — ordering the QES's batches
/// and building its rows, after `engine/exec` has closed.
pub const ENGINE_ROWS: &str = "engine/rows";

/// Phase: storage→compute sub-table transfer (IJ cost-model term).
pub const PHASE_TRANSFER: &str = "transfer";
/// Phase: hash-table build.
pub const PHASE_BUILD: &str = "build";
/// Phase: hash-table probe.
pub const PHASE_PROBE: &str = "probe";
/// Phase: Grace Hash bucket write to scratch.
pub const PHASE_SCRATCH_WRITE: &str = "scratch_write";
/// Phase: Grace Hash bucket read back from scratch.
pub const PHASE_SCRATCH_READ: &str = "scratch_read";
/// Phase: storage-node chunk read.
pub const PHASE_READ: &str = "read";
/// Phase: storage-node bucket partitioning (GH senders).
pub const PHASE_PARTITION: &str = "partition";
/// Phase: interconnect send (GH senders).
pub const PHASE_SEND: &str = "send";
/// Phase: sub-table extraction on a storage node.
pub const PHASE_EXTRACT: &str = "extract";
/// Phase: aggregate CPU time (build + probe) in the GH cost model.
pub const PHASE_CPU: &str = "cpu";

/// `bds{node}/read` — BDS chunk read on a storage node.
pub fn span_bds_read(node: u32) -> String {
    format!("bds{node}/{PHASE_READ}")
}

/// `bds{node}/extract` — sub-table extraction on a storage node.
pub fn span_bds_extract(node: u32) -> String {
    format!("bds{node}/{PHASE_EXTRACT}")
}

/// `n{idx}/{phase}` — an Indexed-Join compute node phase.
pub fn span_ij(node_idx: usize, phase: &str) -> String {
    format!("n{node_idx}/{phase}")
}

/// `s{idx}/{phase}` — a Grace Hash storage-side sender phase.
pub fn span_gh_sender(node_idx: usize, phase: &str) -> String {
    format!("s{node_idx}/{phase}")
}

/// `c{idx}` — the span group tag of a Grace Hash consumer node; join
/// phases under it are `{tag}/{phase}` via [`span_tagged`].
pub fn gh_consumer_tag(node_idx: usize) -> String {
    format!("c{node_idx}")
}

/// `{tag}/{phase}` — a phase under an existing group tag.
pub fn span_tagged(tag: &str, phase: &str) -> String {
    format!("{tag}/{phase}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose_group_and_phase() {
        assert_eq!(span_bds_read(3), "bds3/read");
        assert_eq!(span_bds_extract(0), "bds0/extract");
        assert_eq!(span_ij(7, PHASE_TRANSFER), "n7/transfer");
        assert_eq!(span_gh_sender(2, PHASE_PARTITION), "s2/partition");
        assert_eq!(
            span_tagged(&gh_consumer_tag(4), PHASE_SCRATCH_READ),
            "c4/scratch_read"
        );
    }

    #[test]
    fn fed_counters_live_under_one_prefix() {
        for c in [
            FED_SUBQUERIES,
            FED_HEDGES,
            FED_HEDGE_WINS,
            FED_FAILOVERS,
            FED_TRIPS,
            FED_SHARD_ERRORS,
            FED_PARTIAL,
            FED_MISSING_CHUNKS,
        ] {
            assert!(c.starts_with("fed/"), "{c} escaped the fed/ namespace");
        }
    }

    #[test]
    fn overload_names_live_under_one_prefix() {
        for c in [
            OVERLOAD_SHED_EXPIRED,
            OVERLOAD_SHED_EXPENSIVE,
            OVERLOAD_FAST_LANE,
            OVERLOAD_TRANSITIONS,
            OVERLOAD_RETRY_DENIED,
            OVERLOAD_RETRY_GRANTED,
            OVERLOAD_BACKOFFS,
            OVERLOAD_STATE,
            OVERLOAD_RETRY_TOKENS,
        ] {
            assert!(
                c.starts_with("overload/"),
                "{c} escaped the overload/ namespace"
            );
        }
        assert!(SERVICE_SHED.starts_with("service/"));
    }

    #[test]
    fn lat_histograms_live_under_one_prefix_with_shared_bounds() {
        for name in LAT_ALL {
            assert!(
                name.starts_with("lat/"),
                "{name} escaped the lat/ namespace"
            );
            assert!(name.ends_with("_secs"), "{name} must carry the _secs unit");
            assert_ne!(lat_phase(name), *name, "{name} has no derivable phase leaf");
        }
        assert_eq!(lat_phase(LAT_QUEUE_WAIT), "queue_wait");
        assert_eq!(lat_phase(LAT_TOTAL), "total");
        // Shared bounds: finite, strictly increasing, covering µs to 10s.
        assert!(LAT_BOUNDS.windows(2).all(|w| w[0] < w[1]));
        assert!(LAT_BOUNDS.iter().all(|b| b.is_finite() && *b > 0.0));
        assert!(*LAT_BOUNDS.first().unwrap() <= 1e-4);
        assert!(*LAT_BOUNDS.last().unwrap() >= 10.0);
    }

    #[test]
    fn phases_match_the_cost_model_registry() {
        // The report's required-phase lists must be expressible from the
        // constants here, so the §5 mapping and the emit sites cannot
        // drift apart.
        for p in crate::IJ_PHASES {
            assert!(
                [PHASE_TRANSFER, PHASE_BUILD, PHASE_PROBE].contains(p),
                "IJ phase {p} missing from names registry"
            );
        }
        for p in crate::GH_PHASES {
            assert!(
                [
                    PHASE_TRANSFER,
                    PHASE_SCRATCH_WRITE,
                    PHASE_SCRATCH_READ,
                    PHASE_CPU
                ]
                .contains(p),
                "GH phase {p} missing from names registry"
            );
        }
    }
}
