//! Cluster substrate: the hardware the paper ran on, twice over.
//!
//! The paper's experiments ran on a Linux cluster (10 nodes, PIII 933 MHz,
//! 512 MB RAM, IDE disks, Switched Fast Ethernet) split into storage and
//! compute nodes. This crate substitutes for that testbed in two
//! complementary ways:
//!
//! * [`sim`] — a **deterministic discrete-event cluster simulator**. Every
//!   resource the paper's cost models name (storage-disk read bandwidth,
//!   scratch-disk read/write bandwidth, NIC/fabric bandwidth, per-node CPU
//!   rate) is a FIFO bandwidth server; join algorithms issue chunk-grained
//!   requests against them, so pipelining and contention *emerge* rather
//!   than being assumed. Runs the paper's experiments at full scale
//!   (2·10⁹ tuples) in milliseconds, because only costs move, not bytes.
//! * [`runtime`] and [`exchange`] — the **real threaded runtime**: byte
//!   counters and run statistics; Grace Hash's frame codec, its checksummed
//!   storage → compute link and each compute node's bucket queue (memory
//!   or real temp files). One OS thread per cluster node executes the same
//!   scheduling/caching/partitioning code paths on real data.
//!
//! [`spec::ClusterSpec`] describes a cluster once; both substrates consume
//! it.

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod cancel;
pub mod checksum;
pub mod exchange;
pub mod fault;
pub mod resource;
pub mod runtime;
pub mod sim;
pub mod spec;
pub mod workers;

pub use cancel::{CancelToken, SLEEP_SLICE};
pub use checksum::crc32c;
pub use exchange::ScratchKind;
pub use fault::{
    silence_injected_panics, ClientFloodSpec, Fault, FaultInjector, FaultPlan, FaultStats,
    PerFault, RecoveryPolicy, SendVerdict, ShardDeathSpec, ShardSlowStormSpec, WorkerPanicSpec,
};
pub use resource::Resource;
pub use runtime::{ByteCounter, RunStats};
pub use sim::{NodeClocks, SimCluster};
pub use spec::ClusterSpec;
pub use workers::{all_done, run_workers, WorkerBody, WorkerEnd};
