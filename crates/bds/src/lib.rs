//! Basic Data Source service and synthetic dataset generation.
//!
//! A **Basic Data Source** is "an extractor and a group of file segments":
//! it interprets flat-file chunks as sub-tables. This crate provides
//!
//! * [`partition`] — regular grid partitioning and block-cyclic placement
//!   of chunks over storage nodes (how parallel simulation writers lay
//!   data out);
//! * [`generator`] — the oil-reservoir-style synthetic dataset generator
//!   (the paper's own evaluation datasets "were generated to exhibit
//!   similar characteristics to those of oil reservoir simulation
//!   datasets");
//! * [`deployment`] — a set of per-storage-node chunk stores plus the
//!   shared MetaData service and extractor registry;
//! * [`service`] — the BDS instance running on each storage node,
//!   answering sub-table requests for local chunks, and the
//!   [`SubTableReader`] every scan and join fetches them through.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod deployment;
pub mod generator;
pub mod partition;
pub mod service;

pub use deployment::Deployment;
pub use generator::{
    generate_dataset, plume_value, scalar_value, DatasetHandle, DatasetSpec, DatasetSpecBuilder,
    ScalarModel,
};
pub use partition::{GridPartition, Region};
pub use service::{BdsService, SubTableReader};
