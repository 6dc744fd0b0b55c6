//! # orv — Object-Relational Views of Scientific Datasets
//!
//! A reproduction of *"On Creating Efficient Object-relational Views of
//! Scientific Datasets"* (Narayanan, Kurc, Catalyurek, Saltz — ICPP 2006).
//!
//! The library lets you expose terabyte-scale scientific datasets — stored as
//! application-format flat files ("chunks") spread over the storage nodes of
//! a coupled storage/compute cluster — as object-relational tables and views,
//! without ingesting them into a DBMS.
//!
//! The main pieces, mirroring the paper's Figure 2:
//!
//! * [`orv_bds`] — **Basic Data Sources**: an extractor plus a set of chunks,
//!   producing *sub-tables* on request. Includes the synthetic oil-reservoir
//!   dataset generator used throughout the paper's evaluation.
//! * [`orv_layout`] / [`orv_chunk`] — the layout-description language that
//!   generates extractors, and the chunk binary format / columnar sub-table
//!   containers they operate on.
//! * [`orv_metadata`] — the **MetaData service**: chunk catalog with an
//!   R-tree index over chunk bounding boxes.
//! * [`orv_join`] — the two join **Query Execution Systems**: page-level
//!   Indexed Join (IJ) and Grace Hash (GH), both on a real threaded cluster
//!   runtime and on a discrete-event cluster simulator.
//! * [`orv_costmodel`] — the paper's Section 5 cost models and Section 6.2
//!   crossover analysis, used by the planner to pick IJ vs GH.
//! * [`orv_query`] — **Derived Data Sources**: views (`CREATE VIEW v AS
//!   SELECT ... JOIN ...`), a small SQL subset, and the Query Planning
//!   Service.
//! * [`orv_cluster`] — the cluster substrate (threaded runtime + simulator).
//! * [`orv_obs`] — the observability layer: metrics registry, span timers
//!   and structured events threaded through every service, plus the
//!   predicted-vs-measured report glue in [`obs_report`].
//!
//! ## Quickstart
//!
//! ```
//! use orv::prelude::*;
//!
//! // Generate a small oil-reservoir style dataset on 2 storage nodes.
//! let spec = DatasetSpec::builder("t1")
//!     .grid([16, 16, 4])
//!     .partition([8, 8, 4])
//!     .scalar_attrs(&["oilp"])
//!     .seed(7)
//!     .build();
//! let deployment = Deployment::in_memory(2);
//! let t1 = generate_dataset(&spec, &deployment).unwrap();
//! assert_eq!(t1.total_tuples(), 16 * 16 * 4);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub use orv_bds as bds;
pub use orv_chunk as chunk;
pub use orv_cluster as cluster;
pub use orv_costmodel as costmodel;
pub use orv_join as join;
pub use orv_layout as layout;
pub use orv_metadata as metadata;
pub use orv_obs as obs;
pub use orv_query as query;
pub use orv_types as types;

pub mod obs_report;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use orv_bds::{generate_dataset, DatasetHandle, DatasetSpec, Deployment};
    pub use orv_chunk::SubTable;
    pub use orv_costmodel::{CostParams, GraceHashModel, IndexedJoinModel, SystemParams};
    pub use orv_join::{GraceHashConfig, IndexedJoinConfig, JoinAlgorithm};
    pub use orv_metadata::MetadataService;
    pub use orv_obs::{Obs, ObsReport, RunReport};
    pub use orv_query::{Catalog, Planner, QueryEngine};
    pub use orv_types::{BoundingBox, Schema, Value};

    pub use crate::obs_report::{observe_grace_hash, observe_indexed_join, standard_report};
}
