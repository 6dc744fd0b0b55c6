//! The MetaData Service.
//!
//! Stores information about chunks (location, size, attributes, extractors,
//! bounding boxes), answers range queries over chunk bounding boxes using an
//! [R-tree](rtree::RTree) (Guttman '84 — the paper's reference \[6\]), and
//! holds persistent artifacts other services produce, such as precomputed
//! page-level join indices.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod catalog;
pub mod persist;
pub mod placement;
pub mod rtree;
pub mod service;

pub use catalog::{Catalog, TableEntry};
pub use persist::CatalogSnapshot;
pub use placement::Placement;
pub use rtree::{RTree, Rect};
pub use service::MetadataService;
