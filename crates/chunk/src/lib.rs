//! Chunks, extractors, and columnar sub-tables.
//!
//! A *chunk* is a contiguous file segment in an application-specific binary
//! format — the smallest unit of retrieval from the storage system. An
//! *extractor* interprets chunk bytes and produces a [`SubTable`]: a
//! columnar partition of a virtual table carrying a subset of records along
//! with its bounding box.
//!
//! The pieces:
//!
//! * [`SubTable`] — the standard in-memory data structure all services
//!   exchange (the paper's "sub-table": records + attribute iteration +
//!   bounding box).
//! * [`ChunkMeta`] — per-chunk metadata (location, size, extractor name,
//!   bounding box) stored by the MetaData service.
//! * [`Extractor`] / [`LayoutExtractor`] / [`ExtractorRegistry`] — mapping
//!   raw bytes to sub-tables; `LayoutExtractor` is generated from a layout
//!   description (`orv-layout`).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod extractor;
pub mod format;
pub mod meta;
pub mod subtable;

pub use extractor::{Extractor, ExtractorRegistry, LayoutExtractor};
pub use format::{ChunkLocation, ChunkStore, FileChunkStore, MemChunkStore};
pub use meta::ChunkMeta;
pub use subtable::SubTable;
