//! Shared vocabulary for the `orv` workspace.
//!
//! This crate defines the types every other layer speaks:
//!
//! * [`Value`] / [`DataType`] — the scalar value model of virtual tables.
//! * [`Schema`] / [`Attribute`] — table shapes, with coordinate vs scalar
//!   attribute roles (the paper joins tables on coordinate attributes such
//!   as `(x, y)`).
//! * [`Record`] — a row of a virtual table: a view of one row in a
//!   shared, immutable block of values.
//! * [`ColumnBatch`] — a run of rows as fixed-width typed arrays; the
//!   batch currency of the columnar execution path.
//! * [`BoundingBox`] — n-dimensional lower/upper bounds over attributes,
//!   attached to every chunk and sub-table; drives the page-level join index.
//! * Identifier newtypes ([`TableId`], [`ChunkId`], [`SubTableId`],
//!   [`NodeId`]) used across services.
//! * [`Error`] — the workspace error type.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod batch;
pub mod bbox;
pub mod error;
pub mod ids;
pub mod record;
pub mod schema;
pub mod value;

pub use batch::{ColumnBatch, ColumnData};
pub use bbox::{BoundingBox, Interval};
pub use error::{Error, Result};
pub use ids::{ChunkId, NodeId, SubTableId, TableId};
pub use record::Record;
pub use schema::{AttrRole, Attribute, Schema};
pub use value::{DataType, Value};
