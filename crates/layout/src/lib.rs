//! Layout-description language for application-specific chunk formats.
//!
//! Scientific datasets are written by simulations in ad-hoc binary formats.
//! Rather than hand-coding an extractor per format, the paper (following
//! Weng et al., HPDC'04 — its reference \[17\]) generates extractors from a
//! *layout description*. This crate implements that idea:
//!
//! * a small textual DSL ([`parse_layout`]) describing endianness, record
//!   order (row- vs column-major), header bytes, fields and padding;
//! * a compiler ([`CompiledLayout`]) that turns a description into an
//!   executable extractor: `raw chunk bytes → typed columns`;
//! * the inverse encoder, used by the dataset generator to *write* chunks in
//!   any described format (and by round-trip tests).
//!
//! # Example
//!
//! ```
//! use orv_layout::{parse_layout, CompiledLayout};
//! use orv_types::{ColumnData, Value};
//!
//! let desc = parse_layout(r#"
//!     layout reservoir_v1 {
//!         endian little;
//!         order row_major;
//!         header 8;
//!         field x: i32;
//!         field y: i32;
//!         pad 4;
//!         field wp: f32;
//!     }
//! "#).unwrap();
//! let compiled = CompiledLayout::compile(&desc).unwrap();
//! assert_eq!(compiled.record_stride(), 16);
//!
//! let columns = vec![
//!     vec![Value::I32(1), Value::I32(2)],
//!     vec![Value::I32(10), Value::I32(20)],
//!     vec![Value::F32(0.5), Value::F32(0.25)],
//! ];
//! let bytes = compiled.encode(&columns).unwrap();
//! assert_eq!(bytes.len(), 8 + 2 * 16);
//! // Decoding yields one typed array per field.
//! let decoded = compiled.decode(&bytes).unwrap();
//! assert_eq!(decoded[0], ColumnData::I32(vec![1, 2]));
//! assert_eq!(decoded[2], ColumnData::F32(vec![0.5, 0.25]));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod ast;
pub mod compile;
pub mod lexer;
pub mod parser;

pub use ast::{Endian, Item, LayoutDesc, RecordOrder};
pub use compile::CompiledLayout;
pub use parser::parse_layout;
