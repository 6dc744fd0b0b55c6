//! Analytic cost models for the Indexed Join and Grace Hash QES
//! (paper Section 5) and the crossover analysis (Section 6.2).
//!
//! The Query Planning Service uses these models to pick the faster
//! algorithm for a given dataset/cluster/query combination:
//!
//! ```text
//! Total_IJ = Transfer + BuildHT + Lookup
//!   Transfer = T·(RS_R+RS_S) / min(Net_bw(n_s,n_j), readIO_bw·n_s)
//!   BuildHT  = α_build · T / n_j
//!   Lookup   = α_lookup · n_e · c_S / n_j
//!
//! Total_GH = Transfer + Write + Read + Cpu
//!   Write = T·(RS_R+RS_S) / (writeIO_bw · n_j)
//!   Read  = T·(RS_R+RS_S) / (readIO_bw · n_j)
//!   Cpu   = (α_build + α_lookup) · T / n_j
//! ```
//!
//! and prefer IJ when (Section 6.2, with `IO_bw = readIO = writeIO` and
//! `m_S = T/c_S`):
//!
//! ```text
//! IO_bw / F  <  2·(RS_R+RS_S) / (γ2 · (n_e/m_S − 1))
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod crossover;
pub mod grace;
pub mod indexed;
pub mod params;

pub use crossover::{choose_algorithm, crossover_ne_cs, prefers_indexed_join, Choice};
pub use grace::GraceHashModel;
pub use indexed::IndexedJoinModel;
pub use params::{CostParams, SystemParams};
