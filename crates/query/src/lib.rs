//! Derived Data Sources: views, a SQL subset, and the Query Planning
//! Service.
//!
//! This crate is the top of the paper's Figure 2 stack. It lets a client
//! define join-based views over the virtual tables exposed by BDSs
//! (`CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y)`), run range and
//! aggregation queries against tables and views, and leaves the choice of
//! join QES (Indexed Join vs Grace Hash) to the planner, which evaluates
//! the Section 5 cost models against the dataset's metadata.
//!
//! ```
//! use orv_bds::{generate_dataset, DatasetSpec, Deployment};
//! use orv_query::QueryEngine;
//!
//! let d = Deployment::in_memory(2);
//! for (name, seed) in [("t1", 1), ("t2", 2)] {
//!     let spec = DatasetSpec::builder(name)
//!         .grid([8, 8, 1])
//!         .partition([4, 4, 1])
//!         .scalar_attrs(if seed == 1 { &["oilp"] } else { &["wp"] })
//!         .seed(seed)
//!         .build();
//!     generate_dataset(&spec, &d).unwrap();
//! }
//! let mut engine = QueryEngine::new(d);
//! engine.execute("CREATE VIEW v1 AS SELECT * FROM t1 JOIN t2 ON (x, y, z)").unwrap();
//! let result = engine
//!     .execute("SELECT * FROM v1 WHERE x IN [0, 3]")
//!     .unwrap();
//! assert_eq!(result.rows.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod agg;
pub mod ast;
pub mod engine;
pub mod exec;
pub mod federation;
pub mod lexer;
pub mod overload;
pub mod parser;
pub mod plan;
pub mod service;

pub use ast::{AggFunc, JoinClause, Query, RangePred, SelectItem, Statement, ViewDef};
pub use engine::{algorithm_slug, Catalog, Prepared, QueryEngine, QueryResult, Request};
pub use federation::{
    FederatedResponse, FederatedService, FederationConfig, PartialResult, RetryGrants,
};
pub use overload::{
    BrownoutController, BrownoutState, BrownoutTransition, CostClass, OverloadConfig,
};
pub use parser::parse_statement;
pub use plan::{PlanExplain, Planner};
pub use service::{QueryService, QueryTicket, ServiceConfig, ServiceCounters};
