//! # trinit-core — TriniT: exploratory querying of extended knowledge graphs
//!
//! A from-scratch Rust reproduction of **TriniT** (Yahya, Berberich,
//! Ramanath, Weikum: *Exploratory Querying of Extended Knowledge Graphs*,
//! PVLDB 9(13), 2016). TriniT tackles the two pain points of exploratory
//! KG querying — vocabulary mismatch and KG incompleteness — by
//!
//! 1. extending the KG with textual token triples mined by Open IE (the
//!    **XKG**, `trinit-xkg` + `trinit-openie`);
//! 2. relaxing queries through weighted rewrite rules, mined from the XKG
//!    itself (`trinit-relax`);
//! 3. ranking answers with a query-likelihood model under incremental
//!    top-k processing (`trinit-query`).
//!
//! This crate is the facade: [`TrinitBuilder`] builds a system from KG
//! facts + raw text, [`Trinit`] answers queries and provides the demo
//! features (answer explanation, query suggestion,
//! auto-completion), and [`Session`] adds user-defined rules.
//!
//! ```
//! use trinit_core::fixtures::{paper_store, paper_rules};
//! use trinit_core::Trinit;
//!
//! let store = paper_store();
//! let rules = paper_rules(&store);
//! let system = Trinit::from_parts(store, rules);
//! let outcome = system.query("?x bornIn Ulm").unwrap();
//! assert_eq!(outcome.answers.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod complete;
pub mod explain;
pub mod fixtures;
pub mod session;
pub mod suggest;
pub mod trinit;

pub use complete::{Completer, Completion};
pub use explain::{explain, processing_report, Explanation};
pub use session::{Session, SESSION_CACHE_CAPACITY};
pub use suggest::{suggest, suggest_sharded, SuggestConfig, Suggestion};
pub use trinit::{BuildOptions, BuildStats, Engine, QueryOutcome, Trinit, TrinitBuilder};

// Budgeted-execution surface: the serving tier reads a query's typed
// completeness and handles per-query worker panics without unwrapping
// through the sub-crates.
pub use trinit_query::{
    Completeness, CutoffReason, DegradationRung, ExecBudget, ExecError,
};

// Observability surface: per-query stage traces ride on
// [`QueryOutcome`], the process-wide registry serializes counters and
// latency quantiles via [`Trinit::metrics_snapshot`].
pub use trinit_obs::{
    CacheTally, Counter, Gauge, Histogram, MetricsRegistry, ObsConfig, QueryTrace, SpanRecord,
    Stage, TraceRecorder,
};
pub use trinit_obs as obs;

/// Deterministic fault-injection harness (feature `faults`): install a
/// [`faults::FaultPlan`] to arm seeded panics, per-pull latency, and
/// allocation pressure in robustness tests.
#[cfg(feature = "faults")]
pub use trinit_query::faults;

// Re-export the sub-crates so downstream users need only one dependency.
pub use trinit_openie as openie;
pub use trinit_query as query;
pub use trinit_relax as relax;
pub use trinit_shard as shard;
pub use trinit_worldgen as worldgen;
pub use trinit_xkg as xkg;
