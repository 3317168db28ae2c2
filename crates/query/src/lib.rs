//! # trinit-query — extended triple-pattern queries and top-k processing
//!
//! The query layer of the TriniT reproduction: the extended query
//! language of §2 (triple patterns whose slots may be resources, tokens,
//! literals, or variables), the query-likelihood scoring model of §4, and
//! three execution engines — exact (no relaxation), full expansion
//! (reference/baseline), and the paper's incremental top-k with lazy
//! relaxation invocation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod answer;
pub mod ast;
pub mod exec;
pub mod parser;
pub mod plan;
pub mod score;

pub use answer::{Answer, AnswerCollector, Bindings, Derivation};
pub use ast::{Query, QueryBuilder};
pub use exec::budget::{
    describe_panic, BudgetTracker, Completeness, CutoffReason, ExecBudget, ExecError,
};
#[cfg(feature = "faults")]
pub use exec::faults;
pub use exec::topk::{IncrementalMerge, TopkConfig};
pub use exec::ExecMetrics;
pub use parser::{parse, ParseError};
pub use plan::plan_order;
pub use score::{
    canonical_pattern, head_prob_bound_global, ln_weight, satisfies_mask, CacheSource,
    CanonicalPattern, GlobalTotals, ScoredMatches, SharedCacheStats, SharedPostingCache, LOG_ZERO,
};

// Re-export the pattern language for downstream convenience.
pub use trinit_relax::{QPattern, QTerm, VarId};

// Re-export the instrumentation surface (`TopkConfig::obs` and the
// traces engine results carry are typed by these).
pub use trinit_obs::{ObsConfig, QueryTrace, SpanRecord, Stage, TraceRecorder};
