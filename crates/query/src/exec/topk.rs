//! Incremental top-k query processing (paper §4) — compatibility
//! façade over the staged operator pipeline.
//!
//! The former monolithic implementation now lives in four stage
//! modules with narrow seams between them:
//!
//! * [`crate::exec::merge`] — stage 1: pattern alternatives and the
//!   [`IncrementalMerge`] sorted-access source behind the
//!   [`RankSource`] seam.
//! * [`crate::exec::join`] — stage 2: the hash-partitioned rank join
//!   and the scratch-[`Bindings`](crate::answer::Bindings) combine.
//! * [`crate::exec::threshold`] — stage 3: the (optionally tightened)
//!   termination bound, stream capping, and the remaining-mass
//!   envelope that is the load-bearing criterion of the ε-approximate
//!   mode ([`TopkConfig::epsilon`]).
//! * [`crate::exec::drive`] — stage 4: variant enumeration, stream
//!   assembly, and the pull loop; `run_pipeline` is the composition
//!   seam the sharded engine shares.
//!
//! This module re-exports the public surface so existing callers (and
//! the paper-anchored docs that reference `exec::topk`) keep working;
//! new code should import from the stage modules directly.

pub use crate::exec::budget::{
    describe_panic, BudgetTracker, Completeness, CutoffReason, DegradationRung, ExecBudget,
    ExecError, Governor,
};
pub use crate::exec::drive::{
    run, run_cached, run_governed, run_scaled, run_scaled_traced, run_scaled_with, GovernedRun,
    TopkConfig,
};
pub use crate::exec::merge::{AltView, IncrementalMerge, Merged, RankSource};
