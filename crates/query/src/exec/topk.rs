//! Incremental top-k query processing (paper §4) — the public surface
//! of the staged operator pipeline.
//!
//! The processor lives in four stage modules with narrow seams between
//! them:
//!
//! * [`crate::exec::merge`] — stage 1: pattern alternatives and the
//!   [`IncrementalMerge`] sorted-access source over a view's slices.
//! * [`crate::exec::join`] — stage 2: the hash-partitioned rank join
//!   and the scratch-[`Bindings`](crate::answer::Bindings) combine.
//! * [`crate::exec::threshold`] — stage 3: the head-bound-tightened
//!   termination bound, stream capping, and the remaining-mass
//!   envelope that is the load-bearing criterion of the ε-approximate
//!   mode ([`TopkConfig::epsilon`]).
//! * [`crate::exec::drive`] — stage 4: the one entry point
//!   [`execute`]`(view, request, ctx)`, variant enumeration, stream
//!   assembly, and the pull loop.
//!
//! This module re-exports that surface under the paper-anchored name
//! `exec::topk`.

pub use crate::exec::budget::{
    describe_panic, BudgetTracker, Completeness, CutoffReason, DegradationRung, ExecBudget,
    ExecError,
};
pub use crate::exec::drive::{
    execute, run, run_governed, ExecCtx, ExecOutcome, ExecRequest, TopkConfig,
};
pub use crate::exec::merge::{AltView, IncrementalMerge, Merged};
pub use crate::exec::segmented::StoreView;
