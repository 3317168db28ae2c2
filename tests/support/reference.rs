//! The references the facade's answers are checked against:
//! `expand::run` on a system's one frozen slice — full expansion over
//! the system rules at `TopkConfig::reference_expansion`, exact
//! evaluation over no rules.

use trinit_core::query::exec::expand;
use trinit_core::query::{Answer, ExecMetrics, Query};
use trinit_core::relax::RuleSet;
use trinit_core::shard::ShardedStore;
use trinit_core::Trinit;

/// `expand::run` of `query` under `rules` on `sys`'s one frozen slice.
pub fn run(sys: &Trinit, query: &Query, rules: &RuleSet) -> (Vec<Answer>, ExecMetrics) {
    let slice = sys.segmented_store().and_then(ShardedStore::single_slice);
    let slice = slice.expect("the references read one frozen slice");
    expand::run(
        slice,
        query,
        rules,
        &sys.topk_config().reference_expansion(),
    )
}

/// Full expansion of `query` over `sys`'s rules.
pub fn full(sys: &Trinit, query: &Query) -> (Vec<Answer>, ExecMetrics) {
    run(sys, query, sys.rules())
}

/// Exact evaluation of `query`: no rules.
pub fn exact(sys: &Trinit, query: &Query) -> Vec<Answer> {
    run(sys, query, &RuleSet::new()).0
}
