//! # trinit-relax — query relaxation framework
//!
//! Implements §3 of the TriniT paper: relaxation rules that replace a set
//! of triple patterns in a query with a new set, weighted by semantic
//! similarity. Rules come from four sources, all implemented here:
//!
//! * **XKG co-occurrence mining** ([`mine`]) — the paper's
//!   `w(p1 ↦ p2) = |args(p1) ∩ args(p2)| / |args(p2)|` formula, forward
//!   and inverted;
//! * **ontology/granularity rules** ([`ontology`]) — paper rule 1;
//! * **paraphrase repositories** ([`paraphrase`]);
//! * **user-defined rules** and arbitrary plug-ins through the
//!   [`operator`] API.
//!
//! [`apply::walk`] enumerates weighted relaxation *sequences*: the one
//! walk behind [`apply::expand`] (full expansion, and the top-k
//! processor's structural variants) and the top-k processor's
//! per-pattern relaxation tables, in `trinit-query`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod apply;
pub mod mine;
pub mod ontology;
pub mod operator;
pub mod paraphrase;
pub mod pattern;
pub mod rule;
pub mod ruleset;

pub use apply::{apply_rule, canonical_key, expand, ConditionOracle, ExpandOptions, RelaxedQuery};
pub use mine::{mine_cooccurrence, MinedRule, MinerConfig};
pub use ontology::{granularity_rule, mine_granularity, GranularityMinerConfig, GranularitySpec};
pub use operator::{
    CooccurrenceOperator, GranularityOperator, ManualOperator, OperatorRegistry,
    ParaphraseOperator, RelaxationOperator,
};
pub use paraphrase::{paraphrase_rules, ParaphraseGroup};
pub use pattern::{display_pattern, var_count, QPattern, QTerm, VarId};
pub use rule::{RVar, Rule, RuleId, RuleKind, RuleProvenance, SlotRewrite, TTerm, Template};
pub use ruleset::RuleSet;
