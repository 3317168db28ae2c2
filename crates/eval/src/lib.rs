//! # trinit-eval — evaluation harness for the TriniT reproduction
//!
//! Regenerates every evaluation artifact of the paper (see `DESIGN.md`
//! §3 for the experiment index): the 70-query entity-relationship
//! benchmark with graded judgments ([`benchmark`]), NDCG/MAP metrics
//! ([`metrics`]), the four-system comparison of E1 ([`runner`]), and the
//! report tables printed by the `reproduce` binary.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod benchmark;
pub mod judge;
pub mod metrics;
pub mod report;
pub mod runner;

pub use benchmark::{generate_benchmark, BenchQuery, BenchmarkConfig, Category};
pub use judge::grade_ranking;
pub use metrics::{average_precision, dcg_at, mean, ndcg_at, precision_at};
pub use runner::{
    build_full_system, build_kg_only_system, build_sharded_system, build_world, efficiency_sweep,
    figure4_rules, run_evaluation, suggestion_hits, EfficiencyRow, EvalConfig, Evaluation,
    SystemScores,
};
