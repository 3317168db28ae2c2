//! Facade-level fault-injection acceptance test (feature `faults`).
//!
//! The contract a serving tier builds on: a batch submitted through
//! [`Trinit::run_batch`] survives any single query's panic — the
//! poisoned query's slot carries a typed [`ExecError::WorkerPanicked`],
//! every other query completes with its normal answers, and the process
//! never aborts.

#![cfg(feature = "faults")]

use trinit_core::faults::{FaultPlan, FaultScope};
use trinit_core::worldgen::{CorpusConfig, KgConfig, World, WorldConfig};
use trinit_core::{Engine, ExecError, Trinit, TrinitBuilder};
use trinit_query::Query;

fn tiny_sharded_system(shards: usize) -> Trinit {
    let world = World::generate(WorldConfig::tiny(11));
    let mut builder =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(7));
    builder.options_mut().shards(shards);
    builder.build()
}

#[test]
fn run_batch_isolates_a_single_query_panic() {
    let texts = [
        "?x type person LIMIT 4",
        "?x type university LIMIT 3",
        "?x type city LIMIT 5",
    ];
    for shards in [1, 2, 4] {
        let sys = tiny_sharded_system(shards);
        let queries: Vec<Query> = texts.iter().map(|t| sys.parse(t).unwrap()).collect();
        let sequential: Vec<_> = texts
            .iter()
            .map(|t| sys.query(t).unwrap().answers)
            .collect();
        let victim = 1;
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![victim],
            ..FaultPlan::default()
        });
        let batch = sys.run_batch(queries, Engine::IncrementalTopK);
        assert_eq!(batch.len(), texts.len());
        for (qi, outcome) in batch.iter().enumerate() {
            if qi == victim {
                let err = outcome.as_ref().expect_err("victim query must error");
                let ExecError::WorkerPanicked { context, payload } = err;
                assert_eq!(context, "batch query 1", "shards={shards}");
                assert!(payload.contains("injected fault"), "payload was: {payload}");
            } else {
                let outcome = outcome.as_ref().expect("bystander query must complete");
                assert_eq!(outcome.answers.len(), sequential[qi].len());
                for (x, y) in outcome.answers.iter().zip(&sequential[qi]) {
                    assert!((x.score - y.score).abs() < 1e-9);
                }
            }
        }
        assert_eq!(sys.registry().get(trinit_core::Counter::QueryFailures), 1);
    }
}
