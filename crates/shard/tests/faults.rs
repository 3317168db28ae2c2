//! Fault-injection robustness suite (feature `faults`).
//!
//! Drives the deterministic harness in `trinit_query::faults` against
//! the batch pool (`QueryPool::try_execute`): any single query's panic
//! must be isolated to its own slot, deterministic seeds must replay,
//! and budgeted runs must hold their deadline under injected latency.

#![cfg(feature = "faults")]

use std::time::{Duration, Instant};

use trinit_query::exec::topk::{ExecOutcome, TopkConfig};
use trinit_query::faults::{FaultPlan, FaultScope};
use trinit_query::{Completeness, CutoffReason, ExecBudget, ExecError, Query, QueryBuilder};
use trinit_relax::{Rule, RuleProvenance, RuleSet};
use trinit_shard::{QueryPool, ShardedExecutor, ShardedStore};
use trinit_xkg::XkgBuilder;

fn builder() -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for i in 0..24u32 {
        b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
        b.add_kg_resources(&format!("y{i}"), "q", &format!("z{}", i % 5));
    }
    let src = b.intern_source("doc");
    for i in 0..10u32 {
        let s = b.dict_mut().resource(&format!("x{i}"));
        let p = b.dict_mut().token("close to");
        let o = b.dict_mut().resource(&format!("y{}", (i + 5) % 24));
        b.add_extracted(s, p, o, 0.6, src);
    }
    b
}

fn rules(store: &trinit_xkg::XkgStore) -> RuleSet {
    let p = store.resource("p").unwrap();
    let close = store.token("close to").unwrap();
    let mut rules = RuleSet::new();
    rules.add(Rule::predicate_rewrite(
        "p ~ close to",
        p,
        close,
        0.7,
        RuleProvenance::UserDefined,
    ));
    rules
}

/// Open (variable-subject) queries, so every query reads every shard.
fn open_queries(single: &trinit_xkg::XkgStore, n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            QueryBuilder::new(single)
                .pattern_v_r_v("a", "p", "b")
                .limit(3 + i)
                .build()
        })
        .collect()
}

/// `queries` as one batch on a pool of `workers`, each query one
/// [`ShardedExecutor::run`].
fn run_batch(
    exec: &ShardedExecutor<'_>,
    queries: &[Query],
    rules: &RuleSet,
    cfg: &TopkConfig,
    workers: usize,
) -> Vec<Result<ExecOutcome, ExecError>> {
    QueryPool::new(workers).try_execute(queries.iter().collect(), |q| exec.run(q, rules, cfg))
}

#[test]
fn batch_survives_any_single_query_panic() {
    let single = builder().build();
    let rules = rules(&single);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 4);
    for shards in [1, 2, 4, 7] {
        let sharded = ShardedStore::build(builder(), shards);
        let exec = ShardedExecutor::new(&sharded);
        let expected: Vec<_> = queries.iter().map(|q| exec.run(q, &rules, &cfg)).collect();
        // Exhaustive: panic every query in turn, on every pool size.
        for workers in [1, 2, 4] {
            for victim in 0..queries.len() {
                let _scope = FaultScope::install(FaultPlan {
                    query_panics: vec![victim],
                    ..FaultPlan::default()
                });
                let runs = run_batch(&exec, &queries, &rules, &cfg, workers);
                assert_eq!(runs.len(), queries.len());
                for (qi, run) in runs.iter().enumerate() {
                    let at = format!("shards={shards} workers={workers} victim={victim}");
                    if qi == victim {
                        let err = run.as_ref().expect_err("victim query must error");
                        let ExecError::WorkerPanicked { context, payload } = err;
                        assert_eq!(context, &format!("batch query {victim}"), "{at}");
                        assert!(payload.contains("injected fault"), "{at}: {payload}");
                    } else {
                        let run = run.as_ref().expect("bystander query must complete");
                        trinit_shard::testkit::assert_answers_score_equivalent(
                            &run.answers,
                            &expected[qi].answers,
                        );
                        assert_eq!(run.metrics, expected[qi].metrics, "{at}");
                    }
                }
            }
        }
    }
}

#[test]
fn probabilistic_injection_replays_from_its_seed() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 3);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 8);
    let outcome_shape = |seed: u64, workers: usize| -> Vec<bool> {
        let _scope = FaultScope::install(FaultPlan {
            panic_seed: seed,
            panic_prob: 0.4,
            ..FaultPlan::default()
        });
        run_batch(&exec, &queries, &rules, &cfg, workers)
            .iter()
            .map(Result::is_ok)
            .collect()
    };
    let first = outcome_shape(7, 2);
    assert!(
        first.iter().any(|ok| !ok) && first.iter().any(|ok| *ok),
        "prob 0.4 over 8 queries should poison some and spare some: {first:?}"
    );
    // The coin reads the batch index alone, so neither a rerun nor
    // another pool size moves it.
    assert_eq!(
        first,
        outcome_shape(7, 2),
        "same seed must replay identically"
    );
    assert_eq!(
        first,
        outcome_shape(7, 1),
        "the pool size must not move the coin"
    );
    assert_ne!(
        first,
        outcome_shape(8, 2),
        "another seed draws another coin"
    );
}

#[test]
fn deadline_holds_under_injected_pull_latency() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let deadline = Duration::from_millis(25);
    let cfg = TopkConfig {
        budget: ExecBudget {
            deadline: Some(deadline),
            ..ExecBudget::default()
        },
        ..TopkConfig::default()
    };
    let q = QueryBuilder::new(&single)
        .pattern_v_r_v("a", "p", "b")
        .limit(50)
        .build();
    let _scope = FaultScope::install(FaultPlan {
        pull_delay: Some(Duration::from_millis(3)),
        alloc_pressure: 1 << 16,
        ..FaultPlan::default()
    });
    #[expect(clippy::disallowed_methods, reason = "the test measures the wall-clock deadline it enforces")]
    let started = Instant::now();
    let run = exec.run(&q, &rules, &cfg);
    let elapsed = started.elapsed();
    // The cutoff is checked per pull, so the run overshoots by at most
    // one injected pull plus scheduling noise — far below the exact
    // run's demand (dozens of 3 ms pulls).
    assert!(
        elapsed < deadline + Duration::from_millis(250),
        "run must respect its deadline: took {elapsed:?}"
    );
    assert!(
        matches!(
            run.completeness,
            Completeness::Truncated { reason: CutoffReason::Deadline, .. }
        ),
        "latency must trip the deadline: {:?}",
        run.completeness
    );
    assert!(run.metrics.deadline_cutoffs >= 1, "{:?}", run.metrics);
}

/// Injected per-pull latency must surface in the stage histograms: the
/// faulted batch's query-span p99 sits above the clean batch's by at
/// least the injected delay (order-insensitive — each batch records
/// into its own registry).
#[test]
fn injected_pull_latency_shifts_stage_histogram_p99() {
    use trinit_obs::{MetricsRegistry, Stage};
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 3);

    let record_batch = |faulted: bool| -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        // The clean batch holds the scope too (with an empty plan), so a
        // concurrently running test's faults cannot leak into it.
        let _scope = FaultScope::install(FaultPlan {
            pull_delay: faulted.then(|| Duration::from_millis(2)),
            ..FaultPlan::default()
        });
        for run in run_batch(&exec, &queries, &rules, &cfg, 2) {
            registry.record_trace(&run.expect("no panics planned").trace);
        }
        registry
    };

    // Every pull is inside its query's span — one per query.
    let clean = record_batch(false);
    let slow = record_batch(true);
    assert_eq!(clean.stage(Stage::Query).count(), 3);
    let clean_p99 = clean.stage(Stage::Query).quantile(0.99);
    let slow_p99 = slow.stage(Stage::Query).quantile(0.99);
    assert!(
        slow_p99 >= clean_p99 + 1_000_000,
        "2 ms per pull must lift the query-span p99 by at least 1 ms: \
         clean {clean_p99} ns vs faulted {slow_p99} ns"
    );
}

/// A budget-truncated run still carries a full trace, ending in the
/// cutoff event that explains *why* it stopped.
#[test]
fn truncated_runs_trace_their_cutoff() {
    use trinit_obs::Stage;
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig {
        budget: ExecBudget {
            deadline: Some(Duration::from_millis(10)),
            ..ExecBudget::default()
        },
        ..TopkConfig::default()
    };
    let q = QueryBuilder::new(&single)
        .pattern_v_r_v("a", "p", "b")
        .limit(50)
        .build();
    let _scope = FaultScope::install(FaultPlan {
        pull_delay: Some(Duration::from_millis(3)),
        ..FaultPlan::default()
    });
    let run = exec.run(&q, &rules, &cfg);
    assert!(
        matches!(run.completeness, Completeness::Truncated { .. }),
        "latency must trip the deadline: {:?}",
        run.completeness
    );
    assert!(!run.trace.is_empty(), "truncated runs still trace");
    assert!(
        run.trace.stage_count(Stage::Cutoff) >= 1,
        "the trace records the cutoff: {:?}",
        run.trace
    );
    assert_eq!(run.trace.stage_count(Stage::Query), 1);
}

#[test]
fn unfaulted_runs_are_unaffected_by_a_cleared_plan() {
    let single = builder().build();
    let rules = rules(&single);
    let sharded = ShardedStore::build(builder(), 2);
    let exec = ShardedExecutor::new(&sharded);
    let cfg = TopkConfig::default();
    let queries = open_queries(&single, 2);
    {
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![0],
            ..FaultPlan::default()
        });
        let runs = run_batch(&exec, &queries, &rules, &cfg, 2);
        assert!(runs[0].is_err());
    }
    // Scope dropped: the same batch now completes cleanly. The empty
    // plan is held so no other test's plan can be installed meanwhile.
    let _scope = FaultScope::install(FaultPlan::default());
    let runs = run_batch(&exec, &queries, &rules, &cfg, 2);
    assert!(runs.iter().all(Result::is_ok), "cleared plan must not leak");
}
