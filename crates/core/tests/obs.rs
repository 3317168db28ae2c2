//! System-level observability: per-query traces on [`QueryOutcome`],
//! the process-wide [`MetricsRegistry`] behind [`Trinit`], and the
//! cache tally dropped [`Session`]s fold in.

use trinit_core::fixtures::{paper_rules, paper_store};
use trinit_core::shard::ShardedStore;
use trinit_core::xkg::XkgBuilder;
use trinit_core::{Counter, Engine, Gauge, ObsConfig, Session, Stage, Trinit};

const FACTS: &[(&str, &str, &str)] = &[
    ("ann", "likes", "tea"),
    ("bob", "likes", "tea"),
    ("cal", "likes", "ice"),
    ("dan", "likes", "tea"),
];

fn kg_builder(rows: &[(&str, &str, &str)]) -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for (s, p, o) in rows {
        b.add_kg_resources(s, p, o);
    }
    b
}

fn add_delta(b: &mut XkgBuilder) {
    b.add_kg_resources("eve", "likes", "soda");
    b.add_kg_resources("fay", "likes", "tea");
}

#[test]
fn query_outcomes_carry_traces_and_feed_the_registry() {
    let store = paper_store();
    let rules = paper_rules(&store);
    let sys = Trinit::from_parts(store, rules);

    let outcome = sys.query("?x bornIn Ulm").unwrap();
    let trace = outcome.trace();
    assert!(!trace.is_empty(), "instrumented query must record spans");
    assert_eq!(trace.stage_count(Stage::Query), 1, "one query span");
    assert!(
        trace.stage_total_ns(Stage::Query) >= trace.stage_total_ns(Stage::JoinRound),
        "the query span covers its join rounds"
    );
    let json = trace.to_json();
    assert!(json.contains("\"spans\""), "{json}");

    sys.query("AlbertEinstein hasAdvisor ?x").unwrap();
    let reg = sys.registry();
    assert_eq!(reg.get(Counter::Queries), 2);
    assert!(reg.get(Counter::Answers) >= 1);
    assert_eq!(
        reg.get(Counter::CompletenessExact)
            + reg.get(Counter::CompletenessApprox)
            + reg.get(Counter::CompletenessTruncated),
        2,
        "every query lands in exactly one completeness bucket"
    );
    assert_eq!(reg.query_wall().count(), 2, "per-query wall is sampled");
    assert!(
        reg.stage(Stage::Query).count() >= 2,
        "query spans feed the stage histograms"
    );
}

#[test]
fn obs_off_disables_tracing_without_changing_answers() {
    let store = paper_store();
    let rules = paper_rules(&store);
    let on = Trinit::from_parts(paper_store(), paper_rules(&paper_store()));
    let mut off = Trinit::from_parts(store, rules);
    off.set_obs(ObsConfig::off());

    let q = "?x bornIn Ulm";
    let traced = on.query(q).unwrap();
    let silent = off.query(q).unwrap();
    assert!(!traced.trace().is_empty());
    assert!(silent.trace().is_empty(), "ObsConfig::off records nothing");
    assert_eq!(traced.answers.len(), silent.answers.len());
    for (a, b) in traced.answers.iter().zip(&silent.answers) {
        assert!((a.score - b.score).abs() < 1e-12);
    }
    // Counters still tick with tracing off — only spans are elided.
    assert_eq!(off.registry().get(Counter::Queries), 1);
    assert_eq!(off.registry().stage(Stage::Query).count(), 0);
}

#[test]
fn ingest_and_compact_feed_counters_gauges_and_stage_histograms() {
    for mut sys in [
        Trinit::from_parts(kg_builder(FACTS).build(), trinit_core::relax::RuleSet::new()),
        Trinit::from_sharded_parts(
            ShardedStore::build(kg_builder(FACTS), 2),
            trinit_core::relax::RuleSet::new(),
        ),
    ] {
        let appended = sys.ingest(add_delta);
        assert_eq!(appended, 2);
        let reg = sys.registry();
        assert_eq!(reg.get(Counter::IngestBatches), 1);
        assert_eq!(reg.get(Counter::IngestedTriples), 2);
        assert_eq!(reg.stage(Stage::Ingest).count(), 1, "ingest wall sampled");
        assert!(reg.gauge(Gauge::DeltaTriples) > 0, "delta gauge is live");
        let total = reg.gauge(Gauge::StoreTriples);
        assert!(total >= FACTS.len() as u64 + 2);

        sys.compact();
        let reg = sys.registry();
        assert_eq!(reg.get(Counter::Compactions), 1);
        assert_eq!(reg.stage(Stage::Compact).count(), 1);
        assert_eq!(reg.gauge(Gauge::DeltaTriples), 0, "compaction drains delta");
        assert_eq!(reg.gauge(Gauge::StoreTriples), total, "no triples lost");
        assert_eq!(reg.gauge(Gauge::StoreGeneration), sys.generation());
    }
}

#[test]
fn metrics_snapshot_serializes_counters_and_quantiles() {
    let sys = Trinit::from_parts(paper_store(), paper_rules(&paper_store()));
    sys.query("?x bornIn Ulm").unwrap();
    let json = sys.metrics_snapshot();
    for key in [
        "\"counters\"",
        "\"queries\":1",
        "\"gauges\"",
        "\"cache\"",
        "\"poison_recoveries\"",
        "\"query_wall_ns\"",
        "\"stages_ns\"",
        "\"p50\"",
        "\"p90\"",
        "\"p99\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn sharded_paths_trace_merge_and_batches() {
    let sys = Trinit::from_sharded_parts(
        ShardedStore::build(kg_builder(FACTS), 3),
        trinit_core::relax::RuleSet::new(),
    );
    let q = sys.parse("?p likes tea LIMIT 10").unwrap();
    let outcome = sys.run(q, Engine::IncrementalTopK);
    let trace = outcome.trace();
    assert_eq!(trace.stage_count(Stage::Query), 1);
    assert_eq!(trace.stage_count(Stage::Merge), 1);
    assert_eq!(
        trace.stage_count(Stage::SeedTask),
        0,
        "no seed phase: {trace:?}"
    );

    // The batch pool observes each query and carries its trace.
    let queries: Vec<_> = (0..2)
        .map(|_| sys.parse("?p likes tea LIMIT 10").unwrap())
        .collect();
    let before = sys.registry().get(Counter::Queries);
    let results = sys.run_batch(queries, Engine::IncrementalTopK);
    assert_eq!(results.len(), 2);
    for r in &results {
        let out = r.as_ref().expect("batch slot completes");
        assert!(!out.trace().is_empty(), "batch outcomes carry traces");
        assert_eq!(out.trace().stage_count(Stage::Merge), 1);
        assert_eq!(out.trace().dropped, 0);
    }
    assert_eq!(sys.registry().get(Counter::Queries), before + 2);
    assert_eq!(sys.registry().get(Counter::QueryFailures), 0);
}

#[test]
fn delta_restricted_outcomes_carry_traces_on_both_backends() {
    for mut sys in [
        Trinit::from_parts(kg_builder(FACTS).build(), trinit_core::relax::RuleSet::new()),
        Trinit::from_sharded_parts(
            ShardedStore::build(kg_builder(FACTS), 2),
            trinit_core::relax::RuleSet::new(),
        ),
    ] {
        sys.ingest(add_delta);
        let q = sys.parse("?p likes tea LIMIT 10").unwrap();
        let before = sys.registry().get(Counter::Queries);
        let introduced = sys.answers_introduced_by(q);
        assert_eq!(introduced.answers.len(), 1, "only fay is new");
        assert!(!introduced.trace().is_empty(), "delta pass traces too");
        assert_eq!(introduced.trace().stage_count(Stage::Query), 1);
        assert_eq!(sys.registry().get(Counter::Queries), before + 1);
    }
}

#[test]
fn dropped_sessions_fold_cache_traffic_into_the_registry() {
    let sys = Trinit::from_parts(paper_store(), paper_rules(&paper_store()));
    let q = "AlbertEinstein affiliation ?x LIMIT 5";
    {
        let session = Session::new(&sys);
        session.query(q).unwrap();
        session.query(q).unwrap();
        let stats = session.cache_stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        // Live sessions are private: nothing folded yet.
        let tally = sys.registry().cache_tally();
        assert_eq!(tally.hits, 0);
        assert_eq!(tally.misses, 0);
    }
    // Drop folded the session's lifetime tally process-wide.
    let tally = sys.registry().cache_tally();
    assert!(tally.hits > 0, "session hits folded at drop: {tally:?}");
    assert!(tally.misses > 0);
    let json = sys.metrics_snapshot();
    assert!(
        json.contains(&format!("\"hits\":{}", tally.hits)),
        "snapshot surfaces the folded tally: {json}"
    );
}

#[test]
fn sharded_session_runs_preserve_traces() {
    let sys = Trinit::from_sharded_parts(
        ShardedStore::build(kg_builder(FACTS), 2),
        trinit_core::relax::RuleSet::new(),
    );
    let session = Session::new(&sys);
    let q = sys.parse("?p likes tea LIMIT 10").unwrap();
    let out = session.run(q, Engine::IncrementalTopK);
    assert_eq!(out.trace().stage_count(Stage::SeedTask), 0);
    assert_eq!(out.trace().stage_count(Stage::Merge), 1);
}
