//! Integration: query suggestion (paper §5) against the scan it
//! replaced, at every partition count and over a live delta.

use trinit_core::query::Query;
use trinit_core::relax::RuleSet;
use trinit_core::shard::ShardedStore;
use trinit_core::suggest::rule_invocation_notices;
use trinit_core::xkg::XkgBuilder;
use trinit_core::{QueryOutcome, SuggestConfig, Suggestion, Trinit};
use trinit_eval::{
    build_full_system, build_sharded_system, build_world, generate_benchmark, BenchmarkConfig,
    Category, EvalConfig,
};

#[path = "support/suggest_reference.rs"]
mod suggest_reference;

/// A suggestion as comparable data: the overlap and weight as bits.
fn key(s: &Suggestion) -> (String, String, u64, bool) {
    match s {
        Suggestion::ReplaceToken {
            token,
            resource,
            overlap,
            inverted,
        } => (token.clone(), resource.clone(), overlap.to_bits(), *inverted),
        Suggestion::RuleInvoked {
            rule,
            weight,
            structural,
        } => (rule.clone(), String::new(), weight.to_bits(), *structural),
    }
}

fn keys(suggestions: &[Suggestion]) -> Vec<(String, String, u64, bool)> {
    suggestions.iter().map(key).collect()
}

/// The system's store, whatever its partition count.
fn store_of(sys: &Trinit) -> &ShardedStore {
    sys.segmented_store()
        .or(sys.sharded_store())
        .expect("every system holds one store")
}

/// What the scan suggested for `query`: its token overlaps, then the
/// rule notices of `answers`.
fn reference(sys: &Trinit, query: &Query, outcome: &QueryOutcome) -> Vec<Suggestion> {
    let mut out =
        suggest_reference::token_resource_from(store_of(sys), query, &SuggestConfig::default());
    out.extend(rule_invocation_notices(sys.rules(), &outcome.answers));
    out
}

/// `Trinit::suggest` equals the scan suggestion for suggestion — token,
/// resource, overlap bits, direction and order — on all 70 graded
/// queries of the experiment driver's default system (E8's 14 among
/// them), with the same triples at 1, 2 and 3 partitions.
#[test]
fn suggest_equals_the_scan_at_every_partition_count() {
    let cfg = EvalConfig::default();
    let (world, kg) = build_world(&cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: cfg.seed.wrapping_add(3),
            per_category: cfg.per_category,
        },
    );
    assert_eq!(queries.len(), 70);
    let e8 = queries.iter().filter(|q| q.category == Category::Inversion).count();
    assert_eq!(e8, 14);
    let mut monolith: Vec<Vec<(String, String, u64, bool)>> = Vec::new();
    for partitions in 1..=3 {
        let sys = match partitions {
            1 => build_full_system(&world, &cfg),
            n => build_sharded_system(&world, &cfg, n),
        };
        assert_eq!(sys.shard_count(), partitions);
        let mut with_tokens = 0;
        for (i, bench) in queries.iter().enumerate() {
            let outcome = sys.query(&bench.text).expect("graded query parses");
            let got = sys.suggest(&outcome);
            let want = reference(&sys, &outcome.query, &outcome);
            assert_eq!(
                keys(&got),
                keys(&want),
                "{partitions} partitions: {}",
                bench.text
            );
            let tokens: Vec<_> = got
                .iter()
                .filter(|s| matches!(s, Suggestion::ReplaceToken { .. }))
                .map(key)
                .collect();
            with_tokens += usize::from(!tokens.is_empty());
            match partitions {
                1 => monolith.push(tokens),
                _ => assert_eq!(tokens, monolith[i], "{partitions} partitions: {}", bench.text),
            }
        }
        assert!(with_tokens >= e8, "{with_tokens} queries got a token suggestion");
    }
}

/// Base facts: `affiliation` pairs and a token 'works for' whose pairs
/// are half of them.
fn base(partitions: usize) -> Trinit {
    let mut b = XkgBuilder::new();
    for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("d", "U3")] {
        b.add_kg_resources(s, "affiliation", o);
    }
    let src = b.intern_source("d0");
    let works = b.dict_mut().token("works for");
    for (s, o) in [("a", "U1"), ("e", "U4")] {
        let (s, o) = (b.dict_mut().resource(s), b.dict_mut().resource(o));
        b.add_extracted(s, works, o, 0.8, src);
    }
    Trinit::from_sharded_parts(ShardedStore::build(b, partitions), RuleSet::new())
}

fn suggestions(sys: &Trinit, text: &str) -> Vec<(String, String, u64, bool)> {
    let outcome = sys.query(text).expect("query parses");
    let got = sys.suggest(&outcome);
    assert_eq!(keys(&got), keys(&reference(sys, &outcome.query, &outcome)), "{text}");
    keys(&got)
}

/// Token triples an ingest adds overlap a KG predicate before any
/// compaction, and a KG predicate an ingest adds overlaps a base token;
/// compaction changes nothing, and the compacted store agrees with the
/// scan.
#[test]
fn ingested_triples_count_before_and_after_compaction() {
    let employed = "a 'employed by' ?y";
    let works = "a 'works for' ?y";
    for partitions in 1..=3 {
        let mut sys = base(partitions);
        assert!(suggestions(&sys, employed).is_empty());
        let before = suggestions(&sys, works);
        let half = 0.5f64.to_bits();
        assert_eq!(
            before,
            vec![("works for".into(), "affiliation".into(), half, false)]
        );
        sys.ingest(|b| {
            let src = b.intern_source("d1");
            let employed = b.dict_mut().token("employed by");
            for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("f", "U5")] {
                let (s, o) = (b.dict_mut().resource(s), b.dict_mut().resource(o));
                b.add_extracted(s, employed, o, 0.7, src);
            }
            // `staffOf` holds the reversed 'works for' pairs.
            for (s, o) in [("U1", "a"), ("U4", "e")] {
                b.add_kg_resources(s, "staffOf", o);
            }
        });
        assert!(sys.has_delta());
        let live = (suggestions(&sys, employed), suggestions(&sys, works));
        let three_quarters = 0.75f64.to_bits();
        assert_eq!(
            live.0,
            vec![("employed by".into(), "affiliation".into(), three_quarters, false)],
            "{partitions} partitions"
        );
        assert_eq!(
            live.1,
            vec![
                ("works for".into(), "staffOf".into(), 1.0f64.to_bits(), true),
                ("works for".into(), "affiliation".into(), half, false),
            ],
            "{partitions} partitions"
        );
        sys.compact();
        assert!(!sys.has_delta());
        let compacted = (suggestions(&sys, employed), suggestions(&sys, works));
        assert_eq!(compacted, live, "{partitions} partitions");
    }
}
