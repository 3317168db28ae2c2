//! Integration: the three-stream rank join behind a granularity query,
//! end to end through the facade.
//!
//! `?x bornIn <Country>` has no direct match (births are asserted at
//! city granularity); the mined granularity rule rewrites it to
//! `?x bornIn ?z . ?z type city . ?z locatedIn <Country>` — a flat-score
//! `bornIn` list joined, on `?z`, with two short streams. This is the
//! shape that sets the benchmark's heavy tail, and the one the
//! retired-stream semijoin filter exists for, so tier-1 pins both the
//! answers and the filter's effect here.

use trinit_core::query::exec::expand;
use trinit_core::relax::ExpandOptions;
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::query::Answer;
use trinit_core::{Completeness, Engine, TrinitBuilder};

const SEED: u64 = 42;

#[test]
fn granularity_query_matches_full_expansion_and_skips_dead_arrivals() {
    let world = World::generate(WorldConfig::demo(SEED).scaled(0.05));
    let sys =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(SEED)).build();
    assert!(
        sys.rules().iter().any(|(_, rule)| rule.rhs.len() == 3),
        "the granularity rule (one pattern → three) must have been mined"
    );
    let topk = sys.topk_config();
    let options = ExpandOptions {
        // Top-k chains single-pattern rules and then applies structural
        // ones; full expansion needs the sum to reach the same rewritings.
        max_depth: topk.chain_depth + topk.structural_depth,
        min_weight: topk.min_weight,
        max_rewritings: 4096,
    };

    let mut heavy = 0;
    for &country in world.of_type(EntityType::Country) {
        let text = format!("?x bornIn {} LIMIT 10", world.entity(country).resource);
        let query = sys.parse(&text).expect("generated query parses");
        let (want, _) = expand::run(sys.store(), &query, sys.rules(), &options);
        let got = sys.run(query, Engine::IncrementalTopK);
        assert_eq!(got.completeness, Completeness::Exact, "{text}");
        assert_eq!(got.answers.len(), want.len(), "{text}");
        for (a, b) in got.answers.iter().zip(&want) {
            assert!(
                (a.score - b.score).abs() < 1e-9,
                "{text}: {} vs {}",
                a.score,
                b.score
            );
        }
        let m = got.metrics;
        if m.pulls < 50 {
            continue; // k answers turned up before the flat list was drained
        }
        heavy += 1;
        // Calibrated on `?x bornIn Stodresia`, which has fewer than k
        // answers and so drains all 109 postings: without the filter
        // every `bornIn` posting is joined (103 candidates), with it only
        // births in the country's own cities are (14).
        assert!(
            m.join_candidates <= m.pulls / 2,
            "{text}: the semijoin filter stopped firing ({} candidates for {} pulls)",
            m.join_candidates,
            m.pulls
        );
    }
    assert!(heavy > 0, "no query drained the flat bornIn list");
}

fn same_scores(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x.score - y.score).abs() < 1e-9)
}

/// `Engine::FullExpansion` is the reference for the system's top-k
/// configuration: it expands to `chain_depth + structural_depth`, not to
/// `ExpandOptions::default()`'s depth 2 — which stops one rule short of
/// the granularity rewriting followed by a two-rule chain, so the two
/// engines used to disagree on granularity queries. The demo corpus
/// mines enough chainable rules for the depths to differ.
#[test]
fn full_expansion_engine_expands_to_the_depth_topk_reaches() {
    let world = World::generate(WorldConfig::demo(SEED).scaled(0.05));
    let sys =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::demo(SEED)).build();
    let topk = sys.topk_config();
    let reference = ExpandOptions {
        max_depth: topk.chain_depth + topk.structural_depth,
        min_weight: topk.min_weight,
        max_rewritings: 4096,
    };
    let mut reproduced = 0;
    for predicate in ["bornIn", "diedIn"] {
        for &country in world.of_type(EntityType::Country) {
            let text = format!("?x {predicate} {} LIMIT 10", world.entity(country).resource);
            let query = sys.parse(&text).expect("generated query parses");
            let (want, _) = expand::run(sys.store(), &query, sys.rules(), &reference);
            let (shallow, _) =
                expand::run(sys.store(), &query, sys.rules(), &ExpandOptions::default());
            let full = sys.run(query.clone(), Engine::FullExpansion);
            assert!(same_scores(&full.answers, &want), "{text}");
            let got = sys.run(query, Engine::IncrementalTopK);
            if !same_scores(&shallow, &want) && same_scores(&got.answers, &want) {
                reproduced += 1;
            }
        }
    }
    assert!(
        reproduced > 0,
        "no query on which depth 2 falls short of what top-k and the reference find"
    );
}
