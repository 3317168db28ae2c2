//! Integration: every route into the top-k engine returns the same
//! answers.
//!
//! One fixed-seed demo world, mined once, is served four ways — frozen
//! monolith, monolith + live delta, 2 shards, 2 shards + live delta —
//! each directly and through a [`Session`] (cold and warm cache). All
//! four share one term dictionary and one rule set, so term ids, rule
//! ids and scores are comparable across them. Every route must agree
//! with full expansion on the rebuilt union, and the semi-naive delta
//! question must be sound against the full run on both live-delta
//! routes.

use std::collections::{BTreeMap, BTreeSet};

use trinit_core::query::exec::expand;
use trinit_core::query::Answer;
use trinit_core::relax::{ExpandOptions, RuleSet};
use trinit_core::shard::testkit::assert_answers_score_equivalent;
use trinit_core::shard::ShardedStore;
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::xkg::{Provenance, Triple, TripleId, XkgBuilder, XkgStore};
use trinit_core::{Engine, Session, Trinit, TrinitBuilder};

const SEED: u64 = 42;

/// Every fourth triple of the union arrives as the live delta.
fn in_delta(id: usize) -> bool {
    id % 4 == 3
}

fn fill(b: &mut XkgBuilder, rows: &[(Triple, Provenance)]) {
    for (triple, provenance) in rows {
        b.add(*triple, provenance.clone());
    }
}

/// The four routes over `union`'s content, in the order frozen
/// monolith, monolith + delta, 2 shards, 2 shards + delta — and the
/// pre-ingest state of the live routes, for `answers(base)`.
fn routes(union: &XkgStore, rules: &RuleSet) -> ([Trinit; 4], Trinit) {
    let (mut base, mut delta) = (Vec::new(), Vec::new());
    for id in 0..union.len() {
        let id = TripleId(id as u32);
        let row = (union.triple(id), union.provenance(id).clone());
        if in_delta(id.idx()) {
            &mut delta
        } else {
            &mut base
        }
        .push(row);
    }
    // One dictionary and source table for every build: term ids mean
    // the same thing on every route.
    let builder = |parts: &[&[(Triple, Provenance)]]| {
        let mut b = XkgBuilder::with_context(union.dict().clone(), union.sources());
        for rows in parts {
            fill(&mut b, rows);
        }
        b
    };
    let rules = || {
        rules
            .iter()
            .map(|(_, rule)| rule.clone())
            .collect::<RuleSet>()
    };
    let mut mono_live = Trinit::from_parts(builder(&[&base]).build(), rules());
    let mut sharded_live =
        Trinit::from_sharded_parts(ShardedStore::build(builder(&[&base]), 2), rules());
    for live in [&mut mono_live, &mut sharded_live] {
        assert_eq!(live.ingest(|b| fill(b, &delta)), delta.len());
        assert!(live.has_delta());
    }
    let systems = [
        Trinit::from_parts(builder(&[&base, &delta]).build(), rules()),
        mono_live,
        Trinit::from_sharded_parts(ShardedStore::build(builder(&[&base, &delta]), 2), rules()),
        sharded_live,
    ];
    (
        systems,
        Trinit::from_parts(builder(&[&base]).build(), rules()),
    )
}

fn by_key(answers: &[Answer]) -> BTreeMap<String, f64> {
    answers
        .iter()
        .map(|a| (format!("{:?}", a.key), a.score))
        .collect()
}

#[test]
fn every_route_agrees_with_full_expansion_and_delta_queries_are_sound() {
    let world = World::generate(WorldConfig::demo(SEED).scaled(0.05));
    let mined =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(SEED)).build();
    let union = mined.segmented_store().expect("monolithic build").base();
    let (systems, base_only) = routes(union, mined.rules());
    let topk = mined.topk_config();
    let reference = ExpandOptions {
        max_depth: topk.chain_depth + topk.structural_depth,
        min_weight: topk.min_weight,
        max_rewritings: 4096,
    };

    // (patterns, k) pairs; `LIMIT 1000` holds every answer of the world.
    let mut bodies = vec![
        ("?x type person".to_string(), 7),
        ("?x type city".to_string(), 25),
        ("?x bornIn ?y".to_string(), 12),
        ("?x bornIn ?c . ?c locatedIn ?y".to_string(), 15),
    ];
    for &country in world.of_type(EntityType::Country) {
        let country = &world.entity(country).resource;
        bodies.push((format!("?x bornIn {country}"), 10));
        bodies.push((format!("?x locatedIn {country}"), 10));
    }

    let (mut relaxed, mut introduced_total, mut cache_hits) = (0, 0, [0; 4]);
    for (body, k) in &bodies {
        let text = &format!("{body} LIMIT {k}");
        let unlimited = &format!("{body} LIMIT 1000");
        let query = mined.parse(text).expect("generated query parses");
        let (want, _) = expand::run(union, &query, mined.rules(), &reference);
        relaxed += want.iter().filter(|a| !a.derivation.is_exact()).count();

        for (route, sys) in systems.iter().enumerate() {
            let q = sys.parse(text).expect("one dictionary on every route");
            let direct = sys.run(q.clone(), Engine::IncrementalTopK);
            assert_answers_score_equivalent(&direct.answers, &want);
            let session = Session::new(sys);
            for temperature in ["cold", "warm"] {
                let cached = session.run(q.clone(), Engine::IncrementalTopK);
                assert_eq!(
                    by_key(&cached.answers),
                    by_key(&direct.answers),
                    "route {route}, {temperature} session: {text}"
                );
            }
            cache_hits[route] += session.cache_stats().hits;

            // Semi-naive soundness, on the routes that have a delta.
            let everything = sys.parse(unlimited).expect("parses");
            let introduced = sys.answers_introduced_by(q.clone());
            assert_eq!(
                by_key(&session.answers_introduced_by(q).answers),
                by_key(&introduced.answers),
                "route {route}: {text}"
            );
            if !sys.has_delta() {
                assert!(introduced.answers.is_empty(), "route {route}: {text}");
                continue;
            }
            introduced_total += introduced.answers.len();
            let all = by_key(&sys.run(everything, Engine::IncrementalTopK).answers);
            let before: BTreeSet<String> = {
                let q = base_only.parse(unlimited).expect("parses");
                by_key(&base_only.run(q, Engine::IncrementalTopK).answers)
                    .into_keys()
                    .collect()
            };
            let introduced = by_key(&introduced.answers);
            // (1) introduced(Δ) ⊆ answers(base ∪ Δ). An introduced
            //     answer carries its best derivation *through the
            //     delta*: the full run's score when base alone had no
            //     such answer, at most that otherwise.
            for (key, score) in &introduced {
                let full = all.get(key).unwrap_or_else(|| {
                    panic!("route {route}: {text}: introduced {key} is no answer")
                });
                assert!(*score <= full + 1e-9, "route {route}: {text}: {key}");
                if !before.contains(key) {
                    assert!((full - score).abs() < 1e-9, "route {route}: {text}: {key}");
                }
            }
            // (2) a top-k answer that base alone does not have at all
            //     is an introduced answer.
            for (key, score) in by_key(&direct.answers) {
                if !before.contains(&key) {
                    let got = introduced.get(&key).unwrap_or_else(|| {
                        panic!("route {route}: {text}: new answer {key} not introduced")
                    });
                    assert!((got - score).abs() < 1e-9, "route {route}: {text}: {key}");
                }
            }
        }
    }
    assert!(relaxed > 0, "no query needed a relaxation");
    assert!(cache_hits.iter().all(|&hits| hits > 0), "{cache_hits:?}");
    assert!(
        introduced_total > 0,
        "the delta introduced no answer to any query"
    );
}
