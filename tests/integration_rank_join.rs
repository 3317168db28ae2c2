//! Integration: the three-stream rank join behind a granularity query,
//! end to end through the facade.
//!
//! `?x bornIn <Country>` has no direct match (births are asserted at
//! city granularity); the mined granularity rule rewrites it to
//! `?x bornIn ?z . ?z type city . ?z locatedIn <Country>` — a flat-score
//! `bornIn` list joined, on `?z`, with two short streams. This is the
//! shape that sets the benchmark's heavy tail: sorted access alone drains
//! the whole `bornIn` hub. Once `?z locatedIn <Country>` retires, its
//! cities are the only keys a partner can hit, and the other streams are
//! restricted to them — so tier-1 pins the answers and that the work no
//! longer grows with the hub.

use trinit_core::query::exec::{expand, topk};
use trinit_core::query::{Answer, QueryBuilder, TopkConfig};
use trinit_core::relax::{RuleSet, TTerm};
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::xkg::index::BLOCK;
use trinit_core::xkg::{SegmentLayout, SlotPattern, TermId, XkgBuilder};
use trinit_core::{Completeness, Engine, Trinit, TrinitBuilder};

#[path = "support/reference.rs"]
pub mod reference;

const SEED: u64 = 42;

/// `p` and every predicate the system's single-pattern rules rewrite it
/// to within the top-k chain depth.
fn family(sys: &Trinit, p: TermId) -> Vec<TermId> {
    let mut out = vec![p];
    for _ in 0..sys.topk_config().chain_depth {
        for (_, rule) in sys.rules().iter() {
            if let (Some(lhs), [rhs]) = (rule.lhs_predicate(), rule.rhs.as_slice()) {
                if let TTerm::Const(q) = rhs.p {
                    if out.contains(&lhs) && !out.contains(&q) {
                        out.push(q);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn granularity_query_matches_full_expansion_and_skips_dead_arrivals() {
    for scale in [0.05, 0.2] {
        let world = World::generate(WorldConfig::demo(SEED).scaled(scale));
        let sys =
            TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(SEED))
                .build();
        assert!(
            sys.rules().iter().any(|(_, rule)| rule.rhs.len() == 3),
            "the granularity rule (one pattern → three) must have been mined"
        );
        let store = sys.store();
        let reference = sys.topk_config().reference_expansion();
        let located = family(&sys, store.resource("locatedIn").expect("locatedIn"));
        let born = family(&sys, store.resource("bornIn").expect("bornIn"));
        let hub: usize = born
            .iter()
            .map(|&p| store.count(&SlotPattern::with_p(p)))
            .sum();

        for &country in world.of_type(EntityType::Country) {
            let resource = &world.entity(country).resource;
            let text = format!("?x bornIn {resource} LIMIT 10");
            let query = sys.parse(&text).expect("generated query parses");
            let (want, _) = expand::run(store, &query, sys.rules(), &reference);
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

            // K: the places the country's `locatedIn` stream keeps.
            let c = store.resource(resource).expect("country resource");
            let mut keys: Vec<TermId> = located
                .iter()
                .flat_map(|&p| {
                    let matches = store.lookup(&SlotPattern::with_po(p, c));
                    matches
                        .iter()
                        .map(|&id| store.triple(id).s)
                        .collect::<Vec<_>>()
                })
                .collect();
            keys.sort_unstable();
            keys.dedup();
            let births: usize = keys
                .iter()
                .flat_map(|&z| born.iter().map(move |&p| SlotPattern::with_po(p, z)))
                .map(|shape| store.count(&shape))
                .sum();
            let m = got.metrics;
            assert!(
                m.pulls <= keys.len() + births + 8,
                "{text} at scale {scale}: {} pulls for |K| = {} and {births} births in K \
                 (the bornIn hub holds {hub})",
                m.pulls,
                keys.len()
            );
        }
    }
}

/// The heavy shape with a `type city` run wider than one block: 300
/// cities, 20 of them (`K`) in `C0` and 40 in `C1`, two births in each
/// city. `?z locatedIn C0` heads at 1/20, above the cities' 1/300, so it
/// drains and retires first; `?z type city` must then wait at its exact
/// head — read from the wide-pair directory, not the trivial 1.0 that
/// opened it first and filtered its whole run — and open through one
/// lookup per key of `K`, its normalizer the directory's stored total.
#[test]
fn wide_type_run_opens_through_key_lookups_not_its_whole_run() {
    let mut b = XkgBuilder::new();
    for place in 0..300 {
        let z = format!("place{place}");
        b.add_kg_resources(&z, "type", "city");
        if place < 60 {
            b.add_kg_resources(&z, "locatedIn", if place < 20 { "C0" } else { "C1" });
        }
        for person in 0..2 {
            b.add_kg_resources(&format!("p{place}_{person}"), "bornIn", &z);
        }
    }
    for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
        let store = b.clone().build_with(layout);
        let city = SlotPattern::with_po(
            store.resource("type").expect("type"),
            store.resource("city").expect("city"),
        );
        assert!(store.count(&city) > BLOCK, "the `type city` run must exceed a block");
        let query = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "z")
            .pattern_v_r_r("z", "type", "city")
            .pattern_v_r_r("z", "locatedIn", "C0")
            .limit(100)
            .build();
        let (rules, cfg) = (RuleSet::new(), TopkConfig::default());
        let (got, m) = topk::run(&store, &query, &rules, &cfg);
        let (want, _) = expand::run(&store, &query, &rules, &cfg.reference_expansion());
        assert_eq!(got.len(), 40, "{layout:?}: two births in each of K's 20 cities");
        assert!(same_scores(&got, &want), "{layout:?}");
        let keys = 20;
        assert!(m.probe_lookups >= keys, "{layout:?}: {m:?}");
        // The one serve that would read the whole run is the covering
        // group's filter, counted as an anchored serve.
        assert_eq!(m.anchored_serves, 0, "{layout:?}: `type city` was served whole: {m:?}");
    }
}

fn same_scores(a: &[Answer], b: &[Answer]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x.score - y.score).abs() < 1e-9)
}

/// Full expansion on the system's slice is the reference for its top-k
/// configuration: it expands to `chain_depth + structural_depth`
/// (`TopkConfig::reference_expansion`), not to
/// `ExpandOptions::default()`'s depth 2 — which stops one rule short of
/// the granularity rewriting followed by a two-rule chain, so the two
/// engines used to disagree on granularity queries. The demo corpus
/// mines enough chainable rules for the depths to differ.
#[test]
fn full_expansion_engine_expands_to_the_depth_topk_reaches() {
    let world = World::generate(WorldConfig::demo(SEED).scaled(0.05));
    let sys =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::demo(SEED)).build();
    let reference = sys.topk_config().reference_expansion();
    let mut reproduced = 0;
    for predicate in ["bornIn", "diedIn"] {
        for &country in world.of_type(EntityType::Country) {
            let text = format!("?x {predicate} {} LIMIT 10", world.entity(country).resource);
            let query = sys.parse(&text).expect("generated query parses");
            let (want, _) = expand::run(sys.store(), &query, sys.rules(), &reference);
            let (shallow, _) = expand::run(
                sys.store(),
                &query,
                sys.rules(),
                &trinit_core::relax::ExpandOptions::default(),
            );
            let (full, _) = reference::full(&sys, &query);
            assert!(same_scores(&full, &want), "{text}");
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
