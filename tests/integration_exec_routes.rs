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
//! routes. A second case feeds the live routes their delta as 25
//! successive ingests that also re-observe base and earlier delta
//! triples, and then compacts, with a system-level posting cache that
//! outlives every ingest; the compacted base must then serve exactly
//! what a from-scratch build serves.

use std::collections::{BTreeMap, BTreeSet};

use trinit_core::query::exec::expand;
use trinit_core::query::Answer;
use trinit_core::relax::{QTerm, RuleSet};
use trinit_core::shard::testkit::assert_answers_score_equivalent;
use trinit_core::shard::ShardedStore;
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::xkg::{
    Posting, Provenance, StorageBytes, TermId, Triple, TripleId, XkgBuilder, XkgStore,
};
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

type Rows = Vec<(Triple, Provenance)>;

/// `union`'s content as (frozen base, live delta) rows.
fn split(union: &XkgStore) -> (Rows, Rows) {
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
    (base, delta)
}

/// A builder holding `parts` under `union`'s dictionary and source
/// table: term ids mean the same thing in every store built this way.
fn builder_over(union: &XkgStore, parts: &[&[(Triple, Provenance)]]) -> XkgBuilder {
    let mut b = XkgBuilder::with_context(union.dict().clone(), union.sources());
    for rows in parts {
        fill(&mut b, rows);
    }
    b
}

fn clone_rules(rules: &RuleSet) -> RuleSet {
    rules.iter().map(|(_, rule)| rule.clone()).collect()
}

/// The four routes over `union`'s content, in the order frozen
/// monolith, monolith + delta, 2 shards, 2 shards + delta — and the
/// pre-ingest state of the live routes, for `answers(base)`.
fn routes(union: &XkgStore, rules: &RuleSet) -> ([Trinit; 4], Trinit) {
    let (base, delta) = split(union);
    let builder = |parts: &[&[(Triple, Provenance)]]| builder_over(union, parts);
    let rules = || clone_rules(rules);
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
    let reference = mined.topk_config().reference_expansion();

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

/// A group's entries and prefix sums, bit for bit.
fn group_bits(entries: &[Posting], prefix: &[f64]) -> (Vec<(TripleId, u64, u64)>, Vec<u64>) {
    (
        entries
            .iter()
            .map(|e| (e.triple, e.weight.to_bits(), e.prob.to_bits()))
            .collect(),
        prefix.iter().map(|v| v.to_bits()).collect(),
    )
}

/// `got` serves every predicate group, the subject and object groups of
/// every term in `anchors`, and the unbound stratum exactly as `want`
/// does, and holds the same index bytes (the payload's byte counts
/// follow each vector's growth history, so they are left out).
fn assert_serves_like(got: &XkgStore, want: &XkgStore, anchors: &[TermId]) {
    assert_eq!(got.predicates(), want.predicates());
    for &p in want.predicates() {
        let (g, w) = (got.predicate_group(p), want.predicate_group(p));
        assert_eq!(
            group_bits(g.entries(), g.prefix()),
            group_bits(w.entries(), w.prefix())
        );
    }
    for &t in anchors {
        for (g, w) in [
            (got.subject_group(t), want.subject_group(t)),
            (got.object_group(t), want.object_group(t)),
        ] {
            assert_eq!(
                group_bits(g.entries(), g.prefix()),
                group_bits(w.entries(), w.prefix())
            );
        }
    }
    let (g, w) = (got.unbound_group(), want.unbound_group());
    assert_eq!(
        group_bits(g.entries(), g.prefix()),
        group_bits(w.entries(), w.prefix())
    );
    let index_share = |b: StorageBytes| StorageBytes {
        dict: 0,
        triples: 0,
        provenance: 0,
        ..b
    };
    assert_eq!(
        index_share(got.storage_bytes()),
        index_share(want.storage_bytes())
    );
}

/// The write path at length: the live routes take their delta as 25
/// successive ingests and then compact. Every batch also re-observes a
/// base triple (a pending absorb until compaction) and, from the second
/// on, a triple the batch before it brought (merged into the live delta
/// in place). A system-level posting cache stays enabled throughout —
/// it holds base-slice lists, which no ingest changes, but every ingest
/// moves the totals they were normalized by — and each checkpoint is
/// compared against full expansion over a from-scratch build of what
/// the store holds so far, directly and through a [`Session`]. After
/// compaction the monolith's base must serve exactly what the
/// from-scratch build of everything that arrived serves.
#[test]
fn many_ingests_then_compaction_agree_with_the_rebuild_on_every_route() {
    const INGESTS: usize = 25;
    let world = World::generate(WorldConfig::demo(SEED).scaled(0.05));
    let mined =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(SEED)).build();
    let union = mined.segmented_store().expect("monolithic build").base();
    let (base, delta) = split(union);
    let cut = |i: usize| i * delta.len() / INGESTS;
    let batches: Vec<Rows> = (0..INGESTS)
        .map(|i| {
            let mut batch = delta[cut(i)..cut(i + 1)].to_vec();
            if i > 0 {
                batch.push(delta[cut(i - 1)].clone());
            }
            batch.push(base[i * 37 % base.len()].clone());
            batch
        })
        .collect();
    assert!(batches.iter().all(|batch| batch.len() > 2));
    let reference = mined.topk_config().reference_expansion();
    let mut texts = vec![
        "?x type city LIMIT 25".to_string(),
        "?x bornIn ?y LIMIT 12".to_string(),
        "?x bornIn ?c . ?c locatedIn ?y LIMIT 15".to_string(),
    ];
    for &country in world.of_type(EntityType::Country).iter().take(3) {
        let country = &world.entity(country).resource;
        texts.push(format!("?x bornIn {country} LIMIT 10"));
    }

    let mut live = [
        Trinit::from_parts(
            builder_over(union, &[&base]).build(),
            clone_rules(mined.rules()),
        ),
        Trinit::from_sharded_parts(
            ShardedStore::build(builder_over(union, &[&base]), 2),
            clone_rules(mined.rules()),
        ),
    ];
    for sys in &mut live {
        sys.enable_posting_cache(64);
    }
    // Every route, with and without a session cache, against full
    // expansion over `rebuilt`.
    let check = |live: &[Trinit; 2], rebuilt: &XkgStore, stage: &str| {
        for text in &texts {
            let query = mined.parse(text).expect("generated query parses");
            let (want, _) = expand::run(rebuilt, &query, mined.rules(), &reference);
            for (route, sys) in live.iter().enumerate() {
                let q = sys.parse(text).expect("one dictionary on every route");
                let direct = sys.run(q.clone(), Engine::IncrementalTopK);
                assert_answers_score_equivalent(&direct.answers, &want);
                let session = Session::new(sys);
                for temperature in ["cold", "warm"] {
                    assert_eq!(
                        by_key(&session.run(q.clone(), Engine::IncrementalTopK).answers),
                        by_key(&direct.answers),
                        "{stage}, route {route}, {temperature} session: {text}"
                    );
                }
            }
        }
    };
    // What the live store holds (the base re-observations wait for
    // compaction) and everything that arrived.
    let mut held: Vec<&[(Triple, Provenance)]> = vec![&base];
    let mut arrived = held.clone();
    for (i, batch) in batches.iter().enumerate() {
        for sys in &mut live {
            assert_eq!(sys.ingest(|b| fill(b, batch)), cut(i + 1) - cut(i));
            assert_eq!(sys.generation(), i as u64 + 1);
        }
        held.push(&batch[..batch.len() - 1]);
        arrived.push(batch);
        if i % 6 == 0 || i + 1 == INGESTS {
            let rebuilt = builder_over(union, &held).build();
            check(&live, &rebuilt, &format!("after ingest {i}"));
        }
    }
    let hits =
        |sys: &Trinit| -> usize { sys.posting_caches().iter().map(|c| c.stats().hits).sum() };
    assert!(
        live.iter().all(|sys| hits(sys) > 0),
        "the cache never outlived an ingest"
    );
    for sys in &mut live {
        assert_eq!(sys.stats().total_triples(), union.len());
        sys.compact();
        assert!(!sys.has_delta());
        assert_eq!(sys.generation(), INGESTS as u64 + 1);
        assert_eq!(sys.stats().total_triples(), union.len());
    }
    let rebuilt = builder_over(union, &arrived).build();
    check(&live, &rebuilt, "after compaction");
    let anchors: Vec<TermId> = texts
        .iter()
        .flat_map(|text| mined.parse(text).expect("generated query parses").patterns)
        .flat_map(|pattern| [pattern.s, pattern.p, pattern.o])
        .filter_map(|term| match term {
            QTerm::Term(t) => Some(t),
            QTerm::Var(_) => None,
        })
        .collect();
    let compacted = live[0].segmented_store().expect("monolithic build").base();
    assert_serves_like(compacted, &rebuilt, &anchors);
}
