//! Property tests for query processing: the mechanisms under the
//! answers. That every store configuration answers as the canonical
//! one — and the canonical one as full expansion — is the configuration
//! lattice's property (`crates/core/tests/lattice.rs`); these pin what
//! it cannot see: prefix stability across k, pattern-order invariance
//! of exact evaluation, the restriction of an alternative that dropped
//! the key variable, the admission gate, and relaxation tables against
//! full expansion.

use std::rc::Rc;

use proptest::prelude::*;

use trinit_query::exec::join::KeySet;
use trinit_query::exec::merge::{AltTable, IncrementalMerge};
use trinit_query::exec::topk::{self, StoreView};
use trinit_query::{Answer, AnswerCollector, Bindings, Derivation, ExecMetrics, TopkConfig};
use trinit_relax::{QPattern, QTerm, RuleId, RuleSet, VarId};
use trinit_xkg::{SegmentLayout, TermId};

#[path = "support/gen.rs"]
pub mod gen;
#[path = "support/restriction.rs"]
pub mod restriction;
use gen::{
    build_store, pattern_strategy, patterns_strategy, query_from, rule_of_shape, rules_strategy,
    store_strategy, tid, Row,
};
use restriction::{assert_restriction_filters, drain};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The threshold never cuts a true top-k answer: running with k and
    /// with k'=k+5 agrees on the first k answers.
    #[test]
    fn topk_prefix_stability(
        rows in store_strategy(4, 30),
        patterns in patterns_strategy(2, 4, 1..3),
        rules in rules_strategy(4),
        k in 1usize..5,
    ) {
        let store = build_store(&rows, SegmentLayout::Flat);
        let set: RuleSet = rules.into_iter().collect();
        let qa = query_from(patterns.clone(), k);
        let qb = query_from(patterns, k + 5);
        let (small, _) = topk::run(&store, &qa, &set, &TopkConfig::default());
        let (large, _) = topk::run(&store, &qb, &set, &TopkConfig::default());
        for (a, b) in small.iter().zip(large.iter()) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    /// Exact evaluation is invariant under pattern order (score and
    /// answer-set equality).
    #[test]
    fn exact_is_pattern_order_invariant(
        rows in store_strategy(4, 30),
        mut patterns in patterns_strategy(3, 4, 2..4),
    ) {
        use trinit_query::exec::exact;
        let store = build_store(&rows, SegmentLayout::Flat);
        let q1 = query_from(patterns.clone(), 1000);
        patterns.reverse();
        let q2 = query_from(patterns, 1000);
        let mut m = ExecMetrics::default();
        let a1 = exact::evaluate(&store, &q1, &q1.patterns, &[], 1.0, &mut m);
        let a2 = exact::evaluate(&store, &q2, &q2.patterns, &[], 1.0, &mut m);
        // The projection order differs between the two queries (variables
        // are numbered by first occurrence), so normalize keys by VarId.
        let normalize = |answers: &[Answer]| {
            let mut keys: Vec<Vec<(VarId, Option<TermId>)>> = answers
                .iter()
                .map(|a| {
                    let mut k = a.key.clone();
                    k.sort_by_key(|(v, _)| *v);
                    k
                })
                .collect();
            keys.sort();
            keys.dedup();
            keys
        };
        prop_assert_eq!(normalize(&a1), normalize(&a2));
    }
}

/// An alternative that dropped the key variable is never restricted:
/// `?x hub ?y` relaxes to `?f hub2 ?y`, which no longer binds `?x`, so a
/// retired partner's keys on `?x` can say nothing about its emissions —
/// every one of them must survive, while the original alternative's are
/// cut to the keyed subjects.
#[test]
fn restriction_leaves_an_alternative_that_dropped_the_key_variable_alone() {
    let mut rows: Vec<Row> = (0..40).map(|i| (100 + i, 1, i % 4, 0.5, 0)).collect();
    rows.extend((0..40).map(|i| (200 + i, 2, i % 4, 0.5, 0)));
    let store = build_store(&rows, SegmentLayout::Flat);
    let rules: RuleSet = [rule_of_shape(1, 2, 0.6, 3)].into_iter().collect();
    let (x, y) = (VarId(0), VarId(1));
    let pattern = QPattern::new(QTerm::Var(x), QTerm::Term(tid(1)), QTerm::Var(y));
    let cfg = TopkConfig {
        min_weight: 0.0,
        ..TopkConfig::default()
    };
    let merge = || {
        let table = Rc::new(AltTable::build(&pattern, &rules, &cfg, 8, None));
        IncrementalMerge::new(&StoreView::single(&store), 0..1, table, &[], None)
    };
    let keys = vec![vec![tid(103)], vec![tid(117)]];
    for at in [0, 3] {
        assert_restriction_filters(merge(), merge(), |id| store.triple(id), &[x], &keys, at);
    }
    let mut restricted = merge();
    let keys = Rc::new(KeySet::new(&[x], &keys));
    restricted.restrict(&keys, &mut ExecMetrics::default());
    let emitted = drain(&mut restricted, usize::MAX);
    let relaxed = emitted.iter().filter(|m| m.alt != 0).count();
    assert_eq!(emitted.len() - relaxed, 2, "the keyed subjects");
    assert_eq!(relaxed, 40, "every match of the relaxation that dropped ?x");
}

proptest! {
    /// Admission before materialization, and materialization deferred
    /// to settle points, are invisible in the top-k: a tracking collector
    /// that skips every offer it does not admit
    /// (`AnswerCollector::admits`) finalizes to the same keys, score bits
    /// and derivations as an untracked collector offered everything — and
    /// so does one offered the admitted answers deferred
    /// (`offer_deferred`), settled every `settle_every` offers as the rank
    /// join settles at each variant's end. Scores come from six levels, so
    /// duplicate keys and exact ties at the k-th score are common; each
    /// offer's derivation names the offer, so keeping a different one of
    /// a key's equal-scoring offers, or skipping a tie at settle, fails.
    #[test]
    fn admission_gate_keeps_the_top_k_bit_identical(
        offers in proptest::collection::vec((0u32..12, 0u32..6), 1..120),
        settle_every in 1usize..40,
    ) {
        for k in [1usize, 3, 10] {
            let derivation = |i: usize| Derivation {
                triples: Vec::new(),
                rules: vec![RuleId(i as u32)],
                rule_weight: 1.0,
            };
            let answer = |i: usize, key: u32, level: u32| Answer {
                key: vec![(VarId(0), Some(tid(key)))],
                bindings: Bindings::new(1),
                score: -f64::from(level) / 4.0,
                derivation: derivation(i),
            };
            let build = |parts: &[(u32, u32)]| (Bindings::new(1), derivation(parts[0].0 as usize));
            let (mut gated, mut plain) = (AnswerCollector::tracking(k), AnswerCollector::new());
            let mut deferred = AnswerCollector::tracking(k);
            for (i, &(key, level)) in offers.iter().enumerate() {
                let offer = answer(i, key, level);
                if gated.admits(offer.score) {
                    gated.offer(offer.clone());
                }
                if deferred.admits(offer.score) {
                    deferred.offer_deferred(offer.key.clone(), offer.score, [(i as u32, 0)]);
                }
                if (i + 1) % settle_every == 0 {
                    deferred.settle(build);
                }
                plain.offer(offer);
            }
            deferred.settle(build);
            let plain = plain.into_top_k(k);
            for (run, name) in [(gated.into_top_k(k), "gated"), (deferred.into_top_k(k), "deferred")] {
                prop_assert_eq!(run.len(), plain.len(), "{} k = {}", name, k);
                for (g, p) in run.iter().zip(&plain) {
                    prop_assert_eq!(&g.key, &p.key, "{} k = {}", name, k);
                    prop_assert_eq!(g.score.to_bits(), p.score.to_bits(), "{} k = {}", name, k);
                    prop_assert_eq!(&g.bindings, &p.bindings, "{} k = {}", name, k);
                    prop_assert_eq!(&g.derivation, &p.derivation, "{} k = {}", name, k);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A stream's relaxation table is full expansion of its pattern over
    /// the mergeable rules: the same walk, stepping with the compiled
    /// rules where expansion runs the general matcher. The same entries
    /// up to the naming of fresh variables, weights to the bit and the
    /// same rule chains — under rules that chain (0–6 of shapes 0–3 over
    /// four predicates), depths up to 3 and caps down to one entry. Of
    /// the 4,096 cases a heavier chain supersedes a lighter one in about
    /// 50 and the cap drops entries in about 400 (under 1 s in debug).
    #[test]
    fn relaxation_tables_equal_expansion_over_the_mergeable_rules(
        pattern in pattern_strategy(2, 4),
        rules in proptest::collection::vec(
            (0u32..4, 0u32..4, 0.15f64..1.0, 0u8..4)
                .prop_map(|(p1, p2, w, shape)| rule_of_shape(p1, p2, w, shape)),
            0..7,
        ),
        chain_depth in 0usize..4,
        max_alternatives in 1usize..9,
    ) {
        let rules: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig { chain_depth, max_alternatives, ..TopkConfig::default() };
        let (got, want) = gen::table_and_expansion(&pattern, &rules, &cfg, 2);
        prop_assert_eq!(got, want);
    }
}

/// Byte-level fuzz of [`trinit_query::parse`]: seeded random byte
/// strings — query syntax, vocabulary, multibyte and control characters
/// and raw bytes, decoded lossily — each parse to a query or a typed
/// error, never a panic. A parsed query also runs.
#[test]
fn parse_of_random_bytes_returns_a_query_or_a_typed_error() {
    const CASES: usize = 4000;
    const PIECES: [&[u8]; 28] = [
        b"?x", b"?y", b"? ", b"?", b".", b";", b" ", b"\t", b"\n", b"'", b"\"", b"'housed in'",
        b"SELECT", b"WHERE", b"LIMIT", b"LIMIT 3", b"-", b"0", b"99999999999999999999", b"1.5",
        b"a", b"p", b"b", "É".as_bytes(), "İstanbul".as_bytes(), "\u{212A}".as_bytes(), b"\0",
        b"\x7f",
    ];
    let mut b = trinit_xkg::XkgBuilder::new();
    b.add_kg_resources("a", "p", "b");
    let src = b.intern_source("doc");
    let (s, o) = (b.dict_mut().resource("a"), b.dict_mut().resource("b"));
    let housed = b.dict_mut().token("housed in");
    b.add_extracted(s, housed, o, 0.5, src);
    let store = b.build();
    let mut rng = proptest::test_runner::TestRng::for_test("parse_fuzz");
    let (mut parsed, mut refused) = (0, 0);
    for _ in 0..CASES {
        let mut bytes = Vec::new();
        for _ in 0..rng.below(24) {
            if rng.below(4) == 0 {
                bytes.push(rng.below(256) as u8);
            } else {
                bytes.extend_from_slice(PIECES[rng.below(PIECES.len() as u64) as usize]);
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        match trinit_query::parse(&store, &text) {
            Ok(mut query) => {
                parsed += 1;
                query.k = query.k.min(8);
                topk::run(&store, &query, &RuleSet::new(), &TopkConfig::default());
            }
            Err(e) => {
                refused += 1;
                assert!(!e.to_string().is_empty());
            }
        }
    }
    assert!(parsed > 0 && refused > 0, "{parsed} parsed, {refused} refused");
}
