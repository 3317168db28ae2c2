//! Property tests for query processing.
//!
//! The headline property: **incremental top-k returns exactly the answers
//! and scores of exhaustive full-expansion evaluation** on arbitrary
//! stores, queries, and predicate-rewrite rule sets — the invariant that
//! makes the paper's efficiency optimization safe.

use std::rc::Rc;

use proptest::prelude::*;

use trinit_query::exec::join::KeySet;
use trinit_query::exec::merge::{AltTable, IncrementalMerge, RankSource};
use trinit_query::exec::{expand, topk};
use trinit_query::{Answer, AnswerCollector, Bindings, Derivation, ExecMetrics, Query, TopkConfig};
use trinit_relax::{ExpandOptions, QPattern, QTerm, Rule, RuleId, RuleProvenance, RuleSet, VarId};
use trinit_xkg::{
    Provenance, SegmentLayout, SourceId, TermId, TermKind, Triple, XkgBuilder, XkgStore,
};

mod support {
    pub mod restriction;
}
use support::restriction::{assert_restriction_filters, drain, key_values, key_vars};

fn tid(i: u32) -> TermId {
    TermId::new(TermKind::Resource, i)
}

type Row = (u32, u32, u32, f32, u8);

/// A random store over a small universe: up to `max_triples` triples
/// with random confidences and supports — and, about one time in three,
/// a flat-score hub on top (see [`hub_strategy`]).
fn store_strategy(universe: u32, max_triples: usize) -> impl Strategy<Value = Vec<Row>> {
    (
        proptest::collection::vec(
            (0..universe, 0..universe, 0..universe, 0.05f32..1.0, 0u8..4),
            1..max_triples,
        ),
        hub_strategy(universe),
    )
        .prop_map(|(mut rows, hub)| {
            rows.extend(hub);
            rows
        })
}

/// The predicate a generated hub sits on: the last of the universe, so
/// random patterns and rules reach it too.
fn hub_predicate(universe: u32) -> u32 {
    universe - 1
}

/// A flat-score hub predicate: 100–240 equal-weight triples with distinct
/// subjects (outside the universe) whose objects cycle over the first few
/// terms of it — the posting list a rank join has to drain without any
/// score signal. Empty two times in three.
fn hub_strategy(universe: u32) -> impl Strategy<Value = Vec<Row>> {
    (0u32..3, 100u32..240, 1u32..universe).prop_map(move |(pick, n, objects)| {
        if pick != 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| (1000 + i, hub_predicate(universe), i % objects, 0.5, 0))
            .collect()
    })
}

fn build_store(rows: &[Row]) -> XkgStore {
    build_store_with(rows, SegmentLayout::Flat)
}

fn build_store_with(rows: &[Row], layout: SegmentLayout) -> XkgStore {
    let mut b = XkgBuilder::new();
    for &(s, p, o, conf, support) in rows {
        let mut prov = Provenance::extraction(conf, SourceId(0));
        prov.support = u32::from(support) + 1;
        b.add(Triple::new(tid(s), tid(p), tid(o)), prov);
    }
    b.build_with(layout)
}

fn query_from(patterns: Vec<QPattern>, k: usize) -> Query {
    let n_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m as usize + 1);
    Query {
        patterns,
        projection: Vec::new(),
        k,
        var_names: (0..n_vars).map(|i| format!("v{i}")).collect(),
        unknown_terms: Vec::new(),
    }
}

fn qterm(vars: u16, universe: u32) -> impl Strategy<Value = QTerm> {
    prop_oneof![
        (0..vars).prop_map(|v| QTerm::Var(VarId(v))),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
    ]
}

fn pattern_strategy(vars: u16, universe: u32) -> impl Strategy<Value = QPattern> {
    (
        qterm(vars, universe),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
        qterm(vars, universe),
    )
        .prop_map(|(s, p, o)| QPattern::new(s, p, o))
}

/// A granularity-shaped three-pattern star, `?0 hub ?1 . ?1 pa ta .
/// ?1 pb tb`: every pattern shares `?1`, and the legs' objects are terms
/// or (both the same) third variable.
fn star_strategy(universe: u32) -> impl Strategy<Value = Vec<QPattern>> {
    let leg = move || (0..universe, 0..universe + 1);
    (leg(), leg()).prop_map(move |((pa, oa), (pb, ob))| {
        let z = QTerm::Var(VarId(1));
        let object = |o: u32| {
            if o == universe {
                QTerm::Var(VarId(2))
            } else {
                QTerm::Term(tid(o))
            }
        };
        vec![
            QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tid(hub_predicate(universe))), z),
            QPattern::new(z, QTerm::Term(tid(pa)), object(oa)),
            QPattern::new(z, QTerm::Term(tid(pb)), object(ob)),
        ]
    })
}

/// Multi-pattern queries: `len` random patterns over `vars` variables,
/// or (half the time) a [`star_strategy`] star.
fn patterns_strategy(
    vars: u16,
    universe: u32,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<QPattern>> {
    prop_oneof![
        proptest::collection::vec(pattern_strategy(vars, universe), len),
        star_strategy(universe),
    ]
}

fn rules_strategy(universe: u32) -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (0..universe, 0..universe, 0.15f64..1.0, 0u8..4)
            .prop_map(|(p1, p2, w, shape)| rule_of_shape(p1, p2, w, shape)),
        0..4,
    )
}

/// One single-pattern rule `?x p1 ?y → …`: a predicate rewrite
/// (`?x p2 ?y`), an inversion (`?y p2 ?x`), or a rewrite that replaces
/// the object (`?x p2 ?f`) or the subject (`?f p2 ?y`) by a fresh
/// variable — the relaxed form then no longer binds that variable, which
/// is what puts items on a rank-join stream's residual chain.
fn rule_of_shape(p1: u32, p2: u32, w: f64, shape: u8) -> Rule {
    use trinit_relax::{RVar, TTerm, Template};
    let (x, y, f) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
    let relaxed = match shape {
        0 => return Rule::predicate_rewrite("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        1 => return Rule::inversion("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        2 => Template::new(x, TTerm::Const(tid(p2)), f),
        _ => Template::new(f, TTerm::Const(tid(p2)), y),
    };
    Rule::structural(
        "r",
        vec![Template::new(x, TTerm::Const(tid(p1)), y)],
        vec![relaxed],
        w,
        RuleProvenance::UserDefined,
    )
}

/// Rules whose RHS predicates never occur as an LHS predicate (LHS drawn
/// from `[0, lhs_universe)`, RHS from `[lhs_universe, universe)`), so no
/// rule can chain on another's output. Under such sets, full expansion
/// with `max_depth ≥ #patterns` reaches exactly the same rewritings as
/// per-pattern incremental merging with `chain_depth ≥ 1` — which makes
/// multi-pattern topk ≡ expansion a well-defined property.
fn nonchainable_rules_strategy(lhs_universe: u32, universe: u32) -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (0..lhs_universe, lhs_universe..universe, 0.15f64..1.0, 0u8..4)
            .prop_map(|(p1, p2, w, shape)| rule_of_shape(p1, p2, w, shape)),
        0..4,
    )
}

/// Asserts `got` matches `want` up to membership of the trailing
/// tied-score group: scores must agree pairwise everywhere, keys
/// wherever the score is strictly above the boundary score. (When the
/// k-cut lands inside a group of equal-scored answers, both engines keep
/// *some* k members of the group; which ones is tie-break detail.)
fn assert_answers_equivalent(got: &[trinit_query::Answer], want: &[trinit_query::Answer]) {
    assert_eq!(got.len(), want.len(), "answer counts differ");
    let Some(last) = got.last() else { return };
    let boundary = last.score;
    for (a, b) in got.iter().zip(want) {
        assert!(
            (a.score - b.score).abs() < 1e-9,
            "scores differ: {} vs {}",
            a.score,
            b.score
        );
        if (a.score - boundary).abs() > 1e-9 {
            assert_eq!(&a.key, &b.key, "answer order differs above the tie boundary");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Incremental top-k ≡ full expansion on single-pattern queries:
    /// same answer keys, same scores, same order. (For multi-pattern
    /// queries the two engines budget rule applications differently —
    /// per pattern vs per sequence — so exact equality is only defined
    /// for one pattern; the join machinery is covered by
    /// `topk_equals_full_expansion_without_rules` and the unit tests.)
    #[test]
    fn topk_equals_full_expansion(
        rows in store_strategy(5, 40),
        pattern in pattern_strategy(3, 5),
        rules in rules_strategy(5),
    ) {
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let q1 = query_from(vec![pattern], 1000);
        let q2 = query_from(vec![pattern], 1000);
        let (inc, _) = topk::run(
            &store,
            &q1,
            &set,
            &TopkConfig {
                chain_depth: 2,
                structural_depth: 0,
                min_weight: 0.0,
                max_alternatives: 256,
                ..TopkConfig::default()
            },
        );
        let (full, _) = expand::run(
            &store,
            &q2,
            &set,
            &ExpandOptions {
                max_depth: 2,
                min_weight: 0.0,
                max_rewritings: 4096,
            },
        );
        prop_assert_eq!(inc.len(), full.len(), "answer counts differ");
        for (a, b) in inc.iter().zip(&full) {
            prop_assert_eq!(&a.key, &b.key, "answer order differs");
            prop_assert!((a.score - b.score).abs() < 1e-9, "scores differ: {} vs {}", a.score, b.score);
        }
    }

    /// The hash-partitioned rank join ≡ full expansion on multi-pattern
    /// *join* queries with relaxation, for random stores, rule sets, and
    /// k. Rule sets are non-chainable so both engines reach the same
    /// rewriting space (see [`nonchainable_rules_strategy`]); beyond
    /// that, the partitioned combine must produce exactly the answers a
    /// nested-loop evaluation of every rewriting produces.
    #[test]
    fn partitioned_join_equals_full_expansion(
        rows in store_strategy(6, 40),
        patterns in patterns_strategy(3, 6, 1..4),
        rules in nonchainable_rules_strategy(3, 6),
        k in 1usize..12,
    ) {
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let q1 = query_from(patterns.clone(), k);
        let q2 = query_from(patterns, k);
        let (inc, _) = topk::run(
            &store,
            &q1,
            &set,
            &TopkConfig {
                structural_depth: 0,
                min_weight: 0.0,
                ..TopkConfig::default()
            },
        );
        let (full, _) = expand::run(
            &store,
            &q2,
            &set,
            &ExpandOptions {
                max_depth: 4,
                min_weight: 0.0,
                max_rewritings: 4096,
            },
        );
        assert_answers_equivalent(&inc, &full);
    }

    /// A store-level posting cache is invisible in answers: running the
    /// same query repeatedly through one shared cache returns exactly
    /// what the uncached engine returns, every time.
    #[test]
    fn shared_posting_cache_preserves_answers(
        rows in store_strategy(5, 40),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        use trinit_query::SharedPostingCache;
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let (plain, m_plain) = topk::run(&store, &query_from(patterns.clone(), k), &set, &cfg);
        let cache = SharedPostingCache::new(64);
        let cached = |q: &Query| {
            let run = topk::run_governed(&store, q, &set, &cfg, Some(&cache));
            (run.answers, run.metrics)
        };
        let (cold, m_cold) = cached(&query_from(patterns.clone(), k));
        let (warm, m_warm) = cached(&query_from(patterns, k));
        // Pull-count parity: caching changes where lists come from, never
        // how far sorted access walks — and the persistently tracked
        // k-th score must drive the threshold identically on every run.
        prop_assert_eq!(m_plain.pulls, m_cold.pulls, "cold run diverged");
        prop_assert_eq!(m_cold.pulls, m_warm.pulls, "warm run diverged");
        // The precomputed index covers every shape: nothing may sort.
        prop_assert_eq!(m_plain.posting_sorts, 0);
        prop_assert_eq!(plain.len(), cold.len());
        prop_assert_eq!(cold.len(), warm.len());
        for ((a, b), c) in plain.iter().zip(&cold).zip(&warm) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(&b.key, &c.key);
            prop_assert!((a.score - b.score).abs() < 1e-12);
            prop_assert!((b.score - c.score).abs() < 1e-12);
        }
        // Accounting is exact: every hit the cache counted is in one
        // run's metrics (the cold run's are its own repeats of a
        // pattern), and every open the uncached run built is, cached,
        // either built or a hit.
        prop_assert_eq!(
            cache.stats().hits,
            m_cold.shared_cache_hits + m_warm.shared_cache_hits
        );
        for m in [&m_cold, &m_warm] {
            prop_assert_eq!(
                m.posting_lists_built + m.shared_cache_hits,
                m_plain.posting_lists_built
            );
        }
    }

    /// With no rules at all, both engines reduce to exact evaluation and
    /// must agree on arbitrary multi-pattern (join) queries.
    #[test]
    fn topk_equals_full_expansion_without_rules(
        rows in store_strategy(4, 40),
        patterns in patterns_strategy(3, 4, 1..4),
    ) {
        let store = build_store(&rows);
        let set = RuleSet::new();
        let q1 = query_from(patterns.clone(), 1000);
        let q2 = query_from(patterns, 1000);
        let (inc, _) = topk::run(&store, &q1, &set, &TopkConfig::default());
        let (full, _) = expand::run(&store, &q2, &set, &ExpandOptions::default());
        prop_assert_eq!(inc.len(), full.len(), "answer counts differ");
        for (a, b) in inc.iter().zip(&full) {
            prop_assert_eq!(&a.key, &b.key, "answer order differs");
            prop_assert!((a.score - b.score).abs() < 1e-9, "scores differ");
        }
    }

    /// Returned rankings are sorted, bounded by k, and deduplicated on
    /// the projected key.
    #[test]
    fn topk_output_contract(
        rows in store_strategy(5, 40),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let q = query_from(patterns, k);
        let (answers, _) = topk::run(&store, &q, &set, &TopkConfig::default());
        prop_assert!(answers.len() <= k);
        prop_assert!(answers.windows(2).all(|w| w[0].score >= w[1].score));
        let mut keys: Vec<_> = answers.iter().map(|a| a.key.clone()).collect();
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), answers.len(), "duplicate projected keys");
        for a in &answers {
            prop_assert!(a.score.is_finite());
            prop_assert!(a.score <= 1e-9, "log-prob must be non-positive");
        }
    }

    /// The threshold never cuts a true top-k answer: running with k and
    /// with k'=k+5 agrees on the first k answers.
    #[test]
    fn topk_prefix_stability(
        rows in store_strategy(4, 30),
        patterns in patterns_strategy(2, 4, 1..3),
        rules in rules_strategy(4),
        k in 1usize..5,
    ) {
        let store = build_store(&rows);
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
        use trinit_query::ExecMetrics;
        let store = build_store(&rows);
        let q1 = query_from(patterns.clone(), 1000);
        patterns.reverse();
        let q2 = query_from(patterns, 1000);
        let mut m = ExecMetrics::default();
        let a1 = exact::evaluate(&store, &q1, &q1.patterns, &[], 1.0, &mut m);
        let a2 = exact::evaluate(&store, &q2, &q2.patterns, &[], 1.0, &mut m);
        // The projection order differs between the two queries (variables
        // are numbered by first occurrence), so normalize keys by VarId.
        let normalize = |answers: &[trinit_query::Answer]| {
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
    let store = build_store(&rows);
    let rules: RuleSet = [rule_of_shape(1, 2, 0.6, 3)].into_iter().collect();
    let (x, y) = (VarId(0), VarId(1));
    let pattern = QPattern::new(QTerm::Var(x), QTerm::Term(tid(1)), QTerm::Var(y));
    let cfg = TopkConfig {
        min_weight: 0.0,
        ..TopkConfig::default()
    };
    let merge = || {
        let table = Rc::new(AltTable::build(&pattern, &rules, &cfg, 8, None));
        IncrementalMerge::new(&store, table, None, None)
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ε-approximate mode's guarantee, on arbitrary stores, join
    /// queries, and rule sets: every returned answer carries its exact
    /// score, pulls never exceed the exact engine's, and rank-wise the
    /// approximate ranking is within ε of the exact one in probability
    /// space — `prob(approx[r]) ≥ prob(exact[r]) − ε` for every rank r.
    #[test]
    fn epsilon_approximate_is_within_eps_of_exact(
        rows in store_strategy(5, 40),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
        eps_pick in 0usize..3,
    ) {
        // The last one is small enough to bite on a flat-score hub.
        let eps = [0.05, 0.01, 1e-4][eps_pick];
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let (exact, m_exact) = topk::run(&store, &query_from(patterns.clone(), k), &set, &cfg);
        let (approx, m_approx) = topk::run(
            &store,
            &query_from(patterns, k),
            &set,
            &TopkConfig { epsilon: eps, ..cfg },
        );
        prop_assert!(
            m_approx.pulls <= m_exact.pulls,
            "ε mode must never pull more: {} > {}",
            m_approx.pulls,
            m_exact.pulls
        );
        for (r, e) in exact.iter().enumerate() {
            let pe = e.score.exp();
            let pa = approx.get(r).map_or(0.0, |a| a.score.exp());
            prop_assert!(
                pa >= pe - eps - 1e-9,
                "rank {}: approximate {} not within ε={} of exact {}",
                r, pa, eps, pe
            );
        }
    }

    /// ε = 0 *is* the exact engine: identical answers and identical
    /// pull counts (the approximate criterion compares against ln 0 =
    /// −∞ and can never fire), with zero approx cutoffs.
    #[test]
    fn epsilon_zero_is_pull_count_identical_to_exact(
        rows in store_strategy(5, 40),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let (exact, m_exact) = topk::run(&store, &query_from(patterns.clone(), k), &set, &cfg);
        let (eps0, m_eps0) = topk::run(
            &store,
            &query_from(patterns, k),
            &set,
            &TopkConfig { epsilon: 0.0, ..cfg },
        );
        prop_assert_eq!(exact.len(), eps0.len());
        for (a, b) in exact.iter().zip(&eps0) {
            prop_assert_eq!(&a.key, &b.key, "ε=0 changed an answer key");
            prop_assert_eq!(a.score, b.score, "ε=0 changed a score bit pattern");
        }
        prop_assert_eq!(m_exact.pulls, m_eps0.pulls, "ε=0 changed the pull count");
        prop_assert_eq!(m_eps0.approx_cutoffs, 0);
        prop_assert_eq!(m_exact.approx_cutoffs, 0);
    }

    /// The relative-θ mode's guarantee, on arbitrary stores (flat-score
    /// hubs included), join queries, and rule sets: pulls never exceed
    /// the exact engine's, every returned answer carries a score the
    /// exact engine could have produced, and rank-wise
    /// `prob(approx[r]) ≥ (1 − θ) · prob(exact[r])`.
    #[test]
    fn theta_approximate_keeps_rankwise_ratio(
        rows in store_strategy(5, 40),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
        theta_pick in proptest::bool::ANY,
    ) {
        let theta = if theta_pick { 0.3 } else { 0.7 };
        let store = build_store(&rows);
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let (exact, m_exact) = topk::run(&store, &query_from(patterns.clone(), k), &set, &cfg);
        let (approx, m_approx) = topk::run(
            &store,
            &query_from(patterns, k),
            &set,
            &TopkConfig { theta, ..cfg },
        );
        prop_assert!(
            m_approx.pulls <= m_exact.pulls,
            "θ mode must never pull more: {} > {}",
            m_approx.pulls,
            m_exact.pulls
        );
        for (r, e) in exact.iter().enumerate() {
            let pe = e.score.exp();
            let pa = approx.get(r).map_or(0.0, |a| a.score.exp());
            prop_assert!(
                pa >= (1.0 - theta) * pe - 1e-12,
                "rank {}: approximate {} below (1−θ)·{} at θ={}",
                r, pa, pe, theta
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A restricted merge emits exactly the filtered sorted stream: a
    /// merge restricted to a key set at any point of its drain continues
    /// with precisely the emissions its unrestricted twin makes from that
    /// point on, minus those of an alternative binding the key variables
    /// whose values form no key — same triples, probability bits and
    /// alternatives, in the same order — whether an alternative was
    /// opened before the restriction or opens through bound lookups
    /// after it, on Flat and Packed segments, with rules that drop a
    /// variable in play.
    #[test]
    fn restricted_merge_emits_the_filtered_sorted_stream(
        rows in store_strategy(6, 40),
        patterns in patterns_strategy(3, 6, 1..2),
        rules in rules_strategy(6),
        own_rule in (0u32..6, 0.15f64..1.0, 0u8..4),
        raw_keys in proptest::collection::vec((0u32..6, 0u32..6, 0u32..6), 0..5),
        pick in 0usize..4,
        at in prop_oneof![0usize..2, 0usize..48],
    ) {
        let vars = key_vars(&patterns[0], pick);
        if vars.is_empty() {
            continue;
        }
        let keys = key_values(&raw_keys, vars.len());
        // One rule always fires on the pattern itself, half the time
        // dropping one of its variables.
        let (p2, w, shape) = own_rule;
        let own = patterns[0].p.term().map(|p1| rule_of_shape(p1.index(), p2, w, shape));
        let set: RuleSet = rules.into_iter().chain(own).collect();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let store = build_store_with(&rows, layout);
            let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
            let merge = || {
                let table = Rc::new(AltTable::build(&patterns[0], &set, &cfg, 8, None));
                IncrementalMerge::new(&store, table, None, None)
            };
            assert_restriction_filters(merge(), merge(), |id| store.triple(id), &vars, &keys, at);
        }
    }
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
