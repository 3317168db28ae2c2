//! The property generators every answer-level test of the workspace
//! draws from — stores, queries and relaxation rules over a small
//! universe of resources — and the check of a relaxation table against
//! full expansion, defined once and included by `#[path]` from the
//! query, shard and core test crates and the root `tests/`.
//!
//! Resource `i` is [`tid`]`(i)`; a store row is `(s, p, o, confidence,
//! support − 1)`. Include it as a `pub mod` at the test crate's root, so
//! the items one crate does not use are not dead code there.

use proptest::prelude::*;

use trinit_query::exec::merge::AltTable;
use trinit_query::{Query, TopkConfig};
use trinit_relax::{
    canonical_key, expand, var_count, ExpandOptions, QPattern, QTerm, Rule, RuleId, RuleProvenance,
    RuleSet, VarId,
};
use trinit_xkg::{
    Provenance, SegmentLayout, SourceId, TermId, TermKind, Triple, XkgBuilder, XkgStore,
};

/// Resource `i`.
pub fn tid(i: u32) -> TermId {
    TermId::new(TermKind::Resource, i)
}

/// One generated triple: subject, predicate and object indices, the
/// extraction confidence, and the support above 1.
pub type Row = (u32, u32, u32, f32, u8);

/// A random store over a small universe: up to `max_triples` triples
/// with random confidences and supports — and, about one time in three,
/// a flat-score hub on top (see [`hub_strategy`]).
pub fn store_strategy(universe: u32, max_triples: usize) -> impl Strategy<Value = Vec<Row>> {
    (
        plain_store_strategy(universe, max_triples),
        hub_strategy(universe),
    )
        .prop_map(|(mut rows, hub)| {
            rows.extend(hub);
            rows
        })
}

/// [`store_strategy`] without the hub.
pub fn plain_store_strategy(universe: u32, max_triples: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (0..universe, 0..universe, 0..universe, 0.05f32..1.0, 0u8..4),
        1..max_triples,
    )
}

/// The predicate a generated hub sits on: the last of the universe, so
/// random patterns and rules reach it too.
pub fn hub_predicate(universe: u32) -> u32 {
    universe - 1
}

/// A flat-score hub predicate: 100–240 equal-weight triples with distinct
/// subjects (outside the universe, so they spread over every shard) whose
/// objects cycle over the first few terms of it — the posting list a rank
/// join has to drain without any score signal. Empty two times in three.
pub fn hub_strategy(universe: u32) -> impl Strategy<Value = Vec<Row>> {
    (0u32..3, 100u32..240, 1u32..universe).prop_map(move |(pick, n, objects)| {
        if pick != 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| (1000 + i, hub_predicate(universe), i % objects, 0.5, 0))
            .collect()
    })
}

/// Adds `rows` to `b`, each as an extraction from source 0.
pub fn add_rows(b: &mut XkgBuilder, rows: &[Row]) {
    for &(s, p, o, conf, support) in rows {
        let mut prov = Provenance::extraction(conf, SourceId(0));
        prov.support = u32::from(support) + 1;
        b.add(Triple::new(tid(s), tid(p), tid(o)), prov);
    }
}

/// A builder holding `rows`.
pub fn builder_from(rows: &[Row]) -> XkgBuilder {
    let mut b = XkgBuilder::new();
    add_rows(&mut b, rows);
    b
}

/// `rows` frozen into one store of `layout`.
pub fn build_store(rows: &[Row], layout: SegmentLayout) -> XkgStore {
    builder_from(rows).build_with(layout)
}

/// Delta rows that are genuinely new facts: re-observations of base
/// triples queue pending provenance absorbs (applied at compaction, by
/// design *not* reflected before it), so weight-equality with an
/// immediate from-scratch rebuild only holds for fresh facts.
pub fn fresh_rows(base: &[Row], delta: &[Row]) -> Vec<Row> {
    let seen: std::collections::HashSet<(u32, u32, u32)> =
        base.iter().map(|r| (r.0, r.1, r.2)).collect();
    delta
        .iter()
        .filter(|r| !seen.contains(&(r.0, r.1, r.2)))
        .copied()
        .collect()
}

/// A query over `patterns` returning `k` answers, its variables named
/// `v0`, `v1`, …
pub fn query_from(patterns: Vec<QPattern>, k: usize) -> Query {
    let n_vars = trinit_relax::var_count(&patterns) as usize;
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

/// One pattern with a constant predicate; subject and object are one of
/// `vars` variables or a term of the universe.
pub fn pattern_strategy(vars: u16, universe: u32) -> impl Strategy<Value = QPattern> {
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
pub fn star_strategy(universe: u32) -> impl Strategy<Value = Vec<QPattern>> {
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
            QPattern::new(
                QTerm::Var(VarId(0)),
                QTerm::Term(tid(hub_predicate(universe))),
                z,
            ),
            QPattern::new(z, QTerm::Term(tid(pa)), object(oa)),
            QPattern::new(z, QTerm::Term(tid(pb)), object(ob)),
        ]
    })
}

/// Multi-pattern queries: `len` random patterns over `vars` variables,
/// or (half the time) a [`star_strategy`] star.
pub fn patterns_strategy(
    vars: u16,
    universe: u32,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<QPattern>> {
    prop_oneof![
        proptest::collection::vec(pattern_strategy(vars, universe), len),
        star_strategy(universe),
    ]
}

/// Up to three rules of any [`rule_of_shape`] over the universe's
/// predicates; they may chain.
pub fn rules_strategy(universe: u32) -> impl Strategy<Value = Vec<Rule>> {
    rules_between(0..universe, 0..universe)
}

/// Rules whose `p2` is never a `p1` (`p1` drawn from `[0,
/// lhs_universe)`, `p2` from `[lhs_universe, universe)`), so no
/// single-pattern rule can chain on another's output: each pattern is
/// relaxed at most once, and a full expansion as deep as the query is
/// long reaches every rewriting per-pattern incremental merging reaches.
pub fn nonchainable_rules_strategy(
    lhs_universe: u32,
    universe: u32,
) -> impl Strategy<Value = Vec<Rule>> {
    rules_between(0..lhs_universe, lhs_universe..universe)
}

fn rules_between(
    lhs: std::ops::Range<u32>,
    rhs: std::ops::Range<u32>,
) -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (lhs, rhs, 0.15f64..1.0, 0u8..6)
            .prop_map(|(p1, p2, w, shape)| rule_of_shape(p1, p2, w, shape)),
        0..4,
    )
}

/// One rule over `?x p1 ?y`. Shapes 0–3 are single-pattern rules: a
/// predicate rewrite (`?x p2 ?y`), an inversion (`?y p2 ?x`), or a
/// rewrite that replaces the object (`?x p2 ?f`) or the subject
/// (`?f p2 ?y`) by a fresh variable — the relaxed form then no longer
/// binds that variable, which is what puts items on a rank-join stream's
/// residual chain. Shapes 4 and 5 are structural: Figure 5's
/// `?x p1 ?f ; ?f p2 ?y`, and `?x p2 ?y` under the data condition
/// `?y p2 p1` — a second LHS template that a query rarely holds, so the
/// rule fires when its ground instance is a fact of the store.
pub fn rule_of_shape(p1: u32, p2: u32, w: f64, shape: u8) -> Rule {
    use trinit_relax::{RVar, TTerm, Template};
    let (x, y, f) = (
        TTerm::Var(RVar(0)),
        TTerm::Var(RVar(1)),
        TTerm::Var(RVar(2)),
    );
    let (c1, c2) = (TTerm::Const(tid(p1)), TTerm::Const(tid(p2)));
    let mut lhs = vec![Template::new(x, c1, y)];
    let rhs = match shape {
        0 => return Rule::predicate_rewrite("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        1 => return Rule::inversion("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        2 => vec![Template::new(x, c2, f)],
        3 => vec![Template::new(f, c2, y)],
        4 => vec![Template::new(x, c1, f), Template::new(f, c2, y)],
        _ => {
            lhs.push(Template::new(y, c2, c1));
            vec![Template::new(x, c2, y)]
        }
    };
    Rule::structural("r", lhs, rhs, w, RuleProvenance::UserDefined)
}

/// A relaxation table entry as full expansion states it: the form's
/// [`canonical_key`] over the pattern's own variables, the weight's bits
/// and the rule chain.
pub type Entry = (Vec<QPattern>, u64, Vec<RuleId>);

/// `pattern`'s relaxation table at `fresh_base`, and full expansion of
/// the pattern alone over the mergeable rules at the table's bounds —
/// the same walk, stepping with the general matcher instead of the
/// compiled rules — each as its [`Entry`]s, sorted.
pub fn table_and_expansion(
    pattern: &QPattern,
    rules: &RuleSet,
    cfg: &TopkConfig,
    fresh_base: u16,
) -> (Vec<Entry>, Vec<Entry>) {
    let query = std::slice::from_ref(pattern);
    let key = |patterns: &[QPattern]| canonical_key(patterns, var_count(query));
    let table = AltTable::build(pattern, rules, cfg, fresh_base, None);
    let mut got: Vec<Entry> = (table.iter())
        .map(|a| (key(std::slice::from_ref(a.pattern)), a.weight.to_bits(), a.trace.collect()))
        .collect();
    let mergeable: Vec<RuleId> = (rules.iter())
        .filter(|(_, r)| r.is_mergeable())
        .map(|(id, _)| id)
        .collect();
    let opts = ExpandOptions {
        max_depth: cfg.chain_depth,
        min_weight: cfg.min_weight,
        max_rewritings: cfg.max_alternatives,
    };
    let mut want: Vec<Entry> = expand(query, rules, &mergeable, &opts, None)
        .into_iter()
        .map(|r| (key(&r.patterns), r.weight.to_bits(), r.trace))
        .collect();
    got.sort();
    want.sort();
    (got, want)
}
