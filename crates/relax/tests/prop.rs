//! Property tests for the relaxation framework.

use proptest::prelude::*;

use trinit_relax::{
    apply_rule, canonical_key, expand, ExpandOptions, QPattern, QTerm, RVar, Rule, RuleId,
    RuleProvenance, RuleSet, TTerm, Template, VarId,
};
use trinit_xkg::{TermId, TermKind};

fn tid(i: u32) -> TermId {
    TermId::new(TermKind::Resource, i)
}

fn qterm(vars: u16, terms: u32) -> impl Strategy<Value = QTerm> {
    prop_oneof![
        (0..vars).prop_map(|v| QTerm::Var(VarId(v))),
        (0..terms).prop_map(|t| QTerm::Term(tid(t))),
    ]
}

fn qpattern(vars: u16, terms: u32) -> impl Strategy<Value = QPattern> {
    (
        qterm(vars, terms),
        (0..terms).prop_map(|t| QTerm::Term(tid(t))),
        qterm(vars, terms),
    )
        .prop_map(|(s, p, o)| QPattern::new(s, p, o))
}

fn rewrite_rule(terms: u32) -> impl Strategy<Value = Rule> {
    (0..terms, 0..terms, 0.1f64..1.0, proptest::bool::ANY).prop_map(|(p1, p2, w, inv)| {
        if inv {
            Rule::inversion("prop", tid(p1), tid(p2), w, RuleProvenance::UserDefined)
        } else {
            Rule::predicate_rewrite("prop", tid(p1), tid(p2), w, RuleProvenance::UserDefined)
        }
    })
}

/// A rule slot: one of four rule variables or one of `terms` constants.
fn tterm(terms: u32) -> impl Strategy<Value = TTerm> {
    prop_oneof![
        (0u8..4).prop_map(|v| TTerm::Var(RVar(v))),
        (0..terms).prop_map(|t| TTerm::Const(tid(t))),
    ]
}

/// Every mergeable shape: predicate rewrites and inversions by their
/// constructors, and one-in, one-out rules with constants in any slot,
/// repeated variables and RHS-only (fresh) variables.
fn mergeable_rule(terms: u32) -> impl Strategy<Value = Rule> {
    let general = (
        tterm(terms),
        0..terms,
        tterm(terms),
        tterm(terms),
        tterm(terms),
        tterm(terms),
    )
        .prop_map(|(s, p, o, rs, rp, ro)| {
            let lhs = Template::new(s, TTerm::Const(tid(p)), o);
            let rhs = Template::new(rs, rp, ro);
            Rule::structural("g", vec![lhs], vec![rhs], 0.5, RuleProvenance::UserDefined)
        });
    prop_oneof![rewrite_rule(terms), general]
}

/// A pattern with constants, distinct or repeated variables, and a
/// constant or variable predicate.
fn any_qpattern(vars: u16, terms: u32) -> impl Strategy<Value = QPattern> {
    (qterm(vars, terms), qterm(vars, terms), qterm(vars, terms))
        .prop_map(|(s, p, o)| QPattern::new(s, p, o))
}

/// The rewriting's variables that `origin` lacks (fresh ones), renamed
/// in slot order to the lowest ids from `fresh_base` that no variable
/// kept from `origin` holds — how the top-k engine numbered them before
/// rules were compiled.
fn remap_fresh(pattern: QPattern, origin: &QPattern, fresh_base: u16) -> QPattern {
    let kept = |v: VarId| origin.vars().any(|u| u == v);
    let mut mapping: Vec<(VarId, VarId)> = Vec::new();
    let mut next = fresh_base;
    let mut map = |t: QTerm| match t {
        QTerm::Var(v) if !kept(v) => {
            if let Some(&(_, nv)) = mapping.iter().find(|(old, _)| *old == v) {
                return QTerm::Var(nv);
            }
            while pattern.vars().any(|u| u.0 == next && kept(u)) {
                next += 1;
            }
            mapping.push((v, VarId(next)));
            next += 1;
            QTerm::Var(VarId(next - 1))
        }
        other => other,
    };
    QPattern::new(map(pattern.s), map(pattern.p), map(pattern.o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A mergeable rule's compiled form rewrites one pattern exactly as
    /// the general matcher does followed by fresh-variable renaming, and
    /// declines exactly the patterns the matcher finds no match in.
    #[test]
    fn slot_rewrite_equals_the_general_matcher(
        rule in mergeable_rule(2),
        pattern in any_qpattern(3, 2),
        // Over the pattern's own variable ids too, so that fresh ids must
        // skip the variables a rewriting keeps.
        fresh_base in 0u16..4,
    ) {
        prop_assert!(rule.is_mergeable());
        let compiled = rule.slot_rewrite().expect("a mergeable rule compiles");
        let matched = apply_rule(&[pattern], &rule, RuleId(0));
        prop_assert!(matched.len() <= 1, "one pattern matches at most once");
        let want = matched.first().map(|r| {
            let [rewritten] = r.patterns[..] else { panic!("one pattern out") };
            remap_fresh(rewritten, &pattern, fresh_base)
        });
        prop_assert_eq!(compiled.apply(&pattern, fresh_base), want, "{:?} on {:?}", rule, pattern);
    }
}

proptest! {
    /// Canonicalization is idempotent and invariant under pattern order.
    #[test]
    fn canonical_key_is_idempotent_and_order_invariant(
        mut patterns in proptest::collection::vec(qpattern(4, 6), 1..5),
    ) {
        let original_vars = 4;
        let key1 = canonical_key(&patterns, original_vars);
        let key2 = canonical_key(&key1, original_vars);
        prop_assert_eq!(&key1, &key2, "idempotent");
        patterns.reverse();
        let key3 = canonical_key(&patterns, original_vars);
        prop_assert_eq!(key1, key3, "order invariant");
    }

    /// A predicate-rewrite application preserves the number of patterns
    /// and only changes predicates; weights pass through unchanged.
    #[test]
    fn rewrite_application_preserves_shape(
        patterns in proptest::collection::vec(qpattern(4, 6), 1..4),
        rule in rewrite_rule(6),
    ) {
        for rewriting in apply_rule(&patterns, &rule, RuleId(0)) {
            prop_assert_eq!(rewriting.patterns.len(), patterns.len());
            prop_assert_eq!(rewriting.weight, rule.weight);
        }
    }

    /// Expansion always returns the original query first (weight 1.0),
    /// never exceeds its caps, and every rewriting's weight is within
    /// (min_weight, 1.0].
    #[test]
    fn expand_respects_contract(
        patterns in proptest::collection::vec(qpattern(4, 5), 1..4),
        rules in proptest::collection::vec(rewrite_rule(5), 0..6),
        depth in 0usize..3,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let opts = ExpandOptions {
            max_depth: depth,
            min_weight: 0.05,
            max_rewritings: 64,
        };
        let out = expand(&patterns, &set, &opts);
        prop_assert!(!out.is_empty());
        prop_assert!(out[0].trace.is_empty());
        prop_assert_eq!(out[0].weight, 1.0);
        prop_assert_eq!(&out[0].patterns, &patterns);
        prop_assert!(out.len() <= opts.max_rewritings);
        for r in &out {
            prop_assert!(r.weight > 0.0 && r.weight <= 1.0);
            prop_assert!(r.trace.len() <= depth);
        }
    }

    /// No two expansion results are alpha-equivalent (deduplication).
    #[test]
    fn expand_deduplicates(
        patterns in proptest::collection::vec(qpattern(3, 4), 1..3),
        rules in proptest::collection::vec(rewrite_rule(4), 0..5),
    ) {
        let original_vars = 3;
        let set: RuleSet = rules.into_iter().collect();
        let out = expand(&patterns, &set, &ExpandOptions::default());
        let keys: Vec<_> = out
            .iter()
            .map(|r| canonical_key(&r.patterns, original_vars))
            .collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), keys.len(), "alpha-equivalent duplicates");
    }

    /// Ranking ties: the `total_cmp`-based comparator used across the
    /// ranking surfaces (suggest, NED, ontology, mining, apply) orders
    /// finite weights exactly like the old `partial_cmp`-based one, and
    /// the secondary key makes the order independent of input order
    /// even when every weight collides.
    #[test]
    fn total_cmp_ordering_is_stable_under_ties(
        entries in proptest::collection::vec((0usize..4, 0u32..64), 1..40),
    ) {
        // Weights drawn from a 4-value pool so ties are the common
        // case, paired with a label that may itself repeat.
        let pool = [0.25f64, 0.5, 0.5, 0.75];
        let items: Vec<(f64, u32)> = entries
            .iter()
            .map(|&(w, label)| (pool[w], label))
            .collect();

        let mut fixed = items.clone();
        fixed.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

        let mut reference = items.clone();
        // The reference comparator keeps the pre-fix `partial_cmp`
        // ordering: the float-ordering scan's one allowed call site.
        reference.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then_with(|| a.1.cmp(&b.1)));
        prop_assert_eq!(&fixed, &reference, "total_cmp changed the ranking");

        // Order independence: feeding the same multiset in reverse
        // yields the identical ranking, because the (weight, label)
        // comparator is total over the generated domain.
        let mut reversed: Vec<(f64, u32)> = items.iter().rev().copied().collect();
        reversed.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        prop_assert_eq!(&fixed, &reversed, "ranking depends on input order");
    }

    /// Inversion is an involution at weight level: applying the reverse
    /// rule to the rewritten pattern recovers the original pattern.
    #[test]
    fn inversion_round_trip(
        s in 0u32..5,
        p1 in 0u32..5,
        p2 in 5u32..10,
        o in 0u32..5,
    ) {
        let fwd = Rule::inversion("f", tid(p1), tid(p2), 0.9, RuleProvenance::UserDefined);
        let back = Rule::inversion("b", tid(p2), tid(p1), 0.9, RuleProvenance::UserDefined);
        let query = vec![QPattern::new(
            QTerm::Term(tid(s)),
            QTerm::Term(tid(p1)),
            QTerm::Term(tid(o)),
        )];
        let step1 = apply_rule(&query, &fwd, RuleId(0));
        prop_assert_eq!(step1.len(), 1);
        let step2 = apply_rule(&step1[0].patterns, &back, RuleId(1));
        prop_assert_eq!(step2.len(), 1);
        prop_assert_eq!(&step2[0].patterns, &query);
    }
}
