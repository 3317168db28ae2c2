//! Exact conjunctive evaluation (no relaxation).
//!
//! Backtracking index-nested-loop join in the order chosen by
//! [`crate::plan`]. Scores use the *as-written* pattern probabilities
//! (see [`crate::score`]): the probability of a match is computed against
//! the pattern's full match set, not the partially-bound lookup used for
//! enumeration — enumeration strategy must not change scores.

use std::collections::HashMap;

use trinit_relax::{QPattern, QTerm, RuleId};
use trinit_xkg::{SlotPattern, TripleId, XkgStore};

use crate::answer::{Answer, Bindings, Derivation};
use crate::ast::Query;
use crate::exec::ExecMetrics;
use crate::plan::plan_order;
use crate::score::{ln_weight, ScoredMatches};

/// Evaluates a conjunctive pattern list exhaustively.
///
/// Every complete assignment becomes an [`Answer`] whose score is the sum
/// of pattern log-probabilities plus `ln(rule_weight)` for the supplied
/// relaxation trace (empty trace and weight 1.0 for an unrelaxed query).
pub fn evaluate(
    store: &XkgStore,
    query: &Query,
    patterns: &[QPattern],
    rule_trace: &[RuleId],
    rule_weight: f64,
    metrics: &mut ExecMetrics,
) -> Vec<Answer> {
    let projection = query.effective_projection();
    if patterns.is_empty() {
        return Vec::new();
    }

    // Scorers for the as-written patterns.
    let scorers: Vec<ScoredMatches<'_>> = patterns
        .iter()
        .map(|p| {
            metrics.posting_lists_built += 1;
            ScoredMatches::build(store, p)
        })
        .collect();
    if scorers.iter().any(ScoredMatches::is_empty) {
        return Vec::new();
    }
    // O(1) probability probes for the join recursion (a linear scan per
    // candidate would make the join quadratic in the match-set size).
    let prob_maps: Vec<HashMap<TripleId, f64>> = scorers
        .iter()
        .map(|s| s.iter().map(|e| (e.triple, e.prob)).collect())
        .collect();

    let order = plan_order(store, patterns);
    let n_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m as usize + 1);

    let mut out = Vec::new();
    let mut bindings = Bindings::new(n_vars);
    let mut matched: Vec<MatchedTriple> = Vec::with_capacity(patterns.len());
    // One candidate scratch buffer per join depth: Packed segments decode
    // probe ranges into these instead of allocating per probe (Flat
    // segments borrow and never touch them).
    let mut scratch: Vec<Vec<TripleId>> = vec![Vec::new(); order.len()];
    let base_score = ln_weight(rule_weight);

    recurse(
        store,
        patterns,
        &prob_maps,
        &order,
        0,
        &mut bindings,
        &mut matched,
        &mut scratch,
        base_score,
        &mut |bindings, matched, score| {
            out.push(Answer {
                key: bindings.project(&projection),
                bindings: bindings.clone(),
                score,
                derivation: Derivation {
                    triples: matched.to_vec(),
                    rules: rule_trace.to_vec(),
                    rule_weight,
                },
            });
        },
        metrics,
    );
    out
}

/// A match emitted during join recursion: the pattern as evaluated and
/// the triple that satisfied it.
type MatchedTriple = (QPattern, trinit_xkg::TripleId);

/// Substitutes current bindings into a pattern for index lookup.
fn substituted(pattern: &QPattern, bindings: &Bindings) -> SlotPattern {
    let slot = |t: QTerm| match t {
        QTerm::Term(id) => Some(id),
        QTerm::Var(v) => bindings.get(v),
    };
    SlotPattern::new(slot(pattern.s), slot(pattern.p), slot(pattern.o))
}

#[expect(clippy::too_many_arguments, reason = "the backtracking state of one conjunctive evaluation")]
fn recurse(
    store: &XkgStore,
    patterns: &[QPattern],
    prob_maps: &[HashMap<TripleId, f64>],
    order: &[usize],
    depth: usize,
    bindings: &mut Bindings,
    matched: &mut Vec<MatchedTriple>,
    scratch: &mut Vec<Vec<TripleId>>,
    score: f64,
    emit: &mut dyn FnMut(&Bindings, &[MatchedTriple], f64),
    metrics: &mut ExecMetrics,
) {
    let Some(&pi) = order.get(depth) else {
        emit(bindings, matched, score);
        return;
    };
    let pattern = &patterns[pi];
    let lookup = substituted(pattern, bindings);
    // This depth's scratch buffer is taken for the duration of the probe
    // loop (deeper recursion uses its own depth's buffer) and returned
    // below, so a Packed decode's allocation is reused across probes.
    let mut buf = std::mem::take(scratch.get_mut(depth).map_or(&mut Vec::new(), |b| b));
    let candidates = store.lookup_in(&lookup, &mut buf);
    // Validate-then-bind with undo: candidate compatibility is checked
    // against the shared assignment in place, so a failing candidate
    // costs no allocation (the old per-candidate `Bindings` clone made
    // every rejected triple pay for the accepted ones).
    let mut newly_bound: Vec<trinit_relax::VarId> = Vec::with_capacity(3);
    for &id in candidates {
        metrics.postings_scanned += 1;
        let t = store.triple(id);
        newly_bound.clear();
        let mut ok = true;
        for (slot, value) in pattern.slots().into_iter().zip([t.s, t.p, t.o]) {
            if let QTerm::Var(v) = slot {
                if !bindings.try_bind_recorded(v, value, &mut newly_bound) {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            metrics.join_candidates += 1;
            let prob = prob_maps[pi].get(&id).copied().unwrap_or(0.0);
            let step = ln_weight(prob);
            matched.push((*pattern, id));
            recurse(
                store,
                patterns,
                prob_maps,
                order,
                depth + 1,
                bindings,
                matched,
                scratch,
                score + step,
                emit,
                metrics,
            );
            matched.pop();
        }
        for &v in &newly_bound {
            bindings.unbind(v);
        }
    }
    if let Some(slot) = scratch.get_mut(depth) {
        *slot = buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use trinit_xkg::XkgBuilder;

    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        b.add_kg_resources("MaxPlanck", "bornIn", "Kiel");
        b.add_kg_resources("Ulm", "locatedIn", "Germany");
        b.add_kg_resources("Kiel", "locatedIn", "Germany");
        b.add_kg_resources("AlbertEinstein", "affiliation", "IAS");
        b.build()
    }

    fn eval(store: &XkgStore, query: &Query) -> Vec<Answer> {
        let mut m = ExecMetrics::default();
        evaluate(store, query, &query.patterns, &[], 1.0, &mut m)
    }

    #[test]
    fn single_pattern_query() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .build();
        let answers = eval(&store, &q);
        assert_eq!(answers.len(), 1);
        let einstein = store.resource("AlbertEinstein").unwrap();
        assert_eq!(answers[0].key[0].1, Some(einstein));
        assert!(answers[0].derivation.is_exact());
    }

    #[test]
    fn join_query_who_born_in_germany_city() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "c")
            .pattern_v_r_r("c", "locatedIn", "Germany")
            .project(&["x"])
            .build();
        let answers = eval(&store, &q);
        assert_eq!(answers.len(), 2);
    }

    #[test]
    fn unsatisfiable_query_returns_empty() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Atlantis")
            .build();
        assert!(eval(&store, &q).is_empty());
    }

    #[test]
    fn join_on_shared_variable_filters() {
        let store = store();
        // Who is born in Ulm AND affiliated with IAS? Only Einstein.
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .pattern_v_r_r("x", "affiliation", "IAS")
            .build();
        let answers = eval(&store, &q);
        assert_eq!(answers.len(), 1);
        // And Planck born-in-Ulm + IAS affiliation is empty.
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Kiel")
            .pattern_v_r_r("x", "affiliation", "IAS")
            .build();
        assert!(eval(&store, &q).is_empty());
    }

    #[test]
    fn scores_are_join_order_independent() {
        let store = store();
        let q1 = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "c")
            .pattern_v_r_r("c", "locatedIn", "Germany")
            .build();
        let q2 = QueryBuilder::new(&store)
            .pattern_v_r_r("c", "locatedIn", "Germany")
            .pattern_v_r_v("x", "bornIn", "c")
            .build();
        let mut a1 = eval(&store, &q1);
        let mut a2 = eval(&store, &q2);
        let sort = |v: &mut Vec<Answer>| {
            v.sort_by(|a, b| a.score.total_cmp(&b.score));
        };
        sort(&mut a1);
        sort(&mut a2);
        assert_eq!(a1.len(), a2.len());
        for (x, y) in a1.iter().zip(&a2) {
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn ground_pattern_contributes_score_only() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "y")
            .build();
        let answers = eval(&store, &q);
        assert_eq!(answers.len(), 1);
        // P = 1.0 for the unique match → log score 0.
        assert!(answers[0].score.abs() < 1e-9);
    }

    #[test]
    fn rule_weight_attenuates_score() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .build();
        let mut m = ExecMetrics::default();
        let full = evaluate(&store, &q, &q.patterns, &[], 1.0, &mut m);
        let relaxed = evaluate(&store, &q, &q.patterns, &[RuleId(0)], 0.5, &mut m);
        assert!((relaxed[0].score - (full[0].score + 0.5f64.ln())).abs() < 1e-9);
        assert!(!relaxed[0].derivation.is_exact());
    }

    #[test]
    fn metrics_count_work() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "c")
            .pattern_v_r_r("c", "locatedIn", "Germany")
            .build();
        let mut m = ExecMetrics::default();
        let _ = evaluate(&store, &q, &q.patterns, &[], 1.0, &mut m);
        assert_eq!(m.posting_lists_built, 2);
        assert!(m.postings_scanned > 0);
        assert!(m.join_candidates > 0);
    }
}
