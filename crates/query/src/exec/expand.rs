//! Full-expansion query processing (efficiency baseline).
//!
//! Materializes *every* relaxed form of the query up front via
//! [`trinit_relax::expand`], evaluates each exhaustively with the exact
//! engine, and merges answers keeping the maximum score per projected
//! binding. This explores "the entire space of possible rewritings",
//! which the paper calls "prohibitively expensive" (§4) — it exists both
//! as the reference semantics for the incremental processor (they must
//! agree on results) and as the baseline the efficiency experiment (E5)
//! measures against.

use trinit_relax::{expand, ExpandOptions, RuleId, RuleSet};
use trinit_xkg::XkgStore;

use crate::answer::{Answer, AnswerCollector};
use crate::ast::Query;
use crate::exec::exact;
use crate::exec::ExecMetrics;

/// Runs full-expansion processing.
///
/// Returns the top `query.k` answers and the work metrics.
pub fn run(
    store: &XkgStore,
    query: &Query,
    rules: &RuleSet,
    options: &ExpandOptions,
) -> (Vec<Answer>, ExecMetrics) {
    let mut metrics = ExecMetrics::default();
    let every: Vec<RuleId> = rules.iter().map(|(id, _)| id).collect();
    let rewritings = expand(&query.patterns, rules, &every, options, Some(store));
    let mut collector = AnswerCollector::new();
    for rewriting in &rewritings {
        metrics.rewritings_evaluated += 1;
        if !rewriting.trace.is_empty() {
            metrics.relaxations_opened += 1;
        }
        let answers = exact::evaluate(
            store,
            query,
            &rewriting.patterns,
            &rewriting.trace,
            rewriting.weight,
            &mut metrics,
        );
        for a in answers {
            collector.offer(a);
        }
    }
    (collector.into_top_k(query.k), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use trinit_relax::{Rule, RuleProvenance};
    use trinit_xkg::XkgBuilder;

    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlfredKleiner", "hasStudent", "AlbertEinstein");
        b.add_kg_resources("AlbertEinstein", "affiliation", "IAS");
        let src = b.intern_source("web-doc-3");
        let s = b.dict_mut().resource("IAS");
        let housed = b.dict_mut().token("housed in");
        let o = b.dict_mut().resource("PrincetonUniversity");
        b.add_extracted(s, housed, o, 0.9, src);
        b.build()
    }

    /// User B's scenario: `AlbertEinstein hasAdvisor ?x` has no exact
    /// match; the inversion rule recovers AlfredKleiner.
    #[test]
    fn inversion_rule_recovers_advisor() {
        let store = store();
        let mut q = QueryBuilder::new(&store);
        let has_advisor = q.resource("hasAdvisor"); // unknown in the KG!
        let has_student = store.resource("hasStudent").unwrap();
        let q = q.pattern_r_r_v("AlbertEinstein", "hasAdvisor", "x").build();

        let mut rules = RuleSet::new();
        rules.add(Rule::inversion(
            "advisor/student",
            has_advisor,
            has_student,
            1.0,
            RuleProvenance::UserDefined,
        ));
        let (answers, metrics) = run(&store, &q, &rules, &ExpandOptions::default());
        assert_eq!(answers.len(), 1);
        let kleiner = store.resource("AlfredKleiner").unwrap();
        assert_eq!(answers[0].key[0].1, Some(kleiner));
        assert!(!answers[0].derivation.is_exact());
        assert!(metrics.rewritings_evaluated >= 2);
    }

    /// User C's scenario: affiliation + 'housed in' via rule 3.
    #[test]
    fn chained_relaxation_reaches_xkg() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let housed = store.token("housed in").unwrap();
        // ?x affiliation ?y → ?x affiliation ?z ; ?z 'housed in' ?y
        // modeled as a structural rule (paper rule 3).
        use trinit_relax::{RVar, TTerm, Template};
        let (x, y, z) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
        let mut rules = RuleSet::new();
        rules.add(Rule::structural(
            "rule3",
            vec![Template::new(x, TTerm::Const(aff), y)],
            vec![
                Template::new(x, TTerm::Const(aff), z),
                Template::new(z, TTerm::Const(housed), y),
            ],
            0.8,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "y")
            .build();
        let (answers, _) = run(&store, &q, &rules, &ExpandOptions::default());
        // Exact answer IAS plus relaxed answer PrincetonUniversity.
        assert_eq!(answers.len(), 2);
        let princeton = store.resource("PrincetonUniversity").unwrap();
        let ias = store.resource("IAS").unwrap();
        assert_eq!(answers[0].key[0].1, Some(ias), "exact answer ranks first");
        assert_eq!(answers[1].key[0].1, Some(princeton));
        assert!((answers[1].derivation.rule_weight - 0.8).abs() < 1e-9);
    }

    #[test]
    fn no_rules_equals_exact() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "y")
            .build();
        let (answers, metrics) = run(&store, &q, &RuleSet::new(), &ExpandOptions::default());
        assert_eq!(answers.len(), 1);
        assert_eq!(metrics.rewritings_evaluated, 1);
        assert_eq!(metrics.relaxations_opened, 0);
    }

    #[test]
    fn k_limits_results() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "affiliation", "y")
            .limit(1)
            .build();
        let (answers, _) = run(&store, &q, &RuleSet::new(), &ExpandOptions::default());
        assert_eq!(answers.len(), 1);
    }
}
