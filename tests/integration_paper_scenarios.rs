//! Integration: the paper's own running example, end to end.
//!
//! Every claim the paper makes about its Figures 1–4 examples is checked
//! here against the fixture store: the four user queries of Figure 2,
//! the relaxation rules of Figure 4, and the demo features of §5.

use trinit_core::fixtures::{paper_rules, paper_rules_with_advisor, paper_store};
use trinit_core::{Engine, Trinit};

#[path = "support/reference.rs"]
pub mod reference;

fn fixture_system() -> Trinit {
    let store = paper_store();
    let rules = paper_rules(&store);
    Trinit::from_parts(store, rules)
}

fn top_answer(sys: &Trinit, text: &str) -> Option<String> {
    let outcome = sys.query(text).ok()?;
    let answer = outcome.answers.first()?;
    let (_, term) = answer.key.first()?;
    term.map(|t| sys.store().display_term(t))
}

/// User A: "Who was born in Germany?" — KG stores city granularity;
/// rule 1 (with the `Germany type country` condition checked in the KG)
/// recovers Einstein.
#[test]
fn user_a_granularity() {
    let sys = fixture_system();
    let exact = reference::exact(&sys, &sys.parse("?x bornIn Germany").unwrap());
    assert!(exact.is_empty(), "KG has no person bornIn Germany");
    assert_eq!(
        top_answer(&sys, "?x bornIn Germany"),
        Some("AlbertEinstein".to_string())
    );
}

/// User B: "Who was the advisor of Albert Einstein?" — hasAdvisor is not
/// in the vocabulary; the inversion rule maps it to hasStudent.
#[test]
fn user_b_inversion() {
    let store = paper_store();
    let probe = {
        let mut qb = trinit_core::query::QueryBuilder::new(&store);
        qb.resource("hasAdvisor")
    };
    let rules = paper_rules_with_advisor(&store, probe);
    let sys = Trinit::from_parts(store, rules);
    assert_eq!(
        top_answer(&sys, "AlbertEinstein hasAdvisor ?x"),
        Some("AlfredKleiner".to_string())
    );
}

/// User C: "Ivy League university Einstein was affiliated with" — needs
/// the XKG 'housed in' triple via rule 3; answer: PrincetonUniversity,
/// exactly the paper's "more useful answer".
#[test]
fn user_c_incompleteness() {
    let sys = fixture_system();
    let text = "AlbertEinstein affiliation ?x . ?x member IvyLeague";
    let exact = reference::exact(&sys, &sys.parse(text).unwrap());
    assert!(exact.is_empty(), "strictly, no Ivy affiliation");
    assert_eq!(top_answer(&sys, text), Some("PrincetonUniversity".to_string()));

    // The explanation must surface all three information pieces of §5.
    let outcome = sys.query(text).unwrap();
    let explanation = sys.explain(&outcome, 0).unwrap();
    assert!(!explanation.kg_triples.is_empty());
    assert!(!explanation.xkg_triples.is_empty());
    assert!(!explanation.rules.is_empty());
}

/// User D: "What did Albert Einstein win a Nobel prize for?" — no KG
/// predicate exists; the token triple answers directly on the XKG.
#[test]
fn user_d_missing_predicate() {
    let sys = fixture_system();
    assert_eq!(
        top_answer(&sys, "AlbertEinstein 'won nobel for' ?x"),
        Some("'discovery of the photoelectric effect'".to_string())
    );
}

/// Rule 4: the 'lectured at' rewrite also yields Princeton for the plain
/// affiliation query, ranked below the exact IAS answer.
#[test]
fn rule_4_lectured_at_ranking() {
    let sys = fixture_system();
    let outcome = sys
        .query("AlbertEinstein affiliation ?x LIMIT 5")
        .unwrap();
    let names: Vec<String> = outcome
        .answers
        .iter()
        .filter_map(|a| a.key[0].1.map(|t| sys.store().display_term(t)))
        .collect();
    assert_eq!(names[0], "IAS", "exact answer first");
    assert!(
        names.contains(&"PrincetonUniversity".to_string()),
        "relaxed answer present: {names:?}"
    );
}

/// Figure 5's result-limit control: k truncates, and answers stay sorted.
#[test]
fn limit_and_order() {
    let sys = fixture_system();
    let outcome = sys
        .query("AlbertEinstein affiliation ?x LIMIT 1")
        .unwrap();
    assert_eq!(outcome.answers.len(), 1);
}

/// §5 auto-completion guides query formulation.
#[test]
fn autocompletion_over_fixture() {
    let sys = fixture_system();
    let completions: Vec<String> = sys
        .complete("Prince", 5)
        .into_iter()
        .map(|c| c.text)
        .collect();
    assert!(completions.contains(&"PrincetonUniversity".to_string()));
    let tokens: Vec<String> = sys
        .complete("won", 5)
        .into_iter()
        .map(|c| c.text)
        .collect();
    assert!(tokens.contains(&"won nobel for".to_string()));
}

/// §5 rule-invocation notices accompany relaxed results.
#[test]
fn rule_invocation_notices() {
    let sys = fixture_system();
    let outcome = sys.query("?x bornIn Germany").unwrap();
    let suggestions = sys.suggest(&outcome);
    assert!(
        suggestions
            .iter()
            .any(|s| matches!(s, trinit_core::Suggestion::RuleInvoked { structural: true, .. })),
        "structural rule 1 should be reported: {suggestions:?}"
    );
}

/// Figure 1 literal: the bornOn date is queryable as a literal term.
#[test]
fn literal_queries() {
    let sys = fixture_system();
    let outcome = sys.query("?x bornOn '1879-03-14'").unwrap();
    assert_eq!(outcome.answers.len(), 1);
    assert_eq!(
        top_answer(&sys, "?x bornOn '1879-03-14'"),
        Some("AlbertEinstein".to_string())
    );
}

/// Top-k and both references agree on the paper's exact-match queries.
#[test]
fn engines_agree_on_exact_fixture_queries() {
    let sys = fixture_system();
    for text in ["?x bornIn Ulm", "Ulm locatedIn ?x", "?x member IvyLeague"] {
        let query = sys.parse(text).unwrap();
        let exact = reference::exact(&sys, &query);
        let (full, _) = reference::full(&sys, &query);
        let inc = sys.run(query, Engine::IncrementalTopK);
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].key, full[0].key);
        assert_eq!(exact[0].key, inc.answers[0].key);
    }
}

/// A lighter copy of rule 1 ahead of the fixture rules rewrites user A's
/// query into the same variant as rule 1 itself: the query answers
/// exactly as under the fixture rules alone — same keys, same score bits
/// — because a variant keeps its heaviest derivation, not its first.
#[test]
fn a_lighter_duplicate_of_rule_1_changes_no_answer() {
    let store = paper_store();
    let paper = paper_rules(&store);
    let mut rules = trinit_core::relax::RuleSet::new();
    let rule_1 = paper.iter().next().expect("rule 1").1;
    rules.add(trinit_core::relax::Rule {
        weight: 0.6,
        ..rule_1.clone()
    });
    for (_, rule) in paper.iter() {
        rules.add(rule.clone());
    }
    let with_duplicate = Trinit::from_parts(store, rules);
    let sys = fixture_system();
    let text = "?x bornIn Germany LIMIT 10";
    let want = sys.query(text).expect("parses").answers;
    let got = with_duplicate.query(text).expect("parses").answers;
    assert!(!want.is_empty());
    let keyed = |answers: &[trinit_core::query::Answer]| -> Vec<_> {
        answers
            .iter()
            .map(|a| (a.key.clone(), a.score.to_bits()))
            .collect()
    };
    assert_eq!(keyed(&got), keyed(&want));
}
