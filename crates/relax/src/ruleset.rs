//! Rule collections with per-predicate indexing.

use std::collections::HashMap;

use trinit_xkg::TermId;

use crate::pattern::QPattern;
use crate::rule::{Rule, RuleId, SlotRewrite, TTerm, Template};

/// An ordered collection of relaxation rules.
///
/// Rules receive stable [`RuleId`]s in insertion order. Mergeable rules
/// ([`Rule::is_mergeable`]) are compiled to their [`SlotRewrite`] and
/// indexed by their LHS predicate, so the top-k processor finds and
/// applies the relaxations of a triple pattern without the general
/// matcher; every other rule is structural, indexed by its LHS
/// constant predicates ([`RuleSet::structural_rules_for`]).
#[derive(Debug, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    by_predicate: HashMap<TermId, Vec<(RuleId, SlotRewrite)>>,
    structural: Vec<RuleId>,
    /// Per structural rule, its LHS templates' constant predicates, or
    /// `None` when some template's predicate is a variable.
    structural_lhs: Vec<Option<Vec<TermId>>>,
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> RuleSet {
        RuleSet::default()
    }

    /// Adds a rule, returning its id.
    pub fn add(&mut self, rule: Rule) -> RuleId {
        let id = RuleId(u32::try_from(self.rules.len()).expect("rule overflow"));
        match (rule.lhs_predicate(), rule.slot_rewrite()) {
            (Some(p), Some(rewrite)) => self.by_predicate.entry(p).or_default().push((id, rewrite)),
            _ => {
                let constant = |t: &Template| match t.p {
                    TTerm::Const(c) => Some(c),
                    TTerm::Var(_) => None,
                };
                self.structural.push(id);
                self.structural_lhs
                    .push(rule.lhs.iter().map(constant).collect());
            }
        }
        self.rules.push(rule);
        id
    }

    /// Adds every rule from an iterator, returning the assigned ids.
    pub fn add_all<I: IntoIterator<Item = Rule>>(&mut self, rules: I) -> Vec<RuleId> {
        rules.into_iter().map(|r| self.add(r)).collect()
    }

    /// The rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this set.
    pub fn get(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the set holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates `(id, rule)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, r)| (RuleId(i as u32), r))
    }

    /// The mergeable rules whose LHS predicate is `p`, compiled, in
    /// insertion order.
    pub fn rules_for_predicate(&self, p: TermId) -> &[(RuleId, SlotRewrite)] {
        self.by_predicate.get(&p).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of the rules that are not mergeable (multi-pattern sides or a
    /// variable LHS predicate), in insertion order.
    pub fn structural_rules(&self) -> &[RuleId] {
        &self.structural
    }

    /// The structural rules that can rewrite a query of `patterns`, in
    /// insertion order: those with an LHS constant predicate among the
    /// patterns' predicates, or a variable predicate on either side. An
    /// application must unify some LHS template with a query pattern, and
    /// a constant unifies only with itself, so a skipped rule has no
    /// rewriting, data conditions or not.
    pub fn structural_rules_for<'a>(
        &'a self,
        patterns: &'a [QPattern],
    ) -> impl Iterator<Item = RuleId> + 'a {
        let any_var = patterns.iter().any(|q| q.p.term().is_none());
        let occurs = |c: &TermId| patterns.iter().any(|q| q.p.term() == Some(*c));
        let applies = move |lhs: &Option<Vec<TermId>>| {
            any_var || lhs.as_ref().is_none_or(|preds| preds.iter().any(occurs))
        };
        (self.structural.iter().zip(&self.structural_lhs))
            .filter(move |(_, lhs)| applies(lhs))
            .map(|(&id, _)| id)
    }
}

impl FromIterator<Rule> for RuleSet {
    fn from_iter<I: IntoIterator<Item = Rule>>(iter: I) -> RuleSet {
        let mut set = RuleSet::new();
        set.add_all(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{RuleProvenance, RVar, TTerm, Template};
    use trinit_xkg::{TermId, TermKind};

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    #[test]
    fn ids_are_stable_insertion_order() {
        let mut set = RuleSet::new();
        let a = set.add(Rule::predicate_rewrite(
            "a",
            tid(1),
            tid(2),
            0.5,
            RuleProvenance::Paraphrase,
        ));
        let b = set.add(Rule::inversion(
            "b",
            tid(3),
            tid(4),
            1.0,
            RuleProvenance::MinedInversion,
        ));
        assert_eq!(a, RuleId(0));
        assert_eq!(b, RuleId(1));
        assert_eq!(set.get(a).label, "a");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn predicate_index() {
        let mut set = RuleSet::new();
        set.add(Rule::predicate_rewrite(
            "a",
            tid(1),
            tid(2),
            0.5,
            RuleProvenance::Paraphrase,
        ));
        set.add(Rule::predicate_rewrite(
            "b",
            tid(1),
            tid(3),
            0.6,
            RuleProvenance::Paraphrase,
        ));
        set.add(Rule::predicate_rewrite(
            "c",
            tid(9),
            tid(3),
            0.6,
            RuleProvenance::Paraphrase,
        ));
        assert_eq!(set.rules_for_predicate(tid(1)).len(), 2);
        assert_eq!(set.rules_for_predicate(tid(9)).len(), 1);
        assert!(set.rules_for_predicate(tid(42)).is_empty());
    }

    #[test]
    fn structural_rules_are_separated() {
        // Exactly the non-mergeable rules are structural: two LHS
        // patterns, two RHS patterns under a constant LHS predicate, a
        // variable LHS predicate. The one-in, one-out rule with a fresh
        // variable is mergeable and is the only one indexed.
        let mut set = RuleSet::new();
        let (x, y, z) = (
            TTerm::Var(RVar(0)),
            TTerm::Var(RVar(1)),
            TTerm::Var(RVar(2)),
        );
        let one = |p: u32, s, o| vec![Template::new(s, TTerm::Const(tid(p)), o)];
        let rules = [
            ([one(1, x, y), one(2, y, x)].concat(), one(3, x, y)),
            (one(1, x, y), [one(3, x, z), one(4, z, y)].concat()),
            (vec![Template::new(x, z, y)], one(3, x, y)),
            (one(1, x, y), one(3, x, z)),
        ];
        for (lhs, rhs) in rules {
            set.add(Rule::structural(
                "s",
                lhs,
                rhs,
                0.7,
                RuleProvenance::Ontology,
            ));
        }
        let mergeable: Vec<bool> = set.iter().map(|(_, r)| r.is_mergeable()).collect();
        assert_eq!(mergeable, [false, false, false, true]);
        assert_eq!(set.structural_rules(), [RuleId(0), RuleId(1), RuleId(2)]);
        let indexed: Vec<RuleId> = (set.rules_for_predicate(tid(1)).iter())
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(indexed, [RuleId(3)]);
    }

    #[test]
    fn structural_rules_are_indexed_by_lhs_predicates() {
        // Rule 0 needs p1 or p2 in the query, rule 1 has a variable LHS
        // predicate and is always tried; a query with a variable
        // predicate tries everything.
        use crate::pattern::{QPattern, QTerm, VarId};
        let mut set = RuleSet::new();
        let (x, y) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)));
        let one = |p, s, o| Template::new(s, p, o);
        let c = |p: u32| TTerm::Const(tid(p));
        set.add(Rule::structural(
            "two-pattern",
            vec![one(c(1), x, y), one(c(2), y, x)],
            vec![one(c(3), x, y)],
            0.7,
            RuleProvenance::Ontology,
        ));
        set.add(Rule::structural(
            "any predicate",
            vec![one(TTerm::Var(RVar(2)), x, y)],
            vec![one(c(3), x, y)],
            0.7,
            RuleProvenance::Ontology,
        ));
        let query = |p: QTerm| [QPattern::new(QTerm::Var(VarId(0)), p, QTerm::Var(VarId(1)))];
        let tried = |p: QTerm| set.structural_rules_for(&query(p)).collect::<Vec<_>>();
        assert_eq!(tried(QTerm::Term(tid(2))), [RuleId(0), RuleId(1)]);
        assert_eq!(tried(QTerm::Term(tid(9))), [RuleId(1)]);
        assert_eq!(tried(QTerm::Var(VarId(5))), [RuleId(0), RuleId(1)]);
    }

    #[test]
    fn from_iterator() {
        let set: RuleSet = vec![
            Rule::predicate_rewrite("a", tid(1), tid(2), 0.5, RuleProvenance::Paraphrase),
            Rule::predicate_rewrite("b", tid(2), tid(3), 0.5, RuleProvenance::Paraphrase),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }
}
