//! Relaxation rules.
//!
//! A relaxation rule (paper §3) "replaces a set of triple patterns in the
//! original query with a set of new patterns", carrying a weight
//! `w ∈ [0, 1]` that reflects the semantic similarity between the two
//! sides. Rule sides are written over *rule variables* ([`RVar`]), which
//! unify with whatever the query has in the corresponding slots; rule
//! variables appearing only on the right-hand side introduce fresh query
//! variables (e.g. the intermediate city `?z` of the paper's rule 1).

use std::fmt;

use trinit_xkg::TermId;

use crate::pattern::{QPattern, QTerm, VarId};

/// A rule-scoped variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RVar(pub u8);

impl fmt::Display for RVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?r{}", self.0)
    }
}

/// One slot of a rule template: a constant term or a rule variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TTerm {
    /// A concrete term that must match the query exactly.
    Const(TermId),
    /// A rule variable that unifies with anything (consistently).
    Var(RVar),
}

/// A triple-pattern template over [`TTerm`] slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Template {
    /// Subject slot.
    pub s: TTerm,
    /// Predicate slot.
    pub p: TTerm,
    /// Object slot.
    pub o: TTerm,
}

impl Template {
    /// Creates a template.
    pub fn new(s: TTerm, p: TTerm, o: TTerm) -> Template {
        Template { s, p, o }
    }

    /// The slots as an array in S, P, O order.
    #[inline]
    pub fn slots(&self) -> [TTerm; 3] {
        [self.s, self.p, self.o]
    }

    /// All rule variables in the template.
    pub fn vars(&self) -> impl Iterator<Item = RVar> + '_ {
        self.slots().into_iter().filter_map(|t| match t {
            TTerm::Var(v) => Some(v),
            TTerm::Const(_) => None,
        })
    }
}

/// Classification of a rule's rewriting shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Replaces one predicate by another, same argument order
    /// (paper rules 3, 4).
    PredicateRewrite,
    /// Replaces one predicate by another with swapped arguments
    /// (paper rule 2: `hasAdvisor` ↔ `hasStudent`).
    Inversion,
    /// Rewrites a set of patterns into a different set, possibly with
    /// fresh variables (paper rule 1).
    Structural,
}

/// Where a rule came from — surfaced in answer explanations (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleProvenance {
    /// Mined from XKG predicate co-occurrence (the paper's
    /// `w(p1→p2) = |args(p1)∩args(p2)| / |args(p2)|`).
    MinedCooccurrence,
    /// Mined from inverted co-occurrence.
    MinedInversion,
    /// Generated from type/granularity knowledge.
    Ontology,
    /// From a paraphrase repository.
    Paraphrase,
    /// Supplied interactively by the user.
    UserDefined,
}

/// One slot of a [`SlotRewrite`] side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// This term.
    Const(TermId),
    /// What the query holds in the slot with this index, the first LHS
    /// slot holding the rule variable.
    Query(u8),
    /// The RHS-only rule variable first held by the RHS slot with this
    /// index.
    Fresh(u8),
}

/// A mergeable rule ([`Rule::is_mergeable`]) compiled into a fixed-size
/// slot substitution: applied to one pattern, it gives exactly what the
/// general matcher ([`crate::apply::apply_rule`]) gives for that pattern
/// alone, with fresh variables renamed into a caller-given id range,
/// and it searches, hashes and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRewrite {
    lhs: [Slot; 3],
    rhs: [Slot; 3],
}

impl SlotRewrite {
    /// The rewriting of `pattern`, or `None` if the rule does not match
    /// it. Fresh variables take, in order of first occurrence, the lowest
    /// ids from `fresh_base` up that the rewriting does not already hold
    /// as a variable kept from `pattern`.
    #[inline]
    pub fn apply(&self, pattern: &QPattern, fresh_base: u16) -> Option<QPattern> {
        let q = pattern.slots();
        let holds = |(i, slot): (usize, &Slot)| match *slot {
            Slot::Const(c) => q[i] == QTerm::Term(c),
            Slot::Query(j) => q[i] == q[j as usize],
            Slot::Fresh(_) => false,
        };
        if !self.lhs.iter().enumerate().all(holds) {
            return None;
        }
        let kept = |id: u16| {
            let var = QTerm::Var(VarId(id));
            (self.rhs.iter()).any(|&s| matches!(s, Slot::Query(j) if q[j as usize] == var))
        };
        let (mut fresh, mut next) = ([None; 3], fresh_base);
        let out = self.rhs.map(|slot| match slot {
            Slot::Const(c) => QTerm::Term(c),
            Slot::Query(j) => q[j as usize],
            Slot::Fresh(k) => QTerm::Var(*fresh[k as usize].get_or_insert_with(|| {
                while kept(next) {
                    next += 1;
                }
                next += 1;
                VarId(next - 1)
            })),
        });
        Some(QPattern::new(out[0], out[1], out[2]))
    }
}

/// Identifier of a rule within a [`crate::ruleset::RuleSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// A complete relaxation rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Human-readable description.
    pub label: String,
    /// Patterns the rule consumes.
    pub lhs: Vec<Template>,
    /// Patterns the rule produces.
    pub rhs: Vec<Template>,
    /// Semantic-similarity weight in `[0, 1]`.
    pub weight: f64,
    /// Rewriting shape.
    pub kind: RuleKind,
    /// Origin of the rule.
    pub provenance: RuleProvenance,
}

impl Rule {
    /// Builds a predicate-rewrite rule `?x p1 ?y → ?x p2 ?y`.
    pub fn predicate_rewrite(
        label: impl Into<String>,
        p1: TermId,
        p2: TermId,
        weight: f64,
        provenance: RuleProvenance,
    ) -> Rule {
        let (x, y) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)));
        Rule {
            label: label.into(),
            lhs: vec![Template::new(x, TTerm::Const(p1), y)],
            rhs: vec![Template::new(x, TTerm::Const(p2), y)],
            weight: weight.clamp(0.0, 1.0),
            kind: RuleKind::PredicateRewrite,
            provenance,
        }
    }

    /// Builds an inversion rule `?x p1 ?y → ?y p2 ?x`.
    pub fn inversion(
        label: impl Into<String>,
        p1: TermId,
        p2: TermId,
        weight: f64,
        provenance: RuleProvenance,
    ) -> Rule {
        let (x, y) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)));
        Rule {
            label: label.into(),
            lhs: vec![Template::new(x, TTerm::Const(p1), y)],
            rhs: vec![Template::new(y, TTerm::Const(p2), x)],
            weight: weight.clamp(0.0, 1.0),
            kind: RuleKind::Inversion,
            provenance,
        }
    }

    /// Builds a general structural rule from explicit templates.
    pub fn structural(
        label: impl Into<String>,
        lhs: Vec<Template>,
        rhs: Vec<Template>,
        weight: f64,
        provenance: RuleProvenance,
    ) -> Rule {
        Rule {
            label: label.into(),
            lhs,
            rhs,
            weight: weight.clamp(0.0, 1.0),
            kind: RuleKind::Structural,
            provenance,
        }
    }

    /// True if the rule rewrites one pattern with a constant predicate
    /// into one pattern — such rules are merged incrementally per pattern
    /// during top-k processing (§4); every other rule is structural and
    /// rewrites the query as a whole.
    pub fn is_mergeable(&self) -> bool {
        self.rhs.len() == 1 && self.lhs_predicate().is_some()
    }

    /// The rule compiled to a [`SlotRewrite`], if it is mergeable.
    pub fn slot_rewrite(&self) -> Option<SlotRewrite> {
        if !self.is_mergeable() {
            return None;
        }
        let (lhs, rhs) = (self.lhs[0].slots(), self.rhs[0].slots());
        let first = |side: [TTerm; 3], t| side.iter().position(|&s| s == t).unwrap_or(0) as u8;
        let slot = |t: TTerm| match t {
            TTerm::Const(c) => Slot::Const(c),
            _ if lhs.contains(&t) => Slot::Query(first(lhs, t)),
            _ => Slot::Fresh(first(rhs, t)),
        };
        let (lhs, rhs) = (lhs.map(slot), rhs.map(slot));
        Some(SlotRewrite { lhs, rhs })
    }

    /// The constant predicate of a single-pattern rule's LHS, if any.
    pub fn lhs_predicate(&self) -> Option<TermId> {
        match self.lhs.as_slice() {
            [t] => match t.p {
                TTerm::Const(p) => Some(p),
                TTerm::Var(_) => None,
            },
            _ => None,
        }
    }

    /// Rule variables appearing only in the RHS (fresh variables that
    /// application must instantiate as new query variables).
    pub fn fresh_vars(&self) -> Vec<RVar> {
        let mut lhs_vars: Vec<RVar> = self.lhs.iter().flat_map(Template::vars).collect();
        lhs_vars.sort_unstable();
        lhs_vars.dedup();
        let mut fresh: Vec<RVar> = self
            .rhs
            .iter()
            .flat_map(Template::vars)
            .filter(|v| !lhs_vars.contains(v))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::TermKind;

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    #[test]
    fn predicate_rewrite_shape() {
        let r = Rule::predicate_rewrite("p1->p2", tid(1), tid(2), 0.8, RuleProvenance::Paraphrase);
        assert!(r.is_mergeable());
        assert_eq!(r.lhs_predicate(), Some(tid(1)));
        assert_eq!(r.kind, RuleKind::PredicateRewrite);
        assert!(r.fresh_vars().is_empty());
        // Argument order preserved.
        assert_eq!(r.lhs[0].s, r.rhs[0].s);
        assert_eq!(r.lhs[0].o, r.rhs[0].o);
    }

    #[test]
    fn inversion_swaps_arguments() {
        let r = Rule::inversion("advisor", tid(1), tid(2), 1.0, RuleProvenance::MinedInversion);
        assert_eq!(r.lhs[0].s, r.rhs[0].o);
        assert_eq!(r.lhs[0].o, r.rhs[0].s);
        assert_eq!(r.lhs_predicate(), Some(tid(1)));
    }

    #[test]
    fn weight_is_clamped() {
        let r = Rule::predicate_rewrite("w", tid(1), tid(2), 1.7, RuleProvenance::UserDefined);
        assert_eq!(r.weight, 1.0);
        let r = Rule::predicate_rewrite("w", tid(1), tid(2), -0.3, RuleProvenance::UserDefined);
        assert_eq!(r.weight, 0.0);
    }

    #[test]
    fn fresh_vars_of_granularity_rule() {
        // ?x bornIn ?y ; ?y type country → ?x bornIn ?z ; ?z type city ;
        // ?z locatedIn ?y  (paper rule 1; ?z is fresh)
        let (x, y, z) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
        let born = TTerm::Const(tid(1));
        let typ = TTerm::Const(tid(2));
        let country = TTerm::Const(tid(3));
        let city = TTerm::Const(tid(4));
        let located = TTerm::Const(tid(5));
        let r = Rule::structural(
            "born-in-country",
            vec![Template::new(x, born, y), Template::new(y, typ, country)],
            vec![
                Template::new(x, born, z),
                Template::new(z, typ, city),
                Template::new(z, located, y),
            ],
            1.0,
            RuleProvenance::Ontology,
        );
        assert_eq!(r.fresh_vars(), vec![RVar(2)]);
        assert!(!r.is_mergeable());
        assert_eq!(r.lhs_predicate(), None);
    }
}
