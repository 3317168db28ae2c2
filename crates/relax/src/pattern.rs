//! Triple patterns with variables — the query-side pattern language.
//!
//! The paper's extended triple patterns (§2) allow each S/P/O slot to be a
//! canonical resource, a textual token, a literal, or a variable. This
//! module defines that representation; both the relaxation framework and
//! the query processor operate on it.

use std::fmt;

use trinit_xkg::{SlotPattern, TermId};

/// A query variable, identified by a dense index within its query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u16);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?v{}", self.0)
    }
}

/// One slot of a query triple pattern: a concrete term or a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QTerm {
    /// A concrete term (resource, token, or literal).
    Term(TermId),
    /// A variable.
    Var(VarId),
}

impl QTerm {
    /// The concrete term, if this slot is bound.
    #[inline]
    pub fn term(self) -> Option<TermId> {
        match self {
            QTerm::Term(t) => Some(t),
            QTerm::Var(_) => None,
        }
    }

    /// The variable, if this slot is one.
    #[inline]
    pub fn var(self) -> Option<VarId> {
        match self {
            QTerm::Var(v) => Some(v),
            QTerm::Term(_) => None,
        }
    }
}

/// The number of variable ids a query's `patterns` use: one past the
/// largest, which reaches 65,536 when they use the last [`VarId`].
pub fn var_count(patterns: &[QPattern]) -> u32 {
    patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| u32::from(m) + 1)
}

/// A query triple pattern over [`QTerm`] slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QPattern {
    /// Subject slot.
    pub s: QTerm,
    /// Predicate slot.
    pub p: QTerm,
    /// Object slot.
    pub o: QTerm,
}

impl QPattern {
    /// Creates a pattern.
    pub fn new(s: QTerm, p: QTerm, o: QTerm) -> QPattern {
        QPattern { s, p, o }
    }

    /// The slots as an array in S, P, O order.
    #[inline]
    pub fn slots(&self) -> [QTerm; 3] {
        [self.s, self.p, self.o]
    }

    /// The storage-level pattern: variables become wildcards.
    ///
    /// Note this loses join information (repeated variables); callers that
    /// need within-pattern variable equality must post-filter.
    pub fn slot_pattern(&self) -> SlotPattern {
        SlotPattern::new(self.s.term(), self.p.term(), self.o.term())
    }

    /// All variables occurring in this pattern, in slot order (may repeat).
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.slots().into_iter().filter_map(QTerm::var)
    }

    /// The largest variable index in the pattern, if any.
    pub fn max_var(&self) -> Option<u16> {
        self.vars().map(|v| v.0).max()
    }

    /// True if the same variable occurs in more than one slot (a
    /// within-pattern self-join, e.g. `?x knows ?x`).
    pub fn has_repeated_var(&self) -> bool {
        let vs: Vec<VarId> = self.vars().collect();
        match vs.as_slice() {
            [a, b] => a == b,
            [a, b, c] => a == b || a == c || b == c,
            _ => false,
        }
    }
}

/// Renders a pattern against a dictionary for human-readable output.
pub fn display_pattern(pattern: &QPattern, dict: &trinit_xkg::TermDict) -> String {
    let slot = |t: QTerm| match t {
        QTerm::Var(v) => v.to_string(),
        QTerm::Term(id) => match dict.resolve(id) {
            Some(text) if id.is_resource() => text.to_string(),
            Some(text) => format!("'{text}'"),
            None => format!("<{id:?}>"),
        },
    };
    format!(
        "{} {} {}",
        slot(pattern.s),
        slot(pattern.p),
        slot(pattern.o)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::{TermDict, TermKind};

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    #[test]
    fn slot_pattern_projects_terms() {
        let p = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tid(1)), QTerm::Var(VarId(1)));
        let sp = p.slot_pattern();
        assert_eq!(sp.s, None);
        assert_eq!(sp.p, Some(tid(1)));
        assert_eq!(sp.o, None);
    }

    #[test]
    fn vars_and_max_var() {
        let p = QPattern::new(QTerm::Var(VarId(2)), QTerm::Term(tid(1)), QTerm::Var(VarId(5)));
        let vs: Vec<VarId> = p.vars().collect();
        assert_eq!(vs, vec![VarId(2), VarId(5)]);
        assert_eq!(p.max_var(), Some(5));
        let ground = QPattern::new(QTerm::Term(tid(0)), QTerm::Term(tid(1)), QTerm::Term(tid(2)));
        assert_eq!(ground.max_var(), None);
    }

    #[test]
    fn repeated_var_detection() {
        let p = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tid(1)), QTerm::Var(VarId(0)));
        assert!(p.has_repeated_var());
        let q = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tid(1)), QTerm::Var(VarId(1)));
        assert!(!q.has_repeated_var());
    }

    #[test]
    fn display_uses_dictionary() {
        let mut dict = TermDict::new();
        let born = dict.resource("bornIn");
        let ulm = dict.resource("Ulm");
        let p = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(born), QTerm::Term(ulm));
        assert_eq!(display_pattern(&p, &dict), "?v0 bornIn Ulm");
        let tok = dict.token("won nobel for");
        let q = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tok), QTerm::Var(VarId(1)));
        assert_eq!(display_pattern(&q, &dict), "?v0 'won nobel for' ?v1");
    }
}
