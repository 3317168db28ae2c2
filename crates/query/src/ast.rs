//! Query AST: extended triple-pattern queries.
//!
//! A [`Query`] is a conjunction of extended triple patterns (paper §2) —
//! each slot a resource, token, literal, or variable — plus projection
//! variables and a result limit `k`. Queries are built programmatically
//! through [`QueryBuilder`] or parsed from text (see [`crate::parser`]).

use std::collections::HashMap;

use trinit_relax::{QPattern, QTerm, VarId};
use trinit_xkg::{TermId, TermKind, XkgStore};

/// A complete query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Conjunctive triple patterns.
    pub patterns: Vec<QPattern>,
    /// Projection variables (answers are deduplicated on these). Empty
    /// means "project every variable".
    pub projection: Vec<VarId>,
    /// Number of results requested.
    pub k: usize,
    /// Display names of variables, indexed by [`VarId`].
    pub var_names: Vec<String>,
    /// Terms that were written in the query but do not exist in the
    /// store's dictionary (they match nothing). Kept for display and for
    /// query suggestion.
    pub unknown_terms: Vec<(TermId, String)>,
}

impl Query {
    /// All distinct variables in pattern order of first occurrence.
    pub fn vars(&self) -> Vec<VarId> {
        let mut seen = Vec::new();
        for p in &self.patterns {
            for v in p.vars() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    }

    /// The effective projection: explicit projection, or all variables.
    pub fn effective_projection(&self) -> Vec<VarId> {
        if self.projection.is_empty() {
            self.vars()
        } else {
            self.projection.clone()
        }
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        self.var_names
            .get(v.0 as usize)
            .map(String::as_str)
            .unwrap_or("_fresh")
    }

    /// Renders a term, resolving unknown terms from the side table.
    pub fn display_term(&self, store: &XkgStore, t: QTerm) -> String {
        match t {
            QTerm::Var(v) => format!("?{}", self.var_name(v)),
            QTerm::Term(id) => {
                if let Some(text) = store.dict().resolve(id) {
                    if id.is_resource() {
                        text.to_string()
                    } else {
                        format!("'{text}'")
                    }
                } else if let Some((_, text)) =
                    self.unknown_terms.iter().find(|(u, _)| *u == id)
                {
                    format!("'{text}'?")
                } else {
                    format!("<{id:?}>")
                }
            }
        }
    }

    /// Renders one pattern.
    pub fn display_pattern(&self, store: &XkgStore, p: &QPattern) -> String {
        format!(
            "{} {} {}",
            self.display_term(store, p.s),
            self.display_term(store, p.p),
            self.display_term(store, p.o)
        )
    }

    /// Renders the whole query in paper-style notation.
    pub fn display(&self, store: &XkgStore) -> String {
        self.patterns
            .iter()
            .map(|p| self.display_pattern(store, p))
            .collect::<Vec<_>>()
            .join(" ; ")
    }
}

/// Incrementally builds a [`Query`] against a store's dictionary.
///
/// # Examples
///
/// ```
/// use trinit_xkg::XkgBuilder;
/// use trinit_query::QueryBuilder;
///
/// let mut b = XkgBuilder::new();
/// b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
/// let store = b.build();
///
/// let query = QueryBuilder::new(&store)
///     .pattern_v_r_r("x", "bornIn", "Ulm")
///     .project(&["x"])
///     .limit(10)
///     .build();
/// assert_eq!(query.patterns.len(), 1);
/// ```
#[derive(Debug)]
pub struct QueryBuilder<'a> {
    store: &'a XkgStore,
    patterns: Vec<QPattern>,
    projection: Vec<VarId>,
    k: usize,
    var_ids: HashMap<String, VarId>,
    var_names: Vec<String>,
    unknown_terms: Vec<(TermId, String)>,
    unknown_counter: u32,
}

impl<'a> QueryBuilder<'a> {
    /// Creates a builder resolving terms against `store`.
    pub fn new(store: &'a XkgStore) -> QueryBuilder<'a> {
        QueryBuilder {
            store,
            patterns: Vec::new(),
            projection: Vec::new(),
            k: 10,
            var_ids: HashMap::new(),
            var_names: Vec::new(),
            unknown_terms: Vec::new(),
            unknown_counter: 0,
        }
    }

    /// Interns a variable by name.
    ///
    /// # Panics
    ///
    /// Panics past 65,536 distinct variables, the [`VarId`] space;
    /// [`crate::parse`] reports that as a [`crate::ParseError`] instead.
    pub fn var(&mut self, name: &str) -> VarId {
        self.try_var(name).expect("too many variables")
    }

    /// Interns a variable by name, or returns `None` when every
    /// [`VarId`] is taken.
    pub(crate) fn try_var(&mut self, name: &str) -> Option<VarId> {
        if let Some(&v) = self.var_ids.get(name) {
            return Some(v);
        }
        let v = VarId(u16::try_from(self.var_names.len()).ok()?);
        self.var_ids.insert(name.to_string(), v);
        self.var_names.push(name.to_string());
        Some(v)
    }

    /// Resolves a term of `kind`; unknown strings get a synthetic id
    /// beyond the dictionary (matching nothing) and are recorded.
    pub fn term(&mut self, kind: TermKind, text: &str) -> TermId {
        if let Some(id) = self.store.dict().get(kind, text) {
            return id;
        }
        if let Some((id, _)) = self
            .unknown_terms
            .iter()
            .find(|(id, t)| id.kind() == kind && t == text)
        {
            return *id;
        }
        let index = self.store.dict().len_of(kind) as u32 + self.unknown_counter;
        self.unknown_counter += 1;
        let id = TermId::new(kind, index);
        self.unknown_terms.push((id, text.to_string()));
        id
    }

    /// Resolves a resource term.
    pub fn resource(&mut self, name: &str) -> TermId {
        self.term(TermKind::Resource, name)
    }

    /// Resolves a token term.
    pub fn token(&mut self, phrase: &str) -> TermId {
        self.term(TermKind::Token, phrase)
    }

    /// Resolves a literal term.
    pub fn literal(&mut self, value: &str) -> TermId {
        self.term(TermKind::Literal, value)
    }

    /// Adds a raw pattern.
    pub fn pattern(mut self, s: QTerm, p: QTerm, o: QTerm) -> Self {
        self.patterns.push(QPattern::new(s, p, o));
        self
    }

    /// Adds `?s predicate object` (variable, resource, resource).
    pub fn pattern_v_r_r(mut self, s: &str, p: &str, o: &str) -> Self {
        let sv = QTerm::Var(self.var(s));
        let pt = QTerm::Term(self.resource(p));
        let ot = QTerm::Term(self.resource(o));
        self.pattern(sv, pt, ot)
    }

    /// Adds `subject predicate ?o` (resource, resource, variable).
    pub fn pattern_r_r_v(mut self, s: &str, p: &str, o: &str) -> Self {
        let st = QTerm::Term(self.resource(s));
        let pt = QTerm::Term(self.resource(p));
        let ov = QTerm::Var(self.var(o));
        self.pattern(st, pt, ov)
    }

    /// Adds `?s predicate ?o` (variable, resource, variable).
    pub fn pattern_v_r_v(mut self, s: &str, p: &str, o: &str) -> Self {
        let sv = QTerm::Var(self.var(s));
        let pt = QTerm::Term(self.resource(p));
        let ov = QTerm::Var(self.var(o));
        self.pattern(sv, pt, ov)
    }

    /// Adds `subject 'token predicate' ?o`.
    pub fn pattern_r_t_v(mut self, s: &str, p: &str, o: &str) -> Self {
        let st = QTerm::Term(self.resource(s));
        let pt = QTerm::Term(self.token(p));
        let ov = QTerm::Var(self.var(o));
        self.pattern(st, pt, ov)
    }

    /// Sets projection variables.
    pub fn project(mut self, names: &[&str]) -> Self {
        self.projection = names.iter().map(|n| self.var(n)).collect();
        self
    }

    /// Sets the result limit.
    pub fn limit(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Finalizes the query.
    pub fn build(self) -> Query {
        Query {
            patterns: self.patterns,
            projection: self.projection,
            k: self.k,
            var_names: self.var_names,
            unknown_terms: self.unknown_terms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::XkgBuilder;

    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        b.add_kg_resources("Ulm", "locatedIn", "Germany");
        b.build()
    }

    #[test]
    fn builder_interns_variables_once() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .pattern_v_r_v("x", "locatedIn", "y")
            .build();
        assert_eq!(q.vars().len(), 2);
        assert_eq!(q.patterns[0].s, q.patterns[1].s);
    }

    #[test]
    fn unknown_terms_get_out_of_dict_ids() {
        let store = store();
        let mut b = QueryBuilder::new(&store);
        let id = b.resource("NoSuchEntity");
        assert!(store.dict().resolve(id).is_none());
        let q = b.build();
        assert_eq!(q.unknown_terms.len(), 1);
        assert_eq!(q.unknown_terms[0].1, "NoSuchEntity");
    }

    #[test]
    fn unknown_terms_are_interned_once() {
        let store = store();
        let mut b = QueryBuilder::new(&store);
        let a = b.resource("Ghost");
        let c = b.resource("Ghost");
        assert_eq!(a, c);
        assert_eq!(b.build().unknown_terms.len(), 1);
    }

    #[test]
    fn effective_projection_defaults_to_all_vars() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "y")
            .build();
        assert_eq!(q.effective_projection().len(), 2);
        let q2 = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "bornIn", "y")
            .project(&["x"])
            .build();
        assert_eq!(q2.effective_projection().len(), 1);
    }

    #[test]
    fn display_renders_paper_notation() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .build();
        assert_eq!(q.display(&store), "?x bornIn Ulm");
    }

    #[test]
    fn display_marks_unknown_terms() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Atlantis")
            .build();
        assert!(q.display(&store).contains("Atlantis"));
    }
}
