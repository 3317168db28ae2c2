//! Text syntax for extended triple-pattern queries.
//!
//! The grammar mirrors the paper's notation (Figures 2 and 5):
//!
//! ```text
//! query    := [ "SELECT" var+ "WHERE"? ] pattern ( ("." | ";") pattern )* [ "LIMIT" int ]
//! pattern  := term term term
//! term     := "?" name                 — variable
//!           | "'" phrase "'"           — token (or literal if numeric)
//!           | '"' phrase '"'           — same
//!           | bareword                 — resource
//! ```
//!
//! Examples:
//!
//! ```text
//! ?x bornIn Germany
//! AlbertEinstein affiliation ?x . ?x member IvyLeague
//! SELECT ?y AlbertEinstein 'won nobel for' ?y LIMIT 5
//! ```

use std::fmt;

use trinit_relax::QTerm;
use trinit_xkg::{TermKind, XkgStore};

use crate::ast::{Query, QueryBuilder};
use crate::exec::drive::variable_space;

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(message: impl Into<String>) -> ParseError {
    ParseError {
        message: message.into(),
    }
}

/// Lexer token.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lex {
    Word(String),
    Var(String),
    Quoted(String),
    Dot,
}

fn lex(input: &str) -> Result<Vec<Lex>, ParseError> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '.' | ';' => {
                chars.next();
                out.push(Lex::Dot);
            }
            '?' => {
                chars.next();
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(err("expected variable name after '?'"));
                }
                out.push(Lex::Var(name));
            }
            '\'' | '"' => {
                let quote = c;
                chars.next();
                let mut phrase = String::new();
                loop {
                    match chars.next() {
                        Some(c) if c == quote => break,
                        Some(c) => phrase.push(c),
                        None => return Err(err("unterminated quoted phrase")),
                    }
                }
                out.push(Lex::Quoted(phrase));
            }
            _ => {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '.' || c == ';' || c == '\'' || c == '"' {
                        break;
                    }
                    word.push(c);
                    chars.next();
                }
                out.push(Lex::Word(word));
            }
        }
    }
    Ok(out)
}

/// True if a quoted phrase should be treated as a literal value.
fn is_literal_phrase(phrase: &str) -> bool {
    !phrase.is_empty()
        && phrase
            .chars()
            .all(|c| c.is_ascii_digit() || c == '-' || c == '.' || c == ',' || c == ':')
        && phrase.chars().any(|c| c.is_ascii_digit())
}

/// Parses a query against a store's vocabulary.
///
/// Terms absent from the store are accepted (they match nothing but are
/// kept for display and suggestion — see
/// [`Query::unknown_terms`]).
pub fn parse(store: &XkgStore, input: &str) -> Result<Query, ParseError> {
    let tokens = lex(input)?;
    let mut builder = QueryBuilder::new(store);
    let mut pos = 0;

    // Optional SELECT clause.
    let mut projection: Vec<String> = Vec::new();
    if matches!(tokens.first(), Some(Lex::Word(w)) if w.eq_ignore_ascii_case("select")) {
        pos += 1;
        while let Some(Lex::Var(name)) = tokens.get(pos) {
            projection.push(name.clone());
            pos += 1;
        }
        if projection.is_empty() {
            return Err(err("SELECT requires at least one variable"));
        }
        if matches!(tokens.get(pos), Some(Lex::Word(w)) if w.eq_ignore_ascii_case("where")) {
            pos += 1;
        }
    }

    // Optional trailing LIMIT.
    let mut limit = 10usize;
    let mut end = tokens.len();
    if end >= 2 {
        if let (Some(Lex::Word(kw)), Some(Lex::Word(n))) = (tokens.get(end - 2), tokens.get(end - 1))
        {
            if kw.eq_ignore_ascii_case("limit") {
                limit = n
                    .parse()
                    .map_err(|_| err(format!("invalid LIMIT value {n:?}")))?;
                end -= 2;
            }
        }
    }

    // Triple patterns.
    let mut slots: Vec<QTerm> = Vec::new();
    let mut patterns = 0usize;
    while pos < end {
        match &tokens[pos] {
            Lex::Dot => {
                if !slots.is_empty() {
                    return Err(err("pattern separator inside a triple pattern"));
                }
                pos += 1;
                continue;
            }
            Lex::Var(name) => {
                let v = builder.try_var(name).ok_or_else(too_many_variables)?;
                slots.push(QTerm::Var(v));
                pos += 1;
            }
            Lex::Quoted(phrase) => {
                let kind = if is_literal_phrase(phrase) {
                    TermKind::Literal
                } else {
                    TermKind::Token
                };
                let id = builder.term(kind, phrase);
                slots.push(QTerm::Term(id));
                pos += 1;
            }
            Lex::Word(word) => {
                let id = builder.resource(word);
                slots.push(QTerm::Term(id));
                pos += 1;
            }
        }
        if slots.len() == 3 {
            let (o, p, s) = (
                slots.pop().expect("three slots"),
                slots.pop().expect("two slots"),
                slots.pop().expect("one slot"),
            );
            builder = builder.pattern(s, p, o);
            patterns += 1;
        }
    }
    if !slots.is_empty() {
        return Err(err(format!(
            "incomplete triple pattern: {} trailing term(s)",
            slots.len()
        )));
    }
    if patterns == 0 {
        return Err(err("query has no triple patterns"));
    }

    for name in &projection {
        builder.try_var(name).ok_or_else(too_many_variables)?;
    }
    let proj_refs: Vec<&str> = projection.iter().map(String::as_str).collect();
    if !proj_refs.is_empty() {
        builder = builder.project(&proj_refs);
    }
    let query = builder.limit(limit).build();
    if variable_space(&query.patterns).is_none() {
        return Err(err(format!(
            "query too large: {} patterns over {} variables leave no room for the \
             relaxations' fresh variables",
            query.patterns.len(),
            query.var_names.len()
        )));
    }
    Ok(query)
}

fn too_many_variables() -> ParseError {
    err("more than 65536 distinct variables")
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::XkgBuilder;

    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        b.add_kg_resources("AlbertEinstein", "affiliation", "IAS");
        b.add_kg_resources("PrincetonUniversity", "member", "IvyLeague");
        let s = b.dict_mut().resource("AlbertEinstein");
        let p = b.dict_mut().token("won nobel for");
        let o = b.dict_mut().token("photoelectric effect");
        let src = b.intern_source("d");
        b.add_extracted(s, p, o, 0.8, src);
        b.build()
    }

    #[test]
    fn parses_user_a_query() {
        let store = store();
        let q = parse(&store, "?x bornIn Germany").unwrap();
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.vars().len(), 1);
        assert_eq!(q.var_name(q.vars()[0]), "x");
        // Germany is not in this store — recorded as unknown.
        assert_eq!(q.unknown_terms.len(), 1);
    }

    #[test]
    fn parses_multi_pattern_join() {
        let store = store();
        let q = parse(
            &store,
            "AlbertEinstein affiliation ?x . ?x member IvyLeague",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
        assert_eq!(q.vars().len(), 1);
    }

    #[test]
    fn semicolon_separator_works() {
        let store = store();
        let q = parse(&store, "?x bornIn Ulm ; ?x affiliation ?y").unwrap();
        assert_eq!(q.patterns.len(), 2);
    }

    #[test]
    fn parses_token_patterns() {
        let store = store();
        let q = parse(&store, "AlbertEinstein 'won nobel for' ?y").unwrap();
        assert_eq!(q.patterns.len(), 1);
        let p = q.patterns[0].p.term().unwrap();
        assert!(p.is_token());
        assert!(q.unknown_terms.is_empty());
    }

    #[test]
    fn quoted_numeric_is_literal() {
        let store = store();
        let q = parse(&store, "?x bornOn '1879-03-14'").unwrap();
        let o = q.patterns[0].o.term().unwrap();
        assert!(o.is_literal());
    }

    #[test]
    fn select_and_limit() {
        let store = store();
        let q = parse(
            &store,
            "SELECT ?y WHERE AlbertEinstein 'won nobel for' ?y LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.k, 5);
        assert_eq!(q.projection.len(), 1);
    }

    #[test]
    fn select_without_where() {
        // Without WHERE, the projection list ends at the first non-variable
        // token (patterns starting with a variable need the WHERE keyword).
        let store = store();
        let q = parse(&store, "SELECT ?y AlbertEinstein 'won nobel for' ?y").unwrap();
        assert_eq!(q.projection.len(), 1);
        assert_eq!(q.patterns.len(), 1);
    }

    #[test]
    fn error_on_incomplete_pattern() {
        let store = store();
        let e = parse(&store, "?x bornIn").unwrap_err();
        assert!(e.message.contains("incomplete"));
    }

    #[test]
    fn error_on_empty_query() {
        let store = store();
        assert!(parse(&store, "").is_err());
        assert!(parse(&store, "   ").is_err());
    }

    #[test]
    fn error_on_unterminated_quote() {
        let store = store();
        assert!(parse(&store, "?x 'oops").is_err());
    }

    #[test]
    fn error_on_bad_limit() {
        let store = store();
        assert!(parse(&store, "?x bornIn Ulm LIMIT abc").is_err());
    }

    #[test]
    fn double_quotes_work() {
        let store = store();
        let q = parse(&store, "AlbertEinstein \"won nobel for\" ?y").unwrap();
        assert!(q.patterns[0].p.term().unwrap().is_token());
    }

    /// `n` patterns `?a{i} bornIn ?b{i}`: `2n` distinct variables.
    fn wide_query(n: usize) -> String {
        (0..n)
            .map(|i| format!("?a{i} bornIn ?b{i}"))
            .collect::<Vec<_>>()
            .join(" . ")
    }

    #[test]
    fn more_variables_than_var_ids_is_a_parse_error() {
        let e = parse(&store(), &wide_query(33_000)).unwrap_err();
        assert!(e.message.contains("distinct variables"), "{e}");
        let projected: String = (0..65_600).map(|i| format!("?s{i} ")).collect();
        let e = parse(&store(), &format!("SELECT {projected} WHERE ?x bornIn ?y")).unwrap_err();
        assert!(e.message.contains("distinct variables"), "{e}");
    }

    #[test]
    fn a_query_whose_fresh_variables_cannot_be_numbered_is_a_parse_error() {
        // 2n own variables and three fresh ones per pattern: 5n ids.
        // 32,750 patterns (65,500 variables) used to parse and then
        // overflow the fresh-variable base in the engine.
        for n in [13_108, 32_750] {
            let e = parse(&store(), &wide_query(n)).unwrap_err();
            assert!(e.message.contains("too large"), "{e}");
        }
        let q = parse(&store(), &wide_query(13_107)).unwrap();
        assert_eq!(q.var_names.len(), 26_214);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any token sequence parses or is refused with a typed error —
        /// never a panic — and what parses runs.
        #[test]
        fn random_token_sequences_parse_or_fail_typed(
            tokens in proptest::collection::vec((0usize..FUZZ_TOKENS.len(), proptest::bool::ANY), 0..14),
        ) {
            let text: String = tokens
                .iter()
                .map(|&(t, spaced)| format!("{}{}", FUZZ_TOKENS[t], if spaced { " " } else { "" }))
                .collect();
            let store = store();
            if let Ok(q) = parse(&store, &text) {
                assert!(!q.patterns.is_empty(), "{text:?}");
                for v in q.vars().into_iter().chain(q.projection.iter().copied()) {
                    assert!(usize::from(v.0) < q.var_names.len(), "{text:?}");
                }
                let rules = trinit_relax::RuleSet::new();
                let cfg = crate::TopkConfig::default();
                let (answers, _) = crate::exec::topk::run(&store, &q, &rules, &cfg);
                assert!(answers.len() <= q.k.max(1), "{text:?}");
            }
        }
    }

    #[rustfmt::skip]
    const FUZZ_TOKENS: &[&str] = &[
        "?x", "?y", "?", "?é_1", "'won nobel for'", "'12'", "\"3.5\"", "'", "\"", "''",
        "bornIn", "AlbertEinstein", "Ulm", ".", ";", "..", "SELECT", "select", "WHERE",
        "LIMIT", "limit", "10", "0", "-1", "99999999999999999999", "x?y", "Émile", "\t",
    ];
}
