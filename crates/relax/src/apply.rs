//! Rule application: unification and query rewriting.
//!
//! Applying a rule unifies its LHS templates with a subset of the query's
//! triple patterns and replaces them with the instantiated RHS. Rule
//! variables bind consistently to whatever the query holds (constants or
//! query variables); RHS-only rule variables become fresh query variables.
//!
//! [`walk`] explores *sequences* of relaxations breadth-first with
//! multiplicative weights, keeping the maximum weight per form — the
//! paper's answer scoring, where "the score of an answer \[is\] the
//! maximal one obtained through any such sequence" (§4). It is the one
//! derivation walk, with two step functions: [`expand`]'s general
//! matcher (full expansion, and the top-k engine's structural variants)
//! and the compiled single-pattern rules of the top-k engine's
//! relaxation tables ([`crate::rule::SlotRewrite`]).

use std::collections::HashMap;
use std::iter::{Chain, Copied};

use trinit_xkg::{SlotPattern, TermId, XkgStore};

use crate::pattern::{var_count, QPattern, QTerm, VarId};
use crate::rule::{RVar, Rule, RuleId, TTerm, Template};
use crate::ruleset::RuleSet;

/// Ground-fact existence oracle backing rule *data conditions*: an LHS
/// template absent from the query licenses a rule when its ground
/// instantiation is asserted in the data. A monolithic [`XkgStore`] is
/// the canonical oracle; a sharded store implements the same check by
/// probing the subject's shard (subject-hash partitioning guarantees a
/// ground triple can only live there).
pub trait ConditionOracle {
    /// True if the ground triple `(s, p, o)` is asserted.
    fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool;
}

impl ConditionOracle for XkgStore {
    #[inline]
    fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.count(&SlotPattern::new(Some(s), Some(p), Some(o))) > 0
    }
}

/// A (possibly multi-step) relaxed form of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedQuery {
    /// The rewritten query patterns.
    pub patterns: Vec<QPattern>,
    /// Product of the applied rules' weights (1.0 for the original).
    pub weight: f64,
    /// The sequence of rules applied, in order.
    pub trace: Vec<RuleId>,
}

type Bindings = HashMap<RVar, QTerm>;

/// Unifies one template slot against one query slot under `bindings`.
fn unify_slot(t: TTerm, q: QTerm, bindings: &mut Bindings) -> bool {
    match t {
        TTerm::Const(c) => q == QTerm::Term(c),
        TTerm::Var(v) => match bindings.get(&v) {
            Some(&bound) => bound == q,
            None => {
                bindings.insert(v, q);
                true
            }
        },
    }
}

/// True unless a constant slot of `t` differs from `q`'s: what
/// unification needs of the constants alone, tested without cloning
/// anything.
fn fits(t: &Template, q: &QPattern) -> bool {
    let clash = |t: TTerm, q: QTerm| matches!(t, TTerm::Const(c) if q != QTerm::Term(c));
    !(clash(t.s, q.s) || clash(t.p, q.p) || clash(t.o, q.o))
}

/// Unifies a template against a query pattern, extending a copy of
/// `bindings`. Constant slots are tested first ([`fits`]), so a trial on
/// the wrong predicate fails without cloning anything (unification is
/// conjunctive: the order changes no result).
fn unify_pattern(t: &Template, q: &QPattern, bindings: &Bindings) -> Option<Bindings> {
    if !fits(t, q) {
        return None;
    }
    let mut trial = bindings.clone();
    [(t.s, q.s), (t.p, q.p), (t.o, q.o)]
        .into_iter()
        .all(|(t, q)| unify_slot(t, q, &mut trial))
        .then_some(trial)
}

/// Instantiates one RHS slot under bindings and the fresh-variable map.
fn instantiate_slot(t: TTerm, bindings: &Bindings, fresh: &HashMap<RVar, VarId>) -> QTerm {
    match t {
        TTerm::Const(c) => QTerm::Term(c),
        TTerm::Var(v) => bindings
            .get(&v)
            .copied()
            .unwrap_or_else(|| QTerm::Var(fresh[&v])),
    }
}

/// Recursively assigns each LHS template to a distinct query pattern, or
/// (when a store is available) defers it as a *data condition*: an LHS
/// pattern absent from the query may still license the rule if its ground
/// instantiation holds in the store. This lets the paper's rule 1 fire on
/// user A's plain `?x bornIn Germany` — `Germany type country` is not in
/// the query but is a KG fact.
fn search(
    lhs: &[Template],
    query: &[QPattern],
    oracle: Option<&dyn ConditionOracle>,
    used: &mut Vec<usize>,
    conditions: &mut Vec<Template>,
    bindings: &mut Bindings,
    out: &mut Vec<(Vec<usize>, Bindings)>,
) {
    let Some(template) = lhs.first() else {
        // At least one template must consume an actual query pattern, and
        // every deferred condition must hold as a ground fact.
        if used.is_empty() {
            return;
        }
        if let Some(oracle) = oracle {
            for cond in conditions.iter() {
                if !condition_holds(cond, bindings, oracle) {
                    return;
                }
            }
        }
        out.push((used.clone(), bindings.clone()));
        return;
    };
    for (i, q) in query.iter().enumerate() {
        if used.contains(&i) {
            continue;
        }
        if let Some(mut trial) = unify_pattern(template, q, bindings) {
            used.push(i);
            search(&lhs[1..], query, oracle, used, conditions, &mut trial, out);
            used.pop();
        }
    }
    if oracle.is_some() {
        // Condition branch: check this template against the data instead.
        conditions.push(*template);
        search(&lhs[1..], query, oracle, used, conditions, bindings, out);
        conditions.pop();
    }
}

/// True if `template`, instantiated under `bindings`, is a ground triple
/// asserted in the store.
fn condition_holds(template: &Template, bindings: &Bindings, oracle: &dyn ConditionOracle) -> bool {
    let ground = |t: TTerm| -> Option<trinit_xkg::TermId> {
        match t {
            TTerm::Const(c) => Some(c),
            TTerm::Var(v) => match bindings.get(&v) {
                Some(QTerm::Term(id)) => Some(*id),
                _ => None,
            },
        }
    };
    let (Some(s), Some(p), Some(o)) = (ground(template.s), ground(template.p), ground(template.o))
    else {
        return false;
    };
    oracle.ground_holds(s, p, o)
}

/// Applies `rule` to `query` in every possible way, returning the distinct
/// rewritten queries. Every LHS template unifies with a query pattern;
/// with an `oracle`, a template may instead be verified as a ground
/// condition through it — the whole store for a monolithic engine, every
/// slice for a partitioned one, where "asserted in the data" spans them
/// all.
pub fn apply_rule(
    query: &[QPattern],
    rule: &Rule,
    oracle: Option<&dyn ConditionOracle>,
) -> Vec<Vec<QPattern>> {
    let rewritings = rewrite(query, rule, oracle, var_count(query));
    rewritings.into_iter().map(|(_, p)| p).collect()
}

/// `rule`'s rewritings of `query`, each with its [`canonical_key`] over
/// `key_vars` original variables, deduplicated by that key: each key is
/// computed once, and [`walk`] reuses it.
fn rewrite(
    query: &[QPattern],
    rule: &Rule,
    oracle: Option<&dyn ConditionOracle>,
    key_vars: u32,
) -> Vec<(Vec<QPattern>, Vec<QPattern>)> {
    // Some template must consume a query pattern: a rule none of whose
    // templates fits any pattern has no match, and is refused before the
    // search allocates.
    if !rule.lhs.iter().any(|t| query.iter().any(|q| fits(t, q))) {
        return Vec::new();
    }
    let mut matches = Vec::new();
    search(
        &rule.lhs,
        query,
        oracle,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut Bindings::new(),
        &mut matches,
    );

    // Fresh query variables for RHS-only rule variables, numbered after
    // the query's own, the same for every match. When they do not fit
    // `VarId`, the rule yields no rewriting.
    let Some(fresh) = rule
        .fresh_vars()
        .into_iter()
        .zip(var_count(query)..)
        .map(|(v, id)| Some((v, VarId(u16::try_from(id).ok()?))))
        .collect::<Option<HashMap<_, _>>>()
    else {
        return Vec::new();
    };
    let mut out: Vec<(Vec<QPattern>, Vec<QPattern>)> = Vec::new();
    for (used, bindings) in matches {
        let mut patterns: Vec<QPattern> = query
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, p)| *p)
            .collect();
        for template in &rule.rhs {
            patterns.push(QPattern::new(
                instantiate_slot(template.s, &bindings, &fresh),
                instantiate_slot(template.p, &bindings, &fresh),
                instantiate_slot(template.o, &bindings, &fresh),
            ));
        }
        let key = canonical_key(&patterns, key_vars);
        if !out.iter().any(|(k, _)| *k == key) {
            out.push((key, patterns));
        }
    }
    out
}

/// Canonical form of a rewritten query for deduplication: fresh variables
/// (ids ≥ `original_vars`) are renamed in first-occurrence order over the
/// sorted pattern list, making alpha-equivalent rewritings identical.
/// Original query variables keep their identity (they carry projection
/// semantics).
///
/// `original_vars` counts the query's own variables, so it reaches
/// 65,536 when the query uses the last [`VarId`].
pub fn canonical_key(patterns: &[QPattern], original_vars: u32) -> Vec<QPattern> {
    let mut key = patterns.to_vec();
    key.sort_unstable();
    // The fresh variables in first-occurrence order.
    let mut fresh: Vec<VarId> = Vec::new();
    let mut map_slot = |t: QTerm| match t {
        QTerm::Var(v) if u32::from(v.0) >= original_vars => {
            let at = fresh.iter().position(|&u| u == v).unwrap_or_else(|| {
                fresh.push(v);
                fresh.len() - 1
            });
            // Renaming is dense from `original_vars`, and at most
            // 65,536 − `original_vars` distinct ids lie at or above it,
            // so the new id always fits.
            QTerm::Var(u16::try_from(original_vars as usize + at).map_or(v, VarId))
        }
        other => other,
    };
    for p in &mut key {
        *p = QPattern::new(map_slot(p.s), map_slot(p.p), map_slot(p.o));
    }
    key.sort_unstable();
    key
}

/// Options for [`expand`].
#[derive(Debug, Clone)]
pub struct ExpandOptions {
    /// Maximum number of rule applications in a sequence.
    pub max_depth: usize,
    /// Rewritings with combined weight below this are pruned.
    pub min_weight: f64,
    /// Hard cap on the number of rewritings returned (including the
    /// original query); the heaviest are kept.
    pub max_rewritings: usize,
}

impl Default for ExpandOptions {
    fn default() -> Self {
        ExpandOptions {
            max_depth: 2,
            min_weight: 0.05,
            max_rewritings: 256,
        }
    }
}

/// Expands a query into the relaxed forms reachable within
/// `opts.max_depth` applications of the rules `candidates` names — every
/// rule of `rules` for full expansion, [`RuleSet::structural_rules`] for
/// the top-k engine's structural variants. With an `oracle`, rules may
/// fire on data conditions (see [`apply_rule`]).
///
/// It is [`walk`] stepping with the general matcher, forms keyed by
/// [`canonical_key`]. The result starts with the query itself; the rest
/// are sorted by weight, then trace length, then patterns.
pub fn expand(
    query: &[QPattern],
    rules: &RuleSet,
    candidates: &[RuleId],
    opts: &ExpandOptions,
    oracle: Option<&dyn ConditionOracle>,
) -> Vec<RelaxedQuery> {
    let key_vars = var_count(query);
    let origin = (canonical_key(query, key_vars), query.to_vec());
    let rules_of = |_: &Vec<QPattern>| candidates.iter().map(|&id| (id, rules.get(id)));
    let step = |patterns: &Vec<QPattern>, rule| rewrite(patterns, rule, oracle, key_vars);
    let (entries, arena) = walk(origin, rules, opts, rules_of, step);
    let mut out: Vec<RelaxedQuery> = (entries.into_iter())
        .map(|d| RelaxedQuery {
            trace: d.trace(&arena).collect(),
            patterns: d.form,
            weight: d.weight,
        })
        .collect();
    out[1..].sort_unstable_by(|a, b| {
        b.weight
            .total_cmp(&a.weight)
            .then(a.trace.len().cmp(&b.trace.len()))
            .then_with(|| a.patterns.cmp(&b.patterns))
    });
    out.truncate(opts.max_rewritings);
    out
}

/// One derivation a [`walk`] keeps: a form, its weight and its rules.
#[derive(Debug)]
pub struct Derivation<K, F> {
    /// The form's key; `None` once a heavier derivation took it.
    key: Option<K>,
    /// The derived form.
    pub form: F,
    /// The product of the applied rules' weights.
    pub weight: f64,
    /// The trace this one extends, as `(start, end)` in the walk's arena,
    /// and the rule that extended it; the origin has neither.
    prefix: (u32, u32),
    last: Option<RuleId>,
}

impl<K, F> Derivation<K, F> {
    /// The rules applied, read through the arena the walk returned.
    pub fn trace<'a>(&self, arena: &'a [RuleId]) -> Trace<'a> {
        arena[self.prefix.0 as usize..self.prefix.1 as usize].iter().copied().chain(self.last)
    }
}

/// A derivation's rules, first applied first.
pub type Trace<'a> = Chain<Copied<std::slice::Iter<'a, RuleId>>, std::option::IntoIter<RuleId>>;

/// The one breadth-first derivation walk: the forms reachable from the
/// origin `(key, form)` within `opts.max_depth` steps, each at its
/// heaviest derivation, none under `opts.min_weight`. `candidates` names
/// the rules that may rewrite a form, each with what `step` needs to
/// apply it; `step` gives the rewritings with their keys.
///
/// A heavier derivation of a form is a new entry that takes the key.
/// Entries never change, so each round extends the last round's entries
/// at the weight they were found with, and the depth bound holds. Past
/// `opts.max_rewritings` the lightest go (the longer, then the later
/// found, first among equals), never the origin. Returns the kept
/// derivations in the order found and the arena their traces extend.
pub fn walk<K: PartialEq, F, C, I, R>(
    (key, form): (K, F),
    rules: &RuleSet,
    opts: &ExpandOptions,
    candidates: impl Fn(&F) -> I,
    mut step: impl FnMut(&F, C) -> R,
) -> (Vec<Derivation<K, F>>, Vec<RuleId>)
where
    I: IntoIterator<Item = (RuleId, C)>,
    R: IntoIterator<Item = (K, F)>,
{
    let origin = Derivation { key: Some(key), form, weight: 1.0, prefix: (0, 0), last: None };
    let (mut entries, mut arena) = (vec![origin], Vec::new());
    let mut frontier = 0..1;
    for _ in 0..opts.max_depth {
        let round = entries.len();
        for idx in frontier {
            // The trace this entry's rewritings extend.
            let ((start, end), at) = (entries[idx].prefix, arena.len() as u32);
            arena.extend_from_within(start as usize..end as usize);
            arena.extend(entries[idx].last);
            let prefix = (at, arena.len() as u32);
            for (rule, c) in candidates(&entries[idx].form) {
                let weight = entries[idx].weight * rules.get(rule).weight;
                if weight < opts.min_weight {
                    continue;
                }
                for (key, form) in step(&entries[idx].form, c) {
                    match entries.iter().position(|d| d.key.as_ref() == Some(&key)) {
                        Some(i) if weight <= entries[i].weight => continue,
                        Some(i) => entries[i].key = None,
                        None => {}
                    }
                    let (key, last) = (Some(key), Some(rule));
                    entries.push(Derivation { key, form, weight, prefix, last });
                }
            }
        }
        frontier = round..entries.len();
        if frontier.is_empty() {
            break;
        }
    }
    entries.retain(|d| d.key.is_some());
    // Rule weights lie in [0, 1], so nothing superseded the origin.
    while entries.len() > opts.max_rewritings.max(1) {
        let depth = |d: &Derivation<K, F>| d.prefix.1 - d.prefix.0;
        let lighter = |a: &Derivation<K, F>, b: &Derivation<K, F>| {
            b.weight.total_cmp(&a.weight).then(depth(a).cmp(&depth(b)))
        };
        let lightest = (1..entries.len()).max_by(|&a, &b| lighter(&entries[a], &entries[b]));
        entries.remove(lightest.unwrap_or(1));
    }
    (entries, arena)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleProvenance;
    use trinit_xkg::{TermId, TermKind};

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    fn var(i: u16) -> QTerm {
        QTerm::Var(VarId(i))
    }

    fn term(i: u32) -> QTerm {
        QTerm::Term(tid(i))
    }

    /// Every rule of `rules`: full expansion's candidates.
    fn every(rules: &RuleSet) -> Vec<RuleId> {
        rules.iter().map(|(id, _)| id).collect()
    }

    /// Figure 5's shape, `?x p1 ?y ⇒ ?x p1 ?f ; ?f p2 ?y`, as a
    /// structural rule of weight `w`.
    fn figure5(p1: u32, p2: u32, w: f64) -> Rule {
        use crate::rule::{RVar, TTerm, Template};
        let (x, y, f) = (
            TTerm::Var(RVar(0)),
            TTerm::Var(RVar(1)),
            TTerm::Var(RVar(2)),
        );
        Rule::structural(
            "figure5",
            vec![Template::new(x, TTerm::Const(tid(p1)), y)],
            vec![
                Template::new(x, TTerm::Const(tid(p1)), f),
                Template::new(f, TTerm::Const(tid(p2)), y),
            ],
            w,
            RuleProvenance::UserDefined,
        )
    }

    #[test]
    fn predicate_rewrite_applies() {
        // Query: ?x p1 Ulm
        let query = vec![QPattern::new(var(0), term(1), term(9))];
        let rule = Rule::predicate_rewrite("r", tid(1), tid(2), 0.8, RuleProvenance::Paraphrase);
        let rewritings = apply_rule(&query, &rule, None);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(rewritings[0], vec![QPattern::new(var(0), term(2), term(9))]);
    }

    #[test]
    fn inversion_swaps_query_arguments() {
        // AlbertEinstein hasAdvisor ?x  →  ?x hasStudent AlbertEinstein
        let query = vec![QPattern::new(term(7), term(1), var(0))];
        let rule = Rule::inversion("inv", tid(1), tid(2), 1.0, RuleProvenance::MinedInversion);
        let rewritings = apply_rule(&query, &rule, None);
        assert_eq!(rewritings.len(), 1);
        assert_eq!(rewritings[0], vec![QPattern::new(var(0), term(2), term(7))]);
    }

    #[test]
    fn rule_without_match_produces_nothing() {
        let query = vec![QPattern::new(var(0), term(5), var(1))];
        let rule = Rule::predicate_rewrite("r", tid(1), tid(2), 0.8, RuleProvenance::Paraphrase);
        assert!(apply_rule(&query, &rule, None).is_empty());
    }

    #[test]
    fn structural_rule_introduces_fresh_variable() {
        // Paper rule 1: ?x bornIn ?y ; ?y type country →
        //               ?x bornIn ?z ; ?z type city ; ?z locatedIn ?y
        use crate::rule::{RVar, TTerm, Template};
        let (x, y, z) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
        let born = TTerm::Const(tid(1));
        let typ = TTerm::Const(tid(2));
        let country = TTerm::Const(tid(3));
        let city = TTerm::Const(tid(4));
        let located = TTerm::Const(tid(5));
        let rule = Rule::structural(
            "rule1",
            vec![Template::new(x, born, y), Template::new(y, typ, country)],
            vec![
                Template::new(x, born, z),
                Template::new(z, typ, city),
                Template::new(z, located, y),
            ],
            1.0,
            RuleProvenance::Ontology,
        );
        // Query: ?a bornIn Germany ; Germany type country
        // (?y unifies with the constant Germany.)
        let germany = term(9);
        let query = vec![
            QPattern::new(var(0), term(1), germany),
            QPattern::new(germany, term(2), term(3)),
        ];
        let rewritings = apply_rule(&query, &rule, None);
        assert_eq!(rewritings.len(), 1);
        let pats = &rewritings[0];
        assert_eq!(pats.len(), 3);
        // Fresh variable ?v1 (query had max var 0).
        assert!(pats.iter().any(|p| p.s == var(0) && p.o == var(1)));
        assert!(pats.iter().any(|p| p.s == var(1) && p.o == term(4)));
        assert!(pats.iter().any(|p| p.s == var(1) && p.o == germany));
    }

    #[test]
    fn expand_includes_original_first() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "r",
            tid(1),
            tid(2),
            0.8,
            RuleProvenance::Paraphrase,
        ));
        let out = expand(
            &query,
            &rules,
            &every(&rules),
            &ExpandOptions::default(),
            None,
        );
        assert_eq!(out.len(), 2);
        assert!(out[0].trace.is_empty());
        assert_eq!(out[0].weight, 1.0);
        assert_eq!(out[1].weight, 0.8);
    }

    #[test]
    fn expand_chains_rules_with_multiplied_weights() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "a",
            tid(1),
            tid(2),
            0.8,
            RuleProvenance::Paraphrase,
        ));
        rules.add(Rule::predicate_rewrite(
            "b",
            tid(2),
            tid(3),
            0.5,
            RuleProvenance::Paraphrase,
        ));
        let out = expand(
            &query,
            &rules,
            &every(&rules),
            &ExpandOptions::default(),
            None,
        );
        let chained = out
            .iter()
            .find(|r| r.trace.len() == 2)
            .expect("two-step rewriting");
        assert!((chained.weight - 0.4).abs() < 1e-9);
    }

    #[test]
    fn expand_keeps_max_weight_per_form() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        // Two routes to p2: direct (0.9) and via p3 (0.5 * 0.5 = 0.25).
        rules.add(Rule::predicate_rewrite(
            "direct",
            tid(1),
            tid(2),
            0.9,
            RuleProvenance::Paraphrase,
        ));
        rules.add(Rule::predicate_rewrite(
            "via1",
            tid(1),
            tid(3),
            0.5,
            RuleProvenance::Paraphrase,
        ));
        rules.add(Rule::predicate_rewrite(
            "via2",
            tid(3),
            tid(2),
            0.5,
            RuleProvenance::Paraphrase,
        ));
        let out = expand(
            &query,
            &rules,
            &every(&rules),
            &ExpandOptions::default(),
            None,
        );
        let to_p2: Vec<&RelaxedQuery> = out
            .iter()
            .filter(|r| r.patterns.len() == 1 && r.patterns[0].p == term(2))
            .collect();
        assert_eq!(to_p2.len(), 1, "alpha-equivalent forms deduplicated");
        assert!((to_p2[0].weight - 0.9).abs() < 1e-9);
    }

    #[test]
    fn expand_respects_min_weight() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "weak",
            tid(1),
            tid(2),
            0.01,
            RuleProvenance::Paraphrase,
        ));
        let out = expand(
            &query,
            &rules,
            &every(&rules),
            &ExpandOptions::default(),
            None,
        );
        assert_eq!(out.len(), 1, "weak rewriting pruned");
    }

    #[test]
    fn expand_depth_zero_is_identity() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "r",
            tid(1),
            tid(2),
            0.9,
            RuleProvenance::Paraphrase,
        ));
        let opts = ExpandOptions {
            max_depth: 0,
            ..Default::default()
        };
        let out = expand(&query, &rules, &every(&rules), &opts, None);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn data_condition_licenses_rule_1_on_plain_query() {
        use crate::rule::{RVar, TTerm, Template};
        use trinit_xkg::XkgBuilder;
        // Store: Germany is a country; Ulm is a city in Germany.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("Germany", "type", "country");
        b.add_kg_resources("Ulm", "type", "city");
        b.add_kg_resources("Ulm", "locatedIn", "Germany");
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        let store = b.build();
        let born = store.resource("bornIn").unwrap();
        let typ = store.resource("type").unwrap();
        let country = store.resource("country").unwrap();
        let city = store.resource("city").unwrap();
        let located = store.resource("locatedIn").unwrap();
        let germany = store.resource("Germany").unwrap();

        let (x, y, z) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
        let rule = Rule::structural(
            "rule1",
            vec![
                Template::new(x, TTerm::Const(born), y),
                Template::new(y, TTerm::Const(typ), TTerm::Const(country)),
            ],
            vec![
                Template::new(x, TTerm::Const(born), z),
                Template::new(z, TTerm::Const(typ), TTerm::Const(city)),
                Template::new(z, TTerm::Const(located), y),
            ],
            1.0,
            RuleProvenance::Ontology,
        );
        // User A's query, with NO type pattern: ?x bornIn Germany.
        let query = vec![QPattern::new(var(0), QTerm::Term(born), QTerm::Term(germany))];
        // Purely syntactic application cannot fire...
        assert!(apply_rule(&query, &rule, None).is_empty());
        // ...but with the store, `Germany type country` holds as a
        // condition and the rule rewrites the query.
        let rewritings = apply_rule(&query, &rule, Some(&store));
        assert_eq!(rewritings.len(), 1);
        assert_eq!(rewritings[0].len(), 3);
    }

    #[test]
    fn unsatisfied_condition_blocks_rule() {
        use crate::rule::{RVar, TTerm, Template};
        use trinit_xkg::XkgBuilder;
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        b.add_kg_resources("Ulm", "type", "city");
        let store = b.build();
        let born = store.resource("bornIn").unwrap();
        let typ = store.resource("type").unwrap();
        let city = store.resource("city").unwrap();
        let ulm = store.resource("Ulm").unwrap();
        let (x, y) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)));
        // Rule requires the object to be typed `country`; Ulm is a city.
        let country_id = trinit_xkg::TermId::new(trinit_xkg::TermKind::Resource, 999);
        let rule = Rule::structural(
            "needs-country",
            vec![
                Template::new(x, TTerm::Const(born), y),
                Template::new(y, TTerm::Const(typ), TTerm::Const(country_id)),
            ],
            vec![Template::new(x, TTerm::Const(city), y)],
            1.0,
            RuleProvenance::Ontology,
        );
        let query = vec![QPattern::new(var(0), QTerm::Term(born), QTerm::Term(ulm))];
        assert!(apply_rule(&query, &rule, Some(&store)).is_empty());
    }

    #[test]
    fn cyclic_rules_terminate() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "fwd",
            tid(1),
            tid(2),
            0.9,
            RuleProvenance::Paraphrase,
        ));
        rules.add(Rule::predicate_rewrite(
            "back",
            tid(2),
            tid(1),
            0.9,
            RuleProvenance::Paraphrase,
        ));
        let opts = ExpandOptions {
            max_depth: 6,
            ..Default::default()
        };
        let out = expand(&query, &rules, &every(&rules), &opts, None);
        // p1 (original, 1.0) and p2 (0.9); round-trips are dominated.
        assert_eq!(out.len(), 2);
    }

    /// Two structural rules that rewrite a query into the same form
    /// leave one form at the heavier weight, with the heavier rule as its
    /// trace, whichever rule comes first.
    #[test]
    fn two_rules_to_one_form_keep_the_heavier_derivation() {
        let query = vec![QPattern::new(var(0), term(1), term(1))];
        let rules: RuleSet = [figure5(1, 2, 0.404), figure5(1, 2, 0.505)]
            .into_iter()
            .collect();
        let opts = ExpandOptions {
            max_depth: 1,
            ..Default::default()
        };
        let out = expand(&query, &rules, rules.structural_rules(), &opts, None);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].weight, 0.505);
        assert_eq!(out[1].trace, vec![RuleId(1)]);
    }

    /// With more forms than the cap, the heaviest are kept: twenty
    /// structural rules weighing 0.10, 0.14, …, 0.86 by id, under a cap
    /// of 16, leave the query and the fifteen heaviest (0.86 down to
    /// 0.30), heaviest first.
    #[test]
    fn forms_over_the_cap_keep_the_heaviest() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let rules: RuleSet = (0..20)
            .map(|i| figure5(1, 100 + i, 0.10 + 0.04 * f64::from(i)))
            .collect();
        let opts = ExpandOptions {
            max_depth: 1,
            min_weight: 0.05,
            max_rewritings: 16,
        };
        let out = expand(&query, &rules, rules.structural_rules(), &opts, None);
        assert_eq!(out.len(), 16);
        assert!(out[0].trace.is_empty());
        let kept: Vec<u32> = out[1..].iter().map(|r| r.trace[0].0).collect();
        assert_eq!(kept, (5..20).rev().collect::<Vec<u32>>());
        assert!(out[1..].windows(2).all(|w| w[0].weight > w[1].weight));
    }

    /// A heavier path found one round later replaces a form's weight and
    /// trace, and the form is extended again from the heavier weight; the
    /// depth bound still counts rule applications along the path.
    #[test]
    fn a_heavier_deeper_path_is_extended_within_the_depth_bound() {
        let query = vec![QPattern::new(var(0), term(1), var(1))];
        let rules: RuleSet = [
            // p1 → p2 via p3 (0.9 · 0.9 = 0.81), or directly (0.3). The
            // second round extends p3, which makes p2 heavier, before p2,
            // which must still be extended at its one-step weight.
            Rule::predicate_rewrite("via", tid(1), tid(3), 0.9, RuleProvenance::Paraphrase),
            Rule::predicate_rewrite("on", tid(3), tid(2), 0.9, RuleProvenance::Paraphrase),
            Rule::predicate_rewrite("direct", tid(1), tid(2), 0.3, RuleProvenance::Paraphrase),
            Rule::predicate_rewrite("then", tid(2), tid(4), 0.5, RuleProvenance::Paraphrase),
        ]
        .into_iter()
        .collect();
        let at = |out: &[RelaxedQuery], p: u32| {
            out.iter()
                .find(|r| r.patterns[0].p == term(p))
                .map(|r| (r.weight, r.trace.clone()))
        };
        for (depth, (want_w4, want_trace4)) in [
            (2, (0.15, vec![RuleId(2), RuleId(3)])),
            (3, (0.405, vec![RuleId(0), RuleId(1), RuleId(3)])),
        ] {
            let opts = ExpandOptions {
                max_depth: depth,
                ..Default::default()
            };
            let out = expand(&query, &rules, &every(&rules), &opts, None);
            let (w2, trace2) = at(&out, 2).expect("p2 reached");
            assert!((w2 - 0.81).abs() < 1e-12);
            assert_eq!(trace2, vec![RuleId(0), RuleId(1)]);
            let (w4, trace4) = at(&out, 4).expect("p4 reached");
            assert!((w4 - want_w4).abs() < 1e-12, "depth {depth}: {w4}");
            assert_eq!(trace4, want_trace4, "depth {depth}");
        }
    }
}
