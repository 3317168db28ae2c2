//! Rule application: unification and query rewriting.
//!
//! Applying a rule unifies its LHS templates with a subset of the query's
//! triple patterns and replaces them with the instantiated RHS. Rule
//! variables bind consistently to whatever the query holds (constants or
//! query variables); RHS-only rule variables become fresh query variables.
//!
//! [`expand`] explores *sequences* of relaxations breadth-first with
//! multiplicative weights, deduplicating alpha-equivalent rewritings and
//! keeping the maximum weight per rewriting — matching the paper's answer
//! scoring, where "the score of an answer \[is\] the maximal one obtained
//! through any such sequence" (§4).

use std::collections::HashMap;

use trinit_xkg::{SlotPattern, TermId, XkgStore};

use crate::pattern::{QPattern, QTerm, VarId};
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

/// One rewriting produced by a single rule application.
#[derive(Debug, Clone, PartialEq)]
pub struct Rewriting {
    /// The rewritten query.
    pub patterns: Vec<QPattern>,
    /// The applied rule's weight.
    pub weight: f64,
    /// The applied rule.
    pub rule: RuleId,
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

/// Unifies a template against a query pattern, extending a copy of
/// `bindings`. Constant slots are tested first, so a trial on the wrong
/// predicate fails without cloning anything (unification is
/// conjunctive: the order changes no result).
fn unify_pattern(t: &Template, q: &QPattern, bindings: &Bindings) -> Option<Bindings> {
    let slots = [(t.s, q.s), (t.p, q.p), (t.o, q.o)];
    let clash = |&(t, q): &(TTerm, QTerm)| matches!(t, TTerm::Const(c) if q != QTerm::Term(c));
    if slots.iter().any(clash) {
        return None;
    }
    let mut trial = bindings.clone();
    slots
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
/// rewritings. Purely syntactic: LHS patterns must all unify with query
/// patterns (no data conditions). See [`apply_rule_with`] for the
/// store-aware variant.
pub fn apply_rule(query: &[QPattern], rule: &Rule, rule_id: RuleId) -> Vec<Rewriting> {
    apply_rule_with(query, rule, rule_id, None)
}

/// Applies `rule` to `query`, optionally allowing unmatched LHS patterns
/// to be verified as ground conditions against `store`.
pub fn apply_rule_with(
    query: &[QPattern],
    rule: &Rule,
    rule_id: RuleId,
    store: Option<&XkgStore>,
) -> Vec<Rewriting> {
    apply_rule_oracle(query, rule, rule_id, store.map(|s| s as &dyn ConditionOracle))
}

/// Applies `rule` to `query`, verifying unmatched LHS patterns as ground
/// conditions through an arbitrary [`ConditionOracle`] — the entry point
/// sharded executors use, where "asserted in the data" spans every shard.
pub fn apply_rule_oracle(
    query: &[QPattern],
    rule: &Rule,
    rule_id: RuleId,
    oracle: Option<&dyn ConditionOracle>,
) -> Vec<Rewriting> {
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

    let next_var = query
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| u32::from(m) + 1);

    let mut out: Vec<Rewriting> = Vec::new();
    for (used, bindings) in matches {
        // Allocate fresh query variables for RHS-only rule variables,
        // numbered after the query's own. They do not fit `VarId` for
        // one match exactly when they fit for none: the rule yields no
        // rewriting.
        let Some(fresh) = rule
            .fresh_vars()
            .into_iter()
            .zip(next_var..)
            .map(|(v, id)| Some((v, VarId(u16::try_from(id).ok()?))))
            .collect::<Option<HashMap<_, _>>>()
        else {
            return Vec::new();
        };
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
        let rewriting = Rewriting {
            patterns,
            weight: rule.weight,
            rule: rule_id,
        };
        if !out
            .iter()
            .any(|r| canonical_key(&r.patterns, next_var) == canonical_key(&rewriting.patterns, next_var))
        {
            out.push(rewriting);
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
    let mut sorted = patterns.to_vec();
    sorted.sort_unstable();
    let mut rename: HashMap<VarId, VarId> = HashMap::new();
    let mut next = original_vars;
    let mut mapped = Vec::with_capacity(sorted.len());
    for p in &sorted {
        let map_slot = |t: QTerm, rename: &mut HashMap<VarId, VarId>, next: &mut u32| match t {
            QTerm::Var(v) if u32::from(v.0) >= original_vars => {
                let nv = *rename.entry(v).or_insert_with(|| {
                    // Renaming is dense from `original_vars`, and at most
                    // 65,536 − `original_vars` distinct ids lie at or
                    // above it, so the new id always fits.
                    let nv = u16::try_from(*next).map_or(v, VarId);
                    *next += 1;
                    nv
                });
                QTerm::Var(nv)
            }
            other => other,
        };
        mapped.push(QPattern::new(
            map_slot(p.s, &mut rename, &mut next),
            map_slot(p.p, &mut rename, &mut next),
            map_slot(p.o, &mut rename, &mut next),
        ));
    }
    mapped.sort_unstable();
    mapped
}

/// Options for [`expand`].
#[derive(Debug, Clone)]
pub struct ExpandOptions {
    /// Maximum number of rule applications in a sequence.
    pub max_depth: usize,
    /// Rewritings with combined weight below this are pruned.
    pub min_weight: f64,
    /// Hard cap on the number of rewritings returned (including the
    /// original query).
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

/// Expands a query into all relaxed forms reachable within
/// `opts.max_depth` rule applications.
///
/// The result always starts with the original query (weight 1.0, empty
/// trace); the rest are sorted by descending weight (ties broken by trace
/// length then canonical order) and deduplicated up to alpha-equivalence,
/// keeping the maximum weight per form.
pub fn expand(query: &[QPattern], rules: &RuleSet, opts: &ExpandOptions) -> Vec<RelaxedQuery> {
    expand_with(query, rules, opts, None)
}

/// [`expand`] with store-verified data conditions (see
/// [`apply_rule_with`]).
pub fn expand_with(
    query: &[QPattern],
    rules: &RuleSet,
    opts: &ExpandOptions,
    store: Option<&XkgStore>,
) -> Vec<RelaxedQuery> {
    let original_vars = query
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| u32::from(m) + 1);

    let mut best: HashMap<Vec<QPattern>, RelaxedQuery> = HashMap::new();
    let origin = RelaxedQuery {
        patterns: query.to_vec(),
        weight: 1.0,
        trace: Vec::new(),
    };
    best.insert(canonical_key(query, original_vars), origin.clone());

    let mut frontier = vec![origin.clone()];
    for _ in 0..opts.max_depth {
        let mut next_frontier = Vec::new();
        for current in &frontier {
            for (rule_id, rule) in rules.iter() {
                for rewriting in apply_rule_with(&current.patterns, rule, rule_id, store) {
                    let weight = current.weight * rewriting.weight;
                    if weight < opts.min_weight {
                        continue;
                    }
                    let mut trace = current.trace.clone();
                    trace.push(rule_id);
                    let candidate = RelaxedQuery {
                        patterns: rewriting.patterns,
                        weight,
                        trace,
                    };
                    let key = canonical_key(&candidate.patterns, original_vars);
                    let insert = match best.get(&key) {
                        Some(existing) => weight > existing.weight,
                        None => true,
                    };
                    if insert {
                        best.insert(key, candidate.clone());
                        next_frontier.push(candidate);
                    }
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }

    let mut out: Vec<RelaxedQuery> = best.into_values().collect();
    out.sort_by(|a, b| {
        let a_is_origin = a.trace.is_empty();
        let b_is_origin = b.trace.is_empty();
        b_is_origin
            .cmp(&a_is_origin)
            .then(b.weight.total_cmp(&a.weight))
            .then_with(|| a.trace.len().cmp(&b.trace.len()))
            .then_with(|| a.patterns.cmp(&b.patterns))
    });
    out.truncate(opts.max_rewritings);
    out
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

    #[test]
    fn predicate_rewrite_applies() {
        // Query: ?x p1 Ulm
        let query = vec![QPattern::new(var(0), term(1), term(9))];
        let rule = Rule::predicate_rewrite("r", tid(1), tid(2), 0.8, RuleProvenance::Paraphrase);
        let rewritings = apply_rule(&query, &rule, RuleId(0));
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].patterns,
            vec![QPattern::new(var(0), term(2), term(9))]
        );
        assert_eq!(rewritings[0].weight, 0.8);
    }

    #[test]
    fn inversion_swaps_query_arguments() {
        // AlbertEinstein hasAdvisor ?x  →  ?x hasStudent AlbertEinstein
        let query = vec![QPattern::new(term(7), term(1), var(0))];
        let rule = Rule::inversion("inv", tid(1), tid(2), 1.0, RuleProvenance::MinedInversion);
        let rewritings = apply_rule(&query, &rule, RuleId(3));
        assert_eq!(rewritings.len(), 1);
        assert_eq!(
            rewritings[0].patterns,
            vec![QPattern::new(var(0), term(2), term(7))]
        );
    }

    #[test]
    fn rule_without_match_produces_nothing() {
        let query = vec![QPattern::new(var(0), term(5), var(1))];
        let rule = Rule::predicate_rewrite("r", tid(1), tid(2), 0.8, RuleProvenance::Paraphrase);
        assert!(apply_rule(&query, &rule, RuleId(0)).is_empty());
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
        let rewritings = apply_rule(&query, &rule, RuleId(1));
        assert_eq!(rewritings.len(), 1);
        let pats = &rewritings[0].patterns;
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
        let out = expand(&query, &rules, &ExpandOptions::default());
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
        let out = expand(&query, &rules, &ExpandOptions::default());
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
        let out = expand(&query, &rules, &ExpandOptions::default());
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
        let out = expand(&query, &rules, &ExpandOptions::default());
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
        let out = expand(
            &query,
            &rules,
            &ExpandOptions {
                max_depth: 0,
                ..Default::default()
            },
        );
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
        assert!(apply_rule(&query, &rule, RuleId(0)).is_empty());
        // ...but with the store, `Germany type country` holds as a
        // condition and the rule rewrites the query.
        let rewritings = apply_rule_with(&query, &rule, RuleId(0), Some(&store));
        assert_eq!(rewritings.len(), 1);
        assert_eq!(rewritings[0].patterns.len(), 3);
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
        assert!(apply_rule_with(&query, &rule, RuleId(0), Some(&store)).is_empty());
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
        let out = expand(
            &query,
            &rules,
            &ExpandOptions {
                max_depth: 6,
                ..Default::default()
            },
        );
        // p1 (original, 1.0) and p2 (0.9); round-trips are dominated.
        assert_eq!(out.len(), 2);
    }
}
