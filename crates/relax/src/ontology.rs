//! Ontology-driven (granularity) relaxation rules.
//!
//! Generates rules like the paper's rule 1:
//!
//! ```text
//! ?x bornIn ?y ; ?y type country
//!     →  ?x bornIn ?z ; ?z type city ; ?z locatedIn ?y      (w = 1.0)
//! ```
//!
//! Such rules repair *granularity mismatch*: the KG asserts a relation at
//! a fine-grained class (cities) while users query a coarse-grained class
//! (countries) reachable through a connecting predicate.
//!
//! Rules can be constructed explicitly from a [`GranularitySpec`], or
//! mined from the store: a predicate whose objects are dominantly of a
//! class `F`, where `F`-instances link to class-`C` instances through a
//! `via` predicate, yields a rule lifting queries from `C` to `F`.

use std::collections::HashMap;

use trinit_xkg::{SlotPattern, TermId, XkgStore};

use crate::rule::{RVar, Rule, RuleProvenance, TTerm, Template};

/// Explicit description of one granularity rule.
#[derive(Debug, Clone)]
pub struct GranularitySpec {
    /// The base predicate being relaxed (e.g. `bornIn`).
    pub base: TermId,
    /// The connecting predicate (e.g. `locatedIn`).
    pub via: TermId,
    /// The `type` predicate of the KG.
    pub type_pred: TermId,
    /// Fine-grained class at which the KG asserts `base` (e.g. `city`).
    pub fine_class: TermId,
    /// Coarse-grained class users query (e.g. `country`).
    pub coarse_class: TermId,
    /// Rule weight.
    pub weight: f64,
}

/// Builds the structural rule for a [`GranularitySpec`].
pub fn granularity_rule(spec: &GranularitySpec, label: impl Into<String>) -> Rule {
    let (x, y, z) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
    Rule::structural(
        label,
        vec![
            Template::new(x, TTerm::Const(spec.base), y),
            Template::new(y, TTerm::Const(spec.type_pred), TTerm::Const(spec.coarse_class)),
        ],
        vec![
            Template::new(x, TTerm::Const(spec.base), z),
            Template::new(z, TTerm::Const(spec.type_pred), TTerm::Const(spec.fine_class)),
            Template::new(z, TTerm::Const(spec.via), y),
        ],
        spec.weight,
        RuleProvenance::Ontology,
    )
}

/// Configuration for granularity-rule mining.
#[derive(Debug, Clone)]
pub struct GranularityMinerConfig {
    /// Minimum fraction of a predicate's objects that must share one class.
    pub min_dominance: f64,
    /// Minimum number of `via` links between the two classes.
    pub min_via_links: usize,
}

impl Default for GranularityMinerConfig {
    fn default() -> Self {
        GranularityMinerConfig {
            min_dominance: 0.6,
            min_via_links: 2,
        }
    }
}

/// The class of an entity: object of its `type_pred` triple (first one if
/// several).
fn class_of(store: &XkgStore, type_pred: TermId, entity: TermId) -> Option<TermId> {
    store
        .lookup(&SlotPattern::with_sp(entity, type_pred))
        .first()
        .map(|&id| store.triple(id).o)
}

/// Mines granularity rules from `store`.
///
/// For every resource predicate `base` (other than `type_pred` and `via`)
/// whose objects dominantly belong to a class `F`, and every class `C`
/// such that `via` links `F`-instances to `C`-instances, emits the rule
/// lifting `base`-queries from `C` to `F`. The rule weight is the
/// fraction of `F`-side `via` endpoints that land in `C`.
pub fn mine_granularity(
    store: &XkgStore,
    type_pred: TermId,
    via: TermId,
    cfg: &GranularityMinerConfig,
) -> Vec<Rule> {
    // Class-pair histogram of the via predicate.
    let mut via_pairs: HashMap<(TermId, TermId), usize> = HashMap::new();
    let mut via_from: HashMap<TermId, usize> = HashMap::new();
    for &id in &store.lookup(&SlotPattern::with_p(via)) {
        let t = store.triple(id);
        let (Some(cs), Some(co)) = (
            class_of(store, type_pred, t.s),
            class_of(store, type_pred, t.o),
        ) else {
            continue;
        };
        *via_pairs.entry((cs, co)).or_insert(0) += 1;
        *via_from.entry(cs).or_insert(0) += 1;
    }

    let mut out = Vec::new();
    for &base in store.predicates() {
        if base == type_pred || base == via || !base.is_resource() {
            continue;
        }
        // Dominant object class of `base`.
        let mut class_counts: HashMap<TermId, usize> = HashMap::new();
        let mut total = 0usize;
        for &id in &store.lookup(&SlotPattern::with_p(base)) {
            let o = store.triple(id).o;
            if let Some(c) = class_of(store, type_pred, o) {
                *class_counts.entry(c).or_insert(0) += 1;
                total += 1;
            }
        }
        if total == 0 {
            continue;
        }
        let Some((&fine, &count)) = class_counts.iter().max_by_key(|&(c, n)| (*n, *c)) else {
            continue;
        };
        if (count as f64) / (total as f64) < cfg.min_dominance {
            continue;
        }
        // Every coarse class reachable from `fine` through `via`.
        for (&(cs, co), &links) in &via_pairs {
            if cs != fine || co == fine || links < cfg.min_via_links {
                continue;
            }
            let weight = links as f64 / via_from[&cs] as f64;
            let spec = GranularitySpec {
                base,
                via,
                type_pred,
                fine_class: fine,
                coarse_class: co,
                weight,
            };
            let label = format!(
                "?x {base} ?y ; ?y type {coarse} => ?x {base} ?z ; ?z type {fine} ; ?z {via} ?y",
                base = store.display_term(base),
                coarse = store.display_term(co),
                fine = store.display_term(fine),
                via = store.display_term(via),
            );
            out.push(granularity_rule(&spec, label));
        }
    }
    out.sort_by(|a, b| {
        b.weight
            .total_cmp(&a.weight)
            .then_with(|| a.label.cmp(&b.label))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleKind;
    use trinit_xkg::XkgBuilder;

    /// KG: people born in cities; cities located in countries.
    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        for (p, city) in [("a", "Ulm"), ("b", "Ulm"), ("c", "Velmora")] {
            b.add_kg_resources(p, "bornIn", city);
            b.add_kg_resources(p, "type", "person");
        }
        for (city, country) in [("Ulm", "Germany"), ("Velmora", "Trastenia")] {
            b.add_kg_resources(city, "locatedIn", country);
            b.add_kg_resources(city, "type", "city");
            b.add_kg_resources(country, "type", "country");
        }
        b.build()
    }

    #[test]
    fn mines_the_paper_rule_1() {
        let store = store();
        let type_pred = store.resource("type").unwrap();
        let via = store.resource("locatedIn").unwrap();
        let rules = mine_granularity(&store, type_pred, via, &GranularityMinerConfig::default());
        assert_eq!(rules.len(), 1, "exactly the bornIn rule: {rules:?}");
        let rule = &rules[0];
        assert_eq!(rule.kind, RuleKind::Structural);
        assert_eq!(rule.lhs.len(), 2);
        assert_eq!(rule.rhs.len(), 3);
        assert_eq!(rule.fresh_vars().len(), 1);
        // All via links go city → country, so the weight is 1.0.
        assert!((rule.weight - 1.0).abs() < 1e-9);
        assert!(rule.label.contains("bornIn"));
        assert!(rule.label.contains("country"));
    }

    #[test]
    fn explicit_spec_builds_rule() {
        let store = store();
        let spec = GranularitySpec {
            base: store.resource("bornIn").unwrap(),
            via: store.resource("locatedIn").unwrap(),
            type_pred: store.resource("type").unwrap(),
            fine_class: store.resource("city").unwrap(),
            coarse_class: store.resource("country").unwrap(),
            weight: 1.0,
        };
        let rule = granularity_rule(&spec, "rule1");
        assert_eq!(rule.label, "rule1");
        assert_eq!(rule.provenance, RuleProvenance::Ontology);
    }

    #[test]
    fn dominance_threshold_filters() {
        let store = store();
        let type_pred = store.resource("type").unwrap();
        let via = store.resource("locatedIn").unwrap();
        let rules = mine_granularity(
            &store,
            type_pred,
            via,
            &GranularityMinerConfig {
                min_dominance: 1.01,
                min_via_links: 1,
            },
        );
        assert!(rules.is_empty());
    }

    #[test]
    fn min_via_links_filters() {
        let store = store();
        let type_pred = store.resource("type").unwrap();
        let via = store.resource("locatedIn").unwrap();
        let rules = mine_granularity(
            &store,
            type_pred,
            via,
            &GranularityMinerConfig {
                min_dominance: 0.6,
                min_via_links: 99,
            },
        );
        assert!(rules.is_empty());
    }
}
