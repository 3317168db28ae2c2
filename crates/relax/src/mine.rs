//! Mining relaxation rules from the XKG itself (paper §3).
//!
//! "We generate a rule rewriting the XKG predicate p1 to the XKG predicate
//! p2 and assign it the weight `w(p1 ↦ p2) = |args(p1) ∩ args(p2)| /
//! |args(p2)|`, where `args(p)` is the set of subject-object pairs
//! connected by p in the XKG."
//!
//! The miner computes exactly this, for every predicate pair with a
//! non-trivial argument overlap, plus *inversion* rules from overlap with
//! the reversed argument sets (recovering `hasAdvisor ↦ hasStudent`-style
//! rules, paper rule 2).

use std::collections::HashMap;

use trinit_xkg::{args_pairs, TermId, XkgStore};

use crate::rule::{Rule, RuleProvenance};

/// Configuration of the co-occurrence miner.
#[derive(Debug, Clone)]
pub struct MinerConfig {
    /// Minimum `|args(p1) ∩ args(p2)|` for a rule to be emitted.
    pub min_overlap: usize,
    /// Minimum rule weight.
    pub min_weight: f64,
    /// Also mine inversion rules (overlap with reversed args).
    pub inversions: bool,
    /// Hard cap on emitted rules (highest-weight first).
    pub max_rules: usize,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            min_overlap: 2,
            min_weight: 0.1,
            inversions: true,
            max_rules: 10_000,
        }
    }
}

/// A mined rule with its supporting statistics (useful for reports and
/// the paper's Figure 4-style rule tables).
#[derive(Debug, Clone)]
pub struct MinedRule {
    /// The rule itself.
    pub rule: Rule,
    /// Source predicate (query side).
    pub p1: TermId,
    /// Target predicate (rewritten side).
    pub p2: TermId,
    /// `|args(p1) ∩ args(p2)|` (reversed for inversions).
    pub overlap: usize,
    /// `|args(p2)|`.
    pub args_p2: usize,
}

fn rule_label(store: &XkgStore, p1: TermId, p2: TermId, inverted: bool) -> String {
    let name = |t: TermId| store.display_term(t);
    if inverted {
        format!("?x {} ?y => ?y {} ?x", name(p1), name(p2))
    } else {
        format!("?x {} ?y => ?x {} ?y", name(p1), name(p2))
    }
}

/// Mines predicate-rewrite (and optionally inversion) rules from `store`.
///
/// Results are sorted by descending weight, ties broken by predicate ids
/// for determinism.
pub fn mine_cooccurrence(store: &XkgStore, cfg: &MinerConfig) -> Vec<MinedRule> {
    // args(p) for every predicate, plus |args(p)|.
    let mut args: HashMap<TermId, Vec<(TermId, TermId)>> = HashMap::new();
    for &p in store.predicates() {
        args.insert(p, args_pairs(store, p));
    }

    // Invert: (s,o) pair → predicates containing it.
    let mut by_pair: HashMap<(TermId, TermId), Vec<TermId>> = HashMap::new();
    for (&p, pairs) in &args {
        for &pair in pairs {
            by_pair.entry(pair).or_default().push(p);
        }
    }

    // Count forward overlaps |args(p1) ∩ args(p2)|.
    let mut overlap: HashMap<(TermId, TermId), usize> = HashMap::new();
    for preds in by_pair.values() {
        for &a in preds {
            for &b in preds {
                if a != b {
                    *overlap.entry((a, b)).or_insert(0) += 1;
                }
            }
        }
    }

    // Count inverted overlaps |args(p1) ∩ swap(args(p2))|.
    let mut inv_overlap: HashMap<(TermId, TermId), usize> = HashMap::new();
    if cfg.inversions {
        for (&(s, o), preds) in &by_pair {
            if let Some(rev_preds) = by_pair.get(&(o, s)) {
                for &a in preds {
                    for &b in rev_preds {
                        if a != b {
                            *inv_overlap.entry((a, b)).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
    }

    let mut out: Vec<MinedRule> = Vec::new();
    for (&(p1, p2), &count) in &overlap {
        if count < cfg.min_overlap {
            continue;
        }
        let args_p2 = args[&p2].len();
        let weight = count as f64 / args_p2 as f64;
        if weight < cfg.min_weight {
            continue;
        }
        out.push(MinedRule {
            rule: Rule::predicate_rewrite(
                rule_label(store, p1, p2, false),
                p1,
                p2,
                weight,
                RuleProvenance::MinedCooccurrence,
            ),
            p1,
            p2,
            overlap: count,
            args_p2,
        });
    }
    for (&(p1, p2), &count) in &inv_overlap {
        if count < cfg.min_overlap {
            continue;
        }
        let args_p2 = args[&p2].len();
        let weight = count as f64 / args_p2 as f64;
        if weight < cfg.min_weight {
            continue;
        }
        out.push(MinedRule {
            rule: Rule::inversion(
                rule_label(store, p1, p2, true),
                p1,
                p2,
                weight,
                RuleProvenance::MinedInversion,
            ),
            p1,
            p2,
            overlap: count,
            args_p2,
        });
    }

    out.sort_by(|a, b| {
        b.rule
            .weight
            .total_cmp(&a.rule.weight)
            .then_with(|| (a.p1, a.p2).cmp(&(b.p1, b.p2)))
            .then_with(|| (a.rule.kind as u8).cmp(&(b.rule.kind as u8)))
    });
    out.truncate(cfg.max_rules);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::RuleKind;
    use trinit_xkg::XkgBuilder;

    /// Builds a store where `affiliation` and the token `'worked at'`
    /// share argument pairs, and `hasStudent` appears reversed as
    /// `'studied under'`.
    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        // affiliation: (a,U1), (b,U1), (c,U2), (d,U2)
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("d", "U2")] {
            b.add_kg_resources(s, "affiliation", o);
        }
        // 'worked at': (a,U1), (b,U1), (c,U2) — 3 of 4 overlap, plus one extra.
        let src = b.intern_source("d0");
        let worked = b.dict_mut().token("worked at");
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("e", "U3")] {
            let s = b.dict_mut().resource(s);
            let o = b.dict_mut().resource(o);
            b.add_extracted(s, worked, o, 0.8, src);
        }
        // hasStudent: (adv1, st1), (adv2, st2)
        b.add_kg_resources("adv1", "hasStudent", "st1");
        b.add_kg_resources("adv2", "hasStudent", "st2");
        // 'studied under': (st1, adv1), (st2, adv2) — exact inversion.
        let studied = b.dict_mut().token("studied under");
        for (s, o) in [("st1", "adv1"), ("st2", "adv2")] {
            let s = b.dict_mut().resource(s);
            let o = b.dict_mut().resource(o);
            b.add_extracted(s, studied, o, 0.7, src);
        }
        b.build()
    }

    #[test]
    fn weight_formula_matches_paper() {
        let store = store();
        let mined = mine_cooccurrence(&store, &MinerConfig::default());
        let aff = store.resource("affiliation").unwrap();
        let worked = store.token("worked at").unwrap();
        // w(affiliation → 'worked at') = |∩| / |args('worked at')| = 3/4.
        let fwd = mined
            .iter()
            .find(|m| m.p1 == aff && m.p2 == worked && m.rule.kind == RuleKind::PredicateRewrite)
            .expect("forward rule mined");
        assert_eq!(fwd.overlap, 3);
        assert_eq!(fwd.args_p2, 4);
        assert!((fwd.rule.weight - 0.75).abs() < 1e-9);
        // And the reverse direction: w('worked at' → affiliation) = 3/4.
        let rev = mined
            .iter()
            .find(|m| m.p1 == worked && m.p2 == aff && m.rule.kind == RuleKind::PredicateRewrite)
            .expect("reverse rule mined");
        assert!((rev.rule.weight - 0.75).abs() < 1e-9);
    }

    #[test]
    fn inversion_rules_are_mined() {
        let store = store();
        let mined = mine_cooccurrence(&store, &MinerConfig::default());
        let has_student = store.resource("hasStudent").unwrap();
        let studied = store.token("studied under").unwrap();
        let inv = mined
            .iter()
            .find(|m| m.p1 == studied && m.p2 == has_student && m.rule.kind == RuleKind::Inversion)
            .expect("inversion rule mined");
        // All 2 pairs of hasStudent appear reversed under 'studied under'.
        assert!((inv.rule.weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_overlap_filters() {
        let store = store();
        let mined = mine_cooccurrence(
            &store,
            &MinerConfig {
                min_overlap: 4,
                ..Default::default()
            },
        );
        assert!(mined.is_empty());
    }

    #[test]
    fn inversions_can_be_disabled() {
        let store = store();
        let mined = mine_cooccurrence(
            &store,
            &MinerConfig {
                inversions: false,
                ..Default::default()
            },
        );
        assert!(mined.iter().all(|m| m.rule.kind != RuleKind::Inversion));
    }

    #[test]
    fn results_are_sorted_by_weight() {
        let store = store();
        let mined = mine_cooccurrence(&store, &MinerConfig::default());
        assert!(mined
            .windows(2)
            .all(|w| w[0].rule.weight >= w[1].rule.weight));
    }

    #[test]
    fn empty_store_mines_nothing() {
        let store = XkgBuilder::new().build();
        assert!(mine_cooccurrence(&store, &MinerConfig::default()).is_empty());
    }

    #[test]
    fn max_rules_caps_output() {
        let store = store();
        let mined = mine_cooccurrence(
            &store,
            &MinerConfig {
                max_rules: 1,
                min_overlap: 1,
                min_weight: 0.0,
                inversions: true,
            },
        );
        assert_eq!(mined.len(), 1);
    }
}
