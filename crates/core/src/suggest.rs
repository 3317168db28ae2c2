//! Query suggestion (paper §5).
//!
//! Two mechanisms, exactly as the demo describes:
//!
//! * **Token → resource suggestion**: "When TriniT determines that
//!   matches for these tokens have a significant overlap with matches for
//!   highly related KG resources ..., these resources are suggested to
//!   the user for use in future queries."
//! * **Rule-invocation notices**: "When a structural relaxation rule
//!   (e.g. a predicate inversion rule) is invoked and contributes to the
//!   final answer set, TriniT informs the user of this effect."
//!
//! The overlap is probed from the token's side: its distinct
//! `(s, o)` pairs are collected over every live slice (base partitions,
//! then delta views), and each pair looks up `(s, ·, o)` and `(o, ·, s)`
//! in every slice, counting per resource predicate the pairs it shares
//! forward and reversed. A call costs O(|args(t)| · slices · log n),
//! whatever the number of predicates, and one path serves a monolith,
//! N partitions and a live delta. Probes reuse one id buffer, so a
//! Packed slice decodes into it without allocating.

use std::collections::HashMap;

use trinit_query::{Answer, Query};
use trinit_relax::{QTerm, RuleKind, RuleSet};
use trinit_shard::ShardedStore;
use trinit_xkg::{SlotPattern, TermId, XkgStore};

/// One suggestion shown to the user after a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Suggestion {
    /// Replace a textual token with a canonical KG resource.
    ReplaceToken {
        /// The token as written by the user.
        token: String,
        /// The suggested canonical resource.
        resource: String,
        /// Overlap fraction of the token's matches covered by the
        /// resource's matches.
        overlap: f64,
        /// True if the overlap is with *reversed* arguments: the resource
        /// expresses the inverse relation (`'studied under'` vs
        /// `hasStudent`), so the suggestion implies swapping S and O.
        inverted: bool,
    },
    /// A relaxation rule was invoked and contributed answers.
    RuleInvoked {
        /// The rule's human-readable label.
        rule: String,
        /// The rule's weight.
        weight: f64,
        /// Whether the rule was structural (inversion/multi-pattern),
        /// which the paper calls out specially.
        structural: bool,
    },
}

impl Suggestion {
    /// Renders the suggestion as one line of text.
    pub fn render(&self) -> String {
        match self {
            Suggestion::ReplaceToken {
                token,
                resource,
                overlap,
                inverted,
            } => {
                let direction = if *inverted {
                    " with swapped arguments"
                } else {
                    ""
                };
                format!(
                    "consider the KG resource `{resource}`{direction} instead of '{token}' \
                     ({:.0}% of its matches are covered)",
                    overlap * 100.0
                )
            }
            Suggestion::RuleInvoked {
                rule,
                weight,
                structural,
            } => {
                if *structural {
                    format!(
                        "structural relaxation was applied: {rule} (weight {weight:.2})"
                    )
                } else {
                    format!("relaxation was applied: {rule} (weight {weight:.2})")
                }
            }
        }
    }
}

/// Configuration for suggestion generation.
#[derive(Debug, Clone)]
pub struct SuggestConfig {
    /// Minimum match-overlap fraction for token → resource suggestions.
    /// A resource is a candidate only if it shares at least one
    /// argument pair with the token, so a bound of 0 or below lists
    /// every resource that overlaps at all, never a disjoint one.
    pub min_overlap: f64,
    /// Maximum suggestions per token.
    pub per_token: usize,
}

impl Default for SuggestConfig {
    fn default() -> Self {
        SuggestConfig {
            min_overlap: 0.3,
            per_token: 3,
        }
    }
}

/// Suggests canonical resources for the token predicates of `query`.
///
/// For a token predicate `t`, every resource predicate `r` with
/// `|args(t) ∩ args(r)| / |args(t)| ≥ min_overlap` (or the same with
/// `args(r)` reversed, if strictly larger) is suggested, strongest
/// overlap first, then by term id. `segments` is called once, and only
/// if the query has a token predicate.
fn token_overlaps<'s>(
    segments: impl FnOnce() -> Vec<&'s XkgStore>,
    vocab: &XkgStore,
    query: &Query,
    cfg: &SuggestConfig,
) -> Vec<Suggestion> {
    let mut tokens: Vec<TermId> = query
        .patterns
        .iter()
        .filter_map(|p| p.p.term())
        .filter(|t| t.is_token())
        .collect();
    if tokens.is_empty() {
        return Vec::new();
    }
    tokens.sort_unstable();
    tokens.dedup();
    let segments = segments();
    let resolve = |id| {
        vocab
            .dict()
            .resolve(id)
            .unwrap_or("<unknown>")
            .to_string()
    };
    let mut out = Vec::new();
    let (mut pairs, mut buf) = (Vec::new(), Vec::new());
    // Per resource predicate: pairs shared forward, pairs shared reversed.
    let mut shared: HashMap<TermId, [usize; 2]> = HashMap::new();
    for t in tokens {
        pairs.clear();
        for seg in &segments {
            let ids = seg.lookup_in(&SlotPattern::with_p(t), &mut buf);
            pairs.extend(ids.iter().map(|&id| {
                let triple = seg.triple(id);
                (triple.s, triple.o)
            }));
        }
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            continue;
        }
        // Inverted relations ('studied under' vs hasStudent) overlap
        // only with swapped arguments, so each pair probes both ways.
        shared.clear();
        for &(s, o) in &pairs {
            for (way, (a, b)) in [(s, o), (o, s)].into_iter().enumerate() {
                let probe = SlotPattern::new(Some(a), None, Some(b));
                for seg in &segments {
                    for &id in seg.lookup_in(&probe, &mut buf) {
                        let p = seg.triple(id).p;
                        if p.is_resource() {
                            shared.entry(p).or_default()[way] += 1;
                        }
                    }
                }
            }
        }
        let mut candidates: Vec<(f64, bool, TermId)> = shared
            .iter()
            .map(|(&p, &[forward, reversed])| {
                let (overlap, inverted) = if reversed > forward {
                    (reversed, true)
                } else {
                    (forward, false)
                };
                (overlap as f64 / pairs.len() as f64, inverted, p)
            })
            .filter(|&(frac, ..)| frac >= cfg.min_overlap)
            .collect();
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        for (frac, inverted, p) in candidates.into_iter().take(cfg.per_token) {
            out.push(Suggestion::ReplaceToken {
                token: resolve(t),
                resource: resolve(p),
                overlap: frac,
                inverted,
            });
        }
    }
    out
}

/// Reports which relaxation rules contributed to the answer set.
pub fn rule_invocation_notices(rules: &RuleSet, answers: &[Answer]) -> Vec<Suggestion> {
    let mut counts: HashMap<trinit_relax::RuleId, usize> = HashMap::new();
    for a in answers {
        for r in &a.derivation.rules {
            *counts.entry(*r).or_insert(0) += 1;
        }
    }
    let mut ids: Vec<_> = counts.keys().copied().collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|id| {
            let rule = rules.get(id);
            Suggestion::RuleInvoked {
                rule: rule.label.clone(),
                weight: rule.weight,
                structural: matches!(rule.kind, RuleKind::Inversion | RuleKind::Structural),
            }
        })
        .collect()
}

/// All suggestions for a finished query: token → resource overlaps
/// over every live slice of `store` (its base partitions and delta
/// views), then the rule notices.
pub fn suggest(
    store: &ShardedStore,
    query: &Query,
    rules: &RuleSet,
    answers: &[Answer],
    cfg: &SuggestConfig,
) -> Vec<Suggestion> {
    let mut out = token_overlaps(|| store.segments(), store.vocab(), query, cfg);
    out.extend(rule_invocation_notices(rules, answers));
    out
}

/// Helper: true if any query pattern uses a token term anywhere.
pub fn query_uses_tokens(query: &Query) -> bool {
    query.patterns.iter().any(|p| {
        p.slots()
            .into_iter()
            .any(|s| matches!(s, QTerm::Term(t) if t.is_token()))
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use trinit_query::QueryBuilder;
    use trinit_xkg::XkgBuilder;

    /// Store where the token 'worked at' heavily overlaps `affiliation`.
    fn overlapping_store() -> ShardedStore {
        let mut b = XkgBuilder::new();
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("d", "U3")] {
            b.add_kg_resources(s, "affiliation", o);
        }
        let src = b.intern_source("d0");
        let worked = b.dict_mut().token("worked at");
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2")] {
            let s = b.dict_mut().resource(s);
            let o = b.dict_mut().resource(o);
            b.add_extracted(s, worked, o, 0.8, src);
        }
        ShardedStore::build(b, 1)
    }

    /// The token → resource suggestions alone.
    fn overlaps(store: &ShardedStore, query: &Query, cfg: &SuggestConfig) -> Vec<Suggestion> {
        suggest(store, query, &RuleSet::new(), &[], cfg)
    }

    /// `(resource, overlap, inverted)` of each suggestion, in order.
    fn resources(suggestions: &[Suggestion]) -> Vec<(String, f64, bool)> {
        suggestions
            .iter()
            .map(|s| match s {
                Suggestion::ReplaceToken {
                    resource,
                    overlap,
                    inverted,
                    ..
                } => (resource.clone(), *overlap, *inverted),
                other => panic!("unexpected suggestion {other:?}"),
            })
            .collect()
    }

    #[test]
    fn token_predicate_suggests_resource() {
        let store = overlapping_store();
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        let suggestions = overlaps(&store, &q, &SuggestConfig::default());
        assert!(!suggestions.is_empty());
        match &suggestions[0] {
            Suggestion::ReplaceToken {
                token,
                resource,
                overlap,
                inverted,
            } => {
                assert_eq!(token, "worked at");
                assert_eq!(resource, "affiliation");
                assert!((overlap - 1.0).abs() < 1e-9, "all 3 pairs covered");
                assert!(!inverted);
            }
            other => panic!("unexpected suggestion {other:?}"),
        }
    }

    #[test]
    fn no_suggestions_for_resource_only_query() {
        let store = overlapping_store();
        let q = QueryBuilder::new(store.vocab())
            .pattern_v_r_v("x", "affiliation", "y")
            .build();
        assert!(!query_uses_tokens(&q));
        assert!(overlaps(&store, &q, &SuggestConfig::default()).is_empty());
    }

    #[test]
    fn a_query_without_token_predicate_walks_no_slice() {
        let store = overlapping_store();
        let walks = Cell::new(0);
        let segments = || {
            walks.set(walks.get() + 1);
            store.segments()
        };
        let cfg = SuggestConfig::default();
        let kg = QueryBuilder::new(store.vocab())
            .pattern_v_r_v("x", "affiliation", "y")
            .build();
        assert!(token_overlaps(segments, store.vocab(), &kg, &cfg).is_empty());
        assert_eq!(walks.get(), 0, "no token predicate, no slice walked");
        let token = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        assert!(!token_overlaps(segments, store.vocab(), &token, &cfg).is_empty());
        assert_eq!(walks.get(), 1, "a token query walks the slices once");
    }

    #[test]
    fn threshold_filters_weak_overlap() {
        let store = overlapping_store();
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        let cfg = SuggestConfig {
            min_overlap: 1.01,
            per_token: 3,
        };
        assert!(overlaps(&store, &q, &cfg).is_empty());
    }

    #[test]
    fn a_suggestion_needs_a_shared_pair_even_at_zero_min_overlap() {
        // `located` shares no pair with 'worked at', `affiliation` all.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("U1", "located", "Ulm");
        b.add_kg_resources("a", "affiliation", "U1");
        let src = b.intern_source("d0");
        let worked = b.dict_mut().token("worked at");
        let (a, u1) = (b.dict_mut().resource("a"), b.dict_mut().resource("U1"));
        b.add_extracted(a, worked, u1, 0.8, src);
        let store = ShardedStore::build(b, 1);
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        for min_overlap in [0.0, -1.0] {
            let cfg = SuggestConfig {
                min_overlap,
                per_token: 3,
            };
            assert_eq!(
                resources(&overlaps(&store, &q, &cfg)),
                vec![("affiliation".to_string(), 1.0, false)]
            );
        }
    }

    #[test]
    fn a_forward_reversed_tie_is_not_inverted() {
        // 'knows' shares (a, b) with `friend` forward and (d, c) reversed.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("a", "friend", "b");
        b.add_kg_resources("c", "friend", "d");
        let src = b.intern_source("d0");
        let knows = b.dict_mut().token("knows");
        for (s, o) in [("a", "b"), ("d", "c")] {
            let (s, o) = (b.dict_mut().resource(s), b.dict_mut().resource(o));
            b.add_extracted(s, knows, o, 0.8, src);
        }
        let store = ShardedStore::build(b, 1);
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "knows", "y")
            .build();
        assert_eq!(
            resources(&overlaps(&store, &q, &SuggestConfig::default())),
            vec![("friend".to_string(), 0.5, false)]
        );
    }

    #[test]
    fn a_token_predicate_in_two_patterns_is_suggested_once() {
        let store = overlapping_store();
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("a", "worked at", "y")
            .pattern_r_t_v("b", "worked at", "y")
            .build();
        assert_eq!(
            resources(&overlaps(&store, &q, &SuggestConfig::default())),
            vec![("affiliation".to_string(), 1.0, false)]
        );
    }

    #[test]
    fn a_token_in_a_subject_or_object_slot_is_ignored() {
        let store = overlapping_store();
        let mut b = QueryBuilder::new(store.vocab());
        let (x, worked) = (b.var("x"), b.token("worked at"));
        let aff = b.resource("affiliation");
        let q = b
            .pattern(QTerm::Term(worked), QTerm::Term(aff), QTerm::Var(x))
            .pattern(QTerm::Var(x), QTerm::Term(aff), QTerm::Term(worked))
            .build();
        assert!(query_uses_tokens(&q));
        assert!(overlaps(&store, &q, &SuggestConfig::default()).is_empty());
    }

    #[test]
    fn inverted_token_suggests_resource_with_swap() {
        // 'studied under' pairs are reversed hasStudent pairs.
        let mut b = XkgBuilder::new();
        for (adv, st) in [("A1", "S1"), ("A2", "S2"), ("A3", "S3")] {
            b.add_kg_resources(adv, "hasStudent", st);
        }
        let src = b.intern_source("d");
        let studied = b.dict_mut().token("studied under");
        for (st, adv) in [("S1", "A1"), ("S2", "A2")] {
            let s = b.dict_mut().resource(st);
            let o = b.dict_mut().resource(adv);
            b.add_extracted(s, studied, o, 0.7, src);
        }
        let store = ShardedStore::build(b, 1);
        let q = QueryBuilder::new(store.vocab())
            .pattern_r_t_v("S1", "studied under", "y")
            .build();
        assert_eq!(
            resources(&overlaps(&store, &q, &SuggestConfig::default())),
            vec![("hasStudent".to_string(), 1.0, true)]
        );
    }

    #[test]
    fn rule_notices_from_answers() {
        use trinit_query::{Answer, Bindings, Derivation};
        use trinit_relax::{Rule, RuleProvenance, RuleSet};
        let store = overlapping_store();
        let aff = store.vocab().resource("affiliation").unwrap();
        let worked = store.vocab().token("worked at").unwrap();
        let mut rules = RuleSet::new();
        let id = rules.add(Rule::inversion(
            "inv",
            aff,
            worked,
            0.9,
            RuleProvenance::MinedInversion,
        ));
        let answer = Answer {
            key: vec![],
            bindings: Bindings::new(0),
            score: -1.0,
            derivation: Derivation {
                triples: vec![],
                rules: vec![id],
                rule_weight: 0.9,
            },
        };
        let notices = rule_invocation_notices(&rules, &[answer]);
        assert_eq!(notices.len(), 1);
        match &notices[0] {
            Suggestion::RuleInvoked { structural, .. } => assert!(*structural),
            other => panic!("unexpected {other:?}"),
        }
        assert!(notices[0].render().contains("structural"));
    }

    #[test]
    fn render_replace_token() {
        let s = Suggestion::ReplaceToken {
            token: "worked at".into(),
            resource: "affiliation".into(),
            overlap: 0.75,
            inverted: false,
        };
        let text = s.render();
        assert!(text.contains("affiliation"));
        assert!(text.contains("75%"));
    }
}
