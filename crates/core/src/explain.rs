//! Answer explanation (paper §5, Figure 6).
//!
//! "The answer explanation provides three important pieces of
//! information: (i) the KG triples that contributed to an answer, (ii)
//! the XKG triples that contributed to an answer and their provenance,
//! and (iii) the relaxation rules that were invoked to obtain an answer."

use trinit_query::{Answer, Query};
use trinit_relax::RuleSet;
use trinit_shard::ShardedStore;
use trinit_xkg::{GraphTag, XkgStore};

/// A structured answer explanation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The projected answer rendered as `?var = value` pairs.
    pub answer_line: String,
    /// Contributing curated-KG triples.
    pub kg_triples: Vec<String>,
    /// Contributing XKG triples with confidence and source documents.
    pub xkg_triples: Vec<String>,
    /// Invoked relaxation rules with weights and provenance.
    pub rules: Vec<String>,
    /// Final (log-space) score.
    pub score: f64,
}

impl Explanation {
    /// Renders the explanation as indented text (the CLI stand-in for the
    /// paper's Figure 6 web view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("answer: {}\n", self.answer_line));
        out.push_str(&format!("score:  {:.4} (log-likelihood)\n", self.score));
        out.push_str("contributing KG triples:\n");
        if self.kg_triples.is_empty() {
            out.push_str("  (none)\n");
        }
        for t in &self.kg_triples {
            out.push_str(&format!("  {t}\n"));
        }
        out.push_str("contributing XKG triples:\n");
        if self.xkg_triples.is_empty() {
            out.push_str("  (none)\n");
        }
        for t in &self.xkg_triples {
            out.push_str(&format!("  {t}\n"));
        }
        out.push_str("invoked relaxation rules:\n");
        if self.rules.is_empty() {
            out.push_str("  (none — exact match)\n");
        }
        for r in &self.rules {
            out.push_str(&format!("  {r}\n"));
        }
        out
    }
}

/// Builds the explanation of one answer. Derivation ids are global:
/// they span the store's shards, then its delta views.
pub fn explain(store: &ShardedStore, query: &Query, rules: &RuleSet, answer: &Answer) -> Explanation {
    let answer_line = answer
        .key
        .iter()
        .map(|(v, t)| {
            let name = query.var_name(*v);
            match t {
                Some(id) => format!("?{name} = {}", store.vocab().display_term(*id)),
                None => format!("?{name} = (unbound)"),
            }
        })
        .collect::<Vec<_>>()
        .join(", ");

    let mut kg_triples = Vec::new();
    let mut xkg_triples = Vec::new();
    for (_, triple_id) in &answer.derivation.triples {
        let prov = store.provenance(*triple_id);
        let rendered = store.display_triple(*triple_id);
        match prov.graph {
            GraphTag::Kg => kg_triples.push(rendered),
            GraphTag::Xkg => {
                let sources: Vec<&str> = prov
                    .sources
                    .iter()
                    .filter_map(|s| store.vocab().source_name(*s))
                    .collect();
                xkg_triples.push(format!(
                    "{rendered}   [confidence {:.2}, support {}, from {}]",
                    prov.confidence,
                    prov.support,
                    if sources.is_empty() {
                        "(unknown)".to_string()
                    } else {
                        sources.join(", ")
                    }
                ));
            }
        }
    }

    let mut rule_lines = Vec::new();
    let mut seen = Vec::new();
    for rid in &answer.derivation.rules {
        if seen.contains(rid) {
            continue;
        }
        seen.push(*rid);
        let rule = rules.get(*rid);
        rule_lines.push(format!(
            "{}   [weight {:.2}, {:?}]",
            rule.label, rule.weight, rule.provenance
        ));
    }

    Explanation {
        answer_line,
        kg_triples,
        xkg_triples,
        rules: rule_lines,
        score: answer.score,
    }
}

/// Renders the internal processing steps of a query outcome — the
/// "for users interested in the details of query processing, TriniT can
/// show internal steps" feature of §5.
///
/// Reconstructed from the engine's work counters and the answers'
/// derivations: which rewritings were considered, how many postings
/// were read (and how many streams a retired partner's keys restricted),
/// which relaxations actually contributed.
pub fn processing_report(
    store: &XkgStore,
    rules: &RuleSet,
    outcome: &crate::trinit::QueryOutcome,
) -> String {
    let mut out = String::new();
    out.push_str("internal processing steps\n");
    out.push_str(&format!(
        "  query: {}\n",
        outcome.query.display(store)
    ));
    out.push_str(&format!(
        "  triple patterns: {}   requested k: {}\n",
        outcome.query.patterns.len(),
        outcome.query.k
    ));
    let m = &outcome.metrics;
    out.push_str(&format!(
        "  query variants evaluated:    {}\n",
        m.rewritings_evaluated
    ));
    out.push_str(&format!(
        "  posting lists materialized:  {}\n",
        m.posting_lists_built
    ));
    out.push_str(&format!(
        "  session-cache hits:          {}\n",
        m.shared_cache_hits
    ));
    out.push_str(&format!(
        "  relaxations invoked:         {}\n",
        m.relaxations_opened
    ));
    out.push_str(&format!(
        "  postings read:               {}\n",
        m.postings_scanned
    ));
    out.push_str(&format!(
        "  streams restricted:          {} ({} bound lookups, {} rest scans)\n",
        m.probed_streams, m.probe_lookups, m.restriction_scans
    ));
    out.push_str(&format!(
        "  join candidates tested:      {}\n",
        m.join_candidates
    ));
    out.push_str(&format!(
        "  rank-join pulls:             {}\n",
        m.pulls
    ));
    out.push_str(&format!(
        "  early threshold cutoffs:     {}\n",
        m.early_cutoffs
    ));

    // Which rules actually contributed to returned answers.
    let mut contributing: Vec<trinit_relax::RuleId> = outcome
        .answers
        .iter()
        .flat_map(|a| a.derivation.rules.iter().copied())
        .collect();
    contributing.sort_unstable();
    contributing.dedup();
    out.push_str(&format!(
        "  rules contributing to answers: {}\n",
        contributing.len()
    ));
    for id in contributing {
        let rule = rules.get(id);
        out.push_str(&format!("    [{:.2}] {}\n", rule.weight, rule.label));
    }
    let exact = outcome
        .answers
        .iter()
        .filter(|a| a.derivation.is_exact())
        .count();
    out.push_str(&format!(
        "  answers: {} total ({} exact, {} via relaxation)\n",
        outcome.answers.len(),
        exact,
        outcome.answers.len() - exact
    ));

    // Stage timing from the query's trace, when it ran instrumented.
    let trace = outcome.trace();
    if !trace.is_empty() {
        out.push_str(&format!(
            "  stage timing ({} spans recorded",
            trace.recorded()
        ));
        if trace.dropped > 0 {
            out.push_str(&format!(", {} dropped at ring capacity", trace.dropped));
        }
        out.push_str("):\n");
        for stage in trinit_obs::Stage::ALL {
            let n = trace.stage_count(stage);
            if n == 0 {
                continue;
            }
            out.push_str(&format!(
                "    {:<12} {:>5} span(s)  {:>10} ns\n",
                stage.name(),
                n,
                trace.stage_total_ns(stage)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_rules, paper_store};
    use trinit_query::{QueryBuilder, TopkConfig};

    #[test]
    fn explanation_for_user_c_answer() {
        let store = paper_store();
        let rules = paper_rules(&store);
        // Ivy League university Einstein was affiliated with (user C).
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "x")
            .pattern_v_r_r("x", "member", "IvyLeague")
            .project(&["x"])
            .build();
        let (answers, _) =
            trinit_query::exec::topk::run(&store, &q, &rules, &TopkConfig::default());
        assert!(!answers.is_empty(), "relaxation must recover Princeton");
        let store = ShardedStore::from_shards(vec![store]);
        let e = explain(&store, &q, &rules, &answers[0]);
        assert!(e.answer_line.contains("PrincetonUniversity"));
        assert!(!e.kg_triples.is_empty(), "member triple is KG");
        assert!(!e.xkg_triples.is_empty(), "'housed in' triple is XKG");
        assert!(!e.rules.is_empty(), "rule 3 was invoked");
        let text = e.render();
        assert!(text.contains("housed in"));
        assert!(text.contains("clueweb:doc-002381"));
        assert!(text.contains("weight 0.80"));
    }

    #[test]
    fn exact_answer_has_no_rules_section() {
        let store = paper_store();
        let rules = paper_rules(&store);
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .build();
        let (answers, _) =
            trinit_query::exec::topk::run(&store, &q, &rules, &TopkConfig::default());
        let store = ShardedStore::from_shards(vec![store]);
        let e = explain(&store, &q, &rules, &answers[0]);
        assert!(e.rules.is_empty());
        assert!(e.render().contains("exact match"));
    }

    #[test]
    fn processing_report_summarizes_work() {
        let store = paper_store();
        let rules = paper_rules(&store);
        let system = crate::Trinit::from_parts(store, rules);
        let outcome = system
            .query("AlbertEinstein affiliation ?x . ?x member IvyLeague LIMIT 5")
            .unwrap();
        let report = processing_report(system.store(), system.rules(), &outcome);
        assert!(report.contains("internal processing steps"));
        assert!(report.contains("relaxations invoked"));
        assert!(report.contains("postings read"));
        assert!(report.contains("streams restricted"));
        assert!(report.contains("via relaxation"));
        assert!(report.contains("housed in"), "contributing rule listed");
        assert!(report.contains("stage timing"), "trace section renders");
        assert!(report.contains("query"), "query span listed: {report}");
    }

    #[test]
    fn processing_report_omits_stage_timing_when_tracing_is_off() {
        let store = paper_store();
        let rules = paper_rules(&store);
        let mut system = crate::Trinit::from_parts(store, rules);
        system.set_obs(trinit_obs::ObsConfig::off());
        let outcome = system.query("?x bornIn Ulm").unwrap();
        let report = processing_report(system.store(), system.rules(), &outcome);
        assert!(report.contains("internal processing steps"));
        assert!(!report.contains("stage timing"));
    }

    #[test]
    fn duplicate_rules_collapse_in_explanation() {
        use trinit_query::{Answer, Bindings, Derivation};
        use trinit_relax::RuleId;
        let store = paper_store();
        let rules = paper_rules(&store);
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "bornIn", "Ulm")
            .build();
        let answer = Answer {
            key: vec![],
            bindings: Bindings::new(0),
            score: -1.0,
            derivation: Derivation {
                triples: vec![],
                rules: vec![RuleId(0), RuleId(0), RuleId(1)],
                rule_weight: 0.8,
            },
        };
        let store = ShardedStore::from_shards(vec![store]);
        let e = explain(&store, &q, &rules, &answer);
        assert_eq!(e.rules.len(), 2);
    }
}
