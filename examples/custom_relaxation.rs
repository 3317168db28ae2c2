//! The relaxation-operator plug-in API (paper §3): "TriniT has an API for
//! relaxation operators, which administrators and advanced users can use
//! to plug in their code for generating relaxation rules and their
//! weights."
//!
//! This example implements a custom operator — a naive string-similarity
//! relaxer that connects predicates whose labels share a word stem — and
//! composes it with the built-in XKG co-occurrence miner.
//!
//! ```text
//! cargo run --release --example custom_relaxation
//! ```

use trinit_core::relax::{
    CooccurrenceOperator, OperatorRegistry, RelaxationOperator, Rule, RuleProvenance,
};
use trinit_core::xkg::XkgStore;
use trinit_core::worldgen::{CorpusConfig, KgConfig, World, WorldConfig};
use trinit_core::{Trinit, TrinitBuilder};

/// Custom operator: predicates whose labels share a token of length ≥ 4
/// are considered related, weighted by Jaccard overlap of their label
/// words. (A toy stand-in for the statistical/semantic relatedness
/// measures the paper cites, e.g. ESA.)
struct LabelSimilarityOperator {
    min_weight: f64,
}

fn label_words(label: &str) -> Vec<String> {
    label
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| w.len() >= 4)
        .map(|w| w.to_lowercase())
        .collect()
}

impl RelaxationOperator for LabelSimilarityOperator {
    fn name(&self) -> &str {
        "label-similarity"
    }

    fn generate(&self, store: &XkgStore) -> Vec<Rule> {
        let preds: Vec<_> = store
            .predicates()
            .iter()
            .filter_map(|&p| store.dict().resolve(p).map(|label| (p, label_words(label))))
            .collect();
        let mut rules = Vec::new();
        for (i, (p1, w1)) in preds.iter().enumerate() {
            for (p2, w2) in preds.iter().skip(i + 1) {
                let shared = w1.iter().filter(|w| w2.contains(w)).count();
                if shared == 0 {
                    continue;
                }
                let union = w1.len() + w2.len() - shared;
                let weight = shared as f64 / union.max(1) as f64;
                if weight < self.min_weight {
                    continue;
                }
                let label = |a, b| {
                    format!(
                        "label-sim: {} => {}",
                        store.display_term(a),
                        store.display_term(b)
                    )
                };
                rules.push(Rule::predicate_rewrite(
                    label(*p1, *p2),
                    *p1,
                    *p2,
                    weight,
                    RuleProvenance::UserDefined,
                ));
                rules.push(Rule::predicate_rewrite(
                    label(*p2, *p1),
                    *p2,
                    *p1,
                    weight,
                    RuleProvenance::UserDefined,
                ));
            }
        }
        rules
    }
}

fn main() {
    let world = World::generate(WorldConfig::tiny(99).scaled(2.0));
    let mut builder =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(5));
    // Keep only manual composition: disable the default miners so the
    // registry below is the single source of rules.
    builder.options_mut().mine_cooccurrence = false;
    builder.options_mut().mine_granularity = false;
    let system: Trinit = builder.build();

    // Compose the built-in miner with the custom operator explicitly.
    let mut registry = OperatorRegistry::new();
    registry.register(Box::new(CooccurrenceOperator::default()));
    registry.register(Box::new(LabelSimilarityOperator { min_weight: 0.3 }));
    let rules = registry.build_rules(system.store());

    println!("operators: {:?}", registry.names());
    println!("rules generated: {}", rules.len());
    println!("\nsample rules:");
    for (_, rule) in rules.iter().take(12) {
        println!("  [{:.2}] {}  ({:?})", rule.weight, rule.label, rule.provenance);
    }

    // Run one query with the composed rule set via a throwaway system.
    let person = world
        .of_type(trinit_core::worldgen::EntityType::Person)
        .first()
        .map(|&id| world.entity(id).resource.clone())
        .expect("world has people");
    let query = format!("{person} affiliation ?x LIMIT 5");
    let parsed = system.parse(&query).expect("parses");
    let outcome = system.run_with_rules(parsed, trinit_core::Engine::IncrementalTopK, &rules);
    println!("\n{query}");
    println!(
        "answers: {}   relaxations opened: {}",
        outcome.answers.len(),
        outcome.metrics.relaxations_opened
    );
}
