//! KG incompleteness end-to-end: watch a fact disappear from the KG and
//! come back through the XKG extension (paper §1/§2).
//!
//! Generates one world twice: once projected into a *complete* KG and
//! once into a heavily incomplete one, then shows how many benchmark-style
//! affiliation queries each setting can answer — without and with the
//! Open IE extension + relaxation.
//!
//! ```text
//! cargo run --release --example incomplete_kg
//! ```

use trinit_core::query::exec::expand;
use trinit_core::relax::RuleSet;
use trinit_core::shard::ShardedStore;
use trinit_core::worldgen::{
    project_kg, CorpusConfig, EntityType, KgConfig, World, WorldConfig,
};
use trinit_core::{Engine, Trinit, TrinitBuilder};

/// How many `queries` get an answer: from top-k with relaxation, or from
/// exact evaluation (full expansion with no rules) on the system's one
/// frozen slice.
fn answered(system: &Trinit, relax: bool, queries: &[String]) -> usize {
    let slice = system.segmented_store();
    let slice = slice.and_then(ShardedStore::single_slice);
    let slice = slice.expect("a frozen monolith is one slice");
    let (no_rules, options) = (RuleSet::new(), system.topk_config().reference_expansion());
    let answers = |parsed| {
        if relax {
            system.run(parsed, Engine::IncrementalTopK).answers
        } else {
            expand::run(slice, &parsed, &no_rules, &options).0
        }
    };
    queries
        .iter()
        .filter(|q| {
            system
                .parse(q)
                .map(|parsed| !answers(parsed).is_empty())
                .unwrap_or(false)
        })
        .count()
}

fn main() {
    let world = World::generate(WorldConfig::demo(21).scaled(0.1));
    let people = world.of_type(EntityType::Person);
    let queries: Vec<String> = people
        .iter()
        .take(40)
        .map(|&id| format!("{} affiliation ?x LIMIT 5", world.entity(id).resource))
        .collect();

    println!("40 affiliation queries against three settings:\n");
    for (label, coverage, with_corpus) in [
        ("complete KG, no text", 1.0, false),
        ("incomplete KG (40% coverage), no text", 0.4, false),
        ("incomplete KG (40% coverage) + XKG + relaxation", 0.4, true),
    ] {
        let kg_cfg = KgConfig {
            seed: 5,
            coverage_scale: coverage,
        };
        let mut corpus = CorpusConfig::tiny(9);
        if with_corpus {
            corpus.documents = 800;
        } else {
            corpus.documents = 0;
        }
        let system = TrinitBuilder::from_world(&world, &kg_cfg, &corpus).build();
        let n = answered(&system, with_corpus, &queries);
        println!(
            "{label:<48} answered {n:>2}/40   (store: {} triples, {} rules)",
            system.stats().total_triples(),
            system.stats().rules,
        );
        // Keep the incomplete-KG projection around for curiosity stats.
        if !with_corpus && coverage < 1.0 {
            let projection = project_kg(&world, &kg_cfg);
            let dropped = projection.included.iter().filter(|&&b| !b).count();
            println!(
                "{:<48} ({} of {} world facts absent from this KG)",
                "", dropped,
                projection.included.len()
            );
        }
    }

    println!(
        "\nThe third row is the paper's thesis: extraction from text plus\n\
         query relaxation recovers answers the curated KG lost."
    );
}
