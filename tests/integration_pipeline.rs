//! Integration: worldgen → KG projection → corpus → Open IE → XKG store.
//!
//! Exercises the full build pipeline across crates and checks the
//! invariants the downstream query layer depends on.

use trinit_core::openie::{
    extract_sentence, IngestStats, Lexicon, Linker, OpenIePipeline, PipelineConfig,
};
use trinit_core::worldgen::corpus::{generate_corpus, Document};
use trinit_core::worldgen::{
    alias_catalog, project_kg, CorpusConfig, EntityType, KgConfig, Relation, World, WorldConfig,
};
use trinit_core::xkg::{GraphTag, SlotPattern, TermKind, XkgBuilder};
use trinit_core::{BuildOptions, TrinitBuilder};
use trinit_eval::{build_world, EvalConfig};

#[path = "support/openie_reference.rs"]
mod openie_reference;

fn build_system(seed: u64) -> (World, trinit_core::Trinit) {
    let world = World::generate(WorldConfig::tiny(seed).scaled(2.0));
    let system =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(seed)).build();
    (world, system)
}

#[test]
fn pipeline_produces_both_strata_and_rules() {
    let (_, system) = build_system(3);
    let stats = system.stats();
    assert!(stats.kg_triples > 0);
    assert!(stats.xkg_triples > 0);
    assert!(stats.rules > 0);
    assert!(stats.ingest.sentences > 0);
    assert!(stats.ingest.kept > 0);
    assert!(stats.ingest.link_rate() > 0.2, "most arguments should link");
}

#[test]
fn kg_facts_are_loaded_verbatim() {
    let world = World::generate(WorldConfig::tiny(5));
    let kg = project_kg(&world, &KgConfig::default());
    let system =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(5)).build();
    // Every projected KG fact must be findable in the store.
    for fact in kg.facts.iter().take(50) {
        let s = system.store().resource(&fact.subject);
        let p = system.store().resource(&fact.predicate);
        assert!(s.is_some(), "missing subject {}", fact.subject);
        assert!(p.is_some(), "missing predicate {}", fact.predicate);
        let o = if fact.object_is_literal {
            system.store().literal(&fact.object)
        } else {
            system.store().resource(&fact.object)
        };
        assert!(o.is_some(), "missing object {}", fact.object);
        let pattern = SlotPattern::new(s, p, o);
        assert_eq!(system.store().count(&pattern), 1, "{fact:?}");
    }
}

#[test]
fn text_only_relations_appear_only_in_xkg_stratum() {
    let (_, system) = build_system(7);
    // 'housed in'/'lectured at' style predicates are tokens; every triple
    // under a token predicate must be in the XKG stratum.
    let store = system.store();
    for (id, t) in store.iter() {
        if t.p.is_token() {
            assert_eq!(store.provenance(id).graph, GraphTag::Xkg);
            assert!(store.provenance(id).confidence <= 1.0);
            assert!(!store.provenance(id).sources.is_empty());
        }
    }
}

#[test]
fn dropped_facts_are_recoverable_from_text() {
    // With a large-enough corpus, at least one fact absent from the KG
    // must be recoverable via a token predicate in the XKG.
    let world = World::generate(WorldConfig::tiny(11).scaled(2.0));
    let kg = project_kg(&world, &KgConfig::default());
    let mut corpus = CorpusConfig::tiny(11);
    corpus.documents = 400;
    let system = TrinitBuilder::from_world(&world, &KgConfig::default(), &corpus).build();

    let mut recovered = 0;
    for (i, f) in world.facts.iter().enumerate() {
        if kg.included[i] || f.relation != Relation::AffiliatedWith {
            continue;
        }
        let subject = system.store().resource(&world.entity(f.subject).resource);
        let Some(subject) = subject else { continue };
        // Any token-predicate triple with this subject counts as textual
        // evidence reaching the store.
        let matches = system
            .store()
            .lookup(&SlotPattern::new(Some(subject), None, None));
        if matches
            .iter()
            .any(|&id| system.store().triple(id).p.is_token())
        {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no dropped facts reached the XKG");
}

#[test]
fn alias_catalog_feeds_linking_ambiguity() {
    let world = World::generate(WorldConfig::tiny(13).scaled(3.0));
    let catalog = alias_catalog(&world);
    // Shared surnames must produce ambiguous aliases.
    let mut by_alias: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for e in &catalog {
        *by_alias.entry(e.alias.as_str()).or_insert(0) += 1;
    }
    assert!(
        by_alias.values().any(|&n| n > 1),
        "expected at least one ambiguous surface form"
    );
}

#[test]
fn corpus_is_pure_text() {
    let world = World::generate(WorldConfig::tiny(17));
    let kg = project_kg(&world, &KgConfig::default());
    let docs = generate_corpus(&world, &kg.included, &CorpusConfig::tiny(17));
    for d in &docs {
        assert!(d.id.starts_with("synthweb:doc-"));
        for s in &d.sentences {
            assert!(!s.contains("{s}") && !s.contains("{o}"), "{s}");
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let (_, a) = build_system(23);
    let (_, b) = build_system(23);
    assert_eq!(a.stats().kg_triples, b.stats().kg_triples);
    assert_eq!(a.stats().xkg_triples, b.stats().xkg_triples);
    assert_eq!(a.stats().rules, b.stats().rules);
}

#[test]
fn popular_entities_dominate_mentions() {
    let world = World::generate(WorldConfig::tiny(29).scaled(2.0));
    let kg = project_kg(&world, &KgConfig::default());
    let docs = generate_corpus(&world, &kg.included, &CorpusConfig::tiny(29));
    let text: String = docs
        .iter()
        .flat_map(|d| d.sentences.iter())
        .cloned()
        .collect::<Vec<_>>()
        .join(" ");
    let people = world.of_type(EntityType::Person);
    let head = world.entity(people[0]);
    let tail = world.entity(*people.last().unwrap());
    let count = |name: &str| text.matches(name).count();
    assert!(
        count(&head.name) + count(&head.aliases[1]) >= count(&tail.name),
        "Zipf head should be mentioned at least as often as the tail"
    );
}

/// Sentences off the corpus generator's beaten path: abbreviations in
/// every case, numbers and dates with trailing `.`/`,`, punctuation-only
/// words, empty text, odd whitespace, non-ASCII capitals, the Kelvin
/// sign (which lowercases to ASCII `k`) and Greek final sigma.
const EDGE_SENTENCES: &[&str] = &[
    "",
    "   ",
    "... -- !! ??",
    "Prof. Klinberg met St. Velmora at Dr. Ada's house.",
    "PROF. Drat lectured at ST. Kloue University and mr. Lum worked at MS. Ada.",
    "Prof., Drat, lectured at St.. Kloue.",
    "It was founded in 1,204., and closed on 1879-03-14, after 3.14. years.",
    "Ada Lum was born on 1854-02-12.. and died in 12,5.",
    "Ada Lum -- !! lectured at ?? Velmora University .",
    "Ada\tLum\nlectured  at\u{a0}Velmora.",
    "The Committee was housed in the Kloue Hall.",
    "Émile Durand lectured at İstanbul University.",
    "ÉMILE lectured in İSTANBUL and ÉCOLE NORMALE.",
    "\u{212a}elvin Lum wor\u{212a}ed at Velmora.",
    "Ada Lum won the δωροΣ for ΟΔΥΣΣΕΑΣ.",
    "ΟΔΥΣΣΕΑΣ lectured at ΑΘΗΝΑΣ Σ and studied the ΛΟΓΟΣ of Σ.",
    "the of in",
];

/// The corpus of `EvalConfig { seed: 42, scale: 0.25 }`, its alias
/// catalog as linker entries, and the edge sentences as one more
/// document.
fn eval_corpus() -> (Vec<Document>, Vec<(String, String, f64)>) {
    let cfg = EvalConfig {
        seed: 42,
        scale: 0.25,
        ..EvalConfig::default()
    };
    let (world, kg) = build_world(&cfg);
    let mut docs = generate_corpus(&world, &kg.included, &cfg.corpus_config());
    docs.push(Document {
        id: "edge".to_string(),
        sentences: EDGE_SENTENCES.iter().map(|s| s.to_string()).collect(),
    });
    let aliases = alias_catalog(&world)
        .into_iter()
        .map(|e| (e.alias, e.resource, e.popularity));
    (docs, aliases.collect())
}

#[test]
fn one_pass_extraction_equals_the_reference_sentence_for_sentence() {
    let (docs, _) = eval_corpus();
    let lexicon = Lexicon::english();
    let mut sentences = 0;
    for sentence in docs.iter().flat_map(|d| &d.sentences) {
        let expected = openie_reference::extractor::extract_sentence(&lexicon, sentence);
        let got = extract_sentence(&lexicon, sentence);
        assert_eq!(got, expected, "{sentence:?}");
        sentences += 1;
    }
    assert_eq!(sentences, 16_000 + EDGE_SENTENCES.len());
}

#[test]
fn one_pass_ingest_builds_the_reference_builder() {
    let (docs, aliases) = eval_corpus();
    let dominance = BuildOptions::default().linker_dominance;
    let pipeline = OpenIePipeline::new(Linker::new(aliases.clone(), dominance));
    let linker = Linker::new(aliases, dominance);
    let (lexicon, floor) = (Lexicon::english(), PipelineConfig::default().min_confidence);
    // Fresh, and over KG facts the extractions land on.
    for kg_first in [false, true] {
        let (mut got, mut want) = (XkgBuilder::new(), XkgBuilder::new());
        if kg_first {
            for b in [&mut got, &mut want] {
                b.add_kg_resources("Ada Lum", "lectured at", "Velmora University");
            }
        }
        let (mut got_stats, mut want_stats) = (IngestStats::default(), IngestStats::default());
        for d in &docs {
            got_stats.merge(&pipeline.ingest(&d.id, &d.sentences, &mut got));
            let reference = openie_reference::pipeline::ingest(
                &lexicon,
                &linker,
                floor,
                &d.id,
                &d.sentences,
                &mut want,
            );
            want_stats.merge(&reference);
        }
        assert_eq!(got_stats, want_stats);
        assert!(got_stats.kept > 10_000 && got_stats.linked_args > 0 && got_stats.token_args > 0);
        assert_eq!(got.triples(), want.triples());
        assert_eq!(got.provenances(), want.provenances());
        for kind in [TermKind::Resource, TermKind::Token, TermKind::Literal] {
            let terms = |b: &XkgBuilder| {
                b.dict()
                    .iter_kind(kind)
                    .map(|(id, text)| (id, text.to_string()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(terms(&got), terms(&want), "{kind:?}");
        }
    }
}
