//! Integration: auto-completion (paper §5) is served by the term
//! dictionary itself, so it equals the index the facade once built as a
//! second copy of the vocabulary, and it follows ingest and compaction.

use std::collections::BTreeSet;

use trinit_core::fixtures::{paper_rules, paper_store};
use trinit_core::worldgen::{CorpusConfig, KgConfig, World, WorldConfig};
use trinit_core::xkg::{TermDict, TermKind};
use trinit_core::{Completion, Trinit, TrinitBuilder};

/// The completion index the facade used to build beside the dictionary:
/// every term as `(lowercase text, text, kind)`, sorted; a prefix is
/// lowercased, searched for, and its matches taken in that order.
struct Reference {
    entries: Vec<(String, String, TermKind)>,
}

impl Reference {
    fn build(dict: &TermDict) -> Reference {
        let mut entries: Vec<(String, String, TermKind)> = dict
            .iter()
            .map(|(id, text)| (text.to_lowercase(), text.to_string(), id.kind()))
            .collect();
        entries.sort();
        entries.dedup();
        Reference { entries }
    }

    fn complete(&self, prefix: &str, limit: usize) -> Vec<Completion> {
        let needle = prefix.to_lowercase();
        let start = self.entries.partition_point(|(low, _, _)| low < &needle);
        self.entries[start..]
            .iter()
            .take_while(|(low, _, _)| low.starts_with(&needle))
            .take(limit)
            .map(|(_, text, kind)| Completion {
                text: text.clone(),
                kind: *kind,
            })
            .collect()
    }
}

/// Every prefix of every term of `sys`'s vocabulary, as typed and
/// upper-cased, completes as the reference does: same texts, kinds,
/// order and truncation.
fn assert_completion_matches_reference(sys: &Trinit) {
    let reference = Reference::build(sys.store().dict());
    let mut prefixes = BTreeSet::new();
    for (_, text) in sys.store().dict().iter() {
        let cuts = text.char_indices().map(|(at, _)| at).chain([text.len()]);
        for prefix in cuts.map(|at| &text[..at]) {
            prefixes.insert(prefix.to_string());
            prefixes.insert(prefix.to_uppercase());
        }
    }
    for prefix in &prefixes {
        for limit in [1, 10] {
            assert_eq!(
                sys.complete(prefix, limit),
                reference.complete(prefix, limit),
                "prefix {prefix:?}, limit {limit}"
            );
        }
    }
    let everything = sys.store().dict().len();
    assert_eq!(
        sys.complete("", usize::MAX),
        reference.complete("", usize::MAX)
    );
    assert_eq!(sys.complete("", usize::MAX).len(), everything);
}

#[test]
fn completion_equals_the_reference_for_every_prefix() {
    let store = paper_store();
    let rules = paper_rules(&store);
    assert_completion_matches_reference(&Trinit::from_parts(store, rules));

    let world = World::generate(WorldConfig::demo(42).scaled(0.05));
    let sys =
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(42)).build();
    assert_completion_matches_reference(&sys);
}

/// A resource first seen in an ingest batch answers queries, so it is
/// completed too — while the delta is live and after it is compacted.
#[test]
fn a_resource_an_ingest_introduces_is_completed_before_and_after_compaction() {
    let store = paper_store();
    let rules = paper_rules(&store);
    let mut sys = Trinit::from_parts(store, rules);
    assert!(sys.complete("ethz", 5).is_empty());
    sys.ingest(|b| {
        b.add_kg_resources("AlbertEinstein", "affiliation", "ETHZurich");
    });
    let zurich = Completion {
        text: "ETHZurich".to_string(),
        kind: TermKind::Resource,
    };
    for compacted in [false, true] {
        if compacted {
            sys.compact();
        }
        let answers = sys.query("?x affiliation ETHZurich").unwrap().answers;
        assert_eq!(answers.len(), 1, "compacted: {compacted}");
        let only = std::slice::from_ref(&zurich);
        assert_eq!(sys.complete("ethz", 5), only, "compacted: {compacted}");
        assert_eq!(sys.complete("ETHZ", 1), only, "compacted: {compacted}");
        assert_completion_matches_reference(&sys);
    }
}
