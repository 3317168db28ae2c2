//! Store statistics: predicate inventory, argument sets, selectivity.
//!
//! The relaxation miner (paper §3) needs `args(p)` — the set of
//! (subject, object) pairs connected by predicate `p` in the XKG. It and
//! the per-predicate statistics are derived from the store's precomputed
//! posting-index predicate groups and permutation ranges, so they are
//! exact and never scan the full triple table per predicate.

use std::collections::HashMap;

use crate::pattern::SlotPattern;
use crate::store::XkgStore;
use crate::term::TermId;
use crate::triple::GraphTag;

/// Aggregate statistics for one predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateStats {
    /// The predicate term.
    pub predicate: TermId,
    /// Number of distinct triples under this predicate.
    pub triples: usize,
    /// Number of distinct subjects.
    pub distinct_subjects: usize,
    /// Number of distinct objects.
    pub distinct_objects: usize,
    /// Number of triples in the curated KG stratum.
    pub kg_triples: usize,
    /// Total emission weight (`Σ support × confidence`).
    pub total_weight: f64,
}

/// Exact heap byte accounting of a frozen store, per structure.
///
/// Computed from container capacities at the time of the call (the
/// store is immutable after freeze, so the numbers are stable). The
/// *index* share — what the [`SegmentLayout`](crate::SegmentLayout)
/// choice changes — is split from the payload tables (triples,
/// provenance, dictionary), which are layout-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBytes {
    /// The three permutation key/id columns (flat or bit-packed).
    pub permutations: usize,
    /// The packed permutations' sparse selection directories.
    pub permutation_directories: usize,
    /// The four posting strata's entry columns (flat entries + prefix
    /// sums, or packed ids + quantized weight codes).
    pub posting_strata: usize,
    /// Posting directories: the predicate group map plus the packed
    /// layout's exact-f64 scaffolding (checkpoints, group totals).
    pub posting_directories: usize,
    /// The term dictionary (string payloads + tables).
    pub dict: usize,
    /// The raw triple table.
    pub triples: usize,
    /// Provenance records including their source lists.
    pub provenance: usize,
}

impl StorageBytes {
    /// Bytes spent on derived index structures — the share the segment
    /// layout controls (permutations + posting strata + directories).
    pub fn index_bytes(&self) -> usize {
        self.permutations
            + self.permutation_directories
            + self.posting_strata
            + self.posting_directories
    }

    /// Total heap bytes across every structure.
    pub fn total(&self) -> usize {
        self.index_bytes() + self.dict + self.triples + self.provenance
    }

    /// Index bytes per triple (0.0 for an empty store).
    pub fn bytes_per_triple(&self, triples: usize) -> f64 {
        if triples == 0 {
            0.0
        } else {
            self.index_bytes() as f64 / triples as f64
        }
    }
}

/// Statistics over an entire store.
#[derive(Debug, Default)]
pub struct StoreStats {
    by_predicate: HashMap<TermId, PredicateStats>,
    predicates: Vec<TermId>,
}

impl StoreStats {
    /// Computes statistics for every predicate in `store`, walking the
    /// posting index's per-predicate groups (each group is visited once;
    /// counts and total weights come straight from the group).
    pub fn compute(store: &XkgStore) -> StoreStats {
        let predicates: Vec<TermId> = store.predicates().to_vec();
        let mut by_predicate: HashMap<TermId, PredicateStats> =
            HashMap::with_capacity(predicates.len());
        let mut subs: Vec<TermId> = Vec::new();
        let mut objs: Vec<TermId> = Vec::new();
        for &p in &predicates {
            // Every entry is read, so a Packed group is collected whole.
            let group = store.predicate_group(p);
            let entries = group.entries();
            let mut kg_triples = 0;
            let mut total_weight = 0.0f64;
            subs.clear();
            objs.clear();
            for e in entries.iter() {
                let t = store.triple(e.triple);
                subs.push(t.s);
                objs.push(t.o);
                total_weight += e.weight;
                if store.provenance(e.triple).graph == GraphTag::Kg {
                    kg_triples += 1;
                }
            }
            subs.sort_unstable();
            subs.dedup();
            objs.sort_unstable();
            objs.dedup();
            by_predicate.insert(
                p,
                PredicateStats {
                    predicate: p,
                    triples: group.len(),
                    distinct_subjects: subs.len(),
                    distinct_objects: objs.len(),
                    kg_triples,
                    total_weight,
                },
            );
        }
        StoreStats {
            by_predicate,
            predicates,
        }
    }

    /// All predicates in deterministic (term id) order.
    pub fn predicates(&self) -> &[TermId] {
        &self.predicates
    }

    /// Statistics for one predicate, if present in the store.
    pub fn get(&self, predicate: TermId) -> Option<&PredicateStats> {
        self.by_predicate.get(&predicate)
    }
}

/// The exact set of (subject, object) pairs under predicate `p` — the
/// paper's `args(p)` (§3), deduplicated and sorted.
pub fn args_pairs(store: &XkgStore, p: TermId) -> Vec<(TermId, TermId)> {
    // The range comes in (object, subject) order; integers sort fastest.
    let mut pairs: Vec<u64> = store
        .lookup(&SlotPattern::with_p(p))
        .iter()
        .map(|&id| {
            let t = store.triple(id);
            u64::from(t.s.raw()) << 32 | u64::from(t.o.raw())
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let term = |raw: u64| TermId::from_raw(raw as u32);
    pairs
        .into_iter()
        .map(|pair| (term(pair >> 32), term(pair)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::XkgBuilder;

    fn sample() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("a", "p", "x");
        b.add_kg_resources("a", "p", "y");
        b.add_kg_resources("b", "p", "x");
        b.add_kg_resources("a", "q", "x");
        let s = b.dict_mut().resource("a");
        let p = b.dict_mut().token("said to");
        let o = b.dict_mut().resource("b");
        let src = b.intern_source("d0");
        b.add_extracted(s, p, o, 0.5, src);
        b.build()
    }

    #[test]
    fn predicate_inventory() {
        let store = sample();
        let stats = StoreStats::compute(&store);
        assert_eq!(stats.predicates().len(), 3);
        let p = store.resource("p").unwrap();
        let ps = stats.get(p).unwrap();
        assert_eq!(ps.triples, 3);
        assert_eq!(ps.distinct_subjects, 2);
        assert_eq!(ps.distinct_objects, 2);
        assert_eq!(ps.kg_triples, 3);
    }

    #[test]
    fn token_predicates_are_included() {
        let store = sample();
        let stats = StoreStats::compute(&store);
        let said = store.token("said to").unwrap();
        let ss = stats.get(said).unwrap();
        assert_eq!(ss.triples, 1);
        assert_eq!(ss.kg_triples, 0);
        assert!((ss.total_weight - 0.5).abs() < 1e-6);
    }

    #[test]
    fn args_pairs_are_sorted_and_distinct() {
        let store = sample();
        let p = store.resource("p").unwrap();
        let pairs = args_pairs(&store, p);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_store_stats() {
        let store = XkgBuilder::new().build();
        let stats = StoreStats::compute(&store);
        assert!(stats.predicates().is_empty());
    }
}
