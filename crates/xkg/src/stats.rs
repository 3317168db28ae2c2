//! Store statistics: argument sets and heap byte accounting.
//!
//! The relaxation miner (paper §3) needs `args(p)` — the set of
//! (subject, object) pairs connected by predicate `p` in the XKG —
//! read off `p`'s permutation range, so it is exact and never scans
//! the full triple table. Query suggestion probes a token's own pairs
//! instead of reading every predicate's (`trinit_core::suggest`), so
//! no whole-store statistics pass is kept.

use crate::pattern::SlotPattern;
use crate::store::XkgStore;
use crate::term::TermId;

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
    fn args_pairs_are_sorted_and_distinct() {
        let store = sample();
        let p = store.resource("p").unwrap();
        let pairs = args_pairs(&store, p);
        assert_eq!(pairs.len(), 3);
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }
}
