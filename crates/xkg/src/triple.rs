//! Triples and their provenance.
//!
//! The XKG holds two strata of facts (paper §2):
//!
//! * **KG triples** — curated facts from the base knowledge graph (the
//!   paper uses Yago2s). High confidence, no textual source.
//! * **XKG triples** — token triples harvested by Open IE from text
//!   sources. Lower confidence, annotated with the documents they were
//!   extracted from and a support count (how often the extraction was
//!   observed).
//!
//! Triples are deduplicated on `(s, p, o)`; provenance of duplicates is
//! merged (support accumulates, confidence takes the maximum, sources are
//! unioned).

use std::fmt;

use crate::term::TermId;

/// A subject–predicate–object triple over interned terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject term.
    pub s: TermId,
    /// Predicate term.
    pub p: TermId,
    /// Object term.
    pub o: TermId,
}

impl Triple {
    /// Creates a triple.
    #[inline]
    pub fn new(s: TermId, p: TermId, o: TermId) -> Triple {
        Triple { s, p, o }
    }

    /// Returns the triple's terms in `(s, p, o)` order.
    #[inline]
    pub fn spo(self) -> [TermId; 3] {
        [self.s, self.p, self.o]
    }
}

/// Dense identifier of a stored (deduplicated) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TripleId(pub u32);

impl TripleId {
    /// The triple id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an interned provenance source (document / URL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

/// Which stratum of the extended knowledge graph a fact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphTag {
    /// Curated base knowledge graph (e.g. Yago2s in the paper).
    Kg,
    /// Open IE extension triples (e.g. ClueWeb extractions in the paper).
    Xkg,
}

impl fmt::Display for GraphTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GraphTag::Kg => "KG",
            GraphTag::Xkg => "XKG",
        })
    }
}

/// Provenance metadata attached to a stored triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// Stratum the fact belongs to. A fact asserted in both strata is
    /// recorded as [`GraphTag::Kg`] (the curated stratum dominates).
    pub graph: GraphTag,
    /// Extraction confidence in `[0, 1]`. Curated KG facts carry `1.0`.
    pub confidence: f32,
    /// Number of independent observations of this fact (an Open IE fact
    /// extracted from many sentences has high support). Curated facts have
    /// support 1 unless re-asserted.
    pub support: u32,
    /// Documents the fact was extracted from (empty for curated facts).
    pub sources: Vec<SourceId>,
}

impl Provenance {
    /// Provenance for a curated KG fact.
    pub fn kg() -> Provenance {
        Provenance {
            graph: GraphTag::Kg,
            confidence: 1.0,
            support: 1,
            sources: Vec::new(),
        }
    }

    /// Provenance for an Open IE extraction observed once in `source`.
    ///
    /// `confidence` is clamped to `[0, 1]`.
    pub fn extraction(confidence: f32, source: SourceId) -> Provenance {
        Provenance {
            graph: GraphTag::Xkg,
            confidence: confidence.clamp(0.0, 1.0),
            support: 1,
            sources: vec![source],
        }
    }

    /// Merges another observation of the same `(s, p, o)` fact into this
    /// provenance record.
    ///
    /// Support accumulates, confidence takes the maximum observed value,
    /// sources are unioned, and the stratum is promoted to KG if either
    /// observation is curated.
    pub fn absorb(&mut self, other: &Provenance) {
        self.support = self.support.saturating_add(other.support);
        if other.confidence > self.confidence {
            self.confidence = other.confidence;
        }
        if other.graph == GraphTag::Kg {
            self.graph = GraphTag::Kg;
        }
        for &src in &other.sources {
            self.add_source(src);
        }
    }

    /// [`Provenance::absorb`] of `Provenance::extraction(confidence,
    /// source)` for a `confidence` already in `[0, 1]`, without building
    /// that one-source record.
    pub(crate) fn absorb_extraction(&mut self, confidence: f32, source: SourceId) {
        self.support = self.support.saturating_add(1);
        if confidence > self.confidence {
            self.confidence = confidence;
        }
        self.add_source(source);
    }

    /// Unions one source into `sources`. A build feeds sources in
    /// document order, so a repeat is usually the last one; the scan is
    /// the fallback.
    fn add_source(&mut self, src: SourceId) {
        if self.sources.last() != Some(&src) && !self.sources.contains(&src) {
            self.sources.push(src);
        }
    }

    /// The emission weight of the fact used by posting lists: the tf-like
    /// component of the paper's scoring model (§4), `support × confidence`.
    #[inline]
    pub fn weight(&self) -> f64 {
        f64::from(self.support) * f64::from(self.confidence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{TermId, TermKind};

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    #[test]
    fn kg_provenance_defaults() {
        let p = Provenance::kg();
        assert_eq!(p.graph, GraphTag::Kg);
        assert_eq!(p.confidence, 1.0);
        assert_eq!(p.support, 1);
        assert!(p.sources.is_empty());
        assert_eq!(p.weight(), 1.0);
    }

    #[test]
    fn extraction_confidence_is_clamped() {
        let p = Provenance::extraction(1.7, SourceId(0));
        assert_eq!(p.confidence, 1.0);
        let p = Provenance::extraction(-0.3, SourceId(0));
        assert_eq!(p.confidence, 0.0);
    }

    #[test]
    fn absorb_accumulates_support_and_sources() {
        let mut a = Provenance::extraction(0.6, SourceId(1));
        let b = Provenance::extraction(0.8, SourceId(2));
        a.absorb(&b);
        assert_eq!(a.support, 2);
        assert!((a.confidence - 0.8).abs() < 1e-6);
        assert_eq!(a.sources, vec![SourceId(1), SourceId(2)]);
        assert_eq!(a.graph, GraphTag::Xkg);
    }

    #[test]
    fn absorb_dedups_sources() {
        let mut a = Provenance::extraction(0.6, SourceId(1));
        let b = Provenance::extraction(0.5, SourceId(1));
        a.absorb(&b);
        assert_eq!(a.sources, vec![SourceId(1)]);
        assert_eq!(a.support, 2);
    }

    #[test]
    fn kg_stratum_dominates() {
        let mut a = Provenance::extraction(0.6, SourceId(1));
        a.absorb(&Provenance::kg());
        assert_eq!(a.graph, GraphTag::Kg);
        assert_eq!(a.confidence, 1.0);
    }

    #[test]
    fn weight_combines_support_and_confidence() {
        let mut p = Provenance::extraction(0.5, SourceId(0));
        p.support = 10;
        assert!((p.weight() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn triple_accessors() {
        let t = Triple::new(tid(1), tid(2), tid(3));
        assert_eq!(t.spo(), [tid(1), tid(2), tid(3)]);
        assert_eq!(TripleId(4).idx(), 4);
    }
}
