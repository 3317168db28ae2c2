//! Query execution engines.
//!
//! Three engines over the same store and scoring model:
//!
//! * [`exact`] — conjunctive evaluation of one (possibly rewritten)
//!   query, no relaxation. The baseline a non-relaxing SPARQL-style
//!   system provides.
//! * [`expand`] — *full-expansion* processing: materialize every
//!   relaxation of the query up front, evaluate each exhaustively, merge.
//!   Correct but "prohibitively expensive" (paper §4); serves as the
//!   reference implementation and efficiency baseline.
//! * [`topk`] — the paper's incremental top-k processor: per-pattern
//!   incremental merge over lazily opened relaxations (after Theobald et
//!   al. \[11\]) combined by a rank join with threshold-based termination.
//!
//! The top-k processor is a staged operator pipeline spread over four
//! modules — [`merge`] (sorted-access sources), [`join`] (the
//! hash-partitioned rank join), [`threshold`] (termination policy,
//! including the ε-approximate mass criterion), and [`drive`] (the one
//! entry point `execute(view, request, ctx)`, variant enumeration and
//! the pull loop). [`segmented`] defines what is queried (a
//! [`StoreView`](segmented::StoreView) over store slices, each pattern's
//! merge reading all of them) and [`topk`] re-exports the public
//! surface.
//!
//! **Planning.** One walk (`trinit_relax::apply::walk`) derives every
//! relaxed form at its heaviest derivation, with two step functions. A
//! query's structural variants step with the general matcher
//! (`trinit_relax::expand` over the structural rules, as full expansion
//! over every rule); only a query holding one of their LHS predicates
//! gets any. A stream's relaxation table ([`AltTable`](merge::AltTable))
//! steps with the rules `RuleSet::add` compiled (`SlotRewrite`), once
//! per stream per `execute`, read by the stream's merge on every slice.
//!
//! **Materialization.** A query builds only what can reach its answer.
//! The join asks the collector before it builds a combination
//! ([`AnswerCollector::admits`](crate::answer::AnswerCollector::admits)):
//! one scoring strictly below a full top-k's k-th gets no key, bindings
//! or derivation. A posting list is owned by its one merge — there is no
//! per-execution cache, which measured 0 hits per query on every
//! workload — and goes into a store-level cache only when the caller
//! passes one. Composite shapes (`s p ?o`, `?s p o`) find their exact
//! permutation range with one search and order a range of at most one
//! block directly.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod budget;
pub mod drive;
pub mod exact;
pub mod expand;
#[cfg(feature = "faults")]
pub mod faults;
pub mod join;
pub mod merge;
pub mod segmented;
pub mod threshold;
pub mod topk;

/// Resolves triple ids to triples during the rank join.
///
/// A one-slice view resolves against its
/// [`XkgStore`](trinit_xkg::XkgStore); a multi-slice view resolves
/// *global* ids (slice offset + local id) against the owning slice.
/// Only the lookup the join actually needs is abstracted — everything
/// else the engine touches is per-shard and stays concrete.
pub trait TripleLookup {
    /// The triple with the given id.
    fn triple_of(&self, id: trinit_xkg::TripleId) -> trinit_xkg::Triple;
}

impl TripleLookup for trinit_xkg::XkgStore {
    #[inline]
    fn triple_of(&self, id: trinit_xkg::TripleId) -> trinit_xkg::Triple {
        self.triple(id)
    }
}

/// Counters describing the work an engine performed — the currency in
/// which the paper's efficiency claim (§4) is measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecMetrics {
    /// Posting lists opened (index lookups with scoring). Counted per
    /// open, including borrow-served lists (which cost no allocation);
    /// opens answered by a store-level cache are counted in
    /// [`ExecMetrics::shared_cache_hits`] instead.
    pub posting_lists_built: usize,
    /// Posting lists served from a store-level shared cache (consecutive
    /// queries of a session touching the same canonical pattern, or one
    /// query opening it twice).
    pub shared_cache_hits: usize,
    /// Postings read: entries consumed from (possibly restricted) posting
    /// lists plus the entries a restriction's scan skipped.
    pub postings_scanned: usize,
    /// Relaxed pattern alternatives actually opened.
    pub relaxations_opened: usize,
    /// Query rewritings evaluated: each variant top-k runs, the query
    /// itself included (the facade's delta loop stops at a pass that
    /// runs none), or each one full expansion evaluates (1 with no rules).
    pub rewritings_evaluated: usize,
    /// Join candidate combinations tested.
    pub join_candidates: usize,
    /// Items pulled from the per-pattern incremental merges by the rank
    /// join (sorted-access rounds of the top-k loop).
    pub pulls: usize,
    /// Rank-join streams and query variants retired early by the
    /// tightened (head-bound / remaining-mass) termination threshold.
    pub early_cutoffs: usize,
    /// Posting lists served from the anchored (subject/object) index
    /// strata: in-place serves for s-/o-bound shapes, one-allocation
    /// group filters for the composite shapes. None of these sort.
    pub anchored_serves: usize,
    /// Selective composite serves that materialized and weight-ordered
    /// the permutation index's *exact* match range because it held at
    /// most one block (128) of matches or was ≥4× smaller than every
    /// covering group. These do sort — O(matches · log matches), bounded
    /// above by the group walk they replace — and are deliberately
    /// separate from [`ExecMetrics::posting_sorts`].
    pub ranged_serves: usize,
    /// Posting lists built by the pre-index full materialize-and-sort
    /// fallback (`ServeKind::Scanned`). The precomputed index covers
    /// every shape, so this stays 0; a nonzero count means a pattern
    /// shape regressed onto the unbounded sort path.
    pub posting_sorts: usize,
    /// Rank-join streams and query variants retired by the
    /// ε-approximate remaining-mass criterion
    /// ([`crate::exec::drive::TopkConfig::epsilon`]). Always 0 in exact
    /// (ε = 0) runs.
    pub approx_cutoffs: usize,
    /// Always 0: there is no seed phase. Kept only because the
    /// benchmark harness still reads it.
    pub seed_steals: usize,
    /// Hard budget cutoffs fired by the wall-clock deadline
    /// ([`crate::exec::budget::ExecBudget::deadline`]).
    pub deadline_cutoffs: usize,
    /// Hard budget cutoffs fired by a work limit
    /// ([`crate::exec::budget::ExecBudget::max_pulls`] /
    /// [`crate::exec::budget::ExecBudget::max_answers`]).
    pub budget_cutoffs: usize,
    /// Always 0: there is no seed phase. Kept only because the
    /// benchmark harness still reads it.
    pub seed_skips: usize,
    /// Bound lookups issued by restricted streams, one per key probed.
    pub probe_lookups: usize,
    /// Rank-join streams restricted to a retired stream's join keys.
    pub probed_streams: usize,
    /// Opened lists restricted by one scan of their rest, where key
    /// lookups were priced dearer (the other side issues
    /// [`ExecMetrics::probe_lookups`]).
    pub restriction_scans: usize,
}

impl ExecMetrics {
    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &ExecMetrics) {
        self.posting_lists_built += other.posting_lists_built;
        self.shared_cache_hits += other.shared_cache_hits;
        self.postings_scanned += other.postings_scanned;
        self.relaxations_opened += other.relaxations_opened;
        self.rewritings_evaluated += other.rewritings_evaluated;
        self.join_candidates += other.join_candidates;
        self.pulls += other.pulls;
        self.early_cutoffs += other.early_cutoffs;
        self.anchored_serves += other.anchored_serves;
        self.ranged_serves += other.ranged_serves;
        self.posting_sorts += other.posting_sorts;
        self.approx_cutoffs += other.approx_cutoffs;
        self.seed_steals += other.seed_steals;
        self.deadline_cutoffs += other.deadline_cutoffs;
        self.budget_cutoffs += other.budget_cutoffs;
        self.seed_skips += other.seed_skips;
        self.probe_lookups += other.probe_lookups;
        self.probed_streams += other.probed_streams;
        self.restriction_scans += other.restriction_scans;
    }
}

/// Shared fixtures for the pipeline stages' unit tests.
#[cfg(test)]
pub(crate) mod testfix {
    use std::rc::Rc;

    use trinit_relax::{QPattern, RuleSet};
    use trinit_xkg::{XkgBuilder, XkgStore};

    use crate::answer::Answer;
    use crate::ast::Query;
    use crate::exec::drive::TopkConfig;
    use crate::exec::expand;
    use crate::exec::merge::{AltTable, IncrementalMerge};
    use crate::exec::segmented::StoreView;

    /// A merge over `pattern`'s table on `store` queried on its own: the
    /// pattern's fresh variables start at 10, no cache.
    pub(crate) fn merge<'a>(
        store: &'a XkgStore,
        pattern: &QPattern,
        rules: &RuleSet,
        cfg: &TopkConfig,
    ) -> IncrementalMerge<'a> {
        let table = Rc::new(AltTable::build(pattern, rules, cfg, 10, None));
        IncrementalMerge::new(&StoreView::single(store), 0..1, table, &[], None)
    }

    /// Reference evaluation for the join tests: full expansion to the
    /// depth the engine under `cfg` reaches evaluates every rewriting with
    /// a nested-loop join, so its answer set is exactly what the
    /// hash-partitioned, semijoin-filtered combine must reproduce.
    pub(crate) fn reference(
        store: &XkgStore,
        q: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
    ) -> Vec<Answer> {
        expand::run(store, q, rules, &cfg.reference_expansion()).0
    }

    pub(crate) fn assert_same_answers(a: &[Answer], b: &[Answer]) {
        assert_eq!(a.len(), b.len(), "answer counts differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key, y.key, "answer keys differ");
            assert!((x.score - y.score).abs() < 1e-9, "scores differ");
        }
    }

    /// The small paper-flavoured store the stage tests share: curated
    /// KG facts plus two extractions with sub-1.0 confidence.
    pub(crate) fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlfredKleiner", "hasStudent", "AlbertEinstein");
        b.add_kg_resources("AlbertEinstein", "affiliation", "IAS");
        b.add_kg_resources("MaxPlanck", "affiliation", "BerlinUniversity");
        let src = b.intern_source("doc");
        let s = b.dict_mut().resource("IAS");
        let housed = b.dict_mut().token("housed in");
        let o = b.dict_mut().resource("PrincetonUniversity");
        b.add_extracted(s, housed, o, 0.9, src);
        let s2 = b.dict_mut().resource("AlbertEinstein");
        let lectured = b.dict_mut().token("lectured at");
        b.add_extracted(s2, lectured, o, 0.7, src);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::ExecMetrics;

    /// Merge completeness: constructed with *every* field set (as a
    /// full struct literal, so adding a field without updating
    /// [`ExecMetrics::merge`] — and this test — fails to compile),
    /// merging into a default must reproduce every value, and merging
    /// two full sets must sum each field. A field silently dropped by
    /// `merge` fails the round-trip assertion.
    #[test]
    fn metrics_merge_covers_every_field() {
        let full = ExecMetrics {
            posting_lists_built: 1,
            shared_cache_hits: 2,
            postings_scanned: 3,
            relaxations_opened: 4,
            rewritings_evaluated: 5,
            join_candidates: 6,
            pulls: 7,
            early_cutoffs: 8,
            anchored_serves: 9,
            ranged_serves: 10,
            posting_sorts: 11,
            approx_cutoffs: 12,
            seed_steals: 13,
            deadline_cutoffs: 14,
            budget_cutoffs: 15,
            seed_skips: 16,
            probe_lookups: 17,
            probed_streams: 18,
            restriction_scans: 19,
        };
        let mut merged = ExecMetrics::default();
        merged.merge(&full);
        assert_eq!(merged, full, "merge into default must reproduce every field");
        merged.merge(&full);
        let doubled = ExecMetrics {
            posting_lists_built: 2,
            shared_cache_hits: 4,
            postings_scanned: 6,
            relaxations_opened: 8,
            rewritings_evaluated: 10,
            join_candidates: 12,
            pulls: 14,
            early_cutoffs: 16,
            anchored_serves: 18,
            ranged_serves: 20,
            posting_sorts: 22,
            approx_cutoffs: 24,
            seed_steals: 26,
            deadline_cutoffs: 28,
            budget_cutoffs: 30,
            seed_skips: 32,
            probe_lookups: 34,
            probed_streams: 36,
            restriction_scans: 38,
        };
        assert_eq!(merged, doubled, "merge must sum every field");
    }
}
