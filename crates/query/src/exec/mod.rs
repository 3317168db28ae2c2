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
//! [`StoreView`](segmented::StoreView) over store slices), [`sharded`]
//! the merge-of-merges source a multi-slice view gets, and [`topk`]
//! re-exports the public surface.

pub mod budget;
pub mod drive;
pub mod exact;
pub mod expand;
#[cfg(feature = "faults")]
pub mod faults;
pub mod join;
pub mod merge;
pub mod segmented;
pub mod sharded;
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
    /// opens answered by the per-execution cache are counted in
    /// [`ExecMetrics::posting_cache_hits`] instead.
    pub posting_lists_built: usize,
    /// Posting lists served from the per-execution cache instead of
    /// being rebuilt (structural variants sharing a canonical pattern).
    pub posting_cache_hits: usize,
    /// Posting lists served from a store-level shared cache (consecutive
    /// queries of a session touching the same canonical pattern).
    pub shared_cache_hits: usize,
    /// Postings read: entries consumed from (possibly restricted) posting
    /// lists plus the entries a restriction's scan skipped.
    pub postings_scanned: usize,
    /// Relaxed pattern alternatives actually opened.
    pub relaxations_opened: usize,
    /// Query rewritings fully evaluated (full-expansion only).
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
    /// strata: borrowed slices for s-/o-bound shapes, one-allocation
    /// group filters for the composite shapes. None of these sort.
    pub anchored_serves: usize,
    /// Selective composite serves that materialized and weight-ordered
    /// the permutation index's *exact* match range because it was ≥4×
    /// smaller than every covering group. These do sort — O(matches ·
    /// log matches), bounded above by the group walk they replace — and
    /// are deliberately separate from [`ExecMetrics::posting_sorts`].
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
    /// Per-shard seed tasks of this query executed by a worker other
    /// than the query's owning worker under the work-stealing batch
    /// scheduler (0 outside stolen batch execution).
    pub seed_steals: usize,
    /// Hard budget cutoffs fired by the wall-clock deadline
    /// ([`crate::exec::budget::ExecBudget::deadline`]).
    pub deadline_cutoffs: usize,
    /// Hard budget cutoffs fired by a work limit
    /// ([`crate::exec::budget::ExecBudget::max_pulls`] /
    /// [`crate::exec::budget::ExecBudget::max_answers`]).
    pub budget_cutoffs: usize,
    /// Degradation-ladder rungs climbed
    /// ([`crate::exec::budget::ExecBudget::ladder`]): escalations of
    /// the effective ε / θ inside the soft budget region.
    pub degradation_steps: usize,
    /// Seed tasks pruned by adaptive seeding under the work-stealing
    /// batch scheduler: subject-bound queries seed only their subject's
    /// home shard, and the skipped tasks are counted here.
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
        self.posting_cache_hits += other.posting_cache_hits;
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
        self.degradation_steps += other.degradation_steps;
        self.seed_skips += other.seed_skips;
        self.probe_lookups += other.probe_lookups;
        self.probed_streams += other.probed_streams;
        self.restriction_scans += other.restriction_scans;
    }
}

/// Shared fixtures for the pipeline stages' unit tests.
#[cfg(test)]
pub(crate) mod testfix {
    use trinit_relax::RuleSet;
    use trinit_xkg::{XkgBuilder, XkgStore};

    use crate::answer::Answer;
    use crate::ast::Query;
    use crate::exec::drive::TopkConfig;
    use crate::exec::expand;

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
            posting_cache_hits: 2,
            shared_cache_hits: 3,
            postings_scanned: 4,
            relaxations_opened: 5,
            rewritings_evaluated: 6,
            join_candidates: 7,
            pulls: 8,
            early_cutoffs: 9,
            anchored_serves: 10,
            ranged_serves: 11,
            posting_sorts: 12,
            approx_cutoffs: 13,
            seed_steals: 14,
            deadline_cutoffs: 15,
            budget_cutoffs: 16,
            degradation_steps: 17,
            seed_skips: 18,
            probe_lookups: 19,
            probed_streams: 20,
            restriction_scans: 21,
        };
        let mut merged = ExecMetrics::default();
        merged.merge(&full);
        assert_eq!(merged, full, "merge into default must reproduce every field");
        merged.merge(&full);
        let doubled = ExecMetrics {
            posting_lists_built: 2,
            posting_cache_hits: 4,
            shared_cache_hits: 6,
            postings_scanned: 8,
            relaxations_opened: 10,
            rewritings_evaluated: 12,
            join_candidates: 14,
            pulls: 16,
            early_cutoffs: 18,
            anchored_serves: 20,
            ranged_serves: 22,
            posting_sorts: 24,
            approx_cutoffs: 26,
            seed_steals: 28,
            deadline_cutoffs: 30,
            budget_cutoffs: 32,
            degradation_steps: 34,
            seed_skips: 36,
            probe_lookups: 38,
            probed_streams: 40,
            restriction_scans: 42,
        };
        assert_eq!(merged, doubled, "merge must sum every field");
    }
}
