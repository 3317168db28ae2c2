//! Partitioned top-k execution: the staged pipeline over shard slices.
//!
//! A sharded store splits the triple table into N independent
//! [`XkgStore`] slices (subject-hash partitioned, sharing one term
//! dictionary — see `trinit-xkg`'s `XkgBuilder::build_sharded`). This
//! module runs the *same* staged operator pipeline over all slices at
//! once by swapping only stage 1:
//!
//! * each query pattern gets one [`ShardedMerge`] — a merge-of-merges
//!   holding one [`IncrementalMerge`] per shard, emitting the union of
//!   the shards' posting streams in globally descending probability
//!   order behind the same [`RankSource`] seam the monolithic source
//!   implements;
//! * probabilities are normalized by a [`GlobalTotals`] provider, so a
//!   shard's emissions carry exactly the probability the monolithic
//!   engine would assign them (a shard-local denominator would inflate
//!   them);
//! * the emitted triple ids are remapped into a global id space
//!   (per-shard offset + local id), and the rank join resolves them
//!   through a caller-supplied [`TripleLookup`];
//! * stages 2–4 — the join, threshold/capping policy, and the driver
//!   loop — are literally the monolithic engine's code:
//!   [`run_partitioned`] calls the same
//!   [`drive::run_pipeline`](crate::exec::drive::run_pipeline) with a
//!   `ShardedMerge` factory instead of an `IncrementalMerge` factory.
//!   Each shard's posting-index head bounds enter the merge exactly as
//!   the single store's do, so the global k-th answer terminates the
//!   join as soon as it dominates every shard's remaining frontier —
//!   and the ε-approximate mass criterion sums the shards' remaining
//!   masses into one envelope with the same guarantee.
//!
//! **Soundness / completeness.** The union of the shards' match sets is
//! exactly the monolithic match set (the partition is total and
//! disjoint), and [`ShardedMerge::next_merged`] only emits a shard's
//! head after [`IncrementalMerge::tighten_head`] has made it exact and
//! no other shard's upper bound exceeds it — so the union stream is
//! emitted in the same globally descending order the monolithic merge
//! produces, and every threshold argument of the single-store engine
//! carries over verbatim.
//!
//! **Election cost.** The best shard is elected from a small max-heap
//! keyed by per-shard bounds (O(log shards) per emission instead of a
//! linear rescan), and the union's remaining-mass envelope is an
//! incrementally maintained sum (O(1) per read). The heap's entries are
//! always exact: a shard's bound only moves inside its own `&mut` calls
//! (`tighten_head` / `next_merged`), each of which is followed by a
//! re-push here — the emission order is property-pinned identical to
//! the linear-scan election at 1/2/4/7 shards.
//!
//! A slice need not be a subject-hash shard: segmented (base + delta)
//! stores pass their segments as extra slices, and the `restrict`
//! parameter of [`run_partitioned`] confines one query pattern to a
//! sub-range of slices — the seam semi-naive delta queries ("which
//! answers did this batch introduce?") are built on.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;

use trinit_obs::{now_ns, SpanRecord, Stage, TraceRecorder};
use trinit_relax::{ConditionOracle, RuleSet};
use trinit_xkg::{TripleId, XkgStore};

use crate::answer::Answer;
use crate::ast::Query;
use crate::exec::budget::{Completeness, Governor};
use crate::exec::drive::{self, TopkConfig};
use crate::exec::merge::{AltView, IncrementalMerge, Merged, RankSource};
use crate::exec::{ExecMetrics, TripleLookup};
use crate::score::{GlobalTotals, PostingCache, SharedPostingCache};

/// One shard's standing in the election: its current exact upper bound.
/// Max-heap order — higher bound first, ties to the lowest shard index
/// (keeping emission order deterministic and identical to the previous
/// linear scan's first-maximum election).
struct ShardEntry {
    bound: f64,
    idx: usize,
}

impl PartialEq for ShardEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.idx == other.idx
    }
}

impl Eq for ShardEntry {}

impl PartialOrd for ShardEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ShardEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

/// Per-pattern sorted access over every shard of a partitioned store:
/// one [`IncrementalMerge`] per shard, pulled head-first across shards
/// via a bound-keyed max-heap.
pub struct ShardedMerge<'a> {
    shards: Vec<IncrementalMerge<'a>>,
    /// Each shard's base in the global triple-id space (parallel to
    /// `shards`).
    offsets: Vec<u32>,
    /// Each shard's slot in the shared `metrics` vector (parallel to
    /// `shards`; restricted merges cover a sub-range of the slots).
    slots: Vec<usize>,
    /// Work counters attributed per shard, shared by every pattern's
    /// merge of one execution (drained into the aggregate at the end).
    metrics: Rc<RefCell<Vec<ExecMetrics>>>,
    /// Election heap: exactly one entry per non-exhausted shard, each
    /// carrying the shard's *current* [`IncrementalMerge::peek_bound`]
    /// (bounds move only inside that shard's `&mut` calls, which
    /// re-push here).
    heap: BinaryHeap<ShardEntry>,
    /// Incrementally maintained sum of the shards' remaining-mass
    /// envelopes: deltas are folded in around every `tighten_head` /
    /// `next_merged`, making [`RankSource::remaining_mass`] O(1).
    mass: f64,
    /// Elections in the current observation window (see
    /// [`RankSource::next_merged`]'s batching: one [`Stage::Election`]
    /// span per 64 elections keeps the clock off the per-pull path).
    obs_elections: u32,
    /// Wall start of the current election window.
    obs_window_start: u64,
}

impl<'a> ShardedMerge<'a> {
    fn new(
        shards: Vec<IncrementalMerge<'a>>,
        offsets: Vec<u32>,
        slots: Vec<usize>,
        metrics: Rc<RefCell<Vec<ExecMetrics>>>,
    ) -> ShardedMerge<'a> {
        let heap = shards
            .iter()
            .enumerate()
            .filter_map(|(idx, m)| m.peek_bound().map(|bound| ShardEntry { bound, idx }))
            .collect();
        let mass = shards.iter().map(IncrementalMerge::remaining_mass).sum();
        ShardedMerge {
            shards,
            offsets,
            slots,
            metrics,
            heap,
            mass,
            obs_elections: 0,
            obs_window_start: 0,
        }
    }

    /// Runs `f` against shard `i`'s merge, folding the move of its mass
    /// envelope into the incrementally tracked union sum. The work `f`
    /// records lands in **both** the shard's per-shard slot and the
    /// caller's aggregate metrics (`passed`), so monolithic and sharded
    /// accounting read the same way — the aggregate sees merge-phase
    /// pulls as they happen, the slots keep per-shard attribution.
    fn with_mass_delta<T>(
        &mut self,
        i: usize,
        passed: &mut ExecMetrics,
        f: impl FnOnce(&mut IncrementalMerge<'a>, &mut ExecMetrics) -> T,
    ) -> T {
        let slot = self.slots[i];
        let before = self.shards[i].remaining_mass();
        let mut local = ExecMetrics::default();
        let out = f(&mut self.shards[i], &mut local);
        self.mass += self.shards[i].remaining_mass() - before;
        self.metrics.borrow_mut()[slot].merge(&local);
        passed.merge(&local);
        out
    }
}

impl RankSource for ShardedMerge<'_> {
    fn peek_bound(&self) -> Option<f64> {
        // The heap invariant (one exact entry per live shard) makes the
        // top the max over all shards' current bounds.
        self.heap.peek().map(|e| e.bound)
    }

    fn next_merged(
        &mut self,
        metrics: &mut ExecMetrics,
        recorder: &mut TraceRecorder,
    ) -> Option<Merged> {
        let obs_on = recorder.is_enabled();
        if obs_on && self.obs_elections == 0 {
            self.obs_window_start = now_ns();
        }
        let out = loop {
            // The shard with the highest upper bound (ties to the lowest
            // shard index).
            let Some(ShardEntry { idx: i, .. }) = self.heap.pop() else {
                break None;
            };
            // A bound can be loose (unopened alternatives). Tighten the
            // candidate's head to its exact next probability; if another
            // shard's bound now exceeds it, re-elect.
            let tightened = self.with_mass_delta(i, metrics, |shard, m| shard.tighten_head(m));
            let Some(tight) = tightened else {
                // Exhausted while tightening — drop out of the election
                // (re-enter only if a bound somehow remains).
                if let Some(bound) = self.shards[i].peek_bound() {
                    self.heap.push(ShardEntry { bound, idx: i });
                }
                continue;
            };
            if self.heap.peek().is_some_and(|top| top.bound > tight) {
                self.heap.push(ShardEntry {
                    bound: tight,
                    idx: i,
                });
                continue;
            }
            let Some(mut merged) = self
                .with_mass_delta(i, metrics, |shard, m| shard.next_merged(m))
            else {
                // A just-tightened head always emits; if the invariant
                // ever broke, dropping the shard from this election
                // degrades to a skipped emission instead of panicking.
                continue;
            };
            if let Some(bound) = self.shards[i].peek_bound() {
                self.heap.push(ShardEntry { bound, idx: i });
            }
            // Remap into the global id space.
            merged.triple = TripleId(self.offsets[i] + merged.triple.0);
            break Some(merged);
        };
        if obs_on {
            self.obs_elections += 1;
            if self.obs_elections >= 64 {
                self.flush_election_window(recorder);
            }
        }
        out
    }

    fn alternative(&self, alt: u32) -> AltView<'_> {
        // Every shard's merge is built from the same pattern, rules and
        // fresh-variable base, so the alternative tables are identical
        // by construction and one index serves the union stream. (An
        // index only ever comes out of an emission, so a shard exists.)
        self.shards[0].alternative(alt)
    }

    fn remaining_mass(&self) -> f64 {
        // The shards' match sets are disjoint, so their per-slice mass
        // envelopes sum to a sound envelope on the union stream: the
        // sum dominates each shard's own mass, hence every future
        // emission, and also the collective unconsumed mass. The sum is
        // tracked incrementally around the per-shard calls that move it.
        self.mass.max(0.0)
    }

    fn finish_obs(&mut self, recorder: &mut TraceRecorder) {
        if recorder.is_enabled() {
            self.flush_election_window(recorder);
        }
    }
}

impl ShardedMerge<'_> {
    /// Record the pending [`Stage::Election`] window span (covers the
    /// wall interval its `detail` elections ran in) and reset it.
    fn flush_election_window(&mut self, recorder: &mut TraceRecorder) {
        if self.obs_elections == 0 {
            return;
        }
        let now = now_ns();
        recorder.record_span(SpanRecord {
            stage: Stage::Election,
            detail: self.obs_elections,
            start_ns: self.obs_window_start,
            dur_ns: now.saturating_sub(self.obs_window_start),
        });
        self.obs_window_start = now;
        self.obs_elections = 0;
    }
}

/// The result of one partitioned execution.
#[derive(Debug)]
pub struct PartitionedRun {
    /// Top-k answers, best first. Derivation triple ids are global
    /// (shard offset + local id).
    pub answers: Vec<Answer>,
    /// Aggregate work counters, per-shard merge work included.
    pub metrics: ExecMetrics,
    /// Merge-level work (posting lists built, postings scanned, cache
    /// hits, relaxations opened) attributed to each shard.
    pub per_shard: Vec<ExecMetrics>,
    /// The exactness guarantee of `answers`, read off the run's budget
    /// tracker: `Exact` unless an ε/θ criterion genuinely retired work
    /// or a hard budget cutoff fired.
    pub completeness: Completeness,
}

/// Runs incremental top-k over the shards of a partitioned store,
/// returning exactly the answers (keys *and* scores) the monolithic
/// engine returns on the union of the shards.
///
/// * `offsets[i]` is shard `i`'s base in the global triple-id space;
///   `lookup` resolves those global ids.
/// * `totals` supplies cross-shard normalization totals; `oracle`
///   verifies structural-rule data conditions across every slice.
/// * `shard_caches`, when given, holds one store-level posting cache
///   per *leading* slice (cached lists are slice-specific, so slices
///   must never share one); trailing slices — e.g. freshly built delta
///   segments, whose lists change every ingest — run uncached.
/// * `seed` pre-loads the answer collector — a sharded executor passes
///   the answers its parallel per-shard runs already found, so the
///   threshold starts tight. Seeds must carry true (globally
///   normalized) scores and global triple ids.
/// * `governor` carries the query's budget state into the pipeline
///   (pass `Governor::primary` over a fresh
///   [`BudgetTracker`](crate::exec::budget::BudgetTracker) for a
///   standalone run); the returned completeness is read off its
///   tracker.
/// * `restrict`, when `Some((j, range))`, confines query pattern `j`'s
///   merge source to the slice sub-range `range` — the semi-naive
///   delta-query seam: a pattern restricted to the delta slices matches
///   only newly ingested triples, while every other pattern still reads
///   the full union. Scores stay exact because `totals` normalizes over
///   the whole store either way.
/// * `recorder` receives the run's stage spans (variant spans, pull
///   windows, election windows, threshold/cutoff events); pass
///   [`TraceRecorder::off`] for an uninstrumented run.
#[allow(clippy::too_many_arguments)]
pub fn run_partitioned(
    shards: &[&XkgStore],
    offsets: &[u32],
    lookup: &dyn TripleLookup,
    totals: &dyn GlobalTotals,
    oracle: Option<&dyn ConditionOracle>,
    query: &Query,
    rules: &RuleSet,
    cfg: &TopkConfig,
    shard_caches: Option<&[SharedPostingCache]>,
    seed: Vec<Answer>,
    governor: Governor<'_>,
    restrict: Option<(usize, Range<usize>)>,
    recorder: &mut TraceRecorder,
) -> PartitionedRun {
    assert_eq!(shards.len(), offsets.len(), "one offset per shard");
    if let Some(caches) = shard_caches {
        assert!(
            caches.len() <= shards.len(),
            "at most one cache per slice, leading slices first"
        );
    }
    if let Some((_, range)) = &restrict {
        assert!(
            range.start < range.end && range.end <= shards.len(),
            "restricted slice range out of bounds"
        );
    }
    let n_shards = shards.len();
    let mut metrics = ExecMetrics::default();

    // One per-execution posting cache per shard: a cached list holds one
    // slice's entries, so the cache key space is per shard.
    let exec_caches: Vec<Rc<RefCell<PostingCache>>> = (0..n_shards)
        .map(|_| Rc::new(RefCell::new(PostingCache::new())))
        .collect();
    let shard_metrics = Rc::new(RefCell::new(vec![ExecMetrics::default(); n_shards]));

    // The same pipeline as the monolithic engine, assembled around a
    // cross-shard stage-1 source: one IncrementalMerge per shard per
    // pattern, unioned by ShardedMerge behind the RankSource seam.
    let answers = drive::run_pipeline(
        lookup,
        oracle,
        query,
        rules,
        cfg,
        seed,
        &mut metrics,
        governor,
        recorder,
        |pattern, fresh_base, position| {
            let range = match &restrict {
                Some((j, range)) if *j == position => range.clone(),
                _ => 0..n_shards,
            };
            let merges = range
                .clone()
                .map(|s| {
                    IncrementalMerge::for_pattern(
                        shards[s],
                        pattern,
                        rules,
                        cfg,
                        fresh_base,
                        Rc::clone(&exec_caches[s]),
                        shard_caches.and_then(|c| c.get(s)),
                        Some(totals),
                    )
                })
                .collect();
            ShardedMerge::new(
                merges,
                range.clone().map(|s| offsets[s]).collect(),
                range.collect(),
                Rc::clone(&shard_metrics),
            )
        },
    );

    // No end-fold: per-shard merge work already flowed into the
    // aggregate at call time (ShardedMerge::with_mass_delta records
    // into both the shard slot and the passed metrics), so folding the
    // slots here would double-count it.
    let per_shard = shard_metrics.borrow().clone();
    let completeness = governor.tracker().completeness(&answers);
    PartitionedRun {
        answers,
        metrics,
        per_shard,
        completeness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::segmented::SegmentedExec;
    use trinit_relax::QPattern;
    use trinit_xkg::XkgBuilder;

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..60u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 6));
            if i % 2 == 0 {
                let s = b.dict_mut().resource(&format!("s{i}"));
                let p = b.dict_mut().token("close to");
                let o = b.dict_mut().resource(&format!("o{}", (i + 1) % 6));
                let src = b.intern_source(&format!("doc{i}"));
                b.add_extracted(s, p, o, 0.3 + (i % 7) as f32 * 0.09, src);
            }
        }
        b
    }

    /// The previous election algorithm, kept verbatim as the reference:
    /// a linear scan for the highest bound (ties to the lowest index),
    /// tighten, linear dominance re-check, emit.
    fn reference_next(
        shards: &mut [IncrementalMerge<'_>],
        offsets: &[u32],
        metrics: &mut [ExecMetrics],
    ) -> Option<Merged> {
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, m) in shards.iter().enumerate() {
                if let Some(b) = m.peek_bound() {
                    if best.is_none_or(|(_, cur)| b > cur) {
                        best = Some((i, b));
                    }
                }
            }
            let (i, _) = best?;
            let Some(tight) = shards[i].tighten_head(&mut metrics[i]) else {
                continue;
            };
            let dominated = shards
                .iter()
                .enumerate()
                .any(|(j, m)| j != i && m.peek_bound().is_some_and(|b| b > tight));
            if dominated {
                continue;
            }
            let mut merged = shards[i]
                .next_merged(&mut metrics[i])
                .expect("tightened head must emit");
            merged.triple = TripleId(offsets[i] + merged.triple.0);
            return Some(merged);
        }
    }

    fn merges_for<'a>(
        slices: &'a [XkgStore],
        pattern: &QPattern,
        rules: &'a RuleSet,
        cfg: &'a TopkConfig,
        totals: &'a dyn GlobalTotals,
    ) -> Vec<IncrementalMerge<'a>> {
        slices
            .iter()
            .map(|s| {
                IncrementalMerge::for_pattern(
                    s,
                    pattern,
                    rules,
                    cfg,
                    8,
                    Rc::new(RefCell::new(PostingCache::new())),
                    None,
                    Some(totals),
                )
            })
            .collect()
    }

    #[test]
    fn heap_election_is_emission_order_identical_to_linear_scan() {
        let b = builder();
        let probe = {
            let store = b.clone().build();
            store.resource("p").unwrap()
        };
        for n in [1usize, 2, 4, 7] {
            let slices = b.clone().build_sharded(n);
            let refs: Vec<&XkgStore> = slices.iter().collect();
            let mut offsets = Vec::new();
            let mut base = 0u32;
            for s in &slices {
                offsets.push(base);
                base += s.len() as u32;
            }
            let exec = SegmentedExec::new(&refs, &offsets);
            let rules = RuleSet::new();
            let cfg = TopkConfig::default();
            // Both shapes the merge serves heavily: predicate-bound and
            // fully unbound.
            for pattern in [
                QPattern::new(
                    trinit_relax::QTerm::Var(trinit_relax::VarId(0)),
                    trinit_relax::QTerm::Term(probe),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(1)),
                ),
                QPattern::new(
                    trinit_relax::QTerm::Var(trinit_relax::VarId(0)),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(2)),
                    trinit_relax::QTerm::Var(trinit_relax::VarId(1)),
                ),
            ] {
                let mut reference = merges_for(&slices, &pattern, &rules, &cfg, &exec);
                let mut ref_metrics = vec![ExecMetrics::default(); n];
                let heap_metrics = Rc::new(RefCell::new(vec![ExecMetrics::default(); n]));
                let mut heap_merge = ShardedMerge::new(
                    merges_for(&slices, &pattern, &rules, &cfg, &exec),
                    offsets.clone(),
                    (0..n).collect(),
                    Rc::clone(&heap_metrics),
                );
                let mut scratch = ExecMetrics::default();
                let mut emitted = 0usize;
                loop {
                    // The incremental mass sum must always agree with a
                    // re-sum of the per-shard envelopes.
                    let resummed: f64 = heap_merge
                        .shards
                        .iter()
                        .map(IncrementalMerge::remaining_mass)
                        .sum();
                    assert!(
                        (heap_merge.remaining_mass() - resummed.max(0.0)).abs() < 1e-9,
                        "mass drifted from re-sum at {n} shards after {emitted} emissions"
                    );
                    let want = reference_next(&mut reference, &offsets, &mut ref_metrics);
                    let got = heap_merge.next_merged(&mut scratch, &mut TraceRecorder::off());
                    match (want, got) {
                        (None, None) => break,
                        (Some(w), Some(g)) => {
                            assert_eq!(w.triple, g.triple, "{n} shards, emission {emitted}");
                            assert_eq!(
                                w.prob.to_bits(),
                                g.prob.to_bits(),
                                "{n} shards, emission {emitted}"
                            );
                            assert_eq!(w.alt, g.alt);
                        }
                        (w, g) => panic!(
                            "streams diverge at {n} shards, emission {emitted}: \
                             reference {w:?} vs heap {g:?}"
                        ),
                    }
                    emitted += 1;
                }
                assert!(emitted > 0, "fixture must emit");
                assert_eq!(heap_merge.peek_bound(), None, "drained merge still bounds");
                // Identical per-shard work too: the elections visited the
                // same shards in the same order.
                assert_eq!(&*heap_metrics.borrow(), &ref_metrics);
                // Shard-pull attribution: the metrics passed into
                // `next_merged` receive exactly the union of the
                // per-shard slots — monolithic and sharded accounting
                // read the same way, with no work visible only in the
                // slots.
                let mut folded = ExecMetrics::default();
                for m in heap_metrics.borrow().iter() {
                    folded.merge(m);
                }
                assert_eq!(scratch, folded);
            }
        }
    }
}
