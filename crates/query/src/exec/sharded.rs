//! Stage 1 over a multi-slice
//! [`StoreView`](crate::exec::segmented::StoreView): the merge-of-merges.
//!
//! When a view has more than one slice (N subject-hash shards, a base
//! plus its delta, or both — see [`crate::exec::segmented`]),
//! [`execute`](crate::exec::drive::execute)'s source factory hands each
//! query pattern one [`ShardedMerge`] instead of a bare
//! [`IncrementalMerge`]; nothing else about the pipeline changes:
//!
//! * a [`ShardedMerge`] holds one [`IncrementalMerge`] per slice and
//!   emits the union of their posting streams in globally descending
//!   probability order behind the same [`RankSource`] seam;
//! * probabilities are normalized by the view's
//!   [`GlobalTotals`](crate::score::GlobalTotals), so a
//!   slice's emissions carry exactly the probability the monolithic
//!   engine would assign them (a slice-local denominator would inflate
//!   them), and each slice's merge emits ids already based in the
//!   view's global id space;
//! * stages 2–4 — the join, threshold/capping policy, and the driver
//!   loop — are the same `run_pipeline` code, instantiated for this
//!   source type. Each slice's posting-index head bounds enter the
//!   merge exactly as a single store's do, so the global k-th answer
//!   terminates the join as soon as it dominates every slice's
//!   remaining frontier — and the ε-approximate mass criterion sums the
//!   slices' remaining masses into one envelope with the same
//!   guarantee.
//!
//! **Soundness / completeness.** The union of the slices' match sets is
//! exactly the monolithic match set (the partition is total and
//! disjoint), and [`ShardedMerge::next_merged`] only emits a slice's
//! head after [`IncrementalMerge::tighten_head`] has made it exact and
//! no other slice's bound outranks it — so the union stream is
//! emitted in the same globally descending order the monolithic merge
//! produces, and every threshold argument of the single-store engine
//! carries over verbatim.
//!
//! **Election cost.** The best slice is elected from a small max-heap
//! keyed by per-slice bounds (O(log slices) per emission instead of a
//! linear rescan), and the union's remaining-mass envelope is an
//! incrementally maintained sum (O(1) per read). The heap's entries are
//! always exact: a slice's bound only moves inside its own `&mut` calls
//! (`tighten_head` / `next_merged`), each of which is followed by a
//! re-push here — the emission order is property-pinned identical to
//! the linear-scan election at 1/2/4/7 shards.
//!
//! **Slice restriction.** A request's `restrict` confines one pattern's
//! merge to a sub-range of the slices (the delta slices) while every
//! other pattern reads the full union — the seam semi-naive delta
//! queries ("which answers did this batch introduce?") are built on.
//! Scores stay exact because the totals normalize over the whole view
//! either way.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;

use trinit_obs::{now_ns, SpanRecord, Stage, TraceRecorder};

use crate::exec::join::KeySet;
use crate::exec::merge::{AltTable, AltView, IncrementalMerge, Merged, RankSource};
use crate::exec::ExecMetrics;

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
    /// The pattern's relaxation table, which every shard's merge reads:
    /// an emission's alternative index means the same entry whichever
    /// shard emitted it.
    table: Rc<AltTable>,
    shards: Vec<IncrementalMerge<'a>>,
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
    /// The union of `shards`, each a merge over `table` (built with
    /// [`IncrementalMerge::new`] from that `Rc`) already emitting global
    /// ids; `slots[i]` is shard `i`'s index in the shared `metrics`
    /// vector.
    pub fn new(
        table: Rc<AltTable>,
        shards: Vec<IncrementalMerge<'a>>,
        slots: Vec<usize>,
        metrics: Rc<RefCell<Vec<ExecMetrics>>>,
    ) -> ShardedMerge<'a> {
        debug_assert!(
            shards.iter().all(|m| m.reads(&table)),
            "every shard's merge reads the union's table"
        );
        let mass = shards.iter().map(IncrementalMerge::remaining_mass).sum();
        let mut merge = ShardedMerge {
            table,
            shards,
            slots,
            metrics,
            heap: BinaryHeap::new(),
            mass,
            obs_elections: 0,
            obs_window_start: 0,
        };
        merge.reelect();
        merge
    }

    /// Rebuilds the election heap from every shard's current bound.
    fn reelect(&mut self) {
        self.heap = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(idx, m)| m.peek_bound().map(|bound| ShardEntry { bound, idx }))
            .collect();
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
            // shard now outranks it (ties go to the lowest index, however
            // loose the bounds were), re-elect.
            let tightened = self.with_mass_delta(i, metrics, |shard, m| shard.tighten_head(m));
            let Some(tight) = tightened else {
                // Exhausted while tightening — drop out of the election
                // (re-enter only if a bound somehow remains).
                if let Some(bound) = self.shards[i].peek_bound() {
                    self.heap.push(ShardEntry { bound, idx: i });
                }
                continue;
            };
            let entry = ShardEntry {
                bound: tight,
                idx: i,
            };
            if self.heap.peek().is_some_and(|top| *top > entry) {
                self.heap.push(entry);
                continue;
            }
            let Some(merged) = self
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
        self.table.view(alt as usize)
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

    fn restrict(&mut self, keys: &Rc<KeySet>, metrics: &mut ExecMetrics) -> bool {
        // Forwarded to every slice (all read the same table);
        // the mass sum follows each slice's move, the heap is rebuilt.
        let mut restricted = false;
        for i in 0..self.shards.len() {
            restricted |= self.with_mass_delta(i, metrics, |shard, m| shard.restrict(keys, m));
        }
        self.reelect();
        restricted
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drive::{Sources, TopkConfig};
    use crate::exec::segmented::StoreView;
    use crate::exec::TripleLookup;
    use crate::score::{satisfies_mask, CanonicalPattern, GlobalTotals};
    use trinit_relax::{
        ConditionOracle, QPattern, QTerm, Rule, RuleId, RuleProvenance, RuleSet, VarId,
    };
    use trinit_xkg::{TermId, Triple, TripleId, XkgBuilder, XkgStore};

    /// Every slice's matches summed by the reference scan: the
    /// denominators a partitioned store hands the merge. Also the
    /// lookup and oracle of a view over the slices.
    struct UnionTotals<'a>(&'a [XkgStore]);

    impl TripleLookup for UnionTotals<'_> {
        fn triple_of(&self, id: TripleId) -> Triple {
            let mut local = id.0 as usize;
            for slice in self.0 {
                if local < slice.len() {
                    return slice.triple(TripleId(local as u32));
                }
                local -= slice.len();
            }
            panic!("{id:?} is past the last slice")
        }
    }

    impl ConditionOracle for UnionTotals<'_> {
        fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool {
            self.0.iter().any(|slice| slice.ground_holds(s, p, o))
        }
    }

    impl GlobalTotals for UnionTotals<'_> {
        fn pattern_total(&self, &(slot, mask): &CanonicalPattern) -> Option<f64> {
            let slice_total = |s: &XkgStore| -> f64 {
                s.lookup(&slot)
                    .iter()
                    .filter(|&&id| satisfies_mask(s, id, mask))
                    .map(|&id| s.provenance(id).weight())
                    .sum()
            };
            Some(self.0.iter().map(slice_total).sum())
        }
    }

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

    /// The election as a linear scan, the reference: the highest bound
    /// (ties to the lowest index), tighten, linear re-check that no other
    /// shard outranks the tightened head (a higher bound, or an equal one
    /// at a lower index), emit.
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
            let outranks = |(j, b): (usize, f64)| b > tight || (b == tight && j < i);
            let dominated = shards
                .iter()
                .enumerate()
                .any(|(j, m)| j != i && m.peek_bound().is_some_and(|b| outranks((j, b))));
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
        table: &Rc<AltTable>,
        totals: &'a dyn GlobalTotals,
    ) -> Vec<IncrementalMerge<'a>> {
        slices
            .iter()
            .map(|s| IncrementalMerge::new(s, Rc::clone(table), None, Some(totals)))
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
            let mut offsets = Vec::new();
            let mut base = 0u32;
            for s in &slices {
                offsets.push(base);
                base += s.len() as u32;
            }
            let exec = UnionTotals(&slices);
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
                let table = Rc::new(AltTable::build(&pattern, &rules, &cfg, 8, Some(&exec)));
                let mut reference = merges_for(&slices, &table, &exec);
                let mut ref_metrics = vec![ExecMetrics::default(); n];
                let heap_metrics = Rc::new(RefCell::new(vec![ExecMetrics::default(); n]));
                let mut heap_merge = ShardedMerge::new(
                    Rc::clone(&table),
                    merges_for(&slices, &table, &exec)
                        .into_iter()
                        .zip(&offsets)
                        .map(|(m, &base)| m.with_id_base(base))
                        .collect(),
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

    #[test]
    fn every_slice_merge_of_a_stream_reads_one_table() {
        // `?x p ?y` relaxes to `?x 'close to' ?y` and on to `?y p ?x`,
        // each with matches on both slices. The factory `execute` uses
        // builds the stream's table once: both slice merges read that
        // allocation, and an alternative index names the same entry
        // whichever slice emitted it.
        let slices = builder().build_sharded(2);
        let (p, close) = (
            slices[0].resource("p").unwrap(),
            slices[0].token("close to").unwrap(),
        );
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "a",
            p,
            close,
            0.8,
            RuleProvenance::UserDefined,
        ));
        rules.add(Rule::inversion(
            "b",
            close,
            p,
            0.6,
            RuleProvenance::UserDefined,
        ));
        let (cfg, context) = (TopkConfig::default(), UnionTotals(&slices));
        let refs: Vec<&XkgStore> = slices.iter().collect();
        let sources = Sources::new(StoreView::over(&refs, &context), &rules, &cfg, &[]);
        let pattern = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(p), QTerm::Var(VarId(1)));
        let slots = Rc::new(RefCell::new(vec![ExecMetrics::default(); 2]));
        let mut union = sources.union(&pattern, 8, 0..2, &slots);
        assert!(union.shards.iter().all(|m| m.reads(&union.table)));
        let traces: Vec<Vec<RuleId>> = union.table.iter().map(|a| a.trace.to_vec()).collect();
        assert_eq!(
            traces,
            [vec![], vec![RuleId(0)], vec![RuleId(0), RuleId(1)]]
        );
        let mut emitted = [[false; 3]; 2];
        let (mut metrics, mut recorder) = (ExecMetrics::default(), TraceRecorder::off());
        while let Some(m) = union.next_merged(&mut metrics, &mut recorder) {
            let slice = usize::from(m.triple.0 as usize >= slices[0].len());
            let (seen, own) = (
                union.alternative(m.alt),
                union.shards[slice].alternative(m.alt),
            );
            assert!(std::ptr::eq(seen.pattern, own.pattern) && std::ptr::eq(seen.trace, own.trace));
            emitted[slice][m.alt as usize] = true;
        }
        assert_eq!(
            emitted, [[true; 3]; 2],
            "every alternative emits on both slices"
        );
    }
}
