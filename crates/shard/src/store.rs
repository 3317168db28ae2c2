//! The store behind every system: N ≥ 1 subject-hash-partitioned
//! [`XkgStore`] slices behind one global façade; a monolith is N = 1.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use trinit_query::exec::TripleLookup;
use trinit_query::{satisfies_mask, CanonicalPattern, GlobalTotals};
use trinit_relax::ConditionOracle;
use trinit_xkg::{
    GraphTag, LiveDelta, Provenance, SegmentLayout, SlotPattern, TermDict, TermId, Triple,
    TripleId, XkgBuilder, XkgStore,
};

/// What partitioned execution needs to know about a list of slices as
/// a whole: where each sits in the global triple-id space and the
/// emission-weight totals global normalization divides by.
#[derive(Debug, Default)]
struct Aggregates {
    /// Slice `i`'s base in the global triple-id space.
    offsets: Vec<u32>,
    /// Emission-weight total per predicate over the slices.
    pred_totals: HashMap<TermId, f64>,
    /// Emission-weight total of the slices.
    global_total: f64,
    /// Distinct triples in the slices.
    len: usize,
}

impl Aggregates {
    /// Aggregates `slices`, the first of which starts at global id
    /// `origin`.
    fn over(slices: &[XkgStore], origin: usize) -> Aggregates {
        let mut agg = Aggregates::default();
        for slice in slices {
            let base = (origin + agg.len) as u64;
            #[expect(clippy::expect_used, reason = "construction-time capacity guard: the global triple-id space is u32 by design")]
            let base = u32::try_from(base).expect("global triple-id overflow");
            agg.offsets.push(base);
            agg.len += slice.len();
            let index = slice.posting_index();
            for &p in slice.predicates() {
                *agg.pred_totals.entry(p).or_insert(0.0) += index.predicate_total_weight(p);
            }
            agg.global_total += index.total_weight();
        }
        agg
    }

    /// The slices' predicates, ascending by term id.
    fn predicates(&self) -> Vec<TermId> {
        let mut predicates: Vec<TermId> = self.pred_totals.keys().copied().collect();
        predicates.sort_unstable();
        predicates
    }
}

/// N ≥ 1 subject-hash-partitioned store shards sharing one term
/// dictionary (a monolith is one shard), a live delta over them, and
/// the global aggregates partitioned execution needs: per-predicate and
/// whole-store emission-weight totals (frozen at build time) and a memo
/// of scanned totals for pattern shapes that span slices.
///
/// Triple ids exposed by this type are **global**: shard `i`'s local id
/// `t` maps to `offsets[i] + t`, and the delta views follow the shards.
/// Term and source ids need no mapping — the shards share one
/// dictionary and source table.
#[derive(Debug)]
pub struct ShardedStore {
    /// The base shards and the live delta over them. Delta views are
    /// subject-hash partitioned like the shards, so subject co-location
    /// holds per segment pair.
    live: LiveDelta,
    /// Aggregates of the base shards, frozen until compaction.
    base: Aggregates,
    /// Aggregates of the delta views (delta ids follow every base id);
    /// empty while the delta is.
    delta: Aggregates,
    /// Union of the base shards' predicates, ascending by term id.
    predicates: Vec<TermId>,
    /// Memoized cross-shard totals for non-precomputed shapes
    /// (object-bound and repeated-variable patterns). Cleared on every
    /// mutation — memoized totals span the delta slices.
    totals_memo: Mutex<HashMap<CanonicalPattern, f64>>,
}

impl ShardedStore {
    /// Freezes `builder` into `shards` subject-hash-partitioned slices
    /// (see [`XkgBuilder::build_sharded`]) and aggregates the global
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build(builder: XkgBuilder, shards: usize) -> ShardedStore {
        ShardedStore::build_with(builder, shards, SegmentLayout::Flat)
    }

    /// [`ShardedStore::build`] with an explicit physical layout for the
    /// frozen base shards (`Packed` trades decode work for ~3–4× fewer
    /// index bytes; answers are identical bit for bit). The layout
    /// survives compaction; delta views are always rebuilt `Flat`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build_with(builder: XkgBuilder, shards: usize, layout: SegmentLayout) -> ShardedStore {
        ShardedStore::from_shards(builder.build_sharded_with(shards, layout))
    }

    /// Wraps already-built shards. They must share one term dictionary —
    /// i.e. come from one [`XkgBuilder::build_sharded`] call.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or the shards do not share a
    /// dictionary.
    pub fn from_shards(shards: Vec<XkgStore>) -> ShardedStore {
        assert!(!shards.is_empty(), "at least one shard required");
        let dict = shards[0].dict_handle();
        for shard in &shards[1..] {
            assert!(
                Arc::ptr_eq(&dict, &shard.dict_handle()),
                "shards must share one term dictionary"
            );
        }
        let base = Aggregates::over(&shards, 0);
        ShardedStore {
            live: LiveDelta::new(shards),
            predicates: base.predicates(),
            base,
            delta: Aggregates::default(),
            totals_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.live.bases().len()
    }

    /// The shard slices.
    #[inline]
    pub fn shards(&self) -> &[XkgStore] {
        self.live.bases()
    }

    /// One shard slice.
    #[inline]
    pub fn shard(&self, i: usize) -> &XkgStore {
        &self.live.bases()[i]
    }

    /// Partition 0's frozen base — a monolith's whole frozen store.
    #[inline]
    pub fn base(&self) -> &XkgStore {
        self.shard(0)
    }

    /// The whole store as one frozen slice — the case a query reads
    /// through a plain one-store view, where local totals are global:
    /// [`ShardedStore::base`] when there is one partition and no live
    /// delta.
    #[inline]
    pub fn single_slice(&self) -> Option<&XkgStore> {
        (self.shard_count() == 1 && !self.has_delta()).then(|| self.base())
    }

    /// The live segments in global-id order: the base shards, then the
    /// non-empty delta views.
    pub fn segments(&self) -> Vec<&XkgStore> {
        let views = self.delta_slices().map(|(view, _)| view);
        self.shards().iter().chain(views).collect()
    }

    /// Total number of distinct triples across shards and the delta.
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len + self.live.len()
    }

    /// True if neither the shards nor the delta hold a triple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct triples in a stratum, across shards and the
    /// delta.
    pub fn len_of(&self, graph: GraphTag) -> usize {
        let base: usize = self.live.bases().iter().map(|s| s.len_of(graph)).sum();
        base + self.live.len_of(graph)
    }

    /// The shared term dictionary of the frozen base shards. Terms
    /// interned by ingestion live only in the delta's superset
    /// dictionary — resolve vocabulary through
    /// [`ShardedStore::vocab`] instead when a delta may be live.
    #[inline]
    pub fn dict(&self) -> &TermDict {
        self.live.bases()[0].dict()
    }

    /// The store to resolve vocabulary against: see [`LiveDelta::vocab`].
    #[inline]
    pub fn vocab(&self) -> &XkgStore {
        self.live.vocab()
    }

    /// Union of the *base* shards' predicates, ascending by term id
    /// (predicates introduced by ingestion join at compaction).
    #[inline]
    pub fn predicates(&self) -> &[TermId] {
        &self.predicates
    }

    /// Global emission-weight total of one predicate's match set,
    /// across the base shards and the delta.
    pub fn predicate_total_weight(&self, p: TermId) -> f64 {
        self.base.pred_totals.get(&p).copied().unwrap_or(0.0)
            + self.delta.pred_totals.get(&p).copied().unwrap_or(0.0)
    }

    /// Resolves a *base-segment* global triple id to
    /// `(shard index, local id)`. Delta ids (at and above the base
    /// total) resolve through the triple accessors instead.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range of the base segment.
    pub fn resolve(&self, id: TripleId) -> (usize, TripleId) {
        let shard = self.base.offsets.partition_point(|&base| base <= id.0) - 1;
        let local = TripleId(id.0 - self.base.offsets[shard]);
        assert!(
            local.idx() < self.live.bases()[shard].len(),
            "triple id {id:?} not issued by this store's base segment"
        );
        (shard, local)
    }

    /// Resolves any global triple id — base or delta — to its slice and
    /// slice-local id.
    fn slice_of(&self, id: TripleId) -> (&XkgStore, TripleId) {
        if (id.0 as usize) < self.base.len {
            let (shard, local) = self.resolve(id);
            return (&self.live.bases()[shard], local);
        }
        assert!(
            !self.live.is_empty(),
            "triple id {id:?} not issued by this store"
        );
        let i = self.delta.offsets.partition_point(|&base| base <= id.0) - 1;
        let local = TripleId(id.0 - self.delta.offsets[i]);
        assert!(
            local.idx() < self.live.views()[i].len(),
            "triple id {id:?} not issued by this store"
        );
        (&self.live.views()[i], local)
    }

    /// The global id of shard `i`'s local triple `t`.
    #[inline]
    pub fn global_id(&self, shard: usize, local: TripleId) -> TripleId {
        TripleId(self.base.offsets[shard] + local.0)
    }

    /// The triple with the given global id (base or delta).
    pub fn triple(&self, id: TripleId) -> Triple {
        let (slice, local) = self.slice_of(id);
        slice.triple(local)
    }

    /// Provenance of the triple with the given global id (base or
    /// delta).
    pub fn provenance(&self, id: TripleId) -> &Provenance {
        let (slice, local) = self.slice_of(id);
        slice.provenance(local)
    }

    /// Renders a triple with a global id in `S P O` form.
    pub fn display_triple(&self, id: TripleId) -> String {
        let (slice, local) = self.slice_of(id);
        slice.display_triple(local)
    }

    /// Exact number of triples matching `pattern`, across shards and
    /// the delta.
    pub fn count(&self, pattern: &SlotPattern) -> usize {
        match pattern.s {
            // Subject-bound patterns are co-located per segment: the
            // home base shard plus the home delta view.
            Some(s) => {
                let home = s.shard_of(self.shard_count());
                self.live.bases()[home].count(pattern)
                    + self.live.views().get(home).map_or(0, |v| v.count(pattern))
            }
            None => {
                self.live
                    .bases()
                    .iter()
                    .map(|sh| sh.count(pattern))
                    .sum::<usize>()
                    + self
                        .live
                        .views()
                        .iter()
                        .map(|v| v.count(pattern))
                        .sum::<usize>()
            }
        }
    }

    /// One slice's total emission weight for a (mask-filtered) pattern:
    /// the reference scan of lookup + repetition mask + provenance
    /// weights.
    fn slice_total(slice: &XkgStore, slot: &SlotPattern, mask: u8) -> f64 {
        slice
            .lookup(slot)
            .iter()
            .filter(|&&id| mask == 0 || satisfies_mask(slice, id, mask))
            .map(|&id| slice.provenance(id).weight())
            .sum()
    }

    /// Cross-shard total emission weight of a canonical pattern's
    /// (mask-filtered) match set — the slow path behind
    /// [`GlobalTotals::pattern_total`], memoized per store generation
    /// (the memo is cleared on every mutation). Spans the delta views.
    fn scan_total(&self, key: &CanonicalPattern) -> f64 {
        let (slot, mask) = *key;
        self.live
            .bases()
            .iter()
            .chain(self.live.views())
            .map(|slice| ShardedStore::slice_total(slice, &slot, mask))
            .sum()
    }

    /// True if an ingested, not-yet-compacted delta is live. While it
    /// is, execution unions the delta views into the merge and global
    /// totals are explicit for every shape (subject matches split
    /// between a subject's home base shard and its home delta view).
    #[inline]
    pub fn has_delta(&self) -> bool {
        !self.live.is_empty()
    }

    /// Number of triples currently in the delta segment.
    #[inline]
    pub fn delta_len(&self) -> usize {
        self.live.len()
    }

    /// Number of provenance merges queued for the next compaction.
    #[inline]
    pub fn pending_absorbs(&self) -> usize {
        self.live.pending_absorbs()
    }

    /// The store generation: bumped by every [`ShardedStore::ingest`]
    /// and [`ShardedStore::compact`]. Two reads under the same
    /// generation observe an identical store.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.live.generation()
    }

    /// The base shards' epoch: bumped by [`ShardedStore::compact`] only
    /// — an ingest never changes a base shard. Store-level posting
    /// caches (which hold base-shard lists) are stamped with this.
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        self.live.base_epoch()
    }

    /// The non-empty delta views with their global-id bases, in
    /// global-id order — the extra merge slices partitioned execution
    /// appends after the base shards.
    pub fn delta_slices(&self) -> impl Iterator<Item = (&XkgStore, u32)> {
        self.live
            .views()
            .iter()
            .zip(self.delta.offsets.iter().copied())
            .filter(|(view, _)| !view.is_empty())
    }

    /// Ingests a batch of triples: `fill` appends into a builder whose
    /// dictionary/source table extend the current vocabulary, the batch
    /// lands in the delta, and the delta's subject-hash-partitioned
    /// views are frozen again (see [`LiveDelta::ingest`]; the base
    /// shards are never rebuilt). Returns the number of *new* triples
    /// appended; re-observations of base triples are queued as pending
    /// provenance absorbs (applied at the next
    /// [`ShardedStore::compact`]), and re-observations of delta triples
    /// merge in place.
    pub fn ingest(&mut self, fill: impl FnOnce(&mut XkgBuilder)) -> usize {
        let appended = self.live.ingest(fill);
        self.delta = Aggregates::over(self.live.views(), self.base.len);
        self.invalidate_memo();
        appended
    }

    /// Re-freezes the delta into the base shards: each shard's triples,
    /// its pending provenance absorbs, and its delta view's triples
    /// become one fresh shard in the base layout with rebuilt strata
    /// and aggregates, and the delta empties. Global triple ids are
    /// reassigned.
    pub fn compact(&mut self) {
        self.live.compact();
        self.base = Aggregates::over(self.live.bases(), 0);
        self.delta = Aggregates::default();
        self.predicates = self.base.predicates();
        self.invalidate_memo();
    }

    /// Wall time of the most recent ingest batch, in nanoseconds (`0`
    /// before the first ingest).
    #[inline]
    pub fn last_ingest_ns(&self) -> u64 {
        self.live.last_ingest_ns()
    }

    /// Wall time of the most recent compaction, in nanoseconds (`0`
    /// before the first compaction).
    #[inline]
    pub fn last_compact_ns(&self) -> u64 {
        self.live.last_compact_ns()
    }

    /// Drops every memoized cross-shard total — they embed delta mass,
    /// which just changed. Poison is cleared the same way
    /// [`GlobalTotals::pattern_total`] recovers it.
    fn invalidate_memo(&mut self) {
        match self.totals_memo.get_mut() {
            Ok(memo) => memo.clear(),
            Err(poisoned) => {
                poisoned.into_inner().clear();
                self.totals_memo.clear_poison();
            }
        }
    }
}

impl GlobalTotals for ShardedStore {
    fn pattern_total(&self, key: &CanonicalPattern) -> Option<f64> {
        let (slot, mask) = *key;
        if let Some(s) = slot.s {
            if self.live.is_empty() {
                // Subject-bound, frozen: all matches are co-located, so
                // the shard's local total is already the global total.
                return None;
            }
            // With a live delta the subject's matches split between its
            // home base shard and its home delta view, so the total
            // must be explicit.
            let home = s.shard_of(self.shard_count());
            let delta_view = &self.live.views()[home];
            if mask == 0 && slot.p.is_none() && slot.o.is_none() {
                return Some(
                    self.live.bases()[home].subject_total_weight(s)
                        + delta_view.subject_total_weight(s),
                );
            }
            return Some(
                ShardedStore::slice_total(&self.live.bases()[home], &slot, mask)
                    + ShardedStore::slice_total(delta_view, &slot, mask),
            );
        }
        if mask == 0 {
            match (slot.p, slot.o) {
                (Some(p), None) => return Some(self.predicate_total_weight(p)),
                (None, None) => return Some(self.base.global_total + self.delta.global_total),
                // Object-anchored: each slice's object-group total is an
                // O(log n) prefix-sum read, so the global total is a sum
                // over slices instead of a memoized cross-shard scan —
                // and the shard-local lists themselves stay borrowed
                // slices (no per-shard materialization for anchored
                // lookups).
                (None, Some(o)) => {
                    return Some(
                        self.live
                            .bases()
                            .iter()
                            .chain(self.live.views())
                            .map(|sh| sh.object_total_weight(o))
                            .sum(),
                    )
                }
                _ => {}
            }
        }
        #[expect(clippy::disallowed_methods, reason = "poison recovered: a panicking holder can at worst leave a partial memo entry, so the memo is dropped wholesale and totals recompute on demand")]
        let mut memo = match self.totals_memo.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.totals_memo.clear_poison();
                guard
            }
        };
        if let Some(&t) = memo.get(key) {
            return Some(t);
        }
        let t = self.scan_total(key);
        memo.insert(*key, t);
        Some(t)
    }
}

impl ConditionOracle for ShardedStore {
    fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool {
        // Subject-hash partitioning: a ground triple can only live in
        // its subject's base shard or its subject's delta view.
        let shard = s.shard_of(self.shard_count());
        let slot = SlotPattern::new(Some(s), Some(p), Some(o));
        self.live.bases()[shard].count(&slot) > 0
            || self
                .live
                .views()
                .get(shard)
                .is_some_and(|v| v.count(&slot) > 0)
    }
}

impl TripleLookup for ShardedStore {
    #[inline]
    fn triple_of(&self, id: TripleId) -> Triple {
        self.triple(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_query::QPattern;
    use trinit_relax::{QTerm, VarId};

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..30u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{i}"));
            b.add_kg_resources(&format!("s{i}"), "q", "hub");
        }
        let src = b.intern_source("doc");
        for i in 0..10u32 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            let p = b.dict_mut().token("linked to");
            let o = b.dict_mut().resource(&format!("s{}", (i + 1) % 10));
            b.add_extracted(s, p, o, 0.5 + (i % 4) as f32 * 0.1, src);
        }
        // A self-loop for repeated-variable totals.
        b.add_kg_resources("loop", "p", "loop");
        b
    }

    #[test]
    fn global_aggregates_match_monolith() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 4);
        assert_eq!(sharded.len(), single.len());
        assert_eq!(sharded.len_of(GraphTag::Kg), single.len_of(GraphTag::Kg));
        assert_eq!(sharded.predicates(), single.predicates());
        let idx = single.posting_index();
        assert!((sharded.base.global_total - idx.total_weight()).abs() < 1e-9);
        for &p in single.predicates() {
            assert!(
                (sharded.predicate_total_weight(p) - idx.predicate_total_weight(p)).abs() < 1e-9,
                "predicate total diverges"
            );
        }
    }

    #[test]
    fn global_ids_resolve_across_shards() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 3);
        let mut seen = 0usize;
        for shard_idx in 0..sharded.shard_count() {
            for (local, t) in sharded.shard(shard_idx).iter().collect::<Vec<_>>() {
                let gid = sharded.global_id(shard_idx, local);
                assert_eq!(sharded.resolve(gid), (shard_idx, local));
                assert_eq!(sharded.triple(gid), t);
                assert_eq!(sharded.triple_of(gid), t);
                // Display and provenance agree with the monolith.
                let slot = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
                let mono_id = single.lookup(&slot)[0];
                assert_eq!(sharded.display_triple(gid), single.display_triple(mono_id));
                assert_eq!(
                    sharded.provenance(gid).weight(),
                    single.provenance(mono_id).weight()
                );
                seen += 1;
            }
        }
        assert_eq!(seen, single.len());
    }

    #[test]
    fn condition_oracle_agrees_with_monolith() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 5);
        let p = single.resource("p").unwrap();
        let q = single.resource("q").unwrap();
        for i in 0..30u32 {
            let s = single.resource(&format!("s{i}")).unwrap();
            let o = single.resource(&format!("o{i}")).unwrap();
            let hub = single.resource("hub").unwrap();
            assert!(sharded.ground_holds(s, p, o));
            assert!(sharded.ground_holds(s, q, hub));
            assert!(!sharded.ground_holds(s, q, o));
        }
    }

    #[test]
    fn pattern_totals_are_global() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 4);
        let p = single.resource("p").unwrap();
        let v0 = QTerm::Var(VarId(0));
        let v1 = QTerm::Var(VarId(1));
        // Predicate-only: O(1) precomputed aggregate.
        let key = trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(p), v1));
        let expected = single.posting_index().predicate_total_weight(p);
        assert!((sharded.pattern_total(&key).unwrap() - expected).abs() < 1e-9);
        // Object-bound: memoized cross-shard scan.
        let hub = single.resource("hub").unwrap();
        let q = single.resource("q").unwrap();
        let obj_key =
            trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(q), QTerm::Term(hub)));
        let direct: f64 = single
            .lookup(&SlotPattern::new(None, Some(q), Some(hub)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&obj_key).unwrap() - direct).abs() < 1e-9);
        // Memo hit returns the same value.
        assert_eq!(
            sharded.pattern_total(&obj_key),
            sharded.pattern_total(&obj_key)
        );
        // Object-anchored (o-only): summed from the shards' O(log n)
        // object-group prefix columns, no scan.
        let hub_only_key =
            trinit_query::canonical_pattern(&QPattern::new(v0, v1, QTerm::Term(hub)));
        let direct_o: f64 = single
            .lookup(&SlotPattern::new(None, None, Some(hub)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&hub_only_key).unwrap() - direct_o).abs() < 1e-9);
        // Repeated-variable (self-loop) shape: filtered scan.
        let rep_key = trinit_query::canonical_pattern(&QPattern::new(v0, QTerm::Term(p), v0));
        let loop_s = single.resource("loop").unwrap();
        let loop_weight: f64 = single
            .lookup(&SlotPattern::new(Some(loop_s), Some(p), Some(loop_s)))
            .iter()
            .map(|&id| single.provenance(id).weight())
            .sum();
        assert!((sharded.pattern_total(&rep_key).unwrap() - loop_weight).abs() < 1e-9);
        // Subject-bound: local is global.
        let s0 = single.resource("s0").unwrap();
        let sub_key =
            trinit_query::canonical_pattern(&QPattern::new(QTerm::Term(s0), QTerm::Term(p), v1));
        assert_eq!(sharded.pattern_total(&sub_key), None);
    }

    /// A monolith is the one-partition store: global ids run over the
    /// base, then the live delta view; triple lookup, the condition
    /// oracle and the pattern totals span both, and the store reads as
    /// one frozen slice exactly while no delta is live.
    #[test]
    fn one_partition_store_spans_base_and_delta() {
        let batch = |b: &mut XkgBuilder| {
            b.add_kg_resources("fresh", "p", "o3");
            b.add_kg_resources("s1", "q", "o1");
        };
        let mut store = ShardedStore::from_shards(vec![builder().build()]);
        assert!(store.single_slice().is_some());
        assert_eq!(store.segments().len(), 1);
        let base_len = store.base().len();
        assert_eq!(store.ingest(batch), 2);
        assert!(store.single_slice().is_none());
        let segments = store.segments();
        assert_eq!(segments.len(), 2);
        let view = segments[1];
        assert_eq!(store.len(), base_len + view.len());

        let first_delta = TripleId(base_len as u32);
        assert_eq!(store.triple(TripleId(0)), store.base().triple(TripleId(0)));
        assert_eq!(store.triple(first_delta), view.triple(TripleId(0)));
        assert_eq!(store.triple_of(first_delta), view.triple(TripleId(0)));
        assert_eq!(store.display_triple(first_delta), view.display_triple(TripleId(0)));

        let id = |name: &str| store.vocab().resource(name).unwrap();
        assert!(store.ground_holds(id("fresh"), id("p"), id("o3")), "delta fact");
        assert!(store.ground_holds(id("s0"), id("p"), id("o0")), "base fact");
        assert!(!store.ground_holds(id("fresh"), id("p"), id("o0")));

        let mut union = builder();
        batch(&mut union);
        let union = union.build();
        let (s, p, o) = (id("s1"), id("p"), id("o1"));
        for mask in 0u8..8 {
            let slot = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let want: f64 = union
                .lookup(&slot)
                .iter()
                .map(|&id| union.provenance(id).weight())
                .sum();
            let total = store.pattern_total(&(slot, 0)).expect("explicit under a delta");
            assert!((total - want).abs() < 1e-9, "shape {slot}");
        }
        assert_eq!(store.len_of(GraphTag::Kg), union.len_of(GraphTag::Kg));
    }

    #[test]
    fn counts_aggregate_across_shards() {
        let single = builder().build();
        let sharded = ShardedStore::build(builder(), 3);
        let p = single.resource("p").unwrap();
        assert_eq!(
            sharded.count(&SlotPattern::with_p(p)),
            single.count(&SlotPattern::with_p(p))
        );
        let s3 = single.resource("s3").unwrap();
        assert_eq!(
            sharded.count(&SlotPattern::new(Some(s3), None, None)),
            single.count(&SlotPattern::new(Some(s3), None, None))
        );
        assert_eq!(sharded.count(&SlotPattern::any()), single.len());
    }
}
