//! LSM-style live ingestion: frozen base partitions + one mutable delta.
//!
//! Everything in [`XkgStore`] is frozen at `build()`, but a production
//! KG ingests continuously. [`LiveDelta`] layers a small mutable delta
//! over N frozen base partitions — one for a monolith — and is the write
//! path of every store (the partitioned store in `trinit-shard` adds its
//! cross-partition aggregates on top):
//!
//! - [`LiveDelta::ingest`] appends a batch into the delta and merges it
//!   into *only the delta's* sorted columns, so the bases' permutation
//!   and posting indexes are never rebuilt. A segment is just another
//!   merge source: queries serve posting lists per segment and union them
//!   through the engine's rank-merge seam.
//! - [`LiveDelta::compact`] merges the delta (and any pending provenance
//!   absorbs) back into the frozen bases, emptying the delta.
//!
//! An ingest costs the batch plus one merge into the delta, a compaction
//! one merge of the delta into the base, and neither copies vocabulary
//! or provenance (the cost table is in `docs/storage.md`).
//!
//! Re-observation of a triple the base already holds does not duplicate
//! it: the provenance merge is queued as a *pending absorb* and applied
//! at the next compaction (until then the base serves the fact with its
//! pre-ingest weight — deltas only ever add mass for genuinely new
//! facts, which keeps every frozen index valid between compactions).
//!
//! Global [`TripleId`]s enumerate the base partitions, then the delta
//! views after all of them; compaction reassigns them.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::dict::{SourceTable, TermDict};
use crate::pack::SegmentLayout;
use crate::pattern::SlotPattern;
use crate::store::{next_triple_id, Columns, Part, Vocab, XkgBuilder, XkgStore};
use crate::triple::{GraphTag, Provenance, Triple, TripleId};

/// The write path of every store: N frozen base partitions
/// (subject-hash partitioned; N = 1 for a monolith) and one live delta
/// partitioned the same way.
///
/// The delta's triples live in its frozen views between ingests; an
/// ingest appends the batch to their columns and merges it into their
/// sorted index columns (*append – merge*), the only per-ingest work that
/// grows with the delta; nothing grows with the base. The vocabulary is
/// shared, never copied: the delta's dictionary and source table are
/// clones of the base's that share every sealed layer (see
/// [`crate::dict`]), held behind the same `Arc`s the views hold, so
/// thawing the views leaves this the sole owner.
#[derive(Debug)]
pub struct LiveDelta {
    bases: Vec<XkgStore>,
    /// The delta's frozen views, one per base partition; empty while the
    /// delta holds no triple. Always `Flat`: they are re-frozen on every
    /// ingest.
    views: Vec<XkgStore>,
    /// The interning context ingested terms land in: a superset of the
    /// bases' (same ids), shared with the views.
    vocab: Vocab,
    /// Delta triple → its local id within its partition's view.
    dedup: HashMap<Triple, TripleId>,
    /// Provenance merges for re-observed *base* triples — (partition,
    /// base-local id, observation) — applied at the next compaction.
    pending: Vec<(usize, TripleId, Provenance)>,
    /// Distinct triples in the delta, and how many are KG-stratum.
    len: usize,
    kg_len: usize,
    generation: u64,
    base_epoch: u64,
    last_ingest_ns: u64,
    last_compact_ns: u64,
}

impl LiveDelta {
    /// Wraps frozen base partitions with an empty delta. Shares the
    /// bases' vocabulary handles; nothing is copied.
    ///
    /// `bases` must be the non-empty output of one sharded build (one
    /// dictionary, subject-hash partitioned by `bases.len()`).
    pub fn new(bases: Vec<XkgStore>) -> LiveDelta {
        assert!(!bases.is_empty(), "at least one base partition required");
        LiveDelta {
            vocab: bases[0].vocab(),
            bases,
            views: Vec::new(),
            dedup: HashMap::new(),
            pending: Vec::new(),
            len: 0,
            kg_len: 0,
            generation: 0,
            base_epoch: 0,
            last_ingest_ns: 0,
            last_compact_ns: 0,
        }
    }

    /// The frozen base partitions.
    #[inline]
    pub fn bases(&self) -> &[XkgStore] {
        &self.bases
    }

    /// The delta's frozen views, parallel to [`LiveDelta::bases`];
    /// empty while the delta holds no triple.
    #[inline]
    pub fn views(&self) -> &[XkgStore] {
        &self.views
    }

    /// The store to resolve vocabulary against: a delta view when one
    /// exists (its dictionary is a superset of the bases', with
    /// identical ids for shared terms), base partition 0 otherwise.
    #[inline]
    pub fn vocab(&self) -> &XkgStore {
        self.views.first().unwrap_or(&self.bases[0])
    }

    /// Distinct triples in the delta.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True while the delta holds no triple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Delta triples in a stratum. O(1): kept as running counters.
    pub fn len_of(&self, graph: GraphTag) -> usize {
        match graph {
            GraphTag::Kg => self.kg_len,
            GraphTag::Xkg => self.len - self.kg_len,
        }
    }

    /// Number of provenance merges queued for the next compaction.
    #[inline]
    pub fn pending_absorbs(&self) -> usize {
        self.pending.len()
    }

    /// Bumped by every ingest and compaction: two reads under the same
    /// generation observe an identical store.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Bumped by compaction only: two reads under the same epoch observe
    /// identical *base* partitions. Caches of base-slice posting lists
    /// are stamped with this.
    #[inline]
    pub fn base_epoch(&self) -> u64 {
        self.base_epoch
    }

    /// Wall time of the most recent ingest, in nanoseconds (`0` before
    /// the first).
    #[inline]
    pub fn last_ingest_ns(&self) -> u64 {
        self.last_ingest_ns
    }

    /// Wall time of the most recent compaction, in nanoseconds (`0`
    /// before the first).
    #[inline]
    pub fn last_compact_ns(&self) -> u64 {
        self.last_compact_ns
    }

    /// Thaws the views into their columns and sorted runs (or empty parts)
    /// and takes the interning context out of its `Arc`s. With the views
    /// gone this is normally the last handle on the delta's context and
    /// nothing is copied; the first ingest after a compaction still
    /// shares it with the bases and clones the layer handles.
    fn thaw(&mut self) -> (Vec<Part>, TermDict, SourceTable) {
        let parts = if self.views.is_empty() {
            self.bases.iter().map(|_| Part::default()).collect()
        } else {
            self.views.drain(..).map(XkgStore::thaw).collect()
        };
        let Vocab { dict, sources, .. } = std::mem::take(&mut self.vocab);
        (
            parts,
            Arc::unwrap_or_clone(dict),
            Arc::unwrap_or_clone(sources),
        )
    }

    /// Ingests a batch: `fill` appends into an empty builder whose
    /// dictionary and source table *are* the delta's (moved in, moved
    /// back), each batch triple is routed to its subject's partition —
    /// a re-observed base triple queues a pending absorb, a re-observed
    /// delta triple merges in place and is marked changed, a new one is
    /// appended — and the views are frozen again by merging. Provenance
    /// records move; none is cloned. Returns the number of *new* triples.
    pub fn ingest(&mut self, fill: impl FnOnce(&mut XkgBuilder)) -> usize {
        let start = trinit_obs::now_ns();
        let (mut parts, dict, sources) = self.thaw();
        let mut batch = XkgBuilder::over(dict, sources);
        // A panicking `fill` forfeits its batch, not the store: the
        // delta is frozen again as it was, then the panic resumes.
        let filled = catch_unwind(AssertUnwindSafe(|| fill(&mut batch)));
        let (dict, sources, mut batch) = batch.into_parts();
        if filled.is_err() {
            batch = Columns::default();
        }
        let (triples, provs) = batch;

        let n = self.bases.len();
        let mut appended = 0;
        let mut probe = Vec::new();
        for (t, prov) in triples.into_iter().zip(provs) {
            let home = t.s.shard_of(n);
            let ground = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
            if let Some(&base_id) = self.bases[home].lookup_in(&ground, &mut probe).first() {
                self.pending.push((home, base_id, prov));
                continue;
            }
            let part = &mut parts[home];
            let (delta_triples, delta_provs) = &mut part.columns;
            match self.dedup.entry(t) {
                Entry::Occupied(seen) => {
                    let merged = &mut delta_provs[seen.get().idx()];
                    let was_kg = merged.graph == GraphTag::Kg;
                    merged.absorb(&prov);
                    self.kg_len += usize::from(!was_kg && merged.graph == GraphTag::Kg);
                    part.changed.push(*seen.get());
                }
                Entry::Vacant(slot) => {
                    slot.insert(next_triple_id(delta_triples.len()));
                    self.kg_len += usize::from(prov.graph == GraphTag::Kg);
                    delta_triples.push(t);
                    delta_provs.push(prov);
                    appended += 1;
                }
            }
        }
        self.len += appended;

        // The views report only the vocabulary the delta added: every
        // layer it shares with the bases is already on their books.
        let added = dict.heap_bytes_beyond(self.bases[0].dict());
        self.vocab = Vocab::new(dict, sources, added);
        if self.len > 0 {
            self.views = self.vocab.freeze_all(parts, SegmentLayout::Flat);
        }
        self.generation += 1;
        self.last_ingest_ns = trinit_obs::now_ns().saturating_sub(start);
        if let Err(panic) = filled {
            resume_unwind(panic);
        }
        appended
    }

    /// Folds the delta into the bases: each partition's base (taken apart
    /// by value), its pending absorbs (applied by id, marked changed) and
    /// its delta view are frozen as one store in the bases' layout, and
    /// the delta empties. The view's sorted columns merge with the base's,
    /// ids offset by the base length, so only the absorbed rows are
    /// sorted. No dedup pass is needed — ingest already proved base ∩
    /// delta = ∅ — and no provenance is cloned. Each partition's triple
    /// ids are its base ids followed by its delta ids, the order a
    /// from-scratch build assigns.
    pub fn compact(&mut self) {
        let start = trinit_obs::now_ns();
        let layout = self.bases[0].layout();
        let mut merged: Vec<Part> = self.bases.drain(..).map(XkgStore::thaw).collect();
        for (home, id, prov) in self.pending.drain(..) {
            merged[home].columns.1[id.idx()].absorb(&prov);
            merged[home].changed.push(id);
        }
        // With bases and views both thawed, the context's sealed layers
        // have no other owner and flatten in place.
        let (delta, mut dict, mut sources) = self.thaw();
        for (part, delta) in merged.iter_mut().zip(delta) {
            let ((triples, provs), (delta_triples, delta_provs)) = (&mut part.columns, delta.columns);
            triples.reserve_exact(delta_triples.len());
            triples.extend(delta_triples);
            provs.reserve_exact(delta_provs.len());
            provs.extend(delta_provs);
            part.runs.extend(delta.runs);
        }
        dict.flatten();
        sources.flatten();
        self.vocab = Vocab::sealed(dict, sources);
        self.bases = self.vocab.freeze_all(merged, layout);
        self.dedup.clear();
        self.len = 0;
        self.kg_len = 0;
        self.generation += 1;
        self.base_epoch += 1;
        self.last_compact_ns = trinit_obs::now_ns().saturating_sub(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::PostingList;

    fn base_builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..12u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 4));
            if i % 3 == 0 {
                let s = b.dict_mut().resource(&format!("s{i}"));
                let p = b.dict_mut().token("close to");
                let o = b.dict_mut().resource(&format!("o{}", (i + 1) % 4));
                let src = b.intern_source(&format!("doc{i}"));
                b.add_extracted(s, p, o, 0.4 + (i % 5) as f32 * 0.1, src);
            }
        }
        b
    }

    fn ingest_batch(b: &mut XkgBuilder) {
        for i in 12..18u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 4));
        }
        let s = b.dict_mut().resource("s1");
        let p = b.dict_mut().token("linked to");
        let o = b.dict_mut().resource("fresh");
        let src = b.intern_source("delta-doc");
        b.add_extracted(s, p, o, 0.9, src);
    }

    /// The union store every segmented query must agree with: base and
    /// batch rebuilt from scratch as one monolithic store.
    fn rebuilt_union() -> XkgStore {
        let mut b = base_builder();
        ingest_batch(&mut b);
        b.build()
    }

    /// A monolith: one base partition.
    fn monolith(base: XkgStore) -> LiveDelta {
        LiveDelta::new(vec![base])
    }

    fn live() -> LiveDelta {
        let mut live = monolith(base_builder().build());
        live.ingest(ingest_batch);
        live
    }

    fn base(live: &LiveDelta) -> &XkgStore {
        &live.bases()[0]
    }

    fn view(live: &LiveDelta) -> Option<&XkgStore> {
        live.views().first()
    }

    /// Every live segment, in global-id order.
    fn segments(live: &LiveDelta) -> impl Iterator<Item = &XkgStore> {
        live.bases().iter().chain(live.views())
    }

    /// Multiset of (triple, weight) a pattern matches in a store,
    /// via the reference scan path.
    fn scan_set(store: &XkgStore, pattern: &SlotPattern) -> Vec<(Triple, u64)> {
        let list = PostingList::build_by_scan(store, pattern);
        let mut out: Vec<(Triple, u64)> = list
            .entries()
            .iter()
            .map(|e| (store.triple(e.triple), e.weight.to_bits()))
            .collect();
        out.sort();
        out
    }

    /// [`scan_set`] over every live segment.
    fn scan_segments(live: &LiveDelta, pattern: &SlotPattern) -> Vec<(Triple, u64)> {
        let mut got: Vec<(Triple, u64)> = Vec::new();
        for segment in segments(live) {
            got.extend(scan_set(segment, pattern));
        }
        got.sort();
        got
    }

    fn all_shapes(store: &XkgStore) -> Vec<SlotPattern> {
        let s = store.resource("s1").unwrap();
        let p = store.resource("p").unwrap();
        let o = store.resource("o1").unwrap();
        vec![
            SlotPattern::new(None, None, None),
            SlotPattern::new(Some(s), None, None),
            SlotPattern::new(None, Some(p), None),
            SlotPattern::new(None, None, Some(o)),
            SlotPattern::new(Some(s), Some(p), None),
            SlotPattern::new(Some(s), None, Some(o)),
            SlotPattern::new(None, Some(p), Some(o)),
            SlotPattern::new(Some(s), Some(p), Some(o)),
        ]
    }

    #[test]
    fn segment_union_matches_rebuilt_store_for_all_shapes() {
        let live = live();
        let union = rebuilt_union();
        for pattern in all_shapes(&union) {
            assert_eq!(
                scan_segments(&live, &pattern),
                scan_set(&union, &pattern),
                "shape {pattern}"
            );
        }
    }

    #[test]
    fn compact_preserves_the_union() {
        let mut live = live();
        let union = rebuilt_union();
        live.compact();
        assert!(view(&live).is_none());
        assert_eq!(live.len(), 0);
        assert_eq!(base(&live).len(), union.len());
        for pattern in all_shapes(&union) {
            assert_eq!(
                scan_set(base(&live), &pattern),
                scan_set(&union, &pattern),
                "shape {pattern}"
            );
        }
    }

    #[test]
    fn packed_base_stays_packed_through_compact() {
        let mut live = monolith(base_builder().build_with(SegmentLayout::Packed));
        assert!(!base(&live).layout().is_flat());
        live.ingest(ingest_batch);
        // The hot delta view is always frozen Flat.
        assert!(view(&live).unwrap().layout().is_flat());
        live.compact();
        assert!(!base(&live).layout().is_flat(), "compact must keep the base Packed");
        let union = rebuilt_union();
        for pattern in all_shapes(&union) {
            assert_eq!(
                scan_set(base(&live), &pattern),
                scan_set(&union, &pattern),
                "shape {pattern}"
            );
        }
    }

    #[test]
    fn reobserved_base_triple_queues_pending_absorb() {
        let mut live = monolith(base_builder().build());
        let before = base(&live).len();
        let appended = live.ingest(|b| {
            // `s1 p o1` already exists in the base.
            b.add_kg_resources("s1", "p", "o1");
        });
        assert_eq!(appended, 0);
        assert_eq!(live.len(), 0, "re-observation must not enter the delta");
        assert!(view(&live).is_none());
        assert_eq!(live.pending_absorbs(), 1);
        live.compact();
        let base = base(&live);
        assert_eq!(base.len(), before, "absorb adds no triple");
        let s = base.resource("s1").unwrap();
        let p = base.resource("p").unwrap();
        let o = base.resource("o1").unwrap();
        let ids = base.lookup(&SlotPattern::new(Some(s), Some(p), Some(o)));
        assert_eq!(base.provenance(ids[0]).support, 2);
        assert_eq!(live.pending_absorbs(), 0);
    }

    #[test]
    fn generation_bumps_on_every_mutation() {
        let mut live = monolith(base_builder().build());
        assert_eq!((live.generation(), live.base_epoch()), (0, 0));
        live.ingest(ingest_batch);
        assert_eq!((live.generation(), live.base_epoch()), (1, 0));
        live.compact();
        assert_eq!((live.generation(), live.base_epoch()), (2, 1));
    }

    #[test]
    fn delta_vocab_extends_base_vocab() {
        let live = live();
        assert!(base(&live).resource("fresh").is_none());
        let fresh = live.vocab().resource("fresh").unwrap();
        // Shared terms keep their base ids in the delta dictionary.
        assert_eq!(live.vocab().resource("s1"), base(&live).resource("s1"));
        let view = view(&live).unwrap();
        assert_eq!(view.lookup(&SlotPattern::new(None, None, Some(fresh))).len(), 1);
    }

    #[test]
    fn len_of_counts_both_segments() {
        let live = live();
        let union = rebuilt_union();
        for graph in [GraphTag::Kg, GraphTag::Xkg] {
            assert_eq!(base(&live).len_of(graph) + live.len_of(graph), union.len_of(graph));
        }
        assert_eq!(base(&live).len() + view(&live).unwrap().len(), union.len());
    }

    #[test]
    fn delta_shares_the_base_vocabulary_instead_of_copying_it() {
        let mut live = monolith(base_builder().build());
        assert!(
            Arc::ptr_eq(&live.vocab.dict, &base(&live).dict_handle()),
            "an empty delta holds the base's own dictionary"
        );
        live.ingest(ingest_batch);
        let base_dict = base(&live).dict();
        let view = view(&live).unwrap();
        let added = view.dict().heap_bytes_beyond(base_dict);
        assert!(added > 0, "the batch interned new terms");
        assert_eq!(
            base_dict.heap_bytes() + added,
            view.dict().heap_bytes(),
            "every base layer is shared, none copied"
        );
        // The view reports the delta's share only, so summing the live
        // segments counts the base vocabulary once.
        assert_eq!(view.storage_bytes().dict, added);
        assert_eq!(base(&live).storage_bytes().dict, base_dict.heap_bytes());
    }

    #[test]
    fn provenance_moves_through_ingest_and_compaction() {
        let mut live = monolith(base_builder().build());
        live.ingest(ingest_batch);
        let where_is = |store: &XkgStore, pred: &str| {
            let p = store.token(pred).unwrap();
            let id = store.lookup(&SlotPattern::with_p(p))[0];
            store.provenance(id).sources.as_ptr()
        };
        let base_before = where_is(base(&live), "close to");
        let delta_before = where_is(view(&live).unwrap(), "linked to");
        live.ingest(|b| {
            b.add_kg_resources("s40", "p", "o1");
        });
        assert_eq!(
            where_is(view(&live).unwrap(), "linked to"),
            delta_before,
            "re-freezing the delta cloned an existing provenance"
        );
        live.compact();
        assert_eq!(where_is(base(&live), "close to"), base_before);
        assert_eq!(where_is(base(&live), "linked to"), delta_before);
    }

    #[test]
    fn successive_ingests_accumulate_like_one_rebuild() {
        let mut live = monolith(base_builder().build());
        let mut union = base_builder();
        let batches: [&dyn Fn(&mut XkgBuilder); 4] = [
            &ingest_batch,
            // Re-observes a delta triple, a base triple, and adds one.
            &|b| {
                let s = b.dict_mut().resource("s1");
                let p = b.dict_mut().token("linked to");
                let o = b.dict_mut().resource("fresh");
                let src = b.intern_source("second-doc");
                b.add_extracted(s, p, o, 0.95, src);
                b.add_kg_resources("s2", "p", "o2");
                b.add_kg_resources("later", "q", "fresh");
            },
            // Nothing new at all.
            &|b| {
                b.add_kg_resources("s13", "p", "o1");
            },
            // Promotes an extraction to the KG stratum.
            &|b| {
                let s = b.dict_mut().resource("s1");
                let p = b.dict_mut().token("linked to");
                let o = b.dict_mut().resource("fresh");
                b.add_kg(s, p, o);
            },
        ];
        for (i, batch) in batches.iter().enumerate() {
            live.ingest(batch);
            batch(&mut union);
            assert_eq!(live.generation(), i as u64 + 1);
        }
        assert_eq!(live.base_epoch(), 0, "ingests leave the base alone");
        let rebuilt = union.build();
        assert_eq!(base(&live).len() + live.len(), rebuilt.len());
        assert_eq!(
            base(&live).len_of(GraphTag::Kg) + live.len_of(GraphTag::Kg),
            rebuilt.len_of(GraphTag::Kg)
        );
        assert_eq!(live.pending_absorbs(), 1);
        for pattern in all_shapes(&rebuilt) {
            let got = scan_segments(&live, &pattern);
            // The re-observed base triple keeps its pre-ingest weight
            // until compaction; every other match already agrees.
            let pending = base(&live).resource("s2").unwrap();
            let want: Vec<_> = scan_set(&rebuilt, &pattern);
            let differs: Vec<_> = got.iter().zip(&want).filter(|(g, w)| g != w).collect();
            assert!(
                differs.iter().all(|(g, _)| g.0.s == pending),
                "shape {pattern}"
            );
        }
        live.compact();
        assert_eq!(live.base_epoch(), 1);
        let base = base(&live);
        for (id, t) in rebuilt.iter() {
            assert_eq!(base.triple(id), t, "compaction keeps build order");
            assert_eq!(base.provenance(id), rebuilt.provenance(id));
        }
        let terms: Vec<_> = base.dict().iter().collect();
        assert_eq!(terms, rebuilt.dict().iter().collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_fill_forfeits_its_batch_not_the_store() {
        let mut live = live();
        let before = live.len();
        let died = catch_unwind(AssertUnwindSafe(|| {
            live.ingest(|b| {
                b.add_kg_resources("half", "written", "batch");
                panic!("extraction source died");
            })
        }));
        assert!(died.is_err(), "the panic must reach the caller");
        assert_eq!(live.len(), before);
        assert_eq!(view(&live).unwrap().len(), before);
        let union = rebuilt_union();
        for pattern in all_shapes(&union) {
            assert_eq!(
                scan_segments(&live, &pattern),
                scan_set(&union, &pattern),
                "shape {pattern}"
            );
        }
        // And it still ingests.
        assert_eq!(
            live.ingest(|b| {
                b.add_kg_resources("s50", "p", "o0");
            }),
            1
        );
    }
}
