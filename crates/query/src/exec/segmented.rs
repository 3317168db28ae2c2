//! What an execution queries: a [`StoreView`] over store slices.
//!
//! Every backend answers a query as a union of frozen [`XkgStore`]
//! slices — one store; a frozen base plus a freshly frozen delta; N
//! subject-hash shards followed by their delta views — and
//! [`execute`](crate::exec::drive::execute) takes that list, never the
//! backend. Besides the slices, a view carries the cross-slice context
//! the pipeline needs:
//!
//! * `offsets[i]` — slice `i`'s base in the view's global triple-id
//!   space (every emitted and derivation id is global);
//! * [`TripleLookup`] — resolves those global ids during the join;
//! * [`GlobalTotals`] — a pattern's matches split across slices (a
//!   subject's matches split between its home shard's base and delta,
//!   so even subject-bound shapes need a cross-slice denominator), and
//!   every emission is normalized over the *union's* total emission
//!   weight so scores equal a from-scratch rebuild's;
//! * [`ConditionOracle`] — a structural rule's data condition holds if
//!   any slice asserts the ground triple.
//!
//! [`StoreView::single`] is one store on its own (it is its own lookup
//! and oracle, and local totals are global). A sharded store implements
//! all three traits itself; [`SegmentedExec`] implements them for an
//! arbitrary slice list (a monolith's base + delta). It is deliberately
//! transient (per query): delta views are rebuilt on every ingest, so
//! memoizing totals across queries would just be another invalidation
//! surface. Its totals are O(log n) prefix-sum reads per slice for the
//! four index-served shapes, and a scan of the (small) matching range
//! for composite shapes.

use trinit_relax::ConditionOracle;
use trinit_xkg::{SlotPattern, TermId, Triple, TripleId, XkgStore};

use crate::exec::TripleLookup;
use crate::score::{satisfies_mask, CanonicalPattern, GlobalTotals};

/// The slice list of a view; `One` lets [`StoreView::single`] hold its
/// store without borrowing a caller-side array.
#[derive(Clone, Copy)]
enum Slices<'a> {
    One([&'a XkgStore; 1]),
    Many(&'a [&'a XkgStore]),
}

/// What one execution queries: store slices plus the cross-slice
/// context (see the module docs).
#[derive(Clone, Copy)]
pub struct StoreView<'a> {
    slices: Slices<'a>,
    pub(crate) offsets: &'a [u32],
    pub(crate) lookup: &'a dyn TripleLookup,
    /// `None` only for [`StoreView::single`]: local totals are global.
    pub(crate) totals: Option<&'a dyn GlobalTotals>,
    pub(crate) oracle: &'a dyn ConditionOracle,
}

impl<'a> StoreView<'a> {
    /// One store queried on its own — the monolith.
    pub fn single(store: &'a XkgStore) -> StoreView<'a> {
        StoreView {
            slices: Slices::One([store]),
            offsets: &[0],
            lookup: store,
            totals: None,
            oracle: store,
        }
    }

    /// `slices` (slice `i` based at `offsets[i]` in the global id
    /// space) under `context`'s lookup, totals and oracle.
    ///
    /// # Panics
    ///
    /// Panics if the lists differ in length or are empty.
    pub fn over<C>(slices: &'a [&'a XkgStore], offsets: &'a [u32], context: &'a C) -> StoreView<'a>
    where
        C: TripleLookup + GlobalTotals + ConditionOracle,
    {
        assert_eq!(slices.len(), offsets.len(), "one offset per slice");
        assert!(!slices.is_empty(), "at least one slice");
        StoreView {
            slices: Slices::Many(slices),
            offsets,
            lookup: context,
            totals: Some(context),
            oracle: context,
        }
    }

    /// The slices, in global-id order.
    pub fn slices(&self) -> &[&'a XkgStore] {
        match &self.slices {
            Slices::One(one) => one,
            Slices::Many(many) => many,
        }
    }
}

/// Cross-slice totals, lookup, and oracle over an explicit slice list —
/// the context of a segmented store's [`StoreView`].
pub struct SegmentedExec<'a> {
    slices: &'a [&'a XkgStore],
    /// `offsets[i]` is slice `i`'s base in the global triple-id space;
    /// monotonically non-decreasing, starting at the caller's origin.
    offsets: &'a [u32],
}

impl<'a> SegmentedExec<'a> {
    /// Bundles `slices` (with their global-id `offsets`) into one
    /// execution context.
    ///
    /// # Panics
    ///
    /// Panics if the lists differ in length or are empty.
    pub fn new(slices: &'a [&'a XkgStore], offsets: &'a [u32]) -> SegmentedExec<'a> {
        assert_eq!(slices.len(), offsets.len(), "one offset per slice");
        assert!(!slices.is_empty(), "at least one slice");
        SegmentedExec { slices, offsets }
    }

    /// The view over these slices, with `self` as its context.
    pub fn view(&'a self) -> StoreView<'a> {
        StoreView::over(self.slices, self.offsets, self)
    }

    /// Resolves a global triple id to its slice and slice-local id.
    fn resolve(&self, id: TripleId) -> (&'a XkgStore, TripleId) {
        let i = self.offsets.partition_point(|&base| base <= id.0) - 1;
        let local = TripleId(id.0 - self.offsets[i]);
        assert!(
            local.idx() < self.slices[i].len(),
            "triple id {id:?} outside every slice"
        );
        (self.slices[i], local)
    }

    /// A filtered pattern's total emission weight across every slice:
    /// the reference scan (lookup + repetition mask + provenance
    /// weights), summed over slices.
    fn scan_total(&self, slot: &SlotPattern, mask: u8) -> f64 {
        self.slices
            .iter()
            .map(|s| {
                s.lookup(slot)
                    .iter()
                    .filter(|&&id| satisfies_mask(s, id, mask))
                    .map(|&id| s.provenance(id).weight())
                    .sum::<f64>()
            })
            .sum()
    }
}

impl GlobalTotals for SegmentedExec<'_> {
    fn pattern_total(&self, key: &CanonicalPattern) -> Option<f64> {
        if self.slices.len() == 1 {
            // One slice: local is global for every shape.
            return None;
        }
        let (slot, mask) = *key;
        if mask == 0 {
            // The four index-served shapes read per-slice prefix sums.
            match (slot.s, slot.p, slot.o) {
                (Some(s), None, None) => {
                    return Some(
                        self.slices
                            .iter()
                            .map(|sl| sl.subject_total_weight(s))
                            .sum(),
                    )
                }
                (None, Some(p), None) => {
                    return Some(
                        self.slices
                            .iter()
                            .map(|sl| sl.posting_index().predicate_total_weight(p))
                            .sum(),
                    )
                }
                (None, None, Some(o)) => {
                    return Some(
                        self.slices
                            .iter()
                            .map(|sl| sl.object_total_weight(o))
                            .sum(),
                    )
                }
                (None, None, None) => {
                    return Some(
                        self.slices
                            .iter()
                            .map(|sl| sl.posting_index().total_weight())
                            .sum(),
                    )
                }
                _ => {}
            }
        }
        Some(self.scan_total(&slot, mask))
    }
}

impl TripleLookup for SegmentedExec<'_> {
    fn triple_of(&self, id: TripleId) -> Triple {
        let (slice, local) = self.resolve(id);
        slice.triple(local)
    }
}

impl ConditionOracle for SegmentedExec<'_> {
    fn ground_holds(&self, s: TermId, p: TermId, o: TermId) -> bool {
        let slot = SlotPattern::new(Some(s), Some(p), Some(o));
        self.slices.iter().any(|sl| sl.count(&slot) > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::XkgBuilder;

    fn base_and_delta() -> (XkgStore, XkgStore, XkgStore) {
        let mut b = XkgBuilder::new();
        for i in 0..10u32 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{}", i % 3));
        }
        let base = b.clone().build();
        let mut delta = XkgBuilder::with_context(base.dict().clone(), base.sources());
        delta.add_kg_resources("s1", "q", "o0");
        delta.add_kg_resources("s11", "p", "o1");
        let union = {
            let mut u = b;
            u.add_kg_resources("s1", "q", "o0");
            u.add_kg_resources("s11", "p", "o1");
            u.build()
        };
        (base, delta.build(), union)
    }

    #[test]
    fn totals_match_the_union_store_for_every_shape() {
        let (base, delta, union) = base_and_delta();
        let slices = [&base, &delta];
        let offsets = [0u32, base.len() as u32];
        let exec = SegmentedExec::new(&slices, &offsets);
        let s = union.resource("s1").unwrap();
        let p = union.resource("p").unwrap();
        let o = union.resource("o0").unwrap();
        for slot in [
            SlotPattern::new(None, None, None),
            SlotPattern::new(Some(s), None, None),
            SlotPattern::new(None, Some(p), None),
            SlotPattern::new(None, None, Some(o)),
            SlotPattern::new(Some(s), Some(p), None),
            SlotPattern::new(Some(s), None, Some(o)),
            SlotPattern::new(None, Some(p), Some(o)),
            SlotPattern::new(Some(s), Some(p), Some(o)),
        ] {
            let total = exec
                .pattern_total(&(slot, 0))
                .expect("multi-slice totals are always explicit");
            let want: f64 = union
                .lookup(&slot)
                .iter()
                .map(|&id| union.provenance(id).weight())
                .sum();
            assert!((total - want).abs() < 1e-9, "shape {slot}");
        }
    }

    #[test]
    fn single_slice_defers_to_local_totals() {
        let (base, _, _) = base_and_delta();
        let slices = [&base];
        let offsets = [0u32];
        let exec = SegmentedExec::new(&slices, &offsets);
        assert_eq!(exec.pattern_total(&(SlotPattern::new(None, None, None), 0)), None);
    }

    #[test]
    fn lookup_and_oracle_span_the_slices() {
        let (base, delta, _) = base_and_delta();
        let slices = [&base, &delta];
        let offsets = [0u32, base.len() as u32];
        let exec = SegmentedExec::new(&slices, &offsets);
        assert_eq!(exec.triple_of(TripleId(0)), base.triple(TripleId(0)));
        assert_eq!(
            exec.triple_of(TripleId(base.len() as u32)),
            delta.triple(TripleId(0))
        );
        let s = delta.resource("s11").unwrap();
        let p = delta.resource("p").unwrap();
        let o = delta.resource("o1").unwrap();
        assert!(exec.ground_holds(s, p, o), "delta-only fact must hold");
        let bs = base.resource("s0").unwrap();
        let bo = base.resource("o0").unwrap();
        assert!(exec.ground_holds(bs, p, bo), "base fact must hold");
        assert!(!exec.ground_holds(s, p, bo));
    }
}
