//! What an execution queries: a [`StoreView`] over store slices.
//!
//! Every store answers a query as a union of frozen [`XkgStore`]
//! slices — one store; a frozen base plus a freshly frozen delta; N
//! subject-hash shards followed by their delta views — and
//! [`execute`](crate::exec::drive::execute) takes that list, never the
//! store. Besides the slices, a view carries the cross-slice context
//! the pipeline needs:
//!
//! * a global triple-id space — the first slice starts at 0 and each
//!   later slice where its predecessor ends, so every emitted and
//!   derivation id is global;
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
//! and oracle, and local totals are global). Every multi-slice view is
//! a partitioned store's (`trinit_shard::ShardedStore`, of which a
//! monolith is the one-partition case), which implements all three
//! traits itself.

use trinit_relax::ConditionOracle;
use trinit_xkg::XkgStore;

use crate::exec::TripleLookup;
use crate::score::GlobalTotals;

/// The slice list of a view; `One` lets [`StoreView::single`] hold its
/// store without borrowing a caller-side array (and a merge copy it
/// without allocating).
#[derive(Clone, Copy)]
pub(crate) enum Slices<'a> {
    One([&'a XkgStore; 1]),
    Many(&'a [&'a XkgStore]),
}

impl<'a> Slices<'a> {
    /// The slices, in global-id order.
    pub(crate) fn get(&self) -> &[&'a XkgStore] {
        match self {
            Slices::One(one) => one,
            Slices::Many(many) => many,
        }
    }
}

/// What one execution queries: store slices plus the cross-slice
/// context (see the module docs).
#[derive(Clone, Copy)]
pub struct StoreView<'a> {
    pub(crate) slices: Slices<'a>,
    pub(crate) lookup: &'a dyn TripleLookup,
    /// `None` only for [`StoreView::single`]: local totals are global.
    pub(crate) totals: Option<&'a dyn GlobalTotals>,
    pub(crate) oracle: &'a dyn ConditionOracle,
}

impl<'a> StoreView<'a> {
    /// One store queried on its own — a frozen monolith.
    pub fn single(store: &'a XkgStore) -> StoreView<'a> {
        StoreView {
            slices: Slices::One([store]),
            lookup: store,
            totals: None,
            oracle: store,
        }
    }

    /// `slices`, the first based at 0 in the global id space and each
    /// later one right after its predecessor, under `context`'s lookup,
    /// totals and oracle.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is empty.
    pub fn over<C>(slices: &'a [&'a XkgStore], context: &'a C) -> StoreView<'a>
    where
        C: TripleLookup + GlobalTotals + ConditionOracle,
    {
        assert!(!slices.is_empty(), "at least one slice");
        StoreView {
            slices: Slices::Many(slices),
            lookup: context,
            totals: Some(context),
            oracle: context,
        }
    }

    /// The slices, in global-id order.
    pub fn slices(&self) -> &[&'a XkgStore] {
        self.slices.get()
    }
}
