//! Stage 1 of the top-k operator pipeline: **sorted-access sources**.
//!
//! This module owns everything that turns one query pattern into a
//! stream of scored matches in globally descending probability order:
//!
//! * **Pattern alternatives** — the pattern plus its relaxed forms under
//!   mergeable rules (chained up to a depth), each with a combined
//!   weight and its global total: the stream's [`AltTable`], built once
//!   per execution by full expansion's walk ([`walk`]).
//! * **[`IncrementalMerge`]** — one priority queue over every
//!   (alternative, slice) list of a pattern (Theobald et al. style): a
//!   store cut into slices (shards, a base and its delta) just has more
//!   sorted lists. Unopened lists are held at their upper bound; a list
//!   is materialized only when that bound rises to the top — the paper's
//!   "invoked only when it can contribute" behaviour. Ties go to the
//!   lower slice, then to the lower alternative, so the emission order is
//!   one total order for any slice count. An emission ([`Merged`]) is a
//!   plain `Copy` record — global triple id, probability, and the
//!   *index* of the alternative that produced it; the alternative's
//!   pattern, rule trace and weight are read through
//!   [`IncrementalMerge::alternative`] when the join
//!   ([`crate::exec::join`], stage 2) needs them, so a pull clones
//!   nothing.
//! * **Restriction** ([`IncrementalMerge::restrict`]) — the one
//!   departure from sorted access. An opened list continues over the
//!   keyed rest of its entries; an unopened one keeps its head bound and
//!   opens through one permutation-range lookup per key (Packed decodes
//!   only those ranges) when that is priced below reading its list.
//!   Every survivor keeps its sorted-access probability (`weight / T`,
//!   `T` the unrestricted list's total) and order; restricted lists are
//!   never cached.
//!
//! **Slices.** Probabilities are normalized by each alternative's global
//! total, resolved once in its [`AltTable`] entry, so a slice's
//! emissions carry exactly the probability a monolithic store would
//! assign them, and each emitted id is offset into the view's global id
//! space. The union of the slices' match sets is the monolithic match
//! set (the partition is total and disjoint), and an opened list is
//! emitted from only when no other list's bound outranks it, so every
//! threshold argument of one store carries over. When the caller keeps
//! per-slice counters, each slice's work is recorded in its own slot as
//! it happens.
//!
//! The remaining-mass envelope exposed through
//! [`IncrementalMerge::remaining_mass`] is tracked O(1) — via the
//! posting index's prefix-sum columns for index-served lists, an
//! incremental consumed-weight cursor otherwise. It provably dominates
//! the frontier (a property test pins the invariant), serving as the
//! exact engine's verified soundness envelope and as the
//! **load-bearing termination criterion** of the ε-approximate mode
//! ([`crate::exec::drive::TopkConfig::epsilon`], enforced by
//! [`crate::exec::threshold`]).

use std::cell::{RefCell, RefMut};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::rc::Rc;

use trinit_relax::apply::{walk, Derivation, Trace};
use trinit_relax::{ExpandOptions, QPattern, QTerm, RuleId, RuleSet, SlotRewrite, VarId};
use trinit_xkg::{Posting, SlotPattern, TermId, Triple, TripleId, XkgStore};

use crate::exec::drive::TopkConfig;
use crate::exec::join::KeySet;
use crate::exec::segmented::{Slices, StoreView};
use crate::exec::ExecMetrics;
use crate::score::{
    canonical_pattern, head_prob_bound_global, probe_normalizer, satisfies_mask, CacheSource,
    GlobalTotals, ScoredMatches, SharedPostingCache,
};

/// One slice's state of one entry of the stream's [`AltTable`].
#[derive(Debug)]
struct ListState<'s> {
    matches: Option<ScoredMatches<'s>>,
    /// Sound upper bound on this list's best emission probability
    /// before it is opened: the exact head probability for the shapes
    /// the store answers without the list, 1.0 otherwise.
    head_bound: f64,
    /// Restrictions that arrived before the list opened, applied when it
    /// does.
    pending: Vec<Restriction>,
}

/// A lookup hit: triple and emission weight.
type Hit = (TripleId, f64);

/// A retired stream's keys applied to one alternative: `slots[i]` is the
/// slot of the alternative's pattern that binds `keys.vars[i]`.
#[derive(Debug, Clone)]
struct Restriction {
    keys: Rc<KeySet>,
    slots: Vec<usize>,
}

impl Restriction {
    /// `keys` applied to `pattern`, if it binds every key variable (one
    /// that dropped a variable keeps all it emits, as the filter does).
    fn of(keys: &Rc<KeySet>, pattern: &QPattern) -> Option<Restriction> {
        let terms = pattern.slots();
        let slot_of = |&v: &VarId| terms.iter().position(|&t| t == QTerm::Var(v));
        let slots = keys.vars.iter().map(slot_of).collect::<Option<_>>()?;
        let keys = Rc::clone(keys);
        Some(Restriction { keys, slots })
    }

    fn admits(&self, t: Triple) -> bool {
        let (values, mut key) = ([t.s, t.p, t.o], [TermId::from_raw(0); 3]);
        for (k, &s) in key.iter_mut().zip(&self.slots) {
            *k = values[s];
        }
        self.keys.keys.binary_search(&key).is_ok()
    }

    /// Probe or scan: |K| lookups of log₂ n against `remaining` postings.
    fn probe_pays(&self, store: &XkgStore, remaining: usize) -> bool {
        let log_n = (usize::BITS - store.len().leading_zeros()) as usize;
        self.keys.keys.len() * log_n < remaining
    }

    /// `pattern`'s matches with its key slots bound to each key, with
    /// their weights, in list order (weight desc, id asc).
    fn lookups(&self, store: &XkgStore, pattern: &QPattern, m: &mut ExecMetrics) -> Vec<Hit> {
        let (slot, mask) = canonical_pattern(pattern);
        let (mut buf, mut hits) = (Vec::new(), Vec::new());
        for key in &self.keys.keys {
            let mut bound = [slot.s, slot.p, slot.o];
            for (&s, &value) in self.slots.iter().zip(key) {
                bound[s] = Some(value);
            }
            let probe = SlotPattern::new(bound[0], bound[1], bound[2]);
            let ids = store.lookup_in(&probe, &mut buf).iter().copied();
            let ids = ids.filter(|&id| satisfies_mask(store, id, mask));
            hits.extend(ids.map(|id| (id, store.provenance(id).weight())));
        }
        hits.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        m.probe_lookups += self.keys.keys.len();
        hits
    }

    /// Opens an unopened list through its key lookups, if its normalizer
    /// is known without the list and probing pays; `global` is the
    /// alternative's global total.
    fn open(
        &self,
        store: &XkgStore,
        pattern: &QPattern,
        global: Option<f64>,
        metrics: &mut ExecMetrics,
    ) -> Option<ScoredMatches<'static>> {
        let (divisor, scale) = probe_normalizer(store, pattern, global)?;
        if !self.probe_pays(store, store.count(&pattern.slot_pattern())) {
            return None;
        }
        // A zero-mass match set serves empty, however it is opened.
        let hits = self.lookups(store, pattern, metrics).into_iter();
        let posting = |(triple, weight): Hit| Posting {
            triple,
            weight,
            prob: weight / divisor,
        };
        let hits = hits.filter(|_| divisor > 0.0).map(posting).collect();
        Some(ScoredMatches::restricted(hits, divisor, scale))
    }

    /// The keyed rest of an opened alternative's list: key lookups found
    /// in it by binary search, or one scan (its skips are postings read;
    /// counted in `restriction_scans`). Neither collects the list: a
    /// Packed group decodes only the entries the search probes, or the
    /// ids the scan tests and the entries it keeps. Both sides pay on
    /// the benchmark workloads: the scan, chosen in 65–85% of calls,
    /// beats the lookups it replaces 2.4–3.9× there, and the lookups win
    /// where chosen on `explore_cold`, the one workload where they carry
    /// real time.
    fn apply(
        &self,
        store: &XkgStore,
        pattern: &QPattern,
        matches: &ScoredMatches<'_>,
        metrics: &mut ExecMetrics,
    ) -> ScoredMatches<'static> {
        let rest = matches.rest_len();
        let kept: Vec<Posting> = if self.probe_pays(store, rest) {
            let hits = self.lookups(store, pattern, metrics).into_iter();
            hits.filter_map(|(id, w)| matches.locate(id, w)).collect()
        } else {
            let keyed = |id| self.admits(store.triple(id));
            let kept: Vec<Posting> = matches.select(keyed).collect();
            metrics.postings_scanned += rest - kept.len();
            metrics.restriction_scans += 1;
            kept
        };
        matches.narrowed(kept)
    }
}

/// Variable ids a stream may allocate for rule-introduced fresh
/// variables: its range is `[fresh_base, fresh_base + FRESH_VARS_PER_STREAM)`.
/// Every alternative draws from the same range (see [`AltTable::build`]);
/// a triple pattern has three slots, so three ids always suffice.
pub(crate) const FRESH_VARS_PER_STREAM: u16 = 3;

/// A stream's relaxation table: its pattern and the relaxed forms of it
/// under the mergeable rules, chained up to
/// [`TopkConfig::chain_depth`], each with its heaviest chain of rules and
/// that chain's weight. [`IncrementalMerge::alternative`] reads it.
///
/// A table is a function of the pattern, the rules, the configuration
/// and the view's totals alone, so [`crate::exec::drive::execute`]
/// builds one per stream and the stream's [`IncrementalMerge`] keeps
/// only each (alternative, slice) list's state beside it. Nothing
/// outlives the execution.
#[derive(Debug)]
pub struct AltTable {
    /// Each entry's form is its pattern and the pattern's global total
    /// under the view's totals provider (see [`AltTable::build`]).
    alts: Vec<Derivation<QPattern, (QPattern, Option<f64>)>>,
    /// The arena the entries' rule chains extend.
    traces: Vec<RuleId>,
}

impl AltTable {
    /// `pattern`'s alternatives in the order found: the walk full
    /// expansion runs ([`walk`]), stepping with the compiled rules
    /// ([`RuleSet::rules_for_predicate`]).
    ///
    /// `fresh_base` is the first variable id this pattern may allocate for
    /// RHS-fresh rule variables; callers give each pattern a disjoint range
    /// of `FRESH_VARS_PER_STREAM` ids so fresh variables of different
    /// streams never alias. Alternatives draw ids per pattern, not across
    /// the table: items of different alternatives never join with each
    /// other, so they may share fresh ids, and alternatives that differ
    /// only in the naming of their fresh variables are one entry.
    ///
    /// Under a totals provider (a multi-slice view), each entry's global
    /// total is resolved here, once per execution: every slice's head
    /// bound, list build and key-lookup open reads it.
    pub fn build(
        pattern: &QPattern,
        rules: &RuleSet,
        cfg: &TopkConfig,
        fresh_base: u16,
        totals: Option<&dyn GlobalTotals>,
    ) -> AltTable {
        let opts = ExpandOptions {
            max_depth: cfg.chain_depth,
            min_weight: cfg.min_weight,
            max_rewritings: cfg.max_alternatives,
        };
        let alt = |pattern| (fresh_key(pattern, fresh_base), (pattern, None));
        let rules_of = |(pattern, _): &(QPattern, _)| {
            let pred = pattern.p.term();
            pred.map_or(&[][..], |p| rules.rules_for_predicate(p)).iter().copied()
        };
        let step = |(p, _): &(_, _), rewrite: SlotRewrite| rewrite.apply(p, fresh_base).map(alt);
        let (mut alts, traces) = walk(alt(*pattern), rules, &opts, rules_of, step);
        if let Some(totals) = totals {
            for (pattern, total) in alts.iter_mut().map(|a| &mut a.form) {
                *total = totals.pattern_total(&canonical_pattern(pattern));
            }
        }
        AltTable { alts, traces }
    }

    /// Entry `alt` as the join reads it.
    #[inline]
    pub(crate) fn view(&self, alt: usize) -> AltView<'_> {
        let a = &self.alts[alt];
        AltView {
            pattern: &a.form.0,
            trace: a.trace(&self.traces),
            weight: a.weight,
        }
    }

    /// The entries in table order: the pattern itself first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AltView<'_>> {
        (0..self.alts.len()).map(|i| self.view(i))
    }
}

/// `pattern`'s key in its table: each fresh variable (id `base` or
/// above) renamed `base` plus its first slot, so that alternatives equal
/// up to the naming of their fresh variables share it.
fn fresh_key(pattern: QPattern, base: u16) -> QPattern {
    let slots = pattern.slots();
    let first = |t| slots.iter().position(|&u| u == t).unwrap_or(0) as u16;
    let [s, p, o] = slots.map(|t| match t {
        QTerm::Var(v) if v.0 >= base => QTerm::Var(VarId(base + first(t))),
        t => t,
    });
    QPattern::new(s, p, o)
}

/// Heap entry of the incremental merge: one (alternative, slice) list
/// keyed by an upper bound on its next emission. Higher bounds come
/// first, ties go to the lower slice, then to the lower alternative, so
/// the merge emits in one total order whatever the slice count.
#[derive(Debug)]
struct MergeEntry {
    bound: f64,
    alt: u32,
    /// The slice's position among the merge's slices.
    slice: u32,
    /// The slice's base in the view's global triple-id space, added to
    /// every id the list emits (it fits the entry's padding).
    id_base: u32,
    opened: bool,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for MergeEntry {}
impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.slice.cmp(&self.slice))
            .then_with(|| other.alt.cmp(&self.alt))
    }
}

/// An emission of the incremental merge.
#[derive(Debug, Clone, Copy)]
pub struct Merged {
    /// The matched triple, in the view's global id space.
    pub triple: TripleId,
    /// Combined probability `w_alt × P(t | alt pattern)`.
    pub prob: f64,
    /// Index of the emitting alternative in the merge's alternative
    /// table ([`IncrementalMerge::alternative`]).
    pub alt: u32,
}

/// One entry of a merge's alternative table, as the join reads it.
#[derive(Debug, Clone)]
pub struct AltView<'a> {
    /// The alternative's pattern (needed to bind variables).
    pub pattern: &'a QPattern,
    /// Rules on the alternative's chain.
    pub trace: Trace<'a>,
    /// The alternative's weight.
    pub weight: f64,
}

/// Where slice `s`'s work goes: its slot of the per-slice counters when
/// the merge has them, `metrics` otherwise.
fn slot<'m>(
    work: &'m mut Option<RefMut<'_, Vec<ExecMetrics>>>,
    metrics: &'m mut ExecMetrics,
    s: usize,
) -> &'m mut ExecMetrics {
    match work {
        Some(work) => &mut work[s],
        None => metrics,
    }
}

/// Incremental merge over one pattern's alternatives on a run of a
/// view's slices (Theobald et al. style): emits matches across every
/// (alternative, slice) list in globally descending combined-probability
/// order, opening a list only when its upper bound reaches the top of the
/// one queue.
pub struct IncrementalMerge<'a> {
    /// The view's slices; the merge reads `slices` of them.
    stores: Slices<'a>,
    slices: Range<usize>,
    /// Store-level caches of the view's leading slices.
    caches: &'a [SharedPostingCache],
    /// Per-slice work counters of the view, when the caller attributes
    /// work per slice; each slice's work is recorded there instead of in
    /// the `metrics` the calls pass.
    work: Option<&'a RefCell<Vec<ExecMetrics>>>,
    /// The stream's relaxation table.
    table: Rc<AltTable>,
    /// Each (alternative, slice) list's state: slice `s`'s list of entry
    /// `a` at `s * table.len() + a`, `s` counted within `slices`.
    lists: Vec<ListState<'a>>,
    heap: BinaryHeap<MergeEntry>,
    /// Incrementally maintained sound upper bound on every single
    /// emission the merge can still produce: Σ over lists of
    /// `weight × remaining`, where `remaining` is the head bound until a
    /// list opens and its unconsumed mass afterwards (each of which
    /// bounds that list's next emission). Each emission subtracts its own
    /// contribution, so reading the bound is O(1) per capping round.
    mass_upper: f64,
}

impl<'a> IncrementalMerge<'a> {
    /// The merge over `table`'s alternatives on `view`'s slices
    /// `slices`; `table` must have been built under the view's totals.
    /// `caches[s]` serves slice `s` of the view; `work`, if given, holds
    /// one counter set per slice of the view and receives each slice's
    /// work.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is out of the view's bounds.
    pub fn new(
        view: &StoreView<'a>,
        slices: Range<usize>,
        table: Rc<AltTable>,
        caches: &'a [SharedPostingCache],
        work: Option<&'a RefCell<Vec<ExecMetrics>>>,
    ) -> IncrementalMerge<'a> {
        // Exact head probability for index-served shapes (anchored
        // subject/object strata included), read in O(1) from the
        // precomputed posting index — a list enters the queue at its true
        // first-emission bound instead of the trivial `weight × 1.0`.
        // Under a totals provider the head weight is divided by the
        // alternative's global total, so each slice enters at its exact
        // globally-normalized head. A head bound of exactly 0 is only
        // reported for index-served shapes whose match set carries no
        // emission mass (the index serves them empty): such lists never
        // enter the queue, where a zero-keyed entry would linger for the
        // threshold to trip over.
        let mut lists = Vec::with_capacity(slices.len() * table.alts.len());
        for store in &view.slices()[slices.clone()] {
            lists.extend(table.alts.iter().map(|a| ListState {
                matches: None,
                head_bound: head_prob_bound_global(store, &a.form.0, a.form.1),
                pending: Vec::new(),
            }));
        }
        let mut merge = IncrementalMerge {
            stores: view.slices,
            slices,
            caches,
            work,
            heap: BinaryHeap::with_capacity(lists.len()),
            table,
            lists,
            mass_upper: 0.0,
        };
        merge.requeue();
        merge
    }

    /// The index in `lists` of `entry`'s list.
    fn list(&self, entry: &MergeEntry) -> usize {
        entry.slice as usize * self.table.alts.len() + entry.alt as usize
    }

    /// Rebuilds the queue and the mass envelope from the lists' state:
    /// opened ones at their exact next probability and remaining mass,
    /// unopened ones at their head bound (never, if that is 0).
    fn requeue(&mut self) {
        self.heap.clear();
        self.mass_upper = 0.0;
        let stores = self.stores.get();
        // The global id space is u32 by design; the store checks it at
        // construction.
        let len = |s: &&XkgStore| s.len() as u32;
        let mut id_base: u32 = stores[..self.slices.start].iter().map(len).sum();
        let per_slice = self.lists.chunks(self.table.alts.len());
        for (slice, (lists, store)) in per_slice.zip(&stores[self.slices.clone()]).enumerate() {
            for (alt, (list, entry)) in lists.iter().zip(&self.table.alts).enumerate() {
                let head = (list.head_bound > 0.0).then_some(list.head_bound);
                let (bound, mass, opened) = match &list.matches {
                    Some(m) => (m.peek_prob(), m.remaining_mass(), true),
                    None => (head, list.head_bound, false),
                };
                self.mass_upper += entry.weight * mass;
                if let Some(bound) = bound {
                    self.heap.push(MergeEntry {
                        bound: entry.weight * bound,
                        alt: alt as u32,
                        slice: slice as u32,
                        id_base,
                        opened,
                    });
                }
            }
            id_base += len(store);
        }
    }

    /// Opens an unopened heap entry's list — the moment its relaxation is
    /// "invoked" on its slice — and re-queues it at its exact head
    /// probability — through its first pending restriction's lookups when
    /// that pays ([`Restriction::open`]), the others applied after.
    fn open_entry(&mut self, entry: MergeEntry, metrics: &mut ExecMetrics) {
        let a = &self.table.alts[entry.alt as usize];
        let ((pattern, total), weight) = (a.form, a.weight);
        let s = self.slices.start + entry.slice as usize;
        let (store, cache) = (self.stores.get()[s], self.caches.get(s));
        let i = self.list(&entry);
        let list = &mut self.lists[i];
        // Entry 0 is the pattern itself; every other is a relaxation.
        if entry.alt != 0 {
            metrics.relaxations_opened += 1;
        }
        let pending = std::mem::take(&mut list.pending);
        let open = |r: &Restriction| r.open(store, &pattern, total, metrics);
        let probed = pending.first().and_then(open);
        let applied = usize::from(probed.is_some());
        let mut matches = match probed {
            Some(probed) => probed,
            None => {
                let (matches, source) = ScoredMatches::build_global(store, &pattern, cache, total);
                match source {
                    CacheSource::Built => metrics.posting_lists_built += 1,
                    CacheSource::SharedHit => metrics.shared_cache_hits += 1,
                }
                // Serve-kind accounting for fresh builds: anchored-index
                // serves never sort; `ranged_serves` are the selective
                // exact-range orderings (bounded sorts, chosen over
                // larger group walks); `posting_sorts` counts the
                // unbounded materialize-and-sort fallback, which the
                // index makes unreachable — it must stay 0.
                match matches.build_kind() {
                    Some(k) if k.is_anchored() => metrics.anchored_serves += 1,
                    Some(trinit_xkg::ServeKind::Range) => metrics.ranged_serves += 1,
                    Some(trinit_xkg::ServeKind::Scanned) => metrics.posting_sorts += 1,
                    _ => {}
                }
                matches
            }
        };
        for r in &pending[applied..] {
            matches = r.apply(store, &pattern, &matches, metrics);
        }
        if let Some(p) = matches.peek_prob() {
            self.heap.push(MergeEntry {
                bound: weight * p,
                opened: true,
                ..entry
            });
        }
        // Replace the list's head-bound contribution with its actual
        // (full) mass.
        self.mass_upper += weight * (matches.remaining_mass() - list.head_bound);
        list.matches = Some(matches);
    }

    /// Upper bound on the probability of the next emission, or `None`
    /// if exhausted.
    #[inline]
    pub fn peek_bound(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.bound)
    }

    /// Produces the next emission in descending order.
    pub fn next_merged(&mut self, metrics: &mut ExecMetrics) -> Option<Merged> {
        let mut work = self.work.map(RefCell::borrow_mut);
        loop {
            let entry = self.heap.pop()?;
            let m = slot(&mut work, metrics, self.slices.start + entry.slice as usize);
            if !entry.opened {
                self.open_entry(entry, m);
                continue;
            }
            let weight = self.table.alts[entry.alt as usize].weight;
            let i = self.list(&entry);
            let list = &mut self.lists[i];
            // An `opened` entry always has materialized matches; if the
            // invariant ever broke, dropping the entry degrades to a
            // skipped list instead of panicking mid-serve.
            let Some(matches) = list.matches.as_mut() else {
                continue;
            };
            let Some((triple, prob)) = matches.next_entry() else {
                continue;
            };
            self.mass_upper -= weight * prob;
            m.postings_scanned += 1;
            if let Some(p) = matches.peek_prob() {
                self.heap.push(MergeEntry {
                    bound: weight * p,
                    ..entry
                });
            }
            return Some(Merged {
                triple: TripleId(entry.id_base + triple.0),
                prob: weight * prob,
                alt: entry.alt,
            });
        }
    }

    /// The entry of this merge's alternative table an emission's
    /// [`Merged::alt`] indexes: the pattern the triple matched (needed to
    /// bind variables) and the provenance a derivation records. Emissions
    /// carry the index instead of a copy, so the per-pull path clones
    /// nothing; the join reads the pattern once per arrival and the rest
    /// once per *successful* combination.
    #[inline]
    pub fn alternative(&self, alt: u32) -> AltView<'_> {
        self.table.view(alt as usize)
    }

    /// Sound upper bound on every single emission the merge can still
    /// produce, so always ≥ [`IncrementalMerge::peek_bound`] — and, once
    /// its lists are open, on their collective unconsumed mass (the list
    /// cursors track it in O(1); an unopened list contributes its head
    /// bound). The ε-approximate mode's termination criterion reads this
    /// envelope (see [`crate::exec::threshold`]).
    #[inline]
    pub fn remaining_mass(&self) -> f64 {
        self.mass_upper.max(0.0)
    }

    /// Drops every future emission of an alternative binding all of
    /// `keys`' variables whose values there form no key — exactly those
    /// the retired-stream filter would drop on arrival; the rest are
    /// emitted as before, bit for bit. Each eligible list's opened rest
    /// is restricted now and each unopened one queues the restriction,
    /// keeping its head bound and staying lazy; then the queue and the
    /// mass envelope are rebuilt. False (no change) when no alternative
    /// binds them all.
    pub fn restrict(&mut self, keys: &Rc<KeySet>, metrics: &mut ExecMetrics) -> bool {
        let mut work = self.work.map(RefCell::borrow_mut);
        let n = self.table.alts.len();
        let mut restricted = false;
        for (a, entry) in self.table.alts.iter().enumerate() {
            let Some(r) = Restriction::of(keys, &entry.form.0) else {
                continue;
            };
            restricted = true;
            // One copy per slice, the last one moved.
            let copies = std::iter::repeat_n(r, self.slices.len());
            for (s, r) in self.slices.clone().zip(copies) {
                let list = &mut self.lists[(s - self.slices.start) * n + a];
                match &list.matches {
                    Some(m) => {
                        let (store, m_) = (self.stores.get()[s], slot(&mut work, metrics, s));
                        list.matches = Some(r.apply(store, &entry.form.0, m, m_));
                    }
                    None => list.pending.push(r),
                }
            }
        }
        if restricted {
            self.requeue();
        }
        restricted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::drive::Sources;
    use crate::exec::testfix::{self, store};
    use crate::exec::TripleLookup;
    use trinit_relax::{ConditionOracle, Rule, RuleProvenance};
    use trinit_xkg::{SegmentLayout, XkgBuilder};

    #[test]
    fn remaining_mass_dominates_frontier_throughout() {
        // The soundness envelope the capping bound relies on: at every
        // point of a merge's lifetime, the O(1)-tracked remaining mass
        // is ≥ the frontier (the next emission's upper bound), so
        // capping on the frontier can never be less sound than capping
        // on the mass — and the ε-approximate mode's mass criterion is
        // sound against every future emission. Exercised across
        // relaxation chains, cache hits, and exhaustion.
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let lectured = store.token("lectured at").unwrap();
        let housed = store.token("housed in").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite("a", aff, lectured, 0.7, RuleProvenance::UserDefined));
        rules.add(Rule::predicate_rewrite("b", aff, housed, 0.6, RuleProvenance::UserDefined));
        let cfg = TopkConfig {
            min_weight: 0.0,
            ..TopkConfig::default()
        };
        for pattern in [
            QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(aff), QTerm::Var(VarId(1))),
            QPattern::new(
                QTerm::Term(store.resource("AlbertEinstein").unwrap()),
                QTerm::Term(aff),
                QTerm::Var(VarId(1)),
            ),
        ] {
            let mut merge = testfix::merge(&store, &pattern, &rules, &cfg);
            let mut metrics = ExecMetrics::default();
            let mut total_emitted = 0.0;
            loop {
                let mass = merge.remaining_mass();
                match merge.peek_bound() {
                    Some(bound) => assert!(mass >= bound - 1e-12, "mass {mass} < frontier {bound}"),
                    None => break,
                }
                let Some(m) = merge.next_merged(&mut metrics) else {
                    break;
                };
                // The emission itself is covered by the pre-pull mass.
                assert!(mass >= m.prob - 1e-12);
                total_emitted += m.prob;
            }
            assert!(merge.remaining_mass() >= -1e-12);
            assert!(total_emitted > 0.0);
        }
    }

    #[test]
    fn restriction_locates_few_keys_and_scans_for_many() {
        // An opened `?x bornIn ?z` list over 40 births in 8 cities (n = 40,
        // so a lookup is priced at log₂ n = 6 postings): one city is
        // probed (6 < 39 postings left), all eight are scanned for
        // (48 ≥ 39). Both sides keep exactly the keyed rest, in order.
        let mut b = trinit_xkg::XkgBuilder::new();
        for i in 0..40 {
            b.add_kg_resources(&format!("p{i}"), "bornIn", &format!("c{}", i % 8));
        }
        let store = b.build();
        let born = store.resource("bornIn").unwrap();
        let (x, z) = (QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let pattern = QPattern::new(x, QTerm::Term(born), z);
        let city = |i: usize| [store.resource(&format!("c{i}")).unwrap()];
        for (cities, lookups, scans) in [(1, 1, 0), (8, 0, 1)] {
            let keys = Rc::new(KeySet::new(&[VarId(1)], (0..cities).map(city)));
            let (rules, cfg) = (RuleSet::new(), TopkConfig::default());
            let mut merge = testfix::merge(&store, &pattern, &rules, &cfg);
            let mut metrics = ExecMetrics::default();
            let first = merge.next_merged(&mut metrics).unwrap();
            assert!(merge.restrict(&keys, &mut metrics));
            assert_eq!((metrics.probe_lookups, metrics.restriction_scans), (lookups, scans));
            let mut kept = Vec::new();
            while let Some(m) = merge.next_merged(&mut metrics) {
                assert!(m.prob <= first.prob);
                kept.push(store.triple(m.triple).o);
            }
            let keyed = |o: TermId| keys.keys.iter().any(|k| k[0] == o);
            let first_keyed = usize::from(keyed(store.triple(first.triple).o));
            assert_eq!(kept.len(), 40 / 8 * cities - first_keyed, "{cities} keyed cities");
            assert!(kept.iter().all(|&o| keyed(o)));
        }
    }

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
        fn pattern_total(&self, &(slot, mask): &crate::score::CanonicalPattern) -> Option<f64> {
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

    /// `builder()`'s triples as a `layout` base and a Flat delta of every
    /// third triple: a subject's matches split between the two slices.
    fn base_and_delta(layout: SegmentLayout) -> Vec<XkgStore> {
        let full = builder().build();
        let part = || XkgBuilder::with_context(full.dict().clone(), full.sources());
        let (mut base, mut delta) = (part(), part());
        for (id, triple) in full.iter() {
            let into = if id.0 % 3 == 2 { &mut delta } else { &mut base };
            into.add(triple, full.provenance(id).clone());
        }
        vec![base.build_with(layout), delta.build()]
    }

    /// The reference emission sequence: one merge per slice, each on its
    /// own store under the union's table, drained in a linear scan over
    /// their next emissions — the highest probability first, ties to the
    /// lowest slice — with ids offset into the global space. Also each
    /// slice's work.
    fn linear_scan(slices: &[XkgStore], table: &Rc<AltTable>) -> (Vec<Merged>, Vec<ExecMetrics>) {
        let mut metrics = vec![ExecMetrics::default(); slices.len()];
        let views: Vec<StoreView<'_>> = slices.iter().map(StoreView::single).collect();
        let mut merges: Vec<IncrementalMerge<'_>> = views
            .iter()
            .map(|v| IncrementalMerge::new(v, 0..1, Rc::clone(table), &[], None))
            .collect();
        let mut heads: Vec<Option<Merged>> = (merges.iter_mut().zip(&mut metrics))
            .map(|(m, w)| m.next_merged(w))
            .collect();
        let mut out = Vec::new();
        let offsets: Vec<u32> = (0..slices.len())
            .map(|i| slices[..i].iter().map(|s| s.len() as u32).sum())
            .collect();
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, head) in heads.iter().enumerate() {
                if let Some(h) = head {
                    if best.is_none_or(|(_, cur)| h.prob > cur) {
                        best = Some((i, h.prob));
                    }
                }
            }
            let Some((i, _)) = best else {
                return (out, metrics);
            };
            let mut m = heads[i].take().expect("the best slice has a head");
            m.triple = TripleId(offsets[i] + m.triple.0);
            out.push(m);
            heads[i] = merges[i].next_merged(&mut metrics[i]);
        }
    }

    #[test]
    fn one_heap_emits_the_linear_scan_sequence_of_one_slice_merges() {
        let probe = builder().build().resource("p").unwrap();
        let mut cases = Vec::new();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            for n in [1usize, 2, 4, 7] {
                let slices = builder().build_sharded_with(n, layout);
                cases.push((format!("{n} slices, {layout:?}"), slices));
            }
            cases.push((format!("base + delta, {layout:?}"), base_and_delta(layout)));
        }
        let mut rules = RuleSet::new();
        let close = builder().build().token("close to").unwrap();
        rules.add(Rule::inversion(
            "b",
            probe,
            close,
            0.6,
            RuleProvenance::UserDefined,
        ));
        let cfg = TopkConfig::default();
        for (what, slices) in &cases {
            let exec = UnionTotals(slices);
            let refs: Vec<&XkgStore> = slices.iter().collect();
            let view = StoreView::over(&refs, &exec);
            let n = slices.len();
            // Both shapes the merge serves heavily, predicate-bound (with
            // a relaxation) and fully unbound.
            let var = |v| QTerm::Var(VarId(v));
            let (x, y, p) = (var(0), var(1), var(2));
            for pattern in [
                QPattern::new(x, QTerm::Term(probe), y),
                QPattern::new(x, p, y),
            ] {
                let table = Rc::new(AltTable::build(&pattern, &rules, &cfg, 8, Some(&exec)));
                let (want, ref_work) = linear_scan(slices, &table);
                assert!(!want.is_empty(), "{what}: fixture must emit");
                let work = RefCell::new(vec![ExecMetrics::default(); n]);
                let mut merge = IncrementalMerge::new(&view, 0..n, table, &[], Some(&work));
                let mut aggregate = ExecMetrics::default();
                for (i, w) in want.iter().enumerate() {
                    let (mass, bound) = (merge.remaining_mass(), merge.peek_bound());
                    let covers = |b: f64| mass >= b - 1e-12 && b >= w.prob;
                    assert!(bound.is_some_and(covers), "{what}: {i}");
                    let g = merge.next_merged(&mut aggregate);
                    let g = g.expect("the merge drains early");
                    assert_eq!(
                        (w.triple, w.prob.to_bits(), w.alt),
                        (g.triple, g.prob.to_bits(), g.alt),
                        "{what}: emission {i}"
                    );
                }
                let past = merge.next_merged(&mut aggregate);
                assert!(past.is_none(), "{what}: emits past the reference");
                assert_eq!(merge.peek_bound(), None, "{what}: drained, still bounds");
                // Drained, the one heap opened exactly the lists the
                // one-slice merges opened, and each slice's work landed in
                // its own slot, none in the aggregate.
                assert_eq!(work.into_inner(), ref_work, "{what}");
                assert_eq!(aggregate, ExecMetrics::default(), "{what}");
            }
        }
    }

    #[test]
    fn every_slice_merge_of_a_stream_reads_one_table() {
        // `?x p ?y` relaxes to `?x 'close to' ?y` and on to `?y p ?x`,
        // each with matches on both slices. The factory `execute` uses
        // builds the stream's table once, and an alternative index names
        // the same entry whichever slice emitted it.
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
        let mut merge = sources.merge(&pattern, 8, 0..2);
        let traces: Vec<Vec<RuleId>> = merge.table.iter().map(|a| a.trace.collect()).collect();
        assert_eq!(
            traces,
            [vec![], vec![RuleId(0)], vec![RuleId(0), RuleId(1)]]
        );
        let mut emitted = [[false; 3]; 2];
        let mut metrics = ExecMetrics::default();
        while let Some(m) = merge.next_merged(&mut metrics) {
            let slice = usize::from(m.triple.0 as usize >= slices[0].len());
            let (alt, entry) = (merge.alternative(m.alt), &merge.table.alts[m.alt as usize]);
            assert!(std::ptr::eq(alt.pattern, &entry.form.0));
            assert!(alt.trace.eq(traces[m.alt as usize].iter().copied()));
            emitted[slice][m.alt as usize] = true;
        }
        assert_eq!(
            emitted, [[true; 3]; 2],
            "every alternative emits on both slices"
        );
    }

    fn tid(i: u32) -> TermId {
        TermId::new(trinit_xkg::TermKind::Resource, i)
    }

    /// `p1 → p3` 0.9 and `p1 → p2` 0.3 in the order given, then
    /// `p3 → p2` 0.9 and `p2 → p4` 0.5: `?x p1 ?y`'s table at
    /// `chain_depth`, as `(predicate, weight, chain)` per entry.
    fn relaxed_table(first_to: u32, chain_depth: usize) -> Vec<(u32, f64, Vec<RuleId>)> {
        let rule = |from, to, w| {
            let (from, to) = (tid(from), tid(to));
            Rule::predicate_rewrite("r", from, to, w, RuleProvenance::UserDefined)
        };
        let other = 5 - first_to;
        let weight = |to| if to == 3 { 0.9 } else { 0.3 };
        let rules: RuleSet = [
            rule(1, first_to, weight(first_to)),
            rule(1, other, weight(other)),
            rule(3, 2, 0.9),
            rule(2, 4, 0.5),
        ]
        .into_iter()
        .collect();
        let cfg = TopkConfig {
            chain_depth,
            ..TopkConfig::default()
        };
        let (x, y) = (QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let table = AltTable::build(&QPattern::new(x, QTerm::Term(tid(1)), y), &rules, &cfg, 2, None);
        let id = |a: &AltView<'_>| (1..5).find(|&p| a.pattern.p == QTerm::Term(tid(p))).unwrap();
        table.iter().map(|a| (id(&a), a.weight, a.trace.collect())).collect()
    }

    fn at(table: &[(u32, f64, Vec<RuleId>)], p: u32) -> (f64, Vec<RuleId>) {
        let (_, w, trace) = table.iter().find(|e| e.0 == p).expect("reached");
        (*w, trace.clone())
    }

    /// A form made heavier earlier in a round is not extended from its
    /// deeper path in that round: at depth 2 `p4` is reached through
    /// `p1 → p2 → p4` (0.15), not `p1 → p3 → p2 → p4` (0.405, three
    /// rules), while `p2` keeps its heavier two-rule chain.
    #[test]
    fn a_table_stays_within_its_chain_depth() {
        let table = relaxed_table(3, 2);
        assert_eq!(at(&table, 2), (0.9 * 0.9, vec![RuleId(0), RuleId(2)]));
        let (w, trace) = at(&table, 4);
        assert!((w - 0.15).abs() < 1e-12, "{table:?}");
        assert_eq!(trace, [RuleId(1), RuleId(3)]);
    }

    /// A form made heavier after its round is extended again from the
    /// heavier chain: with `p1 → p2` found first, depth 3 reaches `p4`
    /// at 0.9 · 0.9 · 0.5 = 0.405, not at 0.3 · 0.5 = 0.15.
    #[test]
    fn a_form_made_heavier_later_is_extended_from_its_heavier_chain() {
        let table = relaxed_table(2, 3);
        let (w, trace) = at(&table, 4);
        assert!((w - 0.405).abs() < 1e-12, "{table:?}");
        assert_eq!(trace, [RuleId(1), RuleId(2), RuleId(3)]);
    }

    /// With more rewrites of one predicate than `max_alternatives`, added
    /// lightest first, the table keeps the pattern and the heaviest, in
    /// the order found: ten rewrites weighing 0.10, 0.18, …, 0.82 under a
    /// cap of 4 leave the pattern, 0.66, 0.74 and 0.82.
    #[test]
    fn alternatives_over_the_cap_are_the_heaviest() {
        let rules: RuleSet = (0..10)
            .map(|i| {
                let w = 0.10 + 0.08 * f64::from(i);
                Rule::predicate_rewrite("r", tid(1), tid(10 + i), w, RuleProvenance::UserDefined)
            })
            .collect();
        let cfg = TopkConfig {
            max_alternatives: 4,
            ..TopkConfig::default()
        };
        let (x, y) = (QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let table = AltTable::build(&QPattern::new(x, QTerm::Term(tid(1)), y), &rules, &cfg, 2, None);
        let traces: Vec<Vec<RuleId>> = table.iter().map(|a| a.trace.collect()).collect();
        assert_eq!(traces, [vec![], vec![RuleId(7)], vec![RuleId(8)], vec![RuleId(9)]]);
    }

    /// Alternatives equal up to the naming of their fresh variables are
    /// one entry at the heavier weight: `?x p1 ?y` reaches `?f r ?g`
    /// through `?x q ?f` (0.9, then 0.8) and through `?f t ?y` (0.7, then
    /// 0.6), which name the two fresh variables in opposite slots.
    #[test]
    fn alternatives_equal_up_to_fresh_naming_are_one_entry() {
        use trinit_relax::{RVar, TTerm, Template};
        let [x, y, f] = [0, 1, 2].map(|v| TTerm::Var(RVar(v)));
        let rule = |p1, s, p2, o, w| {
            let lhs = vec![Template::new(x, TTerm::Const(tid(p1)), y)];
            let rhs = vec![Template::new(s, TTerm::Const(tid(p2)), o)];
            Rule::structural("r", lhs, rhs, w, RuleProvenance::UserDefined)
        };
        let (q, r, t) = (2, 3, 4);
        let rules: RuleSet = [
            rule(1, x, q, f, 0.9),
            rule(q, f, r, y, 0.8),
            rule(1, f, t, y, 0.7),
            rule(t, x, r, f, 0.6),
        ]
        .into_iter()
        .collect();
        let (qx, qy) = (QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let cfg = TopkConfig::default();
        let table = AltTable::build(&QPattern::new(qx, QTerm::Term(tid(1)), qy), &rules, &cfg, 2, None);
        let to_r: Vec<f64> = (table.iter())
            .filter(|a| a.pattern.p == QTerm::Term(tid(r)))
            .map(|a| a.weight)
            .collect();
        assert_eq!(to_r, [0.9 * 0.8]);
    }
}
