//! Query-likelihood answer scoring (paper §4).
//!
//! "A triple pattern is viewed as a document that emits triples with
//! certain probabilities. The probability assigned to an SPO fact in
//! response to a triple pattern is proportional to the frequency with
//! which the fact is observed (a tf-like effect) and inversely
//! proportional to the total number of matches for the triple pattern (an
//! idf-like effect corresponding to selectivity)."
//!
//! Concretely: `P(t | q) = weight(t) / Σ_{t' ∈ matches(q)} weight(t')`
//! with `weight(t) = support(t) × confidence(t)`. Relaxed matches are
//! attenuated by the rule weight; an answer's score is the product of its
//! pattern probabilities (kept in log space); the score of an answer is
//! the max over its derivations.
//!
//! [`ScoredMatches`] is a thin view over the store's shared posting
//! machinery ([`trinit_xkg::PostingList`]): patterns without repeated
//! variables delegate directly — predicate-only, unbound, subject-only,
//! and object-only shapes are served in place from the build-time
//! posting index (its anchored strata included; a Packed segment
//! decodes each entry only when it is read), zero allocation and zero
//! sorting per query; the composite shapes order their exact range or
//! filter an already-sorted group. Patterns that repeat a variable
//! (`?x p ?x`) filter the shared list and renormalize over the filtered
//! set; since the source is already score-sorted, filtering preserves
//! order and no re-sort happens. A list built without a
//! [`SharedPostingCache`] is owned by its one reader — no copy, no map
//! insert; with one, materialized lists are shared across queries, and
//! the Flat borrow-served shapes bypass it — they are already O(1).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use trinit_relax::{QPattern, QTerm};
use trinit_xkg::{
    Posting, PostingList, Select, ServeKind, SharedParts, SlotPattern, TripleId, XkgStore,
};

/// Bitmask of within-pattern variable-equality constraints: bit 0 =
/// subject/predicate, bit 1 = subject/object, bit 2 = predicate/object.
/// Two patterns with equal slot patterns and equal masks have identical
/// match sets and probabilities regardless of variable naming.
fn repetition_mask(pattern: &QPattern) -> u8 {
    let slots = pattern.slots();
    let mut mask = 0u8;
    for (bit, (i, j)) in [(0usize, 1usize), (0, 2), (1, 2)].into_iter().enumerate() {
        if let (QTerm::Var(a), QTerm::Var(b)) = (slots[i], slots[j]) {
            if a == b {
                mask |= 1 << bit;
            }
        }
    }
    mask
}

/// True if `triple` satisfies the variable-equality constraints in
/// `mask` (see [`canonical_pattern`]). Public so shard-level totals
/// providers can apply the exact same repetition semantics when they
/// aggregate a filtered pattern's emission weight across store slices.
#[inline]
pub fn satisfies_mask(store: &XkgStore, id: TripleId, mask: u8) -> bool {
    if mask == 0 {
        return true;
    }
    let t = store.triple(id);
    (mask & 0b001 == 0 || t.s == t.p)
        && (mask & 0b010 == 0 || t.s == t.o)
        && (mask & 0b100 == 0 || t.p == t.o)
}

/// Canonical identity of a pattern's match set: the storage-level slot
/// pattern plus the repetition constraints.
pub type CanonicalPattern = (SlotPattern, u8);

/// The canonical key under which a pattern's matches are cached.
pub fn canonical_pattern(pattern: &QPattern) -> CanonicalPattern {
    (pattern.slot_pattern(), repetition_mask(pattern))
}

/// One cached materialized list: shared entries, the prefix sum their
/// consumed weights are added onto (`Packed` stores collect their hot
/// shapes once per cache tier and keep the group's exact start prefix,
/// so `remaining_mass` stays bit-identical to the `Flat` borrow path),
/// and the total emission weight the entries' probabilities are
/// normalized by.
#[derive(Debug, Clone)]
struct CachedList {
    entries: Arc<[Posting]>,
    base: f64,
    total: f64,
    /// True when `total` was supplied by a [`GlobalTotals`] provider
    /// (a cross-slice denominator) rather than summed over the slice.
    scaled: bool,
}

impl CachedList {
    fn new((entries, base, total): SharedParts, scaled: bool) -> CachedList {
        CachedList {
            entries,
            base,
            total,
            scaled,
        }
    }

    /// A fresh cursor over the shared entries.
    fn list(&self) -> PostingList<'static> {
        PostingList::from_shared_parts((Arc::clone(&self.entries), self.base, self.total))
    }

    /// True if the baked-in probabilities are bit for bit the ones a
    /// rebuild under `global` would compute. The slice's entries never
    /// change while a cache may hold them (caches are stamped with the
    /// slice's epoch), but an ingest into a sibling slice moves the
    /// cross-slice total they are divided by: a list is reusable under
    /// a global total iff it was normalized by that very number, and
    /// under none iff it was normalized locally.
    fn normalized_for(&self, global: Option<f64>) -> bool {
        match global {
            Some(t) => self.total.to_bits() == t.to_bits(),
            None => !self.scaled,
        }
    }
}

/// Supplies *global* normalization totals when the query engine runs
/// over one slice (shard) of a partitioned store.
///
/// The scoring model normalizes a pattern's emission probabilities over
/// the total weight of its match set (§4's idf-like selectivity). A
/// shard only sees its local matches, so a shard-local total would
/// inflate probabilities and break score equality with the monolithic
/// engine. A `GlobalTotals` provider answers, per canonical pattern,
/// the total emission weight of the match set *across every shard*;
/// [`ScoredMatches::build_global`] then normalizes local entries by
/// that global denominator, making every per-shard emission carry
/// exactly the probability the single-store engine would assign it.
pub trait GlobalTotals: Sync {
    /// Global total emission weight of `key`'s match set, or `None`
    /// when the local slice's own total is already global (for
    /// subject-bound shapes under subject-hash partitioning, all
    /// matches are co-located, so local *is* global).
    fn pattern_total(&self, key: &CanonicalPattern) -> Option<f64>;
}

/// Where a posting-list build was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Materialized fresh (or borrow-served, which costs nothing).
    Built,
    /// Served from a store-level [`SharedPostingCache`].
    SharedHit,
}

/// Hit/miss/eviction accounting of a [`SharedPostingCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to materialize (consultations that missed).
    pub misses: usize,
    /// Entries evicted to respect the capacity bound.
    pub evictions: usize,
    /// Times the cache recovered from mutex poisoning (a panicking
    /// holder): the resident lists are dropped and execution degrades
    /// to cold misses instead of aborting.
    pub poison_recoveries: usize,
}

/// Sentinel slab index marking the end of the intrusive LRU list.
const LRU_NONE: usize = usize::MAX;

/// One resident list: the payload plus its links in the intrusive
/// recency list (slab indices, [`LRU_NONE`]-terminated).
#[derive(Debug)]
struct SharedEntry {
    key: CanonicalPattern,
    list: CachedList,
    prev: usize,
    next: usize,
}

/// Cache state: a slab of entries threaded onto a doubly linked recency
/// list (head = most recently used, tail = least), with a key → slab
/// index map. Recency bumps and evictions are O(1) pointer splices —
/// no scan over residents, however large the capacity.
#[derive(Debug)]
struct SharedInner {
    map: HashMap<CanonicalPattern, usize>,
    slab: Vec<SharedEntry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    stats: SharedCacheStats,
    /// Store generation the resident lists were built against (see
    /// [`SharedPostingCache::ensure_generation`]).
    generation: u64,
}

impl SharedInner {
    /// Detaches slab entry `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == LRU_NONE {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == LRU_NONE {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
        self.slab[i].prev = LRU_NONE;
        self.slab[i].next = LRU_NONE;
    }

    /// Attaches slab entry `i` at the most-recently-used end.
    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = LRU_NONE;
        self.slab[i].next = self.head;
        if self.head == LRU_NONE {
            self.tail = i;
        } else {
            self.slab[self.head].prev = i;
        }
        self.head = i;
    }

    /// Evicts the least-recently-used entry, recycling its slab slot.
    fn evict_tail(&mut self) {
        let i = self.tail;
        debug_assert!(i != LRU_NONE, "evict on empty cache");
        self.unlink(i);
        self.map.remove(&self.slab[i].key);
        self.slab[i].list = CachedList::new((Vec::new().into(), 0.0, 0.0), false);
        self.free.push(i);
        self.stats.evictions += 1;
    }
}

/// Store-level bounded LRU of materialized posting lists, keyed by
/// [`CanonicalPattern`].
///
/// Interactive sessions (the paper's E6 workload) re-issue queries over
/// the same predicates and entity anchors; without a cache, consecutive
/// queries rebuild identical lists. A `SharedPostingCache` lives behind
/// a `Session` (or an entire system) and hands out `Arc`-shared entry
/// slices across queries — and to a query's own repeat of a pattern.
/// Index-served shapes (predicate-only, fully unbound, subject-only,
/// object-only) bypass it on Flat segments — they are already O(1)
/// reads of the store's frozen posting index, anchored strata included.
///
/// Eviction is least-recently-used over an intrusive doubly linked
/// recency list, so hits and evictions are O(1) regardless of how many
/// lists are resident; capacity 0 disables retention entirely (every
/// consultation misses).
#[derive(Debug)]
pub struct SharedPostingCache {
    inner: Mutex<SharedInner>,
}

impl SharedPostingCache {
    /// A cache holding at most `capacity` materialized lists.
    pub fn new(capacity: usize) -> SharedPostingCache {
        SharedPostingCache {
            inner: Mutex::new(SharedInner {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                head: LRU_NONE,
                tail: LRU_NONE,
                capacity,
                stats: SharedCacheStats::default(),
                generation: 0,
            }),
        }
    }

    /// Locks the cache, recovering from mutex poisoning. A panicking
    /// holder may have left the recency list half-spliced, so the
    /// poisoned state is not trusted: resident lists are dropped and
    /// the cache restarts cold (every list re-materializes on demand)
    /// — a performance degradation, never an abort. Capacity and
    /// counters survive; the poison flag is cleared so subsequent
    /// locks succeed normally.
    fn lock(&self) -> MutexGuard<'_, SharedInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.map.clear();
                guard.slab.clear();
                guard.free.clear();
                guard.head = LRU_NONE;
                guard.tail = LRU_NONE;
                guard.stats.poison_recoveries += 1;
                self.inner.clear_poison();
                guard
            }
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Number of lists currently held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }

    /// Accumulated hit/miss/eviction counters.
    pub fn stats(&self) -> SharedCacheStats {
        self.lock().stats
    }

    /// Drops all cached lists (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.slab.clear();
        inner.free.clear();
        inner.head = LRU_NONE;
        inner.tail = LRU_NONE;
    }

    /// Stamps the cache with the generation of the store *slice* it is
    /// about to serve. Cached lists hold that slice's entries, so
    /// replacing the slice (compaction) makes every resident stale;
    /// owners bump the slice's generation then and call this at query
    /// entry. A mismatch drops all resident lists (a cold restart —
    /// counters survive); a match is one comparison. No entry built
    /// against an older generation can survive a stamp. A mutation that
    /// leaves the slice alone (an ingest into a sibling delta) needs no
    /// stamp: it can only move the cross-slice total a list was
    /// normalized by, which every lookup checks per entry.
    pub fn ensure_generation(&self, generation: u64) {
        let mut inner = self.lock();
        if inner.generation != generation {
            inner.map.clear();
            inner.slab.clear();
            inner.free.clear();
            inner.head = LRU_NONE;
            inner.tail = LRU_NONE;
            inner.generation = generation;
        }
    }

    /// Looks up a canonical pattern, bumping its recency on hit. A
    /// resident list that is not `usable` (its normalization went stale)
    /// is a miss; the rebuild that follows overwrites it. Counts one
    /// hit or one miss. O(1).
    fn get(
        &self,
        key: &CanonicalPattern,
        usable: impl FnOnce(&CachedList) -> bool,
    ) -> Option<CachedList> {
        let mut inner = self.lock();
        match inner.map.get(key).copied() {
            Some(i) if usable(&inner.slab[i].list) => {
                inner.unlink(i);
                inner.push_front(i);
                inner.stats.hits += 1;
                Some(inner.slab[i].list.clone())
            }
            _ => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a materialized list, evicting least-recently-used entries
    /// (O(1) each, off the recency list's tail) if the capacity bound
    /// would be exceeded.
    fn insert(&self, key: CanonicalPattern, list: CachedList) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        if let Some(i) = inner.map.get(&key).copied() {
            inner.slab[i].list = list;
            inner.unlink(i);
            inner.push_front(i);
            return;
        }
        while inner.map.len() >= inner.capacity {
            inner.evict_tail();
        }
        let node = SharedEntry {
            key,
            list,
            prev: LRU_NONE,
            next: LRU_NONE,
        };
        let i = match inner.free.pop() {
            Some(i) => {
                inner.slab[i] = node;
                i
            }
            None => {
                inner.slab.push(node);
                inner.slab.len() - 1
            }
        };
        inner.map.insert(key, i);
        inner.push_front(i);
    }
}

/// Matches of a query pattern in descending probability order, with a
/// cursor for incremental sorted access.
///
/// Unlike a raw [`trinit_xkg::PostingList`], this respects *within-pattern*
/// variable repetition (`?x p ?x` only matches triples with `s == o`) and
/// normalizes probabilities over the filtered match set.
#[derive(Debug, Clone)]
pub struct ScoredMatches<'s> {
    list: PostingList<'s>,
    /// Multiplier applied to every probability the cursor API reports.
    /// 1.0 for locally normalized lists; `local_total / global_total`
    /// when a borrow-served list is re-normalized by a [`GlobalTotals`]
    /// provider *without* materializing a copy (the entries keep their
    /// baked-in local probabilities; the view rescales on the fly).
    scale: f64,
    /// How the underlying list was built when this view materialized it
    /// fresh (`None` for cache hits) — feeds the engine's
    /// `anchored_serves` / `posting_sorts` work counters.
    built: Option<ServeKind>,
}

impl<'s> ScoredMatches<'s> {
    fn fresh(list: PostingList<'s>, kind: ServeKind) -> ScoredMatches<'s> {
        ScoredMatches {
            list,
            scale: 1.0,
            built: Some(kind),
        }
    }

    /// Builds the scored matches of `pattern` over `store`.
    pub fn build(store: &'s XkgStore, pattern: &QPattern) -> ScoredMatches<'s> {
        ScoredMatches::build_global(store, pattern, None, None).0
    }

    /// How the underlying posting list was served, when this view built
    /// it fresh; `None` for lists shared out of a cache.
    pub fn build_kind(&self) -> Option<ServeKind> {
        self.built
    }

    /// Builds `pattern`'s scored matches over `store`, through the
    /// optional store-level `shared` LRU (shared across the queries of a
    /// session or system, and a query's own repeats of a pattern), and
    /// renormalized by an optional [`GlobalTotals`] provider — the build
    /// path of per-slice execution over a partitioned store. Returns the
    /// view and where it was served from.
    ///
    /// When the provider returns a global total for the pattern, the
    /// local slice's entries carry `prob = weight / global_total`
    /// (borrow-served shapes rescale their baked-in local probabilities
    /// on the fly instead). A `shared` cache must be dedicated to this
    /// store slice, since the entries it holds are slice-specific.
    /// Without one, a built list is owned by the returned view alone: no
    /// copy into a shareable allocation, no map insert.
    pub fn build_global(
        store: &'s XkgStore,
        pattern: &QPattern,
        shared: Option<&SharedPostingCache>,
        totals: Option<&dyn GlobalTotals>,
    ) -> (ScoredMatches<'s>, CacheSource) {
        let key = canonical_pattern(pattern);
        let (slot, mask) = key;
        let global = totals.and_then(|t| t.pattern_total(&key));
        if mask == 0 && is_borrow_served(&slot) {
            // A global total only changes the normalization constant, so
            // hot-shape lists keep their locally normalized entries and
            // rescale on the fly — a borrowed or cached list is valid
            // under any totals provider.
            let view = |list: PostingList<'s>, total, built| ScoredMatches {
                list,
                scale: rescale(total, global),
                built,
            };
            // The frozen posting index serves these shapes in place
            // (anchored s-/o-bound strata included): zero-alloc. Flat
            // slices are not worth caching; a Packed group is collected
            // into the store-level cache when there is one — its exact
            // start prefix rides along, keeping `remaining_mass`
            // bit-identical to the Flat borrow path.
            let Some(cache) = shared.filter(|_| !store.layout().is_flat()) else {
                let list = PostingList::build(store, &slot);
                let (total, kind) = (list.total_weight(), list.serve_kind());
                return (view(list, total, Some(kind)), CacheSource::Built);
            };
            if let Some(cached) = cache.get(&key, |_| true) {
                return (
                    view(cached.list(), cached.total, None),
                    CacheSource::SharedHit,
                );
            }
            let built = PostingList::build(store, &slot);
            let kind = built.serve_kind();
            let cached = CachedList::new(built.into_shared_parts(), false);
            let out = view(cached.list(), cached.total, Some(kind));
            cache.insert(key, cached);
            return (out, CacheSource::Built);
        }
        if let Some(cached) = shared.and_then(|c| c.get(&key, |l| l.normalized_for(global))) {
            return (
                ScoredMatches {
                    list: cached.list(),
                    scale: 1.0,
                    built: None,
                },
                CacheSource::SharedHit,
            );
        }
        let (list, kind) = match global {
            Some(t) => scaled_entries(store, &slot, mask, t),
            None if mask == 0 => {
                let list = PostingList::build(store, &slot);
                let kind = list.serve_kind();
                (list, kind)
            }
            None => filtered_entries(store, &slot, mask),
        };
        let Some(cache) = shared else {
            return (ScoredMatches::fresh(list, kind), CacheSource::Built);
        };
        let cached = CachedList::new(list.into_shared_parts(), global.is_some());
        let view = ScoredMatches::fresh(cached.list(), kind);
        cache.insert(key, cached);
        (view, CacheSource::Built)
    }

    /// Number of (filtered) matches.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True if the pattern has no matches.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Total emission weight over the filtered matches.
    pub fn total_weight(&self) -> f64 {
        self.list.total_weight()
    }

    /// All entries in descending probability order (ignores the cursor;
    /// probabilities unscaled), each decoded as the iterator reaches it.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        self.list.iter()
    }

    /// Probability of the next unconsumed entry.
    pub fn peek_prob(&self) -> Option<f64> {
        self.list.peek_prob().map(|p| p * self.scale)
    }

    /// Consumes and returns the next entry in descending order.
    pub fn next_entry(&mut self) -> Option<(TripleId, f64)> {
        self.list
            .next_posting()
            .map(|p| (p.triple, p.prob * self.scale))
    }

    /// Entries consumed so far.
    pub fn consumed(&self) -> usize {
        self.list.consumed()
    }

    /// Number of unconsumed entries.
    pub(crate) fn rest_len(&self) -> usize {
        self.len() - self.consumed()
    }

    /// The unconsumed entries whose triple `keep` admits, in order
    /// (probabilities unscaled; see [`PostingList::select`]).
    pub(crate) fn select<F: FnMut(TripleId) -> bool>(&self, keep: F) -> Select<'_, F> {
        self.list.select(keep)
    }

    /// The unconsumed entry of triple `id`, whose emission weight is
    /// `weight`, found by binary search (see [`PostingList::locate`]).
    pub(crate) fn locate(&self, id: TripleId, weight: f64) -> Option<Posting> {
        self.list.locate(id, weight)
    }

    /// A list of `entries` — ordered, and a subset of a match set whose
    /// list divides by `total` and rescales by `scale` — that reports
    /// them exactly as that list would: a restricted stream's private
    /// cursor, never cached.
    pub(crate) fn restricted(
        entries: Vec<Posting>,
        total: f64,
        scale: f64,
    ) -> ScoredMatches<'static> {
        ScoredMatches {
            list: PostingList::restricted(entries, total),
            scale,
            built: None,
        }
    }

    /// This list cut to `entries`, a subset of its unconsumed ones.
    pub(crate) fn narrowed(&self, entries: Vec<Posting>) -> ScoredMatches<'static> {
        ScoredMatches::restricted(entries, self.total_weight(), self.scale)
    }

    /// Fraction of the emission mass not yet consumed by the cursor, in
    /// `[0, 1]`. O(1) for every list — the build-time prefix-sum columns
    /// for index-served lists, an incrementally tracked consumed weight
    /// for materialized ones. An upper bound on the probability of every
    /// remaining entry — and on their sum. Globally re-normalized views
    /// rescale exactly as the cursor probabilities do.
    pub fn remaining_mass(&self) -> f64 {
        let total = self.list.total_weight();
        if total > 0.0 {
            (self.list.remaining_weight() / total) * self.scale
        } else {
            0.0
        }
    }
}

/// Cheap sound upper bound on the head (best) emission probability of
/// `pattern`, without materializing its match list: exact for the shapes
/// [`XkgStore::head_prob`] answers (predicate-only, fully unbound,
/// subject-only, object-only, and composite pairs wider than one block;
/// no repeated variables), trivial (1.0) otherwise. Patterns with
/// repeated variables renormalize over a *filtered* subset, which can
/// only raise probabilities, so the unfiltered head is not a bound there.
pub fn head_prob_bound(store: &XkgStore, pattern: &QPattern) -> f64 {
    let (slot, mask) = canonical_pattern(pattern);
    if mask != 0 {
        return 1.0;
    }
    store.head_prob(&slot).unwrap_or(1.0)
}

/// [`head_prob_bound`] under a global total: the bound on a *slice's*
/// best emission when probabilities are normalized over every slice.
/// `global` is what the view's [`GlobalTotals::pattern_total`] returns
/// for `pattern`, resolved once per execution by the caller (`None`:
/// local totals are global).
/// Borrow-served shapes keep their local probabilities and rescale them
/// ([`ScoredMatches::build_global`]), so the bound is the local head
/// probability rescaled the same way — bit for bit the head the list
/// emits, which is ≤ the monolithic store's head bound for the same
/// pattern. Repeated-variable shapes divide the unfiltered group's head
/// *weight* by the global total (it still bounds the filtered head).
/// Shapes the index cannot answer fall back to the trivial bound
/// (probabilities are ≤ 1 by construction, since every local weight
/// participates in the global total).
pub fn head_prob_bound_global(store: &XkgStore, pattern: &QPattern, global: Option<f64>) -> f64 {
    let Some(t) = global else {
        return head_prob_bound(store, pattern);
    };
    if t <= 0.0 {
        return 0.0;
    }
    let (slot, mask) = canonical_pattern(pattern);
    match (mask, served_total(store, &slot)) {
        (0, Some(total)) => store.head_prob(&slot).unwrap_or(0.0) * rescale(total, Some(t)),
        _ => store.head_weight(&slot).map_or(1.0, |w| (w / t).min(1.0)),
    }
}

/// The total a borrow-served list over `slot` reports as its own
/// ([`PostingList::build`]'s `total_weight`); `None` for other shapes.
fn served_total(store: &XkgStore, slot: &SlotPattern) -> Option<f64> {
    match (slot.s, slot.p, slot.o) {
        (None, Some(p), None) => Some(store.posting_index().predicate_total_weight(p)),
        (None, None, None) => Some(store.posting_index().total_weight()),
        (Some(s), None, None) => Some(store.subject_total_weight(s)),
        (None, None, Some(o)) => Some(store.object_total_weight(o)),
        _ => None,
    }
}

/// How [`ScoredMatches::build_global`] would normalize `pattern`'s list,
/// when that is known without building it: `(divisor, scale)` such that
/// the cursor reports `weight / divisor × scale` for every entry — the
/// stratum's own total and the global rescale for the predicate-only and
/// unbound shapes, the global total for every shape a provider scales
/// explicitly, and without one the stored total of a composite pair
/// wider than one block ([`XkgStore::pair_total`]). A divisor ≤ 0 means
/// the list serves empty. `None` for the shapes whose normalizer is the
/// list itself (anchored strata, narrower composite shapes and
/// repeated-variable filters without a provider).
pub(crate) fn probe_normalizer(
    store: &XkgStore,
    pattern: &QPattern,
    totals: Option<&dyn GlobalTotals>,
) -> Option<(f64, f64)> {
    let key = canonical_pattern(pattern);
    let (slot, mask) = key;
    let global = totals.and_then(|t| t.pattern_total(&key));
    match (mask, slot.s, slot.o, global) {
        // Predicate-only and unbound lists divide by their own total.
        (0, None, None, _) => served_total(store, &slot).map(|t| (t, rescale(t, global))),
        (0, _, _, Some(_)) if is_borrow_served(&slot) => None,
        (_, _, _, Some(t)) => Some((t, 1.0)),
        (0, _, _, None) => store.pair_total(&slot).map(|t| (t, 1.0)),
        _ => None,
    }
}

/// The factor a borrow-served list normalized by its local `total`
/// carries under an optional global total.
fn rescale(total: f64, global: Option<f64>) -> f64 {
    match global {
        Some(t) if t > 0.0 => total / t,
        Some(_) => 0.0,
        None => 1.0,
    }
}

/// True if [`PostingList::build`] serves this shape in place from the
/// precomputed posting index: predicate-only, fully unbound, and the
/// anchored subject-only / object-only strata. These shapes are O(1) to
/// open, so a Flat segment never inserts them into the posting caches.
#[inline]
fn is_borrow_served(slot: &SlotPattern) -> bool {
    matches!(
        (slot.s, slot.p, slot.o),
        (None, Some(_), None) | (None, None, None) | (Some(_), None, None) | (None, None, Some(_))
    )
}

/// Materializes the local slice's (possibly mask-filtered) entries with
/// probabilities normalized by an externally supplied global total. The
/// source list is already score-sorted; scaling by a constant preserves
/// the order.
fn scaled_entries(
    store: &XkgStore,
    slot: &SlotPattern,
    mask: u8,
    total: f64,
) -> (PostingList<'static>, ServeKind) {
    let source = PostingList::build(store, slot);
    let kind = source.serve_kind();
    // A zero global total means the match set carries no emission mass
    // anywhere: serve empty, exactly like the index's own zero-mass
    // groups, so the 0 head bound reported for such patterns is exact.
    if total <= 0.0 {
        return (PostingList::from_owned(Vec::new(), 0.0), kind);
    }
    let mut entries: Vec<Posting> = match mask {
        0 => source.into_entries(),
        _ => source.select(|id| satisfies_mask(store, id, mask)).collect(),
    };
    for e in &mut entries {
        e.prob = e.weight / total;
    }
    (PostingList::from_owned(entries, total), kind)
}

/// Filters the shared posting list by the repetition constraints and
/// renormalizes. The source is already score-sorted, so the filtered
/// subset needs no re-sort, and a Packed source decodes only the
/// entries the filter keeps.
fn filtered_entries(
    store: &XkgStore,
    slot: &SlotPattern,
    mask: u8,
) -> (PostingList<'static>, ServeKind) {
    let source = PostingList::build(store, slot);
    let kind = source.serve_kind();
    let mut entries: Vec<Posting> = source
        .select(|id| satisfies_mask(store, id, mask))
        .collect();
    let total: f64 = entries.iter().map(|e| e.weight).sum();
    // Zero-mass filtered sets emit nothing — the same contract as the
    // index's zero-mass groups, keeping masked shapes consistent with
    // the unmasked ones across every engine and the tightened skip.
    if total <= 0.0 {
        return (PostingList::from_owned(Vec::new(), 0.0), kind);
    }
    for e in &mut entries {
        e.prob = e.weight / total;
    }
    (PostingList::from_owned(entries, total), kind)
}

/// A log-space score. Probabilities multiply; log scores add.
pub const LOG_ZERO: f64 = f64::NEG_INFINITY;

/// Converts a probability (or rule weight) to log space.
#[inline]
pub fn ln_weight(p: f64) -> f64 {
    if p <= 0.0 {
        LOG_ZERO
    } else {
        p.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_relax::{QTerm, VarId};
    use trinit_xkg::XkgBuilder;

    fn store() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("a", "p", "x");
        b.add_kg_resources("b", "p", "y");
        b.add_kg_resources("c", "p", "c"); // self-loop for repeated-var tests
        let src = b.intern_source("d");
        let s = b.dict_mut().resource("a");
        let pr = b.dict_mut().resource("p");
        let o = b.dict_mut().resource("z");
        b.add_extracted(s, pr, o, 0.5, src);
        b.build()
    }

    fn pat(store: &XkgStore, s: QTerm, o: QTerm) -> QPattern {
        QPattern::new(s, QTerm::Term(store.resource("p").unwrap()), o)
    }

    #[test]
    fn probabilities_normalize_over_matches() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let m = ScoredMatches::build(&store, &p);
        assert_eq!(m.len(), 4);
        let entries: Vec<Posting> = m.iter().collect();
        let sum: f64 = entries.iter().map(|e| e.prob).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // KG facts (weight 1.0) outrank the 0.5-confidence extraction.
        assert!(entries[0].prob > entries[3].prob - 1e-12);
        assert!((m.total_weight() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_var_filters_matches() {
        let store = store();
        let v = QTerm::Var(VarId(0));
        let p = pat(&store, v, v);
        let m = ScoredMatches::build(&store, &p);
        assert_eq!(m.len(), 1, "only the self-loop matches ?x p ?x");
        let e = m.iter().next().unwrap();
        let t = store.triple(e.triple);
        assert_eq!(t.s, t.o);
        assert!((e.prob - 1.0).abs() < 1e-9, "renormalized over filtered set");
    }

    #[test]
    fn selectivity_acts_as_idf() {
        let store = store();
        // Selective pattern (bound subject) gives higher probability than
        // the unselective one for the same triple.
        let a = store.resource("a").unwrap();
        let broad = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let narrow = pat(&store, QTerm::Term(a), QTerm::Var(VarId(1)));
        let mut mb = ScoredMatches::build(&store, &broad);
        let mut mn = ScoredMatches::build(&store, &narrow);
        let (id, narrow_prob) = mn.next_entry().unwrap();
        let broad_prob = std::iter::from_fn(|| mb.next_entry())
            .find(|&(t, _)| t == id)
            .map(|(_, prob)| prob);
        assert!(narrow_prob > broad_prob.unwrap());
    }

    #[test]
    fn cursor_reports_each_entry_once_in_order() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let mut m = ScoredMatches::build(&store, &p);
        let entries: Vec<Posting> = m.iter().collect();
        let first = m.next_entry().unwrap();
        assert_eq!(m.consumed(), 1);
        assert_eq!(first, (entries[0].triple, entries[0].prob));
        let rest: Vec<(TripleId, f64)> = std::iter::from_fn(|| m.next_entry()).collect();
        let want: Vec<(TripleId, f64)> = entries[1..].iter().map(|e| (e.triple, e.prob)).collect();
        assert_eq!(rest, want);
        assert_eq!(m.next_entry(), None);
    }

    #[test]
    fn cursor_rest_and_narrowed_view() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let mut m = ScoredMatches::build(&store, &p);
        let entries: Vec<Posting> = m.iter().collect();
        let first = m.next_entry().unwrap();
        let rest: Vec<Posting> = m.select(|_| true).collect();
        assert_eq!((m.rest_len(), &rest[..]), (3, &entries[1..]));
        assert!(rest.iter().all(|e| e.triple != first.0));
        // Every unconsumed entry is located by its triple and weight; the
        // consumed one is not.
        for e in &rest {
            assert_eq!(m.locate(e.triple, e.weight), Some(*e));
        }
        assert_eq!(m.locate(first.0, entries[0].weight), None);
        // A narrowed view reports its entries exactly as the list would,
        // and its remaining mass is theirs alone.
        let kept = rest[1];
        let mut narrowed = m.narrowed(vec![kept]);
        assert!((narrowed.remaining_mass() - kept.prob).abs() < 1e-12);
        assert_eq!(narrowed.next_entry(), Some((kept.triple, kept.prob)));
        assert!(narrowed.remaining_mass().abs() < 1e-12);
        assert_eq!(narrowed.next_entry(), None);
    }

    #[test]
    fn empty_pattern() {
        let store = store();
        let ghost = QTerm::Term(trinit_xkg::TermId::new(trinit_xkg::TermKind::Resource, 500));
        let p = QPattern::new(QTerm::Var(VarId(0)), ghost, QTerm::Var(VarId(1)));
        let mut m = ScoredMatches::build(&store, &p);
        assert!(m.is_empty());
        assert_eq!(m.peek_prob(), None);
        assert_eq!(m.next_entry(), None);
    }

    #[test]
    fn cached_build_shares_materialized_lists() {
        let store = store();
        let cache = SharedPostingCache::new(8);
        let build = |p: &QPattern| ScoredMatches::build_global(&store, p, Some(&cache), None);
        // Bound-subject pattern: materialized, so cached.
        let a = store.resource("a").unwrap();
        let narrow = pat(&store, QTerm::Term(a), QTerm::Var(VarId(1)));
        let (m1, src1) = build(&narrow);
        assert_eq!(src1, CacheSource::Built);
        assert_eq!(cache.len(), 1);
        // Same canonical pattern under different variable names — a
        // query's own repeat of it — is a hit.
        let renamed = pat(&store, QTerm::Term(a), QTerm::Var(VarId(7)));
        let (m2, src2) = build(&renamed);
        assert_eq!(src2, CacheSource::SharedHit);
        assert!(m1.iter().eq(m2.iter()));
        assert_eq!(m1.total_weight(), m2.total_weight());
        // Borrow-served shape (predicate-only) on a Flat store: never
        // inserted, never a lookup.
        let broad = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let (_, src3) = build(&broad);
        assert_eq!(src3, CacheSource::Built);
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn cached_and_uncached_agree() {
        let store = store();
        let cache = SharedPostingCache::new(8);
        let v = QTerm::Var(VarId(0));
        for p in [
            pat(&store, v, v),
            pat(&store, v, QTerm::Var(VarId(1))),
            pat(&store, QTerm::Term(store.resource("a").unwrap()), v),
        ] {
            let plain = ScoredMatches::build(&store, &p);
            let (cached, _) = ScoredMatches::build_global(&store, &p, Some(&cache), None);
            assert!(plain.iter().eq(cached.iter()));
            // And a second cached build (the hit path) agrees too.
            let (hit, _) = ScoredMatches::build_global(&store, &p, Some(&cache), None);
            assert!(plain.iter().eq(hit.iter()));
        }
    }

    #[test]
    fn shared_cache_serves_across_executions() {
        let store = store();
        let shared = SharedPostingCache::new(8);
        let a = store.resource("a").unwrap();
        let narrow = pat(&store, QTerm::Term(a), QTerm::Var(VarId(1)));
        // First execution: builds and populates the cache.
        let (m1, src1) = ScoredMatches::build_global(&store, &narrow, Some(&shared), None);
        assert_eq!(src1, CacheSource::Built);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.stats().misses, 1);
        // Second execution: served by the cache.
        let (m2, src2) = ScoredMatches::build_global(&store, &narrow, Some(&shared), None);
        assert_eq!(src2, CacheSource::SharedHit);
        assert_eq!(shared.stats().hits, 1);
        assert!(m1.iter().eq(m2.iter()));
        // Without a cache the same list is built, owned by its view.
        let (m3, src3) = ScoredMatches::build_global(&store, &narrow, None, None);
        assert_eq!(src3, CacheSource::Built);
        assert!(m1.iter().eq(m3.iter()));
        assert_eq!(shared.stats().hits + shared.stats().misses, 2);
    }

    #[test]
    fn shared_cache_evicts_least_recently_used() {
        let store = store();
        let shared = SharedPostingCache::new(2);
        let terms: Vec<_> = ["a", "b", "c"]
            .iter()
            .map(|n| store.resource(n).unwrap())
            .collect();
        let pats: Vec<QPattern> = terms
            .iter()
            .map(|&t| pat(&store, QTerm::Term(t), QTerm::Var(VarId(1))))
            .collect();
        let build = |p: &QPattern| ScoredMatches::build_global(&store, p, Some(&shared), None).1;
        build(&pats[0]);
        build(&pats[1]);
        assert_eq!(shared.len(), 2);
        // Touch pattern 0 to bump its recency.
        assert_eq!(build(&pats[0]), CacheSource::SharedHit);
        // Inserting a third list evicts pattern 1 (the LRU), not 0.
        build(&pats[2]);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.stats().evictions, 1);
        assert_eq!(build(&pats[0]), CacheSource::SharedHit);
        assert_eq!(build(&pats[1]), CacheSource::Built, "pattern 1 was evicted");
    }

    #[test]
    fn shared_cache_zero_capacity_retains_nothing() {
        let store = store();
        let shared = SharedPostingCache::new(0);
        let a = store.resource("a").unwrap();
        let narrow = pat(&store, QTerm::Term(a), QTerm::Var(VarId(1)));
        ScoredMatches::build_global(&store, &narrow, Some(&shared), None);
        assert!(shared.is_empty());
        let (_, src) = ScoredMatches::build_global(&store, &narrow, Some(&shared), None);
        assert_eq!(src, CacheSource::Built);
        assert_eq!(shared.stats().misses, 2);
    }

    #[test]
    fn head_bound_is_exact_for_index_served_shapes() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let m = ScoredMatches::build(&store, &p);
        let head = m.peek_prob().unwrap();
        assert!((head_prob_bound(&store, &p) - head).abs() < 1e-12);
        // Repeated-variable and anchored shapes fall back to the trivial
        // bound.
        let v = QTerm::Var(VarId(0));
        assert_eq!(head_prob_bound(&store, &pat(&store, v, v)), 1.0);
        let a = store.resource("a").unwrap();
        assert_eq!(
            head_prob_bound(&store, &pat(&store, QTerm::Term(a), QTerm::Var(VarId(1)))),
            1.0
        );
        // The bound is sound: never below the actual head emission.
        for q in [
            pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1))),
            pat(&store, v, v),
            pat(&store, QTerm::Term(a), QTerm::Var(VarId(1))),
        ] {
            let actual = ScoredMatches::build(&store, &q).peek_prob().unwrap_or(0.0);
            assert!(head_prob_bound(&store, &q) >= actual - 1e-12);
        }
    }

    #[test]
    fn remaining_mass_tracks_cursor() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let mut m = ScoredMatches::build(&store, &p);
        assert!((m.remaining_mass() - 1.0).abs() < 1e-9);
        let mut consumed_prob = 0.0;
        while let Some((_, prob)) = m.next_entry() {
            consumed_prob += prob;
            assert!((m.remaining_mass() - (1.0 - consumed_prob)).abs() < 1e-9);
            // The mass bounds every remaining entry.
            if let Some(peek) = m.peek_prob() {
                assert!(m.remaining_mass() >= peek - 1e-12);
            }
        }
        assert!(m.remaining_mass().abs() < 1e-9);
    }

    #[test]
    fn ln_weight_handles_zero() {
        assert_eq!(ln_weight(0.0), LOG_ZERO);
        assert_eq!(ln_weight(-1.0), LOG_ZERO);
        assert!((ln_weight(1.0)).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_recovers_from_poisoning_as_cold_restart() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let key = canonical_pattern(&p);
        let cache = SharedPostingCache::new(8);
        cache.insert(key, CachedList::new((Vec::new().into(), 0.0, 1.0), false));
        assert_eq!(cache.len(), 1);

        // Poison the mutex: a holder panics with the guard live.
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = cache.inner.lock().unwrap();
                panic!("holder dies mid-update");
            })
            .join()
        });
        assert!(died.is_err(), "the holder must have panicked");

        // Every subsequent operation degrades to a cold cache instead
        // of aborting: residents are gone, structure is consistent.
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().poison_recoveries, 1);
        assert!(
            cache.get(&key, |_| true).is_none(),
            "resident list dropped, not trusted"
        );
        assert_eq!(cache.capacity(), 8, "capacity survives recovery");

        // And the cache is fully usable again (poison flag cleared).
        cache.insert(key, CachedList::new((Vec::new().into(), 0.0, 1.0), false));
        assert!(cache.get(&key, |_| true).is_some());
        assert_eq!(cache.stats().poison_recoveries, 1, "recovered once, not per lock");
    }

    #[test]
    fn generation_stamp_drops_stale_entries_once_per_mutation() {
        let store = store();
        let p = pat(&store, QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
        let key = canonical_pattern(&p);
        let cache = SharedPostingCache::new(8);
        cache.ensure_generation(0);
        cache.insert(key, CachedList::new((Vec::new().into(), 0.0, 1.0), false));
        assert!(cache.get(&key, |_| true).is_some());
        // Same generation: residents survive.
        cache.ensure_generation(0);
        assert!(cache.get(&key, |_| true).is_some());
        // The slice was replaced (compaction bumped its epoch): every
        // earlier list is dropped before the cache serves again.
        cache.ensure_generation(1);
        assert!(
            cache.get(&key, |_| true).is_none(),
            "stale list served after compaction"
        );
        // Re-stamping the same generation is a no-op for new residents.
        cache.insert(key, CachedList::new((Vec::new().into(), 0.0, 2.0), false));
        cache.ensure_generation(1);
        assert_eq!(cache.get(&key, |_| true).map(|l| l.total), Some(2.0));
    }
}
