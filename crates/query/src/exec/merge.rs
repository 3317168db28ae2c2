//! Stage 1 of the top-k operator pipeline: **sorted-access sources**.
//!
//! This module owns everything that turns one query pattern into a
//! stream of scored matches in globally descending probability order:
//!
//! * **Pattern alternatives** — the pattern plus its relaxed forms under
//!   mergeable rules (chained up to a depth), each with a combined
//!   weight: the stream's [`AltTable`], built once per execution and
//!   shared by every slice's merge.
//! * **[`IncrementalMerge`]** — a priority queue over one pattern's
//!   alternatives (Theobald et al. style). Unopened alternatives are
//!   held at their upper bound; an alternative's posting list is
//!   materialized only when that bound rises to the top — the paper's
//!   "invoked only when it can contribute" behaviour.
//! * **[`RankSource`]** — the seam to stage 2 (the rank join,
//!   [`crate::exec::join`]): a source of emissions in descending order
//!   with a sound upper bound on the next one and an O(1) bound on the
//!   collective remaining emission mass. An emission ([`Merged`]) is a
//!   plain `Copy` record — triple, probability, and the *index* of the
//!   alternative that produced it; the alternative's pattern, rule trace
//!   and weight are read through [`RankSource::alternative`] when the
//!   join needs them, so a pull clones nothing. `IncrementalMerge` is the
//!   single-store source; the sharded engine's
//!   [`crate::exec::sharded::ShardedMerge`] implements the same seam
//!   over one merge per shard, so every stage above this one is shared
//!   verbatim between monolithic and partitioned execution.
//! * **Restriction** ([`RankSource::restrict`]) — the one departure
//!   from sorted access. An opened alternative continues over the keyed
//!   rest of its list; an unopened one keeps its head bound and opens
//!   through one permutation-range lookup per key (Packed decodes only
//!   those ranges) when that is priced below reading its list. Every
//!   survivor keeps its sorted-access probability (`weight / T`, `T` the
//!   unrestricted list's total) and order; restricted lists are never
//!   cached.
//!
//! The remaining-mass envelope exposed through
//! [`RankSource::remaining_mass`] is tracked O(1) — via the posting
//! index's prefix-sum columns for index-served lists, an incremental
//! consumed-weight cursor otherwise. It provably dominates the frontier
//! (a property test pins the invariant), serving as the exact engine's
//! verified soundness envelope and as the **load-bearing termination
//! criterion** of the ε-approximate mode
//! ([`crate::exec::drive::TopkConfig::epsilon`], enforced by
//! [`crate::exec::threshold`]).

use std::collections::BinaryHeap;
use std::rc::Rc;

use trinit_obs::TraceRecorder;
use trinit_relax::{QPattern, QTerm, RuleId, RuleSet, VarId};
use trinit_xkg::{Posting, SlotPattern, TermId, Triple, TripleId, XkgStore};

use crate::exec::drive::TopkConfig;
use crate::exec::join::KeySet;
use crate::exec::ExecMetrics;
use crate::score::{
    canonical_pattern, head_prob_bound_global, probe_normalizer, satisfies_mask, CacheSource,
    GlobalTotals, ScoredMatches, SharedPostingCache,
};

/// One slice's state of one entry of the stream's [`AltTable`].
#[derive(Debug)]
struct AltState<'s> {
    matches: Option<ScoredMatches<'s>>,
    /// Sound upper bound on this alternative's best emission probability
    /// before its list is opened: the exact head probability for the
    /// shapes the store answers without the list, 1.0 otherwise.
    head_bound: f64,
    /// Restrictions that arrived before the alternative opened, applied
    /// when it does.
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

    /// Opens an unopened alternative through its key lookups, if its
    /// normalizer is known without its list and probing pays.
    fn open(
        &self,
        store: &XkgStore,
        pattern: &QPattern,
        totals: Option<&dyn GlobalTotals>,
        metrics: &mut ExecMetrics,
    ) -> Option<ScoredMatches<'static>> {
        let (divisor, scale) = probe_normalizer(store, pattern, totals)?;
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

/// One entry of an [`AltTable`].
#[derive(Debug, Clone, Copy)]
struct AltEntry {
    pattern: QPattern,
    weight: f64,
    /// The rule chain: `len` rules from `start` in the table's `traces`.
    trace: (u32, u32),
    /// The pattern's global total under the view's totals provider (see
    /// [`AltTable::build`]).
    total: Option<f64>,
}

/// A stream's relaxation table: its pattern and the relaxed forms of it
/// under the mergeable rules, chained up to
/// [`TopkConfig::chain_depth`], each with a combined weight and the
/// chain of rules behind it. [`RankSource::alternative`] reads it.
///
/// A table is a function of the pattern, the rules and the configuration
/// alone, so [`crate::exec::drive::execute`] builds one per stream and
/// every slice's [`IncrementalMerge`] over that stream shares it; a
/// slice's merge keeps only its own per-alternative state. Nothing
/// outlives the execution.
#[derive(Debug)]
pub struct AltTable {
    alts: Vec<AltEntry>,
    /// Every entry's rule chain, back to back. A chain an entry replaced
    /// stays behind unreferenced.
    traces: Vec<RuleId>,
}

impl AltTable {
    /// Enumerates `pattern`'s alternatives breadth-first: each rule that
    /// rewrites an entry of the last round into a pattern not yet in the
    /// table appends it, one that rewrites it into a present pattern with
    /// a higher weight replaces that entry's weight and chain. Entries
    /// under [`TopkConfig::min_weight`] are pruned and the table holds at
    /// most [`TopkConfig::max_alternatives`].
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
    /// total is resolved here, once, for every slice's head bound.
    pub fn build(
        pattern: &QPattern,
        rules: &RuleSet,
        cfg: &TopkConfig,
        fresh_base: u16,
        totals: Option<&dyn GlobalTotals>,
    ) -> AltTable {
        let origin = AltEntry {
            pattern: *pattern,
            weight: 1.0,
            trace: (0, 0),
            total: None,
        };
        let mut table = AltTable {
            alts: vec![origin],
            traces: Vec::new(),
        };
        // Each round appends its new entries after the previous round's.
        let mut frontier = 0..1;
        for _ in 0..cfg.chain_depth {
            let round = table.alts.len();
            for idx in frontier {
                let cur = table.alts[idx];
                let Some(pred) = cur.pattern.p.term() else {
                    continue;
                };
                for &(rule_id, rewrite) in rules.rules_for_predicate(pred) {
                    let weight = cur.weight * rules.get(rule_id).weight;
                    if weight < cfg.min_weight {
                        continue;
                    }
                    let Some(pattern) = rewrite.apply(&cur.pattern, fresh_base) else {
                        continue;
                    };
                    match table.alts.iter().position(|a| a.pattern == pattern) {
                        Some(i) if weight > table.alts[i].weight => {
                            table.alts[i].weight = weight;
                            table.alts[i].trace = table.chain(cur.trace, rule_id);
                        }
                        None if table.alts.len() < cfg.max_alternatives => {
                            let trace = table.chain(cur.trace, rule_id);
                            table.alts.push(AltEntry {
                                pattern,
                                weight,
                                trace,
                                total: None,
                            });
                        }
                        _ => {}
                    }
                }
            }
            frontier = round..table.alts.len();
            if frontier.is_empty() {
                break;
            }
        }
        if let Some(totals) = totals {
            for alt in &mut table.alts {
                alt.total = totals.pattern_total(&canonical_pattern(&alt.pattern));
            }
        }
        table
    }

    /// Appends `parent`'s chain followed by `rule` to the trace arena.
    fn chain(&mut self, (start, len): (u32, u32), rule: RuleId) -> (u32, u32) {
        let at = self.traces.len() as u32;
        self.traces
            .extend_from_within(start as usize..(start + len) as usize);
        self.traces.push(rule);
        (at, len + 1)
    }

    /// Entry `alt` as the join reads it.
    #[inline]
    pub(crate) fn view(&self, alt: usize) -> AltView<'_> {
        let a = &self.alts[alt];
        let (start, len) = (a.trace.0 as usize, a.trace.1 as usize);
        AltView {
            pattern: &a.pattern,
            trace: &self.traces[start..start + len],
            weight: a.weight,
        }
    }

    /// The entries in table order: the pattern itself first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AltView<'_>> {
        (0..self.alts.len()).map(|i| self.view(i))
    }
}

/// Heap entry of the incremental merge: an alternative keyed by an upper
/// bound on its next emission.
#[derive(Debug)]
struct MergeEntry {
    bound: f64,
    alt: usize,
    opened: bool,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.alt == other.alt && self.opened == other.opened
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
            .then_with(|| other.alt.cmp(&self.alt))
    }
}

/// A source of rank-join stream items: emissions in globally descending
/// combined-probability order with a sound upper bound on the next one —
/// the narrow seam between the merge stage and the join stage.
///
/// [`IncrementalMerge`] is the single-store source; the sharded executor
/// merges one `IncrementalMerge` per shard into a
/// [`crate::exec::sharded::ShardedMerge`]. The rank join itself is
/// generic over this trait, so partitioned execution reuses the exact
/// join, threshold, and capping machinery of the monolithic engine.
pub trait RankSource {
    /// Upper bound on the probability of the next emission, or `None`
    /// if exhausted.
    fn peek_bound(&self) -> Option<f64>;

    /// Produces the next emission in descending order. `recorder`
    /// receives source-level spans (the sharded union batches election
    /// windows into it); the single-store source ignores it.
    fn next_merged(&mut self, metrics: &mut ExecMetrics, recorder: &mut TraceRecorder)
        -> Option<Merged>;

    /// The entry of this source's alternative table an emission's
    /// [`Merged::alt`] indexes: the pattern the triple matched (needed to
    /// bind variables) and the provenance a derivation records. Emissions
    /// carry the index instead of a copy, so the per-pull path clones
    /// nothing; the join reads the pattern once per arrival and the rest
    /// once per *successful* combination.
    fn alternative(&self, alt: u32) -> AltView<'_>;

    /// Flush any batched span state into `recorder` — called once per
    /// stream when the rank join over it ends. Default: nothing.
    fn finish_obs(&mut self, _recorder: &mut TraceRecorder) {}

    /// Sound upper bound on the *collective* probability mass of every
    /// emission this source can still produce — hence also on each
    /// single one. Always ≥ [`RankSource::peek_bound`]. Must be cheap
    /// enough to read once per stream per pull round: O(1) for the
    /// single-store source (incrementally tracked), O(shards) summing
    /// per-shard O(1) envelopes for the sharded union — both dominated
    /// by the pull itself. The ε-approximate mode's termination
    /// criterion reads this envelope (see
    /// [`crate::exec::threshold::ThresholdPolicy`]).
    fn remaining_mass(&self) -> f64;

    /// Drops every future emission of an alternative binding all of
    /// `keys`' variables whose values there form no key — exactly those
    /// the retired-stream filter would drop on arrival; the rest are
    /// emitted as before, bit for bit. False (no change) when no
    /// alternative binds them all.
    fn restrict(&mut self, keys: &Rc<KeySet>, metrics: &mut ExecMetrics) -> bool;
}

/// An emission of the incremental merge.
#[derive(Debug, Clone, Copy)]
pub struct Merged {
    /// The matched triple.
    pub triple: TripleId,
    /// Combined probability `w_alt × P(t | alt pattern)`.
    pub prob: f64,
    /// Index of the emitting alternative in the source's alternative
    /// table ([`RankSource::alternative`]).
    pub alt: u32,
}

/// One entry of a source's alternative table, as the join reads it.
#[derive(Debug, Clone, Copy)]
pub struct AltView<'a> {
    /// The alternative's pattern (needed to bind variables).
    pub pattern: &'a QPattern,
    /// Rules on the alternative's chain.
    pub trace: &'a [RuleId],
    /// The alternative's weight.
    pub weight: f64,
}

/// Incremental merge over one pattern's alternatives (Theobald et al.
/// style): emits matches across all alternatives in globally descending
/// combined-probability order, opening an alternative's posting list only
/// when its upper bound reaches the top of the queue.
pub struct IncrementalMerge<'a> {
    store: &'a XkgStore,
    /// The stream's relaxation table, shared by every slice's merge.
    table: Rc<AltTable>,
    /// This slice's state of each table entry.
    alts: Vec<AltState<'a>>,
    heap: BinaryHeap<MergeEntry>,
    /// Optional store-level cache shared across executions (sessions).
    shared: Option<&'a SharedPostingCache>,
    /// Optional global normalization totals: set when `store` is one
    /// shard of a partitioned store, `None` for monolithic execution.
    totals: Option<&'a dyn GlobalTotals>,
    /// Incrementally maintained sound upper bound on every single
    /// emission the merge can still produce: Σ over alternatives of
    /// `weight × remaining`, where `remaining` is the head bound until
    /// an alternative opens and its list's unconsumed mass afterwards
    /// (each of which bounds that alternative's next emission). Each
    /// emission subtracts its own contribution, so reading the bound is
    /// O(1) per capping round.
    mass_upper: f64,
    /// `store`'s base in the view's global triple-id space, added to
    /// every emitted id (0 for a store queried on its own).
    id_base: u32,
}

impl<'a> IncrementalMerge<'a> {
    /// The merge over `store`'s matches of `table`'s alternatives; `totals`
    /// must be the provider the table was built under.
    pub fn new(
        store: &'a XkgStore,
        table: Rc<AltTable>,
        shared: Option<&'a SharedPostingCache>,
        totals: Option<&'a dyn GlobalTotals>,
    ) -> IncrementalMerge<'a> {
        // Exact head probability for index-served shapes (anchored
        // subject/object strata included), read in O(1) from the
        // precomputed posting index — the alternative enters the queue at
        // its true first-emission bound instead of the trivial
        // `weight × 1.0`. Under a partitioned store the head weight is
        // divided by the *global* total, so each slice enters the merge at
        // its exact globally-normalized head. A head bound of exactly 0 is
        // only reported for index-served shapes whose match set carries no
        // emission mass (the index serves them empty): such alternatives
        // never enter the queue, where a zero-keyed entry would linger for
        // the threshold to trip over.
        let alts: Vec<AltState<'a>> = (table.alts.iter())
            .map(|a| AltState {
                matches: None,
                head_bound: head_prob_bound_global(store, &a.pattern, a.total),
                pending: Vec::new(),
            })
            .collect();
        let mut merge = IncrementalMerge {
            store,
            heap: BinaryHeap::with_capacity(alts.len()),
            table,
            alts,
            shared,
            totals,
            mass_upper: 0.0,
            id_base: 0,
        };
        merge.requeue();
        merge
    }

    /// Rebuilds the queue and the mass envelope from the alternatives'
    /// state: opened ones at their exact next probability and remaining
    /// mass, unopened ones at their head bound (never, if that is 0).
    fn requeue(&mut self) {
        self.heap.clear();
        self.mass_upper = 0.0;
        for (i, (alt, entry)) in self.alts.iter().zip(&self.table.alts).enumerate() {
            let head = (alt.head_bound > 0.0).then_some(alt.head_bound);
            let (bound, mass, opened) = match &alt.matches {
                Some(m) => (m.peek_prob(), m.remaining_mass(), true),
                None => (head, alt.head_bound, false),
            };
            self.mass_upper += entry.weight * mass;
            if let Some(bound) = bound {
                self.heap.push(MergeEntry {
                    bound: entry.weight * bound,
                    alt: i,
                    opened,
                });
            }
        }
    }

    /// True if this merge reads `table` (the same allocation, not an
    /// equal copy).
    pub(crate) fn reads(&self, table: &Rc<AltTable>) -> bool {
        Rc::ptr_eq(&self.table, table)
    }

    /// Emits triple ids offset by `id_base`: the slice's base in a
    /// multi-slice view's global id space.
    pub fn with_id_base(mut self, id_base: u32) -> IncrementalMerge<'a> {
        self.id_base = id_base;
        self
    }

    /// Opens an unopened heap entry's posting list — the moment its
    /// relaxation is "invoked" — and re-queues it at its exact head
    /// probability — through its first pending restriction's lookups when
    /// that pays ([`Restriction::open`]), the others applied after.
    fn open_entry(&mut self, entry: MergeEntry, metrics: &mut ExecMetrics) {
        let AltEntry {
            pattern, weight, ..
        } = self.table.alts[entry.alt];
        let alt = &mut self.alts[entry.alt];
        // Entry 0 is the pattern itself; every other is a relaxation.
        if entry.alt != 0 {
            metrics.relaxations_opened += 1;
        }
        let pending = std::mem::take(&mut alt.pending);
        let open = |r: &Restriction| r.open(self.store, &pattern, self.totals, metrics);
        let probed = pending.first().and_then(open);
        let applied = usize::from(probed.is_some());
        let mut matches = match probed {
            Some(probed) => probed,
            None => {
                let (matches, source) =
                    ScoredMatches::build_global(self.store, &pattern, self.shared, self.totals);
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
            matches = r.apply(self.store, &pattern, &matches, metrics);
        }
        if let Some(p) = matches.peek_prob() {
            self.heap.push(MergeEntry {
                bound: weight * p,
                alt: entry.alt,
                opened: true,
            });
        }
        // Replace the alternative's head-bound contribution with its
        // actual (full) list mass.
        self.mass_upper += weight * (matches.remaining_mass() - alt.head_bound);
        alt.matches = Some(matches);
    }

    /// Opens alternatives until the top of the queue is an *opened* list
    /// head, making [`RankSource::peek_bound`] the exact
    /// probability of the next emission (not just an upper bound).
    /// Returns that exact bound, or `None` if the merge is exhausted.
    /// The sharded merge uses this to order emissions across shards
    /// without pulling speculatively.
    pub fn tighten_head(&mut self, metrics: &mut ExecMetrics) -> Option<f64> {
        loop {
            let top = self.heap.peek()?;
            if top.opened {
                return Some(top.bound);
            }
            let entry = self.heap.pop()?;
            self.open_entry(entry, metrics);
        }
    }

    /// Produces the next emission in descending order.
    pub fn next_merged(&mut self, metrics: &mut ExecMetrics) -> Option<Merged> {
        loop {
            let entry = self.heap.pop()?;
            if !entry.opened {
                self.open_entry(entry, metrics);
                continue;
            }
            let weight = self.table.alts[entry.alt].weight;
            // An `opened` entry always has materialized matches; if the
            // invariant ever broke, dropping the entry degrades to a
            // skipped alternative instead of panicking mid-serve.
            let Some(matches) = self.alts[entry.alt].matches.as_mut() else {
                continue;
            };
            let Some((triple, prob)) = matches.next_entry() else {
                continue;
            };
            self.mass_upper -= weight * prob;
            metrics.postings_scanned += 1;
            if let Some(p) = matches.peek_prob() {
                self.heap.push(MergeEntry {
                    bound: weight * p,
                    alt: entry.alt,
                    opened: true,
                });
            }
            return Some(Merged {
                triple: TripleId(self.id_base + triple.0),
                prob: weight * prob,
                alt: entry.alt as u32,
            });
        }
    }
}

impl RankSource for IncrementalMerge<'_> {
    #[inline]
    fn peek_bound(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.bound)
    }

    #[inline]
    fn next_merged(
        &mut self,
        metrics: &mut ExecMetrics,
        _recorder: &mut TraceRecorder,
    ) -> Option<Merged> {
        IncrementalMerge::next_merged(self, metrics)
    }

    #[inline]
    fn alternative(&self, alt: u32) -> AltView<'_> {
        self.table.view(alt as usize)
    }

    /// Once alternatives are open, also bounds their collective
    /// unconsumed mass (the list cursors track it in O(1); unopened
    /// alternatives contribute their head bound).
    #[inline]
    fn remaining_mass(&self) -> f64 {
        self.mass_upper.max(0.0)
    }

    /// Restricts each eligible alternative's opened rest now and queues
    /// the restriction for each unopened one, which keeps its head bound
    /// and stays lazy; then rebuilds the queue and the mass envelope.
    fn restrict(&mut self, keys: &Rc<KeySet>, metrics: &mut ExecMetrics) -> bool {
        let mut restricted = false;
        for (alt, entry) in self.alts.iter_mut().zip(&self.table.alts) {
            let Some(r) = Restriction::of(keys, &entry.pattern) else {
                continue;
            };
            restricted = true;
            match &alt.matches {
                Some(m) => alt.matches = Some(r.apply(self.store, &entry.pattern, m, metrics)),
                None => alt.pending.push(r),
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
    use crate::exec::testfix::{self, store};
    use trinit_relax::{Rule, RuleProvenance};

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
}
