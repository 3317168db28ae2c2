//! Stage 1 of the top-k operator pipeline: **sorted-access sources**.
//!
//! This module owns everything that turns one query pattern into a
//! stream of scored matches in globally descending probability order:
//!
//! * **Pattern alternatives** — the pattern plus its relaxed forms under
//!   single-pattern rules (chained up to a depth), each with a combined
//!   weight ([`pattern_alternatives`]).
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

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::rc::Rc;

use trinit_obs::TraceRecorder;
use trinit_relax::{apply_rule, QPattern, QTerm, Rule, RuleId, RuleSet, VarId};
use trinit_xkg::{TripleId, XkgStore};

use crate::exec::drive::TopkConfig;
use crate::exec::ExecMetrics;
use crate::score::{
    head_prob_bound_global, CacheSource, GlobalTotals, PostingCache, ScoredMatches,
    SharedPostingCache,
};

/// True if a rule can participate in per-pattern incremental merging:
/// one pattern in, one pattern out, constant LHS predicate.
pub(crate) fn is_mergeable(rule: &Rule) -> bool {
    rule.lhs.len() == 1 && rule.rhs.len() == 1 && rule.lhs_predicate().is_some()
}

/// One relaxed form of a single pattern.
#[derive(Debug, Clone)]
pub(crate) struct Alternative<'s> {
    pub(crate) pattern: QPattern,
    pub(crate) weight: f64,
    pub(crate) trace: Vec<RuleId>,
    pub(crate) matches: Option<ScoredMatches<'s>>,
    /// Sound upper bound on this alternative's best emission probability
    /// before its list is opened: the exact head probability for
    /// index-served shapes under the tightened threshold, 1.0 otherwise.
    pub(crate) head_bound: f64,
}

/// Variable ids a stream may allocate for rule-introduced fresh
/// variables: its range is `[fresh_base, fresh_base + FRESH_VARS_PER_STREAM)`.
/// Every alternative draws from the same range (see [`remap_fresh`]); a
/// triple pattern has three slots, so three ids always suffice.
pub(crate) const FRESH_VARS_PER_STREAM: u16 = 3;

/// Computes the alternatives of one pattern under the mergeable rules.
///
/// `fresh_base` is the first variable id this pattern may allocate for
/// RHS-fresh rule variables; callers give each pattern a disjoint range
/// of [`FRESH_VARS_PER_STREAM`] ids so fresh variables of different
/// streams never alias.
pub(crate) fn pattern_alternatives<'s>(
    pattern: &QPattern,
    rules: &RuleSet,
    cfg: &TopkConfig,
    fresh_base: u16,
) -> Vec<Alternative<'s>> {
    let mut out: Vec<Alternative<'s>> = vec![Alternative {
        pattern: *pattern,
        weight: 1.0,
        trace: Vec::new(),
        matches: None,
        head_bound: 1.0,
    }];
    let mut frontier = vec![0usize]; // indices into `out`
    for _ in 0..cfg.chain_depth {
        let mut next_frontier = Vec::new();
        for &idx in &frontier {
            let (cur_pattern, cur_weight, cur_trace) = {
                let a = &out[idx];
                (a.pattern, a.weight, a.trace.clone())
            };
            let Some(pred) = cur_pattern.p.term() else {
                continue;
            };
            for &rule_id in rules.rules_for_predicate(pred) {
                let rule = rules.get(rule_id);
                if !is_mergeable(rule) {
                    continue;
                }
                let weight = cur_weight * rule.weight;
                if weight < cfg.min_weight {
                    continue;
                }
                for rewriting in apply_rule(&[cur_pattern], rule, rule_id) {
                    let [new_pattern] = rewriting.patterns.as_slice() else {
                        continue;
                    };
                    // Remap any fresh variables into this pattern's range.
                    let new_pattern = remap_fresh(*new_pattern, &cur_pattern, fresh_base);
                    match out.iter_mut().find(|a| a.pattern == new_pattern) {
                        Some(existing) => {
                            if weight > existing.weight {
                                existing.weight = weight;
                                existing.trace = cur_trace
                                    .iter()
                                    .copied()
                                    .chain(std::iter::once(rule_id))
                                    .collect();
                            }
                        }
                        None => {
                            if out.len() >= cfg.max_alternatives {
                                continue;
                            }
                            let mut trace = cur_trace.clone();
                            trace.push(rule_id);
                            out.push(Alternative {
                                pattern: new_pattern,
                                weight,
                                trace,
                                matches: None,
                                head_bound: 1.0,
                            });
                            next_frontier.push(out.len() - 1);
                        }
                    }
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    out
}

/// Renames the variables of `pattern` that do not occur in `origin`
/// (rule-introduced fresh variables) to the lowest ids from `fresh_base`
/// that `pattern` does not keep from `origin`.
///
/// The ids are allocated per alternative, not across the alternatives of
/// a stream: items of different alternatives never join with each other,
/// so they may share fresh ids, and a pattern holds at most three
/// variables, so the allocation never leaves the stream's
/// [`FRESH_VARS_PER_STREAM`]-wide range however many alternatives there
/// are. (`origin` may itself carry fresh ids from an earlier link of the
/// chain; the ones `pattern` keeps are skipped.) Alternatives that differ
/// only in the naming of their fresh variables become equal patterns and
/// are deduplicated by the caller.
fn remap_fresh(pattern: QPattern, origin: &QPattern, fresh_base: u16) -> QPattern {
    let kept = |v: VarId| origin.vars().any(|u| u == v);
    let mut mapping = [(VarId(0), VarId(0)); 3];
    let mut mapped = 0;
    let mut next = fresh_base;
    let mut map = |t: QTerm| match t {
        QTerm::Var(v) if !kept(v) => {
            if let Some(&(_, nv)) = mapping[..mapped].iter().find(|(old, _)| *old == v) {
                return QTerm::Var(nv);
            }
            while pattern.vars().any(|u| u.0 == next && kept(u)) {
                next += 1;
            }
            let nv = VarId(next);
            next += 1;
            mapping[mapped] = (v, nv);
            mapped += 1;
            QTerm::Var(nv)
        }
        other => other,
    };
    QPattern::new(map(pattern.s), map(pattern.p), map(pattern.o))
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
    alts: Vec<Alternative<'a>>,
    heap: BinaryHeap<MergeEntry>,
    /// Shared per-execution posting cache: structural variants and
    /// alternatives with the same canonical pattern reuse one
    /// materialized list.
    cache: Rc<RefCell<PostingCache>>,
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
    pub(crate) fn new(
        store: &'a XkgStore,
        mut alts: Vec<Alternative<'a>>,
        cache: Rc<RefCell<PostingCache>>,
        shared: Option<&'a SharedPostingCache>,
        tighten: bool,
        totals: Option<&'a dyn GlobalTotals>,
    ) -> IncrementalMerge<'a> {
        let mut heap = BinaryHeap::with_capacity(alts.len());
        for (i, alt) in alts.iter_mut().enumerate() {
            if tighten {
                // Exact head probability for index-served shapes
                // (anchored subject/object strata included), read in
                // O(1) from the precomputed posting index — the
                // alternative enters the queue at its true first-emission
                // bound instead of the trivial `weight × 1.0`. Under a
                // partitioned store the head weight is divided by the
                // *global* total, so each shard enters the merge at its
                // exact globally-normalized head.
                alt.head_bound = head_prob_bound_global(store, &alt.pattern, totals);
                // A head bound of exactly 0 is only reported for
                // index-served shapes whose match set carries no
                // emission mass (empty or all-zero-weight groups, which
                // the index serves as empty lists): skip such
                // alternatives outright instead of letting a zero-keyed
                // heap entry linger for the threshold to trip over.
                if alt.head_bound <= 0.0 {
                    continue;
                }
            }
            heap.push(MergeEntry {
                bound: alt.weight * alt.head_bound,
                alt: i,
                opened: false,
            });
        }
        let mass_upper = alts.iter().map(|a| a.weight * a.head_bound).sum();
        IncrementalMerge {
            store,
            alts,
            heap,
            cache,
            shared,
            totals,
            mass_upper,
            id_base: 0,
        }
    }

    /// Emits triple ids offset by `id_base`: the slice's base in a
    /// multi-slice view's global id space.
    pub(crate) fn with_id_base(mut self, id_base: u32) -> IncrementalMerge<'a> {
        self.id_base = id_base;
        self
    }

    /// Builds the merge over `pattern`'s alternatives under `rules` —
    /// the building block both the monolithic driver and the sharded
    /// merge instantiate, once per pattern (per shard).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_pattern(
        store: &'a XkgStore,
        pattern: &QPattern,
        rules: &RuleSet,
        cfg: &TopkConfig,
        fresh_base: u16,
        cache: Rc<RefCell<PostingCache>>,
        shared: Option<&'a SharedPostingCache>,
        totals: Option<&'a dyn GlobalTotals>,
    ) -> IncrementalMerge<'a> {
        let alts = pattern_alternatives(pattern, rules, cfg, fresh_base);
        IncrementalMerge::new(store, alts, cache, shared, cfg.tighten_threshold, totals)
    }

    /// Upper bound on the probability of the next emission, or `None` if
    /// exhausted.
    pub fn peek_bound(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.bound)
    }

    /// Upper bound on any probability the merge can still emit — and,
    /// once alternatives are open, on their collective unconsumed mass
    /// (kept current by the list cursors' O(1) weight tracking; unopened
    /// alternatives contribute their head bound). Always ≥ any single
    /// future emission, hence a sound — if loose — termination bound.
    pub fn remaining_mass(&self) -> f64 {
        self.mass_upper.max(0.0)
    }

    /// The alternative table entry behind [`Merged::alt`].
    pub fn alternative(&self, alt: u32) -> AltView<'_> {
        let a = &self.alts[alt as usize];
        AltView {
            pattern: &a.pattern,
            trace: &a.trace,
            weight: a.weight,
        }
    }

    /// Opens an unopened heap entry's posting list — the moment its
    /// relaxation is "invoked" — and re-queues it at its exact head
    /// probability.
    fn open_entry(&mut self, entry: MergeEntry, metrics: &mut ExecMetrics) {
        let alt = &mut self.alts[entry.alt];
        // The cache serves structural variants sharing this canonical
        // pattern.
        if !alt.trace.is_empty() {
            metrics.relaxations_opened += 1;
        }
        let (matches, source) = ScoredMatches::build_global(
            self.store,
            &alt.pattern,
            &mut self.cache.borrow_mut(),
            self.shared,
            self.totals,
        );
        match source {
            CacheSource::Built => metrics.posting_lists_built += 1,
            CacheSource::ExecHit => metrics.posting_cache_hits += 1,
            CacheSource::SharedHit => metrics.shared_cache_hits += 1,
        }
        // Serve-kind accounting for fresh builds: anchored-index serves
        // never sort; `ranged_serves` are the selective exact-range
        // orderings (bounded sorts, chosen over larger group walks);
        // `posting_sorts` counts the unbounded materialize-and-sort
        // fallback, which the index makes unreachable — it must stay 0.
        if let Some(kind) = matches.build_kind() {
            match kind {
                k if k.is_anchored() => metrics.anchored_serves += 1,
                trinit_xkg::ServeKind::Range => metrics.ranged_serves += 1,
                trinit_xkg::ServeKind::Scanned => metrics.posting_sorts += 1,
                _ => {}
            }
        }
        if let Some(p) = matches.peek_prob() {
            self.heap.push(MergeEntry {
                bound: alt.weight * p,
                alt: entry.alt,
                opened: true,
            });
        }
        // Replace the alternative's head-bound contribution with its
        // actual (full) list mass.
        self.mass_upper += alt.weight * (matches.remaining_mass() - alt.head_bound);
        alt.matches = Some(matches);
    }

    /// Opens alternatives until the top of the queue is an *opened* list
    /// head, making [`IncrementalMerge::peek_bound`] the exact
    /// probability of the next emission (not just an upper bound).
    /// Returns that exact bound, or `None` if the merge is exhausted.
    /// The sharded merge uses this to order emissions across shards
    /// without pulling speculatively.
    pub fn tighten_head(&mut self, metrics: &mut ExecMetrics) -> Option<f64> {
        loop {
            let opened = self.heap.peek()?.opened;
            if opened {
                return self.peek_bound();
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
            let alt = &mut self.alts[entry.alt];
            // An `opened` entry always has materialized matches; if the
            // invariant ever broke, dropping the entry degrades to a
            // skipped alternative instead of panicking mid-serve.
            let Some(matches) = alt.matches.as_mut() else {
                continue;
            };
            let Some((triple, prob)) = matches.next_entry() else {
                continue;
            };
            self.mass_upper -= alt.weight * prob;
            metrics.postings_scanned += 1;
            if let Some(p) = matches.peek_prob() {
                self.heap.push(MergeEntry {
                    bound: alt.weight * p,
                    alt: entry.alt,
                    opened: true,
                });
            }
            return Some(Merged {
                triple: TripleId(self.id_base + triple.0),
                prob: alt.weight * prob,
                alt: entry.alt as u32,
            });
        }
    }
}

impl RankSource for IncrementalMerge<'_> {
    #[inline]
    fn peek_bound(&self) -> Option<f64> {
        IncrementalMerge::peek_bound(self)
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
        IncrementalMerge::alternative(self, alt)
    }

    #[inline]
    fn remaining_mass(&self) -> f64 {
        IncrementalMerge::remaining_mass(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::testfix::store;
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
            for tighten in [true, false] {
                let alts = pattern_alternatives(&pattern, &rules, &cfg, 10);
                let cache = Rc::new(RefCell::new(PostingCache::new()));
                let mut merge = IncrementalMerge::new(&store, alts, cache, None, tighten, None);
                let mut metrics = ExecMetrics::default();
                let mut total_emitted = 0.0;
                loop {
                    let mass = merge.remaining_mass();
                    match merge.peek_bound() {
                        Some(bound) => assert!(
                            mass >= bound - 1e-12,
                            "mass {mass} < frontier {bound} (tighten={tighten})"
                        ),
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
    }
}
