//! Stage 2 of the top-k operator pipeline: the **hash-partitioned rank
//! join**.
//!
//! Consumes emissions from each pattern's [`IncrementalMerge`] (stage 1,
//! [`crate::exec::merge`]) and combines them across a variant's streams,
//! HRJN-style: each new item joins against the kept items of the other
//! streams. This module knows nothing about thresholds or termination —
//! pulls are sequenced by the driver ([`crate::exec::drive`]) under the
//! policy of [`crate::exec::threshold`]. The seams it exposes upward are
//! `Stream` (per-stream join state plus the frontier / contribution
//! bounds the threshold reads, and a retired stream's keys for the
//! semijoin filter) and `join_with_others` (combine one arrival
//! against the other streams' partitions).
//!
//! ## State layout
//!
//! A steady-state pull allocates nothing, hashes one machine word and
//! touches one compact record per candidate:
//!
//! * A `SeenItem` is a fixed-size record: its ≤ 3 `(variable, value)`
//!   pairs inline (`Pairs` — a triple pattern has three slots), its log
//!   score, its triple id, and the *index* of the alternative that
//!   emitted it. The alternative's pattern, rule trace and weight stay in
//!   the merge's alternative table ([`IncrementalMerge::alternative`]) and are
//!   read only when a derivation is materialized: once per combination
//!   that still ranks when its variant's join ends.
//! * Each `Stream` partitions its kept items by the values of its
//!   *join variables* (variables shared with other streams in the
//!   variant — the Yannakakis-style observation that only join-compatible
//!   partners can ever merge). The partition key is a fixed-width
//!   `JoinKey` (≤ 3 term ids inline) hashed with a multiplicative
//!   hasher — keys are dense internal ids, not outside input, so SipHash
//!   buys nothing here. Buckets are intrusive chains: the map holds a
//!   chain's `head`/`tail`, each item its `next`, so a probe goes map
//!   slot → item with no bucket vector in between. Chains keep arrival
//!   order. Items whose relaxed form dropped a join variable sit on one
//!   always-scanned residual chain, and streams with no shared variables
//!   degrade to a single bucket (a true cross product).
//! * The combination loop works in one reusable `JoinScratch` per
//!   variant: a scratch [`Bindings`] sized from the variant's real
//!   variable count, one undo stack shared by every recursion depth, and
//!   the stack of accumulated partners. A *successful* full join that
//!   can still rank — one scoring strictly below a full top-k's k-th is
//!   dropped first — builds only its projected key and is offered
//!   deferred, as its score and its items: the arrival and its partners
//!   as `(stream, kept item)`. Bindings and derivations are built once
//!   per variant, when its rank join ends and its streams still hold
//!   those items (`materialize`), and only for the combinations that
//!   still rank then.
//!
//! ## The retired-stream semijoin filter
//!
//! An item is *dead* when some other stream `j` is retired (exhausted, or
//! capped by the exact, ε or θ criterion), holds no residual item, and the
//! item binds all of `j`'s join variables to a key with no bucket in `j`.
//! Dead items are never pulled: in the round `j` retires, the driver
//! restricts every live stream's source to `j`'s keys (`Stream::key_set`,
//! [`IncrementalMerge::restrict`]), which skips exactly the dead items — found by
//! bound lookups of the keys, or one scan of a list's rest — and emits the
//! others unchanged. Every combination a dead item could complete needs an
//! item of `j` with exactly its key, and `j` keeps none:
//!
//! * if `j` is *exhausted*, every item it will ever emit has been seen,
//!   so the partner was either never emitted (no combination exists) or
//!   was itself skipped (below);
//! * if `j` is *capped*, a partner `j` does not keep is an unseen item
//!   of `j` (or a skipped one). When `j` was capped the policy had
//!   established `kth ≥ variant + frontier_j + Σ others' bounds` (or,
//!   for the ε criterion, that the same sum with `j`'s remaining mass is
//!   within ε). `kth` only rises and the right-hand side only falls, so
//!   a combination through an unseen item of `j` can never enter the
//!   top-k — the same tie semantics capping has always had, and under
//!   ε / θ the forfeit is the one `note_approx` recorded at capping time.
//!
//! Skipped items need the same argument once more, since later arrivals
//! never find them: take any combination containing a skipped item and
//! look at the item `d` of it that was skipped *first*, because of
//! retired stream `i`. The combination's `i`-item is not kept (no bucket
//! carried `d`'s key, and a retired stream receives nothing more), nor
//! skipped (a retired stream is never restricted, so all of `i`'s skips
//! precede its retirement, hence `d`'s), so it is unseen and `i` is
//! capped; every other item of the combination was kept or unseen when
//! `i` was capped, so the capping inequality bounds the whole
//! combination. Hence a restricted stream's frontier and remaining mass
//! range over its surviving items, `best_log` and
//! `Stream::contribution_bound` over *kept* items only (the frontier
//! while nothing is kept — tighter, and sound by the above), and a stream
//! that retires with nothing kept kills the variant exactly as an empty
//! one does.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use trinit_relax::{QPattern, QTerm, RuleId, VarId};
use trinit_xkg::{TermId, TripleId};

use crate::answer::{AnswerCollector, Bindings, Derivation};
use crate::exec::merge::{IncrementalMerge, Merged};
use crate::exec::{ExecMetrics, TripleLookup};
use crate::score::{ln_weight, LOG_ZERO};

/// End-of-chain marker of the intrusive bucket chains.
const NIL: u32 = u32::MAX;

/// The `(variable, value)` pairs one triple pattern binds: at most three,
/// deduplicated, inline. Stored as pairs (not a dense [`Bindings`]) so
/// joining is an O(|pairs|) probe into the shared scratch assignment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pairs {
    len: u8,
    items: [(VarId, TermId); 3],
}

impl Pairs {
    fn new() -> Pairs {
        Pairs {
            len: 0,
            items: [(VarId(0), TermId::from_raw(0)); 3],
        }
    }

    #[inline]
    pub(crate) fn as_slice(&self) -> &[(VarId, TermId)] {
        &self.items[..usize::from(self.len)]
    }

    #[inline]
    fn get(&self, v: VarId) -> Option<TermId> {
        self.as_slice()
            .iter()
            .find(|(u, _)| *u == v)
            .map(|&(_, t)| t)
    }

    fn push(&mut self, v: VarId, t: TermId) {
        self.items[usize::from(self.len)] = (v, t);
        self.len += 1;
    }
}

/// An item kept by one rank-join stream: the (few) variable bindings its
/// triple induced, plus what a derivation needs to name it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeenItem {
    pub(crate) bound: Pairs,
    pub(crate) log_score: f64,
    pub(crate) triple: TripleId,
    /// Index into the stream's alternative table
    /// ([`IncrementalMerge::alternative`]).
    pub(crate) alt: u32,
    /// Next item of this item's bucket (or residual) chain.
    next: u32,
}

impl SeenItem {
    pub(crate) fn new(bound: Pairs, log_score: f64, m: &Merged) -> SeenItem {
        SeenItem {
            bound,
            log_score,
            triple: m.triple,
            alt: m.alt,
            next: NIL,
        }
    }
}

/// A partition key: the values of a stream's (≤ 3) join variables in
/// `join_vars` order, unused positions zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JoinKey([u32; 3]);

impl JoinKey {
    /// The key `value_of` induces over `join_vars`, or `None` if some
    /// join variable has no value.
    #[inline]
    fn over(join_vars: &[VarId], value_of: impl Fn(VarId) -> Option<TermId>) -> Option<JoinKey> {
        let mut key = [0u32; 3];
        for (slot, &v) in key.iter_mut().zip(join_vars) {
            *slot = value_of(v)?.raw();
        }
        Some(JoinKey(key))
    }
}

/// A retired stream's join keys: the value tuples of its join variables
/// a partner must bind (see the module docs).
#[derive(Debug)]
pub struct KeySet {
    pub(crate) vars: Vec<VarId>,
    /// One value per variable (unused positions zero); sorted, unique.
    pub(crate) keys: Vec<[TermId; 3]>,
}

impl KeySet {
    /// The set over `vars` (at most three) holding each of `keys`, which
    /// give one value per variable, in `vars` order.
    pub fn new<K: AsRef<[TermId]>>(vars: &[VarId], keys: impl IntoIterator<Item = K>) -> KeySet {
        let mut keys: Vec<[TermId; 3]> = keys
            .into_iter()
            .map(|k| {
                let mut key = [TermId::from_raw(0); 3];
                key[..vars.len()].copy_from_slice(&k.as_ref()[..vars.len()]);
                key
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        KeySet {
            vars: vars.to_vec(),
            keys,
        }
    }
}

impl Hash for JoinKey {
    /// Folds the key into one word: the common one- and two-variable
    /// keys are the word itself.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c] = self.0;
        let word = u64::from(a) | u64::from(b) << 32;
        state.write_u64(word ^ u64::from(c).wrapping_mul(WordHasher::ODD));
    }
}

/// Multiplicative hasher for [`JoinKey`] words: one multiply by an odd
/// constant, then a rotation that moves the well-mixed high bits to where
/// the table takes its bucket index from. Keys are dense internal term
/// ids, never outside input, so there is nothing for a keyed hash to
/// defend against.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    /// 2⁶⁴ / φ, the Fibonacci-hashing multiplier.
    const ODD: u64 = 0x9E37_79B9_7F4A_7C15;
}

impl Hasher for WordHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::ODD);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// An intrusive chain through a stream's kept items, in arrival order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

impl Chain {
    const EMPTY: Chain = Chain {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// One rank-join stream: a stage-1 source plus the partitioned kept-item
/// state the join probes and the bounds the threshold policy reads.
pub(crate) struct Stream<'s> {
    pub(crate) merge: IncrementalMerge<'s>,
    /// Items that survived the semijoin filter, in arrival order.
    seen: Vec<SeenItem>,
    /// This stream's join variables: variables of its variant pattern
    /// shared with at least one other stream. Sorted, deduplicated, at
    /// most three; the partition key is their value tuple.
    join_vars: Vec<VarId>,
    /// Kept items that bind every join variable, chained per join-key
    /// value. With no join variables all items share the zero key (a
    /// deliberate single-bucket cross product).
    buckets: HashMap<JoinKey, Chain, BuildHasherDefault<WordHasher>>,
    /// Kept items whose (relaxed) pattern dropped a join variable; they
    /// are compatible with any key value there, so every probe scans
    /// this residual chain as well.
    partial: Chain,
    /// Score of the best (= first) kept item.
    best_log: f64,
    /// Cached `ln` of the source's bound on its next emission. The bound
    /// only moves inside the source's own `next_merged`
    /// ([`IncrementalMerge::peek_bound`] is `&self`), so [`Stream::pull`]
    /// refreshes it and every reader in between pays no `ln`.
    frontier: f64,
    /// The source has nothing more to emit (set by [`Stream::pull`]).
    exhausted: bool,
    /// Retired by the termination policy: no unseen item of this stream
    /// can improve the top-k (exact capping) or everything it can still
    /// contribute is within the ε tolerance (approximate capping), so it
    /// is no longer pulled (its kept items keep participating in other
    /// streams' joins).
    pub(crate) capped: bool,
    /// Set once the driver has offered this (retired) stream's keys to
    /// the live streams ([`Stream::key_set`]).
    pub(crate) keys_offered: bool,
}

impl<'s> Stream<'s> {
    /// A fresh stream over `merge` with the given join variables.
    pub(crate) fn new(merge: IncrementalMerge<'s>, join_vars: Vec<VarId>) -> Stream<'s> {
        debug_assert!(join_vars.len() <= 3, "a triple pattern has three slots");
        let bound = merge.peek_bound();
        Stream {
            merge,
            seen: Vec::new(),
            join_vars,
            buckets: HashMap::default(),
            partial: Chain::EMPTY,
            best_log: LOG_ZERO,
            frontier: bound.map_or(LOG_ZERO, ln_weight),
            exhausted: bound.is_none(),
            capped: false,
            keys_offered: false,
        }
    }

    /// Pulls the source's next emission and refreshes the cached
    /// frontier. The stream is exhausted as soon as the source reports no
    /// bound on a further emission — with its last item, not one empty
    /// pull later — so the semijoin filter can rely on it while the
    /// other streams still drain.
    pub(crate) fn pull(&mut self, metrics: &mut ExecMetrics) -> Option<Merged> {
        let merged = self.merge.next_merged(metrics);
        if merged.is_some() {
            self.refresh();
        } else {
            self.exhausted = true;
            self.frontier = LOG_ZERO;
        }
        merged
    }

    /// Re-reads the cached frontier after the source moved (a pull, or a
    /// restriction); a source left with nothing to emit is exhausted.
    pub(crate) fn refresh(&mut self) {
        match self.merge.peek_bound() {
            Some(bound) => self.frontier = ln_weight(bound),
            None => {
                self.exhausted = true;
                self.frontier = LOG_ZERO;
            }
        }
    }

    /// The keys a partner must hit, once final and complete: the stream
    /// is retired, has join variables and keeps no residual item (which
    /// would partner every key).
    pub(crate) fn key_set(&self) -> Option<KeySet> {
        let final_keys = self.retired() && self.partial.is_empty() && !self.join_vars.is_empty();
        let keys = self.buckets.keys().map(|k| k.0.map(TermId::from_raw));
        final_keys.then(|| KeySet::new(&self.join_vars, keys))
    }

    /// Upper bound (log) on this stream's next emission; [`LOG_ZERO`]
    /// once exhausted.
    #[inline]
    pub(crate) fn frontier_log(&self) -> f64 {
        self.frontier
    }

    /// No longer pulled: exhausted, or capped by the termination policy.
    #[inline]
    pub(crate) fn retired(&self) -> bool {
        self.exhausted || self.capped
    }

    /// Retired without a single kept item: no combination of the variant
    /// can complete (or matter) any more.
    #[inline]
    pub(crate) fn barren(&self) -> bool {
        self.retired() && self.seen.is_empty()
    }

    /// Upper bound on any item this stream can contribute to a
    /// combination that can still matter: the best kept item, or the
    /// frontier while nothing is kept.
    #[inline]
    pub(crate) fn contribution_bound(&self) -> f64 {
        if self.seen.is_empty() {
            self.frontier
        } else {
            self.best_log
        }
    }

    /// Keeps an item, chaining it under its join-key partition.
    pub(crate) fn push_seen(&mut self, item: SeenItem) {
        if self.seen.is_empty() {
            self.best_log = item.log_score;
        }
        let idx = self.seen.len() as u32;
        let chain = match JoinKey::over(&self.join_vars, |v| item.bound.get(v)) {
            Some(key) => self.buckets.entry(key).or_insert(Chain::EMPTY),
            None => &mut self.partial,
        };
        if chain.is_empty() {
            chain.head = idx;
        } else {
            self.seen[chain.tail as usize].next = idx;
        }
        chain.tail = idx;
        self.seen.push(item);
    }
}

/// The `(variable, value)` pairs a pattern induces against a concrete
/// triple, deduplicated. Returns `None` if a repeated variable meets two
/// different values (cannot happen for triples from the pattern's own
/// match list, which pre-filters repetition, but kept defensive).
pub(crate) fn bind_pairs(
    pattern: &QPattern,
    lookup: &dyn TripleLookup,
    triple: TripleId,
) -> Option<Pairs> {
    let t = lookup.triple_of(triple);
    let mut out = Pairs::new();
    for (slot, value) in pattern.slots().into_iter().zip([t.s, t.p, t.o]) {
        if let QTerm::Var(v) = slot {
            match out.get(v) {
                Some(existing) if existing != value => return None,
                Some(_) => {}
                None => out.push(v, value),
            }
        }
    }
    Some(out)
}

/// The join variables of each pattern: variables shared with at least
/// one other pattern of the variant. Relaxed alternatives only rename
/// rule-introduced *fresh* variables (into per-stream disjoint ranges),
/// so shared variables are exactly the shared variables of the variant
/// patterns themselves.
pub(crate) fn join_vars_of(patterns: &[QPattern]) -> Vec<Vec<VarId>> {
    patterns
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut join_vars: Vec<VarId> = p.vars().collect();
            join_vars.sort_unstable();
            join_vars.dedup();
            join_vars.retain(|v| {
                patterns
                    .iter()
                    .enumerate()
                    .any(|(j, q)| j != i && q.vars().any(|w| w == *v))
            });
            join_vars
        })
        .collect()
}

/// The first variable id beyond every variable used by `patterns`.
pub(crate) fn max_var_of(patterns: &[QPattern]) -> u16 {
    patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m + 1)
}

/// Reusable per-variant scratch of the combination loop, so a join
/// allocates nothing until a combination succeeds.
pub(crate) struct JoinScratch {
    /// The shared assignment; restored to fully unbound after every
    /// [`join_with_others`].
    bindings: Bindings,
    /// Variables bound so far, one stack across every recursion depth:
    /// a depth remembers its mark and unwinds to it.
    undo: Vec<VarId>,
    /// `(stream, item)` of the partners accumulated so far, in stream
    /// order.
    partners: Vec<(u32, u32)>,
}

impl JoinScratch {
    /// Scratch for a variant over `n_vars` variables and `n_streams`
    /// streams.
    pub(crate) fn new(n_vars: usize, n_streams: usize) -> JoinScratch {
        JoinScratch {
            bindings: Bindings::new(n_vars),
            undo: Vec::with_capacity(3 * n_streams),
            partners: Vec::with_capacity(n_streams),
        }
    }

    /// Binds an item's pairs into the shared assignment, recording newly
    /// bound variables on the undo stack. On conflict, unwinds to `mark`
    /// and returns `false`.
    fn bind_all(&mut self, bound: &Pairs, mark: usize) -> bool {
        for &(v, t) in bound.as_slice() {
            if !self.bindings.try_bind_recorded(v, t, &mut self.undo) {
                self.unwind(mark);
                return false;
            }
        }
        true
    }

    /// Unbinds everything bound since the undo stack stood at `mark`.
    fn unwind(&mut self, mark: usize) {
        for &v in &self.undo[mark..] {
            self.bindings.unbind(v);
        }
        self.undo.truncate(mark);
    }
}

/// One arrival's combination pass: what stays fixed while the recursion
/// walks the other streams.
struct Combine<'a, 's> {
    streams: &'a [Stream<'s>],
    new_stream: usize,
    projection: &'a [VarId],
    collector: &'a mut AnswerCollector,
    metrics: &'a mut ExecMetrics,
}

impl Combine<'_, '_> {
    /// Depth-first combination over the other streams' kept items. Each
    /// stream is entered through its join-key partition: one hash probe
    /// selects the only chain whose items can merge with the accumulated
    /// assignment (plus the residual chain of items missing a join
    /// variable). A stream some of whose join variables are still unbound
    /// (the accumulated streams do not cover them) is scanned whole.
    fn descend(&mut self, idx: usize, score: f64, scratch: &mut JoinScratch) {
        let streams = self.streams;
        if idx == streams.len() {
            self.emit(score, scratch);
            return;
        }
        if idx == self.new_stream {
            self.descend(idx + 1, score, scratch);
            return;
        }
        let stream = &streams[idx];
        match JoinKey::over(&stream.join_vars, |v| scratch.bindings.get(v)) {
            Some(key) => {
                if let Some(chain) = stream.buckets.get(&key) {
                    self.walk(idx, chain.head, score, scratch);
                }
                self.walk(idx, stream.partial.head, score, scratch);
            }
            None => {
                for item in 0..stream.seen.len() as u32 {
                    self.try_candidate(idx, item, score, scratch);
                }
            }
        }
    }

    fn walk(&mut self, idx: usize, head: u32, score: f64, scratch: &mut JoinScratch) {
        let mut item = head;
        while item != NIL {
            item = self.try_candidate(idx, item, score, scratch);
        }
    }

    /// Tests one candidate of stream `idx`, descending on a match.
    /// Returns the candidate's chain successor.
    fn try_candidate(
        &mut self,
        idx: usize,
        item: u32,
        score: f64,
        scratch: &mut JoinScratch,
    ) -> u32 {
        let streams = self.streams;
        let candidate = &streams[idx].seen[item as usize];
        self.metrics.join_candidates += 1;
        let mark = scratch.undo.len();
        if scratch.bind_all(&candidate.bound, mark) {
            scratch.partners.push((idx as u32, item));
            self.descend(idx + 1, score + candidate.log_score, scratch);
            scratch.partners.pop();
            scratch.unwind(mark);
        }
        candidate.next
    }

    /// Offers one completed combination deferred — its key, its score
    /// and its items, the arrival first (kept next, at the end of its
    /// stream) then its partners in stream order — unless the collector
    /// already holds a full top-k strictly above its score
    /// ([`AnswerCollector::admits`]): then nothing is built.
    fn emit(&mut self, score: f64, scratch: &JoinScratch) {
        if !self.collector.admits(score) {
            return;
        }
        let arrival = (self.new_stream as u32, self.streams[self.new_stream].seen.len() as u32);
        let partners = scratch.partners.iter().copied();
        let key = scratch.bindings.project(self.projection);
        self.collector
            .offer_deferred(key, score, std::iter::once(arrival).chain(partners));
    }
}

/// The bindings and derivation of the combination of `parts` —
/// `(stream, kept item)` pairs, the arrival first, then its partners in
/// stream order — exactly as the join's scratch held them when it was
/// offered: every item's pairs bound into a fresh assignment of `n_vars`
/// variables, and per item its alternative's pattern, triple, rules and
/// weight, the variant's folded in last.
pub(crate) fn materialize(
    streams: &[Stream<'_>],
    parts: &[(u32, u32)],
    variant_log: f64,
    variant_trace: &[RuleId],
    n_vars: usize,
) -> (Bindings, Derivation) {
    let mut bindings = Bindings::new(n_vars);
    let mut rules: Vec<RuleId> = variant_trace.to_vec();
    let mut rule_weight = 1.0;
    let mut triples = Vec::with_capacity(parts.len());
    for &(s, i) in parts {
        let Some(stream) = streams.get(s as usize) else {
            continue;
        };
        let Some(item) = stream.seen.get(i as usize) else {
            continue;
        };
        for &(v, t) in item.bound.as_slice() {
            bindings.bind(v, t);
        }
        let alt = stream.merge.alternative(item.alt);
        rules.extend_from_slice(alt.trace);
        rule_weight *= alt.weight;
        triples.push((*alt.pattern, item.triple));
    }
    // Variant weight folds into the derivation weight as well.
    if variant_log.is_finite() {
        rule_weight *= variant_log.exp();
    }
    let derivation = Derivation {
        triples,
        rules,
        rule_weight,
    };
    (bindings, derivation)
}

/// Joins one arrival against the other streams' kept partitions,
/// offering every completed combination to the collector. The arrival's
/// own stream is skipped, so joining before keeping the item is
/// equivalent to the reverse.
#[expect(clippy::too_many_arguments, reason = "the probe state of one join arrival; a struct would only rename the hot loop's locals")]
pub(crate) fn join_with_others(
    streams: &[Stream<'_>],
    new_stream: usize,
    new_item: &SeenItem,
    variant_log: f64,
    projection: &[VarId],
    scratch: &mut JoinScratch,
    collector: &mut AnswerCollector,
    metrics: &mut ExecMetrics,
) {
    if !scratch.bind_all(&new_item.bound, 0) {
        return; // scratch starts unbound, so this cannot conflict; defensive
    }
    Combine {
        streams,
        new_stream,
        projection,
        collector,
        metrics,
    }
    .descend(0, new_item.log_score + variant_log, scratch);
    scratch.unwind(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::Answer;
    use crate::ast::{Query, QueryBuilder};
    use crate::exec::budget::{BudgetTracker, Completeness};
    use crate::exec::drive::{self, Sources, TopkConfig};
    use crate::exec::segmented::StoreView;
    use crate::exec::testfix::{self, assert_same_answers, reference, store};
    use trinit_relax::{RVar, Rule, RuleProvenance, RuleSet, TTerm, Template};
    use trinit_xkg::{XkgBuilder, XkgStore};

    #[test]
    fn partition_chains_and_residual_chain() {
        // White-box: items binding every join variable are chained, in
        // arrival order, under their key; items whose (relaxed) pattern
        // dropped a join variable go to the always-scanned residual
        // chain.
        let store = store();
        let p = store.resource("affiliation").unwrap();
        let pattern = QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(p), QTerm::Var(VarId(1)));
        let (rules, cfg) = (RuleSet::new(), TopkConfig::default());
        let merge = testfix::merge(&store, &pattern, &rules, &cfg);
        let mut stream = Stream::new(merge, vec![VarId(0)]);
        let einstein = store.resource("AlbertEinstein").unwrap();
        let ias = store.resource("IAS").unwrap();
        let item = |bound: &[(VarId, TermId)], score: f64| {
            let mut pairs = Pairs::new();
            for &(v, t) in bound {
                pairs.push(v, t);
            }
            let m = Merged {
                triple: TripleId(0),
                prob: score.exp(),
                alt: 0,
            };
            SeenItem::new(pairs, score, &m)
        };
        stream.push_seen(item(&[(VarId(0), einstein), (VarId(1), ias)], -0.1));
        stream.push_seen(item(&[(VarId(1), ias)], -0.2)); // dropped ?x
        stream.push_seen(item(&[(VarId(0), einstein), (VarId(1), einstein)], -0.3));
        let chain_of = |head: u32| {
            let mut out = Vec::new();
            let mut i = head;
            while i != NIL {
                out.push(i);
                i = stream.seen[i as usize].next;
            }
            out
        };
        let key = JoinKey::over(&stream.join_vars, |_| Some(einstein)).unwrap();
        assert_eq!(chain_of(stream.buckets[&key].head), vec![0, 2]);
        assert_eq!(chain_of(stream.partial.head), vec![1]);
        assert_eq!(stream.best_log, -0.1);
        assert_eq!(stream.contribution_bound(), -0.1);
        assert!(
            std::mem::size_of::<SeenItem>() <= 48,
            "one record, under a cache line"
        );

        // Probe keys resolve through any partial assignment.
        let mut scratch = Bindings::new(4);
        assert_eq!(
            JoinKey::over(&stream.join_vars, |v| scratch.get(v)),
            None,
            "unbound join var"
        );
        scratch.bind(VarId(0), einstein);
        assert_eq!(
            JoinKey::over(&stream.join_vars, |v| scratch.get(v)),
            Some(key)
        );
        assert_eq!(
            JoinKey::over(&[], |_| None),
            Some(JoinKey([0; 3])),
            "cross product key"
        );

        // A live stream offers no keys; once retired it offers exactly
        // the keys it has buckets for — unless it holds a residual item,
        // which partners with every key.
        assert!(stream.key_set().is_none(), "live stream");
        stream.capped = true;
        assert!(
            stream.key_set().is_none(),
            "residual item keeps every key alive"
        );
        stream.partial = Chain::EMPTY;
        let keys = stream.key_set().expect("retired, no residual item");
        assert_eq!(keys.vars, vec![VarId(0)]);
        let zero = TermId::from_raw(0);
        assert_eq!(keys.keys, vec![[einstein, zero, zero]]);
    }

    /// The granularity-shaped world the filter tests share: 120 people,
    /// three born in each of 40 places; places 0–2 lie in `C0` with
    /// strong, descending confidence, places 3–22 in `C0` with confidence
    /// 0.01, the rest in `C1`; all but the last five places are typed
    /// `city`. The nine people of the strong places head the flat
    /// `bornIn` list, so its first pulls already complete answers.
    fn granularity_world(extra: impl FnOnce(&mut XkgBuilder)) -> XkgStore {
        let mut b = XkgBuilder::new();
        let src = b.intern_source("d");
        let located = b.dict_mut().resource("locatedIn");
        let c0 = b.dict_mut().resource("C0");
        let c1 = b.dict_mut().resource("C1");
        for person in 0..120u32 {
            let place = if person < 9 {
                person % 3
            } else {
                3 + (person - 9) % 37
            };
            b.add_kg_resources(&format!("p{person}"), "bornIn", &format!("place{place}"));
        }
        for place in 0..40u32 {
            let z = b.dict_mut().resource(&format!("place{place}"));
            if place < 35 {
                b.add_kg_resources(&format!("place{place}"), "type", "city");
            }
            let (country, conf) = match place {
                0 => (c0, 0.9),
                1 => (c0, 0.8),
                2 => (c0, 0.7),
                3..=22 => (c0, 0.01),
                _ => (c1, 0.9),
            };
            b.add_extracted(z, located, country, conf, src);
        }
        extra(&mut b);
        b.build()
    }

    fn granularity_query(store: &XkgStore, country: &str, k: usize) -> Query {
        QueryBuilder::new(store)
            .pattern_v_r_v("x", "bornIn", "z")
            .pattern_v_r_r("z", "type", "city")
            .pattern_v_r_r("z", "locatedIn", country)
            .limit(k)
            .build()
    }

    /// What one white-box run of the original variant leaves behind.
    struct Driven {
        answers: Vec<Answer>,
        metrics: ExecMetrics,
        completeness: Completeness,
        /// `(exhausted, capped, kept items)` per stream.
        streams: Vec<(bool, bool, usize)>,
    }

    /// Runs the query's original variant through `rank_join`, assembled
    /// exactly as the driver assembles it, and reports the stream state.
    fn drive_variant(store: &XkgStore, query: &Query, rules: &RuleSet, cfg: &TopkConfig) -> Driven {
        let sources = Sources::new(StoreView::single(store), rules, cfg, &[]);
        let (mut streams, n_vars) = drive::variant_streams(&query.patterns, |pattern, fresh, _| {
            sources.merge(pattern, fresh, 0..1)
        });
        let tracker = BudgetTracker::new(cfg);
        let mut collector = AnswerCollector::tracking(query.k);
        let mut metrics = ExecMetrics::default();
        drive::rank_join(
            store,
            cfg,
            &mut streams,
            0.0,
            &[],
            &query.effective_projection(),
            query.k,
            n_vars,
            &mut collector,
            &mut metrics,
            &tracker,
            &mut trinit_obs::TraceRecorder::off(),
        );
        let answers = collector.into_top_k(query.k);
        Driven {
            completeness: tracker.completeness(&answers),
            answers,
            metrics,
            streams: streams
                .iter()
                .map(|s| (s.exhausted, s.capped, s.seen.len()))
                .collect(),
        }
    }

    /// `?a lhs ?b → ?a rhs ?f` (`drop_object`) or `?a lhs ?b → ?f rhs ?b`:
    /// a mergeable rule whose relaxed form replaces one variable of the
    /// pattern by a fresh one.
    fn dropping_rule(
        store: &XkgStore,
        lhs: &str,
        rhs: &str,
        drop_object: bool,
        weight: f64,
    ) -> Rule {
        let (a, b, f) = (
            TTerm::Var(RVar(0)),
            TTerm::Var(RVar(1)),
            TTerm::Var(RVar(2)),
        );
        let lhs_p = TTerm::Const(store.resource(lhs).unwrap());
        let rhs_p = TTerm::Const(store.resource(rhs).unwrap());
        let rhs = if drop_object {
            Template::new(a, rhs_p, f)
        } else {
            Template::new(f, rhs_p, b)
        };
        Rule::structural(
            "drops a join variable",
            vec![Template::new(a, lhs_p, b)],
            vec![rhs],
            weight,
            RuleProvenance::UserDefined,
        )
    }

    #[test]
    fn filter_fires_behind_a_capped_selective_stream() {
        // (a) k = 5: the five best answers pair places 0 and 1, so once
        // they are collected the selective stream's weak tail is capped
        // (not exhausted) while the flat `bornIn` stream — still able to
        // tie the k-th answer through place 0 — drains on. Every arrival
        // born outside the three kept places is dead on arrival.
        let store = granularity_world(|_| {});
        let query = granularity_query(&store, "C0", 5);
        let rules = RuleSet::new();
        let cfg = TopkConfig::default();
        let run = drive_variant(&store, &query, &rules, &cfg);
        assert_same_answers(&run.answers, &reference(&store, &query, &rules, &cfg));
        assert_eq!(run.completeness, Completeness::Exact);
        let (exhausted, capped, kept) = run.streams[2];
        assert!(
            capped && !exhausted,
            "selective stream must be capped: {:?}",
            run.streams
        );
        assert_eq!(kept, 3, "only the strong places were pulled");
        assert!(
            run.metrics.join_candidates < run.metrics.pulls,
            "dead arrivals must not be joined: {:?}",
            run.metrics
        );
        assert!(
            run.streams[0].2 <= 9,
            "arrivals outside the kept places must not be stored: {:?}",
            run.streams
        );
    }

    #[test]
    fn residual_item_in_a_retired_stream_disarms_the_filter() {
        // (b) The selective pattern `?z locatedIn C1` (17 strong places)
        // relaxes to `?f near C1`, which drops the join variable ?z: its
        // one match sits on the residual chain and partners with *every*
        // place. The stream drains first and exhausts, and from then on
        // cities outside C1 find no bucket in it — but the filter must
        // not fire: everyone born in a city is an answer.
        let store = granularity_world(|b| {
            b.add_kg_resources("Somewhere", "near", "C1");
        });
        let query = granularity_query(&store, "C1", 1000);
        let mut rules = RuleSet::new();
        rules.add(dropping_rule(&store, "locatedIn", "near", false, 0.5));
        let cfg = TopkConfig {
            min_weight: 0.0,
            ..TopkConfig::default()
        };
        let run = drive_variant(&store, &query, &rules, &cfg);
        assert!(
            run.streams[2].0,
            "selective stream exhausts: {:?}",
            run.streams
        );
        assert_eq!(
            run.streams[1].2, 35,
            "every city is kept: {:?}",
            run.streams
        );
        assert_eq!(run.answers.len(), 105, "3 people × 35 cities");
        assert_same_answers(&run.answers, &reference(&store, &query, &rules, &cfg));
    }

    #[test]
    fn arrival_that_dropped_the_join_variable_is_kept() {
        // (c) `bornIn` relaxes — weakly, so the arrival comes after the
        // selective stream `?z locatedIn C1` has drained and exhausted —
        // to `?x citizenOf ?f`, dropping ?z: such an arrival binds none
        // of the retired stream's join variables, so no key can prove it
        // partnerless. It must be kept and pair with every city of C1.
        let store = granularity_world(|b| {
            b.add_kg_resources("expat", "citizenOf", "Elsewhere");
        });
        let query = granularity_query(&store, "C1", 1000);
        let mut rules = RuleSet::new();
        rules.add(dropping_rule(&store, "bornIn", "citizenOf", true, 0.04));
        let cfg = TopkConfig {
            min_weight: 0.0,
            ..TopkConfig::default()
        };
        let run = drive_variant(&store, &query, &rules, &cfg);
        assert!(
            run.streams[2].0,
            "selective stream exhausts: {:?}",
            run.streams
        );
        let expat = store.resource("expat").unwrap();
        let through_expat = run
            .answers
            .iter()
            .filter(|a| a.bindings.get(VarId(0)) == Some(expat))
            .count();
        assert_eq!(through_expat, 12, "one answer per city of C1");
        assert_same_answers(&run.answers, &reference(&store, &query, &rules, &cfg));
    }

    #[test]
    fn epsilon_retired_stream_drops_stay_inside_the_guarantee() {
        // (d) k exceeds the answer count, so nothing is ever capped
        // exactly; with ε = 2e-5 the selective stream's weak tail (mass
        // 0.077 × the other streams' flat 1/120 and 1/35) retires right
        // after its three strong places. From then on cities and people
        // of other places are dropped on arrival: forfeited answers score
        // ≤ ε, kept ones carry exact scores, and the run reports Approx.
        let store = granularity_world(|_| {});
        let query = granularity_query(&store, "C0", 1000);
        let rules = RuleSet::new();
        let eps = 2e-5;
        let exact = drive_variant(&store, &query, &rules, &TopkConfig::default());
        assert_eq!(exact.answers.len(), 69, "3 people × 23 cities of C0");
        let run = drive_variant(
            &store,
            &query,
            &rules,
            &TopkConfig {
                epsilon: eps,
                ..TopkConfig::default()
            },
        );
        assert!(run.metrics.approx_cutoffs > 0, "{:?}", run.metrics);
        let (exhausted, capped, kept) = run.streams[2];
        assert!(capped && !exhausted && kept == 3, "{:?}", run.streams);
        assert_eq!(
            run.streams[1].2, 3,
            "cities outside the kept places are dropped"
        );
        assert!(
            matches!(run.completeness, Completeness::Approx { epsilon, .. } if epsilon == eps),
            "got {:?}",
            run.completeness
        );
        assert_eq!(run.answers.len(), 9, "3 people × 3 strong places");
        for (r, e) in exact.answers.iter().enumerate() {
            let pe = e.score.exp();
            let pa = run.answers.get(r).map_or(0.0, |a| a.score.exp());
            assert!(
                pa >= pe - eps - 1e-12,
                "rank {r}: {pa} not within ε of {pe}"
            );
        }
        for (a, e) in run.answers.iter().zip(&exact.answers) {
            assert_eq!(a.key, e.key);
            assert!(
                (a.score - e.score).abs() < 1e-12,
                "kept answers carry exact scores"
            );
        }
    }

    #[test]
    fn bind_pairs_dedupes_and_detects_conflicts() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        // Find the (AlbertEinstein, affiliation, IAS) triple.
        let einstein = store.resource("AlbertEinstein").unwrap();
        let triple = store
            .iter()
            .find(|(_, t)| t.p == aff && t.s == einstein)
            .map(|(id, _)| id)
            .unwrap();
        let v = QTerm::Var(VarId(0));
        let w = QTerm::Var(VarId(1));
        let pairs = bind_pairs(&QPattern::new(v, QTerm::Term(aff), w), &store, triple).unwrap();
        assert_eq!(pairs.as_slice().len(), 2);
        assert_eq!(pairs.as_slice()[0], (VarId(0), einstein));
        // Repeated variable over distinct slot values: conflict.
        assert!(bind_pairs(&QPattern::new(v, QTerm::Term(aff), v), &store, triple).is_none());
        // Ground pattern binds nothing.
        let t = store.triple(triple);
        let ground = QPattern::new(QTerm::Term(t.s), QTerm::Term(t.p), QTerm::Term(t.o));
        assert!(bind_pairs(&ground, &store, triple)
            .unwrap()
            .as_slice()
            .is_empty());
    }
}
