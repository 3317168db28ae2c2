//! Answers, bindings, derivations, and top-k collection.
//!
//! An answer is a binding of the query's projection variables, scored in
//! log space, and carrying a [`Derivation`]: which triples matched which
//! patterns and which relaxation rules were invoked. Derivations power
//! the demo's *answer explanation* (paper §5). The same projected binding
//! can arise from several derivations; the collector keeps the
//! highest-scoring one (paper §4).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use trinit_relax::{QPattern, RuleId, VarId};
use trinit_xkg::{TermId, TripleId};

/// A partial or complete assignment of query variables to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    slots: Vec<Option<TermId>>,
}

impl Bindings {
    /// An empty assignment sized for `n_vars` variables.
    pub fn new(n_vars: usize) -> Bindings {
        Bindings {
            slots: vec![None; n_vars],
        }
    }

    /// The value bound to `v`, if any.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<TermId> {
        self.slots.get(v.0 as usize).copied().flatten()
    }

    /// Binds `v` to `t`. Returns `false` (and leaves the binding
    /// unchanged) if `v` is already bound to a different term.
    pub fn bind(&mut self, v: VarId, t: TermId) -> bool {
        let idx = v.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        match self.slots[idx] {
            Some(existing) => existing == t,
            None => {
                self.slots[idx] = Some(t);
                true
            }
        }
    }

    /// Removes the binding of `v`, if any. Supports undo-based
    /// backtracking in the join engines, which bind candidate values
    /// into one shared scratch assignment instead of cloning it per
    /// candidate.
    #[inline]
    pub fn unbind(&mut self, v: VarId) {
        if let Some(slot) = self.slots.get_mut(v.0 as usize) {
            *slot = None;
        }
    }

    /// Binds `v` to `t` against the current assignment, recording a
    /// newly created binding in `undo` so the caller can backtrack with
    /// [`Bindings::unbind`]. Returns `false` on conflict without
    /// touching `undo` — the shared validate-then-bind discipline of
    /// both join engines.
    #[inline]
    pub fn try_bind_recorded(&mut self, v: VarId, t: TermId, undo: &mut Vec<VarId>) -> bool {
        match self.get(v) {
            Some(existing) => existing == t,
            None => {
                self.bind(v, t);
                undo.push(v);
                true
            }
        }
    }

    /// True if the two assignments agree on every commonly bound variable.
    pub fn compatible(&self, other: &Bindings) -> bool {
        self.slots
            .iter()
            .zip(&other.slots)
            .all(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// Merges `other` into a copy of `self`; `None` if incompatible.
    pub fn merged(&self, other: &Bindings) -> Option<Bindings> {
        if !self.compatible(other) {
            return None;
        }
        let len = self.slots.len().max(other.slots.len());
        let mut out = Bindings {
            slots: vec![None; len],
        };
        for (i, slot) in out.slots.iter_mut().enumerate() {
            *slot = self
                .slots
                .get(i)
                .copied()
                .flatten()
                .or_else(|| other.slots.get(i).copied().flatten());
        }
        Some(out)
    }

    /// Projects onto `vars`, producing the answer key.
    pub fn project(&self, vars: &[VarId]) -> Vec<(VarId, Option<TermId>)> {
        vars.iter().map(|&v| (v, self.get(v))).collect()
    }
}

/// How an answer was obtained: matched triples and invoked rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Derivation {
    /// `(pattern as evaluated, matching triple)` pairs, one per pattern.
    pub triples: Vec<(QPattern, TripleId)>,
    /// Relaxation rules invoked to reach the evaluated form.
    pub rules: Vec<RuleId>,
    /// Product of the invoked rules' weights (1.0 when unrelaxed).
    pub rule_weight: f64,
}

impl Derivation {
    /// A derivation with no relaxations yet.
    pub fn unrelaxed() -> Derivation {
        Derivation {
            triples: Vec::new(),
            rules: Vec::new(),
            rule_weight: 1.0,
        }
    }

    /// True if no relaxation rule was invoked.
    pub fn is_exact(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A scored answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The projected variable assignment (the deduplication key).
    pub key: Vec<(VarId, Option<TermId>)>,
    /// Full bindings including non-projected variables.
    pub bindings: Bindings,
    /// Log-space score (sum of pattern log-probabilities and rule
    /// log-weights).
    pub score: f64,
    /// The best derivation found for this answer.
    pub derivation: Derivation,
}

/// One collected answer plus its insertion sequence number — the stable
/// identity the tracked top-k list refers to (cheaper than cloning keys).
/// The answer's key is moved into the collector's map, leaving its own
/// empty until [`AnswerCollector::into_top_k`] puts it back.
#[derive(Debug)]
struct Slot {
    seq: u64,
    answer: Answer,
    /// For an answer offered deferred and not yet settled: its parts, as
    /// a `(start, len)` range of the collector's `parts`.
    deferred: Option<(usize, usize)>,
}

/// Collects answers, deduplicating by projected key and keeping the
/// maximum score per key (paper §4: "the score of an answer \[is\] the
/// maximal one obtained through any such sequence").
///
/// A collector built with [`AnswerCollector::tracking`] additionally
/// maintains the current top-`k` scores **persistently on insert** — a
/// sorted size-k array updated in O(log k) search + O(k) shift per
/// accepted offer — so [`AnswerCollector::kth_score`] is O(1) with zero
/// allocation per call. The rank join calls it on every pull; the
/// previous implementation allocated and `select_nth`-ed a vector of
/// *all* candidate scores each time.
///
/// An answer may also be offered *deferred*
/// ([`AnswerCollector::offer_deferred`]): key and score now, bindings and
/// derivation only if it can still rank when the offerer settles
/// ([`AnswerCollector::settle`]).
#[derive(Debug, Default)]
pub struct AnswerCollector {
    best: HashMap<Vec<(VarId, Option<TermId>)>, Slot>,
    /// The `k` this collector tracks persistently; 0 = untracked (the
    /// generic engines that never ask for a threshold).
    track_k: usize,
    /// `(score, seq)` of the current top `track_k` answers, descending
    /// by score. Invariant: every key outside this list has a score ≤
    /// the list's minimum (removals only happen when re-inserting a
    /// higher score for the same key or evicting the minimum, so the
    /// minimum never decreases).
    top: Vec<(f64, u64)>,
    next_seq: u64,
    /// The parts of the answers offered deferred since the last settle,
    /// back to back.
    parts: Vec<(u32, u32)>,
}

impl AnswerCollector {
    /// Creates an empty, untracked collector.
    pub fn new() -> AnswerCollector {
        AnswerCollector::default()
    }

    /// Creates a collector that persistently tracks the top-`k` scores,
    /// making [`AnswerCollector::kth_score`] for that `k` O(1) and
    /// allocation-free per call.
    pub fn tracking(k: usize) -> AnswerCollector {
        AnswerCollector {
            track_k: k,
            top: Vec::with_capacity(k.min(4096)),
            ..AnswerCollector::default()
        }
    }

    /// False only for a tracking collector whose top list is full with a
    /// minimum strictly above `score`: such an answer cannot rank, so the
    /// rank join builds nothing for it. Skipping it leaves
    /// [`AnswerCollector::into_top_k`] bit-identical — the k-th only
    /// rises, so an offer below the k-th of its time stays below the
    /// final one — and ties are admitted because `into_top_k` breaks them
    /// by key.
    #[inline]
    pub fn admits(&self, score: f64) -> bool {
        let full = self.track_k > 0 && self.top.len() >= self.track_k;
        !(full && self.top.last().is_some_and(|&(min, _)| min > score))
    }

    /// Offers an answer; kept only if it beats the current best for its
    /// key. Returns `true` if the collector changed.
    pub fn offer(&mut self, answer: Answer) -> bool {
        self.insert(answer, None)
    }

    /// Offers the answer with `key` and `score` whose bindings and
    /// derivation [`AnswerCollector::settle`] builds later from `parts`
    /// (opaque to the collector), if it can still rank then. Kept or
    /// rejected exactly as [`AnswerCollector::offer`] would keep or
    /// reject the built answer; returns `true` if the collector changed.
    pub fn offer_deferred(
        &mut self,
        key: Vec<(VarId, Option<TermId>)>,
        score: f64,
        parts: impl IntoIterator<Item = (u32, u32)>,
    ) -> bool {
        let start = self.parts.len();
        self.parts.extend(parts);
        let answer = Answer {
            key,
            bindings: Bindings::default(),
            score,
            derivation: Derivation::default(),
        };
        let range = (start, self.parts.len() - start);
        let kept = self.insert(answer, Some(range));
        if !kept {
            self.parts.truncate(start);
        }
        kept
    }

    /// Builds, with `build(parts)`, the bindings and derivation of every
    /// answer offered deferred since the last settle that can still rank:
    /// one scoring at or above the tracked k-th (ties included, since
    /// [`AnswerCollector::into_top_k`] breaks them by key), or any while
    /// fewer than k answers are held, or any in an untracked collector.
    /// The others keep their key and score, so the collector's counts,
    /// its k-th score and its dedup are what offering them built would
    /// leave — but none of them is ever returned: each scores strictly
    /// below a k-th score that only rises. The offerer must settle before
    /// anything `parts` names goes away, and before
    /// [`AnswerCollector::into_top_k`].
    pub fn settle(&mut self, mut build: impl FnMut(&[(u32, u32)]) -> (Bindings, Derivation)) {
        if self.parts.is_empty() {
            return;
        }
        let kth = self.kth_score(self.track_k);
        for slot in self.best.values_mut() {
            let Some((start, len)) = slot.deferred.take() else {
                continue;
            };
            if kth.is_some_and(|kth| slot.answer.score < kth) {
                continue;
            }
            let parts = self.parts.get(start..start + len).unwrap_or_default();
            (slot.answer.bindings, slot.answer.derivation) = build(parts);
        }
        self.parts.clear();
    }

    /// The dedup-by-key insert behind both offers.
    fn insert(&mut self, mut answer: Answer, deferred: Option<(usize, usize)>) -> bool {
        let score = answer.score;
        let seq = match self.best.entry(std::mem::take(&mut answer.key)) {
            Entry::Occupied(slot) if slot.get().answer.score >= score => return false,
            Entry::Occupied(mut slot) => {
                let slot = slot.get_mut();
                slot.answer = answer;
                slot.deferred = deferred;
                // The key's old score may sit in the tracked list; drop it
                // before re-offering the improved score.
                if let Some(i) = self.top.iter().position(|&(_, s)| s == slot.seq) {
                    self.top.remove(i);
                }
                slot.seq
            }
            Entry::Vacant(slot) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                slot.insert(Slot {
                    seq,
                    answer,
                    deferred,
                });
                seq
            }
        };
        if self.track_k > 0 {
            self.offer_top(score, seq);
        }
        true
    }

    /// Inserts a candidate into the tracked top list, evicting the
    /// minimum when over capacity. Scores only ever enter here after the
    /// key's stale entry (if any) was removed.
    fn offer_top(&mut self, score: f64, seq: u64) {
        if self.top.len() >= self.track_k {
            // A full list only admits scores above its minimum; equal
            // scores leave the k-th value unchanged either way.
            if self.top.last().is_some_and(|&(min, _)| score <= min) {
                return;
            }
        }
        let at = self.top.partition_point(|&(s, _)| s >= score);
        self.top.insert(at, (score, seq));
        self.top.truncate(self.track_k);
    }

    /// Number of distinct answers collected.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True if nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// The score of the `k`-th best answer (1-based), or `None` if fewer
    /// than `k` answers are held. O(1) and allocation-free when this
    /// collector was built with [`AnswerCollector::tracking`] for the
    /// same `k` (the rank join's per-pull path); other `k`s select over
    /// a scratch vector as before.
    pub fn kth_score(&self, k: usize) -> Option<f64> {
        if k == 0 || self.best.len() < k {
            return None;
        }
        if k == self.track_k {
            debug_assert_eq!(self.top.len(), k.min(self.best.len()));
            return self.top.last().map(|&(s, _)| s);
        }
        let mut scores: Vec<f64> = self.best.values().map(|s| s.answer.score).collect();
        let (_, kth, _) = scores.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        Some(*kth)
    }

    /// Finalizes into the top-`k` answers, sorted by descending score
    /// (ties broken by key for determinism). Keys are distinct, so the
    /// order is total: selecting the top `k` and sorting only those gives
    /// exactly the prefix a sort of every held answer would.
    pub fn into_top_k(self, k: usize) -> Vec<Answer> {
        debug_assert!(self.parts.is_empty(), "deferred answers left unsettled");
        let order =
            |a: &Answer, b: &Answer| b.score.total_cmp(&a.score).then_with(|| a.key.cmp(&b.key));
        let mut out: Vec<Answer> = (self.best.into_iter())
            .map(|(key, slot)| Answer { key, ..slot.answer })
            .collect();
        if k < out.len() {
            out.select_nth_unstable_by(k, order);
            out.truncate(k);
        }
        out.sort_unstable_by(order);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::TermKind;

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    #[test]
    fn bind_and_rebind() {
        let mut b = Bindings::new(2);
        assert!(b.bind(VarId(0), tid(1)));
        assert!(b.bind(VarId(0), tid(1)), "same value rebind ok");
        assert!(!b.bind(VarId(0), tid(2)), "conflicting rebind fails");
        assert_eq!(b.get(VarId(0)), Some(tid(1)));
        assert_eq!(b.get(VarId(1)), None);
    }

    #[test]
    fn bind_grows_automatically() {
        let mut b = Bindings::new(0);
        assert!(b.bind(VarId(5), tid(9)));
        assert_eq!(b.get(VarId(5)), Some(tid(9)));
    }

    #[test]
    fn compatibility_and_merge() {
        let mut a = Bindings::new(3);
        a.bind(VarId(0), tid(1));
        let mut b = Bindings::new(3);
        b.bind(VarId(1), tid(2));
        assert!(a.compatible(&b));
        let m = a.merged(&b).unwrap();
        assert_eq!(m.get(VarId(0)), Some(tid(1)));
        assert_eq!(m.get(VarId(1)), Some(tid(2)));

        let mut c = Bindings::new(3);
        c.bind(VarId(0), tid(7));
        assert!(!a.compatible(&c));
        assert!(a.merged(&c).is_none());
    }

    #[test]
    fn projection_includes_unbound() {
        let mut b = Bindings::new(2);
        b.bind(VarId(0), tid(1));
        let key = b.project(&[VarId(0), VarId(1)]);
        assert_eq!(key, vec![(VarId(0), Some(tid(1))), (VarId(1), None)]);
    }

    fn answer(key_term: u32, score: f64) -> Answer {
        Answer {
            key: vec![(VarId(0), Some(tid(key_term)))],
            bindings: Bindings::new(1),
            score,
            derivation: Derivation::unrelaxed(),
        }
    }

    #[test]
    fn collector_keeps_max_score_per_key() {
        let mut c = AnswerCollector::new();
        assert!(c.offer(answer(1, -2.0)));
        assert!(!c.offer(answer(1, -3.0)), "worse duplicate rejected");
        assert!(c.offer(answer(1, -1.0)), "better duplicate accepted");
        assert_eq!(c.len(), 1);
        let out = c.into_top_k(10);
        assert_eq!(out[0].score, -1.0);
    }

    #[test]
    fn top_k_sorted_and_truncated() {
        let mut c = AnswerCollector::new();
        for i in 0..5 {
            c.offer(answer(i, -(f64::from(i))));
        }
        assert_eq!(c.kth_score(3), Some(-2.0));
        assert_eq!(c.kth_score(9), None);
        assert_eq!(c.kth_score(0), None);
        let out = c.into_top_k(3);
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn tracked_kth_score_matches_selection_under_updates() {
        // A deterministic pseudo-random stream of offers, including
        // score *upgrades* for existing keys (the case where a stale
        // entry may sit inside the tracked top list). After every offer,
        // the tracked O(1) kth must equal a from-scratch selection.
        for k in [1usize, 2, 3, 5, 8] {
            let mut tracked = AnswerCollector::tracking(k);
            let mut state: u64 = 0x9e3779b97f4a7c15;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..400 {
                let key = (rng() % 24) as u32;
                let score = -((rng() % 1000) as f64) / 100.0;
                tracked.offer(answer(key, score));
                // Reference: selection over all current scores.
                let reference = {
                    if tracked.len() < k {
                        None
                    } else {
                        let mut scores: Vec<f64> =
                            tracked.best.values().map(|s| s.answer.score).collect();
                        scores.sort_by(|a, b| b.total_cmp(a));
                        Some(scores[k - 1])
                    }
                };
                assert_eq!(tracked.kth_score(k), reference, "k = {k}");
                // Untracked k values still answer via selection.
                if k > 1 {
                    let mut plain_scores: Vec<f64> =
                        tracked.best.values().map(|s| s.answer.score).collect();
                    plain_scores.sort_by(|a, b| b.total_cmp(a));
                    let want = (tracked.len() >= k - 1).then(|| plain_scores[k - 2]);
                    assert_eq!(tracked.kth_score(k - 1), want);
                }
            }
        }
    }

    #[test]
    fn tracked_collector_finalizes_like_untracked() {
        let mut a = AnswerCollector::new();
        let mut b = AnswerCollector::tracking(3);
        for (key, score) in [(1u32, -2.0), (2, -1.0), (1, -0.5), (3, -3.0), (4, -0.7)] {
            a.offer(answer(key, score));
            b.offer(answer(key, score));
        }
        let xa = a.into_top_k(3);
        let xb = b.into_top_k(3);
        assert_eq!(xa.len(), xb.len());
        for (x, y) in xa.iter().zip(&xb) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.score, y.score);
        }
    }

    #[test]
    fn derivation_exactness() {
        assert!(Derivation::unrelaxed().is_exact());
        let d = Derivation {
            triples: Vec::new(),
            rules: vec![RuleId(0)],
            rule_weight: 0.8,
        };
        assert!(!d.is_exact());
    }
}
