//! Stage 3 of the top-k operator pipeline: **termination policy** —
//! the threshold, stream capping, and the remaining-mass envelope that
//! powers the ε-approximate mode.
//!
//! The driver ([`crate::exec::drive`]) consults a `ThresholdPolicy`
//! at two points: once per variant before any posting list is opened
//! (`ThresholdPolicy::admit_variant`) and once per pull round
//! (`ThresholdPolicy::after_round`). The policy owns every decision
//! about *stopping*; it never touches the join state beyond the
//! `capped` flags.
//!
//! ## The exact criterion
//!
//! The classic rank-join threshold `T = max_i (frontier_i + Σ_{j≠i}
//! best_j)` (log space) bounds every unseen combination; processing
//! stops once the k-th answer's score reaches it. The store feeds the
//! bound exact head probabilities for unopened alternatives — read from
//! the posting index's groups or the wide-pair directory, whichever
//! holds the shape, with the trivial 1.0 for the rest — and the policy
//! prunes variants and caps streams on it. Any sound bound gives the
//! same answers; a tighter one only saves pulls and list builds.
//!
//! ## Per-round cost
//!
//! A round reads no logarithm and, usually, recomputes nothing. Every
//! stream caches the `ln` of its frontier and refreshes it only inside
//! its own pull (`Stream::pull`) or after a restriction the driver
//! applied to it (`Stream::refresh`) — the merge's bound moves nowhere
//! else — so the threshold, the capping pass and the driver's stream
//! selection compare cached numbers; the one `ln` a pull pays for its
//! bound is the only one (the ε pass adds one per live stream for the
//! mass envelope, and only when ε > 0). The capping pass needs every
//! stream's "others" contribution sum; these are kept as prefix/suffix
//! sums over the per-stream contribution bounds and rebuilt — O(streams)
//! — only in a round where a contribution bound actually moved. A
//! stream's contribution bound is its frontier while it keeps nothing
//! and its first kept item's score from then on, so a round compares the
//! pulled stream's bound with its stored copy — and a restriction, which
//! moves a stream outside its pull, re-folds that stream's
//! (`ThresholdPolicy::refold`). In the steady state of a long drain
//! (every stream holds an item) that comparison is all the bookkeeping a
//! round does. For up to three streams the floating-point result is
//! identical to the direct exclusion sum; at higher arity the summation
//! associates differently, an ULP-level difference between two equally
//! sound bounds on the same exact quantity.
//!
//! ## The ε-approximate criterion (mass envelope, load-bearing)
//!
//! With [`TopkConfig::epsilon`] ε > 0, the merge stage's O(1)
//! remaining-mass envelope ([`IncrementalMerge::remaining_mass`]) becomes the
//! termination criterion instead of a diagnostic. A stream `i` is
//! retired as soon as
//!
//! ```text
//! variant_w × mass_i × Π_{j≠i} best_j ≤ ε        (probability space)
//! ```
//!
//! where `mass_i` bounds every future emission of `i` (it dominates the
//! frontier — property-pinned in [`crate::exec::merge`]) and `best_j`
//! bounds every item, seen or unseen, of stream `j` (emissions are
//! descending, so the first bounds the rest; for unseeded streams the
//! frontier does). Any answer not found therefore needed an unseen item
//! of some retired stream and has probability ≤ ε. Returned answers
//! carry their exact scores, so for every rank `r`:
//!
//! > `prob(approx[r]) ≥ prob(exact[r]) − ε`
//!
//! (If `prob(exact[r]) > ε`, none of the exact top-(r+1) can have been
//! forfeited — each would have needed a retired stream's unseen item,
//! bounding it by ε — so `approx[r] ≥ exact[r]`; otherwise the claim is
//! trivial.) The same argument skips whole variants whose best possible
//! answer is ≤ ε before opening a single posting list. With ε = 0 the
//! criterion is `≤ ln(0) = -∞`, which never fires: the ε = 0 run is
//! bit-identical — answers *and* pull counts — to the exact engine
//! (property-pinned monolithic and at 1/2/4/7 shards).
//!
//! Unlike the per-item frontier (which the exact path caps on), the
//! mass envelope can retire a stream whose *aggregate* tail is
//! negligible even while its frontier still exceeds the k-th answer —
//! the pull reduction recorded in `BENCH_e9.json`. Retirements by this
//! criterion are counted in [`ExecMetrics::approx_cutoffs`]; exact
//! retirements stay in [`ExecMetrics::early_cutoffs`].
//!
//! ## The relative-θ criterion
//!
//! With [`TopkConfig::theta`] θ ∈ (0, 1), the round loop additionally
//! stops once `kth ≥ threshold + ln(1 − θ)` (log space): every unseen
//! combination is then bounded by `kth / (1 − θ)` in probability space,
//! so for every returned rank `r`, `prob(approx[r]) ≥ (1 − θ) ·
//! prob(exact[r])` — a *relative* guarantee that adapts to the score
//! scale where the absolute ε criterion needs calibration. θ = 0 makes
//! the criterion coincide with the exact `kth ≥ threshold` test and
//! changes nothing.
//!
//! ## Budget governance
//!
//! The policy also carries the query's [`BudgetTracker`]: each round it
//! consults [`BudgetTracker::directive`] — O(1), a single branch when
//! the budget is unlimited — to pick up ladder-escalated effective
//! ε / θ values and to observe hard cutoffs, which it converts into
//! `RoundVerdict::Cutoff` after recording a sound bound (the current
//! threshold) on everything the cutoff forfeits.
//!
//! [`TopkConfig::epsilon`]: crate::exec::drive::TopkConfig::epsilon
//! [`TopkConfig::theta`]: crate::exec::drive::TopkConfig::theta
//! [`IncrementalMerge::remaining_mass`]: crate::exec::merge::IncrementalMerge::remaining_mass
//! [`BudgetTracker`]: crate::exec::budget::BudgetTracker
//! [`BudgetTracker::directive`]: crate::exec::budget::BudgetTracker::directive

use crate::answer::AnswerCollector;
use crate::exec::budget::{BudgetTracker, CutoffReason, Directive};
use crate::exec::drive::TopkConfig;
use crate::exec::join::Stream;
use crate::exec::ExecMetrics;
use crate::score::{ln_weight, LOG_ZERO};

/// What the policy decided after a pull round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundVerdict {
    /// Keep pulling.
    Continue,
    /// The top-k is settled (within ε / θ, if set): stop this variant's
    /// join loop normally.
    Done,
    /// A stream with no kept items was retired — no combination of this
    /// variant can ever complete; abandon the variant immediately.
    DeadVariant,
    /// A hard budget cutoff fired: stop the whole pipeline, returning
    /// what was collected so far.
    Cutoff(CutoffReason),
}

/// What the policy decided about opening a variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Open the variant's posting lists and run the join.
    Admit,
    /// Skip this variant (pruned by the head bound or ε); continue with
    /// the next one.
    Skip,
    /// A hard budget cutoff fired: stop the whole pipeline.
    Stop(CutoffReason),
}

/// Per-variant termination policy: owns the threshold computation, the
/// capping decisions, the budget governance, and the round-scratch
/// buffers.
pub(crate) struct ThresholdPolicy<'a> {
    /// The query's budget tracker.
    tracker: &'a BudgetTracker,
    /// Effective ε (probability space) after any ladder escalation.
    eff_eps: f64,
    /// `ln ε` — the approximate mode's forfeit tolerance in log space.
    /// [`LOG_ZERO`] (ε = 0) disables the criterion: no comparison
    /// against it can ever succeed, keeping the exact path bit-identical.
    ln_eps: f64,
    /// Effective relative θ after any ladder escalation.
    eff_theta: f64,
    /// `ln(1 − θ)` — the relative criterion's slack in log space. `0.0`
    /// (θ = 0) makes the θ test coincide with the exact one.
    ln_keep: f64,
    k: usize,
    /// Per-stream contribution bounds as of the last round and their
    /// prefix/suffix running totals (lengths `n` and `n + 1`), loaded by
    /// [`ThresholdPolicy::admit_variant`] and rebuilt only when the
    /// pulled stream's bound moved.
    contrib: Vec<f64>,
    prefix: Vec<f64>,
    suffix: Vec<f64>,
}

impl<'a> ThresholdPolicy<'a> {
    /// A policy for one variant with `n` streams, governed by the
    /// query's budget `tracker`.
    pub(crate) fn new(
        cfg: &TopkConfig,
        k: usize,
        n: usize,
        tracker: &'a BudgetTracker,
    ) -> ThresholdPolicy<'a> {
        ThresholdPolicy {
            tracker,
            eff_eps: cfg.epsilon,
            ln_eps: ln_weight(cfg.epsilon),
            eff_theta: cfg.theta,
            ln_keep: ln_weight(1.0 - cfg.theta),
            k,
            contrib: vec![0.0; n],
            prefix: vec![0.0; n + 1],
            suffix: vec![0.0; n + 1],
        }
    }

    /// Applies a governed round directive: refreshes the cached
    /// effective ε / θ (recomputing the logs only on change) and counts
    /// ladder escalations. Returns the hard cutoff, if one fired, after
    /// counting it in the matching metric.
    fn apply_directive(
        &mut self,
        d: Directive,
        metrics: &mut ExecMetrics,
    ) -> Option<CutoffReason> {
        if d.escalations > 0 {
            metrics.degradation_steps += d.escalations;
        }
        if d.epsilon != self.eff_eps {
            self.eff_eps = d.epsilon;
            self.ln_eps = ln_weight(d.epsilon);
        }
        if d.theta != self.eff_theta {
            self.eff_theta = d.theta;
            self.ln_keep = ln_weight(1.0 - d.theta);
        }
        if let Some(reason) = d.cutoff {
            match reason {
                CutoffReason::Deadline => metrics.deadline_cutoffs += 1,
                CutoffReason::Pulls | CutoffReason::Answers => metrics.budget_cutoffs += 1,
            }
            return Some(reason);
        }
        None
    }

    /// Variant admission, checked before any posting list is opened.
    /// Every answer of the variant scores at most `variant_weight × Π_i
    /// (best emission of stream i)`, and each stream's initial frontier
    /// is exactly that head bound. Returns [`Admission::Skip`] (and
    /// counts the cutoff) if the k-th collected answer already matches
    /// it (head-bound variant pruning) or if even the
    /// best possible answer is within the ε tolerance (approximate
    /// mode); returns [`Admission::Stop`] when the budget tracker
    /// reports a hard cutoff, recording the head bound as the sound
    /// forfeit envelope.
    pub(crate) fn admit_variant(
        &mut self,
        streams: &[Stream<'_>],
        variant_log: f64,
        collector: &AnswerCollector,
        metrics: &mut ExecMetrics,
    ) -> Admission {
        for (c, stream) in self.contrib.iter_mut().zip(streams) {
            *c = stream.contribution_bound();
        }
        self.resum();
        let kth = collector.kth_score(self.k);
        if kth.is_none() && self.ln_eps <= LOG_ZERO && !self.tracker.is_governed() {
            return Admission::Admit;
        }
        // Nothing is kept yet, so every contribution bound is a frontier.
        let bound: f64 = variant_log + self.prefix[streams.len()];
        if self.tracker.is_governed() {
            let d = self.tracker.directive(collector.len());
            if let Some(reason) = self.apply_directive(d, metrics) {
                // Nothing of this variant was explored: the head bound
                // caps everything it could have contributed.
                self.tracker.note_truncated(bound);
                return Admission::Stop(reason);
            }
        }
        if let Some(kth) = kth {
            if kth >= bound {
                metrics.early_cutoffs += 1;
                return Admission::Skip;
            }
        }
        if self.ln_eps > LOG_ZERO && bound <= self.ln_eps {
            metrics.approx_cutoffs += 1;
            self.tracker.note_approx();
            return Admission::Skip;
        }
        Admission::Admit
    }

    /// Rebuilds the prefix/suffix running totals from `contrib`.
    fn resum(&mut self) {
        let n = self.contrib.len();
        for i in 0..n {
            self.prefix[i + 1] = self.prefix[i] + self.contrib[i];
        }
        self.suffix[n] = 0.0;
        for i in (0..n).rev() {
            self.suffix[i] = self.suffix[i + 1] + self.contrib[i];
        }
    }

    /// Folds in stream `i`'s contribution bound if it moved — after a
    /// pull, or after a restriction outside any pull.
    pub(crate) fn refold(&mut self, i: usize, contribution: f64) {
        if contribution != self.contrib[i] {
            self.contrib[i] = contribution;
            self.resum();
        }
    }

    /// `Σ_{j≠i} contribution_bound(j)` as of the last [`Self::resum`].
    #[inline]
    fn others(&self, i: usize) -> f64 {
        self.prefix[i] + self.suffix[i + 1]
    }

    /// The per-round termination pass, after stream `pulled` was pulled:
    /// folds in its contribution bound if it moved, evaluates the global
    /// threshold, and runs the exact and ε capping criteria.
    pub(crate) fn after_round(
        &mut self,
        streams: &mut [Stream<'_>],
        pulled: usize,
        variant_log: f64,
        collector: &AnswerCollector,
        metrics: &mut ExecMetrics,
    ) -> RoundVerdict {
        let n = streams.len();

        // Only the pulled stream can have moved its contribution bound
        // (retirement flags do not enter it).
        self.refold(pulled, streams[pulled].contribution_bound());
        // Threshold: best score any unseen combination can still achieve.
        // Retired streams produce no further items, so they drop out of
        // the outer max; their kept items still bound the inner product.
        let threshold = variant_log
            + (0..n)
                .filter(|&i| !streams[i].retired())
                .map(|i| streams[i].frontier_log() + self.others(i))
                .fold(LOG_ZERO, f64::max);

        if threshold == LOG_ZERO {
            return RoundVerdict::Done;
        }
        // Budget governance: pick up ladder escalations (effective ε/θ)
        // and hard cutoffs. A cutoff records the current threshold as
        // the forfeit envelope — every unseen combination of this
        // variant is bounded by it — before stopping the pipeline.
        // Exact termination is checked *after* the escalation refresh
        // but cutoffs are honored first, so a run is only labeled
        // truncated when the cutoff genuinely preempted termination.
        if self.tracker.is_governed() {
            let d = self.tracker.directive(collector.len());
            if let Some(reason) = self.apply_directive(d, metrics) {
                if collector
                    .kth_score(self.k)
                    .is_some_and(|kth| kth >= threshold)
                {
                    // The exact criterion held this very round: finish
                    // normally instead of reporting a truncation.
                    return RoundVerdict::Done;
                }
                self.tracker.note_truncated(threshold);
                return RoundVerdict::Cutoff(reason);
            }
        }
        if let Some(kth) = collector.kth_score(self.k) {
            if kth >= threshold {
                return RoundVerdict::Done;
            }
            // Relative-θ termination: unseen combinations are bounded
            // by threshold ≤ kth − ln(1−θ), i.e. kth/(1−θ) in
            // probability space, so every returned rank keeps
            // prob(approx[r]) ≥ (1−θ)·prob(exact[r]). θ = 0 coincides
            // with the exact test above and never fires separately.
            if self.eff_theta > 0.0 && kth >= threshold + self.ln_keep {
                metrics.approx_cutoffs += 1;
                self.tracker.note_approx();
                return RoundVerdict::Done;
            }
            if n > 1 {
                // Exact stream capping: retire stream i once its
                // frontier — with the head-bound refinement, a tight
                // bound on every unseen item of i (the merge's
                // O(1)-tracked remaining mass dominates it and serves as
                // the verified soundness envelope) — combined with the
                // other streams' contribution bounds cannot beat the
                // k-th answer. Later rounds then stop pulling i entirely
                // instead of draining its tail. (Single-stream variants
                // skip this: there the cap condition is exactly the
                // global break above.)
                for (i, stream) in streams.iter_mut().enumerate() {
                    if stream.retired() {
                        continue;
                    }
                    let stream_bound = stream.frontier_log();
                    if kth >= variant_log + stream_bound + self.others(i) {
                        stream.capped = true;
                        metrics.early_cutoffs += 1;
                        // A capped stream with nothing kept can never
                        // complete a combination: the variant is done.
                        if stream.barren() {
                            return RoundVerdict::DeadVariant;
                        }
                    }
                }
            }
        }
        // ε capping: the mass envelope as the load-bearing criterion.
        // Everything stream i can still contribute — every single future
        // emission, and once its lists are open their *sum* — combined
        // with the other streams' bounds is within the forfeit tolerance,
        // so the stream retires even while its frontier alone would keep
        // it alive. Needs no k-th answer: the bound is absolute.
        if self.ln_eps > LOG_ZERO {
            for (i, stream) in streams.iter_mut().enumerate() {
                if stream.retired() {
                    continue;
                }
                let mass_log = ln_weight(stream.merge.remaining_mass());
                if variant_log + mass_log + self.others(i) <= self.ln_eps {
                    stream.capped = true;
                    metrics.approx_cutoffs += 1;
                    self.tracker.note_approx();
                    if stream.barren() {
                        return RoundVerdict::DeadVariant;
                    }
                }
            }
        }
        RoundVerdict::Continue
    }
}
