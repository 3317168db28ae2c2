//! Resource-governed execution: budgets, the degradation ladder, and
//! typed completeness for partial results.
//!
//! The paper's interactive setting needs *bounded* response time, not
//! just fast-on-average processing. This module is the admission-control
//! substrate for that serving tier: an [`ExecBudget`] (wall-clock
//! deadline, pull budget, answer-materialization budget) rides inside
//! [`TopkConfig`], one [`BudgetTracker`] per query observes consumption
//! across every `execute` call the query makes, and the
//! `ThresholdPolicy` checks it O(1) per pull round.
//!
//! Two mechanisms keep budgeted runs *useful* rather than merely
//! truncated:
//!
//! * **The degradation ladder** ([`ExecBudget::ladder`]): once a soft
//!   fraction of the budget is consumed, the effective ε (and relative
//!   θ) escalates through the configured rungs — the engine trades
//!   guarantee tightness for termination *before* hitting the wall,
//!   exactly the "graceful degradation under load" the ROADMAP's
//!   serving tier calls for. Escalations are counted in
//!   [`ExecMetrics::degradation_steps`].
//! * **Typed [`Completeness`]**: partial results are first-class and
//!   honest. A truncated run reports *why* it stopped and a
//!   `guaranteed_rank` — the number of leading answers that provably
//!   coincide with the exact top-k (every forfeited answer is bounded
//!   by the threshold recorded at the cutoff, so any returned answer
//!   scoring strictly above that bound cannot be displaced).
//!
//! With the default (unlimited) budget, an empty ladder, ε = 0, and
//! θ = 0, every check in this module is a single branch on a
//! precomputed flag: the exact path stays bit-identical in answers
//! *and* pull counts — property-pinned monolithic and at 1/2/4/7
//! shards.
//!
//! Panic isolation lives on the same robustness surface:
//! [`ExecError`] is the typed per-query failure the batch pool returns
//! when a query panics instead of aborting the whole batch.
//!
//! [`TopkConfig`]: crate::exec::drive::TopkConfig
//! [`ExecMetrics::degradation_steps`]: crate::exec::ExecMetrics::degradation_steps

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::answer::Answer;
use crate::exec::drive::TopkConfig;
use crate::score::LOG_ZERO;

/// One rung of the degradation ladder: the ε / θ pair execution
/// escalates to as budget consumption crosses the rung's share of the
/// soft region (see [`ExecBudget::ladder`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationRung {
    /// Absolute forfeit tolerance (probability space) — see
    /// [`TopkConfig::epsilon`](crate::exec::drive::TopkConfig::epsilon).
    pub epsilon: f64,
    /// Relative slack on the termination threshold — see
    /// [`TopkConfig::theta`](crate::exec::drive::TopkConfig::theta).
    pub theta: f64,
}

/// Execution budget carried by
/// [`TopkConfig::budget`](crate::exec::drive::TopkConfig::budget).
///
/// All limits apply to one *query* as a whole: a delta query's
/// restricted passes draw down the same budget. The default is
/// unlimited.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecBudget {
    /// Wall-clock deadline for the whole query, measured from engine
    /// entry. Checked per pull round (an `Instant::now()` only when
    /// set).
    pub deadline: Option<Duration>,
    /// Maximum sorted-access pulls ([`ExecMetrics::pulls`] currency)
    /// across every pass of the query.
    ///
    /// [`ExecMetrics::pulls`]: crate::exec::ExecMetrics::pulls
    pub max_pulls: Option<usize>,
    /// Maximum answers materialized into the collector before the run
    /// is cut off (an admission-control cap on result-set work). Only
    /// *admitted* answers count: a combination scoring strictly below
    /// the current k-th is never built
    /// ([`AnswerCollector::admits`](crate::answer::AnswerCollector::admits)).
    pub max_answers: Option<usize>,
    /// Fraction of the budget at which the degradation ladder starts
    /// escalating (`0.75` by default). The region between
    /// `soft_fraction` and `1.0` is divided evenly across the rungs.
    pub soft_fraction: f64,
    /// Degradation rungs, tightest first. Empty (the default) means no
    /// degradation: the run stays exact until a hard cutoff fires.
    pub ladder: Vec<DegradationRung>,
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget {
            deadline: None,
            max_pulls: None,
            max_answers: None,
            soft_fraction: 0.75,
            ladder: Vec::new(),
        }
    }
}

impl ExecBudget {
    /// An explicitly unlimited budget (the default).
    pub fn unlimited() -> ExecBudget {
        ExecBudget::default()
    }

    /// `true` when no limit is set — the governed checks reduce to one
    /// branch and the run is bit-identical to an ungoverned engine.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_pulls.is_none() && self.max_answers.is_none()
    }
}

/// Why a budgeted run was cut off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutoffReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The pull budget was exhausted.
    Pulls,
    /// The answer-materialization budget was exhausted.
    Answers,
}

/// What a result's ranking is guaranteed to be, relative to the exact
/// engine's. Grows on [`QueryOutcome`]-level results so partial answers
/// are first-class and honest.
///
/// [`QueryOutcome`]: ../../trinit_core/struct.QueryOutcome.html
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Completeness {
    /// The exact top-k: no approximate criterion fired and no cutoff
    /// truncated the run.
    Exact,
    /// An ε / θ criterion retired work: every rank `r` satisfies
    /// `prob(answer[r]) ≥ max(prob(exact[r]) − ε, (1−θ)·prob(exact[r]))`
    /// for the reported tolerances, and returned scores are exact.
    Approx {
        /// The effective ε at termination (base config or the highest
        /// ladder rung reached).
        epsilon: f64,
        /// The effective relative θ at termination.
        theta: f64,
    },
    /// A hard budget cutoff stopped the run before the threshold
    /// settled the top-k.
    Truncated {
        /// Which budget fired.
        reason: CutoffReason,
        /// The leading `guaranteed_rank` answers are provably the exact
        /// top answers (each scores strictly above every bound recorded
        /// at the cutoffs, so no forfeited answer can displace them);
        /// ranks beyond it are best-effort.
        guaranteed_rank: usize,
    },
}

impl Completeness {
    /// `true` for [`Completeness::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Completeness::Exact)
    }
}

/// Typed per-query execution failure. The batch pool isolates a
/// panicking query to its own slot and returns this instead of
/// aborting the whole batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A worker thread panicked while executing this query's work.
    WorkerPanicked {
        /// Which unit of work panicked (e.g. `"batch query 2"`).
        context: String,
        /// The panic payload, stringified.
        payload: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::WorkerPanicked { context, payload } => {
                write!(f, "worker panicked in {context}: {payload}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Stringifies a panic payload (the `Box<dyn Any>` from
/// [`std::panic::catch_unwind`]) for [`ExecError::WorkerPanicked`].
pub fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What the governor tells the policy this round: the effective ε / θ
/// after any ladder escalation, a hard cutoff if one fired, and how
/// many rungs were climbed by *this* call (so exactly one observer
/// counts each escalation).
#[derive(Debug, Clone, Copy)]
pub struct Directive {
    /// Effective forfeit tolerance this round.
    pub epsilon: f64,
    /// Effective relative threshold slack this round.
    pub theta: f64,
    /// A hard budget cutoff, if one fired.
    pub cutoff: Option<CutoffReason>,
    /// Ladder rungs climbed by this call (0 when an earlier pass already
    /// escalated past the target rung).
    pub escalations: usize,
}

/// Shared consumption state of one query's budget — one tracker per
/// query, lent to every `execute` call the query makes (one run, or
/// one restricted pass per pattern of a delta query).
///
/// The tracker also accumulates what the run's [`Completeness`] must
/// report: whether a hard cutoff truncated the run (and the tightest
/// sound bound on everything forfeited), and whether an approximate
/// criterion actually fired.
#[derive(Debug)]
pub struct BudgetTracker {
    started: Instant,
    deadline: Option<Duration>,
    max_pulls: Option<usize>,
    max_answers: Option<usize>,
    soft_fraction: f64,
    ladder: Vec<DegradationRung>,
    base_epsilon: f64,
    base_theta: f64,
    /// Any limit or ladder present — the fast path branches on this.
    governed: bool,
    /// Pulls across every pass (only counted when governed).
    pulls: AtomicUsize,
    /// Highest ladder rung reached (0 = base configuration).
    rung: AtomicUsize,
    /// First cutoff reason recorded (0 = none; 1/2/3 = Deadline /
    /// Pulls / Answers). First-wins CAS keeps all passes agreeing.
    cutoff: AtomicUsize,
    /// The run was actually truncated.
    truncated: AtomicBool,
    /// An ε / θ retirement fired.
    approx_fired: AtomicBool,
    /// Max score bound (log space, f64 bits) recorded over every
    /// truncation: every forfeited answer scores at or below it.
    bound_bits: AtomicU64,
}

impl BudgetTracker {
    /// A tracker for one query under `cfg`'s budget, ε, and θ.
    pub fn new(cfg: &TopkConfig) -> BudgetTracker {
        let b = &cfg.budget;
        #[expect(clippy::disallowed_methods, reason = "budget deadline anchor: one read per governed query at admission, not per pull")]
        let started = Instant::now();
        BudgetTracker {
            started,
            deadline: b.deadline,
            max_pulls: b.max_pulls,
            max_answers: b.max_answers,
            soft_fraction: b.soft_fraction.clamp(0.0, 1.0),
            ladder: b.ladder.clone(),
            base_epsilon: cfg.epsilon,
            base_theta: cfg.theta,
            governed: !b.is_unlimited(),
            pulls: AtomicUsize::new(0),
            rung: AtomicUsize::new(0),
            cutoff: AtomicUsize::new(0),
            truncated: AtomicBool::new(false),
            approx_fired: AtomicBool::new(false),
            bound_bits: AtomicU64::new(LOG_ZERO.to_bits()),
        }
    }

    /// One sorted-access pull was performed (any pass).
    #[inline]
    pub fn on_pull(&self) {
        if self.governed {
            self.pulls.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn is_governed(&self) -> bool {
        self.governed
    }

    /// The effective ε / θ at the current ladder rung.
    fn effective(&self) -> (f64, f64) {
        match self.rung.load(Ordering::Relaxed) {
            0 => (self.base_epsilon, self.base_theta),
            r => {
                let rung = &self.ladder[(r - 1).min(self.ladder.len() - 1)];
                (
                    self.base_epsilon.max(rung.epsilon),
                    self.base_theta.max(rung.theta),
                )
            }
        }
    }

    /// The per-round governed check: evaluates consumption against
    /// every set limit, records (first-wins) a hard cutoff at 100%,
    /// and escalates the ladder within the soft region. O(1); with an
    /// unlimited budget and no ladder it is a single branch.
    pub fn directive(&self, answers_now: usize) -> Directive {
        if !self.governed {
            return Directive {
                epsilon: self.base_epsilon,
                theta: self.base_theta,
                cutoff: None,
                escalations: 0,
            };
        }
        let mut frac = 0.0f64;
        let mut hit: Option<CutoffReason> = None;
        if let Some(d) = self.deadline {
            let f = self.started.elapsed().as_secs_f64() / d.as_secs_f64().max(f64::MIN_POSITIVE);
            if f >= frac {
                frac = f;
                if f >= 1.0 {
                    hit = Some(CutoffReason::Deadline);
                }
            }
        }
        if let Some(mp) = self.max_pulls {
            let f = self.pulls.load(Ordering::Relaxed) as f64 / (mp.max(1)) as f64;
            if f >= frac {
                frac = f;
                if f >= 1.0 && hit.is_none() {
                    hit = Some(CutoffReason::Pulls);
                }
            }
        }
        if let Some(ma) = self.max_answers {
            let f = answers_now as f64 / (ma.max(1)) as f64;
            if f >= frac {
                frac = f;
                if f >= 1.0 && hit.is_none() {
                    hit = Some(CutoffReason::Answers);
                }
            }
        }
        if let Some(reason) = hit {
            // First cutoff wins; later passes re-read the recorded one
            // so every pass reports the same reason.
            let code = cutoff_code(reason);
            let recorded = match self.cutoff.compare_exchange(
                0,
                code,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => reason,
                Err(prev) => cutoff_reason(prev),
            };
            let (epsilon, theta) = self.effective();
            return Directive {
                epsilon,
                theta,
                cutoff: Some(recorded),
                escalations: 0,
            };
        }
        let mut escalations = 0;
        if !self.ladder.is_empty() && self.soft_fraction < 1.0 && frac >= self.soft_fraction {
            let span = (1.0 - self.soft_fraction) / self.ladder.len() as f64;
            // How many spans deep into the soft region consumption sits.
            // The raw cast used to run straight over the float edges: a
            // `span` that underflows to 0 (or a poisoned `frac`) makes
            // `depth` non-finite, the cast saturates to `usize::MAX`,
            // and the `1 +` overflows. Clamp explicitly: any degenerate
            // depth past the region means the top rung.
            let depth = (frac - self.soft_fraction) / span;
            let target = if depth.is_finite() && depth >= 0.0 {
                (depth as usize).saturating_add(1).min(self.ladder.len())
            } else {
                self.ladder.len()
            };
            let prev = self.rung.fetch_max(target, Ordering::Relaxed);
            escalations = target.saturating_sub(prev);
        }
        let (epsilon, theta) = self.effective();
        Directive {
            epsilon,
            theta,
            cutoff: None,
            escalations,
        }
    }

    /// Records an ε / θ retirement: the result is at best
    /// [`Completeness::Approx`].
    pub(crate) fn note_approx(&self) {
        self.approx_fired.store(true, Ordering::Relaxed);
    }

    /// Records a truncation with a sound log-space bound on everything
    /// the cutoff forfeited.
    pub(crate) fn note_truncated(&self, bound_log: f64) {
        self.truncated.store(true, Ordering::Relaxed);
        let mut cur = self.bound_bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) < bound_log {
            match self.bound_bits.compare_exchange_weak(
                cur,
                bound_log.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    /// The [`Completeness`] of a finished run with final `answers`
    /// (sorted best-first, log-space scores).
    pub fn completeness(&self, answers: &[Answer]) -> Completeness {
        if self.truncated.load(Ordering::Relaxed) {
            let reason = cutoff_reason(self.cutoff.load(Ordering::Relaxed));
            let bound = f64::from_bits(self.bound_bits.load(Ordering::Relaxed));
            // Strictly above the recorded bound: a forfeited answer at
            // exactly the bound could tie into the cut, so ties are not
            // guaranteed.
            let guaranteed_rank = answers.iter().take_while(|a| a.score > bound).count();
            Completeness::Truncated {
                reason,
                guaranteed_rank,
            }
        } else if self.approx_fired.load(Ordering::Relaxed) {
            let (epsilon, theta) = self.effective();
            Completeness::Approx { epsilon, theta }
        } else {
            Completeness::Exact
        }
    }
}

fn cutoff_code(reason: CutoffReason) -> usize {
    match reason {
        CutoffReason::Deadline => 1,
        CutoffReason::Pulls => 2,
        CutoffReason::Answers => 3,
    }
}

fn cutoff_reason(code: usize) -> CutoffReason {
    match code {
        1 => CutoffReason::Deadline,
        3 => CutoffReason::Answers,
        _ => CutoffReason::Pulls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with(budget: ExecBudget) -> TopkConfig {
        TopkConfig {
            budget,
            ..TopkConfig::default()
        }
    }

    #[test]
    fn unlimited_budget_is_a_single_branch_and_stays_exact() {
        let cfg = TopkConfig::default();
        let tracker = BudgetTracker::new(&cfg);
        assert!(!tracker.is_governed());
        tracker.on_pull();
        assert_eq!(tracker.pulls.load(Ordering::Relaxed), 0, "ungoverned pulls are not counted");
        let d = tracker.directive(10_000);
        assert!(d.cutoff.is_none());
        assert_eq!(d.escalations, 0);
        assert!(tracker.completeness(&[]).is_exact());
    }

    #[test]
    fn pull_budget_cutoff_records_reason_first_wins() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(3),
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        for _ in 0..3 {
            tracker.on_pull();
        }
        let d = tracker.directive(0);
        assert_eq!(d.cutoff, Some(CutoffReason::Pulls));
        // A later answers-limit overrun still reports the first reason.
        let d2 = tracker.directive(usize::MAX / 2);
        assert_eq!(d2.cutoff, Some(CutoffReason::Pulls));
    }

    #[test]
    fn ladder_escalates_within_soft_region_and_counts_once() {
        let cfg = TopkConfig {
            epsilon: 0.0,
            budget: ExecBudget {
                max_pulls: Some(100),
                soft_fraction: 0.5,
                ladder: vec![
                    DegradationRung { epsilon: 0.01, theta: 0.0 },
                    DegradationRung { epsilon: 0.05, theta: 0.1 },
                ],
                ..ExecBudget::default()
            },
            ..TopkConfig::default()
        };
        let tracker = BudgetTracker::new(&cfg);
        for _ in 0..55 {
            tracker.on_pull();
        }
        let d = tracker.directive(0);
        assert_eq!(d.escalations, 1, "55% into a 50% soft region is rung 1");
        assert!((d.epsilon - 0.01).abs() < 1e-12);
        // Re-checking at the same consumption climbs nothing further.
        assert_eq!(tracker.directive(0).escalations, 0);
        for _ in 0..40 {
            tracker.on_pull();
        }
        let d = tracker.directive(0);
        assert_eq!(d.escalations, 1, "95% is rung 2");
        assert!((d.epsilon - 0.05).abs() < 1e-12);
        assert!((d.theta - 0.1).abs() < 1e-12);
    }

    #[test]
    fn soft_fraction_one_never_escalates_but_hard_limits_still_fire() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(10),
            soft_fraction: 1.0,
            ladder: vec![DegradationRung {
                epsilon: 0.5,
                theta: 0.5,
            }],
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        for _ in 0..9 {
            tracker.on_pull();
        }
        // 90% consumed: the whole soft region is degenerate (zero wide),
        // so no rung may engage — and nothing may overflow computing it.
        let d = tracker.directive(0);
        assert_eq!(d.escalations, 0);
        assert_eq!(d.epsilon, 0.0);
        assert!(d.cutoff.is_none());
        tracker.on_pull();
        assert_eq!(tracker.directive(0).cutoff, Some(CutoffReason::Pulls));
    }

    #[test]
    fn single_rung_ladder_clamps_target_to_one() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(100),
            soft_fraction: 0.5,
            ladder: vec![DegradationRung {
                epsilon: 0.07,
                theta: 0.0,
            }],
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        for _ in 0..99 {
            tracker.on_pull();
        }
        // 99% consumed is deep past the single rung's span; the target
        // must clamp to rung 1, not truncate past the ladder.
        let d = tracker.directive(0);
        assert_eq!(d.escalations, 1);
        assert!((d.epsilon - 0.07).abs() < 1e-12);
        assert_eq!(tracker.rung.load(Ordering::Relaxed), 1);
        // Re-reads stay on the clamped rung.
        assert_eq!(tracker.directive(0).escalations, 0);
        assert!((tracker.directive(0).epsilon - 0.07).abs() < 1e-12);
    }

    #[test]
    fn completeness_reports_truncation_with_guaranteed_rank() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(1),
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        tracker.on_pull();
        let d = tracker.directive(0);
        assert_eq!(d.cutoff, Some(CutoffReason::Pulls));
        tracker.note_truncated(-1.0);
        let answers: Vec<Answer> = [-0.2f64, -0.5, -1.0, -2.0]
            .iter()
            .map(|&s| Answer {
                key: Vec::new(),
                bindings: crate::answer::Bindings::new(0),
                score: s,
                derivation: crate::answer::Derivation::default(),
            })
            .collect();
        match tracker.completeness(&answers) {
            Completeness::Truncated {
                reason,
                guaranteed_rank,
            } => {
                assert_eq!(reason, CutoffReason::Pulls);
                // Scores strictly above the recorded bound -1.0: two.
                assert_eq!(guaranteed_rank, 2);
            }
            other => panic!("expected truncated, got {other:?}"),
        }
    }

    #[test]
    fn describe_panic_covers_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(describe_panic(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(describe_panic(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42usize);
        assert_eq!(describe_panic(s.as_ref()), "non-string panic payload");
    }

    #[test]
    fn exec_error_displays_context_and_payload() {
        let e = ExecError::WorkerPanicked {
            context: "batch query 2".into(),
            payload: "boom".into(),
        };
        assert_eq!(
            e.to_string(),
            "worker panicked in batch query 2: boom"
        );
    }
}
