//! Resource-governed execution: budgets and typed completeness for
//! partial results.
//!
//! The paper's interactive setting needs *bounded* response time, not
//! just fast-on-average processing. An [`ExecBudget`] (wall-clock
//! deadline, pull budget, answer-materialization budget) rides inside
//! [`TopkConfig`], one [`BudgetTracker`] per query observes consumption
//! across every `execute` call the query makes, and the
//! `ThresholdPolicy` asks it once per pull round whether a limit fired.
//!
//! Partial results are first-class and honest ([`Completeness`]): a
//! truncated run reports *why* it stopped and a `guaranteed_rank` — the
//! number of leading answers that provably coincide with the exact top-k
//! (every forfeited answer is bounded by the threshold recorded at the
//! cutoff, so any returned answer scoring strictly above that bound
//! cannot be displaced). A run the ε criterion cut reports
//! [`Completeness::Approx`].
//!
//! With the default (unlimited) budget and ε = 0, every check in this
//! module is a single branch on a precomputed flag: the exact path stays
//! bit-identical in answers *and* pull counts — property-pinned
//! monolithic and at 1/2/4/7 shards.
//!
//! A query runs on one thread, so the tracker is plain single-threaded
//! state.
//!
//! Panic isolation lives on the same robustness surface:
//! [`ExecError`] is the typed per-query failure the batch pool returns
//! when a query panics instead of aborting the whole batch.
//!
//! [`TopkConfig`]: crate::exec::drive::TopkConfig

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::answer::Answer;
use crate::exec::drive::TopkConfig;
use crate::score::LOG_ZERO;

/// Execution budget carried by
/// [`TopkConfig::budget`](crate::exec::drive::TopkConfig::budget).
///
/// All limits apply to one *query* as a whole: a delta query's
/// restricted passes draw down the same budget. The default is
/// unlimited.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// No limit fired: a variant of the query was forfeited unrun because
    /// its variables and fresh-variable ranges do not fit
    /// [`VarId`](trinit_relax::VarId). [`crate::parse`] refuses a query
    /// whose own space does not fit; a hand-built query, or a variant a
    /// structural rule grew, can still reach this.
    VariableSpace,
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
    /// The ε criterion retired work: every rank `r` satisfies
    /// `prob(answer[r]) ≥ prob(exact[r]) − ε`, and returned scores are
    /// exact.
    Approx {
        /// The configured ε.
        epsilon: f64,
    },
    /// A hard budget cutoff stopped the run before the threshold
    /// settled the top-k, or a variant was forfeited
    /// ([`CutoffReason::VariableSpace`]).
    Truncated {
        /// Which budget fired, or why a variant was forfeited.
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

/// Consumption state of one query's budget — one tracker per query,
/// lent to every `execute` call the query makes (one run, or one
/// restricted pass per pattern of a delta query).
///
/// The tracker also accumulates what the run's [`Completeness`] must
/// report: whether a hard cutoff truncated the run (and the tightest
/// sound bound on everything forfeited), and whether the ε criterion
/// actually fired.
#[derive(Debug)]
pub struct BudgetTracker {
    /// The clock anchor and the deadline, when one is set.
    deadline: Option<(Instant, Duration)>,
    max_pulls: Option<usize>,
    max_answers: Option<usize>,
    epsilon: f64,
    /// Any limit present — the fast path branches on this.
    governed: bool,
    /// Pulls across every pass (only counted when governed).
    pulls: Cell<usize>,
    /// The first cutoff recorded; every later pass reports it. The one
    /// truncation that records none is a variant forfeited for its
    /// variable space ([`CutoffReason::VariableSpace`]).
    cutoff: Cell<Option<CutoffReason>>,
    /// The run was actually truncated.
    truncated: Cell<bool>,
    /// An ε retirement fired.
    approx_fired: Cell<bool>,
    /// Max score bound (log space) recorded over every truncation:
    /// every forfeited answer scores at or below it.
    bound: Cell<f64>,
}

impl BudgetTracker {
    /// A tracker for one query under `cfg`'s budget and ε.
    pub fn new(cfg: &TopkConfig) -> BudgetTracker {
        let b = &cfg.budget;
        BudgetTracker {
            deadline: b.deadline.map(|d| {
                #[expect(clippy::disallowed_methods, reason = "budget deadline anchor: one read per query that sets a deadline, not per pull")]
                let started = Instant::now();
                (started, d)
            }),
            max_pulls: b.max_pulls,
            max_answers: b.max_answers,
            epsilon: cfg.epsilon,
            governed: !b.is_unlimited(),
            pulls: Cell::new(0),
            cutoff: Cell::new(None),
            truncated: Cell::new(false),
            approx_fired: Cell::new(false),
            bound: Cell::new(LOG_ZERO),
        }
    }

    /// One sorted-access pull was performed (any pass).
    #[inline]
    pub fn on_pull(&self) {
        if self.governed {
            self.pulls.set(self.pulls.get() + 1);
        }
    }

    #[inline]
    pub(crate) fn is_governed(&self) -> bool {
        self.governed
    }

    /// The per-round governed check: did a limit fire? Limits are
    /// checked in the order deadline, pulls, answers; the first cutoff
    /// recorded wins, so every pass of a query reports the same reason.
    /// O(1); with an unlimited budget it is a single branch.
    pub fn check(&self, answers_now: usize) -> Option<CutoffReason> {
        if !self.governed {
            return None;
        }
        let hit = if self.deadline.is_some_and(|(started, d)| started.elapsed() >= d) {
            CutoffReason::Deadline
        } else if self.max_pulls.is_some_and(|m| self.pulls.get() >= m.max(1)) {
            CutoffReason::Pulls
        } else if self.max_answers.is_some_and(|m| answers_now >= m.max(1)) {
            CutoffReason::Answers
        } else {
            return None;
        };
        let recorded = self.cutoff.get().unwrap_or(hit);
        self.cutoff.set(Some(recorded));
        Some(recorded)
    }

    /// Records an ε retirement: the result is at best
    /// [`Completeness::Approx`].
    pub(crate) fn note_approx(&self) {
        self.approx_fired.set(true);
    }

    /// Records a truncation with a sound log-space bound on everything
    /// the cutoff forfeited.
    pub(crate) fn note_truncated(&self, bound_log: f64) {
        self.truncated.set(true);
        self.bound.set(self.bound.get().max(bound_log));
    }

    /// The [`Completeness`] of a finished run with final `answers`
    /// (sorted best-first, log-space scores).
    pub fn completeness(&self, answers: &[Answer]) -> Completeness {
        if self.truncated.get() {
            let reason = self.cutoff.get().unwrap_or(CutoffReason::VariableSpace);
            let bound = self.bound.get();
            // Strictly above the recorded bound: a forfeited answer at
            // exactly the bound could tie into the cut, so ties are not
            // guaranteed.
            let guaranteed_rank = answers.iter().take_while(|a| a.score > bound).count();
            Completeness::Truncated {
                reason,
                guaranteed_rank,
            }
        } else if self.approx_fired.get() {
            Completeness::Approx {
                epsilon: self.epsilon,
            }
        } else {
            Completeness::Exact
        }
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
        assert_eq!(tracker.pulls.get(), 0, "ungoverned pulls are not counted");
        assert!(tracker.check(10_000).is_none());
        assert!(tracker.completeness(&[]).is_exact());
    }

    #[test]
    fn pull_budget_cutoff_records_reason_first_wins() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(3),
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        assert!(tracker.deadline.is_none(), "no deadline set, so no clock anchor read");
        for _ in 0..3 {
            tracker.on_pull();
        }
        assert_eq!(tracker.check(0), Some(CutoffReason::Pulls));
        // A later answers-limit overrun still reports the first reason.
        assert_eq!(tracker.check(usize::MAX / 2), Some(CutoffReason::Pulls));
    }

    #[test]
    fn completeness_reports_truncation_with_guaranteed_rank() {
        let cfg = cfg_with(ExecBudget {
            max_pulls: Some(1),
            ..ExecBudget::default()
        });
        let tracker = BudgetTracker::new(&cfg);
        tracker.on_pull();
        assert_eq!(tracker.check(0), Some(CutoffReason::Pulls));
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
