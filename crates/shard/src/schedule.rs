//! Work-stealing batch scheduler: per-shard **seed tasks** as the unit
//! of stolen work.
//!
//! The fixed [`QueryPool`](crate::exec::QueryPool) assigns one whole
//! query per worker and, to keep the parallelism budget spent across
//! queries, skips the per-shard seed phase entirely — so a batch gets
//! throughput, but each query inside it runs at single-worker latency
//! and its merge phase starts with an empty collector. This scheduler
//! closes that gap by making the unit of scheduling one *(query,
//! shard)* seed task instead of one query:
//!
//! * every query in the batch contributes `shard_count` seed tasks to a
//!   shared injector (an atomic cursor over the task space — lock-free
//!   claiming, no idle waiting);
//! * workers drain the injector: a query is nominally *owned* by the
//!   worker that claims its first task, and every one of its seed tasks
//!   executed by a different worker is a **steal** — idle workers
//!   naturally lift the remaining seed work of in-flight queries
//!   instead of parking ([`ExecMetrics::seed_steals`] counts them per
//!   query);
//! * the worker that completes a query's *last* seed task immediately
//!   drives its cross-shard merge phase
//!   ([`ShardedExecutor::merge`](crate::ShardedExecutor)),
//!   with the collector pre-loaded from every shard's seed answers — so
//!   the merge starts with a tight k-th score, exactly like the
//!   latency-oriented [`SeedMode::Parallel`](crate::SeedMode) path, and
//!   no barrier ever holds a finished query hostage to a straggler
//!   elsewhere in the batch.
//!
//! Answers are identical to every other execution mode (the merge phase
//! alone is complete and exact; seeding only changes where the work is
//! spent — a property the equivalence tests pin). Results land in input
//! order. Determinism: seed answers are collected *per shard slot* and
//! offered in shard order, so the merge phase sees the same seed
//! sequence no matter which worker ran which task.
//!
//! Robustness: every seed task and merge phase runs under
//! `catch_unwind`, so a panicking worker converts into a typed
//! [`ExecError`] for its own query and the rest of the batch finishes
//! untouched; subject-bound queries prune their seed fan-out to the
//! subject's home shard (adaptive seeding, counted in
//! [`ExecMetrics::seed_skips`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use trinit_obs::{MetricsRegistry, TraceRecorder};
use trinit_query::exec::topk::{ExecCtx, ExecOutcome, TopkConfig};
use trinit_query::{
    describe_panic, Answer, BudgetTracker, ExecError, ExecMetrics, Governor, QTerm, Query,
};
use trinit_relax::RuleSet;

use crate::exec::{Seeds, ShardedExecutor};

/// Sentinel: no worker has claimed this query yet.
const NO_OWNER: usize = usize::MAX;

/// Locks a scheduler slot, recovering from mutex poisoning. The slots
/// only ever hold whole-value `Option` writes, so a panicking holder
/// cannot leave them logically torn — and panic isolation (the
/// `catch_unwind` around every seed task and merge phase), not the
/// poison flag, is the correctness boundary here. Recovering keeps
/// bystander queries alive instead of cascading one panic through the
/// whole batch.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's completed seed task: the answers it found (global ids,
/// globally normalized scores), the work it cost, and the worker-local
/// trace recorder (merged into the query's trace in shard order by the
/// worker that drives the merge phase).
type SeedResult = (Vec<Answer>, ExecMetrics, TraceRecorder);

/// Shared per-query scheduling state.
struct QueryState {
    /// Seed tasks still outstanding; the worker that takes this to zero
    /// drives the merge phase.
    remaining: AtomicUsize,
    /// The worker that claimed this query's first seed task.
    owner: AtomicUsize,
    /// Seed tasks executed by non-owner workers.
    steals: AtomicUsize,
    /// Per-shard seed results, slotted by shard index so the merge sees
    /// a deterministic seed order regardless of completion order.
    /// Adaptively skipped shards leave their slot empty.
    seeds: Mutex<Vec<Option<SeedResult>>>,
    /// The finished run — or the typed error of the first panic caught
    /// on this query's work — written under panic isolation.
    outcome: Mutex<Option<Result<ExecOutcome, ExecError>>>,
}

impl QueryState {
    /// Records a caught panic as this query's outcome (first panic
    /// wins) without disturbing the rest of the batch.
    fn poison(&self, context: String, payload: &(dyn std::any::Any + Send)) {
        let mut outcome = lock_recover(&self.outcome);
        if outcome.is_none() {
            *outcome = Some(Err(ExecError::WorkerPanicked {
                context,
                payload: describe_panic(payload),
            }));
        }
    }
}

impl<'a> ShardedExecutor<'a> {
    /// The single home shard of a subject-bound query, if it has one:
    /// every pattern's subject is a ground term and all of them hash to
    /// the same shard. Subject-hash partitioning places those patterns'
    /// direct matches on that shard alone, so seeding elsewhere is
    /// wasted work *for the warm start* — relaxation may still surface
    /// cross-shard matches (an inversion rule swaps subject and
    /// object), which is safe precisely because seeding is advisory:
    /// the merge phase alone is complete and exact.
    fn single_shard_of(&self, query: &Query) -> Option<usize> {
        let n = self.store.shard_count();
        if n <= 1 {
            return None;
        }
        let mut home: Option<usize> = None;
        for pattern in &query.patterns {
            let QTerm::Term(s) = pattern.s else {
                return None;
            };
            let shard = s.shard_of(n);
            match home {
                None => home = Some(shard),
                Some(h) if h == shard => {}
                Some(_) => return None,
            }
        }
        home
    }

    /// Executes a batch of independent queries across `workers` threads
    /// with per-shard seed-task stealing, returning one result per
    /// query in input order.
    ///
    /// **Panic isolation.** Every seed task and merge phase runs under
    /// [`catch_unwind`]: a panicking worker poisons only the query it
    /// was serving — that query's slot becomes
    /// [`ExecError::WorkerPanicked`] and every other query completes
    /// normally.
    ///
    /// **Adaptive seeding.** Subject-bound queries (every pattern's
    /// subject ground, all on one home shard) contribute a single seed
    /// task instead of one per shard; the pruned tasks are counted in
    /// `metrics.seed_skips`.
    ///
    /// Each run's `metrics.seed_steals` reports how many of the query's
    /// seed tasks were lifted by workers other than its owner; the rest
    /// of the counters aggregate the seed and merge phases exactly like
    /// [`ShardedExecutor::run`] with seeding.
    pub fn run_batch_stealing(
        &self,
        queries: &[Query],
        rules: &RuleSet,
        cfg: &TopkConfig,
        workers: usize,
    ) -> Vec<Result<ExecOutcome, ExecError>> {
        self.run_batch_stealing_observed(queries, rules, cfg, workers, None)
    }

    /// [`ShardedExecutor::run_batch_stealing`] with a metrics sink for
    /// queries that never produce a [`ExecOutcome`]: when a seed task or
    /// merge phase panics, the worker-local recorder lives *outside*
    /// the `catch_unwind` boundary, so the spans completed before the
    /// panic survive — they are flushed into `registry`'s per-stage
    /// histograms instead of being lost with the poisoned query.
    /// Successful queries carry their trace on [`ExecOutcome::trace`]
    /// as usual.
    pub fn run_batch_stealing_observed(
        &self,
        queries: &[Query],
        rules: &RuleSet,
        cfg: &TopkConfig,
        workers: usize,
        registry: Option<&MetricsRegistry>,
    ) -> Vec<Result<ExecOutcome, ExecError>> {
        let n_shards = self.store.shard_count();
        let n_queries = queries.len();
        if n_queries == 0 {
            return Vec::new();
        }

        // The flat task space the injector's cursor walks: one (query,
        // shard) seed task per entry, subject-bound queries pruned to
        // their home shard.
        let mut tasks: Vec<(usize, usize)> = Vec::with_capacity(n_queries * n_shards);
        let mut task_counts = vec![0usize; n_queries];
        let mut skips = vec![0usize; n_queries];
        for (qi, query) in queries.iter().enumerate() {
            match self.single_shard_of(query) {
                Some(home) => {
                    tasks.push((qi, home));
                    task_counts[qi] = 1;
                    skips[qi] = n_shards - 1;
                }
                None => {
                    tasks.extend((0..n_shards).map(|shard| (qi, shard)));
                    task_counts[qi] = n_shards;
                }
            }
        }
        let total_tasks = tasks.len();
        let workers = workers.max(1).min(total_tasks);

        let trackers: Vec<BudgetTracker> =
            queries.iter().map(|_| BudgetTracker::new(cfg)).collect();
        let states: Vec<QueryState> = task_counts
            .iter()
            .map(|&count| QueryState {
                remaining: AtomicUsize::new(count),
                owner: AtomicUsize::new(NO_OWNER),
                steals: AtomicUsize::new(0),
                seeds: Mutex::new((0..n_shards).map(|_| None).collect()),
                outcome: Mutex::new(None),
            })
            .collect();
        let cursor = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for worker in 0..workers {
                let states = &states;
                let trackers = &trackers;
                let tasks = &tasks;
                let cursor = &cursor;
                scope.spawn(move || loop {
                    // Claim the next seed task off the shared injector.
                    let task = cursor.fetch_add(1, Ordering::Relaxed);
                    if task >= total_tasks {
                        break;
                    }
                    let (qi, shard) = tasks[task];
                    let state = &states[qi];
                    let claimed_first = state
                        .owner
                        .compare_exchange(NO_OWNER, worker, Ordering::AcqRel, Ordering::Acquire);
                    if let Err(owner) = claimed_first {
                        if owner != worker {
                            state.steals.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // The recorder lives outside the unwind boundary so
                    // the spans a panicking seed task completed before
                    // dying are recoverable.
                    let mut task_recorder = cfg.obs.recorder();
                    let seeded = catch_unwind(AssertUnwindSafe(|| {
                        #[cfg(feature = "faults")]
                        trinit_query::faults::on_seed_task(qi, shard);
                        self.seed_shard(
                            shard,
                            &queries[qi],
                            rules,
                            cfg,
                            &trackers[qi],
                            &mut task_recorder,
                        )
                    }));
                    match seeded {
                        Ok((answers, metrics)) => {
                            lock_recover(&state.seeds)[shard] =
                                Some((answers, metrics, task_recorder));
                        }
                        Err(payload) => {
                            state.poison(
                                format!("seed task (query {qi}, shard {shard})"),
                                payload.as_ref(),
                            );
                            if let Some(registry) = registry {
                                registry.record_trace(&task_recorder.finish());
                            }
                        }
                    }
                    // The releases above (seed-slot or outcome mutex)
                    // pair with the acquires below: the last finisher
                    // observes every seed result and any poisoning.
                    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        if lock_recover(&state.outcome).is_some() {
                            // A seed panic already decided this query.
                            continue;
                        }
                        let slots = std::mem::take(&mut *lock_recover(&state.seeds));
                        let mut seeds = Seeds::none(n_shards);
                        // The query's trace: worker-local seed recorders
                        // merged in shard order (deterministic regardless
                        // of which worker ran which task), then the merge
                        // phase recording directly.
                        let mut recorder = cfg.obs.recorder();
                        for (shard, slot) in slots.into_iter().enumerate() {
                            // Empty slots are adaptively skipped shards.
                            if let Some((answers, metrics, task_recorder)) = slot {
                                seeds.add(shard, answers, &metrics);
                                recorder.merge(&task_recorder);
                            }
                        }
                        let merged = catch_unwind(AssertUnwindSafe(|| {
                            #[cfg(feature = "faults")]
                            trinit_query::faults::on_merge(qi);
                            let ctx = ExecCtx {
                                governor: Governor::primary(&trackers[qi]),
                                recorder: &mut recorder,
                            };
                            self.merge(&queries[qi], rules, cfg, seeds, None, ctx)
                        }));
                        match merged {
                            Ok(mut run) => {
                                run.trace = recorder.finish();
                                *lock_recover(&state.outcome) = Some(Ok(run));
                            }
                            Err(payload) => {
                                state.poison(
                                    format!("merge phase (query {qi})"),
                                    payload.as_ref(),
                                );
                                // The merge phase died, but every seed
                                // span already merged above survives.
                                if let Some(registry) = registry {
                                    registry.record_trace(&recorder.finish());
                                }
                            }
                        }
                    }
                });
            }
        });

        states
            .into_iter()
            .enumerate()
            .map(|(qi, state)| {
                let result = state
                    .outcome
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        // Unreachable by construction — the worker that
                        // takes `remaining` to zero always writes the
                        // slot. Typed rather than panicking, so even a
                        // scheduler bug degrades to one failed query.
                        Err(ExecError::WorkerPanicked {
                            context: format!("scheduler (query {qi}): outcome never resolved"),
                            payload: String::new(),
                        })
                    });
                result.map(|mut run| {
                    run.metrics.seed_steals = state.steals.into_inner();
                    run.metrics.seed_skips = skips[qi];
                    run
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SeedMode;
    use crate::store::ShardedStore;
    use crate::testkit::assert_answers_score_equivalent as assert_same_answers;
    use trinit_query::QueryBuilder;
    use trinit_relax::{Rule, RuleProvenance};
    use trinit_xkg::XkgBuilder;

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..24u32 {
            b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
            b.add_kg_resources(&format!("y{i}"), "q", &format!("z{}", i % 5));
        }
        let src = b.intern_source("doc");
        for i in 0..10u32 {
            let s = b.dict_mut().resource(&format!("x{i}"));
            let p = b.dict_mut().token("close to");
            let o = b.dict_mut().resource(&format!("y{}", (i + 5) % 24));
            b.add_extracted(s, p, o, 0.6, src);
        }
        b
    }

    fn rules(store: &trinit_xkg::XkgStore) -> RuleSet {
        let p = store.resource("p").unwrap();
        let close = store.token("close to").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "p ~ close to",
            p,
            close,
            0.7,
            RuleProvenance::UserDefined,
        ));
        rules
    }

    #[test]
    fn stolen_batches_match_per_query_runs() {
        let single = builder().build();
        let rules = rules(&single);
        let cfg = TopkConfig::default();
        let queries: Vec<Query> = (0..7)
            .map(|i| {
                QueryBuilder::new(&single)
                    .pattern_r_r_v(&format!("x{i}"), "p", "b")
                    .limit(4)
                    .build()
            })
            .chain(std::iter::once(
                QueryBuilder::new(&single)
                    .pattern_v_r_v("a", "p", "b")
                    .pattern_v_r_v("b", "q", "c")
                    .limit(9)
                    .build(),
            ))
            .collect();
        for shards in [2usize, 3] {
            let sharded = ShardedStore::build(builder(), shards);
            let exec = ShardedExecutor::new(&sharded);
            let expected: Vec<_> = queries
                .iter()
                .map(|q| exec.run(q, &rules, &cfg, SeedMode::Off).answers)
                .collect();
            for workers in [1usize, 2, 4] {
                let runs = exec.run_batch_stealing(&queries, &rules, &cfg, workers);
                assert_eq!(runs.len(), queries.len());
                for (run, want) in runs.iter().zip(&expected) {
                    let run = run.as_ref().expect("no worker panicked");
                    assert_same_answers(&run.answers, want);
                    assert_eq!(run.per_shard.len(), shards);
                    assert!(run.metrics.pulls > 0);
                }
            }
        }
    }

    #[test]
    fn single_worker_owns_every_task_and_steals_nothing() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 4);
        let exec = ShardedExecutor::new(&sharded);
        let queries: Vec<Query> = (0..3)
            .map(|i| {
                QueryBuilder::new(&single)
                    .pattern_r_r_v(&format!("x{i}"), "p", "b")
                    .limit(3)
                    .build()
            })
            .collect();
        let runs = exec.run_batch_stealing(&queries, &rules, &TopkConfig::default(), 1);
        for run in &runs {
            let run = run.as_ref().expect("no worker panicked");
            assert_eq!(run.metrics.seed_steals, 0, "one worker cannot steal from itself");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let sharded = ShardedStore::build(builder(), 2);
        let exec = ShardedExecutor::new(&sharded);
        let runs = exec.run_batch_stealing(&[], &RuleSet::new(), &TopkConfig::default(), 4);
        assert!(runs.is_empty());
    }

    #[test]
    fn seed_metrics_fold_into_the_aggregate() {
        // The stolen batch's counters must match the equivalent
        // seed-then-merge execution: per-shard seed work plus the merge
        // phase's posting work, exactly like a seeded per-query run.
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let exec = ShardedExecutor::new(&sharded);
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(8)
            .build();
        let runs = exec.run_batch_stealing(
            std::slice::from_ref(&q),
            &rules,
            &TopkConfig::default(),
            2,
        );
        let run = runs[0].as_ref().expect("no worker panicked");
        let reference = exec.run(&q, &rules, &TopkConfig::default(), SeedMode::Parallel);
        assert_same_answers(&run.answers, &reference.answers);
        assert_eq!(
            run.metrics.postings_scanned, reference.metrics.postings_scanned,
            "stolen seed + merge work must equal the sequential seed + merge work"
        );
        assert_eq!(run.metrics.pulls, reference.metrics.pulls);
    }

    #[test]
    fn stolen_batches_merge_worker_recorders_at_join() {
        use trinit_obs::Stage;
        let single = builder().build();
        let rules = rules(&single);
        let shards = 3;
        let sharded = ShardedStore::build(builder(), shards);
        let exec = ShardedExecutor::new(&sharded);
        let cfg = TopkConfig::default();
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(6)
            .build();
        for workers in [1usize, 2, 4] {
            let runs =
                exec.run_batch_stealing(std::slice::from_ref(&q), &rules, &cfg, workers);
            let run = runs[0].as_ref().expect("no worker panicked");
            let trace = &run.trace;
            // One SeedTask span per shard reached the joined trace no
            // matter which worker ran which task, and the merge phase
            // recorded on top of them.
            assert_eq!(
                trace.stage_count(Stage::SeedTask),
                shards,
                "workers={workers}"
            );
            assert_eq!(trace.stage_count(Stage::Merge), 1, "workers={workers}");
            assert_eq!(trace.dropped, 0, "default capacity must not overflow here");
        }
    }

    #[test]
    fn adaptive_seeding_prunes_subject_bound_queries_to_one_shard() {
        let single = builder().build();
        let rules = rules(&single);
        let shards = 4;
        let sharded = ShardedStore::build(builder(), shards);
        let exec = ShardedExecutor::new(&sharded);
        let cfg = TopkConfig::default();
        // A subject-bound query (ground subject on every pattern) and an
        // open one, in the same batch.
        let bound = QueryBuilder::new(&single)
            .pattern_r_r_v("x3", "p", "b")
            .limit(4)
            .build();
        let open = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(4)
            .build();
        let expected_bound = exec.run(&bound, &rules, &cfg, SeedMode::Off);
        let expected_open = exec.run(&open, &rules, &cfg, SeedMode::Off);
        let runs =
            exec.run_batch_stealing(&[bound, open], &rules, &cfg, 2);
        let bound_run = runs[0].as_ref().expect("no worker panicked");
        let open_run = runs[1].as_ref().expect("no worker panicked");
        assert_eq!(
            bound_run.metrics.seed_skips,
            shards - 1,
            "subject-bound query seeds only its home shard: {:?}",
            bound_run.metrics
        );
        assert_eq!(open_run.metrics.seed_skips, 0, "{:?}", open_run.metrics);
        // Pruned seeding is advisory: answers stay identical.
        assert_same_answers(&bound_run.answers, &expected_bound.answers);
        assert_same_answers(&open_run.answers, &expected_open.answers);
    }

    #[test]
    fn single_shard_store_never_prunes() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 1);
        let exec = ShardedExecutor::new(&sharded);
        let q = QueryBuilder::new(&single)
            .pattern_r_r_v("x2", "p", "b")
            .limit(3)
            .build();
        let runs = exec.run_batch_stealing(
            std::slice::from_ref(&q),
            &rules,
            &TopkConfig::default(),
            2,
        );
        let run = runs[0].as_ref().expect("no worker panicked");
        assert_eq!(run.metrics.seed_skips, 0, "nothing to skip at one shard");
    }
}
