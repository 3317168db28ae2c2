//! The sharded executor: per-shard seeding on scoped threads, the
//! cross-shard merge phase, and the batch query pool.
//!
//! Both phases are calls into the engine's one entry point,
//! [`execute`]: a seed task is `execute` over a one-slice view of its
//! shard under an advisory governor, the merge phase is `execute` over
//! every shard plus the live delta views, pre-seeded with what the seed
//! tasks found. Whoever starts the query ([`ShardedExecutor::run`], the
//! work-stealing scheduler, or the engine facade) owns its budget
//! tracker and recorder and lends them to both phases.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use trinit_obs::{Stage, TraceRecorder};
use trinit_query::exec::topk::{execute, ExecCtx, ExecOutcome, ExecRequest, StoreView, TopkConfig};
use trinit_query::{
    describe_panic, Answer, BudgetTracker, ExecError, ExecMetrics, Governor, Query,
    SharedPostingCache,
};
use trinit_relax::RuleSet;

use crate::store::ShardedStore;

/// How [`ShardedExecutor::run`] seeds the global merge with per-shard
/// answers before the cross-shard phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Run every shard's local top-k on its own scoped thread — the
    /// latency-oriented mode: the seed phase takes one shard's time
    /// instead of the sum, and the merge phase starts with a tight
    /// k-th score.
    Parallel,
    /// Skip seeding: go straight to the cross-shard merge. Cheapest in
    /// total work — the merge phase alone is complete and exact. Used
    /// inside batch pools, where the parallelism budget is already
    /// spent across queries.
    Off,
}

/// What a query's seed phase hands its merge phase: the answers the
/// per-shard seed tasks found (global ids, globally normalized scores)
/// and the work each shard's task cost.
#[derive(Debug)]
pub struct Seeds {
    answers: Vec<Answer>,
    per_shard: Vec<ExecMetrics>,
}

impl Seeds {
    /// No seed phase ran over a store of `shards` shards.
    pub fn none(shards: usize) -> Seeds {
        Seeds {
            answers: Vec::new(),
            per_shard: vec![ExecMetrics::default(); shards],
        }
    }

    /// Adds `shard`'s finished seed task.
    pub(crate) fn add(&mut self, shard: usize, answers: Vec<Answer>, metrics: &ExecMetrics) {
        self.answers.extend(answers);
        self.per_shard[shard].merge(metrics);
    }
}

/// Executes queries over a [`ShardedStore`]: fans the query out to
/// per-shard top-k executions (the seed phase) and merges the shards'
/// posting streams under the engine's tightened global threshold (the
/// merge phase, which is always complete and exact).
///
/// Outcomes are the engine's [`ExecOutcome`]: derivation triple ids are
/// global (resolve them with [`ShardedStore::resolve`]), `metrics`
/// aggregates the seed and merge phases, `per_shard` holds each shard's
/// seed-phase run plus its share of the merge phase's posting work
/// (live delta views follow the shards), and `completeness` reflects
/// the merge phase alone — seed-phase retirements never degrade the
/// label.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor<'a> {
    pub(crate) store: &'a ShardedStore,
    /// One store-level posting cache per shard; empty when caching is
    /// off.
    pub(crate) caches: &'a [SharedPostingCache],
}

impl<'a> ShardedExecutor<'a> {
    /// An executor without store-level posting caches.
    pub fn new(store: &'a ShardedStore) -> ShardedExecutor<'a> {
        ShardedExecutor { store, caches: &[] }
    }

    /// Attaches one store-level posting cache per shard (cached lists
    /// are shard-specific, so the set's length must equal the shard
    /// count); an empty set means no store-level caching.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is neither empty nor one per shard.
    pub fn with_caches(mut self, caches: &'a [SharedPostingCache]) -> ShardedExecutor<'a> {
        assert!(
            caches.is_empty() || caches.len() == self.store.shard_count(),
            "one posting cache per shard"
        );
        self.caches = caches;
        self
    }

    /// Runs one shard's local top-k (all patterns restricted to the
    /// shard's slice; scores globally normalized and derivation ids
    /// global, because the one-slice view keeps the store's totals and
    /// id space). One seed task of the work-stealing batch scheduler
    /// ([`crate::schedule`]).
    pub(crate) fn seed_shard(
        &self,
        shard: usize,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        tracker: &BudgetTracker,
        recorder: &mut TraceRecorder,
    ) -> (Vec<Answer>, ExecMetrics) {
        let slices = [self.store.shard(shard)];
        let offsets = [self.store.offsets()[shard]];
        let request = ExecRequest {
            caches: self.caches.get(shard).map_or(&[], std::slice::from_ref),
            ..ExecRequest::new(query, rules, cfg)
        };
        let seed_start = recorder.start();
        // Advisory governance: seed pulls consume the shared budget and
        // pick up ladder escalations, but a cutoff or ε retirement here
        // never marks the query non-exact — seeds only warm the merge
        // phase's collector, and the merge phase alone is complete.
        let ctx = ExecCtx {
            governor: Governor::advisory(tracker),
            recorder: &mut *recorder,
        };
        let run = execute(&StoreView::over(&slices, &offsets, self.store), request, ctx);
        recorder.record(Stage::SeedTask, shard as u32, seed_start);
        (run.answers, run.metrics)
    }

    /// Answers `query`: seed phase per `seed`, then the cross-shard
    /// merge. The merge phase alone is complete, so every mode returns
    /// identical answers; seeding only changes how the work is spent.
    pub fn run(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        seed: SeedMode,
    ) -> ExecOutcome {
        let tracker = BudgetTracker::new(cfg);
        let mut recorder = cfg.obs.recorder();
        let query_start = recorder.start();
        let seeds = self.seed(query, rules, cfg, seed, &tracker, &mut recorder);
        let ctx = ExecCtx {
            governor: Governor::primary(&tracker),
            recorder: &mut recorder,
        };
        let mut run = self.merge(query, rules, cfg, seeds, None, ctx);
        recorder.record(Stage::Query, run.answers.len() as u32, query_start);
        run.trace = recorder.finish();
        run
    }

    /// The seed phase per `mode`: nothing for [`SeedMode::Off`]; for
    /// [`SeedMode::Parallel`] every shard's seed task on its own scoped
    /// thread, joined in shard order (worker-local recorders merge into
    /// `recorder` at the join).
    pub fn seed(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        mode: SeedMode,
        tracker: &BudgetTracker,
        recorder: &mut TraceRecorder,
    ) -> Seeds {
        let n = self.store.shard_count();
        let mut seeds = Seeds::none(n);
        if mode == SeedMode::Off {
            return seeds;
        }
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|shard| {
                    scope.spawn(move || {
                        // Worker-local recorder: the seed thread records
                        // lock-free and the join below merges in shard
                        // order.
                        let mut local = cfg.obs.recorder();
                        let out = self.seed_shard(shard, query, rules, cfg, tracker, &mut local);
                        (out, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join())
                .collect::<Vec<_>>()
        });
        for (shard, joined) in results.into_iter().enumerate() {
            // A panicked seed thread forfeits only its warm start: the
            // merge phase is complete on its own, so the query still
            // returns its exact answers.
            if let Ok(((answers, metrics), local)) = joined {
                seeds.add(shard, answers, &metrics);
                recorder.merge(&local);
            }
        }
        seeds
    }

    /// The cross-shard merge phase — one [`execute`] over the base
    /// shards plus any live delta views as extra slices, the collector
    /// pre-loaded from `seeds` and the seed phase's per-shard work
    /// folded into the outcome's counters. `ctx` is the query's budget
    /// and recorder (the caller finishes the trace).
    ///
    /// `restrict = Some(j)` confines query pattern `j` to the delta
    /// slices — the semi-naive delta-query seam: every answer uses at
    /// least one freshly ingested triple for that pattern, while the
    /// other patterns still read the full base ∪ delta union (and
    /// scores normalize over the union, so a derivation scores exactly
    /// as it does in a full run).
    /// Pass no seeds with it — seed tasks search whole shards and would
    /// reintroduce base-only matches. With no live delta the restricted
    /// pattern matches nothing and the run has no answers.
    pub fn merge(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        seeds: Seeds,
        restrict: Option<usize>,
        ctx: ExecCtx<'_>,
    ) -> ExecOutcome {
        let mut slices: Vec<&trinit_xkg::XkgStore> = self.store.shards().iter().collect();
        let mut offsets: Vec<u32> = self.store.offsets().to_vec();
        let n_base = slices.len();
        for (view, offset) in self.store.delta_slices() {
            slices.push(view);
            offsets.push(offset);
        }
        let request = ExecRequest {
            caches: self.caches,
            seed: seeds.answers,
            restrict: restrict.map(|j| (j, n_base..slices.len())),
            ..ExecRequest::new(query, rules, cfg)
        };
        let ExecCtx { governor, recorder } = ctx;
        let merge_start = recorder.start();
        let view = StoreView::over(&slices, &offsets, self.store);
        let mut run = execute(&view, request, ExecCtx { governor, recorder: &mut *recorder });
        recorder.record(Stage::Merge, slices.len() as u32, merge_start);

        // A one-slice view reports no per-slice split: the aggregate is
        // that slice's work.
        if run.per_shard.is_empty() {
            run.per_shard.push(run.metrics);
        }
        // Seed-phase work joins both the aggregate and its shard's slot
        // (delta slices, past the shards, have no seed phase).
        for (seed, slot) in seeds.per_shard.iter().zip(&mut run.per_shard) {
            run.metrics.merge(seed);
            slot.merge(seed);
        }
        run
    }
}

/// A fixed-size worker pool executing independent queries concurrently
/// over a shared engine — the shard deployment's batch surface. Workers
/// claim queries off an atomic cursor; results land in input order.
#[derive(Debug)]
pub struct QueryPool {
    workers: usize,
}

impl QueryPool {
    /// A pool of `workers` concurrent workers (at least one).
    pub fn new(workers: usize) -> QueryPool {
        QueryPool {
            workers: workers.max(1),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes `run` once per input concurrently, returning outputs in
    /// input order. `run` must be safe to call from multiple threads —
    /// the query engines are read-only over `Sync` stores, so closures
    /// capturing a store or executor qualify.
    pub fn execute<I, O, F>(&self, inputs: Vec<I>, run: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = self.workers.min(n);
        if threads == 1 {
            return inputs.into_iter().map(run).collect();
        }
        let slots: Vec<Mutex<Option<I>>> = inputs
            .into_iter()
            .map(|i| Mutex::new(Some(i)))
            .collect();
        let out: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Poison recovery is sound here: the slots hold
                    // whole-value `Option` writes, so a panicking
                    // holder cannot leave them logically torn, and a
                    // missing output surfaces below instead of taking
                    // the rest of the batch down.
                    let input = slots[i]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .take();
                    // lint:allow(no-panic-hot-path): the atomic cursor hands out each index exactly once, so a claimed slot is always populated
                    let input = input.expect("input claimed once");
                    let result = run(input);
                    *out[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });
        out.into_iter()
            .map(|slot| {
                let produced = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                // lint:allow(no-panic-hot-path): unreachable — thread::scope re-raises any worker panic before this line runs, and a surviving worker always writes the slot it claimed
                produced.expect("every input produced an output")
            })
            .collect()
    }

    /// [`QueryPool::execute`] with panic isolation: each input's `run`
    /// call is wrapped in [`catch_unwind`], so one query's panic
    /// becomes a typed [`ExecError::WorkerPanicked`] in its own output
    /// slot while every other query completes normally. The worker
    /// thread that caught the panic keeps claiming further inputs.
    pub fn try_execute<I, O, F>(&self, inputs: Vec<I>, run: F) -> Vec<Result<O, ExecError>>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let n = inputs.len();
        let indexed: Vec<(usize, I)> = inputs.into_iter().enumerate().collect();
        debug_assert_eq!(indexed.len(), n);
        self.execute(indexed, |(i, input)| {
            catch_unwind(AssertUnwindSafe(|| run(input))).map_err(|payload| {
                ExecError::WorkerPanicked {
                    context: format!("batch query {i}"),
                    payload: describe_panic(payload.as_ref()),
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_query::exec::topk;
    use trinit_query::QueryBuilder;
    use trinit_relax::{Rule, RuleProvenance};
    use trinit_xkg::XkgBuilder;

    fn builder() -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..20u32 {
            b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
            b.add_kg_resources(&format!("y{i}"), "q", &format!("z{}", i % 4));
        }
        let src = b.intern_source("doc");
        for i in 0..8u32 {
            let s = b.dict_mut().resource(&format!("x{i}"));
            let p = b.dict_mut().token("close to");
            let o = b.dict_mut().resource(&format!("y{}", (i + 3) % 20));
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

    use crate::testkit::assert_answers_score_equivalent as assert_same_answers;

    #[test]
    fn every_seed_mode_matches_the_monolith() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let cfg = TopkConfig::default();
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .pattern_v_r_v("b", "q", "c")
            .limit(12)
            .build();
        let (mono, _) = topk::run(&single, &q, &rules, &cfg);
        let exec = ShardedExecutor::new(&sharded);
        for mode in [SeedMode::Off, SeedMode::Parallel] {
            let run = exec.run(&q, &rules, &cfg, mode);
            assert_same_answers(&run.answers, &mono);
            assert_eq!(run.per_shard.len(), 3);
        }
    }

    #[test]
    fn sharded_derivations_resolve_globally() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 4);
        let q = QueryBuilder::new(&single)
            .pattern_r_r_v("x1", "p", "b")
            .limit(5)
            .build();
        let run = ShardedExecutor::new(&sharded).run(
            &q,
            &rules,
            &TopkConfig::default(),
            SeedMode::Parallel,
        );
        assert!(!run.answers.is_empty());
        for answer in &run.answers {
            for (pattern, id) in &answer.derivation.triples {
                // Global ids resolve to real triples matching the
                // evaluated pattern's constants.
                let t = sharded.triple(*id);
                if let trinit_relax::QTerm::Term(s) = pattern.s {
                    assert_eq!(t.s, s);
                }
            }
        }
    }

    #[test]
    fn shard_caches_serve_repeat_queries_without_changing_answers() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let caches: Vec<SharedPostingCache> =
            (0..3).map(|_| SharedPostingCache::new(64)).collect();
        let exec = ShardedExecutor::new(&sharded).with_caches(&caches);
        let q = QueryBuilder::new(&single)
            .pattern_r_r_v("x2", "p", "b")
            .limit(5)
            .build();
        let cfg = TopkConfig::default();
        let cold = exec.run(&q, &rules, &cfg, SeedMode::Parallel);
        let warm = exec.run(&q, &rules, &cfg, SeedMode::Parallel);
        assert_same_answers(&cold.answers, &warm.answers);
        assert!(
            warm.metrics.shared_cache_hits > 0,
            "repeat query must hit the shard caches: {:?}",
            warm.metrics
        );
    }

    #[test]
    fn metrics_aggregate_per_shard_work() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 3);
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(8)
            .build();
        let run = ShardedExecutor::new(&sharded).run(
            &q,
            &rules,
            &TopkConfig::default(),
            SeedMode::Parallel,
        );
        let scanned: usize = run.per_shard.iter().map(|m| m.postings_scanned).sum();
        assert_eq!(
            scanned, run.metrics.postings_scanned,
            "aggregate postings must equal the per-shard sum"
        );
        assert!(run.metrics.pulls > 0);
    }

    #[test]
    fn sharded_runs_carry_a_per_stage_trace() {
        use trinit_obs::{ObsConfig, Stage};
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
        for mode in [SeedMode::Off, SeedMode::Parallel] {
            let run = exec.run(&q, &rules, &cfg, mode);
            let trace = &run.trace;
            assert_eq!(trace.stage_count(Stage::Query), 1, "{mode:?}");
            assert_eq!(trace.stage_count(Stage::Merge), 1, "{mode:?}");
            let expected_seeds = if mode == SeedMode::Off { 0 } else { shards };
            assert_eq!(trace.stage_count(Stage::SeedTask), expected_seeds, "{mode:?}");
            // The query span encloses the whole run, so it dominates
            // every other stage's total.
            assert!(
                trace.stage_total_ns(Stage::Query) >= trace.stage_total_ns(Stage::Merge),
                "{mode:?}"
            );
        }
        let off = TopkConfig {
            obs: ObsConfig::off(),
            ..TopkConfig::default()
        };
        let run = exec.run(&q, &rules, &off, SeedMode::Parallel);
        assert!(run.trace.is_empty(), "disabled obs must record nothing");
        assert_same_answers(
            &run.answers,
            &exec.run(&q, &rules, &cfg, SeedMode::Parallel).answers,
        );
    }

    #[test]
    fn query_pool_preserves_input_order() {
        let pool = QueryPool::new(4);
        let inputs: Vec<usize> = (0..57).collect();
        let out = pool.execute(inputs, |i| i * 3);
        assert_eq!(out, (0..57).map(|i| i * 3).collect::<Vec<_>>());
        assert!(pool.workers() == 4);
        let empty: Vec<usize> = pool.execute(Vec::new(), |i: usize| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn query_pool_runs_sharded_queries_concurrently() {
        let single = builder().build();
        let rules = rules(&single);
        let sharded = ShardedStore::build(builder(), 2);
        let cfg = TopkConfig::default();
        let queries: Vec<_> = (0..6)
            .map(|i| {
                QueryBuilder::new(&single)
                    .pattern_r_r_v(&format!("x{i}"), "p", "b")
                    .limit(4)
                    .build()
            })
            .collect();
        let expected: Vec<_> = queries
            .iter()
            .map(|q| topk::run(&single, q, &rules, &cfg).0)
            .collect();
        let exec = ShardedExecutor::new(&sharded);
        let got = QueryPool::new(2).execute(queries, |q| {
            exec.run(&q, &rules, &cfg, SeedMode::Off).answers
        });
        for (g, e) in got.iter().zip(&expected) {
            assert_same_answers(g, e);
        }
    }
}
