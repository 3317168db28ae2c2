//! The sharded executor and the batch query pool.
//!
//! A sharded query is one call into the engine's one entry point,
//! [`execute`], over every shard plus the live delta views. Whoever
//! starts the query ([`ShardedExecutor::run`] or the engine facade)
//! owns its budget tracker and recorder and lends them to that call. A
//! batch runs whole queries on the [`QueryPool`].

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use trinit_obs::Stage;
use trinit_query::exec::topk::{execute, ExecCtx, ExecOutcome, ExecRequest, StoreView, TopkConfig};
use trinit_query::{describe_panic, BudgetTracker, ExecError, Query, SharedPostingCache};
use trinit_relax::RuleSet;

use crate::store::ShardedStore;

/// Executes queries over a [`ShardedStore`]: one incremental merge of
/// every shard's posting streams under the engine's tightened global
/// threshold, complete and exact on its own.
///
/// Outcomes are the engine's [`ExecOutcome`]: derivation triple ids are
/// global (resolve them with [`ShardedStore::resolve`]), and
/// `per_shard` holds each slice's share of the merge's posting work
/// (live delta views follow the shards; empty for a store that is one
/// frozen slice).
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

    /// Answers `query` as a whole: owns its budget tracker and recorder
    /// and returns the finished trace.
    pub fn run(&self, query: &Query, rules: &RuleSet, cfg: &TopkConfig) -> ExecOutcome {
        let tracker = BudgetTracker::new(cfg);
        let mut recorder = cfg.obs.recorder();
        let query_start = recorder.start();
        let ctx = ExecCtx {
            tracker: &tracker,
            recorder: &mut recorder,
        };
        let mut run = self.merge(query, rules, cfg, None, ctx);
        recorder.record(Stage::Query, run.answers.len() as u32, query_start);
        run.trace = recorder.finish();
        run
    }

    /// The cross-shard merge — one [`execute`] over the store's
    /// segments (the base shards plus any live delta views as extra
    /// slices). `ctx` is the query's budget and recorder (the caller
    /// finishes the trace). A store that is one frozen slice has
    /// nothing to merge: the run is a plain one-store execution, with
    /// no merge span and no per-shard split.
    ///
    /// `restrict = Some(j)` confines query pattern `j` to the delta
    /// slices — the semi-naive delta-query seam: every answer uses at
    /// least one freshly ingested triple for that pattern, while the
    /// other patterns still read the full base ∪ delta union (and
    /// scores normalize over the union, so a derivation scores exactly
    /// as it does in a full run). With no live delta the restricted
    /// pattern matches nothing and the run has no answers.
    pub fn merge(
        &self,
        query: &Query,
        rules: &RuleSet,
        cfg: &TopkConfig,
        restrict: Option<usize>,
        ctx: ExecCtx<'_>,
    ) -> ExecOutcome {
        let request = ExecRequest {
            caches: self.caches,
            ..ExecRequest::new(query, rules, cfg)
        };
        if let Some(store) = self.store.single_slice() {
            // No delta: a restricted pattern matches nothing.
            let request = ExecRequest { restrict: restrict.map(|j| (j, 1..1)), ..request };
            return execute(&StoreView::single(store), request, ctx);
        }
        let slices = self.store.segments();
        let deltas = self.store.shard_count()..slices.len();
        let request = ExecRequest { restrict: restrict.map(|j| (j, deltas)), ..request };
        let ExecCtx { tracker, recorder } = ctx;
        let merge_start = recorder.start();
        let view = StoreView::over(&slices, self.store);
        let run = execute(&view, request, ExecCtx { tracker, recorder: &mut *recorder });
        recorder.record(Stage::Merge, slices.len() as u32, merge_start);
        run
    }
}

/// A fixed-size worker pool executing independent queries concurrently
/// over a shared engine — the one batch surface. Workers claim queries
/// off an atomic cursor; results land in input order. A pool of one
/// worker, or a batch of one query, runs on the calling thread.
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
    #[expect(clippy::disallowed_methods, reason = "poison recovered: each slot holds one whole-value `Option` write, so a panicking holder cannot tear it")]
    #[expect(clippy::expect_used, reason = "the atomic cursor hands out each index once, so a claimed input slot is populated; `thread::scope` re-raises any worker panic before the outputs are read, and a surviving worker writes the slot it claimed")]
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
                    let input = input.expect("input claimed once");
                    let result = run(input);
                    *out[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });
        out.into_iter()
            .map(|slot| {
                let produced = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                produced.expect("every input produced an output")
            })
            .collect()
    }

    /// [`QueryPool::execute`] with panic isolation: each input's `run`
    /// call is wrapped in [`catch_unwind`], so one query's panic
    /// becomes a typed [`ExecError::WorkerPanicked`] in its own output
    /// slot while every other query completes normally. The worker
    /// thread that caught the panic keeps claiming further inputs.
    /// Under the `faults` feature the boundary is also where an
    /// injected query panic fires (`trinit_query::faults::on_query`).
    pub fn try_execute<I, O, F>(&self, inputs: Vec<I>, run: F) -> Vec<Result<O, ExecError>>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let indexed: Vec<(usize, I)> = inputs.into_iter().enumerate().collect();
        self.execute(indexed, |(i, input)| {
            catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "faults")]
                trinit_query::faults::on_query(i);
                run(input)
            }))
            .map_err(|payload| ExecError::WorkerPanicked {
                context: format!("batch query {i}"),
                payload: describe_panic(payload.as_ref()),
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
    fn sharded_runs_match_the_monolith() {
        use trinit_obs::Stage;
        let single = builder().build();
        let rules = rules(&single);
        let cfg = TopkConfig::default();
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .pattern_v_r_v("b", "q", "c")
            .limit(12)
            .build();
        let (mono, mono_metrics) = topk::run(&single, &q, &rules, &cfg);
        for shards in [1, 3] {
            let sharded = ShardedStore::build(builder(), shards);
            let run = ShardedExecutor::new(&sharded).run(&q, &rules, &cfg);
            assert_same_answers(&run.answers, &mono);
            assert_eq!(run.trace.stage_count(Stage::SeedTask), 0);
            if shards == 1 {
                // One shard is the monolith: the same run, the same work.
                assert_eq!(run.metrics, mono_metrics);
                assert!(run.per_shard.is_empty());
            } else {
                assert_eq!(run.per_shard.len(), shards);
            }
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
        let run = ShardedExecutor::new(&sharded).run(&q, &rules, &TopkConfig::default());
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
        let cold = exec.run(&q, &rules, &cfg);
        let warm = exec.run(&q, &rules, &cfg);
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
        let run = ShardedExecutor::new(&sharded).run(&q, &rules, &TopkConfig::default());
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
        let sharded = ShardedStore::build(builder(), 3);
        let exec = ShardedExecutor::new(&sharded);
        let cfg = TopkConfig::default();
        let q = QueryBuilder::new(&single)
            .pattern_v_r_v("a", "p", "b")
            .limit(6)
            .build();
        let run = exec.run(&q, &rules, &cfg);
        let trace = &run.trace;
        assert_eq!(trace.stage_count(Stage::Query), 1);
        assert_eq!(trace.stage_count(Stage::Merge), 1);
        assert_eq!(trace.stage_count(Stage::SeedTask), 0);
        // The query span encloses the whole run, so it dominates every
        // other stage's total.
        assert!(trace.stage_total_ns(Stage::Query) >= trace.stage_total_ns(Stage::Merge));
        let off = TopkConfig {
            obs: ObsConfig::off(),
            ..TopkConfig::default()
        };
        let quiet = exec.run(&q, &rules, &off);
        assert!(quiet.trace.is_empty(), "disabled obs must record nothing");
        assert_same_answers(&quiet.answers, &run.answers);
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
        let got = QueryPool::new(2).execute(queries, |q| exec.run(&q, &rules, &cfg).answers);
        for (g, e) in got.iter().zip(&expected) {
            assert_same_answers(g, e);
        }
    }
}
