//! `batch_sharded` — the sharded store behind the batch facade.
//!
//! World scale 1.0, `BuildOptions::shards(2)`, default layout, batches
//! only, over a pool of ~390 queries (80 per category, interleaved; every
//! granularity candidate): a repeating pattern of one 32-query batch
//! then eight 1-query batches, all through `run_batch_with_workers` on
//! **one worker**, which runs them on the calling thread. It exercises
//! the cross-shard `ShardedMerge` election and `GlobalTotals` rescaling.
//!
//! The timed loop starts no thread. The box has two shared vCPUs: with
//! two workers a batch stalls whenever the host takes either away (over
//! ten runs `queries_per_s` ranged 3,895–6,208 and `query_p99_us`
//! 7.0–15.0 ms), and the work-stealing scheduler `run_batch` picks for
//! batches below the shard count spawns its workers per call, so a
//! 1-query batch through it is mostly thread start-up (0.1–2.7 ms at
//! the median against ~30 µs for the query itself) and swings with the
//! host. The driver refused a benchmark that timed either. Both stay
//! measured, unbounded, in the traced pass: `shard.steal_batch1_us`
//! (every query through `run_batch_stealing`), and `shard.batch32_qps` /
//! `shard.parallel_speedup` (the 32-query batches through `run_batch`
//! on two workers).
//!
//! A latency sample is the wall time of a 1-query batch; `queries_per_s`
//! is taken over the 32-query batches.

use trinit_core::openie::IngestStats;
use trinit_core::query::Query;
use trinit_core::relax::RuleSet;
use trinit_core::shard::ShardedStore;
use trinit_core::xkg::{SegmentLayout, XkgStore};
use trinit_core::{Completeness, Engine, Trinit};

use crate::common::{
    check, completion_prefix, end_to_end, facade_extras, finish_traced, gate, measure,
    span_median_ns, trace_pass, Acc, Ledger, Replay, Report, Traced, Workload, EXTRAS_EVERY,
};
use crate::inputs::{copy_rules, parse_all, reference, Inputs, RefAnswers, StagedBuild};
use crate::Args;

const SHARDS: usize = 2;
/// Workers of the timed loop (see the module docs).
const TIMED_WORKERS: usize = 1;
const BIG_BATCH: usize = 32;
const SINGLES: usize = 8;

struct BatchSharded<'a> {
    system: &'a Trinit,
    texts: &'a [String],
    queries: &'a [Query],
    /// The same queries parsed against the monolith, for the replays.
    mono_queries: &'a [Query],
    /// Pulls of each query on the monolith (`shard.work_ratio` base).
    mono_pulls: &'a [u64],
    refs: &'a [RefAnswers],
    reps: usize,
    store: &'a XkgStore,
    rules: &'a RuleSet,
    replay: Replay,
    mono_pulls_seen: u64,
}

impl BatchSharded<'_> {
    /// Checks and books one batch slot; returns whether it was correct.
    fn slot(
        &mut self,
        acc: &mut Acc,
        i: usize,
        slot: &Result<trinit_core::QueryOutcome, trinit_core::ExecError>,
    ) -> bool {
        let ok = match slot {
            Ok(outcome) => {
                acc.observe(outcome);
                // Beside `acc.work`, which only the traced rounds feed.
                if acc.probe.is_traced() {
                    self.mono_pulls_seen += self.mono_pulls[i];
                }
                outcome.completeness == Completeness::Exact && check(outcome, &self.refs[i])
            }
            Err(_) => false,
        };
        acc.op(ok);
        ok
    }
}

impl Workload for BatchSharded<'_> {
    /// `reps` × (one 32-query batch, then eight 1-query batches).
    fn epoch(&mut self, acc: &mut Acc, _index: usize) {
        let n = self.queries.len();
        for rep in 0..self.reps {
            let ids: Vec<usize> = (0..BIG_BATCH).map(|j| (rep * BIG_BATCH + j) % n).collect();
            let batch: Vec<Query> = ids.iter().map(|&i| self.queries[i].clone()).collect();
            let (results, ns) = acc.probe.facade("core.run_batch32", || {
                self.system
                    .run_batch_with_workers(batch, Engine::IncrementalTopK, TIMED_WORKERS)
            });
            let mut done = 0;
            for (&i, slot) in ids.iter().zip(&results) {
                done += u64::from(self.slot(acc, i, slot));
            }
            acc.busy(ns, done);

            for j in 0..SINGLES {
                let i = (rep * SINGLES + j) % n;
                let op = acc.probe.open("op.query");
                if acc.probe.is_traced() {
                    self.replay.before(
                        &mut acc.probe,
                        self.store,
                        self.rules,
                        &self.texts[i],
                        &self.mono_queries[i],
                    );
                }
                let batch = vec![self.queries[i].clone()];
                let (results, ns) = acc.probe.facade("core.run_batch1", || {
                    self.system.run_batch_with_workers(
                        batch,
                        Engine::IncrementalTopK,
                        TIMED_WORKERS,
                    )
                });
                self.slot(acc, i, &results[0]);
                // Off the throughput clock: that is the big batches'.
                acc.latency_only(ns);
                if acc.probe.is_traced() {
                    // The route `run_batch` takes for a batch below the
                    // shard count: seed tasks on a spawned worker. A
                    // facade call too, so its outcome and its
                    // allocations enter the per-query ledger together.
                    let batch = vec![self.queries[i].clone()];
                    let (stolen, _) = acc.probe.facade("shard.steal_batch1", || {
                        self.system.run_batch_stealing(
                            batch,
                            Engine::IncrementalTopK,
                            TIMED_WORKERS,
                        )
                    });
                    self.slot(acc, i, &stolen[0]);
                    self.replay.after(
                        &mut acc.probe,
                        self.store,
                        self.rules,
                        &self.mono_queries[i],
                    );
                }
                if let (true, Ok(outcome)) = (
                    acc.probe.is_traced() && i.is_multiple_of(EXTRAS_EVERY),
                    &results[0],
                ) {
                    let prefix = completion_prefix(&self.texts[i]);
                    facade_extras(&mut acc.probe, self.system, outcome, &prefix);
                }
                acc.probe.close(op);
            }
        }
    }

    fn distinct_epochs(&self) -> usize {
        1
    }
}

pub fn run(args: &Args) -> Report {
    let scale = if args.smoke { 0.05 } else { 1.0 };
    let setups = if args.smoke { 1 } else { 5 };
    let inputs = Inputs::generate(args.seed, scale);
    let texts = inputs.query_pool(inputs.all_granularity());
    // Every query runs once as a 1-query batch per epoch.
    let reps = texts.len().div_ceil(SINGLES);
    let mut acc = Acc::new(args.trace);

    // The monolith of the same world is the reference, the base of
    // `shard.work_ratio`, and the store the layer replays read.
    let (mut system, monolith, setup_s, ingest) = if args.trace {
        let staged = StagedBuild::run(&inputs, SegmentLayout::Flat, &mut acc.probe);
        let sharded = Trinit::from_sharded_parts(
            ShardedStore::build(staged.builder, SHARDS),
            copy_rules(&staged.rules),
        );
        let monolith = Trinit::from_parts(staged.store, staged.rules);
        (sharded, monolith, Vec::new(), staged.ingest)
    } else {
        let (system, seconds) = inputs.build_repeated(setups, |o| {
            o.shards(SHARDS);
        });
        let (monolith, _) = inputs.build_timed(|_| {});
        (system, monolith, seconds, IngestStats::default())
    };
    let mono_queries = parse_all(&monolith, &texts);
    let refs = reference(&monolith, &mono_queries);
    let mono_pulls: Vec<u64> = mono_queries
        .iter()
        .map(|q| {
            monolith
                .run(q.clone(), Engine::IncrementalTopK)
                .metrics
                .pulls as u64
        })
        .collect();
    let queries = parse_all(&system, &texts);
    let ndcg5 = inputs.ndcg5(&system);

    let store = monolith
        .segmented_store()
        .expect("monolithic reference")
        .base();
    let mut workload = BatchSharded {
        system: &system,
        texts: &texts,
        queries: &queries,
        mono_queries: &mono_queries,
        mono_pulls: &mono_pulls,
        refs: &refs,
        reps,
        store,
        rules: monolith.rules(),
        replay: Replay::new(monolith.topk_config()),
        mono_pulls_seen: 0,
    };
    if !gate(&mut workload, &mut acc) {
        return Report::new(&acc, Ledger::new(), texts.len());
    }

    if !args.trace {
        measure(&mut workload, &mut acc, args);
        acc.op(inputs.ndcg5(&system).to_bits() == ndcg5.to_bits());
        let ledger = end_to_end(&acc, setup_s, ndcg5, &system);
        return Report::new(&acc, ledger, texts.len());
    }

    let overhead_frac = trace_pass(&mut workload, &mut acc);
    // The same 32-query batches on one worker and through `run_batch`
    // (one worker per shard), interleaved and order-flipped: the
    // measured multi-core figure.
    let mut batch_ns = [0u64; 2];
    let mut parallel_done = 0u64;
    for rep in 0..reps {
        for side in [rep % 2, 1 - rep % 2] {
            let batch: Vec<Query> = (0..BIG_BATCH)
                .map(|j| queries[(rep * BIG_BATCH + j) % queries.len()].clone())
                .collect();
            let (results, ns) = if side == 0 {
                acc.probe.time("core.run_batch32_one_worker", || {
                    system.run_batch_with_workers(batch, Engine::IncrementalTopK, TIMED_WORKERS)
                })
            } else {
                acc.probe.time("core.run_batch32_parallel", || {
                    system.run_batch(batch, Engine::IncrementalTopK)
                })
            };
            batch_ns[side] += ns;
            if side == 1 {
                parallel_done += results.iter().filter(|r| r.is_ok()).count() as u64;
            }
        }
    }
    let parallel_qps = parallel_done as f64 / (batch_ns[1].max(1) as f64 / 1e9);
    let speedup = batch_ns[0] as f64 / batch_ns[1].max(1) as f64;
    let sharded_only = [
        (
            "shard.work_ratio",
            acc.work.pulls as f64 / workload.mono_pulls_seen.max(1) as f64,
        ),
        (
            "shard.steal_batch1_us",
            span_median_ns(&acc.probe, "shard.steal_batch1") / 1e3,
        ),
        ("shard.batch32_qps", parallel_qps),
        ("shard.parallel_speedup", speedup),
    ];
    let traced = Traced {
        ingest,
        overhead_frac,
        replay_entries: workload.replay.entries_decoded,
        facade_span: "core.run_batch1",
        obs_queries: &queries,
    };
    let mut ledger = finish_traced(&acc, &mut system, traced, args);
    ledger.extend(sharded_only);
    Report::new(&acc, ledger, texts.len())
}
