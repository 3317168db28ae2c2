//! `explore_session` — interactive sessions over a warm cache.
//!
//! World scale 1.0 (~37k triples), monolithic, default (`Flat`) layout.
//! Consecutive `Session`s (posting cache of `SESSION_CACHE_CAPACITY` =
//! 256 lists), each drawing `Session::query(text)` Zipf(1.0) from a pool
//! of 600 distinct query texts (category-interleaved, so the hot head
//! mixes all five), so the hot head fits the cache and the tail evicts;
//! an epoch is six sessions of 200 steps; every 4th step also `suggest` +
//! `explain(outcome, 0)`, every 8th `complete(prefix)`. The parser, the
//! `query::score` shared cache and the `core` explain/suggest/complete
//! paths do the work while Flat borrowed slices make `xkg` decode nearly
//! free: the bypass workload for decode changes (prediction: no move)
//! and the one whose working set exceeds the cache.

use std::hint::black_box;

use trinit_core::openie::IngestStats;
use trinit_core::query::Query;
use trinit_core::xkg::{SegmentLayout, XkgStore};
use trinit_core::{Session, Trinit};

use crate::common::{
    check, completion_prefix, end_to_end, finish_traced, gate, measure, trace_pass, Acc, Ledger,
    Replay, Report, Traced, Workload,
};
use crate::inputs::{
    parse_all, reference, zipf_script, Inputs, RefAnswers, StagedBuild, DATASET_SEED,
};
use crate::Args;

/// Sessions per epoch. Each has its own Zipf script over its own
/// rotation of the pool — different users have different hot queries —
/// so an epoch's cost does not hang on which query one seed ranks first.
const SESSIONS: usize = 6;

struct ExploreSession<'a> {
    system: &'a Trinit,
    pool: &'a [String],
    queries: &'a [Query],
    prefixes: &'a [String],
    refs: &'a [RefAnswers],
    scripts: Vec<Vec<usize>>,
    store: &'a XkgStore,
    replay: Replay,
    /// Session posting-cache hits, misses and evictions, summed when
    /// each session closes.
    cache: [u64; 3],
}

impl Workload for ExploreSession<'_> {
    fn epoch(&mut self, acc: &mut Acc, _index: usize) {
        for script in 0..SESSIONS {
            self.session(acc, script);
        }
    }

    fn distinct_epochs(&self) -> usize {
        1
    }
}

impl ExploreSession<'_> {
    /// One session: open it, walk its script, read its cache stats.
    fn session(&mut self, acc: &mut Acc, script: usize) {
        let (session, ns) = acc
            .probe
            .time("core.session_new", || Session::new(self.system));
        acc.busy(ns, 0);
        let script = &self.scripts[script];
        for (step, &rank) in script.iter().enumerate() {
            let op = acc.probe.open("op.step");
            if acc.probe.is_traced() {
                self.replay.before(
                    &mut acc.probe,
                    self.store,
                    self.system.rules(),
                    &self.pool[rank],
                    &self.queries[rank],
                );
            }
            let text = &self.pool[rank];
            let (result, ns) = acc
                .probe
                .facade("core.session_query", || session.query(text));
            match result {
                Ok(outcome) => {
                    let ok = check(&outcome, &self.refs[rank]);
                    acc.query(&outcome, ns, ok);
                    if acc.probe.is_traced() {
                        let rules = self.system.rules();
                        self.replay
                            .after(&mut acc.probe, self.store, rules, &self.queries[rank]);
                    }
                    if step % 4 == 3 {
                        let (_, ns) = acc.probe.time("core.suggest", || {
                            black_box(self.system.suggest(&outcome).len())
                        });
                        acc.busy(ns, 0);
                        let (explained, ns) = acc
                            .probe
                            .time("core.explain", || self.system.explain(&outcome, 0));
                        acc.busy(ns, 0);
                        acc.op(explained.is_some() || outcome.answers.is_empty());
                    }
                    if step % 8 == 7 {
                        let prefix = &self.prefixes[rank];
                        let (n, ns) = acc
                            .probe
                            .time("core.complete", || self.system.complete(prefix, 10).len());
                        acc.busy(ns, 0);
                        acc.op(n > 0);
                        if acc.probe.is_traced() {
                            let query = outcome.query.clone();
                            let _ = acc.probe.time("core.introduced_by", || {
                                black_box(self.system.answers_introduced_by(query).answers.len())
                            });
                        }
                    }
                }
                Err(_) => acc.op(false),
            }
            acc.probe.close(op);
        }
        let stats = session.cache_stats();
        self.cache[0] += stats.hits as u64;
        self.cache[1] += stats.misses as u64;
        self.cache[2] += stats.evictions as u64;
    }
}

pub fn run(args: &Args) -> Report {
    let scale = if args.smoke { 0.05 } else { 1.0 };
    let (setups, per_category, steps) = if args.smoke {
        (1, 8, 24)
    } else {
        (5, 120, 200)
    };
    let inputs = Inputs::generate(args.seed, scale);
    let pool = inputs.query_pool(per_category);
    let prefixes: Vec<String> = pool.iter().map(|t| completion_prefix(t)).collect();
    let mut acc = Acc::new(args.trace);

    let (mut system, setup_s, ingest) = if args.trace {
        let staged = StagedBuild::run(&inputs, SegmentLayout::Flat, &mut acc.probe);
        let ingest = staged.ingest;
        (staged.into_monolith(), Vec::new(), ingest)
    } else {
        let (system, seconds) = inputs.build_repeated(setups, |_| {});
        (system, seconds, IngestStats::default())
    };
    let queries = parse_all(&system, &pool);
    let refs = reference(&system, &queries);
    let ndcg5 = inputs.ndcg5(&system);

    let store = system.segmented_store().expect("monolithic build").base();
    let mut workload = ExploreSession {
        system: &system,
        pool: &pool,
        queries: &queries,
        prefixes: &prefixes,
        refs: &refs,
        scripts: (0..SESSIONS)
            .map(|s| {
                // `+ s` also moves the head to another query category.
                let rotation = s * (pool.len() / SESSIONS) + s;
                // The rank sequences are the dataset's; the seed decides
                // which query sits at which rank. A seeded sequence moves
                // the count of cold heavy draws across the p99 boundary.
                zipf_script(
                    DATASET_SEED.wrapping_mul(31).wrapping_add(s as u64),
                    pool.len(),
                    steps,
                )
                .into_iter()
                .map(|rank| (rank + rotation) % pool.len())
                .collect()
            })
            .collect(),
        store,
        replay: Replay::new(system.topk_config()),
        cache: [0; 3],
    };
    if !gate(&mut workload, &mut acc) {
        return Report::new(&acc, Ledger::new(), pool.len());
    }

    if !args.trace {
        measure(&mut workload, &mut acc, args);
        acc.op(inputs.ndcg5(&system).to_bits() == ndcg5.to_bits());
        let ledger = end_to_end(&acc, setup_s, ndcg5, &system);
        return Report::new(&acc, ledger, pool.len());
    }

    workload.cache = [0; 3];
    let overhead_frac = trace_pass(&mut workload, &mut acc);
    let [hits, misses, evictions] = workload.cache;
    let lookups = (hits + misses).max(1) as f64;
    let sessions = (4 * SESSIONS) as f64;
    let cache = [
        ("query.cache_hit_ratio", hits as f64 / lookups),
        ("query.cache_misses", misses as f64 / sessions),
        ("query.cache_evictions", evictions as f64 / sessions),
    ];
    let traced = Traced {
        ingest,
        overhead_frac,
        replay_entries: workload.replay.entries_decoded,
        facade_span: "core.session_query",
        obs_queries: &queries,
    };
    let mut ledger = finish_traced(&acc, &mut system, traced, args);
    ledger.extend(cache);
    Report::new(&acc, ledger, pool.len())
}
