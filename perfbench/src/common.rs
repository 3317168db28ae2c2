//! Measurement machinery the four workloads share: the sample
//! accumulator, the epoch loop, the per-operation layer replay of a
//! traced pass, and the final metric tables.

use std::collections::BTreeMap;
use std::hint::black_box;

use trinit_core::obs::now_ns;
use trinit_core::openie::IngestStats;
use trinit_core::query::exec::{exact, expand, topk};
use trinit_core::query::{parse, ExecMetrics, Query, TopkConfig};
use trinit_core::relax::{ExpandOptions, RuleSet};
use trinit_core::xkg::{PostingList, ServeKind, SlotPattern, StorageBytes, XkgStore};
use trinit_core::{Completeness, Engine, ObsConfig, QueryOutcome, Stage, Trinit};

use crate::alloc;
use crate::inputs::{ranking_matches, RefAnswers};
use crate::stats::{lower_quartile_u64, median_f64, median_u64, quantile};
use crate::trace::Probe;
use crate::Args;

/// Named metric values of one run.
pub type Ledger = BTreeMap<&'static str, f64>;

/// What a workload hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub ledger: Ledger,
    /// Sample counts behind the figures, printed above them.
    pub samples: String,
}

impl Report {
    pub fn new(acc: &Acc, ledger: Ledger, pool: usize) -> Report {
        let epochs = acc.epochs.max(1);
        Report {
            attempted: acc.attempted,
            failed: acc.failed,
            ledger,
            samples: format!(
                "pool {pool} epochs {} latency_ops_per_epoch {} clock_ops_per_epoch {} latency_samples {}",
                acc.epochs,
                acc.latency_ns.len() / epochs,
                acc.clock_ns.len() / epochs,
                acc.latency_ns.len()
            ),
        }
    }
}

/// Samples and counters gathered while a workload runs.
///
/// Every epoch of a workload is the same operation sequence, so the
/// `i`-th sample of each epoch times the same operation on the same
/// state. The end-to-end figures take, operation by operation, the
/// lower quartile over epochs (see [`typical_ns`]) and only then
/// quantiles or sums over operations.
#[derive(Default)]
pub struct Acc {
    pub probe: Probe,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of every single-query facade call, in operation order.
    pub latency_ns: Vec<u64>,
    /// Wall time of every operation on the throughput clock, in order.
    pub clock_ns: Vec<u64>,
    /// Correct queries completed on the throughput clock.
    pub done: u64,
    pub epochs: usize,
    /// Exact work counters summed over every query outcome.
    pub work: ExecMetrics,
    pub answers: u64,
    pub queries: u64,
    /// Engine stage spans summed over every query outcome.
    pub stage_ns: [u64; Stage::COUNT],
    pub stage_events: [u64; Stage::COUNT],
    pub spans_dropped: u64,
    /// Σ max and Σ mean of per-shard pulls.
    pub shard_pull_max: f64,
    pub shard_pull_mean: f64,
}

impl Acc {
    pub fn new(traced: bool) -> Acc {
        Acc {
            probe: if traced {
                Probe::traced()
            } else {
                Probe::default()
            },
            ..Acc::default()
        }
    }

    /// Counts one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Puts one operation on the throughput clock, with the number of
    /// correct queries it completed.
    pub fn busy(&mut self, ns: u64, queries_done: u64) {
        self.clock_ns.push(ns);
        self.done += queries_done;
    }

    /// A latency sample that stays off the throughput clock.
    pub fn latency_only(&mut self, ns: u64) {
        self.latency_ns.push(ns);
    }

    /// One single-query facade call: latency sample, throughput, and
    /// the outcome's work ledger. Returns whether it was correct.
    pub fn query(&mut self, outcome: &QueryOutcome, ns: u64, ok: bool) -> bool {
        let ok = ok && outcome.completeness == Completeness::Exact;
        self.op(ok);
        self.latency_ns.push(ns);
        self.busy(ns, u64::from(ok));
        self.observe(outcome);
        ok
    }

    /// Folds an outcome's counters and engine spans into the ledger.
    pub fn observe(&mut self, outcome: &QueryOutcome) {
        self.work.merge(&outcome.metrics);
        self.answers += outcome.answers.len() as u64;
        self.queries += 1;
        let trace = outcome.trace();
        self.spans_dropped += trace.dropped;
        for span in &trace.spans {
            self.stage_ns[span.stage.idx()] += span.dur_ns;
            self.stage_events[span.stage.idx()] += 1;
        }
        if !outcome.shard_metrics.is_empty() {
            let pulls: Vec<usize> = outcome.shard_metrics.iter().map(|m| m.pulls).collect();
            let total: usize = pulls.iter().sum();
            self.shard_pull_max += pulls.iter().copied().max().unwrap_or(0) as f64;
            self.shard_pull_mean += total as f64 / pulls.len() as f64;
        }
    }
}

/// Runs whole epochs until `seconds` of wall time have passed (at least
/// `min_epochs`). Epochs are fixed operation sequences, so both sides of
/// an A/B do identical work per epoch.
pub fn run_epochs(
    acc: &mut Acc,
    seconds: f64,
    min_epochs: usize,
    mut epoch: impl FnMut(&mut Acc, usize),
) {
    let budget_ns = (seconds * 1e9) as u64;
    let start = now_ns();
    let mut index = 0;
    while index < min_epochs || now_ns() - start < budget_ns {
        epoch(acc, index);
        acc.epochs += 1;
        index += 1;
    }
}

/// The typical time of each operation of an epoch: `samples` holds
/// `epochs` repetitions of the same operation sequence back to back;
/// the result is, position by position, the lower quartile over the
/// epochs. The host slows down for tens of seconds at a time (a busy
/// neighbour; the guest sees no steal), so over a run an operation's
/// times cluster at the speed of the quiet host with a long tail above;
/// the lower quartile sits in the cluster while the median wanders
/// with the share of the run the neighbour was busy.
pub fn typical_ns(samples: &[u64], epochs: usize) -> Vec<f64> {
    let per_epoch = samples.len() / epochs.max(1);
    assert_eq!(
        per_epoch * epochs,
        samples.len(),
        "every epoch runs the same operations"
    );
    let mut column = vec![0u64; epochs];
    (0..per_epoch)
        .map(|position| {
            for (epoch, slot) in column.iter_mut().enumerate() {
                *slot = samples[epoch * per_epoch + position];
            }
            lower_quartile_u64(&mut column)
        })
        .collect()
}

/// Score tolerance of the correctness gate. The engines sum the same
/// log-probabilities in different orders, so top-k and full expansion
/// agree to the last few ulps, not bit for bit; this is the bound the
/// repository's own equivalence tests use (`trinit_shard::testkit`).
pub const SCORE_TOL: f64 = 1e-9;

/// True if the outcome equals its reference ranking.
pub fn check(outcome: &QueryOutcome, want: &RefAnswers) -> bool {
    ranking_matches(&outcome.answers, want, SCORE_TOL)
}

/// The end-to-end metric table of a finished untraced run.
pub fn end_to_end(acc: &Acc, mut setup_s: Vec<f64>, ndcg5: f64, system: &Trinit) -> Ledger {
    let mut latency = typical_ns(&acc.latency_ns, acc.epochs);
    latency.sort_unstable_by(f64::total_cmp);
    let at = |q: f64| quantile(&latency, q);
    let clock_s: f64 = typical_ns(&acc.clock_ns, acc.epochs).iter().sum::<f64>() / 1e9;
    let done_per_epoch = acc.done as f64 / acc.epochs.max(1) as f64;
    let mut ledger = Ledger::new();
    ledger.insert("setup_s", median_f64(&mut setup_s));
    ledger.insert("query_p50_us", at(0.5) / 1e3);
    ledger.insert("query_p99_us", at(0.99) / 1e3);
    ledger.insert("queries_per_s", done_per_epoch / clock_s);
    ledger.insert("ndcg5", ndcg5);
    ledger.insert("index_bytes_per_triple", index_bytes_per_triple(system));
    ledger.insert("peak_rss_mb", peak_rss_mb());
    ledger
}

/// Storage accounting summed over every live store slice.
pub fn storage(system: &Trinit) -> (StorageBytes, usize) {
    let mut slices: Vec<&XkgStore> = Vec::new();
    if let Some(seg) = system.segmented_store() {
        slices.extend(seg.segments());
    }
    if let Some(sharded) = system.sharded_store() {
        slices.extend(sharded.shards());
        slices.extend(sharded.delta_slices().map(|(view, _)| view));
    }
    let mut sum = StorageBytes::default();
    for s in slices {
        let b = s.storage_bytes();
        sum.permutations += b.permutations;
        sum.permutation_directories += b.permutation_directories;
        sum.posting_strata += b.posting_strata;
        sum.posting_directories += b.posting_directories;
        sum.dict += b.dict;
        sum.triples += b.triples;
        sum.provenance += b.provenance;
    }
    (sum, system.stats().total_triples())
}

pub fn index_bytes_per_triple(system: &Trinit) -> f64 {
    let (bytes, triples) = storage(system);
    bytes.bytes_per_triple(triples)
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-query layer replay of a traced pass: the same inputs pushed
/// through each layer's public function under the operation's span —
/// `parser::parse`; `XkgStore::lookup` and `PostingList::build` for
/// every pattern and the shapes derived from it; the three engines
/// called directly.
pub struct Replay {
    topk: TopkConfig,
    expand: ExpandOptions,
    /// Entries of every posting list the replays built.
    pub entries_decoded: u64,
}

impl Replay {
    pub fn new(topk: &TopkConfig) -> Replay {
        Replay {
            topk: topk.clone(),
            expand: ExpandOptions::default(),
            entries_decoded: 0,
        }
    }

    /// Replays one query against `store`, the monolithic slice the
    /// layers read: parser, lookups and serves, and top-k, before the
    /// facade call.
    pub fn before(
        &mut self,
        probe: &mut Probe,
        store: &XkgStore,
        rules: &RuleSet,
        text: &str,
        query: &Query,
    ) {
        let _ = probe.time("query.parse", || black_box(parse(store, text).is_ok()));
        for pattern in &query.patterns {
            let full = pattern.slot_pattern();
            // The pattern as written plus the single-slot shapes the
            // relaxations and the anchored strata serve it through.
            let shapes = [
                Some(full),
                full.p.map(SlotPattern::with_p),
                full.s.map(|s| SlotPattern::new(Some(s), None, None)),
                full.o.map(|o| SlotPattern::new(None, None, Some(o))),
            ];
            for shape in shapes.into_iter().flatten() {
                let _ = probe.time("xkg.lookup", || black_box(store.lookup(&shape).len()));
                let (served, _) = probe.time("xkg.serve", || {
                    let list = PostingList::build(store, &shape);
                    (list.len(), list.serve_kind())
                });
                self.entries_decoded += served.0 as u64;
                probe.rename_last(match served.1 {
                    ServeKind::Predicate | ServeKind::Unbound => "xkg.serve.borrowed",
                    ServeKind::Subject | ServeKind::Object => "xkg.serve.anchored",
                    ServeKind::Range => "xkg.serve.range",
                    _ => "xkg.serve.filtered",
                });
            }
        }
        self.topk(probe, store, rules, query);
    }

    /// The engines called directly, after the facade call. Top-k runs
    /// once before and once after it, so its median is as warm as the
    /// facade call's and `core.facade_overhead_us` compares like with like.
    pub fn after(&mut self, probe: &mut Probe, store: &XkgStore, rules: &RuleSet, query: &Query) {
        self.topk(probe, store, rules, query);
        let _ = probe.time("query.expand", || {
            black_box(expand::run(store, query, rules, &self.expand).0.len())
        });
        let _ = probe.time("query.exact", || {
            let mut metrics = ExecMetrics::default();
            black_box(exact::evaluate(store, query, &query.patterns, &[], 1.0, &mut metrics).len())
        });
    }

    fn topk(&self, probe: &mut Probe, store: &XkgStore, rules: &RuleSet, query: &Query) {
        let _ = probe.time("query.topk", || {
            black_box(
                topk::run_governed(store, query, rules, &self.topk, None)
                    .answers
                    .len(),
            )
        });
    }
}

/// Median duration of the traced spans called `name`, in nanoseconds.
pub fn span_median_ns(probe: &Probe, name: &str) -> f64 {
    probe
        .tracer
        .as_ref()
        .map_or(0.0, |t| median_u64(&mut t.durations(name)))
}

/// Total duration of the traced spans called `name`, in seconds.
pub fn span_total_s(probe: &Probe, name: &str) -> f64 {
    probe
        .tracer
        .as_ref()
        .map_or(0.0, |t| t.durations(name).iter().sum::<u64>() as f64 / 1e9)
}

/// The exact counters of a traced pass, for the determinism self-check:
/// two passes over the same operations must agree on every one.
pub fn exact_counters(acc: &Acc) -> Vec<(&'static str, u64)> {
    let w = &acc.work;
    vec![
        ("pulls", w.pulls as u64),
        ("postings_scanned", w.postings_scanned as u64),
        ("join_candidates", w.join_candidates as u64),
        ("posting_lists_built", w.posting_lists_built as u64),
        ("relaxations_opened", w.relaxations_opened as u64),
        ("early_cutoffs", w.early_cutoffs as u64),
        ("anchored_serves", w.anchored_serves as u64),
        ("ranged_serves", w.ranged_serves as u64),
        ("posting_sorts", w.posting_sorts as u64),
        ("answers", acc.answers),
    ]
}

/// Layer metrics every workload derives the same way from its traced
/// pass: set-up stages, layer replays, the work ledger and the engine's
/// own stage spans. Workload-specific metrics are inserted on top.
fn per_layer_common(
    acc: &Acc,
    system: &Trinit,
    ingest: &IngestStats,
    replay_entries: u64,
    facade_span: &'static str,
) -> Ledger {
    let p = &acc.probe;
    let mut l = Ledger::new();
    let q = acc.queries.max(1) as f64;

    let openie_s = span_total_s(p, "openie.ingest");
    l.insert("openie.ingest_s", openie_s);
    l.insert(
        "openie.sentences_per_s",
        ingest.sentences as f64 / openie_s.max(1e-9),
    );
    l.insert("openie.extractions", ingest.extractions as f64);
    l.insert("openie.link_rate", ingest.link_rate());

    let freeze_s = span_total_s(p, "xkg.freeze");
    let (bytes, triples) = storage(system);
    l.insert("xkg.freeze_s", freeze_s);
    l.insert(
        "xkg.freeze_triples_per_s",
        triples as f64 / freeze_s.max(1e-9),
    );
    l.insert("xkg.lookup_ns", span_median_ns(p, "xkg.lookup"));
    l.insert(
        "xkg.serve_ns.borrowed",
        span_median_ns(p, "xkg.serve.borrowed"),
    );
    l.insert(
        "xkg.serve_ns.anchored",
        span_median_ns(p, "xkg.serve.anchored"),
    );
    l.insert(
        "xkg.serve_ns.filtered",
        span_median_ns(p, "xkg.serve.filtered"),
    );
    l.insert("xkg.serve_ns.range", span_median_ns(p, "xkg.serve.range"));
    l.insert("xkg.serve_entries_decoded", replay_entries as f64 / q);
    l.insert(
        "xkg.perm_bytes",
        (bytes.permutations + bytes.permutation_directories) as f64,
    );
    l.insert("xkg.strata_bytes", bytes.posting_strata as f64);
    l.insert("xkg.dir_bytes", bytes.posting_directories as f64);
    l.insert(
        "xkg.payload_bytes",
        (bytes.dict + bytes.triples + bytes.provenance) as f64,
    );

    l.insert("relax.mine_s", span_total_s(p, "relax.mine"));
    l.insert("relax.rules", system.rules().len() as f64);

    let topk_ns = span_median_ns(p, "query.topk");
    l.insert("query.parse_us", span_median_ns(p, "query.parse") / 1e3);
    l.insert("query.topk_us", topk_ns / 1e3);
    l.insert("query.expand_us", span_median_ns(p, "query.expand") / 1e3);
    l.insert("query.exact_us", span_median_ns(p, "query.exact") / 1e3);
    let w = &acc.work;
    l.insert("query.pulls", w.pulls as f64 / q);
    l.insert("query.postings_scanned", w.postings_scanned as f64 / q);
    l.insert("query.join_candidates", w.join_candidates as f64 / q);
    l.insert(
        "query.posting_lists_built",
        w.posting_lists_built as f64 / q,
    );
    l.insert("query.relaxations_opened", w.relaxations_opened as f64 / q);
    l.insert("query.early_cutoffs", w.early_cutoffs as f64 / q);
    l.insert("query.anchored_serves", w.anchored_serves as f64 / q);
    l.insert("query.ranged_serves", w.ranged_serves as f64 / q);
    l.insert("query.posting_sorts", w.posting_sorts as f64);
    l.insert(
        "query.useful_pull_ratio",
        acc.answers as f64 / (w.pulls.max(1)) as f64,
    );
    l.insert(
        "query.stage_ns.variant",
        acc.stage_ns[Stage::Variant.idx()] as f64 / q,
    );
    l.insert(
        "query.stage_ns.join_round",
        acc.stage_ns[Stage::JoinRound.idx()] as f64 / q,
    );
    l.insert(
        "query.threshold_events",
        acc.stage_events[Stage::Threshold.idx()] as f64 / q,
    );

    let facade_ns = span_median_ns(p, facade_span);
    l.insert("core.facade_overhead_us", (facade_ns - topk_ns) / 1e3);
    l.insert("core.explain_us", span_median_ns(p, "core.explain") / 1e3);
    l.insert("core.suggest_us", span_median_ns(p, "core.suggest") / 1e3);
    l.insert("core.complete_us", span_median_ns(p, "core.complete") / 1e3);
    l.insert(
        "core.introduced_by_us",
        span_median_ns(p, "core.introduced_by") / 1e3,
    );
    l.insert(
        "core.completer_build_s",
        span_total_s(p, "core.completer_build"),
    );

    let spans: u64 = acc.stage_events.iter().sum();
    l.insert("obs.spans_per_query", spans as f64 / q);
    l.insert("obs.spans_dropped", acc.spans_dropped as f64);

    // Armed around facade calls only, so these are the engine's
    // allocations per query answered in the traced rounds.
    let (calls, alloc_bytes) = alloc::totals();
    l.insert("bench.alloc_per_query", calls as f64 / q);
    l.insert("bench.alloc_bytes_per_query", alloc_bytes as f64 / q);
    per_layer_shard(acc, &mut l);
    l
}

/// The sharded stages' span time relative to the query spans' (the
/// windowed election spans of concurrent streams overlap, so a ratio
/// can exceed 1), the work imbalance across shards, and the scheduler
/// counters. All read 0 on a monolithic system.
fn per_layer_shard(acc: &Acc, l: &mut Ledger) {
    let query_ns = acc.stage_ns[Stage::Query.idx()].max(1) as f64;
    let q = acc.queries.max(1) as f64;
    l.insert(
        "shard.seed_task_ratio",
        acc.stage_ns[Stage::SeedTask.idx()] as f64 / query_ns,
    );
    l.insert(
        "shard.election_ratio",
        acc.stage_ns[Stage::Election.idx()] as f64 / query_ns,
    );
    l.insert(
        "shard.merge_ratio",
        acc.stage_ns[Stage::Merge.idx()] as f64 / query_ns,
    );
    l.insert("shard.seed_steals", acc.work.seed_steals as f64 / q);
    l.insert("shard.seed_skips", acc.work.seed_skips as f64 / q);
    l.insert(
        "shard.pull_imbalance",
        if acc.shard_pull_mean > 0.0 {
            acc.shard_pull_max / acc.shard_pull_mean
        } else {
            0.0
        },
    );
}

/// Interleaved, order-flipped A/B of `ObsConfig::default()` against
/// `ObsConfig::off()`: the cost of shipping with tracing on, as a
/// fraction of the off-side median.
fn obs_on_cost(system: &mut Trinit, rounds: usize, mut pass: impl FnMut(&Trinit) -> u64) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let order = if round % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        };
        for enabled in order {
            system.set_obs(if enabled {
                ObsConfig::default()
            } else {
                ObsConfig::off()
            });
            let ns = pass(system);
            if enabled {
                on.push(ns)
            } else {
                off.push(ns)
            }
        }
    }
    system.set_obs(ObsConfig::default());
    median_u64(&mut on) / median_u64(&mut off).max(1.0) - 1.0
}

/// Where a traced run writes its span file: `perfbench-traces/` in the
/// cargo target directory the binary itself was built into (the
/// repository's `.gitignore` excludes it), or the working directory if
/// the executable's path cannot be resolved.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.parent()
                .and_then(|profile| profile.parent())
                .map(|t| t.to_path_buf())
        })
        .unwrap_or_default();
    target
        .join("perfbench-traces")
        .join(format!("{}.trace.json", args.workload))
}

/// A traced pass prices the explorer calls on every `EXTRAS_EVERY`th
/// query only: `suggest` walks whole predicate groups and would evict
/// what the next query's facade call is about to read.
pub const EXTRAS_EVERY: usize = 8;

/// The facade calls around a query an explorer also makes — explain,
/// suggest, complete, and the semi-naive delta question — timed under
/// the operation's span so every workload prices them on its own store.
pub fn facade_extras(probe: &mut Probe, system: &Trinit, outcome: &QueryOutcome, prefix: &str) {
    let _ = probe.time("core.suggest", || black_box(system.suggest(outcome).len()));
    let _ = probe.time("core.explain", || {
        black_box(system.explain(outcome, 0).is_some())
    });
    let _ = probe.time("core.complete", || {
        black_box(system.complete(prefix, 10).len())
    });
    let query = outcome.query.clone();
    let _ = probe.time("core.introduced_by", || {
        black_box(system.answers_introduced_by(query).answers.len())
    });
}

/// A completion prefix for a query text: the first four characters of
/// its first constant term.
pub fn completion_prefix(text: &str) -> String {
    text.split_whitespace()
        .find(|t| !t.starts_with('?') && !t.starts_with('\''))
        .unwrap_or("a")
        .chars()
        .take(4)
        .collect()
}

/// One workload's measured loop, callable with a traced or an untraced
/// accumulator. An epoch is a fixed operation sequence; epochs with the
/// same `index % distinct_epochs()` repeat the same work exactly.
pub trait Workload {
    fn epoch(&mut self, acc: &mut Acc, index: usize);
    fn distinct_epochs(&self) -> usize;
    /// False where thread scheduling makes work counters vary.
    fn counters_repeat(&self) -> bool {
        true
    }
}

/// The end-to-end measurement: whole epochs for `seconds`.
pub fn measure(workload: &mut impl Workload, acc: &mut Acc, args: &Args) {
    let min_epochs = if args.smoke { 1 } else { 3 };
    let seconds = if args.smoke { 0.0 } else { args.seconds };
    run_epochs(acc, seconds, min_epochs, |acc, i| workload.epoch(acc, i));
}

/// The traced pass: two identical rounds over the distinct epochs with
/// spans, replays and allocation counting on (the rounds must agree on
/// every exact counter — the determinism self-check), then the same
/// rounds untraced to price the tracing itself. Returns the tracing
/// overhead fraction; a counter mismatch counts as a failed operation.
pub fn trace_pass(workload: &mut impl Workload, acc: &mut Acc) -> f64 {
    let epochs = workload.distinct_epochs();
    let mut rounds: Vec<Vec<(&'static str, u64)>> = Vec::new();
    let mut before = exact_counters(acc);
    before.push(("allocs", alloc::totals().0));
    for _ in 0..2 {
        run_epochs(acc, 0.0, epochs, |acc, i| workload.epoch(acc, i));
        let mut after = exact_counters(acc);
        after.push(("allocs", alloc::totals().0));
        rounds.push(
            after
                .iter()
                .zip(&before)
                .map(|(a, b)| (a.0, a.1 - b.1))
                .collect(),
        );
        before = after;
    }
    if workload.counters_repeat() {
        let same = rounds[0] == rounds[1];
        acc.op(same);
        if !same {
            eprintln!("perfbench: exact counters differ between identical rounds:");
            eprintln!("  round 1 {:?}\n  round 2 {:?}", rounds[0], rounds[1]);
        }
    }
    let mut plain = Acc::new(false);
    run_epochs(&mut plain, 0.0, 2 * epochs, |acc, i| workload.epoch(acc, i));
    acc.attempted += plain.attempted;
    acc.failed += plain.failed;
    median_u64(&mut acc.latency_ns.clone()) / median_u64(&mut plain.latency_ns).max(1.0) - 1.0
}

/// What a traced run hands to [`finish_traced`] besides its samples.
pub struct Traced<'a> {
    pub ingest: IngestStats,
    /// Entries served by the layer replays (`Replay::entries_decoded`).
    pub replay_entries: u64,
    /// Span name of the workload's single-query facade call.
    pub facade_span: &'static str,
    pub overhead_frac: f64,
    /// Queries the obs on/off A/B runs through `Trinit::run`.
    pub obs_queries: &'a [Query],
}

/// Closes a traced run: the shared per-layer table, the obs on/off
/// A/B, and the span file.
pub fn finish_traced(acc: &Acc, system: &mut Trinit, traced: Traced<'_>, args: &Args) -> Ledger {
    let mut ledger = per_layer_common(
        acc,
        system,
        &traced.ingest,
        traced.replay_entries,
        traced.facade_span,
    );
    ledger.insert("bench.trace_overhead_frac", traced.overhead_frac);
    let rounds = if args.smoke { 2 } else { 10 };
    // A slice of the pool is enough for a median of ten rounds.
    let obs_queries = &traced.obs_queries[..traced.obs_queries.len().min(200)];
    let on_cost = obs_on_cost(system, rounds, |system| {
        obs_queries
            .iter()
            .map(|q| {
                let q = q.clone();
                let start = trinit_core::obs::now_ns();
                black_box(system.run(q, Engine::IncrementalTopK).answers.len());
                trinit_core::obs::now_ns() - start
            })
            .sum()
    });
    ledger.insert("obs.on_cost_frac", on_cost);
    if let Some(tracer) = &acc.probe.tracer {
        if let Err(e) = tracer.write_json(&trace_path(args)) {
            eprintln!("perfbench: could not write the trace file: {e}");
        }
    }
    ledger
}

/// Runs the gate epoch (also the warm-up) with its own accumulator and
/// folds the outcome into `acc`. False if any answer was wrong.
pub fn gate(workload: &mut impl Workload, acc: &mut Acc) -> bool {
    let mut gate = Acc::new(false);
    for index in 0..workload.distinct_epochs() {
        workload.epoch(&mut gate, index);
    }
    acc.attempted += gate.attempted;
    acc.failed += gate.failed;
    gate.failed == 0
}
