//! `live_ingest` — writes beside reads through one store and cache.
//!
//! World scale 1.0, monolithic, default layout,
//! `Trinit::enable_posting_cache(256)`. An epoch starts from a freshly
//! built system and runs 40 cycles of: `Trinit::ingest` of a 150-triple
//! batch (120 new extraction triples over Zipf-drawn world entities with
//! seeded confidences + 30 re-observed KG triples → provenance absorbs;
//! triples are pre-generated, `fill` only interns and calls
//! `add_extracted`), then 30 `Trinit::run` queries from a 400-query pool and 2
//! `answers_introduced_by`; `Trinit::compact` every 20 cycles. It prices
//! the delta re-freeze, generation-stamped cache invalidation, the
//! segmented dispatch route (slices = 2) and compaction stalls: a
//! read-path gain that taxes ingest or compaction shows here. Every
//! epoch ingests the same batches, so epochs do identical work and end in
//! the same store, which is compared against a from-scratch rebuild of
//! base ∪ all batches.

use trinit_core::query::Query;
use trinit_core::xkg::SegmentLayout;
use trinit_core::{Completeness, Engine, Trinit};

use crate::common::{
    check, completion_prefix, end_to_end, facade_extras, finish_traced, gate, measure,
    span_median_ns, trace_pass, Acc, Ledger, Replay, Report, Traced, Workload, EXTRAS_EVERY,
};
use crate::inputs::{
    fill_batch, ingest_batch, parse_all, reference, BatchTriple, Inputs, RefAnswers, StagedBuild,
};
use crate::Args;

const FRESH_TRIPLES: usize = 120;
const REOBSERVED_TRIPLES: usize = 30;
const QUERIES_PER_CYCLE: usize = 30;
const INTRODUCED_PER_CYCLE: usize = 2;
const CACHE_CAPACITY: usize = 256;

struct LiveIngest<'a> {
    inputs: &'a Inputs,
    texts: &'a [String],
    batches: &'a [Vec<BatchTriple>],
    compact_every: usize,
    /// Rankings of the from-scratch rebuild of base ∪ all batches.
    final_refs: &'a [RefAnswers],
    /// Every epoch's fresh build is one set-up sample.
    setup_s: Vec<f64>,
    /// The system the last epoch left behind (all batches, compacted).
    system: Option<Trinit>,
    replay: Replay,
    tally: Tally,
}

/// What the store reported about its own write path, summed over epochs.
#[derive(Default)]
struct Tally {
    refrozen_triples: u64,
    refreeze_ns: u64,
    compacted_triples: u64,
    compact_ns: u64,
    delta_at_compact: u64,
    compactions: u64,
    /// Posting-cache hits, misses, evictions.
    cache: [u64; 3],
}

impl Workload for LiveIngest<'_> {
    fn epoch(&mut self, acc: &mut Acc, _index: usize) {
        drop(self.system.take());
        let (mut system, seconds) = self.inputs.build_timed(|_| {});
        self.setup_s.push(seconds);
        system.enable_posting_cache(CACHE_CAPACITY);
        let queries = parse_all(&system, self.texts);
        let n = queries.len();

        for (cycle, batch) in self.batches.iter().enumerate() {
            let op = acc.probe.open("op.ingest");
            let (appended, ns) = acc
                .probe
                .facade("core.ingest", || system.ingest(|b| fill_batch(b, batch)));
            let seg = system.segmented_store().expect("monolithic build");
            acc.probe.reported("xkg.refreeze", seg.last_ingest_ns());
            self.tally.refreeze_ns += seg.last_ingest_ns();
            self.tally.refrozen_triples += seg.delta_len() as u64;
            acc.busy(ns, 0);
            acc.op(appended > 0);
            acc.probe.close(op);

            for j in 0..QUERIES_PER_CYCLE {
                let i = (cycle * QUERIES_PER_CYCLE + j) % n;
                let op = acc.probe.open("op.query");
                if acc.probe.is_traced() && j % 4 == 0 {
                    let base = system.segmented_store().expect("monolithic build").base();
                    self.replay.before(
                        &mut acc.probe,
                        base,
                        system.rules(),
                        &self.texts[i],
                        &queries[i],
                    );
                }
                let q = queries[i].clone();
                let (outcome, ns) = acc
                    .probe
                    .facade("core.run", || system.run(q, Engine::IncrementalTopK));
                // Mid-epoch rankings have no precomputed reference; the
                // epoch's end state is checked against the rebuild.
                acc.query(&outcome, ns, true);
                if acc.probe.is_traced() && j % 4 == 0 {
                    let base = system.segmented_store().expect("monolithic build").base();
                    self.replay
                        .after(&mut acc.probe, base, system.rules(), &queries[i]);
                }
                if acc.probe.is_traced() && j == 0 && cycle.is_multiple_of(EXTRAS_EVERY) {
                    let prefix = completion_prefix(&self.texts[i]);
                    facade_extras(&mut acc.probe, &system, &outcome, &prefix);
                }
                acc.probe.close(op);
            }
            for j in 0..INTRODUCED_PER_CYCLE {
                let q = queries[(cycle * INTRODUCED_PER_CYCLE + j) % n].clone();
                let (outcome, ns) = acc
                    .probe
                    .facade("core.introduced_by", || system.answers_introduced_by(q));
                acc.busy(ns, 0);
                acc.op(outcome.completeness == Completeness::Exact);
            }

            if (cycle + 1) % self.compact_every == 0 {
                let seg = system.segmented_store().expect("monolithic build");
                self.tally.delta_at_compact += seg.delta_len() as u64;
                self.tally.compacted_triples += seg.len() as u64;
                let ((), ns) = acc.probe.facade("core.compact", || system.compact());
                let seg = system.segmented_store().expect("monolithic build");
                acc.probe.reported("xkg.compact", seg.last_compact_ns());
                self.tally.compact_ns += seg.last_compact_ns();
                self.tally.compactions += 1;
                acc.busy(ns, 0);
                acc.op(!system.has_delta());
            }
        }

        // End state: base ∪ all batches, compacted — must rank every
        // query exactly as the from-scratch rebuild does.
        for (query, want) in queries.iter().zip(self.final_refs) {
            let outcome = system.run(query.clone(), Engine::IncrementalTopK);
            acc.op(outcome.completeness == Completeness::Exact && check(&outcome, want));
        }
        if let Some(cache) = system.posting_cache() {
            let stats = cache.stats();
            self.tally.cache[0] += stats.hits as u64;
            self.tally.cache[1] += stats.misses as u64;
            self.tally.cache[2] += stats.evictions as u64;
        }
        self.system = Some(system);
    }

    fn distinct_epochs(&self) -> usize {
        1
    }
}

pub fn run(args: &Args) -> Report {
    let scale = if args.smoke { 0.05 } else { 1.0 };
    let (cycles, compact_every) = if args.smoke { (4, 2) } else { (40, 20) };
    let inputs = Inputs::generate(args.seed, scale);
    let texts = inputs.query_pool(inputs.all_granularity());
    let batches: Vec<Vec<BatchTriple>> = (0..cycles)
        .map(|c| ingest_batch(&inputs, c, FRESH_TRIPLES, REOBSERVED_TRIPLES))
        .collect();
    let mut acc = Acc::new(args.trace);

    // The from-scratch rebuild: the staged base plus every batch, frozen
    // once, under the rules the live system mined from the base.
    let staged = StagedBuild::run(&inputs, SegmentLayout::Flat, &mut acc.probe);
    let ingest = staged.ingest;
    let mut builder = staged.builder;
    for batch in &batches {
        fill_batch(&mut builder, batch);
    }
    let rebuilt = Trinit::from_parts(builder.build(), staged.rules);
    let final_refs = reference(&rebuilt, &parse_all(&rebuilt, &texts));
    drop(rebuilt);

    let mut workload = LiveIngest {
        inputs: &inputs,
        texts: &texts,
        batches: &batches,
        compact_every,
        final_refs: &final_refs,
        setup_s: Vec::new(),
        system: None,
        replay: Replay::new(&trinit_core::query::TopkConfig::default()),
        tally: Tally::default(),
    };
    // Scored before any batch lands, so it does not depend on `--seed`.
    let (fresh, seconds) = inputs.build_timed(|_| {});
    workload.setup_s.push(seconds);
    let ndcg5 = inputs.ndcg5(&fresh);
    acc.op(inputs.ndcg5(&fresh).to_bits() == ndcg5.to_bits());
    drop(fresh);
    if !gate(&mut workload, &mut acc) {
        return Report::new(&acc, Ledger::new(), texts.len());
    }

    if !args.trace {
        measure(&mut workload, &mut acc, args);
        let system = workload
            .system
            .take()
            .expect("measured epochs left a system");
        let ledger = end_to_end(&acc, workload.setup_s, ndcg5, &system);
        return Report::new(&acc, ledger, texts.len());
    }

    workload.tally = Tally::default();
    let overhead_frac = trace_pass(&mut workload, &mut acc);
    let per_s = |count: u64, ns: u64| count as f64 / (ns.max(1) as f64 / 1e9);
    let batch_triples = (FRESH_TRIPLES + REOBSERVED_TRIPLES) as f64;
    let lookups = (workload.tally.cache[0] + workload.tally.cache[1]).max(1) as f64;
    let epochs = 4.0;
    let ingest_only = [
        (
            "xkg.refreeze_triples_per_s",
            per_s(workload.tally.refrozen_triples, workload.tally.refreeze_ns),
        ),
        (
            "xkg.delta_triples_at_compact",
            workload.tally.delta_at_compact as f64 / workload.tally.compactions.max(1) as f64,
        ),
        (
            "xkg.compact_triples_per_s",
            per_s(workload.tally.compacted_triples, workload.tally.compact_ns),
        ),
        (
            "core.ingest_triples_per_s",
            batch_triples / (span_median_ns(&acc.probe, "core.ingest").max(1.0) / 1e9),
        ),
        (
            "core.compactions_per_s",
            1e9 / span_median_ns(&acc.probe, "core.compact").max(1.0),
        ),
        (
            "query.cache_hit_ratio",
            workload.tally.cache[0] as f64 / lookups,
        ),
        (
            "query.cache_misses",
            workload.tally.cache[1] as f64 / epochs,
        ),
        (
            "query.cache_evictions",
            workload.tally.cache[2] as f64 / epochs,
        ),
    ];
    let mut system = workload.system.take().expect("traced epochs left a system");
    let queries: Vec<Query> = parse_all(&system, &texts);
    let traced = Traced {
        ingest,
        overhead_frac,
        replay_entries: workload.replay.entries_decoded,
        facade_span: "core.run",
        obs_queries: &queries,
    };
    let mut ledger = finish_traced(&acc, &mut system, traced, args);
    ledger.extend(ingest_only);
    Report::new(&acc, ledger, texts.len())
}
