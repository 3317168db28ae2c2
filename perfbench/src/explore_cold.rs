//! `explore_cold` — the big store served cold.
//!
//! World scale 4.0 (~142k triples, 32k documents), monolithic,
//! `SegmentLayout::Packed`, no posting cache; `Trinit::run(q,
//! Engine::IncrementalTopK)` over a pool of 800 queries (160 per
//! category), cycled. Every
//! serve decodes packed groups and the heavy queries pay thousands of
//! rank-join pulls, so `xkg` posting serve/decode and `query::exec`
//! merge/join do most of the work. Its large build also makes `setup_s`
//! a usable openie → freeze → mine signal.

use trinit_core::openie::IngestStats;
use trinit_core::query::Query;
use trinit_core::xkg::{SegmentLayout, XkgStore};
use trinit_core::{Engine, Trinit};

use crate::common::{
    check, completion_prefix, end_to_end, facade_extras, finish_traced, gate, measure, trace_pass,
    Acc, Ledger, Replay, Report, Traced, Workload, EXTRAS_EVERY,
};
use crate::inputs::{parse_all, reference, Inputs, RefAnswers, StagedBuild};
use crate::Args;

struct ExploreCold<'a> {
    system: &'a Trinit,
    texts: &'a [String],
    queries: &'a [Query],
    refs: &'a [RefAnswers],
    store: &'a XkgStore,
    replay: Replay,
}

impl Workload for ExploreCold<'_> {
    /// One pass over the query set.
    fn epoch(&mut self, acc: &mut Acc, _index: usize) {
        for (i, query) in self.queries.iter().enumerate() {
            let op = acc.probe.open("op.query");
            // Replays first: the facade call then runs as warm as it
            // does in the untraced loop.
            if acc.probe.is_traced() {
                self.replay.before(
                    &mut acc.probe,
                    self.store,
                    self.system.rules(),
                    &self.texts[i],
                    query,
                );
            }
            let q = query.clone();
            let (outcome, ns) = acc
                .probe
                .facade("core.run", || self.system.run(q, Engine::IncrementalTopK));
            let ok = check(&outcome, &self.refs[i]);
            acc.query(&outcome, ns, ok);
            if acc.probe.is_traced() {
                self.replay
                    .after(&mut acc.probe, self.store, self.system.rules(), query);
                if i.is_multiple_of(EXTRAS_EVERY) {
                    let prefix = completion_prefix(&self.texts[i]);
                    facade_extras(&mut acc.probe, self.system, &outcome, &prefix);
                }
            }
            acc.probe.close(op);
        }
    }

    fn distinct_epochs(&self) -> usize {
        1
    }
}

pub fn run(args: &Args) -> Report {
    let scale = if args.smoke { 0.05 } else { 4.0 };
    let setups = if args.smoke { 1 } else { 5 };
    let inputs = Inputs::generate(args.seed, scale);
    // Half of the scale-4 world's granularity candidates: an epoch stays
    // under a second, so each call is timed a dozen times in a run.
    let texts = inputs.query_pool(inputs.all_granularity() / 2);
    let mut acc = Acc::new(args.trace);

    let (mut system, setup_s, ingest) = if args.trace {
        let staged = StagedBuild::run(&inputs, SegmentLayout::Packed, &mut acc.probe);
        let ingest = staged.ingest;
        (staged.into_monolith(), Vec::new(), ingest)
    } else {
        let (system, seconds) = inputs.build_repeated(setups, |o| {
            o.layout(SegmentLayout::Packed);
        });
        (system, seconds, IngestStats::default())
    };

    // Reference: full expansion on a Flat monolith of the same world,
    // so a Packed decode fault cannot hide on both sides of the gate.
    let (flat, _) = inputs.build_timed(|_| {});
    let refs = reference(&flat, &parse_all(&flat, &texts));
    drop(flat);
    let queries = parse_all(&system, &texts);
    let ndcg5 = inputs.ndcg5(&system);

    let store = system.segmented_store().expect("monolithic build").base();
    let mut workload = ExploreCold {
        system: &system,
        texts: &texts,
        queries: &queries,
        refs: &refs,
        store,
        replay: Replay::new(system.topk_config()),
    };
    // Gate (and warm-up): one unmeasured pass, every answer checked.
    if !gate(&mut workload, &mut acc) {
        return Report::new(&acc, Ledger::new(), texts.len());
    }

    if !args.trace {
        measure(&mut workload, &mut acc, args);
        acc.op(inputs.ndcg5(&system).to_bits() == ndcg5.to_bits());
        let ledger = end_to_end(&acc, setup_s, ndcg5, &system);
        return Report::new(&acc, ledger, texts.len());
    }

    let traced = Traced {
        ingest,
        overhead_frac: trace_pass(&mut workload, &mut acc),
        replay_entries: workload.replay.entries_decoded,
        facade_span: "core.run",
        obs_queries: &queries,
    };
    let ledger = finish_traced(&acc, &mut system, traced, args);
    Report::new(&acc, ledger, texts.len())
}
