//! Tier-1 gate on exact work counters: E1's 70 graded queries run
//! through every route a query can take — top-k on a monolith and at
//! 3 partitions, the monolith with a live delta (`run` and
//! `answers_introduced_by`) and both references — and each route's
//! summed `ExecMetrics` must equal the committed `tests/counters.json`.
//!
//! The counters are deterministic, so any change to them is a change
//! to the work a query does. A change that moves one on purpose rewrites
//! the file in the same diff and says why; on a mismatch this test
//! writes what it measured to `counters.json` under the test target's
//! temporary directory.

use trinit_core::query::exec::expand;
use trinit_core::query::{ExecMetrics, Query};
use trinit_core::relax::{QTerm, RuleSet};
use trinit_core::shard::ShardedStore;
use trinit_core::xkg::SegmentLayout;
use trinit_core::{Engine, Trinit, TrinitBuilder};
use trinit_eval::{build_world, generate_benchmark, BenchmarkConfig, EvalConfig};

/// Confidence of every delta triple.
const DELTA_CONFIDENCE: f32 = 0.75;

/// One route's counters, every field by name (a field added to
/// `ExecMetrics` fails to compile here until it is written out).
fn fields(m: &ExecMetrics) -> Vec<(&'static str, usize)> {
    let ExecMetrics {
        posting_lists_built,
        shared_cache_hits,
        postings_scanned,
        relaxations_opened,
        rewritings_evaluated,
        join_candidates,
        pulls,
        early_cutoffs,
        anchored_serves,
        ranged_serves,
        posting_sorts,
        approx_cutoffs,
        seed_steals,
        deadline_cutoffs,
        budget_cutoffs,
        seed_skips,
        probe_lookups,
        probed_streams,
        restriction_scans,
    } = *m;
    vec![
        ("posting_lists_built", posting_lists_built),
        ("shared_cache_hits", shared_cache_hits),
        ("postings_scanned", postings_scanned),
        ("relaxations_opened", relaxations_opened),
        ("rewritings_evaluated", rewritings_evaluated),
        ("join_candidates", join_candidates),
        ("pulls", pulls),
        ("early_cutoffs", early_cutoffs),
        ("anchored_serves", anchored_serves),
        ("ranged_serves", ranged_serves),
        ("posting_sorts", posting_sorts),
        ("approx_cutoffs", approx_cutoffs),
        ("seed_steals", seed_steals),
        ("deadline_cutoffs", deadline_cutoffs),
        ("budget_cutoffs", budget_cutoffs),
        ("seed_skips", seed_skips),
        ("probe_lookups", probe_lookups),
        ("probed_streams", probed_streams),
        ("restriction_scans", restriction_scans),
    ]
}

/// The sum of `run`'s counters over `queries`.
fn summed(queries: &[Query], mut run: impl FnMut(Query) -> ExecMetrics) -> ExecMetrics {
    let mut total = ExecMetrics::default();
    for query in queries {
        total.merge(&run(query.clone()));
    }
    total
}

/// The delta: per graded query whose terms the store knows, one
/// extracted triple that matches it, each variable a fresh resource.
fn ingest_delta(sys: &mut Trinit, queries: &[Query]) -> usize {
    let matched: Vec<_> = queries
        .iter()
        .filter(|q| q.unknown_terms.is_empty())
        .collect();
    sys.ingest(|b| {
        let source = b.intern_source("counters:delta");
        for (i, query) in matched.iter().enumerate() {
            for pattern in &query.patterns {
                let mut term = |t: QTerm| match t {
                    QTerm::Term(id) => id,
                    QTerm::Var(v) => b.dict_mut().resource(&format!("delta{i}v{}", v.0)),
                };
                let (s, p, o) = (term(pattern.s), term(pattern.p), term(pattern.o));
                b.add_extracted(s, p, o, DELTA_CONFIDENCE, source);
            }
        }
    })
}

/// The counters file: the setup header, then each route's fields.
fn render(header: &[(&str, String)], routes: &[(&str, ExecMetrics)]) -> String {
    let mut out = String::from("{\n  \"setup\": {\n");
    let lines: Vec<_> = header
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    out += &lines.join(",\n");
    out += "\n  },\n  \"routes\": {\n";
    let routes: Vec<_> = routes
        .iter()
        .map(|(name, m)| {
            let lines: Vec<_> = (fields(m).into_iter())
                .map(|(k, v)| format!("      \"{k}\": {v}"))
                .collect();
            format!("    \"{name}\": {{\n{}\n    }}", lines.join(",\n"))
        })
        .collect();
    out += &routes.join(",\n");
    out + "\n  }\n}\n"
}

#[test]
fn every_route_does_the_committed_work() {
    let cfg = EvalConfig::default();
    let (world, kg) = build_world(&cfg);
    let graded = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: cfg.seed.wrapping_add(3),
            per_category: cfg.per_category,
        },
    );
    let build = |partitions: usize| {
        let mut b = TrinitBuilder::from_world(&world, &cfg.kg_config(), &cfg.corpus_config());
        b.options_mut()
            .layout(SegmentLayout::Packed)
            .shards(partitions);
        b.build()
    };
    let (mut mono, sharded) = (build(1), build(3));
    let parse = |sys: &Trinit| -> Vec<Query> {
        (graded.iter())
            .map(|q| sys.parse(&q.text).expect("graded query parses"))
            .collect()
    };
    let queries = parse(&mono);
    let topk = |sys: &Trinit| summed(&parse(sys), |q| sys.run(q, Engine::IncrementalTopK).metrics);

    let slice = mono
        .segmented_store()
        .and_then(ShardedStore::single_slice)
        .expect("a frozen monolith is one slice");
    let options = mono.topk_config().reference_expansion();
    let reference =
        |rules: &RuleSet| summed(&queries, |q| expand::run(slice, &q, rules, &options).1);
    let mut routes = vec![
        ("topk_monolith", topk(&mono)),
        ("topk_3_partitions", topk(&sharded)),
        ("full_expansion", reference(mono.rules())),
        ("exact", reference(&RuleSet::new())),
    ];
    let delta = ingest_delta(&mut mono, &queries);
    assert!(mono.has_delta());
    routes.push(("delta_run", topk(&mono)));
    let introduced = summed(&parse(&mono), |q| mono.answers_introduced_by(q).metrics);
    routes.push(("delta_answers_introduced_by", introduced));

    let header = [
        ("seed", cfg.seed.to_string()),
        ("scale", cfg.scale.to_string()),
        ("layout", "\"Packed\"".to_string()),
        ("rules", mono.rules().len().to_string()),
        ("queries", queries.len().to_string()),
        ("delta_triples", delta.to_string()),
    ];
    let got = render(&header, &routes);
    let want = include_str!("counters.json");
    if got != want {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("counters.json");
        std::fs::write(&path, &got).expect("temporary directory is writable");
        panic!(
            "work counters differ from tests/counters.json; measured:\n{got}\n(written to {})",
            path.display()
        );
    }
}
