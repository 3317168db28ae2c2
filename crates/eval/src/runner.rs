//! Evaluation runner: builds systems, runs the benchmark, scores them.
//!
//! Reproduces the paper's quality experiment (E1: NDCG@5 over 70 queries,
//! TriniT 0.775 vs next-best 0.419) with four systems:
//!
//! 1. **TriniT** — XKG (KG + Open IE) with mined relaxation rules,
//!    incremental top-k processing;
//! 2. **XKG, no relaxation** — ablation: extended data, no rewriting;
//! 3. **KG + relaxation** — ablation: rewriting without the extension;
//! 4. **exact KG baseline** — the non-relaxing structured-search
//!    state of the art the demo paper contrasts against.

use std::time::Instant;

use trinit_core::{Engine, Suggestion, Trinit, TrinitBuilder};
use trinit_query::ExecMetrics;
use trinit_relax::{mine_cooccurrence, MinedRule, MinerConfig};
use trinit_worldgen::{project_kg, CorpusConfig, KgConfig, KgProjection, World, WorldConfig};

use crate::benchmark::{generate_benchmark, BenchQuery, BenchmarkConfig, Category};
use crate::judge::grade_ranking;
use crate::metrics::{average_precision, mean, ndcg_at, precision_at};

/// End-to-end evaluation configuration.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Master seed (world, KG, corpus, benchmark all derive from it).
    pub seed: u64,
    /// World scale factor relative to [`WorldConfig::demo`] (1.0 ≈ 2 000
    /// people; the paper's setting is ~3 orders of magnitude larger).
    pub scale: f64,
    /// Queries per benchmark category.
    pub per_category: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            seed: 42,
            scale: 0.25,
            per_category: 14,
        }
    }
}

impl EvalConfig {
    /// World configuration derived from the master seed and scale.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig::demo(self.seed).scaled(self.scale)
    }

    /// Corpus configuration scaled to the world.
    pub fn corpus_config(&self) -> CorpusConfig {
        let mut c = CorpusConfig::demo(self.seed.wrapping_add(1));
        c.documents = ((c.documents as f64) * self.scale).max(200.0) as usize;
        c
    }

    /// KG projection configuration.
    pub fn kg_config(&self) -> KgConfig {
        KgConfig {
            seed: self.seed.wrapping_add(2),
            coverage_scale: 1.0,
        }
    }
}

/// Scores of one system over the benchmark.
#[derive(Debug, Clone)]
pub struct SystemScores {
    /// System label.
    pub name: &'static str,
    /// Mean NDCG@5 (the paper's headline metric).
    pub ndcg5: f64,
    /// Mean NDCG@10.
    pub ndcg10: f64,
    /// Mean average precision.
    pub map: f64,
    /// Mean precision@5.
    pub p5: f64,
    /// Mean NDCG@5 per category.
    pub per_category: Vec<(Category, f64)>,
}

/// A full evaluation result.
#[derive(Debug)]
pub struct Evaluation {
    /// Number of benchmark queries.
    pub queries: usize,
    /// Scores per system, in comparison order.
    pub systems: Vec<SystemScores>,
}

impl Evaluation {
    /// The first system's NDCG@5 over the best NDCG@5 among the others:
    /// the paper's "TriniT against the next best" ratio (0.775 / 0.419,
    /// 1.85×). Needs at least one system.
    pub fn ndcg5_ratio_to_next_best(&self) -> f64 {
        let next_best = self.systems[1..].iter().map(|s| s.ndcg5).fold(0.0, f64::max);
        self.systems[0].ndcg5 / next_best.max(1e-9)
    }
}

/// Builds the world + KG projection for an evaluation config.
pub fn build_world(cfg: &EvalConfig) -> (World, KgProjection) {
    let world = World::generate(cfg.world_config());
    let kg = project_kg(&world, &cfg.kg_config());
    (world, kg)
}

/// Builds the full TriniT system (KG + corpus + mining).
pub fn build_full_system(world: &World, cfg: &EvalConfig) -> Trinit {
    TrinitBuilder::from_world(world, &cfg.kg_config(), &cfg.corpus_config()).build()
}

/// Builds the full system over a sharded store backend (`shards` store
/// slices; see `trinit_core::BuildOptions::shards`).
///
/// Intended for throughput/scaling measurements (the E7 bench). Do not
/// feed sharded systems to engine-comparison sweeps
/// ([`efficiency_sweep`], [`score_system`] with `Engine::FullExpansion`
/// / `Engine::Exact`): a sharded backend serves *every* engine through
/// the partitioned top-k path, so such rows would compare top-k against
/// itself under a different label.
pub fn build_sharded_system(world: &World, cfg: &EvalConfig, shards: usize) -> Trinit {
    let mut builder = TrinitBuilder::from_world(world, &cfg.kg_config(), &cfg.corpus_config());
    builder.options_mut().shards(shards);
    builder.build()
}

/// Builds the KG-only system (no corpus; rules mined from the KG alone).
pub fn build_kg_only_system(world: &World, cfg: &EvalConfig) -> Trinit {
    let mut c = cfg.corpus_config();
    c.documents = 0;
    TrinitBuilder::from_world(world, &cfg.kg_config(), &c).build()
}

/// Scores one system over the benchmark queries.
pub fn score_system(
    name: &'static str,
    system: &Trinit,
    engine: Engine,
    use_rules: bool,
    queries: &[BenchQuery],
) -> SystemScores {
    let empty_rules = trinit_relax::RuleSet::new();
    let mut ndcg5s = Vec::new();
    let mut ndcg10s = Vec::new();
    let mut maps = Vec::new();
    let mut p5s = Vec::new();
    let mut per_cat: Vec<(Category, Vec<f64>)> =
        Category::ALL.into_iter().map(|c| (c, Vec::new())).collect();

    for q in queries {
        let parsed = system.parse(&q.text).expect("benchmark queries parse");
        let rules = if use_rules {
            system.rules()
        } else {
            &empty_rules
        };
        let outcome = system.run_with_rules(parsed, engine, rules);
        let grades = grade_ranking(system.store(), &outcome.answers, &q.ideal);
        let ideal_grades: Vec<u8> = q.ideal.values().copied().collect();
        let n5 = ndcg_at(&grades, &ideal_grades, 5);
        ndcg5s.push(n5);
        ndcg10s.push(ndcg_at(&grades, &ideal_grades, 10));
        maps.push(average_precision(&grades, q.relevant_entities));
        p5s.push(precision_at(&grades, 5));
        per_cat
            .iter_mut()
            .find(|(c, _)| *c == q.category)
            .expect("category known")
            .1
            .push(n5);
    }

    SystemScores {
        name,
        ndcg5: mean(&ndcg5s),
        ndcg10: mean(&ndcg10s),
        map: mean(&maps),
        p5: mean(&p5s),
        per_category: per_cat
            .into_iter()
            .map(|(c, v)| (c, mean(&v)))
            .collect(),
    }
}

/// Runs the full E1 evaluation: all four systems over the benchmark.
pub fn run_evaluation(cfg: &EvalConfig) -> Evaluation {
    let (world, kg) = build_world(cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: cfg.seed.wrapping_add(3),
            per_category: cfg.per_category,
        },
    );
    let full = build_full_system(&world, cfg);
    let kg_only = build_kg_only_system(&world, cfg);

    let systems = vec![
        score_system(
            "TriniT (XKG + relaxation)",
            &full,
            Engine::IncrementalTopK,
            true,
            &queries,
        ),
        score_system(
            "XKG, no relaxation",
            &full,
            Engine::IncrementalTopK,
            false,
            &queries,
        ),
        score_system(
            "KG + relaxation",
            &kg_only,
            Engine::IncrementalTopK,
            true,
            &queries,
        ),
        score_system(
            "exact KG baseline",
            &kg_only,
            Engine::Exact,
            false,
            &queries,
        ),
    ];

    Evaluation {
        queries: queries.len(),
        systems,
    }
}

/// One row of the E5 efficiency experiment.
#[derive(Debug, Clone)]
pub struct EfficiencyRow {
    /// Engine label.
    pub engine: &'static str,
    /// Result-list size requested.
    pub k: usize,
    /// Total wall time over the query set, milliseconds.
    pub wall_ms: f64,
    /// Accumulated work counters.
    pub metrics: ExecMetrics,
    /// Total answers returned.
    pub answers: usize,
}

/// Runs the E5 efficiency sweep: incremental top-k vs full expansion vs
/// exact, for each `k`.
pub fn efficiency_sweep(system: &Trinit, queries: &[BenchQuery], ks: &[usize]) -> Vec<EfficiencyRow> {
    let engines: [(&'static str, Engine); 3] = [
        ("incremental top-k", Engine::IncrementalTopK),
        ("full expansion", Engine::FullExpansion),
        ("exact (no relaxation)", Engine::Exact),
    ];
    let mut rows = Vec::new();
    for &k in ks {
        for (name, engine) in engines {
            let mut metrics = ExecMetrics::default();
            let mut answers = 0usize;
            #[expect(clippy::disallowed_methods, reason = "offline evaluation harness measuring wall-clock throughput, not a serving path")]
            let start = Instant::now();
            for q in queries {
                let mut parsed = system.parse(&q.text).expect("benchmark queries parse");
                parsed.k = k;
                let outcome = system.run(parsed, engine);
                metrics.merge(&outcome.metrics);
                answers += outcome.answers.len();
            }
            rows.push(EfficiencyRow {
                engine: name,
                k,
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                metrics,
                answers,
            });
        }
    }
    rows
}

/// The E4 experiment's mining (paper Figure 4 and the §3 weight
/// formula): co-occurrence rules with an overlap of at least 3 and a
/// weight of at least 0.2, inversions included, the 12 strongest.
pub fn figure4_rules(system: &Trinit) -> Vec<MinedRule> {
    mine_cooccurrence(
        system.store(),
        &MinerConfig {
            min_overlap: 3,
            min_weight: 0.2,
            inversions: true,
            max_rules: 12,
        },
    )
}

/// The E8 experiment (query suggestion, paper §5): of the
/// inversion-category queries in `queries` (token predicate 'studied
/// under'), how many get the canonical KG predicate `hasStudent`
/// suggested. Returns `(hits, considered)`.
pub fn suggestion_hits(system: &Trinit, queries: &[BenchQuery]) -> (usize, usize) {
    let mut considered = 0usize;
    let mut hits = 0usize;
    for q in queries.iter().filter(|q| q.category == Category::Inversion) {
        let outcome = system.query(&q.text).expect("benchmark queries parse");
        considered += 1;
        if system.suggest(&outcome).iter().any(|s| {
            matches!(s, Suggestion::ReplaceToken { resource, .. } if resource == "hasStudent")
        }) {
            hits += 1;
        }
    }
    (hits, considered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            seed: 7,
            scale: 0.08,
            per_category: 4,
        }
    }

    #[test]
    fn evaluation_reproduces_paper_shape() {
        let eval = run_evaluation(&small_cfg());
        assert_eq!(eval.queries, 20);
        let trinit = &eval.systems[0];
        let baseline = eval.systems.last().unwrap();
        assert!(
            trinit.ndcg5 > baseline.ndcg5,
            "TriniT ({:.3}) must beat the exact KG baseline ({:.3})",
            trinit.ndcg5,
            baseline.ndcg5
        );
        // The paper's gap is 0.775 vs 0.419 ≈ 1.85×; at tiny scale we only
        // assert a clear margin.
        assert!(trinit.ndcg5 >= baseline.ndcg5 + 0.15);
        // Ablations fall between the extremes (each addresses only one
        // failure mode).
        let no_relax = &eval.systems[1];
        assert!(trinit.ndcg5 >= no_relax.ndcg5 - 1e-9);
    }

    #[test]
    fn ratio_divides_by_the_next_best_system_not_the_last() {
        let system = |name, ndcg5| SystemScores {
            name,
            ndcg5,
            ndcg10: 0.0,
            map: 0.0,
            p5: 0.0,
            per_category: Vec::new(),
        };
        let eval = Evaluation {
            queries: 70,
            systems: vec![
                system("TriniT", 0.733),
                system("XKG, no relaxation", 0.428),
                system("KG + relaxation", 0.391),
                system("exact KG", 0.191),
            ],
        };
        assert_eq!(eval.ndcg5_ratio_to_next_best(), 0.733 / 0.428);
    }

    #[test]
    fn efficiency_sweep_counts_work() {
        let cfg = small_cfg();
        let (world, kg) = build_world(&cfg);
        let queries = generate_benchmark(
            &world,
            &kg,
            &crate::benchmark::BenchmarkConfig {
                seed: 1,
                per_category: 2,
            },
        );
        let system = build_full_system(&world, &cfg);
        let rows = efficiency_sweep(&system, &queries, &[1, 5]);
        assert_eq!(rows.len(), 6);
        let topk_row = rows.iter().find(|r| r.engine == "incremental top-k" && r.k == 1).unwrap();
        let full_row = rows.iter().find(|r| r.engine == "full expansion" && r.k == 1).unwrap();
        assert!(
            topk_row.metrics.posting_lists_built <= full_row.metrics.posting_lists_built,
            "incremental top-k must not build more posting lists than full expansion \
             ({} vs {})",
            topk_row.metrics.posting_lists_built,
            full_row.metrics.posting_lists_built,
        );
    }
}
