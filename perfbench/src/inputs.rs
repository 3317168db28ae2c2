//! Seeded inputs and the set-up every workload shares: the synthetic
//! world, the systems built from it (through the facade for end-to-end
//! runs, stage by stage for traced runs), the query pools, and the
//! reference answers the correctness gate compares against.
//!
//! `--seed` is the only source of randomness: world, KG projection,
//! corpus, benchmark queries, Zipf draws and ingest batches all derive
//! from it. The engine receives only the generated inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use trinit_core::obs::now_ns;
use trinit_core::openie::{IngestStats, Linker, OpenIePipeline};
use trinit_core::query::exec::expand;
use trinit_core::query::{Answer, Query, VarId};
use trinit_core::relax::{
    CooccurrenceOperator, ExpandOptions, GranularityMinerConfig, GranularityOperator, MinerConfig,
    OperatorRegistry, RuleSet,
};
use trinit_core::worldgen::{
    alias_catalog, corpus::generate_corpus, project_kg, EntityId, EntityType, KgProjection, Obj,
    Relation, World, Zipf,
};
use trinit_core::xkg::{SegmentLayout, TermId, XkgBuilder, XkgStore};
use trinit_core::{BuildOptions, Completer, Engine, Trinit, TrinitBuilder};
use trinit_eval::runner::score_system;
use trinit_eval::{generate_benchmark, BenchQuery, BenchmarkConfig, EvalConfig};

use crate::trace::Probe;

/// Seed of the dataset: world, KG projection, corpus, and the graded
/// query set NDCG@5 is scored on. The dataset is fixed, as in TPC-style
/// benchmarks; `--seed` draws everything that is asked of it — query
/// pool, Zipf scripts, ingest batches. Worlds of different seeds differ
/// by ±20% in query cost, which would drown every regression bound in
/// the seed-to-seed spread, and a fixed graded set makes `ndcg5` a pure
/// function of the code.
pub const DATASET_SEED: u64 = 42;

/// The generated world plus the paper's graded query set over it.
pub struct Inputs {
    /// The `--seed` argument.
    pub seed: u64,
    pub cfg: EvalConfig,
    pub world: World,
    pub kg: KgProjection,
    /// The 70 graded queries (5 categories × 14) NDCG@5 is scored on;
    /// the same for every seed.
    pub graded: Vec<BenchQuery>,
}

impl Inputs {
    pub fn generate(seed: u64, scale: f64) -> Inputs {
        let cfg = EvalConfig {
            seed: DATASET_SEED,
            scale,
            per_category: 14,
        };
        let world = World::generate(cfg.world_config());
        let kg = project_kg(&world, &cfg.kg_config());
        let graded = generate_benchmark(
            &world,
            &kg,
            &BenchmarkConfig {
                seed: DATASET_SEED + 3,
                per_category: cfg.per_category,
            },
        );
        Inputs {
            seed,
            cfg,
            world,
            kg,
            graded,
        }
    }

    /// The timing pool: distinct query texts in the benchmark
    /// generator's five templates (direct, granularity, inversion,
    /// incompleteness, missing predicate), up to `per_category` each,
    /// drawn by seeded shuffles and interleaved category by category so
    /// that any prefix or contiguous slice holds the same mix. The pool
    /// is ungraded — the gate's reference supplies rankings, and
    /// `generate_benchmark` re-scans every world fact per candidate,
    /// which costs seconds per category at scale 4.
    pub fn query_pool(&self, per_category: usize) -> Vec<String> {
        let world = &self.world;
        let seed = self.seed.wrapping_add(4);
        let resource = |id: EntityId| world.entity(id).resource.as_str();
        // A category the pool takes whole keeps its sorted order: those
        // are the heavy (granularity) queries, whose cost differs 1.5x
        // from country to country, and a seed that moved them between
        // Zipf ranks or batches would move the tail percentile with it.
        let pick = |mut texts: Vec<String>, salt: u64| {
            texts.sort_unstable();
            texts.dedup();
            if texts.len() > per_category {
                shuffle(&mut texts, seed.wrapping_add(salt));
                texts.truncate(per_category);
            }
            texts
        };
        let about = |etype: EntityType, predicate: &str| -> Vec<String> {
            world
                .of_type(etype)
                .iter()
                .map(|&e| format!("?x {predicate} {} LIMIT 10", resource(e)))
                .collect()
        };
        let subjects_of =
            |relation: Relation, phrase: &str, keep: &dyn Fn(usize) -> bool| -> Vec<String> {
                world
                    .facts
                    .iter()
                    .enumerate()
                    .filter(|(i, f)| f.relation == relation && keep(*i))
                    .map(|(_, f)| format!("{} {phrase} ?x LIMIT 10", resource(f.subject)))
                    .collect()
            };
        // Direct: a third each of prize winners, employees, natives.
        let third = per_category.div_ceil(3);
        let mut direct = Vec::new();
        for (salt, (etype, predicate)) in [
            (EntityType::Prize, "wonPrize"),
            (EntityType::Company, "worksFor"),
            (EntityType::City, "bornIn"),
        ]
        .into_iter()
        .enumerate()
        {
            let mut texts = pick(about(etype, predicate), salt as u64);
            texts.truncate(third);
            direct.extend(texts);
        }
        let mut granularity = about(EntityType::Country, "bornIn");
        granularity.extend(about(EntityType::Country, "diedIn"));
        let students: Vec<String> = world
            .facts_of(Relation::HasStudent)
            .filter_map(|f| match f.object {
                Obj::Entity(student) => {
                    Some(format!("{} 'studied under' ?x LIMIT 10", resource(student)))
                }
                Obj::Literal(_) => None,
            })
            .collect();
        let categories = [
            pick(direct, 3),
            pick(granularity, 4),
            pick(students, 5),
            pick(
                subjects_of(Relation::AffiliatedWith, "affiliation", &|i| {
                    !self.kg.included[i]
                }),
                6,
            ),
            pick(
                subjects_of(Relation::PrizeFor, "'honored for'", &|_| true),
                7,
            ),
        ];
        let longest = categories.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|i| categories.iter().filter_map(move |c| c.get(i).cloned()))
            .collect()
    }

    /// One facade set-up, timed: world generation plus
    /// `TrinitBuilder::from_world(..).build()` (corpus rendering, openie,
    /// freeze, mining, completer). Returns the system and the seconds.
    pub fn build_timed(&self, options: impl FnOnce(&mut BuildOptions)) -> (Trinit, f64) {
        let start = now_ns();
        let world = World::generate(self.cfg.world_config());
        let mut builder =
            TrinitBuilder::from_world(&world, &self.cfg.kg_config(), &self.cfg.corpus_config());
        options(builder.options_mut());
        let system = builder.build();
        let seconds = (now_ns() - start) as f64 / 1e9;
        (system, seconds)
    }

    /// Sets up `reps` times (dropping each system before the next
    /// build) and returns the last system with every set-up's seconds.
    pub fn build_repeated(
        &self,
        reps: usize,
        options: impl Fn(&mut BuildOptions),
    ) -> (Trinit, Vec<f64>) {
        let mut seconds = Vec::with_capacity(reps);
        let mut system = None;
        for _ in 0..reps.max(1) {
            drop(system.take());
            let (built, s) = self.build_timed(&options);
            seconds.push(s);
            system = Some(built);
        }
        (system.expect("at least one set-up ran"), seconds)
    }

    /// Size of the pool's granularity category when it takes every
    /// candidate (each country under `bornIn` and `diedIn`). Those are
    /// the heavy queries; with all of them in every pool, the tail and
    /// most of an epoch's cost are the same for every seed, which then
    /// draws the light categories, the order and the scripts.
    pub fn all_granularity(&self) -> usize {
        2 * self.world.of_type(EntityType::Country).len()
    }

    /// Mean NDCG@5 of the graded queries on `system`.
    pub fn ndcg5(&self, system: &Trinit) -> f64 {
        score_system("bench", system, Engine::IncrementalTopK, true, &self.graded).ndcg5
    }
}

/// The set-up re-enacted stage by stage under a `setup` parent span,
/// mirroring `TrinitBuilder::build` with default options.
pub struct StagedBuild {
    /// The loaded builder before freezing (KG facts + extractions): the
    /// base a from-scratch rebuild or a sharded build starts from.
    pub builder: XkgBuilder,
    pub store: XkgStore,
    pub rules: RuleSet,
    pub ingest: IngestStats,
}

impl StagedBuild {
    pub fn run(inputs: &Inputs, layout: SegmentLayout, probe: &mut Probe) -> StagedBuild {
        let setup = probe.open("setup");
        let ((mut xkg, pipeline, docs), _) = probe.time("worldgen.corpus", || {
            let mut xkg = XkgBuilder::new();
            for f in &inputs.kg.facts {
                if f.object_is_literal {
                    xkg.add_kg_literal(&f.subject, &f.predicate, &f.object);
                } else {
                    xkg.add_kg_resources(&f.subject, &f.predicate, &f.object);
                }
            }
            let docs = generate_corpus(
                &inputs.world,
                &inputs.kg.included,
                &inputs.cfg.corpus_config(),
            );
            let aliases = alias_catalog(&inputs.world)
                .into_iter()
                .map(|e| (e.alias, e.resource, e.popularity));
            let dominance = BuildOptions::default().linker_dominance;
            (
                xkg,
                OpenIePipeline::new(Linker::new(aliases, dominance)),
                docs,
            )
        });
        let (ingest, _) = probe.time("openie.ingest", || {
            let mut stats = IngestStats::default();
            for d in &docs {
                stats.merge(&pipeline.ingest(&d.id, &d.sentences, &mut xkg));
            }
            stats
        });
        let builder = xkg.clone();
        let (store, _) = probe.time("xkg.freeze", || xkg.build_with(layout));
        let (rules, _) = probe.time("relax.mine", || {
            let defaults = BuildOptions::default();
            let mut registry = OperatorRegistry::new();
            registry.register(Box::new(CooccurrenceOperator {
                config: MinerConfig::default(),
            }));
            if let (Some(type_pred), Some(via)) = (
                store.resource(&defaults.type_predicate),
                store.resource(&defaults.via_predicate),
            ) {
                registry.register(Box::new(GranularityOperator {
                    type_pred,
                    via,
                    config: GranularityMinerConfig::default(),
                }));
            }
            registry.build_rules(&store)
        });
        // `Trinit::from_parts` builds the completer again; this call
        // only prices the stage.
        let _ = probe.time("core.completer_build", || Completer::build(&store));
        probe.close(setup);
        StagedBuild {
            builder,
            store,
            rules,
            ingest,
        }
    }

    pub fn into_monolith(self) -> Trinit {
        Trinit::from_parts(self.store, self.rules)
    }
}

/// A copy of a rule set (`RuleSet` is not `Clone`).
pub fn copy_rules(rules: &RuleSet) -> RuleSet {
    let mut out = RuleSet::new();
    for (_, rule) in rules.iter() {
        out.add(rule.clone());
    }
    out
}

/// One query's reference ranking: projected keys and scores.
pub type RefAnswers = Vec<(Vec<(VarId, Option<TermId>)>, f64)>;

pub fn ref_answers(answers: &[Answer]) -> RefAnswers {
    answers.iter().map(|a| (a.key.clone(), a.score)).collect()
}

/// True if `got` equals the reference ranking: scores equal position by
/// position within `tol` and, inside every tie group that ends before
/// the k-cut, the same key set — order within a tie group and
/// membership of a tie group the cut lands in are tie-break detail.
pub fn ranking_matches(got: &[Answer], want: &RefAnswers, tol: f64) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let same = |a: f64, b: f64| (a - b).abs() <= tol;
    if !got.iter().zip(want).all(|(g, w)| same(g.score, w.1)) {
        return false;
    }
    let mut i = 0;
    while i < want.len() {
        let mut j = i + 1;
        while j < want.len() && same(want[j].1, want[i].1) {
            j += 1;
        }
        if j < want.len() {
            let mut a: Vec<_> = got[i..j].iter().map(|x| &x.key).collect();
            let mut b: Vec<_> = want[i..j].iter().map(|x| &x.0).collect();
            a.sort();
            b.sort();
            if a != b {
                return false;
            }
        }
        i = j;
    }
    true
}

/// Parses every text against `system`'s vocabulary.
pub fn parse_all(system: &Trinit, texts: &[String]) -> Vec<Query> {
    texts
        .iter()
        .map(|t| system.parse(t).expect("generated benchmark queries parse"))
        .collect()
}

/// Reference rankings: full expansion (`expand::run`) on a monolithic
/// system, with the rewriting budget matched to the top-k processor's.
///
/// `Engine::FullExpansion` ships with `ExpandOptions::default()`
/// (`max_depth` 2) while the default `TopkConfig` chains 2 single-pattern
/// rules and then 1 structural rule, so on granularity queries the
/// facade's full-expansion engine misses rewritings top-k finds. Depth
/// `chain_depth + structural_depth` closes that gap: the two engines
/// then agree on every generated query.
pub fn reference(monolith: &Trinit, queries: &[Query]) -> Vec<RefAnswers> {
    let store = monolith
        .segmented_store()
        .expect("reference system is monolithic")
        .base();
    let topk = monolith.topk_config();
    let options = ExpandOptions {
        max_depth: topk.chain_depth + topk.structural_depth,
        min_weight: topk.min_weight,
        max_rewritings: 4096,
    };
    queries
        .iter()
        .map(|q| ref_answers(&expand::run(store, q, monolith.rules(), &options).0))
        .collect()
}

/// One pre-generated extraction triple of an ingest batch. Token
/// predicates are phrases; resource predicates re-observe KG facts.
pub struct BatchTriple {
    pub subject: String,
    pub predicate: String,
    pub predicate_is_token: bool,
    pub object: String,
    pub confidence: f32,
}

/// Phrases the ingest stream asserts between Zipf-drawn entities, with
/// the object type each takes.
const STREAM_PHRASES: [(&str, EntityType); 6] = [
    ("studied under", EntityType::Person),
    ("lectured at", EntityType::University),
    ("worked at", EntityType::University),
    ("born in", EntityType::City),
    ("honored for", EntityType::Field),
    ("works for", EntityType::Company),
];

/// Generates ingest batch number `index`: `fresh` new extraction
/// triples over Zipf-drawn world entities with seeded confidences plus
/// `reobserved` triples already in the KG (provenance absorbs).
pub fn ingest_batch(
    inputs: &Inputs,
    index: u64,
    fresh: usize,
    reobserved: usize,
) -> Vec<BatchTriple> {
    let mut rng = StdRng::seed_from_u64(
        inputs
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(index + 11),
    );
    let world = &inputs.world;
    let people = world.of_type(EntityType::Person);
    let people_zipf = Zipf::new(people.len(), 1.0);
    let mut out = Vec::with_capacity(fresh + reobserved);
    for _ in 0..fresh {
        let (phrase, object_type) = STREAM_PHRASES[rng.gen_range(0..STREAM_PHRASES.len())];
        let objects = world.of_type(object_type);
        let subject = people[people_zipf.sample(&mut rng)];
        let object = objects[Zipf::new(objects.len(), 1.0).sample(&mut rng)];
        out.push(BatchTriple {
            subject: world.entity(subject).resource.clone(),
            predicate: phrase.to_string(),
            predicate_is_token: true,
            object: world.entity(object).resource.clone(),
            confidence: rng.gen_range(0.3f32..1.0f32),
        });
    }
    let resource_facts: Vec<_> = inputs
        .kg
        .facts
        .iter()
        .filter(|f| !f.object_is_literal)
        .collect();
    for _ in 0..reobserved {
        let f = resource_facts[rng.gen_range(0..resource_facts.len())];
        out.push(BatchTriple {
            subject: f.subject.clone(),
            predicate: f.predicate.clone(),
            predicate_is_token: false,
            object: f.object.clone(),
            confidence: rng.gen_range(0.3f32..1.0f32),
        });
    }
    out
}

/// Appends one batch through `add_extracted` (interning its terms).
pub fn fill_batch(builder: &mut XkgBuilder, batch: &[BatchTriple]) {
    let source = builder.intern_source("stream:extractions");
    for t in batch {
        let s = builder.dict_mut().resource(&t.subject);
        let p = if t.predicate_is_token {
            builder.dict_mut().token(&t.predicate)
        } else {
            builder.dict_mut().resource(&t.predicate)
        };
        let o = builder.dict_mut().resource(&t.object);
        builder.add_extracted(s, p, o, t.confidence, source);
    }
}

/// A seeded Zipf(1.0) sequence of `steps` ranks below `n`.
pub fn zipf_script(seed: u64, n: usize, steps: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(n, 1.0);
    (0..steps).map(|_| zipf.sample(&mut rng)).collect()
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}
