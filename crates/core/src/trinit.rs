//! The TriniT system facade.
//!
//! [`TrinitBuilder`] assembles an extended knowledge graph from a curated
//! KG plus raw text (run through the Open IE pipeline), then mines
//! relaxation rules; the resulting [`Trinit`] system answers extended
//! triple-pattern queries with relaxation, explanation, suggestion, and
//! auto-completion — the full demo surface of the paper.

use std::sync::OnceLock;

use trinit_obs::{
    now_ns, CacheTally, Counter, Gauge, MetricsRegistry, ObsConfig, QueryTrace, Stage,
    TraceRecorder,
};
use trinit_openie::{Linker, OpenIePipeline, PipelineConfig};
use trinit_query::exec::topk::{ExecCtx, ExecOutcome};
use trinit_query::exec::{exact, expand};
use trinit_query::{
    Answer, AnswerCollector, BudgetTracker, Completeness, ExecError, ExecMetrics, Query,
    SharedCacheStats, SharedPostingCache, TopkConfig,
};
use trinit_relax::{
    CooccurrenceOperator, GranularityMinerConfig, GranularityOperator,
    MinerConfig, OperatorRegistry, ParaphraseGroup, ParaphraseOperator, RelaxationOperator,
    RuleSet,
};
use trinit_shard::{QueryPool, ShardedExecutor, ShardedStore};
use trinit_worldgen::corpus::generate_corpus;
use trinit_worldgen::{alias_catalog, project_kg, CorpusConfig, KgConfig, World};
use trinit_xkg::{GraphTag, SegmentLayout, XkgBuilder, XkgStore};

use crate::complete::{Completer, Completion};
use crate::explain::Explanation;
use crate::suggest::{suggest, SuggestConfig, Suggestion};

/// Which execution engine answers a query.
///
/// Every engine value means the same *answers* on every store. The
/// reference engines (`Exact`, `FullExpansion`) run on the store's one
/// frozen slice when it is one — a single partition with no live delta;
/// a **sharded** system ([`BuildOptions::shards`] > 1) or a monolith
/// with a live delta answers them through the top-k processor instead —
/// `Exact` with an empty rule set (top-k without rules reduces to exact
/// evaluation), `FullExpansion` with the full rule set (full expansion
/// runs to the depth the top-k configuration reaches, so the two
/// agree). Per-engine work counters are then not comparable with the
/// monolithic baselines, so engine-comparison experiments should use
/// frozen monolithic builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Exact evaluation, no relaxation (the non-relaxing baseline).
    Exact,
    /// Full expansion of all rewritings up front (reference semantics),
    /// to [`TopkConfig::reference_expansion`].
    FullExpansion,
    /// The paper's incremental top-k processor (default).
    IncrementalTopK,
}

/// The result of running one query.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The parsed/compiled query.
    pub query: Query,
    /// Top-k answers, best first.
    pub answers: Vec<Answer>,
    /// Work counters of the engine — for sharded systems, the
    /// cross-shard merge's.
    pub metrics: ExecMetrics,
    /// Per-shard work breakdown (empty on single-store systems): shard
    /// `i`'s share of the merge's posting work.
    pub shard_metrics: Vec<ExecMetrics>,
    /// What the ranking is guaranteed to be relative to the exact
    /// engine: [`Completeness::Exact`] unless a budget cutoff or the ε
    /// criterion actually fired during the run. The `Exact`
    /// and `FullExpansion` engines always report `Exact` (they run to
    /// completion by construction).
    pub completeness: Completeness,
    /// Per-stage execution trace of the run: the enclosing query span,
    /// the merge span (sharded systems), per-variant spans, windowed
    /// pull batches, and threshold / cutoff point events (nothing
    /// records [`Stage::Election`] or [`Stage::SeedTask`]).
    /// Empty when tracing is disabled ([`Trinit::set_obs`]) or the engine ran a
    /// non-traced path (`Exact` / `FullExpansion` on a frozen monolith).
    pub trace: QueryTrace,
    /// The store generation the query was answered at: derivation ids
    /// are global offsets, which every later ingest or compaction may
    /// move (see [`Trinit::explain`]).
    generation: u64,
}

impl QueryOutcome {
    /// The per-stage execution trace (see [`QueryOutcome::trace`]);
    /// serialize with [`QueryTrace::to_json`].
    pub fn trace(&self) -> &QueryTrace {
        &self.trace
    }

    /// The outcome of `query` as the top-k engine reported it at store
    /// generation `generation`.
    fn of(query: Query, run: ExecOutcome, generation: u64) -> QueryOutcome {
        QueryOutcome {
            query,
            answers: run.answers,
            metrics: run.metrics,
            shard_metrics: run.per_shard,
            completeness: run.completeness,
            trace: run.trace,
            generation,
        }
    }

    /// An outcome that ran to completion outside the traced pipeline.
    fn untraced(
        query: Query,
        answers: Vec<Answer>,
        metrics: ExecMetrics,
        generation: u64,
    ) -> QueryOutcome {
        QueryOutcome {
            query,
            answers,
            metrics,
            shard_metrics: Vec::new(),
            completeness: Completeness::Exact,
            trace: QueryTrace::default(),
            generation,
        }
    }
}

/// What one [`Trinit::execute`] call reads.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Scope {
    /// The whole store.
    Store,
    /// Only answers that use the live delta: one pass per pattern
    /// position, that pattern restricted to the delta slices.
    Delta,
}

/// Statistics describing a built system (the E2 dataset table).
#[derive(Debug, Clone, Default)]
pub struct BuildStats {
    /// Distinct curated-KG triples.
    pub kg_triples: usize,
    /// Distinct Open IE extension triples.
    pub xkg_triples: usize,
    /// Documents ingested.
    pub documents: usize,
    /// Extraction pipeline counters.
    pub ingest: trinit_openie::IngestStats,
    /// Relaxation rules available after mining.
    pub rules: usize,
}

impl BuildStats {
    /// Total distinct triples (KG + XKG strata).
    pub fn total_triples(&self) -> usize {
        self.kg_triples + self.xkg_triples
    }
}

/// Build-time options.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Run the §3 co-occurrence miner.
    pub mine_cooccurrence: bool,
    /// Co-occurrence miner configuration.
    pub miner: MinerConfig,
    /// Run the granularity miner (requires `type`/`via` predicates).
    pub mine_granularity: bool,
    /// Granularity miner configuration.
    pub granularity: GranularityMinerConfig,
    /// Name of the `type` predicate.
    pub type_predicate: String,
    /// Name of the connecting predicate for granularity rules.
    pub via_predicate: String,
    /// Paraphrase clusters to compile into rules.
    pub paraphrase_groups: Vec<ParaphraseGroup>,
    /// Open IE pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Entity-linking dominance threshold.
    pub linker_dominance: f64,
    /// Default top-k processor configuration.
    pub topk: TopkConfig,
    /// Number of store shards to build (1 = monolithic store). Set via
    /// [`BuildOptions::shards`].
    pub shard_count: usize,
    /// Physical layout of the frozen store segments (`Flat` by default;
    /// `Packed` trades decode work for ~3–4× fewer index bytes with
    /// bit-identical answers). Set via [`BuildOptions::layout`].
    pub segment_layout: SegmentLayout,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            mine_cooccurrence: true,
            miner: MinerConfig::default(),
            mine_granularity: true,
            granularity: GranularityMinerConfig::default(),
            type_predicate: "type".to_string(),
            via_predicate: "locatedIn".to_string(),
            paraphrase_groups: Vec::new(),
            pipeline: PipelineConfig::default(),
            linker_dominance: 0.6,
            topk: TopkConfig::default(),
            shard_count: 1,
            segment_layout: SegmentLayout::Flat,
        }
    }
}

impl BuildOptions {
    /// Selects a sharded build: the XKG is hash-partitioned by subject
    /// across `n` store shards at build time and queries route through
    /// the partitioned top-k engine. `n ≤ 1` keeps the monolithic
    /// store. The shard count does not size [`Trinit::run_batch`]'s
    /// pool.
    pub fn shards(&mut self, n: usize) -> &mut Self {
        self.shard_count = n.max(1);
        self
    }

    /// Selects the physical layout the frozen base segments freeze
    /// into. [`SegmentLayout::Packed`] bit-packs the permutation key
    /// columns and quantizes stored posting weights for ~3–4× fewer
    /// index bytes; every answer (keys and scores) is bit-identical to
    /// a `Flat` build. The layout survives compaction; live-ingestion
    /// delta segments always freeze `Flat` (they are small, hot, and
    /// rebuilt on every batch). See `docs/storage.md`.
    pub fn layout(&mut self, layout: SegmentLayout) -> &mut Self {
        self.segment_layout = layout;
        self
    }
}

/// Assembles a [`Trinit`] system.
pub struct TrinitBuilder {
    kg_facts: Vec<(String, String, String, bool)>,
    documents: Vec<(String, Vec<String>)>,
    aliases: Vec<(String, String, f64)>,
    operators: Vec<Box<dyn RelaxationOperator>>,
    options: BuildOptions,
}

impl Default for TrinitBuilder {
    fn default() -> Self {
        TrinitBuilder::new()
    }
}

impl TrinitBuilder {
    /// Creates an empty builder with default options.
    pub fn new() -> TrinitBuilder {
        TrinitBuilder {
            kg_facts: Vec::new(),
            documents: Vec::new(),
            aliases: Vec::new(),
            operators: Vec::new(),
            options: BuildOptions::default(),
        }
    }

    /// Creates a builder pre-loaded from a synthetic world: the projected
    /// incomplete KG, the rendered corpus, and the alias catalog (the
    /// FACC1 stand-in).
    pub fn from_world(world: &World, kg_cfg: &KgConfig, corpus_cfg: &CorpusConfig) -> TrinitBuilder {
        let mut builder = TrinitBuilder::new();
        let projection = project_kg(world, kg_cfg);
        for f in &projection.facts {
            builder.add_kg_fact(&f.subject, &f.predicate, &f.object, f.object_is_literal);
        }
        let docs = generate_corpus(world, &projection.included, corpus_cfg);
        for d in docs {
            builder.add_document(&d.id, d.sentences);
        }
        for entry in alias_catalog(world) {
            builder.add_alias(&entry.alias, &entry.resource, entry.popularity);
        }
        builder
    }

    /// Adds one curated KG fact.
    pub fn add_kg_fact(&mut self, s: &str, p: &str, o: &str, literal_object: bool) -> &mut Self {
        self.kg_facts
            .push((s.to_string(), p.to_string(), o.to_string(), literal_object));
        self
    }

    /// Adds one raw-text document for Open IE.
    pub fn add_document(&mut self, id: &str, sentences: Vec<String>) -> &mut Self {
        self.documents.push((id.to_string(), sentences));
        self
    }

    /// Adds one entity-linking alias entry.
    pub fn add_alias(&mut self, alias: &str, resource: &str, prior: f64) -> &mut Self {
        self.aliases
            .push((alias.to_string(), resource.to_string(), prior));
        self
    }

    /// Registers a custom relaxation operator (runs after built-ins).
    pub fn add_operator(&mut self, op: Box<dyn RelaxationOperator>) -> &mut Self {
        self.operators.push(op);
        self
    }

    /// Mutable access to the build options.
    pub fn options_mut(&mut self) -> &mut BuildOptions {
        &mut self.options
    }

    /// Builds the system: loads the KG, runs Open IE over the documents,
    /// freezes the store (monolithic, or hash-partitioned into shards
    /// when [`BuildOptions::shards`] selected a sharded build), and
    /// mines the rule set.
    pub fn build(self) -> Trinit {
        let mut xkg = XkgBuilder::new();
        for (s, p, o, literal) in &self.kg_facts {
            if *literal {
                xkg.add_kg_literal(s, p, o);
            } else {
                xkg.add_kg_resources(s, p, o);
            }
        }

        let linker = Linker::new(
            self.aliases
                .iter()
                .map(|(a, r, w)| (a.clone(), r.clone(), *w)),
            self.options.linker_dominance,
        );
        let pipeline = OpenIePipeline::new(linker).with_config(self.options.pipeline.clone());
        let mut ingest = trinit_openie::IngestStats::default();
        for (id, sentences) in &self.documents {
            let stats = pipeline.ingest(id, sentences, &mut xkg);
            ingest.merge(&stats);
        }

        // Sharded builds intern everything once, then partition a clone
        // of the frozen content: the monolithic store here is transient,
        // used only for rule mining and completion indexing (both read
        // term-id spaces the shards share), and dropped before the
        // system is returned.
        let shard_count = self.options.shard_count.max(1);
        let sharded_builder = (shard_count > 1).then(|| xkg.clone());
        // A sharded build's monolith is transient (mining/completion
        // only) and freezes Flat regardless of the layout option; a
        // monolithic build's store is kept, so it freezes as configured.
        let store = match &sharded_builder {
            Some(_) => xkg.build(),
            None => xkg.build_with(self.options.segment_layout),
        };

        let mut registry = OperatorRegistry::new();
        if self.options.mine_cooccurrence {
            registry.register(Box::new(CooccurrenceOperator {
                config: self.options.miner.clone(),
            }));
        }
        if self.options.mine_granularity {
            if let (Some(type_pred), Some(via)) = (
                store.resource(&self.options.type_predicate),
                store.resource(&self.options.via_predicate),
            ) {
                registry.register(Box::new(GranularityOperator {
                    type_pred,
                    via,
                    config: self.options.granularity.clone(),
                }));
            }
        }
        if !self.options.paraphrase_groups.is_empty() {
            registry.register(Box::new(ParaphraseOperator {
                groups: self.options.paraphrase_groups.clone(),
            }));
        }
        for op in self.operators {
            registry.register(op);
        }
        let rules = registry.build_rules(&store);

        let store = match sharded_builder {
            Some(builder) => {
                drop(store);
                ShardedStore::build_with(builder, shard_count, self.options.segment_layout)
            }
            None => ShardedStore::from_shards(vec![store]),
        };
        let mut trinit = Trinit::from_sharded_parts(store, rules);
        trinit.topk = self.options.topk;
        trinit.stats.documents = self.documents.len();
        trinit.stats.ingest = ingest;
        trinit
    }
}

/// A built TriniT system: frozen XKG (one partition or several), mined
/// rules, and query surface.
pub struct Trinit {
    /// Every system's store: N ≥ 1 subject-hash partitions plus a live
    /// delta (a monolith is one partition).
    store: ShardedStore,
    rules: RuleSet,
    topk: TopkConfig,
    suggest_cfg: SuggestConfig,
    stats: BuildStats,
    /// Store-level posting caches shared across every query answered
    /// through this system: empty until
    /// [`Trinit::enable_posting_cache`], then one per shard (cached
    /// lists hold one shard's entries, so shards never share a cache) —
    /// a monolith is one shard.
    caches: Vec<SharedPostingCache>,
    /// Process-wide metrics: query/answer/completeness counters, store
    /// gauges, latency histograms, and the cache tally dropped sessions
    /// fold in. Shared by every query answered through this system.
    registry: MetricsRegistry,
}

/// A [`SharedCacheStats`] reading as the registry's tally currency.
pub(crate) fn cache_tally(stats: SharedCacheStats) -> CacheTally {
    CacheTally {
        hits: stats.hits as u64,
        misses: stats.misses as u64,
        evictions: stats.evictions as u64,
        poison_recoveries: stats.poison_recoveries as u64,
    }
}

impl Trinit {
    /// Wraps an already-built sharded store and rule set with default
    /// configuration; the stratum counts and store gauges are read off
    /// the store.
    pub fn from_sharded_parts(store: ShardedStore, rules: RuleSet) -> Trinit {
        let mut trinit = Trinit {
            store,
            topk: TopkConfig::default(),
            suggest_cfg: SuggestConfig::default(),
            stats: BuildStats {
                rules: rules.len(),
                ..BuildStats::default()
            },
            rules,
            caches: Vec::new(),
            registry: MetricsRegistry::new(),
        };
        trinit.refresh_strata_stats();
        trinit.refresh_gauges();
        trinit
    }

    /// Wraps an already-built store and rule set (used by fixtures,
    /// evaluation ablations, and tests) as a one-partition system.
    pub fn from_parts(store: XkgStore, rules: RuleSet) -> Trinit {
        Trinit::from_sharded_parts(ShardedStore::from_shards(vec![store]), rules)
    }

    /// The vocabulary store: partition 0's base, or a delta view while
    /// an ingested delta is live (a superset dictionary with identical
    /// ids for shared terms). Every *dictionary-level* operation through
    /// this reference (parsing, term lookup and display, completion) is
    /// exact; per-triple operations (`triple`, `provenance`, `lookup`)
    /// see only one slice — resolve those through
    /// [`Trinit::segmented_store`] / [`Trinit::sharded_store`] instead.
    pub fn store(&self) -> &XkgStore {
        self.store.vocab()
    }

    /// The store of a monolithic system (one partition); `None` when
    /// [`Trinit::sharded_store`] is `Some`.
    pub fn segmented_store(&self) -> Option<&ShardedStore> {
        (self.shard_count() == 1).then_some(&self.store)
    }

    /// The store of a system built with [`BuildOptions::shards`] > 1;
    /// `None` when [`Trinit::segmented_store`] is `Some`.
    pub fn sharded_store(&self) -> Option<&ShardedStore> {
        (self.shard_count() > 1).then_some(&self.store)
    }

    /// The store generation: bumped by every [`Trinit::ingest`] and
    /// [`Trinit::compact`].
    pub fn generation(&self) -> u64 {
        self.store.generation()
    }

    /// True if an ingested, not-yet-compacted delta segment is live.
    pub fn has_delta(&self) -> bool {
        self.store.has_delta()
    }

    /// Ingests a batch of triples into the live delta segment: `fill`
    /// appends into a builder whose dictionary and source table extend
    /// the current vocabulary, and subsequent queries serve base ∪
    /// delta with scores identical to a from-scratch rebuild. Returns
    /// the number of *new* triples appended; re-observations of frozen
    /// triples are queued as pending provenance absorbs applied at the
    /// next [`Trinit::compact`] (until then the base serves them with
    /// their pre-ingest weight).
    pub fn ingest(&mut self, fill: impl FnOnce(&mut XkgBuilder)) -> usize {
        let appended = self.store.ingest(fill);
        self.refresh_strata_stats();
        self.registry.incr(Counter::IngestBatches);
        self.registry
            .add(Counter::IngestedTriples, appended as u64);
        self.registry
            .record_stage(Stage::Ingest, self.store.last_ingest_ns());
        self.refresh_gauges();
        appended
    }

    /// Re-freezes the delta into the base: triples, pending provenance
    /// absorbs, and fresh terms merge into rebuilt sorted strata, and
    /// the delta empties. Answers are identical before and after; only
    /// the serving topology (and triple-id assignment) changes.
    pub fn compact(&mut self) {
        self.store.compact();
        self.refresh_strata_stats();
        self.registry.incr(Counter::Compactions);
        self.registry
            .record_stage(Stage::Compact, self.store.last_compact_ns());
        self.refresh_gauges();
    }

    /// Re-derives the per-stratum triple counts after a mutation.
    fn refresh_strata_stats(&mut self) {
        self.stats.kg_triples = self.store.len_of(GraphTag::Kg);
        self.stats.xkg_triples = self.store.len_of(GraphTag::Xkg);
    }

    /// Number of store shards (1 for a monolithic system).
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// The system rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Build statistics (dataset table of experiment E2).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The default top-k configuration.
    pub fn topk_config(&self) -> &TopkConfig {
        &self.topk
    }

    /// The process-wide metrics registry: query/answer/completeness
    /// counters, store gauges, per-stage latency histograms, and the
    /// cache tally dropped [`Session`](crate::Session)s fold in.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Replaces the observability configuration queries run with:
    /// [`ObsConfig::off`] disables span collection entirely (every
    /// record site reduces to one branch and the clock is never read);
    /// the default traces each query into a bounded ring.
    pub fn set_obs(&mut self, obs: ObsConfig) -> &mut Self {
        self.topk.obs = obs;
        self
    }

    /// Serializes the registry to JSON: counters, gauges, quantile
    /// summaries of the wall/stage histograms, and the cache tally —
    /// sessions folded at drop plus the *live* system-level posting
    /// caches (never double-counted: system caches fold nothing in).
    pub fn metrics_snapshot(&self) -> String {
        let mut live = CacheTally::default();
        for cache in &self.caches {
            live.add(cache_tally(cache.stats()));
        }
        self.registry.snapshot(live)
    }

    /// Folds one finished query into the registry: counters, the trace's
    /// per-stage histograms, and its wall time since `wall_start` (a
    /// [`trinit_obs::now_ns`] reading).
    fn observe_outcome(&self, outcome: &QueryOutcome, wall_start: u64) {
        self.registry.incr(Counter::Queries);
        self.registry
            .add(Counter::Answers, outcome.answers.len() as u64);
        self.registry.incr(match outcome.completeness {
            Completeness::Exact => Counter::CompletenessExact,
            Completeness::Approx { .. } => Counter::CompletenessApprox,
            Completeness::Truncated { .. } => Counter::CompletenessTruncated,
        });
        self.registry
            .record_query_wall(now_ns().saturating_sub(wall_start));
        self.registry.record_trace(&outcome.trace);
    }

    /// Re-reads the store gauges after a build or mutation
    /// (ingest/compact): generation, triple counts, and the exact
    /// storage-byte accounting (index bytes across every live segment,
    /// and total bytes per triple).
    fn refresh_gauges(&self) {
        let total = self.store.len();
        self.registry
            .set_gauge(Gauge::StoreGeneration, self.store.generation());
        self.registry
            .set_gauge(Gauge::DeltaTriples, self.store.delta_len() as u64);
        self.registry.set_gauge(Gauge::StoreTriples, total as u64);
        let (mut index_bytes, mut total_bytes) = (0usize, 0usize);
        for segment in self.store.segments() {
            let b = segment.storage_bytes();
            index_bytes += b.index_bytes();
            total_bytes += b.total();
        }
        let bytes_per_triple = if total > 0 {
            (total_bytes as f64 / total as f64).round() as u64
        } else {
            0
        };
        self.registry.set_gauge(Gauge::IndexBytes, index_bytes as u64);
        self.registry.set_gauge(Gauge::BytesPerTriple, bytes_per_triple);
    }

    /// The rule set an engine variant runs the top-k processor with:
    /// none for `Exact` (top-k without rules reduces to exact
    /// evaluation), `rules` as given for the relaxing engines.
    fn engine_rules(engine: Engine, rules: &RuleSet) -> &RuleSet {
        static NO_RULES: OnceLock<RuleSet> = OnceLock::new();
        match engine {
            Engine::Exact => NO_RULES.get_or_init(RuleSet::new),
            Engine::FullExpansion | Engine::IncrementalTopK => rules,
        }
    }

    /// Enables the system-level posting cache: a bounded LRU of
    /// materialized posting lists shared across *every* query answered
    /// through this system. Sessions carry their own cache (see
    /// [`crate::Session`]); enable this tier when one system serves many
    /// queries directly. On a sharded system this provisions one cache
    /// of `capacity` lists *per shard*. Returns `self` for chaining.
    pub fn enable_posting_cache(&mut self, capacity: usize) -> &mut Self {
        self.caches = (0..self.shard_count())
            .map(|_| SharedPostingCache::new(capacity))
            .collect();
        self
    }

    /// The system-level posting cache, if enabled (monolithic systems).
    pub fn posting_cache(&self) -> Option<&SharedPostingCache> {
        self.segmented_store().and(self.caches.first())
    }

    /// The system-level posting caches: one per shard (one for a
    /// monolith), empty unless enabled.
    pub fn posting_caches(&self) -> &[SharedPostingCache] {
        &self.caches
    }

    /// Parses a query string against this system's vocabulary.
    pub fn parse(&self, text: &str) -> Result<Query, trinit_query::ParseError> {
        trinit_query::parse(self.store(), text)
    }

    /// Parses and answers a query with the default engine (incremental
    /// top-k) and the system rule set.
    pub fn query(&self, text: &str) -> Result<QueryOutcome, trinit_query::ParseError> {
        let query = self.parse(text)?;
        Ok(self.run(query, Engine::IncrementalTopK))
    }

    /// Runs a compiled query with a chosen engine and the system rules.
    pub fn run(&self, query: Query, engine: Engine) -> QueryOutcome {
        self.run_with_rules(query, engine, &self.rules)
    }

    /// Runs a compiled query with a caller-supplied rule set (evaluation
    /// ablations; [`Session`](crate::Session)s add their own caches).
    /// Consults the system-level posting cache if one was enabled.
    pub fn run_with_rules(&self, query: Query, engine: Engine, rules: &RuleSet) -> QueryOutcome {
        self.execute(query, engine, rules, &self.caches, Scope::Store)
    }

    /// The semi-naive delta question: which of `query`'s top-k answers
    /// use at least one triple from the live delta segment? Runs one
    /// restricted pass per pattern position (of the query and of its
    /// structural variants) — pattern `j`'s merge source confined to the
    /// delta slices, every other pattern reading the full base ∪ delta
    /// union — and unions the results (an answer joining two fresh
    /// triples surfaces in two passes; the collector keeps one). An
    /// answer scores as its best derivation *through the delta*: its
    /// full-run score unless base alone already derives it better.
    /// Returns no answers when no delta is live — an empty batch
    /// introduces nothing.
    ///
    /// Pre-existing answers whose scores merely *changed* because the
    /// delta shifted the normalization totals are not reported; this
    /// surfaces answers with fresh evidence, the re-query–vs–rebuild
    /// trade the `live_ingest` benchmark workload measures.
    pub fn answers_introduced_by(&self, query: Query) -> QueryOutcome {
        self.execute(query, Engine::IncrementalTopK, &self.rules, &self.caches, Scope::Delta)
    }

    /// The one way a query reaches an engine: every public query method
    /// of [`Trinit`] and [`Session`](crate::Session) is this call with
    /// its own rule set and cache set (one store-level posting cache per
    /// shard — one for a monolith — or none; sessions pass their own).
    /// Total over partition counts and delta states: the reference
    /// engines run where they exist (one frozen slice) and the top-k
    /// processor answers for them everywhere else.
    pub(crate) fn execute(
        &self,
        query: Query,
        engine: Engine,
        rules: &RuleSet,
        caches: &[SharedPostingCache],
        scope: Scope,
    ) -> QueryOutcome {
        let wall_start = now_ns();
        // Cached posting lists are a base slice's entries: stale once
        // compaction replaces the slice, and dropped wholesale then. An
        // ingest leaves them valid up to the normalization total baked
        // into their probabilities, which every hit re-checks.
        for cache in caches {
            cache.ensure_generation(self.store.base_epoch());
        }
        let reference = matches!(engine, Engine::Exact | Engine::FullExpansion);
        let outcome = match (self.store.single_slice(), scope) {
            // An empty batch introduces nothing.
            (_, Scope::Delta) if !self.has_delta() => {
                let metrics = ExecMetrics::default();
                QueryOutcome::untraced(query, Vec::new(), metrics, self.generation())
            }
            (Some(store), Scope::Store) if reference => {
                self.run_reference(store, query, engine, rules)
            }
            _ => self.run_topk(query, engine, rules, caches, scope),
        };
        self.observe_outcome(&outcome, wall_start);
        outcome
    }

    /// The reference engines over one frozen store. They run to
    /// completion by construction and record no trace.
    fn run_reference(
        &self,
        store: &XkgStore,
        query: Query,
        engine: Engine,
        rules: &RuleSet,
    ) -> QueryOutcome {
        let (answers, metrics) = if engine == Engine::Exact {
            let mut metrics = ExecMetrics::default();
            let mut collector = AnswerCollector::new();
            for a in exact::evaluate(store, &query, &query.patterns, &[], 1.0, &mut metrics) {
                collector.offer(a);
            }
            (collector.into_top_k(query.k), metrics)
        } else {
            expand::run(store, &query, rules, &self.topk.reference_expansion())
        };
        QueryOutcome::untraced(query, answers, metrics, self.generation())
    }

    /// The top-k processor through a [`ShardedExecutor`]: the merge over
    /// the store's segments (a one-store execution when the store is one
    /// frozen slice) — once for [`Scope::Store`],
    /// once per pattern position for [`Scope::Delta`]. Answers (keys
    /// *and* scores) equal a from-scratch rebuild's on every route. Owns
    /// the query's budget tracker and recorder, so every pass draws down
    /// one budget and lands in one trace.
    fn run_topk(
        &self,
        query: Query,
        engine: Engine,
        rules: &RuleSet,
        caches: &[SharedPostingCache],
        scope: Scope,
    ) -> QueryOutcome {
        let rules = Self::engine_rules(engine, rules);
        let cfg = &self.topk;
        let tracker = BudgetTracker::new(cfg);
        let mut recorder = cfg.obs.recorder();
        let query_start = recorder.start();
        let first = match scope {
            Scope::Store => None,
            Scope::Delta => Some(0),
        };
        let executor = ShardedExecutor::new(&self.store).with_caches(caches);
        // One pass, pattern `restrict` (if any) confined to the delta
        // slices — to nothing, hence no answers, when there are none.
        let pass = |restrict: Option<usize>, recorder: &mut TraceRecorder| -> ExecOutcome {
            let ctx = ExecCtx {
                tracker: &tracker,
                recorder,
            };
            executor.merge(&query, rules, cfg, restrict, ctx)
        };
        let mut run = pass(first, &mut recorder);
        if first.is_some() {
            // The union over every pattern position's restricted pass —
            // structural variants may have more patterns than the query,
            // so until a pass finds no variant with a `j`-th pattern. An
            // answer joining two fresh triples surfaces in two passes,
            // and the collector keeps one.
            for j in 1.. {
                let next = pass(Some(j), &mut recorder);
                if next.metrics.rewritings_evaluated == 0 {
                    break;
                }
                run.metrics.merge(&next.metrics);
                for (acc, m) in run.per_shard.iter_mut().zip(&next.per_shard) {
                    acc.merge(m);
                }
                run.answers.extend(next.answers);
            }
            let mut collector = AnswerCollector::new();
            for a in std::mem::take(&mut run.answers) {
                collector.offer(a);
            }
            run.answers = collector.into_top_k(query.k);
            run.completeness = tracker.completeness(&run.answers);
        }
        recorder.record(Stage::Query, run.answers.len() as u32, query_start);
        run.trace = recorder.finish();
        if self.shard_count() == 1 {
            // Per-shard breakdowns surface on sharded systems only.
            run.per_shard.clear();
        }
        QueryOutcome::of(query, run, self.generation())
    }

    /// Executes a batch of independent queries concurrently and returns
    /// their outcomes in input order, on a [`QueryPool`] of
    /// [`std::thread::available_parallelism`] workers (capped at the
    /// batch length, so a 1-query batch runs on the calling thread).
    /// Every partition count takes this one route: each query is one
    /// [`Trinit::run`]-equivalent execution.
    ///
    /// Worker panics are isolated per query: a query whose execution
    /// panicked yields [`ExecError::WorkerPanicked`] in its slot while
    /// every other query in the batch completes normally — a batch
    /// never aborts the process.
    pub fn run_batch(
        &self,
        queries: Vec<Query>,
        engine: Engine,
    ) -> Vec<Result<QueryOutcome, ExecError>> {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.run_batch_with_workers(queries, engine, workers)
    }

    /// [`Trinit::run_batch_with_workers`] under its old name, kept only
    /// because the benchmark harness still calls it.
    pub fn run_batch_stealing(
        &self,
        queries: Vec<Query>,
        engine: Engine,
        workers: usize,
    ) -> Vec<Result<QueryOutcome, ExecError>> {
        self.run_batch_with_workers(queries, engine, workers)
    }

    /// [`Trinit::run_batch`] with an explicit worker count (benchmarks
    /// pin the pool to read scaling curves; servers may cap it below
    /// the hardware parallelism).
    pub fn run_batch_with_workers(
        &self,
        queries: Vec<Query>,
        engine: Engine,
        workers: usize,
    ) -> Vec<Result<QueryOutcome, ExecError>> {
        let results = QueryPool::new(workers).try_execute(queries, |q| {
            self.execute(q, engine, &self.rules, &self.caches, Scope::Store)
        });
        // Successful slots were observed by `execute`; panicked slots
        // only surface here.
        for result in &results {
            if result.is_err() {
                self.registry.incr(Counter::QueryFailures);
            }
        }
        results
    }

    /// Explains one answer of an outcome (paper §5, Figure 6):
    /// derivation triple ids resolve through the store's global id
    /// space (the base shards, then the live delta views).
    ///
    /// Returns `None` for an outcome answered at another store
    /// generation ([`Trinit::generation`]): global ids are offsets, so
    /// an ingest or compaction since may have moved them onto other
    /// triples. Re-run the query to explain its current answers.
    pub fn explain(&self, outcome: &QueryOutcome, answer_idx: usize) -> Option<Explanation> {
        if outcome.generation != self.generation() {
            return None;
        }
        let answer = outcome.answers.get(answer_idx)?;
        Some(crate::explain::explain(&self.store, &outcome.query, &self.rules, answer))
    }

    /// Renders the internal processing steps of an outcome (paper §5:
    /// "TriniT can show internal steps"). Rendering is dictionary-level,
    /// so [`Trinit::store`] serves every partition count.
    pub fn processing_report(&self, outcome: &QueryOutcome) -> String {
        crate::explain::processing_report(self.store(), &self.rules, outcome)
    }

    /// Suggestions for a finished query (paper §5): a token
    /// predicate's overlaps are probed over every live slice — the base
    /// partitions and the delta views — so triples an ingest adds count
    /// at once, before any [`Trinit::compact`].
    pub fn suggest(&self, outcome: &QueryOutcome) -> Vec<Suggestion> {
        let (query, rules, answers) = (&outcome.query, &self.rules, &outcome.answers);
        suggest(&self.store, query, rules, answers, &self.suggest_cfg)
    }

    /// Auto-completes a term prefix (paper §5) over the live
    /// vocabulary, so a term an ingest adds is completed at once.
    pub fn complete(&self, prefix: &str, limit: usize) -> Vec<Completion> {
        Completer::build(self.store()).complete(prefix, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_worldgen::WorldConfig;

    fn tiny_system() -> Trinit {
        let world = World::generate(WorldConfig::tiny(11));
        TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(7)).build()
    }

    #[test]
    fn end_to_end_build_has_both_strata() {
        let sys = tiny_system();
        let stats = sys.stats();
        assert!(stats.kg_triples > 0, "KG loaded");
        assert!(stats.xkg_triples > 0, "Open IE produced extension triples");
        assert!(stats.rules > 0, "miner produced rules");
        assert!(stats.ingest.kept > 0);
        assert_eq!(stats.total_triples(), stats.kg_triples + stats.xkg_triples);
    }

    #[test]
    fn query_round_trip() {
        let sys = tiny_system();
        let outcome = sys.query("?x type person LIMIT 3").unwrap();
        assert!(!outcome.answers.is_empty());
        assert!(outcome.answers.len() <= 3);
    }

    #[test]
    fn engines_agree_on_exact_queries() {
        let sys = tiny_system();
        let q1 = sys.parse("?x type university LIMIT 100").unwrap();
        let q2 = sys.parse("?x type university LIMIT 100").unwrap();
        let exact = sys.run(q1, Engine::Exact);
        let topk = sys.run(q2, Engine::IncrementalTopK);
        // type-triples admit no relaxation in the mined rule set targeted
        // at them necessarily, but exact answers must be a subset.
        assert!(topk.answers.len() >= exact.answers.len());
        let exact_keys: Vec<_> = exact.answers.iter().map(|a| &a.key).collect();
        for k in exact_keys {
            assert!(topk.answers.iter().any(|a| &a.key == k));
        }
    }

    #[test]
    fn completion_over_built_vocabulary() {
        let sys = tiny_system();
        assert!(!sys.complete("", 10).is_empty());
    }

    #[test]
    fn parse_errors_surface() {
        let sys = tiny_system();
        assert!(sys.query("?x bornIn").is_err());
    }

    #[test]
    fn from_parts_wraps_fixture() {
        let store = crate::fixtures::paper_store();
        let rules = crate::fixtures::paper_rules(&store);
        let sys = Trinit::from_parts(store, rules);
        let outcome = sys.query("?x bornIn Ulm").unwrap();
        assert_eq!(outcome.answers.len(), 1);
    }

    #[test]
    fn full_expansion_over_the_last_var_id_keeps_the_query_answers() {
        let store = crate::fixtures::paper_store();
        let rules = crate::fixtures::paper_rules(&store);
        let sys = Trinit::from_parts(store, rules);
        let own = sys.run(sys.parse("?x affiliation ?y").unwrap(), Engine::Exact);
        assert!(!own.answers.is_empty());
        // By hand (the parser numbers variables from 0): ?x takes the
        // last id, so rule 3's fresh variable has none left and only
        // rule 4 rewrites the query.
        let mut query = sys.parse("?x affiliation ?y").unwrap();
        query.patterns[0].s = trinit_relax::QTerm::Var(trinit_relax::VarId(u16::MAX));
        query.patterns[0].o = trinit_relax::QTerm::Var(trinit_relax::VarId(0));
        query.projection.clear();
        let got = sys.run(query, Engine::FullExpansion);
        let values = |a: &Answer| a.key.iter().map(|(_, t)| *t).collect::<Vec<_>>();
        for want in &own.answers {
            assert!(
                got.answers.iter().any(|a| values(a) == values(want)),
                "{:?} missing from {:?}",
                values(want),
                got.answers.iter().map(values).collect::<Vec<_>>()
            );
        }
        assert!(got.answers.len() > own.answers.len(), "rule 4 still applies");
    }

    #[test]
    fn trinit_is_send_and_sync() {
        // The flagship type must stay shareable across threads — the
        // "one system serves many queries" deployment wraps it in an
        // `Arc`. The embedded posting cache uses `Mutex`/`Arc`
        // internally precisely to keep this holding.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trinit>();
        assert_send_sync::<SharedPostingCache>();
    }

    fn tiny_sharded_system(shards: usize) -> Trinit {
        let world = World::generate(WorldConfig::tiny(11));
        let mut builder =
            TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(7));
        builder.options_mut().shards(shards);
        builder.build()
    }

    #[test]
    fn sharded_build_selects_sharded_backend() {
        let sys = tiny_sharded_system(3);
        assert_eq!(sys.shard_count(), 3);
        let sharded = sys.sharded_store().expect("sharded backend");
        assert_eq!(sharded.len(), sys.stats().total_triples());
        // Monolithic builds stay monolithic.
        let mono = tiny_system();
        assert_eq!(mono.shard_count(), 1);
        assert!(mono.sharded_store().is_none());
    }

    fn tiny_packed_system() -> Trinit {
        let world = World::generate(WorldConfig::tiny(11));
        let mut builder =
            TrinitBuilder::from_world(&world, &KgConfig::default(), &CorpusConfig::tiny(7));
        builder.options_mut().layout(SegmentLayout::Packed);
        builder.build()
    }

    #[test]
    fn packed_build_answers_match_flat_build() {
        let flat = tiny_system();
        let packed = tiny_packed_system();
        assert!(packed
            .segmented_store()
            .is_some_and(|seg| !seg.base().layout().is_flat()));
        for q in ["?x type person LIMIT 5", "?x type university LIMIT 7"] {
            let a = flat.query(q).unwrap();
            let b = packed.query(q).unwrap();
            assert_eq!(a.answers.len(), b.answers.len(), "{q}");
            for (x, y) in a.answers.iter().zip(&b.answers) {
                assert_eq!(x.key, y.key, "{q}: answer keys differ");
                assert_eq!(
                    x.score.to_bits(),
                    y.score.to_bits(),
                    "{q}: scores must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn storage_gauges_surface_in_snapshot() {
        let flat = tiny_system();
        let packed = tiny_packed_system();
        for sys in [&flat, &packed] {
            let j = sys.metrics_snapshot();
            assert!(j.contains("\"index_bytes\":"), "{j}");
            assert!(j.contains("\"bytes_per_triple\":"), "{j}");
            assert!(sys.registry().gauge(Gauge::IndexBytes) > 0);
            assert!(sys.registry().gauge(Gauge::BytesPerTriple) > 0);
        }
        assert!(
            packed.registry().gauge(Gauge::IndexBytes)
                < flat.registry().gauge(Gauge::IndexBytes),
            "packed layout must shrink index bytes ({} vs {})",
            packed.registry().gauge(Gauge::IndexBytes),
            flat.registry().gauge(Gauge::IndexBytes)
        );
    }

    #[test]
    fn sharded_system_answers_match_monolith() {
        let mono = tiny_system();
        let sharded = tiny_sharded_system(4);
        // Same world, same mined rules, same queries.
        assert_eq!(mono.stats().total_triples(), sharded.stats().total_triples());
        assert_eq!(mono.rules().len(), sharded.rules().len());
        for q in ["?x type person LIMIT 5", "?x type university LIMIT 7"] {
            let a = mono.query(q).unwrap();
            let b = sharded.query(q).unwrap();
            assert_eq!(a.answers.len(), b.answers.len(), "{q}");
            for (x, y) in a.answers.iter().zip(&b.answers) {
                assert!((x.score - y.score).abs() < 1e-9, "{q}: scores differ");
            }
            assert_eq!(b.shard_metrics.len(), 4, "per-shard metrics surface");
            assert!(a.shard_metrics.is_empty());
        }
    }

    #[test]
    fn sharded_routing_covers_every_engine() {
        let mono = tiny_system();
        let sharded = tiny_sharded_system(2);
        for engine in [Engine::Exact, Engine::FullExpansion, Engine::IncrementalTopK] {
            let q1 = mono.parse("?x type person LIMIT 6").unwrap();
            let q2 = sharded.parse("?x type person LIMIT 6").unwrap();
            let a = mono.run(q1, engine);
            let b = sharded.run(q2, engine);
            // Exact and top-k agree across backends up to which members
            // of the tie group the k-cut lands in; full expansion's
            // answer set is engine-equivalent under the topk budget, so
            // compare the exact subset it must contain above that group.
            if engine != Engine::FullExpansion {
                trinit_shard::testkit::assert_answers_score_equivalent(&b.answers, &a.answers);
                continue;
            }
            let cut = b.answers.last().map_or(f64::NEG_INFINITY, |y| y.score);
            for x in a
                .answers
                .iter()
                .filter(|x| x.derivation.is_exact() && x.score > cut + 1e-9)
            {
                assert!(
                    b.answers.iter().any(|y| y.key == x.key),
                    "{engine:?}: exact answer lost"
                );
            }
        }
    }

    #[test]
    fn run_batch_matches_sequential_runs() {
        for sys in [tiny_system(), tiny_sharded_system(3)] {
            let texts = [
                "?x type person LIMIT 4",
                "?x type university LIMIT 3",
                "?x type person LIMIT 2",
                "?x type city LIMIT 5",
            ];
            let queries: Vec<Query> = texts.iter().map(|t| sys.parse(t).unwrap()).collect();
            let sequential: Vec<_> = texts
                .iter()
                .map(|t| sys.query(t).unwrap().answers)
                .collect();
            let batch = sys.run_batch(queries, Engine::IncrementalTopK);
            assert_eq!(batch.len(), texts.len());
            for (got, want) in batch.iter().zip(&sequential) {
                let got = got.as_ref().expect("no worker panicked");
                assert_eq!(got.completeness, Completeness::Exact);
                assert_eq!(got.answers.len(), want.len());
                for (x, y) in got.answers.iter().zip(want) {
                    assert!((x.score - y.score).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn sharded_explain_and_suggest_resolve_global_ids() {
        let sharded = tiny_sharded_system(3);
        let outcome = sharded.query("?x type person LIMIT 3").unwrap();
        assert!(!outcome.answers.is_empty());
        let explanation = sharded.explain(&outcome, 0).expect("explanation");
        assert!(!explanation.answer_line.is_empty());
        assert!(
            !explanation.kg_triples.is_empty() || !explanation.xkg_triples.is_empty(),
            "derivation triples must render"
        );
        // The report and suggestions must not panic on sharded outcomes.
        let report = sharded.processing_report(&outcome);
        assert!(report.contains("internal processing steps"));
        let _ = sharded.suggest(&outcome);
        // Completion works off the shared dictionary.
        assert!(!sharded.complete("", 10).is_empty());
    }

    #[test]
    fn sharded_system_posting_caches_are_per_shard() {
        let mut sys = tiny_sharded_system(2);
        assert!(sys.posting_caches().is_empty());
        sys.enable_posting_cache(32);
        assert_eq!(sys.posting_caches().len(), 2, "per-shard caches");
        assert!(sys.posting_cache().is_none(), "single-store tier unused");
        let q = "?x type person LIMIT 4";
        let cold = sys.query(q).unwrap();
        let warm = sys.query(q).unwrap();
        assert!(
            warm.metrics.shared_cache_hits > cold.metrics.shared_cache_hits,
            "repeat query must hit shard caches: {:?} vs {:?}",
            warm.metrics,
            cold.metrics
        );
        for (a, b) in cold.answers.iter().zip(&warm.answers) {
            assert_eq!(a.key, b.key);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn system_level_posting_cache_serves_repeated_queries() {
        let store = crate::fixtures::paper_store();
        let rules = crate::fixtures::paper_rules(&store);
        let mut sys = Trinit::from_parts(store, rules);
        let q = "AlbertEinstein affiliation ?x LIMIT 5";
        // Without the cache enabled, repeated queries share nothing.
        let plain = sys.query(q).unwrap();
        assert_eq!(sys.query(q).unwrap().metrics.shared_cache_hits, 0);
        assert!(sys.posting_cache().is_none());

        sys.enable_posting_cache(64);
        let cold = sys.query(q).unwrap();
        let cold_stats = sys.posting_cache().unwrap().stats();
        // A cold query hits only on its own repeats of a pattern.
        assert_eq!(cold.metrics.shared_cache_hits, cold_stats.hits);
        assert!(cold_stats.misses > 0);
        let warm = sys.query(q).unwrap();
        assert!(warm.metrics.shared_cache_hits > cold.metrics.shared_cache_hits);
        let stats = sys.posting_cache().unwrap().stats();
        assert_eq!(
            stats.misses, cold_stats.misses,
            "a warm repeat never misses"
        );
        assert_eq!(
            warm.metrics.posting_lists_built + warm.metrics.shared_cache_hits,
            cold.metrics.posting_lists_built + cold.metrics.shared_cache_hits,
            "every open is either built or a hit"
        );
        // Answers are cache-invisible.
        assert_eq!(plain.answers.len(), warm.answers.len());
        for (a, b) in plain.answers.iter().zip(&warm.answers) {
            assert_eq!(a.key, b.key);
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    const BASE_FACTS: &[(&str, &str, &str)] = &[
        ("ann", "likes", "tea"),
        ("bob", "likes", "tea"),
        ("cal", "likes", "ice"),
    ];
    const DELTA_FACTS: &[(&str, &str, &str)] =
        &[("dan", "likes", "tea"), ("eve", "likes", "soda")];

    fn kg_builder(rows: &[(&str, &str, &str)]) -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for (s, p, o) in rows {
            b.add_kg_resources(s, p, o);
        }
        b
    }

    fn add_delta(b: &mut XkgBuilder) {
        for (s, p, o) in DELTA_FACTS {
            b.add_kg_resources(s, p, o);
        }
    }

    /// Answers rendered by display name — term ids are not comparable
    /// across independently interned systems, names and scores are.
    fn named_answers(sys: &Trinit, outcome: &QueryOutcome) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = outcome
            .answers
            .iter()
            .map(|a| {
                let name = a
                    .key
                    .iter()
                    .filter_map(|(_, t)| *t)
                    .map(|t| sys.store().display_term(t))
                    .collect::<Vec<_>>()
                    .join(",");
                (name, a.score)
            })
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    fn assert_named_answers_eq(got: &[(String, f64)], want: &[(String, f64)]) {
        assert_eq!(got.len(), want.len(), "{got:?} vs {want:?}");
        for ((gn, gs), (wn, ws)) in got.iter().zip(want) {
            assert_eq!(gn, wn);
            assert!((gs - ws).abs() < 1e-9, "{gn}: {gs} vs {ws}");
        }
    }

    /// The cache-staleness regression pinned at the system level: a
    /// posting cache warmed before `ingest` must not serve pre-ingest
    /// lists afterwards — post-ingest answers equal a from-scratch
    /// rebuild on both backends.
    #[test]
    fn ingest_then_query_matches_fresh_rebuild() {
        let all: Vec<_> = BASE_FACTS.iter().chain(DELTA_FACTS).copied().collect();
        let fresh = Trinit::from_parts(kg_builder(&all).build(), RuleSet::new());
        let q = "?p likes tea LIMIT 10";
        let want = fresh.query(q).unwrap();
        assert_eq!(want.answers.len(), 3);
        let want = named_answers(&fresh, &want);

        let mut mono = Trinit::from_parts(kg_builder(BASE_FACTS).build(), RuleSet::new());
        mono.enable_posting_cache(64);
        assert_eq!(mono.query(q).unwrap().answers.len(), 2);
        assert_eq!(mono.query(q).unwrap().answers.len(), 2); // warm the cache
        let appended = mono.ingest(add_delta);
        assert_eq!(appended, 2);
        assert!(mono.has_delta());
        assert_eq!(mono.generation(), 1);
        let got = mono.query(q).unwrap();
        assert_named_answers_eq(&named_answers(&mono, &got), &want);

        let mut sharded = Trinit::from_sharded_parts(
            ShardedStore::build(kg_builder(BASE_FACTS), 3),
            RuleSet::new(),
        );
        sharded.enable_posting_cache(32);
        assert_eq!(sharded.query(q).unwrap().answers.len(), 2); // warm shard caches
        assert_eq!(sharded.ingest(add_delta), 2);
        assert!(sharded.has_delta());
        let got = sharded.query(q).unwrap();
        assert_named_answers_eq(&named_answers(&sharded, &got), &want);
    }

    /// Posting caches survive an ingest (it cannot change a base slice),
    /// so the adversarial case is a cached *filtered* list whose
    /// normalization total a later ingest moves: a batch that misses the
    /// pattern must leave the list servable, a batch that matches it
    /// must not — and either way scores equal a from-scratch rebuild.
    #[test]
    fn cached_filtered_list_is_reused_only_under_the_total_it_was_scaled_by() {
        let q = "?p likes tea LIMIT 10";
        let systems = [
            Trinit::from_parts(kg_builder(BASE_FACTS).build(), RuleSet::new()),
            Trinit::from_sharded_parts(
                ShardedStore::build(kg_builder(BASE_FACTS), 3),
                RuleSet::new(),
            ),
        ];
        for mut sys in systems {
            sys.enable_posting_cache(64);
            let mut facts: Vec<_> = BASE_FACTS.iter().chain(DELTA_FACTS).copied().collect();
            assert_eq!(sys.ingest(add_delta), 2);
            sys.query(q).unwrap(); // cached while the delta is live
            assert!(sys.query(q).unwrap().metrics.shared_cache_hits > 0);

            for (fact, matches) in [
                (("zed", "hates", "rain"), false),
                (("fay", "likes", "tea"), true),
            ] {
                facts.push(fact);
                assert_eq!(
                    sys.ingest(|b| {
                        b.add_kg_resources(fact.0, fact.1, fact.2);
                    }),
                    1
                );
                let misses = |sys: &Trinit| -> usize {
                    sys.posting_caches().iter().map(|c| c.stats().misses).sum()
                };
                let before = misses(&sys);
                let got = sys.query(q).unwrap();
                assert_eq!(
                    misses(&sys) > before,
                    matches,
                    "{fact:?}: a list is stale iff the batch moved its total"
                );
                let fresh = Trinit::from_parts(kg_builder(&facts).build(), RuleSet::new());
                let want = named_answers(&fresh, &fresh.query(q).unwrap());
                assert_named_answers_eq(&named_answers(&sys, &got), &want);
                // The rebuilt list is cached in its turn.
                assert!(sys.query(q).unwrap().metrics.shared_cache_hits > 0);
            }
        }
    }

    /// The semi-naive delta question: before any ingest it is exactly
    /// empty; after one it surfaces only answers that use the fresh
    /// facts (dan), not the pre-existing ones (ann, bob).
    #[test]
    fn answers_introduced_by_surfaces_only_fresh_answers() {
        let systems = [
            Trinit::from_parts(kg_builder(BASE_FACTS).build(), RuleSet::new()),
            Trinit::from_sharded_parts(
                ShardedStore::build(kg_builder(BASE_FACTS), 3),
                RuleSet::new(),
            ),
        ];
        for mut sys in systems {
            let q = sys.parse("?p likes tea LIMIT 10").unwrap();
            let none = sys.answers_introduced_by(q);
            assert!(none.answers.is_empty(), "no delta, no introduced answers");
            assert!(matches!(none.completeness, Completeness::Exact));

            assert_eq!(sys.ingest(add_delta), 2);
            let q = sys.parse("?p likes tea LIMIT 10").unwrap();
            let introduced = sys.answers_introduced_by(q);
            let names: Vec<String> = named_answers(&sys, &introduced)
                .into_iter()
                .map(|(n, _)| n)
                .collect();
            assert_eq!(names, ["dan"], "only the fresh answer surfaces");
        }
    }

    /// Global ids are offsets: delta view 1 starts after view 0, so an
    /// ingest homed on shard 0 moves every id of view 1. An outcome from
    /// before such an ingest must not be explained against the store
    /// after it — its derivation id now names the other shard's fact.
    #[test]
    fn explain_refuses_an_outcome_from_another_generation() {
        let mut sys = Trinit::from_sharded_parts(
            ShardedStore::build(kg_builder(BASE_FACTS), 2),
            RuleSet::new(),
        );
        let homed_on = |shard: usize| {
            let on = |name: &&str| sys.store().resource(name).unwrap().shard_of(2) == shard;
            BASE_FACTS.iter().map(|f| f.0).find(on).expect("a base subject per shard")
        };
        let (first, second) = (homed_on(1), homed_on(0));
        sys.ingest(|b| {
            b.add_kg_resources(first, "likes", "jam");
        });
        let stale = sys.query("?p likes jam").unwrap();
        let rendered = sys.explain(&stale, 0).expect("same generation").kg_triples;
        assert_eq!(rendered, [format!("{first} likes jam")]);

        sys.ingest(|b| {
            b.add_kg_resources(second, "likes", "jam");
        });
        assert!(sys.explain(&stale, 0).is_none(), "stale ids must not resolve");
        let fresh = sys.query("?p likes jam").unwrap();
        assert_eq!(fresh.answers.len(), 2);
        assert!(sys.explain(&fresh, 0).is_some());
    }

    /// Compacting re-freezes the delta without changing answers, and
    /// explanations resolve delta evidence both before and after.
    #[test]
    fn compact_preserves_answers_and_explains_delta_evidence() {
        let mut sys = Trinit::from_parts(kg_builder(BASE_FACTS).build(), RuleSet::new());
        assert_eq!(sys.ingest(add_delta), 2);
        let q = "?p likes soda LIMIT 5";
        let before = sys.query(q).unwrap();
        assert_eq!(before.answers.len(), 1);
        let e = sys.explain(&before, 0).expect("explain a delta answer");
        assert!(e.answer_line.contains("eve"), "{}", e.answer_line);
        assert!(!e.kg_triples.is_empty(), "delta KG evidence renders");
        let before = named_answers(&sys, &before);

        sys.compact();
        assert!(!sys.has_delta());
        assert_eq!(sys.generation(), 2);
        let after = sys.query(q).unwrap();
        let explained = sys.explain(&after, 0).expect("explain after compact");
        assert!(explained.answer_line.contains("eve"));
        assert_named_answers_eq(&named_answers(&sys, &after), &before);

        // Sharded compaction folds delta and pending absorbs the same way.
        let mut sharded = Trinit::from_sharded_parts(
            ShardedStore::build(kg_builder(BASE_FACTS), 2),
            RuleSet::new(),
        );
        assert_eq!(sharded.ingest(add_delta), 2);
        let before = sharded.query(q).unwrap();
        let before = named_answers(&sharded, &before);
        sharded.compact();
        assert!(!sharded.has_delta());
        let after = sharded.query(q).unwrap();
        assert_named_answers_eq(&named_answers(&sharded, &after), &before);
        assert_eq!(sharded.shard_count(), 2, "compaction keeps the topology");
    }
}
