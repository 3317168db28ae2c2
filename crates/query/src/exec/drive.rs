//! Stage 4 of the top-k operator pipeline: the **driver** — the one
//! entry point, variant enumeration, stream assembly, and the pull loop.
//!
//! "TriniT uses a top-k approach to query processing that is an extension
//! of the incremental top-k algorithm of [Theobald et al., SIGIR'05],
//! guided by \[the\] scoring scheme ... Top-k query processing is based on
//! the ability to access answers for a triple pattern in sorted order of
//! their scores, allowing us to go only as far as necessary into each
//! triple pattern index list." (paper §4)
//!
//! **One seam.** Every route into the engine is
//! [`execute`]`(view, request, ctx)`:
//!
//! * the [`StoreView`] says *what is being queried* — one frozen store,
//!   a base plus its delta, N shards plus their delta views (see
//!   [`crate::exec::segmented`]);
//! * the [`ExecRequest`] says *what the call is* — query, rules,
//!   configuration, store-level caches, restriction;
//! * the [`ExecCtx`] carries the per-query [`BudgetTracker`] and span
//!   recorder. Their **owner is the caller** that started the query —
//!   the engine facade, a sharded executor, or the [`run`] /
//!   [`run_governed`] conveniences below — because one query may span
//!   several `execute` calls (one restricted pass per pattern of a
//!   delta query) that must draw down one budget and land in one trace.
//!   The owner records the enclosing [`Stage::Query`] span and finishes
//!   the recorder into [`ExecOutcome::trace`].
//!
//! **One source for any slice count.** `execute`'s factory builds, per
//! pattern, the pattern's relaxation table ([`AltTable`]) and one
//! [`IncrementalMerge`] over every (alternative, slice) list of the view
//! — or of the sub-range a restricted pattern reads. A one-slice view is
//! the case of one slice, not a second path: the same `run_pipeline`
//! runs for every view, and only a multi-slice view keeps per-slice work
//! counters ([`ExecOutcome::per_shard`]).
//!
//! The pipeline composes the three stages below it through two narrow
//! seams and owns nothing else:
//!
//! * **[`crate::exec::merge`]** (stage 1) supplies per-pattern sorted
//!   access. The driver never sees posting lists, caches, slices or
//!   relaxation chains — only `peek_bound` / `next_merged` /
//!   `remaining_mass`.
//! * **[`crate::exec::join`]** (stage 2) holds the per-stream join
//!   state (`Stream`), including the keys of a retired stream that
//!   restrict the others (the retired-stream semijoin filter), and
//!   combines each arrival against the other streams' partitions
//!   (`join::join_with_others`).
//! * **[`crate::exec::threshold`]** (stage 3) decides termination: the
//!   driver asks `ThresholdPolicy::admit_variant` before opening a
//!   variant and `ThresholdPolicy::after_round` after every pull.
//!
//! **The restriction seam** (`restrict_to_retired_keys`): a retired
//! stream's join keys restrict the live streams' sources, so the
//! semijoin filter's knowledge drives bound lookups instead of
//! discarding pulled postings — Yannakakis' semijoin reduction inside the
//! rank join, with no option and no second join loop.
//!
//! **Structural variants** (multi-pattern rules, e.g. paper rule 1)
//! rewrite the query as a whole; each variant runs through the pipeline
//! above, sharing one global answer collector.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use trinit_obs::{now_ns, ObsConfig, QueryTrace, SpanRecord, Stage, TraceRecorder};
use trinit_relax::{
    apply_rule_oracle, canonical_key, ConditionOracle, ExpandOptions, QPattern, RuleId, RuleSet,
};
use trinit_xkg::XkgStore;

use crate::answer::{Answer, AnswerCollector};
use crate::ast::Query;
use crate::exec::budget::{BudgetTracker, Completeness, ExecBudget};
use crate::exec::join::{self, JoinScratch, SeenItem, Stream};
use crate::exec::merge::{AltTable, IncrementalMerge, FRESH_VARS_PER_STREAM};
use crate::exec::segmented::StoreView;
use crate::exec::threshold::{Admission, RoundVerdict, ThresholdPolicy};
use crate::exec::{ExecMetrics, TripleLookup};
use crate::score::{ln_weight, SharedPostingCache};

/// Configuration of the incremental top-k processor.
#[derive(Debug, Clone)]
pub struct TopkConfig {
    /// Maximum chain length of single-pattern rules per pattern.
    pub chain_depth: usize,
    /// Maximum applications of structural (multi-pattern / multi-RHS)
    /// rules at the query level.
    pub structural_depth: usize,
    /// Alternatives and variants below this weight are pruned.
    pub min_weight: f64,
    /// Cap on alternatives per pattern.
    pub max_alternatives: usize,
    /// Cap on structural query variants.
    pub max_variants: usize,
    /// ε-approximate top-k: answers forfeited by early termination are
    /// guaranteed to score at most ε (probability space, absolute), so
    /// for every rank `r` the returned answer satisfies
    /// `prob(approx[r]) ≥ prob(exact[r]) − ε` while carrying its exact
    /// score. The merge stage's prefix-sum remaining-mass envelope is
    /// the load-bearing criterion (see [`crate::exec::threshold`]):
    /// streams retire once everything they can still contribute is
    /// within ε, and hopeless variants are skipped outright —
    /// retirements counted in [`ExecMetrics::approx_cutoffs`]. `0.0`
    /// (the default) is the exact mode, bit-identical in answers *and*
    /// pull counts to an engine without the criterion.
    pub epsilon: f64,
    /// Relative-θ approximate top-k (θ ∈ \[0, 1)): the round loop also
    /// stops once `kth ≥ threshold · (1 − θ)` in probability space, so
    /// every returned rank `r` keeps `prob(approx[r]) ≥ (1 − θ) ·
    /// prob(exact[r])` — a scale-free counterpart to the absolute ε
    /// criterion (see [`crate::exec::threshold`]). `0.0` (the default)
    /// coincides with the exact criterion and changes nothing.
    pub theta: f64,
    /// Execution budget: wall-clock deadline, pull limit,
    /// answer-materialization limit, and the degradation ladder that
    /// escalates ε / θ inside the soft budget region instead of dying
    /// at the wall ([`crate::exec::budget`]). Unlimited by default —
    /// and then every governed check reduces to one branch, keeping
    /// the exact path bit-identical.
    pub budget: ExecBudget,
    /// Instrumentation: per-query stage spans captured into a bounded
    /// ring and folded into the process registry by the engine facade.
    /// [`ObsConfig::off`] is the zero-overhead mode — every record
    /// site reduces to one branch and the clock is never read.
    pub obs: ObsConfig,
}

impl Default for TopkConfig {
    fn default() -> Self {
        TopkConfig {
            chain_depth: 2,
            structural_depth: 1,
            min_weight: 0.05,
            max_alternatives: 64,
            max_variants: 16,
            epsilon: 0.0,
            theta: 0.0,
            budget: ExecBudget::default(),
            obs: ObsConfig::default(),
        }
    }
}

impl TopkConfig {
    /// The full expansion that reaches this configuration's rewritings —
    /// `chain_depth` single-pattern rules, then `structural_depth`
    /// structural ones: the reference its answers are checked against.
    pub fn reference_expansion(&self) -> ExpandOptions {
        ExpandOptions {
            max_depth: self.chain_depth + self.structural_depth,
            min_weight: self.min_weight,
            max_rewritings: 4096,
        }
    }
}

/// One structural variant of a query: its patterns, weight and the
/// structural rules behind it.
pub type Variant = (Vec<QPattern>, f64, Vec<RuleId>);

/// Enumerates structural query variants (structural rules applied at
/// the query level, breadth-first up to
/// [`TopkConfig::structural_depth`]), the query itself first, keeping
/// original rule ids in traces. Data conditions are verified through
/// `oracle` — the whole store for the monolithic engine, a cross-slice
/// oracle for partitioned execution. A variant only tries the rules
/// [`RuleSet::structural_rules_for`] keeps for its patterns — the others
/// cannot match it — so a query no structural rule's predicates touch
/// costs one scan of the rule list.
pub fn structural_variants(
    oracle: Option<&dyn ConditionOracle>,
    patterns: &[QPattern],
    rules: &RuleSet,
    cfg: &TopkConfig,
) -> Vec<Variant> {
    let mut out: Vec<Variant> = vec![(patterns.to_vec(), 1.0, Vec::new())];
    if cfg.structural_depth == 0 || rules.structural_rules_for(patterns).next().is_none() {
        return out;
    }
    let original_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m + 1);
    let mut keys = vec![canonical_key(patterns, original_vars)];
    let mut frontier = vec![0usize];
    for _ in 0..cfg.structural_depth {
        let mut next_frontier = Vec::new();
        for &idx in &frontier {
            let (cur_patterns, cur_weight, cur_trace) = out[idx].clone();
            for rule_id in rules.structural_rules_for(&cur_patterns) {
                let rule = rules.get(rule_id);
                let weight = cur_weight * rule.weight;
                if weight < cfg.min_weight {
                    continue;
                }
                for rewriting in apply_rule_oracle(&cur_patterns, rule, rule_id, oracle) {
                    let key = canonical_key(&rewriting.patterns, original_vars);
                    if keys.contains(&key) || out.len() >= cfg.max_variants {
                        continue;
                    }
                    keys.push(key);
                    let mut trace = cur_trace.clone();
                    trace.push(rule_id);
                    out.push((rewriting.patterns, weight, trace));
                    next_frontier.push(out.len() - 1);
                }
            }
        }
        if next_frontier.is_empty() {
            break;
        }
        frontier = next_frontier;
    }
    out
}

/// The call: what to answer, under which rules and configuration, with
/// which warm state.
pub struct ExecRequest<'a> {
    /// The query.
    pub query: &'a Query,
    /// The relaxation rules in force.
    pub rules: &'a RuleSet,
    /// Processor configuration.
    pub cfg: &'a TopkConfig,
    /// Store-level posting caches, one per *leading* slice of the view
    /// (cached lists are slice-specific, so slices never share one);
    /// trailing slices — freshly built delta segments, whose lists
    /// change every ingest — run uncached. Empty: no store-level tier.
    pub caches: &'a [SharedPostingCache],
    /// `Some((j, range))` confines query pattern `j`'s source to the
    /// slice sub-range `range` — the semi-naive delta-query seam: a
    /// pattern restricted to the delta slices matches only newly
    /// ingested triples while every other pattern reads the full view.
    /// Positions count within each structural variant, and a variant
    /// without a `j`-th pattern is skipped (it would run unrestricted);
    /// an empty range matches nothing, so the run has no answers.
    pub restrict: Option<(usize, Range<usize>)>,
}

impl<'a> ExecRequest<'a> {
    /// A cold, unrestricted request.
    pub fn new(query: &'a Query, rules: &'a RuleSet, cfg: &'a TopkConfig) -> ExecRequest<'a> {
        ExecRequest {
            query,
            rules,
            cfg,
            caches: &[],
            restrict: None,
        }
    }
}

/// The per-query state one or more [`execute`] calls share; owned by
/// whoever started the query (see the module docs).
pub struct ExecCtx<'a> {
    /// The query's budget: every pass draws it down, and the run's
    /// [`Completeness`] is read off it.
    pub tracker: &'a BudgetTracker,
    /// Receives the run's stage spans (variant spans, pull windows,
    /// threshold/cutoff events); [`TraceRecorder::off`] for an
    /// uninstrumented run.
    pub recorder: &'a mut TraceRecorder,
}

/// The result of one execution.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Top-k answers, best first. Derivation triple ids are in the
    /// view's global id space.
    pub answers: Vec<Answer>,
    /// Aggregate work counters, budget cutoffs and degradation steps
    /// included.
    pub metrics: ExecMetrics,
    /// Merge-level work (posting lists built, postings scanned, cache
    /// hits, relaxations opened) attributed to each slice. Empty for a
    /// one-slice view, where the aggregate *is* the slice's work.
    pub per_shard: Vec<ExecMetrics>,
    /// What the ranking is guaranteed to be relative to the exact
    /// engine's, read off the query's tracker:
    /// [`Completeness::Exact`] unless a cutoff or an ε / θ retirement
    /// actually fired.
    pub completeness: Completeness,
    /// Per-stage span trace, filled in by the recorder's owner once the
    /// whole query is done ([`execute`] itself leaves it empty).
    pub trace: QueryTrace,
}

/// Runs incremental top-k processing of `request` over `view`.
///
/// Returns the top `query.k` answers — keys *and* scores identical to
/// what [`crate::exec::expand::run`] returns on the union of the view's
/// slices for an equivalent rule budget — and the work metrics, which
/// are the point: posting lists are only materialized, and relaxations
/// only invoked, when they can still contribute to the top-k.
pub fn execute(view: &StoreView<'_>, request: ExecRequest<'_>, ctx: ExecCtx<'_>) -> ExecOutcome {
    let (rules, cfg, caches) = (request.rules, request.cfg, request.caches);
    let n = view.slices().len();
    assert!(
        caches.len() <= n,
        "at most one cache per slice, leading slices first"
    );
    let restrict = request.restrict.clone();
    if let Some((_, range)) = &restrict {
        assert!(range.end <= n, "restricted slice range out of bounds");
    }
    let tracker = ctx.tracker;
    let mut metrics = ExecMetrics::default();
    let sources = Sources::new(*view, rules, cfg, caches);
    let answers = if restrict.as_ref().is_some_and(|(_, range)| range.is_empty()) {
        Vec::new()
    } else {
        run_pipeline(view, request, ctx, &mut metrics, |pattern, fresh, at| {
            let slices = match &restrict {
                Some((j, range)) if *j == at => range.clone(),
                _ => 0..n,
            };
            sources.merge(pattern, fresh, slices)
        })
    };
    // A multi-slice view's merge work was recorded per slice; the
    // aggregate is its sum.
    let per_shard = sources.work.map_or_else(Vec::new, RefCell::into_inner);
    for slice in &per_shard {
        metrics.merge(slice);
    }
    let completeness = tracker.completeness(&answers);
    ExecOutcome {
        answers,
        metrics,
        per_shard,
        completeness,
        trace: QueryTrace::default(),
    }
}

/// The stage-1 sources [`execute`]'s factory builds over a view's
/// slices: per stream, one relaxation table ([`AltTable`]) and one merge
/// over its lists on every slice it reads.
pub(crate) struct Sources<'a> {
    view: StoreView<'a>,
    rules: &'a RuleSet,
    cfg: &'a TopkConfig,
    caches: &'a [SharedPostingCache],
    /// Each slice's merge work, for a multi-slice view; a one-slice
    /// view's work is the aggregate itself.
    work: Option<RefCell<Vec<ExecMetrics>>>,
}

impl<'a> Sources<'a> {
    pub(crate) fn new(
        view: StoreView<'a>,
        rules: &'a RuleSet,
        cfg: &'a TopkConfig,
        caches: &'a [SharedPostingCache],
    ) -> Sources<'a> {
        let n = view.slices().len();
        Sources {
            view,
            rules,
            cfg,
            caches,
            work: (n > 1).then(|| RefCell::new(vec![ExecMetrics::default(); n])),
        }
    }

    /// `pattern`'s merge over the view's slices `slices`; `fresh` starts
    /// its fresh-variable range.
    pub(crate) fn merge(
        &self,
        pattern: &QPattern,
        fresh: u16,
        slices: Range<usize>,
    ) -> IncrementalMerge<'_> {
        let totals = self.view.totals;
        let table = AltTable::build(pattern, self.rules, self.cfg, fresh, totals);
        let work = self.work.as_ref();
        IncrementalMerge::new(&self.view, slices, Rc::new(table), self.caches, work)
    }
}

/// [`execute`] over one store with a private budget and no tracing or
/// store-level cache: answers and work metrics.
pub fn run(
    store: &XkgStore,
    query: &Query,
    rules: &RuleSet,
    cfg: &TopkConfig,
) -> (Vec<Answer>, ExecMetrics) {
    let tracker = BudgetTracker::new(cfg);
    let ctx = ExecCtx {
        tracker: &tracker,
        recorder: &mut TraceRecorder::off(),
    };
    let out = execute(&StoreView::single(store), ExecRequest::new(query, rules, cfg), ctx);
    (out.answers, out.metrics)
}

/// [`execute`] over one store as a whole query: owns the budget tracker
/// and the recorder `cfg.obs` asks for, consults `shared` (the session
/// tier of the cache hierarchy; hits are counted in
/// [`ExecMetrics::shared_cache_hits`]), and returns the finished trace.
pub fn run_governed(
    store: &XkgStore,
    query: &Query,
    rules: &RuleSet,
    cfg: &TopkConfig,
    shared: Option<&SharedPostingCache>,
) -> ExecOutcome {
    let tracker = BudgetTracker::new(cfg);
    let mut recorder = cfg.obs.recorder();
    let span_start = recorder.start();
    let request = ExecRequest {
        caches: shared.map_or(&[], std::slice::from_ref),
        ..ExecRequest::new(query, rules, cfg)
    };
    let ctx = ExecCtx {
        tracker: &tracker,
        recorder: &mut recorder,
    };
    let mut out = execute(&StoreView::single(store), request, ctx);
    recorder.record(Stage::Query, out.answers.len() as u32, span_start);
    out.trace = recorder.finish();
    out
}

/// Assembles and drives the full pipeline for one query: enumerates
/// structural variants, builds one [`Stream`] per pattern around the
/// merge `source_for` yields, and runs the rank join per variant into
/// one shared collector.
fn run_pipeline<'s>(
    view: &StoreView<'_>,
    request: ExecRequest<'_>,
    ctx: ExecCtx<'_>,
    metrics: &mut ExecMetrics,
    mut source_for: impl FnMut(&QPattern, u16, usize) -> IncrementalMerge<'s>,
) -> Vec<Answer> {
    let ExecRequest { query, rules, cfg, restrict, .. } = request;
    let ExecCtx { tracker, recorder } = ctx;
    let projection = query.effective_projection();
    let k = query.k.max(1);
    // Tracked collector: the k-th score the threshold reads on every
    // pull is maintained persistently on insert (O(1), zero allocation
    // per pull) instead of re-selected from all candidate scores.
    let mut collector = AnswerCollector::tracking(k);
    let variants = structural_variants(Some(view.oracle), &query.patterns, rules, cfg);
    let mut cut = false;
    for (variant_idx, (patterns, variant_weight, variant_trace)) in
        variants.into_iter().enumerate()
    {
        if cut {
            // A hard budget cutoff stopped the pipeline: the remaining
            // variants are forfeited wholesale. Their answers score at
            // most the variant weight (stream probabilities are ≤ 1),
            // which keeps the truncation bound sound.
            tracker.note_truncated(ln_weight(variant_weight));
            continue;
        }
        if restrict.as_ref().is_some_and(|(j, _)| *j >= patterns.len()) {
            continue;
        }
        metrics.rewritings_evaluated += 1;
        if patterns.is_empty() {
            continue;
        }
        let variant_start = recorder.start();
        let (mut streams, n_vars) = variant_streams(&patterns, &mut source_for);
        cut = !rank_join(
            view.lookup,
            cfg,
            &mut streams,
            ln_weight(variant_weight),
            &variant_trace,
            &projection,
            k,
            n_vars,
            &mut collector,
            metrics,
            tracker,
            recorder,
        );
        recorder.record(Stage::Variant, variant_idx as u32, variant_start);
    }
    collector.into_top_k(query.k)
}

/// One [`Stream`] per pattern of a variant around the merge
/// `source_for` yields, plus the size of the variant's variable space
/// (its own variables and every stream's fresh-variable range) — what the
/// join's scratch assignment is sized from.
pub(crate) fn variant_streams<'s>(
    patterns: &[QPattern],
    mut source_for: impl FnMut(&QPattern, u16, usize) -> IncrementalMerge<'s>,
) -> (Vec<Stream<'s>>, usize) {
    let max_var = join::max_var_of(patterns);
    let streams = patterns
        .iter()
        .zip(join::join_vars_of(patterns))
        .enumerate()
        .map(|(i, (pattern, join_vars))| {
            // Disjoint fresh-variable ranges per pattern.
            let fresh_base = max_var + (i as u16) * FRESH_VARS_PER_STREAM;
            // `i` is the pattern's position in the (variant's) query —
            // a restricted request confines that pattern to the delta
            // slices (semi-naive delta queries).
            Stream::new(source_for(pattern, fresh_base, i), join_vars)
        })
        .collect();
    let n_vars = max_var as usize + patterns.len() * FRESH_VARS_PER_STREAM as usize;
    (streams, n_vars)
}

/// Windowed batching of per-pull [`Stage::JoinRound`] spans: the clock
/// is read only every 64 pulls (and at flush), so the per-pull cost of
/// enabled tracing is one branch and a counter increment. A window
/// span covers the wall interval in which its `detail` pulls ran.
struct PullWindow {
    on: bool,
    start: u64,
    pulls: u32,
}

impl PullWindow {
    /// Pulls per recorded window span.
    const WINDOW: u32 = 64;

    fn new(recorder: &TraceRecorder) -> PullWindow {
        let on = recorder.is_enabled();
        PullWindow {
            on,
            start: if on { now_ns() } else { 0 },
            pulls: 0,
        }
    }

    #[inline]
    fn tick(&mut self, recorder: &mut TraceRecorder) {
        if !self.on {
            return;
        }
        self.pulls += 1;
        if self.pulls >= Self::WINDOW {
            self.flush(recorder);
        }
    }

    fn flush(&mut self, recorder: &mut TraceRecorder) {
        if !self.on || self.pulls == 0 {
            return;
        }
        let now = now_ns();
        recorder.record_span(SpanRecord {
            stage: Stage::JoinRound,
            detail: self.pulls,
            start_ns: self.start,
            dur_ns: now.saturating_sub(self.start),
        });
        self.start = now;
        self.pulls = 0;
    }
}

/// The rank join over one variant's streams: pulls the highest-frontier
/// stream, joins the arrival against the other streams' kept partitions
/// (stage 2), restricts the live streams to the keys of any stream that
/// retired, and stops when the termination policy (stage 3) says so.
/// `lookup` resolves emitted (global) triple ids.
///
/// Combinations are offered deferred; once the loop ends, while the
/// streams still hold their items, the collector builds the bindings and
/// derivations of those that can still rank (`join::materialize`).
///
/// Returns `false` when a hard budget cutoff fired — the caller must
/// stop opening further variants (the policy has already recorded the
/// forfeit bound); `true` on every normal termination.
#[expect(clippy::too_many_arguments, reason = "one rank-join execution's inputs, threaded unchanged into `pull_loop`")]
pub(crate) fn rank_join(
    lookup: &dyn TripleLookup,
    cfg: &TopkConfig,
    streams: &mut [Stream<'_>],
    variant_log: f64,
    variant_trace: &[RuleId],
    projection: &[trinit_relax::VarId],
    k: usize,
    n_vars: usize,
    collector: &mut AnswerCollector,
    metrics: &mut ExecMetrics,
    tracker: &BudgetTracker,
    recorder: &mut TraceRecorder,
) -> bool {
    let go_on = pull_loop(
        lookup, cfg, streams, variant_log, projection, k, n_vars, collector, metrics, tracker,
        recorder,
    );
    let streams = &*streams;
    collector.settle(|parts| join::materialize(streams, parts, variant_log, variant_trace, n_vars));
    go_on
}

/// [`rank_join`]'s pull loop, which offers every combination deferred.
#[expect(clippy::too_many_arguments, reason = "the pull loop's state; a struct would only rename the hot loop's locals")]
fn pull_loop(
    lookup: &dyn TripleLookup,
    cfg: &TopkConfig,
    streams: &mut [Stream<'_>],
    variant_log: f64,
    projection: &[trinit_relax::VarId],
    k: usize,
    n_vars: usize,
    collector: &mut AnswerCollector,
    metrics: &mut ExecMetrics,
    tracker: &BudgetTracker,
    recorder: &mut TraceRecorder,
) -> bool {
    let mut policy = ThresholdPolicy::new(cfg, k, streams.len(), tracker);
    match policy.admit_variant(streams, variant_log, collector, metrics) {
        Admission::Admit => {}
        Admission::Skip => return true,
        Admission::Stop(_) => {
            recorder.event(Stage::Cutoff, 0);
            return false;
        }
    }

    // A stream with no matches at all kills the variant.
    if streams.iter().any(Stream::barren) {
        return true;
    }
    let mut scratch = JoinScratch::new(n_vars, streams.len());
    let mut window = PullWindow::new(recorder);

    // Pick the live stream with the highest (cached) frontier each round.
    while let Some(next) = (0..streams.len())
        .filter(|&i| !streams[i].retired())
        .max_by(|&a, &b| streams[a].frontier_log().total_cmp(&streams[b].frontier_log()))
    {
        metrics.pulls += 1;
        tracker.on_pull();
        window.tick(recorder);
        #[cfg(feature = "faults")]
        crate::exec::faults::on_pull();
        if let Some(m) = streams[next].pull(metrics) {
            let pattern = streams[next].merge.alternative(m.alt).pattern;
            if let Some(bound) = join::bind_pairs(pattern, lookup, m.triple) {
                let item = SeenItem::new(bound, ln_weight(m.prob), &m);
                // Join the new item with the kept items of the other
                // streams (its own stream is skipped, so joining before
                // keeping the item is equivalent).
                join::join_with_others(
                    streams, next, &item, variant_log, projection, &mut scratch, collector,
                    metrics,
                );
                streams[next].push_seen(item);
            }
        }
        // A stream that ends with nothing kept kills the variant.
        if streams[next].barren() {
            window.flush(recorder);
            return true;
        }

        match policy.after_round(streams, next, variant_log, collector, metrics) {
            RoundVerdict::Continue => {
                if restrict_to_retired_keys(streams, &mut policy, metrics) {
                    window.flush(recorder);
                    return true;
                }
            }
            RoundVerdict::Done => {
                window.flush(recorder);
                recorder.event(Stage::Threshold, metrics.pulls as u32);
                break;
            }
            RoundVerdict::DeadVariant => {
                window.flush(recorder);
                recorder.event(Stage::Threshold, metrics.pulls as u32);
                return true;
            }
            RoundVerdict::Cutoff(_) => {
                window.flush(recorder);
                recorder.event(Stage::Cutoff, metrics.pulls as u32);
                return false;
            }
        }
    }
    window.flush(recorder);
    true
}

/// In a round where the set of retired streams changed, offers each
/// newly retired stream's keys ([`Stream::key_set`]) to every live
/// stream's merge ([`IncrementalMerge::restrict`]), then refreshes a
/// restricted stream's frontier — it may exhaust, and offer its own keys
/// in turn — and re-folds its contribution bound. True when a
/// restriction left a stream barren: the variant is dead.
fn restrict_to_retired_keys(
    streams: &mut [Stream<'_>],
    policy: &mut ThresholdPolicy<'_>,
    metrics: &mut ExecMetrics,
) -> bool {
    while let Some(a) = streams.iter().position(|s| s.retired() && !s.keys_offered) {
        streams[a].keys_offered = true;
        let Some(keys) = streams[a].key_set().map(Rc::new) else {
            continue;
        };
        for (b, stream) in streams.iter_mut().enumerate() {
            if b == a || stream.retired() || !stream.merge.restrict(&keys, metrics) {
                continue;
            }
            metrics.probed_streams += 1;
            stream.refresh();
            policy.refold(b, stream.contribution_bound());
            if stream.barren() {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::QueryBuilder;
    use crate::exec::budget::{CutoffReason, DegradationRung};
    use crate::exec::expand;
    use crate::exec::testfix::{assert_same_answers, reference, store};
    use trinit_relax::{ExpandOptions, QTerm, Rule, RuleProvenance, RuleSet};
    use trinit_xkg::XkgBuilder;

    fn cfg() -> TopkConfig {
        TopkConfig::default()
    }

    fn advisor_rules(store: &XkgStore) -> (RuleSet, trinit_xkg::TermId) {
        let mut qb = QueryBuilder::new(store);
        let has_advisor = qb.resource("hasAdvisor");
        let has_student = store.resource("hasStudent").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::inversion(
            "advisor/student",
            has_advisor,
            has_student,
            1.0,
            RuleProvenance::UserDefined,
        ));
        (rules, has_advisor)
    }

    #[test]
    fn lazy_merge_recovers_inverted_answer() {
        let store = store();
        let (rules, _) = advisor_rules(&store);
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "hasAdvisor", "x")
            .build();
        let (answers, metrics) = run(&store, &q, &rules, &TopkConfig::default());
        assert_eq!(answers.len(), 1);
        let kleiner = store.resource("AlfredKleiner").unwrap();
        assert_eq!(answers[0].key[0].1, Some(kleiner));
        assert_eq!(metrics.relaxations_opened, 1);
    }

    #[test]
    fn lectured_at_relaxation_for_affiliation() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let lectured = store.token("lectured at").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "rule4",
            aff,
            lectured,
            0.7,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "y")
            .limit(5)
            .build();
        let (answers, _) = run(&store, &q, &rules, &TopkConfig::default());
        assert_eq!(answers.len(), 2);
        let ias = store.resource("IAS").unwrap();
        let princeton = store.resource("PrincetonUniversity").unwrap();
        assert_eq!(answers[0].key[0].1, Some(ias));
        assert_eq!(answers[1].key[0].1, Some(princeton));
        assert!(answers[1].score < answers[0].score);
    }

    #[test]
    fn agrees_with_full_expansion() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let lectured = store.token("lectured at").unwrap();
        let housed = store.token("housed in").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "a",
            aff,
            lectured,
            0.7,
            RuleProvenance::UserDefined,
        ));
        rules.add(Rule::predicate_rewrite(
            "b",
            aff,
            housed,
            0.6,
            RuleProvenance::UserDefined,
        ));
        rules.add(Rule::predicate_rewrite(
            "c",
            lectured,
            housed,
            0.5,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "affiliation", "y")
            .limit(50)
            .build();
        let (inc, _) = run(
            &store,
            &q,
            &rules,
            &TopkConfig {
                chain_depth: 2,
                structural_depth: 0,
                min_weight: 0.0,
                ..Default::default()
            },
        );
        let (full, _) = expand::run(
            &store,
            &q,
            &rules,
            &ExpandOptions {
                max_depth: 2,
                min_weight: 0.0,
                max_rewritings: 1024,
            },
        );
        assert_eq!(inc.len(), full.len());
        for (a, b) in inc.iter().zip(&full) {
            assert_eq!(a.key, b.key, "same answers in same order");
            assert!((a.score - b.score).abs() < 1e-9, "same scores");
        }
    }

    #[test]
    fn relaxations_not_opened_when_k_satisfied_early() {
        // With k=1 and a strong exact answer, the weak relaxation's
        // posting list should never be materialized.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("E", "p", "O1");
        let weak = b.dict_mut().token("weak predicate");
        for i in 0..100 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            let o = b.dict_mut().resource(&format!("o{i}"));
            let src = b.intern_source("d");
            b.add_extracted(s, weak, o, 0.9, src);
        }
        let store = b.build();
        let p = store.resource("p").unwrap();
        let weak = store.token("weak predicate").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "weak",
            p,
            weak,
            0.05,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(1)
            .build();
        let (answers, metrics) = run(
            &store,
            &q,
            &rules,
            &TopkConfig {
                min_weight: 0.0,
                ..Default::default()
            },
        );
        assert_eq!(answers.len(), 1);
        // Exact match has prob 1.0 > bound 0.05 of the relaxation.
        assert_eq!(metrics.relaxations_opened, 0, "{metrics:?}");
    }

    #[test]
    fn join_query_with_relaxation() {
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let lectured = store.token("lectured at").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "rule4",
            aff,
            lectured,
            0.7,
            RuleProvenance::UserDefined,
        ));
        // Who is affiliated with something housed in Princeton?
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "affiliation", "y")
            .pattern_r_t_v("IAS", "housed in", "z")
            .limit(10)
            .build();
        let (answers, _) = run(&store, &q, &rules, &TopkConfig::default());
        assert!(!answers.is_empty());
    }

    #[test]
    fn empty_query_variant_is_safe() {
        let store = store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_r("x", "nonexistentPredicate", "Nowhere")
            .build();
        let (answers, _) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert!(answers.is_empty());
    }

    #[test]
    fn fresh_variables_of_different_streams_never_alias() {
        // Nine mergeable rules `?x p ?y → ?x q_i ?z` give the first
        // stream nine alternatives with a fresh variable each; one rule
        // `?x r ?y → ?x r2 ?z` gives the second stream one. However many
        // alternatives a stream has, their fresh ids must stay inside its
        // own range: were the ninth alternative's ?z to share an id with
        // the second stream's ?z, the scratch assignment would force
        // `zval == vval` and `a` would be silently lost.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("a", "q9", "zval");
        b.add_kg_resources("a", "r2", "vval");
        b.add_kg_resources("nobody", "p", "somebody");
        b.add_kg_resources("nobody", "r", "something");
        for i in 1..9 {
            b.dict_mut().resource(&format!("q{i}"));
        }
        let store = b.build();
        let (x, y, z) = (
            trinit_relax::TTerm::Var(trinit_relax::RVar(0)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(1)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(2)),
        );
        let fresh_object = |from: &str, to: &str| {
            let from = trinit_relax::TTerm::Const(store.resource(from).unwrap());
            let to = trinit_relax::TTerm::Const(store.resource(to).unwrap());
            Rule::structural(
                "fresh object",
                vec![trinit_relax::Template::new(x, from, y)],
                vec![trinit_relax::Template::new(x, to, z)],
                0.5,
                RuleProvenance::UserDefined,
            )
        };
        let mut rules = RuleSet::new();
        for i in 1..=9 {
            rules.add(fresh_object("p", &format!("q{i}")));
        }
        rules.add(fresh_object("r", "r2"));
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "p", "y")
            .pattern_v_r_v("x", "r", "w")
            .project(&["x"])
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (inc, _) = run(&store, &q, &rules, &cfg);
        let (full, _) = expand::run(
            &store,
            &q,
            &rules,
            &ExpandOptions { max_depth: 3, min_weight: 0.0, max_rewritings: 4096 },
        );
        assert_eq!(full.len(), 2, "`nobody` exactly, `a` through q9 and r2");
        assert_same_answers(&inc, &full);
    }

    #[test]
    fn no_shared_variables_is_a_cross_product() {
        // Streams without join variables share the single empty-key
        // bucket: every seen item of the other stream is probed, i.e. a
        // genuine cross product, identical to nested-loop evaluation.
        let mut b = XkgBuilder::new();
        for i in 0..3 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{i}"));
        }
        for i in 0..4 {
            b.add_kg_resources(&format!("t{i}"), "q", &format!("u{i}"));
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("a", "p", "b")
            .pattern_v_r_v("c", "q", "d")
            .limit(1000)
            .build();
        let (inc, _) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert_eq!(inc.len(), 12, "3 × 4 cross product");
        assert_same_answers(&inc, &reference(&store, &q, &RuleSet::new(), &cfg()));
    }

    #[test]
    fn repeated_variable_pattern_joins_correctly() {
        // `?x p ?x` filters to self-loops and shares ?x with the second
        // stream; the partition key must use the deduplicated binding.
        let mut b = XkgBuilder::new();
        b.add_kg_resources("loop", "p", "loop");
        b.add_kg_resources("a", "p", "b"); // not a self-loop
        b.add_kg_resources("loop", "q", "c");
        b.add_kg_resources("a", "q", "d");
        let store = b.build();
        let mut qb = QueryBuilder::new(&store);
        let x = QTerm::Var(qb.var("x"));
        let y = QTerm::Var(qb.var("y"));
        let p = QTerm::Term(qb.resource("p"));
        let qq = QTerm::Term(qb.resource("q"));
        let q = qb.pattern(x, p, x).pattern(x, qq, y).limit(1000).build();
        let (inc, _) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert_eq!(inc.len(), 1, "only the self-loop joins");
        let loop_id = store.resource("loop").unwrap();
        assert_eq!(inc[0].bindings.get(trinit_relax::VarId(0)), Some(loop_id));
        assert_same_answers(&inc, &reference(&store, &q, &RuleSet::new(), &cfg()));
    }

    #[test]
    fn empty_bucket_probes_produce_nothing_and_test_no_candidates() {
        // Join-key value sets are disjoint: every probe lands in an
        // absent bucket, so the combine tests zero candidates (a full
        // scan would have tested every pair) and yields no answers.
        let mut b = XkgBuilder::new();
        for i in 0..5 {
            b.add_kg_resources(&format!("a{i}"), "p", &format!("y{i}"));
            b.add_kg_resources(&format!("b{i}"), "q", &format!("z{i}"));
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "p", "y")
            .pattern_v_r_v("x", "q", "z")
            .limit(1000)
            .build();
        let (inc, metrics) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert!(inc.is_empty());
        assert_eq!(
            metrics.join_candidates, 0,
            "disjoint keys must never be probed: {metrics:?}"
        );
        assert_same_answers(&inc, &reference(&store, &q, &RuleSet::new(), &cfg()));
    }

    #[test]
    fn partitioning_cuts_join_candidates_on_one_to_one_joins() {
        // 30 1:1 join pairs. A full seen-list scan tests O(n²)
        // candidates; the partitioned probe touches one bucket of size 1
        // per arriving item.
        let n = 30usize;
        let mut b = XkgBuilder::new();
        for i in 0..n {
            b.add_kg_resources(&format!("x{i}"), "p", &format!("y{i}"));
            b.add_kg_resources(&format!("x{i}"), "q", &format!("z{i}"));
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "p", "y")
            .pattern_v_r_v("x", "q", "z")
            .limit(1000)
            .build();
        let (inc, metrics) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert_eq!(inc.len(), n);
        assert!(
            metrics.join_candidates <= 2 * n,
            "partitioned probes should be linear, got {} for n = {n}",
            metrics.join_candidates
        );
        assert_same_answers(&inc, &reference(&store, &q, &RuleSet::new(), &cfg()));
    }

    #[test]
    fn threshold_caps_hopeless_streams() {
        // Stream A: one strong lonely item, one joining item, then a
        // heavy tail of lonely items whose frontier stays above stream
        // B's. Stream B: a strong joining head and a long tail. Once the
        // best join is collected, no unseen A item can beat it (its
        // frontier × B's best is below the answer), but B must still be
        // drained. Pulling by frontier alone would drain A's tail first;
        // the threshold caps A and pulls only B.
        let mut b = XkgBuilder::new();
        let p = b.dict_mut().resource("p");
        let q = b.dict_mut().resource("q");
        let src = b.intern_source("d");
        let add = |s: &str, pred: trinit_xkg::TermId, o: &str, conf: f32, b: &mut XkgBuilder| {
            let s = b.dict_mut().resource(s);
            let o = b.dict_mut().resource(o);
            b.add_extracted(s, pred, o, conf, src);
        };
        add("LA", p, "y0", 0.9, &mut b);
        add("J", p, "y1", 0.018, &mut b);
        for i in 0..50 {
            add(&format!("a{i}"), p, &format!("ya{i}"), 0.016, &mut b);
        }
        add("J", q, "z0", 0.9, &mut b);
        for i in 0..150 {
            add(&format!("b{i}"), q, &format!("zb{i}"), 0.5, &mut b);
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "p", "y")
            .pattern_v_r_v("x", "q", "z")
            .limit(1)
            .build();
        let rules = RuleSet::new();
        let (answers, m) = run(&store, &q, &rules, &TopkConfig::default());
        assert_same_answers(&answers, &reference(&store, &q, &rules, &TopkConfig::default()));
        assert_eq!(answers.len(), 1);
        assert!(m.early_cutoffs > 0, "{m:?}");
        assert!(m.pulls <= 2 + 151, "A's lonely tail must not be pulled: {m:?}");
    }

    #[test]
    fn head_bound_prunes_hopeless_variants() {
        // A structural variant whose head-bound product cannot reach the
        // already-collected k-th answer is skipped without opening a
        // single posting list.
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let housed = store.token("housed in").unwrap();
        let mut rules = RuleSet::new();
        // A non-mergeable (two-RHS) rule creates a structural variant
        // with a tiny weight (paper rule 3 shape).
        let (x, y, z) = (
            trinit_relax::TTerm::Var(trinit_relax::RVar(0)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(1)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(2)),
        );
        rules.add(Rule::structural(
            "weak structural",
            vec![trinit_relax::Template::new(
                x,
                trinit_relax::TTerm::Const(aff),
                y,
            )],
            vec![
                trinit_relax::Template::new(x, trinit_relax::TTerm::Const(aff), z),
                trinit_relax::Template::new(z, trinit_relax::TTerm::Const(housed), y),
            ],
            0.0001,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("AlbertEinstein", "affiliation", "y")
            .limit(1)
            .build();
        let (answers, metrics) = run(
            &store,
            &q,
            &rules,
            &TopkConfig {
                min_weight: 0.0,
                ..TopkConfig::default()
            },
        );
        assert_eq!(answers.len(), 1);
        assert!(
            metrics.early_cutoffs > 0,
            "weak variant should be pruned by its head bound: {metrics:?}"
        );
    }

    #[test]
    fn zero_mass_groups_agree_with_expansion() {
        // A predicate whose entire match set has weight 0 (confidence 0
        // extractions): its posting group serves as an empty list and
        // its head bound is 0. The threshold skips the alternative
        // outright; the full-expansion reference opens it and emits
        // nothing. Both must agree — this is the "head bound 0 caps the
        // stream before pulling" regression.
        let mut b = XkgBuilder::new();
        let ghost = b.dict_mut().resource("ghost");
        let p = b.dict_mut().resource("p");
        let src = b.intern_source("d");
        for i in 0..5u32 {
            let s = b.dict_mut().resource(&format!("g{i}"));
            let o = b.dict_mut().resource(&format!("go{i}"));
            b.add_extracted(s, ghost, o, 0.0, src);
        }
        // Zero-weight self-loops: the repeated-variable (masked) shape
        // `?x ghost ?x` filters to a zero-mass set too.
        for i in 0..2u32 {
            let s = b.dict_mut().resource(&format!("loop{i}"));
            b.add_extracted(s, ghost, s, 0.0, src);
        }
        for i in 0..4u32 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            let o = b.dict_mut().resource(&format!("o{i}"));
            b.add_extracted(s, p, o, 0.5 + 0.1 * i as f32, src);
        }
        let store = b.build();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "into the void",
            store.resource("p").unwrap(),
            store.resource("ghost").unwrap(),
            0.9,
            RuleProvenance::UserDefined,
        ));
        let repeated = {
            let mut qb = QueryBuilder::new(&store);
            let x = QTerm::Var(qb.var("x"));
            let g = QTerm::Term(qb.resource("ghost"));
            qb.pattern(x, g, x).limit(20).build()
        };
        for query in [
            QueryBuilder::new(&store).pattern_v_r_v("x", "p", "y").limit(20).build(),
            QueryBuilder::new(&store).pattern_v_r_v("x", "ghost", "y").limit(20).build(),
            repeated,
        ] {
            let (tight, _) = run(
                &store,
                &query,
                &rules,
                &TopkConfig { min_weight: 0.0, ..Default::default() },
            );
            let (full, _) = expand::run(
                &store,
                &query,
                &rules,
                &ExpandOptions { max_depth: 2, min_weight: 0.0, max_rewritings: 1024 },
            );
            assert_same_answers(&tight, &full);
        }
    }

    #[test]
    fn anchored_patterns_serve_from_index_without_sorting() {
        // The acceptance counter: an anchored-heavy query performs zero
        // materialize-and-sort list builds; every open is an index serve —
        // an anchored stratum, or a small composite shape's exact range.
        let mut b = XkgBuilder::new();
        for i in 0..20u32 {
            b.add_kg_resources(&format!("s{i}"), "p", "hub");
            b.add_kg_resources(&format!("s{i}"), "q", &format!("o{i}"));
        }
        let store = b.build();
        let queries = [
            // sp composite with one match: its exact SPO range.
            (
                QueryBuilder::new(&store)
                    .pattern_r_r_v("s3", "p", "y")
                    .limit(5)
                    .build(),
                (0, 1),
            ),
            // o-bound via a variable predicate: (?x ?p hub), a borrowed
            // slice of the object stratum.
            (
                {
                    let mut qb = QueryBuilder::new(&store);
                    let x = QTerm::Var(qb.var("x"));
                    let pv = QTerm::Var(qb.var("pv"));
                    let hub = QTerm::Term(qb.resource("hub"));
                    qb.pattern(x, pv, hub).limit(5).build()
                },
                (1, 0),
            ),
        ];
        for (q, serves) in queries {
            let (answers, metrics) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
            assert!(!answers.is_empty());
            assert_eq!(
                (metrics.anchored_serves, metrics.ranged_serves),
                serves,
                "anchored / ranged serves: {metrics:?}"
            );
            assert_eq!(
                metrics.anchored_serves + metrics.ranged_serves,
                metrics.posting_lists_built,
                "every list is served by the index: {metrics:?}"
            );
            assert_eq!(
                metrics.posting_sorts, 0,
                "the unbounded materialize-and-sort fallback must be unreachable: {metrics:?}"
            );
        }
    }

    #[test]
    fn selective_hub_probe_counts_as_ranged_serve_with_identical_answers() {
        // A ground probe over hub terms whose exact permutation range is
        // ≥4× smaller than every covering group takes the
        // `ServeKind::Range` cutover. The cutover may only change the
        // `ranged_serves` vs `anchored_serves` accounting — answers (and
        // scores) must match the full-expansion reference exactly.
        let mut b = XkgBuilder::new();
        // Hub subject and hub object, each with many triples, so the sp
        // probe's covering groups are all large while its exact match
        // range is a single triple.
        for i in 0..40u32 {
            b.add_kg_resources("hubS", "p", &format!("o{i}"));
            b.add_kg_resources(&format!("s{i}"), "p", "hubO");
        }
        b.add_kg_resources("hubS", "rare", "hubO");
        let store = b.build();
        let mut qb = QueryBuilder::new(&store);
        let pv = QTerm::Var(qb.var("pv"));
        let hub_s = QTerm::Term(qb.resource("hubS"));
        let hub_o = QTerm::Term(qb.resource("hubO"));
        // (hubS ?p hubO): so-shape, 1 exact match, covering groups of 41.
        let q = qb.pattern(hub_s, pv, hub_o).limit(5).build();
        let (answers, metrics) = run(&store, &q, &RuleSet::new(), &TopkConfig::default());
        assert_eq!(answers.len(), 1);
        assert!(
            metrics.ranged_serves > 0,
            "selective composite probe must take the range cutover: {metrics:?}"
        );
        assert_eq!(metrics.posting_sorts, 0, "{metrics:?}");
        assert_same_answers(&answers, &reference(&store, &q, &RuleSet::new(), &cfg()));
    }

    #[test]
    fn epsilon_zero_is_exact_with_no_approx_cutoffs() {
        // ε = 0 must be the exact engine, bit-identical: same answers,
        // same pull counts, and the approximate criterion never fires.
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let lectured = store.token("lectured at").unwrap();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "rule4",
            aff,
            lectured,
            0.7,
            RuleProvenance::UserDefined,
        ));
        for query in [
            QueryBuilder::new(&store).pattern_v_r_v("x", "affiliation", "y").limit(5).build(),
            QueryBuilder::new(&store)
                .pattern_v_r_v("x", "affiliation", "y")
                .pattern_r_t_v("IAS", "housed in", "z")
                .limit(10)
                .build(),
        ] {
            let (exact, m_exact) = run(&store, &query, &rules, &TopkConfig::default());
            let (eps0, m_eps0) = run(
                &store,
                &query,
                &rules,
                &TopkConfig { epsilon: 0.0, ..TopkConfig::default() },
            );
            assert_same_answers(&eps0, &exact);
            assert_eq!(m_eps0.pulls, m_exact.pulls, "ε=0 must not change pull counts");
            assert_eq!(m_eps0.approx_cutoffs, 0);
            assert_eq!(m_exact.approx_cutoffs, 0);
        }
    }

    #[test]
    fn epsilon_mode_retires_negligible_tails_within_guarantee() {
        // k exceeds the number of strong answers, so the exact engine
        // can never establish a k-th score and must drain the weak
        // relaxation's entire 200-entry list. The ε engine retires the
        // stream as soon as its remaining mass (weak alternative weight
        // 0.04 after the strong list drains) is within ε = 0.05 —
        // forfeiting only answers provably ≤ ε.
        let mut b = XkgBuilder::new();
        let src = b.intern_source("d");
        let p = b.dict_mut().resource("p");
        let weak = b.dict_mut().token("weakly related");
        let e = b.dict_mut().resource("E");
        for i in 0..3u32 {
            let o = b.dict_mut().resource(&format!("strong{i}"));
            b.add_extracted(e, p, o, 0.9, src);
        }
        for i in 0..200u32 {
            let o = b.dict_mut().resource(&format!("weak{i}"));
            b.add_extracted(e, weak, o, 0.9, src);
        }
        let store = b.build();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "weak",
            store.resource("p").unwrap(),
            store.token("weakly related").unwrap(),
            0.04,
            RuleProvenance::UserDefined,
        ));
        // k above the total answer count (203): the exact engine never
        // collects a k-th score, so nothing bounds the weak tail.
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(300)
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        let (approx, m_approx) = run(
            &store,
            &q,
            &rules,
            &TopkConfig { epsilon: 0.05, ..cfg.clone() },
        );
        assert!(m_exact.pulls > 200, "exact must drain the weak tail: {m_exact:?}");
        assert!(
            m_approx.pulls < m_exact.pulls / 10,
            "ε mode must retire the tail: {} vs {}",
            m_approx.pulls,
            m_exact.pulls
        );
        assert!(m_approx.approx_cutoffs > 0, "{m_approx:?}");
        // Rank-wise guarantee: prob(approx[r]) ≥ prob(exact[r]) − ε.
        for (r, e_ans) in exact.iter().enumerate() {
            let pe = e_ans.score.exp();
            let pa = approx.get(r).map_or(0.0, |a| a.score.exp());
            assert!(
                pa >= pe - 0.05 - 1e-9,
                "rank {r}: approx {pa} not within ε of exact {pe}"
            );
        }
        // The strong answers survive with their exact scores.
        assert!(approx.len() >= 3);
        for (a, e_ans) in approx.iter().take(3).zip(exact.iter().take(3)) {
            assert_eq!(a.key, e_ans.key);
            assert!((a.score - e_ans.score).abs() < 1e-12);
        }
    }

    #[test]
    fn epsilon_skips_hopeless_variants_before_opening_lists() {
        // A structural variant whose best conceivable answer is ≤ ε is
        // skipped by the admission check without a single posting-list
        // open — even when no k-th answer exists yet.
        let store = store();
        let aff = store.resource("affiliation").unwrap();
        let housed = store.token("housed in").unwrap();
        let mut rules = RuleSet::new();
        let (x, y, z) = (
            trinit_relax::TTerm::Var(trinit_relax::RVar(0)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(1)),
            trinit_relax::TTerm::Var(trinit_relax::RVar(2)),
        );
        rules.add(Rule::structural(
            "negligible structural",
            vec![trinit_relax::Template::new(
                x,
                trinit_relax::TTerm::Const(aff),
                y,
            )],
            vec![
                trinit_relax::Template::new(x, trinit_relax::TTerm::Const(aff), z),
                trinit_relax::Template::new(z, trinit_relax::TTerm::Const(housed), y),
            ],
            0.0001,
            RuleProvenance::UserDefined,
        ));
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("MaxPlanck", "affiliation", "y")
            .limit(50) // k far above the answer count: no kth to prune with
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        let (approx, m_approx) = run(
            &store,
            &q,
            &rules,
            &TopkConfig { epsilon: 0.01, ..cfg },
        );
        assert!(m_approx.approx_cutoffs > 0, "{m_approx:?}");
        assert!(m_approx.pulls < m_exact.pulls, "{m_approx:?} vs {m_exact:?}");
        for (r, e_ans) in exact.iter().enumerate() {
            let pe = e_ans.score.exp();
            let pa = approx.get(r).map_or(0.0, |a| a.score.exp());
            assert!(pa >= pe - 0.01 - 1e-9, "rank {r}: {pa} vs {pe}");
        }
    }

    /// The store the budget tests share: a 3-strong / 200-weak-tail
    /// relaxation workload where the exact engine must drain the tail.
    fn weak_tail_store() -> (XkgStore, RuleSet) {
        let mut b = XkgBuilder::new();
        let src = b.intern_source("d");
        let p = b.dict_mut().resource("p");
        let weak = b.dict_mut().token("weakly related");
        let e = b.dict_mut().resource("E");
        for i in 0..3u32 {
            let o = b.dict_mut().resource(&format!("strong{i}"));
            b.add_extracted(e, p, o, 0.9, src);
        }
        for i in 0..200u32 {
            let o = b.dict_mut().resource(&format!("weak{i}"));
            b.add_extracted(e, weak, o, 0.9, src);
        }
        let store = b.build();
        let mut rules = RuleSet::new();
        rules.add(Rule::predicate_rewrite(
            "weak",
            store.resource("p").unwrap(),
            store.token("weakly related").unwrap(),
            0.04,
            RuleProvenance::UserDefined,
        ));
        (store, rules)
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_exact_and_labeled_exact() {
        // The ungoverned default — and a ladder with no limits to pace
        // it against — must reproduce the exact engine bit for bit:
        // same answers, same pull counts, Completeness::Exact.
        let (store, rules) = weak_tail_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(300)
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        for budget in [
            ExecBudget::default(),
            // Ladder rungs without any hard limit: no budget fraction
            // exists, so the rungs must never engage.
            ExecBudget {
                ladder: vec![DegradationRung { epsilon: 0.5, theta: 0.5 }],
                ..ExecBudget::default()
            },
        ] {
            let governed = run_governed(
                &store,
                &q,
                &rules,
                &TopkConfig { budget, ..cfg.clone() },
                None,
            );
            assert_same_answers(&governed.answers, &exact);
            assert_eq!(governed.metrics.pulls, m_exact.pulls, "bit-identical pull counts");
            assert_eq!(governed.completeness, Completeness::Exact);
            assert_eq!(governed.metrics.degradation_steps, 0);
            assert_eq!(governed.metrics.budget_cutoffs, 0);
            assert_eq!(governed.metrics.deadline_cutoffs, 0);
        }
    }

    #[test]
    fn max_pulls_cutoff_truncates_honestly_with_guaranteed_prefix() {
        // A pull budget far below the exact engine's demand: the run
        // must stop near the limit and label itself Truncated{Pulls},
        // with the guaranteed prefix carrying exact answers.
        let (store, rules) = weak_tail_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(300)
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        let governed = run_governed(
            &store,
            &q,
            &rules,
            &TopkConfig {
                budget: ExecBudget { max_pulls: Some(10), ..ExecBudget::default() },
                ..cfg
            },
            None,
        );
        assert!(
            governed.metrics.pulls <= 11,
            "cutoff must stop near the limit: {:?}",
            governed.metrics
        );
        assert!(governed.metrics.pulls < m_exact.pulls);
        assert_eq!(governed.metrics.budget_cutoffs, 1, "{:?}", governed.metrics);
        let Completeness::Truncated { reason, guaranteed_rank } = governed.completeness else {
            panic!("expected truncation, got {:?}", governed.completeness);
        };
        assert_eq!(reason, CutoffReason::Pulls);
        // The guaranteed prefix must agree with the exact ranking.
        assert!(guaranteed_rank <= governed.answers.len());
        for (r, exact_answer) in exact.iter().enumerate().take(guaranteed_rank) {
            assert_eq!(governed.answers[r].key, exact_answer.key, "guaranteed rank {r}");
            assert!((governed.answers[r].score - exact_answer.score).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_deadline_truncates_with_deadline_reason() {
        let (store, rules) = weak_tail_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(300)
            .build();
        let governed = run_governed(
            &store,
            &q,
            &rules,
            &TopkConfig {
                min_weight: 0.0,
                budget: ExecBudget {
                    deadline: Some(std::time::Duration::ZERO),
                    ..ExecBudget::default()
                },
                ..TopkConfig::default()
            },
            None,
        );
        assert!(governed.metrics.deadline_cutoffs >= 1, "{:?}", governed.metrics);
        assert!(
            matches!(
                governed.completeness,
                Completeness::Truncated { reason: CutoffReason::Deadline, .. }
            ),
            "got {:?}",
            governed.completeness
        );
    }

    #[test]
    fn max_answers_cutoff_reports_answers_reason() {
        // 3 × 4 cross product materializes 12 answers; capping at 5
        // must fire the answers budget.
        let mut b = XkgBuilder::new();
        for i in 0..3 {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{i}"));
        }
        for i in 0..4 {
            b.add_kg_resources(&format!("t{i}"), "q", &format!("u{i}"));
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("a", "p", "b")
            .pattern_v_r_v("c", "q", "d")
            .limit(1000)
            .build();
        let governed = run_governed(
            &store,
            &q,
            &RuleSet::new(),
            &TopkConfig {
                budget: ExecBudget { max_answers: Some(5), ..ExecBudget::default() },
                ..TopkConfig::default()
            },
            None,
        );
        assert!(governed.answers.len() < 12, "{}", governed.answers.len());
        assert_eq!(governed.metrics.budget_cutoffs, 1, "{:?}", governed.metrics);
        assert!(
            matches!(
                governed.completeness,
                Completeness::Truncated { reason: CutoffReason::Answers, .. }
            ),
            "got {:?}",
            governed.completeness
        );
    }

    #[test]
    fn degradation_ladder_escalates_epsilon_instead_of_dying_at_the_wall() {
        // A generous pull budget whose soft region starts almost
        // immediately, with an ε rung big enough to retire the weak
        // tail: the run degrades to Approx (the ladder's ε criterion
        // finishes it) instead of hitting the hard cutoff.
        let (store, rules) = weak_tail_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_r_v("E", "p", "y")
            .limit(300)
            .build();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        let governed = run_governed(
            &store,
            &q,
            &rules,
            &TopkConfig {
                budget: ExecBudget {
                    max_pulls: Some(m_exact.pulls * 2),
                    soft_fraction: 0.01,
                    ladder: vec![DegradationRung { epsilon: 0.05, theta: 0.0 }],
                    ..ExecBudget::default()
                },
                ..cfg
            },
            None,
        );
        assert!(governed.metrics.degradation_steps >= 1, "{:?}", governed.metrics);
        assert_eq!(governed.metrics.budget_cutoffs, 0, "{:?}", governed.metrics);
        assert!(
            governed.metrics.pulls < m_exact.pulls / 10,
            "the escalated ε must retire the tail: {} vs {}",
            governed.metrics.pulls,
            m_exact.pulls
        );
        let Completeness::Approx { epsilon, .. } = governed.completeness else {
            panic!("expected Approx, got {:?}", governed.completeness);
        };
        assert!((epsilon - 0.05).abs() < 1e-12);
        // The ladder's ε guarantee holds rank-wise.
        for (r, e_ans) in exact.iter().enumerate() {
            let pe = e_ans.score.exp();
            let pa = governed.answers.get(r).map_or(0.0, |a| a.score.exp());
            assert!(pa >= pe - 0.05 - 1e-9, "rank {r}: {pa} vs {pe}");
        }
    }

    #[test]
    fn relative_theta_stops_early_with_rankwise_ratio_guarantee() {
        // Two-stream cross product with slowly declining scores: the
        // exact threshold needs a deep drain before the k-th answer
        // dominates every frontier product, while θ accepts once the
        // k-th is within a (1−θ) factor — strictly fewer pulls, and
        // every returned rank keeps prob ≥ (1−θ)·prob(exact).
        let mut b = XkgBuilder::new();
        let src = b.intern_source("d");
        let p = b.dict_mut().resource("p");
        let qq = b.dict_mut().resource("q");
        for i in 0..40u32 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            let o = b.dict_mut().resource(&format!("o{i}"));
            b.add_extracted(s, p, o, 0.9 - 0.01 * i as f32, src);
            let t = b.dict_mut().resource(&format!("t{i}"));
            let u = b.dict_mut().resource(&format!("u{i}"));
            b.add_extracted(t, qq, u, 0.9 - 0.01 * i as f32, src);
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("a", "p", "b")
            .pattern_v_r_v("c", "q", "d")
            .limit(30)
            .build();
        let rules = RuleSet::new();
        let cfg = TopkConfig::default();
        let (exact, m_exact) = run(&store, &q, &rules, &cfg);
        let theta = 0.5;
        let (approx, m_theta) = {
            let governed = run_governed(
                &store,
                &q,
                &rules,
                &TopkConfig { theta, ..cfg },
                None,
            );
            assert_eq!(
                governed.completeness,
                Completeness::Approx { epsilon: 0.0, theta },
                "metrics: {:?}",
                governed.metrics
            );
            (governed.answers, governed.metrics)
        };
        assert!(m_theta.approx_cutoffs > 0, "{m_theta:?}");
        assert!(
            m_theta.pulls < m_exact.pulls,
            "θ must terminate earlier: {} vs {}",
            m_theta.pulls,
            m_exact.pulls
        );
        assert_eq!(approx.len(), exact.len());
        for (r, e_ans) in exact.iter().enumerate() {
            let pe = e_ans.score.exp();
            let pa = approx[r].score.exp();
            assert!(
                pa >= (1.0 - theta) * pe - 1e-12,
                "rank {r}: {pa} below (1−θ)·{pe}"
            );
        }
    }
}
