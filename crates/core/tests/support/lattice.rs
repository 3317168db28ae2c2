//! The configuration lattice's one oracle: every store configuration a
//! TriniT system can be in returns the answers of one reference.
//!
//! [`check_case`] builds a generated [`Case`] once per point of
//!
//! * layout {`Flat`, `Packed`}
//! * × partitions {1, 2, 4, 7}
//! * × delta {none, live, compacted} ([`Delta`])
//! * × cache {none, cold system, warm system, system cache stale across
//!   an ingest or a compaction, `Session`} ([`Cache`])
//! * × tracing {on, off}
//! * × budget {unlimited, generous}
//!
//! and asserts, at every point, that the answers equal the canonical
//! point's (monolith, `Flat`, no delta, no cache) under
//! [`assert_answers_score_equivalent`] and keep the output contract
//! (sorted, at most k, distinct keys). Points that differ in one axis
//! only must also count the same work: tracing and a budget that never
//! fires change no counter, and a cache tier changes where lists come
//! from, never how far sorted access walks. The canonical point must
//! equal full expansion wherever the two reach the same rewritings
//! ([`comparable_expansion`]). At each (layout, partitions, delta) point
//! the ε guarantee holds against the exact run (and the ε run is
//! labelled `Exact` unless it cut), ε = 0 is pull-for-pull the exact
//! run, a batch at one, two or four workers returns what each query
//! returns alone, and a system without a live delta introduces nothing;
//! the batch check also runs once per case at three partitions.
//!
//! Unlimited-budget points run through the facade (`Trinit::run`,
//! `Session::run`), so only they check the facade's own cache
//! generation handling. The facade takes a budget only from
//! `BuildOptions::topk` through `TrinitBuilder`, which builds from text
//! facts and documents and cannot hold a generated store, so the
//! generous-budget points run `ShardedExecutor` over the system's store
//! and caches, stamping the caches with the store's base epoch first.
//!
//! Included by `#[path]` (as a `pub mod`, next to the generators as
//! `pub mod gen`) from the core crate's property test and the root
//! tier-1 slice.

use proptest::prelude::*;

use trinit_core::query::exec::expand;
use trinit_core::query::exec::topk::ExecOutcome;
use trinit_core::query::{Answer, Completeness, ExecBudget, Query, TopkConfig};
use trinit_core::relax::{ExpandOptions, QPattern, Rule, RuleSet, TTerm};
use trinit_core::shard::testkit::assert_answers_score_equivalent;
use trinit_core::shard::{ShardedExecutor, ShardedStore};
use trinit_core::xkg::SegmentLayout;
use trinit_core::{Engine, ObsConfig, QueryOutcome, Session, Stage, Trinit};

use crate::gen::{
    add_rows, builder_from, fresh_rows, nonchainable_rules_strategy, patterns_strategy, query_from,
    rules_strategy, store_strategy, Row,
};

/// One generated case: a store split into a frozen base and a live
/// delta of genuinely new facts, a query and a rule set, plus the ε its
/// approximate run uses.
#[derive(Debug, Clone)]
pub struct Case {
    /// Rows frozen at build.
    pub base: Vec<Row>,
    /// Rows that are not in `base`, ingested as the live delta.
    pub delta: Vec<Row>,
    /// The query's patterns.
    pub patterns: Vec<QPattern>,
    /// The system rules.
    pub rules: Vec<Rule>,
    /// Answers asked for.
    pub k: usize,
    /// Absolute approximation bound of the ε run.
    pub epsilon: f64,
}

/// Cases over a universe of four, five or six terms (the smaller, the
/// denser the store and the more answers a query has): a base of up to
/// 40 rows and a delta of up to 12 (either may carry a flat-score hub),
/// one to three random patterns (chains, stars and cross products) or a
/// three-pattern granularity star, and rules that chain or (half the
/// time) cannot.
pub fn case_strategy() -> impl Strategy<Value = Case> {
    prop_oneof![case_over(4), case_over(5), case_over(6)]
}

fn case_over(universe: u32) -> impl Strategy<Value = Case> {
    (
        store_strategy(universe, 40),
        store_strategy(universe, 12),
        patterns_strategy(3, universe, 1..4),
        prop_oneof![
            rules_strategy(universe),
            nonchainable_rules_strategy(universe / 2, universe)
        ],
        1usize..12,
        // The smallest ε bites on a flat-score hub.
        0usize..3,
    )
        .prop_map(|(base, delta, patterns, rules, k, eps)| Case {
            delta: fresh_rows(&base, &delta),
            base,
            patterns,
            rules,
            k,
            epsilon: [0.05, 0.01, 1e-4][eps],
        })
}

/// The delta axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delta {
    /// Every row frozen at build.
    None,
    /// The base frozen, the delta ingested and live.
    Live,
    /// The base frozen, the delta ingested, then compacted.
    Compacted,
}

/// The cache axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// No posting cache.
    Off,
    /// A system-level cache that has seen nothing.
    Cold,
    /// The system-level cache after the same query ran once.
    Warm,
    /// A system-level cache warmed by the query before the system's
    /// last mutation: the ingest of the live delta, the compaction of
    /// it, or (no delta) a compaction of nothing.
    Stale,
    /// A `Session`'s own cache, cold and then warm.
    Session,
}

/// The axes' values, in lattice order.
pub const LAYOUTS: [SegmentLayout; 2] = [SegmentLayout::Flat, SegmentLayout::Packed];
/// See [`LAYOUTS`].
pub const PARTITIONS: [usize; 4] = [1, 2, 4, 7];
/// See [`LAYOUTS`].
pub const DELTAS: [Delta; 3] = [Delta::None, Delta::Live, Delta::Compacted];
/// See [`LAYOUTS`].
pub const CACHES: [Cache; 5] = [
    Cache::Off,
    Cache::Cold,
    Cache::Warm,
    Cache::Stale,
    Cache::Session,
];

/// Lattice points per case: every combination of the six axes.
pub const POINTS: usize = LAYOUTS.len() * PARTITIONS.len() * DELTAS.len() * CACHES.len() * 2 * 2;

/// What [`check_case`] exercised.
#[derive(Debug, Default, Clone, Copy)]
pub struct Coverage {
    /// Lattice points checked against the canonical point.
    pub points: usize,
    /// Whether the canonical point was checked against full expansion.
    pub expansion: bool,
    /// Whether the canonical point had answers.
    pub answered: bool,
    /// Whether the canonical point had k answers (a cut may have hidden
    /// more).
    pub cut: bool,
    /// Whether the live-delta points had a delta to serve.
    pub live_delta: bool,
    /// Whether a set of structural rules (multi-pattern sides or data
    /// conditions) was checked against full expansion.
    pub structural: bool,
}

/// A k past every answer of most generated cases.
const EVERY_ANSWER: usize = 1000;

/// System-level and session cache capacity, in lists.
const CACHE_CAPACITY: usize = 64;

/// A budget with every limit set and none reachable: one hour, and
/// half the address space of pulls and answers.
fn generous() -> ExecBudget {
    ExecBudget {
        deadline: Some(std::time::Duration::from_secs(3600)),
        max_pulls: Some(usize::MAX / 2),
        max_answers: Some(usize::MAX / 2),
    }
}

fn rule_set(case: &Case) -> RuleSet {
    case.rules.iter().cloned().collect()
}

/// Names the lattice point a failing check ran at.
struct At(String);

impl Drop for At {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("lattice point: {}", self.0);
        }
    }
}

/// The system at `(layout, partitions, delta)`. With `stale`, a
/// system-level cache is enabled and warmed by `query` just before the
/// system's last mutation — for [`Delta::None`], a compaction with no
/// delta, which re-freezes the same rows under a new base epoch.
fn system(
    case: &Case,
    query: &Query,
    (layout, partitions, delta): (SegmentLayout, usize, Delta),
    stale: bool,
) -> Trinit {
    let rows = match delta {
        Delta::None => [&case.base[..], &case.delta[..]].concat(),
        Delta::Live | Delta::Compacted => case.base.clone(),
    };
    let store = ShardedStore::build_with(builder_from(&rows), partitions, layout);
    let mut sys = Trinit::from_sharded_parts(store, rule_set(case));
    let warm = |sys: &mut Trinit| {
        if stale {
            sys.enable_posting_cache(CACHE_CAPACITY);
            sys.run(query.clone(), Engine::IncrementalTopK);
        }
    };
    match delta {
        Delta::None if stale => {
            warm(&mut sys);
            sys.compact();
        }
        Delta::None => {}
        Delta::Live => {
            warm(&mut sys);
            sys.ingest(|b| add_rows(b, &case.delta));
        }
        Delta::Compacted => {
            sys.ingest(|b| add_rows(b, &case.delta));
            warm(&mut sys);
            sys.compact();
        }
    }
    sys
}

/// The one store every system holds.
fn store_of(sys: &Trinit) -> &ShardedStore {
    sys.segmented_store()
        .or(sys.sharded_store())
        .expect("a system is a monolith or sharded")
}

/// Runs `query` on `sys` — in `session` if given — under the system's
/// configuration. An unlimited budget is the facade's own call; a
/// generous one runs the executor over the same store and caches,
/// stamped with the store's base epoch as the facade stamps them (see
/// the module docs for why it cannot be the facade's call).
fn run(
    sys: &Trinit,
    session: Option<&Session<'_>>,
    query: &Query,
    generous_budget: bool,
) -> ExecOutcome {
    let engine = Engine::IncrementalTopK;
    if !generous_budget {
        let outcome = match session {
            Some(session) => session.run(query.clone(), engine),
            None => sys.run(query.clone(), engine),
        };
        return ExecOutcome {
            answers: outcome.answers,
            metrics: outcome.metrics,
            per_shard: outcome.shard_metrics,
            completeness: outcome.completeness,
            trace: outcome.trace,
        };
    }
    let (rules, caches) = match session {
        Some(session) => (session.rules(), session.posting_caches()),
        None => (sys.rules(), sys.posting_caches()),
    };
    let store = store_of(sys);
    for cache in caches {
        cache.ensure_generation(store.base_epoch());
    }
    let cfg = TopkConfig {
        budget: generous(),
        ..sys.topk_config().clone()
    };
    ShardedExecutor::new(store)
        .with_caches(caches)
        .run(query, rules, &cfg)
}

/// Sorted best first, at most `k`, one answer per projected key, and
/// every score a finite log-probability.
fn assert_output_contract(answers: &[Answer], k: usize) {
    assert!(answers.len() <= k, "{} answers for k = {k}", answers.len());
    assert!(
        answers.windows(2).all(|w| w[0].score >= w[1].score),
        "unsorted"
    );
    let mut keys: Vec<_> = answers.iter().map(|a| &a.key).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), answers.len(), "duplicate projected keys");
    for a in answers {
        assert!(a.score.is_finite() && a.score <= 1e-9, "score {}", a.score);
    }
}

/// The full expansion that reaches exactly the rewritings `cfg`'s
/// top-k reaches for `patterns` under `rules`, if one does.
///
/// Top-k applies at most `structural_depth` structural rules to the
/// query, then chains at most `chain_depth` single-pattern rules per
/// pattern. `TopkConfig::reference_expansion` bounds the total depth by
/// their sum (ROADMAP item 17(c)), so a reference exists where only one
/// of the two bounds applies. Structural rules alone reach
/// `structural_depth` rule applications, and top-k keeps
/// `max_variants` forms, heaviest first, from the same enumerator, so
/// the expansion keeps as many. Single-pattern rules alone reach
/// `chain_depth`: right as it is without rules and for one pattern. For
/// more patterns only single-pattern rules that cannot chain and all
/// weigh at least `min_weight` (top-k then prunes no alternative) have
/// one: one rule per pattern, unpruned — expansion prunes whole
/// rewritings, not patterns. A mix of both kinds has none until
/// expansion gets top-k's staged bound.
fn comparable_expansion(
    patterns: &[QPattern],
    rules: &[Rule],
    cfg: &TopkConfig,
) -> Option<ExpandOptions> {
    let reference = cfg.reference_expansion();
    let structural = rules.iter().filter(|r| !r.is_mergeable()).count();
    if structural > 0 {
        return (structural == rules.len()).then_some(ExpandOptions {
            max_depth: cfg.structural_depth,
            max_rewritings: cfg.max_variants,
            ..reference
        });
    }
    let chains_only = ExpandOptions {
        max_depth: cfg.chain_depth,
        ..reference
    };
    if rules.is_empty() || patterns.len() == 1 {
        return Some(chains_only);
    }
    let lhs: Vec<TTerm> = rules
        .iter()
        .flat_map(|r| r.lhs.iter().map(|t| t.p))
        .collect();
    let chains = rules
        .iter()
        .flat_map(|r| &r.rhs)
        .any(|t| lhs.contains(&t.p));
    let pruned = rules.iter().any(|r| r.weight < cfg.min_weight);
    (!chains && !pruned).then_some(ExpandOptions {
        max_depth: patterns.len(),
        min_weight: 0.0,
        ..chains_only
    })
}

/// Checks the canonical point against full expansion wherever the two
/// reach the same rewritings ([`comparable_expansion`]): for the query
/// and for each of its patterns alone, at the case's k, at small k (a
/// cut inside the answers) and with every answer in (no cut hides a
/// deep relaxation's answers). Returns whether any shape had a
/// reference. Cheap next to the lattice, so it also runs on its own
/// over many more cases.
pub fn check_against_expansion(case: &Case) -> bool {
    let cfg = TopkConfig::default();
    let rules = rule_set(case);
    let canonical_at = (SegmentLayout::Flat, 1, Delta::None);
    let query = query_from(case.patterns.clone(), case.k);
    let sys = system(case, &query, canonical_at, false);
    let store = store_of(&sys).single_slice().expect("one frozen slice");
    let mut shapes = vec![case.patterns.clone()];
    if case.patterns.len() > 1 {
        shapes.extend(case.patterns.iter().map(|&p| vec![p]));
    }
    let mut checked = false;
    for patterns in shapes {
        let Some(options) = comparable_expansion(&patterns, &case.rules, &cfg) else {
            continue;
        };
        for k in [1, 3, case.k, EVERY_ANSWER] {
            let query = query_from(patterns.clone(), k);
            let topk = sys.run(query.clone(), Engine::IncrementalTopK).answers;
            let (full, _) = expand::run(store, &query, &rules, &options);
            let _at = At(format!(
                "canonical {patterns:?} at k = {k} against full expansion {options:?}"
            ));
            assert_answers_score_equivalent(&topk, &full);
        }
        checked = true;
    }
    checked
}

/// Checks every lattice point of `case` (see the module docs).
pub fn check_case(case: &Case) -> Coverage {
    let query = query_from(case.patterns.clone(), case.k);
    let rules = rule_set(case);
    let mut coverage = Coverage::default();

    let canonical_at = (SegmentLayout::Flat, 1, Delta::None);
    let canonical_sys = system(case, &query, canonical_at, false);
    let canonical = canonical_sys
        .run(query.clone(), Engine::IncrementalTopK)
        .answers;
    assert_output_contract(&canonical, case.k);
    coverage.answered = !canonical.is_empty();
    coverage.cut = canonical.len() == case.k;
    coverage.expansion = check_against_expansion(case);
    coverage.structural = coverage.expansion && case.rules.iter().any(|r| !r.is_mergeable());
    // The batch pool once more, at a partition count off the
    // lattice's axis and over a live delta.
    check_batch(
        case,
        &query,
        &system(case, &query, (SegmentLayout::Flat, 3, Delta::Live), false),
    );

    for layout in LAYOUTS {
        for partitions in PARTITIONS {
            for delta in DELTAS {
                let state = (layout, partitions, delta);
                check_state(case, &query, &rules, state);
                // Per (obs, budget), per cache tier: that tier's runs.
                let mut combos: Vec<Vec<Vec<ExecOutcome>>> = Vec::new();
                for obs in [true, false] {
                    for generous_budget in [false, true] {
                        let tiers = cache_tiers(case, &query, state, obs, generous_budget);
                        for (cache, runs) in CACHES.iter().zip(&tiers) {
                            let _at = At(format!(
                                "{layout:?}, {partitions} partitions, {delta:?} delta, \
                                 {cache:?} cache, obs {obs}, generous budget {generous_budget}"
                            ));
                            for run in runs {
                                assert_answers_score_equivalent(&run.answers, &canonical);
                                assert_output_contract(&run.answers, case.k);
                                assert_eq!(run.completeness, Completeness::Exact);
                                assert_eq!(run.trace.stage_count(Stage::Query), usize::from(obs));
                                assert_eq!(run.trace.is_empty(), !obs);
                                // A cache tier changes where lists come
                                // from: every open the uncached run built
                                // is built or a hit, and sorted access
                                // walks exactly as far.
                                let uncached = &tiers[0][0].metrics;
                                assert_eq!(run.metrics.pulls, uncached.pulls);
                                assert_eq!(
                                    run.metrics.posting_lists_built + run.metrics.shared_cache_hits,
                                    uncached.posting_lists_built
                                );
                                assert_eq!(run.metrics.posting_sorts, 0);
                            }
                            coverage.points += 1;
                        }
                        combos.push(tiers);
                    }
                }
                // Tracing and a budget that never fires count the same
                // work, field for field, on every cache tier.
                let _at = At(format!(
                    "{layout:?}, {partitions} partitions, {delta:?} delta"
                ));
                for other in &combos[1..] {
                    for (tier, (want, got)) in combos[0].iter().zip(other).enumerate() {
                        for (a, b) in want.iter().zip(got) {
                            assert_eq!(a.metrics, b.metrics, "{:?} cache", CACHES[tier]);
                        }
                    }
                }
                coverage.live_delta |= delta == Delta::Live && !case.delta.is_empty();
            }
        }
    }
    coverage
}

/// The runs of every cache tier, in [`CACHES`] order, at one
/// (layout, partitions, delta, obs, budget) point.
fn cache_tiers(
    case: &Case,
    query: &Query,
    state: (SegmentLayout, usize, Delta),
    obs: bool,
    generous_budget: bool,
) -> Vec<Vec<ExecOutcome>> {
    let obs = if obs {
        ObsConfig::default()
    } else {
        ObsConfig::off()
    };
    let mut sys = system(case, query, state, false);
    sys.set_obs(obs);
    let off = run(&sys, None, query, generous_budget);
    sys.enable_posting_cache(CACHE_CAPACITY);
    let cold = run(&sys, None, query, generous_budget);
    let warm = run(&sys, None, query, generous_budget);
    // Accounting is exact: every hit a cache counted is in one run's
    // metrics (a cold run's are its own repeats of a pattern).
    let hits: usize = sys.posting_caches().iter().map(|c| c.stats().hits).sum();
    assert_eq!(
        hits,
        cold.metrics.shared_cache_hits + warm.metrics.shared_cache_hits
    );
    let mut stale_sys = system(case, query, state, true);
    stale_sys.set_obs(obs);
    let stale = run(&stale_sys, None, query, generous_budget);
    let mut session = Session::new(&sys);
    session.set_posting_cache_capacity(CACHE_CAPACITY);
    let in_session: Vec<ExecOutcome> = (0..2)
        .map(|_| run(&sys, Some(&session), query, generous_budget))
        .collect();
    let session_hits = in_session.iter().map(|r| r.metrics.shared_cache_hits).sum();
    assert_eq!(session.cache_stats().hits, session_hits);
    vec![vec![off], vec![cold], vec![warm], vec![stale], in_session]
}

/// The checks made once per (layout, partitions, delta) point: the ε
/// guarantee and identities against the exact run, the batch pool, and
/// the delta question on a system without a live delta.
fn check_state(case: &Case, query: &Query, rules: &RuleSet, state: (SegmentLayout, usize, Delta)) {
    let _at = At(format!("{state:?}"));
    let sys = system(case, query, state, false);
    let exec = ShardedExecutor::new(store_of(&sys));
    let cfg = TopkConfig::default();
    let exact = exec.run(query, rules, &cfg);
    assert_eq!(exact.metrics.approx_cutoffs, 0);

    // ε = 0 is the exact engine: same answers, score bits and pulls.
    let eps0 = exec.run(
        query,
        rules,
        &TopkConfig {
            epsilon: 0.0,
            ..cfg.clone()
        },
    );
    assert_eq!(eps0.answers.len(), exact.answers.len());
    for (a, b) in eps0.answers.iter().zip(&exact.answers) {
        assert_eq!(a.key, b.key, "ε = 0 changed an answer key");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "ε = 0 changed a score"
        );
    }
    assert_eq!(
        eps0.metrics.pulls, exact.metrics.pulls,
        "ε = 0 changed the pull count"
    );
    assert_eq!(eps0.metrics.approx_cutoffs, 0);

    // ε: never more pulls, rank-wise within ε in probability space, and
    // labelled approximate only when it cut.
    let eps = case.epsilon;
    let approx = exec.run(
        query,
        rules,
        &TopkConfig {
            epsilon: eps,
            ..cfg.clone()
        },
    );
    assert!(approx.metrics.pulls <= exact.metrics.pulls, "ε pulled more");
    for (r, e) in exact.answers.iter().enumerate() {
        let (pe, pa) = (
            e.score.exp(),
            approx.answers.get(r).map_or(0.0, |a| a.score.exp()),
        );
        assert!(
            pa >= pe - eps - 1e-9,
            "rank {r}: {pa} not within ε = {eps} of {pe}"
        );
    }
    if approx.metrics.approx_cutoffs == 0 {
        assert_eq!(approx.completeness, Completeness::Exact);
    }

    check_batch(case, query, &sys);

    if !sys.has_delta() {
        assert!(sys.answers_introduced_by(query.clone()).answers.is_empty());
    }
}

/// A batch of the query and each of its patterns alone returns what
/// each query returns alone — answers and every work counter — on one,
/// two and four workers.
fn check_batch(case: &Case, query: &Query, sys: &Trinit) {
    let mut batch = vec![query.clone()];
    batch.extend(
        case.patterns
            .iter()
            .map(|&p| query_from(vec![p], case.k + 1)),
    );
    let alone: Vec<QueryOutcome> = batch
        .iter()
        .map(|q| sys.run(q.clone(), Engine::IncrementalTopK))
        .collect();
    for workers in [1, 2, 4] {
        let runs = sys.run_batch_with_workers(batch.clone(), Engine::IncrementalTopK, workers);
        assert_eq!(runs.len(), batch.len());
        for (got, want) in runs.iter().zip(&alone) {
            let got = got.as_ref().expect("no query panicked");
            assert_answers_score_equivalent(&got.answers, &want.answers);
            assert_eq!(got.metrics, want.metrics, "{workers} workers");
        }
    }
}
