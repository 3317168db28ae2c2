//! Property tests for partitioned execution.
//!
//! The headline property — the acceptance bar of the sharding subsystem:
//! **sharded execution returns answers score-equal to the single-store
//! engine** on arbitrary stores, multi-pattern (join) queries, and
//! relaxation rule sets, at 1, 2, 4, and 7 shards. Both sides run the
//! *same* top-k
//! configuration, so the comparison is exact (no rewriting-budget
//! mismatch to tolerate); only membership of a trailing tied-score group
//! is tie-break detail.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use proptest::prelude::*;

use trinit_query::exec::merge::{AltTable, IncrementalMerge};
use trinit_query::exec::topk::{self, StoreView, TopkConfig};
use trinit_query::{Completeness, ExecBudget, ExecMetrics, Query};
use trinit_relax::{QPattern, QTerm, Rule, RuleProvenance, RuleSet, VarId};
use trinit_shard::{QueryPool, ShardedExecutor, ShardedStore};
use trinit_xkg::{
    PostingList, Provenance, SegmentLayout, SlotPattern, SourceId, TermId, TermKind, Triple,
    XkgBuilder,
};

#[path = "../../query/tests/support/restriction.rs"]
mod restriction;
use restriction::{assert_restriction_filters, key_values, key_vars};

fn tid(i: u32) -> TermId {
    TermId::new(TermKind::Resource, i)
}

type Row = (u32, u32, u32, f32, u8);

/// A random store over a small universe: up to `max_triples` triples
/// with random confidences and supports — and, about one time in three,
/// a flat-score hub on top (see [`hub_strategy`]).
fn store_strategy(universe: u32, max_triples: usize) -> impl Strategy<Value = Vec<Row>> {
    (
        proptest::collection::vec(
            (0..universe, 0..universe, 0..universe, 0.05f32..1.0, 0u8..4),
            1..max_triples,
        ),
        hub_strategy(universe),
    )
        .prop_map(|(mut rows, hub)| {
            rows.extend(hub);
            rows
        })
}

/// The predicate a generated hub sits on: the last of the universe, so
/// random patterns and rules reach it too.
fn hub_predicate(universe: u32) -> u32 {
    universe - 1
}

/// A flat-score hub predicate: 100–240 equal-weight triples with distinct
/// subjects (outside the universe, so they spread over every shard) whose
/// objects cycle over the first few terms of it — the posting list a rank
/// join has to drain without any score signal. Empty two times in three.
fn hub_strategy(universe: u32) -> impl Strategy<Value = Vec<Row>> {
    (0u32..3, 100u32..240, 1u32..universe).prop_map(move |(pick, n, objects)| {
        if pick != 0 {
            return Vec::new();
        }
        (0..n)
            .map(|i| (1000 + i, hub_predicate(universe), i % objects, 0.5, 0))
            .collect()
    })
}

fn builder_from(rows: &[Row]) -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for &(s, p, o, conf, support) in rows {
        let mut prov = Provenance::extraction(conf, SourceId(0));
        prov.support = u32::from(support) + 1;
        b.add(Triple::new(tid(s), tid(p), tid(o)), prov);
    }
    b
}

fn query_from(patterns: Vec<QPattern>, k: usize) -> Query {
    let n_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m as usize + 1);
    Query {
        patterns,
        projection: Vec::new(),
        k,
        var_names: (0..n_vars).map(|i| format!("v{i}")).collect(),
        unknown_terms: Vec::new(),
    }
}

fn qterm(vars: u16, universe: u32) -> impl Strategy<Value = QTerm> {
    prop_oneof![
        (0..vars).prop_map(|v| QTerm::Var(VarId(v))),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
    ]
}

fn pattern_strategy(vars: u16, universe: u32) -> impl Strategy<Value = QPattern> {
    (
        qterm(vars, universe),
        (0..universe).prop_map(|t| QTerm::Term(tid(t))),
        qterm(vars, universe),
    )
        .prop_map(|(s, p, o)| QPattern::new(s, p, o))
}

/// A granularity-shaped three-pattern star, `?0 hub ?1 . ?1 pa ta .
/// ?1 pb tb`: every pattern shares `?1`, and the legs' objects are terms
/// or (both the same) third variable.
fn star_strategy(universe: u32) -> impl Strategy<Value = Vec<QPattern>> {
    let leg = move || (0..universe, 0..universe + 1);
    (leg(), leg()).prop_map(move |((pa, oa), (pb, ob))| {
        let z = QTerm::Var(VarId(1));
        let object = |o: u32| {
            if o == universe {
                QTerm::Var(VarId(2))
            } else {
                QTerm::Term(tid(o))
            }
        };
        vec![
            QPattern::new(QTerm::Var(VarId(0)), QTerm::Term(tid(hub_predicate(universe))), z),
            QPattern::new(z, QTerm::Term(tid(pa)), object(oa)),
            QPattern::new(z, QTerm::Term(tid(pb)), object(ob)),
        ]
    })
}

/// Multi-pattern queries: `len` random patterns over `vars` variables,
/// or (half the time) a [`star_strategy`] star.
fn patterns_strategy(
    vars: u16,
    universe: u32,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<QPattern>> {
    prop_oneof![
        proptest::collection::vec(pattern_strategy(vars, universe), len),
        star_strategy(universe),
    ]
}

fn rules_strategy(universe: u32) -> impl Strategy<Value = Vec<Rule>> {
    proptest::collection::vec(
        (0..universe, 0..universe, 0.15f64..1.0, 0u8..4)
            .prop_map(|(p1, p2, w, shape)| rule_of_shape(p1, p2, w, shape)),
        0..4,
    )
}

/// One single-pattern rule `?x p1 ?y → …`: a predicate rewrite
/// (`?x p2 ?y`), an inversion (`?y p2 ?x`), or a rewrite that replaces
/// the object (`?x p2 ?f`) or the subject (`?f p2 ?y`) by a fresh
/// variable — the relaxed form then no longer binds that variable, which
/// is what puts items on a rank-join stream's residual chain.
fn rule_of_shape(p1: u32, p2: u32, w: f64, shape: u8) -> Rule {
    use trinit_relax::{RVar, TTerm, Template};
    let (x, y, f) = (TTerm::Var(RVar(0)), TTerm::Var(RVar(1)), TTerm::Var(RVar(2)));
    let relaxed = match shape {
        0 => return Rule::predicate_rewrite("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        1 => return Rule::inversion("r", tid(p1), tid(p2), w, RuleProvenance::UserDefined),
        2 => Template::new(x, TTerm::Const(tid(p2)), f),
        _ => Template::new(f, TTerm::Const(tid(p2)), y),
    };
    Rule::structural(
        "r",
        vec![Template::new(x, TTerm::Const(tid(p1)), y)],
        vec![relaxed],
        w,
        RuleProvenance::UserDefined,
    )
}

use trinit_shard::testkit::assert_answers_score_equivalent as assert_answers_equivalent;

/// Zero-mass match sets under sharding: a repeated-variable (masked)
/// pattern whose filtered matches all weigh 0 gets a global total of 0,
/// so the engine's 0 head bound skips the stream outright. That skip is
/// only sound because masked zero-mass lists serve empty — the sharded
/// and the monolithic engine must agree.
#[test]
fn sharded_zero_mass_repeated_variable_agrees_with_monolith() {
    let build = || {
        let mut b = XkgBuilder::new();
        // Positive-weight background facts plus zero-weight self-loops
        // spread across subjects (hence shards).
        for i in 0..8u32 {
            b.add(
                Triple::new(tid(100 + i), tid(0), tid(200 + i)),
                Provenance::extraction(0.5, SourceId(0)),
            );
            b.add(
                Triple::new(tid(300 + i), tid(1), tid(300 + i)),
                Provenance::extraction(0.0, SourceId(0)),
            );
        }
        b
    };
    let single = build().build();
    let v = QTerm::Var(VarId(0));
    // `?x p1 ?x` filters to the zero-weight self-loops only.
    let query = query_from(vec![QPattern::new(v, QTerm::Term(tid(1)), v)], 10);
    let cfg = TopkConfig::default();
    let (mono, _) = topk::run(&single, &query, &RuleSet::new(), &cfg);
    assert!(mono.is_empty(), "zero-mass sets emit nothing");
    for shards in [2usize, 4] {
        let sharded = ShardedStore::build(build(), shards);
        let exec = ShardedExecutor::new(&sharded);
        let run = exec.run(&query, &RuleSet::new(), &cfg);
        assert_answers_equivalent(&run.answers, &mono);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Sharded ≡ single-store on multi-pattern queries with relaxation,
    /// across shard counts.
    #[test]
    fn sharded_execution_equals_single_store(
        rows in store_strategy(6, 40),
        patterns in patterns_strategy(3, 6, 1..4),
        rules in rules_strategy(6),
        k in 1usize..12,
    ) {
        let single = builder_from(&rows).build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (mono, _) = topk::run(&single, &query, &set, &cfg);
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let run = exec.run(&query, &set, &cfg);
            assert_answers_equivalent(&run.answers, &mono);
        }
    }

    /// Anchored-index-served posting lists are entry-for-entry equal to
    /// the materialize-and-sort reference on **every shard slice** —
    /// all 8 pattern shapes, monolithic and at 1/2/4/7 shards. (The
    /// monolithic variant lives in `crates/xkg/tests/prop.rs`; this one
    /// pins that per-shard stores built by the partitioner behave
    /// identically on their slices.)
    #[test]
    fn anchored_lists_equal_scan_reference_on_every_shard(
        rows in store_strategy(6, 40),
        s in 0u32..6,
        p in 0u32..6,
        o in 0u32..6,
    ) {
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            for shard in sharded.shards() {
                for mask in 0u8..8 {
                    let pattern = SlotPattern::new(
                        (mask & 1 != 0).then_some(tid(s)),
                        (mask & 2 != 0).then_some(tid(p)),
                        (mask & 4 != 0).then_some(tid(o)),
                    );
                    let indexed = PostingList::build(shard, &pattern);
                    let reference = PostingList::build_by_scan(shard, &pattern);
                    prop_assert_eq!(indexed.len(), reference.len(), "shape {:#05b}", mask);
                    for (a, b) in indexed.iter().zip(reference.iter()) {
                        prop_assert_eq!(a.triple, b.triple, "order, shape {:#05b}", mask);
                        prop_assert_eq!(a.weight, b.weight);
                        prop_assert!((a.prob - b.prob).abs() <= 1e-12);
                    }
                    for upto in 0..=indexed.len() {
                        prop_assert!(
                            (indexed.prefix_weight(upto) - reference.prefix_weight(upto)).abs()
                                < 1e-9
                        );
                    }
                }
            }
        }
    }

    /// Cross-shard tie order is pinned to the deterministic
    /// (score desc, key asc) order `into_top_k` promises: with no k-cut,
    /// answers with bit-equal scores from *different shards* interleave
    /// in exactly the monolith's key order (never shard-major emission
    /// order); with a cut inside a tied group, everything above the
    /// boundary matches the monolith exactly and the returned tied run
    /// is still key-ascending. Weights are small integers (conf 1.0) so
    /// every normalization total and probability is computed on
    /// identical operands mono and sharded, making scores bit-equal and
    /// the assertions exact. (Which members of the boundary tie survive
    /// the cut is emission-order tie-break detail, documented in
    /// `testkit::assert_answers_score_equivalent`.)
    #[test]
    fn cross_shard_ties_keep_deterministic_key_order(
        supports in proptest::collection::vec(1u8..4, 8..24),
        k in 1usize..10,
    ) {
        let build = |supports: &[u8]| {
            let mut b = XkgBuilder::new();
            for (i, &sup) in supports.iter().enumerate() {
                // Many subjects → different shards; one shared object so
                // an op-bound pattern spans every shard. Repeating
                // support values manufactures exact score ties.
                let mut prov = Provenance::kg();
                prov.support = u32::from(sup);
                b.add(
                    Triple::new(tid(100 + i as u32), tid(0), tid(50)),
                    prov,
                );
            }
            b
        };
        let single = build(&supports).build();
        let pattern = QPattern::new(
            QTerm::Var(VarId(0)),
            QTerm::Term(tid(0)),
            QTerm::Term(tid(50)),
        );
        let cfg = TopkConfig::default();

        // No cut (k ≥ distinct answers): the full sequences must be
        // identical — cross-shard ties interleave by key, not by shard.
        let full_query = query_from(vec![pattern], 1000);
        let (mono_full, _) = topk::run(&single, &full_query, &RuleSet::new(), &cfg);
        // Cut inside ties: the prefix above the boundary score is exact.
        let cut_query = query_from(vec![pattern], k);
        let (mono_cut, _) = topk::run(&single, &cut_query, &RuleSet::new(), &cfg);

        for shards in [2usize, 4, 7] {
            let sharded = ShardedStore::build(build(&supports), shards);
            let exec = ShardedExecutor::new(&sharded);
            let full = exec.run(&full_query, &RuleSet::new(), &cfg);
            prop_assert_eq!(full.answers.len(), mono_full.len());
            for (a, b) in full.answers.iter().zip(&mono_full) {
                prop_assert_eq!(
                    &a.key, &b.key,
                    "uncut tie order diverged at {} shards", shards
                );
                prop_assert_eq!(a.score, b.score, "scores must be bit-equal");
            }

            let cut = exec.run(&cut_query, &RuleSet::new(), &cfg);
            prop_assert_eq!(cut.answers.len(), mono_cut.len());
            let boundary = mono_cut.last().map(|a| a.score);
            for (a, b) in cut.answers.iter().zip(&mono_cut) {
                prop_assert_eq!(a.score, b.score, "scores must be bit-equal");
                if Some(a.score) != boundary {
                    prop_assert_eq!(&a.key, &b.key, "order above the tie boundary");
                }
            }
            // Within the returned ranking, every tied run is in
            // ascending key order — the promise `into_top_k` makes.
            for w in cut.answers.windows(2) {
                if w[0].score == w[1].score {
                    prop_assert!(w[0].key < w[1].key, "tied run not key-sorted");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ε-approximate guarantee under sharding, at 1/2/4/7 shards:
    /// rank-wise the sharded approximate ranking
    /// is within ε of the *monolithic exact* ranking in probability
    /// space, and ε = 0 stays answer-identical (bit-equal scores) and
    /// pull-count-identical to the sharded exact engine.
    #[test]
    fn sharded_epsilon_within_eps_of_exact_monolith(
        rows in store_strategy(5, 32),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
        eps_pick in 0usize..3,
    ) {
        // The last one is small enough to bite on a flat-score hub.
        let eps = [0.05, 0.01, 1e-4][eps_pick];
        let single = builder_from(&rows).build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (mono, _) = topk::run(&single, &query, &set, &cfg);
        let approx_cfg = TopkConfig { epsilon: eps, ..cfg.clone() };
        let eps0_cfg = TopkConfig { epsilon: 0.0, ..cfg.clone() };
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let exact_run = exec.run(&query, &set, &cfg);
            let approx_run = exec.run(&query, &set, &approx_cfg);
            for (r, e) in mono.iter().enumerate() {
                let pe = e.score.exp();
                let pa = approx_run.answers.get(r).map_or(0.0, |a| a.score.exp());
                prop_assert!(
                    pa >= pe - eps - 1e-9,
                    "{} shards, rank {}: approx {} not within ε={} of exact {}",
                    shards, r, pa, eps, pe
                );
            }
            prop_assert!(
                approx_run.metrics.pulls <= exact_run.metrics.pulls,
                "{} shards: ε pulled more ({} > {})",
                shards, approx_run.metrics.pulls, exact_run.metrics.pulls
            );
            // ε = 0: bit-identical to the sharded exact engine.
            let eps0_run = exec.run(&query, &set, &eps0_cfg);
            prop_assert_eq!(eps0_run.answers.len(), exact_run.answers.len());
            for (a, b) in eps0_run.answers.iter().zip(&exact_run.answers) {
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(a.score, b.score, "ε=0 changed a sharded score");
            }
            prop_assert_eq!(
                eps0_run.metrics.pulls, exact_run.metrics.pulls,
                "ε=0 changed sharded pull counts"
            );
            prop_assert_eq!(eps0_run.metrics.approx_cutoffs, 0);
        }
    }

    /// The relative-θ guarantee under sharding, at 1/2/4/7 shards:
    /// rank-wise the sharded θ ranking keeps
    /// `prob ≥ (1 − θ) ·` the *monolithic exact* ranking's, never pulls
    /// more than the sharded exact run, and labels itself `Approx` only
    /// when the criterion actually fired.
    #[test]
    fn sharded_theta_keeps_rankwise_ratio_of_exact_monolith(
        rows in store_strategy(5, 32),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
        theta_pick in proptest::bool::ANY,
    ) {
        let theta = if theta_pick { 0.3 } else { 0.7 };
        let single = builder_from(&rows).build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (mono, _) = topk::run(&single, &query, &set, &cfg);
        let theta_cfg = TopkConfig { theta, ..cfg.clone() };
        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let exact_run = exec.run(&query, &set, &cfg);
            let theta_run = exec.run(&query, &set, &theta_cfg);
            for (r, e) in mono.iter().enumerate() {
                let pe = e.score.exp();
                let pa = theta_run.answers.get(r).map_or(0.0, |a| a.score.exp());
                prop_assert!(
                    pa >= (1.0 - theta) * pe - 1e-12,
                    "{} shards, rank {}: θ={} run {} below (1−θ)·{}",
                    shards, r, theta, pa, pe
                );
            }
            prop_assert!(
                theta_run.metrics.pulls <= exact_run.metrics.pulls,
                "{} shards: θ pulled more ({} > {})",
                shards, theta_run.metrics.pulls, exact_run.metrics.pulls
            );
            if theta_run.metrics.approx_cutoffs == 0 {
                prop_assert_eq!(theta_run.completeness, Completeness::Exact);
            }
        }
    }

    /// The batch pool is invisible: for arbitrary stores, rule sets and
    /// query batches, a batch returns exactly what per-query execution
    /// returns — answers and every work counter — at 1/2/4 workers.
    #[test]
    fn pool_batches_equal_per_query_execution(
        rows in store_strategy(5, 32),
        patterns_a in pattern_strategy(3, 5),
        patterns_b in pattern_strategy(3, 5),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let queries = vec![
            query_from(vec![patterns_a], k),
            query_from(vec![patterns_b], k + 1),
            query_from(vec![patterns_a, patterns_b], k),
        ];
        for shards in [2usize, 3] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            for workers in [1usize, 2, 4] {
                let runs = QueryPool::new(workers)
                    .try_execute(queries.iter().collect(), |q| exec.run(q, &set, &cfg));
                prop_assert_eq!(runs.len(), queries.len());
                for (run, q) in runs.iter().zip(&queries) {
                    let run = run.as_ref().expect("no query panicked");
                    let want = exec.run(q, &set, &cfg);
                    assert_answers_equivalent(&run.answers, &want.answers);
                    prop_assert_eq!(run.metrics, want.metrics);
                }
            }
        }
    }

    /// Budget governance is free when nothing binds: ε = 0 under an
    /// effectively infinite budget is **bit-identical** to the
    /// ungoverned exact path — same answers, same scores, same pull
    /// counts — monolithic and at 1/2/4/7 shards, and every run is
    /// labeled [`Completeness::Exact`].
    #[test]
    fn governed_unlimited_budget_is_bit_identical_to_exact(
        rows in store_strategy(5, 32),
        patterns in patterns_strategy(3, 5, 1..3),
        rules in rules_strategy(5),
        k in 1usize..8,
    ) {
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        // Limits present (the governed code path is exercised) but
        // unreachable: one hour and half the address space of pulls.
        let governed_cfg = TopkConfig {
            epsilon: 0.0,
            budget: ExecBudget {
                deadline: Some(std::time::Duration::from_secs(3600)),
                max_pulls: Some(usize::MAX / 2),
                ..ExecBudget::default()
            },
            ..cfg.clone()
        };
        let query = query_from(patterns, k);

        let single = builder_from(&rows).build();
        let (mono, m_mono) = topk::run(&single, &query, &set, &cfg);
        let governed = topk::run_governed(&single, &query, &set, &governed_cfg, None);
        prop_assert_eq!(governed.answers.len(), mono.len());
        for (a, b) in governed.answers.iter().zip(&mono) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(a.score, b.score, "governed run changed a monolithic score");
        }
        prop_assert_eq!(
            governed.metrics.pulls, m_mono.pulls,
            "governed run changed monolithic pull counts"
        );
        prop_assert_eq!(governed.completeness, Completeness::Exact);
        prop_assert_eq!(governed.metrics.degradation_steps, 0);

        for shards in [1usize, 2, 4, 7] {
            let sharded = ShardedStore::build(builder_from(&rows), shards);
            let exec = ShardedExecutor::new(&sharded);
            let exact_run = exec.run(&query, &set, &cfg);
            let gov_run = exec.run(&query, &set, &governed_cfg);
            prop_assert_eq!(gov_run.answers.len(), exact_run.answers.len());
            for (a, b) in gov_run.answers.iter().zip(&exact_run.answers) {
                prop_assert_eq!(&a.key, &b.key);
                prop_assert_eq!(
                    a.score, b.score,
                    "budget changed a sharded score at {} shards", shards
                );
            }
            prop_assert_eq!(
                gov_run.metrics.pulls, exact_run.metrics.pulls,
                "budget changed sharded pull counts at {} shards", shards
            );
            prop_assert_eq!(gov_run.completeness, Completeness::Exact);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The restriction under partitioning: restricting a merge over a
    /// store's slices restricts every (alternative, slice) list, each
    /// probing its own segment under the *global* totals, and the merge
    /// must still emit exactly the filtered sorted stream of its
    /// unrestricted twin — at 1/2/4/7
    /// shards on Flat and Packed segments, and for a merge confined to
    /// the delta slices of a store with a live delta (the semi-naive
    /// delta-query seam), whose scores divide by totals that span base
    /// and delta.
    #[test]
    fn restricted_sharded_merge_emits_the_filtered_sorted_stream(
        rows in store_strategy(6, 40),
        patterns in patterns_strategy(3, 6, 1..2),
        rules in rules_strategy(6),
        own_rule in (0u32..6, 0.15f64..1.0, 0u8..4),
        raw_keys in proptest::collection::vec((0u32..6, 0u32..6, 0u32..6), 0..5),
        pick in 0usize..4,
        at in prop_oneof![0usize..2, 0usize..48],
    ) {
        let pattern = patterns[0];
        let vars = key_vars(&pattern, pick);
        if vars.is_empty() {
            continue;
        }
        let keys = key_values(&raw_keys, vars.len());
        let (p2, w, shape) = own_rule;
        let own = pattern.p.term().map(|p1| rule_of_shape(p1.index(), p2, w, shape));
        let set: RuleSet = rules.into_iter().chain(own).collect();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        // The merge `execute` builds for the pattern over a store's
        // segments (each based where its predecessor ends), confined to
        // the slice sub-range `range` the way a delta-restricted pattern
        // is, with each slice's work recorded in its own slot.
        let check = |store: &ShardedStore, range: Option<Range<usize>>| {
            let slices = store.segments();
            let view = StoreView::over(&slices, store);
            let range = range.unwrap_or(0..slices.len());
            let work = RefCell::new(vec![ExecMetrics::default(); slices.len()]);
            let merge = || {
                let table = Rc::new(AltTable::build(&pattern, &set, &cfg, 8, Some(store)));
                IncrementalMerge::new(&view, range.clone(), table, &[], Some(&work))
            };
            assert_restriction_filters(merge(), merge(), |id| store.triple(id), &vars, &keys, at);
        };
        for shards in [1usize, 2, 4, 7] {
            for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
                check(&ShardedStore::build_with(builder_from(&rows), shards, layout), None);
            }
        }
        let half = rows.len() / 2;
        let mut live = ShardedStore::build(builder_from(&rows[..half]), 2);
        live.ingest(|b| {
            for &(s, p, o, conf, support) in &rows[half..] {
                let mut prov = Provenance::extraction(conf, SourceId(0));
                prov.support = u32::from(support) + 1;
                b.add(Triple::new(tid(s), tid(p), tid(o)), prov);
            }
        });
        let deltas = live.delta_slices().count();
        check(&live, Some(2..2 + deltas));
    }
}
