//! Integration: mined rules, user rules, sessions, suggestion, and the
//! relaxation-driven recovery of missing answers on a generated system;
//! and the experiment driver's E1 (answer quality), E4 (mined rules) and
//! E8 (suggestion) claims at its default configuration.

use std::collections::HashSet;
use std::sync::OnceLock;

use trinit_core::query::exec::drive::structural_variants;
use trinit_core::query::exec::merge::AltTable;
use trinit_core::query::exec::{expand as full_expansion, topk};
use trinit_core::query::{Answer, TopkConfig};
use trinit_core::relax::{
    apply_rule, expand, mine_cooccurrence, ConditionOracle, ExpandOptions, MinedRule, MinerConfig,
    QPattern, QTerm, Rule, RuleKind, RuleProvenance, RuleSet, VarId,
};
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::xkg::{args_pairs, PostingList, SegmentLayout, ServeKind, SlotPattern, XkgStore};
use trinit_core::{Engine, QueryOutcome, Session, Trinit, TrinitBuilder};
use trinit_eval::{
    build_full_system, build_world, figure4_rules, generate_benchmark, run_evaluation,
    suggestion_hits, BenchQuery, BenchmarkConfig, EvalConfig,
};

#[path = "../crates/query/tests/support/gen.rs"]
pub mod gen;

#[path = "support/reference.rs"]
pub mod reference;

fn system() -> (World, trinit_core::Trinit) {
    let world = World::generate(WorldConfig::tiny(53).scaled(3.0));
    let mut corpus = CorpusConfig::tiny(53);
    corpus.documents = 300;
    let sys = TrinitBuilder::from_world(&world, &KgConfig::default(), &corpus).build();
    (world, sys)
}

#[test]
fn mined_weights_satisfy_paper_formula() {
    let (_, sys) = system();
    let mined = mine_cooccurrence(sys.store(), &MinerConfig::default());
    assert!(!mined.is_empty());
    assert_paper_weights(sys.store(), mined.iter().take(25));
}

/// Recomputes each rule's w(p1→p2) = |args(p1) ∩ args(p2)| / |args(p2)|
/// from the raw store and compares.
fn assert_paper_weights<'a>(store: &XkgStore, mined: impl Iterator<Item = &'a MinedRule>) {
    for m in mined {
        let a1 = args_pairs(store, m.p1);
        let a2 = args_pairs(store, m.p2);
        let overlap = match m.rule.kind {
            RuleKind::Inversion => a1
                .iter()
                .filter(|(s, o)| a2.binary_search(&(*o, *s)).is_ok())
                .count(),
            _ => a1
                .iter()
                .filter(|pair| a2.binary_search(pair).is_ok())
                .count(),
        };
        assert_eq!(overlap, m.overlap, "{}", m.rule.label);
        assert_eq!(a2.len(), m.args_p2, "{}", m.rule.label);
        let expected = overlap as f64 / a2.len() as f64;
        assert!(
            (m.rule.weight - expected).abs() < 1e-9,
            "{}: {} vs {}",
            m.rule.label,
            m.rule.weight,
            expected
        );
    }
}

/// The experiment driver's system at `EvalConfig::default()` — what
/// `cargo run -p trinit-eval --bin reproduce` reports on — and E8's
/// benchmark over it, built once.
fn experiment() -> &'static (Trinit, Vec<BenchQuery>) {
    static EXPERIMENT: OnceLock<(Trinit, Vec<BenchQuery>)> = OnceLock::new();
    EXPERIMENT.get_or_init(|| {
        let cfg = EvalConfig::default();
        let (world, kg) = build_world(&cfg);
        let system = build_full_system(&world, &cfg);
        let queries = generate_benchmark(
            &world,
            &kg,
            &BenchmarkConfig {
                seed: cfg.seed.wrapping_add(3),
                per_category: cfg.per_category,
            },
        );
        (system, queries)
    })
}

/// E4: every rule of the Figure 4 mining carries the §3 weight, and the
/// system holds the recorded 77 rules.
#[test]
fn e4_mined_rules_carry_the_paper_weight_and_the_system_holds_77_rules() {
    let (system, _) = experiment();
    assert_eq!(system.rules().len(), 77);
    let mined = figure4_rules(system);
    assert!(!mined.is_empty());
    assert_paper_weights(system.store(), mined.iter());
}

/// E1: over the 70 graded queries at the experiment driver's default
/// configuration, TriniT beats each of the three baselines on overall
/// NDCG@5 and MAP. Recorded: NDCG@5 0.733 against 0.428 (XKG without
/// relaxation), 0.391 (KG with relaxation) and 0.191 (exact KG); MAP
/// 0.789 against 0.510, 0.199 and 0.125.
#[test]
fn e1_trinit_beats_every_baseline_on_ndcg5_and_map() {
    let eval = run_evaluation(&EvalConfig::default());
    assert_eq!(eval.queries, 70);
    let (trinit, baselines) = eval.systems.split_first().expect("four systems");
    assert_eq!(baselines.len(), 3);
    for baseline in baselines {
        assert!(
            trinit.ndcg5 > baseline.ndcg5,
            "NDCG@5: {trinit:?} against {baseline:?}"
        );
        assert!(
            trinit.map > baseline.map,
            "MAP: {trinit:?} against {baseline:?}"
        );
    }
}

/// E8: every one of the 14 token-predicate ('studied under') queries
/// gets the canonical KG predicate `hasStudent` suggested.
#[test]
fn e8_suggests_has_student_for_every_token_predicate_query() {
    let (system, queries) = experiment();
    let (hits, considered) = suggestion_hits(system, queries);
    assert_eq!(considered, 14);
    assert!(hits >= 14, "{hits}/{considered}");
}

#[test]
fn mining_discovers_inversions_between_kg_and_text() {
    let (_, sys) = system();
    let mined = mine_cooccurrence(sys.store(), &MinerConfig::default());
    let has_student = sys.store().resource("hasStudent").unwrap();
    assert!(
        mined.iter().any(|m| m.rule.kind == RuleKind::Inversion
            && (m.p1 == has_student || m.p2 == has_student)),
        "advisor/student inversion should be mined from 'studied under' text"
    );
}

#[test]
fn relaxation_recovers_kg_dropped_answers() {
    let (world, sys) = system();
    // Find a person whose affiliation is NOT answerable exactly but IS
    // answerable with relaxation.
    let mut recovered = 0;
    for &pid in world.of_type(EntityType::Person).iter().take(60) {
        let person = &world.entity(pid).resource;
        let text = format!("{person} affiliation ?x LIMIT 5");
        if !reference::exact(&sys, &sys.parse(&text).unwrap()).is_empty() {
            continue;
        }
        let relaxed = sys.run(sys.parse(&text).unwrap(), Engine::IncrementalTopK);
        if !relaxed.answers.is_empty() {
            recovered += 1;
            assert!(!relaxed.answers[0].derivation.is_exact());
        }
    }
    assert!(recovered > 0, "relaxation should recover some empty queries");
}

#[test]
fn session_rules_extend_but_do_not_mutate_system() {
    let (_, sys) = system();
    let base_rules = sys.rules().len();
    let mut session = Session::new(&sys);
    let born = sys.store().resource("bornIn").unwrap();
    let died = sys.store().resource("diedIn").unwrap();
    session.add_rule(Rule::predicate_rewrite(
        "born~died",
        born,
        died,
        0.3,
        RuleProvenance::UserDefined,
    ));
    assert_eq!(session.rules().len(), base_rules + 1);
    assert_eq!(sys.rules().len(), base_rules, "system set untouched");
}

#[test]
fn explanations_cover_all_derivation_parts() {
    let (world, sys) = system();
    let person = &world.entity(world.of_type(EntityType::Person)[0]).resource;
    let outcome = sys
        .query(&format!("{person} 'studied under' ?x LIMIT 3"))
        .unwrap();
    if let Some(explanation) = sys.explain(&outcome, 0) {
        let text = explanation.render();
        assert!(text.contains("answer:"));
        assert!(text.contains("contributing KG triples:"));
        assert!(text.contains("contributing XKG triples:"));
        assert!(text.contains("invoked relaxation rules:"));
    }
}

#[test]
fn suggestions_point_tokens_at_canonical_predicates() {
    let (world, sys) = system();
    // 'studied under' overlaps hasStudent (inverted) and other text
    // predicates; the forward-overlap suggester should at least produce
    // something for a token query with matches.
    let mut any = false;
    for &pid in world.of_type(EntityType::Person).iter().take(40) {
        let person = &world.entity(pid).resource;
        let outcome = sys
            .query(&format!("{person} 'worked at' ?x LIMIT 5"))
            .unwrap();
        if !sys.suggest(&outcome).is_empty() {
            any = true;
            break;
        }
    }
    assert!(any, "token queries should generate suggestions");
}

#[test]
fn zero_weight_rules_never_contribute() {
    let (world, sys) = system();
    let mut session = Session::without_system_rules(&sys);
    let born = sys.store().resource("bornIn").unwrap();
    let died = sys.store().resource("diedIn").unwrap();
    session.add_rule(Rule::predicate_rewrite(
        "useless",
        born,
        died,
        0.0,
        RuleProvenance::UserDefined,
    ));
    let person = &world.entity(world.of_type(EntityType::Person)[0]).resource;
    let outcome = session
        .query(&format!("{person} bornIn ?x LIMIT 10"))
        .unwrap();
    for a in &outcome.answers {
        assert!(a.derivation.is_exact(), "zero-weight rule must be pruned");
    }
}

/// The graded benchmark's system — `WorldConfig::demo(42)` with its
/// mined rules — on the default `Flat` layout and on `Packed`, and its
/// 70 graded queries, built once for every test that reads them.
struct Graded {
    sys: Trinit,
    packed: Trinit,
    graded: Vec<BenchQuery>,
}

fn graded() -> &'static Graded {
    static GRADED: OnceLock<Graded> = OnceLock::new();
    GRADED.get_or_init(|| {
        let cfg = EvalConfig {
            seed: 42,
            scale: 1.0,
            per_category: 14,
        };
        let (world, kg) = build_world(&cfg);
        let sys = build_full_system(&world, &cfg);
        let mut packed = TrinitBuilder::from_world(&world, &cfg.kg_config(), &cfg.corpus_config());
        packed.options_mut().layout(SegmentLayout::Packed);
        let packed = packed.build();
        let graded = generate_benchmark(
            &world,
            &kg,
            &BenchmarkConfig {
                seed: 45,
                per_category: 14,
            },
        );
        assert_eq!(graded.len(), 70);
        Graded {
            sys,
            packed,
            graded,
        }
    })
}

/// The top-k engine's relaxation table of every pattern the 70 graded
/// queries run — their own patterns and those of their one-step
/// structural rewritings, at the fresh-variable base each stream gets —
/// equals full expansion of the pattern over the mergeable rules through
/// the general matcher, entry for entry: the form up to the naming of
/// fresh variables, weight to the bit and rule chain.
#[test]
fn relaxation_tables_equal_the_general_matcher_enumeration() {
    let Graded { sys, graded, .. } = graded();
    let (rules, topk) = (sys.rules(), TopkConfig::default());
    let (mut tables, mut relaxed) = (0, 0);
    for bench in graded {
        let query = sys.parse(&bench.text).expect("graded query parses");
        let mut variants = vec![query.patterns.clone()];
        for &id in rules.structural_rules() {
            variants.extend(apply_rule(
                &query.patterns,
                rules.get(id),
                Some(sys.store()),
            ));
        }
        for patterns in &variants {
            let max_var = patterns
                .iter()
                .filter_map(QPattern::max_var)
                .max()
                .map_or(0, |m| m + 1);
            for (i, pattern) in patterns.iter().enumerate() {
                let fresh_base = max_var + 3 * i as u16;
                let (got, want) = gen::table_and_expansion(pattern, rules, &topk, fresh_base);
                assert_eq!(got.len(), want.len(), "{}: {pattern:?}", bench.text);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g, w, "{}", bench.text);
                }
                tables += 1;
                relaxed += usize::from(want.len() > 1);
            }
        }
    }
    assert!(
        relaxed * 2 > tables,
        "{relaxed} of {tables} tables relax their pattern"
    );
}

/// Top-k scores an answer reached through chained single-pattern rules
/// by its heaviest chain of at most `chain_depth` rules, as full
/// expansion to that depth does. Over a store of `p4` facts only,
/// `?x p1 ?y` under `p1→p3` 0.9, `p1→p2` 0.3, `p3→p2` 0.9 and `p2→p4` 0.5
/// scores 0.15 at depth 2 (the 0.405 chain takes three rules) and, with
/// the first two rules swapped, 0.405 at depth 3.
#[test]
fn relaxed_answers_score_as_full_expansion_at_the_chain_depth() {
    let mut b = trinit_core::xkg::XkgBuilder::new();
    b.add_kg_resources("a", "p4", "b");
    let p: Vec<_> = (0..5).map(|i| b.dict_mut().resource(&format!("p{i}"))).collect();
    let store = b.build();
    let (x, y) = (QTerm::Var(VarId(0)), QTerm::Var(VarId(1)));
    let query = gen::query_from(vec![QPattern::new(x, QTerm::Term(p[1]), y)], 3);
    let rule = |(from, to, w): (usize, usize, f64)| {
        Rule::predicate_rewrite("r", p[from], p[to], w, RuleProvenance::UserDefined)
    };
    let (to_p3, to_p2) = ((1, 3, 0.9), (1, 2, 0.3));
    for (first, second, chain_depth, want) in [
        (to_p3, to_p2, 2, 0.15f64),
        (to_p2, to_p3, 3, 0.405),
    ] {
        let rules: RuleSet = [first, second, (3, 2, 0.9), (2, 4, 0.5)]
            .into_iter()
            .map(rule)
            .collect();
        let cfg = TopkConfig {
            chain_depth,
            ..TopkConfig::default()
        };
        let opts = ExpandOptions {
            max_depth: chain_depth,
            ..cfg.reference_expansion()
        };
        let (got, _) = topk::run(&store, &query, &rules, &cfg);
        let (reference, _) = full_expansion::run(&store, &query, &rules, &opts);
        assert_eq!((got.len(), reference.len()), (1, 1), "depth {chain_depth}");
        assert_eq!(got[0].key, reference[0].key);
        let (got, reference) = (got[0].score, reference[0].score);
        assert!((got - reference).abs() < 1e-12, "depth {chain_depth}: {got} vs {reference}");
        assert!((reference - want.ln()).abs() < 1e-12, "depth {chain_depth}: {reference}");
    }
}

/// Indexing structural rules by their LHS predicates changes which
/// queries reach the enumerator, never what comes out: for every graded
/// query, at structural depths 1 and 2, the structural variants under
/// the store oracle are the enumerator's output given every structural
/// rule — same patterns, order, weights to the bit and traces.
#[test]
fn structural_variants_equal_the_unindexed_enumeration() {
    let Graded { sys, graded, .. } = graded();
    let (rules, store) = (sys.rules(), sys.store());
    let (mut skipped, mut rewritten) = (0, 0);
    for structural_depth in [1, 2] {
        let cfg = TopkConfig {
            structural_depth,
            ..TopkConfig::default()
        };
        let opts = ExpandOptions {
            max_depth: structural_depth,
            min_weight: cfg.min_weight,
            max_rewritings: cfg.max_variants,
        };
        for bench in graded {
            let query = sys.parse(&bench.text).expect("graded query parses");
            let oracle: &dyn ConditionOracle = store;
            let got = structural_variants(Some(oracle), &query.patterns, rules, &cfg);
            let want = expand(
                &query.patterns,
                rules,
                rules.structural_rules(),
                &opts,
                Some(oracle),
            );
            assert_eq!(want[0].patterns, query.patterns, "{}", bench.text);
            assert_eq!(got.len(), want.len() - 1, "{}", bench.text);
            for (g, w) in got.iter().zip(&want[1..]) {
                assert_eq!(
                    (&g.patterns, g.weight.to_bits(), &g.trace),
                    (&w.patterns, w.weight.to_bits(), &w.trace),
                    "{}",
                    bench.text
                );
            }
            let tried = rules.structural_rules_for(&query.patterns).count();
            skipped += rules.structural_rules().len() - tried;
            rewritten += usize::from(!got.is_empty());
        }
    }
    assert!(skipped > 0, "the index must skip some rule");
    assert!(
        rewritten > 0,
        "some graded query must have structural variants"
    );
}

/// Every composite shape (two or more bound slots) the graded queries
/// open — their patterns, their structural variants' and every relaxed
/// form in their relaxation tables — serves entries bit for bit equal to
/// the scan reference on both segment layouts, through both composite
/// serves: a small exact range, and a larger set's covering group.
#[test]
fn composite_serves_equal_the_scan_reference_on_both_layouts() {
    let Graded {
        sys,
        packed,
        graded,
    } = graded();
    let (rules, topk) = (sys.rules(), TopkConfig::default());
    let oracle: &dyn ConditionOracle = sys.store();
    let mut shapes: Vec<SlotPattern> = Vec::new();
    let mut seen = HashSet::new();
    for bench in graded {
        let query = sys.parse(&bench.text).expect("graded query parses");
        let variants = structural_variants(Some(oracle), &query.patterns, rules, &topk);
        let relaxed = variants.iter().map(|v| &v.patterns);
        for patterns in std::iter::once(&query.patterns).chain(relaxed) {
            for (i, pattern) in patterns.iter().enumerate() {
                let table = AltTable::build(pattern, rules, &topk, 3 * i as u16, None);
                for alt in table.iter() {
                    let shape = alt.pattern.slot_pattern();
                    if shape.bound_count() >= 2 && seen.insert(shape) {
                        shapes.push(shape);
                    }
                }
            }
        }
    }
    for store in [sys.store(), packed.store()] {
        let (mut ranged, mut filtered) = (0, 0);
        for shape in &shapes {
            let list = PostingList::build(store, shape);
            let reference = PostingList::build_by_scan(store, shape);
            assert_eq!(list.entries(), reference.entries(), "{shape:?}");
            let (total, want) = (list.total_weight(), reference.total_weight());
            assert_eq!(total.to_bits(), want.to_bits(), "{shape:?}");
            match list.serve_kind() {
                ServeKind::Range => ranged += 1,
                ServeKind::Filtered => filtered += 1,
                kind => panic!("{shape:?} served as {kind:?}"),
            }
        }
        assert!(
            ranged > 0 && filtered > 0,
            "{ranged} ranged and {filtered} filtered serves of {} shapes",
            shapes.len()
        );
    }
}

/// The layout is invisible to the engine: the 70 graded queries answer
/// on the `Packed` build exactly as on the `Flat` one — the same answers
/// in the same order with the same derivations, scores to the bit, the
/// same completeness, and every `ExecMetrics` counter equal. (The
/// per-serve pins are the composite test above and the xkg properties;
/// this one runs the whole pipeline over both.)
#[test]
fn graded_queries_run_identically_on_both_layouts() {
    let Graded {
        sys,
        packed,
        graded,
    } = graded();
    assert_eq!(sys.rules().len(), packed.rules().len());
    let mut answered = 0;
    for bench in graded {
        let run = |sys: &Trinit| {
            let query = sys.parse(&bench.text).expect("graded query parses");
            sys.run(query, Engine::IncrementalTopK)
        };
        let (flat, pack) = (run(sys), run(packed));
        let answers = |o: &QueryOutcome| -> Vec<_> {
            let answer = |a: &Answer| (a.key.clone(), a.score.to_bits(), a.derivation.clone());
            o.answers.iter().map(answer).collect()
        };
        assert_eq!(answers(&pack), answers(&flat), "{}", bench.text);
        assert_eq!(pack.completeness, flat.completeness, "{}", bench.text);
        assert_eq!(pack.metrics, flat.metrics, "{}", bench.text);
        answered += usize::from(!flat.answers.is_empty());
    }
    assert!(answered * 2 > graded.len(), "{answered} graded queries answered");
}
