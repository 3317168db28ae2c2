//! Integration: mined rules, user rules, sessions, suggestion, and the
//! relaxation-driven recovery of missing answers on a generated system.

use std::collections::HashSet;
use std::sync::OnceLock;

use trinit_core::query::exec::drive::{structural_variants, Variant};
use trinit_core::query::exec::merge::AltTable;
use trinit_core::query::{Answer, TopkConfig};
use trinit_core::relax::{
    apply_rule, apply_rule_with, canonical_key, mine_cooccurrence, ConditionOracle, MinerConfig,
    QPattern, QTerm, Rule, RuleId, RuleKind, RuleProvenance, RuleSet, VarId,
};
use trinit_core::worldgen::{CorpusConfig, EntityType, KgConfig, World, WorldConfig};
use trinit_core::xkg::{args_pairs, PostingList, SegmentLayout, ServeKind, SlotPattern, XkgStore};
use trinit_core::{Engine, QueryOutcome, Session, Trinit, TrinitBuilder};
use trinit_eval::{
    build_full_system, build_world, generate_benchmark, BenchQuery, BenchmarkConfig, EvalConfig,
};

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
    for m in mined.iter().take(25) {
        // Recompute w(p1→p2) = |args(p1) ∩ args(p2)| / |args(p2)| from
        // the raw store and compare.
        let a1 = args_pairs(sys.store(), m.p1);
        let a2 = args_pairs(sys.store(), m.p2);
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
        let exact = sys.run(sys.parse(&text).unwrap(), Engine::Exact);
        if !exact.answers.is_empty() {
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

/// A reference relaxation table entry: pattern, weight, rule chain.
type RefEntry = (QPattern, f64, Vec<RuleId>);

/// The variables of `pattern` that `origin` lacks (rule-introduced fresh
/// ones), renamed in slot order to the lowest ids from `fresh_base` that
/// no variable kept from `origin` holds.
fn remap_fresh(pattern: QPattern, origin: &QPattern, fresh_base: u16) -> QPattern {
    let kept = |v: VarId| origin.vars().any(|u| u == v);
    let mut mapping: Vec<(VarId, VarId)> = Vec::new();
    let mut next = fresh_base;
    let mut map = |t: QTerm| match t {
        QTerm::Var(v) if !kept(v) => {
            if let Some(&(_, nv)) = mapping.iter().find(|(old, _)| *old == v) {
                return QTerm::Var(nv);
            }
            while pattern.vars().any(|u| u.0 == next && kept(u)) {
                next += 1;
            }
            mapping.push((v, VarId(next)));
            next += 1;
            QTerm::Var(VarId(next - 1))
        }
        other => other,
    };
    QPattern::new(map(pattern.s), map(pattern.p), map(pattern.o))
}

/// A pattern's relaxation table enumerated through the general matcher:
/// breadth-first chains of mergeable rules applied with `apply_rule`, a
/// rewriting already present kept at its best weight and chain, new ones
/// appended while the table has room.
fn reference_table(
    pattern: &QPattern,
    rules: &RuleSet,
    cfg: &TopkConfig,
    fresh_base: u16,
) -> Vec<RefEntry> {
    let mut out: Vec<RefEntry> = vec![(*pattern, 1.0, Vec::new())];
    let mut frontier = vec![0usize];
    for _ in 0..cfg.chain_depth {
        let mut next_frontier = Vec::new();
        for &idx in &frontier {
            let (cur, cur_weight, cur_trace) = out[idx].clone();
            let Some(pred) = cur.p.term() else { continue };
            let rewrites_pred = |r: &Rule| r.is_mergeable() && r.lhs_predicate() == Some(pred);
            for (rule_id, rule) in rules.iter().filter(|(_, r)| rewrites_pred(r)) {
                let weight = cur_weight * rule.weight;
                if weight < cfg.min_weight {
                    continue;
                }
                for rewriting in apply_rule(&[cur], rule, rule_id) {
                    let [rewritten] = rewriting.patterns[..] else {
                        continue;
                    };
                    let rewritten = remap_fresh(rewritten, &cur, fresh_base);
                    let trace = [cur_trace.clone(), vec![rule_id]].concat();
                    match out.iter().position(|a| a.0 == rewritten) {
                        Some(i) if weight > out[i].1 => (out[i].1, out[i].2) = (weight, trace),
                        None if out.len() < cfg.max_alternatives => {
                            out.push((rewritten, weight, trace));
                            next_frontier.push(out.len() - 1);
                        }
                        _ => {}
                    }
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

/// The top-k engine's relaxation table of every pattern the 70 graded
/// queries run — their own patterns and those of their one-step
/// structural rewritings, at the fresh-variable base each stream gets —
/// equals the general matcher's enumeration entry for entry: pattern,
/// weight to the bit, rule chain, and order (merge ties break on the
/// entry index).
#[test]
fn relaxation_tables_equal_the_general_matcher_enumeration() {
    let Graded { sys, graded, .. } = graded();
    let (rules, topk) = (sys.rules(), TopkConfig::default());
    let (mut tables, mut relaxed) = (0, 0);
    for bench in graded {
        let query = sys.parse(&bench.text).expect("graded query parses");
        let mut variants = vec![query.patterns.clone()];
        for &id in rules.structural_rules() {
            let rewritings = apply_rule_with(&query.patterns, rules.get(id), id, Some(sys.store()));
            variants.extend(rewritings.into_iter().map(|r| r.patterns));
        }
        for patterns in &variants {
            let max_var = patterns
                .iter()
                .filter_map(QPattern::max_var)
                .max()
                .map_or(0, |m| m + 1);
            for (i, pattern) in patterns.iter().enumerate() {
                let fresh_base = max_var + 3 * i as u16;
                let want = reference_table(pattern, rules, &topk, fresh_base);
                let table = AltTable::build(pattern, rules, &topk, fresh_base, None);
                let got: Vec<RefEntry> = table
                    .iter()
                    .map(|a| (*a.pattern, a.weight, a.trace.to_vec()))
                    .collect();
                assert_eq!(got.len(), want.len(), "{}: {pattern:?}", bench.text);
                for (g, w) in got.iter().zip(&want) {
                    let (g, w) = ((g.0, g.1.to_bits(), &g.2), (w.0, w.1.to_bits(), &w.2));
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

/// `structural_variants` as it was before structural rules were indexed
/// by predicate: every structural rule tried on every variant.
fn unindexed_variants(
    store: &XkgStore,
    patterns: &[QPattern],
    rules: &RuleSet,
    cfg: &TopkConfig,
) -> Vec<Variant> {
    let original_vars = patterns
        .iter()
        .filter_map(QPattern::max_var)
        .max()
        .map_or(0, |m| m + 1);
    let mut out: Vec<Variant> = vec![(patterns.to_vec(), 1.0, Vec::new())];
    let mut keys = vec![canonical_key(patterns, original_vars)];
    let mut frontier = vec![0usize];
    for _ in 0..cfg.structural_depth {
        let mut next_frontier = Vec::new();
        for &idx in &frontier {
            let (cur, cur_weight, cur_trace) = out[idx].clone();
            for &id in rules.structural_rules() {
                let weight = cur_weight * rules.get(id).weight;
                if weight < cfg.min_weight {
                    continue;
                }
                for rewriting in apply_rule_with(&cur, rules.get(id), id, Some(store)) {
                    let key = canonical_key(&rewriting.patterns, original_vars);
                    if keys.contains(&key) || out.len() >= cfg.max_variants {
                        continue;
                    }
                    keys.push(key);
                    let trace = [cur_trace.clone(), vec![id]].concat();
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

/// Indexing structural rules by their LHS predicates changes which rules
/// are *tried*, never what comes out: for every graded query, at
/// structural depths 1 and 2, the variants under the store oracle are
/// the unindexed enumeration's — same patterns, order, weights to the
/// bit and traces.
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
        for bench in graded {
            let query = sys.parse(&bench.text).expect("graded query parses");
            let oracle: &dyn ConditionOracle = store;
            let got = structural_variants(Some(oracle), &query.patterns, rules, &cfg);
            let want = unindexed_variants(store, &query.patterns, rules, &cfg);
            assert_eq!(got.len(), want.len(), "{}", bench.text);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    (&g.0, g.1.to_bits(), &g.2),
                    (&w.0, w.1.to_bits(), &w.2),
                    "{}",
                    bench.text
                );
            }
            let tried = rules.structural_rules_for(&query.patterns).count();
            skipped += rules.structural_rules().len() - tried;
            rewritten += usize::from(got.len() > 1);
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
        for (patterns, ..) in structural_variants(Some(oracle), &query.patterns, rules, &topk) {
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
