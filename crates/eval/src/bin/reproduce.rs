//! Regenerates every evaluation artifact of the TriniT paper.
//!
//! ```text
//! cargo run -p trinit-eval --bin reproduce --release -- all
//! cargo run -p trinit-eval --bin reproduce --release -- e1
//! ```
//!
//! Experiments (see DESIGN.md §3):
//!   e1  quality: NDCG@5 over 70 queries, four systems
//!   e2  dataset: XKG construction statistics
//!   e3  users A–D: relaxation recovers the motivating failure modes
//!   e4  mined relaxation rules (Figure 4 analogue)
//!   e5  efficiency: incremental top-k vs full expansion vs exact
//!   e6  query interface walkthrough (Figure 5 analogue)
//!   e7  answer explanation (Figure 6 analogue)
//!   e8  query suggestion quality

use trinit_core::fixtures::{paper_rules_with_advisor, paper_store};
use trinit_core::{Engine, Session, Trinit};
use trinit_eval::{
    benchmark::BenchmarkConfig, build_full_system, build_world, efficiency_sweep, figure4_rules,
    generate_benchmark, report, run_evaluation, suggestion_hits, EvalConfig,
};
use trinit_relax::RuleKind;

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn e1(cfg: &EvalConfig) {
    header("E1: answer quality (paper: NDCG@5 0.775 TriniT vs 0.419 next-best)");
    let eval = run_evaluation(cfg);
    print!("{}", report::quality_table(&eval));
    println!();
    for s in &eval.systems {
        print!("{}", report::category_table(s));
    }
    println!(
        "\npaper ratio TriniT/next best: {:.2}x   measured: {:.2}x",
        0.775 / 0.419,
        eval.ndcg5_ratio_to_next_best()
    );
}

fn e2(cfg: &EvalConfig) {
    header("E2: XKG construction (paper: 440 M distinct triples = 50 M KG + 390 M Open IE)");
    let (world, _) = build_world(cfg);
    let system = build_full_system(&world, cfg);
    print!("{}", report::build_table(system.stats()));
    let s = system.stats();
    println!(
        "  XKG:KG ratio                 paper 7.8:1, measured {:.1}:1",
        s.xkg_triples as f64 / s.kg_triples.max(1) as f64
    );
}

fn e3() {
    header("E3: the four motivating failure modes (paper \u{a7}1, users A-D)");
    let store = paper_store();
    // hasAdvisor is deliberately out-of-vocabulary; obtain its query-layer
    // id first so rule 2 can be registered against it.
    let probe = {
        let mut qb = trinit_query::QueryBuilder::new(&store);
        qb.resource("hasAdvisor")
    };
    let rules = paper_rules_with_advisor(&store, probe);
    let system = Trinit::from_parts(store, rules);

    let cases = [
        ("A", "Who was born in Germany?", "?x bornIn Germany"),
        (
            "B",
            "Who was the advisor of Albert Einstein?",
            "AlbertEinstein hasAdvisor ?x",
        ),
        (
            "C",
            "Ivy League university Einstein was affiliated with",
            "AlbertEinstein affiliation ?x . ?x member IvyLeague",
        ),
        (
            "D",
            "What did Albert Einstein win a Nobel prize for?",
            "AlbertEinstein 'won nobel for' ?x",
        ),
    ];
    println!(
        "{:<4} {:<44} {:>7} {:>7}",
        "user", "information need", "exact", "TriniT"
    );
    for (user, need, text) in cases {
        let exact = system
            .run(system.parse(text).expect("parses"), Engine::Exact)
            .answers
            .len();
        let outcome = system.query(text).expect("parses");
        let top = outcome
            .answers
            .first()
            .map(|a| {
                a.key
                    .iter()
                    .filter_map(|(_, t)| t.map(|t| system.store().display_term(t)))
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_else(|| "(no answer)".to_string());
        println!(
            "{user:<4} {need:<44} {exact:>7} {:>7}   top: {top}",
            outcome.answers.len()
        );
    }
}

fn e4(cfg: &EvalConfig) {
    header("E4: relaxation rules mined from the XKG (paper Figure 4 + \u{a7}3 formula)");
    let (world, _) = build_world(cfg);
    let system = build_full_system(&world, cfg);
    let mined = figure4_rules(&system);
    println!(
        "{:<66} {:>7} {:>9} {:>7}",
        "rule", "overlap", "|args p2|", "weight"
    );
    for m in &mined {
        let kind = match m.rule.kind {
            RuleKind::Inversion => " (inv)",
            _ => "",
        };
        let mut label = m.rule.label.clone();
        label.truncate(58);
        println!(
            "{:<66} {:>7} {:>9} {:>7.3}",
            format!("{label}{kind}"),
            m.overlap,
            m.args_p2,
            m.rule.weight
        );
    }
    println!("\ntotal rules in the system set: {}", system.rules().len());
}

fn e5(cfg: &EvalConfig) {
    header("E5: efficiency — avoiding the full rewriting space (\u{a7}4)");
    let (world, kg) = build_world(cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: cfg.seed.wrapping_add(3),
            per_category: cfg.per_category.min(6),
        },
    );
    let system = build_full_system(&world, cfg);
    let rows = efficiency_sweep(&system, &queries, &[1, 5, 10, 50]);
    print!("{}", report::efficiency_table(&rows));
}

fn e6() {
    header("E6: query interface walkthrough (paper Figure 5)");
    let store = paper_store();
    let rules = trinit_core::fixtures::paper_rules(&store);
    let system = Trinit::from_parts(store, rules);
    let session = Session::new(&system);
    println!("user query (Figure 5):");
    println!("  AlbertEinstein  affiliation  ?x");
    println!("  ?x  member  IvyLeague");
    println!("  with rules 3 ('housed in', w=0.8) and 4 ('lectured at', w=0.7)");
    println!(
        "auto-completion for 'Alb': {:?}",
        system
            .complete("Alb", 3)
            .iter()
            .map(|c| c.text.as_str())
            .collect::<Vec<_>>()
    );
    let outcome = session
        .query("AlbertEinstein affiliation ?x . ?x member IvyLeague LIMIT 5")
        .expect("parses");
    println!("\nresults (k=5):");
    for (i, a) in outcome.answers.iter().enumerate() {
        let value = a
            .key
            .iter()
            .filter_map(|(_, t)| t.map(|t| system.store().display_term(t)))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  {}. {value}   (log-score {:.3})", i + 1, a.score);
    }
    for s in system.suggest(&outcome) {
        println!("  note: {}", s.render());
    }
}

fn e7() {
    header("E7: answer explanation (paper Figure 6)");
    let store = paper_store();
    let rules = trinit_core::fixtures::paper_rules(&store);
    let system = Trinit::from_parts(store, rules);
    let outcome = system
        .query("AlbertEinstein affiliation ?x . ?x member IvyLeague LIMIT 5")
        .expect("parses");
    match system.explain(&outcome, 0) {
        Some(explanation) => print!("{}", explanation.render()),
        None => println!("(no answers to explain)"),
    }
    println!();
    print!("{}", system.processing_report(&outcome));
}

fn e8(cfg: &EvalConfig) {
    header("E8: query suggestion quality (paper \u{a7}5)");
    let (world, kg) = build_world(cfg);
    let queries = generate_benchmark(
        &world,
        &kg,
        &BenchmarkConfig {
            seed: cfg.seed.wrapping_add(3),
            per_category: cfg.per_category,
        },
    );
    let system = build_full_system(&world, cfg);
    let (hit, considered) = suggestion_hits(&system, &queries);
    println!(
        "token-predicate queries where the canonical KG predicate was suggested: {hit}/{considered}"
    );
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let cfg = EvalConfig::default();
    println!(
        "TriniT reproduction — experiment driver (seed {}, scale {})",
        cfg.seed, cfg.scale
    );
    match arg.as_str() {
        "e1" => e1(&cfg),
        "e2" => e2(&cfg),
        "e3" => e3(),
        "e4" => e4(&cfg),
        "e5" => e5(&cfg),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(&cfg),
        "all" => {
            e1(&cfg);
            e2(&cfg);
            e3();
            e4(&cfg);
            e5(&cfg);
            e6();
            e7();
            e8(&cfg);
        }
        other => {
            eprintln!("unknown experiment {other:?}; use e1..e8 or all");
            std::process::exit(2);
        }
    }
}
