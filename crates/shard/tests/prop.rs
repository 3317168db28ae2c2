//! Property tests for partitioned execution: what the configuration
//! lattice (`crates/core/tests/lattice.rs`, which pins that every
//! partition count answers as the monolith) cannot see — zero-mass
//! stream skips, anchored lists against the scan on every shard slice,
//! cross-shard tie order, and the restricted merge's emission stream
//! over 1/2/4/7 slices.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use proptest::prelude::*;

use trinit_query::exec::merge::{AltTable, IncrementalMerge};
use trinit_query::exec::topk::{self, StoreView, TopkConfig};
use trinit_query::ExecMetrics;
use trinit_relax::{QPattern, QTerm, RuleSet, VarId};
use trinit_shard::testkit::assert_answers_score_equivalent;
use trinit_shard::{ShardedExecutor, ShardedStore};
use trinit_xkg::{
    PostingList, Provenance, SegmentLayout, SlotPattern, SourceId, Triple, XkgBuilder,
};

#[path = "../../query/tests/support/gen.rs"]
pub mod gen;
#[path = "../../query/tests/support/restriction.rs"]
pub mod restriction;
use gen::{
    add_rows, build_store, builder_from, patterns_strategy, query_from, rule_of_shape,
    rules_strategy, store_strategy, tid,
};
use restriction::{assert_restriction_filters, key_values, key_vars};

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
        assert_answers_score_equivalent(&run.answers, &mono);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A restricted merge emits exactly the filtered sorted stream: a
    /// merge restricted to a key set at any point of its drain continues
    /// with precisely the emissions its unrestricted twin makes from that
    /// point on, minus those of an alternative binding the key variables
    /// whose values form no key — same triples, probability bits and
    /// alternatives, in the same order — whether an alternative was
    /// opened before the restriction or opens through bound lookups
    /// after it, with rules that drop a variable in play. It holds for a
    /// merge over one frozen store, and over a store's 1/2/4/7 slices —
    /// every (alternative, slice) list probing its own segment under the
    /// *global* totals — on Flat and Packed segments, and for a merge
    /// confined to the delta slices of a store with a live delta (the
    /// semi-naive delta-query seam), whose scores divide by totals that
    /// span base and delta.
    #[test]
    fn restricted_merge_emits_the_filtered_sorted_stream(
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
        // One rule always fires on the pattern itself, half the time
        // dropping one of its variables.
        let (p2, w, shape) = own_rule;
        let own = pattern.p.term().map(|p1| rule_of_shape(p1.index(), p2, w, shape));
        let set: RuleSet = rules.into_iter().chain(own).collect();
        let cfg = TopkConfig { min_weight: 0.0, ..TopkConfig::default() };
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let store = build_store(&rows, layout);
            let merge = || {
                let table = Rc::new(AltTable::build(&pattern, &set, &cfg, 8, None));
                IncrementalMerge::new(&StoreView::single(&store), 0..1, table, &[], None)
            };
            assert_restriction_filters(merge(), merge(), |id| store.triple(id), &vars, &keys, at);
        }
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
        live.ingest(|b| add_rows(b, &rows[half..]));
        let deltas = live.delta_slices().count();
        check(&live, Some(2..2 + deltas));
    }
}
