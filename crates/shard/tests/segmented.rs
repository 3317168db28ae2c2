//! Property tests for segmented (base + live delta) execution, below
//! the answers the configuration lattice (`crates/core/tests/lattice.rs`)
//! already pins for a live and a compacted delta at every partition
//! count. A *sequence* of ingests with a compaction somewhere inside it
//! equals a from-scratch rebuild down to the term and source ids it
//! issues, the structures it freezes and the completions it serves; the
//! slice union serves the rebuilt store's match sets; and the semi-naive
//! delta-query seam — restricted runs — surfaces exactly the answers
//! that use fresh evidence.

use std::collections::{BTreeMap, BTreeSet, HashSet};

use proptest::prelude::*;

use trinit_query::exec::topk::{self, ExecCtx, ExecRequest, StoreView, TopkConfig};
use trinit_query::{Answer, BudgetTracker, Query, TraceRecorder};
use trinit_relax::{ConditionOracle, RuleSet, VarId};
use trinit_shard::testkit::assert_answers_score_equivalent;
use trinit_shard::{ShardedExecutor, ShardedStore};
use trinit_xkg::{
    PostingList, Provenance, SegmentLayout, SlotPattern, SourceId, StorageBytes, TermId, Triple,
    TripleId, XkgBuilder, XkgStore,
};

#[path = "../../query/tests/support/gen.rs"]
pub mod gen;
use gen::{
    add_rows, builder_from, fresh_rows, pattern_strategy, patterns_strategy, plain_store_strategy,
    query_from, rules_strategy, store_strategy, tid, Row,
};

/// Interns resource `r{i}` for `i < universe`, in order, so that
/// `tid(i)` — which the query and rule generators speak — is that
/// resource's id in every store built on top.
fn intern_universe(b: &mut XkgBuilder, universe: u32) {
    for i in 0..universe {
        assert_eq!(b.dict_mut().resource(&format!("r{i}")), tid(i));
    }
}

/// [`add_rows`] through the dictionary: terms are resources `r{n}`
/// (shifted by `shift`, so later batches bring terms nobody has seen)
/// and every row cites `source`. Rows in `withheld` intern their terms
/// and source but add nothing — what a live store does with a
/// re-observed base triple until it compacts.
fn add_named_rows(
    b: &mut XkgBuilder,
    rows: &[Row],
    shift: u32,
    source: &str,
    withheld: &HashSet<(u32, u32, u32)>,
) {
    for &(s, p, o, conf, support) in rows {
        let (s, o) = (s + shift, o + shift);
        let triple = Triple::new(
            b.dict_mut().resource(&format!("r{s}")),
            b.dict_mut().resource(&format!("r{p}")),
            b.dict_mut().resource(&format!("r{o}")),
        );
        let mut prov = Provenance::extraction(conf, b.intern_source(source));
        prov.support = u32::from(support) + 1;
        if !withheld.contains(&(s, p, o)) {
            b.add(triple, prov);
        }
    }
}

/// `(triple, weight bits)` of `pattern`'s matches over `slices`, through
/// the reference scan.
fn scan_union<'a>(
    slices: impl Iterator<Item = &'a XkgStore>,
    pattern: &SlotPattern,
) -> Vec<(Triple, u64)> {
    let mut out: Vec<(Triple, u64)> = slices
        .flat_map(|slice| {
            let list = PostingList::build_by_scan(slice, pattern);
            let entries = list.iter();
            entries
                .map(|e| (slice.triple(e.triple), e.weight.to_bits()))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort();
    out
}

/// Everything `store` serves for `shape`, bit for bit: the lookup's ids
/// in serve order; the posting list's entries, the prefix sum its replay
/// starts from, and its total; and the head bound.
type Served = (
    Vec<TripleId>,
    Vec<(TripleId, u64, u64)>,
    u64,
    u64,
    Option<u64>,
);

fn served(store: &XkgStore, shape: &SlotPattern) -> Served {
    let (entries, base, total) = PostingList::build(store, shape).into_shared_parts();
    (
        store.lookup(shape).to_vec(),
        entries
            .iter()
            .map(|e| (e.triple, e.weight.to_bits(), e.prob.to_bits()))
            .collect(),
        base.to_bits(),
        total.to_bits(),
        store.head_prob(shape).map(f64::to_bits),
    )
}

/// A store frozen by merging serves exactly what a from-scratch freeze
/// of the same rows serves, structure for structure, and holds the same
/// index bytes. (The payload's byte counts follow each vector's growth
/// history, which differs between the two, so they are left out.)
fn assert_same_structures(got: &XkgStore, want: &XkgStore, shapes: &[SlotPattern]) {
    for shape in shapes {
        assert_eq!(served(got, shape), served(want, shape), "shape {shape}");
    }
    let index_share = |b: StorageBytes| StorageBytes {
        dict: 0,
        triples: 0,
        provenance: 0,
        ..b
    };
    assert_eq!(
        index_share(got.storage_bytes()),
        index_share(want.storage_bytes())
    );
}

/// `view` frozen from scratch: its own rows, in id order, under its own
/// vocabulary.
fn refrozen(view: &XkgStore) -> XkgStore {
    let mut b = XkgBuilder::with_context(view.dict().clone(), view.sources());
    for (id, t) in view.iter() {
        b.add(t, view.provenance(id).clone());
    }
    b.build_with(view.layout())
}

/// Term and source ids are the ones the from-scratch builder issued.
fn assert_same_vocabulary(got: &XkgStore, want: &XkgStore) {
    let terms: Vec<_> = got.dict().iter().collect();
    assert_eq!(
        terms,
        want.dict().iter().collect::<Vec<_>>(),
        "term ids diverge"
    );
    let sources: Vec<_> = got.sources().iter().collect();
    assert_eq!(
        sources,
        want.sources().iter().collect::<Vec<_>>(),
        "source ids diverge"
    );
    // Completion follows the vocabulary: every prefix of every term
    // completes as in the from-scratch store, whatever runs and tail
    // the ingests and compactions left.
    let mut prefixes = BTreeSet::new();
    for (_, text) in want.dict().iter() {
        let cuts = text.char_indices().map(|(at, _)| at).chain([text.len()]);
        prefixes.extend(cuts.map(|at| &text[..at]));
    }
    for prefix in prefixes {
        for limit in [1, 4, usize::MAX] {
            assert_eq!(
                got.dict().complete(prefix, limit),
                want.dict().complete(prefix, limit),
                "completions of {prefix:?} diverge"
            );
        }
    }
}

/// A monolith: one partition over an already-built store, the way the
/// facade wraps one.
fn monolith(base: XkgStore) -> ShardedStore {
    ShardedStore::from_shards(vec![base])
}

/// Monolithic segmented execution: the store's segments — the base and
/// the live delta view — as the two slices of one view, normalized by
/// the store itself.
fn run_mono_segmented(
    seg: &ShardedStore,
    query: &Query,
    rules: &RuleSet,
    cfg: &TopkConfig,
) -> Vec<Answer> {
    if let Some(base) = seg.single_slice() {
        return topk::run(base, query, rules, cfg).0;
    }
    let slices = seg.segments();
    let tracker = BudgetTracker::new(cfg);
    let ctx = ExecCtx {
        tracker: &tracker,
        recorder: &mut TraceRecorder::off(),
    };
    let view = StoreView::over(&slices, seg);
    topk::execute(&view, ExecRequest::new(query, rules, cfg), ctx).answers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A *sequence* of ingests ≡ one rebuild: 1–12 batches that
    /// re-observe base triples, re-observe their own and each other's
    /// triples, and bring terms and sources nobody has seen before, with
    /// one compaction somewhere inside the sequence, monolithic (Flat and
    /// Packed base) and at 1/2/4 shards. While the delta is live the
    /// store serves what a rebuild *withholding the re-observed base
    /// triples* serves (they are pending absorbs); after a compaction it
    /// is the rebuild, provenance record for provenance record. Either
    /// way every term and source id is the one the from-scratch builder
    /// issued, and every prefix of every term completes as it does in
    /// the from-scratch store. The merged freezes are pinned structure
    /// for structure: every delta view serves what a from-scratch freeze
    /// of its own rows serves, and every compacted base (or shard) what
    /// the from-scratch build serves — the serve order, probability and
    /// prefix bits a sorted multiset cannot see.
    #[test]
    fn ingest_sequence_equals_from_scratch_rebuild(
        base_rows in store_strategy(6, 30),
        batches in proptest::collection::vec(plain_store_strategy(6, 10), 1..13),
        compact_after in 0usize..12,
        patterns in patterns_strategy(3, 6, 1..3),
        rules in rules_strategy(6),
        k in 1usize..12,
        anchors in (0u32..8, 0u32..6, 0u32..8),
    ) {
        let (s, p, o) = anchors;
        let compact_after = compact_after % batches.len();
        let nothing = HashSet::new();
        let base = || {
            let mut b = XkgBuilder::new();
            intern_universe(&mut b, 6);
            add_named_rows(&mut b, &base_rows, 0, "base", &nothing);
            b
        };
        let shift = |i: usize| (i % 3) as u32 * 2;
        let source = |i: usize| format!("batch{}", i % 5);
        // What the base holds once the mid-sequence compaction ran, and
        // which later rows therefore only queue absorbs.
        let mut compacted: HashSet<(u32, u32, u32)> =
            base_rows.iter().map(|r| (r.0, r.1, r.2)).collect();
        for (i, rows) in batches.iter().enumerate().take(compact_after + 1) {
            compacted.extend(rows.iter().map(|r| (r.0 + shift(i), r.1, r.2 + shift(i))));
        }
        let (mut live, mut full) = (base(), base());
        for (i, rows) in batches.iter().enumerate() {
            let withheld = if i > compact_after { &compacted } else { &nothing };
            add_named_rows(&mut live, rows, shift(i), &source(i), withheld);
            add_named_rows(&mut full, rows, shift(i), &source(i), &nothing);
        }
        let (live, full_rows) = (live.build(), full);
        let full = full_rows.clone().build();
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        let query = query_from(patterns, k);
        let (want_live, _) = topk::run(&live, &query, &set, &cfg);
        let (want_full, _) = topk::run(&full, &query, &set, &cfg);
        let shapes: Vec<SlotPattern> = (0u8..8)
            .map(|mask| SlotPattern::new(
                (mask & 1 != 0).then_some(tid(s)),
                (mask & 2 != 0).then_some(tid(p)),
                (mask & 4 != 0).then_some(tid(o)),
            ))
            .collect();

        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let mut seg = monolith(base().build_with(layout));
            for (i, rows) in batches.iter().enumerate() {
                seg.ingest(|b| add_named_rows(b, rows, shift(i), &source(i), &nothing));
                for (view, _) in seg.delta_slices() {
                    assert_same_structures(view, &refrozen(view), &shapes);
                }
                if i == compact_after {
                    seg.compact();
                }
            }
            assert_same_vocabulary(seg.vocab(), &live);
            prop_assert_eq!(seg.len(), live.len());
            for shape in &shapes {
                let got = scan_union(seg.segments().into_iter(), shape);
                prop_assert_eq!(got, scan_union(std::iter::once(&live), shape), "shape {}", shape);
            }
            assert_answers_score_equivalent(&run_mono_segmented(&seg, &query, &set, &cfg), &want_live);
            seg.compact();
            assert_same_vocabulary(seg.base(), &full);
            prop_assert_eq!(seg.base().len(), full.len());
            for (id, t) in full.iter() {
                prop_assert_eq!(seg.base().triple(id), t);
                prop_assert_eq!(seg.base().provenance(id), full.provenance(id));
            }
            assert_same_structures(seg.base(), &full_rows.clone().build_with(layout), &shapes);
            assert_answers_score_equivalent(&run_mono_segmented(&seg, &query, &set, &cfg), &want_full);
        }

        for shards in [1usize, 2, 4] {
            let mut sharded = ShardedStore::build(base(), shards);
            for (i, rows) in batches.iter().enumerate() {
                sharded.ingest(|b| add_named_rows(b, rows, shift(i), &source(i), &nothing));
                for (view, _) in sharded.delta_slices() {
                    assert_same_structures(view, &refrozen(view), &shapes);
                }
                if i == compact_after {
                    sharded.compact();
                }
            }
            assert_same_vocabulary(sharded.vocab(), &live);
            prop_assert_eq!(sharded.len(), live.len());
            for shape in &shapes {
                let got = scan_union(sharded.segments().into_iter(), shape);
                prop_assert_eq!(
                    got, scan_union(std::iter::once(&live), shape),
                    "shape {} at {} shards", shape, shards
                );
            }
            let run = ShardedExecutor::new(&sharded).run(&query, &set, &cfg);
            assert_answers_score_equivalent(&run.answers, &want_live);
            sharded.compact();
            assert_same_vocabulary(sharded.vocab(), &full);
            prop_assert_eq!(sharded.len(), full.len());
            for (id, t) in full.iter() {
                let home = &sharded.shards()[t.s.shard_of(shards)];
                let ground = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
                let local = home.lookup(&ground);
                prop_assert_eq!(local.len(), 1, "triple lost or duplicated");
                prop_assert_eq!(home.provenance(local[0]), full.provenance(id));
            }
            let rebuilt = ShardedStore::build(full_rows.clone(), shards);
            for (got, want) in sharded.shards().iter().zip(rebuilt.shards()) {
                assert_same_structures(got, want, &shapes);
            }
            let run = ShardedExecutor::new(&sharded).run(&query, &set, &cfg);
            assert_answers_score_equivalent(&run.answers, &want_full);
        }
    }

    /// The slice union (base shards + delta views) serves exactly the
    /// rebuilt store's match set — triples *and* weights — for all 8
    /// pattern shapes, and the cross-slice aggregates (`count`,
    /// `pattern_total`) agree with direct sums over the rebuilt store.
    #[test]
    fn slice_union_matches_rebuild_for_all_shapes(
        base_rows in store_strategy(6, 30),
        delta_rows in store_strategy(6, 12),
        s in 0u32..6,
        p in 0u32..6,
        o in 0u32..6,
    ) {
        use trinit_query::GlobalTotals;
        let fresh = fresh_rows(&base_rows, &delta_rows);
        let mut union_rows = base_rows.clone();
        union_rows.extend(fresh.iter().copied());
        let union = builder_from(&union_rows).build();
        for shards in [1usize, 2, 4, 7] {
            let mut sharded = ShardedStore::build(builder_from(&base_rows), shards);
            sharded.ingest(|b| add_rows(b, &fresh));
            for mask in 0u8..8 {
                let pattern = SlotPattern::new(
                    (mask & 1 != 0).then_some(tid(s)),
                    (mask & 2 != 0).then_some(tid(p)),
                    (mask & 4 != 0).then_some(tid(o)),
                );
                let mut got: Vec<(Triple, u64)> = sharded
                    .segments()
                    .into_iter()
                    .flat_map(|slice| {
                        slice.lookup(&pattern).iter().map(|&id| {
                            (slice.triple(id), slice.provenance(id).weight().to_bits())
                        }).collect::<Vec<_>>()
                    })
                    .collect();
                got.sort();
                let mut want: Vec<(Triple, u64)> = union
                    .lookup(&pattern)
                    .iter()
                    .map(|&id| (union.triple(id), union.provenance(id).weight().to_bits()))
                    .collect();
                want.sort();
                prop_assert_eq!(&got, &want, "shape {:#05b} at {} shards", mask, shards);
                prop_assert_eq!(sharded.count(&pattern), want.len());
                // Cross-slice totals are explicit for every shape while
                // a delta is live (subject co-location is broken), and
                // equal the rebuilt store's direct sums.
                if sharded.has_delta() {
                    let total = sharded
                        .pattern_total(&(pattern, 0))
                        .expect("explicit totals under a live delta");
                    let direct: f64 =
                        want.iter().map(|(_, w)| f64::from_bits(*w)).sum();
                    prop_assert!((total - direct).abs() < 1e-9, "shape {:#05b}", mask);
                }
            }
        }
    }

    /// The semi-naive delta-query seam: every answer of a
    /// delta-restricted run carries at least one freshly ingested
    /// triple in its derivation, and every full-run answer whose
    /// derivation uses fresh evidence is surfaced — with its full-run
    /// score — by the union of the per-pattern restricted runs.
    #[test]
    fn delta_restricted_runs_surface_exactly_the_fresh_answers(
        // Hub-free stores: k = 400 below must hold every answer.
        base_rows in plain_store_strategy(6, 30),
        delta_rows in plain_store_strategy(6, 12),
        patterns in proptest::collection::vec(pattern_strategy(3, 6), 1..3),
        rules in rules_strategy(6),
    ) {
        let mut fresh = fresh_rows(&base_rows, &delta_rows);
        // Guarantee at least one genuinely new fact (term 50 is outside
        // the generated universe) so every case exercises the seam.
        fresh.push((50, 0, 1, 0.5, 1));
        let set: RuleSet = rules.into_iter().collect();
        let cfg = TopkConfig::default();
        // k large enough to hold every answer of the tiny universe, so
        // no comparison trips over the k-cut.
        let query = query_from(patterns, 400);
        for shards in [2usize, 4] {
            let mut sharded = ShardedStore::build(builder_from(&base_rows), shards);
            sharded.ingest(|b| add_rows(b, &fresh));
            prop_assert!(sharded.has_delta());
            let base_total = (sharded.len() - sharded.delta_len()) as u32;
            let exec = ShardedExecutor::new(&sharded);
            let full = exec.run(&query, &set, &cfg);
            let mut introduced: BTreeMap<Vec<(VarId, Option<TermId>)>, f64> = BTreeMap::new();
            for j in 0..query.patterns.len() {
                let tracker = BudgetTracker::new(&cfg);
                let ctx = ExecCtx {
                    tracker: &tracker,
                    recorder: &mut TraceRecorder::off(),
                };
                let run = exec.merge(&query, &set, &cfg, Some(j), ctx);
                for a in run.answers {
                    prop_assert!(
                        a.derivation.triples.iter().any(|(_, id)| id.0 >= base_total),
                        "restricted answer must use a delta triple"
                    );
                    let entry = introduced.entry(a.key.clone()).or_insert(f64::NEG_INFINITY);
                    *entry = entry.max(a.score);
                }
            }
            for a in &full.answers {
                if a.derivation.triples.iter().any(|(_, id)| id.0 >= base_total) {
                    let got = introduced
                        .get(&a.key)
                        .expect("fresh-evidence answer missing from restricted union");
                    prop_assert!(
                        (got - a.score).abs() < 1e-9,
                        "restricted score diverges: {} vs {}",
                        got,
                        a.score
                    );
                }
            }
        }
    }
}

/// Re-observing a frozen base triple queues a pending provenance
/// absorb (no delta entry, no index rebuild); compaction applies it.
#[test]
fn reobserved_base_triple_absorbs_at_compaction() {
    let rows: Vec<Row> = (0..12).map(|i| (i, 0, i % 4, 0.8, 1)).collect();
    let mut sharded = ShardedStore::build(builder_from(&rows), 3);
    let frozen_len = sharded.len();
    let appended = sharded.ingest(|b| {
        b.add(
            Triple::new(tid(5), tid(0), tid(1)),
            Provenance::extraction(0.9, SourceId(0)),
        );
    });
    assert_eq!(appended, 0, "re-observation must not enter the delta");
    assert!(!sharded.has_delta());
    assert_eq!(sharded.pending_absorbs(), 1);
    assert_eq!(sharded.len(), frozen_len);
    assert_eq!(sharded.generation(), 1);
    sharded.compact();
    assert_eq!(sharded.generation(), 2);
    assert_eq!(sharded.pending_absorbs(), 0);
    assert_eq!(sharded.len(), frozen_len, "absorb adds no triple");
    let slot = SlotPattern::new(Some(tid(5)), Some(tid(0)), Some(tid(1)));
    let home = tid(5).shard_of(3);
    let ids = sharded.shards()[home].lookup(&slot);
    // Base row carried support 2; the re-observation adds its own 1.
    assert_eq!(sharded.shards()[home].provenance(ids[0]).support, 3);
}

/// Terms first interned by an ingest batch resolve through the delta's
/// superset vocabulary, and their global ids resolve to real triples.
#[test]
fn delta_vocabulary_and_global_ids_extend_the_base() {
    let rows: Vec<Row> = (0..10).map(|i| (i, 0, i % 3, 0.7, 1)).collect();
    let mut sharded = ShardedStore::build(builder_from(&rows), 2);
    let frozen_len = sharded.len();
    let appended = sharded.ingest(|b| {
        // Subject 77 is outside the frozen universe.
        b.add(
            Triple::new(tid(77), tid(0), tid(1)),
            Provenance::extraction(0.6, SourceId(0)),
        );
    });
    assert_eq!(appended, 1);
    assert!(sharded.has_delta());
    assert_eq!(sharded.len(), frozen_len + 1);
    let (view, offset) = sharded
        .delta_slices()
        .next()
        .expect("one non-empty delta view");
    assert_eq!(view.len(), 1);
    let (local, t) = view.iter().next().unwrap();
    assert_eq!(t.s, tid(77));
    let gid = trinit_xkg::TripleId(offset + local.0);
    assert_eq!(sharded.triple(gid), t);
    assert!(sharded.ground_holds(tid(77), tid(0), tid(1)));
    assert!(!sharded.ground_holds(tid(77), tid(0), tid(2)));
}
