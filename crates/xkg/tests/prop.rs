//! Property tests for the XKG store substrate.

use proptest::prelude::*;

use trinit_xkg::index::{Permutation, BLOCK};
use trinit_xkg::{
    Posting, PostingList, Provenance, SegmentLayout, SlotPattern, SourceId, TermDict, TermId,
    TermKind, Triple, TripleId, XkgBuilder, XkgStore,
};

/// Strategy: a small universe of term ids per kind.
fn term_id(kind: TermKind, universe: u32) -> impl Strategy<Value = TermId> {
    (0..universe).prop_map(move |i| TermId::new(kind, i))
}

fn triple(universe: u32) -> impl Strategy<Value = Triple> {
    (
        term_id(TermKind::Resource, universe),
        prop_oneof![
            term_id(TermKind::Resource, universe),
            term_id(TermKind::Token, universe)
        ],
        prop_oneof![
            term_id(TermKind::Resource, universe),
            term_id(TermKind::Token, universe),
            term_id(TermKind::Literal, universe)
        ],
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn builder_from(triples: &[(Triple, f32, u8)]) -> XkgBuilder {
    let mut b = XkgBuilder::new();
    for (t, conf, support) in triples {
        let mut prov = Provenance::extraction(*conf, SourceId(0));
        prov.support = u32::from(*support) + 1;
        b.add(*t, prov);
    }
    b
}

fn store_from(triples: &[(Triple, f32, u8)]) -> XkgStore {
    builder_from(triples).build()
}

/// Asserts two posting lists are bit-for-bit identical: same triples in
/// the same order, weights, probabilities, totals and every prefix sum
/// equal as raw f64 bits, not merely within an epsilon.
fn assert_lists_bit_identical(a: &PostingList, b: &PostingList, ctx: &str) {
    assert_eq!(a.len(), b.len(), "length differs: {ctx}");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.triple, y.triple, "order differs: {ctx}");
        assert_eq!(
            x.weight.to_bits(),
            y.weight.to_bits(),
            "weight bits differ: {ctx}"
        );
        assert_eq!(x.prob.to_bits(), y.prob.to_bits(), "prob bits differ: {ctx}");
    }
    assert_eq!(
        a.total_weight().to_bits(),
        b.total_weight().to_bits(),
        "total bits differ: {ctx}"
    );
    for upto in 0..=a.len() {
        assert_eq!(
            a.prefix_weight(upto).to_bits(),
            b.prefix_weight(upto).to_bits(),
            "prefix bits differ at {upto}: {ctx}"
        );
    }
}

proptest! {
    /// Every pattern shape answered through a permutation index returns
    /// exactly the triples a linear scan finds.
    #[test]
    fn index_lookup_equals_linear_scan(
        triples in proptest::collection::vec((triple(6), 0.01f32..1.0, 0u8..4), 0..60),
        s in proptest::option::of(term_id(TermKind::Resource, 6)),
        p in proptest::option::of(term_id(TermKind::Resource, 6)),
        o in proptest::option::of(term_id(TermKind::Resource, 6)),
    ) {
        let store = store_from(&triples);
        let pattern = SlotPattern::new(s, p, o);
        let mut got: Vec<u32> = store.lookup(&pattern).iter().map(|t| t.0).collect();
        got.sort_unstable();
        let mut want: Vec<u32> = store
            .iter()
            .filter(|(_, t)| pattern.matches(*t))
            .map(|(id, _)| id.0)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Deduplication: the store never holds two identical (s,p,o) rows,
    /// and merged support equals the number of insertions.
    #[test]
    fn dedup_preserves_support_total(
        triples in proptest::collection::vec((triple(3), 0.01f32..1.0, 0u8..1), 1..40),
    ) {
        let store = store_from(&triples);
        let mut seen = std::collections::HashSet::new();
        let mut support_total = 0u32;
        for (id, t) in store.iter() {
            prop_assert!(seen.insert(t), "duplicate triple in store");
            support_total += store.provenance(id).support;
        }
        prop_assert_eq!(support_total as usize, triples.len());
    }

    /// Posting lists are sorted descending and their probabilities form a
    /// distribution over the pattern's matches.
    #[test]
    fn posting_probabilities_are_a_distribution(
        triples in proptest::collection::vec((triple(5), 0.01f32..1.0, 0u8..4), 1..50),
        p in term_id(TermKind::Resource, 5),
    ) {
        let store = store_from(&triples);
        let list = trinit_xkg::PostingList::build(&store, &SlotPattern::with_p(p));
        let probs: Vec<f64> = list.entries().iter().map(|e| e.prob).collect();
        prop_assert!(probs.windows(2).all(|w| w[0] >= w[1]));
        if !probs.is_empty() {
            let sum: f64 = probs.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    /// Dictionary interning round-trips arbitrary strings.
    #[test]
    fn dict_roundtrip(words in proptest::collection::vec("[a-zA-Z0-9 ']{1,20}", 1..30)) {
        let mut dict = TermDict::new();
        let ids: Vec<(TermId, String)> = words
            .iter()
            .map(|w| (dict.token(w), w.clone()))
            .collect();
        for (id, w) in &ids {
            prop_assert_eq!(dict.resolve(*id), Some(w.as_str()));
            prop_assert_eq!(dict.get(TermKind::Token, w), Some(*id));
        }
    }

    /// Counting equals the lookup length for all eight shapes on both
    /// layouts (a predicate-only count reads the posting directory, every
    /// other shape its permutation range).
    #[test]
    fn count_is_consistent(
        triples in proptest::collection::vec((triple(4), 0.5f32..1.0, 0u8..1), 0..40),
        s in term_id(TermKind::Resource, 4),
        p in term_id(TermKind::Resource, 4),
        o in term_id(TermKind::Resource, 4),
    ) {
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let store = builder_from(&triples).build_with(layout);
            for mask in 0u8..8 {
                let pattern = SlotPattern::new(
                    (mask & 1 != 0).then_some(s),
                    (mask & 2 != 0).then_some(p),
                    (mask & 4 != 0).then_some(o),
                );
                prop_assert_eq!(
                    store.count(&pattern),
                    store.lookup(&pattern).len(),
                    "shape {:#05b} on {:?}",
                    mask,
                    layout
                );
            }
        }
    }

    /// The columnar lookup and the posting-index slices agree with a
    /// linear scan for **all 8 pattern shapes**: same match set, and the
    /// posting list's scores are exactly the linear scan's weights.
    #[test]
    fn columnar_lookup_and_postings_agree_with_linear_scan_all_shapes(
        triples in proptest::collection::vec((triple(5), 0.01f32..1.0, 0u8..4), 0..60),
        s in term_id(TermKind::Resource, 5),
        p in term_id(TermKind::Resource, 5),
        o in term_id(TermKind::Resource, 5),
    ) {
        let store = store_from(&triples);
        for mask in 0u8..8 {
            let pattern = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let mut want: Vec<u32> = store
                .iter()
                .filter(|(_, t)| pattern.matches(*t))
                .map(|(id, _)| id.0)
                .collect();
            want.sort_unstable();

            // Columnar permutation lookup.
            let mut got: Vec<u32> = store.lookup(&pattern).iter().map(|t| t.0).collect();
            got.sort_unstable();
            prop_assert_eq!(&got, &want, "lookup disagrees for shape {:#05b}", mask);

            // Posting list over the same pattern (borrowed slice for the
            // predicate-only and unbound shapes, materialized otherwise).
            let list = trinit_xkg::PostingList::build(&store, &pattern);
            let mut posting_ids: Vec<u32> = list.entries().iter().map(|e| e.triple.0).collect();
            posting_ids.sort_unstable();
            prop_assert_eq!(&posting_ids, &want, "postings disagree for shape {:#05b}", mask);
            for e in list.iter() {
                let w = store.provenance(e.triple).weight();
                prop_assert!((e.weight - w).abs() < 1e-12, "weight mismatch");
            }
        }
    }

    /// Posting order is identical to the seed implementation's: the full
    /// match set sorted by descending weight with ties broken by ascending
    /// triple id, and probabilities `weight / total` with the total over
    /// the whole match set.
    #[test]
    fn posting_order_matches_seed_reference(
        triples in proptest::collection::vec((triple(5), 0.01f32..1.0, 0u8..4), 0..60),
        p in proptest::option::of(term_id(TermKind::Resource, 5)),
    ) {
        let store = store_from(&triples);
        let pattern = SlotPattern::new(None, p, None);
        // Reference: the seed's per-query materialize-and-sort.
        let mut reference: Vec<(u32, f64)> = store
            .lookup(&pattern)
            .iter()
            .map(|&id| (id.0, store.provenance(id).weight()))
            .collect();
        let total: f64 = reference.iter().map(|(_, w)| w).sum();
        reference.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

        let list = trinit_xkg::PostingList::build(&store, &pattern);
        prop_assert_eq!(list.len(), reference.len());
        for (e, (id, w)) in list.entries().iter().zip(&reference) {
            prop_assert_eq!(e.triple.0, *id, "order differs from seed implementation");
            prop_assert!((e.weight - w).abs() < 1e-12);
            let expect_prob = if total > 0.0 { w / total } else { 0.0 };
            prop_assert!((e.prob - expect_prob).abs() < 1e-9, "prob differs: {} vs {}", e.prob, expect_prob);
        }
        prop_assert!((list.total_weight() - total).abs() < 1e-9);
    }

    /// Prefix-summed weights agree with direct summation at every depth.
    #[test]
    fn prefix_weights_agree_with_direct_sums(
        triples in proptest::collection::vec((triple(4), 0.01f32..1.0, 0u8..4), 0..40),
        p in proptest::option::of(term_id(TermKind::Resource, 4)),
    ) {
        let store = store_from(&triples);
        let pattern = SlotPattern::new(None, p, None);
        let list = trinit_xkg::PostingList::build(&store, &pattern);
        for upto in 0..=list.len() {
            let direct: f64 = list.entries()[..upto].iter().map(|e| e.weight).sum();
            prop_assert!((list.prefix_weight(upto) - direct).abs() < 1e-9);
        }
    }

    /// The precomputed index serves **all 8 pattern shapes**
    /// entry-for-entry equal to the pre-index materialize-and-sort
    /// reference: same triples in the same order, the same probabilities
    /// and prefix sums, the same totals — including zero-weight facts
    /// (zero-mass match sets serve empty on both paths).
    #[test]
    fn anchored_index_equals_scan_reference_all_shapes(
        triples in proptest::collection::vec(
            (
                triple(5),
                // ~20% exact zero-weight facts to exercise massless
                // groups (the shim has no `Just`, so map a range).
                (0.0f32..1.0).prop_map(|c| if c < 0.2 { 0.0 } else { c }),
                0u8..4,
            ),
            0..60,
        ),
        s in term_id(TermKind::Resource, 5),
        p in term_id(TermKind::Resource, 5),
        o in term_id(TermKind::Resource, 5),
    ) {
        let store = store_from(&triples);
        for mask in 0u8..8 {
            let pattern = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let indexed = trinit_xkg::PostingList::build(&store, &pattern);
            let reference = trinit_xkg::PostingList::build_by_scan(&store, &pattern);
            prop_assert_eq!(
                indexed.len(),
                reference.len(),
                "length differs for shape {:#05b}",
                mask
            );
            for (a, b) in indexed.iter().zip(reference.iter()) {
                prop_assert_eq!(a.triple, b.triple, "order differs for shape {:#05b}", mask);
                prop_assert_eq!(a.weight, b.weight, "weight differs for shape {:#05b}", mask);
                prop_assert!(
                    (a.prob - b.prob).abs() <= 1e-12,
                    "prob differs for shape {:#05b}: {} vs {}",
                    mask, a.prob, b.prob
                );
            }
            prop_assert!(
                (indexed.total_weight() - reference.total_weight()).abs() < 1e-9,
                "total differs for shape {:#05b}",
                mask
            );
            for upto in 0..=indexed.len() {
                prop_assert!(
                    (indexed.prefix_weight(upto) - reference.prefix_weight(upto)).abs() < 1e-9,
                    "prefix sum differs for shape {:#05b} at {}",
                    mask, upto
                );
            }
            // The borrowed anchored slices never allocate or sort; the
            // composite shapes filter (one allocation); nothing scans.
            prop_assert!(
                indexed.serve_kind() != trinit_xkg::ServeKind::Scanned,
                "engine-facing build must never sort"
            );
        }
    }

    /// Per-stratum counts (now frozen at build time) match a full scan.
    #[test]
    fn stratum_counts_match_scan(
        triples in proptest::collection::vec((triple(4), 0.01f32..1.0, 0u8..2), 0..40),
        kg_every in 2usize..5,
    ) {
        let mut b = XkgBuilder::new();
        for (i, (t, conf, support)) in triples.iter().enumerate() {
            if i % kg_every == 0 {
                b.add(*t, Provenance::kg());
            } else {
                let mut prov = Provenance::extraction(*conf, SourceId(0));
                prov.support = u32::from(*support) + 1;
                b.add(*t, prov);
            }
        }
        let store = b.build();
        let kg_scan = store
            .iter()
            .filter(|(id, _)| store.provenance(*id).graph == trinit_xkg::GraphTag::Kg)
            .count();
        prop_assert_eq!(store.len_of(trinit_xkg::GraphTag::Kg), kg_scan);
        prop_assert_eq!(
            store.len_of(trinit_xkg::GraphTag::Xkg),
            store.len() - kg_scan
        );
    }
}

proptest! {
    /// The `ServeKind::Range` cutover rule — materialize and order the
    /// permutation index's exact match range when it holds at most one
    /// block of matches or is ≥4× smaller than every covering group —
    /// selects only *how* a composite shape is served, never *what*: the
    /// served entries are bit-for-bit the scan reference's either way,
    /// and the chosen kind follows the rule exactly (so the engine-level
    /// `ranged_serves` vs `anchored_serves` accounting is the rule's only
    /// observable). A hub fan-out of up to 300 puts the sp shape on both
    /// sides of the one-block boundary.
    #[test]
    fn range_cutover_changes_accounting_not_contents(
        triples in proptest::collection::vec(
            (triple(8), 0.01f32..1.0, 0u8..4),
            0..80,
        ),
        hub_fanout in 1usize..300,
        s in term_id(TermKind::Resource, 8),
        p in term_id(TermKind::Resource, 8),
        o in term_id(TermKind::Resource, 8),
    ) {
        // Concentrate extra triples on one (subject, predicate) hub so
        // composite probes meet large covering groups.
        let mut rows = triples.clone();
        for i in 0..hub_fanout {
            rows.push((
                Triple::new(s, p, TermId::new(TermKind::Resource, 100 + i as u32)),
                0.5,
                1,
            ));
        }
        let store = store_from(&rows);
        // The four composite shapes (≥2 bound slots): sp, so, po, spo.
        for mask in [0b011u8, 0b101, 0b110, 0b111] {
            let pattern = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let matches = store.lookup(&pattern).len();
            // The smallest covering already-sorted group, exactly as the
            // serving path considers them.
            let mut group: Option<usize> = None;
            let mut consider = |len: usize| {
                if group.is_none_or(|g| len < g) {
                    group = Some(len);
                }
            };
            if mask & 1 != 0 {
                consider(store.count(&SlotPattern::new(Some(s), None, None)));
            }
            if mask & 4 != 0 {
                consider(store.count(&SlotPattern::new(None, None, Some(o))));
            }
            if mask & 2 != 0 {
                consider(store.posting_index().predicate_group_len(p));
            }
            let group = group.expect("composite shapes bind a slot");

            let list = trinit_xkg::PostingList::build(&store, &pattern);
            if matches == 0 {
                prop_assert_eq!(list.len(), 0, "shape {:#05b}", mask);
                continue;
            }
            let expect_range = matches <= BLOCK || matches * 4 <= group;
            prop_assert_eq!(
                list.serve_kind() == trinit_xkg::ServeKind::Range,
                expect_range,
                "cutover rule mismatch for shape {:#05b}: {} matches vs group {}",
                mask, matches, group
            );

            // Contents are the scan reference's, bit for bit, on both
            // sides of the rule.
            let reference = trinit_xkg::PostingList::build_by_scan(&store, &pattern);
            prop_assert_eq!(list.entries(), reference.entries(), "shape {:#05b}", mask);
            prop_assert_eq!(
                list.total_weight().to_bits(),
                reference.total_weight().to_bits(),
                "total differs, shape {:#05b}",
                mask
            );
        }
    }
}

proptest! {
    /// Sharded builds serve the same answers regardless of layout: for
    /// every shard count in {1, 2, 4, 7} and **all 8 pattern shapes**,
    /// a `Packed` shard serves bit-for-bit what its `Flat` twin serves —
    /// same triples, weights, probabilities, totals and prefix sums.
    #[test]
    fn packed_shards_equal_flat_shards_all_shapes(
        triples in proptest::collection::vec((triple(6), 0.01f32..1.0, 0u8..4), 0..80),
        s in term_id(TermKind::Resource, 6),
        p in term_id(TermKind::Resource, 6),
        o in term_id(TermKind::Resource, 6),
    ) {
        for shards in [1usize, 2, 4, 7] {
            let flat = builder_from(&triples).build_sharded(shards);
            let packed =
                builder_from(&triples).build_sharded_with(shards, SegmentLayout::Packed);
            prop_assert_eq!(flat.len(), shards);
            prop_assert_eq!(packed.len(), shards);
            for (i, (f, q)) in flat.iter().zip(&packed).enumerate() {
                prop_assert!(f.layout().is_flat());
                prop_assert!(!q.layout().is_flat());
                prop_assert_eq!(f.len(), q.len(), "shard {} sizes differ", i);
                for mask in 0u8..8 {
                    let pattern = SlotPattern::new(
                        (mask & 1 != 0).then_some(s),
                        (mask & 2 != 0).then_some(p),
                        (mask & 4 != 0).then_some(o),
                    );
                    let fl = PostingList::build(f, &pattern);
                    let pl = PostingList::build(q, &pattern);
                    assert_lists_bit_identical(
                        &fl,
                        &pl,
                        &format!("{shards} shards, shard {i}, shape {mask:#05b}"),
                    );
                }
            }
        }
    }

    /// Quantized weight codes never perturb ranking on the pools that
    /// stress them most: tie-heavy pools (few distinct weights, many
    /// repeats — code collisions guaranteed) and extreme-magnitude pools
    /// (weights spanning ~1e-30 to ~1e35, outside the code's well-
    /// resolved band). Packed serves bit-for-bit what Flat serves.
    #[test]
    fn quantized_ranking_survives_ties_and_extremes(
        tie_rows in proptest::collection::vec((triple(4), 0u8..3, 0u8..2), 1..60),
        extreme_rows in proptest::collection::vec((triple(4), 0u8..5, 0u8..4), 1..40),
        p in term_id(TermKind::Resource, 4),
    ) {
        // Tie-heavy: confidences drawn from three exact values so many
        // entries share a weight and therefore a quantized code.
        let ties: Vec<(Triple, f32, u8)> = tie_rows
            .iter()
            .map(|&(t, lvl, sup)| (t, [0.25f32, 0.5, 1.0][lvl as usize], sup))
            .collect();
        // Extreme magnitudes: confidences from 1e-30 up to 1e35, well
        // past the log-domain band the u16 code resolves cleanly.
        let extremes: Vec<(Triple, f32, u8)> = extreme_rows
            .iter()
            .map(|&(t, lvl, sup)| {
                (t, [1e-30f32, 1e-9, 1.0, 1e9, 1e35][lvl as usize], sup)
            })
            .collect();
        for (pool, name) in [(&ties, "ties"), (&extremes, "extremes")] {
            let flat = builder_from(pool).build();
            let packed = builder_from(pool).build_with(SegmentLayout::Packed);
            for pattern in [SlotPattern::any(), SlotPattern::with_p(p)] {
                let fl = PostingList::build(&flat, &pattern);
                let pl = PostingList::build(&packed, &pattern);
                assert_lists_bit_identical(&fl, &pl, name);
            }
        }
    }
}

/// Rows of a store several blocks long with skewed keys. The planted
/// slot's five smallest terms key groups of 128, 1, 127, 129 and `hub`
/// rows, in that order, so in that slot's permutation the first and
/// third end on a block boundary. The other two slots of a planted row
/// draw from wide and narrow pools, and every filler term is drawn
/// squared, so a few terms own most rows (filler ids never collide with
/// the planted keys). Confidences span ten orders of magnitude, so
/// prefix sums round: a replay from the wrong anchor changes their bits.
fn multi_block_rows(
    planted: usize,
    hub: u32,
    filler: &[((u32, u32, u32), f32)],
) -> Vec<(Triple, f32, u8)> {
    let term = |i: u32| TermId::new(TermKind::Resource, i);
    let mut rows = Vec::new();
    let mut row = 0u32;
    for (key, size) in [128, 1, 127, 129, hub].into_iter().enumerate() {
        for _ in 0..size {
            let mut spo = [term(1000 + row), term(2000 + row % 13), term(3000 + row % 41)];
            spo.rotate_right(planted);
            spo[planted] = term(key as u32);
            let conf = 1e-6 + ((row * 7919) % 1000) as f32 / 1000.0;
            let conf = conf.powi(5);
            rows.push((Triple::new(spo[0], spo[1], spo[2]), conf, (row % 3) as u8));
            row += 1;
        }
    }
    let skewed = |x: u32| term(10 + x * x / 37);
    for &((s, p, o), conf) in filler {
        let triple = Triple::new(skewed(s), skewed(p % 20), skewed(o));
        rows.push((triple, conf.powi(5), 0));
    }
    rows
}

/// Every triple's key under each permutation, with its id, sorted: the
/// reference [`reference_range`] cuts.
fn sorted_keys(store: &XkgStore) -> [Vec<([TermId; 3], TripleId)>; 3] {
    Permutation::ALL.map(|perm| {
        let mut rows: Vec<_> = store.iter().map(|(id, t)| (perm.key(t), id)).collect();
        rows.sort_unstable();
        rows
    })
}

/// `pattern`'s matches as the index must find them: the sorted keys of
/// the pattern's permutation, cut to the rows whose key starts with the
/// pattern's bound terms by two `partition_point`s.
fn reference_range(
    keys: &[Vec<([TermId; 3], TripleId)>; 3],
    pattern: &SlotPattern,
) -> Vec<TripleId> {
    let perm = Permutation::for_pattern(pattern);
    let rows = &keys[perm as usize];
    let unbound = TermId::from_raw(0);
    let probe = Triple::new(
        pattern.s.unwrap_or(unbound),
        pattern.p.unwrap_or(unbound),
        pattern.o.unwrap_or(unbound),
    );
    let len = usize::from(pattern.bound_count());
    let prefix = &perm.key(probe)[..len];
    let lo = rows.partition_point(|(key, _)| &key[..len] < prefix);
    let hi = rows.partition_point(|(key, _)| &key[..len] <= prefix);
    rows[lo..hi].iter().map(|&(_, id)| id).collect()
}

/// The shapes a multi-block check probes: every planted key and two
/// absent terms in each single-slot shape, and all eight shapes over
/// every 5th triple's terms.
fn multi_block_shapes(store: &XkgStore) -> Vec<SlotPattern> {
    let mut shapes = Vec::new();
    for i in (0..5).chain([5, 999_999]) {
        let t = Some(TermId::new(TermKind::Resource, i));
        shapes.push(SlotPattern::new(t, None, None));
        shapes.push(SlotPattern::new(None, t, None));
        shapes.push(SlotPattern::new(None, None, t));
    }
    for (_, t) in store.iter().step_by(5) {
        for mask in 0u8..8 {
            shapes.push(SlotPattern::new(
                (mask & 1 != 0).then_some(t.s),
                (mask & 2 != 0).then_some(t.p),
                (mask & 4 != 0).then_some(t.o),
            ));
        }
    }
    shapes
}

/// An entry's bits, so that equal floats compare equal only bit for bit.
fn bits(p: Option<Posting>) -> Option<(TripleId, u64, u64)> {
    p.map(|p| (p.triple, p.weight.to_bits(), p.prob.to_bits()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over stores several blocks long, a range lookup finds exactly the
    /// rows a `partition_point` reference over the sorted permutation
    /// does, on both layouts: groups of 0, 1, 127, 128, 129 and hundreds
    /// of rows, ranges ending on a block boundary and at the table end,
    /// and every composite shape. `count` is that range's length.
    #[test]
    fn multi_block_ranges_equal_the_partition_point_reference(
        planted in 0usize..3,
        hub in 200u32..500,
        filler in proptest::collection::vec(((0u32..60, 0u32..60, 0u32..60), 0.01f32..1.0), 0..600),
    ) {
        let rows = multi_block_rows(planted, hub, &filler);
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let store = builder_from(&rows).build_with(layout);
            let keys = sorted_keys(&store);
            for pattern in multi_block_shapes(&store) {
                let want = reference_range(&keys, &pattern);
                prop_assert_eq!(&store.lookup(&pattern)[..], &want[..], "{} on {:?}", pattern, layout);
                prop_assert_eq!(store.count(&pattern), want.len(), "{} on {:?}", pattern, layout);
            }
        }
    }

    /// A `Packed` group served in place is the `Flat` list bit for bit
    /// under any interleaving of cursor reads (`peek`, `next_posting`,
    /// runs of pulls), remaining weights, restriction locates of present
    /// and absent entries, and restriction scans — across block
    /// boundaries, for every single-slot group shape.
    #[test]
    fn packed_views_equal_flat_lists_under_interleaved_reads(
        planted in 0usize..3,
        hub in 200u32..500,
        filler in proptest::collection::vec(((0u32..60, 0u32..60, 0u32..60), 0.01f32..1.0), 0..600),
        ops in proptest::collection::vec((0u8..6, 0u32..1000), 1..120),
    ) {
        let rows = multi_block_rows(planted, hub, &filler);
        let flat = builder_from(&rows).build();
        let packed = builder_from(&rows).build_with(SegmentLayout::Packed);
        let mut seen = std::collections::HashSet::new();
        let mut shapes = vec![SlotPattern::any()];
        let single = multi_block_shapes(&flat).into_iter().filter(|s| s.bound_count() == 1);
        shapes.extend(single.filter(|&s| seen.insert(s)));
        for pattern in shapes {
            let mut fl = PostingList::build(&flat, &pattern);
            let mut pk = PostingList::build(&packed, &pattern);
            prop_assert_eq!(pk.len(), fl.len(), "{}", pattern);
            prop_assert_eq!(pk.total_weight().to_bits(), fl.total_weight().to_bits(), "{}", pattern);
            let entries = fl.entries().into_owned();
            for &(op, arg) in &ops {
                match op {
                    0 => prop_assert_eq!(bits(pk.peek()), bits(fl.peek()), "{}", pattern),
                    1 => prop_assert_eq!(bits(pk.next_posting()), bits(fl.next_posting()), "{}", pattern),
                    2 => for _ in 0..arg % 64 {
                        prop_assert_eq!(bits(pk.next_posting()), bits(fl.next_posting()), "{}", pattern);
                    },
                    3 => prop_assert_eq!(
                        pk.remaining_weight().to_bits(),
                        fl.remaining_weight().to_bits(),
                        "{} after {}", pattern, fl.consumed()
                    ),
                    4 => {
                        // Any entry, consumed or not, or one no list holds.
                        let target = entries.get(arg as usize % (entries.len() + 1)).copied();
                        let (id, weight) = target.map_or((TripleId(arg), 0.5), |e| (e.triple, e.weight));
                        prop_assert_eq!(bits(pk.locate(id, weight)), bits(fl.locate(id, weight)), "{}", pattern);
                    }
                    _ => {
                        let keep = |id: TripleId| id.0 % 3 == arg % 3;
                        let got: Vec<_> = pk.select(keep).map(Some).map(bits).collect();
                        let want: Vec<_> = fl.select(keep).map(Some).map(bits).collect();
                        prop_assert_eq!(got, want, "{}", pattern);
                    }
                }
            }
            prop_assert_eq!(
                pk.remaining_weight().to_bits(),
                fl.remaining_weight().to_bits(),
                "{} at the end", pattern
            );
        }
    }
}
