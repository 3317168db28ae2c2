//! Score-sorted posting lists for triple patterns.
//!
//! The paper's top-k processor (§4) requires *sorted access* to the matches
//! of each triple pattern: "top-k query processing is based on the ability
//! to access answers for a triple pattern in sorted order of their scores".
//!
//! # Precomputed posting index
//!
//! The store freezes a [`PostingIndex`] at build time — the paper's
//! "triple pattern index lists" made literal:
//!
//! * **Per predicate**: every triple, grouped by predicate, each group
//!   ordered by descending emission weight (`support × confidence`) with
//!   ties broken by triple id, probabilities pre-normalized over the
//!   group, and prefix-summed weights for O(1) weight-of-prefix queries.
//! * **Per subject / per object (anchored strata)**: the same layout
//!   grouped by subject and by object, serving the anchored pattern
//!   shapes relationship queries hammer. The groups appear in ascending
//!   anchor-term order — exactly the primary-key order of the SPO
//!   (subject) and OSP (object) permutation columns in
//!   [`crate::index::TripleIndex`] — so a group's span is recovered from
//!   the permutation's binary-searched range (the storage sharing that
//!   keeps the anchored strata from duplicating the predicate stratum's
//!   group directory).
//! * **Unbound-predicate stratum**: one global list of all triples in the
//!   same order, normalized over the whole store, serving patterns that
//!   bind no slot at all.
//!
//! # Stratum layouts
//!
//! Each stratum stores its entries in the segment's
//! [`crate::pack::SegmentLayout`]:
//!
//! * **Flat** — `Vec<Posting>` (24 B/entry) plus a globally cumulative
//!   `f64` prefix-sum column (8 B/entry): borrowed slices at serve time,
//!   zero allocation.
//! * **Packed** — the triple ids bit-packed at fixed width
//!   (`ceil_log2(n)` bits), the weights as **u16 log-domain quantization
//!   codes**, and an exact-`f64` scaffolding that keeps every served
//!   score bit-identical to Flat: prefix-sum *checkpoints* at every
//!   128-entry block boundary, plus each group's exact build-time total
//!   and start prefix. A group is served as a view that decodes an entry
//!   only when a cursor reaches it or a search probes it: its weight is
//!   recomputed exactly from the retained [`Provenance`] (the same
//!   `support × confidence` product the build evaluated) and its
//!   probability divides by the stored exact group total (same operands
//!   → same floats). The u16 codes are the stratum's stored weight
//!   column — 4× smaller than the two `f64`s they replace and monotone
//!   in weight, so they preserve ranking on their own; the exact
//!   scaffolding restores the scores as entries are read.
//!
//! A list's remaining weight is its total minus the weights its cursor
//! consumed, summed in list order onto the exact build-time prefix at
//! its group's start — the same additions in the same order as the
//! build, so every remaining weight is the Flat prefix column's, bit for
//! bit, in either layout, and O(1) per pull.
//!
//! [`PostingList::build`] therefore answers **every** pattern shape
//! without sorting: predicate-only, fully unbound, subject-only, and
//! object-only patterns are served **in place** — borrowed slices on
//! Flat segments, lazy views on Packed ones. The composite shapes (sp,
//! po, so, ground) find their exact permutation range with one search: a
//! range of at most one block (128 matches) is decoded and weight-ordered
//! on its own, a larger one filters the smallest covering group — already
//! score-sorted, so the single allocated pass preserves order — unless
//! the range is ≥ 4× smaller than that group. The pre-index
//! materialize-and-sort path survives only as
//! [`PostingList::build_by_scan`], the reference
//! implementation property tests and benchmarks compare against.
//!
//! # Float edges
//!
//! Weights are validated at ingestion ([`crate::store::XkgBuilder`]
//! rejects or sanitizes non-finite confidences), and every comparison in
//! here uses `f64::total_cmp` — a NaN that slipped through cannot panic
//! the build. Groups whose total emission weight is zero serve **empty**
//! lists: a zero-mass match set emits nothing in any engine, so the
//! rank-join head bound of 0 the precomputed index reports for such
//! groups is exact rather than a trap for the tightened threshold.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::index::{merge_runs, BLOCK};
use crate::pack::{PackedInts, SegmentLayout};
use crate::pattern::SlotPattern;
use crate::store::{run_jobs, XkgStore};
use crate::term::TermId;
use crate::triple::{Provenance, Triple, TripleId};

/// A single scored entry of a posting list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The matching triple.
    pub triple: TripleId,
    /// Raw emission weight (`support × confidence`).
    pub weight: f64,
    /// Normalized emission probability `weight / total_weight` of the
    /// pattern. In `(0, 1]`; all probabilities of a list sum to 1 (unless
    /// the list is empty).
    pub prob: f64,
}

/// One predicate's contiguous range in the posting index.
#[derive(Debug, Clone, Copy)]
struct Group {
    start: u32,
    end: u32,
    total_weight: f64,
}

/// How [`PostingList::build`] served a pattern — the observability hook
/// behind the query layer's `ExecMetrics` anchored-serve counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// Served in place from the per-predicate stratum (zero allocation).
    Predicate,
    /// Served in place from the global unbound stratum (zero allocation).
    Unbound,
    /// Served in place from the subject-anchored stratum (zero
    /// allocation).
    Subject,
    /// Served in place from the object-anchored stratum (zero
    /// allocation).
    Object,
    /// The smallest covering index group filtered by the remaining bound
    /// slots: one allocation, zero sorts (the group is already ordered).
    Filtered,
    /// A selective composite shape: the permutation index's exact match
    /// range, materialized and weight-ordered. Chosen when that range
    /// holds at most one block of matches, or is far smaller than every
    /// covering group (e.g. a ground pattern over three hub terms), where
    /// ordering O(matches) entries beats walking a group that may be
    /// arbitrarily larger.
    Range,
    /// Materialized from the permutation range and sorted — the pre-index
    /// reference path ([`PostingList::build_by_scan`]); never produced by
    /// [`PostingList::build`].
    Scanned,
    /// Wrapped externally materialized entries (cache shares and the
    /// query layer's filtered views).
    External,
}

impl ServeKind {
    /// True for lists served from the anchored (subject/object) strata,
    /// including the filtered composite shapes.
    pub fn is_anchored(self) -> bool {
        matches!(
            self,
            ServeKind::Subject | ServeKind::Object | ServeKind::Filtered
        )
    }

    /// True for the zero-allocation in-place serves of the precomputed
    /// index (borrowed slices on Flat, lazy views on Packed).
    pub fn is_borrowed(self) -> bool {
        matches!(
            self,
            ServeKind::Predicate | ServeKind::Unbound | ServeKind::Subject | ServeKind::Object
        )
    }
}

/// Quantizes a weight into its u16 log-domain code: 0 for non-positive
/// weights, else `1 + round((ln(w) + 110) / 135 · 65534)` clamped into
/// `[1, 65535]`. Monotone (non-strict) in `w` over the entire finite
/// range the builder admits, so code order never contradicts weight
/// order; resolution is ~0.002 in `ln(w)` (≈0.2% relative weight).
pub(crate) fn quantize_weight(w: f64) -> u16 {
    if w.is_nan() || w <= 0.0 {
        return 0;
    }
    let scaled = (w.ln() + 110.0) / 135.0 * 65534.0;
    let code = 1.0 + scaled.round();
    code.clamp(1.0, 65535.0) as u16
}

/// The slot each stratum groups by, in [`PostingIndex`] order: predicate,
/// subject, object, and none for the global stratum.
const GROUP_SLOT: [Option<usize>; 4] = [Some(1), Some(0), Some(2), None];
const PRED: usize = 0;
const SUBJ: usize = 1;
const OBJ: usize = 2;
const ALL: usize = 3;

/// One stratum under construction: entries in (key, weight desc, id asc)
/// order with globally cumulative prefix sums, and each key run's
/// `(start, exact total)` bound and key.
struct StratumBuild {
    entries: Vec<Posting>,
    prefix: Vec<f64>,
    bounds: Vec<(u32, f64)>,
    keys: Vec<TermId>,
}

/// A stratum entry packed into an integer whose order is the stratum
/// order: the raw group key in the high 32 bits, then the weight
/// descending under `total_cmp`, then the triple id in the low 32.
fn entry_key(group: u32, weight: f64, id: u32) -> u128 {
    let bits = weight.to_bits();
    let flip = if bits >> 63 == 1 { u64::MAX } else { 1 << 63 };
    u128::from(group) << 96 | u128::from(!(bits ^ flip)) << 32 | u128::from(id)
}

/// The weight [`entry_key`] packed, bit for bit.
fn entry_weight(key: u128) -> f64 {
    let order = !((key >> 32) as u64);
    let flip = if order >> 63 == 1 { 1 << 63 } else { u64::MAX };
    f64::from_bits(order ^ flip)
}

/// The post-sort pass: lays out a stratum from its entry keys in order,
/// normalizing each group's run over its own total — or, for the global
/// stratum, over `store_total`. Run totals accumulate in stratum order,
/// so a probability here is bit-identical to what the reference scan
/// path computes for the same match set.
fn lay_out(order: &[u128], store_total: Option<f64>) -> StratumBuild {
    let n = order.len();
    let mut entries: Vec<Posting> = Vec::with_capacity(n);
    let mut prefix: Vec<f64> = Vec::with_capacity(n + 1);
    let mut acc = 0.0f64;
    prefix.push(acc);
    let (mut bounds, mut keys) = (Vec::new(), Vec::new());
    for run in order.chunk_by(|a, b| a >> 96 == b >> 96) {
        let start = entries.len();
        let mut total = 0.0f64;
        for &key in run {
            let weight = entry_weight(key);
            total += weight;
            entries.push(Posting {
                triple: TripleId(key as u32),
                weight,
                prob: 0.0,
            });
            acc += weight;
            prefix.push(acc);
        }
        let total = store_total.unwrap_or(total);
        for e in &mut entries[start..] {
            e.prob = if total > 0.0 { e.weight / total } else { 0.0 };
        }
        bounds.push((start as u32, total));
        keys.push(TermId::from_raw((run[0] >> 96) as u32));
    }
    StratumBuild {
        entries,
        prefix,
        bounds,
        keys,
    }
}

/// One stratum's frozen storage, in the segment's layout.
#[derive(Debug)]
enum StratumData {
    /// Borrowable entry + prefix columns (32 B/entry).
    Flat { entries: Vec<Posting>, prefix: Vec<f64> },
    /// Packed ids + quantized weight codes + exact scaffolding.
    Packed(PackedStratum),
}

/// An empty Flat stratum: no entries, and the one leading prefix sum.
impl Default for StratumData {
    fn default() -> StratumData {
        StratumData::Flat {
            entries: Vec::new(),
            prefix: vec![0.0],
        }
    }
}

/// A stratum in the Packed layout. See the module docs for the
/// exactness argument: quantized codes store the weights, the exact
/// `f64` scaffolding (block checkpoints + group totals and start
/// prefixes, with weights recomputed from retained provenance) restores
/// bit-identical scores as each entry is read.
#[derive(Debug)]
struct PackedStratum {
    /// Triple ids in stratum order, at fixed width `ceil_log2(n)`.
    ids: PackedInts,
    /// u16 log-domain weight codes, aligned with `ids`.
    codes: Vec<u16>,
    /// Exact prefix-sum checkpoints at block boundaries:
    /// `checkpoints[b]` is the build-time `prefix[b · BLOCK]`.
    checkpoints: Vec<f64>,
    /// Ascending group starts (the global stratum is one group at 0).
    group_starts: Vec<u32>,
    /// Exact build-time group totals, aligned with `group_starts`.
    group_totals: Vec<f64>,
    /// Exact build-time prefix values at each group start, aligned with
    /// `group_starts`: the anchor a group serve's prefix replay starts
    /// from, so it costs nothing until the cursor moves.
    group_prefixes: Vec<f64>,
}

impl PackedStratum {
    fn from_build(b: &StratumBuild) -> PackedStratum {
        PackedStratum {
            ids: PackedInts::from_values(b.entries.iter().map(|e| u64::from(e.triple.0))),
            codes: b.entries.iter().map(|e| quantize_weight(e.weight)).collect(),
            checkpoints: b.prefix.iter().copied().step_by(BLOCK).collect(),
            group_starts: b.bounds.iter().map(|g| g.0).collect(),
            group_totals: b.bounds.iter().map(|g| g.1).collect(),
            group_prefixes: b
                .bounds
                .iter()
                .map(|g| b.prefix.get(g.0 as usize).copied().unwrap_or(0.0))
                .collect(),
        }
    }

    /// Exact weight of the entry at `i`, recomputed from provenance
    /// (bit-identical to the build-time product; out-of-range degrades
    /// to 0.0 rather than panicking — this sits on serving paths).
    #[inline]
    fn weight_at(&self, i: usize, prov: &[Provenance]) -> f64 {
        let id = self.ids.get(i) as usize;
        prov.get(id).map_or(0.0, Provenance::weight)
    }

    /// The group containing offset `i` (`None` in an empty stratum) and
    /// the exact build-time prefix sum at `i`: the nearest exact anchor at
    /// or below `i` — the group's stored start prefix or the containing
    /// block's checkpoint, whichever is closer — plus a forward
    /// re-accumulation of the recomputed weights. Replaying the same
    /// additions in the same order the build performed from an exact
    /// build-time value reproduces `prefix[i]` bit for bit; a group start
    /// (where every serve begins) replays nothing.
    fn prefix_at(&self, i: usize, prov: &[Provenance]) -> (Option<usize>, f64) {
        let block_anchor = (i / BLOCK) * BLOCK;
        let group = self.group_of(i);
        let (from, mut acc) = match group {
            Some(k) if (self.group_starts[k] as usize) >= block_anchor => (
                self.group_starts[k] as usize,
                self.group_prefixes.get(k).copied().unwrap_or(0.0),
            ),
            _ => (
                block_anchor,
                self.checkpoints.get(i / BLOCK).copied().unwrap_or(0.0),
            ),
        };
        for j in from..i {
            acc += self.weight_at(j, prov);
        }
        (group, acc)
    }

    /// The group containing offset `i` (`None` in an empty stratum).
    fn group_of(&self, i: usize) -> Option<usize> {
        let after = self.group_starts.partition_point(|&s| (s as usize) <= i);
        after.checked_sub(1)
    }

    /// `span`, inside group `group`, as a view dividing by that group's
    /// exact total.
    fn view<'s>(
        &'s self,
        span: Range<usize>,
        prov: &'s [Provenance],
        group: Option<usize>,
    ) -> PackedGroup<'s> {
        PackedGroup {
            stratum: self,
            prov,
            start: span.start,
            len: span.len(),
            divisor: group.and_then(|k| self.group_totals.get(k)).copied().unwrap_or(0.0),
        }
    }
}

impl StratumData {
    fn from_build(b: StratumBuild, layout: SegmentLayout) -> StratumData {
        match layout {
            SegmentLayout::Flat => StratumData::Flat {
                entries: b.entries,
                prefix: b.prefix,
            },
            SegmentLayout::Packed => StratumData::Packed(PackedStratum::from_build(&b)),
        }
    }

    fn len(&self) -> usize {
        match self {
            StratumData::Flat { entries, .. } => entries.len(),
            StratumData::Packed(p) => p.ids.len(),
        }
    }

    /// Consumes the stratum into the entry keys of its rows, ids shifted
    /// by `offset`, minus the `stale` ones: the sorted run a re-freeze
    /// merges (weights from Flat entries, else from `weights`).
    fn into_keys(
        self,
        offset: u32,
        stale: &[bool],
        group: impl Fn(u32) -> u32,
        weights: &[f64],
    ) -> Vec<u128> {
        let mut keys = Vec::with_capacity(self.len());
        let current = |&(id, _): &(u32, f64)| stale.get(id as usize) != Some(&true);
        let key = |(id, weight)| entry_key(group(id), weight, id);
        match self {
            StratumData::Flat { entries, .. } => {
                let rows = entries.iter().map(|e| (e.triple.0 + offset, e.weight));
                keys.extend(rows.filter(current).map(key));
            }
            StratumData::Packed(p) => {
                let ids = (0..p.ids.len()).map(|i| p.ids.get(i) as u32 + offset);
                let rows = ids.map(|id| (id, weights[id as usize]));
                keys.extend(rows.filter(current).map(key));
            }
        }
        keys
    }

    /// Serves `span` — one whole group — as a list dividing by `total`,
    /// or, when `None`, by the span's own prefix-sum difference (the
    /// anchored strata keep no group directory). Nothing is decoded: a
    /// Flat stratum lends its columns, a Packed one a view that decodes
    /// each entry when it is read. Either way the list's prefix replay
    /// starts from the exact build-time prefix at the group's start.
    fn group<'s>(
        &'s self,
        span: Range<usize>,
        prov: &'s [Provenance],
        total: Option<f64>,
        kind: ServeKind,
    ) -> PostingList<'s> {
        if span.is_empty() {
            return PostingList::new(Entries::Borrowed(&[]), 0.0, total.unwrap_or(0.0), kind);
        }
        match self {
            StratumData::Flat { entries, prefix } => {
                let at = |i: usize| prefix.get(i).copied().unwrap_or(0.0);
                let base = at(span.start);
                let total = total.unwrap_or_else(|| at(span.end) - base);
                let entries = entries.get(span).unwrap_or_default();
                PostingList::new(Entries::Borrowed(entries), base, total, kind)
            }
            StratumData::Packed(p) => {
                let (group, base) = p.prefix_at(span.start, prov);
                let total = total.unwrap_or_else(|| {
                    let next = group.map_or(0, |k| k + 1);
                    let end = match p.group_starts.get(next) {
                        Some(&s) if s as usize == span.end => {
                            p.group_prefixes.get(next).copied().unwrap_or(0.0)
                        }
                        _ => p.prefix_at(span.end, prov).1,
                    };
                    end - base
                });
                let view = p.view(span, prov, group);
                PostingList::new(Entries::Packed(view), base, total, kind)
            }
        }
    }

    /// The first entry of the group `span` covers, reading no prefix sum
    /// and no total.
    fn head(&self, span: Range<usize>, prov: &[Provenance]) -> Option<Posting> {
        if span.is_empty() {
            return None;
        }
        match self {
            StratumData::Flat { entries, .. } => entries.get(span.start).copied(),
            StratumData::Packed(p) => {
                let view = p.view(span.clone(), prov, p.group_of(span.start));
                Some(view.posting(0, view.id(0)))
            }
        }
    }

    /// Heap bytes as `(columns, scaffolding)`: the entry/prefix payload
    /// versus the packed layout's exact-f64 directories.
    fn heap_bytes(&self) -> (usize, usize) {
        match self {
            StratumData::Flat { entries, prefix } => (
                entries.capacity() * std::mem::size_of::<Posting>()
                    + prefix.capacity() * std::mem::size_of::<f64>(),
                0,
            ),
            StratumData::Packed(p) => (
                p.ids.heap_bytes() + p.codes.capacity() * 2,
                p.checkpoints.capacity() * 8
                    + p.group_starts.capacity() * 4
                    + p.group_totals.capacity() * 8
                    + p.group_prefixes.capacity() * 8,
            ),
        }
    }
}

/// One group of a Packed stratum, served in place: an entry is decoded
/// only when a cursor reaches it or a search probes it. Its weight is
/// recomputed from provenance and divided by the group's exact
/// build-time total, so every entry is bit for bit the Flat one.
#[derive(Clone, Copy)]
struct PackedGroup<'s> {
    stratum: &'s PackedStratum,
    prov: &'s [Provenance],
    /// The group's first stratum offset.
    start: usize,
    len: usize,
    /// The group's exact build-time total, every probability's divisor.
    divisor: f64,
}

/// Names the view, not the whole stratum and provenance column it reads.
impl std::fmt::Debug for PackedGroup<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedGroup")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("divisor", &self.divisor)
            .finish()
    }
}

impl PackedGroup<'_> {
    /// The triple of entry `i`, read from the id column alone.
    #[inline]
    fn id(&self, i: usize) -> TripleId {
        TripleId(self.stratum.ids.get(self.start + i) as u32)
    }

    /// Entry `i`, whose triple is `triple`.
    #[inline]
    fn posting(&self, i: usize, triple: TripleId) -> Posting {
        let weight = self.prov.get(triple.idx()).map_or(0.0, Provenance::weight);
        debug_assert_eq!(
            self.stratum.codes.get(self.start + i).copied(),
            Some(quantize_weight(weight)),
            "stored weight code diverged from provenance recompute"
        );
        Posting {
            triple,
            weight,
            prob: if self.divisor > 0.0 { weight / self.divisor } else { 0.0 },
        }
    }

    /// Every entry, in order.
    fn postings(&self) -> impl Iterator<Item = Posting> + '_ {
        (0..self.len).map(|i| self.posting(i, self.id(i)))
    }
}

/// A group the posting index serves whole: a predicate's, the global
/// stratum, or a subject's or object's over its permutation span (the
/// anchored strata share the SPO / OSP key order, so that span is the
/// group's).
#[derive(Debug, Clone)]
pub(crate) enum GroupKey {
    Predicate(TermId),
    Unbound,
    Subject(Range<usize>),
    Object(Range<usize>),
}

/// Build-time score-sorted posting index over a frozen triple table.
///
/// Flat memory: 32 bytes/triple each (24-byte entry + 8-byte prefix
/// sum) for the predicate, subject, object, and global strata — 128
/// bytes/triple total. Packed memory: `ceil_log2(n)`-bit ids + 2-byte
/// codes + ~0.07 bytes/triple of checkpoint scaffolding per stratum,
/// typically 4–7 bytes/triple/stratum. The anchored (subject/object)
/// strata carry **no keyed group directory** in either layout: their
/// group order is the primary-key order of the SPO / OSP permutation
/// columns, so a group's span is the permutation's searched range,
/// shared rather than duplicated (Packed keeps only the start-aligned
/// exact group totals and start prefixes its views need).
#[derive(Debug, Default)]
pub struct PostingIndex {
    /// All triples sorted by (predicate, weight desc, id asc); by
    /// (subject, …) and by (object, …), whose group spans are shared with
    /// the SPO and OSP permutation columns; and by (weight desc, id asc),
    /// normalized globally — indexed by `PRED`, `SUBJ`, `OBJ`, `ALL`.
    strata: [StratumData; 4],
    /// Predicate → its contiguous group.
    groups: HashMap<TermId, Group>,
    /// Predicates in ascending term-id order (deterministic iteration).
    predicates: Vec<TermId>,
    /// Total emission weight of the whole store.
    all_total: f64,
}

impl PostingIndex {
    /// Builds the four strata like [`crate::index::TripleIndex::merge`]
    /// builds the permutations, except that the prefix rows `stale` marks
    /// leave their old runs and are sorted with the appended ones. Weights
    /// are assumed finite (enforced at ingestion by `XkgBuilder`); order
    /// follows `total_cmp`, so even a hostile weight cannot panic here.
    pub(crate) fn merge(
        triples: &[Triple],
        prov: &[Provenance],
        prefix: Vec<(PostingIndex, u32)>,
        stale: &[bool],
        layout: SegmentLayout,
        parallel: bool,
    ) -> PostingIndex {
        let weights: Vec<f64> = prov.iter().map(Provenance::weight).collect();
        debug_assert!(
            weights.iter().all(|w| w.is_finite()),
            "weights are validated at ingestion"
        );
        let fresh: Vec<u32> = (0..triples.len() as u32)
            .filter(|&id| stale.get(id as usize) != Some(&false))
            .collect();
        let mut old: [Vec<(StratumData, u32)>; 4] = Default::default();
        for (index, offset) in prefix {
            for (runs, stratum) in old.iter_mut().zip(index.strata) {
                runs.push((stratum, offset));
            }
        }
        let store_total: f64 = weights.iter().sum();
        let (weights, fresh) = (&weights, &fresh);
        let jobs = GROUP_SLOT.into_iter().zip(old).map(|(slot, old)| {
            move || {
                let group = |id: u32| slot.map_or(0, |c| triples[id as usize].spo()[c].raw());
                let mut sorted: Vec<u128> = fresh
                    .iter()
                    .map(|&id| entry_key(group(id), weights[id as usize], id))
                    .collect();
                sorted.sort_unstable();
                let mut runs = vec![sorted];
                for (stratum, offset) in old {
                    runs.push(stratum.into_keys(offset, stale, group, weights));
                }
                lay_out(&merge_runs(runs), slot.map_or(Some(store_total), |_| None))
            }
        });
        let mut index = PostingIndex::default();
        for (slot, build) in run_jobs(jobs, parallel).into_iter().enumerate() {
            if slot == PRED {
                let ends = build.bounds.iter().skip(1).map(|b| b.0);
                let ends = ends.chain([build.entries.len() as u32]);
                let groups = build.keys.iter().zip(&build.bounds).zip(ends);
                for ((&p, &(start, total_weight)), end) in groups {
                    let group = Group {
                        start,
                        end,
                        total_weight,
                    };
                    index.groups.insert(p, group);
                }
                // A copy: its capacity is exact, as the byte count expects.
                index.predicates = build.keys.clone();
            }
            index.strata[slot] = StratumData::from_build(build, layout);
        }
        index.all_total = store_total;
        index
    }

    /// The predicates present in the store, ascending by term id.
    pub fn predicates(&self) -> &[TermId] {
        &self.predicates
    }

    /// Number of triples in one predicate's group (0 if absent) —
    /// O(1) from the directory, no entry access in either layout.
    pub fn predicate_group_len(&self, p: TermId) -> usize {
        self.groups
            .get(&p)
            .map_or(0, |g| (g.end - g.start) as usize)
    }

    /// Total emission weight under one predicate.
    pub fn predicate_total_weight(&self, p: TermId) -> f64 {
        self.groups.get(&p).map_or(0.0, |g| g.total_weight)
    }

    /// Total emission weight of the store.
    pub fn total_weight(&self) -> f64 {
        self.all_total
    }

    /// `key`'s stratum, span, directory total (`None` for the anchored
    /// strata, whose total is their span's prefix-sum difference) and
    /// serve kind. An absent predicate's group is empty.
    fn resolve(&self, key: GroupKey) -> (&StratumData, Range<usize>, Option<f64>, ServeKind) {
        match key {
            GroupKey::Predicate(p) => {
                let (span, total) = self.groups.get(&p).map_or((0..0, 0.0), |g| {
                    (g.start as usize..g.end as usize, g.total_weight)
                });
                (&self.strata[PRED], span, Some(total), ServeKind::Predicate)
            }
            GroupKey::Unbound => {
                let s = &self.strata[ALL];
                (s, 0..s.len(), Some(self.all_total), ServeKind::Unbound)
            }
            GroupKey::Subject(span) => (&self.strata[SUBJ], span, None, ServeKind::Subject),
            GroupKey::Object(span) => (&self.strata[OBJ], span, None, ServeKind::Object),
        }
    }

    /// `key`'s group, served in place (see [`StratumData::group`]).
    pub(crate) fn group<'s>(&'s self, key: GroupKey, prov: &'s [Provenance]) -> PostingList<'s> {
        let (stratum, span, total, kind) = self.resolve(key);
        stratum.group(span, prov, total, kind)
    }

    /// The first entry of `key`'s group, without its total.
    pub(crate) fn head(&self, key: GroupKey, prov: &[Provenance]) -> Option<Posting> {
        let (stratum, span, ..) = self.resolve(key);
        stratum.head(span, prov)
    }

    /// Heap bytes held by the four strata, as
    /// `(stratum columns, directories)` — the directory share counts
    /// the predicate group map plus the packed layout's exact-f64
    /// scaffolding.
    pub fn heap_bytes(&self) -> (usize, usize) {
        let mut columns = 0;
        let mut directories = self.groups.capacity()
            * (std::mem::size_of::<TermId>() + std::mem::size_of::<Group>())
            + self.predicates.capacity() * std::mem::size_of::<TermId>();
        for s in &self.strata {
            let (c, d) = s.heap_bytes();
            columns += c;
            directories += d;
        }
        (columns, directories)
    }
}

/// Where a posting list's entries live.
#[derive(Debug, Clone)]
enum Entries<'s> {
    /// Borrowed straight from a Flat stratum of the store's
    /// [`PostingIndex`] (hot path: zero allocations, zero sorting).
    Borrowed(&'s [Posting]),
    /// A group of a Packed stratum, decoded entry by entry as it is read.
    Packed(PackedGroup<'s>),
    /// Materialized for pattern shapes outside the precomputed index.
    Owned(Vec<Posting>),
    /// Shared with a caller-managed cache (see the query layer's
    /// posting-cache hierarchy); each list keeps its own cursor.
    /// `Arc` so cross-query caches can live behind `Sync` facades.
    Shared(Arc<[Posting]>),
}

impl<'s> Entries<'s> {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Entries::Borrowed(s) => s.len(),
            Entries::Owned(v) => v.len(),
            Entries::Shared(rc) => rc.len(),
            Entries::Packed(g) => g.len,
        }
    }

    /// Entry `i`.
    #[inline]
    fn get(&self, i: usize) -> Option<Posting> {
        match self {
            Entries::Borrowed(s) => s.get(i).copied(),
            Entries::Owned(v) => v.get(i).copied(),
            Entries::Shared(rc) => rc.get(i).copied(),
            Entries::Packed(g) => (i < g.len).then(|| g.posting(i, g.id(i))),
        }
    }

    /// The entries from `from` on: a slice, or, for a Packed view, an
    /// empty slice and the view with its rows from `from` — so a walk is
    /// a plain slice iteration unless it must decode.
    #[inline]
    fn rest(&self, from: usize) -> (&[Posting], Option<(PackedGroup<'s>, Range<usize>)>) {
        match self {
            Entries::Borrowed(s) => (s.get(from..).unwrap_or_default(), None),
            Entries::Owned(v) => (v.get(from..).unwrap_or_default(), None),
            Entries::Shared(rc) => (rc.get(from..).unwrap_or_default(), None),
            Entries::Packed(g) => (&[], Some((*g, from..g.len))),
        }
    }
}

/// The iterator [`PostingList::select`] returns: a slice walk, or a
/// Packed view's rows decoded id first.
#[derive(Debug)]
pub struct Select<'a, F> {
    rest: Rest<'a>,
    keep: F,
}

#[derive(Debug)]
enum Rest<'a> {
    Slice(std::slice::Iter<'a, Posting>),
    Packed(PackedGroup<'a>, Range<usize>),
}

impl<F: FnMut(TripleId) -> bool> Iterator for Select<'_, F> {
    type Item = Posting;

    #[inline]
    fn next(&mut self) -> Option<Posting> {
        let keep = &mut self.keep;
        match &mut self.rest {
            Rest::Slice(entries) => entries.find(|e| keep(e.triple)).copied(),
            Rest::Packed(g, rows) => rows.find_map(|i| {
                let id = g.id(i);
                keep(id).then(|| g.posting(i, id))
            }),
        }
    }
}

/// The matches of a triple pattern in descending score order, with a cursor
/// for incremental sorted access.
///
/// The shapes the precomputed [`PostingIndex`] serves whole
/// (predicate-only, unbound, subject-only and object-only patterns) are
/// served in place: borrowed columns on Flat segments, a view that
/// decodes each entry as it is read on Packed ones, with bit-identical
/// values. Composite shapes own a single list, ordered from their exact
/// range or filtered from a covering group.
///
/// The remaining weight is the list total minus the weights consumed,
/// summed onto `base` in list order. For index-served lists `base` is the
/// build-time prefix sum at the group's start, so that sum replays the
/// stratum's prefix column bit for bit in either layout.
#[derive(Debug, Clone)]
pub struct PostingList<'s> {
    entries: Entries<'s>,
    total_weight: f64,
    /// The prefix sum the consumed weights are added onto: the exact
    /// build-time prefix at an index-served group's start, else 0.0.
    base: f64,
    /// `base` plus every weight the cursor consumed, added in list order.
    consumed: f64,
    cursor: usize,
    kind: ServeKind,
}

/// Cache-shareable split of a [`PostingList`]: its entries, the prefix
/// sum its consumed weights are added onto, and its total weight.
pub type SharedParts = (Arc<[Posting]>, f64, f64);

impl<'s> PostingList<'s> {
    fn new(entries: Entries<'s>, base: f64, total_weight: f64, kind: ServeKind) -> PostingList<'s> {
        PostingList {
            entries,
            total_weight,
            base,
            consumed: base,
            cursor: 0,
            kind,
        }
    }

    /// This list, or the canonical empty list when its emission mass is
    /// zero: a zero-mass match set emits nothing (its entries all carry
    /// probability 0).
    fn unless_massless(self) -> PostingList<'s> {
        if self.total_weight <= 0.0 {
            return PostingList::new(Entries::Borrowed(&[]), 0.0, 0.0, self.kind);
        }
        self
    }

    /// An owned list from already-ordered entries (empty when massless).
    fn owned(entries: Vec<Posting>, total_weight: f64, kind: ServeKind) -> PostingList<'static> {
        PostingList::new(Entries::Owned(entries), 0.0, total_weight, kind).unless_massless()
    }

    /// Builds the posting list for `pattern` over `store`.
    ///
    /// Ties in weight are broken by triple id so iteration order is
    /// deterministic. Predicate-only, unbound, subject-only, and
    /// object-only patterns are served in place from the store's posting
    /// index, without decoding or sorting anything up front; every other
    /// (composite) shape looks up its exact permutation range once and
    /// orders that range when it holds at most one block of matches (or
    /// is ≥ 4× smaller than every covering group), else filters the
    /// smallest covering group — one allocation either way.
    pub fn build(store: &'s XkgStore, pattern: &SlotPattern) -> PostingList<'s> {
        match store.group(pattern) {
            Some(group) => group.unless_massless(),
            None => PostingList::filtered(store, pattern),
        }
    }

    /// Serves a composite shape (sp / op / so / ground) from the index.
    /// One search finds the pattern's exact match range — SPO for sp and
    /// ground patterns, POS for po, OSP for so. A range of at most one
    /// block ([`BLOCK`] matches) is decoded and weight-ordered
    /// (`ServeKind::Range`): a handful of matches sort cheaper than any
    /// group walk. Larger sets compare the range with the covering
    /// groups: the smallest group is filtered — already in (weight desc,
    /// id asc) order, so no sort — unless the range is ≥ 4× smaller
    /// (a ground pattern over hub terms), where ordering the range beats
    /// walking a group that may be arbitrarily larger. Either way the
    /// matches are visited in (weight desc, id asc) order and
    /// probabilities renormalize over their total summed in that order,
    /// so both serves are bit-identical to the scan reference. The
    /// filter tests each group triple before it reads that triple's
    /// provenance, so a Packed group decodes only the weights it keeps.
    fn filtered(store: &'s XkgStore, pattern: &SlotPattern) -> PostingList<'s> {
        // Span arithmetic only: the ids are decoded just for a range
        // serve, never for the group filter.
        let span = store.span(pattern);
        let match_count = span.len();
        if match_count == 0 {
            return PostingList::owned(Vec::new(), 0.0, ServeKind::Filtered);
        }
        let range = |span| {
            PostingList::from_match_ids(store, &store.span_ids(pattern, span), ServeKind::Range)
        };
        if match_count <= BLOCK {
            return range(span);
        }
        enum Cover {
            Subject(TermId),
            Object(TermId),
            Predicate(TermId),
        }
        let mut best: Option<(usize, Cover)> = None;
        let mut consider = |len: usize, key: Cover| {
            if best.as_ref().is_none_or(|(best_len, _)| len < *best_len) {
                best = Some((len, key));
            }
        };
        if let Some(s) = pattern.s {
            consider(
                store.count(&SlotPattern::new(Some(s), None, None)),
                Cover::Subject(s),
            );
        }
        if let Some(o) = pattern.o {
            consider(
                store.count(&SlotPattern::new(None, None, Some(o))),
                Cover::Object(o),
            );
        }
        if let Some(p) = pattern.p {
            consider(store.count(&SlotPattern::with_p(p)), Cover::Predicate(p));
        }
        // Composite shapes always bind a slot; if a malformed shape ever
        // lands here, degrade to the exact-range serve.
        let Some((_, cover)) = best.filter(|(len, _)| match_count * 4 > *len) else {
            return range(span);
        };
        let group = match cover {
            Cover::Subject(s) => store.subject_group(s),
            Cover::Object(o) => store.object_group(o),
            Cover::Predicate(p) => store.predicate_group(p),
        };
        let mut entries: Vec<Posting> = Vec::with_capacity(match_count);
        entries.extend(group.select(|id| pattern.matches(store.triple(id))));
        let total: f64 = entries.iter().map(|e| e.weight).sum();
        for e in &mut entries {
            e.prob = if total > 0.0 { e.weight / total } else { 0.0 };
        }
        PostingList::owned(entries, total, ServeKind::Filtered)
    }

    /// Materializes an exact match-id set and orders it by
    /// (weight desc, id asc), totalling in sorted order — bit-identical
    /// to the index strata's per-group accumulation.
    fn from_match_ids(
        store: &XkgStore,
        ids: &[TripleId],
        kind: ServeKind,
    ) -> PostingList<'static> {
        let posting = |&triple| Posting {
            triple,
            weight: store.provenance(triple).weight(),
            prob: 0.0,
        };
        let mut entries: Vec<Posting> = ids.iter().map(posting).collect();
        entries.sort_unstable_by(|a, b| {
            b.weight
                .total_cmp(&a.weight)
                .then_with(|| a.triple.cmp(&b.triple))
        });
        let total: f64 = entries.iter().map(|e| e.weight).sum();
        for e in &mut entries {
            e.prob = if total > 0.0 { e.weight / total } else { 0.0 };
        }
        PostingList::owned(entries, total, kind)
    }

    /// The pre-index reference implementation: materializes the
    /// permutation range and sorts it by (weight desc, id asc). Kept for
    /// property tests (every [`PostingList::build`] result must be
    /// entry-for-entry equal) and as the "before" side of the anchored
    /// benchmark; the engines never call it.
    pub fn build_by_scan(store: &XkgStore, pattern: &SlotPattern) -> PostingList<'static> {
        PostingList::from_match_ids(store, &store.lookup(pattern), ServeKind::Scanned)
    }

    /// Wraps an externally materialized, already score-sorted entry list.
    /// Used by the query layer's filtered views over this machinery.
    pub fn from_owned(entries: Vec<Posting>, total_weight: f64) -> PostingList<'static> {
        PostingList::new(Entries::Owned(entries), 0.0, total_weight, ServeKind::External)
    }

    /// A list holding only `entries` — ordered, and a subset of a match
    /// set whose total emission weight is `total_weight`. Their
    /// probabilities keep that normalizer, and the remaining weight
    /// starts at the entries' own, as if the rest had been consumed.
    pub fn restricted(entries: Vec<Posting>, total_weight: f64) -> PostingList<'static> {
        let kept: f64 = entries.iter().map(|e| e.weight).sum();
        PostingList {
            consumed: total_weight - kept,
            ..PostingList::from_owned(entries, total_weight)
        }
    }

    /// Re-serves cache-shared parts ([`PostingList::into_shared_parts`])
    /// with a fresh cursor and the same remaining weights.
    pub fn from_shared_parts((entries, base, total_weight): SharedParts) -> PostingList<'static> {
        PostingList::new(Entries::Shared(entries), base, total_weight, ServeKind::External)
    }

    /// Splits the list into cache-shareable parts. Copies only when the
    /// entries were borrowed, and decodes a Packed view whole.
    pub fn into_shared_parts(self) -> SharedParts {
        let entries: Arc<[Posting]> = match self.entries {
            Entries::Owned(v) => v.into(),
            Entries::Borrowed(s) => s.into(),
            Entries::Shared(rc) => rc,
            Entries::Packed(g) => g.postings().collect(),
        };
        (entries, self.base, self.total_weight)
    }

    /// Consumes the list into an owned entry vector, ignoring the cursor:
    /// no copy when the entries were already materialized, and a Packed
    /// view decoded whole.
    pub fn into_entries(self) -> Vec<Posting> {
        match self.entries {
            Entries::Owned(v) => v,
            Entries::Borrowed(s) => s.to_vec(),
            Entries::Shared(rc) => rc.to_vec(),
            Entries::Packed(g) => g.postings().collect(),
        }
    }

    /// How this list was served (see [`ServeKind`]).
    #[inline]
    pub fn serve_kind(&self) -> ServeKind {
        self.kind
    }

    /// Total emission weight of all matches (the idf-like normalizer).
    #[inline]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of matches.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the pattern has no matches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry in descending score order, ignoring the cursor:
    /// borrowed, except from a Packed view, which decodes them all.
    pub fn entries(&self) -> Cow<'_, [Posting]> {
        match self.entries.rest(0) {
            (_, Some((g, _))) => Cow::Owned(g.postings().collect()),
            (slice, None) => Cow::Borrowed(slice),
        }
    }

    /// Every entry in descending score order, ignoring the cursor, each
    /// decoded as the iterator reaches it.
    pub fn iter(&self) -> impl Iterator<Item = Posting> + '_ {
        let (slice, packed) = self.entries.rest(0);
        let decoded = packed
            .into_iter()
            .flat_map(|(g, rows)| rows.map(move |i| g.posting(i, g.id(i))));
        slice.iter().copied().chain(decoded)
    }

    /// The unconsumed entries whose triple `keep` admits, in list order.
    /// `keep` sees each triple before its entry is read, so a Packed view
    /// decodes only the weights of the entries kept.
    pub fn select<F: FnMut(TripleId) -> bool>(&self, keep: F) -> Select<'_, F> {
        let rest = match self.entries.rest(self.cursor) {
            (_, Some((g, rows))) => Rest::Packed(g, rows),
            (slice, None) => Rest::Slice(slice.iter()),
        };
        Select { rest, keep }
    }

    /// The unconsumed entry of triple `id`, whose emission weight is
    /// `weight`: a binary search of the (weight desc, id asc) order that
    /// decodes only the entries it probes.
    pub fn locate(&self, id: TripleId, weight: f64) -> Option<Posting> {
        let before = |e: Posting| e.weight.total_cmp(&weight).then(id.cmp(&e.triple)).is_gt();
        let (mut lo, mut hi) = (self.cursor, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entries.get(mid).is_some_and(before) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.entries.get(lo).filter(|e| e.triple == id)
    }

    /// The next unconsumed posting, without advancing.
    #[inline]
    pub fn peek(&self) -> Option<Posting> {
        self.entries.get(self.cursor)
    }

    /// The emission probability of the next unconsumed posting (an upper
    /// bound on everything still in the list), or `None` if exhausted.
    #[inline]
    pub fn peek_prob(&self) -> Option<f64> {
        self.peek().map(|p| p.prob)
    }

    /// Consumes and returns the next posting in descending score order.
    #[inline]
    pub fn next_posting(&mut self) -> Option<Posting> {
        let p = self.peek()?;
        self.cursor += 1;
        self.consumed += p.weight;
        Some(p)
    }

    /// Number of postings consumed so far (depth of sorted access).
    #[inline]
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// Combined weight of the first `upto` entries, summed in list order
    /// onto the list's base — for an index-served list, the stratum's
    /// prefix-sum difference, bit for bit. O(upto).
    pub fn prefix_weight(&self, upto: usize) -> f64 {
        let sum = self.iter().take(upto).fold(self.base, |acc, e| acc + e.weight);
        sum - self.base
    }

    /// Emission weight not yet consumed by the cursor, O(1): the total
    /// minus the consumed weights, which [`PostingList::next_posting`]
    /// sums in list order. (The rank-join threshold asks for this every
    /// capping round.)
    #[inline]
    pub fn remaining_weight(&self) -> f64 {
        (self.total_weight - (self.consumed - self.base)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{XkgBuilder, XkgStore};

    fn store_with_weights() -> XkgStore {
        let mut b = XkgBuilder::new();
        let p = b.dict_mut().resource("lecturedAt");
        let princeton = b.dict_mut().resource("Princeton");
        for (i, conf) in [(0u32, 0.9f32), (1, 0.5), (2, 0.7)] {
            let s = b.dict_mut().resource(&format!("person{i}"));
            let src = b.intern_source(&format!("doc{i}"));
            b.add_extracted(s, p, princeton, conf, src);
        }
        b.build()
    }

    #[test]
    fn postings_sorted_descending() {
        let store = store_with_weights();
        let p = store.dict().get(crate::TermKind::Resource, "lecturedAt").unwrap();
        let list = PostingList::build(&store, &SlotPattern::with_p(p));
        assert_eq!(list.len(), 3);
        assert_eq!(list.serve_kind(), ServeKind::Predicate);
        let weights: Vec<f64> = list.entries().iter().map(|e| e.weight).collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]));
        assert!((list.total_weight() - 2.1).abs() < 1e-6);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let store = store_with_weights();
        let p = store.dict().get(crate::TermKind::Resource, "lecturedAt").unwrap();
        let list = PostingList::build(&store, &SlotPattern::with_p(p));
        let sum: f64 = list.entries().iter().map(|e| e.prob).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cursor_walks_in_order() {
        let store = store_with_weights();
        let p = store.dict().get(crate::TermKind::Resource, "lecturedAt").unwrap();
        let mut list = PostingList::build(&store, &SlotPattern::with_p(p));
        let first = list.next_posting().unwrap();
        let second = list.next_posting().unwrap();
        assert!(first.prob >= second.prob);
        assert_eq!(list.consumed(), 2);
        assert_eq!(list.entries()[..2], [first, second]);
    }

    #[test]
    fn empty_pattern_list() {
        let store = store_with_weights();
        let ghost = crate::term::TermId::new(crate::TermKind::Resource, 999);
        let mut list = PostingList::build(&store, &SlotPattern::with_p(ghost));
        assert!(list.is_empty());
        assert_eq!(list.peek_prob(), None);
        assert_eq!(list.next_posting(), None);
        assert_eq!(list.total_weight(), 0.0);
    }

    #[test]
    fn unbound_pattern_serves_global_list() {
        let store = store_with_weights();
        let list = PostingList::build(&store, &SlotPattern::any());
        assert_eq!(list.len(), store.len());
        assert_eq!(list.serve_kind(), ServeKind::Unbound);
        let probs: Vec<f64> = list.entries().iter().map(|e| e.prob).collect();
        assert!(probs.windows(2).all(|w| w[0] >= w[1]));
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bound_subject_serves_anchored_stratum() {
        let store = store_with_weights();
        let s = store.resource("person0").unwrap();
        let list = PostingList::build(&store, &SlotPattern::new(Some(s), None, None));
        assert_eq!(list.len(), 1);
        assert_eq!(list.serve_kind(), ServeKind::Subject);
        assert!((list.entries()[0].prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bound_object_serves_anchored_stratum() {
        let store = store_with_weights();
        let o = store.resource("Princeton").unwrap();
        let list = PostingList::build(&store, &SlotPattern::new(None, None, Some(o)));
        assert_eq!(list.len(), 3);
        assert_eq!(list.serve_kind(), ServeKind::Object);
        let probs: Vec<f64> = list.entries().iter().map(|e| e.prob).collect();
        assert!(probs.windows(2).all(|w| w[0] >= w[1]));
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn composite_shapes_serve_their_range_or_filter_a_group() {
        // Up to one block of matches: the exact range, ordered.
        let store = store_with_weights();
        let s = store.resource("person1").unwrap();
        let p = store.resource("lecturedAt").unwrap();
        let o = store.resource("Princeton").unwrap();
        for pattern in [
            SlotPattern::with_sp(s, p),
            SlotPattern::with_po(p, o),
            SlotPattern::new(Some(s), None, Some(o)),
            SlotPattern::new(Some(s), Some(p), Some(o)),
        ] {
            let list = PostingList::build(&store, &pattern);
            assert_eq!(list.serve_kind(), ServeKind::Range, "{pattern}");
            let reference = PostingList::build_by_scan(&store, &pattern);
            assert_eq!(list.entries(), reference.entries(), "{pattern}");
        }
        // More than a block, and no covering group 4× larger: the
        // smallest group (the predicate's) filtered, never sorted.
        let mut b = XkgBuilder::new();
        let src = b.intern_source("doc");
        let (p, q) = (b.dict_mut().resource("p"), b.dict_mut().resource("q"));
        let o = b.dict_mut().resource("o");
        for i in 0..=BLOCK as u32 {
            let s = b.dict_mut().resource(&format!("s{i}"));
            b.add_extracted(s, p, o, 0.1 + (i % 9) as f32 / 10.0, src);
            b.add_extracted(s, q, o, 0.5, src);
        }
        let store = b.build();
        let pattern = SlotPattern::with_po(p, o);
        let list = PostingList::build(&store, &pattern);
        assert_eq!(list.serve_kind(), ServeKind::Filtered);
        assert_eq!(list.len(), BLOCK + 1);
        let reference = PostingList::build_by_scan(&store, &pattern);
        assert_eq!(list.entries(), reference.entries());
        assert_eq!(
            list.total_weight().to_bits(),
            reference.total_weight().to_bits()
        );
    }

    #[test]
    fn every_shape_matches_scan_reference() {
        let store = store_with_weights();
        let s = store.resource("person2").unwrap();
        let p = store.resource("lecturedAt").unwrap();
        let o = store.resource("Princeton").unwrap();
        for mask in 0u8..8 {
            let pattern = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let list = PostingList::build(&store, &pattern);
            let reference = PostingList::build_by_scan(&store, &pattern);
            assert_eq!(list.entries(), reference.entries(), "shape {mask:#05b}");
        }
    }

    #[test]
    fn selective_composite_shapes_use_the_exact_range() {
        // Hub-shaped store: the subject, predicate, and object groups of
        // the probe pattern are all large, but the pattern itself
        // matches one triple. The serve must come from the permutation
        // range (O(matches)), not a group walk, and still match the
        // scan reference bit for bit.
        let mut b = XkgBuilder::new();
        let hub_s = b.dict_mut().resource("hubS");
        let hub_p = b.dict_mut().resource("hubP");
        let hub_o = b.dict_mut().resource("hubO");
        let src = b.intern_source("doc");
        for i in 0..40u32 {
            let x = b.dict_mut().resource(&format!("x{i}"));
            let y = b.dict_mut().resource(&format!("y{i}"));
            b.add_extracted(hub_s, hub_p, y, 0.5, src); // fans out the s and p groups
            b.add_extracted(x, hub_p, hub_o, 0.6, src); // fans out the p and o groups
        }
        b.add_extracted(hub_s, hub_p, hub_o, 0.9, src); // the 1 real match
        let store = b.build();
        let ground = SlotPattern::new(Some(hub_s), Some(hub_p), Some(hub_o));
        let list = PostingList::build(&store, &ground);
        assert_eq!(list.serve_kind(), ServeKind::Range);
        assert_eq!(list.len(), 1);
        let reference = PostingList::build_by_scan(&store, &ground);
        assert_eq!(list.entries(), reference.entries());
        // A no-match composite shape short-circuits on the empty range
        // without touching any group.
        let ghost = SlotPattern::new(Some(hub_o), Some(hub_p), Some(hub_s));
        let empty = PostingList::build(&store, &ghost);
        assert!(empty.is_empty());
        assert_eq!(empty.total_weight(), 0.0);
    }

    #[test]
    fn zero_mass_group_serves_empty_list() {
        let mut b = XkgBuilder::new();
        let p = b.dict_mut().resource("ghostly");
        let q = b.dict_mut().resource("solid");
        let o = b.dict_mut().resource("obj");
        let src = b.intern_source("doc");
        for i in 0..3u32 {
            let s = b.dict_mut().resource(&format!("z{i}"));
            b.add_extracted(s, p, o, 0.0, src);
        }
        let s = b.dict_mut().resource("z0");
        b.add_extracted(s, q, o, 0.8, src);
        let store = b.build();

        // The zero-confidence predicate group has entries but no mass:
        // it serves as the canonical empty list, and its head bound is 0.
        let list = PostingList::build(&store, &SlotPattern::with_p(p));
        assert!(list.is_empty());
        assert_eq!(list.total_weight(), 0.0);
        assert_eq!(store.head_prob(&SlotPattern::with_p(p)), Some(0.0));
        // The scan reference agrees.
        let reference = PostingList::build_by_scan(&store, &SlotPattern::with_p(p));
        assert!(reference.is_empty());
        // A subject whose triples are all massless serves empty too,
        // while its mixed sibling keeps only implicit zero-prob entries.
        let z1 = store.resource("z1").unwrap();
        let sub = PostingList::build(&store, &SlotPattern::new(Some(z1), None, None));
        assert!(sub.is_empty());
        let z0 = store.resource("z0").unwrap();
        let mixed = PostingList::build(&store, &SlotPattern::new(Some(z0), None, None));
        assert_eq!(mixed.len(), 2);
        assert!((mixed.entries()[0].prob - 1.0).abs() < 1e-12);
        assert_eq!(mixed.entries()[1].prob, 0.0);
    }

    #[test]
    fn prefix_weights_match_direct_sums() {
        let store = store_with_weights();
        let p = store.dict().get(crate::TermKind::Resource, "lecturedAt").unwrap();
        let mut list = PostingList::build(&store, &SlotPattern::with_p(p));
        for upto in 0..=list.len() {
            let direct: f64 = list.entries()[..upto].iter().map(|e| e.weight).sum();
            assert!((list.prefix_weight(upto) - direct).abs() < 1e-9, "upto {upto}");
        }
        list.next_posting();
        let rest: f64 = list.entries()[1..].iter().map(|e| e.weight).sum();
        assert!((list.remaining_weight() - rest).abs() < 1e-9);
    }

    #[test]
    fn anchored_prefix_weights_match_direct_sums() {
        let store = store_with_weights();
        let o = store.resource("Princeton").unwrap();
        let mut list = PostingList::build(&store, &SlotPattern::new(None, None, Some(o)));
        assert_eq!(list.serve_kind(), ServeKind::Object);
        for upto in 0..=list.len() {
            let direct: f64 = list.entries()[..upto].iter().map(|e| e.weight).sum();
            assert!((list.prefix_weight(upto) - direct).abs() < 1e-9, "upto {upto}");
        }
        list.next_posting();
        let rest: f64 = list.entries()[1..].iter().map(|e| e.weight).sum();
        assert!((list.remaining_weight() - rest).abs() < 1e-9);
    }

    #[test]
    fn posting_index_groups_cover_every_predicate() {
        let store = store_with_weights();
        let idx = store.posting_index();
        let mut covered = 0;
        for &p in idx.predicates() {
            let group = store.predicate_group(p);
            assert!(!group.is_empty());
            assert!(group.entries().windows(2).all(|w| {
                w[0].weight > w[1].weight
                    || (w[0].weight == w[1].weight && w[0].triple < w[1].triple)
            }));
            covered += group.len();
        }
        assert_eq!(covered, store.len());
    }

    #[test]
    fn quantize_weight_is_monotone_and_bounded() {
        assert_eq!(quantize_weight(0.0), 0);
        assert_eq!(quantize_weight(-1.0), 0);
        assert_eq!(quantize_weight(f64::NAN), 0);
        let pool: Vec<f64> = vec![
            1e-40, 1e-12, 1e-6, 0.01, 0.5, 0.50001, 1.0, 2.0, 1e3, 1e6, 4.2e9,
        ];
        let codes: Vec<u16> = pool.iter().map(|&w| quantize_weight(w)).collect();
        assert!(codes.windows(2).all(|w| w[0] <= w[1]), "{codes:?}");
        assert!(codes[0] >= 1);
        assert!(*codes.last().unwrap() < u16::MAX, "headroom at the top of the code range");
        // Equal weights share a code.
        assert_eq!(quantize_weight(0.7), quantize_weight(0.7));
    }

    /// Every serve of a Packed store is entry-for-entry bit-identical
    /// to the Flat store over the same builder, for all 8 shapes.
    #[test]
    fn packed_serves_bit_identical_to_flat() {
        let mut b = XkgBuilder::new();
        let src = b.intern_source("doc");
        for i in 0..300u32 {
            let s = b.dict_mut().resource(&format!("s{}", i % 37));
            let p = b.dict_mut().resource(&format!("p{}", i % 5));
            let o = b.dict_mut().resource(&format!("o{}", i % 23));
            let conf = 0.05 + ((i * 13) % 90) as f32 / 100.0;
            b.add_extracted(s, p, o, conf, src);
        }
        let flat = b.clone().build();
        let packed = b.build_with(SegmentLayout::Packed);
        let s = flat.resource("s1").unwrap();
        let p = flat.resource("p2").unwrap();
        let o = flat.resource("o3").unwrap();
        for mask in 0u8..8 {
            let pattern = SlotPattern::new(
                (mask & 1 != 0).then_some(s),
                (mask & 2 != 0).then_some(p),
                (mask & 4 != 0).then_some(o),
            );
            let fl = PostingList::build(&flat, &pattern);
            let pk = PostingList::build(&packed, &pattern);
            assert_eq!(fl.entries(), pk.entries(), "shape {mask:#05b}");
            assert_eq!(
                fl.total_weight().to_bits(),
                pk.total_weight().to_bits(),
                "total, shape {mask:#05b}"
            );
            for upto in [0, 1, fl.len() / 2, fl.len()] {
                assert_eq!(
                    fl.prefix_weight(upto).to_bits(),
                    pk.prefix_weight(upto).to_bits(),
                    "prefix {upto}, shape {mask:#05b}"
                );
            }
            assert_eq!(flat.head_prob(&pattern), packed.head_prob(&pattern));
            assert_eq!(flat.head_weight(&pattern), packed.head_weight(&pattern));
        }
    }
}
