//! Columnar permutation indexes over the triple table.
//!
//! # Layout
//!
//! Three sorted permutations (SPO, POS, OSP) make every shape of
//! [`SlotPattern`] answerable with a binary-searched contiguous range, in
//! the style of in-memory RDF stores (HDT, Hexastore): each of the eight
//! bound masks is a key prefix of one of them. Each permutation stores its
//! rows in one of two layouts chosen at build time ([`SegmentLayout`]):
//!
//! * **Flat** — a `Vec<[TermId; 3]>` *key column* holding the permuted
//!   keys inline, plus an aligned `Vec<TripleId>` *id column*. A probe
//!   touches only the key column — sequential 12-byte records, no pointer
//!   chase back into the triple table — and returns a borrowed slice of
//!   the id column. 16 bytes per triple per permutation.
//! * **Packed** — rows grouped into blocks of [`BLOCK`] (128). Each of
//!   the four columns (three key columns + the id column) is stored as
//!   bit-packed deltas from a per-block reference value, over one shared
//!   `u64` word stream. A sparse *selection directory* holds each
//!   block's first key, so a probe is a directory search plus a search
//!   inside at most two blocks — `O(log n)` field reads, no allocation. Ids decode into a caller-supplied scratch buffer
//!   ([`TripleIndex::lookup_in`]) or an owned vector ([`MatchIds`]).
//!   Typical cost is 2–6 bytes per triple per permutation depending on
//!   key locality, a 3–6× reduction against Flat.
//!
//! Sort order is identical in both layouts: [`TermId`]'s ordering is the
//! ordering of its packed raw `u32` (kind bits high), so comparing raw
//! values compares terms.
//!
//! Beside the columns, each permutation keeps a *wide-pair directory*:
//! every run of rows sharing their first two key slots — an sp, po or so
//! match set — longer than one [`BLOCK`], with the exact total and head
//! emission weight of its matches. Such a pattern's posting list is the
//! one composite list that costs a group walk to build; with the
//! directory its head bound and its normalizer cost one search of a
//! handful of entries.
//!
//! # Cost model
//!
//! * **Lookup**: one search per range. The lower bound is a binary
//!   search (Flat: over the key column; Packed: over the directory, then
//!   within one block); the upper bound gallops forward from it, so a
//!   range of `d` rows costs about 2·log₂ d more probes. The Flat gallop
//!   falls back to a binary search of the rest past [`BLOCK`] rows; the
//!   Packed one gallops the directory and then searches one block.
//! * **Build**: a freeze sorts only the rows it does not already hold in
//!   order — every row for a fresh build, the appended ones on a
//!   re-freeze — and merges them into the old columns' sorted runs.
//!   Packing is a single append pass over the merged rows.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::ops::Range;

use crate::pack::{bits_for, read_bits, BitWriter, SegmentLayout};
use crate::pattern::SlotPattern;
use crate::store::run_jobs;
use crate::term::TermId;
use crate::triple::{Provenance, Triple, TripleId};

/// Rows per packed block: the unit of delta encoding and of the sparse
/// selection directory.
pub const BLOCK: usize = 128;

/// One of the three rotations of (S, P, O) the index keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permutation {
    /// subject, predicate, object
    SPO,
    /// predicate, object, subject
    POS,
    /// object, subject, predicate
    OSP,
}

impl Permutation {
    /// All three permutations in build order.
    pub const ALL: [Permutation; 3] = [Permutation::SPO, Permutation::POS, Permutation::OSP];

    /// Slot order as indexes into `[s, p, o]`.
    #[inline]
    fn order(self) -> [usize; 3] {
        match self {
            Permutation::SPO => [0, 1, 2],
            Permutation::POS => [1, 2, 0],
            Permutation::OSP => [2, 0, 1],
        }
    }

    /// The sort key of `t` under this permutation.
    #[inline]
    pub fn key(self, t: Triple) -> [TermId; 3] {
        let spo = t.spo();
        let ord = self.order();
        [spo[ord[0]], spo[ord[1]], spo[ord[2]]]
    }

    /// Chooses the permutation whose key prefix covers the bound slots of a
    /// pattern, so its matches form one contiguous sorted range.
    #[inline]
    pub fn for_pattern(pattern: &SlotPattern) -> Permutation {
        match pattern.bound_mask() {
            0b010 | 0b110 => Permutation::POS,
            0b100 | 0b101 => Permutation::OSP,
            // 0b000 | 0b001 | 0b011 | 0b111 and any wider mask: the
            // subject-primary permutation covers them all.
            _ => Permutation::SPO,
        }
    }

    /// The bound prefix of `pattern` in this permutation's slot order,
    /// inline (no allocation): the prefix values and their count (0–3).
    ///
    /// Unused tail slots are left at a fixed filler value and must not be
    /// compared — callers slice to `len`.
    #[inline]
    fn prefix(self, pattern: &SlotPattern) -> ([TermId; 3], usize) {
        let slots = [pattern.s, pattern.p, pattern.o];
        let mut out = [TermId::from_raw(0); 3];
        let mut len = 0;
        for slot_idx in self.order() {
            match slots[slot_idx] {
                Some(t) => {
                    out[len] = t;
                    len += 1;
                }
                None => break,
            }
        }
        (out, len)
    }
}

/// The ids matching a pattern: a borrowed slice of a Flat id column, or
/// an owned vector decoded from a Packed one. Dereferences to
/// `[TripleId]`, so `.iter()`, `.len()`, `.first()` and indexing all
/// work as on the slice the Flat layout used to return.
#[derive(Debug)]
pub enum MatchIds<'a> {
    /// Borrowed directly from a Flat permutation's id column.
    Borrowed(&'a [TripleId]),
    /// Decoded from a Packed permutation's bit stream.
    Owned(Vec<TripleId>),
}

impl std::ops::Deref for MatchIds<'_> {
    type Target = [TripleId];
    #[inline]
    fn deref(&self) -> &[TripleId] {
        match self {
            MatchIds::Borrowed(s) => s,
            MatchIds::Owned(v) => v,
        }
    }
}

impl<'a> IntoIterator for &'a MatchIds<'_> {
    type Item = &'a TripleId;
    type IntoIter = std::slice::Iter<'a, TripleId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-block packing metadata: the bit offset of the block's payload in
/// the shared word stream, and reference value + field width for each
/// of the four columns (key columns 0–2, id column 3).
#[derive(Debug, Clone)]
struct BlockMeta {
    bit: u64,
    min: [u32; 4],
    width: [u8; 4],
}

/// One permutation's rows in the Packed layout.
#[derive(Debug, Default)]
struct PackedPerm {
    len: usize,
    /// First key of each block — the sparse selection directory.
    dir: Vec<[u32; 3]>,
    blocks: Vec<BlockMeta>,
    words: Vec<u64>,
}

/// A permutation row packed so that integer order is row order: the
/// three permuted key slots' raw values, then the triple id.
type Row = u128;

/// Packs a row: its three key slots' raw values, then its id.
fn pack(key: [u32; 3], id: u32) -> Row {
    key.iter().fold(0, |row, &k| row << 32 | Row::from(k)) << 32 | Row::from(id)
}

/// The four fields of a packed row.
fn unpack(row: Row) -> [u32; 4] {
    [3, 2, 1, 0].map(|i| (row >> (32 * i)) as u32)
}

impl PackedPerm {
    fn build(rows: &[Row]) -> PackedPerm {
        let n_blocks = rows.len().div_ceil(BLOCK);
        let mut dir = Vec::with_capacity(n_blocks);
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut w = BitWriter::new();
        for chunk in rows.chunks(BLOCK) {
            let first = unpack(chunk[0]);
            dir.push([first[0], first[1], first[2]]);
            let mut min = [u32::MAX; 4];
            let mut max = [0u32; 4];
            for &row in chunk {
                for (c, v) in unpack(row).into_iter().enumerate() {
                    min[c] = min[c].min(v);
                    max[c] = max[c].max(v);
                }
            }
            let width = [0, 1, 2, 3].map(|c| bits_for(u64::from(max[c] - min[c])));
            let bit = w.len_bits();
            for c in 0..4 {
                for &row in chunk {
                    w.push(u64::from(unpack(row)[c] - min[c]), width[c]);
                }
            }
            blocks.push(BlockMeta { bit, min, width });
        }
        PackedPerm {
            len: rows.len(),
            dir,
            blocks,
            words: w.finish(),
        }
    }

    /// Block `b`'s rows, with each column's bit offset resolved once. A
    /// block past the end reads as empty — packed readers sit on serving
    /// paths and must not panic.
    fn block(&self, b: usize) -> BlockReader<'_> {
        let Some(m) = self.blocks.get(b) else {
            return BlockReader::default();
        };
        let rows = BLOCK.min(self.len - b * BLOCK);
        let mut bit = [m.bit; 4];
        for c in 1..4 {
            bit[c] = bit[c - 1] + rows as u64 * u64::from(m.width[c - 1]);
        }
        BlockReader {
            words: &self.words,
            rows,
            bit,
            min: m.min,
            width: m.width,
        }
    }

    /// The rows whose key starts with `prefix`. The lower bound is a
    /// directory search plus a binary search inside one block; the upper
    /// bound gallops the directory forward from that block and searches
    /// inside the one block the range ends in — a range inside its first
    /// block gallops from its first row instead.
    fn span(&self, prefix: &[u32]) -> Range<usize> {
        if prefix.is_empty() {
            return 0..self.len;
        }
        let first = |j: usize| &self.dir[j][..prefix.len()];
        // The first row not below the prefix lies in the block before the
        // first block whose first key is not below it (or at its start).
        let b = partition(0, self.dir.len(), |j| first(j) < prefix).saturating_sub(1);
        if b >= self.blocks.len() {
            return self.len..self.len;
        }
        let block = self.block(b);
        let lo = partition(0, block.rows, |r| block.cmp_prefix(r, prefix).is_lt());
        // The range ends in the block before the first later block whose
        // first key is above the prefix.
        let end = gallop(b + 1, self.dir.len(), |j| first(j) <= prefix) - 1;
        let hi = if end == b {
            gallop(lo, block.rows, |r| block.cmp_prefix(r, prefix).is_le())
        } else {
            let block = self.block(end);
            partition(0, block.rows, |r| block.cmp_prefix(r, prefix).is_le())
        };
        b * BLOCK + lo..end * BLOCK + hi
    }

    /// Every row in order, as its four fields.
    fn rows(&self) -> impl Iterator<Item = [u32; 4]> + '_ {
        (0..self.blocks.len()).flat_map(|b| {
            let block = self.block(b);
            (0..block.rows).map(move |r| [0, 1, 2, 3].map(|c| block.field(r, c)))
        })
    }

    /// Decodes the id column over `span` into `out` (cleared first).
    fn decode_ids(&self, span: Range<usize>, out: &mut Vec<TripleId>) {
        out.clear();
        out.reserve(span.len());
        let mut at = span.start;
        while at < span.end {
            let (b, r) = (at / BLOCK, at % BLOCK);
            let block = self.block(b);
            let upto = BLOCK.min(r + (span.end - at));
            out.extend((r..upto).map(|r| TripleId(block.field(r, 3))));
            at += upto - r;
        }
    }

    fn heap_bytes(&self) -> (usize, usize) {
        let dir_bytes = self.dir.capacity() * std::mem::size_of::<[u32; 3]>()
            + self.blocks.capacity() * std::mem::size_of::<BlockMeta>();
        (self.words.capacity() * 8, dir_bytes)
    }
}

/// One block of a [`PackedPerm`], ready to read: the reference value,
/// width and first bit of each column (key columns 0–2, id column 3).
#[derive(Default)]
struct BlockReader<'p> {
    words: &'p [u64],
    rows: usize,
    bit: [u64; 4],
    min: [u32; 4],
    width: [u8; 4],
}

impl BlockReader<'_> {
    /// Decoded value of column `c` at row `r`.
    #[inline]
    fn field(&self, r: usize, c: usize) -> u32 {
        let at = self.bit[c] + r as u64 * u64::from(self.width[c]);
        self.min[c].wrapping_add(read_bits(self.words, at, self.width[c]) as u32)
    }

    /// Compares row `r`'s key against `prefix` on the first
    /// `prefix.len()` columns.
    #[inline]
    fn cmp_prefix(&self, r: usize, prefix: &[u32]) -> std::cmp::Ordering {
        for (c, &p) in prefix.iter().enumerate() {
            match self.field(r, c).cmp(&p) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    }
}

/// The first index of `lo..hi` where `below` turns false, for a `below`
/// that holds on a prefix of the range and fails after it: a binary
/// search, forced inline into the probe so that its speed does not
/// depend on how the crate is split into codegen units.
#[inline(always)]
fn partition(lo: usize, hi: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut base, mut size) = (lo, hi.saturating_sub(lo));
    if size == 0 {
        return lo;
    }
    while size > 1 {
        let half = size / 2;
        if below(base + half) {
            base += half;
        }
        size -= half;
    }
    base + usize::from(below(base))
}

/// [`partition`] for a boundary expected close to `lo`: probes `lo`,
/// `lo + 2`, `lo + 6`, … doubling the step, then binary-searches the
/// last step, so a boundary `d` rows on costs about 2·log₂ d probes.
/// Once the gallop passes [`BLOCK`] rows it falls back to one binary
/// search of the rest, so a long range costs what a plain search does.
#[inline(always)]
fn gallop(lo: usize, hi: usize, below: impl Fn(usize) -> bool) -> usize {
    let (mut done, mut step) = (lo, 1);
    while done < hi && done - lo < BLOCK {
        let probe = (done + step).min(hi);
        if !below(probe - 1) {
            return partition(done, probe - 1, below);
        }
        done = probe;
        step *= 2;
    }
    partition(done, hi, below)
}

/// One permutation's sorted rows, in either layout.
#[derive(Debug)]
enum PermColumn {
    /// Inline key column + aligned id column (borrowable slices).
    Flat {
        keys: Vec<[TermId; 3]>,
        ids: Vec<TripleId>,
    },
    /// Delta-encoded bit-packed blocks behind a selection directory.
    Packed(PackedPerm),
}

impl Default for PermColumn {
    fn default() -> PermColumn {
        PermColumn::Flat {
            keys: Vec::new(),
            ids: Vec::new(),
        }
    }
}

impl PermColumn {
    /// Lays out rows already in key order.
    fn from_sorted(rows: Vec<Row>, layout: SegmentLayout) -> PermColumn {
        match layout {
            SegmentLayout::Flat => {
                let mut keys = Vec::with_capacity(rows.len());
                let mut ids = Vec::with_capacity(rows.len());
                for row in rows {
                    let [s, p, o, id] = unpack(row);
                    keys.push([s, p, o].map(TermId::from_raw));
                    ids.push(TripleId(id));
                }
                PermColumn::Flat { keys, ids }
            }
            SegmentLayout::Packed => PermColumn::Packed(PackedPerm::build(&rows)),
        }
    }

    /// Consumes the column into its rows in key order, ids shifted by
    /// `offset`: the sorted run a re-freeze merges.
    fn into_rows(self, offset: u32) -> Vec<Row> {
        match self {
            PermColumn::Flat { keys, ids } => keys
                .into_iter()
                .zip(ids)
                .map(|(key, id)| pack(key.map(TermId::raw), id.0 + offset))
                .collect(),
            PermColumn::Packed(p) => {
                let mut rows = Vec::with_capacity(p.len);
                let fields = p.rows();
                rows.extend(fields.map(|[k0, k1, k2, id]| pack([k0, k1, k2], id + offset)));
                rows
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            PermColumn::Flat { ids, .. } => ids.len(),
            PermColumn::Packed(p) => p.len,
        }
    }
}

/// A run of one permutation's rows sharing their first two key slots
/// that is longer than one block — the match set of an sp (SPO), po
/// (POS) or so (OSP) pattern — with the exact total and head emission
/// weight of its matches: summed and led in (weight desc, id asc) order,
/// the order [`crate::PostingList::build`] serves and totals them in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WidePair {
    /// The two key slots' raw values, high slot first.
    key: u64,
    pub(crate) total: f64,
    pub(crate) head: f64,
}

/// The runs of `rows` longer than [`BLOCK`] that share their first two
/// key slots, ascending by key: one pass over the merged rows, and one
/// ordering of each wide run's weights.
fn wide_pairs(rows: &[Row], weight: impl Fn(u32) -> f64) -> Vec<WidePair> {
    let mut out = Vec::new();
    for run in rows.chunk_by(|a, b| a >> 64 == b >> 64) {
        if run.len() <= BLOCK {
            continue;
        }
        let mut matches: Vec<(f64, u32)> = run.iter().map(|&r| (weight(r as u32), r as u32)).collect();
        matches.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        out.push(WidePair {
            key: (run[0] >> 64) as u64,
            total: matches.iter().map(|m| m.0).sum(),
            head: matches[0].0,
        });
    }
    out
}

/// Merges ascending runs of distinct values into one ascending run, the
/// two shortest first. Each merge walks its shorter run and copies the
/// stretch of the longer one before each insertion point whole.
pub(crate) fn merge_runs<T: Copy + Ord>(mut runs: Vec<Vec<T>>) -> Vec<T> {
    runs.sort_unstable_by_key(|run| std::cmp::Reverse(run.len()));
    let mut merged = runs.pop().unwrap_or_default();
    while let Some(run) = runs.pop() {
        let mut pair = [run, merged];
        pair.sort_unstable_by_key(Vec::len);
        let [short, long] = pair;
        let mut out = Vec::with_capacity(short.len() + long.len());
        let mut rest = &long[..];
        for &x in &short {
            let (before, after) = rest.split_at(rest.partition_point(|&y| y < x));
            out.extend_from_slice(before);
            out.push(x);
            rest = after;
        }
        out.extend_from_slice(rest);
        merged = out;
    }
    merged
}

/// The three columnar permutation indexes over a frozen triple table.
#[derive(Debug, Default)]
pub struct TripleIndex {
    perms: [PermColumn; 3],
    /// Per permutation, its two-slot key runs longer than one block
    /// ([`WidePair`]), ascending by key.
    wide: [Vec<WidePair>; 3],
    layout: SegmentLayout,
}

impl TripleIndex {
    /// Indexes `triples` from indexes that hold a prefix of them: each
    /// `(index, offset)` of `prefix` covers the next rows, its ids shifted
    /// by `offset`. Keys ignore weights, so only the rows past the prefix
    /// are sorted, then merged with the old columns, one permutation at a
    /// time (each on its own thread when `parallel`). The same pass over
    /// the merged rows records each permutation's wide pairs, weighted by
    /// `prov`.
    pub(crate) fn merge(
        triples: &[Triple],
        prov: &[Provenance],
        prefix: Vec<(TripleIndex, u32)>,
        layout: SegmentLayout,
        parallel: bool,
    ) -> TripleIndex {
        let covered: usize = prefix.iter().map(|(index, _)| index.len()).sum();
        let mut old: [Vec<(PermColumn, u32)>; 3] = Default::default();
        for (index, offset) in prefix {
            for (runs, column) in old.iter_mut().zip(index.perms) {
                runs.push((column, offset));
            }
        }
        let jobs = Permutation::ALL.into_iter().zip(old).map(|(perm, old)| {
            move || {
                let mut fresh: Vec<Row> = (covered..triples.len())
                    .map(|i| pack(perm.key(triples[i]).map(TermId::raw), i as u32))
                    .collect();
                fresh.sort_unstable();
                let mut runs = vec![fresh];
                for (column, offset) in old {
                    runs.push(column.into_rows(offset));
                }
                let rows = merge_runs(runs);
                let weight = |id: u32| prov.get(id as usize).map_or(0.0, Provenance::weight);
                let wide = wide_pairs(&rows, weight);
                (PermColumn::from_sorted(rows, layout), wide)
            }
        });
        let mut columns = run_jobs(jobs, parallel).into_iter();
        let mut index = TripleIndex {
            perms: Default::default(),
            wide: Default::default(),
            layout,
        };
        for (perm, wide) in index.perms.iter_mut().zip(&mut index.wide) {
            (*perm, *wide) = columns.next().unwrap_or_default();
        }
        index
    }

    /// The exact total and head weight of `pattern`'s matches when it
    /// binds exactly the first two key slots of its permutation (sp, po
    /// or so) and they match more than one block of rows; `None` for
    /// every other shape and for narrower pairs.
    pub(crate) fn wide_pair(&self, pattern: &SlotPattern) -> Option<WidePair> {
        let perm = Permutation::for_pattern(pattern);
        if pattern.bound_count() != 2 {
            return None;
        }
        let (prefix, _) = perm.prefix(pattern);
        let key = u64::from(prefix[0].raw()) << 32 | u64::from(prefix[1].raw());
        let wide = &self.wide[perm as usize];
        let at = wide.binary_search_by_key(&key, |w| w.key).ok()?;
        wide.get(at).copied()
    }

    /// Heap bytes of the wide-pair directory.
    pub(crate) fn wide_bytes(&self) -> usize {
        let entries: usize = self.wide.iter().map(Vec::capacity).sum();
        entries * std::mem::size_of::<WidePair>()
    }

    /// Number of indexed triples.
    pub(crate) fn len(&self) -> usize {
        self.perms[0].len()
    }

    /// The layout this index was built with.
    #[inline]
    pub fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// Returns the contiguous, sorted range of triple ids matching
    /// `pattern`. The range is over the permutation chosen by
    /// [`Permutation::for_pattern`]; the ids within it are in key order of
    /// that permutation, *not* in insertion order.
    ///
    /// Flat permutations return a borrowed slice (allocation-free);
    /// Packed ones decode the span into an owned vector. Join loops that
    /// probe repeatedly should prefer [`TripleIndex::lookup_in`] with a
    /// reused scratch buffer.
    pub fn lookup(&self, pattern: &SlotPattern) -> MatchIds<'_> {
        self.ids(pattern, self.span(pattern))
    }

    /// The ids of `pattern`'s permutation over `span`, a range
    /// [`TripleIndex::span`] returned for that pattern: borrowed on Flat,
    /// decoded on Packed.
    pub(crate) fn ids(&self, pattern: &SlotPattern, span: Range<usize>) -> MatchIds<'_> {
        match &self.perms[Permutation::for_pattern(pattern) as usize] {
            PermColumn::Flat { ids, .. } => MatchIds::Borrowed(&ids[span]),
            PermColumn::Packed(p) => {
                let mut out = Vec::new();
                p.decode_ids(span, &mut out);
                MatchIds::Owned(out)
            }
        }
    }

    /// [`TripleIndex::lookup`] into a caller-owned scratch buffer: Flat
    /// permutations still return the borrowed id column (the buffer is
    /// untouched), Packed ones decode into `buf` — so a join loop that
    /// reuses its buffer performs no per-probe allocation in either
    /// layout.
    pub fn lookup_in<'a>(
        &'a self,
        pattern: &SlotPattern,
        buf: &'a mut Vec<TripleId>,
    ) -> &'a [TripleId] {
        let span = self.span(pattern);
        match &self.perms[Permutation::for_pattern(pattern) as usize] {
            PermColumn::Flat { ids, .. } => &ids[span],
            PermColumn::Packed(p) => {
                p.decode_ids(span, buf);
                buf
            }
        }
    }

    /// The positions of `pattern`'s matches inside its permutation's
    /// columns. Because the posting index's anchored strata share the
    /// primary-key order of the SPO (subject-only) and OSP (object-only)
    /// permutations, this span doubles as the anchored group's range —
    /// the storage sharing that spares those strata a group directory.
    pub(crate) fn span(&self, pattern: &SlotPattern) -> Range<usize> {
        let perm = Permutation::for_pattern(pattern);
        let col = &self.perms[perm as usize];
        let (prefix, len) = perm.prefix(pattern);
        if len == 0 {
            return 0..col.len();
        }
        match col {
            PermColumn::Flat { keys, .. } => {
                let prefix = &prefix[..len];
                let lo = partition(0, keys.len(), |i| &keys[i][..len] < prefix);
                lo..gallop(lo, keys.len(), |i| &keys[i][..len] <= prefix)
            }
            PermColumn::Packed(p) => {
                let raw = [prefix[0].raw(), prefix[1].raw(), prefix[2].raw()];
                p.span(&raw[..len])
            }
        }
    }

    /// Number of triples matching `pattern` (exact, via the range bounds
    /// only — no id decode in either layout).
    pub fn count(&self, pattern: &SlotPattern) -> usize {
        self.span(pattern).len()
    }

    /// Heap bytes held by the three permutations, split into
    /// `(columns, directories)`: the key/id payloads versus the sparse
    /// selection directories and block metadata (Flat has no
    /// directories).
    pub fn heap_bytes(&self) -> (usize, usize) {
        let mut columns = 0;
        let mut directories = 0;
        for perm in &self.perms {
            match perm {
                PermColumn::Flat { keys, ids } => {
                    columns += keys.capacity() * std::mem::size_of::<[TermId; 3]>()
                        + ids.capacity() * std::mem::size_of::<TripleId>();
                }
                PermColumn::Packed(p) => {
                    let (c, d) = p.heap_bytes();
                    columns += c;
                    directories += d;
                }
            }
        }
        (columns, directories)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PARALLEL_BUILD_THRESHOLD;
    use crate::term::{TermId, TermKind};

    impl TripleIndex {
        /// A fresh index over `triples`: a merge with nothing to merge.
        fn build_with(triples: &[Triple], layout: SegmentLayout) -> TripleIndex {
            let parallel = triples.len() >= PARALLEL_BUILD_THRESHOLD;
            TripleIndex::merge(triples, &[], Vec::new(), layout, parallel)
        }
    }

    fn tid(i: u32) -> TermId {
        TermId::new(TermKind::Resource, i)
    }

    fn sample() -> Vec<Triple> {
        vec![
            Triple::new(tid(1), tid(10), tid(2)), // Einstein bornIn Ulm
            Triple::new(tid(2), tid(11), tid(3)), // Ulm locatedIn Germany
            Triple::new(tid(1), tid(12), tid(4)), // Einstein affiliation IAS
            Triple::new(tid(5), tid(10), tid(2)), // Other bornIn Ulm
            Triple::new(tid(1), tid(10), tid(6)), // Einstein bornIn X (noise)
        ]
    }

    #[test]
    fn permutation_choice_covers_bound_prefix() {
        for mask in 0u8..8 {
            let mk = |bit: u8| (mask & bit != 0).then(|| tid(0));
            let pat = SlotPattern::new(mk(1), mk(2), mk(4));
            let perm = Permutation::for_pattern(&pat);
            // Every bound slot must appear before every wildcard slot in the
            // permutation order for the range lookup to be contiguous.
            let order = perm.order();
            let bound = [pat.s.is_some(), pat.p.is_some(), pat.o.is_some()];
            let mut seen_wild = false;
            for slot in order {
                if bound[slot] {
                    assert!(!seen_wild, "mask {mask:#05b}: bound slot after wildcard");
                } else {
                    seen_wild = true;
                }
            }
        }
    }

    #[test]
    fn lookup_matches_linear_scan_for_every_shape() {
        let triples = sample();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let idx = TripleIndex::build_with(&triples, layout);
            let terms: Vec<Option<TermId>> = vec![None, Some(tid(1)), Some(tid(10)), Some(tid(2))];
            for &s in &terms {
                for &p in &terms {
                    for &o in &terms {
                        let pat = SlotPattern::new(s, p, o);
                        let mut got: Vec<u32> = idx.lookup(&pat).iter().map(|t| t.0).collect();
                        got.sort_unstable();
                        let mut want: Vec<u32> = triples
                            .iter()
                            .enumerate()
                            .filter(|(_, t)| pat.matches(**t))
                            .map(|(i, _)| i as u32)
                            .collect();
                        want.sort_unstable();
                        assert_eq!(got, want, "pattern {pat} ({layout:?})");
                    }
                }
            }
        }
    }

    #[test]
    fn lookup_range_is_in_permutation_key_order() {
        let triples = sample();
        let idx = TripleIndex::build_with(&triples, SegmentLayout::Flat);
        let pat = SlotPattern::with_p(tid(10));
        let perm = Permutation::for_pattern(&pat);
        let keys: Vec<[TermId; 3]> = idx
            .lookup(&pat)
            .iter()
            .map(|&id| perm.key(triples[id.idx()]))
            .collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn count_equals_lookup_len() {
        let triples = sample();
        let idx = TripleIndex::build_with(&triples, SegmentLayout::Flat);
        let pat = SlotPattern::with_p(tid(10));
        assert_eq!(idx.count(&pat), 3);
    }

    #[test]
    fn empty_table() {
        let triples: Vec<Triple> = Vec::new();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let idx = TripleIndex::build_with(&triples, layout);
            assert_eq!(idx.lookup(&SlotPattern::any()).len(), 0);
        }
    }

    #[test]
    fn no_match_returns_empty_range() {
        let triples = sample();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let idx = TripleIndex::build_with(&triples, layout);
            let pat = SlotPattern::with_p(tid(99));
            assert!(idx.lookup(&pat).is_empty());
        }
    }

    #[test]
    fn parallel_build_agrees_with_sequential() {
        // Cross the parallel threshold and compare against matches().
        let n = PARALLEL_BUILD_THRESHOLD as u32 + 100;
        let triples: Vec<Triple> = (0..n)
            .map(|i| Triple::new(tid(i % 97), tid(i % 7), tid(i)))
            .collect();
        for layout in [SegmentLayout::Flat, SegmentLayout::Packed] {
            let idx = TripleIndex::build_with(&triples, layout);
            let pat = SlotPattern::with_p(tid(3));
            let got = idx.lookup(&pat).len();
            let want = triples.iter().filter(|t| pat.matches(**t)).count();
            assert_eq!(got, want);
        }
    }

    /// Packed probes agree with Flat across block boundaries: a table
    /// several blocks long, shapes anchored at every subject.
    #[test]
    fn packed_agrees_with_flat_across_blocks() {
        let triples: Vec<Triple> = (0..(BLOCK as u32 * 5 + 17))
            .map(|i| Triple::new(tid(i % 211), tid(i % 13), tid(i * 7 % 509)))
            .collect();
        let flat = TripleIndex::build_with(&triples, SegmentLayout::Flat);
        let packed = TripleIndex::build_with(&triples, SegmentLayout::Packed);
        let mut buf = Vec::new();
        for s in 0..211u32 {
            for pat in [
                SlotPattern::new(Some(tid(s)), None, None),
                SlotPattern::new(Some(tid(s)), Some(tid(s % 13)), None),
                SlotPattern::new(None, None, Some(tid(s))),
            ] {
                assert_eq!(flat.span(&pat), packed.span(&pat), "span {pat}");
                let want: Vec<TripleId> = flat.lookup(&pat).to_vec();
                assert_eq!(&*packed.lookup(&pat), &want[..], "lookup {pat}");
                assert_eq!(packed.lookup_in(&pat, &mut buf), &want[..], "lookup_in {pat}");
            }
        }
    }

    #[test]
    fn packed_shrinks_the_index() {
        let triples: Vec<Triple> = (0..20_000u32)
            .map(|i| Triple::new(tid(i % 2003), tid(i % 17), tid(i * 31 % 4001)))
            .collect();
        let (flat_cols, flat_dirs) =
            TripleIndex::build_with(&triples, SegmentLayout::Flat).heap_bytes();
        let (packed_cols, packed_dirs) =
            TripleIndex::build_with(&triples, SegmentLayout::Packed).heap_bytes();
        assert_eq!(flat_dirs, 0);
        let flat_total = flat_cols + flat_dirs;
        let packed_total = packed_cols + packed_dirs;
        assert!(
            packed_total * 2 < flat_total,
            "packed {packed_total} vs flat {flat_total}"
        );
    }
}
