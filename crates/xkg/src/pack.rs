//! Bit-packing primitives for the compact (`Packed`) segment layout.
//!
//! A [`BitWriter`] appends fixed-width little-endian bit fields to a
//! shared `u64` word stream; [`read_bits`] extracts a field at an
//! arbitrary bit offset. Widths span `0..=64` — width 0 stores nothing
//! (every value in the run equals the block reference) and width 64 is
//! a raw copy. On top of that, [`PackedInts`] stores a whole column at
//! one fixed width (used for posting-stratum triple ids, whose width is
//! `ceil_log2` of the segment length).
//!
//! All readers are branch-light and allocation-free: a field spans at
//! most two words, so a read is one or two shifts plus a mask. Nothing
//! here panics on out-of-range offsets in release serving paths —
//! callers index within lengths they recorded at build time.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

/// Physical layout of a frozen segment's permutation and posting
/// structures.
///
/// `Flat` keeps every column borrowable in memory (16 B/triple per
/// permutation, 32 B/triple per posting stratum) — the right choice for
/// small hot segments such as ingest deltas, which are rebuilt
/// constantly and queried while warm. `Packed` stores bit-packed delta
/// blocks behind sparse directories plus quantized posting weights
/// (u16 log-domain codes with exact per-group `f64` scaffolding) —
/// roughly 3–4× fewer index bytes per triple, chosen for frozen base
/// segments. Query answers are identical in both layouts, bit for bit;
/// only the serving mechanics differ (borrowed slices versus views that
/// decode each entry as it is read).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentLayout {
    /// Borrowable flat columns; maximal speed, maximal bytes.
    #[default]
    Flat,
    /// Bit-packed delta blocks + quantized weights; ~3–4× fewer bytes.
    Packed,
}

impl SegmentLayout {
    /// True for the Flat layout.
    #[inline]
    pub fn is_flat(self) -> bool {
        matches!(self, SegmentLayout::Flat)
    }
}

/// Number of bits needed to represent `v` (0 for 0).
#[inline]
pub fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Appends fixed-width fields to a `u64` word stream.
#[derive(Debug, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    /// Total bits written.
    len_bits: u64,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Current length in bits — the offset the next `push` lands at.
    #[inline]
    pub fn len_bits(&self) -> u64 {
        self.len_bits
    }

    /// Appends the low `width` bits of `v`. Bits of `v` above `width`
    /// must be zero (callers subtract the block reference first).
    pub fn push(&mut self, v: u64, width: u8) {
        debug_assert!(width == 64 || v < (1u64 << width), "value wider than field");
        if width == 0 {
            return;
        }
        let bit = (self.len_bits % 64) as u32;
        match self.words.last_mut() {
            // A non-zero bit offset implies a previous push created the
            // word being appended to.
            Some(last) if bit != 0 => {
                *last |= v << bit;
                if u32::from(width) + bit > 64 {
                    self.words.push(v >> (64 - bit));
                }
            }
            _ => self.words.push(v),
        }
        self.len_bits += u64::from(width);
    }

    /// Freezes the stream into its word vector, trimmed to fit: the
    /// doubling capacity the pushes grew is real heap the frozen
    /// segment would otherwise hold (and `heap_bytes` count) forever.
    pub fn finish(self) -> Vec<u64> {
        let mut words = self.words;
        words.shrink_to_fit();
        words
    }
}

/// Reads the `width`-bit field at bit offset `bit` from `words`.
///
/// Out-of-range reads return 0 rather than panicking — the packed
/// readers live on serving paths and must degrade, not abort.
#[inline]
pub fn read_bits(words: &[u64], bit: u64, width: u8) -> u64 {
    if width == 0 {
        return 0;
    }
    let word = (bit / 64) as usize;
    let shift = (bit % 64) as u32;
    let Some(&lo) = words.get(word) else { return 0 };
    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
    let mut v = lo >> shift;
    if shift + u32::from(width) > 64 {
        let hi = words.get(word + 1).copied().unwrap_or(0);
        v |= hi << (64 - shift);
    }
    v & mask
}

/// A column of `u64` values stored at one fixed bit width.
///
/// Random access is O(1); the width is chosen once at build time
/// (`ceil_log2(max + 1)`), so the column never stores more bits than
/// its largest value needs.
#[derive(Debug, Clone)]
pub struct PackedInts {
    words: Vec<u64>,
    width: u8,
    len: usize,
}

impl PackedInts {
    /// Packs `values` at the minimal fixed width covering their maximum.
    pub fn from_values(values: impl ExactSizeIterator<Item = u64> + Clone) -> PackedInts {
        let width = bits_for(values.clone().max().unwrap_or(0));
        let mut w = BitWriter::new();
        let len = values.len();
        for v in values {
            w.push(v, width);
        }
        PackedInts {
            words: w.finish(),
            width,
            len,
        }
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed field width in bits.
    #[inline]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// The value at `i` (0 when `i` is out of range — packed readers
    /// degrade rather than panic on serving paths).
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        if i >= self.len {
            return 0;
        }
        read_bits(&self.words, i as u64 * u64::from(self.width), self.width)
    }

    /// Heap bytes held by the word stream.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

    #[test]
    fn bits_for_boundaries() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u64::MAX), 64);
    }

    /// Round-trip at every width 0..=64, with values crossing word
    /// boundaries (the count is coprime to 64 so fields straddle).
    #[test]
    fn round_trip_every_width() {
        for width in 0u8..=64 {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..131u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & mask)
                .collect();
            let mut w = BitWriter::new();
            for &v in &values {
                w.push(v, width);
            }
            let words = w.finish();
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(
                    read_bits(&words, i as u64 * u64::from(width), width),
                    v,
                    "width {width} index {i}"
                );
            }
        }
    }

    #[test]
    fn mixed_width_stream_round_trips() {
        let mut rng = StdRng::seed_from_u64(0xE13);
        let mut fields: Vec<(u64, u8)> = Vec::new();
        let mut w = BitWriter::new();
        let mut offsets = Vec::new();
        for _ in 0..500 {
            let width = rng.gen_range(0u8..65);
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width).wrapping_sub(1)
            };
            let v = rng.next_u64() & mask;
            offsets.push(w.len_bits());
            w.push(v, width);
            fields.push((v, width));
        }
        let words = w.finish();
        for (i, &(v, width)) in fields.iter().enumerate() {
            assert_eq!(read_bits(&words, offsets[i], width), v, "field {i}");
        }
    }

    #[test]
    fn packed_ints_round_trip_and_degrade() {
        let values: Vec<u64> = (0..300).map(|i| (i * 37) % 1000).collect();
        let col = PackedInts::from_values(values.iter().copied());
        assert_eq!(col.len(), 300);
        assert_eq!(col.width(), bits_for(999));
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(col.get(i), v);
        }
        // Out-of-range reads degrade to 0.
        assert_eq!(col.get(300), 0);
        assert_eq!(read_bits(&[], 0, 17), 0);
    }

    #[test]
    fn packed_ints_empty_and_zero() {
        let empty = PackedInts::from_values([].into_iter());
        assert!(empty.is_empty());
        assert_eq!(empty.get(0), 0);
        let zeros = PackedInts::from_values([0u64; 10].into_iter());
        assert_eq!(zeros.width(), 0);
        assert_eq!(zeros.get(7), 0);
        assert_eq!(zeros.len(), 10);
    }
}
