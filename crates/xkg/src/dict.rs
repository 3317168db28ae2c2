//! String interning for XKG terms and provenance sources.
//!
//! Every term string is interned exactly once per [`TermKind`]; the dense
//! index it receives is embedded in its [`TermId`]. Interning is
//! append-only: the XKG data model never deletes terms, which keeps ids
//! stable across the lifetime of a store.
//!
//! Because nothing is ever removed, a table is stored as a *persistent*
//! structure: a list of sealed, immutable layers behind `Arc`s plus one
//! open tail that new strings land in. Cloning copies the layer handles
//! and the (usually empty) tail, so a frozen store and the live delta
//! built on top of it share every sealed string — the write path pays
//! for the strings a batch adds, never for the vocabulary it extends.
//! Ids are dense and issued in interning order whatever the layering, so
//! they are exactly the ids one flat table would have issued.

use std::collections::HashMap;
use std::sync::Arc;

use crate::term::{TermId, TermKind};
use crate::triple::SourceId;

/// One run of consecutively interned strings: a sealed layer, or the
/// open tail.
#[derive(Debug, Clone, Default)]
struct Layer {
    /// Dense index of this layer's first string.
    start: u32,
    strings: Vec<Box<str>>,
    /// Text → dense index (table-wide, not layer-relative).
    lookup: HashMap<Box<str>, u32>,
    /// Sum of the string lengths, kept so byte accounting is O(1).
    payload: usize,
}

impl Layer {
    fn starting_at(start: u32) -> Layer {
        Layer {
            start,
            ..Layer::default()
        }
    }

    fn push(&mut self, text: &str) -> u32 {
        let idx =
            u32::try_from(self.start as usize + self.strings.len()).expect("dictionary overflow");
        let boxed: Box<str> = text.into();
        self.payload += boxed.len();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, idx);
        idx
    }

    /// Heap bytes: string payloads (stored twice, in the resolve vector
    /// and the lookup key) plus table capacities.
    fn heap_bytes(&self) -> usize {
        self.payload * 2
            + self.strings.capacity() * std::mem::size_of::<Box<str>>()
            + self.lookup.capacity()
                * (std::mem::size_of::<Box<str>>() + std::mem::size_of::<u32>())
    }
}

/// An append-only string table issuing dense `u32` indexes: sealed
/// shared layers plus an open tail (see the module docs).
#[derive(Debug, Clone, Default)]
struct Interner {
    sealed: Vec<Arc<Layer>>,
    tail: Layer,
}

impl Interner {
    fn len(&self) -> usize {
        self.tail.start as usize + self.tail.strings.len()
    }

    fn get(&self, text: &str) -> Option<u32> {
        self.sealed
            .iter()
            .find_map(|layer| layer.lookup.get(text))
            .or_else(|| self.tail.lookup.get(text))
            .copied()
    }

    fn intern(&mut self, text: &str) -> u32 {
        if let Some(idx) = self.get(text) {
            return idx;
        }
        self.tail.push(text)
    }

    fn resolve(&self, idx: u32) -> Option<&str> {
        let layer = if idx >= self.tail.start {
            &self.tail
        } else {
            self.sealed.iter().rev().find(|layer| layer.start <= idx)?
        };
        layer
            .strings
            .get((idx - layer.start) as usize)
            .map(AsRef::as_ref)
    }

    /// Seals the open tail into a shared layer, making `clone` O(layers).
    fn seal(&mut self) {
        if self.tail.strings.is_empty() {
            return;
        }
        let next = Layer::starting_at(self.len() as u32);
        self.sealed
            .push(Arc::new(std::mem::replace(&mut self.tail, next)));
    }

    /// Seals everything into a single layer, so lookups stay one probe
    /// however many times the table was extended. Later layers are
    /// appended onto the first; when that one is no longer shared
    /// (compaction has dropped the store it was frozen into) nothing
    /// already in it is copied.
    fn flatten(&mut self) {
        self.seal();
        if self.sealed.len() <= 1 {
            return;
        }
        let mut layers = std::mem::take(&mut self.sealed).into_iter();
        let mut merged = layers.next().map(Arc::unwrap_or_clone).unwrap_or_default();
        for layer in layers {
            let layer = Arc::unwrap_or_clone(layer);
            merged.payload += layer.payload;
            merged.strings.extend(layer.strings);
            merged.lookup.extend(layer.lookup);
        }
        // Sealed for good: give back the growth slack.
        merged.strings.shrink_to_fit();
        self.sealed.push(Arc::new(merged));
    }

    fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.sealed
            .iter()
            .map(|layer| &**layer)
            .chain(std::iter::once(&self.tail))
            .flat_map(|layer| layer.strings.iter())
            .zip(0u32..)
            .map(|(s, idx)| (idx, s.as_ref()))
    }

    fn heap_bytes(&self) -> usize {
        self.sealed.iter().map(|l| l.heap_bytes()).sum::<usize>() + self.tail.heap_bytes()
    }

    /// Heap bytes of the layers `base` does not share, plus the tail.
    fn heap_bytes_beyond(&self, base: &Interner) -> usize {
        let own = self
            .sealed
            .iter()
            .filter(|layer| !base.sealed.iter().any(|b| Arc::ptr_eq(b, layer)));
        own.map(|l| l.heap_bytes()).sum::<usize>() + self.tail.heap_bytes()
    }
}

/// Interning dictionary mapping term strings to [`TermId`]s and back.
///
/// # Examples
///
/// ```
/// use trinit_xkg::{TermDict, TermKind};
///
/// let mut dict = TermDict::new();
/// let einstein = dict.intern(TermKind::Resource, "AlbertEinstein");
/// let phrase = dict.intern(TermKind::Token, "won Nobel for");
///
/// assert_eq!(dict.resolve(einstein), Some("AlbertEinstein"));
/// assert_eq!(dict.resolve(phrase), Some("won Nobel for"));
/// assert_ne!(einstein, phrase);
/// // Interning is idempotent.
/// assert_eq!(dict.intern(TermKind::Resource, "AlbertEinstein"), einstein);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermDict {
    tables: [Interner; 3],
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// Interns `text` under `kind`, returning its stable id.
    ///
    /// Repeated calls with the same `(kind, text)` return the same id.
    /// The same string interned under different kinds yields distinct ids:
    /// the resource `Princeton` and the token `'Princeton'` are different
    /// terms.
    pub fn intern(&mut self, kind: TermKind, text: &str) -> TermId {
        let idx = self.tables[kind as usize].intern(text);
        TermId::new(kind, idx)
    }

    /// Convenience for [`TermDict::intern`] with [`TermKind::Resource`].
    pub fn resource(&mut self, text: &str) -> TermId {
        self.intern(TermKind::Resource, text)
    }

    /// Convenience for [`TermDict::intern`] with [`TermKind::Token`].
    pub fn token(&mut self, text: &str) -> TermId {
        self.intern(TermKind::Token, text)
    }

    /// Convenience for [`TermDict::intern`] with [`TermKind::Literal`].
    pub fn literal(&mut self, text: &str) -> TermId {
        self.intern(TermKind::Literal, text)
    }

    /// Looks up an already-interned term without inserting.
    pub fn get(&self, kind: TermKind, text: &str) -> Option<TermId> {
        self.tables[kind as usize]
            .get(text)
            .map(|idx| TermId::new(kind, idx))
    }

    /// Resolves an id back to its string, or `None` if the id was not issued
    /// by this dictionary.
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        self.tables[id.kind() as usize].resolve(id.index())
    }

    /// Number of distinct terms interned under `kind`.
    pub fn len_of(&self, kind: TermKind) -> usize {
        self.tables[kind as usize].len()
    }

    /// Total number of distinct terms across all kinds.
    pub fn len(&self) -> usize {
        self.tables.iter().map(Interner::len).sum()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held by the dictionary: string payloads (stored twice,
    /// in the resolve vector and the lookup key) plus table capacities.
    /// Layers shared with another dictionary are counted in full; see
    /// [`TermDict::heap_bytes_beyond`] for the unshared remainder.
    pub fn heap_bytes(&self) -> usize {
        self.tables.iter().map(Interner::heap_bytes).sum()
    }

    /// Heap bytes this dictionary holds beyond what it shares with
    /// `base` (the dictionary it was cloned from): what a live delta's
    /// vocabulary costs on top of its frozen base's, so summing the two
    /// counts every shared layer once.
    pub fn heap_bytes_beyond(&self, base: &TermDict) -> usize {
        self.tables
            .iter()
            .zip(&base.tables)
            .map(|(own, base)| own.heap_bytes_beyond(base))
            .sum()
    }

    /// Seals every open tail into a shared layer, after which `clone`
    /// copies layer handles only. Called when a builder freezes.
    pub(crate) fn seal(&mut self) {
        self.tables.iter_mut().for_each(Interner::seal);
    }

    /// Seals everything into one layer per kind, so lookups stay one
    /// probe however often the dictionary was extended. Called at
    /// compaction, when the first layer is normally unshared and is
    /// extended in place.
    pub(crate) fn flatten(&mut self) {
        self.tables.iter_mut().for_each(Interner::flatten);
    }

    /// Iterates `(id, text)` pairs of a kind in interning order.
    pub fn iter_kind(&self, kind: TermKind) -> impl Iterator<Item = (TermId, &str)> {
        self.tables[kind as usize]
            .iter()
            .map(move |(idx, s)| (TermId::new(kind, idx), s))
    }

    /// Iterates all `(id, text)` pairs across kinds.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        TermKind::ALL.into_iter().flat_map(|k| self.iter_kind(k))
    }
}

/// The provenance source table: document identifiers interned into
/// dense [`SourceId`]s. Append-only and layered exactly like
/// [`TermDict`], so a delta extends a frozen store's table without
/// copying it.
#[derive(Debug, Clone, Default)]
pub struct SourceTable {
    names: Interner,
}

impl SourceTable {
    /// Interns a source name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> SourceId {
        SourceId(self.names.intern(name))
    }

    /// Resolves a source id to its document identifier.
    pub fn name(&self, id: SourceId) -> Option<&str> {
        self.names.resolve(id.0)
    }

    /// Number of interned sources.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no source has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates `(id, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.names.iter().map(|(idx, s)| (SourceId(idx), s))
    }

    /// See [`TermDict::seal`].
    pub(crate) fn seal(&mut self) {
        self.names.seal();
    }

    /// See [`TermDict::flatten`].
    pub(crate) fn flatten(&mut self) {
        self.names.flatten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.resource("Ulm");
        let b = d.resource("Ulm");
        assert_eq!(a, b);
        assert_eq!(d.len_of(TermKind::Resource), 1);
    }

    #[test]
    fn kinds_are_separate_namespaces() {
        let mut d = TermDict::new();
        let r = d.resource("Princeton");
        let t = d.token("Princeton");
        let l = d.literal("Princeton");
        assert_ne!(r, t);
        assert_ne!(t, l);
        assert_eq!(d.resolve(r), Some("Princeton"));
        assert_eq!(d.resolve(t), Some("Princeton"));
        assert_eq!(d.resolve(l), Some("Princeton"));
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn get_does_not_insert() {
        let mut d = TermDict::new();
        assert_eq!(d.get(TermKind::Resource, "IAS"), None);
        assert_eq!(d.len(), 0);
        let id = d.resource("IAS");
        assert_eq!(d.get(TermKind::Resource, "IAS"), Some(id));
    }

    #[test]
    fn resolve_unknown_id_is_none() {
        let d = TermDict::new();
        assert_eq!(d.resolve(TermId::new(TermKind::Token, 9)), None);
    }

    #[test]
    fn iteration_preserves_interning_order() {
        let mut d = TermDict::new();
        d.resource("a");
        d.resource("b");
        d.token("c");
        let resources: Vec<&str> = d.iter_kind(TermKind::Resource).map(|(_, s)| s).collect();
        assert_eq!(resources, vec!["a", "b"]);
        assert_eq!(d.iter().count(), 3);
    }

    #[test]
    fn empty_dictionary() {
        let d = TermDict::new();
        assert!(d.is_empty());
        assert_eq!(d.iter().count(), 0);
    }

    #[test]
    fn clone_of_a_sealed_dictionary_shares_its_layers() {
        let mut d = TermDict::new();
        for i in 0..50 {
            d.resource(&format!("r{i}"));
            d.token(&format!("t{i}"));
        }
        d.seal();
        let mut c = d.clone();
        for (own, cloned) in d.tables.iter().zip(&c.tables) {
            assert_eq!(own.sealed.len(), cloned.sealed.len());
            for (a, b) in own.sealed.iter().zip(&cloned.sealed) {
                assert!(Arc::ptr_eq(a, b), "a sealed layer was copied");
            }
            assert!(cloned.tail.strings.is_empty());
        }
        // The clone extends the shared vocabulary without touching it.
        let fresh = c.resource("fresh");
        assert_eq!(fresh.index(), 50);
        assert_eq!(c.resolve(fresh), Some("fresh"));
        assert_eq!(d.get(TermKind::Resource, "fresh"), None);
        assert_eq!(c.resource("r7"), d.get(TermKind::Resource, "r7").unwrap());
    }

    /// A deterministic xorshift — the interleavings below need variety,
    /// not quality.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn layering_never_changes_ids() {
        for seed in 1..=40u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut layered = Interner::default();
            let mut flat = Interner::default();
            let mut held = Vec::new();
            for _ in 0..300 {
                match next(&mut state) % 8 {
                    0 => layered.seal(),
                    1 => layered.flatten(),
                    // Continue on a clone; the original stays alive, so
                    // the next flatten has to copy the layers they share.
                    2 => {
                        let clone = layered.clone();
                        held.push(std::mem::replace(&mut layered, clone));
                    }
                    _ => {}
                }
                let text = format!("s{}", next(&mut state) % 120);
                assert_eq!(layered.intern(&text), flat.intern(&text), "seed {seed}");
            }
            assert_eq!(layered.len(), flat.len());
            let both = layered.iter().zip(flat.iter());
            for ((i, a), (j, b)) in both {
                assert_eq!((i, a), (j, b), "seed {seed}");
                assert_eq!(layered.resolve(i), Some(a));
                assert_eq!(layered.get(a), Some(i));
            }
            assert_eq!(layered.resolve(layered.len() as u32), None);
        }
    }

    #[test]
    fn flatten_leaves_one_layer_and_extends_an_unshared_one_in_place() {
        let mut t = Interner::default();
        t.intern("a");
        t.intern("b");
        t.seal();
        let first = t.sealed[0].strings[0].as_ptr();
        t.intern("c");
        t.seal();
        t.intern("d");
        t.flatten();
        assert_eq!(t.sealed.len(), 1);
        assert!(t.tail.strings.is_empty());
        assert_eq!(
            t.sealed[0].strings[0].as_ptr(),
            first,
            "sole owner: strings moved, not copied"
        );
        assert_eq!(t.sealed[0].payload, 4);
        assert_eq!(t.intern("d"), 3);
        assert_eq!(t.intern("e"), 4);
    }

    #[test]
    fn heap_bytes_beyond_counts_a_shared_layer_once() {
        let mut base = TermDict::new();
        for i in 0..200 {
            base.resource(&format!("resource-{i}"));
        }
        base.seal();
        let mut delta = base.clone();
        assert_eq!(delta.heap_bytes_beyond(&base), 0, "nothing added yet");
        delta.resource("added-by-the-delta");
        delta.token("so is this");
        let added = delta.heap_bytes_beyond(&base);
        assert!(added > 0);
        assert_eq!(base.heap_bytes() + added, delta.heap_bytes());
        // Sealing the delta's tail moves bytes between layers, not in or
        // out of the total.
        delta.seal();
        assert_eq!(delta.heap_bytes_beyond(&base), added);
        assert_eq!(delta.heap_bytes_beyond(&delta.clone()), 0);
    }

    #[test]
    fn source_table_round_trips() {
        let mut t = SourceTable::default();
        let a = t.intern("doc-a");
        t.seal();
        let mut u = t.clone();
        let b = u.intern("doc-b");
        assert_eq!(u.intern("doc-a"), a);
        assert_eq!((a, b), (SourceId(0), SourceId(1)));
        assert_eq!(u.name(b), Some("doc-b"));
        assert_eq!(t.name(b), None);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            vec![(a, "doc-a"), (b, "doc-b")]
        );
        u.flatten();
        assert_eq!((u.len(), t.len()), (2, 1));
    }
}
