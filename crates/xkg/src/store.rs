//! The extended knowledge graph store.
//!
//! [`XkgBuilder`] accumulates deduplicated triples with merged provenance;
//! [`XkgBuilder::build`] freezes them into an [`XkgStore`] with its three
//! permutation indexes. The store is immutable after build, which is the
//! access pattern of the paper's system: the XKG is materialized offline
//! (KG load + Open IE extraction), then queried interactively.

// A serving hot path: degrade or return a typed error, never panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::dict::{SourceTable, TermDict};
use crate::index::{MatchIds, TripleIndex};
use crate::pack::SegmentLayout;
use crate::pattern::SlotPattern;
use crate::posting::{GroupKey, PostingIndex, PostingList};
use crate::stats::StorageBytes;
use crate::term::{TermId, TermKind};
use crate::triple::{GraphTag, Provenance, SourceId, Triple, TripleId};

/// Ingestion-time validation failure.
///
/// Emission weights are `support × confidence`; a non-finite confidence
/// would otherwise surface as a NaN/∞ weight deep inside the posting
/// index build. Validation happens where the fact enters the builder, so
/// the error names the offending triple instead of a sort comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum XkgError {
    /// The provenance carried a NaN or infinite confidence.
    NonFiniteConfidence {
        /// The triple whose provenance was rejected.
        triple: Triple,
        /// The offending confidence value.
        confidence: f32,
    },
}

impl fmt::Display for XkgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XkgError::NonFiniteConfidence { triple, confidence } => write!(
                f,
                "non-finite extraction confidence {confidence} for triple \
                 {:?} {:?} {:?}",
                triple.s, triple.p, triple.o
            ),
        }
    }
}

impl std::error::Error for XkgError {}

/// Accumulates triples and provenance before freezing into an [`XkgStore`].
#[derive(Debug, Clone, Default)]
pub struct XkgBuilder {
    dict: TermDict,
    triples: Vec<Triple>,
    prov: Vec<Provenance>,
    dedup: HashMap<Triple, TripleId>,
    sources: SourceTable,
}

/// One slice's payload columns: `triples[i]` and its provenance are the
/// triple with local id `i`.
pub(crate) type Columns = (Vec<Triple>, Vec<Provenance>);

/// What one freeze starts from: a slice's rows in id order, the indexes
/// already holding a prefix of them in sorted runs (none for a fresh
/// build), and the prefix rows whose provenance changed since.
#[derive(Debug, Default)]
pub(crate) struct Part {
    pub(crate) columns: Columns,
    /// Each run covers the next rows of `columns`, in order.
    pub(crate) runs: Vec<(TripleIndex, PostingIndex)>,
    /// Prefix rows whose place in the weight-ordered strata is stale
    /// (ids past the prefix are appended rows anyway).
    pub(crate) changed: Vec<TripleId>,
}

impl Part {
    /// Rows a freeze of this part sorts, at most: changed and appended.
    fn unsorted(&self) -> usize {
        let covered: usize = self.runs.iter().map(|(index, _)| index.len()).sum();
        self.columns.0.len() - covered + self.changed.len()
    }
}

/// Below this many rows to sort, a freeze runs its column builds in
/// order; above it, each on its own scoped thread.
pub(crate) const PARALLEL_BUILD_THRESHOLD: usize = 4096;

/// Runs independent freeze jobs in order, or each on its own scoped
/// thread when `parallel`; results come back in job order. A job that
/// panics on its thread panics the caller with the job's own payload,
/// as it would have in order.
pub(crate) fn run_jobs<T: Send>(
    jobs: impl IntoIterator<Item = impl FnOnce() -> T + Send>,
    parallel: bool,
) -> Vec<T> {
    if !parallel {
        return jobs.into_iter().map(|job| job()).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs.into_iter().map(|job| scope.spawn(job)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    })
}

/// A weight sanitized into `[0, 1]`: negative clamps to 0, NaN and −∞
/// collapse to 0, +∞ to 1.
fn sanitize(confidence: f32) -> f32 {
    if confidence.is_finite() {
        confidence.clamp(0.0, 1.0)
    } else if confidence == f32::INFINITY {
        1.0
    } else {
        0.0
    }
}

/// The id the next triple appended to a `len`-triple table receives.
#[expect(clippy::expect_used, reason = "build-path capacity guard: triple ids are u32, so a 2^32nd triple cannot be stored; no query reaches it")]
pub(crate) fn next_triple_id(len: usize) -> TripleId {
    TripleId(u32::try_from(len).expect("triple overflow"))
}

impl XkgBuilder {
    /// Creates an empty builder.
    pub fn new() -> XkgBuilder {
        XkgBuilder::default()
    }

    /// Creates a builder whose interning context extends an existing
    /// store's: clones of its append-only term dictionary and source
    /// table, which share every sealed layer with the originals (O(1) in
    /// the vocabulary size). Every id already issued by the originating
    /// store keeps resolving identically here, and new terms get fresh
    /// ids past the store's — which is what lets a mutable delta segment
    /// share a frozen base segment's id spaces (see
    /// [`LiveDelta`](crate::LiveDelta)).
    pub fn with_context(dict: TermDict, sources: &SourceTable) -> XkgBuilder {
        XkgBuilder::over(dict, sources.clone())
    }

    /// An empty builder that takes over an interning context by value —
    /// the batch builder a [`LiveDelta`](crate::LiveDelta) hands to an
    /// ingest's `fill`.
    pub(crate) fn over(dict: TermDict, sources: SourceTable) -> XkgBuilder {
        XkgBuilder {
            dict,
            sources,
            ..XkgBuilder::default()
        }
    }

    /// Splits the builder into its interning context and its columns.
    pub(crate) fn into_parts(self) -> (TermDict, SourceTable, Columns) {
        (self.dict, self.sources, (self.triples, self.prov))
    }

    /// Mutable access to the term dictionary for interning.
    pub fn dict_mut(&mut self) -> &mut TermDict {
        &mut self.dict
    }

    /// Read access to the term dictionary.
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// Interns a provenance source (document identifier / URL).
    pub fn intern_source(&mut self, name: &str) -> SourceId {
        self.sources.intern(name)
    }

    /// Adds a triple with explicit provenance, merging with any existing
    /// record for the same `(s, p, o)`.
    ///
    /// Weights are sanitized rather than rejected: a negative confidence
    /// clamps to 0, a non-finite one collapses to the nearest bound (NaN
    /// and −∞ to 0, +∞ to 1). Use [`XkgBuilder::try_add`] to surface a
    /// typed error for non-finite confidences instead.
    pub fn add(&mut self, triple: Triple, mut prov: Provenance) -> TripleId {
        prov.confidence = sanitize(prov.confidence);
        self.insert(triple, prov)
    }

    /// Like [`XkgBuilder::add`], but a NaN or infinite confidence returns
    /// [`XkgError::NonFiniteConfidence`] instead of being sanitized.
    /// Negative confidences still clamp to 0 (a weight can never be
    /// negative).
    pub fn try_add(&mut self, triple: Triple, mut prov: Provenance) -> Result<TripleId, XkgError> {
        if !prov.confidence.is_finite() {
            return Err(XkgError::NonFiniteConfidence {
                triple,
                confidence: prov.confidence,
            });
        }
        prov.confidence = prov.confidence.clamp(0.0, 1.0);
        Ok(self.insert(triple, prov))
    }

    /// The dedup-merging insert behind both `add` flavours; `prov` must
    /// already carry a finite, clamped confidence.
    fn insert(&mut self, triple: Triple, prov: Provenance) -> TripleId {
        debug_assert!(prov.weight().is_finite(), "weights validated at ingestion");
        match self.dedup.entry(triple) {
            Entry::Occupied(slot) => {
                let id = *slot.get();
                self.prov[id.idx()].absorb(&prov);
                id
            }
            Entry::Vacant(slot) => {
                let id = next_triple_id(self.triples.len());
                self.triples.push(triple);
                self.prov.push(prov);
                *slot.insert(id)
            }
        }
    }

    /// Adds a curated KG fact.
    pub fn add_kg(&mut self, s: TermId, p: TermId, o: TermId) -> TripleId {
        self.add(Triple::new(s, p, o), Provenance::kg())
    }

    /// Adds a curated KG fact from resource strings (subject and predicate
    /// are resources; the object is a resource as well).
    pub fn add_kg_resources(&mut self, s: &str, p: &str, o: &str) -> TripleId {
        let s = self.dict.resource(s);
        let p = self.dict.resource(p);
        let o = self.dict.resource(o);
        self.add_kg(s, p, o)
    }

    /// Adds a curated KG fact whose object is a literal (e.g. a date).
    pub fn add_kg_literal(&mut self, s: &str, p: &str, o: &str) -> TripleId {
        let s = self.dict.resource(s);
        let p = self.dict.resource(p);
        let o = self.dict.literal(o);
        self.add_kg(s, p, o)
    }

    /// Adds an Open IE extraction observed once in `source`. Non-finite
    /// confidences are sanitized (see [`XkgBuilder::add`]); use
    /// [`XkgBuilder::try_add_extracted`] to reject them instead.
    pub fn add_extracted(
        &mut self,
        s: TermId,
        p: TermId,
        o: TermId,
        confidence: f32,
        source: SourceId,
    ) -> TripleId {
        let triple = Triple::new(s, p, o);
        // A repeated observation is absorbed in place: no one-source
        // provenance is built only to be merged and dropped.
        if let Some(&id) = self.dedup.get(&triple) {
            self.prov[id.idx()].absorb_extraction(sanitize(confidence), source);
            return id;
        }
        self.add(triple, Provenance::extraction(confidence, source))
    }

    /// Adds an Open IE extraction, returning a typed error for a NaN or
    /// infinite confidence instead of panicking later inside the posting
    /// index build (negative confidences clamp to 0).
    pub fn try_add_extracted(
        &mut self,
        s: TermId,
        p: TermId,
        o: TermId,
        confidence: f32,
        source: SourceId,
    ) -> Result<TripleId, XkgError> {
        // Validate before `Provenance::extraction`'s clamp folds +∞ into
        // the legal range.
        if !confidence.is_finite() {
            return Err(XkgError::NonFiniteConfidence {
                triple: Triple::new(s, p, o),
                confidence,
            });
        }
        self.try_add(Triple::new(s, p, o), Provenance::extraction(confidence, source))
    }

    /// The accumulated triples in insertion order, parallel to
    /// [`XkgBuilder::provenances`].
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The accumulated provenance records, parallel to
    /// [`XkgBuilder::triples`].
    pub fn provenances(&self) -> &[Provenance] {
        &self.prov
    }

    /// The interned provenance sources.
    pub fn sources(&self) -> &SourceTable {
        &self.sources
    }

    /// Number of distinct triples accumulated so far.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if no triples have been added.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Freezes the builder into an immutable, fully indexed store: the three
    /// columnar permutation indexes, the score-sorted posting index, and
    /// per-stratum counts are all computed here, once. Uses the default
    /// [`SegmentLayout::Flat`]; see [`XkgBuilder::build_with`].
    pub fn build(self) -> XkgStore {
        self.build_with(SegmentLayout::Flat)
    }

    /// Freezes the builder with an explicit [`SegmentLayout`]: `Flat` for
    /// hot, constantly rebuilt segments (ingest deltas), `Packed` for
    /// frozen base segments where bytes/triple dominates. Query answers
    /// are bit-identical in both layouts.
    pub fn build_with(self, layout: SegmentLayout) -> XkgStore {
        let part = Part {
            columns: (self.triples, self.prov),
            ..Part::default()
        };
        XkgStore::freeze(Vocab::sealed(self.dict, self.sources), part, layout)
    }

    /// Freezes the builder into `shards` independent [`XkgStore`]s that
    /// hash-partition the triples by **subject term**
    /// ([`TermId::shard_of`]): every triple lands in exactly one shard,
    /// and all triples sharing a subject are co-located. The shards share
    /// one term dictionary and one source table (`Arc`), so [`TermId`]s
    /// and [`SourceId`]s are globally consistent — a query parsed against
    /// any shard is valid against every shard.
    ///
    /// Each shard freezes its own permutation and posting indexes over
    /// its slice, exactly as [`XkgBuilder::build`] does for the whole
    /// store; relative triple order is preserved within a shard, so a
    /// shard's local [`TripleId`]s enumerate its slice in global
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build_sharded(self, shards: usize) -> Vec<XkgStore> {
        self.build_sharded_with(shards, SegmentLayout::Flat)
    }

    /// Like [`XkgBuilder::build_sharded`], with an explicit
    /// [`SegmentLayout`] applied to every shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn build_sharded_with(self, shards: usize, layout: SegmentLayout) -> Vec<XkgStore> {
        assert!(shards > 0, "shard count must be positive");
        let mut parts: Vec<Part> = (0..shards).map(|_| Part::default()).collect();
        for (triple, prov) in self.triples.into_iter().zip(self.prov) {
            let (triples, provs) = &mut parts[triple.s.shard_of(shards)].columns;
            triples.push(triple);
            provs.push(prov);
        }
        Vocab::sealed(self.dict, self.sources).freeze_all(parts, layout)
    }
}

/// The interning context every slice of one logical store is frozen
/// under: one term dictionary and one source table behind `Arc`s, so
/// [`TermId`]s and [`SourceId`]s resolve identically in every slice.
#[derive(Debug, Clone, Default)]
pub(crate) struct Vocab {
    pub(crate) dict: Arc<TermDict>,
    pub(crate) sources: Arc<SourceTable>,
    /// What a slice frozen under this context reports as its
    /// dictionary bytes ([`StorageBytes::dict`]).
    dict_bytes: usize,
}

impl Vocab {
    pub(crate) fn new(dict: TermDict, sources: SourceTable, dict_bytes: usize) -> Vocab {
        Vocab {
            dict: Arc::new(dict),
            sources: Arc::new(sources),
            dict_bytes,
        }
    }

    /// Seals a context so clones of it share its strings and completion
    /// runs, and prices its dictionary.
    pub(crate) fn sealed(mut dict: TermDict, mut sources: SourceTable) -> Vocab {
        dict.seal();
        sources.seal();
        let dict_bytes = dict.heap_bytes();
        Vocab::new(dict, sources, dict_bytes)
    }

    /// Freezes one slice per part. Parts with [`PARALLEL_BUILD_THRESHOLD`]
    /// rows to sort between them freeze on their own threads; below it
    /// (ingest deltas, compactions) thread start-up costs more.
    pub(crate) fn freeze_all(&self, parts: Vec<Part>, layout: SegmentLayout) -> Vec<XkgStore> {
        let unsorted: usize = parts.iter().map(Part::unsorted).sum();
        let parallel = parts.len() > 1 && unsorted >= PARALLEL_BUILD_THRESHOLD;
        let jobs = parts
            .into_iter()
            .map(|part| move || XkgStore::freeze(self.clone(), part, layout));
        run_jobs(jobs, parallel)
    }
}

/// An immutable, fully indexed extended knowledge graph.
///
/// # Examples
///
/// ```
/// use trinit_xkg::{SlotPattern, XkgBuilder};
///
/// let mut b = XkgBuilder::new();
/// b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
/// b.add_kg_resources("Ulm", "locatedIn", "Germany");
/// let store = b.build();
///
/// let born_in = store.resource("bornIn").unwrap();
/// let matches = store.lookup(&SlotPattern::with_p(born_in));
/// assert_eq!(matches.len(), 1);
/// ```
#[derive(Debug)]
pub struct XkgStore {
    /// Shared so shards of one logical store agree on term ids; a
    /// monolithic store is simply the sole owner.
    dict: Arc<TermDict>,
    triples: Vec<Triple>,
    prov: Vec<Provenance>,
    /// Shared for the same reason: [`SourceId`]s are issued by one
    /// builder and must resolve identically in every shard.
    sources: Arc<SourceTable>,
    index: TripleIndex,
    postings: PostingIndex,
    kg_len: usize,
    layout: SegmentLayout,
    /// Byte accounting, taken once at freeze (the store never changes
    /// afterwards).
    storage: StorageBytes,
}

impl XkgStore {
    /// Freezes already-interned columns into a fully indexed store, for a
    /// fresh build, an ingest and a compaction alike: it sorts only the
    /// part's appended and changed rows and merges them with its runs, so
    /// every column is the one a from-scratch freeze lays out.
    fn freeze(vocab: Vocab, part: Part, layout: SegmentLayout) -> XkgStore {
        let parallel = part.unsorted() >= PARALLEL_BUILD_THRESHOLD;
        let Part {
            columns: (triples, prov),
            runs,
            changed,
        } = part;
        let (mut index_runs, mut posting_runs, mut covered) = (Vec::new(), Vec::new(), 0);
        for (index, postings) in runs {
            let offset = covered as u32;
            covered += index.len();
            index_runs.push((index, offset));
            posting_runs.push((postings, offset));
        }
        let mut stale = vec![false; covered];
        for id in changed.into_iter().filter(|id| id.idx() < covered) {
            stale[id.idx()] = true;
        }
        let index = TripleIndex::merge(&triples, &prov, index_runs, layout, parallel);
        let postings = PostingIndex::merge(&triples, &prov, posting_runs, &stale, layout, parallel);
        let kg_len = prov.iter().filter(|p| p.graph == GraphTag::Kg).count();
        let (permutations, permutation_directories) = index.heap_bytes();
        let (posting_strata, posting_directories) = postings.heap_bytes();
        let posting_directories = posting_directories + index.wide_bytes();
        let provenance = prov.capacity() * std::mem::size_of::<Provenance>()
            + prov
                .iter()
                .map(|p| p.sources.capacity() * std::mem::size_of::<SourceId>())
                .sum::<usize>();
        let storage = StorageBytes {
            permutations,
            permutation_directories,
            posting_strata,
            posting_directories,
            dict: vocab.dict_bytes,
            triples: triples.capacity() * std::mem::size_of::<Triple>(),
            provenance,
        };
        XkgStore {
            dict: vocab.dict,
            triples,
            prov,
            sources: vocab.sources,
            index,
            postings,
            kg_len,
            layout,
            storage,
        }
    }

    /// Takes the store apart into a [`Part`] whose one run is its own
    /// indexes, dropping its handles on the shared vocabulary.
    pub(crate) fn thaw(self) -> Part {
        Part {
            columns: (self.triples, self.prov),
            runs: vec![(self.index, self.postings)],
            changed: Vec::new(),
        }
    }

    /// Handles on the interning context this store was frozen under.
    pub(crate) fn vocab(&self) -> Vocab {
        Vocab {
            dict: Arc::clone(&self.dict),
            sources: Arc::clone(&self.sources),
            dict_bytes: self.storage.dict,
        }
    }

    /// The physical layout this store's segment was frozen with.
    #[inline]
    pub fn layout(&self) -> SegmentLayout {
        self.layout
    }

    /// The term dictionary.
    #[inline]
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    /// A shared handle to the term dictionary. Shards of one logical
    /// store return handles to the *same* dictionary (pointer-equal),
    /// which is how a sharded deployment keeps term ids global.
    #[inline]
    pub fn dict_handle(&self) -> Arc<TermDict> {
        Arc::clone(&self.dict)
    }

    /// Looks up an existing resource term by name.
    pub fn resource(&self, name: &str) -> Option<TermId> {
        self.dict.get(TermKind::Resource, name)
    }

    /// Looks up an existing token term by phrase.
    pub fn token(&self, phrase: &str) -> Option<TermId> {
        self.dict.get(TermKind::Token, phrase)
    }

    /// Looks up an existing literal term by value.
    pub fn literal(&self, value: &str) -> Option<TermId> {
        self.dict.get(TermKind::Literal, value)
    }

    /// Number of distinct triples (KG + XKG strata).
    #[inline]
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the store holds no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Number of distinct triples in a stratum. O(1): the counts are
    /// frozen at [`XkgBuilder::build`] time.
    pub fn len_of(&self, graph: GraphTag) -> usize {
        match graph {
            GraphTag::Kg => self.kg_len,
            GraphTag::Xkg => self.triples.len() - self.kg_len,
        }
    }

    /// The triple with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    #[inline]
    pub fn triple(&self, id: TripleId) -> Triple {
        self.triples[id.idx()]
    }

    /// Provenance of the triple with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    #[inline]
    pub fn provenance(&self, id: TripleId) -> &Provenance {
        &self.prov[id.idx()]
    }

    /// Resolves a source id to its document identifier.
    pub fn source_name(&self, id: SourceId) -> Option<&str> {
        self.sources.name(id)
    }

    /// The interned provenance sources. Used to seed a delta builder
    /// that extends this store's source table
    /// ([`XkgBuilder::with_context`]).
    pub fn sources(&self) -> &SourceTable {
        &self.sources
    }

    /// All triple ids matching `pattern`, served from the columnar
    /// permutation indexes. Borrowed (allocation-free) on Flat segments;
    /// Packed segments decode the id column of the matching range.
    /// Derefs to `&[TripleId]`.
    #[inline]
    pub fn lookup(&self, pattern: &SlotPattern) -> MatchIds<'_> {
        self.index.lookup(pattern)
    }

    /// Like [`XkgStore::lookup`], but Packed segments decode into the
    /// caller's scratch buffer instead of allocating — the per-probe
    /// serving seam for hot loops (join probes reuse one buffer per
    /// depth).
    #[inline]
    pub fn lookup_in<'a>(
        &'a self,
        pattern: &SlotPattern,
        buf: &'a mut Vec<TripleId>,
    ) -> &'a [TripleId] {
        self.index.lookup_in(pattern, buf)
    }

    /// Exact number of triples matching `pattern`: a predicate-only
    /// shape reads its group length from the posting directory in O(1),
    /// every other shape searches its permutation range.
    #[inline]
    pub fn count(&self, pattern: &SlotPattern) -> usize {
        match (pattern.s, pattern.p, pattern.o) {
            (None, Some(p), None) => self.postings.predicate_group_len(p),
            _ => self.index.count(pattern),
        }
    }

    /// `pattern`'s matches as a range of its permutation's rows: one
    /// binary search, nothing decoded.
    pub(crate) fn span(&self, pattern: &SlotPattern) -> Range<usize> {
        self.index.span(pattern)
    }

    /// The ids over a `span` of `pattern` ([`XkgStore::lookup`] without
    /// the search).
    pub(crate) fn span_ids(&self, pattern: &SlotPattern, span: Range<usize>) -> MatchIds<'_> {
        self.index.ids(pattern, span)
    }

    /// The precomputed score-sorted posting index (the paper's "triple
    /// pattern index lists").
    #[inline]
    pub fn posting_index(&self) -> &PostingIndex {
        &self.postings
    }

    /// Predicates present in the store, ascending by term id.
    #[inline]
    pub fn predicates(&self) -> &[TermId] {
        self.postings.predicates()
    }

    /// One predicate's group in descending emission-weight order, with
    /// probabilities normalized over the predicate, served in place:
    /// borrowed on Flat segments, a view decoding each entry as it is
    /// read on Packed ones — bit-identical values either way. Unlike
    /// [`PostingList::build`], a group without emission mass keeps its
    /// entries.
    pub fn predicate_group(&self, p: TermId) -> PostingList<'_> {
        self.postings.group(GroupKey::Predicate(p), &self.prov)
    }

    /// The global unbound stratum: every triple in descending
    /// emission-weight order, normalized over the whole store.
    pub fn unbound_group(&self) -> PostingList<'_> {
        self.postings.group(GroupKey::Unbound, &self.prov)
    }

    /// The subject-anchored stratum's group for `s`: the stratum shares
    /// the SPO permutation's primary-key order, so the group span is the
    /// permutation's searched range (no group directory exists for the
    /// anchored strata).
    pub fn subject_group(&self, s: TermId) -> PostingList<'_> {
        let span = self.index.span(&SlotPattern::new(Some(s), None, None));
        self.postings.group(GroupKey::Subject(span), &self.prov)
    }

    /// The object-anchored stratum's group for `o` (group span shared
    /// with the OSP permutation's range).
    pub fn object_group(&self, o: TermId) -> PostingList<'_> {
        let span = self.index.span(&SlotPattern::new(None, None, Some(o)));
        self.postings.group(GroupKey::Object(span), &self.prov)
    }

    /// The group the posting index serves `pattern` from whole, for the
    /// four shapes it answers without filtering — predicate-only, fully
    /// unbound, subject-only and object-only; `None` for the composite
    /// shapes.
    fn group_key(&self, pattern: &SlotPattern) -> Option<GroupKey> {
        match (pattern.s, pattern.p, pattern.o) {
            (None, Some(p), None) => Some(GroupKey::Predicate(p)),
            (None, None, None) => Some(GroupKey::Unbound),
            (Some(_), None, None) => Some(GroupKey::Subject(self.index.span(pattern))),
            (None, None, Some(_)) => Some(GroupKey::Object(self.index.span(pattern))),
            _ => None,
        }
    }

    /// `pattern`'s group (see [`XkgStore::group_key`]), served in place.
    pub(crate) fn group(&self, pattern: &SlotPattern) -> Option<PostingList<'_>> {
        let key = self.group_key(pattern)?;
        Some(self.postings.group(key, &self.prov))
    }

    /// Total emission weight of one subject's matches, read from the
    /// anchored stratum's prefix sums (reconstructed exactly from its
    /// stored anchors on Packed segments). O(log n), allocation-free.
    pub fn subject_total_weight(&self, s: TermId) -> f64 {
        self.subject_group(s).total_weight()
    }

    /// Total emission weight of one object's matches (see
    /// [`XkgStore::subject_total_weight`]).
    pub fn object_total_weight(&self, o: TermId) -> f64 {
        self.object_group(o).total_weight()
    }

    /// Exact head probability (best emission) of `pattern`'s posting
    /// list, bit for bit its first entry's, for the shapes the store
    /// answers without building the list: the four the precomputed index
    /// serves whole — predicate-only, fully unbound, subject-only and
    /// object-only, reading only the group's first entry — and the sp,
    /// po and so shapes wider than one block, from the wide-pair
    /// directory. `None` for every other shape (ground patterns and
    /// pairs of at most [`BLOCK`](crate::index::BLOCK) matches, which are cheap
    /// to build); callers must fall back to a trivial bound (1.0) or
    /// build the list.
    pub fn head_prob(&self, pattern: &SlotPattern) -> Option<f64> {
        let Some(key) = self.group_key(pattern) else {
            let wide = self.index.wide_pair(pattern)?;
            return Some(if wide.total > 0.0 { wide.head / wide.total } else { 0.0 });
        };
        let head = self.postings.head(key, &self.prov);
        Some(head.map_or(0.0, |e| e.prob))
    }

    /// Raw head emission *weight* of `pattern`'s match set for the
    /// shapes [`XkgStore::head_prob`] answers, `None` otherwise.
    /// Partitioned execution divides a shard's head weight by a *global*
    /// total to get the shard's exact globally-normalized head bound.
    pub fn head_weight(&self, pattern: &SlotPattern) -> Option<f64> {
        let Some(key) = self.group_key(pattern) else {
            return self.index.wide_pair(pattern).map(|w| w.head);
        };
        let head = self.postings.head(key, &self.prov);
        Some(head.map_or(0.0, |e| e.weight))
    }

    /// Exact total emission weight of an sp, po or so pattern wider than
    /// one block — bit for bit the `total_weight` of its served list —
    /// read from the wide-pair directory; `None` for every other shape.
    pub fn pair_total(&self, pattern: &SlotPattern) -> Option<f64> {
        self.index.wide_pair(pattern).map(|w| w.total)
    }

    /// Exact per-structure heap byte accounting of the frozen store,
    /// taken at freeze. A slice frozen over a dictionary it shares with
    /// a base segment (a live delta view) reports only the dictionary
    /// bytes it holds beyond the base's.
    #[inline]
    pub fn storage_bytes(&self) -> StorageBytes {
        self.storage
    }

    /// Iterates all stored triples with their ids.
    pub fn iter(&self) -> impl Iterator<Item = (TripleId, Triple)> + '_ {
        self.triples
            .iter()
            .enumerate()
            .map(|(i, t)| (TripleId(i as u32), *t))
    }

    /// Renders a term for display: resources verbatim, tokens and literals
    /// single-quoted (matching the paper's figures).
    pub fn display_term(&self, id: TermId) -> String {
        match self.dict.resolve(id) {
            Some(text) if id.is_resource() => text.to_string(),
            Some(text) => format!("'{text}'"),
            None => format!("<unknown {id:?}>"),
        }
    }

    /// Renders a triple in `S P O` form.
    pub fn display_triple(&self, id: TripleId) -> String {
        let t = self.triple(id);
        format!(
            "{} {} {}",
            self.display_term(t.s),
            self.display_term(t.p),
            self.display_term(t.o)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XkgStore {
        let mut b = XkgBuilder::new();
        b.add_kg_resources("AlbertEinstein", "bornIn", "Ulm");
        b.add_kg_resources("Ulm", "locatedIn", "Germany");
        b.add_kg_literal("AlbertEinstein", "bornOn", "1879-03-14");
        let s = b.dict_mut().resource("AlbertEinstein");
        let p = b.dict_mut().token("won Nobel for");
        let o = b.dict_mut().token("discovery of the photoelectric effect");
        let src = b.intern_source("clueweb:doc-17");
        b.add_extracted(s, p, o, 0.8, src);
        b.build()
    }

    #[test]
    fn dedup_merges_provenance() {
        let mut b = XkgBuilder::new();
        let id1 = b.add_kg_resources("A", "p", "B");
        let id2 = b.add_kg_resources("A", "p", "B");
        assert_eq!(id1, id2);
        assert_eq!(b.len(), 1);
        let store = b.build();
        assert_eq!(store.provenance(id1).support, 2);
    }

    #[test]
    fn a_repeated_extraction_merges_as_a_one_source_record_would() {
        let (mut fast, mut slow) = (XkgBuilder::new(), XkgBuilder::new());
        for b in [&mut fast, &mut slow] {
            b.add_kg_resources("A", "p", "B");
        }
        let Triple { s: a, p, o: b } = fast.triples()[0];
        // Repeats of a KG fact and of an extraction, sources out of order
        // and odd confidences included: the in-place merge must sanitize
        // and union exactly as `add` does.
        let observations = [
            (a, b, 0.4, 0),
            (b, a, 0.9, 1),
            (a, b, 0.2, 1),
            (b, a, 1.7, 3),
            (a, b, -0.3, 0),
            (b, a, f32::NAN, 2),
            (b, a, f32::INFINITY, 3),
            (a, b, f32::NEG_INFINITY, 3),
            (b, a, 0.5, 1),
        ];
        for (s, o, c, src) in observations {
            let id = fast.add_extracted(s, p, o, c, SourceId(src));
            let prov = Provenance::extraction(c, SourceId(src));
            assert_eq!(slow.add(Triple::new(s, p, o), prov), id);
        }
        assert_eq!(fast.triples(), slow.triples());
        assert_eq!(fast.provenances(), slow.provenances());
        assert_eq!(fast.provenances()[1].sources, [1, 3, 2].map(SourceId));
    }

    #[test]
    fn strata_are_counted_separately() {
        let store = sample();
        assert_eq!(store.len(), 4);
        assert_eq!(store.len_of(GraphTag::Kg), 3);
        assert_eq!(store.len_of(GraphTag::Xkg), 1);
    }

    #[test]
    fn extraction_remembers_source() {
        let store = sample();
        let p = store.token("won Nobel for").unwrap();
        let ids = store.lookup(&SlotPattern::with_p(p));
        assert_eq!(ids.len(), 1);
        let prov = store.provenance(ids[0]);
        assert_eq!(prov.graph, GraphTag::Xkg);
        assert_eq!(prov.sources.len(), 1);
        assert_eq!(store.source_name(prov.sources[0]), Some("clueweb:doc-17"));
    }

    #[test]
    fn nan_confidence_returns_typed_error_instead_of_panicking() {
        let mut b = XkgBuilder::new();
        let s = b.dict_mut().resource("s");
        let p = b.dict_mut().resource("p");
        let o = b.dict_mut().resource("o");
        let src = b.intern_source("doc");
        let err = b.try_add_extracted(s, p, o, f32::NAN, src).unwrap_err();
        assert!(matches!(err, XkgError::NonFiniteConfidence { .. }));
        assert!(err.to_string().contains("non-finite"));
        let err = b.try_add_extracted(s, p, o, f32::INFINITY, src).unwrap_err();
        assert!(matches!(
            err,
            XkgError::NonFiniteConfidence { confidence, .. } if confidence == f32::INFINITY
        ));
        // A raw provenance with a poisoned confidence is rejected too.
        let mut prov = Provenance::extraction(0.5, src);
        prov.confidence = f32::NAN;
        assert!(b.try_add(Triple::new(s, p, o), prov).is_err());
        assert!(b.is_empty(), "rejected facts must not be stored");
        // The infallible path sanitizes instead — and the build (which
        // used to panic on a NaN weight deep in the posting sort) is fine.
        let mut prov = Provenance::extraction(0.5, src);
        prov.confidence = f32::NAN;
        let id = b.add(Triple::new(s, p, o), prov);
        let store = b.build();
        assert_eq!(store.provenance(id).weight(), 0.0);
    }

    #[test]
    fn negative_confidence_clamps_to_zero() {
        let mut b = XkgBuilder::new();
        let s = b.dict_mut().resource("s");
        let p = b.dict_mut().resource("p");
        let o = b.dict_mut().resource("o");
        let src = b.intern_source("doc");
        let mut prov = Provenance::extraction(0.5, src);
        prov.confidence = -0.25; // bypass extraction()'s clamp
        let id = b.try_add(Triple::new(s, p, o), prov).unwrap();
        let store = b.build();
        assert_eq!(store.provenance(id).confidence, 0.0);
        assert_eq!(store.provenance(id).weight(), 0.0);
    }

    #[test]
    fn anchored_groups_share_permutation_spans() {
        let store = sample();
        let einstein = store.resource("AlbertEinstein").unwrap();
        let group = store.subject_group(einstein);
        assert_eq!(
            group.len(),
            store.lookup(&SlotPattern::new(Some(einstein), None, None)).len()
        );
        assert!(group
            .entries()
            .iter()
            .all(|e| store.triple(e.triple).s == einstein));
        assert!(group
            .entries()
            .windows(2)
            .all(|w| w[0].weight >= w[1].weight));
        let total: f64 = group.entries().iter().map(|e| e.weight).sum();
        assert!((store.subject_total_weight(einstein) - total).abs() < 1e-9);

        let princeton = store.resource("PrincetonUniversity");
        if let Some(princeton) = princeton {
            let ogroup = store.object_group(princeton);
            assert!(ogroup
                .entries()
                .iter()
                .all(|e| store.triple(e.triple).o == princeton));
        }
        // Absent anchors serve empty groups and zero totals.
        let ghost = TermId::new(TermKind::Resource, 9999);
        assert!(store.subject_group(ghost).is_empty());
        assert_eq!(store.object_total_weight(ghost), 0.0);
    }

    #[test]
    fn head_prob_covers_anchored_shapes() {
        let store = sample();
        let einstein = store.resource("AlbertEinstein").unwrap();
        let ulm = store.resource("Ulm").unwrap();
        for pattern in [
            SlotPattern::new(Some(einstein), None, None),
            SlotPattern::new(None, None, Some(ulm)),
        ] {
            let head = store.head_prob(&pattern).expect("anchored head is O(1)");
            let list = crate::posting::PostingList::build(&store, &pattern);
            let actual = list.peek_prob().unwrap_or(0.0);
            assert!((head - actual).abs() < 1e-12, "{pattern}");
            let hw = store.head_weight(&pattern).expect("anchored head weight");
            assert!((hw - list.entries().first().map_or(0.0, |e| e.weight)).abs() < 1e-12);
        }
        // Composite shapes still decline.
        let sp = SlotPattern::with_sp(einstein, store.resource("bornIn").unwrap());
        assert_eq!(store.head_prob(&sp), None);
        assert_eq!(store.head_weight(&sp), None);
    }

    #[test]
    fn source_interning_is_idempotent() {
        let mut b = XkgBuilder::new();
        let a = b.intern_source("doc");
        let c = b.intern_source("doc");
        assert_eq!(a, c);
    }

    #[test]
    fn display_quotes_tokens_and_literals() {
        let store = sample();
        let p = store.token("won Nobel for").unwrap();
        let ids = store.lookup(&SlotPattern::with_p(p));
        let rendered = store.display_triple(ids[0]);
        assert_eq!(
            rendered,
            "AlbertEinstein 'won Nobel for' 'discovery of the photoelectric effect'"
        );
        let born_on = store.resource("bornOn").unwrap();
        let ids = store.lookup(&SlotPattern::with_p(born_on));
        assert!(store.display_triple(ids[0]).ends_with("'1879-03-14'"));
    }

    #[test]
    fn lookup_by_subject_and_object() {
        let store = sample();
        let einstein = store.resource("AlbertEinstein").unwrap();
        let subject_matches = store.lookup(&SlotPattern::new(Some(einstein), None, None));
        assert_eq!(subject_matches.len(), 3);
        let germany = store.resource("Germany").unwrap();
        let object_matches = store.lookup(&SlotPattern::new(None, None, Some(germany)));
        assert_eq!(object_matches.len(), 1);
    }

    #[test]
    fn empty_store() {
        let store = XkgBuilder::new().build();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&SlotPattern::any()).len(), 0);
    }

    fn many_subject_builder(n: u32) -> XkgBuilder {
        let mut b = XkgBuilder::new();
        for i in 0..n {
            b.add_kg_resources(&format!("s{i}"), "p", &format!("o{i}"));
            if i % 3 == 0 {
                let s = b.dict_mut().resource(&format!("s{i}"));
                let p = b.dict_mut().token("linked to");
                let o = b.dict_mut().resource(&format!("x{i}"));
                let src = b.intern_source(&format!("doc{i}"));
                b.add_extracted(s, p, o, 0.5 + (i % 5) as f32 * 0.1, src);
            }
        }
        b
    }

    #[test]
    fn sharded_build_partitions_without_loss() {
        let builder = many_subject_builder(40);
        let single = builder.clone().build();
        for shards in [1usize, 2, 3, 7] {
            let parts = builder.clone().build_sharded(shards);
            assert_eq!(parts.len(), shards);
            let total: usize = parts.iter().map(XkgStore::len).sum();
            assert_eq!(total, single.len(), "{shards} shards lose triples");
            let kg: usize = parts.iter().map(|s| s.len_of(GraphTag::Kg)).sum();
            assert_eq!(kg, single.len_of(GraphTag::Kg));
            // Every triple of every shard exists in the monolith.
            for part in &parts {
                for (_, t) in part.iter() {
                    assert_eq!(
                        single.count(&SlotPattern::new(Some(t.s), Some(t.p), Some(t.o))),
                        1
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_build_colocates_subjects_and_shares_dict() {
        let parts = many_subject_builder(40).build_sharded(4);
        for (k, part) in parts.iter().enumerate() {
            // Co-location: each triple is in the shard its subject hashes to.
            for (_, t) in part.iter() {
                assert_eq!(t.s.shard_of(4), k, "triple in wrong shard");
            }
            // One shared dictionary and source table across shards.
            assert!(Arc::ptr_eq(&parts[0].dict_handle(), &part.dict_handle()));
            assert_eq!(
                part.source_name(SourceId(0)),
                parts[0].source_name(SourceId(0))
            );
        }
        // Shared dict means terms resolve in shards that hold no triple
        // for them.
        let s0 = parts[0].resource("s1").unwrap();
        assert_eq!(parts[1].resource("s1"), Some(s0));
    }

    #[test]
    fn sharded_build_preserves_global_insertion_order_within_shard() {
        let builder = many_subject_builder(30);
        let single = builder.clone().build();
        let parts = builder.build_sharded(3);
        for part in &parts {
            // Local id order must enumerate the shard's triples in the
            // monolith's insertion order (the partition is stable).
            let mut last_global: Option<u32> = None;
            for (_, t) in part.iter() {
                let slot = SlotPattern::new(Some(t.s), Some(t.p), Some(t.o));
                let global = single.lookup(&slot)[0].0;
                if let Some(prev) = last_global {
                    assert!(global > prev, "partition reordered triples");
                }
                last_global = Some(global);
            }
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for i in 0..500u32 {
            let id = TermId::new(TermKind::Resource, i);
            for n in [1usize, 2, 5, 16] {
                let s = id.shard_of(n);
                assert!(s < n);
                assert_eq!(s, id.shard_of(n), "hash must be deterministic");
            }
            assert_eq!(id.shard_of(1), 0);
        }
    }
}
