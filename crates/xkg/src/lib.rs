//! # trinit-xkg — extended knowledge graph store
//!
//! The storage substrate of the TriniT reproduction (Yahya et al.,
//! *Exploratory Querying of Extended Knowledge Graphs*, PVLDB 9(13), 2016).
//!
//! An **extended knowledge graph (XKG)** combines a curated KG (canonical
//! resources, e.g. Yago2s in the paper) with *textual token triples*
//! produced by Open Information Extraction, where any of the S/P/O slots
//! may be a text phrase instead of a canonical resource (paper §2).
//!
//! This crate provides:
//!
//! * [`TermDict`] — interning of resources, tokens, and literals into
//!   compact [`TermId`]s;
//! * [`XkgBuilder`] / [`XkgStore`] — a deduplicating triple store with
//!   per-fact [`Provenance`] (stratum, confidence, support, sources);
//! * three columnar permutation indexes ([`index::TripleIndex`]) answering
//!   every [`SlotPattern`] shape with one allocation-free range search;
//! * [`PostingIndex`] / [`PostingList`] — build-time score-sorted access
//!   to a pattern's matches, the primitive required by the incremental
//!   top-k processor (paper §4); predicate-only, unbound, and anchored
//!   (subject-/object-bound) patterns are served in place (borrowed
//!   slices on Flat, lazily decoded views on Packed) without per-query
//!   sorting; the composite shapes order their exact
//!   permutation range when it is small (at most one block, or ≥ 4×
//!   smaller than every covering group) and otherwise filter an
//!   already-sorted group; a composite pair wider than one block has its
//!   exact total and head weight recorded at freeze (the wide-pair
//!   directory), so its head bound and normalizer need no list;
//! * [`LiveDelta`] — the write path: N frozen base partitions (one for
//!   a monolith) plus a live delta that ingestion merges into and
//!   compaction folds back;
//! * [`stats`] — the `args(p)` sets used by the relaxation miner
//!   (paper §3) and heap byte accounting.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dict;
pub mod index;
pub mod pack;
pub mod pattern;
pub mod posting;
pub mod segment;
pub mod stats;
pub mod store;
pub mod term;
pub mod triple;

pub use dict::{SourceTable, TermDict};
pub use index::MatchIds;
pub use pack::SegmentLayout;
pub use pattern::SlotPattern;
pub use posting::{Posting, PostingIndex, PostingList, Select, ServeKind, SharedParts};
pub use segment::LiveDelta;
pub use stats::{args_pairs, StorageBytes};
pub use store::{XkgBuilder, XkgError, XkgStore};
pub use term::{TermId, TermKind};
pub use triple::{GraphTag, Provenance, SourceId, Triple, TripleId};
