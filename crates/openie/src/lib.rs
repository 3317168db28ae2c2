//! # trinit-openie — Open Information Extraction pipeline
//!
//! Reproduces the extraction stack the paper uses to extend a KG into an
//! XKG (§2): a ReVerb-style extractor (Fader et al., EMNLP 2011) over raw
//! sentences, plus dictionary-based entity linking in the role of
//! AIDA/Spotlight/FACC1. The output is textual token triples — two noun
//! phrases connected by a verbal phrase — with confidences, fed into a
//! [`trinit_xkg::XkgBuilder`].
//!
//! Stages: [`extractor`] takes each sentence through tokenize → tag
//! (over [`lexicon`]) → chunk → relation match in one pass over a
//! reusable scratch of spans and tags; [`ned`] links the arguments;
//! [`pipeline`] interns them into the store from borrowed text.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod extractor;
pub mod lexicon;
pub mod ned;
pub mod pipeline;

pub use extractor::{extract_sentence, Extraction};
pub use lexicon::{Lexicon, Tag};
pub use ned::{Candidate, LinkOutcome, Linker};
pub use pipeline::{IngestStats, OpenIePipeline, PipelineConfig};
