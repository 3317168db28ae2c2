//! End-to-end extraction pipeline: documents → XKG extension triples.
//!
//! For each sentence: one pass of the extractor's scratch (tokenize →
//! tag → chunk → match), then for each kept extraction link the arguments
//! and emit a triple into the [`XkgBuilder`]. Linked arguments become KG
//! resources; unlinked arguments stay textual tokens; numeric arguments
//! become literals; relation phrases are always tokens. Duplicate
//! extractions accumulate support in the store, which drives the tf-like
//! component of answer scoring.
//!
//! An ingest call reuses one scratch and two text buffers for all its
//! sentences: argument and relation text is written into a buffer,
//! linked and interned from there, so the only strings allocated are the
//! ones the dictionary keeps.

use trinit_xkg::{TermId, XkgBuilder};

use crate::extractor::{extract_sentence, push_lowercase, Extraction, Scratch};
use crate::lexicon::Lexicon;
use crate::ned::Linker;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Extractions below this confidence are discarded.
    pub min_confidence: f32,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            min_confidence: 0.3,
        }
    }
}

/// Counters describing one ingestion run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Sentences processed.
    pub sentences: usize,
    /// Raw extractions produced.
    pub extractions: usize,
    /// Extractions kept (above the confidence floor).
    pub kept: usize,
    /// Argument slots linked to KG resources.
    pub linked_args: usize,
    /// Argument slots left as textual tokens.
    pub token_args: usize,
    /// Argument slots stored as literals.
    pub literal_args: usize,
}

impl IngestStats {
    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &IngestStats) {
        self.sentences += other.sentences;
        self.extractions += other.extractions;
        self.kept += other.kept;
        self.linked_args += other.linked_args;
        self.token_args += other.token_args;
        self.literal_args += other.literal_args;
    }

    /// Fraction of argument slots that were linked to resources.
    pub fn link_rate(&self) -> f64 {
        let total = self.linked_args + self.token_args + self.literal_args;
        if total == 0 {
            0.0
        } else {
            self.linked_args as f64 / total as f64
        }
    }
}

/// The Open IE ingestion pipeline.
#[derive(Debug)]
pub struct OpenIePipeline {
    lexicon: Lexicon,
    linker: Linker,
    config: PipelineConfig,
}

impl OpenIePipeline {
    /// Creates a pipeline with the default English lexicon and config.
    pub fn new(linker: Linker) -> OpenIePipeline {
        OpenIePipeline {
            lexicon: Lexicon::english(),
            linker,
            config: PipelineConfig::default(),
        }
    }

    /// Overrides the pipeline configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> OpenIePipeline {
        self.config = config;
        self
    }

    /// Extracts triples from a single sentence (no store interaction).
    pub fn extract(&self, sentence: &str) -> Vec<Extraction> {
        extract_sentence(&self.lexicon, sentence)
    }

    /// Interns an argument phrase: a literal if `numeric`, else the
    /// resource it links to, else its lowercase form (written into
    /// `lower`) as a token.
    fn arg_term(
        &self,
        builder: &mut XkgBuilder,
        phrase: &str,
        numeric: bool,
        lower: &mut String,
        stats: &mut IngestStats,
    ) -> TermId {
        if numeric {
            stats.literal_args += 1;
            return builder.dict_mut().literal(phrase);
        }
        if let Some(resource) = self.linker.link_resource(phrase) {
            stats.linked_args += 1;
            return builder.dict_mut().resource(resource);
        }
        stats.token_args += 1;
        lower.clear();
        push_lowercase(lower, phrase);
        builder.dict_mut().token(lower)
    }

    /// Ingests one document's sentences into `builder`.
    pub fn ingest(
        &self,
        doc_id: &str,
        sentences: &[String],
        builder: &mut XkgBuilder,
    ) -> IngestStats {
        let mut stats = IngestStats::default();
        let source = builder.intern_source(doc_id);
        let mut scratch = Scratch::default();
        let (mut text, mut lower) = (String::new(), String::new());
        for sentence in sentences {
            stats.sentences += 1;
            scratch.analyze(&self.lexicon, sentence);
            for found in scratch.extractions() {
                stats.extractions += 1;
                if found.confidence < self.config.min_confidence {
                    continue;
                }
                stats.kept += 1;
                scratch.write_arg(sentence, found.left, &mut text);
                let s = self.arg_term(builder, &text, false, &mut lower, &mut stats);
                scratch.write_rel(&found, &mut text);
                let p = builder.dict_mut().token(&text);
                scratch.write_arg(sentence, found.right, &mut text);
                let numeric = scratch.is_numeric(found.right);
                let o = self.arg_term(builder, &text, numeric, &mut lower, &mut stats);
                builder.add_extracted(s, p, o, found.confidence, source);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_xkg::{GraphTag, SlotPattern};

    fn pipeline() -> OpenIePipeline {
        OpenIePipeline::new(Linker::with_default_dominance(vec![
            ("Ada Lum".to_string(), "AdaLum".to_string(), 5.0),
            ("Velmora University".to_string(), "VelmoraUniversity".to_string(), 3.0),
        ]))
    }

    #[test]
    fn linked_arguments_become_resources() {
        let p = pipeline();
        let mut b = XkgBuilder::new();
        let stats = p.ingest(
            "doc-1",
            &["Ada Lum lectured at Velmora University.".to_string()],
            &mut b,
        );
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.linked_args, 2);
        let store = b.build();
        let pred = store.token("lectured at").expect("relation token interned");
        let ids = store.lookup(&SlotPattern::with_p(pred));
        assert_eq!(ids.len(), 1);
        let t = store.triple(ids[0]);
        assert!(t.s.is_resource());
        assert!(t.p.is_token());
        assert!(t.o.is_resource());
        assert_eq!(store.provenance(ids[0]).graph, GraphTag::Xkg);
    }

    #[test]
    fn unlinked_arguments_stay_tokens() {
        let p = pipeline();
        let mut b = XkgBuilder::new();
        let stats = p.ingest(
            "doc-2",
            &["Ada Lum was honored for quantum flane theory.".to_string()],
            &mut b,
        );
        assert_eq!(stats.kept, 1);
        assert_eq!(stats.token_args, 1);
        let store = b.build();
        assert!(store.token("quantum flane theory").is_some());
    }

    #[test]
    fn numeric_objects_become_literals() {
        let p = pipeline();
        let mut b = XkgBuilder::new();
        let stats = p.ingest(
            "doc-3",
            &["Ada Lum was born on 1854-02-12.".to_string()],
            &mut b,
        );
        assert_eq!(stats.literal_args, 1);
        let store = b.build();
        assert!(store.literal("1854-02-12").is_some());
    }

    #[test]
    fn repeated_extractions_accumulate_support() {
        let p = pipeline();
        let mut b = XkgBuilder::new();
        let sentence = "Ada Lum lectured at Velmora University.".to_string();
        p.ingest("doc-a", std::slice::from_ref(&sentence), &mut b);
        p.ingest("doc-b", &[sentence], &mut b);
        let store = b.build();
        let pred = store.token("lectured at").unwrap();
        let ids = store.lookup(&SlotPattern::with_p(pred));
        assert_eq!(ids.len(), 1, "deduplicated");
        let prov = store.provenance(ids[0]);
        assert_eq!(prov.support, 2);
        assert_eq!(prov.sources.len(), 2);
    }

    #[test]
    fn confidence_floor_filters() {
        let p = pipeline().with_config(PipelineConfig {
            min_confidence: 0.99,
        });
        let mut b = XkgBuilder::new();
        let stats = p.ingest(
            "doc-4",
            &["Ada Lum lectured at Velmora University.".to_string()],
            &mut b,
        );
        assert_eq!(stats.kept, 0);
        assert!(stats.extractions > 0);
    }

    #[test]
    fn stats_merge_and_link_rate() {
        let mut a = IngestStats {
            sentences: 1,
            extractions: 2,
            kept: 2,
            linked_args: 3,
            token_args: 1,
            literal_args: 0,
        };
        let b = IngestStats {
            sentences: 1,
            extractions: 1,
            kept: 1,
            linked_args: 1,
            token_args: 1,
            literal_args: 2,
        };
        a.merge(&b);
        assert_eq!(a.sentences, 2);
        assert_eq!(a.linked_args, 4);
        assert!((a.link_rate() - 4.0 / 8.0).abs() < 1e-9);
        assert_eq!(IngestStats::default().link_rate(), 0.0);
    }
}
