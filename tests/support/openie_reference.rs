//! The Open IE extractor as it was before the one-pass scratch:
//! tokenizer, tagger, chunker, extractor and the ingest loop, kept as a
//! test-only reference for differential checks. The modules are the old
//! `trinit-openie` sources; only their `use` lines, the `Extraction`
//! definition (now the public type) and `OpenIePipeline`'s fields (now
//! parameters) differ.

#![allow(dead_code)]

pub mod token {
    //! Sentence tokenization.
    //!
    //! A small, deterministic tokenizer sufficient for web-style declarative
    //! sentences: splits on whitespace, detaches trailing punctuation, and
    //! keeps abbreviations (`Prof.`) and date-like literals (`1879-03-14`)
    //! intact.

    /// A single token with its original surface form.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Token {
        /// Surface form as written.
        pub text: String,
        /// Lowercased form for lexicon lookup.
        pub lower: String,
        /// True if the first character is uppercase.
        pub capitalized: bool,
    }

    impl Token {
        fn new(text: &str) -> Token {
            Token {
                lower: text.to_lowercase(),
                capitalized: text.chars().next().is_some_and(|c| c.is_uppercase()),
                text: text.to_string(),
            }
        }
    }

    /// Abbreviations whose trailing period belongs to the token.
    const ABBREVIATIONS: &[&str] = &["prof.", "dr.", "mr.", "ms.", "st."];

    /// True if `word` looks like a date or number literal (kept whole).
    pub fn is_numeric_like(word: &str) -> bool {
        !word.is_empty()
            && word
                .chars()
                .all(|c| c.is_ascii_digit() || c == '-' || c == '.' || c == ',')
            && word.chars().any(|c| c.is_ascii_digit())
    }

    /// Tokenizes one sentence.
    pub fn tokenize(sentence: &str) -> Vec<Token> {
        let mut out = Vec::new();
        for raw in sentence.split_whitespace() {
            let mut word = raw;
            // Strip leading punctuation.
            word = word.trim_start_matches(|c: char| !c.is_alphanumeric());
            if word.is_empty() {
                continue;
            }
            // Strip trailing punctuation, except for abbreviations and numerics.
            let lower = word.to_lowercase();
            if ABBREVIATIONS.contains(&lower.as_str()) {
                out.push(Token::new(word));
                continue;
            }
            if is_numeric_like(word.trim_end_matches('.')) {
                out.push(Token::new(word.trim_end_matches('.')));
                continue;
            }
            let trimmed = word.trim_end_matches(|c: char| !c.is_alphanumeric());
            if !trimmed.is_empty() {
                out.push(Token::new(trimmed));
            }
        }
        out
    }
}

pub mod tagger {
    //! Shallow POS tagging over tokenized sentences.
    //!
    //! Lexicon lookup first; unknown words fall back to heuristics tuned for
    //! entity-rich web sentences: capitalized unknowns are proper nouns,
    //! numeric tokens are numbers, `-ed`-suffixed unknowns after a proper noun
    //! are verbs, everything else defaults to common noun.

    use super::token::{is_numeric_like, Token};
    use trinit_core::openie::lexicon::{Lexicon, Tag};

    /// A token paired with its assigned tag.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Tagged {
        /// The token.
        pub token: Token,
        /// Its shallow POS tag.
        pub tag: Tag,
    }

    /// Tags a tokenized sentence.
    pub fn tag(lexicon: &Lexicon, tokens: &[Token]) -> Vec<Tagged> {
        let mut out = Vec::with_capacity(tokens.len());
        for (i, tok) in tokens.iter().enumerate() {
            let tag = if is_numeric_like(&tok.text) {
                Tag::Number
            } else if let Some(t) = lexicon.get(&tok.lower) {
                // A capitalized lexicon word mid-sentence is usually part of a
                // name ("Velmora University", "Kloue League", "Drona Prize").
                if tok.capitalized && i > 0 && matches!(t, Tag::Noun | Tag::Adj) {
                    Tag::ProperNoun
                } else {
                    t
                }
            } else if tok.capitalized {
                Tag::ProperNoun
            } else if tok.lower.ends_with("ed") && i > 0 {
                // Unknown -ed form after something: treat as verb.
                Tag::Verb
            } else {
                Tag::Noun
            };
            out.push(Tagged {
                token: tok.clone(),
                tag,
            });
        }
        out
    }
}

pub mod chunker {
    //! Noun-phrase chunking.
    //!
    //! Finds maximal noun phrases: contiguous runs of NP-part tags
    //! (determiner, adjective, noun, proper noun, number) containing at least
    //! one nominal head. These become the argument candidates of extractions.

    use super::tagger::Tagged;
    use trinit_core::openie::lexicon::Tag;

    /// A chunked noun phrase: a token index range within the sentence.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct NounPhrase {
        /// Start token index (inclusive).
        pub start: usize,
        /// End token index (exclusive).
        pub end: usize,
    }

    impl NounPhrase {
        /// The surface text of the phrase, with any leading determiner
        /// stripped (determiners are not part of entity surface forms).
        pub fn text(&self, tagged: &[Tagged]) -> String {
            let mut start = self.start;
            while start < self.end && tagged[start].tag == Tag::Det {
                start += 1;
            }
            tagged[start..self.end]
                .iter()
                .map(|t| t.token.text.as_str())
                .collect::<Vec<_>>()
                .join(" ")
        }

        /// True if every token in the phrase is a number/date literal.
        pub fn is_numeric(&self, tagged: &[Tagged]) -> bool {
            tagged[self.start..self.end]
                .iter()
                .all(|t| t.tag == Tag::Number)
        }

        /// True if the phrase head (last token) is a proper noun.
        pub fn is_proper(&self, tagged: &[Tagged]) -> bool {
            self.end > self.start && tagged[self.end - 1].tag == Tag::ProperNoun
        }
    }

    /// Chunks a tagged sentence into maximal noun phrases.
    pub fn chunk(tagged: &[Tagged]) -> Vec<NounPhrase> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            if tagged[i].tag.is_np_part() {
                let start = i;
                while i < tagged.len() && tagged[i].tag.is_np_part() {
                    i += 1;
                }
                let has_head = tagged[start..i]
                    .iter()
                    .any(|t| matches!(t.tag, Tag::Noun | Tag::ProperNoun | Tag::Number));
                if has_head {
                    out.push(NounPhrase { start, end: i });
                }
            } else {
                i += 1;
            }
        }
        out
    }
}

pub mod extractor {
    //! ReVerb-style relation extraction.
    //!
    //! Implements the syntactic constraint of ReVerb (Fader et al., EMNLP
    //! 2011), the Open IE tool the paper cites (§2): a relation phrase between
    //! two noun phrases must match
    //!
    //! ```text
    //! [Aux]* V | [Aux]* V P | [Aux]* V W* P
    //! ```
    //!
    //! where `V` is a verb, `P` a preposition, and `W` a filler word (noun,
    //! adjective, pronoun, determiner). The phrase must cover *all* tokens
    //! between the argument phrases. Leading auxiliaries are stripped during
    //! normalization (`was housed in` → `housed in`), matching the token
    //! predicates in the paper's Figure 3.

    use super::chunker::{chunk, NounPhrase};
    use super::tagger::{tag, Tagged};
    use super::token::tokenize;
    use trinit_core::openie::lexicon::{Lexicon, Tag};

    /// One extracted textual triple (the public type, so results compare
    /// directly).
    pub use trinit_core::openie::Extraction;

    /// Attempts to match the relation-phrase constraint over
    /// `tagged[from..to]`. Returns the normalized phrase if it matches.
    fn match_relation(tagged: &[Tagged], from: usize, to: usize) -> Option<String> {
        if from >= to {
            return None;
        }
        let mut i = from;
        // [Aux]* — leading auxiliaries / copulas.
        while i < to && tagged[i].tag == Tag::Aux {
            i += 1;
        }
        let verb_start = if i < to && tagged[i].tag == Tag::Verb {
            // Passive/periphrastic: strip the auxiliaries ("was housed in" →
            // "housed in", matching the paper's Figure 3 tokens).
            let v = i;
            i += 1;
            v
        } else if i > from {
            // Copula as main verb ("is a member of"): keep it in the phrase.
            from
        } else {
            return None;
        };
        if i == to {
            // Bare V.
            return Some(normalize(tagged, verb_start, to));
        }
        // V (W | P)* P — everything after the verb must be filler or
        // preposition, and the final token must be a preposition.
        for (j, tag_entry) in tagged.iter().enumerate().take(to).skip(i) {
            let t = tag_entry.tag;
            let is_last = j + 1 == to;
            if is_last {
                if t != Tag::Prep {
                    return None;
                }
            } else if !(t.is_relation_filler() || t == Tag::Prep || t == Tag::Verb) {
                return None;
            }
        }
        Some(normalize(tagged, verb_start, to))
    }

    fn normalize(tagged: &[Tagged], from: usize, to: usize) -> String {
        tagged[from..to]
            .iter()
            .map(|t| t.token.lower.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// ReVerb-style confidence function: a deterministic score from shallow
    /// features of the extraction, mimicking the shape of ReVerb's logistic
    /// regression confidence (short, preposition-terminated phrases with
    /// proper-noun arguments score high; long filler-heavy phrases score low).
    pub fn confidence(
        rel_words: usize,
        arg1_proper: bool,
        arg2_proper: bool,
        sentence_len: usize,
    ) -> f32 {
        let mut c: f32 = 0.55;
        if rel_words <= 2 {
            c += 0.15;
        } else {
            c -= 0.04 * (rel_words as f32 - 2.0);
        }
        if arg1_proper {
            c += 0.1;
        }
        if arg2_proper {
            c += 0.1;
        }
        if sentence_len > 14 {
            c -= 0.05;
        }
        c.clamp(0.05, 0.95)
    }

    /// Extracts all (NP, VP, NP) triples from one sentence.
    ///
    /// Adjacent noun-phrase pairs are considered; a pair yields an extraction
    /// iff the tokens between them match the relation constraint.
    pub fn extract_sentence(lexicon: &Lexicon, sentence: &str) -> Vec<Extraction> {
        let tokens = tokenize(sentence);
        let tagged = tag(lexicon, &tokens);
        let nps = chunk(&tagged);
        extract_tagged(&tagged, &nps)
    }

    fn extract_tagged(tagged: &[Tagged], nps: &[NounPhrase]) -> Vec<Extraction> {
        let mut out = Vec::new();
        for (i, left) in nps.iter().enumerate() {
            // ReVerb prefers the longest relation-phrase match: a phrase may
            // span intermediate common-noun chunks ("housed on the campus of"),
            // so scan rightward for the furthest argument whose gap still
            // satisfies the constraint.
            let mut best: Option<(&NounPhrase, String)> = None;
            for right in &nps[i + 1..] {
                if let Some(rel) = match_relation(tagged, left.end, right.start) {
                    best = Some((right, rel));
                }
            }
            let Some((right, rel)) = best else {
                continue;
            };
            let rel_words = rel.split(' ').count();
            let arg1_is_proper = left.is_proper(tagged);
            let arg2_is_proper = right.is_proper(tagged);
            out.push(Extraction {
                arg1: left.text(tagged),
                arg2: right.text(tagged),
                confidence: confidence(rel_words, arg1_is_proper, arg2_is_proper, tagged.len()),
                arg2_is_numeric: right.is_numeric(tagged),
                arg1_is_proper,
                arg2_is_proper,
                rel,
            });
        }
        out
    }
}

pub mod pipeline {
    use trinit_core::openie::{IngestStats, Lexicon, Linker};
    use trinit_core::xkg::{TermId, XkgBuilder};

    use super::extractor::extract_sentence;

    fn arg_term(
        linker: &Linker,
        builder: &mut XkgBuilder,
        phrase: &str,
        numeric: bool,
        stats: &mut IngestStats,
    ) -> TermId {
        if numeric {
            stats.literal_args += 1;
            return builder.dict_mut().literal(phrase);
        }
        if let Some(resource) = linker.link_resource(phrase) {
            let resource = resource.to_string();
            stats.linked_args += 1;
            return builder.dict_mut().resource(&resource);
        }
        stats.token_args += 1;
        builder.dict_mut().token(&phrase.to_lowercase())
    }

    /// `OpenIePipeline::ingest` with the pipeline's lexicon, linker and
    /// confidence floor as parameters.
    pub fn ingest(
        lexicon: &Lexicon,
        linker: &Linker,
        min_confidence: f32,
        doc_id: &str,
        sentences: &[String],
        builder: &mut XkgBuilder,
    ) -> IngestStats {
        let mut stats = IngestStats::default();
        let source = builder.intern_source(doc_id);
        for sentence in sentences {
            stats.sentences += 1;
            for ex in extract_sentence(lexicon, sentence) {
                stats.extractions += 1;
                if ex.confidence < min_confidence {
                    continue;
                }
                stats.kept += 1;
                let s = arg_term(linker, builder, &ex.arg1, false, &mut stats);
                let p = builder.dict_mut().token(&ex.rel);
                let o = arg_term(linker, builder, &ex.arg2, ex.arg2_is_numeric, &mut stats);
                builder.add_extracted(s, p, o, ex.confidence, source);
            }
        }
        stats
    }
}
