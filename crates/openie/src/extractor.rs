//! ReVerb-style relation extraction in one pass per sentence.
//!
//! A `Scratch` takes a sentence through every stage over buffers it
//! reuses from one sentence to the next, and keeps positions, not
//! strings:
//!
//! 1. **Tokenize.** Split on whitespace, strip leading and trailing
//!    punctuation, but keep abbreviations (`Prof.`) and date-like
//!    literals (`1879-03-14`) whole. A token is a byte span of the
//!    sentence; one lowercase buffer holds every token's lowercase form
//!    (ASCII folded in place, other text through `str::to_lowercase` on
//!    the token's own text).
//! 2. **Tag.** Lexicon lookup first; unknown words fall back to
//!    heuristics tuned for entity-rich web sentences: capitalized
//!    unknowns are proper nouns, numeric tokens are numbers, `-ed`
//!    unknowns after the first token are verbs, everything else is a
//!    common noun.
//! 3. **Chunk.** Noun phrases are maximal runs of NP-part tags
//!    (determiner, adjective, noun, proper noun, number) holding at least
//!    one nominal head, kept as token ranges.
//! 4. **Match.** The syntactic constraint of ReVerb (Fader et al., EMNLP
//!    2011), the Open IE tool the paper cites (§2): a relation phrase
//!    between two noun phrases must match
//!
//!    ```text
//!    [Aux]* V | [Aux]* V P | [Aux]* V W* P
//!    ```
//!
//!    where `V` is a verb, `P` a preposition, and `W` a filler word
//!    (noun, adjective, pronoun, determiner). The phrase must cover *all*
//!    tokens between the argument phrases. Leading auxiliaries are
//!    stripped (`was housed in` → `housed in`), matching the token
//!    predicates in the paper's Figure 3.
//!
//! A match yields only where the relation phrase starts; text is written
//! only for kept extractions, into the caller's buffers.

use crate::lexicon::{Lexicon, Tag};

/// A half-open range: of bytes for token text, of tokens for a phrase.
type Span = (usize, usize);

/// Abbreviations whose trailing period belongs to the token.
const ABBREVIATIONS: &[&str] = &["prof.", "dr.", "mr.", "ms.", "st."];

/// One extracted textual triple.
#[derive(Debug, Clone, PartialEq)]
pub struct Extraction {
    /// Left argument phrase (determiner-stripped).
    pub arg1: String,
    /// Normalized relation phrase (auxiliaries stripped, lowercased).
    pub rel: String,
    /// Right argument phrase (determiner-stripped).
    pub arg2: String,
    /// Extraction confidence in `[0, 1]`.
    pub confidence: f32,
    /// True if the right argument is a number/date literal.
    pub arg2_is_numeric: bool,
    /// True if the left argument is headed by a proper noun.
    pub arg1_is_proper: bool,
    /// True if the right argument is headed by a proper noun.
    pub arg2_is_proper: bool,
}

/// One extraction as positions in its [`Scratch`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Found {
    /// Left argument phrase (token range).
    pub(crate) left: Span,
    /// First token of the relation phrase, which ends where `right` starts.
    pub(crate) verb: usize,
    /// Right argument phrase (token range).
    pub(crate) right: Span,
    /// Extraction confidence in `[0, 1]`.
    pub(crate) confidence: f32,
}

/// Reusable working memory holding one analyzed sentence.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Per token: its text's byte span in the sentence and its lowercase
    /// form's byte span in `lower`.
    tokens: Vec<(Span, Span)>,
    lower: String,
    tags: Vec<Tag>,
    /// Noun phrases as token ranges, in sentence order.
    phrases: Vec<Span>,
}

/// True if `word` looks like a date or number literal (kept whole).
fn is_numeric_like(word: &str) -> bool {
    let part = |c: char| c.is_ascii_digit() || matches!(c, '-' | '.' | ',');
    word.chars().all(part) && word.chars().any(|c| c.is_ascii_digit())
}

/// True if `word` lowercases to one of [`ABBREVIATIONS`]. An ASCII
/// comparison suffices: the only non-ASCII character that lowercases to
/// ASCII is the Kelvin sign (to `k`), and no abbreviation holds a `k`.
fn is_abbreviation(word: &str) -> bool {
    ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(word))
}

/// Appends `text.to_lowercase()` to `out`, folding ASCII text in place.
pub(crate) fn push_lowercase(out: &mut String, text: &str) {
    if text.is_ascii() {
        let from = out.len();
        out.push_str(text);
        out[from..].make_ascii_lowercase();
    } else {
        out.push_str(&text.to_lowercase());
    }
}

/// The shallow tag of a token from its text and lowercase form; `first`
/// if it opens the sentence.
fn tag_of(lexicon: &Lexicon, text: &str, lower: &str, first: bool) -> Tag {
    let capitalized = text.chars().next().is_some_and(char::is_uppercase);
    if is_numeric_like(text) {
        Tag::Number
    } else if let Some(t) = lexicon.get(lower) {
        // A capitalized lexicon word mid-sentence is usually part of a
        // name ("Velmora University", "Kloue League", "Drona Prize").
        if capitalized && !first && matches!(t, Tag::Noun | Tag::Adj) {
            Tag::ProperNoun
        } else {
            t
        }
    } else if capitalized {
        Tag::ProperNoun
    } else if lower.ends_with("ed") && !first {
        Tag::Verb
    } else {
        Tag::Noun
    }
}

impl Scratch {
    /// Tokenizes, tags and chunks `sentence`, replacing whatever the
    /// scratch held.
    pub(crate) fn analyze(&mut self, lexicon: &Lexicon, sentence: &str) {
        self.tokens.clear();
        self.lower.clear();
        self.tags.clear();
        self.phrases.clear();
        for raw in sentence.split_whitespace() {
            let word = raw.trim_start_matches(|c: char| !c.is_alphanumeric());
            if word.is_empty() {
                continue;
            }
            let text = if is_abbreviation(word) {
                word
            } else if is_numeric_like(word.trim_end_matches('.')) {
                word.trim_end_matches('.')
            } else {
                word.trim_end_matches(|c: char| !c.is_alphanumeric())
            };
            // `text` is a subslice of `sentence`.
            let start = text.as_ptr() as usize - sentence.as_ptr() as usize;
            let from = self.lower.len();
            push_lowercase(&mut self.lower, text);
            let tag = tag_of(lexicon, text, &self.lower[from..], self.tokens.is_empty());
            self.tags.push(tag);
            let spans = ((start, start + text.len()), (from, self.lower.len()));
            self.tokens.push(spans);
        }
        // A run holding a head is a run of NP parts: heads are NP parts.
        let head = |t: &Tag| matches!(t, Tag::Noun | Tag::ProperNoun | Tag::Number);
        let mut start = 0;
        for run in self.tags.chunk_by(|a, b| a.is_np_part() == b.is_np_part()) {
            if run.iter().any(head) {
                self.phrases.push((start, start + run.len()));
            }
            start += run.len();
        }
    }

    /// Where the relation phrase over tokens `from..to` starts, if those
    /// tokens match the ReVerb constraint.
    fn relation(&self, from: usize, to: usize) -> Option<usize> {
        let tags = &self.tags;
        // [Aux]* — leading auxiliaries / copulas.
        let mut i = from;
        while i < to && tags[i] == Tag::Aux {
            i += 1;
        }
        let (verb, rest) = if i < to && tags[i] == Tag::Verb {
            // Passive/periphrastic: the auxiliaries are stripped.
            (i, i + 1)
        } else if i > from {
            // Copula as main verb ("is a member of"): kept in the phrase.
            (from, i)
        } else {
            return None;
        };
        // Bare V, or V (W | P)* P: everything after the verb is filler,
        // verb or preposition, and the last token is a preposition.
        let tail = |t: &Tag| t.is_relation_filler() || matches!(t, Tag::Prep | Tag::Verb);
        let matches =
            rest == to || (tags[to - 1] == Tag::Prep && tags[rest..to - 1].iter().all(tail));
        matches.then_some(verb)
    }

    /// True if the phrase head (last token) is a proper noun.
    fn is_proper(&self, (start, end): Span) -> bool {
        end > start && self.tags[end - 1] == Tag::ProperNoun
    }

    /// True if every token of the phrase is a number/date literal.
    pub(crate) fn is_numeric(&self, (start, end): Span) -> bool {
        self.tags[start..end].iter().all(|&t| t == Tag::Number)
    }

    /// The extractions of the analyzed sentence, one per noun phrase
    /// that has a relation to a later one.
    pub(crate) fn extractions(&self) -> impl Iterator<Item = Found> + '_ {
        self.phrases
            .iter()
            .enumerate()
            .filter_map(move |(i, &left)| {
                // ReVerb prefers the longest relation-phrase match: a phrase
                // may span intermediate common-noun chunks ("housed on the
                // campus of"), so the furthest argument whose gap still
                // satisfies the constraint wins.
                let (right, verb) = self.phrases[i + 1..]
                    .iter()
                    .rev()
                    .find_map(|&right| Some((right, self.relation(left.1, right.0)?)))?;
                // The relation phrase has one word per token.
                let (proper1, proper2) = (self.is_proper(left), self.is_proper(right));
                let confidence = confidence(right.0 - verb, proper1, proper2, self.tokens.len());
                Some(Found {
                    left,
                    verb,
                    right,
                    confidence,
                })
            })
    }

    /// Writes `words` into `out`, separated by single spaces.
    fn join<'a>(words: impl Iterator<Item = &'a str>, out: &mut String) {
        out.clear();
        for (k, word) in words.enumerate() {
            if k > 0 {
                out.push(' ');
            }
            out.push_str(word);
        }
    }

    /// Writes an argument phrase's surface text into `out`, any leading
    /// determiner stripped (determiners are not part of entity surface
    /// forms).
    pub(crate) fn write_arg(&self, sentence: &str, (start, end): Span, out: &mut String) {
        let start = (start..end)
            .find(|&t| self.tags[t] != Tag::Det)
            .unwrap_or(end);
        let words = self.tokens[start..end]
            .iter()
            .map(|&((a, b), _)| &sentence[a..b]);
        Scratch::join(words, out);
    }

    /// Writes an extraction's normalized relation phrase (lowercased,
    /// auxiliaries stripped) into `out`.
    pub(crate) fn write_rel(&self, found: &Found, out: &mut String) {
        let words = self.tokens[found.verb..found.right.0].iter();
        Scratch::join(words.map(|&(_, (a, b))| &self.lower[a..b]), out);
    }
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
/// Each noun phrase yields an extraction with the furthest later phrase
/// whose gap matches the relation constraint, if any.
pub fn extract_sentence(lexicon: &Lexicon, sentence: &str) -> Vec<Extraction> {
    let mut scratch = Scratch::default();
    scratch.analyze(lexicon, sentence);
    scratch
        .extractions()
        .map(|found| {
            let (mut arg1, mut rel, mut arg2): (String, String, String) = Default::default();
            scratch.write_arg(sentence, found.left, &mut arg1);
            scratch.write_rel(&found, &mut rel);
            scratch.write_arg(sentence, found.right, &mut arg2);
            Extraction {
                arg1,
                rel,
                arg2,
                confidence: found.confidence,
                arg2_is_numeric: scratch.is_numeric(found.right),
                arg1_is_proper: scratch.is_proper(found.left),
                arg2_is_proper: scratch.is_proper(found.right),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzed(sentence: &str) -> Scratch {
        let mut scratch = Scratch::default();
        scratch.analyze(&Lexicon::english(), sentence);
        scratch
    }

    fn words<'s>(scratch: &Scratch, sentence: &'s str) -> Vec<&'s str> {
        scratch
            .tokens
            .iter()
            .map(|&((a, b), _)| &sentence[a..b])
            .collect()
    }

    fn phrase_texts(sentence: &str) -> Vec<String> {
        let scratch = analyzed(sentence);
        let mut out = String::new();
        let texts = scratch.phrases.iter().map(|&p| {
            scratch.write_arg(sentence, p, &mut out);
            out.clone()
        });
        texts.collect()
    }

    fn one(sentence: &str) -> Extraction {
        let lex = Lexicon::english();
        let mut ex = extract_sentence(&lex, sentence);
        assert_eq!(ex.len(), 1, "expected one extraction from {sentence:?}");
        ex.pop().unwrap()
    }

    #[test]
    fn splits_and_strips_punctuation() {
        let s = "Brusa Klinberg lectured at Velmora University.";
        assert_eq!(
            words(&analyzed(s), s),
            vec![
                "Brusa",
                "Klinberg",
                "lectured",
                "at",
                "Velmora",
                "University"
            ]
        );
    }

    #[test]
    fn keeps_abbreviations_and_dates_whole() {
        let s = "Prof. Klinberg was born on 1879-03-14.";
        let scratch = analyzed(s);
        let w = words(&scratch, s);
        assert_eq!(w[0], "Prof.");
        assert_eq!(*w.last().unwrap(), "1879-03-14");
        assert_eq!(scratch.tags[0], Tag::ProperNoun);
        assert!(is_numeric_like("1879-03-14"));
        assert!(!is_numeric_like("abc"));
        assert!(!is_numeric_like("-"));
    }

    #[test]
    fn lowercase_forms() {
        let scratch = analyzed("The Committee met in İstanbul.");
        let lower: Vec<&str> = scratch
            .tokens
            .iter()
            .map(|&(_, (a, b))| &scratch.lower[a..b])
            .collect();
        assert_eq!(
            lower,
            vec!["the", "committee", "met", "in", "i\u{307}stanbul"]
        );
    }

    #[test]
    fn empty_input() {
        assert!(analyzed("").tokens.is_empty());
        assert!(analyzed("  ...  ").tokens.is_empty());
    }

    #[test]
    fn tags_follow_the_lexicon_and_heuristics() {
        use Tag::*;
        let cases: [(&str, &[Tag]); 4] = [
            (
                "Brusa Klinberg lectured at Velmora University.",
                &[ProperNoun, ProperNoun, Verb, Prep, ProperNoun, ProperNoun],
            ),
            (
                "The institute was housed in Drona University.",
                &[Det, Noun, Aux, Verb, Prep, ProperNoun, ProperNoun],
            ),
            (
                "Velmora lies in Trastenia.",
                &[ProperNoun, Verb, Prep, ProperNoun],
            ),
            (
                "Kloue Corp sponsored the event.",
                &[ProperNoun, ProperNoun, Verb, Det, Noun],
            ),
        ];
        for (sentence, tags) in cases {
            assert_eq!(analyzed(sentence).tags, tags, "{sentence}");
        }
        assert_eq!(analyzed("She was born on 1879-03-14.").tags[4], Number);
    }

    #[test]
    fn chunks_strip_determiners_and_need_a_head() {
        assert_eq!(
            phrase_texts("Brusa Klinberg lectured at Velmora University."),
            vec!["Brusa Klinberg", "Velmora University"]
        );
        let texts = phrase_texts("The Institute for Drona Studies is housed in Kloue University.");
        assert!(texts[0].starts_with("Institute"));
        // "the" alone has no nominal head.
        assert!(analyzed("the of in").phrases.is_empty());
    }

    #[test]
    fn phrase_shape_predicates() {
        let scratch = analyzed("Ada Lum was born on 1854-02-12.");
        assert!(scratch.is_numeric(scratch.phrases[1]));
        assert!(!scratch.is_numeric(scratch.phrases[0]));
        let scratch = analyzed("Brusa Klinberg admired the ancient library.");
        assert!(scratch.is_proper(scratch.phrases[0]));
        assert!(!scratch.is_proper(scratch.phrases[1]));
    }

    #[test]
    fn a_scratch_reused_forgets_the_previous_sentence() {
        let lex = Lexicon::english();
        let mut scratch = Scratch::default();
        scratch.analyze(
            &lex,
            "Ada Lum won the prize for his discovery of quantum flane theory.",
        );
        scratch.analyze(&lex, "Velmora Trastenia");
        assert_eq!(scratch.tokens.len(), 2);
        assert_eq!(scratch.extractions().count(), 0);
    }

    #[test]
    fn simple_verb_prep() {
        let e = one("Brusa Klinberg lectured at Velmora University.");
        assert_eq!(e.arg1, "Brusa Klinberg");
        assert_eq!(e.rel, "lectured at");
        assert_eq!(e.arg2, "Velmora University");
        assert!(e.confidence > 0.5);
    }

    #[test]
    fn auxiliary_is_stripped() {
        let e = one("Institute for Drona Studies was housed on the campus of Kloue University.");
        assert_eq!(e.rel, "housed on the campus of");
    }

    #[test]
    fn passive_born_in() {
        let e = one("Ada Lum was born in Velmora.");
        assert_eq!(e.rel, "born in");
        assert_eq!(e.arg2, "Velmora");
    }

    #[test]
    fn long_filler_phrase() {
        let e = one("Ada Lum won the prize for his discovery of quantum flane theory.");
        assert_eq!(e.rel, "won the prize for his discovery of");
        assert_eq!(e.arg2, "quantum flane theory");
        // Long phrases get attenuated confidence.
        assert!(e.confidence < 0.75);
    }

    #[test]
    fn date_object_is_numeric() {
        let e = one("Ada Lum was born on 1854-02-12.");
        assert!(e.arg2_is_numeric);
        assert_eq!(e.rel, "born on");
    }

    #[test]
    fn bare_verb_between_nps() {
        let e = one("Prof. Drat supervised Velma Kord.");
        assert_eq!(e.rel, "supervised");
        assert_eq!(e.arg1, "Prof. Drat");
        assert_eq!(e.arg2, "Velma Kord");
    }

    #[test]
    fn no_relation_no_extraction() {
        let lex = Lexicon::english();
        // No verb between the phrases.
        let ex = extract_sentence(&lex, "Velmora Trastenia");
        assert!(ex.is_empty());
    }

    #[test]
    fn noise_sentences_extract_little_of_value() {
        let lex = Lexicon::english();
        let ex = extract_sentence(&lex, "The committee postponed its annual meeting.");
        // May extract ("committee", "postponed", "its annual meeting") —
        // fine; it is a low-value triple with common-noun args.
        for e in ex {
            assert!(!e.arg1_is_proper);
        }
    }

    #[test]
    fn confidence_bounds() {
        assert!(confidence(1, true, true, 5) <= 0.95);
        assert!(confidence(12, false, false, 30) >= 0.05);
        assert!(confidence(2, true, true, 8) > confidence(7, false, false, 20));
    }

    #[test]
    fn multiple_extractions_from_conjoined_sentence() {
        let lex = Lexicon::english();
        let ex = extract_sentence(
            &lex,
            "Ada Lum worked at Kloue University and Prof. Drat worked at Velmora University.",
        );
        assert!(ex.len() >= 2);
    }
}
