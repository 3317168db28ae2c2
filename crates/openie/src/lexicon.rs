//! Part-of-speech tags and a compact English lexicon.
//!
//! The extractor does not need full-coverage POS tagging — ReVerb itself
//! uses a fast shallow tagger. We ship a closed-class lexicon (complete
//! for determiners, prepositions, auxiliaries, pronouns) plus an open-class
//! verb/noun list covering common web-text vocabulary; everything else is
//! resolved by the tagging heuristics in [`crate::extractor`].

use std::collections::HashMap;

/// Shallow part-of-speech categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Determiner (the, a, an, ...).
    Det,
    /// Preposition (in, at, of, for, ...).
    Prep,
    /// Auxiliary / copula (is, was, were, has, ...).
    Aux,
    /// Main verb.
    Verb,
    /// Common noun.
    Noun,
    /// Proper noun (part of an entity name).
    ProperNoun,
    /// Adjective.
    Adj,
    /// Possessive or personal pronoun (his, her, its, ...).
    Pronoun,
    /// Number or date literal.
    Number,
    /// Anything else.
    Other,
}

impl Tag {
    /// True if the tag can appear *inside* a ReVerb relation phrase
    /// between the verb and the final preposition (the `W` class).
    pub fn is_relation_filler(self) -> bool {
        matches!(
            self,
            Tag::Noun | Tag::Adj | Tag::Pronoun | Tag::Det | Tag::Other
        )
    }

    /// True if the tag can be part of a noun phrase.
    pub fn is_np_part(self) -> bool {
        matches!(
            self,
            Tag::Det | Tag::Adj | Tag::Noun | Tag::ProperNoun | Tag::Number
        )
    }
}

const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "several", "some", "any", "each", "every",
    "no", "both",
];
const PREPOSITIONS: &[&str] = &[
    "in", "at", "of", "for", "on", "from", "with", "by", "under", "near", "into", "about",
    "through", "after", "before", "against", "during",
];
const AUXILIARIES: &[&str] = &[
    "is", "was", "are", "were", "be", "been", "being", "has", "have", "had", "will", "would",
    "can", "could", "may", "might", "do", "does", "did",
];
const PRONOUNS: &[&str] = &[
    "he", "she", "it", "they", "his", "her", "its", "their", "him", "them", "who", "which",
];
const VERBS: &[&str] = &[
    "born", "died", "won", "received", "lectured", "taught", "gave", "worked", "works",
    "supervised", "studied", "graduated", "housed", "located", "lies", "passed", "honored",
    "employed", "headquartered", "opened", "closed", "admired", "postponed", "recovered", "met",
    "discovered", "founded", "moved", "joined", "wrote", "published", "awarded", "visited",
    "became", "led", "directed", "established",
];
const NOUNS: &[&str] = &[
    "town", "city", "cities", "lecture", "lectures", "student", "students", "prize", "award",
    "work", "discovery", "campus", "member", "members", "committee", "meeting", "hall", "river",
    "library", "observatory", "visitors", "manuscript", "archive", "renovation", "teacher",
    "professor", "university", "institute", "league", "corp", "company", "doctoral", "father",
    "mother", "studies",
];
const ADJECTIVES: &[&str] = &[
    "old", "new", "ancient", "annual", "early", "famous", "late", "young", "former",
];
const CONJUNCTIONS: &[&str] = &["and", "or", "but", "while", "whereas", "also", "then", "as"];

/// A word → tag lookup table.
#[derive(Debug)]
pub struct Lexicon {
    table: HashMap<&'static str, Tag>,
}

impl Lexicon {
    /// Builds the default English mini-lexicon.
    pub fn english() -> Lexicon {
        let mut table = HashMap::new();
        for &w in DETERMINERS {
            table.insert(w, Tag::Det);
        }
        for &w in PREPOSITIONS {
            table.insert(w, Tag::Prep);
        }
        for &w in AUXILIARIES {
            table.insert(w, Tag::Aux);
        }
        for &w in PRONOUNS {
            table.insert(w, Tag::Pronoun);
        }
        for &w in VERBS {
            table.insert(w, Tag::Verb);
        }
        for &w in NOUNS {
            table.insert(w, Tag::Noun);
        }
        for &w in ADJECTIVES {
            table.insert(w, Tag::Adj);
        }
        for &w in CONJUNCTIONS {
            table.insert(w, Tag::Other);
        }
        Lexicon { table }
    }

    /// Looks up the tag of a lowercased word.
    pub fn get(&self, lower: &str) -> Option<Tag> {
        self.table.get(lower).copied()
    }

    /// Number of lexicon entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the lexicon is empty (never for [`Lexicon::english`]).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl Default for Lexicon {
    fn default() -> Self {
        Lexicon::english()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_classes_resolve() {
        let lex = Lexicon::english();
        assert_eq!(lex.get("the"), Some(Tag::Det));
        assert_eq!(lex.get("in"), Some(Tag::Prep));
        assert_eq!(lex.get("was"), Some(Tag::Aux));
        assert_eq!(lex.get("his"), Some(Tag::Pronoun));
    }

    #[test]
    fn open_classes_resolve() {
        let lex = Lexicon::english();
        assert_eq!(lex.get("lectured"), Some(Tag::Verb));
        assert_eq!(lex.get("prize"), Some(Tag::Noun));
        assert_eq!(lex.get("ancient"), Some(Tag::Adj));
    }

    #[test]
    fn unknown_words_are_none() {
        let lex = Lexicon::english();
        assert_eq!(lex.get("velmora"), None);
    }

    #[test]
    fn filler_class_excludes_preps_and_verbs() {
        assert!(Tag::Noun.is_relation_filler());
        assert!(Tag::Pronoun.is_relation_filler());
        assert!(!Tag::Prep.is_relation_filler());
        assert!(!Tag::Verb.is_relation_filler());
    }

    #[test]
    fn np_parts() {
        assert!(Tag::ProperNoun.is_np_part());
        assert!(Tag::Det.is_np_part());
        assert!(!Tag::Verb.is_np_part());
        assert!(!Tag::Prep.is_np_part());
    }

    #[test]
    fn lexicon_is_nonempty() {
        let lex = Lexicon::english();
        assert!(!lex.is_empty());
        assert!(lex.len() > 80);
    }
}
