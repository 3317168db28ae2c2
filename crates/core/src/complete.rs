//! Auto-completion over the XKG vocabulary.
//!
//! "User input is eased by auto-completion, guiding users towards
//! meaningful query formulations." (paper §5). Completion is
//! case-insensitive prefix search over all terms, served by the store's
//! dictionary ([`TermDict::complete`]): ingested terms complete at once.

use std::sync::Arc;

use trinit_xkg::{TermDict, TermKind, XkgStore};

/// A completion candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The completed term text.
    pub text: String,
    /// Which kind of term it is.
    pub kind: TermKind,
}

/// Completion over one store's vocabulary: an O(1) handle on its
/// dictionary, which keeps the completion order. `perfbench/` prices
/// `Completer::build` as a setup stage, so the name stays.
#[derive(Debug)]
pub struct Completer(Arc<TermDict>);

impl Completer {
    /// A handle on `store`'s dictionary.
    pub fn build(store: &XkgStore) -> Completer {
        Completer(store.dict_handle())
    }

    /// Completes a prefix (case-insensitive), returning up to `limit`
    /// candidates ordered by lowercase text, then text, then kind.
    pub fn complete(&self, prefix: &str, limit: usize) -> Vec<Completion> {
        let found = self.0.complete(prefix, limit).into_iter();
        found
            .map(|(id, text)| Completion {
                text: text.to_string(),
                kind: id.kind(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_store;

    #[test]
    fn completes_resources_case_insensitively() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("albert", 10);
        assert!(results.iter().any(|r| r.text == "AlbertEinstein"));
    }

    #[test]
    fn completes_token_phrases() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("won", 10);
        assert!(results
            .iter()
            .any(|r| r.text == "won nobel for" && r.kind == TermKind::Token));
    }

    #[test]
    fn limit_is_respected() {
        let store = paper_store();
        let c = Completer::build(&store);
        assert_eq!(c.complete("", 5).len(), 5);
    }

    #[test]
    fn no_match_returns_empty() {
        let store = paper_store();
        let c = Completer::build(&store);
        assert!(c.complete("zzzzz", 10).is_empty());
    }

    #[test]
    fn results_are_sorted() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("", 100);
        let mut sorted = results.clone();
        sorted.sort_by_key(|a| a.text.to_lowercase());
        assert_eq!(results, sorted);
    }
}
