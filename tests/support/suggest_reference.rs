//! The token → resource suggester as it was before it probed: every
//! resource predicate's full `args(p)`, a forward merge count and a
//! reversed binary search. Kept as a test-only reference for
//! differential checks; it reads the union of a store's live slices
//! (base partitions, then delta views), which on a store without a
//! delta is what the scan read at every partition count.

use trinit_core::query::Query;
use trinit_core::shard::ShardedStore;
use trinit_core::xkg::{args_pairs, TermId};
use trinit_core::{SuggestConfig, Suggestion};

/// Size of the intersection of two sorted, deduplicated pair lists.
fn sorted_overlap(a: &[(TermId, TermId)], b: &[(TermId, TermId)]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut overlap = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                overlap += 1;
                i += 1;
                j += 1;
            }
        }
    }
    overlap
}

/// `args(p)` over every live slice: the sorted union of each slice's.
fn args_of(store: &ShardedStore, p: TermId) -> Vec<(TermId, TermId)> {
    let mut pairs: Vec<(TermId, TermId)> = store
        .segments()
        .into_iter()
        .flat_map(|slice| args_pairs(slice, p))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Suggests canonical resources for token predicates used in `query`:
/// every resource predicate `r` with
/// `|args(t) ∩ args(r)| / |args(t)| ≥ min_overlap` (reversed if that
/// is strictly larger), strongest overlap first, then by term id.
pub fn token_resource_from(
    store: &ShardedStore,
    query: &Query,
    cfg: &SuggestConfig,
) -> Vec<Suggestion> {
    let resolve = |id| {
        store
            .vocab()
            .dict()
            .resolve(id)
            .unwrap_or("<unknown>")
            .to_string()
    };
    let mut predicates: Vec<TermId> = store
        .segments()
        .into_iter()
        .flat_map(|slice| slice.predicates().iter().copied())
        .collect();
    predicates.sort_unstable();
    predicates.dedup();

    let mut out = Vec::new();
    let mut token_preds: Vec<TermId> = query
        .patterns
        .iter()
        .filter_map(|p| p.p.term())
        .filter(|t| t.is_token())
        .collect();
    token_preds.sort_unstable();
    token_preds.dedup();

    for tp in token_preds {
        let token_args = args_of(store, tp);
        if token_args.is_empty() {
            continue;
        }
        let mut candidates: Vec<(f64, bool, TermId)> = Vec::new();
        for &rp in &predicates {
            if !rp.is_resource() {
                continue;
            }
            let res_args = args_of(store, rp);
            let forward = sorted_overlap(&token_args, &res_args);
            let reversed = token_args
                .iter()
                .filter(|(a, b)| res_args.binary_search(&(*b, *a)).is_ok())
                .count();
            let (overlap, inverted) = if reversed > forward {
                (reversed, true)
            } else {
                (forward, false)
            };
            let frac = overlap as f64 / token_args.len() as f64;
            if frac >= cfg.min_overlap {
                candidates.push((frac, inverted, rp));
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        for (frac, inverted, rp) in candidates.into_iter().take(cfg.per_token) {
            out.push(Suggestion::ReplaceToken {
                token: resolve(tp),
                resource: resolve(rp),
                overlap: frac,
                inverted,
            });
        }
    }
    out
}
