//! # trinit-shard — sharded store and parallel batch execution
//!
//! The store behind every TriniT system: an
//! [`XkgStore`](trinit_xkg::XkgStore) is hash-partitioned into N ≥ 1
//! independent shards at build time (a monolith is N = 1), queries
//! execute over the shards and their live delta views through the
//! partitioned top-k engine, and independent queries run concurrently
//! on one batch pool ([`QueryPool`]).
//!
//! ## Partition scheme
//!
//! Triples are partitioned by **subject term**:
//! `shard(t) = t.s.shard_of(N)` (a deterministic multiplicative hash,
//! [`trinit_xkg::TermId::shard_of`]). Shards share one term dictionary
//! and one provenance-source table (`Arc`), so term and source ids are
//! global; each shard freezes its own permutation and posting indexes
//! over its slice. Subject hashing gives two structural guarantees the
//! executor leans on:
//!
//! * **Co-location** — every triple of a given subject lives in exactly
//!   one shard, so subject-bound patterns (and ground-fact existence
//!   checks for structural-rule data conditions) touch a single shard,
//!   and a shard-local match-set total *is* the global total for those
//!   shapes.
//! * **Disjoint totality** — the shards' match sets for any pattern
//!   partition the monolithic match set, so per-predicate (and
//!   whole-store) emission-weight totals aggregate by simple summation
//!   ([`ShardedStore`] freezes them at build time), and the union of
//!   per-shard score-sorted streams is exactly the monolithic stream.
//!
//! ## Global-threshold soundness
//!
//! Execution over shards normalizes every emission probability by the
//! **global** match-set total ([`trinit_query::GlobalTotals`]), resolved
//! once per alternative per execution, so a shard's emissions carry
//! exactly the probabilities the single-store engine would assign. A
//! shard is just more sorted lists: each pattern's
//! [`IncrementalMerge`](trinit_query::IncrementalMerge) keeps every
//! (alternative, shard) list in one queue and emits from an opened list
//! only when no other list's upper bound outranks it, so the union is
//! emitted in globally descending order. The rank join, threshold, and
//! stream capping on top are the monolithic engine's code, with each
//! shard's posting-index head bounds and prefix-sum remaining mass
//! feeding the bound exactly as the single store's do. Hence every
//! termination argument of the monolithic engine carries over, and the
//! sharded engine returns the same answers with the same scores — a
//! property pinned by this crate's equivalence tests at 1, 2, 4, and 7
//! shards.
//!
//! ## Execution
//!
//! A query is one incremental merge over every shard and live delta
//! view ([`ShardedExecutor::run`]). The merge alone is complete and
//! exact, so there is no per-shard warm-start phase: at ~13 pulls per
//! query, answering each shard first would build every list the merge
//! builds anyway and double the work. A batch runs whole queries on a
//! [`QueryPool`]: one worker, or one query, runs on the calling thread,
//! and each query is panic-isolated to its own slot.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exec;
pub mod store;

pub use exec::{QueryPool, ShardedExecutor};
pub use store::ShardedStore;

/// Test support: the tie-group-aware answer comparator shared by this
/// crate's unit, property, and downstream equivalence tests.
pub mod testkit {
    use trinit_query::Answer;

    /// Asserts two top-k rankings are score-equivalent: scores equal
    /// positionally everywhere, and within each maximal tied-score
    /// group the key *sets* agree. Order inside a tie group, and
    /// membership of the trailing group the k-cut lands in, are
    /// tie-break detail both engines resolve arbitrarily.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any divergence.
    pub fn assert_answers_score_equivalent(got: &[Answer], want: &[Answer]) {
        assert_eq!(got.len(), want.len(), "answer counts differ");
        for (x, y) in got.iter().zip(want) {
            assert!(
                (x.score - y.score).abs() < 1e-9,
                "scores differ: {} vs {}",
                x.score,
                y.score
            );
        }
        let mut i = 0;
        while i < want.len() {
            let mut j = i + 1;
            while j < want.len() && (want[j].score - want[i].score).abs() < 1e-9 {
                j += 1;
            }
            if j < want.len() {
                // Interior tie group: both engines hold its full
                // membership, in some order.
                let mut ka: Vec<_> = got[i..j].iter().map(|a| a.key.clone()).collect();
                let mut kb: Vec<_> = want[i..j].iter().map(|a| a.key.clone()).collect();
                ka.sort();
                kb.sort();
                assert_eq!(ka, kb, "tie-group keys differ");
            }
            i = j;
        }
    }
}
