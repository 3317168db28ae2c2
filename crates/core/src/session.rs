//! Interactive sessions with user-defined relaxation rules.
//!
//! The demo lets users "define their own relaxation rules" and "supply
//! TriniT with relaxation rules invoked during query processing" (paper
//! §5, Figure 5 shows rules 3 and 4 entered in the UI). A [`Session`]
//! overlays user rules on the system rule set without mutating the
//! shared system.
//!
//! Each session also owns a bounded LRU [`SharedPostingCache`]:
//! interactive exploration (the paper's E6 workload) re-issues queries
//! over the same predicates and entity anchors, so materialized posting
//! lists are reused across consecutive queries of the session —
//! [`ExecMetrics::shared_cache_hits`](trinit_query::ExecMetrics) counts
//! the reuse. Caches are per-session, never shared between users.

use trinit_query::{Query, SharedCacheStats, SharedPostingCache};
use trinit_relax::{Rule, RuleId, RuleSet};

use crate::trinit::{Engine, QueryOutcome, Scope, Trinit};

/// Default capacity of a session's posting cache (materialized lists).
pub const SESSION_CACHE_CAPACITY: usize = 256;

/// One user's interactive session.
pub struct Session<'a> {
    system: &'a Trinit,
    rules: RuleSet,
    user_rules: usize,
    /// One session-owned cache per shard of the system (cached lists
    /// are shard-specific, so shards never share one); a monolithic
    /// system is one shard.
    caches: Vec<SharedPostingCache>,
}

impl<'a> Session<'a> {
    fn with_rules(system: &'a Trinit, rules: RuleSet) -> Session<'a> {
        let mut session = Session {
            system,
            rules,
            user_rules: 0,
            caches: Vec::new(),
        };
        session.set_posting_cache_capacity(SESSION_CACHE_CAPACITY);
        session
    }

    /// Opens a session over a system; starts with the system rule set.
    pub fn new(system: &'a Trinit) -> Session<'a> {
        let mut rules = RuleSet::new();
        for (_, rule) in system.rules().iter() {
            rules.add(rule.clone());
        }
        Session::with_rules(system, rules)
    }

    /// Opens a session that ignores the system rules (pure user rules).
    pub fn without_system_rules(system: &'a Trinit) -> Session<'a> {
        Session::with_rules(system, RuleSet::new())
    }

    /// Replaces the session posting caches with ones holding `capacity`
    /// materialized lists each (0 disables retention). Drops cached
    /// lists and counters.
    pub fn set_posting_cache_capacity(&mut self, capacity: usize) -> &mut Self {
        self.caches = (0..self.system.shard_count())
            .map(|_| SharedPostingCache::new(capacity))
            .collect();
        self
    }

    /// The session's posting caches (stats, capacity, manual clearing):
    /// one per shard of the system, one for a monolithic system.
    pub fn posting_caches(&self) -> &[SharedPostingCache] {
        &self.caches
    }

    /// Hit/miss/eviction/poison-recovery counters of the session
    /// posting caches, summed across shards.
    pub fn cache_stats(&self) -> SharedCacheStats {
        let mut stats = SharedCacheStats::default();
        for cache in &self.caches {
            let s = cache.stats();
            stats.hits += s.hits;
            stats.misses += s.misses;
            stats.evictions += s.evictions;
            stats.poison_recoveries += s.poison_recoveries;
        }
        stats
    }

    /// Adds a user-defined rule, returning its id in this session.
    pub fn add_rule(&mut self, rule: Rule) -> RuleId {
        self.user_rules += 1;
        self.rules.add(rule)
    }

    /// Number of user-added rules.
    pub fn user_rule_count(&self) -> usize {
        self.user_rules
    }

    /// The session's combined rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The underlying system.
    pub fn system(&self) -> &Trinit {
        self.system
    }

    /// Parses and answers a query with the session rule set.
    pub fn query(&self, text: &str) -> Result<QueryOutcome, trinit_query::ParseError> {
        let query = self.system.parse(text)?;
        Ok(self.run(query, Engine::IncrementalTopK))
    }

    /// The semi-naive delta question under the session rule set: which
    /// of `query`'s top-k answers use at least one triple from the
    /// system's live delta segment (the most recent un-compacted
    /// [`Trinit::ingest`] batches)? See
    /// [`Trinit::answers_introduced_by`]. Returns no answers when no
    /// delta is live.
    pub fn answers_introduced_by(&self, query: Query) -> QueryOutcome {
        self.system.execute(query, &self.rules, &self.caches, Scope::Delta)
    }

    /// Runs a compiled query with the session rule set, reusing posting
    /// lists cached by this session's earlier queries (caches are
    /// session-isolated).
    pub fn run(&self, query: Query, _engine: Engine) -> QueryOutcome {
        self.system.execute(query, &self.rules, &self.caches, Scope::Store)
    }
}

impl Drop for Session<'_> {
    /// Folds the session's lifetime cache traffic into the system
    /// [`MetricsRegistry`](trinit_obs::MetricsRegistry): session caches
    /// are private while live, but their hit/miss/eviction tallies join
    /// the process-wide snapshot once the session closes.
    fn drop(&mut self) {
        self.system
            .registry()
            .fold_cache(crate::trinit::cache_tally(self.cache_stats()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_rules, paper_store};
    use trinit_relax::RuleProvenance;

    fn system() -> Trinit {
        let store = paper_store();
        let rules = paper_rules(&store);
        Trinit::from_parts(store, rules)
    }

    #[test]
    fn session_sees_system_rules() {
        let sys = system();
        let session = Session::new(&sys);
        assert_eq!(session.rules().len(), sys.rules().len());
        assert_eq!(session.user_rule_count(), 0);
    }

    #[test]
    fn user_rule_changes_results() {
        let sys = system();
        // Without rule 2, user B's query has no answers (even with the
        // figure-4 rules 1/3/4 present).
        let outcome = Session::without_system_rules(&sys)
            .query("AlbertEinstein hasAdvisor ?x")
            .unwrap();
        assert!(outcome.answers.is_empty());

        // Adding the inversion rule in-session recovers Kleiner.
        let mut session = Session::without_system_rules(&sys);
        let q = sys.parse("AlbertEinstein hasAdvisor ?x").unwrap();
        let has_advisor = q.unknown_terms[0].0;
        let has_student = sys.store().resource("hasStudent").unwrap();
        session.add_rule(trinit_relax::Rule::inversion(
            "?x hasAdvisor ?y => ?y hasStudent ?x",
            has_advisor,
            has_student,
            1.0,
            RuleProvenance::UserDefined,
        ));
        assert_eq!(session.user_rule_count(), 1);
        let outcome = session.run(q, Engine::IncrementalTopK);
        assert_eq!(outcome.answers.len(), 1);
        let kleiner = sys.store().resource("AlfredKleiner").unwrap();
        assert_eq!(outcome.answers[0].key[0].1, Some(kleiner));
    }

    #[test]
    fn session_cache_hits_across_consecutive_queries() {
        let sys = system();
        let session = Session::new(&sys);
        // Bound-subject patterns materialize posting lists, which the
        // session cache retains across queries.
        let q = "AlbertEinstein affiliation ?x LIMIT 5";
        let first = session.query(q).unwrap();
        let stats_after_first = session.cache_stats();
        assert!(stats_after_first.misses > 0, "first run must consult and miss");
        // A hit on a cold cache is the query's own repeat of a pattern.
        assert_eq!(first.metrics.shared_cache_hits, stats_after_first.hits);

        let second = session.query(q).unwrap();
        let stats_after_second = session.cache_stats();
        assert!(stats_after_second.hits > 0, "second run reuses cached lists");
        assert_eq!(
            stats_after_second.misses, stats_after_first.misses,
            "a repeated query must not miss again"
        );
        assert!(second.metrics.shared_cache_hits > first.metrics.shared_cache_hits);
        assert_eq!(
            second.metrics.posting_lists_built + second.metrics.shared_cache_hits,
            first.metrics.posting_lists_built + first.metrics.shared_cache_hits,
            "every open is either built or a hit"
        );

        // And the cache never changes answers.
        assert_eq!(first.answers.len(), second.answers.len());
        for (a, b) in first.answers.iter().zip(&second.answers) {
            assert_eq!(a.key, b.key);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        let uncached = sys.query(q).unwrap();
        assert_eq!(uncached.answers.len(), second.answers.len());
        for (a, b) in uncached.answers.iter().zip(&second.answers) {
            assert_eq!(a.key, b.key);
        }
    }

    #[test]
    fn session_cache_evicts_at_capacity() {
        let sys = system();
        let mut session = Session::new(&sys);
        session.set_posting_cache_capacity(1);
        // Two different materialized patterns cannot coexist in a
        // capacity-1 cache: alternating queries keep evicting.
        let qa = "AlbertEinstein affiliation ?x LIMIT 5";
        let qb = "AlfredKleiner hasStudent ?x LIMIT 5";
        session.query(qa).unwrap();
        session.query(qb).unwrap();
        session.query(qa).unwrap();
        let stats = session.cache_stats();
        assert!(stats.evictions > 0, "capacity 1 must evict: {stats:?}");
        assert!(session.posting_caches()[0].len() <= 1);
    }

    #[test]
    fn session_caches_are_isolated_between_sessions() {
        let sys = system();
        let a = Session::new(&sys);
        let b = Session::new(&sys);
        let q = "AlbertEinstein affiliation ?x LIMIT 5";
        let cold = a.query(q).unwrap();
        let cold_stats = a.cache_stats();
        a.query(q).unwrap();
        assert!(a.cache_stats().hits > cold_stats.hits);
        // Session b never ran anything: its cache saw no traffic at all,
        // and its first run misses exactly as a's did (a's cached lists
        // are invisible), with the same answers.
        assert_eq!(b.cache_stats(), trinit_query::SharedCacheStats::default());
        let outcome = b.query(q).unwrap();
        assert!(b.cache_stats().misses > 0);
        assert_eq!(b.cache_stats().misses, cold_stats.misses);
        assert_eq!(b.cache_stats().hits, cold_stats.hits);
        assert_eq!(
            outcome.metrics.shared_cache_hits,
            cold.metrics.shared_cache_hits
        );
        for (x, y) in outcome.answers.iter().zip(&cold.answers) {
            assert_eq!(x.key, y.key);
        }
        assert_eq!(outcome.answers.len(), cold.answers.len());
    }

    #[test]
    fn sharded_sessions_route_and_cache_per_shard() {
        use trinit_worldgen::{CorpusConfig, KgConfig, World, WorldConfig};
        let world = World::generate(WorldConfig::tiny(11));
        let mut builder = crate::TrinitBuilder::from_world(
            &world,
            &KgConfig::default(),
            &CorpusConfig::tiny(7),
        );
        builder.options_mut().shards(3);
        let sys = builder.build();
        let session = Session::new(&sys);
        assert_eq!(session.posting_caches().len(), 3);
        let q = "?x type person LIMIT 4";
        let first = session.query(q).unwrap();
        let second = session.query(q).unwrap();
        assert!(
            second.metrics.shared_cache_hits > 0,
            "repeat query must reuse session shard caches: {:?}",
            second.metrics
        );
        assert!(session.cache_stats().hits > 0);
        for (a, b) in first.answers.iter().zip(&second.answers) {
            assert_eq!(a.key, b.key);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        // Session isolation: a fresh session's caches saw no traffic.
        let other = Session::new(&sys);
        assert_eq!(other.cache_stats(), trinit_query::SharedCacheStats::default());
    }

    #[test]
    fn sessions_are_isolated() {
        let sys = system();
        let mut a = Session::new(&sys);
        let b = Session::new(&sys);
        a.add_rule(trinit_relax::Rule::predicate_rewrite(
            "user",
            sys.store().resource("bornIn").unwrap(),
            sys.store().resource("diedIn").unwrap_or_else(|| {
                sys.store().resource("bornIn").unwrap()
            }),
            0.4,
            RuleProvenance::UserDefined,
        ));
        assert_eq!(a.rules().len(), b.rules().len() + 1);
    }
}
