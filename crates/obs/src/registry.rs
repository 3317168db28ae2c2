//! Process-wide metrics registry: atomic counters, gauges, and
//! stripe-sharded latency histograms.
//!
//! One [`MetricsRegistry`] lives behind the engine for the life of the
//! process. Counters and gauges are single relaxed atomics; histograms
//! are sharded across mutex stripes picked by a thread-local stripe id
//! so concurrent recorders almost never contend.
//! [`snapshot`](MetricsRegistry::snapshot) merges everything into one JSON
//! document: counters, gauges, the cache tally, and p50/p90/p99/p999
//! summaries of the query-wall and per-stage histograms.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::hist::Histogram;
use crate::span::{QueryTrace, Stage};

/// Monotone process-wide event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Queries executed (any engine, any backend).
    Queries,
    /// Answers returned across all queries.
    Answers,
    /// Queries that completed `Completeness::Exact`.
    CompletenessExact,
    /// Queries that completed `Completeness::Approx`.
    CompletenessApprox,
    /// Queries that completed `Completeness::Truncated`.
    CompletenessTruncated,
    /// Queries that failed (worker panic or other execution error).
    QueryFailures,
    /// Delta ingest batches applied.
    IngestBatches,
    /// Triples ingested across all batches.
    IngestedTriples,
    /// Store compactions performed.
    Compactions,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 9;

    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Queries,
        Counter::Answers,
        Counter::CompletenessExact,
        Counter::CompletenessApprox,
        Counter::CompletenessTruncated,
        Counter::QueryFailures,
        Counter::IngestBatches,
        Counter::IngestedTriples,
        Counter::Compactions,
    ];

    /// Dense index (position in [`Counter::ALL`]).
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the snapshot JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Queries => "queries",
            Counter::Answers => "answers",
            Counter::CompletenessExact => "completeness_exact",
            Counter::CompletenessApprox => "completeness_approx",
            Counter::CompletenessTruncated => "completeness_truncated",
            Counter::QueryFailures => "query_failures",
            Counter::IngestBatches => "ingest_batches",
            Counter::IngestedTriples => "ingested_triples",
            Counter::Compactions => "compactions",
        }
    }
}

/// Last-write-wins process gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Store generation (bumps on ingest/compact).
    StoreGeneration,
    /// Triples currently live in the delta segment.
    DeltaTriples,
    /// Total triples in the store (base + delta).
    StoreTriples,
    /// Heap bytes held by the store's index structures (permutations,
    /// posting strata, and their directories — dictionary and triple
    /// payloads excluded).
    IndexBytes,
    /// Total storage bytes (indexes + dictionary + triple/provenance
    /// payloads) divided by the triple count, rounded to the nearest
    /// whole byte; 0 for an empty store.
    BytesPerTriple,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 5;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::StoreGeneration,
        Gauge::DeltaTriples,
        Gauge::StoreTriples,
        Gauge::IndexBytes,
        Gauge::BytesPerTriple,
    ];

    /// Dense index (position in [`Gauge::ALL`]).
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the snapshot JSON.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::StoreGeneration => "store_generation",
            Gauge::DeltaTriples => "delta_triples",
            Gauge::StoreTriples => "store_triples",
            Gauge::IndexBytes => "index_bytes",
            Gauge::BytesPerTriple => "bytes_per_triple",
        }
    }
}

/// A plain shared-cache stat tally (mirror of the query crate's
/// `SharedCacheStats`, kept dependency-free here).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTally {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Mutex poisonings recovered as cold restarts.
    pub poison_recoveries: u64,
}

impl CacheTally {
    /// Element-wise sum.
    pub fn add(&mut self, other: CacheTally) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.poison_recoveries += other.poison_recoveries;
    }
}

/// Number of mutex stripes per sharded histogram.
const STRIPES: usize = 8;

/// Stripe id for the calling thread (assigned round-robin once).
fn stripe_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// Locks a stripe, recovering from poisoning: a histogram is a plain
/// count array, never left half-updated in a way later reads could trip
/// over.
fn lock<T>(stripe: &Mutex<T>) -> MutexGuard<'_, T> {
    match stripe.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A value sharded over mutex stripes: each thread works under its own
/// stripe's lock (no cross-thread contention in steady state), readers
/// fold every stripe.
#[derive(Debug)]
struct Striped<T> {
    stripes: [Mutex<T>; STRIPES],
}

impl<T> Striped<T> {
    fn new(init: impl Fn() -> T) -> Striped<T> {
        Striped { stripes: std::array::from_fn(|_| Mutex::new(init())) }
    }

    /// Runs `f` on the calling thread's stripe, under one lock.
    fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut lock(&self.stripes[stripe_id()]))
    }

    /// Visits every stripe in turn.
    fn for_each(&self, mut f: impl FnMut(&T)) {
        for s in &self.stripes {
            f(&lock(s));
        }
    }
}

/// A histogram sharded over mutex stripes: threads record into their
/// own stripe (no cross-thread contention in steady state), snapshots
/// merge all stripes.
#[derive(Debug)]
pub struct ShardedHistogram {
    inner: Striped<Histogram>,
}

impl Default for ShardedHistogram {
    fn default() -> ShardedHistogram {
        ShardedHistogram::new()
    }
}

impl ShardedHistogram {
    /// An empty sharded histogram.
    pub fn new() -> ShardedHistogram {
        ShardedHistogram { inner: Striped::new(Histogram::new) }
    }

    /// Record one sample into the calling thread's stripe.
    pub fn record(&self, v: u64) {
        self.inner.with(|h| h.record(v));
    }

    /// Merge every stripe into one histogram.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        self.inner.for_each(|h| out.merge(h));
        out
    }
}

/// The process-wide registry: counters, gauges, the folded cache
/// tally, a query-wall histogram, and one histogram per [`Stage`].
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    cache: [AtomicU64; 4],
    query_wall: ShardedHistogram,
    /// One histogram per [`Stage`] in each stripe, so a whole trace
    /// records under one lock.
    stages: Striped<[Histogram; Stage::COUNT]>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            cache: std::array::from_fn(|_| AtomicU64::new(0)),
            query_wall: ShardedHistogram::new(),
            stages: Striped::new(|| std::array::from_fn(|_| Histogram::new())),
        }
    }

    /// Increment a counter by one.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Increment a counter by `n`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c.idx()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current counter value.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.idx()].load(Ordering::Relaxed)
    }

    /// Set a gauge.
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g.idx()].store(v, Ordering::Relaxed);
    }

    /// Current gauge value.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.idx()].load(Ordering::Relaxed)
    }

    /// Fold a cache tally (e.g. a dropped session's stats) into the
    /// process-wide cache tally.
    pub fn fold_cache(&self, t: CacheTally) {
        self.cache[0].fetch_add(t.hits, Ordering::Relaxed);
        self.cache[1].fetch_add(t.misses, Ordering::Relaxed);
        self.cache[2].fetch_add(t.evictions, Ordering::Relaxed);
        self.cache[3].fetch_add(t.poison_recoveries, Ordering::Relaxed);
    }

    /// The folded cache tally accumulated so far.
    pub fn cache_tally(&self) -> CacheTally {
        CacheTally {
            hits: self.cache[0].load(Ordering::Relaxed),
            misses: self.cache[1].load(Ordering::Relaxed),
            evictions: self.cache[2].load(Ordering::Relaxed),
            poison_recoveries: self.cache[3].load(Ordering::Relaxed),
        }
    }

    /// Record one query's wall time.
    pub fn record_query_wall(&self, ns: u64) {
        self.query_wall.record(ns);
    }

    /// Merged query-wall histogram.
    pub fn query_wall(&self) -> Histogram {
        self.query_wall.merged()
    }

    /// Record a sample into one stage's histogram.
    pub fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages.with(|h| h[stage.idx()].record(ns));
    }

    /// Merged histogram for one stage.
    pub fn stage(&self, stage: Stage) -> Histogram {
        let mut out = Histogram::new();
        self.stages.for_each(|h| out.merge(&h[stage.idx()]));
        out
    }

    /// Fold every span of a finished trace into the per-stage
    /// histograms under one stripe lock (point events contribute
    /// zero-duration samples, so stage counts stay meaningful).
    pub fn record_trace(&self, trace: &QueryTrace) {
        self.stages.with(|h| {
            for span in &trace.spans {
                h[span.stage.idx()].record(span.dur_ns);
            }
        });
    }

    /// Serialize the whole registry to JSON: counters, gauges, the
    /// cache tally (folded + the caller-supplied live stats), the
    /// query-wall summary, and a summary per non-empty stage.
    pub fn snapshot(&self, live_cache: CacheTally) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.get(*c)));
        }
        out.push_str("},\"gauges\":{");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", g.name(), self.gauge(*g)));
        }
        let mut cache = self.cache_tally();
        cache.add(live_cache);
        out.push_str(&format!(
            "}},\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"poison_recoveries\":{}}}",
            cache.hits, cache.misses, cache.evictions, cache.poison_recoveries
        ));
        out.push_str(&format!(",\"query_wall_ns\":{}", self.query_wall().summary_json()));
        out.push_str(",\"stages_ns\":{");
        let mut first = true;
        for s in Stage::ALL {
            let h = self.stage(s);
            if h.is_empty() {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{}\":{}", s.name(), h.summary_json()));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    #[test]
    fn counter_all_is_exhaustive_with_unique_names() {
        for c in Counter::ALL {
            // Compile-breaks when a variant is added without updating ALL.
            match c {
                Counter::Queries
                | Counter::Answers
                | Counter::CompletenessExact
                | Counter::CompletenessApprox
                | Counter::CompletenessTruncated
                | Counter::QueryFailures
                | Counter::IngestBatches
                | Counter::IngestedTriples
                | Counter::Compactions => {}
            }
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.idx(), i);
        }
    }

    #[test]
    fn gauge_all_is_exhaustive_with_unique_names() {
        for g in Gauge::ALL {
            match g {
                Gauge::StoreGeneration
                | Gauge::DeltaTriples
                | Gauge::StoreTriples
                | Gauge::IndexBytes
                | Gauge::BytesPerTriple => {}
            }
        }
        let mut names: Vec<&str> = Gauge::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Gauge::COUNT);
    }

    #[test]
    fn snapshot_contains_every_counter_gauge_and_cache_field() {
        let r = MetricsRegistry::new();
        r.incr(Counter::Queries);
        r.record_query_wall(1234);
        let j = r.snapshot(CacheTally { hits: 5, misses: 3, evictions: 1, poison_recoveries: 0 });
        for c in Counter::ALL {
            assert!(j.contains(&format!("\"{}\":", c.name())), "missing {} in {j}", c.name());
        }
        for g in Gauge::ALL {
            assert!(j.contains(&format!("\"{}\":", g.name())), "missing {} in {j}", g.name());
        }
        for key in ["hits", "misses", "evictions", "poison_recoveries", "query_wall_ns", "stages_ns"] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key} in {j}");
        }
        assert!(j.contains("\"hits\":5"));
    }

    #[test]
    fn fold_cache_accumulates_and_snapshot_adds_live() {
        let r = MetricsRegistry::new();
        r.fold_cache(CacheTally { hits: 2, misses: 1, evictions: 0, poison_recoveries: 1 });
        r.fold_cache(CacheTally { hits: 3, misses: 0, evictions: 2, poison_recoveries: 0 });
        let t = r.cache_tally();
        assert_eq!((t.hits, t.misses, t.evictions, t.poison_recoveries), (5, 1, 2, 1));
        let j = r.snapshot(CacheTally { hits: 10, misses: 0, evictions: 0, poison_recoveries: 0 });
        assert!(j.contains("\"hits\":15"), "{j}");
    }

    #[test]
    fn record_trace_feeds_stage_histograms() {
        let r = MetricsRegistry::new();
        let trace = QueryTrace {
            spans: vec![
                SpanRecord { stage: Stage::Variant, detail: 0, start_ns: 0, dur_ns: 100 },
                SpanRecord { stage: Stage::Variant, detail: 1, start_ns: 100, dur_ns: 300 },
                SpanRecord { stage: Stage::Cutoff, detail: 0, start_ns: 400, dur_ns: 0 },
            ],
            dropped: 0,
        };
        r.record_trace(&trace);
        assert_eq!(r.stage(Stage::Variant).count(), 2);
        assert_eq!(r.stage(Stage::Cutoff).count(), 1);
        assert!(r.stage(Stage::Variant).max() >= 300);
        assert!(r.stage(Stage::Merge).is_empty());
    }

    #[test]
    fn sharded_histogram_merges_across_threads() {
        let h = std::sync::Arc::new(ShardedHistogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..100u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let m = h.merged();
        assert_eq!(m.count(), 400);
        assert!(m.max() >= 3000);
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<MetricsRegistry>();
    }
}
