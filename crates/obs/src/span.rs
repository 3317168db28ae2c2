//! Stage spans and the bounded per-query trace recorder.
//!
//! A [`SpanRecord`] stamps one unit of engine work with a stage label,
//! a small detail word, and monotonic-clock start/duration in
//! nanoseconds (anchored to a process-wide epoch so spans from
//! different threads order on one timeline). A [`TraceRecorder`] is a
//! bounded ring buffer of spans owned by one query: it records with no
//! locks and no allocation past the ring's growth. [`TraceRecorder::off`]
//! is the zero-overhead disabled mode — every record call reduces to
//! one branch and the clock is never read.

use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide monotonic epoch all span timestamps are relative to.
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide monotonic anchor.
pub fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Engine stage a span is attributed to.
///
/// Span semantics by stage:
/// - `Query`, `Variant`, `Merge`, `Ingest`, `Compact` are
///   enter/exit spans: `dur_ns` is the exclusive wall time of that
///   unit of work.
/// - `JoinRound` and `Election` are *windowed batches*: to keep clock
///   reads off the per-pull hot path, the recorder stamps one span per
///   64 events covering the window in which they occurred (`detail` =
///   events in the window).
/// - `Threshold` and `Cutoff` are point events (`dur_ns` = 0) marking
///   a termination decision and a budget/approximation cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Whole-query wall span.
    Query,
    /// One relaxation variant's pipeline run (`detail` = variant index).
    Variant,
    /// Never recorded: there is no seed phase. Kept only because the
    /// benchmark harness still reads it.
    SeedTask,
    /// Cross-shard merge election window (`detail` = elections).
    Election,
    /// Rank-join pull window (`detail` = pulls in the window).
    JoinRound,
    /// Threshold termination decision (point event).
    Threshold,
    /// Budget / approximation cutoff (point event).
    Cutoff,
    /// Cross-shard merge of a sharded query.
    Merge,
    /// One delta ingest batch (`detail` = triples ingested).
    Ingest,
    /// One store compaction.
    Compact,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 10;

    /// Every stage, in index order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Query,
        Stage::Variant,
        Stage::SeedTask,
        Stage::Election,
        Stage::JoinRound,
        Stage::Threshold,
        Stage::Cutoff,
        Stage::Merge,
        Stage::Ingest,
        Stage::Compact,
    ];

    /// Dense index (matches position in [`Stage::ALL`]).
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Variant => "variant",
            Stage::SeedTask => "seed_task",
            Stage::Election => "election",
            Stage::JoinRound => "join_round",
            Stage::Threshold => "threshold",
            Stage::Cutoff => "cutoff",
            Stage::Merge => "merge",
            Stage::Ingest => "ingest",
            Stage::Compact => "compact",
        }
    }
}

/// One recorded span: stage, a stage-specific detail word, and
/// monotonic start/duration in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Stage this work belongs to.
    pub stage: Stage,
    /// Stage-specific detail (variant index, shard index, event count).
    pub detail: u32,
    /// Start, in nanoseconds since the process anchor.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for point events).
    pub dur_ns: u64,
}

/// Bounded per-query span ring.
///
/// While under capacity, spans append; at capacity the oldest span is
/// overwritten and `dropped` increments, so `len() + dropped()` is
/// always the total number of spans ever recorded.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    enabled: bool,
    capacity: usize,
    spans: Vec<SpanRecord>,
    next: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Spans the first record reserves room for (at most the capacity):
    /// a query records four to seven.
    const FIRST_RESERVE: usize = 8;

    /// An enabled recorder holding at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            enabled: true,
            capacity: capacity.max(1),
            spans: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// The disabled recorder: never reads the clock, never allocates,
    /// records nothing. Every call is one branch.
    pub fn off() -> TraceRecorder {
        TraceRecorder {
            enabled: false,
            capacity: 0,
            spans: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Span start timestamp: `now_ns()` when enabled, 0 when off.
    pub fn start(&self) -> u64 {
        if self.enabled {
            now_ns()
        } else {
            0
        }
    }

    /// Close a span opened with [`start`](TraceRecorder::start).
    pub fn record(&mut self, stage: Stage, detail: u32, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let dur_ns = now_ns().saturating_sub(start_ns);
        self.push(SpanRecord { stage, detail, start_ns, dur_ns });
    }

    /// Record a point event (zero duration, stamped now).
    pub fn event(&mut self, stage: Stage, detail: u32) {
        if !self.enabled {
            return;
        }
        let start_ns = now_ns();
        self.push(SpanRecord { stage, detail, start_ns, dur_ns: 0 });
    }

    /// Record a pre-built span (used by batched windows).
    pub fn record_span(&mut self, span: SpanRecord) {
        if !self.enabled {
            return;
        }
        self.push(span);
    }

    /// Appends under capacity — the first span reserves room for a
    /// typical query's few, so most traces allocate once — else
    /// overwrites the oldest.
    fn push(&mut self, span: SpanRecord) {
        if self.spans.len() < self.capacity {
            if self.spans.capacity() == 0 {
                self.spans.reserve_exact(self.capacity.min(Self::FIRST_RESERVE));
            }
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Spans evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total spans ever recorded (`len() + dropped()`).
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Consume the recorder into an exported trace (spans oldest
    /// first, sorted by start time for a stable cross-thread timeline),
    /// rotating and sorting the ring in place.
    pub fn finish(mut self) -> QueryTrace {
        let oldest = self.next.min(self.spans.len());
        self.spans.rotate_left(oldest);
        self.spans.sort_by_key(|s| s.start_ns);
        QueryTrace { spans: self.spans, dropped: self.dropped }
    }
}

/// An exported per-query trace: the surviving spans (start-ordered)
/// plus the count of spans the bounded ring evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Surviving spans, ordered by `start_ns`.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted by the bounded ring.
    pub dropped: u64,
}

impl QueryTrace {
    /// True when no spans were captured.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total spans ever recorded (surviving + dropped).
    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64 + self.dropped
    }

    /// Number of spans for one stage.
    pub fn stage_count(&self, stage: Stage) -> usize {
        self.spans.iter().filter(|s| s.stage == stage).count()
    }

    /// Total duration attributed to one stage.
    pub fn stage_total_ns(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .fold(0u64, |acc, s| acc.saturating_add(s.dur_ns))
    }

    /// Flamegraph-style JSON export:
    /// `{"dropped":N,"span_count":N,"spans":[{"stage":"variant","detail":0,"start_ns":..,"dur_ns":..},..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 64);
        out.push_str(&format!(
            "{{\"dropped\":{},\"span_count\":{},\"spans\":[",
            self.dropped,
            self.spans.len()
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"detail\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.stage.name(),
                s.detail,
                s.start_ns,
                s.dur_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing_and_never_reads_clock() {
        let mut r = TraceRecorder::off();
        assert_eq!(r.start(), 0);
        r.record(Stage::Variant, 0, 0);
        r.event(Stage::Cutoff, 1);
        r.record_span(SpanRecord { stage: Stage::Query, detail: 0, start_ns: 0, dur_ns: 1 });
        assert_eq!(r.recorded(), 0);
        assert!(r.finish().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_dropped() {
        let mut r = TraceRecorder::with_capacity(4);
        for i in 0..10u32 {
            r.record_span(SpanRecord { stage: Stage::JoinRound, detail: i, start_ns: i as u64, dur_ns: 1 });
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.recorded(), 10);
        let t = r.finish();
        let details: Vec<u32> = t.spans.iter().map(|s| s.detail).collect();
        assert_eq!(details, vec![6, 7, 8, 9]);
    }

    #[test]
    fn finish_orders_spans_by_start() {
        let mut a = TraceRecorder::with_capacity(16);
        a.record_span(SpanRecord { stage: Stage::Merge, detail: 0, start_ns: 50, dur_ns: 1 });
        a.record_span(SpanRecord { stage: Stage::Variant, detail: 0, start_ns: 10, dur_ns: 1 });
        a.record_span(SpanRecord { stage: Stage::Variant, detail: 1, start_ns: 30, dur_ns: 1 });
        let t = a.finish();
        let starts: Vec<u64> = t.spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    #[test]
    fn stage_all_is_exhaustive_and_names_unique() {
        // Compile-breaks if a new stage is added without updating ALL:
        // the match below must list every variant.
        for s in Stage::ALL {
            match s {
                Stage::Query
                | Stage::Variant
                | Stage::SeedTask
                | Stage::Election
                | Stage::JoinRound
                | Stage::Threshold
                | Stage::Cutoff
                | Stage::Merge
                | Stage::Ingest
                | Stage::Compact => {}
            }
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.idx(), i);
        }
    }

    #[test]
    fn trace_json_contains_every_span() {
        let mut r = TraceRecorder::with_capacity(8);
        let t0 = r.start();
        r.record(Stage::Variant, 3, t0);
        r.event(Stage::Threshold, 7);
        let t = r.finish();
        let j = t.to_json();
        assert!(j.contains("\"stage\":\"variant\""));
        assert!(j.contains("\"stage\":\"threshold\""));
        assert!(j.contains("\"span_count\":2"));
        assert!(j.contains("\"dropped\":0"));
    }
}
