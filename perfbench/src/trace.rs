//! The harness's own spans, recorded around every call into a layer's
//! public function and kept in memory until the run ends.
//!
//! A span is `{id, parent, op_id, name, start_ns, end_ns}`; spans of one
//! operation share `op_id`. A layer's self time is its span minus the
//! part its children cover. End-to-end runs carry a [`Probe`] without a
//! tracer, so each timed call costs two clock reads and nothing else.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use trinit_core::obs::now_ns;

use crate::alloc;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op_id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store with an open-span stack.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op_id: u32,
    last_closed: Option<u32>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, start_ns: u64) -> u32 {
        let id = self.spans.len() as u32;
        if self.stack.is_empty() {
            self.op_id += 1;
        }
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: u32, start_ns: u64, end_ns: u64) {
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        self.stack.retain(|&open| open != id);
        self.last_closed = Some(id);
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total self time per span name: duration minus direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// Writes every span plus the per-name self-time table as JSON.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(64 + self.spans.len() * 96);
        text.push_str("{\"self_ns\":{");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(text, "{sep}\"{name}\":{ns}");
        }
        text.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                text,
                "{sep}\n{{\"id\":{},\"parent\":{parent},\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op_id, s.name, s.start_ns, s.end_ns
            );
        }
        text.push_str("\n]}\n");
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// The timing seam every workload calls the engine through. Untraced
/// it only reads the clock; traced it also records spans and arms the
/// counting allocator around facade calls.
#[derive(Debug, Default)]
pub struct Probe {
    pub tracer: Option<Tracer>,
}

impl Probe {
    pub fn traced() -> Probe {
        Probe {
            tracer: Some(Tracer::default()),
        }
    }

    pub fn is_traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Opens a parent span (a set-up phase or one operation).
    pub fn open(&mut self, name: &'static str) -> Option<u32> {
        self.tracer.as_mut().map(|t| t.open(name, now_ns()))
    }

    /// Closes a span opened with [`Probe::open`].
    pub fn close(&mut self, id: Option<u32>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            let start = t.spans[id as usize].start_ns;
            t.close(id, start, now_ns());
        }
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        count_allocs: bool,
        call: impl FnOnce() -> T,
    ) -> (T, u64) {
        // The span is pushed before and stamped after the clock reads,
        // so the bookkeeping stays outside the measured interval (and
        // outside the allocation count).
        let id = self.tracer.as_mut().map(|t| t.open(name, 0));
        let count_allocs = count_allocs && id.is_some();
        if count_allocs {
            alloc::arm();
        }
        let start = now_ns();
        let out = call();
        let end = now_ns();
        if count_allocs {
            alloc::disarm();
        }
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id, start, end);
        }
        (out, end - start)
    }

    /// Times one call; returns its result and wall nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
        self.timed(name, false, call)
    }

    /// [`Probe::time`] for the facade call of an operation: a traced
    /// run also counts its allocations.
    pub fn facade<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, u64) {
        self.timed(name, true, call)
    }

    /// Renames the span that closed last (a serve span learns its
    /// `ServeKind` only from the list it built).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(t) = self.tracer.as_mut() {
            if let Some(id) = t.last_closed {
                t.spans[id as usize].name = name;
            }
        }
    }

    /// Records a duration a layer reported itself (e.g.
    /// `SegmentedStore::last_ingest_ns`) as a child of the span that
    /// closed last, anchored at that span's start.
    pub fn reported(&mut self, name: &'static str, dur_ns: u64) {
        if let Some(t) = self.tracer.as_mut() {
            let Some(parent) = t.last_closed else { return };
            let (op_id, start_ns) = {
                let p = &t.spans[parent as usize];
                (p.op_id, p.start_ns)
            };
            t.spans.push(Span {
                id: t.spans.len() as u32,
                parent: Some(parent),
                op_id,
                name,
                start_ns,
                end_ns: start_ns + dur_ns,
            });
        }
    }
}
