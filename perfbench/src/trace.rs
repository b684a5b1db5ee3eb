//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out once, when
//! the run ends.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<SpanId>,
    request: Option<u64>,
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end - start)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`]; children
    /// recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Ends a span opened with [`Tracer::open`] and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.end - span.start
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line (times in ns from
    /// the tracer's creation).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                s.name,
                ns(s.start),
                ns(s.end)
            )
            .expect("writing to a String cannot fail");
            if let Some(p) = s.parent {
                write!(out, ", \"parent\": {p}").expect("writing to a String cannot fail");
            }
            if let Some(r) = s.request {
                write!(out, ", \"request\": {r}").expect("writing to a String cannot fail");
            }
            out.push_str("}\n");
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}
