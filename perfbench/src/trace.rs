//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public API; nothing inside the system is instrumented. Every span has a
//! name, start and end (nanoseconds since the tracer was created), an
//! optional parent span, and the id of the query it belongs to. Spans stay
//! in memory and are written out once, when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when `on`; otherwise every call only runs the closure.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    next_query: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            next_query: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh query id; the spans of one query share it.
    pub fn query_id(&self) -> u64 {
        self.next_query.fetch_add(1, Ordering::Relaxed)
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span and return its id (`0` when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        query: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = Span {
            id,
            parent,
            query,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
        id
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        query: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, query, parent, start, Instant::now());
        out
    }

    /// Record consecutive child spans laid end to end from `start`, one per
    /// `(name, duration)` stage. Used for the executor's stage times, which
    /// each report carries as durations rather than as timestamps.
    pub fn record_stages(
        &self,
        query: u64,
        parent: u64,
        start: Instant,
        stages: &[(&'static str, Duration)],
    ) {
        let mut at = start;
        for &(name, d) in stages {
            self.record(name, query, Some(parent), at, at + d);
            at += d;
        }
    }

    /// Durations in seconds of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let spans = self
            .spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"query\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.query, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
