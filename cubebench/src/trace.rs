//! In-memory spans for the traced run.
//!
//! A sampled request gets a root span; the real call and the replays of
//! its inputs through each layer's public entry point are its children.
//! All spans of one request share the request's id. Spans stay in memory
//! until the run ends, when [`Tracer::write`] saves them.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    /// `None` for a request's root span.
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The span store of one run (or one load-generating thread).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Start a request; its id is unique within this tracer, and tracers
    /// of different threads are told apart by `stream` in the high bits.
    pub fn request(&mut self, stream: u64, name: &'static str) -> Request {
        let id = (stream << 48) | self.next_id;
        self.next_id += 1;
        Request {
            id,
            origin: self.origin,
            name,
            start: self.origin.elapsed(),
            children: Vec::new(),
        }
    }

    pub fn finish(&mut self, req: Request) {
        let end = self.origin.elapsed();
        for (sub, (name, start, stop)) in (1u64..).zip(req.children) {
            self.spans.push(Span {
                request: req.id,
                id: req.id + (sub << 32),
                parent: Some(req.id),
                name,
                start,
                end: stop,
            });
        }
        self.spans.push(Span {
            request: req.id,
            id: req.id,
            parent: None,
            name: req.name,
            start: req.start,
            end,
        });
    }

    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Per request, in request order: the root span's name and the
    /// duration of each named child span.
    pub fn by_request(&self) -> Vec<(&'static str, BTreeMap<&'static str, f64>)> {
        let mut map: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent.is_some()) {
            *map.entry(s.request).or_default().entry(s.name).or_default() += s.ms();
        }
        let mut rows: Vec<(Duration, u64, &'static str)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start, s.request, s.name))
            .collect();
        rows.sort();
        rows.into_iter()
            .map(|(_, id, name)| (name, map.remove(&id).unwrap_or_default()))
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"request\": {}, \"id\": {}, \"parent\": {parent}, \"name\": {}, \"start_us\": {}, \"end_us\": {}}}\n",
                s.request,
                s.id,
                json_str(s.name),
                s.start.as_micros(),
                s.end.as_micros()
            ));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// A request being traced: its child spans so far.
#[derive(Debug)]
pub struct Request {
    pub id: u64,
    origin: Instant,
    name: &'static str,
    start: Duration,
    children: Vec<(&'static str, Duration, Duration)>,
}

impl Request {
    /// Name the root span (once the request's outcome is known).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }

    /// Run `f` as a child span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed();
        let out = f();
        self.children.push((name, start, self.origin.elapsed()));
        out
    }
}
