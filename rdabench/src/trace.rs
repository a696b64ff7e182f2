//! The traced run's recorder: spans kept in memory and written out at
//! the end, plus per-layer samples and counts reported by name.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans beyond this many are counted but not kept, so a long traced
/// run holds bounded memory.
const MAX_SPANS: usize = 200_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

pub struct Tracer {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            samples: BTreeMap::new(),
        }
    }

    /// Record a span over `[start, end]` and return its id.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        request: u64,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            parent,
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Start a span whose end is not known yet; see [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, request: u64) -> Option<u32> {
        self.span(name, start, start, None, request)
    }

    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(i) = id {
            self.spans[i as usize].end_ns = (end - self.origin).as_nanos() as u64;
        }
    }

    /// Time `f` as a child span of `parent`; returns its result and
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, start, end, parent, request);
        (out, (end - start).as_secs_f64())
    }

    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    pub fn median(&self, metric: &str) -> Option<f64> {
        let v = self.samples.get(metric)?;
        Some(crate::stats::quantile(v, 0.5))
    }

    /// Write every kept span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        if self.dropped > 0 {
            writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped)?;
        }
        out.flush()
    }
}
