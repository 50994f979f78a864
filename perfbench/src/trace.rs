//! In-memory spans around calls into the layers, written out as JSONL
//! when the run ends.
//!
//! The program has no span hooks of its own yet, so every span is
//! timed from the harness around a public call. A child span is
//! therefore either nested in time inside its parent (the operator and
//! preconditioner applications inside a CG solve) or a *replay* of the
//! parent's inner call on the same operand, timed right next to it
//! (the structure key inside a warm compile). Either way a span's self
//! time is its duration minus its children's durations.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

/// Parent of a root span.
pub const ROOT: SpanId = 0;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// Request number the span belongs to (probes count on from the
    /// last request).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// The instant `start_ns`/`end_ns` count from; `Copy`, so rank
    /// threads can time against it and hand their spans back.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(&mut self, parent: SpanId, req: u32, name: &'static str, start_ns: u64, end_ns: u64) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        id
    }

    /// Run `f` inside a new span.
    pub fn time<R>(&mut self, parent: SpanId, req: u32, name: &'static str, f: impl FnOnce() -> R) -> (R, SpanId) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.push(parent, req, name, start, end))
    }

    /// Duration of the span `push` or `time` returned `id` for.
    pub fn span_us(&self, id: SpanId) -> f64 {
        self.spans[id as usize - 1].us()
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::us).collect()
    }

    /// Durations of every span whose name starts with `prefix`.
    pub fn durations_us_prefix(&self, prefix: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name.starts_with(prefix)).map(Span::us).collect()
    }

    /// Self time of every span called `name`, microseconds.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut child_us: HashMap<SpanId, f64> = HashMap::new();
        for s in &self.spans {
            *child_us.entry(s.parent).or_default() += s.us();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.us() - child_us.get(&s.id).copied().unwrap_or(0.0))
            .collect()
    }

    /// One JSON object per line: `{id, parent, req, name, start_ns,
    /// end_ns}`; `parent` is 0 for a root span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let parent = t.push(ROOT, 1, "compile", 1_000, 11_000);
        t.push(parent, 1, "key", 2_000, 5_000);
        t.push(parent, 1, "key", 6_000, 8_000);
        t.push(ROOT, 2, "compile", 20_000, 24_000);
        assert_eq!(t.durations_us("compile"), vec![10.0, 4.0]);
        assert_eq!(t.self_us("compile"), vec![5.0, 4.0]);
        assert_eq!(t.self_us("key"), vec![3.0, 2.0]);
    }

    #[test]
    fn time_records_one_span_around_the_call() {
        let mut t = Tracer::new();
        let (v, id) = t.time(ROOT, 7, "call", || 42);
        assert_eq!((v, id, t.len()), (42, 1, 1));
        assert!(t.durations_us("call")[0] >= 0.0);
    }
}
