//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the traced pass runs
//! and are written out once it ends, so writing never shows up in a span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The root span of each traced request.
pub const REQUEST: &str = "request";

pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: usize,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: usize,
}

/// Totals for every span of one name.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub count: usize,
    pub total_ms: f64,
    /// Span time not covered by child spans.
    pub self_ms: f64,
    pub max_ms: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new(), req: 0 }
    }

    /// Run `f` as a new request: a [`REQUEST`] span with a fresh request id.
    pub fn request<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.req += 1;
        self.span(REQUEST, f)
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.t0.elapsed();
        self.spans.push(Span { name, start, end: start, parent, req: self.req });
        self.stack.push(idx);
        let r = f(self);
        self.stack.pop();
        self.spans[idx].end = self.t0.elapsed();
        r
    }

    /// Per-name totals, self time included (a span's duration minus the
    /// durations of its children, which never overlap: the traced pass
    /// makes one call at a time).
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ms += s.ms();
            t.self_ms += (s.ms() - child).max(0.0);
            t.max_ms = t.max_ms.max(s.ms());
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.request(|tr| {
            tr.span("a", |_| std::thread::sleep(Duration::from_millis(5)));
            std::thread::sleep(Duration::from_millis(2));
        });
        let s = tr.summary();
        let (req, a) = (s[REQUEST], s["a"]);
        assert_eq!((req.count, a.count), (1, 1));
        assert!(a.self_ms >= 5.0);
        assert!(req.total_ms >= req.self_ms + a.total_ms - 1e-9);
        assert!(req.self_ms >= 2.0 && req.self_ms < req.total_ms);
    }
}
