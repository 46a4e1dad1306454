//! Spans recorded from outside the program: each one times a single call
//! into a layer's public functions. Spans are kept in memory and written
//! out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// The request or step the call served; spans of one request share it.
    pub id: u64,
    /// The boundary timed, e.g. `engine.run`.
    pub layer: &'static str,
    /// The boundary one level out, whose span this one's work is part of.
    pub parent: Option<&'static str>,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as one span and returns its result and duration in seconds.
    pub fn time<R>(
        &mut self,
        id: u64,
        layer: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let span = Span {
            id,
            layer,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        };
        let secs = span.secs();
        self.spans.push(span);
        (out, secs)
    }

    /// Writes the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"layer\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.layer,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| format!("\"{p}\"")),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
