//! The benchmark's own in-memory span recorder.
//!
//! Every per-layer time is measured from outside the program: the
//! benchmark opens a span, calls a public function of the layer, and
//! closes the span. The spans (name, start, end, parent, plan id) are
//! kept in memory and written to one JSON-lines file at the end of the
//! run, so recording them never touches the timed code.

use crate::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    start_s: f64,
    end_s: Option<f64>,
    parent: Option<usize>,
    plan: Option<usize>,
}

/// Spans of one run, addressed by the index `open` returns.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; `plan` is the index of the instance it works on.
    pub fn open(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        plan: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: None,
            parent,
            plan,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id];
        span.end_s = Some(end);
        end - span.start_s
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        plan: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, plan);
        let result = f();
        (result, self.close(id))
    }

    /// Writes one JSON object per span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Int(-1), |v| Json::Int(v as i64));
            let line = Json::obj([
                ("id", Json::Int(id as i64)),
                ("name", Json::str(s.name.as_str())),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s.unwrap_or(s.start_s))),
                ("parent", opt(s.parent)),
                ("plan", opt(s.plan)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
