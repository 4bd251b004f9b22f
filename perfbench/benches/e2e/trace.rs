//! The traced run's span recorder.
//!
//! One operation is one request id. Each call into a layer's public
//! function is wrapped in a span (name, start, end, parent span, request
//! id), and counts are recorded at the same points. Spans stay in memory
//! and are written out as JSON lines when the run ends.
//!
//! Operations run in pairs on equal inputs, one traced and one not; the
//! median difference of their wall times is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use varbench_core::report::json_string;

use crate::clock;

struct Span {
    req: u64,
    parent: Option<usize>,
    name: String,
    start: Duration,
    end: Duration,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    req: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<(u64, String, f64)>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: clock::now(),
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            traced_walls: Vec::new(),
            untraced_walls: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Runs one operation under a fresh request id, traced or not, and
    /// keeps its wall time for the overhead figure when `paired`.
    pub fn op<T>(
        &mut self,
        name: &str,
        traced: bool,
        paired: bool,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.on = traced;
        self.req += 1;
        let start = clock::now();
        let out = self.span(name, f);
        let wall = start.elapsed().as_secs_f64() * 1e3;
        if paired {
            if traced {
                self.traced_walls.push(wall);
            } else {
                self.untraced_walls.push(wall);
            }
        }
        self.on = true;
        out
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when off).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            req: self.req,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Records a count under the current request id (dropped when off).
    pub fn count(&mut self, name: &str, value: f64) {
        if self.on {
            self.counts.push((self.req, name.to_string(), value));
        }
    }

    /// Durations of every span named `name`, in ms.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Per request id, the summed duration of spans named `name`, in ms.
    pub fn ms_by_req(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0.0) += (s.end - s.start).as_secs_f64() * 1e3;
        }
        out
    }

    /// Every value recorded for count `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|(_, _, v)| *v)
            .collect()
    }

    /// Median traced minus median untraced wall time of paired
    /// operations, in ms.
    pub fn overhead_ms(&self) -> f64 {
        crate::stats::median(&self.traced_walls) - crate::stats::median(&self.untraced_walls)
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span, then every count, as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"span\":{id},\"req\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_string(&s.name),
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        for (req, name, value) in &self.counts {
            writeln!(
                w,
                "{{\"count\":{},\"req\":{req},\"value\":{value}}}",
                json_string(name)
            )?;
        }
        w.flush()
    }
}
