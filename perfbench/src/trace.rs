//! The traced run's span store.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! Every span keeps its name, start, end, parent span and the id of the
//! operation it belongs to (shared by all spans of one operation). Spans
//! stay in memory and are written once, at the end, as Chrome trace-event
//! JSON; the per-layer metrics are derived from the same spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Single-threaded span recorder: the traced phases run one operation at a
/// time, so nesting follows the call stack exactly.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new operation: a fresh operation id and a root span.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span nested under the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends every span of `other` (created after `self`), shifting its
    /// times, parents and operation ids into this tracer's numbering.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        let base = self.spans.len();
        let op_base = self.op;
        self.op += other.op;
        self.spans.extend(other.spans.into_iter().map(|span| Span {
            start_ns: span.start_ns + shift,
            end_ns: span.end_ns + shift,
            parent: span.parent.map(|p| p + base),
            op: span.op + op_base,
            ..span
        }));
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover (children never overlap on one thread).
    pub fn self_ms(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(span, c)| (span.end_ns - span.start_ns - c) as f64 / 1e6)
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, ms) in self.spans.iter().zip(self.self_ms()) {
            by_name.entry(span.name).or_default().push(ms);
        }
        by_name
    }

    /// Per operation: the duration of the first span named `minuend`
    /// minus the durations of the direct children of the first span named
    /// `group`, for operations holding both.
    pub fn per_op_difference(&self, minuend: &str, group: &str) -> Vec<f64> {
        let mut first: BTreeMap<u64, (Option<usize>, Option<usize>)> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let slot = first.entry(span.op).or_default();
            if span.name == minuend && slot.0.is_none() {
                slot.0 = Some(index);
            }
            if span.name == group && slot.1.is_none() {
                slot.1 = Some(index);
            }
        }
        let mut children_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ms[parent] += span.ms();
            }
        }
        first
            .values()
            .filter_map(|slot| match *slot {
                (Some(m), Some(g)) => Some(self.spans[m].ms() - children_ms[g]),
                _ => None,
            })
            .collect()
    }

    /// Per operation: duration of span `a` minus duration of span `b`.
    pub fn per_op_gap(&self, a: &str, b: &str) -> Vec<f64> {
        let mut pairs: BTreeMap<u64, (Option<f64>, Option<f64>)> = BTreeMap::new();
        for span in &self.spans {
            let slot = pairs.entry(span.op).or_default();
            if span.name == a && slot.0.is_none() {
                slot.0 = Some(span.ms());
            }
            if span.name == b && slot.1.is_none() {
                slot.1 = Some(span.ms());
            }
        }
        pairs
            .values()
            .filter_map(|slot| Some(slot.0? - slot.1?))
            .collect()
    }

    /// Writes every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Times are microseconds from the tracer's creation.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{index},\"parent\":{parent},\"op\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
