//! In-memory spans recorded by the benchmark around its own calls into the
//! program's public functions (nothing inside the program is instrumented).
//!
//! Each thread records into its own [`Recorder`]; parents are spans of the
//! same thread. A span's self time is its duration minus the durations of
//! its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// The cell (or request) the span belongs to.
    pub cell: u64,
    /// Index of the parent span in the same recorder.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    pub thread: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, thread: usize) -> Recorder {
        Recorder {
            origin,
            thread,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, layer: &'static str, cell: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that started at `at`.
    pub fn open_at(
        &mut self,
        layer: &'static str,
        cell: u64,
        parent: Option<usize>,
        at: Instant,
    ) -> usize {
        let id = self.open(layer, cell, parent);
        self.spans[id].start_ns = self.ns(at);
        id
    }

    pub fn close_at(&mut self, id: usize, at: Instant) {
        self.spans[id].end_ns = self.ns(at);
    }

    /// Records a finished span from `start` to `end`.
    pub fn span_at(
        &mut self,
        layer: &'static str,
        cell: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open_at(layer, cell, parent, start);
        self.close_at(id, end);
    }

    /// Moves the recorded spans out into a new recorder, leaving this one
    /// empty.
    pub fn take(&mut self) -> Recorder {
        Recorder {
            origin: self.origin,
            thread: self.thread,
            spans: std::mem::take(&mut self.spans),
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        cell: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, cell, parent);
        let out = f();
        self.close(id);
        out
    }
}

/// Per-layer totals over a set of recorders.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    /// layer -> (calls, self ns)
    pub by_layer: BTreeMap<&'static str, (u64, u64)>,
}

impl LayerTotals {
    pub fn add(&mut self, recorders: &[Recorder]) {
        for rec in recorders {
            let mut child_ns = vec![0u64; rec.spans.len()];
            for span in &rec.spans {
                if let Some(p) = span.parent {
                    child_ns[p] += span.end_ns - span.start_ns;
                }
            }
            for (span, children) in rec.spans.iter().zip(child_ns) {
                let entry = self.by_layer.entry(span.layer).or_default();
                entry.0 += 1;
                entry.1 += (span.end_ns - span.start_ns).saturating_sub(children);
            }
        }
    }

    pub fn calls(&self, layer: &str) -> u64 {
        self.by_layer.get(layer).map_or(0, |e| e.0)
    }

    /// Total self time of `layer`, in microseconds.
    pub fn self_us(&self, layer: &str) -> f64 {
        self.by_layer.get(layer).map_or(0.0, |e| e.1 as f64 / 1e3)
    }

    /// Mean self time per call of `layer`, in microseconds (0 if never called).
    pub fn mean_us(&self, layer: &str) -> f64 {
        match self.calls(layer) {
            0 => 0.0,
            n => self.self_us(layer) / n as f64,
        }
    }

    /// Sum of every layer's self time, in microseconds.
    pub fn total_self_us(&self) -> f64 {
        self.by_layer.values().map(|e| e.1 as f64 / 1e3).sum()
    }
}

/// Appends `recorders` as JSON lines: one span each, with its id, parent,
/// thread, cell, layer and start/end in nanoseconds since the run began.
pub fn write_jsonl(out: &mut String, pass: &str, recorders: &[Recorder]) {
    for rec in recorders {
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"{}.{}\"", rec.thread, p),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"pass\":\"{pass}\",\"id\":\"{}.{i}\",\"parent\":{parent},\"thread\":{},\"cell\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                rec.thread, rec.thread, s.cell, s.layer, s.start_ns, s.end_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.spans = vec![
            Span {
                layer: "cell",
                cell: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                layer: "engine.cell",
                cell: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                layer: "cache.put",
                cell: 0,
                parent: Some(0),
                start_ns: 70,
                end_ns: 90,
            },
        ];
        let mut totals = LayerTotals::default();
        totals.add(&[rec]);
        assert_eq!(totals.self_us("cell"), 0.02);
        assert_eq!(totals.self_us("engine.cell"), 0.06);
        assert_eq!(totals.total_self_us(), 0.1);
    }
}
