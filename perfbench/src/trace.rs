//! In-memory spans recorded around calls into the system's public API.
//!
//! Spans live only in the benchmark's own code: each records a name, its
//! start and end relative to the tracer's origin, the span that was open
//! when it began (its parent) and a batch id tying the spans of one
//! ingest line or scoring batch together. They are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub batch: u64,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Time totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotal {
    pub total: Duration,
    pub self_time: Duration,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, batch: u64) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            batch,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, batch: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, batch);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, StageTotal> {
        let self_times = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_times) {
            let entry = totals.entry(span.name).or_default();
            entry.total += span.duration();
            entry.self_time += own;
        }
        totals
    }

    /// Appends every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, run: &str) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos(),
                span.batch,
            )?;
        }
        Ok(())
    }
}

/// Each span's duration minus the part of its interval that its children
/// cover. Overlapping children are counted once, and a child reaching
/// outside its parent is clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut reach = span.start;
            for (start, end) in intervals {
                let start = start.max(reach);
                let end = end.min(span.end);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            batch: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: 10..50 counted once
            span("c", 90, 120, Some(0)), // clipped to the root's end
            span("leaf", 12, 18, Some(1)),
        ];
        let own: Vec<u64> = self_times(&spans).iter().map(|d| d.as_micros() as u64).collect();
        assert_eq!(own, vec![50, 14, 30, 30, 6]);
    }

    #[test]
    fn tracer_nests_spans_and_self_times_sum_to_the_root() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("root", 0);
        for batch in 0..3 {
            tracer.span("work", batch, || std::hint::black_box((0..10_000u64).sum::<u64>()));
        }
        tracer.exit(root);
        let spans = tracer.spans();
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        let totals = tracer.totals();
        assert_eq!(spans.len(), 4);
        let sum = totals["root"].self_time + totals["work"].self_time;
        assert_eq!(sum, totals["root"].total, "self times partition the root span");
    }
}
