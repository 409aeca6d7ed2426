//! In-memory spans recorded around calls into each layer.
//!
//! A span holds a name, start and end (nanoseconds since the tracer was
//! made), its parent, and the repetition or job it belongs to. Spans stay
//! in memory until the run ends; [`Tracer::write_jsonl`] writes them out.
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `counting`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The repetition or job this span belongs to.
    pub group: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records nested spans. A disabled tracer records nothing, so the same
/// code path can run traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    group: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), group: 0 }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans begun from now on with `group`.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start, end: start, parent, group: self.group });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Open(Some(idx)) = open else { return };
        let popped = self.stack.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end = self.now();
    }

    /// Closes every open span, as after an operation that failed midway.
    pub fn end_all(&mut self) {
        let now = self.now();
        for idx in self.stack.drain(..) {
            self.spans[idx].end = now;
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.start, s.end, s.group
            )?;
        }
        out.flush()
    }
}

/// Per span, its duration minus the union of its children's intervals
/// (each clipped to the parent's interval), in nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time in seconds summed per span name, over the spans of `group`.
pub fn self_seconds_by_name(spans: &[Span], group: u64) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(selfs) {
        if s.group == group {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, group: 0 }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("c", 45, 55, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),  // overlaps a: union is [10, 50)
            span("c", 90, 120, Some(0)), // clipped to the parent: [90, 100)
        ];
        assert_eq!(self_times(&spans)[0], 100 - 40 - 10);
    }

    #[test]
    fn self_seconds_group_by_name_and_group() {
        let mut spans = vec![
            span("rep", 0, 1_000_000_000, None),
            span("io", 0, 250_000_000, Some(0)),
            span("io", 500_000_000, 750_000_000, Some(0)),
        ];
        spans.push(Span { name: "io", start: 0, end: 9, parent: None, group: 7 });
        let by_name = self_seconds_by_name(&spans, 0);
        assert!((by_name["rep"] - 0.5).abs() < 1e-12);
        assert!((by_name["io"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_group(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].group, 3);
        assert!(t.spans()[0].end >= t.spans()[1].end);

        let mut off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
