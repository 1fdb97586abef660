//! In-memory spans for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! workspace crates (and from the crates' public observer hooks), never
//! inside them. Each span carries its layer (the crate it times), its name,
//! its interval relative to the tracer's creation and the span that caused
//! it. A layer's self time is the time its spans cover minus the part of
//! each span that its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{json, Value};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The crate the span times (`analysis`, `optim`, `sim`, ...).
    pub layer: &'static str,
    /// What the span times; per-layer time metrics sum spans by name.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in seconds.
    #[must_use]
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects the spans and counters of one traced iteration.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Mutex::default() }
    }
}

impl Tracer {
    /// Seconds since the tracer was created.
    #[must_use]
    pub fn at(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Runs `f` inside a span whose parent is the innermost span open on
    /// this thread.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.at(Instant::now());
        let parent = self.current();
        let id = {
            let mut spans = self.spans.lock().expect("no span holder panics");
            spans.push(Span { layer, name, start, end: start, parent });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.at(Instant::now());
        self.spans.lock().expect("no span holder panics")[id].end = end;
        out
    }

    /// The innermost span open on this thread.
    #[must_use]
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Records a span measured elsewhere — by an observer callback on a
    /// worker thread, whose cause is a span of the calling thread.
    pub fn record(
        &self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) {
        let span = Span { layer, name, start: self.at(start), end: self.at(end), parent };
        self.spans.lock().expect("no span holder panics").push(span);
    }

    /// Summed duration of every span called `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> f64 {
        self.spans().iter().filter(|s| s.name == name).map(Span::duration).sum()
    }

    /// Snapshot of the recorded spans.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// The spans as a JSON array, in recording order.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans()
            .iter()
            .map(|s| {
                json!({
                    "layer": s.layer, "name": s.name, "start_s": s.start, "end_s": s.end,
                    "parent": s.parent,
                })
            })
            .collect();
        Value::from(spans)
    }
}

/// Self time per layer: each span's duration minus the part of it that
/// the union of its children covers, summed by layer. Children may overlap
/// one another (parallel workers) and are clipped to their parent.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start, span.end));
        }
    }
    let mut out = BTreeMap::new();
    for (span, kids) in spans.iter().zip(&mut children) {
        let covered = union_within(kids, span.start, span.end);
        *out.entry(span.layer).or_default() += (span.duration() - covered).max(0.0);
    }
    out
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { layer, name: layer, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("cohort", 0.0, 10.0, None),
            span("optim", 1.0, 4.0, Some(0)),
            span("sim", 5.0, 6.0, Some(0)),
            span("analysis", 2.0, 3.0, Some(1)),
        ];
        let st = self_times(&spans);
        assert!((st["cohort"] - 6.0).abs() < 1e-12);
        assert!((st["optim"] - 2.0).abs() < 1e-12);
        assert!((st["sim"] - 1.0).abs() < 1e-12);
        assert!((st["analysis"] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        // Two parallel workers under one sweep, one outliving its parent.
        let spans = [
            span("cohort", 0.0, 10.0, None),
            span("sim", 1.0, 6.0, Some(0)),
            span("sim", 2.0, 12.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert!((st["cohort"] - 1.0).abs() < 1e-12);
        assert!((st["sim"] - 15.0).abs() < 1e-12);
    }

    #[test]
    fn nested_spans_record_their_parent_and_totals() {
        let tracer = Tracer::default();
        let value = tracer.span("cohort", "outer", || {
            tracer.span("optim", "inner", || 7) + tracer.span("optim", "inner", || 1)
        });
        assert_eq!(value, 8);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert!(tracer.total("inner") <= tracer.total("outer"));
        assert_eq!(tracer.current(), None);
    }
}
