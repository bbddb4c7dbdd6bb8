//! Spans around the benchmark's calls into each layer.
//!
//! Every span is recorded twice at the same instants: in an [`obs::Trace`]
//! (exported as Chrome trace JSON, with the span's allocation count as an
//! argument) and in per-name aggregates of inclusive and *self* time and
//! allocations. A span's self time is its duration minus its children's,
//! so the self times of a properly nested span tree add up to the time its
//! root spans cover — the check behind `trace.self_time_coverage`.
//!
//! Spans are opened and closed on one thread, strictly nested.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use obs::{SpanHandle, Trace};
use pipeline::Json;

use crate::sys;

/// How long a parent span stays open after its last child closed.
/// `obs::Trace` exports `ts` and `dur` each truncated to whole microseconds,
/// so a parent closing within 2 µs of its child can be exported ending
/// before the child does; this margin keeps the exported spans nested.
const NESTING_MARGIN: Duration = Duration::from_micros(3);

/// Aggregates of every span recorded under one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub spans: u64,
    pub inclusive: Duration,
    pub self_time: Duration,
    pub self_allocs: u64,
}

struct Frame {
    name: &'static str,
    handle: SpanHandle,
    start: Instant,
    allocs: u64,
    child_time: Duration,
    child_allocs: u64,
}

/// The span recorder.
pub struct Tracer {
    trace: Trace,
    stack: RefCell<Vec<Frame>>,
    layers: RefCell<BTreeMap<&'static str, Layer>>,
    last_end: Cell<Option<Instant>>,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Span(usize);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            trace: Trace::new(),
            stack: RefCell::new(Vec::new()),
            layers: RefCell::new(BTreeMap::new()),
            last_end: Cell::new(None),
        }
    }

    pub fn begin(&self, name: &'static str) -> Span {
        let handle = self.trace.begin(name);
        let mut stack = self.stack.borrow_mut();
        stack.push(Frame {
            name,
            handle,
            start: Instant::now(),
            allocs: sys::allocations(),
            child_time: Duration::ZERO,
            child_allocs: 0,
        });
        Span(stack.len())
    }

    pub fn end(&self, span: Span) {
        let frame = {
            let mut stack = self.stack.borrow_mut();
            assert_eq!(stack.len(), span.0, "spans must close innermost first");
            stack.pop().expect("an open span")
        };
        let elapsed = frame.start.elapsed();
        let allocs = sys::allocations() - frame.allocs;
        if frame.child_time > Duration::ZERO {
            if let Some(last) = self.last_end.get() {
                while last.elapsed() < NESTING_MARGIN {
                    std::hint::spin_loop();
                }
            }
        }
        self.trace
            .set_arg(frame.handle, "allocs", Json::from(allocs as usize));
        self.trace.end(frame.handle);
        self.last_end.set(Some(Instant::now()));

        let mut layers = self.layers.borrow_mut();
        let layer = layers.entry(frame.name).or_default();
        layer.spans += 1;
        layer.inclusive += elapsed;
        layer.self_time += elapsed.saturating_sub(frame.child_time);
        layer.self_allocs += allocs.saturating_sub(frame.child_allocs);
        if let Some(parent) = self.stack.borrow_mut().last_mut() {
            parent.child_time += elapsed;
            parent.child_allocs += allocs;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// The aggregates recorded under `name` (zero when none were).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.borrow().get(name).copied().unwrap_or_default()
    }

    /// The sum of every span's self time.
    pub fn self_time_total(&self) -> Duration {
        self.layers.borrow().values().map(|l| l.self_time).sum()
    }

    /// The recorded spans as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> Json {
        self.trace.to_chrome_json()
    }

    /// A per-layer self-time table, largest self time first, with each
    /// layer's share of `wall`.
    pub fn render_table(&self, wall: Duration) -> String {
        let layers = self.layers.borrow();
        let mut rows: Vec<(&&str, &Layer)> = layers.iter().collect();
        rows.sort_by_key(|(_, layer)| std::cmp::Reverse(layer.self_time));
        let mut out = format!(
            "{:<22} {:>8} {:>12} {:>12} {:>7} {:>14}\n",
            "span", "count", "inclusive_s", "self_s", "self%", "self_allocs"
        );
        for (name, layer) in rows {
            out.push_str(&format!(
                "{:<22} {:>8} {:>12.6} {:>12.6} {:>6.2}% {:>14}\n",
                name,
                layer.spans,
                layer.inclusive.as_secs_f64(),
                layer.self_time.as_secs_f64(),
                100.0 * layer.self_time.as_secs_f64() / wall.as_secs_f64(),
                layer.self_allocs
            ));
        }
        out
    }
}

/// Runs `f` inside a span when a tracer is present.
pub fn maybe_span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_span() {
        let tracer = Tracer::new();
        let root = tracer.begin("root");
        tracer.span("child", || std::thread::sleep(Duration::from_millis(2)));
        tracer.span("child", || std::thread::sleep(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(1));
        tracer.end(root);
        let root = tracer.layer("root");
        let child = tracer.layer("child");
        assert_eq!(child.spans, 2);
        assert_eq!(tracer.self_time_total(), root.inclusive);
        assert_eq!(root.self_time + child.inclusive, root.inclusive);
        assert!(child.self_time >= Duration::from_millis(3));
    }

    #[test]
    fn exported_spans_nest() {
        let tracer = Tracer::new();
        for _ in 0..200 {
            let outer = tracer.begin("outer");
            tracer.span("inner", || ());
            tracer.end(outer);
        }
        let json = tracer.chrome_json();
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        let spans: Vec<(i128, i128)> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let ts = e.get("ts").and_then(Json::as_i128).unwrap();
                (ts, ts + e.get("dur").and_then(Json::as_i128).unwrap())
            })
            .collect();
        for pair in spans.chunks(2) {
            let (outer, inner) = (pair[0], pair[1]);
            assert!(
                outer.0 <= inner.0 && inner.1 <= outer.1,
                "{outer:?} {inner:?}"
            );
        }
    }
}
