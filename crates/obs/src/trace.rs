//! Hierarchical spans and Chrome-trace export.
//!
//! A [`Trace`] records a tree of timed spans: every pipeline stage
//! (ingest, synthesize, emit, validate) opens a span, and synthesis-phase
//! aggregates (oracle time, snapshot time, DFS time, …) are attached as
//! synthetic *phase* spans on a second track.  The recorder renders a
//! human-readable tree via [`Trace::render_tree`] and Chrome trace-event
//! JSON via [`Trace::to_chrome_json`] — the latter loads directly into
//! Perfetto or `chrome://tracing`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sqlbridge::Json;

/// Which timeline a span is drawn on in the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Track {
    /// Real pipeline stages, nested by begin/end order (tid 1).
    Pipeline,
    /// Synthetic aggregated synthesis phases (tid 2).  Phase durations are
    /// summed across workers, so they may exceed their parent stage's
    /// wall-clock duration; a separate track keeps the picture honest.
    Phases,
}

#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Option<Duration>,
    args: Vec<(String, Json)>,
    track: Track,
}

#[derive(Debug)]
struct TraceInner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    phase_base: Option<usize>,
    phase_cursor: Duration,
}

/// A handle to a span opened with [`Trace::begin`]; pass it back to
/// [`Trace::end`] to close the span.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle {
    index: usize,
}

/// A thread-safe span recorder.
///
/// All locks recover from poisoning: a panic on one thread never destroys
/// the trace that explains it.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    inner: Mutex<TraceInner>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty trace; the clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            inner: Mutex::new(TraceInner {
                spans: Vec::new(),
                stack: Vec::new(),
                phase_base: None,
                phase_cursor: Duration::ZERO,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a new span nested under the innermost open span.
    pub fn begin(&self, name: impl Into<String>) -> SpanHandle {
        let elapsed = self.origin.elapsed();
        let mut inner = self.lock();
        let parent = inner.stack.last().copied();
        let index = inner.spans.len();
        inner.spans.push(Span {
            name: name.into(),
            parent,
            start: elapsed,
            end: None,
            args: Vec::new(),
            track: Track::Pipeline,
        });
        inner.stack.push(index);
        SpanHandle { index }
    }

    /// Closes the span; a handle that was already closed is ignored.
    pub fn end(&self, handle: SpanHandle) {
        let elapsed = self.origin.elapsed();
        let mut inner = self.lock();
        if let Some(span) = inner.spans.get_mut(handle.index) {
            if span.end.is_none() {
                span.end = Some(elapsed);
            }
        }
        inner.stack.retain(|&i| i != handle.index);
    }

    /// Attaches a key/value argument to the span (rendered in the Chrome
    /// trace `args` object and the tree summary).
    pub fn set_arg(&self, handle: SpanHandle, key: impl Into<String>, value: Json) {
        let mut inner = self.lock();
        if let Some(span) = inner.spans.get_mut(handle.index) {
            span.args.push((key.into(), value));
        }
    }

    /// Records a synthetic aggregated phase span of the given duration on
    /// the "synthesis phases" track.  Phases for the same `base` span are
    /// laid out end-to-end starting at the base span's start time; their
    /// summed duration may exceed the base span (work is summed across
    /// workers).
    pub fn add_phase(&self, base: SpanHandle, name: impl Into<String>, duration: Duration) {
        let mut inner = self.lock();
        let Some(base_start) = inner.spans.get(base.index).map(|s| s.start) else {
            return;
        };
        if inner.phase_base != Some(base.index) {
            inner.phase_base = Some(base.index);
            inner.phase_cursor = base_start;
        }
        let start = inner.phase_cursor;
        inner.phase_cursor += duration;
        inner.spans.push(Span {
            name: name.into(),
            parent: None,
            start,
            end: Some(start + duration),
            args: Vec::new(),
            track: Track::Phases,
        });
    }

    /// Renders the span tree as indented text with per-span durations.
    pub fn render_tree(&self) -> String {
        let now = self.origin.elapsed();
        let inner = self.lock();
        let mut out = String::from("trace\n");
        fn emit(
            spans: &[Span],
            parent: Option<usize>,
            depth: usize,
            now: Duration,
            out: &mut String,
        ) {
            for (index, span) in spans.iter().enumerate() {
                if span.track != Track::Pipeline || span.parent != parent {
                    continue;
                }
                let dur = span.end.unwrap_or(now).saturating_sub(span.start);
                out.push_str(&"  ".repeat(depth + 1));
                out.push_str(&format!("{:<24} {:>10.3?}", span.name, dur));
                for (key, value) in &span.args {
                    out.push_str(&format!("  {key}={}", value.to_compact_string()));
                }
                out.push('\n');
                emit(spans, Some(index), depth + 1, now, out);
            }
        }
        emit(&inner.spans, None, 0, now, &mut out);
        let phases: Vec<&Span> = inner
            .spans
            .iter()
            .filter(|s| s.track == Track::Phases)
            .collect();
        if !phases.is_empty() {
            out.push_str("  synthesis phases (summed across workers)\n");
            for span in phases {
                let dur = span.end.unwrap_or(now).saturating_sub(span.start);
                out.push_str(&format!("    {:<22} {:>10.3?}\n", span.name, dur));
            }
        }
        out
    }

    /// Renders the trace as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`), loadable in Perfetto and
    /// `chrome://tracing`.  Open spans are closed at the current instant.
    pub fn to_chrome_json(&self) -> Json {
        let now = self.origin.elapsed();
        let inner = self.lock();
        let mut events: Vec<Json> = Vec::new();
        for (tid, label) in [(1usize, "pipeline"), (2usize, "synthesis phases")] {
            events.push(
                Json::object()
                    .with("name", Json::str("thread_name"))
                    .with("ph", Json::str("M"))
                    .with("pid", Json::from(1usize))
                    .with("tid", Json::from(tid))
                    .with("args", Json::object().with("name", Json::str(label))),
            );
        }
        for span in &inner.spans {
            let (ts, dur) = chrome_interval(span.start, span.end.unwrap_or(now));
            let (tid, cat) = match span.track {
                Track::Pipeline => (1usize, "pipeline"),
                Track::Phases => (2usize, "phase"),
            };
            let mut args = Json::object();
            for (key, value) in &span.args {
                args = args.with(key.clone(), value.clone());
            }
            events.push(
                Json::object()
                    .with("name", Json::str(&span.name))
                    .with("cat", Json::str(cat))
                    .with("ph", Json::str("X"))
                    .with("ts", Json::from(ts))
                    .with("dur", Json::from(dur))
                    .with("pid", Json::from(1usize))
                    .with("tid", Json::from(tid))
                    .with("args", args),
            );
        }
        Json::object().with("traceEvents", Json::Array(events))
    }
}

/// A span's Chrome `ts` and `dur` in whole microseconds. Both ends are
/// floored before subtracting: flooring `start` and the duration separately
/// can put the exported end 1 µs before the floored end, so a parent ending
/// less than 1 µs after its child could export ending before it.
fn chrome_interval(start: Duration, end: Duration) -> (usize, usize) {
    let (start, end) = (start.as_micros() as usize, end.as_micros() as usize);
    (start, end.saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_begin_end_order() {
        let trace = Trace::new();
        let outer = trace.begin("outer");
        let inner = trace.begin("inner");
        trace.end(inner);
        trace.end(outer);
        let tree = trace.render_tree();
        assert!(tree.contains("outer"));
        assert!(tree.contains("inner"));
        let outer_at = tree.find("outer").unwrap();
        let inner_at = tree.find("inner").unwrap();
        assert!(outer_at < inner_at, "outer listed before nested inner");
    }

    #[test]
    fn chrome_export_round_trips_through_the_json_parser() {
        let trace = Trace::new();
        let outer = trace.begin("stage");
        trace.set_arg(outer, "tables", Json::from(2usize));
        trace.end(outer);
        trace.add_phase(outer, "oracle", Duration::from_millis(3));
        let text = trace.to_chrome_json().to_pretty_string();
        let parsed = Json::parse(&text).expect("trace JSON parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"stage"));
        assert!(names.contains(&"oracle"));
    }

    #[test]
    fn phase_spans_lay_out_end_to_end_from_the_base_span() {
        let trace = Trace::new();
        let base = trace.begin("synthesize");
        trace.end(base);
        trace.add_phase(base, "a", Duration::from_micros(10));
        trace.add_phase(base, "b", Duration::from_micros(5));
        let json = trace.to_chrome_json();
        let events = json.get("traceEvents").and_then(Json::as_array).unwrap();
        let phase: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("phase"))
            .collect();
        assert_eq!(phase.len(), 2);
        let a_start = phase[0].get("ts").and_then(Json::as_i128).unwrap();
        let b_start = phase[1].get("ts").and_then(Json::as_i128).unwrap();
        assert_eq!(b_start, a_start + 10);
    }

    /// Whether the exported interval of `child` lies within `parent`'s.
    fn exports_nested(parent: (usize, usize), child: (usize, usize)) -> bool {
        parent.0 <= child.0 && child.0 + child.1 <= parent.0 + parent.1
    }

    #[test]
    fn chrome_export_keeps_nanosecond_nesting() {
        let ns = Duration::from_nanos;
        let trace = Trace::new();
        {
            let mut inner = trace.lock();
            for (name, parent, start, end) in [
                ("parent", None, ns(900), ns(2100)),
                ("child", Some(0), ns(1000), ns(2050)),
            ] {
                inner.spans.push(Span {
                    name: name.to_string(),
                    parent,
                    start,
                    end: Some(end),
                    args: Vec::new(),
                    track: Track::Pipeline,
                });
            }
        }
        let json = trace.to_chrome_json();
        let spans: Vec<(usize, usize)> = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                let field = |key| e.get(key).and_then(Json::as_i128).unwrap() as usize;
                (field("ts"), field("dur"))
            })
            .collect();
        assert_eq!(spans, [(0, 2), (1, 1)]);
        assert!(exports_nested(spans[0], spans[1]));

        // Every nested pair of nanosecond intervals stays nested.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..10_000 {
            let parent_start = next(5_000);
            let child_start = parent_start + next(3_000);
            let child_end = child_start + next(3_000);
            let parent_end = child_end + next(3_000);
            let parent = chrome_interval(ns(parent_start), ns(parent_end));
            let child = chrome_interval(ns(child_start), ns(child_end));
            assert!(
                exports_nested(parent, child),
                "{parent_start}..{parent_end} ns exported as {parent:?}, \
                 {child_start}..{child_end} ns as {child:?}"
            );
        }
    }
}
