//! The JSON-lines wire format for the pipeline's event streams.
//!
//! Every [`SynthesisEvent`] and [`PipelineEvent`] has a structured JSON
//! encoding here, and [`NdjsonWriter`] streams them — one compact JSON
//! object per line — to any `Write` sink. This is the `--events` export of
//! the `migrate` CLI and the wire format the ROADMAP's
//! migration-as-a-service daemon will speak: a client that tails the file
//! (or the socket) sees the run progress event by event and can stop
//! parsing at any line boundary.
//!
//! Line discipline:
//!
//! * every line is one well-formed JSON object with a `"type"` field;
//! * every line carries `"seq"`, a strictly increasing sequence number
//!   across *both* streams (synthesis and pipeline events interleave in
//!   delivery order);
//! * scheduling-dependent speculation notices are tagged
//!   `"channel": "speculation"` so deterministic consumers can filter
//!   them out;
//! * a terminal `{"type": "run_finished", "outcome": ...}` line closes
//!   the stream (written by [`NdjsonWriter::finish`]).
//!
//! The `tracecheck ndjson` subcommand validates exactly this discipline.

use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};

use migrator::{CancelReason, SynthesisEvent, SynthesisObserver};
use obs::{PipelineEvent, PipelineObserver};
use sqlbridge::Json;

/// Encodes one synthesis event as a structured JSON object (without the
/// writer's `seq` / `channel` framing fields).
pub fn synthesis_event_json(event: &SynthesisEvent) -> Json {
    match event {
        SynthesisEvent::CorrespondenceEnumerated {
            index,
            mapped_attrs,
        } => Json::object()
            .with("type", Json::str("correspondence_enumerated"))
            .with("index", Json::from(*index))
            .with("mapped_attrs", Json::from(*mapped_attrs)),
        SynthesisEvent::CorrespondenceSpeculated { index } => Json::object()
            .with("type", Json::str("correspondence_speculated"))
            .with("index", Json::from(*index)),
        SynthesisEvent::CorrespondenceCancelled { index } => Json::object()
            .with("type", Json::str("correspondence_cancelled"))
            .with("index", Json::from(*index)),
        SynthesisEvent::SketchGenerated {
            index,
            holes,
            completions,
        } => Json::object()
            .with("type", Json::str("sketch_generated"))
            .with("index", Json::from(*index))
            .with("holes", Json::from(*holes))
            .with("completions", Json::str(completions.to_string())),
        SynthesisEvent::SketchGenerationFailed { index } => Json::object()
            .with("type", Json::str("sketch_generation_failed"))
            .with("index", Json::from(*index)),
        SynthesisEvent::CandidateChecked {
            index,
            iteration,
            accepted,
            sequences_tested,
        } => Json::object()
            .with("type", Json::str("candidate_checked"))
            .with("index", Json::from(*index))
            .with("iteration", Json::from(*iteration))
            .with("accepted", Json::from(*accepted))
            .with("sequences_tested", Json::from(*sequences_tested)),
        SynthesisEvent::CandidateSpeculated {
            index,
            iteration,
            adopted,
        } => Json::object()
            .with("type", Json::str("candidate_speculated"))
            .with("index", Json::from(*index))
            .with("iteration", Json::from(*iteration))
            .with("adopted", Json::from(*adopted)),
        SynthesisEvent::MfiFound {
            index,
            iteration,
            updates,
            query,
            blocked_holes,
            pruned,
            domains,
        } => {
            let domains = domains
                .iter()
                .map(|&(kind, count)| {
                    Json::object()
                        .with("domain", Json::str(kind))
                        .with("count", Json::from(count))
                })
                .collect();
            Json::object()
                .with("type", Json::str("mfi_found"))
                .with("index", Json::from(*index))
                .with("iteration", Json::from(*iteration))
                .with("updates", Json::from(*updates))
                .with("query", Json::str(query))
                .with("blocked_holes", Json::from(*blocked_holes))
                .with("pruned", Json::str(pruned.to_string()))
                .with("domains", Json::Array(domains))
        }
        SynthesisEvent::BoundExhausted {
            index,
            iterations,
            space_exhausted,
        } => Json::object()
            .with("type", Json::str("bound_exhausted"))
            .with("index", Json::from(*index))
            .with("iterations", Json::from(*iterations))
            .with("space_exhausted", Json::from(*space_exhausted)),
        SynthesisEvent::Solved { index, iterations } => Json::object()
            .with("type", Json::str("solved"))
            .with("index", Json::from(*index))
            .with("iterations", Json::from(*iterations)),
        SynthesisEvent::FrontierDrained {
            produced,
            infeasible,
        } => Json::object()
            .with("type", Json::str("frontier_drained"))
            .with("produced", Json::from(*produced))
            .with("infeasible", Json::from(*infeasible)),
        SynthesisEvent::FrontierBudgetReached { explored } => Json::object()
            .with("type", Json::str("frontier_budget_reached"))
            .with("explored", Json::from(*explored)),
        SynthesisEvent::RunInterrupted { reason } => Json::object()
            .with("type", Json::str("run_interrupted"))
            .with(
                "reason",
                Json::str(match reason {
                    CancelReason::Cancelled => "cancelled",
                    CancelReason::DeadlineExceeded => "deadline_exceeded",
                }),
            ),
    }
}

/// Encodes one pipeline event as a structured JSON object.
pub fn pipeline_event_json(event: &PipelineEvent) -> Json {
    match event {
        PipelineEvent::DdlParsed { input, tables } => Json::object()
            .with("type", Json::str("ddl_parsed"))
            .with("input", Json::str(input))
            .with("tables", Json::from(*tables)),
        PipelineEvent::Emitted {
            dialect,
            functions,
            statements,
        } => Json::object()
            .with("type", Json::str("emitted"))
            .with("dialect", Json::str(dialect))
            .with("functions", Json::from(*functions))
            .with("statements", Json::from(*statements)),
        PipelineEvent::DataMovePlanned {
            target,
            tables,
            statement,
            statements,
        } => Json::object()
            .with("type", Json::str("data_move_planned"))
            .with("target", Json::str(target))
            .with(
                "tables",
                Json::Array(tables.iter().map(Json::str).collect()),
            )
            .with("statement", Json::from(*statement))
            .with("statements", Json::from(*statements)),
        PipelineEvent::DataMoved {
            backend,
            table,
            statement,
            statements,
            rows,
        } => Json::object()
            .with("type", Json::str("data_moved"))
            .with("backend", Json::str(backend))
            .with("table", Json::str(table))
            .with("statement", Json::from(*statement))
            .with("statements", Json::from(*statements))
            .with("rows", Json::from(*rows)),
        PipelineEvent::ScriptStaged {
            backend,
            seeded_rows,
            statements,
        } => Json::object()
            .with("type", Json::str("script_staged"))
            .with("backend", Json::str(backend))
            .with("seeded_rows", Json::from(*seeded_rows))
            .with("statements", Json::from(*statements)),
        PipelineEvent::BackendStatementExecuted {
            backend,
            phase,
            statements,
        } => Json::object()
            .with("type", Json::str("backend_statement_executed"))
            .with("backend", Json::str(backend))
            .with("phase", Json::str(phase))
            .with("statements", Json::from(*statements)),
        PipelineEvent::ValidationCompared {
            backend,
            ok,
            tables_compared,
            diffs,
        } => Json::object()
            .with("type", Json::str("validation_compared"))
            .with("backend", Json::str(backend))
            .with("ok", Json::from(*ok))
            .with("tables_compared", Json::from(*tables_compared))
            .with("diffs", Json::from(*diffs)),
    }
}

/// Why an [`NdjsonWriter`] stopped accepting events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NdjsonError {
    /// The underlying sink failed; lines after the failure were dropped.
    SinkFailed,
    /// An event arrived after [`NdjsonWriter::finish`] wrote the terminal
    /// `run_finished` line. The stream contract promises consumers that
    /// nothing follows the terminal line, so a late event is a caller bug —
    /// typically an observer still installed somewhere after the run was
    /// declared over — and must not be silently swallowed.
    WriteAfterFinish,
}

impl std::fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NdjsonError::SinkFailed => write!(f, "the NDJSON sink failed"),
            NdjsonError::WriteAfterFinish => {
                write!(f, "an event arrived after the terminal `run_finished` line")
            }
        }
    }
}

impl std::error::Error for NdjsonError {}

struct NdjsonState {
    sink: Box<dyn Write + Send>,
    seq: u64,
    finished: bool,
    error: Option<NdjsonError>,
}

/// Streams both event channels to a sink as JSON lines.
///
/// Implements [`SynthesisObserver`] *and* [`PipelineObserver`], so one
/// writer (behind an `Arc`) can be installed as both the synthesis
/// observer and the pipeline observer of a session. Each event becomes one
/// compact JSON line with a strictly increasing `"seq"` field; speculation
/// side-channel notices additionally carry `"channel": "speculation"`.
/// Call [`finish`](NdjsonWriter::finish) when the run ends — whichever way
/// it ends — to append the terminal `run_finished` line and flush.
///
/// Sink errors are swallowed after the first failure (an observer must not
/// panic mid-search); [`finish`](NdjsonWriter::finish) reports whether
/// every line made it out, and [`error`](NdjsonWriter::error) names the
/// failure class. Once `finish` has written the terminal line the stream
/// is sealed: a later event (or a second `finish`) is recorded as
/// [`NdjsonError::WriteAfterFinish`] and never reaches the sink — a
/// multi-consumer stream whose consumers stop at `run_finished` must not
/// quietly grow a tail nobody reads.
pub struct NdjsonWriter {
    state: Mutex<NdjsonState>,
}

impl std::fmt::Debug for NdjsonWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdjsonWriter").finish_non_exhaustive()
    }
}

impl NdjsonWriter {
    /// A writer over any sink (a file for `--events`, a socket for the
    /// future daemon).
    pub fn new(sink: Box<dyn Write + Send>) -> NdjsonWriter {
        NdjsonWriter {
            state: Mutex::new(NdjsonState {
                sink,
                seq: 0,
                finished: false,
                error: None,
            }),
        }
    }

    fn write_line(&self, json: Json, speculation: bool) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.finished {
            state.error.get_or_insert(NdjsonError::WriteAfterFinish);
            return;
        }
        if state.error.is_some() {
            return;
        }
        let mut json = json.with("seq", Json::from(state.seq as usize));
        if speculation {
            json = json.with("channel", Json::str("speculation"));
        }
        state.seq += 1;
        let line = json.to_compact_string();
        let sink = &mut state.sink;
        if writeln!(sink, "{line}").is_err() {
            state.error = Some(NdjsonError::SinkFailed);
        }
    }

    /// Writes the terminal `run_finished` line, flushes the sink and seals
    /// the stream. Returns `false` if any write or the flush failed — or if
    /// the stream was already sealed (a second `finish` is a
    /// [`NdjsonError::WriteAfterFinish`] like any other late write).
    pub fn finish(&self, outcome: &str) -> bool {
        self.write_line(
            Json::object()
                .with("type", Json::str("run_finished"))
                .with("outcome", Json::str(outcome)),
            false,
        );
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.finished {
            state.finished = true;
            if state.sink.flush().is_err() {
                state.error.get_or_insert(NdjsonError::SinkFailed);
            }
        }
        state.error.is_none()
    }

    /// Why the stream stopped accepting events, if it did. `None` means
    /// every line (including the terminal one, once written) made it out.
    pub fn error(&self) -> Option<NdjsonError> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).error
    }
}

impl SynthesisObserver for NdjsonWriter {
    fn event(&self, event: &SynthesisEvent) {
        self.write_line(synthesis_event_json(event), false);
    }

    fn speculation(&self, event: &SynthesisEvent) {
        self.write_line(synthesis_event_json(event), true);
    }
}

impl PipelineObserver for NdjsonWriter {
    fn pipeline_event(&self, event: &PipelineEvent) {
        self.write_line(pipeline_event_json(event), false);
    }
}

/// Shared state of a [`LineBus`]: the full line history plus whether the
/// stream is closed.
struct LineBusState {
    /// Every complete line, concatenated without their newlines.
    text: String,
    /// The end offset in `text` of each complete line.
    ends: Vec<usize>,
    closed: bool,
    /// Bytes received that are not yet terminated by `\n` (the bus is a
    /// `Write` sink, and one logical line may arrive as several writes).
    partial: String,
}

impl LineBusState {
    /// The line at `index`.
    fn line(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |before| self.ends[before]);
        &self.text[start..self.ends[index]]
    }

    /// Appends one complete line.
    fn push_line(&mut self, line: &str) {
        self.text.push_str(line);
        self.ends.push(self.text.len());
    }
}

/// A replayable fan-out of one NDJSON stream to any number of subscribers.
///
/// The job server's `watch` command needs every subscriber — whether it
/// connected before the job started or long after it finished — to see the
/// *same complete stream*. A plain broadcast would lose the prefix for late
/// subscribers, so the bus keeps the full line history (job streams are
/// bounded: one run's events) and hands each [`LineFollower`] its own
/// cursor into it. Followers block on a condvar until new lines arrive or
/// the bus closes. The history is one string of concatenated lines plus
/// their end offsets, trimmed to its length when the bus closes, so a
/// finished stream holds little more than its own bytes.
///
/// The bus implements [`Write`], so it can serve directly as an
/// [`NdjsonWriter`] sink: whatever framing the writer produces is replayed
/// verbatim, keeping watched streams byte-identical to a file export of
/// the same run.
pub struct LineBus {
    state: Mutex<LineBusState>,
    wakeup: Condvar,
}

impl std::fmt::Debug for LineBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("LineBus")
            .field("lines", &state.ends.len())
            .field("closed", &state.closed)
            .finish()
    }
}

impl Default for LineBus {
    fn default() -> LineBus {
        LineBus::new()
    }
}

impl LineBus {
    /// An empty, open bus.
    pub fn new() -> LineBus {
        LineBus {
            state: Mutex::new(LineBusState {
                text: String::new(),
                ends: Vec::new(),
                closed: false,
                partial: String::new(),
            }),
            wakeup: Condvar::new(),
        }
    }

    /// Appends one complete line (without trailing newline).
    pub fn push(&self, line: String) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.push_line(&line);
        self.wakeup.notify_all();
    }

    /// Closes the bus: followers drain the remaining history and then see
    /// `None`. A trailing unterminated fragment is flushed as a final line,
    /// and the history gives back the capacity it grew beyond its length.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let partial = std::mem::take(&mut state.partial);
        if !partial.is_empty() {
            state.push_line(&partial);
        }
        state.text.shrink_to_fit();
        state.ends.shrink_to_fit();
        state.closed = true;
        self.wakeup.notify_all();
    }

    /// A snapshot of every line pushed so far.
    pub fn lines(&self) -> Vec<String> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (0..state.ends.len())
            .map(|index| state.line(index).to_string())
            .collect()
    }

    /// A new follower positioned at the start of the history, so every
    /// subscriber replays the complete stream regardless of when it joined.
    pub fn follow(self: &Arc<Self>) -> LineFollower {
        LineFollower {
            bus: Arc::clone(self),
            cursor: 0,
        }
    }
}

impl Write for &LineBus {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let text = String::from_utf8_lossy(buf);
        let mut guard = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let state = &mut *guard;
        if state.closed {
            return Err(std::io::Error::other("line bus closed"));
        }
        let mut rest: &str = &text;
        let mut pushed = false;
        while let Some(end) = rest.find('\n') {
            state.text.push_str(&state.partial);
            state.partial.clear();
            state.push_line(&rest[..end]);
            rest = &rest[end + 1..];
            pushed = true;
        }
        state.partial.push_str(rest);
        if pushed {
            self.wakeup.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An owning [`Write`] adapter over an [`Arc<LineBus>`], suitable as a
/// boxed [`NdjsonWriter`] sink.
#[derive(Debug, Clone)]
pub struct LineBusSink(pub Arc<LineBus>);

impl Write for LineBusSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self.0).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One subscriber's cursor into a [`LineBus`] (see [`LineBus::follow`]).
#[derive(Debug)]
pub struct LineFollower {
    bus: Arc<LineBus>,
    cursor: usize,
}

impl LineFollower {
    /// The next line, blocking until one arrives. `None` once the bus is
    /// closed and the history is drained.
    pub fn next_line(&mut self) -> Option<String> {
        let mut state = self.bus.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.cursor < state.ends.len() {
                let line = state.line(self.cursor).to_string();
                self.cursor += 1;
                return Some(line);
            }
            if state.closed {
                return None;
            }
            state = self
                .bus
                .wakeup
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Like [`next_line`](LineFollower::next_line), but gives up after
    /// `timeout` so a server can poll a client-side disconnect between
    /// waits. `Ok(None)` means closed-and-drained; `Err(())` means no line
    /// arrived within the timeout.
    #[allow(clippy::result_unit_err)]
    pub fn next_line_timeout(
        &mut self,
        timeout: std::time::Duration,
    ) -> Result<Option<String>, ()> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.bus.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.cursor < state.ends.len() {
                let line = state.line(self.cursor).to_string();
                self.cursor += 1;
                return Ok(Some(line));
            }
            if state.closed {
                return Ok(None);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(());
            }
            let (next, _timed_out) = self
                .bus
                .wakeup
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A sink the test can read back: writes land in a shared buffer.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_stream_as_sequenced_json_lines_with_terminal_event() {
        let buf = SharedBuf::default();
        let writer = NdjsonWriter::new(Box::new(buf.clone()));
        writer.pipeline_event(&PipelineEvent::DdlParsed {
            input: "source".to_string(),
            tables: 2,
        });
        writer.event(&SynthesisEvent::CorrespondenceEnumerated {
            index: 0,
            mapped_attrs: 3,
        });
        writer.speculation(&SynthesisEvent::CorrespondenceSpeculated { index: 1 });
        writer.event(&SynthesisEvent::MfiFound {
            index: 0,
            iteration: 1,
            updates: 2,
            query: "getUser".to_string(),
            blocked_holes: 3,
            pruned: 12,
            domains: vec![("attr", 2), ("join", 1)],
        });
        assert!(writer.finish("no_solution"));
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let mut last_seq = -1i128;
        for line in &lines {
            let json = Json::parse(line).expect("every line parses");
            let seq = json.get("seq").and_then(Json::as_i128).expect("seq");
            assert!(seq > last_seq, "seq must be strictly increasing");
            last_seq = seq;
            assert!(json.get("type").and_then(Json::as_str).is_some());
        }
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("ddl_parsed"));
        let spec = Json::parse(lines[2]).unwrap();
        assert_eq!(
            spec.get("channel").and_then(Json::as_str),
            Some("speculation")
        );
        let mfi = Json::parse(lines[3]).unwrap();
        assert_eq!(mfi.get("pruned").and_then(Json::as_str), Some("12"));
        assert_eq!(
            mfi.get("domains").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
        let last = Json::parse(lines[4]).unwrap();
        assert_eq!(
            last.get("type").and_then(Json::as_str),
            Some("run_finished")
        );
        assert_eq!(
            last.get("outcome").and_then(Json::as_str),
            Some("no_solution")
        );
    }

    #[test]
    fn a_failing_sink_reports_failure_without_panicking() {
        struct FailingSink;
        impl Write for FailingSink {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("sink closed"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("sink closed"))
            }
        }
        let writer = NdjsonWriter::new(Box::new(FailingSink));
        writer.event(&SynthesisEvent::Solved {
            index: 0,
            iterations: 1,
        });
        assert!(!writer.finish("solved"));
        assert_eq!(writer.error(), Some(NdjsonError::SinkFailed));
    }

    #[test]
    fn writes_after_finish_are_an_error_not_a_silent_latch() {
        let buf = SharedBuf::default();
        let writer = NdjsonWriter::new(Box::new(buf.clone()));
        writer.event(&SynthesisEvent::Solved {
            index: 0,
            iterations: 1,
        });
        assert!(writer.finish("solved"));
        assert_eq!(writer.error(), None);
        // A late event must be surfaced, and must not reach the sink: the
        // stream contract says nothing follows `run_finished`.
        writer.event(&SynthesisEvent::CorrespondenceEnumerated {
            index: 1,
            mapped_attrs: 2,
        });
        assert_eq!(writer.error(), Some(NdjsonError::WriteAfterFinish));
        // A second finish is a late write too.
        assert!(!writer.finish("solved"));
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        let last = Json::parse(lines[1]).unwrap();
        assert_eq!(
            last.get("type").and_then(Json::as_str),
            Some("run_finished")
        );
    }

    #[test]
    fn line_bus_replays_history_to_late_subscribers() {
        let bus = Arc::new(LineBus::new());
        bus.push("one".to_string());
        bus.push("two".to_string());
        // A follower that joins after lines were pushed still sees them all.
        let mut late = bus.follow();
        assert_eq!(late.next_line(), Some("one".to_string()));
        bus.push("three".to_string());
        bus.close();
        assert_eq!(late.next_line(), Some("two".to_string()));
        assert_eq!(late.next_line(), Some("three".to_string()));
        assert_eq!(late.next_line(), None);
        // Two followers see identical streams.
        let mut other = bus.follow();
        let mut collected = Vec::new();
        while let Some(line) = other.next_line() {
            collected.push(line);
        }
        assert_eq!(collected, vec!["one", "two", "three"]);
    }

    #[test]
    fn line_bus_is_a_working_ndjson_sink_even_with_split_writes() {
        let bus = Arc::new(LineBus::new());
        let writer = NdjsonWriter::new(Box::new(LineBusSink(Arc::clone(&bus))));
        writer.event(&SynthesisEvent::Solved {
            index: 3,
            iterations: 7,
        });
        assert!(writer.finish("solved"));
        // And a raw split write reassembles into one line.
        use std::io::Write as _;
        let mut sink = LineBusSink(Arc::clone(&bus));
        // (The bus rejects writes only after close; it is still open.)
        sink.write_all(b"partial ").unwrap();
        sink.write_all(b"line\n").unwrap();
        bus.close();
        let lines = bus.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        let solved = Json::parse(&lines[0]).unwrap();
        assert_eq!(solved.get("type").and_then(Json::as_str), Some("solved"));
        assert_eq!(solved.get("seq").and_then(Json::as_i128), Some(0));
        assert_eq!(lines[2], "partial line");
    }

    #[test]
    fn line_bus_follower_timeout_reports_an_idle_open_bus() {
        let bus = Arc::new(LineBus::new());
        let mut follower = bus.follow();
        assert_eq!(
            follower.next_line_timeout(std::time::Duration::from_millis(10)),
            Err(())
        );
        bus.push("now".to_string());
        assert_eq!(
            follower.next_line_timeout(std::time::Duration::from_millis(10)),
            Ok(Some("now".to_string()))
        );
        bus.close();
        assert_eq!(
            follower.next_line_timeout(std::time::Duration::from_millis(10)),
            Ok(None)
        );
    }
}
