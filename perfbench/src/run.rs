//! Running instances the way users run them, checking each verdict, and the
//! timed loop of the untraced runs.

use std::time::{Duration, Instant};

use pipeline::{CancelToken, Json};

use crate::inputs::{Expected, Instance};
use crate::sys::{self, Rng};
use crate::tracer::{maybe_span, Tracer};

/// One instance's verdict and its result document.
#[derive(Debug)]
pub struct Verdict {
    pub document: Json,
    /// Why the verdict does not count as ok (`None` when it does).
    pub problem: Option<String>,
    /// Lines of the watched NDJSON stream (served runs only).
    pub stream_lines: usize,
}

/// How a workload submits its instances.
#[derive(Debug)]
pub enum Runner {
    /// `pipeline::run_job` on the calling thread: the unit of work behind
    /// `migrate` and a served job.
    InProcess,
    /// A job on the in-process `served::Server` at this address.
    Served(String),
}

impl Runner {
    /// Runs one instance to its verdict. Spans go to `tracer` when one is
    /// given (served runs open one per client call).
    pub fn run(&self, instance: &Instance, tracer: Option<&Tracer>) -> Verdict {
        match self {
            Runner::InProcess => {
                let report = pipeline::run_job(&instance.spec(), CancelToken::new(), None, None);
                let problem = judge(instance, &report.outcome, report.ok, &report.document);
                Verdict {
                    document: report.document,
                    problem,
                    stream_lines: 0,
                }
            }
            Runner::Served(addr) => {
                served_round_trip(addr, instance, tracer).unwrap_or_else(|error| Verdict {
                    document: Json::Null,
                    problem: Some(format!("{}: {error}", instance.name)),
                    stream_lines: 0,
                })
            }
        }
    }
}

/// An instance is ok only if its outcome equals its known answer, and a
/// solved instance's migration also validated on the memory backend.
fn judge(instance: &Instance, outcome: &str, result_ok: bool, document: &Json) -> Option<String> {
    if outcome != instance.expected.as_str() {
        return Some(format!(
            "{}: outcome `{outcome}`, known answer `{}`",
            instance.name,
            instance.expected.as_str()
        ));
    }
    let validated = document
        .get("validation")
        .and_then(|v| v.get("validated"))
        .and_then(Json::as_bool);
    if instance.expected == Expected::Solved && !(result_ok && validated == Some(true)) {
        return Some(format!(
            "{}: solved, but the migration did not validate on the memory backend",
            instance.name
        ));
    }
    None
}

/// Submits the job, follows its event stream to the final `run_finished`
/// line, then fetches the result — never the status polling of
/// `served::wait_done`, which would add 50 ms steps to every time.
fn served_round_trip(
    addr: &str,
    instance: &Instance,
    tracer: Option<&Tracer>,
) -> Result<Verdict, String> {
    let id = maybe_span(tracer, "served.submit", || {
        served::submit(addr, &instance.spec())
    })?;
    let mut stream = Vec::new();
    let lines = maybe_span(tracer, "served.stream", || {
        served::watch_into(addr, id, &mut stream)
    })?;
    let reply = maybe_span(tracer, "served.result", || fetch_result(addr, id))?;
    let outcome = reply
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or("result reply carries no outcome")?
        .to_string();
    let result_ok = reply.get("result_ok").and_then(Json::as_bool) == Some(true);
    let document = reply.get("document").cloned().unwrap_or(Json::Null);
    let problem = check_stream(&stream, &outcome)
        .err()
        .map(|error| format!("{}: event stream: {error}", instance.name))
        .or_else(|| judge(instance, &outcome, result_ok, &document));
    Ok(Verdict {
        document,
        problem,
        stream_lines: lines,
    })
}

/// The stream closes a moment before the job table records the result, so
/// a `result` request right after it may find the job still running; it is
/// retried until the table catches up.
fn fetch_result(addr: &str, id: u64) -> Result<Json, String> {
    let request = Json::object()
        .with("cmd", Json::str("result"))
        .with("id", Json::from(id as usize));
    for _ in 0..10_000 {
        match served::request(addr, &request) {
            Err(error) if error.contains("not finished") => {
                std::thread::sleep(Duration::from_micros(200));
            }
            reply => return reply,
        }
    }
    Err(format!("job {id}: result never became available"))
}

/// Every line parses as a JSON object, `seq` strictly increases, and there
/// is exactly one `run_finished` line — the last — whose outcome matches
/// the result document's.
pub fn check_stream(stream: &[u8], outcome: &str) -> Result<(), String> {
    let text = std::str::from_utf8(stream).map_err(|e| format!("not UTF-8: {e}"))?;
    let mut last_seq: Option<i128> = None;
    let mut finished: Option<String> = None;
    for (number, line) in text.lines().enumerate() {
        let number = number + 1;
        if finished.is_some() {
            return Err(format!("line {number} follows run_finished"));
        }
        let event = Json::parse(line).map_err(|e| format!("line {number}: {e}"))?;
        let seq = event
            .get("seq")
            .and_then(Json::as_i128)
            .ok_or_else(|| format!("line {number}: no integer seq"))?;
        if last_seq.is_some_and(|last| seq <= last) {
            return Err(format!("line {number}: seq {seq} does not increase"));
        }
        last_seq = Some(seq);
        if event.get("type").and_then(Json::as_str) == Some("run_finished") {
            let outcome = event.get("outcome").and_then(Json::as_str).unwrap_or("");
            finished = Some(outcome.to_string());
        }
    }
    match finished {
        Some(streamed) if streamed == outcome => Ok(()),
        Some(streamed) => Err(format!(
            "run_finished says `{streamed}`, the result says `{outcome}`"
        )),
        None => Err("no run_finished line".to_string()),
    }
}

/// One timed run of one instance.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
}

/// What the timed loop measured.
#[derive(Debug)]
pub struct Measured {
    /// Samples per instance, in workload order.
    pub samples: Vec<Vec<Sample>>,
    pub attempted: usize,
    pub problems: Vec<String>,
}

impl Measured {
    /// Per-instance medians of wall time, in workload order.
    pub fn wall_medians(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| sys::median(&s.iter().map(|s| s.wall).collect::<Vec<_>>()))
            .collect()
    }

    /// Per-instance medians of process CPU time, in workload order.
    pub fn cpu_medians(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| sys::median(&s.iter().map(|s| s.cpu).collect::<Vec<_>>()))
            .collect()
    }
}

/// The closed loop of an untraced run: repetitions of the whole instance
/// set, each in a fresh seeded order, until `budget` is spent. The first
/// repetition always runs in full, so every instance has a sample; after
/// it, an instance starts only if its slowest time so far fits in what is
/// left of the budget, so a run ends close to `budget`. `between` runs
/// before every instance run, outside its timing; untraced runs probe the
/// set-up there, so its samples spread over the whole run.
///
/// Before each served job the allocator's free memory goes back to the
/// kernel: every job runs on a fresh server thread, and memory kept in an
/// earlier job's arena otherwise made the peak resident set depend on the
/// order (251 MB or 440 MB on `apps`). The program never trims, so `apps`'
/// `peak_rss_mb` leaves out the arenas a server retains between jobs. In
/// paired runs the trim cost no time that showed above the host's noise.
/// In-process runs reuse the memory the previous instance freed; trimming
/// it there made small instances pay to fault it in again, at a cost that
/// drifts with the host.
pub fn measure(
    instances: &[Instance],
    runner: &Runner,
    rng: &mut Rng,
    budget: Duration,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let start = Instant::now();
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); instances.len()];
    let mut attempted = 0;
    let mut problems = Vec::new();
    loop {
        let mut ran = false;
        for i in rng.permutation(instances.len()) {
            if !samples[i].is_empty() {
                let left = budget.saturating_sub(start.elapsed()).as_secs_f64();
                let slowest = samples[i].iter().map(|s| s.wall).fold(0.0, f64::max);
                if slowest > left {
                    continue;
                }
            }
            between()?;
            if matches!(runner, Runner::Served(_)) {
                sys::release_free_memory();
            }
            let cpu = sys::process_cpu();
            let began = Instant::now();
            let verdict = runner.run(&instances[i], None);
            samples[i].push(Sample {
                wall: began.elapsed().as_secs_f64(),
                cpu: (sys::process_cpu() - cpu).as_secs_f64(),
            });
            attempted += 1;
            problems.extend(verdict.problem);
            ran = true;
        }
        if !ran {
            break;
        }
    }
    Ok(Measured {
        samples,
        attempted,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_checks() {
        let good = b"{\"type\":\"a\",\"seq\":0}\n{\"type\":\"run_finished\",\"outcome\":\"solved\",\"seq\":1}\n";
        assert!(check_stream(good, "solved").is_ok());
        assert!(check_stream(good, "no_solution")
            .unwrap_err()
            .contains("the result says"));
        let repeated = b"{\"type\":\"a\",\"seq\":1}\n{\"type\":\"run_finished\",\"outcome\":\"solved\",\"seq\":1}\n";
        assert!(check_stream(repeated, "solved")
            .unwrap_err()
            .contains("does not increase"));
        let trailing = b"{\"type\":\"run_finished\",\"outcome\":\"solved\",\"seq\":0}\n{\"type\":\"a\",\"seq\":1}\n";
        assert!(check_stream(trailing, "solved")
            .unwrap_err()
            .contains("follows"));
        assert!(check_stream(b"{\"type\":\"a\",\"seq\":0}\n", "solved")
            .unwrap_err()
            .contains("no run_finished"));
        assert!(check_stream(b"not json\n", "solved").is_err());
    }
}
