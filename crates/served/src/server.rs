//! The job server: TCP listener, job table, scheduler and worker pool.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use migrator::{CancelToken, SynthesisEvent, SynthesisObserver};
use parpool::BudgetReservation;
use pipeline::{run_job, JobSpec, Json, LineBus, LineBusSink, NdjsonWriter};

/// How the accept loop polls for connections and shutdown.
const POLL: Duration = Duration::from_millis(10);

/// How long a connection may stay silent before its request read is
/// abandoned (a stuck client must not pin a handler thread forever).
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Usage string for `migrate serve`.
pub const SERVE_USAGE: &str = "\
usage: migrate serve [--addr <host:port>] [--workers <n>] [--threads <n>]

Starts the migration job server on <host:port> (default 127.0.0.1:0, an
ephemeral port printed on startup as `serving on <addr>`). Jobs are
accepted over a line-oriented JSON protocol (see `migrate client --help`),
run on a pool of at most --workers concurrent jobs (default 2) scheduled
against the global --threads budget, and streamed to `watch` subscribers
as NDJSON. The server runs until a client sends `shutdown`; `drain` mode
finishes queued work first, `cancel` mode stops every job at its next
cancellation point.";

/// What to do with unfinished jobs when the server shuts down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop accepting submissions, finish everything already queued.
    Drain,
    /// Cancel queued and running jobs at their next cancellation point.
    Cancel,
}

/// Lifecycle phases of the server, stored in [`ServerState::phase`].
const PHASE_ACCEPTING: u8 = 0;
const PHASE_DRAINING: u8 = 1;
const PHASE_CANCELLING: u8 = 2;
const PHASE_STOPPED: u8 = 3;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `host:0` picks an ephemeral port.
    pub addr: String,
    /// Maximum number of concurrently *running* jobs.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
        }
    }
}

/// Status of one job in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
        }
    }
}

/// One submitted job: its spec, lifecycle state and event stream.
struct JobRecord {
    id: u64,
    spec: JobSpec,
    status: JobStatus,
    /// Final outcome kind once done (`solved`, `no_solution`, `timeout`,
    /// `cancelled`, `error`).
    outcome: Option<String>,
    /// Whether the job solved *and* validated.
    ok: bool,
    /// The job's single result document once done, rendered compactly
    /// once: a finished job keeps text, not the document's tree, and every
    /// `result` reply splices it in verbatim.
    document: Option<String>,
    /// Fan-out of the job's NDJSON stream to watchers.
    bus: Arc<LineBus>,
    /// The writer producing that stream (kept to seal it exactly once).
    writer: Arc<NdjsonWriter>,
    cancel: CancelToken,
}

struct ServerState {
    jobs: Mutex<Vec<JobRecord>>,
    /// Wakes the scheduler on submit, job completion and shutdown.
    wake: Condvar,
    phase: AtomicU8,
    running: AtomicUsize,
    workers: usize,
}

impl ServerState {
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Moves the server into a shutdown phase. A cancelling shutdown wins
    /// over a draining one; nothing un-stops a stopped server.
    fn request_shutdown(&self, mode: ShutdownMode) {
        let target = match mode {
            ShutdownMode::Drain => PHASE_DRAINING,
            ShutdownMode::Cancel => PHASE_CANCELLING,
        };
        let _ = self.phase.fetch_max(target, Ordering::SeqCst);
        // Hold the job lock so a scheduler mid-decision re-reads the phase.
        let _jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        self.wake.notify_all();
    }
}

/// Forwards only the deterministic main channel to the job's stream.
///
/// Speculation-channel notices are scheduling-dependent; letting them into
/// a watched stream would perturb `seq` numbers and break the
/// byte-identical-to-serial contract the server advertises.
struct MainChannelOnly(Arc<NdjsonWriter>);

impl SynthesisObserver for MainChannelOnly {
    fn event(&self, event: &SynthesisEvent) {
        self.0.event(event);
    }

    fn speculation(&self, _event: &SynthesisEvent) {}
}

/// A running migration job server.
///
/// [`Server::start`] binds and spawns the accept loop and the scheduler;
/// [`Server::wait`] blocks until a `shutdown` request (or
/// [`Server::shutdown`]) has fully taken effect — every job finished or
/// cancelled, every stream sealed, every connection handler joined.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("phase", &self.state.phase())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `config.addr` and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            jobs: Mutex::new(Vec::new()),
            wake: Condvar::new(),
            phase: AtomicU8::new(PHASE_ACCEPTING),
            running: AtomicUsize::new(0),
            workers: config.workers.max(1),
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_state = Arc::clone(&state);
        let accept_handlers = Arc::clone(&handlers);
        let accept = std::thread::spawn(move || {
            accept_loop(&listener, &accept_state, &accept_handlers);
        });
        let scheduler_state = Arc::clone(&state);
        let scheduler = std::thread::spawn(move || scheduler_loop(&scheduler_state));

        Ok(Server {
            state,
            addr,
            accept: Some(accept),
            scheduler: Some(scheduler),
            handlers,
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a shutdown programmatically, exactly like a client's
    /// `shutdown` request.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.state.request_shutdown(mode);
    }

    /// Blocks until the server has fully shut down.
    pub fn wait(mut self) {
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Handlers outlive the accept loop only briefly: every stream they
        // might be following is sealed by now.
        let handlers =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handlers {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if state.phase() == PHASE_STOPPED {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                let handle = std::thread::spawn(move || handle_connection(stream, &state));
                handlers
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(handle);
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// The scheduler: starts queued jobs while worker slots and thread-budget
/// tokens are available; on shutdown, drains or cancels deterministically
/// and finally flips the server to stopped.
fn scheduler_loop(state: &Arc<ServerState>) {
    loop {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let phase = state.phase();

        if phase == PHASE_CANCELLING {
            // Deterministic teardown: queued jobs are retired in id order
            // without ever running (their streams still get a terminal
            // line); running jobs get their tokens fired and are awaited.
            for job in jobs.iter_mut() {
                if job.status == JobStatus::Queued {
                    job.status = JobStatus::Done;
                    job.outcome = Some("cancelled".to_string());
                    job.ok = false;
                    job.document = Some(
                        Json::object()
                            .with("outcome", Json::str("cancelled"))
                            .with(
                                "error",
                                Json::str("job cancelled before it started (server shutdown)"),
                            )
                            .to_compact_string(),
                    );
                    job.writer.finish("cancelled");
                    job.bus.close();
                }
                job.cancel.cancel();
            }
        }

        let queued = jobs.iter().any(|j| j.status == JobStatus::Queued);
        let running = state.running.load(Ordering::SeqCst);
        if phase != PHASE_ACCEPTING && !queued && running == 0 {
            state.phase.store(PHASE_STOPPED, Ordering::SeqCst);
            return;
        }

        if phase != PHASE_CANCELLING && queued && running < state.workers {
            // One thread-budget token per running job: the runner thread is
            // a computing thread, so nested fan-outs inside N concurrent
            // jobs borrow from a pool shrunk by N and the box never runs
            // more than the configured thread limit hot. At a limit of 1
            // no token can ever be reserved (the caller's implicit slot is
            // the whole budget), so jobs run unreserved, each sequential
            // inside itself and bounded only by --workers.
            let tokens = usize::from(parpool::thread_limit() > 1);
            if let Some(reservation) = BudgetReservation::try_new(tokens) {
                let job = jobs
                    .iter_mut()
                    .filter(|j| j.status == JobStatus::Queued)
                    .min_by_key(|j| j.id)
                    .expect("a queued job exists");
                job.status = JobStatus::Running;
                state.running.fetch_add(1, Ordering::SeqCst);
                let id = job.id;
                let spec = job.spec.clone();
                let cancel = job.cancel.clone();
                let writer = Arc::clone(&job.writer);
                let bus = Arc::clone(&job.bus);
                drop(jobs);
                let runner_state = Arc::clone(state);
                std::thread::spawn(move || {
                    run_one(&runner_state, id, &spec, cancel, &writer, &bus, reservation);
                });
                continue;
            }
        }

        // Nothing startable right now: sleep until a submit/finish/shutdown
        // pokes the condvar (with a timeout, since thread-budget tokens are
        // released without notification).
        let (guard, _timeout) = state
            .wake
            .wait_timeout(jobs, POLL)
            .unwrap_or_else(|e| e.into_inner());
        drop(guard);
    }
}

/// Runs one job on the current (runner) thread and retires it.
fn run_one(
    state: &Arc<ServerState>,
    id: u64,
    spec: &JobSpec,
    cancel: CancelToken,
    writer: &Arc<NdjsonWriter>,
    bus: &Arc<LineBus>,
    reservation: BudgetReservation,
) {
    let report = run_job(
        spec,
        cancel,
        Some(Arc::new(MainChannelOnly(Arc::clone(writer)))),
        Some(Arc::clone(writer) as Arc<dyn pipeline::PipelineObserver>),
    );

    // Record the result before sealing the stream: a watcher that has read
    // `run_finished` may ask for `result` at once, and must find it.
    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(job) = jobs.iter_mut().find(|j| j.id == id) {
        job.status = JobStatus::Done;
        job.outcome = Some(report.outcome.clone());
        job.ok = report.ok;
        job.document = Some(report.document.to_compact_string());
    }
    writer.finish(&report.outcome);
    bus.close();
    drop(reservation);
    state.running.fetch_sub(1, Ordering::SeqCst);
    state.wake.notify_all();
}

fn reply(stream: &mut TcpStream, json: &Json) {
    reply_line(stream, &json.to_compact_string());
}

fn reply_line(stream: &mut TcpStream, line: &str) {
    let _ = writeln!(stream, "{line}");
    let _ = stream.flush();
}

/// The `result` reply of a finished job, with its stored compact `document`
/// spliced in verbatim: byte-identical to rendering the reply object with
/// the document's tree in it.
fn result_reply(id: u64, outcome: &str, result_ok: bool, document: &str) -> String {
    let mut line = Json::object()
        .with("ok", Json::Bool(true))
        .with("id", Json::from(id as usize))
        .with("outcome", Json::str(outcome))
        .with("result_ok", Json::Bool(result_ok))
        .to_compact_string();
    line.pop(); // the object's closing brace
    line.push_str(",\"document\":");
    line.push_str(document);
    line.push('}');
    line
}

fn error_reply(message: impl Into<String>) -> Json {
    Json::object()
        .with("ok", Json::Bool(false))
        .with("error", Json::str(message.into()))
}

fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
    let mut line = String::new();
    {
        let mut reader = BufReader::new(match stream.try_clone() {
            Ok(reader) => reader,
            Err(_) => return,
        });
        if reader.read_line(&mut line).is_err() {
            return;
        }
    }
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    let request = match Json::parse(line) {
        Ok(request) => request,
        Err(error) => {
            reply(&mut stream, &error_reply(format!("bad request: {error}")));
            return;
        }
    };
    let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
        reply(&mut stream, &error_reply("missing string field `cmd`"));
        return;
    };
    let id_of = |request: &Json| -> Result<u64, Json> {
        request
            .get("id")
            .and_then(Json::as_i128)
            .filter(|id| *id >= 1)
            .map(|id| id as u64)
            .ok_or_else(|| error_reply("missing or invalid `id`"))
    };
    match cmd {
        "submit" => {
            let response = handle_submit(state, &request);
            reply(&mut stream, &response);
        }
        "status" => match id_of(&request) {
            Ok(id) => {
                let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                let response = match jobs.iter().find(|j| j.id == id) {
                    Some(job) => job_status_json(job).with("ok", Json::Bool(true)),
                    None => error_reply(format!("no such job: {id}")),
                };
                drop(jobs);
                reply(&mut stream, &response);
            }
            Err(response) => reply(&mut stream, &response),
        },
        "list" => {
            let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
            let entries: Vec<Json> = jobs.iter().map(job_status_json).collect();
            drop(jobs);
            reply(
                &mut stream,
                &Json::object()
                    .with("ok", Json::Bool(true))
                    .with("jobs", Json::Array(entries)),
            );
        }
        "result" => match id_of(&request) {
            Ok(id) => {
                let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                let response = match jobs.iter().find(|j| j.id == id) {
                    Some(job) if job.status == JobStatus::Done => result_reply(
                        id,
                        job.outcome.as_deref().unwrap_or("unknown"),
                        job.ok,
                        job.document.as_deref().unwrap_or("null"),
                    ),
                    Some(job) => error_reply(format!(
                        "job {id} is not finished (status: {})",
                        job.status.as_str()
                    ))
                    .to_compact_string(),
                    None => error_reply(format!("no such job: {id}")).to_compact_string(),
                };
                drop(jobs);
                reply_line(&mut stream, &response);
            }
            Err(response) => reply(&mut stream, &response),
        },
        "cancel" => match id_of(&request) {
            Ok(id) => {
                let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                let response = match jobs.iter().find(|j| j.id == id) {
                    Some(job) => {
                        job.cancel.cancel();
                        Json::object()
                            .with("ok", Json::Bool(true))
                            .with("id", Json::from(id as usize))
                    }
                    None => error_reply(format!("no such job: {id}")),
                };
                drop(jobs);
                state.wake.notify_all();
                reply(&mut stream, &response);
            }
            Err(response) => reply(&mut stream, &response),
        },
        "watch" => match id_of(&request) {
            Ok(id) => {
                let follower = {
                    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
                    jobs.iter().find(|j| j.id == id).map(|j| j.bus.follow())
                };
                match follower {
                    Some(mut follower) => {
                        // Stream every line of the job's history and then
                        // whatever still arrives, until the bus closes
                        // (which happens exactly once, after the terminal
                        // `run_finished` line).
                        loop {
                            match follower.next_line_timeout(Duration::from_millis(100)) {
                                Ok(Some(line)) => {
                                    if writeln!(stream, "{line}").is_err() {
                                        return;
                                    }
                                    let _ = stream.flush();
                                }
                                Ok(None) => return,
                                // Timed out: no new line yet. Every stream
                                // terminates (jobs finish, time out, or are
                                // cancelled at shutdown), so keep waiting;
                                // a disconnected client is detected at the
                                // next line write.
                                Err(()) => {}
                            }
                        }
                    }
                    None => reply(&mut stream, &error_reply(format!("no such job: {id}"))),
                }
            }
            Err(response) => reply(&mut stream, &response),
        },
        "shutdown" => {
            let mode = match request.get("mode").and_then(Json::as_str) {
                None | Some("drain") => Some(ShutdownMode::Drain),
                Some("cancel") => Some(ShutdownMode::Cancel),
                Some(other) => {
                    reply(
                        &mut stream,
                        &error_reply(format!(
                            "unknown shutdown mode `{other}` (expected `drain` or `cancel`)"
                        )),
                    );
                    None
                }
            };
            if let Some(mode) = mode {
                reply(
                    &mut stream,
                    &Json::object().with("ok", Json::Bool(true)).with(
                        "mode",
                        Json::str(match mode {
                            ShutdownMode::Drain => "drain",
                            ShutdownMode::Cancel => "cancel",
                        }),
                    ),
                );
                state.request_shutdown(mode);
            }
        }
        other => reply(
            &mut stream,
            &error_reply(format!("unknown command `{other}`")),
        ),
    }
}

fn handle_submit(state: &Arc<ServerState>, request: &Json) -> Json {
    if state.phase() != PHASE_ACCEPTING {
        return error_reply("server is shutting down; submissions are closed");
    }
    let Some(job) = request.get("job") else {
        return error_reply("missing object field `job`");
    };
    let spec = match JobSpec::from_json(job) {
        Ok(spec) => spec,
        Err(message) => return error_reply(format!("invalid job: {message}")),
    };
    let bus = Arc::new(LineBus::new());
    let writer = Arc::new(NdjsonWriter::new(Box::new(LineBusSink(Arc::clone(&bus)))));
    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    // Re-check under the lock: a shutdown raced in between the phase check
    // and the insert would otherwise queue a job nobody retires.
    if state.phase() != PHASE_ACCEPTING {
        return error_reply("server is shutting down; submissions are closed");
    }
    let id = jobs.iter().map(|j| j.id).max().unwrap_or(0) + 1;
    jobs.push(JobRecord {
        id,
        spec,
        status: JobStatus::Queued,
        outcome: None,
        ok: false,
        document: None,
        bus,
        writer,
        cancel: CancelToken::new(),
    });
    drop(jobs);
    state.wake.notify_all();
    Json::object()
        .with("ok", Json::Bool(true))
        .with("id", Json::from(id as usize))
        .with("status", Json::str("queued"))
}

fn job_status_json(job: &JobRecord) -> Json {
    Json::object()
        .with("id", Json::from(job.id as usize))
        .with("status", Json::str(job.status.as_str()))
        .with(
            "outcome",
            match &job.outcome {
                Some(outcome) => Json::str(outcome),
                None => Json::Null,
            },
        )
        .with(
            "result_ok",
            if job.status == JobStatus::Done {
                Json::Bool(job.ok)
            } else {
                Json::Null
            },
        )
}

/// The `migrate serve` entry point. Parses `args`, starts the server,
/// prints `serving on <addr>` and blocks until shutdown. Returns the
/// process exit code.
pub fn serve_cli(args: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let mut threads = 0usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for `{what}`"))
        };
        let result: Result<(), String> = (|| {
            match arg.as_str() {
                "--addr" => config.addr = take("--addr")?,
                "--workers" => {
                    let value = take("--workers")?;
                    config.workers = value.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("`--workers` expects a number >= 1, found `{value}`")
                    })?;
                }
                "--threads" => {
                    let value = take("--threads")?;
                    threads = value.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("`--threads` expects a number >= 1, found `{value}`")
                    })?;
                }
                "--help" | "-h" => return Err(SERVE_USAGE.to_string()),
                other => return Err(format!("unknown argument `{other}`\n\n{SERVE_USAGE}")),
            }
            Ok(())
        })();
        if let Err(message) = result {
            eprintln!("{message}");
            return 2;
        }
    }
    if threads > 0 {
        pipeline::set_thread_limit(threads);
    }
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("cannot start server: {error}");
            return 1;
        }
    };
    // The one line a supervisor scrapes for the (possibly ephemeral) port.
    println!("serving on {}", server.addr());
    let _ = std::io::stdout().flush();
    server.wait();
    println!("server stopped");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A finished job keeps its document as compact text, and the `result`
    /// reply splices that text in verbatim: byte for byte the reply object
    /// rendered with the document's tree in it, nested values and all.
    /// Re-parsing the text would not do: `-0.0` renders as `-0`, which
    /// parses back as the integer 0.
    #[test]
    fn result_reply_is_the_document_trees_own_rendering() {
        let document = Json::object()
            .with("outcome", Json::str("solved"))
            .with(
                "stats",
                Json::object()
                    .with("drift_secs", Json::Float(-0.0))
                    .with("ratio", Json::Float(1.5))
                    .with("phases", Json::object().with("plans", Json::from(3usize))),
            )
            .with(
                "program",
                Json::Array(vec![
                    Json::str("say \"hi\"\n"),
                    Json::Null,
                    Json::Array(vec![Json::Bool(false), Json::Int(-7)]),
                ]),
            );
        let stored = document.to_compact_string();
        let rendered = Json::object()
            .with("ok", Json::Bool(true))
            .with("id", Json::from(7usize))
            .with("outcome", Json::str("solved"))
            .with("result_ok", Json::Bool(true))
            .with("document", document.clone())
            .to_compact_string();
        assert_eq!(result_reply(7, "solved", true, &stored), rendered);
        assert!(stored.contains("\"drift_secs\":-0"), "{stored}");
        let reparsed = Json::parse(&stored).expect("compact text parses");
        assert_ne!(reparsed, document, "a re-parse loses the float -0.0");
        assert_ne!(reparsed.to_compact_string(), stored);
    }
}
