//! End-to-end tests of the job server: protocol, concurrency determinism,
//! budgets, cancellation and shutdown.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use migrator::{CancelToken, SynthesisEvent, SynthesisObserver};
use pipeline::{run_job, JobSpec, Json, LineBus, LineBusSink, NdjsonWriter};
use served::{request, submit, wait_done, watch_into, Server, ServerConfig, ShutdownMode};

/// Serializes tests that set the global parpool thread limit.
fn limit_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const RENAME_SOURCE: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, nick TEXT);";
const RENAME_TARGET: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, handle TEXT);";
const RENAME_PROGRAM: &str = r#"
    update addUser(uid: int, nick: string)
        INSERT INTO Users VALUES (uid: uid, nick: nick);
    query getUser(uid: int)
        SELECT nick FROM Users WHERE uid = uid;
"#;

const MOVE_SOURCE: &str = "CREATE TABLE Album (album_id INTEGER PRIMARY KEY, title TEXT);";
const MOVE_TARGET: &str = "CREATE TABLE Record (album_id INTEGER PRIMARY KEY, title TEXT);";
const MOVE_PROGRAM: &str = r#"
    update addAlbum(id: int, title: string)
        INSERT INTO Album VALUES (album_id: id, title: title);
    query getAlbum(id: int)
        SELECT title FROM Album WHERE album_id = id;
"#;

fn rename_spec() -> JobSpec {
    JobSpec::new(RENAME_SOURCE, RENAME_TARGET, RENAME_PROGRAM)
}

fn move_spec() -> JobSpec {
    JobSpec::new(MOVE_SOURCE, MOVE_TARGET, MOVE_PROGRAM)
}

/// A spec built from one of the paper's benchmarks. `MathHotSpot` is
/// known-red under the standard config (a few seconds of genuinely
/// exhausted search) and long-running under `widened` — ideal raw
/// material for timeout and cancellation tests.
fn benchmark_spec(name: &str, config: &str) -> JobSpec {
    let benchmark = benchmarks::benchmark_by_name(name).expect("benchmark exists");
    let dialect = sqlbridge::Sqlite;
    let mut spec = JobSpec::new(
        sqlbridge::schema_to_ddl(&benchmark.source_schema, &dialect),
        sqlbridge::schema_to_ddl(&benchmark.target_schema, &dialect),
        dbir::pretty::program_to_string(&benchmark.source_program),
    );
    spec.config = config.to_string();
    spec.validate = false;
    spec
}

/// The serial reference: the exact NDJSON stream a server job must
/// reproduce — main observer channel only, terminal `run_finished`.
struct MainChannelOnly(Arc<NdjsonWriter>);

impl SynthesisObserver for MainChannelOnly {
    fn event(&self, event: &SynthesisEvent) {
        self.0.event(event);
    }

    fn speculation(&self, _event: &SynthesisEvent) {}
}

fn serial_stream(spec: &JobSpec) -> Vec<String> {
    let bus = Arc::new(LineBus::new());
    let writer = Arc::new(NdjsonWriter::new(Box::new(LineBusSink(Arc::clone(&bus)))));
    let report = run_job(
        spec,
        CancelToken::new(),
        Some(Arc::new(MainChannelOnly(Arc::clone(&writer)))),
        Some(writer.clone() as Arc<dyn pipeline::PipelineObserver>),
    );
    writer.finish(&report.outcome);
    bus.close();
    bus.lines()
}

fn watch_lines(addr: &str, id: u64) -> Vec<String> {
    let mut buffer = Vec::new();
    watch_into(addr, id, &mut buffer).expect("watch streams");
    String::from_utf8(buffer)
        .expect("utf-8 stream")
        .lines()
        .map(str::to_string)
        .collect()
}

/// Opens a watch connection for each job and sends its `watch` line from
/// the calling thread; only the reading happens on the returned threads.
/// The server accepts connections in the order they were opened, so every
/// watch is accepted before any request sent after this returns — a
/// shutdown included — and follows its job to the terminal line.
fn watch_in_background(addr: &str, ids: &[u64]) -> Vec<JoinHandle<Vec<String>>> {
    ids.iter()
        .map(|&id| {
            let mut connection = TcpStream::connect(addr).expect("connect");
            let watch = Json::object()
                .with("cmd", Json::str("watch"))
                .with("id", Json::from(id as usize));
            writeln!(connection, "{}", watch.to_compact_string()).expect("send watch");
            std::thread::spawn(move || {
                BufReader::new(connection)
                    .lines()
                    .map(|line| line.expect("stream line"))
                    .collect()
            })
        })
        .collect()
}

fn status_of(addr: &str, id: u64) -> String {
    let reply = request(
        addr,
        &Json::object()
            .with("cmd", Json::str("status"))
            .with("id", Json::from(id as usize)),
    )
    .expect("status");
    reply
        .get("status")
        .and_then(Json::as_str)
        .expect("status field")
        .to_string()
}

fn wait_for_running(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while status_of(addr, id) != "running" {
        assert!(Instant::now() < deadline, "job {id} never started running");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn assert_valid_stream(lines: &[String], expected_outcome: &str) {
    assert!(!lines.is_empty(), "stream is empty");
    for (expected_seq, line) in lines.iter().enumerate() {
        let event = Json::parse(line).unwrap_or_else(|e| panic!("bad line `{line}`: {e}"));
        assert_eq!(
            event.get("seq").and_then(Json::as_i128),
            Some(expected_seq as i128),
            "seq gap at `{line}`"
        );
        assert!(event.get("type").and_then(Json::as_str).is_some());
    }
    let last = Json::parse(lines.last().expect("nonempty")).expect("terminal line parses");
    assert_eq!(
        last.get("type").and_then(Json::as_str),
        Some("run_finished")
    );
    assert_eq!(
        last.get("outcome").and_then(Json::as_str),
        Some(expected_outcome)
    );
}

#[test]
fn concurrent_jobs_stream_byte_identical_to_serial_runs() {
    let _guard = limit_lock();
    parpool::set_thread_limit(4);

    let specs = [rename_spec(), move_spec()];
    let reference: Vec<Vec<String>> = specs.iter().map(serial_stream).collect();

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // Submit both jobs before either finishes queueing semantics, then
    // watch them from two concurrent subscriber threads.
    let ids: Vec<u64> = specs
        .iter()
        .map(|spec| submit(&addr, spec).expect("submit"))
        .collect();
    let watchers: Vec<_> = ids
        .iter()
        .map(|id| {
            let addr = addr.clone();
            let id = *id;
            std::thread::spawn(move || watch_lines(&addr, id))
        })
        .collect();
    let streams: Vec<Vec<String>> = watchers
        .into_iter()
        .map(|w| w.join().expect("watcher joins"))
        .collect();

    for ((spec, reference), watched) in specs.iter().zip(&reference).zip(&streams) {
        assert_valid_stream(watched, "solved");
        assert_eq!(
            reference, watched,
            "watched stream diverged from the serial run for {spec:?}"
        );
    }

    // A watcher joining after completion replays the identical stream.
    let replay = watch_lines(&addr, ids[0]);
    assert_eq!(replay, streams[0]);

    server.shutdown(ShutdownMode::Drain);
    server.wait();
    parpool::set_thread_limit(0);
}

/// Submits `spec`, follows the job's stream to its terminal `run_finished`
/// line and asks for the result the moment that line arrives. The watch and
/// result connections are opened before the submission, so the server has
/// accepted both by the time the job exists and neither request waits for
/// the accept loop.
fn result_at_stream_end(addr: &str, spec: &JobSpec) -> Json {
    let mut result_connection = TcpStream::connect(addr).expect("connect");
    let mut watch = TcpStream::connect(addr).expect("connect");
    let id = submit(addr, spec).expect("submit");
    let request_line = |cmd: &str| {
        Json::object()
            .with("cmd", Json::str(cmd))
            .with("id", Json::from(id as usize))
            .to_compact_string()
    };
    writeln!(watch, "{}", request_line("watch")).expect("send watch");
    let finished = BufReader::new(watch)
        .lines()
        .map(|line| line.expect("stream line"))
        .any(|line| line.contains("\"run_finished\""));
    assert!(finished, "job {id}'s stream ended without run_finished");
    writeln!(result_connection, "{}", request_line("result")).expect("send result");
    let mut reply = String::new();
    BufReader::new(result_connection)
        .read_line(&mut reply)
        .expect("result reply");
    Json::parse(&reply).expect("result reply parses")
}

#[test]
fn result_is_ready_as_soon_as_the_watched_stream_ends() {
    // At a thread limit of 1 a job needs no thread-budget token, so it
    // starts at once and the pre-opened connections are used well within
    // the server's request-read timeout.
    let _guard = limit_lock();
    parpool::set_thread_limit(1);
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();
    let mut spec = rename_spec();
    spec.validate = false;

    for round in 0..100 {
        let result = result_at_stream_end(&addr, &spec);
        assert_eq!(
            result.get("ok").and_then(Json::as_bool),
            Some(true),
            "round {round}: {}",
            result.to_compact_string()
        );
        assert_eq!(result.get("outcome").and_then(Json::as_str), Some("solved"));
    }

    server.shutdown(ShutdownMode::Drain);
    server.wait();
    parpool::set_thread_limit(0);
}

#[test]
fn budget_overrun_reports_timeout_with_forensics() {
    let mut spec = benchmark_spec("MathHotSpot", "standard");
    spec.budget_secs = Some(0.05);

    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();
    let id = submit(&addr, &spec).expect("submit");
    let result = wait_done(&addr, id).expect("job finishes");

    assert_eq!(
        result.get("outcome").and_then(Json::as_str),
        Some("timeout"),
        "a budget overrun must be a timeout, not no_solution: {}",
        result.to_compact_string()
    );
    assert_eq!(result.get("result_ok").and_then(Json::as_bool), Some(false));
    let document = result.get("document").expect("document");
    assert_eq!(
        document.get("outcome").and_then(Json::as_str),
        Some("timeout")
    );
    assert_ne!(
        document.get("forensics"),
        Some(&Json::Null),
        "failed jobs return forensics"
    );

    let lines = watch_lines(&addr, id);
    assert_valid_stream(&lines, "timeout");

    server.shutdown(ShutdownMode::Drain);
    server.wait();
}

#[test]
fn cancel_stops_a_running_job_as_cancelled() {
    // At a thread limit of 1 a job needs no thread-budget token, so it
    // starts at once even while another test's job holds the budget.
    let _guard = limit_lock();
    parpool::set_thread_limit(1);
    let spec = benchmark_spec("MathHotSpot", "widened");

    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();
    let id = submit(&addr, &spec).expect("submit");
    wait_for_running(&addr, id);

    request(
        &addr,
        &Json::object()
            .with("cmd", Json::str("cancel"))
            .with("id", Json::from(id as usize)),
    )
    .expect("cancel accepted");
    let result = wait_done(&addr, id).expect("job retires");
    assert_eq!(
        result.get("outcome").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        result.to_compact_string()
    );
    let lines = watch_lines(&addr, id);
    assert_valid_stream(&lines, "cancelled");

    server.shutdown(ShutdownMode::Drain);
    server.wait();
    parpool::set_thread_limit(0);
}

#[test]
fn cancelling_shutdown_retires_running_and_queued_jobs() {
    // At a thread limit of 1 a job needs no thread-budget token, so the
    // long job starts at once even while another test's job holds the
    // budget.
    let _guard = limit_lock();
    parpool::set_thread_limit(1);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // One long job hogs the single worker; the second stays queued.
    let running = submit(&addr, &benchmark_spec("MathHotSpot", "widened")).expect("submit");
    let queued = submit(&addr, &rename_spec()).expect("submit");
    wait_for_running(&addr, running);
    assert_eq!(status_of(&addr, queued), "queued");

    // Subscribe before requesting shutdown: once the last job retires the
    // server stops and the listener goes away.
    let watchers = watch_in_background(&addr, &[running, queued]);

    let reply = request(
        &addr,
        &Json::object()
            .with("cmd", Json::str("shutdown"))
            .with("mode", Json::str("cancel")),
    )
    .expect("shutdown accepted");
    assert_eq!(reply.get("mode").and_then(Json::as_str), Some("cancel"));

    // Streams still terminate deterministically: the running job stops at
    // its next cancellation point, the queued one never starts.
    let mut streams = watchers
        .into_iter()
        .map(|w| w.join().expect("watcher joins"));
    let running_lines = streams.next().expect("running stream");
    assert_valid_stream(&running_lines, "cancelled");
    let queued_lines = streams.next().expect("queued stream");
    assert_valid_stream(&queued_lines, "cancelled");
    assert_eq!(queued_lines.len(), 1, "a never-started job is just sealed");

    server.wait();
    parpool::set_thread_limit(0);
}

#[test]
fn draining_shutdown_finishes_queued_work_and_rejects_new_jobs() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
    })
    .expect("server starts");
    let addr = server.addr().to_string();

    // The known-red benchmark keeps the single worker busy for a few
    // seconds, so the server is still up for the post-shutdown checks
    // while the rename job waits behind it in the queue.
    let first = submit(&addr, &benchmark_spec("MathHotSpot", "standard")).expect("submit");
    let second = submit(&addr, &move_spec()).expect("submit");
    let watchers = watch_in_background(&addr, &[first, second]);

    let reply = request(&addr, &Json::object().with("cmd", Json::str("shutdown")))
        .expect("shutdown accepted");
    assert_eq!(reply.get("mode").and_then(Json::as_str), Some("drain"));

    let rejected = submit(&addr, &rename_spec());
    assert!(
        rejected
            .expect_err("submissions after shutdown must be rejected")
            .contains("shutting down"),
        "rejection should explain the shutdown"
    );

    // Drain mode still finishes both queued jobs before stopping.
    let mut streams = watchers
        .into_iter()
        .map(|w| w.join().expect("watcher joins"));
    assert_valid_stream(&streams.next().expect("first stream"), "no_solution");
    assert_valid_stream(&streams.next().expect("second stream"), "solved");

    server.wait();
}

/// Input nested deep enough to overflow a recursive parser — a request
/// line of 100,000 `[` and a job whose program nests 3,000 parentheses —
/// gets an error reply instead of aborting the server, which then still
/// completes a normal job.
#[test]
fn deeply_nested_input_gets_errors_and_the_server_lives_on() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();

    let mut connection = TcpStream::connect(&addr).expect("connect");
    writeln!(connection, "{}", "[".repeat(100_000)).expect("send deep line");
    let mut reply = String::new();
    BufReader::new(connection)
        .read_line(&mut reply)
        .expect("reply to deep line");
    let reply = Json::parse(&reply).expect("reply parses");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let error = reply.get("error").and_then(Json::as_str).expect("error");
    assert!(error.starts_with("bad request:"), "{error}");

    let depth = 3_000;
    let mut deep = rename_spec();
    deep.program = format!(
        "query getUser(uid: int) SELECT nick FROM Users WHERE {}uid = uid{};",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let id = submit(&addr, &deep).expect("submit deep job");
    let result = wait_done(&addr, id).expect("deep job finishes");
    assert_eq!(
        result.get("outcome").and_then(Json::as_str),
        Some("error"),
        "{}",
        result.to_compact_string()
    );

    let mut spec = rename_spec();
    spec.validate = false;
    let id = submit(&addr, &spec).expect("submit normal job");
    let result = wait_done(&addr, id).expect("normal job finishes");
    assert_eq!(result.get("outcome").and_then(Json::as_str), Some("solved"));

    server.shutdown(ShutdownMode::Drain);
    server.wait();
}

#[test]
fn protocol_rejects_malformed_requests() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let addr = server.addr().to_string();

    let bad_cmd = request(&addr, &Json::object().with("cmd", Json::str("frobnicate")));
    assert!(bad_cmd.unwrap_err().contains("unknown command"));

    let no_cmd = request(&addr, &Json::object().with("id", Json::from(1usize)));
    assert!(no_cmd.unwrap_err().contains("cmd"));

    let bad_job = request(
        &addr,
        &Json::object()
            .with("cmd", Json::str("submit"))
            .with("job", Json::object()),
    );
    assert!(bad_job.unwrap_err().contains("source_ddl"));

    let missing = request(
        &addr,
        &Json::object()
            .with("cmd", Json::str("status"))
            .with("id", Json::from(99usize)),
    );
    assert!(missing.unwrap_err().contains("no such job"));

    let unfinished_result = {
        let id = submit(&addr, &benchmark_spec("MathHotSpot", "widened")).expect("submit");
        let reply = request(
            &addr,
            &Json::object()
                .with("cmd", Json::str("result"))
                .with("id", Json::from(id as usize)),
        );
        request(
            &addr,
            &Json::object()
                .with("cmd", Json::str("cancel"))
                .with("id", Json::from(id as usize)),
        )
        .expect("cancel");
        reply
    };
    assert!(unfinished_result.unwrap_err().contains("not finished"));

    server.shutdown(ShutdownMode::Cancel);
    server.wait();
}
