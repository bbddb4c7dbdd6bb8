//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <apps|textbook-par> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --workload <apps|textbook-par> --setup-probe
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics of one
//! workload on the path users run: `SynthesisConfig::standard()` with the
//! final depth-3 verification, emitted in the sqlite dialect and validated
//! on the memory backend. Traced runs (`--trace 1`) report the per-layer
//! metrics (see `replay.rs`). The seed only permutes the order of the
//! instances within each repetition; the inputs are the pinned files under
//! `inputs/`. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Progress, per-instance
//! tables and the layer breakdown go to standard error. `--setup-probe`
//! sets the workload up once, prints `ready` and exits; untraced runs time
//! such probes for `setup_s`. See `README.md`.

mod inputs;
mod replay;
mod run;
mod sys;
mod tracer;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use pipeline::Json;
use served::{Server, ServerConfig, ShutdownMode};

use crate::inputs::{Instance, APPS, TEXTBOOK};
use crate::replay::traced_run;
use crate::run::Runner;
use crate::sys::Rng;

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str =
    "usage: perfbench --workload <apps|textbook-par> --seed <n> --seconds <n> --trace <0|1>
       perfbench --workload <apps|textbook-par> --setup-probe";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Five application-scale refactorings as jobs on an in-process
    /// `served::Server` (1 worker, thread budget 1).
    Apps,
    /// The ten textbook refactorings through `run_job`, at a thread budget
    /// of the machine's available cores.
    TextbookPar,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "apps" => Some(Workload::Apps),
            "textbook-par" => Some(Workload::TextbookPar),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Apps => "apps",
            Workload::TextbookPar => "textbook-par",
        }
    }

    fn instances(self) -> &'static [&'static str] {
        match self {
            Workload::Apps => APPS,
            Workload::TextbookPar => TEXTBOOK,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::Apps => 1,
            Workload::TextbookPar => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// What the command line asks for.
enum Mode {
    /// A measured run.
    Run {
        seed: u64,
        seconds: u64,
        trace: bool,
    },
    /// One set-up in this fresh process, timed by the run that spawned it
    /// (see [`probe_setup`]).
    SetupProbe,
}

fn parse_args() -> Result<(Workload, Mode), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for `{flag}`"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a whole number, found `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` expects 0 or 1, found `{value}`")),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    if setup_probe {
        return Ok((workload, Mode::SetupProbe));
    }
    Ok((
        workload,
        Mode::Run {
            seed: seed.ok_or("`--seed` is required")?,
            seconds: seconds.ok_or("`--seconds` is required")?,
            trace: trace.ok_or("`--trace` is required")?,
        },
    ))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run reports: the result line's `correct` (no problems),
/// `attempted`, `failed` (the problems) and metrics.
pub struct Outcome {
    pub attempted: usize,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> Result<String, String> {
        let mut metrics = Json::object();
        for metric in &self.metrics {
            if !metric.value.is_finite() {
                return Err(format!("metric {} is {}", metric.name, metric.value));
            }
            metrics.set(
                metric.name,
                Json::object()
                    .with("value", Json::from(metric.value))
                    .with("unit", Json::str(metric.unit)),
            );
        }
        Ok(Json::object()
            .with("correct", Json::from(self.problems.is_empty()))
            .with("attempted", Json::from(self.attempted))
            .with("failed", Json::from(self.problems.len()))
            .with("metrics", metrics)
            .to_compact_string())
    }
}

/// A workload ready to run: its instances and, for `apps`, the server.
struct Setup {
    instances: Vec<Instance>,
    server: Option<Server>,
}

impl Setup {
    fn runner(&self) -> Runner {
        match &self.server {
            Some(server) => Runner::Served(server.addr().to_string()),
            None => Runner::InProcess,
        }
    }
}

fn stop(server: Server) {
    server.shutdown(ShutdownMode::Drain);
    server.wait();
}

/// Sets the workload up: reads and parse-checks the pinned inputs and, for
/// `apps`, starts the in-process server. After it the first instance can
/// run.
fn set_up(workload: Workload) -> Result<Setup, String> {
    let instances = inputs::load_checked(workload.instances())?;
    let server = match workload {
        Workload::Apps => Some(
            Server::start(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
            })
            .map_err(|e| format!("cannot start the server: {e}"))?,
        ),
        Workload::TextbookPar => None,
    };
    Ok(Setup { instances, server })
}

/// Times one set-up from process start: spawns this binary with
/// `--setup-probe` and waits for its `ready` line, which it prints once
/// [`set_up`] returns. The probe then tears down and exits; it is waited
/// for, but that part is not timed.
fn probe_setup(workload: Workload) -> Result<f64, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let began = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload.name(), "--setup-probe"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().expect("stdout is piped")).read_line(&mut line);
    let elapsed = began.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
    match read {
        Ok(_) if line == "ready\n" && status.success() => Ok(elapsed),
        _ => Err(format!("set-up probe failed ({status})")),
    }
}

fn untraced(workload: Workload, seconds: u64, rng: &mut Rng) -> Result<Outcome, String> {
    let setup = set_up(workload)?;
    let mut setup_times = Vec::new();
    let measured = run::measure(
        &setup.instances,
        &setup.runner(),
        rng,
        Duration::from_secs(seconds),
        || {
            setup_times.push(probe_setup(workload)?);
            Ok(())
        },
    );
    if let Some(server) = setup.server {
        stop(server);
    }
    let measured = measured?;
    let walls = measured.wall_medians();
    let cpus = measured.cpu_medians();
    eprintln!(
        "{:<16} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "instance", "runs", "median_s", "min_s", "max_s", "cpu_s"
    );
    for (i, instance) in setup.instances.iter().enumerate() {
        let times: Vec<f64> = measured.samples[i].iter().map(|s| s.wall).collect();
        eprintln!(
            "{:<16} {:>5} {:>11.4} {:>11.4} {:>11.4} {:>11.4}",
            instance.name,
            times.len(),
            walls[i],
            times.iter().copied().fold(f64::INFINITY, f64::min),
            times.iter().copied().fold(0.0, f64::max),
            cpus[i]
        );
    }
    let probes: Vec<String> = setup_times
        .iter()
        .map(|t| format!("{:.2}", t * 1e3))
        .collect();
    eprintln!("set-up probes (ms, in run order): {}", probes.join(" "));
    let ok = measured.attempted - measured.problems.len();
    eprintln!(
        "samples: setup_s {} set-up probes; pass_s, verdict_geomean_s and cpu_s {} instance runs; ok_ratio {ok}/{}",
        setup_times.len(),
        measured.attempted,
        measured.attempted
    );
    Ok(Outcome {
        attempted: measured.attempted,
        metrics: vec![
            Metric::new("setup_s", sys::median(&setup_times), "s"),
            Metric::new("pass_s", walls.iter().sum(), "s"),
            Metric::new("verdict_geomean_s", sys::geomean(&walls), "s"),
            Metric::new("cpu_s", cpus.iter().sum(), "s"),
            Metric::new("peak_rss_mb", sys::peak_rss_mb()?, "MB"),
            Metric::new("ok_ratio", ok as f64 / measured.attempted as f64, "ratio"),
        ],
        problems: measured.problems,
    })
}

fn traced(workload: Workload, rng: &mut Rng) -> Result<Outcome, String> {
    let setup = set_up(workload)?;
    let runner = setup.runner();
    let parallel = workload == Workload::TextbookPar;
    let mut required = vec![
        "job",
        "instance",
        "sqlbridge.parse_ddl",
        "dbir.parse_program",
        "synthesize",
        "core.vc_enum",
        "core.sketch_gen",
        "core.complete",
        "core.verify",
        "dbir.teardown",
        "sqlbridge.emit",
        "sqlexec.validate",
    ];
    if parallel {
        required.extend([
            "pipeline.from_ddl",
            "pipeline.program_text",
            "pipeline.synthesize",
            "pipeline.emit",
            "pipeline.validate",
        ]);
    }
    if setup.server.is_some() {
        required.extend(["served.submit", "served.stream", "served.result"]);
    }
    let path: PathBuf = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("perfbench-out")
        .join(format!("trace-{}.json", workload.name()));
    let server = setup.server;
    let outcome = traced_run(
        &setup.instances,
        &runner,
        parallel,
        || {
            if let Some(server) = server {
                stop(server);
            }
        },
        rng,
        &path,
        &required,
    )?;
    eprintln!("trace written to {}", path.display());
    Ok(outcome)
}

/// The `--setup-probe` mode: one set-up, then `ready` on standard output.
fn setup_probe(workload: Workload) -> Result<(), String> {
    let setup = set_up(workload)?;
    println!("ready");
    if let Some(server) = setup.server {
        stop(server);
    }
    Ok(())
}

/// A measured run; prints the result line.
fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let outcome = if trace {
        traced(workload, &mut rng)?
    } else {
        untraced(workload, seconds, &mut rng)?
    };
    for problem in &outcome.problems {
        eprintln!("not ok: {problem}");
    }
    println!("{}", outcome.to_json()?);
    Ok(())
}

fn main() -> ExitCode {
    let (workload, mode) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pipeline::set_thread_limit(workload.threads());
    let result = match mode {
        Mode::SetupProbe => setup_probe(workload),
        Mode::Run {
            seed,
            seconds,
            trace,
        } => run(workload, seed, seconds, trace),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
