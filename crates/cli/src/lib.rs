//! Implementation of the `migrate` command-line tool.
//!
//! `migrate` is a thin client of the [`pipeline::Refactoring`] facade: it
//! parses arguments, builds a session (inputs, dialect, budget), runs the
//! typed stages — synthesize → emit → validate — and renders the stage
//! outputs, either as the human-readable section format or (`--json`) as
//! one machine-readable JSON document.
//!
//! The binary in `main.rs` is a thin wrapper around [`run`] so integration
//! tests can drive the tool in-process as well as through the executable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use migrator::{SynthesisConfig, SynthesisEvent, SynthesisObserver};
use pipeline::{
    backend_by_name, dialect_by_name, report, NdjsonWriter, PipelineEvent, PipelineObserver,
    RefactorError, Refactoring, SearchLedger, Trace, Validated,
};

/// Exit code for usage errors.
pub const EXIT_USAGE: i32 = 2;
/// Exit code for parse/synthesis failures.
pub const EXIT_FAILURE: i32 = 1;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Path to the source-schema DDL file.
    pub source_ddl: PathBuf,
    /// Path to the target-schema DDL file.
    pub target_ddl: PathBuf,
    /// Path to the source program (dbir concrete syntax).
    pub program: PathBuf,
    /// SQL dialect for emission (`ansi`, `sqlite`, `postgres` or `mysql`).
    pub dialect: String,
    /// Cap on value correspondences to try (0 = the standard budget; the
    /// flag itself rejects 0, see [`parse_args`]).
    pub max_value_correspondences: usize,
    /// Wall-clock budget in seconds (0 = unbounded). Past it the run stops
    /// and reports a `timeout` outcome.
    pub budget_secs: u64,
    /// Emit the whole result as one JSON document instead of the
    /// section-formatted text.
    pub json: bool,
    /// Execute the emitted migration against a backend and verify the
    /// resulting instance against the dbir prediction.
    pub validate: bool,
    /// Backend for `--validate` (`memory` or `sqlite3`).
    pub backend: String,
    /// Write a Chrome trace-event JSON file covering every pipeline stage
    /// and synthesis phase to this path.
    pub trace: Option<PathBuf>,
    /// Stream one progress line per synthesis/pipeline event to stderr as
    /// the run happens.
    pub progress: bool,
    /// Run the `explain` subcommand: synthesize only, then print the
    /// search-forensics report — for failed outcomes too — instead of the
    /// migration artifacts.
    pub explain: bool,
    /// Stream every synthesis/pipeline event to this path as JSON lines
    /// (the `tracecheck ndjson`-checkable wire format).
    pub events: Option<PathBuf>,
    /// Thread budget for parallel CEGIS (0 = the default limit). The
    /// deterministic outputs — stats, events, forensics — are byte-identical
    /// at any value.
    pub threads: usize,
}

/// The usage string printed on `--help` and argument errors.
pub const USAGE: &str = "\
usage: migrate [explain] --source-ddl <file.sql> --target-ddl <file.sql> --program <file.dbp>
               [--dialect ansi|sqlite|postgres|mysql] [--max-vcs <n>]
               [--budget-secs <n>] [--threads <n>] [--json] [--trace <out.json>]
               [--events <out.ndjson>] [--progress]
               [--validate [--backend memory|sqlite3]]
       migrate serve [--addr <host:port>] [--workers <n>] [--threads <n>]
       migrate client <addr> <command> [options]

The `serve` subcommand starts the migration job server; `client` talks to
it (submit/status/list/result/watch/cancel/shutdown). See
`migrate serve --help` and `migrate client --help` for their options.

Reads the source schema and target schema as SQL DDL and the source program
in the dbir concrete syntax, synthesizes an equivalent program over the
target schema, and prints the migrated program, its SQL rendering, a
data-migration script and the synthesis statistics (JSON).

The `explain` subcommand runs synthesis only and prints the search
forensics instead of the migration artifacts: the rejection taxonomy per
value correspondence, which minimum failing inputs killed the candidate
cohorts, at what update-call depth, and which sketch-hole domains were
implicated. The report is printed for every outcome — `no_solution`,
`timeout` and `cancelled` included — and is deterministic: byte-identical
at any --threads value for runs that do not hit a wall-clock deadline.
The exit code still reflects the outcome (0 only when solved).

--max-vcs caps how many value correspondences the search may try; it must
be at least 1 (omit the flag for the standard budget).

--budget-secs bounds the run by wall-clock time; a run that exceeds it is
reported with outcome `timeout` — distinctly from `no_solution`, which
means the search space was genuinely exhausted.

--threads caps the parallel CEGIS thread budget; it must be at least 1
(omit the flag for the machine's default). Deterministic outputs do not
depend on it.

--json replaces the section-formatted text with one machine-readable JSON
document holding the correspondence, program, SQL, migration script,
validation outcome (when --validate ran), statistics and the outcome kind.
On a failed run the document embeds the forensics summary under
`\"forensics\"`.

--trace writes a Chrome trace-event JSON file (loadable in Perfetto or
chrome://tracing) with one span per pipeline stage — ingest, synthesize,
emit, validate — and the synthesis phases (enumeration, sketching,
completion, bounded testing, plan compile, ...) as aggregated spans on a
second track. The file is written even when synthesis fails.

--events streams every synthesis and pipeline event to a file as JSON
lines (one object per line, strictly increasing `seq`, a terminal
`run_finished` line), written whichever way the run ends. Validate with
`tracecheck ndjson <file>`.

--progress streams one line per synthesis and pipeline event to stderr
while the run happens.

With --validate, additionally executes the emitted migration end-to-end on
the selected backend (a seeded source instance, the DDL and the data-move
script) and verifies the resulting target instance against the dbir-level
prediction; a mismatch exits non-zero.";

/// Parses command-line arguments (without the binary name).
///
/// # Errors
///
/// Returns a usage message when arguments are missing, unknown or out of
/// range (`--max-vcs 0` is rejected rather than silently falling back to
/// the default budget).
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut source_ddl = None;
    let mut target_ddl = None;
    let mut program = None;
    let mut dialect = "ansi".to_string();
    let mut max_value_correspondences = 0usize;
    let mut budget_secs = 0u64;
    let mut json = false;
    let mut validate = false;
    let mut backend = "memory".to_string();
    let mut trace = None;
    let mut progress = false;
    let mut events = None;
    let mut threads = 0usize;

    // The one positional subcommand, accepted only in the leading position
    // (everything else is a flag, so there is no ambiguity).
    let explain = args.first().map(String::as_str) == Some("explain");
    let args = if explain { &args[1..] } else { args };

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("missing value for `{what}`"))
        };
        match arg.as_str() {
            "--source-ddl" => source_ddl = Some(PathBuf::from(take("--source-ddl")?)),
            "--target-ddl" => target_ddl = Some(PathBuf::from(take("--target-ddl")?)),
            "--program" => program = Some(PathBuf::from(take("--program")?)),
            "--dialect" => dialect = take("--dialect")?,
            "--max-vcs" => {
                let value = take("--max-vcs")?;
                max_value_correspondences = value
                    .parse()
                    .map_err(|_| format!("`--max-vcs` expects a number, found `{value}`"))?;
                if max_value_correspondences == 0 {
                    return Err(
                        "`--max-vcs` must be at least 1 (omit the flag for the standard budget)"
                            .to_string(),
                    );
                }
            }
            "--budget-secs" => {
                let value = take("--budget-secs")?;
                budget_secs = value
                    .parse()
                    .map_err(|_| format!("`--budget-secs` expects a number, found `{value}`"))?;
            }
            "--threads" => {
                let value = take("--threads")?;
                threads = value
                    .parse()
                    .map_err(|_| format!("`--threads` expects a number, found `{value}`"))?;
                if threads == 0 {
                    return Err(
                        "`--threads` must be at least 1 (omit the flag for the default limit)"
                            .to_string(),
                    );
                }
            }
            "--json" => json = true,
            "--validate" => validate = true,
            "--backend" => backend = take("--backend")?,
            "--trace" => trace = Some(PathBuf::from(take("--trace")?)),
            "--events" => events = Some(PathBuf::from(take("--events")?)),
            "--progress" => progress = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(Options {
        source_ddl: source_ddl.ok_or_else(|| format!("`--source-ddl` is required\n\n{USAGE}"))?,
        target_ddl: target_ddl.ok_or_else(|| format!("`--target-ddl` is required\n\n{USAGE}"))?,
        program: program.ok_or_else(|| format!("`--program` is required\n\n{USAGE}"))?,
        dialect,
        max_value_correspondences,
        budget_secs,
        json,
        validate,
        backend,
        trace,
        progress,
        explain,
        events,
        threads,
    })
}

/// The `--progress` reporter: one stderr line per event, written as the
/// run happens (buffering them into [`RunOutput`] would defeat liveness).
#[derive(Debug)]
struct ProgressReporter;

impl SynthesisObserver for ProgressReporter {
    fn event(&self, event: &SynthesisEvent) {
        eprintln!("[migrate] {event}");
    }
}

impl PipelineObserver for ProgressReporter {
    fn pipeline_event(&self, event: &PipelineEvent) {
        eprintln!("[migrate] {event}");
    }
}

/// Fans one synthesis event stream out to several observers: the session
/// holds a single observer slot, but `--progress` and `--events` may both
/// be requested.
struct SynthesisFanout(Vec<Arc<dyn SynthesisObserver>>);

impl SynthesisObserver for SynthesisFanout {
    fn event(&self, event: &SynthesisEvent) {
        for observer in &self.0 {
            observer.event(event);
        }
    }

    fn speculation(&self, event: &SynthesisEvent) {
        for observer in &self.0 {
            observer.speculation(event);
        }
    }
}

/// The pipeline-event counterpart of [`SynthesisFanout`].
struct PipelineFanout(Vec<Arc<dyn PipelineObserver>>);

impl PipelineObserver for PipelineFanout {
    fn pipeline_event(&self, event: &PipelineEvent) {
        for observer in &self.0 {
            observer.pipeline_event(event);
        }
    }
}

/// Writes the recorded trace as pretty-printed Chrome trace-event JSON.
fn write_trace(path: &PathBuf, trace: &Trace) -> Result<(), (i32, String)> {
    let mut text = trace.to_chrome_json().to_pretty_string();
    text.push('\n');
    std::fs::write(path, text).map_err(|error| {
        (
            EXIT_FAILURE,
            format!("cannot write trace file `{}`: {error}", path.display()),
        )
    })
}

/// Renders the `explain` subcommand's output: the forensics report goes to
/// stdout for *every* outcome (that is the point — failed runs must be
/// explainable), while the exit code still reflects whether a program was
/// found.
fn explain_output(
    options: &Options,
    outcome: migrator::SynthesisOutcome,
    stats: &migrator::SynthesisStats,
    ledger: &SearchLedger,
    summary: String,
) -> RunOutput {
    let code = if outcome == migrator::SynthesisOutcome::Solved {
        0
    } else {
        EXIT_FAILURE
    };
    let stdout = if options.json {
        report::explain_json(outcome, stats, ledger).to_pretty_string()
    } else {
        ledger.render()
    };
    RunOutput {
        code,
        stdout,
        stderr: summary,
    }
}

/// Maps a facade error to the tool's `(exit code, stderr text)` shape.
fn to_exit(error: RefactorError) -> (i32, String) {
    let code = if error.is_usage() {
        EXIT_USAGE
    } else {
        EXIT_FAILURE
    };
    (code, error.to_string())
}

/// What one tool invocation produced: the text for each stream plus the
/// exit code. In `--json` mode the machine-readable document always lands
/// on `stdout` — even for failed runs — so `migrate --json | jq` works on
/// exactly the runs where the diagnostic document matters; `stderr` then
/// carries only a one-line summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// Process exit code (0 = success).
    pub code: i32,
    /// Text for standard output.
    pub stdout: String,
    /// Text for standard error (empty on success).
    pub stderr: String,
}

impl RunOutput {
    fn ok(stdout: String) -> RunOutput {
        RunOutput {
            code: 0,
            stdout,
            stderr: String::new(),
        }
    }

    fn fail(code: i32, stderr: String) -> RunOutput {
        RunOutput {
            code,
            stdout: String::new(),
            stderr,
        }
    }
}

/// Runs the tool.
pub fn run(options: &Options) -> RunOutput {
    if options.threads > 0 {
        pipeline::set_thread_limit(options.threads);
    }
    let output = run_with_observers(options);
    if options.threads > 0 {
        // Restore the default so in-process callers (tests, library
        // embeddings) are not left with this run's budget.
        pipeline::set_thread_limit(0);
    }
    output
}

fn run_with_observers(options: &Options) -> RunOutput {
    match run_inner(options) {
        Ok(output) => output,
        Err((code, stderr)) if options.json => {
            // Keep the one-document contract for every failure class:
            // input, configuration and backend errors become a minimal
            // `{"outcome": "error", ...}` document on stdout.
            let document = pipeline::Json::object()
                .with("outcome", pipeline::Json::str("error"))
                .with("error", pipeline::Json::str(stderr.as_str()));
            RunOutput {
                code,
                stdout: document.to_pretty_string(),
                stderr,
            }
        }
        Err((code, stderr)) => RunOutput::fail(code, stderr),
    }
}

fn run_inner(options: &Options) -> Result<RunOutput, (i32, String)> {
    let dialect = dialect_by_name(&options.dialect).ok_or_else(|| {
        (
            EXIT_USAGE,
            format!(
                "unknown dialect `{}` (expected `ansi`, `sqlite`, `postgres` or `mysql`)",
                options.dialect
            ),
        )
    })?;

    // Assemble the session: inputs, budget, configuration.
    let mut config = SynthesisConfig::standard();
    if options.max_value_correspondences > 0 {
        config.max_value_correspondences = options.max_value_correspondences;
    }
    let mut session = Refactoring::from_ddl_files(&options.source_ddl, &options.target_ddl)
        .map_err(to_exit)?
        .program_file(&options.program)
        .map_err(to_exit)?
        .config(config);
    if options.budget_secs > 0 {
        session = session.deadline(Duration::from_secs(options.budget_secs));
    }
    let trace = options.trace.as_ref().map(|_| Arc::new(Trace::new()));
    if let Some(trace) = &trace {
        session = session.trace(trace.clone());
    }
    // The forensics ledger is always attached: it is O(histogram) cheap,
    // and a failed run must be explainable after the fact — in the --json
    // failure document, the text failure report and `migrate explain`.
    let ledger = Arc::new(SearchLedger::new());
    session = session.forensics(ledger.clone());
    let events_writer = match &options.events {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|error| {
                (
                    EXIT_FAILURE,
                    format!("cannot create events file `{}`: {error}", path.display()),
                )
            })?;
            Some(Arc::new(NdjsonWriter::new(Box::new(
                std::io::BufWriter::new(file),
            ))))
        }
        None => None,
    };
    let mut synthesis_observers: Vec<Arc<dyn SynthesisObserver>> = Vec::new();
    let mut pipeline_observers: Vec<Arc<dyn PipelineObserver>> = Vec::new();
    if options.progress {
        let reporter = Arc::new(ProgressReporter);
        synthesis_observers.push(reporter.clone());
        pipeline_observers.push(reporter);
    }
    if let Some(writer) = &events_writer {
        synthesis_observers.push(writer.clone());
        pipeline_observers.push(writer.clone());
    }
    match synthesis_observers.len() {
        0 => {}
        1 => session = session.observer(synthesis_observers.pop().expect("len checked")),
        _ => session = session.observer(Arc::new(SynthesisFanout(synthesis_observers))),
    }
    match pipeline_observers.len() {
        0 => {}
        1 => session = session.pipeline_observer(pipeline_observers.pop().expect("len checked")),
        _ => session = session.pipeline_observer(Arc::new(PipelineFanout(pipeline_observers))),
    }
    // The trace and events files are written whichever way the run ends: a
    // record that only exists for successful runs cannot explain a failed
    // one.
    let flush_trace = |trace: &Option<Arc<Trace>>| -> Result<(), (i32, String)> {
        match (&options.trace, trace) {
            (Some(path), Some(trace)) => write_trace(path, trace),
            _ => Ok(()),
        }
    };
    let finish_events = |outcome: &str| -> Result<(), (i32, String)> {
        match (&events_writer, &options.events) {
            (Some(writer), Some(path)) if !writer.finish(outcome) => Err((
                EXIT_FAILURE,
                format!("cannot write events file `{}`", path.display()),
            )),
            _ => Ok(()),
        }
    };

    // Stage 1: synthesize.
    let synthesized = match session.synthesize() {
        Ok(synthesized) => synthesized,
        Err(error @ RefactorError::Unsolved { .. }) => {
            flush_trace(&trace)?;
            let summary = error.to_string();
            let RefactorError::Unsolved { outcome, stats } = error else {
                unreachable!("matched Unsolved above");
            };
            finish_events(outcome.as_str())?;
            if options.explain {
                return Ok(explain_output(options, outcome, &stats, &ledger, summary));
            }
            return Ok(if options.json {
                RunOutput {
                    code: EXIT_FAILURE,
                    stdout: report::failure_json(outcome, &stats, Some(&ledger)).to_pretty_string(),
                    stderr: summary,
                }
            } else {
                let mut err = format!("{summary}\n");
                let _ = writeln!(
                    err,
                    "{}",
                    report::stats_json(&stats, outcome).to_pretty_string()
                );
                let _ = write!(err, "{}", ledger.render());
                RunOutput::fail(EXIT_FAILURE, err)
            });
        }
        Err(error) => {
            let _ = finish_events("error");
            return Err(to_exit(error));
        }
    };

    if options.explain {
        flush_trace(&trace)?;
        finish_events(synthesized.outcome.as_str())?;
        return Ok(explain_output(
            options,
            synthesized.outcome,
            &synthesized.stats,
            &ledger,
            String::new(),
        ));
    }

    // Stage 2: emit.
    let emitted = synthesized.emit(dialect);

    // Stage 3 (optional): validate.
    let validation: Option<Validated> = if options.validate {
        let mut backend = backend_by_name(&options.backend).map_err(to_exit)?;
        Some(
            emitted
                .validate(backend.as_mut(), sqlexec::DEFAULT_ROWS_PER_TABLE)
                .map_err(to_exit)?,
        )
    } else {
        None
    };
    flush_trace(&trace)?;
    finish_events(synthesized.outcome.as_str())?;

    // Render.
    if options.json {
        let document = report::result_json(
            &synthesized,
            &emitted,
            validation.as_ref().map(|v| &v.outcome),
        );
        let text = document.to_pretty_string();
        // The document (which carries "validated": false and the diffs)
        // stays on stdout even on a mismatch; only the summary goes to
        // stderr.
        return Ok(
            if let Some(failed) = validation.as_ref().filter(|v| !v.ok()) {
                RunOutput {
                    code: EXIT_FAILURE,
                    stdout: text,
                    stderr: format!(
                        "validation FAILED on backend `{}` (see the JSON document on stdout)",
                        failed.outcome.backend
                    ),
                }
            } else {
                RunOutput::ok(text)
            },
        );
    }

    let mut out = String::new();
    let _ = writeln!(out, "-- value correspondence --");
    let _ = writeln!(out, "{}", synthesized.correspondence);
    let _ = writeln!(out, "-- migrated program --");
    let _ = writeln!(out, "{}", synthesized.program_text());
    let _ = writeln!(out, "-- SQL ({}) --", emitted.dialect.name());
    let _ = writeln!(out, "{}", emitted.program_sql);
    let _ = writeln!(out, "-- data migration --");
    let _ = writeln!(out, "{}", emitted.migration_sql);
    if let Some(validated) = &validation {
        let _ = writeln!(
            out,
            "-- validation ({} backend) --",
            validated.outcome.backend
        );
        let _ = writeln!(
            out,
            "{}",
            report::validation_json(&validated.outcome).to_pretty_string()
        );
        let _ = writeln!(out);
        if !validated.ok() {
            let mut err = format!(
                "validation FAILED on backend `{}`:\n",
                validated.outcome.backend
            );
            for diff in &validated.outcome.diffs {
                let _ = writeln!(err, "  {diff}");
            }
            let _ = write!(err, "{out}");
            return Err((EXIT_FAILURE, err));
        }
    }
    let _ = writeln!(out, "-- stats --");
    let _ = write!(
        out,
        "{}",
        report::stats_json(&synthesized.stats, synthesized.outcome).to_pretty_string()
    );
    Ok(RunOutput::ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_args_requires_the_three_inputs() {
        let err = parse_args(&args(&["--source-ddl", "a.sql"])).unwrap_err();
        assert!(err.contains("--target-ddl"), "{err}");
        let ok = parse_args(&args(&[
            "--source-ddl",
            "a.sql",
            "--target-ddl",
            "b.sql",
            "--program",
            "p.dbp",
            "--dialect",
            "sqlite",
            "--max-vcs",
            "7",
            "--budget-secs",
            "30",
            "--json",
        ]))
        .unwrap();
        assert_eq!(ok.dialect, "sqlite");
        assert_eq!(ok.max_value_correspondences, 7);
        assert_eq!(ok.budget_secs, 30);
        assert!(ok.json);
    }

    #[test]
    fn parse_args_rejects_unknown_flags() {
        let err = parse_args(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }

    #[test]
    fn max_vcs_zero_is_a_usage_error() {
        let err = parse_args(&args(&[
            "--source-ddl",
            "a.sql",
            "--target-ddl",
            "b.sql",
            "--program",
            "p.dbp",
            "--max-vcs",
            "0",
        ]))
        .unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    fn options(dialect: &str) -> Options {
        Options {
            source_ddl: "a.sql".into(),
            target_ddl: "b.sql".into(),
            program: "p.dbp".into(),
            dialect: dialect.into(),
            max_value_correspondences: 0,
            budget_secs: 0,
            json: false,
            validate: false,
            backend: "memory".into(),
            trace: None,
            progress: false,
            explain: false,
            events: None,
            threads: 0,
        }
    }

    #[test]
    fn unknown_dialect_is_a_usage_error() {
        let output = run(&options("oracle"));
        assert_eq!(output.code, EXIT_USAGE);
        assert!(output.stdout.is_empty());
        assert!(output.stderr.contains("oracle"));
        assert!(output.stderr.contains("mysql"), "{}", output.stderr);
    }

    #[test]
    fn missing_file_is_reported() {
        let mut options = options("ansi");
        options.source_ddl = "/nonexistent/a.sql".into();
        options.target_ddl = "/nonexistent/b.sql".into();
        options.program = "/nonexistent/p.dbp".into();
        let output = run(&options);
        assert_eq!(output.code, EXIT_FAILURE);
        assert!(output.stderr.contains("cannot read"));
    }

    #[test]
    fn stats_json_has_the_expected_keys() {
        let json = report::stats_json(
            &migrator::SynthesisStats::default(),
            migrator::SynthesisOutcome::Solved,
        )
        .to_compact_string();
        for key in [
            "outcome",
            "succeeded",
            "value_correspondences",
            "iterations",
            "largest_search_space",
            "synthesis_time_secs",
            "total_time_secs",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
