//! # pipeline — the first-class `Refactoring` facade
//!
//! The paper's Figure-1 pipeline (value correspondence → sketch →
//! completion → bounded verification) plus the SQL boundary around it used
//! to be wired by hand in every client: parse the DDL, run the synthesizer,
//! emit SQL, plan the migration, validate it. This crate owns that wiring
//! once, as a builder-style session with **typed stage outputs**:
//!
//! ```text
//! Refactoring ──synthesize()──► Synthesized ──emit()──► Emitted ──validate()──► Validated
//!  (inputs,                      (program,               (SQL, DDL,              (executed
//!   config,                       correspondence,         migration              outcome vs
//!   observer,                     stats, outcome)         script)                prediction)
//!   deadline)
//! ```
//!
//! Each stage's output carries everything the next stage needs, so clients
//! can stop wherever they like: the `migrate` CLI runs all three stages,
//! the experiments harness runs `synthesize` + `validate`, a library user
//! embedding the engine may only ever call `synthesize`.
//!
//! Two capabilities thread through the whole pipeline:
//!
//! * **Progress events** — [`Refactoring::observer`] installs a
//!   [`SynthesisObserver`] that receives typed [`SynthesisEvent`]s in
//!   deterministic enumeration order, even under parallel CEGIS (see
//!   [`migrator::observe`] for the contract).
//! * **Cancellation and deadlines** — [`Refactoring::deadline`] bounds the
//!   run by wall-clock time; [`Refactoring::cancel_token`] installs a
//!   [`CancelToken`] that can be fired from another thread. An interrupted
//!   run fails with [`RefactorError::Unsolved`] whose outcome is
//!   [`SynthesisOutcome::Timeout`] or [`SynthesisOutcome::Cancelled`] —
//!   never conflated with [`SynthesisOutcome::NoSolution`].
//!
//! Failures at every layer surface as one structured, `source()`-chained
//! [`RefactorError`] (span-carrying for SQL and program parse errors).
//!
//! ## Example
//!
//! ```
//! use pipeline::Refactoring;
//!
//! let result = Refactoring::from_ddl(
//!     "CREATE TABLE Users (uid INTEGER PRIMARY KEY, nick TEXT);",
//!     "CREATE TABLE Users (uid INTEGER PRIMARY KEY, handle TEXT);",
//! )
//! .unwrap()
//! .program_text(
//!     r#"
//!     update addUser(uid: int, nick: string)
//!         INSERT INTO Users VALUES (uid: uid, nick: nick);
//!     query getUser(uid: int)
//!         SELECT nick FROM Users WHERE uid = uid;
//!     "#,
//! )
//! .unwrap();
//!
//! let synthesized = result.synthesize().expect("the rename synthesizes");
//! let emitted = synthesized.emit(Box::new(sqlbridge::Sqlite));
//! assert!(emitted.program_sql.contains("SELECT Users.handle FROM Users"));
//!
//! let validated = emitted
//!     .validate(&mut sqlexec::MemoryBackend::new(), 3)
//!     .expect("the memory backend runs the script");
//! assert!(validated.outcome.ok);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use dbir::parser::parse_program;
use dbir::pretty::program_to_string;
use dbir::{Program, Schema};
use migrator::{
    SynthesisConfig, SynthesisObserver, SynthesisOutcome, SynthesisStats, Synthesizer,
    ValueCorrespondence,
};
use sqlbridge::migration::{migration_script, render_migration_script, MigrationScript};
use sqlbridge::{parse_ddl, render_sql_program, schema_to_ddl, Dialect, SqlFunction};
use sqlexec::{Backend, ValidationOutcome};

pub mod error;
pub mod job;
pub mod report;
pub mod wire;

pub use error::{InputKind, RefactorError};
pub use job::{run_job, JobReport, JobSpec};
pub use migrator::{CancelReason, CancelToken, SynthesisEvent};
// Re-exported so facade clients need no direct dependency on the layer
// crates for the common path.
pub use obs::{PipelineEvent, PipelineObserver, SearchLedger, Trace};
// The thread budget governs the parallel CEGIS fan-out; clients that let
// users pick a budget (the CLI's `--threads`) need the setter without a
// direct parpool dependency.
pub use parpool::set_thread_limit;
pub use sqlbridge::{dialect_by_name, Json};
pub use wire::{LineBus, LineBusSink, LineFollower, NdjsonError, NdjsonWriter};

/// The observability hooks threaded through the stage outputs: an optional
/// span [`Trace`], an optional [`PipelineObserver`] for stage events and an
/// optional forensics [`SearchLedger`].
///
/// The context carries *instruments*, not data: two stage outputs that
/// differ only in their attached instruments describe the same refactoring,
/// so `ObsContext` compares equal to every other `ObsContext` and stays
/// transparent to the stage outputs' `PartialEq`.
#[derive(Clone, Default)]
pub struct ObsContext {
    trace: Option<Arc<Trace>>,
    observer: Option<Arc<dyn PipelineObserver>>,
    forensics: Option<Arc<SearchLedger>>,
}

impl std::fmt::Debug for ObsContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsContext")
            .field("trace", &self.trace.is_some())
            .field("observer", &self.observer.is_some())
            .field("forensics", &self.forensics.is_some())
            .finish()
    }
}

impl PartialEq for ObsContext {
    fn eq(&self, _other: &ObsContext) -> bool {
        true // instruments, not data — see the type documentation
    }
}

impl ObsContext {
    fn event(&self, event: PipelineEvent) {
        if let Some(observer) = &self.observer {
            observer.pipeline_event(&event);
        }
    }
}

/// Feeds a [`SearchLedger`] from the synthesis event main stream while
/// forwarding both channels to an optional inner observer.
///
/// Lives in the pipeline layer on purpose: the core synthesizer emits
/// events without knowing about `obs`, and `obs` aggregates without
/// knowing about synthesis — this adapter is the one place that sees both
/// vocabularies. Determinism is inherited from the main stream's
/// enumeration-order delivery contract.
struct ForensicsRecorder {
    ledger: Arc<SearchLedger>,
    inner: Option<Arc<dyn SynthesisObserver>>,
}

impl SynthesisObserver for ForensicsRecorder {
    fn event(&self, event: &SynthesisEvent) {
        match event {
            SynthesisEvent::CorrespondenceEnumerated { .. } => {
                self.ledger.correspondence_enumerated();
            }
            SynthesisEvent::SketchGenerated {
                holes, completions, ..
            } => self.ledger.sketch_generated(*holes, *completions),
            SynthesisEvent::SketchGenerationFailed { .. } => {
                self.ledger.sketch_generation_failed();
            }
            SynthesisEvent::CandidateChecked { accepted, .. } => {
                self.ledger.candidate_checked(*accepted);
            }
            SynthesisEvent::MfiFound {
                updates,
                query,
                pruned,
                domains,
                ..
            } => self.ledger.mfi(*updates, query, *pruned, domains),
            SynthesisEvent::BoundExhausted {
                space_exhausted, ..
            } => self.ledger.bound_exhausted(*space_exhausted),
            SynthesisEvent::Solved { index, iterations } => {
                self.ledger.solved(*index, *iterations);
            }
            SynthesisEvent::FrontierDrained {
                produced,
                infeasible,
            } => self.ledger.frontier_drained(*produced, *infeasible),
            SynthesisEvent::FrontierBudgetReached { explored } => {
                self.ledger.frontier_budget_reached(*explored);
            }
            SynthesisEvent::RunInterrupted { reason } => self.ledger.interrupted(match reason {
                CancelReason::Cancelled => "cancelled",
                CancelReason::DeadlineExceeded => "deadline exceeded",
            }),
            // Adoption probes are per-candidate detail the histograms
            // already cover; the speculative dispatch notices below only
            // ever arrive on the side channel.
            SynthesisEvent::CandidateSpeculated { .. }
            | SynthesisEvent::CorrespondenceSpeculated { .. }
            | SynthesisEvent::CorrespondenceCancelled { .. } => {}
        }
        if let Some(inner) = &self.inner {
            inner.event(event);
        }
    }

    fn speculation(&self, event: &SynthesisEvent) {
        // Scheduling-dependent notices never touch the ledger — they would
        // break its byte-identical-at-any-thread-count contract.
        if let Some(inner) = &self.inner {
            inner.speculation(event);
        }
    }
}

/// Builds the backend registered under `name` (`memory`, or `sqlite3` when
/// a `sqlite3` binary is installed).
///
/// # Errors
///
/// [`RefactorError::InvalidConfig`] for unknown names,
/// [`RefactorError::Backend`] when the sqlite3 backend cannot start.
pub fn backend_by_name(name: &str) -> Result<Box<dyn Backend>, RefactorError> {
    match name.to_ascii_lowercase().as_str() {
        "memory" => Ok(Box::new(sqlexec::MemoryBackend::new())),
        "sqlite3" | "sqlite" => sqlexec::Sqlite3Backend::create()
            .map(|backend| Box::new(backend) as Box<dyn Backend>)
            .map_err(|source| RefactorError::Backend { source }),
        other => Err(RefactorError::InvalidConfig {
            message: format!("unknown backend `{other}` (expected `memory` or `sqlite3`)"),
        }),
    }
}

/// A refactoring session: the two schemas, the source program, and the
/// cross-cutting run controls, assembled builder-style.
///
/// See the crate documentation for the stage flow.
#[derive(Clone)]
pub struct Refactoring {
    source_schema: Schema,
    target_schema: Schema,
    program: Option<Program>,
    config: SynthesisConfig,
    observer: Option<Arc<dyn SynthesisObserver>>,
    cancel: CancelToken,
    budget: Option<Duration>,
    obs: ObsContext,
}

impl std::fmt::Debug for Refactoring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Refactoring")
            .field("source_schema", &self.source_schema)
            .field("target_schema", &self.target_schema)
            .field("program", &self.program.is_some())
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel)
            .field("budget", &self.budget)
            .field("obs", &self.obs)
            .finish()
    }
}

impl Refactoring {
    /// A session over already-parsed schemas.
    pub fn new(source_schema: Schema, target_schema: Schema) -> Refactoring {
        Refactoring {
            source_schema,
            target_schema,
            program: None,
            config: SynthesisConfig::standard(),
            observer: None,
            cancel: CancelToken::new(),
            budget: None,
            obs: ObsContext::default(),
        }
    }

    /// A session over SQL DDL text.
    ///
    /// # Errors
    ///
    /// [`RefactorError::Ddl`] with the offending span when either schema
    /// fails to parse.
    pub fn from_ddl(source_sql: &str, target_sql: &str) -> Result<Refactoring, RefactorError> {
        let parse = |sql: &str, input: InputKind| {
            parse_ddl(sql).map_err(|source| RefactorError::Ddl {
                input,
                origin: "<inline>".to_string(),
                source,
            })
        };
        Ok(Refactoring::new(
            parse(source_sql, InputKind::SourceSchema)?,
            parse(target_sql, InputKind::TargetSchema)?,
        ))
    }

    /// A session over SQL DDL files.
    ///
    /// # Errors
    ///
    /// [`RefactorError::Read`] when a file cannot be read,
    /// [`RefactorError::Ddl`] (pointing at the file) when it fails to
    /// parse.
    pub fn from_ddl_files(
        source_path: &Path,
        target_path: &Path,
    ) -> Result<Refactoring, RefactorError> {
        let load = |path: &Path, input: InputKind| -> Result<Schema, RefactorError> {
            let sql = std::fs::read_to_string(path).map_err(|source| RefactorError::Read {
                path: path.to_path_buf(),
                source,
            })?;
            parse_ddl(&sql).map_err(|source| RefactorError::Ddl {
                input,
                origin: path.display().to_string(),
                source,
            })
        };
        Ok(Refactoring::new(
            load(source_path, InputKind::SourceSchema)?,
            load(target_path, InputKind::TargetSchema)?,
        ))
    }

    /// The session's source schema.
    pub fn source_schema(&self) -> &Schema {
        &self.source_schema
    }

    /// The session's target schema.
    pub fn target_schema(&self) -> &Schema {
        &self.target_schema
    }

    /// Sets the (already parsed) source program.
    pub fn program(mut self, program: Program) -> Refactoring {
        self.program = Some(program);
        self
    }

    /// Parses and sets the source program from `dbir` concrete syntax,
    /// resolved against the source schema.
    ///
    /// # Errors
    ///
    /// [`RefactorError::Program`] when the text fails to parse or validate.
    pub fn program_text(self, text: &str) -> Result<Refactoring, RefactorError> {
        let program =
            parse_program(text, &self.source_schema).map_err(|source| RefactorError::Program {
                origin: "<inline>".to_string(),
                source,
            })?;
        Ok(self.program(program))
    }

    /// Reads, parses and sets the source program from a file.
    ///
    /// # Errors
    ///
    /// [`RefactorError::Read`] or [`RefactorError::Program`], pointing at
    /// the file.
    pub fn program_file(self, path: &Path) -> Result<Refactoring, RefactorError> {
        let text = std::fs::read_to_string(path).map_err(|source| RefactorError::Read {
            path: path.to_path_buf(),
            source,
        })?;
        let program =
            parse_program(&text, &self.source_schema).map_err(|source| RefactorError::Program {
                origin: path.display().to_string(),
                source,
            })?;
        Ok(self.program(program))
    }

    /// Sets the synthesis configuration (defaults to
    /// [`SynthesisConfig::standard`]).
    pub fn config(mut self, config: SynthesisConfig) -> Refactoring {
        self.config = config;
        self
    }

    /// Installs a progress observer (see [`migrator::observe`] for the
    /// deterministic delivery contract).
    pub fn observer(mut self, observer: Arc<dyn SynthesisObserver>) -> Refactoring {
        self.observer = Some(observer);
        self
    }

    /// Installs a cancellation token. Clone the token before passing it in
    /// to keep a handle for cancelling the run from another thread.
    pub fn cancel_token(mut self, token: CancelToken) -> Refactoring {
        self.cancel = token;
        self
    }

    /// Bounds each run by wall-clock time: past `budget`, synthesis stops
    /// at its next cancellation point and [`Refactoring::synthesize`] fails
    /// with outcome [`SynthesisOutcome::Timeout`].
    ///
    /// The clock starts when [`Refactoring::synthesize`] is called — not
    /// when the builder is configured — and every run gets a fresh budget,
    /// so a session (or a clone of one) can be retried after a timeout.
    /// A budget composes with [`Refactoring::cancel_token`]: each run
    /// polls a per-run deadline token *linked* to the installed one, so
    /// explicit cancellation still fires under a budget. To share one
    /// *absolute* deadline across runs, install
    /// [`CancelToken::with_deadline`] explicitly instead.
    pub fn deadline(mut self, budget: Duration) -> Refactoring {
        self.budget = Some(budget);
        self
    }

    /// Installs a span [`Trace`]: every stage this session runs from here
    /// on (`synthesize`, `emit`, `validate`) opens a span, and the
    /// synthesis stage attaches its per-phase aggregates as synthetic
    /// phase spans.  Render with [`Trace::render_tree`] or export with
    /// [`Trace::to_chrome_json`].
    pub fn trace(mut self, trace: Arc<Trace>) -> Refactoring {
        self.obs.trace = Some(trace);
        self
    }

    /// Installs a [`PipelineObserver`] that receives one [`PipelineEvent`]
    /// per pipeline milestone: DDL parsed, SQL emitted, validation script
    /// staged and executed, instances compared.
    pub fn pipeline_observer(mut self, observer: Arc<dyn PipelineObserver>) -> Refactoring {
        self.obs.observer = Some(observer);
        self
    }

    /// Installs a forensics [`SearchLedger`]: every synthesis run this
    /// session performs feeds the ledger from the deterministic event main
    /// stream (rejection taxonomy, MFI-kill / death-depth / hole-domain
    /// histograms) and stamps the run's outcome on it. The caller keeps
    /// the `Arc` and reads [`SearchLedger::render`] /
    /// [`SearchLedger::to_json`] after the run — in particular after a
    /// *failed* run, which is exactly when the ledger explains what the
    /// returned [`RefactorError::Unsolved`] statistics cannot.
    ///
    /// Composes with [`Refactoring::observer`]: the installed observer
    /// still receives every event.
    pub fn forensics(mut self, ledger: Arc<SearchLedger>) -> Refactoring {
        self.obs.forensics = Some(ledger);
        self
    }

    /// Runs the synthesis stage: value-correspondence enumeration, sketch
    /// generation, MFI-guided completion and final bounded verification.
    ///
    /// # Errors
    ///
    /// [`RefactorError::InvalidConfig`] when no program was set;
    /// [`RefactorError::Unsolved`] (carrying the outcome kind and partial
    /// statistics) when the run ends without a program.
    pub fn synthesize(&self) -> Result<Synthesized, RefactorError> {
        let Some(program) = &self.program else {
            return Err(RefactorError::InvalidConfig {
                message: "no source program was set (use program / program_text / program_file)"
                    .to_string(),
            });
        };
        // DDL parsing happened in the constructors, before instruments could
        // be installed; the ingest span marks the stage at the head of the
        // run and carries the parsed table counts as arguments.
        if let Some(trace) = &self.obs.trace {
            let ingest = trace.begin("ingest");
            trace.set_arg(
                ingest,
                "source_tables",
                Json::from(self.source_schema.tables().len()),
            );
            trace.set_arg(
                ingest,
                "target_tables",
                Json::from(self.target_schema.tables().len()),
            );
            trace.end(ingest);
        }
        self.obs.event(PipelineEvent::DdlParsed {
            input: "source".to_string(),
            tables: self.source_schema.tables().len(),
        });
        self.obs.event(PipelineEvent::DdlParsed {
            input: "target".to_string(),
            tables: self.target_schema.tables().len(),
        });
        let mut synthesizer =
            Synthesizer::new(self.config.clone()).with_cancel(self.cancel.clone());
        if let Some(budget) = self.budget {
            synthesizer = synthesizer.with_deadline(budget);
        }
        // The forensics recorder taps the deterministic main stream for the
        // ledger and forwards everything to the user's observer, so the two
        // hooks compose.
        match (&self.obs.forensics, &self.observer) {
            (Some(ledger), observer) => {
                synthesizer = synthesizer.with_observer(Arc::new(ForensicsRecorder {
                    ledger: ledger.clone(),
                    inner: observer.clone(),
                }));
            }
            (None, Some(observer)) => {
                synthesizer = synthesizer.with_observer(observer.clone());
            }
            (None, None) => {}
        }
        let span = self.obs.trace.as_ref().map(|t| t.begin("synthesize"));
        let result = synthesizer.synthesize(program, &self.source_schema, &self.target_schema);
        if let Some(ledger) = &self.obs.forensics {
            ledger.set_outcome(result.outcome.as_str());
        }
        if let (Some(trace), Some(span)) = (&self.obs.trace, span) {
            trace.set_arg(span, "outcome", Json::str(format!("{:?}", result.outcome)));
            trace.set_arg(span, "iterations", Json::from(result.stats.iterations));
            trace.set_arg(
                span,
                "value_correspondences",
                Json::from(result.stats.value_correspondences),
            );
            trace.end(span);
            let phases = &result.stats.phases;
            let checks = &phases.checks;
            for (name, duration) in [
                ("vc enumeration", phases.vc_enumeration_time),
                ("sketch generation", phases.sketch_generation_time),
                ("completion", phases.completion_time),
                (
                    "bounded testing",
                    checks.dfs_time + checks.plan_compile_time,
                ),
                ("plan compile", checks.plan_compile_time),
                ("snapshot clone", checks.snapshot_time),
                ("final verification", result.stats.verification_time),
            ] {
                trace.add_phase(span, name, duration);
            }
        }
        match (result.program, result.correspondence) {
            (Some(migrated), Some(correspondence)) => Ok(Synthesized {
                source_schema: self.source_schema.clone(),
                target_schema: self.target_schema.clone(),
                program: migrated,
                correspondence,
                stats: result.stats,
                outcome: result.outcome,
                obs: self.obs.clone(),
            }),
            _ => Err(RefactorError::Unsolved {
                outcome: result.outcome,
                stats: Box::new(result.stats),
            }),
        }
    }
}

/// Output of the synthesis stage: the migrated program, the value
/// correspondence it was derived from, and the run's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Synthesized {
    /// The source schema the session started from.
    pub source_schema: Schema,
    /// The target schema the program was migrated to.
    pub target_schema: Schema,
    /// The synthesized program over the target schema.
    pub program: Program,
    /// The winning value correspondence (drives the data migration).
    pub correspondence: ValueCorrespondence,
    /// Statistics of the run.
    pub stats: SynthesisStats,
    /// Always [`SynthesisOutcome::Solved`] (unsolved runs fail the stage);
    /// carried so reports need only one source of truth.
    pub outcome: SynthesisOutcome,
    /// The observability instruments inherited from the session
    /// (equality-transparent; see [`ObsContext`]).
    obs: ObsContext,
}

impl Synthesized {
    /// The migrated program in `dbir` concrete syntax.
    pub fn program_text(&self) -> String {
        program_to_string(&self.program)
    }

    /// Runs the emission stage: renders the program as parameterized SQL
    /// and plans + renders the executable data-migration script, all in
    /// `dialect`.
    pub fn emit(&self, dialect: Box<dyn Dialect>) -> Emitted {
        let span = self.obs.trace.as_ref().map(|t| t.begin("emit"));
        let functions = sqlbridge::program_to_sql(&self.program, dialect.as_ref());
        let program_sql = render_sql_program(&self.program, dialect.as_ref());
        let target_ddl = schema_to_ddl(&self.target_schema, dialect.as_ref());
        let script = migration_script(
            &self.source_schema,
            &self.target_schema,
            &self.correspondence,
            dialect.as_ref(),
        );
        let migration_sql = render_migration_script(&script, dialect.as_ref());
        if let (Some(trace), Some(span)) = (&self.obs.trace, span) {
            trace.set_arg(span, "dialect", Json::str(dialect.name()));
            trace.set_arg(span, "functions", Json::from(functions.len()));
            trace.set_arg(span, "statements", Json::from(script.statements.len()));
            trace.end(span);
        }
        self.obs.event(PipelineEvent::Emitted {
            dialect: dialect.name().to_string(),
            functions: functions.len(),
            statements: script.statements.len(),
        });
        if self.obs.observer.is_some() {
            // One progress event per planned data move, in script order, so
            // a `watch` stream shows the shape of the migration before
            // anything executes. The plan is deterministic, so these lines
            // are part of the byte-identical main stream.
            let plan = sqlbridge::migration::migration_plan(
                &self.source_schema,
                &self.target_schema,
                &self.correspondence,
            );
            let total = plan.inserts.len();
            for (index, insert) in plan.inserts.iter().enumerate() {
                self.obs.event(PipelineEvent::DataMovePlanned {
                    target: insert.target.to_string(),
                    tables: insert.tables.iter().map(|t| t.to_string()).collect(),
                    statement: index + 1,
                    statements: total,
                });
            }
        }
        Emitted {
            source_schema: self.source_schema.clone(),
            target_schema: self.target_schema.clone(),
            correspondence: self.correspondence.clone(),
            dialect,
            functions,
            program_sql,
            target_ddl,
            script,
            migration_sql,
            obs: self.obs.clone(),
        }
    }
}

/// Output of the emission stage: every SQL artifact of the refactoring,
/// rendered in one dialect.
pub struct Emitted {
    /// The source schema (kept for the validation stage).
    pub source_schema: Schema,
    /// The target schema.
    pub target_schema: Schema,
    /// The winning value correspondence.
    pub correspondence: ValueCorrespondence,
    /// The dialect everything below is rendered in.
    pub dialect: Box<dyn Dialect>,
    /// Per-function parameterized SQL (placeholder order, fresh-id
    /// parameters).
    pub functions: Vec<SqlFunction>,
    /// The whole program as one annotated SQL script.
    pub program_sql: String,
    /// The target schema as `CREATE TABLE` DDL.
    pub target_ddl: String,
    /// The executable data-migration plan (staging renames, data moves,
    /// cleanup).
    pub script: MigrationScript,
    /// The migration script rendered as one executable SQL text.
    pub migration_sql: String,
    /// The observability instruments inherited from the session.
    obs: ObsContext,
}

impl std::fmt::Debug for Emitted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Emitted")
            .field("dialect", &self.dialect.name())
            .field("functions", &self.functions.len())
            .field("program_sql", &self.program_sql)
            .field("migration_sql", &self.migration_sql)
            .finish()
    }
}

impl Emitted {
    /// Runs the validation stage: seeds a deterministic source instance,
    /// executes the emitted DDL + seed inserts + migration script on
    /// `backend`, and compares the resulting target instance with the
    /// dbir-level prediction (surrogate keys up to a bijection).
    ///
    /// The script is validated in this emission's dialect — except on a
    /// real `sqlite3` backend, which can only execute the SQLite rendering
    /// (the in-memory engine accepts every provided dialect).
    ///
    /// A semantic mismatch is **not** an error: it comes back as a
    /// [`Validated`] whose outcome has `ok == false` (use
    /// [`Validated::into_result`] to turn it into one).
    ///
    /// # Errors
    ///
    /// [`RefactorError::Backend`] when the backend cannot run the script at
    /// all.
    pub fn validate(
        &self,
        backend: &mut dyn Backend,
        rows_per_table: usize,
    ) -> Result<Validated, RefactorError> {
        let sqlite = sqlbridge::Sqlite;
        let dialect: &dyn Dialect = if backend.name() == "sqlite3" {
            &sqlite
        } else {
            self.dialect.as_ref()
        };
        let span = self.obs.trace.as_ref().map(|t| t.begin("validate"));
        let result = sqlexec::validate_migration_observed(
            &self.source_schema,
            &self.target_schema,
            &self.correspondence,
            backend,
            rows_per_table,
            dialect,
            self.obs.observer.as_deref(),
        );
        if let (Some(trace), Some(span)) = (&self.obs.trace, span) {
            trace.set_arg(span, "backend", Json::str(backend.name()));
            if let Ok(outcome) = &result {
                trace.set_arg(span, "ok", Json::from(outcome.ok));
            }
            trace.end(span);
        }
        let outcome = result.map_err(|source| RefactorError::Backend { source })?;
        Ok(Validated { outcome })
    }
}

/// Output of the validation stage.
#[derive(Debug, Clone)]
pub struct Validated {
    /// The executed-vs-predicted comparison, with per-table diffs on
    /// mismatch.
    pub outcome: ValidationOutcome,
}

impl Validated {
    /// `true` when the executed migration matched the prediction.
    pub fn ok(&self) -> bool {
        self.outcome.ok
    }

    /// Converts a mismatch into [`RefactorError::ValidationFailed`].
    ///
    /// # Errors
    ///
    /// [`RefactorError::ValidationFailed`] when the outcome is not `ok`.
    pub fn into_result(self) -> Result<Validated, RefactorError> {
        if self.outcome.ok {
            Ok(self)
        } else {
            Err(RefactorError::ValidationFailed {
                outcome: Box::new(self.outcome),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_program_is_a_config_error() {
        let source = Schema::parse("T(a: int)").unwrap();
        let target = Schema::parse("T(a: int)").unwrap();
        let err = Refactoring::new(source, target).synthesize().unwrap_err();
        assert!(err.is_usage(), "{err}");
        assert!(err.to_string().contains("program"), "{err}");
    }

    #[test]
    fn ddl_errors_carry_spans_and_input_kind() {
        let err = Refactoring::from_ddl(
            "CREATE TABLE T (a INTEGER);",
            "CREATE TABLE T (\n  a GEOGRAPHY\n);",
        )
        .unwrap_err();
        let rendered = err.to_string();
        assert!(rendered.contains("target schema"), "{rendered}");
        assert!(rendered.contains("--> 2:5"), "{rendered}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn unknown_backend_is_a_usage_error() {
        let err = backend_by_name("oracle").unwrap_err();
        assert!(err.is_usage());
        assert!(err.to_string().contains("oracle"));
    }
}
