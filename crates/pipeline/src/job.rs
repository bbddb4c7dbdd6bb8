//! Serve-ready jobs: the typed unit of work a job server queues, runs and
//! reports.
//!
//! A [`JobSpec`] is everything one refactoring needs, carried by value —
//! DDL texts, the source program, dialect/config/backend names and the
//! wall-clock budget — so it can cross a wire as one JSON object and be
//! replayed deterministically on any worker. [`run_job`] drives the spec
//! through the [`Refactoring`] facade and always comes
//! back with a [`JobReport`]: an outcome kind plus exactly one JSON
//! document (success, failure-with-forensics, or input error), never a
//! panic across the worker boundary.
//!
//! A forensics [`SearchLedger`] is always attached: a failed job's report
//! explains *why* the search came up empty, which is precisely the case
//! where a remote caller cannot re-run locally to find out.

use std::sync::Arc;
use std::time::Duration;

use migrator::{CancelToken, SynthesisConfig, SynthesisObserver};
use obs::{PipelineObserver, SearchLedger};
use sqlbridge::{dialect_by_name, Json};

use crate::{backend_by_name, report, RefactorError, Refactoring};

/// A complete, self-contained description of one refactoring job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Source-schema DDL text.
    pub source_ddl: String,
    /// Target-schema DDL text.
    pub target_ddl: String,
    /// Source program in `dbir` concrete syntax.
    pub program: String,
    /// Emission dialect name (default `sqlite`).
    pub dialect: String,
    /// Synthesis configuration name: `standard`, `widened` or
    /// `enumerative` (default `standard`).
    pub config: String,
    /// Override for the value-correspondence cap of the chosen config.
    pub max_value_correspondences: Option<usize>,
    /// Wall-clock budget in seconds; `None` runs unbounded (the server may
    /// still cancel explicitly).
    pub budget_secs: Option<f64>,
    /// Whether to execute + validate the emitted migration (default true).
    pub validate: bool,
    /// Validation backend name: `memory` or `sqlite3` (default `memory`).
    pub backend: String,
    /// Seed rows per source table for validation (default 3).
    pub rows: usize,
}

impl JobSpec {
    /// A spec over the three required inputs, with every knob at its
    /// default.
    pub fn new(
        source_ddl: impl Into<String>,
        target_ddl: impl Into<String>,
        program: impl Into<String>,
    ) -> JobSpec {
        JobSpec {
            source_ddl: source_ddl.into(),
            target_ddl: target_ddl.into(),
            program: program.into(),
            dialect: "sqlite".to_string(),
            config: "standard".to_string(),
            max_value_correspondences: None,
            budget_secs: None,
            validate: true,
            backend: "memory".to_string(),
            rows: 3,
        }
    }

    /// Parses a spec from its JSON encoding, validating every enumerated
    /// field eagerly so a bad submission is rejected before it is queued.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending field.
    pub fn from_json(json: &Json) -> Result<JobSpec, String> {
        let required = |key: &str| -> Result<String, String> {
            match json.get(key).and_then(Json::as_str) {
                Some(text) if !text.trim().is_empty() => Ok(text.to_string()),
                Some(_) => Err(format!("field `{key}` is empty")),
                None => Err(format!("missing required string field `{key}`")),
            }
        };
        let mut spec = JobSpec::new(
            required("source_ddl")?,
            required("target_ddl")?,
            required("program")?,
        );
        if let Some(value) = json.get("dialect") {
            let name = value
                .as_str()
                .ok_or_else(|| "field `dialect` must be a string".to_string())?;
            if dialect_by_name(name).is_none() {
                return Err(format!("unknown dialect `{name}`"));
            }
            spec.dialect = name.to_string();
        }
        if let Some(value) = json.get("config") {
            let name = value
                .as_str()
                .ok_or_else(|| "field `config` must be a string".to_string())?;
            if !matches!(name, "standard" | "widened" | "enumerative") {
                return Err(format!(
                    "unknown config `{name}` (expected `standard`, `widened` or `enumerative`)"
                ));
            }
            spec.config = name.to_string();
        }
        if let Some(value) = json.get("max_value_correspondences") {
            let cap = value
                .as_i128()
                .filter(|v| *v > 0)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| {
                    "field `max_value_correspondences` must be a positive integer".to_string()
                })?;
            spec.max_value_correspondences = Some(cap);
        }
        if let Some(value) = json.get("budget_secs") {
            let budget = value
                .as_f64()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or_else(|| "field `budget_secs` must be a positive number".to_string())?;
            spec.budget_secs = Some(budget);
        }
        if let Some(value) = json.get("validate") {
            spec.validate = value
                .as_bool()
                .ok_or_else(|| "field `validate` must be a boolean".to_string())?;
        }
        if let Some(value) = json.get("backend") {
            let name = value
                .as_str()
                .ok_or_else(|| "field `backend` must be a string".to_string())?;
            if !matches!(name, "memory" | "sqlite3") {
                return Err(format!(
                    "unknown backend `{name}` (expected `memory` or `sqlite3`)"
                ));
            }
            spec.backend = name.to_string();
        }
        if let Some(value) = json.get("rows") {
            let rows = value
                .as_i128()
                .filter(|v| (1..=10_000).contains(v))
                .ok_or_else(|| "field `rows` must be an integer in 1..=10000".to_string())?;
            spec.rows = rows as usize;
        }
        Ok(spec)
    }

    /// The JSON encoding [`JobSpec::from_json`] parses.
    pub fn to_json(&self) -> Json {
        let mut json = Json::object()
            .with("source_ddl", Json::str(&self.source_ddl))
            .with("target_ddl", Json::str(&self.target_ddl))
            .with("program", Json::str(&self.program))
            .with("dialect", Json::str(&self.dialect))
            .with("config", Json::str(&self.config))
            .with("validate", Json::Bool(self.validate))
            .with("backend", Json::str(&self.backend))
            .with("rows", Json::from(self.rows));
        if let Some(cap) = self.max_value_correspondences {
            json = json.with("max_value_correspondences", Json::from(cap));
        }
        if let Some(budget) = self.budget_secs {
            json = json.with("budget_secs", Json::Float(budget));
        }
        json
    }

    /// The synthesis configuration the spec names, with the
    /// value-correspondence cap applied.
    fn synthesis_config(&self) -> SynthesisConfig {
        let mut config = match self.config.as_str() {
            "widened" => SynthesisConfig::widened(),
            "enumerative" => SynthesisConfig::enumerative_baseline(),
            _ => SynthesisConfig::standard(),
        };
        if let Some(cap) = self.max_value_correspondences {
            config.max_value_correspondences = cap;
        }
        config
    }
}

/// What one finished job reports back: an outcome kind and exactly one
/// JSON document.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// `solved`, `no_solution`, `timeout`, `cancelled` — or `error` when
    /// the inputs never made it into a synthesis run (bad DDL, bad
    /// program, backend unavailable).
    pub outcome: String,
    /// `true` only for a solved job whose validation (if requested)
    /// matched.
    pub ok: bool,
    /// The result document: [`report::result_json`] on success,
    /// [`report::failure_json`] (forensics attached) for unsolved runs, or
    /// an `{"outcome": "error", "error": ...}` object for input errors.
    pub document: Json,
}

fn error_report(error: &RefactorError) -> JobReport {
    JobReport {
        outcome: "error".to_string(),
        ok: false,
        document: Json::object()
            .with("outcome", Json::str("error"))
            .with("error", Json::str(error.to_string()))
            .with("usage", Json::Bool(error.is_usage())),
    }
}

/// Runs one job to completion on the calling thread.
///
/// The installed `cancel` token is linked with the spec's own
/// `budget_secs`, so a job stops at whichever fires first — the server's
/// explicit `cancel` / shutdown, or the submitted per-job budget (which
/// then reports [`migrator::SynthesisOutcome::Timeout`], never
/// `no_solution`). Both observers receive the run's deterministic main
/// stream; a forensics [`SearchLedger`] is always attached so failed jobs
/// explain themselves.
///
/// Never panics across this boundary and never returns early without a
/// report: every input error becomes an `outcome == "error"` report.
pub fn run_job(
    spec: &JobSpec,
    cancel: CancelToken,
    observer: Option<Arc<dyn SynthesisObserver>>,
    pipeline_observer: Option<Arc<dyn PipelineObserver>>,
) -> JobReport {
    let ledger = Arc::new(SearchLedger::new());
    let session = match Refactoring::from_ddl(&spec.source_ddl, &spec.target_ddl) {
        Ok(session) => session,
        Err(error) => return error_report(&error),
    };
    let session = match session.program_text(&spec.program) {
        Ok(session) => session,
        Err(error) => return error_report(&error),
    };
    let mut session = session
        .config(spec.synthesis_config())
        .cancel_token(cancel)
        .forensics(ledger.clone());
    if let Some(budget) = spec.budget_secs {
        // A budget past `Duration`'s range runs without a deadline, as
        // `Duration::MAX` does: the run's token reads a deadline that
        // overflows `Instant` as none.
        let budget = Duration::try_from_secs_f64(budget).unwrap_or(Duration::MAX);
        session = session.deadline(budget);
    }
    if let Some(observer) = observer {
        session = session.observer(observer);
    }
    if let Some(observer) = pipeline_observer {
        session = session.pipeline_observer(observer);
    }

    let synthesized = match session.synthesize() {
        Ok(synthesized) => synthesized,
        Err(RefactorError::Unsolved { outcome, stats }) => {
            return JobReport {
                outcome: outcome.as_str().to_string(),
                ok: false,
                document: report::failure_json(outcome, &stats, Some(&ledger)),
            };
        }
        Err(error) => return error_report(&error),
    };
    // `dialect` was validated at parse time, but a spec can also be built
    // directly; fall back to an input error instead of unwrapping.
    let Some(dialect) = dialect_by_name(&spec.dialect) else {
        return error_report(&RefactorError::InvalidConfig {
            message: format!("unknown dialect `{}`", spec.dialect),
        });
    };
    let emitted = synthesized.emit(dialect);
    let validation = if spec.validate {
        let mut backend = match backend_by_name(&spec.backend) {
            Ok(backend) => backend,
            Err(error) => return error_report(&error),
        };
        match emitted.validate(backend.as_mut(), spec.rows) {
            Ok(validated) => Some(validated.outcome),
            Err(error) => return error_report(&error),
        }
    } else {
        None
    };
    let ok = validation.as_ref().map(|v| v.ok).unwrap_or(true);
    JobReport {
        outcome: synthesized.outcome.as_str().to_string(),
        ok,
        document: report::result_json(&synthesized, &emitted, validation.as_ref()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SOURCE: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, nick TEXT);";
    const TARGET: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, handle TEXT);";
    const PROGRAM: &str = r#"
        update addUser(uid: int, nick: string)
            INSERT INTO Users VALUES (uid: uid, nick: nick);
        query getUser(uid: int)
            SELECT nick FROM Users WHERE uid = uid;
    "#;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = JobSpec::new(SOURCE, TARGET, PROGRAM);
        spec.config = "widened".to_string();
        spec.budget_secs = Some(2.5);
        spec.rows = 5;
        let parsed = JobSpec::from_json(&spec.to_json()).expect("round-trips");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn from_json_rejects_bad_fields() {
        // `Json::with` appends (first key wins on lookup), so each bad
        // spec is built from the required fields alone.
        let base = || {
            Json::object()
                .with("source_ddl", Json::str(SOURCE))
                .with("target_ddl", Json::str(TARGET))
                .with("program", Json::str(PROGRAM))
        };
        assert!(JobSpec::from_json(&Json::object())
            .unwrap_err()
            .contains("source_ddl"));
        let bad_dialect = base().with("dialect", Json::str("oracle"));
        assert!(JobSpec::from_json(&bad_dialect)
            .unwrap_err()
            .contains("dialect"));
        let bad_config = base().with("config", Json::str("turbo"));
        assert!(JobSpec::from_json(&bad_config)
            .unwrap_err()
            .contains("config"));
        let bad_budget = base().with("budget_secs", Json::from(-1.0));
        assert!(JobSpec::from_json(&bad_budget)
            .unwrap_err()
            .contains("budget_secs"));
        let bad_backend = base().with("backend", Json::str("postgres"));
        assert!(JobSpec::from_json(&bad_backend)
            .unwrap_err()
            .contains("backend"));
        // Caps past `usize::MAX` are rejected, not wrapped: 2⁶⁴ would read
        // as 0 (no cap at all) and 2⁶⁴ + 1 as a cap of 1.
        for cap in [1u128 << 64, (1u128 << 64) + 1] {
            let too_big = base().with("max_value_correspondences", Json::from(cap));
            assert!(JobSpec::from_json(&too_big)
                .unwrap_err()
                .contains("max_value_correspondences"));
        }
    }

    #[test]
    fn run_job_solves_and_validates_a_rename() {
        let spec = JobSpec::new(SOURCE, TARGET, PROGRAM);
        let report = run_job(&spec, CancelToken::new(), None, None);
        assert_eq!(report.outcome, "solved", "{:?}", report.document);
        assert!(report.ok);
        assert_eq!(
            report.document.get("outcome").and_then(Json::as_str),
            Some("solved")
        );
        assert!(report.document.get("validation").is_some());
    }

    /// A budget too large for a `Duration` runs unbounded instead of
    /// panicking the job's thread.
    #[test]
    fn run_job_takes_a_budget_past_the_duration_range() {
        let mut spec = JobSpec::new(
            include_str!("../../../examples/migrate/source.sql"),
            include_str!("../../../examples/migrate/target.sql"),
            include_str!("../../../examples/migrate/program.dbp"),
        );
        spec.budget_secs = Some(1e300);
        let report = run_job(&spec, CancelToken::new(), None, None);
        assert_eq!(report.outcome, "solved", "{:?}", report.document);
        assert!(report.ok);
    }

    #[test]
    fn run_job_reports_input_errors_as_documents() {
        let mut spec = JobSpec::new("CREATE TABLE broken(", TARGET, PROGRAM);
        spec.validate = false;
        let report = run_job(&spec, CancelToken::new(), None, None);
        assert_eq!(report.outcome, "error");
        assert!(!report.ok);
        assert!(report
            .document
            .get("error")
            .and_then(Json::as_str)
            .is_some());
    }

    #[test]
    fn run_job_attaches_forensics_to_failures() {
        // An impossible refactoring: the target schema dropped the column
        // the program reads, so no equivalent program exists.
        let spec = JobSpec::new(
            SOURCE,
            "CREATE TABLE Users (uid INTEGER PRIMARY KEY);",
            PROGRAM,
        );
        let report = run_job(&spec, CancelToken::new(), None, None);
        assert_eq!(report.outcome, "no_solution", "{:?}", report.document);
        assert!(!report.ok);
        assert_ne!(report.document.get("forensics"), Some(&Json::Null));
    }

    #[test]
    fn cancelled_token_reports_cancelled_not_no_solution() {
        let token = CancelToken::new();
        token.cancel();
        let spec = JobSpec::new(SOURCE, TARGET, PROGRAM);
        let report = run_job(&spec, token, None, None);
        assert_eq!(report.outcome, "cancelled", "{:?}", report.document);
    }
}
