//! Drives the `migrate` executable end-to-end on the music-library example
//! (a scenario that is not one of the 20 paper benchmarks).

use std::path::PathBuf;
use std::process::Command;

fn example_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/migrate")
        .join(file)
}

fn migrate(extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(example_path("source.sql"))
        .arg("--target-ddl")
        .arg(example_path("target.sql"))
        .arg("--program")
        .arg(example_path("program.dbp"))
        .args(extra)
        .output()
        .expect("migrate binary runs")
}

#[test]
fn migrates_the_music_library_end_to_end() {
    let output = migrate(&[]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");

    // The synthesized program routes artists through the new table.
    assert!(stdout.contains("-- migrated program --"), "{stdout}");
    assert!(
        stdout.contains("Album JOIN Artist ON Album.artist_id = Artist.artist_id"),
        "{stdout}"
    );

    // The SQL rendering is parameterized and uses a shared fresh id for the
    // insert-over-join.
    assert!(
        stdout
            .contains("INSERT INTO Artist (artist_name, artist_id) VALUES (:artist, :fresh_id_0);"),
        "{stdout}"
    );
    assert!(
        stdout.contains("SELECT Album.title, Artist.artist_name FROM Album JOIN Artist"),
        "{stdout}"
    );

    // The data-migration script fills the referenced table first and links
    // both sides with the same skolem key.
    let artist_insert = stdout
        .find("INSERT INTO Artist (artist_id, artist_name) SELECT")
        .expect("artist migration insert");
    let album_insert = stdout
        .find("INSERT INTO Album (album_id, title, artist_id) SELECT")
        .expect("album migration insert");
    assert!(artist_insert < album_insert, "{stdout}");
    let skolem_inserts = stdout
        .lines()
        .filter(|l| l.starts_with("INSERT INTO") && l.contains("Album.album_id * 1 + 0"))
        .count();
    assert_eq!(skolem_inserts, 2, "{stdout}");

    // Stats come out as JSON.
    assert!(stdout.contains("\"succeeded\": true"), "{stdout}");
    assert!(stdout.contains("\"total_time_secs\""), "{stdout}");
}

#[test]
fn sqlite_dialect_switches_placeholders() {
    let output = migrate(&["--dialect", "sqlite"]);
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("WHERE Album.album_id = ?1"), "{stdout}");
    assert!(!stdout.contains(":id"), "{stdout}");
}

#[test]
fn bad_ddl_yields_a_spanned_diagnostic_and_nonzero_exit() {
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(example_path("program.dbp")) // not DDL
        .arg("--target-ddl")
        .arg(example_path("target.sql"))
        .arg("--program")
        .arg(example_path("program.dbp"))
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("-->"), "{stderr}");
}

/// Interned-value display audit: programs carrying string and binary
/// *literals* must come back out of the CLI as human-readable text —
/// resolved payloads in the migrated program and SQL literals in the
/// emitted statements — never as raw interner symbols like `Sym(17)`.
#[test]
fn interned_literals_print_resolved_not_as_symbols() {
    let dir = std::env::temp_dir().join("migrate-cli-literals");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source_ddl = dir.join("source.sql");
    let target_ddl = dir.join("target.sql");
    let program = dir.join("program.dbp");
    std::fs::write(
        &source_ddl,
        "CREATE TABLE Track (track_id INTEGER PRIMARY KEY, title VARCHAR(255), genre VARCHAR(255));\n",
    )
    .unwrap();
    std::fs::write(
        &target_ddl,
        "CREATE TABLE Track (track_id INTEGER PRIMARY KEY, title VARCHAR(255), style VARCHAR(255));\n",
    )
    .unwrap();
    std::fs::write(
        &program,
        r#"update addTrack(id: int, title: string)
    INSERT INTO Track VALUES (track_id: id, title: title, genre: "rock & roll");

query getTrack(id: int)
    SELECT title, genre FROM Track WHERE track_id = id;
"#,
    )
    .unwrap();

    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(&source_ddl)
        .arg("--target-ddl")
        .arg(&target_ddl)
        .arg("--program")
        .arg(&program)
        .output()
        .expect("migrate binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");

    // The migrated program prints the literal in concrete syntax...
    assert!(stdout.contains("\"rock & roll\""), "{stdout}");
    // ...the emitted SQL renders it as a SQL string literal...
    assert!(stdout.contains("'rock & roll'"), "{stdout}");
    // ...and no interner symbol ever leaks into user-facing output.
    assert!(!stdout.contains("Sym("), "{stdout}");
    assert!(!stdout.contains("Blob("), "{stdout}");
}

#[test]
fn missing_arguments_print_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage:"));
}

/// `--validate` executes the emitted migration on the in-memory backend
/// and reports the comparison against the dbir prediction.
#[test]
fn validate_flag_executes_the_migration_on_the_memory_backend() {
    let output = migrate(&["--validate"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        stdout.contains("-- validation (memory backend) --"),
        "{stdout}"
    );
    assert!(stdout.contains("\"validated\": true"), "{stdout}");
    assert!(stdout.contains("\"backend\": \"memory\""), "{stdout}");
}

/// `--validate --backend sqlite3` runs the same script through a real
/// sqlite3 when one is installed (skips cleanly otherwise).
#[test]
fn validate_flag_supports_the_sqlite3_backend_when_present() {
    let probe = Command::new("sqlite3").arg("--version").output();
    if !probe.map(|o| o.status.success()).unwrap_or(false) {
        eprintln!("sqlite3 binary not found; skipping");
        return;
    }
    let output = migrate(&["--validate", "--backend", "sqlite3"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("\"backend\": \"sqlite3\""), "{stdout}");
    assert!(stdout.contains("\"validated\": true"), "{stdout}");
}

#[test]
fn unknown_backend_is_a_usage_error() {
    let output = migrate(&["--validate", "--backend", "oracle"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown backend"));
}

/// The postgres dialect renders identity surrogate keys and $N parameters.
#[test]
fn postgres_dialect_end_to_end() {
    let output = migrate(&["--dialect", "postgres"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("= $1"), "{stdout}");
    assert!(stdout.contains("GENERATED ALWAYS AS IDENTITY"), "{stdout}");
    assert!(stdout.contains("OVERRIDING SYSTEM VALUE"), "{stdout}");
}

/// The MySQL dialect renders bare `?` placeholders, backtick-safe
/// identifiers and AUTO_INCREMENT surrogate keys — and the script still
/// validates end-to-end on the in-memory backend.
#[test]
fn mysql_dialect_end_to_end() {
    let output = migrate(&["--dialect", "mysql", "--validate"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("= ?"), "{stdout}");
    assert!(!stdout.contains("= ?1"), "{stdout}");
    assert!(stdout.contains("AUTO_INCREMENT"), "{stdout}");
    assert!(stdout.contains("\"dialect\": \"mysql\""), "{stdout}");
    assert!(stdout.contains("\"validated\": true"), "{stdout}");
}

/// `--json` emits the entire result as one machine-readable document that
/// parses via `sqlbridge::Json` and carries every stage's output.
#[test]
fn json_flag_emits_one_parseable_document() {
    let output = migrate(&["--json", "--validate"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let document = sqlbridge::Json::parse(&stdout).expect("--json output parses");
    assert_eq!(
        document.get("outcome").and_then(|o| o.as_str()),
        Some("solved")
    );
    assert!(document
        .get("correspondence")
        .is_some_and(|c| c.to_compact_string().contains("Artist.artist_name")));
    assert!(document
        .get("program")
        .and_then(|p| p.as_str())
        .is_some_and(|p| p.contains("INSERT INTO Album")));
    assert!(document
        .get("sql")
        .and_then(|s| s.get("script"))
        .and_then(|s| s.as_str())
        .is_some_and(|s| s.contains("INSERT INTO Artist")));
    assert!(document
        .get("migration")
        .and_then(|m| m.get("statements"))
        .and_then(|s| s.as_array())
        .is_some_and(|s| !s.is_empty()));
    assert_eq!(
        document
            .get("validation")
            .and_then(|v| v.get("validated"))
            .and_then(|v| v.as_bool()),
        Some(true)
    );
    assert_eq!(
        document
            .get("stats")
            .and_then(|s| s.get("outcome"))
            .and_then(|o| o.as_str()),
        Some("solved")
    );
    // One document, nothing else on stdout.
    assert!(!stdout.contains("-- migrated program --"), "{stdout}");
}

/// An explicit `--max-vcs 0` is rejected as a usage error instead of
/// silently falling back to the default budget.
#[test]
fn max_vcs_zero_is_rejected() {
    let output = migrate(&["--max-vcs", "0"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("at least 1"), "{stderr}");
}

/// `--budget-secs` is wired to the deadline API: a budget of 0 stays
/// unbounded, and an expired deadline is reported as outcome `timeout`,
/// never `no_solution`. (The flag has whole-second granularity and the
/// worked example finishes well within a second, so the timeout path is
/// driven in-process through the same facade path the binary uses.)
#[test]
fn budget_secs_zero_stays_unbounded_but_an_expired_deadline_times_out() {
    let unbounded = migrate(&["--budget-secs", "0"]);
    assert!(unbounded.status.success());

    let session = pipeline::Refactoring::from_ddl_files(
        &example_path("source.sql"),
        &example_path("target.sql"),
    )
    .unwrap()
    .program_file(&example_path("program.dbp"))
    .unwrap()
    .deadline(std::time::Duration::ZERO);
    let err = session.synthesize().unwrap_err();
    assert_eq!(
        err.outcome(),
        Some(migrator::SynthesisOutcome::Timeout),
        "an expired budget must be a timeout, not no_solution"
    );
}

/// In `--json` mode the document goes to *stdout* even for failed runs, so
/// `migrate --json | jq` works on exactly the runs where the diagnostic
/// document matters; stderr carries only a one-line summary.
#[test]
fn json_failure_document_still_goes_to_stdout() {
    let dir = std::env::temp_dir().join("migrate-cli-json-failure");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source_ddl = dir.join("source.sql");
    let target_ddl = dir.join("target.sql");
    let program = dir.join("program.dbp");
    std::fs::write(&source_ddl, "CREATE TABLE T (a INTEGER, b TEXT, c TEXT);\n").unwrap();
    std::fs::write(&target_ddl, "CREATE TABLE T (a INTEGER, d TEXT);\n").unwrap();
    std::fs::write(
        &program,
        "update add(a: int, b: string, c: string)\n\
         \x20   INSERT INTO T VALUES (a: a, b: b, c: c);\n\
         query get(a: int)\n\
         \x20   SELECT b, c FROM T WHERE a = a;\n",
    )
    .unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(&source_ddl)
        .arg("--target-ddl")
        .arg(&target_ddl)
        .arg("--program")
        .arg(&program)
        .arg("--json")
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let document = sqlbridge::Json::parse(&stdout).expect("failure document parses");
    assert_eq!(
        document.get("outcome").and_then(|o| o.as_str()),
        Some("no_solution")
    );
    assert!(document.get("stats").is_some());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no equivalent program"),
        "stderr carries the summary: {stderr}"
    );
}

/// Writes the unsolvable T-schema example (a dropped column the queries
/// still read) into a fresh temp dir and returns the three input paths.
fn failing_example(dir_name: &str) -> (PathBuf, PathBuf, PathBuf) {
    let dir = std::env::temp_dir().join(dir_name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let source_ddl = dir.join("source.sql");
    let target_ddl = dir.join("target.sql");
    let program = dir.join("program.dbp");
    std::fs::write(&source_ddl, "CREATE TABLE T (a INTEGER, b TEXT, c TEXT);\n").unwrap();
    std::fs::write(&target_ddl, "CREATE TABLE T (a INTEGER, d TEXT);\n").unwrap();
    std::fs::write(
        &program,
        "update add(a: int, b: string, c: string)\n\
         \x20   INSERT INTO T VALUES (a: a, b: b, c: c);\n\
         query get(a: int)\n\
         \x20   SELECT b, c FROM T WHERE a = a;\n",
    )
    .unwrap();
    (source_ddl, target_ddl, program)
}

/// `migrate explain` on a failing run prints the search-forensics report —
/// the rejection taxonomy, not the migration artifacts — and keeps the
/// failure exit code.
#[test]
fn explain_subcommand_reports_forensics_on_a_failing_run() {
    let (source_ddl, target_ddl, program) = failing_example("migrate-cli-explain-failure");
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("explain")
        .arg("--source-ddl")
        .arg(&source_ddl)
        .arg("--target-ddl")
        .arg(&target_ddl)
        .arg("--program")
        .arg(&program)
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("== search forensics =="), "{stdout}");
    assert!(
        stdout.contains("rejection taxonomy (per correspondence):"),
        "{stdout}"
    );
    assert!(stdout.contains("candidates checked:"), "{stdout}");
    // Forensics only — no migration artifacts on a failed run.
    assert!(!stdout.contains("-- migrated program --"), "{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no equivalent program"), "{stderr}");
}

/// `migrate explain` reports solved runs too — exit 0, with the solved
/// correspondence recorded in the taxonomy.
#[test]
fn explain_subcommand_reports_solved_runs_with_exit_zero() {
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("explain")
        .arg("--source-ddl")
        .arg(example_path("source.sql"))
        .arg("--target-ddl")
        .arg(example_path("target.sql"))
        .arg("--program")
        .arg(example_path("program.dbp"))
        .output()
        .expect("migrate binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(stdout.contains("== search forensics =="), "{stdout}");
    assert!(stdout.contains("outcome: solved"), "{stdout}");
    assert!(!stdout.contains("-- migrated program --"), "{stdout}");
}

/// `explain --json` emits the structured explain document: outcome, stats
/// and the forensics summary with the taxonomy counters.
#[test]
fn explain_json_emits_the_structured_forensics_document() {
    let (source_ddl, target_ddl, program) = failing_example("migrate-cli-explain-json");
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("explain")
        .arg("--source-ddl")
        .arg(&source_ddl)
        .arg("--target-ddl")
        .arg(&target_ddl)
        .arg("--program")
        .arg(&program)
        .arg("--json")
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let document = sqlbridge::Json::parse(&stdout).expect("explain document parses");
    assert_eq!(
        document.get("outcome").and_then(|o| o.as_str()),
        Some("no_solution")
    );
    let forensics = document.get("forensics").expect("forensics key");
    assert!(forensics.get("taxonomy").is_some(), "{stdout}");
    assert!(forensics.get("candidates").is_some(), "{stdout}");
    assert_eq!(
        forensics.get("outcome").and_then(|o| o.as_str()),
        Some("no_solution")
    );
}

/// A plain `migrate --json` failure document embeds the same forensics
/// summary under `"forensics"` — and the exit code stays 1.
#[test]
fn json_failure_document_embeds_forensics() {
    let (source_ddl, target_ddl, program) = failing_example("migrate-cli-json-forensics");
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(&source_ddl)
        .arg("--target-ddl")
        .arg(&target_ddl)
        .arg("--program")
        .arg(&program)
        .arg("--json")
        .output()
        .expect("migrate binary runs");
    assert_eq!(output.status.code(), Some(1));
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let document = sqlbridge::Json::parse(&stdout).expect("failure document parses");
    let forensics = document.get("forensics").expect("forensics key");
    assert!(
        forensics
            .get("taxonomy")
            .and_then(|t| t.get("all_completions_blocked"))
            .and_then(|v| v.as_i128())
            .is_some(),
        "{stdout}"
    );
}

/// `--events` writes an NDJSON stream: one JSON object per line, strictly
/// increasing `seq`, and a terminal `run_finished` event carrying the
/// outcome — on solved and failed runs alike.
#[test]
fn events_flag_writes_a_wellformed_ndjson_stream() {
    let dir = std::env::temp_dir().join("migrate-cli-events");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let events_path = dir.join("events.ndjson");
    let output = migrate(&["--events", events_path.to_str().unwrap()]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&events_path).expect("events file written");
    let mut last_seq = -1i128;
    let mut kinds = Vec::new();
    for line in text.lines() {
        let event = sqlbridge::Json::parse(line).expect("each line parses");
        let seq = event
            .get("seq")
            .and_then(|s| s.as_i128())
            .expect("seq field");
        assert!(seq > last_seq, "seq must be strictly increasing: {line}");
        last_seq = seq;
        kinds.push(
            event
                .get("type")
                .and_then(|t| t.as_str())
                .expect("type tag")
                .to_string(),
        );
    }
    assert!(
        kinds.iter().any(|k| k == "ddl_parsed"),
        "pipeline events present: {kinds:?}"
    );
    assert!(
        kinds.iter().any(|k| k == "correspondence_enumerated"),
        "synthesis events present: {kinds:?}"
    );
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("run_finished"),
        "{kinds:?}"
    );
    let last = text.lines().last().unwrap();
    let terminal = sqlbridge::Json::parse(last).unwrap();
    assert_eq!(
        terminal.get("outcome").and_then(|o| o.as_str()),
        Some("solved")
    );
}

/// `--trace` writes a Chrome trace-event JSON file covering every pipeline
/// stage and synthesis phase; `--progress` streams events to stderr.
#[test]
fn trace_flag_writes_chrome_trace_and_progress_streams_events() {
    let dir = std::env::temp_dir().join("migrate-cli-trace");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace_path = dir.join("trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_migrate"))
        .arg("--source-ddl")
        .arg(example_path("source.sql"))
        .arg("--target-ddl")
        .arg(example_path("target.sql"))
        .arg("--program")
        .arg(example_path("program.dbp"))
        .arg("--validate")
        .arg("--progress")
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("migrate binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The trace file is valid Chrome trace-event JSON with all four stage
    // spans and the synthesis phase track.
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let parsed = sqlbridge::Json::parse(&text).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for required in [
        "ingest",
        "synthesize",
        "emit",
        "validate",
        "bounded testing",
    ] {
        assert!(
            names.contains(&required),
            "missing `{required}` in {names:?}"
        );
    }

    // Progress lines arrived on stderr, from both event families.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[migrate] parsed source DDL"), "{stderr}");
    assert!(stderr.contains("solved after"), "{stderr}");
    assert!(stderr.contains("validation on memory: ok"), "{stderr}");
}
