//! Observability integration tests: the Chrome-trace export round-trips
//! through the in-tree JSON parser with every stage span present, pipeline
//! events arrive in stage order, and the search-forensics ledger is
//! byte-identical across thread counts on failing and solved runs.

use std::sync::Arc;

use dbir::equiv::TestConfig;
use migrator::{SynthesisConfig, SynthesisOutcome};
use obs::{PipelineEvent, PipelineEventLog, Trace};
use pipeline::{backend_by_name, dialect_by_name, Refactoring, SearchLedger};
use sqlbridge::Json;

const SOURCE_DDL: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, nick TEXT);";
const TARGET_DDL: &str = "CREATE TABLE Users (uid INTEGER PRIMARY KEY, handle TEXT);";
const PROGRAM: &str = r#"
    update addUser(uid: int, nick: string)
        INSERT INTO Users VALUES (uid: uid, nick: nick);
    query getUser(uid: int)
        SELECT nick FROM Users WHERE uid = uid;
"#;

fn session() -> Refactoring {
    Refactoring::from_ddl(SOURCE_DDL, TARGET_DDL)
        .unwrap()
        .program_text(PROGRAM)
        .unwrap()
}

/// Runs all three stages with every instrument installed and checks the
/// trace export: valid JSON, all four stage spans, phase spans, and spans
/// that nest properly (children end no later than their parents).
#[test]
fn chrome_trace_round_trips_with_all_stage_spans() {
    let trace = Arc::new(Trace::new());
    let events = Arc::new(PipelineEventLog::new());
    let synthesized = session()
        .trace(trace.clone())
        .pipeline_observer(events.clone())
        .synthesize()
        .expect("the rename synthesizes");
    let emitted = synthesized.emit(dialect_by_name("sqlite").unwrap());
    let mut backend = backend_by_name("memory").unwrap();
    let validated = emitted.validate(backend.as_mut(), 3).expect("validates");
    assert!(validated.ok());

    let text = trace.to_chrome_json().to_pretty_string();
    let parsed = Json::parse(&text).expect("trace JSON parses");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");

    // Complete (ph == "X") spans, as (name, tid, start, end).
    let mut spans: Vec<(String, i128, i128, i128)> = Vec::new();
    for event in trace_events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let tid = event.get("tid").and_then(Json::as_i128).unwrap();
        let ts = event.get("ts").and_then(Json::as_i128).unwrap();
        let dur = event.get("dur").and_then(Json::as_i128).unwrap();
        assert!(ts >= 0 && dur >= 0, "{name}: ts={ts} dur={dur}");
        spans.push((name, tid, ts, ts + dur));
    }
    for required in ["ingest", "synthesize", "emit", "validate"] {
        assert!(
            spans.iter().any(|(name, _, _, _)| name == required),
            "missing stage span `{required}` in {text}"
        );
    }
    // Every synthesis phase appears on the phases track.
    for phase in [
        "vc enumeration",
        "sketch generation",
        "completion",
        "bounded testing",
        "plan compile",
        "snapshot clone",
        "final verification",
    ] {
        assert!(
            spans
                .iter()
                .any(|(name, tid, _, _)| name == phase && *tid == 2),
            "missing phase span `{phase}`"
        );
    }
    // Pipeline-track spans nest: sorted by start, a span must either start
    // after the previous one ended or end within it.
    let mut pipeline_spans: Vec<&(String, i128, i128, i128)> =
        spans.iter().filter(|(_, tid, _, _)| *tid == 1).collect();
    pipeline_spans.sort_by_key(|(_, _, start, end)| (*start, -*end));
    let mut stack: Vec<&(String, i128, i128, i128)> = Vec::new();
    for span in pipeline_spans {
        while let Some(top) = stack.last() {
            if span.2 >= top.3 {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(top) = stack.last() {
            assert!(
                span.3 <= top.3,
                "span `{}` [{}, {}] overlaps `{}` [{}, {}] without nesting",
                span.0,
                span.2,
                span.3,
                top.0,
                top.2,
                top.3
            );
        }
        stack.push(span);
    }

    // The tree rendering lists the stages too.
    let tree = trace.render_tree();
    for required in ["ingest", "synthesize", "emit", "validate"] {
        assert!(tree.contains(required), "{tree}");
    }

    // Pipeline events arrived in stage order.
    let events = events.events();
    assert!(matches!(
        events.first(),
        Some(PipelineEvent::DdlParsed { input, tables: 1 }) if input == "source"
    ));
    assert!(
        events
            .iter()
            .any(|e| matches!(e, PipelineEvent::Emitted { dialect, .. } if dialect == "sqlite")),
        "{events:#?}"
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            PipelineEvent::BackendStatementExecuted { phase, .. } if phase == "migration"
        )),
        "{events:#?}"
    );
    // Every planned data move is later reported executed, with matching
    // 1-based indices, and planning precedes execution.
    let planned: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::DataMovePlanned { statement, .. } => Some(*statement),
            _ => None,
        })
        .collect();
    let moved: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::DataMoved { statement, .. } => Some(*statement),
            _ => None,
        })
        .collect();
    assert!(!planned.is_empty(), "{events:#?}");
    assert_eq!(planned, moved, "{events:#?}");
    assert_eq!(planned, (1..=planned.len()).collect::<Vec<_>>());
    let first_planned = events
        .iter()
        .position(|e| matches!(e, PipelineEvent::DataMovePlanned { .. }))
        .unwrap();
    let first_moved = events
        .iter()
        .position(|e| matches!(e, PipelineEvent::DataMoved { .. }))
        .unwrap();
    assert!(first_planned < first_moved);
    assert!(matches!(
        events.last(),
        Some(PipelineEvent::ValidationCompared {
            ok: true,
            diffs: 0,
            ..
        })
    ));
}

/// MathHotSpot — the known-red real-world benchmark — under a small
/// correspondence budget so the failing search stays fast in debug builds.
/// The lean bounded-testing limits mirror the experiment harness's
/// real-world configuration.
fn mathhotspot_session() -> Refactoring {
    let benchmark = benchmarks::all_benchmarks()
        .into_iter()
        .find(|b| b.name == "MathHotSpot")
        .expect("MathHotSpot is in the suite");
    let lean = TestConfig {
        max_arg_combinations: Some(4),
        ..TestConfig::default()
    };
    let config = SynthesisConfig {
        max_value_correspondences: 4,
        testing: lean.clone(),
        verification: lean,
        ..SynthesisConfig::standard()
    };
    Refactoring::new(
        benchmark.source_schema.clone(),
        benchmark.target_schema.clone(),
    )
    .program(benchmark.source_program.clone())
    .config(config)
}

/// The search-forensics ledger is byte-identical at one and at four worker
/// threads on a *failing* run — the determinism contract `migrate explain`
/// relies on. MathHotSpot under a small correspondence budget exercises
/// every taxonomy path: sketch-generation failures, MFI-blocked cohorts and
/// the frontier budget.
#[test]
fn search_ledger_is_byte_identical_across_thread_counts_on_a_failing_run() {
    let run = |threads: usize| -> String {
        parpool::set_thread_limit(threads);
        let ledger = Arc::new(SearchLedger::new());
        let err = mathhotspot_session()
            .forensics(ledger.clone())
            .synthesize()
            .expect_err("MathHotSpot stays unsolved under the standard space");
        parpool::set_thread_limit(0);
        assert_eq!(err.outcome(), Some(SynthesisOutcome::NoSolution));
        ledger.render()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert!(sequential.contains("outcome: no_solution"), "{sequential}");
    assert!(
        sequential.contains("correspondence budget reached"),
        "{sequential}"
    );
    assert!(
        sequential.contains("blocking clauses (MFIs):"),
        "{sequential}"
    );
    assert!(sequential.contains("killer queries"), "{sequential}");
    assert_eq!(
        sequential, parallel,
        "the forensics ledger must not depend on the thread count"
    );
}

/// The ledger keeps the same byte-identity contract on a *succeeding* run,
/// and records which correspondence solved after how many iterations.
#[test]
fn search_ledger_is_byte_identical_across_thread_counts_on_a_solved_run() {
    let run = |threads: usize| -> String {
        parpool::set_thread_limit(threads);
        let ledger = Arc::new(SearchLedger::new());
        let synthesized = session()
            .forensics(ledger.clone())
            .synthesize()
            .expect("the rename synthesizes");
        parpool::set_thread_limit(0);
        assert_eq!(synthesized.outcome, SynthesisOutcome::Solved);
        ledger.render()
    };
    let sequential = run(1);
    let parallel = run(4);
    assert!(sequential.contains("outcome: solved"), "{sequential}");
    assert!(sequential.contains("solved"), "{sequential}");
    assert_eq!(
        sequential, parallel,
        "the forensics ledger must not depend on the thread count"
    );
}
