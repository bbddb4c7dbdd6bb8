//! The traced run: the per-layer breakdown, measured from outside the
//! program by spans around the calls into each layer.
//!
//! A traced run makes these passes over the workload, each in a seeded
//! order:
//!
//! 1. **Reference pass.** Each instance runs exactly as in the untraced
//!    runs (`pipeline::run_job`, or a job on the served server with spans
//!    around the client's submit, stream and result calls). Its result
//!    documents state the search the program ran. Allocations are not
//!    counted in this pass.
//! 2. **Facade pass** (`textbook-par` only). The parallel search cannot be
//!    replayed call by call, so spans wrap the pipeline facade's stages at
//!    the workload's thread budget, and an observer counts the speculation
//!    side channel.
//! 3. **Replay.** Each instance is replayed at thread budget 1 through the
//!    layers' public functions — `parse_ddl`, `parse_program`,
//!    `VcEnumerator::next_correspondence`, `generate_sketch`,
//!    `complete_sketch`, `check_candidate_cached`, the sqlbridge emit
//!    functions and `validate_migration_observed` — in the order
//!    `Synthesizer::synthesize` calls them, with a span around each call.
//!
//! Every pass after the reference pass must reproduce each instance's
//! outcome, `value_correspondences`, `iterations` and `sequences_tested`
//! exactly, as the reference pass's result document gives them, or the
//! traced run fails. The search counts do not depend on the thread budget.
//!
//! `trace.overhead_ratio` is the time of the pass after the reference pass
//! over the reference pass's. On `textbook-par` that is the facade pass,
//! which runs the same stages at the same thread budget. On `apps` it is
//! the replay, which runs in process while the reference pass is served,
//! so the ratio is the traced replay's time over the time a server user
//! waits, and can fall below 1.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbir::equiv::{CheckProfile, PrefixCache, SourceOracle};
use dbir::parser::parse_program;
use dbir::{Program, Schema};
use migrator::completion::{complete_sketch, BlockingStrategy, CompletionControls};
use migrator::sketch_gen::generate_sketch;
use migrator::verify::{check_candidate_cached, CheckOutcome};
use migrator::{
    SketchSolverKind, SynthesisConfig, SynthesisEvent, SynthesisObserver, ValueCorrespondence,
    VcEnumerator,
};
use pipeline::{Json, RefactorError, Refactoring};
use sqlbridge::{
    migration_script, parse_ddl, program_to_sql, render_migration_script, render_sql_program,
    schema_to_ddl, Sqlite,
};
use sqlexec::{validate_migration_observed, MemoryBackend, DEFAULT_ROWS_PER_TABLE};

use crate::inputs::Instance;
use crate::run::Runner;
use crate::sys::{self, Rng};
use crate::tracer::Tracer;
use crate::{Metric, Outcome};

/// How far the layers' summed self times may miss the traced wall time.
/// The part outside every span is the loop between instances and the
/// bookkeeping of the spans themselves.
pub const COVERAGE_TOLERANCE: f64 = 0.01;

/// The search an instance's run went through, as its result document
/// states it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Trajectory {
    outcome: String,
    value_correspondences: u64,
    iterations: u64,
    sequences_tested: u64,
}

impl Trajectory {
    fn of(document: &Json) -> Option<Trajectory> {
        let stats = document.get("stats")?;
        let count = |key: &str| stats.get(key).and_then(Json::as_i128).map(|v| v as u64);
        Some(Trajectory {
            outcome: document.get("outcome")?.as_str()?.to_string(),
            value_correspondences: count("value_correspondences")?,
            iterations: count("iterations")?,
            sequences_tested: count("sequences_tested")?,
        })
    }
}

/// The layers' own operation counts, summed over a pass.
#[derive(Debug, Default)]
struct Counts {
    vcs: u64,
    sketches: u64,
    iterations: u64,
    invalid_instantiations: u64,
    blocking_clauses: u64,
    solves: u64,
    learned_clauses_kept: u64,
    sequences_tested: u64,
    verify_sequences: u64,
    plans_compiled: u64,
    prefix_cache_hits: u64,
    undo_frames: u64,
    oracle_hits: u64,
    oracle_computes: u64,
    statements: u64,
    tables_compared: u64,
    diffs: u64,
}

impl Counts {
    fn absorb_check(&mut self, profile: &CheckProfile) {
        self.plans_compiled += profile.plans_compiled;
        self.prefix_cache_hits += profile.prefix_cache_hits;
        self.undo_frames += profile.undo_frames;
    }
}

/// Counts the synthesis events the metrics need: accepted candidates and
/// adoption probes on the main stream, speculation notices on the side
/// channel.
#[derive(Debug, Default)]
struct EventCounter {
    accepted: AtomicU64,
    probes: AtomicU64,
    adopted: AtomicU64,
    speculated: AtomicU64,
    speculation_cancelled: AtomicU64,
}

impl SynthesisObserver for EventCounter {
    fn event(&self, event: &SynthesisEvent) {
        match event {
            SynthesisEvent::CandidateChecked { accepted: true, .. } => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
            }
            SynthesisEvent::CandidateSpeculated { adopted, .. } => {
                self.probes.fetch_add(1, Ordering::Relaxed);
                self.adopted
                    .fetch_add(u64::from(*adopted), Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn speculation(&self, event: &SynthesisEvent) {
        match event {
            SynthesisEvent::CorrespondenceSpeculated { .. } => {
                self.speculated.fetch_add(1, Ordering::Relaxed);
            }
            SynthesisEvent::CorrespondenceCancelled { .. } => {
                self.speculation_cancelled.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// One replayed instance: its trajectory, and why it is not ok, if it is
/// not.
struct Replayed {
    trajectory: Trajectory,
    problem: Option<String>,
}

/// Runs the passes (see the module documentation), checks each against
/// the reference pass, checks the self-time coverage and the exported
/// trace, and derives the per-layer metrics.
///
/// `parallel` adds the facade pass at the current thread budget before the
/// replay, which then runs at thread budget 1. `shutdown` stops the served
/// server (if any) after the reference pass. The Chrome trace goes to
/// `trace_path` and must contain every span named in `required`.
pub fn traced_run(
    instances: &[Instance],
    runner: &Runner,
    parallel: bool,
    shutdown: impl FnOnce(),
    rng: &mut Rng,
    trace_path: &Path,
    required: &[&str],
) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let mut problems = Vec::new();

    let mut documents = vec![Json::Null; instances.len()];
    let mut stream_lines = 0;
    let reference_start = Instant::now();
    for i in rng.permutation(instances.len()) {
        let verdict = tracer.span("job", || runner.run(&instances[i], Some(&tracer)));
        stream_lines += verdict.stream_lines;
        problems.extend(verdict.problem);
        documents[i] = verdict.document;
    }
    let reference_wall = reference_start.elapsed();
    shutdown();
    sys::count_allocations();

    let facade_events = Arc::new(EventCounter::default());
    let facade_pass = if parallel {
        let measured = pass(
            instances,
            &documents,
            rng,
            &tracer,
            &mut problems,
            |instance| facade(instance, &tracer, &facade_events),
        )?;
        pipeline::set_thread_limit(1);
        Some(measured)
    } else {
        None
    };
    let mut counts = Counts::default();
    let events = EventCounter::default();
    let replay_pass = pass(
        instances,
        &documents,
        rng,
        &tracer,
        &mut problems,
        |instance| replay(instance, &tracer, &mut counts, &events),
    )?;
    let (first_wall, first_cpu) = facade_pass.unwrap_or(replay_pass);

    let traced_wall = reference_wall + facade_pass.map_or(Duration::ZERO, |p| p.0) + replay_pass.0;
    let coverage = tracer.self_time_total().as_secs_f64() / traced_wall.as_secs_f64();
    eprintln!(
        "per-layer self time over the traced wall time of {:.3} s:\n{}",
        traced_wall.as_secs_f64(),
        tracer.render_table(traced_wall)
    );
    eprintln!("self-time coverage {coverage:.6} (tolerance ±{COVERAGE_TOLERANCE})");
    if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
        return Err(format!(
            "the layers' self times cover {coverage:.6} of the traced wall time, outside 1 ± {COVERAGE_TOLERANCE}"
        ));
    }
    write_and_check_trace(&tracer, trace_path, required)?;

    let layer = |name: &str| tracer.layer(name);
    let secs = |name: &str| layer(name).self_time.as_secs_f64();
    let allocs = |name: &str| layer(name).self_allocs as f64;
    let count = |value: u64| value as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let metrics = vec![
        Metric::new("core.complete_s", secs("core.complete"), "s"),
        Metric::new("core.complete_allocs", allocs("core.complete"), "count"),
        Metric::new("core.iterations", count(counts.iterations), "count"),
        Metric::new(
            "core.invalid_instantiations",
            count(counts.invalid_instantiations),
            "count",
        ),
        Metric::new(
            "core.candidate_yield",
            ratio(load(&events.accepted), counts.iterations),
            "ratio",
        ),
        Metric::new(
            "core.speculation_adopted_ratio",
            ratio(load(&facade_events.adopted), load(&facade_events.probes)),
            "ratio",
        ),
        Metric::new(
            "satsolver.blocking_clauses",
            count(counts.blocking_clauses),
            "count",
        ),
        Metric::new("satsolver.solves", count(counts.solves), "count"),
        Metric::new(
            "satsolver.learned_clauses_kept",
            count(counts.learned_clauses_kept),
            "count",
        ),
        Metric::new(
            "dbir.sequences_tested",
            count(counts.sequences_tested),
            "count",
        ),
        Metric::new("dbir.plans_compiled", count(counts.plans_compiled), "count"),
        Metric::new(
            "dbir.prefix_cache_hits",
            count(counts.prefix_cache_hits),
            "count",
        ),
        Metric::new("dbir.undo_frames", count(counts.undo_frames), "count"),
        Metric::new(
            "dbir.oracle_computes",
            count(counts.oracle_computes),
            "count",
        ),
        Metric::new(
            "dbir.oracle_hit_ratio",
            ratio(
                counts.oracle_hits,
                counts.oracle_hits + counts.oracle_computes,
            ),
            "ratio",
        ),
        Metric::new("dbir.teardown_s", secs("dbir.teardown"), "s"),
        Metric::new("core.verify_s", secs("core.verify"), "s"),
        Metric::new("core.verify_allocs", allocs("core.verify"), "count"),
        Metric::new(
            "core.verify_sequences",
            count(counts.verify_sequences),
            "count",
        ),
        Metric::new("core.vc_enum_s", secs("core.vc_enum"), "s"),
        Metric::new("core.vcs", count(counts.vcs), "count"),
        Metric::new("core.sketch_gen_s", secs("core.sketch_gen"), "s"),
        Metric::new("core.sketches", count(counts.sketches), "count"),
        Metric::new(
            "core.sketch_yield",
            ratio(counts.sketches, counts.vcs),
            "ratio",
        ),
        Metric::new("sqlbridge.parse_ddl_s", secs("sqlbridge.parse_ddl"), "s"),
        Metric::new("dbir.parse_program_s", secs("dbir.parse_program"), "s"),
        Metric::new("sqlbridge.emit_s", secs("sqlbridge.emit"), "s"),
        Metric::new("sqlbridge.emit_allocs", allocs("sqlbridge.emit"), "count"),
        Metric::new("sqlbridge.statements", count(counts.statements), "count"),
        Metric::new("sqlexec.validate_s", secs("sqlexec.validate"), "s"),
        Metric::new(
            "sqlexec.validate_allocs",
            allocs("sqlexec.validate"),
            "count",
        ),
        Metric::new(
            "sqlexec.tables_compared",
            count(counts.tables_compared),
            "count",
        ),
        Metric::new("sqlexec.diffs", count(counts.diffs), "count"),
        Metric::new("served.submit_s", secs("served.submit"), "s"),
        Metric::new("served.stream_s", secs("served.stream"), "s"),
        Metric::new("served.result_s", secs("served.result"), "s"),
        Metric::new("served.stream_lines", stream_lines as f64, "count"),
        Metric::new(
            "pipeline.synthesize_s",
            layer("pipeline.synthesize").inclusive.as_secs_f64(),
            "s",
        ),
        Metric::new(
            "parpool.speculated",
            count(load(&facade_events.speculated)),
            "count",
        ),
        Metric::new(
            "parpool.speculation_cancelled",
            count(load(&facade_events.speculation_cancelled)),
            "count",
        ),
        Metric::new(
            "parpool.cpu_per_wall",
            first_cpu.as_secs_f64() / first_wall.as_secs_f64(),
            "ratio",
        ),
        Metric::new(
            "trace.overhead_ratio",
            first_wall.as_secs_f64() / reference_wall.as_secs_f64(),
            "ratio",
        ),
        Metric::new("trace.self_time_coverage", coverage, "ratio"),
    ];
    let passes = if parallel { 3 } else { 2 };
    Ok(Outcome {
        metrics,
        attempted: passes * instances.len(),
        problems,
    })
}

/// One pass over the instances in a seeded order, each inside an
/// `instance` span. Every instance must reproduce the search of its
/// reference run, whose result document is `documents[i]`. Returns the
/// pass's wall time and process CPU time.
fn pass(
    instances: &[Instance],
    documents: &[Json],
    rng: &mut Rng,
    tracer: &Tracer,
    problems: &mut Vec<String>,
    mut one: impl FnMut(&Instance) -> Result<Replayed, String>,
) -> Result<(Duration, Duration), String> {
    let cpu = sys::process_cpu();
    let start = Instant::now();
    for i in rng.permutation(instances.len()) {
        let instance = &instances[i];
        let replayed = tracer.span("instance", || one(instance))?;
        let reference = Trajectory::of(&documents[i]);
        if reference.as_ref() != Some(&replayed.trajectory) {
            return Err(format!(
                "{}: the replay does not reproduce the run's search: run {reference:?}, replay {:?}",
                instance.name, replayed.trajectory
            ));
        }
        problems.extend(replayed.problem);
    }
    Ok((start.elapsed(), sys::process_cpu() - cpu))
}

/// Writes the Chrome trace and runs the repository's `tracecheck` on it,
/// requiring every layer span.
fn write_and_check_trace(tracer: &Tracer, path: &Path, required: &[&str]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, tracer.chrome_json().to_compact_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let tracecheck = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .with_file_name("tracecheck");
    let checked = std::process::Command::new(&tracecheck)
        .arg(path)
        .args(required)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", tracecheck.display()))?;
    eprint!("{}", String::from_utf8_lossy(&checked.stdout));
    if !checked.status.success() {
        return Err(format!(
            "tracecheck rejects {}: {}",
            path.display(),
            String::from_utf8_lossy(&checked.stderr).trim()
        ));
    }
    Ok(())
}

/// Replays one instance call by call, in `Synthesizer::synthesize`'s order
/// at thread budget 1, then emits and validates as the pipeline does.
fn replay(
    instance: &Instance,
    tracer: &Tracer,
    counts: &mut Counts,
    events: &EventCounter,
) -> Result<Replayed, String> {
    let name = instance.name;
    let source_schema = tracer
        .span("sqlbridge.parse_ddl", || parse_ddl(&instance.source_ddl))
        .map_err(|e| format!("{name}: source DDL: {e}"))?;
    let target_schema = tracer
        .span("sqlbridge.parse_ddl", || parse_ddl(&instance.target_ddl))
        .map_err(|e| format!("{name}: target DDL: {e}"))?;
    let program = tracer
        .span("dbir.parse_program", || {
            parse_program(&instance.program, &source_schema)
        })
        .map_err(|e| format!("{name}: program: {e}"))?;

    let config = SynthesisConfig::standard();
    let (winner, trajectory) = tracer.span("synthesize", || {
        search(
            &program,
            &source_schema,
            &target_schema,
            &config,
            tracer,
            counts,
            events,
        )
    });
    let Some((migrated, phi)) = winner else {
        return Ok(Replayed {
            trajectory,
            problem: None,
        });
    };

    let script = tracer.span("sqlbridge.emit", || {
        let dialect = Sqlite;
        let functions = program_to_sql(&migrated, &dialect);
        let program_sql = render_sql_program(&migrated, &dialect);
        let target_ddl = schema_to_ddl(&target_schema, &dialect);
        let script = migration_script(&source_schema, &target_schema, &phi, &dialect);
        let migration_sql = render_migration_script(&script, &dialect);
        std::hint::black_box((functions, program_sql, target_ddl, migration_sql));
        script
    });
    counts.statements += script.statements.len() as u64;
    let validated = tracer
        .span("sqlexec.validate", || {
            validate_migration_observed(
                &source_schema,
                &target_schema,
                &phi,
                &mut MemoryBackend::new(),
                DEFAULT_ROWS_PER_TABLE,
                &Sqlite,
                None,
            )
        })
        .map_err(|e| format!("{name}: validation: {e}"))?;
    counts.tables_compared += target_schema.tables().len() as u64;
    counts.diffs += validated.diffs.len() as u64;
    Ok(Replayed {
        trajectory,
        problem: (!validated.ok)
            .then(|| format!("{name}: the replayed migration did not validate")),
    })
}

/// The search loop of `Synthesizer::synthesize` at thread budget 1: one
/// correspondence at a time, first verified completion wins.
#[allow(clippy::too_many_arguments)]
fn search(
    program: &Program,
    source_schema: &Schema,
    target_schema: &Schema,
    config: &SynthesisConfig,
    tracer: &Tracer,
    counts: &mut Counts,
    events: &EventCounter,
) -> (Option<(Program, ValueCorrespondence)>, Trajectory) {
    let strategy = match config.solver {
        SketchSolverKind::MfiGuided => BlockingStrategy::MinimumFailingInput,
        SketchSolverKind::Enumerative => BlockingStrategy::FullModel,
    };
    let mut enumerator = tracer.span("core.vc_enum", || {
        VcEnumerator::new(program, source_schema, target_schema, &config.vc)
    });
    let oracle = SourceOracle::new(program, source_schema);
    let mut trajectory = Trajectory {
        outcome: "no_solution".to_string(),
        value_correspondences: 0,
        iterations: 0,
        sequences_tested: 0,
    };
    let mut winner = None;
    loop {
        let explored = trajectory.value_correspondences as usize;
        if config.max_value_correspondences > 0 && explored >= config.max_value_correspondences {
            break;
        }
        let Some(phi) = tracer.span("core.vc_enum", || enumerator.next_correspondence()) else {
            break;
        };
        trajectory.value_correspondences += 1;
        let sketch = tracer.span("core.sketch_gen", || {
            generate_sketch(program, &phi, target_schema, &config.sketch)
        });
        let Some(sketch) = sketch else {
            continue;
        };
        counts.sketches += 1;
        let mut buffered = Vec::new();
        let mut profile = CheckProfile::default();
        let outcome = tracer.span("core.complete", || {
            complete_sketch(
                &sketch,
                &oracle,
                target_schema,
                &config.testing,
                &config.verification,
                strategy,
                config.max_iterations_per_sketch,
                CompletionControls {
                    index: explored,
                    events: Some(&mut buffered),
                    profile: Some(&mut profile),
                    ..CompletionControls::none()
                },
            )
        });
        for event in &buffered {
            events.event(event);
        }
        counts.absorb_check(&profile);
        let stats = &outcome.stats;
        trajectory.iterations += stats.iterations as u64;
        trajectory.sequences_tested += stats.sequences_tested as u64;
        counts.invalid_instantiations += stats.invalid_instantiations as u64;
        counts.blocking_clauses += stats.blocking_clauses as u64;
        counts.solves += stats.solver_reuses + 1;
        counts.learned_clauses_kept += stats.learned_clauses_kept;
        let Some(candidate) = outcome.program else {
            continue;
        };
        // The final verification pass, with a fresh prefix cache as the
        // synthesizer gives it.
        let mut verify_profile = CheckProfile::default();
        let mut cache = PrefixCache::new();
        let verified = tracer.span("core.verify", || {
            check_candidate_cached(
                &oracle,
                &candidate,
                target_schema,
                &config.verification,
                None,
                Some(&mut verify_profile),
                Some(&mut cache),
            )
        });
        tracer.span("dbir.teardown", || drop(cache));
        counts.absorb_check(&verify_profile);
        trajectory.sequences_tested += verified.sequences_tested() as u64;
        counts.verify_sequences += verified.sequences_tested() as u64;
        if !matches!(verified, CheckOutcome::NotEquivalent { .. }) {
            trajectory.outcome = "solved".to_string();
            winner = Some((candidate, phi));
            break;
        }
    }
    counts.vcs += trajectory.value_correspondences;
    counts.iterations += trajectory.iterations;
    counts.sequences_tested += trajectory.sequences_tested;
    counts.oracle_hits += oracle.hits() as u64;
    counts.oracle_computes += oracle.computes() as u64;
    // Freeing the oracle's memo table is part of every synthesis run.
    tracer.span("dbir.teardown", || drop(oracle));
    (winner, trajectory)
}

/// Runs one instance through the pipeline facade's stages, each in a
/// `pipeline.*` span — the facade pass of `textbook-par`, whose parallel
/// search has no call-by-call replay.
fn facade(
    instance: &Instance,
    tracer: &Tracer,
    events: &Arc<EventCounter>,
) -> Result<Replayed, String> {
    let name = instance.name;
    let session = tracer
        .span("pipeline.from_ddl", || {
            Refactoring::from_ddl(&instance.source_ddl, &instance.target_ddl)
        })
        .map_err(|e| format!("{name}: {e}"))?;
    let session = tracer
        .span("pipeline.program_text", || {
            session.program_text(&instance.program)
        })
        .map_err(|e| format!("{name}: {e}"))?
        .observer(events.clone());
    let (outcome, stats, problem) =
        match tracer.span("pipeline.synthesize", || session.synthesize()) {
            Ok(synthesized) => {
                let emitted = tracer.span("pipeline.emit", || synthesized.emit(Box::new(Sqlite)));
                let validated = tracer
                    .span("pipeline.validate", || {
                        emitted.validate(&mut MemoryBackend::new(), DEFAULT_ROWS_PER_TABLE)
                    })
                    .map_err(|e| format!("{name}: {e}"))?;
                let problem =
                    (!validated.ok()).then(|| format!("{name}: the migration did not validate"));
                (synthesized.outcome, synthesized.stats, problem)
            }
            Err(RefactorError::Unsolved { outcome, stats }) => (outcome, *stats, None),
            Err(error) => return Err(format!("{name}: {error}")),
        };
    Ok(Replayed {
        trajectory: Trajectory {
            outcome: outcome.as_str().to_string(),
            value_correspondences: stats.value_correspondences as u64,
            iterations: stats.iterations as u64,
            sequences_tested: stats.sequences_tested as u64,
        },
        problem,
    })
}
