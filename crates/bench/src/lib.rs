//! Shared harness code for the experiment binary and the Criterion benches:
//! per-benchmark synthesis configuration and result-row formatting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use benchmarks::{Benchmark, Category};
use dbir::equiv::TestConfig;
use migrator::baselines::CegisConfig;
use migrator::{SketchSolverKind, SynthesisConfig, SynthesisOutcome, SynthesisStats};
use pipeline::{Json, RefactorError, Refactoring};

/// The synthesis configuration used for a benchmark in the experiments:
/// textbook benchmarks use the standard configuration; application-scale
/// benchmarks use a leaner bounded-testing configuration (at most four
/// argument combinations per function) so testing their wide programs stays
/// fast. The lean setting exists only in this harness: `migrate` and served
/// jobs run the standard configuration.
pub fn config_for(benchmark: &Benchmark, solver: SketchSolverKind) -> SynthesisConfig {
    let mut config = SynthesisConfig {
        solver,
        ..SynthesisConfig::standard()
    };
    lean_testing_for(benchmark, &mut config);
    config
}

/// The widened-space configuration ([`SynthesisConfig::widened`]) with the
/// same per-category bounded-testing adjustments as [`config_for`] — the
/// configuration the known-red gate uses to attack the frontier benchmarks.
pub fn widened_config_for(benchmark: &Benchmark) -> SynthesisConfig {
    let mut config = SynthesisConfig::widened();
    lean_testing_for(benchmark, &mut config);
    config
}

fn lean_testing_for(benchmark: &Benchmark, config: &mut SynthesisConfig) {
    if benchmark.category == Category::RealWorld {
        config.testing = TestConfig {
            max_arg_combinations: Some(4),
            ..TestConfig::default()
        };
        config.verification = TestConfig {
            max_arg_combinations: Some(4),
            ..TestConfig::default()
        };
    }
}

/// The deterministic trajectory contract: the top-level `BENCH_results.json`
/// counts `experiments check` and `experiments cmp` compare (see
/// [`deterministic_drift`]). Everything not listed here (wall time, interner
/// sizes, the process-wide snapshot peak) is machine- or
/// scheduling-dependent and deliberately excluded.
pub const DETERMINISTIC_TOP_FIELDS: &[&str] =
    &["value_correspondences", "iterations", "sequences_tested"];

/// The deterministic phase counters nested under `phases` in
/// `BENCH_results.json` — the other half of the trajectory contract (see
/// [`DETERMINISTIC_TOP_FIELDS`]). These are merged from the winning
/// trajectory in enumeration order, so they are identical at any thread
/// count.
pub const DETERMINISTIC_PHASE_FIELDS: &[&str] = &[
    "sat_blocking_clauses",
    "plans_compiled",
    "solver_reuses",
    "learned_clauses_kept",
    "prefix_cache_hits",
    "undo_frames",
    "undo_ops_rolled_back",
    "snapshots_taken",
    "snapshot_bytes_copied",
];

/// The deterministic fields on which two `BENCH_results.json` rows differ,
/// one `label: old → new` line each: the [`DETERMINISTIC_TOP_FIELDS`], the
/// [`DETERMINISTIC_PHASE_FIELDS`] (labelled `phases.<name>`) and the
/// `succeeded` and `validated` flags. A field missing from a row reads
/// `absent`. Empty when the rows agree.
pub fn deterministic_drift(old: &Json, new: &Json) -> Vec<String> {
    let read = |row: &Json, path: &[&str]| {
        path.iter()
            .try_fold(row, |json, key| json.get(key))
            .cloned()
    };
    let render =
        |value: Option<Json>| value.map_or("absent".to_string(), |v| v.to_compact_string());
    let paths = DETERMINISTIC_TOP_FIELDS
        .iter()
        .map(|&name| vec![name])
        .chain(
            DETERMINISTIC_PHASE_FIELDS
                .iter()
                .map(|&name| vec!["phases", name]),
        )
        .chain([vec!["succeeded"], vec!["validated"]]);
    paths
        .filter_map(|path| {
            let (old, new) = (read(old, &path), read(new, &path));
            (old != new).then(|| format!("{}: {} → {}", path.join("."), render(old), render(new)))
        })
        .collect()
}

/// The CEGIS (Sketch stand-in) configuration used in Table 2 runs.
pub fn cegis_config_for(benchmark: &Benchmark, time_limit: Duration) -> CegisConfig {
    let testing = config_for(benchmark, SketchSolverKind::MfiGuided).testing;
    CegisConfig {
        max_candidates: 0,
        time_limit,
        testing,
    }
}

/// One measured row of Table 1, plus the underlying search statistics.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Whether synthesis succeeded.
    pub succeeded: bool,
    /// Value correspondences considered.
    pub value_corr: usize,
    /// Candidate programs explored.
    pub iters: usize,
    /// Synthesis time (seconds).
    pub synth_time: f64,
    /// Total time including verification (seconds).
    pub total_time: f64,
    /// Sketches generated (one per productive value correspondence).
    pub sketches_generated: usize,
    /// Structurally invalid hole assignments encountered.
    pub invalid_instantiations: usize,
    /// Completion count of the largest sketch explored.
    pub largest_search_space: u128,
    /// Invocation sequences executed during testing.
    pub sequences_tested: usize,
    /// Largest single physical snapshot copy (bytes) performed by the
    /// bounded-testing engine during this run — a COW clone's pointer
    /// overhead or one copy-on-write table copy — an allocation proxy that
    /// makes snapshot-cost regressions visible independent of wall time.
    pub peak_snapshot_bytes: usize,
    /// Total payload bytes held by the process-wide value interner after
    /// this run (cumulative across runs in one process).
    pub interned_bytes: usize,
    /// Whether the emitted data-migration script, executed end-to-end on
    /// the in-memory SQL backend over a seeded source instance, produced
    /// exactly the dbir-predicted target instance (`None` when synthesis
    /// failed, so there is no migration to validate).
    pub validated: Option<bool>,
    /// How the run ended (`solved`, `no_solution`, `timeout`, `cancelled`).
    pub outcome: &'static str,
    /// Per-phase breakdown of the run: wall-clock times (never compared
    /// across runs) plus the deterministic counters
    /// ([`DETERMINISTIC_PHASE_FIELDS`]) that `experiments check` verifies.
    pub phases: migrator::PhaseBreakdown,
}

/// Builds the facade session the harness runs a benchmark through — the
/// same `Refactoring` pipeline every other client uses.
pub fn session_for(benchmark: &Benchmark, solver: SketchSolverKind) -> Refactoring {
    session_with(benchmark, config_for(benchmark, solver))
}

/// Builds the facade session for a benchmark with an explicit synthesis
/// configuration (e.g. the widened-space preset).
pub fn session_with(benchmark: &Benchmark, config: SynthesisConfig) -> Refactoring {
    Refactoring::new(
        benchmark.source_schema.clone(),
        benchmark.target_schema.clone(),
    )
    .program(benchmark.source_program.clone())
    .config(config)
}

/// Runs the full synthesis pipeline on a benchmark — through the
/// [`Refactoring`] facade — and returns the measured Table 1 row.
pub fn run_table1(benchmark: &Benchmark, solver: SketchSolverKind) -> Table1Row {
    run_table1_with(benchmark, config_for(benchmark, solver))
}

/// [`run_table1`] with an explicit synthesis configuration.
pub fn run_table1_with(benchmark: &Benchmark, config: SynthesisConfig) -> Table1Row {
    dbir::equiv::reset_snapshot_peak();
    let (outcome, stats, validated) = match session_with(benchmark, config).synthesize() {
        Ok(synthesized) => {
            // Every successful synthesis also validates its emitted
            // migration end-to-end through the in-memory SQL backend, so a
            // benchmark row is an emitter test, not just a synthesizer
            // test. This is deterministic (seeded instance, no wall time),
            // so `experiments check` compares it.
            let validated = synthesized
                .emit(Box::new(sqlbridge::Sqlite))
                .validate(
                    &mut sqlexec::MemoryBackend::new(),
                    VALIDATION_ROWS_PER_TABLE,
                )
                .map(|validated| validated.ok())
                .unwrap_or(false);
            (synthesized.outcome, synthesized.stats, Some(validated))
        }
        Err(RefactorError::Unsolved { outcome, stats }) => (outcome, *stats, None),
        Err(error) => unreachable!("benchmark inputs are pre-parsed: {error}"),
    };
    row_from_stats(benchmark, outcome, &stats, validated)
}

fn row_from_stats(
    benchmark: &Benchmark,
    outcome: SynthesisOutcome,
    stats: &SynthesisStats,
    validated: Option<bool>,
) -> Table1Row {
    Table1Row {
        name: benchmark.name.clone(),
        succeeded: outcome == SynthesisOutcome::Solved,
        value_corr: stats.value_correspondences,
        iters: stats.iterations,
        synth_time: stats.synthesis_time.as_secs_f64(),
        total_time: stats.total_time().as_secs_f64(),
        sketches_generated: stats.sketches_generated,
        invalid_instantiations: stats.invalid_instantiations,
        largest_search_space: stats.largest_search_space,
        sequences_tested: stats.sequences_tested,
        peak_snapshot_bytes: dbir::equiv::snapshot_peak_bytes(),
        interned_bytes: dbir::intern::stats().total_bytes(),
        validated,
        outcome: outcome.as_str(),
        phases: stats.phases.clone(),
    }
}

/// Rows seeded per source table when validating an emitted migration
/// (shared with the `migrate` CLI via `sqlexec`, so CI validates the same
/// instance a user's `--validate` run does).
pub use sqlexec::DEFAULT_ROWS_PER_TABLE as VALIDATION_ROWS_PER_TABLE;

/// Renders a measured row (plus its benchmark's metadata) as one entry of
/// the machine-readable `BENCH_results.json`.
pub fn row_to_json(benchmark: &Benchmark, row: &Table1Row) -> Json {
    Json::object()
        .with("name", Json::str(&row.name))
        .with(
            "category",
            Json::str(match benchmark.category {
                Category::Textbook => "textbook",
                Category::RealWorld => "realworld",
            }),
        )
        .with("succeeded", Json::Bool(row.succeeded))
        .with("value_correspondences", row.value_corr.into())
        .with("iterations", row.iters.into())
        .with("sketches_generated", row.sketches_generated.into())
        .with("invalid_instantiations", row.invalid_instantiations.into())
        .with("largest_search_space", row.largest_search_space.into())
        .with("sequences_tested", row.sequences_tested.into())
        .with("peak_snapshot_bytes", row.peak_snapshot_bytes.into())
        .with("interned_bytes", row.interned_bytes.into())
        .with(
            "validated",
            match row.validated {
                Some(ok) => Json::Bool(ok),
                None => Json::Null,
            },
        )
        .with("outcome", Json::str(row.outcome))
        .with("synth_time_secs", row.synth_time.into())
        .with("total_time_secs", row.total_time.into())
        .with("phases", pipeline::report::phases_json(&row.phases))
        .with(
            "paper",
            Json::object()
                .with("value_correspondences", benchmark.paper.value_corr.into())
                .with("iterations", benchmark.paper.iters.into())
                .with("synth_time_secs", benchmark.paper.synth_time_secs.into())
                .with("total_time_secs", benchmark.paper.total_time_secs.into()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use benchmarks::benchmark_by_name;

    #[test]
    fn real_world_benchmarks_get_leaner_testing_configs() {
        let textbook = benchmark_by_name("Ambler-4").unwrap();
        let realworld = benchmark_by_name("coachup").unwrap();
        let textbook_config = config_for(&textbook, SketchSolverKind::MfiGuided);
        let realworld_config = config_for(&realworld, SketchSolverKind::MfiGuided);
        assert!(
            realworld_config.testing.max_arg_combinations.unwrap()
                < textbook_config.testing.max_arg_combinations.unwrap()
        );
    }

    /// `row` with the field at `path` replaced by `value`.
    fn replaced(row: &Json, path: &[&str], value: &Json) -> Json {
        let Json::Object(entries) = row else {
            panic!("rows are objects");
        };
        let entries = entries
            .iter()
            .map(|(key, old)| {
                let new = match path {
                    [last] if key == last => value.clone(),
                    [first, rest @ ..] if key == first => replaced(old, rest, value),
                    _ => old.clone(),
                };
                (key.clone(), new)
            })
            .collect();
        Json::Object(entries)
    }

    /// `row` with every `*_secs` field, at any depth, set to an hour.
    fn retimed(row: &Json) -> Json {
        match row {
            Json::Object(entries) => Json::Object(
                entries
                    .iter()
                    .map(|(key, value)| {
                        let value = if key.ends_with("_secs") {
                            Json::from(3600.0)
                        } else {
                            retimed(value)
                        };
                        (key.clone(), value)
                    })
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn deterministic_allowlists_are_distinct_and_json_backed() {
        // Every allowlisted field must exist (under its exact name, as a
        // count) in the JSON a row renders to, or the comparison would
        // report spurious "absent" drift forever.
        let benchmark = benchmark_by_name("Ambler-4").unwrap();
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        let json = row_to_json(&benchmark, &row);
        let phases = json.get("phases").unwrap();
        for (list, object) in [
            (DETERMINISTIC_TOP_FIELDS, &json),
            (DETERMINISTIC_PHASE_FIELDS, phases),
        ] {
            for (i, name) in list.iter().enumerate() {
                assert!(!list[..i].contains(name), "{name} is listed twice");
                assert!(
                    object.get(name).and_then(Json::as_i128).is_some(),
                    "{name} is not a count in the row"
                );
            }
        }
        assert_eq!(deterministic_drift(&json, &json), Vec::<String>::new());

        // Wall-clock fields never count as drift.
        assert_eq!(
            deterministic_drift(&json, &retimed(&json)),
            Vec::<String>::new()
        );

        // One top-level count, one phase counter and one flag changed: the
        // drift names exactly those three, old value first.
        let perturbed = [
            (&["iterations"][..], Json::from(row.iters + 1)),
            (&["phases", "undo_frames"][..], Json::from(1usize << 40)),
            (&["validated"][..], Json::Bool(false)),
        ]
        .iter()
        .fold(json.clone(), |row, (path, value)| {
            replaced(&row, path, value)
        });
        let drift = deterministic_drift(&json, &perturbed);
        let labels: Vec<&str> = drift
            .iter()
            .map(|line| line.split(':').next().unwrap())
            .collect();
        assert_eq!(labels, ["iterations", "phases.undo_frames", "validated"]);
        assert_eq!(
            drift[0],
            format!("iterations: {} → {}", row.iters, row.iters + 1)
        );
        assert_eq!(drift[2], "validated: true → false");
    }

    #[test]
    fn widened_config_keeps_lean_testing_for_realworld() {
        let realworld = benchmark_by_name("coachup").unwrap();
        let widened = widened_config_for(&realworld);
        assert_eq!(widened.testing.max_arg_combinations, Some(4));
        assert!(widened.sketch.relax_delete_coverage);
        let textbook = benchmark_by_name("Ambler-4").unwrap();
        let widened = widened_config_for(&textbook);
        assert_eq!(
            widened.testing.max_arg_combinations,
            SynthesisConfig::standard().testing.max_arg_combinations
        );
    }

    #[test]
    fn table1_row_for_the_smallest_benchmark() {
        let benchmark = benchmark_by_name("Ambler-4").unwrap();
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        assert!(row.succeeded);
        assert!(row.value_corr >= 1);
        assert!(row.total_time >= row.synth_time);
    }
}
