//! Machine-readable reports: the typed stage outputs rendered as one JSON
//! document (the `migrate --json` payload).

use std::time::Duration;

use migrator::{PhaseBreakdown, SynthesisOutcome, SynthesisStats, ValueCorrespondence};
use sqlbridge::Json;
use sqlexec::ValidationOutcome;

use crate::{Emitted, Synthesized};

/// Renders the per-phase breakdown as a JSON object. This is the one
/// place that names each phase field; the experiments harness reads the
/// counters back from this JSON.
///
/// The counters are exact and identical at any thread count; the `*_secs`
/// fields are wall-clock and must never be compared across runs.
/// `bounded_testing_secs` is the checks' walk plus their preparation
/// (`dfs_time + plan_compile_time`). The experiments harness checks every
/// counter (`sat_blocking_clauses`, `plans_compiled`, `solver_reuses`,
/// `learned_clauses_kept`, `prefix_cache_hits`, `undo_frames`,
/// `undo_ops_rolled_back`, `snapshots_taken`, `snapshot_bytes_copied`).
pub fn phases_json(phases: &PhaseBreakdown) -> Json {
    let checks = &phases.checks;
    let secs = |time: Duration| Json::from(time.as_secs_f64());
    let count = |value: u64| Json::from(value as usize);
    Json::object()
        .with("vc_enumeration_secs", secs(phases.vc_enumeration_time))
        .with(
            "sketch_generation_secs",
            secs(phases.sketch_generation_time),
        )
        .with("completion_secs", secs(phases.completion_time))
        .with(
            "bounded_testing_secs",
            secs(checks.dfs_time + checks.plan_compile_time),
        )
        .with("plan_compile_secs", secs(checks.plan_compile_time))
        .with("snapshot_secs", secs(checks.snapshot_time))
        .with("sat_blocking_clauses", phases.sat_blocking_clauses.into())
        .with("plans_compiled", count(checks.plans_compiled))
        .with("solver_reuses", count(phases.solver_reuses))
        .with("learned_clauses_kept", count(phases.learned_clauses_kept))
        .with("prefix_cache_hits", count(checks.prefix_cache_hits))
        .with("undo_frames", count(checks.undo_frames))
        .with("undo_ops_rolled_back", count(checks.undo_ops_rolled_back))
        .with("snapshots_taken", count(checks.snapshots_taken))
        .with("snapshot_bytes_copied", count(checks.snapshot_bytes_copied))
}

/// Renders synthesis statistics as a JSON object.
pub fn stats_json(stats: &SynthesisStats, outcome: SynthesisOutcome) -> Json {
    Json::object()
        .with("outcome", Json::str(outcome.as_str()))
        .with("succeeded", Json::Bool(outcome == SynthesisOutcome::Solved))
        .with("value_correspondences", stats.value_correspondences.into())
        .with("sketches_generated", stats.sketches_generated.into())
        .with("iterations", stats.iterations.into())
        .with(
            "invalid_instantiations",
            stats.invalid_instantiations.into(),
        )
        .with("largest_search_space", stats.largest_search_space.into())
        .with("sequences_tested", stats.sequences_tested.into())
        .with(
            "synthesis_time_secs",
            stats.synthesis_time.as_secs_f64().into(),
        )
        .with(
            "verification_time_secs",
            stats.verification_time.as_secs_f64().into(),
        )
        .with("total_time_secs", stats.total_time().as_secs_f64().into())
        .with("phases", phases_json(&stats.phases))
}

/// Renders a value correspondence as an object: source attribute →
/// array of target attributes.
pub fn correspondence_json(phi: &ValueCorrespondence) -> Json {
    let mut object = Json::object();
    for (source, images) in phi.iter() {
        if images.is_empty() {
            continue;
        }
        let targets: Vec<Json> = images.iter().map(|t| Json::str(t.to_string())).collect();
        object = object.with(source.to_string(), Json::Array(targets));
    }
    object
}

/// Renders a validation outcome as a JSON object.
pub fn validation_json(outcome: &ValidationOutcome) -> Json {
    let diffs = outcome
        .diffs
        .iter()
        .map(|d| Json::str(d.to_string()))
        .collect();
    let details = outcome.details.iter().map(Json::str).collect();
    Json::object()
        .with("validated", Json::Bool(outcome.ok))
        .with("backend", Json::str(&outcome.backend))
        .with("dialect", Json::str(&outcome.dialect))
        .with("seeded_rows", outcome.seeded_rows.into())
        .with("migrated_rows", outcome.migrated_rows.into())
        .with("diffs", Json::Array(diffs))
        .with("details", Json::Array(details))
}

fn string_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(Json::str).collect())
}

/// Renders the whole refactoring result — correspondence, program, SQL,
/// migration script, optional validation, statistics and the outcome kind —
/// as one JSON document built from the typed stage outputs.
pub fn result_json(
    synthesized: &Synthesized,
    emitted: &Emitted,
    validation: Option<&ValidationOutcome>,
) -> Json {
    let functions: Vec<Json> = emitted
        .functions
        .iter()
        .map(|function| {
            let params: Vec<Json> = function
                .params
                .iter()
                .map(|(name, ty)| {
                    Json::object()
                        .with("name", Json::str(name))
                        .with("type", Json::str(ty.to_string()))
                })
                .collect();
            Json::object()
                .with("name", Json::str(&function.name))
                .with(
                    "kind",
                    Json::str(if function.is_query { "query" } else { "update" }),
                )
                .with("params", Json::Array(params))
                .with("fresh_ids", string_array(&function.fresh_ids))
                .with("statements", string_array(&function.statements))
        })
        .collect();
    Json::object()
        .with("outcome", Json::str(synthesized.outcome.as_str()))
        .with("dialect", Json::str(emitted.dialect.name()))
        .with(
            "correspondence",
            correspondence_json(&synthesized.correspondence),
        )
        .with("program", Json::str(synthesized.program_text()))
        .with(
            "sql",
            Json::object()
                .with("script", Json::str(&emitted.program_sql))
                .with("functions", Json::Array(functions)),
        )
        .with("target_ddl", Json::str(&emitted.target_ddl))
        .with(
            "migration",
            Json::object()
                .with("notes", string_array(&emitted.script.notes))
                .with("preamble", string_array(&emitted.script.preamble))
                .with("statements", string_array(&emitted.script.statements))
                .with("cleanup", string_array(&emitted.script.cleanup))
                .with("script", Json::str(&emitted.migration_sql)),
        )
        .with(
            "validation",
            match validation {
                Some(outcome) => validation_json(outcome),
                None => Json::Null,
            },
        )
        .with("stats", stats_json(&synthesized.stats, synthesized.outcome))
}

/// The JSON document for a run that produced no program: the outcome kind,
/// the (possibly partial) statistics and — when a
/// [`SearchLedger`](crate::SearchLedger) was attached — the forensics
/// summary explaining *why* the search came up empty (rejection taxonomy,
/// MFI-kill / death-depth / hole-domain histograms).
pub fn failure_json(
    outcome: SynthesisOutcome,
    stats: &SynthesisStats,
    forensics: Option<&crate::SearchLedger>,
) -> Json {
    Json::object()
        .with("outcome", Json::str(outcome.as_str()))
        .with("stats", stats_json(stats, outcome))
        .with(
            "forensics",
            match forensics {
                Some(ledger) => ledger.to_json(),
                None => Json::Null,
            },
        )
}

/// The `migrate explain` document: the outcome kind, statistics and the
/// forensics summary. Same shape as [`failure_json`] with the ledger
/// always present — `explain` reports solved runs too.
pub fn explain_json(
    outcome: SynthesisOutcome,
    stats: &SynthesisStats,
    ledger: &crate::SearchLedger,
) -> Json {
    failure_json(outcome, stats, Some(ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbir::equiv::CheckProfile;

    #[test]
    fn phases_render_every_field_in_order_with_bounded_testing_summed() {
        let phases = PhaseBreakdown {
            sat_blocking_clauses: 3,
            checks: CheckProfile {
                plan_compile_time: Duration::from_millis(250),
                dfs_time: Duration::from_millis(500),
                plans_compiled: 7,
                ..CheckProfile::default()
            },
            ..PhaseBreakdown::default()
        };
        let json = phases_json(&phases);
        let Json::Object(entries) = &json else {
            panic!("phases render as an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "vc_enumeration_secs",
                "sketch_generation_secs",
                "completion_secs",
                "bounded_testing_secs",
                "plan_compile_secs",
                "snapshot_secs",
                "sat_blocking_clauses",
                "plans_compiled",
                "solver_reuses",
                "learned_clauses_kept",
                "prefix_cache_hits",
                "undo_frames",
                "undo_ops_rolled_back",
                "snapshots_taken",
                "snapshot_bytes_copied",
            ]
        );
        let secs = |key: &str| json.get(key).and_then(Json::as_f64);
        assert_eq!(secs("bounded_testing_secs"), Some(0.75));
        assert_eq!(secs("plan_compile_secs"), Some(0.25));
        let count = |key: &str| json.get(key).and_then(Json::as_i128);
        assert_eq!(count("sat_blocking_clauses"), Some(3));
        assert_eq!(count("plans_compiled"), Some(7));
    }
}
