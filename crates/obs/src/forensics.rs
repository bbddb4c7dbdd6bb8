//! Search forensics: a deterministic ledger that explains *why* a
//! synthesis run came up empty, not just how long it ran.
//!
//! The span [`Trace`](crate::Trace) and the run's statistics answer
//! "where did the time go?". The [`SearchLedger`] answers the
//! questions a failed run raises: which value correspondences were
//! rejected and for what reason (sketch generation failed, every
//! completion blocked, iteration budget exhausted), which minimum failing
//! inputs killed the candidate cohorts, at what update-call depth the
//! candidates died, and which sketch-hole domains the learned blocking
//! clauses implicated.
//!
//! Everything is aggregated into **bounded histograms** — a fixed number
//! of death-depth buckets, a capped killer-query table, one counter per
//! hole-domain kind — so memory stays O(histogram) even when a search
//! explores hundreds of thousands of completions.
//!
//! ## Determinism contract
//!
//! The ledger is fed exclusively from the synthesis event main stream,
//! which is delivered in enumeration order at any thread count (worker
//! buffers are merged index-ordered; losing speculations are discarded).
//! Every counter here is therefore byte-identical at any thread budget,
//! and [`SearchLedger::render`] deliberately contains **no wall-clock
//! content** — the rendered report of a deterministic run can be compared
//! byte-for-byte across thread counts. The one exception is a run that
//! stops on a wall-clock deadline: *where* the interrupt lands is
//! inherently timing-dependent, so ledgers of timed-out runs are
//! approximate snapshots of the search at interrupt time.
//!
//! Like the event log, the ledger is poison-safe: a panic while holding
//! the state lock must not destroy the diagnostic record that explains
//! the crash.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

use sqlbridge::Json;

/// Death-depth buckets `0 ..= DEPTH_BUCKETS-2` update calls, with the last
/// bucket collecting everything deeper ("7+").
const DEPTH_BUCKETS: usize = 8;

/// Distinct killer-query names tracked before spilling into `(other)`.
const MAX_KILLER_QUERIES: usize = 32;

/// How the value-correspondence frontier ended.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FrontierEnd {
    /// The ranked correspondence space was fully drained.
    Drained {
        /// Correspondences the enumerator produced in total.
        produced: usize,
    },
    /// The MaxSAT encoding was unsatisfiable from the start: no
    /// correspondence maps every must-map attribute.
    Infeasible,
    /// The `max_value_correspondences` budget stopped the search with
    /// lower-ranked correspondences still unexplored.
    BudgetReached {
        /// Correspondences explored before the budget ran out.
        explored: usize,
    },
}

#[derive(Debug, Default)]
struct LedgerState {
    outcome: Option<String>,
    interrupted: Option<String>,
    correspondences: u64,
    frontier: Option<FrontierEnd>,
    sketches_generated: u64,
    sketch_gen_failed: u64,
    space_exhausted: u64,
    iteration_budget_hit: u64,
    solved: Option<(usize, usize)>,
    candidates_accepted: u64,
    candidates_rejected: u64,
    largest_completion_space: u128,
    mfi_count: u64,
    completions_pruned: u128,
    largest_cohort: u128,
    depth_histogram: [u64; DEPTH_BUCKETS],
    killer_queries: Vec<(String, u64)>,
    other_query_kills: u64,
    domain_blocks: Vec<(&'static str, u64)>,
}

/// A deterministic, bounded-memory record of where a synthesis search
/// spent its candidates and why they died.
///
/// Feed it from the synthesis event main stream (the pipeline facade's
/// `Refactoring::forensics` hook does this wiring), then read the result
/// with [`render`](SearchLedger::render) (stable text report) or
/// [`to_json`](SearchLedger::to_json) (machine-readable mirror).
///
/// ```
/// use obs::SearchLedger;
///
/// let ledger = SearchLedger::new();
/// ledger.correspondence_enumerated();
/// ledger.sketch_generated(4, 1_000);
/// ledger.candidate_checked(false);
/// ledger.mfi(1, "getScore", 250, &[("attr", 2), ("join", 1)]);
/// ledger.bound_exhausted(true);
/// ledger.frontier_drained(1, false);
/// ledger.set_outcome("no_solution");
/// let report = ledger.render();
/// assert!(report.contains("all completions blocked"));
/// assert!(report.contains("getScore"));
/// ```
#[derive(Debug, Default)]
pub struct SearchLedger {
    state: Mutex<LedgerState>,
}

impl SearchLedger {
    /// An empty ledger.
    pub fn new() -> SearchLedger {
        SearchLedger::default()
    }

    /// Locks the state, recovering it from a panicked thread if needed.
    fn state(&self) -> MutexGuard<'_, LedgerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A value correspondence was enumerated and committed to.
    pub fn correspondence_enumerated(&self) {
        self.state().correspondences += 1;
    }

    /// A sketch with `holes` holes and `completions` possible
    /// instantiations was generated.
    pub fn sketch_generated(&self, holes: usize, completions: u128) {
        let _ = holes;
        let mut state = self.state();
        state.sketches_generated += 1;
        state.largest_completion_space = state.largest_completion_space.max(completions);
    }

    /// Sketch generation produced no sketch for a correspondence.
    pub fn sketch_generation_failed(&self) {
        self.state().sketch_gen_failed += 1;
    }

    /// One candidate completion went through bounded testing.
    pub fn candidate_checked(&self, accepted: bool) {
        let mut state = self.state();
        if accepted {
            state.candidates_accepted += 1;
        } else {
            state.candidates_rejected += 1;
        }
    }

    /// A minimum failing input killed a candidate cohort.
    ///
    /// * `depth` — update calls preceding the distinguishing query;
    /// * `query` — name of the distinguishing query function;
    /// * `pruned` — completions sharing the blocked hole assignment (the
    ///   cohort the learned clause removes from the space);
    /// * `domains` — blocked-hole counts per hole-domain kind.
    pub fn mfi(&self, depth: usize, query: &str, pruned: u128, domains: &[(&'static str, usize)]) {
        let mut state = self.state();
        state.mfi_count += 1;
        state.completions_pruned = state.completions_pruned.saturating_add(pruned);
        state.largest_cohort = state.largest_cohort.max(pruned);
        let bucket = depth.min(DEPTH_BUCKETS - 1);
        state.depth_histogram[bucket] += 1;
        if let Some(entry) = state
            .killer_queries
            .iter_mut()
            .find(|(name, _)| name == query)
        {
            entry.1 += 1;
        } else if state.killer_queries.len() < MAX_KILLER_QUERIES {
            state.killer_queries.push((query.to_string(), 1));
        } else {
            state.other_query_kills += 1;
        }
        for &(kind, count) in domains {
            if let Some(entry) = state
                .domain_blocks
                .iter_mut()
                .find(|(name, _)| *name == kind)
            {
                entry.1 += count as u64;
            } else {
                state.domain_blocks.push((kind, count as u64));
            }
        }
    }

    /// A correspondence's completion search gave up: either the SAT space
    /// was drained (`space_exhausted`, every completion blocked) or the
    /// per-sketch iteration budget ran out.
    pub fn bound_exhausted(&self, space_exhausted: bool) {
        let mut state = self.state();
        if space_exhausted {
            state.space_exhausted += 1;
        } else {
            state.iteration_budget_hit += 1;
        }
    }

    /// The `index`-th correspondence solved the problem after
    /// `iterations` candidates.
    pub fn solved(&self, index: usize, iterations: usize) {
        self.state().solved = Some((index, iterations));
    }

    /// The run was interrupted (deadline or cancellation).
    pub fn interrupted(&self, reason: &str) {
        self.state().interrupted = Some(reason.to_string());
    }

    /// The correspondence enumerator ran dry after producing `produced`
    /// correspondences; `infeasible` marks a MaxSAT-unsat frontier (no
    /// correspondence satisfies the must-map constraints at all).
    pub fn frontier_drained(&self, produced: usize, infeasible: bool) {
        self.state().frontier = Some(if infeasible {
            FrontierEnd::Infeasible
        } else {
            FrontierEnd::Drained { produced }
        });
    }

    /// The `max_value_correspondences` budget stopped the search after
    /// exploring `explored` correspondences, leaving lower-ranked
    /// correspondences unexplored ("ranked out").
    pub fn frontier_budget_reached(&self, explored: usize) {
        self.state().frontier = Some(FrontierEnd::BudgetReached { explored });
    }

    /// Records the run's final outcome (e.g. `no_solution`, `solved`).
    pub fn set_outcome(&self, outcome: &str) {
        self.state().outcome = Some(outcome.to_string());
    }

    /// Renders the deterministic text report.
    ///
    /// Contains no wall-clock content: for a run that ends without a
    /// deadline interrupt, the rendering is byte-identical at any thread
    /// count.
    pub fn render(&self) -> String {
        let state = self.state();
        let mut out = String::new();
        out.push_str("== search forensics ==\n");
        let outcome = state.outcome.as_deref().unwrap_or("unknown");
        let _ = writeln!(out, "outcome: {outcome}");
        if let Some(reason) = &state.interrupted {
            let _ = writeln!(out, "interrupted: {reason} (counters are a snapshot)");
        }
        let frontier = match &state.frontier {
            None => "search ended before the frontier".to_string(),
            Some(FrontierEnd::Drained { produced }) => {
                format!("ranked space drained after {produced} correspondences")
            }
            Some(FrontierEnd::Infeasible) => {
                "MaxSAT infeasible: no correspondence maps every required attribute".to_string()
            }
            Some(FrontierEnd::BudgetReached { explored }) => format!(
                "correspondence budget reached after {explored} (lower-ranked tail unexplored)"
            ),
        };
        let _ = writeln!(
            out,
            "value correspondences: {} explored; {frontier}",
            state.correspondences
        );
        out.push_str("rejection taxonomy (per correspondence):\n");
        let _ = writeln!(
            out,
            "  sketch generation failed   {:>8}",
            state.sketch_gen_failed
        );
        let _ = writeln!(
            out,
            "  all completions blocked    {:>8}",
            state.space_exhausted
        );
        let _ = writeln!(
            out,
            "  iteration budget exhausted {:>8}",
            state.iteration_budget_hit
        );
        match state.solved {
            Some((index, iterations)) => {
                let _ = writeln!(
                    out,
                    "  solved                     {:>8}  (correspondence[{index}] after \
                     {iterations} candidates)",
                    1
                );
            }
            None => {
                let _ = writeln!(out, "  solved                     {:>8}", 0);
            }
        }
        let _ = writeln!(
            out,
            "candidates checked: {} ({} accepted, {} rejected)",
            state.candidates_accepted + state.candidates_rejected,
            state.candidates_accepted,
            state.candidates_rejected
        );
        let _ = writeln!(
            out,
            "sketches generated: {}; largest completion space: {}",
            state.sketches_generated, state.largest_completion_space
        );
        let _ = writeln!(
            out,
            "blocking clauses (MFIs): {} learned, pruning {} completions (largest cohort {})",
            state.mfi_count, state.completions_pruned, state.largest_cohort
        );
        if state.mfi_count > 0 {
            out.push_str("death depth (update calls before the distinguishing query):\n");
            for (depth, count) in state.depth_histogram.iter().enumerate() {
                if *count == 0 {
                    continue;
                }
                let label = if depth == DEPTH_BUCKETS - 1 {
                    format!("{depth}+ updates")
                } else {
                    format!("{depth} updates ")
                };
                let _ = writeln!(out, "  {label:<12} {count:>8}");
            }
            out.push_str("killer queries (distinguishing query of each MFI):\n");
            for (query, count) in &state.killer_queries {
                let _ = writeln!(out, "  {query:<26} {count:>8}");
            }
            if state.other_query_kills > 0 {
                let _ = writeln!(out, "  {:<26} {:>8}", "(other)", state.other_query_kills);
            }
            out.push_str("hole domains implicated in blocking clauses:\n");
            for (kind, count) in &state.domain_blocks {
                let _ = writeln!(out, "  {kind:<26} {count:>8}");
            }
        }
        out
    }

    /// The machine-readable mirror of [`render`](SearchLedger::render).
    ///
    /// `u128`-valued fields (completion-space and pruned-cohort sizes) are
    /// encoded as decimal strings: they can exceed every JSON number
    /// representation the in-tree parser guarantees round-trips.
    pub fn to_json(&self) -> Json {
        let state = self.state();
        let frontier = match &state.frontier {
            None => Json::Null,
            Some(FrontierEnd::Drained { produced }) => Json::object()
                .with("kind", Json::str("drained"))
                .with("produced", Json::from(*produced)),
            Some(FrontierEnd::Infeasible) => {
                Json::object().with("kind", Json::str("maxsat_infeasible"))
            }
            Some(FrontierEnd::BudgetReached { explored }) => Json::object()
                .with("kind", Json::str("budget_reached"))
                .with("explored", Json::from(*explored)),
        };
        let taxonomy = Json::object()
            .with(
                "sketch_generation_failed",
                Json::from(state.sketch_gen_failed as usize),
            )
            .with(
                "all_completions_blocked",
                Json::from(state.space_exhausted as usize),
            )
            .with(
                "iteration_budget_exhausted",
                Json::from(state.iteration_budget_hit as usize),
            )
            .with("solved", Json::from(usize::from(state.solved.is_some())));
        let mut death_depth = Vec::new();
        for (depth, count) in state.depth_histogram.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            let label = if depth == DEPTH_BUCKETS - 1 {
                format!("{depth}+")
            } else {
                depth.to_string()
            };
            death_depth.push(
                Json::object()
                    .with("updates", Json::str(&label))
                    .with("count", Json::from(*count as usize)),
            );
        }
        let mut killers = Vec::new();
        for (query, count) in &state.killer_queries {
            killers.push(
                Json::object()
                    .with("query", Json::str(query))
                    .with("count", Json::from(*count as usize)),
            );
        }
        if state.other_query_kills > 0 {
            killers.push(
                Json::object()
                    .with("query", Json::str("(other)"))
                    .with("count", Json::from(state.other_query_kills as usize)),
            );
        }
        let mut domains = Vec::new();
        for (kind, count) in &state.domain_blocks {
            domains.push(
                Json::object()
                    .with("domain", Json::str(*kind))
                    .with("count", Json::from(*count as usize)),
            );
        }
        let solved = match state.solved {
            Some((index, iterations)) => Json::object()
                .with("correspondence", Json::from(index))
                .with("iterations", Json::from(iterations)),
            None => Json::Null,
        };
        Json::object()
            .with(
                "outcome",
                match &state.outcome {
                    Some(outcome) => Json::str(outcome),
                    None => Json::Null,
                },
            )
            .with(
                "interrupted",
                match &state.interrupted {
                    Some(reason) => Json::str(reason),
                    None => Json::Null,
                },
            )
            .with(
                "value_correspondences",
                Json::from(state.correspondences as usize),
            )
            .with("frontier", frontier)
            .with("taxonomy", taxonomy)
            .with("solved", solved)
            .with(
                "candidates",
                Json::object()
                    .with(
                        "checked",
                        Json::from(
                            (state.candidates_accepted + state.candidates_rejected) as usize,
                        ),
                    )
                    .with("accepted", Json::from(state.candidates_accepted as usize))
                    .with("rejected", Json::from(state.candidates_rejected as usize)),
            )
            .with(
                "sketches_generated",
                Json::from(state.sketches_generated as usize),
            )
            .with(
                "largest_completion_space",
                Json::str(state.largest_completion_space.to_string()),
            )
            .with(
                "mfi",
                Json::object()
                    .with("count", Json::from(state.mfi_count as usize))
                    .with(
                        "completions_pruned",
                        Json::str(state.completions_pruned.to_string()),
                    )
                    .with(
                        "largest_cohort",
                        Json::str(state.largest_cohort.to_string()),
                    ),
            )
            .with("death_depth", Json::Array(death_depth))
            .with("killer_queries", Json::Array(killers))
            .with("hole_domains", Json::Array(domains))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failing_ledger() -> SearchLedger {
        let ledger = SearchLedger::new();
        ledger.correspondence_enumerated();
        ledger.sketch_generated(3, 1_000);
        ledger.candidate_checked(false);
        ledger.mfi(0, "getScore", 100, &[("attr", 2)]);
        ledger.candidate_checked(false);
        ledger.mfi(2, "getScore", 50, &[("attr", 1), ("join", 1)]);
        ledger.bound_exhausted(true);
        ledger.correspondence_enumerated();
        ledger.sketch_generation_failed();
        ledger.frontier_budget_reached(2);
        ledger.set_outcome("no_solution");
        ledger
    }

    #[test]
    fn render_reports_the_taxonomy_and_histograms() {
        let report = failing_ledger().render();
        assert!(report.starts_with("== search forensics ==\n"));
        assert!(report.contains("outcome: no_solution"));
        assert!(report.contains("correspondence budget reached after 2"));
        assert!(report.contains("sketch generation failed"));
        assert!(report.contains("all completions blocked"));
        assert!(report.contains("candidates checked: 2 (0 accepted, 2 rejected)"));
        assert!(report.contains("2 learned, pruning 150 completions (largest cohort 100)"));
        assert!(report.contains("0 updates"));
        assert!(report.contains("2 updates"));
        assert!(report.contains("getScore"));
        assert!(report.contains("attr"));
        assert!(report.contains("join"));
        // No wall-clock content: nothing in the report is a duration.
        assert!(!report.contains("ms"));
    }

    #[test]
    fn json_mirrors_the_report() {
        let json = failing_ledger().to_json();
        let parsed = Json::parse(&json.to_compact_string()).expect("ledger JSON parses");
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some("no_solution")
        );
        let taxonomy = parsed.get("taxonomy").expect("taxonomy");
        assert_eq!(
            taxonomy
                .get("all_completions_blocked")
                .and_then(Json::as_i128),
            Some(1)
        );
        assert_eq!(
            taxonomy
                .get("sketch_generation_failed")
                .and_then(Json::as_i128),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("mfi")
                .and_then(|m| m.get("completions_pruned"))
                .and_then(Json::as_str),
            Some("150")
        );
        let killers = parsed
            .get("killer_queries")
            .and_then(Json::as_array)
            .expect("killer queries");
        assert_eq!(killers.len(), 1);
        assert_eq!(
            killers[0].get("query").and_then(Json::as_str),
            Some("getScore")
        );
        assert_eq!(killers[0].get("count").and_then(Json::as_i128), Some(2));
    }

    #[test]
    fn depth_overflow_and_query_cap_stay_bounded() {
        let ledger = SearchLedger::new();
        for i in 0..100 {
            ledger.mfi(i, &format!("q{i}"), 1, &[]);
        }
        let state = ledger.state();
        // Depths 7..=99 collapse into the overflow bucket.
        assert_eq!(state.depth_histogram[DEPTH_BUCKETS - 1], 93);
        // Only the first 32 distinct query names get their own row.
        assert_eq!(state.killer_queries.len(), MAX_KILLER_QUERIES);
        assert_eq!(state.other_query_kills, 100 - MAX_KILLER_QUERIES as u64);
        drop(state);
        let report = ledger.render();
        assert!(report.contains("7+ updates"));
        assert!(report.contains("(other)"));
    }

    #[test]
    fn a_poisoned_ledger_still_renders() {
        let ledger = std::sync::Arc::new(SearchLedger::new());
        ledger.set_outcome("solved");
        let poisoner = std::sync::Arc::clone(&ledger);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("holder panicked");
        })
        .join();
        assert!(result.is_err());
        assert!(ledger.render().contains("outcome: solved"));
        ledger.correspondence_enumerated();
        assert_eq!(ledger.state().correspondences, 1);
    }

    #[test]
    fn solved_runs_render_the_winning_correspondence() {
        let ledger = SearchLedger::new();
        ledger.correspondence_enumerated();
        ledger.sketch_generated(2, 8);
        ledger.candidate_checked(true);
        ledger.solved(0, 1);
        ledger.set_outcome("solved");
        let report = ledger.render();
        assert!(report.contains("correspondence[0] after 1 candidates"));
        assert!(report.contains("candidates checked: 1 (1 accepted, 0 rejected)"));
        // No MFIs: the histogram sections are omitted entirely.
        assert!(!report.contains("death depth"));
    }
}
