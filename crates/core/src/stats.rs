//! Statistics collected during synthesis, mirroring the columns of the
//! paper's evaluation tables, plus a per-phase breakdown of where the time
//! and allocation went.

use std::time::Duration;

use dbir::equiv::CheckProfile;

/// Statistics for one synthesis run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SynthesisStats {
    /// Number of value correspondences considered (Table 1, "Value Corr").
    pub value_correspondences: usize,
    /// Number of candidate programs explored across all sketches
    /// (Table 1 / Table 3, "Iters").
    pub iterations: usize,
    /// Number of candidate programs rejected because their hole assignment
    /// was structurally invalid (not counted as iterations by the paper, but
    /// useful for diagnostics).
    pub invalid_instantiations: usize,
    /// Number of sketches generated (one per value correspondence that
    /// produced a sketch).
    pub sketches_generated: usize,
    /// The completion count of the largest sketch explored (the size of the
    /// symbolic search space).
    pub largest_search_space: u128,
    /// Total number of invocation sequences executed while testing
    /// candidates.
    pub sequences_tested: usize,
    /// Number of equivalence checks that accepted a candidate *without*
    /// enumerating their whole bound (they stopped at
    /// `TestConfig::max_sequences`). Zero means every accepting verdict in
    /// the run genuinely exhausted its bound (`bound_exhausted` held for
    /// all of them); a non-zero value flags optimistic acceptances.
    pub truncated_checks: usize,
    /// Time spent in synthesis proper: value-correspondence enumeration,
    /// sketch generation and sketch completion including MFI search
    /// (Table 1, "Synth Time").
    pub synthesis_time: Duration,
    /// Time spent in the final verification pass (included in Table 1's
    /// "Total Time" but not in "Synth Time"). The pass runs through the
    /// winning sketch's prefix cache, whose remembered verdicts answer it,
    /// so this times a lookup: the depth-3 walk it stands for is inside
    /// the completion's time.
    pub verification_time: Duration,
    /// Where the time and allocation went, phase by phase.
    pub phases: PhaseBreakdown,
}

impl SynthesisStats {
    /// Total wall-clock time: synthesis plus verification
    /// (Table 1, "Total Time").
    pub fn total_time(&self) -> Duration {
        self.synthesis_time + self.verification_time
    }

    /// Merges statistics from solving one sketch into the running totals.
    pub fn absorb_sketch_run(&mut self, other: &SketchRunStats) {
        self.iterations += other.iterations;
        self.invalid_instantiations += other.invalid_instantiations;
        self.sequences_tested += other.sequences_tested;
        self.truncated_checks += other.truncated_checks;
        self.largest_search_space = self.largest_search_space.max(other.search_space);
        self.phases.sat_blocking_clauses += other.blocking_clauses;
        self.phases.solver_reuses += other.solver_reuses;
        self.phases.learned_clauses_kept += other.learned_clauses_kept;
    }
}

/// Per-phase breakdown of one synthesis run: where the wall-clock time and
/// the snapshot allocation went.
///
/// Two disciplines coexist here, and `experiments check` relies on the
/// distinction:
///
/// * **Deterministic counters** — `sat_blocking_clauses`, `solver_reuses`,
///   `learned_clauses_kept` and every counter of [`checks`](Self::checks)
///   are merged from the winning trajectory in enumeration order, so they
///   are byte-identical at any thread count (the same contract as the
///   synthesis event log). The incremental-solver counters are
///   deterministic because candidate speculation *always* runs —
///   [`parpool::join`] degrades to sequential execution rather than
///   skipping the probe — so the solver sees the same call sequence at any
///   thread budget; [`CheckProfile`] gives the reason for its own
///   counters.
/// * **Wall-clock timings** — every `*_time` field, here and in `checks`.
///   None of these may be compared across runs.
///
/// The time fields are not disjoint: `checks.plan_compile_time` and
/// `checks.snapshot_time` both nest inside the bounded testing time
/// (`checks.dfs_time + checks.plan_compile_time`), which itself sums
/// candidate checks across workers — so the sum of phases can exceed the
/// run's wall time on a multi-threaded run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Time spent enumerating value correspondences (MaxSAT queries).
    pub vc_enumeration_time: Duration,
    /// Time spent generating sketches from correspondences.
    pub sketch_generation_time: Duration,
    /// Time spent completing sketches: SAT solving, decoding, instantiation
    /// and MFI learning (includes the nested bounded testing).
    pub completion_time: Duration,
    /// Blocking clauses added by the SAT completion loop (deterministic).
    pub sat_blocking_clauses: usize,
    /// Solver calls answered by a *reused* persistent solver — every call
    /// after the first on each sketch's incremental solver (deterministic).
    pub solver_reuses: u64,
    /// Conflict clauses learned and retained across blocking clauses by the
    /// persistent solvers of the winning trajectory (deterministic).
    pub learned_clauses_kept: u64,
    /// Every bounded-testing check of the winning trajectory plus the final
    /// verification pass, folded with [`CheckProfile::merge`].
    pub checks: CheckProfile,
}

/// Statistics for solving a single sketch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SketchRunStats {
    /// Number of candidate programs whose equivalence was tested.
    pub iterations: usize,
    /// Number of structurally invalid hole assignments encountered.
    pub invalid_instantiations: usize,
    /// Number of invocation sequences executed.
    pub sequences_tested: usize,
    /// Number of equivalence checks that accepted a candidate without
    /// enumerating their whole bound (see
    /// [`SynthesisStats::truncated_checks`]).
    pub truncated_checks: usize,
    /// The sketch's completion count.
    pub search_space: u128,
    /// Number of blocking clauses added.
    pub blocking_clauses: usize,
    /// Solver calls beyond the first answered by this sketch's persistent
    /// incremental solver (each one reused the solver's learnt clauses,
    /// activities and saved phases instead of rebuilding from the CNF).
    pub solver_reuses: u64,
    /// Conflict clauses the persistent solver learned and retained across
    /// blocking clauses.
    pub learned_clauses_kept: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_time_adds_synthesis_and_verification() {
        let stats = SynthesisStats {
            synthesis_time: Duration::from_millis(300),
            verification_time: Duration::from_millis(200),
            ..SynthesisStats::default()
        };
        assert_eq!(stats.total_time(), Duration::from_millis(500));
    }

    #[test]
    fn absorb_accumulates_and_maximizes() {
        let mut stats = SynthesisStats::default();
        stats.absorb_sketch_run(&SketchRunStats {
            iterations: 3,
            invalid_instantiations: 1,
            sequences_tested: 40,
            truncated_checks: 1,
            search_space: 100,
            blocking_clauses: 2,
            solver_reuses: 4,
            learned_clauses_kept: 7,
        });
        stats.absorb_sketch_run(&SketchRunStats {
            iterations: 2,
            invalid_instantiations: 0,
            sequences_tested: 10,
            truncated_checks: 0,
            search_space: 50,
            blocking_clauses: 1,
            solver_reuses: 2,
            learned_clauses_kept: 1,
        });
        assert_eq!(stats.iterations, 5);
        assert_eq!(stats.invalid_instantiations, 1);
        assert_eq!(stats.sequences_tested, 50);
        assert_eq!(stats.truncated_checks, 1);
        assert_eq!(stats.largest_search_space, 100);
        assert_eq!(stats.phases.sat_blocking_clauses, 3);
        assert_eq!(stats.phases.solver_reuses, 6);
        assert_eq!(stats.phases.learned_clauses_kept, 8);
    }

    #[test]
    fn check_profiles_fold_into_the_phase_breakdown() {
        let mut phases = PhaseBreakdown::default();
        phases.checks.merge(&CheckProfile {
            plan_compile_time: Duration::from_millis(2),
            plans_compiled: 8,
            dfs_time: Duration::from_millis(10),
            snapshot_time: Duration::from_millis(4),
            snapshots_taken: 100,
            snapshot_bytes_copied: 4096,
            prefix_cache_hits: 5,
            undo_frames: 60,
            undo_ops_rolled_back: 200,
        });
        phases.checks.merge(&CheckProfile {
            plan_compile_time: Duration::from_millis(1),
            plans_compiled: 2,
            dfs_time: Duration::from_millis(3),
            snapshots_taken: 1,
            prefix_cache_hits: 3,
            undo_frames: 4,
            undo_ops_rolled_back: 10,
            ..CheckProfile::default()
        });
        assert_eq!(
            phases.checks,
            CheckProfile {
                plan_compile_time: Duration::from_millis(3),
                plans_compiled: 10,
                dfs_time: Duration::from_millis(13),
                snapshot_time: Duration::from_millis(4),
                snapshots_taken: 101,
                snapshot_bytes_copied: 4096,
                prefix_cache_hits: 8,
                undo_frames: 64,
                undo_ops_rolled_back: 210,
            }
        );
    }
}
