//! The top-level synthesis driver (Algorithm 1 of the paper).
//!
//! [`Synthesizer::synthesize`] lazily enumerates value correspondences,
//! generates a sketch for each and attempts to complete it; the first
//! completion that passes verification is returned. If the correspondence
//! space is exhausted (or the configured budget runs out) the result carries
//! no program, mirroring the paper's `⊥`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dbir::{Program, Schema};

use dbir::equiv::{CheckProfile, PrefixCache, SourceOracle};
use parpool::{CancelReason, CancelToken};

use crate::completion::{complete_sketch, BlockingStrategy, CompletionControls, CompletionOutcome};
use crate::config::{SketchSolverKind, SynthesisConfig};
use crate::observe::{SynthesisEvent, SynthesisObserver};
use crate::sketch_gen::generate_sketch;
use crate::stats::SynthesisStats;
use crate::value_corr::{ValueCorrespondence, VcEnumerator};
use crate::verify::{check_candidate_cached, CheckOutcome};

/// Per-attempt phase accounting, buffered next to the attempt's events and
/// absorbed into [`SynthesisStats::phases`] only when the attempt is merged
/// on the winning trajectory — losing speculative attempts never
/// contaminate the breakdown.
#[derive(Debug, Default)]
struct AttemptProfile {
    sketch_generation: Duration,
    completion: Duration,
    check: CheckProfile,
}

/// How a synthesis run ended.
///
/// Distinguishing [`SynthesisOutcome::Timeout`] and
/// [`SynthesisOutcome::Cancelled`] from [`SynthesisOutcome::NoSolution`]
/// matters: a budget overrun says nothing about whether an equivalent
/// program exists, while `NoSolution` means the configured correspondence
/// space was genuinely exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthesisOutcome {
    /// An equivalent program was found and verified.
    Solved,
    /// The configured search space was exhausted without finding an
    /// equivalent program.
    NoSolution,
    /// The run's wall-clock deadline passed before the search finished.
    Timeout,
    /// The run's [`CancelToken`] was cancelled explicitly.
    Cancelled,
}

impl SynthesisOutcome {
    /// A stable lowercase name (`solved`, `no_solution`, `timeout`,
    /// `cancelled`) for machine-readable output.
    pub fn as_str(&self) -> &'static str {
        match self {
            SynthesisOutcome::Solved => "solved",
            SynthesisOutcome::NoSolution => "no_solution",
            SynthesisOutcome::Timeout => "timeout",
            SynthesisOutcome::Cancelled => "cancelled",
        }
    }
}

/// The result of a synthesis run: the migrated program (if one was found)
/// plus statistics matching the paper's evaluation columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisResult {
    /// The synthesized program over the target schema, or `None` if no
    /// equivalent program was found within the configured budget.
    pub program: Option<Program>,
    /// The value correspondence the synthesized program was derived from
    /// (`None` when synthesis failed). Downstream tooling uses it to derive
    /// a data-migration script alongside the migrated program.
    pub correspondence: Option<ValueCorrespondence>,
    /// How the run ended. [`SynthesisOutcome::Timeout`] and
    /// [`SynthesisOutcome::Cancelled`] results carry the partial statistics
    /// accumulated before the interruption.
    pub outcome: SynthesisOutcome,
    /// Statistics about the run.
    pub stats: SynthesisStats,
}

impl SynthesisResult {
    /// Returns `true` if a program was synthesized.
    pub fn succeeded(&self) -> bool {
        self.program.is_some()
    }
}

/// Synthesizes database programs for schema refactoring.
///
/// Beyond the configuration, a synthesizer can carry two optional
/// cross-cutting hooks, installed builder-style:
///
/// * [`Synthesizer::with_observer`] — a [`SynthesisObserver`] receiving
///   typed progress events in deterministic enumeration order;
/// * [`Synthesizer::with_cancel`] / [`Synthesizer::with_deadline`] — a
///   [`CancelToken`] polled throughout the pipeline (correspondence
///   fan-out, completion loop, bounded-testing walk), turning the blocking
///   [`Synthesizer::synthesize`] call into one that can be interrupted from
///   another thread or bounded by wall-clock time.
#[derive(Clone, Default)]
pub struct Synthesizer {
    config: SynthesisConfig,
    observer: Option<Arc<dyn SynthesisObserver>>,
    cancel: CancelToken,
    budget: Option<Duration>,
}

impl std::fmt::Debug for Synthesizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synthesizer")
            .field("config", &self.config)
            .field("observer", &self.observer.is_some())
            .field("cancel", &self.cancel)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Synthesizer {
        Synthesizer {
            config,
            observer: None,
            cancel: CancelToken::new(),
            budget: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Installs an observer receiving [`SynthesisEvent`]s (see
    /// [`crate::observe`] for the determinism contract).
    pub fn with_observer(mut self, observer: Arc<dyn SynthesisObserver>) -> Synthesizer {
        self.observer = Some(observer);
        self
    }

    /// Installs a cancellation token. Clone the token before passing it in
    /// to keep a handle for cancelling the run from another thread.
    pub fn with_cancel(mut self, token: CancelToken) -> Synthesizer {
        self.cancel = token;
        self
    }

    /// Bounds each run by wall-clock time: a run exceeding `budget` stops
    /// at the next cancellation point and reports
    /// [`SynthesisOutcome::Timeout`].
    ///
    /// The clock starts when [`Synthesizer::synthesize`] is called — not
    /// when the builder is configured — and every run gets a fresh budget,
    /// so a synthesizer (or a clone of one) can be reused after a timeout.
    /// A budget composes with [`Synthesizer::with_cancel`]: each run polls
    /// a per-run deadline token *linked* to the installed one, so explicit
    /// cancellation still fires. To share one *absolute* deadline across
    /// runs, install [`CancelToken::with_deadline`] explicitly instead.
    pub fn with_deadline(mut self, budget: Duration) -> Synthesizer {
        self.budget = Some(budget);
        self
    }

    /// The installed cancellation token: cancel it (from any thread) to
    /// stop an in-flight [`Synthesizer::synthesize`] at its next polling
    /// point — with or without a [`Synthesizer::with_deadline`] budget.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Synthesizes a program over `target_schema` equivalent to `source`
    /// (over `source_schema`), following the paper's three-stage pipeline.
    ///
    /// Value correspondences are explored **speculatively in parallel**:
    /// they are pulled from the enumerator in batches (ramping up from one —
    /// so a run whose very first correspondence succeeds, the common case,
    /// leaves the whole thread budget to that completion's bounded checks —
    /// towards twice the thread budget once early correspondences keep
    /// failing), each batch's sketches are generated and completed on worker
    /// threads, and the results are merged **in enumeration order** with the
    /// lowest-index success winning. Correspondences after the winner are
    /// cancelled and their partial statistics discarded, so
    /// `value_correspondences`, `iterations` and `sequences_tested` are
    /// byte-identical to the sequential one-at-a-time trajectory at any
    /// thread count.
    pub fn synthesize(
        &self,
        source: &Program,
        source_schema: &Schema,
        target_schema: &Schema,
    ) -> SynthesisResult {
        let synthesis_start = Instant::now();
        let mut stats = SynthesisStats::default();
        let strategy = match self.config.solver {
            SketchSolverKind::MfiGuided => BlockingStrategy::MinimumFailingInput,
            SketchSolverKind::Enumerative => BlockingStrategy::FullModel,
        };
        // A wall-clock budget mints a fresh deadline token per run (the
        // clock starts now), *linked* to the installed token so explicit
        // cross-thread cancellation still fires under a budget.
        let run_token = match self.budget {
            Some(budget) => self.cancel.linked_with_timeout(budget),
            None => self.cancel.clone(),
        };
        let token = &run_token;
        // Deterministic main stream (enumeration order, merge loop only).
        let emit = |event: &SynthesisEvent| {
            if let Some(observer) = &self.observer {
                observer.event(event);
            }
        };
        // Scheduling-dependent side channel (speculation notices).
        let speculate = |event: &SynthesisEvent| {
            if let Some(observer) = &self.observer {
                observer.speculation(event);
            }
        };

        let mut enumerator =
            VcEnumerator::new(source, source_schema, target_schema, &self.config.vc);

        // One source oracle for the whole run: the source side of every
        // check, whose call ids key the prefix caches of every sketch. It
        // keeps no outcomes — each check evaluates the source's queries on
        // its own walk, which costs less than a memo lookup.
        let oracle = SourceOracle::new(source, source_schema);

        // Generates the sketch for one correspondence and completes it,
        // buffering the completion's events. Self-contained per
        // correspondence (own SAT solver, own blocking clauses, own event
        // buffer, own prefix cache), so running it on a worker thread yields
        // the same outcome, statistics and events as running it inline. The
        // sketch's prefix cache comes back only with a found program, for
        // the final check; every other attempt drops it where it ran.
        let attempt = |index: usize,
                       phi: &ValueCorrespondence,
                       cancel: Option<&(dyn Fn() -> bool + Sync)>|
         -> (
            Option<CompletionOutcome>,
            Vec<SynthesisEvent>,
            AttemptProfile,
            Option<PrefixCache>,
        ) {
            let mut events = Vec::new();
            let mut profile = AttemptProfile::default();
            let generation_start = Instant::now();
            let sketch = generate_sketch(source, phi, target_schema, &self.config.sketch);
            profile.sketch_generation = generation_start.elapsed();
            let Some(sketch) = sketch else {
                return (None, events, profile, None);
            };
            events.push(SynthesisEvent::SketchGenerated {
                index,
                holes: sketch.holes.len(),
                completions: sketch.completion_count(),
            });
            let completion_start = Instant::now();
            let mut cache = PrefixCache::new();
            let outcome = complete_sketch(
                &sketch,
                &oracle,
                target_schema,
                &self.config.testing,
                &self.config.verification,
                strategy,
                self.config.max_iterations_per_sketch,
                CompletionControls {
                    cancel,
                    token: Some(token),
                    index,
                    events: Some(&mut events),
                    profile: Some(&mut profile.check),
                    cache: Some(&mut cache),
                },
            );
            let cache = outcome.program.is_some().then_some(cache);
            profile.completion = completion_start.elapsed();
            (Some(outcome), events, profile, cache)
        };

        let speculation_cap = parpool::thread_limit().max(1).saturating_mul(2);
        let mut batch_size = 1usize;
        // Absolute enumeration position of the next correspondence pulled.
        let mut next_index = 0usize;
        let mut interrupted = false;
        'batches: loop {
            if token.is_cancelled() {
                interrupted = true;
                break;
            }
            let remaining = if self.config.max_value_correspondences > 0 {
                self.config
                    .max_value_correspondences
                    .saturating_sub(stats.value_correspondences)
            } else {
                usize::MAX
            };
            if remaining == 0 {
                emit(&SynthesisEvent::FrontierBudgetReached {
                    explored: stats.value_correspondences,
                });
                break;
            }
            let mut phis = Vec::new();
            let enumeration_start = Instant::now();
            while phis.len() < batch_size.min(remaining) {
                match enumerator.next_correspondence() {
                    Some(phi) => phis.push(phi),
                    None => break,
                }
            }
            stats.phases.vc_enumeration_time += enumeration_start.elapsed();
            if phis.is_empty() {
                // Both frontier events fire from the loop head after the
                // previous batch is fully merged, so their position in the
                // main stream is enumeration-ordered and thread-count
                // independent like every other deterministic event.
                emit(&SynthesisEvent::FrontierDrained {
                    produced: enumerator.produced(),
                    infeasible: enumerator.infeasible(),
                });
                break;
            }
            let base = next_index;
            next_index += phis.len();
            // Everything past the first batch item runs ahead of its
            // enumeration turn — a speculation notice per item, on the
            // scheduling-dependent side channel.
            for i in 1..phis.len() {
                speculate(&SynthesisEvent::CorrespondenceSpeculated { index: base + i });
            }

            let results = parpool::par_map_stop(
                &phis,
                |i, phi, ctx| {
                    let cancel = || ctx.cancelled(i);
                    attempt(base + i, phi, Some(&cancel))
                },
                // A success stops the fan-out; so does a token interruption
                // (everything after it is moot).
                |(outcome, ..)| {
                    outcome
                        .as_ref()
                        .is_some_and(|o| o.program.is_some() || o.interrupted)
                },
            );

            // Index-ordered merge: absorb each correspondence exactly as the
            // sequential loop would have, stopping at the first success.
            let mut results = results.into_iter();
            let mut defensive_replay = false;
            for (i, phi) in phis.iter().enumerate() {
                let index = base + i;
                let (outcome, events, profile, mut cache) = if defensive_replay {
                    // A verified-then-rejected winner (see below) invalidated
                    // the speculative results; recompute this correspondence
                    // inline. Deterministic, so the trajectory is preserved.
                    attempt(index, phi, None)
                } else {
                    match results.next() {
                        Some(Some(result)) => result,
                        Some(None) | None => break, // skipped: after the winner
                    }
                };
                debug_assert!(
                    !outcome.as_ref().is_some_and(|o| o.cancelled),
                    "merge reached a cancelled speculative completion"
                );
                stats.value_correspondences += 1;
                emit(&SynthesisEvent::CorrespondenceEnumerated {
                    index,
                    mapped_attrs: phi.mapped_count(),
                });
                for event in &events {
                    emit(event);
                }
                // Phase accounting follows the same enumeration-order merge
                // as the events: only merged (winning-trajectory) attempts
                // reach the breakdown.
                stats.phases.sketch_generation_time += profile.sketch_generation;
                stats.phases.completion_time += profile.completion;
                stats.phases.checks.merge(&profile.check);
                let Some(outcome) = outcome else {
                    // No sketch for this correspondence; tell the stream so
                    // the forensics taxonomy can count the rejection.
                    emit(&SynthesisEvent::SketchGenerationFailed { index });
                    continue;
                };
                stats.sketches_generated += 1;
                stats.absorb_sketch_run(&outcome.stats);
                if outcome.interrupted {
                    // Deadline or user cancellation mid-completion: the
                    // partial statistics above are kept (they describe real
                    // work), the rest of the batch is discarded.
                    interrupted = true;
                    break 'batches;
                }

                if let Some(program) = outcome.program {
                    // This correspondence won; later batch items lost their
                    // speculation.
                    for j in (i + 1)..phis.len() {
                        speculate(&SynthesisEvent::CorrespondenceCancelled { index: base + j });
                    }
                    stats.synthesis_time = synthesis_start.elapsed();
                    // Final verification pass, timed separately (the stand-in
                    // for the Mediator equivalence proof; see `crate::verify`).
                    // It runs through the winning sketch's cache, which
                    // remembers every (plan, length) pair the completion's
                    // own verification of this candidate walked to
                    // exhaustion: the pass walks none of them again, and
                    // counts their sequences as a fresh walk would.
                    let verification_start = Instant::now();
                    let mut final_profile = CheckProfile::default();
                    let verified = check_candidate_cached(
                        &oracle,
                        &program,
                        target_schema,
                        &self.config.verification,
                        Some(token),
                        Some(&mut final_profile),
                        cache.as_mut(),
                    );
                    stats.verification_time = verification_start.elapsed();
                    stats.phases.checks.merge(&final_profile);
                    match verified {
                        CheckOutcome::Equivalent { sequences_tested } => {
                            stats.sequences_tested += sequences_tested;
                            return SynthesisResult {
                                program: Some(program),
                                correspondence: Some(phi.clone()),
                                outcome: SynthesisOutcome::Solved,
                                stats,
                            };
                        }
                        CheckOutcome::Cancelled { sequences_tested } => {
                            // The token fired before this final pass ended.
                            // The completion already verified the exact same
                            // candidate against the same oracle and
                            // configuration, so the program is kept: a
                            // verified program in hand beats reporting
                            // `Timeout` with nothing.
                            stats.sequences_tested += sequences_tested;
                            return SynthesisResult {
                                program: Some(program),
                                correspondence: Some(phi.clone()),
                                outcome: SynthesisOutcome::Solved,
                                stats,
                            };
                        }
                        CheckOutcome::NotEquivalent { .. } => {
                            // The completion already checked this exact
                            // configuration, so this cannot happen; continue
                            // defensively, replaying the rest of the batch
                            // inline because the speculative results beyond
                            // this index were cancelled when it "won".
                            defensive_replay = true;
                            continue;
                        }
                    }
                }
            }

            // Keep speculation proportional to observed failure: every fully
            // failed batch doubles the next one, up to the cap.
            batch_size = batch_size.saturating_mul(2).min(speculation_cap);
        }

        stats.synthesis_time = synthesis_start.elapsed();
        let outcome = if interrupted {
            let reason = token.reason().unwrap_or(CancelReason::Cancelled);
            emit(&SynthesisEvent::RunInterrupted { reason });
            match reason {
                CancelReason::DeadlineExceeded => SynthesisOutcome::Timeout,
                CancelReason::Cancelled => SynthesisOutcome::Cancelled,
            }
        } else {
            SynthesisOutcome::NoSolution
        };
        SynthesisResult {
            program: None,
            correspondence: None,
            outcome,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::PhaseBreakdown;
    use dbir::equiv::{compare_programs, TestConfig};
    use dbir::parser::parse_program;

    #[test]
    fn synthesizes_simple_rename() {
        let source_schema = Schema::parse("Person(pid: int, pname: string)").unwrap();
        let target_schema = Schema::parse("Person(pid: int, fullname: string)").unwrap();
        let source = parse_program(
            r#"
            update addPerson(pid: int, pname: string)
                INSERT INTO Person VALUES (pid: pid, pname: pname);
            update removePerson(pid: int)
                DELETE Person FROM Person WHERE pid = pid;
            query getPerson(pid: int)
                SELECT pname FROM Person WHERE pid = pid;
            "#,
            &source_schema,
        )
        .unwrap();

        let synthesizer = Synthesizer::new(SynthesisConfig::standard());
        let result = synthesizer.synthesize(&source, &source_schema, &target_schema);
        let program = result.program.expect("rename should synthesize");
        assert!(program.validate(&target_schema).is_ok());
        let phi = result
            .correspondence
            .expect("successful synthesis reports its correspondence");
        assert!(phi.is_mapped(&dbir::schema::QualifiedAttr::new("Person", "pname")));
        assert!(result.stats.value_correspondences >= 1);
        assert!(result.stats.iterations >= 1);
        assert!(result.stats.total_time() >= result.stats.synthesis_time);

        // Independently confirm equivalence with a deeper bound.
        let report = compare_programs(
            &source,
            &source_schema,
            &program,
            &target_schema,
            &TestConfig::thorough(),
        );
        assert!(report.equivalent);
    }

    /// The paper's motivating example (Figure 2): source schema, target
    /// schema and source program.
    fn motivating_example() -> (Schema, Schema, Program) {
        let source_schema = Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, IPic: binary)\n\
             TA(TaId: int, TName: string, TPic: binary)",
        )
        .unwrap();
        let target_schema = Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, PicId: id)\n\
             TA(TaId: int, TName: string, PicId: id)\n\
             Picture(PicId: id, Pic: binary)",
        )
        .unwrap();
        let source = parse_program(
            r#"
            update addInstructor(id: int, name: string, pic: binary)
                INSERT INTO Instructor VALUES (InstId: id, IName: name, IPic: pic);
            update deleteInstructor(id: int)
                DELETE Instructor FROM Instructor WHERE InstId = id;
            query getInstructorInfo(id: int)
                SELECT IName, IPic FROM Instructor WHERE InstId = id;
            update addTA(id: int, name: string, pic: binary)
                INSERT INTO TA VALUES (TaId: id, TName: name, TPic: pic);
            update deleteTA(id: int)
                DELETE TA FROM TA WHERE TaId = id;
            query getTAInfo(id: int)
                SELECT TName, TPic FROM TA WHERE TaId = id;
            "#,
            &source_schema,
        )
        .unwrap();
        (source_schema, target_schema, source)
    }

    #[test]
    fn synthesizes_the_motivating_example() {
        let (source_schema, target_schema, source) = motivating_example();
        let synthesizer = Synthesizer::new(SynthesisConfig::standard());
        let result = synthesizer.synthesize(&source, &source_schema, &target_schema);
        let program = result.program.expect("the motivating example synthesizes");
        // The synthesized program must route pictures through the new table.
        assert!(program
            .function("addInstructor")
            .unwrap()
            .tables()
            .contains(&"Picture".into()));
        assert!(program
            .function("getTAInfo")
            .unwrap()
            .tables()
            .contains(&"Picture".into()));
        // Stats should reflect a non-trivial search.
        assert!(result.stats.largest_search_space >= 164_025);
    }

    /// The speculative correspondence fan-out must leave the deterministic
    /// statistics byte-identical at any thread budget. The first scenario
    /// fails synthesis, so every correspondence in the budget is explored —
    /// the worst case for speculation to get ordering wrong. The second,
    /// the motivating example, solves, so it also reaches the final
    /// verification, which runs through the cache of whichever worker
    /// completed the winning sketch.
    #[test]
    fn thread_budget_does_not_change_the_trajectory() {
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int)").unwrap();
        let source = parse_program(
            r#"
            update add(a: int, b: string)
                INSERT INTO T VALUES (a: a, b: b);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &source_schema,
        )
        .unwrap();
        let synthesizer = Synthesizer::new(SynthesisConfig::standard());
        let run = |source: &Program, source_schema: &Schema, target_schema: &Schema, threads| {
            parpool::set_thread_limit(threads);
            let result = synthesizer.synthesize(source, source_schema, target_schema);
            parpool::set_thread_limit(0);
            result
        };
        let single = run(&source, &source_schema, &target_schema, 1);
        let multi = run(&source, &source_schema, &target_schema, 4);
        assert!(!single.succeeded());
        assert_eq!(counters(&single.stats), counters(&multi.stats));

        let (source_schema, target_schema, source) = motivating_example();
        let single = run(&source, &source_schema, &target_schema, 1);
        let multi = run(&source, &source_schema, &target_schema, 4);
        assert_eq!(single.outcome, SynthesisOutcome::Solved);
        assert_eq!(single.program, multi.program);
        assert_eq!(counters(&single.stats), counters(&multi.stats));
    }

    /// A solving run's final verification walks nothing: the run's check
    /// counters are exactly those of its winning completion, and its
    /// sequence count adds what a fresh depth-3 check of the program counts.
    #[test]
    fn the_final_check_of_a_solved_run_walks_nothing() {
        let (source_schema, target_schema, source) = motivating_example();
        let config = SynthesisConfig::standard();
        let result =
            Synthesizer::new(config.clone()).synthesize(&source, &source_schema, &target_schema);
        assert_eq!(result.outcome, SynthesisOutcome::Solved);
        assert_eq!(result.stats.value_correspondences, 1);

        let phi = VcEnumerator::new(&source, &source_schema, &target_schema, &config.vc)
            .next_correspondence()
            .expect("a first correspondence");
        let sketch = generate_sketch(&source, &phi, &target_schema, &config.sketch)
            .expect("a sketch for it");
        let oracle = SourceOracle::new(&source, &source_schema);
        let mut completion = CheckProfile::default();
        let outcome = complete_sketch(
            &sketch,
            &oracle,
            &target_schema,
            &config.testing,
            &config.verification,
            BlockingStrategy::MinimumFailingInput,
            config.max_iterations_per_sketch,
            CompletionControls {
                profile: Some(&mut completion),
                ..CompletionControls::none()
            },
        );
        assert_eq!(outcome.program, result.program);
        let walked = |p: &CheckProfile| {
            (
                p.plans_compiled,
                p.prefix_cache_hits,
                p.undo_frames,
                p.undo_ops_rolled_back,
                p.snapshots_taken,
                p.snapshot_bytes_copied,
            )
        };
        assert_eq!(walked(&result.stats.phases.checks), walked(&completion));

        let program = result.program.as_ref().expect("solved");
        let fresh = check_candidate_cached(
            &oracle,
            program,
            &target_schema,
            &config.verification,
            None,
            None,
            None,
        );
        assert!(fresh.is_equivalent());
        assert_eq!(
            result.stats.sequences_tested,
            outcome.stats.sequences_tested + fresh.sequences_tested()
        );
    }

    /// `stats` with its wall-clock times zeroed: every counter the thread
    /// budget must not change.
    fn counters(stats: &SynthesisStats) -> SynthesisStats {
        let phases = &stats.phases;
        SynthesisStats {
            synthesis_time: Duration::ZERO,
            verification_time: Duration::ZERO,
            phases: PhaseBreakdown {
                vc_enumeration_time: Duration::ZERO,
                sketch_generation_time: Duration::ZERO,
                completion_time: Duration::ZERO,
                checks: CheckProfile {
                    plan_compile_time: Duration::ZERO,
                    dfs_time: Duration::ZERO,
                    snapshot_time: Duration::ZERO,
                    ..phases.checks.clone()
                },
                ..phases.clone()
            },
            ..stats.clone()
        }
    }

    #[test]
    fn reports_failure_when_no_equivalent_program_exists() {
        // The target schema drops the queried column entirely, so no
        // equivalent program exists.
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int)").unwrap();
        let source = parse_program(
            r#"
            update add(a: int, b: string)
                INSERT INTO T VALUES (a: a, b: b);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &source_schema,
        )
        .unwrap();
        let synthesizer = Synthesizer::new(SynthesisConfig::standard());
        let result = synthesizer.synthesize(&source, &source_schema, &target_schema);
        assert!(!result.succeeded());
        assert!(result.correspondence.is_none());
    }

    #[test]
    fn enumerative_configuration_also_synthesizes() {
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int, c: string)").unwrap();
        let source = parse_program(
            r#"
            update add(a: int, b: string)
                INSERT INTO T VALUES (a: a, b: b);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &source_schema,
        )
        .unwrap();
        let synthesizer = Synthesizer::new(SynthesisConfig::enumerative_baseline());
        let result = synthesizer.synthesize(&source, &source_schema, &target_schema);
        assert!(result.succeeded());
    }
}
