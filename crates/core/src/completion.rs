//! Sketch completion: symbolic search with conflict-driven learning from
//! minimum failing inputs (Algorithm 2 of the paper).
//!
//! The space of completions is encoded as a SAT formula with one boolean
//! variable per (hole, domain element) pair and one exactly-one constraint
//! per hole. Models are enumerated lazily; each candidate program is checked
//! against the source program by bounded testing. When a candidate fails,
//! the minimum failing input tells us which *functions* witnessed the
//! disequivalence — blocking only the assignment to the holes of those
//! functions prunes every completion that would fail for the same reason
//! (18,225 programs at once in the paper's running example).
//!
//! ## Incremental engine
//!
//! Three mechanisms make the loop incremental end-to-end:
//!
//! * **Persistent solver** — one [`Solver`] lives for the whole sketch;
//!   blocking clauses are added to it and the conflict clauses, variable
//!   activities and saved phases it accumulates carry over to every later
//!   model (counted by [`SketchRunStats::solver_reuses`] and
//!   [`SketchRunStats::learned_clauses_kept`]).
//! * **Speculative candidate checking** — while candidate *k* is in
//!   bounded testing, the solver probes for candidate *k+1* on a
//!   [`parpool`] worker under a guard assumption `g` whose clause
//!   `¬g ∨ block(k)` pre-blocks *k*'s full model. If *k* fails, the guard
//!   is committed as a unit clause (sound: the learned MFI clause blocks a
//!   superset of `block(k)`) and the probed model is *adopted* as the next
//!   candidate when it already satisfies the MFI clause; if *k* is
//!   accepted the probe is discarded. The probe always runs —
//!   [`parpool::join`] degrades to sequential execution instead of
//!   skipping — so the solver-state trajectory, and with it every model
//!   and counter, is byte-identical at any thread count.
//! * **Prefix sharing** — every bounded check of the sketch (testing and
//!   verification) shares one [`PrefixCache`], so update prefixes executed
//!   for candidate *k* are reused by candidate *k+1* when the prefix's
//!   update bodies did not change, and each call's plan is compiled once
//!   per function body it runs against.

use dbir::equiv::{CheckProfile, PrefixCache, SourceOracle, TestConfig};
use dbir::{Program, Schema};
use parpool::CancelToken;
use satsolver::encoder::exactly_one;
use satsolver::{Lit, Model, SolveResult, Solver, Var};

use crate::observe::SynthesisEvent;
use crate::sketch::{HoleAssignment, HoleId, Sketch};
use crate::stats::SketchRunStats;
use crate::verify::{check_candidate_cached, CheckOutcome};

/// The SAT encoding of a sketch: one variable per (hole, domain element).
#[derive(Debug)]
pub struct SketchEncoding {
    /// `vars[h][j]` is true iff hole `h` takes its `j`-th domain element.
    vars: Vec<Vec<Var>>,
}

impl SketchEncoding {
    /// Encodes `sketch` into `solver`: allocates the selector variables and
    /// adds one exactly-one constraint per hole (the paper's `⊕` formula).
    pub fn encode(sketch: &Sketch, solver: &mut Solver) -> SketchEncoding {
        let mut vars = Vec::with_capacity(sketch.holes.len());
        for hole in &sketch.holes {
            let hole_vars = solver.new_vars(hole.domain.size());
            let lits: Vec<Lit> = hole_vars.iter().map(|&v| Lit::pos(v)).collect();
            exactly_one(solver, &lits);
            vars.push(hole_vars);
        }
        SketchEncoding { vars }
    }

    /// Decodes a SAT model into a hole assignment.
    ///
    /// # Panics
    ///
    /// Panics if the model does not select exactly one element for some hole
    /// (impossible for models of the encoding).
    pub fn decode(&self, model: &Model) -> HoleAssignment {
        self.vars
            .iter()
            .map(|hole_vars| {
                hole_vars
                    .iter()
                    .position(|&v| model.value(v))
                    .expect("exactly-one constraint guarantees a selection")
            })
            .collect()
    }

    /// The literal asserting that `hole` takes domain element `choice`.
    pub fn selector(&self, hole: HoleId, choice: usize) -> Lit {
        Lit::pos(self.vars[hole.0][choice])
    }

    /// Builds the blocking clause `¬(b₁ ∧ … ∧ bₙ)` for the given holes'
    /// current assignment: at least one of them must change.
    pub fn blocking_clause(&self, assignment: &HoleAssignment, holes: &[HoleId]) -> Vec<Lit> {
        holes
            .iter()
            .map(|&hole| !self.selector(hole, assignment[hole.0]))
            .collect()
    }
}

/// How blocking clauses are derived from failing candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingStrategy {
    /// Block only the holes of the functions appearing in the minimum
    /// failing input (the paper's approach).
    MinimumFailingInput,
    /// Block the full model (the symbolic enumerative baseline of Table 3).
    FullModel,
}

/// The outcome of completing one sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionOutcome {
    /// The synthesized program, if one was found.
    pub program: Option<Program>,
    /// Statistics about the search.
    pub stats: SketchRunStats,
    /// `true` if the search was abandoned because the caller's cancellation
    /// signal fired (a speculative completion whose result can no longer be
    /// selected). A cancelled outcome carries partial statistics and must
    /// not be absorbed into a deterministic trajectory.
    pub cancelled: bool,
    /// `true` if the search was abandoned because the run's
    /// [`CancelToken`] fired (wall-clock deadline or user cancellation).
    /// Unlike [`CompletionOutcome::cancelled`], an interrupted outcome's
    /// partial statistics *are* reported — they describe work the run
    /// genuinely performed before timing out.
    pub interrupted: bool,
}

/// Cross-cutting controls threaded into one sketch completion: the two
/// cancellation signals, the event and profile buffers and the sketch's
/// prefix cache. [`CompletionControls::none`] is the plain blocking run
/// with no observability and a completion-local cache.
#[derive(Default)]
pub struct CompletionControls<'a> {
    /// Speculation-cancellation poll from the parallel correspondence
    /// fan-out (lowest-index-wins; see [`parpool::StopCtx`]). A completion
    /// stopped by this signal is discarded wholesale.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
    /// The run's deadline / user-cancellation token, polled between
    /// candidates and inside each bounded check.
    pub token: Option<&'a CancelToken>,
    /// Enumeration index of the correspondence this sketch was generated
    /// from; used to label events.
    pub index: usize,
    /// Buffer receiving this completion's [`SynthesisEvent`]s in order.
    /// Buffered (rather than delivered directly) so parallel completions
    /// stay deterministic: the synthesizer replays winning buffers in
    /// enumeration order and discards losing ones.
    pub events: Option<&'a mut Vec<SynthesisEvent>>,
    /// Accumulator receiving the per-phase accounting of every bounded
    /// check this completion runs. Like the event buffer it is per-attempt:
    /// the synthesizer absorbs winning buffers in enumeration order, so
    /// losing speculative completions never contaminate the breakdown.
    pub profile: Option<&'a mut CheckProfile>,
    /// The sketch's [`PrefixCache`], for a caller that keeps it past the
    /// completion; `None` runs through a completion-local cache. Like any
    /// shared cache it must be new or belong to the same oracle and target
    /// schema. After an accepted candidate it remembers every (plan, length)
    /// pair the completion's verification check walked to exhaustion, so a
    /// re-check of that candidate under the verification configuration
    /// walks nothing.
    pub cache: Option<&'a mut PrefixCache>,
}

impl std::fmt::Debug for CompletionControls<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionControls")
            .field("cancel", &self.cancel.is_some())
            .field("token", &self.token.is_some())
            .field("index", &self.index)
            .field("events", &self.events.is_some())
            .field("profile", &self.profile.is_some())
            .field("cache", &self.cache.is_some())
            .finish()
    }
}

impl<'a> CompletionControls<'a> {
    /// No cancellation, no deadline, no events: the plain blocking run.
    pub fn none() -> CompletionControls<'a> {
        CompletionControls::default()
    }

    /// Records an event into the buffer, if one is attached.
    fn record(&mut self, event: SynthesisEvent) {
        if let Some(events) = self.events.as_deref_mut() {
            events.push(event);
        }
    }
}

/// Completes `sketch` against the source program: finds an instantiation
/// that is equivalent to `source` (within the bounded-testing
/// configuration), or reports failure when the space is exhausted.
///
/// The source program and schema travel inside `oracle`, the source side
/// of every check in the completion loop: each candidate is checked against
/// the same source, through one `PrefixCache` per sketch, which compiles
/// the source's plans once and executes its shortest update prefixes once.
/// The cache is [`CompletionControls::cache`] when the caller supplies one
/// (the synthesizer does, and re-checks the accepted program through it),
/// and a completion-local one otherwise; the outcome, statistics and events
/// are the same either way.
///
/// `testing` is used to search for minimum failing inputs; `verification`
/// is the deeper final check a candidate must pass before being returned.
/// `max_iterations` bounds the number of candidates examined (0 = unlimited).
///
/// `controls` bundles the cross-cutting concerns: the speculation
/// cancellation poll (checked between candidates; a stop is flagged
/// [`CompletionOutcome::cancelled`]), the run's [`CancelToken`] (checked
/// between candidates *and* inside each bounded check; a stop is flagged
/// [`CompletionOutcome::interrupted`]) and the [`SynthesisEvent`] buffer.
#[allow(clippy::too_many_arguments)]
pub fn complete_sketch(
    sketch: &Sketch,
    oracle: &SourceOracle<'_>,
    target_schema: &Schema,
    testing: &TestConfig,
    verification: &TestConfig,
    strategy: BlockingStrategy,
    max_iterations: usize,
    mut controls: CompletionControls<'_>,
) -> CompletionOutcome {
    let mut stats = SketchRunStats {
        search_space: sketch.completion_count(),
        ..SketchRunStats::default()
    };
    let mut solver = Solver::new();
    let encoding = SketchEncoding::encode(sketch, &mut solver);
    let all_holes: Vec<HoleId> = sketch.holes.iter().map(|h| h.id).collect();
    let index = controls.index;
    // Executed update-prefix states shared across every bounded check of
    // this sketch — candidates mostly differ in one hole, so most prefixes
    // carry over unchanged from check to check.
    let mut local = PrefixCache::new();
    let cache = controls.cache.take().unwrap_or(&mut local);
    // A speculative model adopted from the previous iteration's probe,
    // consumed instead of a fresh solver call.
    let mut pending_model: Option<Model> = None;
    let done = |program: Option<Program>,
                mut stats: SketchRunStats,
                cancelled: bool,
                interrupted: bool,
                solver: &Solver| {
        stats.solver_reuses = solver.solves().saturating_sub(1);
        stats.learned_clauses_kept = solver.learnt_clauses_kept();
        CompletionOutcome {
            program,
            stats,
            cancelled,
            interrupted,
        }
    };

    loop {
        if controls.token.is_some_and(CancelToken::is_cancelled) {
            return done(None, stats, false, true, &solver);
        }
        if controls.cancel.is_some_and(|cancelled| cancelled()) {
            return done(None, stats, true, false, &solver);
        }
        if max_iterations > 0 && stats.iterations >= max_iterations {
            controls.record(SynthesisEvent::BoundExhausted {
                index,
                iterations: stats.iterations,
                space_exhausted: false,
            });
            return done(None, stats, false, false, &solver);
        }
        let model = match pending_model.take() {
            Some(model) => model,
            None => match solver.solve() {
                SolveResult::Sat(model) => model,
                SolveResult::Unsat => {
                    controls.record(SynthesisEvent::BoundExhausted {
                        index,
                        iterations: stats.iterations,
                        space_exhausted: true,
                    });
                    return done(None, stats, false, false, &solver);
                }
            },
        };
        let assignment = encoding.decode(&model);

        // Instantiate; structurally invalid assignments are blocked on just
        // the conflicting holes and are not counted as iterations.
        let candidate = match sketch.instantiate(&assignment) {
            Ok(program) => program,
            Err(conflicts) => {
                stats.invalid_instantiations += 1;
                for conflict in conflicts {
                    let clause = encoding.blocking_clause(&assignment, &conflict.holes);
                    solver.add_clause(&clause);
                    stats.blocking_clauses += 1;
                }
                continue;
            }
        };
        stats.iterations += 1;

        // Reject candidates that are not even well-formed over the target
        // schema (should not happen, but blocking the whole model is sound).
        if candidate.validate(target_schema).is_err() {
            let clause = encoding.blocking_clause(&assignment, &all_holes);
            solver.add_clause(&clause);
            stats.blocking_clauses += 1;
            continue;
        }

        // Blocks the failing candidate's holes, records the MFI event and
        // returns the blocked holes (the adoption test needs them).
        let learn = |failing_input: &dbir::InvocationSequence,
                     solver: &mut Solver,
                     stats: &mut SketchRunStats,
                     controls: &mut CompletionControls<'_>|
         -> Vec<HoleId> {
            let holes = holes_for_blocking(sketch, failing_input, strategy, &all_holes);
            let (pruned, domains) = cohort_of_blocked(sketch, &all_holes, &holes);
            controls.record(SynthesisEvent::MfiFound {
                index,
                iteration: stats.iterations,
                updates: failing_input.depth(),
                query: failing_input.query.function.clone(),
                blocked_holes: holes.len(),
                pruned,
                domains,
            });
            let clause = encoding.blocking_clause(&assignment, &holes);
            solver.add_clause(&clause);
            stats.blocking_clauses += 1;
            holes
        };

        // Speculation: pre-block this candidate's full model behind a fresh
        // guard literal, then probe for the next model under the guard
        // assumption *while* the candidate is in bounded testing. The guard
        // clause is inert until the guard is committed (failing candidate)
        // and stays inert forever if the candidate is accepted.
        let guard = solver.new_var();
        let mut guard_clause = encoding.blocking_clause(&assignment, &all_holes);
        guard_clause.push(Lit::new(guard, false));
        solver.add_clause(&guard_clause);

        let token = controls.token;
        let profile = controls.profile.as_deref_mut();
        let testing_cache = &mut *cache;
        let (test_outcome, speculation) = parpool::join(
            || {
                check_candidate_cached(
                    oracle,
                    &candidate,
                    target_schema,
                    testing,
                    token,
                    profile,
                    Some(testing_cache),
                )
            },
            || solver.solve_with_assumptions(&[Lit::pos(guard)]),
        );

        // Commits the speculative blocking after a failure and decides
        // whether the probed model can seed the next iteration: it must
        // satisfy the just-learned MFI clause (differ from the failing
        // assignment on at least one blocked hole); the committed guard it
        // satisfies by construction.
        let resolve_speculation = |speculation: SolveResult,
                                   mfi_holes: &[HoleId],
                                   solver: &mut Solver,
                                   stats: &mut SketchRunStats,
                                   controls: &mut CompletionControls<'_>|
         -> Option<Option<Model>> {
            solver.add_clause(&[Lit::pos(guard)]);
            match speculation {
                SolveResult::Unsat => {
                    // The failing candidate was the last model of the
                    // space: with its MFI clause learned the formula is
                    // unsatisfiable, so the next solve could only confirm
                    // exhaustion.
                    controls.record(SynthesisEvent::BoundExhausted {
                        index,
                        iterations: stats.iterations,
                        space_exhausted: true,
                    });
                    None
                }
                SolveResult::Sat(spec_model) => {
                    let spec_assignment = encoding.decode(&spec_model);
                    let adopted = mfi_holes
                        .iter()
                        .any(|&hole| spec_assignment[hole.0] != assignment[hole.0]);
                    controls.record(SynthesisEvent::CandidateSpeculated {
                        index,
                        iteration: stats.iterations,
                        adopted,
                    });
                    Some(adopted.then_some(spec_model))
                }
            }
        };

        match test_outcome {
            CheckOutcome::Cancelled { sequences_tested } => {
                stats.sequences_tested += sequences_tested;
                return done(None, stats, false, true, &solver);
            }
            CheckOutcome::Equivalent { sequences_tested } => {
                stats.sequences_tested += sequences_tested;
                controls.record(SynthesisEvent::CandidateChecked {
                    index,
                    iteration: stats.iterations,
                    accepted: true,
                    sequences_tested,
                });
                // Deeper verification pass before accepting; it shares the
                // prefix cache, so the prefixes the testing pass executed
                // are reused here.
                match check_candidate_cached(
                    oracle,
                    &candidate,
                    target_schema,
                    verification,
                    controls.token,
                    controls.profile.as_deref_mut(),
                    Some(&mut *cache),
                ) {
                    CheckOutcome::Cancelled { sequences_tested } => {
                        stats.sequences_tested += sequences_tested;
                        return done(None, stats, false, true, &solver);
                    }
                    CheckOutcome::Equivalent { sequences_tested } => {
                        stats.sequences_tested += sequences_tested;
                        controls.record(SynthesisEvent::Solved {
                            index,
                            iterations: stats.iterations,
                        });
                        // The speculation is simply discarded: its guard
                        // was never committed, so the guard clause stays
                        // vacuously satisfiable.
                        return done(Some(candidate), stats, false, false, &solver);
                    }
                    CheckOutcome::NotEquivalent {
                        minimum_failing_input,
                        sequences_tested,
                    } => {
                        stats.sequences_tested += sequences_tested;
                        let holes = learn(
                            &minimum_failing_input,
                            &mut solver,
                            &mut stats,
                            &mut controls,
                        );
                        match resolve_speculation(
                            speculation,
                            &holes,
                            &mut solver,
                            &mut stats,
                            &mut controls,
                        ) {
                            None => return done(None, stats, false, false, &solver),
                            Some(next) => pending_model = next,
                        }
                    }
                }
            }
            CheckOutcome::NotEquivalent {
                minimum_failing_input,
                sequences_tested,
            } => {
                stats.sequences_tested += sequences_tested;
                controls.record(SynthesisEvent::CandidateChecked {
                    index,
                    iteration: stats.iterations,
                    accepted: false,
                    sequences_tested,
                });
                let holes = learn(
                    &minimum_failing_input,
                    &mut solver,
                    &mut stats,
                    &mut controls,
                );
                match resolve_speculation(
                    speculation,
                    &holes,
                    &mut solver,
                    &mut stats,
                    &mut controls,
                ) {
                    None => return done(None, stats, false, false, &solver),
                    Some(next) => pending_model = next,
                }
            }
        }
    }
}

/// Forensic measure of one learned blocking clause: the size of the
/// candidate cohort it kills — every completion agreeing with the failing
/// assignment on the blocked holes, i.e. the product of the domain sizes
/// of the *unblocked* holes (saturating) — and the blocked-hole counts per
/// [`HoleDomain::kind`](crate::HoleDomain::kind), in the domain kinds'
/// fixed declaration order with zero-count kinds omitted.
///
/// `blocked` must be sorted (callers get it from [`holes_for_blocking`],
/// which sorts), so membership is a binary search and the whole
/// computation is O(holes · log holes) per MFI.
fn cohort_of_blocked(
    sketch: &Sketch,
    all_holes: &[HoleId],
    blocked: &[HoleId],
) -> (u128, Vec<(&'static str, usize)>) {
    let mut pruned: u128 = 1;
    for &hole in all_holes {
        if blocked.binary_search(&hole).is_err() {
            pruned = pruned.saturating_mul(sketch.hole(hole).domain.size() as u128);
        }
    }
    const KINDS: [&str; 4] = ["attr", "insert-target", "join", "table-list"];
    let mut counts = [0usize; 4];
    for &hole in blocked {
        let kind = sketch.hole(hole).domain.kind();
        if let Some(slot) = KINDS.iter().position(|&k| k == kind) {
            counts[slot] += 1;
        }
    }
    let domains = KINDS
        .iter()
        .zip(counts)
        .filter(|&(_, count)| count > 0)
        .map(|(&kind, count)| (kind, count))
        .collect();
    (pruned, domains)
}

/// The holes whose assignment should be blocked for a failing candidate:
/// under [`BlockingStrategy::MinimumFailingInput`], the holes of the
/// functions appearing in the failing input; under
/// [`BlockingStrategy::FullModel`], every hole.
fn holes_for_blocking(
    sketch: &Sketch,
    failing_input: &dbir::InvocationSequence,
    strategy: BlockingStrategy,
    all_holes: &[HoleId],
) -> Vec<HoleId> {
    match strategy {
        BlockingStrategy::FullModel => all_holes.to_vec(),
        BlockingStrategy::MinimumFailingInput => {
            let mut function_names: Vec<&str> = failing_input
                .updates
                .iter()
                .map(|c| c.function.as_str())
                .collect();
            function_names.push(failing_input.query.function.as_str());
            let mut holes: Vec<HoleId> = function_names
                .iter()
                .flat_map(|name| sketch.holes_in_function(name).to_vec())
                .collect();
            holes.sort();
            holes.dedup();
            if holes.is_empty() {
                // Defensive fallback: if the failing functions contain no
                // holes the candidate cannot be fixed by changing holes in
                // them, so block the full model to guarantee progress.
                all_holes.to_vec()
            } else {
                holes
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch_gen::{generate_sketch, SketchGenConfig};
    use crate::value_corr::{VcConfig, VcEnumerator};
    use dbir::parser::parse_program;

    fn motivating() -> (Schema, Schema, Program) {
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
        let program = parse_program(
            r#"
            update addInstructor(id: int, name: string, pic: binary)
                INSERT INTO Instructor VALUES (InstId: id, IName: name, IPic: pic);
            query getInstructorInfo(id: int)
                SELECT IName, IPic FROM Instructor WHERE InstId = id;
            update addTA(id: int, name: string, pic: binary)
                INSERT INTO TA VALUES (TaId: id, TName: name, TPic: pic);
            query getTAInfo(id: int)
                SELECT TName, TPic FROM TA WHERE TaId = id;
            "#,
            &source_schema,
        )
        .unwrap();
        (source_schema, target_schema, program)
    }

    #[test]
    fn completes_the_motivating_example_sketch() {
        let (source_schema, target_schema, program) = motivating();
        let mut vc = VcEnumerator::new(
            &program,
            &source_schema,
            &target_schema,
            &VcConfig::default(),
        );
        let phi = vc.next_correspondence().unwrap();
        let sketch =
            generate_sketch(&program, &phi, &target_schema, &SketchGenConfig::default()).unwrap();
        let oracle = SourceOracle::new(&program, &source_schema);
        let outcome = complete_sketch(
            &sketch,
            &oracle,
            &target_schema,
            &TestConfig::default(),
            &TestConfig::default(),
            BlockingStrategy::MinimumFailingInput,
            0,
            CompletionControls::none(),
        );
        let synthesized = outcome.program.expect("an equivalent completion exists");
        assert!(synthesized.validate(&target_schema).is_ok());
        // Spot-check the synthesized program resembles Figure 4: the insert
        // functions must write the Picture table.
        for name in ["addInstructor", "addTA"] {
            let function = synthesized.function(name).unwrap();
            assert!(
                function.tables().contains(&"Picture".into()),
                "{name} should insert into Picture"
            );
        }
        assert!(outcome.stats.iterations >= 1);
        assert!(outcome.stats.search_space > 1);
    }

    /// Completes the motivating example's first sketch as the synthesizer
    /// does — depth-2 testing, depth-3 verification — through `cache`,
    /// returning the outcome and the recorded events.
    fn complete_motivating(
        oracle: &SourceOracle<'_>,
        target_schema: &Schema,
        cache: Option<&mut PrefixCache>,
    ) -> (CompletionOutcome, Vec<SynthesisEvent>) {
        let program = oracle.program();
        let mut vc = VcEnumerator::new(
            program,
            oracle.schema(),
            target_schema,
            &VcConfig::default(),
        );
        let phi = vc.next_correspondence().unwrap();
        let sketch =
            generate_sketch(program, &phi, target_schema, &SketchGenConfig::default()).unwrap();
        let mut events = Vec::new();
        let outcome = complete_sketch(
            &sketch,
            oracle,
            target_schema,
            &TestConfig::default(),
            &TestConfig::thorough(),
            BlockingStrategy::MinimumFailingInput,
            0,
            CompletionControls {
                events: Some(&mut events),
                cache,
                ..CompletionControls::none()
            },
        );
        (outcome, events)
    }

    /// A cache the caller supplies changes nothing the completion reports:
    /// the same program, statistics and events as through the completion's
    /// own cache.
    #[test]
    fn a_caller_supplied_cache_changes_nothing_reported() {
        let (source_schema, target_schema, program) = motivating();
        let oracle = SourceOracle::new(&program, &source_schema);
        let (own, own_events) = complete_motivating(&oracle, &target_schema, None);
        let mut cache = PrefixCache::new();
        let (supplied, supplied_events) =
            complete_motivating(&oracle, &target_schema, Some(&mut cache));
        assert!(own.program.is_some());
        assert_eq!(own, supplied);
        assert_eq!(own_events, supplied_events);
        assert!(cache.cached_states() > 0, "the completion filled the cache");
    }

    /// The accepted candidate's verification check through the sketch's
    /// cache answers every (plan, length) pair from the verdicts the
    /// completion's own verification remembered: the same outcome and
    /// count as a fresh check, with no plan compiled, no state resolved, no
    /// update journaled, no snapshot taken and no source query evaluated.
    #[test]
    fn rechecking_the_accepted_candidate_through_its_cache_walks_nothing() {
        let (source_schema, target_schema, program) = motivating();
        let oracle = SourceOracle::new(&program, &source_schema);
        let mut cache = PrefixCache::new();
        let (outcome, _) = complete_motivating(&oracle, &target_schema, Some(&mut cache));
        let candidate = outcome.program.expect("an equivalent completion exists");
        let verification = TestConfig::thorough();

        let mut fresh_profile = CheckProfile::default();
        let fresh = check_candidate_cached(
            &oracle,
            &candidate,
            &target_schema,
            &verification,
            None,
            Some(&mut fresh_profile),
            None,
        );
        assert!(fresh.is_equivalent(), "{fresh:?}");
        assert!(fresh_profile.plans_compiled > 0 && fresh_profile.undo_frames > 0);

        let computes = oracle.computes();
        let mut profile = CheckProfile::default();
        let cached = check_candidate_cached(
            &oracle,
            &candidate,
            &target_schema,
            &verification,
            None,
            Some(&mut profile),
            Some(&mut cache),
        );
        assert_eq!(cached, fresh);
        assert_eq!(
            (
                profile.plans_compiled,
                profile.undo_frames,
                profile.snapshots_taken,
                profile.prefix_cache_hits,
            ),
            (0, 0, 0, 0),
            "{profile:?}"
        );
        assert_eq!(oracle.computes(), computes, "no source query evaluated");
    }

    #[test]
    fn mfi_blocking_needs_no_more_iterations_than_full_model_blocking() {
        let (source_schema, target_schema, program) = motivating();
        let mut results = Vec::new();
        for strategy in [
            BlockingStrategy::MinimumFailingInput,
            BlockingStrategy::FullModel,
        ] {
            let mut vc = VcEnumerator::new(
                &program,
                &source_schema,
                &target_schema,
                &VcConfig::default(),
            );
            let phi = vc.next_correspondence().unwrap();
            let sketch =
                generate_sketch(&program, &phi, &target_schema, &SketchGenConfig::default())
                    .unwrap();
            let oracle = SourceOracle::new(&program, &source_schema);
            let outcome = complete_sketch(
                &sketch,
                &oracle,
                &target_schema,
                &TestConfig::default(),
                &TestConfig::default(),
                strategy,
                0,
                CompletionControls::none(),
            );
            assert!(outcome.program.is_some());
            results.push(outcome.stats.iterations);
        }
        assert!(
            results[0] <= results[1],
            "MFI-guided search ({}) should not need more iterations than \
             enumerative search ({})",
            results[0],
            results[1]
        );
    }

    /// Differential oracle over a *benchmark* encoding (the motivating
    /// example's first sketch restricted to a small schema): the persistent
    /// incremental solver and a from-scratch solver rebuilt after every
    /// blocking clause enumerate exactly the same set of hole assignments.
    /// Variable allocation in [`SketchEncoding::encode`] is deterministic,
    /// so blocking clauses recorded from one encoding are valid verbatim in
    /// a rebuilt one.
    #[test]
    fn incremental_encoding_enumeration_matches_from_scratch() {
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int, c: string, d: string)").unwrap();
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
        let mut phi = crate::value_corr::ValueCorrespondence::new();
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "a"),
            dbir::schema::QualifiedAttr::new("T", "a"),
        );
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "b"),
            dbir::schema::QualifiedAttr::new("T", "c"),
        );
        let sketch =
            generate_sketch(&source, &phi, &target_schema, &SketchGenConfig::default()).unwrap();
        assert!(
            sketch.completion_count() < 5_000,
            "the sketch must stay small enough for full enumeration ({})",
            sketch.completion_count()
        );
        let all_holes: Vec<HoleId> = sketch.holes.iter().map(|h| h.id).collect();

        let enumerate_incremental = || {
            let mut solver = Solver::new();
            let encoding = SketchEncoding::encode(&sketch, &mut solver);
            let mut assignments = std::collections::BTreeSet::new();
            while let SolveResult::Sat(model) = solver.solve() {
                let assignment = encoding.decode(&model);
                let clause = encoding.blocking_clause(&assignment, &all_holes);
                solver.add_clause(&clause);
                assert!(
                    assignments.insert(assignment),
                    "incremental solver repeated an assignment"
                );
            }
            (assignments, solver.solves(), solver.learnt_clauses_kept())
        };

        let enumerate_from_scratch = || {
            let mut blocking: Vec<Vec<Lit>> = Vec::new();
            let mut assignments = std::collections::BTreeSet::new();
            loop {
                let mut solver = Solver::new();
                let encoding = SketchEncoding::encode(&sketch, &mut solver);
                for clause in &blocking {
                    solver.add_clause(clause);
                }
                match solver.solve() {
                    SolveResult::Sat(model) => {
                        let assignment = encoding.decode(&model);
                        blocking.push(encoding.blocking_clause(&assignment, &all_holes));
                        assert!(
                            assignments.insert(assignment),
                            "from-scratch solver repeated an assignment"
                        );
                    }
                    SolveResult::Unsat => return assignments,
                }
            }
        };

        let (incremental, solves, _learnt) = enumerate_incremental();
        let from_scratch = enumerate_from_scratch();
        assert_eq!(
            incremental, from_scratch,
            "incremental and from-scratch enumeration disagree on the assignment set"
        );
        assert_eq!(
            solves as usize,
            incremental.len() + 1,
            "one persistent-solver call per model plus the final Unsat"
        );
    }

    /// A failing sketch exercises the whole speculation protocol (guard
    /// clauses, unit commits, adoption) on every iteration; its trajectory
    /// — iterations, blocking clauses, solver reuses, adoptions and the
    /// recorded event stream — must be identical whether the probe runs on
    /// a worker thread or inline on an exhausted thread budget.
    #[test]
    fn speculation_trajectory_is_thread_budget_independent() {
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int, c: string, d: string)").unwrap();
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
        let mut phi = crate::value_corr::ValueCorrespondence::new();
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "a"),
            dbir::schema::QualifiedAttr::new("T", "a"),
        );
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "b"),
            dbir::schema::QualifiedAttr::new("T", "c"),
        );
        // Break the query side so completion exhausts the space (see
        // `unsatisfiable_sketch_reports_failure`).
        let mut sketch =
            generate_sketch(&source, &phi, &target_schema, &SketchGenConfig::default()).unwrap();
        for function in &mut sketch.functions {
            if let crate::sketch::BodySketch::Query(crate::sketch::QuerySketch::Project {
                attrs,
                ..
            }) = &mut function.body
            {
                attrs[0] =
                    crate::sketch::AttrSlot::Fixed(dbir::schema::QualifiedAttr::new("T", "d"));
            }
        }
        let oracle = SourceOracle::new(&source, &source_schema);
        let run = |threads: usize| {
            parpool::set_thread_limit(threads);
            let mut events = Vec::new();
            let outcome = complete_sketch(
                &sketch,
                &oracle,
                &target_schema,
                &TestConfig::default(),
                &TestConfig::default(),
                BlockingStrategy::MinimumFailingInput,
                0,
                CompletionControls {
                    events: Some(&mut events),
                    ..CompletionControls::none()
                },
            );
            parpool::set_thread_limit(0);
            (outcome, events)
        };
        let (single, single_events) = run(1);
        let (multi, multi_events) = run(4);
        assert!(single.program.is_none());
        assert_eq!(single.stats, multi.stats);
        assert_eq!(single_events, multi_events);
        let adoptions = single_events
            .iter()
            .filter(|event| {
                matches!(
                    event,
                    SynthesisEvent::CandidateSpeculated { adopted: true, .. }
                )
            })
            .count();
        assert!(
            single.stats.solver_reuses + adoptions as u64 >= single.stats.iterations as u64,
            "every candidate after the first came from a reused solver or an adoption"
        );
    }

    #[test]
    fn unsatisfiable_sketch_reports_failure() {
        // A sketch whose only completions are wrong: source projects `b`,
        // but the correspondence maps `b` to an unrelated column.
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int, c: string, d: string)").unwrap();
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
        // Deliberately wrong correspondence: insert writes c but query reads d.
        let mut phi = crate::value_corr::ValueCorrespondence::new();
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "a"),
            dbir::schema::QualifiedAttr::new("T", "a"),
        );
        phi.add(
            dbir::schema::QualifiedAttr::new("T", "b"),
            dbir::schema::QualifiedAttr::new("T", "c"),
        );
        let sketch =
            generate_sketch(&source, &phi, &target_schema, &SketchGenConfig::default()).unwrap();
        // The sketch admits only the correct completion (insert c / read c),
        // so completion should succeed; to exercise the failure path we
        // instead demand an impossible iteration budget of candidates by
        // giving an empty-domain... simpler: max_iterations = 0 is unlimited,
        // so use a correspondence that breaks the query instead.
        let oracle = SourceOracle::new(&source, &source_schema);
        let outcome = complete_sketch(
            &sketch,
            &oracle,
            &target_schema,
            &TestConfig::default(),
            &TestConfig::default(),
            BlockingStrategy::MinimumFailingInput,
            0,
            CompletionControls::none(),
        );
        // With this correspondence the completion is actually equivalent
        // (both insert and query agree on column c), so it must succeed —
        // which also demonstrates that renamings are handled end to end.
        assert!(outcome.program.is_some());

        // Now a correspondence that cannot work: query reads d but insert
        // writes c.
        let mut broken = crate::value_corr::ValueCorrespondence::new();
        broken.add(
            dbir::schema::QualifiedAttr::new("T", "a"),
            dbir::schema::QualifiedAttr::new("T", "a"),
        );
        broken.add(
            dbir::schema::QualifiedAttr::new("T", "b"),
            dbir::schema::QualifiedAttr::new("T", "c"),
        );
        // Manually build a sketch where the query projects d instead of c.
        let mut sketch = generate_sketch(
            &source,
            &broken,
            &target_schema,
            &SketchGenConfig::default(),
        )
        .unwrap();
        for function in &mut sketch.functions {
            if let crate::sketch::BodySketch::Query(crate::sketch::QuerySketch::Project {
                attrs,
                ..
            }) = &mut function.body
            {
                attrs[0] =
                    crate::sketch::AttrSlot::Fixed(dbir::schema::QualifiedAttr::new("T", "d"));
            }
        }
        let oracle = SourceOracle::new(&source, &source_schema);
        let outcome = complete_sketch(
            &sketch,
            &oracle,
            &target_schema,
            &TestConfig::default(),
            &TestConfig::default(),
            BlockingStrategy::MinimumFailingInput,
            0,
            CompletionControls::none(),
        );
        assert!(outcome.program.is_none());
        assert!(outcome.stats.iterations >= 1);
    }
}
