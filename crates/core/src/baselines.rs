//! Baseline sketch solvers used in the paper's evaluation (Section 6.2).
//!
//! * [`solve_enumerative`] — the *symbolic enumerative search* baseline of
//!   Table 3: identical SAT encoding, but every failing candidate blocks
//!   only its own full model instead of an MFI-derived partial assignment.
//! * [`solve_cegis`] — a CEGIS-style enumerator standing in for the Sketch
//!   tool of Table 2, an external solver this dependency-free workspace
//!   cannot ship: hole assignments are enumerated in an order oblivious to
//!   the sketch's likelihood ranking (a fixed pseudo-random permutation per
//!   hole domain, mirroring a SAT backend's ranking-agnostic model order),
//!   candidates are first screened against the accumulated counterexample
//!   set, and no structural learning is performed. On large sketches this baseline
//!   typically hits its candidate or time budget, which reproduces the
//!   timeout behaviour the paper reports for Sketch.

use std::time::{Duration, Instant};

use dbir::equiv::{SourceOracle, TestConfig};
use dbir::invocation::{observe, InvocationSequence, Outcome};
use dbir::{Program, Schema};

use crate::completion::{complete_sketch, BlockingStrategy, CompletionControls, CompletionOutcome};
use crate::sketch::Sketch;
use crate::verify::{check_candidate_cached, CheckOutcome};

/// Solves a sketch with full-model blocking (the Table 3 baseline).
#[allow(clippy::too_many_arguments)]
pub fn solve_enumerative(
    sketch: &Sketch,
    source: &Program,
    source_schema: &Schema,
    target_schema: &Schema,
    testing: &TestConfig,
    verification: &TestConfig,
    max_iterations: usize,
) -> CompletionOutcome {
    let oracle = SourceOracle::new(source, source_schema);
    complete_sketch(
        sketch,
        &oracle,
        target_schema,
        testing,
        verification,
        BlockingStrategy::FullModel,
        max_iterations,
        CompletionControls::none(),
    )
}

/// Configuration of the CEGIS-style baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CegisConfig {
    /// Stop after examining this many candidate programs (0 = unlimited).
    pub max_candidates: usize,
    /// Stop after this much wall-clock time.
    pub time_limit: Duration,
    /// Bounded-testing configuration used for the full equivalence check.
    pub testing: TestConfig,
}

impl Default for CegisConfig {
    fn default() -> CegisConfig {
        CegisConfig {
            max_candidates: 200_000,
            time_limit: Duration::from_secs(30),
            testing: TestConfig::default(),
        }
    }
}

/// The outcome of running the CEGIS baseline on one sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct CegisOutcome {
    /// The synthesized program, if one was found within the budget.
    pub program: Option<Program>,
    /// Number of candidate programs examined.
    pub candidates: usize,
    /// Number of counterexample invocation sequences accumulated.
    pub counterexamples: usize,
    /// `true` if the search stopped because it exhausted its time or
    /// candidate budget rather than the search space.
    pub timed_out: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Solves a sketch with counterexample-guided *enumeration*: candidates are
/// produced by a lexicographic odometer over a fixed pseudo-random
/// permutation of each hole's domain, screened against the accumulated
/// counterexamples, and fully tested only if they survive screening.
///
/// The permutation matters: MIGRATOR's sketch generator orders every hole
/// domain by likelihood, so plain lexicographic enumeration would start at
/// the synthesizer's best guess and inherit exactly the heuristic the
/// baseline is meant to lack. Scrambling each domain deterministically keeps
/// runs reproducible while modelling a solver with no ranking information.
pub fn solve_cegis(
    sketch: &Sketch,
    source: &Program,
    source_schema: &Schema,
    target_schema: &Schema,
    config: &CegisConfig,
) -> CegisOutcome {
    let start = Instant::now();
    let mut counterexamples: Vec<(InvocationSequence, Outcome)> = Vec::new();
    let mut candidates = 0usize;
    let oracle = SourceOracle::new(source, source_schema);

    let domain_sizes: Vec<usize> = sketch.holes.iter().map(|h| h.domain.size()).collect();
    if domain_sizes.contains(&0) {
        return CegisOutcome {
            program: None,
            candidates: 0,
            counterexamples: 0,
            timed_out: false,
            elapsed: start.elapsed(),
        };
    }
    let mut assignment = vec![0usize; domain_sizes.len()];
    // One fixed Fisher-Yates permutation per hole (xorshift64, seeded by the
    // hole index) decouples enumeration order from the domain ranking.
    let permutations: Vec<Vec<usize>> = domain_sizes
        .iter()
        .enumerate()
        .map(|(hole, &size)| {
            let mut permutation: Vec<usize> = (0..size).collect();
            let mut state =
                0x9e37_79b9_7f4a_7c15u64 ^ (hole as u64 + 1).wrapping_mul(0x517c_c1b7_2722_0a95);
            for j in (1..size).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                permutation.swap(j, (state % (j as u64 + 1)) as usize);
            }
            permutation
        })
        .collect();

    loop {
        if start.elapsed() > config.time_limit
            || (config.max_candidates > 0 && candidates >= config.max_candidates)
        {
            return CegisOutcome {
                program: None,
                candidates,
                counterexamples: counterexamples.len(),
                timed_out: true,
                elapsed: start.elapsed(),
            };
        }

        let scrambled: Vec<usize> = assignment
            .iter()
            .zip(&permutations)
            .map(|(&position, permutation)| permutation[position])
            .collect();
        if let Ok(candidate) = sketch.instantiate(&scrambled) {
            candidates += 1;
            let screened_out = counterexamples.iter().any(|(sequence, expected)| {
                &observe(&candidate, target_schema, sequence) != expected
            });
            if !screened_out && candidate.validate(target_schema).is_ok() {
                match check_candidate_cached(
                    &oracle,
                    &candidate,
                    target_schema,
                    &config.testing,
                    None,
                    None,
                    None,
                ) {
                    CheckOutcome::Equivalent { .. } => {
                        return CegisOutcome {
                            program: Some(candidate),
                            candidates,
                            counterexamples: counterexamples.len(),
                            timed_out: false,
                            elapsed: start.elapsed(),
                        };
                    }
                    CheckOutcome::NotEquivalent {
                        minimum_failing_input,
                        ..
                    } => {
                        let expected = oracle.observe(&minimum_failing_input);
                        counterexamples.push((minimum_failing_input, expected));
                    }
                    CheckOutcome::Cancelled { .. } => {
                        unreachable!("the baseline check runs without a cancel token")
                    }
                }
            }
        }

        // Advance the lexicographic odometer; stop when it wraps around.
        let mut position = assignment.len();
        loop {
            if position == 0 {
                return CegisOutcome {
                    program: None,
                    candidates,
                    counterexamples: counterexamples.len(),
                    timed_out: false,
                    elapsed: start.elapsed(),
                };
            }
            position -= 1;
            assignment[position] += 1;
            if assignment[position] < domain_sizes[position] {
                break;
            }
            assignment[position] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch_gen::{generate_sketch, SketchGenConfig};
    use crate::value_corr::{VcConfig, VcEnumerator};
    use dbir::parser::parse_program;

    fn rename_benchmark() -> (Schema, Schema, Program) {
        let source_schema = Schema::parse("T(a: int, b: string)").unwrap();
        let target_schema = Schema::parse("T(a: int, bb: string)").unwrap();
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
        (source_schema, target_schema, source)
    }

    fn sketch_for(source: &Program, source_schema: &Schema, target_schema: &Schema) -> Sketch {
        let mut vc = VcEnumerator::new(source, source_schema, target_schema, &VcConfig::default());
        let phi = vc.next_correspondence().unwrap();
        generate_sketch(source, &phi, target_schema, &SketchGenConfig::default()).unwrap()
    }

    #[test]
    fn enumerative_baseline_solves_small_sketches() {
        let (source_schema, target_schema, source) = rename_benchmark();
        let sketch = sketch_for(&source, &source_schema, &target_schema);
        let outcome = solve_enumerative(
            &sketch,
            &source,
            &source_schema,
            &target_schema,
            &TestConfig::default(),
            &TestConfig::default(),
            0,
        );
        assert!(outcome.program.is_some());
    }

    #[test]
    fn cegis_baseline_solves_small_sketches() {
        let (source_schema, target_schema, source) = rename_benchmark();
        let sketch = sketch_for(&source, &source_schema, &target_schema);
        let outcome = solve_cegis(
            &sketch,
            &source,
            &source_schema,
            &target_schema,
            &CegisConfig::default(),
        );
        assert!(outcome.program.is_some());
        assert!(!outcome.timed_out);
        assert!(outcome.candidates >= 1);
    }

    #[test]
    fn cegis_baseline_respects_budget() {
        let (source_schema, target_schema, source) = rename_benchmark();
        let sketch = sketch_for(&source, &source_schema, &target_schema);
        // An impossible budget of zero time forces an immediate timeout.
        let outcome = solve_cegis(
            &sketch,
            &source,
            &source_schema,
            &target_schema,
            &CegisConfig {
                max_candidates: 1,
                time_limit: Duration::from_secs(0),
                testing: TestConfig::default(),
            },
        );
        assert!(outcome.program.is_none());
        assert!(outcome.timed_out);
    }
}
