//! Equivalence checking and minimum-failing-input generation.
//!
//! The paper uses bounded testing to find minimum failing inputs and the
//! Mediator verifier for the final equivalence proof. Mediator is a
//! full-blown POPL'18 system for inferring bisimulation invariants; this
//! reproduction substitutes a deeper bounded-testing pass, which preserves
//! the role verification plays in the synthesis loop: it is the last,
//! deepest check a candidate passes.
//!
//! The sketch completion already runs that check on the candidate it
//! accepts, through the sketch's [`PrefixCache`]. The synthesizer's final
//! pass runs it again through the same cache, which remembers every
//! (plan, length) pair the completion's check walked to exhaustion, so the
//! final pass walks nothing: it reports the same verdict and sequence
//! count from the remembered verdicts. Its time, reported separately from
//! synthesis time, is that lookup's, not a walk's.

use dbir::equiv::{
    compare_with_oracle, CheckProfile, EquivalenceReport, PrefixCache, SourceOracle, TestConfig,
};
use dbir::{InvocationSequence, Program, Schema};
use parpool::CancelToken;

/// The result of checking a candidate program against the source program.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckOutcome {
    /// No failing input was found within the bound.
    Equivalent {
        /// Number of invocation sequences executed.
        sequences_tested: usize,
        /// `true` if every sequence within the depth bound was enumerated.
        /// `false` means the check stopped at
        /// [`TestConfig::max_sequences`](dbir::equiv::TestConfig) and the
        /// verdict is optimistic, not evidence of bounded equivalence.
        bound_exhausted: bool,
    },
    /// A minimum failing input was found.
    NotEquivalent {
        /// The shortest distinguishing invocation sequence found.
        minimum_failing_input: InvocationSequence,
        /// Number of invocation sequences executed before finding it.
        sequences_tested: usize,
    },
    /// The check was interrupted by the caller's [`CancelToken`] before
    /// reaching a verdict. Carries no evidence either way.
    Cancelled {
        /// Number of invocation sequences executed before the interruption.
        sequences_tested: usize,
    },
}

impl CheckOutcome {
    /// Returns `true` if the candidate passed the check.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, CheckOutcome::Equivalent { .. })
    }

    /// The number of invocation sequences executed.
    pub fn sequences_tested(&self) -> usize {
        match self {
            CheckOutcome::Equivalent {
                sequences_tested, ..
            }
            | CheckOutcome::NotEquivalent {
                sequences_tested, ..
            }
            | CheckOutcome::Cancelled { sequences_tested } => *sequences_tested,
        }
    }

    /// Returns `true` if the check accepted the candidate *without*
    /// enumerating the whole bound (its verdict is optimistic).
    pub fn is_truncated(&self) -> bool {
        matches!(
            self,
            CheckOutcome::Equivalent {
                bound_exhausted: false,
                ..
            }
        )
    }
}

/// Checks a candidate target program against the source program using
/// bounded testing with the given configuration, returning a minimum
/// failing input when the programs disagree.
///
/// Builds a throwaway [`SourceOracle`] internally; callers checking many
/// candidates against one source should use [`check_candidate_cached`]
/// with one oracle and one [`PrefixCache`], so the checks share call ids,
/// compiled plans and executed prefix states.
pub fn check_candidate(
    source: &Program,
    source_schema: &Schema,
    candidate: &Program,
    target_schema: &Schema,
    config: &TestConfig,
) -> CheckOutcome {
    let oracle = SourceOracle::new(source, source_schema);
    check_candidate_cached(&oracle, candidate, target_schema, config, None, None, None)
}

/// Checks a candidate against the source program `oracle` holds — the
/// source side shared by the candidates, and worker threads, of a
/// synthesis run.
///
/// The optional arguments are those of [`compare_with_oracle`]: `cancel`
/// is polled inside the walk and turns the outcome into
/// [`CheckOutcome::Cancelled`] when it fires; `profile` receives the
/// check's per-phase accounting; `cache` shares compiled plans and executed
/// update-prefix states across candidates. The verdict and every reported
/// count are identical with or without the cache — only which update
/// executions are skipped changes — so passing the same cache to the
/// bounded-testing and verification checks of one sketch is sound and lets
/// verification reuse the prefixes testing already executed.
#[allow(clippy::too_many_arguments)]
pub fn check_candidate_cached(
    oracle: &SourceOracle<'_>,
    candidate: &Program,
    target_schema: &Schema,
    config: &TestConfig,
    cancel: Option<&CancelToken>,
    profile: Option<&mut CheckProfile>,
    cache: Option<&mut PrefixCache>,
) -> CheckOutcome {
    let EquivalenceReport {
        equivalent,
        counterexample,
        sequences_tested,
        bound_exhausted,
        cancelled,
    } = compare_with_oracle(
        oracle,
        candidate,
        target_schema,
        config,
        cancel,
        profile,
        cache,
    );
    if cancelled {
        CheckOutcome::Cancelled { sequences_tested }
    } else if equivalent {
        CheckOutcome::Equivalent {
            sequences_tested,
            bound_exhausted,
        }
    } else {
        CheckOutcome::NotEquivalent {
            minimum_failing_input: counterexample
                .expect("non-equivalent report carries a counterexample"),
            sequences_tested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbir::parser::parse_program;

    #[test]
    fn identical_programs_are_equivalent() {
        let schema = Schema::parse("T(a: int, b: string)").unwrap();
        let program = parse_program(
            r#"
            update add(a: int, b: string)
                INSERT INTO T VALUES (a: a, b: b);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &schema,
        )
        .unwrap();
        let outcome = check_candidate(&program, &schema, &program, &schema, &TestConfig::default());
        assert!(outcome.is_equivalent());
        assert!(outcome.sequences_tested() > 0);
        assert!(!outcome.is_truncated());
    }

    #[test]
    fn capped_checks_report_truncation() {
        let schema = Schema::parse("T(a: int, b: string)").unwrap();
        let program = parse_program(
            r#"
            update add(a: int, b: string)
                INSERT INTO T VALUES (a: a, b: b);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &schema,
        )
        .unwrap();
        let capped = TestConfig {
            max_sequences: Some(1),
            ..TestConfig::default()
        };
        let outcome = check_candidate(&program, &schema, &program, &schema, &capped);
        assert!(outcome.is_equivalent());
        assert!(
            outcome.is_truncated(),
            "a capped pass must be flagged as optimistic"
        );
        match outcome {
            CheckOutcome::Equivalent {
                bound_exhausted, ..
            } => assert!(!bound_exhausted),
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn differing_programs_produce_minimum_failing_input() {
        let schema = Schema::parse("T(a: int, b: string, c: string)").unwrap();
        let source = parse_program(
            r#"
            update add(a: int, b: string, c: string)
                INSERT INTO T VALUES (a: a, b: b, c: c);
            query get(a: int)
                SELECT b FROM T WHERE a = a;
            "#,
            &schema,
        )
        .unwrap();
        let candidate = parse_program(
            r#"
            update add(a: int, b: string, c: string)
                INSERT INTO T VALUES (a: a, b: b, c: c);
            query get(a: int)
                SELECT c FROM T WHERE a = a;
            "#,
            &schema,
        )
        .unwrap();
        match check_candidate(
            &source,
            &schema,
            &candidate,
            &schema,
            &TestConfig::default(),
        ) {
            CheckOutcome::NotEquivalent {
                minimum_failing_input,
                ..
            } => {
                assert_eq!(minimum_failing_input.updates.len(), 1);
                assert_eq!(minimum_failing_input.query.function, "get");
            }
            other => panic!("programs differ, got {other:?}"),
        }
    }
}
