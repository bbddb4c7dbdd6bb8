//! Malformed input never panics a parser. The DDL parser, the program
//! parser and the JSON parser of the job protocol each take inputs made by
//! truncating, splicing and bit-flipping valid ones: the worked example of
//! `examples/migrate` and a job-submission line. Each parser must hand back
//! a result: an error, or a value when an edit happens to leave the text
//! valid.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dbir::parser::parse_program;
use proptest::prelude::*;
use sqlbridge::{parse_ddl, Json};

const SOURCE_DDL: &str = include_str!("../../../examples/migrate/source.sql");
const TARGET_DDL: &str = include_str!("../../../examples/migrate/target.sql");
const PROGRAM: &str = include_str!("../../../examples/migrate/program.dbp");

/// Cases per parser. Each case applies one to four edits.
const CASES: u32 = 10_000;

/// A `submit` request line as the job client sends it.
fn submit_line() -> String {
    let job = Json::object()
        .with("source_ddl", Json::str(SOURCE_DDL))
        .with("target_ddl", Json::str(TARGET_DDL))
        .with("program", Json::str(PROGRAM))
        .with("config", Json::str("widened"))
        .with("max_value_correspondences", Json::from(8usize))
        .with("budget_secs", Json::from(2.5))
        .with("validate", Json::Bool(false))
        .with("rows", Json::from(3usize));
    Json::object()
        .with("cmd", Json::str("submit"))
        .with("job", job)
        .to_compact_string()
}

/// One edit of an input's bytes. Positions are reduced modulo the length
/// of the text they apply to, so any drawn value is in range.
#[derive(Debug, Clone)]
enum Edit {
    /// Cuts the text at a position.
    Truncate(usize),
    /// Inserts up to `len` bytes of a donor text, read from `from`, at `at`.
    Splice {
        at: usize,
        donor: usize,
        from: usize,
        len: usize,
    },
    /// Flips bit `bit` of the byte at `at`.
    Flip { at: usize, bit: u8 },
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let position = || 0usize..1 << 16;
    let edit = (
        0u8..3,
        position(),
        0usize..8,
        position(),
        1usize..64,
        0u8..8,
    )
        .prop_map(|(kind, at, donor, from, len, bit)| match kind {
            0 => Edit::Truncate(at),
            1 => Edit::Splice {
                at,
                donor,
                from,
                len,
            },
            _ => Edit::Flip { at, bit },
        });
    proptest::collection::vec(edit, 1..5)
}

/// `input` with `edits` applied in order. Splices copy from `donors`, so
/// one language's text can land inside another's. Bytes that no longer
/// form UTF-8 become replacement characters, as a reader decoding the
/// text lossily would see them.
fn mutate(input: &str, donors: &[&str], edits: &[Edit]) -> String {
    let mut bytes = input.as_bytes().to_vec();
    for edit in edits {
        match *edit {
            Edit::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
            Edit::Splice {
                at,
                donor,
                from,
                len,
            } => {
                let donor = donors[donor % donors.len()].as_bytes();
                let from = from % (donor.len() + 1);
                let piece = &donor[from..donor.len().min(from + len)];
                let at = at % (bytes.len() + 1);
                bytes.splice(at..at, piece.iter().copied());
            }
            Edit::Flip { at, bit } => {
                if !bytes.is_empty() {
                    let at = at % bytes.len();
                    bytes[at] ^= 1 << bit;
                }
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `parse` on every mutation of `inputs` by `edits`, failing with the
/// offending text if it panics.
fn never_panics<T>(parser: &str, inputs: &[&str], edits: &[Edit], parse: impl Fn(&str) -> T) {
    let line = submit_line();
    let donors = [
        SOURCE_DDL,
        TARGET_DDL,
        PROGRAM,
        line.as_str(),
        "((((((((",
        "\"\\\"\\u00e9\\ud800",
        "é∑😀\u{0}",
        ";,.:=<>()[]{}",
    ];
    for input in inputs {
        let text = mutate(input, &donors, edits);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            parse(&text);
        }));
        assert!(outcome.is_ok(), "{parser} panicked on {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn parse_ddl_never_panics(edits in edits()) {
        never_panics("parse_ddl", &[SOURCE_DDL, TARGET_DDL], &edits, parse_ddl);
    }

    #[test]
    fn parse_program_never_panics(edits in edits()) {
        let schema = parse_ddl(SOURCE_DDL).expect("the worked example's DDL parses");
        never_panics("parse_program", &[PROGRAM], &edits, |text| {
            parse_program(text, &schema)
        });
    }

    #[test]
    fn json_parse_never_panics(edits in edits()) {
        let line = submit_line();
        never_panics("Json::parse", &[line.as_str()], &edits, Json::parse);
    }
}

/// The unmutated inputs parse: the edits above start from valid text.
#[test]
fn the_inputs_parse_before_any_edit() {
    let schema = parse_ddl(SOURCE_DDL).expect("source DDL");
    parse_ddl(TARGET_DDL).expect("target DDL");
    parse_program(PROGRAM, &schema).expect("program");
    Json::parse(&submit_line()).expect("submit line");
}
