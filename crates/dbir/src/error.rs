//! Error types shared across the crate.

use std::fmt;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while constructing, parsing or evaluating database programs.
///
/// The messages are lowercase without trailing punctuation so they compose
/// well when wrapped by downstream errors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Error {
    /// A table name was referenced but does not exist in the schema.
    UnknownTable(String),
    /// An attribute was referenced but does not exist in the schema
    /// (or is ambiguous when unqualified).
    UnknownAttribute(String),
    /// A function name was invoked but does not exist in the program.
    UnknownFunction(String),
    /// A function parameter was referenced but not declared.
    UnknownParameter(String),
    /// The number or types of arguments do not match the function signature.
    ArityMismatch {
        /// Function being invoked.
        function: String,
        /// Number of parameters the function declares.
        expected: usize,
        /// Number of arguments supplied.
        actual: usize,
    },
    /// A value of the wrong type was supplied for an attribute or parameter.
    TypeMismatch {
        /// Human-readable location of the mismatch.
        context: String,
        /// Expected data type.
        expected: String,
        /// Actual data type.
        actual: String,
    },
    /// A statement is structurally invalid (e.g. deleting from a table that
    /// does not participate in the statement's join chain).
    InvalidStatement(String),
    /// An `IN` subquery produced a relation that is not single-column, so
    /// membership of a scalar in it is ill-typed.
    NonSingleColumnSubquery {
        /// Number of columns the subquery actually produced.
        columns: usize,
    },
    /// An ordering comparison (`<`, `<=`, `>`, `>=`) was applied to values
    /// of different runtime types, for which no order is defined.
    MixedTypeOrdering {
        /// Rendered type of the left operand (`null` for NULL).
        lhs: String,
        /// Rendered type of the right operand (`null` for NULL).
        rhs: String,
    },
    /// A function declares the same parameter name twice, which would let
    /// one binding silently shadow the other.
    DuplicateParameter {
        /// Function declaring the duplicate.
        function: String,
        /// The repeated parameter name.
        parameter: String,
    },
    /// A syntax error encountered by the parser.
    Parse {
        /// Line number (1-based) of the offending token.
        line: usize,
        /// Column number (1-based) of the offending token.
        column: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A schema-level inconsistency (duplicate table, duplicate column, ...).
    Schema(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable(name) => write!(f, "unknown table `{name}`"),
            Error::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            Error::UnknownFunction(name) => write!(f, "unknown function `{name}`"),
            Error::UnknownParameter(name) => write!(f, "unknown parameter `{name}`"),
            Error::ArityMismatch {
                function,
                expected,
                actual,
            } => write!(
                f,
                "function `{function}` expects {expected} arguments but received {actual}"
            ),
            Error::TypeMismatch {
                context,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch in {context}: expected {expected}, found {actual}"
            ),
            Error::InvalidStatement(msg) => write!(f, "invalid statement: {msg}"),
            Error::NonSingleColumnSubquery { columns } => write!(
                f,
                "IN subquery must produce exactly one column, found {columns}"
            ),
            Error::MixedTypeOrdering { lhs, rhs } => write!(
                f,
                "ordering comparison between incompatible types {lhs} and {rhs}"
            ),
            Error::DuplicateParameter {
                function,
                parameter,
            } => write!(
                f,
                "function `{function}` declares parameter `{parameter}` more than once"
            ),
            Error::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            Error::Schema(msg) => write!(f, "schema error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_unknown_table() {
        let err = Error::UnknownTable("Foo".to_string());
        assert_eq!(err.to_string(), "unknown table `Foo`");
    }

    #[test]
    fn display_arity_mismatch() {
        let err = Error::ArityMismatch {
            function: "addUser".into(),
            expected: 3,
            actual: 1,
        };
        assert!(err.to_string().contains("addUser"));
        assert!(err.to_string().contains('3'));
        assert!(err.to_string().contains('1'));
    }

    #[test]
    fn display_parse_error_has_position() {
        let err = Error::Parse {
            line: 4,
            column: 7,
            message: "expected identifier".into(),
        };
        assert_eq!(err.to_string(), "parse error at 4:7: expected identifier");
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
