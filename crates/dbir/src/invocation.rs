//! Invocation sequences and program execution (Section 3.2 of the paper).
//!
//! An invocation sequence `ω = (f1,σ1); …; (fk,σk)` consists of zero or more
//! update-function calls followed by a single query-function call. Executing
//! a program on `ω` starts from the empty database instance, applies the
//! updates in order, evaluates the final query and returns its result.
//! Two programs are equivalent iff every invocation sequence yields the same
//! query result on both.

use std::fmt;

use crate::ast::{Function, Program};
use crate::error::{Error, Result};
use crate::eval::Evaluator;
use crate::instance::{Instance, Relation};
use crate::schema::Schema;
use crate::value::Value;

/// A single function call: a function name and its positional arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Call {
    /// Name of the invoked function.
    pub function: String,
    /// Positional arguments.
    pub args: Vec<Value>,
}

impl Call {
    /// Creates a call.
    pub fn new(function: impl Into<String>, args: Vec<Value>) -> Call {
        Call {
            function: function.into(),
            args,
        }
    }
}

impl fmt::Display for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.function)?;
        for (i, arg) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{arg}")?;
        }
        f.write_str(")")
    }
}

/// An invocation sequence: update calls followed by one query call.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InvocationSequence {
    /// The update calls, applied in order to the empty instance.
    pub updates: Vec<Call>,
    /// The final query call whose result is observed.
    pub query: Call,
}

impl InvocationSequence {
    /// Creates an invocation sequence.
    pub fn new(updates: Vec<Call>, query: Call) -> InvocationSequence {
        InvocationSequence { updates, query }
    }

    /// The total number of calls (updates plus the query), i.e. `|ω|`.
    pub fn len(&self) -> usize {
        self.updates.len() + 1
    }

    /// Returns `true` if the sequence consists only of the query call.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The update-call depth: how many update calls precede the
    /// distinguishing query. This is the "death depth" the forensics
    /// ledger buckets minimum failing inputs by.
    pub fn depth(&self) -> usize {
        self.updates.len()
    }
}

impl fmt::Display for InvocationSequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for call in &self.updates {
            write!(f, "{call}; ")?;
        }
        write!(f, "{}", self.query)
    }
}

/// The observable outcome of running a program on an invocation sequence:
/// either the rows of the final query (sorted into canonical order) or an
/// execution error.
///
/// Errors are part of the observable behaviour: a candidate program that
/// fails where the original succeeds is not equivalent to it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The final query's rows in canonical (sorted) order.
    Rows(Vec<Vec<Value>>),
    /// Execution failed with the given error.
    Failed(Error),
}

impl Outcome {
    /// Returns the rows if execution succeeded.
    pub fn rows(&self) -> Option<&[Vec<Value>]> {
        match self {
            Outcome::Rows(rows) => Some(rows),
            Outcome::Failed(_) => None,
        }
    }
}

/// Executes `program` (over `schema`) on the invocation sequence `ω`,
/// starting from the empty instance, and returns the final query result —
/// the paper's `⟦P⟧ω`.
///
/// # Errors
///
/// Returns an error if a call names an unknown function, if the final call
/// is not a query, or if evaluation fails.
pub fn run(program: &Program, schema: &Schema, sequence: &InvocationSequence) -> Result<Relation> {
    let mut instance = Instance::empty(schema);
    let mut evaluator = Evaluator::new(schema);
    for call in &sequence.updates {
        let function = resolve_update(program, &call.function)?;
        evaluator.call(function, &call.args, &mut instance)?;
    }
    let query = resolve_query(program, &sequence.query.function)?;
    let result = evaluator.call(query, &sequence.query.args, &mut instance)?;
    Ok(result.expect("query functions return a relation"))
}

/// Resolves a function used in update position, rejecting queries.
///
/// Shared between [`run`] and the prefix-shared engine in [`crate::equiv`]
/// so both report byte-identical errors.
pub(crate) fn resolve_update<'p>(program: &'p Program, name: &str) -> Result<&'p Function> {
    let function = program
        .function(name)
        .ok_or_else(|| Error::UnknownFunction(name.to_string()))?;
    if function.is_query() {
        return Err(Error::InvalidStatement(format!(
            "`{name}` is a query function but is used as an update in the sequence"
        )));
    }
    Ok(function)
}

/// Resolves a function used in query position, rejecting updates.
pub(crate) fn resolve_query<'p>(program: &'p Program, name: &str) -> Result<&'p Function> {
    let function = program
        .function(name)
        .ok_or_else(|| Error::UnknownFunction(name.to_string()))?;
    if !function.is_query() {
        return Err(Error::InvalidStatement(format!(
            "`{name}` is an update function but is used as the final query"
        )));
    }
    Ok(function)
}

/// Executes `program` on `ω` and converts the result into an [`Outcome`]
/// suitable for comparing two programs.
pub fn observe(program: &Program, schema: &Schema, sequence: &InvocationSequence) -> Outcome {
    match run(program, schema, sequence) {
        Ok(relation) => Outcome::Rows(relation.canonical_rows()),
        Err(err) => Outcome::Failed(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Function, JoinChain, Operand, Param, Pred, Query, Update};
    use crate::schema::QualifiedAttr;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::parse("User(uid: int, name: string)").unwrap()
    }

    fn program() -> Program {
        Program::new(vec![
            Function::update(
                "addUser",
                vec![
                    Param::new("uid", DataType::Int),
                    Param::new("name", DataType::String),
                ],
                Update::Insert {
                    join: JoinChain::table("User"),
                    values: vec![
                        (QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                        (QualifiedAttr::new("User", "name"), Operand::param("name")),
                    ],
                },
            ),
            Function::update(
                "deleteUser",
                vec![Param::new("uid", DataType::Int)],
                Update::Delete {
                    tables: vec!["User".into()],
                    join: JoinChain::table("User"),
                    pred: Pred::eq_value(QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                },
            ),
            Function::query(
                "getUser",
                vec![Param::new("uid", DataType::Int)],
                Query::select(
                    vec![QualifiedAttr::new("User", "name")],
                    Pred::eq_value(QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                    JoinChain::table("User"),
                ),
            ),
        ])
    }

    #[test]
    fn run_insert_then_query() {
        let seq = InvocationSequence::new(
            vec![Call::new("addUser", vec![Value::Int(1), Value::str("ada")])],
            Call::new("getUser", vec![Value::Int(1)]),
        );
        let result = run(&program(), &schema(), &seq).unwrap();
        assert_eq!(result.rows, vec![vec![Value::str("ada")]]);
        assert_eq!(seq.len(), 2);
        assert!(!seq.is_empty());
    }

    #[test]
    fn run_insert_delete_query_is_empty() {
        let seq = InvocationSequence::new(
            vec![
                Call::new("addUser", vec![Value::Int(1), Value::str("ada")]),
                Call::new("deleteUser", vec![Value::Int(1)]),
            ],
            Call::new("getUser", vec![Value::Int(1)]),
        );
        let result = run(&program(), &schema(), &seq).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn unknown_function_is_reported() {
        let seq = InvocationSequence::new(vec![], Call::new("nope", vec![]));
        assert!(matches!(
            run(&program(), &schema(), &seq),
            Err(Error::UnknownFunction(_))
        ));
    }

    #[test]
    fn query_used_as_update_is_rejected() {
        let seq = InvocationSequence::new(
            vec![Call::new("getUser", vec![Value::Int(1)])],
            Call::new("getUser", vec![Value::Int(1)]),
        );
        assert!(run(&program(), &schema(), &seq).is_err());
    }

    #[test]
    fn update_used_as_query_is_rejected() {
        let seq = InvocationSequence::new(
            vec![],
            Call::new("addUser", vec![Value::Int(1), Value::str("x")]),
        );
        assert!(run(&program(), &schema(), &seq).is_err());
    }

    #[test]
    fn observe_wraps_errors() {
        let seq = InvocationSequence::new(vec![], Call::new("nope", vec![]));
        match observe(&program(), &schema(), &seq) {
            Outcome::Failed(Error::UnknownFunction(_)) => {}
            other => panic!("expected failure outcome, got {other:?}"),
        }
    }

    #[test]
    fn display_formats_sequence() {
        let seq = InvocationSequence::new(
            vec![Call::new("addUser", vec![Value::Int(1), Value::str("ada")])],
            Call::new("getUser", vec![Value::Int(1)]),
        );
        let text = seq.to_string();
        assert!(text.contains("addUser(1, \"ada\")"));
        assert!(text.ends_with("getUser(1)"));
    }
}
