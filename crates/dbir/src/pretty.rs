//! Pretty-printing of database programs in the crate's concrete syntax.
//!
//! The output of [`program_to_string`] can be parsed back by
//! [`crate::parser::parse_program`], which the round-trip tests rely on.

use std::fmt::Write as _;

use crate::ast::{Function, FunctionBody, JoinChain, Pred, Program, Query, Update};

/// Renders a join chain as `T1 JOIN T2 ON a = b JOIN ...`.
pub fn join_to_string(join: &JoinChain) -> String {
    match join {
        JoinChain::Table(t) => t.to_string(),
        JoinChain::Join {
            left,
            right,
            left_attr,
            right_attr,
        } => format!(
            "{} JOIN {} ON {} = {}",
            join_to_string(left),
            join_to_string(right),
            left_attr,
            right_attr
        ),
    }
}

/// Renders a predicate, parenthesizing an operand only where the parser's
/// precedence requires it: `OR` binds loosest, then `AND`, then `NOT` and
/// the atoms, and `AND`/`OR` chains associate to the left. The printed form
/// parses back to the same predicate, and it nests no deeper than the text
/// the predicate was parsed from, so whatever the parser accepted it
/// accepts again once printed.
pub fn pred_to_string(pred: &Pred) -> String {
    // An operand binding more loosely than its context (`binding`) gets
    // parentheses. A right operand with its chain's own operator counts as
    // looser, or it would re-parse as part of the left-associated chain.
    let operand = |inner: &Pred, binding: u8| {
        let text = pred_to_string(inner);
        if precedence(inner) < binding {
            format!("({text})")
        } else {
            text
        }
    };
    match pred {
        Pred::True => "TRUE".to_string(),
        Pred::False => "FALSE".to_string(),
        Pred::CmpAttr { lhs, op, rhs } => format!("{lhs} {op} {rhs}"),
        Pred::CmpValue { lhs, op, rhs } => format!("{lhs} {op} {rhs}"),
        Pred::In { attr, query } => format!("{attr} IN ({})", query_to_string(query)),
        Pred::And(a, b) => format!("{} AND {}", operand(a, 1), operand(b, 2)),
        Pred::Or(a, b) => format!("{} OR {}", operand(a, 0), operand(b, 1)),
        Pred::Not(p) => format!("NOT {}", operand(p, 2)),
    }
}

/// How tightly a predicate's top operator binds: 0 for `OR`, 1 for `AND`,
/// 2 for `NOT` and the atoms.
fn precedence(pred: &Pred) -> u8 {
    match pred {
        Pred::Or(..) => 0,
        Pred::And(..) => 1,
        _ => 2,
    }
}

/// Renders a query as a `SELECT` statement.
pub fn query_to_string(query: &Query) -> String {
    // Decompose the standard Π(σ(J)) shape; fall back to nested rendering
    // for other shapes.
    let (attrs, pred, join) = decompose(query);
    let mut out = String::new();
    out.push_str("SELECT ");
    match attrs {
        Some(attrs) => {
            for (i, attr) in attrs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{attr}");
            }
        }
        None => out.push('*'),
    }
    let _ = write!(out, " FROM {}", join_to_string(join));
    if let Some(pred) = pred {
        if pred != &Pred::True {
            let _ = write!(out, " WHERE {}", pred_to_string(pred));
        }
    }
    out
}

fn decompose(
    query: &Query,
) -> (
    Option<&[crate::schema::QualifiedAttr]>,
    Option<&Pred>,
    &JoinChain,
) {
    match query {
        Query::Project { attrs, input } => {
            let (_, pred, join) = decompose(input);
            (Some(attrs), pred, join)
        }
        Query::Filter { pred, input } => {
            let (attrs, _, join) = decompose(input);
            (attrs, Some(pred), join)
        }
        Query::Join(join) => (None, None, join),
    }
}

/// Renders an update statement (or sequence) as one `INSERT` / `DELETE` /
/// `UPDATE` statement per line.
pub fn update_to_string(update: &Update) -> String {
    let mut out = String::new();
    for stmt in update.statements() {
        match stmt {
            Update::Insert { join, values } => {
                let _ = write!(out, "INSERT INTO {} VALUES (", join_to_string(join));
                for (i, (attr, value)) in values.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{attr}: {value}");
                }
                out.push_str(");\n");
            }
            Update::Delete { tables, join, pred } => {
                out.push_str("DELETE ");
                for (i, table) in tables.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "{table}");
                }
                let _ = write!(out, " FROM {}", join_to_string(join));
                if pred != &Pred::True {
                    let _ = write!(out, " WHERE {}", pred_to_string(pred));
                }
                out.push_str(";\n");
            }
            Update::UpdateAttr {
                join,
                pred,
                attr,
                value,
            } => {
                let _ = write!(out, "UPDATE {} SET {attr} = {value}", join_to_string(join));
                if pred != &Pred::True {
                    let _ = write!(out, " WHERE {}", pred_to_string(pred));
                }
                out.push_str(";\n");
            }
            Update::Seq(_) => unreachable!("statements() flattens sequences"),
        }
    }
    out
}

/// Renders a full function declaration.
pub fn function_to_string(function: &Function) -> String {
    let mut out = String::new();
    let kind = if function.is_query() {
        "query"
    } else {
        "update"
    };
    let _ = write!(out, "{kind} {}(", function.name);
    for (i, param) in function.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", param.name, param.ty);
    }
    out.push_str(")\n");
    match &function.body {
        FunctionBody::Query(query) => {
            let _ = writeln!(out, "    {};", query_to_string(query));
        }
        FunctionBody::Update(update) => {
            for line in update_to_string(update).lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    out
}

/// Renders a whole program.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for function in &program.functions {
        out.push_str(&function_to_string(function));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Operand, Param};
    use crate::schema::QualifiedAttr;
    use crate::value::{DataType, Value};

    fn qa(t: &str, a: &str) -> QualifiedAttr {
        QualifiedAttr::new(t, a)
    }

    #[test]
    fn renders_select() {
        let q = Query::select(
            vec![qa("User", "name")],
            Pred::eq_value(qa("User", "uid"), Operand::param("id")),
            JoinChain::table("User"),
        );
        assert_eq!(
            query_to_string(&q),
            "SELECT User.name FROM User WHERE User.uid = id"
        );
    }

    #[test]
    fn renders_join_chain() {
        let chain = JoinChain::table("A").join(JoinChain::table("B"), qa("A", "x"), qa("B", "x"));
        assert_eq!(join_to_string(&chain), "A JOIN B ON A.x = B.x");
    }

    #[test]
    fn renders_insert_delete_update() {
        let seq = Update::Seq(vec![
            Update::Insert {
                join: JoinChain::table("User"),
                values: vec![(qa("User", "uid"), Operand::Value(Value::Int(1)))],
            },
            Update::Delete {
                tables: vec!["User".into()],
                join: JoinChain::table("User"),
                pred: Pred::eq_value(qa("User", "uid"), Operand::param("id")),
            },
            Update::UpdateAttr {
                join: JoinChain::table("User"),
                pred: Pred::True,
                attr: qa("User", "name"),
                value: Operand::Value(Value::str("x")),
            },
        ]);
        let text = update_to_string(&seq);
        assert!(text.contains("INSERT INTO User VALUES (User.uid: 1);"));
        assert!(text.contains("DELETE User FROM User WHERE User.uid = id;"));
        assert!(text.contains("UPDATE User SET User.name = \"x\";"));
    }

    #[test]
    fn renders_function_and_program() {
        let f = Function::query(
            "getUser",
            vec![Param::new("id", DataType::Int)],
            Query::select(
                vec![qa("User", "name")],
                Pred::eq_value(qa("User", "uid"), Operand::param("id")),
                JoinChain::table("User"),
            ),
        );
        let text = function_to_string(&f);
        assert!(text.starts_with("query getUser(id: int)"));
        let program = Program::new(vec![f]);
        assert!(program_to_string(&program).contains("SELECT User.name"));
    }

    #[test]
    fn renders_nested_predicates() {
        let p = Pred::Not(Box::new(
            Pred::eq_value(qa("T", "a"), Operand::Value(Value::Int(1)))
                .and(Pred::eq_value(qa("T", "b"), Operand::Value(Value::Int(2)))),
        ));
        assert_eq!(pred_to_string(&p), "NOT (T.a = 1 AND T.b = 2)");
    }
}
