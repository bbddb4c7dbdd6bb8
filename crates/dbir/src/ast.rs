//! Abstract syntax of database programs (Figure 5 of the paper).
//!
//! A [`Program`] is a list of [`Function`]s; each function is either a
//! *query* (a relational-algebra expression over projection, selection and
//! equi-joins) or an *update* (a sequence of insert / delete / update
//! statements). Function parameters may appear wherever values are expected.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::{QualifiedAttr, Schema, TableName};
use crate::value::{DataType, Value};

/// A function parameter: a name and its declared type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter name (e.g. `id`).
    pub name: String,
    /// Declared type.
    pub ty: DataType,
}

impl Param {
    /// Creates a parameter.
    pub fn new(name: impl Into<String>, ty: DataType) -> Param {
        Param {
            name: name.into(),
            ty,
        }
    }
}

/// An operand of a predicate, insert value, or update value: either a
/// literal constant or a reference to a function parameter.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operand {
    /// A literal value.
    Value(Value),
    /// A reference to an enclosing function parameter.
    Param(String),
}

impl Operand {
    /// Convenience constructor for a parameter reference.
    pub fn param(name: impl Into<String>) -> Operand {
        Operand::Param(name.into())
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Value(v) => write!(f, "{v}"),
            Operand::Param(p) => f.write_str(p),
        }
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Operand {
        Operand::Value(v)
    }
}

/// Comparison operators usable inside predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Disequality.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    /// The concrete-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A join chain: either a single table or a nested equi-join
/// `J1 a1⋈a2 J2` (Figure 5, `Join`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JoinChain {
    /// A base table.
    Table(TableName),
    /// An equi-join of two join chains on `left_attr = right_attr`.
    Join {
        /// Left operand.
        left: Box<JoinChain>,
        /// Right operand.
        right: Box<JoinChain>,
        /// Attribute from the left operand.
        left_attr: QualifiedAttr,
        /// Attribute from the right operand.
        right_attr: QualifiedAttr,
    },
}

impl JoinChain {
    /// Creates a join chain over a single table.
    pub fn table(name: impl Into<TableName>) -> JoinChain {
        JoinChain::Table(name.into())
    }

    /// Joins `self` with `right` on `left_attr = right_attr`.
    pub fn join(
        self,
        right: JoinChain,
        left_attr: QualifiedAttr,
        right_attr: QualifiedAttr,
    ) -> JoinChain {
        JoinChain::Join {
            left: Box::new(self),
            right: Box::new(right),
            left_attr,
            right_attr,
        }
    }

    /// All tables participating in the chain, left to right.
    pub fn tables(&self) -> Vec<TableName> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out
    }

    fn collect_tables(&self, out: &mut Vec<TableName>) {
        match self {
            JoinChain::Table(t) => out.push(*t),
            JoinChain::Join { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// Returns `true` if the chain mentions the given table.
    pub fn contains_table(&self, table: &TableName) -> bool {
        self.tables().iter().any(|t| t == table)
    }

    /// All qualified attributes available from this chain (the union of the
    /// columns of all participating tables), resolved against `schema`.
    pub fn attrs(&self, schema: &Schema) -> Vec<QualifiedAttr> {
        self.tables()
            .iter()
            .filter_map(|t| schema.table(t))
            .flat_map(|t| t.qualified_attrs())
            .collect()
    }

    /// The attributes mentioned in the equality conditions of the chain.
    pub fn join_condition_attrs(&self) -> Vec<QualifiedAttr> {
        let mut out = Vec::new();
        self.collect_condition_attrs(&mut out);
        out
    }

    fn collect_condition_attrs(&self, out: &mut Vec<QualifiedAttr>) {
        if let JoinChain::Join {
            left,
            right,
            left_attr,
            right_attr,
        } = self
        {
            left.collect_condition_attrs(out);
            right.collect_condition_attrs(out);
            out.push(left_attr.clone());
            out.push(right_attr.clone());
        }
    }

    /// The number of base tables in the chain.
    pub fn len(&self) -> usize {
        self.tables().len()
    }

    /// Returns `true` if the chain is a single table.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl From<TableName> for JoinChain {
    fn from(t: TableName) -> JoinChain {
        JoinChain::Table(t)
    }
}

/// A boolean predicate over join-chain attributes, constants and parameters
/// (Figure 5, `Pred`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// The always-true predicate.
    True,
    /// The always-false predicate.
    False,
    /// Attribute compared with another attribute: `a op b`.
    CmpAttr {
        /// Left attribute.
        lhs: QualifiedAttr,
        /// Comparison operator.
        op: CmpOp,
        /// Right attribute.
        rhs: QualifiedAttr,
    },
    /// Attribute compared with a constant or parameter: `a op v`.
    CmpValue {
        /// Attribute.
        lhs: QualifiedAttr,
        /// Comparison operator.
        op: CmpOp,
        /// Constant or parameter.
        rhs: Operand,
    },
    /// Membership of an attribute in the result of a sub-query: `a ∈ Q`.
    In {
        /// Attribute whose value is tested.
        attr: QualifiedAttr,
        /// Sub-query; must project a single column.
        query: Box<Query>,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// Builds `lhs = rhs` where `rhs` is an operand.
    pub fn eq_value(lhs: QualifiedAttr, rhs: impl Into<Operand>) -> Pred {
        Pred::CmpValue {
            lhs,
            op: CmpOp::Eq,
            rhs: rhs.into(),
        }
    }

    /// Conjunction helper that avoids introducing `True` operands.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, p) | (p, Pred::True) => p,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// All attributes mentioned by the predicate (not descending into
    /// sub-query join chains, which are reported separately).
    pub fn attrs(&self) -> Vec<QualifiedAttr> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut Vec<QualifiedAttr>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::CmpAttr { lhs, rhs, .. } => {
                out.push(lhs.clone());
                out.push(rhs.clone());
            }
            Pred::CmpValue { lhs, .. } => out.push(lhs.clone()),
            Pred::In { attr, query } => {
                out.push(attr.clone());
                out.extend(query.attrs());
            }
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Pred::Not(p) => p.collect_attrs(out),
        }
    }

    /// All parameters referenced by the predicate.
    pub fn params(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut Vec<String>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::CmpAttr { .. } => {}
            Pred::CmpValue { rhs, .. } => {
                if let Operand::Param(p) = rhs {
                    out.push(p.clone());
                }
            }
            Pred::In { query, .. } => out.extend(query.params()),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_params(out);
                b.collect_params(out);
            }
            Pred::Not(p) => p.collect_params(out),
        }
    }
}

/// A query: a relational-algebra expression (Figure 5, `Query`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Query {
    /// Projection `Π_{attrs}(input)`.
    Project {
        /// Projected attributes, in output order.
        attrs: Vec<QualifiedAttr>,
        /// Input query.
        input: Box<Query>,
    },
    /// Selection `σ_{pred}(input)`.
    Filter {
        /// Filter predicate.
        pred: Pred,
        /// Input query.
        input: Box<Query>,
    },
    /// A join chain used directly as a query.
    Join(JoinChain),
}

impl Query {
    /// Convenience constructor for `Π_attrs(σ_pred(J))`, the most common
    /// query shape in the benchmarks.
    pub fn select(attrs: Vec<QualifiedAttr>, pred: Pred, join: JoinChain) -> Query {
        Query::Project {
            attrs,
            input: Box::new(Query::Filter {
                pred,
                input: Box::new(Query::Join(join)),
            }),
        }
    }

    /// The join chain at the leaf of the query, if the query has the standard
    /// `Π(σ(J))` / `σ(J)` / `J` shape.
    pub fn join_chain(&self) -> &JoinChain {
        match self {
            Query::Project { input, .. } | Query::Filter { input, .. } => input.join_chain(),
            Query::Join(j) => j,
        }
    }

    /// All attributes referenced by the query (projections, predicates and
    /// join conditions).
    pub fn attrs(&self) -> Vec<QualifiedAttr> {
        match self {
            Query::Project { attrs, input } => {
                let mut out = attrs.clone();
                out.extend(input.attrs());
                out
            }
            Query::Filter { pred, input } => {
                let mut out = pred.attrs();
                out.extend(input.attrs());
                out
            }
            Query::Join(j) => j.join_condition_attrs(),
        }
    }

    /// All parameters referenced by the query.
    pub fn params(&self) -> Vec<String> {
        match self {
            Query::Project { input, .. } => input.params(),
            Query::Filter { pred, input } => {
                let mut out = pred.params();
                out.extend(input.params());
                out
            }
            Query::Join(_) => Vec::new(),
        }
    }
}

/// An update statement or sequence of update statements (Figure 5, `Update`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Update {
    /// `ins(J, {a1: v1, ..., an: vn})`.
    ///
    /// When `join` is a chain of several tables this is the paper's
    /// shorthand for inserting one tuple into each participating table with
    /// fresh unique identifiers linking them (Section 3.1).
    Insert {
        /// Target table or join chain.
        join: JoinChain,
        /// Attribute/value assignments.
        values: Vec<(QualifiedAttr, Operand)>,
    },
    /// `del([T1..Tn], J, pred)`: delete from the listed tables every tuple
    /// that occurs in a row of `σ_pred(J)`.
    Delete {
        /// Tables tuples are removed from; must be a subset of `join`'s tables.
        tables: Vec<TableName>,
        /// Join chain defining the candidate rows.
        join: JoinChain,
        /// Selection predicate.
        pred: Pred,
    },
    /// `upd(J, pred, attr, value)`: set `attr` to `value` for every tuple of
    /// `attr`'s table occurring in a row of `σ_pred(J)`.
    UpdateAttr {
        /// Join chain defining the candidate rows.
        join: JoinChain,
        /// Selection predicate.
        pred: Pred,
        /// Attribute being written.
        attr: QualifiedAttr,
        /// New value.
        value: Operand,
    },
    /// Sequential composition `U1; U2`.
    Seq(Vec<Update>),
}

impl Update {
    /// Flattens nested [`Update::Seq`] constructs into a single statement
    /// list.
    pub fn statements(&self) -> Vec<&Update> {
        match self {
            Update::Seq(list) => list.iter().flat_map(|u| u.statements()).collect(),
            other => vec![other],
        }
    }

    /// All attributes referenced by the statement (insert targets,
    /// predicates, join conditions, updated attributes).
    pub fn attrs(&self) -> Vec<QualifiedAttr> {
        match self {
            Update::Insert { join, values } => {
                let mut out: Vec<QualifiedAttr> = values.iter().map(|(a, _)| a.clone()).collect();
                out.extend(join.join_condition_attrs());
                out
            }
            Update::Delete { join, pred, .. } => {
                let mut out = pred.attrs();
                out.extend(join.join_condition_attrs());
                out
            }
            Update::UpdateAttr {
                join, pred, attr, ..
            } => {
                let mut out = pred.attrs();
                out.push(attr.clone());
                out.extend(join.join_condition_attrs());
                out
            }
            Update::Seq(list) => list.iter().flat_map(|u| u.attrs()).collect(),
        }
    }

    /// All parameters referenced by the statement.
    pub fn params(&self) -> Vec<String> {
        match self {
            Update::Insert { values, .. } => values
                .iter()
                .filter_map(|(_, op)| match op {
                    Operand::Param(p) => Some(p.clone()),
                    Operand::Value(_) => None,
                })
                .collect(),
            Update::Delete { pred, .. } => pred.params(),
            Update::UpdateAttr { pred, value, .. } => {
                let mut out = pred.params();
                if let Operand::Param(p) = value {
                    out.push(p.clone());
                }
                out
            }
            Update::Seq(list) => list.iter().flat_map(|u| u.params()).collect(),
        }
    }

    /// The tables touched (read or written) by the statement.
    pub fn tables(&self) -> Vec<TableName> {
        match self {
            Update::Insert { join, .. } => join.tables(),
            Update::Delete { tables, join, .. } => {
                let mut out = join.tables();
                out.extend(tables.iter().cloned());
                out
            }
            Update::UpdateAttr { join, attr, .. } => {
                let mut out = join.tables();
                out.push(attr.table);
                out
            }
            Update::Seq(list) => list.iter().flat_map(|u| u.tables()).collect(),
        }
    }
}

/// The body of a function: either a query or an update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionBody {
    /// A read-only query function.
    Query(Query),
    /// A state-mutating update function.
    Update(Update),
}

impl FunctionBody {
    /// Returns `true` if this is a query body.
    pub fn is_query(&self) -> bool {
        matches!(self, FunctionBody::Query(_))
    }
}

/// A named function with typed parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name (unique within a program).
    pub name: String,
    /// Ordered parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: FunctionBody,
}

impl Function {
    /// Creates a query function.
    pub fn query(name: impl Into<String>, params: Vec<Param>, query: Query) -> Function {
        Function {
            name: name.into(),
            params,
            body: FunctionBody::Query(query),
        }
    }

    /// Creates an update function.
    pub fn update(name: impl Into<String>, params: Vec<Param>, update: Update) -> Function {
        Function {
            name: name.into(),
            params,
            body: FunctionBody::Update(update),
        }
    }

    /// Returns `true` if this is a query function.
    pub fn is_query(&self) -> bool {
        self.body.is_query()
    }

    /// All attributes referenced by the function body.
    pub fn attrs(&self) -> Vec<QualifiedAttr> {
        match &self.body {
            FunctionBody::Query(q) => q.attrs(),
            FunctionBody::Update(u) => u.attrs(),
        }
    }

    /// The tables touched by the function body.
    pub fn tables(&self) -> Vec<TableName> {
        match &self.body {
            FunctionBody::Query(q) => q.join_chain().tables(),
            FunctionBody::Update(u) => u.tables(),
        }
    }

    /// Looks up a parameter by name.
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name == name)
    }
}

/// A database program: a collection of query and update functions over a
/// single schema.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The functions, in declaration order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates a program from a list of functions.
    pub fn new(functions: Vec<Function>) -> Program {
        Program { functions }
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// All query functions.
    pub fn queries(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.is_query())
    }

    /// All update functions.
    pub fn updates(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| !f.is_query())
    }

    /// The set of attributes referenced anywhere in the program.
    pub fn referenced_attrs(&self) -> BTreeSet<QualifiedAttr> {
        self.functions.iter().flat_map(|f| f.attrs()).collect()
    }

    /// The set of attributes referenced by *query* functions.  These are the
    /// attributes for which the value-correspondence MaxSAT encoding emits
    /// the "necessary condition for equivalence" hard constraint (§4.2).
    pub fn queried_attrs(&self) -> BTreeSet<QualifiedAttr> {
        self.queries().flat_map(|f| f.attrs()).collect()
    }

    /// Checks the program is well-formed with respect to `schema`:
    /// every referenced table and attribute exists, every referenced
    /// parameter is declared, delete table lists are subsets of their join
    /// chains, and function names are unique.
    ///
    /// # Errors
    ///
    /// Returns the first well-formedness violation found.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        let mut names = BTreeSet::new();
        for function in &self.functions {
            if !names.insert(function.name.clone()) {
                return Err(Error::Schema(format!(
                    "duplicate function `{}`",
                    function.name
                )));
            }
            for table in function.tables() {
                if schema.table(&table).is_none() {
                    return Err(Error::UnknownTable(table.to_string()));
                }
            }
            for attr in function.attrs() {
                if !schema.has_attr(&attr) {
                    return Err(Error::UnknownAttribute(attr.to_string()));
                }
            }
            let declared: BTreeSet<&str> =
                function.params.iter().map(|p| p.name.as_str()).collect();
            let used: Vec<String> = match &function.body {
                FunctionBody::Query(q) => q.params(),
                FunctionBody::Update(u) => u.params(),
            };
            for param in used {
                if !declared.contains(param.as_str()) {
                    return Err(Error::UnknownParameter(format!(
                        "{} (in function `{}`)",
                        param, function.name
                    )));
                }
            }
            if let FunctionBody::Update(update) = &function.body {
                for stmt in update.statements() {
                    if let Update::Delete { tables, join, .. } = stmt {
                        if tables.is_empty() {
                            return Err(Error::InvalidStatement(format!(
                                "delete in `{}` lists no tables",
                                function.name
                            )));
                        }
                        for table in tables {
                            if !join.contains_table(table) {
                                return Err(Error::InvalidStatement(format!(
                                    "delete in `{}` targets `{}` which is not in its join chain",
                                    function.name, table
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::parse(
            "Instructor(InstId: int, IName: string, IPic: binary)\n\
             TA(TaId: int, TName: string, TPic: binary)",
        )
        .unwrap()
    }

    fn qa(t: &str, a: &str) -> QualifiedAttr {
        QualifiedAttr::new(t, a)
    }

    #[test]
    fn join_chain_tables_and_attrs() {
        let s = schema();
        let chain = JoinChain::table("Instructor").join(
            JoinChain::table("TA"),
            qa("Instructor", "InstId"),
            qa("TA", "TaId"),
        );
        assert_eq!(chain.len(), 2);
        assert!(chain.contains_table(&"TA".into()));
        assert!(!chain.contains_table(&"Picture".into()));
        assert_eq!(chain.attrs(&s).len(), 6);
        assert_eq!(chain.join_condition_attrs().len(), 2);
    }

    #[test]
    fn query_attr_collection() {
        let q = Query::select(
            vec![qa("Instructor", "IName")],
            Pred::eq_value(qa("Instructor", "InstId"), Operand::param("id")),
            JoinChain::table("Instructor"),
        );
        let attrs = q.attrs();
        assert!(attrs.contains(&qa("Instructor", "IName")));
        assert!(attrs.contains(&qa("Instructor", "InstId")));
        assert_eq!(q.params(), vec!["id".to_string()]);
        assert_eq!(q.join_chain(), &JoinChain::table("Instructor"));
    }

    #[test]
    fn update_statement_flattening() {
        let ins = Update::Insert {
            join: JoinChain::table("Instructor"),
            values: vec![(qa("Instructor", "InstId"), Operand::param("id"))],
        };
        let del = Update::Delete {
            tables: vec!["Instructor".into()],
            join: JoinChain::table("Instructor"),
            pred: Pred::True,
        };
        let seq = Update::Seq(vec![ins.clone(), Update::Seq(vec![del.clone()])]);
        assert_eq!(seq.statements().len(), 2);
        assert_eq!(seq.params(), vec!["id".to_string()]);
    }

    #[test]
    fn program_queried_attrs_only_counts_queries() {
        let program = Program::new(vec![
            Function::update(
                "addI",
                vec![Param::new("id", DataType::Int)],
                Update::Insert {
                    join: JoinChain::table("Instructor"),
                    values: vec![(qa("Instructor", "InstId"), Operand::param("id"))],
                },
            ),
            Function::query(
                "getI",
                vec![Param::new("id", DataType::Int)],
                Query::select(
                    vec![qa("Instructor", "IName")],
                    Pred::eq_value(qa("Instructor", "InstId"), Operand::param("id")),
                    JoinChain::table("Instructor"),
                ),
            ),
        ]);
        let queried = program.queried_attrs();
        assert!(queried.contains(&qa("Instructor", "IName")));
        assert!(queried.contains(&qa("Instructor", "InstId")));
        let referenced = program.referenced_attrs();
        assert!(referenced.len() >= queried.len());
    }

    #[test]
    fn validate_accepts_well_formed_program() {
        let program = Program::new(vec![Function::query(
            "getI",
            vec![Param::new("id", DataType::Int)],
            Query::select(
                vec![qa("Instructor", "IName")],
                Pred::eq_value(qa("Instructor", "InstId"), Operand::param("id")),
                JoinChain::table("Instructor"),
            ),
        )]);
        assert!(program.validate(&schema()).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_attr() {
        let program = Program::new(vec![Function::query(
            "getI",
            vec![],
            Query::select(
                vec![qa("Instructor", "Nope")],
                Pred::True,
                JoinChain::table("Instructor"),
            ),
        )]);
        assert!(matches!(
            program.validate(&schema()),
            Err(Error::UnknownAttribute(_))
        ));
    }

    #[test]
    fn validate_rejects_undeclared_param() {
        let program = Program::new(vec![Function::query(
            "getI",
            vec![],
            Query::select(
                vec![qa("Instructor", "IName")],
                Pred::eq_value(qa("Instructor", "InstId"), Operand::param("id")),
                JoinChain::table("Instructor"),
            ),
        )]);
        assert!(matches!(
            program.validate(&schema()),
            Err(Error::UnknownParameter(_))
        ));
    }

    #[test]
    fn validate_rejects_delete_outside_join() {
        let program = Program::new(vec![Function::update(
            "delI",
            vec![],
            Update::Delete {
                tables: vec!["TA".into()],
                join: JoinChain::table("Instructor"),
                pred: Pred::True,
            },
        )]);
        assert!(matches!(
            program.validate(&schema()),
            Err(Error::InvalidStatement(_))
        ));
    }

    #[test]
    fn validate_rejects_duplicate_function_names() {
        let f = Function::update(
            "f",
            vec![],
            Update::Insert {
                join: JoinChain::table("Instructor"),
                values: vec![],
            },
        );
        let program = Program::new(vec![f.clone(), f]);
        assert!(program.validate(&schema()).is_err());
    }
}
