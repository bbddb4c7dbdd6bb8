//! An interpreter for database programs implementing the semantics of
//! Section 3.1 of the paper.
//!
//! The evaluator operates on in-memory [`Instance`]s and supports:
//!
//! * join-chain evaluation (nested-loop equi-joins),
//! * selection and projection,
//! * `ins` over a *join chain* — the paper's shorthand that inserts one tuple
//!   into every participating table, linking them with fresh unique
//!   identifiers (`UID0`, `UID1`, ... in Figure 4),
//! * `del([T1..Tn], J, φ)` — multi-table deletion driven by a join, and
//! * `upd(J, φ, a, v)` — attribute update driven by a join.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::HashSet;

use crate::ast::{CmpOp, Function, FunctionBody, JoinChain, Operand, Pred, Query, Update};
use crate::error::{Error, Result};
use crate::instance::{Instance, Relation, Tuple};
use crate::schema::{QualifiedAttr, Schema, TableName};
use crate::value::Value;

/// Parameter bindings for one function invocation.
pub type Env = BTreeMap<String, Value>;

/// Binds positional arguments to a function's parameters.
///
/// # Errors
///
/// Returns [`Error::ArityMismatch`] if the argument count differs from the
/// parameter count, or [`Error::TypeMismatch`] if an argument does not
/// conform to the declared parameter type.
pub fn bind_args(function: &Function, args: &[Value]) -> Result<Env> {
    if args.len() != function.params.len() {
        return Err(Error::ArityMismatch {
            function: function.name.clone(),
            expected: function.params.len(),
            actual: args.len(),
        });
    }
    let mut env = Env::new();
    for (param, arg) in function.params.iter().zip(args) {
        if env.contains_key(&param.name) {
            return Err(Error::DuplicateParameter {
                function: function.name.clone(),
                parameter: param.name.clone(),
            });
        }
        if !arg.conforms_to(param.ty) {
            return Err(Error::TypeMismatch {
                context: format!("argument `{}` of `{}`", param.name, function.name),
                expected: param.ty.to_string(),
                actual: arg
                    .data_type()
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "null".to_string()),
            });
        }
        env.insert(param.name.clone(), *arg);
    }
    Ok(env)
}

/// Evaluates queries and executes updates against database instances.
///
/// The evaluator owns the counter used to mint fresh unique identifiers for
/// the insert-over-join shorthand, so a single evaluator should be used for
/// the whole lifetime of one program execution.
#[derive(Debug)]
pub struct Evaluator<'a> {
    schema: &'a Schema,
    next_uid: u64,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for programs over `schema`.
    pub fn new(schema: &'a Schema) -> Evaluator<'a> {
        Evaluator {
            schema,
            next_uid: 0,
        }
    }

    /// Creates an evaluator whose fresh-identifier counter resumes at
    /// `next_uid`, as if the identifiers `UID0..UID(next_uid-1)` had already
    /// been minted. The bounded-testing engine uses this to resume execution
    /// from a snapshot taken mid-sequence.
    pub fn with_uid_counter(schema: &'a Schema, next_uid: u64) -> Evaluator<'a> {
        Evaluator { schema, next_uid }
    }

    /// The value the next minted unique identifier will carry. Together with
    /// an [`Instance`] this fully captures the execution state between two
    /// calls, so callers can snapshot and resume deterministically.
    pub fn uid_counter(&self) -> u64 {
        self.next_uid
    }

    /// The schema this evaluator resolves table and column layouts against.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    fn fresh_uid(&mut self) -> Value {
        let uid = self.next_uid;
        self.next_uid += 1;
        Value::Uid(uid)
    }

    /// Executes one function call (query or update).
    ///
    /// For update functions the instance is mutated and `None` is returned;
    /// for query functions the result relation is returned.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors (unknown tables/attributes, arity or
    /// type mismatches).
    pub fn call(
        &mut self,
        function: &Function,
        args: &[Value],
        instance: &mut Instance,
    ) -> Result<Option<Relation>> {
        let env = bind_args(function, args)?;
        match &function.body {
            FunctionBody::Query(query) => {
                let rel = self.eval_query(query, instance, &env)?;
                Ok(Some(rel))
            }
            FunctionBody::Update(update) => {
                self.exec_update(update, instance, &env)?;
                Ok(None)
            }
        }
    }

    /// Evaluates a query against an instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the query references unknown tables or attributes.
    pub fn eval_query(
        &mut self,
        query: &Query,
        instance: &Instance,
        env: &Env,
    ) -> Result<Relation> {
        match query {
            Query::Join(chain) => self.eval_join(chain, instance),
            Query::Filter { pred, input } => {
                let rel = self.eval_query(input, instance, env)?;
                self.filter_relation(rel, pred, instance, env)
            }
            Query::Project { attrs, input } => {
                let rel = self.eval_query(input, instance, env)?;
                let mut indices = Vec::with_capacity(attrs.len());
                for attr in attrs {
                    let idx = rel
                        .column_index(attr)
                        .ok_or_else(|| Error::UnknownAttribute(attr.to_string()))?;
                    indices.push(idx);
                }
                let rows = rel
                    .rows
                    .iter()
                    .map(|row| indices.iter().map(|&i| row[i]).collect())
                    .collect();
                Ok(Relation {
                    columns: attrs.clone(),
                    rows,
                })
            }
        }
    }

    /// Filters a relation through `pred`.
    ///
    /// The predicate is lowered through the same two-step pipeline the
    /// compiled engine uses ([`prepare_pred_plan`] then
    /// [`instantiate_pred_plan`]), so the AST interpreter and [`RowsPlan`]
    /// execution cannot drift apart: indices are resolved and `IN`
    /// subqueries are evaluated once per filter call, ahead of the row loop.
    /// Note the deliberate semantics: because `IN` subqueries are hoisted,
    /// they are evaluated even when a short-circuiting `And`/`Or` would have
    /// skipped them for every row, so a failing subquery in a dead branch
    /// fails the query (on non-empty inputs) instead of being silently
    /// ignored.
    fn filter_relation(
        &mut self,
        rel: Relation,
        pred: &Pred,
        instance: &Instance,
        env: &Env,
    ) -> Result<Relation> {
        if rel.rows.is_empty() {
            return Ok(rel);
        }
        let plan = prepare_pred_plan(self.schema, pred, &rel.columns, env)?;
        let compiled = instantiate_pred_plan(&plan, instance).map_err(Cow::into_owned)?;
        let Relation { columns, rows } = rel;
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if eval_compiled(&compiled, &row)? {
                kept.push(row);
            }
        }
        Ok(Relation {
            columns,
            rows: kept,
        })
    }

    /// Evaluates a join chain into a relation whose header is the
    /// concatenation of the participating tables' qualified columns.
    ///
    /// # Errors
    ///
    /// Returns an error if a table or join attribute is unknown.
    pub fn eval_join(&mut self, chain: &JoinChain, instance: &Instance) -> Result<Relation> {
        match chain {
            JoinChain::Table(name) => {
                let table = self
                    .schema
                    .table(name)
                    .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
                Ok(Relation {
                    columns: table.qualified_attrs(),
                    rows: instance.rows(name).to_vec(),
                })
            }
            JoinChain::Join {
                left,
                right,
                left_attr,
                right_attr,
            } => {
                let lrel = self.eval_join(left, instance)?;
                let rrel = self.eval_join(right, instance)?;
                let li = lrel
                    .column_index(left_attr)
                    .ok_or_else(|| Error::UnknownAttribute(left_attr.to_string()))?;
                let ri = rrel
                    .column_index(right_attr)
                    .ok_or_else(|| Error::UnknownAttribute(right_attr.to_string()))?;
                let mut columns = lrel.columns.clone();
                columns.extend(rrel.columns.iter().cloned());
                let rows = join_rows(&lrel.rows, &rrel.rows, li, ri);
                Ok(Relation { columns, rows })
            }
        }
    }

    fn eval_operand(&self, operand: &Operand, env: &Env) -> Result<Value> {
        eval_operand_env(operand, env)
    }

    /// Executes an update statement (or sequence) against an instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the statement references unknown tables or
    /// attributes, or if a delete targets a table outside its join chain.
    pub fn exec_update(
        &mut self,
        update: &Update,
        instance: &mut Instance,
        env: &Env,
    ) -> Result<()> {
        match update {
            Update::Seq(list) => {
                for stmt in list {
                    self.exec_update(stmt, instance, env)?;
                }
                Ok(())
            }
            Update::Insert { join, values } => self.exec_insert(join, values, instance, env),
            Update::Delete { tables, join, pred } => {
                self.exec_delete(tables, join, pred, instance, env)
            }
            Update::UpdateAttr {
                join,
                pred,
                attr,
                value,
            } => self.exec_update_attr(join, pred, attr, value, instance, env),
        }
    }

    fn exec_insert(
        &mut self,
        join: &JoinChain,
        values: &[(QualifiedAttr, Operand)],
        instance: &mut Instance,
        env: &Env,
    ) -> Result<()> {
        let tables = join.tables();
        // Resolve explicit assignments.
        let mut assigned: BTreeMap<QualifiedAttr, Value> = BTreeMap::new();
        for (attr, operand) in values {
            if !join.contains_table(&attr.table) {
                return Err(Error::InvalidStatement(format!(
                    "insert assigns `{attr}` which is not in the target join chain"
                )));
            }
            assigned.insert(attr.clone(), self.eval_operand(operand, env)?);
        }
        // Columns linked by the chain's join conditions must receive the same
        // value: group them with a union-find over qualified attributes.
        let mut groups = UnionFind::new();
        for table_name in &tables {
            let table = self
                .schema
                .table(table_name)
                .ok_or_else(|| Error::UnknownTable(table_name.to_string()))?;
            for attr in table.qualified_attrs() {
                groups.add(attr);
            }
        }
        for_each_join_condition(join, &mut |left, right| {
            groups.union(left, right);
        });
        // Decide one value per group: an explicitly assigned value wins,
        // otherwise the group shares a fresh unique identifier.
        let mut group_values: BTreeMap<QualifiedAttr, Value> = BTreeMap::new();
        for (attr, value) in &assigned {
            let root = groups.find(attr);
            group_values.insert(root, *value);
        }
        for table_name in &tables {
            let table = self.schema.table(table_name).expect("validated above");
            let mut tuple = Tuple::with_capacity(table.columns.len());
            for column in &table.columns {
                let qattr = QualifiedAttr {
                    table: *table_name,
                    attr: column.name.clone(),
                };
                let root = groups.find(&qattr);
                let value = match group_values.get(&root) {
                    Some(v) => *v,
                    None => {
                        let fresh = self.fresh_uid();
                        group_values.insert(root, fresh);
                        fresh
                    }
                };
                tuple.push(value);
            }
            // Declared primary keys give inserts upsert semantics: an
            // existing row with the same key is replaced.
            if let Some(key_index) = table.primary_key_index() {
                let key_value = tuple[key_index];
                if !key_value.is_null() {
                    instance
                        .rows_mut(table_name)
                        .retain(|row| row[key_index] != key_value);
                }
            }
            instance.insert(table_name, tuple);
        }
        Ok(())
    }

    fn exec_delete(
        &mut self,
        tables: &[TableName],
        join: &JoinChain,
        pred: &Pred,
        instance: &mut Instance,
        env: &Env,
    ) -> Result<()> {
        for table in tables {
            if !join.contains_table(table) {
                return Err(Error::InvalidStatement(format!(
                    "delete targets `{table}` which is not in its join chain"
                )));
            }
        }
        let joined = self.eval_join(join, instance)?;
        let filtered = self.filter_relation(joined, pred, instance, env)?;
        for table_name in tables {
            let table = self
                .schema
                .table(table_name)
                .ok_or_else(|| Error::UnknownTable(table_name.to_string()))?;
            let attrs = table.qualified_attrs();
            let doomed: BTreeSet<Tuple> = filtered.project(&attrs).rows.into_iter().collect();
            instance
                .rows_mut(table_name)
                .retain(|row| !doomed.contains(row));
        }
        Ok(())
    }

    fn exec_update_attr(
        &mut self,
        join: &JoinChain,
        pred: &Pred,
        attr: &QualifiedAttr,
        value: &Operand,
        instance: &mut Instance,
        env: &Env,
    ) -> Result<()> {
        if !join.contains_table(&attr.table) {
            return Err(Error::InvalidStatement(format!(
                "update writes `{attr}` which is not in its join chain"
            )));
        }
        let table = self
            .schema
            .table(&attr.table)
            .ok_or_else(|| Error::UnknownTable(attr.table.to_string()))?;
        let column_index = table
            .column_index(&attr.attr)
            .ok_or_else(|| Error::UnknownAttribute(attr.to_string()))?;
        let joined = self.eval_join(join, instance)?;
        let filtered = self.filter_relation(joined, pred, instance, env)?;
        let attrs = table.qualified_attrs();
        let affected: BTreeSet<Tuple> = filtered.project(&attrs).rows.into_iter().collect();
        let new_value = self.eval_operand(value, env)?;
        for row in instance.rows_mut(&attr.table) {
            if affected.contains(row) {
                row[column_index] = new_value;
            }
        }
        Ok(())
    }
}

/// A query body compiled for repeated execution against changing instances.
///
/// The bounded-testing engine evaluates the *same* query calls millions of
/// times against small, ever-changing snapshots. Interpreting the AST each
/// time re-resolves tables, join keys and projection columns, and — worse —
/// rebuilds every intermediate relation header (two `String` clones per
/// column per call). A `RowsPlan` hoists all of that: structural resolution
/// happens once, and execution ([`stream_rows`]) streams bare rows through
/// the plan into the caller's sink.
///
/// Semantics match the AST interpreter *error-occurrence-wise*: a plan
/// execution fails exactly when interpreting the query against the same
/// instance would fail. (Bounded testing compares outcomes error-blind, so
/// occurrence is the contract; the differential test in `tests/` holds the
/// two engines to it.) In particular the interpreter's gating is preserved:
/// filter-predicate errors — including `IN`-subquery errors — only fire when
/// the filtered relation is non-empty.
#[derive(Debug)]
pub(crate) enum RowsPlan {
    /// All rows of one table.
    Scan {
        /// The scanned table.
        table: TableName,
    },
    /// Nested-loop equi-join of two sub-plans on pre-resolved key columns:
    /// each left row, in order, followed by its matches in right-row order.
    /// NULL keys never match. Bounded testing runs joins over the few rows
    /// a short prefix of update calls inserted, millions of times. A hash
    /// table built per execution costs more there than the comparisons it
    /// saves, so there is none.
    Join {
        left: Box<RowsPlan>,
        right: Box<RowsPlan>,
        li: usize,
        ri: usize,
    },
    /// Selection; `pred` is `Err` when predicate compilation failed
    /// structurally — the error fires iff the input is non-empty, exactly
    /// like the interpreter's per-call predicate compilation.
    Filter {
        input: Box<RowsPlan>,
        pred: std::result::Result<FilterPred, Error>,
    },
    /// Projection onto pre-resolved column indices.
    Project {
        input: Box<RowsPlan>,
        indices: Vec<usize>,
    },
}

/// A filter predicate, split by whether it depends on the instance.
#[derive(Debug)]
pub(crate) enum FilterPred {
    /// No `IN` subquery anywhere: fully instantiated at preparation time,
    /// executions reuse it as-is.
    Static(CompiledPred),
    /// Contains `IN` subqueries, whose membership sets depend on the
    /// instance: re-instantiated (subqueries re-executed) per execution.
    Dynamic(PredPlan),
}

/// A predicate compiled structurally, with `IN` subqueries kept as
/// executable sub-plans (their row sets depend on the instance).
#[derive(Debug)]
pub(crate) enum PredPlan {
    Const(bool),
    CmpCols { lhs: usize, op: CmpOp, rhs: usize },
    CmpConst { lhs: usize, op: CmpOp, rhs: Value },
    In { attr: usize, sub: Box<RowsPlan> },
    And(Box<PredPlan>, Box<PredPlan>),
    Or(Box<PredPlan>, Box<PredPlan>),
    Not(Box<PredPlan>),
}

impl PredPlan {
    fn contains_in(&self) -> bool {
        match self {
            PredPlan::Const(_) | PredPlan::CmpCols { .. } | PredPlan::CmpConst { .. } => false,
            PredPlan::In { .. } => true,
            PredPlan::And(a, b) | PredPlan::Or(a, b) => a.contains_in() || b.contains_in(),
            PredPlan::Not(p) => p.contains_in(),
        }
    }
}

/// Compiles `query` (with parameters already bound in `env`) against the
/// schema, returning the plan and the query's output header.
///
/// # Errors
///
/// Returns the structural errors the interpreter would raise on *every*
/// execution: unknown tables, unknown join keys, unknown projection columns.
/// Filter-predicate errors are captured inside the plan instead (see
/// [`RowsPlan::Filter`]).
pub(crate) fn prepare_rows_plan(
    schema: &Schema,
    query: &Query,
    env: &Env,
) -> Result<(RowsPlan, Vec<QualifiedAttr>)> {
    match query {
        Query::Join(chain) => prepare_join_plan(schema, chain),
        Query::Filter { pred, input } => {
            let (input_plan, header) = prepare_rows_plan(schema, input, env)?;
            let pred = prepare_filter(schema, pred, &header, env);
            Ok((
                RowsPlan::Filter {
                    input: Box::new(input_plan),
                    pred,
                },
                header,
            ))
        }
        Query::Project { attrs, input } => {
            let (input_plan, header) = prepare_rows_plan(schema, input, env)?;
            let mut indices = Vec::with_capacity(attrs.len());
            for attr in attrs {
                let idx = header
                    .iter()
                    .position(|c| c == attr)
                    .ok_or_else(|| Error::UnknownAttribute(attr.to_string()))?;
                indices.push(idx);
            }
            Ok((
                RowsPlan::Project {
                    input: Box::new(input_plan),
                    indices,
                },
                attrs.clone(),
            ))
        }
    }
}

fn prepare_join_plan(schema: &Schema, chain: &JoinChain) -> Result<(RowsPlan, Vec<QualifiedAttr>)> {
    match chain {
        JoinChain::Table(name) => {
            let table = schema
                .table(name)
                .ok_or_else(|| Error::UnknownTable(name.to_string()))?;
            Ok((RowsPlan::Scan { table: *name }, table.qualified_attrs()))
        }
        JoinChain::Join {
            left,
            right,
            left_attr,
            right_attr,
        } => {
            let (lp, lh) = prepare_join_plan(schema, left)?;
            let (rp, rh) = prepare_join_plan(schema, right)?;
            let li = lh
                .iter()
                .position(|c| c == left_attr)
                .ok_or_else(|| Error::UnknownAttribute(left_attr.to_string()))?;
            let ri = rh
                .iter()
                .position(|c| c == right_attr)
                .ok_or_else(|| Error::UnknownAttribute(right_attr.to_string()))?;
            let mut header = lh;
            header.extend(rh);
            Ok((
                RowsPlan::Join {
                    left: Box::new(lp),
                    right: Box::new(rp),
                    li,
                    ri,
                },
                header,
            ))
        }
    }
}

fn prepare_pred_plan(
    schema: &Schema,
    pred: &Pred,
    header: &[QualifiedAttr],
    env: &Env,
) -> std::result::Result<PredPlan, Error> {
    let lookup = |attr: &QualifiedAttr| -> Result<usize> {
        header
            .iter()
            .position(|c| c == attr)
            .ok_or_else(|| Error::UnknownAttribute(attr.to_string()))
    };
    Ok(match pred {
        Pred::True => PredPlan::Const(true),
        Pred::False => PredPlan::Const(false),
        Pred::CmpAttr { lhs, op, rhs } => PredPlan::CmpCols {
            lhs: lookup(lhs)?,
            op: *op,
            rhs: lookup(rhs)?,
        },
        Pred::CmpValue { lhs, op, rhs } => PredPlan::CmpConst {
            lhs: lookup(lhs)?,
            op: *op,
            rhs: match rhs {
                Operand::Value(v) => *v,
                Operand::Param(name) => env
                    .get(name)
                    .cloned()
                    .ok_or_else(|| Error::UnknownParameter(name.clone()))?,
            },
        },
        Pred::In { attr, query } => {
            let idx = lookup(attr)?;
            let (sub, sub_header) = prepare_rows_plan(schema, query, env)?;
            if sub_header.len() != 1 {
                return Err(Error::NonSingleColumnSubquery {
                    columns: sub_header.len(),
                });
            }
            PredPlan::In {
                attr: idx,
                sub: Box::new(sub),
            }
        }
        Pred::And(a, b) => PredPlan::And(
            Box::new(prepare_pred_plan(schema, a, header, env)?),
            Box::new(prepare_pred_plan(schema, b, header, env)?),
        ),
        Pred::Or(a, b) => PredPlan::Or(
            Box::new(prepare_pred_plan(schema, a, header, env)?),
            Box::new(prepare_pred_plan(schema, b, header, env)?),
        ),
        Pred::Not(p) => PredPlan::Not(Box::new(prepare_pred_plan(schema, p, header, env)?)),
    })
}

/// The interpreter's equi-join of `left` and `right` on their columns `li`
/// and `ri`: each left row, in order, followed by its matches in right-row
/// order. NULL keys never match. [`stream_rows`] joins in the same order.
fn join_rows(left: &[Tuple], right: &[Tuple], li: usize, ri: usize) -> Vec<Tuple> {
    let mut rows = Vec::new();
    for lrow in left {
        let key = &lrow[li];
        if key.is_null() {
            continue;
        }
        for rrow in right.iter().filter(|rrow| rrow[ri] == *key) {
            let mut row = Vec::with_capacity(lrow.len() + rrow.len());
            row.extend_from_slice(lrow);
            row.extend_from_slice(rrow);
            rows.push(row);
        }
    }
    rows
}

/// Why a streamed execution failed: an error compiled into the plan,
/// borrowed from it, or one that a row raised. Bounded testing reads only
/// whether an execution failed, so it clones no error.
pub(crate) type Fault<'p> = Cow<'p, Error>;

/// Spare row buffers for [`stream_rows`]. A caller that executes plans
/// again and again keeps one, so joins and projections assemble their rows
/// in the allocations of earlier executions.
#[derive(Debug, Default)]
pub(crate) struct RowBuffers(Vec<Vec<Value>>);

impl RowBuffers {
    /// An empty buffer, in a spare one's allocation if there is one.
    fn take(&mut self) -> Vec<Value> {
        let mut buffer = self.0.pop().unwrap_or_default();
        buffer.clear();
        buffer
    }

    /// Keeps `buffer` for a later [`RowBuffers::take`].
    fn give(&mut self, buffer: Vec<Value>) {
        self.0.push(buffer);
    }
}

/// Executes a compiled plan against an instance, pushing its rows into
/// `sink` in plan order. No plan node materializes its output: a scan hands
/// out the instance's own rows, a filter passes on the rows its predicate
/// keeps, and a join or a projection assembles each row it emits in one
/// buffer taken from `buffers`. Only a join's right side is collected, once
/// per execution, because every left row meets all of it.
///
/// Errors occur as in the interpreter (see [`RowsPlan`]): a filter fails on
/// its first row if its predicate failed to compile or one of its `IN`
/// subqueries fails, which happens iff the interpreter's input relation is
/// non-empty, and on any row its predicate fails on. An error from `sink`
/// stops the execution too.
pub(crate) fn stream_rows<'p>(
    plan: &'p RowsPlan,
    instance: &Instance,
    buffers: &mut RowBuffers,
    sink: &mut dyn FnMut(&[Value]) -> std::result::Result<(), Fault<'p>>,
) -> std::result::Result<(), Fault<'p>> {
    match plan {
        RowsPlan::Scan { table } => instance.rows(table).iter().try_for_each(|row| sink(row)),
        RowsPlan::Join {
            left,
            right,
            li,
            ri,
        } => {
            let mut right_rows = buffers.take();
            let mut width = 0;
            stream_rows(right, instance, buffers, &mut |row| {
                width = row.len();
                right_rows.extend_from_slice(row);
                Ok(())
            })?;
            let mut joined = buffers.take();
            // Every right row holds its key column, so an empty right side
            // is the only one of width 0.
            let result = if width == 0 {
                Ok(())
            } else {
                stream_rows(left, instance, buffers, &mut |lrow| {
                    let key = lrow[*li];
                    if key.is_null() {
                        return Ok(());
                    }
                    for rrow in right_rows.chunks_exact(width) {
                        if rrow[*ri] == key {
                            joined.clear();
                            joined.extend_from_slice(lrow);
                            joined.extend_from_slice(rrow);
                            sink(&joined)?;
                        }
                    }
                    Ok(())
                })
            };
            buffers.give(joined);
            buffers.give(right_rows);
            result
        }
        RowsPlan::Filter { input, pred } => {
            let mut instantiated = None;
            stream_rows(input, instance, buffers, &mut |row| {
                let compiled = match pred {
                    Err(err) => return Err(Cow::Borrowed(err)),
                    Ok(FilterPred::Static(compiled)) => compiled,
                    Ok(FilterPred::Dynamic(plan)) => {
                        if instantiated.is_none() {
                            instantiated = Some(instantiate_pred_plan(plan, instance)?);
                        }
                        instantiated.as_ref().expect("instantiated above")
                    }
                };
                if eval_compiled(compiled, row).map_err(Cow::Owned)? {
                    sink(row)?;
                }
                Ok(())
            })
        }
        RowsPlan::Project { input, indices } => {
            let mut projected = buffers.take();
            let result = stream_rows(input, instance, buffers, &mut |row| {
                projected.clear();
                projected.extend(indices.iter().map(|&i| row[i]));
                sink(&projected)
            });
            buffers.give(projected);
            result
        }
    }
}

/// Materializes a structural predicate plan into a row-evaluable
/// [`CompiledPred`], executing `IN` subqueries against the instance once.
fn instantiate_pred_plan<'p>(
    plan: &'p PredPlan,
    instance: &Instance,
) -> std::result::Result<CompiledPred, Fault<'p>> {
    Ok(match plan {
        PredPlan::Const(b) => CompiledPred::Const(*b),
        PredPlan::CmpCols { lhs, op, rhs } => CompiledPred::CmpCols {
            lhs: *lhs,
            op: *op,
            rhs: *rhs,
        },
        PredPlan::CmpConst { lhs, op, rhs } => CompiledPred::CmpConst {
            lhs: *lhs,
            op: *op,
            rhs: *rhs,
        },
        PredPlan::In { attr, sub } => {
            let mut members = HashSet::new();
            stream_rows(sub, instance, &mut RowBuffers::default(), &mut |row| {
                members.insert(*row.last().expect("single-column subquery"));
                Ok(())
            })?;
            CompiledPred::In {
                attr: *attr,
                members,
            }
        }
        PredPlan::And(a, b) => CompiledPred::And(
            Box::new(instantiate_pred_plan(a, instance)?),
            Box::new(instantiate_pred_plan(b, instance)?),
        ),
        PredPlan::Or(a, b) => CompiledPred::Or(
            Box::new(instantiate_pred_plan(a, instance)?),
            Box::new(instantiate_pred_plan(b, instance)?),
        ),
        PredPlan::Not(p) => CompiledPred::Not(Box::new(instantiate_pred_plan(p, instance)?)),
    })
}

/// A predicate compiled against a fixed relation header: attribute references
/// are column indices, operands are evaluated values and `IN` subqueries are
/// materialized membership sets. Evaluating a compiled predicate touches no
/// environment, instance or header — only the row.
#[derive(Debug, Clone)]
pub(crate) enum CompiledPred {
    Const(bool),
    CmpCols {
        lhs: usize,
        op: CmpOp,
        rhs: usize,
    },
    CmpConst {
        lhs: usize,
        op: CmpOp,
        rhs: Value,
    },
    In {
        attr: usize,
        members: HashSet<Value>,
    },
    And(Box<CompiledPred>, Box<CompiledPred>),
    Or(Box<CompiledPred>, Box<CompiledPred>),
    Not(Box<CompiledPred>),
}

/// A query compiled against a schema and bound arguments, for repeated
/// execution against changing instances.
///
/// This is the public face of the internal `RowsPlan`: the
/// bounded-equivalence engine
/// uses the plan machinery internally, and benchmarks (plus future live
/// backends) can compile once and execute per instance without paying
/// name-resolution or header-building costs per call.
#[derive(Debug)]
pub struct CompiledQuery {
    plan: RowsPlan,
    header: Vec<QualifiedAttr>,
}

impl CompiledQuery {
    /// Compiles `query` (with parameters already bound in `env`) against
    /// `schema`.
    ///
    /// # Errors
    ///
    /// Returns the structural errors interpretation would raise on every
    /// execution (unknown tables, join keys or projection columns).
    pub fn compile(schema: &Schema, query: &Query, env: &Env) -> Result<CompiledQuery> {
        let (plan, header) = prepare_rows_plan(schema, query, env)?;
        Ok(CompiledQuery { plan, header })
    }

    /// The query's output header.
    pub fn header(&self) -> &[QualifiedAttr] {
        &self.header
    }

    /// Executes the compiled query, returning bare rows (in plan order, not
    /// canonicalized).
    ///
    /// # Errors
    ///
    /// Returns instance-dependent evaluation errors (filter-predicate and
    /// `IN`-subquery errors), matching the interpreter occurrence-wise.
    pub fn execute(&self, instance: &Instance) -> Result<Vec<Tuple>> {
        let mut rows = Vec::new();
        stream_rows(
            &self.plan,
            instance,
            &mut RowBuffers::default(),
            &mut |row| {
                rows.push(row.to_vec());
                Ok(())
            },
        )
        .map_err(Cow::into_owned)?;
        Ok(rows)
    }
}

/// An update statement compiled for repeated execution — the public wrapper
/// around the engine-internal `UpdatePlan`, mirroring [`CompiledQuery`].
///
/// Besides plain execution it exposes the *journaled* execution mode the
/// bounded-testing engine backtracks with: every row mutation records its
/// inverse in a [`Journal`], and [`Journal::rollback_to`] restores the
/// instance to any earlier mark in place — no snapshot clone, no restore
/// copy.
#[derive(Debug)]
pub struct CompiledUpdate {
    plan: UpdatePlan,
}

impl CompiledUpdate {
    /// Compiles `update` (with parameters already bound in `env`) against
    /// `schema`.
    ///
    /// # Errors
    ///
    /// Returns the structural errors interpretation would raise on every
    /// execution (see `UpdatePlan`).
    pub fn compile(schema: &Schema, update: &Update, env: &Env) -> Result<CompiledUpdate> {
        Ok(CompiledUpdate {
            plan: prepare_update_plan(schema, update, env)?,
        })
    }

    /// Executes the compiled update. `next_uid` is the fresh-identifier
    /// counter going in; the returned value is the counter after execution.
    ///
    /// # Errors
    ///
    /// Returns instance-dependent evaluation errors, matching the
    /// interpreter occurrence-wise. On failure the instance may retain the
    /// partial mutations of earlier statements, exactly as the interpreter
    /// leaves them.
    pub fn execute(&self, instance: &mut Instance, next_uid: u64) -> Result<u64> {
        exec_update_plan(&self.plan, instance, next_uid)
    }

    /// Like [`CompiledUpdate::execute`], but records the inverse of every
    /// row mutation in `journal`, so the caller can restore the instance to
    /// the pre-execution state with [`Journal::rollback_to`] — including
    /// after a failure, whose partial mutations are journaled too.
    pub fn execute_journaled(
        &self,
        instance: &mut Instance,
        next_uid: u64,
        journal: &mut Journal,
    ) -> Result<u64> {
        exec_update_plan_journaled(&self.plan, instance, next_uid, journal)
    }
}

/// Evaluates an operand against parameter bindings.
fn eval_operand_env(operand: &Operand, env: &Env) -> Result<Value> {
    match operand {
        Operand::Value(v) => Ok(*v),
        Operand::Param(name) => env
            .get(name)
            .copied()
            .ok_or_else(|| Error::UnknownParameter(name.clone())),
    }
}

/// An update statement compiled for repeated execution against changing
/// instances — the update-side counterpart of [`RowsPlan`].
///
/// The bounded-testing engine executes the *same* (update, bound arguments)
/// pairs at every node of its prefix tree. Interpreting the AST each time
/// re-resolves tables, rebuilds the insert-over-join union-find (one
/// `BTreeMap` of cloned qualified attributes per execution) and re-evaluates
/// operands. An `UpdatePlan` hoists all of that to preparation time:
/// execution mints identifiers, builds tuples from pre-evaluated slots and
/// scans rows — no name resolution, no string clones, no per-execution
/// maps beyond the matched-row sets deletes and updates inherently need.
///
/// Semantics match [`Evaluator::exec_update`] **error-occurrence-wise** (the
/// bounded-testing contract, see [`RowsPlan`]): a plan execution fails
/// exactly when interpreting the statement against the same instance would
/// fail, and on success the instance mutation and the number (and order) of
/// minted fresh identifiers are identical. Structural errors — unknown
/// tables or columns, assignments outside the join chain, unbound operand
/// parameters — are raised at preparation time; the interpreter raises them
/// on every execution, so callers replay the prepared error on each use
/// (exactly what the engine's `PreparedUpdate::Failed` does).
/// Filter-predicate errors keep their instance-dependent gating: they fire
/// iff the joined input is non-empty, via the same [`FilterPred`] machinery
/// queries use.
#[derive(Debug)]
pub(crate) enum UpdatePlan {
    /// A sequence, executed in order, failing at the first failing statement.
    Seq(Vec<UpdatePlan>),
    /// An insert-over-join: one pre-resolved tuple template per chain table.
    Insert(InsertPlan),
    /// A join-driven multi-table delete.
    Delete(DeletePlan),
    /// A join-driven attribute update.
    UpdateAttr(UpdateAttrPlan),
}

/// Compiled form of [`Update::Insert`].
#[derive(Debug)]
pub(crate) struct InsertPlan {
    /// One target per chain table, in join-chain order (the interpreter's
    /// insertion — and identifier-minting — order).
    targets: Vec<InsertTarget>,
    /// How many distinct fresh identifiers one execution mints.
    fresh_uids: u64,
}

#[derive(Debug)]
struct InsertTarget {
    table: TableName,
    /// Declared primary key column (upsert semantics), if any.
    key_index: Option<usize>,
    /// One slot per column, in table layout order.
    slots: Vec<InsertSlot>,
}

/// Where one inserted column value comes from.
#[derive(Debug, Clone, Copy)]
enum InsertSlot {
    /// Fixed by the statement and its (already bound) arguments.
    Const(Value),
    /// The `g`-th fresh identifier minted by this statement. Group numbers
    /// follow the interpreter's lazy minting order — first encounter while
    /// walking tables and columns — so `Uid(base + g)` reproduces its
    /// payloads exactly.
    Fresh(u64),
}

/// Compiled form of [`Update::Delete`].
#[derive(Debug)]
pub(crate) struct DeletePlan {
    /// The join, filtered by the statement's predicate.
    matched: RowsPlan,
    /// The deleted tables.
    tables: Vec<TableName>,
    /// Per deleted table, the join-header indices of its columns, used to
    /// project matched join rows back onto table tuples.
    projections: Vec<Vec<usize>>,
}

/// Compiled form of [`Update::UpdateAttr`].
#[derive(Debug)]
pub(crate) struct UpdateAttrPlan {
    /// The join, filtered by the statement's predicate.
    matched: RowsPlan,
    table: TableName,
    /// Join-header indices of the table's columns.
    projection: Vec<usize>,
    /// The written column's index in the table layout.
    column: usize,
    /// The (pre-evaluated) value to write.
    value: Value,
}

/// Compiles `update` (with parameters already bound in `env`) against the
/// schema.
///
/// # Errors
///
/// Returns the structural errors the interpreter would raise on *every*
/// execution (see [`UpdatePlan`]). Filter-predicate errors are captured
/// inside the plan instead.
pub(crate) fn prepare_update_plan(
    schema: &Schema,
    update: &Update,
    env: &Env,
) -> Result<UpdatePlan> {
    match update {
        Update::Seq(list) => Ok(UpdatePlan::Seq(
            list.iter()
                .map(|stmt| prepare_update_plan(schema, stmt, env))
                .collect::<Result<_>>()?,
        )),
        Update::Insert { join, values } => prepare_insert_plan(schema, join, values, env),
        Update::Delete { tables, join, pred } => {
            for table in tables {
                if !join.contains_table(table) {
                    return Err(Error::InvalidStatement(format!(
                        "delete targets `{table}` which is not in its join chain"
                    )));
                }
            }
            let (matched, header) = prepare_matched(schema, join, pred, env)?;
            let mut projections = Vec::with_capacity(tables.len());
            for table_name in tables {
                let table = schema
                    .table(table_name)
                    .ok_or_else(|| Error::UnknownTable(table_name.to_string()))?;
                projections.push(header_indices(&table.qualified_attrs(), &header));
            }
            Ok(UpdatePlan::Delete(DeletePlan {
                matched,
                tables: tables.clone(),
                projections,
            }))
        }
        Update::UpdateAttr {
            join,
            pred,
            attr,
            value,
        } => {
            if !join.contains_table(&attr.table) {
                return Err(Error::InvalidStatement(format!(
                    "update writes `{attr}` which is not in its join chain"
                )));
            }
            let table = schema
                .table(&attr.table)
                .ok_or_else(|| Error::UnknownTable(attr.table.to_string()))?;
            let column = table
                .column_index(&attr.attr)
                .ok_or_else(|| Error::UnknownAttribute(attr.to_string()))?;
            let (matched, header) = prepare_matched(schema, join, pred, env)?;
            let projection = header_indices(&table.qualified_attrs(), &header);
            let value = eval_operand_env(value, env)?;
            Ok(UpdatePlan::UpdateAttr(UpdateAttrPlan {
                matched,
                table: attr.table,
                projection,
                column,
                value,
            }))
        }
    }
}

/// Compiles the rows a join-driven statement acts on: its join, filtered by
/// its predicate, with the join's header.
fn prepare_matched(
    schema: &Schema,
    join: &JoinChain,
    pred: &Pred,
    env: &Env,
) -> Result<(RowsPlan, Vec<QualifiedAttr>)> {
    let (join, header) = prepare_join_plan(schema, join)?;
    let pred = prepare_filter(schema, pred, &header, env);
    let matched = RowsPlan::Filter {
        input: Box::new(join),
        pred,
    };
    Ok((matched, header))
}

/// Compiles a filter predicate with the standard static/dynamic split.
fn prepare_filter(
    schema: &Schema,
    pred: &Pred,
    header: &[QualifiedAttr],
    env: &Env,
) -> std::result::Result<FilterPred, Error> {
    prepare_pred_plan(schema, pred, header, env).map(|plan| {
        if plan.contains_in() {
            FilterPred::Dynamic(plan)
        } else {
            // Instance-independent: instantiate once here. The only
            // fallible instantiation step is `IN` execution, absent by
            // construction.
            FilterPred::Static(
                instantiate_pred_plan(&plan, &Instance::default())
                    .expect("IN-free predicates instantiate infallibly"),
            )
        }
    })
}

/// The positions of a table's qualified columns in a join header.
///
/// Every requested column is present because the table was validated to be
/// part of the join chain (mirrors [`Relation::project`]'s first-position
/// lookup for duplicated headers).
fn header_indices(attrs: &[QualifiedAttr], header: &[QualifiedAttr]) -> Vec<usize> {
    attrs
        .iter()
        .map(|a| {
            header
                .iter()
                .position(|c| c == a)
                .expect("chain tables project onto the join header")
        })
        .collect()
}

fn prepare_insert_plan(
    schema: &Schema,
    join: &JoinChain,
    values: &[(QualifiedAttr, Operand)],
    env: &Env,
) -> Result<UpdatePlan> {
    // This mirrors `Evaluator::exec_insert` step for step; only the final
    // tuple materialization is deferred to execution time.
    let tables = join.tables();
    let mut assigned: BTreeMap<QualifiedAttr, Value> = BTreeMap::new();
    for (attr, operand) in values {
        if !join.contains_table(&attr.table) {
            return Err(Error::InvalidStatement(format!(
                "insert assigns `{attr}` which is not in the target join chain"
            )));
        }
        assigned.insert(attr.clone(), eval_operand_env(operand, env)?);
    }
    let mut groups = UnionFind::new();
    for table_name in &tables {
        let table = schema
            .table(table_name)
            .ok_or_else(|| Error::UnknownTable(table_name.to_string()))?;
        for attr in table.qualified_attrs() {
            groups.add(attr);
        }
    }
    for_each_join_condition(join, &mut |left, right| {
        groups.union(left, right);
    });
    let mut group_values: BTreeMap<QualifiedAttr, Value> = BTreeMap::new();
    for (attr, value) in &assigned {
        let root = groups.find(attr);
        group_values.insert(root, *value);
    }
    let mut fresh_groups: BTreeMap<QualifiedAttr, u64> = BTreeMap::new();
    let mut fresh_uids = 0u64;
    let mut targets = Vec::with_capacity(tables.len());
    for table_name in &tables {
        let table = schema.table(table_name).expect("validated above");
        let mut slots = Vec::with_capacity(table.columns.len());
        for column in &table.columns {
            let qattr = QualifiedAttr {
                table: *table_name,
                attr: column.name.clone(),
            };
            let root = groups.find(&qattr);
            let slot = match group_values.get(&root) {
                Some(value) => InsertSlot::Const(*value),
                None => InsertSlot::Fresh(*fresh_groups.entry(root).or_insert_with(|| {
                    let group = fresh_uids;
                    fresh_uids += 1;
                    group
                })),
            };
            slots.push(slot);
        }
        targets.push(InsertTarget {
            table: *table_name,
            key_index: table.primary_key_index(),
            slots,
        });
    }
    Ok(UpdatePlan::Insert(InsertPlan {
        targets,
        fresh_uids,
    }))
}

/// Executes a compiled update plan. `next_uid` is the evaluator's
/// fresh-identifier counter going in; the returned value is the counter
/// after execution, exactly as [`Evaluator::exec_update`] would have left
/// it.
pub(crate) fn exec_update_plan(
    plan: &UpdatePlan,
    instance: &mut Instance,
    next_uid: u64,
) -> Result<u64> {
    match plan {
        UpdatePlan::Seq(list) => {
            let mut uid = next_uid;
            for stmt in list {
                uid = exec_update_plan(stmt, instance, uid)?;
            }
            Ok(uid)
        }
        UpdatePlan::Insert(insert) => {
            for target in &insert.targets {
                let mut tuple = Tuple::with_capacity(target.slots.len());
                for slot in &target.slots {
                    tuple.push(match slot {
                        InsertSlot::Const(value) => *value,
                        InsertSlot::Fresh(group) => Value::Uid(next_uid + group),
                    });
                }
                if let Some(key_index) = target.key_index {
                    let key_value = tuple[key_index];
                    if !key_value.is_null() {
                        instance
                            .rows_mut(&target.table)
                            .retain(|row| row[key_index] != key_value);
                    }
                }
                instance.insert(&target.table, tuple);
            }
            Ok(next_uid + insert.fresh_uids)
        }
        UpdatePlan::Delete(delete) => {
            let doomed_sets = matched_rows(&delete.matched, &delete.projections, instance)?;
            for (table, doomed) in delete.tables.iter().zip(doomed_sets) {
                if !doomed.is_empty() {
                    instance.rows_mut(table).retain(|row| !doomed.contains(row));
                }
            }
            Ok(next_uid)
        }
        UpdatePlan::UpdateAttr(update) => {
            let affected = matched_table_rows(update, instance)?;
            if !affected.is_empty() {
                for row in instance.rows_mut(&update.table) {
                    if affected.contains(row) {
                        row[update.column] = update.value;
                    }
                }
            }
            Ok(next_uid)
        }
    }
}

/// One recorded inverse: enough to undo a single mutation step of a
/// journaled update execution.
#[derive(Debug)]
enum UndoOp {
    /// One row was appended to `table`'s tail; undo pops it.
    Pushed { table: TableName },
    /// Rows were removed from `table`, recorded as `(original index, row)`
    /// in increasing index order; undo re-inserts them at those indices in
    /// the same order.
    Removed {
        table: TableName,
        rows: Vec<(usize, Tuple)>,
    },
    /// One column of several rows was overwritten, recorded as
    /// `(row index, old value)`; undo restores the old values.
    Cells {
        table: TableName,
        column: usize,
        cells: Vec<(usize, Value)>,
    },
}

/// An undo log for in-place update execution: every row mutation performed
/// by `exec_update_plan_journaled` appends its exact inverse, and
/// [`Journal::rollback_to`] replays the inverses to restore the instance to
/// any earlier mark — the bounded-testing engine's replacement for
/// clone-based backtracking.
///
/// # Correctness
///
/// Rollback replays inverses in strict LIFO order, so each inverse runs
/// against precisely the table layout its mutation produced; restoring it
/// re-establishes the layout the *previous* inverse expects, by induction
/// back to the mark. The one subtle case is `UndoOp::Removed`: removal
/// records `(index, row)` pairs in increasing original-index order, and
/// re-inserting at those indices *in the same increasing order* is exact —
/// each insertion shifts only positions at or above its index, which are
/// exactly the positions later pairs (with strictly larger indices) are
/// about to fill.
///
/// Two things rely on every mutation being journaled. Rollback does, to
/// restore the instance exactly. And the bounded-testing walk reads a
/// journal that grew no entry during an update call as proof that the call
/// left the instance unchanged, and then counts the sequences below it
/// instead of walking them (see `equiv::compare_with_oracle`). A mutation
/// made outside the journal would break both.
///
/// The journal also meters copy-on-write traffic: mutations go through
/// [`Instance::rows_mut_tracked`], so the bytes physically copied to
/// un-share a table (and the largest single such copy) are accounted where
/// the pre-COW engine charged a full snapshot clone per tree edge.
#[derive(Debug, Default)]
pub struct Journal {
    ops: Vec<UndoOp>,
    cow_bytes: u64,
    cow_peak: usize,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// An opaque position in the log; pass to [`Journal::rollback_to`] to
    /// restore the instance to its state when the mark was taken.
    pub fn mark(&self) -> usize {
        self.ops.len()
    }

    /// Drains the copy-on-write accounting accumulated since the last call:
    /// `(bytes physically copied, largest single copy)`.
    pub fn take_copy_stats(&mut self) -> (u64, usize) {
        let stats = (self.cow_bytes, self.cow_peak);
        self.cow_bytes = 0;
        self.cow_peak = 0;
        stats
    }

    /// Rolls the instance back to `mark`, undoing every mutation recorded
    /// after it (in reverse order). Returns the number of row-level inverse
    /// operations replayed.
    ///
    /// # Panics
    ///
    /// May panic (or silently corrupt state) if `instance` is not the
    /// instance the journal recorded against, or if it was mutated outside
    /// the journal since the mark.
    pub fn rollback_to(&mut self, mark: usize, instance: &mut Instance) -> u64 {
        let mut undone = 0u64;
        while self.ops.len() > mark {
            match self.ops.pop().expect("ops.len() > mark") {
                UndoOp::Pushed { table } => {
                    instance.rows_mut(&table).pop();
                    undone += 1;
                }
                UndoOp::Removed { table, rows } => {
                    undone += rows.len() as u64;
                    let live = instance.rows_mut(&table);
                    for (index, row) in rows {
                        live.insert(index, row);
                    }
                }
                UndoOp::Cells {
                    table,
                    column,
                    cells,
                } => {
                    undone += cells.len() as u64;
                    let live = instance.rows_mut(&table);
                    for (index, old) in cells {
                        live[index][column] = old;
                    }
                }
            }
        }
        undone
    }

    fn track_copy(&mut self, copied: usize) {
        self.cow_bytes += copied as u64;
        self.cow_peak = self.cow_peak.max(copied);
    }

    /// Order-preserving `retain` that records the removed rows.
    fn retain_rows(
        &mut self,
        instance: &mut Instance,
        table: &TableName,
        mut keep: impl FnMut(&Tuple) -> bool,
    ) {
        let (rows, copied) = instance.rows_mut_tracked(table);
        self.track_copy(copied);
        let mut removed: Vec<(usize, Tuple)> = Vec::new();
        let mut write = 0usize;
        for read in 0..rows.len() {
            if keep(&rows[read]) {
                if write != read {
                    rows.swap(write, read);
                }
                write += 1;
            } else {
                removed.push((read, std::mem::take(&mut rows[read])));
            }
        }
        if removed.is_empty() {
            return;
        }
        rows.truncate(write);
        self.ops.push(UndoOp::Removed {
            table: *table,
            rows: removed,
        });
    }

    /// Appends one row, recording the push.
    fn push_row(&mut self, instance: &mut Instance, table: &TableName, row: Tuple) {
        let (rows, copied) = instance.rows_mut_tracked(table);
        self.track_copy(copied);
        rows.push(row);
        self.ops.push(UndoOp::Pushed { table: *table });
    }

    /// Overwrites `column` with `value` on every row matching `hit`,
    /// recording the old cell values.
    fn update_cells(
        &mut self,
        instance: &mut Instance,
        table: &TableName,
        mut hit: impl FnMut(&Tuple) -> bool,
        column: usize,
        value: Value,
    ) {
        let (rows, copied) = instance.rows_mut_tracked(table);
        self.track_copy(copied);
        let mut cells: Vec<(usize, Value)> = Vec::new();
        for (index, row) in rows.iter_mut().enumerate() {
            if hit(row) {
                cells.push((index, row[column]));
                row[column] = value;
            }
        }
        if cells.is_empty() {
            return;
        }
        self.ops.push(UndoOp::Cells {
            table: *table,
            column,
            cells,
        });
    }
}

/// [`exec_update_plan`] with inverse recording: mutates `instance` exactly
/// like the plain executor (same end state, same returned uid counter, same
/// error occurrences), additionally appending the inverse of every row
/// mutation to `journal`.
///
/// On failure the instance retains the partial mutations of earlier
/// statements — exactly as [`exec_update_plan`] leaves them — but those
/// mutations *are* journaled, so rolling back to the pre-call mark restores
/// the pre-call state precisely.
pub(crate) fn exec_update_plan_journaled(
    plan: &UpdatePlan,
    instance: &mut Instance,
    next_uid: u64,
    journal: &mut Journal,
) -> Result<u64> {
    match plan {
        UpdatePlan::Seq(list) => {
            let mut uid = next_uid;
            for stmt in list {
                uid = exec_update_plan_journaled(stmt, instance, uid, journal)?;
            }
            Ok(uid)
        }
        UpdatePlan::Insert(insert) => {
            for target in &insert.targets {
                let mut tuple = Tuple::with_capacity(target.slots.len());
                for slot in &target.slots {
                    tuple.push(match slot {
                        InsertSlot::Const(value) => *value,
                        InsertSlot::Fresh(group) => Value::Uid(next_uid + group),
                    });
                }
                if let Some(key_index) = target.key_index {
                    let key_value = tuple[key_index];
                    if !key_value.is_null() {
                        journal.retain_rows(instance, &target.table, |row| {
                            row[key_index] != key_value
                        });
                    }
                }
                journal.push_row(instance, &target.table, tuple);
            }
            Ok(next_uid + insert.fresh_uids)
        }
        UpdatePlan::Delete(delete) => {
            let doomed_sets = matched_rows(&delete.matched, &delete.projections, instance)?;
            for (table, doomed) in delete.tables.iter().zip(doomed_sets) {
                if !doomed.is_empty() {
                    journal.retain_rows(instance, table, |row| !doomed.contains(row));
                }
            }
            Ok(next_uid)
        }
        UpdatePlan::UpdateAttr(update) => {
            let affected = matched_table_rows(update, instance)?;
            if !affected.is_empty() {
                journal.update_cells(
                    instance,
                    &update.table,
                    |row| affected.contains(row),
                    update.column,
                    update.value,
                );
            }
            Ok(next_uid)
        }
    }
}

/// Runs the rows a join-driven statement matches through [`stream_rows`]
/// and projects each onto every one of `projections`, deduplicating into
/// the sets the interpreter's `BTreeSet<Tuple>` membership tests use. No
/// sets at all if no row matches, which is what most executions in the
/// bounded-testing walk find, so those allocate nothing.
fn matched_rows(
    matched: &RowsPlan,
    projections: &[Vec<usize>],
    instance: &Instance,
) -> Result<Vec<BTreeSet<Tuple>>> {
    let mut sets = Vec::new();
    stream_rows(matched, instance, &mut RowBuffers::default(), &mut |row| {
        if sets.is_empty() {
            sets.resize_with(projections.len(), BTreeSet::new);
        }
        for (set, indices) in sets.iter_mut().zip(projections) {
            set.insert(indices.iter().map(|&i| row[i]).collect());
        }
        Ok(())
    })
    .map_err(Cow::into_owned)?;
    Ok(sets)
}

/// The rows of an attribute update's table that its join and predicate
/// match.
fn matched_table_rows(update: &UpdateAttrPlan, instance: &Instance) -> Result<BTreeSet<Tuple>> {
    let mut sets = matched_rows(
        &update.matched,
        std::slice::from_ref(&update.projection),
        instance,
    )?;
    Ok(sets.pop().unwrap_or_default())
}

fn eval_compiled(pred: &CompiledPred, row: &[Value]) -> Result<bool> {
    match pred {
        CompiledPred::Const(b) => Ok(*b),
        CompiledPred::CmpCols { lhs, op, rhs } => compare(&row[*lhs], *op, &row[*rhs]),
        CompiledPred::CmpConst { lhs, op, rhs } => compare(&row[*lhs], *op, rhs),
        CompiledPred::In { attr, members } => Ok(members.contains(&row[*attr])),
        CompiledPred::And(a, b) => Ok(eval_compiled(a, row)? && eval_compiled(b, row)?),
        CompiledPred::Or(a, b) => Ok(eval_compiled(a, row)? || eval_compiled(b, row)?),
        CompiledPred::Not(p) => Ok(!eval_compiled(p, row)?),
    }
}

/// Compares two values under the given operator.
///
/// Equality and disequality are defined across all value types (distinct
/// variants simply compare unequal, so e.g. `Int(5) = Str("a")` is false).
/// Ordering comparisons are only defined between values of the *same*
/// runtime type — the derived order on [`Value`] would otherwise quietly
/// rank variants by declaration order (`Int(5) < Str("a")`), which no
/// database semantics sanctions — and raise
/// [`Error::MixedTypeOrdering`] otherwise. `NULL` has no type and therefore
/// orders against nothing, not even itself.
fn compare(lhs: &Value, op: CmpOp, rhs: &Value) -> Result<bool> {
    match op {
        CmpOp::Eq => Ok(lhs == rhs),
        CmpOp::Ne => Ok(lhs != rhs),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match (lhs.data_type(), rhs.data_type()) {
            (Some(a), Some(b)) if a == b => Ok(match op {
                CmpOp::Lt => lhs < rhs,
                CmpOp::Le => lhs <= rhs,
                CmpOp::Gt => lhs > rhs,
                CmpOp::Ge => lhs >= rhs,
                CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
            }),
            (a, b) => Err(Error::MixedTypeOrdering {
                lhs: a.map(|t| t.to_string()).unwrap_or_else(|| "null".into()),
                rhs: b.map(|t| t.to_string()).unwrap_or_else(|| "null".into()),
            }),
        },
    }
}

fn for_each_join_condition(chain: &JoinChain, f: &mut impl FnMut(&QualifiedAttr, &QualifiedAttr)) {
    if let JoinChain::Join {
        left,
        right,
        left_attr,
        right_attr,
    } = chain
    {
        for_each_join_condition(left, f);
        for_each_join_condition(right, f);
        f(left_attr, right_attr);
    }
}

/// A small union-find over qualified attributes, used to propagate shared
/// insert values along join conditions.
#[derive(Debug, Default)]
struct UnionFind {
    parent: BTreeMap<QualifiedAttr, QualifiedAttr>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind::default()
    }

    fn add(&mut self, attr: QualifiedAttr) {
        self.parent.entry(attr.clone()).or_insert(attr);
    }

    fn find(&mut self, attr: &QualifiedAttr) -> QualifiedAttr {
        self.add(attr.clone());
        let parent = self.parent[attr].clone();
        if &parent == attr {
            return parent;
        }
        let root = self.find(&parent);
        self.parent.insert(attr.clone(), root.clone());
        root
    }

    fn union(&mut self, a: &QualifiedAttr, b: &QualifiedAttr) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent.insert(ra, rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Param;
    use crate::value::DataType;

    fn car_schema() -> Schema {
        Schema::parse(
            "Car(cid: int, model: string, year: int)\n\
             Part(name: string, amount: int, cid: int)",
        )
        .unwrap()
    }

    fn example_instance(schema: &Schema) -> Instance {
        let mut instance = Instance::empty(schema);
        instance.insert(
            &"Car".into(),
            vec![Value::Int(1), Value::str("M1"), Value::Int(2016)],
        );
        instance.insert(
            &"Car".into(),
            vec![Value::Int(2), Value::str("M2"), Value::Int(2018)],
        );
        instance.insert(
            &"Part".into(),
            vec![Value::str("tire"), Value::Int(10), Value::Int(1)],
        );
        instance.insert(
            &"Part".into(),
            vec![Value::str("brake"), Value::Int(20), Value::Int(1)],
        );
        instance.insert(
            &"Part".into(),
            vec![Value::str("tire"), Value::Int(20), Value::Int(2)],
        );
        instance.insert(
            &"Part".into(),
            vec![Value::str("brake"), Value::Int(30), Value::Int(2)],
        );
        instance
    }

    fn car_part_join() -> JoinChain {
        JoinChain::table("Car").join(
            JoinChain::table("Part"),
            QualifiedAttr::new("Car", "cid"),
            QualifiedAttr::new("Part", "cid"),
        )
    }

    #[test]
    fn join_evaluation_matches_example_31() {
        let schema = car_schema();
        let instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let rel = eval.eval_join(&car_part_join(), &instance).unwrap();
        assert_eq!(rel.columns.len(), 6);
        assert_eq!(rel.len(), 4);
    }

    #[test]
    fn delete_example_31() {
        // del([Car, Part], Car ⋈ Part, model = M1) removes car 1 and its parts.
        let schema = car_schema();
        let mut instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let del = Update::Delete {
            tables: vec!["Car".into(), "Part".into()],
            join: car_part_join(),
            pred: Pred::eq_value(QualifiedAttr::new("Car", "model"), Value::str("M1")),
        };
        eval.exec_update(&del, &mut instance, &Env::new()).unwrap();
        assert_eq!(instance.rows(&"Car".into()).len(), 1);
        assert_eq!(instance.rows(&"Part".into()).len(), 2);
        assert_eq!(instance.rows(&"Car".into())[0][0], Value::Int(2));
    }

    #[test]
    fn update_example_31() {
        // upd(Car ⋈ Part, model = M2 ∧ name = tire, amount, 30)
        let schema = car_schema();
        let mut instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let upd = Update::UpdateAttr {
            join: car_part_join(),
            pred: Pred::eq_value(QualifiedAttr::new("Car", "model"), Value::str("M2")).and(
                Pred::eq_value(QualifiedAttr::new("Part", "name"), Value::str("tire")),
            ),
            attr: QualifiedAttr::new("Part", "amount"),
            value: Operand::Value(Value::Int(30)),
        };
        eval.exec_update(&upd, &mut instance, &Env::new()).unwrap();
        let parts = instance.rows(&"Part".into());
        let tire2 = parts
            .iter()
            .find(|r| r[0] == Value::str("tire") && r[2] == Value::Int(2))
            .unwrap();
        assert_eq!(tire2[1], Value::Int(30));
        // Other rows untouched.
        let tire1 = parts
            .iter()
            .find(|r| r[0] == Value::str("tire") && r[2] == Value::Int(1))
            .unwrap();
        assert_eq!(tire1[1], Value::Int(10));
    }

    #[test]
    fn single_table_insert_uses_assigned_values() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let ins = Update::Insert {
            join: JoinChain::table("Car"),
            values: vec![
                (QualifiedAttr::new("Car", "cid"), Value::Int(7).into()),
                (QualifiedAttr::new("Car", "model"), Value::str("M7").into()),
                (QualifiedAttr::new("Car", "year"), Value::Int(2020).into()),
            ],
        };
        eval.exec_update(&ins, &mut instance, &Env::new()).unwrap();
        assert_eq!(
            instance.rows(&"Car".into()),
            &[vec![Value::Int(7), Value::str("M7"), Value::Int(2020)]]
        );
    }

    #[test]
    fn insert_over_join_links_tables_with_shared_uid() {
        // The motivating example: inserting into Picture ⋈ Instructor must
        // store the same fresh identifier in Instructor.PicId and
        // Picture.PicId.
        let schema = Schema::parse(
            "Instructor(InstId: int, IName: string, PicId: id)\n\
             Picture(PicId: id, Pic: binary)",
        )
        .unwrap();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let chain = JoinChain::table("Picture").join(
            JoinChain::table("Instructor"),
            QualifiedAttr::new("Picture", "PicId"),
            QualifiedAttr::new("Instructor", "PicId"),
        );
        let ins = Update::Insert {
            join: chain,
            values: vec![
                (
                    QualifiedAttr::new("Instructor", "InstId"),
                    Value::Int(1).into(),
                ),
                (
                    QualifiedAttr::new("Instructor", "IName"),
                    Value::str("Ada").into(),
                ),
                (
                    QualifiedAttr::new("Picture", "Pic"),
                    Value::bytes(vec![1, 2, 3]).into(),
                ),
            ],
        };
        eval.exec_update(&ins, &mut instance, &Env::new()).unwrap();
        let pics = instance.rows(&"Picture".into());
        let insts = instance.rows(&"Instructor".into());
        assert_eq!(pics.len(), 1);
        assert_eq!(insts.len(), 1);
        // Shared identifier between Picture.PicId and Instructor.PicId.
        assert_eq!(pics[0][0], insts[0][2]);
        assert!(matches!(pics[0][0], Value::Uid(_)));
        assert_eq!(pics[0][1], Value::bytes(vec![1, 2, 3]));
        assert_eq!(insts[0][1], Value::str("Ada"));
    }

    #[test]
    fn primary_key_insert_replaces_existing_row() {
        let schema = Schema::parse("User(pk uid: int, name: string)").unwrap();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let add = |name: &str| Update::Insert {
            join: JoinChain::table("User"),
            values: vec![
                (QualifiedAttr::new("User", "uid"), Value::Int(1).into()),
                (QualifiedAttr::new("User", "name"), Value::str(name).into()),
            ],
        };
        eval.exec_update(&add("ada"), &mut instance, &Env::new())
            .unwrap();
        eval.exec_update(&add("grace"), &mut instance, &Env::new())
            .unwrap();
        assert_eq!(
            instance.rows(&"User".into()),
            &[vec![Value::Int(1), Value::str("grace")]]
        );
        // A different key inserts a second row.
        let other = Update::Insert {
            join: JoinChain::table("User"),
            values: vec![
                (QualifiedAttr::new("User", "uid"), Value::Int(2).into()),
                (QualifiedAttr::new("User", "name"), Value::str("bob").into()),
            ],
        };
        eval.exec_update(&other, &mut instance, &Env::new())
            .unwrap();
        assert_eq!(instance.rows(&"User".into()).len(), 2);
    }

    #[test]
    fn tables_without_keys_keep_multiset_semantics() {
        let schema = Schema::parse("Log(code: int, message: string)").unwrap();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let add = Update::Insert {
            join: JoinChain::table("Log"),
            values: vec![
                (QualifiedAttr::new("Log", "code"), Value::Int(1).into()),
                (QualifiedAttr::new("Log", "message"), Value::str("x").into()),
            ],
        };
        eval.exec_update(&add, &mut instance, &Env::new()).unwrap();
        eval.exec_update(&add, &mut instance, &Env::new()).unwrap();
        assert_eq!(instance.rows(&"Log".into()).len(), 2);
    }

    #[test]
    fn insert_assigning_attr_outside_chain_is_rejected() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let ins = Update::Insert {
            join: JoinChain::table("Car"),
            values: vec![(QualifiedAttr::new("Part", "name"), Value::str("x").into())],
        };
        let err = eval.exec_update(&ins, &mut instance, &Env::new());
        assert!(matches!(err, Err(Error::InvalidStatement(_))));
    }

    #[test]
    fn query_with_param_filter() {
        let schema = car_schema();
        let instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let query = Query::select(
            vec![QualifiedAttr::new("Part", "name")],
            Pred::eq_value(QualifiedAttr::new("Part", "cid"), Operand::param("c")),
            JoinChain::table("Part"),
        );
        let mut env = Env::new();
        env.insert("c".to_string(), Value::Int(1));
        let rel = eval.eval_query(&query, &instance, &env).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn in_predicate_membership() {
        let schema = car_schema();
        let instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        // Parts whose cid appears among cars newer than 2017.
        let sub = Query::select(
            vec![QualifiedAttr::new("Car", "cid")],
            Pred::CmpValue {
                lhs: QualifiedAttr::new("Car", "year"),
                op: CmpOp::Gt,
                rhs: Value::Int(2017).into(),
            },
            JoinChain::table("Car"),
        );
        let query = Query::select(
            vec![QualifiedAttr::new("Part", "name")],
            Pred::In {
                attr: QualifiedAttr::new("Part", "cid"),
                query: Box::new(sub),
            },
            JoinChain::table("Part"),
        );
        let rel = eval.eval_query(&query, &instance, &Env::new()).unwrap();
        assert_eq!(rel.len(), 2);
    }

    #[test]
    fn call_binds_arguments_and_checks_types() {
        let schema = car_schema();
        let mut instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let f = Function::query(
            "getParts",
            vec![Param::new("c", DataType::Int)],
            Query::select(
                vec![QualifiedAttr::new("Part", "name")],
                Pred::eq_value(QualifiedAttr::new("Part", "cid"), Operand::param("c")),
                JoinChain::table("Part"),
            ),
        );
        let result = eval.call(&f, &[Value::Int(2)], &mut instance).unwrap();
        assert_eq!(result.unwrap().len(), 2);

        let err = eval.call(&f, &[Value::str("oops")], &mut instance);
        assert!(matches!(err, Err(Error::TypeMismatch { .. })));
        let err = eval.call(&f, &[], &mut instance);
        assert!(matches!(err, Err(Error::ArityMismatch { .. })));
    }

    #[test]
    fn null_join_keys_do_not_match() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        instance.insert(
            &"Car".into(),
            vec![Value::Null, Value::str("M"), Value::Int(2000)],
        );
        instance.insert(
            &"Part".into(),
            vec![Value::str("tire"), Value::Int(1), Value::Null],
        );
        let mut eval = Evaluator::new(&schema);
        let rel = eval.eval_join(&car_part_join(), &instance).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn in_subquery_with_multiple_columns_is_rejected() {
        // The old evaluator compared the needle against `row.first()`,
        // silently truncating a multi-column subquery to its first column.
        let schema = car_schema();
        let instance = example_instance(&schema);
        let mut eval = Evaluator::new(&schema);
        let wide_sub = Query::select(
            vec![
                QualifiedAttr::new("Car", "cid"),
                QualifiedAttr::new("Car", "model"),
            ],
            Pred::True,
            JoinChain::table("Car"),
        );
        let query = Query::select(
            vec![QualifiedAttr::new("Part", "name")],
            Pred::In {
                attr: QualifiedAttr::new("Part", "cid"),
                query: Box::new(wide_sub),
            },
            JoinChain::table("Part"),
        );
        let err = eval.eval_query(&query, &instance, &Env::new());
        assert_eq!(err, Err(Error::NonSingleColumnSubquery { columns: 2 }));
    }

    #[test]
    fn mixed_type_ordering_is_an_error() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        instance.insert(
            &"Car".into(),
            vec![Value::Int(1), Value::str("M1"), Value::Int(2016)],
        );
        let mut eval = Evaluator::new(&schema);
        // `model < 5` compares a string column against an integer: under the
        // derived Value order this was quietly `false` (Str sorts after Int);
        // it must now be a typed evaluation error.
        let query = Query::select(
            vec![QualifiedAttr::new("Car", "cid")],
            Pred::CmpValue {
                lhs: QualifiedAttr::new("Car", "model"),
                op: CmpOp::Lt,
                rhs: Value::Int(5).into(),
            },
            JoinChain::table("Car"),
        );
        let err = eval.eval_query(&query, &instance, &Env::new());
        assert!(
            matches!(err, Err(Error::MixedTypeOrdering { .. })),
            "{err:?}"
        );
        // Equality across types stays total (and false).
        let eq_query = Query::select(
            vec![QualifiedAttr::new("Car", "cid")],
            Pred::eq_value(QualifiedAttr::new("Car", "model"), Value::Int(5)),
            JoinChain::table("Car"),
        );
        let rel = eval.eval_query(&eq_query, &instance, &Env::new()).unwrap();
        assert!(rel.is_empty());
        // Same-type ordering still works.
        let lt_query = Query::select(
            vec![QualifiedAttr::new("Car", "cid")],
            Pred::CmpValue {
                lhs: QualifiedAttr::new("Car", "year"),
                op: CmpOp::Lt,
                rhs: Value::Int(2020).into(),
            },
            JoinChain::table("Car"),
        );
        let rel = eval.eval_query(&lt_query, &instance, &Env::new()).unwrap();
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn duplicate_parameter_names_are_rejected() {
        let f = Function::query(
            "dup",
            vec![
                Param::new("x", DataType::Int),
                Param::new("x", DataType::Int),
            ],
            Query::select(vec![QualifiedAttr::new("Car", "cid")], Pred::True, {
                JoinChain::table("Car")
            }),
        );
        let err = bind_args(&f, &[Value::Int(1), Value::Int(2)]);
        assert_eq!(
            err,
            Err(Error::DuplicateParameter {
                function: "dup".into(),
                parameter: "x".into(),
            })
        );
    }

    /// Duplicate and NULL join keys: the interpreter, a compiled query and
    /// a compiled join-driven delete all join left-major, each left row
    /// followed by its matches in right-row order, and a NULL key matches
    /// nothing, not even another NULL.
    #[test]
    fn joins_are_left_major_nested_loops_over_duplicate_and_null_keys() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        for (cid, model) in [
            (Value::Int(1), "A1"),
            (Value::Null, "N"),
            (Value::Int(2), "B"),
            (Value::Int(1), "A2"),
        ] {
            instance.insert(
                &"Car".into(),
                vec![cid, Value::str(model), Value::Int(2020)],
            );
        }
        for (name, cid) in [
            ("p1", Value::Int(1)),
            ("pn", Value::Null),
            ("p2", Value::Int(1)),
            ("p3", Value::Int(3)),
        ] {
            instance.insert(&"Part".into(), vec![Value::str(name), Value::Int(0), cid]);
        }
        let pairs = |rows: &[Tuple]| -> Vec<(&str, &str)> {
            rows.iter()
                .map(|r| (r[1].as_str().unwrap(), r[3].as_str().unwrap()))
                .collect()
        };
        let expected = [("A1", "p1"), ("A1", "p2"), ("A2", "p1"), ("A2", "p2")];
        let mut eval = Evaluator::new(&schema);
        let interpreted = eval.eval_join(&car_part_join(), &instance).unwrap();
        assert_eq!(pairs(&interpreted.rows), expected);
        let query = Query::Join(car_part_join());
        let compiled = CompiledQuery::compile(&schema, &query, &Env::new()).unwrap();
        assert_eq!(pairs(&compiled.execute(&instance).unwrap()), expected);

        // del([Car, Part], Car ⋈ Part, true) deletes exactly the joined
        // rows: the NULL-keyed and unmatched ones stay, in their order.
        let delete = Update::Delete {
            tables: vec!["Car".into(), "Part".into()],
            join: car_part_join(),
            pred: Pred::True,
        };
        let compiled = CompiledUpdate::compile(&schema, &delete, &Env::new()).unwrap();
        compiled.execute(&mut instance, 0).unwrap();
        let column = |table: &str, index: usize| -> Vec<&str> {
            instance
                .rows(&table.into())
                .iter()
                .map(|row| row[index].as_str().unwrap())
                .collect()
        };
        assert_eq!(column("Car", 1), ["N", "B"]);
        assert_eq!(column("Part", 0), ["pn", "p3"]);
    }

    /// The streaming executor errs exactly when the interpreter does, and
    /// otherwise returns the same multiset of rows, on the empty instance
    /// and on a populated one with NULL join keys. A filter fails only once
    /// a row reaches it, so on the empty instance nothing fails.
    #[test]
    fn streaming_executor_errs_when_the_interpreter_does() {
        let schema = car_schema();
        let mut populated = example_instance(&schema);
        populated.insert(
            &"Car".into(),
            vec![Value::Null, Value::str("MN"), Value::Int(2019)],
        );
        populated.insert(
            &"Part".into(),
            vec![Value::str("bolt"), Value::Int(30), Value::Null],
        );
        let car = |attr: &str| QualifiedAttr::new("Car", attr);
        let part = |attr: &str| QualifiedAttr::new("Part", attr);
        let cmp = |lhs: QualifiedAttr, op: CmpOp, rhs: i64| Pred::CmpValue {
            lhs,
            op,
            rhs: Value::Int(rhs).into(),
        };
        let cars = || Box::new(Query::Join(JoinChain::table("Car")));
        let filter = |pred: Pred, input: Box<Query>| Query::Filter { pred, input };
        // Each query, and whether it fails on the populated instance.
        let queries = [
            (
                "mixed-type ordering",
                Query::select(
                    vec![car("cid")],
                    cmp(car("model"), CmpOp::Lt, 5),
                    JoinChain::table("Car"),
                ),
                true,
            ),
            (
                "unknown parameter",
                Query::select(
                    vec![car("cid")],
                    Pred::eq_value(car("cid"), Operand::param("missing")),
                    JoinChain::table("Car"),
                ),
                true,
            ),
            (
                "IN subquery",
                Query::select(
                    vec![part("name")],
                    Pred::In {
                        attr: part("cid"),
                        query: Box::new(Query::select(
                            vec![car("cid")],
                            cmp(car("year"), CmpOp::Gt, 2017),
                            JoinChain::table("Car"),
                        )),
                    },
                    JoinChain::table("Part"),
                ),
                false,
            ),
            (
                "filter over a join with NULL keys",
                Query::select(
                    vec![car("model"), part("name")],
                    cmp(part("amount"), CmpOp::Ge, 20),
                    car_part_join(),
                ),
                false,
            ),
            (
                "filter over a filter",
                filter(
                    cmp(car("model"), CmpOp::Lt, 5),
                    Box::new(filter(cmp(car("year"), CmpOp::Gt, 2017), cars())),
                ),
                true,
            ),
            (
                "filter over a filter that keeps no row",
                filter(
                    cmp(car("model"), CmpOp::Lt, 5),
                    Box::new(filter(cmp(car("year"), CmpOp::Gt, 3000), cars())),
                ),
                false,
            ),
        ];
        let env = Env::new();
        for (name, query, fails) in &queries {
            for (instance, fails) in [
                (Instance::empty(&schema), false),
                (populated.clone(), *fails),
            ] {
                let interpreted = Evaluator::new(&schema).eval_query(query, &instance, &env);
                let streamed = CompiledQuery::compile(&schema, query, &env)
                    .and_then(|compiled| compiled.execute(&instance));
                assert_eq!(interpreted.is_err(), fails, "{name}: {interpreted:?}");
                assert_eq!(streamed.is_err(), fails, "{name}: {streamed:?}");
                if let (Ok(relation), Ok(mut rows)) = (interpreted, streamed) {
                    rows.sort();
                    assert_eq!(rows, relation.canonical_rows(), "{name}");
                }
            }
        }
    }

    #[test]
    fn delete_on_empty_instance_is_noop() {
        let schema = car_schema();
        let mut instance = Instance::empty(&schema);
        let mut eval = Evaluator::new(&schema);
        let del = Update::Delete {
            tables: vec!["Car".into()],
            join: JoinChain::table("Car"),
            pred: Pred::True,
        };
        eval.exec_update(&del, &mut instance, &Env::new()).unwrap();
        assert!(instance.is_empty());
    }
}
