//! Data-migration planning and script generation: `INSERT INTO target
//! SELECT ... FROM source` statements that move existing rows into the
//! refactored schema.
//!
//! The synthesized program migrates the *application*; the plan built here
//! migrates the *data already stored* under the source schema, in the
//! spirit of the follow-up work on Datalog-based data migration (Wang et
//! al., 2020). The winning [`ValueCorrespondence`] says which target column
//! each source column feeds; [`migration_plan`] turns it into an explicit
//! [`MigrationPlan`]:
//!
//! * target columns fed by the same source table (or by source tables
//!   joinable in the source schema) are filled by one [`PlannedInsert`];
//! * a target column fed by several unrelated source tables (e.g. a shared
//!   `Picture.Pic` collecting instructor *and* TA pictures) produces one
//!   insert per source — a union of row sets;
//! * unmapped target identifier columns that link target tables (fresh
//!   surrogate keys) are populated with a deterministic skolem expression
//!   `key * N + i` derived from the feeding source table's *integer* key, so
//!   the same source row yields the same surrogate key in every target
//!   table. A source whose only key is an `id` column (emitted as UUID in
//!   DDL) cannot seed the arithmetic; its link column is skipped with a
//!   note instead of emitting invalid UUID arithmetic.
//!
//! The plan has two independent consumers, which is what makes the emitted
//! SQL testable end-to-end: [`migration_script`] renders it as executable
//! SQL, and the `sqlexec` crate evaluates the same plan directly over a
//! [`dbir::Instance`] to predict the target instance the SQL must produce.
//!
//! [`migration_script`] produces a script a DBA can actually run against a
//! database holding the source schema and its data: source tables whose
//! name collides with a target table are first renamed to a staging name
//! (`legacy_<name>`), the target tables are created, the `INSERT ..
//! SELECT`s move the data (reading staged names where applicable), and a
//! cleanup phase drops the staged and source-only tables **whose rows the
//! migration moved**. A source table no insert reads is never dropped —
//! the migration copied none of its rows, so dropping it would destroy
//! data — and a note tells the DBA to deal with it manually.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use dbir::schema::{QualifiedAttr, Schema, TableDef};
use dbir::{DataType, TableName};
use migrator::ValueCorrespondence;

use crate::emit::{schema_to_ddl, Dialect};

/// How one target column of a [`PlannedInsert`] is filled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnFill {
    /// Copied from a source attribute readable in the insert's FROM clause.
    Source(QualifiedAttr),
    /// Fresh surrogate key: the skolem expression `key * factor + tag`,
    /// where `key` is an integer attribute readable in the FROM clause.
    Skolem {
        /// The integer source attribute seeding the expression.
        key: QualifiedAttr,
        /// The multiplier (the number of source tables), keeping tags from
        /// different source tables disjoint.
        factor: usize,
        /// The tag identifying which source table seeded the key.
        tag: usize,
    },
}

/// One planned `INSERT INTO target SELECT ... FROM sources` of a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedInsert {
    /// The target table receiving rows.
    pub target: TableName,
    /// Source tables in join order; the first is the anchor.
    pub tables: Vec<TableName>,
    /// For each table after the anchor, the equi-join condition linking it
    /// to an earlier table of the chain (`None` degrades to a cross join;
    /// unreachable in practice because grouping only admits joinable
    /// tables).
    pub joins: Vec<Option<(QualifiedAttr, QualifiedAttr)>>,
    /// `(target column, fill)` pairs in target column order. Target columns
    /// with no fill (unmapped, un-skolemizable) are simply absent.
    pub columns: Vec<(QualifiedAttr, ColumnFill)>,
}

/// A source table staged under a fresh name because a target table takes
/// its name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagedRename {
    /// The source table being renamed.
    pub table: TableName,
    /// The staging name the migration reads it under.
    pub staged: String,
    /// Whether cleanup drops the staged table. Only tables whose rows the
    /// migration actually moved are dropped; a staged table the migration
    /// never read keeps the data nothing else holds.
    pub drop_after: bool,
}

/// A complete data-migration plan for one refactoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The planned inserts, ordered so foreign-key referenced target tables
    /// are filled before their referrers.
    pub inserts: Vec<PlannedInsert>,
    /// Source tables whose name collides with a target table, staged under
    /// fresh names while the migration runs.
    pub renames: Vec<StagedRename>,
    /// Source tables absent from the target schema whose rows the
    /// migration moved, dropped after the data moves. Source tables the
    /// migration never reads are kept (see [`MigrationPlan::notes`]).
    pub dropped_sources: Vec<TableName>,
    /// Human-readable caveats (skipped columns, manual steps).
    pub notes: Vec<String>,
}

impl MigrationPlan {
    /// The staging name a source table is read under while the migration
    /// runs (its own name unless it collides with a target table).
    pub fn effective_name(&self, table: &TableName) -> &str {
        self.renames
            .iter()
            .find(|r| &r.table == table)
            .map(|r| r.staged.as_str())
            .unwrap_or_else(|| table.as_str())
    }
}

/// A generated data-migration script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationScript {
    /// Statements preparing the schemas: staging renames of colliding
    /// source tables, then `CREATE TABLE` DDL for every target table.
    pub preamble: Vec<String>,
    /// `INSERT INTO ... SELECT ...` statements, in an order that respects
    /// target foreign keys where possible.
    pub statements: Vec<String>,
    /// Statements dropping staged and source-only tables once the data has
    /// moved, leaving exactly the target schema.
    pub cleanup: Vec<String>,
    /// Human-readable caveats (skipped columns, manual steps).
    pub notes: Vec<String>,
}

impl MigrationScript {
    /// True if the script does nothing at all — no data moves and (by
    /// construction, see [`render_migration_plan`]) no schema changes.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty() && self.preamble.is_empty() && self.cleanup.is_empty()
    }
}

/// One `INSERT ... SELECT` in the making: a set of joinable source tables
/// and the target columns they fill.
#[derive(Debug)]
struct Group {
    /// Source tables, in join order; the first is the anchor whose key seeds
    /// skolem expressions.
    tables: Vec<TableName>,
    /// `(target column, select expression source)` pairs.
    assignments: Vec<(QualifiedAttr, QualifiedAttr)>,
}

impl Group {
    fn has_target_column(&self, column: &QualifiedAttr) -> bool {
        self.assignments.iter().any(|(t, _)| t == column)
    }
}

/// The key column used to derive surrogate identifiers for rows of `table`:
/// the declared primary key if integer-typed, else — only when no primary
/// key is declared — the first integer column. Skolem expressions are
/// arithmetic (`key * N + tag`), so a [`DataType::Id`] column — emitted as
/// UUID in DDL — cannot seed them; and when a non-integer primary key is
/// the declared row identity, substituting an arbitrary integer column
/// would merge distinct rows onto one surrogate key, so the table yields
/// no seed at all.
fn skolem_key(table: &TableDef) -> Option<QualifiedAttr> {
    if let Some(pk) = &table.primary_key {
        let pk_is_int = table
            .columns
            .iter()
            .any(|c| &c.name == pk && c.ty == DataType::Int);
        return pk_is_int.then(|| QualifiedAttr {
            table: table.name,
            attr: pk.clone(),
        });
    }
    table
        .columns
        .iter()
        .find(|c| c.ty == DataType::Int)
        .map(|c| QualifiedAttr {
            table: table.name,
            attr: c.name.clone(),
        })
}

/// The target columns paired with `column` by a join attribute of the
/// target schema (the other ends of the links `column` participates in).
fn link_partners(target_schema: &Schema, column: &QualifiedAttr) -> Vec<QualifiedAttr> {
    let mut partners = Vec::new();
    for other in target_schema.tables() {
        if other.name == column.table {
            continue;
        }
        for (a, b) in target_schema.join_attrs(&column.table, &other.name) {
            if &a == column {
                partners.push(b);
            } else if &b == column {
                partners.push(a);
            }
        }
    }
    partners
}

/// Picks the skolem seed for the link column `column` of `group`: a source
/// key attribute readable from the group's FROM clause, plus a tag, such
/// that **both ends of the link compute the same value** for rows that
/// belong together.
///
/// Three cases, tried in order against each partner group:
///
/// 1. the two groups share a source table → both sides seed from that
///    table's key (identical expression);
/// 2. the groups are joined in the source schema → each side uses its own
///    end of the (canonically chosen) join attribute pair, tagged with the
///    smaller source-table index; the ends are equal on joined rows;
/// 3. no relation → fall back to this group's own anchor key (the linked
///    rows come from unrelated row sets, so no cross-table agreement is
///    possible anyway).
///
/// Returns `None` when no integer-typed key is available to build an
/// arithmetic skolem expression from.
fn link_skolem(
    source_schema: &Schema,
    target_schema: &Schema,
    table_groups: &[(TableName, Vec<Group>)],
    group: &Group,
    column: &QualifiedAttr,
) -> Option<(QualifiedAttr, usize)> {
    let source_index = |t: &TableName| {
        source_schema
            .tables()
            .iter()
            .position(|x| &x.name == t)
            .unwrap_or(usize::MAX)
    };
    let int_key =
        |attr: &QualifiedAttr| matches!(source_schema.attr_type(attr), Some(DataType::Int));

    for partner in link_partners(target_schema, column) {
        let Some((_, partner_groups)) = table_groups.iter().find(|(t, _)| t == &partner.table)
        else {
            continue;
        };
        for partner_group in partner_groups {
            // Case 1: a shared source table seeds both sides identically.
            let mut shared: Vec<&TableName> = group
                .tables
                .iter()
                .filter(|t| partner_group.tables.contains(t))
                .collect();
            shared.sort_by_key(|t| source_index(t));
            if let Some(&shared) = shared.first() {
                if let Some(key) = source_schema.table(shared).and_then(skolem_key) {
                    return Some((key, source_index(shared)));
                }
            }
            // Case 2: a source join pair between the groups is equal on
            // linked rows. Normalize the pair by source-table index so both
            // sides pick the same one, then use our end of it.
            let mut candidates: Vec<(usize, usize, QualifiedAttr, QualifiedAttr)> = Vec::new();
            for ours in &group.tables {
                for theirs in &partner_group.tables {
                    if ours == theirs {
                        continue;
                    }
                    for (a, b) in source_schema.join_attrs(ours, theirs) {
                        if int_key(&a) && int_key(&b) {
                            let (ia, ib) = (source_index(ours), source_index(theirs));
                            let (first, second) = if ia <= ib { (a, b) } else { (b, a) };
                            candidates.push((ia.min(ib), ia.max(ib), first, second));
                        }
                    }
                }
            }
            candidates.sort();
            if let Some((tag, _, first, second)) = candidates.into_iter().next() {
                let ours = if group.tables.contains(&first.table) {
                    first
                } else {
                    second
                };
                return Some((ours, tag));
            }
        }
    }
    // Case 3: unrelated row sets; seed from this group's own anchor.
    // `skolem_key` only yields integer columns, so no re-check is needed.
    let key = source_schema.table(&group.tables[0]).and_then(skolem_key)?;
    Some((key, source_index(&group.tables[0])))
}

/// Orders target tables so that foreign-key referenced tables are emitted
/// before their referrers (Kahn's algorithm; cycles fall back to declaration
/// order).
fn fk_order(target_schema: &Schema) -> Vec<TableName> {
    let tables: Vec<TableName> = target_schema.tables().iter().map(|t| t.name).collect();
    let mut emitted: Vec<TableName> = Vec::new();
    let mut remaining = tables.clone();
    while !remaining.is_empty() {
        let position = remaining.iter().position(|table| {
            // A table is ready when every table it references is emitted.
            target_schema
                .foreign_keys()
                .iter()
                .filter(|fk| &fk.from.table == table && fk.to.table != fk.from.table)
                .all(|fk| emitted.contains(&fk.to.table) || !remaining.contains(&fk.to.table))
        });
        match position {
            Some(p) => {
                let table = remaining.remove(p);
                emitted.push(table);
            }
            None => {
                // Foreign-key cycle: keep declaration order for the rest.
                emitted.append(&mut remaining);
            }
        }
    }
    emitted
}

/// Builds the data-migration plan for a refactoring described by `phi`.
pub fn migration_plan(
    source_schema: &Schema,
    target_schema: &Schema,
    phi: &ValueCorrespondence,
) -> MigrationPlan {
    let mut notes = Vec::new();
    let source_table_count = source_schema.table_count().max(1);

    // Pass 1: plan the INSERT groups of every target table, so link columns
    // can consult their partner table's groups during fill selection.
    let mut table_groups: Vec<(TableName, Vec<Group>)> = Vec::new();
    for target_name in fk_order(target_schema) {
        let target_table = target_schema
            .table(&target_name)
            .expect("fk_order yields schema tables");

        // Collect the sources feeding each column of this target table, in
        // column order (phi maps source -> targets; invert it here).
        let mut column_sources: Vec<(QualifiedAttr, Vec<QualifiedAttr>)> = target_table
            .columns
            .iter()
            .map(|c| {
                (
                    QualifiedAttr {
                        table: target_name,
                        attr: c.name.clone(),
                    },
                    Vec::new(),
                )
            })
            .collect();
        for (source, images) in phi.iter() {
            for image in images {
                if let Some((_, sources)) = column_sources.iter_mut().find(|(c, _)| c == image) {
                    sources.push(source.clone());
                }
            }
        }

        // Partition the (column, source) pairs into joinable groups.
        let mut groups: Vec<Group> = Vec::new();
        for (column, sources) in &column_sources {
            for source in sources {
                let placed = groups.iter_mut().find(|g| {
                    !g.has_target_column(column)
                        && (g.tables.contains(&source.table)
                            || g.tables
                                .iter()
                                .any(|t| source_schema.joinable(t, &source.table)))
                });
                match placed {
                    Some(group) => {
                        if !group.tables.contains(&source.table) {
                            group.tables.push(source.table);
                        }
                        group.assignments.push((column.clone(), source.clone()));
                    }
                    None => groups.push(Group {
                        tables: vec![source.table],
                        assignments: vec![(column.clone(), source.clone())],
                    }),
                }
            }
        }
        if groups.is_empty() && !target_table.columns.is_empty() {
            notes.push(format!(
                "table {target_name} receives no migrated data (no source column maps to it)"
            ));
        }
        table_groups.push((target_name, groups));
    }

    // Pass 2: decide the column fills and join chains of every group.
    let mut inserts = Vec::new();
    for (target_name, groups) in &table_groups {
        let target_table = target_schema
            .table(target_name)
            .expect("pass 1 yields schema tables");
        let group_count = groups.len();
        for group in groups {
            // Columns: the group's assignments plus skolem-filled link
            // columns, in target column order.
            let mut columns = Vec::new();
            let mut skipped = Vec::new();
            for column_def in &target_table.columns {
                let column = QualifiedAttr {
                    table: *target_name,
                    attr: column_def.name.clone(),
                };
                if let Some((_, source)) = group.assignments.iter().find(|(c, _)| c == &column) {
                    columns.push((column, ColumnFill::Source(source.clone())));
                } else if column_def.ty == DataType::Id
                    && !link_partners(target_schema, &column).is_empty()
                {
                    match link_skolem(source_schema, target_schema, &table_groups, group, &column) {
                        Some((key, tag)) => {
                            notes.push(format!(
                                "{column} is a fresh surrogate key: filled with the skolem \
                                 expression {key} * {source_table_count} + {tag} so linked \
                                 rows agree across target tables"
                            ));
                            columns.push((
                                column,
                                ColumnFill::Skolem {
                                    key,
                                    factor: source_table_count,
                                    tag,
                                },
                            ));
                        }
                        None => {
                            skipped.push(column.attr.to_string());
                        }
                    }
                } else if !group.has_target_column(&column) {
                    skipped.push(column.attr.to_string());
                }
            }
            if !skipped.is_empty() && group_count == 1 {
                notes.push(format!(
                    "columns {} of {target_name} are not migrated (left to defaults)",
                    skipped.join(", ")
                ));
            }

            // Join chain: anchor joined to the remaining group tables.
            let mut joins = Vec::new();
            let mut joined: BTreeSet<TableName> = BTreeSet::new();
            joined.insert(group.tables[0]);
            for table in &group.tables[1..] {
                let partner = joined
                    .iter()
                    .find(|t| source_schema.joinable(t, table))
                    .copied();
                joins.push(
                    partner.map(|partner| source_schema.join_attrs(&partner, table)[0].clone()),
                );
                joined.insert(*table);
            }

            inserts.push(PlannedInsert {
                target: *target_name,
                tables: group.tables.clone(),
                joins,
                columns,
            });
        }
    }

    // Staging renames for source tables colliding with a target table, and
    // drops for source tables whose rows actually moved. A table no insert
    // reads holds data the migration never copied anywhere — dropping it
    // would destroy that data, so it is left in place (under its staging
    // name when it collides) with a note telling the DBA to deal with it.
    let read_tables: BTreeSet<TableName> = inserts
        .iter()
        .flat_map(|insert| insert.tables.iter().copied())
        .collect();
    let mut taken: BTreeSet<String> = source_schema
        .tables()
        .iter()
        .chain(target_schema.tables())
        .map(|t| t.name.as_str().to_string())
        .collect();
    let mut renames = Vec::new();
    let mut dropped_sources = Vec::new();
    for source_table in source_schema.tables() {
        let read = read_tables.contains(&source_table.name);
        if target_schema.table(&source_table.name).is_some() {
            let mut staged = format!("legacy_{}", source_table.name);
            while taken.contains(&staged) {
                staged.insert(0, '_');
            }
            taken.insert(staged.clone());
            if !read {
                notes.push(format!(
                    "source table {} is staged as {staged} but NOT dropped: the migration \
                     moves none of its rows, so dropping it would destroy data",
                    source_table.name
                ));
            }
            renames.push(StagedRename {
                table: source_table.name,
                staged,
                drop_after: read,
            });
        } else if read {
            dropped_sources.push(source_table.name);
            notes.push(format!(
                "source table {} is dropped after migration (absent from the target schema)",
                source_table.name
            ));
        } else {
            notes.push(format!(
                "source table {} is NOT dropped: the migration moves none of its rows; \
                 drop it manually once its data is dealt with",
                source_table.name
            ));
        }
    }

    MigrationPlan {
        inserts,
        renames,
        dropped_sources,
        notes,
    }
}

/// Generates the executable data-migration script for a refactoring
/// described by `phi`: staging renames and target DDL, the data moves, and
/// the cleanup drops (see [`MigrationScript`]).
pub fn migration_script(
    source_schema: &Schema,
    target_schema: &Schema,
    phi: &ValueCorrespondence,
    dialect: &dyn Dialect,
) -> MigrationScript {
    let plan = migration_plan(source_schema, target_schema, phi);
    render_migration_plan(&plan, target_schema, dialect)
}

/// Renders a [`MigrationPlan`] as SQL statements in the given dialect.
pub fn render_migration_plan(
    plan: &MigrationPlan,
    target_schema: &Schema,
    dialect: &dyn Dialect,
) -> MigrationScript {
    // A plan with no data moves renders as a genuinely empty script: a
    // document announcing "nothing to migrate" must not smuggle in schema
    // mutations (renaming production tables, creating empty targets).
    if plan.inserts.is_empty() {
        let mut notes = plan.notes.clone();
        notes.push(
            "no data moves were planned; schema changes are not emitted — apply the \
             target DDL manually once the correspondence is resolved"
                .to_string(),
        );
        return MigrationScript {
            preamble: Vec::new(),
            statements: Vec::new(),
            cleanup: Vec::new(),
            notes,
        };
    }

    // A source attribute rendered against the staging name of its table.
    let attr = |a: &QualifiedAttr| {
        format!(
            "{}.{}",
            dialect.ident(plan.effective_name(&a.table)),
            dialect.ident(a.attr.as_str())
        )
    };

    let mut preamble = Vec::new();
    for rename in &plan.renames {
        preamble.push(format!(
            "ALTER TABLE {} RENAME TO {};",
            dialect.ident(rename.table.as_str()),
            dialect.ident(&rename.staged)
        ));
    }
    for statement in schema_to_ddl(target_schema, dialect).split_inclusive(");\n") {
        let statement = statement.trim();
        if !statement.is_empty() {
            preamble.push(statement.to_string());
        }
    }

    let mut statements = Vec::new();
    for insert in &plan.inserts {
        let mut columns = Vec::new();
        let mut exprs = Vec::new();
        let mut writes_id_column = false;
        for (column, fill) in &insert.columns {
            columns.push(dialect.ident(column.attr.as_str()));
            writes_id_column |= target_schema.attr_type(column) == Some(DataType::Id);
            exprs.push(match fill {
                ColumnFill::Source(source) => attr(source),
                ColumnFill::Skolem { key, factor, tag } => {
                    format!("{} * {factor} + {tag}", attr(key))
                }
            });
        }

        // FROM clause: anchor joined to the remaining insert tables.
        let mut from = dialect.ident(plan.effective_name(&insert.tables[0]));
        for (table, join) in insert.tables[1..].iter().zip(&insert.joins) {
            match join {
                Some((a, b)) => {
                    let _ = write!(
                        from,
                        " JOIN {} ON {} = {}",
                        dialect.ident(plan.effective_name(table)),
                        attr(a),
                        attr(b)
                    );
                }
                None => {
                    // Grouping only admits joinable tables, so this is
                    // unreachable; degrade to a cross join defensively.
                    let _ = write!(from, ", {}", dialect.ident(plan.effective_name(table)));
                }
            }
        }

        let overriding = if writes_id_column {
            dialect.insert_overriding_clause()
        } else {
            ""
        };
        statements.push(format!(
            "INSERT INTO {} ({}) {overriding}SELECT {} FROM {};",
            dialect.ident(insert.target.as_str()),
            columns.join(", "),
            exprs.join(", "),
            from
        ));
    }

    let mut cleanup = Vec::new();
    for rename in &plan.renames {
        if rename.drop_after {
            cleanup.push(format!("DROP TABLE {};", dialect.ident(&rename.staged)));
        }
    }
    for table in &plan.dropped_sources {
        cleanup.push(format!("DROP TABLE {};", dialect.ident(table.as_str())));
    }

    MigrationScript {
        preamble,
        statements,
        cleanup,
        notes: plan.notes.clone(),
    }
}

/// Renders a migration script as one SQL document: schema preparation, the
/// data moves wrapped in a transaction, then cleanup.
pub fn render_migration_script(script: &MigrationScript, dialect: &dyn Dialect) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- data migration script ({} dialect)", dialect.name());
    for note in &script.notes {
        let _ = writeln!(out, "-- note: {note}");
    }
    for statement in &script.preamble {
        let _ = writeln!(out, "{statement}");
    }
    if script.is_empty() {
        let _ = writeln!(out, "-- nothing to migrate");
    } else {
        let _ = writeln!(out, "BEGIN;");
        for statement in &script.statements {
            let _ = writeln!(out, "{statement}");
        }
        let _ = writeln!(out, "COMMIT;");
    }
    for statement in &script.cleanup {
        let _ = writeln!(out, "{statement}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{Ansi, Postgres};

    fn qa(t: &str, a: &str) -> QualifiedAttr {
        QualifiedAttr::new(t, a)
    }

    /// The paper's motivating example: pictures move into a shared table.
    /// All three source tables collide with target tables, so the data
    /// moves read the staged `legacy_*` names.
    #[test]
    fn motivating_example_unions_pictures_and_links_them() {
        let source = Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, IPic: binary)\n\
             TA(TaId: int, TName: string, TPic: binary)",
        )
        .unwrap();
        let target = Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, PicId: id)\n\
             TA(TaId: int, TName: string, PicId: id)\n\
             Picture(PicId: id, Pic: binary)",
        )
        .unwrap();
        let mut phi = ValueCorrespondence::new();
        for (table, attr) in [
            ("Class", "ClassId"),
            ("Class", "InstId"),
            ("Class", "TaId"),
            ("Instructor", "InstId"),
            ("Instructor", "IName"),
            ("TA", "TaId"),
            ("TA", "TName"),
        ] {
            phi.add(qa(table, attr), qa(table, attr));
        }
        phi.add(qa("Instructor", "IPic"), qa("Picture", "Pic"));
        phi.add(qa("TA", "TPic"), qa("Picture", "Pic"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        // Two picture sources -> two INSERTs into Picture; one INSERT for
        // each of the other three tables.
        assert_eq!(script.statements.len(), 5, "{:#?}", script.statements);
        let picture: Vec<&String> = script
            .statements
            .iter()
            .filter(|s| s.starts_with("INSERT INTO Picture"))
            .collect();
        assert_eq!(picture.len(), 2);
        // Instructor pictures and instructor rows share the skolem key, so
        // the link survives migration (source table count 3, Instructor is
        // source table index 1, TA index 2).
        assert!(
            picture[0].contains("legacy_Instructor.InstId * 3 + 1"),
            "{}",
            picture[0]
        );
        assert!(
            picture[1].contains("legacy_TA.TaId * 3 + 2"),
            "{}",
            picture[1]
        );
        let instructor = script
            .statements
            .iter()
            .find(|s| s.starts_with("INSERT INTO Instructor"))
            .unwrap();
        assert!(
            instructor.contains("legacy_Instructor.InstId * 3 + 1"),
            "{instructor}"
        );
        assert!(
            instructor.contains("(InstId, IName, PicId)"),
            "{instructor}"
        );
        assert!(
            instructor.contains("FROM legacy_Instructor;"),
            "{instructor}"
        );
        // All three colliding source tables are staged first and dropped at
        // the end; the target tables are created in between.
        assert!(
            script
                .preamble
                .contains(&"ALTER TABLE Instructor RENAME TO legacy_Instructor;".to_string()),
            "{:#?}",
            script.preamble
        );
        assert!(
            script
                .preamble
                .iter()
                .any(|s| s.starts_with("CREATE TABLE Picture")),
            "{:#?}",
            script.preamble
        );
        assert_eq!(
            script.cleanup,
            vec![
                "DROP TABLE legacy_Class;".to_string(),
                "DROP TABLE legacy_Instructor;".to_string(),
                "DROP TABLE legacy_TA;".to_string(),
            ]
        );
    }

    #[test]
    fn joinable_sources_merge_into_one_select() {
        let source = Schema::parse(
            "Person(pid: int, name: string)\n\
             Address(pid: int, city: string)",
        )
        .unwrap();
        let target = Schema::parse("Contact(pid: int, name: string, city: string)").unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("Person", "pid"), qa("Contact", "pid"));
        phi.add(qa("Person", "name"), qa("Contact", "name"));
        phi.add(qa("Address", "city"), qa("Contact", "city"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        assert_eq!(script.statements.len(), 1, "{:#?}", script.statements);
        assert_eq!(
            script.statements[0],
            "INSERT INTO Contact (pid, name, city) SELECT Person.pid, Person.name, \
             Address.city FROM Person JOIN Address ON Person.pid = Address.pid;"
        );
        // No collisions: nothing is staged, and the source tables are
        // dropped once their data has moved.
        assert!(script.preamble.iter().all(|s| !s.starts_with("ALTER")));
        assert_eq!(
            script.cleanup,
            vec![
                "DROP TABLE Person;".to_string(),
                "DROP TABLE Address;".to_string(),
            ]
        );
    }

    #[test]
    fn fk_referenced_tables_are_filled_first() {
        let source = Schema::parse("U(uid: int, uname: string, grp: string)").unwrap();
        let mut target = Schema::parse(
            "Account(uid: int, grp_id: id, uname: string)\n\
             Grp(grp_id: id, gname: string)",
        )
        .unwrap();
        target
            .add_foreign_key(qa("Account", "grp_id"), qa("Grp", "grp_id"))
            .unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("U", "uid"), qa("Account", "uid"));
        phi.add(qa("U", "uname"), qa("Account", "uname"));
        phi.add(qa("U", "grp"), qa("Grp", "gname"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        assert_eq!(script.statements.len(), 2);
        assert!(script.statements[0].starts_with("INSERT INTO Grp"));
        assert!(script.statements[1].starts_with("INSERT INTO Account"));
        // Both sides of the link carry the same skolem expression.
        assert!(script.statements[0].contains("U.uid * 1 + 0"));
        assert!(script.statements[1].contains("U.uid * 1 + 0"));
    }

    /// Regression: when the referencing and referenced target tables draw
    /// from *different but joinable* source tables, both sides of the link
    /// must seed their surrogate key from the shared join attribute (with a
    /// common tag), or every foreign key in the migrated data dangles.
    #[test]
    fn linked_tables_with_different_anchors_share_the_join_key() {
        let source = Schema::parse(
            "Person(pid: int, name: string)\n\
             Address(pid: int, city: string)",
        )
        .unwrap();
        let mut target = Schema::parse(
            "Account(pid: int, name: string, addr_id: id)\n\
             Addr(addr_id: id, city: string)",
        )
        .unwrap();
        target
            .add_foreign_key(qa("Account", "addr_id"), qa("Addr", "addr_id"))
            .unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("Person", "pid"), qa("Account", "pid"));
        phi.add(qa("Person", "name"), qa("Account", "name"));
        phi.add(qa("Address", "city"), qa("Addr", "city"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        assert_eq!(script.statements.len(), 2, "{:#?}", script.statements);
        // Account's group anchors at Person, Addr's at Address — but the
        // link expressions must coincide on joined rows: each side uses its
        // own end of Person.pid = Address.pid with the same tag.
        let addr = script
            .statements
            .iter()
            .find(|s| s.starts_with("INSERT INTO Addr "))
            .unwrap();
        let account = script
            .statements
            .iter()
            .find(|s| s.starts_with("INSERT INTO Account "))
            .unwrap();
        assert!(addr.contains("Address.pid * 2 + 0"), "{addr}");
        assert!(account.contains("Person.pid * 2 + 0"), "{account}");
    }

    /// Regression: a source keyed only by `id` (UUID) columns must not seed
    /// the skolem arithmetic — `uuid * N + tag` is invalid SQL in most
    /// engines. The link column is skipped and noted instead.
    #[test]
    fn uuid_only_keys_skip_skolem_arithmetic() {
        let source = Schema::parse(
            "Person(pid: id, name: string)\n\
             Address(pid: id, city: string)",
        )
        .unwrap();
        let mut target = Schema::parse(
            "Account(name: string, addr_id: id)\n\
             Addr(addr_id: id, city: string)",
        )
        .unwrap();
        target
            .add_foreign_key(qa("Account", "addr_id"), qa("Addr", "addr_id"))
            .unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("Person", "name"), qa("Account", "name"));
        phi.add(qa("Address", "city"), qa("Addr", "city"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        assert!(
            script.statements.iter().all(|s| !s.contains('*')),
            "{:#?}",
            script.statements
        );
        assert!(
            script
                .notes
                .iter()
                .any(|n| n.contains("addr_id") && n.contains("not migrated")),
            "{:#?}",
            script.notes
        );
    }

    /// Regression: a declared non-integer primary key is the row identity;
    /// seeding the skolem expression from some other integer column (here
    /// `age`, not unique) would merge distinct rows onto one surrogate key.
    #[test]
    fn non_integer_primary_key_does_not_seed_from_arbitrary_int_column() {
        let mut source = Schema::new();
        source
            .add_table(
                TableDef::new(
                    "Person",
                    vec![("name", DataType::String), ("age", DataType::Int)],
                )
                .with_primary_key("name"),
            )
            .unwrap();
        let mut target = Schema::parse(
            "Account(name: string, addr_id: id)\n\
             Addr(addr_id: id, age: int)",
        )
        .unwrap();
        target
            .add_foreign_key(qa("Account", "addr_id"), qa("Addr", "addr_id"))
            .unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("Person", "name"), qa("Account", "name"));
        phi.add(qa("Person", "age"), qa("Addr", "age"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        assert!(
            script.statements.iter().all(|s| !s.contains('*')),
            "{:#?}",
            script.statements
        );
        assert!(
            script
                .notes
                .iter()
                .any(|n| n.contains("addr_id") && n.contains("not migrated")),
            "{:#?}",
            script.notes
        );
    }

    #[test]
    fn unmapped_tables_and_columns_are_noted() {
        let source = Schema::parse("A(x: int)").unwrap();
        let target = Schema::parse("B(x: int, extra: string)\nEmptyT(y: int)").unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("A", "x"), qa("B", "x"));
        let script = migration_script(&source, &target, &phi, &Ansi);
        assert_eq!(script.statements.len(), 1);
        assert!(script
            .notes
            .iter()
            .any(|n| n.contains("extra") && n.contains("not migrated")));
        assert!(script.notes.iter().any(|n| n.contains("EmptyT")));
        let rendered = render_migration_script(&script, &Ansi);
        assert!(rendered.contains("BEGIN;"));
        assert!(rendered.contains("COMMIT;"));
        assert!(rendered.contains("-- note:"));
        assert!(rendered.contains("CREATE TABLE B"), "{rendered}");
        assert!(rendered.contains("DROP TABLE A;"), "{rendered}");
    }

    #[test]
    fn empty_correspondence_produces_empty_script() {
        let source = Schema::parse("A(x: int)").unwrap();
        let target = Schema::parse("B(y: int)").unwrap();
        let script = migration_script(&source, &target, &ValueCorrespondence::new(), &Ansi);
        assert!(script.is_empty());
        assert!(script.preamble.is_empty(), "{:#?}", script.preamble);
        assert!(script.cleanup.is_empty(), "{:#?}", script.cleanup);
        let rendered = render_migration_script(&script, &Ansi);
        assert!(rendered.contains("nothing to migrate"));
        // The "nothing to migrate" document must not smuggle in schema
        // mutations.
        assert!(!rendered.contains("CREATE TABLE"), "{rendered}");
        assert!(!rendered.contains("ALTER TABLE"), "{rendered}");
    }

    /// A staging name that is already taken gains underscores until it is
    /// fresh.
    #[test]
    fn staging_names_avoid_existing_tables() {
        let source = Schema::parse("T(x: int)\nlegacy_T(y: int)").unwrap();
        let target = Schema::parse("T(x: int)").unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("T", "x"), qa("T", "x"));
        let plan = migration_plan(&source, &target, &phi);
        assert_eq!(plan.renames.len(), 1);
        assert_eq!(plan.renames[0].staged, "_legacy_T");
        assert!(plan.renames[0].drop_after);
        assert_eq!(plan.effective_name(&"T".into()), "_legacy_T");
    }

    /// Regression (review finding): a source table the migration never
    /// reads must not be dropped — its rows were copied nowhere, so the
    /// "executable as printed" script would destroy data.
    #[test]
    fn unread_source_tables_are_never_dropped() {
        // `Orphan` feeds nothing; `T` collides with the target but is also
        // unread (empty phi for it would be odd, so map A only).
        let source = Schema::parse("A(x: int)\nOrphan(secret: string)\nT(y: int)").unwrap();
        let target = Schema::parse("B(x: int)\nT(z: int)").unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("A", "x"), qa("B", "x"));

        let script = migration_script(&source, &target, &phi, &Ansi);
        // A moved rows -> dropped. Orphan and the staged legacy_T did not
        // -> kept, with notes.
        assert_eq!(script.cleanup, vec!["DROP TABLE A;".to_string()]);
        assert!(
            script
                .preamble
                .contains(&"ALTER TABLE T RENAME TO legacy_T;".to_string()),
            "{:#?}",
            script.preamble
        );
        assert!(
            script
                .notes
                .iter()
                .any(|n| n.contains("Orphan") && n.contains("NOT dropped")),
            "{:#?}",
            script.notes
        );
        assert!(
            script
                .notes
                .iter()
                .any(|n| n.contains("legacy_T") && n.contains("NOT dropped")),
            "{:#?}",
            script.notes
        );

        // The fully-empty correspondence moves nothing and drops nothing.
        let empty = migration_script(&source, &target, &ValueCorrespondence::new(), &Ansi);
        assert!(empty.is_empty());
        assert!(empty.cleanup.is_empty(), "{:#?}", empty.cleanup);
    }

    /// Postgres inserts into identity columns carry `OVERRIDING SYSTEM
    /// VALUE`, because the emitted DDL declares them `GENERATED ALWAYS`.
    #[test]
    fn postgres_identity_inserts_override_system_values() {
        let source = Schema::parse("U(uid: int, uname: string, grp: string)").unwrap();
        let mut target = Schema::parse(
            "Account(uid: int, grp_id: id, uname: string)\n\
             Grp(grp_id: id, gname: string)",
        )
        .unwrap();
        target
            .add_foreign_key(qa("Account", "grp_id"), qa("Grp", "grp_id"))
            .unwrap();
        let mut phi = ValueCorrespondence::new();
        phi.add(qa("U", "uid"), qa("Account", "uid"));
        phi.add(qa("U", "uname"), qa("Account", "uname"));
        phi.add(qa("U", "grp"), qa("Grp", "gname"));

        let script = migration_script(&source, &target, &phi, &Postgres);
        assert!(
            script
                .statements
                .iter()
                .all(|s| s.contains("OVERRIDING SYSTEM VALUE SELECT")),
            "{:#?}",
            script.statements
        );
        assert!(
            script
                .preamble
                .iter()
                .any(|s| s.contains("GENERATED ALWAYS AS IDENTITY")),
            "{:#?}",
            script.preamble
        );
    }
}
