//! In-memory database instances and intermediate relations.
//!
//! # Structural sharing
//!
//! [`Instance`] is a *copy-on-write value*: each table's rows live behind an
//! [`Arc`], so `Instance::clone()` is `O(tables)` pointer bumps and two
//! clones share every row until one of them writes. The first mutable access
//! to a table ([`Instance::rows_mut`]) un-shares just that table via
//! [`Arc::make_mut`]; other tables stay shared. This makes the bounded
//! testing engine's snapshots (prefix-cache entries, parallel walk roots)
//! nearly free, and it is what the undo-log walk in [`crate::equiv`] relies
//! on: a walker clones a cached prefix state cheaply, mutates its private
//! copy in place, and can never perturb the cached original because every
//! write path goes through `rows_mut`.
//!
//! Sharing invariants:
//!
//! * Rows are only reachable through [`Instance`] methods; no API hands out
//!   an `Arc` or a `&mut` that bypasses the copy-on-write gate.
//! * [`Value`] is `Copy` (strings and blobs are interned symbols), so
//!   un-sharing a table is a flat memcpy of its tuples — no deep payload
//!   clones, and shared rows never alias mutable heap data.
//! * Holding an `Instance` clone (or anything cloned from one — prefix-cache
//!   states, oracle outcomes, speculation snapshots) keeps the shared rows
//!   alive but can never observe a sibling's writes.

use std::fmt;
use std::sync::Arc;

use crate::schema::{QualifiedAttr, Schema, TableName};
use crate::value::Value;

/// A tuple: an ordered list of values matching a table's column order.
pub type Tuple = Vec<Value>;

/// A database instance: a mapping from table names to lists (multisets) of
/// tuples, as in Definition A.4 of the paper.
///
/// Cloning is cheap (structural sharing — see the module docs); mutation
/// copies only the touched table, and only when it is actually shared.
///
/// The tables are kept in name order, so iteration, `Display` and equality
/// see them sorted by name. A table is found by its interned symbol, with
/// no string comparison: bounded testing looks tables up at every query and
/// update it runs, and an instance holds a handful of tables, so scanning
/// them for an equal symbol costs less than a search that orders names.
/// Only adding a table that is not there yet compares names.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Instance {
    tables: Vec<(TableName, Arc<Vec<Tuple>>)>,
}

/// Approximate heap bytes of one table's rows, exploiting that every row of
/// a table has the same arity.
fn table_bytes(rows: &[Tuple]) -> usize {
    let width = rows.first().map(Vec::len).unwrap_or(0);
    rows.len() * (std::mem::size_of::<Tuple>() + width * std::mem::size_of::<Value>())
}

impl Instance {
    /// Creates the empty instance `ϵ` for the given schema: every table is
    /// present with zero tuples.
    pub fn empty(schema: &Schema) -> Instance {
        let mut tables: Vec<(TableName, Arc<Vec<Tuple>>)> = schema
            .tables()
            .iter()
            .map(|table| (table.name, Arc::default()))
            .collect();
        tables.sort_by_key(|(name, _)| *name);
        tables.dedup_by(|(a, _), (b, _)| a == b);
        Instance { tables }
    }

    /// The table named `table`, found by symbol, and added empty in its
    /// place in name order if it is absent.
    fn table_entry(&mut self, table: &TableName) -> &mut Arc<Vec<Tuple>> {
        let index = match self.tables.iter().position(|(name, _)| name == table) {
            Some(index) => index,
            None => {
                let index = self.tables.partition_point(|(name, _)| name < table);
                self.tables.insert(index, (*table, Arc::default()));
                index
            }
        };
        &mut self.tables[index].1
    }

    /// The tuples currently stored in a table (empty if the table is absent).
    pub fn rows(&self, table: &TableName) -> &[Tuple] {
        self.tables
            .iter()
            .find(|(name, _)| name == table)
            .map_or(&[], |(_, rows)| rows.as_slice())
    }

    /// Mutable access to a table's tuples, creating the table if needed.
    ///
    /// This is the copy-on-write gate: if the table's rows are shared with
    /// another instance (a snapshot, a cached prefix state), they are copied
    /// first, so the sibling can never observe the mutation.
    pub fn rows_mut(&mut self, table: &TableName) -> &mut Vec<Tuple> {
        Arc::make_mut(self.table_entry(table))
    }

    /// Like [`Instance::rows_mut`], but also reports the bytes physically
    /// copied if this access had to un-share the table (`0` when the rows
    /// were already uniquely owned). The bounded-testing engine uses this to
    /// account *actual* copy traffic instead of logical snapshot sizes.
    pub fn rows_mut_tracked(&mut self, table: &TableName) -> (&mut Vec<Tuple>, usize) {
        let rows = self.table_entry(table);
        let copied = if Arc::strong_count(rows) > 1 {
            table_bytes(rows)
        } else {
            0
        };
        (Arc::make_mut(rows), copied)
    }

    /// Replaces a table's rows wholesale, dropping any sharing with other
    /// instances. Used by bulk loaders (e.g. the SQL backend's
    /// `Database::to_instance`) to build tables without a push-per-row
    /// copy-on-write dance.
    pub fn set_rows(&mut self, table: &TableName, rows: Vec<Tuple>) {
        *self.table_entry(table) = Arc::new(rows);
    }

    /// Appends a tuple to a table.
    pub fn insert(&mut self, table: &TableName, tuple: Tuple) {
        self.rows_mut(table).push(tuple);
    }

    /// Total number of tuples across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|(_, rows)| rows.len()).sum()
    }

    /// Returns `true` if no table holds any tuple.
    pub fn is_empty(&self) -> bool {
        self.total_rows() == 0
    }

    /// Iterates over `(table, rows)` pairs in table-name order.
    pub fn iter(&self) -> impl Iterator<Item = (&TableName, &[Tuple])> {
        self.tables
            .iter()
            .map(|(name, rows)| (name, rows.as_slice()))
    }

    /// Approximate heap footprint of the instance's *logical contents* in
    /// bytes: every row counted once, whether or not it is shared with other
    /// instances. `O(tables)`, so it is cheap enough to sample frequently.
    /// With interned values this is the full cost of materializing the
    /// instance from scratch; see [`Instance::heap_bytes_split`] for the
    /// owned/shared breakdown that avoids double-counting structurally
    /// shared rows across clones.
    pub fn approx_heap_bytes(&self) -> usize {
        let (owned, shared) = self.heap_bytes_split();
        owned + shared
    }

    /// The instance's approximate heap bytes split into `(owned, shared)`:
    /// tables whose rows this instance uniquely owns versus tables whose
    /// rows are structurally shared with at least one other instance.
    /// Summing `owned` across a family of clones counts every physical byte
    /// exactly once per owner, where the pre-copy-on-write accounting would
    /// have counted each shared table once per clone.
    pub fn heap_bytes_split(&self) -> (usize, usize) {
        let mut owned = std::mem::size_of::<Instance>();
        let mut shared = 0;
        for (_, rows) in &self.tables {
            let bytes = table_bytes(rows);
            if Arc::strong_count(rows) > 1 {
                shared += bytes;
            } else {
                owned += bytes;
            }
        }
        (owned, shared)
    }

    /// The bytes physically copied by one `Instance::clone()`: the table map
    /// and one `Arc` pointer bump per table — *not* the rows, which are
    /// shared. This is the honest per-snapshot cost the bounded-testing
    /// engine accounts for copy-on-write clones.
    pub fn clone_overhead_bytes(&self) -> usize {
        std::mem::size_of::<Instance>()
            + self.tables.len()
                * (std::mem::size_of::<TableName>() + std::mem::size_of::<Arc<Vec<Tuple>>>())
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (table, rows) in self.iter() {
            writeln!(f, "{table}: {} row(s)", rows.len())?;
            for row in rows {
                f.write_str("  (")?;
                for (i, value) in row.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{value}")?;
                }
                f.write_str(")\n")?;
            }
        }
        Ok(())
    }
}

/// An intermediate relation produced while evaluating a query: a header of
/// qualified column names plus rows.
///
/// Join chains produce relations whose columns are the concatenation of the
/// participating tables' columns, qualified by table name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Column header.
    pub columns: Vec<QualifiedAttr>,
    /// Rows, each with one value per column.
    pub rows: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation with the given header.
    pub fn empty(columns: Vec<QualifiedAttr>) -> Relation {
        Relation {
            columns,
            rows: Vec::new(),
        }
    }

    /// The index of a column in the header, if present.
    pub fn column_index(&self, attr: &QualifiedAttr) -> Option<usize> {
        self.columns.iter().position(|c| c == attr)
    }

    /// Projects the relation onto the given columns (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if a requested column is not part of the header; callers are
    /// expected to validate attribute references first.
    pub fn project(&self, attrs: &[QualifiedAttr]) -> Relation {
        let indices: Vec<usize> = attrs
            .iter()
            .map(|a| {
                self.column_index(a)
                    .unwrap_or_else(|| panic!("column {a} not in relation header"))
            })
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| indices.iter().map(|&i| row[i]).collect())
            .collect();
        Relation {
            columns: attrs.to_vec(),
            rows,
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Returns the rows sorted into a canonical order, for comparing query
    /// results under multiset semantics.
    pub fn canonical_rows(&self) -> Vec<Tuple> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }

    /// Returns `true` if the two relations hold the same multiset of rows
    /// (column *names* are not compared — the paper's equivalence compares
    /// query results positionally).
    pub fn same_rows(&self, other: &Relation) -> bool {
        self.canonical_rows() == other.canonical_rows()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, col) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{col}")?;
        }
        f.write_str("\n")?;
        for row in &self.rows {
            for (i, value) in row.iter().enumerate() {
                if i > 0 {
                    f.write_str(" | ")?;
                }
                write!(f, "{value}")?;
            }
            f.write_str("\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::parse("Car(cid: int, model: string)\nPart(name: string, cid: int)").unwrap()
    }

    #[test]
    fn empty_instance_has_all_tables() {
        let instance = Instance::empty(&schema());
        assert!(instance.is_empty());
        assert_eq!(instance.rows(&"Car".into()).len(), 0);
        assert_eq!(instance.rows(&"Part".into()).len(), 0);
        assert_eq!(instance.iter().count(), 2);
    }

    #[test]
    fn insert_and_count() {
        let mut instance = Instance::empty(&schema());
        instance.insert(&"Car".into(), vec![Value::Int(1), Value::str("M1")]);
        instance.insert(&"Car".into(), vec![Value::Int(2), Value::str("M2")]);
        assert_eq!(instance.total_rows(), 2);
        assert_eq!(instance.rows(&"Car".into()).len(), 2);
    }

    /// Tables iterate, print and compare in name order, whatever order they
    /// were added in.
    #[test]
    fn tables_keep_name_order_whatever_the_insertion_order() {
        let mut backwards = Instance::default();
        backwards.insert(&"Part".into(), vec![Value::str("tire"), Value::Int(1)]);
        backwards.insert(&"Car".into(), vec![Value::Int(1), Value::str("M1")]);
        let mut forwards = Instance::empty(&schema());
        forwards.insert(&"Car".into(), vec![Value::Int(1), Value::str("M1")]);
        forwards.insert(&"Part".into(), vec![Value::str("tire"), Value::Int(1)]);
        let names = |instance: &Instance| -> Vec<&str> {
            instance.iter().map(|(name, _)| name.as_str()).collect()
        };
        assert_eq!(names(&backwards), ["Car", "Part"]);
        assert_eq!(backwards, forwards);
        assert_eq!(backwards.to_string(), forwards.to_string());
        assert!(backwards.to_string().starts_with("Car: 1 row(s)"));
    }

    #[test]
    fn missing_table_yields_empty_rows() {
        let instance = Instance::empty(&schema());
        assert!(instance.rows(&"Ghost".into()).is_empty());
    }

    #[test]
    fn clones_share_rows_until_mutation() {
        let mut original = Instance::empty(&schema());
        original.insert(&"Car".into(), vec![Value::Int(1), Value::str("M1")]);
        let mut clone = original.clone();
        // Shared: the clone sees the rows without owning them.
        let (owned, shared) = clone.heap_bytes_split();
        assert!(shared > 0, "cloned table rows must be shared");
        assert_eq!(owned, std::mem::size_of::<Instance>());
        assert_eq!(
            original.approx_heap_bytes(),
            clone.approx_heap_bytes(),
            "logical size is sharing-independent"
        );

        // Writing through the clone un-shares only the touched table and
        // never perturbs the original.
        clone.insert(&"Car".into(), vec![Value::Int(2), Value::str("M2")]);
        assert_eq!(original.rows(&"Car".into()).len(), 1);
        assert_eq!(clone.rows(&"Car".into()).len(), 2);
        let (owned_after, shared_after) = clone.heap_bytes_split();
        assert_eq!(shared_after, 0, "the only populated table was un-shared");
        assert!(owned_after > owned);
    }

    #[test]
    fn tracked_mutation_reports_copy_on_write_bytes() {
        let mut original = Instance::empty(&schema());
        original.insert(&"Car".into(), vec![Value::Int(1), Value::str("M1")]);
        let mut clone = original.clone();
        let (_, copied) = clone.rows_mut_tracked(&"Car".into());
        assert!(copied > 0, "first write to a shared table copies its rows");
        let (_, copied_again) = clone.rows_mut_tracked(&"Car".into());
        assert_eq!(copied_again, 0, "already-unique rows are not re-copied");
        // The untouched sibling table stays shared with the original.
        let (_, part_copy) = clone.rows_mut_tracked(&"Part".into());
        assert_eq!(part_copy, 0, "empty shared table copies zero bytes");
    }

    #[test]
    fn clone_overhead_is_rows_independent() {
        let mut instance = Instance::empty(&schema());
        let overhead_empty = instance.clone_overhead_bytes();
        for i in 0..100 {
            instance.insert(&"Car".into(), vec![Value::Int(i), Value::str("M")]);
        }
        assert_eq!(
            instance.clone_overhead_bytes(),
            overhead_empty,
            "clone cost depends on table count, not row count"
        );
        assert!(instance.approx_heap_bytes() > instance.clone_overhead_bytes());
    }

    #[test]
    fn set_rows_replaces_wholesale() {
        let mut instance = Instance::empty(&schema());
        instance.set_rows(
            &"Car".into(),
            vec![
                vec![Value::Int(1), Value::str("M1")],
                vec![Value::Int(2), Value::str("M2")],
            ],
        );
        assert_eq!(instance.rows(&"Car".into()).len(), 2);
        let (_, shared) = instance.heap_bytes_split();
        assert_eq!(shared, 0);
    }

    #[test]
    fn relation_project_and_compare() {
        let rel = Relation {
            columns: vec![
                QualifiedAttr::new("Car", "cid"),
                QualifiedAttr::new("Car", "model"),
            ],
            rows: vec![
                vec![Value::Int(2), Value::str("M2")],
                vec![Value::Int(1), Value::str("M1")],
            ],
        };
        let projected = rel.project(&[QualifiedAttr::new("Car", "model")]);
        assert_eq!(projected.columns.len(), 1);
        assert_eq!(projected.rows.len(), 2);

        let same_different_order = Relation {
            columns: rel.columns.clone(),
            rows: vec![
                vec![Value::Int(1), Value::str("M1")],
                vec![Value::Int(2), Value::str("M2")],
            ],
        };
        assert!(rel.same_rows(&same_different_order));

        let different = Relation {
            columns: rel.columns.clone(),
            rows: vec![vec![Value::Int(3), Value::str("M3")]],
        };
        assert!(!rel.same_rows(&different));
    }

    #[test]
    #[should_panic(expected = "not in relation header")]
    fn project_unknown_column_panics() {
        let rel = Relation::empty(vec![QualifiedAttr::new("Car", "cid")]);
        let _ = rel.project(&[QualifiedAttr::new("Car", "model")]);
    }
}
