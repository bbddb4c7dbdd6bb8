//! Relational schemas: tables, typed attributes and foreign keys.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use crate::error::{Error, Result};
use crate::intern::{intern_str, Sym};
use crate::value::DataType;

/// The name of a table.
///
/// A lightweight newtype so table and attribute names cannot be confused
/// with each other or with arbitrary strings. The payload is interned (see
/// [`crate::intern`]), which makes `TableName` a `Copy` type: instance
/// snapshots copy their table names at every node of the bounded-testing
/// search tree, and with an interned name that copy is a `u32` instead of a
/// heap-allocated `String` clone, and finding a table compares symbols.
///
/// Like [`Value`](crate::value::Value), ordering is implemented manually so
/// names compare by *content*, not by interner symbol number — `Instance`
/// iteration order, canonical row order and `Display` output must not
/// depend on interning insertion order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableName(Sym);

impl TableName {
    /// Creates a table name (interning the payload).
    pub fn new(name: impl AsRef<str>) -> TableName {
        TableName(intern_str(name.as_ref()))
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Debug for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Resolve the payload: `TableName(Sym(3))` would be useless in test
        // failures and must never leak into anything user-visible.
        write!(f, "TableName({:?})", self.as_str())
    }
}

impl Ord for TableName {
    fn cmp(&self, other: &TableName) -> Ordering {
        if self.0 == other.0 {
            Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl PartialOrd for TableName {
    fn partial_cmp(&self, other: &TableName) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for TableName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for TableName {
    fn from(s: &str) -> TableName {
        TableName::new(s)
    }
}

impl From<String> for TableName {
    fn from(s: String) -> TableName {
        TableName::new(s)
    }
}

/// The name of a column within a table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrName(pub String);

impl AttrName {
    /// Creates an attribute name.
    pub fn new(name: impl Into<String>) -> AttrName {
        AttrName(name.into())
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for AttrName {
    fn from(s: &str) -> AttrName {
        AttrName::new(s)
    }
}

impl From<String> for AttrName {
    fn from(s: String) -> AttrName {
        AttrName(s)
    }
}

/// A table-qualified attribute `Table.attr`.
///
/// Value correspondences (crate `migrator`) map qualified attributes of the
/// source schema to qualified attributes of the target schema.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QualifiedAttr {
    /// The table the attribute belongs to.
    pub table: TableName,
    /// The attribute name within that table.
    pub attr: AttrName,
}

impl QualifiedAttr {
    /// Creates a qualified attribute from table and column names.
    pub fn new(table: impl Into<TableName>, attr: impl Into<AttrName>) -> QualifiedAttr {
        QualifiedAttr {
            table: table.into(),
            attr: attr.into(),
        }
    }
}

impl fmt::Display for QualifiedAttr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.table, self.attr)
    }
}

/// A single column declaration inside a [`TableDef`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: AttrName,
    /// Column type.
    pub ty: DataType,
}

/// A table definition: an ordered list of typed columns, optionally with a
/// declared primary key.
///
/// When a primary key is declared, inserting a tuple whose key equals an
/// existing row's key *replaces* that row (upsert semantics) — the behaviour
/// of the object-relational mappers the paper's real-world benchmarks are
/// extracted from. Tables without a declared key keep plain multiset insert
/// semantics, as in the paper's formal language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: TableName,
    /// Ordered columns.
    pub columns: Vec<ColumnDef>,
    /// The primary-key column, if declared.
    pub primary_key: Option<AttrName>,
}

impl TableDef {
    /// Creates a table definition from `(column, type)` pairs, without a
    /// primary key.
    pub fn new(
        name: impl Into<TableName>,
        columns: impl IntoIterator<Item = (impl Into<AttrName>, DataType)>,
    ) -> TableDef {
        TableDef {
            name: name.into(),
            columns: columns
                .into_iter()
                .map(|(name, ty)| ColumnDef {
                    name: name.into(),
                    ty,
                })
                .collect(),
            primary_key: None,
        }
    }

    /// Declares `key` as the table's primary key.
    ///
    /// # Panics
    ///
    /// Panics if the column does not exist (table definitions are static
    /// data, so this indicates a bug at the definition site).
    pub fn with_primary_key(mut self, key: impl Into<AttrName>) -> TableDef {
        let key = key.into();
        assert!(
            self.column_index(&key).is_some(),
            "primary key `{key}` is not a column of `{}`",
            self.name
        );
        self.primary_key = Some(key);
        self
    }

    /// The index of the primary-key column, if one is declared.
    pub fn primary_key_index(&self) -> Option<usize> {
        self.primary_key
            .as_ref()
            .and_then(|key| self.column_index(key))
    }

    /// Returns the index of a column, if present.
    pub fn column_index(&self, attr: &AttrName) -> Option<usize> {
        self.columns.iter().position(|c| &c.name == attr)
    }

    /// Returns the type of a column, if present.
    pub fn column_type(&self, attr: &AttrName) -> Option<DataType> {
        self.columns.iter().find(|c| &c.name == attr).map(|c| c.ty)
    }

    /// Returns all column names as qualified attributes.
    pub fn qualified_attrs(&self) -> Vec<QualifiedAttr> {
        self.columns
            .iter()
            .map(|c| QualifiedAttr {
                table: self.name,
                attr: c.name.clone(),
            })
            .collect()
    }
}

/// A foreign-key declaration: `from.attr` references `to.attr`.
///
/// Foreign keys (together with identically named columns) determine which
/// pairs of tables are considered joinable when the synthesizer builds the
/// target join graph (Section 5 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ForeignKey {
    /// Referencing attribute.
    pub from: QualifiedAttr,
    /// Referenced attribute.
    pub to: QualifiedAttr,
}

/// A relational schema: a collection of tables plus foreign keys.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    tables: Vec<TableDef>,
    foreign_keys: Vec<ForeignKey>,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Adds a table to the schema.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Schema`] if the table already exists or declares a
    /// duplicate column.
    pub fn add_table(&mut self, table: TableDef) -> Result<()> {
        if self.tables.iter().any(|t| t.name == table.name) {
            return Err(Error::Schema(format!("duplicate table `{}`", table.name)));
        }
        let mut seen = BTreeMap::new();
        for column in &table.columns {
            if seen.insert(column.name.clone(), ()).is_some() {
                return Err(Error::Schema(format!(
                    "duplicate column `{}` in table `{}`",
                    column.name, table.name
                )));
            }
        }
        self.tables.push(table);
        Ok(())
    }

    /// Declares a foreign key.
    ///
    /// # Errors
    ///
    /// Returns an error if either endpoint does not exist in the schema.
    pub fn add_foreign_key(&mut self, from: QualifiedAttr, to: QualifiedAttr) -> Result<()> {
        for endpoint in [&from, &to] {
            if self.attr_type(endpoint).is_none() {
                return Err(Error::UnknownAttribute(endpoint.to_string()));
            }
        }
        self.foreign_keys.push(ForeignKey { from, to });
        Ok(())
    }

    /// Returns all tables in declaration order.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    /// Returns all declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &TableName) -> Option<&TableDef> {
        self.tables.iter().find(|t| &t.name == name)
    }

    /// Returns the type of a qualified attribute, if it exists.
    pub fn attr_type(&self, attr: &QualifiedAttr) -> Option<DataType> {
        self.table(&attr.table)?.column_type(&attr.attr)
    }

    /// Returns `true` if the qualified attribute exists in this schema.
    pub fn has_attr(&self, attr: &QualifiedAttr) -> bool {
        self.attr_type(attr).is_some()
    }

    /// Returns all qualified attributes of all tables.
    pub fn all_attrs(&self) -> Vec<QualifiedAttr> {
        self.tables
            .iter()
            .flat_map(|t| t.qualified_attrs())
            .collect()
    }

    /// Total number of attributes across all tables (the "Attrs" column of
    /// Table 1 in the paper).
    pub fn attr_count(&self) -> usize {
        self.tables.iter().map(|t| t.columns.len()).sum()
    }

    /// Number of tables (the "Tables" column of Table 1 in the paper).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Resolves a possibly-unqualified attribute name against a set of
    /// candidate tables.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownAttribute`] if the name does not occur in any
    /// candidate table, or if it is ambiguous (occurs in several tables and
    /// was not qualified).
    pub fn resolve_attr(
        &self,
        name: &str,
        candidate_tables: &[TableName],
    ) -> Result<QualifiedAttr> {
        if let Some((table, attr)) = name.split_once('.') {
            let qattr = QualifiedAttr::new(table, attr);
            if self.has_attr(&qattr) {
                return Ok(qattr);
            }
            return Err(Error::UnknownAttribute(name.to_string()));
        }
        let attr = AttrName::new(name);
        let mut matches = Vec::new();
        for table_name in candidate_tables {
            if let Some(table) = self.table(table_name) {
                if table.column_index(&attr).is_some() {
                    matches.push(QualifiedAttr {
                        table: *table_name,
                        attr: attr.clone(),
                    });
                }
            }
        }
        match matches.len() {
            1 => Ok(matches.pop().expect("length checked")),
            0 => Err(Error::UnknownAttribute(name.to_string())),
            _ => Err(Error::UnknownAttribute(format!(
                "ambiguous attribute `{name}`"
            ))),
        }
    }

    /// Returns the attributes on which two tables can be equi-joined.
    ///
    /// Two tables are joinable if they share an identically named column of
    /// compatible type (natural join) or a foreign key links them.
    pub fn join_attrs(
        &self,
        left: &TableName,
        right: &TableName,
    ) -> Vec<(QualifiedAttr, QualifiedAttr)> {
        let mut result = Vec::new();
        let (Some(lt), Some(rt)) = (self.table(left), self.table(right)) else {
            return result;
        };
        for lc in &lt.columns {
            for rc in &rt.columns {
                if lc.name == rc.name && lc.ty.compatible_with(rc.ty) {
                    result.push((
                        QualifiedAttr {
                            table: *left,
                            attr: lc.name.clone(),
                        },
                        QualifiedAttr {
                            table: *right,
                            attr: rc.name.clone(),
                        },
                    ));
                }
            }
        }
        for fk in &self.foreign_keys {
            let fwd = &fk.from.table == left && &fk.to.table == right;
            let bwd = &fk.from.table == right && &fk.to.table == left;
            if fwd {
                let pair = (fk.from.clone(), fk.to.clone());
                if !result.contains(&pair) {
                    result.push(pair);
                }
            } else if bwd {
                let pair = (fk.to.clone(), fk.from.clone());
                if !result.contains(&pair) {
                    result.push(pair);
                }
            }
        }
        result
    }

    /// Returns `true` if two distinct tables can be equi-joined.
    pub fn joinable(&self, left: &TableName, right: &TableName) -> bool {
        left != right && !self.join_attrs(left, right).is_empty()
    }

    /// Parses a schema from a compact textual form:
    ///
    /// ```text
    /// Instructor(InstId: int, IName: string, IPic: binary)
    /// TA(TaId: int, TName: string, TPic: binary)
    /// fk Instructor.InstId -> Class.InstId
    /// ```
    ///
    /// Each line declares either a table or (prefixed with `fk`) a foreign
    /// key. Blank lines and `--` comments are ignored.
    ///
    /// # Errors
    ///
    /// Returns a parse or schema error describing the offending line.
    pub fn parse(text: &str) -> Result<Schema> {
        let mut schema = Schema::new();
        let mut fk_lines = Vec::new();
        for (line_no, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with("--") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("fk ") {
                fk_lines.push((line_no + 1, rest.trim().to_string()));
                continue;
            }
            let table = parse_table_decl(line, line_no + 1)?;
            schema.add_table(table)?;
        }
        for (line_no, decl) in fk_lines {
            let (from, to) = decl.split_once("->").ok_or_else(|| Error::Parse {
                line: line_no,
                column: 1,
                message: "expected `From.attr -> To.attr` in foreign key".to_string(),
            })?;
            let parse_endpoint = |s: &str| -> Result<QualifiedAttr> {
                let (t, a) = s.trim().split_once('.').ok_or_else(|| Error::Parse {
                    line: line_no,
                    column: 1,
                    message: format!("expected qualified attribute, found `{}`", s.trim()),
                })?;
                Ok(QualifiedAttr::new(t.trim(), a.trim()))
            };
            schema.add_foreign_key(parse_endpoint(from)?, parse_endpoint(to)?)?;
        }
        Ok(schema)
    }
}

fn parse_table_decl(line: &str, line_no: usize) -> Result<TableDef> {
    let open = line.find('(').ok_or_else(|| Error::Parse {
        line: line_no,
        column: 1,
        message: "expected `(` in table declaration".to_string(),
    })?;
    if !line.ends_with(')') {
        return Err(Error::Parse {
            line: line_no,
            column: line.len(),
            message: "expected `)` at end of table declaration".to_string(),
        });
    }
    let name = line[..open].trim();
    if name.is_empty() {
        return Err(Error::Parse {
            line: line_no,
            column: 1,
            message: "missing table name".to_string(),
        });
    }
    let body = &line[open + 1..line.len() - 1];
    let mut columns = Vec::new();
    let mut primary_key: Option<String> = None;
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (col, ty) = part.split_once(':').ok_or_else(|| Error::Parse {
            line: line_no,
            column: 1,
            message: format!("expected `name: type` in column declaration, found `{part}`"),
        })?;
        let ty = DataType::from_keyword(ty.trim()).ok_or_else(|| Error::Parse {
            line: line_no,
            column: 1,
            message: format!("unknown type `{}`", ty.trim()),
        })?;
        let mut col = col.trim();
        // A `pk ` prefix marks the primary-key column.
        if let Some(rest) = col.strip_prefix("pk ") {
            let rest = rest.trim();
            if primary_key.is_some() {
                return Err(Error::Parse {
                    line: line_no,
                    column: 1,
                    message: format!("table `{name}` declares more than one primary key"),
                });
            }
            primary_key = Some(rest.to_string());
            col = rest;
        }
        columns.push((col.to_string(), ty));
    }
    let table = TableDef::new(name, columns);
    Ok(match primary_key {
        Some(key) => table.with_primary_key(key),
        None => table,
    })
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for table in &self.tables {
            write!(f, "{}(", table.name)?;
            for (i, col) in table.columns.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                if table.primary_key.as_ref() == Some(&col.name) {
                    f.write_str("pk ")?;
                }
                write!(f, "{}: {}", col.name, col.ty)?;
            }
            writeln!(f, ")")?;
        }
        for fk in &self.foreign_keys {
            writeln!(f, "fk {} -> {}", fk.from, fk.to)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn course_schema() -> Schema {
        Schema::parse(
            "Class(ClassId: int, InstId: int, TaId: int)\n\
             Instructor(InstId: int, IName: string, IPic: binary)\n\
             TA(TaId: int, TName: string, TPic: binary)",
        )
        .unwrap()
    }

    #[test]
    fn parse_course_schema() {
        let schema = course_schema();
        assert_eq!(schema.table_count(), 3);
        assert_eq!(schema.attr_count(), 9);
        assert_eq!(
            schema.attr_type(&QualifiedAttr::new("Instructor", "IPic")),
            Some(DataType::Binary)
        );
        assert_eq!(
            schema.attr_type(&QualifiedAttr::new("Instructor", "Missing")),
            None
        );
    }

    #[test]
    fn duplicate_table_is_rejected() {
        let mut schema = course_schema();
        let result = schema.add_table(TableDef::new("Class", [("X", DataType::Int)]));
        assert!(matches!(result, Err(Error::Schema(_))));
    }

    #[test]
    fn duplicate_column_is_rejected() {
        let mut schema = Schema::new();
        let result = schema.add_table(TableDef::new(
            "T",
            [("a", DataType::Int), ("a", DataType::Int)],
        ));
        assert!(matches!(result, Err(Error::Schema(_))));
    }

    #[test]
    fn natural_join_attrs() {
        let schema = course_schema();
        let attrs = schema.join_attrs(&"Class".into(), &"Instructor".into());
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].0, QualifiedAttr::new("Class", "InstId"));
        assert_eq!(attrs[0].1, QualifiedAttr::new("Instructor", "InstId"));
        assert!(schema.joinable(&"Class".into(), &"TA".into()));
        assert!(!schema.joinable(&"Instructor".into(), &"TA".into()));
    }

    #[test]
    fn foreign_key_makes_tables_joinable() {
        let mut schema = Schema::parse(
            "Picture(PicId: id, Pic: binary)\n\
             Instructor(InstId: int, IName: string, PicRef: id)",
        )
        .unwrap();
        assert!(!schema.joinable(&"Picture".into(), &"Instructor".into()));
        schema
            .add_foreign_key(
                QualifiedAttr::new("Instructor", "PicRef"),
                QualifiedAttr::new("Picture", "PicId"),
            )
            .unwrap();
        assert!(schema.joinable(&"Picture".into(), &"Instructor".into()));
        let attrs = schema.join_attrs(&"Instructor".into(), &"Picture".into());
        assert_eq!(attrs.len(), 1);
    }

    #[test]
    fn foreign_key_unknown_endpoint_is_rejected() {
        let mut schema = course_schema();
        let err = schema.add_foreign_key(
            QualifiedAttr::new("Class", "Nope"),
            QualifiedAttr::new("Instructor", "InstId"),
        );
        assert!(matches!(err, Err(Error::UnknownAttribute(_))));
    }

    #[test]
    fn resolve_unqualified_attr() {
        let schema = course_schema();
        let tables = vec![TableName::new("Instructor"), TableName::new("TA")];
        let resolved = schema.resolve_attr("IName", &tables).unwrap();
        assert_eq!(resolved, QualifiedAttr::new("Instructor", "IName"));
    }

    #[test]
    fn resolve_ambiguous_attr_fails() {
        let schema = course_schema();
        let tables = vec![TableName::new("Class"), TableName::new("Instructor")];
        let err = schema.resolve_attr("InstId", &tables);
        assert!(err.is_err());
    }

    #[test]
    fn resolve_qualified_attr() {
        let schema = course_schema();
        let resolved = schema.resolve_attr("Class.InstId", &[]).unwrap();
        assert_eq!(resolved, QualifiedAttr::new("Class", "InstId"));
    }

    #[test]
    fn parse_with_fk_and_comments() {
        let schema = Schema::parse(
            "-- a comment\n\
             A(x: int, y: string)\n\
             \n\
             B(x: int, z: string)\n\
             fk B.x -> A.x",
        )
        .unwrap();
        assert_eq!(schema.foreign_keys().len(), 1);
        assert!(schema.joinable(&"A".into(), &"B".into()));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let schema = course_schema();
        let reparsed = Schema::parse(&schema.to_string()).unwrap();
        assert_eq!(schema, reparsed);
    }

    #[test]
    fn primary_key_parse_and_display_roundtrip() {
        let schema = Schema::parse("User(pk uid: int, name: string)").unwrap();
        let table = schema.table(&"User".into()).unwrap();
        assert_eq!(table.primary_key, Some(AttrName::new("uid")));
        assert_eq!(table.primary_key_index(), Some(0));
        let reparsed = Schema::parse(&schema.to_string()).unwrap();
        assert_eq!(schema, reparsed);
    }

    #[test]
    fn duplicate_primary_keys_are_rejected() {
        let err = Schema::parse("User(pk uid: int, pk name: string)");
        assert!(matches!(err, Err(Error::Parse { .. })));
    }

    #[test]
    #[should_panic(expected = "is not a column")]
    fn with_primary_key_requires_existing_column() {
        let _ = TableDef::new("T", [("a", DataType::Int)]).with_primary_key("missing");
    }

    #[test]
    fn table_names_are_copy_and_order_by_content() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TableName>();
        // Intern in an order that differs from lexicographic order, so a
        // symbol-number comparison would give the wrong answer.
        let z = TableName::new("zz-tablename-probe");
        let a = TableName::new("aa-tablename-probe");
        assert!(a < z);
        assert_eq!(a, TableName::new("aa-tablename-probe"));
        assert_eq!(format!("{a:?}"), "TableName(\"aa-tablename-probe\")");
    }

    #[test]
    fn parse_errors_report_line() {
        let err = Schema::parse("A(x: int)\nBroken").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
