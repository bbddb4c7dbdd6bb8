//! Where emitted SQL runs: the [`Backend`] trait and its two
//! implementations.
//!
//! [`MemoryBackend`] wraps the in-tree [`engine`](crate::engine) and is
//! always available — CI exercises every migration through it.
//! [`Sqlite3Backend`] shells out to a `sqlite3` binary when one is
//! installed ([`Sqlite3Backend::detect`]), executing the very same script
//! against a real database engine; offline runners simply skip it.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use dbir::{DataType, Instance, Schema, Value};

use crate::engine::{Database, Params};

/// An error from a backend: a message plus the backend that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Which backend failed.
    pub backend: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.backend, self.message)
    }
}

impl std::error::Error for BackendError {}

/// A place where SQL scripts execute and table contents can be read back.
pub trait Backend {
    /// The backend's CLI name (`memory`, `sqlite3`).
    fn name(&self) -> &'static str;

    /// Executes a SQL script (any number of `;`-separated statements).
    ///
    /// # Errors
    ///
    /// Fails when any statement is rejected; the database state is then
    /// unspecified (validation reports the error instead of comparing).
    fn execute_script(&mut self, sql: &str) -> Result<(), BackendError>;

    /// Reads the current contents of `schema`'s tables back as a
    /// [`dbir::Instance`].
    ///
    /// # Errors
    ///
    /// Fails when a schema table is missing or unreadable.
    fn snapshot(&mut self, schema: &Schema) -> Result<Instance, BackendError>;
}

impl std::fmt::Debug for dyn Backend + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Backend({})", self.name())
    }
}

/// The in-tree engine as a backend. Always available.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    database: Database,
}

impl MemoryBackend {
    /// An empty in-memory database.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// Access to the underlying database (for tests and tooling).
    pub fn database(&self) -> &Database {
        &self.database
    }
}

impl Backend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn execute_script(&mut self, sql: &str) -> Result<(), BackendError> {
        self.database
            .execute_script(sql, &Params::none())
            .map(|_| ())
            .map_err(|e| BackendError {
                backend: "memory",
                message: e.to_string(),
            })
    }

    fn snapshot(&mut self, schema: &Schema) -> Result<Instance, BackendError> {
        self.database
            .to_instance(schema)
            .map_err(|message| BackendError {
                backend: "memory",
                message,
            })
    }
}

/// A backend that shells out to the `sqlite3` command-line tool, executing
/// scripts against a real SQLite database file in the system temp
/// directory.
///
/// Snapshots are read back in the CLI's `.mode quote`, which renders every
/// row as comma-separated SQL literals (`NULL`, integers, `'strings'`,
/// `X'blobs'`); each line is then parsed back through the shared SQL
/// tokenizer, so quoting and `''` escapes round-trip exactly. (A plain
/// custom separator would not survive newer CLIs, which caret-escape
/// control characters in their output.)
#[derive(Debug)]
pub struct Sqlite3Backend {
    path: PathBuf,
}

impl Sqlite3Backend {
    /// Returns the `sqlite3 --version` string when a usable binary is on
    /// `PATH`, `None` otherwise. Tests gate themselves on this so offline
    /// runners skip cleanly.
    pub fn detect() -> Option<String> {
        let output = Command::new("sqlite3").arg("--version").output().ok()?;
        if !output.status.success() {
            return None;
        }
        Some(String::from_utf8_lossy(&output.stdout).trim().to_string())
    }

    /// Creates a backend over a fresh database file in the system temp
    /// directory. The file is removed on drop.
    ///
    /// # Errors
    ///
    /// Fails when no usable `sqlite3` binary is on `PATH`.
    pub fn create() -> Result<Sqlite3Backend, BackendError> {
        if Sqlite3Backend::detect().is_none() {
            return Err(BackendError {
                backend: "sqlite3",
                message: "no usable `sqlite3` binary on PATH".to_string(),
            });
        }
        // A collision-safe fresh path: pid plus a process-wide counter, and
        // the file is claimed eagerly with `create_new` — a mere
        // `exists()` probe would hand the same path to two backends
        // created before either executes a script.
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let nonce = std::process::id();
        let path = loop {
            let counter = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let candidate =
                std::env::temp_dir().join(format!("sqlexec-validate-{nonce}-{counter}.sqlite3"));
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&candidate)
            {
                Ok(_) => break candidate,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => {
                    return Err(BackendError {
                        backend: "sqlite3",
                        message: format!("cannot create {}: {e}", candidate.display()),
                    })
                }
            }
        };
        Ok(Sqlite3Backend { path })
    }

    /// The null device, handed to `sqlite3 -init` so a user's `~/.sqliterc`
    /// cannot inject output modes (or stderr noise) into our runs.
    fn null_device() -> &'static str {
        if cfg!(windows) {
            "NUL"
        } else {
            "/dev/null"
        }
    }

    fn run(&self, script: &str) -> Result<String, BackendError> {
        let fail = |message: String| BackendError {
            backend: "sqlite3",
            message,
        };
        let mut child = Command::new("sqlite3")
            .arg("-bail")
            .arg("-batch")
            .arg("-init")
            .arg(Self::null_device())
            .arg(&self.path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| fail(format!("cannot spawn sqlite3: {e}")))?;
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(script.as_bytes())
            .map_err(|e| fail(format!("cannot write to sqlite3: {e}")))?;
        let output = child
            .wait_with_output()
            .map_err(|e| fail(format!("sqlite3 did not exit: {e}")))?;
        let stderr = String::from_utf8_lossy(&output.stderr);
        if !output.status.success() || !stderr.trim().is_empty() {
            return Err(fail(format!(
                "sqlite3 rejected the script: {}",
                stderr.trim()
            )));
        }
        Ok(String::from_utf8_lossy(&output.stdout).into_owned())
    }
}

impl Drop for Sqlite3Backend {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Backend for Sqlite3Backend {
    fn name(&self) -> &'static str {
        "sqlite3"
    }

    fn execute_script(&mut self, sql: &str) -> Result<(), BackendError> {
        self.run(sql).map(|_| ())
    }

    fn snapshot(&mut self, schema: &Schema) -> Result<Instance, BackendError> {
        let fail = |message: String| BackendError {
            backend: "sqlite3",
            message,
        };
        let mut instance = Instance::empty(schema);
        for table in schema.tables() {
            let dialect = sqlbridge::Sqlite;
            let columns: Vec<String> = table
                .columns
                .iter()
                .map(|c| sqlbridge::Dialect::ident(&dialect, c.name.as_str()))
                .collect();
            let select = format!(
                ".mode quote\nSELECT {} FROM {};",
                columns.join(", "),
                sqlbridge::Dialect::ident(&dialect, table.name.as_str())
            );
            let stdout = self.run(&select)?;
            for line in stdout.lines() {
                let types: Vec<DataType> = table.columns.iter().map(|c| c.ty).collect();
                let row = parse_literal_row(line, &types).ok_or_else(|| {
                    fail(format!(
                        "cannot parse `{line}` as a row of `{}` ({} columns)",
                        table.name,
                        table.columns.len()
                    ))
                })?;
                instance.insert(&table.name, row);
            }
        }
        Ok(instance)
    }
}

/// Parses one `.mode quote` output line — comma-separated SQL literals —
/// back into a typed row, via the shared SQL tokenizer.
fn parse_literal_row(line: &str, types: &[DataType]) -> Option<Vec<Value>> {
    use sqlbridge::token::{tokenize, TokenKind};
    let tokens = tokenize(line).ok()?;
    let mut row = Vec::new();
    let mut pos = 0usize;
    for (i, ty) in types.iter().enumerate() {
        if i > 0 {
            if !tokens.get(pos)?.is_punct(',') {
                return None;
            }
            pos += 1;
        }
        let mut negative = false;
        if tokens.get(pos)?.is_punct('-') {
            negative = true;
            pos += 1;
        }
        let token = tokens.get(pos)?;
        let value = match &token.kind {
            TokenKind::Number(text) => {
                let n: i64 = text.parse().ok()?;
                let n = if negative { -n } else { n };
                match ty {
                    DataType::Bool => Value::Bool(n != 0),
                    // Surrogate keys are integers at the SQL level; keep
                    // them integral so they compare against the predictor's
                    // skolem values.
                    _ => Value::Int(n),
                }
            }
            TokenKind::StringLit(text) => Value::str(text),
            TokenKind::Ident {
                text,
                quoted: false,
            } if text.eq_ignore_ascii_case("NULL") => Value::Null,
            // Blob literal: `X` immediately followed by a hex string.
            TokenKind::Ident {
                text,
                quoted: false,
            } if text.eq_ignore_ascii_case("X") => {
                pos += 1;
                let TokenKind::StringLit(hex) = &tokens.get(pos)?.kind else {
                    return None;
                };
                let mut bytes = Vec::new();
                let chars: Vec<char> = hex.chars().collect();
                if !chars.len().is_multiple_of(2) {
                    return None;
                }
                for pair in chars.chunks(2) {
                    let s: String = pair.iter().collect();
                    bytes.push(u8::from_str_radix(&s, 16).ok()?);
                }
                Value::bytes(bytes)
            }
            _ => return None,
        };
        if negative && !matches!(value, Value::Int(_)) {
            return None;
        }
        row.push(value);
        pos += 1;
    }
    if pos != tokens.len() {
        return None;
    }
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backend_roundtrips_a_script() {
        let schema = Schema::parse("T(a: int, b: string)").unwrap();
        let mut backend = MemoryBackend::new();
        backend
            .execute_script(
                "CREATE TABLE T (a INTEGER, b TEXT);\n\
                 INSERT INTO T (a, b) VALUES (1, 'x');\n\
                 INSERT INTO T (a, b) VALUES (2, 'y');",
            )
            .unwrap();
        let instance = backend.snapshot(&schema).unwrap();
        assert_eq!(instance.rows(&"T".into()).len(), 2);
    }

    #[test]
    fn quoted_literal_rows_parse_back() {
        use DataType::*;
        assert_eq!(
            parse_literal_row(
                "NULL,-42,1,'o''hara',X'ab01'",
                &[Int, Int, Bool, String, Binary]
            ),
            Some(vec![
                Value::Null,
                Value::Int(-42),
                Value::Bool(true),
                Value::str("o'hara"),
                Value::bytes([0xab, 0x01]),
            ])
        );
        assert_eq!(parse_literal_row("wat", &[Int]), None);
        assert_eq!(
            parse_literal_row("1,2", &[Int]),
            None,
            "trailing tokens rejected"
        );
        assert_eq!(
            parse_literal_row("1", &[Int, Int]),
            None,
            "missing fields rejected"
        );
    }
}
