//! The pinned inputs: each instance's DDL and program text, as
//! `experiments dump` rendered them, with its known answer. The benchmark
//! reads only these files, so an edit to the generators in
//! `crates/benchmarks` cannot silently change a workload.

use std::path::{Path, PathBuf};

use pipeline::{JobSpec, Json};

/// The paper's ten textbook refactorings.
pub const TEXTBOOK: &[&str] = &[
    "Oracle-1", "Oracle-2", "Ambler-1", "Ambler-2", "Ambler-3", "Ambler-4", "Ambler-5", "Ambler-6",
    "Ambler-7", "Ambler-8",
];

/// Five generated application-scale refactorings: three the synthesizer
/// solves and two it does not.
pub const APPS: &[&str] = &[
    "rails-ecomm",
    "gallery",
    "DeeJBase",
    "MathHotSpot",
    "probable-engine",
];

/// An instance's known answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Synthesis succeeds and the emitted migration validates.
    Solved,
    /// The standard search space is exhausted without a program.
    NoSolution,
}

impl Expected {
    pub fn as_str(self) -> &'static str {
        match self {
            Expected::Solved => "solved",
            Expected::NoSolution => "no_solution",
        }
    }
}

/// One pinned instance.
#[derive(Debug, Clone)]
pub struct Instance {
    pub name: &'static str,
    pub source_ddl: String,
    pub target_ddl: String,
    pub program: String,
    pub expected: Expected,
}

impl Instance {
    /// The job a user would submit for this instance: every knob at its
    /// default (standard config, sqlite dialect, memory-backend validation
    /// over 3 seed rows per table).
    pub fn spec(&self) -> JobSpec {
        JobSpec::new(&self.source_ddl, &self.target_ddl, &self.program)
    }
}

/// The directory holding one sub-directory per pinned instance.
pub fn inputs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("inputs")
}

fn read(dir: &Path, file: &str) -> Result<String, String> {
    let path = dir.join(file);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Reads one instance's four files.
pub fn load(name: &'static str) -> Result<Instance, String> {
    let dir = inputs_dir().join(name);
    let answer = read(&dir, "answer.json")?;
    let answer = Json::parse(&answer).map_err(|e| format!("{name}/answer.json: {e}"))?;
    let expected = match answer.get("outcome").and_then(Json::as_str) {
        Some("solved") => Expected::Solved,
        Some("no_solution") => Expected::NoSolution,
        other => return Err(format!("{name}/answer.json: unknown outcome {other:?}")),
    };
    Ok(Instance {
        name,
        source_ddl: read(&dir, "source.sql")?,
        target_ddl: read(&dir, "target.sql")?,
        program: read(&dir, "program.dbp")?,
        expected,
    })
}

/// Parses an instance's two schemas and its program, as the pipeline's
/// ingest stage does.
pub fn check_parses(instance: &Instance) -> Result<(), String> {
    let source = sqlbridge::parse_ddl(&instance.source_ddl)
        .map_err(|e| format!("{}: source DDL: {e}", instance.name))?;
    sqlbridge::parse_ddl(&instance.target_ddl)
        .map_err(|e| format!("{}: target DDL: {e}", instance.name))?;
    dbir::parser::parse_program(&instance.program, &source)
        .map_err(|e| format!("{}: program: {e}", instance.name))?;
    Ok(())
}

/// Loads and parse-checks a workload's instances.
pub fn load_checked(names: &[&'static str]) -> Result<Vec<Instance>, String> {
    names
        .iter()
        .map(|name| {
            let instance = load(name)?;
            check_parses(&instance)?;
            Ok(instance)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_input_parses() {
        let textbook = load_checked(TEXTBOOK).expect("textbook inputs parse");
        let apps = load_checked(APPS).expect("apps inputs parse");
        assert_eq!(textbook.len(), 10);
        assert_eq!(apps.len(), 5);
        let unsolved: Vec<&str> = textbook
            .iter()
            .chain(&apps)
            .filter(|i| i.expected == Expected::NoSolution)
            .map(|i| i.name)
            .collect();
        assert_eq!(unsolved, ["MathHotSpot", "probable-engine"]);
    }

    #[test]
    fn every_pinned_directory_belongs_to_a_workload() {
        let mut pinned: Vec<String> = std::fs::read_dir(inputs_dir())
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        pinned.sort();
        let mut named: Vec<String> = TEXTBOOK.iter().chain(APPS).map(|s| s.to_string()).collect();
        named.sort();
        assert_eq!(pinned, named);
    }
}
