//! Regenerates the paper's evaluation tables.
//!
//! ```text
//! experiments table1 [--textbook-only] [--only <name>]... [--out <path>] [--threads <n>]
//! experiments table2 [--textbook-only] [--budget-secs <n>] [--threads <n>]
//! experiments table3 [--textbook-only] [--cap <iterations>] [--threads <n>]
//! experiments all    [--textbook-only] [--out <path>] [--threads <n>]
//! experiments check  [--textbook-only] [--only <name>]... [--against <path>] [--threads <n>]
//! experiments known-red [--threads <n>]
//! experiments cmp <old.json> <new.json> [--threshold <ratio>]
//! experiments dump <benchmark> <dir>
//! ```
//!
//! `--threads N` caps the synthesizer's global thread budget (default: the
//! machine's available parallelism). The search is deterministic by
//! construction at any thread count — `check` runs under `--threads 1` and
//! `--threads 4` in CI must (and do) produce identical statistics.
//!
//! Each table command prints a Markdown table with the measured numbers next
//! to the numbers the paper reports. `table1` and `all` additionally write
//! the measured rows (per-benchmark wall time plus the underlying search
//! statistics) as machine-readable JSON to `--out` (default
//! `BENCH_results.json`), so successive revisions leave a performance
//! trajectory.
//!
//! `check` is the deterministic-stats mode CI runs on every committed
//! benchmark: it re-runs the selected benchmarks, renders each fresh row as
//! `table1` would, and compares it with the committed trajectory file
//! through [`bench::deterministic_drift`] — the allowlists
//! [`bench::DETERMINISTIC_TOP_FIELDS`] and
//! [`bench::DETERMINISTIC_PHASE_FIELDS`], plus the success and validation
//! flags (wall time, thread count and the allocation proxies are
//! machine- or scheduling-dependent and excluded). Mismatches are reported
//! field by field in a `### Mismatches` section, as `committed → measured`
//! like `cmp`'s drift, with a one-line summary count on stderr. `--only`
//! is repeatable. Exits non-zero on any mismatch, so a search-behaviour
//! regression fails the build.
//!
//! `known-red` is the frontier gate: every benchmark outside the known-red
//! list must keep synthesizing and validating under the standard
//! configuration, while the known-red benchmarks are attempted under the
//! widened-space preset (`SynthesisConfig::widened`) and their status is
//! recorded informationally in the Markdown output.
//!
//! `cmp` diffs two `BENCH_results.json` files run-over-run (the rebar-style
//! companion to the trajectory file): per-benchmark wall-time ratios, drift
//! in the same deterministic fields `check` compares, and a
//! `### Regressions` section listing benchmarks whose wall time grew beyond
//! `--threshold` (default 1.2×). Wall-time regressions are advisory — two
//! files from different machines are not comparable — but a
//! deterministic-field mismatch means the search itself changed between the
//! runs, so `cmp` exits non-zero on one exactly like `check`.
//!
//! `dump` writes one benchmark's inputs (`source.sql`, `target.sql`,
//! `program.dbp`) into a directory, so the `migrate` CLI — and CI's
//! forensics job — can run the exact evaluation instance from files.

use std::time::{Duration, Instant};

use bench::{cegis_config_for, config_for, row_to_json, run_table1, session_for};
use benchmarks::{all_benchmarks, textbook_benchmarks, Benchmark};
use migrator::baselines::solve_cegis;
use migrator::sketch_gen::generate_sketch;
use migrator::value_corr::VcEnumerator;
use migrator::SketchSolverKind;
use pipeline::RefactorError;

#[derive(Debug)]
struct Options {
    command: String,
    textbook_only: bool,
    only: Vec<String>,
    budget_secs: u64,
    cap: usize,
    out: String,
    out_explicit: bool,
    against: String,
    threads: usize,
    threshold: f64,
    positional: Vec<String>,
}

fn require_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    })
}

fn require_number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let value = require_value(args, flag);
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a number, got `{value}`");
        std::process::exit(2);
    })
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "all".to_string());
    let mut options = Options {
        command,
        textbook_only: false,
        only: Vec::new(),
        budget_secs: 20,
        cap: 100_000,
        out: "BENCH_results.json".to_string(),
        out_explicit: false,
        against: "BENCH_results.json".to_string(),
        threads: 0,
        threshold: 1.2,
        positional: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--textbook-only" => options.textbook_only = true,
            "--only" => options.only.push(require_value(&mut args, "--only")),
            "--out" => {
                options.out = require_value(&mut args, "--out");
                options.out_explicit = true;
            }
            "--against" => options.against = require_value(&mut args, "--against"),
            "--budget-secs" => options.budget_secs = require_number(&mut args, "--budget-secs"),
            "--threads" => options.threads = require_number(&mut args, "--threads"),
            "--cap" => options.cap = require_number(&mut args, "--cap"),
            "--threshold" => options.threshold = require_number(&mut args, "--threshold"),
            other if !other.starts_with('-') => options.positional.push(other.to_string()),
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    options
}

fn selected_benchmarks(options: &Options) -> Vec<Benchmark> {
    let pool = if options.textbook_only {
        textbook_benchmarks()
    } else {
        all_benchmarks()
    };
    if options.only.is_empty() {
        return pool;
    }
    pool.into_iter()
        .filter(|b| {
            options
                .only
                .iter()
                .any(|name| b.name.eq_ignore_ascii_case(name))
        })
        .collect()
}

fn table1(options: &Options) {
    println!("## Table 1 — main results (measured vs. paper)\n");
    println!(
        "| Benchmark | Funcs | Value Corr (paper) | Iters (paper) | Synth s (paper) | Total s (paper) | OK | Migration validated |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    let mut results = Vec::new();
    for benchmark in selected_benchmarks(options) {
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        results.push(row_to_json(&benchmark, &row));
        println!(
            "| {} | {} | {} ({}) | {} ({}) | {:.1} ({:.1}) | {:.1} ({:.1}) | {} | {} |",
            row.name,
            benchmark.paper.funcs,
            row.value_corr,
            benchmark.paper.value_corr,
            row.iters,
            benchmark.paper.iters,
            row.synth_time,
            benchmark.paper.synth_time_secs,
            row.total_time,
            benchmark.paper.total_time_secs,
            if row.succeeded { "yes" } else { "NO" },
            match row.validated {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
        );
    }
    println!();

    // Only a full, unfiltered run may overwrite the default trajectory file;
    // a filtered spot-check would silently replace 20 rows with one.
    let filter = if !options.only.is_empty() {
        format!("only:{}", options.only.join(","))
    } else if options.textbook_only {
        "textbook-only".to_string()
    } else {
        "all".to_string()
    };
    if filter != "all" && !options.out_explicit {
        eprintln!(
            "filtered run ({filter}): not overwriting {}; pass --out to write anyway",
            options.out
        );
        return;
    }
    let count = results.len();
    let document = sqlbridge::Json::object()
        .with("solver", sqlbridge::Json::str("MfiGuided"))
        .with("filter", sqlbridge::Json::str(filter))
        .with("threads", parpool::thread_limit().into())
        .with("benchmark_count", count.into())
        .with("benchmarks", sqlbridge::Json::Array(results));
    match std::fs::write(&options.out, document.to_pretty_string()) {
        Ok(()) => eprintln!("wrote {}", options.out),
        Err(e) => eprintln!("cannot write {}: {e}", options.out),
    }
}

fn table2(options: &Options) {
    let budget = Duration::from_secs(options.budget_secs);
    println!(
        "## Table 2 — comparison with a CEGIS-style solver (budget {}s per benchmark)\n",
        options.budget_secs
    );
    println!("| Benchmark | Migrator synth s | CEGIS-style s | Speedup | Paper (Sketch s) |");
    println!("|---|---|---|---|---|");
    for benchmark in selected_benchmarks(options) {
        let migrator_row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        // Run the CEGIS baseline on the sketches produced by the same
        // correspondence enumeration (the space the Sketch encoding covers).
        // This is deliberately *not* a facade client: it swaps the paper's
        // completion algorithm for a baseline solver, which the pipeline —
        // by design — does not expose.
        let config = config_for(&benchmark, SketchSolverKind::MfiGuided);
        let mut enumerator = VcEnumerator::new(
            &benchmark.source_program,
            &benchmark.source_schema,
            &benchmark.target_schema,
            &config.vc,
        );
        let start = Instant::now();
        let mut cegis_result = None;
        while let Some(phi) = enumerator.next_correspondence() {
            if start.elapsed() > budget {
                break;
            }
            let Some(sketch) = generate_sketch(
                &benchmark.source_program,
                &phi,
                &benchmark.target_schema,
                &config.sketch,
            ) else {
                continue;
            };
            let remaining = budget.saturating_sub(start.elapsed());
            let outcome = solve_cegis(
                &sketch,
                &benchmark.source_program,
                &benchmark.source_schema,
                &benchmark.target_schema,
                &cegis_config_for(&benchmark, remaining),
            );
            if outcome.program.is_some() {
                cegis_result = Some(start.elapsed());
                break;
            }
            if outcome.timed_out {
                break;
            }
        }
        let (cegis_text, speedup_text) = match cegis_result {
            Some(elapsed) => (
                format!("{:.1}", elapsed.as_secs_f64()),
                format!(
                    "{:.1}x",
                    elapsed.as_secs_f64() / migrator_row.synth_time.max(1e-3)
                ),
            ),
            None => (
                format!(">{:.1}", budget.as_secs_f64()),
                format!(
                    ">{:.1}x",
                    budget.as_secs_f64() / migrator_row.synth_time.max(1e-3)
                ),
            ),
        };
        let paper = benchmark
            .paper
            .sketch_time_secs
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| ">86400".to_string());
        println!(
            "| {} | {:.1} | {} | {} | {} |",
            benchmark.name, migrator_row.synth_time, cegis_text, speedup_text, paper
        );
    }
    println!();
}

fn table3(options: &Options) {
    println!(
        "## Table 3 — comparison with symbolic enumerative search (cap {} candidates)\n",
        options.cap
    );
    println!("| Benchmark | MFI iters | Enum iters (paper) | MFI synth s | Enum synth s (paper) |");
    println!("|---|---|---|---|---|");
    for benchmark in selected_benchmarks(options) {
        let mfi_row = run_table1(&benchmark, SketchSolverKind::MfiGuided);

        // Enumerative baseline: the same facade pipeline with full-model
        // blocking and a candidate cap standing in for the paper's 24-hour
        // timeout.
        let mut config = config_for(&benchmark, SketchSolverKind::Enumerative);
        config.max_iterations_per_sketch = options.cap;
        let session = session_for(&benchmark, SketchSolverKind::Enumerative).config(config);
        let start = Instant::now();
        let (succeeded, iterations) = match session.synthesize() {
            Ok(synthesized) => (true, synthesized.stats.iterations),
            Err(RefactorError::Unsolved { stats, .. }) => (false, stats.iterations),
            Err(error) => {
                eprintln!("benchmark {} failed to run: {error}", benchmark.name);
                std::process::exit(2);
            }
        };
        let enum_time = start.elapsed().as_secs_f64();
        let (enum_iters, enum_time_text) = if succeeded {
            (format!("{iterations}"), format!("{enum_time:.1}"))
        } else {
            (format!(">{iterations}"), format!(">{enum_time:.1}"))
        };
        let paper_iters = benchmark
            .paper
            .enumerative_iters
            .map(|i| i.to_string())
            .unwrap_or_else(|| "timeout".to_string());
        let paper_time = benchmark
            .paper
            .enumerative_time_secs
            .map(|s| format!("{s:.1}"))
            .unwrap_or_else(|| ">86400".to_string());
        println!(
            "| {} | {} | {} ({}) | {:.1} | {} ({}) |",
            benchmark.name,
            mfi_row.iters,
            enum_iters,
            paper_iters,
            mfi_row.synth_time,
            enum_time_text,
            paper_time,
        );
    }
    println!();
}

/// The deterministic-stats CI mode: re-runs the selected benchmarks and
/// compares each fresh row with the committed trajectory file's through
/// [`bench::deterministic_drift`]. Wall time is excluded by design.
fn check(options: &Options) {
    let committed = load_results(&options.against);
    println!(
        "## Deterministic-stats check against {} (wall time excluded)\n",
        options.against
    );
    println!("| Benchmark | Value Corr | Iters | Succeeded | Validated | Verdict |");
    println!("|---|---|---|---|---|---|");
    // Per-benchmark field-level drift, collected for the Mismatches section
    // below the table (one `committed → measured` line per field).
    let mut mismatched: Vec<(String, Vec<String>)> = Vec::new();
    let mut checked = 0usize;
    for benchmark in selected_benchmarks(options) {
        let Some(expected) = committed.iter().find(|row| row_name(row) == benchmark.name) else {
            println!(
                "| {} | - | - | - | - | MISSING from {} |",
                benchmark.name, options.against
            );
            mismatched.push((
                benchmark.name.clone(),
                vec![format!("row is missing from {}", options.against)],
            ));
            continue;
        };
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        checked += 1;
        let diffs = bench::deterministic_drift(expected, &row_to_json(&benchmark, &row));
        let verdict = if diffs.is_empty() {
            "ok".to_string()
        } else {
            let fields = diffs.len();
            mismatched.push((benchmark.name.clone(), diffs));
            format!("MISMATCH ({fields} field(s), see below)")
        };
        println!(
            "| {} | {} | {} | {} | {} | {} |",
            benchmark.name,
            row.value_corr,
            row.iters,
            row.succeeded,
            row.validated.map_or("null".to_string(), |v| v.to_string()),
            verdict
        );
    }
    println!();
    if checked == 0 {
        eprintln!("no benchmarks selected — check the --only / --textbook-only filters");
        std::process::exit(2);
    }
    if !mismatched.is_empty() {
        println!("### Mismatches\n");
        for (name, diffs) in &mismatched {
            for diff in diffs {
                println!("- {name}: {diff}");
            }
        }
        println!();
        let fields: usize = mismatched.iter().map(|(_, diffs)| diffs.len()).sum();
        eprintln!(
            "{} benchmark(s) diverged from {} ({} field(s) differ)",
            mismatched.len(),
            options.against,
            fields
        );
        std::process::exit(1);
    }
    eprintln!("{checked} benchmark(s) match {}", options.against);
}

/// Benchmarks the repo records as unsolved under the standard
/// configuration. The known-red gate attempts them with the widened-space
/// preset and *records* the result instead of gating on it; everything not
/// in this list must stay green.
const KNOWN_RED: &[&str] = &["MathHotSpot", "probable-engine"];

/// The known-red CI gate: every benchmark outside [`KNOWN_RED`] must keep
/// synthesizing *and* validating under the standard configuration (exit 1
/// otherwise), and the known-red frontier is attempted under the
/// widened-space preset so the job summary records its current status.
/// The output is Markdown, suitable for `$GITHUB_STEP_SUMMARY`.
fn known_red(options: &Options) {
    println!("## Known-red gate\n");
    println!("| Benchmark | Config | Synthesized | Validated | Status |");
    println!("|---|---|---|---|---|");
    let mut regressions: Vec<String> = Vec::new();
    let mut green = 0usize;
    let mut frontier: Vec<Benchmark> = Vec::new();
    for benchmark in selected_benchmarks(options) {
        if KNOWN_RED.contains(&benchmark.name.as_str()) {
            frontier.push(benchmark);
            continue;
        }
        let row = run_table1(&benchmark, SketchSolverKind::MfiGuided);
        let ok = row.succeeded && row.validated == Some(true);
        if ok {
            green += 1;
        } else {
            regressions.push(benchmark.name.clone());
        }
        println!(
            "| {} | standard | {} | {} | {} |",
            benchmark.name,
            if row.succeeded { "yes" } else { "NO" },
            match row.validated {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            },
            if ok { "green" } else { "REGRESSION" },
        );
    }
    for benchmark in frontier {
        let row = bench::run_table1_with(&benchmark, bench::widened_config_for(&benchmark));
        let solved = row.succeeded && row.validated == Some(true);
        println!(
            "| {} | widened | {} | {} | {} |",
            benchmark.name,
            if row.succeeded { "yes" } else { "no" },
            match row.validated {
                Some(true) => "yes",
                Some(false) => "no",
                None => "-",
            },
            if solved {
                "solved under widened space"
            } else {
                "known red (informational)"
            },
        );
    }
    println!();
    if !regressions.is_empty() {
        eprintln!(
            "known-red gate: {} benchmark(s) regressed: {}",
            regressions.len(),
            regressions.join(", ")
        );
        std::process::exit(1);
    }
    eprintln!("known-red gate: {green} green benchmark(s) still green");
}

/// Loads the rows of one `BENCH_results.json` document, exiting with a
/// usage error when the file is unreadable or not the expected shape.
fn load_results(path: &str) -> Vec<sqlbridge::Json> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let document = sqlbridge::Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    });
    match document.get("benchmarks").and_then(|b| b.as_array()) {
        Some(rows) => rows.to_vec(),
        None => {
            eprintln!("{path} has no `benchmarks` array");
            std::process::exit(2);
        }
    }
}

/// A `BENCH_results.json` row's benchmark name.
fn row_name(row: &sqlbridge::Json) -> &str {
    row.get("name")
        .and_then(|n| n.as_str())
        .unwrap_or("<unnamed>")
}

/// The run-over-run diff mode: `experiments cmp old.json new.json`.
///
/// Prints per-benchmark wall-time ratios and flags two kinds of divergence:
/// wall-time regressions beyond `--threshold` (advisory — wall time is
/// machine-dependent) and drift in the deterministic allowlisted fields
/// (fatal — the search behaved differently, exit 1).
fn cmp(options: &Options) {
    let [old_path, new_path] = options.positional.as_slice() else {
        eprintln!("usage: experiments cmp <old.json> <new.json> [--threshold <ratio>]");
        std::process::exit(2);
    };
    let old_rows = load_results(old_path);
    let new_rows = load_results(new_path);
    println!("## Bench comparison: {old_path} → {new_path}\n");
    println!("| Benchmark | Total s (old) | Total s (new) | Ratio | Deterministic |");
    println!("|---|---|---|---|---|");

    let total_secs = |row: &sqlbridge::Json| row.get("total_time_secs").and_then(|v| v.as_f64());
    let snapshot_bytes = |row: &sqlbridge::Json| {
        row.get("phases")
            .and_then(|p| p.get("snapshot_bytes_copied"))
            .and_then(|v| v.as_i128())
            .unwrap_or(0)
    };

    let mut regressions: Vec<String> = Vec::new();
    let mut drifted: Vec<(String, Vec<String>)> = Vec::new();
    let mut missing = 0usize;
    let mut old_total = 0.0f64;
    let mut new_total = 0.0f64;
    let mut old_snapshot_total = 0i128;
    let mut new_snapshot_total = 0i128;
    let mut compared = 0usize;
    for old_row in &old_rows {
        let name = row_name(old_row);
        // A row absent from one file is not deterministic drift — filtered
        // runs (CI's fast subset) legitimately cover fewer benchmarks.
        let Some(new_row) = new_rows.iter().find(|r| row_name(r) == name) else {
            println!("| {name} | - | - | - | not in {new_path} |");
            missing += 1;
            continue;
        };
        compared += 1;
        let (old_secs, new_secs) = (total_secs(old_row), total_secs(new_row));
        old_total += old_secs.unwrap_or(0.0);
        new_total += new_secs.unwrap_or(0.0);
        old_snapshot_total += snapshot_bytes(old_row);
        new_snapshot_total += snapshot_bytes(new_row);
        let ratio = match (old_secs, new_secs) {
            (Some(old), Some(new)) if old > 0.0 => Some(new / old),
            _ => None,
        };
        if let Some(ratio) = ratio {
            if ratio > options.threshold {
                regressions.push(format!(
                    "{name}: total_time_secs {:.3} → {:.3} ({ratio:.2}x)",
                    old_secs.unwrap_or(0.0),
                    new_secs.unwrap_or(0.0),
                ));
            }
        }
        let drift = bench::deterministic_drift(old_row, new_row);
        let verdict = if drift.is_empty() {
            "ok".to_string()
        } else {
            let fields = drift.len();
            drifted.push((name.to_string(), drift));
            format!("DRIFT ({fields} field(s), see below)")
        };
        println!(
            "| {name} | {} | {} | {} | {verdict} |",
            old_secs.map_or("-".to_string(), |s| format!("{s:.3}")),
            new_secs.map_or("-".to_string(), |s| format!("{s:.3}")),
            ratio.map_or("-".to_string(), |r| format!("{r:.2}x")),
        );
    }
    for new_row in &new_rows {
        let name = row_name(new_row);
        if !old_rows.iter().any(|r| row_name(r) == name) {
            println!("| {name} | - | - | - | new in {new_path} |");
            missing += 1;
        }
    }
    println!();
    println!(
        "Suite totals: wall {old_total:.3}s → {new_total:.3}s ({}); snapshot_bytes_copied {old_snapshot_total} → {new_snapshot_total} ({})",
        if old_total > 0.0 {
            format!("{:.2}x", new_total / old_total)
        } else {
            "-".to_string()
        },
        if old_snapshot_total > 0 {
            format!("{:.3}x", new_snapshot_total as f64 / old_snapshot_total as f64)
        } else {
            "-".to_string()
        },
    );
    println!();

    println!("### Regressions (threshold {:.2}x)\n", options.threshold);
    if regressions.is_empty() {
        println!("none");
    } else {
        for regression in &regressions {
            println!("- {regression}");
        }
    }
    println!();

    if !drifted.is_empty() {
        println!("### Deterministic drift\n");
        for (name, drift) in &drifted {
            for line in drift {
                println!("- {name}: {line}");
            }
        }
        println!();
        let fields: usize = drifted.iter().map(|(_, d)| d.len()).sum();
        eprintln!(
            "{} benchmark(s) show deterministic drift between {old_path} and {new_path} ({fields} field(s))",
            drifted.len()
        );
        std::process::exit(1);
    }
    if compared == 0 {
        eprintln!("no common benchmarks between {old_path} and {new_path}");
        std::process::exit(2);
    }
    eprintln!(
        "{compared} benchmark(s) compared ({missing} only in one file); {} wall-time regression(s) beyond {:.2}x (advisory)",
        regressions.len(),
        options.threshold
    );
}

/// Dumps one benchmark's inputs to a directory as the three files the
/// `migrate` CLI consumes: `source.sql` / `target.sql` (ANSI DDL) and
/// `program.dbp` (the source program). CI uses this to run `migrate explain`
/// on the exact known-red evaluation instance.
fn dump(options: &Options) {
    let [name, dir] = options.positional.as_slice() else {
        eprintln!("usage: experiments dump <benchmark> <dir>");
        std::process::exit(2);
    };
    let Some(benchmark) = all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
    else {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create {dir}: {e}");
        std::process::exit(2);
    }
    let dialect = sqlbridge::Ansi;
    let files = [
        (
            "source.sql",
            sqlbridge::schema_to_ddl(&benchmark.source_schema, &dialect),
        ),
        (
            "target.sql",
            sqlbridge::schema_to_ddl(&benchmark.target_schema, &dialect),
        ),
        (
            "program.dbp",
            dbir::pretty::program_to_string(&benchmark.source_program),
        ),
    ];
    for (file, contents) in files {
        let path = format!("{dir}/{file}");
        if let Err(e) = std::fs::write(&path, contents) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
    eprintln!("wrote {}/{{source.sql,target.sql,program.dbp}}", dir);
}

fn main() {
    let options = parse_args();
    // 0 means "use the machine's available parallelism" (parpool's default).
    parpool::set_thread_limit(options.threads);
    match options.command.as_str() {
        "table1" => table1(&options),
        "table2" => table2(&options),
        "table3" => table3(&options),
        "check" => check(&options),
        "known-red" => known_red(&options),
        "cmp" => cmp(&options),
        "dump" => dump(&options),
        "all" => {
            table1(&options);
            table2(&options);
            table3(&options);
        }
        other => {
            eprintln!(
                "unknown command `{other}`; expected table1, table2, table3, check, known-red, cmp, dump or all"
            );
            std::process::exit(2);
        }
    }
}
