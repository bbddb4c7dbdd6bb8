//! Microbenchmarks for the incremental-engine primitives: persistent SAT
//! model enumeration (vs. rebuilding the solver per blocking clause),
//! guarded speculative probes, and cross-candidate prefix-cache reuse.
//!
//! End-to-end synthesis time moves for many reasons; these benches isolate
//! the costs the persistent solver and the [`PrefixCache`] were built to
//! shrink, so a regression in either is visible even when wall-time noise
//! or search-trajectory changes mask it in `experiments`.
//!
//! [`PrefixCache`]: dbir::equiv::PrefixCache

use criterion::{criterion_group, criterion_main, Criterion};
use dbir::equiv::{compare_with_oracle, PrefixCache, SourceOracle, TestConfig};
use satsolver::{Lit, SolveResult, Solver, Var};

/// The sketch-shaped CNF the completion loop produces: `holes` one-hot
/// groups of `domain` variables each (at-least-one + pairwise at-most-one).
fn encode(solver: &mut Solver, holes: usize, domain: usize) -> Vec<Vec<Var>> {
    let mut groups = Vec::with_capacity(holes);
    for _ in 0..holes {
        let vars = solver.new_vars(domain);
        let at_least_one: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
        solver.add_clause(&at_least_one);
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                solver.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
            }
        }
        groups.push(vars);
    }
    groups
}

fn blocking_clause(model: &satsolver::Model, groups: &[Vec<Var>]) -> Vec<Lit> {
    groups
        .iter()
        .flatten()
        .map(|&v| {
            if model.value(v) {
                Lit::neg(v)
            } else {
                Lit::pos(v)
            }
        })
        .collect()
}

/// Enumerates every model with one persistent solver, learning a blocking
/// clause per model — the incremental engine's inner loop.
fn enumerate_persistent(holes: usize, domain: usize) -> usize {
    let mut solver = Solver::new();
    let groups = encode(&mut solver, holes, domain);
    let mut models = 0;
    while let SolveResult::Sat(model) = solver.solve() {
        solver.add_clause(&blocking_clause(&model, &groups));
        models += 1;
    }
    models
}

/// The from-scratch baseline: replays the recorded blocking sequence into a
/// fresh solver before every solve (what the completion loop did before the
/// persistent solver).
fn enumerate_from_scratch(holes: usize, domain: usize) -> usize {
    let mut blocked: Vec<Vec<Lit>> = Vec::new();
    loop {
        let mut solver = Solver::new();
        let groups = encode(&mut solver, holes, domain);
        for clause in &blocked {
            solver.add_clause(clause);
        }
        match solver.solve() {
            SolveResult::Sat(model) => blocked.push(blocking_clause(&model, &groups)),
            SolveResult::Unsat => return blocked.len(),
        }
    }
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_model_enumeration");
    group.sample_size(10);
    // 3 holes x 4 values = 64 models; the shape of a small sketch.
    group.bench_function("persistent/3x4", |b| {
        b.iter(|| {
            let models = enumerate_persistent(3, 4);
            assert_eq!(models, 64);
            models
        })
    });
    group.bench_function("from_scratch/3x4", |b| {
        b.iter(|| {
            let models = enumerate_from_scratch(3, 4);
            assert_eq!(models, 64);
            models
        })
    });
    group.finish();
}

fn bench_speculative_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_speculative_probe");
    group.sample_size(10);
    // The speculation protocol: block the current model behind a guard
    // literal, probe under the guard assumption, then commit the guard.
    group.bench_function("guarded_probe_commit/3x4", |b| {
        b.iter(|| {
            let mut solver = Solver::new();
            let groups = encode(&mut solver, 3, 4);
            let mut models = 0;
            while let SolveResult::Sat(model) = solver.solve() {
                let guard = solver.new_var();
                let mut clause = blocking_clause(&model, &groups);
                clause.push(Lit::neg(guard));
                solver.add_clause(&clause);
                let _probe = solver.solve_with_assumptions(&[Lit::pos(guard)]);
                solver.add_clause(&[Lit::pos(guard)]);
                models += 1;
            }
            assert_eq!(models, 64);
            models
        })
    });
    group.finish();
}

fn bench_prefix_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_cache_reuse");
    group.sample_size(10);
    let benchmark = benchmarks::benchmark_by_name("Ambler-4").expect("benchmark exists");
    let oracle = SourceOracle::new(&benchmark.source_program, &benchmark.source_schema);
    let config = TestConfig::default();
    // Checking the source program against itself walks the full bound —
    // the worst case for prefix re-execution, the best case for the cache.
    group.bench_function("cold_no_cache", |b| {
        b.iter(|| {
            let report = compare_with_oracle(
                &oracle,
                &benchmark.source_program,
                &benchmark.source_schema,
                &config,
                None,
                None,
                None,
            );
            assert!(report.equivalent);
            report.sequences_tested
        })
    });
    group.bench_function("warm_shared_cache", |b| {
        let mut cache = PrefixCache::new();
        b.iter(|| {
            let report = compare_with_oracle(
                &oracle,
                &benchmark.source_program,
                &benchmark.source_schema,
                &config,
                None,
                None,
                Some(&mut cache),
            );
            assert!(report.equivalent);
            report.sequences_tested
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_speculative_probe,
    bench_prefix_cache
);
criterion_main!(benches);
