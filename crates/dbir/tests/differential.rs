//! Differential testing of the two bounded-equivalence engines.
//!
//! The prefix-shared DFS engine (`compare_programs`) must be observationally
//! identical to the retained straight-line reference
//! (`compare_programs_naive`): same verdict, same counterexample (including
//! its minimality), same `sequences_tested`. This property test throws
//! randomly-built small programs and configurations at both engines and
//! compares the full [`EquivalenceReport`]s.

use dbir::ast::{
    CmpOp, Function, FunctionBody, JoinChain, Operand, Param, Pred, Program, Query, Update,
};
use dbir::equiv::{compare_programs, compare_programs_naive, SourceOracle, TestConfig};
use dbir::equiv::{compare_with_oracle, CheckProfile, EquivalenceReport, PrefixCache};
use dbir::eval::{bind_args, CompiledUpdate, Journal};
use dbir::schema::{QualifiedAttr, Schema};
use dbir::value::{DataType, Value};
use dbir::Instance;
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::parse(
        "User(uid: int, name: string)\n\
         Tag(label: string, owner: int)\n\
         Doc(owner: int, data: binary)",
    )
    .unwrap()
}

/// A compact generator-friendly description of one program variant. Each
/// knob changes observable behaviour, so two descriptions that differ give
/// the engines real disagreements to find (wrong projections, swapped insert
/// targets, dropped deletes, error-raising predicates, ...).
#[derive(Debug, Clone)]
struct ProgramShape {
    /// Insert writes `name` into `User.name` (honest) or stores the `uid`
    /// parameter there instead (type-confused but executable).
    honest_insert: bool,
    /// Include a `removeUser` delete function.
    with_delete: bool,
    /// Include a second table's update (exercises relevance clustering).
    with_tag_update: bool,
    /// Include a binary-attachment update and query, so interned blobs and
    /// string constants flow through snapshots, plan scans and the oracle.
    with_docs: bool,
    /// Query projection: 0 → name, 1 → uid, 2 → both.
    projection: u8,
    /// Query predicate: 0 → uid = param, 1 → uid < param (ordering),
    /// 2 → name = param-as-int (cross-type equality, always false),
    /// 3 → uid IN (SELECT owner FROM Tag),
    /// 4 → name = "A" (an interned string constant).
    predicate: u8,
    /// A second `User` query, `getNamed(name)`, declared after `getDoc`:
    /// 0 → none, 1 → it projects uid, 2 → it projects name. Its plan shares
    /// an update tree with `getUser`'s whenever their relevance closures
    /// agree, and `getDoc`'s plan lies between the two.
    named: u8,
}

fn build_program(shape: &ProgramShape) -> Program {
    let mut functions = vec![Function::update(
        "addUser",
        vec![
            Param::new("uid", DataType::Int),
            Param::new("name", DataType::String),
        ],
        Update::Insert {
            join: JoinChain::table("User"),
            values: vec![
                (QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                (
                    QualifiedAttr::new("User", "name"),
                    Operand::param(if shape.honest_insert { "name" } else { "uid" }),
                ),
            ],
        },
    )];
    if shape.with_delete {
        functions.push(Function::update(
            "removeUser",
            vec![Param::new("uid", DataType::Int)],
            Update::Delete {
                tables: vec!["User".into()],
                join: JoinChain::table("User"),
                pred: Pred::eq_value(QualifiedAttr::new("User", "uid"), Operand::param("uid")),
            },
        ));
    }
    if shape.with_tag_update {
        functions.push(Function::update(
            "addTag",
            vec![
                Param::new("label", DataType::String),
                Param::new("owner", DataType::Int),
            ],
            Update::Insert {
                join: JoinChain::table("Tag"),
                values: vec![
                    (QualifiedAttr::new("Tag", "label"), Operand::param("label")),
                    (QualifiedAttr::new("Tag", "owner"), Operand::param("owner")),
                ],
            },
        ));
    }
    let projected = match shape.projection % 3 {
        0 => vec![QualifiedAttr::new("User", "name")],
        1 => vec![QualifiedAttr::new("User", "uid")],
        _ => vec![
            QualifiedAttr::new("User", "uid"),
            QualifiedAttr::new("User", "name"),
        ],
    };
    let pred = match shape.predicate % 5 {
        0 => Pred::eq_value(QualifiedAttr::new("User", "uid"), Operand::param("uid")),
        1 => Pred::CmpValue {
            lhs: QualifiedAttr::new("User", "uid"),
            op: CmpOp::Lt,
            rhs: Operand::param("uid"),
        },
        2 => Pred::eq_value(QualifiedAttr::new("User", "name"), Operand::param("uid")),
        3 => Pred::In {
            attr: QualifiedAttr::new("User", "uid"),
            query: Box::new(Query::select(
                vec![QualifiedAttr::new("Tag", "owner")],
                Pred::True,
                JoinChain::table("Tag"),
            )),
        },
        _ => Pred::eq_value(
            QualifiedAttr::new("User", "name"),
            Operand::Value(Value::str("A")),
        ),
    };
    functions.push(Function::query(
        "getUser",
        vec![Param::new("uid", DataType::Int)],
        Query::select(projected, pred, JoinChain::table("User")),
    ));
    if shape.with_docs {
        functions.push(Function::update(
            "attachDoc",
            vec![
                Param::new("owner", DataType::Int),
                Param::new("data", DataType::Binary),
            ],
            Update::Insert {
                join: JoinChain::table("Doc"),
                values: vec![
                    (QualifiedAttr::new("Doc", "owner"), Operand::param("owner")),
                    (QualifiedAttr::new("Doc", "data"), Operand::param("data")),
                ],
            },
        ));
        functions.push(Function::query(
            "getDoc",
            vec![Param::new("owner", DataType::Int)],
            Query::select(
                vec![QualifiedAttr::new("Doc", "data")],
                Pred::eq_value(QualifiedAttr::new("Doc", "owner"), Operand::param("owner")),
                JoinChain::table("Doc"),
            ),
        ));
    }
    let named = match shape.named % 3 {
        0 => None,
        1 => Some("uid"),
        _ => Some("name"),
    };
    if let Some(projected) = named {
        functions.push(Function::query(
            "getNamed",
            vec![Param::new("name", DataType::String)],
            Query::select(
                vec![QualifiedAttr::new("User", projected)],
                Pred::eq_value(QualifiedAttr::new("User", "name"), Operand::param("name")),
                JoinChain::table("User"),
            ),
        ));
    }
    Program::new(functions)
}

fn shape_strategy() -> impl Strategy<Value = ProgramShape> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        (0u8..3, 0u8..5, 0u8..3),
    )
        .prop_map(
            |(
                (honest_insert, with_delete, with_tag_update, with_docs),
                (projection, predicate, named),
            )| {
                ProgramShape {
                    honest_insert,
                    with_delete,
                    with_tag_update,
                    with_docs,
                    projection,
                    predicate,
                    named,
                }
            },
        )
}

fn config_strategy() -> impl Strategy<Value = TestConfig> {
    (
        0usize..3,     // max_updates
        1usize..5,     // max_arg_combinations
        any::<bool>(), // cluster_by_tables
    )
        .prop_map(|(max_updates, combos, cluster)| TestConfig {
            max_updates,
            max_arg_combinations: Some(combos),
            cluster_by_tables: cluster,
            ..TestConfig::default()
        })
}

/// `config` with a bound of `2 + depth` preceding updates (`depth` 0 keeps
/// it as it is) and one argument combination per function. A bound of 3 or
/// more takes the walk above the prefix cache's depth, where one walk per
/// update tree serves several plans, and a bound of 5 or 6 reaches
/// sequences of 6 and 7 calls, while the checks stay a few thousand
/// sequences small.
fn deepened(config: TestConfig, depth: usize) -> TestConfig {
    if depth == 0 {
        return config;
    }
    TestConfig {
        max_updates: 2 + depth,
        max_arg_combinations: Some(1),
        ..config
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The prefix-shared engine and the naive reference produce identical
    /// reports: same verdict, same minimum failing input, same sequence
    /// accounting. Bounds of up to 5 updates, at a thread budget of one and
    /// of four.
    #[test]
    fn engines_agree_on_random_programs(
        source_shape in shape_strategy(),
        target_shape in shape_strategy(),
        config in config_strategy(),
        depth in 0usize..4,
    ) {
        let config = deepened(config, depth);
        let schema = schema();
        let source = build_program(&source_shape);
        let target = build_program(&target_shape);
        let slow = compare_programs_naive(&source, &schema, &target, &schema, &config);
        for threads in [1, 4] {
            parpool::set_thread_limit(threads);
            let fast = compare_programs(&source, &schema, &target, &schema, &config);
            prop_assert_eq!(
                &fast, &slow,
                "engines diverged at {} threads\nsource: {:?}\ntarget: {:?}\nconfig: {:?}",
                threads, source_shape, target_shape, config
            );
        }
        parpool::set_thread_limit(0);
        if let Some(cex) = &slow.counterexample {
            prop_assert!(cex.updates.len() <= config.max_updates);
        }
    }

    /// An oracle that earlier checks already used must not change any
    /// report: the call ids it interned for them key nothing that a later
    /// check reads as an outcome, for sequences of any length.
    #[test]
    fn warm_oracle_reports_match_cold_runs(
        source_shape in shape_strategy(),
        target_shape in shape_strategy(),
        config in config_strategy(),
        depth in 0usize..5,
    ) {
        let config = deepened(config, depth);
        let schema = schema();
        let source = build_program(&source_shape);
        let target = build_program(&target_shape);
        let oracle = SourceOracle::new(&source, &schema);
        let check = |target: &Program| -> EquivalenceReport {
            compare_with_oracle(&oracle, target, &schema, &config, None, None, None)
        };
        let cold = check(&target);
        let warm = check(&target);
        prop_assert_eq!(&cold, &warm);
        // The source against itself walks the whole bound, interning calls
        // for sequences of every length up to `max_updates + 1` calls.
        prop_assert!(check(&source).equivalent);
        // And against a sibling candidate, the shared oracle stays sound.
        let sibling = build_program(&ProgramShape { projection: target_shape.projection.wrapping_add(1), ..target_shape.clone() });
        let with_shared_cache = check(&sibling);
        let from_scratch = compare_programs(&source, &schema, &sibling, &schema, &config);
        prop_assert_eq!(&with_shared_cache, &from_scratch);
    }

    /// The undo-log journal is interchangeable with clone-and-restore: a
    /// journaled execution reaches the same end state, fresh-uid counter and
    /// error as the plain compiled execution, and rolling the journal back
    /// restores the exact pre-state — including after a failed execution,
    /// whose partial mutations are journaled too. The bounded-testing
    /// engines built on the two strategies agree report-for-report (the
    /// full-size version of that claim is `engines_agree_on_random_programs`).
    #[test]
    fn journal_rollback_matches_clone_and_restore(
        shape in shape_strategy(),
        arg_n in -2i64..6,
        seed_rows in 0usize..5,
    ) {
        fn arg_for(ty: DataType, n: i64) -> Value {
            match ty {
                DataType::String => Value::str(format!("u{n}")),
                DataType::Binary => Value::bytes([n as u8, 0x5a]),
                _ => Value::Int(n),
            }
        }
        let schema = schema();
        let program = build_program(&shape);
        // Seed: a few users so deletes and cross-table predicates have
        // targets, not just the empty instance.
        let mut pre = Instance::empty(&schema);
        let next_uid = 100u64;
        for i in 0..seed_rows {
            pre.insert(
                &"User".into(),
                vec![Value::Int(i as i64), Value::str(format!("u{i}"))],
            );
            pre.insert(&"Tag".into(), vec![Value::str("t"), Value::Int(i as i64)]);
        }

        for function in program.functions.iter().filter(|f| !f.is_query()) {
            let FunctionBody::Update(update) = &function.body else { continue };
            let args: Vec<Value> = function
                .params
                .iter()
                .enumerate()
                .map(|(i, p)| arg_for(p.ty, arg_n + i as i64))
                .collect();
            let env = bind_args(function, &args).unwrap();
            let compiled = CompiledUpdate::compile(&schema, update, &env).unwrap();

            // Clone-and-restore arm: mutate a throwaway copy.
            let mut plain = pre.clone();
            let plain_result = compiled.execute(&mut plain, next_uid);

            // Journal arm: mutate in place, then roll back.
            let mut journaled = pre.clone();
            let mut journal = Journal::new();
            let mark = journal.mark();
            let journaled_result =
                compiled.execute_journaled(&mut journaled, next_uid, &mut journal);

            prop_assert_eq!(
                format!("{plain_result:?}"),
                format!("{journaled_result:?}"),
                "uid counters / errors diverge for {}",
                function.name
            );
            prop_assert_eq!(
                &plain, &journaled,
                "end states diverge for {}", function.name
            );

            journal.rollback_to(mark, &mut journaled);
            prop_assert_eq!(
                &pre, &journaled,
                "rollback did not restore the pre-state for {}", function.name
            );
        }

        // And a (cheap) end-to-end pin: the in-place engine and the naive
        // clone-based reference still agree report-for-report.
        let sibling = build_program(&ProgramShape {
            predicate: shape.predicate.wrapping_add(1),
            ..shape.clone()
        });
        let config = TestConfig {
            max_updates: 1,
            max_arg_combinations: Some(2),
            ..TestConfig::default()
        };
        let fast = compare_programs(&program, &schema, &sibling, &schema, &config);
        let naive = compare_programs_naive(&program, &schema, &sibling, &schema, &config);
        prop_assert_eq!(&fast, &naive);
    }

    /// Interning is a fixpoint: intern → resolve → intern yields the same
    /// symbol, and resolution returns the exact payload. (The engine's
    /// equality and hashing of interned values lean on this canonicity.)
    #[test]
    fn interning_round_trips_arbitrary_strings(s in "[ -~]{0,24}", b in proptest::collection::vec(0u8..255, 0..64)) {
        let sym = dbir::intern::intern_str(&s);
        prop_assert_eq!(sym.as_str(), s.as_str());
        prop_assert_eq!(dbir::intern::intern_str(sym.as_str()), sym);
        let blob = dbir::intern::intern_bytes(&b);
        prop_assert_eq!(blob.as_bytes(), b.as_slice());
        prop_assert_eq!(dbir::intern::intern_bytes(blob.as_bytes()), blob);
        // Value-level equality is payload equality.
        prop_assert_eq!(Value::str(&s), Value::str(s.clone()));
        prop_assert_eq!(Value::bytes(&b), Value::bytes(b.clone()));
    }
}

/// The walk that fans its cache-depth roots out to worker threads must be
/// byte-identical to the naive reference — verdict, counterexample,
/// `sequences_tested` — with the thread budget forced above one, and a
/// check's profile counters (snapshots, copied bytes, undo frames and
/// rollbacks, plans compiled, prefix-cache hits) must read the same at a
/// thread budget of one and of four. Each configuration is sized so the
/// leaves of some (tree, length) walk clear the engine's parallelism
/// threshold, i.e. the fan-out path genuinely runs (on any machine,
/// including single-core CI):
///
/// * without relevance clustering every plan shares one update tree, so
///   one walk below each root serves all three queries;
/// * with it, `getUser` and `getNamed` share the tree of `addUser` and
///   `removeUser`, and `getDoc`'s plan lies between them on a tree of its
///   own.
///
/// A fourth pair is written out: `getUid` and `getName` share the tree of
/// `add`, `mark` and `promote`, with `getTag`'s plan between them, and the
/// candidate's `promote` writes another name, which only an add, a mark and
/// a promote in a row show. So `getName`'s plan fails inside the shared
/// parallel walk that `getUid`'s plan, which never fails, started.
#[test]
fn parallel_walk_matches_naive_reference() {
    let schema = schema();
    let shape = ProgramShape {
        honest_insert: true,
        with_delete: true,
        with_tag_update: true,
        with_docs: true,
        projection: 0,
        predicate: 0,
        named: 1,
    };
    let unclustered = TestConfig {
        max_updates: 3,
        int_seeds: vec![0, 1, 2],
        cluster_by_tables: false,
        ..TestConfig::default()
    };
    let clustered = TestConfig {
        max_updates: 3,
        int_seeds: vec![0, 1, 2, 3],
        ..TestConfig::default()
    };
    let marking = |promoted: &str| {
        dbir::parser::parse_program(
            &format!(
                "update add(id: int) INSERT INTO User VALUES (uid: id, name: \"A\");
                 update mark(id: int) UPDATE User SET name = \"B\" WHERE uid = id;
                 update promote() UPDATE User SET name = \"{promoted}\" WHERE name = \"B\";
                 update tag(id: int) INSERT INTO Tag VALUES (label: \"A\", owner: id);
                 query getUid(id: int) SELECT uid FROM User WHERE uid = id;
                 query getTag(id: int) SELECT label FROM Tag WHERE owner = id;
                 query getName(id: int) SELECT name FROM User WHERE uid = id;"
            ),
            &schema,
        )
        .unwrap()
    };
    let pairs = [
        // Equivalent pair: the whole bound is enumerated.
        (build_program(&shape), build_program(&shape)),
        // Differing pair: the counterexample and its position must match.
        (
            build_program(&shape),
            build_program(&ProgramShape {
                honest_insert: false,
                projection: 2,
                predicate: 4,
                ..shape.clone()
            }),
        ),
        // Only the later `User` query differs: `getUser`'s plan, first on
        // the same tree, never fails.
        (
            build_program(&shape),
            build_program(&ProgramShape {
                named: 2,
                ..shape.clone()
            }),
        ),
        (marking("C"), marking("D")),
    ];
    for config in [unclustered, clustered] {
        for (source, target) in &pairs {
            // A fresh oracle and no caller cache per run; the counters
            // compared leave out the wall-clock `*_time` fields.
            let profiled = |threads: usize| {
                parpool::set_thread_limit(threads);
                let oracle = SourceOracle::new(source, &schema);
                let mut profile = CheckProfile::default();
                let report = compare_with_oracle(
                    &oracle,
                    target,
                    &schema,
                    &config,
                    None,
                    Some(&mut profile),
                    None,
                );
                let counters = CheckProfile {
                    plan_compile_time: Default::default(),
                    dfs_time: Default::default(),
                    snapshot_time: Default::default(),
                    ..profile
                };
                (report, counters, oracle.computes())
            };
            let (sequential, sequential_counters, sequential_computes) = profiled(1);
            let (parallel, parallel_counters, parallel_computes) = profiled(4);
            let naive = compare_programs_naive(source, &schema, target, &schema, &config);
            assert_eq!(parallel, naive, "parallel walk diverged under {config:?}");
            assert_eq!(
                sequential, naive,
                "sequential walk diverged under {config:?}"
            );
            assert_eq!(
                (sequential_counters, sequential_computes),
                (parallel_counters.clone(), parallel_computes),
                "profile counters depend on the thread count under {config:?}"
            );
            match &naive.counterexample {
                None => {
                    assert!(
                        parallel.sequences_tested > 4096,
                        "test must be big enough to cross the parallelism threshold, got {}",
                        parallel.sequences_tested
                    );
                    assert!(parallel_counters.undo_frames > 0, "the walk ran in place");
                }
                Some(cex) => assert!(
                    ["getUser", "getNamed"].contains(&cex.query.function.as_str())
                        || (cex.updates.len(), cex.query.function.as_str()) == (3, "getName"),
                    "{cex:?}"
                ),
            }
        }
    }
    // Restore the default so concurrently scheduled tests in this binary
    // run under the budget they expect. (Results are thread-count-invariant
    // either way; this keeps the *exercised path* deterministic.)
    parpool::set_thread_limit(0);
}

/// A candidate stream checked the way a sketch run checks it — one oracle,
/// one shared `PrefixCache`, each check reusing the plans and prefix states
/// of the ones before — reports the same at a thread budget of one and of
/// four: check by check, the reports equal the naive reference's, and every
/// profile counter, the cache's hits and the oracle's count of source-query
/// evaluations are identical at both budgets. The configuration is the one
/// `parallel_walk_matches_naive_reference` sizes past the parallelism
/// threshold.
#[test]
fn shared_cache_stream_is_thread_count_invariant() {
    let schema = schema();
    let config = TestConfig {
        max_updates: 3,
        int_seeds: vec![0, 1, 2],
        cluster_by_tables: false,
        ..TestConfig::default()
    };
    let shape = ProgramShape {
        honest_insert: true,
        with_delete: true,
        with_tag_update: true,
        with_docs: true,
        projection: 0,
        predicate: 0,
        named: 1,
    };
    let source = build_program(&shape);
    // Two wrong candidates, the right one, then the first wrong one again
    // (same bodies — pure reuse of its plans and prefix states).
    let wrong_insert = build_program(&ProgramShape {
        honest_insert: false,
        ..shape.clone()
    });
    let wrong_query = build_program(&ProgramShape {
        projection: 2,
        predicate: 1,
        ..shape.clone()
    });
    let candidates = [
        wrong_insert.clone(),
        wrong_query,
        source.clone(),
        wrong_insert,
    ];
    let run = |threads: usize| {
        parpool::set_thread_limit(threads);
        let oracle = SourceOracle::new(&source, &schema);
        let mut cache = PrefixCache::new();
        let checks: Vec<(EquivalenceReport, CheckProfile)> = candidates
            .iter()
            .map(|candidate| {
                let mut profile = CheckProfile::default();
                let report = compare_with_oracle(
                    &oracle,
                    candidate,
                    &schema,
                    &config,
                    None,
                    Some(&mut profile),
                    Some(&mut cache),
                );
                let counters = CheckProfile {
                    plan_compile_time: Default::default(),
                    dfs_time: Default::default(),
                    snapshot_time: Default::default(),
                    ..profile
                };
                (report, counters)
            })
            .collect();
        (checks, cache.hits(), oracle.computes())
    };
    let sequential = run(1);
    let parallel = run(4);
    // Restore the default for the other tests in this binary.
    parpool::set_thread_limit(0);
    assert_eq!(
        sequential, parallel,
        "the stream depends on the thread count"
    );
    let (checks, cache_hits, computes) = sequential;
    for ((report, _), candidate) in checks.iter().zip(&candidates) {
        let naive = compare_programs_naive(&source, &schema, candidate, &schema, &config);
        assert_eq!(report, &naive, "stream check diverged from reference");
    }
    assert_eq!(
        checks
            .iter()
            .map(|(report, _)| report.equivalent)
            .collect::<Vec<_>>(),
        [false, false, true, false]
    );
    assert!(
        checks[2].0.sequences_tested > 4096,
        "the equivalent check must cross the parallelism threshold"
    );
    assert!(cache_hits > 0, "later checks reuse earlier prefix states");
    assert_eq!(
        checks[3].1.plans_compiled, 0,
        "a repeated candidate compiles nothing"
    );
    assert!(computes > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random candidate streams through one oracle and one shared
    /// `PrefixCache`, the way a sketch run checks them: the stream runs
    /// twice over with the source in its middle, so later checks skip the
    /// (plan, length) subtrees earlier ones exhausted. Each candidate is
    /// checked twice in a row, so the second check is answered from the
    /// verdicts the first one remembered. Every report equals the naive
    /// reference's and a cold check's, at a thread budget of one and of
    /// four, for sequences of up to five updates.
    #[test]
    fn shared_cache_streams_match_naive_and_cold_checks(
        source_shape in shape_strategy(),
        stream in proptest::collection::vec(shape_strategy(), 1..4),
        config in config_strategy(),
        depth in 0usize..4,
    ) {
        let schema = schema();
        let source = build_program(&source_shape);
        let config = deepened(config, depth);
        let candidates: Vec<Program> = stream
            .iter()
            .chain([&source_shape])
            .chain(&stream)
            .map(build_program)
            .collect();
        for threads in [1, 4] {
            parpool::set_thread_limit(threads);
            let oracle = SourceOracle::new(&source, &schema);
            let mut cache = PrefixCache::new();
            for candidate in &candidates {
                let cold = compare_with_oracle(&oracle, candidate, &schema, &config, None, None, None);
                let naive = compare_programs_naive(&source, &schema, candidate, &schema, &config);
                prop_assert_eq!(&cold, &naive, "threads {}, config {:?}", threads, config);
                for _ in 0..2 {
                    let shared = compare_with_oracle(
                        &oracle, candidate, &schema, &config, None, None, Some(&mut cache),
                    );
                    prop_assert_eq!(&shared, &cold, "threads {}, config {:?}", threads, config);
                }
            }
        }
        // Restore the default for the other tests in this binary.
        parpool::set_thread_limit(0);
    }
}

/// Copy-on-write aliasing: mutating one clone never perturbs its siblings,
/// the original, or a cached snapshot — and tables nobody mutated stay
/// physically shared (counted once, not once per clone).
#[test]
fn cow_clones_never_leak_mutations_to_siblings() {
    let schema = schema();
    let mut original = Instance::empty(&schema);
    original.insert(&"User".into(), vec![Value::Int(1), Value::str("ada")]);
    original.insert(&"Tag".into(), vec![Value::str("t"), Value::Int(1)]);

    let snapshot = original.clone(); // e.g. a PrefixCache entry
    let mut branch_a = original.clone();
    let mut branch_b = original.clone();

    // Divergent mutations: an append in one branch, an in-place cell
    // rewrite in the other.
    branch_a.insert(&"User".into(), vec![Value::Int(2), Value::str("bob")]);
    branch_b.rows_mut(&"User".into())[0][1] = Value::str("eve");

    // Each instance sees exactly its own history.
    assert_eq!(original.rows(&"User".into()).len(), 1);
    assert_eq!(original.rows(&"User".into())[0][1], Value::str("ada"));
    assert_eq!(branch_a.rows(&"User".into()).len(), 2);
    assert_eq!(branch_a.rows(&"User".into())[0][1], Value::str("ada"));
    assert_eq!(branch_b.rows(&"User".into()).len(), 1);
    assert_eq!(branch_b.rows(&"User".into())[0][1], Value::str("eve"));
    assert_eq!(original, snapshot);

    // The Tag table was never written: all four instances still share one
    // physical copy, and the accounting reports it as `shared`, not owned.
    let (_, shared_a) = branch_a.heap_bytes_split();
    assert!(shared_a > 0, "untouched Tag rows should still be shared");
    let family_owned: usize = [&original, &snapshot, &branch_a, &branch_b]
        .iter()
        .map(|i| i.heap_bytes_split().0)
        .sum();
    let family_logical: usize = [&original, &snapshot, &branch_a, &branch_b]
        .iter()
        .map(|i| i.approx_heap_bytes())
        .sum();
    assert!(
        family_owned < family_logical,
        "shared rows must not be charged once per clone ({family_owned} vs {family_logical})"
    );
}
