//! Bounded equivalence checking and minimum-failing-input search.
//!
//! The paper checks candidate programs against the original by *bounded
//! exhaustive testing*: invocation sequences are generated from a small seed
//! set of constants in increasing order of length, and the first sequence on
//! which the two programs disagree is, by construction, a **minimum failing
//! input** (Section 5, "Generating minimum failing inputs").
//!
//! This module implements that procedure twice:
//!
//! * [`compare_with_oracle`] (and its convenience form [`compare_programs`])
//!   — the production engine, and the one walk every check runs. It walks
//!   the tree of update-call prefixes depth-first with **in-place
//!   backtracking**: each side keeps one working [`Instance`], update calls
//!   execute directly on it while recording their inverses in an undo-log
//!   [`Journal`], and backtracking rolls the journal back instead of
//!   restoring a cloned snapshot. Each update call in the tree is thus
//!   executed **once** instead of once per sequence that extends it —
//!   `O(kᴸ)` update executions instead of the naive `O(L·kᴸ·|Q|)` — and
//!   without deep-cloning the instance at every node. The first two levels
//!   of the tree are resolved through a [`PrefixCache`] (the caller's, or a
//!   check-local one), whose entries are the only snapshots that outlive
//!   the walk. They are cheap because [`Instance`] is copy-on-write: cloning
//!   bumps per-table `Arc`s, and only the first mutation of a shared table
//!   pays a physical copy. Sequences are still enumerated depth-by-depth
//!   (iterative deepening), so the first counterexample remains a minimum
//!   failing input. An update call that changes neither program's state
//!   is not descended below: every sequence through it repeats one with
//!   one update call fewer, which the previous depth has already seen
//!   agree, so its subtree is counted arithmetically. Prefixes on which
//!   both programs have already failed are the simplest case — no call
//!   changes a failed state.
//!
//!   The unit of the walk is the *update tree*: the query plans whose
//!   relevance closures select the same update functions test the same
//!   update calls, and share one tree. Its roots are resolved once per
//!   check and length; above the cache depth one walk below each root
//!   serves every undecided plan of the tree, so each update call is
//!   applied and reverted once per tree node rather than once per plan. A
//!   merge in plan order gives every plan the sequences it tested in its
//!   own enumeration order, so the report is the per-plan walk's.
//! * [`compare_programs_naive`] — the original odometer that materializes and
//!   replays every sequence from scratch. It is retained as an executable
//!   reference semantics: a differential property test asserts the two
//!   engines produce identical [`EquivalenceReport`]s (same counterexample,
//!   same minimality, same `sequences_tested`) on random programs.
//!
//! A [`SourceOracle`] is the source side of every check of a synthesis run:
//! the fixed source program, its schema and the interned call ids that
//! cache keys are made of. It memoizes no outcomes. The walk keeps the
//! source's state after every prefix anyway, so each leaf evaluates the
//! source query on it — one compiled query, which costs less than looking
//! a sequence up in a memo would.
//!
//! Plans are compiled once per sketch, not once per check: a check compiles
//! each update and query call it tests through the [`PrefixCache`] it is
//! given (or a check-local one), which keeps every compiled plan keyed by
//! side, interned call and interned function body. The source's plans are
//! compiled by the sketch's first check; a later check compiles only the
//! target calls of function bodies no earlier check of the sketch has seen.
//! Subtrees are walked once per sketch the same way: the cache remembers
//! every (query plan, length) pair a check walked to exhaustion, keyed by
//! the plan's calls and the target bodies of the functions it calls, and a
//! later check with the same key counts that pair's sequences without
//! walking it (see [`compare_with_oracle`]).
//!
//! The walk itself is parallel: within one (tree, depth) walk, the subtrees
//! below the prefixes resolved at the cache depth (the *roots*) are
//! searched by worker threads (budgeted by the in-tree [`parpool`] shim).
//! Determinism is preserved by construction — root subtrees are merged in
//! enumeration order, each plan keeps its **lowest-index** counterexample,
//! and every root's work is a pure function of the candidate — so the
//! reported counterexample, `sequences_tested` and every counter of the
//! [`CheckProfile`] are byte-identical to the single-threaded trajectory at
//! any thread count. Tiny walks are searched inline because fork-join
//! overhead would dominate.
//!
//! **Undo-log correctness.** The in-place walk is equivalent to a
//! clone-per-node walk because (a) the journaled executor
//! (`exec_update_plan_journaled`) performs byte-for-byte the same
//! mutations, in the same order, with the same error occurrences, as the
//! plain executor it mirrors — it only *additionally* records inverses —
//! and (b) rolling the journal back to a mark restores the instance
//! exactly (see [`Journal`] for the inductive argument, including the
//! failing-statement case where partial mutations are journaled and undone
//! on the spot). A differential property test pins the in-place engine
//! against clone-and-restore on random programs: identical end instances
//! and identical [`EquivalenceReport`]s.
//!
//! Both engines apply a *relevance-closure* optimization: when testing a
//! particular query function, only update functions whose (transitive) table
//! footprint can influence that query in either program are considered.
//! Updates outside the closure cannot change the query's result in either
//! program, so omitting them preserves both soundness and minimality of the
//! search at a given bound.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use parpool::{CancelToken, StopCtx};

use crate::ast::{Function, FunctionBody, Program};
use crate::error::Error;
use crate::eval::{
    bind_args, exec_update_plan_journaled, prepare_rows_plan, prepare_update_plan, stream_rows,
    Journal, RowBuffers, RowsPlan, UpdatePlan,
};
use crate::instance::Instance;
use crate::invocation::{
    observe, resolve_query, resolve_update, Call, InvocationSequence, Outcome,
};
use crate::schema::{Schema, TableName};
use crate::value::{DataType, Value};

/// Configuration of the bounded testing procedure.
#[derive(Debug, Clone, PartialEq)]
pub struct TestConfig {
    /// Maximum number of update calls preceding the final query.
    pub max_updates: usize,
    /// Seed constants used for integer parameters.
    pub int_seeds: Vec<i64>,
    /// Seed constants used for string parameters.
    pub string_seeds: Vec<String>,
    /// Seed constants used for binary parameters.
    pub binary_seeds: Vec<Vec<u8>>,
    /// Seed constants used for boolean parameters.
    pub bool_seeds: Vec<bool>,
    /// Seed constants used for identifier parameters. These are minted as
    /// [`Value::Uid`] payloads (see [`TestConfig::seeds`]), so they should
    /// cover the identifiers the evaluator generates for the first few
    /// inserts: `0, 1, …`. Unsigned on purpose: the evaluator's uid counter
    /// starts at zero, so a negative seed could never match anything.
    pub id_seeds: Vec<u64>,
    /// Maximum number of argument combinations explored per function
    /// (`None` for no cap).  Combinations are enumerated deterministically,
    /// so the cap keeps very wide functions tractable.
    pub max_arg_combinations: Option<usize>,
    /// If `true`, restrict the update functions considered for a given query
    /// to the relevance closure described in the module documentation.
    pub cluster_by_tables: bool,
}

impl Default for TestConfig {
    fn default() -> TestConfig {
        TestConfig {
            max_updates: 2,
            int_seeds: vec![0, 1],
            string_seeds: vec!["A".to_string(), "B".to_string()],
            binary_seeds: vec![vec![0xaa], vec![0xbb]],
            bool_seeds: vec![true, false],
            id_seeds: vec![0, 1],
            max_arg_combinations: Some(16),
            cluster_by_tables: true,
        }
    }
}

impl TestConfig {
    /// A configuration with a deeper bound (three preceding updates), used
    /// as the final verification pass. The argument-combination cap is kept
    /// small because the sequence space grows cubically in it.
    pub fn thorough() -> TestConfig {
        TestConfig {
            max_updates: 3,
            int_seeds: vec![0, 1, 2],
            max_arg_combinations: Some(8),
            ..TestConfig::default()
        }
    }

    /// The seed values available for a parameter of type `ty`.
    ///
    /// Identifier parameters are seeded as [`Value::Uid`], **not**
    /// [`Value::Int`]: the evaluator mints `Value::Uid(n)` for surrogate
    /// keys, and equality across variants is strict
    /// (`Value::Int(n) != Value::Uid(n)`). Seeding `Int` here would make
    /// every Id-keyed lookup a guaranteed miss, so candidates disagreeing
    /// only on Id-keyed queries would be indistinguishable — an unsound
    /// acceptance. This method is the single place where the testing side
    /// of the Uid/Int equality domain is decided.
    pub fn seeds(&self, ty: DataType) -> Vec<Value> {
        match ty {
            DataType::Int => self.int_seeds.iter().map(|&v| Value::Int(v)).collect(),
            DataType::String => self.string_seeds.iter().map(Value::str).collect(),
            DataType::Binary => self.binary_seeds.iter().map(Value::bytes).collect(),
            DataType::Bool => self.bool_seeds.iter().map(|&b| Value::Bool(b)).collect(),
            DataType::Id => self.id_seeds.iter().map(|&v| Value::Uid(v)).collect(),
        }
    }

    /// All argument combinations (Cartesian product of per-parameter seeds)
    /// for `function`, capped at [`TestConfig::max_arg_combinations`].
    pub fn arg_combinations(&self, function: &Function) -> Vec<Vec<Value>> {
        let mut combos: Vec<Vec<Value>> = vec![Vec::new()];
        for param in &function.params {
            let seeds = self.seeds(param.ty);
            let mut next = Vec::with_capacity(combos.len() * seeds.len().max(1));
            for combo in &combos {
                for seed in &seeds {
                    let mut extended = combo.clone();
                    extended.push(*seed);
                    next.push(extended);
                }
            }
            combos = next;
            if let Some(cap) = self.max_arg_combinations {
                if combos.len() > cap {
                    combos.truncate(cap);
                }
            }
        }
        combos
    }
}

/// The result of a bounded equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceReport {
    /// `true` if no failing input was found within the bound.
    pub equivalent: bool,
    /// The minimum failing input, if one was found.
    pub counterexample: Option<InvocationSequence>,
    /// Number of invocation sequences executed.
    pub sequences_tested: usize,
    /// `true` if the check was abandoned because the caller's
    /// [`CancelToken`] fired (see [`compare_with_oracle`]). A cancelled
    /// report carries **no verdict**: `equivalent` is `false` and
    /// `counterexample` is `None`, and `sequences_tested` reflects only the
    /// work done before the interruption. Always `false` for a check run
    /// without a token.
    pub cancelled: bool,
}

/// Per-check phase accounting for one bounded equivalence check, filled by
/// [`compare_with_oracle`].
///
/// The profile travels *next to* the [`EquivalenceReport`], never inside it:
/// the report is compared structurally by the engine-differential tests and
/// must stay free of wall-clock noise.
///
/// Determinism: every counter is identical at any thread count. Plans are
/// compiled and prefix states resolved on the check's calling thread before
/// the parallel walk, through the check's [`PrefixCache`], so
/// `plans_compiled` and `prefix_cache_hits` depend only on the checks that
/// shared that cache before. Below the resolved roots each root's walk —
/// its one detaching snapshot, its copy-on-write copies, its journal frames
/// and rollbacks — is a pure function of the candidate and of the plans
/// its tree walk serves, which the merge in plan order fixes before the
/// split. The index-ordered merge absorbs exactly the roots the sequential
/// walk would have visited, so `snapshots_taken`, `snapshot_bytes_copied`,
/// `undo_frames` and `undo_ops_rolled_back` are too. All `*_time` fields
/// are wall-clock and may not be compared across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckProfile {
    /// Time spent preparing the check: interning its calls and function
    /// bodies, and compiling the plans its [`PrefixCache`] did not hold yet.
    pub plan_compile_time: Duration,
    /// Number of update/query plan compilations performed.
    pub plans_compiled: u64,
    /// Time spent walking the prefix-shared search tree (includes both
    /// sides' query evaluation and snapshot copying).
    pub dfs_time: Duration,
    /// Time spent cloning instance snapshots inside the walk. COW clones
    /// only — the in-place walk takes no per-node clones.
    pub snapshot_time: Duration,
    /// Number of instance snapshots cloned. Snapshots are COW-cheap: the
    /// physical cost is in `snapshot_bytes_copied`, not in this count.
    pub snapshots_taken: u64,
    /// Heap bytes **physically copied** for snapshots: per-clone pointer
    /// overhead plus the copy-on-write table copies triggered by mutating a
    /// shared instance. (Before the COW representation this field counted
    /// the full logical heap of every clone.)
    pub snapshot_bytes_copied: u64,
    /// Update-prefix states served from the check's [`PrefixCache`] instead
    /// of re-executed: states an earlier check through a shared cache
    /// executed, and states an earlier depth of this check executed. Each
    /// update tree's roots are looked up once per length, however many
    /// plans share the tree. A (plan, length) pair skipped for a remembered
    /// verdict resolves no state, so a tree whose every plan is remembered
    /// adds no hits.
    /// Deterministic at any thread count: every lookup happens on the
    /// check's calling thread, between parallel sections (see
    /// [`PrefixCache`]).
    pub prefix_cache_hits: u64,
    /// Update calls executed in place with their inverses journaled (one
    /// frame per journaled execution: once per node of an update tree's
    /// walk, however many plans the walk serves).
    pub undo_frames: u64,
    /// Row-level inverse operations replayed while backtracking (rows
    /// un-pushed, rows re-inserted, cells restored).
    pub undo_ops_rolled_back: u64,
}

impl CheckProfile {
    /// Adds another profile's times and counters into this one.
    pub fn merge(&mut self, other: &CheckProfile) {
        self.plan_compile_time += other.plan_compile_time;
        self.plans_compiled += other.plans_compiled;
        self.dfs_time += other.dfs_time;
        self.snapshot_time += other.snapshot_time;
        self.snapshots_taken += other.snapshots_taken;
        self.snapshot_bytes_copied += other.snapshot_bytes_copied;
        self.prefix_cache_hits += other.prefix_cache_hits;
        self.undo_frames += other.undo_frames;
        self.undo_ops_rolled_back += other.undo_ops_rolled_back;
    }
}

/// Locally accumulated accounting for one walk: the physical-copy
/// high-water mark, clone/journal counters and the source queries its
/// leaves evaluated, folded into the caller's [`CheckProfile`] (and the
/// process-wide peak, and the oracle's [`SourceOracle::computes`]) once per
/// subtree instead of per node. Clones are clocked only when `timed` is
/// set, so unprofiled checks pay no clock reads on the hot path.
#[derive(Debug, Clone, Copy, Default)]
struct SnapStats {
    peak: usize,
    taken: u64,
    bytes: u64,
    nanos: u64,
    frames: u64,
    undone: u64,
    src_queries: usize,
    timed: bool,
}

impl SnapStats {
    fn fresh(&self) -> SnapStats {
        SnapStats {
            timed: self.timed,
            ..SnapStats::default()
        }
    }

    fn absorb(&mut self, other: &SnapStats) {
        self.peak = self.peak.max(other.peak);
        self.taken += other.taken;
        self.bytes += other.bytes;
        self.nanos += other.nanos;
        self.frames += other.frames;
        self.undone += other.undone;
        self.src_queries += other.src_queries;
    }
}

/// A minimal FNV-1a hasher for the prefix cache's maps.
///
/// The cache is probed for every call a check compiles and every prefix it
/// resolves, with keys made of small interned ids — exactly the shape FNV
/// is good at. (DoS-resistant hashing is pointless here: keys are internal
/// interned ids, not attacker-controlled input.)
#[derive(Debug, Clone)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &byte in bytes {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }
}

type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

/// The source side of every bounded check: the source program, its schema,
/// and the `u32` ids of the calls that [`PrefixCache`] keys are made of.
///
/// During sketch completion the source program is fixed while many
/// candidate programs are checked against it, so one oracle is threaded
/// through every check of a synthesis run — and shared by its worker
/// threads — and each distinct [`Call`] keeps one id for the whole run.
/// Calls are interned behind a read-mostly `RwLock`, consulted once per
/// call while a check is prepared, not while it walks.
///
/// The oracle keeps no outcomes. The walk executes every source update in
/// place, so each leaf has the source state at hand and evaluates the
/// source query on it: one compiled query, cheaper than the lookup a memo
/// of source outcomes per sequence would take, and with no memo the oracle
/// holds no memory that grows with the number of sequences tested.
#[derive(Debug)]
pub struct SourceOracle<'p> {
    program: &'p Program,
    schema: &'p Schema,
    /// Interning table: one id per distinct call ever seen.
    call_ids: RwLock<HashMap<Call, u32>>,
    /// Source-query evaluations, added by each check once, at its end.
    computes: AtomicUsize,
}

impl<'p> SourceOracle<'p> {
    /// Creates the source side of checks of `program` over `schema`.
    pub fn new(program: &'p Program, schema: &'p Schema) -> SourceOracle<'p> {
        SourceOracle {
            program,
            schema,
            call_ids: RwLock::new(HashMap::new()),
            computes: AtomicUsize::new(0),
        }
    }

    /// The source program the oracle answers for.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The schema the source program runs over.
    pub fn schema(&self) -> &'p Schema {
        self.schema
    }

    /// Always 0: the oracle memoizes no outcomes. Kept only because the
    /// benchmark's replay (`perfbench/src/replay.rs`) still reports a hit
    /// ratio from it.
    pub fn hits(&self) -> usize {
        0
    }

    /// Number of source-query evaluations so far: one per leaf whose
    /// outcomes a check compared, plus one per [`SourceOracle::observe`].
    /// Each check adds its count once, when it ends.
    pub fn computes(&self) -> usize {
        self.computes.load(Ordering::Relaxed)
    }

    /// The interned id of `call`, assigning a fresh one on first sight.
    fn intern(&self, call: &Call) -> u32 {
        if let Some(&id) = self
            .call_ids
            .read()
            .expect("oracle intern table poisoned")
            .get(call)
        {
            return id;
        }
        let mut map = self.call_ids.write().expect("oracle intern table poisoned");
        let next = map.len();
        *map.entry(call.clone())
            .or_insert_with(|| u32::try_from(next).expect("more than u32::MAX distinct calls"))
    }

    /// The source outcome for `sequence`, replayed from the empty instance.
    pub fn observe(&self, sequence: &InvocationSequence) -> Outcome {
        self.computes.fetch_add(1, Ordering::Relaxed);
        observe(self.program, self.schema, sequence)
    }
}

/// Per-query execution plan shared by both engines: the query calls to
/// observe and the update calls eligible to precede them.
#[derive(Debug)]
struct QueryPlan {
    query_calls: Vec<Call>,
    update_calls: Vec<Call>,
}

impl QueryPlan {
    /// The sequence of the update calls at `path`, then the query call at
    /// `query`.
    fn sequence(&self, path: &[usize], query: usize) -> InvocationSequence {
        let updates = path.iter().map(|&i| self.update_calls[i].clone()).collect();
        InvocationSequence::new(updates, self.query_calls[query].clone())
    }

    /// The plan of the source function at position `query` over the update
    /// functions at positions `updates`, with the position of each update
    /// call's function.
    fn new(
        config: &TestConfig,
        source: &Program,
        query: usize,
        updates: &[usize],
    ) -> (QueryPlan, Vec<usize>) {
        let calls = |position: usize| {
            let function = &source.functions[position];
            config
                .arg_combinations(function)
                .into_iter()
                .map(move |args| (position, Call::new(function.name.clone(), args)))
        };
        let (update_functions, update_calls) = updates.iter().flat_map(|&u| calls(u)).unzip();
        let plan = QueryPlan {
            query_calls: calls(query).map(|(_, call)| call).collect(),
            update_calls,
        };
        (plan, update_functions)
    }
}

/// Builds one [`QueryPlan`] per source query function.
fn build_plans(source: &Program, target: &Program, config: &TestConfig) -> Vec<QueryPlan> {
    selections(source, target, config)
        .into_iter()
        .map(|(query, updates)| QueryPlan::new(config, source, query, &updates).0)
        .collect()
}

/// Each source query's position in the source program, with the positions
/// of the update functions its plan includes, in source order: the
/// relevance closure under [`TestConfig::cluster_by_tables`], every update
/// otherwise. Each update's footprint is derived once and shared by every
/// query.
fn selections(source: &Program, target: &Program, config: &TestConfig) -> Vec<(usize, Vec<usize>)> {
    let positions = |query: bool| {
        (0..source.functions.len()).filter(move |&f| source.functions[f].is_query() == query)
    };
    let updates: Vec<usize> = positions(false).collect();
    let footprints: Vec<Vec<TableName>> = updates
        .iter()
        .map(|&update| footprint(&source.functions[update], target))
        .collect();
    positions(true)
        .map(|query| {
            let selected = if config.cluster_by_tables {
                let tables = footprint(&source.functions[query], target);
                relevant_updates(tables, &footprints)
            } else {
                vec![true; updates.len()]
            };
            let chosen = updates
                .iter()
                .zip(selected)
                .filter_map(|(&update, selected)| selected.then_some(update))
                .collect();
            (query, chosen)
        })
        .collect()
}

/// The tables `function` touches in the source program, together with
/// those its namesake touches in `target`.
fn footprint(function: &Function, target: &Program) -> Vec<TableName> {
    let mut tables = function.tables();
    if let Some(namesake) = target.function(&function.name) {
        tables.extend(namesake.tables());
    }
    tables
}

/// Computes the relevance closure for one query function, given its table
/// footprint in either program: which of the updates (with `footprints`, in
/// source order) can transitively influence the query's tables.
fn relevant_updates(query_tables: Vec<TableName>, footprints: &[Vec<TableName>]) -> Vec<bool> {
    let mut reachable: HashSet<TableName> = query_tables.into_iter().collect();
    let mut selected = vec![false; footprints.len()];
    loop {
        let mut changed = false;
        for (footprint, selected) in footprints.iter().zip(&mut selected) {
            if !*selected && footprint.iter().any(|t| reachable.contains(t)) {
                *selected = true;
                reachable.extend(footprint.iter().copied());
                changed = true;
            }
        }
        if !changed {
            return selected;
        }
    }
}

/// Runs the bounded equivalence check of `target` (over `target_schema`)
/// against `source` (over `source_schema`) and reports the outcome together
/// with the number of sequences executed.
///
/// Sequences are enumerated in increasing number of update calls, so a
/// reported counterexample is a **minimum failing input**: it has minimal
/// length among all sequences expressible with the configured seed
/// constants.
///
/// This is [`compare_with_oracle`] with a throwaway [`SourceOracle`]; it
/// produces reports identical to [`compare_programs_naive`].
pub fn compare_programs(
    source: &Program,
    source_schema: &Schema,
    target: &Program,
    target_schema: &Schema,
    config: &TestConfig,
) -> EquivalenceReport {
    let oracle = SourceOracle::new(source, source_schema);
    compare_with_oracle(&oracle, target, target_schema, config, None, None, None)
}

/// High-water mark (bytes) of the largest single **physical copy** performed
/// for a snapshot, process-wide: either a COW clone's pointer overhead or
/// one copy-on-write table copy. A cheap allocation proxy the benchmark
/// harness records next to wall times: structural sharing shrinks exactly
/// this number, so regressions in snapshot cost show up even when wall time
/// is noisy. (Before the COW representation this tracked the full logical
/// heap of the largest clone — shared rows are no longer double-counted.)
static SNAPSHOT_PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The largest single physical snapshot copy (bytes) since the last
/// [`reset_snapshot_peak`].
pub fn snapshot_peak_bytes() -> usize {
    SNAPSHOT_PEAK_BYTES.load(Ordering::Relaxed)
}

/// Resets the snapshot high-water mark (call between benchmark runs).
pub fn reset_snapshot_peak() {
    SNAPSHOT_PEAK_BYTES.store(0, Ordering::Relaxed);
}

/// The execution state of one program after some update prefix: either a
/// live snapshot (instance plus the evaluator's fresh-identifier counter) or
/// the error the prefix failed with. A failed prefix stays failed for every
/// extension, mirroring how a straight-line replay stops at the first error.
#[derive(Debug)]
enum ExecState {
    Live(Instance, u64),
    Failed(Error),
}

/// One side's state after an update prefix, as [`PrefixCache`] keeps it:
/// the state, and whether the prefix's last call changed it. A call that
/// changed nothing shares its parent's state.
#[derive(Debug, Clone)]
struct Resolved {
    state: Arc<ExecState>,
    changed: bool,
}

/// Longest update-prefix length kept by [`PrefixCache`]. Level-1 and
/// level-2 prefixes cover the dominant share of re-executed update calls
/// (fanout `k` gives `k + k²` cacheable nodes per subtree) while keeping the
/// cache's footprint quadratic, not exponential, in the fanout.
const PREFIX_CACHE_DEPTH: usize = 2;

/// Hard cap on cached prefix states. Insertions beyond it are skipped (the
/// computed state is still returned), which keeps eviction deterministic —
/// entries are only ever added, in a deterministic order, never dropped.
const PREFIX_CACHE_CAPACITY: usize = 1 << 17;

/// Cross-candidate cache of compiled plans, update-prefix execution states
/// and exhausted-subtree verdicts, keyed by *semantic identity* —
/// oracle-interned calls paired with the interned bodies of the functions
/// they invoke — rather than by candidate.
///
/// During sketch completion the bounded-testing engine compiles the same
/// calls, re-executes the same short update prefixes and re-walks the same
/// subtrees for every candidate: the source program never changes, and
/// successive candidates usually differ in only a few update functions.
/// One `PrefixCache` per sketch run lets every check reuse:
///
/// * the compiled plan of every call whose function body it has seen
///   before, keyed by `(side, call id, body id)` — so the source's plans
///   compile once per sketch and the target's once per distinct body;
/// * the executed states of prefixes whose calls *and* function bodies it
///   has seen before — typically the entire source side after the first
///   candidate, plus every target prefix not touching a changed hole —
///   instead of re-running them from the empty instance. Each state
///   records whether the prefix's last call changed that side; one that
///   did not shares its parent's state, and a prefix whose last call
///   changed neither side is counted, not walked (see
///   [`compare_with_oracle`]);
/// * the verdict of every (query plan, length) pair an earlier check walked
///   to exhaustion, keyed by the plan's call list and the target body of
///   each function the plan calls. Nothing else enters that walk — the
///   source program is fixed for the cache's oracle — so a check skips a
///   remembered pair and counts its sequences unrun.
///
/// A check also prepares in proportion to what changed: the source
/// program's bodies are interned once per cache, a target function equal to
/// the last check's keeps its body id unprinted, and a plan's calls, their
/// oracle ids and its source-side plans are kept for as long as checks test
/// the same call list. Within a check the plans that test the same update
/// calls share an update tree, whose roots the check looks up here once
/// per length for all of them; a prefix key names calls and bodies, not
/// plans, so the trees of different plans and checks share entries too.
///
/// A cache belongs to one [`SourceOracle`] (its call ids and source
/// program) and one target schema (its plans), as a sketch run does. A check
/// given no cache runs through a check-local one, which shares prefix states
/// only between the depths of that check's own walk. The cache holds
/// states, plans and exhausted verdicts, never query outcomes: every
/// sequence a check runs evaluates its queries on the walk's own states, on
/// both sides.
///
/// All access is sequential: the cache is handed down as `&mut` and
/// consulted only on the check's calling thread, between parallel sections
/// (see [`compare_with_oracle`]). [`PrefixCache::hits`], the number of plans
/// compiled and the verdicts remembered are therefore byte-identical at any
/// thread count.
#[derive(Debug, Default)]
pub struct PrefixCache {
    /// Interned function bodies: pretty-printed text → id. Two functions
    /// share an id exactly when they are structurally identical, so a body
    /// id in a key is an exact fingerprint, not a lossy hash.
    bodies: HashMap<String, u32, FnvBuild>,
    /// The body id of each source function, in source order, interned by
    /// the cache's first check.
    source_bodies: Vec<u32>,
    /// The target function the last check found under each source
    /// function's name, with its body id.
    target_bodies: Vec<Option<(Function, u32)>>,
    /// The configurations checks through this cache have run under, so a
    /// plan can be found again by the position of its configuration.
    configs: Vec<TestConfig>,
    /// Interned plans by (configuration position, query position, the
    /// positions of the query's selected updates).
    plans: HashMap<(usize, usize, Vec<usize>), Arc<InternedPlan>, FnvBuild>,
    /// Interned call lists → id (see [`InternedPlan::list`]).
    call_lists: HashMap<Box<[u32]>, u32, FnvBuild>,
    /// Remembered verdicts: bit `l` of a plan's entry is set once a check
    /// walked the plan at length `l` to exhaustion.
    exhausted: HashMap<VerdictKey, u64, FnvBuild>,
    /// Compiled update and query plans.
    compiled: CompiledPlans,
    /// Prefix key → the state after executing that prefix from the empty
    /// instance, and whether its last call changed that side.
    states: HashMap<PrefixKey, Resolved, FnvBuild>,
    hits: u64,
}

/// A remembered verdict's key: the plan's interned call list and the target
/// body id of every function it calls — its selected updates, then its
/// query.
type VerdictKey = (u32, Box<[u32]>);

/// A prefix-cache key: the side, and each step of an update prefix as its
/// oracle-interned call paired with the interned body of the function it
/// invokes — the candidate-invariant semantics of the prefix. A cached
/// prefix has at most [`PREFIX_CACHE_DEPTH`] steps; the unused ones are
/// zero.
#[derive(Debug, PartialEq, Eq, Hash)]
struct PrefixKey {
    target: bool,
    len: usize,
    steps: [(u32, u32); PREFIX_CACHE_DEPTH],
}

/// A compiled-plan key: `(is_target_side, call id, body id)`.
type PlanKey = (bool, u32, u32);

/// One side of a check while its plans are compiled.
#[derive(Clone, Copy)]
struct Side<'a> {
    target: bool,
    program: &'a Program,
    schema: &'a Schema,
}

/// Compiled plans by [`PlanKey`], shared by every check through one cache.
#[derive(Debug, Default)]
struct CompiledPlans {
    updates: HashMap<PlanKey, Arc<PreparedUpdate>, FnvBuild>,
    queries: HashMap<PlanKey, Arc<PreparedQuery>, FnvBuild>,
    /// Plans compiled into either map so far.
    count: u64,
}

impl CompiledPlans {
    /// The plan of each of `calls` on `side` (interned as `ids`, invoking
    /// functions with the body ids `bodies`) from `memo`, compiling with
    /// `compile` — and counting in `count` — only those whose key is not
    /// there yet.
    fn each<T>(
        memo: &mut HashMap<PlanKey, Arc<T>, FnvBuild>,
        count: &mut u64,
        side: Side<'_>,
        calls: &[Call],
        ids: &[u32],
        bodies: impl Iterator<Item = u32>,
        compile: fn(&Program, &Schema, &Call) -> T,
    ) -> Vec<Arc<T>> {
        calls
            .iter()
            .zip(ids)
            .zip(bodies)
            .map(|((call, &id), body)| {
                let plan = memo.entry((side.target, id, body)).or_insert_with(|| {
                    *count += 1;
                    Arc::new(compile(side.program, side.schema, call))
                });
                Arc::clone(plan)
            })
            .collect()
    }

    fn updates(
        &mut self,
        side: Side<'_>,
        calls: &[Call],
        ids: &[u32],
        bodies: &[u32],
    ) -> Vec<Arc<PreparedUpdate>> {
        let bodies = bodies.iter().copied();
        Self::each(
            &mut self.updates,
            &mut self.count,
            side,
            calls,
            ids,
            bodies,
            prepare_update,
        )
    }

    fn queries(
        &mut self,
        side: Side<'_>,
        calls: &[Call],
        ids: &[u32],
        body: u32,
    ) -> Vec<Arc<PreparedQuery>> {
        let bodies = std::iter::repeat(body);
        Self::each(
            &mut self.queries,
            &mut self.count,
            side,
            calls,
            ids,
            bodies,
            prepare_query,
        )
    }
}

/// One query's plan as a [`PrefixCache`] keeps it across checks: its calls,
/// their oracle ids and the source side's compiled plans. All of it is fixed
/// by the plan's configuration and selected updates, because the source
/// program is.
#[derive(Debug)]
struct InternedPlan {
    calls: QueryPlan,
    /// Oracle ids, parallel to `calls.update_calls`.
    update_ids: Vec<u32>,
    /// Oracle ids, parallel to `calls.query_calls`.
    query_ids: Vec<u32>,
    /// The interned id of the whole call list: the number of update calls,
    /// then `update_ids`, then `query_ids`.
    list: u32,
    /// The source-function position of each selected update, in order.
    updates: Vec<usize>,
    /// The source-function position of the query.
    query: usize,
    /// The source-function position of each update call's function,
    /// parallel to `calls.update_calls`.
    update_functions: Vec<usize>,
    /// Source-side body ids, parallel to `calls.update_calls`.
    src_body_ids: Vec<u32>,
    src_updates: Vec<Arc<PreparedUpdate>>,
    src_queries: Vec<Arc<PreparedQuery>>,
}

impl InternedPlan {
    /// The number of sequences of `length` update calls the plan tests.
    fn sequences(&self, length: usize) -> usize {
        let length = u32::try_from(length).unwrap_or(u32::MAX);
        self.calls
            .update_calls
            .len()
            .saturating_pow(length)
            .saturating_mul(self.calls.query_calls.len())
    }
}

/// One plan's target side for one check: its calls' body ids and compiled
/// plans against the candidate.
struct TargetPlans {
    /// Target-side body ids, parallel to `calls.update_calls`.
    body_ids: Vec<u32>,
    updates: Vec<Arc<PreparedUpdate>>,
    queries: Vec<Arc<PreparedQuery>>,
}

/// One plan as one check tests it.
struct CheckPlan {
    plan: Arc<InternedPlan>,
    /// The plan's update tree: plans whose relevance closures select the
    /// same update functions test the same update calls, so they share a
    /// tree. Trees are numbered in the order of their first plans.
    tree: usize,
    key: VerdictKey,
    /// The lengths an earlier check walked this plan to exhaustion at (bit
    /// `l` for length `l`), as the cache held them when the check began.
    exhausted: u64,
    /// `None` when every length the check tests is remembered.
    target: Option<TargetPlans>,
}

impl CheckPlan {
    /// Whether an earlier check walked this plan at `length` to
    /// exhaustion. Lengths of 64 and more are never remembered.
    fn remembered(&self, length: usize) -> bool {
        verdict_bit(length).is_some_and(|bit| self.exhausted & bit != 0)
    }
}

/// The bit of a [`VerdictKey`]'s entry that stands for `length`.
fn verdict_bit(length: usize) -> Option<u64> {
    u32::try_from(length)
        .ok()
        .and_then(|length| 1u64.checked_shl(length))
}

impl PrefixCache {
    /// An empty cache.
    pub fn new() -> PrefixCache {
        PrefixCache::default()
    }

    /// Update-prefix states served from the cache so far, across all checks
    /// that shared this cache. Deterministic at any thread count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of distinct prefix states currently cached.
    pub fn cached_states(&self) -> usize {
        self.states.len()
    }

    /// The interned id of `name`'s body in `program`. A program with no
    /// such function gets a reserved per-name id — such calls fail
    /// identically for every candidate, so sharing their entries is sound.
    fn intern_function(&mut self, program: &Program, name: &str) -> u32 {
        let text = match program.function(name) {
            Some(function) => crate::pretty::function_to_string(function),
            None => format!("<missing: {name}>"),
        };
        let next = self.bodies.len();
        *self.bodies.entry(text).or_insert_with(|| {
            u32::try_from(next).expect("more than u32::MAX distinct function bodies")
        })
    }

    /// The body id of the function `target` defines under each source
    /// function's name, printing only the functions that differ from the
    /// ones the last check saw.
    fn target_bodies(&mut self, target: &Program, source: &Program) -> Vec<u32> {
        self.target_bodies.resize(source.functions.len(), None);
        let mut ids = Vec::with_capacity(source.functions.len());
        for (position, function) in source.functions.iter().enumerate() {
            let current = target.function(&function.name);
            let id = match (&self.target_bodies[position], current) {
                (Some((seen, id)), Some(current)) if seen == current => *id,
                _ => {
                    let id = self.intern_function(target, &function.name);
                    self.target_bodies[position] = current.map(|f| (f.clone(), id));
                    id
                }
            };
            ids.push(id);
        }
        ids
    }

    /// The plan of the source query at position `query` over the source
    /// updates at positions `updates`, with its calls interned through the
    /// oracle and its source side compiled.
    fn intern_plan(
        &mut self,
        oracle: &SourceOracle<'_>,
        config: &TestConfig,
        query: usize,
        updates: &[usize],
    ) -> InternedPlan {
        let source = oracle.program();
        let (calls, update_functions) = QueryPlan::new(config, source, query, updates);
        let update_ids: Vec<u32> = calls
            .update_calls
            .iter()
            .map(|c| oracle.intern(c))
            .collect();
        let query_ids: Vec<u32> = calls.query_calls.iter().map(|c| oracle.intern(c)).collect();
        let split = u32::try_from(update_ids.len()).expect("more than u32::MAX update calls");
        let list: Box<[u32]> = std::iter::once(split)
            .chain(update_ids.iter().copied())
            .chain(query_ids.iter().copied())
            .collect();
        let next = u32::try_from(self.call_lists.len()).expect("more than u32::MAX call lists");
        let list = *self.call_lists.entry(list).or_insert(next);
        let src_body_ids: Vec<u32> = update_functions
            .iter()
            .map(|&f| self.source_bodies[f])
            .collect();
        let side = Side {
            target: false,
            program: source,
            schema: oracle.schema(),
        };
        InternedPlan {
            src_updates: self.compiled.updates(
                side,
                &calls.update_calls,
                &update_ids,
                &src_body_ids,
            ),
            src_queries: self.compiled.queries(
                side,
                &calls.query_calls,
                &query_ids,
                self.source_bodies[query],
            ),
            calls,
            update_ids,
            query_ids,
            list,
            updates: updates.to_vec(),
            query,
            update_functions,
            src_body_ids,
        }
    }

    /// The plans of one check. A plan's target side is compiled only if the
    /// check has a length of it left to walk, and only for the
    /// `(side, call, body)` keys no earlier check through this cache
    /// compiled.
    fn prepare(
        &mut self,
        oracle: &SourceOracle<'_>,
        target: &Program,
        target_schema: &Schema,
        config: &TestConfig,
    ) -> Vec<CheckPlan> {
        let source = oracle.program();
        if self.source_bodies.len() != source.functions.len() {
            self.source_bodies = source
                .functions
                .iter()
                .map(|f| self.intern_function(source, &f.name))
                .collect();
        }
        let target_bodies = self.target_bodies(target, source);
        let config_index = match self.configs.iter().position(|seen| seen == config) {
            Some(index) => index,
            None => {
                self.configs.push(config.clone());
                self.configs.len() - 1
            }
        };
        let target_side = Side {
            target: true,
            program: target,
            schema: target_schema,
        };
        let mut plans: Vec<CheckPlan> = Vec::new();
        let mut trees: Vec<Vec<usize>> = Vec::new();
        for (query, updates) in selections(source, target, config) {
            let tree = match trees.iter().position(|tree| *tree == updates) {
                Some(tree) => tree,
                None => {
                    trees.push(updates.clone());
                    trees.len() - 1
                }
            };
            let plan_key = (config_index, query, updates);
            let plan = match self.plans.get(&plan_key) {
                Some(plan) => Arc::clone(plan),
                None => {
                    let plan = Arc::new(self.intern_plan(oracle, config, query, &plan_key.2));
                    self.plans.insert(plan_key, Arc::clone(&plan));
                    plan
                }
            };
            let key: VerdictKey = (
                plan.list,
                plan.updates
                    .iter()
                    .chain([&plan.query])
                    .map(|&f| target_bodies[f])
                    .collect(),
            );
            let exhausted = self.exhausted.get(&key).copied().unwrap_or(0);
            let mut check = CheckPlan {
                plan,
                tree,
                key,
                exhausted,
                target: None,
            };
            let last = if check.plan.calls.update_calls.is_empty() {
                0
            } else {
                config.max_updates
            };
            if !(0..=last).all(|length| check.remembered(length)) {
                let plan = &check.plan;
                let body_ids: Vec<u32> = plan
                    .update_functions
                    .iter()
                    .map(|&f| target_bodies[f])
                    .collect();
                check.target = Some(TargetPlans {
                    updates: self.compiled.updates(
                        target_side,
                        &plan.calls.update_calls,
                        &plan.update_ids,
                        &body_ids,
                    ),
                    queries: self.compiled.queries(
                        target_side,
                        &plan.calls.query_calls,
                        &plan.query_ids,
                        target_bodies[plan.query],
                    ),
                    body_ids,
                });
            }
            plans.push(check);
        }
        plans
    }

    /// Remembers that a check walked the plan with `key` at `length` to
    /// exhaustion.
    fn remember_exhausted(&mut self, key: &VerdictKey, length: usize) {
        let Some(bit) = verdict_bit(length) else {
            return;
        };
        match self.exhausted.get_mut(key) {
            Some(lengths) => *lengths |= bit,
            None => {
                self.exhausted.insert(key.clone(), bit);
            }
        }
    }

    /// The cached state for `key`, computing (and, capacity permitting,
    /// caching) it on a miss.
    fn resolve(&mut self, key: PrefixKey, compute: impl FnOnce() -> Resolved) -> Resolved {
        if let Some(resolved) = self.states.get(&key) {
            self.hits += 1;
            return resolved.clone();
        }
        let resolved = compute();
        if self.states.len() < PREFIX_CACHE_CAPACITY {
            self.states.insert(key, resolved.clone());
        }
        resolved
    }
}

/// The cache key of an update-call prefix of at most [`PREFIX_CACHE_DEPTH`]
/// steps on one side: each step pairs the oracle-interned call with the
/// interned body of the function it invokes, so the key changes exactly
/// when the prefix's semantics can.
fn prefix_key(target: bool, path: &[usize], update_ids: &[u32], body_ids: &[u32]) -> PrefixKey {
    let mut steps = [(0, 0); PREFIX_CACHE_DEPTH];
    for (step, &i) in steps.iter_mut().zip(path) {
        *step = (update_ids[i], body_ids[i]);
    }
    PrefixKey {
        target,
        len: path.len(),
        steps,
    }
}

/// Why a walk below one root stopped before its end.
enum Halt {
    /// The first plan the walk serves failed. That decides every plan it
    /// serves: the others come after it in plan order, so the merge never
    /// reaches them.
    Decided,
    /// The caller's [`CancelToken`] fired mid-subtree; the walk unwound
    /// without a verdict.
    Cancelled,
    /// A parallel root task bailed out because a lower-index root already
    /// holds a stopping result. Never observed by the index-ordered merge:
    /// an abort implies a stopping result at a strictly lower index, so the
    /// merge returns before reaching an aborted slot.
    Aborted,
}

/// What walks below one or more roots of a tree found for the plans they
/// serve, in plan order: the sequences each plan tested, in its own
/// enumeration order, and the first plan that failed, with its
/// counterexample. The plans after a failed one are dropped: the merge in
/// plan order returns at the failure before it reaches them, so their
/// counts stop early and are never read.
struct Tally {
    tested: Vec<usize>,
    failure: Option<Failure>,
}

/// Where a walk found a plan's first counterexample: the plan's index among
/// those the walk serves, the indices of the update calls before it and the
/// index of its query call. A failure costs a root no call clones; the
/// merge materializes only the one that decides its tree walk (see
/// [`QueryPlan::sequence`]).
struct Failure {
    plan: usize,
    path: Box<[usize]>,
    query: usize,
}

impl Tally {
    fn new(plans: usize) -> Tally {
        Tally {
            tested: vec![0; plans],
            failure: None,
        }
    }

    /// How many plans, from the first, are still undecided: those before
    /// the failed one, or all of them.
    fn live(&self) -> usize {
        self.failure
            .as_ref()
            .map_or(self.tested.len(), |failure| failure.plan)
    }

    /// Counts, for every undecided plan, its sequences with `length` update
    /// calls below the current node, without running them (see
    /// [`compare_with_oracle`]).
    fn count_agreed(&mut self, plans: &[Served<'_>], length: usize) {
        let live = self.live();
        for (tested, (plan, _)) in self.tested[..live].iter_mut().zip(plans) {
            *tested += plan.sequences(length);
        }
    }

    /// Adds the tally of the next root, in root order. A plan this tally
    /// has already decided takes nothing from it; a plan the root saw fail
    /// is decided here, unless an earlier one already is.
    fn absorb(&mut self, root: Tally) {
        let live = self.live();
        for (total, tested) in self.tested[..live].iter_mut().zip(&root.tested) {
            *total += tested;
        }
        if let Some(failure) = root.failure {
            if failure.plan < live {
                self.failure = Some(failure);
            }
        }
    }
}

/// One (plan, length) pair as the merge in plan order takes it: the
/// sequences it tested, through its counterexample if it has one.
struct Verdict {
    tested: usize,
    failure: Option<InvocationSequence>,
}

/// One plan's calls, pre-resolved and pre-bound against one program.
///
/// Function resolution, query/update kind checks, argument binding and
/// plan compilation are deterministic per (function body, call, schema),
/// so doing them once per sketch — instead of once per tested sequence —
/// preserves behaviour exactly: a call that would fail to resolve, bind or
/// compile simply fails every sequence it appears in, with an error a
/// straight-line replay would also report on every one of those sequences.
#[derive(Debug)]
enum PreparedUpdate {
    /// A compiled update plan: structural resolution and operand evaluation
    /// already done, execution touches rows only (see [`UpdatePlan`]).
    Ready(UpdatePlan),
    Failed(Error),
}

#[derive(Debug)]
enum PreparedQuery {
    /// A compiled rows-plan: structural resolution already done, execution
    /// touches rows only (see [`RowsPlan`]).
    Ready(RowsPlan),
    /// The call does not resolve, bind or compile, so every sequence that
    /// ends in it fails. Which error it fails with is never read.
    Failed,
}

fn prepare_update(program: &Program, schema: &Schema, call: &Call) -> PreparedUpdate {
    let function = match resolve_update(program, &call.function) {
        Ok(function) => function,
        Err(err) => return PreparedUpdate::Failed(err),
    };
    let env = match bind_args(function, &call.args) {
        Ok(env) => env,
        Err(err) => return PreparedUpdate::Failed(err),
    };
    let update = match &function.body {
        FunctionBody::Update(update) => update,
        FunctionBody::Query(_) => unreachable!("resolve_update rejects queries"),
    };
    match prepare_update_plan(schema, update, &env) {
        Ok(plan) => PreparedUpdate::Ready(plan),
        Err(err) => PreparedUpdate::Failed(err),
    }
}

fn prepare_query(program: &Program, schema: &Schema, call: &Call) -> PreparedQuery {
    let Ok(function) = resolve_query(program, &call.function) else {
        return PreparedQuery::Failed;
    };
    let Ok(env) = bind_args(function, &call.args) else {
        return PreparedQuery::Failed;
    };
    let FunctionBody::Query(query) = &function.body else {
        unreachable!("resolve_query rejects updates");
    };
    match prepare_rows_plan(schema, query, &env) {
        Ok((plan, _header)) => PreparedQuery::Ready(plan),
        Err(_) => PreparedQuery::Failed,
    }
}

/// Runs the bounded equivalence check of `target` against the source
/// program `oracle` holds. Both sides are walked in place, and every leaf
/// evaluates the source query on the walk's own source state; the check
/// adds the number of those evaluations to [`SourceOracle::computes`] when
/// it ends.
///
/// * `cancel` is polled at safe points of the walk (between subtrees and
///   every few hundred sequences inside one); when it fires the report
///   comes back with [`EquivalenceReport::cancelled`] set.
/// * `profile`, when supplied, receives the check's per-phase accounting
///   (plan compilation, tree walk, snapshot copying). Without one the check
///   takes no extra clock reads.
/// * `cache`, when supplied, shares compiled plans, executed update-prefix
///   states and exhausted (plan, length) verdicts with the other checks
///   that pass it; without one the check runs through a check-local cache.
///
/// None of the three changes *what* is reported — the verdict, the
/// counterexample and `sequences_tested` are the same with or without
/// them, and with a token that never fires; a cache changes only which
/// update executions and which exhausted subtrees are skipped.
///
/// **One walk per update tree.** The plans whose relevance closures select
/// the same update functions test the same update calls: they share an
/// update tree. For each length, in plan order, a tree is walked when its
/// first undecided plan comes up. Its roots — the first
/// `min(length, PREFIX_CACHE_DEPTH)` levels of calls — are resolved once
/// per length through the [`PrefixCache`]. Up to that depth every plan
/// reads its leaves off the shared roots when its turn comes. Above it, one
/// depth-first walk below each root serves every plan of the tree that is
/// not remembered and comes before the first plan known to fail at this
/// length, so each update call is applied and reverted once per tree node,
/// not once per plan. The merge reproduces the per-plan enumeration
/// exactly:
///
/// * Plans are decided in plan order, each with the sequences it tested in
///   its own enumeration order. A plan's walk stops at its first
///   counterexample; a counterexample also drops every later plan of the
///   walk, since the merge returns before it reaches them.
/// * The merge adds each plan's count to `sequences_tested` and returns at
///   the first plan that failed. A plan some earlier walk left undecided is
///   never reached: the plan that dropped it fails first.
///
/// **Counted, not walked.** Two kinds of subtrees are counted into the
/// plans they belong to instead of being walked, so the reports are what a
/// walk of every sequence gives:
///
/// * A remembered (plan, length) pair: a check through the same cache
///   walked it to exhaustion, and the walk of a pair is a function of the
///   pair's calls and function bodies alone. Only pairs a walk decided as
///   exhausted are remembered, never a failed, dropped or cancelled one.
/// * The subtree of an update call that changes neither side's state — it
///   journals no mutation, mints no identifier and sets no failure, like a
///   delete that finds no rows. Fix a plan `P` and a length `ℓ`. If the call
///   `u` after a prefix `p` changes neither side, every sequence `p·u·s·q`
///   observes on both sides exactly what `p·s·q` observes, a sequence of `P`
///   with `ℓ - 1` update calls. The check reaches length `ℓ` only after
///   every plan came back exhausted at `ℓ - 1`, walked or remembered, so
///   every skipped sequence agrees.
///
/// **Parallel roots.** A walk with enough leaves splits its roots over
/// worker threads with [`parpool::par_map_stop`]. Each root's walk serves
/// the plans the tree walk started with and drops plans only on its own
/// failures, so its work is a function of the candidate alone; a root stops
/// everything once the tree's first undecided plan fails in it. The roots
/// are merged in root order up to that root, so every counter of the
/// [`CheckProfile`] is the same at any thread count.
pub fn compare_with_oracle(
    oracle: &SourceOracle<'_>,
    target: &Program,
    target_schema: &Schema,
    config: &TestConfig,
    cancel: Option<&CancelToken>,
    mut profile: Option<&mut CheckProfile>,
    cache: Option<&mut PrefixCache>,
) -> EquivalenceReport {
    let timed = profile.is_some();
    let compile_start = timed.then(Instant::now);
    let mut local = PrefixCache::new();
    let cache = cache.unwrap_or(&mut local);
    let compiled_before = cache.compiled.count;
    let hits_before = cache.hits();
    let plans = cache.prepare(oracle, target, target_schema, config);
    if let (Some(profile), Some(start)) = (profile.as_deref_mut(), compile_start) {
        profile.plan_compile_time += start.elapsed();
        profile.plans_compiled += cache.compiled.count - compiled_before;
    }
    let schemas = (oracle.schema(), target_schema);
    let tree_count = plans.iter().map(|check| check.tree + 1).max().unwrap_or(0);
    let mut snap = SnapStats {
        timed,
        ..SnapStats::default()
    };
    let dfs_start = timed.then(Instant::now);

    // Iterative deepening: depth ℓ re-runs the update prefixes of depths
    // < ℓ, but the extra work is a geometric series dominated by the last
    // level, and it keeps memory at O(L) snapshots while preserving the
    // increasing-length enumeration that makes counterexamples minimal.
    // (An immediately-invoked closure, so the early returns of the search
    // still flow through the profile finalization below.)
    let mut walk = || -> EquivalenceReport {
        let mut sequences_tested = 0usize;
        let report =
            |sequences_tested, counterexample: Option<InvocationSequence>| EquivalenceReport {
                equivalent: counterexample.is_none(),
                counterexample,
                sequences_tested,
                cancelled: false,
            };
        let cancelled_report = |sequences_tested| EquivalenceReport {
            equivalent: false,
            counterexample: None,
            sequences_tested,
            cancelled: true,
        };
        for length in 0..=config.max_updates {
            let mut round = Round::new(length, plans.len(), tree_count);
            for (position, check) in plans.iter().enumerate() {
                let plan = &check.plan;
                if length > 0 && plan.calls.update_calls.is_empty() {
                    continue;
                }
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return cancelled_report(sequences_tested);
                }
                let verdict = if check.remembered(length) {
                    Verdict {
                        tested: plan.sequences(length),
                        failure: None,
                    }
                } else {
                    if round.verdicts[position].is_none() {
                        let walked =
                            round.walk_tree_of(&plans, position, cache, schemas, cancel, &mut snap);
                        if let Err(tested) = walked {
                            return cancelled_report(sequences_tested + tested);
                        }
                    }
                    round.verdicts[position]
                        .take()
                        .expect("the walk of a plan's tree decides it")
                };
                sequences_tested += verdict.tested;
                if verdict.failure.is_some() {
                    return report(sequences_tested, verdict.failure);
                }
            }
        }
        report(sequences_tested, None)
    };
    let report = walk();

    oracle
        .computes
        .fetch_add(snap.src_queries, Ordering::Relaxed);
    if let Some(profile) = profile {
        if let Some(start) = dfs_start {
            profile.dfs_time += start.elapsed();
        }
        profile.snapshot_time += Duration::from_nanos(snap.nanos);
        profile.snapshots_taken += snap.taken;
        profile.snapshot_bytes_copied += snap.bytes;
        profile.undo_frames += snap.frames;
        profile.undo_ops_rolled_back += snap.undone;
        profile.prefix_cache_hits += cache.hits() - hits_before;
    }
    report
}

/// One round of iterative deepening, at one length: each plan's verdict
/// once a walk of its tree decided it, each tree's roots once resolved, and
/// the first plan known to fail.
struct Round {
    length: usize,
    verdicts: Vec<Option<Verdict>>,
    roots: Vec<Option<Vec<Root>>>,
    first_failure: usize,
}

impl Round {
    fn new(length: usize, plans: usize, trees: usize) -> Round {
        Round {
            length,
            verdicts: (0..plans).map(|_| None).collect(),
            roots: (0..trees).map(|_| None).collect(),
            first_failure: plans,
        }
    }

    /// Walks the tree of `plans[position]`, its first undecided plan, and
    /// records the verdict of every plan the walk decides. Up to the cache
    /// depth the walk serves that plan alone, off roots shared with the
    /// tree's later plans; above it, every later plan of the tree too that
    /// is not remembered and comes before the first known failure. `Err`
    /// with the sequences the walk tested if the caller's token cancelled
    /// it.
    fn walk_tree_of(
        &mut self,
        plans: &[CheckPlan],
        position: usize,
        cache: &mut PrefixCache,
        schemas: (&Schema, &Schema),
        token: Option<&CancelToken>,
        snap: &mut SnapStats,
    ) -> Result<(), usize> {
        let (length, tree) = (self.length, plans[position].tree);
        let served: Vec<usize> = if length <= PREFIX_CACHE_DEPTH {
            vec![position]
        } else {
            (position..self.first_failure)
                .filter(|&later| plans[later].tree == tree && !plans[later].remembered(length))
                .collect()
        };
        let sides: Vec<Served<'_>> = served
            .iter()
            .map(|&served| {
                let check = &plans[served];
                let target = check.target.as_ref().expect("prepared: a length is left");
                (&*check.plan, target)
            })
            .collect();
        let roots = self.roots[tree]
            .get_or_insert_with(|| resolve_roots(cache, sides[0], schemas, length, snap));
        let (tally, cancelled) = walk_tree(schemas, &sides, roots, length, token, snap);
        if cancelled {
            return Err(tally.tested.iter().sum());
        }
        for (&served, &tested) in served[..tally.live()].iter().zip(&tally.tested) {
            cache.remember_exhausted(&plans[served].key, length);
            self.verdicts[served] = Some(Verdict {
                tested,
                failure: None,
            });
        }
        if let Some(failure) = tally.failure {
            self.first_failure = served[failure.plan];
            let calls = &plans[self.first_failure].plan.calls;
            self.verdicts[self.first_failure] = Some(Verdict {
                tested: tally.tested[failure.plan],
                failure: Some(calls.sequence(&failure.path, failure.query)),
            });
        }
        Ok(())
    }
}

/// One plan a tree walk serves: its calls and source side, and its target
/// side. Every plan of a tree has the same update calls on both sides.
type Served<'a> = (&'a InternedPlan, &'a TargetPlans);

/// What the walk below one root hands back: its tally, why it stopped
/// early if it did, and its accounting.
type RootRun = (Tally, Option<Halt>, SnapStats);

/// Smallest leaf count (summed over the plans a tree walk serves) for which
/// the walk is worth fork-join overhead; below it the roots are walked
/// inline.
const PARALLEL_LEAF_THRESHOLD: usize = 4096;

/// One resolved root of a tree: the update-call path to it (the first `len`
/// entries of `path`), both sides' states after that path, and whether its
/// last call changed neither side — such a root is counted, not walked or
/// expanded.
struct Root {
    path: [usize; PREFIX_CACHE_DEPTH],
    len: usize,
    src: Arc<ExecState>,
    tgt: Arc<ExecState>,
    unchanged: bool,
}

/// Resolves the roots of a tree at `length`, with the update calls of
/// `plan`, one of its plans: the first `min(length, PREFIX_CACHE_DEPTH)`
/// levels of the update-call tree, *sequentially, in lexicographic order*,
/// through the [`PrefixCache`]. Each prefix's executed source and target
/// states are either reused from an earlier candidate (or an earlier depth
/// of this one) or computed once and published. Candidates that differ only
/// in later update-function bodies — the common case in CEGIS, where one
/// hole flips per iteration — hit on every shared prefix. A prefix whose
/// last call changed neither side is not expanded: it becomes a root that
/// is counted in its place in the order, as the walk counts such a call's
/// subtree (see [`compare_with_oracle`]).
///
/// All cache access happens here, on the calling thread, at a sequential
/// point *before* any parallel split; the walks below the resolved roots
/// never touch the cache. Hit counts are therefore a pure function of the
/// candidate sequence — deterministic at any thread count — and the cache
/// needs no synchronization.
fn resolve_roots(
    cache: &mut PrefixCache,
    (plan, target): Served<'_>,
    (source_schema, target_schema): (&Schema, &Schema),
    length: usize,
    snap: &mut SnapStats,
) -> Vec<Root> {
    let fanout = plan.calls.update_calls.len();
    // Misses execute the update once and account the clone in a local
    // SnapStats folded below, exactly like a walk subtree.
    let mut resolve_snap = snap.fresh();
    let mut roots = vec![Root {
        path: [0; PREFIX_CACHE_DEPTH],
        len: 0,
        src: Arc::new(ExecState::Live(Instance::empty(source_schema), 0)),
        tgt: Arc::new(ExecState::Live(Instance::empty(target_schema), 0)),
        unchanged: false,
    }];
    for _ in 0..length.min(PREFIX_CACHE_DEPTH) {
        let mut next = Vec::with_capacity(roots.len() * fanout);
        for root in roots {
            if root.unchanged {
                next.push(root);
                continue;
            }
            for i in 0..fanout {
                let mut path = root.path;
                path[root.len] = i;
                let steps = &path[..=root.len];
                let src = cache.resolve(
                    prefix_key(false, steps, &plan.update_ids, &plan.src_body_ids),
                    || apply_update(&plan.src_updates[i], &root.src, &mut resolve_snap),
                );
                let tgt = cache.resolve(
                    prefix_key(true, steps, &plan.update_ids, &target.body_ids),
                    || apply_update(&target.updates[i], &root.tgt, &mut resolve_snap),
                );
                next.push(Root {
                    path,
                    len: root.len + 1,
                    src: src.state,
                    tgt: tgt.state,
                    unchanged: !src.changed && !tgt.changed,
                });
            }
        }
        roots = next;
    }
    fold_snapshot_peak(resolve_snap.peak);
    snap.absorb(&resolve_snap);
    roots
}

/// Walks one tree at `length` below its `roots` for the plans `served`, in
/// plan order, and merges what the roots found; `true` with it if the
/// caller's token cancelled the walk.
///
/// The roots are walked either sequentially in root order, or by
/// `par_map_stop`, each root task tallying into a private [`Tally`]. A
/// root's walk serves every plan of `served` until that plan, or an earlier
/// one, fails in it, and stops once the first plan fails in it, so its work
/// depends on the candidate alone. Merging the tallies in root order up to
/// the root where the first plan fails reproduces each plan's own
/// enumeration, its count *and* the walk's accounting exactly: the roots
/// before it contribute their whole subtrees, it contributes its walk up to
/// where it stopped, and later roots — which the sequential walk never
/// reaches — are discarded unread.
fn walk_tree(
    (source_schema, target_schema): (&Schema, &Schema),
    served: &[Served<'_>],
    roots: &[Root],
    length: usize,
    token: Option<&CancelToken>,
    snap: &mut SnapStats,
) -> (Tally, bool) {
    let base = length.min(PREFIX_CACHE_DEPTH);
    // Walks the `length - base` levels below one root and hands back the
    // walk's tally and accounting. An unchanged root's sequences are
    // counted instead.
    let blank = snap.fresh();
    let walk_root = |root: &Root, cancel: Option<(&StopCtx, usize)>| -> RootRun {
        let mut tally = Tally::new(served.len());
        if root.unchanged {
            tally.count_agreed(served, length - root.len);
            return (tally, None, blank);
        }
        let mut path = Vec::with_capacity(length);
        path.extend_from_slice(&root.path[..root.len]);
        let mut dfs = Dfs {
            plans: served,
            tally,
            path,
            cancel,
            token,
            polls: 0,
            snap: blank,
            src: WorkState::from_snapshot(&root.src, source_schema),
            tgt: WorkState::from_snapshot(&root.tgt, target_schema),
            leaf: LEAF_ROWS.take(),
        };
        let halt = dfs.walk(length - base).err();
        LEAF_ROWS.set(dfs.leaf);
        fold_snapshot_peak(dfs.snap.peak);
        (dfs.tally, halt, dfs.snap)
    };
    let leaves = served.iter().fold(0usize, |leaves, (plan, _)| {
        leaves.saturating_add(plan.sequences(length))
    });
    // Inline, the roots are walked lazily, so the merge's early exit stops
    // the walk too.
    let runs: Box<dyn Iterator<Item = RootRun>> =
        if roots.len() >= 2 && parpool::thread_limit() > 1 && leaves >= PARALLEL_LEAF_THRESHOLD {
            // A token cancellation is a stopping result too: it makes the whole
            // check moot, so still-queued roots are skipped instead of started.
            let stops =
                |(_, halt, _): &RootRun| matches!(halt, Some(Halt::Decided | Halt::Cancelled));
            let runs = parpool::par_map_stop(
                roots,
                |index, root, ctx| walk_root(root, Some((ctx, index))),
                stops,
            );
            Box::new(runs.into_iter().map_while(|run| run))
        } else {
            Box::new(roots.iter().map(|root| walk_root(root, None)))
        };

    // Index-ordered merge: byte-identical to the sequential left-to-right
    // walk with early exit (see the parpool stop contract).
    let mut total = Tally::new(served.len());
    for (tally, halt, root_snap) in runs {
        snap.absorb(&root_snap);
        total.absorb(tally);
        match halt {
            None => {}
            Some(Halt::Decided) => break,
            Some(Halt::Cancelled) => return (total, true),
            Some(Halt::Aborted) => unreachable!("merge stops before aborted roots"),
        }
    }
    (total, false)
}

/// The walk's working instance: a borrow of the (shared) root snapshot
/// until the first mutation, an owned COW clone after. Read-only subtrees
/// — every root at the cache depth of a depth-`base` walk, which dominate
/// wide plans — therefore copy *nothing*, not even the table map.
enum WorkInstance<'s> {
    /// Still reading the root snapshot directly — nothing copied yet.
    Borrowed(&'s Instance),
    /// Detached by a mutation (or standing in under a failed root): the
    /// walk's own instance.
    Owned(Instance),
}

impl WorkInstance<'_> {
    /// The instance to evaluate queries against.
    fn get(&self) -> &Instance {
        match self {
            WorkInstance::Borrowed(instance) => instance,
            WorkInstance::Owned(instance) => instance,
        }
    }

    /// The mutable working instance, detaching from a borrowed root
    /// snapshot on first use. The detach is the walk's one per-root
    /// snapshot: a COW-cheap clone (per-table pointer bumps) accounted at
    /// its physical cost, the clone overhead; any table the walk then
    /// mutates pays its copy through the journal's COW tracking.
    fn owned(&mut self, snap: &mut SnapStats) -> &mut Instance {
        if let WorkInstance::Borrowed(shared) = *self {
            let clone_start = snap.timed.then(Instant::now);
            let working = shared.clone();
            if let Some(start) = clone_start {
                snap.nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            let overhead = working.clone_overhead_bytes();
            snap.taken += 1;
            snap.bytes += overhead as u64;
            snap.peak = snap.peak.max(overhead);
            *self = WorkInstance::Owned(working);
        }
        match self {
            WorkInstance::Owned(instance) => instance,
            WorkInstance::Borrowed(_) => unreachable!("just detached"),
        }
    }
}

/// One side's mutable working state for the in-place walk: the instance
/// updates execute on, the evaluator's fresh-identifier counter, the undo
/// log that makes every execution reversible, and the sticky failure of the
/// current prefix (mirroring [`ExecState::Failed`]).
struct WorkState<'s> {
    instance: WorkInstance<'s>,
    uid: u64,
    journal: Journal,
    failed: Option<Error>,
}

impl<'s> WorkState<'s> {
    /// A working view of a (possibly shared) snapshot. Nothing is copied
    /// here: the instance stays borrowed until the walk's first mutation
    /// detaches it (see [`WorkInstance::owned`]), so roots whose subtree
    /// only evaluates queries never snapshot at all.
    fn from_snapshot(state: &'s ExecState, schema: &Schema) -> WorkState<'s> {
        match state {
            ExecState::Failed(err) => WorkState {
                instance: WorkInstance::Owned(Instance::empty(schema)),
                uid: 0,
                journal: Journal::new(),
                failed: Some(err.clone()),
            },
            ExecState::Live(instance, uid) => WorkState {
                instance: WorkInstance::Borrowed(instance),
                uid: *uid,
                journal: Journal::new(),
                failed: None,
            },
        }
    }
}

/// What [`apply_in_place`] hands back so [`revert_frame`] can undo exactly
/// one update call: the journal mark to roll back to, the uid counter to
/// restore, and whether this call is the one that set the sticky failure.
struct Frame {
    mark: usize,
    prev_uid: u64,
    set_failure: bool,
}

impl Frame {
    /// Whether the call this frame records changed `state`, its side: it
    /// journaled a mutation, moved the uid counter or set the failure. A
    /// frame with no journal entry left the instance as it was, because
    /// every mutation is journaled (see [`Journal`]); one whose entries
    /// happen to write back the same rows still counts as a change.
    fn changed(&self, state: &WorkState<'_>) -> bool {
        self.set_failure || state.uid != self.prev_uid || state.journal.mark() != self.mark
    }
}

/// Depth-first walker below one root of an update tree, serving the plans
/// of one tree walk.
struct Dfs<'a> {
    /// The plans served, in plan order. They share their update calls, so
    /// the first one's are executed for all of them.
    plans: &'a [Served<'a>],
    tally: Tally,
    /// Indices into the tree's update calls for the current prefix, used to
    /// materialize the [`InvocationSequence`] only when a counterexample is
    /// actually found.
    path: Vec<usize>,
    /// Set for parallel root tasks: polled so a task whose result can no
    /// longer win the index-ordered merge stops burning its subtree.
    cancel: Option<(&'a StopCtx, usize)>,
    /// The caller's cancellation/deadline token, polled every
    /// [`TOKEN_POLL_INTERVAL`] visited nodes.
    token: Option<&'a CancelToken>,
    /// Nodes visited since the walk started, for token-poll pacing.
    polls: usize,
    /// Local snapshot/undo accounting, folded into the global metric and
    /// the caller's profile by the walk's caller.
    snap: SnapStats,
    /// The source program's working state, mutated and rolled back in place.
    src: WorkState<'a>,
    /// The target program's working state, mutated and rolled back in place.
    tgt: WorkState<'a>,
    /// The buffers the leaves' queries run into, borrowed from the thread's
    /// [`LEAF_ROWS`] for the walk.
    leaf: LeafRows,
}

/// How many tree nodes a walker visits between two polls of the caller's
/// [`CancelToken`]. Each poll with a deadline set costs a clock read, so the
/// interval trades responsiveness (a few hundred nodes ≪ 1ms of work)
/// against per-node overhead. The first node always polls, so even a tiny
/// walk notices an already-expired deadline.
const TOKEN_POLL_INTERVAL: usize = 256;

impl Dfs<'_> {
    /// Returns `true` if this walker belongs to a parallel root task that a
    /// lower-index root's stopping result has made irrelevant.
    fn cancelled(&self) -> bool {
        match self.cancel {
            Some((ctx, index)) => ctx.cancelled(index),
            None => false,
        }
    }

    /// Paced poll of the caller's [`CancelToken`]: checks the token on the
    /// first call and every [`TOKEN_POLL_INTERVAL`] calls after that.
    fn interrupted(&mut self) -> bool {
        let Some(token) = self.token else {
            return false;
        };
        let poll_now = self.polls.is_multiple_of(TOKEN_POLL_INTERVAL);
        self.polls += 1;
        poll_now && token.is_cancelled()
    }

    /// Visits every sequence with exactly `depth` more update calls below
    /// the current working states, for every undecided plan. Children are
    /// visited in update-call order, and at a leaf the plans in plan order,
    /// each with its queries in order, which makes each plan's own leaf
    /// enumeration identical to the naive odometer's.
    ///
    /// Updates execute in place; every child edge is reverted before the
    /// loop advances **or** a halt propagates, so the working states are
    /// back at this node's state on every exit path. A child whose call
    /// changed neither side is counted, not walked (see
    /// [`compare_with_oracle`]); below a node where both sides have failed,
    /// every call is such a call.
    fn walk(&mut self, depth: usize) -> Result<(), Halt> {
        if self.cancelled() {
            return Err(Halt::Aborted);
        }
        if self.interrupted() {
            return Err(Halt::Cancelled);
        }
        if depth == 0 {
            return self.leaves();
        }
        let (plan, target) = self.plans[0];
        for i in 0..plan.calls.update_calls.len() {
            let src_frame = apply_in_place(&plan.src_updates[i], &mut self.src, &mut self.snap);
            let tgt_frame = apply_in_place(&target.updates[i], &mut self.tgt, &mut self.snap);
            let result = if src_frame.changed(&self.src) || tgt_frame.changed(&self.tgt) {
                self.path.push(i);
                let result = self.walk(depth - 1);
                self.path.pop();
                result
            } else {
                self.tally.count_agreed(self.plans, depth - 1);
                Ok(())
            };
            revert_frame(tgt_frame, &mut self.tgt, &mut self.snap);
            revert_frame(src_frame, &mut self.src, &mut self.snap);
            result?;
        }
        Ok(())
    }

    /// Runs (and counts) every undecided plan's query calls against the two
    /// working states. A plan that fails here is decided, and drops the
    /// plans after it.
    fn leaves(&mut self) -> Result<(), Halt> {
        let plans = self.plans;
        let both_failed = self.src.failed.is_some() && self.tgt.failed.is_some();
        for (served, &(plan, target)) in plans[..self.tally.live()].iter().enumerate() {
            if both_failed {
                // Both prefixes already failed: the outcomes agree whatever
                // the query is, no need to even materialize the sequence.
                self.tally.tested[served] += plan.calls.query_calls.len();
                continue;
            }
            for qi in 0..plan.calls.query_calls.len() {
                self.tally.tested[served] += 1;
                self.snap.src_queries += 1;
                let src = (&*plan.src_queries[qi], &self.src);
                let tgt = (&*target.queries[qi], &self.tgt);
                if !self.leaf.agree(src, tgt) {
                    self.tally.failure = Some(Failure {
                        plan: served,
                        path: self.path.as_slice().into(),
                        query: qi,
                    });
                    return if served == 0 {
                        Err(Halt::Decided)
                    } else {
                        Ok(())
                    };
                }
            }
        }
        Ok(())
    }
}

/// Executes one (pre-resolved, pre-bound) update call **in place** on a
/// working state, journaling its inverses, and returns the [`Frame`] that
/// [`revert_frame`] undoes it with.
///
/// Mirrors the clone-based [`apply_update`] exactly: an already-failed
/// state stays failed (no-op frame), a preparation failure sets the sticky
/// failure, and an execution failure leaves the state failed with the same
/// error a full replay would report — its partial mutations are rolled
/// back on the spot, so the instance under a failed state is byte-identical
/// to the parent's (the clone-based step discards the mutated clone;
/// queries never read it either way because the failure gates them).
fn apply_in_place(
    prepared: &PreparedUpdate,
    state: &mut WorkState<'_>,
    snap: &mut SnapStats,
) -> Frame {
    let frame = Frame {
        mark: state.journal.mark(),
        prev_uid: state.uid,
        set_failure: false,
    };
    if state.failed.is_some() {
        return frame;
    }
    let plan = match prepared {
        PreparedUpdate::Ready(plan) => plan,
        PreparedUpdate::Failed(err) => {
            state.failed = Some(err.clone());
            return Frame {
                set_failure: true,
                ..frame
            };
        }
    };
    snap.frames += 1;
    let instance = state.instance.owned(snap);
    let result = exec_update_plan_journaled(plan, instance, state.uid, &mut state.journal);
    let (cow_bytes, cow_peak) = state.journal.take_copy_stats();
    snap.bytes += cow_bytes;
    snap.peak = snap.peak.max(cow_peak);
    match result {
        Ok(next_uid) => {
            state.uid = next_uid;
            frame
        }
        Err(err) => {
            let undone = state
                .journal
                .rollback_to(frame.mark, state.instance.owned(snap));
            snap.undone += undone;
            state.failed = Some(err);
            Frame {
                set_failure: true,
                ..frame
            }
        }
    }
}

/// Undoes exactly the update call that produced `frame`: clears the sticky
/// failure if this call set it, restores the uid counter, and rolls the
/// journal back to the frame's mark.
fn revert_frame(frame: Frame, state: &mut WorkState<'_>, snap: &mut SnapStats) {
    if frame.set_failure {
        state.failed = None;
    }
    state.uid = frame.prev_uid;
    // The guard keeps no-op frames (failed prefixes) from detaching a
    // still-borrowed root; when there are ops to pop, the mutation that
    // recorded them already owns the instance.
    if state.journal.mark() > frame.mark {
        let undone = state
            .journal
            .rollback_to(frame.mark, state.instance.owned(snap));
        snap.undone += undone;
    }
}

/// Extends a shared execution state by one update call, COW-cloning the
/// instance so the parent snapshot survives. Used only where a state must
/// outlive the walk — [`PrefixCache`] resolution; the walk itself mutates
/// in place via [`apply_in_place`].
///
/// `snap` is the caller's *local* snapshot accounting: sampling a global
/// atomic here would put a shared read-modify-write on every node of every
/// worker's walk, so callers accumulate locally and fold into
/// [`SNAPSHOT_PEAK_BYTES`] (and the check's [`CheckProfile`]) once per
/// subtree (see [`fold_snapshot_peak`]). Accounting is physical: the
/// clone's pointer overhead plus the copy-on-write table copies the
/// execution triggers (tracked through a scratch journal whose undo ops are
/// discarded — nothing here ever rolls back).
///
/// A call that changed nothing, by the rule of [`Frame::changed`], leaves
/// `parent` itself, flagged unchanged: the state had already failed, or the
/// call journaled no mutation, minted no identifier and did not fail.
fn apply_update(
    prepared: &PreparedUpdate,
    parent: &Arc<ExecState>,
    snap: &mut SnapStats,
) -> Resolved {
    let unchanged = || Resolved {
        state: Arc::clone(parent),
        changed: false,
    };
    let changed = |state| Resolved {
        state: Arc::new(state),
        changed: true,
    };
    let (instance, uid) = match &**parent {
        ExecState::Failed(_) => return unchanged(),
        ExecState::Live(instance, uid) => (instance, *uid),
    };
    let plan = match prepared {
        PreparedUpdate::Ready(plan) => plan,
        PreparedUpdate::Failed(err) => return changed(ExecState::Failed(err.clone())),
    };
    let clone_start = snap.timed.then(Instant::now);
    let mut next = instance.clone();
    if let Some(start) = clone_start {
        snap.nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    }
    let overhead = next.clone_overhead_bytes();
    snap.taken += 1;
    snap.bytes += overhead as u64;
    snap.peak = snap.peak.max(overhead);
    let mut scratch = Journal::new();
    let result = exec_update_plan_journaled(plan, &mut next, uid, &mut scratch);
    let (cow_bytes, cow_peak) = scratch.take_copy_stats();
    snap.bytes += cow_bytes;
    snap.peak = snap.peak.max(cow_peak);
    match result {
        Ok(next_uid) if next_uid == uid && scratch.mark() == 0 => unchanged(),
        Ok(next_uid) => changed(ExecState::Live(next, next_uid)),
        Err(err) => changed(ExecState::Failed(err)),
    }
}

/// Folds a locally accumulated snapshot high-water mark into the
/// process-wide metric (one atomic RMW per subtree instead of per node).
fn fold_snapshot_peak(local: usize) {
    if local > 0 {
        SNAPSHOT_PEAK_BYTES.fetch_max(local, Ordering::Relaxed);
    }
}

thread_local! {
    /// Each thread's leaf buffers. A walker takes them for its walk and puts
    /// them back, so the walks that run on one thread, root after root and
    /// check after check, evaluate their leaves in the same allocations.
    static LEAF_ROWS: Cell<LeafRows> = Cell::new(LeafRows::default());
}

/// Where a walker evaluates its leaves: each side's query rows, flat, one
/// row after another, the executor's spare rows, and each side's row order
/// for the rare leaf whose sides return their rows in different orders.
#[derive(Default)]
struct LeafRows {
    src: Vec<Value>,
    tgt: Vec<Value>,
    buffers: RowBuffers,
    order: (Vec<usize>, Vec<usize>),
}

/// How many rows a query returned into its leaf buffer, and how wide they
/// are (0 when there are none).
#[derive(Clone, Copy, PartialEq)]
struct Answer {
    rows: usize,
    width: usize,
}

impl LeafRows {
    /// Whether a query call agrees with its counterpart, each run on its
    /// side's working state: both fail, or both return the same multiset of
    /// rows, as the canonical rows of two [`Outcome`]s compare. The sides'
    /// rows are compared in the order they came out; only if that differs
    /// are their row indices sorted, and no rows are moved or copied.
    fn agree(
        &mut self,
        src: (&PreparedQuery, &WorkState<'_>),
        tgt: (&PreparedQuery, &WorkState<'_>),
    ) -> bool {
        let src = answer(src, &mut self.src, &mut self.buffers);
        let tgt = answer(tgt, &mut self.tgt, &mut self.buffers);
        match (src, tgt) {
            (None, None) => true,
            (Some(src), Some(tgt)) => src == tgt && (self.src == self.tgt || self.same_sorted(src)),
            _ => false,
        }
    }

    /// Whether the two sides' rows, `answer` on each, are equal once both
    /// are sorted. Only called when the flat buffers differ, so there is at
    /// least one row and it is not empty.
    fn same_sorted(&mut self, Answer { rows, width }: Answer) -> bool {
        fn row(values: &[Value], width: usize, i: usize) -> &[Value] {
            &values[i * width..][..width]
        }
        let sort = |order: &mut Vec<usize>, values: &[Value]| {
            order.clear();
            order.extend(0..rows);
            order.sort_unstable_by(|&i, &j| row(values, width, i).cmp(row(values, width, j)));
        };
        sort(&mut self.order.0, &self.src);
        sort(&mut self.order.1, &self.tgt);
        self.order
            .0
            .iter()
            .zip(&self.order.1)
            .all(|(&i, &j)| row(&self.src, width, i) == row(&self.tgt, width, j))
    }
}

/// Runs one compiled query call on a working state, its rows into `out`.
/// `None` if the sequence fails there: the state has failed, the call did
/// not compile, or its execution fails. Queries never mint identifiers, so
/// the state's uid counter is moot.
fn answer(
    (prepared, state): (&PreparedQuery, &WorkState<'_>),
    out: &mut Vec<Value>,
    buffers: &mut RowBuffers,
) -> Option<Answer> {
    out.clear();
    let PreparedQuery::Ready(plan) = prepared else {
        return None;
    };
    if state.failed.is_some() {
        return None;
    }
    let mut answer = Answer { rows: 0, width: 0 };
    stream_rows(plan, state.instance.get(), buffers, &mut |row| {
        answer.rows += 1;
        answer.width = row.len();
        out.extend_from_slice(row);
        Ok(())
    })
    .ok()?;
    Some(answer)
}

/// The original straight-line engine: materializes every invocation sequence
/// and replays it from the empty instance.
///
/// Retained as the executable reference semantics for the prefix-shared
/// engine — `O(L·kᴸ·|Q|)` update executions, so use [`compare_programs`]
/// anywhere performance matters. The differential property test in
/// `tests/` asserts both engines return identical reports.
pub fn compare_programs_naive(
    source: &Program,
    source_schema: &Schema,
    target: &Program,
    target_schema: &Schema,
    config: &TestConfig,
) -> EquivalenceReport {
    let plans = build_plans(source, target, config);
    let mut sequences_tested = 0usize;

    // Enumerate sequences in increasing number of preceding updates so the
    // first difference found is a minimum failing input.
    for length in 0..=config.max_updates {
        for plan in &plans {
            let mut prefix_indices = vec![0usize; length];
            loop {
                // Materialize the current prefix of update calls.
                if length == 0 || !plan.update_calls.is_empty() {
                    for query in 0..plan.query_calls.len() {
                        sequences_tested += 1;
                        let sequence = plan.sequence(&prefix_indices, query);
                        let lhs = observe(source, source_schema, &sequence);
                        let rhs = observe(target, target_schema, &sequence);
                        if !outcomes_agree(&lhs, &rhs) {
                            return EquivalenceReport {
                                equivalent: false,
                                counterexample: Some(sequence),
                                sequences_tested,
                                cancelled: false,
                            };
                        }
                    }
                }
                // Advance the prefix odometer.
                if length == 0 || plan.update_calls.is_empty() {
                    break;
                }
                let mut pos = length;
                loop {
                    if pos == 0 {
                        break;
                    }
                    pos -= 1;
                    prefix_indices[pos] += 1;
                    if prefix_indices[pos] < plan.update_calls.len() {
                        break;
                    }
                    prefix_indices[pos] = 0;
                    if pos == 0 {
                        pos = usize::MAX;
                        break;
                    }
                }
                if pos == usize::MAX {
                    break;
                }
            }
        }
    }

    EquivalenceReport {
        equivalent: true,
        counterexample: None,
        sequences_tested,
        cancelled: false,
    }
}

/// Two outcomes agree when both succeed with the same canonical rows, or
/// both fail. (The particular error does not matter for equivalence; what
/// matters is that neither program produces an observable result the other
/// cannot.)
fn outcomes_agree(lhs: &Outcome, rhs: &Outcome) -> bool {
    match (lhs, rhs) {
        (Outcome::Rows(a), Outcome::Rows(b)) => a == b,
        (Outcome::Failed(_), Outcome::Failed(_)) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Function, JoinChain, Operand, Param, Pred, Query, Update};
    use crate::schema::QualifiedAttr;

    fn schema() -> Schema {
        Schema::parse("User(uid: int, name: string)").unwrap()
    }

    fn make_program(project_name: bool) -> Program {
        let projected = if project_name {
            QualifiedAttr::new("User", "name")
        } else {
            QualifiedAttr::new("User", "uid")
        };
        Program::new(vec![
            Function::update(
                "addUser",
                vec![
                    Param::new("uid", DataType::Int),
                    Param::new("name", DataType::String),
                ],
                Update::Insert {
                    join: JoinChain::table("User"),
                    values: vec![
                        (QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                        (QualifiedAttr::new("User", "name"), Operand::param("name")),
                    ],
                },
            ),
            Function::query(
                "getUser",
                vec![Param::new("uid", DataType::Int)],
                Query::select(
                    vec![projected],
                    Pred::eq_value(QualifiedAttr::new("User", "uid"), Operand::param("uid")),
                    JoinChain::table("User"),
                ),
            ),
        ])
    }

    #[test]
    fn identical_programs_are_equivalent() {
        let p = make_program(true);
        let report = compare_programs(&p, &schema(), &p.clone(), &schema(), &TestConfig::default());
        assert!(report.equivalent);
        assert!(report.counterexample.is_none());
        assert!(report.sequences_tested > 0);
    }

    #[test]
    fn differing_projection_is_detected_with_minimal_input() {
        let p = make_program(true);
        let q = make_program(false);
        let cex = compare_programs(&p, &schema(), &q, &schema(), &TestConfig::default())
            .counterexample
            .expect("programs differ");
        // The minimal counterexample needs exactly one insert before the query.
        assert_eq!(cex.updates.len(), 1);
        assert_eq!(cex.updates[0].function, "addUser");
        assert_eq!(cex.query.function, "getUser");
    }

    #[test]
    fn empty_prefix_differences_are_found_first() {
        // A program whose query returns a constant row even on the empty
        // database differs with a zero-update counterexample.
        let p = make_program(true);
        let mut q = make_program(true);
        // Replace the query with one that filters on nothing (returns all
        // rows) — on the empty instance both are empty, so instead change the
        // predicate to `True` and seed via the insert; the difference then
        // still requires one insert. To exercise the zero-length case we make
        // the target query reference a never-matching filter, which agrees on
        // the empty database; so assert the search still starts at length 0.
        if let crate::ast::FunctionBody::Query(query) = &mut q.functions[1].body {
            *query = Query::select(
                vec![QualifiedAttr::new("User", "name")],
                Pred::False,
                JoinChain::table("User"),
            );
        }
        let cex = compare_programs(&p, &schema(), &q, &schema(), &TestConfig::default())
            .counterexample
            .expect("programs differ");
        assert_eq!(cex.updates.len(), 1, "smallest distinguishing input");
    }

    #[test]
    fn clustering_does_not_miss_counterexamples() {
        let p = make_program(true);
        let q = make_program(false);
        let mut config = TestConfig {
            cluster_by_tables: false,
            ..TestConfig::default()
        };
        let unclustered = compare_programs(&p, &schema(), &q, &schema(), &config).counterexample;
        config.cluster_by_tables = true;
        let clustered = compare_programs(&p, &schema(), &q, &schema(), &config).counterexample;
        assert_eq!(unclustered.is_some(), clustered.is_some());
    }

    /// The prefix cache must change *what work is skipped*, never *what is
    /// reported*: every candidate's report (verdict, counterexample,
    /// `sequences_tested`) is byte-identical with and without the cache,
    /// hits accrue once candidates share prefixes, and the deterministic
    /// `prefix_cache_hits` counter lands in the profile.
    #[test]
    fn prefix_cache_preserves_reports_and_hits_across_candidates() {
        let source = make_program(true);
        let schema = schema();
        let oracle = SourceOracle::new(&source, &schema);
        let config = TestConfig::default();
        // A CEGIS-like candidate stream: a wrong candidate, the right one,
        // then the wrong one again (same bodies as the first — pure reuse).
        let candidates = [make_program(false), make_program(true), make_program(false)];

        let mut cache = PrefixCache::new();
        let mut profile = CheckProfile::default();
        for candidate in &candidates {
            let cached = compare_with_oracle(
                &oracle,
                candidate,
                &schema,
                &config,
                None,
                Some(&mut profile),
                Some(&mut cache),
            );
            let plain = compare_with_oracle(&oracle, candidate, &schema, &config, None, None, None);
            assert_eq!(cached.equivalent, plain.equivalent);
            assert_eq!(cached.counterexample, plain.counterexample);
            assert_eq!(cached.sequences_tested, plain.sequences_tested);
        }

        // The source program never changes, so every source-side prefix
        // after the first candidate is a hit; candidate 3 reuses candidate
        // 1's target prefixes too.
        assert!(cache.hits() > 0, "shared prefixes must produce hits");
        assert!(cache.cached_states() > 0);
        assert_eq!(
            profile.prefix_cache_hits,
            cache.hits(),
            "profile must account exactly the hits of its checks"
        );
    }

    /// Plans compile once per sketch: a second check of the same candidate
    /// through the same cache compiles nothing, and a candidate that changes
    /// one update function's body compiles exactly that function's target
    /// calls.
    #[test]
    fn prefix_cache_compiles_each_call_and_body_once() {
        let source = make_program(true);
        let schema = schema();
        let oracle = SourceOracle::new(&source, &schema);
        let config = TestConfig::default();
        let mut cache = PrefixCache::new();
        let mut compiled = |candidate: &Program| {
            let mut profile = CheckProfile::default();
            compare_with_oracle(
                &oracle,
                candidate,
                &schema,
                &config,
                None,
                Some(&mut profile),
                Some(&mut cache),
            );
            profile.plans_compiled
        };
        let candidate = make_program(false);
        let add_user = config.arg_combinations(candidate.function("addUser").unwrap());
        let get_user = config.arg_combinations(candidate.function("getUser").unwrap());
        let calls = (add_user.len() + get_user.len()) as u64;
        assert_eq!(compiled(&candidate), 2 * calls, "both sides compile once");
        assert_eq!(compiled(&candidate), 0, "a re-check compiles nothing");

        let mut changed = candidate.clone();
        changed.functions[0].body = FunctionBody::Update(Update::Seq(vec![]));
        assert_eq!(compiled(&changed), add_user.len() as u64);
        assert_eq!(compiled(&candidate), 0, "the old body's plans are kept");
    }

    /// Exhausted (plan, length) verdicts carry across the checks of one
    /// cache. Re-checking a candidate walks nothing — no prefix resolved, no
    /// update executed, no source query evaluated — and reports the same;
    /// changing one update function's body re-walks exactly the plans whose
    /// relevance closure holds that function, at every length.
    #[test]
    fn exhausted_subtrees_are_not_walked_again() {
        let schema = Schema::parse(
            "User(uid: int, name: string)\n\
             Tag(label: string, owner: int)",
        )
        .unwrap();
        // `make_program` plus a `Tag` table with its own update and query,
        // so the two queries' relevance closures are disjoint. The flag
        // reverses the order in which `addTag` lists its values: the same
        // update, a different body.
        let with_tags = |reversed: bool| {
            let mut values = vec![
                (QualifiedAttr::new("Tag", "label"), Operand::param("label")),
                (QualifiedAttr::new("Tag", "owner"), Operand::param("owner")),
            ];
            if reversed {
                values.reverse();
            }
            let mut program = make_program(true);
            program.functions.push(Function::update(
                "addTag",
                vec![
                    Param::new("label", DataType::String),
                    Param::new("owner", DataType::Int),
                ],
                Update::Insert {
                    join: JoinChain::table("Tag"),
                    values,
                },
            ));
            program.functions.push(Function::query(
                "getTag",
                vec![Param::new("label", DataType::String)],
                Query::select(
                    vec![QualifiedAttr::new("Tag", "owner")],
                    Pred::eq_value(QualifiedAttr::new("Tag", "label"), Operand::param("label")),
                    JoinChain::table("Tag"),
                ),
            ));
            program
        };
        let source = with_tags(false);
        let reordered = with_tags(true);
        let oracle = SourceOracle::new(&source, &schema);
        let config = TestConfig {
            max_updates: 3,
            ..TestConfig::default()
        };
        let mut cache = PrefixCache::new();
        // Each check's report and profile, and the source queries it
        // evaluated: one per sequence it walked.
        let mut check = |candidate: &Program| {
            let before = oracle.computes();
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
            (report, profile, oracle.computes() - before)
        };

        let (cold, profile, walked) = check(&source);
        assert!(cold.equivalent);
        assert_eq!(
            walked, cold.sequences_tested,
            "a cold check walks every sequence"
        );
        assert!(profile.prefix_cache_hits > 0 && profile.undo_frames > 0);

        let (warm, profile, walked) = check(&source);
        assert_eq!(warm, cold);
        assert_eq!(walked, 0, "a re-check walks nothing");
        assert_eq!(profile.prefix_cache_hits, 0, "and resolves no prefix");
        assert_eq!(profile.undo_frames, 0, "and executes no update");
        assert_eq!(profile.snapshots_taken, 0);

        let (changed, _, walked) = check(&reordered);
        let combos = |name: &str| {
            config
                .arg_combinations(reordered.function(name).unwrap())
                .len()
        };
        let (add_tag, get_tag) = (combos("addTag"), combos("getTag"));
        let tag_plan: usize = (0..=3).map(|length| add_tag.pow(length) * get_tag).sum();
        assert_eq!(walked, tag_plan, "only getTag's plan holds addTag");
        assert_eq!(
            changed,
            compare_programs(&source, &schema, &reordered, &schema, &config)
        );
        assert_eq!(changed.sequences_tested, cold.sequences_tested);

        let (again, _, walked) = check(&reordered);
        assert_eq!((again, walked), (changed, 0));
    }

    /// The text of [`quiet_program`].
    const QUIET: &str = "update add(id: int, newName: string)
             INSERT INTO User VALUES (uid: id, name: newName);
         update remove(id: int)
             DELETE User FROM User WHERE uid = id;
         update rename(id: int, newName: string)
             UPDATE User SET name = newName WHERE uid = id;
         query get(id: int)
             SELECT name FROM User WHERE uid = id;";

    /// A program whose delete and update find no rows from the empty
    /// database, with one seed per type: the update calls are `a` (an
    /// insert), `d` (a delete) and `r` (a rename), and `get(0)` is the
    /// only query call.
    fn quiet_program() -> Program {
        crate::parser::parse_program(QUIET, &schema()).unwrap()
    }

    fn quiet_config() -> TestConfig {
        TestConfig {
            max_updates: 3,
            int_seeds: vec![0],
            string_seeds: vec!["A".to_string()],
            ..TestConfig::default()
        }
    }

    /// Calls that change neither side are counted, not walked. `d` and `r`
    /// change nothing on an empty table, `a` always changes it, and `r`
    /// after `a` journals its write although it writes the same name. So
    /// the walk evaluates `get` below 1 + 1 + 3 + 7 prefixes: the empty
    /// one; `a`; `aa`, `ad`, `ar`; and at length 3 `aa·` and `ar·` with
    /// any last call, `ad` only with `a`. At length 3 each of the roots
    /// `aa`, `ad` and `ar` executes its three calls on both sides: 18
    /// journaled executions. (`d`, `r`, `ad·d` and `ad·r` are counted.)
    #[test]
    fn calls_that_change_neither_side_are_counted_not_walked() {
        let (program, schema, config) = (quiet_program(), schema(), quiet_config());
        let oracle = SourceOracle::new(&program, &schema);
        let mut profile = CheckProfile::default();
        let report = compare_with_oracle(
            &oracle,
            &program,
            &schema,
            &config,
            None,
            Some(&mut profile),
            None,
        );
        let naive = compare_programs_naive(&program, &schema, &program, &schema, &config);
        assert_eq!(report, naive);
        assert_eq!(report.sequences_tested, 1 + 3 + 9 + 27);
        assert_eq!(oracle.computes(), 12);
        assert_eq!(profile.undo_frames, 18);
    }

    /// Two queries on one update tree: at length 3 one walk below each root
    /// serves both plans, so each update call is journaled once per tree
    /// node, not once per plan. That is the 18 journaled executions of
    /// `get` alone (see `calls_that_change_neither_side_are_counted_not_walked`),
    /// where a walk per plan would journal 36, while each plan still tests
    /// and evaluates its own 40 sequences and 12 leaves.
    #[test]
    fn plans_on_one_tree_share_its_walk() {
        let (schema, config) = (schema(), quiet_config());
        let text = format!(
            "{QUIET}
             query named(newName: string)
                 SELECT uid FROM User WHERE name = newName;"
        );
        let program = crate::parser::parse_program(&text, &schema).unwrap();
        let oracle = SourceOracle::new(&program, &schema);
        let mut profile = CheckProfile::default();
        let report = compare_with_oracle(
            &oracle,
            &program,
            &schema,
            &config,
            None,
            Some(&mut profile),
            None,
        );
        let naive = compare_programs_naive(&program, &schema, &program, &schema, &config);
        assert_eq!(report, naive);
        assert_eq!(report.sequences_tested, 2 * (1 + 3 + 9 + 27));
        assert_eq!(oracle.computes(), 2 * 12);
        assert_eq!(profile.undo_frames, 18);
    }

    /// `getUid` and `getName` share the tree of `add`, `mark` and `promote`;
    /// `getLabel`, between them in plan order, has the tree of `tag`,
    /// `markTag` and `promoteTag`. The candidate's `promote` and
    /// `promoteTag` write `"D"` where the source's write `"C"`, which only
    /// an add, a mark and a promote in a row show. At length 3 the walk of
    /// the first tree, started for `getUid`, finds `getName`'s
    /// counterexample before `getLabel`'s tree is walked; the report must
    /// still carry `getLabel`'s, and the naive engine's count.
    #[test]
    fn a_later_plan_failing_first_on_a_shared_tree_does_not_win() {
        let schema = Schema::parse(
            "User(uid: int, name: string)\n\
             Tag(tid: int, label: string)",
        )
        .unwrap();
        let program = |promoted: &str| {
            crate::parser::parse_program(
                &format!(
                    "update add(id: int) INSERT INTO User VALUES (uid: id, name: \"A\");
                     update mark(id: int) UPDATE User SET name = \"B\" WHERE uid = id;
                     update promote() UPDATE User SET name = \"{promoted}\" WHERE name = \"B\";
                     update tag(id: int) INSERT INTO Tag VALUES (tid: id, label: \"A\");
                     update markTag(id: int) UPDATE Tag SET label = \"B\" WHERE tid = id;
                     update promoteTag() UPDATE Tag SET label = \"{promoted}\" WHERE label = \"B\";
                     query getUid(id: int) SELECT uid FROM User WHERE uid = id;
                     query getLabel(id: int) SELECT label FROM Tag WHERE tid = id;
                     query getName(id: int) SELECT name FROM User WHERE uid = id;"
                ),
                &schema,
            )
            .unwrap()
        };
        let (source, candidate) = (program("C"), program("D"));
        let config = TestConfig {
            max_updates: 3,
            ..TestConfig::default()
        };
        let report = compare_programs(&source, &schema, &candidate, &schema, &config);
        let naive = compare_programs_naive(&source, &schema, &candidate, &schema, &config);
        assert_eq!(report, naive);
        let call = |function: &str, args: Vec<Value>| Call::new(function, args);
        let zero = || vec![Value::Int(0)];
        assert_eq!(
            report.counterexample,
            Some(InvocationSequence::new(
                vec![
                    call("tag", zero()),
                    call("markTag", zero()),
                    call("promoteTag", vec![]),
                ],
                call("getLabel", zero()),
            ))
        );
    }

    /// `add(id)` inserts `(id, "A")`, `mark(id)` renames it to `"B"` and
    /// `remove(id)` deletes it; a candidate's `remove` also deletes every
    /// row named `named`.
    fn marking_program(named: Option<&str>) -> Program {
        let also = named.map_or(String::new(), |name| format!(" OR name = \"{name}\""));
        crate::parser::parse_program(
            &format!(
                "update add(id: int)
                     INSERT INTO User VALUES (uid: id, name: \"A\");
                 update mark(id: int)
                     UPDATE User SET name = \"B\" WHERE uid = id;
                 update remove(id: int)
                     DELETE User FROM User WHERE uid = id{also};
                 query get(id: int)
                     SELECT name FROM User WHERE uid = id;"
            ),
            &schema(),
        )
        .unwrap()
    }

    /// A candidate whose `remove(1)` deletes a row where the source's
    /// finds none: the call changes the target only, so its subtree must
    /// be walked. Deleting rows named "A" differs after two calls, at a
    /// root the prefix cache resolves; deleting rows named "B" differs
    /// only after three, inside the walk below the roots.
    #[test]
    fn a_call_that_changes_one_side_is_walked() {
        let (source, schema) = (marking_program(None), schema());
        let config = TestConfig {
            max_updates: 3,
            ..TestConfig::default()
        };
        let call = |function: &str, id: i64| Call::new(function, vec![Value::Int(id)]);
        for (named, updates) in [
            ("A", vec![call("add", 0), call("remove", 1)]),
            (
                "B",
                vec![call("add", 0), call("mark", 0), call("remove", 1)],
            ),
        ] {
            let candidate = marking_program(Some(named));
            let report = compare_programs(&source, &schema, &candidate, &schema, &config);
            let naive = compare_programs_naive(&source, &schema, &candidate, &schema, &config);
            assert_eq!(report, naive, "deleting rows named {named}");
            assert_eq!(
                report.counterexample,
                Some(InvocationSequence::new(updates, call("get", 0)))
            );
        }
    }

    /// Past `PARALLEL_LEAF_THRESHOLD` the roots of a depth-3 check are
    /// walked in parallel, unchanged ones counted among them: the reports
    /// and profile counters are the same at thread limits 1 and 4, and
    /// equal the naive engine's reports.
    #[test]
    fn counting_unchanged_calls_is_the_same_at_any_thread_count() {
        let (source, schema) = (marking_program(None), schema());
        let config = TestConfig {
            max_updates: 3,
            int_seeds: vec![0, 1, 2, 3],
            ..TestConfig::default()
        };
        for candidate in [marking_program(None), marking_program(Some("B"))] {
            let run = |threads: usize| {
                parpool::set_thread_limit(threads);
                let oracle = SourceOracle::new(&source, &schema);
                let mut profile = CheckProfile::default();
                let report = compare_with_oracle(
                    &oracle,
                    &candidate,
                    &schema,
                    &config,
                    None,
                    Some(&mut profile),
                    None,
                );
                let counters = CheckProfile {
                    plan_compile_time: Duration::ZERO,
                    dfs_time: Duration::ZERO,
                    snapshot_time: Duration::ZERO,
                    ..profile
                };
                (report, counters, oracle.computes())
            };
            let sequential = run(1);
            let parallel = run(4);
            parpool::set_thread_limit(0);
            assert_eq!(sequential, parallel);
            let naive = compare_programs_naive(&source, &schema, &candidate, &schema, &config);
            assert_eq!(sequential.0, naive);
            let (report, _, computes) = sequential;
            if report.equivalent {
                assert!(report.sequences_tested > PARALLEL_LEAF_THRESHOLD);
                assert!(
                    computes < report.sequences_tested,
                    "some calls were counted"
                );
            }
        }
    }

    /// A call changed its side if it journaled a mutation, moved the uid
    /// counter or set the failure, and only then. No update of this
    /// evaluator mints an identifier without journaling the row it
    /// inserts, so the uid counter's part is checked on a hand-built
    /// state.
    #[test]
    fn a_call_changed_its_side_if_it_journaled_minted_or_failed() {
        let (program, schema) = (quiet_program(), schema());
        let root = ExecState::Live(Instance::empty(&schema), 5);
        let mut state = WorkState::from_snapshot(&root, &schema);
        let untouched = Frame {
            mark: state.journal.mark(),
            prev_uid: state.uid,
            set_failure: false,
        };
        assert!(!untouched.changed(&state));
        state.uid += 1;
        assert!(untouched.changed(&state), "a minted identifier");
        state.uid -= 1;
        let failed = Frame {
            set_failure: true,
            ..untouched
        };
        assert!(failed.changed(&state), "a new failure");

        let prepared = |function: &str, args: Vec<Value>| {
            prepare_update(&program, &schema, &Call::new(function, args))
        };
        let mut snap = SnapStats::default();
        let remove = prepared("remove", vec![Value::Int(0)]);
        let frame = apply_in_place(&remove, &mut state, &mut snap);
        assert!(!frame.changed(&state), "a delete that finds no rows");
        let add = prepared("add", vec![Value::Int(0), Value::str("A")]);
        let frame = apply_in_place(&add, &mut state, &mut snap);
        assert!(frame.changed(&state), "an insert");
        assert_eq!(snap.frames, 2);
    }

    #[test]
    fn arg_combinations_respect_cap() {
        let config = TestConfig {
            max_arg_combinations: Some(3),
            ..TestConfig::default()
        };
        let f = Function::update(
            "wide",
            vec![
                Param::new("a", DataType::Int),
                Param::new("b", DataType::Int),
                Param::new("c", DataType::Int),
            ],
            Update::Seq(vec![]),
        );
        assert_eq!(config.arg_combinations(&f).len(), 3);
    }

    #[test]
    fn seeds_cover_all_types() {
        let config = TestConfig::default();
        for ty in [
            DataType::Int,
            DataType::String,
            DataType::Binary,
            DataType::Bool,
            DataType::Id,
        ] {
            assert!(!config.seeds(ty).is_empty());
        }
    }

    #[test]
    fn id_seeds_are_minted_as_uids() {
        let config = TestConfig::default();
        let seeds = config.seeds(DataType::Id);
        assert!(seeds.iter().all(|s| matches!(s, Value::Uid(_))));
        assert!(seeds.contains(&Value::Uid(0)), "{seeds:?}");
    }

    /// The Id-seed regression of the issue: two candidates that differ only
    /// on an Id-keyed query. With `Int` seeds every lookup against the
    /// evaluator-minted `Uid` misses, so both candidates answer every test
    /// query with zero rows and the checker wrongly equates them. `Uid`
    /// seeds hit the stored identifier and tell them apart.
    #[test]
    fn id_keyed_queries_distinguish_candidates() {
        let schema = Schema::parse("Picture(PicId: id, Pic: binary)").unwrap();
        let add = Function::update(
            "addPic",
            vec![Param::new("pic", DataType::Binary)],
            Update::Insert {
                join: JoinChain::table("Picture"),
                values: vec![(QualifiedAttr::new("Picture", "Pic"), Operand::param("pic"))],
            },
        );
        let honest_query = Function::query(
            "getPic",
            vec![Param::new("pid", DataType::Id)],
            Query::select(
                vec![QualifiedAttr::new("Picture", "Pic")],
                Pred::eq_value(
                    QualifiedAttr::new("Picture", "PicId"),
                    Operand::param("pid"),
                ),
                JoinChain::table("Picture"),
            ),
        );
        let blind_query = Function::query(
            "getPic",
            vec![Param::new("pid", DataType::Id)],
            Query::select(
                vec![QualifiedAttr::new("Picture", "Pic")],
                Pred::False,
                JoinChain::table("Picture"),
            ),
        );
        let honest = Program::new(vec![add.clone(), honest_query]);
        let blind = Program::new(vec![add, blind_query]);

        // The broken seeding (Ints for Id parameters) cannot tell the two
        // programs apart: no seeded argument ever equals a stored Uid.
        let broken = |ty: DataType, config: &TestConfig| -> Vec<Value> {
            match ty {
                DataType::Id => config
                    .id_seeds
                    .iter()
                    .map(|&v| Value::Int(v as i64))
                    .collect(),
                other => config.seeds(other),
            }
        };
        let config = TestConfig::default();
        for args in config.arg_combinations(honest.function("getPic").unwrap()) {
            // Sanity: the fixed seeding produces Uids for the Id parameter...
            assert!(matches!(args[0], Value::Uid(_)));
        }
        assert!(
            broken(DataType::Id, &config)
                .iter()
                .all(|s| matches!(s, Value::Int(_))),
            "the broken seeding this test guards against used Int seeds"
        );

        // ...and with them the checker distinguishes the candidates.
        let report = compare_programs(&honest, &schema, &blind, &schema, &config);
        assert!(
            !report.equivalent,
            "Uid seeds must expose the Id-keyed difference"
        );
        let cex = report.counterexample.unwrap();
        assert_eq!(cex.updates.len(), 1, "one insert suffices");
        assert_eq!(cex.query.function, "getPic");
    }

    #[test]
    fn prefix_shared_engine_matches_naive_reference() {
        for (lhs, rhs) in [(true, true), (true, false)] {
            let p = make_program(lhs);
            let q = make_program(rhs);
            for config in [
                TestConfig::default(),
                TestConfig {
                    max_updates: 1,
                    ..TestConfig::default()
                },
                TestConfig {
                    cluster_by_tables: false,
                    ..TestConfig::default()
                },
            ] {
                let fast = compare_programs(&p, &schema(), &q, &schema(), &config);
                let slow = compare_programs_naive(&p, &schema(), &q, &schema(), &config);
                assert_eq!(fast, slow, "engines diverged under {config:?}");
            }
        }
    }

    #[test]
    fn expired_token_cancels_the_check_without_a_verdict() {
        let p = make_program(true);
        let q = make_program(false);
        let source_schema = schema();
        let oracle = SourceOracle::new(&p, &source_schema);
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let report = compare_with_oracle(
            &oracle,
            &q,
            &source_schema,
            &TestConfig::default(),
            Some(&token),
            None,
            None,
        );
        assert!(report.cancelled);
        assert!(!report.equivalent);
        assert!(report.counterexample.is_none());
    }

    #[test]
    fn live_token_changes_nothing() {
        let p = make_program(true);
        let q = make_program(false);
        let source_schema = schema();
        let token = CancelToken::new();
        for candidate in [&p, &q] {
            let oracle = SourceOracle::new(&p, &source_schema);
            let config = TestConfig::default();
            let plain = compare_with_oracle(
                &oracle,
                candidate,
                &source_schema,
                &config,
                None,
                None,
                None,
            );
            let oracle = SourceOracle::new(&p, &source_schema);
            let with_token = compare_with_oracle(
                &oracle,
                candidate,
                &source_schema,
                &config,
                Some(&token),
                None,
                None,
            );
            assert_eq!(plain, with_token);
            assert!(!with_token.cancelled);
        }
    }

    #[test]
    fn thorough_config_is_deeper_than_default() {
        assert!(TestConfig::thorough().max_updates > TestConfig::default().max_updates);
    }
}
