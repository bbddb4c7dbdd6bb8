//! A minimal scoped fork-join pool with a **global thread budget** and a
//! **deterministic early-stop** contract.
//!
//! This workspace builds offline, so `rayon` is not available; this crate is
//! the small slice of it the synthesizer needs, with two deliberate twists:
//!
//! 1. **One global budget, nested use welcome.** Parallelism in the
//!    synthesizer appears at several altitudes at once — value
//!    correspondences fan out, and each correspondence's bounded checks fan
//!    out internally. A fixed-size pool per call site would multiply; here
//!    every [`par_map_stop`] call *tries* to borrow extra worker tokens from
//!    one process-wide budget and simply runs inline on the caller's thread
//!    when none are free. Nothing ever blocks waiting for a token, so nested
//!    calls cannot deadlock, and total live threads stay ≈ the configured
//!    limit regardless of nesting depth.
//!
//! 2. **Lowest index wins.** Parallel search must not change *what* the
//!    search finds. [`par_map_stop`] lets tasks produce "stopping" results
//!    (a counterexample, a successful candidate) and guarantees that every
//!    item with an index *below* the lowest stopping index is fully
//!    processed, whatever order the workers actually ran in. The caller can
//!    then merge results in index order and obtain byte-identical outcomes
//!    and statistics at any thread count — including 1.
//!
//! Items at indices *above* the lowest stopping index may be skipped
//! (`None` in the result vector) or handed a cancellation signal through
//! [`StopCtx`] mid-flight; their results are by construction irrelevant to
//! an index-ordered merge that stops at the winner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's wall-clock deadline passed.
    DeadlineExceeded,
}

/// Shared state of a [`CancelToken`] and all its clones.
#[derive(Debug)]
struct CancelState {
    /// 0 = live, 1 = explicitly cancelled, 2 = deadline exceeded. Latched:
    /// the first cause to fire wins and is never overwritten, so a run that
    /// times out reports `DeadlineExceeded` even if someone also calls
    /// `cancel()` during teardown.
    reason: AtomicU8,
    deadline: Option<Instant>,
    /// A parent token this one mirrors: when the parent fires, this token
    /// fires too (latching the parent's cause). Lets a per-run deadline
    /// token compose with a long-lived user-cancellation token.
    parent: Option<CancelToken>,
}

/// A cooperative cancellation signal with an optional wall-clock deadline.
///
/// This is the public face of the cancellation machinery the parallel
/// search already uses internally ([`StopCtx`]): long-running work —
/// correspondence fan-out, sketch completion, the bounded-testing DFS walk —
/// polls [`CancelToken::is_cancelled`] at safe points and unwinds cleanly
/// with partial statistics when it returns `true`.
///
/// Tokens are cheap to clone (an `Arc`); all clones observe the same state,
/// so one token can be handed to a synthesis run and cancelled from another
/// thread. The *cause* is latched: [`CancelToken::reason`] reports whether
/// the token fired by explicit [`CancelToken::cancel`] or by its deadline,
/// which lets callers distinguish a timeout from a user abort.
///
/// A default-constructed token never fires on its own; polling it is a
/// single relaxed atomic load (plus one clock read per poll when a deadline
/// is set and the token has not fired yet).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    state: Arc<CancelState>,
}

impl Default for CancelState {
    fn default() -> CancelState {
        CancelState {
            reason: AtomicU8::new(0),
            deadline: None,
            parent: None,
        }
    }
}

impl CancelToken {
    /// A token that fires only on an explicit [`CancelToken::cancel`].
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that (also) fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                reason: AtomicU8::new(0),
                deadline: Some(deadline),
                parent: None,
            }),
        }
    }

    /// A token that (also) fires `budget` from now.
    pub fn with_timeout(budget: Duration) -> CancelToken {
        // A budget large enough to overflow `Instant` arithmetic means "no
        // deadline in any practical sense" — represent it as such.
        match Instant::now().checked_add(budget) {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        }
    }

    /// A child token that fires when **either** this token fires or
    /// `budget` (measured from now) elapses — whichever comes first, with
    /// the first cause latched.
    ///
    /// This is how a per-run wall-clock budget composes with a long-lived
    /// user-cancellation token: the child carries the deadline, the parent
    /// stays cancellable from other threads, and pollers of the child see
    /// both.
    pub fn linked_with_timeout(&self, budget: Duration) -> CancelToken {
        CancelToken {
            state: Arc::new(CancelState {
                reason: AtomicU8::new(0),
                deadline: Instant::now().checked_add(budget),
                parent: Some(self.clone()),
            }),
        }
    }

    /// The wall-clock deadline, if the token has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.state.deadline
    }

    /// Fires the token explicitly. Idempotent; a token that already fired
    /// (by either cause) keeps its original [`CancelToken::reason`].
    pub fn cancel(&self) {
        let _ = self
            .state
            .reason
            .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Returns `true` once the token has fired — by explicit
    /// [`CancelToken::cancel`], by its deadline passing, or by a linked
    /// parent token firing (see [`CancelToken::linked_with_timeout`]). The
    /// deadline and the parent are checked (and the cause latched) lazily,
    /// on poll.
    pub fn is_cancelled(&self) -> bool {
        if self.state.reason.load(Ordering::Relaxed) != 0 {
            return true;
        }
        if let Some(parent) = &self.state.parent {
            if parent.is_cancelled() {
                let cause = match parent.reason() {
                    Some(CancelReason::DeadlineExceeded) => 2,
                    _ => 1,
                };
                let _ = self.state.reason.compare_exchange(
                    0,
                    cause,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                return true;
            }
        }
        if let Some(deadline) = self.state.deadline {
            if Instant::now() >= deadline {
                let _ =
                    self.state
                        .reason
                        .compare_exchange(0, 2, Ordering::Relaxed, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Why the token fired, or `None` while it is still live. Polls the
    /// deadline like [`CancelToken::is_cancelled`].
    pub fn reason(&self) -> Option<CancelReason> {
        if !self.is_cancelled() {
            return None;
        }
        match self.state.reason.load(Ordering::Relaxed) {
            1 => Some(CancelReason::Cancelled),
            2 => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }
}

/// The process-wide thread budget.
///
/// `limit` is the maximum number of threads that may compute concurrently
/// (callers included); `extra_in_use` counts borrowed *worker* tokens
/// (spawned threads), which may be at most `limit - 1`.
struct Budget {
    limit: AtomicUsize,
    extra_in_use: AtomicUsize,
}

fn budget() -> &'static Budget {
    static BUDGET: Budget = Budget {
        limit: AtomicUsize::new(0), // 0 = not yet initialized, use default
        extra_in_use: AtomicUsize::new(0),
    };
    &BUDGET
}

fn default_limit() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the global thread limit (total concurrently computing threads,
/// caller included). `0` resets to the machine's available parallelism.
///
/// Takes effect for subsequent [`par_map_stop`] calls; already-borrowed
/// worker tokens are unaffected.
pub fn set_thread_limit(threads: usize) {
    budget().limit.store(threads, Ordering::Relaxed);
}

/// The current global thread limit.
pub fn thread_limit() -> usize {
    match budget().limit.load(Ordering::Relaxed) {
        0 => default_limit(),
        n => n,
    }
}

/// Tries to borrow up to `want` extra worker tokens, returning how many were
/// actually acquired (possibly zero). Never blocks.
fn try_acquire(want: usize) -> usize {
    let b = budget();
    let mut acquired = 0;
    while acquired < want {
        let in_use = b.extra_in_use.load(Ordering::Relaxed);
        if in_use + 1 >= thread_limit() {
            break;
        }
        if b.extra_in_use
            .compare_exchange(in_use, in_use + 1, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            acquired += 1;
        }
    }
    acquired
}

fn release(tokens: usize) {
    budget().extra_in_use.fetch_sub(tokens, Ordering::Relaxed);
}

/// A long-lived, all-or-nothing reservation of worker tokens from the
/// global thread budget, released on drop.
///
/// [`par_map_stop`] borrows tokens for the duration of one call; a
/// *scheduler* — the `served` job server is the motivating client — instead
/// needs to account for a thread that computes *outside* any `parpool`
/// call: a job runner thread that will itself make nested `par_map_stop`
/// calls. Reserving one token per running job makes those runner threads
/// visible to every other borrower, so N concurrent jobs plus their nested
/// fan-outs stay ≈ the configured limit instead of N × limit.
///
/// The reservation is all-or-nothing: [`BudgetReservation::try_new`]
/// either acquires exactly `tokens` tokens or none, and never blocks — a
/// scheduler that cannot reserve keeps its job queued and retries.
#[derive(Debug)]
pub struct BudgetReservation {
    tokens: usize,
}

impl BudgetReservation {
    /// Tries to reserve exactly `tokens` worker tokens from the global
    /// budget. Returns `None` (acquiring nothing) when that many are not
    /// free under the current [`thread_limit`]. Never blocks.
    pub fn try_new(tokens: usize) -> Option<BudgetReservation> {
        if tokens == 0 {
            return Some(BudgetReservation { tokens: 0 });
        }
        let b = budget();
        loop {
            let in_use = b.extra_in_use.load(Ordering::Relaxed);
            // Same headroom rule as `try_acquire`: the caller thread counts
            // as one, so worker tokens top out at `limit - 1`.
            if in_use + tokens >= thread_limit() {
                return None;
            }
            if b.extra_in_use
                .compare_exchange(
                    in_use,
                    in_use + tokens,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return Some(BudgetReservation { tokens });
            }
        }
    }

    /// How many tokens this reservation holds.
    pub fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for BudgetReservation {
    fn drop(&mut self) {
        if self.tokens > 0 {
            release(self.tokens);
        }
    }
}

/// Cancellation signal shared by the tasks of one [`par_map_stop`] call.
///
/// Holds the lowest index (so far) whose task produced a stopping result.
/// Tasks at higher indices can poll [`StopCtx::cancelled`] and bail out
/// early; their results are never read by an index-ordered merge.
#[derive(Debug)]
pub struct StopCtx {
    stop_before: AtomicUsize,
}

impl StopCtx {
    fn new() -> StopCtx {
        StopCtx {
            stop_before: AtomicUsize::new(usize::MAX),
        }
    }

    fn record_stop(&self, index: usize) {
        self.stop_before.fetch_min(index, Ordering::Relaxed);
    }

    fn skip(&self, index: usize) -> bool {
        index > self.stop_before.load(Ordering::Relaxed)
    }

    /// Returns `true` if the task at `index` no longer needs to finish: some
    /// task at a *lower* index already produced a stopping result, so this
    /// task's result cannot be the winner of an index-ordered merge.
    pub fn cancelled(&self, index: usize) -> bool {
        self.skip(index)
    }
}

/// Applies `f` to every item, possibly in parallel, honoring the global
/// thread budget, with a deterministic early-stop contract.
///
/// `f(index, item, ctx)` computes one result; `stops(&result)` classifies it
/// as *stopping* (e.g. "found a counterexample"). Guarantees, independent of
/// thread count and scheduling:
///
/// * Let `w` be the lowest index whose task returned a stopping result (if
///   any). Every index `< w` (or every index, if no task stopped) has
///   `Some(result)` in the output, produced by a task that was **not**
///   cancelled (its [`StopCtx::cancelled`] never returned `true` while it
///   ran, because `stop_before` can only hold stopping indices, which are
///   all `≥ w`).
/// * Indices `> w` may hold `None` (skipped before starting) or the result
///   of a possibly-cancelled task.
///
/// An index-ordered merge that consumes results until the first stopping one
/// therefore sees exactly what a sequential left-to-right loop with early
/// exit would have seen.
///
/// When no extra worker tokens are available (or the slice is small) this
/// degrades to exactly that sequential loop, inline on the caller's thread.
pub fn par_map_stop<T, R, F, S>(items: &[T], f: F, stops: S) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T, &StopCtx) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    let len = items.len();
    let ctx = StopCtx::new();
    if len <= 1 {
        let mut results = Vec::with_capacity(len);
        if let Some(item) = items.first() {
            results.push(Some(f(0, item, &ctx)));
        }
        return results;
    }

    let workers = try_acquire(len - 1);
    if workers == 0 {
        // Sequential fallback: a left-to-right loop with early exit.
        let mut results: Vec<Option<R>> = Vec::with_capacity(len);
        for (i, item) in items.iter().enumerate() {
            let r = f(i, item, &ctx);
            let stop = stops(&r);
            results.push(Some(r));
            if stop {
                results.resize_with(len, || None);
                break;
            }
        }
        return results;
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let run = |_worker: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= len {
            break;
        }
        if ctx.skip(i) {
            continue;
        }
        let r = f(i, &items[i], &ctx);
        if stops(&r) {
            ctx.record_stop(i);
        }
        *slots[i].lock().expect("result slot poisoned") = Some(r);
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || run(w + 1)))
            .collect();
        run(0); // the caller participates
        for handle in handles {
            handle.join().expect("parpool worker panicked");
        }
    });
    release(workers);

    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect()
}

/// Runs two closures, possibly concurrently, and returns both results.
///
/// `g` runs on a borrowed worker token when one is free under the global
/// thread budget; otherwise it runs inline on the caller's thread after `f`.
/// Either way both closures run to completion exactly once, so a caller
/// whose closures do not communicate observes identical results at any
/// thread count — this is what lets the synthesizer overlap a speculative
/// SAT solve with a candidate's bounded testing without perturbing the
/// deterministic search trajectory. Never blocks waiting for a token.
pub fn join<RF, RG, F, G>(f: F, g: G) -> (RF, RG)
where
    RF: Send,
    RG: Send,
    F: FnOnce() -> RF + Send,
    G: FnOnce() -> RG + Send,
{
    if try_acquire(1) == 0 {
        let rf = f();
        let rg = g();
        return (rf, rg);
    }
    let pair = std::thread::scope(|scope| {
        let handle = scope.spawn(g);
        let rf = f();
        let rg = handle.join().expect("parpool join worker panicked");
        (rf, rg)
    });
    release(1);
    pair
}

/// Applies `f` to every item, possibly in parallel, and returns all results.
///
/// Convenience wrapper over [`par_map_stop`] with no stopping results.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_stop(items, |i, item, _ctx| f(i, item), |_| false)
        .into_iter()
        .map(|r| r.expect("no stopping results, so every item completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Serializes every test that sets the global thread limit or borrows
    /// worker tokens from the global budget. A fan-out running beside a test
    /// that reserves tokens can hold the only spare one (at limit 2) and
    /// make the reservation fail, so fanning out counts as using the budget.
    fn limit_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn par_map_preserves_order() {
        let _guard = limit_lock();
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(&items, |_, &x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn stop_contract_every_prefix_result_present() {
        let _guard = limit_lock();
        // Task 37 stops; every result below 37 must be present.
        for _ in 0..20 {
            let items: Vec<usize> = (0..80).collect();
            let results = par_map_stop(&items, |_, &x, _| x, |&r| r == 37);
            let winner = results
                .iter()
                .position(|r| matches!(r, Some(37)))
                .expect("the stopping task ran");
            assert_eq!(winner, 37);
            for (i, r) in results.iter().enumerate().take(winner) {
                assert_eq!(*r, Some(i), "prefix result {i} missing");
            }
        }
    }

    #[test]
    fn lowest_stopping_index_wins() {
        let _guard = limit_lock();
        // Several stopping indices: the merged winner must be the lowest,
        // and everything below it must be present.
        for _ in 0..20 {
            let items: Vec<usize> = (0..64).collect();
            let results = par_map_stop(&items, |_, &x, _| x, |&r| r % 13 == 5);
            let mut merged = None;
            for r in &results {
                let Some(r) = r else { break };
                if r % 13 == 5 {
                    merged = Some(*r);
                    break;
                }
            }
            assert_eq!(merged, Some(5));
        }
    }

    #[test]
    fn sequential_fallback_when_budget_is_one() {
        let _guard = limit_lock();
        set_thread_limit(1);
        let order = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..10).collect();
        let results = par_map_stop(
            &items,
            |i, _, _| {
                order.lock().unwrap().push(i);
                i
            },
            |&r| r == 4,
        );
        set_thread_limit(0);
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(results[4], Some(4));
        assert!(results[5..].iter().all(Option::is_none));
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let _guard = limit_lock();
        let items: Vec<usize> = (0..8).collect();
        let totals = par_map(&items, |_, &x| {
            let inner: Vec<usize> = (0..8).map(|y| x * 8 + y).collect();
            par_map(&inner, |_, &v| v + 1).into_iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8)
            .map(|x| (0..8).map(|y| x * 8 + y + 1).sum())
            .collect();
        assert_eq!(totals, expected);
    }

    #[test]
    fn cancellation_is_observable_after_a_lower_stop() {
        let _guard = limit_lock();
        // A task polling `cancelled` sees the signal once a lower index
        // stopped. (Scheduling-dependent, so only assert the invariant: a
        // cancelled index is always above a stopping one.)
        let saw_cancel = AtomicBool::new(false);
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map_stop(
            &items,
            |i, &x, ctx| {
                for _ in 0..100 {
                    if ctx.cancelled(i) {
                        saw_cancel.store(true, Ordering::Relaxed);
                        assert!(i > 0, "index 0 can never be cancelled");
                        break;
                    }
                    std::hint::spin_loop();
                }
                x
            },
            |&r| r == 0,
        );
        // Whether cancellation was observed is scheduling-dependent; the
        // assertion inside the closure is the real check.
    }

    #[test]
    fn cancel_token_fires_exactly_once_and_latches_its_reason() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::Cancelled));
        // Clones share state; a second cancel does not change the reason.
        let clone = token.clone();
        clone.cancel();
        assert_eq!(clone.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn cancel_token_deadline_is_latched_as_deadline_exceeded() {
        let token = CancelToken::with_timeout(Duration::from_secs(0));
        assert!(token.is_cancelled());
        assert_eq!(token.reason(), Some(CancelReason::DeadlineExceeded));
        // An explicit cancel after the deadline fired keeps the cause.
        token.cancel();
        assert_eq!(token.reason(), Some(CancelReason::DeadlineExceeded));
    }

    #[test]
    fn linked_token_fires_on_parent_cancel_or_own_deadline() {
        // Parent cancel propagates (and latches the parent's cause).
        let parent = CancelToken::new();
        let child = parent.linked_with_timeout(Duration::from_secs(3600));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert_eq!(child.reason(), Some(CancelReason::Cancelled));
        // The child's own deadline fires without touching the parent.
        let parent = CancelToken::new();
        let child = parent.linked_with_timeout(Duration::ZERO);
        assert!(child.is_cancelled());
        assert_eq!(child.reason(), Some(CancelReason::DeadlineExceeded));
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn cancel_token_with_future_deadline_stays_live() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert_eq!(token.reason(), None);
        assert!(token.deadline().is_some());
        token.cancel();
        assert_eq!(token.reason(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn join_runs_both_closures_at_any_budget() {
        let _guard = limit_lock();
        for limit in [1usize, 4] {
            set_thread_limit(limit);
            let (a, b) = join(|| 1 + 1, || "right");
            assert_eq!((a, b), (2, "right"));
        }
        set_thread_limit(0);
    }

    #[test]
    fn join_inline_fallback_runs_left_then_right() {
        let _guard = limit_lock();
        set_thread_limit(1);
        let order = Mutex::new(Vec::new());
        let push = |tag: &'static str| order.lock().unwrap().push(tag);
        let _ = join(|| push("left"), || push("right"));
        set_thread_limit(0);
        assert_eq!(order.into_inner().unwrap(), vec!["left", "right"]);
    }

    #[test]
    fn budget_reservation_is_all_or_nothing_and_releases_on_drop() {
        let _guard = limit_lock();
        set_thread_limit(4);
        // 3 worker tokens free (limit - 1). A 2-token reservation fits; a
        // second 2-token reservation must fail *without* acquiring anything.
        let first = BudgetReservation::try_new(2).expect("2 of 3 tokens free");
        assert_eq!(first.tokens(), 2);
        assert!(BudgetReservation::try_new(2).is_none());
        // A 1-token reservation still fits beside the first (2 + 1 < 4):
        // the headroom rule only keeps the caller thread's implicit slot.
        assert!(BudgetReservation::try_new(1).is_some());
        drop(first);
        let again = BudgetReservation::try_new(2);
        assert!(again.is_some(), "dropping the reservation frees its tokens");
        drop(again);
        set_thread_limit(0);
    }

    #[test]
    fn reserved_tokens_shrink_the_fan_out_budget() {
        let _guard = limit_lock();
        set_thread_limit(2);
        // With the single spare token reserved, par_map_stop degrades to
        // the sequential fallback: a stop at index 4 leaves 5..N untouched
        // (the parallel path could have started them already).
        let reservation = BudgetReservation::try_new(1).expect("one spare token");
        let items: Vec<usize> = (0..10).collect();
        let results = par_map_stop(&items, |i, _, _| i, |&r| r == 4);
        assert!(results[5..].iter().all(Option::is_none));
        drop(reservation);
        set_thread_limit(0);
    }

    #[test]
    fn thread_limit_roundtrip() {
        let _guard = limit_lock();
        set_thread_limit(3);
        assert_eq!(thread_limit(), 3);
        set_thread_limit(0);
        assert_eq!(thread_limit(), default_limit());
    }
}
