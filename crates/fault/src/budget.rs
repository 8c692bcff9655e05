//! Cooperative evaluation budgets: a wall-clock deadline, a shared
//! cancellation flag and a liveness probe, installed per thread and polled
//! from long loops.
//!
//! The budget is deliberately *ambient* (thread-local) rather than threaded
//! through every function signature: deep loops — min-fill ordering, sweep
//! plans, DPLL branching, the chase — poll [`check`] or [`tripped`] without
//! their callers changing shape. Worker threads that fan out on behalf of a
//! budgeted caller re-install a clone obtained from [`current`].

use std::cell::RefCell;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a budgeted evaluation stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// The wall-clock deadline passed; `stage` names the loop that noticed.
    DeadlineExceeded {
        /// Checkpoint that observed the expiry (e.g. `"circuit sweep"`).
        stage: &'static str,
    },
    /// The shared cancel flag was raised; `stage` names the loop that noticed.
    Cancelled {
        /// Checkpoint that observed the cancellation.
        stage: &'static str,
    },
}

impl BudgetError {
    /// The checkpoint that tripped, for error messages and metrics labels.
    pub fn stage(&self) -> &'static str {
        match self {
            BudgetError::DeadlineExceeded { stage } | BudgetError::Cancelled { stage } => stage,
        }
    }
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::DeadlineExceeded { stage } => {
                write!(f, "evaluation deadline exceeded during {stage}")
            }
            BudgetError::Cancelled { stage } => {
                write!(f, "evaluation cancelled during {stage}")
            }
        }
    }
}

impl Error for BudgetError {}

/// Shared cancellation flag: clone freely, raise once from any thread.
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    flag: Arc<AtomicBool>,
}

impl CancelHandle {
    /// Fresh, un-raised handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every budget built from this handle trips on its
    /// next poll. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`CancelHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// How often a budget's liveness probe may run: at most once per interval,
/// the first run due one interval after [`EvalBudget::probed_by`]. Work
/// that finishes sooner never calls the probe at all.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(20);

/// A liveness probe shared by every clone of one budget, so the once per
/// [`PROBE_INTERVAL`] rate holds across the threads that re-install it.
struct Probe {
    alive: Box<dyn Fn() -> bool + Send + Sync>,
    origin: Instant,
    /// Nanoseconds after `origin` at which the next run is due.
    next_due: AtomicU64,
    /// Latched once a run reports the peer gone: later polls, on any
    /// thread, trip without running the probe again.
    gone: AtomicBool,
}

impl Probe {
    /// Whether the peer is known to be gone as of `now`, running the probe
    /// if a run is due and the latch is still clear. One thread claims
    /// each due run; the others read the latch.
    fn gone(&self, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.origin).as_nanos() as u64;
        let due = self.next_due.load(Ordering::Relaxed);
        let next = elapsed + PROBE_INTERVAL.as_nanos() as u64;
        let claimed = !self.gone.load(Ordering::Acquire)
            && elapsed >= due
            && self
                .next_due
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok();
        if claimed && !(self.alive)() {
            self.gone.store(true, Ordering::Release);
        }
        self.gone.load(Ordering::Acquire)
    }
}

impl fmt::Debug for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Probe")
    }
}

/// A cooperative evaluation budget: an optional deadline, an optional
/// cancellation flag and an optional liveness probe. `Clone` is cheap (an
/// `Instant` and two `Arc`s).
#[derive(Debug, Clone, Default)]
pub struct EvalBudget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    probe: Option<Arc<Probe>>,
}

impl EvalBudget {
    /// A budget that never trips. Installing it still exercises the
    /// checkpoint machinery (useful for measuring overhead).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget expiring `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// Budget expiring at an absolute instant — used by the server, which
    /// anchors deadlines at accept time so queueing counts against them.
    pub fn with_deadline_at(deadline: Instant) -> Self {
        EvalBudget {
            deadline: Some(deadline),
            ..EvalBudget::default()
        }
    }

    /// Attaches a cancellation handle; the budget trips once it is raised.
    pub fn cancelled_by(mut self, handle: &CancelHandle) -> Self {
        self.cancel = Some(Arc::clone(&handle.flag));
        self
    }

    /// Attaches a liveness probe: the budget trips as
    /// [`BudgetError::Cancelled`] once `alive` returns false. Checkpoints
    /// call it at most once per [`PROBE_INTERVAL`], the first time one
    /// interval from now; the server probes the request's socket this way
    /// to stop work for a client that hung up.
    pub fn probed_by(mut self, alive: impl Fn() -> bool + Send + Sync + 'static) -> Self {
        self.probe = Some(Arc::new(Probe {
            alive: Box::new(alive),
            origin: Instant::now(),
            next_due: AtomicU64::new(PROBE_INTERVAL.as_nanos() as u64),
            gone: AtomicBool::new(false),
        }));
        self
    }

    /// Whether this budget can ever trip.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some() || self.probe.is_some()
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` when undeadlined, zero when
    /// already expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Polls the budget directly (without going through the thread-local
    /// scope): the cancel flag, then the probe, then the deadline. Both
    /// cancellation sources are reported ahead of deadline expiry so a
    /// disconnected client reads as `Cancelled`, not `DeadlineExceeded`.
    pub fn check(&self, stage: &'static str) -> Result<(), BudgetError> {
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Acquire) {
                return Err(BudgetError::Cancelled { stage });
            }
        }
        if let Some(probe) = &self.probe {
            if probe.gone(Instant::now()) {
                return Err(BudgetError::Cancelled { stage });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(BudgetError::DeadlineExceeded { stage });
            }
        }
        Ok(())
    }
}

/// What a budget scope observed: how many checkpoints polled the budget and
/// how much wall time those polls cost in total. Feeds the
/// `stuc_engine_budget_check_seconds` histogram.
#[derive(Debug, Clone, Copy, Default)]
pub struct BudgetStats {
    /// Number of checkpoint polls that reached the installed budget.
    pub checks: u64,
    /// Total wall time spent inside those polls.
    pub spent: Duration,
}

struct ScopeState {
    budget: EvalBudget,
    checks: u64,
    spent: Duration,
}

thread_local! {
    static CURRENT: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// Restores the previous scope even if `f` panics, so a caught panic cannot
/// leak a stale budget into the worker's next request.
struct ScopeGuard {
    previous: Option<ScopeState>,
    taken: bool,
}

impl ScopeGuard {
    fn install(budget: EvalBudget) -> Self {
        let previous = CURRENT.with(|c| {
            c.borrow_mut().replace(ScopeState {
                budget,
                checks: 0,
                spent: Duration::ZERO,
            })
        });
        ScopeGuard {
            previous,
            taken: false,
        }
    }

    fn finish(mut self) -> BudgetStats {
        self.taken = true;
        let state = CURRENT.with(|c| std::mem::replace(&mut *c.borrow_mut(), self.previous.take()));
        match state {
            Some(s) => BudgetStats {
                checks: s.checks,
                spent: s.spent,
            },
            None => BudgetStats::default(),
        }
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.taken {
            CURRENT.with(|c| {
                *c.borrow_mut() = self.previous.take();
            });
        }
    }
}

/// Runs `f` with `budget` installed as the thread's ambient budget.
/// Scopes nest: the previous budget is restored afterwards (also on panic).
pub fn scope<T>(budget: EvalBudget, f: impl FnOnce() -> T) -> T {
    let (value, _) = scope_with_stats(budget, f);
    value
}

/// Like [`scope`], additionally returning how many checkpoints polled the
/// budget and the wall time those polls cost.
pub fn scope_with_stats<T>(budget: EvalBudget, f: impl FnOnce() -> T) -> (T, BudgetStats) {
    let guard = ScopeGuard::install(budget);
    let value = f();
    let stats = guard.finish();
    (value, stats)
}

/// How often a limited-budget poll is *itself* timed for the overhead
/// histogram: 1 in 16, scaled back up. Timing every poll would double the
/// clock reads and make the measurement the dominant cost it reports.
const SPENT_SAMPLE_EVERY: u64 = 16;

/// Polls the ambient budget. `Ok(())` when no budget is installed — the
/// fast path is a single thread-local read with no clock access. For a
/// limited budget, overhead accounting is sampled (1 in
/// `SPENT_SAMPLE_EVERY` = 16 polls, scaled), so a poll normally costs one
/// clock read, not three.
pub fn check(stage: &'static str) -> Result<(), BudgetError> {
    CURRENT.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(state) = slot.as_mut() else {
            return Ok(());
        };
        if !state.budget.is_limited() {
            state.checks += 1;
            return Ok(());
        }
        let sampled = state.checks.is_multiple_of(SPENT_SAMPLE_EVERY);
        let started = sampled.then(Instant::now);
        let verdict = state.budget.check(stage);
        state.checks += 1;
        if let Some(started) = started {
            state.spent += started.elapsed() * SPENT_SAMPLE_EVERY as u32;
        }
        verdict
    })
}

/// Infallible poll for code that degrades rather than errors (e.g. min-fill
/// falls back to identifier order). True once the ambient budget tripped.
pub fn tripped() -> bool {
    check("tripped-poll").is_err()
}

/// Clone of the ambient budget, for re-installing in worker threads that
/// fan out on behalf of a budgeted caller. `None` when no budget is set.
pub fn current() -> Option<EvalBudget> {
    CURRENT.with(|c| c.borrow().as_ref().map(|s| s.budget.clone()))
}

/// Amortises checkpoint polls over hot loops: `tick()` is true once every
/// `interval` calls. Keeps even the thread-local read off the per-iteration
/// path of the tightest loops.
#[derive(Debug)]
pub struct Gate {
    interval: u32,
    count: u32,
}

impl Gate {
    /// A gate whose `tick` fires every `interval` calls (first fire on the
    /// `interval`-th call). `interval` of 0 is treated as 1.
    pub fn every(interval: u32) -> Self {
        Gate {
            interval: interval.max(1),
            count: 0,
        }
    }

    /// Advances the gate; true when a checkpoint poll is due.
    pub fn tick(&mut self) -> bool {
        self.count += 1;
        if self.count >= self.interval {
            self.count = 0;
            true
        } else {
            false
        }
    }

    /// Convenience: `tick` then [`check`] when due.
    pub fn check(&mut self, stage: &'static str) -> Result<(), BudgetError> {
        if self.tick() {
            check(stage)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscoped_check_is_ok() {
        assert_eq!(check("nowhere"), Ok(()));
        assert!(!tripped());
        assert!(current().is_none());
    }

    #[test]
    fn deadline_trips_and_scope_restores() {
        let budget = EvalBudget::with_deadline(Duration::ZERO);
        let (result, stats) = scope_with_stats(budget, || {
            std::thread::sleep(Duration::from_millis(1));
            check("stage-a")
        });
        assert_eq!(
            result,
            Err(BudgetError::DeadlineExceeded { stage: "stage-a" })
        );
        assert_eq!(stats.checks, 1);
        assert_eq!(check("after"), Ok(()));
    }

    #[test]
    fn cancellation_wins_over_deadline() {
        let handle = CancelHandle::new();
        handle.cancel();
        let budget = EvalBudget::with_deadline(Duration::ZERO).cancelled_by(&handle);
        std::thread::sleep(Duration::from_millis(1));
        assert_eq!(
            budget.check("stage-b"),
            Err(BudgetError::Cancelled { stage: "stage-b" })
        );
    }

    #[test]
    fn scopes_nest_and_unwind_on_panic() {
        let outer = EvalBudget::unlimited();
        scope(outer, || {
            let caught = std::panic::catch_unwind(|| {
                scope(EvalBudget::with_deadline(Duration::from_secs(3600)), || {
                    panic!("inner scope panics")
                })
            });
            assert!(caught.is_err());
            // Outer (unlimited) budget must be back in place.
            let ambient = current().expect("outer budget restored");
            assert!(!ambient.is_limited());
        });
        assert!(current().is_none());
    }

    #[test]
    fn gate_fires_on_interval() {
        let mut gate = Gate::every(4);
        let fired: Vec<bool> = (0..8).map(|_| gate.tick()).collect();
        assert_eq!(
            fired,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn unlimited_scope_counts_checks_without_tripping() {
        let (result, stats) = scope_with_stats(EvalBudget::unlimited(), || {
            for _ in 0..100 {
                check("loop").unwrap();
            }
            42
        });
        assert_eq!(result, 42);
        assert_eq!(stats.checks, 100);
        // A budget without a probe or a deadline keeps the fast path: it
        // never reads the clock.
        assert_eq!(stats.spent, Duration::ZERO);
    }

    /// A budget whose probe counts its runs and answers `alive`.
    fn probed(alive: bool) -> (EvalBudget, Arc<AtomicU64>) {
        let runs = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&runs);
        let budget = EvalBudget::unlimited().probed_by(move || {
            counter.fetch_add(1, Ordering::SeqCst);
            alive
        });
        (budget, runs)
    }

    /// Sleeps past the next due probe run.
    fn wait_out_interval() {
        std::thread::sleep(PROBE_INTERVAL + Duration::from_millis(5));
    }

    #[test]
    fn the_probe_waits_one_interval_then_runs_at_most_once_per_interval() {
        let built = Instant::now();
        let (budget, runs) = probed(true);
        assert!(budget.is_limited());
        for _ in 0..1000 {
            budget.check("early").unwrap();
        }
        // Only a descheduled test thread could have slept past the interval.
        if built.elapsed() < PROBE_INTERVAL {
            assert_eq!(runs.load(Ordering::SeqCst), 0, "probed before its interval");
        }

        wait_out_interval();
        let due = Instant::now();
        // Clones on other threads share the schedule: one run in total.
        let clone = budget.clone();
        std::thread::spawn(move || {
            for _ in 0..1000 {
                clone.check("due").unwrap();
            }
        })
        .join()
        .unwrap();
        for _ in 0..1000 {
            budget.check("due").unwrap();
        }
        if due.elapsed() < PROBE_INTERVAL {
            assert_eq!(
                runs.load(Ordering::SeqCst),
                1,
                "more than one run per interval"
            );
        }

        wait_out_interval();
        budget.check("later").unwrap();
        assert!(runs.load(Ordering::SeqCst) >= 2, "the probe ran only once");
    }

    #[test]
    fn a_probe_that_reports_the_peer_gone_trips_as_cancelled() {
        let (budget, runs) = probed(false);
        let outcome = scope(budget.clone(), || {
            check("before").unwrap();
            wait_out_interval();
            check("circuit sweep")
        });
        assert_eq!(
            outcome,
            Err(BudgetError::Cancelled {
                stage: "circuit sweep"
            })
        );
        // Latched: later polls trip with their own stage, without rerunning
        // the probe.
        assert_eq!(
            budget.check("after"),
            Err(BudgetError::Cancelled { stage: "after" })
        );
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_probe_trip_wins_over_the_deadline() {
        let (budget, _) = probed(false);
        let budget = EvalBudget {
            deadline: Some(Instant::now()),
            ..budget
        };
        wait_out_interval();
        assert_eq!(
            budget.check("probe"),
            Err(BudgetError::Cancelled { stage: "probe" })
        );
    }
}
