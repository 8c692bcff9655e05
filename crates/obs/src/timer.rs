//! One monotonic clock per operation.
//!
//! Reports used to call `Instant::now()` independently for the wall time and
//! for any finer-grained timing, which let the two drift apart. Here a single
//! [`Stopwatch`] is started once; the wall time and every stage lap are reads
//! of that same clock, so `wall_time >= sum(stages)` holds by construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace;

/// A started monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start the clock.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// The underlying start instant.
    pub fn started_at(&self) -> Instant {
        self.started
    }
}

/// One named, timed pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Stage name; a fixed vocabulary of literals (`"parse"`, `"sweep"`, …).
    pub name: &'static str,
    /// Time spent in the stage (summed if recorded more than once).
    pub duration: Duration,
}

/// Per-stage timing breakdown of one operation, in first-recorded order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageTimings {
    stages: Vec<Stage>,
}

impl StageTimings {
    /// No stages recorded.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The recorded stages, in first-recorded order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Time recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.duration)
    }

    /// Sum of all stage durations (at most the operation's wall time).
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Add `duration` under `name`, summing with any prior lap of the
    /// same stage.
    pub fn record(&mut self, name: &'static str, duration: Duration) {
        match self.stages.iter_mut().find(|s| s.name == name) {
            Some(stage) => stage.duration += duration,
            None => self.stages.push(Stage { name, duration }),
        }
    }

    /// Fold another breakdown into this one, stage by stage.
    pub fn merge(&mut self, other: &StageTimings) {
        for stage in &other.stages {
            self.record(stage.name, stage.duration);
        }
    }
}

/// A [`Stopwatch`] plus a lap cursor: `mark(name)` closes the stage that
/// began at the previous mark (or at start) and attributes the lap to
/// `name`. Marks also emit tracer spans when tracing is enabled, so the
/// chrome trace shows the same stages the report does.
#[derive(Debug)]
pub struct StageRecorder {
    watch: Stopwatch,
    cursor: Duration,
    timings: StageTimings,
}

impl Default for StageRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl StageRecorder {
    /// Start the clock with no stages recorded.
    pub fn new() -> Self {
        StageRecorder {
            watch: Stopwatch::start(),
            cursor: Duration::ZERO,
            timings: StageTimings::default(),
        }
    }

    /// The shared clock (use it for the report's wall time).
    pub fn watch(&self) -> Stopwatch {
        self.watch
    }

    /// Total elapsed time on the shared clock.
    pub fn elapsed(&self) -> Duration {
        self.watch.elapsed()
    }

    /// Close the stage running since the previous mark, attributing its
    /// lap to `name`.
    pub fn mark(&mut self, name: &'static str) {
        let now = self.watch.elapsed();
        let lap = now.saturating_sub(self.cursor);
        self.cursor = now;
        self.timings.record(name, lap);
        trace::record_complete(name, self.watch.started_at() + (now - lap), lap);
    }

    /// The breakdown so far.
    pub fn timings(&self) -> &StageTimings {
        &self.timings
    }

    /// Finish, returning the breakdown.
    pub fn finish(self) -> StageTimings {
        self.timings
    }
}

/// Next value of the process-wide trace-id sequence (starts at 1).
///
/// Trace ids correlate a query response with the slow-query log; they are
/// unique within a process, not globally.
pub fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}
