//! Pre-resolved metric handles for the engine's hot paths.
//!
//! Registration against the [`stuc_obs`] process-global registry happens
//! once (lazily, on first engine use); afterwards every update is a relaxed
//! atomic operation on a pre-resolved `Arc` handle. Metrics are
//! process-cumulative: several engines in one process share the same
//! counters, as is conventional for Prometheus exposition.

use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stuc_obs::metrics::{registry, Counter, Gauge, Histogram};
use stuc_obs::timer::Stopwatch;
use stuc_obs::trace;

/// Calls / errors / latency of one engine entry point.
pub(crate) struct EntryMetrics {
    calls: Arc<Counter>,
    errors: Arc<Counter>,
    seconds: Arc<Histogram>,
}

impl EntryMetrics {
    fn register(entry: &str, what: &str) -> Self {
        let reg = registry();
        EntryMetrics {
            calls: reg.counter(
                &format!("stuc_engine_{entry}_total"),
                &format!("Calls to {what}."),
            ),
            errors: reg.counter(
                &format!("stuc_engine_{entry}_errors_total"),
                &format!("Failed calls to {what}."),
            ),
            seconds: reg.histogram(
                &format!("stuc_engine_{entry}_seconds"),
                &format!("Wall time of {what} calls."),
            ),
        }
    }

    /// Runs one public entry point under its tracer span: times `run`,
    /// records the call (successes land in the latency histogram, failures
    /// only bump the counters), then hands the result and its wall time to
    /// `log` for slow-log reporting.
    pub(crate) fn instrument<T, E>(
        &self,
        span: &'static str,
        run: impl FnOnce() -> Result<T, E>,
        log: impl FnOnce(&Result<T, E>, Duration),
    ) -> Result<T, E> {
        let _span = trace::span(span);
        let watch = Stopwatch::start();
        let result = run();
        let wall = watch.elapsed();
        self.calls.inc();
        match &result {
            Ok(_) => self.seconds.observe(wall),
            Err(_) => self.errors.inc(),
        }
        log(&result, wall);
        result
    }
}

/// One bundle per public entry point, plus the fault-tolerance families.
pub(crate) struct EngineMetrics {
    pub(crate) evaluate: EntryMetrics,
    pub(crate) evaluate_text: EntryMetrics,
    pub(crate) evaluate_goal: EntryMetrics,
    pub(crate) evaluate_batch: EntryMetrics,
    pub(crate) reevaluate: EntryMetrics,
    pub(crate) apply_update: EntryMetrics,
    pub(crate) marginals: EntryMetrics,
    pub(crate) sample_worlds: EntryMetrics,
    pub(crate) most_probable_world: EntryMetrics,
    /// Evaluations that tripped their deadline (any stage).
    pub(crate) deadline_exceeded: Arc<Counter>,
    /// Evaluations cut short by a raised cancel flag or a failed liveness
    /// probe.
    pub(crate) cancelled: Arc<Counter>,
    /// Panics caught and converted to `StucError::Internal`.
    pub(crate) panics_caught: Arc<Counter>,
    /// Total wall time one budgeted evaluation spent inside budget-checkpoint
    /// polls (one observation per budgeted entry-point call).
    pub(crate) budget_check_seconds: Arc<Histogram>,
}

/// The lazily-registered, process-global engine metrics.
pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| EngineMetrics {
        evaluate: EntryMetrics::register("evaluate", "Engine::evaluate"),
        evaluate_text: EntryMetrics::register("evaluate_text", "Engine::evaluate_text"),
        evaluate_goal: EntryMetrics::register(
            "evaluate_goal",
            "Engine::evaluate_goal (per textual goal, including via evaluate_text)",
        ),
        evaluate_batch: EntryMetrics::register("evaluate_batch", "Engine::evaluate_batch"),
        reevaluate: EntryMetrics::register(
            "reevaluate",
            "Engine::reevaluate_with_weights (single and many)",
        ),
        apply_update: EntryMetrics::register("apply_update", "Engine::apply_update"),
        marginals: EntryMetrics::register("marginals", "Engine::marginals"),
        sample_worlds: EntryMetrics::register(
            "sample_worlds",
            "Engine::sample_worlds / Engine::world_sampler",
        ),
        most_probable_world: EntryMetrics::register(
            "most_probable_world",
            "Engine::most_probable_world",
        ),
        deadline_exceeded: registry().counter(
            "stuc_engine_deadline_exceeded_total",
            "Evaluations that exceeded their wall-clock deadline.",
        ),
        cancelled: registry().counter(
            "stuc_engine_cancelled_total",
            "Evaluations cancelled by a raised cancel flag or a client that hung up.",
        ),
        panics_caught: registry().counter(
            "stuc_engine_panics_caught_total",
            "Panics caught at an isolation boundary and converted to StucError::Internal.",
        ),
        budget_check_seconds: registry().histogram(
            "stuc_engine_budget_check_seconds",
            "Per-call wall time spent inside budget checkpoint polls.",
        ),
    })
}

/// Live counters of one engine cache, mirrored into the global registry
/// alongside the per-engine [`CacheCounters`](super::CacheCounters)
/// snapshots (which tests and `Engine::cache_stats` keep using).
#[derive(Debug, Clone)]
pub(crate) struct CacheMetricHandles {
    pub(crate) hits: Arc<Counter>,
    pub(crate) misses: Arc<Counter>,
    pub(crate) races_lost: Arc<Counter>,
    pub(crate) evictions: Arc<Counter>,
    pub(crate) entries: Arc<Gauge>,
}

/// The `stuc_cache_{cache}_hits_total` and `…_misses_total` counters.
fn hit_miss_counters(cache: &str) -> (Arc<Counter>, Arc<Counter>) {
    let reg = registry();
    (
        reg.counter(
            &format!("stuc_cache_{cache}_hits_total"),
            &format!("Validated hits on the {cache} cache (all engines)."),
        ),
        reg.counter(
            &format!("stuc_cache_{cache}_misses_total"),
            &format!("Misses (absent or failed revalidation) on the {cache} cache."),
        ),
    )
}

fn cache_metrics(cache: &str) -> CacheMetricHandles {
    let reg = registry();
    let (hits, misses) = hit_miss_counters(cache);
    CacheMetricHandles {
        hits,
        misses,
        races_lost: reg.counter(
            &format!("stuc_cache_{cache}_races_lost_total"),
            &format!("First-writer-wins publish races lost on the {cache} cache."),
        ),
        evictions: reg.counter(
            &format!("stuc_cache_{cache}_evictions_total"),
            &format!("Capacity (FIFO) evictions from the {cache} cache."),
        ),
        entries: reg.gauge(
            &format!("stuc_cache_{cache}_entries"),
            &format!("Entries resident in the {cache} cache (all engines)."),
        ),
    }
}

/// Global live counters of the structure-decomposition cache.
pub(crate) fn decomposition_cache_metrics() -> CacheMetricHandles {
    static METRICS: OnceLock<CacheMetricHandles> = OnceLock::new();
    METRICS
        .get_or_init(|| cache_metrics("decomposition"))
        .clone()
}

/// Global live counters of the compiled-lineage cache.
pub(crate) fn lineage_cache_metrics() -> CacheMetricHandles {
    static METRICS: OnceLock<CacheMetricHandles> = OnceLock::new();
    METRICS.get_or_init(|| cache_metrics("lineage")).clone()
}

/// Global hit and miss counters of the answers memoised on compiled-lineage
/// entries.
pub(crate) fn answer_cache_metrics() -> (Arc<Counter>, Arc<Counter>) {
    static METRICS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    METRICS.get_or_init(|| hit_miss_counters("answer")).clone()
}
