//! What an evaluation returns besides the probability itself: the
//! per-query [`EvaluationReport`], the per-batch [`BatchReport`], and the
//! [`BackendKind`] / [`BackendPolicy`] vocabulary both use.

use super::error::StucError;
use std::time::Duration;
use stuc_obs::StageTimings;

/// The back-ends an [`crate::engine::Engine`] can dispatch to, and the
/// policy values a caller can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Dalvi–Suciu extensional safe-plan evaluation (TID + hierarchical
    /// self-join-free CQs only; no circuit is built at all).
    SafePlan,
    /// Exact weighted model counting by message passing over a tree
    /// decomposition of the lineage circuit (the paper's flagship method).
    TreewidthWmc,
    /// Shannon-expansion / DPLL counting with memoisation: no width
    /// assumption, exponential in the worst case.
    Dpll,
    /// Possible-world enumeration over the lineage variables: the paper's
    /// "cannot represent them all, much less query them" strawman, kept as a
    /// ground-truth baseline.
    Enumeration,
}

impl BackendKind {
    /// Stable human-readable name, used in reports and error messages.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::SafePlan => "safe-plan",
            BackendKind::TreewidthWmc => "treewidth-wmc",
            BackendKind::Dpll => "dpll",
            BackendKind::Enumeration => "enumeration",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the engine picks a back-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendPolicy {
    /// Inspect the task and pick automatically: safe-plan when the query is
    /// hierarchical and self-join-free on a TID, else treewidth WMC when the
    /// lineage circuit's estimated width fits the budget, else DPLL.
    /// Enumeration is never auto-selected.
    #[default]
    Auto,
    /// Always use the given back-end; fail with
    /// [`crate::engine::StucError::BackendUnsupported`] if it cannot run.
    Fixed(BackendKind),
}

/// The outcome of one [`crate::engine::Engine::evaluate`] call, with full
/// provenance of *how* the answer was produced.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationReport {
    /// The probability that the Boolean query holds.
    pub probability: f64,
    /// The back-end that actually computed the probability (after automatic
    /// selection, this is the choice that ran — not the policy requested).
    pub backend: BackendKind,
    /// Width of the tree decomposition of the representation's structure
    /// graph; `None` when no decomposition was needed (safe-plan path).
    pub decomposition_width: Option<usize>,
    /// Gate count of the lineage circuit handed to the back-end (0 on the
    /// safe-plan path, which never builds a circuit).
    pub circuit_gates: usize,
    /// Number of facts (relational) or nodes (PrXML) in the representation.
    pub fact_count: usize,
    /// Wall-clock time of the whole evaluation, including decomposition,
    /// lineage construction and back-end execution.
    pub wall_time: Duration,
    /// True when the structure decomposition came from the engine's cache
    /// (also set on a lineage-cache hit, which skips the decomposition
    /// lookup altogether).
    pub decomposition_cached: bool,
    /// True when the compiled lineage circuit came from the engine's
    /// lineage cache, skipping decomposition and lineage construction
    /// entirely — only the counting back-end ran.
    pub lineage_cached: bool,
    /// Human-readable trace of the strategy decisions taken (safe-plan
    /// refusals, width-budget fallbacks, lineage fallbacks).
    pub notes: Vec<String>,
    /// The cost-model route chosen for this evaluation, when it came in
    /// through the textual front-end ([`crate::engine::Engine::evaluate_text`]).
    /// `None` for programmatic [`crate::engine::Engine::evaluate`] calls,
    /// which bypass the cost model.
    pub route: Option<stuc_lang::cost::Route>,
    /// Process-unique id of this evaluation, correlating the report with
    /// the slow-query log and the span tracer.
    pub trace_id: u64,
    /// Per-stage wall-time breakdown (`parse`, `safe-plan`, `cache-lookup`,
    /// `decompose`, `compile-lineage`, `weights`, `sweep`, …), recorded on
    /// the same monotonic clock as [`EvaluationReport::wall_time`], so
    /// `stage_timings.total() <= wall_time` holds by construction.
    pub stage_timings: StageTimings,
}

impl EvaluationReport {
    /// The query is possible (holds in some world).
    pub fn is_possible(&self) -> bool {
        self.probability > 0.0
    }

    /// The query is certain (holds in every world), up to rounding.
    pub fn is_certain(&self) -> bool {
        (self.probability - 1.0).abs() < 1e-9
    }

    /// Stable name of the back-end that ran.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }
}

/// The outcome of one [`crate::engine::Engine::evaluate_batch`] call:
/// per-query results in input order plus aggregate statistics about how the
/// batch was executed (worker threads, cache sharing).
///
/// A batch never fails as a whole — a query that errors (unparseable for
/// its backend, width budget exceeded under a fixed policy, …) carries its
/// [`StucError`] in its slot while the rest of the batch completes.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One result per input query, in the order the queries were given.
    pub reports: Vec<Result<EvaluationReport, StucError>>,
    /// Wall-clock time of the whole batch, spawn to join.
    pub wall_time: Duration,
    /// Number of worker threads the batch actually ran on.
    pub threads: usize,
    /// How many queries were answered from the compiled-lineage cache.
    pub lineage_cache_hits: usize,
    /// How many queries reused a cached (or lineage-cache-implied)
    /// structure decomposition.
    pub decomposition_cache_hits: usize,
}

impl BatchReport {
    /// Assembles a report from per-query results, deriving the aggregate
    /// cache statistics from the per-query flags.
    pub(crate) fn assemble(
        reports: Vec<Result<EvaluationReport, StucError>>,
        threads: usize,
        wall_time: Duration,
    ) -> Self {
        let lineage_cache_hits = reports
            .iter()
            .filter(|r| matches!(r, Ok(report) if report.lineage_cached))
            .count();
        let decomposition_cache_hits = reports
            .iter()
            .filter(|r| matches!(r, Ok(report) if report.decomposition_cached))
            .count();
        BatchReport {
            reports,
            wall_time,
            threads,
            lineage_cache_hits,
            decomposition_cache_hits,
        }
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Number of queries that evaluated successfully.
    pub fn succeeded(&self) -> usize {
        self.reports.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of queries that failed.
    pub fn failed(&self) -> usize {
        self.len() - self.succeeded()
    }

    /// The probability of each query, `None` where evaluation failed.
    pub fn probabilities(&self) -> Vec<Option<f64>> {
        self.reports
            .iter()
            .map(|r| r.as_ref().ok().map(|report| report.probability))
            .collect()
    }

    /// Iterates over the successful reports in input order.
    pub fn successes(&self) -> impl Iterator<Item = &EvaluationReport> {
        self.reports.iter().filter_map(|r| r.as_ref().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(BackendKind::SafePlan.name(), "safe-plan");
        assert_eq!(BackendKind::TreewidthWmc.name(), "treewidth-wmc");
        assert_eq!(BackendKind::Dpll.to_string(), "dpll");
        assert_eq!(BackendKind::Enumeration.name(), "enumeration");
    }

    #[test]
    fn default_policy_is_auto() {
        assert_eq!(BackendPolicy::default(), BackendPolicy::Auto);
    }
}
