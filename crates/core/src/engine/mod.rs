//! # The unified STUC engine
//!
//! One façade over every uncertain representation and every probability
//! back-end in the workspace. The paper's claim is that a *single*
//! structural pipeline — instance → tree decomposition → automaton/lineage →
//! circuit → weighted model counting — uniformly covers tuple-independent
//! instances, c-/pc-/pcc-instances and probabilistic XML; this module is
//! that uniformity as an API:
//!
//! * [`Representation`] — what the engine needs from a representation
//!   (structure graph, lineage constructor, weights, identity). Implemented
//!   by `TidInstance`, `CInstance`, `PcInstance`, `PccInstance` and
//!   `PrXmlDocument`.
//! * [`Backend`] — one probability strategy. Four implementations:
//!   [`SafePlanBackend`], [`TreewidthWmcBackend`], [`DpllBackend`],
//!   [`EnumerationBackend`].
//! * [`Engine`] / [`EngineBuilder`] — configuration (width
//!   budget, back-end policy, batch worker count) plus two fingerprint-keyed
//!   caches: structure decompositions per instance, and compiled lineage
//!   circuits per `(instance, query)` pair. [`Engine::evaluate`] is the
//!   single-query entry point; it returns an [`EvaluationReport`] naming the
//!   back-end that actually ran, the decomposition width, the lineage gate
//!   count and the wall time.
//! * [`Engine::evaluate_batch`] — the same pipeline over a whole query
//!   batch at once: a scoped-thread worker pool shares both caches and
//!   returns a [`BatchReport`] of per-query reports plus aggregate
//!   cache-hit and thread statistics.
//! * [`Engine::reevaluate_with_weights`] — the what-if fast path: re-runs a
//!   previously evaluated query under a different weight table, reusing the
//!   cached compiled lineage so only the counting sweep is paid.
//! * [`Engine::evaluate_text`] — the textual front-end (`stuc-lang`): a
//!   datalog/UCQ program is parsed, safety-checked and lowered to signed
//!   sums of conjunctive queries, and a cost model routes each goal to the
//!   safe plan or the compiled circuit, recorded in
//!   [`EvaluationReport::route`].
//! * [`Engine::marginals`] / [`Engine::sample_worlds`] /
//!   [`Engine::most_probable_world`] — the posterior-inference modes
//!   (`stuc-infer`): all-fact marginals in one backward sweep, exact world
//!   sampling by top-down descent, and max-product most-probable-world.
//!   All three run on the same cached compiled lineage as the counting
//!   modes and return an [`InferenceReport`].
//! * [`StucError`] — the single error enum every per-crate error converts
//!   into.
//!
//! ## Automatic strategy selection
//!
//! Under [`BackendPolicy::Auto`] (the default), [`Engine::evaluate`]:
//!
//! 1. tries the **safe plan** when the representation offers an extensional
//!    fast path (TID instances) and the query is hierarchical and
//!    self-join-free — no circuit is built at all;
//! 2. otherwise builds the lineage circuit (decomposition-guided automaton
//!    run for TIDs, match enumeration or shared-annotation extension for the
//!    other formalisms) and runs **treewidth WMC** when the circuit's
//!    estimated width fits the budget;
//! 3. otherwise falls back to **DPLL**, which assumes nothing about width.
//!
//! The decision is made once, as a plan that evaluation executes and
//! [`Engine::explain`] renders; it is recorded in [`EvaluationReport::notes`].
//!
//! ```
//! use stuc_core::engine::Engine;
//! use stuc_data::tid::TidInstance;
//! use stuc_query::cq::ConjunctiveQuery;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a", "b"], 0.5);
//! tid.add_fact_named("R", &["b", "c"], 0.5);
//! let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
//!
//! let engine = Engine::new();
//! let report = engine.evaluate(&tid, &query).unwrap();
//! assert!((report.probability - 0.25).abs() < 1e-9);
//! println!("computed by {}", report.backend_name());
//! ```

pub mod backend;
pub mod batch;
pub mod cache;
pub mod error;
pub mod explain;
pub(crate) mod metrics;
mod plan;
pub mod report;
pub mod representation;
pub mod text;
pub mod update;

pub use backend::{
    Backend, DpllBackend, EnumerationBackend, EvaluationTask, SafePlanBackend, TreewidthWmcBackend,
};
pub use cache::{CacheCounters, EngineCacheStats};
pub use error::StucError;
pub use explain::{
    CacheExplanation, CacheSideExplanation, CircuitExplanation, ExplainOutcome, QueryExplanation,
    RouteExplanation, SafePlanEligibility, SweepPlanStats,
};
pub use report::{BackendKind, BackendPolicy, BatchReport, EvaluationReport};
pub use representation::{ExtensionalInput, LineageOutcome, ReprKind, Representation};
pub use stuc_fault::{BudgetError, CancelHandle, EvalBudget};
pub use stuc_incr::{Delta, DeltaOp, Updatable, UpdateLog};
pub use stuc_infer::{
    InferError, InferenceReport, Marginals, MostProbableWorld, SampledWorlds, World, WorldSampler,
};
pub use stuc_obs::timer::{Stage, StageTimings};
pub use text::{GoalEvaluation, TextEvaluation};
pub use update::UpdateReport;

use cache::{AnswerCounters, ShardedCache};
use metrics::{decomposition_cache_metrics, engine_metrics, lineage_cache_metrics, EntryMetrics};
use plan::CacheFlags;
use representation::debug_identity;
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use stuc_circuit::circuit::Circuit;
use stuc_circuit::compiled::{CompiledCircuit, DEFAULT_WIDTH_BUDGET};
use stuc_circuit::plan::MAX_PLANNED_BAG;
use stuc_circuit::weights::Weights;
use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc_graph::graph::Graph;
use stuc_graph::TreeDecomposition;
use stuc_obs::timer::StageRecorder;
use stuc_obs::{slowlog, trace};

/// The elimination heuristic of every structure and circuit decomposition
/// the engine builds.
const HEURISTIC: EliminationHeuristic = EliminationHeuristic::MinDegree;

/// Builder for [`Engine`]: width budget, back-end policy and cache
/// behaviour.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    width_budget: usize,
    policy: BackendPolicy,
    cache_decompositions: bool,
    cache_lineages: bool,
    cache_capacity: usize,
    batch_threads: usize,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            width_budget: DEFAULT_WIDTH_BUDGET,
            policy: BackendPolicy::Auto,
            cache_decompositions: true,
            cache_lineages: true,
            cache_capacity: 1024,
            batch_threads: 0,
        }
    }
}

impl EngineBuilder {
    /// Bag-size budget for the treewidth back-end; wider circuits make Auto
    /// fall back to DPLL (a fixed treewidth policy fails instead). Clamped
    /// to [`MAX_PLANNED_BAG`], the widest bag the sweep plans.
    pub fn width_budget(mut self, budget: usize) -> Self {
        self.width_budget = budget.min(MAX_PLANNED_BAG);
        self
    }

    /// Back-end selection policy (default: [`BackendPolicy::Auto`]).
    pub fn policy(mut self, policy: BackendPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shorthand for `policy(BackendPolicy::Fixed(kind))`.
    pub fn backend(self, kind: BackendKind) -> Self {
        self.policy(BackendPolicy::Fixed(kind))
    }

    /// Disables the fingerprint-keyed decomposition cache.
    pub fn without_decomposition_cache(mut self) -> Self {
        self.cache_decompositions = false;
        self
    }

    /// Disables the compiled-lineage cache: every evaluation rebuilds the
    /// lineage circuit, and [`Engine::reevaluate_with_weights`] loses its
    /// fast path (it still answers correctly, it just recompiles).
    pub fn without_lineage_cache(mut self) -> Self {
        self.cache_lineages = false;
        self
    }

    /// Maximum number of entries in each engine cache (decompositions,
    /// compiled lineages); default 1024. When a cache is full, inserting a
    /// new entry evicts the **oldest-inserted** one first (FIFO), so
    /// long-running engines serving evolving instances stay memory-bounded
    /// without manual [`Engine::clear_cache`] calls and churn cannot evict
    /// what was just cached. A capacity of 0 disables caching.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Number of worker threads for [`Engine::evaluate_batch`]; `0` (the
    /// default) uses [`std::thread::available_parallelism`]. The count is
    /// always additionally capped by the batch size.
    pub fn batch_threads(mut self, threads: usize) -> Self {
        self.batch_threads = threads;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        // A disabled cache is a capacity-0 cache: same no-storage behaviour,
        // one code path.
        let decomposition_capacity = if self.cache_decompositions {
            self.cache_capacity
        } else {
            0
        };
        let lineage_capacity = if self.cache_lineages {
            self.cache_capacity
        } else {
            0
        };
        let shards = cache::DEFAULT_SHARDS;
        Engine {
            config: self,
            cache: ShardedCache::with_metrics(
                decomposition_capacity,
                shards,
                decomposition_cache_metrics(),
            ),
            lineage_cache: ShardedCache::with_metrics(
                lineage_capacity,
                shards,
                lineage_cache_metrics(),
            ),
            answers: AnswerCounters::new(),
        }
    }
}

/// The unified evaluation engine: one `evaluate` call over every uncertain
/// representation, with pluggable and auto-selected back-ends. See the
/// [module docs](self) for the selection rules.
///
/// The engine is `Send + Sync` and cheaply shareable behind an
/// `Arc<Engine>`: both caches are [sharded, clone-on-read maps](cache)
/// whose hot path (a warm hit) takes only one shard's read lock for the
/// duration of an `Arc` clone, and whose miss path never holds any lock
/// across compilation — workers compile privately and publish under
/// first-writer-wins. [`Engine::evaluate_batch`] and the `stuc-serve`
/// worker pool both hammer one engine from many threads this way;
/// [`Engine::cache_stats`] exposes hit/miss counters so tests can prove
/// the sharing happened.
#[derive(Debug)]
pub struct Engine {
    config: EngineBuilder,
    /// Decompositions of structure graphs, keyed by representation
    /// fingerprint, each beside the structure graph it was built from or
    /// last validated against (`None` when no graph is known to match).
    /// An entry is reused unvalidated only by a representation whose
    /// structure graph is that very allocation; every other hit is
    /// validated first, so a fingerprint collision can never corrupt a
    /// result — it only costs a recomputation.
    cache: ShardedCache<u64, DecompositionEntry>,
    /// Compiled lineage circuits, keyed by `(instance fingerprint, query
    /// fingerprint)`. A hit skips decomposition *and* lineage
    /// construction — probability re-evaluation under changed weights
    /// (what-if analysis, [`Engine::reevaluate_with_weights`]) pays only
    /// for the counting sweep. Entries additionally store the query's exact
    /// `Debug` rendering and a second, differently-seeded instance hash;
    /// both are checked on lookup, so a wrong reuse would need two
    /// simultaneous 64-bit hash collisions on the same query text.
    ///
    /// Since [`Representation::identity`] covers every weight, an entry
    /// also memoises its answer under the representation's own weights:
    /// a repeated evaluation of unchanged data reads it instead of
    /// sweeping (see [`CompiledLineage::answer`]).
    lineage_cache: ShardedCache<LineageKey, Arc<CompiledLineage>>,
    /// Hits and misses of the memoised answers.
    answers: AnswerCounters,
}

/// Compile-time proof of the sharing contract: one `Arc<Engine>` may be
/// handed to any number of threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>()
};

/// Key of the compiled-lineage cache: instance fingerprint, query
/// fingerprint.
type LineageKey = (u64, u64);

/// A decomposition-cache value: the decomposition, and the structure graph
/// it is known to be valid for. The strong reference keeps that graph
/// allocated, so `Arc::ptr_eq` against a representation's current graph
/// cannot be fooled by a freed and reused address.
type DecompositionEntry = (Arc<TreeDecomposition>, Option<Arc<Graph>>);

/// One lineage-cache lookup of an `(instance, query)` pair: the key, plus
/// what a hit must additionally match — the exact query text and the
/// secondary instance hash of [`Representation::identity`].
struct LineageProbe {
    key: LineageKey,
    query_repr: String,
    instance_check: u64,
}

impl LineageProbe {
    fn matches(&self, entry: &CompiledLineage) -> bool {
        entry.query_repr == self.query_repr && entry.instance_check == self.instance_check
    }
}

/// A cached compiled lineage: everything about an `(instance, query)` pair
/// that does not depend on the probability weights.
#[derive(Debug)]
pub(crate) struct CompiledLineage {
    /// The compiled circuit (shared structure, cached circuit-graph
    /// decomposition). Shared, not copied, by the entries a weight-only
    /// update rekeys, so they keep its sweep plan and warm arena.
    pub(crate) compiled: Arc<CompiledCircuit>,
    /// Width of the structure-graph decomposition the lineage was built
    /// from, reported in [`EvaluationReport::decomposition_width`].
    pub(crate) decomposition_width: Option<usize>,
    /// Build-time strategy notes (e.g. an automaton-lineage fallback).
    pub(crate) build_notes: Vec<String>,
    /// Exact `Debug` rendering of the query, validated on every hit.
    pub(crate) query_repr: String,
    /// Secondary instance hash, validated on every hit.
    pub(crate) instance_check: u64,
    /// The query itself (type-erased): [`Engine::apply_update`] downcasts
    /// it back to look for new matches and rebuild the lineage when facts
    /// are inserted.
    pub(crate) query: Arc<dyn std::any::Any + Send + Sync>,
    /// The answer of the first successful counting run under the
    /// representation's own weights, and the back-end that computed it.
    /// The entry's key and check hash are [`Representation::identity`],
    /// which covers every weight, so a later run of that back-end reads it
    /// instead of fetching the weights and sweeping. Written once; every
    /// entry a write produces starts empty, and what-if weights, the
    /// inference modes and the safe plan never touch it.
    pub(crate) answer: OnceLock<(BackendKind, f64)>,
}

impl CompiledLineage {
    /// A copy carrying another circuit for the changed instance (and, when
    /// known, the width of the structure decomposition it was built from),
    /// with no answer memoised.
    pub(crate) fn with_patched_circuit(
        &self,
        compiled: Arc<CompiledCircuit>,
        instance_check: u64,
        decomposition_width: Option<usize>,
    ) -> CompiledLineage {
        CompiledLineage {
            compiled,
            decomposition_width: decomposition_width.or(self.decomposition_width),
            build_notes: self.build_notes.clone(),
            query_repr: self.query_repr.clone(),
            instance_check,
            query: Arc::clone(&self.query),
            answer: OnceLock::new(),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An engine with default configuration (width budget 22, automatic
    /// back-end selection, caching on).
    pub fn new() -> Engine {
        EngineBuilder::default().build()
    }

    /// An engine with default configuration that additionally switches the
    /// **process-global** span tracer on ([`stuc_obs::trace`]): every
    /// evaluation records named stage spans into the bounded ring buffer,
    /// exportable as Chrome trace-event JSON via
    /// [`stuc_obs::trace::chrome_trace_json`] (or `stuc-serve
    /// --trace-out=FILE`). The tracer outlives the engine; turn it back off
    /// with `stuc_obs::trace::set_enabled(false)`.
    pub fn with_tracing() -> Engine {
        trace::set_enabled(true);
        Engine::new()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The configured back-end policy.
    pub fn policy(&self) -> BackendPolicy {
        self.config.policy
    }

    /// Number of cached decompositions.
    pub fn cached_decompositions(&self) -> usize {
        self.cache.len()
    }

    /// Number of cached compiled lineages.
    pub fn cached_lineages(&self) -> usize {
        self.lineage_cache.len()
    }

    /// Hit/miss/entry counters of both engine caches — lifetime totals of
    /// validated hits and of misses (absent or failed-revalidation), plus
    /// lost publish races — and the hits and misses of the answers memoised
    /// on lineage entries. Concurrency tests use these to prove that
    /// parallel workers actually shared compiled entries instead of each
    /// compiling privately.
    pub fn cache_stats(&self) -> EngineCacheStats {
        EngineCacheStats {
            decompositions: self.cache.counters(),
            lineages: self.lineage_cache.counters(),
            answers: self.answers.counters(),
        }
    }

    /// Drops all cached decompositions and compiled lineages.
    pub fn clear_cache(&self) {
        self.cache.clear();
        self.lineage_cache.clear();
    }

    /// Drops the cached decompositions and compiled lineages of **one**
    /// instance, identified by its [`Representation::fingerprint`] — the
    /// targeted alternative to the all-or-nothing [`Engine::clear_cache`].
    /// Returns the number of entries evicted.
    ///
    /// [`Engine::apply_update`] uses this on its fallback path: when an
    /// update cannot be patched, the stale instance's entries are evicted
    /// and rebuilt on demand instead of poisoning the caches.
    ///
    /// The lineage cache keys on the primary half of
    /// [`Representation::identity`], which is the fingerprint unless a
    /// representation overrides [`Representation::fingerprint`] alone; such
    /// an override only controls the decomposition cache.
    pub fn evict_instance(&self, fingerprint: u64) -> usize {
        self.cache.drain_matching(|&key| key == fingerprint).len()
            + self
                .lineage_cache
                .drain_matching(|key| key.0 == fingerprint)
                .len()
    }

    /// Evaluates a Boolean query on any [`Representation`], returning the
    /// probability together with full provenance of how it was computed.
    ///
    /// This is the one public entry point of the STUC system: TID,
    /// c-/pc-/pcc-instances and PrXML documents all go through here, with
    /// the back-end picked by the configured [`BackendPolicy`].
    pub fn evaluate<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<EvaluationReport, StucError> {
        engine_metrics().evaluate.instrument(
            "evaluate",
            || self.run_plan(representation, query, None),
            |result, wall| match result {
                Ok(report) => {
                    slowlog::global().note("evaluate", report.wall_time, report.trace_id, || {
                        format!(
                            "backend={} gates={} facts={}",
                            report.backend.name(),
                            report.circuit_gates,
                            report.fact_count
                        )
                    });
                }
                Err(err) => note_eval_failure("evaluate", err, wall),
            },
        )
    }

    /// Runs `f` — any engine call: [`Engine::evaluate`],
    /// [`Engine::evaluate_text`], [`Engine::evaluate_batch`],
    /// [`Engine::apply_update`], … — under a cooperative [`EvalBudget`].
    /// The budget is installed for the calling thread (and re-installed in
    /// every batch worker) and polled at bounded intervals inside every
    /// long-running stage (ordering, compilation, sweeps, branching, update
    /// maintenance). A tripped deadline surfaces as
    /// [`StucError::DeadlineExceeded`], a raised cancel flag or a liveness
    /// probe that reports its peer gone as [`StucError::Cancelled`] — both
    /// name the stage that noticed; in a batch, the slots that tripped
    /// carry them while queries that finished first keep their answers. Partial artifacts of a tripped run are
    /// never published to the caches, so an identical re-run without the
    /// budget produces the exact answer, and an update's instance mutation
    /// is never torn.
    ///
    /// Each call records its budget-check overhead in the
    /// `stuc_engine_budget_check_seconds` histogram and counts every trip
    /// (one per failed call, one per failed batch slot) in
    /// `stuc_engine_deadline_exceeded_total` / `stuc_engine_cancelled_total`.
    ///
    /// ```
    /// use std::time::Duration;
    /// use stuc_core::engine::{Engine, EvalBudget, StucError};
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(6, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let expired = EvalBudget::with_deadline(Duration::ZERO);
    /// let tripped = engine.with_budget(&expired, || engine.evaluate(&tid, &query));
    /// assert!(matches!(tripped, Err(StucError::DeadlineExceeded { .. })));
    /// ```
    pub fn with_budget<T: budgeted::Outcome>(
        &self,
        budget: &EvalBudget,
        f: impl FnOnce() -> T,
    ) -> T {
        let (outcome, stats) = stuc_fault::budget::scope_with_stats(budget.clone(), f);
        let metrics = engine_metrics();
        metrics.budget_check_seconds.observe(stats.spent);
        outcome.for_each_error(|error| match error {
            StucError::DeadlineExceeded { .. } => metrics.deadline_exceeded.inc(),
            StucError::Cancelled { .. } => metrics.cancelled.inc(),
            _ => {}
        });
        outcome
    }

    /// Re-evaluates a query under a different weight table — the what-if
    /// fast path.
    ///
    /// The lineage circuit of a query depends only on the instance's *facts*
    /// and their correlation structure, never on the probabilities, so when
    /// only the weights change (sensitivity analysis, conditioning sweeps,
    /// weight-learning loops) the compiled lineage can be reused verbatim.
    /// This method looks the `(instance, query)` pair up in the engine's
    /// lineage cache — compiling it on a miss — and then runs only the
    /// counting back-end under `weights`, skipping decomposition and lineage
    /// construction entirely.
    ///
    /// `weights` must cover every event variable of the lineage; the
    /// extensional safe plan never runs here (it reads the instance's own
    /// probabilities), so the result is always computed from the circuit.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(6, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // compiles + caches the lineage
    ///
    /// // What if every fact were certain? Reuses the compiled lineage.
    /// let mut certain = tid.clone();
    /// for i in 0..certain.fact_count() {
    ///     certain.set_probability(stuc_data::instance::FactId(i), 1.0);
    /// }
    /// let report = engine
    ///     .reevaluate_with_weights(&tid, &query, &certain.fact_weights())
    ///     .unwrap();
    /// assert!(report.lineage_cached);
    /// assert!((report.probability - 1.0).abs() < 1e-9);
    /// ```
    pub fn reevaluate_with_weights<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        weights: &Weights,
    ) -> Result<EvaluationReport, StucError> {
        engine_metrics().reevaluate.instrument(
            "reevaluate_with_weights",
            || self.run_plan(representation, query, Some(weights)),
            |_, _| {},
        )
    }

    /// Re-evaluates a query under **K** different weight tables in a single
    /// counting sweep — the multi-scenario what-if fast path.
    ///
    /// Where K calls to [`Engine::reevaluate_with_weights`] pay K cache
    /// lookups and K message-passing sweeps, this method fetches the
    /// compiled lineage once and runs the treewidth back-end's scenario
    /// lanes ([`CompiledCircuit::run_many`]): one traversal of the sweep
    /// plan with K `f64` lanes per table slot, so the structural work
    /// (masks, permutations, constraint checks) is shared by all scenarios.
    /// The per-scenario probabilities are identical to K sequential calls.
    ///
    /// One report is returned per scenario, in input order; shared fields
    /// (backend, widths, wall time of the whole call) are replicated.
    /// Back-ends without a lanes implementation (a fixed DPLL/enumeration
    /// policy, or Auto on an over-budget circuit) fall back to a sequential
    /// per-scenario loop. Like [`Engine::reevaluate_with_weights`], the
    /// extensional safe plan never runs here.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(6, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// engine.evaluate(&tid, &query).unwrap(); // compiles + caches the lineage
    ///
    /// // Sweep 8 what-if scenarios in one pass.
    /// let scenarios: Vec<_> = (1..=8)
    ///     .map(|k| {
    ///         let mut w = tid.clone();
    ///         for i in 0..w.fact_count() {
    ///             w.set_probability(stuc_data::instance::FactId(i), 0.1 * k as f64);
    ///         }
    ///         w.fact_weights()
    ///     })
    ///     .collect();
    /// let reports = engine
    ///     .reevaluate_with_weights_many(&tid, &query, &scenarios)
    ///     .unwrap();
    /// assert_eq!(reports.len(), 8);
    /// ```
    pub fn reevaluate_with_weights_many<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        scenarios: &[Weights],
    ) -> Result<Vec<EvaluationReport>, StucError> {
        engine_metrics().reevaluate.instrument(
            "reevaluate_with_weights_many",
            || self.run_plan_many(representation, query, scenarios),
            |_, _| {},
        )
    }

    /// Posterior marginals `P(fact | query)` of **every** fact variable, in
    /// one backward (outward) sweep over the compiled lineage — the first
    /// of the engine's three posterior-inference modes (see also
    /// [`Engine::sample_worlds`] and [`Engine::most_probable_world`]).
    ///
    /// Where n conditioned evaluations would pay n counting sweeps, the
    /// backward pass retains the upward sweep's node tables and reads off
    /// all n unnormalised marginals in a single reverse traversal: ~2–3×
    /// one WMC sweep in total. Fact variables the lineage never mentions
    /// are independent of the query and report their prior. The compiled
    /// lineage is shared with every other evaluation mode through the
    /// engine's lineage cache, so a warm what-if workload gets marginals
    /// for just the sweeps.
    ///
    /// Fails with [`StucError::Infer`] when `P(query) = 0` (the posterior
    /// is undefined) and refuses under a fixed safe-plan policy (no circuit
    /// is ever built there).
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let marginals = engine.marginals(&tid, &query).unwrap();
    /// assert_eq!(marginals.len(), tid.fact_count());
    /// // Every fact is at least as likely once we know the query holds.
    /// for (v, posterior) in marginals.iter() {
    ///     assert!(posterior + 1e-9 >= tid.fact_weights().get(v).unwrap());
    /// }
    /// assert_eq!(marginals.report.sweeps_run, 2);
    /// ```
    pub fn marginals<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<Marginals, StucError> {
        self.infer(
            &engine_metrics().marginals,
            "marginals",
            representation,
            query,
            stuc_infer::marginals,
            |m| &mut m.report.lineage_cached,
        )
    }

    /// Draws `count` i.i.d. possible worlds **exactly** proportional to
    /// their probability, conditioned on the query holding — no Markov
    /// chain, no rejection. One table-retaining sweep is paid up front;
    /// each world is then a cheap top-down descent. Deterministic per
    /// `seed` ([`rand::rngs::SplitMix64`]).
    ///
    /// For a long-lived sampler that amortises the sweep across many
    /// batches, use [`Engine::world_sampler`].
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let sampled = engine.sample_worlds(&tid, &query, 100, 42).unwrap();
    /// assert_eq!(sampled.worlds.len(), 100);
    /// let lineage = engine.lineage(&tid, &query).unwrap();
    /// for world in &sampled.worlds {
    ///     assert!(world.satisfies(&lineage).unwrap()); // query holds in every draw
    /// }
    /// ```
    pub fn sample_worlds<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        count: usize,
        seed: u64,
    ) -> Result<SampledWorlds, StucError> {
        self.infer(
            &engine_metrics().sample_worlds,
            "sample_worlds",
            representation,
            query,
            |compiled, weights, budget| {
                stuc_infer::sample_worlds(compiled, weights, budget, count, seed)
            },
            |s| &mut s.report.lineage_cached,
        )
    }

    /// Builds a reusable exact [`WorldSampler`] for `(representation,
    /// query)`: the streaming twin of [`Engine::sample_worlds`]. The
    /// sampler owns its retained tables and RNG stream, so it keeps drawing
    /// (and replaying, given the same `seed`) without touching the engine
    /// again.
    pub fn world_sampler<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        seed: u64,
    ) -> Result<WorldSampler, StucError> {
        self.infer(
            &engine_metrics().sample_worlds,
            "world_sampler",
            representation,
            query,
            |compiled, weights, budget| WorldSampler::new(compiled, weights, budget, seed),
            |s| &mut s.report_mut().lineage_cached,
        )
    }

    /// The single most probable world in which the query holds, and its
    /// probability — the max-product (Viterbi) variant of the counting
    /// sweep, decoded by an argmax descent over the retained tables.
    ///
    /// ```
    /// use stuc_core::engine::Engine;
    /// use stuc_core::workloads;
    /// use stuc_query::cq::ConjunctiveQuery;
    ///
    /// let tid = workloads::path_tid(5, 0.5, 7);
    /// let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    /// let engine = Engine::new();
    /// let mpe = engine.most_probable_world(&tid, &query).unwrap();
    /// let lineage = engine.lineage(&tid, &query).unwrap();
    /// assert!(mpe.world.satisfies(&lineage).unwrap());
    /// assert!(mpe.probability > 0.0);
    /// ```
    pub fn most_probable_world<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<MostProbableWorld, StucError> {
        self.infer(
            &engine_metrics().most_probable_world,
            "most_probable_world",
            representation,
            query,
            stuc_infer::most_probable_world,
            |m| &mut m.report.lineage_cached,
        )
    }

    /// Shared body of the posterior-inference modes: refuse the
    /// (circuitless) fixed safe-plan policy, fetch the compiled lineage —
    /// served from the same cache as every counting mode — and the weights,
    /// run `mode` under the width budget, and record in its report whether
    /// the lineage came from the cache.
    fn infer<R: Representation + ?Sized, T>(
        &self,
        metrics: &EntryMetrics,
        span: &'static str,
        representation: &R,
        query: &R::Query,
        mode: impl FnOnce(&CompiledCircuit, &Weights, usize) -> Result<T, InferError>,
        lineage_cached: impl FnOnce(&mut T) -> &mut bool,
    ) -> Result<T, StucError> {
        let run = || {
            if self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan) {
                return Err(StucError::BackendUnsupported {
                    backend: BackendKind::SafePlan.name(),
                    reason: "posterior inference (marginals, sampling, most-probable-world) \
                             runs on the lineage circuit; the extensional safe plan never builds \
                             one"
                    .into(),
                });
            }
            // Inference reports carry their own sweep counters, so the
            // stage recorder here only feeds the tracer.
            let (entry, flags) =
                self.compiled_lineage(representation, query, &mut StageRecorder::new())?;
            let weights = representation.weights()?;
            let mut result = mode(&entry.compiled, &weights, self.config.width_budget)?;
            *lineage_cached(&mut result) = flags.lineage_cached;
            Ok(result)
        };
        metrics.instrument(span, run, |_, _| {})
    }

    /// Fetches the compiled lineage of `(representation, query)` from the
    /// lineage cache, or builds and caches it: structure decomposition →
    /// lineage circuit → compiled circuit.
    fn compiled_lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        rec: &mut StageRecorder,
    ) -> Result<(Arc<CompiledLineage>, CacheFlags), StucError> {
        // A hit cannot be re-validated structurally, so the dual instance
        // hash plus the exact query text is the validation. With caching
        // off, no lookup is paid at all.
        let probe = self.lineage_probe(representation, query);
        if let Some(probe) = &probe {
            if let Some(entry) = self
                .lineage_cache
                .get(&probe.key)
                .filter(|e| probe.matches(e))
            {
                self.lineage_cache.note_hit();
                rec.mark("cache-lookup");
                // No decomposition lookup happened at all; report it as
                // served-from-cache, which is what it is morally.
                let flags = CacheFlags {
                    lineage_cached: true,
                    decomposition_cached: true,
                };
                return Ok((entry, flags));
            }
            self.lineage_cache.note_miss();
        }
        rec.mark("cache-lookup");
        let (decomposition, decomposition_cached) = self.decomposition_for(representation);
        rec.mark("decompose");
        // A tripped budget degrades min-fill to a cheap ordering rather than
        // erroring mid-loop; this checkpoint is where the degraded run turns
        // into the typed error (before any lineage work is attempted).
        stuc_fault::budget::check("structure decomposition")?;
        let (compiled, build_notes) = self.build_lineage(representation, query, &decomposition)?;
        rec.mark("compile-lineage");
        let (query_repr, instance_check, key) = match probe {
            Some(probe) => (probe.query_repr, probe.instance_check, Some(probe.key)),
            None => (String::new(), 0, None),
        };
        let entry = Arc::new(CompiledLineage {
            compiled: Arc::new(compiled),
            decomposition_width: Some(decomposition.width()),
            build_notes,
            query_repr,
            instance_check,
            query: Arc::new(query.clone()),
            answer: OnceLock::new(),
        });
        let flags = CacheFlags {
            lineage_cached: false,
            decomposition_cached,
        };
        if let Some(key) = key {
            // Publish under first-writer-wins: if another worker compiled the
            // same pair concurrently, adopt its entry (identical semantics —
            // same instance identity, same query text) so
            // every thread converges on one shared circuit.
            let (winner, won) = self.lineage_cache.publish(key, Arc::clone(&entry));
            if !won {
                if winner.query_repr == entry.query_repr
                    && winner.instance_check == entry.instance_check
                {
                    return Ok((winner, flags));
                }
                // The key is held by a fingerprint-colliding stranger (which
                // is also why the lookup above missed): replace it — our
                // entry is the one matching the live `(instance, query)`.
                self.lineage_cache.insert_replacing(key, Arc::clone(&entry));
            }
        }
        Ok((entry, flags))
    }

    /// The cold build of the lineage of `(representation, query)` over
    /// `decomposition`: the automaton run, simplification and compilation,
    /// with the build-time notes. A lineage-cache miss runs it, and so does
    /// [`Engine::apply_update`] for a cached lineage an insert gave new
    /// matches, so a rebuilt entry is exactly what a miss would build.
    fn build_lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        decomposition: &TreeDecomposition,
    ) -> Result<(CompiledCircuit, Vec<String>), StucError> {
        let outcome = representation.lineage(query, decomposition)?;
        let build_notes = outcome.note.into_iter().collect();
        // Constant-fold and prune the raw lineage before compiling:
        // automaton-built circuits carry a constant gate per decomposition
        // node, so for selective (e.g. anchored) queries the reachable
        // non-constant core is a tiny fraction of the raw circuit, and both
        // the circuit-graph decomposition and every later counting sweep
        // shrink with it.
        let simplified = outcome.circuit.simplify()?;
        stuc_fault::budget::check("lineage construction")?;
        stuc_fault::failpoint!("lineage-compile", |m| StucError::Internal {
            message: format!("injected fault: {m}"),
        });
        let compiled = CompiledCircuit::compile(Arc::new(simplified), HEURISTIC)?;
        // The circuit-graph decomposition is part of the build: forced here,
        // its time lands in `compile-lineage`, not in whichever stage reads
        // the width first.
        compiled.width();
        stuc_fault::budget::check("lineage compilation")?;
        Ok((compiled, build_notes))
    }

    /// True when the lineage cache already holds a compiled circuit for
    /// `(representation, query)` — the same dual-hash lookup
    /// [`Engine::compiled_lineage`] performs, without building anything on a
    /// miss. The textual front-end's cost model uses this to discount the
    /// circuit route for already-compiled goals.
    fn has_cached_lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> bool {
        self.lineage_probe(representation, query)
            .is_some_and(|probe| {
                self.lineage_cache
                    .get(&probe.key)
                    .is_some_and(|entry| probe.matches(&entry))
            })
    }

    /// The lineage-cache probe of `(representation, query)`, or `None` when
    /// lineage caching is off. The one place a lineage key is derived: the
    /// instance half comes from [`Representation::identity`] (memoised by
    /// the built-in representations, so O(1) on a warm path).
    fn lineage_probe<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Option<LineageProbe> {
        if !self.caches_lineages() {
            return None;
        }
        let (instance_fp, instance_check) = representation.identity();
        let query_repr = format!("{query:?}");
        let key = (instance_fp, debug_identity(&query_repr).0);
        Some(LineageProbe {
            key,
            query_repr,
            instance_check,
        })
    }

    /// True unless lineage caching is off (`without_lineage_cache` or a
    /// capacity of 0); answers are memoised only when it is on.
    fn caches_lineages(&self) -> bool {
        self.config.cache_lineages && self.config.cache_capacity != 0
    }

    /// Builds (or fetches) the lineage circuit of a query without computing
    /// its probability — for callers that want to inspect, transform or
    /// re-weight the circuit themselves. Shares the engine's lineage cache.
    pub fn lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<Circuit, StucError> {
        let mut rec = StageRecorder::new();
        let (entry, _) = self.compiled_lineage(representation, query, &mut rec)?;
        Ok(entry.compiled.source().as_ref().clone())
    }

    /// The tree decomposition of the representation's structure graph,
    /// served from the cache when the fingerprint matches a prior call.
    ///
    /// A cache hit amortizes the decomposition itself (the superlinear
    /// part). It is validated once per structure graph: a hit whose stored
    /// graph is the very allocation [`Representation::structure_graph`]
    /// returns now is reused as is, since the entry's reference keeps that
    /// allocation alive and the built-in representations drop their graph
    /// on every structural change. Any other hit — a fingerprint
    /// collision, a clone that built its own graph, a representation that
    /// builds a fresh graph per call, an entry kept across a delete — is
    /// validated against today's graph (linear, see
    /// [`TreeDecomposition::validate`]) and, if valid, re-published with
    /// that graph; so a collision never yields a wrong width. Within the
    /// engine, only lineage-cache misses come here, and the lineage run
    /// then walks only the part of the returned decomposition the query can
    /// reach.
    pub fn decomposition_for<R: Representation + ?Sized>(
        &self,
        representation: &R,
    ) -> (Arc<TreeDecomposition>, bool) {
        let graph = representation.structure_graph();
        let key = representation.fingerprint();
        let mut stale_resident = false;
        if self.config.cache_decompositions {
            if let Some((cached, known)) = self.cache.get(&key) {
                if known.is_some_and(|known| Arc::ptr_eq(&known, &graph)) {
                    self.cache.note_hit();
                    return (cached, true);
                }
                // Fingerprints are not cryptographic: re-validate the
                // cached decomposition against today's graph so a
                // collision degrades to a recomputation, never to a
                // wrong width or an invalid lineage run.
                if cached.validate(&graph).is_ok() {
                    self.cache.note_hit();
                    self.cache
                        .insert_replacing(key, (Arc::clone(&cached), Some(graph)));
                    return (cached, true);
                }
                stale_resident = true;
            }
            self.cache.note_miss();
        }
        let decomposition = Arc::new(decompose_with_heuristic(&graph, HEURISTIC));
        if stuc_fault::budget::tripped() {
            // The ordering may have taken the budget-tripped degraded path:
            // keep the possibly low-quality decomposition out of the cache
            // so an un-budgeted re-run rebuilds it at full quality.
            return (decomposition, false);
        }
        let entry = (Arc::clone(&decomposition), Some(graph));
        if stale_resident {
            // A fingerprint-colliding stranger holds the key: replace it, or
            // every future lookup would keep missing.
            self.cache.insert_replacing(key, entry);
            return (decomposition, false);
        }
        // First-writer-wins publish: concurrent workers that raced on the
        // same fingerprint all converge on whichever decomposition landed
        // first (any valid decomposition of the graph is equally correct).
        let ((decomposition, _), _won) = self.cache.publish(key, entry);
        (decomposition, false)
    }
}

/// What [`Engine::with_budget`] can count budget trips in.
mod budgeted {
    use super::{BatchReport, StucError};

    /// The outcome of a budgeted engine call: a single result, or a batch
    /// with one result per slot.
    pub trait Outcome {
        /// Calls `f` on every error the outcome carries.
        fn for_each_error(&self, f: impl FnMut(&StucError));
    }

    impl<T> Outcome for Result<T, StucError> {
        fn for_each_error(&self, mut f: impl FnMut(&StucError)) {
            if let Err(error) = self {
                f(error);
            }
        }
    }

    impl Outcome for BatchReport {
        fn for_each_error(&self, f: impl FnMut(&StucError)) {
            self.reports
                .iter()
                .filter_map(|r| r.as_ref().err())
                .for_each(f);
        }
    }
}

/// Panic-isolation boundary: runs `f`, converting a panic into
/// [`StucError::Internal`] carrying the panic payload (when it is a string)
/// and bumping `stuc_engine_panics_caught_total`. The engine's caches are
/// panic-safe by construction — entries are published atomically after being
/// fully built, and the FIFO ledger is only appended under its own
/// poison-recovering lock — so a caught panic leaves the engine usable.
pub(crate) fn catch_panic<T>(f: impl FnOnce() -> Result<T, StucError>) -> Result<T, StucError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            engine_metrics().panics_caught.inc();
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            slowlog::global()
                .note_failure("evaluate", "panic", Duration::ZERO, 0, || message.clone());
            Err(StucError::Internal { message })
        }
    }
}

/// Report a failed evaluation to the slow log: deadline trips, cancellations
/// and caught panics are outliers regardless of how quickly they died, so
/// `GET /debug/slow` should show them next to the slow successes. Other
/// error kinds (parse errors, unsafe queries…) are ordinary outcomes and are
/// not logged.
pub(crate) fn note_eval_failure(what: &'static str, err: &StucError, wall: Duration) {
    let (outcome, stage) = match err {
        StucError::DeadlineExceeded { stage } => ("deadline-exceeded", *stage),
        StucError::Cancelled { stage } => ("cancelled", *stage),
        _ => return,
    };
    slowlog::global().note_failure(what, outcome, wall, 0, || format!("stage={stage}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use stuc_query::cq::ConjunctiveQuery;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn auto_uses_safe_plan_for_hierarchical_queries() {
        let tid = workloads::rst_star_tid(4, 0.4, 3);
        let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let engine = Engine::new();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::SafePlan);
        assert_eq!(report.decomposition_width, None);
        assert_eq!(report.circuit_gates, 0);
        // Cross-check against a forced circuit back-end.
        let forced = Engine::builder().backend(BackendKind::Dpll).build();
        let reference = forced.evaluate(&tid, &query).unwrap();
        assert_eq!(reference.backend, BackendKind::Dpll);
        assert!(close(report.probability, reference.probability));
    }

    #[test]
    fn auto_uses_treewidth_for_unsafe_queries_on_narrow_data() {
        let tid = workloads::rst_path_tid(6, 0.5, 5);
        let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let engine = Engine::new();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::TreewidthWmc);
        assert!(report.decomposition_width.unwrap() <= 2);
        assert!(report.circuit_gates > 0);
        let brute = Engine::builder()
            .backend(BackendKind::Enumeration)
            .build()
            .evaluate(&tid, &query)
            .unwrap();
        assert!(close(report.probability, brute.probability));
    }

    #[test]
    fn auto_falls_back_to_dpll_when_width_budget_is_tiny() {
        let tid = workloads::path_tid(8, 0.5, 11);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().width_budget(1).build();
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, BackendKind::Dpll);
        assert!(report.notes.iter().any(|n| n.contains("DPLL selected")));
        let reference = Engine::new().evaluate(&tid, &query).unwrap();
        assert!(close(report.probability, reference.probability));
    }

    #[test]
    fn fixed_safe_plan_refuses_unsafe_queries_and_non_tid() {
        let tid = workloads::rst_path_tid(4, 0.5, 5);
        let unsafe_query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let engine = Engine::builder().backend(BackendKind::SafePlan).build();
        assert!(matches!(
            engine.evaluate(&tid, &unsafe_query),
            Err(StucError::SafePlan(_))
        ));
        let pcc = workloads::contributor_pcc(4, 2, 0.8, 0.9, 21);
        let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
        assert!(matches!(
            engine.evaluate(&pcc, &query),
            Err(StucError::BackendUnsupported { .. })
        ));
    }

    #[test]
    fn decomposition_cache_hits_on_repeat_evaluations() {
        let tid = workloads::path_tid(10, 0.5, 7);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().backend(BackendKind::TreewidthWmc).build();
        let first = engine.evaluate(&tid, &query).unwrap();
        assert!(!first.decomposition_cached);
        assert_eq!(engine.cached_decompositions(), 1);
        let second = engine.evaluate(&tid, &query).unwrap();
        assert!(second.decomposition_cached);
        assert!(close(first.probability, second.probability));
        engine.clear_cache();
        assert_eq!(engine.cached_decompositions(), 0);
    }

    #[test]
    fn updates_share_the_decomposition_and_leave_patched_lineages_planned() {
        use stuc_data::instance::FactId;
        use stuc_data::tid::TidInstance;
        use stuc_incr::Delta;
        let mut tid = workloads::path_tid(12, 0.5, 7);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        let decomposition = |tid: &TidInstance| engine.cache.get(&tid.fingerprint()).unwrap().0;
        let planned = |tid: &TidInstance| {
            let probe = engine.lineage_probe(tid, &query).unwrap();
            let entry = engine.lineage_cache.get(&probe.key).unwrap();
            entry.compiled.is_planned()
        };
        assert!(planned(&tid));

        let compiled = |tid: &TidInstance| {
            let probe = engine.lineage_probe(tid, &query).unwrap();
            Arc::clone(&engine.lineage_cache.get(&probe.key).unwrap().compiled)
        };

        // A reweight keeps the very same decomposition and compiled
        // circuit, shared not copied.
        let before = decomposition(&tid);
        let circuit_before = compiled(&tid);
        let reweight = Delta::new().set_probability(FactId(3), 0.9);
        engine.apply_update(&mut tid, &reweight).unwrap();
        assert!(Arc::ptr_eq(&before, &decomposition(&tid)));
        assert!(Arc::ptr_eq(&circuit_before, &compiled(&tid)));
        assert!(planned(&tid));

        // An insertion with a new match rebuilds the lineage and plans it
        // inside the write; a deletion (`rewire_inputs`) carries the plan.
        let insert = Delta::new().insert("R", &["c12", "c13"], 0.5);
        let report = engine.apply_update(&mut tid, &insert).unwrap();
        assert!(report.gates_rebuilt > 0 && report.lineages_rebuilt == 1);
        assert!(planned(&tid));
        let report = engine
            .apply_update(&mut tid, &Delta::new().delete(FactId(0)))
            .unwrap();
        assert!(report.gates_rebuilt > 0 && report.lineages_patched == 1);
        assert!(planned(&tid));

        let warm = engine.evaluate(&tid, &query).unwrap();
        assert!(warm.lineage_cached);
        let cold = Engine::new().evaluate(&tid, &query).unwrap();
        assert!(close(warm.probability, cold.probability));
    }

    #[test]
    fn engine_is_sync_and_shareable_across_threads() {
        let engine = std::sync::Arc::new(Engine::new());
        let tid = std::sync::Arc::new(workloads::path_tid(8, 0.5, 13));
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let baseline = engine.evaluate(&*tid, &query).unwrap().probability;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = std::sync::Arc::clone(&engine);
                let tid = std::sync::Arc::clone(&tid);
                let query = query.clone();
                std::thread::spawn(move || engine.evaluate(&*tid, &query).unwrap().probability)
            })
            .collect();
        for handle in handles {
            assert!(close(handle.join().unwrap(), baseline));
        }
    }

    fn reweight_scenarios(tid: &stuc_data::tid::TidInstance, count: usize) -> Vec<Weights> {
        (1..=count)
            .map(|k| {
                let mut shadow = tid.clone();
                for i in 0..shadow.fact_count() {
                    shadow.set_probability(
                        stuc_data::instance::FactId(i),
                        (0.07 * k as f64).min(1.0),
                    );
                }
                shadow.fact_weights()
            })
            .collect()
    }

    #[test]
    fn reevaluate_many_matches_sequential_reevaluation_exactly() {
        let tid = workloads::path_tid(10, 0.5, 7);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        let scenarios = reweight_scenarios(&tid, 5);
        let many = engine
            .reevaluate_with_weights_many(&tid, &query, &scenarios)
            .unwrap();
        assert_eq!(many.len(), 5);
        for (weights, lane) in scenarios.iter().zip(&many) {
            assert_eq!(lane.backend, BackendKind::TreewidthWmc);
            assert!(lane.notes.iter().any(|n| n.contains("one lane sweep")));
            let single = engine
                .reevaluate_with_weights(&tid, &query, weights)
                .unwrap();
            assert_eq!(
                single.probability.to_bits(),
                lane.probability.to_bits(),
                "{} vs {}",
                single.probability,
                lane.probability
            );
        }
    }

    #[test]
    fn reevaluate_many_handles_empty_and_fixed_policies() {
        let tid = workloads::path_tid(6, 0.5, 3);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        assert!(engine
            .reevaluate_with_weights_many(&tid, &query, &[])
            .unwrap()
            .is_empty());

        // A fixed DPLL policy has no lane support: sequential fallback, same
        // probabilities as one-at-a-time re-evaluation.
        let scenarios = reweight_scenarios(&tid, 3);
        let dpll = Engine::builder().backend(BackendKind::Dpll).build();
        let many = dpll
            .reevaluate_with_weights_many(&tid, &query, &scenarios)
            .unwrap();
        for (weights, lane) in scenarios.iter().zip(&many) {
            assert_eq!(lane.backend, BackendKind::Dpll);
            let single = dpll.reevaluate_with_weights(&tid, &query, weights).unwrap();
            assert!(close(single.probability, lane.probability));
        }

        // The safe plan can never serve weight overrides.
        let safe = Engine::builder().backend(BackendKind::SafePlan).build();
        assert!(matches!(
            safe.reevaluate_with_weights_many(&tid, &query, &scenarios),
            Err(StucError::BackendUnsupported { .. })
        ));
    }

    #[test]
    fn wall_time_and_fact_count_are_populated() {
        let tid = workloads::path_tid(6, 0.3, 2);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let report = Engine::new().evaluate(&tid, &query).unwrap();
        assert_eq!(report.fact_count, 6);
        assert!(report.wall_time.as_nanos() > 0);
        assert!(!report.notes.is_empty());
    }
}
