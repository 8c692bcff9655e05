//! EXPLAIN: evaluate-free query-plan introspection.
//!
//! [`Engine::explain`] answers "what would [`Engine::evaluate`] do with this
//! query, and why" without running a counting sweep: which route (extensional
//! safe plan vs. compiled lineage), which back-end and the evidence behind
//! the choice, the circuit's width against the engine's budget, the sweep
//! plan's table volume, and which caches would serve the work. Explain has
//! no planner of its own: it renders the very plan (`Engine::plan`,
//! `Engine::plan_goal`) that evaluate executes, so an explanation agrees
//! with the [`EvaluationReport`](super::EvaluationReport) of an actual run
//! on route, back-end, refusal, width and cache provenance by construction.
//! What only explain needs — the lifetime cache counters, the sweep-plan
//! statistics and the eligibility breakdown — is computed here, never while
//! evaluating.
//!
//! "Evaluate-free" means no probability is computed; the circuit path still
//! fetches (or builds) the compiled lineage through the engine's shared
//! cache, because width, gate counts and sweep-plan shape *are* the
//! explanation. A cold explain therefore warms the cache for the run that
//! follows it — by design: `explain` then `evaluate` pays the compilation
//! once, like `evaluate` twice would.
//!
//! Renderings are deterministic (no floats, no timings, no pointers), so
//! both the text and the JSON form are golden-testable byte-for-byte.
//!
//! ```
//! use stuc_core::engine::Engine;
//! use stuc_data::tid::TidInstance;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a"], 0.4);
//! tid.add_fact_named("S", &["a", "b"], 0.5);
//!
//! let explanations = Engine::new().explain_text(&tid, "?- R(x), S(x, y).").unwrap();
//! assert_eq!(explanations[0].outcome, stuc_core::engine::ExplainOutcome::SafePlan);
//! println!("{}", explanations[0].render_text());
//! ```

use super::plan::{CacheFlags, GoalPlan, Lineage, Plan};
use super::report::{BackendKind, BackendPolicy};
use super::representation::Representation;
use super::text::{lowering_note, parse_text};
use super::{Engine, StucError};
use crate::serve::http::escape_json;
use stuc_lang::ast::{RuleAst, UnionAst};
use stuc_lang::cost::{Route, RouteDecision};
use stuc_obs::timer::StageRecorder;
use stuc_obs::trace;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::safe::{is_hierarchical, SafePlanError};

/// What the engine would do with the query, at the top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainOutcome {
    /// Stage 1 wins: the extensional safe plan evaluates the query directly
    /// on the instance's own probabilities; no circuit is ever built.
    SafePlan,
    /// The lineage pipeline runs: decomposition → circuit → counting sweep.
    Circuit,
    /// The evaluation would be refused before any probability is computed
    /// (a pinned back-end that cannot run the task, or a width over the
    /// pinned sweep's budget); [`QueryExplanation::refusal`] carries the
    /// exact error message `evaluate` would return.
    Refused,
}

impl ExplainOutcome {
    /// Stable lowercase name, used in both renderings.
    pub fn name(self) -> &'static str {
        match self {
            ExplainOutcome::SafePlan => "safe-plan",
            ExplainOutcome::Circuit => "circuit",
            ExplainOutcome::Refused => "refused",
        }
    }
}

/// Why the extensional safe plan is (or is not) on the table — the three
/// structural conditions of the dichotomy's tractable side, each reported
/// separately so a refusal names its exact cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafePlanEligibility {
    /// The representation offers the extensional fast path at all (only
    /// TID instances do).
    pub extensional: bool,
    /// The query is hierarchical (`None` when there is no extensional path
    /// to check it on).
    pub hierarchical: Option<bool>,
    /// The query is self-join-free (`None` as above).
    pub self_join_free: Option<bool>,
    /// The query has no atoms (the safe plan refuses those too).
    pub empty: Option<bool>,
}

impl SafePlanEligibility {
    pub(super) fn unavailable() -> Self {
        SafePlanEligibility {
            extensional: false,
            hierarchical: None,
            self_join_free: None,
            empty: None,
        }
    }

    pub(super) fn of(query: &ConjunctiveQuery) -> Self {
        SafePlanEligibility {
            extensional: true,
            hierarchical: Some(is_hierarchical(query)),
            self_join_free: Some(query.is_self_join_free()),
            empty: Some(query.atoms.is_empty()),
        }
    }

    /// The refusal `safe_plan_probability` would produce, in its exact
    /// check order: empty query, then self-join, then hierarchy.
    pub(super) fn refusal(&self) -> Option<SafePlanError> {
        if self.empty == Some(true) {
            return Some(SafePlanError::EmptyQuery);
        }
        if self.self_join_free == Some(false) {
            return Some(SafePlanError::SelfJoin);
        }
        if self.hierarchical == Some(false) {
            return Some(SafePlanError::NotHierarchical);
        }
        None
    }
}

/// Size and shape of the compiled lineage circuit the evaluation would
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitExplanation {
    /// Gate count after simplification (what the sweep walks).
    pub gates: usize,
    /// Gate count when the circuit was last built cold. Writes keep every
    /// cached circuit a cold build (an insert rebuilds it, a deletion pins
    /// inputs without removing gates), so this equals `gates`.
    pub cold_gates: usize,
    /// Distinct lineage variables (the dimension of the weight space).
    pub variables: usize,
    /// Bags of the circuit-graph decomposition.
    pub bags: usize,
    /// Width of the circuit-graph decomposition — the number the back-end
    /// choice compares against the budget.
    pub width: usize,
    /// Width of the *structure-graph* decomposition the lineage was built
    /// from (the paper's tractability parameter), when one was involved.
    pub decomposition_width: Option<usize>,
    /// The engine's width budget (`EngineBuilder::width_budget`).
    pub width_budget: usize,
    /// `width < width_budget` — the exact rule `Auto` uses (the WMC
    /// back-end refuses on bag size, which is width + 1).
    pub within_budget: bool,
    /// The treewidth sweep's precomputed plan, when one exists for this
    /// width and the predicted back-end would use it.
    pub sweep: Option<SweepPlanStats>,
}

/// The treewidth sweep plan in numbers: how much work one sweep performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPlanStats {
    /// Plan nodes (one per decomposition bag, in sweep order).
    pub nodes: usize,
    /// Total dense table entries across all nodes (Σ 2^|bag|) — the number
    /// of multiply-accumulate slots one sweep fills.
    pub table_entries: usize,
    /// Arena slots a single-lane sweep allocates (peak live tables).
    pub arena_slots: usize,
}

/// One engine cache, as this explanation saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSideExplanation {
    /// The cache is configured on (capacity > 0 and the flag set).
    pub enabled: bool,
    /// `"hit"`, `"miss"`, or `"untouched"` (safe-plan and refused paths
    /// never look) — matches the corresponding `EvaluationReport` flag.
    pub provenance: &'static str,
    /// Engine-lifetime validated hits.
    pub hits: u64,
    /// Engine-lifetime misses.
    pub misses: u64,
    /// Engine-lifetime publishes that lost the first-writer-wins race.
    pub races_lost: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Both engine caches (compiled lineage, structure decomposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheExplanation {
    /// The compiled-lineage cache.
    pub lineage: CacheSideExplanation,
    /// The structure-decomposition cache.
    pub decomposition: CacheSideExplanation,
}

/// The cost model's routing decision, for goals that went through the
/// textual front-end (the programmatic API routes structurally, not by
/// cost, so [`QueryExplanation::route`] is `None` there).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteExplanation {
    /// The chosen route (after any policy forcing).
    pub route: Route,
    /// Every term was hierarchical and self-join-free.
    pub safe_eligible: bool,
    /// The circuit route was discounted because every term's lineage was
    /// already compiled and cached.
    pub cached_lineage: bool,
    /// [`RouteDecision::summary`] — the float-free one-liner.
    pub summary: String,
}

impl RouteExplanation {
    fn from_decision(decision: &RouteDecision) -> Self {
        RouteExplanation {
            route: decision.route,
            safe_eligible: decision.safe_eligible,
            cached_lineage: decision.cached_lineage,
            summary: decision.summary(),
        }
    }
}

/// The full explanation of what [`Engine::evaluate`] (or the textual
/// front-end) would do with one query — see the [module docs](self).
///
/// Everything in here is deterministic for a fixed engine configuration,
/// instance, query and cache state: no floats, no wall times, no ids.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExplanation {
    /// The query, rendered (goal source text for the textual front-end,
    /// clipped `Debug` form for the programmatic API).
    pub query: String,
    /// Stable representation-kind name (`"tid-instance"`, …).
    pub representation: &'static str,
    /// Fact count of the instance.
    pub fact_count: usize,
    /// The engine's back-end policy (`"auto"` or `"fixed:<backend>"`).
    pub policy: String,
    /// What would happen, at the top level.
    pub outcome: ExplainOutcome,
    /// The back-end that would run (for [`ExplainOutcome::Refused`], the
    /// back-end that refuses).
    pub backend: BackendKind,
    /// One sentence of why that back-end.
    pub reason: String,
    /// For refused outcomes: the exact error message `evaluate` returns.
    pub refusal: Option<String>,
    /// The three structural safe-plan conditions, individually.
    pub safe_plan: SafePlanEligibility,
    /// The cost model's decision (textual front-end only).
    pub route: Option<RouteExplanation>,
    /// What lowering did (textual front-end only).
    pub lowering: Option<String>,
    /// The compiled circuit, when the circuit path would run. For lowered
    /// goals with several inclusion–exclusion terms the counts are folded
    /// as the goal report folds them: gates summed, widths maxed.
    pub circuit: Option<CircuitExplanation>,
    /// Both engine caches: provenance for this query plus lifetime
    /// counters (hit/miss/race).
    pub cache: CacheExplanation,
    /// The pipeline stages the evaluation would execute, in order.
    pub stages: Vec<&'static str>,
    /// The same strategy notes `evaluate` would put in its report (cache
    /// provenance, hierarchy verdicts, width-vs-budget), deduplicated.
    pub notes: Vec<String>,
}

impl QueryExplanation {
    /// Deterministic multi-line rendering for terminals (the REPL's
    /// `:explain`, `stuc-serve`'s logs). One `label: value` pair per line,
    /// notes indented last.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("explain: {}\n", self.query));
        out.push_str(&format!(
            "representation: {} ({} facts)\n",
            self.representation, self.fact_count
        ));
        out.push_str(&format!("policy: {}\n", self.policy));
        out.push_str(&format!(
            "plan: {} — backend {} ({})\n",
            self.outcome.name(),
            self.backend.name(),
            self.reason
        ));
        if let Some(refusal) = &self.refusal {
            out.push_str(&format!("refusal: {refusal}\n"));
        }
        out.push_str(&format!(
            "safe plan: extensional={} hierarchical={} self-join-free={}\n",
            yes_no(Some(self.safe_plan.extensional)),
            yes_no(self.safe_plan.hierarchical),
            yes_no(self.safe_plan.self_join_free),
        ));
        if let Some(route) = &self.route {
            out.push_str(&format!("route: {}\n", route.summary));
        }
        if let Some(lowering) = &self.lowering {
            out.push_str(&format!("lowering: {lowering}\n"));
        }
        if let Some(c) = &self.circuit {
            out.push_str(&format!(
                "circuit: {} gates ({} cold), {} variables, {} bags, width {} {} budget {}\n",
                c.gates,
                c.cold_gates,
                c.variables,
                c.bags,
                c.width,
                if c.within_budget { "within" } else { "over" },
                c.width_budget,
            ));
            if let Some(w) = c.decomposition_width {
                out.push_str(&format!("structure width: {w}\n"));
            }
            if let Some(s) = &c.sweep {
                out.push_str(&format!(
                    "sweep plan: {} nodes, {} table entries, {} arena slots\n",
                    s.nodes, s.table_entries, s.arena_slots
                ));
            }
        }
        out.push_str(&format!(
            "cache: lineage={} decomposition={}\n",
            self.cache.lineage.provenance, self.cache.decomposition.provenance
        ));
        if !self.stages.is_empty() {
            out.push_str(&format!("stages: {}\n", self.stages.join(", ")));
        }
        if !self.notes.is_empty() {
            out.push_str("notes:\n");
            for note in &self.notes {
                out.push_str(&format!("  - {note}\n"));
            }
        }
        out
    }

    /// Deterministic single-line JSON rendering (fixed key order, no
    /// floats) for `POST /query?explain=1` and golden tests.
    pub fn to_json(&self) -> String {
        let safe = &self.safe_plan;
        let route = json_opt(self.route.as_ref(), |r| {
            format!(
                "{{\"route\":\"{}\",\"safe_eligible\":{},\"cached_lineage\":{},\"summary\":{}}}",
                r.route,
                r.safe_eligible,
                r.cached_lineage,
                json_str(&r.summary)
            )
        });
        let circuit = json_opt(self.circuit.as_ref(), |c| {
            let sweep = json_opt(c.sweep, |s| {
                format!(
                    "{{\"nodes\":{},\"table_entries\":{},\"arena_slots\":{}}}",
                    s.nodes, s.table_entries, s.arena_slots
                )
            });
            format!(
                "{{\"gates\":{},\"cold_gates\":{},\"variables\":{},\"bags\":{},\"width\":{},\"decomposition_width\":{},\"width_budget\":{},\"within_budget\":{},\"sweep\":{sweep}}}",
                c.gates,
                c.cold_gates,
                c.variables,
                c.bags,
                c.width,
                json_opt(c.decomposition_width, |w| w.to_string()),
                c.width_budget,
                c.within_budget,
            )
        });
        format!(
            "{{\"query\":{},\"representation\":{},\"facts\":{},\"policy\":{},\"outcome\":{},\"backend\":{},\"reason\":{},\"refusal\":{},\"safe_plan\":{{\"extensional\":{},\"hierarchical\":{},\"self_join_free\":{},\"empty\":{}}},\"route\":{route},\"lowering\":{},\"circuit\":{circuit},\"cache\":{{\"lineage\":{},\"decomposition\":{}}},\"stages\":{},\"notes\":{}}}",
            json_str(&self.query),
            json_str(self.representation),
            self.fact_count,
            json_str(&self.policy),
            json_str(self.outcome.name()),
            json_str(self.backend.name()),
            json_str(&self.reason),
            json_opt(self.refusal.as_deref(), json_str),
            safe.extensional,
            json_opt(safe.hierarchical, |b| b.to_string()),
            json_opt(safe.self_join_free, |b| b.to_string()),
            json_opt(safe.empty, |b| b.to_string()),
            json_opt(self.lowering.as_deref(), json_str),
            json_cache_side(&self.cache.lineage),
            json_cache_side(&self.cache.decomposition),
            json_array(&self.stages),
            json_array(&self.notes),
        )
    }
}

impl std::fmt::Display for QueryExplanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_text())
    }
}

fn yes_no(value: Option<bool>) -> &'static str {
    match value {
        Some(true) => "yes",
        Some(false) => "no",
        None => "n/a",
    }
}

/// `null`, or the rendering of the value.
fn json_opt<T>(value: Option<T>, render: impl FnOnce(T) -> String) -> String {
    value.map_or_else(|| "null".to_string(), render)
}

fn json_cache_side(side: &CacheSideExplanation) -> String {
    format!(
        "{{\"enabled\":{},\"provenance\":\"{}\",\"hits\":{},\"misses\":{},\"races_lost\":{},\"entries\":{}}}",
        side.enabled, side.provenance, side.hits, side.misses, side.races_lost, side.entries
    )
}

/// A quoted JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

fn json_array(items: &[impl AsRef<str>]) -> String {
    let items: Vec<String> = items.iter().map(|item| json_str(item.as_ref())).collect();
    format!("[{}]", items.join(","))
}

/// Clip a `Debug`-rendered query for display; explanations are for humans,
/// the full rendering lives in the lineage-cache key.
fn clip(text: &str) -> String {
    const MAX: usize = 120;
    if text.chars().count() <= MAX {
        return text.to_string();
    }
    let clipped: String = text.chars().take(MAX - 1).collect();
    format!("{clipped}…")
}

impl Engine {
    /// Explains — without evaluating — what [`Engine::evaluate`] would do
    /// with `query` on `representation`: route, back-end, width vs.
    /// budget, sweep-plan volume, cache provenance, and the same strategy
    /// notes the evaluation report would carry.
    ///
    /// The explanation renders the very plan `evaluate` executes, so the
    /// circuit path fetches (or builds and caches) the compiled lineage and
    /// a cold explain warms the cache for the evaluation that follows; no
    /// counting sweep ever runs. Errors that would strike while *building*
    /// the lineage (decomposition, compilation, a tripped budget) propagate
    /// exactly as they would from `evaluate`; refusals of a pinned back-end
    /// are reported in [`QueryExplanation::refusal`] instead of being
    /// returned as errors.
    pub fn explain<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<QueryExplanation, StucError> {
        let _span = trace::span("explain");
        let plan = self.plan(representation, query, false, &mut StageRecorder::new())?;
        let safe_plan = representation
            .extensional(query)
            .map_or_else(SafePlanEligibility::unavailable, |input| {
                SafePlanEligibility::of(input.query)
            });
        let query = clip(&format!("{query:?}"));
        Ok(self.render_plan(representation, query, safe_plan, plan, Vec::new()))
    }

    /// Explains every `?-` goal of a `stuc-lang` program: the plan
    /// [`Engine::evaluate_text`] executes per goal (lowering, cost-model
    /// route, policy forcing, the missing-extensional fallback, and one
    /// term plan per inclusion–exclusion term), rendered.
    pub fn explain_text<R>(
        &self,
        representation: &R,
        src: &str,
    ) -> Result<Vec<QueryExplanation>, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let program = parse_text(src)?;
        let rules = program.rules();
        program
            .queries()
            .into_iter()
            .map(|query| self.explain_goal(representation, &query.goal, &rules))
            .collect()
    }

    /// Explains one parsed goal with `rules` in scope — the per-goal core
    /// of [`Engine::explain_text`], exposed for callers (the REPL) that
    /// keep a parsed program around.
    pub fn explain_goal<R>(
        &self,
        representation: &R,
        goal: &UnionAst,
        rules: &[&RuleAst],
    ) -> Result<QueryExplanation, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let _span = trace::span("explain_goal");
        let GoalPlan {
            plan,
            lowered,
            decision,
        } = self.plan_goal(representation, goal, rules, &mut StageRecorder::new())?;
        let queries: Vec<&ConjunctiveQuery> = lowered
            .terms
            .iter()
            .filter_map(|t| t.query.as_ref())
            .collect();
        // Eligibility across the goal: every term must pass; fold the
        // three conditions the way the cost model folds them.
        let safe_plan = if !queries.is_empty()
            && queries
                .iter()
                .all(|q| representation.extensional(q).is_some())
        {
            SafePlanEligibility {
                extensional: true,
                hierarchical: Some(queries.iter().all(|q| is_hierarchical(q))),
                self_join_free: Some(queries.iter().all(|q| q.is_self_join_free())),
                empty: Some(false),
            }
        } else {
            SafePlanEligibility::unavailable()
        };
        let stages = vec!["lower", "route"];
        let mut explanation =
            self.render_plan(representation, goal.to_string(), safe_plan, plan, stages);
        explanation.route = Some(RouteExplanation::from_decision(&decision));
        explanation.lowering = Some(lowering_note(&lowered));
        Ok(explanation)
    }

    /// Renders the plan a run executes: its outcome, back-end, reason,
    /// refusal and notes, the compiled circuits folded as the report folds
    /// them, cache provenance, and the stages that follow `stages`.
    fn render_plan<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: String,
        safe_plan: SafePlanEligibility,
        plan: Plan,
        mut stages: Vec<&'static str>,
    ) -> QueryExplanation {
        let outcome = match (plan.refusal(), plan.safe_route) {
            (Some(_), _) => ExplainOutcome::Refused,
            (None, true) => ExplainOutcome::SafePlan,
            (None, false) => ExplainOutcome::Circuit,
        };
        let circuit = plan
            .steps
            .iter()
            .filter_map(|step| Some(self.circuit_explanation(step.lineage()?, step.backend())))
            .reduce(fold_circuits);
        let flags = plan.cache_flags();
        if outcome == ExplainOutcome::SafePlan {
            stages.push("safe-plan");
        }
        if let Some(flags) = flags {
            stages.push("cache-lookup");
            if !flags.lineage_cached {
                stages.extend(["decompose", "compile-lineage"]);
            }
            // A step whose entry already holds its answer stops at the
            // lookup; the run sweeps when any step does not.
            let sweeps = plan
                .steps
                .iter()
                .any(|step| step.memoised_answer().is_none());
            if outcome != ExplainOutcome::Refused && sweeps {
                stages.extend(["weights", "sweep"]);
            }
        }
        QueryExplanation {
            query,
            representation: representation.kind().name(),
            fact_count: representation.fact_count(),
            policy: policy_name(self.config.policy),
            outcome,
            backend: plan.backend(),
            refusal: plan.refusal().map(ToString::to_string),
            reason: plan.reason.into_owned(),
            safe_plan,
            route: None,
            lowering: None,
            circuit,
            cache: self.cache_explanation(flags),
            stages,
            notes: plan.notes,
        }
    }

    fn circuit_explanation(&self, lineage: &Lineage, backend: BackendKind) -> CircuitExplanation {
        let entry = &lineage.entry;
        let width = entry.compiled.width();
        // Building the sweep plan is only worth it when the treewidth
        // sweep would actually use it; the plan is memoized on the shared
        // cache entry, so the evaluation that follows reuses it for free.
        // A build that fails leaves the stats out; the evaluation itself
        // reports the error.
        let sweep = (backend == BackendKind::TreewidthWmc)
            .then(|| entry.compiled.try_sweep_plan().ok())
            .flatten()
            .map(|plan| SweepPlanStats {
                nodes: plan.len(),
                table_entries: plan.table_entry_count(),
                arena_slots: plan.slot_count(),
            });
        CircuitExplanation {
            gates: entry.compiled.len(),
            cold_gates: entry.compiled.len(),
            variables: entry.compiled.variables().len(),
            bags: entry.compiled.bag_count(),
            width,
            decomposition_width: entry.decomposition_width,
            width_budget: self.config.width_budget,
            within_budget: width < self.config.width_budget,
            sweep,
        }
    }

    fn cache_explanation(&self, flags: Option<CacheFlags>) -> CacheExplanation {
        let stats = self.cache_stats();
        let provenance = |cached: Option<bool>| match cached {
            Some(true) => "hit",
            Some(false) => "miss",
            None => "untouched",
        };
        CacheExplanation {
            lineage: CacheSideExplanation {
                enabled: self.config.cache_lineages && self.config.cache_capacity > 0,
                provenance: provenance(flags.map(|f| f.lineage_cached)),
                hits: stats.lineages.hits,
                misses: stats.lineages.misses,
                races_lost: stats.lineages.races_lost,
                entries: stats.lineages.entries,
            },
            decomposition: CacheSideExplanation {
                enabled: self.config.cache_decompositions && self.config.cache_capacity > 0,
                provenance: provenance(flags.map(|f| f.decomposition_cached)),
                hits: stats.decompositions.hits,
                misses: stats.decompositions.misses,
                races_lost: stats.decompositions.races_lost,
                entries: stats.decompositions.entries,
            },
        }
    }
}

fn policy_name(policy: BackendPolicy) -> String {
    match policy {
        BackendPolicy::Auto => "auto".to_string(),
        BackendPolicy::Fixed(kind) => format!("fixed:{}", kind.name()),
    }
}

/// Fold two per-term circuit explanations the way the goal report folds
/// term reports: gates and table volumes summed, widths maxed.
fn fold_circuits(a: CircuitExplanation, b: CircuitExplanation) -> CircuitExplanation {
    CircuitExplanation {
        gates: a.gates + b.gates,
        cold_gates: a.cold_gates + b.cold_gates,
        variables: a.variables.max(b.variables),
        bags: a.bags + b.bags,
        width: a.width.max(b.width),
        decomposition_width: match (a.decomposition_width, b.decomposition_width) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        },
        width_budget: a.width_budget,
        within_budget: a.within_budget && b.within_budget,
        sweep: match (a.sweep, b.sweep) {
            (Some(x), Some(y)) => Some(SweepPlanStats {
                nodes: x.nodes + y.nodes,
                table_entries: x.table_entries + y.table_entries,
                arena_slots: x.arena_slots + y.arena_slots,
            }),
            (x, y) => x.or(y),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stuc_data::tid::TidInstance;
    use stuc_query::cq::ConjunctiveQuery;

    fn two_fact_tid() -> TidInstance {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 0.4);
        tid.add_fact_named("S", &["a", "b"], 0.5);
        tid
    }

    #[test]
    fn a_self_join_explains_as_a_circuit_and_warms_the_cache() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "b"], 0.5);
        tid.add_fact_named("R", &["b", "c"], 0.5);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        let explanation = engine.explain(&tid, &query).unwrap();
        assert_eq!(explanation.outcome, ExplainOutcome::Circuit);
        assert_eq!(explanation.safe_plan.self_join_free, Some(false));
        assert_eq!(explanation.cache.lineage.provenance, "miss");
        let circuit = explanation.circuit.expect("circuit path has stats");
        assert!(circuit.gates > 0);
        assert!(circuit.within_budget);
        let sweep = circuit.sweep.expect("narrow circuit has a sweep plan");
        assert!(sweep.table_entries >= sweep.nodes);
        assert!(explanation
            .notes
            .iter()
            .any(|n| n.contains("safe plan refused (query has a self-join)")));

        // The explain warmed the cache: the evaluation and a re-explain
        // both see a hit, and the run agrees on route/backend/width.
        let report = engine.evaluate(&tid, &query).unwrap();
        assert!(report.lineage_cached);
        assert_eq!(report.backend, explanation.backend);
        assert_eq!(report.circuit_gates, circuit.gates);
        let again = engine.explain(&tid, &query).unwrap();
        assert_eq!(again.cache.lineage.provenance, "hit");
        assert_eq!(again.stages, vec!["cache-lookup"]);
    }

    #[test]
    fn the_json_rendering_is_stable_and_escaped() {
        let tid = two_fact_tid();
        let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let json = Engine::new().explain(&tid, &query).unwrap().to_json();
        assert!(json.starts_with("{\"query\":\""));
        assert!(json.contains("\"outcome\":\"safe-plan\""));
        assert!(json.contains("\"stages\":[\"safe-plan\"]"));
        assert!(json.ends_with("]}"));
        // Deterministic: a second explain renders byte-identically.
        let again = Engine::new().explain(&tid, &query).unwrap().to_json();
        assert_eq!(json, again);
    }

    #[test]
    fn goal_explanations_mirror_the_text_front_end() {
        let tid = two_fact_tid();
        let engine = Engine::new();
        let src = "Both(x) :- R(x), S(x, y).  ?- Both(x).";
        let explanations = engine.explain_text(&tid, src).unwrap();
        assert_eq!(explanations.len(), 1);
        let explanation = &explanations[0];
        let route = explanation.route.as_ref().expect("goal has a route");
        let outcome = engine.evaluate_text(&tid, src).unwrap();
        let goal = &outcome.goals[0];
        assert_eq!(route.route, goal.decision.route);
        assert_eq!(explanation.backend, goal.report.backend);
        assert_eq!(
            explanation.lowering.as_deref(),
            Some(goal.report.notes[1].as_str())
        );
    }
}
