//! EXPLAIN: evaluate-free query-plan introspection.
//!
//! [`Engine::explain`] answers "what would [`Engine::evaluate`] do with this
//! query, and why" without running a counting sweep: which route (extensional
//! safe plan vs. compiled lineage), which back-end and the evidence behind
//! the choice, the circuit's width against the engine's budget, the sweep
//! plan's table volume, and which caches would serve the work. The decision
//! logic is a faithful mirror of `evaluate_inner` — same policy handling,
//! same hierarchy/self-join checks in the same order, same width-vs-budget
//! rule — so an explanation always agrees with the
//! [`EvaluationReport`](super::EvaluationReport) of an actual run on route,
//! back-end, width and cache provenance.
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

use std::sync::Arc;

use super::report::{BackendKind, BackendPolicy};
use super::representation::Representation;
use super::text::lowering_note;
use super::{CacheFlags, CompiledLineage, Engine, StucError};
use stuc_circuit::wmc::WmcError;
use stuc_lang::ast::{RuleAst, UnionAst};
use stuc_lang::cost::{CostModel, Route, RouteDecision};
use stuc_lang::lower::lower_goal;
use stuc_lang::{parse_program, LangError};
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
    fn unavailable() -> Self {
        SafePlanEligibility {
            extensional: false,
            hierarchical: None,
            self_join_free: None,
            empty: None,
        }
    }

    fn of(query: &ConjunctiveQuery) -> Self {
        SafePlanEligibility {
            extensional: true,
            hierarchical: Some(is_hierarchical(query)),
            self_join_free: Some(query.is_self_join_free()),
            empty: Some(query.atoms.is_empty()),
        }
    }

    /// The refusal `safe_plan_probability` would produce, in its exact
    /// check order: empty query, then self-join, then hierarchy.
    fn refusal(&self) -> Option<SafePlanError> {
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
    /// Gate count when the circuit was last compiled cold (differs from
    /// `gates` after incremental patches).
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
        let mut out = String::from("{\"query\":");
        json_str(&mut out, &self.query);
        out.push_str(",\"representation\":");
        json_str(&mut out, self.representation);
        out.push_str(&format!(",\"facts\":{}", self.fact_count));
        out.push_str(",\"policy\":");
        json_str(&mut out, &self.policy);
        out.push_str(",\"outcome\":");
        json_str(&mut out, self.outcome.name());
        out.push_str(",\"backend\":");
        json_str(&mut out, self.backend.name());
        out.push_str(",\"reason\":");
        json_str(&mut out, &self.reason);
        out.push_str(",\"refusal\":");
        match &self.refusal {
            Some(refusal) => json_str(&mut out, refusal),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"safe_plan\":{{\"extensional\":{},\"hierarchical\":{},\"self_join_free\":{},\"empty\":{}}}",
            self.safe_plan.extensional,
            json_opt_bool(self.safe_plan.hierarchical),
            json_opt_bool(self.safe_plan.self_join_free),
            json_opt_bool(self.safe_plan.empty),
        ));
        out.push_str(",\"route\":");
        match &self.route {
            Some(route) => {
                out.push_str(&format!(
                    "{{\"route\":\"{}\",\"safe_eligible\":{},\"cached_lineage\":{},\"summary\":",
                    route.route, route.safe_eligible, route.cached_lineage
                ));
                json_str(&mut out, &route.summary);
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"lowering\":");
        match &self.lowering {
            Some(lowering) => json_str(&mut out, lowering),
            None => out.push_str("null"),
        }
        out.push_str(",\"circuit\":");
        match &self.circuit {
            Some(c) => {
                out.push_str(&format!(
                    "{{\"gates\":{},\"cold_gates\":{},\"variables\":{},\"bags\":{},\"width\":{},\"decomposition_width\":{},\"width_budget\":{},\"within_budget\":{},\"sweep\":",
                    c.gates,
                    c.cold_gates,
                    c.variables,
                    c.bags,
                    c.width,
                    c.decomposition_width
                        .map(|w| w.to_string())
                        .unwrap_or_else(|| "null".into()),
                    c.width_budget,
                    c.within_budget,
                ));
                match &c.sweep {
                    Some(s) => out.push_str(&format!(
                        "{{\"nodes\":{},\"table_entries\":{},\"arena_slots\":{}}}",
                        s.nodes, s.table_entries, s.arena_slots
                    )),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"cache\":{{\"lineage\":{},\"decomposition\":{}}}",
            json_cache_side(&self.cache.lineage),
            json_cache_side(&self.cache.decomposition),
        ));
        out.push_str(",\"stages\":[");
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(&mut out, stage);
        }
        out.push_str("],\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_str(&mut out, note);
        }
        out.push_str("]}");
        out
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

fn json_opt_bool(value: Option<bool>) -> String {
    match value {
        Some(b) => b.to_string(),
        None => "null".into(),
    }
}

fn json_cache_side(side: &CacheSideExplanation) -> String {
    format!(
        "{{\"enabled\":{},\"provenance\":\"{}\",\"hits\":{},\"misses\":{},\"races_lost\":{},\"entries\":{}}}",
        side.enabled, side.provenance, side.hits, side.misses, side.races_lost, side.entries
    )
}

/// Minimal JSON string escape (quotes, backslashes, control characters) —
/// the same dialect the HTTP server emits.
fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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

fn push_unique(notes: &mut Vec<String>, note: String) {
    if !notes.iter().any(|n| n == &note) {
        notes.push(note);
    }
}

/// What stage 1 of `evaluate_inner` would decide.
enum Stage1 {
    SafePlan,
    Circuit,
    Refuse(StucError),
}

impl Engine {
    /// Explains — without evaluating — what [`Engine::evaluate`] would do
    /// with `query` on `representation`: route, back-end, width vs.
    /// budget, sweep-plan volume, cache provenance, and the same strategy
    /// notes the evaluation report would carry.
    ///
    /// The circuit path fetches (or builds and caches) the compiled
    /// lineage, so a cold explain warms the cache for the evaluation that
    /// follows; no counting sweep ever runs. Errors that would strike
    /// while *building* the lineage (decomposition, compilation, a tripped
    /// budget) propagate exactly as they would from `evaluate`; refusals
    /// that the back-end choice can predict are reported in
    /// [`QueryExplanation::refusal`] instead of being returned as errors.
    pub fn explain<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<QueryExplanation, StucError> {
        let _span = trace::span("explain");
        let mut notes = Vec::new();
        let extensional = representation.extensional(query);
        let safe_plan = match &extensional {
            Some(ext) => SafePlanEligibility::of(ext.query),
            None => SafePlanEligibility::unavailable(),
        };

        // Stage 1 mirror: the same decision tree as `evaluate_inner`,
        // producing the same notes in the same order.
        let stage1 = match (self.config.policy, safe_plan.extensional) {
            (BackendPolicy::Fixed(BackendKind::SafePlan), true) => match safe_plan.refusal() {
                None => Stage1::SafePlan,
                Some(refusal) => Stage1::Refuse(refusal.into()),
            },
            (BackendPolicy::Fixed(BackendKind::SafePlan), false) => {
                Stage1::Refuse(StucError::BackendUnsupported {
                    backend: BackendKind::SafePlan.name(),
                    reason: format!(
                        "{} offers no extensional evaluation; only TID instances do",
                        representation.kind()
                    ),
                })
            }
            (BackendPolicy::Auto, true) => {
                if safe_plan.hierarchical == Some(true) {
                    match safe_plan.refusal() {
                        None => {
                            notes.push(
                                "query is hierarchical; extensional safe plan selected".to_string(),
                            );
                            Stage1::SafePlan
                        }
                        Some(refusal) => {
                            let refusal: StucError = refusal.into();
                            notes.push(format!("safe plan refused ({refusal}); using lineage"));
                            Stage1::Circuit
                        }
                    }
                } else {
                    notes.push(
                        "query is not hierarchical; extensional safe plan skipped".to_string(),
                    );
                    Stage1::Circuit
                }
            }
            _ => Stage1::Circuit,
        };

        let mut explanation = QueryExplanation {
            query: clip(&format!("{query:?}")),
            representation: representation.kind().name(),
            fact_count: representation.fact_count(),
            policy: policy_name(self.config.policy),
            outcome: ExplainOutcome::Circuit,
            backend: BackendKind::TreewidthWmc,
            reason: String::new(),
            refusal: None,
            safe_plan,
            route: None,
            lowering: None,
            circuit: None,
            cache: self.cache_explanation(None),
            stages: Vec::new(),
            notes: Vec::new(),
        };

        match stage1 {
            Stage1::SafePlan => {
                explanation.outcome = ExplainOutcome::SafePlan;
                explanation.backend = BackendKind::SafePlan;
                explanation.reason = match self.config.policy {
                    BackendPolicy::Fixed(_) => "policy pins the extensional safe plan".to_string(),
                    _ => "query is hierarchical and self-join-free; no circuit needed".to_string(),
                };
                explanation.stages = vec!["safe-plan"];
            }
            Stage1::Refuse(err) => {
                explanation.outcome = ExplainOutcome::Refused;
                explanation.backend = BackendKind::SafePlan;
                explanation.reason = "the pinned back-end cannot run this task".to_string();
                explanation.refusal = Some(err.to_string());
            }
            Stage1::Circuit => {
                let (entry, flags) = self.explained_lineage(representation, query, &mut notes)?;
                let (backend, reason, refusal) =
                    self.predict_backend(entry.compiled.width(), &mut notes);
                explanation.backend = backend;
                explanation.reason = reason;
                explanation.circuit =
                    Some(self.circuit_explanation(&entry, backend, entry.decomposition_width));
                explanation.cache = self.cache_explanation(Some(flags));
                explanation.stages = if flags.lineage_cached {
                    vec!["cache-lookup", "sweep"]
                } else {
                    vec!["cache-lookup", "decompose", "compile-lineage", "sweep"]
                };
                if let Some(err) = refusal {
                    explanation.outcome = ExplainOutcome::Refused;
                    explanation.refusal = Some(err.to_string());
                    explanation.stages.pop(); // the sweep never happens
                }
            }
        }
        explanation.notes = notes;
        Ok(explanation)
    }

    /// Renders [`Engine::explain`] as the deterministic text block.
    pub fn explain_to_string<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
    ) -> Result<String, StucError> {
        Ok(self.explain(representation, query)?.render_text())
    }

    /// Explains every `?-` goal of a `stuc-lang` program: parse → lower →
    /// cost-model route (mirroring [`Engine::evaluate_text`]'s decision
    /// per goal, including policy forcing and the missing-extensional
    /// fallback), then the circuit analysis of [`Engine::explain`] for
    /// every inclusion–exclusion term the circuit route would compile.
    pub fn explain_text<R>(
        &self,
        representation: &R,
        src: &str,
    ) -> Result<Vec<QueryExplanation>, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let program = parse_program(src).map_err(LangError::from)?;
        let fact_count = program.facts().count();
        if fact_count > 0 {
            return Err(StucError::TextFacts { count: fact_count });
        }
        let rules = program.rules();
        let mut explanations = Vec::new();
        for query in program.queries() {
            explanations.push(self.explain_goal(representation, &query.goal, &rules)?);
        }
        Ok(explanations)
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
        let lowered = lower_goal(goal, rules).map_err(LangError::from)?;
        let stats = representation.relation_stats().unwrap_or_default();
        let cached = !lowered.terms.is_empty()
            && lowered
                .terms
                .iter()
                .filter_map(|t| t.query.as_ref())
                .all(|q| self.has_cached_lineage(representation, q));
        let mut decision = CostModel::default().choose(&lowered, &stats, cached);
        match self.config.policy {
            BackendPolicy::Fixed(BackendKind::SafePlan) => decision.route = Route::SafePlan,
            BackendPolicy::Fixed(_) => decision.route = Route::Circuit,
            BackendPolicy::Auto => {}
        }

        let mut notes = vec![decision.summary(), lowering_note(&lowered)];
        let terms: Vec<&ConjunctiveQuery> = lowered
            .terms
            .iter()
            .filter_map(|t| t.query.as_ref())
            .collect();
        let safe_plan = match terms.first() {
            // Eligibility across the goal: every term must pass; fold the
            // three conditions the way the cost model folds them.
            Some(_)
                if terms
                    .iter()
                    .all(|q| representation.extensional(q).is_some()) =>
            {
                SafePlanEligibility {
                    extensional: true,
                    hierarchical: Some(terms.iter().all(|q| is_hierarchical(q))),
                    self_join_free: Some(terms.iter().all(|q| q.is_self_join_free())),
                    empty: Some(false),
                }
            }
            Some(_) => SafePlanEligibility::unavailable(),
            None => SafePlanEligibility::unavailable(),
        };

        let mut explanation = QueryExplanation {
            query: goal.to_string(),
            representation: representation.kind().name(),
            fact_count: representation.fact_count(),
            policy: policy_name(self.config.policy),
            outcome: ExplainOutcome::Circuit,
            backend: BackendKind::TreewidthWmc,
            reason: String::new(),
            refusal: None,
            safe_plan,
            route: None,
            lowering: Some(lowering_note(&lowered)),
            circuit: None,
            cache: self.cache_explanation(None),
            stages: vec!["lower", "route"],
            notes: Vec::new(),
        };

        // The missing-extensional fallback, mirroring `evaluate_goal`.
        if decision.route == Route::SafePlan
            && terms
                .iter()
                .any(|q| representation.extensional(q).is_none())
        {
            if self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan) {
                explanation.outcome = ExplainOutcome::Refused;
                explanation.backend = BackendKind::SafePlan;
                explanation.reason = "the pinned back-end cannot run this task".to_string();
                explanation.refusal = Some(
                    StucError::BackendUnsupported {
                        backend: BackendKind::SafePlan.name(),
                        reason: format!(
                            "{} offers no extensional evaluation; only TID instances do",
                            representation.kind()
                        ),
                    }
                    .to_string(),
                );
                explanation.route = Some(RouteExplanation::from_decision(&decision));
                explanation.notes = notes;
                return Ok(explanation);
            }
            decision.route = Route::Circuit;
            notes.push(
                "representation offers no extensional evaluation; circuit route used".to_string(),
            );
        }
        explanation.route = Some(RouteExplanation::from_decision(&decision));

        match decision.route {
            Route::SafePlan => {
                explanation.outcome = ExplainOutcome::SafePlan;
                explanation.backend = BackendKind::SafePlan;
                explanation.reason = match self.config.policy {
                    BackendPolicy::Fixed(_) => "policy pins the extensional safe plan".to_string(),
                    _ => "the cost model priced the safe plan below compilation".to_string(),
                };
                explanation.stages.push("safe-plan");
            }
            Route::Circuit if terms.is_empty() => {
                // Mirrors `evaluate_goal`: no term to compile, default
                // back-end, zero gates.
                explanation.backend = BackendKind::TreewidthWmc;
                explanation.reason = "no satisfiable terms; nothing to evaluate".to_string();
                notes.push("no satisfiable terms remained after lowering".to_string());
            }
            Route::Circuit => {
                // Fold per-term circuits as the goal report folds them:
                // gates summed, widths maxed, cache flags ANDed, back-end
                // from the first term.
                let mut folded: Option<CircuitExplanation> = None;
                let mut flags = CacheFlags {
                    decomposition_cached: true,
                    lineage_cached: true,
                };
                let mut first_backend = None;
                let mut refusal = None;
                for query in &terms {
                    let (entry, term_flags) =
                        self.explained_lineage(representation, *query, &mut notes)?;
                    flags.decomposition_cached &= term_flags.decomposition_cached;
                    flags.lineage_cached &= term_flags.lineage_cached;
                    let (backend, reason, term_refusal) =
                        self.predict_backend(entry.compiled.width(), &mut notes);
                    if first_backend.is_none() {
                        first_backend = Some((backend, reason));
                    }
                    if refusal.is_none() {
                        refusal = term_refusal;
                    }
                    let term_circuit =
                        self.circuit_explanation(&entry, backend, entry.decomposition_width);
                    folded = Some(match folded {
                        None => term_circuit,
                        Some(prior) => fold_circuits(prior, term_circuit),
                    });
                }
                let (backend, reason) = first_backend.expect("terms is non-empty in this branch");
                explanation.backend = backend;
                explanation.reason = reason;
                explanation.circuit = folded;
                explanation.cache = self.cache_explanation(Some(flags));
                if flags.lineage_cached {
                    explanation.stages.push("cache-lookup");
                } else {
                    explanation
                        .stages
                        .extend(["cache-lookup", "decompose", "compile-lineage"]);
                }
                if let Some(err) = refusal {
                    explanation.outcome = ExplainOutcome::Refused;
                    explanation.refusal = Some(err.to_string());
                } else {
                    explanation.stages.push("sweep");
                }
            }
        }
        explanation.notes = notes;
        Ok(explanation)
    }

    /// Fetch/build the compiled lineage and mirror the cache/build notes
    /// `evaluate_on_circuit` would push.
    fn explained_lineage<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        notes: &mut Vec<String>,
    ) -> Result<(Arc<CompiledLineage>, CacheFlags), StucError> {
        let mut rec = StageRecorder::new();
        let (entry, flags) = self.compiled_lineage(representation, query, &mut rec)?;
        if flags.lineage_cached {
            push_unique(notes, "compiled lineage served from cache".to_string());
        } else if flags.decomposition_cached {
            push_unique(
                notes,
                "structure decomposition served from cache".to_string(),
            );
        }
        for note in &entry.build_notes {
            push_unique(notes, note.clone());
        }
        Ok((entry, flags))
    }

    /// The back-end stage 4 would pick for a circuit of this width — the
    /// exact `Auto` rule, with the exact notes; a pinned treewidth sweep
    /// over budget yields the refusal `evaluate` would return.
    fn predict_backend(
        &self,
        width: usize,
        notes: &mut Vec<String>,
    ) -> (BackendKind, String, Option<StucError>) {
        let budget = self.config.width_budget;
        match self.config.policy {
            BackendPolicy::Fixed(BackendKind::TreewidthWmc) => {
                let refusal = (width >= budget).then(|| {
                    StucError::from(WmcError::WidthTooLarge {
                        width,
                        limit: budget,
                    })
                });
                (
                    BackendKind::TreewidthWmc,
                    "policy pins the treewidth WMC sweep".to_string(),
                    refusal,
                )
            }
            BackendPolicy::Fixed(BackendKind::Dpll) => (
                BackendKind::Dpll,
                "policy pins the DPLL counter".to_string(),
                None,
            ),
            BackendPolicy::Fixed(BackendKind::Enumeration) => (
                BackendKind::Enumeration,
                "policy pins the enumeration baseline".to_string(),
                None,
            ),
            BackendPolicy::Auto => {
                if width < budget {
                    push_unique(
                        notes,
                        format!(
                            "lineage width estimate {width} within budget {budget}; treewidth WMC selected"
                        ),
                    );
                    (
                        BackendKind::TreewidthWmc,
                        format!("circuit width {width} fits the budget {budget}"),
                        None,
                    )
                } else {
                    push_unique(
                        notes,
                        format!(
                            "lineage width estimate {width} exceeds budget {budget}; DPLL selected"
                        ),
                    );
                    (
                        BackendKind::Dpll,
                        format!("circuit width {width} exceeds the budget {budget}"),
                        None,
                    )
                }
            }
            BackendPolicy::Fixed(BackendKind::SafePlan) => {
                unreachable!("safe-plan policy never reaches the circuit path")
            }
        }
    }

    fn circuit_explanation(
        &self,
        entry: &CompiledLineage,
        backend: BackendKind,
        decomposition_width: Option<usize>,
    ) -> CircuitExplanation {
        let width = entry.compiled.width();
        // Building the sweep plan is only worth it when the treewidth
        // sweep would actually use it; the plan is memoized on the shared
        // cache entry, so the evaluation that follows reuses it for free.
        let sweep = (backend == BackendKind::TreewidthWmc)
            .then(|| entry.compiled.sweep_plan())
            .flatten()
            .map(|plan| SweepPlanStats {
                nodes: plan.len(),
                table_entries: plan.table_entry_count(),
                arena_slots: plan.slot_count(),
            });
        CircuitExplanation {
            gates: entry.compiled.len(),
            cold_gates: entry.cold_gates,
            variables: entry.compiled.variables().len(),
            bags: entry.compiled.bag_count(),
            width,
            decomposition_width,
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
    use crate::engine::EngineBuilder;
    use stuc_data::tid::TidInstance;
    use stuc_query::cq::ConjunctiveQuery;

    fn two_fact_tid() -> TidInstance {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 0.4);
        tid.add_fact_named("S", &["a", "b"], 0.5);
        tid
    }

    #[test]
    fn a_hierarchical_query_explains_as_the_safe_plan() {
        let tid = two_fact_tid();
        let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let engine = Engine::new();
        let explanation = engine.explain(&tid, &query).unwrap();
        assert_eq!(explanation.outcome, ExplainOutcome::SafePlan);
        assert_eq!(explanation.backend, BackendKind::SafePlan);
        assert_eq!(explanation.safe_plan.hierarchical, Some(true));
        assert_eq!(explanation.stages, vec!["safe-plan"]);
        assert_eq!(explanation.cache.lineage.provenance, "untouched");
        // And it agrees with the actual run.
        let report = engine.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, explanation.backend);
        assert!(!report.lineage_cached);
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
        assert_eq!(again.stages, vec!["cache-lookup", "sweep"]);
    }

    #[test]
    fn a_pinned_safe_plan_on_a_self_join_explains_the_refusal() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "b"], 0.5);
        tid.add_fact_named("R", &["b", "c"], 0.5);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = EngineBuilder::default()
            .backend(BackendKind::SafePlan)
            .build();
        let explanation = engine.explain(&tid, &query).unwrap();
        assert_eq!(explanation.outcome, ExplainOutcome::Refused);
        let refusal = explanation.refusal.expect("refused outcome carries text");
        let err = engine.evaluate(&tid, &query).unwrap_err();
        assert_eq!(refusal, err.to_string());
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
