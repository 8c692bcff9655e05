//! The engine's one planner: decide once, then execute or render.
//!
//! [`Engine::plan`] (a programmatic query) and [`Engine::plan_goal`] (a
//! textual goal) make the paper's one decision — the extensional safe plan,
//! or decompose → automaton → lineage → sweep — and return a [`Plan`] that
//! the evaluation entry points *execute* and EXPLAIN only *renders*, so the
//! two agree by construction. Planning fetches (or builds) the compiled
//! lineage through the shared cache, because the back-end choice depends on
//! the circuit's width; executing only fetches the weights and sweeps, or,
//! under the representation's own weights, reads the answer an earlier run
//! memoised on the lineage entry.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::Duration;

use super::backend::{
    Backend, DpllBackend, EnumerationBackend, EvaluationTask, SafePlanBackend, TreewidthWmcBackend,
};
use super::explain::SafePlanEligibility;
use super::report::{BackendKind, BackendPolicy, EvaluationReport};
use super::representation::Representation;
use super::text::{lowering_note, GoalEvaluation};
use super::{CompiledLineage, Engine, StucError};
use stuc_circuit::weights::Weights;
use stuc_lang::ast::{RuleAst, UnionAst};
use stuc_lang::cost::{CostModel, Route, RouteDecision};
use stuc_lang::lower::{lower_goal, LoweredGoal};
use stuc_lang::LangError;
use stuc_obs::timer::{StageRecorder, StageTimings};
use stuc_query::cq::ConjunctiveQuery;

/// Reason of every refusal a pinned safe plan issues before running.
const PINNED_REFUSAL: &str = "the pinned back-end cannot run this task";

/// Which engine caches served (parts of) one compiled lineage.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CacheFlags {
    pub(crate) decomposition_cached: bool,
    pub(crate) lineage_cached: bool,
}

/// A compiled lineage as planning found it.
#[derive(Debug, Clone)]
pub(crate) struct Lineage {
    pub(crate) entry: Arc<CompiledLineage>,
    pub(crate) flags: CacheFlags,
}

/// What executing a plan does for one query.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// The extensional safe plan on the instance's own probabilities.
    SafePlan,
    /// A counting back-end sweeps the compiled lineage.
    Circuit {
        lineage: Lineage,
        backend: BackendKind,
    },
    /// A pinned `backend` refuses before computing anything; a width
    /// refusal keeps the lineage it measured.
    Refused {
        backend: BackendKind,
        error: StucError,
        lineage: Option<Lineage>,
    },
}

impl Step {
    pub(crate) fn backend(&self) -> BackendKind {
        match self {
            Step::SafePlan => BackendKind::SafePlan,
            Step::Circuit { backend, .. } | Step::Refused { backend, .. } => *backend,
        }
    }

    pub(crate) fn lineage(&self) -> Option<&Lineage> {
        match self {
            Step::SafePlan => None,
            Step::Circuit { lineage, .. } => Some(lineage),
            Step::Refused { lineage, .. } => lineage.as_ref(),
        }
    }

    fn refusal(&self) -> Option<&StucError> {
        match self {
            Step::Refused { error, .. } => Some(error),
            _ => None,
        }
    }

    /// The answer of its back-end a circuit step's lineage entry already
    /// holds: executing the step without a weight override returns it.
    pub(crate) fn memoised_answer(&self) -> Option<f64> {
        match self {
            Step::Circuit { lineage, backend } => match lineage.entry.answer.get() {
                Some(&(kind, probability)) if kind == *backend => Some(probability),
                _ => None,
            },
            _ => None,
        }
    }

    fn pinned_safe_refusal(error: StucError) -> Step {
        Step::Refused {
            backend: BackendKind::SafePlan,
            error,
            lineage: None,
        }
    }
}

/// One decision of the engine: a step per query it evaluates — one for a
/// programmatic query, one per satisfiable inclusion–exclusion term of a
/// goal (cut after the first refused one).
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    pub(crate) steps: Vec<Step>,
    /// The extensional safe plan answers the query or goal.
    pub(crate) safe_route: bool,
    /// One sentence of why this back-end.
    pub(crate) reason: Cow<'static, str>,
    /// Exactly the strategy notes the evaluation report carries.
    pub(crate) notes: Vec<String>,
}

impl Plan {
    fn new(step: Step, reason: impl Into<Cow<'static, str>>, notes: Vec<String>) -> Plan {
        Plan {
            safe_route: matches!(step, Step::SafePlan),
            steps: vec![step],
            reason: reason.into(),
            notes,
        }
    }

    /// A pinned safe plan's refusal.
    fn refused(error: StucError, notes: Vec<String>) -> Plan {
        Plan::new(Step::pinned_safe_refusal(error), PINNED_REFUSAL, notes)
    }

    /// The safe plan, or the first step's back-end.
    pub(crate) fn backend(&self) -> BackendKind {
        match (self.safe_route, self.steps.first()) {
            (true, _) => BackendKind::SafePlan,
            (false, Some(step)) => step.backend(),
            (false, None) => BackendKind::TreewidthWmc,
        }
    }

    fn lineages(&self) -> impl Iterator<Item = &Lineage> {
        self.steps.iter().filter_map(Step::lineage)
    }

    /// Each flag holds when it holds for every lineage; `None` without one.
    pub(crate) fn cache_flags(&self) -> Option<CacheFlags> {
        self.lineages().map(|l| l.flags).reduce(|a, b| CacheFlags {
            decomposition_cached: a.decomposition_cached && b.decomposition_cached,
            lineage_cached: a.lineage_cached && b.lineage_cached,
        })
    }

    /// The error the run returns, when the plan refuses.
    pub(crate) fn refusal(&self) -> Option<&StucError> {
        self.steps.last().and_then(Step::refusal)
    }

    /// The report of a run that produced `probability`: gates summed,
    /// widths maxed, cache flags ANDed over the steps' lineages.
    fn into_report(
        self,
        probability: f64,
        fact_count: usize,
        wall_time: Duration,
        stage_timings: StageTimings,
    ) -> EvaluationReport {
        let flags = self.cache_flags().unwrap_or_default();
        EvaluationReport {
            probability,
            backend: self.backend(),
            decomposition_width: self
                .lineages()
                .filter_map(|l| l.entry.decomposition_width)
                .max(),
            circuit_gates: self.lineages().map(|l| l.entry.compiled.len()).sum(),
            fact_count,
            wall_time,
            decomposition_cached: flags.decomposition_cached,
            lineage_cached: flags.lineage_cached,
            notes: self.notes,
            route: None,
            trace_id: stuc_obs::next_trace_id(),
            stage_timings,
        }
    }
}

/// The plan of one textual goal, with its lowering and the route after
/// policy forcing.
#[derive(Debug)]
pub(crate) struct GoalPlan {
    pub(crate) plan: Plan,
    pub(crate) lowered: LoweredGoal,
    pub(crate) decision: RouteDecision,
}

fn no_extensional<R: Representation + ?Sized>(representation: &R) -> StucError {
    StucError::BackendUnsupported {
        backend: BackendKind::SafePlan.name(),
        reason: format!(
            "{} offers no extensional evaluation; only TID instances do",
            representation.kind()
        ),
    }
}

/// The safe plan on `query`, or the refusal `safe_plan_probability` would
/// return (its checks, in its order).
fn safe_step(query: &ConjunctiveQuery) -> Step {
    match SafePlanEligibility::of(query).refusal() {
        None => Step::SafePlan,
        Some(refusal) => Step::pinned_safe_refusal(refusal.into()),
    }
}

/// Adds `note` unless an equal one is there already.
fn push_note(notes: &mut Vec<String>, note: String) {
    if !notes.contains(&note) {
        notes.push(note);
    }
}

impl Engine {
    /// Plans `query` on `representation`. Stage 1, the extensional fast
    /// path, is off the table when the caller overrides the weights (it
    /// reads the instance's own probabilities). Errors while *building* the
    /// lineage are returned; a pinned back-end's refusal is a plan.
    pub(crate) fn plan<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        weights_overridden: bool,
        rec: &mut StageRecorder,
    ) -> Result<Plan, StucError> {
        let pinned_safe = self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan);
        let mut notes = Vec::new();
        if weights_overridden {
            if pinned_safe {
                let error = StucError::BackendUnsupported {
                    backend: BackendKind::SafePlan.name(),
                    reason: "weight re-evaluation runs on the lineage circuit; the extensional \
                             safe plan reads the instance's own probabilities"
                        .into(),
                };
                return Ok(Plan::refused(error, notes));
            }
        } else if let Some(extensional) = representation.extensional(query) {
            if pinned_safe {
                let step = safe_step(extensional.query);
                let reason = match step {
                    Step::SafePlan => "policy pins the extensional safe plan",
                    _ => PINNED_REFUSAL,
                };
                return Ok(Plan::new(step, reason, notes));
            }
            if self.config.policy == BackendPolicy::Auto {
                let eligibility = SafePlanEligibility::of(extensional.query);
                match eligibility.refusal() {
                    _ if eligibility.hierarchical == Some(false) => notes.push(
                        "query is not hierarchical; extensional safe plan skipped".to_string(),
                    ),
                    Some(refusal) => notes.push(format!(
                        "safe plan refused ({}); using lineage",
                        StucError::from(refusal)
                    )),
                    None => {
                        notes.push(
                            "query is hierarchical; extensional safe plan selected".to_string(),
                        );
                        let reason = "query is hierarchical and self-join-free; no circuit needed";
                        return Ok(Plan::new(Step::SafePlan, reason, notes));
                    }
                }
            }
        } else if pinned_safe {
            return Ok(Plan::refused(no_extensional(representation), notes));
        }
        let (step, reason) = self.plan_circuit(representation, query, rec, &mut notes)?;
        Ok(Plan::new(step, reason, notes))
    }

    /// Stages 2–4: fetch (or build) the weight-independent compiled lineage
    /// and pick the counting back-end for its width.
    fn plan_circuit<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        rec: &mut StageRecorder,
        notes: &mut Vec<String>,
    ) -> Result<(Step, Cow<'static, str>), StucError> {
        let (entry, flags) = self.compiled_lineage(representation, query, rec)?;
        if flags.lineage_cached {
            push_note(notes, "compiled lineage served from cache".to_string());
        } else if flags.decomposition_cached {
            push_note(
                notes,
                "structure decomposition served from cache".to_string(),
            );
        }
        for note in &entry.build_notes {
            push_note(notes, note.clone());
        }
        let width = entry.compiled.width();
        let budget = self.config.width_budget;
        let lineage = Lineage { entry, flags };
        let (backend, reason): (_, Cow<'static, str>) = match self.config.policy {
            BackendPolicy::Fixed(BackendKind::TreewidthWmc) => {
                let reason = "policy pins the treewidth WMC sweep".into();
                if let Err(refusal) = lineage.entry.compiled.ensure_width(budget) {
                    let step = Step::Refused {
                        backend: BackendKind::TreewidthWmc,
                        error: refusal.into(),
                        lineage: Some(lineage),
                    };
                    return Ok((step, reason));
                }
                (BackendKind::TreewidthWmc, reason)
            }
            BackendPolicy::Fixed(BackendKind::Dpll) => {
                (BackendKind::Dpll, "policy pins the DPLL counter".into())
            }
            BackendPolicy::Fixed(BackendKind::Enumeration) => (
                BackendKind::Enumeration,
                "policy pins the enumeration baseline".into(),
            ),
            BackendPolicy::Fixed(BackendKind::SafePlan) => {
                unreachable!("a pinned safe plan is decided before the circuit path")
            }
            // `width()` is the decomposition *width*; the WMC back-end
            // refuses on *bag size* (width + 1), hence the strict
            // comparison — Auto never picks a back-end that refuses.
            BackendPolicy::Auto if width < budget => {
                push_note(
                    notes,
                    format!(
                        "lineage width estimate {width} within budget {budget}; treewidth WMC selected"
                    ),
                );
                let reason = format!("circuit width {width} fits the budget {budget}");
                (BackendKind::TreewidthWmc, reason.into())
            }
            BackendPolicy::Auto => {
                push_note(
                    notes,
                    format!(
                        "lineage width estimate {width} exceeds budget {budget}; DPLL selected"
                    ),
                );
                let reason = format!("circuit width {width} exceeds the budget {budget}");
                (BackendKind::Dpll, reason.into())
            }
        };
        Ok((Step::Circuit { lineage, backend }, reason))
    }

    /// The cost model's route for a lowered goal (the circuit route is
    /// discounted when every term's lineage is compiled), forced when the
    /// policy pins a back-end: a pinned back-end runs or errors, it never
    /// silently reroutes.
    pub(crate) fn route<R>(&self, representation: &R, lowered: &LoweredGoal) -> RouteDecision
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let stats = representation.relation_stats().unwrap_or_default();
        let cached = !lowered.terms.is_empty()
            && lowered
                .terms
                .iter()
                .filter_map(|t| t.query.as_ref())
                .all(|q| self.has_cached_lineage(representation, q));
        let mut decision = CostModel.choose(lowered, &stats, cached);
        match self.config.policy {
            BackendPolicy::Fixed(BackendKind::SafePlan) => decision.route = Route::SafePlan,
            BackendPolicy::Fixed(_) => decision.route = Route::Circuit,
            BackendPolicy::Auto => {}
        }
        decision
    }

    /// Plans one parsed goal with `rules` in scope: lowering (safety
    /// analysis included), [`Engine::route`], the fallback to circuits when
    /// the representation has no extensional path, and a step per term.
    pub(crate) fn plan_goal<R>(
        &self,
        representation: &R,
        goal: &UnionAst,
        rules: &[&RuleAst],
        rec: &mut StageRecorder,
    ) -> Result<GoalPlan, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let lowered = lower_goal(goal, rules).map_err(LangError::from)?;
        rec.mark("lower");
        let mut decision = self.route(representation, &lowered);
        rec.mark("route");
        let mut notes = vec![decision.summary(), lowering_note(&lowered)];
        let pinned_safe = self.config.policy == BackendPolicy::Fixed(BackendKind::SafePlan);
        let queries = || lowered.terms.iter().filter_map(|t| t.query.as_ref());
        let missing_extensional = || queries().any(|q| representation.extensional(q).is_none());
        if decision.route == Route::SafePlan && missing_extensional() {
            if pinned_safe {
                return Ok(GoalPlan {
                    plan: Plan::refused(no_extensional(representation), notes),
                    lowered,
                    decision,
                });
            }
            decision.route = Route::Circuit;
            notes.push(
                "representation offers no extensional evaluation; circuit route used".to_string(),
            );
        }

        let safe_route = decision.route == Route::SafePlan;
        let mut steps = Vec::new();
        let mut circuit_reason = None;
        for query in queries() {
            let step = if safe_route {
                safe_step(query)
            } else {
                stuc_fault::budget::check("inclusion-exclusion term")?;
                let (step, reason) = self.plan_circuit(representation, query, rec, &mut notes)?;
                circuit_reason.get_or_insert(reason);
                step
            };
            let refused = step.refusal().is_some();
            steps.push(step);
            if refused {
                break;
            }
        }
        let reason = match circuit_reason {
            Some(reason) => reason,
            None if !safe_route => {
                notes.push("no satisfiable terms remained after lowering".to_string());
                "no satisfiable terms; nothing to evaluate".into()
            }
            None if steps.last().and_then(Step::refusal).is_some() => PINNED_REFUSAL.into(),
            None if pinned_safe => "policy pins the extensional safe plan".into(),
            None => "the cost model priced the safe plan below compilation".into(),
        };
        Ok(GoalPlan {
            plan: Plan {
                steps,
                safe_route,
                reason,
                notes,
            },
            lowered,
            decision,
        })
    }

    /// Plans and executes one query: [`Engine::evaluate`] and
    /// [`Engine::reevaluate_with_weights`].
    pub(crate) fn run_plan<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        weights: Option<&Weights>,
    ) -> Result<EvaluationReport, StucError> {
        // Fail fast when the caller's deadline already passed (e.g. the
        // request waited out its budget in the server's accept queue).
        stuc_fault::budget::check("evaluation start")?;
        let mut rec = StageRecorder::new();
        let plan = self.plan(representation, query, weights.is_some(), &mut rec)?;
        let probability = self.execute(representation, query, &plan.steps[0], weights, &mut rec)?;
        let (facts, wall_time) = (representation.fact_count(), rec.elapsed());
        Ok(plan.into_report(probability, facts, wall_time, rec.finish()))
    }

    /// Plans one query and executes it under every weight table in
    /// `scenarios`: in one lane sweep when the plan picks the treewidth
    /// sweep, one run per scenario otherwise.
    pub(crate) fn run_plan_many<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        scenarios: &[Weights],
    ) -> Result<Vec<EvaluationReport>, StucError> {
        if scenarios.is_empty() {
            return Ok(Vec::new());
        }
        let mut rec = StageRecorder::new();
        let mut plan = self.plan(representation, query, true, &mut rec)?;
        let probabilities = match &plan.steps[0] {
            Step::Circuit {
                lineage,
                backend: BackendKind::TreewidthWmc,
            } => {
                let many = lineage
                    .entry
                    .compiled
                    .run_many(scenarios, self.config.width_budget)?;
                rec.mark("sweep");
                let note = format!("{} scenarios evaluated in one lane sweep", scenarios.len());
                plan.notes.push(note);
                many.probabilities
            }
            step => {
                let probabilities = scenarios
                    .iter()
                    .map(|w| self.execute(representation, query, step, Some(w), &mut rec))
                    .collect::<Result<Vec<_>, _>>()?;
                plan.notes.push(format!(
                    "{} scenarios evaluated sequentially by {} (no lane support)",
                    scenarios.len(),
                    step.backend()
                ));
                probabilities
            }
        };
        let (wall_time, timings) = (rec.elapsed(), rec.finish());
        Ok(probabilities
            .into_iter()
            .map(|p| {
                let plan = plan.clone();
                plan.into_report(p, representation.fact_count(), wall_time, timings.clone())
            })
            .collect())
    }

    /// Plans and executes one goal ([`Engine::evaluate_goal`]): every term
    /// on its step, combined by the inclusion–exclusion signs.
    pub(crate) fn run_goal_plan<R>(
        &self,
        representation: &R,
        goal: &UnionAst,
        rules: &[&RuleAst],
    ) -> Result<GoalEvaluation, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let mut rec = StageRecorder::new();
        let GoalPlan {
            plan,
            lowered,
            decision,
        } = self.plan_goal(representation, goal, rules, &mut rec)?;
        if let Some(refusal) = plan.refusal() {
            return Err(refusal.clone());
        }
        let mut steps = plan.steps.iter();
        let probability = lowered.combine(|query| {
            let step = steps.next().expect("one step per satisfiable term");
            self.execute(representation, query, step, None, &mut rec)
        })?;
        let (facts, wall_time) = (representation.fact_count(), rec.elapsed());
        let mut report = plan.into_report(probability, facts, wall_time, rec.finish());
        report.route = Some(decision.route);
        Ok(GoalEvaluation {
            source: goal.to_string(),
            probability,
            report,
            decision,
        })
    }

    /// Runs one step: the safe plan, or the weights (the caller's override
    /// wins) swept by the chosen counting back-end. Under the
    /// representation's own weights the answer is a function of the lineage
    /// entry's key, so a successful sweep memoises it on the entry and a
    /// later run of the same back-end returns it, recording no stage.
    fn execute<R: Representation + ?Sized>(
        &self,
        representation: &R,
        query: &R::Query,
        step: &Step,
        weights: Option<&Weights>,
        rec: &mut StageRecorder,
    ) -> Result<f64, StucError> {
        let (lineage, backend) = match step {
            Step::Refused { error, .. } => return Err(error.clone()),
            Step::SafePlan => {
                let input = representation
                    .extensional(query)
                    .ok_or_else(|| no_extensional(representation))?;
                let probability = SafePlanBackend.solve(&EvaluationTask::Extensional {
                    tid: input.tid,
                    query: input.query,
                })?;
                rec.mark("safe-plan");
                return Ok(probability);
            }
            Step::Circuit { lineage, backend } => (lineage, *backend),
        };
        let memoise = weights.is_none() && self.caches_lineages();
        if memoise {
            if let Some(probability) = step.memoised_answer() {
                self.answers.note_hit();
                return Ok(probability);
            }
            self.answers.note_miss();
        }
        let own_weights;
        let weights = match weights {
            Some(weights) => weights,
            None => {
                own_weights = representation.weights()?;
                &*own_weights
            }
        };
        let task = EvaluationTask::Compiled {
            lineage: &lineage.entry.compiled,
            weights,
        };
        rec.mark("weights");
        let probability = match backend {
            BackendKind::TreewidthWmc => TreewidthWmcBackend {
                max_bag_size: self.config.width_budget,
            }
            .solve(&task),
            BackendKind::Dpll => DpllBackend::default().solve(&task),
            BackendKind::Enumeration => EnumerationBackend.solve(&task),
            BackendKind::SafePlan => SafePlanBackend.solve(&task),
        }?;
        rec.mark("sweep");
        if memoise {
            // A concurrent run may have filled the slot first; both swept
            // the same circuit under the same weights.
            let _ = lineage.entry.answer.set((backend, probability));
        }
        Ok(probability)
    }
}
