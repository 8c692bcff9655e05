//! The engine's textual front-end: [`Engine::evaluate_text`].
//!
//! Everything else on [`Engine`] takes programmatically built queries; this
//! module accepts the `stuc-lang` surface syntax instead. A source program
//! is parsed, safety-checked and lowered (rule unfolding, union
//! inclusion–exclusion, ground-negation expansion) into signed sums of
//! [`ConjunctiveQuery`] terms, and the `stuc-lang` cost model routes each goal to the
//! extensional safe plan or to lineage/circuit compilation — the choice the
//! engine's `Auto` policy makes structurally, made here by estimated cost
//! with per-relation fan-in statistics from the instance.
//!
//! ```
//! use stuc_core::engine::Engine;
//! use stuc_data::tid::TidInstance;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a"], 0.4);
//! tid.add_fact_named("S", &["a", "b"], 0.5);
//!
//! let engine = Engine::new();
//! let outcome = engine
//!     .evaluate_text(&tid, "Both(x) :- R(x), S(x, y).  ?- Both(x).")
//!     .unwrap();
//! assert!((outcome.goals[0].probability - 0.2).abs() < 1e-9);
//! println!("{}", outcome.goals[0].report.notes[0]);
//! ```

use super::metrics::engine_metrics;
use super::report::EvaluationReport;
use super::representation::Representation;
use super::{Engine, StucError};
use stuc_lang::ast::{ProgramAst, RuleAst, UnionAst};
use stuc_lang::cost::RouteDecision;
use stuc_lang::lower::{lower_goal, LoweredGoal};
use stuc_lang::{parse_program, LangError};
use stuc_obs::timer::Stopwatch;
use stuc_obs::{slowlog, trace};
use stuc_query::cq::ConjunctiveQuery;

/// The outcome of evaluating one textual goal (`?- …`).
#[derive(Debug, Clone)]
pub struct GoalEvaluation {
    /// Canonical rendering of the goal (as the pretty-printer spells it).
    pub source: String,
    /// The probability of the goal.
    pub probability: f64,
    /// An aggregate report over the goal's inclusion–exclusion terms, with
    /// [`EvaluationReport::route`] set to the cost model's choice.
    pub report: EvaluationReport,
    /// The cost model's routing decision with the evidence behind it.
    pub decision: RouteDecision,
}

/// The outcome of [`Engine::evaluate_text`]: one [`GoalEvaluation`] per
/// `?-` goal of the source program, in order.
#[derive(Debug, Clone, Default)]
pub struct TextEvaluation {
    /// Per-goal outcomes, in source order.
    pub goals: Vec<GoalEvaluation>,
}

impl TextEvaluation {
    /// Number of goals evaluated.
    pub fn len(&self) -> usize {
        self.goals.len()
    }

    /// True when the program declared no goals.
    pub fn is_empty(&self) -> bool {
        self.goals.is_empty()
    }

    /// The probability of each goal, in source order.
    pub fn probabilities(&self) -> Vec<f64> {
        self.goals.iter().map(|g| g.probability).collect()
    }
}

impl Engine {
    /// Parses, safety-checks, lowers and evaluates a `stuc-lang` program
    /// against `representation`, returning one [`GoalEvaluation`] per `?-`
    /// goal. Rules in the program are unfolded into the goals; inline fact
    /// statements are rejected (the instance is the argument — build one
    /// from facts with [`stuc_lang::lower::program_instance`]).
    pub fn evaluate_text<R>(
        &self,
        representation: &R,
        src: &str,
    ) -> Result<TextEvaluation, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let run = || {
            // Parse is program-level (one parse serves every goal), so it
            // shows up in the tracer rather than in any goal's breakdown.
            let parse_watch = Stopwatch::start();
            let program = parse_text(src)?;
            trace::record_complete("parse", parse_watch.started_at(), parse_watch.elapsed());
            let rules = program.rules();
            let goals = program.queries().into_iter().map(|query| {
                stuc_fault::budget::check("goal evaluation")?;
                self.evaluate_goal(representation, &query.goal, &rules)
            });
            Ok(TextEvaluation {
                goals: goals.collect::<Result<_, _>>()?,
            })
        };
        engine_metrics()
            .evaluate_text
            .instrument("evaluate_text", run, |result, wall| match result {
                Ok(outcome) => {
                    for goal in &outcome.goals {
                        slowlog::global().note(
                            "evaluate_text",
                            goal.report.wall_time,
                            goal.report.trace_id,
                            || goal.source.clone(),
                        );
                    }
                }
                Err(err) => super::note_eval_failure("evaluate_text", err, wall),
            })
    }

    /// Parses and lowers `src` without evaluating anything, returning the
    /// cost model's estimate for the *cheaper* route of each goal, summed.
    /// This is the admission-control signal behind the HTTP server's
    /// cost-ceiling load shedding: abstract cost units, comparable across
    /// queries against the same instance, cheap to compute (no
    /// decomposition, no circuits).
    pub fn estimate_text_cost<R>(&self, representation: &R, src: &str) -> Result<f64, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        let program = parse_text(src)?;
        let rules = program.rules();
        program.queries().into_iter().try_fold(0.0, |total, query| {
            let lowered = lower_goal(&query.goal, &rules).map_err(LangError::from)?;
            let decision = self.route(representation, &lowered);
            Ok(total + decision.safe_cost.min(decision.circuit_cost))
        })
    }

    /// Evaluates one parsed goal with `rules` in scope: lowers it to signed
    /// inclusion–exclusion terms, routes it with the cost model, and runs
    /// every term on the chosen evaluator. This is the per-goal core of
    /// [`Engine::evaluate_text`], exposed for callers (such as the REPL)
    /// that keep a parsed program around.
    pub fn evaluate_goal<R>(
        &self,
        representation: &R,
        goal: &UnionAst,
        rules: &[&RuleAst],
    ) -> Result<GoalEvaluation, StucError>
    where
        R: Representation<Query = ConjunctiveQuery> + ?Sized,
    {
        engine_metrics().evaluate_goal.instrument(
            "evaluate_goal",
            || self.run_goal_plan(representation, goal, rules),
            |_, _| {},
        )
    }
}

/// Parses a program for evaluation against an instance argument: inline
/// fact statements are rejected.
pub(crate) fn parse_text(src: &str) -> Result<ProgramAst, StucError> {
    let program = parse_program(src).map_err(LangError::from)?;
    let fact_count = program.facts().count();
    if fact_count > 0 {
        return Err(StucError::TextFacts { count: fact_count });
    }
    Ok(program)
}

/// A deterministic, float-free one-liner describing what lowering did —
/// golden-output friendly for the REPL.
pub(crate) fn lowering_note(lowered: &LoweredGoal) -> String {
    let mut parts = vec![format!(
        "lowered to {} inclusion-exclusion term(s) over {} conjunct(s)",
        lowered.terms.len(),
        lowered.disjunct_count
    )];
    if lowered.used_rules {
        parts.push("rules unfolded".to_string());
    }
    if lowered.has_negation {
        parts.push("ground negation expanded".to_string());
    }
    parts.join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendKind, BackendPolicy, EngineBuilder};
    use stuc_circuit::weights::Weights;
    use stuc_data::cinstance::{CInstance, PcInstance};
    use stuc_data::tid::TidInstance;
    use stuc_lang::cost::Route;

    fn one_fact_pc() -> PcInstance {
        let mut ci = CInstance::new();
        ci.add_fact_with_condition("R", &["a"], "e1").unwrap();
        let e1 = ci.events().find("e1").unwrap();
        let mut weights = Weights::new();
        weights.set(e1, 0.5);
        ci.with_probabilities(weights)
    }

    fn two_fact_tid() -> TidInstance {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 0.4);
        tid.add_fact_named("S", &["a", "b"], 0.5);
        tid
    }

    #[test]
    fn a_hierarchical_goal_takes_the_safe_plan_route() {
        let tid = two_fact_tid();
        let outcome = Engine::new()
            .evaluate_text(&tid, "?- R(x), S(x, y).")
            .unwrap();
        let goal = &outcome.goals[0];
        assert!((goal.probability - 0.2).abs() < 1e-9);
        assert_eq!(goal.report.route, Some(Route::SafePlan));
        assert_eq!(goal.report.backend, BackendKind::SafePlan);
        assert_eq!(goal.report.circuit_gates, 0);
    }

    #[test]
    fn a_self_join_takes_the_circuit_route() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "b"], 0.5);
        tid.add_fact_named("R", &["b", "c"], 0.5);
        let outcome = Engine::new()
            .evaluate_text(&tid, "?- R(x, y), R(y, z).")
            .unwrap();
        let goal = &outcome.goals[0];
        assert!((goal.probability - 0.25).abs() < 1e-9);
        assert_eq!(goal.report.route, Some(Route::Circuit));
        assert!(!goal.decision.safe_eligible);
    }

    #[test]
    fn rules_unfold_into_the_goal() {
        let tid = two_fact_tid();
        let outcome = Engine::new()
            .evaluate_text(&tid, "Both(x) :- R(x), S(x, y). ?- Both(x).")
            .unwrap();
        assert!((outcome.goals[0].probability - 0.2).abs() < 1e-9);
        assert!(outcome.goals[0]
            .report
            .notes
            .iter()
            .any(|n| n.contains("rules unfolded")));
    }

    #[test]
    fn text_evaluation_matches_the_programmatic_engine() {
        let tid = two_fact_tid();
        let engine = Engine::new();
        let text = engine.evaluate_text(&tid, "?- R(x); S(x, y).").unwrap();
        // P(R ∨ S) = 0.4 + 0.5 − 0.2 under independence.
        assert!((text.goals[0].probability - 0.7).abs() < 1e-9);
    }

    #[test]
    fn inline_facts_are_rejected() {
        let tid = two_fact_tid();
        let err = Engine::new()
            .evaluate_text(&tid, "0.5 :: R(\"a\"). ?- R(x).")
            .unwrap_err();
        assert!(matches!(err, StucError::TextFacts { count: 1 }));
        assert!(err.to_string().contains("program_instance"));
    }

    #[test]
    fn syntax_and_safety_errors_surface_as_lang_errors() {
        let tid = two_fact_tid();
        let engine = Engine::new();
        assert!(matches!(
            engine.evaluate_text(&tid, "?- R(x"),
            Err(StucError::Lang(LangError::Parse(_)))
        ));
        assert!(matches!(
            engine.evaluate_text(&tid, "?- R(x), !S(y, z)."),
            Err(StucError::Lang(LangError::Safety(_)))
        ));
    }

    #[test]
    fn a_pinned_safe_plan_policy_errors_on_non_extensional_representations() {
        let pc = one_fact_pc();
        let engine = EngineBuilder::default()
            .policy(BackendPolicy::Fixed(BackendKind::SafePlan))
            .build();
        let err = engine.evaluate_text(&pc, "?- R(x).").unwrap_err();
        assert!(matches!(err, StucError::BackendUnsupported { .. }));
    }

    #[test]
    fn non_extensional_representations_fall_back_to_circuits_under_auto() {
        let pc = one_fact_pc();
        let outcome = Engine::new().evaluate_text(&pc, "?- R(x).").unwrap();
        let goal = &outcome.goals[0];
        assert!((goal.probability - 0.5).abs() < 1e-9);
        assert_eq!(goal.report.route, Some(Route::Circuit));
    }

    #[test]
    fn multiple_goals_come_back_in_order() {
        let tid = two_fact_tid();
        let outcome = Engine::new()
            .evaluate_text(&tid, "?- R(x). ?- S(x, y). ?- Missing(x).")
            .unwrap();
        let probabilities = outcome.probabilities();
        assert!((probabilities[0] - 0.4).abs() < 1e-9);
        assert!((probabilities[1] - 0.5).abs() < 1e-9);
        assert!(probabilities[2].abs() < 1e-9);
        assert_eq!(outcome.len(), 3);
        assert!(!outcome.is_empty());
    }

    #[test]
    fn ground_negation_evaluates_by_inclusion_exclusion() {
        let tid = two_fact_tid();
        let outcome = Engine::new()
            .evaluate_text(&tid, "?- R(x), !S(\"a\", \"b\").")
            .unwrap();
        // P(R ∧ ¬S) = 0.4 · (1 − 0.5).
        assert!((outcome.goals[0].probability - 0.2).abs() < 1e-9);
        assert!(outcome.goals[0]
            .report
            .notes
            .iter()
            .any(|n| n.contains("ground negation expanded")));
    }

    #[test]
    fn a_cached_goal_reports_its_lineage_as_cached() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a", "b"], 0.5);
        tid.add_fact_named("R", &["b", "c"], 0.5);
        let engine = Engine::new();
        let cold = engine.evaluate_text(&tid, "?- R(x, y), R(y, z).").unwrap();
        assert!(!cold.goals[0].report.lineage_cached);
        let warm = engine.evaluate_text(&tid, "?- R(x, y), R(y, z).").unwrap();
        assert!(warm.goals[0].report.lineage_cached);
        assert!(warm.goals[0].decision.cached_lineage);
        assert!((cold.goals[0].probability - warm.goals[0].probability).abs() < 1e-12);
    }
}
