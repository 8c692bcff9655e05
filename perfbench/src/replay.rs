//! Per-layer replay of one goal evaluation through public functions.
//!
//! The program is not instrumented. Instead, after the real call (whose
//! span is `engine.goal`), the benchmark calls the public function behind
//! each step of the same evaluation, inside an `engine.replay` span, in
//! the order the engine performs them at this revision:
//!
//! * `lang.parse` (text entry point only), `lang.lower`, `lang.route`;
//! * one `engine.identity_hash` per term for the cost model's cache probe;
//! * on the circuit route, per term: one `engine.identity_hash` for the
//!   lineage-cache lookup; on a lineage miss also `data.structure_graph`,
//!   one `engine.identity_hash` for the decomposition key, `graph.validate`
//!   (decomposition cached) or `graph.decompose`, `automata.lineage`,
//!   `circuit.simplify`, `circuit.compile` and `circuit.plan`; then
//!   `data.weights` and `circuit.sweep`;
//! * on the safe-plan route, per term: `engine.safe_plan`.
//!
//! `engine.unattributed_ms` is the goal's time minus what the replayed
//! calls took: time the public surface cannot account for, shown as its
//! own line.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_core::engine::{
    Backend, CircuitExplanation, Engine, EvaluationTask, GoalEvaluation, Representation,
    SafePlanBackend,
};
use stuc_data::tid::TidInstance;
use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc_lang::ast::UnionAst;
use stuc_lang::cost::{CostModel, Route};
use stuc_lang::lower::lower_goal;
use stuc_lang::parse_program;
use stuc_query::cq::ConjunctiveQuery;

use crate::trace::Tracer;

/// The engine's default heuristic and width budget (`EngineBuilder`
/// defaults), which every engine in this benchmark uses.
pub const HEURISTIC: EliminationHeuristic = EliminationHeuristic::MinDegree;
pub const WIDTH_BUDGET: usize = 22;

/// What the real call did, as far as its public result says.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub route: Route,
    pub lineage_cached: bool,
    pub decomposition_cached: bool,
}

impl From<&GoalEvaluation> for Observed {
    fn from(goal: &GoalEvaluation) -> Observed {
        Observed {
            route: goal.decision.route,
            lineage_cached: goal.report.lineage_cached,
            decomposition_cached: goal.report.decomposition_cached,
        }
    }
}

/// Per-operation count samples, reported as means.
#[derive(Debug, Default)]
pub struct Counts(BTreeMap<&'static str, Vec<f64>>);

impl Counts {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| crate::stats::mean(v))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

/// Replays goals and keeps compiled copies of warm lineages, so a warm
/// replay times only the sweep.
#[derive(Debug, Default)]
pub struct Replayer {
    warm: HashMap<String, Arc<CompiledCircuit>>,
    pub counts: Counts,
}

/// A compiled copy of the engine's cached lineage for `query`.
fn compiled_copy(
    engine: &Engine,
    tid: &TidInstance,
    query: &ConjunctiveQuery,
) -> Arc<CompiledCircuit> {
    let source = engine
        .lineage(tid, query)
        .expect("lineage of a served term");
    let compiled = CompiledCircuit::compile(Arc::new(source), HEURISTIC).expect("compile");
    let _ = compiled.try_sweep_plan();
    Arc::new(compiled)
}

impl Replayer {
    /// Runs the real goal `call` inside an `engine.goal` span and records
    /// its lineage-cache lookups and hits from `Engine::cache_stats`.
    pub fn goal_call<T>(&mut self, t: &mut Tracer, engine: &Engine, call: impl FnOnce() -> T) -> T {
        let before = engine.cache_stats().lineages;
        let out = t.span("engine.goal", |_| call());
        let after = engine.cache_stats().lineages;
        let lookups = after.hits + after.misses - before.hits - before.misses;
        self.counts
            .push("engine.lineage_lookups_per_goal", lookups as f64);
        self.counts
            .push("engine.lineage_hits", (after.hits - before.hits) as f64);
        out
    }

    /// Forgets warm copies (after the instance changed).
    pub fn forget_warm(&mut self) {
        self.warm.clear();
    }

    /// Replays one goal evaluated by `engine` on `tid`. `body` is the
    /// program text when the real call parsed it (`evaluate_text`).
    pub fn goal(
        &mut self,
        tracer: &mut Tracer,
        engine: &Engine,
        tid: &TidInstance,
        body: Option<&str>,
        goal: &UnionAst,
        observed: Observed,
    ) {
        let lowered = lower_goal(goal, &[]).expect("lowered goal");
        let terms: Vec<ConjunctiveQuery> = lowered
            .terms
            .iter()
            .filter_map(|t| t.query.clone())
            .collect();
        self.counts.push("lang.terms_per_goal", terms.len() as f64);
        let circuit = observed.route == Route::Circuit;
        let warm: Vec<Option<Arc<CompiledCircuit>>> = terms
            .iter()
            .map(|q| {
                (circuit && observed.lineage_cached).then(|| {
                    Arc::clone(
                        self.warm
                            .entry(format!("{q:?}"))
                            .or_insert_with(|| compiled_copy(engine, tid, q)),
                    )
                })
            })
            .collect();
        let decomposition =
            (circuit && !observed.lineage_cached).then(|| engine.decomposition_for(tid).0);
        let mut raw_gates = 0usize;

        tracer.span("engine.replay", |t| {
            if let Some(body) = body {
                t.span("lang.parse", |_| parse_program(body).expect("parsed body"));
            }
            let lowered = t.span("lang.lower", |_| lower_goal(goal, &[]).expect("lowered"));
            t.span("lang.route", |_| {
                let stats = tid.relation_stats().unwrap_or_default();
                CostModel::default().choose(&lowered, &stats, observed.lineage_cached)
            });
            for _ in &terms {
                t.span("engine.identity_hash", |_| Representation::fingerprint(tid));
            }
            for (query, warm) in terms.iter().zip(&warm) {
                if !circuit {
                    t.span("engine.safe_plan", |_| {
                        SafePlanBackend
                            .solve(&EvaluationTask::Extensional { tid, query })
                            .expect("safe plan")
                    });
                    continue;
                }
                t.span("engine.identity_hash", |_| Representation::fingerprint(tid));
                let compiled = match warm {
                    Some(compiled) => Arc::clone(compiled),
                    None => {
                        let decomposition = decomposition.as_ref().expect("cold term");
                        let graph = t.span("data.structure_graph", |_| tid.structure_graph());
                        t.span("engine.identity_hash", |_| Representation::fingerprint(tid));
                        if observed.decomposition_cached {
                            t.span("graph.validate", |_| decomposition.validate(&graph).is_ok());
                        } else {
                            t.span("graph.decompose", |_| {
                                decompose_with_heuristic(&graph, HEURISTIC)
                            });
                        }
                        let outcome = t.span("automata.lineage", |_| {
                            tid.lineage(query, decomposition).expect("lineage")
                        });
                        raw_gates += outcome.circuit.len();
                        let simplified = t.span("circuit.simplify", |_| {
                            outcome.circuit.simplify().expect("simplify")
                        });
                        let compiled = t.span("circuit.compile", |_| {
                            CompiledCircuit::compile(Arc::new(simplified), HEURISTIC)
                                .expect("compile")
                        });
                        t.span("circuit.plan", |_| compiled.try_sweep_plan().is_ok());
                        Arc::new(compiled)
                    }
                };
                let weights = t.span("data.weights", |_| tid.weights().expect("weights"));
                t.span("circuit.sweep", |_| {
                    compiled.probability(&weights, WIDTH_BUDGET).ok()
                });
            }
        });
        if let Some(decomposition) = decomposition {
            self.counts.push("automata.raw_gates", raw_gates as f64);
            self.counts
                .push("graph.width", decomposition.width() as f64);
        }
    }

    /// Times `Engine::evaluate` once per lowered term of `goal`.
    pub fn term_evals(
        &self,
        tracer: &mut Tracer,
        engine: &Engine,
        tid: &TidInstance,
        goal: &UnionAst,
    ) {
        let lowered = lower_goal(goal, &[]).expect("lowered goal");
        for term in lowered.terms.iter().filter_map(|t| t.query.as_ref()) {
            tracer.span("engine.term_eval", |_| engine.evaluate(tid, term).ok());
        }
    }

    /// Records the compiled-circuit shape of `goal` as `Engine::explain`
    /// reports it (0 for goals that compile no circuit).
    pub fn circuit_shape(&mut self, engine: &Engine, tid: &TidInstance, goal: &UnionAst) {
        let circuit = explained_circuit(engine, tid, goal);
        self.counts
            .push("circuit.gates", circuit.map_or(0, |c| c.gates) as f64);
        self.counts
            .push("circuit.width", circuit.map_or(0, |c| c.width) as f64);
        self.counts.push(
            "circuit.table_entries",
            circuit.and_then(|c| c.sweep).map_or(0, |s| s.table_entries) as f64,
        );
    }

    /// Width of the circuit `explain` reports for `goal` (0 when none).
    pub fn width_of(engine: &Engine, tid: &TidInstance, goal: &UnionAst) -> usize {
        explained_circuit(engine, tid, goal).map_or(0, |c| c.width)
    }
}

fn explained_circuit(
    engine: &Engine,
    tid: &TidInstance,
    goal: &UnionAst,
) -> Option<CircuitExplanation> {
    engine
        .explain_goal(tid, goal, &[])
        .ok()
        .and_then(|e| e.circuit)
}
