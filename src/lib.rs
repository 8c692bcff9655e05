//! # STUC — Structurally Tractable Uncertain Data
//!
//! Umbrella crate re-exporting the whole STUC workspace behind one façade.
//!
//! STUC is a reproduction of the system described in *"Structurally Tractable
//! Uncertain Data"* (Amarilli, SIGMOD 2015 PhD symposium): exact query
//! evaluation (possibility, certainty, probability) on uncertain data whose
//! *structure* — bounded treewidth of the instance together with its
//! uncertainty annotations — makes the problem tractable, even though it is
//! `#P`-hard on arbitrary inputs.
//!
//! The one public entry point is [`Engine`]: it evaluates Boolean queries on
//! **every** uncertain representation in the workspace (tuple-independent
//! instances, c-/pc-/pcc-instances, probabilistic XML) through the
//! [`core::engine::Representation`] trait, automatically selecting among
//! four pluggable back-ends (extensional safe plan, treewidth weighted model
//! counting, DPLL, enumeration) and reporting which one actually ran.
//!
//! The workspace is organised as one crate per subsystem:
//!
//! * [`graph`] — graphs, tree decompositions, treewidth heuristics.
//! * [`circuit`] — Boolean/provenance circuits, semirings, exact probability
//!   computation (weighted model counting by message passing).
//! * [`data`] — relational instances and their uncertain variants
//!   (TID, c-instances, pc-instances, pcc-instances).
//! * [`query`] — conjunctive queries, relational algebra, lineage, the safe
//!   extensional baseline.
//! * [`lang`] — the textual datalog/UCQ front-end: lexer, parser, safety
//!   analysis, lowering to signed sums of conjunctive queries, and the
//!   cost model behind [`Engine::evaluate_text`]. The `stuc-repl` binary
//!   wraps it interactively.
//! * [`automata`] — the Courcelle-style run of a conjunctive query over a
//!   tree decomposition, producing its lineage circuit.
//! * [`prxml`] — probabilistic XML (`ind`/`mux`/`cie` nodes, global events,
//!   event scopes).
//! * [`order`] — order-uncertain data: labeled partial orders and the
//!   positive relational algebra with bag semantics.
//! * [`rules`] — probabilistic existential rules and the chase.
//! * [`cond`] — conditioning uncertain data and crowd question selection.
//! * [`incr`] — incremental updates: typed [`Delta`] transactions, the
//!   [`Updatable`] trait, delta-join match enumeration, replayable update
//!   logs. [`Engine::apply_update`] wires them to the engine caches.
//! * [`infer`] — posterior inference on compiled lineages: all-fact
//!   marginals in one backward sweep ([`Engine::marginals`]), exact world
//!   sampling ([`Engine::sample_worlds`]), and max-product
//!   most-probable-world ([`Engine::most_probable_world`]).
//! * [`obs`] — zero-dependency observability: the process-global metrics
//!   registry behind `GET /metrics`, the span tracer behind
//!   `--trace-out`/[`Engine::with_tracing`], staged timers, and the
//!   slow-query log.
//! * [`fault`] — fault tolerance primitives: cooperative evaluation
//!   budgets (deadlines + cancellation, [`EvalBudget`]) polled at engine
//!   checkpoints, and the compile-time-gated failpoint registry behind
//!   the chaos suite (`--features fault-injection`).
//! * [`core`] — the unified [`core::engine`], the HTTP service and the
//!   shared workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use stuc::Engine;
//! use stuc::data::tid::TidInstance;
//! use stuc::query::cq::ConjunctiveQuery;
//!
//! // A tiny path-shaped TID instance: R(a,b) with prob 0.5, R(b,c) with prob 0.5.
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a", "b"], 0.5);
//! tid.add_fact_named("R", &["b", "c"], 0.5);
//!
//! // Query: does some R-path of length 2 exist?
//! let q = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
//!
//! // One engine, every representation, back-end picked automatically.
//! let engine = Engine::new();
//! let report = engine.evaluate(&tid, &q).unwrap();
//! assert!((report.probability - 0.25).abs() < 1e-9);
//! assert_eq!(report.backend_name(), "treewidth-wmc"); // self-join ⇒ no safe plan
//! ```
//!
//! The same engine evaluates a pcc-instance (Theorem 2) or a probabilistic
//! XML document — only the representation and query types change:
//!
//! ```
//! use stuc::Engine;
//! use stuc::prxml::document::PrXmlDocument;
//! use stuc::prxml::queries::PrxmlQuery;
//!
//! let doc = PrXmlDocument::figure1_example();
//! let report = Engine::new()
//!     .evaluate(&doc, &PrxmlQuery::LabelExists("musician".into()))
//!     .unwrap();
//! assert!(report.probability > 0.0);
//! ```
//!
//! ## Textual queries
//!
//! The same evaluation is available from text through the [`lang`] front-end
//! ([`Engine::evaluate_text`]): programs may define non-recursive rules,
//! goals may use unions and ground negation, and a cost model routes each
//! goal to the safe plan or the compiled circuit:
//!
//! ```
//! use stuc::Engine;
//! use stuc::data::tid::TidInstance;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a"], 0.4);
//! tid.add_fact_named("S", &["a", "b"], 0.5);
//!
//! let outcome = Engine::new()
//!     .evaluate_text(&tid, "Both(x) :- R(x), S(x, y).  ?- Both(x).")
//!     .unwrap();
//! assert!((outcome.goals[0].probability - 0.2).abs() < 1e-9);
//! ```

pub use stuc_automata as automata;
pub use stuc_circuit as circuit;
pub use stuc_cond as cond;
pub use stuc_core as core;
pub use stuc_data as data;
pub use stuc_fault as fault;
pub use stuc_graph as graph;
pub use stuc_incr as incr;
pub use stuc_infer as infer;
pub use stuc_lang as lang;
pub use stuc_obs as obs;
pub use stuc_order as order;
pub use stuc_prxml as prxml;
pub use stuc_query as query;
pub use stuc_rules as rules;

pub use stuc_core::engine::{
    Backend, BackendKind, BackendPolicy, BatchReport, BudgetError, CacheCounters, CacheExplanation,
    CacheSideExplanation, CancelHandle, CircuitExplanation, Delta, DeltaOp, Engine, EngineBuilder,
    EngineCacheStats, EvalBudget, EvaluationReport, ExplainOutcome, GoalEvaluation,
    InferenceReport, Marginals, MostProbableWorld, QueryExplanation, ReprKind, Representation,
    RouteExplanation, SafePlanEligibility, SampledWorlds, StucError, SweepPlanStats,
    TextEvaluation, Updatable, UpdateLog, UpdateReport, World, WorldSampler,
};
pub use stuc_core::serve;
pub use stuc_lang::{LangError, ParseError};
