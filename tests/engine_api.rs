//! Integration tests for the unified engine: `Engine::evaluate` works on
//! every uncertain representation (TID, c-instance, pc-instance,
//! pcc-instance, PrXML), the `EvaluationReport` names the back-end that
//! actually ran, and every per-crate error converts into `StucError`.

use std::sync::Arc;
use stuc::circuit::circuit::VarId;
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::enumeration::probability_by_enumeration;
use stuc::circuit::plan::MAX_PLANNED_BAG;
use stuc::circuit::weights::Weights;
use stuc::circuit::wmc::WmcError;
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::data::pcc::PccInstance;
use stuc::data::worlds;
use stuc::infer::InferError;
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::{query_probability_by_enumeration, PrxmlQuery};
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::lineage::cinstance_lineage;
use stuc::{BackendKind, BackendPolicy, Engine, ReprKind, Representation, StucError};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn engine_evaluates_tid_instances_and_names_the_backend() {
    let engine = Engine::new();
    let tid = workloads::path_tid(8, 0.5, 11);

    // Self-join query: the safe plan is impossible, treewidth WMC runs.
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let report = engine.evaluate(&tid, &self_join).unwrap();
    assert_eq!(report.backend, BackendKind::TreewidthWmc);
    assert_eq!(report.backend_name(), "treewidth-wmc");
    assert!(report.decomposition_width.is_some());
    assert!(report.circuit_gates > 0);
    let brute = Engine::builder()
        .backend(BackendKind::Enumeration)
        .build()
        .evaluate(&tid, &self_join)
        .unwrap();
    assert_eq!(brute.backend, BackendKind::Enumeration);
    assert!(close(report.probability, brute.probability));

    // Hierarchical query: the extensional safe plan runs, no circuit at all.
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let fast = engine.evaluate(&tid, &hierarchical).unwrap();
    assert_eq!(fast.backend, BackendKind::SafePlan);
    assert_eq!(fast.backend_name(), "safe-plan");
    assert_eq!(fast.circuit_gates, 0);
    assert_eq!(fast.decomposition_width, None);
    let reference = Engine::builder()
        .backend(BackendKind::Dpll)
        .build()
        .evaluate(&tid, &hierarchical)
        .unwrap();
    assert_eq!(reference.backend, BackendKind::Dpll);
    assert!(close(fast.probability, reference.probability));
}

#[test]
fn engine_evaluates_cinstances_under_the_uniform_distribution() {
    // A plain c-instance has no probabilities: the engine evaluates the
    // fraction of event valuations satisfying the query (possibility /
    // certainty semantics — every event uniform at 1/2).
    let ci = CInstance::table1_example();
    let query = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();
    let report = Engine::new().evaluate(&ci, &query).unwrap();
    assert_eq!(Representation::kind(&ci), ReprKind::CInstance);

    let lineage = cinstance_lineage(&ci, &query);
    let uniform = Weights::uniform(lineage.variables(), 0.5);
    let reference = probability_by_enumeration(&lineage, &uniform).unwrap();
    assert!(close(report.probability, reference));
    assert!(report.is_possible());
    assert!(!report.is_certain());
}

#[test]
fn engine_evaluates_pc_instances_with_real_probabilities() {
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);
    let pc = ci.with_probabilities(weights);

    let query = ConjunctiveQuery::parse(
        "Trip(\"Paris_CDG\", \"Melbourne_MEL\"), Trip(\"Melbourne_MEL\", \"Paris_CDG\")",
    )
    .unwrap();
    let report = Engine::new().evaluate(&pc, &query).unwrap();
    // Round trip needs pods (outbound) and pods ∧ ¬stoc (return).
    assert!(close(report.probability, 0.8 * 0.7));

    // Cross-check against explicit possible-world enumeration.
    let cdg = pc.instance().find_constant("Paris_CDG").unwrap();
    let mel = pc.instance().find_constant("Melbourne_MEL").unwrap();
    let reference = worlds::query_probability(&pc, |facts| {
        let has = |a, b| {
            facts.iter().any(|&f| {
                let fact = pc.instance().fact(f);
                fact.args.first() == Some(&a) && fact.args.get(1) == Some(&b)
            })
        };
        has(cdg, mel) && has(mel, cdg)
    })
    .unwrap();
    assert!(close(report.probability, reference));
}

#[test]
fn engine_evaluates_pcc_instances_with_correlated_annotations() {
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
    for seed in 0..3 {
        let pcc = workloads::contributor_pcc(6, 3, 0.8, 0.9, seed);
        let report = engine.evaluate(&pcc, &query).unwrap();
        assert!(
            matches!(
                report.backend,
                BackendKind::TreewidthWmc | BackendKind::Dpll
            ),
            "unexpected backend {}",
            report.backend_name()
        );
        assert!(report.decomposition_width.is_some());
        let reference = workloads::pcc_query_probability_by_enumeration(&pcc, &query);
        assert!(close(report.probability, reference), "seed {seed}");
    }
}

#[test]
fn engine_evaluates_prxml_documents() {
    let doc = PrXmlDocument::figure1_example();
    let engine = Engine::new();
    for query in [
        PrxmlQuery::LabelExists("musician".into()),
        PrxmlQuery::LabelExists("Crescent".into()),
        PrxmlQuery::AncestorDescendant {
            ancestor: "occupation".into(),
            descendant: "musician".into(),
        },
    ] {
        let report = engine.evaluate(&doc, &query).unwrap();
        let reference = query_probability_by_enumeration(&doc, &query).unwrap();
        assert!(
            close(report.probability, reference),
            "{query:?}: {} vs {reference}",
            report.probability
        );
        assert!(
            matches!(
                report.backend,
                BackendKind::TreewidthWmc | BackendKind::Dpll
            ),
            "unexpected backend {}",
            report.backend_name()
        );
    }
}

#[test]
fn one_engine_serves_all_four_representations() {
    // The acceptance scenario spelled out: a single engine value evaluates
    // four different formalisms, and each report names the back-end that ran.
    let engine = Engine::new();

    let tid = workloads::path_tid(5, 0.5, 1);
    let cq = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let tid_report = engine.evaluate(&tid, &cq).unwrap();

    let ci = CInstance::table1_example();
    let ci_report = engine
        .evaluate(&ci, &ConjunctiveQuery::parse("Trip(x, y)").unwrap())
        .unwrap();

    let pcc = workloads::contributor_pcc(5, 2, 0.7, 0.9, 9);
    let pcc_report = engine
        .evaluate(&pcc, &ConjunctiveQuery::parse("Claim(x, y)").unwrap())
        .unwrap();

    let doc = PrXmlDocument::figure1_example();
    let doc_report = engine
        .evaluate(&doc, &PrxmlQuery::LabelExists("Manning".into()))
        .unwrap();

    for report in [&tid_report, &ci_report, &pcc_report, &doc_report] {
        assert!(!report.backend_name().is_empty());
        assert!((0.0..=1.0 + 1e-12).contains(&report.probability));
    }
    // Four structure decompositions cached (one per representation).
    assert_eq!(engine.cached_decompositions(), 4);
}

#[test]
fn every_layer_error_converts_into_stuc_error() {
    // Query parse error (stuc-query).
    let parse_error: StucError = ConjunctiveQuery::parse("not a query!!").unwrap_err().into();
    assert!(matches!(parse_error, StucError::QueryParse(_)));

    // Safe-plan refusal (stuc-query) through a fixed-backend engine.
    let tid = workloads::rst_path_tid(4, 0.5, 5);
    let unsafe_query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
    let engine = Engine::builder().backend(BackendKind::SafePlan).build();
    assert!(matches!(
        engine.evaluate(&tid, &unsafe_query),
        Err(StucError::SafePlan(_))
    ));

    // Width refusal (stuc-circuit) through a fixed treewidth engine with a
    // budget nothing fits into.
    let wide = workloads::rst_bipartite_tid(4, 0.5, 3);
    let engine = Engine::builder()
        .backend(BackendKind::TreewidthWmc)
        .width_budget(1)
        .build();
    assert!(matches!(
        engine.evaluate(&wide, &unsafe_query),
        Err(StucError::Wmc(_))
    ));

    // Enumeration refusal (stuc-circuit): too many variables.
    let big = workloads::path_tid(40, 0.5, 1);
    let engine = Engine::builder().backend(BackendKind::Enumeration).build();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    assert!(matches!(
        engine.evaluate(&big, &query),
        Err(StucError::Enumeration(_))
    ));
}

#[test]
fn missing_probabilities_are_reported_not_miscomputed() {
    let ci = CInstance::table1_example();
    // A pc-instance with *no* weights at all: evaluating must fail loudly.
    let pc = ci.with_probabilities(Weights::new());
    let query = ConjunctiveQuery::parse("Trip(x, y)").unwrap();
    match Engine::new().evaluate(&pc, &query) {
        Err(StucError::MissingProbabilities { representation }) => {
            assert_eq!(representation, "pc-instance");
        }
        other => panic!("expected MissingProbabilities, got {other:?}"),
    }
}

#[test]
fn tid_backends_all_agree_on_the_paper_hard_query() {
    let tid = workloads::rst_path_tid(6, 0.5, 7);
    let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
    let auto = Engine::new().evaluate(&tid, &query).unwrap();
    for kind in [
        BackendKind::TreewidthWmc,
        BackendKind::Dpll,
        BackendKind::Enumeration,
    ] {
        let pinned = Engine::builder().backend(kind).build();
        let report = pinned.evaluate(&tid, &query).unwrap();
        assert_eq!(report.backend, kind);
        assert!(
            close(auto.probability, report.probability),
            "{}: {} vs {}",
            kind,
            report.probability,
            auto.probability
        );
    }
}

/// One fact `R(a)` annotated with `(e_i ∨ e_j)` for every pair of `n`
/// events of probability `p`: its lineage's circuit graph holds an
/// `n`-clique over the events (width ≥ n − 1), yet DPLL settles it in
/// O(n²) branches.
fn pairwise_pcc(n: usize, p: f64) -> PccInstance {
    let mut pcc = PccInstance::new();
    let circuit = pcc.annotation_circuit_mut();
    let events: Vec<_> = (0..n).map(|i| circuit.add_input(VarId(i))).collect();
    // A chain of binary ANDs keeps the joint instance + annotation graph
    // free of a clique over all the pairs.
    let mut all = circuit.add_const(true);
    for i in 0..n {
        for j in i + 1..n {
            let pair = circuit.add_or(vec![events[i], events[j]]);
            all = circuit.add_and(vec![all, pair]);
        }
    }
    pcc.add_fact_with_gate("R", &["a"], all);
    for i in 0..n {
        pcc.probabilities_mut().set(VarId(i), p);
    }
    pcc
}

#[test]
fn width_budgets_above_the_plan_cap_behave_like_the_cap() {
    let n = MAX_PLANNED_BAG + 2;
    let pcc = pairwise_pcc(n, 0.9);
    let query = ConjunctiveQuery::parse("R(x)").unwrap();
    let capped = |e: &WmcError| matches!(e, WmcError::WidthTooLarge { limit, .. } if *limit == MAX_PLANNED_BAG);

    // Every sweep refuses at the cap, before planning, whatever the budget.
    let lineage = Engine::new().lineage(&pcc, &query).unwrap();
    let compiled = CompiledCircuit::compile(Arc::new(lineage), Default::default()).unwrap();
    assert!(compiled.width() + 1 > MAX_PLANNED_BAG);
    let weights = pcc.probabilities();
    assert!(capped(&compiled.run(weights, 40).unwrap_err()));
    assert!(capped(
        &compiled
            .run_many(std::slice::from_ref(weights), 40)
            .unwrap_err()
    ));
    match stuc::infer::marginals(&compiled, weights, 40) {
        Err(InferError::Wmc(e)) => assert!(capped(&e), "{e}"),
        other => panic!("marginals over the cap: {other:?}"),
    }
    assert!(!compiled.is_planned(), "refused without planning");

    // An engine budget above the cap routes exactly like the cap itself:
    // Auto falls back to DPLL, a pinned treewidth back-end refuses.
    let engine = |policy, budget| {
        Engine::builder()
            .policy(policy)
            .width_budget(budget)
            .build()
    };
    let auto = BackendPolicy::Auto;
    let (at_cap, above) = (
        engine(auto, MAX_PLANNED_BAG)
            .evaluate(&pcc, &query)
            .unwrap(),
        engine(auto, 40).evaluate(&pcc, &query).unwrap(),
    );
    assert_eq!(above.backend, BackendKind::Dpll);
    assert_eq!(above.backend, at_cap.backend);
    assert_eq!(above.notes, at_cap.notes);
    assert_eq!(above.probability.to_bits(), at_cap.probability.to_bits());
    // P(at most one event false).
    let expected = 0.9f64.powi(n as i32) + n as f64 * 0.1 * 0.9f64.powi(n as i32 - 1);
    assert!(close(above.probability, expected));

    let pinned = BackendPolicy::Fixed(BackendKind::TreewidthWmc);
    let (at_cap, above) = (
        engine(pinned, MAX_PLANNED_BAG)
            .evaluate(&pcc, &query)
            .unwrap_err(),
        engine(pinned, 40).evaluate(&pcc, &query).unwrap_err(),
    );
    assert!(matches!(&above, StucError::Wmc(e) if capped(e)), "{above}");
    assert_eq!(above.to_string(), at_cap.to_string());
    let inference = engine(auto, 40).marginals(&pcc, &query).unwrap_err();
    assert!(
        matches!(&inference, StucError::Infer(InferError::Wmc(e)) if capped(e)),
        "{inference}"
    );
}

/// A user-defined representation whose decomposition-cache key collides
/// with every other instance of it: `fingerprint` is a constant, while the
/// default `identity` (the `Debug` rendering) still tells instances apart.
#[derive(Debug)]
struct Colliding(stuc::data::tid::TidInstance);

impl Representation for Colliding {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::Tid
    }

    fn fact_count(&self) -> usize {
        self.0.fact_count()
    }

    fn structure_graph(&self) -> Arc<stuc::graph::graph::Graph> {
        self.0.structure_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        decomposition: &stuc::graph::TreeDecomposition,
    ) -> Result<stuc::core::engine::LineageOutcome, StucError> {
        self.0.lineage(query, decomposition)
    }

    fn weights(&self) -> Result<std::borrow::Cow<'_, Weights>, StucError> {
        self.0.weights()
    }

    fn fingerprint(&self) -> u64 {
        7
    }
}

/// A fingerprint collision in the decomposition cache degrades to a
/// recomputation, never to a wrong width or answer: two structurally
/// different instances under one cache key, alternated over cold goals,
/// each get their own decomposition width and their own probability.
#[test]
fn decomposition_fingerprint_collisions_degrade_to_recomputation() {
    let relabelled = |order: &[usize], closed: bool| {
        let mut tid = stuc::data::tid::TidInstance::new();
        // Unary facts first, so both instances number the constants alike.
        for c in 0..order.len() {
            tid.add_fact_named("S", &[&format!("c{c}")], 0.5);
        }
        let mut links: Vec<(usize, usize)> = order.windows(2).map(|w| (w[0], w[1])).collect();
        if closed {
            links.push((order[order.len() - 1], order[0]));
        }
        for (i, (a, b)) in links.into_iter().enumerate() {
            let p = 0.3 + 0.05 * i as f64;
            tid.add_fact_named("R", &[&format!("c{a}"), &format!("c{b}")], p);
        }
        Colliding(tid)
    };
    // A width-1 path and a width-2 cycle over the same eight constants,
    // sharing no link: the cycle's decomposition adds five fill edges, too
    // few to cover the path's seven, so neither decomposition fits the
    // other.
    let path = relabelled(&[0, 1, 2, 3, 4, 5, 6, 7], false);
    let cycle = relabelled(&[0, 4, 1, 5, 2, 6, 3, 7], true);
    let own = |r: &Colliding| Engine::new().decomposition_for(r).0;
    let (path_td, cycle_td) = (own(&path), own(&cycle));
    assert!(path_td.validate(&cycle.structure_graph()).is_err());
    assert!(cycle_td.validate(&path.structure_graph()).is_err());
    assert_eq!((path_td.width(), cycle_td.width()), (1, 2));

    let engine = Engine::builder().without_lineage_cache().build();
    let queries = ["R(x, y), R(y, z)", "R(x, y), R(y, z), R(z, w)"];
    for round in 0..3 {
        for (name, representation, width) in [("path", &path, 1), ("cycle", &cycle, 2)] {
            let query = ConjunctiveQuery::parse(queries[round % 2]).unwrap();
            let report = engine.evaluate(representation, &query).unwrap();
            assert_eq!(
                report.decomposition_width,
                Some(width),
                "{name}, round {round}"
            );
            assert!(!report.lineage_cached);
            let expected = probability_by_enumeration(
                &stuc::query::lineage::tid_lineage(&representation.0, &query),
                &representation.0.fact_weights(),
            )
            .unwrap();
            assert!(close(report.probability, expected), "{name}, round {round}");
        }
    }
    assert_eq!(
        engine.cached_decompositions(),
        1,
        "one key, replaced on every miss"
    );
}
