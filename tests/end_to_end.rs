//! Cross-crate integration tests: the full pipelines of the paper exercised
//! through the public façade, with all back-ends cross-checked against each
//! other and against explicit possible-world semantics.

use stuc::circuit::compiled::one_shot_probability;
use stuc::circuit::weights::Weights;
use stuc::cond::conditioning::conditioned_query_probability;
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::data::instance::FactId;
use stuc::data::tid::TidInstance;
use stuc::data::worlds;
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::{query_probability, query_probability_by_enumeration, PrxmlQuery};
use stuc::query::cq::ConjunctiveQuery;
use stuc::query::lineage::cinstance_lineage;
use stuc::rules::chase::ProbabilisticChase;
use stuc::rules::rule::Rule;
use stuc::{BackendKind, Engine};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn figure1_probabilities_match_paper_annotations() {
    // The three headline numbers implied by Figure 1: 0.4 (ind occupation),
    // 0.6 / 0.4 (mux given name), 0.9 (eJane correlating two facts).
    let doc = PrXmlDocument::figure1_example();
    let cases = [
        (PrxmlQuery::LabelExists("musician".into()), 0.4),
        (PrxmlQuery::LabelExists("Chelsea".into()), 0.6),
        (PrxmlQuery::LabelExists("Bradley".into()), 0.4),
        (
            PrxmlQuery::And(
                Box::new(PrxmlQuery::LabelExists("place of birth".into())),
                Box::new(PrxmlQuery::LabelExists("surname".into())),
            ),
            0.9,
        ),
    ];
    for (query, expected) in cases {
        let tractable = query_probability(&doc, &query).unwrap();
        let naive = query_probability_by_enumeration(&doc, &query).unwrap();
        assert!(
            close(tractable, expected),
            "{query:?}: {tractable} vs {expected}"
        );
        assert!(close(tractable, naive));
    }
}

#[test]
fn table1_full_workflow_possibility_certainty_probability() {
    let ci = CInstance::table1_example();
    // Possibility / certainty through explicit worlds.
    assert!(worlds::is_possible(&ci, |facts| facts.is_empty()).unwrap());
    assert!(!worlds::is_certain(&ci, |facts| !facts.is_empty()).unwrap());

    // Probability through the lineage + treewidth back-end, cross-checked
    // against world enumeration.
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);
    let query = ConjunctiveQuery::parse("Trip(\"Paris_CDG\", x)").unwrap();
    let lineage = cinstance_lineage(&ci, &query);
    let p = one_shot_probability(&lineage, &weights).unwrap();

    let pc = ci.clone().with_probabilities(weights);
    let cdg = pc.instance().find_constant("Paris_CDG").unwrap();
    let reference = worlds::query_probability(&pc, |facts| {
        facts
            .iter()
            .any(|&f| pc.instance().fact(f).args.first() == Some(&cdg))
    })
    .unwrap();
    assert!(close(p, reference));
    assert!(close(p, 0.86));
}

#[test]
fn theorem1_pipeline_agrees_with_all_baselines() {
    let engine = Engine::new();
    let dpll = Engine::builder().backend(BackendKind::Dpll).build();
    let brute_force = Engine::builder().backend(BackendKind::Enumeration).build();
    let queries = [
        ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap(),
        ConjunctiveQuery::parse("R(x, y)").unwrap(),
    ];
    for seed in 0..3 {
        let tid = workloads::path_tid(10, 0.4, seed);
        for query in &queries {
            let exact = engine.evaluate(&tid, query).unwrap().probability;
            let dpll = dpll.evaluate(&tid, query).unwrap().probability;
            let brute = brute_force.evaluate(&tid, query).unwrap().probability;
            assert!(close(exact, dpll), "seed {seed}: {exact} vs {dpll}");
            assert!(close(exact, brute), "seed {seed}: {exact} vs {brute}");
        }
    }
}

#[test]
fn unsafe_query_tractable_on_tree_data_and_matches_ground_truth() {
    let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
    let tid = workloads::rst_path_tid(5, 0.5, 2);
    // The safe-plan back-end refuses; the engine still answers exactly.
    let safe_plan = Engine::builder().backend(BackendKind::SafePlan).build();
    assert!(safe_plan.evaluate(&tid, &query).is_err());
    let report = Engine::new().evaluate(&tid, &query).unwrap();
    assert_eq!(report.backend, BackendKind::TreewidthWmc);
    let brute = Engine::builder()
        .backend(BackendKind::Enumeration)
        .build()
        .evaluate(&tid, &query)
        .unwrap()
        .probability;
    assert!(close(report.probability, brute));
}

#[test]
fn theorem2_pcc_pipeline_matches_enumeration() {
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
    for seed in 0..3 {
        let pcc = workloads::contributor_pcc(7, 3, 0.6, 0.85, seed);
        let exact = engine.evaluate(&pcc, &query).unwrap().probability;
        let reference = workloads::pcc_query_probability_by_enumeration(&pcc, &query);
        assert!(
            close(exact, reference),
            "seed {seed}: {exact} vs {reference}"
        );
    }
}

#[test]
fn rules_then_conditioning_end_to_end() {
    // Complete a KB with a soft rule, then condition a query on an observed
    // fact and check Bayes consistency.
    let mut kb = TidInstance::new();
    kb.add_fact_named("Citizen", &["alice", "france"], 0.5);
    let rule = Rule::parse("Lives(x, y) :- Citizen(x, y)", 0.8).unwrap();
    let chase = ProbabilisticChase::new(vec![rule]);
    let completed = chase.run(&kb).unwrap();
    let q = ConjunctiveQuery::parse("Lives(\"alice\", \"france\")").unwrap();
    let p = completed.query_probability(&q).unwrap();
    assert!(close(p, 0.4));

    // Conditioning on the Table 1 instance: P(A | A) = 1.
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut w = Weights::new();
    w.set(pods, 0.8);
    w.set(stoc, 0.3);
    let pc = ci.with_probabilities(w);
    let q = ConjunctiveQuery::parse("Trip(\"Paris_CDG\", \"Melbourne_MEL\")").unwrap();
    let conditional = conditioned_query_probability(&pc, &q, FactId(0), true).unwrap();
    assert!(close(conditional, 1.0));
}

#[test]
fn scaling_smoke_test_large_path_instance() {
    // Theorem 1 in practice: a 20 000-fact path instance evaluates quickly
    // and exactly (the probability of a length-2 path approaches a limit).
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let tid = workloads::path_tid(20_000, 0.5, 1);
    let report = Engine::new().evaluate(&tid, &query).unwrap();
    assert_eq!(report.decomposition_width, Some(1));
    assert!(report.probability > 0.99);
}
