//! Integration tests for the EXPLAIN subsystem: `Engine::explain` must
//! *agree* with the `EvaluationReport` of an actual run — same back-end,
//! same decomposition width, same gate count, same cache provenance — on
//! every representation and on all three outcomes (safe-plan, circuit,
//! refused). The text rendering is pinned byte-for-byte so that downstream
//! goldens (REPL session, serve transcript) stay stable.

use proptest::prelude::*;
use stuc::circuit::weights::Weights;
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{
    BackendKind, BackendPolicy, Engine, ExplainOutcome, QueryExplanation, Representation, StucError,
};

/// Asserts the explanation and a report of an actual run tell one story.
fn assert_agreement(
    explanation: &QueryExplanation,
    report: &stuc::EvaluationReport,
    context: &str,
) {
    assert_eq!(explanation.backend, report.backend, "{context}: backend");
    match &explanation.circuit {
        Some(circuit) => {
            assert_eq!(circuit.gates, report.circuit_gates, "{context}: gates");
            assert_eq!(
                circuit.decomposition_width, report.decomposition_width,
                "{context}: width"
            );
        }
        None => {
            assert_eq!(
                report.circuit_gates, 0,
                "{context}: safe plan builds no circuit"
            );
            assert_eq!(
                report.decomposition_width, None,
                "{context}: no decomposition"
            );
        }
    }
    let expected_lineage = if explanation.outcome == ExplainOutcome::SafePlan {
        "untouched"
    } else if report.lineage_cached {
        "hit"
    } else {
        "miss"
    };
    assert_eq!(
        explanation.cache.lineage.provenance, expected_lineage,
        "{context}: lineage provenance"
    );
}

#[test]
fn explanations_agree_with_reports_on_all_four_representations() {
    let engine = Engine::new();

    // TID, hierarchical query → safe plan (no circuit, caches untouched).
    let tid = workloads::path_tid(8, 0.5, 11);
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let explanation = engine.explain(&tid, &hierarchical).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::SafePlan);
    assert_eq!(explanation.stages, vec!["safe-plan"]);
    let report = engine.evaluate(&tid, &hierarchical).unwrap();
    assert_eq!(report.backend, BackendKind::SafePlan);
    assert_agreement(&explanation, &report, "tid safe plan");

    // TID, self-join → circuit. The explain warms the lineage cache, so
    // the evaluation that follows is a cache hit — and a *re*-explain
    // after the run reports that hit, matching the warm report.
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let cold = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(cold.outcome, ExplainOutcome::Circuit);
    assert_eq!(cold.cache.lineage.provenance, "miss");
    let report = engine.evaluate(&tid, &self_join).unwrap();
    assert!(
        report.lineage_cached,
        "explain should have warmed the cache"
    );
    let warm = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(warm.cache.lineage.provenance, "hit");
    assert_eq!(
        warm.stages,
        vec!["cache-lookup"],
        "the run memoised its answer"
    );
    assert_agreement(&warm, &report, "tid self-join");

    // pc-instance (Table 1 with real probabilities) → circuit route.
    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut weights = Weights::new();
    weights.set(pods, 0.8);
    weights.set(stoc, 0.3);
    let pc = ci.with_probabilities(weights);
    let trip = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();
    let explanation = engine.explain(&pc, &trip).unwrap();
    assert!(!explanation.safe_plan.extensional, "pc offers no safe plan");
    let report = engine.evaluate(&pc, &trip).unwrap();
    let warm = engine.explain(&pc, &trip).unwrap();
    assert_agreement(&warm, &report, "pc instance");

    // pcc-instance → circuit route.
    let pcc = workloads::contributor_pcc(5, 2, 0.7, 0.9, 9);
    let claim = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
    engine.explain(&pcc, &claim).unwrap();
    let report = engine.evaluate(&pcc, &claim).unwrap();
    let warm = engine.explain(&pcc, &claim).unwrap();
    assert_agreement(&warm, &report, "pcc instance");

    // PrXML document → circuit route.
    let doc = PrXmlDocument::figure1_example();
    let query = PrxmlQuery::LabelExists("musician".into());
    engine.explain(&doc, &query).unwrap();
    let report = engine.evaluate(&doc, &query).unwrap();
    let warm = engine.explain(&doc, &query).unwrap();
    assert_eq!(warm.representation, "prxml-document");
    assert_agreement(&warm, &report, "prxml document");
}

#[test]
fn refused_explanations_carry_the_exact_error_evaluate_returns() {
    // A pinned safe plan on a self-join: refusal, and the refusal string
    // is byte-identical to the error the evaluation raises.
    let engine = Engine::builder().backend(BackendKind::SafePlan).build();
    let tid = workloads::path_tid(6, 0.5, 3);
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let explanation = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    let error = engine.evaluate(&tid, &self_join).unwrap_err();
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );

    // A pinned safe plan on a representation with no extensional side.
    let doc = PrXmlDocument::figure1_example();
    let query = PrxmlQuery::LabelExists("musician".into());
    let explanation = engine.explain(&doc, &query).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    assert!(!explanation.safe_plan.extensional);
    let error = engine.evaluate(&doc, &query).unwrap_err();
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );

    // A pinned treewidth back-end with an impossible width budget: explain
    // predicts the WidthTooLarge refusal with the same width and limit the
    // evaluation reports.
    let tight = Engine::builder()
        .backend(BackendKind::TreewidthWmc)
        .width_budget(1)
        .build();
    let explanation = tight.explain(&tid, &self_join).unwrap();
    assert_eq!(explanation.outcome, ExplainOutcome::Refused);
    assert_eq!(
        explanation.stages,
        vec!["cache-lookup", "decompose", "compile-lineage"],
        "the sweep never happens on a predicted refusal"
    );
    let error = tight.evaluate(&tid, &self_join).unwrap_err();
    assert!(
        matches!(error, StucError::Wmc(_)),
        "unexpected error {error}"
    );
    assert_eq!(
        explanation.refusal.as_deref(),
        Some(error.to_string().as_str())
    );
}

#[test]
fn the_text_rendering_is_deterministic_and_pinned() {
    // Fresh engine, fixed instance: the rendering must come out the same
    // every run — it feeds the REPL and serve goldens.
    let engine = Engine::new();
    let tid = workloads::path_tid(4, 0.5, 7);
    let src = "?- R(x, y), R(y, z).";
    let first = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    let again = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    assert_ne!(first, again, "the second explain sees the warmed cache");
    let third = engine
        .explain_text(&tid, src)
        .unwrap()
        .pop()
        .unwrap()
        .render_text();
    assert_eq!(again, third, "warm explains are a fixed point");

    // The warm rendering, pinned byte-for-byte. `path_tid(4, ..)` has 4
    // facts and a width-1 structure graph; the self-join lineage compiles
    // to a 10-gate circuit of width 3, well inside the default budget.
    let expected = "\
explain: R(x, y), R(y, z)
representation: tid-instance (4 facts)
policy: auto
plan: circuit — backend treewidth-wmc (circuit width 3 fits the budget 22)
safe plan: extensional=yes hierarchical=yes self-join-free=no
route: route=circuit (some term is non-hierarchical or has self-joins; safe plan inapplicable)
lowering: lowered to 1 inclusion-exclusion term(s) over 1 conjunct(s)
circuit: 10 gates (10 cold), 4 variables, 9 bags, width 3 within budget 22
structure width: 1
sweep plan: 27 nodes, 181 table entries, 3 arena slots
cache: lineage=hit decomposition=hit
stages: lower, route, cache-lookup, weights, sweep
notes:
  - route=circuit (some term is non-hierarchical or has self-joins; safe plan inapplicable)
  - lowered to 1 inclusion-exclusion term(s) over 1 conjunct(s)
  - compiled lineage served from cache
  - lineage width estimate 3 within budget 22; treewidth WMC selected
";
    assert_eq!(again, expected);
}

#[test]
fn goal_explanations_agree_with_text_evaluation_reports() {
    // The text front-end route (cost model + lowering) must match what
    // `evaluate_text` actually does, per goal, on a warmed engine.
    let engine = Engine::new();
    let tid = workloads::path_tid(6, 0.5, 13);
    let src = "?- R(x, y), R(y, z).\n?- R(x, y).";
    let reports = engine.evaluate_text(&tid, src).unwrap();
    let explanations = engine.explain_text(&tid, src).unwrap();
    assert_eq!(reports.len(), explanations.len());
    for (index, (goal, explanation)) in reports.goals.iter().zip(&explanations).enumerate() {
        assert_eq!(
            explanation.route.as_ref().map(|r| r.route),
            goal.report.route,
            "goal {index}: route"
        );
    }
    // Re-evaluate warm so the cache-provenance comparison is meaningful.
    let warm_reports = engine.evaluate_text(&tid, src).unwrap();
    let warm = engine.explain_text(&tid, src).unwrap();
    for (index, (goal, explanation)) in warm_reports.goals.iter().zip(&warm).enumerate() {
        assert_agreement(explanation, &goal.report, &format!("goal {index}"));
    }
}

/// The distinct stage names a run recorded, in first-occurrence order.
fn run_stages(report: &stuc::EvaluationReport) -> Vec<&'static str> {
    report
        .stage_timings
        .stages()
        .iter()
        .map(|s| s.name)
        .collect()
}

/// EXPLAIN lists exactly the stages the run that follows it records: on a
/// safe-plan goal, a cold circuit goal, a goal an explain warmed before its
/// first run (it fetches weights and sweeps), a goal whose answer a run
/// memoised (it stops at the lookup), and a union goal through
/// `evaluate_text` in each of those cache states.
#[test]
fn explained_stages_are_the_stages_the_run_records() {
    let tid = workloads::path_tid(8, 0.5, 11);
    let check = |explanation: QueryExplanation, report: &stuc::EvaluationReport, context: &str| {
        assert_eq!(explanation.stages, run_stages(report), "{context}");
    };

    let engine = Engine::new();
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let explanation = engine.explain(&tid, &hierarchical).unwrap();
    check(
        explanation,
        &engine.evaluate(&tid, &hierarchical).unwrap(),
        "safe plan",
    );

    // A cold explain warms its engine, so the cold run is a twin's.
    let self_join = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let cold = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(
        cold.stages,
        [
            "cache-lookup",
            "decompose",
            "compile-lineage",
            "weights",
            "sweep"
        ]
    );
    check(
        cold,
        &Engine::new().evaluate(&tid, &self_join).unwrap(),
        "cold circuit",
    );
    let warmed = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(warmed.stages, ["cache-lookup", "weights", "sweep"]);
    check(
        warmed,
        &engine.evaluate(&tid, &self_join).unwrap(),
        "explain-warmed circuit",
    );
    let memoised = engine.explain(&tid, &self_join).unwrap();
    assert_eq!(memoised.stages, ["cache-lookup"]);
    check(
        memoised,
        &engine.evaluate(&tid, &self_join).unwrap(),
        "memoised circuit",
    );

    let union = "?- R(x, y), R(y, z) ; R(x, y), R(y, z), R(z, w).";
    let goal = |engine: &Engine| {
        engine.evaluate_text(&tid, union).unwrap().goals[0]
            .report
            .clone()
    };
    let explain = |engine: &Engine| engine.explain_text(&tid, union).unwrap().pop().unwrap();
    let engine = Engine::new();
    let cold = explain(&engine);
    assert!(
        cold.stages.contains(&"compile-lineage"),
        "{:?}",
        cold.stages
    );
    check(cold, &goal(&Engine::new()), "cold union");
    check(explain(&engine), &goal(&engine), "explain-warmed union");
    let memoised = explain(&engine);
    assert_eq!(memoised.stages, ["lower", "route", "cache-lookup"]);
    check(memoised, &goal(&engine), "memoised union");

    // One term's answer memoised, the others' not: the run still sweeps.
    let mixed = "?- R(x, y), R(y, z) ; R(\"c1\", x), R(x, y).";
    engine.explain_text(&tid, mixed).unwrap(); // compiles the new terms
    let explanation = engine.explain_text(&tid, mixed).unwrap().pop().unwrap();
    assert_eq!(
        explanation.stages,
        ["lower", "route", "cache-lookup", "weights", "sweep"]
    );
    let ran = engine.evaluate_text(&tid, mixed).unwrap().goals[0]
        .report
        .clone();
    check(explanation, &ran, "partly memoised union");
}

#[test]
fn pinned_safe_plan_goals_explain_the_refusal_evaluate_returns() {
    // Both goals are outside the safe plan's reach (a self-join, the
    // non-hierarchical R–S–T chain): a pinned safe plan refuses them, and
    // the explanation must say so with the run's exact error text.
    let engine = Engine::builder().backend(BackendKind::SafePlan).build();
    let cases = [
        (workloads::path_tid(6, 0.5, 3), "?- R(x, y), R(y, z)."),
        (
            workloads::rst_path_tid(4, 0.5, 5),
            "?- R(x), S(x, y), T(y).",
        ),
    ];
    for (tid, src) in cases {
        let explanation = engine.explain_text(&tid, src).unwrap().pop().unwrap();
        let error = engine.evaluate_text(&tid, src).unwrap_err();
        assert_eq!(explanation.outcome, ExplainOutcome::Refused, "{src}");
        assert_eq!(explanation.backend, BackendKind::SafePlan, "{src}");
        assert_eq!(
            explanation.refusal.as_deref(),
            Some(error.to_string().as_str()),
            "{src}"
        );
        assert_eq!(explanation.stages, vec!["lower", "route"], "{src}");
    }
}

/// Every policy crossed with a width budget that forces the fallbacks and
/// refusals (1) and the default one (22).
fn configurations() -> Vec<(BackendPolicy, usize)> {
    let policies = [
        BackendPolicy::Auto,
        BackendPolicy::Fixed(BackendKind::SafePlan),
        BackendPolicy::Fixed(BackendKind::TreewidthWmc),
        BackendPolicy::Fixed(BackendKind::Dpll),
        BackendPolicy::Fixed(BackendKind::Enumeration),
    ];
    policies
        .into_iter()
        .flat_map(|policy| [1, 22].map(|budget| (policy, budget)))
        .collect()
}

fn engine(policy: BackendPolicy, budget: usize) -> Engine {
    Engine::builder()
        .policy(policy)
        .width_budget(budget)
        .build()
}

/// The explanation and the outcome of the run agree: a refusal carries the
/// run's error text, any other outcome the run's back-end, route, gates,
/// structure width and cache provenance. A planning error is the run's
/// error.
fn agree(
    explained: Result<QueryExplanation, StucError>,
    ran: Result<stuc::EvaluationReport, StucError>,
) -> Result<(), String> {
    let explanation = match explained {
        Ok(explanation) => explanation,
        Err(error) => {
            return match ran {
                Err(run_error) if run_error.to_string() == error.to_string() => Ok(()),
                other => Err(format!(
                    "explain failed ({error}) but the run gave {other:?}"
                )),
            };
        }
    };
    let report = match (explanation.outcome, ran) {
        (ExplainOutcome::Refused, Err(error)) => {
            return match explanation.refusal.as_deref() == Some(error.to_string().as_str()) {
                true => Ok(()),
                false => Err(format!(
                    "refusal {:?} vs error {error}",
                    explanation.refusal
                )),
            };
        }
        (ExplainOutcome::Refused, Ok(report)) => {
            return Err(format!("explained a refusal, the run gave {report:?}"));
        }
        (outcome, Err(error)) => {
            return Err(format!("explained {outcome:?}, the run failed: {error}"));
        }
        (_, Ok(report)) => report,
    };
    let provenance = |cached: bool| match (&explanation.circuit, cached) {
        (None, _) => "untouched",
        (Some(_), true) => "hit",
        (Some(_), false) => "miss",
    };
    let mut mismatches = Vec::new();
    if explanation.backend != report.backend {
        mismatches.push(format!(
            "backend {} vs {}",
            explanation.backend, report.backend
        ));
    }
    if explanation.route.as_ref().map(|r| r.route) != report.route {
        mismatches.push(format!(
            "route {:?} vs {:?}",
            explanation.route, report.route
        ));
    }
    let (gates, width) = explanation
        .circuit
        .map_or((0, None), |c| (c.gates, c.decomposition_width));
    if (gates, width) != (report.circuit_gates, report.decomposition_width) {
        mismatches.push(format!(
            "gates/width {gates}/{width:?} vs {}/{:?}",
            report.circuit_gates, report.decomposition_width
        ));
    }
    if explanation.circuit.is_none() && (report.lineage_cached || report.decomposition_cached) {
        mismatches.push("a run without a circuit reports a cache hit".to_string());
    }
    if explanation.cache.lineage.provenance != provenance(report.lineage_cached) {
        mismatches.push(format!(
            "lineage provenance {} vs cached={}",
            explanation.cache.lineage.provenance, report.lineage_cached
        ));
    }
    if explanation.cache.decomposition.provenance != provenance(report.decomposition_cached) {
        mismatches.push(format!(
            "decomposition provenance {} vs cached={}",
            explanation.cache.decomposition.provenance, report.decomposition_cached
        ));
    }
    match mismatches.is_empty() {
        true => Ok(()),
        false => Err(mismatches.join("; ")),
    }
}

/// Under every configuration, explain on one engine and evaluate on a
/// twin agree cold, and again warm.
fn query_agreement<R: Representation>(representation: &R, query: &R::Query) -> Result<(), String> {
    for (policy, budget) in configurations() {
        let (explainer, runner) = (engine(policy, budget), engine(policy, budget));
        for round in ["cold", "warm"] {
            agree(
                explainer.explain(representation, query),
                runner.evaluate(representation, query),
            )
            .map_err(|m| format!("{policy:?}, budget {budget}, {round}, {query:?}: {m}"))?;
        }
    }
    Ok(())
}

/// [`query_agreement`] for a one-goal `stuc-lang` program.
fn goal_agreement(tid: &stuc::data::tid::TidInstance, src: &str) -> Result<(), String> {
    for (policy, budget) in configurations() {
        let (explainer, runner) = (engine(policy, budget), engine(policy, budget));
        for round in ["cold", "warm"] {
            agree(
                explainer
                    .explain_text(tid, src)
                    .map(|mut goals| goals.remove(0)),
                runner
                    .evaluate_text(tid, src)
                    .map(|mut outcome| outcome.goals.remove(0).report),
            )
            .map_err(|m| format!("{policy:?}, budget {budget}, {round}, {src}: {m}"))?;
        }
    }
    Ok(())
}

const VARIABLES: [&str; 3] = ["x", "y", "z"];

/// A body over `R/1`, `S/2`, `T/1` (the `rst_path_tid` schema): one atom
/// per code, so self-joins, repeated variables, disconnected and
/// non-hierarchical bodies all come up.
fn rst_body(codes: &[usize]) -> String {
    let atoms: Vec<String> = codes
        .iter()
        .map(|&code| match code % 15 {
            c @ 0..=2 => format!("R({})", VARIABLES[c]),
            c @ 3..=11 => format!("S({}, {})", VARIABLES[(c - 3) / 3], VARIABLES[(c - 3) % 3]),
            c => format!("T({})", VARIABLES[c - 12]),
        })
        .collect();
    atoms.join(", ")
}

/// A body over the `Claim/2` relation of `contributor_pcc`.
fn claim_body(codes: &[usize]) -> String {
    let atoms: Vec<String> = codes
        .iter()
        .map(|&code| {
            format!(
                "Claim({}, {})",
                VARIABLES[code % 3],
                VARIABLES[code / 3 % 3]
            )
        })
        .collect();
    atoms.join(", ")
}

fn prxml_query(code: usize) -> PrxmlQuery {
    const LABELS: [&str; 4] = ["musician", "occupation", "surname", "no-such-label"];
    let (a, b) = (
        LABELS[code % 4].to_string(),
        LABELS[code / 4 % 4].to_string(),
    );
    match code / 16 % 3 {
        0 => PrxmlQuery::LabelExists(a),
        1 => PrxmlQuery::AncestorDescendant {
            ancestor: a,
            descendant: b,
        },
        _ => PrxmlQuery::ParentChild {
            parent: a,
            child: b,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Programmatic queries on all four representations.
    #[test]
    fn explanations_agree_with_runs_under_every_policy_and_budget(
        n in 2usize..5,
        seed in 0u64..500,
        codes in collection::vec(0usize..15, 1..4),
        claims in collection::vec(0usize..9, 1..3),
        document in 0usize..48,
    ) {
        let tid = workloads::rst_path_tid(n, 0.5, seed);
        let query = ConjunctiveQuery::parse(&rst_body(&codes)).unwrap();
        let outcome = query_agreement(&tid, &query)
            .and_then(|()| query_agreement(&tid.to_pc_instance(), &query))
            .and_then(|()| {
                let pcc = workloads::contributor_pcc(n + 1, 2, 0.7, 0.9, seed);
                query_agreement(&pcc, &ConjunctiveQuery::parse(&claim_body(&claims)).unwrap())
            })
            .and_then(|()| {
                query_agreement(&PrXmlDocument::figure1_example(), &prxml_query(document))
            });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Textual goals on TID: plain bodies, unions and ground negation.
    #[test]
    fn goal_explanations_agree_with_runs_under_every_policy_and_budget(
        n in 2usize..5,
        seed in 0u64..500,
        left in collection::vec(0usize..15, 1..3),
        right in collection::vec(0usize..15, 1..3),
        negated in 0usize..3,
    ) {
        let tid = workloads::rst_path_tid(n, 0.5, seed);
        let ground = ["R(\"v0\")", "S(\"v0\", \"v1\")", "T(\"v9\")"][negated];
        let goals = [
            format!("?- {}.", rst_body(&left)),
            format!("?- {}; {}.", rst_body(&left), rst_body(&right)),
            format!("?- {}, !{ground}.", rst_body(&left)),
        ];
        for src in &goals {
            let outcome = goal_agreement(&tid, src);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}
