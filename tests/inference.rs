//! The posterior-inference contract, differentially tested.
//!
//! * **Marginals**: `Engine::marginals` (one backward sweep) must agree —
//!   within 1e-9 — with per-fact conditioned WMC on all four
//!   representations (TID, pc-, pcc-instances, PrXML).
//! * **Sampling**: seeded empirical frequencies must converge to the exact
//!   marginals, and every sampled world must satisfy the query lineage.
//! * **MPE**: the most-probable-world weight must equal the maximum over
//!   exhaustively enumerated worlds on small instances.
//! * All of it must also hold on circuits patched by `rewire_inputs` (the
//!   deletion path carries the plan over) and on the circuits the engine
//!   rebuilt for inserts.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use stuc::circuit::builder;
use stuc::circuit::circuit::{Circuit, VarId};
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::weights::Weights;
use stuc::core::workloads;
use stuc::graph::elimination::EliminationHeuristic;
use stuc::graph::generators::SplitMix64;
use stuc::infer::{self, World};
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Delta, Engine, Representation, StucError};

const BUDGET: usize = 22;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// Reference posterior by conditioned WMC: `p(v) * P(φ | v:=1) / P(φ)`,
/// computed through the engine's re-weighting path (one counting sweep per
/// fact — exactly what the backward sweep replaces).
fn conditioned_marginal<R: Representation + ?Sized>(
    engine: &Engine,
    representation: &R,
    query: &R::Query,
    weights: &Weights,
    evidence: f64,
    v: VarId,
) -> f64 {
    let prior = weights.weight(v, true).unwrap();
    if prior == 0.0 {
        return 0.0;
    }
    let mut fixed = weights.clone();
    fixed.fix(v, true);
    let conditioned = engine
        .reevaluate_with_weights(representation, query, &fixed)
        .unwrap()
        .probability;
    prior * conditioned / evidence
}

/// Asserts the all-fact marginals of `(representation, query)` against the
/// per-fact conditioned reference, covering every weighted variable.
fn assert_marginals_agree<R: Representation + ?Sized>(
    engine: &Engine,
    representation: &R,
    query: &R::Query,
) -> Result<(), TestCaseError> {
    let weights = representation.weights().unwrap();
    let marginals = match engine.marginals(representation, query) {
        Ok(marginals) => marginals,
        Err(StucError::Infer(infer::InferError::ImpossibleEvidence)) => {
            let p = engine.evaluate(representation, query).unwrap().probability;
            prop_assert!(close(p, 0.0), "refused only for zero evidence, got {p}");
            return Ok(());
        }
        Err(other) => panic!("{other}"),
    };
    let evidence = engine.evaluate(representation, query).unwrap().probability;
    prop_assert!(close(marginals.evidence_probability, evidence));
    for (v, prior) in weights.iter() {
        let reference = conditioned_marginal(engine, representation, query, &weights, evidence, v);
        let got = marginals.get(v).expect("every weighted variable covered");
        prop_assert!(
            close(got, reference),
            "{v}: backward sweep {got} vs conditioned {reference} (prior {prior})"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// TID instances: one backward sweep equals n conditioned sweeps.
    #[test]
    fn tid_marginals_agree_with_conditioned_wmc(n in 3usize..9, p in 0.2f64..0.8, seed in 0u64..500) {
        let tid = workloads::path_tid(n, p, seed);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        assert_marginals_agree(&Engine::new(), &tid, &query)?;
    }

    /// pc-instances (annotated events): same contract.
    #[test]
    fn pc_marginals_agree_with_conditioned_wmc(n in 3usize..8, seed in 0u64..500) {
        let pc = workloads::path_tid(n, 0.5, seed).to_pc_instance();
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        assert_marginals_agree(&Engine::new(), &pc, &query)?;
    }

    /// pcc-instances (shared annotation circuit, Theorem 2): same contract.
    #[test]
    fn pcc_marginals_agree_with_conditioned_wmc(
        claims in 2usize..5,
        contributors in 1usize..3,
        seed in 0u64..500,
    ) {
        let pcc = workloads::contributor_pcc(claims, contributors, 0.8, 0.6, seed);
        let query = ConjunctiveQuery::parse("Claim(x, y), Claim(x, z)").unwrap();
        assert_marginals_agree(&Engine::new(), &pcc, &query)?;
    }

    /// PrXML documents: same contract on the presence-circuit events.
    #[test]
    fn prxml_marginals_agree_with_conditioned_wmc(seed in 0u64..4) {
        let doc = PrXmlDocument::figure1_example();
        let query = match seed % 2 {
            0 => PrxmlQuery::LabelExists("musician".into()),
            _ => PrxmlQuery::LabelExists("surname".into()),
        };
        assert_marginals_agree(&Engine::new(), &doc, &query)?;
    }

    /// Sampling: seeded empirical frequencies converge to the exact
    /// marginals, and every draw satisfies the lineage.
    #[test]
    fn sampler_frequencies_converge_to_exact_marginals(n in 3usize..7, seed in 0u64..200) {
        let tid = workloads::path_tid(n, 0.5, seed);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        let marginals = engine.marginals(&tid, &query).unwrap();
        let lineage = engine.lineage(&tid, &query).unwrap();
        let draws = 4000;
        let sampled = engine.sample_worlds(&tid, &query, draws, seed ^ 0xBEEF).unwrap();
        prop_assert_eq!(sampled.worlds.len(), draws);
        let mut hits: BTreeMap<VarId, usize> = BTreeMap::new();
        for world in &sampled.worlds {
            prop_assert!(world.satisfies(&lineage).unwrap(), "sampled world must satisfy the query");
            for v in world.present() {
                *hits.entry(v).or_insert(0) += 1;
            }
        }
        for (v, exact) in marginals.iter() {
            let frequency = *hits.get(&v).unwrap_or(&0) as f64 / draws as f64;
            // 4000 exact i.i.d. draws: 5 sigma of a Bernoulli(1/2) is ~0.04.
            prop_assert!(
                (frequency - exact).abs() < 0.05,
                "{v}: empirical {frequency} vs exact {exact}"
            );
        }
        // Replaying the seed replays the worlds.
        let replay = engine.sample_worlds(&tid, &query, draws, seed ^ 0xBEEF).unwrap();
        prop_assert_eq!(&sampled.worlds, &replay.worlds);
    }

    /// MPE equals the maximum over exhaustively enumerated worlds.
    #[test]
    fn mpe_weight_equals_enumerated_maximum(n in 3usize..7, seed in 0u64..300) {
        let tid = workloads::path_tid(n, 0.4, seed);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        let mpe = engine.most_probable_world(&tid, &query).unwrap();
        let lineage = engine.lineage(&tid, &query).unwrap();
        let weights = tid.fact_weights();
        let vars: Vec<VarId> = weights.iter().map(|(v, _)| v).collect();
        let mut best = 0.0f64;
        for mask in 0u64..(1 << vars.len()) {
            let world = World::from_values(
                vars.iter().enumerate().map(|(i, &v)| (v, (mask >> i) & 1 == 1)),
            );
            if world.satisfies(&lineage).unwrap() {
                best = best.max(world.probability(&weights).unwrap());
            }
        }
        prop_assert!(close(mpe.probability, best), "{} vs {best}", mpe.probability);
        prop_assert!(mpe.world.satisfies(&lineage).unwrap());
        prop_assert!(close(mpe.world.probability(&weights).unwrap(), mpe.probability));
    }

    /// All three inference modes stay correct on circuits patched by
    /// `rewire_inputs` (deletion path): the re-derived plan serves
    /// marginals, sampling and MPE against enumeration ground truth.
    #[test]
    fn inference_agrees_on_rewired_circuits(
        vars in 3usize..7,
        internal in 3usize..12,
        seed in 0u64..300,
        pin_stride in 2usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = CompiledCircuit::compile(
            Arc::new(circuit.clone()),
            EliminationHeuristic::MinDegree,
        ).unwrap();
        let _ = compiled.width(); // force the decomposition so the patch carries it

        let all_vars: Vec<VarId> = circuit.variables().into_iter().collect();
        let pins: BTreeSet<VarId> = all_vars
            .iter()
            .enumerate()
            .filter(|(i, _)| i % pin_stride == 0)
            .map(|(_, &v)| v)
            .collect();
        let mut remap: BTreeMap<VarId, VarId> = BTreeMap::new();
        let mut next = 0usize;
        for &v in &all_vars {
            if !pins.contains(&v) {
                remap.insert(v, VarId(next));
                next += 1;
            }
        }
        let (patched, _) = compiled.rewire_inputs(&pins, &remap);
        let weights = Weights::uniform(patched.variables().iter().copied(), 0.45);
        assert_patched_inference_agrees(&patched, &weights)?;
    }

    /// Same on extended circuits, the lineages the engine rebuilt when
    /// inserts extended the instance: the engine's inference modes,
    /// sweeping its cached circuit, agree with enumerating the worlds of
    /// that circuit's lineage.
    #[test]
    fn inference_agrees_on_extended_circuits(
        n in 3usize..6,
        inserts in 1usize..3,
        seed in 0u64..300,
    ) {
        let mut tid = workloads::path_tid(n, 0.5, seed);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x1f);
        for _ in 0..inserts {
            let a = format!("c{}", rng.next_below(n + 2));
            let b = format!("c{}", rng.next_below(n + 2));
            let p = 0.05 + 0.9 * rng.next_f64();
            engine.apply_update(&mut tid, &Delta::new().insert("R", &[&a, &b], p)).unwrap();
        }
        let source = engine.lineage(&tid, &query).unwrap();
        // Every fact, also one an insert left outside the lineage: the
        // engine's modes range over the whole instance.
        let weights = tid.weights().unwrap();
        let (evidence, numerators, best) = enumerate_worlds(&source, &weights)?;

        let marginals = match engine.marginals(&tid, &query) {
            Ok(marginals) => marginals,
            Err(StucError::Infer(infer::InferError::ImpossibleEvidence)) => {
                prop_assert!(close(evidence, 0.0));
                return Ok(());
            }
            Err(other) => panic!("{other}"),
        };
        prop_assert!(marginals.report.lineage_cached);
        prop_assert!(close(marginals.evidence_probability, evidence));
        for (&v, &numerator) in &numerators {
            let got = marginals.get(v).unwrap();
            prop_assert!(close(got, numerator / evidence), "{v}: {got} vs {}", numerator / evidence);
        }
        let mpe = engine.most_probable_world(&tid, &query).unwrap();
        prop_assert!(close(mpe.probability, best), "{} vs {best}", mpe.probability);
        prop_assert!(mpe.world.satisfies(&source).unwrap());
        let sampled = engine.sample_worlds(&tid, &query, 64, 7).unwrap();
        for world in &sampled.worlds {
            prop_assert!(world.satisfies(&source).unwrap());
        }
    }
}

/// Enumerates every world of `source` over the variables of `weights`:
/// the evidence mass, each variable's numerator (the mass of the worlds
/// where it is present) and the weight of the best world.
fn enumerate_worlds(
    source: &Circuit,
    weights: &Weights,
) -> Result<(f64, BTreeMap<VarId, f64>, f64), TestCaseError> {
    let vars: Vec<VarId> = weights.iter().map(|(v, _)| v).collect();
    prop_assert!(vars.len() <= 16, "enumeration stays small");
    let mut evidence = 0.0f64;
    let mut numerators: BTreeMap<VarId, f64> = vars.iter().map(|&v| (v, 0.0)).collect();
    let mut best = 0.0f64;
    for mask in 0u64..(1 << vars.len()) {
        let world = World::from_values(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, (mask >> i) & 1 == 1)),
        );
        if !world.satisfies(source).unwrap() {
            continue;
        }
        let p = world.probability(weights).unwrap();
        evidence += p;
        best = best.max(p);
        for v in world.present() {
            *numerators.get_mut(&v).unwrap() += p;
        }
    }
    Ok((evidence, numerators, best))
}

/// Ground-truth check of all three inference modes on a compiled (possibly
/// patched) circuit, by enumerating every world of its source lineage.
fn assert_patched_inference_agrees(
    patched: &CompiledCircuit,
    weights: &Weights,
) -> Result<(), TestCaseError> {
    let source = patched.source().as_ref().clone();
    let (evidence, numerators, best) = enumerate_worlds(&source, weights)?;

    match infer::marginals(patched, weights, BUDGET) {
        Ok(marginals) => {
            prop_assert!(close(marginals.evidence_probability, evidence));
            for (&v, &numerator) in &numerators {
                let got = marginals.get(v).unwrap();
                prop_assert!(
                    close(got, numerator / evidence),
                    "{v}: {got} vs {}",
                    numerator / evidence
                );
            }
        }
        Err(infer::InferError::ImpossibleEvidence) => {
            prop_assert!(close(evidence, 0.0));
            return Ok(());
        }
        Err(other) => panic!("{other}"),
    }

    let mpe = infer::most_probable_world(patched, weights, BUDGET).unwrap();
    prop_assert!(
        close(mpe.probability, best),
        "{} vs {best}",
        mpe.probability
    );
    prop_assert!(mpe.world.satisfies(&source).unwrap());

    let sampled = infer::sample_worlds(patched, weights, BUDGET, 64, 7).unwrap();
    for world in &sampled.worlds {
        prop_assert!(world.satisfies(&source).unwrap());
    }
    Ok(())
}

/// The inference modes share the engine's lineage cache: a query evaluated
/// first (or inferred twice) reports `lineage_cached` on later calls.
#[test]
fn inference_modes_share_the_lineage_cache() {
    let tid = workloads::path_tid(6, 0.5, 3);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    let cold = engine.marginals(&tid, &query).unwrap();
    assert!(!cold.report.lineage_cached, "first call compiles");
    assert_eq!(engine.cached_lineages(), 1);
    let warm = engine.marginals(&tid, &query).unwrap();
    assert!(warm.report.lineage_cached, "second call reuses the lineage");
    let sampled = engine.sample_worlds(&tid, &query, 5, 1).unwrap();
    assert!(sampled.report.lineage_cached, "sampling shares the cache");
    let mpe = engine.most_probable_world(&tid, &query).unwrap();
    assert!(mpe.report.lineage_cached, "MPE shares the cache");
    assert_eq!(engine.cached_lineages(), 1, "still one compiled lineage");
    // Counting also reuses the very same entry.
    let eval = engine.evaluate(&tid, &query).unwrap();
    assert!(eval.lineage_cached);
}

/// A fixed safe-plan engine has no circuit to infer on: all three modes
/// refuse with `BackendUnsupported`.
#[test]
fn fixed_safe_plan_policy_refuses_inference() {
    let tid = workloads::rst_star_tid(4, 0.4, 3);
    let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
    let engine = Engine::builder()
        .backend(stuc::BackendKind::SafePlan)
        .build();
    assert!(matches!(
        engine.marginals(&tid, &query),
        Err(StucError::BackendUnsupported { .. })
    ));
    assert!(matches!(
        engine.sample_worlds(&tid, &query, 1, 0),
        Err(StucError::BackendUnsupported { .. })
    ));
    assert!(matches!(
        engine.most_probable_world(&tid, &query),
        Err(StucError::BackendUnsupported { .. })
    ));
}

/// Impossible evidence (a query that holds in no world) is refused by all
/// three modes rather than dividing by zero.
#[test]
fn impossible_evidence_is_refused_through_the_engine() {
    let tid = workloads::path_tid(4, 0.5, 1);
    let query = ConjunctiveQuery::parse("Missing(x)").unwrap();
    let engine = Engine::new();
    assert!(matches!(
        engine.marginals(&tid, &query),
        Err(StucError::Infer(infer::InferError::ImpossibleEvidence))
    ));
    assert!(matches!(
        engine.sample_worlds(&tid, &query, 10, 0),
        Err(StucError::Infer(infer::InferError::ImpossibleEvidence))
    ));
    assert!(matches!(
        engine.most_probable_world(&tid, &query),
        Err(StucError::Infer(infer::InferError::ImpossibleEvidence))
    ));
}

/// The streaming sampler keeps drawing without the engine and replays its
/// seed deterministically.
#[test]
fn streaming_world_sampler_is_deterministic() {
    let tid = workloads::path_tid(6, 0.5, 9);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    let mut a = engine.world_sampler(&tid, &query, 123).unwrap();
    let mut b = engine.world_sampler(&tid, &query, 123).unwrap();
    assert!(b.report().lineage_cached, "second sampler hits the cache");
    let from_a: Vec<World> = a.sample_many(20);
    let from_b: Vec<World> = (0..20).map(|_| b.sample()).collect();
    assert_eq!(from_a, from_b);
    assert!(a.evidence_probability() > 0.0);
}
