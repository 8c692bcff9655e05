//! Differential tests for the compiled sweep plan: the dense-table planned
//! sweep, the legacy interpreted HashMap sweep and DPLL must agree (within
//! 1e-9) on random circuits — including zero-weight variables, bags at the
//! width-budget boundary, circuits patched by `rewire_inputs` and circuits
//! the engine rebuilt for inserts — and `run_many` scenario lanes must
//! equal per-scenario `run` results exactly (bitwise).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use stuc::circuit::builder;
use stuc::circuit::circuit::{Circuit, VarId};
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::dpll::DpllCounter;
use stuc::circuit::plan::SumProduct;
use stuc::circuit::weights::Weights;
use stuc::core::workloads;
use stuc::graph::elimination::EliminationHeuristic;
use stuc::graph::generators::SplitMix64;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Delta, Engine};

const BUDGET: usize = 22;

fn compile(circuit: &Circuit) -> CompiledCircuit {
    CompiledCircuit::compile(Arc::new(circuit.clone()), EliminationHeuristic::MinDegree)
        .expect("circuit compiles")
}

/// Weights for every variable of `circuit`: pseudo-random in [0, 1], with
/// every `zero_stride`-th variable pinned to probability 0 (the planned
/// sweep's zero-skipping must not change results).
fn weights_for(circuit: &Circuit, seed: u64, zero_stride: usize) -> Weights {
    let mut weights = Weights::new();
    for (i, v) in circuit.variables().into_iter().enumerate() {
        let p = if zero_stride > 0 && i % zero_stride == 0 {
            0.0
        } else {
            // Cheap deterministic pseudo-randomness, good enough to vary.
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 * 1442695040888963407);
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        weights.set(v, p);
    }
    weights
}

fn assert_three_way_agreement(circuit: &Circuit, weights: &Weights) {
    let compiled = compile(circuit);
    let planned = compiled.run(weights, BUDGET).expect("planned sweep runs");
    let interpreted = compiled
        .run_interpreted(weights, BUDGET)
        .expect("interpreted sweep runs");
    let dpll = DpllCounter::default()
        .probability(circuit, weights)
        .expect("dpll runs");
    assert!(
        (planned.probability - interpreted.probability).abs() < 1e-9,
        "planned {} vs interpreted {}",
        planned.probability,
        interpreted.probability
    );
    assert!(
        (planned.probability - dpll).abs() < 1e-9,
        "planned {} vs dpll {dpll}",
        planned.probability
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Dense plan, interpreted sweep and DPLL agree on random circuits,
    /// including zero-weight variables.
    #[test]
    fn plan_interpreted_and_dpll_agree(
        vars in 2usize..9,
        internal in 2usize..18,
        seed in 0u64..1000,
        zero_stride in 0usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let weights = weights_for(&circuit, seed ^ 0xa5a5, zero_stride);
        assert_three_way_agreement(&circuit, &weights);
    }

    /// Agreement holds right at the width-budget boundary: a budget of
    /// exactly `width + 1` (the smallest that runs) answers like DPLL, and
    /// one below refuses on both sweep paths.
    #[test]
    fn width_budget_boundary_bags_agree(
        vars in 3usize..8,
        internal in 4usize..16,
        seed in 0u64..500,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let weights = weights_for(&circuit, seed, 0);
        let compiled = compile(&circuit);
        let boundary = compiled.width() + 1;
        let at = compiled.run(&weights, boundary).expect("boundary budget runs");
        let interpreted = compiled
            .run_interpreted(&weights, boundary)
            .expect("boundary budget runs interpreted");
        let dpll = DpllCounter::default().probability(&circuit, &weights).unwrap();
        prop_assert!((at.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((at.probability - dpll).abs() < 1e-9);
        if boundary > 1 {
            prop_assert!(compiled.run(&weights, boundary - 1).is_err());
            prop_assert!(compiled.run_interpreted(&weights, boundary - 1).is_err());
        }
    }

    /// Circuits patched by `rewire_inputs` (deletion: pin + renumber) keep
    /// the three-way agreement; the plan cell is re-derived for the patched
    /// gates while the decomposition is carried over.
    #[test]
    fn rewired_circuits_agree(
        vars in 3usize..8,
        internal in 3usize..14,
        seed in 0u64..500,
        pin_stride in 2usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        let _ = compiled.width(); // force the decomposition so it is carried over

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

        let weights = {
            let mut w = Weights::new();
            for (i, &v) in patched.variables().iter().enumerate() {
                w.set(v, 0.1 + 0.8 * (i as f64 % 5.0) / 5.0);
            }
            w
        };
        let planned = patched.run(&weights, BUDGET).expect("patched plan runs");
        let interpreted = patched
            .run_interpreted(&weights, BUDGET)
            .expect("patched interpreted runs");
        let dpll = DpllCounter::default()
            .probability(patched.source(), &weights)
            .expect("dpll on patched source");
        prop_assert!((planned.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((planned.probability - dpll).abs() < 1e-9);
    }

    /// A circuit planned before `rewire_inputs` keeps its plan, relabelled
    /// (pinned inputs become `[1, 0]` slots): the carried plan agrees with
    /// the interpreted sweep and DPLL on the rewired circuit, and its
    /// marginals name only surviving variables.
    #[test]
    fn rewired_planned_circuits_agree(
        vars in 3usize..8,
        internal in 3usize..14,
        seed in 0u64..500,
        pin_stride in 2usize..4,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        prop_assert!(compiled.try_sweep_plan().is_ok());

        // Pin every `pin_stride`-th variable and shift the rest down, like
        // a deletion of those facts.
        let all_vars: Vec<VarId> = circuit.variables().into_iter().collect();
        let pins: BTreeSet<VarId> = all_vars.iter().copied().step_by(pin_stride).collect();
        let remap: BTreeMap<VarId, VarId> = all_vars
            .iter()
            .filter(|v| !pins.contains(v))
            .enumerate()
            .map(|(new, &old)| (old, VarId(new)))
            .collect();
        let (patched, _) = compiled.rewire_inputs(&pins, &remap);
        prop_assert!(patched.is_planned());

        let weights = weights_for(patched.source(), seed, 0);
        let planned = patched.run(&weights, BUDGET).expect("carried plan runs");
        let interpreted = patched
            .run_interpreted(&weights, BUDGET)
            .expect("patched interpreted runs");
        let dpll = DpllCounter::default()
            .probability(patched.source(), &weights)
            .expect("dpll on patched source");
        prop_assert!((planned.probability - interpreted.probability).abs() < 1e-9);
        prop_assert!((planned.probability - dpll).abs() < 1e-9);
        if planned.probability > 0.0 {
            let plan = patched.try_sweep_plan().unwrap();
            let retained = plan.run_retained::<SumProduct>(&weights).unwrap();
            let marginal_vars: BTreeSet<VarId> = plan
                .marginal_numerators(&retained)
                .into_iter()
                .map(|(v, _)| v)
                .collect();
            prop_assert_eq!(&marginal_vars, patched.variables());
        }
    }

    /// Extended circuits — the lineages the engine rebuilt when inserts
    /// extended the instance — keep the three-way agreement, and the
    /// engine's cached circuit, planned inside the write, sweeps to the
    /// same answer.
    #[test]
    fn extended_circuits_agree(
        n in 3usize..8,
        inserts in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut tid = workloads::path_tid(n, 0.5, seed);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        for _ in 0..inserts {
            let a = format!("c{}", rng.next_below(n + 2));
            let b = format!("c{}", rng.next_below(n + 2));
            let p = 0.05 + 0.9 * rng.next_f64();
            engine.apply_update(&mut tid, &Delta::new().insert("R", &[&a, &b], p)).unwrap();
        }
        let circuit = engine.lineage(&tid, &query).unwrap();
        let weights = weights_for(&circuit, seed, 3);
        assert_three_way_agreement(&circuit, &weights);
        let cached = engine.reevaluate_with_weights(&tid, &query, &weights).unwrap();
        prop_assert!(cached.lineage_cached);
        let dpll = DpllCounter::default().probability(&circuit, &weights).expect("dpll runs");
        prop_assert!((cached.probability - dpll).abs() < 1e-9);
    }

    /// `run_many` scenario lanes are bitwise identical to per-scenario
    /// `run` calls, at any lane count.
    #[test]
    fn run_many_equals_per_scenario_runs_exactly(
        vars in 2usize..8,
        internal in 2usize..14,
        seed in 0u64..500,
        lanes in 1usize..9,
    ) {
        let circuit = builder::random_circuit(vars, internal, seed);
        let compiled = compile(&circuit);
        let scenarios: Vec<Weights> = (0..lanes)
            .map(|k| weights_for(&circuit, seed.wrapping_add(k as u64 * 77), k % 3))
            .collect();
        let many = compiled.run_many(&scenarios, BUDGET).expect("lane sweep runs");
        prop_assert_eq!(many.probabilities.len(), lanes);
        for (weights, &lane) in scenarios.iter().zip(&many.probabilities) {
            let single = compiled.run(weights, BUDGET).expect("single run");
            prop_assert!(
                single.probability.to_bits() == lane.to_bits(),
                "run_many lane {} != run {}",
                lane,
                single.probability
            );
        }
    }
}

/// Steady-state arena reuse is observable through the public report: the
/// first planned run warms the arena, later runs (single and lanes at the
/// same width) allocate nothing.
#[test]
fn steady_state_reports_zero_table_allocations() {
    let circuit = builder::conjunction_of_disjunctions(6, 3);
    let weights = Weights::uniform(circuit.variables(), 0.4);
    let compiled = compile(&circuit);
    let first = compiled.run(&weights, BUDGET).unwrap();
    assert!(first.table_allocations > 0, "first run warms the arena");
    for _ in 0..4 {
        let again = compiled.run(&weights, BUDGET).unwrap();
        assert_eq!(again.table_allocations, 0, "steady state must not allocate");
        assert_eq!(again.probability.to_bits(), first.probability.to_bits());
    }
    let scenarios = vec![weights.clone(), weights.clone(), weights];
    let lanes_first = compiled.run_many(&scenarios, BUDGET).unwrap();
    assert!(lanes_first.table_allocations > 0, "wider lanes regrow once");
    let lanes_again = compiled.run_many(&scenarios, BUDGET).unwrap();
    assert_eq!(lanes_again.table_allocations, 0);
}
