//! Most-probable-world (MPE) decoding by a max-product sweep.
//!
//! Swapping the sweep's sum for a max ([`stuc_circuit::plan::MaxProduct`])
//! turns weighted model counting into Viterbi: the root aggregate becomes
//! the weight of the *single heaviest* consistent, query-satisfying
//! assignment, and an argmax descent through the retained tables decodes
//! which world achieves it. Same plan, same tables, one comparison swapped —
//! the payoff of the semiring-generic inner loop.

use crate::report::InferenceReport;
use crate::world::World;
use crate::{plan_within, InferError};
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::plan::MaxProduct;
use stuc_circuit::weights::Weights;
use stuc_obs::Stopwatch;

/// The most probable world satisfying the compiled lineage, with its
/// (prior, unnormalised) probability and the computation's provenance.
#[derive(Debug, Clone)]
pub struct MostProbableWorld {
    /// The argmax world: a total assignment of every weighted variable.
    pub world: World,
    /// The world's probability `∏ w(v, value)` — the maximum over all
    /// worlds where the query holds. Divide by `P(query)` for the posterior
    /// mode's conditional probability.
    pub probability: f64,
    /// How the answer was computed (one max-product sweep + one descent).
    pub report: InferenceReport,
}

/// Computes the single most probable world in which the lineage holds —
/// one max-product table-retaining sweep plus an argmax descent.
///
/// Variables the lineage never reads are independent: they take their
/// individually most likely value (`true` iff prior > 1/2, ties to
/// `false`), and the returned probability includes their `max(p, 1-p)`
/// factors, so it is the true maximum over worlds on the *full* variable
/// set. Ties between worlds are broken deterministically (lowest branch
/// value first).
///
/// Fails with [`InferError::ImpossibleEvidence`] when no world satisfies
/// the lineage (or all satisfying worlds have probability 0), and with
/// [`InferError::Wmc`] when the circuit exceeds `max_bag_size` or its plan
/// cannot be built.
pub fn most_probable_world(
    compiled: &CompiledCircuit,
    weights: &Weights,
    max_bag_size: usize,
) -> Result<MostProbableWorld, InferError> {
    let started = Stopwatch::start();
    let plan = plan_within(compiled, max_bag_size)?;
    let retained = plan.run_retained::<MaxProduct>(weights)?;
    let mut probability = retained.value();
    if probability <= 0.0 {
        return Err(InferError::ImpossibleEvidence);
    }
    let mut choose = |branch_weights: &[f64]| -> usize {
        let mut best = 0usize;
        for (index, &weight) in branch_weights.iter().enumerate() {
            if weight > branch_weights[best] {
                best = index;
            }
        }
        best
    };
    let mut values = plan.descend(&retained, &mut choose);

    // Independent variables take their individually most likely value.
    let circuit_vars = compiled.variables();
    for (v, prior) in weights.iter() {
        if circuit_vars.contains(&v) {
            continue;
        }
        values.push((v, prior > 0.5));
        probability *= prior.max(1.0 - prior);
    }

    let world = World::from_values(values);
    debug_assert!(
        world
            .probability(weights)
            .map(|decoded| (decoded - probability).abs() <= 1e-9 * probability.max(1.0))
            .unwrap_or(false),
        "descent must decode a world of the max-product weight"
    );
    Ok(MostProbableWorld {
        world,
        probability,
        report: InferenceReport {
            sweeps_run: 1,
            tables_retained: retained.tables_retained(),
            table_entries: retained.table_entries(),
            lineage_cached: false,
            wall_time: started.elapsed(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stuc_circuit::builder;
    use stuc_circuit::circuit::{Circuit, VarId};

    fn compile(circuit: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default()).unwrap()
    }

    /// Ground truth: enumerate every world over the weighted variables and
    /// keep the heaviest one satisfying the circuit.
    fn enumerate_best(circuit: &Circuit, weights: &Weights) -> Option<f64> {
        let vars: Vec<VarId> = weights.iter().map(|(v, _)| v).collect();
        let mut best: Option<f64> = None;
        for mask in 0u64..(1 << vars.len()) {
            let world = World::from_values(
                vars.iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (mask >> i) & 1 == 1)),
            );
            if !world.satisfies(circuit).unwrap() {
                continue;
            }
            let p = world.probability(weights).unwrap();
            best = Some(best.map_or(p, |b: f64| b.max(p)));
        }
        best
    }

    #[test]
    fn mpe_weight_matches_enumeration_on_random_circuits() {
        for seed in 0..15 {
            let circuit = builder::random_circuit(6, 11, seed);
            let mut weights = Weights::new();
            for (i, v) in circuit.variables().into_iter().enumerate() {
                weights.set(v, 0.15 + 0.1 * ((seed as usize + i) % 8) as f64);
            }
            let compiled = compile(&circuit);
            match most_probable_world(&compiled, &weights, 22) {
                Ok(result) => {
                    let best = enumerate_best(&circuit, &weights).expect("satisfiable");
                    assert!(
                        (result.probability - best).abs() < 1e-9,
                        "seed {seed}: {} vs {best}",
                        result.probability
                    );
                    assert!(result.world.satisfies(&circuit).unwrap());
                    let decoded = result.world.probability(&weights).unwrap();
                    assert!((decoded - result.probability).abs() < 1e-9);
                }
                Err(InferError::ImpossibleEvidence) => {
                    assert_eq!(enumerate_best(&circuit, &weights), None, "seed {seed}");
                }
                Err(other) => panic!("seed {seed}: {other}"),
            }
        }
    }

    #[test]
    fn independent_variables_take_their_modal_value() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        circuit.set_output(x);
        let mut weights = Weights::new();
        weights.set(VarId(0), 0.4);
        weights.set(VarId(3), 0.9); // independent, mode = true
        weights.set(VarId(4), 0.1); // independent, mode = false
        let result = most_probable_world(&compile(&circuit), &weights, 22).unwrap();
        assert_eq!(result.world.get(VarId(0)), Some(true), "evidence forces x0");
        assert_eq!(result.world.get(VarId(3)), Some(true));
        assert_eq!(result.world.get(VarId(4)), Some(false));
        assert!((result.probability - 0.4 * 0.9 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn unsatisfiable_lineage_is_refused() {
        let mut circuit = Circuit::new();
        let f = circuit.add_const(false);
        circuit.set_output(f);
        assert!(matches!(
            most_probable_world(&compile(&circuit), &Weights::new(), 22),
            Err(InferError::ImpossibleEvidence)
        ));
    }
}
