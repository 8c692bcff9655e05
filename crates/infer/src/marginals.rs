//! All-fact posterior marginals by one backward sweep.
//!
//! The naive route to `P(fact | query)` is one conditioned counting sweep
//! per fact: fix the fact true, re-count, divide by `P(query)` — n + 1
//! sweeps for n facts. The backward (outward) pass computes the same n
//! posteriors in **two** sweeps: the upward pass retains every node table
//! ([`stuc_circuit::plan::SweepPlan::run_retained`]), and a single reverse
//! traversal pushes downward messages from the root, reading off each
//! variable's unnormalised marginal at the unique edge where its input gate
//! leaves scope
//! ([`stuc_circuit::plan::SweepPlan::marginal_numerators`]).

use crate::report::InferenceReport;
use crate::{plan_within, InferError};
use std::collections::BTreeMap;
use stuc_circuit::circuit::VarId;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::plan::SumProduct;
use stuc_circuit::weights::Weights;
use stuc_obs::Stopwatch;

/// The posterior marginal `P(v | query)` of every fact variable, together
/// with the evidence probability and the computation's provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginals {
    /// `P(query)` — the evidence mass everything is normalised by.
    pub evidence_probability: f64,
    marginals: BTreeMap<VarId, f64>,
    /// How the marginals were computed (sweeps, retention, wall time).
    pub report: InferenceReport,
}

impl Marginals {
    /// The posterior of `v`, if it was among the weighted variables.
    pub fn get(&self, v: VarId) -> Option<f64> {
        self.marginals.get(&v).copied()
    }

    /// Iterator over `(variable, posterior)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.marginals.iter().map(|(&v, &p)| (v, p))
    }

    /// Number of variables with a posterior.
    pub fn len(&self) -> usize {
        self.marginals.len()
    }

    /// True when no variable has a posterior (an unweighted, constant
    /// lineage).
    pub fn is_empty(&self) -> bool {
        self.marginals.is_empty()
    }
}

/// Computes the posterior marginal `P(v | lineage true)` of **every**
/// weighted variable of `compiled` under `weights`, in one upward + one
/// backward dense sweep (≈2–3× the cost of a single WMC sweep, versus one
/// conditioned sweep *per variable* without the backward pass).
///
/// Variables in `weights` that the circuit never reads are independent of
/// the evidence; their posterior is their prior, included so the result
/// covers the full fact set.
///
/// Fails with [`InferError::ImpossibleEvidence`] when `P(lineage) = 0`, and
/// with [`InferError::Wmc`] when the circuit exceeds `max_bag_size` (capped
/// at [`stuc_circuit::plan::MAX_PLANNED_BAG`]) or its plan cannot be built.
pub fn marginals(
    compiled: &CompiledCircuit,
    weights: &Weights,
    max_bag_size: usize,
) -> Result<Marginals, InferError> {
    let started = Stopwatch::start();
    let plan = plan_within(compiled, max_bag_size)?;
    let retained = plan.run_retained::<SumProduct>(weights)?;
    let evidence = retained.value();
    if evidence <= 0.0 {
        return Err(InferError::ImpossibleEvidence);
    }
    let mut posteriors: BTreeMap<VarId, f64> = plan
        .marginal_numerators(&retained)
        .into_iter()
        .map(|(v, numerator)| (v, (numerator / evidence).clamp(0.0, 1.0)))
        .collect();

    // Variables the lineage never reads are independent of the evidence:
    // posterior = prior.
    for (v, prior) in weights.iter() {
        posteriors.entry(v).or_insert(prior);
    }

    Ok(Marginals {
        evidence_probability: evidence,
        marginals: posteriors,
        report: InferenceReport {
            sweeps_run: 2,
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
    use stuc_circuit::circuit::Circuit;
    use stuc_circuit::enumeration::probability_by_enumeration;
    use stuc_circuit::wmc::WmcError;

    fn compile(circuit: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default()).unwrap()
    }

    /// Ground-truth posterior by world enumeration.
    fn enumerated_posterior(circuit: &Circuit, weights: &Weights, v: VarId) -> f64 {
        let z = probability_by_enumeration(circuit, weights).unwrap();
        let prior = weights.weight(v, true).unwrap();
        let mut fixed = weights.clone();
        fixed.fix(v, true);
        prior * probability_by_enumeration(circuit, &fixed).unwrap() / z
    }

    #[test]
    fn backward_sweep_matches_enumerated_posteriors() {
        for seed in 0..12 {
            let circuit = builder::random_circuit(7, 12, seed);
            let weights = Weights::uniform(circuit.variables(), 0.3 + 0.05 * (seed % 7) as f64);
            let compiled = compile(&circuit);
            let result = match marginals(&compiled, &weights, 22) {
                Ok(result) => result,
                Err(InferError::ImpossibleEvidence) => continue,
                Err(other) => panic!("{other}"),
            };
            assert_eq!(result.report.sweeps_run, 2);
            assert!(result.report.tables_retained > 0);
            for &v in &circuit.variables() {
                let expected = enumerated_posterior(&circuit, &weights, v);
                let got = result.get(v).expect("every circuit variable covered");
                assert!(
                    (got - expected).abs() < 1e-9,
                    "seed {seed}, {v}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn unread_variables_keep_their_prior() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        circuit.set_output(x);
        let mut weights = Weights::new();
        weights.set(VarId(0), 0.5);
        weights.set(VarId(7), 0.125); // never read by the lineage
        let result = marginals(&compile(&circuit), &weights, 22).unwrap();
        assert!((result.get(VarId(0)).unwrap() - 1.0).abs() < 1e-12);
        assert!((result.get(VarId(7)).unwrap() - 0.125).abs() < 1e-12);
        assert!((result.evidence_probability - 0.5).abs() < 1e-12);
        assert_eq!(result.len(), 2);
        assert!(!result.is_empty());
        assert_eq!(result.iter().count(), 2);
    }

    #[test]
    fn impossible_evidence_is_refused() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        let not = circuit.add_not(x);
        let and = circuit.add_and(vec![x, not]);
        circuit.set_output(and);
        let weights = Weights::uniform([VarId(0)], 0.5);
        assert!(matches!(
            marginals(&compile(&circuit), &weights, 22),
            Err(InferError::ImpossibleEvidence)
        ));
    }

    #[test]
    fn width_budget_is_enforced() {
        let circuit = builder::majority_like_dense_circuit(10, 3);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        assert!(matches!(
            marginals(&compile(&circuit), &weights, 2),
            Err(InferError::Wmc(WmcError::WidthTooLarge { .. }))
        ));
    }
}
