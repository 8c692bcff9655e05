//! Hybrid evaluation: exact on the low-treewidth tentacles, sampling on the
//! high-treewidth core.
//!
//! The paper (Section 2.2) proposes to "structure uncertain instances as a
//! high-treewidth core and low-treewidth tentacles, and evaluate queries by
//! combining [the exact method] on the tentacles and sampling-based
//! approximate methods on the core". This module implements that idea for
//! TID instances:
//!
//! 1. core facts are identified (either given explicitly or detected as the
//!    facts all of whose constants survive iterated low-degree peeling of
//!    the Gaifman graph);
//! 2. the presence of the core facts is sampled Monte-Carlo style;
//! 3. conditioned on each sample, the residual uncertainty only involves
//!    tentacle facts, whose lineage is evaluated *exactly*;
//! 4. the average over samples estimates the query probability — with much
//!    lower variance than sampling everything, because the tentacle part is
//!    integrated out exactly (Rao–Blackwellisation).

use crate::engine::StucError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use stuc_circuit::circuit::Circuit;
use stuc_circuit::dpll::DpllCounter;
use stuc_circuit::weights::Weights;
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;
use stuc_graph::graph::VertexId;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::eval::all_matches;
use stuc_query::lineage::match_lineage;

/// Identifies core facts by iteratively peeling vertices of degree at most
/// `peel_degree` from the Gaifman graph: facts whose constants all survive
/// the peeling belong to the core.
pub fn detect_core_facts(tid: &TidInstance, peel_degree: usize) -> BTreeSet<FactId> {
    let graph = tid.gaifman_graph();
    let n = graph.vertex_count();
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(VertexId(v))).collect();
    loop {
        let mut changed = false;
        for v in 0..n {
            if alive[v] && degree[v] <= peel_degree {
                alive[v] = false;
                changed = true;
                for u in graph.neighbors(VertexId(v)) {
                    if alive[u.0] {
                        degree[u.0] = degree[u.0].saturating_sub(1);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    tid.instance()
        .facts()
        .filter(|(_, fact)| !fact.args.is_empty() && fact.args.iter().all(|c| alive[c.0]))
        .map(|(id, _)| id)
        .collect()
}

/// The result of a hybrid evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridReport {
    /// The estimated query probability.
    pub probability: f64,
    /// Number of Monte-Carlo samples drawn for the core facts.
    pub samples: usize,
    /// Number of facts treated as core (sampled).
    pub core_fact_count: usize,
    /// Number of facts treated as tentacles (integrated exactly).
    pub tentacle_fact_count: usize,
}

/// Hybrid exact/sampling evaluation of a Boolean CQ on a TID instance.
///
/// `core_facts` are sampled; everything else is handled exactly per sample.
pub fn hybrid_probability(
    tid: &TidInstance,
    query: &ConjunctiveQuery,
    core_facts: &BTreeSet<FactId>,
    samples: usize,
    seed: u64,
) -> Result<HybridReport, StucError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let matches = all_matches(tid.instance(), query);
    let mut accumulator = 0.0;
    for _ in 0..samples {
        // Sample the presence of every core fact.
        let mut core_present: BTreeSet<FactId> = BTreeSet::new();
        for &f in core_facts {
            if rng.random::<f64>() < tid.probability(f) {
                core_present.insert(f);
            }
        }
        // Residual lineage over tentacle facts only: a match contributes if
        // all its core witnesses are present; its tentacle witnesses stay
        // symbolic.
        let residual_matches = matches
            .iter()
            .filter(|m| {
                m.witnesses
                    .iter()
                    .all(|w| !core_facts.contains(w) || core_present.contains(w))
            })
            .map(|m| {
                m.witnesses
                    .iter()
                    .copied()
                    .filter(|w| !core_facts.contains(w))
                    .collect::<Vec<_>>()
            });
        let mut weights = Weights::new();
        let circuit = match_lineage(Circuit::new(), residual_matches, |circuit, f| {
            weights.set(tid.fact_event(f), tid.probability(f));
            circuit.add_input(tid.fact_event(f))
        });
        // The tentacle lineage is small and tree-like: DPLL handles it
        // exactly (and cheaply); this integrates the tentacles out.
        let residual = DpllCounter::default().probability(&circuit, &weights)?;
        accumulator += residual;
    }
    Ok(HybridReport {
        probability: accumulator / samples.max(1) as f64,
        samples,
        core_fact_count: core_facts.len(),
        tentacle_fact_count: tid.fact_count() - core_facts.len(),
    })
}

/// Pure Monte-Carlo baseline: sample *every* fact and evaluate the query per
/// sampled world. Same sample budget, higher variance — the comparison the
/// benchmark E7 reports.
pub fn naive_sampling_probability(
    tid: &TidInstance,
    query: &ConjunctiveQuery,
    samples: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let matches = all_matches(tid.instance(), query);
    let mut hits = 0usize;
    for _ in 0..samples {
        let present: BTreeSet<FactId> = tid
            .instance()
            .facts()
            .filter(|(id, _)| rng.random::<f64>() < tid.probability(*id))
            .map(|(id, _)| id)
            .collect();
        if matches
            .iter()
            .any(|m| m.witnesses.iter().all(|w| present.contains(w)))
        {
            hits += 1;
        }
    }
    hits as f64 / samples.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BackendKind, Engine};
    use crate::workloads;

    #[test]
    fn core_detection_finds_dense_part() {
        let tid = workloads::core_tentacle_tid(6, 0.9, 3, 4, 0.5, 3);
        let core = detect_core_facts(&tid, 1);
        assert!(!core.is_empty());
        // Tentacle facts (R relation) must not be in the core.
        let r = tid.instance().find_relation("R").unwrap();
        for f in tid.instance().facts_of(r) {
            assert!(
                !core.contains(f),
                "tentacle fact {f:?} wrongly classified as core"
            );
        }
    }

    #[test]
    fn hybrid_estimate_matches_exact_on_small_instances() {
        let tid = workloads::core_tentacle_tid(4, 1.0, 2, 3, 0.5, 9);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let core = detect_core_facts(&tid, 1);
        let exact = Engine::builder()
            .backend(BackendKind::Enumeration)
            .build()
            .evaluate(&tid, &query)
            .unwrap()
            .probability;
        let hybrid = hybrid_probability(&tid, &query, &core, 600, 42).unwrap();
        assert!(
            (hybrid.probability - exact).abs() < 0.05,
            "hybrid {} vs exact {exact}",
            hybrid.probability
        );
    }

    #[test]
    fn hybrid_with_empty_core_is_exact() {
        // No core facts: a single sample integrates everything exactly.
        let tid = workloads::path_tid(6, 0.5, 8);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let exact = Engine::new().evaluate(&tid, &query).unwrap().probability;
        let hybrid = hybrid_probability(&tid, &query, &BTreeSet::new(), 1, 0).unwrap();
        assert!((hybrid.probability - exact).abs() < 1e-9);
    }

    #[test]
    fn naive_sampling_converges_roughly() {
        let tid = workloads::path_tid(5, 0.5, 4);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let exact = Engine::new().evaluate(&tid, &query).unwrap().probability;
        let estimate = naive_sampling_probability(&tid, &query, 4000, 7);
        assert!((estimate - exact).abs() < 0.05, "{estimate} vs {exact}");
    }

    #[test]
    fn hybrid_has_lower_error_than_naive_at_equal_budget() {
        // Average absolute error over several seeds; the hybrid estimator
        // integrates the tentacles exactly so it should not be worse.
        let tid = workloads::core_tentacle_tid(5, 1.0, 3, 3, 0.5, 13);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let core = detect_core_facts(&tid, 1);
        let exact = Engine::builder()
            .backend(BackendKind::Enumeration)
            .build()
            .evaluate(&tid, &query)
            .unwrap()
            .probability;
        let budget = 120;
        let mut hybrid_error = 0.0;
        let mut naive_error = 0.0;
        for seed in 0..8 {
            let h = hybrid_probability(&tid, &query, &core, budget, seed).unwrap();
            hybrid_error += (h.probability - exact).abs();
            naive_error += (naive_sampling_probability(&tid, &query, budget, seed) - exact).abs();
        }
        assert!(
            hybrid_error <= naive_error + 0.05,
            "hybrid {hybrid_error} vs naive {naive_error}"
        );
    }
}
