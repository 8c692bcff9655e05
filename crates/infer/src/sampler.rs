//! Exact sampling of possible worlds, conditioned on the query holding.
//!
//! One table-retaining sum-product sweep turns the compiled plan into a
//! sampler: a top-down descent re-reads the stored tables, drawing the root
//! bag's assignment proportional to its weighted table and each forgotten
//! gate's value proportional to its two branch weights — the
//! forward-filter / backward-sample scheme of junction trees. Every descent
//! is an **exact** i.i.d. draw from `P(world | query true)`; no Markov
//! chain, no rejection, cost O(plan) per world after the one-off sweep.

use crate::report::InferenceReport;
use crate::world::World;
use crate::{plan_within, InferError};
use rand::rngs::SplitMix64;
use rand::Rng;
use std::sync::Arc;
use stuc_circuit::circuit::VarId;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::plan::{RetainedSweep, SumProduct, SweepPlan};
use stuc_circuit::weights::Weights;
use stuc_obs::Stopwatch;

/// An exact sampler of possible worlds conditioned on the compiled
/// lineage being true.
///
/// Construction pays one table-retaining sweep; every
/// [`WorldSampler::sample`] after that is an independent exact draw. The
/// sampler owns its retained tables and its [`SplitMix64`] stream, so it
/// can outlive the engine call that built it and replay deterministically
/// from its seed.
///
/// **Cloning replays, it does not fork**: a clone carries the parent's RNG
/// state and will emit the *same* world sequence. To draw disjoint streams
/// from one setup sweep (e.g. one clone per thread), call
/// [`WorldSampler::reseed`] on each clone with a distinct seed.
#[derive(Debug, Clone)]
pub struct WorldSampler {
    plan: Arc<SweepPlan>,
    retained: RetainedSweep,
    /// The root-input-weighted root table, computed once at construction so
    /// each draw pays only the O(plan nodes) descent.
    root_weights: Vec<f64>,
    /// Inclusive prefix sums of `root_weights`: the root draw is one
    /// `partition_point` binary search instead of a linear walk over the
    /// (up to `1 << bag`-entry) root table.
    root_cdf: Vec<f64>,
    /// Largest positive-weight root index — the clamp target for the
    /// floating-point slack at the very top of the CDF.
    root_fallback: usize,
    /// Variables the lineage never reads, sampled as independent
    /// Bernoulli(prior) coins.
    independent: Vec<(VarId, f64)>,
    rng: SplitMix64,
    evidence_probability: f64,
    report: InferenceReport,
}

impl WorldSampler {
    /// Builds a sampler for `compiled` under `weights`, seeding its RNG
    /// stream with `seed` (same seed, same worlds).
    ///
    /// Fails when the width exceeds `max_bag_size` or the plan cannot be
    /// built ([`InferError::Wmc`]), or when the lineage has probability 0
    /// ([`InferError::ImpossibleEvidence`]).
    pub fn new(
        compiled: &CompiledCircuit,
        weights: &Weights,
        max_bag_size: usize,
        seed: u64,
    ) -> Result<WorldSampler, InferError> {
        let started = Stopwatch::start();
        let plan = Arc::clone(plan_within(compiled, max_bag_size)?);
        let retained = plan.run_retained::<SumProduct>(weights)?;
        let root_weights = plan.weighted_root_table(&retained);
        let evidence_probability = retained.value();
        if evidence_probability <= 0.0 {
            return Err(InferError::ImpossibleEvidence);
        }
        let mut running = 0.0f64;
        let mut root_fallback = 0usize;
        let root_cdf: Vec<f64> = root_weights
            .iter()
            .enumerate()
            .map(|(index, &weight)| {
                if weight > 0.0 {
                    root_fallback = index;
                }
                running += weight;
                running
            })
            .collect();
        let circuit_vars = compiled.variables();
        let independent: Vec<(VarId, f64)> = weights
            .iter()
            .filter(|(v, _)| !circuit_vars.contains(v))
            .collect();
        let report = InferenceReport {
            sweeps_run: 1,
            tables_retained: retained.tables_retained(),
            table_entries: retained.table_entries(),
            lineage_cached: false,
            wall_time: started.elapsed(),
        };
        Ok(WorldSampler {
            plan,
            retained,
            root_weights,
            root_cdf,
            root_fallback,
            independent,
            rng: SplitMix64::new(seed),
            evidence_probability,
            report,
        })
    }

    /// `P(query)` — the probability mass of the worlds being sampled from.
    pub fn evidence_probability(&self) -> f64 {
        self.evidence_probability
    }

    /// Provenance of the sampler's setup sweep.
    pub fn report(&self) -> &InferenceReport {
        &self.report
    }

    /// Mutable access to the provenance report, for wrappers (like the
    /// engine) that annotate it — e.g. flagging that the compiled lineage
    /// came from a cache.
    pub fn report_mut(&mut self) -> &mut InferenceReport {
        &mut self.report
    }

    /// Restarts the sampler's RNG stream from `seed` without repeating the
    /// setup sweep — how clones of one sampler are turned into independent
    /// streams.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SplitMix64::new(seed);
    }

    /// Draws one world, exactly proportional to its probability among the
    /// worlds where the query holds.
    pub fn sample(&mut self) -> World {
        // Root choice by binary search over the precomputed CDF (the root
        // table can be huge; every later choice point is a 2-entry slice).
        let total = *self.root_cdf.last().expect("plans are never empty");
        let target = self.rng.random::<f64>() * total;
        let root_pick = self
            .root_cdf
            .partition_point(|&c| c <= target)
            .min(self.root_fallback);
        let rng = &mut self.rng;
        let first = std::cell::Cell::new(Some(root_pick));
        let mut choose = |branch_weights: &[f64]| {
            first
                .take()
                .unwrap_or_else(|| weighted_choice(rng, branch_weights))
        };
        let mut values =
            self.plan
                .descend_with_root(&self.retained, &self.root_weights, &mut choose);
        for &(v, prior) in &self.independent {
            values.push((v, self.rng.random_bool(prior)));
        }
        World::from_values(values)
    }

    /// Draws `count` independent worlds (a convenience loop over
    /// [`WorldSampler::sample`]).
    pub fn sample_many(&mut self, count: usize) -> Vec<World> {
        (0..count).map(|_| self.sample()).collect()
    }
}

/// A batch of exactly sampled worlds with the evidence mass and the
/// provenance of the whole call (setup sweep + all descents).
#[derive(Debug, Clone)]
pub struct SampledWorlds {
    /// The sampled worlds, in draw order.
    pub worlds: Vec<World>,
    /// `P(query)` — the conditioning mass.
    pub evidence_probability: f64,
    /// Provenance: one retained sweep, `worlds.len()` descents.
    pub report: InferenceReport,
}

/// Samples `count` i.i.d. possible worlds conditioned on the lineage being
/// true — the batch API over [`WorldSampler`]. Deterministic per `seed`.
pub fn sample_worlds(
    compiled: &CompiledCircuit,
    weights: &Weights,
    max_bag_size: usize,
    count: usize,
    seed: u64,
) -> Result<SampledWorlds, InferError> {
    let started = Stopwatch::start();
    let mut sampler = WorldSampler::new(compiled, weights, max_bag_size, seed)?;
    let worlds = sampler.sample_many(count);
    let mut report = sampler.report().clone();
    report.wall_time = started.elapsed();
    Ok(SampledWorlds {
        worlds,
        evidence_probability: sampler.evidence_probability(),
        report,
    })
}

/// Draws an index proportional to the (unnormalised, non-negative) weights,
/// never returning a zero-weight index when any weight is positive.
fn weighted_choice(rng: &mut SplitMix64, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut target = rng.random::<f64>() * total;
    let mut fallback = 0usize;
    for (index, &weight) in weights.iter().enumerate() {
        if weight <= 0.0 {
            continue;
        }
        fallback = index;
        if target < weight {
            return index;
        }
        target -= weight;
    }
    // Floating-point slack at the top of the cumulative walk: return the
    // last positive-weight index.
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stuc_circuit::builder;
    use stuc_circuit::circuit::Circuit;

    fn compile(circuit: &Circuit) -> CompiledCircuit {
        CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default()).unwrap()
    }

    #[test]
    fn samples_are_deterministic_per_seed_and_satisfy_the_query() {
        let circuit = builder::random_circuit(6, 10, 3);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let compiled = compile(&circuit);
        let a = sample_worlds(&compiled, &weights, 22, 50, 42).unwrap();
        let b = sample_worlds(&compiled, &weights, 22, 50, 42).unwrap();
        assert_eq!(a.worlds, b.worlds, "same seed, same stream");
        let c = sample_worlds(&compiled, &weights, 22, 50, 43).unwrap();
        assert_ne!(a.worlds, c.worlds, "different seed, different stream");
        for world in &a.worlds {
            assert!(world.satisfies(&circuit).unwrap(), "conditioned on query");
        }
        assert_eq!(a.report.sweeps_run, 1);
    }

    #[test]
    fn empirical_frequency_tracks_the_exact_probability() {
        // (x0 AND x1) OR x2 with p = 0.5 each: conditioned on the output,
        // P(x2 | out) = P(x2) / P(out) = 0.5 / 0.625 = 0.8.
        let mut circuit = Circuit::new();
        let x0 = circuit.add_input(VarId(0));
        let x1 = circuit.add_input(VarId(1));
        let x2 = circuit.add_input(VarId(2));
        let and = circuit.add_and(vec![x0, x1]);
        let or = circuit.add_or(vec![and, x2]);
        circuit.set_output(or);
        let weights = Weights::uniform([VarId(0), VarId(1), VarId(2)], 0.5);
        let compiled = compile(&circuit);
        let mut sampler = WorldSampler::new(&compiled, &weights, 22, 7).unwrap();
        assert!((sampler.evidence_probability() - 0.625).abs() < 1e-12);
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| sampler.sample().is_present(VarId(2)))
            .count();
        let frequency = hits as f64 / n as f64;
        assert!(
            (frequency - 0.8).abs() < 0.02,
            "empirical {frequency} vs exact 0.8"
        );
    }

    #[test]
    fn independent_variables_are_sampled_from_their_prior() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        circuit.set_output(x);
        let mut weights = Weights::new();
        weights.set(VarId(0), 0.5);
        weights.set(VarId(9), 0.25); // not read by the lineage
        let compiled = compile(&circuit);
        let mut sampler = WorldSampler::new(&compiled, &weights, 22, 11).unwrap();
        let n = 20_000;
        let hits = (0..n)
            .filter(|_| sampler.sample().is_present(VarId(9)))
            .count();
        let frequency = hits as f64 / n as f64;
        assert!((frequency - 0.25).abs() < 0.02, "empirical {frequency}");
    }

    #[test]
    fn clones_replay_until_reseeded() {
        let circuit = builder::random_circuit(5, 8, 1);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let compiled = compile(&circuit);
        let mut parent = WorldSampler::new(&compiled, &weights, 22, 17).unwrap();
        let mut replay = parent.clone();
        let mut forked = parent.clone();
        forked.reseed(18);
        let from_parent = parent.sample_many(30);
        assert_eq!(
            from_parent,
            replay.sample_many(30),
            "a plain clone replays the parent's stream"
        );
        assert_ne!(
            from_parent,
            forked.sample_many(30),
            "a reseeded clone draws an independent stream"
        );
    }

    #[test]
    fn impossible_evidence_is_refused() {
        let mut circuit = Circuit::new();
        let t = circuit.add_const(false);
        circuit.set_output(t);
        let compiled = compile(&circuit);
        assert!(matches!(
            WorldSampler::new(&compiled, &Weights::new(), 22, 0),
            Err(InferError::ImpossibleEvidence)
        ));
    }

    #[test]
    fn weighted_choice_never_picks_zero_weight_indices() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..2000 {
            let picked = weighted_choice(&mut rng, &[0.0, 0.3, 0.0, 0.7, 0.0]);
            assert!(picked == 1 || picked == 3);
        }
    }
}
