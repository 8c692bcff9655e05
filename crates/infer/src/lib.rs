#![warn(missing_docs)]
//! # stuc-infer — posterior inference on compiled lineage circuits
//!
//! Weighted model counting answers one question about an uncertain
//! database: *what is the probability that the query holds?* But the same
//! message-passing structure that computes that number — the dense-table
//! sweep over a tree decomposition of the lineage circuit
//! ([`stuc_circuit::plan::SweepPlan`]) — supports a whole family of richer
//! workloads, the "next-step" tasks the paper's line of work calls out
//! (sampling, ranked answers, explanations). This crate opens three of
//! them, all running at compiled-plan speed on a
//! [`stuc_circuit::compiled::CompiledCircuit`]:
//!
//! * [`marginals`](fn@marginals) — the **backward (outward) sweep**: after
//!   one table-retaining upward pass, a single reverse traversal combines
//!   upward and downward messages into the posterior marginal
//!   `P(fact | query)` of *every* fact variable at once, ~2 sweeps total
//!   instead of one conditioned re-evaluation per fact.
//! * [`WorldSampler`] — **exact world sampling**: top-down stochastic
//!   descent through the retained tables draws i.i.d. possible worlds
//!   exactly proportional to their probability, conditioned on the query
//!   holding, with a seedable [`rand::rngs::SplitMix64`] stream and a batch
//!   API ([`sample_worlds`]).
//! * [`most_probable_world`] — **max-product (Viterbi)**: the same sweep in
//!   the [`stuc_circuit::plan::MaxProduct`] semiring, decoded by an argmax
//!   descent, returns the single most probable world satisfying the query
//!   and its probability.
//!
//! Fact variables the lineage never mentions are independent of the
//! evidence, so their posterior is their prior; all three tasks handle them
//! directly from the weight table (prior marginal, Bernoulli draw, argmax
//! value) and report over the *full* variable set.
//!
//! Every result carries an [`InferenceReport`] saying how it was computed:
//! sweeps run, dense tables retained, and wall time. All three tasks run on
//! the compiled plan, with no fallback: a circuit too wide to plan, a
//! tripped budget or an injected fault while building the plan surfaces as
//! [`InferError::Wmc`]. The engine in `stuc-core` surfaces all of this as
//! `Engine::marginals`, `Engine::sample_worlds` and
//! `Engine::most_probable_world`, sharing its compiled-lineage cache so one
//! cached compilation serves WMC and every inference mode.

pub mod marginals;
pub mod mpe;
pub mod report;
pub mod sampler;
pub mod world;

pub use marginals::{marginals, Marginals};
pub use mpe::{most_probable_world, MostProbableWorld};
pub use report::InferenceReport;
pub use sampler::{sample_worlds, SampledWorlds, WorldSampler};
pub use world::World;

use std::sync::Arc;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::plan::SweepPlan;
use stuc_circuit::wmc::WmcError;

stuc_errors::stuc_error! {
    /// Why a posterior-inference task could not run.
    #[derive(Clone, PartialEq)]
    pub enum InferError {
        /// The underlying counting sweep refused (width over the budget, a
        /// variable without a weight, ...).
        Wmc(WmcError),
        /// The evidence — the query lineage — has probability 0, so the
        /// posterior distribution conditioned on it is undefined: there is
        /// nothing to marginalise over, sample from, or maximise.
        ImpossibleEvidence,
    }
    display {
        Self::Wmc(e) => "{e}",
        Self::ImpossibleEvidence => "the query lineage has probability 0; posterior inference conditioned on it is undefined",
    }
    from {
        WmcError => Wmc,
    }
}

/// The compiled sweep plan every task runs on, within the caller's
/// evaluation-time width budget — the same refusal the counting back-end
/// produces ([`CompiledCircuit::ensure_width`]).
pub(crate) fn plan_within(
    compiled: &CompiledCircuit,
    max_bag_size: usize,
) -> Result<&Arc<SweepPlan>, InferError> {
    compiled.ensure_width(max_bag_size)?;
    Ok(compiled.try_sweep_plan()?)
}
