//! # stuc-core — the unified engine over structurally tractable uncertain data
//!
//! The paper's headline contribution as a single façade:
//!
//! ```text
//! uncertain representation ──► tree decomposition ──► automaton/lineage ──►
//!   lineage circuit ──► exact probability (back-end auto-selected)
//! ```
//!
//! * [`engine`] — **the** public entry point: [`engine::Engine::evaluate`]
//!   covers TID, c-, pc-, pcc-instances and PrXML documents through the
//!   [`engine::Representation`] trait, dispatching to pluggable
//!   [`engine::Backend`]s (safe plan, treewidth WMC, DPLL, enumeration)
//!   under an automatic selection policy, with a fingerprint-keyed
//!   decomposition cache and a unified [`engine::StucError`].
//! * [`hybrid`] — the partial-decomposition idea sketched in Section 2.2:
//!   a high-treewidth core handled by sampling, low-treewidth tentacles
//!   handled exactly.
//! * [`workloads`] — deterministic TID / pcc workload generators shared by
//!   the examples, the integration tests and the benchmark harness.

#![warn(missing_docs)]

pub mod engine;
pub mod hybrid;
pub mod serve;
pub mod workloads;

pub use engine::{
    Backend, BackendKind, BackendPolicy, BatchReport, Engine, EngineBuilder,
    EvaluationReport as EngineReport, ReprKind, Representation, StucError,
};
