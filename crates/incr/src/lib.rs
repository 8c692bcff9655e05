//! # stuc-incr — incremental updates for uncertain instances
//!
//! A production engine serving live traffic cannot rebuild the world per
//! tuple: the challenges survey (Amarilli–Maniu–Monet) names *maintaining
//! decompositions and provenance under updates* as the open systems problem,
//! and update support is what made U-relations usable in practice. This
//! crate is the update half of that story; the engine in `stuc-core` wires
//! it to the caches.
//!
//! * [`delta`] — the typed update model: [`Delta`] transactions of
//!   [`DeltaOp::InsertFact`] / [`DeltaOp::DeleteFact`] /
//!   [`DeltaOp::SetProbability`], with mutation-site probability validation
//!   ([`UpdateError`]).
//! * [`updatable`] — the [`Updatable`] trait and its implementations for
//!   TID, pc-, pcc-instances and PrXML documents. Applying a delta reports
//!   a [`StructureImpact`] (what the decomposition cache may keep: nothing
//!   changed / shrunk in place / grown by these cliques / opaque) and a
//!   [`LineagePatch`] (reuse verbatim / rewire inputs and rebuild on new
//!   matches / rebuild). Whether an insert adds a match at all
//!   ([`Updatable::adds_match`]) is the pivoted delta join of
//!   [`stuc_query::eval::delta_match_witnesses`] stopped at its first
//!   witness, without re-enumerating the old matches.
//! * [`log`] — [`UpdateLog`], an append-only record of applied deltas that
//!   can replay itself onto a replica.
//!
//! ## Example
//!
//! ```
//! use stuc_incr::{Delta, Updatable};
//! use stuc_data::instance::FactId;
//! use stuc_data::tid::TidInstance;
//!
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a", "b"], 0.5);
//! tid.add_fact_named("R", &["b", "c"], 0.5);
//!
//! let delta = Delta::new()
//!     .set_probability(FactId(0), 0.9)
//!     .insert("R", &["c", "d"], 0.25);
//! let application = tid.apply_delta(&delta).unwrap();
//! assert_eq!(application.reweighted, 1);
//! assert_eq!(application.inserted, vec![FactId(2)]);
//! assert_eq!(tid.fact_count(), 3);
//! ```

#![warn(missing_docs)]

pub mod delta;
pub mod log;
pub mod updatable;

pub use delta::{Delta, DeltaOp, UpdateError};
pub use log::{UpdateLog, UpdateRecord};
pub use updatable::{DeltaApplication, LineagePatch, LineagePatchStep, StructureImpact, Updatable};
