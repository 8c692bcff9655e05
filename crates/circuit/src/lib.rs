#![warn(missing_docs)]
//! # stuc-circuit — Boolean circuits, provenance, and exact probability
//!
//! Lineage circuits are the central data structure of the paper's approach:
//! running a tree automaton over the tree encoding of a bounded-treewidth
//! uncertain instance produces a Boolean circuit `C` describing *which
//! possible worlds satisfy the query*; because `C` itself has bounded
//! treewidth, the probability that the query holds can be computed exactly
//! by message passing over a tree decomposition of `C` (Theorems 1 and 2).
//!
//! This crate provides:
//!
//! * [`circuit`] — the circuit representation (inputs, constants, AND, OR,
//!   NOT gates), evaluation, substitution and structural statistics.
//! * [`semiring`] — semiring provenance for monotone circuits (Boolean,
//!   counting, tropical, Why-provenance), matching the paper's observation
//!   that lineage circuits are provenance circuits for absorptive semirings.
//! * [`weights`] — probability assignments to input variables.
//! * [`identity`] — content identities: the memoised `(primary, check)`
//!   hash pair that keys the engine's caches per instance.
//! * [`enumeration`] — the naive possible-world enumeration baseline
//!   (exponential; the paper's "cannot represent them all, much less query
//!   them" strawman).
//! * [`dpll`] — a Shannon-expansion / DPLL-style weighted model counter with
//!   constant propagation and memoisation (a knowledge-compilation-flavoured
//!   baseline).
//! * [`wmc`] — the flagship back-end's vocabulary: the circuit graph, the
//!   errors and reports of exact weighted model counting by dynamic
//!   programming over a (nice) tree decomposition of the circuit graph,
//!   i.e. the "standard message passing techniques" of the paper, and the
//!   interpreted reference sweep the tests check the plan against.
//! * [`compiled`] — compiled circuits: the structural half of the treewidth
//!   back-end (normalisation, circuit-graph decomposition) precomputed once
//!   behind an [`std::sync::Arc`], so probability re-evaluation under new
//!   weights is a single message-passing sweep. This is what the engine's
//!   lineage cache and batch evaluation share across queries and threads;
//!   [`compiled::one_shot_probability`] serves circuits evaluated once.
//! * [`plan`] — the compiled sweep plan behind that sweep: dense tables,
//!   precomputed mask permutations, bit-position constraint checks, an
//!   allocation-free scratch arena, and one forward kernel, generic over
//!   the semiring and the lane count, behind the single-scenario run, the
//!   K-lane run (`run_many`) and the table-retaining run of posterior
//!   inference (`run_retained`).
//! * [`builder`] — convenience builders for common circuit shapes used by
//!   tests, examples and benchmarks.
//!
//! ## Example
//!
//! ```
//! use stuc_circuit::circuit::{Circuit, VarId};
//! use stuc_circuit::weights::Weights;
//! use stuc_circuit::compiled::one_shot_probability;
//!
//! // (x AND y) OR z
//! let mut c = Circuit::new();
//! let x = c.add_input(VarId(0));
//! let y = c.add_input(VarId(1));
//! let z = c.add_input(VarId(2));
//! let and = c.add_and(vec![x, y]);
//! let or = c.add_or(vec![and, z]);
//! c.set_output(or);
//!
//! let mut w = Weights::new();
//! w.set(VarId(0), 0.5);
//! w.set(VarId(1), 0.5);
//! w.set(VarId(2), 0.5);
//!
//! let p = one_shot_probability(&c, &w).unwrap();
//! assert!((p - 0.625).abs() < 1e-12);
//! ```

pub mod builder;
pub mod circuit;
pub mod compiled;
pub mod dpll;
pub mod enumeration;
pub mod identity;
pub mod plan;
pub mod semiring;
pub mod weights;
pub mod wmc;

pub use circuit::{Circuit, Gate, GateId, VarId};
pub use compiled::{
    one_shot_probability, CompiledCircuit, OneShotError, WmcManyReport, DEFAULT_WIDTH_BUDGET,
};
pub use plan::{SweepArena, SweepPlan};
pub use weights::{ProbabilityError, Weights};
