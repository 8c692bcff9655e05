//! # stuc-graph — graphs, tree decompositions and treewidth
//!
//! This crate is the structural substrate of STUC. The paper's central claim
//! (Theorems 1 and 2) is that query evaluation on uncertain data is tractable
//! when the data — an instance together with its uncertainty annotations —
//! admits a *tree decomposition of bounded width*. Everything downstream
//! (tree encodings, automaton runs, message passing over lineage circuits)
//! consumes the types defined here.
//!
//! ## Contents
//!
//! * [`graph`] — a simple undirected graph with stable vertex identifiers.
//! * [`decomposition`] — tree decompositions, their validation and width.
//! * [`elimination`] — elimination orderings and the classic greedy
//!   heuristics (min-degree, min-fill) that build decompositions from them.
//! * [`nice`] — *nice* tree decompositions (leaf / introduce / forget / join
//!   nodes), the form consumed by dynamic programming.
//! * [`repair`] — incremental repair of existing decompositions under graph
//!   growth (leaf-bag attachment, path augmentation, bag-size budgets), the
//!   substrate of the engine's update path.
//! * [`groups`] — values grouped by a dense key in one flat buffer (the
//!   counting sort behind per-vertex bag lists and child lists).
//! * [`exact`] — exact treewidth for small graphs and lower bounds, used to
//!   assess heuristic quality in tests and ablations.
//! * [`generators`] — deterministic graph generators (paths, cycles, grids,
//!   trees, partial k-trees, random graphs) used by tests and benchmarks.
//!
//! ## Example
//!
//! ```
//! use stuc_graph::graph::Graph;
//! use stuc_graph::elimination::{EliminationHeuristic, decompose_with_heuristic};
//!
//! // A 4-cycle has treewidth 2.
//! let mut g = Graph::new();
//! let v: Vec<_> = (0..4).map(|_| g.add_vertex()).collect();
//! for i in 0..4 {
//!     g.add_edge(v[i], v[(i + 1) % 4]);
//! }
//! let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
//! assert!(td.validate(&g).is_ok());
//! assert_eq!(td.width(), 2);
//! ```

pub mod decomposition;
pub mod elimination;
pub mod exact;
pub mod generators;
pub mod graph;
pub mod groups;
pub mod nice;
pub mod repair;

pub use decomposition::TreeDecomposition;
pub use elimination::{decompose_with_heuristic, EliminationHeuristic};
pub use graph::{Graph, VertexId};
pub use nice::NiceDecomposition;
pub use repair::{repair_decomposition, RepairError, RepairReport};
