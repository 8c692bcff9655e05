//! # stuc-automata — the Courcelle-style lineage run
//!
//! The technical core of the paper's Theorems 1 and 2: "one compiles the MSO
//! query q, in a data-independent fashion, to a tree automaton A which can
//! read tree encodings of bounded-treewidth instances [...] we show that A
//! can also be run on an uncertain instance I, producing a lineage circuit C
//! that describes which possible worlds of I are accepted by A."
//!
//! The queries compiled here are Boolean conjunctive queries; the engine
//! builds their unions and ground negation from these runs. [`courcelle`]
//! anchors the facts of a bounded-treewidth instance at the bags of a tree
//! decomposition and runs the query's automaton (whose states are
//! partial-match types) bottom-up over what the query can reach, producing a
//! lineage circuit over per-fact variables. Counting that circuit over its
//! own bounded-width decomposition is Theorem 1 on tuple-independent
//! instances; substituting annotation circuits for the fact variables is
//! Theorem 2.
//!
//! ## Example: the lineage of a two-hop path on a TID
//!
//! ```
//! use stuc_automata::courcelle::cq_lineage_circuit;
//! use stuc_circuit::compiled::one_shot_probability;
//! use stuc_data::tid::TidInstance;
//! use stuc_graph::{decompose_with_heuristic, EliminationHeuristic};
//! use stuc_query::cq::ConjunctiveQuery;
//!
//! // The path a -> b -> c, each edge present with probability 0.5.
//! let mut tid = TidInstance::new();
//! tid.add_fact_named("R", &["a", "b"], 0.5);
//! tid.add_fact_named("R", &["b", "c"], 0.5);
//! let td = decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinFill);
//!
//! let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
//! let lineage = cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
//! let p = one_shot_probability(&lineage, &tid.fact_weights()).unwrap();
//! assert!((p - 0.25).abs() < 1e-12); // both edges must be present
//! ```

pub mod courcelle;
