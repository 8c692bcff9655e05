//! # stuc-query — conjunctive queries, lineage, and the extensional baseline
//!
//! The query-language layer of STUC. The paper's data-complexity results are
//! realised for conjunctive queries by `stuc-automata`'s lineage run; this
//! crate provides the *relational* query machinery that run is compared
//! against and composed with:
//!
//! * [`cq`] — conjunctive queries (existentially quantified conjunctions of
//!   atoms), with a small parser and free variables for non-Boolean queries;
//! * [`eval`] — the one homomorphism search: an indexed backtracking join
//!   on plain instances, run in query order for all matches or pivoted on
//!   inserted facts for the matches an insertion adds (the delta join);
//! * [`lineage`] — lineage circuits of Boolean CQs over TID, c- and
//!   pcc-instances: the OR-over-matches / AND-over-atoms circuit whose
//!   probability is the query probability (the "intensional" method),
//!   built for every caller by one builder, [`lineage::match_lineage`];
//! * [`safe`] — the hierarchical-query test and safe-plan ("extensional")
//!   probability evaluation for self-join-free CQs on TIDs, the classic
//!   Dalvi–Suciu tractable case used as a baseline in experiment E5;
//! * [`datalog`] — positive Datalog programs (parsing, fixpoint evaluation,
//!   and the monadic / guarded / frontier-guarded fragment tests the paper
//!   points at as realistic query languages);
//! * [`datalog_provenance`] — provenance circuits for Datalog-derived facts
//!   over TID and c-instances (the circuits-for-Datalog-provenance
//!   construction the paper relates its lineages to).
//!
//! ## Example
//!
//! ```
//! use stuc_query::cq::ConjunctiveQuery;
//! use stuc_data::instance::Instance;
//! use stuc_query::eval::query_holds;
//!
//! let mut inst = Instance::new();
//! inst.add_fact_named("R", &["a", "b"]);
//! inst.add_fact_named("S", &["b", "c"]);
//! let q = ConjunctiveQuery::parse("R(x, y), S(y, z)").unwrap();
//! assert!(query_holds(&inst, &q));
//! ```

pub mod cq;
pub mod datalog;
pub mod datalog_provenance;
pub mod eval;
pub mod lineage;
pub mod safe;

pub use cq::{Atom, ConjunctiveQuery, Term};
pub use datalog::{DatalogProgram, DatalogRule};
pub use datalog_provenance::DatalogProvenance;
pub use eval::{all_answers, query_holds};
pub use lineage::{cinstance_lineage, tid_lineage};
pub use safe::{is_hierarchical, safe_plan_probability};
