//! The [`Representation`] trait: what the engine needs from an uncertain
//! data representation, and its implementations for every formalism in the
//! workspace (TID, c-/pc-/pcc-instances, probabilistic XML).
//!
//! The paper's central claim is that *one* structural pipeline — instance →
//! decomposition → automaton/lineage → circuit → weighted model counting —
//! uniformly covers all of these. This trait is that claim as an interface:
//! a representation must expose its structure graph (whose treewidth is the
//! tractability parameter), a lineage-circuit constructor for its query
//! language, and the probability weights of its lineage variables.

use super::error::StucError;
use std::borrow::Cow;
use std::sync::Arc;
use stuc_circuit::circuit::{Circuit, VarId};
use stuc_circuit::identity::ContentHasher;
use stuc_circuit::weights::Weights;
use stuc_circuit::wmc::circuit_graph;
use stuc_data::cinstance::{CInstance, PcInstance};
use stuc_data::pcc::PccInstance;
use stuc_data::tid::TidInstance;
use stuc_graph::graph::Graph;
use stuc_graph::TreeDecomposition;
use stuc_prxml::document::PrXmlDocument;
use stuc_prxml::queries::{query_lineage, PrxmlQuery};
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::lineage::{cinstance_lineage, pcc_lineage};

/// Which representation formalism an implementation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReprKind {
    /// Tuple-independent probabilistic instance (Theorem 1).
    Tid,
    /// c-instance: facts annotated with event formulas, no probabilities.
    CInstance,
    /// pc-instance: a c-instance whose events carry probabilities.
    PcInstance,
    /// pcc-instance: facts annotated with gates of a shared circuit
    /// (Theorem 2).
    PccInstance,
    /// Probabilistic XML document (`ind`/`mux`/`cie`).
    PrXml,
}

impl ReprKind {
    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ReprKind::Tid => "tid-instance",
            ReprKind::CInstance => "c-instance",
            ReprKind::PcInstance => "pc-instance",
            ReprKind::PccInstance => "pcc-instance",
            ReprKind::PrXml => "prxml-document",
        }
    }
}

impl std::fmt::Display for ReprKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A lineage circuit plus an optional note about how it was built (e.g. a
/// fallback from the decomposition-guided construction).
#[derive(Debug, Clone)]
pub struct LineageOutcome {
    /// Circuit over the representation's event variables, true exactly in
    /// the possible worlds where the query holds.
    pub circuit: Circuit,
    /// Strategy note for the evaluation report, if anything noteworthy
    /// happened during construction.
    pub note: Option<String>,
}

impl LineageOutcome {
    fn plain(circuit: Circuit) -> Self {
        LineageOutcome {
            circuit,
            note: None,
        }
    }
}

/// The input of the extensional (safe-plan) fast path: only representations
/// that are plain TID instances with conjunctive queries offer it.
#[derive(Debug, Clone, Copy)]
pub struct ExtensionalInput<'a> {
    /// The tuple-independent instance to evaluate on.
    pub tid: &'a TidInstance,
    /// The conjunctive query to evaluate.
    pub query: &'a ConjunctiveQuery,
}

/// An uncertain data representation the engine can evaluate queries on.
///
/// Implementations exist for [`TidInstance`], [`CInstance`], [`PcInstance`],
/// [`PccInstance`] and [`PrXmlDocument`]; user-defined representations only
/// need to answer the same four questions (structure, lineage, weights,
/// identity) to plug into [`crate::engine::Engine`] unchanged.
pub trait Representation: std::fmt::Debug {
    /// The query language this representation is evaluated against. The
    /// `Debug` bound gives the engine a deterministic rendering to
    /// fingerprint queries for its compiled-lineage cache; `Clone + Send +
    /// Sync + 'static` lets the cache keep the query itself, so
    /// [`crate::engine::Engine::apply_update`] can ask whether an insert
    /// gave a cached entry a new match, and rebuild it, when the instance
    /// changes.
    type Query: std::fmt::Debug + Clone + Send + Sync + 'static;

    /// Which formalism this is (used in reports and error messages).
    fn kind(&self) -> ReprKind;

    /// Number of facts (or document nodes) — reported, never interpreted.
    fn fact_count(&self) -> usize;

    /// The graph whose treewidth is the representation's structural
    /// tractability parameter: the Gaifman graph for TID and c-instances,
    /// the joint instance+circuit graph for pcc-instances (Theorem 2), the
    /// presence-circuit graph for PrXML.
    ///
    /// TID, c- and pc-instances hand out their instance's memoised graph
    /// ([`stuc_data::instance::Instance::shared_gaifman_graph`]): the same
    /// allocation until a fact or constant changes, so the engine validates
    /// a cached decomposition once per graph instead of once per goal. A
    /// representation may return a fresh graph on every call, as
    /// pcc-instances and PrXML do; that costs a validation per cold goal,
    /// never a wrong answer. Returning a shared graph that no longer matches
    /// the content is the one thing an implementation must not do.
    fn structure_graph(&self) -> Arc<Graph>;

    /// The lineage circuit of `query`: true in exactly the possible worlds
    /// where the query holds. `decomposition` is a tree decomposition of
    /// [`Representation::structure_graph`]; implementations that build the
    /// lineage by a decomposition-guided automaton run consume it, others
    /// ignore it.
    fn lineage(
        &self,
        query: &Self::Query,
        decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError>;

    /// Probabilities of the lineage variables. Representations that store
    /// a weight table (or memoise one) lend it out, so a warm evaluation
    /// does not rebuild or copy it.
    fn weights(&self) -> Result<Cow<'_, Weights>, StucError>;

    /// The content identity `(primary, check)` keying the engine's caches:
    /// two 64-bit hashes of everything that determines the lineage and the
    /// weights. Equal representations must have equal identities — also
    /// when built separately, so they share cache entries — and any change
    /// of content must change them. The compiled-lineage cache checks the
    /// secondary hash on every hit (next to the exact query text), so a
    /// wrong reuse needs two simultaneous 64-bit collisions.
    ///
    /// The identity also keys the answer a lineage entry memoises: a
    /// repeated evaluation under the representation's own weights returns
    /// it without sweeping. So it must cover **every weight**, not just
    /// the structure; an identity that missed a weight change would serve
    /// the old probability. All five built-ins hash their weights:
    /// `TidInstance`, `CInstance` (whose uniform 1/2 weights follow from
    /// its events), `PcInstance`, `PccInstance` and `PrXmlDocument`.
    ///
    /// The built-in representations hash their fields directly and memoise
    /// the pair until their next `&mut self` call, which makes a warm
    /// lookup O(1) instead of O(instance). The default, for user-defined
    /// representations, hashes the `Debug` rendering on every call, which
    /// covers the weights when the rendering shows them.
    fn identity(&self) -> (u64, u64) {
        debug_identity(self)
    }

    /// The primary half of [`Representation::identity`]: the key of the
    /// engine's decomposition cache and of [`crate::engine::Engine::evict_instance`].
    /// Collisions merely cost a recomputation there: a cached decomposition
    /// is reused without validation only when it was built from, or
    /// validated against, the very [`Representation::structure_graph`]
    /// allocation this representation returns now; any other hit is
    /// validated against the structure graph first.
    fn fingerprint(&self) -> u64 {
        self.identity().0
    }

    /// The extensional fast path, if this representation supports one.
    fn extensional<'a>(&'a self, query: &'a Self::Query) -> Option<ExtensionalInput<'a>> {
        let _ = query;
        None
    }

    /// Per-relation fact counts for the textual front-end's cost model
    /// ([`stuc_lang::cost::CostModel`]). `None` for non-relational
    /// representations, which makes the cost model fall back to zero
    /// fan-ins (and hence to the structurally-determined route).
    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        None
    }
}

/// A `(primary, check)` identity of `value` from its `Debug` rendering,
/// streamed into a [`ContentHasher`] without materialising the string:
/// the default [`Representation::identity`], and the query fingerprint of
/// the lineage cache.
pub(crate) fn debug_identity<T: std::fmt::Debug + ?Sized>(value: &T) -> (u64, u64) {
    use std::fmt::Write;
    use std::hash::Hasher;
    struct Render(ContentHasher);
    impl Write for Render {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut render = Render(ContentHasher::new("debug"));
    let _ = write!(render, "{value:?}");
    render.0.finish_pair()
}

impl Representation for TidInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::Tid
    }

    fn fact_count(&self) -> usize {
        TidInstance::fact_count(self)
    }

    fn structure_graph(&self) -> Arc<Graph> {
        self.instance().shared_gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        // Theorem 1 construction: nondeterministic automaton run over the
        // tree decomposition, linear-time at fixed width. Falls back to the
        // match-enumeration lineage when the run refuses the query (too many
        // atoms / anchoring limits) — same circuit semantics, no width bound.
        match stuc_automata::courcelle::cq_lineage_circuit(
            self.instance(),
            decomposition,
            query,
            |f| self.fact_event(f),
        ) {
            Ok(circuit) => Ok(LineageOutcome::plain(circuit)),
            Err(refusal) => Ok(LineageOutcome {
                circuit: stuc_query::lineage::tid_lineage(self, query),
                note: Some(format!(
                    "automaton lineage refused ({refusal}); fell back to match-enumeration lineage"
                )),
            }),
        }
    }

    fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
        Ok(Cow::Borrowed(self.weight_table()))
    }

    fn identity(&self) -> (u64, u64) {
        self.content_identity()
    }

    fn extensional<'a>(&'a self, query: &'a ConjunctiveQuery) -> Option<ExtensionalInput<'a>> {
        Some(ExtensionalInput { tid: self, query })
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for CInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::CInstance
    }

    fn fact_count(&self) -> usize {
        self.instance().fact_count()
    }

    fn structure_graph(&self) -> Arc<Graph> {
        self.instance().shared_gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(cinstance_lineage(self, query)))
    }

    /// A plain c-instance carries no probabilities; evaluating one computes
    /// the *fraction of event valuations* satisfying the query (each event
    /// uniform at 1/2), so `probability > 0` is possibility and
    /// `probability = 1` is certainty — the c-instance questions of the
    /// paper's Table 1. Attach real probabilities with
    /// [`CInstance::with_probabilities`] to get a pc-instance instead.
    fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
        Ok(Cow::Owned(Weights::uniform(self.events().variables(), 0.5)))
    }

    fn identity(&self) -> (u64, u64) {
        self.content_identity()
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PcInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PcInstance
    }

    fn fact_count(&self) -> usize {
        self.instance().fact_count()
    }

    fn structure_graph(&self) -> Arc<Graph> {
        self.instance().shared_gaifman_graph()
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(cinstance_lineage(
            self.cinstance(),
            query,
        )))
    }

    fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
        if !self.is_fully_weighted() {
            return Err(StucError::MissingProbabilities {
                representation: "pc-instance",
            });
        }
        Ok(Cow::Borrowed(self.probabilities()))
    }

    fn identity(&self) -> (u64, u64) {
        self.content_identity()
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PccInstance {
    type Query = ConjunctiveQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PccInstance
    }

    fn fact_count(&self) -> usize {
        PccInstance::fact_count(self)
    }

    /// The joint instance + annotation-circuit graph, whose treewidth is the
    /// Theorem 2 parameter.
    fn structure_graph(&self) -> Arc<Graph> {
        Arc::new(self.joint_graph())
    }

    fn lineage(
        &self,
        query: &ConjunctiveQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(pcc_lineage(self, query)))
    }

    fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
        Ok(Cow::Borrowed(self.probabilities()))
    }

    fn identity(&self) -> (u64, u64) {
        self.content_identity()
    }

    fn relation_stats(&self) -> Option<stuc_lang::cost::RelationStats> {
        Some(stuc_lang::cost::RelationStats::from_instance(
            self.instance(),
        ))
    }
}

impl Representation for PrXmlDocument {
    type Query = PrxmlQuery;

    fn kind(&self) -> ReprKind {
        ReprKind::PrXml
    }

    fn fact_count(&self) -> usize {
        self.len()
    }

    /// The graph of the document's presence circuit: tree-shaped documents
    /// with local uncertainty stay width-bounded, and long-range `cie`
    /// events widen it exactly as the paper's event scopes predict.
    fn structure_graph(&self) -> Arc<Graph> {
        let (presence, _) = self.presence_circuit();
        Arc::new(circuit_graph(&presence))
    }

    fn lineage(
        &self,
        query: &PrxmlQuery,
        _decomposition: &TreeDecomposition,
    ) -> Result<LineageOutcome, StucError> {
        Ok(LineageOutcome::plain(query_lineage(self, query)))
    }

    fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
        let weights = self.probabilities();
        let covered: Vec<VarId> = self.variables().into_iter().collect();
        if !weights.covers(covered.iter()) {
            return Err(StucError::MissingProbabilities {
                representation: "prxml-document",
            });
        }
        Ok(Cow::Borrowed(weights))
    }

    fn identity(&self) -> (u64, u64) {
        self.content_identity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_deterministic_and_content_sensitive() {
        let mut a = TidInstance::new();
        a.add_fact_named("R", &["x", "y"], 0.5);
        let mut b = TidInstance::new();
        b.add_fact_named("R", &["x", "y"], 0.5);
        assert_eq!(
            Representation::fingerprint(&a),
            Representation::fingerprint(&b)
        );
        b.add_fact_named("R", &["y", "z"], 0.25);
        assert_ne!(
            Representation::fingerprint(&a),
            Representation::fingerprint(&b)
        );
    }

    /// A user-defined representation with only the required methods: the
    /// engine keys it by the default, `Debug`-rendering identity.
    #[derive(Debug)]
    struct Custom(TidInstance);

    impl Representation for Custom {
        type Query = ConjunctiveQuery;

        fn kind(&self) -> ReprKind {
            ReprKind::Tid
        }

        fn fact_count(&self) -> usize {
            self.0.fact_count()
        }

        fn structure_graph(&self) -> Arc<Graph> {
            self.0.structure_graph()
        }

        fn lineage(
            &self,
            query: &ConjunctiveQuery,
            decomposition: &TreeDecomposition,
        ) -> Result<LineageOutcome, StucError> {
            self.0.lineage(query, decomposition)
        }

        fn weights(&self) -> Result<Cow<'_, Weights>, StucError> {
            self.0.weights()
        }
    }

    #[test]
    fn user_defined_representations_key_by_their_rendering() {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["x", "y"], 0.5);
        let (a, b) = (Custom(tid.clone()), Custom(tid.clone()));
        assert_eq!(a.identity(), b.identity());
        assert_ne!(a.identity(), Representation::identity(&tid));
        let query = ConjunctiveQuery::parse("R(x, y)").unwrap();
        let engine = crate::engine::Engine::new();
        engine.evaluate(&a, &query).unwrap();
        assert!(engine.evaluate(&b, &query).unwrap().lineage_cached);
        tid.set_probability(stuc_data::instance::FactId(0), 0.25);
        let c = Custom(tid);
        assert_ne!(a.identity(), c.identity());
        let p = engine.evaluate(&c, &query).unwrap().probability;
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tid_offers_the_extensional_path_and_cinstance_does_not() {
        let tid = TidInstance::new();
        let q = ConjunctiveQuery::parse("R(x)").unwrap();
        assert!(tid.extensional(&q).is_some());
        let ci = CInstance::new();
        assert!(Representation::extensional(&ci, &q).is_none());
    }

    #[test]
    fn repr_kind_names_are_stable() {
        assert_eq!(ReprKind::Tid.name(), "tid-instance");
        assert_eq!(ReprKind::PccInstance.to_string(), "pcc-instance");
    }
}
