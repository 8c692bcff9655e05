//! The [`Updatable`] trait: how each representation applies a [`Delta`] and
//! tells the engine what can be *patched* instead of rebuilt.
//!
//! Applying a delta yields a [`DeltaApplication`] with two impact reports:
//!
//! * [`StructureImpact`] — what happened to the structure graph the engine's
//!   decomposition cache is built on. Weight changes leave it untouched,
//!   deletions only remove edges (an existing decomposition stays valid —
//!   it merely drifts wide), insertions add cliques that an incremental
//!   repair can absorb, and anything else is opaque (full re-decomposition).
//! * [`LineagePatch`] — what a cached compiled lineage needs. Weight-only
//!   deltas reuse it verbatim; TID deletions pin the deleted fact variables
//!   to false and renumber the survivors (pure input rewiring, no
//!   recompilation); insertions that create new matches rebuild the lineage
//!   (the engine runs the same build a cache miss runs), and insertions
//!   that create none keep it; correlated cases drop it for a lazy rebuild.
//!
//! The per-representation update matrix. A rekey shares the compiled
//! circuit (same `Arc`, warm sweep arena) and a rewire carries the sweep
//! plan over relabelled, both O(delta) on top of one identity hash of the
//! instance. An insert first asks [`Updatable::adds_match`] whether it
//! gives the query a new match: the indexed delta join of
//! [`stuc_query::eval::delta_match_witnesses`], stopped at the first
//! witness, also O(delta). Only an entry that gains one is rebuilt, which
//! costs a cold build; PrXML never asks (its structural updates drop the
//! lineage). The test looks at witnesses, not annotations: on pc- and
//! pcc-instances a new match whose annotation is false also rebuilds, and
//! the rebuilt entry answers as the kept one would have.
//!
//! | op | TID | pc | pcc | PrXML |
//! |---|---|---|---|---|
//! | `SetProbability` | rekey caches, share circuits | rekey (single-event annotations) | rekey (input-gate facts) | rekey (private `ind` edges) |
//! | `InsertFact` | repair + rebuild on new matches | repair + rebuild on new witnesses | remap + repair + rebuild on new witnesses | rebuild |
//! | `DeleteFact` | rekey + rewire, keep the plan | rebuild lineage | rebuild lineage | rebuild |

use crate::delta::{Delta, DeltaOp, UpdateError};
use std::collections::{BTreeMap, BTreeSet};
use stuc_circuit::circuit::{Gate, VarId};
use stuc_circuit::weights::validate_probability;
use stuc_data::cinstance::PcInstance;
use stuc_data::formula::Formula;
use stuc_data::instance::{FactId, Instance};
use stuc_data::pcc::PccInstance;
use stuc_data::tid::TidInstance;
use stuc_graph::graph::VertexId;
use stuc_prxml::document::{NodeId, PrXmlDocument};
use stuc_prxml::queries::PrxmlQuery;
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::eval::delta_match_witnesses;

/// How a delta changed the representation's structure graph.
#[derive(Debug, Clone, PartialEq)]
pub enum StructureImpact {
    /// The graph is identical (weights-only delta): cached decompositions
    /// stay correct and only need rekeying.
    Unchanged,
    /// Edges (or whole facts) were removed but no vertex was renumbered: a
    /// decomposition of the old graph is still a valid decomposition of the
    /// new one — width may drift high, never wrong.
    Shrunk,
    /// The graph grew by the given cliques (one per inserted fact / gate),
    /// possibly after renumbering old vertices through `vertex_remap`
    /// (`map[old] = new`, injective).
    Grown {
        /// Old-vertex → new-vertex renumbering, when insertion shifted
        /// identifiers (pcc joint graphs); `None` when ids are stable.
        vertex_remap: Option<Vec<VertexId>>,
        /// New cliques, in new-graph numbering, in application order.
        new_cliques: Vec<Vec<VertexId>>,
    },
    /// The graph changed in a way the representation cannot localise:
    /// re-decompose from scratch.
    Opaque,
}

/// One patch step for a cached compiled lineage.
#[derive(Debug, Clone, PartialEq)]
pub enum LineagePatchStep {
    /// Pin these (pre-delta) event variables to false and renumber the rest
    /// — fact deletion on representations whose lineage variables are
    /// per-fact (TID). The tables are built once per delta and shared by
    /// every cached lineage the engine rewires with them.
    RewireInputs {
        /// Variables of deleted facts.
        pin_false: BTreeSet<VarId>,
        /// Surviving-variable renumbering `old → new`, identity elsewhere.
        remap: BTreeMap<VarId, VarId>,
    },
    /// Rebuild the cached lineage if these (post-delta) fact identifiers
    /// introduced a match ([`Updatable::adds_match`]); keep it otherwise.
    RebuildOnNewMatches {
        /// The inserted facts, in post-delta numbering.
        inserted: Vec<FactId>,
    },
}

/// What a cached compiled lineage needs after a delta.
#[derive(Debug, Clone, PartialEq)]
pub enum LineagePatch {
    /// The circuit is still exactly the lineage: rekey, reuse verbatim.
    Reusable,
    /// Apply these steps in order; each is cheap relative to recompiling.
    Steps(Vec<LineagePatchStep>),
    /// The update correlates with existing annotations in a way we do not
    /// patch: drop cached lineages and rebuild on demand.
    Rebuild,
}

/// The outcome of applying one [`Delta`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaApplication {
    /// Identifiers of the inserted facts, in post-delta numbering.
    pub inserted: Vec<FactId>,
    /// Number of facts deleted.
    pub deleted: usize,
    /// Number of probability overwrites applied.
    pub reweighted: usize,
    /// Impact on the structure graph / decomposition cache.
    pub structure: StructureImpact,
    /// Impact on cached compiled lineages.
    pub lineage: LineagePatch,
}

/// A representation that supports typed incremental updates.
///
/// Implementations validate the **whole** delta before mutating anything, so
/// a rejected delta leaves the instance untouched, and report through
/// [`DeltaApplication`] exactly what downstream caches may keep.
pub trait Updatable {
    /// The query language whose cached lineages the engine may ask this
    /// representation to patch.
    type Query;

    /// Applies a delta transaction. All fact identifiers in the delta refer
    /// to the pre-delta instance; see [`Delta`] for the application order.
    fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaApplication, UpdateError>;

    /// Whether the facts `inserted` (post-delta identifiers) give `query` a
    /// match it did not have — what
    /// [`LineagePatchStep::RebuildOnNewMatches`] asks. The default answers
    /// yes, so a representation without a test of its own rebuilds.
    fn adds_match(&self, _query: &Self::Query, _inserted: &[FactId]) -> bool {
        true
    }
}

/// Shared validation: fact ids in range, probabilities well-formed. Returns
/// `(sets, deletes, inserts)` with deletes deduplicated.
type SplitOps<'a> = (
    Vec<(FactId, f64)>,
    BTreeSet<usize>,
    Vec<(&'a str, Vec<&'a str>, f64)>,
);

fn split_and_validate(delta: &Delta, fact_count: usize) -> Result<SplitOps<'_>, UpdateError> {
    let mut sets = Vec::new();
    let mut deletes = BTreeSet::new();
    let mut inserts = Vec::new();
    for op in delta.ops() {
        match op {
            DeltaOp::SetProbability { fact, probability } => {
                if fact.0 >= fact_count {
                    return Err(UpdateError::UnknownFact(*fact));
                }
                validate_probability(*probability)?;
                sets.push((*fact, *probability));
            }
            DeltaOp::DeleteFact { fact } => {
                if fact.0 >= fact_count {
                    return Err(UpdateError::UnknownFact(*fact));
                }
                deletes.insert(fact.0);
            }
            DeltaOp::InsertFact {
                relation,
                args,
                probability,
            } => {
                validate_probability(*probability)?;
                inserts.push((
                    relation.as_str(),
                    args.iter().map(String::as_str).collect(),
                    *probability,
                ));
            }
        }
    }
    Ok((sets, deletes, inserts))
}

/// The `(old var, new var)` renumbering induced by deleting dense per-fact
/// variables, plus the pinned (deleted) variables.
fn deletion_rewiring(
    old_count: usize,
    deletes: &BTreeSet<usize>,
) -> (BTreeSet<VarId>, BTreeMap<VarId, VarId>) {
    let pins = deletes.iter().map(|&i| VarId(i)).collect();
    let mut remap = BTreeMap::new();
    let mut shift = 0usize;
    for old in 0..old_count {
        if deletes.contains(&old) {
            shift += 1;
        } else if shift > 0 {
            remap.insert(VarId(old), VarId(old - shift));
        }
    }
    (pins, remap)
}

/// The Gaifman clique of a fact (one vertex per distinct constant).
fn fact_clique(instance: &Instance, fact: FactId) -> Vec<VertexId> {
    instance
        .fact(fact)
        .args
        .iter()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .map(|c| VertexId(c.0))
        .collect()
}

impl Updatable for TidInstance {
    type Query = ConjunctiveQuery;

    fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaApplication, UpdateError> {
        let old_count = self.fact_count();
        let (sets, deletes, inserts) = split_and_validate(delta, old_count)?;

        for &(fact, p) in &sets {
            self.try_set_probability(fact, p)?;
        }
        for &i in deletes.iter().rev() {
            self.remove_fact(FactId(i));
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        for (relation, args, p) in &inserts {
            inserted.push(self.try_add_fact_named(relation, args, *p)?);
        }

        let structure = if inserted.is_empty() && deletes.is_empty() {
            StructureImpact::Unchanged
        } else if inserted.is_empty() {
            StructureImpact::Shrunk
        } else {
            StructureImpact::Grown {
                vertex_remap: None,
                new_cliques: inserted
                    .iter()
                    .map(|&f| fact_clique(self.instance(), f))
                    .collect(),
            }
        };
        let mut steps = Vec::new();
        if !deletes.is_empty() {
            let (pin_false, remap) = deletion_rewiring(old_count, &deletes);
            steps.push(LineagePatchStep::RewireInputs { pin_false, remap });
        }
        if !inserted.is_empty() {
            steps.push(LineagePatchStep::RebuildOnNewMatches {
                inserted: inserted.clone(),
            });
        }
        let lineage = if steps.is_empty() {
            LineagePatch::Reusable
        } else {
            LineagePatch::Steps(steps)
        };
        Ok(DeltaApplication {
            inserted,
            deleted: deletes.len(),
            reweighted: sets.len(),
            structure,
            lineage,
        })
    }

    fn adds_match(&self, query: &ConjunctiveQuery, inserted: &[FactId]) -> bool {
        !delta_match_witnesses(self.instance(), query, inserted, 1).is_empty()
    }
}

impl Updatable for PcInstance {
    type Query = ConjunctiveQuery;

    fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaApplication, UpdateError> {
        let old_count = self.instance().fact_count();
        let (sets, deletes, inserts) = split_and_validate(delta, old_count)?;
        // `SetProbability` is only well-defined when the fact's annotation
        // is a single private event; validate before mutating.
        let mut set_events = Vec::with_capacity(sets.len());
        for &(fact, p) in &sets {
            match self.cinstance().annotation(fact) {
                Formula::Var(v) => set_events.push((*v, p)),
                other => {
                    return Err(UpdateError::UnsupportedSetProbability {
                        fact,
                        reason: format!(
                            "annotation {other:?} is not a single event; re-weight the events \
                             directly instead"
                        ),
                    })
                }
            }
        }

        for (v, p) in set_events {
            self.probabilities_mut().try_set(v, p)?;
        }
        for &i in deletes.iter().rev() {
            self.cinstance_mut().remove_fact(FactId(i));
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        for (relation, args, p) in &inserts {
            // A fresh independent event per inserted fact.
            let mut k = self.cinstance().events().len();
            let name = loop {
                let candidate = format!("upd_e{k}");
                if self.cinstance().events().find(&candidate).is_none() {
                    break candidate;
                }
                k += 1;
            };
            let event = self.cinstance_mut().events_mut().intern(&name);
            self.probabilities_mut().try_set(event, *p)?;
            inserted.push(self.cinstance_mut().add_annotated_fact(
                relation,
                args,
                Formula::Var(event),
            ));
        }

        let structure = if inserted.is_empty() && deletes.is_empty() {
            StructureImpact::Unchanged
        } else if inserted.is_empty() {
            StructureImpact::Shrunk
        } else {
            StructureImpact::Grown {
                vertex_remap: None,
                new_cliques: inserted
                    .iter()
                    .map(|&f| fact_clique(self.instance(), f))
                    .collect(),
            }
        };
        // Deleting an annotated fact removes OR-branches we cannot locate
        // inside the cached circuit: rebuild. Pure insertions rebuild only
        // on new matches.
        let lineage = if !deletes.is_empty() {
            LineagePatch::Rebuild
        } else if !inserted.is_empty() {
            LineagePatch::Steps(vec![LineagePatchStep::RebuildOnNewMatches {
                inserted: inserted.clone(),
            }])
        } else {
            LineagePatch::Reusable
        };
        Ok(DeltaApplication {
            inserted,
            deleted: deletes.len(),
            reweighted: sets.len(),
            structure,
            lineage,
        })
    }

    fn adds_match(&self, query: &ConjunctiveQuery, inserted: &[FactId]) -> bool {
        !delta_match_witnesses(self.instance(), query, inserted, 1).is_empty()
    }
}

impl Updatable for PccInstance {
    type Query = ConjunctiveQuery;

    fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaApplication, UpdateError> {
        let old_count = self.fact_count();
        let old_constants = self.instance().constant_count();
        let old_gates = self.annotation_circuit().len();
        let (sets, deletes, inserts) = split_and_validate(delta, old_count)?;
        let mut set_events = Vec::with_capacity(sets.len());
        for &(fact, p) in &sets {
            match self.annotation_circuit().gate(self.fact_gate(fact)) {
                Gate::Input(v) => set_events.push((*v, p)),
                other => {
                    return Err(UpdateError::UnsupportedSetProbability {
                        fact,
                        reason: format!(
                            "annotation gate is {other:?}, not an input; re-weight the underlying \
                             events instead"
                        ),
                    })
                }
            }
        }

        for (v, p) in set_events {
            self.probabilities_mut().try_set(v, p)?;
        }
        for &i in deletes.iter().rev() {
            self.remove_fact(FactId(i));
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        let first_free_var = self
            .annotation_circuit()
            .variables()
            .into_iter()
            .map(|v| v.0 + 1)
            .max()
            .max(self.probabilities().iter().map(|(v, _)| v.0 + 1).max())
            .unwrap_or(0);
        for (offset, (relation, args, p)) in inserts.iter().enumerate() {
            let event = VarId(first_free_var + offset);
            self.probabilities_mut().try_set(event, *p)?;
            let gate = self.annotation_circuit_mut().add_input(event);
            inserted.push(self.add_fact_with_gate(relation, args, gate));
        }

        let structure = if inserted.is_empty() && deletes.is_empty() {
            StructureImpact::Unchanged
        } else if inserted.is_empty() {
            StructureImpact::Shrunk
        } else {
            // The joint graph numbers constants first, gates after: added
            // constants shift every gate vertex up by the same amount.
            let added_constants = self.instance().constant_count() - old_constants;
            let vertex_remap = (added_constants > 0).then(|| {
                (0..old_constants + old_gates)
                    .map(|v| {
                        if v < old_constants {
                            VertexId(v)
                        } else {
                            VertexId(v + added_constants)
                        }
                    })
                    .collect()
            });
            let constants = self.instance().constant_count();
            let new_cliques = inserted
                .iter()
                .map(|&f| {
                    let mut clique = fact_clique(self.instance(), f);
                    clique.push(VertexId(constants + self.fact_gate(f).0));
                    clique
                })
                .collect();
            StructureImpact::Grown {
                vertex_remap,
                new_cliques,
            }
        };
        let lineage = if !deletes.is_empty() {
            LineagePatch::Rebuild
        } else if !inserted.is_empty() {
            LineagePatch::Steps(vec![LineagePatchStep::RebuildOnNewMatches {
                inserted: inserted.clone(),
            }])
        } else {
            LineagePatch::Reusable
        };
        Ok(DeltaApplication {
            inserted,
            deleted: deletes.len(),
            reweighted: sets.len(),
            structure,
            lineage,
        })
    }

    fn adds_match(&self, query: &ConjunctiveQuery, inserted: &[FactId]) -> bool {
        !delta_match_witnesses(self.instance(), query, inserted, 1).is_empty()
    }
}

impl Updatable for PrXmlDocument {
    type Query = PrxmlQuery;

    fn apply_delta(&mut self, delta: &Delta) -> Result<DeltaApplication, UpdateError> {
        // Validate everything first: node ids, parents, edge shapes.
        let node_count = self.len();
        let mut sets = Vec::new();
        let mut deletes = BTreeSet::new();
        let mut inserts = Vec::new();
        for op in delta.ops() {
            match op {
                DeltaOp::SetProbability { fact, probability } => {
                    if fact.0 >= node_count {
                        return Err(UpdateError::UnknownFact(*fact));
                    }
                    validate_probability(*probability)?;
                    let Some(variable) = self.ind_edge_variable(NodeId(fact.0)) else {
                        return Err(UpdateError::UnsupportedSetProbability {
                            fact: *fact,
                            reason: "node does not hang off a private ind edge".into(),
                        });
                    };
                    sets.push((variable, *probability));
                }
                DeltaOp::DeleteFact { fact } => {
                    if fact.0 >= node_count {
                        return Err(UpdateError::UnknownFact(*fact));
                    }
                    if Some(NodeId(fact.0)) == self.root() {
                        return Err(UpdateError::UnsupportedDelete {
                            fact: *fact,
                            reason: "the document root cannot be detached".into(),
                        });
                    }
                    deletes.insert(fact.0);
                }
                DeltaOp::InsertFact {
                    relation,
                    args,
                    probability,
                } => {
                    validate_probability(*probability)?;
                    let parent = args
                        .first()
                        .and_then(|a| a.parse::<usize>().ok())
                        .filter(|&p| p < node_count && args.len() == 1);
                    let Some(parent) = parent else {
                        return Err(UpdateError::UnsupportedInsert {
                            reason: format!(
                                "PrXML insertion needs exactly one argument naming the parent \
                                 node id, got {args:?}"
                            ),
                        });
                    };
                    inserts.push((relation.as_str(), NodeId(parent), *probability));
                }
            }
        }

        for (variable, p) in &sets {
            self.probabilities_mut().try_set(*variable, *p)?;
        }
        for &node in deletes.iter().rev() {
            // Detaching an already-unreachable node is a harmless no-op.
            let _ = self.detach_node(NodeId(node));
        }
        let mut inserted = Vec::with_capacity(inserts.len());
        for (label, parent, p) in &inserts {
            let node = self.add_node(label);
            self.add_ind_child(*parent, node, *p);
            inserted.push(FactId(node.0));
        }

        // The structure graph is the presence-circuit graph: any structural
        // edit renumbers its gates, so there is nothing to patch — the
        // engine re-decomposes (and rebuilds lineages) on demand.
        let structural = !inserted.is_empty() || !deletes.is_empty();
        Ok(DeltaApplication {
            inserted,
            deleted: deletes.len(),
            reweighted: sets.len(),
            structure: if structural {
                StructureImpact::Opaque
            } else {
                StructureImpact::Unchanged
            },
            lineage: if structural {
                LineagePatch::Rebuild
            } else {
                LineagePatch::Reusable
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_tid(n: usize, p: f64) -> TidInstance {
        let mut tid = TidInstance::new();
        for i in 0..n {
            tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], p);
        }
        tid
    }

    #[test]
    fn tid_mixed_delta_reports_both_patch_steps() {
        let mut tid = path_tid(4, 0.5);
        let delta = Delta::new()
            .set_probability(FactId(0), 0.9)
            .delete(FactId(2))
            .insert("R", &["c4", "c5"], 0.25);
        let application = tid.apply_delta(&delta).unwrap();
        assert_eq!(application.deleted, 1);
        assert_eq!(application.reweighted, 1);
        assert_eq!(application.inserted, vec![FactId(3)]);
        assert_eq!(tid.fact_count(), 4);
        assert!((tid.probability(FactId(0)) - 0.9).abs() < 1e-12);
        assert!(matches!(
            application.structure,
            StructureImpact::Grown {
                vertex_remap: None,
                ..
            }
        ));
        let LineagePatch::Steps(steps) = &application.lineage else {
            panic!("expected steps");
        };
        assert_eq!(steps.len(), 2);
        assert!(matches!(steps[0], LineagePatchStep::RewireInputs { .. }));
    }

    #[test]
    fn invalid_delta_leaves_the_instance_untouched() {
        let mut tid = path_tid(3, 0.5);
        let before = tid.clone();
        let delta = Delta::new()
            .set_probability(FactId(0), 0.9)
            .delete(FactId(17));
        assert!(matches!(
            tid.apply_delta(&delta),
            Err(UpdateError::UnknownFact(FactId(17)))
        ));
        assert_eq!(tid, before, "validation must precede mutation");
        let delta = Delta::new().insert("R", &["x", "y"], f64::NAN);
        assert!(tid.apply_delta(&delta).is_err());
        assert_eq!(tid, before);
    }

    #[test]
    fn pc_insert_uses_fresh_events_and_deletes_force_rebuild() {
        let mut pc = path_tid(3, 0.5).to_pc_instance();
        let before_events = pc.event_count();
        let application = pc
            .apply_delta(&Delta::new().insert("R", &["c3", "c4"], 0.7))
            .unwrap();
        assert_eq!(application.inserted.len(), 1);
        assert_eq!(pc.event_count(), before_events + 1);
        assert!(pc.is_fully_weighted());
        assert!(matches!(application.lineage, LineagePatch::Steps(_)));

        let application = pc.apply_delta(&Delta::new().delete(FactId(0))).unwrap();
        assert!(matches!(application.lineage, LineagePatch::Rebuild));
        assert!(matches!(application.structure, StructureImpact::Shrunk));
    }

    #[test]
    fn pc_set_probability_requires_single_event_annotation() {
        let mut pc = path_tid(2, 0.5).to_pc_instance();
        // Facts converted from a TID carry single-event annotations.
        assert!(pc
            .apply_delta(&Delta::new().set_probability(FactId(0), 0.25))
            .is_ok());
        // A conjunctive annotation cannot be re-weighted through the fact.
        let mut ci = stuc_data::cinstance::CInstance::new();
        ci.add_fact_with_condition("R", &["a"], "e1 & e2").unwrap();
        let weights = stuc_circuit::weights::Weights::uniform(ci.events().variables(), 0.5);
        let mut pc = ci.with_probabilities(weights);
        assert!(matches!(
            pc.apply_delta(&Delta::new().set_probability(FactId(0), 0.25)),
            Err(UpdateError::UnsupportedSetProbability { .. })
        ));
    }

    #[test]
    fn pcc_insert_renumbers_gate_vertices_when_constants_grow() {
        let mut pcc = PccInstance::new();
        let v = VarId(0);
        let gate = pcc.annotation_circuit_mut().add_input(v);
        pcc.probabilities_mut().set(v, 0.9);
        pcc.add_fact_with_gate("R", &["a", "b"], gate);
        let old_constants = pcc.instance().constant_count();
        let old_gates = pcc.annotation_circuit().len();

        let application = pcc
            .apply_delta(&Delta::new().insert("R", &["b", "c"], 0.4))
            .unwrap();
        let StructureImpact::Grown {
            vertex_remap: Some(remap),
            new_cliques,
        } = &application.structure
        else {
            panic!("expected a grown structure with a remap");
        };
        assert_eq!(remap.len(), old_constants + old_gates);
        // Constant vertices are stable, gate vertices shift by one new constant.
        assert_eq!(remap[0], VertexId(0));
        assert_eq!(remap[old_constants], VertexId(old_constants + 1));
        // The new clique spans the fact's constants and its fresh gate.
        assert_eq!(new_cliques.len(), 1);
        assert_eq!(new_cliques[0].len(), 3);
        // The new fact got a fresh independent event with the probability.
        let new_gate = pcc.fact_gate(application.inserted[0]);
        let Gate::Input(event) = pcc.annotation_circuit().gate(new_gate) else {
            panic!("inserted fact must be annotated by an input gate");
        };
        assert_eq!(pcc.probabilities().get(*event), Some(0.4));
    }

    #[test]
    fn pcc_set_probability_only_on_input_gates() {
        let mut pcc = PccInstance::new();
        let v = VarId(0);
        let input = pcc.annotation_circuit_mut().add_input(v);
        let derived = pcc.annotation_circuit_mut().add_and(vec![input]);
        pcc.probabilities_mut().set(v, 0.5);
        pcc.add_fact_with_gate("R", &["a"], input);
        pcc.add_fact_with_gate("S", &["a"], derived);
        assert!(pcc
            .apply_delta(&Delta::new().set_probability(FactId(0), 0.3))
            .is_ok());
        assert!(matches!(
            pcc.apply_delta(&Delta::new().set_probability(FactId(1), 0.3)),
            Err(UpdateError::UnsupportedSetProbability { .. })
        ));
    }

    #[test]
    fn prxml_deltas_validate_and_apply() {
        let mut doc = PrXmlDocument::figure1_example();
        let occupation = (0..doc.len())
            .find(|&n| doc.label(NodeId(n)) == "occupation")
            .unwrap();
        // Re-weight the ind edge.
        let application = doc
            .apply_delta(&Delta::new().set_probability(FactId(occupation), 0.8))
            .unwrap();
        assert!(matches!(application.structure, StructureImpact::Unchanged));
        assert!(matches!(application.lineage, LineagePatch::Reusable));
        // Insert a new leaf under the root.
        let root = doc.root().unwrap().0;
        let application = doc
            .apply_delta(&Delta::new().insert("award", &[&root.to_string()], 0.5))
            .unwrap();
        assert!(matches!(application.structure, StructureImpact::Opaque));
        assert_eq!(doc.label(NodeId(application.inserted[0].0)), "award");
        // The root cannot be deleted; bogus parents are rejected.
        assert!(doc.apply_delta(&Delta::new().delete(FactId(root))).is_err());
        assert!(doc
            .apply_delta(&Delta::new().insert("x", &["not-a-node"], 0.5))
            .is_err());
        // A cie node cannot be re-weighted in isolation.
        let surname = (0..doc.len())
            .find(|&n| doc.label(NodeId(n)) == "surname")
            .unwrap();
        assert!(matches!(
            doc.apply_delta(&Delta::new().set_probability(FactId(surname), 0.5)),
            Err(UpdateError::UnsupportedSetProbability { .. })
        ));
        // Detaching works and reports a rebuild.
        let application = doc
            .apply_delta(&Delta::new().delete(FactId(surname)))
            .unwrap();
        assert_eq!(application.deleted, 1);
        assert!(matches!(application.lineage, LineagePatch::Rebuild));
    }

    #[test]
    fn deletion_rewiring_shifts_survivors() {
        let (pins, remap) = deletion_rewiring(5, &BTreeSet::from([1, 3]));
        assert_eq!(pins, BTreeSet::from([VarId(1), VarId(3)]));
        assert_eq!(
            remap,
            BTreeMap::from([(VarId(2), VarId(1)), (VarId(4), VarId(2))])
        );
    }
}
