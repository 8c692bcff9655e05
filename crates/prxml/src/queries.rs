//! Tree-pattern queries on PrXML documents and their lineage circuits.
//!
//! The usual tree query languages the paper mentions (tree-pattern queries,
//! MSO without joins) evaluate to Boolean answers per possible world; here we
//! provide the monotone tree patterns used throughout the examples and
//! benchmarks, compile them to lineage circuits over the document's
//! independent variables, and compute their exact probabilities with the
//! `stuc-circuit` back-ends.

use crate::document::{NodeId, PrXmlDocument};
use std::collections::BTreeMap;
use std::sync::Arc;
use stuc_circuit::circuit::{Circuit, GateId, VarId};
use stuc_circuit::compiled::{CompiledCircuit, DEFAULT_WIDTH_BUDGET};
use stuc_circuit::enumeration::{probability_by_enumeration, EnumerationError};
use stuc_circuit::wmc::WmcError;

/// A monotone tree-pattern query on a PrXML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrxmlQuery {
    /// "Some present node has this label."
    LabelExists(String),
    /// "Some present node labeled `ancestor` has a present descendant
    /// labeled `descendant`."
    AncestorDescendant {
        /// Label of the ancestor node.
        ancestor: String,
        /// Label of the descendant node.
        descendant: String,
    },
    /// "Some present node labeled `parent` has a present child labeled
    /// `child`."
    ParentChild {
        /// Label of the parent node.
        parent: String,
        /// Label of the child node.
        child: String,
    },
    /// Conjunction of two tree patterns.
    And(Box<PrxmlQuery>, Box<PrxmlQuery>),
}

stuc_errors::stuc_error! {
    /// Errors raised by PrXML query evaluation.
    #[derive(Clone, PartialEq)]
    pub enum PrxmlQueryError {
        /// The exact back-end refused the instance (width too large).
        Wmc(WmcError),
        /// The enumeration back-end refused the instance (too many variables).
        Enumeration(EnumerationError),
    }
    display {
        Self::Wmc(e) => "{e}",
        Self::Enumeration(e) => "{e}",
    }
    from {
        WmcError => Wmc,
        EnumerationError => Enumeration,
    }
}

/// True if the query holds on the given set of present nodes.
pub fn query_holds_in_world(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
    present: &std::collections::BTreeSet<NodeId>,
) -> bool {
    match query {
        PrxmlQuery::LabelExists(label) => present.iter().any(|&n| doc.label(n) == label),
        PrxmlQuery::AncestorDescendant {
            ancestor,
            descendant,
        } => {
            let parents = doc.parents();
            present.iter().any(|&n| {
                if doc.label(n) != descendant {
                    return false;
                }
                let mut current = parents[n.0];
                while let Some(p) = current {
                    if present.contains(&p) && doc.label(p) == ancestor {
                        return true;
                    }
                    current = parents[p.0];
                }
                false
            })
        }
        PrxmlQuery::ParentChild { parent, child } => {
            let parents = doc.parents();
            present.iter().any(|&n| {
                doc.label(n) == child
                    && parents[n.0]
                        .map(|p| present.contains(&p) && doc.label(p) == parent)
                        .unwrap_or(false)
            })
        }
        PrxmlQuery::And(a, b) => {
            query_holds_in_world(doc, a, present) && query_holds_in_world(doc, b, present)
        }
    }
}

/// Builds the lineage circuit of a query: a circuit over the document's
/// variables that is true exactly in the worlds where the query holds.
pub fn query_lineage(doc: &PrXmlDocument, query: &PrxmlQuery) -> Circuit {
    let (mut circuit, node_gates) = doc.presence_circuit();
    let output = lineage_gate(doc, query, &mut circuit, &node_gates);
    circuit.set_output(output);
    circuit
}

pub(crate) fn lineage_gate(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
    circuit: &mut Circuit,
    node_gates: &[GateId],
) -> GateId {
    match query {
        PrxmlQuery::LabelExists(label) => {
            let witnesses: Vec<GateId> = (0..doc.len())
                .filter(|&n| doc.label(NodeId(n)) == label)
                .map(|n| node_gates[n])
                .collect();
            circuit.add_or(witnesses)
        }
        PrxmlQuery::AncestorDescendant {
            ancestor,
            descendant,
        } => {
            // A present descendant implies all its ancestors are present, so
            // the witness condition is simply the descendant's presence gate
            // for each (ancestor, descendant) pair related in the tree.
            let parents = doc.parents();
            let mut witnesses = Vec::new();
            for n in 0..doc.len() {
                if doc.label(NodeId(n)) != descendant.as_str() {
                    continue;
                }
                let mut current = parents[n];
                while let Some(p) = current {
                    if doc.label(p) == ancestor.as_str() {
                        witnesses.push(node_gates[n]);
                        break;
                    }
                    current = parents[p.0];
                }
            }
            circuit.add_or(witnesses)
        }
        PrxmlQuery::ParentChild { parent, child } => {
            let parents = doc.parents();
            let witnesses: Vec<GateId> = (0..doc.len())
                .filter(|&n| {
                    doc.label(NodeId(n)) == child.as_str()
                        && parents[n]
                            .map(|p| doc.label(p) == parent.as_str())
                            .unwrap_or(false)
                })
                .map(|n| node_gates[n])
                .collect();
            circuit.add_or(witnesses)
        }
        PrxmlQuery::And(a, b) => {
            let ga = lineage_gate(doc, a, circuit, node_gates);
            let gb = lineage_gate(doc, b, circuit, node_gates);
            circuit.add_and(vec![ga, gb])
        }
    }
}

/// Exact query probability through the treewidth-based back-end (the
/// structurally tractable path): the lineage compiled, planned and swept
/// within [`DEFAULT_WIDTH_BUDGET`].
pub fn query_probability(doc: &PrXmlDocument, query: &PrxmlQuery) -> Result<f64, PrxmlQueryError> {
    let lineage = query_lineage(doc, query);
    let compiled =
        CompiledCircuit::compile(Arc::new(lineage), Default::default()).map_err(WmcError::from)?;
    Ok(compiled.probability(doc.probabilities(), DEFAULT_WIDTH_BUDGET)?)
}

/// Exact query probability by enumerating all variable valuations (the
/// exponential baseline, used as ground truth in tests).
pub fn query_probability_by_enumeration(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
) -> Result<f64, PrxmlQueryError> {
    let vars: Vec<VarId> = doc.variables().into_iter().collect();
    if vars.len() > stuc_circuit::enumeration::ENUMERATION_LIMIT {
        return Err(PrxmlQueryError::Enumeration(
            EnumerationError::TooManyVariables(vars.len()),
        ));
    }
    let mut total = 0.0;
    for bits in 0..(1u64 << vars.len()) {
        let mut probability = 1.0;
        let valuation: BTreeMap<VarId, bool> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let value = bits & (1 << i) != 0;
                probability *= doc.probabilities().weight(v, value).unwrap_or(0.0);
                (v, value)
            })
            .collect();
        if probability == 0.0 {
            continue;
        }
        let present = doc.world_nodes(&valuation);
        if query_holds_in_world(doc, query, &present) {
            total += probability;
        }
    }
    Ok(total)
}

/// Exact query probability by evaluating the lineage with naive enumeration
/// over the circuit's variables (cross-check of the lineage construction).
pub fn query_probability_by_lineage_enumeration(
    doc: &PrXmlDocument,
    query: &PrxmlQuery,
) -> Result<f64, PrxmlQueryError> {
    let lineage = query_lineage(doc, query);
    probability_by_enumeration(&lineage, doc.probabilities()).map_err(PrxmlQueryError::Enumeration)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn figure1_occupation_probability() {
        let doc = PrXmlDocument::figure1_example();
        let q = PrxmlQuery::LabelExists("musician".into());
        assert!(close(query_probability(&doc, &q).unwrap(), 0.4));
        assert!(close(
            query_probability_by_enumeration(&doc, &q).unwrap(),
            0.4
        ));
    }

    #[test]
    fn figure1_given_name_probabilities() {
        let doc = PrXmlDocument::figure1_example();
        let chelsea = PrxmlQuery::LabelExists("Chelsea".into());
        let bradley = PrxmlQuery::LabelExists("Bradley".into());
        assert!(close(query_probability(&doc, &chelsea).unwrap(), 0.6));
        assert!(close(query_probability(&doc, &bradley).unwrap(), 0.4));
    }

    #[test]
    fn figure1_jane_correlation() {
        let doc = PrXmlDocument::figure1_example();
        // Both Jane facts present simultaneously with probability 0.9 —
        // the whole point of the cie correlation.
        let both = PrxmlQuery::And(
            Box::new(PrxmlQuery::LabelExists("place of birth".into())),
            Box::new(PrxmlQuery::LabelExists("surname".into())),
        );
        assert!(close(query_probability(&doc, &both).unwrap(), 0.9));
    }

    #[test]
    fn figure1_ancestor_descendant_pattern() {
        let doc = PrXmlDocument::figure1_example();
        let q = PrxmlQuery::AncestorDescendant {
            ancestor: "occupation".into(),
            descendant: "musician".into(),
        };
        assert!(close(query_probability(&doc, &q).unwrap(), 0.4));
        let q = PrxmlQuery::AncestorDescendant {
            ancestor: "Q298423".into(),
            descendant: "Crescent".into(),
        };
        assert!(close(query_probability(&doc, &q).unwrap(), 0.9));
    }

    #[test]
    fn parent_child_pattern() {
        let doc = PrXmlDocument::figure1_example();
        let q = PrxmlQuery::ParentChild {
            parent: "surname".into(),
            child: "Manning".into(),
        };
        assert!(close(query_probability(&doc, &q).unwrap(), 0.9));
        // "Q298423" is not the direct parent of "Manning".
        let q = PrxmlQuery::ParentChild {
            parent: "Q298423".into(),
            child: "Manning".into(),
        };
        assert!(close(query_probability(&doc, &q).unwrap(), 0.0));
    }

    #[test]
    fn all_backends_agree_on_figure1() {
        let doc = PrXmlDocument::figure1_example();
        let queries = [
            PrxmlQuery::LabelExists("musician".into()),
            PrxmlQuery::LabelExists("Chelsea".into()),
            PrxmlQuery::And(
                Box::new(PrxmlQuery::LabelExists("musician".into())),
                Box::new(PrxmlQuery::LabelExists("Chelsea".into())),
            ),
            PrxmlQuery::AncestorDescendant {
                ancestor: "Q298423".into(),
                descendant: "Manning".into(),
            },
        ];
        for q in queries {
            let a = query_probability(&doc, &q).unwrap();
            let b = query_probability_by_enumeration(&doc, &q).unwrap();
            let c = query_probability_by_lineage_enumeration(&doc, &q).unwrap();
            assert!(close(a, b), "{q:?}: wmc {a} vs worlds {b}");
            assert!(close(a, c), "{q:?}: wmc {a} vs lineage enumeration {c}");
        }
    }

    #[test]
    fn independent_patterns_multiply() {
        let doc = PrXmlDocument::figure1_example();
        let q = PrxmlQuery::And(
            Box::new(PrxmlQuery::LabelExists("musician".into())),
            Box::new(PrxmlQuery::LabelExists("Chelsea".into())),
        );
        assert!(close(query_probability(&doc, &q).unwrap(), 0.4 * 0.6));
    }

    #[test]
    fn missing_label_has_probability_zero() {
        let doc = PrXmlDocument::figure1_example();
        let q = PrxmlQuery::LabelExists("nonexistent".into());
        assert!(close(query_probability(&doc, &q).unwrap(), 0.0));
    }
}
