//! Incremental repair of tree decompositions.
//!
//! The engine caches one tree decomposition per instance; a tuple insert
//! adds a clique (the new fact's constants) to the structure graph, and
//! rebuilding the whole decomposition per update is exactly the cost a live
//! system cannot pay. This module patches an existing decomposition
//! *locally* instead:
//!
//! * a new clique whose known vertices already share a bag gets a fresh
//!   **leaf bag** hanging off that bag;
//! * when the known vertices are scattered, one of them is chosen as an
//!   anchor and the others are pulled towards it along the **tree path**
//!   between their bags (the standard running-intersection-preserving
//!   augmentation), after which the leaf bag attaches to the anchor;
//! * vertices that appear in no clique (isolated additions) get singleton
//!   bags.
//!
//! Every grown bag is checked against a bag-size budget; when the repair
//! would exceed it, [`RepairError::BudgetExceeded`] tells the caller to fall
//! back to a full re-decomposition. The patched decomposition is always
//! re-validated against the new graph before it is returned, so a repair can
//! never silently corrupt downstream automaton runs: it either proves
//! itself or refuses.
//!
//! Deletions never need repair at all: removing edges or facts leaves every
//! decomposition condition intact (bags may merely become wider than
//! necessary — the *width drift* the caller tracks across updates).

use crate::decomposition::{BagId, DecompositionError, TreeDecomposition};
use crate::graph::{Graph, VertexId};

stuc_errors::stuc_error! {
    /// Why an incremental decomposition repair refused.
    #[derive(Clone, PartialEq)]
    pub enum RepairError {
        /// A repaired bag would exceed the bag-size budget; the caller
        /// should re-decompose from scratch (or accept the wider result of a
        /// full rebuild).
        BudgetExceeded {
            /// Bag size the repair would have produced.
            bag_size: usize,
            /// The configured maximum bag size.
            budget: usize,
        },
        /// The patched decomposition failed post-repair validation — a bug
        /// guard, surfaced instead of propagating a broken decomposition.
        Invalid(DecompositionError),
        /// An injected fault (only produced by armed failpoints under the
        /// `fault-injection` feature; never in production builds). The
        /// engine reacts exactly as for `BudgetExceeded`: full rebuild.
        Fault(String),
    }
    display {
        Self::BudgetExceeded { bag_size, budget } => "repaired bag size {bag_size} exceeds budget {budget}",
        Self::Invalid(e) => "repaired decomposition is invalid: {e}",
        Self::Fault(m) => "injected fault: {m}",
    }
    from {
        DecompositionError => Invalid,
    }
}

/// What an incremental repair did — the raw numbers the engine's
/// `UpdateReport` aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Existing bags whose content grew during path augmentation.
    pub bags_touched: usize,
    /// Fresh bags added (leaf bags for new cliques, singleton bags for
    /// isolated vertices).
    pub bags_added: usize,
    /// Width of the decomposition before the repair.
    pub width_before: usize,
    /// Width after the repair (at most `max_bag_size - 1` by construction).
    pub width_after: usize,
}

/// Patches `td` — a valid decomposition of the pre-update graph — into a
/// valid decomposition of `graph`, which extends the old graph by
/// `new_cliques` (one clique per inserted fact / gate) and possibly new
/// vertices. Bags never exceed `max_bag_size`; repairs that would are
/// refused with [`RepairError::BudgetExceeded`].
///
/// `td` is patched in place and, on success, returned together with a
/// [`RepairReport`]; callers that still need the old decomposition pass a
/// copy.
pub fn repair_decomposition(
    mut td: TreeDecomposition,
    graph: &Graph,
    new_cliques: &[Vec<VertexId>],
    max_bag_size: usize,
) -> Result<(TreeDecomposition, RepairReport), RepairError> {
    stuc_fault::failpoint!("graph-repair", RepairError::Fault);
    let mut report = RepairReport {
        width_before: td.width(),
        ..Default::default()
    };
    // One representative bag per vertex (`NO_BAG` for none yet): the
    // first bag containing it.
    let vertex_count = td
        .bag_ids()
        .filter_map(|b| td.bag(b).last())
        .chain(new_cliques.iter().flatten())
        .map(|v| v.0 + 1)
        .fold(graph.vertex_count(), usize::max);
    let mut home = vec![NO_BAG; vertex_count];
    let settle = |home: &mut [usize], v: VertexId, b: BagId| {
        if home[v.0] == NO_BAG {
            home[v.0] = b.0;
        }
    };
    for b in td.bag_ids() {
        for &v in td.bag(b) {
            settle(&mut home, v, b);
        }
    }
    let mut touched: Vec<bool> = vec![false; td.bag_count()];
    let mut clique: Vec<VertexId> = Vec::new();

    for new_clique in new_cliques {
        clique.clear();
        clique.extend_from_slice(new_clique);
        clique.sort_unstable();
        clique.dedup();
        if clique.is_empty() {
            continue;
        }
        if clique.len() > max_bag_size {
            return Err(RepairError::BudgetExceeded {
                bag_size: clique.len(),
                budget: max_bag_size,
            });
        }
        let known: Vec<VertexId> = clique
            .iter()
            .copied()
            .filter(|&v| home[v.0] != NO_BAG)
            .collect();
        let fresh_count = clique.len() - known.len();

        // Fully covered already (e.g. a duplicate fact): nothing to do.
        if fresh_count == 0 && td.find_bag_containing(&known).is_some() {
            continue;
        }

        let anchor = if known.is_empty() {
            // A brand-new component: the leaf bag can hang anywhere.
            td.bag_ids().next()
        } else if let Some(covering) = td.find_bag_containing(&known) {
            Some(covering)
        } else {
            // Pull every known vertex towards the anchor along tree paths.
            let anchor = BagId(home[known[0].0]);
            for &u in &known[1..] {
                if td.bag(anchor).contains(&u) {
                    continue;
                }
                for on_path in path_to_vertex(&td, anchor, u, BagId(home[u.0])) {
                    if td.add_to_bag(on_path, u) {
                        let size = td.bag(on_path).len();
                        if size > max_bag_size {
                            return Err(RepairError::BudgetExceeded {
                                bag_size: size,
                                budget: max_bag_size,
                            });
                        }
                        if !std::mem::replace(&mut touched[on_path.index()], true) {
                            report.bags_touched += 1;
                        }
                    }
                }
            }
            Some(anchor)
        };

        if fresh_count == 0 {
            // The augmented anchor now contains the whole clique; no leaf
            // bag is needed.
            continue;
        }
        let leaf = td.add_bag(anchor, clique.iter().copied());
        touched.push(false);
        for &v in &clique {
            settle(&mut home, v, leaf);
        }
        report.bags_added += 1;
    }

    // Cover isolated new vertices (in the graph, but in no clique).
    let mut isolated_anchor = td.bag_ids().next();
    for v in graph.vertices() {
        if home[v.0] != NO_BAG {
            continue;
        }
        let singleton = td.add_bag(isolated_anchor, [v]);
        isolated_anchor = isolated_anchor.or(Some(singleton));
        settle(&mut home, v, singleton);
        report.bags_added += 1;
    }

    if report.bags_touched > 0 {
        td.compact();
    }
    // Insurance: a repair either proves itself against the new graph or
    // refuses — it never hands back a broken decomposition.
    td.validate(graph)?;
    report.width_after = td.width();
    Ok((td, report))
}

/// No bag (yet): an unset entry of a vertex's home.
const NO_BAG: usize = usize::MAX;

/// The bags on the tree path from `from` (inclusive) to the nearest bag
/// containing `target` (exclusive), nearest to that bag first. `toward`
/// holds `target`; tree paths are unique, so the path runs up from `from`
/// to the lowest common ancestor, then down to `toward`, and stops at its
/// first bag holding `target` (the bags holding it form a subtree).
fn path_to_vertex(
    td: &TreeDecomposition,
    from: BagId,
    target: VertexId,
    toward: BagId,
) -> Vec<BagId> {
    let climb = |b: BagId| std::iter::successors(Some(b), |&b| td.parent(b)).collect::<Vec<_>>();
    // Both climbs end at bag 0: drop what they share above the lowest
    // common ancestor, which then ends both.
    let (mut up, mut down) = (climb(from), climb(toward));
    while up.len() > 1 && down.len() > 1 && up[up.len() - 2] == down[down.len() - 2] {
        up.pop();
        down.pop();
    }
    down.pop();
    let mut path: Vec<BagId> = up
        .into_iter()
        .chain(down.into_iter().rev())
        .take_while(|&b| td.bag(b).binary_search(&target).is_err())
        .collect();
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use crate::generators::SplitMix64;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_vertices(n);
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1));
        }
        g
    }

    fn decompose(g: &Graph) -> TreeDecomposition {
        decompose_with_heuristic(g, EliminationHeuristic::MinDegree)
    }

    fn grow(graph: &Graph, clique: &[VertexId]) -> Graph {
        let mut g = graph.clone();
        g.ensure_vertices(clique.iter().map(|v| v.0 + 1).max().unwrap_or(0));
        for (i, &u) in clique.iter().enumerate() {
            for &v in &clique[i + 1..] {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn leaf_bag_extension_for_adjacent_insert() {
        // Extend a path by one edge at the end: one new leaf bag, width 1.
        let g = path_graph(6);
        let td = decompose(&g);
        let clique = vec![VertexId(5), VertexId(6)];
        let new_graph = grow(&g, &clique);
        let (patched, report) = repair_decomposition(td, &new_graph, &[clique], 8).unwrap();
        assert!(patched.validate(&new_graph).is_ok());
        assert_eq!(report.bags_added, 1);
        assert_eq!(report.bags_touched, 0);
        assert_eq!(report.width_after, 1);
    }

    #[test]
    fn path_augmentation_for_long_range_edge() {
        // An edge between the two endpoints of a path forces augmentation
        // along the whole spine; width grows to 2, still within budget.
        let g = path_graph(6);
        let td = decompose(&g);
        let clique = vec![VertexId(0), VertexId(5)];
        let new_graph = grow(&g, &clique);
        let (patched, report) =
            repair_decomposition(td, &new_graph, &[clique], 8).expect("repair fits budget");
        assert!(patched.validate(&new_graph).is_ok());
        assert!(report.bags_touched > 0);
        assert!(report.width_after >= 2);
    }

    #[test]
    fn budget_refusal_forces_fallback() {
        let g = path_graph(6);
        let td = decompose(&g);
        let clique = vec![VertexId(0), VertexId(5)];
        let new_graph = grow(&g, &clique);
        assert!(matches!(
            repair_decomposition(td, &new_graph, &[clique], 2),
            Err(RepairError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn brand_new_component_gets_a_leaf_bag() {
        let g = path_graph(4);
        let td = decompose(&g);
        let clique = vec![VertexId(4), VertexId(5)];
        let new_graph = grow(&g, &clique);
        let (patched, report) = repair_decomposition(td, &new_graph, &[clique], 8).unwrap();
        assert!(patched.validate(&new_graph).is_ok());
        assert_eq!(report.bags_added, 1);
    }

    #[test]
    fn isolated_new_vertices_are_covered() {
        let g = path_graph(3);
        let td = decompose(&g);
        let mut new_graph = g.clone();
        new_graph.add_vertex();
        let (patched, report) = repair_decomposition(td, &new_graph, &[], 8).unwrap();
        assert!(patched.validate(&new_graph).is_ok());
        assert_eq!(report.bags_added, 1);
    }

    #[test]
    fn duplicate_clique_is_a_no_op() {
        let g = path_graph(5);
        let td = decompose(&g);
        let (patched, report) =
            repair_decomposition(td.clone(), &g, &[vec![VertexId(1), VertexId(2)]], 8).unwrap();
        assert_eq!(report.bags_added, 0);
        assert_eq!(report.bags_touched, 0);
        assert_eq!(patched.bag_count(), td.bag_count());
    }

    #[test]
    fn repair_from_empty_decomposition() {
        let g = Graph::new();
        let td = TreeDecomposition::new();
        let mut new_graph = g.clone();
        new_graph.ensure_vertices(2);
        new_graph.add_edge(VertexId(0), VertexId(1));
        let (patched, report) =
            repair_decomposition(td, &new_graph, &[vec![VertexId(0), VertexId(1)]], 8).unwrap();
        assert!(patched.validate(&new_graph).is_ok());
        assert_eq!(report.bags_added, 1);
    }

    #[test]
    fn random_insert_sequences_stay_valid() {
        // Grow a random sparse graph one clique at a time; every repair must
        // validate, and refusals must only happen on genuine budget stress.
        let mut rng = SplitMix64::new(41);
        for _ in 0..20 {
            let n = 8 + rng.next_below(8);
            let mut graph = Graph::with_vertices(n);
            for i in 1..n {
                graph.add_edge(VertexId(i), VertexId(rng.next_below(i)));
            }
            let mut td = decompose(&graph);
            for _ in 0..6 {
                let a = rng.next_below(graph.vertex_count());
                let b = rng.next_below(graph.vertex_count() + 2);
                let clique = vec![VertexId(a), VertexId(b)];
                let new_graph = grow(&graph, &clique);
                match repair_decomposition(td, &new_graph, &[clique], 12) {
                    Ok((patched, report)) => {
                        assert!(patched.validate(&new_graph).is_ok());
                        assert!(report.width_after < 12);
                        td = patched;
                    }
                    Err(RepairError::BudgetExceeded { .. }) => {
                        td = decompose(&new_graph);
                    }
                    Err(other) => panic!("unexpected repair failure: {other}"),
                }
                graph = new_graph;
            }
        }
    }
}
