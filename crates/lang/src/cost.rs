//! The cost model that routes a lowered goal to an evaluator.
//!
//! Two routes exist downstream:
//!
//! * the **safe-plan** evaluator — polynomial-time extensional rules,
//!   applicable only when every inclusion–exclusion term is a hierarchical,
//!   self-join-free CQ (the Dalvi–Suciu dichotomy frontier, which the
//!   source paper's structural story generalises away from);
//! * **lineage → compiled circuit** — always applicable, cost governed by
//!   the match count and the width of the compiled representation.
//!
//! The model scores both from cheap syntactic facts (atom counts) and
//! per-relation fact fan-in gathered from the instance, then picks the
//! cheaper *eligible* route. It deliberately stays coarse: its job is to
//! pick safe plans when they apply and not to regress badly otherwise,
//! and to explain its choice in the evaluation report.

use crate::lower::LoweredGoal;
use std::collections::BTreeMap;
use stuc_data::instance::{Instance, RelId};
use stuc_query::cq::ConjunctiveQuery;
use stuc_query::safe::is_hierarchical;

/// Per-relation fact counts ("fan-in") of the instance under query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelationStats {
    counts: BTreeMap<String, usize>,
}

impl RelationStats {
    /// Collects fact counts per relation name from a plain instance: one
    /// entry per non-empty relation, read from the instance's maintained
    /// per-relation sizes (no scan over the facts).
    pub fn from_instance(instance: &Instance) -> Self {
        let counts = (0..instance.relation_count())
            .map(RelId)
            .filter(|&r| instance.relation_size(r) > 0)
            .map(|r| {
                (
                    instance.relation_name(r).to_string(),
                    instance.relation_size(r),
                )
            })
            .collect();
        RelationStats { counts }
    }

    /// Builds stats from explicit `(relation, count)` pairs.
    pub fn from_counts(pairs: impl IntoIterator<Item = (String, usize)>) -> Self {
        RelationStats {
            counts: pairs.into_iter().collect(),
        }
    }

    /// The number of facts of a relation (0 when absent).
    pub fn fan_in(&self, relation: &str) -> usize {
        self.counts.get(relation).copied().unwrap_or(0)
    }

    /// Total fact count across all relations.
    pub fn total_facts(&self) -> usize {
        self.counts.values().sum()
    }
}

/// The evaluator a goal is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The extensional safe-plan evaluator.
    SafePlan,
    /// Lineage construction followed by circuit compilation.
    Circuit,
}

impl std::fmt::Display for Route {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Route::SafePlan => f.write_str("safe-plan"),
            Route::Circuit => f.write_str("circuit"),
        }
    }
}

/// The routing decision together with the evidence behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteDecision {
    /// The chosen route.
    pub route: Route,
    /// True when every term is hierarchical and self-join-free, i.e. the
    /// safe-plan route was structurally available at all.
    pub safe_eligible: bool,
    /// Estimated cost of the safe-plan route (meaningless when ineligible).
    pub safe_cost: f64,
    /// Estimated cost of the lineage/circuit route.
    pub circuit_cost: f64,
    /// True when a compiled circuit for this goal was already cached, which
    /// discounts the circuit route.
    pub cached_lineage: bool,
}

impl RouteDecision {
    /// A deterministic, float-free one-line explanation of the decision
    /// (golden-output friendly: no raw cost numbers, whose last bits vary
    /// across libm implementations).
    pub fn summary(&self) -> String {
        match (self.route, self.safe_eligible) {
            (Route::SafePlan, _) => {
                "route=safe-plan (all terms hierarchical and self-join-free, cheaper than compilation)"
                    .to_string()
            }
            (Route::Circuit, false) => {
                "route=circuit (some term is non-hierarchical or has self-joins; safe plan inapplicable)"
                    .to_string()
            }
            (Route::Circuit, true) if self.cached_lineage => {
                "route=circuit (safe plan applicable, but a compiled circuit is already cached)"
                    .to_string()
            }
            (Route::Circuit, true) => {
                "route=circuit (safe plan applicable but costed higher than compilation)".to_string()
            }
        }
    }
}

/// Cap on the estimated match count, to keep products finite.
const MATCH_ESTIMATE_CAP: f64 = 1e12;

/// Per-gate cost factor of the compiled-circuit route.
const GATE_FACTOR: f64 = 3.0;

/// Multiplicative discount applied to the circuit route when a compiled
/// circuit is already cached.
const CACHED_DISCOUNT: f64 = 0.1;

/// The cost model that scores the safe-plan and circuit routes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostModel;

impl CostModel {
    /// Estimated cost of evaluating one CQ term with the safe-plan rules:
    /// each atom scans its relation and participates in sort/aggregate
    /// passes, so `Σᵢ fᵢ · (1 + ln(1 + fᵢ))` over the atoms' fan-ins.
    pub fn safe_cost(&self, query: &ConjunctiveQuery, stats: &RelationStats) -> f64 {
        query
            .atoms
            .iter()
            .map(|atom| {
                let f = stats.fan_in(&atom.relation) as f64;
                f * (1.0 + (1.0 + f).ln())
            })
            .sum()
    }

    /// Estimated cost of the lineage/circuit route for one CQ term:
    /// lineage construction touches every candidate fact, and compilation
    /// plus weighted counting is linear in the circuit size, which grows
    /// with the (capped) estimated match count.
    pub fn circuit_cost(&self, query: &ConjunctiveQuery, stats: &RelationStats) -> f64 {
        let scan: f64 = query
            .atoms
            .iter()
            .map(|atom| stats.fan_in(&atom.relation) as f64)
            .sum();
        let mut matches: f64 = 1.0;
        for atom in &query.atoms {
            matches =
                (matches * (stats.fan_in(&atom.relation).max(1) as f64)).min(MATCH_ESTIMATE_CAP);
        }
        scan + GATE_FACTOR * matches
    }

    /// Scores both routes for a lowered goal and picks the cheaper
    /// eligible one. `cached_lineage` reports whether the engine already
    /// holds a compiled circuit for this goal.
    pub fn choose(
        &self,
        goal: &LoweredGoal,
        stats: &RelationStats,
        cached_lineage: bool,
    ) -> RouteDecision {
        let mut safe_eligible = true;
        let mut safe_cost = 0.0;
        let mut circuit_cost = 0.0;
        for term in &goal.terms {
            let Some(query) = &term.query else {
                continue; // The tautology costs nothing on either route.
            };
            safe_eligible &= query.is_self_join_free() && is_hierarchical(query);
            safe_cost += self.safe_cost(query, stats);
            circuit_cost += self.circuit_cost(query, stats);
        }
        if cached_lineage {
            circuit_cost *= CACHED_DISCOUNT;
        }
        let route = if safe_eligible && safe_cost <= circuit_cost {
            Route::SafePlan
        } else {
            Route::Circuit
        };
        RouteDecision {
            route,
            safe_eligible,
            safe_cost,
            circuit_cost,
            cached_lineage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_goal;
    use crate::parser::parse_query;

    fn lowered(src: &str) -> LoweredGoal {
        let query = parse_query(src).unwrap();
        lower_goal(&query.goal, &[]).unwrap()
    }

    fn stats(pairs: &[(&str, usize)]) -> RelationStats {
        RelationStats::from_counts(pairs.iter().map(|(r, c)| (r.to_string(), *c)))
    }

    #[test]
    fn instance_stats_list_each_non_empty_relation_once() {
        let mut instance = Instance::new();
        instance.add_fact_named("R", &["a", "b"]);
        instance.add_fact_named("S", &["a"]);
        instance.add_fact_named("R", &["b", "c"]);
        instance.relation("Unused");
        instance.remove_fact(stuc_data::instance::FactId(1));
        assert_eq!(RelationStats::from_instance(&instance), stats(&[("R", 2)]));
    }

    #[test]
    fn hierarchical_queries_route_to_the_safe_plan() {
        let goal = lowered("?- R(x), S(x, y).");
        let decision = CostModel.choose(&goal, &stats(&[("R", 100), ("S", 100)]), false);
        assert!(decision.safe_eligible);
        assert_eq!(decision.route, Route::SafePlan);
        assert!(decision.summary().contains("safe-plan"));
    }

    #[test]
    fn the_hard_query_routes_to_the_circuit() {
        // R(x), S(x, y), T(y) — the canonical non-hierarchical query.
        let goal = lowered("?- R(x), S(x, y), T(y).");
        let decision = CostModel.choose(&goal, &stats(&[("R", 10), ("S", 10), ("T", 10)]), false);
        assert!(!decision.safe_eligible);
        assert_eq!(decision.route, Route::Circuit);
        assert!(decision.summary().contains("inapplicable"));
    }

    #[test]
    fn self_joins_disqualify_the_safe_plan() {
        let goal = lowered("?- R(x, y), R(y, z).");
        let decision = CostModel.choose(&goal, &stats(&[("R", 10)]), false);
        assert!(!decision.safe_eligible);
        assert_eq!(decision.route, Route::Circuit);
    }

    #[test]
    fn union_terms_are_scored_jointly() {
        // The union's cross term R(x__d0), S(x__d1) stays hierarchical
        // (variables in disjoint atom sets), so the goal is still safe.
        let goal = lowered("?- R(x); S(x).");
        let decision = CostModel.choose(&goal, &stats(&[("R", 5), ("S", 5)]), false);
        assert!(decision.safe_eligible);
        assert_eq!(decision.route, Route::SafePlan);
    }

    #[test]
    fn cached_lineage_discounts_the_circuit_route() {
        let goal = lowered("?- R(x), S(x, y).");
        let model = CostModel;
        let s = stats(&[("R", 3), ("S", 3)]);
        let cold = model.choose(&goal, &s, false);
        let warm = model.choose(&goal, &s, true);
        assert!(warm.circuit_cost < cold.circuit_cost);
        assert!(warm.summary().contains("cached") || warm.route == Route::SafePlan);
    }

    #[test]
    fn match_estimates_are_capped() {
        let goal = lowered("?- R(x), S(x, y).");
        let decision = CostModel.choose(
            &goal,
            &stats(&[("R", 10_000_000), ("S", 10_000_000)]),
            false,
        );
        assert!(decision.circuit_cost.is_finite());
    }

    #[test]
    fn zero_fan_in_relations_cost_nothing_on_the_safe_route() {
        let goal = lowered("?- Missing(x).");
        let model = CostModel;
        let decision = model.choose(&goal, &stats(&[]), false);
        assert_eq!(decision.safe_cost, 0.0);
        assert_eq!(decision.route, Route::SafePlan);
    }
}
