//! The probabilistic chase: bounded-depth forward application of
//! probabilistic existential rules with lineage tracking.

use crate::rule::Rule;
use std::collections::{BTreeMap, BTreeSet};
use stuc_circuit::circuit::{Circuit, GateId, VarId};
use stuc_circuit::compiled::{one_shot_probability, OneShotError};
use stuc_circuit::weights::Weights;
use stuc_data::instance::{ConstId, FactId, Instance};
use stuc_data::tid::TidInstance;
use stuc_query::cq::{ConjunctiveQuery, Term};
use stuc_query::eval::all_matches;
use stuc_query::lineage::match_lineage;

/// Configuration of the probabilistic chase.
#[derive(Debug, Clone)]
pub struct ChaseConfig {
    /// Maximum number of rounds (each round applies every rule to every new
    /// match found so far). Bounding the depth is the paper's "truncate it
    /// and control the error" option for possibly non-terminating chases.
    pub max_rounds: usize,
    /// Hard cap on the number of derived facts, as a safety valve.
    pub max_derived_facts: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 3,
            max_derived_facts: 10_000,
        }
    }
}

/// The outcome of a probabilistic chase: the completed instance, the shared
/// lineage circuit, one gate per fact, and the event probabilities.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The completed instance (base facts first, derived facts after).
    pub instance: Instance,
    /// Shared lineage circuit over base-fact events and rule-application
    /// events.
    pub circuit: Circuit,
    /// For every fact of `instance`, the gate computing its presence.
    pub fact_gates: Vec<GateId>,
    /// Probabilities of all events (base facts and rule applications).
    pub weights: Weights,
    /// Number of base facts (facts `0..base_fact_count` come from the input).
    pub base_fact_count: usize,
    /// Number of rule applications performed.
    pub applications: usize,
}

stuc_errors::stuc_error! {
    /// Errors raised by chase-based reasoning.
    #[derive(Clone, PartialEq)]
    pub enum ChaseError {
        /// The derived-fact budget was exhausted.
        TooManyDerivedFacts,
        /// A probability computation failed (width or size limits).
        Probability(String),
        /// The ambient evaluation budget (deadline or cancellation) tripped
        /// mid-chase.
        Budget(stuc_fault::BudgetError),
    }
    display {
        Self::TooManyDerivedFacts => "too many derived facts",
        Self::Probability(e) => "probability computation failed: {e}",
        Self::Budget(e) => "{e}",
    }
    from {
        stuc_fault::BudgetError => Budget,
    }
}

impl From<OneShotError> for ChaseError {
    fn from(e: OneShotError) -> Self {
        ChaseError::Probability(e.to_string())
    }
}

/// The probabilistic chase engine.
#[derive(Debug, Clone, Default)]
pub struct ProbabilisticChase {
    rules: Vec<Rule>,
    config: ChaseConfig,
}

impl ProbabilisticChase {
    /// Creates a chase engine with the given rules and default configuration.
    pub fn new(rules: Vec<Rule>) -> Self {
        ProbabilisticChase {
            rules,
            config: ChaseConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: ChaseConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the chase on a TID instance (each base fact keeps its own
    /// independent presence event).
    pub fn run(&self, base: &TidInstance) -> Result<ChaseResult, ChaseError> {
        let mut instance = Instance::new();
        let mut circuit = Circuit::new();
        let mut weights = Weights::new();
        let mut fact_gates: Vec<GateId> = Vec::new();
        // Derivations collected per fact (base facts have a single input gate).
        let mut derivations: BTreeMap<usize, Vec<GateId>> = BTreeMap::new();
        let mut next_event = 0usize;
        let mut next_null = 0usize;
        let mut applications = 0usize;

        // Import the base facts.
        for (fid, fact) in base.instance().facts() {
            let relation = base.instance().relation_name(fact.relation).to_string();
            let args: Vec<String> = fact
                .args
                .iter()
                .map(|&c| base.instance().constant_name(c).to_string())
                .collect();
            let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
            instance.add_fact_named(&relation, &arg_refs);
            let event = VarId(next_event);
            next_event += 1;
            weights.set(event, base.probability(fid));
            let gate = circuit.add_input(event);
            fact_gates.push(gate);
        }
        let base_fact_count = fact_gates.len();

        // Applied matches, identified by (rule index, witness facts, frontier bindings).
        type AppliedMatch = (usize, Vec<FactId>, Vec<(String, String)>);
        let mut applied: BTreeSet<AppliedMatch> = BTreeSet::new();

        let mut budget_gate = stuc_fault::budget::Gate::every(64);
        for _round in 0..self.config.max_rounds {
            stuc_fault::budget::check("chase round")?;
            let mut new_facts_this_round = 0usize;
            for (rule_index, rule) in self.rules.iter().enumerate() {
                let matches = all_matches(&instance, &rule.body_query());
                for m in matches {
                    budget_gate.check("chase matches")?;
                    let bindings: Vec<(String, String)> = m
                        .assignment
                        .iter()
                        .map(|(v, &c)| (v.clone(), instance.constant_name(c).to_string()))
                        .collect();
                    let key = (rule_index, m.witnesses.clone(), bindings.clone());
                    if applied.contains(&key) {
                        continue;
                    }
                    applied.insert(key);
                    applications += 1;

                    // Fresh application event.
                    let event = VarId(next_event);
                    next_event += 1;
                    weights.set(event, rule.confidence);
                    let event_gate = circuit.add_input(event);

                    // Derivation gate: premises AND the application event.
                    let mut premise_gates: Vec<GateId> =
                        m.witnesses.iter().map(|&f| fact_gates[f.0]).collect();
                    premise_gates.push(event_gate);
                    premise_gates.sort();
                    premise_gates.dedup();
                    let derivation_gate = circuit.add_and(premise_gates);

                    // Instantiate the head, inventing nulls for existential variables.
                    let mut null_names: BTreeMap<String, String> = BTreeMap::new();
                    for head_atom in &rule.head {
                        let args: Vec<String> = head_atom
                            .args
                            .iter()
                            .map(|t| match t {
                                Term::Const(c) => c.clone(),
                                Term::Var(v) => {
                                    if let Some((_, constant)) =
                                        bindings.iter().find(|(name, _)| name == v)
                                    {
                                        constant.clone()
                                    } else {
                                        null_names
                                            .entry(v.clone())
                                            .or_insert_with(|| {
                                                let name = format!("_null{next_null}");
                                                next_null += 1;
                                                name
                                            })
                                            .clone()
                                    }
                                }
                            })
                            .collect();
                        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();

                        // Reuse an existing identical fact if the head has no
                        // existential variables; otherwise always create a
                        // fresh fact (fresh nulls are never equal to anything).
                        // An unknown relation or constant name means no
                        // such fact exists yet.
                        let existing = if null_names.is_empty() {
                            let relation = instance.find_relation(&head_atom.relation);
                            let constants: Option<Vec<ConstId>> =
                                args.iter().map(|a| instance.find_constant(a)).collect();
                            relation
                                .zip(constants)
                                .and_then(|(r, constants)| instance.find_fact(r, &constants))
                        } else {
                            None
                        };
                        match existing {
                            Some(f) => {
                                derivations.entry(f.0).or_default().push(derivation_gate);
                            }
                            None => {
                                if fact_gates.len() - base_fact_count
                                    >= self.config.max_derived_facts
                                {
                                    return Err(ChaseError::TooManyDerivedFacts);
                                }
                                instance.add_fact_named(&head_atom.relation, &arg_refs);
                                fact_gates.push(derivation_gate);
                                derivations
                                    .entry(fact_gates.len() - 1)
                                    .or_default()
                                    .push(derivation_gate);
                                new_facts_this_round += 1;
                            }
                        }
                    }
                }
            }
            if new_facts_this_round == 0 {
                break;
            }
        }

        // Finalise gates: facts with several derivations get an OR.
        for (fact, gates) in &derivations {
            if *fact < base_fact_count {
                // Base facts additionally stay present by their own event.
                let mut inputs = vec![fact_gates[*fact]];
                inputs.extend(gates.iter().copied());
                inputs.sort();
                inputs.dedup();
                fact_gates[*fact] = circuit.add_or(inputs);
            } else if gates.len() > 1 {
                let mut inputs = gates.clone();
                inputs.sort();
                inputs.dedup();
                fact_gates[*fact] = circuit.add_or(inputs);
            }
        }

        Ok(ChaseResult {
            instance,
            circuit,
            fact_gates,
            weights,
            base_fact_count,
            applications,
        })
    }
}

impl ChaseResult {
    /// The probability that a given fact (base or derived) is present.
    pub fn fact_probability(&self, fact: FactId) -> Result<f64, ChaseError> {
        let mut circuit = self.circuit.clone();
        circuit.set_output(self.fact_gates[fact.0]);
        Ok(one_shot_probability(&circuit, &self.weights)?)
    }

    /// The probability that a Boolean conjunctive query holds on the
    /// completed instance (base and derived facts together).
    pub fn query_probability(&self, query: &ConjunctiveQuery) -> Result<f64, ChaseError> {
        let matches = all_matches(&self.instance, query);
        let circuit = match_lineage(
            self.circuit.clone(),
            matches.into_iter().map(|m| m.witnesses),
            |_, f| self.fact_gates[f.0],
        );
        Ok(one_shot_probability(&circuit, &self.weights)?)
    }

    /// Number of derived (non-base) facts.
    pub fn derived_fact_count(&self) -> usize {
        self.fact_gates.len() - self.base_fact_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb() -> TidInstance {
        let mut tid = TidInstance::new();
        tid.add_fact_named("Citizen", &["alice", "france"], 0.9);
        tid.add_fact_named("Citizen", &["bob", "france"], 0.6);
        tid.add_fact_named("OfficialLanguage", &["france", "french"], 1.0);
        tid
    }

    #[test]
    fn single_rule_derivation_probability() {
        // Citizens usually live in their country (confidence 0.8).
        let rule = Rule::parse("Lives(x, y) :- Citizen(x, y)", 0.8).unwrap();
        let chase = ProbabilisticChase::new(vec![rule]);
        let result = chase.run(&kb()).unwrap();
        assert_eq!(result.derived_fact_count(), 2);
        // P(Lives(alice, france)) = 0.9 · 0.8.
        let lives = result.instance.find_relation("Lives").unwrap();
        let alice_lives = result
            .instance
            .facts_of(lives)
            .iter()
            .copied()
            .find(|&f| result.instance.render_fact(f).contains("alice"))
            .unwrap();
        let p = result.fact_probability(alice_lives).unwrap();
        assert!((p - 0.72).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn chained_rules_multiply_confidences() {
        // Citizens usually live in the country; residents usually speak the
        // official language.
        let rules = vec![
            Rule::parse("Lives(x, y) :- Citizen(x, y)", 0.8).unwrap(),
            Rule::parse("Speaks(x, l) :- Lives(x, y), OfficialLanguage(y, l)", 0.7).unwrap(),
        ];
        let chase = ProbabilisticChase::new(rules);
        let result = chase.run(&kb()).unwrap();
        let q = ConjunctiveQuery::parse("Speaks(\"alice\", \"french\")").unwrap();
        let p = result.query_probability(&q).unwrap();
        assert!((p - 0.9 * 0.8 * 0.7).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn existential_rules_invent_nulls() {
        let rule = Rule::parse("CoAuthored(x, y, p) :- Advises(x, y)", 0.5).unwrap();
        let mut tid = TidInstance::new();
        tid.add_fact_named("Advises", &["prof", "student"], 1.0);
        let chase = ProbabilisticChase::new(vec![rule]);
        let result = chase.run(&tid).unwrap();
        assert_eq!(result.derived_fact_count(), 1);
        let coauthored = result.instance.find_relation("CoAuthored").unwrap();
        let fact = result.instance.facts_of(coauthored)[0];
        assert!(result.instance.render_fact(fact).contains("_null"));
        let p = result.fact_probability(fact).unwrap();
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_derivations_combine_by_or() {
        // Two independent ways to derive Reachable(a, c).
        let rules = vec![Rule::parse("Reachable(x, z) :- Edge(x, y), Edge(y, z)", 1.0).unwrap()];
        let mut tid = TidInstance::new();
        tid.add_fact_named("Edge", &["a", "b1"], 0.5);
        tid.add_fact_named("Edge", &["b1", "c"], 0.5);
        tid.add_fact_named("Edge", &["a", "b2"], 0.5);
        tid.add_fact_named("Edge", &["b2", "c"], 0.5);
        let chase = ProbabilisticChase::new(rules);
        let result = chase.run(&tid).unwrap();
        let q = ConjunctiveQuery::parse("Reachable(\"a\", \"c\")").unwrap();
        let p = result.query_probability(&q).unwrap();
        // Two independent paths each with probability 0.25: 1 - 0.75² = 0.4375.
        assert!((p - 0.4375).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn transitive_rules_respect_round_bound() {
        let rules = vec![Rule::parse("Edge(x, z) :- Edge(x, y), Edge(y, z)", 1.0).unwrap()];
        let mut tid = TidInstance::new();
        for i in 0..4 {
            tid.add_fact_named("Edge", &[&format!("v{i}"), &format!("v{}", i + 1)], 1.0);
        }
        let one_round = ProbabilisticChase::new(rules.clone()).with_config(ChaseConfig {
            max_rounds: 1,
            max_derived_facts: 100,
        });
        let many_rounds = ProbabilisticChase::new(rules).with_config(ChaseConfig {
            max_rounds: 5,
            max_derived_facts: 100,
        });
        let few = one_round.run(&tid).unwrap().derived_fact_count();
        let more = many_rounds.run(&tid).unwrap().derived_fact_count();
        assert!(more >= few);
        // Full transitive closure of a 5-vertex path adds 6 pairs.
        assert_eq!(more, 6);
    }

    #[test]
    fn derived_fact_budget_is_enforced() {
        let rules = vec![Rule::parse("Bigger(x, y) :- Bigger(y, x)", 1.0).unwrap()];
        let mut tid = TidInstance::new();
        tid.add_fact_named("Bigger", &["a", "b"], 1.0);
        // The rule flips arguments forever (fresh matches each round);
        // a tiny budget must stop it.
        let chase = ProbabilisticChase::new(rules).with_config(ChaseConfig {
            max_rounds: 50,
            max_derived_facts: 1,
        });
        // Either it converges quickly (the flipped fact already exists) or
        // the budget triggers; both are acceptable, but it must not hang.
        let _ = chase.run(&tid);
    }

    #[test]
    fn base_facts_keep_their_probability_without_rules() {
        let chase = ProbabilisticChase::new(vec![]);
        let result = chase.run(&kb()).unwrap();
        assert_eq!(result.derived_fact_count(), 0);
        let p = result.fact_probability(FactId(0)).unwrap();
        assert!((p - 0.9).abs() < 1e-9);
    }
}
