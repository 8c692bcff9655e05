//! Crowd question selection: which event to ask about next.
//!
//! "From our current knowledge and our current estimation of the likely
//! answers, we must decide what is the next question that we should ask to
//! the crowd, to reduce our uncertainty on the final answer" (paper,
//! Section 4). The selector scores each candidate event by the *expected
//! entropy* of the target query after observing that event, and picks the
//! question minimising it (maximum expected information gain). A simulated
//! crowd oracle with configurable reliability closes the loop.

use crate::conditioning::ConditioningError;
use rand::Rng;
use stuc_circuit::circuit::{Circuit, VarId};
use stuc_circuit::compiled::one_shot_probability;
use stuc_circuit::weights::Weights;

/// Binary entropy (in bits) of a probability.
pub fn entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let term = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            -x * x.log2()
        }
    };
    term(p) + term(1.0 - p)
}

/// Scores candidate questions (events to ask about) against a target query
/// lineage.
#[derive(Debug, Clone, Default)]
pub struct QuestionSelector;

/// The assessment of one candidate question.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionValue {
    /// The event the question would ask about.
    pub event: VarId,
    /// Probability that the answer is "true" under the current distribution.
    pub probability_true: f64,
    /// Expected entropy of the target query after observing the answer.
    pub expected_entropy: f64,
}

impl QuestionSelector {
    /// Evaluates every candidate event and returns them sorted by increasing
    /// expected posterior entropy (best question first).
    pub fn rank_questions(
        &self,
        query_lineage: &Circuit,
        weights: &Weights,
        candidates: &[VarId],
    ) -> Result<Vec<QuestionValue>, ConditioningError> {
        let mut values = Vec::with_capacity(candidates.len());
        for &event in candidates {
            let p_true = weights.get(event).ok_or_else(|| {
                ConditioningError::Probability(format!("{event} has no probability"))
            })?;
            let mut expected = 0.0;
            for value in [true, false] {
                let weight = if value { p_true } else { 1.0 - p_true };
                if weight == 0.0 {
                    continue;
                }
                let mut conditioned = weights.clone();
                conditioned.fix(event, value);
                let posterior = one_shot_probability(query_lineage, &conditioned)?;
                expected += weight * entropy(posterior);
            }
            values.push(QuestionValue {
                event,
                probability_true: p_true,
                expected_entropy: expected,
            });
        }
        values.sort_by(|a, b| a.expected_entropy.total_cmp(&b.expected_entropy));
        Ok(values)
    }

    /// The single best question, if any candidate was given.
    pub fn best_question(
        &self,
        query_lineage: &Circuit,
        weights: &Weights,
        candidates: &[VarId],
    ) -> Result<Option<QuestionValue>, ConditioningError> {
        Ok(self
            .rank_questions(query_lineage, weights, candidates)?
            .into_iter()
            .next())
    }
}

/// A simulated crowd: answers questions about ground-truth event values,
/// lying with probability `1 - reliability`.
#[derive(Debug, Clone)]
pub struct CrowdOracle {
    /// The ground-truth valuation of the events.
    pub ground_truth: std::collections::BTreeMap<VarId, bool>,
    /// Probability that an answer is truthful.
    pub reliability: f64,
}

impl CrowdOracle {
    /// Creates a perfectly reliable oracle.
    pub fn perfect(ground_truth: std::collections::BTreeMap<VarId, bool>) -> Self {
        CrowdOracle {
            ground_truth,
            reliability: 1.0,
        }
    }

    /// Asks the oracle about an event; the answer is flipped with probability
    /// `1 - reliability` using the provided random source.
    pub fn ask(&self, event: VarId, rng: &mut impl Rng) -> bool {
        let truth = self.ground_truth.get(&event).copied().unwrap_or(false);
        if rng.random::<f64>() < self.reliability {
            truth
        } else {
            !truth
        }
    }
}

/// Runs the full iterative loop: repeatedly pick the most informative
/// question, ask the oracle, condition the weights on the answer, and stop
/// when the target query's entropy drops below `target_entropy` or the
/// budget is exhausted. Returns the sequence of asked events and the final
/// query probability.
pub fn interactive_conditioning(
    query_lineage: &Circuit,
    weights: &Weights,
    candidates: &[VarId],
    oracle: &CrowdOracle,
    target_entropy: f64,
    budget: usize,
    rng: &mut impl Rng,
) -> Result<(Vec<VarId>, f64), ConditioningError> {
    let selector = QuestionSelector;
    let mut current = weights.clone();
    let mut remaining: Vec<VarId> = candidates.to_vec();
    let mut asked = Vec::new();
    for _ in 0..budget {
        let p = one_shot_probability(query_lineage, &current)?;
        if entropy(p) <= target_entropy || remaining.is_empty() {
            break;
        }
        let Some(best) = selector.best_question(query_lineage, &current, &remaining)? else {
            break;
        };
        let answer = oracle.ask(best.event, rng);
        current.fix(best.event, answer);
        remaining.retain(|&e| e != best.event);
        asked.push(best.event);
    }
    let final_probability = one_shot_probability(query_lineage, &current)?;
    Ok((asked, final_probability))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    /// Query lineage: e0 AND e1 — e0 is near-certain, e1 is a coin flip, so
    /// asking about e1 is far more informative.
    fn and_lineage() -> (Circuit, Weights) {
        let mut c = Circuit::new();
        let a = c.add_input(VarId(0));
        let b = c.add_input(VarId(1));
        let and = c.add_and(vec![a, b]);
        c.set_output(and);
        let mut w = Weights::new();
        w.set(VarId(0), 0.95);
        w.set(VarId(1), 0.5);
        (c, w)
    }

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy(0.0), 0.0);
        assert_eq!(entropy(1.0), 0.0);
        assert!((entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(entropy(0.3) > 0.0 && entropy(0.3) < 1.0);
    }

    #[test]
    fn selector_prefers_the_uncertain_event() {
        let (lineage, weights) = and_lineage();
        let ranked = QuestionSelector
            .rank_questions(&lineage, &weights, &[VarId(0), VarId(1)])
            .unwrap();
        assert_eq!(
            ranked[0].event,
            VarId(1),
            "should ask about the coin flip first"
        );
        assert!(ranked[0].expected_entropy < ranked[1].expected_entropy);
    }

    #[test]
    fn perfect_oracle_resolves_uncertainty() {
        let (lineage, weights) = and_lineage();
        let oracle = CrowdOracle::perfect(BTreeMap::from([(VarId(0), true), (VarId(1), true)]));
        let mut rng = StdRng::seed_from_u64(1);
        let (asked, p) = interactive_conditioning(
            &lineage,
            &weights,
            &[VarId(0), VarId(1)],
            &oracle,
            0.05,
            10,
            &mut rng,
        )
        .unwrap();
        assert!(!asked.is_empty());
        assert!(p > 0.9, "query should be (nearly) resolved, got {p}");
    }

    #[test]
    fn oracle_with_zero_reliability_always_lies() {
        let oracle = CrowdOracle {
            ground_truth: BTreeMap::from([(VarId(0), true)]),
            reliability: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        assert!(!oracle.ask(VarId(0), &mut rng));
    }

    #[test]
    fn budget_limits_questions() {
        let (lineage, weights) = and_lineage();
        let oracle = CrowdOracle::perfect(BTreeMap::from([(VarId(0), true), (VarId(1), true)]));
        let mut rng = StdRng::seed_from_u64(3);
        let (asked, _) = interactive_conditioning(
            &lineage,
            &weights,
            &[VarId(0), VarId(1)],
            &oracle,
            0.0,
            1,
            &mut rng,
        )
        .unwrap();
        assert_eq!(asked.len(), 1);
    }

    #[test]
    fn already_certain_queries_ask_nothing() {
        let mut c = Circuit::new();
        let t = c.add_const(true);
        c.set_output(t);
        let oracle = CrowdOracle::perfect(BTreeMap::new());
        let mut rng = StdRng::seed_from_u64(5);
        let (asked, p) =
            interactive_conditioning(&c, &Weights::new(), &[], &oracle, 0.1, 10, &mut rng).unwrap();
        assert!(asked.is_empty());
        assert_eq!(p, 1.0);
    }
}
