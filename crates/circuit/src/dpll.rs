//! A Shannon-expansion (DPLL-style) weighted model counter.
//!
//! This is the "knowledge compilation flavoured" baseline: the probability of
//! a circuit is computed by repeatedly branching on a variable, propagating
//! constants, and memoising the probability of the simplified residual
//! circuits. It is exponential in the worst case but much better than naive
//! enumeration on circuits with structure, and it makes no treewidth
//! assumption — which is exactly why the benchmarks compare it against the
//! message-passing back-end of [`crate::wmc`] (experiment A2).

use crate::circuit::{Circuit, CircuitError, Gate, GateId, VarId};
use crate::weights::Weights;
use std::collections::{BTreeMap, HashMap};

/// Most MiB the memo of one [`DpllCounter::run`] may hold. Each entry is
/// keyed by a whole residual circuit, so on wide circuits the memo, not
/// the branch budget, is what runs out first: unbounded, it passed 3 GB on
/// a width-2 instance of 280 facts and the failed allocation aborted the
/// process. Reaching the bound is [`DpllError::MemoBudgetExhausted`].
pub const MAX_MEMO_MIB: usize = 256;

/// Configuration for the DPLL back-end.
#[derive(Debug, Clone)]
pub struct DpllCounter {
    /// Stop and report an error after this many recursive branch steps, to
    /// keep runaway instances from hanging the test suite.
    pub max_branches: u64,
}

impl Default for DpllCounter {
    fn default() -> Self {
        DpllCounter {
            max_branches: 10_000_000,
        }
    }
}

stuc_errors::stuc_error! {
    /// Errors raised by the DPLL back-end.
    #[derive(Clone, PartialEq, Eq)]
    pub enum DpllError {
        /// The branch budget was exhausted.
        BranchBudgetExhausted,
        /// The memo reached [`MAX_MEMO_MIB`].
        MemoBudgetExhausted,
        /// An underlying circuit error.
        Circuit(CircuitError),
        /// The ambient evaluation budget (deadline or cancellation) tripped
        /// mid-search.
        Budget(stuc_fault::BudgetError),
    }
    display {
        Self::BranchBudgetExhausted => "DPLL branch budget exhausted",
        Self::MemoBudgetExhausted => "DPLL memo reached its bound of {MAX_MEMO_MIB} MiB",
        Self::Circuit(e) => "{e}",
        Self::Budget(e) => "{e}",
    }
    from {
        CircuitError => Circuit,
        stuc_fault::BudgetError => Budget,
    }
}

/// Statistics reported alongside the probability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DpllReport {
    /// The computed probability.
    pub probability: f64,
    /// Number of branching steps performed.
    pub branches: u64,
    /// Number of memoisation hits.
    pub cache_hits: u64,
}

type MemoKey = (Vec<Gate>, Option<GateId>);

impl DpllCounter {
    /// Computes the probability that the circuit's output is true.
    pub fn probability(&self, circuit: &Circuit, weights: &Weights) -> Result<f64, DpllError> {
        self.run(circuit, weights).map(|r| r.probability)
    }

    /// Computes the probability together with search statistics.
    pub fn run(&self, circuit: &Circuit, weights: &Weights) -> Result<DpllReport, DpllError> {
        // Validate weights once up front for a deterministic error.
        for v in circuit.variables() {
            weights.weight(v, true)?;
        }
        let mut state = SearchState {
            weights,
            memo: HashMap::new(),
            memo_bytes: 0,
            report: DpllReport::default(),
            max_branches: self.max_branches,
        };
        let simplified = circuit.simplify()?;
        let p = state.count(&simplified)?;
        state.report.probability = p;
        Ok(state.report)
    }
}

struct SearchState<'a> {
    weights: &'a Weights,
    memo: HashMap<MemoKey, f64>,
    /// Estimated heap bytes of `memo`: keys, their gate lists and the
    /// table slots.
    memo_bytes: usize,
    report: DpllReport,
    max_branches: u64,
}

/// Estimated bytes one memo entry costs: its table slot, its gate list and
/// the input lists of its `And`/`Or` gates (allocator overhead included).
fn memo_entry_bytes(key: &MemoKey) -> usize {
    const ALLOCATION: usize = 16;
    let inputs: usize = key
        .0
        .iter()
        .map(|gate| match gate {
            Gate::And(xs) | Gate::Or(xs) => ALLOCATION + xs.len() * size_of::<GateId>(),
            _ => 0,
        })
        .sum();
    size_of::<(MemoKey, f64)>() + ALLOCATION + key.0.len() * size_of::<Gate>() + inputs
}

impl SearchState<'_> {
    fn count(&mut self, circuit: &Circuit) -> Result<f64, DpllError> {
        // Constant output?
        if let Some(out) = circuit.output() {
            if let Gate::Const(b) = circuit.gate(out) {
                return Ok(if *b { 1.0 } else { 0.0 });
            }
        } else {
            return Err(DpllError::Circuit(CircuitError::NoOutput));
        }

        let key: MemoKey = (
            circuit.iter().map(|(_, g)| g.clone()).collect(),
            circuit.output(),
        );
        if let Some(&p) = self.memo.get(&key) {
            self.report.cache_hits += 1;
            return Ok(p);
        }

        self.report.branches += 1;
        if self.report.branches > self.max_branches {
            return Err(DpllError::BranchBudgetExhausted);
        }
        // Cooperative deadline/cancellation, amortised alongside the branch
        // budget: runaway searches answer within one check interval.
        if self.report.branches.is_multiple_of(256) {
            stuc_fault::budget::check("dpll branching")?;
        }

        let var = pick_branch_variable(circuit);
        let p_true = self.weights.weight(var, true)?;
        let mut total = 0.0;
        for value in [true, false] {
            let weight = if value { p_true } else { 1.0 - p_true };
            if weight == 0.0 {
                continue;
            }
            let restricted = restrict(circuit, var, value)?;
            total += weight * self.count(&restricted)?;
        }
        self.memo_bytes += memo_entry_bytes(&key);
        if self.memo_bytes > MAX_MEMO_MIB << 20 {
            return Err(DpllError::MemoBudgetExhausted);
        }
        self.memo.insert(key, total);
        Ok(total)
    }
}

/// Chooses the most frequently read unassigned variable.
fn pick_branch_variable(circuit: &Circuit) -> VarId {
    let mut counts: BTreeMap<VarId, usize> = BTreeMap::new();
    for (_, gate) in circuit.iter() {
        if let Gate::Input(v) = gate {
            *counts.entry(*v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
        .expect("non-constant circuit has at least one variable")
}

/// Replaces every input gate reading `var` by the constant `value`, then
/// simplifies.
fn restrict(circuit: &Circuit, var: VarId, value: bool) -> Result<Circuit, CircuitError> {
    let mut copy = Circuit::new();
    let mut map = Vec::with_capacity(circuit.len());
    for (_, gate) in circuit.iter() {
        let id = match gate {
            Gate::Input(v) if *v == var => copy.add_const(value),
            Gate::Input(v) => copy.add_input(*v),
            Gate::Const(b) => copy.add_const(*b),
            Gate::And(xs) => {
                let mapped = xs.iter().map(|g: &GateId| map[g.0]).collect();
                copy.add_and(mapped)
            }
            Gate::Or(xs) => {
                let mapped = xs.iter().map(|g: &GateId| map[g.0]).collect();
                copy.add_or(mapped)
            }
            Gate::Not(x) => copy.add_not(map[x.0]),
        };
        map.push(id);
    }
    if let Some(out) = circuit.output() {
        copy.set_output(map[out.0]);
    }
    copy.simplify()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::probability_by_enumeration;

    fn weights_uniform(circuit: &Circuit, p: f64) -> Weights {
        Weights::uniform(circuit.variables(), p)
    }

    fn and_or_chain(n: usize) -> Circuit {
        // (x0 AND x1) OR (x2 AND x3) OR ...
        let mut c = Circuit::new();
        let mut terms = Vec::new();
        for i in 0..n {
            let a = c.add_input(VarId(2 * i));
            let b = c.add_input(VarId(2 * i + 1));
            terms.push(c.add_and(vec![a, b]));
        }
        let or = c.add_or(terms);
        c.set_output(or);
        c
    }

    #[test]
    fn agrees_with_enumeration_on_small_circuits() {
        for n in 1..=4 {
            let c = and_or_chain(n);
            let w = weights_uniform(&c, 0.5);
            let dpll = DpllCounter::default().probability(&c, &w).unwrap();
            let brute = probability_by_enumeration(&c, &w).unwrap();
            assert!((dpll - brute).abs() < 1e-12, "n = {n}: {dpll} vs {brute}");
        }
    }

    #[test]
    fn independent_disjunction_formula() {
        // P(or of n independent conjunctions of two p=0.5 vars) = 1 - (3/4)^n.
        let c = and_or_chain(10);
        let w = weights_uniform(&c, 0.5);
        let p = DpllCounter::default().probability(&c, &w).unwrap();
        let expected = 1.0 - (0.75f64).powi(10);
        assert!((p - expected).abs() < 1e-10);
    }

    #[test]
    fn constant_output_circuits() {
        let mut c = Circuit::new();
        let t = c.add_const(true);
        c.set_output(t);
        assert_eq!(
            DpllCounter::default()
                .probability(&c, &Weights::new())
                .unwrap(),
            1.0
        );

        let mut c = Circuit::new();
        let f = c.add_const(false);
        c.set_output(f);
        assert_eq!(
            DpllCounter::default()
                .probability(&c, &Weights::new())
                .unwrap(),
            0.0
        );
    }

    #[test]
    fn handles_negation() {
        let mut c = Circuit::new();
        let x = c.add_input(VarId(0));
        let y = c.add_input(VarId(1));
        let nx = c.add_not(x);
        let and = c.add_and(vec![nx, y]);
        c.set_output(and);
        let mut w = Weights::new();
        w.set(VarId(0), 0.2);
        w.set(VarId(1), 0.9);
        let p = DpllCounter::default().probability(&c, &w).unwrap();
        assert!((p - 0.8 * 0.9).abs() < 1e-12);
    }

    #[test]
    fn branch_budget_is_enforced() {
        let c = and_or_chain(12);
        let w = weights_uniform(&c, 0.5);
        let tiny = DpllCounter { max_branches: 2 };
        assert_eq!(
            tiny.run(&c, &w).unwrap_err(),
            DpllError::BranchBudgetExhausted
        );
    }

    #[test]
    fn report_contains_statistics() {
        let c = and_or_chain(6);
        let w = weights_uniform(&c, 0.3);
        let report = DpllCounter::default().run(&c, &w).unwrap();
        assert!(report.branches > 0);
        let expected = 1.0 - (1.0 - 0.09f64).powi(6);
        assert!((report.probability - expected).abs() < 1e-10);
    }

    #[test]
    fn deterministic_weights_prune_branches() {
        let c = and_or_chain(4);
        let mut w = weights_uniform(&c, 0.5);
        // Make the first conjunct certain: probability is 1.
        w.fix(VarId(0), true);
        w.fix(VarId(1), true);
        let p = DpllCounter::default().probability(&c, &w).unwrap();
        assert!((p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn missing_weight_is_an_error() {
        let c = and_or_chain(2);
        let w = Weights::new();
        assert!(matches!(
            DpllCounter::default().probability(&c, &w),
            Err(DpllError::Circuit(CircuitError::UnassignedVariable(_)))
        ));
    }
}
