//! Compiled lineage circuits: share once, re-weight many times.
//!
//! The paper's pipeline factors query evaluation into a *structural* phase
//! (decompose the instance, run the automaton, build the lineage circuit,
//! decompose the circuit graph) and a *numerical* phase (propagate the
//! probability weights through the decomposition). Only the numerical phase
//! depends on the probabilities — so when fact probabilities change (what-if
//! analysis, conditioning, weight learning loops), everything structural can
//! be reused verbatim.
//!
//! A [`CompiledCircuit`] is that reusable structural state: the source
//! lineage circuit behind an [`Arc`] (cheap to share across threads and
//! cache entries), its normalised form for message passing, the tree
//! decomposition of its circuit graph and the sweep plan built over it.
//! The decomposition is built with no intermediate form: the neighbour
//! lists come from one pass over the prepared gates, the elimination
//! writes the bags into the decomposition the circuit keeps, and the nice
//! form is built from it while the plan is. Re-evaluating under a
//! new [`Weights`] table is a single message-passing sweep — no
//! decomposition, no circuit construction, no binarisation.
//!
//! The planned sweep is the only production sweep: a circuit whose bags
//! exceed [`MAX_PLANNED_BAG`] is refused with [`WmcError::WidthTooLarge`]
//! whatever the caller's budget, and callers route it to DPLL instead
//! ([`one_shot_probability`] does so for circuits evaluated once).

use crate::circuit::{Circuit, CircuitError, Gate, VarId};
use crate::dpll::{DpllCounter, DpllError};
use crate::plan::{SweepArena, SweepPlan, MAX_PLANNED_BAG};
use crate::weights::Weights;
use crate::wmc::{self, message_passing, WmcError, WmcReport};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use stuc_graph::decomposition::TreeDecomposition;
use stuc_graph::elimination::EliminationHeuristic;
use stuc_graph::nice::NiceDecomposition;
use stuc_obs::metrics::{registry, Counter};

/// Pre-resolved global counters of the counting sweeps (`stuc_sweep_*`):
/// how many sweeps ran, how many dense-table entries they visited, and
/// whether the reusable arena actually got reused (allocations == 0) or had
/// to allocate (cold arena, or a concurrent sweep held the lock and the
/// sweep fell back to a throwaway arena).
struct SweepMetrics {
    sweeps: Arc<Counter>,
    table_entries: Arc<Counter>,
    arena_allocations: Arc<Counter>,
    arena_reuses: Arc<Counter>,
}

impl SweepMetrics {
    fn observe(&self, nice_nodes: usize, table_allocations: usize) {
        self.sweeps.inc();
        self.table_entries.add(nice_nodes as u64);
        self.arena_allocations.add(table_allocations as u64);
        if table_allocations == 0 {
            self.arena_reuses.inc();
        }
    }
}

fn sweep_metrics() -> &'static SweepMetrics {
    static METRICS: OnceLock<SweepMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = registry();
        SweepMetrics {
            sweeps: reg.counter(
                "stuc_sweep_runs_total",
                "Counting sweeps over compiled circuits (single- and multi-scenario).",
            ),
            table_entries: reg.counter(
                "stuc_sweep_table_entries_total",
                "Nice-decomposition node tables visited by counting sweeps.",
            ),
            arena_allocations: reg.counter(
                "stuc_sweep_arena_allocations_total",
                "Dense sweep tables allocated (0 per sweep once arenas are warm).",
            ),
            arena_reuses: reg.counter(
                "stuc_sweep_arena_reuses_total",
                "Sweeps that ran entirely on reused arena tables (no allocation).",
            ),
        }
    })
}

/// A lineage circuit compiled for repeated probability evaluation.
///
/// Compilation runs the structural half of the treewidth back-end once:
/// input-gate deduplication, binarisation and the tree decomposition of
/// the circuit graph ([`wmc::circuit_decomposition`]). Every subsequent
/// [`CompiledCircuit::probability`] call pays only for message passing,
/// which is what makes weight-only re-evaluation
/// (`Engine::reevaluate_with_weights`) and shared batch caches cheap.
///
/// The source circuit is held behind an [`Arc`], so clones of a
/// `CompiledCircuit` (e.g. cache entries handed to worker threads) share
/// every structure instead of deep-copying gate arenas.
#[derive(Debug)]
pub struct CompiledCircuit {
    source: Arc<Circuit>,
    prepared: Circuit,
    output_gate: usize,
    variables: BTreeSet<VarId>,
    heuristic: EliminationHeuristic,
    /// The decomposition of the circuit graph as the elimination wrote it
    /// ([`wmc::circuit_decomposition`]), built on first use: callers that
    /// never run the treewidth back-end (a pinned DPLL engine, say) skip
    /// its cost entirely, and once built it is reused by every subsequent
    /// run. Its nice form is built straight from it while a sweep plan is
    /// built (and by the reference sweep), and the plan keeps what the
    /// sweep needs of it.
    structure: OnceLock<TreeDecomposition>,
    /// The flattened sweep plan over the `structure` decomposition
    /// ([`SweepPlan`]), built on first counting run (or by the engine
    /// inside the write that rebuilt the circuit). Only a built plan is
    /// stored: a circuit too wide to plan leaves the cell empty and every
    /// sweep refuses. [`CompiledCircuit::rewire_inputs`] carries it over
    /// relabelled ([`SweepPlan::relabel`]).
    plan: OnceLock<Arc<SweepPlan>>,
    /// Reusable sweep scratch (dense tables + weight slab): steady-state
    /// repeated evaluation allocates nothing. Guarded by a mutex so the
    /// compiled circuit stays `Sync`; concurrent runs fall back to a
    /// throwaway arena instead of serializing on the lock.
    arena: Mutex<SweepArena>,
}

impl Clone for CompiledCircuit {
    fn clone(&self) -> Self {
        CompiledCircuit {
            source: Arc::clone(&self.source),
            prepared: self.prepared.clone(),
            output_gate: self.output_gate,
            variables: self.variables.clone(),
            heuristic: self.heuristic,
            structure: self.structure.clone(),
            plan: self.plan.clone(),
            // Scratch buffers are per-value: a clone starts with an empty
            // arena and warms it on its first run.
            arena: Mutex::new(SweepArena::new()),
        }
    }
}

impl CompiledCircuit {
    /// Compiles `source` for repeated evaluation; its circuit graph is
    /// decomposed with `heuristic` on first use.
    ///
    /// Fails with [`CircuitError::NoOutput`] if the circuit has no
    /// designated output gate. Wide circuits still compile — the width
    /// budget is checked at evaluation time, so callers (like the engine's
    /// Auto policy) can inspect [`CompiledCircuit::width`] and route wide
    /// circuits to a width-oblivious back-end instead.
    pub fn compile(
        source: Arc<Circuit>,
        heuristic: EliminationHeuristic,
    ) -> Result<Self, CircuitError> {
        source.output().ok_or(CircuitError::NoOutput)?;
        let prepared = wmc::prepare(&source);
        let output_gate = prepared.output().ok_or(CircuitError::NoOutput)?.index();
        let variables = source.variables();
        Ok(CompiledCircuit {
            source,
            prepared,
            output_gate,
            variables,
            heuristic,
            structure: OnceLock::new(),
            plan: OnceLock::new(),
            arena: Mutex::new(SweepArena::new()),
        })
    }

    fn structure(&self) -> &TreeDecomposition {
        self.structure
            .get_or_init(|| wmc::circuit_decomposition(&self.prepared, self.heuristic))
    }

    /// The compiled sweep plan over the circuit-graph decomposition, built
    /// on first use and memoized. Refuses with [`WmcError::WidthTooLarge`]
    /// when the bags exceed [`MAX_PLANNED_BAG`], and surfaces a build
    /// interrupted by a tripped evaluation budget or an injected fault.
    /// Only a built plan is memoized, so the next call — after the
    /// deadline is lifted or the fault cleared — builds the plan normally.
    ///
    /// Callers enforcing a smaller evaluation-time width budget check
    /// [`CompiledCircuit::ensure_width`] first.
    pub fn try_sweep_plan(&self) -> Result<&Arc<SweepPlan>, WmcError> {
        if let Some(plan) = self.plan.get() {
            return Ok(plan);
        }
        self.ensure_width(MAX_PLANNED_BAG)?;
        let plan = SweepPlan::build(
            &self.prepared,
            &NiceDecomposition::from_decomposition(self.structure()),
            self.output_gate,
        )?;
        Ok(self.plan.get_or_init(|| Arc::new(plan)))
    }

    /// True once a dense sweep plan is built for this circuit. Never builds
    /// one: this is how a write tells whether the circuit it replaces was
    /// being swept.
    pub fn is_planned(&self) -> bool {
        self.plan.get().is_some()
    }

    /// The original (uncompiled) lineage circuit.
    pub fn source(&self) -> &Arc<Circuit> {
        &self.source
    }

    /// The prepared form of the source circuit (duplicate inputs merged,
    /// wide gates binarised): the circuit whose graph is decomposed and
    /// swept.
    pub fn prepared(&self) -> &Circuit {
        &self.prepared
    }

    /// Width of the tree decomposition of the prepared circuit graph — the
    /// quantity the engine's Auto policy compares against its width budget.
    pub fn width(&self) -> usize {
        self.structure().width()
    }

    /// Number of bags in the (non-nice) decomposition of the circuit graph.
    pub fn bag_count(&self) -> usize {
        self.structure().bag_count()
    }

    /// Gate count of the source circuit.
    pub fn len(&self) -> usize {
        self.source.len()
    }

    /// True if the source circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.source.is_empty()
    }

    /// The event variables read by the source circuit; a weight table must
    /// cover all of them for evaluation to succeed.
    pub fn variables(&self) -> &BTreeSet<VarId> {
        &self.variables
    }

    /// The elimination heuristic the circuit graph was decomposed with.
    pub fn heuristic(&self) -> EliminationHeuristic {
        self.heuristic
    }

    /// Rewires the input gates: variables in `pin_false` become `false`
    /// constants (the fact can never be present again — deletion), and every
    /// other input variable is renumbered through `remap` (identity when
    /// absent). Returns the patched circuit and the number of input gates
    /// rewired.
    ///
    /// Neither operation changes the circuit *topology*, so the cached
    /// circuit-graph decomposition — the superlinear part of compilation —
    /// is carried over verbatim, and so is a built sweep plan, relabelled
    /// in O(variables) by [`SweepPlan::relabel`] (pinned inputs keep their
    /// slot with the weights `[1, 0]`), together with the warm sweep arena
    /// its slots fit. This is how a fact deletion patches a compiled
    /// lineage in O(circuit) instead of recompiling and re-planning.
    ///
    /// `remap` must be injective on the surviving variables (the engine's
    /// deletion remap, which shifts identifiers down, is).
    pub fn rewire_inputs(
        &self,
        pin_false: &BTreeSet<VarId>,
        remap: &BTreeMap<VarId, VarId>,
    ) -> (CompiledCircuit, usize) {
        let relabel = |v: VarId| -> Option<VarId> {
            (!pin_false.contains(&v)).then(|| remap.get(&v).copied().unwrap_or(v))
        };
        let rewire = |circuit: &Circuit| -> (Circuit, usize) {
            let mut out = Circuit::new();
            let mut rewired = 0usize;
            for (_, gate) in circuit.iter() {
                // Identifiers are preserved one-to-one, so gate inputs need
                // no remapping; push through the arena directly.
                match gate {
                    Gate::Input(v) => match relabel(*v) {
                        None => {
                            rewired += 1;
                            out.add_const(false)
                        }
                        Some(to) => {
                            rewired += usize::from(to != *v);
                            out.add_input(to)
                        }
                    },
                    Gate::Const(b) => out.add_const(*b),
                    Gate::And(xs) => out.add_and(xs.clone()),
                    Gate::Or(xs) => out.add_or(xs.clone()),
                    Gate::Not(x) => out.add_not(*x),
                };
            }
            if let Some(o) = circuit.output() {
                out.set_output(o);
            }
            (out, rewired)
        };
        let (source, _) = rewire(&self.source);
        let (prepared, rewired) = rewire(&self.prepared);
        let variables = source.variables();
        let plan = match self.plan.get() {
            Some(plan) => OnceLock::from(Arc::new(plan.relabel(relabel))),
            None => OnceLock::new(),
        };
        // The relabelled plan has the same table slots: hand it this
        // value's warm scratch buffers (unless a sweep holds them now).
        let arena = self
            .arena
            .try_lock()
            .map(|mut arena| std::mem::take(&mut *arena))
            .unwrap_or_default();
        (
            CompiledCircuit {
                source: Arc::new(source),
                prepared,
                output_gate: self.output_gate,
                variables,
                heuristic: self.heuristic,
                structure: self.structure.clone(),
                plan,
                arena: Mutex::new(arena),
            },
            rewired,
        )
    }

    /// Probability that the output gate is true under `weights`, refusing
    /// when the cached decomposition's bag size exceeds `max_bag_size`
    /// (see [`CompiledCircuit::ensure_width`]).
    ///
    /// This is the weight-only fast path: no decomposition or circuit
    /// transformation happens here, just one message-passing sweep.
    pub fn probability(&self, weights: &Weights, max_bag_size: usize) -> Result<f64, WmcError> {
        self.run(weights, max_bag_size).map(|r| r.probability)
    }

    /// Enforces an evaluation-time width budget: refuses with
    /// [`WmcError::WidthTooLarge`] when the circuit-graph decomposition's
    /// bag size (width + 1) exceeds `max_bag_size`, which is capped at
    /// [`MAX_PLANNED_BAG`] (the refusal then names the cap as its limit).
    /// The single refusal check every evaluation mode — counting, lanes,
    /// and the posterior inference in `stuc-infer` — shares.
    pub fn ensure_width(&self, max_bag_size: usize) -> Result<(), WmcError> {
        let limit = max_bag_size.min(MAX_PLANNED_BAG);
        let width = self.width();
        if width + 1 > limit {
            return Err(WmcError::WidthTooLarge { width, limit });
        }
        Ok(())
    }

    /// Like [`CompiledCircuit::probability`], but returns the full
    /// [`WmcReport`] with decomposition statistics.
    ///
    /// Runs the compiled dense-table sweep plan (built on first use, see
    /// [`crate::plan::SweepPlan`]); the sweep's scratch tables live in a
    /// reusable arena, so repeated evaluations — batch sweeps, what-if
    /// re-weighting, incremental-update revalidation — allocate nothing in
    /// steady state ([`WmcReport::table_allocations`] is 0).
    pub fn run(&self, weights: &Weights, max_bag_size: usize) -> Result<WmcReport, WmcError> {
        let (probability, report) =
            self.planned_sweep(max_bag_size, |plan, arena| plan.run(weights, arena))?;
        Ok(WmcReport {
            probability,
            ..report
        })
    }

    /// One planned sweep within `max_bag_size`: `sweep` runs on this
    /// value's warm arena, or on a throwaway one when another thread is
    /// mid-sweep on it (rather than serializing the sweeps). Returns its
    /// result and the sweep's report, whose `probability` is the caller's
    /// to fill in.
    fn planned_sweep<T>(
        &self,
        max_bag_size: usize,
        sweep: impl FnOnce(&SweepPlan, &mut SweepArena) -> Result<T, WmcError>,
    ) -> Result<(T, WmcReport), WmcError> {
        self.ensure_width(max_bag_size)?;
        let structure = self.structure();
        let plan = self.try_sweep_plan()?;
        let mut held = self.arena.try_lock();
        let mut throwaway = SweepArena::new();
        let arena = match held {
            Ok(ref mut arena) => &mut **arena,
            Err(_) => &mut throwaway,
        };
        let before = arena.allocations();
        let result = sweep(plan, arena)?;
        let table_allocations = arena.allocations() - before;
        sweep_metrics().observe(plan.len(), table_allocations);
        let report = WmcReport {
            probability: 0.0,
            width: structure.width(),
            bag_count: structure.bag_count(),
            nice_node_count: plan.len(),
            table_allocations,
        };
        Ok((result, report))
    }

    /// The reference sweep: like [`CompiledCircuit::run`], but through the
    /// interpreted dynamic program of [`crate::wmc`] (sparse `HashMap`
    /// tables, per-node constraint re-derivation). No production path calls
    /// it; it is the oracle of the plan's differential tests and the
    /// baseline of the plan-vs-interpreted speedup benchmarks.
    pub fn run_interpreted(
        &self,
        weights: &Weights,
        max_bag_size: usize,
    ) -> Result<WmcReport, WmcError> {
        self.ensure_width(max_bag_size)?;
        for &v in &self.variables {
            weights.weight(v, true)?;
        }
        let structure = self.structure();
        let nice = NiceDecomposition::from_decomposition(structure);
        Ok(WmcReport {
            probability: message_passing(&self.prepared, weights, &nice, self.output_gate)?,
            width: structure.width(),
            bag_count: structure.bag_count(),
            nice_node_count: nice.len(),
            table_allocations: nice.len(),
        })
    }

    /// Evaluates K weight scenarios in a **single sweep**: every dense table
    /// slot carries K adjacent `f64` lanes, so the traversal, the mask
    /// permutations and the constraint checks are paid once for all K
    /// scenarios instead of once per scenario. The returned probabilities
    /// are bitwise identical to K separate [`CompiledCircuit::run`] calls.
    ///
    /// This is the engine's multi-scenario what-if fast path
    /// (`Engine::reevaluate_with_weights_many`).
    pub fn run_many(
        &self,
        scenarios: &[Weights],
        max_bag_size: usize,
    ) -> Result<WmcManyReport, WmcError> {
        // Lane counts are chunked: table memory is `8 << bag` bytes *per
        // lane*, so an unbounded K would multiply every dense table by the
        // scenario count. Chunks of `MAX_LANES_PER_SWEEP` keep the buffers
        // bounded while still amortizing the traversal 32-fold; each lane's
        // arithmetic order is unchanged, so results stay bitwise identical
        // to per-scenario runs at any K.
        let (probabilities, report) = self.planned_sweep(max_bag_size, |plan, arena| {
            let mut all = Vec::with_capacity(scenarios.len());
            for chunk in scenarios.chunks(MAX_LANES_PER_SWEEP) {
                let refs: Vec<&Weights> = chunk.iter().collect();
                all.extend(plan.run_many(&refs, arena)?);
            }
            Ok(all)
        })?;
        Ok(WmcManyReport {
            probabilities,
            width: report.width,
            bag_count: report.bag_count,
            nice_node_count: report.nice_node_count,
            table_allocations: report.table_allocations,
        })
    }
}

/// Default bag-size budget (width + 1) of the treewidth back-end: the
/// engine's `width_budget` and [`one_shot_probability`] start here. Dense
/// tables at this bag size hold `8 << 22` bytes (32 MiB) per lane.
pub const DEFAULT_WIDTH_BUDGET: usize = 22;

stuc_errors::stuc_error! {
    /// Why [`one_shot_probability`] failed.
    #[derive(Clone, PartialEq)]
    pub enum OneShotError {
        /// The treewidth sweep refused for a reason other than width (a
        /// variable without a weight, a tripped budget, an injected fault).
        Wmc(WmcError),
        /// The circuit was too wide for the sweep, and DPLL failed on it.
        Dpll(DpllError),
    }
    display {
        Self::Wmc(e) => "{e}",
        Self::Dpll(e) => "{e}",
    }
    from {
        WmcError => Wmc,
        DpllError => Dpll,
    }
}

/// Probability of a circuit evaluated once: compile, plan and sweep within
/// [`DEFAULT_WIDTH_BUDGET`], or DPLL when the circuit is too wide for that
/// budget. Nothing is cached: every call decomposes and plans afresh.
pub fn one_shot_probability(circuit: &Circuit, weights: &Weights) -> Result<f64, OneShotError> {
    let compiled = CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default())
        .map_err(WmcError::from)?;
    match compiled.probability(weights, DEFAULT_WIDTH_BUDGET) {
        Err(WmcError::WidthTooLarge { .. }) => {
            Ok(DpllCounter::default().probability(circuit, weights)?)
        }
        answer => Ok(answer?),
    }
}

/// Most scenario lanes one sweep carries; larger scenario sets are chunked
/// so dense-table memory stays bounded by `32 * 8 << bag` bytes per slot.
const MAX_LANES_PER_SWEEP: usize = 32;

/// Result of a multi-scenario sweep ([`CompiledCircuit::run_many`]): one
/// probability per input weight table, plus the shared structural
/// statistics of the single traversal that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct WmcManyReport {
    /// Probability of the output gate under each scenario, in input order.
    pub probabilities: Vec<f64>,
    /// Width of the tree decomposition used.
    pub width: usize,
    /// Number of bags in the (non-nice) decomposition.
    pub bag_count: usize,
    /// Number of nodes in the nice decomposition traversed (once, for all
    /// scenarios).
    pub nice_node_count: usize,
    /// Table buffers (re)allocated by this sweep; 0 in steady state.
    pub table_allocations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::circuit::GateId;
    use crate::enumeration::probability_by_enumeration;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn one_shot_probability_matches_enumeration() {
        for seed in 0..10 {
            let circuit = builder::random_circuit(8, 14, seed);
            let weights = Weights::uniform(circuit.variables(), 0.35);
            let expected = probability_by_enumeration(&circuit, &weights).unwrap();
            assert_close(one_shot_probability(&circuit, &weights).unwrap(), expected);
        }
    }

    /// `(x_i ∨ x_j)` for every pair of `n` variables: the inputs form a
    /// clique of the circuit graph (width ≥ n − 1), yet one DPLL branch
    /// per variable settles it by unit propagation.
    fn pairwise_disjunctions(n: usize) -> Circuit {
        let mut circuit = Circuit::new();
        let xs: Vec<GateId> = (0..n).map(|i| circuit.add_input(VarId(i))).collect();
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                pairs.push(circuit.add_or(vec![xs[i], xs[j]]));
            }
        }
        let and = circuit.add_and(pairs);
        circuit.set_output(and);
        circuit
    }

    #[test]
    fn one_shot_probability_falls_back_to_dpll_only_on_width() {
        let circuit = pairwise_disjunctions(MAX_PLANNED_BAG + 2);
        let weights = Weights::uniform(circuit.variables(), 0.9);
        let compiled = CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default())
            .expect("compiles");
        assert!(compiled.width() + 1 > DEFAULT_WIDTH_BUDGET);
        let dpll = DpllCounter::default()
            .probability(&circuit, &weights)
            .unwrap();
        assert_eq!(one_shot_probability(&circuit, &weights).unwrap(), dpll);
        // Any other refusal surfaces instead of running DPLL.
        let small = builder::conjunction(3);
        let missing = Weights::uniform([VarId(0)], 0.5);
        assert!(matches!(
            one_shot_probability(&small, &missing),
            Err(OneShotError::Wmc(WmcError::Circuit(
                CircuitError::UnassignedVariable(_)
            )))
        ));
    }

    /// `run`, `run_many` and the engine route are pinned at the cap by
    /// `tests/engine_api.rs`; the reference sweep and the plan refuse there
    /// too.
    #[test]
    fn budgets_above_the_plan_cap_refuse_at_the_cap() {
        let circuit = pairwise_disjunctions(MAX_PLANNED_BAG + 2);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit), Default::default()).expect("compiles");
        let at_cap = |r: Result<(), WmcError>| {
            assert!(
                matches!(r, Err(WmcError::WidthTooLarge { limit, .. }) if limit == MAX_PLANNED_BAG),
                "{r:?}"
            )
        };
        at_cap(compiled.run_interpreted(&weights, 40).map(drop));
        at_cap(compiled.try_sweep_plan().map(drop));
        assert!(!compiled.is_planned(), "refused before planning");
    }

    #[test]
    fn run_many_chunks_large_scenario_sets() {
        // 70 scenarios span three lane chunks; every lane must still be
        // bitwise identical to its single-scenario run.
        let circuit = builder::conjunction_of_disjunctions(4, 2);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default()).unwrap();
        let scenarios: Vec<Weights> = (0..70)
            .map(|k| Weights::uniform(circuit.variables(), (k as f64 + 1.0) / 72.0))
            .collect();
        let many = compiled.run_many(&scenarios, 22).unwrap();
        assert_eq!(many.probabilities.len(), 70);
        for (weights, &lane) in scenarios.iter().zip(&many.probabilities) {
            let single = compiled.run(weights, 22).unwrap();
            assert_eq!(single.probability.to_bits(), lane.to_bits());
        }
    }

    #[test]
    fn reweighting_reuses_the_compiled_structure() {
        let circuit = builder::conjunction_of_disjunctions(5, 2);
        let vars: Vec<VarId> = circuit.variables().into_iter().collect();
        let compiled = CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default())
            .expect("compiles");
        for p in [0.1, 0.5, 0.9] {
            let weights = Weights::uniform(vars.iter().copied(), p);
            let expected = probability_by_enumeration(&circuit, &weights).unwrap();
            assert_close(compiled.probability(&weights, 22).unwrap(), expected);
        }
    }

    #[test]
    fn width_budget_is_enforced_at_evaluation_time() {
        let circuit = builder::majority_like_dense_circuit(12, 3);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit), Default::default()).expect("compiles");
        assert!(matches!(
            compiled.run(&weights, 2),
            Err(WmcError::WidthTooLarge { .. })
        ));
        // The same compiled circuit still runs under a generous budget.
        assert!(compiled.run(&weights, 64).is_ok());
    }

    #[test]
    fn missing_output_is_rejected_at_compile_time() {
        let mut circuit = Circuit::new();
        circuit.add_input(VarId(0));
        assert_eq!(
            CompiledCircuit::compile(Arc::new(circuit), Default::default()).unwrap_err(),
            CircuitError::NoOutput
        );
    }

    #[test]
    fn rewire_inputs_pins_and_renumbers_without_redecomposing() {
        // Lineage of "two consecutive facts" on a 4-fact chain:
        // (x0 & x1) | (x1 & x2) | (x2 & x3).
        let mut circuit = Circuit::new();
        let xs: Vec<_> = (0..4).map(|i| circuit.add_input(VarId(i))).collect();
        let pairs: Vec<_> = (0..3)
            .map(|i| circuit.add_and(vec![xs[i], xs[i + 1]]))
            .collect();
        let or = circuit.add_or(pairs);
        circuit.set_output(or);
        let compiled =
            CompiledCircuit::compile(Arc::new(circuit), EliminationHeuristic::MinDegree).unwrap();
        let width = compiled.width(); // force the decomposition
        let unplanned = compiled.clone();
        assert!(compiled.try_sweep_plan().is_ok());

        // Delete fact 1: pin x1 false, shift x2 -> x1, x3 -> x2.
        let pins = BTreeSet::from([VarId(1)]);
        let remap = BTreeMap::from([(VarId(2), VarId(1)), (VarId(3), VarId(2))]);
        let (patched, rewired) = compiled.rewire_inputs(&pins, &remap);
        assert!(rewired >= 3);
        assert_eq!(patched.width(), width, "structure carried over verbatim");
        assert!(patched.is_planned(), "the plan is carried over, relabelled");
        let (lazy, _) = unplanned.rewire_inputs(&pins, &remap);
        assert!(!lazy.is_planned(), "no plan to carry: planned on first run");
        assert_eq!(
            patched.variables(),
            &BTreeSet::from([VarId(0), VarId(1), VarId(2)])
        );

        // Equivalent fresh lineage on the 3 surviving facts: only the pair
        // (old x2, old x3) = (new x1, new x2) remains.
        let mut expected = Circuit::new();
        let y1 = expected.add_input(VarId(1));
        let y2 = expected.add_input(VarId(2));
        let and = expected.add_and(vec![y1, y2]);
        expected.set_output(and);
        for p in [0.2, 0.5, 0.8] {
            let weights = Weights::uniform([VarId(0), VarId(1), VarId(2)], p);
            let want = probability_by_enumeration(&expected, &weights).unwrap();
            assert_close(patched.probability(&weights, 22).unwrap(), want);
            assert_close(lazy.probability(&weights, 22).unwrap(), want);
        }
    }

    #[test]
    fn clones_share_the_source_arc() {
        let mut circuit = Circuit::new();
        let x = circuit.add_input(VarId(0));
        circuit.set_output(x);
        let compiled = CompiledCircuit::compile(Arc::new(circuit), Default::default()).unwrap();
        let clone = compiled.clone();
        assert!(Arc::ptr_eq(compiled.source(), clone.source()));
        assert_eq!(compiled.len(), 1);
        assert!(!compiled.is_empty());
        assert_eq!(compiled.variables().len(), 1);
    }
}
