//! Compiled sweep plans: the message-passing dynamic program flattened into
//! dense tables and precomputed bit permutations.
//!
//! The interpreted sweep in [`crate::wmc`] re-derives everything per run and
//! per node: bag index vectors, constraint scopes, mask projections (linear
//! scans over the bag per table entry) and per-variable weights (a `BTreeMap`
//! lookup in the innermost Forget loop), with a freshly allocated
//! `HashMap<u64, f64>` per node. All of that is *structural* — it depends
//! only on the circuit and its nice decomposition, never on the weights — so
//! a [`SweepPlan`] computes it once per compiled circuit:
//!
//! * **Bag layouts** — every bag is kept sorted, so an introduce/forget is an
//!   *insert-at/remove-at* position and the child-mask → parent-mask
//!   permutation collapses to a split-shift (`low bits stay, high bits shift
//!   by one`), precomputed as a mask + shift pair per node.
//! * **Compiled checks** — each gate constraint that becomes checkable at an
//!   introduce node is resolved to in-bag *bit positions* (an AND gate is
//!   `bit(g) == (mask & in_mask) == in_mask`, etc.); no gate or bag lookup
//!   happens during the sweep.
//! * **Forget multipliers** — the weight source of each forgotten gate is
//!   resolved to a dense *variable slot* (a non-input gate to the slab's
//!   unit pair); at sweep start the [`crate::weights::Weights`] table is
//!   resolved once into a flat `[w_false, w_true]`-per-slot slab.
//! * **Dense tables** — node tables are `Vec<f64>` of length `1 << |bag|`
//!   (bounded by the evaluation-time width budget) indexed directly by the
//!   assignment mask, and live in the slots of a [`SweepArena`].
//!
//! One forward kernel runs the sweep. It is generic over the
//! [`SweepSemiring`] (how alternatives combine: [`SumProduct`] is weighted
//! model counting, [`MaxProduct`] the Viterbi sweep behind
//! most-probable-world queries) and over the lane count (how many weight
//! tables it carries side by side: every table entry widens to K adjacent
//! `f64` lanes, so the masks, permutations and checks, the branchy part,
//! are paid once for all K). It has three instantiations:
//!
//! * [`SweepPlan::run`] — sum-product at a lane count of one fixed at
//!   compile time. Tables sit in the slots a static liveness analysis at
//!   plan-build time assigned, so repeated evaluations allocate nothing in
//!   steady state.
//! * [`SweepPlan::run_many`] — sum-product over K lanes in the same
//!   slots; each lane's arithmetic is the single-lane run's, bit for bit.
//! * [`SweepPlan::run_retained`] — either semiring at one lane, with one
//!   slot per node, so every table outlives the sweep: those slots and the
//!   weight slab form the [`RetainedSweep`]. Posterior inference reads it
//!   backwards: [`SweepPlan::marginal_numerators`] runs the outward sweep —
//!   inverting each forward split-shift permutation — to produce *all*
//!   per-variable marginals in one reverse traversal, and
//!   [`SweepPlan::descend`] decodes concrete worlds top-down (stochastic
//!   for exact sampling, argmax for MPE). The `stuc-infer` crate builds its
//!   subsystem on these.
//!
//! The interpreted HashMap sweep remains in [`crate::wmc`] as the reference
//! implementation; differential tests assert agreement within 1e-9.

use crate::circuit::{Circuit, CircuitError, Gate, GateId, VarId};
use crate::weights::Weights;
use crate::wmc::WmcError;
use std::collections::HashMap;
use std::sync::Arc;
use stuc_graph::graph::VertexId;
use stuc_graph::nice::{NiceDecomposition, NiceNodeKind};

/// The scalar semiring one dense sweep runs in. Multiplication is always
/// `f64` product (joint weights compose multiplicatively in both tasks);
/// what varies is how *alternative* partial assignments combine: summing
/// yields weighted model counting, taking the maximum yields max-product
/// (Viterbi) sweeps for most-probable-world queries. Zero (`0.0`) is the
/// annihilator and additive identity of both instances — which is what lets
/// the sweep's zero-entry skipping stay valid for either — so only the
/// combine operation is abstracted.
pub trait SweepSemiring {
    /// Stable name for reports and diagnostics.
    const NAME: &'static str;
    /// `⊕`: folds two alternative partial-assignment weights into one
    /// (`+` for sum-product, `max` for max-product).
    fn combine(a: f64, b: f64) -> f64;
}

/// Sum-product instance: alternatives add. The WMC semiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumProduct;

impl SweepSemiring for SumProduct {
    const NAME: &'static str = "sum-product";
    #[inline(always)]
    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// Max-product instance: alternatives keep the heavier branch. Running the
/// sweep in this semiring computes the weight of the single most probable
/// consistent assignment (the MPE value); a [`SweepPlan::descend`] over the
/// retained tables with an argmax chooser recovers the assignment itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxProduct;

impl SweepSemiring for MaxProduct {
    const NAME: &'static str = "max-product";
    #[inline(always)]
    fn combine(a: f64, b: f64) -> f64 {
        a.max(b)
    }
}

/// How many scenario lanes one sweep carries side by side. [`One`] fixes
/// the count at compile time, so the single-scenario sweeps compile to a
/// plain one-entry-per-mask loop; a `usize` is a lane sweep's runtime K.
trait Lanes: Copy {
    fn count(self) -> usize;
}

/// The single-scenario lane count.
#[derive(Clone, Copy)]
struct One;

impl Lanes for One {
    #[inline(always)]
    fn count(self) -> usize {
        1
    }
}

impl Lanes for usize {
    #[inline(always)]
    fn count(self) -> usize {
        self
    }
}

/// Largest bag size a plan will compile dense tables for. The binding
/// constraint is memory, not mask width (`u64` masks only overflow at 64):
/// a dense table holds `8 << bag` bytes per lane, so bag 25 already costs
/// 256 MiB per live slot. Wider circuits are refused
/// ([`crate::compiled::CompiledCircuit::ensure_width`] caps every budget
/// here) and go to a width-oblivious back-end such as DPLL.
pub const MAX_PLANNED_BAG: usize = 25;

/// One compiled gate constraint, resolved to in-bag bit positions. A mask
/// `m` satisfies the check iff the recorded relation holds between the
/// gate's own bit and its input bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledCheck {
    /// The designated output gate must be true.
    OutputTrue { bit: u64 },
    /// A constant gate must carry its constant.
    ConstGate { bit: u64, value: bool },
    /// `bit(g) == !bit(x)`.
    NotGate { out: u64, input: u64 },
    /// `bit(g) == ((m & in_mask) == in_mask)` (empty AND is true).
    AndGate { out: u64, in_mask: u64 },
    /// `bit(g) == ((m & in_mask) != 0)` (empty OR is false).
    OrGate { out: u64, in_mask: u64 },
}

impl CompiledCheck {
    #[inline(always)]
    fn passes(self, mask: u64) -> bool {
        match self {
            CompiledCheck::OutputTrue { bit } => mask & bit != 0,
            CompiledCheck::ConstGate { bit, value } => (mask & bit != 0) == value,
            CompiledCheck::NotGate { out, input } => (mask & out != 0) == (mask & input == 0),
            CompiledCheck::AndGate { out, in_mask } => {
                (mask & out != 0) == (mask & in_mask == in_mask)
            }
            CompiledCheck::OrGate { out, in_mask } => (mask & out != 0) == (mask & in_mask != 0),
        }
    }
}

/// The compiled form of one nice-decomposition node.
#[derive(Debug, Clone)]
enum PlanOp {
    /// Empty bag; the single table entry is 1.
    Leaf,
    /// Insert the introduced gate's bit at `intro_pos` (split-shift
    /// permutation) and filter by the checks in
    /// `checks[checks_start..checks_start + checks_len]`.
    Introduce {
        child: usize,
        /// Bits strictly below the introduced position keep their place.
        low_mask: u64,
        intro_pos: u32,
        checks_start: u32,
        checks_len: u32,
    },
    /// Remove the bit at `forget_pos` (inverse split-shift), multiplying
    /// each entry by the forgotten gate's weight from `multiplier_slot`.
    Forget {
        child: usize,
        low_mask: u64,
        forget_pos: u32,
        /// Dense variable slot of the forgotten input gate, or `u32::MAX`
        /// for non-input gates (multiplier 1).
        multiplier_slot: u32,
    },
    /// Pointwise product of two identical-bag children.
    Join { left: usize, right: usize },
}

#[derive(Debug, Clone)]
struct PlanNode {
    op: PlanOp,
    /// `1 << |bag|`: the dense table length at lane width 1.
    table_len: usize,
    /// Arena slot this node's table lives in (slots are reused once the
    /// parent has consumed a table — static liveness analysis).
    slot: u32,
}

/// A reusable scratch buffer for [`SweepPlan`] evaluations: one dense table
/// buffer per plan slot plus the resolved weight slab. In steady state
/// (repeated evaluation of the same plan at the same lane width) no buffer
/// ever grows, so sweeps allocate nothing; [`SweepArena::allocations`]
/// counts how many buffers had to grow, which
/// [`crate::wmc::WmcReport::table_allocations`] surfaces per run.
#[derive(Debug, Default)]
pub struct SweepArena {
    slots: Vec<Vec<f64>>,
    slab: Vec<f64>,
    allocations: usize,
}

impl SweepArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SweepArena::default()
    }

    /// Total table (re)allocations performed since the arena was created.
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Ensures slot `index` holds a zeroed buffer of at least `len`,
    /// counting an allocation when its capacity must grow.
    fn take_zeroed(&mut self, index: usize, len: usize) -> Vec<f64> {
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, Vec::new);
        }
        let mut buffer = std::mem::take(&mut self.slots[index]);
        if buffer.capacity() < len {
            self.allocations += 1;
            buffer = Vec::with_capacity(len);
        }
        buffer.clear();
        buffer.resize(len, 0.0);
        buffer
    }

    fn put_back(&mut self, index: usize, buffer: Vec<f64>) {
        self.slots[index] = buffer;
    }
}

/// The message-passing sweep of one compiled circuit, flattened into dense
/// tables, precomputed permutations and compiled checks. Built once per
/// `(circuit, nice decomposition)` pair; see the [module docs](self).
///
/// The structural part (nodes, checks, arena slots) sits behind [`Arc`]s,
/// so a clone or a [`SweepPlan::relabel`]ed copy shares it and owns only
/// its variable labels.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    nodes: Arc<Vec<PlanNode>>,
    checks: Arc<Vec<CompiledCheck>>,
    root: usize,
    /// `(bit position, variable slot)` of every input gate still present in
    /// the root bag; their weights are multiplied in at the final sum.
    root_inputs: Arc<Vec<(u32, u32)>>,
    /// `(variable slot, event variable)` of every weighted slot, in slot
    /// order; the weight slab is laid out in slot order.
    inputs: Vec<(u32, VarId)>,
    /// Variable slots whose input a deletion pinned to false (see
    /// [`SweepPlan::relabel`]): their weights are fixed to `[1, 0]`, and
    /// they never reach a [`Weights`] table or a reported assignment.
    pinned: Vec<u32>,
    /// Number of variable slots, weighted and pinned.
    var_slots: usize,
    /// Number of distinct arena slots the static allocation uses.
    slot_count: usize,
}

impl SweepPlan {
    /// Compiles the sweep over `nice` (a nice decomposition of the circuit
    /// graph of `circuit`, which must be prepared: deduplicated inputs,
    /// fan-in ≤ 2). Fails with [`WmcError::WidthTooLarge`] when some bag
    /// exceeds [`MAX_PLANNED_BAG`] (dense tables would overflow).
    pub fn build(
        circuit: &Circuit,
        nice: &NiceDecomposition,
        output_gate: usize,
    ) -> Result<SweepPlan, WmcError> {
        stuc_fault::failpoint!("circuit-plan-build", WmcError::Fault);
        let max_bag = nice.max_bag_len();
        if max_bag > MAX_PLANNED_BAG {
            return Err(WmcError::WidthTooLarge {
                width: max_bag.saturating_sub(1),
                limit: MAX_PLANNED_BAG,
            });
        }

        // Dense variable slots for every input gate of the circuit.
        let mut slot_of_var: HashMap<VarId, u32> = HashMap::new();
        let mut var_of_slot: Vec<VarId> = Vec::new();
        for (_, gate) in circuit.iter() {
            if let Gate::Input(v) = gate {
                slot_of_var.entry(*v).or_insert_with(|| {
                    var_of_slot.push(*v);
                    (var_of_slot.len() - 1) as u32
                });
            }
        }

        let mut nodes: Vec<PlanNode> = Vec::with_capacity(nice.len());
        let mut checks: Vec<CompiledCheck> = Vec::new();
        // Static slot allocation: each table is consumed by exactly one
        // parent, so freeing the child slots after assigning the parent's
        // keeps the live-slot count at the sweep's actual peak.
        let mut free_slots: Vec<u32> = Vec::new();
        let mut slot_count = 0u32;
        let mut alloc_slot = |free: &mut Vec<u32>| -> u32 {
            free.pop().unwrap_or_else(|| {
                slot_count += 1;
                slot_count - 1
            })
        };

        let mut gate = stuc_fault::budget::Gate::every(64);
        for (idx, node) in nice.iter_bottom_up() {
            gate.check("sweep plan build")?;
            // Bags are sorted: bit `i` of a table mask is the gate
            // `bag[i]`.
            let bag = node.bag;
            let op = match &node.kind {
                NiceNodeKind::Leaf => PlanOp::Leaf,
                NiceNodeKind::Introduce { vertex, child } => {
                    let v = vertex.index();
                    let intro_pos =
                        bag.binary_search(vertex).expect("introduced gate in bag") as u32;
                    let checks_start = checks.len() as u32;
                    compile_checks(circuit, bag, v, output_gate, &mut checks);
                    PlanOp::Introduce {
                        child: *child,
                        low_mask: (1u64 << intro_pos) - 1,
                        intro_pos,
                        checks_start,
                        checks_len: checks.len() as u32 - checks_start,
                    }
                }
                NiceNodeKind::Forget { vertex, child } => {
                    let v = vertex.index();
                    let forget_pos =
                        nice.node(*child)
                            .bag
                            .binary_search(vertex)
                            .expect("forgotten gate in child bag") as u32;
                    let multiplier_slot = match circuit.gate(GateId(v)) {
                        Gate::Input(var) => slot_of_var[var],
                        _ => u32::MAX,
                    };
                    PlanOp::Forget {
                        child: *child,
                        low_mask: (1u64 << forget_pos) - 1,
                        forget_pos,
                        multiplier_slot,
                    }
                }
                NiceNodeKind::Join { left, right } => PlanOp::Join {
                    left: *left,
                    right: *right,
                },
            };
            // Allocate this node's slot first, then release the consumed
            // children: a child buffer is read while the parent is written,
            // so they must never share a slot.
            let slot = alloc_slot(&mut free_slots);
            match &op {
                PlanOp::Leaf => {}
                PlanOp::Introduce { child, .. } | PlanOp::Forget { child, .. } => {
                    free_slots.push(nodes[*child].slot);
                }
                PlanOp::Join { left, right } => {
                    free_slots.push(nodes[*left].slot);
                    free_slots.push(nodes[*right].slot);
                }
            }
            nodes.push(PlanNode {
                op,
                table_len: 1usize << bag.len(),
                slot,
            });
            debug_assert_eq!(nodes.len(), idx + 1);
        }

        let root = nice.root();
        let mut root_inputs = Vec::new();
        for (pos, g) in nice.node(root).bag.iter().enumerate() {
            if let Gate::Input(var) = circuit.gate(GateId(g.index())) {
                root_inputs.push((pos as u32, slot_of_var[var]));
            }
        }

        Ok(SweepPlan {
            nodes: Arc::new(nodes),
            checks: Arc::new(checks),
            root,
            root_inputs: Arc::new(root_inputs),
            var_slots: var_of_slot.len(),
            inputs: (0..).zip(var_of_slot).collect(),
            pinned: Vec::new(),
            slot_count: slot_count as usize,
        })
    }

    /// The plan of the same circuit after its input gates were relabelled
    /// by a fact deletion: `relabel(v)` is the new variable of input `v`,
    /// or `None` when `v` is pinned to false. A pinned slot keeps its place
    /// in the sweep with the fixed weights `[1, 0]`, which is exactly the
    /// constant-false gate the deletion leaves in the circuit.
    ///
    /// The circuit topology is unchanged, so the nodes, checks and arena
    /// slots are shared with `self`: this costs O(variable slots), not a
    /// [`SweepPlan::build`]. `relabel` must be injective on the variables
    /// it keeps.
    pub fn relabel(&self, relabel: impl Fn(VarId) -> Option<VarId>) -> SweepPlan {
        let mut inputs = Vec::with_capacity(self.inputs.len());
        let mut pinned = self.pinned.clone();
        for &(slot, var) in &self.inputs {
            match relabel(var) {
                Some(to) => inputs.push((slot, to)),
                None => pinned.push(slot),
            }
        }
        SweepPlan {
            nodes: Arc::clone(&self.nodes),
            checks: Arc::clone(&self.checks),
            root: self.root,
            root_inputs: Arc::clone(&self.root_inputs),
            inputs,
            pinned,
            var_slots: self.var_slots,
            slot_count: self.slot_count,
        }
    }

    /// Number of nice nodes the plan sweeps over.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes (never the case for built plans).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of distinct table buffers the static slot allocation needs —
    /// the sweep's peak number of simultaneously live tables.
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// Total dense table entries across every node of the sweep (the sum of
    /// `1 << |bag|`) — the work one single-lane sweep performs, and the
    /// number EXPLAIN reports as the plan's table volume.
    pub fn table_entry_count(&self) -> usize {
        self.nodes.iter().map(|node| node.table_len).sum()
    }

    /// Resolves `scenarios` into the arena's dense `[w_false, w_true]`
    /// slab, laid out lane-major: `slab[(slot * 2 + value) * lanes + lane]`.
    /// Weighted slots come from the tables, pinned slots are `[1, 0]`, and
    /// one unit pair `[1, 1]` after the last slot is the multiplier of a
    /// forgotten non-input gate.
    fn fill_slab(
        &self,
        scenarios: &[&Weights],
        arena: &mut SweepArena,
    ) -> Result<(), CircuitError> {
        let lanes = scenarios.len();
        let len = (self.var_slots + 1) * 2 * lanes;
        if arena.slab.capacity() < len {
            arena.allocations += 1;
        }
        let slab = &mut arena.slab;
        slab.clear();
        slab.resize(len, 0.0);
        for &(slot, var) in &self.inputs {
            let slot = slot as usize;
            for (lane, weights) in scenarios.iter().enumerate() {
                let [w_false, w_true] = weights.pair(var)?;
                slab[(slot * 2) * lanes + lane] = w_false;
                slab[(slot * 2 + 1) * lanes + lane] = w_true;
            }
        }
        for &slot in &self.pinned {
            let start = slot as usize * 2 * lanes;
            slab[start..start + lanes].fill(1.0);
        }
        slab[self.var_slots * 2 * lanes..].fill(1.0);
        Ok(())
    }

    /// Runs the planned sweep under one weight table, reusing `arena`'s
    /// buffers. Equivalent to the interpreted
    /// [`crate::wmc`] message passing, within floating-point association.
    pub fn run(&self, weights: &Weights, arena: &mut SweepArena) -> Result<f64, WmcError> {
        let mut total = [0.0];
        self.sweep::<SumProduct, One>(&[weights], One, false, arena, &mut total)?;
        Ok(total[0])
    }

    /// Runs the planned sweep for K weight tables in a **single traversal**:
    /// every table slot is widened to K adjacent `f64` lanes, so the mask
    /// permutations and constraint checks (the branchy part of the sweep)
    /// are computed once and shared by all K scenarios. Returns one
    /// probability per scenario, in input order; each lane's arithmetic is
    /// performed in exactly the same order as [`SweepPlan::run`], so the
    /// results are bitwise identical to K separate runs.
    pub fn run_many(
        &self,
        scenarios: &[&Weights],
        arena: &mut SweepArena,
    ) -> Result<Vec<f64>, WmcError> {
        if scenarios.is_empty() {
            return Ok(Vec::new());
        }
        let mut totals = vec![0.0; scenarios.len()];
        self.sweep::<SumProduct, usize>(scenarios, scenarios.len(), false, arena, &mut totals)?;
        Ok(totals)
    }

    /// Runs the upward sweep in semiring `S`, **retaining every node table**
    /// instead of recycling arena slots — the table-retention mode that
    /// posterior inference builds on. The retained tables are what a
    /// backward pass ([`SweepPlan::marginal_numerators`]) or a top-down
    /// stochastic/argmax descent ([`SweepPlan::descend`]) consumes; plain
    /// probability queries should keep using [`SweepPlan::run`], which
    /// holds only the peak-live tables. [`SumProduct`] gives the value of
    /// [`SweepPlan::run`] bit for bit; [`MaxProduct`] gives the weight of
    /// the most probable consistent assignment instead.
    ///
    /// Memory is one dense table per nice node (`8 << |bag|` bytes each)
    /// plus the weight slab, reported by [`RetainedSweep::table_entries`].
    pub fn run_retained<S: SweepSemiring>(
        &self,
        weights: &Weights,
    ) -> Result<RetainedSweep, WmcError> {
        let mut arena = SweepArena::new();
        let mut value = [0.0];
        self.sweep::<S, One>(&[weights], One, true, &mut arena, &mut value)?;
        Ok(RetainedSweep {
            tables: arena.slots,
            slab: arena.slab,
            value: value[0],
        })
    }

    /// The one forward sweep behind [`SweepPlan::run`],
    /// [`SweepPlan::run_many`] and [`SweepPlan::run_retained`]: resolves
    /// the slab, computes every node table bottom-up in semiring `S` with
    /// `lanes` scenarios side by side, and folds the root table into
    /// `totals` (one per lane). Tables live in the arena slots the
    /// liveness analysis assigned, or with `retain` in one slot per node,
    /// where they stay for a backward pass or a descent.
    fn sweep<S: SweepSemiring, L: Lanes>(
        &self,
        scenarios: &[&Weights],
        lanes: L,
        retain: bool,
        arena: &mut SweepArena,
        totals: &mut [f64],
    ) -> Result<(), WmcError> {
        stuc_fault::failpoint!("circuit-sweep", WmcError::Fault);
        // One unconditional poll per sweep: tiny circuits never reach the
        // gated in-loop checks, yet time may already have been spent (e.g.
        // a sleeping failpoint above) — without this, a tripped deadline on
        // a 3-gate sweep would go unnoticed and the request would succeed.
        stuc_fault::budget::check("circuit sweep")?;
        self.fill_slab(scenarios, arena)?;
        let width = lanes.count();
        // Local slices: the shared structure is read through one pointer,
        // not reloaded through the `Arc` for every node.
        let nodes: &[PlanNode] = &self.nodes;
        let slot = |idx: usize| {
            if retain {
                idx
            } else {
                nodes[idx].slot as usize
            }
        };
        let mut gate = stuc_fault::budget::Gate::every(256);
        for (idx, node) in nodes.iter().enumerate() {
            gate.check("circuit sweep")?;
            let mut table = arena.take_zeroed(slot(idx), node.table_len * width);
            match node.op {
                PlanOp::Leaf => table[..width].fill(1.0),
                PlanOp::Introduce { child, .. } | PlanOp::Forget { child, .. } => {
                    let child_table = &arena.slots[slot(child)][..nodes[child].table_len * width];
                    self.apply_unary::<S, L>(&node.op, child_table, &mut table, &arena.slab, lanes);
                }
                PlanOp::Join { left, right } => {
                    let left_table = &arena.slots[slot(left)];
                    let right_table = &arena.slots[slot(right)];
                    for (entry, (l, r)) in table
                        .iter_mut()
                        .zip(left_table.iter().zip(right_table.iter()))
                    {
                        *entry = l * r;
                    }
                }
            }
            if idx == self.root {
                for (mask, source) in table.chunks_exact(width).enumerate() {
                    for (lane, (total, &weight)) in totals.iter_mut().zip(source).enumerate() {
                        if weight != 0.0 {
                            let w = self.with_root_inputs(weight, mask, &arena.slab, width, lane);
                            *total = S::combine(*total, w);
                        }
                    }
                }
            }
            arena.put_back(slot(idx), table);
        }
        Ok(())
    }

    /// Applies one Introduce/Forget op to a child table of `lanes`
    /// scenarios side by side, in semiring `S`. An all-zero child entry is
    /// skipped: it contributes nothing in either semiring.
    fn apply_unary<S: SweepSemiring, L: Lanes>(
        &self,
        op: &PlanOp,
        child_table: &[f64],
        table: &mut [f64],
        slab: &[f64],
        lanes: L,
    ) {
        let lanes = lanes.count();
        match *op {
            PlanOp::Introduce {
                low_mask,
                intro_pos,
                checks_start,
                checks_len,
                ..
            } => {
                let checks =
                    &self.checks[checks_start as usize..(checks_start + checks_len) as usize];
                for (child_mask, source) in child_table.chunks_exact(lanes).enumerate() {
                    if source.iter().all(|&w| w == 0.0) {
                        continue;
                    }
                    let child_mask = child_mask as u64;
                    let base = (child_mask & low_mask) | ((child_mask & !low_mask) << 1);
                    for value in 0u64..2 {
                        let mask = base | (value << intro_pos);
                        if checks.iter().all(|c| c.passes(mask)) {
                            // Child masks map to disjoint parent masks, so a
                            // plain store needs no semiring combine.
                            let at = mask as usize * lanes;
                            for (lane, &w) in source.iter().enumerate() {
                                table[at + lane] = w;
                            }
                        }
                    }
                }
            }
            PlanOp::Forget {
                low_mask,
                forget_pos,
                multiplier_slot,
                ..
            } => {
                // A non-input gate is weighed by the unit pair after the
                // last slot (see `fill_slab`).
                let weight_slot = if multiplier_slot == u32::MAX {
                    self.var_slots
                } else {
                    multiplier_slot as usize
                };
                let base = weight_slot * 2 * lanes;
                let (w_false, w_true) = slab[base..base + 2 * lanes].split_at(lanes);
                for (child_mask, source) in child_table.chunks_exact(lanes).enumerate() {
                    if source.iter().all(|&w| w == 0.0) {
                        continue;
                    }
                    let child_mask = child_mask as u64;
                    let value = (child_mask >> forget_pos) & 1;
                    let projected = (child_mask & low_mask) | ((child_mask >> 1) & !low_mask);
                    let multipliers = if value == 0 { w_false } else { w_true };
                    let at = projected as usize * lanes;
                    for ((t, &s), &m) in table[at..at + lanes]
                        .iter_mut()
                        .zip(source)
                        .zip(multipliers)
                    {
                        *t = S::combine(*t, s * m);
                    }
                }
            }
            PlanOp::Leaf | PlanOp::Join { .. } => unreachable!("apply_unary takes unary ops"),
        }
    }

    /// `start` times the weight of every root-bag input as bag mask `mask`
    /// sets it, read from lane `lane` of a `lanes`-wide slab: the factor
    /// that no Forget edge multiplied in, because these inputs never leave
    /// scope.
    #[inline(always)]
    fn with_root_inputs(
        &self,
        start: f64,
        mask: usize,
        slab: &[f64],
        lanes: usize,
        lane: usize,
    ) -> f64 {
        let mut w = start;
        for &(pos, slot) in self.root_inputs.iter() {
            let bit = (mask as u64 >> pos) & 1;
            w *= slab[(slot as usize * 2 + bit as usize) * lanes + lane];
        }
        w
    }

    /// Pairs every weighted slot's variable with its entry of a per-slot
    /// vector, in slot order; pinned slots are left out.
    fn by_variable<T: Copy>(&self, per_slot: &[T]) -> Vec<(VarId, T)> {
        self.inputs
            .iter()
            .map(|&(slot, var)| (var, per_slot[slot as usize]))
            .collect()
    }

    /// The backward (outward) sweep: given the retained tables of a
    /// **sum-product** upward sweep, computes in one reverse traversal the
    /// unnormalised marginal `Σ_{worlds ⊨ φ, v true} weight(world)` of
    /// *every* input variable at once, paired with the variable. Dividing
    /// by [`RetainedSweep::value`] (the evidence mass `Z`) yields
    /// `P(v | φ)` — n marginals for the price of ~two sweeps instead of n
    /// conditioned re-evaluations.
    ///
    /// For each node the pass maintains the downward table `D` (the
    /// weight of everything *outside* the node's subtree, per bag mask),
    /// the mirror of the retained upward table `U`; the invariant
    /// `Σ_m U[m]·D[m] = Z` holds at every node, and at the unique place
    /// where an input gate leaves scope — its Forget edge, or the root bag —
    /// the restriction of that sum to masks with the gate's bit set is
    /// exactly the variable's numerator.
    ///
    /// # Panics
    ///
    /// Panics if `retained` was produced by a different plan (table count
    /// mismatch). Results are meaningless (not unsafe) if it was produced
    /// by a max-product sweep.
    pub fn marginal_numerators(&self, retained: &RetainedSweep) -> Vec<(VarId, f64)> {
        assert_eq!(
            retained.tables.len(),
            self.nodes.len(),
            "retained sweep belongs to a different plan"
        );
        let slab = &retained.slab;
        let mut numerators = vec![0.0f64; self.var_slots];
        let mut down: Vec<Vec<f64>> = vec![Vec::new(); self.nodes.len()];

        // Seed the root: D is the product of the root-bag input weights.
        let root_len = self.nodes[self.root].table_len;
        let d_root: Vec<f64> = (0..root_len)
            .map(|mask| self.with_root_inputs(1.0, mask, slab, 1, 0))
            .collect();
        for &(pos, slot) in self.root_inputs.iter() {
            let mut numerator = 0.0;
            for (mask, (&u, &d)) in retained.tables[self.root].iter().zip(&d_root).enumerate() {
                if (mask >> pos) & 1 == 1 {
                    numerator += u * d;
                }
            }
            numerators[slot as usize] = numerator;
        }
        down[self.root] = d_root;

        // Reverse traversal: parents have larger indices than children, so a
        // descending scan sees every node's D before its children need it.
        for idx in (0..self.nodes.len()).rev() {
            let d_here = std::mem::take(&mut down[idx]);
            if d_here.is_empty() {
                continue; // not reachable from the root (never for built plans)
            }
            match self.nodes[idx].op {
                PlanOp::Leaf => {}
                PlanOp::Introduce {
                    child,
                    low_mask,
                    intro_pos: _,
                    checks_start,
                    checks_len,
                } => {
                    let checks =
                        &self.checks[checks_start as usize..(checks_start + checks_len) as usize];
                    let mut d_child = vec![0.0f64; self.nodes[child].table_len];
                    for (mask, &d) in d_here.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        let mask = mask as u64;
                        if checks.iter().all(|c| c.passes(mask)) {
                            let projected = (mask & low_mask) | ((mask >> 1) & !low_mask);
                            d_child[projected as usize] += d;
                        }
                    }
                    down[child] = d_child;
                }
                PlanOp::Forget {
                    child,
                    low_mask,
                    forget_pos,
                    multiplier_slot,
                } => {
                    let mut d_child = vec![0.0f64; self.nodes[child].table_len];
                    for (child_mask, d) in d_child.iter_mut().enumerate() {
                        let child_mask = child_mask as u64;
                        let value = (child_mask >> forget_pos) & 1;
                        let projected = (child_mask & low_mask) | ((child_mask >> 1) & !low_mask);
                        let multiplier = if multiplier_slot == u32::MAX {
                            1.0
                        } else {
                            slab[multiplier_slot as usize * 2 + value as usize]
                        };
                        *d = multiplier * d_here[projected as usize];
                    }
                    if multiplier_slot != u32::MAX {
                        let mut numerator = 0.0;
                        for (child_mask, (&u, &d)) in
                            retained.tables[child].iter().zip(&d_child).enumerate()
                        {
                            if (child_mask >> forget_pos) & 1 == 1 {
                                numerator += u * d;
                            }
                        }
                        numerators[multiplier_slot as usize] = numerator;
                    }
                    down[child] = d_child;
                }
                PlanOp::Join { left, right } => {
                    let u_left = &retained.tables[left];
                    let u_right = &retained.tables[right];
                    let mut d_left = vec![0.0f64; u_left.len()];
                    let mut d_right = vec![0.0f64; u_right.len()];
                    for (mask, &d) in d_here.iter().enumerate() {
                        if d == 0.0 {
                            continue;
                        }
                        d_left[mask] = u_right[mask] * d;
                        d_right[mask] = u_left[mask] * d;
                    }
                    down[left] = d_left;
                    down[right] = d_right;
                }
            }
        }

        self.by_variable(&numerators)
    }

    /// Top-down descent through the retained tables, decoding one concrete
    /// assignment of every input variable. At the root, `choose` picks a
    /// bag mask from the full weighted root table; at every Forget edge it
    /// picks the forgotten gate's value from the two branch weights. The
    /// weights handed to `choose` are unnormalised and non-negative, and
    /// whenever their sum is positive at the root it stays positive at
    /// every later choice point, so a chooser that only ever selects a
    /// positive-weight index decodes a consistent, query-satisfying world.
    ///
    /// Two choosers give the two inference modes:
    /// * a weighted random draw over sum-product tables samples worlds
    ///   exactly proportional to their probability (conditioned on the
    ///   output being true);
    /// * an argmax over max-product tables decodes the most probable world
    ///   (the Viterbi backtrace).
    ///
    /// Returns the `(variable, value)` assignment in slot order.
    ///
    /// Repeated descents over one retained sweep (a sampler drawing many
    /// worlds) should precompute [`SweepPlan::weighted_root_table`] once
    /// and call [`SweepPlan::descend_with_root`]; this convenience wrapper
    /// rebuilds the weighted root table per call.
    ///
    /// # Panics
    ///
    /// Panics if `retained` was produced by a different plan, or if
    /// `choose` returns an out-of-range index.
    pub fn descend(
        &self,
        retained: &RetainedSweep,
        choose: &mut dyn FnMut(&[f64]) -> usize,
    ) -> Vec<(VarId, bool)> {
        let weighted = self.weighted_root_table(retained);
        self.descend_with_root(retained, &weighted, choose)
    }

    /// The root table with the root-bag input weights multiplied in — the
    /// distribution the descent's root choice is made over. Depends only on
    /// the retained sweep, so callers descending many times compute it
    /// once.
    pub fn weighted_root_table(&self, retained: &RetainedSweep) -> Vec<f64> {
        assert_eq!(
            retained.tables.len(),
            self.nodes.len(),
            "retained sweep belongs to a different plan"
        );
        retained.tables[self.root]
            .iter()
            .enumerate()
            .map(|(mask, &u)| self.with_root_inputs(u, mask, &retained.slab, 1, 0))
            .collect()
    }

    /// [`SweepPlan::descend`] with the weighted root table supplied by the
    /// caller (see [`SweepPlan::weighted_root_table`]): the per-descent
    /// cost is then O(plan nodes), with no per-call root-table rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `retained` or `root_weights` belong to a different plan
    /// (or sweep), or if `choose` returns an out-of-range index.
    pub fn descend_with_root(
        &self,
        retained: &RetainedSweep,
        root_weights: &[f64],
        choose: &mut dyn FnMut(&[f64]) -> usize,
    ) -> Vec<(VarId, bool)> {
        assert_eq!(
            retained.tables.len(),
            self.nodes.len(),
            "retained sweep belongs to a different plan"
        );
        assert_eq!(
            root_weights.len(),
            self.nodes[self.root].table_len,
            "root weights belong to a different plan"
        );
        let slab = &retained.slab;
        let mut values = vec![false; self.var_slots];
        let mut masks: Vec<Option<u64>> = vec![None; self.nodes.len()];

        // Root choice over the root-input-weighted table.
        let root_mask = choose(root_weights);
        assert!(root_mask < root_weights.len(), "chooser index out of range");
        let root_mask = root_mask as u64;
        masks[self.root] = Some(root_mask);
        for &(pos, slot) in self.root_inputs.iter() {
            values[slot as usize] = (root_mask >> pos) & 1 == 1;
        }

        for idx in (0..self.nodes.len()).rev() {
            let Some(mask) = masks[idx] else { continue };
            match self.nodes[idx].op {
                PlanOp::Leaf => {}
                PlanOp::Introduce {
                    child, low_mask, ..
                } => {
                    masks[child] = Some((mask & low_mask) | ((mask >> 1) & !low_mask));
                }
                PlanOp::Forget {
                    child,
                    low_mask,
                    forget_pos,
                    multiplier_slot,
                } => {
                    let base = (mask & low_mask) | ((mask & !low_mask) << 1);
                    let child_table = &retained.tables[child];
                    let branch = |value: u64| {
                        let multiplier = if multiplier_slot == u32::MAX {
                            1.0
                        } else {
                            slab[multiplier_slot as usize * 2 + value as usize]
                        };
                        child_table[(base | (value << forget_pos)) as usize] * multiplier
                    };
                    let picked = choose(&[branch(0), branch(1)]);
                    assert!(picked < 2, "chooser index out of range");
                    let picked = picked as u64;
                    masks[child] = Some(base | (picked << forget_pos));
                    if multiplier_slot != u32::MAX {
                        values[multiplier_slot as usize] = picked == 1;
                    }
                }
                PlanOp::Join { left, right } => {
                    masks[left] = Some(mask);
                    masks[right] = Some(mask);
                }
            }
        }

        self.by_variable(&values)
    }
}

/// The output of a table-retaining sweep ([`SweepPlan::run_retained`]): one
/// dense table per nice node, the resolved weight slab, and the root
/// aggregate (the evidence mass `Z` under [`SumProduct`], the best-world
/// weight under [`MaxProduct`]). Consumed by the backward marginal pass and
/// by top-down descents; must only be used with the plan that produced it.
#[derive(Debug, Clone)]
pub struct RetainedSweep {
    /// Upward message table of every plan node, indexed by node.
    tables: Vec<Vec<f64>>,
    /// `[w_false, w_true]` per variable slot (then the unit pair), resolved
    /// once at sweep start.
    slab: Vec<f64>,
    /// Root aggregate in the sweep's semiring.
    value: f64,
}

impl RetainedSweep {
    /// The root aggregate: total weight of consistent output-true
    /// assignments (sum-product) or the heaviest one (max-product).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of dense tables kept alive — one per nice node.
    pub fn tables_retained(&self) -> usize {
        self.tables.len()
    }

    /// Total `f64` entries across all retained tables (memory footprint in
    /// units of 8 bytes, slab excluded).
    pub fn table_entries(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }
}

/// Compiles the constraints that become checkable when `introduced` joins
/// `bag`: every gate whose scope (gate + inputs) is contained in the bag and
/// includes the introduced vertex, plus the output-truth requirement. The
/// mirror of `constraints_to_check` in [`crate::wmc`], resolved to bit
/// positions.
fn compile_checks(
    circuit: &Circuit,
    bag: &[VertexId],
    introduced: usize,
    output_gate: usize,
    out: &mut Vec<CompiledCheck>,
) {
    let bit_of = |gate: usize| -> Option<u64> {
        bag.binary_search(&VertexId(gate))
            .ok()
            .map(|pos| 1u64 << pos)
    };
    'gates: for g in bag.iter().map(|v| v.index()) {
        let gate = circuit.gate(GateId(g));
        if gate.is_leaf() && g != introduced {
            continue;
        }
        let scope_contains_introduced =
            g == introduced || gate.inputs().iter().any(|x| x.0 == introduced);
        if !scope_contains_introduced {
            continue;
        }
        // The inputs' bits, or the next gate when the scope is not fully
        // in the bag yet.
        let mut in_mask = 0u64;
        for x in gate.inputs() {
            match bit_of(x.0) {
                Some(bit) => in_mask |= bit,
                None => continue 'gates,
            }
        }
        let out_bit = bit_of(g).expect("gate is in its own bag");
        let check = match gate {
            Gate::Input(_) => continue, // free variable, no constraint
            Gate::Const(b) => CompiledCheck::ConstGate {
                bit: out_bit,
                value: *b,
            },
            Gate::Not(_) => CompiledCheck::NotGate {
                out: out_bit,
                input: in_mask,
            },
            Gate::And(_) => CompiledCheck::AndGate {
                out: out_bit,
                in_mask,
            },
            Gate::Or(_) => CompiledCheck::OrGate {
                out: out_bit,
                in_mask,
            },
        };
        out.push(check);
    }
    if introduced == output_gate {
        out.push(CompiledCheck::OutputTrue {
            bit: bit_of(output_gate).expect("output gate is in the bag"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::compiled::{CompiledCircuit, DEFAULT_WIDTH_BUDGET};
    use crate::wmc::{circuit_graph, prepare};
    use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};

    fn plan_for(circuit: &Circuit) -> (Circuit, SweepPlan) {
        let prepared = prepare(circuit);
        let output = prepared.output().expect("output");
        let graph = circuit_graph(&prepared);
        let td = decompose_with_heuristic(&graph, EliminationHeuristic::MinDegree);
        let nice = NiceDecomposition::from_decomposition(&td);
        let plan = SweepPlan::build(&prepared, &nice, output.index()).expect("plan builds");
        (prepared, plan)
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn planned_sweep_matches_interpreted_sweep() {
        for seed in 0..20 {
            let circuit = builder::random_circuit(10, 18, seed);
            let weights = Weights::uniform(circuit.variables(), 0.4);
            let reference = CompiledCircuit::compile(Arc::new(circuit.clone()), Default::default())
                .unwrap()
                .run_interpreted(&weights, DEFAULT_WIDTH_BUDGET)
                .unwrap()
                .probability;
            let (_, plan) = plan_for(&circuit);
            let mut arena = SweepArena::new();
            assert_close(plan.run(&weights, &mut arena).unwrap(), reference);
        }
    }

    #[test]
    fn steady_state_runs_do_not_allocate() {
        let circuit = builder::conjunction_of_disjunctions(6, 3);
        let weights = Weights::uniform(circuit.variables(), 0.5);
        let (_, plan) = plan_for(&circuit);
        let mut arena = SweepArena::new();
        let first = plan.run(&weights, &mut arena).unwrap();
        let after_first = arena.allocations();
        assert!(after_first > 0, "first run must populate the arena");
        for _ in 0..5 {
            assert_close(plan.run(&weights, &mut arena).unwrap(), first);
        }
        assert_eq!(
            arena.allocations(),
            after_first,
            "steady-state sweeps must not allocate"
        );
    }

    #[test]
    fn run_many_is_bitwise_identical_to_per_scenario_runs() {
        let circuit = builder::random_circuit(9, 16, 5);
        let scenarios: Vec<Weights> = [0.1, 0.35, 0.5, 0.9]
            .iter()
            .map(|&p| Weights::uniform(circuit.variables(), p))
            .collect();
        let (_, plan) = plan_for(&circuit);
        let mut arena = SweepArena::new();
        let refs: Vec<&Weights> = scenarios.iter().collect();
        let many = plan.run_many(&refs, &mut arena).unwrap();
        for (weights, &lane) in scenarios.iter().zip(&many) {
            let single = plan.run(weights, &mut arena).unwrap();
            assert_eq!(single.to_bits(), lane.to_bits(), "{single} vs {lane}");
        }
    }

    #[test]
    fn run_many_of_zero_scenarios_is_empty() {
        let circuit = builder::xor_chain(4);
        let (_, plan) = plan_for(&circuit);
        assert!(plan
            .run_many(&[], &mut SweepArena::new())
            .unwrap()
            .is_empty());
        assert!(!plan.is_empty());
        assert!(plan.slot_count() >= 1);
        assert!(plan.len() > 1);
    }

    #[test]
    fn retained_sweep_value_matches_arena_run_bitwise() {
        for seed in 0..10 {
            let circuit = builder::random_circuit(8, 14, seed);
            let weights = Weights::uniform(circuit.variables(), 0.45);
            let (_, plan) = plan_for(&circuit);
            let mut arena = SweepArena::new();
            let run = plan.run(&weights, &mut arena).unwrap();
            let retained = plan.run_retained::<SumProduct>(&weights).unwrap();
            assert_eq!(
                run.to_bits(),
                retained.value().to_bits(),
                "retention must not change the arithmetic"
            );
            assert_eq!(retained.tables_retained(), plan.len());
            assert!(retained.table_entries() >= plan.len());
        }
    }

    #[test]
    fn max_product_run_matches_brute_force_best_world() {
        use crate::circuit::VarId as V;
        use std::collections::BTreeMap;
        for seed in 0..12 {
            let circuit = builder::random_circuit(6, 10, seed);
            let vars: Vec<V> = circuit.variables().into_iter().collect();
            let mut weights = Weights::new();
            for (i, &v) in vars.iter().enumerate() {
                weights.set(v, 0.2 + 0.09 * ((seed as usize + i) % 7) as f64);
            }
            let mut best = 0.0f64;
            for mask in 0u64..(1 << vars.len()) {
                let assignment: BTreeMap<V, bool> = vars
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, (mask >> i) & 1 == 1))
                    .collect();
                if !circuit.evaluate(&assignment).unwrap() {
                    continue;
                }
                let w: f64 = assignment
                    .iter()
                    .map(|(&v, &b)| weights.weight(v, b).unwrap())
                    .product();
                best = best.max(w);
            }
            let (_, plan) = plan_for(&circuit);
            // The max-product sweep finds the best weight, and an argmax
            // descent decodes a world of exactly that weight.
            let retained = plan.run_retained::<MaxProduct>(&weights).unwrap();
            assert_close(retained.value(), best);
            if best > 0.0 {
                let mut argmax = |ws: &[f64]| {
                    let mut top = 0;
                    for (i, &w) in ws.iter().enumerate() {
                        if w > ws[top] {
                            top = i;
                        }
                    }
                    top
                };
                let decoded = plan.descend(&retained, &mut argmax);
                let w: f64 = decoded
                    .iter()
                    .map(|&(v, b)| weights.weight(v, b).unwrap())
                    .product();
                assert_close(w, best);
                let assignment: BTreeMap<V, bool> = decoded.into_iter().collect();
                assert!(circuit.evaluate(&assignment).unwrap());
            }
        }
    }

    #[test]
    fn backward_pass_numerators_match_conditioned_sweeps() {
        for seed in 0..10 {
            let circuit = builder::random_circuit(7, 12, seed);
            let weights = Weights::uniform(circuit.variables(), 0.4);
            let (_, plan) = plan_for(&circuit);
            let retained = plan.run_retained::<SumProduct>(&weights).unwrap();
            let numerators = plan.marginal_numerators(&retained);
            assert_eq!(numerators.len(), circuit.variables().len());
            let mut arena = SweepArena::new();
            for (v, numerator) in numerators {
                // Conditioned reference: fix v true (weight 1) and scale by
                // its prior.
                let prior = weights.weight(v, true).unwrap();
                let mut fixed = weights.clone();
                fixed.fix(v, true);
                let conditioned = plan.run(&fixed, &mut arena).unwrap();
                assert_close(numerator, prior * conditioned);
            }
        }
    }

    #[test]
    fn relabelled_plans_share_the_structure_and_hide_pinned_slots() {
        // (x0 & x1) | (x1 & x2) | (x2 & x3), then fact 1 is deleted: x1 is
        // pinned false, x2 -> x1 and x3 -> x2. Only (new) x1 & x2 remains,
        // and x0 is independent of it.
        let mut circuit = Circuit::new();
        let xs: Vec<GateId> = (0..4).map(|i| circuit.add_input(VarId(i))).collect();
        let pairs = (0..3)
            .map(|i| circuit.add_and(vec![xs[i], xs[i + 1]]))
            .collect();
        let or = circuit.add_or(pairs);
        circuit.set_output(or);
        let (_, plan) = plan_for(&circuit);
        let relabelled = plan.relabel(|v| match v.0 {
            0 => Some(v),
            1 => None,
            k => Some(VarId(k - 1)),
        });
        assert!(Arc::ptr_eq(&plan.nodes, &relabelled.nodes));
        assert!(Arc::ptr_eq(&plan.checks, &relabelled.checks));

        // The weights cover only the surviving variables: a pinned slot
        // never asks for one.
        let mut weights = Weights::new();
        for (v, p) in [(0, 0.3), (1, 0.6), (2, 0.7)] {
            weights.set(VarId(v), p);
        }
        let mut arena = SweepArena::new();
        assert_close(relabelled.run(&weights, &mut arena).unwrap(), 0.6 * 0.7);

        let retained = relabelled.run_retained::<SumProduct>(&weights).unwrap();
        let numerators = relabelled.marginal_numerators(&retained);
        let vars: Vec<VarId> = numerators.iter().map(|&(v, _)| v).collect();
        assert_eq!(vars.len(), 3);
        assert!(vars.iter().all(|v| v.0 < 3));
        for (v, numerator) in numerators {
            let posterior = match v.0 {
                0 => 0.3,
                _ => 1.0,
            };
            assert_close(numerator, posterior * 0.6 * 0.7);
        }
        let mut first_positive = |ws: &[f64]| ws.iter().position(|&w| w > 0.0).unwrap();
        let world = relabelled.descend(&retained, &mut first_positive);
        let mut vars: Vec<VarId> = world.iter().map(|&(v, _)| v).collect();
        vars.sort();
        assert_eq!(vars, vec![VarId(0), VarId(1), VarId(2)]);
        assert!(world.contains(&(VarId(1), true)) && world.contains(&(VarId(2), true)));
    }

    #[test]
    fn missing_weight_is_reported() {
        let circuit = builder::xor_chain(3);
        let (_, plan) = plan_for(&circuit);
        let result = plan.run(&Weights::new(), &mut SweepArena::new());
        assert!(matches!(
            result,
            Err(WmcError::Circuit(CircuitError::UnassignedVariable(_)))
        ));
    }

    #[test]
    fn oversized_bags_are_refused() {
        // A fake decomposition with a single giant bag trips the guard.
        use stuc_graph::graph::VertexId;
        use stuc_graph::TreeDecomposition;
        let n = MAX_PLANNED_BAG + 2;
        let mut circuit = Circuit::new();
        let inputs: Vec<GateId> = (0..n).map(|i| circuit.add_input(VarId(i))).collect();
        let out = *inputs.last().unwrap();
        circuit.set_output(out);
        let mut td = TreeDecomposition::new();
        td.add_bag(None, (0..n).map(VertexId));
        let nice = NiceDecomposition::from_decomposition(&td);
        assert!(matches!(
            SweepPlan::build(&circuit, &nice, out.index()),
            Err(WmcError::WidthTooLarge { .. })
        ));
    }
}
