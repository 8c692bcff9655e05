//! Courcelle-style evaluation of conjunctive queries over tree decompositions
//! of uncertain relational instances.
//!
//! This is the relational instantiation of the paper's Theorems 1 and 2. The
//! automaton associated with a Boolean conjunctive query over width-`w`
//! encodings has as states the *partial-match types*: for every query
//! variable, whether it is still unused, currently mapped to a constant of
//! the bag, or already mapped to a forgotten constant; plus the set of atoms
//! matched so far. The run proceeds bottom-up over a *nice* tree
//! decomposition of the instance's Gaifman graph, with each fact anchored at
//! a node whose bag contains all its constants.
//!
//! The run walks only what the query can reach ([`restrict_to_reach`]):
//! the facts that survive arc consistency against the body, and the
//! decomposition projected onto their constants. For an anchored body that
//! is a few bags whatever the instance size; a fact outside the reach is
//! in no match, so the run's answer is the same as over the whole instance.
//!
//! [`cq_lineage_circuit`] is the nondeterministic provenance run: it
//! produces a lineage circuit over per-fact Boolean variables (substitute
//! annotation circuits for these variables to obtain Theorem 2 for
//! pcc-instances). On a tuple-independent instance, sweeping that circuit
//! over its own bounded-width decomposition gives the exact query
//! probability in linear time for a fixed query and width, which is
//! Theorem 1.

use stuc_circuit::circuit::{Circuit, GateId, VarId};
use stuc_data::instance::{ConstId, FactId, Instance, RelId};
use stuc_graph::graph::VertexId;
use stuc_graph::groups::Groups;
use stuc_graph::nice::{NiceDecomposition, NiceNodeKind};
use stuc_graph::TreeDecomposition;
use stuc_query::cq::{ConjunctiveQuery, Term};

/// Maximum number of query atoms (matched-atom sets are stored as a `u64`).
pub const MAX_ATOMS: usize = 32;

stuc_errors::stuc_error! {
    /// Errors raised by the Courcelle-style run.
    #[derive(Clone, PartialEq, Eq)]
    pub enum CourcelleError {
        /// The query has more atoms than [`MAX_ATOMS`].
        TooManyAtoms(usize),
        /// A fact's constants are not jointly contained in any bag — the
        /// decomposition does not cover the instance.
        AnchorNotFound(FactId),
        /// The query is not Boolean (has free variables).
        NotBoolean,
    }
    display {
        Self::TooManyAtoms(n) => "query has {n} atoms, more than the supported {MAX_ATOMS}",
        Self::AnchorNotFound(fact) => "no bag contains all constants of fact {fact}",
        Self::NotBoolean => "query must be Boolean (no free variables)",
    }
}

/// Packed partial-match types: the automaton states of the query's
/// Courcelle automaton. A state is [`CompiledQuery::stride`] words: one
/// status per query variable — [`UNUSED`] (not yet bound), `c + 1` for a
/// variable bound to constant `c` of the current bag, or [`DONE`] (bound to
/// a forgotten constant, all atoms using it matched) — then the set of
/// matched atoms as a bit mask. Comparing two states as word slices orders
/// them by statuses (unused, then active by constant, then done) and then
/// by matched set, which fixes the order the run creates gates in.
type State = [u32];

/// Status word of an unbound variable.
const UNUSED: u32 = 0;

/// Status word of a variable bound to an already forgotten constant.
const DONE: u32 = u32::MAX;

/// Status word of a variable bound to constant `c`.
fn active(c: ConstId) -> u32 {
    u32::try_from(c.0 + 1)
        .ok()
        .filter(|&word| word != DONE)
        .expect("fewer than 2^32 - 1 constants")
}

/// The query resolved against one instance: variable count, per-atom
/// relation and terms, and which atoms use each variable.
struct CompiledQuery {
    variables: usize,
    /// For each atom: its relation (`None` when the instance has no such
    /// relation, so the atom matches nothing), and for each position either
    /// a variable index or a constant (`None` when the instance has no such
    /// constant).
    atoms: Vec<(Option<RelId>, Vec<AtomTerm>)>,
    /// For each variable, the bitmask of atoms it occurs in.
    atoms_of_variable: Vec<u32>,
    all_matched: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomTerm {
    Variable(usize),
    Constant(Option<ConstId>),
}

/// Compiles `query` against `instance`: relation and constant names are
/// resolved here once, so the run compares identifiers only.
fn compile_query(
    query: &ConjunctiveQuery,
    instance: &Instance,
) -> Result<CompiledQuery, CourcelleError> {
    if !query.is_boolean() {
        return Err(CourcelleError::NotBoolean);
    }
    if query.atoms.len() > MAX_ATOMS {
        return Err(CourcelleError::TooManyAtoms(query.atoms.len()));
    }
    let variables: Vec<String> = query.variables().into_iter().collect();
    let index_of = |name: &str| variables.iter().position(|v| v == name).expect("known var");
    let atoms: Vec<(Option<RelId>, Vec<AtomTerm>)> = query
        .atoms
        .iter()
        .map(|a| {
            let terms = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => AtomTerm::Variable(index_of(v)),
                    Term::Const(c) => AtomTerm::Constant(instance.find_constant(c)),
                })
                .collect();
            (instance.find_relation(&a.relation), terms)
        })
        .collect();
    let mut atoms_of_variable = vec![0u32; variables.len()];
    for (i, (_, terms)) in atoms.iter().enumerate() {
        for t in terms {
            if let AtomTerm::Variable(v) = t {
                atoms_of_variable[*v] |= 1 << i;
            }
        }
    }
    let all_matched = ((1u64 << atoms.len()) - 1) as u32;
    Ok(CompiledQuery {
        variables: variables.len(),
        atoms,
        atoms_of_variable,
        all_matched,
    })
}

impl CompiledQuery {
    /// Words per packed state.
    fn stride(&self) -> usize {
        self.variables + 1
    }

    /// Appends the initial state: nothing bound, nothing matched.
    fn initial_state(&self, out: &mut Vec<u32>) {
        out.resize(out.len() + self.stride(), UNUSED);
    }

    /// Attempts to match atom `atom_index` with the given fact under the
    /// state; appends the successor state and returns `true` if the match
    /// is consistent.
    fn try_match(
        &self,
        state: &State,
        atom_index: usize,
        fact: &stuc_data::instance::Fact,
        out: &mut Vec<u32>,
    ) -> bool {
        let matched = state[self.variables];
        if matched & (1 << atom_index) != 0 {
            return false; // already matched; re-matching adds nothing
        }
        let (relation, terms) = &self.atoms[atom_index];
        if *relation != Some(fact.relation) || fact.args.len() != terms.len() {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(state);
        for (term, &constant) in terms.iter().zip(&fact.args) {
            let consistent = match *term {
                AtomTerm::Constant(c) => c == Some(constant),
                AtomTerm::Variable(v) => {
                    let word = &mut out[start + v];
                    if *word == UNUSED {
                        *word = active(constant);
                        true
                    } else {
                        *word == active(constant)
                    }
                }
            };
            if !consistent {
                out.truncate(start);
                return false;
            }
        }
        out[start + self.variables] = matched | (1 << atom_index);
        true
    }

    /// Applies the forget of constant `c`: variables bound to `c` become
    /// done provided every atom using them has been matched (the successor
    /// is appended and `true` returned); otherwise the state dies.
    fn forget(&self, state: &State, c: ConstId, out: &mut Vec<u32>) -> bool {
        let matched = state[self.variables];
        let bound = active(c);
        let start = out.len();
        out.extend_from_slice(state);
        for v in 0..self.variables {
            if out[start + v] == bound {
                if self.atoms_of_variable[v] & !matched != 0 {
                    out.truncate(start);
                    return false;
                }
                out[start + v] = DONE;
            }
        }
        true
    }

    /// Combines the states of the two children of a join node, appending
    /// the combination and returning `true` when they are consistent.
    fn join(&self, left: &State, right: &State, out: &mut Vec<u32>) -> bool {
        let start = out.len();
        for (&l, &r) in left[..self.variables].iter().zip(&right[..self.variables]) {
            let combined = if l == UNUSED {
                r
            } else if r == UNUSED || (l == r && l != DONE) {
                l
            } else {
                out.truncate(start);
                return false;
            };
            out.push(combined);
        }
        out.push(left[self.variables] | right[self.variables]);
        true
    }

    fn is_accepting(&self, state: &State) -> bool {
        state[self.variables] == self.all_matched
    }
}

/// The facts the body can reach, seeded from the instance's fact index and
/// then pruned to arc consistency — a fact stays only while every variable
/// it binds has a value some fact of every other atom using that variable
/// also offers.
///
/// Seeding touches only what the constants reach. An atom with a constant
/// starts from the facts holding that constant at its position. An atom
/// sharing a variable with seeded atoms starts from the facts holding, at
/// that variable's position, a value all those atoms offer — repeated until
/// no atom can be seeded this way. Only atoms in a body component without a
/// constant start from their whole relation. Every seed has the atom's
/// relation and arity, its constants and agreeing repeated variables.
///
/// Every fact of a match survives: its seeds contain it (the match's facts
/// for the seeded atoms offer its values), and the match itself supports
/// it in every round. Propagation stops after `atoms + 1` rounds (each
/// round only drops facts, so stopping early keeps a superset, which is
/// still exact). Returns the kept facts in identifier order; none when some
/// atom has no candidate left.
fn reachable_facts(instance: &Instance, compiled: &CompiledQuery) -> Vec<FactId> {
    let index = instance.fact_index();
    let fits = |terms: &[AtomTerm], constants: &[(usize, ConstId)], f: FactId| {
        let args = &instance.fact(f).args;
        args.len() == terms.len()
            && constants.iter().all(|&(i, c)| args[i] == c)
            && repeats_agree(terms, args)
    };
    // Per atom: its relation and its constants with their positions. An
    // unknown relation or constant matches nothing.
    let resolved = compiled
        .atoms
        .iter()
        .map(|(relation, terms)| {
            let relation = (*relation)?;
            let mut constants = Vec::new();
            for (position, term) in terms.iter().enumerate() {
                if let AtomTerm::Constant(c) = term {
                    constants.push((position, (*c)?));
                }
            }
            Some((relation, constants))
        })
        .collect::<Option<Vec<(RelId, Vec<(usize, ConstId)>)>>>();
    let Some(resolved) = resolved else {
        return Vec::new();
    };
    let mut seeded: Vec<Option<Vec<FactId>>> = compiled
        .atoms
        .iter()
        .zip(&resolved)
        .map(|((_, terms), (relation, constants))| {
            let &(position, c) = constants.first()?;
            let seeds = index.facts_with(*relation, position, c);
            Some(
                seeds
                    .iter()
                    .copied()
                    .filter(|&f| fits(terms, constants, f))
                    .collect(),
            )
        })
        .collect();
    loop {
        if seeded.iter().flatten().any(Vec::is_empty) {
            return Vec::new();
        }
        let domains = variable_domains(instance, compiled, seeded.iter().map(Option::as_ref));
        let mut progressed = false;
        for atom in 0..compiled.atoms.len() {
            if seeded[atom].is_some() {
                continue;
            }
            let (_, terms) = &compiled.atoms[atom];
            let (relation, constants) = &resolved[atom];
            // The first variable seeded atoms already bind, with the values
            // they all offer.
            let bound = terms
                .iter()
                .enumerate()
                .find_map(|(position, term)| match term {
                    AtomTerm::Variable(v) => domains[*v].as_ref().map(|values| (position, values)),
                    AtomTerm::Constant(_) => None,
                });
            let Some((position, values)) = bound else {
                continue;
            };
            let mut seeds: Vec<FactId> = values
                .iter()
                .flat_map(|&c| index.facts_with(*relation, position, c))
                .copied()
                .filter(|&f| fits(terms, constants, f))
                .collect();
            seeds.sort_unstable();
            seeds.dedup();
            seeded[atom] = Some(seeds);
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    let mut candidates: Vec<Vec<FactId>> = seeded
        .into_iter()
        .zip(compiled.atoms.iter().zip(&resolved))
        .map(|(seeds, ((_, terms), (relation, constants)))| {
            seeds.unwrap_or_else(|| {
                index
                    .facts_of(*relation)
                    .iter()
                    .copied()
                    .filter(|&f| fits(terms, constants, f))
                    .collect()
            })
        })
        .collect();
    for _ in 0..=compiled.atoms.len() {
        if candidates.iter().any(Vec::is_empty) {
            break;
        }
        let domains = variable_domains(instance, compiled, candidates.iter().map(Some));
        let mut changed = false;
        for ((_, terms), facts) in compiled.atoms.iter().zip(&mut candidates) {
            let before = facts.len();
            facts.retain(|&f| {
                let args = &instance.fact(f).args;
                terms.iter().zip(args).all(|(term, c)| match term {
                    AtomTerm::Variable(v) => domains[*v]
                        .as_ref()
                        .is_some_and(|d| d.binary_search(c).is_ok()),
                    AtomTerm::Constant(_) => true,
                })
            });
            changed |= facts.len() != before;
        }
        if !changed {
            break;
        }
    }
    if candidates.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let mut kept = candidates.concat();
    kept.sort_unstable();
    kept.dedup();
    kept
}

/// Each variable's domain (sorted): the values every atom using it offers,
/// over the atoms whose candidates are given (`None` for a variable no such
/// atom uses).
fn variable_domains<'a>(
    instance: &Instance,
    compiled: &CompiledQuery,
    candidates: impl Iterator<Item = Option<&'a Vec<FactId>>>,
) -> Vec<Option<Vec<ConstId>>> {
    let mut domains: Vec<Option<Vec<ConstId>>> = vec![None; compiled.variables];
    for ((_, terms), facts) in compiled.atoms.iter().zip(candidates) {
        let Some(facts) = facts else {
            continue;
        };
        for (position, term) in terms.iter().enumerate() {
            if let AtomTerm::Variable(v) = term {
                let mut offered: Vec<ConstId> = facts
                    .iter()
                    .map(|&f| instance.fact(f).args[position])
                    .collect();
                offered.sort_unstable();
                offered.dedup();
                domains[*v] = Some(match domains[*v].take() {
                    None => offered,
                    Some(mut domain) => {
                        domain.retain(|c| offered.binary_search(c).is_ok());
                        domain
                    }
                });
            }
        }
    }
    domains
}

/// True when every variable repeated in `terms` meets one constant in
/// `args` (`R(x, x)` only matches loops).
fn repeats_agree(terms: &[AtomTerm], args: &[ConstId]) -> bool {
    terms.iter().zip(args).enumerate().all(|(i, (term, c))| {
        terms[..i]
            .iter()
            .zip(args)
            .all(|(earlier, d)| earlier != term || d == c)
    })
}

/// What the query can reach in `instance`: the facts that can take part in
/// a match of its body (arc consistency over shared variables, constants
/// and repeated variables), and `decomposition` projected onto their
/// constants ([`TreeDecomposition::project`]). The projection is a valid
/// decomposition of the kept facts' Gaifman graph whenever `decomposition`
/// is one of the instance's. The automaton run walks exactly this.
///
/// Both halves cost O(reach) once the instance's fact index and the
/// decomposition's projection index are built (each once per change):
/// the facts are seeded outward from the body's constants through the
/// fact index, and the projection visits only bags holding a kept
/// constant. Only a body component without any constant scans its
/// relations.
pub fn restrict_to_reach(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    query: &ConjunctiveQuery,
) -> Result<(Vec<FactId>, TreeDecomposition), CourcelleError> {
    let compiled = compile_query(query, instance)?;
    let (facts, _, projected) = restrict(instance, decomposition, &compiled);
    Ok((facts, projected))
}

/// [`restrict_to_reach`]'s facts and projection, with the kept facts'
/// constants between them (sorted and distinct): the only vertices the
/// projection's bags hold.
fn restrict(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    compiled: &CompiledQuery,
) -> (Vec<FactId>, Vec<VertexId>, TreeDecomposition) {
    let facts = reachable_facts(instance, compiled);
    let mut kept: Vec<VertexId> = facts
        .iter()
        .flat_map(|&f| instance.fact(f).args.iter().map(|c| VertexId(c.0)))
        .collect();
    kept.sort_unstable();
    kept.dedup();
    let projected = decomposition.project(&kept);
    (facts, kept, projected)
}

/// Anchors each of `facts` at a nice-decomposition node whose bag contains
/// all its constants: the first such node bottom-up among those holding the
/// fact's rarest constant. Nullary facts are anchored at the root. The
/// facts anchored at each node keep their order in `facts`.
///
/// `kept` lists (sorted and distinct) every constant in `nice`'s bags and
/// in `facts`; constants are grouped by their rank in it, so the cost
/// follows the reach, not the spread of constant ids in the instance.
fn anchor_facts(
    instance: &Instance,
    facts: &[FactId],
    kept: &[VertexId],
    nice: &NiceDecomposition,
) -> Result<Groups<FactId>, CourcelleError> {
    let rank = |v: VertexId| kept.binary_search(&v).ok();
    // The nodes holding each constant, bottom-up, grouped by its rank.
    let holders = Groups::by_key(kept.len(), || {
        nice.iter_bottom_up().flat_map(|(i, node)| {
            node.bag.iter().map(move |&v| {
                let k = rank(v).expect("the reach's bags hold only kept constants");
                (k, i)
            })
        })
    });
    let nodes_holding = |c: usize| rank(VertexId(c)).map_or(&[][..], |k| holders.get(k));
    let mut anchors: Vec<usize> = Vec::with_capacity(facts.len());
    let mut constants: Vec<usize> = Vec::new();
    for &fid in facts {
        constants.clear();
        constants.extend(instance.fact(fid).args.iter().map(|c| c.0));
        constants.sort_unstable();
        constants.dedup();
        if constants.is_empty() {
            anchors.push(nice.root());
            continue;
        }
        // Search the nodes holding the rarest constant (the smallest one
        // among equally rare).
        let rarest = *constants
            .iter()
            .min_by_key(|&&c| nodes_holding(c).len())
            .expect("non-empty");
        let anchor = nodes_holding(rarest)
            .iter()
            .copied()
            .find(|&node| {
                let bag = nice.node(node).bag;
                constants
                    .iter()
                    .all(|&c| bag.binary_search(&VertexId(c)).is_ok())
            })
            .ok_or(CourcelleError::AnchorNotFound(fid))?;
        anchors.push(anchor);
    }
    Ok(Groups::by_key(nice.len(), || {
        anchors.iter().copied().zip(facts.iter().copied())
    }))
}

/// Packed states back to back, each with a gate: a node's table in the
/// lineage run (its reachable states, sorted and distinct, each with the
/// gate that is true exactly when the run can reach it), or the
/// contributions to one, in the order they were made.
#[derive(Default)]
struct Entries {
    states: Vec<u32>,
    gates: Vec<GateId>,
}

impl Entries {
    fn clear(&mut self) {
        self.states.clear();
        self.gates.clear();
    }

    fn state(&self, i: usize, stride: usize) -> &State {
        &self.states[i * stride..(i + 1) * stride]
    }
}

/// Runs the query automaton nondeterministically over the decomposition,
/// producing a lineage circuit over per-fact variables given by
/// `fact_variable` (for a TID, use
/// [`TidInstance::fact_event`](stuc_data::tid::TidInstance::fact_event); for a
/// pcc-instance, use fresh variables and substitute annotation circuits
/// afterwards). The run walks only what the query reaches
/// ([`restrict_to_reach`]), so an anchored body costs the same on any
/// instance size.
pub fn cq_lineage_circuit(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    query: &ConjunctiveQuery,
    fact_variable: impl Fn(FactId) -> VarId,
) -> Result<Circuit, CourcelleError> {
    let compiled = compile_query(query, instance)?;
    let (facts, kept, projected) = restrict(instance, decomposition, &compiled);
    let nice = NiceDecomposition::from_decomposition(&projected);
    let anchored = anchor_facts(instance, &facts, &kept, &nice)?;
    let stride = compiled.stride();

    let mut circuit = Circuit::new();
    let true_gate = circuit.add_const(true);

    // tables[node]: its states and their gates. A child's table is taken
    // by its one parent, and its buffers are reused for a later table.
    let mut tables: Vec<Entries> = Vec::with_capacity(nice.len());
    let mut spare: Vec<Entries> = Vec::new();
    let recycle = |spare: &mut Vec<Entries>, mut table: Entries| {
        table.clear();
        spare.push(table);
    };
    // Sorts contribution indices by state, keeping the order they were
    // made in among equal states.
    let by_state = |order: &mut [usize], contributions: &Entries| {
        order.sort_by(|&a, &b| {
            contributions
                .state(a, stride)
                .cmp(contributions.state(b, stride))
        })
    };
    let mut contributions = Entries::default();
    let mut order: Vec<usize> = Vec::new();
    let mut worklist: Vec<usize> = Vec::new();
    let mut current: Vec<u32> = Vec::with_capacity(stride);
    let mut fact_gates: Vec<Option<GateId>> = Vec::new();

    for (idx, node) in nice.iter_bottom_up() {
        let facts = anchored.get(idx);
        // Structural step.
        contributions.clear();
        match node.kind {
            NiceNodeKind::Leaf => {
                compiled.initial_state(&mut contributions.states);
                contributions.gates.push(true_gate);
            }
            NiceNodeKind::Introduce { child, .. } => {
                let table = std::mem::take(&mut tables[child]);
                if facts.is_empty() {
                    // Nothing to match: the child's table, sorted and
                    // distinct, is this node's.
                    tables.push(table);
                    continue;
                }
                contributions.states.extend_from_slice(&table.states);
                contributions.gates.extend_from_slice(&table.gates);
                recycle(&mut spare, table);
            }
            NiceNodeKind::Forget { vertex, child } => {
                let c = ConstId(vertex.index());
                let table = std::mem::take(&mut tables[child]);
                for (state, &gate) in table.states.chunks_exact(stride).zip(&table.gates) {
                    if compiled.forget(state, c, &mut contributions.states) {
                        contributions.gates.push(gate);
                    }
                }
                recycle(&mut spare, table);
            }
            NiceNodeKind::Join { left, right } => {
                let left = std::mem::take(&mut tables[left]);
                let right = std::mem::take(&mut tables[right]);
                for (ls, &lg) in left.states.chunks_exact(stride).zip(&left.gates) {
                    for (rs, &rg) in right.states.chunks_exact(stride).zip(&right.gates) {
                        if compiled.join(ls, rs, &mut contributions.states) {
                            let gate = circuit.add_and(vec![lg, rg]);
                            contributions.gates.push(gate);
                        }
                    }
                }
                recycle(&mut spare, left);
                recycle(&mut spare, right);
            }
        }
        order.clear();
        order.extend(0..contributions.gates.len());
        by_state(&mut order, &contributions);

        // Matching closure for facts anchored at this node: the grouped
        // contributions are the worklist, popped from the back.
        if !facts.is_empty() {
            fact_gates.clear();
            fact_gates.resize(facts.len(), None);
            worklist.clear();
            worklist.extend_from_slice(&order);
            while let Some(entry) = worklist.pop() {
                current.clear();
                current.extend_from_slice(contributions.state(entry, stride));
                let gate = contributions.gates[entry];
                for (k, &fid) in facts.iter().enumerate() {
                    let fact = instance.fact(fid);
                    for atom_index in 0..compiled.atoms.len() {
                        if compiled.try_match(&current, atom_index, fact, &mut contributions.states)
                        {
                            let fact_gate = *fact_gates[k]
                                .get_or_insert_with(|| circuit.add_input(fact_variable(fid)));
                            let new_gate = circuit.add_and(vec![gate, fact_gate]);
                            contributions.gates.push(new_gate);
                            order.push(contributions.gates.len() - 1);
                            worklist.push(contributions.gates.len() - 1);
                        }
                    }
                }
            }
            by_state(&mut order, &contributions);
        }

        // Collapse contributions into one OR gate per state.
        let mut table = spare.pop().unwrap_or_default();
        let mut run = 0;
        while run < order.len() {
            let state = contributions.state(order[run], stride);
            let mut end = run + 1;
            while end < order.len() && contributions.state(order[end], stride) == state {
                end += 1;
            }
            let gate = if end - run == 1 {
                contributions.gates[order[run]]
            } else {
                circuit.add_or(
                    order[run..end]
                        .iter()
                        .map(|&i| contributions.gates[i])
                        .collect(),
                )
            };
            table.states.extend_from_slice(state);
            table.gates.push(gate);
            run = end;
        }
        tables.push(table);
    }

    // Output: OR over accepting states at the root.
    let root = &tables[nice.root()];
    let accepting: Vec<GateId> = root
        .states
        .chunks_exact(stride)
        .zip(&root.gates)
        .filter(|(s, _)| compiled.is_accepting(s))
        .map(|(_, &g)| g)
        .collect();
    let output = circuit.add_or(accepting);
    circuit.set_output(output);
    Ok(circuit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stuc_circuit::compiled::{one_shot_probability, CompiledCircuit};
    use stuc_circuit::enumeration::probability_by_enumeration;
    use stuc_data::tid::TidInstance;
    use stuc_data::worlds;
    use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use stuc_query::lineage::tid_lineage;

    fn decomposition_of(tid: &TidInstance) -> TreeDecomposition {
        decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinFill)
    }

    /// The query's probability on `tid`: the lineage run, counted by the
    /// one-shot sweep.
    fn probability(
        tid: &TidInstance,
        td: &TreeDecomposition,
        query: &ConjunctiveQuery,
    ) -> Result<f64, CourcelleError> {
        let circuit = cq_lineage_circuit(tid.instance(), td, query, |f| tid.fact_event(f))?;
        Ok(one_shot_probability(&circuit, &tid.fact_weights()).unwrap())
    }

    fn path_tid(n: usize, p: f64) -> TidInstance {
        let mut tid = TidInstance::new();
        for i in 0..n {
            tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], p);
        }
        tid
    }

    fn star_tid() -> TidInstance {
        let mut tid = TidInstance::new();
        tid.add_fact_named("R", &["a"], 0.5);
        tid.add_fact_named("R", &["b"], 0.25);
        tid.add_fact_named("S", &["a", "c"], 0.8);
        tid.add_fact_named("S", &["b", "d"], 0.4);
        tid.add_fact_named("T", &["c"], 0.5);
        tid.add_fact_named("T", &["d"], 0.9);
        tid
    }

    #[test]
    fn lineage_circuit_matches_naive_lineage_on_path() {
        let tid = path_tid(5, 0.5);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let circuit =
            cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
        let p = probability_by_enumeration(&circuit, &tid.fact_weights()).unwrap();
        let reference =
            probability_by_enumeration(&tid_lineage(&tid, &query), &tid.fact_weights()).unwrap();
        assert!((p - reference).abs() < 1e-9, "{p} vs {reference}");
    }

    #[test]
    fn probability_run_matches_world_enumeration_on_star() {
        let tid = star_tid();
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let exact = probability(&tid, &td, &query).unwrap();
        let lineage = tid_lineage(&tid, &query);
        let reference = probability_by_enumeration(&lineage, &tid.fact_weights()).unwrap();
        assert!((exact - reference).abs() < 1e-9, "{exact} vs {reference}");
    }

    #[test]
    fn probability_run_matches_on_paths_of_various_lengths() {
        for n in [2usize, 3, 5, 8] {
            let tid = path_tid(n, 0.4);
            let td = decomposition_of(&tid);
            let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
            let exact = probability(&tid, &td, &query).unwrap();
            let reference = worlds::tid_query_probability(&tid, |facts| {
                (0..n.saturating_sub(1))
                    .any(|i| facts.contains(&FactId(i)) && facts.contains(&FactId(i + 1)))
            })
            .unwrap();
            assert!(
                (exact - reference).abs() < 1e-9,
                "n = {n}: {exact} vs {reference}"
            );
        }
    }

    #[test]
    fn lineage_circuit_probability_via_wmc_matches() {
        let tid = star_tid();
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let circuit =
            cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
        let by_wmc = one_shot_probability(&circuit, &tid.fact_weights()).unwrap();
        let reference =
            probability_by_enumeration(&tid_lineage(&tid, &query), &tid.fact_weights()).unwrap();
        assert!((by_wmc - reference).abs() < 1e-9);
    }

    #[test]
    fn queries_with_constants() {
        let tid = star_tid();
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("S(\"a\", y), T(y)").unwrap();
        let exact = probability(&tid, &td, &query).unwrap();
        // S(a, c) present (0.8) and T(c) present (0.5).
        assert!((exact - 0.4).abs() < 1e-9);
    }

    #[test]
    fn query_with_no_match_has_probability_zero() {
        let tid = path_tid(3, 0.9);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("Missing(x)").unwrap();
        assert_eq!(probability(&tid, &td, &query).unwrap(), 0.0);
    }

    #[test]
    fn certain_facts_give_certain_answers() {
        let mut tid = TidInstance::new();
        tid.add_certain_fact("R", &["a", "b"]);
        tid.add_certain_fact("R", &["b", "c"]);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let exact = probability(&tid, &td, &query).unwrap();
        assert!((exact - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_boolean_queries_are_rejected() {
        let tid = path_tid(2, 0.5);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("ans(x) <- R(x, y)").unwrap();
        assert_eq!(
            cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).err(),
            Some(CourcelleError::NotBoolean)
        );
    }

    #[test]
    fn triangle_query_on_triangle_instance() {
        // A cyclic query on a cyclic (treewidth-2) instance.
        let mut tid = TidInstance::new();
        tid.add_fact_named("E", &["a", "b"], 0.5);
        tid.add_fact_named("E", &["b", "c"], 0.5);
        tid.add_fact_named("E", &["c", "a"], 0.5);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("E(x, y), E(y, z), E(z, x)").unwrap();
        let exact = probability(&tid, &td, &query).unwrap();
        assert!((exact - 0.125).abs() < 1e-9);
    }

    #[test]
    fn self_join_free_query_matches_on_larger_random_instance() {
        // Random low-treewidth instance: R facts on a path's nodes, S facts
        // on its edges, T on nodes — the paper's hard query stays exact here.
        let mut tid = TidInstance::new();
        for i in 0..7 {
            tid.add_fact_named("R", &[&format!("v{i}")], 0.3 + 0.05 * i as f64);
            tid.add_fact_named("T", &[&format!("v{i}")], 0.6 - 0.05 * i as f64);
        }
        for i in 0..6 {
            tid.add_fact_named("S", &[&format!("v{i}"), &format!("v{}", i + 1)], 0.5);
        }
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        let exact = probability(&tid, &td, &query).unwrap();
        let reference =
            probability_by_enumeration(&tid_lineage(&tid, &query), &tid.fact_weights()).unwrap();
        assert!((exact - reference).abs() < 1e-9, "{exact} vs {reference}");
    }

    #[test]
    fn lineage_width_stays_bounded_as_path_grows() {
        // Theorem 2 in action: lineage circuits from the automaton run have
        // bounded width as the data grows.
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let mut widths = Vec::new();
        for n in [10usize, 40, 80] {
            let tid = path_tid(n, 0.5);
            let td = decomposition_of(&tid);
            let circuit =
                cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
            let compiled = CompiledCircuit::compile(Arc::new(circuit), Default::default());
            widths.push(compiled.unwrap().width());
        }
        let max = *widths.iter().max().unwrap();
        let min = *widths.iter().min().unwrap();
        assert!(max <= min + 3, "widths grew with data size: {widths:?}");
    }
}
