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
//! Both runs walk only what the query can reach ([`restrict_to_reach`]):
//! the facts that survive arc consistency against the body, and the
//! decomposition projected onto their constants. For an anchored body that
//! is a few bags whatever the instance size; a fact outside the reach is
//! in no match, so the run's answer is the same as over the whole instance.
//!
//! Two run modes are provided, mirroring [`crate::uncertain`]:
//!
//! * [`cq_lineage_circuit`] — the nondeterministic provenance run, producing
//!   a lineage circuit over per-fact Boolean variables (substitute
//!   annotation circuits for these variables to obtain Theorem 2 for
//!   pcc-instances);
//! * [`cq_probability_tid`] — the deterministic subset run for
//!   tuple-independent instances, computing the exact query probability in a
//!   single pass: linear time in the instance for a fixed query and width,
//!   which is Theorem 1.

use std::collections::{BTreeMap, BTreeSet};
use stuc_circuit::circuit::{Circuit, GateId, VarId};
use stuc_data::instance::{ConstId, FactId, Instance, RelId};
use stuc_data::tid::TidInstance;
use stuc_graph::graph::VertexId;
use stuc_graph::nice::{NiceDecomposition, NiceNodeKind};
use stuc_graph::TreeDecomposition;
use stuc_query::cq::{ConjunctiveQuery, Term};

/// Maximum number of query atoms (matched-atom sets are stored as a `u64`).
pub const MAX_ATOMS: usize = 32;

/// Maximum number of facts anchored at a single decomposition node for the
/// deterministic (probability) run, which enumerates their presence subsets.
pub const MAX_ANCHORED_FACTS: usize = 16;

stuc_errors::stuc_error! {
    /// Errors raised by the Courcelle-style runs.
    #[derive(Clone, PartialEq, Eq)]
    pub enum CourcelleError {
        /// The query has more atoms than [`MAX_ATOMS`].
        TooManyAtoms(usize),
        /// A fact's constants are not jointly contained in any bag — the
        /// decomposition does not cover the instance.
        AnchorNotFound(FactId),
        /// Too many facts anchored at one node for the probability run.
        TooManyAnchoredFacts(usize),
        /// The query is not Boolean (has free variables).
        NotBoolean,
    }
    display {
        Self::TooManyAtoms(n) => "query has {n} atoms, more than the supported {MAX_ATOMS}",
        Self::AnchorNotFound(fact) => "no bag contains all constants of fact {fact}",
        Self::TooManyAnchoredFacts(n) => "{n} facts anchored at one node exceed the limit {MAX_ANCHORED_FACTS}",
        Self::NotBoolean => "query must be Boolean (no free variables)",
    }
}

/// The status of one query variable in a partial-match state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum VarStatus {
    /// Not yet bound.
    Unused,
    /// Bound to a constant currently present in the bag.
    Active(ConstId),
    /// Bound to a constant that has been forgotten; all atoms using the
    /// variable were matched before the constant was forgotten.
    Done,
}

/// A partial-match type: the automaton state of the query's Courcelle
/// automaton.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct MatchState {
    statuses: Vec<VarStatus>,
    matched: u64,
}

/// Pre-processed query: variable order, per-atom variable positions.
struct CompiledQuery {
    variables: Vec<String>,
    /// For each atom: relation name, and for each position either a variable
    /// index or a constant name.
    atoms: Vec<(String, Vec<AtomTerm>)>,
    /// For each variable, the bitmask of atoms it occurs in.
    atoms_of_variable: Vec<u64>,
    all_matched: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum AtomTerm {
    Variable(usize),
    Constant(String),
}

fn compile_query(query: &ConjunctiveQuery) -> Result<CompiledQuery, CourcelleError> {
    if !query.is_boolean() {
        return Err(CourcelleError::NotBoolean);
    }
    if query.atoms.len() > MAX_ATOMS {
        return Err(CourcelleError::TooManyAtoms(query.atoms.len()));
    }
    let variables: Vec<String> = query.variables().into_iter().collect();
    let index_of = |name: &str| variables.iter().position(|v| v == name).expect("known var");
    let atoms: Vec<(String, Vec<AtomTerm>)> = query
        .atoms
        .iter()
        .map(|a| {
            let terms = a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => AtomTerm::Variable(index_of(v)),
                    Term::Const(c) => AtomTerm::Constant(c.clone()),
                })
                .collect();
            (a.relation.clone(), terms)
        })
        .collect();
    let mut atoms_of_variable = vec![0u64; variables.len()];
    for (i, (_, terms)) in atoms.iter().enumerate() {
        for t in terms {
            if let AtomTerm::Variable(v) = t {
                atoms_of_variable[*v] |= 1 << i;
            }
        }
    }
    let all_matched = if atoms.is_empty() {
        0
    } else {
        (1u64 << atoms.len()) - 1
    };
    Ok(CompiledQuery {
        variables,
        atoms,
        atoms_of_variable,
        all_matched,
    })
}

impl CompiledQuery {
    fn initial_state(&self) -> MatchState {
        MatchState {
            statuses: vec![VarStatus::Unused; self.variables.len()],
            matched: 0,
        }
    }

    /// Attempts to match atom `atom_index` with the given fact under the
    /// state; returns the successor state if the match is consistent.
    fn try_match(
        &self,
        state: &MatchState,
        atom_index: usize,
        fact: &stuc_data::instance::Fact,
        instance: &Instance,
    ) -> Option<MatchState> {
        if state.matched & (1 << atom_index) != 0 {
            return None; // already matched; re-matching adds nothing
        }
        let (relation, terms) = &self.atoms[atom_index];
        if instance.relation_name(fact.relation) != relation || fact.args.len() != terms.len() {
            return None;
        }
        let mut statuses = state.statuses.clone();
        for (term, &constant) in terms.iter().zip(&fact.args) {
            match term {
                AtomTerm::Constant(name) => {
                    if instance.find_constant(name) != Some(constant) {
                        return None;
                    }
                }
                AtomTerm::Variable(v) => match statuses[*v] {
                    VarStatus::Unused => statuses[*v] = VarStatus::Active(constant),
                    VarStatus::Active(c) if c == constant => {}
                    VarStatus::Active(_) | VarStatus::Done => return None,
                },
            }
        }
        Some(MatchState {
            statuses,
            matched: state.matched | (1 << atom_index),
        })
    }

    /// Applies the forget of constant `c`: variables bound to `c` become
    /// `Done` provided every atom using them has been matched; otherwise the
    /// state dies.
    fn forget(&self, state: &MatchState, c: ConstId) -> Option<MatchState> {
        let mut statuses = state.statuses.clone();
        for (v, status) in statuses.iter_mut().enumerate() {
            if *status == VarStatus::Active(c) {
                if self.atoms_of_variable[v] & !state.matched != 0 {
                    return None;
                }
                *status = VarStatus::Done;
            }
        }
        Some(MatchState {
            statuses,
            matched: state.matched,
        })
    }

    /// Combines the states of the two children of a join node; `None` if they
    /// are inconsistent.
    fn join(&self, left: &MatchState, right: &MatchState) -> Option<MatchState> {
        let mut statuses = Vec::with_capacity(left.statuses.len());
        for (l, r) in left.statuses.iter().zip(&right.statuses) {
            let combined = match (l, r) {
                (VarStatus::Unused, other) | (other, VarStatus::Unused) => *other,
                (VarStatus::Active(a), VarStatus::Active(b)) if a == b => VarStatus::Active(*a),
                _ => return None,
            };
            statuses.push(combined);
        }
        Some(MatchState {
            statuses,
            matched: left.matched | right.matched,
        })
    }

    fn is_accepting(&self, state: &MatchState) -> bool {
        state.matched == self.all_matched
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
            let relation = instance.find_relation(relation)?;
            let mut constants = Vec::new();
            for (position, term) in terms.iter().enumerate() {
                if let AtomTerm::Constant(name) = term {
                    constants.push((position, instance.find_constant(name)?));
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
    let mut domains: Vec<Option<Vec<ConstId>>> = vec![None; compiled.variables.len()];
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
/// is one of the instance's. The automaton runs walk exactly this.
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
    let compiled = compile_query(query)?;
    Ok(restrict(instance, decomposition, &compiled))
}

fn restrict(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    compiled: &CompiledQuery,
) -> (Vec<FactId>, TreeDecomposition) {
    let facts = reachable_facts(instance, compiled);
    let mut kept: Vec<VertexId> = facts
        .iter()
        .flat_map(|&f| instance.fact(f).args.iter().map(|c| VertexId(c.0)))
        .collect();
    kept.sort_unstable();
    kept.dedup();
    let projected = decomposition.project(&kept);
    (facts, projected)
}

/// The nice decomposition a run walks and the facts anchored at each of its
/// nodes, restricted to what the query reaches.
fn prepare_run(
    instance: &Instance,
    decomposition: &TreeDecomposition,
    compiled: &CompiledQuery,
) -> Result<(NiceDecomposition, Vec<Vec<FactId>>), CourcelleError> {
    let (facts, projected) = restrict(instance, decomposition, compiled);
    let nice = NiceDecomposition::from_decomposition(&projected);
    let anchored = anchor_facts(instance, &facts, &nice)?;
    Ok((nice, anchored))
}

/// Anchors each of `facts` at a nice-decomposition node whose bag contains
/// all its constants. Nullary facts are anchored at the root.
fn anchor_facts(
    instance: &Instance,
    facts: &[FactId],
    nice: &NiceDecomposition,
) -> Result<Vec<Vec<FactId>>, CourcelleError> {
    let mut anchored: Vec<Vec<FactId>> = vec![Vec::new(); nice.len()];
    // Occurrence lists: constant → nice nodes containing it.
    let mut occurrences: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, node) in nice.iter_bottom_up() {
        for v in &node.bag {
            occurrences.entry(v.index()).or_default().push(i);
        }
    }
    for &fid in facts {
        let fact = instance.fact(fid);
        let constants: BTreeSet<usize> = fact.args.iter().map(|c| c.0).collect();
        if constants.is_empty() {
            anchored[nice.root()].push(fid);
            continue;
        }
        // Search the occurrence list of the rarest constant.
        let rarest = constants
            .iter()
            .min_by_key(|c| occurrences.get(c).map(|o| o.len()).unwrap_or(0))
            .copied()
            .expect("non-empty");
        let candidates = occurrences
            .get(&rarest)
            .ok_or(CourcelleError::AnchorNotFound(fid))?;
        let anchor = candidates
            .iter()
            .find(|&&node| {
                constants
                    .iter()
                    .all(|&c| nice.node(node).bag.contains(&VertexId(c)))
            })
            .copied()
            .ok_or(CourcelleError::AnchorNotFound(fid))?;
        anchored[anchor].push(fid);
    }
    Ok(anchored)
}

/// Runs the query automaton nondeterministically over the decomposition,
/// producing a lineage circuit over per-fact variables given by
/// `fact_variable` (for a TID, use [`TidInstance::fact_event`]; for a
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
    let compiled = compile_query(query)?;
    let (nice, anchored) = prepare_run(instance, decomposition, &compiled)?;

    let mut circuit = Circuit::new();
    let true_gate = circuit.add_const(true);
    let mut fact_gates: BTreeMap<FactId, GateId> = BTreeMap::new();
    let mut gate_of_fact = |fid: FactId, circuit: &mut Circuit| -> GateId {
        *fact_gates
            .entry(fid)
            .or_insert_with(|| circuit.add_input(fact_variable(fid)))
    };

    // tables[node]: state → gate.
    let mut tables: Vec<BTreeMap<MatchState, GateId>> = Vec::with_capacity(nice.len());

    for (idx, node) in nice.iter_bottom_up() {
        // Structural step.
        let mut contributions: BTreeMap<MatchState, Vec<GateId>> = BTreeMap::new();
        match &node.kind {
            NiceNodeKind::Leaf => {
                contributions
                    .entry(compiled.initial_state())
                    .or_default()
                    .push(true_gate);
            }
            NiceNodeKind::Introduce { child, .. } => {
                for (state, &gate) in &tables[*child] {
                    contributions.entry(state.clone()).or_default().push(gate);
                }
            }
            NiceNodeKind::Forget { vertex, child } => {
                let c = ConstId(vertex.index());
                for (state, &gate) in &tables[*child] {
                    if let Some(next) = compiled.forget(state, c) {
                        contributions.entry(next).or_default().push(gate);
                    }
                }
            }
            NiceNodeKind::Join { left, right } => {
                for (ls, &lg) in &tables[*left] {
                    for (rs, &rg) in &tables[*right] {
                        if let Some(next) = compiled.join(ls, rs) {
                            let gate = circuit.add_and(vec![lg, rg]);
                            contributions.entry(next).or_default().push(gate);
                        }
                    }
                }
            }
        }

        // Matching closure for facts anchored at this node.
        if !anchored[idx].is_empty() {
            let mut worklist: Vec<(MatchState, GateId)> = contributions
                .iter()
                .flat_map(|(s, gates)| gates.iter().map(move |&g| (s.clone(), g)))
                .collect();
            while let Some((state, gate)) = worklist.pop() {
                for &fid in &anchored[idx] {
                    let fact = instance.fact(fid);
                    for atom_index in 0..compiled.atoms.len() {
                        if let Some(next) = compiled.try_match(&state, atom_index, fact, instance) {
                            let fact_gate = gate_of_fact(fid, &mut circuit);
                            let new_gate = circuit.add_and(vec![gate, fact_gate]);
                            contributions
                                .entry(next.clone())
                                .or_default()
                                .push(new_gate);
                            worklist.push((next, new_gate));
                        }
                    }
                }
            }
        }

        // Collapse contributions into one OR gate per state.
        let mut table = BTreeMap::new();
        for (state, gates) in contributions {
            let gate = if gates.len() == 1 {
                gates[0]
            } else {
                circuit.add_or(gates)
            };
            table.insert(state, gate);
        }
        tables.push(table);
    }

    // Output: OR over accepting states at the root.
    let accepting: Vec<GateId> = tables[nice.root()]
        .iter()
        .filter(|(s, _)| compiled.is_accepting(s))
        .map(|(_, &g)| g)
        .collect();
    let output = circuit.add_or(accepting);
    circuit.set_output(output);
    Ok(circuit)
}

/// Runs the query automaton deterministically (subset construction) over the
/// decomposition of a TID instance, computing the exact probability that the
/// Boolean query holds. Linear time in the instance for a fixed query and
/// bounded width / facts-per-bag (Theorem 1).
pub fn cq_probability_tid(
    tid: &TidInstance,
    decomposition: &TreeDecomposition,
    query: &ConjunctiveQuery,
) -> Result<f64, CourcelleError> {
    let compiled = compile_query(query)?;
    let instance = tid.instance();
    let (nice, anchored) = prepare_run(instance, decomposition, &compiled)?;

    type DetState = Vec<MatchState>; // sorted, deduplicated
                                     // distributions[node]: det-state → probability.
    let mut distributions: Vec<BTreeMap<DetState, f64>> = Vec::with_capacity(nice.len());

    let normalise = |mut states: Vec<MatchState>| -> DetState {
        states.sort();
        states.dedup();
        states
    };

    for (idx, node) in nice.iter_bottom_up() {
        let mut dist: BTreeMap<DetState, f64> = BTreeMap::new();
        match &node.kind {
            NiceNodeKind::Leaf => {
                dist.insert(vec![compiled.initial_state()], 1.0);
            }
            NiceNodeKind::Introduce { child, .. } => {
                for (states, &p) in &distributions[*child] {
                    *dist.entry(states.clone()).or_insert(0.0) += p;
                }
            }
            NiceNodeKind::Forget { vertex, child } => {
                let c = ConstId(vertex.index());
                for (states, &p) in &distributions[*child] {
                    let next: Vec<MatchState> = states
                        .iter()
                        .filter_map(|s| compiled.forget(s, c))
                        .collect();
                    *dist.entry(normalise(next)).or_insert(0.0) += p;
                }
            }
            NiceNodeKind::Join { left, right } => {
                let left_dist = distributions[*left].clone();
                for (ls, &lp) in &left_dist {
                    for (rs, &rp) in &distributions[*right] {
                        let mut combined = Vec::new();
                        for a in ls {
                            for b in rs {
                                if let Some(s) = compiled.join(a, b) {
                                    combined.push(s);
                                }
                            }
                        }
                        *dist.entry(normalise(combined)).or_insert(0.0) += lp * rp;
                    }
                }
            }
        }

        // Facts anchored here: branch on their presence subsets.
        let facts = &anchored[idx];
        if !facts.is_empty() {
            if facts.len() > MAX_ANCHORED_FACTS {
                return Err(CourcelleError::TooManyAnchoredFacts(facts.len()));
            }
            let mut with_facts: BTreeMap<DetState, f64> = BTreeMap::new();
            for (states, &p) in &dist {
                for mask in 0..(1u64 << facts.len()) {
                    let mut weight = 1.0;
                    for (i, &fid) in facts.iter().enumerate() {
                        let q = tid.probability(fid);
                        weight *= if mask & (1 << i) != 0 { q } else { 1.0 - q };
                    }
                    if weight == 0.0 {
                        continue;
                    }
                    // Deterministic closure with the present facts.
                    let mut closure: BTreeSet<MatchState> = states.iter().cloned().collect();
                    let mut worklist: Vec<MatchState> = states.clone();
                    while let Some(state) = worklist.pop() {
                        for (i, &fid) in facts.iter().enumerate() {
                            if mask & (1 << i) == 0 {
                                continue;
                            }
                            let fact = instance.fact(fid);
                            for atom_index in 0..compiled.atoms.len() {
                                if let Some(next) =
                                    compiled.try_match(&state, atom_index, fact, instance)
                                {
                                    if closure.insert(next.clone()) {
                                        worklist.push(next);
                                    }
                                }
                            }
                        }
                    }
                    let det: DetState = closure.into_iter().collect();
                    *with_facts.entry(det).or_insert(0.0) += p * weight;
                }
            }
            dist = with_facts;
        }

        distributions.push(dist);
    }

    let mut accepted = 0.0;
    for (states, &p) in &distributions[nice.root()] {
        if states.iter().any(|s| compiled.is_accepting(s)) {
            accepted += p;
        }
    }
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use stuc_circuit::compiled::{one_shot_probability, CompiledCircuit};
    use stuc_circuit::enumeration::probability_by_enumeration;
    use stuc_data::worlds;
    use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use stuc_query::lineage::tid_lineage;

    fn decomposition_of(tid: &TidInstance) -> TreeDecomposition {
        decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinFill)
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
        let exact = cq_probability_tid(&tid, &td, &query).unwrap();
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
            let exact = cq_probability_tid(&tid, &td, &query).unwrap();
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
        let exact = cq_probability_tid(&tid, &td, &query).unwrap();
        // S(a, c) present (0.8) and T(c) present (0.5).
        assert!((exact - 0.4).abs() < 1e-9);
    }

    #[test]
    fn query_with_no_match_has_probability_zero() {
        let tid = path_tid(3, 0.9);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("Missing(x)").unwrap();
        assert_eq!(cq_probability_tid(&tid, &td, &query).unwrap(), 0.0);
    }

    #[test]
    fn certain_facts_give_certain_answers() {
        let mut tid = TidInstance::new();
        tid.add_certain_fact("R", &["a", "b"]);
        tid.add_certain_fact("R", &["b", "c"]);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let exact = cq_probability_tid(&tid, &td, &query).unwrap();
        assert!((exact - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_boolean_queries_are_rejected() {
        let tid = path_tid(2, 0.5);
        let td = decomposition_of(&tid);
        let query = ConjunctiveQuery::parse("ans(x) <- R(x, y)").unwrap();
        assert_eq!(
            cq_probability_tid(&tid, &td, &query),
            Err(CourcelleError::NotBoolean)
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
        let exact = cq_probability_tid(&tid, &td, &query).unwrap();
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
        let exact = cq_probability_tid(&tid, &td, &query).unwrap();
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
