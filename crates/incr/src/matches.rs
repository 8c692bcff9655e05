//! Delta match enumeration: the homomorphisms an insertion *adds*.
//!
//! The lineage of a Boolean CQ is the OR over all matches of the AND of the
//! matched facts' events. Inserting facts leaves every old match intact, so
//! the patched lineage is `old OR delta`, where the delta ranges over the
//! matches using **at least one inserted fact**. Enumerating those without
//! re-enumerating everything is the classic delta-join trick: partition the
//! new matches by the first atom position that uses an inserted fact — atom
//! positions before the pivot are restricted to old facts, the pivot to
//! inserted facts, and positions after it are unrestricted. The parts are
//! disjoint and cover exactly the new matches.
//!
//! Each part is searched outwards from the delta: the pivot atom is matched
//! against the inserted facts only, and every later step takes an atom that
//! shares a bound variable or a constant with what is matched so far, and
//! looks its candidates up in the instance's memoised
//! [`stuc_data::instance::FactIndex`] by `(relation, position, constant)`
//! instead of scanning its relation. A connected query on bounded-degree
//! data therefore costs O(|delta|) lookups, not O(|instance|) per partial
//! match; only an atom sharing nothing with the matched ones scans its
//! relation.

use std::collections::{BTreeMap, BTreeSet};
use stuc_data::instance::{ConstId, FactId, FactIndex, Instance, RelId};
use stuc_query::cq::{ConjunctiveQuery, Term};

/// An atom argument, resolved against the instance's interned names.
#[derive(Clone, Copy)]
enum Arg {
    Const(ConstId),
    /// A dense variable number.
    Var(usize),
}

/// A query atom resolved against the instance.
struct ResolvedAtom {
    relation: RelId,
    args: Vec<Arg>,
}

/// The query's atoms resolved against `instance`, and its variable count;
/// `None` when some relation or constant does not occur in the instance, so
/// that no atom can match and the query has no match at all.
fn resolve(instance: &Instance, query: &ConjunctiveQuery) -> Option<(Vec<ResolvedAtom>, usize)> {
    let mut variables: BTreeMap<&str, usize> = BTreeMap::new();
    let mut atoms = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let relation = instance.find_relation(&atom.relation)?;
        let mut args = Vec::with_capacity(atom.args.len());
        for term in &atom.args {
            args.push(match term {
                Term::Const(name) => Arg::Const(instance.find_constant(name)?),
                Term::Var(name) => {
                    let next = variables.len();
                    Arg::Var(*variables.entry(name).or_insert(next))
                }
            });
        }
        atoms.push(ResolvedAtom { relation, args });
    }
    Some((atoms, variables.len()))
}

/// The order the search matches atoms in when `pivot` holds the inserted
/// fact: the pivot first, then repeatedly the first remaining atom that has
/// a constant or a variable bound by the atoms before it (the first
/// remaining atom when none has).
fn join_order(atoms: &[ResolvedAtom], pivot: usize, variable_count: usize) -> Vec<usize> {
    let mut bound = vec![false; variable_count];
    let mut placed = vec![false; atoms.len()];
    let mut order = Vec::with_capacity(atoms.len());
    let mut next = Some(pivot);
    while let Some(i) = next {
        placed[i] = true;
        order.push(i);
        for arg in &atoms[i].args {
            if let Arg::Var(v) = *arg {
                bound[v] = true;
            }
        }
        let remaining = || (0..atoms.len()).filter(|&j| !placed[j]);
        next = remaining()
            .find(|&j| {
                atoms[j].args.iter().any(|arg| match *arg {
                    Arg::Const(_) => true,
                    Arg::Var(v) => bound[v],
                })
            })
            .or_else(|| remaining().next());
    }
    order
}

/// The witness lists of every match that uses at least one inserted fact,
/// in some deterministic order. Each list has one fact per query atom, in
/// atom order.
pub fn delta_match_witnesses(
    instance: &Instance,
    query: &ConjunctiveQuery,
    inserted: &BTreeSet<FactId>,
) -> Vec<Vec<FactId>> {
    let mut results = Vec::new();
    if inserted.is_empty() {
        return results;
    }
    let Some((atoms, variable_count)) = resolve(instance, query) else {
        return results;
    };
    let inserted: Vec<FactId> = inserted.iter().copied().collect();
    let mut search = Search {
        instance,
        index: instance.fact_index(),
        atoms: &atoms,
        inserted: &inserted,
        pivot: 0,
        order: Vec::new(),
        assignment: vec![None; variable_count],
        witnesses: vec![FactId(0); atoms.len()],
        results: &mut results,
    };
    for pivot in 0..atoms.len() {
        search.pivot = pivot;
        search.order = join_order(&atoms, pivot, variable_count);
        search.extend(0);
    }
    results
}

/// The state of one pivoted depth-first search.
struct Search<'a> {
    instance: &'a Instance,
    index: &'a FactIndex,
    atoms: &'a [ResolvedAtom],
    /// The inserted facts, sorted.
    inserted: &'a [FactId],
    /// The first atom position that uses an inserted fact: positions before
    /// it match only old facts, the pivot only inserted ones.
    pivot: usize,
    order: Vec<usize>,
    assignment: Vec<Option<ConstId>>,
    /// The fact matched by each atom, by atom position.
    witnesses: Vec<FactId>,
    results: &'a mut Vec<Vec<FactId>>,
}

impl Search<'_> {
    fn extend(&mut self, step: usize) {
        let Some(&i) = self.order.get(step) else {
            self.results.push(self.witnesses.clone());
            return;
        };
        // Copy the shared references out, so the candidates and the matched
        // fact do not borrow `self` across the recursive calls.
        let (instance, index, atom) = (self.instance, self.index, &self.atoms[i]);
        let candidates: &[FactId] = if i == self.pivot {
            self.inserted
        } else {
            let lookup = atom.args.iter().enumerate().find_map(|(position, arg)| {
                match *arg {
                    Arg::Const(c) => Some(c),
                    Arg::Var(v) => self.assignment[v],
                }
                .map(|c| (position, c))
            });
            match lookup {
                Some((position, c)) => index.facts_with(atom.relation, position, c),
                None => index.facts_of(atom.relation),
            }
        };
        for &fact_id in candidates {
            if i < self.pivot && self.inserted.binary_search(&fact_id).is_ok() {
                continue;
            }
            let fact = instance.fact(fact_id);
            if fact.relation != atom.relation || fact.args.len() != atom.args.len() {
                continue;
            }
            let mut newly_bound = Vec::new();
            let mut ok = true;
            for (arg, &constant) in atom.args.iter().zip(&fact.args) {
                match *arg {
                    Arg::Const(c) => ok = c == constant,
                    Arg::Var(v) => match self.assignment[v] {
                        Some(bound) => ok = bound == constant,
                        None => {
                            self.assignment[v] = Some(constant);
                            newly_bound.push(v);
                        }
                    },
                }
                if !ok {
                    break;
                }
            }
            if ok {
                self.witnesses[i] = fact_id;
                self.extend(step + 1);
            }
            for v in newly_bound {
                self.assignment[v] = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stuc_query::eval::all_matches;

    /// Ground truth: full enumeration filtered to matches touching an
    /// inserted fact.
    fn by_filtering(
        instance: &Instance,
        query: &ConjunctiveQuery,
        inserted: &BTreeSet<FactId>,
    ) -> usize {
        all_matches(instance, query)
            .into_iter()
            .filter(|m| m.witnesses.iter().any(|w| inserted.contains(w)))
            .count()
    }

    #[test]
    fn delta_matches_agree_with_filtered_full_enumeration() {
        let mut instance = Instance::new();
        for i in 0..5 {
            instance.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)]);
        }
        // Insert two more chain facts.
        let f5 = instance.add_fact_named("R", &["c6", "c7"]);
        let f6 = instance.add_fact_named("R", &["c5", "c6"]);
        let inserted = BTreeSet::from([f5, f6]);
        for q in ["R(x, y)", "R(x, y), R(y, z)", "R(x, y), R(y, z), R(z, w)"] {
            let query = ConjunctiveQuery::parse(q).unwrap();
            let delta = delta_match_witnesses(&instance, &query, &inserted);
            assert_eq!(
                delta.len(),
                by_filtering(&instance, &query, &inserted),
                "{q}"
            );
            for witnesses in &delta {
                assert!(witnesses.iter().any(|w| inserted.contains(w)), "{q}");
            }
        }
    }

    #[test]
    fn no_inserted_facts_means_no_delta_matches() {
        let mut instance = Instance::new();
        instance.add_fact_named("R", &["a", "b"]);
        let query = ConjunctiveQuery::parse("R(x, y)").unwrap();
        assert!(delta_match_witnesses(&instance, &query, &BTreeSet::new()).is_empty());
    }

    #[test]
    fn partitioning_does_not_double_count() {
        // A self-join where both atoms can map to the same inserted fact:
        // every new match must be produced exactly once.
        let mut instance = Instance::new();
        instance.add_fact_named("R", &["a", "a"]);
        let f = instance.add_fact_named("R", &["a", "b"]);
        let inserted = BTreeSet::from([f]);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let delta = delta_match_witnesses(&instance, &query, &inserted);
        assert_eq!(delta.len(), by_filtering(&instance, &query, &inserted));
    }

    /// Bodies covering constants (known and unknown), repeated variables,
    /// self-joins, disconnected atoms, unknown relations and atoms whose
    /// arity differs from some facts of their relation.
    const BODIES: &[&str] = &[
        "R(x, y)",
        "R(x, y), R(y, z)",
        "R(x, y), R(y, z), R(z, w)",
        "R(x, x)",
        "R(x, y), R(y, x)",
        "R(\"c1\", x), R(x, y)",
        "R(x, \"c2\"), S(x)",
        "R(x, \"c9\")",
        "S(x), R(x, y), S(y)",
        "R(x, y), S(z)",
        "R(x, y, z)",
        "R(x, y), R(y, z, w)",
        "R(x, x), S(x), R(x, y)",
        "Q(x), R(x, y)",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The indexed join produces exactly the matches of full
        /// enumeration that touch an inserted fact, each once.
        #[test]
        fn indexed_delta_join_matches_filtered_enumeration(
            facts in proptest::collection::vec((0usize..4, 0usize..5, 0usize..5, 0usize..5), 1..14),
            picks in proptest::collection::vec(0usize..64, 1..4),
            body in 0usize..BODIES.len(),
        ) {
            // Binary R facts, unary S facts and a few ternary R facts.
            let mut instance = Instance::new();
            for &(kind, a, b, c) in &facts {
                let [a, b, c] = [a, b, c].map(|i| format!("c{i}"));
                match kind {
                    0 | 1 => instance.add_fact_named("R", &[&a, &b]),
                    2 => instance.add_fact_named("S", &[&a]),
                    _ => instance.add_fact_named("R", &[&a, &b, &c]),
                };
            }
            let inserted: BTreeSet<FactId> =
                picks.iter().map(|&i| FactId(i % facts.len())).collect();
            let query = ConjunctiveQuery::parse(BODIES[body]).unwrap();

            let mut got = delta_match_witnesses(&instance, &query, &inserted);
            got.sort();
            let mut want: Vec<Vec<FactId>> = all_matches(&instance, &query)
                .into_iter()
                .map(|m| m.witnesses)
                .filter(|w| w.iter().any(|f| inserted.contains(f)))
                .collect();
            want.sort();
            prop_assert_eq!(got, want);
        }
    }
}
