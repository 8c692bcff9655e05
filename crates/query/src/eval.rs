//! Conjunctive query evaluation on plain instances: the one homomorphism
//! search every caller runs.
//!
//! The query's atoms are resolved against the instance's interned names,
//! then matched one at a time, depth first, threading a dense assignment of
//! the query variables. Each step looks its candidates up in the instance's
//! memoised [`FactIndex`] by `(relation, position, constant)` on the first
//! argument that is already fixed (a constant, or a variable an earlier atom
//! bound), and scans its relation only when none is. This is exponential in
//! the query but polynomial in the data (the usual combined/data complexity
//! split), and a connected query on bounded-degree data costs one lookup per
//! partial match instead of one relation scan.
//!
//! Plain enumeration ([`all_matches`]) matches the atoms in query order and
//! each lookup returns facts in id order, so witness lists come out in
//! ascending lexicographic order.
//!
//! The same search also enumerates the matches an insertion *adds*
//! ([`delta_match_witnesses`]). The lineage of a Boolean CQ is the OR over
//! all matches of the AND of the matched facts' events. Inserting facts
//! leaves every old match intact, so the new lineage is `old OR delta`,
//! where the delta ranges over the matches using **at least one inserted
//! fact** (an insert whose delta is empty leaves a cached lineage exact). Enumerating those without re-enumerating everything is the
//! classic delta-join trick: partition the new matches by the first atom
//! position that uses an inserted fact — atom positions before the pivot
//! are restricted to old facts, the pivot to inserted facts, and positions
//! after it are unrestricted. The parts are disjoint and cover exactly the
//! new matches. Each part is searched outwards from the delta: the pivot
//! atom is matched against the inserted facts only, and every later step
//! takes an atom that shares a bound variable or a constant with what is
//! matched so far, so a connected query on bounded-degree data costs
//! O(|delta|) lookups, not O(|instance|).

use crate::cq::{ConjunctiveQuery, Term};
use std::collections::BTreeMap;
use stuc_data::instance::{ConstId, FactId, FactIndex, Instance, RelId};

/// A homomorphism from the query variables to instance constants, together
/// with the facts used to match each atom (in atom order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Assignment of query variables to constants.
    pub assignment: BTreeMap<String, ConstId>,
    /// For each atom (in query order), the fact that matched it.
    pub witnesses: Vec<FactId>,
}

/// Returns every homomorphism from the query body into the instance, in
/// ascending lexicographic order of the witness lists.
///
/// The witnesses record which fact matched each atom, which is exactly what
/// lineage construction needs.
pub fn all_matches(instance: &Instance, query: &ConjunctiveQuery) -> Vec<Match> {
    all_matches_limited(instance, query, usize::MAX)
}

/// True if the Boolean query holds on the instance (some homomorphism exists).
pub fn query_holds(instance: &Instance, query: &ConjunctiveQuery) -> bool {
    !all_matches_limited(instance, query, 1).is_empty()
}

/// The first `limit` matches of [`all_matches`] (used for existence
/// checks): the search stops as soon as it has them.
pub fn all_matches_limited(
    instance: &Instance,
    query: &ConjunctiveQuery,
    limit: usize,
) -> Vec<Match> {
    let Some(resolved) = resolve(instance, query) else {
        return Vec::new();
    };
    let mut search = Search::new(instance, &resolved, &[], limit);
    search.order = (0..resolved.atoms.len()).collect();
    search.extend(0);
    search
        .results
        .into_iter()
        .map(|witnesses| Match {
            assignment: resolved.assignment(instance, &witnesses),
            witnesses,
        })
        .collect()
}

/// The distinct answer tuples of a non-Boolean query: projections of the
/// matches onto the free variables, deduplicated and sorted.
pub fn all_answers(instance: &Instance, query: &ConjunctiveQuery) -> Vec<Vec<ConstId>> {
    let mut answers: Vec<Vec<ConstId>> = all_matches(instance, query)
        .into_iter()
        .map(|m| {
            query
                .free_variables
                .iter()
                .map(|v| {
                    *m.assignment
                        .get(v)
                        .expect("head variables are bound in the body")
                })
                .collect()
        })
        .collect();
    answers.sort();
    answers.dedup();
    answers
}

/// The witness lists of the first `limit` matches that use at least one
/// `inserted` fact, each exactly once, grouped by pivot (see the module
/// docs); a `limit` of 1 asks whether the insert adds a match at all. Each
/// list has one fact per query atom, in atom order.
pub fn delta_match_witnesses(
    instance: &Instance,
    query: &ConjunctiveQuery,
    inserted: &[FactId],
    limit: usize,
) -> Vec<Vec<FactId>> {
    if inserted.is_empty() {
        return Vec::new();
    }
    let Some(resolved) = resolve(instance, query) else {
        return Vec::new();
    };
    let mut inserted = inserted.to_vec();
    inserted.sort_unstable();
    inserted.dedup();
    let mut search = Search::new(instance, &resolved, &inserted, limit);
    for pivot in 0..resolved.atoms.len() {
        search.pivot = Some(pivot);
        search.order = join_order(&resolved, pivot);
        search.extend(0);
    }
    search.results
}

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

/// A query body resolved against an instance.
struct ResolvedQuery<'q> {
    atoms: Vec<ResolvedAtom>,
    /// The variable names, by dense number.
    variables: Vec<&'q str>,
}

/// The query's atoms resolved against `instance`; `None` when some relation
/// or constant does not occur in the instance, so that no atom can match and
/// the query has no match at all.
fn resolve<'q>(instance: &Instance, query: &'q ConjunctiveQuery) -> Option<ResolvedQuery<'q>> {
    let mut variables: Vec<&str> = Vec::new();
    let mut numbers: BTreeMap<&str, usize> = BTreeMap::new();
    let mut atoms = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let relation = instance.find_relation(&atom.relation)?;
        let mut args = Vec::with_capacity(atom.args.len());
        for term in &atom.args {
            args.push(match term {
                Term::Const(name) => Arg::Const(instance.find_constant(name)?),
                Term::Var(name) => Arg::Var(*numbers.entry(name).or_insert_with(|| {
                    variables.push(name);
                    variables.len() - 1
                })),
            });
        }
        atoms.push(ResolvedAtom { relation, args });
    }
    Some(ResolvedQuery { atoms, variables })
}

impl ResolvedQuery<'_> {
    /// The variable assignment a match's witness list induces.
    fn assignment(&self, instance: &Instance, witnesses: &[FactId]) -> BTreeMap<String, ConstId> {
        let mut values = vec![ConstId(0); self.variables.len()];
        for (atom, &f) in self.atoms.iter().zip(witnesses) {
            for (arg, &constant) in atom.args.iter().zip(&instance.fact(f).args) {
                if let Arg::Var(v) = *arg {
                    values[v] = constant;
                }
            }
        }
        self.variables
            .iter()
            .map(|v| v.to_string())
            .zip(values)
            .collect()
    }
}

/// The order the search matches atoms in when `pivot` holds the inserted
/// fact: the pivot first, then repeatedly the first remaining atom that has
/// a constant or a variable bound by the atoms before it (the first
/// remaining atom when none has).
fn join_order(query: &ResolvedQuery, pivot: usize) -> Vec<usize> {
    let atoms = &query.atoms;
    let mut bound = vec![false; query.variables.len()];
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

/// The state of one depth-first search, plain or pivoted.
struct Search<'a> {
    instance: &'a Instance,
    index: &'a FactIndex,
    atoms: &'a [ResolvedAtom],
    /// The inserted facts, sorted (empty for a plain search).
    inserted: &'a [FactId],
    /// The first atom position that uses an inserted fact: positions before
    /// it match only old facts, the pivot only inserted ones. `None` for a
    /// plain search.
    pivot: Option<usize>,
    order: Vec<usize>,
    assignment: Vec<Option<ConstId>>,
    /// The fact matched by each atom, by atom position.
    witnesses: Vec<FactId>,
    results: Vec<Vec<FactId>>,
    /// The search stops once it has this many results.
    limit: usize,
}

impl<'a> Search<'a> {
    fn new(
        instance: &'a Instance,
        query: &'a ResolvedQuery,
        inserted: &'a [FactId],
        limit: usize,
    ) -> Search<'a> {
        Search {
            instance,
            index: instance.fact_index(),
            atoms: &query.atoms,
            inserted,
            pivot: None,
            order: Vec::new(),
            assignment: vec![None; query.variables.len()],
            witnesses: vec![FactId(0); query.atoms.len()],
            results: Vec::new(),
            limit,
        }
    }

    fn extend(&mut self, step: usize) {
        if self.results.len() >= self.limit {
            return;
        }
        let Some(&i) = self.order.get(step) else {
            self.results.push(self.witnesses.clone());
            return;
        };
        // Copy the shared references out, so the candidates and the matched
        // fact do not borrow `self` across the recursive calls.
        let (instance, index, atom) = (self.instance, self.index, &self.atoms[i]);
        let candidates: &[FactId] = if Some(i) == self.pivot {
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
        let old_only = self.pivot.is_some_and(|pivot| i < pivot);
        for &fact_id in candidates {
            if old_only && self.inserted.binary_search(&fact_id).is_ok() {
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
            if self.results.len() >= self.limit {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::ConjunctiveQuery;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn rst_instance() -> Instance {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a"]);
        inst.add_fact_named("R", &["b"]);
        inst.add_fact_named("S", &["a", "c"]);
        inst.add_fact_named("S", &["b", "d"]);
        inst.add_fact_named("T", &["c"]);
        inst
    }

    #[test]
    fn boolean_query_holds() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();
        assert!(query_holds(&inst, &q));
    }

    #[test]
    fn boolean_query_fails_when_no_join() {
        let inst = rst_instance();
        // T(d) does not exist, so the chain through b fails; only a→c works.
        let q = ConjunctiveQuery::parse("R(x), S(x, y), T(y), T(x)").unwrap();
        assert!(!query_holds(&inst, &q));
    }

    #[test]
    fn all_matches_enumerates_homomorphisms() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        let matches = all_matches(&inst, &q);
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert_eq!(m.witnesses.len(), 2);
        }
    }

    #[test]
    fn constants_constrain_matches() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("S(\"a\", y)").unwrap();
        let matches = all_matches(&inst, &q);
        assert_eq!(matches.len(), 1);
        let q = ConjunctiveQuery::parse("S(\"z\", y)").unwrap();
        assert!(all_matches(&inst, &q).is_empty());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut inst = Instance::new();
        inst.add_fact_named("E", &["a", "a"]);
        inst.add_fact_named("E", &["a", "b"]);
        let q = ConjunctiveQuery::parse("E(x, x)").unwrap();
        let matches = all_matches(&inst, &q);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn answers_with_free_variables() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("ans(x) <- R(x), S(x, y)").unwrap();
        let answers = all_answers(&inst, &q);
        assert_eq!(answers.len(), 2);
        let names: Vec<&str> = answers.iter().map(|t| inst.constant_name(t[0])).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn answers_are_deduplicated() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "b"]);
        inst.add_fact_named("R", &["a", "c"]);
        let q = ConjunctiveQuery::parse("ans(x) <- R(x, y)").unwrap();
        assert_eq!(all_answers(&inst, &q).len(), 1);
    }

    #[test]
    fn unknown_relation_means_no_match() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("Unknown(x)").unwrap();
        assert!(!query_holds(&inst, &q));
    }

    #[test]
    fn arity_mismatch_is_skipped() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "b"]);
        let q = ConjunctiveQuery::parse("R(x)").unwrap();
        assert!(!query_holds(&inst, &q));
    }

    #[test]
    fn limited_search_stops_early() {
        let inst = rst_instance();
        let q = ConjunctiveQuery::parse("R(x), S(x, y)").unwrap();
        assert_eq!(all_matches_limited(&inst, &q, 1).len(), 1);
    }

    #[test]
    fn self_join_query_on_path() {
        let mut inst = Instance::new();
        inst.add_fact_named("R", &["a", "b"]);
        inst.add_fact_named("R", &["b", "c"]);
        let q = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let matches = all_matches(&inst, &q);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].witnesses, vec![FactId(0), FactId(1)]);
    }

    #[test]
    fn zero_atom_body_has_one_empty_match_and_no_delta() {
        let mut inst = Instance::new();
        let f = inst.add_fact_named("R", &["a"]);
        let q = ConjunctiveQuery::boolean(Vec::new());
        let empty = Match {
            assignment: BTreeMap::new(),
            witnesses: Vec::new(),
        };
        assert_eq!(all_matches(&inst, &q), vec![empty]);
        assert!(query_holds(&inst, &q));
        assert!(delta_match_witnesses(&inst, &q, &[f], usize::MAX).is_empty());
    }

    #[test]
    fn no_inserted_facts_means_no_delta_matches() {
        let mut instance = Instance::new();
        instance.add_fact_named("R", &["a", "b"]);
        let query = ConjunctiveQuery::parse("R(x, y)").unwrap();
        assert!(delta_match_witnesses(&instance, &query, &[], usize::MAX).is_empty());
    }

    #[test]
    fn delta_witnesses_come_in_pivot_order() {
        // Pivot 0 finds (f4, f5) first, pivot 1 then finds (f3, f4).
        let mut instance = Instance::new();
        for i in 0..6 {
            instance.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)]);
        }
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        assert_eq!(
            delta_match_witnesses(&instance, &query, &[FactId(5), FactId(4)], usize::MAX),
            vec![vec![FactId(4), FactId(5)], vec![FactId(3), FactId(4)]]
        );
    }

    #[test]
    fn delta_join_partitions_without_double_counting() {
        // A self-join where both atoms can map to the same inserted fact:
        // every new match must be produced exactly once.
        let mut instance = Instance::new();
        instance.add_fact_named("R", &["a", "a"]);
        let f = instance.add_fact_named("R", &["a", "b"]);
        let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let mut delta = delta_match_witnesses(&instance, &query, &[f], usize::MAX);
        delta.sort();
        let want: Vec<Vec<FactId>> = oracle(&instance, &query)
            .into_iter()
            .map(|m| m.witnesses)
            .filter(|w| w.contains(&f))
            .collect();
        assert_eq!(delta, want);
    }

    /// The brute-force oracle: the product over atoms of each relation's
    /// facts (found by a scan, not the index), kept when it is consistent,
    /// in lexicographic order of the witness lists.
    fn oracle(instance: &Instance, query: &ConjunctiveQuery) -> Vec<Match> {
        let mut tuples: Vec<Vec<FactId>> = vec![Vec::new()];
        for atom in &query.atoms {
            let facts: Vec<FactId> = instance
                .facts()
                .filter(|(_, f)| instance.relation_name(f.relation) == atom.relation)
                .map(|(id, _)| id)
                .collect();
            tuples = tuples
                .into_iter()
                .flat_map(|tuple| {
                    facts.iter().map(move |&f| {
                        let mut extended = tuple.clone();
                        extended.push(f);
                        extended
                    })
                })
                .collect();
        }
        tuples
            .into_iter()
            .filter_map(|witnesses| {
                let mut assignment = BTreeMap::new();
                for (atom, &f) in query.atoms.iter().zip(&witnesses) {
                    let args = &instance.fact(f).args;
                    if args.len() != atom.args.len() {
                        return None;
                    }
                    for (term, &c) in atom.args.iter().zip(args) {
                        match term {
                            Term::Const(name) if instance.constant_name(c) != name => return None,
                            Term::Const(_) => {}
                            Term::Var(v) => {
                                if *assignment.entry(v.clone()).or_insert(c) != c {
                                    return None;
                                }
                            }
                        }
                    }
                }
                Some(Match {
                    assignment,
                    witnesses,
                })
            })
            .collect()
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

    /// Body `i` of [`BODIES`], or the zero-atom body one past its end.
    fn body(i: usize) -> ConjunctiveQuery {
        match BODIES.get(i) {
            Some(text) => ConjunctiveQuery::parse(text).unwrap(),
            None => ConjunctiveQuery::boolean(Vec::new()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Plain enumeration is the oracle, in order; a limited one is its
        /// prefix; the delta join yields exactly the oracle's matches that
        /// touch an inserted fact, each once.
        #[test]
        fn indexed_join_matches_brute_force_oracle(
            facts in proptest::collection::vec((0usize..4, 0usize..5, 0usize..5, 0usize..5), 1..14),
            picks in proptest::collection::vec(0usize..64, 1..4),
            body_index in 0usize..BODIES.len() + 1,
            limit in 0usize..6,
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
            let query = body(body_index);
            let want = oracle(&instance, &query);

            prop_assert_eq!(all_matches(&instance, &query), want.clone());
            let prefix = &want[..limit.min(want.len())];
            prop_assert_eq!(all_matches_limited(&instance, &query, limit), prefix.to_vec());
            prop_assert_eq!(query_holds(&instance, &query), !want.is_empty());

            let inserted: Vec<FactId> = inserted.into_iter().collect();
            let mut got = delta_match_witnesses(&instance, &query, &inserted, usize::MAX);
            got.sort();
            let touching: Vec<Vec<FactId>> = want
                .into_iter()
                .map(|m| m.witnesses)
                .filter(|w| w.iter().any(|f| inserted.contains(f)))
                .collect();
            let first = delta_match_witnesses(&instance, &query, &inserted, 1);
            prop_assert_eq!(first.len(), usize::from(!touching.is_empty()));
            prop_assert!(first.iter().all(|w| touching.contains(w)));
            prop_assert_eq!(got, touching);
        }
    }
}
