//! The compile path's circuit-graph decomposition against its oracle. On
//! prepared lineage circuits, the elimination core
//! (`wmc::circuit_decomposition`, which builds the neighbour lists from
//! the gates and never the graph) must equal
//! `decompose_with_order(&circuit_graph(p), &elimination_order(.., h))`
//! bag for bag and parent for parent.

use std::sync::Arc;
use stuc::automata::courcelle::cq_lineage_circuit;
use stuc::circuit::circuit::{Circuit, Gate, GateId, VarId};
use stuc::circuit::compiled::CompiledCircuit;
use stuc::circuit::wmc::{circuit_decomposition, circuit_graph};
use stuc::core::engine::Engine;
use stuc::core::workloads;
use stuc::data::tid::TidInstance;
use stuc::graph::elimination::{decompose_with_order, elimination_order, EliminationHeuristic};
use stuc::query::cq::ConjunctiveQuery;

/// `circuit` compiled, and the prepared form the compiled circuit
/// decomposes. A circuit with no output does not compile; the only one
/// tested is the empty circuit, which has nothing to prepare.
fn compile(circuit: &Circuit) -> (Option<CompiledCircuit>, Circuit) {
    if circuit.output().is_none() {
        assert!(circuit.is_empty(), "only the empty circuit lacks an output");
        return (None, Circuit::new());
    }
    let compiled =
        CompiledCircuit::compile(Arc::new(circuit.clone()), EliminationHeuristic::MinDegree)
            .expect("compiles");
    let prepared = compiled.prepared().clone();
    (Some(compiled), prepared)
}

fn assert_matches_the_oracle(name: &str, circuit: &Circuit) {
    let (compiled, prepared) = compile(circuit);
    let graph = circuit_graph(&prepared);
    for heuristic in EliminationHeuristic::ALL {
        let decomposition = circuit_decomposition(&prepared, heuristic);
        let oracle = decompose_with_order(&graph, &elimination_order(&graph, heuristic));
        assert_eq!(decomposition, oracle, "{name}, {heuristic:?}");
        assert!(oracle.validate(&graph).is_ok(), "{name}, {heuristic:?}");
    }
    // The compiled circuit keeps exactly this decomposition.
    if let Some(compiled) = compiled {
        let decomposition = circuit_decomposition(&prepared, EliminationHeuristic::MinDegree);
        assert_eq!(compiled.width(), decomposition.width(), "{name}");
        assert_eq!(compiled.bag_count(), decomposition.bag_count(), "{name}");
    }
}

/// A hub `c0` with `m` two-fact spokes.
fn star_tid(m: usize) -> TidInstance {
    let mut tid = TidInstance::new();
    for i in 1..=m {
        let (a, b) = (format!("c{i}"), format!("c{}", m + i));
        tid.add_fact_named("R", &["c0", &a], 0.5);
        tid.add_fact_named("R", &[&a, &b], 0.4);
    }
    tid
}

fn lineage(tid: &TidInstance, goal: &str) -> Circuit {
    let query = ConjunctiveQuery::parse(goal).expect("goal parses");
    Engine::new().lineage(tid, &query).expect("lineage builds")
}

/// `from`'s gates appended to `into`, with every variable shifted by
/// `var_offset`, returning where `from`'s output went.
fn append(into: &mut Circuit, from: &Circuit, var_offset: usize) -> Option<GateId> {
    let offset = into.len();
    let shift = |xs: &[GateId]| xs.iter().map(|x| GateId(x.0 + offset)).collect();
    for (_, gate) in from.iter() {
        match gate {
            Gate::Input(v) => into.add_input(VarId(v.0 + var_offset)),
            Gate::Const(b) => into.add_const(*b),
            Gate::And(xs) => into.add_and(shift(xs)),
            Gate::Or(xs) => into.add_or(shift(xs)),
            Gate::Not(x) => into.add_not(GateId(x.0 + offset)),
        };
    }
    from.output().map(|o| GateId(o.0 + offset))
}

#[test]
fn lineage_circuit_decompositions_equal_the_oracle() {
    let instances = [
        ("path", workloads::path_tid(120, 0.5, 13), "c3"),
        ("star", star_tid(6), "c0"),
        (
            "partial 2-tree",
            workloads::partial_k_tree_tid(60, 2, 0.6, 5),
            "c3",
        ),
    ];
    for (name, tid, anchor) in &instances {
        for goal in [
            "R(x, y), R(y, z)".to_string(),
            format!("R(\"{anchor}\", x), R(x, y), R(y, z)"),
        ] {
            assert_matches_the_oracle(&format!("{name} / {goal}"), &lineage(tid, &goal));
        }
    }
}

#[test]
fn disconnected_empty_and_one_gate_circuits_equal_the_oracle() {
    // Two pair-goal lineages over disjoint variables side by side under
    // one OR, then beside a copy the output never reads: that circuit
    // graph has two components.
    let (left, right) = (
        lineage(&workloads::path_tid(30, 0.5, 1), "R(x, y), R(y, z)"),
        lineage(&star_tid(4), "R(x, y), R(y, z)"),
    );
    let mut union = Circuit::new();
    let a = append(&mut union, &left, 0).expect("output");
    let b = append(&mut union, &right, 1_000).expect("output");
    let or = union.add_or(vec![a, b]);
    union.set_output(or);
    assert_matches_the_oracle("union", &union);
    let mut disconnected = union.clone();
    append(&mut disconnected, &right, 2_000);
    assert_eq!(
        circuit_graph(&compile(&disconnected).1)
            .connected_components()
            .len(),
        2
    );
    assert_matches_the_oracle("union beside a dangling copy", &disconnected);

    // The raw automaton run, before simplification: constant gates and
    // pieces the output never reads.
    let tid = workloads::path_tid(20, 0.5, 2);
    let (decomposition, _) = Engine::new().decomposition_for(&tid);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").expect("goal parses");
    let raw = cq_lineage_circuit(tid.instance(), &decomposition, &query, |f| {
        tid.fact_event(f)
    })
    .expect("the run accepts the goal");
    assert_matches_the_oracle("raw run", &raw);

    assert_matches_the_oracle("empty", &Circuit::new());
    let mut one = Circuit::new();
    let x = one.add_input(VarId(0));
    one.set_output(x);
    assert_matches_the_oracle("one gate", &one);
}
