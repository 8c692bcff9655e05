//! The memoised content identity of every built-in representation.
//!
//! The engine keys its caches by `Representation::identity`, which the TID,
//! c-, pc-, pcc-instance and PrXML types compute once between mutations.
//! Three properties make that safe:
//!
//! * the identity is a pure function of content: separately built
//!   instances have equal identities exactly when their `Debug` renderings
//!   are equal;
//! * every `&mut` method and `_mut` accessor drops the memo, so after any
//!   mutation a warm engine answers what a fresh engine answers — no stale
//!   cache hit is possible;
//! * concurrent first calls agree on one value.
//!
//! The relational `Instance` under the TID and c-instances memoises its own
//! Gaifman graph and identity, which those representations hand out and
//! fold in; the last test checks that memo against fresh computations
//! after random mutation sequences.

use proptest::prelude::*;
use std::hash::Hash;
use std::sync::Arc;
use stuc::circuit::circuit::VarId;
use stuc::circuit::identity::ContentHasher;
use stuc::data::cinstance::{CInstance, PcInstance};
use stuc::data::formula::Formula;
use stuc::data::instance::{ConstId, FactId, Instance, RelId};
use stuc::data::pcc::PccInstance;
use stuc::data::tid::TidInstance;
use stuc::graph::generators::SplitMix64;
use stuc::prxml::document::{NodeId, PrXmlDocument};
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Engine, Representation};

/// A few `R(a, b)` facts with probabilities over a tiny domain, so two
/// draws coincide often enough to exercise both sides of "equal iff".
fn spec(seed: u64) -> Vec<(String, String, f64)> {
    let mut rng = SplitMix64::new(seed);
    let n = 1 + rng.next_below(3);
    (0..n)
        .map(|_| {
            let a = format!("c{}", rng.next_below(2));
            let b = format!("c{}", rng.next_below(2));
            (a, b, [0.25, 0.5][rng.next_below(2)])
        })
        .collect()
}

fn tid(seed: u64) -> TidInstance {
    let mut tid = TidInstance::new();
    for (a, b, p) in spec(seed) {
        tid.add_fact_named("R", &[&a, &b], p);
    }
    tid
}

fn cinstance(seed: u64) -> CInstance {
    let mut ci = CInstance::new();
    for (a, b, p) in spec(seed) {
        let condition = if p < 0.3 { "e0" } else { "e1 | !e0" };
        ci.add_fact_with_condition("R", &[&a, &b], condition)
            .unwrap();
    }
    ci
}

fn pc(seed: u64) -> PcInstance {
    tid(seed).to_pc_instance()
}

fn pcc(seed: u64) -> PccInstance {
    PccInstance::from_pc_instance(&pc(seed))
}

fn prxml(seed: u64) -> PrXmlDocument {
    let mut doc = PrXmlDocument::new();
    let root = doc.add_node("r");
    doc.set_root(root);
    for (a, b, p) in spec(seed) {
        let upper = doc.add_node(&a);
        let lower = doc.add_node(&b);
        doc.add_ind_child(root, upper, p);
        doc.add_child(upper, lower);
    }
    doc
}

fn chain() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap()
}

fn prxml_query() -> PrxmlQuery {
    PrxmlQuery::AncestorDescendant {
        ancestor: "c0".into(),
        descendant: "c1".into(),
    }
}

/// Equal identities exactly when the renderings are equal, for two
/// separately built values.
fn identity_tracks_rendering<R: Representation>(build: impl Fn(u64) -> R, a: u64, b: u64) {
    let (x, y) = (build(a), build(b));
    let same_render = format!("{x:?}") == format!("{y:?}");
    assert_eq!(
        x.identity() == y.identity(),
        same_render,
        "{} seeds {a}/{b}: identity equality must match rendering equality",
        x.kind()
    );
    assert_eq!(x.identity(), build(a).identity(), "rebuilds share identity");
    assert_eq!(x.fingerprint(), x.identity().0);
}

/// A named mutation through one `&mut` method or `_mut` accessor.
type Mutation<R> = (&'static str, fn(&mut R));

/// For every mutation: a warm engine (lineage compiled and hit once)
/// answers, after the mutation, what a fresh engine answers on an
/// identically mutated rebuild that was never hashed — and the mutated
/// value's identity is that rebuild's, not the one memoised before.
fn mutations_never_hit_stale<R: Representation>(
    build: &dyn Fn() -> R,
    query: &R::Query,
    mutations: &[Mutation<R>],
) {
    for (name, mutate) in mutations {
        let engine = Engine::new();
        let mut live = build();
        let before = live.identity();
        engine.evaluate(&live, query).unwrap();
        assert!(engine.evaluate(&live, query).unwrap().lineage_cached);

        mutate(&mut live);
        let mut rebuilt = build();
        mutate(&mut rebuilt);
        assert_eq!(live.identity(), rebuilt.identity(), "{name}: stale memo");
        assert_ne!(live.identity(), before, "{name}: identity did not move");
        let warm = engine.evaluate(&live, query).unwrap().probability;
        let fresh = Engine::new().evaluate(&rebuilt, query).unwrap().probability;
        assert!(
            (warm - fresh).abs() < 1e-9,
            "{name}: warm engine answered {warm}, fresh engine {fresh}"
        );
    }
}

/// Eight threads race on the first `identity()` call of one never-hashed
/// value; all must read the same pair, the one a rebuild computes.
fn concurrent_first_calls_agree<R: Representation + Sync>(build: impl Fn() -> R) {
    let shared = build();
    let seen: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| shared.identity())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let expected = build().identity();
    assert!(seen.iter().all(|&pair| pair == expected), "{seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identities_are_equal_exactly_when_renderings_are(a in 0u64..12, b in 0u64..12) {
        identity_tracks_rendering(tid, a, b);
        identity_tracks_rendering(cinstance, a, b);
        identity_tracks_rendering(pc, a, b);
        identity_tracks_rendering(pcc, a, b);
        identity_tracks_rendering(prxml, a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_mutation_drops_the_memo_and_no_stale_hit_follows(seed in 0u64..1000) {
        mutations_never_hit_stale::<TidInstance>(&|| tid(seed), &chain(), &[
            ("add_fact_named", |t| { t.add_fact_named("R", &["c1", "c0"], 0.75); }),
            ("try_add_fact_named", |t| { t.try_add_fact_named("R", &["c0", "c2"], 0.6).unwrap(); }),
            ("add_certain_fact", |t| { t.add_certain_fact("R", &["c1", "c1"]); }),
            ("set_probability", |t| t.set_probability(FactId(0), 0.9)),
            ("try_set_probability", |t| t.try_set_probability(FactId(0), 0.1).unwrap()),
            ("remove_fact", |t| { t.remove_fact(FactId(0)); }),
        ]);
        mutations_never_hit_stale::<CInstance>(&|| cinstance(seed), &chain(), &[
            ("events_mut", |c| { c.events_mut().intern("fresh"); }),
            ("add_annotated_fact", |c| { c.add_annotated_fact("R", &["c1", "c0"], Formula::True); }),
            ("add_fact_with_condition", |c| { c.add_fact_with_condition("R", &["c0", "c0"], "e1").unwrap(); }),
            ("add_certain_fact", |c| { c.add_certain_fact("R", &["c1", "c1"]); }),
            ("set_annotation", |c| c.set_annotation(FactId(0), Formula::True)),
            ("remove_fact", |c| { c.remove_fact(FactId(0)); }),
        ]);
        mutations_never_hit_stale::<PcInstance>(&|| pc(seed), &chain(), &[
            ("cinstance_mut", |p| p.cinstance_mut().set_annotation(FactId(0), Formula::True)),
            ("probabilities_mut", |p| p.probabilities_mut().set(VarId(0), 0.95)),
        ]);
        mutations_never_hit_stale::<PccInstance>(&|| pcc(seed), &chain(), &[
            ("instance_mut", |p| { p.instance_mut().constant("fresh"); }),
            ("annotation_circuit_mut", |p| { p.annotation_circuit_mut().add_const(true); }),
            ("probabilities_mut", |p| p.probabilities_mut().set(VarId(0), 0.95)),
            ("add_fact_with_gate", |p| {
                let gate = p.fact_gate(FactId(0));
                p.add_fact_with_gate("R", &["c1", "c1"], gate);
            }),
            ("remove_fact", |p| { p.remove_fact(FactId(0)); }),
        ]);
        mutations_never_hit_stale::<PrXmlDocument>(&|| prxml(seed), &prxml_query(), &[
            ("add_node", |d| { d.add_node("c1"); }),
            ("set_root", |d| d.set_root(NodeId(1))),
            ("probabilities_mut", |d| d.probabilities_mut().set(VarId(0), 0.95)),
            ("declare_event", |d| { d.declare_event("fresh", 0.3); }),
            ("add_child", |d| {
                let node = d.add_node("c1");
                d.add_child(NodeId(1), node);
            }),
            ("add_ind_child", |d| {
                let node = d.add_node("c1");
                d.add_ind_child(NodeId(1), node, 0.7);
            }),
            ("add_mux_children", |d| {
                let (x, y) = (d.add_node("c0"), d.add_node("c1"));
                d.add_mux_children(NodeId(0), &[(x, 0.3), (y, 0.6)]);
            }),
            ("add_cie_child", |d| {
                let event = d.declare_event("e", 0.4);
                let node = d.add_node("c1");
                d.add_cie_child(NodeId(1), node, vec![(event, true)]);
            }),
            ("detach_node", |d| { d.detach_node(NodeId(1)); }),
        ]);
    }
}

#[test]
fn concurrent_first_identity_calls_agree_on_every_representation() {
    for seed in 0..4 {
        concurrent_first_calls_agree(|| tid(seed));
        concurrent_first_calls_agree(|| cinstance(seed));
        concurrent_first_calls_agree(|| pc(seed));
        concurrent_first_calls_agree(|| pcc(seed));
        concurrent_first_calls_agree(|| prxml(seed));
    }
}

/// The memoised fact index of an `Instance` (what the insertion delta join
/// looks candidates up in) is invisible and never stale: building it
/// leaves `==`, `Debug` and the identity unchanged, a clone starts without
/// it, adding a fact appends to it, and removing one drops it.
#[test]
fn the_fact_index_memo_is_invisible_and_dropped_by_fact_changes() {
    for seed in 0..6 {
        let mut live = tid(seed);
        let untouched = tid(seed);
        let (rendering, identity) = (format!("{live:?}"), live.identity());
        let relation = live.instance().find_relation("R").unwrap();
        assert_eq!(
            live.instance().fact_index().facts_of(relation).len(),
            live.fact_count()
        );
        assert!(live.instance().is_fact_indexed());
        assert!(live == untouched && live.instance() == untouched.instance());
        assert_eq!(format!("{live:?}"), rendering);
        assert_eq!(
            format!("{:?}", live.instance()),
            format!("{:?}", untouched.instance())
        );
        assert_eq!(live.identity(), identity);
        assert!(
            !live.clone().instance().is_fact_indexed(),
            "a clone starts empty"
        );

        let added = live.add_fact_named("R", &["c0", "c7"], 0.5);
        assert!(
            live.instance().is_fact_indexed(),
            "add_fact keeps the index"
        );
        let c7 = live.instance().find_constant("c7").unwrap();
        assert_eq!(
            live.instance().fact_index().facts_with(relation, 1, c7),
            &[added]
        );

        live.remove_fact(FactId(0));
        assert!(
            !live.instance().is_fact_indexed(),
            "remove_fact drops the index"
        );
        let shifted = FactId(added.0 - 1);
        assert_eq!(
            live.instance().fact_index().facts_with(relation, 1, c7),
            &[shifted]
        );
        assert_eq!(
            live.instance().fact_index().facts_of(relation).len(),
            live.fact_count()
        );
    }
}

/// Every lookup of `instance`'s fact index equals the same lookup in an
/// index built fresh from its facts.
fn assert_index_is_fresh(instance: &Instance, step: &str) {
    let fresh = instance.clone(); // a clone starts without an index
    assert!(!fresh.is_fact_indexed());
    let (kept, built) = (instance.fact_index(), fresh.fact_index());
    for r in 0..instance.relation_count() + 1 {
        let relation = RelId(r);
        assert_eq!(
            kept.facts_of(relation),
            built.facts_of(relation),
            "{step}: {r}"
        );
        for position in 0..3 {
            for c in 0..instance.constant_count() + 1 {
                assert_eq!(
                    kept.facts_with(relation, position, ConstId(c)),
                    built.facts_with(relation, position, ConstId(c)),
                    "{step}: ({r}, {position}, {c})"
                );
            }
        }
    }
}

/// The fact index `add_fact` maintains equals a fresh build after random
/// sequences of additions (new and known names, repeated constants, a
/// unary relation) and removals, with lookups between the writes.
#[test]
fn the_maintained_fact_index_equals_a_fresh_build() {
    for seed in 0..16 {
        let mut rng = SplitMix64::new(seed);
        let mut instance = Instance::new();
        for step in 0..40 {
            let name = |rng: &mut SplitMix64| format!("c{}", rng.next_below(9));
            match rng.next_below(6) {
                0 if instance.fact_count() > 0 => {
                    instance.remove_fact(FactId(rng.next_below(instance.fact_count())));
                }
                1 => {
                    let a = name(&mut rng);
                    instance.add_fact_named("S", &[&a]);
                }
                2 => {
                    let a = name(&mut rng);
                    instance.add_fact_named("R", &[&a, &a]);
                }
                _ => {
                    let (a, b) = (name(&mut rng), name(&mut rng));
                    instance.add_fact_named("R", &[&a, &b]);
                }
            }
            if rng.next_below(3) == 0 {
                assert_index_is_fresh(&instance, &format!("seed {seed}, step {step}"));
            }
        }
        assert_index_is_fresh(&instance, &format!("seed {seed}, end"));
    }
}

/// The instance's memoised graph and identity equal a fresh Gaifman graph
/// and a fresh hashing pass.
fn assert_memo_is_fresh(instance: &Instance, step: &str) {
    assert_eq!(
        *instance.shared_gaifman_graph(),
        instance.gaifman_graph(),
        "{step}: stale graph"
    );
    let mut hasher = ContentHasher::new("Instance");
    instance.hash(&mut hasher);
    assert_eq!(
        instance.content_identity(),
        hasher.finish_pair(),
        "{step}: stale identity"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random interning, fact changes and clone-then-mutate on a plain
    /// instance whose memo is warm before every step: afterwards the memo
    /// is never stale, and the graph is a new allocation exactly when the
    /// step added a vertex or changed a fact.
    #[test]
    fn the_instance_memo_follows_every_change(seed in 0u64..10_000, steps in 1usize..24) {
        let mut rng = SplitMix64::new(seed);
        let mut live = Instance::new();
        let mut snapshots: Vec<Instance> = Vec::new();
        for step in 0..steps {
            let graph = live.shared_gaifman_graph();
            let identity = live.content_identity();
            let (constants, relations) = (live.constant_count(), live.relation_count());
            let op = rng.next_below(6);
            let (name, graph_moves, identity_moves) = match op {
                0 => {
                    live.constant(&format!("c{}", rng.next_below(constants + 2)));
                    ("constant", live.constant_count() > constants, live.constant_count() > constants)
                }
                1 => {
                    live.relation(&format!("R{}", rng.next_below(relations + 2)));
                    ("relation", false, live.relation_count() > relations)
                }
                2 | 3 if constants > 0 && relations > 0 => {
                    let relation = RelId(rng.next_below(relations));
                    let arity = rng.next_below(4);
                    let args = (0..arity).map(|_| ConstId(rng.next_below(constants))).collect();
                    live.add_fact(relation, args);
                    ("add_fact", true, true)
                }
                4 if live.fact_count() > 0 => {
                    live.remove_fact(FactId(rng.next_below(live.fact_count())));
                    ("remove_fact", true, true)
                }
                5 => {
                    // The original keeps its memo; the clone starts from it.
                    snapshots.push(live.clone());
                    ("clone", false, false)
                }
                _ => ("nothing", false, false),
            };
            let label = format!("step {step} ({name})");
            assert_memo_is_fresh(&live, &label);
            let graph_moved = !Arc::ptr_eq(&graph, &live.shared_gaifman_graph());
            prop_assert!(graph_moved == graph_moves, "{label}: graph moved: {graph_moved}");
            let identity_moved = identity != live.content_identity();
            prop_assert!(identity_moved == identity_moves, "{label}: identity moved: {identity_moved}");
            for snapshot in &snapshots {
                assert_memo_is_fresh(snapshot, &format!("{label}, snapshot"));
            }
        }
    }
}

/// What the engine's decomposition cache sees: a TID reweight hands out
/// the very same structure graph, while an insert, a delete, and interning
/// a constant alone each make a new one. Equal content still means equal
/// identity, and the identity moves with every change.
#[test]
fn structure_graphs_are_shared_until_the_structure_changes() {
    for seed in 0..6 {
        let mut live = tid(seed);
        let graph = live.structure_graph();
        let identity = live.identity();
        live.set_probability(FactId(0), 0.9);
        assert!(Arc::ptr_eq(&graph, &live.structure_graph()), "reweight");
        assert_ne!(live.identity(), identity, "reweight moves the identity");

        let mut cloned = live.clone();
        assert_eq!(cloned.identity(), live.identity(), "clone");
        cloned.add_fact_named("R", &["c0", "c1"], 0.5);
        assert!(!Arc::ptr_eq(&graph, &cloned.structure_graph()), "insert");
        assert!(
            Arc::ptr_eq(&graph, &live.structure_graph()),
            "the original keeps its graph"
        );
        let inserted = cloned.structure_graph();
        cloned.remove_fact(FactId(0));
        assert!(!Arc::ptr_eq(&inserted, &cloned.structure_graph()), "delete");
        assert_eq!(*cloned.structure_graph(), cloned.instance().gaifman_graph());

        let mut instance = live.instance().clone();
        let before = instance.shared_gaifman_graph();
        let known = instance.constant_name(ConstId(0)).to_string();
        instance.constant(&known);
        assert!(
            Arc::ptr_eq(&before, &instance.shared_gaifman_graph()),
            "known constant"
        );
        instance.constant("fresh");
        assert!(
            !Arc::ptr_eq(&before, &instance.shared_gaifman_graph()),
            "new constant"
        );
        assert_eq!(
            instance.shared_gaifman_graph().vertex_count(),
            before.vertex_count() + 1
        );
    }
}
