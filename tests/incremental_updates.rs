//! The incremental-update contract: `Engine::apply_update` is semantically
//! invisible.
//!
//! For random update sequences on every representation (TID, pc-, pcc-
//! instances, PrXML), applying a delta through the engine and then
//! evaluating must agree — within 1e-9 — with a cold engine evaluating the
//! mutated instance from scratch. This must hold on the maintenance paths
//! (weights-only rekey, deletion rewiring, rebuild on new matches) *and*
//! on every forced-fallback path (tiny width budgets, opaque structural
//! changes, rebuild-class deltas). Inserts with new matches rebuild the
//! cached circuits, which then equal a cold build gate for gate.

use proptest::prelude::*;
use std::collections::BTreeSet;
use stuc::circuit::circuit::{Circuit, VarId};
use stuc::core::workloads;
use stuc::data::instance::FactId;
use stuc::data::tid::TidInstance;
use stuc::graph::generators::SplitMix64;
use stuc::incr::{Delta, Updatable};
use stuc::prxml::document::{NodeId, PrXmlDocument};
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Engine, Representation};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

/// The lineage a cache miss of `engine` would build now: the cold build
/// (run, simplify) over the structure decomposition the engine holds.
fn cold_build(engine: &Engine, tid: &TidInstance, query: &ConjunctiveQuery) -> Circuit {
    let (decomposition, cached) = engine.decomposition_for(tid);
    assert!(cached, "the write left the decomposition cached");
    tid.lineage(query, &decomposition)
        .unwrap()
        .circuit
        .simplify()
        .unwrap()
}

/// Evaluates on a fresh engine: no cache, no patching — the ground truth.
fn cold_probability<R: Representation + ?Sized>(representation: &R, query: &R::Query) -> f64 {
    Engine::new()
        .evaluate(representation, query)
        .unwrap()
        .probability
}

/// A random delta over the current TID state: inserts into a small constant
/// domain (so new facts actually join existing ones), deletes and
/// re-weights existing facts.
fn random_tid_delta(rng: &mut SplitMix64, tid: &TidInstance) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..1 + rng.next_below(3) {
        match rng.next_below(3) {
            0 => {
                let a = format!("c{}", rng.next_below(8));
                let b = format!("c{}", rng.next_below(8));
                let p = 0.05 + 0.9 * rng.next_f64();
                delta = delta.insert("R", &[&a, &b], p);
            }
            1 if tid.fact_count() > 1 => {
                delta = delta.delete(FactId(rng.next_below(tid.fact_count())));
            }
            _ if tid.fact_count() > 0 => {
                let p = 0.05 + 0.9 * rng.next_f64();
                delta = delta.set_probability(FactId(rng.next_below(tid.fact_count())), p);
            }
            _ => {}
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// TID: random update sequences through a warm engine agree with cold
    /// evaluation after every step, on both the circuit path (self-join)
    /// and the safe-plan path (hierarchical query).
    #[test]
    fn tid_updates_agree_with_cold_evaluation(n in 3usize..9, p in 0.2f64..0.8, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, p, seed);
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let single = ConjunctiveQuery::parse("R(x, y)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &chain).unwrap(); // warm the caches

        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9));
        for _ in 0..4 {
            let delta = random_tid_delta(&mut rng, &live);
            let report = engine.apply_update(&mut live, &delta).unwrap();
            prop_assert_eq!(report.inserted, delta.insert_count());
            prop_assert_eq!(report.reweighted, delta.reweight_count());
            // Duplicate delete targets collapse into one deletion.
            prop_assert!(report.deleted <= delta.delete_count());
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(
                close(warm, cold_probability(&live, &chain)),
                "chain query diverged after {:?}: warm {} vs cold {}",
                delta, warm, cold_probability(&live, &chain)
            );
            let warm = engine.evaluate(&live, &single).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &single)));
        }
    }

    /// The forced-fallback regime: a width budget of 1 makes every repair
    /// refuse, so updates constantly fall back — and must stay correct.
    #[test]
    fn tid_updates_agree_under_forced_fallback(n in 3usize..7, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, 0.5, seed);
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::builder().width_budget(1).build();
        engine.evaluate(&live, &chain).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0xABCD);
        let mut fell_back_once = false;
        for _ in 0..3 {
            let delta = random_tid_delta(&mut rng, &live);
            let report = engine.apply_update(&mut live, &delta).unwrap();
            fell_back_once |= report.fell_back;
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &chain)));
        }
        let _ = fell_back_once;
    }

    /// pc-instances: insertions extend, deletions rebuild, re-weights rekey
    /// — all of it must agree with cold evaluation.
    #[test]
    fn pc_updates_agree_with_cold_evaluation(n in 3usize..7, seed in 0u64..500) {
        let mut live = workloads::path_tid(n, 0.5, seed).to_pc_instance();
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &chain).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0x1234);
        for _ in 0..3 {
            let mut delta = Delta::new();
            match rng.next_below(3) {
                0 => {
                    let a = format!("c{}", rng.next_below(n + 2));
                    let b = format!("c{}", rng.next_below(n + 2));
                    delta = delta.insert("R", &[&a, &b], 0.05 + 0.9 * rng.next_f64());
                }
                1 if live.instance().fact_count() > 1 => {
                    delta = delta.delete(FactId(rng.next_below(live.instance().fact_count())));
                }
                _ => {
                    let f = FactId(rng.next_below(live.instance().fact_count()));
                    delta = delta.set_probability(f, 0.05 + 0.9 * rng.next_f64());
                }
            }
            engine.apply_update(&mut live, &delta).unwrap();
            let warm = engine.evaluate(&live, &chain).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &chain)), "{:?}", delta);
        }
    }

    /// pcc-instances: the joint graph renumbers its gate vertices on
    /// insertion — the remap + repair + extension pipeline must agree.
    #[test]
    fn pcc_updates_agree_with_cold_evaluation(claims in 2usize..5, contributors in 1usize..3, seed in 0u64..500) {
        let mut live = workloads::contributor_pcc(claims, contributors, 0.8, 0.6, seed);
        let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();
        let join = ConjunctiveQuery::parse("Claim(x, y), Claim(x, z)").unwrap();
        let engine = Engine::new();
        engine.evaluate(&live, &query).unwrap();
        engine.evaluate(&live, &join).unwrap();

        let mut rng = SplitMix64::new(seed ^ 0x77);
        for step in 0..3 {
            let delta = match rng.next_below(2) {
                0 => Delta::new().insert(
                    "Claim",
                    &[&format!("entity{}", rng.next_below(claims)), &format!("newv{step}")],
                    0.05 + 0.9 * rng.next_f64(),
                ),
                _ if live.fact_count() > 1 => {
                    Delta::new().delete(FactId(rng.next_below(live.fact_count())))
                }
                _ => Delta::new().insert("Claim", &["entity0", "solo"], 0.4),
            };
            engine.apply_update(&mut live, &delta).unwrap();
            let warm = engine.evaluate(&live, &query).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &query)), "{:?}", delta);
            let warm = engine.evaluate(&live, &join).unwrap().probability;
            prop_assert!(close(warm, cold_probability(&live, &join)), "{:?}", delta);
        }
    }

    /// PrXML: structural edits are opaque (full rebuild path), re-weights
    /// rekey — both must agree with cold evaluation.
    #[test]
    fn prxml_updates_agree_with_cold_evaluation(seed in 0u64..500) {
        let mut live = PrXmlDocument::figure1_example();
        let musician = PrxmlQuery::LabelExists("musician".into());
        let surname = PrxmlQuery::LabelExists("surname".into());
        let engine = Engine::new();
        engine.evaluate(&live, &musician).unwrap();

        let mut rng = SplitMix64::new(seed);
        let occupation = (0..live.len())
            .find(|&i| live.label(NodeId(i)) == "occupation")
            .unwrap();
        for step in 0..3 {
            let delta = match rng.next_below(3) {
                0 => Delta::new().set_probability(FactId(occupation), 0.05 + 0.9 * rng.next_f64()),
                1 => {
                    let root = live.root().unwrap().0;
                    Delta::new().insert(&format!("extra{step}"), &[&root.to_string()], 0.5)
                }
                _ => {
                    // Detach some non-root leaf if one survives, else reweight.
                    match (0..live.len()).find(|&i| {
                        live.label(NodeId(i)).starts_with("extra")
                    }) {
                        Some(node) => Delta::new().delete(FactId(node)),
                        None => Delta::new().set_probability(FactId(occupation), 0.5),
                    }
                }
            };
            engine.apply_update(&mut live, &delta).unwrap();
            for q in [&musician, &surname] {
                let warm = engine.evaluate(&live, q).unwrap().probability;
                prop_assert!(close(warm, cold_probability(&live, q)), "{:?}", delta);
            }
        }
    }
}

#[test]
fn weights_only_update_reuses_everything() {
    let mut tid = workloads::path_tid(10, 0.5, 3);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    assert_eq!(engine.cached_lineages(), 1);

    let delta = Delta::new()
        .set_probability(FactId(0), 0.9)
        .set_probability(FactId(5), 0.1);
    let report = engine.apply_update(&mut tid, &delta).unwrap();
    assert_eq!(report.reweighted, 2);
    assert_eq!(report.gates_rebuilt, 0, "weights-only: nothing rebuilt");
    assert_eq!(report.bags_touched, 0);
    assert_eq!(report.lineages_patched, 1);
    assert_eq!(report.lineages_dropped, 0);
    assert!(!report.fell_back);
    assert_eq!(report.width_drift(), Some(0));

    // The patched entry is a real cache hit for the *mutated* instance.
    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn insertion_with_new_matches_rebuilds_inside_the_write() {
    let mut tid = workloads::path_tid(12, 0.5, 9);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();

    // Extend the path: the new fact joins the chain at its end.
    let delta = Delta::new().insert("R", &["c12", "c13"], 0.4);
    let report = engine.apply_update(&mut tid, &delta).unwrap();
    assert_eq!(report.inserted, 1);
    assert!(!report.fell_back, "a path extension fits every budget");
    assert!(report.gates_rebuilt > 0, "the lineage was rebuilt");
    assert!(
        report.bags_touched > 0,
        "decomposition repaired, not rebuilt"
    );
    assert_eq!(report.lineages_rebuilt, 1);
    assert_eq!(report.lineages_patched + report.lineages_dropped, 0);
    assert_eq!(
        engine.lineage(&tid, &query).unwrap(),
        cold_build(&engine, &tid, &query),
        "the rebuilt lineage is a cold build, gate for gate"
    );

    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(
        after.lineage_cached,
        "the rebuilt lineage must serve the hit"
    );
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn deletion_rewires_the_compiled_lineage() {
    let mut tid = workloads::path_tid(10, 0.5, 5);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();

    let report = engine
        .apply_update(&mut tid, &Delta::new().delete(FactId(4)))
        .unwrap();
    assert_eq!(report.deleted, 1);
    assert!(report.gates_rebuilt > 0, "input gates were rewired");
    assert_eq!(report.lineages_patched, 1);
    assert!(!report.fell_back);

    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn insertion_with_no_new_matches_keeps_the_circuit() {
    let mut tid = workloads::path_tid(6, 0.5, 2);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    // An isolated fact in a fresh relation adds no chain match.
    let report = engine
        .apply_update(&mut tid, &Delta::new().insert("S", &["z0", "z1"], 0.5))
        .unwrap();
    assert_eq!(report.gates_rebuilt, 0, "no new matches, no new gates");
    assert_eq!(report.lineages_patched, 1);
    let after = engine.evaluate(&tid, &query).unwrap();
    assert!(after.lineage_cached);
    assert!(close(after.probability, cold_probability(&tid, &query)));
}

#[test]
fn sustained_churn_stays_correct_and_equal_to_cold_builds() {
    // Alternately delete and insert on the same instance for many rounds:
    // a deletion rewires the cached circuit, an insertion rebuilds it, so
    // the circuit never grows past a cold build — after every insert, and
    // so after the 30 rounds, it is one gate for gate — and every answer
    // stays correct.
    let mut tid = workloads::path_tid(8, 0.5, 21);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();

    for round in 0..30 {
        let inserts = round % 2 == 1;
        let delta = if inserts {
            Delta::new().insert("R", &["c3", &format!("b{round}")], 0.5)
        } else {
            Delta::new().delete(FactId(tid.fact_count() - 1))
        };
        let report = engine.apply_update(&mut tid, &delta).unwrap();
        assert!(!report.fell_back, "round {round}: {:?}", report.notes);
        assert_eq!(report.lineages_dropped, 0, "round {round}");
        let warm = engine.evaluate(&tid, &query).unwrap();
        assert!(warm.lineage_cached, "round {round}");
        assert!(
            close(warm.probability, cold_probability(&tid, &query)),
            "round {round} diverged"
        );
        if inserts {
            assert_eq!(
                engine.lineage(&tid, &query).unwrap(),
                cold_build(&engine, &tid, &query),
                "round {round}: the cached circuit is a cold build"
            );
        }
    }
}

#[test]
fn rejected_deltas_leave_engine_and_instance_intact() {
    let mut tid = workloads::path_tid(5, 0.5, 1);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    let before = engine.evaluate(&tid, &query).unwrap().probability;
    let snapshot = tid.clone();

    let bad = Delta::new()
        .set_probability(FactId(0), 0.9)
        .insert("R", &["a", "b"], f64::NAN);
    assert!(engine.apply_update(&mut tid, &bad).is_err());
    assert_eq!(tid, snapshot, "rejected delta must not mutate");
    let report = engine.evaluate(&tid, &query).unwrap();
    assert!(report.lineage_cached, "caches survive a rejected delta");
    assert!(close(report.probability, before));
}

#[test]
fn evict_instance_is_targeted() {
    let tid_a = workloads::path_tid(6, 0.5, 1);
    let tid_b = workloads::path_tid(7, 0.4, 2);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid_a, &query).unwrap();
    engine.evaluate(&tid_b, &query).unwrap();
    assert_eq!(engine.cached_decompositions(), 2);
    assert_eq!(engine.cached_lineages(), 2);

    let evicted = engine.evict_instance(Representation::fingerprint(&tid_a));
    assert_eq!(evicted, 2, "one decomposition + one lineage");
    assert_eq!(engine.cached_decompositions(), 1);
    assert_eq!(engine.cached_lineages(), 1);
    // The other instance's entries still serve hits.
    assert!(engine.evaluate(&tid_b, &query).unwrap().lineage_cached);
    // Evicting an unknown fingerprint is a no-op.
    assert_eq!(engine.evict_instance(0xDEAD_BEEF), 0);
}

#[test]
fn update_log_replay_matches_live_instance_probabilities() {
    use stuc::incr::UpdateLog;
    let mut live = workloads::path_tid(6, 0.5, 11);
    let replica_base = live.clone();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&live, &query).unwrap();

    let mut log = UpdateLog::new();
    for delta in [
        Delta::new().insert("R", &["c6", "c7"], 0.3),
        Delta::new()
            .delete(FactId(2))
            .set_probability(FactId(0), 0.8),
    ] {
        // Record through the trait (the engine path applies the same delta
        // semantics; the log captures the raw application).
        let mut shadow = live.clone();
        let application = shadow.apply_delta(&delta).unwrap();
        log.record(delta.clone(), &application);
        engine.apply_update(&mut live, &delta).unwrap();
        assert_eq!(shadow, live, "engine and trait application agree");
    }
    let mut replica = replica_base;
    log.replay(&mut replica).unwrap();
    assert_eq!(replica, live);
    assert!(close(
        cold_probability(&replica, &query),
        engine.evaluate(&live, &query).unwrap().probability
    ));
}

#[test]
fn update_reports_surface_width_drift_and_fallbacks() {
    // A long-range insert on a path forces real bag growth.
    let mut tid = workloads::path_tid(12, 0.5, 4);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    let report = engine
        .apply_update(&mut tid, &Delta::new().insert("R", &["c0", "c12"], 0.5))
        .unwrap();
    assert!(report.width_before.is_some());
    assert!(report.width_after.is_some());
    assert!(report.width_drift().unwrap() >= 0);
    assert!(!report.notes.is_empty());
    assert!(close(
        engine.evaluate(&tid, &query).unwrap().probability,
        cold_probability(&tid, &query)
    ));

    // With a width budget of 1 the same update cannot be repaired.
    let mut tid = workloads::path_tid(12, 0.5, 4);
    let strict = Engine::builder().width_budget(1).build();
    strict.evaluate(&tid, &query).unwrap();
    let report = strict
        .apply_update(&mut tid, &Delta::new().insert("R", &["c0", "c12"], 0.5))
        .unwrap();
    assert!(report.fell_back, "budget 1 must force the fallback path");
    assert!(close(
        strict.evaluate(&tid, &query).unwrap().probability,
        cold_probability(&tid, &query)
    ));
}

/// A seeded 64-write history at scale: a 300-fact path holding the
/// unanchored pair and an anchored 3-hop goal, written with reweights,
/// deletes, re-inserts of deleted facts and one multi-op delta. After every
/// write the warm engine — serving only patched lineages — agrees with a
/// cold engine on `evaluate`, `most_probable_world` (same world, same
/// probability), `marginals` and the variables every `sample_worlds` draw
/// assigns, within 1e-9.
#[test]
fn a_long_write_history_at_scale_matches_a_cold_engine_on_every_inference() {
    const FACTS: usize = 300;
    let mut rng = SplitMix64::new(0x5ca1_ab1e);
    let probability = |rng: &mut SplitMix64| {
        format!("{:.6}", 0.1 + 0.8 * rng.next_f64())
            .parse::<f64>()
            .unwrap()
    };
    let edge = |position: usize| [format!("c{position}"), format!("c{}", position + 1)];
    let mut live = TidInstance::new();
    for position in 0..FACTS {
        let [a, b] = edge(position);
        live.add_fact_named("R", &[&a, &b], probability(&mut rng));
    }
    let queries = [
        ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap(),
        ConjunctiveQuery::parse("R(\"c150\", x), R(x, y), R(y, z)").unwrap(),
    ];
    let engine = Engine::new();
    for query in &queries {
        engine.evaluate(&live, query).unwrap();
    }

    // The path position of every fact, in fact-id order, and the deleted
    // positions, most recent last.
    let mut order: Vec<usize> = (0..FACTS).collect();
    let mut deleted: Vec<usize> = Vec::new();
    for write in 0..64 {
        let reinsert = |delta: Delta, deleted: &mut Vec<usize>, order: &mut Vec<usize>, p| {
            let position = deleted.pop().expect("a deleted fact to put back");
            order.push(position);
            let [a, b] = edge(position);
            delta.insert("R", &[&a, &b], p)
        };
        let delta = match write % 8 {
            // One delete lands inside the anchored goal's reach.
            3 | 7 => {
                let index = if write == 11 {
                    order.iter().position(|&p| p == 151).unwrap()
                } else {
                    rng.next_below(order.len())
                };
                deleted.push(order.remove(index));
                Delta::new().delete(FactId(index))
            }
            5 => {
                let p = probability(&mut rng);
                reinsert(Delta::new(), &mut deleted, &mut order, p)
            }
            _ if write == 42 => {
                // Reweight, delete and re-insert in one transaction; ids
                // name pre-delta facts.
                let (kept, gone) = (rng.next_below(order.len()), rng.next_below(order.len()));
                let gone = if gone == kept {
                    (gone + 1) % order.len()
                } else {
                    gone
                };
                let delta = Delta::new()
                    .set_probability(FactId(kept), probability(&mut rng))
                    .delete(FactId(gone));
                deleted.insert(0, order.remove(gone));
                let p = probability(&mut rng);
                reinsert(delta, &mut deleted, &mut order, p)
            }
            _ => {
                let index = rng.next_below(order.len());
                Delta::new().set_probability(FactId(index), probability(&mut rng))
            }
        };
        let report = engine.apply_update(&mut live, &delta).unwrap();
        assert!(!report.fell_back, "write {write}: {:?}", report.notes);
        assert_eq!(
            report.lineages_patched + report.lineages_rebuilt,
            2,
            "write {write}"
        );

        let cold = Engine::new();
        let fact_vars: BTreeSet<VarId> = (0..live.fact_count()).map(VarId).collect();
        for query in &queries {
            let context = format!("write {write}, {query:?}");
            let warm = engine.evaluate(&live, query).unwrap();
            let truth = cold.evaluate(&live, query).unwrap();
            assert!(warm.lineage_cached, "{context}: served from the patch");
            assert!(close(warm.probability, truth.probability), "{context}");

            if truth.probability == 0.0 {
                // Every match is deleted: both engines refuse the posterior
                // queries alike.
                let warm_mpe = engine.most_probable_world(&live, query).unwrap_err();
                let cold_mpe = cold.most_probable_world(&live, query).unwrap_err();
                assert_eq!(warm_mpe.to_string(), cold_mpe.to_string(), "{context}");
                continue;
            }

            let warm_mpe = engine.most_probable_world(&live, query).unwrap();
            let cold_mpe = cold.most_probable_world(&live, query).unwrap();
            assert_eq!(warm_mpe.world, cold_mpe.world, "{context}");
            let scale = cold_mpe.probability.abs();
            assert!(
                (warm_mpe.probability - cold_mpe.probability).abs() <= 1e-9 * scale,
                "{context}: {} vs {}",
                warm_mpe.probability,
                cold_mpe.probability
            );

            let warm_marginals = engine.marginals(&live, query).unwrap();
            let cold_marginals = cold.marginals(&live, query).unwrap();
            assert_eq!(warm_marginals.len(), cold_marginals.len(), "{context}");
            for (v, p) in cold_marginals.iter() {
                let got = warm_marginals.get(v).expect("every fact has a marginal");
                assert!(close(got, p), "{context}: {v:?} {got} vs {p}");
            }

            let lineage = cold.lineage(&live, query).unwrap();
            let sampled = engine.sample_worlds(&live, query, 4, write as u64).unwrap();
            let cold_sampled = cold.sample_worlds(&live, query, 4, write as u64).unwrap();
            assert!(close(
                sampled.evidence_probability,
                cold_sampled.evidence_probability
            ));
            for (world, cold_world) in sampled.worlds.iter().zip(&cold_sampled.worlds) {
                let vars: BTreeSet<VarId> = world.iter().map(|(v, _)| v).collect();
                let cold_vars: BTreeSet<VarId> = cold_world.iter().map(|(v, _)| v).collect();
                assert_eq!(vars, cold_vars, "{context}");
                assert_eq!(vars, fact_vars, "{context}: no pinned or stale variable");
                assert!(world.satisfies(&lineage).unwrap(), "{context}");
            }
        }
    }
}

/// The benchmark's update history, pinned: a 64-write history with its
/// schedule (per ten writes, eight reweights, one insert and one delete;
/// an insert puts the most recently deleted fact back, or extends the
/// path) on a path holding its four standing goals — three anchored
/// three-hop goals and the unanchored pair. After every write each cached
/// circuit is no wider than a cold engine's, and each goal read twice
/// gives a sweep's exact bits and a cold engine's answer, the first read
/// sweeping and the second reading the answer it memoised; after every
/// insert each
/// cached circuit is, gate for gate, the build a cache miss would make
/// over the engine's decomposition. Writes cannot make the circuits drift.
#[test]
fn an_update_mix_history_keeps_every_cached_circuit_a_cold_build() {
    const FACTS: usize = 240;
    let mut live = workloads::path_tid(FACTS, 0.5, 0x0bda);
    let mut rng = SplitMix64::new(0x0bda_ffff);
    let third = FACTS / 3;
    let mut goals: Vec<ConjunctiveQuery> = (0..3)
        .map(|k| {
            let a = k * third + rng.next_below(third - 4);
            ConjunctiveQuery::parse(&format!("R(\"c{a}\", x), R(x, y), R(y, z)")).unwrap()
        })
        .collect();
    goals.push(ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap());
    let engine = Engine::new();
    for goal in &goals {
        engine.evaluate(&live, goal).unwrap();
    }
    let probability = |rng: &mut SplitMix64| {
        format!("{:.6}", 0.1 + 0.8 * rng.next_f64())
            .parse::<f64>()
            .unwrap()
    };

    // The path position of every fact, in fact-id order, and the deleted
    // positions, most recent last.
    let mut order: Vec<usize> = (0..FACTS).collect();
    let mut deleted: Vec<usize> = Vec::new();
    let mut next_position = FACTS;
    for write in 0..64 {
        let inserts = write % 10 == 4;
        let delta = match write % 10 {
            4 => {
                let position = deleted.pop().unwrap_or_else(|| {
                    next_position += 1;
                    next_position - 1
                });
                order.push(position);
                let (a, b) = (format!("c{position}"), format!("c{}", position + 1));
                Delta::new().insert("R", &[&a, &b], probability(&mut rng))
            }
            9 => {
                let index = rng.next_below(order.len());
                deleted.push(order.remove(index));
                Delta::new().delete(FactId(index))
            }
            _ => {
                let index = rng.next_below(order.len());
                Delta::new().set_probability(FactId(index), probability(&mut rng))
            }
        };
        let report = engine.apply_update(&mut live, &delta).unwrap();
        assert!(!report.fell_back, "write {write}: {:?}", report.notes);
        assert_eq!(
            report.lineages_patched + report.lineages_rebuilt,
            goals.len(),
            "write {write}"
        );

        let cold = Engine::new();
        for goal in &goals {
            let context = format!("write {write}, {goal:?}");
            // The write left every entry without a memoised answer: the
            // first read sweeps, the second reads what the first memoised.
            let answers = engine.cache_stats().answers;
            let warm = engine.evaluate(&live, goal).unwrap();
            assert!(warm.lineage_cached, "{context}");
            let after_first = engine.cache_stats().answers;
            assert_eq!(after_first.misses, answers.misses + 1, "{context}");
            assert_eq!(after_first.hits, answers.hits, "{context}");
            let repeat = engine.evaluate(&live, goal).unwrap();
            assert_eq!(
                engine.cache_stats().answers.hits,
                answers.hits + 1,
                "{context}"
            );
            // Both reads are the bits a sweep of the cached circuit gives;
            // a deletion's rewired circuit may differ from a cold build in
            // the last bits, so the cold engine agrees within 1e-9.
            let swept = engine
                .reevaluate_with_weights(&live, goal, &live.fact_weights())
                .unwrap();
            let truth = cold.evaluate(&live, goal).unwrap();
            for read in [&warm, &repeat] {
                assert_eq!(
                    read.probability.to_bits(),
                    swept.probability.to_bits(),
                    "{context}"
                );
                assert!(close(read.probability, truth.probability), "{context}");
                if inserts {
                    // An insert leaves a cold build: the very same bits.
                    assert_eq!(
                        read.probability.to_bits(),
                        truth.probability.to_bits(),
                        "{context}"
                    );
                }
            }
            let width = |engine: &Engine| {
                engine
                    .explain(&live, goal)
                    .unwrap()
                    .circuit
                    .expect("a circuit is swept")
                    .width
            };
            assert!(
                width(&engine) <= width(&cold),
                "{context}: the circuit drifted"
            );
            if inserts {
                assert_eq!(
                    engine.lineage(&live, goal).unwrap(),
                    cold_build(&engine, &live, goal),
                    "{context}: the cached circuit is a cold build"
                );
            }
        }
    }
}
