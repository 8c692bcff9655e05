//! Updates racing reads on one shared engine never produce torn state.
//!
//! `Engine::apply_update` rekeys and patches cache entries while other
//! threads are reading them. The contract: a reader evaluating *its own*
//! snapshot of an instance (pre-delta or post-delta) always gets exactly
//! that snapshot's answer — never a blend of the two, never a panic — no
//! matter how the update interleaves with the reads. The caches are keyed
//! by instance fingerprint and revalidated dual-hash on every hit, so a
//! patched entry can only ever be served for the state it describes; these
//! tests drive that claim with real thread interleavings over random
//! deltas.
//!
//! The second test races the other cache hazard: eviction under a tiny
//! capacity while readers still hold `Arc`s to evicted entries.

use proptest::prelude::*;
use std::sync::Arc;
use stuc::core::workloads;
use stuc::data::instance::FactId;
use stuc::graph::generators::SplitMix64;
use stuc::incr::Delta;
use stuc::query::cq::ConjunctiveQuery;
use stuc::Engine;

fn cold(tid: &stuc::data::tid::TidInstance, query: &ConjunctiveQuery) -> f64 {
    Engine::new().evaluate(tid, query).unwrap().probability
}

/// A delta exercising all three patch paths against a path-shaped TID:
/// reweight (rekey), insert (extension), delete (rewiring).
fn random_delta(rng: &mut SplitMix64, facts: usize) -> Delta {
    let mut delta = Delta::new();
    for _ in 0..1 + rng.next_below(3) {
        match rng.next_below(3) {
            0 => {
                let a = format!("c{}", rng.next_below(8));
                let b = format!("c{}", rng.next_below(8));
                delta = delta.insert("R", &[&a, &b], 0.05 + 0.9 * rng.next_f64());
            }
            1 if facts > 1 => {
                delta = delta.delete(FactId(rng.next_below(facts)));
            }
            _ if facts > 0 => {
                delta = delta
                    .set_probability(FactId(rng.next_below(facts)), 0.05 + 0.9 * rng.next_f64());
            }
            _ => {}
        }
    }
    delta
}

proptest! {
    // Each case spawns 9 threads; keep the case count modest so the suite
    // stays fast under `--test-threads=8`.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Readers pinned to a pre-delta or post-delta snapshot observe exactly
    /// that snapshot's answer while `apply_update` rekeys the caches
    /// underneath them.
    #[test]
    fn updates_racing_reads_never_tear(n in 4usize..9, p in 0.2f64..0.8, seed in 0u64..10_000) {
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let scan = ConjunctiveQuery::parse("R(x, y)").unwrap();
        let pre = workloads::path_tid(n, p, seed);
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        let delta = random_delta(&mut rng, pre.fact_count());

        // Oracles from fresh engines; `post` is what the writer's instance
        // becomes after the delta.
        let mut post = pre.clone();
        Engine::new().apply_update(&mut post, &delta).unwrap();
        let oracle_pre_chain = cold(&pre, &chain);
        let oracle_pre_scan = cold(&pre, &scan);
        let oracle_post_chain = cold(&post, &chain);

        let engine = Arc::new(Engine::new());
        // Warm the caches with the pre state so the update has entries to
        // rekey while readers are mid-flight.
        engine.evaluate(&pre, &chain).unwrap();

        std::thread::scope(|scope| {
            // The writer: applies the delta to its own live instance through
            // the shared engine, then re-reads its post state.
            {
                let engine = Arc::clone(&engine);
                let mut live = pre.clone();
                let delta = delta.clone();
                let chain = chain.clone();
                scope.spawn(move || {
                    engine.apply_update(&mut live, &delta).unwrap();
                    let after = engine.evaluate(&live, &chain).unwrap();
                    assert!(
                        (after.probability - oracle_post_chain).abs() < 1e-9,
                        "writer post-delta: {} vs {oracle_post_chain}",
                        after.probability
                    );
                });
            }
            // Pre-snapshot readers: must keep seeing the pre answer even as
            // the writer drains/rekeys entries sharing their fingerprints.
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let pre = pre.clone();
                let chain = chain.clone();
                let scan = scan.clone();
                scope.spawn(move || {
                    for _ in 0..6 {
                        let got = engine.evaluate(&pre, &chain).unwrap().probability;
                        assert!(
                            (got - oracle_pre_chain).abs() < 1e-9,
                            "pre reader chain: {got} vs {oracle_pre_chain}"
                        );
                        let got = engine.evaluate(&pre, &scan).unwrap().probability;
                        assert!(
                            (got - oracle_pre_scan).abs() < 1e-9,
                            "pre reader scan: {got} vs {oracle_pre_scan}"
                        );
                    }
                });
            }
            // Post-snapshot readers: racing the writer's rekey from the
            // other side (their first evaluations may compile fresh while
            // the patched entries are being installed for the same key).
            for _ in 0..4 {
                let engine = Arc::clone(&engine);
                let post = post.clone();
                let chain = chain.clone();
                scope.spawn(move || {
                    for _ in 0..6 {
                        let got = engine.evaluate(&post, &chain).unwrap().probability;
                        assert!(
                            (got - oracle_post_chain).abs() < 1e-9,
                            "post reader chain: {got} vs {oracle_post_chain}"
                        );
                    }
                });
            }
        });
    }

    /// Eviction under a tiny capacity racing readers that still hold `Arc`s
    /// to the evicted entries: answers stay exact, nothing panics, and the
    /// bound holds at the end.
    #[test]
    fn eviction_racing_readers_is_safe(seed in 0u64..10_000) {
        let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
        let engine = Arc::new(Engine::builder().cache_capacity(2).build());

        // One pinned instance a dedicated reader hammers, plus a churn set
        // large enough to keep evicting it.
        let pinned = workloads::path_tid(7, 0.5, seed);
        let oracle_pinned = cold(&pinned, &chain);
        let churn: Vec<_> = (0..6)
            .map(|i| workloads::path_tid(4 + (i % 3), 0.4, seed.wrapping_add(i as u64 + 1)))
            .collect();
        let churn_oracle: Vec<f64> = churn.iter().map(|t| cold(t, &chain)).collect();

        std::thread::scope(|scope| {
            {
                let engine = Arc::clone(&engine);
                let pinned = pinned.clone();
                let chain = chain.clone();
                scope.spawn(move || {
                    for _ in 0..12 {
                        let got = engine.evaluate(&pinned, &chain).unwrap().probability;
                        assert!(
                            (got - oracle_pinned).abs() < 1e-9,
                            "pinned reader: {got} vs {oracle_pinned}"
                        );
                    }
                });
            }
            for offset in 0..3 {
                let engine = Arc::clone(&engine);
                let churn = churn.clone();
                let churn_oracle = churn_oracle.clone();
                let chain = chain.clone();
                scope.spawn(move || {
                    for round in 0..8 {
                        let i = (offset + round) % churn.len();
                        let got = engine.evaluate(&churn[i], &chain).unwrap().probability;
                        assert!(
                            (got - churn_oracle[i]).abs() < 1e-9,
                            "churn reader {i}: {got} vs {}",
                            churn_oracle[i]
                        );
                    }
                });
            }
        });

        let stats = engine.cache_stats();
        prop_assert!(stats.lineages.entries <= 2, "capacity bound violated: {stats:?}");
        prop_assert!(stats.decompositions.entries <= 2, "capacity bound violated: {stats:?}");
    }
}

/// Readers sweeping while a writer applies reweights and deletes over the
/// circuits those writes share (a reweight rekeys the same compiled
/// circuit, a delete carries its sweep plan over relabelled and takes its
/// warm arena) get bit-identical answers to a single-threaded replay.
///
/// The decomposition cache is off, so a reader whose lookup misses (the
/// writer already moved the entry on to the next state) compiles exactly
/// what a cold engine compiles: every reader answer is bit-identical to
/// the replay's patched answer or to the cold answer for its state, and the
/// writer's own read after each write is bit-identical to the replay's.
#[test]
fn readers_racing_shared_circuit_writes_match_a_single_threaded_replay() {
    const WRITES: usize = 24;
    let queries = [
        ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap(),
        ConjunctiveQuery::parse("R(\"c4\", x), R(x, y), R(y, z)").unwrap(),
    ];
    let engine = || Engine::builder().without_decomposition_cache().build();
    let bits = |engine: &Engine, tid: &stuc::data::tid::TidInstance, query: &ConjunctiveQuery| {
        engine.evaluate(tid, query).unwrap().probability.to_bits()
    };
    let answers = |engine: &Engine, tid: &stuc::data::tid::TidInstance| {
        [0, 1].map(|q| bits(engine, tid, &queries[q]))
    };

    // The history, its states, and the replay's and cold answers.
    let mut rng = SplitMix64::new(0xc0ff_ee00);
    let mut states = vec![workloads::path_tid(40, 0.5, 17)];
    let mut deltas = Vec::with_capacity(WRITES);
    let replay = engine();
    let mut replayed = vec![answers(&replay, &states[0])];
    let mut cold = vec![answers(&engine(), &states[0])];
    for write in 0..WRITES {
        let mut state = states[write].clone();
        let facts = state.fact_count();
        // Probabilities are unique to each write, so no state repeats.
        let delta = if write % 3 == 2 {
            Delta::new().delete(FactId(rng.next_below(facts)))
        } else {
            let p = 0.1 + 0.8 * (write as f64 + rng.next_f64()) / WRITES as f64;
            Delta::new().set_probability(FactId(rng.next_below(facts)), p)
        };
        replay.apply_update(&mut state, &delta).unwrap();
        replayed.push(answers(&replay, &state));
        cold.push(answers(&engine(), &state));
        for (patched, fresh) in replayed[write + 1].iter().zip(&cold[write + 1]) {
            let (patched, fresh) = (f64::from_bits(*patched), f64::from_bits(*fresh));
            assert!((patched - fresh).abs() < 1e-9, "replay write {write}");
        }
        states.push(state);
        deltas.push(delta);
    }

    let shared = engine();
    for query in &queries {
        shared.evaluate(&states[0], query).unwrap();
    }
    // Before write k, everyone meets at the barrier; then the readers sweep
    // state k while the writer moves the engine on to state k + 1.
    const READERS: usize = 4;
    let step = std::sync::Barrier::new(READERS + 1);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                for k in 0..WRITES {
                    step.wait();
                    for _ in 0..3 {
                        for (q, query) in queries.iter().enumerate() {
                            let got = bits(&shared, &states[k], query);
                            assert!(
                                got == replayed[k][q] || got == cold[k][q],
                                "reader at state {k}, query {q}: {} vs replay {} / cold {}",
                                f64::from_bits(got),
                                f64::from_bits(replayed[k][q]),
                                f64::from_bits(cold[k][q])
                            );
                        }
                    }
                }
            });
        }
        let mut live = states[0].clone();
        for (k, delta) in deltas.iter().enumerate() {
            step.wait();
            let report = shared.apply_update(&mut live, delta).unwrap();
            assert_eq!(report.lineages_patched, queries.len(), "write {k}");
            for (q, query) in queries.iter().enumerate() {
                assert_eq!(
                    bits(&shared, &live, query),
                    replayed[k + 1][q],
                    "write {k}, query {q}"
                );
            }
        }
    });
}
