//! Streaming updates: a live engine absorbing inserts, deletes and
//! re-weights without rebuilding the world.
//!
//! A knowledge-base service keeps an 80-fact path instance hot behind an
//! `Engine` and serves anchored chain queries. Updates stream in as typed
//! [`Delta`] transactions; `Engine::apply_update` patches the cached
//! decomposition in place, keeps or rewires every cached compiled lineage
//! (rebuilding those an insert gave new matches), rekeys them to the
//! mutated instance, and reports what was reused vs rebuilt. Every answer
//! is cross-checked against a cold engine.
//!
//! Run with `cargo run --example streaming_updates`.

use stuc::data::instance::FactId;
use stuc::incr::{Delta, Updatable, UpdateLog};
use stuc::query::cq::ConjunctiveQuery;
use stuc::Engine;

fn main() {
    let mut live = stuc::core::workloads::path_tid(80, 0.5, 13);
    let replica_base = live.clone();
    let queries: Vec<ConjunctiveQuery> = (0..8)
        .map(|k| {
            ConjunctiveQuery::parse(&format!("R(\"c{}\", x), R(x, y), R(y, z)", 10 * k)).unwrap()
        })
        .collect();

    let engine = Engine::new();
    println!(
        "warming {} queries on {} facts…",
        queries.len(),
        live.fact_count()
    );
    for query in &queries {
        engine.evaluate(&live, query).unwrap();
    }
    println!(
        "cached: {} decomposition(s), {} compiled lineage(s)\n",
        engine.cached_decompositions(),
        engine.cached_lineages()
    );

    // The update stream: trust revisions, new measurements, retractions.
    let stream = vec![
        (
            "trust revision (weights only)",
            Delta::new()
                .set_probability(FactId(10), 0.95)
                .set_probability(FactId(11), 0.15),
        ),
        (
            "new measurement (insert, creates new chain matches)",
            Delta::new().insert("R", &["c72", "c99"], 0.42),
        ),
        (
            "retraction (delete fact 40)",
            Delta::new().delete(FactId(40)),
        ),
        (
            "mixed transaction",
            Delta::new()
                .insert("R", &["c81", "c82"], 0.33)
                .set_probability(FactId(0), 0.5),
        ),
    ];

    let mut log = UpdateLog::new();
    for (label, delta) in stream {
        // Keep a replayable log next to the live instance (replication).
        let mut shadow = live.clone();
        let application = shadow.apply_delta(&delta).unwrap();
        log.record(delta.clone(), &application);

        let report = engine.apply_update(&mut live, &delta).unwrap();
        println!("update: {label}");
        println!(
            "  +{} facts, -{} facts, {} re-weighted | lineages: {} patched, {} rebuilt, {} dropped",
            report.inserted,
            report.deleted,
            report.reweighted,
            report.lineages_patched,
            report.lineages_rebuilt,
            report.lineages_dropped
        );
        println!(
            "  gates rebuilt: {}, bags touched: {}, width {:?} -> {:?}{}",
            report.gates_rebuilt,
            report.bags_touched,
            report.width_before,
            report.width_after,
            if report.fell_back { " (fell back)" } else { "" }
        );

        // Serve the workload from the maintained caches and cross-check.
        let cold = Engine::new();
        for query in &queries {
            let warm = engine.evaluate(&live, query).unwrap();
            let fresh = cold.evaluate(&live, query).unwrap();
            assert!(
                (warm.probability - fresh.probability).abs() < 1e-9,
                "warm and cold disagree on {query:?}"
            );
        }
        let hits = queries
            .iter()
            .filter(|q| engine.evaluate(&live, q).unwrap().lineage_cached)
            .count();
        println!(
            "  all {} answers match a cold engine; {hits} served from cached lineages\n",
            queries.len()
        );
    }

    // A replica catches up by replaying the log against the base snapshot.
    let mut replica = replica_base;
    let replayed = log.replay(&mut replica).unwrap();
    assert_eq!(replica, live);
    println!("replica replayed {replayed} deltas from the log and matches the live instance");
}
