//! The concurrency contract of the shared engine: one `Arc<Engine>` hammered
//! by many threads returns exactly the same probabilities as a fresh
//! single-threaded engine, on every representation and every entry point.
//!
//! The engine's caches are sharded and published first-writer-wins, so
//! concurrent evaluation involves real races (two threads compiling the same
//! lineage, a hit validating against an entry another thread just published).
//! These tests drive those races on a time-sliced scheduler and check the
//! only observable that matters: answers never change, and the cache-hit
//! counters prove the threads actually shared compiled state rather than
//! each working in isolation.
//!
//! CI runs this suite with `--test-threads=8` in release mode so the tests
//! themselves also overlap.

use std::sync::Arc;
use stuc::circuit::weights::Weights;
use stuc::core::workloads;
use stuc::data::cinstance::CInstance;
use stuc::data::instance::FactId;
use stuc::data::pcc::PccInstance;
use stuc::data::tid::TidInstance;
use stuc::prxml::document::PrXmlDocument;
use stuc::prxml::queries::PrxmlQuery;
use stuc::query::cq::ConjunctiveQuery;
use stuc::Engine;

const THREADS: usize = 8;
const ROUNDS: usize = 12;

/// Everything the worker threads share, plus the single-threaded oracle
/// answer for each operation, computed on a fresh engine up front.
struct Fixture {
    tid: TidInstance,
    chain: ConjunctiveQuery,
    chain3: ConjunctiveQuery,
    scan: ConjunctiveQuery,
    what_if: Weights,
    pc: stuc::data::cinstance::PcInstance,
    pc_query: ConjunctiveQuery,
    pcc: PccInstance,
    pcc_query: ConjunctiveQuery,
    doc: PrXmlDocument,
    doc_query: PrxmlQuery,
    program: &'static str,
    oracle: OracleAnswers,
}

struct OracleAnswers {
    tid_chain: f64,
    tid_chain3: f64,
    tid_scan: f64,
    tid_what_if: f64,
    pc: f64,
    pcc: f64,
    prxml: f64,
    text: f64,
}

const PROGRAM: &str = "Hop(x, y) :- R(x, y).  ?- Hop(x, y), Hop(y, z).";

fn fixture() -> Fixture {
    let tid = workloads::path_tid(8, 0.5, 11);
    let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    // A second circuit-bound query on the *same* instance: its lineage key
    // differs from `chain`'s, so evaluating it misses the lineage cache but
    // hits the shared per-instance decomposition — the sharing the final
    // counter assertions pin down.
    let chain3 = ConjunctiveQuery::parse("R(x, y), R(y, z), R(z, w)").unwrap();
    let scan = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let mut certain = tid.clone();
    for i in 0..certain.fact_count() {
        certain.set_probability(FactId(i), 0.9);
    }
    let what_if = certain.fact_weights();

    let ci = CInstance::table1_example();
    let pods = ci.events().find("pods").unwrap();
    let stoc = ci.events().find("stoc").unwrap();
    let mut pc_weights = Weights::new();
    pc_weights.set(pods, 0.8);
    pc_weights.set(stoc, 0.3);
    let pc = ci.with_probabilities(pc_weights);
    let pc_query = ConjunctiveQuery::parse("Trip(x, \"Paris_CDG\")").unwrap();

    let pcc = workloads::contributor_pcc(6, 3, 0.8, 0.9, 7);
    let pcc_query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();

    let doc = PrXmlDocument::figure1_example();
    let doc_query = PrxmlQuery::LabelExists("musician".into());

    // Single-threaded oracle: a fresh engine per answer, no shared caches.
    let oracle = OracleAnswers {
        tid_chain: Engine::new().evaluate(&tid, &chain).unwrap().probability,
        tid_chain3: Engine::new().evaluate(&tid, &chain3).unwrap().probability,
        tid_scan: Engine::new().evaluate(&tid, &scan).unwrap().probability,
        tid_what_if: Engine::new()
            .reevaluate_with_weights(&tid, &chain, &what_if)
            .unwrap()
            .probability,
        pc: Engine::new().evaluate(&pc, &pc_query).unwrap().probability,
        pcc: Engine::new()
            .evaluate(&pcc, &pcc_query)
            .unwrap()
            .probability,
        prxml: Engine::new()
            .evaluate(&doc, &doc_query)
            .unwrap()
            .probability,
        text: Engine::new().evaluate_text(&tid, PROGRAM).unwrap().goals[0].probability,
    };

    Fixture {
        tid,
        chain,
        chain3,
        scan,
        what_if,
        pc,
        pc_query,
        pcc,
        pcc_query,
        doc,
        doc_query,
        program: PROGRAM,
        oracle,
    }
}

/// One operation of the mix; returns `(observed, expected, label)`.
fn run_op(engine: &Engine, fx: &Fixture, op: usize) -> (f64, f64, &'static str) {
    match op % 8 {
        0 => (
            engine.evaluate(&fx.tid, &fx.chain).unwrap().probability,
            fx.oracle.tid_chain,
            "tid/chain",
        ),
        7 => (
            engine.evaluate(&fx.tid, &fx.chain3).unwrap().probability,
            fx.oracle.tid_chain3,
            "tid/chain3",
        ),
        1 => (
            engine.evaluate(&fx.tid, &fx.scan).unwrap().probability,
            fx.oracle.tid_scan,
            "tid/scan",
        ),
        2 => (
            engine
                .reevaluate_with_weights(&fx.tid, &fx.chain, &fx.what_if)
                .unwrap()
                .probability,
            fx.oracle.tid_what_if,
            "tid/what-if",
        ),
        3 => (
            engine.evaluate(&fx.pc, &fx.pc_query).unwrap().probability,
            fx.oracle.pc,
            "pc-instance",
        ),
        4 => (
            engine.evaluate(&fx.pcc, &fx.pcc_query).unwrap().probability,
            fx.oracle.pcc,
            "pcc-instance",
        ),
        5 => (
            engine.evaluate(&fx.doc, &fx.doc_query).unwrap().probability,
            fx.oracle.prxml,
            "prxml",
        ),
        _ => (
            engine.evaluate_text(&fx.tid, fx.program).unwrap().goals[0].probability,
            fx.oracle.text,
            "text",
        ),
    }
}

#[test]
fn shared_engine_agrees_with_single_threaded_oracle_under_contention() {
    let fx = Arc::new(fixture());
    let engine = Arc::new(Engine::new());
    // Warm the TID decomposition once: the first concurrent `chain3`
    // evaluation then *deterministically* misses the lineage cache while
    // hitting this shared decomposition, whatever the schedule — the
    // counters below rely on it.
    engine.evaluate(&fx.tid, &fx.chain).unwrap();

    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let fx = Arc::clone(&fx);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Stagger the starting op per thread so every round has
                    // several threads inside the *same* operation (same cache
                    // keys, racing) and several in different ones.
                    let (observed, expected, label) = run_op(&engine, &fx, thread + round);
                    assert!(
                        (observed - expected).abs() < 1e-9,
                        "thread {thread} round {round} {label}: {observed} vs oracle {expected}"
                    );
                }
            });
        }
    });

    // The point of sharing one engine: later threads must have been served
    // from caches populated by earlier ones. 8 threads x 12 rounds touch the
    // lineage cache far more often than the handful of distinct keys in the
    // mix, so hits must dominate.
    let stats = engine.cache_stats();
    assert!(
        stats.lineages.hits > 0,
        "no lineage-cache sharing happened: {stats:?}"
    );
    assert!(
        stats.decompositions.hits > 0,
        "no decomposition-cache sharing happened: {stats:?}"
    );
    assert!(
        stats.lineages.hits > stats.lineages.misses,
        "threads mostly recompiled instead of sharing: {stats:?}"
    );
}

#[test]
fn evaluate_batch_through_a_shared_reference_matches_oracle() {
    let fx = fixture();
    let engine = Engine::new();
    // 32 queries, only 2 distinct — the batch path dedups and the racing
    // workers publish first-writer-wins.
    let queries: Vec<ConjunctiveQuery> = (0..32)
        .map(|i| {
            if i % 2 == 0 {
                fx.chain.clone()
            } else {
                fx.scan.clone()
            }
        })
        .collect();
    let batch = engine.evaluate_batch(&fx.tid, &queries);
    assert_eq!(batch.reports.len(), 32);
    for (i, report) in batch.reports.iter().enumerate() {
        let report = report.as_ref().unwrap();
        let expected = if i % 2 == 0 {
            fx.oracle.tid_chain
        } else {
            fx.oracle.tid_scan
        };
        assert!(
            (report.probability - expected).abs() < 1e-9,
            "batch slot {i}: {} vs oracle {expected}",
            report.probability
        );
    }
}

#[test]
fn concurrent_first_evaluations_race_cleanly_on_a_cold_engine() {
    // Every thread starts on the same key of a cold engine: the maximal
    // publish race. All must return the oracle answer, and afterwards the
    // cache holds exactly one entry per distinct key.
    let fx = Arc::new(fixture());
    let engine = Arc::new(Engine::new());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let fx = Arc::clone(&fx);
            let engine = Arc::clone(&engine);
            scope.spawn(move || {
                let report = engine.evaluate(&fx.tid, &fx.chain).unwrap();
                assert!((report.probability - fx.oracle.tid_chain).abs() < 1e-9);
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(
        stats.lineages.entries, 1,
        "racing publishes must collapse to one resident entry: {stats:?}"
    );
}

#[test]
fn racing_first_evaluations_of_one_goal_answer_identical_bits() {
    // Eight threads released together on one goal of a cold engine: each
    // either sweeps or reads the answer a racer memoised, and all of them
    // return the bits a fresh single-threaded engine computes.
    let fx = fixture();
    let engine = Engine::new();
    let start = std::sync::Barrier::new(THREADS);
    let bits: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    engine
                        .evaluate(&fx.tid, &fx.chain)
                        .unwrap()
                        .probability
                        .to_bits()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let fresh = Engine::new().evaluate(&fx.tid, &fx.chain).unwrap();
    assert!(
        bits.iter().all(|&b| b == fresh.probability.to_bits()),
        "{bits:x?} vs {:x}",
        fresh.probability.to_bits()
    );
    let answers = engine.cache_stats().answers;
    assert_eq!(answers.hits + answers.misses, THREADS as u64, "{answers:?}");
    let again = engine.evaluate(&fx.tid, &fx.chain).unwrap();
    assert_eq!(again.probability.to_bits(), fresh.probability.to_bits());
    assert_eq!(engine.cache_stats().answers.hits, answers.hits + 1);
}
