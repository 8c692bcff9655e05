//! A3 (ablation) — cost of the engine's automatic strategy selection.
//!
//! The unified `Engine` adds work on top of the raw Theorem 1 calls: the
//! hierarchy test for the safe-plan fast path, the fingerprint hash and
//! cache lookup, the circuit-width estimate that picks treewidth-WMC vs
//! DPLL. This bench measures that dispatch overhead on the path workload by
//! comparing, for the same query:
//!
//! * `direct_wmc` — hand-rolled: decompose, build the lineage, then
//!   compile, plan and sweep it once with `one_shot_probability`, no
//!   engine involved (the pre-engine code path);
//! * `engine_fixed_wmc` — engine with the back-end pinned (no selection
//!   logic, but fingerprint + cache);
//! * `engine_auto` — full automatic selection;
//! * `engine_auto_uncached` — automatic selection with the decomposition
//!   and lineage caches disabled: every call re-decomposes the Gaifman
//!   graph, rebuilds and recompiles the lineage, and sweeps it.
//!
//! `engine_fixed_wmc`, `engine_auto` and, on the safe-plan fast path,
//! `engine_fixed_wmc_hierarchical` sweep through `reevaluate_with_weights`
//! under the instance's own weights: a repeated `evaluate` reads the answer
//! its first run memoised, so it would time a cache hit, not the dispatch
//! in front of a sweep. `engine_auto_hierarchical` runs the safe plan,
//! which memoises nothing, through `evaluate`.
//!
//! Future scaling PRs (batching, sharding) build on the engine; this records
//! what the abstraction itself costs.

use criterion::BenchmarkId;
use stuc_automata::courcelle::cq_lineage_circuit;
use stuc_bench::{criterion_config, report_value};
use stuc_circuit::compiled::one_shot_probability;
use stuc_core::engine::{BackendKind, Engine};
use stuc_core::workloads;
use stuc_graph::elimination::{decompose_with_heuristic, EliminationHeuristic};
use stuc_query::cq::ConjunctiveQuery;

fn main() {
    let mut criterion = criterion_config();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();

    for &n in &[20usize, 100, 400] {
        let tid = workloads::path_tid(n, 0.5, 13);

        // Sanity: all variants agree before we time them.
        let direct = {
            let td =
                decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinDegree);
            let lineage =
                cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
            one_shot_probability(&lineage, &tid.fact_weights()).unwrap()
        };
        let auto_engine = Engine::new();
        let from_engine = auto_engine.evaluate(&tid, &query).unwrap();
        assert!((direct - from_engine.probability).abs() < 1e-9);
        report_value("A3", &format!("n{n}_backend"), from_engine.backend_name());

        let mut group = criterion.benchmark_group(format!("a3_engine_dispatch_n{n}"));
        group.bench_with_input(BenchmarkId::new("direct_wmc", n), &n, |b, _| {
            b.iter(|| {
                let td =
                    decompose_with_heuristic(&tid.gaifman_graph(), EliminationHeuristic::MinDegree);
                let lineage =
                    cq_lineage_circuit(tid.instance(), &td, &query, |f| tid.fact_event(f)).unwrap();
                one_shot_probability(&lineage, &tid.fact_weights()).unwrap()
            })
        });

        let weights = tid.fact_weights();
        let sweep = |engine: &Engine| {
            engine
                .reevaluate_with_weights(&tid, &query, &weights)
                .unwrap()
                .probability
        };
        let fixed = Engine::builder().backend(BackendKind::TreewidthWmc).build();
        group.bench_with_input(BenchmarkId::new("engine_fixed_wmc", n), &n, |b, _| {
            b.iter(|| sweep(&fixed))
        });

        group.bench_with_input(BenchmarkId::new("engine_auto", n), &n, |b, _| {
            b.iter(|| sweep(&auto_engine))
        });

        let uncached = Engine::builder()
            .without_decomposition_cache()
            .without_lineage_cache()
            .build();
        uncached.evaluate(&tid, &query).unwrap();
        let repeat = uncached.evaluate(&tid, &query).unwrap();
        assert!(
            !repeat.lineage_cached,
            "the uncached engine reused a lineage"
        );
        group.bench_with_input(BenchmarkId::new("engine_auto_uncached", n), &n, |b, _| {
            b.iter(|| uncached.evaluate(&tid, &query).unwrap().probability)
        });
        group.finish();
    }

    // The safe-plan fast path: dispatch *saves* work for hierarchical
    // queries, which is the other half of the selection trade-off.
    let tid = workloads::path_tid(400, 0.5, 13);
    let hierarchical = ConjunctiveQuery::parse("R(x, y)").unwrap();
    let engine = Engine::new();
    let report = engine.evaluate(&tid, &hierarchical).unwrap();
    report_value("A3", "hierarchical_backend", report.backend_name());
    let answers = engine.cache_stats().answers;
    engine.evaluate(&tid, &hierarchical).unwrap();
    assert_eq!(
        engine.cache_stats().answers,
        answers,
        "the safe plan reads no memoised answer"
    );
    let mut group = criterion.benchmark_group("a3_safe_plan_fast_path");
    group.bench_function("engine_auto_hierarchical", |b| {
        b.iter(|| engine.evaluate(&tid, &hierarchical).unwrap().probability)
    });
    let pinned = Engine::builder().backend(BackendKind::TreewidthWmc).build();
    let weights = tid.fact_weights();
    group.bench_function("engine_fixed_wmc_hierarchical", |b| {
        b.iter(|| {
            pinned
                .reevaluate_with_weights(&tid, &hierarchical, &weights)
                .unwrap()
                .probability
        })
    });
    group.finish();
    criterion.final_summary();
}
