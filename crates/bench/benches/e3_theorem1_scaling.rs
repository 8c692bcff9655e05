//! E3 — Theorem 1: evaluating a fixed query on bounded-treewidth TIDs scales
//! linearly with the data, for several widths, while the naive baselines are
//! exponential (they are run only on the smallest size as a reference).
//!
//! The timed loops sweep through `reevaluate_with_weights` under each
//! instance's own weights: a repeated `evaluate` reads the answer its first
//! run memoised, so it would time a cache hit, not the sweep.

use criterion::BenchmarkId;
use stuc_bench::{criterion_config, report_value};
use stuc_core::engine::{BackendKind, Engine};
use stuc_core::workloads;
use stuc_query::cq::ConjunctiveQuery;

fn main() {
    let mut criterion = criterion_config();
    let engine = Engine::new();
    let dpll = Engine::builder().backend(BackendKind::Dpll).build();
    let brute = Engine::builder().backend(BackendKind::Enumeration).build();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();

    // Linear scaling in the data at fixed width (path instances, width 1).
    let mut group = criterion.benchmark_group("e3_theorem1_path_scaling");
    for &n in &[100usize, 400, 1600, 6400] {
        let tid = workloads::path_tid(n, 0.5, 7);
        let report = engine.evaluate(&tid, &query).unwrap();
        report_value(
            "E3",
            &format!("path_n{n}_probability"),
            format!("{:.6}", report.probability),
        );
        let weights = tid.fact_weights();
        group.bench_with_input(BenchmarkId::new("tractable_pipeline", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .reevaluate_with_weights(&tid, &query, &weights)
                    .unwrap()
                    .probability
            })
        });
    }
    group.finish();

    // Width sweep: partial k-trees of fixed size, width 1..4. A rung whose
    // lineage is too wide for the sweep goes to DPLL, which may stop at its
    // memo bound; the rung then reports that outcome and is not timed.
    let mut group = criterion.benchmark_group("e3_theorem1_width_sweep");
    for &k in &[1usize, 2, 3, 4] {
        let tid = workloads::partial_k_tree_tid(200, k, 0.5, 3);
        let report = match engine.evaluate(&tid, &query) {
            Ok(report) => report,
            Err(error) => {
                report_value("E3", &format!("ktree_k{k}_outcome"), error);
                continue;
            }
        };
        report_value(
            "E3",
            &format!("ktree_k{k}_width"),
            report.decomposition_width.unwrap_or(0),
        );
        let weights = tid.fact_weights();
        group.bench_with_input(
            BenchmarkId::new("tractable_pipeline_width", k),
            &k,
            |b, _| {
                b.iter(|| {
                    engine
                        .reevaluate_with_weights(&tid, &query, &weights)
                        .unwrap()
                        .probability
                })
            },
        );
    }
    group.finish();

    // Baselines on a small instance only (they blow up quickly).
    let small = workloads::path_tid(18, 0.5, 7);
    let weights = small.fact_weights();
    let sweep = |engine: &Engine| {
        engine
            .reevaluate_with_weights(&small, &query, &weights)
            .unwrap()
            .probability
    };
    let mut group = criterion.benchmark_group("e3_theorem1_baselines_small");
    group.bench_function("tractable_pipeline_n18", |b| b.iter(|| sweep(&engine)));
    group.bench_function("dpll_baseline_n18", |b| b.iter(|| sweep(&dpll)));
    group.bench_function("enumeration_baseline_n18", |b| b.iter(|| sweep(&brute)));
    group.finish();
    criterion.final_summary();
}
