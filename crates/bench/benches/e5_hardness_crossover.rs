//! E5 — the §1 hardness example: `∃xy R(x), S(x,y), T(y)` is `#P`-hard on
//! arbitrary TIDs (here: complete bipartite instances, growing width) but
//! stays easy on path-shaped data. The extensional safe-plan baseline simply
//! refuses the query (it is not hierarchical), which is the point of the
//! comparison: data-based tractability applies where query-based
//! tractability does not.
//!
//! The timed loops sweep through `reevaluate_with_weights` under each
//! instance's own weights: a repeated `evaluate` reads the answer its first
//! run memoised, so it would time a cache hit, not the sweep.

use criterion::BenchmarkId;
use stuc_bench::{criterion_config, report_value};
use stuc_core::engine::{BackendKind, Engine, StucError};
use stuc_core::workloads;
use stuc_query::cq::ConjunctiveQuery;

fn main() {
    let mut criterion = criterion_config();
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("R(x), S(x, y), T(y)").unwrap();

    // The extensional back-end refuses the query outright.
    let safe_plan = Engine::builder().backend(BackendKind::SafePlan).build();
    let refused = matches!(
        safe_plan.evaluate(&workloads::rst_path_tid(5, 0.5, 1), &query),
        Err(StucError::SafePlan(_))
    );
    report_value("E5", "safe_plan_refuses_unsafe_query", refused);

    // Tree-shaped data: the pipeline scales linearly.
    let mut group = criterion.benchmark_group("e5_path_shaped_data");
    for &n in &[50usize, 200, 800] {
        let tid = workloads::rst_path_tid(n, 0.5, 3);
        let report = engine.evaluate(&tid, &query).unwrap();
        report_value(
            "E5",
            &format!("path_n{n}"),
            format!(
                "p={:.4} width={:?} backend={}",
                report.probability,
                report.decomposition_width,
                report.backend_name()
            ),
        );
        let weights = tid.fact_weights();
        group.bench_with_input(BenchmarkId::new("engine_auto", n), &n, |b, _| {
            b.iter(|| {
                engine
                    .reevaluate_with_weights(&tid, &query, &weights)
                    .unwrap()
                    .probability
            })
        });
    }
    group.finish();

    // Bipartite data: width grows with n; the DPLL (lineage) method's cost
    // explodes, the pipeline's width-limited back-end eventually refuses.
    let mut group = criterion.benchmark_group("e5_bipartite_data");
    for &n in &[2usize, 3, 4, 5] {
        let tid = workloads::rst_bipartite_tid(n, 0.5, 3);
        let width = engine.decomposition_for(&tid).0.width();
        report_value("E5", &format!("bipartite_n{n}_width"), width);
        let dpll = Engine::builder().backend(BackendKind::Dpll).build();
        let weights = tid.fact_weights();
        group.bench_with_input(BenchmarkId::new("dpll_lineage", n), &n, |b, _| {
            b.iter(|| {
                dpll.reevaluate_with_weights(&tid, &query, &weights)
                    .unwrap()
                    .probability
            })
        });
    }
    group.finish();
    criterion.final_summary();
}
