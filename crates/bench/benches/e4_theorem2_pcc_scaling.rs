//! E4 — Theorem 2: pcc-instances with correlated annotations (contributor
//! trust events shared across facts) stay tractable when the joint
//! instance+circuit decomposition has bounded width.
//!
//! The timed loop sweeps through `reevaluate_with_weights` under the
//! instance's own weights: a repeated `evaluate` reads the answer its first
//! run memoised, so it would time a cache hit, not the sweep.

use criterion::BenchmarkId;
use stuc_bench::{criterion_config, report_value};
use stuc_core::engine::{Engine, Representation};
use stuc_core::workloads;
use stuc_query::cq::ConjunctiveQuery;

fn main() {
    let mut criterion = criterion_config();
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("Claim(x, y)").unwrap();

    // Correctness check against enumeration on a small instance.
    let small = workloads::contributor_pcc(8, 3, 0.7, 0.9, 5);
    let exact = engine.evaluate(&small, &query).unwrap();
    let reference = workloads::pcc_query_probability_by_enumeration(&small, &query);
    assert!((exact.probability - reference).abs() < 1e-9);
    report_value(
        "E4",
        "small_pcc_probability",
        format!("{:.6}", exact.probability),
    );
    report_value(
        "E4",
        "small_pcc_joint_width",
        exact.decomposition_width.unwrap_or(0),
    );

    // Scaling in the number of claims with a fixed number of contributors:
    // correlations stay local-ish, so the pipeline scales.
    let mut group = criterion.benchmark_group("e4_theorem2_pcc_scaling");
    for &claims in &[10usize, 20, 40, 80] {
        let pcc = workloads::contributor_pcc(claims, 4, 0.7, 0.9, 11);
        let report = engine.evaluate(&pcc, &query).unwrap();
        report_value(
            "E4",
            &format!("claims{claims}"),
            format!(
                "p={:.4} joint_width={:?}",
                report.probability, report.decomposition_width
            ),
        );
        let weights = pcc.weights().unwrap().into_owned();
        group.bench_with_input(BenchmarkId::new("pcc_pipeline", claims), &claims, |b, _| {
            b.iter(|| {
                engine
                    .reevaluate_with_weights(&pcc, &query, &weights)
                    .unwrap()
                    .probability
            })
        });
    }
    group.finish();
    criterion.final_summary();
}
