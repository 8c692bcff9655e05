//! End-to-end checks of the observability surface at the umbrella level:
//! every engine entry point advances its process-global counters, reports
//! carry trace ids and stage breakdowns consistent with their wall time,
//! the cache metrics move when the caches do, and `Engine::with_tracing`
//! actually records spans.
//!
//! The registry is process-cumulative and tests in this binary run
//! concurrently, so every assertion is a `>=` delta around this test's own
//! calls — never an absolute value or an exact count.

use std::time::Duration;
use stuc::core::workloads;
use stuc::incr::Delta;
use stuc::obs::{registry, trace, MetricReading};
use stuc::query::cq::ConjunctiveQuery;
use stuc::{Engine, EvaluationReport};

/// Current value of a global counter (0 when not yet registered).
fn counter(name: &str) -> u64 {
    registry()
        .snapshot()
        .into_iter()
        .find(|m| m.name == name)
        .map(|m| match m.reading {
            MetricReading::Counter(v) => v,
            other => panic!("{name} is not a counter: {other:?}"),
        })
        .unwrap_or(0)
}

fn chain_tid() -> stuc::data::tid::TidInstance {
    workloads::path_tid(12, 0.5, 13)
}

fn circuit_query() -> ConjunctiveQuery {
    ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap()
}

#[test]
fn every_entry_point_advances_its_counters() {
    let before: Vec<u64> = ENTRY_COUNTERS.iter().map(|n| counter(n)).collect();

    let engine = Engine::new();
    let mut tid = chain_tid();
    let query = circuit_query();
    engine.evaluate(&tid, &query).unwrap();
    engine.evaluate_text(&tid, "?- R(x, y).").unwrap();
    engine.evaluate_batch(&tid, std::slice::from_ref(&query));
    engine.marginals(&tid, &query).unwrap();
    engine.sample_worlds(&tid, &query, 3, 7).unwrap();
    engine.most_probable_world(&tid, &query).unwrap();
    let delta = Delta::new().set_probability(stuc::data::instance::FactId(0), 0.25);
    engine.apply_update(&mut tid, &delta).unwrap();
    // One failing call: a parse error must count as a call and an error.
    engine.evaluate_text(&tid, "?- R(x").unwrap_err();

    for (name, &was) in ENTRY_COUNTERS.iter().zip(&before) {
        let expected = if *name == "stuc_engine_evaluate_text_total" {
            2 // one ok + one parse error
        } else {
            1
        };
        let now = counter(name);
        assert!(
            now >= was + expected,
            "{name}: {was} -> {now}, expected at least +{expected}"
        );
    }
}

const ENTRY_COUNTERS: [&str; 9] = [
    "stuc_engine_evaluate_total",
    "stuc_engine_evaluate_text_total",
    "stuc_engine_evaluate_text_errors_total",
    "stuc_engine_evaluate_goal_total",
    "stuc_engine_evaluate_batch_total",
    "stuc_engine_marginals_total",
    "stuc_engine_sample_worlds_total",
    "stuc_engine_most_probable_world_total",
    "stuc_engine_apply_update_total",
];

/// Stage names the engine is allowed to report, across both the
/// programmatic and the textual pipeline.
const STAGE_VOCABULARY: [&str; 8] = [
    "safe-plan",
    "cache-lookup",
    "decompose",
    "compile-lineage",
    "weights",
    "sweep",
    "lower",
    "route",
];

fn check_report_timing(report: &EvaluationReport) {
    assert!(report.trace_id > 0);
    assert!(
        !report.stage_timings.is_empty(),
        "no stages recorded: {report:?}"
    );
    assert!(
        report.stage_timings.total() <= report.wall_time,
        "stages sum to {:?} but the wall time is {:?}",
        report.stage_timings.total(),
        report.wall_time
    );
    for stage in report.stage_timings.stages() {
        assert!(
            STAGE_VOCABULARY.contains(&stage.name),
            "unknown stage {:?}",
            stage.name
        );
    }
}

#[test]
fn reports_carry_trace_ids_and_stage_breakdowns() {
    let engine = Engine::new();
    let tid = chain_tid();

    // Circuit pipeline: the compile and sweep stages must be visible.
    let cold = engine.evaluate(&tid, &circuit_query()).unwrap();
    check_report_timing(&cold);
    for stage in [
        "cache-lookup",
        "decompose",
        "compile-lineage",
        "weights",
        "sweep",
    ] {
        assert!(
            cold.stage_timings.get(stage).is_some(),
            "cold circuit evaluation must record {stage:?}: {:?}",
            cold.stage_timings
        );
    }

    // Warm evaluation: same vocabulary, a fresh (larger) trace id.
    let warm = engine.evaluate(&tid, &circuit_query()).unwrap();
    check_report_timing(&warm);
    assert!(warm.trace_id > cold.trace_id, "trace ids must increase");

    // Textual pipeline: lowering and routing stages join the breakdown.
    let text = engine.evaluate_text(&tid, "?- R(x, y).").unwrap();
    let goal = &text.goals[0].report;
    check_report_timing(goal);
    assert!(goal.stage_timings.get("lower").is_some(), "{goal:?}");
    assert!(goal.stage_timings.get("route").is_some(), "{goal:?}");
}

/// The circuit-graph decomposition is built inside `compile-lineage`: the
/// `weights` stage after it only borrows the TID's weight table.
#[test]
fn a_cold_goal_times_its_circuit_decomposition_under_compile_lineage() {
    let tid = workloads::path_tid(5_000, 0.5, 13);
    let cold = Engine::new().evaluate(&tid, &circuit_query()).unwrap();
    let stage = |name| {
        cold.stage_timings
            .get(name)
            .unwrap_or_else(|| panic!("no {name:?} stage: {:?}", cold.stage_timings))
    };
    let (compile, weights) = (stage("compile-lineage"), stage("weights"));
    assert!(
        weights * 10 < compile,
        "weights {weights:?} is not under a tenth of compile-lineage {compile:?}"
    );
}

#[test]
fn cache_counters_move_with_the_caches() {
    let hits_before = counter("stuc_cache_lineage_hits_total");
    let misses_before = counter("stuc_cache_lineage_misses_total");

    let engine = Engine::new();
    let tid = chain_tid();
    let cold = engine.evaluate(&tid, &circuit_query()).unwrap();
    assert!(!cold.lineage_cached);
    let warm = engine.evaluate(&tid, &circuit_query()).unwrap();
    assert!(warm.lineage_cached);

    assert!(counter("stuc_cache_lineage_misses_total") > misses_before);
    assert!(counter("stuc_cache_lineage_hits_total") > hits_before);
    // The per-engine snapshot agrees in kind with the global counters.
    let stats = engine.cache_stats();
    assert!(stats.lineages.hits >= 1);
    assert!(stats.lineages.misses >= 1);
}

#[test]
fn answer_counters_count_memoised_answers_only() {
    let hits_before = counter("stuc_cache_answer_hits_total");
    let misses_before = counter("stuc_cache_answer_misses_total");

    let engine = Engine::new();
    let tid = chain_tid();
    let query = circuit_query();
    let answers = |engine: &Engine| {
        let stats = engine.cache_stats().answers;
        (stats.hits, stats.misses)
    };
    let cold = engine.evaluate(&tid, &query).unwrap();
    assert_eq!(answers(&engine), (0, 1), "the first evaluation sweeps");
    assert!(cold.stage_timings.get("sweep").is_some());
    // What-if weights never read or write the memo, even when they equal
    // the instance's own.
    engine
        .reevaluate_with_weights(&tid, &query, &tid.fact_weights())
        .unwrap();
    assert_eq!(answers(&engine), (0, 1));
    let warm = engine.evaluate(&tid, &query).unwrap();
    assert_eq!(answers(&engine), (1, 1), "the repeat reads the memo");
    assert_eq!(warm.probability.to_bits(), cold.probability.to_bits());
    let stages: Vec<&str> = warm.stage_timings.stages().iter().map(|s| s.name).collect();
    assert_eq!(
        stages,
        ["cache-lookup"],
        "a hit records no weights or sweep"
    );

    assert!(counter("stuc_cache_answer_hits_total") > hits_before);
    assert!(counter("stuc_cache_answer_misses_total") > misses_before);
}

#[test]
fn sweep_metrics_count_runs_and_arena_reuse() {
    let runs_before = counter("stuc_sweep_runs_total");
    let reuses_before = counter("stuc_sweep_arena_reuses_total");

    let engine = Engine::new();
    let tid = chain_tid();
    let weights = tid.fact_weights();
    // `reevaluate_with_weights` sweeps on every call; a repeated
    // `evaluate` would read its memoised answer instead.
    engine
        .reevaluate_with_weights(&tid, &circuit_query(), &weights)
        .unwrap();
    engine
        .reevaluate_with_weights(&tid, &circuit_query(), &weights)
        .unwrap();

    assert!(counter("stuc_sweep_runs_total") >= runs_before + 2);
    // The second, cache-hitting evaluation reuses the warmed arena.
    assert!(counter("stuc_sweep_arena_reuses_total") > reuses_before);
    assert!(counter("stuc_sweep_table_entries_total") > 0);
}

#[test]
fn with_tracing_records_spans() {
    let engine = Engine::with_tracing();
    assert!(trace::enabled());
    let tid = chain_tid();
    engine.evaluate(&tid, &circuit_query()).unwrap();
    trace::set_enabled(false);

    let events = trace::snapshot_events();
    let evaluate_span = events
        .iter()
        .find(|e| e.name == "evaluate")
        .expect("the evaluate entry point must appear as a span");
    assert!(evaluate_span.dur_us > 0 || evaluate_span.start_us > 0);
    assert!(
        events.iter().any(|e| e.name == "sweep"),
        "stage marks must land in the tracer too"
    );
    let json = trace::chrome_trace_json(&events);
    assert!(json.contains("\"name\":\"evaluate\""));
}

#[test]
fn wall_times_and_stage_laps_share_one_clock_under_load() {
    let engine = Engine::new();
    let tid = workloads::path_tid(40, 0.5, 13);
    for k in 0..8 {
        let query = ConjunctiveQuery::parse(&format!("R(\"v{k}\", x), R(x, y), R(y, z)")).unwrap();
        let report = engine.evaluate(&tid, &query).unwrap();
        check_report_timing(&report);
        assert!(report.wall_time > Duration::ZERO);
    }
}
