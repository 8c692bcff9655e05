//! Release-mode perf smoke: the asserted speedup bars of the compiled sweep
//! plan, run as a plain `cargo test --release -p stuc-bench --test
//! perf_smoke` so a plan regression fails CI instead of only showing up in
//! bench scrollback.
//!
//! The speedup *bars* are only asserted in release builds — in debug builds
//! (plain `cargo test --workspace`) the tests still exercise both code
//! paths and check agreement, but skip the timing assertions, which would
//! be meaningless without optimisation.

use std::sync::Arc;
use std::time::Duration;
use stuc_bench::timed;
use stuc_circuit::compiled::CompiledCircuit;
use stuc_circuit::dpll::DpllError;
use stuc_core::engine::{Engine, EvalBudget, StucError};
use stuc_core::workloads;
use stuc_graph::elimination::EliminationHeuristic;
use stuc_graph::generators;
use stuc_graph::graph::VertexId;
use stuc_graph::TreeDecomposition;
use stuc_query::cq::ConjunctiveQuery;

fn a2_compiled(n: usize) -> (CompiledCircuit, stuc_circuit::weights::Weights) {
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let tid = workloads::path_tid(n, 0.5, 13);
    let lineage = engine.lineage(&tid, &query).unwrap();
    let weights = tid.fact_weights();
    let compiled =
        CompiledCircuit::compile(Arc::new(lineage), EliminationHeuristic::MinDegree).unwrap();
    (compiled, weights)
}

/// The planned dense sweep must be ≥2x faster than the interpreted HashMap
/// sweep on the a2 workload.
#[test]
fn planned_sweep_is_at_least_2x_faster_than_interpreted() {
    let (compiled, weights) = a2_compiled(450);
    // Warm both paths and check agreement first.
    let planned = compiled.run(&weights, 22).unwrap();
    let interpreted = compiled.run_interpreted(&weights, 22).unwrap();
    assert!((planned.probability - interpreted.probability).abs() < 1e-9);
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the ≥2x speedup bar (run in release)");
        return;
    }
    let planned_time = timed(5, || compiled.run(&weights, 22).unwrap().probability);
    let interpreted_time = timed(5, || {
        compiled.run_interpreted(&weights, 22).unwrap().probability
    });
    let speedup = interpreted_time.as_secs_f64() / planned_time.as_secs_f64();
    assert!(
        speedup >= 2.0,
        "planned dense sweep must be ≥2x faster than the interpreted sweep \
         on the a2 workload ({interpreted_time:?} -> {planned_time:?}, {speedup:.2}x)"
    );
}

/// `run_many` with K=16 scenario lanes must be ≥4x faster than 16
/// sequential `reevaluate_with_weights` calls against the warm engine.
#[test]
fn scenario_lanes_k16_are_at_least_4x_faster_than_sequential() {
    const K: usize = 16;
    let engine = Engine::new();
    let query = ConjunctiveQuery::parse("R(\"c5\", x), R(x, y), R(y, z)").unwrap();
    let tid = workloads::path_tid(80, 0.5, 13);
    engine.evaluate(&tid, &query).unwrap(); // compile + cache the lineage
    let scenarios: Vec<_> = (0..K)
        .map(|k| {
            let mut shadow = tid.clone();
            for i in 0..shadow.fact_count() {
                let p = 0.05 + 0.9 * ((i + k) % 11) as f64 / 11.0;
                shadow.set_probability(stuc_data::instance::FactId(i), p);
            }
            shadow.fact_weights()
        })
        .collect();
    // Agreement first: the lane sweep answers exactly what the sequential
    // path answers.
    let many = engine
        .reevaluate_with_weights_many(&tid, &query, &scenarios)
        .unwrap();
    assert_eq!(many.len(), K);
    for (weights, lane) in scenarios.iter().zip(&many) {
        let single = engine
            .reevaluate_with_weights(&tid, &query, weights)
            .unwrap();
        assert_eq!(single.probability.to_bits(), lane.probability.to_bits());
    }
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the ≥4x speedup bar (run in release)");
        return;
    }
    let lanes_time = timed(5, || {
        engine
            .reevaluate_with_weights_many(&tid, &query, &scenarios)
            .unwrap()
            .len()
    });
    let sequential_time = timed(5, || {
        scenarios
            .iter()
            .map(|w| {
                engine
                    .reevaluate_with_weights(&tid, &query, w)
                    .unwrap()
                    .probability
            })
            .sum::<f64>()
    });
    let speedup = sequential_time.as_secs_f64() / lanes_time.as_secs_f64();
    assert!(
        speedup >= 4.0,
        "K=16 scenario lanes must be ≥4x faster than 16 sequential \
         re-evaluations ({sequential_time:?} -> {lanes_time:?}, {speedup:.2}x)"
    );
}

/// All-fact marginals (one backward sweep over retained tables) must be
/// ≥5x faster than n single-fact conditioned evaluations on the a4
/// workload (80-fact path instance, chain query: every fact is in the
/// lineage).
#[test]
fn all_fact_marginals_are_at_least_5x_faster_than_conditioned_evaluation() {
    let engine = Engine::new();
    let tid = workloads::path_tid(80, 0.5, 13);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let weights = tid.fact_weights();
    let evidence = engine.evaluate(&tid, &query).unwrap().probability; // warm the lineage cache

    // The conditioned-WMC baseline the backward sweep replaces: one
    // counting sweep per fact against the warm engine.
    let conditioned_all = || {
        weights
            .iter()
            .map(|(v, prior)| {
                let mut fixed = weights.clone();
                fixed.fix(v, true);
                let conditioned = engine
                    .reevaluate_with_weights(&tid, &query, &fixed)
                    .unwrap()
                    .probability;
                (v, prior * conditioned / evidence)
            })
            .collect::<Vec<_>>()
    };

    // Agreement first: same posteriors within 1e-9, every fact covered.
    let marginals = engine.marginals(&tid, &query).unwrap();
    let baseline = conditioned_all();
    assert_eq!(marginals.len(), tid.fact_count());
    for &(v, reference) in &baseline {
        let got = marginals.get(v).unwrap();
        assert!(
            (got - reference).abs() < 1e-9,
            "{v:?}: {got} vs {reference}"
        );
    }
    assert_eq!(
        marginals.report.sweeps_run, 2,
        "up + backward, nothing more"
    );

    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the ≥5x speedup bar (run in release)");
        return;
    }
    let marginals_time = timed(5, || engine.marginals(&tid, &query).unwrap().len());
    let conditioned_time = timed(5, || conditioned_all().len());
    let speedup = conditioned_time.as_secs_f64() / marginals_time.as_secs_f64();
    assert!(
        speedup >= 5.0,
        "all-fact marginals must be ≥5x faster than {} conditioned \
         evaluations ({conditioned_time:?} -> {marginals_time:?}, {speedup:.2}x)",
        weights.len()
    );
}

/// `evaluate_batch` over a cold engine must be ≥3x faster than the same 64
/// queries evaluated sequentially, on machines with ≥4 cores. The bar is a
/// *parallelism* bar — the batch path's only advantage here is its scoped
/// worker pool over the sharded caches — so it is skipped (with a note)
/// where the hardware cannot show it.
#[test]
fn batch_evaluation_is_at_least_3x_faster_than_sequential_on_4_cores() {
    let engine = Engine::new();
    let tid = workloads::path_tid(80, 0.5, 13);
    // 64 distinct anchored self-join chains: no two slots share a lineage,
    // every one pays the full circuit pipeline (same shape as the a4 bench).
    let queries: Vec<ConjunctiveQuery> = (0..64)
        .map(|k| ConjunctiveQuery::parse(&format!("R(\"c{k}\", x), R(x, y), R(y, z)")).unwrap())
        .collect();

    // Agreement first, in every build profile and on any core count.
    let batch = engine.evaluate_batch(&tid, &queries);
    assert_eq!(batch.succeeded(), queries.len());
    let oracle = Engine::new();
    for (query, result) in queries.iter().zip(&batch.reports) {
        let expected = oracle.evaluate(&tid, query).unwrap().probability;
        let got = result.as_ref().unwrap().probability;
        assert!((expected - got).abs() < 1e-9, "{query:?}");
    }

    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the ≥3x batch speedup bar (run in release)");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("only {cores} core(s) available: skipping the ≥3x batch speedup bar");
        return;
    }
    // Fresh engines inside the timed closures keep every iteration cold, so
    // both sides pay the full compile pipeline and only the parallelism
    // differs.
    let sequential_time = timed(3, || {
        let engine = Engine::new();
        queries
            .iter()
            .map(|q| engine.evaluate(&tid, q).unwrap().probability)
            .sum::<f64>()
    });
    let batch_time = timed(3, || {
        let engine = Engine::new();
        engine.evaluate_batch(&tid, &queries).succeeded()
    });
    let speedup = sequential_time.as_secs_f64() / batch_time.as_secs_f64();
    assert!(
        speedup >= 3.0,
        "evaluate_batch must be ≥3x faster than 64 sequential evaluations \
         on {cores} cores ({sequential_time:?} -> {batch_time:?}, {speedup:.2}x)"
    );
}

/// Best-of-`runs` wall times of `f` without and with a treatment,
/// alternating run by run so that drift on the host lands on both sides
/// alike: `treat(true)` before each treated run, `treat(false)` after it.
fn timed_alternately<R>(
    runs: usize,
    mut treat: impl FnMut(bool),
    mut f: impl FnMut() -> R,
) -> (Duration, Duration) {
    let (mut plain, mut treated) = (Duration::MAX, Duration::MAX);
    for _ in 0..runs {
        plain = plain.min(timed(1, &mut f));
        treat(true);
        treated = treated.min(timed(1, &mut f));
        treat(false);
    }
    (plain, treated)
}

/// The observability layer must be close to free. Two bars on the warm a2
/// sweep (cached lineage, pure counting — a goal long enough that a 5%
/// ratio measures the tracer rather than timer noise; swept through
/// `reevaluate_with_weights`, since a repeated `evaluate` reads its
/// memoised answer):
///
/// * tracer **enabled**, the evaluate loop stays within 5% of the
///   tracer-disabled baseline;
/// * tracer **disabled** (the default), a span is approximately nothing —
///   one relaxed atomic load, bounded here at well under a microsecond.
#[test]
fn observability_overhead_stays_within_the_bars() {
    use stuc_obs::trace;
    let engine = Engine::new();
    let tid = workloads::path_tid(80, 0.5, 13);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    engine.evaluate(&tid, &query).unwrap(); // compile + cache the lineage
    let weights = tid.fact_weights();
    let sweep = || {
        engine
            .reevaluate_with_weights(&tid, &query, &weights)
            .unwrap()
            .probability
    };

    // Both configurations answer identically (the tracer only records).
    trace::set_enabled(true);
    let traced_p = sweep();
    trace::set_enabled(false);
    let plain_p = sweep();
    assert_eq!(traced_p.to_bits(), plain_p.to_bits());

    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 5% observability overhead bar (run in release)");
        return;
    }

    let loop_once = || (0..64).map(|_| sweep()).sum::<f64>();
    let (baseline, traced) = timed_alternately(10, trace::set_enabled, loop_once);
    trace::clear_events();
    let ratio = traced.as_secs_f64() / baseline.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio <= 1.05,
        "tracing-enabled evaluation must stay within 5% of the disabled \
         baseline ({baseline:?} -> {traced:?}, {ratio:.3}x)"
    );

    // Disabled spans: 10k of them in well under a millisecond, i.e. the
    // instrumentation costs ~nothing when nobody asked for traces.
    let disabled_spans = timed(10, || {
        for _ in 0..10_000 {
            let _span = trace::span("noop");
        }
    });
    assert!(
        disabled_spans < std::time::Duration::from_millis(1),
        "10k disabled spans must cost well under 1ms, got {disabled_spans:?}"
    );
}

/// The sampling profiler must be close to free for the profiled process.
/// On the warm a2 sweep (cached lineage, pure counting, swept through
/// `reevaluate_with_weights`):
///
/// * with the profiler **enabled** (span-stack shadow maintained) and a
///   live sampler thread reading it at the default 99 Hz, the evaluate
///   loop stays within 5% of the profiler-disabled baseline;
/// * the answers are bit-identical either way — sampling only *reads*.
#[test]
fn profiler_overhead_stays_within_the_bar() {
    use stuc_obs::profile;
    let engine = Engine::new();
    let tid = workloads::path_tid(80, 0.5, 13);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    engine.evaluate(&tid, &query).unwrap(); // compile + cache the lineage
    let weights = tid.fact_weights();
    let sweep = || {
        engine
            .reevaluate_with_weights(&tid, &query, &weights)
            .unwrap()
            .probability
    };

    profile::set_enabled(true);
    let profiled_p = sweep();
    profile::set_enabled(false);
    let plain_p = sweep();
    assert_eq!(profiled_p.to_bits(), plain_p.to_bits());

    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 5% profiler overhead bar (run in release)");
        return;
    }

    let loop_once = || (0..64).map(|_| sweep()).sum::<f64>();
    // A sampler runs through each profiled run only; it is started and
    // stopped outside the timed region, and stopping it restores the
    // disabled state for the next baseline run.
    let mut sampler = None;
    let mut total_samples = 0;
    let treat = |on: bool| {
        if on {
            sampler = Some(profile::Sampler::start(profile::default_hz()));
        } else if let Some(running) = sampler.take() {
            total_samples += running.stop().total_samples;
        }
    };
    let (baseline, profiled) = timed_alternately(10, treat, loop_once);
    let ratio = profiled.as_secs_f64() / baseline.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio <= 1.05,
        "profiled evaluation must stay within 5% of the disabled baseline \
         ({baseline:?} -> {profiled:?}, {ratio:.3}x)"
    );
    assert!(
        total_samples > 0,
        "the sampler must actually have taken samples while the loop ran"
    );
}

/// Budget checkpoints must be close to free: on the warm a2 workload under
/// a far-away deadline (every checkpoint pays a real `Instant::now` poll;
/// swept through `reevaluate_with_weights`, since a repeated `evaluate`
/// reads its memoised answer without reaching the sweep's checkpoints),
/// the wall time spent *inside* the polls — as reported by the engine's
/// own `stuc_engine_budget_check_seconds` histogram — must stay at or
/// below 2% of the evaluations' total wall time. Poll time and wall time
/// come from the very same runs, so a noisy neighbour (CI runs this file's
/// tests in parallel) inflates the denominator along with everything else
/// instead of faking an overhead that is not there — which is why this is
/// not an end-to-end A/B timing, where cross-run scheduler drift dwarfs a
/// 2% bar.
#[test]
fn budget_checks_cost_at_most_2_percent_on_the_a2_sweep() {
    let engine = Engine::new();
    let tid = workloads::path_tid(450, 0.5, 13);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let far = EvalBudget::with_deadline(Duration::from_secs(3600));
    let weights = tid.fact_weights();
    let budgeted_sweep = || {
        engine
            .with_budget(&far, || {
                engine.reevaluate_with_weights(&tid, &query, &weights)
            })
            .unwrap()
            .probability
    };

    // Agreement first, in every build profile: a budget that never trips
    // changes nothing about the answer.
    let plain = engine.evaluate(&tid, &query).unwrap().probability;
    let budgeted = budgeted_sweep();
    assert_eq!(plain.to_bits(), budgeted.to_bits());

    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 2% budget overhead bar (run in release)");
        return;
    }
    // The engine publishes per-evaluation poll time into this process-global
    // histogram (registered during the agreement run above); the delta over
    // N runs is the total cost of all budget checks in those runs.
    let histogram = stuc_obs::metrics::registry().histogram(
        "stuc_engine_budget_check_seconds",
        "wall time spent polling evaluation budgets",
    );
    const RUNS: u32 = 300;
    let spent_before = histogram.sum_seconds();
    let started = std::time::Instant::now();
    for _ in 0..RUNS {
        std::hint::black_box(budgeted_sweep());
    }
    let wall = started.elapsed().as_secs_f64();
    let spent = histogram.sum_seconds() - spent_before;
    let share = spent / wall.max(f64::MIN_POSITIVE);
    assert!(
        share <= 0.02,
        "budget checks must cost at most 2% of the warm a2 sweep \
         ({spent:.6}s of polls inside {wall:.6}s of evaluation, {:.2}%)",
        share * 100.0
    );
}

/// Warm goals cost O(lineage), not O(instance): the instance identity and
/// the weight table are memoised, so a warm `evaluate_goal` on an anchored
/// 3-hop goal over a 50k-fact path takes at most 4x what it takes over a
/// 1k-fact path (a render-per-lookup identity made it about 63x). Answers
/// are bit-identical to a cold engine's; in debug builds only the 1k
/// agreement runs.
#[test]
fn warm_goals_stay_flat_from_1k_to_50k_facts() {
    let program = stuc_lang::parse_program("?- R(\"c5\", x), R(x, y), R(y, z).").unwrap();
    let goal = &program.queries()[0].goal;
    let warm_goal_time = |n: usize| {
        let tid = workloads::path_tid(n, 0.5, 13);
        let engine = Engine::new();
        let cold = Engine::new().evaluate_goal(&tid, goal, &[]).unwrap();
        engine.evaluate_goal(&tid, goal, &[]).unwrap(); // compile + cache
        let warm = engine.evaluate_goal(&tid, goal, &[]).unwrap();
        assert!(warm.report.lineage_cached);
        assert_eq!(warm.probability.to_bits(), cold.probability.to_bits());
        timed(200, || {
            engine.evaluate_goal(&tid, goal, &[]).unwrap().probability
        })
    };
    let small = warm_goal_time(1_000);
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 50k rung and the ≤4x flatness bar (run in release)");
        return;
    }
    let large = warm_goal_time(50_000);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio <= 4.0,
        "a warm goal at 50k facts must cost at most 4x one at 1k facts \
         ({small:?} -> {large:?}, {ratio:.2}x)"
    );
}

/// Decomposition validation is linear: checking a 50k-bag path
/// decomposition costs at most 15x checking a 5k-bag one (the scan of every
/// bag per edge it replaced was quadratic). Both verdicts are `Ok` in every
/// build profile; the bar is release-only.
#[test]
fn validation_scales_linearly_from_5k_to_50k_bags() {
    let path = |bags: usize| {
        let graph = generators::path(bags + 1);
        let mut td = TreeDecomposition::new();
        let mut previous = None;
        for i in 0..bags {
            previous = Some(td.add_bag(previous, [VertexId(i), VertexId(i + 1)]));
        }
        (graph, td)
    };
    let (small_graph, small) = path(5_000);
    let (large_graph, large) = path(50_000);
    assert_eq!(small.validate(&small_graph), Ok(()));
    assert_eq!(large.validate(&large_graph), Ok(()));
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the ≤15x validation scaling bar (run in release)");
        return;
    }
    let small_time = timed(5, || small.validate(&small_graph));
    let large_time = timed(5, || large.validate(&large_graph));
    let ratio = large_time.as_secs_f64() / small_time.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio <= 15.0,
        "validating 10x the bags must cost at most 15x \
         ({small_time:?} -> {large_time:?}, {ratio:.2}x)"
    );
}

/// Steady-state repeated evaluation performs zero table allocations,
/// verified through the arena-reuse counter in `WmcReport`. Holds in every
/// build profile.
#[test]
fn steady_state_sweeps_allocate_nothing() {
    let (compiled, weights) = a2_compiled(150);
    let first = compiled.run(&weights, 22).unwrap();
    assert!(
        first.table_allocations > 0,
        "the first run must warm the arena"
    );
    for _ in 0..8 {
        let again = compiled.run(&weights, 22).unwrap();
        assert_eq!(
            again.table_allocations, 0,
            "steady-state planned sweeps must not allocate tables"
        );
        assert_eq!(again.probability.to_bits(), first.probability.to_bits());
    }
}

/// Writes cost O(delta) on top of linear passes, not O(instance²): one
/// insert and one delete on a path holding the warm unanchored pair
/// `R(x, y), R(y, z)` cost less than 20x as much at 20k facts as at 2k
/// (linear is about 10x; a delta join that scans the relation for every
/// partial match is about 100x). Each write is checked against a cold
/// engine at 2k; in debug builds only that agreement runs.
#[test]
fn writes_scale_linearly_from_2k_to_20k_facts() {
    use stuc_core::engine::Delta;
    use stuc_data::instance::FactId;
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    // Best of five rounds on one warm engine: each round extends the path
    // by one fact and deletes the fact now in the middle.
    let write_time = |n: usize, check: bool| {
        let mut tid = workloads::path_tid(n, 0.5, 13);
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        (0..5)
            .map(|round| {
                let end = n + round;
                let insert =
                    Delta::new().insert("R", &[&format!("c{end}"), &format!("c{}", end + 1)], 0.4);
                let delete = Delta::new().delete(FactId(n / 2));
                let started = std::time::Instant::now();
                let inserted = engine.apply_update(&mut tid, &insert).unwrap();
                let deleted = engine.apply_update(&mut tid, &delete).unwrap();
                let elapsed = started.elapsed();
                assert_eq!(inserted.lineages_rebuilt + deleted.lineages_patched, 2);
                if check {
                    let warm = engine.evaluate(&tid, &query).unwrap();
                    let cold = Engine::new().evaluate(&tid, &query).unwrap();
                    assert!(warm.lineage_cached);
                    assert!((warm.probability - cold.probability).abs() < 1e-9);
                }
                elapsed
            })
            .min()
            .unwrap()
    };
    let small = write_time(2_000, true);
    if cfg!(debug_assertions) {
        eprintln!(
            "debug build: skipping the 20k rung and the <20x write scaling bar (run in release)"
        );
        return;
    }
    let large = write_time(20_000, false);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio < 20.0,
        "an insert and a delete at 20k facts must cost less than 20x the same \
         writes at 2k ({small:?} -> {large:?}, {ratio:.2}x)"
    );
}

/// Inserts alone scale linearly: an insert that extends a path holding
/// the warm unanchored pair `R(x, y), R(y, z)` rebuilds that lineage with a
/// cold build, which is linear in the instance, so it costs less than
/// INSERT_BAR times as much at 20k facts as at 2k (linear is about 10x;
/// ten interleaved measurements read 6.9-14.9x, and 9.9-17.3x for the
/// insert that patched the circuit). Each insert is checked against a cold
/// engine at 2k; in debug builds only that agreement runs.
#[test]
fn inserts_scale_linearly_from_2k_to_20k_facts() {
    const INSERT_BAR: f64 = 18.0;
    use stuc_core::engine::Delta;
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    // Best of five inserts on one warm engine, each extending the path.
    let insert_time = |n: usize, check: bool| {
        let mut tid = workloads::path_tid(n, 0.5, 13);
        let engine = Engine::new();
        engine.evaluate(&tid, &query).unwrap();
        (0..5)
            .map(|round| {
                let end = n + round;
                let insert =
                    Delta::new().insert("R", &[&format!("c{end}"), &format!("c{}", end + 1)], 0.4);
                let started = std::time::Instant::now();
                let report = engine.apply_update(&mut tid, &insert).unwrap();
                let elapsed = started.elapsed();
                assert_eq!(report.lineages_rebuilt, 1);
                if check {
                    let warm = engine.evaluate(&tid, &query).unwrap();
                    let cold = Engine::new().evaluate(&tid, &query).unwrap();
                    assert!(warm.lineage_cached);
                    assert!((warm.probability - cold.probability).abs() < 1e-9);
                }
                elapsed
            })
            .min()
            .unwrap()
    };
    let small = insert_time(2_000, true);
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 20k rung and the insert scaling bar (run in release)");
        return;
    }
    let large = insert_time(20_000, false);
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio < INSERT_BAR,
        "an insert at 20k facts must cost less than {INSERT_BAR}x one at 2k \
         ({small:?} -> {large:?}, {ratio:.2}x)"
    );
}

/// Reads do not drift across writes: on `path_tid(1000)` holding the warm
/// unanchored pair `R(x, y), R(y, z)`, eight rounds of an insert (which
/// rebuilds the lineage) and a delete (which rewires it) leave the median
/// warm read under 2x the one before the first round (each read sweeps,
/// through `reevaluate_with_weights` under the instance's own weights,
/// since a repeated `evaluate` reads its memoised answer; patching the
/// circuit on every insert made it 226-351x). Every read after a round
/// agrees with a cold engine; in debug builds only that agreement runs.
#[test]
fn reads_stay_flat_across_an_insert_history() {
    use stuc_core::engine::Delta;
    use stuc_data::instance::FactId;
    let n = 1_000;
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let mut tid = workloads::path_tid(n, 0.5, 13);
    let engine = Engine::new();
    engine.evaluate(&tid, &query).unwrap();
    // Median of 41 warm reads.
    let read = |tid: &stuc_data::tid::TidInstance| {
        let weights = tid.fact_weights();
        let mut times: Vec<Duration> = (0..41)
            .map(|_| {
                let started = std::time::Instant::now();
                std::hint::black_box(
                    engine
                        .reevaluate_with_weights(tid, &query, &weights)
                        .unwrap(),
                );
                started.elapsed()
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let before = read(&tid);
    for round in 0..8 {
        let end = n + round;
        let insert = Delta::new().insert("R", &[&format!("c{end}"), &format!("c{}", end + 1)], 0.4);
        engine.apply_update(&mut tid, &insert).unwrap();
        engine
            .apply_update(&mut tid, &Delta::new().delete(FactId(n / 2 + round)))
            .unwrap();
        let warm = engine.evaluate(&tid, &query).unwrap();
        let cold = Engine::new().evaluate(&tid, &query).unwrap();
        assert!(warm.lineage_cached);
        assert!(
            (warm.probability - cold.probability).abs() < 1e-9,
            "round {round}"
        );
    }
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the <2x read drift bar (run in release)");
        return;
    }
    let after = read(&tid);
    let ratio = after.as_secs_f64() / before.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio < 2.0,
        "a warm read after 8 insert+delete rounds must cost under 2x one before \
         ({before:?} -> {after:?}, {ratio:.2}x)"
    );
}

/// A warm repeat on unchanged data skips the sweep: the instance identity
/// keying the lineage entry covers every weight, so a repeated `evaluate`
/// reads the answer its first run memoised. On `path_tid(10_000)` with the
/// unanchored pair `R(x, y), R(y, z)`, the median of 41 warm `evaluate`s is
/// at least 20x below the median of 41 sweeps under the instance's own
/// weights through `reevaluate_with_weights` (about 4 ms against 7 µs,
/// some 550x, on 2 vCPUs), and both answer the same bits. In debug builds
/// only the agreement runs, at 1k facts.
#[test]
fn warm_repeats_skip_the_sweep() {
    let n = if cfg!(debug_assertions) {
        1_000
    } else {
        10_000
    };
    let tid = workloads::path_tid(n, 0.5, 13);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let weights = tid.fact_weights();
    let engine = Engine::new();
    let repeat = || engine.evaluate(&tid, &query).unwrap().probability;
    let sweep = || {
        engine
            .reevaluate_with_weights(&tid, &query, &weights)
            .unwrap()
            .probability
    };
    let first = repeat(); // compiles, sweeps and memoises
    assert_eq!(repeat().to_bits(), first.to_bits());
    assert_eq!(sweep().to_bits(), first.to_bits());
    assert_eq!(engine.cache_stats().answers.hits, 1);
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 10k rung and the ≥20x repeat bar (run in release)");
        return;
    }
    let median = |run: &dyn Fn() -> f64| {
        let mut times: Vec<Duration> = (0..41)
            .map(|_| {
                let started = std::time::Instant::now();
                std::hint::black_box(run());
                started.elapsed()
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let (repeat_median, sweep_median) = (median(&repeat), median(&sweep));
    let ratio = sweep_median.as_secs_f64() / repeat_median.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio >= 20.0,
        "a warm repeat must cost at most 1/20 of a sweep on the 10k-fact path \
         (repeat {repeat_median:?}, sweep {sweep_median:?}, {ratio:.1}x)"
    );
}

/// Cold goals cost O(reach), not O(instance): on a warm engine (the
/// structure decomposition cached), an anchored three-hop goal never seen
/// before takes at 50k facts under 3x what it takes at 1k. The engine
/// neither rebuilds nor revalidates the structure graph per goal, the reach
/// pass seeds from the fact index, and the projection visits only the
/// bags it keeps (rebuilding and revalidating per goal made it about 52x).
/// 120 distinct goals per size, timed alternately between the sizes; each
/// must miss the lineage cache, and the first agrees with a fresh engine.
/// In debug builds only the 1k agreement runs.
#[test]
fn cold_anchored_goals_are_flat_in_n() {
    assert_cold_anchored_goals_flat(|n| workloads::path_tid(n, 0.5, 13));
}

/// The same bar when each goal's reach spans the instance's constant ids:
/// every goal's anchor `c{k}` also starts a three-fact spur through
/// constants interned after the whole path, so the reach holds both low
/// and high ids. Work sized by the spread of ids (not by the reach) grows
/// with the instance here.
#[test]
fn cold_anchored_goals_spanning_the_id_range_are_flat_in_n() {
    assert_cold_anchored_goals_flat(|n| {
        let mut tid = workloads::path_tid(n, 0.5, 13);
        for k in 0..COLD_GOALS + 2 {
            let spur = [
                format!("c{k}"),
                format!("d{k}"),
                format!("e{k}"),
                format!("f{k}"),
            ];
            for hop in spur.windows(2) {
                tid.add_fact_named("R", &[&hop[0], &hop[1]], 0.5);
            }
        }
        tid
    });
}

const COLD_GOALS: usize = 120;

/// Times `COLD_GOALS` unseen goals `R("c{k}", x), R(x, y), R(y, z)` on
/// `instance(1_000)` and `instance(50_000)` alternately, each on a warm
/// engine, and asserts the medians are under 3x apart.
fn assert_cold_anchored_goals_flat(instance: impl Fn(usize) -> stuc_data::tid::TidInstance) {
    let goal =
        |k: usize| ConjunctiveQuery::parse(&format!("R(\"c{k}\", x), R(x, y), R(y, z)")).unwrap();
    let warm_engine = |n: usize| {
        let tid = instance(n);
        let engine = Engine::new();
        engine.evaluate(&tid, &goal(0)).unwrap(); // caches the decomposition
        (tid, engine)
    };
    let cold_goal = |(tid, engine): &(stuc_data::tid::TidInstance, Engine), k: usize| {
        let query = goal(k);
        let started = std::time::Instant::now();
        let report = engine.evaluate(tid, &query).unwrap();
        let elapsed = started.elapsed();
        assert!(!report.lineage_cached && report.decomposition_cached);
        (elapsed, report.probability)
    };
    let small = warm_engine(1_000);
    let (_, first) = cold_goal(&small, 1);
    let fresh = Engine::new().evaluate(&small.0, &goal(1)).unwrap();
    assert_eq!(first.to_bits(), fresh.probability.to_bits());
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the 50k rung and the <3x flatness bar (run in release)");
        return;
    }
    let large = warm_engine(50_000);
    let (mut small_times, mut large_times) = (Vec::new(), Vec::new());
    for k in 2..2 + COLD_GOALS {
        small_times.push(cold_goal(&small, k).0);
        large_times.push(cold_goal(&large, k).0);
    }
    let median = |times: &mut Vec<Duration>| {
        times.sort_unstable();
        times[times.len() / 2]
    };
    let (small_median, large_median) = (median(&mut small_times), median(&mut large_times));
    let ratio = large_median.as_secs_f64() / small_median.as_secs_f64().max(f64::MIN_POSITIVE);
    assert!(
        ratio < 3.0,
        "a cold anchored goal at 50k facts must cost under 3x one at 1k facts \
         (medians {small_median:?} -> {large_median:?}, {ratio:.2}x)"
    );
}

/// On width-2 data Auto sends `R(x,y),R(y,z)` to DPLL, whose memo used to
/// pass 3 GB and abort the process. Under the memo bound the goal returns
/// an answer or the typed memo error, and the process's peak resident
/// memory (every test in this binary included) stays under 1 GiB. Release
/// only: the search runs about 4 s optimised.
#[test]
fn dpll_on_width_2_data_stays_bounded_instead_of_aborting() {
    if cfg!(debug_assertions) {
        eprintln!("debug build: skipping the width-2 DPLL rung (run in release)");
        return;
    }
    let tid = workloads::partial_k_tree_tid(200, 2, 0.5, 3);
    let query = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    match Engine::new().evaluate(&tid, &query) {
        Ok(report) => assert!((0.0..=1.0).contains(&report.probability)),
        Err(StucError::Dpll(DpllError::MemoBudgetExhausted)) => {}
        Err(other) => panic!("expected an answer or the memo bound, got {other:?}"),
    }
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return;
    };
    let peak_kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    assert!(
        peak_kib < 1 << 20,
        "peak resident memory {peak_kib} KiB is not under 1 GiB"
    );
}
