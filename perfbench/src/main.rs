//! `perfbench` — the end-to-end and per-layer benchmark of the STUC engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload` is one of `serve_warm`, `text_cold`, `update_mix` (see each
//! module for why it exists). `--seed` changes only the generated inputs.
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` runs the traced variant, prints the per-layer metrics and
//! writes the span file to `.bench_out/`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod goals;
mod http;
mod probes;
mod replay;
mod serve_warm;
mod stats;
mod text_cold;
mod trace;
mod update_mix;

use stats::{median, Metric, Tally};
use std::path::PathBuf;
use trace::Tracer;

/// What a traced run hands back: its span stores (the first one holding a
/// span name is the one its metric is read from), per-operation counts,
/// metrics computed elsewhere, and the tracing overhead.
#[derive(Debug, Default)]
pub struct Traced {
    pub tracers: Vec<Tracer>,
    pub counts: replay::Counts,
    pub extra: Vec<Metric>,
    pub overhead_pct: f64,
    pub tally: Tally,
}

/// Span names whose median self time per call is a per-layer metric
/// (reported as `<name>_ms`).
const LAYER_SPANS: &[&str] = &[
    "serve.round_trip",
    "serve.respond",
    "lang.parse",
    "lang.lower",
    "lang.route",
    "engine.goal",
    "engine.term_eval",
    "engine.identity_hash",
    "data.weights",
    "data.structure_graph",
    "graph.decompose",
    "graph.validate",
    "automata.lineage",
    "circuit.simplify",
    "circuit.compile",
    "circuit.plan",
    "circuit.sweep",
    "incr.reweight",
    "incr.insert",
    "incr.delete",
    "incr.apply_delta",
];

/// Per-operation counts reported as means.
const LAYER_COUNTS: &[&str] = &[
    "lang.terms_per_goal",
    "engine.lineage_lookups_per_goal",
    "graph.width",
    "automata.raw_gates",
    "circuit.gates",
    "circuit.width",
    "circuit.table_entries",
    "circuit.width_drift",
    "incr.bags_touched",
    "incr.gates_rebuilt",
    "incr.fallbacks",
];

fn layer_metrics(traced: &Traced) -> Vec<Metric> {
    let by_tracer: Vec<_> = traced
        .tracers
        .iter()
        .map(|t| (t, t.self_ms_by_name()))
        .collect();
    let first_with = |name: &str| {
        by_tracer
            .iter()
            .find(|(_, by_name)| by_name.contains_key(name))
    };
    let mut metrics = Vec::new();
    for &name in LAYER_SPANS {
        let value = first_with(name).map_or(0.0, |(_, by_name)| median(&by_name[name]));
        metrics.push(Metric::new(format!("{name}_ms"), value, "ms"));
    }
    let transport = first_with("serve.round_trip").map_or(0.0, |(t, _)| {
        median(&t.per_op_gap("serve.round_trip", "serve.respond"))
    });
    metrics.push(Metric::new("serve.transport_ms", transport, "ms"));
    let unattributed = first_with("engine.goal").map_or(0.0, |(t, _)| {
        median(&t.per_op_difference("engine.goal", "engine.replay"))
    });
    metrics.push(Metric::new("engine.unattributed_ms", unattributed, "ms"));
    for &name in LAYER_COUNTS {
        metrics.push(Metric::new(name, traced.counts.mean(name), "count"));
    }
    let lookups = traced.counts.sum("engine.lineage_lookups_per_goal");
    let hits = traced.counts.sum("engine.lineage_hits");
    metrics.push(Metric::new(
        "engine.lineage_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        "ratio",
    ));
    metrics.push(Metric::new(
        "bench.trace_overhead_pct",
        traced.overhead_pct,
        "%",
    ));
    metrics.extend(traced.extra.iter().cloned());
    metrics
}

/// Writes every span store into one Chrome trace-event file; the stores
/// ran one after another, so their spans keep their own times.
fn write_span_file(workload: &str, seed: u64, traced: Traced) -> Result<PathBuf, String> {
    let mut all = Tracer::new();
    for tracer in traced.tracers {
        all.absorb(tracer);
    }
    let path = PathBuf::from(".bench_out").join(format!("{workload}-seed{seed}.trace.json"));
    all.write_chrome(&path).map_err(|e| e.to_string())?;
    Ok(path)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let (seed, seconds) = (args.seed, args.seconds);
    if args.trace {
        let traced = match args.workload.as_str() {
            "serve_warm" => serve_warm::run_traced(seed, seconds)?,
            "text_cold" => text_cold::run_traced(seed, seconds)?,
            "update_mix" => update_mix::run_traced(seed, seconds)?,
            other => return Err(format!("unknown workload {other:?}")),
        };
        let metrics = layer_metrics(&traced);
        let tally = traced.tally;
        let path = write_span_file(&args.workload, seed, traced)?;
        eprintln!("span file: {}", path.display());
        return Ok((tally, metrics));
    }
    let e2e = match args.workload.as_str() {
        "serve_warm" => serve_warm::run(seed, seconds)?,
        "text_cold" => text_cold::run(seed, seconds)?,
        "update_mix" => update_mix::run(seed, seconds)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let factors: Vec<f64> = e2e.speed.iter().map(|&(_, f)| f).collect();
    eprintln!(
        "{} operations, {} writes, {} set-ups, calibration kernel {:.4} ms (median)",
        e2e.ops.len(),
        e2e.writes.len(),
        e2e.setup_s.len(),
        stats::calibration::REFERENCE_MS / median(&factors)
    );
    Ok((e2e.tally, e2e.metrics()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let (tally, metrics) = match run(&args) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
