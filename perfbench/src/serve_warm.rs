//! `serve_warm` — the steady-state number an HTTP client sees.
//!
//! An in-process `stuc_core::serve::Server` (2 workers) serves a 10k-fact
//! jittered path program `R("c{i}", "c{i+1}")`. Two client threads run a
//! closed loop, each on its own connection per request (the protocol is
//! one request per connection), sending `POST /query` and waiting for the
//! reply. The goal mix is fixed: 60% anchored three-hop goals over four
//! anchors, plus the scan `R(x, y)`, the unanchored `R(x, y), R(y, z)`, a
//! two-disjunct anchored union and a ground-negation goal, 10% each. Set-up
//! compiles every goal, so the timed phase runs on warm caches: it
//! exercises the instance-identity hashing a warm lookup pays, while the
//! compile layers do no work. After the timed phase, single-fact
//! reweights land on the served engine's caches (the write metrics).
//!
//! The seed picks the jitter and the anchors; the program only sees the
//! generated text.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use stuc_core::engine::{Delta, Engine};
use stuc_core::serve::http::Request;
use stuc_core::serve::{ServeConfig, Server, ServiceState};
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;
use stuc_graph::generators::SplitMix64;
use stuc_lang::lower::program_instance;
use stuc_lang::parse_program;

use crate::goals::{self, agrees, path, Goal};
use crate::probes::{self, WriteKind};
use crate::replay::{Observed, Replayer};
use crate::stats::{median, peak_rss_mb, EndToEnd, Metric, SetupTimer, Tally, MIN_OPS};
use crate::trace::Tracer;
use crate::Traced;

pub const FACTS: usize = 10_000;
const CLIENTS: usize = 2;
const SETUPS: usize = 3;
const WRITES: usize = 200;
/// Salt so this workload's inputs differ from the others' for one seed.
const SALT: u64 = 0x5e7e_0001;

#[derive(Debug, Clone, Copy)]
enum Shape {
    ThreeHop(usize),
    Scan,
    Pair,
    Union(usize, usize),
    Negation(usize, usize),
}

impl Shape {
    fn body(self) -> String {
        match self {
            Shape::ThreeHop(a) => goals::three_hop(a),
            Shape::Scan => "?- R(x, y).".into(),
            Shape::Pair => "?- R(x, y), R(y, z).".into(),
            Shape::Union(a, b) => {
                format!("?- R(\"c{a}\", x), R(x, y); R(\"c{b}\", x), R(x, y).")
            }
            Shape::Negation(a, b) => {
                format!("?- R(\"c{a}\", x), R(x, y), !R(\"c{b}\", \"c{}\").", b + 1)
            }
        }
    }

    fn reference(self, p: &[f64]) -> f64 {
        match self {
            Shape::ThreeHop(a) => path::three_hop(p, a),
            Shape::Scan => path::scan(p),
            Shape::Pair => path::pair(p),
            Shape::Union(a, b) => 1.0 - (1.0 - path::two_hop(p, a)) * (1.0 - path::two_hop(p, b)),
            Shape::Negation(a, b) => path::two_hop(p, a) * (1.0 - p[b]),
        }
    }
}

/// The goal mix: eight distinct goals and the fixed order clients cycle
/// through (12 anchored slots out of 20).
#[derive(Debug, Clone)]
pub struct Mix {
    shapes: Vec<Shape>,
    pub goals: Vec<Goal>,
    pub slots: Vec<usize>,
}

impl Mix {
    fn new(n: usize, rng: &mut SplitMix64) -> Mix {
        let quarter = n / 4;
        let mut shapes: Vec<Shape> = (0..4)
            .map(|k| Shape::ThreeHop(k * quarter + rng.next_below(quarter - 4)))
            .collect();
        let a = rng.next_below(n / 2 - 3);
        let b = n / 2 + rng.next_below(n / 2 - 3);
        let c = rng.next_below(n - 3);
        let d = (c + 5 + rng.next_below(n / 2)) % n;
        shapes.extend([
            Shape::Scan,
            Shape::Pair,
            Shape::Union(a, b),
            Shape::Negation(c, d),
        ]);
        let goals = shapes
            .iter()
            .map(|s| Goal::new(s.body(), f64::NAN))
            .collect();
        Mix {
            shapes,
            goals,
            slots: vec![0, 1, 4, 2, 5, 3, 0, 6, 1, 7, 2, 3, 4, 0, 5, 1, 2, 6, 3, 7],
        }
    }

    /// Fills in every goal's closed-form answer on probabilities `p`.
    fn set_references(&mut self, p: &[f64]) {
        for (goal, shape) in self.goals.iter_mut().zip(&self.shapes) {
            goal.reference = shape.reference(p);
        }
    }

    fn slot(&self, k: usize) -> &Goal {
        &self.goals[self.slots[k % self.slots.len()]]
    }
}

/// The seeded inputs at size `n`: fact probabilities and the goal mix.
pub fn inputs(seed: u64, n: usize) -> (Vec<f64>, Mix) {
    let mut rng = SplitMix64::new(seed ^ SALT);
    let p = goals::path_probabilities(n, &mut rng);
    let mix = Mix::new(n, &mut rng);
    (p, mix)
}

/// Generates the program, loads it into a 2-worker server and compiles
/// every goal of the mix through it, splitting the timer between goals.
fn setup(seed: u64, timer: &mut SetupTimer) -> Result<Server, String> {
    let (p, mix) = inputs(seed, FACTS);
    let state = ServiceState::from_program(Engine::new(), &goals::path_program(&p))
        .map_err(|e| e.to_string())?;
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, state).map_err(|e| e.to_string())?;
    for goal in &mix.goals {
        timer.split();
        crate::http::query(server.addr(), &goal.body)?;
    }
    Ok(server)
}

/// Prepared state shared by both modes: the running server, the benchmark's
/// own copy of the served instance and the mix with its references.
struct Served {
    server: Server,
    tid: TidInstance,
    p: Vec<f64>,
    mix: Mix,
}

fn prepare(seed: u64, e2e: &mut EndToEnd) -> Result<Served, String> {
    let server = e2e.timed_setup(|timer| setup(seed, timer))?;
    let (p, mut mix) = inputs(seed, FACTS);
    mix.set_references(&p);
    let program = parse_program(&goals::path_program(&p)).map_err(|e| e.to_string())?;
    let tid = program_instance(&program).map_err(|e| e.to_string())?;
    Ok(Served {
        server,
        tid,
        p,
        mix,
    })
}

/// Requests between two calibrations of the first client.
const CALIBRATE_EVERY: usize = 50;

/// Closed-loop clients for `seconds` from `phase`, recording every request
/// (completion time, latency) in completion order; the first client also
/// calibrates every `CALIBRATE_EVERY` requests.
fn clients(
    addr: SocketAddr,
    mix: &Mix,
    count: usize,
    phase: Instant,
    seconds: f64,
    e2e: &mut EndToEnd,
) {
    let done = AtomicUsize::new(0);
    let done = &done;
    let per_client: Vec<EndToEnd> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count)
            .map(|c| {
                scope.spawn(move || {
                    let mut log = EndToEnd::default();
                    let mut k = c * mix.slots.len() / count;
                    while phase.elapsed().as_secs_f64() < seconds
                        || done.load(Ordering::Relaxed) < MIN_OPS
                    {
                        if c == 0 && (log.ops.len()).is_multiple_of(CALIBRATE_EVERY) {
                            log.calibrate(phase.elapsed().as_secs_f64());
                        }
                        let goal = mix.slot(k);
                        k += 1;
                        let start = Instant::now();
                        let answer = crate::http::query(addr, &goal.body);
                        log.ops.push((
                            phase.elapsed().as_secs_f64(),
                            start.elapsed().as_secs_f64() * 1e3,
                        ));
                        done.fetch_add(1, Ordering::Relaxed);
                        log.tally
                            .record(answer.is_ok_and(|p| agrees(p, goal.reference)));
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for log in per_client {
        e2e.ops.extend(log.ops);
        e2e.speed.extend(log.speed);
        e2e.tally.add(log.tally);
    }
    e2e.ops.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// A seeded single-fact reweight of the path and its new probability.
fn reweight(rng: &mut SplitMix64, p: &mut [f64]) -> Delta {
    let fact = rng.next_below(p.len());
    let q: f64 = format!("{:.6}", 0.1 + 0.8 * rng.next_f64())
        .parse()
        .expect("probability");
    p[fact] = q;
    Delta::new().set_probability(FactId(fact), q)
}

/// Evaluates every goal of the mix on the (mutated) instance through the
/// served engine and checks it against the closed forms.
fn check_after_writes(engine: &Engine, tid: &TidInstance, mix: &Mix, tally: &mut Tally) {
    for goal in &mix.goals {
        tally.record(
            engine
                .evaluate_goal(tid, &goal.goal, &[])
                .is_ok_and(|g| agrees(g.probability, goal.reference)),
        );
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let mut e2e = EndToEnd::default();
    let mut served = prepare(seed, &mut e2e)?;
    let phase = Instant::now();
    clients(
        served.server.addr(),
        &served.mix,
        CLIENTS,
        phase,
        seconds,
        &mut e2e,
    );
    e2e.peak_rss_mb = peak_rss_mb();

    let mut rng = SplitMix64::new(seed ^ SALT ^ 0xffff);
    let engine = served.server.state().engine();
    for k in 0..WRITES {
        if k % 25 == 0 {
            e2e.calibrate(phase.elapsed().as_secs_f64());
        }
        let delta = reweight(&mut rng, &mut served.p);
        let written = probes::write(engine, &mut served.tid, &delta, WriteKind::Reweight, None);
        e2e.tally.record(written.is_ok());
        if let Ok(ms) = written {
            e2e.writes.push((phase.elapsed().as_secs_f64(), ms));
        }
    }
    served.mix.set_references(&served.p);
    check_after_writes(engine, &served.tid, &served.mix, &mut e2e.tally);
    served.server.shutdown();
    // The remaining set-ups run after the timed phase, so the memory they
    // leave behind in the allocator cannot raise the run's peak.
    for _ in 1..SETUPS {
        e2e.timed_setup(|timer| setup(seed, timer))?.shutdown();
    }
    Ok(e2e)
}

/// Single-client loop for `seconds`; with a tracer, every request is also
/// answered in-process, evaluated directly and replayed layer by layer.
fn traced_loop(
    served: &Served,
    seconds: f64,
    mut traced: Option<(&mut Tracer, &mut Replayer)>,
    tally: &mut Tally,
) -> usize {
    let state = served.server.state();
    let engine = state.engine();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while Instant::now() < deadline {
        let goal = served.mix.slot(done);
        done += 1;
        let Some((tracer, replayer)) = traced.as_mut() else {
            tally.record(
                crate::http::query(served.server.addr(), &goal.body)
                    .is_ok_and(|p| agrees(p, goal.reference)),
            );
            continue;
        };
        let ok = tracer.op("bench.request", |t| {
            let answer = t.span("serve.round_trip", |_| {
                crate::http::query(served.server.addr(), &goal.body)
            });
            let request = Request {
                method: "POST".into(),
                path: "/query".into(),
                body: goal.body.clone(),
            };
            t.span("serve.respond", |_| state.respond(&request));
            t.span("lang.parse", |_| parse_program(&goal.body).is_ok());
            let evaluation = replayer.goal_call(t, engine, || {
                engine.evaluate_goal(&served.tid, &goal.goal, &[])
            });
            let Ok(evaluation) = evaluation else {
                return false;
            };
            replayer.goal(
                t,
                engine,
                &served.tid,
                None,
                &goal.goal,
                Observed::from(&evaluation),
            );
            replayer.term_evals(t, engine, &served.tid, &goal.goal);
            answer.is_ok_and(|p| agrees(p, goal.reference))
                && agrees(evaluation.probability, goal.reference)
        });
        replayer.circuit_shape(engine, &served.tid, &goal.goal);
        tally.record(ok);
    }
    done
}

/// Cold compiles of every goal on a fresh engine, replayed layer by layer:
/// the set-up work of this workload.
fn cold_replay(
    tid: &TidInstance,
    mix: &Mix,
    tracer: &mut Tracer,
    replayer: &mut Replayer,
    tally: &mut Tally,
) {
    let engine = Engine::new();
    for goal in &mix.goals {
        let ok = tracer.op("bench.cold_goal", |t| {
            match t.span("engine.goal", |_| {
                engine.evaluate_goal(tid, &goal.goal, &[])
            }) {
                Ok(evaluation) => {
                    replayer.goal(
                        t,
                        &engine,
                        tid,
                        None,
                        &goal.goal,
                        Observed::from(&evaluation),
                    );
                    agrees(evaluation.probability, goal.reference)
                }
                Err(_) => false,
            }
        });
        tally.record(ok);
    }
}

pub fn run_traced(seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut traced = Traced::default();
    let tally = &mut traced.tally;
    let mut served = prepare(seed, &mut EndToEnd::default())?;
    let mut replayer = Replayer::default();
    let mut cold = Tracer::new();
    cold_replay(&served.tid, &served.mix, &mut cold, &mut replayer, tally);

    let half = seconds / 2.0;
    let plain = traced_loop(&served, half, None, tally);
    let mut main = Tracer::new();
    let with_spans = traced_loop(&served, half, Some((&mut main, &mut replayer)), tally);
    traced.overhead_pct = 100.0 * (1.0 - with_spans as f64 / plain as f64);

    let engine = served.server.state().engine();
    let widths = |mix: &Mix, tid: &TidInstance| -> Vec<usize> {
        mix.goals
            .iter()
            .map(|g| Replayer::width_of(engine, tid, &g.goal))
            .collect()
    };
    let cold_widths = widths(&served.mix, &served.tid);
    let mut writes = Tracer::new();
    let mut rng = SplitMix64::new(seed ^ SALT ^ 0xffff);
    let n = served.p.len();
    let mut deltas: Vec<(Delta, WriteKind)> = (0..20)
        .map(|_| (reweight(&mut rng, &mut served.p), WriteKind::Reweight))
        .collect();
    // One insert extending the path and one delete of that new fact keep
    // the closed forms valid on the mutated instance.
    deltas.push((
        Delta::new().insert("R", &[&format!("c{n}"), &format!("c{}", n + 1)], 0.5),
        WriteKind::Insert,
    ));
    deltas.push((Delta::new().delete(FactId(n)), WriteKind::Delete));
    let mut tid = served.tid.clone();
    for (delta, kind) in &deltas {
        let counts = &mut replayer.counts;
        let written = probes::write(engine, &mut tid, delta, *kind, Some((&mut writes, counts)));
        tally.record(written.is_ok());
    }
    served.mix.set_references(&served.p);
    let drift: Vec<f64> = widths(&served.mix, &tid)
        .iter()
        .zip(&cold_widths)
        .map(|(&after, &before)| after as f64 - before as f64)
        .collect();
    replayer
        .counts
        .push("circuit.width_drift", crate::stats::mean(&drift));
    check_after_writes(engine, &tid, &served.mix, tally);
    served.server.shutdown();

    let ladder = ladder(seed);
    tally.add(ladder.tally);
    traced.counts = replayer.counts;
    traced.extra = ladder.metrics;
    traced.tracers = vec![main, writes, cold, ladder.tracer];
    Ok(traced)
}

/// Replays the goal mix on a fresh engine over an `n`-fact path built
/// in-process, warm, and returns the size-ladder metrics for `n`.
fn ladder_rung(seed: u64, n: usize, suffix: &str, ladder: &mut Ladder) {
    let (p, mut mix) = inputs(seed, n);
    mix.set_references(&p);
    let mut tid = TidInstance::new();
    for (i, q) in p.iter().enumerate() {
        tid.add_fact_named("R", &[&format!("c{i}"), &format!("c{}", i + 1)], *q);
    }
    // Warm goals never consult the decomposition cache, and at 50k facts
    // revalidating a cached decomposition for each cold compile costs more
    // than recomputing it, so the ladder's engine goes without that cache.
    let engine = Engine::builder().without_decomposition_cache().build();
    for goal in &mix.goals {
        ladder.tally.record(
            engine
                .evaluate_goal(&tid, &goal.goal, &[])
                .is_ok_and(|g| agrees(g.probability, goal.reference)),
        );
    }
    let mut rung = Tracer::new();
    let mut replayer = Replayer::default();
    for k in 0..2 * mix.slots.len() {
        let goal = mix.slot(k);
        rung.op("bench.ladder_goal", |t| {
            if let Ok(evaluation) = t.span("engine.goal", |_| {
                engine.evaluate_goal(&tid, &goal.goal, &[])
            }) {
                replayer.goal(
                    t,
                    &engine,
                    &tid,
                    None,
                    &goal.goal,
                    Observed::from(&evaluation),
                );
            }
        });
    }
    let by_name = rung.self_ms_by_name();
    let of = |name: &str| by_name.get(name).map_or(0.0, |v| median(v));
    ladder.metrics.extend([
        Metric::new(format!("engine.goal_ms.{suffix}"), of("engine.goal"), "ms"),
        Metric::new(
            format!("engine.identity_hash_ms.{suffix}"),
            of("engine.identity_hash"),
            "ms",
        ),
        Metric::new(
            format!("engine.unattributed_ms.{suffix}"),
            median(&rung.per_op_difference("engine.goal", "engine.replay")),
            "ms",
        ),
        Metric::new(
            format!("circuit.sweep_ms.{suffix}"),
            of("circuit.sweep"),
            "ms",
        ),
        Metric::new(
            format!("data.weights_ms.{suffix}"),
            of("data.weights"),
            "ms",
        ),
    ]);
    ladder.tracer.absorb(rung);
}

/// The size ladder's metrics, spans and answer checks.
pub struct Ladder {
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    pub tally: Tally,
}

/// The size ladder: `serve_warm`'s goal mix replayed warm at n = 1k and
/// n = 50k, per layer only.
pub fn ladder(seed: u64) -> Ladder {
    let mut ladder = Ladder {
        metrics: Vec::new(),
        tracer: Tracer::new(),
        tally: Tally::default(),
    };
    ladder_rung(seed, 1_000, "n1k", &mut ladder);
    ladder_rung(seed, 50_000, "n50k", &mut ladder);
    ladder
}
