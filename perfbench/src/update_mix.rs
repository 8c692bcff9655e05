//! `update_mix` — writes beside reads, on the cache and identity layer.
//!
//! Single-threaded rounds. Each round replays a fixed, seeded history of
//! 64 write+read cycles from a fresh `Engine` over
//! `workloads::path_tid(1000, …)`. Four standing goals are compiled at
//! round start: three anchored three-hop goals and the unanchored
//! `R(x, y), R(y, z)`. Writes follow a fixed schedule of kinds per ten
//! cycles (eight reweights, one insert, one delete); the seed picks their
//! targets and probabilities. Every write goes through
//! `Engine::apply_update` and is followed by a read of the next standing
//! goal. The history is a fixed number of cycles, not a fixed duration, so
//! a faster build replays identical state.
//!
//! Deletes remove a present path fact; inserts put the most recently
//! deleted fact back (or extend the path before any delete), so the data
//! stays a set of disjoint paths and every read has a closed form.

use std::time::{Duration, Instant};
use stuc_core::engine::{Delta, Engine};
use stuc_core::workloads;
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;
use stuc_graph::generators::SplitMix64;

use crate::goals::{self, agrees, path, Goal};
use crate::probes::{self, WriteKind};
use crate::replay::{Observed, Replayer};
use crate::stats::{EndToEnd, Tally, MIN_OPS};
use crate::trace::Tracer;
use crate::Traced;

const FACTS: usize = 1000;
const CYCLES: usize = 64;
const SALT: u64 = 0x0bda_0003;

/// One seeded history: the standing goals, the writes, and the reference
/// answer of the read after each write.
struct History {
    seed: u64,
    goals: Vec<Goal>,
    writes: Vec<(Delta, WriteKind)>,
    /// Index of the goal read after each write, and its reference answer.
    reads: Vec<(usize, f64)>,
}

impl History {
    fn new(seed: u64) -> History {
        let tid = workloads::path_tid(FACTS, 0.5, seed ^ SALT);
        let mut rng = SplitMix64::new(seed ^ SALT ^ 0xffff);
        // Probability of each path position (fact R(c_i, c_{i+1})), 0 when
        // absent, and the current fact order as path positions.
        let mut p: Vec<f64> = (0..FACTS).map(|i| tid.probability(FactId(i))).collect();
        let mut order: Vec<usize> = (0..FACTS).collect();
        let third = FACTS / 3;
        let anchors: Vec<usize> = (0..3)
            .map(|k| k * third + rng.next_below(third - 4))
            .collect();
        let mut goals: Vec<Goal> = anchors
            .iter()
            .map(|&a| Goal::new(goals::three_hop(a), path::three_hop(&p, a)))
            .collect();
        goals.push(Goal::new("?- R(x, y), R(y, z).".into(), path::pair(&p)));

        let probability = |rng: &mut SplitMix64| -> f64 {
            format!("{:.6}", 0.1 + 0.8 * rng.next_f64())
                .parse()
                .expect("probability")
        };
        let mut deleted: Vec<usize> = Vec::new();
        let mut writes = Vec::with_capacity(CYCLES);
        let mut reads = Vec::with_capacity(CYCLES);
        for cycle in 0..CYCLES {
            let (delta, kind) = match cycle % 10 {
                4 => {
                    let position = deleted.pop().unwrap_or(p.len());
                    let q = probability(&mut rng);
                    if position == p.len() {
                        p.push(q);
                    } else {
                        p[position] = q;
                    }
                    order.push(position);
                    let args = [format!("c{position}"), format!("c{}", position + 1)];
                    (
                        Delta::new().insert("R", &[&args[0], &args[1]], q),
                        WriteKind::Insert,
                    )
                }
                9 => {
                    let index = rng.next_below(order.len());
                    let position = order.remove(index);
                    p[position] = 0.0;
                    deleted.push(position);
                    (Delta::new().delete(FactId(index)), WriteKind::Delete)
                }
                _ => {
                    let index = rng.next_below(order.len());
                    let q = probability(&mut rng);
                    p[order[index]] = q;
                    (
                        Delta::new().set_probability(FactId(index), q),
                        WriteKind::Reweight,
                    )
                }
            };
            writes.push((delta, kind));
            let read = cycle % goals.len();
            let reference = match read {
                3 => path::pair(&p),
                a => path::three_hop(&p, anchors[a]),
            };
            reads.push((read, reference));
        }
        History {
            seed,
            goals,
            writes,
            reads,
        }
    }

    /// A fresh instance and engine with every standing goal compiled.
    fn start(&self) -> Result<(TidInstance, Engine), String> {
        let tid = workloads::path_tid(FACTS, 0.5, self.seed ^ SALT);
        let engine = Engine::new();
        for goal in &self.goals {
            engine
                .evaluate_text(&tid, &goal.body)
                .map_err(|e| e.to_string())?;
        }
        Ok((tid, engine))
    }
}

/// One untraced round: per-cycle write and read latencies and checks. The
/// timed-phase clock runs only during cycles, not during set-up.
fn round(history: &History, e2e: &mut EndToEnd) -> Result<(), String> {
    let (mut tid, engine) = e2e.timed_setup(|_| history.start())?;
    let clock = e2e.ops.last().map_or(0.0, |&(end, _)| end);
    e2e.calibrate(clock);
    let cycles = Instant::now();
    for ((delta, kind), &(read, reference)) in history.writes.iter().zip(&history.reads) {
        let written = probes::write(&engine, &mut tid, delta, *kind, None);
        e2e.tally.record(written.is_ok());
        if let Ok(ms) = written {
            e2e.writes
                .push((clock + cycles.elapsed().as_secs_f64(), ms));
        }
        let goal = &history.goals[read];
        let start = Instant::now();
        let answer = engine.evaluate_text(&tid, &goal.body);
        let read_ms = start.elapsed().as_secs_f64() * 1e3;
        e2e.ops
            .push((clock + cycles.elapsed().as_secs_f64(), read_ms));
        e2e.tally
            .record(answer.is_ok_and(|o| agrees(o.goals[0].probability, reference)));
    }
    Ok(())
}

/// Whole rounds until `seconds` have passed and `min_ops` reads ran.
fn rounds(
    history: &History,
    seconds: f64,
    min_ops: usize,
    e2e: &mut EndToEnd,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        round(history, e2e)?;
        if Instant::now() >= deadline && e2e.ops.len() >= min_ops {
            return Ok(());
        }
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let history = History::new(seed);
    let mut e2e = EndToEnd::default();
    rounds(&history, seconds, MIN_OPS, &mut e2e)?;
    e2e.peak_rss_mb = crate::stats::peak_rss_mb();
    Ok(e2e)
}

/// Span stores of the traced rounds.
#[derive(Default)]
struct RoundTracers {
    reads: Tracer,
    setup: Tracer,
    writes: Tracer,
}

/// Evaluates `goal` in an `engine.goal` span and replays it; the answer
/// when the evaluation succeeded.
fn traced_goal(
    t: &mut Tracer,
    replayer: &mut Replayer,
    engine: &Engine,
    tid: &TidInstance,
    goal: &Goal,
    read: bool,
) -> Option<f64> {
    let call = || engine.evaluate_text(tid, &goal.body);
    let outcome = if read {
        replayer.goal_call(t, engine, call)
    } else {
        t.span("engine.goal", |_| call())
    };
    let evaluation = outcome.ok()?.goals.into_iter().next()?;
    let observed = Observed::from(&evaluation);
    replayer.goal(t, engine, tid, Some(&goal.body), &goal.goal, observed);
    if read {
        replayer.term_evals(t, engine, tid, &goal.goal);
    }
    Some(evaluation.probability)
}

/// One traced round: the round-start compiles replayed cold, then every
/// write and read replayed layer by layer.
fn traced_round(
    history: &History,
    tracers: &mut RoundTracers,
    replayer: &mut Replayer,
    tally: &mut Tally,
) {
    let mut tid = workloads::path_tid(FACTS, 0.5, history.seed ^ SALT);
    let engine = Engine::new();
    for goal in &history.goals {
        let answer = tracers.setup.op("bench.standing_goal", |t| {
            traced_goal(t, replayer, &engine, &tid, goal, false)
        });
        tally.record(answer.is_some_and(|a| agrees(a, goal.reference)));
    }
    let widths = |tid: &TidInstance| -> Vec<usize> {
        history
            .goals
            .iter()
            .map(|g| Replayer::width_of(&engine, tid, &g.goal))
            .collect()
    };
    let cold_widths = widths(&tid);
    for ((delta, kind), &(read, reference)) in history.writes.iter().zip(&history.reads) {
        let traced_write = Some((&mut tracers.writes, &mut replayer.counts));
        let written = probes::write(&engine, &mut tid, delta, *kind, traced_write);
        tally.record(written.is_ok());
        replayer.forget_warm();
        let goal = &history.goals[read];
        let answer = tracers.reads.op("bench.read", |t| {
            traced_goal(t, replayer, &engine, &tid, goal, true)
        });
        replayer.circuit_shape(&engine, &tid, &goal.goal);
        tally.record(answer.is_some_and(|a| agrees(a, reference)));
    }
    let drift: Vec<f64> = widths(&tid)
        .iter()
        .zip(&cold_widths)
        .map(|(&after, &before)| after as f64 - before as f64)
        .collect();
    replayer
        .counts
        .push("circuit.width_drift", crate::stats::mean(&drift));
}

pub fn run_traced(seed: u64, seconds: f64) -> Result<Traced, String> {
    let history = History::new(seed);
    let mut traced = Traced::default();
    let half = seconds / 2.0;

    let mut plain = EndToEnd::default();
    let started = Instant::now();
    rounds(&history, half, 0, &mut plain)?;
    let plain_rate = plain.ops.len() as f64 / started.elapsed().as_secs_f64();
    traced.tally.add(plain.tally);

    let mut replayer = Replayer::default();
    let mut tracers = RoundTracers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(half);
    let started = Instant::now();
    let mut cycles = 0usize;
    loop {
        traced_round(&history, &mut tracers, &mut replayer, &mut traced.tally);
        cycles += CYCLES;
        if Instant::now() >= deadline {
            break;
        }
    }
    let traced_rate = cycles as f64 / started.elapsed().as_secs_f64();
    traced.overhead_pct = 100.0 * (1.0 - traced_rate / plain_rate);

    let (tid, _) = history.start()?;
    let bodies: Vec<String> = history.goals.iter().map(|g| g.body.clone()).collect();
    let repeated: Vec<String> = (0..5).flat_map(|_| bodies.iter().cloned()).collect();
    let mut serve_tracer = Tracer::new();
    let served = probes::serve(&mut serve_tracer, &tid, &bodies, &repeated);
    traced.tally.add(served);

    let ladder = crate::serve_warm::ladder(seed);
    traced.tally.add(ladder.tally);
    traced.counts = replayer.counts;
    traced.extra = ladder.metrics;
    traced.tracers = vec![
        tracers.reads,
        tracers.writes,
        tracers.setup,
        serve_tracer,
        ladder.tracer,
    ];
    Ok(traced)
}
