//! `text_cold` — a REPL user typing new goals.
//!
//! One single-threaded `Engine::evaluate_text` session on one engine over
//! a partial-2-tree TID (`workloads::partial_k_tree_tid(1000, 2, …)`,
//! about 1.4k facts, structure width 2). Every operation is goal text not
//! seen before in the run: anchored three-hop goals (90%, in three
//! shapes), anchored two-disjunct unions (5%) and ground-negation goals
//! (5%). Each one misses the lineage cache and hits the decomposition
//! cache, so the work is the lineage run over the whole decomposition plus
//! circuit compilation, with identity hashing a small share: the control
//! for the warm-path hashing that `serve_warm` exercises. After the timed
//! phase, a seeded write history (eight reweights, one insert, one delete
//! per ten writes) lands on a fresh engine holding a fixed number of this
//! session's goals (the write metrics).
//!
//! The graph is fixed; the seed picks the probabilities, the anchor order
//! and the negated facts. Answers are checked against a second engine
//! pinned to DPLL, run on the sub-instance within reach of the goal's
//! anchors (exact for anchored goals of at most three atoms).

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use stuc_core::engine::{BackendKind, Delta, Engine, Representation};
use stuc_core::workloads;
use stuc_data::instance::FactId;
use stuc_data::tid::TidInstance;
use stuc_graph::elimination::decompose_with_heuristic;
use stuc_graph::generators::SplitMix64;

use crate::goals::agrees;
use crate::probes::{self, WriteKind};
use crate::replay::{Observed, Replayer, HEURISTIC};
use crate::stats::{peak_rss_mb, EndToEnd, Tally, MIN_OPS};
use crate::trace::Tracer;
use crate::Traced;

const NODES: usize = 1000;
/// The partial-2-tree's shape is fixed across seeds; only its data varies.
const GRAPH_SEED: u64 = 11;
const SETUPS: usize = 9;
const WRITES: usize = 500;
/// Goals of the session cached on the engine that takes the writes.
const CACHED_FOR_WRITES: usize = 16;
const SALT: u64 = 0x7e47_0002;
/// Goals between two calibrations.
const CALIBRATE_EVERY: usize = 25;
/// Upper bound on the matches of an anchored goal of the stream.
const MAX_MATCHES: usize = 64;
/// Warm-up goal of the set-up: caches the decomposition, is never timed.
const WARM_UP: &str = "?- R(x, \"c0\"), R(y, x).";

/// The session's inputs: the instance and the seeded goal stream.
pub struct Session {
    pub tid: TidInstance,
    anchors: Vec<String>,
    union_anchors: Vec<String>,
    negated: Vec<(String, String)>,
}

impl Session {
    fn new(seed: u64) -> Session {
        let shape = workloads::partial_k_tree_tid(NODES, 2, 0.5, GRAPH_SEED);
        let mut rng = SplitMix64::new(seed ^ SALT);
        let mut tid = TidInstance::new();
        let mut facts = Vec::new();
        for (_, fact) in shape.instance().facts() {
            let args: Vec<String> = fact
                .args
                .iter()
                .map(|&c| shape.instance().constant_name(c).to_string())
                .collect();
            let p: f64 = format!("{:.6}", 0.3 + 0.4 * rng.next_f64())
                .parse()
                .expect("probability");
            tid.add_fact_named("R", &[&args[0], &args[1]], p);
            facts.push((args[0].clone(), args[1].clone()));
        }
        let mut anchors = selective_anchors(&facts);
        shuffle(&mut anchors, &mut rng);
        let mut union_anchors = anchors.clone();
        shuffle(&mut union_anchors, &mut rng);
        let mut negated = facts;
        shuffle(&mut negated, &mut rng);
        Session {
            tid,
            anchors,
            union_anchors,
            negated,
        }
    }

    /// The `k`-th goal of the stream; distinct for every `k` the benchmark
    /// can reach (3 shapes × anchors, one union per anchor pair). Per 20
    /// goals: 18 anchored three-hop goals, one union, one negation.
    pub fn goal(&self, k: usize) -> String {
        let n = self.anchors.len();
        let round = k / 20;
        match k % 20 {
            18 => {
                let a = &self.union_anchors[(2 * round) % n];
                let b = &self.union_anchors[(2 * round + 1) % n];
                format!("?- R(\"{a}\", x), R(x, y); R(\"{b}\", x), R(x, y).")
            }
            19 => {
                let a = &self.anchors[(n - 1 - round % n) % n];
                let (u, v) = &self.negated[round % self.negated.len()];
                format!("?- R(\"{a}\", x), R(x, y), !R(\"{u}\", \"{v}\").")
            }
            slot => {
                let j = round * 18 + slot;
                let a = &self.anchors[j % n];
                match (j / n) % 3 {
                    0 => format!("?- R(\"{a}\", x), R(x, y), R(y, z)."),
                    1 => format!("?- R(x, \"{a}\"), R(y, x), R(z, y)."),
                    _ => format!("?- R(\"{a}\", x), R(y, x), R(y, z)."),
                }
            }
        }
    }
}

/// Constants from which every anchored shape of the stream has at most
/// `MAX_MATCHES` matches, in name order. Hub constants are left out: their
/// goals would dominate the tail, and their lineages are too large for the
/// DPLL reference.
fn selective_anchors(facts: &[(String, String)]) -> Vec<String> {
    let mut out: Adjacency = BTreeMap::new();
    let mut into: Adjacency = BTreeMap::new();
    for (a, b) in facts {
        out.entry(a).or_default().push(b);
        into.entry(b).or_default().push(a);
    }
    let constants: BTreeSet<&str> = out.keys().chain(into.keys()).copied().collect();
    constants
        .into_iter()
        .filter(|a| {
            paths(a, [&out, &out, &out]) <= MAX_MATCHES
                && paths(a, [&into, &into, &into]) <= MAX_MATCHES
                && paths(a, [&out, &into, &out]) <= MAX_MATCHES
        })
        .map(str::to_string)
        .collect()
}

type Adjacency<'a> = BTreeMap<&'a str, Vec<&'a str>>;

/// Number of three-step walks from `a`, step `i` following `hops[i]`.
fn paths(a: &str, hops: [&Adjacency; 3]) -> usize {
    let [first, second, third] = hops;
    first
        .get(a)
        .into_iter()
        .flatten()
        .flat_map(|x| second.get(x).into_iter().flatten())
        .map(|y| third.get(y).map_or(0, Vec::len))
        .sum()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i + 1));
    }
}

/// Constants quoted in a goal text.
fn constants(body: &str) -> Vec<String> {
    body.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// The reference answer: a DPLL-pinned engine on the facts incident to
/// constants within two hops of the goal's constants, which holds every
/// match of an anchored body of at most three atoms and every negated
/// ground fact.
pub fn reference(tid: &TidInstance, body: &str) -> Option<f64> {
    let instance = tid.instance();
    let mut incident: BTreeMap<&str, Vec<FactId>> = BTreeMap::new();
    for (id, fact) in instance.facts() {
        for &c in &fact.args {
            incident
                .entry(instance.constant_name(c))
                .or_default()
                .push(id);
        }
    }
    let mut reach: BTreeSet<String> = constants(body).into_iter().collect();
    for _ in 0..2 {
        let frontier: Vec<String> = reach.iter().cloned().collect();
        for c in frontier {
            for &f in incident.get(c.as_str()).into_iter().flatten() {
                for &arg in &instance.fact(f).args {
                    reach.insert(instance.constant_name(arg).to_string());
                }
            }
        }
    }
    let facts: BTreeSet<FactId> = reach
        .iter()
        .flat_map(|c| incident.get(c.as_str()).into_iter().flatten().copied())
        .collect();
    let mut sub = TidInstance::new();
    for f in facts {
        let args: Vec<&str> = instance
            .fact(f)
            .args
            .iter()
            .map(|&c| instance.constant_name(c))
            .collect();
        sub.add_fact_named("R", &args, tid.probability(f));
    }
    let engine = Engine::builder().backend(BackendKind::Dpll).build();
    engine
        .evaluate_text(&sub, body)
        .ok()
        .map(|outcome| outcome.goals[0].probability)
}

/// Generates the instance and warms the decomposition on a fresh engine.
fn setup(seed: u64) -> Result<(Session, Engine), String> {
    let session = Session::new(seed);
    let engine = Engine::new();
    engine
        .evaluate_text(&session.tid, WARM_UP)
        .map_err(|e| e.to_string())?;
    Ok((session, engine))
}

/// Answers of the timed phase, checked after it.
type Answers = Vec<(usize, Option<f64>)>;

fn check(session: &Session, answers: &Answers, tally: &mut Tally) {
    for (k, answer) in answers {
        let reference = reference(&session.tid, &session.goal(*k));
        tally.record(matches!((answer, reference), (Some(a), Some(r)) if agrees(*a, r)));
    }
}

/// The write history on a fresh engine caching the session's first
/// goals, recording into `log` each write (time on `clock`, latency) and
/// the re-check of every patched answer. Untraced, it calibrates every
/// `CALIBRATE_EVERY` writes.
fn writes(
    session: &Session,
    deltas: &[(Delta, WriteKind)],
    clock: Instant,
    log: &mut EndToEnd,
    mut traced: Option<(&mut Tracer, &mut Replayer)>,
) {
    let engine = Engine::new();
    let mut tid = session.tid.clone();
    let bodies: Vec<String> = (0..CACHED_FOR_WRITES).map(|k| session.goal(k)).collect();
    for body in &bodies {
        let _ = engine.evaluate_text(&tid, body);
    }
    let width = |engine: &Engine, tid: &TidInstance| -> Vec<usize> {
        bodies
            .iter()
            .map(|b| {
                engine
                    .explain_text(tid, b)
                    .ok()
                    .and_then(|e| e[0].circuit)
                    .map_or(0, |c| c.width)
            })
            .collect()
    };
    let cold_widths = traced.is_some().then(|| width(&engine, &tid));
    for (k, (delta, kind)) in deltas.iter().enumerate() {
        if traced.is_none() && k.is_multiple_of(CALIBRATE_EVERY) {
            log.calibrate(clock.elapsed().as_secs_f64());
        }
        let written = probes::write(
            &engine,
            &mut tid,
            delta,
            *kind,
            traced.as_mut().map(|(t, r)| (&mut **t, &mut r.counts)),
        );
        log.tally.record(written.is_ok());
        if let Ok(ms) = written {
            log.writes.push((clock.elapsed().as_secs_f64(), ms));
        }
    }
    if let (Some(cold), Some((_, replayer))) = (cold_widths, traced.as_mut()) {
        let drift: Vec<f64> = width(&engine, &tid)
            .iter()
            .zip(&cold)
            .map(|(&after, &before)| after as f64 - before as f64)
            .collect();
        replayer
            .counts
            .push("circuit.width_drift", crate::stats::mean(&drift));
    }
    for body in &bodies {
        let answer = engine
            .evaluate_text(&tid, body)
            .ok()
            .map(|o| o.goals[0].probability);
        log.tally
            .record(matches!((answer, reference(&tid, body)), (Some(a), Some(r)) if agrees(a, r)));
    }
}

/// A seeded write history: per ten writes, eight reweights of original
/// facts, one insert of a pendant fact off an anchor, and one delete of
/// that fact again, so the instance keeps its shape.
fn history(seed: u64, session: &Session, count: usize) -> Vec<(Delta, WriteKind)> {
    let mut rng = SplitMix64::new(seed ^ SALT ^ 0xffff);
    let n = session.tid.fact_count();
    (0..count)
        .map(|k| match k % 10 {
            4 => {
                let anchor = &session.anchors[rng.next_below(session.anchors.len())];
                let pendant = format!("p{k}");
                (
                    Delta::new().insert("R", &[anchor, &pendant], 0.5),
                    WriteKind::Insert,
                )
            }
            9 => (Delta::new().delete(FactId(n)), WriteKind::Delete),
            _ => {
                let fact = FactId(rng.next_below(n));
                let p: f64 = format!("{:.6}", 0.1 + 0.8 * rng.next_f64())
                    .parse()
                    .expect("probability");
                (Delta::new().set_probability(fact, p), WriteKind::Reweight)
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64) -> Result<EndToEnd, String> {
    let mut e2e = EndToEnd::default();
    let mut prepared = None;
    for _ in 0..SETUPS {
        prepared = Some(e2e.timed_setup(|_| setup(seed))?);
    }
    let (session, engine) = prepared.expect("at least one set-up");

    let phase = Instant::now();
    let mut answers: Answers = Vec::new();
    while phase.elapsed().as_secs_f64() < seconds || answers.len() < MIN_OPS {
        let k = answers.len();
        if k.is_multiple_of(CALIBRATE_EVERY) {
            e2e.calibrate(phase.elapsed().as_secs_f64());
        }
        let body = session.goal(k);
        let start = Instant::now();
        let outcome = engine.evaluate_text(&session.tid, &body);
        e2e.ops.push((
            phase.elapsed().as_secs_f64(),
            start.elapsed().as_secs_f64() * 1e3,
        ));
        answers.push((k, outcome.ok().map(|o| o.goals[0].probability)));
    }
    e2e.peak_rss_mb = peak_rss_mb();
    check(&session, &answers, &mut e2e.tally);
    writes(
        &session,
        &history(seed, &session, WRITES),
        phase,
        &mut e2e,
        None,
    );
    Ok(e2e)
}

/// Runs the session from goal `first` for `seconds`; traced, each goal is
/// replayed layer by layer.
fn session_loop(
    session: &Session,
    engine: &Engine,
    first: usize,
    seconds: f64,
    mut traced: Option<(&mut Tracer, &mut Replayer)>,
    answers: &mut Answers,
) -> usize {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = first;
    while Instant::now() < deadline {
        let body = session.goal(k);
        let answer = match traced.as_mut() {
            None => engine
                .evaluate_text(&session.tid, &body)
                .ok()
                .map(|o| o.goals[0].probability),
            Some((tracer, replayer)) => {
                let program = stuc_lang::parse_program(&body).expect("goal parses");
                let goal = program.queries()[0].goal.clone();
                let answer = tracer.op("bench.goal", |t| {
                    let outcome =
                        replayer.goal_call(t, engine, || engine.evaluate_text(&session.tid, &body));
                    let evaluation = outcome.ok()?.goals.into_iter().next()?;
                    replayer.goal(
                        t,
                        engine,
                        &session.tid,
                        Some(&body),
                        &goal,
                        Observed::from(&evaluation),
                    );
                    replayer.term_evals(t, engine, &session.tid, &goal);
                    Some(evaluation.probability)
                });
                replayer.circuit_shape(engine, &session.tid, &goal);
                answer
            }
        };
        answers.push((k, answer));
        k += 1;
    }
    k - first
}

pub fn run_traced(seed: u64, seconds: f64) -> Result<Traced, String> {
    let mut traced = Traced::default();
    let (session, engine) = setup(seed)?;
    let mut replayer = Replayer::default();

    // The set-up's structural work, replayed: the decomposition every cold
    // goal then validates against.
    let mut setup_tracer = Tracer::new();
    setup_tracer.op("bench.setup", |t| {
        let graph = t.span("data.structure_graph", |_| session.tid.structure_graph());
        let decomposition = t.span("graph.decompose", |_| {
            decompose_with_heuristic(&graph, HEURISTIC)
        });
        replayer
            .counts
            .push("graph.width", decomposition.width() as f64);
    });

    let mut answers: Answers = Vec::new();
    let half = seconds / 2.0;
    let plain = session_loop(&session, &engine, 0, half, None, &mut answers);
    let mut main = Tracer::new();
    let with_spans = session_loop(
        &session,
        &engine,
        plain,
        half,
        Some((&mut main, &mut replayer)),
        &mut answers,
    );
    traced.overhead_pct = 100.0 * (1.0 - with_spans as f64 / plain as f64);
    check(&session, &answers, &mut traced.tally);

    let mut write_log = EndToEnd::default();
    let mut write_tracer = Tracer::new();
    let deltas = history(seed, &session, 20);
    let traced_writes = Some((&mut write_tracer, &mut replayer));
    writes(
        &session,
        &deltas,
        Instant::now(),
        &mut write_log,
        traced_writes,
    );
    traced.tally.add(write_log.tally);

    let mut serve_tracer = Tracer::new();
    let next = plain + with_spans;
    let bodies: Vec<String> = (next..next + 10).map(|k| session.goal(k)).collect();
    let prewarm = [WARM_UP.to_string()];
    let served = probes::serve(&mut serve_tracer, &session.tid, &prewarm, &bodies);
    traced.tally.add(served);

    let ladder = crate::serve_warm::ladder(seed);
    traced.tally.add(ladder.tally);
    traced.counts = replayer.counts;
    traced.extra = ladder.metrics;
    traced.tracers = vec![
        main,
        write_tracer,
        setup_tracer,
        serve_tracer,
        ladder.tracer,
    ];
    Ok(traced)
}
