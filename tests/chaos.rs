//! Chaos suite: drives every named failpoint (`--features fault-injection`)
//! under multi-threaded load and checks the fault-tolerance contract:
//!
//! * faults surface as **typed errors** (or graceful fallbacks), never as
//!   hangs — every scenario runs under a watchdog;
//! * panics are **isolated** where the contract promises it (batch
//!   workers, serve workers and acceptor) — pools survive, callers get
//!   `StucError::Internal` / typed `500`s;
//! * caches are never **torn** — once a fault clears, the same engine
//!   returns bit-exact answers, equal to a fresh engine's;
//! * deadlines stay **typed and selective** — an expensive goal under a
//!   tight deadline times out with a `504` while concurrent cheap goals
//!   keep answering exactly.
//!
//! The failpoint registry is process-global, so scenarios serialize on one
//! mutex; the 8-thread load lives *inside* each scenario. CI runs this file
//! with `--features fault-injection --release -- --test-threads=8`, where
//! the lock keeps armed faults from bleeding across tests.

#![cfg(feature = "fault-injection")]

use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use stuc::circuit::wmc::WmcError;
use stuc::core::workloads;
use stuc::data::tid::TidInstance;
use stuc::fault::failpoint::{self, FailAction};
use stuc::infer::InferError;
use stuc::query::cq::ConjunctiveQuery;
use stuc::serve::{ServeConfig, Server, ServiceState};
use stuc::{Engine, EvalBudget, StucError};

const THREADS: usize = 8;

/// Serializes scenarios: armed failpoints are process-global state.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` on a helper thread and panics if it does not finish in
/// `limit` — the suite's "no hangs" oracle.
fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(_) => panic!("chaos scenario {what:?} hung past {limit:?}"),
    }
}

fn workload() -> (TidInstance, ConjunctiveQuery) {
    let tid = workloads::path_tid(10, 0.5, 23);
    // Self-join: routes to the circuit back-end, so decomposition, plan
    // build, sweeps and both caches are all on the evaluation path.
    let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    (tid, chain)
}

/// The oracle answer for the workload, from a fresh, unfaulted engine.
fn oracle() -> f64 {
    let (tid, chain) = workload();
    Engine::new().evaluate(&tid, &chain).unwrap().probability
}

/// Drives `rounds × THREADS` evaluations of the workload on one shared
/// engine from 8 OS threads through `evaluate_batch` (the panic-isolated
/// entry point; batches dedup, so each thread submits singletons) and
/// returns the per-query results.
fn batch_under_load(engine: &Engine, rounds: usize) -> Vec<Result<f64, String>> {
    let (tid, chain) = workload();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let (tid, chain) = (&tid, &chain);
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(rounds);
                    for _ in 0..rounds {
                        let batch = engine.evaluate_batch(tid, std::slice::from_ref(chain));
                        for report in batch.reports {
                            outcomes
                                .push(report.map(|ok| ok.probability).map_err(|e| e.to_string()));
                        }
                    }
                    outcomes
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("load thread panicked"))
            .collect()
    })
}

/// The core chaos template for engine-side failpoints: arm `name` with
/// `action`, hammer a shared engine from 8 batch workers, assert every
/// outcome is a value or a *typed* error (the watchdog catches hangs),
/// then disarm and require bit-exact recovery on the *same* engine.
fn engine_scenario(name: &str, action: FailAction, expect_in_error: &[&str]) {
    let _serial = chaos_lock();
    let expected = oracle();
    let engine = Arc::new(Engine::new());
    let hits_before = failpoint::hits(name);
    {
        let _armed = failpoint::arm_guard(name, action);
        let under_fault = {
            let engine = Arc::clone(&engine);
            with_watchdog(Duration::from_secs(60), name, move || {
                batch_under_load(&engine, 4)
            })
        };
        for outcome in &under_fault {
            match outcome {
                // Sleep faults (and races that dodge the failpoint) still
                // produce the exact answer.
                Ok(p) => assert_eq!(p.to_bits(), expected.to_bits(), "wrong answer under fault"),
                Err(message) => {
                    assert!(
                        expect_in_error.iter().any(|s| message.contains(s)),
                        "failpoint {name}: error {message:?} does not look injected \
                         (expected one of {expect_in_error:?})"
                    );
                }
            }
        }
    }
    assert!(
        failpoint::hits(name) > hits_before,
        "failpoint {name} was never reached by the workload"
    );
    // Fault cleared: the same engine (whatever its caches now hold) must
    // answer bit-exactly — no torn cache state survives.
    let recovered = with_watchdog(Duration::from_secs(60), name, {
        let engine = Arc::clone(&engine);
        move || batch_under_load(&engine, 2)
    });
    for outcome in recovered {
        assert_eq!(
            outcome
                .expect("typed errors must stop once the fault clears")
                .to_bits(),
            expected.to_bits(),
            "answers must be bit-exact after the fault clears"
        );
    }
}

#[test]
fn decomposition_failpoint_panics_are_isolated_and_recover() {
    engine_scenario(
        "graph-decompose",
        FailAction::Panic,
        &["panic", "failpoint"],
    );
}

#[test]
fn plan_build_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "circuit-plan-build",
        FailAction::Error("plan build chaos".into()),
        &["injected fault"],
    );
}

#[test]
fn plan_build_failpoint_panics_are_isolated() {
    engine_scenario(
        "circuit-plan-build",
        FailAction::Panic,
        &["panic", "failpoint"],
    );
}

/// Posterior inference takes its plan through `try_sweep_plan`: on a cold
/// engine a plan-build fault must surface as a typed error from every
/// inference mode (never a silent fallback sweep), and once the fault
/// clears the same engine must answer exactly like a fresh one.
#[test]
fn plan_build_faults_surface_typed_from_every_inference_mode() {
    let _serial = chaos_lock();
    let (tid, chain) = workload();
    let engine = Engine::new();
    {
        let _armed = failpoint::arm_guard(
            "circuit-plan-build",
            FailAction::Error("inference chaos".into()),
        );
        let errors = [
            ("marginals", engine.marginals(&tid, &chain).err()),
            (
                "most_probable_world",
                engine.most_probable_world(&tid, &chain).err(),
            ),
            (
                "sample_worlds",
                engine.sample_worlds(&tid, &chain, 16, 7).err(),
            ),
        ];
        for (mode, error) in errors {
            let error = error.unwrap_or_else(|| panic!("{mode} answered under a plan fault"));
            assert!(
                matches!(error, StucError::Infer(InferError::Wmc(WmcError::Fault(_)))),
                "{mode}: {error:?} is not a typed plan fault"
            );
            assert!(
                error.to_string().contains("injected fault"),
                "{mode}: {error}"
            );
        }
    }
    let fresh = Engine::new();
    let posteriors = |e: &Engine| -> Vec<(u64, u64)> {
        let marginals = e.marginals(&tid, &chain).unwrap();
        let mut bits = vec![(u64::MAX, marginals.evidence_probability.to_bits())];
        bits.extend(marginals.iter().map(|(v, p)| (v.0 as u64, p.to_bits())));
        bits
    };
    assert_eq!(posteriors(&engine), posteriors(&fresh));
    let (mpe, fresh_mpe) = (
        engine.most_probable_world(&tid, &chain).unwrap(),
        fresh.most_probable_world(&tid, &chain).unwrap(),
    );
    assert_eq!(mpe.world, fresh_mpe.world);
    assert_eq!(mpe.probability.to_bits(), fresh_mpe.probability.to_bits());
    assert_eq!(
        engine.sample_worlds(&tid, &chain, 16, 7).unwrap().worlds,
        fresh.sample_worlds(&tid, &chain, 16, 7).unwrap().worlds
    );
}

#[test]
fn sweep_faults_surface_typed_from_every_inference_mode() {
    let _serial = chaos_lock();
    let (tid, chain) = workload();
    let engine = Engine::new();
    {
        let _armed = failpoint::arm_guard(
            "circuit-sweep",
            FailAction::Error("inference sweep chaos".into()),
        );
        let errors = [
            ("marginals", engine.marginals(&tid, &chain).err()),
            (
                "most_probable_world",
                engine.most_probable_world(&tid, &chain).err(),
            ),
            (
                "sample_worlds",
                engine.sample_worlds(&tid, &chain, 16, 7).err(),
            ),
        ];
        for (mode, error) in errors {
            let error = error.unwrap_or_else(|| panic!("{mode} answered under a sweep fault"));
            assert!(
                matches!(error, StucError::Infer(InferError::Wmc(WmcError::Fault(_)))),
                "{mode}: {error:?} is not a typed sweep fault"
            );
            assert!(
                error.to_string().contains("injected fault"),
                "{mode}: {error}"
            );
        }
    }
    let fresh = Engine::new();
    let posteriors = |e: &Engine| -> Vec<(u64, u64)> {
        let marginals = e.marginals(&tid, &chain).unwrap();
        let mut bits = vec![(u64::MAX, marginals.evidence_probability.to_bits())];
        bits.extend(marginals.iter().map(|(v, p)| (v.0 as u64, p.to_bits())));
        bits
    };
    assert_eq!(posteriors(&engine), posteriors(&fresh));
    let (mpe, fresh_mpe) = (
        engine.most_probable_world(&tid, &chain).unwrap(),
        fresh.most_probable_world(&tid, &chain).unwrap(),
    );
    assert_eq!(mpe.world, fresh_mpe.world);
    assert_eq!(mpe.probability.to_bits(), fresh_mpe.probability.to_bits());
    assert_eq!(
        engine.sample_worlds(&tid, &chain, 16, 7).unwrap().worlds,
        fresh.sample_worlds(&tid, &chain, 16, 7).unwrap().worlds
    );
}

#[test]
fn sweep_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "circuit-sweep",
        FailAction::Error("sweep chaos".into()),
        &["injected fault"],
    );
}

/// A failed run memoises no answer. Under an armed sweep fault, under an
/// expired deadline and under a deadline that expires inside the sweep,
/// evaluating a warm lineage fails; once the fault or the budget is gone,
/// the next evaluation misses the memo, sweeps, and answers bit-exactly.
#[test]
fn failed_runs_memoise_no_answer() {
    let _serial = chaos_lock();
    let (tid, chain) = workload();
    let expected = oracle();
    // A warm lineage with an empty answer slot: the failing run is the
    // first to reach the sweep.
    let warm_engine = || {
        let engine = Engine::new();
        engine.lineage(&tid, &chain).unwrap();
        engine
    };
    let recovers = |engine: &Engine, context: &str| {
        let before = engine.cache_stats().answers;
        let report = engine.evaluate(&tid, &chain).unwrap();
        let after = engine.cache_stats().answers;
        assert_eq!(after.hits, before.hits, "{context}: nothing was memoised");
        assert_eq!(after.misses, before.misses + 1, "{context}");
        assert_eq!(
            report.probability.to_bits(),
            expected.to_bits(),
            "{context}"
        );
    };

    let engine = warm_engine();
    {
        let _armed = failpoint::arm_guard("circuit-sweep", FailAction::Error("memo chaos".into()));
        let error = engine.evaluate(&tid, &chain).unwrap_err();
        assert!(error.to_string().contains("injected fault"), "{error}");
    }
    recovers(&engine, "after a sweep fault");

    let engine = warm_engine();
    let expired = EvalBudget::with_deadline(Duration::ZERO);
    let tripped = engine.with_budget(&expired, || engine.evaluate(&tid, &chain));
    assert!(
        matches!(tripped, Err(StucError::DeadlineExceeded { .. })),
        "{tripped:?}"
    );
    recovers(&engine, "after an expired deadline");

    let engine = warm_engine();
    {
        let _armed = failpoint::arm_guard("circuit-sweep", FailAction::SleepMs(200));
        let budget = EvalBudget::with_deadline(Duration::from_millis(50));
        match engine.with_budget(&budget, || engine.evaluate(&tid, &chain)) {
            Err(StucError::DeadlineExceeded { stage }) => assert_eq!(stage, "circuit sweep"),
            other => panic!("expected a deadline trip in the sweep, got {other:?}"),
        }
    }
    recovers(&engine, "after a deadline trip in the sweep");
}

#[test]
fn sweep_failpoint_sleep_slows_but_stays_exact() {
    engine_scenario("circuit-sweep", FailAction::SleepMs(5), &[]);
}

#[test]
fn lineage_compile_failpoint_errors_are_typed_and_recover() {
    engine_scenario(
        "lineage-compile",
        FailAction::Error("compile chaos".into()),
        &["injected fault"],
    );
}

#[test]
fn cache_publish_failpoint_panics_never_tear_the_cache() {
    engine_scenario("cache-publish", FailAction::Panic, &["panic", "failpoint"]);
}

#[test]
fn cache_evict_failpoint_sleep_keeps_answers_exact() {
    // Eviction needs a capacity the workload can exceed; the default
    // engine rarely evicts, so drive it with a tiny lineage cache.
    let _serial = chaos_lock();
    let expected = oracle();
    let engine = Engine::builder().cache_capacity(1).build();
    let _armed = failpoint::arm_guard("cache-evict", FailAction::SleepMs(1));
    let (tid, chain) = workload();
    let chain3 = ConjunctiveQuery::parse("R(x, y), R(y, z), R(z, w)").unwrap();
    for _ in 0..4 {
        // Two distinct lineages through a capacity-1 cache force evictions.
        let got = engine.evaluate(&tid, &chain).unwrap().probability;
        assert_eq!(got.to_bits(), expected.to_bits());
        engine.evaluate(&tid, &chain3).unwrap();
    }
}

/// A fault during decomposition *repair* must degrade to the fallback
/// full rebuild — the update succeeds and answers stay exact.
#[test]
fn repair_failpoint_degrades_to_full_rebuild() {
    let _serial = chaos_lock();
    let _armed = failpoint::arm_guard("graph-repair", FailAction::Error("repair chaos".into()));
    let (mut tid, chain) = workload();
    let engine = Engine::new();
    let before = engine.evaluate(&tid, &chain).unwrap().probability;
    assert!(before > 0.0);
    let delta = stuc::Delta::new().insert("R", &["v3", "v0"], 0.5);
    engine
        .apply_update(&mut tid, &delta)
        .expect("a repair fault must fall back to rebuild, not fail the update");
    let after = engine.evaluate(&tid, &chain).unwrap().probability;
    let fresh = Engine::new().evaluate(&tid, &chain).unwrap().probability;
    assert_eq!(
        after.to_bits(),
        fresh.to_bits(),
        "post-update answers must match a fresh engine bit-exactly"
    );
}

/// A budget that trips while a write rebuilds a cached lineage costs that
/// entry's warmth, not consistency: the write reports the typed error with
/// the mutation committed, and the next read rebuilds the lineage and
/// answers like a fresh engine.
#[test]
fn a_budget_trip_during_a_rebuild_costs_warmth_not_consistency() {
    let _serial = chaos_lock();
    let (mut tid, chain) = workload();
    let engine = Engine::new();
    engine.evaluate(&tid, &chain).unwrap();
    // The rebuild stalls at its compile step, past the deadline.
    let _armed = failpoint::arm_guard("lineage-compile", FailAction::SleepMs(200));
    let delta = stuc::Delta::new().insert("R", &["c10", "c11"], 0.5);
    let budget = EvalBudget::with_deadline(Duration::from_millis(50));
    let tripped = engine.with_budget(&budget, || engine.apply_update(&mut tid, &delta));
    assert!(
        matches!(tripped, Err(StucError::DeadlineExceeded { .. })),
        "{tripped:?}"
    );
    assert_eq!(tid.fact_count(), 11, "the mutation is committed");
    drop(_armed);
    let read = engine.evaluate(&tid, &chain).unwrap();
    assert!(!read.lineage_cached, "the tripped entry was dropped");
    let fresh = Engine::new().evaluate(&tid, &chain).unwrap();
    assert_eq!(read.probability.to_bits(), fresh.probability.to_bits());
}

// ---------------------------------------------------------------------------
// Serve-side chaos
// ---------------------------------------------------------------------------

const PROGRAM: &str = "\
0.9 :: Train(\"paris\", \"lyon\").\n\
0.8 :: Train(\"lyon\", \"nice\").\n\
Hop(x, y) :- Train(x, y).\n";

fn exchange(addr: SocketAddr, payload: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn query_bytes(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
}

fn post_query(addr: SocketAddr, path: &str, body: &str) -> String {
    exchange(addr, &query_bytes(path, body))
}

fn spawn_server(config: ServeConfig) -> Server {
    let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
    Server::spawn(config, state).unwrap()
}

/// Serve-side template: arm a failpoint, fire 8 concurrent clients, and
/// require every client to get *some* complete answer (degraded is fine,
/// hung or empty is not — except for write faults, where the response
/// itself is the casualty and an empty reply is the accepted outcome).
fn serve_scenario(name: &str, action: FailAction, empty_ok: bool) {
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let hits_before = failpoint::hits(name);
    {
        let _armed = failpoint::arm_guard(name, action);
        let owned_name = name.to_string();
        with_watchdog(Duration::from_secs(60), name, move || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| scope.spawn(move || post_query(addr, "/query", "?- Train(x, y).")))
                    .collect();
                for handle in handles {
                    let response = handle.join().expect("chaos client panicked");
                    if response.is_empty() {
                        assert!(
                            empty_ok,
                            "failpoint {owned_name}: client got an empty reply"
                        );
                        continue;
                    }
                    assert!(
                        response.contains("HTTP/1.1"),
                        "failpoint {owned_name}: malformed reply {response:?}"
                    );
                }
            });
        });
    }
    assert!(
        failpoint::hits(name) > hits_before,
        "failpoint {name} was never reached by the clients"
    );
    // Fault cleared: the pool survived and answers are exact again.
    let healthy = post_query(addr, "/query", "?- Train(x, y).");
    assert!(healthy.contains("\"probability\":0.980000000"), "{healthy}");
    server.shutdown();
}

#[test]
fn serve_read_faults_become_typed_408s_and_the_pool_survives() {
    serve_scenario("serve-read", FailAction::Error("read chaos".into()), false);
}

#[test]
fn serve_read_panics_become_typed_500s_and_the_pool_survives() {
    serve_scenario("serve-read", FailAction::Panic, false);
}

#[test]
fn serve_write_panics_cost_one_response_never_the_worker() {
    serve_scenario("serve-write", FailAction::Panic, true);
}

#[test]
fn serve_accept_panics_drop_connections_never_the_acceptor() {
    // A panic on the accept path loses that connection (client sees EOF);
    // the acceptor itself must survive to serve the post-fault probe.
    serve_scenario("serve-accept", FailAction::Panic, true);
}

#[test]
fn serve_accept_sleep_delays_but_answers_exactly() {
    serve_scenario("serve-accept", FailAction::SleepMs(10), false);
}

/// The acceptance scenario: an expensive goal under a 100 ms deadline gets
/// a typed timeout while concurrent cheap goals answer bit-exactly. The
/// expensive goal is made reliably slow with a sleeping sweep failpoint —
/// wall-clock heavy, CPU-light, deterministic.
#[test]
fn tight_deadlines_time_out_expensive_goals_while_cheap_ones_answer() {
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Warm nothing: the circuit goal sweeps (and thus sleeps) on every
    // evaluation of a *fresh* lineage; cheap safe-plan goals never sweep.
    let _armed = failpoint::arm_guard("circuit-sweep", FailAction::SleepMs(400));
    let outcomes = with_watchdog(Duration::from_secs(60), "deadline-vs-cheap", move || {
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || {
                post_query(addr, "/query?deadline_ms=100", "?- Hop(x, y), Hop(y, z).")
            });
            let cheap: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || post_query(addr, "/query", "?- Train(x, y).")))
                .collect();
            (
                slow.join().unwrap(),
                cheap
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect::<Vec<_>>(),
            )
        })
    });
    let (slow, cheap) = outcomes;
    assert!(slow.contains("504 Gateway Timeout"), "{slow}");
    assert!(slow.contains("\"kind\":\"deadline\""), "{slow}");
    for response in cheap {
        assert!(
            response.contains("\"probability\":0.980000000"),
            "cheap goals must answer exactly under a neighbour's deadline: {response}"
        );
    }
    server.shutdown();
}

/// The cold circuit goal: its sweep is the one a sleeping `circuit-sweep`
/// failpoint stalls.
const CIRCUIT_GOAL: &str = "?- Hop(x, y), Hop(y, z).";

/// The process's threads by id, with their names; `None` without `/proc`.
fn live_threads() -> Option<std::collections::BTreeMap<String, String>> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .flatten()
            .map(|task| {
                let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
                (
                    task.file_name().to_string_lossy().into_owned(),
                    comm.trim().to_string(),
                )
            })
            .collect(),
    )
}

/// A client that sends its request and hangs up cancels the evaluation:
/// the first checkpoint after the sleeping sweep runs the budget's probe,
/// which sees the hang-up, and the request is answered `504 cancelled`
/// (to nobody), counted once as timed out and once as cancelled.
#[test]
fn a_client_that_hangs_up_mid_evaluation_cancels_it() {
    use std::io::Write;
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let cancelled = stuc::obs::metrics::registry().counter("stuc_engine_cancelled_total", "");
    let cancelled_before = cancelled.get();
    let _armed = failpoint::arm_guard("circuit-sweep", FailAction::SleepMs(300));
    TcpStream::connect(addr)
        .unwrap()
        .write_all(query_bytes("/query", CIRCUIT_GOAL).as_bytes())
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while server.stats().served == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the abandoned request was never answered: {:?}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.timed_out, 1, "{stats:?}");
    assert_eq!(cancelled.get() - cancelled_before, 1);
    server.shutdown();
}

/// A client that stays connected through the same stalled sweep gets the
/// whole answer: the probe ran (the sweep outlasts its interval), found the
/// client waiting, and blocking mode was back before the response write.
/// The goal is asked 5,000 times with `?explain=1`, and the client leaves
/// the response unread for a second, so the response (about 7 MB) fills
/// both socket buffers; a non-blocking write would stop there and end it
/// early. The process gains no thread while the request is in flight:
/// cancellation rides on the evaluation's own checkpoints. The client
/// samples the thread list every 5 ms until the response ends.
#[test]
fn a_client_that_stays_gets_the_whole_answer_and_costs_no_thread() {
    use std::io::{ErrorKind, Read, Write};
    let _serial = chaos_lock();
    let server = spawn_server(ServeConfig {
        workers: 2,
        max_body: 1 << 20,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let _armed = failpoint::arm_guard("circuit-sweep", FailAction::SleepMs(300));
    let (response, spawned) = with_watchdog(Duration::from_secs(60), "stay", move || {
        let before = live_threads();
        let mut spawned = std::collections::BTreeMap::new();
        let mut sample = || {
            if let (Some(before), Some(now)) = (&before, live_threads()) {
                spawned.extend(now.into_iter().filter(|(id, _)| !before.contains_key(id)));
            }
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        let body = CIRCUIT_GOAL.repeat(5000);
        stream
            .write_all(query_bytes("/query?explain=1", &body).as_bytes())
            .unwrap();
        let unread_until = std::time::Instant::now() + Duration::from_secs(1);
        while std::time::Instant::now() < unread_until {
            sample();
            std::thread::sleep(Duration::from_millis(5));
        }
        let (mut response, mut chunk) = (Vec::new(), [0u8; 1 << 16]);
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => response.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    sample()
                }
                Err(e) => panic!("reading the response: {e}"),
            }
        }
        (String::from_utf8(response).unwrap(), spawned)
    });
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response:.300}");
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(
        head.contains(&format!("Content-Length: {}\r\n", body.len())),
        "truncated body of {} bytes after {head}",
        body.len()
    );
    assert_eq!(body.matches("\"probability\":0.720000000").count(), 5000);
    assert_eq!(body.matches("\"explain\":").count(), 5000);
    assert!(
        spawned.is_empty(),
        "threads spawned mid-request: {spawned:?}"
    );
    server.shutdown();
}

/// Budgets also trip on explicit cancellation, reported as `Cancelled`
/// (not `DeadlineExceeded`) — checked engine-side, under load.
#[test]
fn cancellation_surfaces_as_a_typed_error_under_load() {
    let _serial = chaos_lock();
    let (tid, chain) = workload();
    let engine = Engine::new();
    let handle = stuc::CancelHandle::new();
    handle.cancel();
    let budget = EvalBudget::unlimited().cancelled_by(&handle);
    match engine.with_budget(&budget, || engine.evaluate(&tid, &chain)) {
        Err(StucError::Cancelled { stage }) => assert!(!stage.is_empty()),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The cancel flag is per-budget: the same engine answers without it.
    let expected = oracle();
    let got = engine.evaluate(&tid, &chain).unwrap().probability;
    assert_eq!(got.to_bits(), expected.to_bits());
}
