//! `stuc-serve` — a long-running query service over one shared [`Engine`].
//!
//! The engine's sharded caches make it cheaply shareable across threads
//! ([`Engine`] is `Send + Sync`); this module puts a network front on that:
//! a hand-rolled HTTP/1.1 server over `std::net` (the container is offline;
//! zero new dependencies) that loads a `stuc-lang` program once and serves
//! its goals to any number of clients.
//!
//! Architecture — three moving parts, all `std`:
//!
//! * an **acceptor** thread that accepts connections and pushes them onto a
//!   **bounded queue** — when the queue is full the acceptor immediately
//!   writes a typed `503 {"error":{"kind":"overload",…}}` and closes, so
//!   overload degrades to fast rejections instead of unbounded queueing or
//!   stalled clients (admission control);
//! * a **worker pool** (thread-per-core by default) popping connections,
//!   reading one request each ([`http`]), evaluating `POST /query` bodies
//!   through [`Engine::evaluate_goal`] against the loaded instance, and
//!   reporting per-goal probability, cost-model route, back-end and
//!   cache-hit flag in the JSON response;
//! * a [`ServeStats`] block of atomics (accepted / served / rejected /
//!   in-flight / shed / timed-out / errors) that tests and the `/stats`
//!   endpoint read.
//!
//! Fault tolerance, layered over that skeleton:
//!
//! * **deadlines** — [`ServeConfig::deadline`] caps every request,
//!   tightened per request by `?deadline_ms=`, anchored at *accept* time
//!   so queueing counts; requests that expired in the queue are answered
//!   `504` without touching the engine, and evaluation trips surface as
//!   typed `504 {"error":{"kind":"deadline",…}}` naming nothing the
//!   client should not see (the stage is in the message);
//! * **cancellation** — the request's budget carries a liveness probe
//!   that the engine's own checkpoints run: a non-blocking `peek` on the
//!   request's socket, at most once per
//!   [`PROBE_INTERVAL`](stuc_fault::budget::PROBE_INTERVAL) (20 ms) and
//!   first one interval into evaluation. A client that hung up trips the
//!   budget as `Cancelled`, so abandoned work stops at the next
//!   checkpoint; a goal that answers within 20 ms never touches the
//!   socket, and no request costs a thread;
//! * **panic isolation** — the whole request path runs under
//!   `catch_unwind`; a panic (bug or injected fault) becomes a typed
//!   `500` and the worker survives;
//! * **load shedding** — beyond queue-full rejection,
//!   [`ServeConfig::shed_cost_ceiling`] sheds queries whose cost-model
//!   estimate exceeds the ceiling while other connections wait
//!   (`503 {"error":{"kind":"shed",…}}` + `Retry-After`), so cheap goals
//!   keep answering under saturation.
//!
//! Protocol: one request per connection (`Connection: close`), endpoints
//! `POST /query` (body = `stuc-lang` rules + goals; inline facts are
//! rejected — the instance is the one loaded at startup; append
//! `?timings=1` for a per-stage wall-time breakdown per goal),
//! `GET /health`, `GET /stats`, `GET /metrics` (Prometheus text format),
//! `GET /debug/slow` (the ring-buffered slow-query log). Default responses
//! are deterministic given the request and the loaded program, which is
//! what the byte-exact golden protocol test (`tests/serve_golden.rs`,
//! `ci/serve_session.golden`) pins down; `/metrics`, `/debug/slow` and
//! `?timings=1` responses carry live timings and are asserted by parsing,
//! not byte equality.

pub mod http;

use crate::engine::metrics::engine_metrics;
use crate::engine::{Engine, EvalBudget, StucError};
use http::{escape_json, HttpError, Request, Response};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stuc_data::tid::TidInstance;
use stuc_lang::ast::RuleAst;
use stuc_lang::lower::program_instance;
use stuc_lang::{parse_program, LangError};
use stuc_obs::metrics::{registry, Counter, Gauge, Histogram};
use stuc_obs::{slowlog, Stopwatch};

/// Pre-resolved global `stuc_serve_*` metric handles, mirroring the
/// per-server [`ServeStats`] atomics into the process-wide registry (the
/// per-server atomics stay authoritative for [`Server::stats`] and the
/// golden-deterministic `/stats` endpoint).
struct ServeMetrics {
    queue_depth: Arc<Gauge>,
    in_flight: Arc<Gauge>,
    rejected_overload: Arc<Counter>,
    served: Arc<Counter>,
    request_errors: Arc<Counter>,
    request_seconds: Arc<Histogram>,
    shed: Arc<Counter>,
}

fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = registry();
        ServeMetrics {
            queue_depth: reg.gauge(
                "stuc_serve_queue_depth",
                "Connections waiting in the bounded accept queue.",
            ),
            in_flight: reg.gauge(
                "stuc_serve_in_flight",
                "Requests currently being handled by workers.",
            ),
            rejected_overload: reg.counter(
                "stuc_serve_rejected_overload_total",
                "Connections rejected by admission control (queue full).",
            ),
            served: reg.counter(
                "stuc_serve_requests_total",
                "Requests answered (any status).",
            ),
            request_errors: reg.counter(
                "stuc_serve_request_errors_total",
                "Requests that failed to parse as HTTP (timeout included).",
            ),
            request_seconds: reg.histogram(
                "stuc_serve_request_seconds",
                "Wall time from dequeue to response written, per request.",
            ),
            shed: reg.counter(
                "stuc_serve_shed_total",
                "Queries shed by the cost ceiling under queue pressure.",
            ),
        }
    })
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:7878`; port 0 picks a free port.
    pub addr: String,
    /// Worker threads; 0 (default) uses
    /// [`std::thread::available_parallelism`] (thread-per-core).
    pub workers: usize,
    /// Bounded accept-queue capacity; connections arriving while the queue
    /// is full are rejected with a typed overload response.
    pub queue_capacity: usize,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// Maximum accepted request-body size in bytes.
    pub max_body: usize,
    /// Server-wide per-request deadline, anchored at *accept* time (so
    /// time spent waiting in the queue counts against it). `None` means
    /// unlimited. Clients may tighten it per request with `?deadline_ms=`
    /// but can never exceed it.
    pub deadline: Option<Duration>,
    /// Cost-ceiling load shedding: when set and the server is under
    /// pressure (other connections are waiting in the queue when a request
    /// reaches a worker), queries whose cost-model estimate exceeds this
    /// ceiling are shed with `503 {"error":{"kind":"shed",…}}` and a
    /// `Retry-After` header instead of being evaluated — expensive queries
    /// go first, cheap ones keep answering.
    pub shed_cost_ceiling: Option<f64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 1024,
            io_timeout: Duration::from_secs(10),
            max_body: 64 * 1024,
            deadline: None,
            shed_cost_ceiling: None,
        }
    }
}

/// Everything the workers share: the engine, the loaded instance, and the
/// program's rules (kept for goal unfolding, exactly like the REPL).
#[derive(Debug)]
pub struct ServiceState {
    engine: Engine,
    instance: TidInstance,
    rules: Vec<RuleAst>,
    /// Service-local trace-id sequence. Query responses carry this (not the
    /// process-global id) so a fresh service produces the same ids for the
    /// same request sequence — the byte-exact golden depends on it.
    trace_seq: AtomicU64,
}

impl ServiceState {
    /// A service over an explicit engine, instance and rule set.
    pub fn new(engine: Engine, instance: TidInstance, rules: Vec<RuleAst>) -> ServiceState {
        ServiceState {
            engine,
            instance,
            rules,
            trace_seq: AtomicU64::new(0),
        }
    }

    /// Builds the service from `stuc-lang` source: facts become the served
    /// instance, rules stay in scope for every request's goals.
    pub fn from_program(engine: Engine, src: &str) -> Result<ServiceState, StucError> {
        let program = parse_program(src).map_err(LangError::from)?;
        let instance = program_instance(&program).map_err(LangError::from)?;
        let rules = program.rules().into_iter().cloned().collect();
        Ok(ServiceState::new(engine, instance, rules))
    }

    /// The shared engine (e.g. to read [`Engine::cache_stats`]).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Facts in the served instance.
    pub fn fact_count(&self) -> usize {
        self.instance.fact_count()
    }

    /// Rules in scope for every request.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The cost model's estimate for a request body (sum over its goals of
    /// the cheaper route's cost), the admission-control signal behind
    /// load shedding. Goals over predicates only the *service* program
    /// defines are estimated as base scans (the estimate parses the body
    /// stand-alone), which under-counts derived goals — acceptable for a
    /// shedding heuristic, which fails open on any error anyway.
    pub fn estimate_cost(&self, body: &str) -> Result<f64, StucError> {
        self.engine.estimate_text_cost(&self.instance, body)
    }

    /// Evaluates one request body (rules + goals) and renders the response.
    /// Exposed for the golden test, which also replays bodies in-process.
    pub fn respond(&self, request: &Request) -> Response {
        // Split an optional query string off the path: `/query?timings=1`
        // routes like `/query` with the timings switch set.
        let (path, params) = match request.path.split_once('?') {
            Some((path, params)) => (path, params),
            None => (request.path.as_str(), ""),
        };
        match (request.method.as_str(), path) {
            ("POST", "/query") => {
                let timings = params.split('&').any(|p| p == "timings=1");
                let explain = params.split('&').any(|p| p == "explain=1");
                self.respond_query(&request.body, timings, explain)
            }
            ("GET", "/health") => Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"facts\":{},\"rules\":{}}}",
                    self.fact_count(),
                    self.rule_count()
                ),
            ),
            ("GET", "/metrics") => Response::text(200, registry().render_prometheus()),
            ("GET", "/debug/slow") => respond_slow(),
            ("GET", "/debug/profile") => respond_profile(params),
            (method, path) => Response::error(
                404,
                "not-found",
                &format!("no such endpoint: {method} {path}"),
            ),
        }
    }

    fn respond_query(&self, body: &str, timings: bool, explain: bool) -> Response {
        let program = match parse_program(body) {
            Ok(program) => program,
            Err(error) => return Response::error(400, "parse", &error.to_string()),
        };
        let facts = program.facts().count();
        if facts > 0 {
            return Response::error(
                400,
                "facts",
                &format!(
                    "request declares {facts} inline fact(s); the served instance is fixed at \
                     startup — send rules and goals only"
                ),
            );
        }
        let mut rules: Vec<&RuleAst> = self.rules.iter().collect();
        rules.extend(program.rules());
        let trace_id = self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut results = Vec::new();
        for query in program.queries() {
            // Panic isolation: a panic inside evaluation (bug or injected
            // fault) becomes a typed 500 for this request; the worker
            // thread and the shared engine survive.
            match crate::engine::catch_panic(|| {
                self.engine
                    .evaluate_goal(&self.instance, &query.goal, &rules)
            }) {
                Ok(goal) => {
                    // The slow-log entry carries the *service* trace id, the
                    // same one the response body reports.
                    slowlog::global().note("serve-query", goal.report.wall_time, trace_id, || {
                        goal.source.clone()
                    });
                    let mut fields = format!(
                        "{{\"goal\":\"{}\",\"probability\":{:.9},\"route\":\"{}\",\"backend\":\"{}\",\"lineage_cached\":{},\"gates\":{}",
                        escape_json(&goal.source),
                        goal.probability,
                        goal.decision.route,
                        goal.report.backend_name(),
                        goal.report.lineage_cached,
                        goal.report.circuit_gates
                    );
                    if timings {
                        // Live microsecond laps: only rendered on request,
                        // so the default response stays deterministic.
                        let stages: Vec<String> = goal
                            .report
                            .stage_timings
                            .stages()
                            .iter()
                            .map(|stage| {
                                format!(
                                    "{{\"stage\":\"{}\",\"micros\":{}}}",
                                    escape_json(stage.name),
                                    stage.duration.as_micros()
                                )
                            })
                            .collect();
                        fields.push_str(&format!(
                            ",\"wall_micros\":{},\"stages\":[{}]",
                            goal.report.wall_time.as_micros(),
                            stages.join(",")
                        ));
                    }
                    if explain {
                        // The explanation runs *after* the evaluation, so
                        // it sees the cache the run just warmed and agrees
                        // with the report above on route/backend/width.
                        // Its JSON is deterministic (no floats, no
                        // timings), so it is part of the golden protocol.
                        match self
                            .engine
                            .explain_goal(&self.instance, &query.goal, &rules)
                        {
                            Ok(explanation) => {
                                fields.push_str(&format!(",\"explain\":{}", explanation.to_json()));
                            }
                            Err(error) => {
                                fields.push_str(&format!(
                                    ",\"explain_error\":\"{}\"",
                                    escape_json(&error.to_string())
                                ));
                            }
                        }
                    }
                    fields.push('}');
                    results.push(fields);
                }
                Err(StucError::DeadlineExceeded { stage }) => {
                    engine_metrics().deadline_exceeded.inc();
                    // Failed evaluations are outliers by definition:
                    // retained past the threshold, tagged with the stage
                    // that noticed the trip.
                    slowlog::global().note_failure(
                        "serve-query",
                        "deadline-exceeded",
                        Duration::ZERO,
                        trace_id,
                        || format!("{}: stage={stage}", query.goal),
                    );
                    return Response::error(
                        504,
                        "deadline",
                        &format!("deadline exceeded during {stage}"),
                    );
                }
                Err(StucError::Cancelled { stage }) => {
                    engine_metrics().cancelled.inc();
                    slowlog::global().note_failure(
                        "serve-query",
                        "cancelled",
                        Duration::ZERO,
                        trace_id,
                        || format!("{}: stage={stage}", query.goal),
                    );
                    return Response::error(
                        504,
                        "cancelled",
                        &format!("evaluation cancelled during {stage} (client went away?)"),
                    );
                }
                Err(StucError::Internal { message }) => {
                    // Panics land in the slow log with the goal that caused
                    // them: `/debug/slow` is the operator's first stop.
                    slowlog::global().note_failure(
                        "serve-query",
                        "panic",
                        Duration::ZERO,
                        trace_id,
                        || format!("{}: {message}", query.goal),
                    );
                    return Response::error(500, "internal", &message);
                }
                Err(error) => {
                    return Response::error(422, "evaluate", &error.to_string());
                }
            }
        }
        Response::json(
            200,
            format!(
                "{{\"trace_id\":{trace_id},\"results\":[{}]}}",
                results.join(",")
            ),
        )
    }
}

/// Renders the process-global slow-query log (`GET /debug/slow`).
fn respond_slow() -> Response {
    let log = slowlog::global();
    let entries: Vec<String> = log
        .entries()
        .iter()
        .map(|entry| {
            format!(
                "{{\"seq\":{},\"what\":\"{}\",\"outcome\":\"{}\",\"trace_id\":{},\"wall_micros\":{},\"detail\":\"{}\"}}",
                entry.seq,
                escape_json(entry.what),
                escape_json(entry.outcome),
                entry.trace_id,
                entry.wall.as_micros(),
                escape_json(&entry.detail)
            )
        })
        .collect();
    Response::json(
        200,
        format!(
            "{{\"threshold_micros\":{},\"entries\":[{}]}}",
            log.threshold().as_micros(),
            entries.join(",")
        ),
    )
}

/// `GET /debug/profile?seconds=N&hz=H` — block this worker for `N`
/// seconds sampling every registered thread's span-stack shadow, then
/// return the aggregate as collapsed flamegraph stacks (`stack count`
/// lines, `flamegraph.pl`/speedscope-compatible). Other workers keep
/// serving queries while one samples.
///
/// Gated on the profiler being armed (`--profile-hz` on `stuc-serve`, or
/// `stuc_obs::profile::set_enabled(true)` in-process): an unarmed process
/// has no span shadows to sample, so the endpoint answers a typed `409`
/// instead of returning 100% idle samples.
fn respond_profile(params: &str) -> Response {
    if !stuc_obs::profile::enabled() {
        return Response::error(
            409,
            "profiling-disabled",
            "the sampling profiler is off; start stuc-serve with --profile-hz N",
        );
    }
    let mut seconds = 2.0f64;
    let mut hz = stuc_obs::profile::default_hz();
    for param in params.split('&') {
        if let Some(value) = param.strip_prefix("seconds=") {
            match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 => seconds = s,
                _ => return Response::error(400, "profile", "seconds= needs a positive number"),
            }
        } else if let Some(value) = param.strip_prefix("hz=") {
            match value.parse::<u32>() {
                Ok(h) if h > 0 => hz = h,
                _ => return Response::error(400, "profile", "hz= needs a positive integer"),
            }
        }
    }
    // Bound the worker-blocking window and the sampling rate: profiling is
    // diagnostics, not a denial-of-service lever.
    let seconds = seconds.min(60.0);
    let hz = hz.min(1000);
    let report = stuc_obs::profile::sample_for(Duration::from_secs_f64(seconds), hz);
    Response::text(200, report.flamegraph_collapsed())
}

/// Lifetime counters of a running server, all atomics — cheap to bump on
/// the hot path, coherent enough for tests and dashboards.
#[derive(Debug, Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    rejected_overload: AtomicU64,
    served: AtomicU64,
    request_errors: AtomicU64,
    in_flight: AtomicU64,
    shed: AtomicU64,
    timed_out: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`] plus the live queue depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Connections accepted (admitted to the queue).
    pub accepted: u64,
    /// Connections rejected with the typed overload response.
    pub rejected_overload: u64,
    /// Requests answered (any status).
    pub served: u64,
    /// Requests that failed to parse as HTTP (timeout included).
    pub request_errors: u64,
    /// Requests currently being handled by workers.
    pub in_flight: u64,
    /// Queries shed by the cost ceiling under queue pressure.
    pub shed: u64,
    /// Requests answered with a deadline/cancellation timeout (expired in
    /// the queue or tripped during evaluation).
    pub timed_out: u64,
    /// Connections currently waiting in the accept queue.
    pub queued: usize,
}

/// The bounded hand-off between the acceptor and the workers. Each entry
/// carries its *accept* timestamp so deadlines count queue time and
/// already-expired requests can be rejected without evaluation.
#[derive(Debug)]
struct ConnQueue {
    inner: Mutex<VecQueue>,
    available: Condvar,
    capacity: usize,
}

#[derive(Debug, Default)]
struct VecQueue {
    connections: std::collections::VecDeque<(TcpStream, Instant)>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(VecQueue::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admission control: enqueue, or hand the connection back on overflow.
    fn try_push(&self, connection: TcpStream, accepted_at: Instant) -> Result<(), TcpStream> {
        let mut queue = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if queue.closed || queue.connections.len() >= self.capacity {
            return Err(connection);
        }
        queue.connections.push_back((connection, accepted_at));
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available; `None` once closed and empty.
    fn pop(&self) -> Option<(TcpStream, Instant)> {
        let mut queue = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(entry) = queue.connections.pop_front() {
                return Some(entry);
            }
            if queue.closed {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .connections
            .len()
    }

    /// Closes the queue: workers drain what is left, then exit. Remaining
    /// connections after the drain are dropped (the peer sees a close).
    fn close(&self) {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).closed = true;
        self.available.notify_all();
    }
}

/// Whether the client of `connection` is still there, by a non-blocking
/// one-byte `peek`: EOF or a hard error means it hung up, `WouldBlock` or
/// early bytes of a pipelined request mean it is waiting. A client that
/// half-closes its write side after sending the request is
/// indistinguishable from one that hung up and is treated as gone.
///
/// `O_NONBLOCK` lives on the socket's open file description and stays set
/// after the peek: batch workers re-install the budget, so probes may run
/// on several threads, and none may switch blocking mode back under
/// another. [`handle_query`] restores it once evaluation is over.
fn client_connected(connection: &TcpStream) -> bool {
    if connection.set_nonblocking(true).is_err() {
        return true;
    }
    match connection.peek(&mut [0u8; 1]) {
        Ok(0) => false,
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::WouldBlock,
    }
}

/// A running `stuc-serve` instance: acceptor + bounded queue + worker pool
/// over one shared [`ServiceState`]. Dropping without calling
/// [`Server::shutdown`] detaches the threads (the process-exit case);
/// tests call `shutdown` for a clean join.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    stats: Arc<ServeStats>,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving. Returns as soon as the acceptor and the
    /// workers are running; [`Server::addr`] has the actual address (useful
    /// with port 0).
    pub fn spawn(config: ServeConfig, state: ServiceState) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(state);
        let stats = Arc::new(ServeStats::default());
        let queue = Arc::new(ConnQueue::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));

        let worker_count = match config.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let mut workers = Vec::with_capacity(worker_count);
        for index in 0..worker_count {
            let state = Arc::clone(&state);
            let stats = Arc::clone(&stats);
            let queue = Arc::clone(&queue);
            let config = config.clone();
            let worker = std::thread::Builder::new()
                .name(format!("stuc-serve-worker-{index}"))
                .spawn(move || {
                    while let Some((connection, accepted_at)) = queue.pop() {
                        let metrics = serve_metrics();
                        metrics.queue_depth.sub(1);
                        metrics.in_flight.add(1);
                        stats.in_flight.fetch_add(1, Ordering::SeqCst);
                        // Belt and braces over the per-request catch inside
                        // handle_connection: even a panic while *writing*
                        // the response (past that catch) must not kill the
                        // worker — the connection is lost, the pool is not.
                        let _ = crate::engine::catch_panic(|| {
                            handle_connection(
                                connection,
                                accepted_at,
                                &state,
                                &stats,
                                &config,
                                &queue,
                            );
                            Ok(())
                        });
                        stats.in_flight.fetch_sub(1, Ordering::SeqCst);
                        metrics.in_flight.sub(1);
                    }
                })?;
            workers.push(worker);
        }

        let acceptor = {
            let stats = Arc::clone(&stats);
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let capacity = config.queue_capacity;
            let io_timeout = config.io_timeout;
            std::thread::Builder::new()
                .name("stuc-serve-acceptor".into())
                .spawn(move || {
                    for connection in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        // A panic on the accept path (e.g. an injected
                        // serve-accept fault) drops this one connection,
                        // never the acceptor thread.
                        let _ = crate::engine::catch_panic(|| {
                            stuc_fault::failpoint!("serve-accept");
                            let Ok(mut connection) = connection else {
                                return Ok(());
                            };
                            match queue.try_push(connection, Instant::now()) {
                                Ok(()) => {
                                    stats.accepted.fetch_add(1, Ordering::SeqCst);
                                    serve_metrics().queue_depth.add(1);
                                }
                                Err(rejected) => {
                                    // Admission control: typed rejection,
                                    // written inline (small fixed-size
                                    // response), never a stall.
                                    connection = rejected;
                                    let _ = connection.set_write_timeout(Some(io_timeout));
                                    stats.rejected_overload.fetch_add(1, Ordering::SeqCst);
                                    serve_metrics().rejected_overload.inc();
                                    Response::error(
                                        503,
                                        "overload",
                                        &format!(
                                            "request queue full (capacity {capacity}); retry later"
                                        ),
                                    )
                                    .with_retry_after(1)
                                    .write_to(&mut connection);
                                    reject_close(connection);
                                }
                            }
                            Ok(())
                        });
                    }
                })?
        };

        Ok(Server {
            addr,
            state,
            stats,
            queue,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (engine, instance, rules).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> ServeSnapshot {
        ServeSnapshot {
            accepted: self.stats.accepted.load(Ordering::SeqCst),
            rejected_overload: self.stats.rejected_overload.load(Ordering::SeqCst),
            served: self.stats.served.load(Ordering::SeqCst),
            request_errors: self.stats.request_errors.load(Ordering::SeqCst),
            in_flight: self.stats.in_flight.load(Ordering::SeqCst),
            shed: self.stats.shed.load(Ordering::SeqCst),
            timed_out: self.stats.timed_out.load(Ordering::SeqCst),
            queued: self.queue.len(),
        }
    }

    /// Blocks forever serving requests — the `stuc-serve` binary's main
    /// loop (the process is stopped by signal/kill).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops accepting, drains the queue, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Closes a rejected connection without triggering a TCP reset. The
/// rejection path never reads the request, so the client's bytes are still
/// in our receive buffer; closing now would send RST and the client could
/// lose the 503 it was owed. Instead: FIN our side, then drain whatever the
/// client sends until it sees the response and closes (bounded by a short
/// timeout so a stalled peer cannot hold the acceptor).
fn reject_close(mut connection: TcpStream) {
    use std::io::Read;
    let _ = connection.shutdown(std::net::Shutdown::Write);
    let _ = connection.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 1024];
    while let Ok(n) = connection.read(&mut sink) {
        if n == 0 {
            break;
        }
    }
}

/// The client's `?deadline_ms=` request parameter, when present and
/// numeric.
fn deadline_ms_param(path: &str) -> Option<u64> {
    let (_, params) = path.split_once('?')?;
    params
        .split('&')
        .find_map(|p| p.strip_prefix("deadline_ms=")?.parse().ok())
}

/// Handles `POST /query` under the fault-tolerance policies, in order:
///
/// 1. **Deadline-aware queueing** — the effective deadline is the server's
///    cap tightened by `?deadline_ms=`, anchored at *accept* time; a
///    request that expired while queued is answered `504` immediately,
///    sparing the engine work nobody is waiting for.
/// 2. **Cost-ceiling shedding** — under pressure (other connections are
///    waiting in the queue right now), a query whose cost-model estimate
///    exceeds the configured ceiling is shed with `503` + `Retry-After`
///    (estimate errors fail open: evaluation produces the typed error).
/// 3. **Budgeted evaluation** — the budget (deadline + a probe that peeks
///    at the socket for a client that hung up, at most once per
///    [`PROBE_INTERVAL`](stuc_fault::budget::PROBE_INTERVAL) and never
///    before the first interval has passed) is installed for the
///    evaluation scope; the engine's checkpoints surface trips as typed
///    `504` responses. Blocking mode comes back before the response is
///    written, and only if a probe ran.
fn handle_query(
    connection: &Arc<TcpStream>,
    request: &Request,
    accepted_at: Instant,
    state: &ServiceState,
    stats: &ServeStats,
    config: &ServeConfig,
    queue: &ConnQueue,
) -> Response {
    let client_ms = deadline_ms_param(&request.path).map(Duration::from_millis);
    let effective = match (config.deadline, client_ms) {
        (Some(server), Some(client)) => Some(server.min(client)),
        (server, client) => server.or(client),
    };
    let deadline_at = effective.map(|limit| accepted_at + limit);

    if let Some(deadline) = deadline_at {
        if Instant::now() >= deadline {
            stats.timed_out.fetch_add(1, Ordering::SeqCst);
            engine_metrics().deadline_exceeded.inc();
            slowlog::global().note_failure(
                "serve-queue",
                "deadline-exceeded",
                accepted_at.elapsed(),
                0,
                || "deadline expired while the request was queued".to_string(),
            );
            return Response::error(
                504,
                "deadline",
                "deadline expired while the request was queued; evaluation was not started",
            );
        }
    }

    if let Some(ceiling) = config.shed_cost_ceiling {
        let under_pressure = queue.len() > 0;
        if under_pressure {
            if let Ok(cost) = state.estimate_cost(&request.body) {
                if cost > ceiling {
                    stats.shed.fetch_add(1, Ordering::SeqCst);
                    serve_metrics().shed.inc();
                    return Response::error(
                        503,
                        "shed",
                        &format!(
                            "query cost estimate {cost:.1} exceeds the ceiling {ceiling:.1} \
                             and the server is under load; retry later"
                        ),
                    )
                    .with_retry_after(1);
                }
            }
        }
    }

    let budget = match deadline_at {
        Some(deadline) => EvalBudget::with_deadline_at(deadline),
        None => EvalBudget::unlimited(),
    };
    let probed = Arc::new(AtomicBool::new(false));
    let budget = budget.probed_by({
        let connection = Arc::clone(connection);
        let probed = Arc::clone(&probed);
        move || {
            probed.store(true, Ordering::Relaxed);
            client_connected(&connection)
        }
    });
    let (response, budget_stats) =
        stuc_fault::budget::scope_with_stats(budget, || state.respond(request));
    // Every probe has run by now; the response write needs blocking mode.
    if probed.load(Ordering::Relaxed) {
        let _ = connection.set_nonblocking(false);
    }
    engine_metrics()
        .budget_check_seconds
        .observe(budget_stats.spent);
    if response.status == 504 {
        stats.timed_out.fetch_add(1, Ordering::SeqCst);
    }
    response
}

/// One connection end to end: read a request, route it, write the
/// response, close. Errors become typed 4xx/5xx responses (best effort),
/// and a panic anywhere on the request path (reading included) becomes a
/// typed 500 — the worker thread always survives to take the next
/// connection.
fn handle_connection(
    connection: TcpStream,
    accepted_at: Instant,
    state: &ServiceState,
    stats: &ServeStats,
    config: &ServeConfig,
    queue: &ConnQueue,
) {
    let watch = Stopwatch::start();
    let _ = connection.set_read_timeout(Some(config.io_timeout));
    let _ = connection.set_write_timeout(Some(config.io_timeout));
    // Shared with the evaluation's liveness probe, which peeks at it.
    let connection = Arc::new(connection);
    let response = crate::engine::catch_panic(|| {
        Ok(route_request(
            &connection,
            accepted_at,
            state,
            stats,
            config,
            queue,
        ))
    })
    .unwrap_or_else(|error| match error {
        StucError::Internal { message } => Response::error(500, "internal", &message),
        other => Response::error(500, "internal", &other.to_string()),
    });
    response.write_to(&*connection);
    stats.served.fetch_add(1, Ordering::SeqCst);
    let metrics = serve_metrics();
    metrics.served.inc();
    metrics.request_seconds.observe(watch.elapsed());
}

/// Reads and routes one request (the panic-isolated part of
/// [`handle_connection`]).
fn route_request(
    connection: &Arc<TcpStream>,
    accepted_at: Instant,
    state: &ServiceState,
    stats: &ServeStats,
    config: &ServeConfig,
    queue: &ConnQueue,
) -> Response {
    match http::read_request(connection, config.max_body) {
        Ok(request) => {
            let path = request.path.split('?').next().unwrap_or("");
            match (request.method.as_str(), path) {
                ("GET", "/stats") => {
                    let snapshot = ServeSnapshot {
                        accepted: stats.accepted.load(Ordering::SeqCst),
                        rejected_overload: stats.rejected_overload.load(Ordering::SeqCst),
                        served: stats.served.load(Ordering::SeqCst),
                        request_errors: stats.request_errors.load(Ordering::SeqCst),
                        in_flight: stats.in_flight.load(Ordering::SeqCst),
                        shed: stats.shed.load(Ordering::SeqCst),
                        timed_out: stats.timed_out.load(Ordering::SeqCst),
                        queued: 0,
                    };
                    let caches = state.engine().cache_stats();
                    Response::json(
                        200,
                        format!(
                            "{{\"accepted\":{},\"served\":{},\"rejected_overload\":{},\"request_errors\":{},\"in_flight\":{},\"shed\":{},\"timed_out\":{},\
                             \"caches\":{{\"decompositions\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}},\
                             \"lineages\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}}}}}}",
                            snapshot.accepted,
                            snapshot.served,
                            snapshot.rejected_overload,
                            snapshot.request_errors,
                            snapshot.in_flight,
                            snapshot.shed,
                            snapshot.timed_out,
                            caches.decompositions.hits,
                            caches.decompositions.misses,
                            caches.decompositions.evictions,
                            caches.lineages.hits,
                            caches.lineages.misses,
                            caches.lineages.evictions,
                        ),
                    )
                }
                ("POST", "/query") => handle_query(
                    connection,
                    &request,
                    accepted_at,
                    state,
                    stats,
                    config,
                    queue,
                ),
                _ => state.respond(&request),
            }
        }
        Err(HttpError::BodyTooLarge { declared, limit }) => {
            stats.request_errors.fetch_add(1, Ordering::SeqCst);
            serve_metrics().request_errors.inc();
            Response::error(
                413,
                "too-large",
                &format!("body of {declared} bytes exceeds limit {limit}"),
            )
        }
        Err(HttpError::Malformed(what)) => {
            stats.request_errors.fetch_add(1, Ordering::SeqCst);
            serve_metrics().request_errors.inc();
            Response::error(400, "malformed", &format!("malformed request: {what}"))
        }
        Err(HttpError::Io(error)) => {
            stats.request_errors.fetch_add(1, Ordering::SeqCst);
            serve_metrics().request_errors.inc();
            Response::error(408, "read", &format!("could not read request: {error}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    const PROGRAM: &str = "\
        0.9 :: Train(\"paris\", \"lyon\").\n\
        0.8 :: Train(\"lyon\", \"nice\").\n\
        Hop(x, y) :- Train(x, y).\n";

    fn request(addr: SocketAddr, payload: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(payload.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn post_query(addr: SocketAddr, body: &str) -> String {
        request(
            addr,
            &format!(
                "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        )
    }

    #[test]
    fn serves_goals_health_and_errors_end_to_end() {
        let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
        let server = Server::spawn(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            state,
        )
        .unwrap();
        let addr = server.addr();

        let health = request(addr, "GET /health HTTP/1.1\r\n\r\n");
        assert!(health.contains("200 OK"));
        assert!(health.ends_with("{\"status\":\"ok\",\"facts\":2,\"rules\":1}"));

        let answer = post_query(addr, "?- Train(x, y).");
        assert!(answer.contains("200 OK"), "{answer}");
        assert!(answer.contains("\"probability\":0.980000000"), "{answer}");
        assert!(answer.contains("\"route\":\"safe-plan\""), "{answer}");

        // Rules from the loaded program stay in scope.
        let hop = post_query(addr, "?- Hop(x, y), Hop(y, z).");
        assert!(hop.contains("200 OK"), "{hop}");
        assert!(hop.contains("\"route\":\"circuit\""), "{hop}");

        let parse_error = post_query(addr, "?- Train(x");
        assert!(parse_error.contains("400 Bad Request"), "{parse_error}");
        assert!(parse_error.contains("\"kind\":\"parse\""), "{parse_error}");

        let facts = post_query(addr, "0.5 :: Train(\"a\", \"b\").");
        assert!(facts.contains("\"kind\":\"facts\""), "{facts}");

        let missing = request(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(missing.contains("404 Not Found"), "{missing}");

        let snapshot = server.stats();
        assert!(snapshot.served >= 6);
        assert_eq!(snapshot.rejected_overload, 0);
        server.shutdown();
    }

    /// Holds the worker (or a queue slot) hostage: declares a body it never
    /// sends, so the server blocks reading until the stream is dropped.
    fn stall(addr: SocketAddr) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /query HTTP/1.1\r\nContent-Length: 64\r\n\r\npartial")
            .unwrap();
        stream
    }

    #[test]
    fn a_zero_deadline_request_gets_a_typed_504_without_evaluation() {
        let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
        let server = Server::spawn(
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
            state,
        )
        .unwrap();
        let addr = server.addr();
        // Anchored at accept time, a 0 ms deadline has always expired by
        // the time a worker dequeues the connection.
        let body = "?- Train(x, y).";
        let response = request(
            addr,
            &format!(
                "POST /query?deadline_ms=0 HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(response.contains("504 Gateway Timeout"), "{response}");
        assert!(response.contains("\"kind\":\"deadline\""), "{response}");
        assert!(
            response.contains("expired while the request was queued"),
            "{response}"
        );
        let stats = server.stats();
        assert_eq!(stats.timed_out, 1, "{stats:?}");
        // The engine stays healthy: the same goal without a deadline
        // answers exactly.
        let ok = post_query(addr, body);
        assert!(ok.contains("\"probability\":0.980000000"), "{ok}");
        server.shutdown();
    }

    #[test]
    fn expensive_queries_are_shed_under_pressure_while_cheap_ones_answer() {
        let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
        let cheap_goal = "?- Train(x, y).";
        let pricey_goal = "?- Train(x, y), Train(y, z), Train(z, w).";
        let cheap_cost = state.estimate_cost(cheap_goal).unwrap();
        let pricey_cost = state.estimate_cost(pricey_goal).unwrap();
        assert!(
            pricey_cost > cheap_cost,
            "cost model must separate the goals: {cheap_cost} vs {pricey_cost}"
        );
        let server = Server::spawn(
            ServeConfig {
                workers: 1,
                queue_capacity: 8,
                // Short, so dropped hostages release the worker quickly.
                io_timeout: Duration::from_millis(500),
                shed_cost_ceiling: Some((cheap_cost + pricey_cost) / 2.0),
                ..ServeConfig::default()
            },
            state,
        )
        .unwrap();
        let addr = server.addr();

        let wait_until = |what: &str, ready: &dyn Fn(&ServeSnapshot) -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let stats = server.stats();
                if ready(&stats) {
                    break;
                }
                assert!(Instant::now() < deadline, "server never {what}: {stats:?}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };

        // Occupy the single worker, then queue the expensive probe and one
        // more hostage behind it: when the worker finally dequeues the
        // probe, the queue is provably non-empty — pressure, not a race.
        let hostage_worker = stall(addr);
        wait_until("picked up the first hostage", &|s| {
            s.in_flight == 1 && s.queued == 0
        });
        let probe = std::thread::spawn(move || post_query(addr, pricey_goal));
        wait_until("queued the probe", &|s| s.queued == 1);
        let hostage_queue = stall(addr);
        wait_until("queued the second hostage", &|s| s.queued == 2);
        drop(hostage_worker);

        let shed = probe.join().unwrap();
        assert!(shed.contains("503 Service Unavailable"), "{shed}");
        assert!(shed.contains("\"kind\":\"shed\""), "{shed}");
        assert!(shed.contains("Retry-After: 1"), "{shed}");
        drop(hostage_queue);
        wait_until("drained the hostages", &|s| {
            s.queued == 0 && s.in_flight == 0
        });

        // Cheap goals keep answering — exactly — and an idle server serves
        // even the expensive goal (shedding needs pressure, not just cost).
        let cheap = post_query(addr, cheap_goal);
        assert!(cheap.contains("\"probability\":0.980000000"), "{cheap}");
        let pricey = post_query(addr, pricey_goal);
        assert!(pricey.contains("200 OK"), "{pricey}");
        let stats = server.stats();
        assert_eq!(stats.shed, 1, "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn the_probe_tells_a_waiting_client_from_one_that_hung_up() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        assert!(client_connected(&server_side), "a waiting client is there");
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        while client_connected(&server_side) {
            assert!(Instant::now() < deadline, "the hang-up was never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn repeated_goals_hit_the_shared_lineage_cache() {
        let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
        let server = Server::spawn(
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
            state,
        )
        .unwrap();
        let addr = server.addr();
        let goal = "?- Hop(x, y), Hop(y, z).";
        let cold = post_query(addr, goal);
        assert!(cold.contains("\"lineage_cached\":false"), "{cold}");
        let warm = post_query(addr, goal);
        assert!(warm.contains("\"lineage_cached\":true"), "{warm}");
        let stats = server.state().engine().cache_stats();
        assert!(stats.lineages.hits >= 1, "{stats:?}");
        server.shutdown();
    }
}
