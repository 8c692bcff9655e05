//! Parse-based checks of `stuc-serve`'s live observability surfaces:
//! `GET /metrics`, `GET /debug/slow` and the `?timings=1` switch on
//! `POST /query`.
//!
//! These responses carry live counters and wall times, so — unlike the
//! byte-exact transcript of `tests/serve_golden.rs` — they are asserted
//! structurally: the metric families the service promises must be present
//! and well-formed, and the values must be consistent with the requests
//! this test just made. The registry is process-cumulative, so every bound
//! is a `>=`, never an `==` against another test's traffic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use stuc::obs::slowlog;
use stuc::serve::{ServeConfig, Server, ServiceState};
use stuc::Engine;

const PROGRAM: &str = "\
0.9 :: Train(\"paris\", \"lyon\").\n\
0.8 :: Train(\"lyon\", \"nice\").\n\
Hop(x, y) :- Train(x, y).\n";

/// Serializes the tests that set the process-global slow-log threshold,
/// so one cannot change it under the other's request.
fn slowlog_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn spawn_server() -> Server {
    let state = ServiceState::from_program(Engine::new(), PROGRAM).unwrap();
    Server::spawn(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        state,
    )
    .unwrap()
}

fn exchange(addr: SocketAddr, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"))
}

fn post_query(addr: SocketAddr, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

/// The body of a response (after the blank line).
fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

/// The value of a single-sample metric line (`name value`) in a
/// Prometheus text exposition body.
fn sample(prometheus: &str, name: &str) -> Option<f64> {
    prometheus.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

#[test]
fn the_metrics_endpoint_exposes_engine_cache_and_serve_families() {
    let server = spawn_server();
    let addr = server.addr();

    // Three goals: two safe-plan, one circuit-bound (exercises the caches).
    assert!(post_query(addr, "/query", "?- Train(x, y).").contains("200 OK"));
    assert!(post_query(addr, "/query", "?- Hop(x, y), Hop(y, z).").contains("200 OK"));
    assert!(post_query(addr, "/query", "?- Hop(x, y), Hop(y, z).").contains("200 OK"));

    let response = get(addr, "/metrics");
    server.shutdown();
    assert!(response.contains("200 OK"), "{response}");
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "Prometheus exposition is text, not JSON: {response}"
    );
    let body = body_of(&response);

    // Every family the service promises, with its declared type.
    for (name, kind) in [
        ("stuc_serve_requests_total", "counter"),
        ("stuc_serve_request_errors_total", "counter"),
        ("stuc_serve_rejected_overload_total", "counter"),
        ("stuc_serve_queue_depth", "gauge"),
        ("stuc_serve_in_flight", "gauge"),
        ("stuc_serve_request_seconds", "histogram"),
        ("stuc_engine_evaluate_goal_total", "counter"),
        ("stuc_engine_evaluate_goal_seconds", "histogram"),
        ("stuc_cache_decomposition_hits_total", "counter"),
        ("stuc_cache_lineage_hits_total", "counter"),
        ("stuc_cache_lineage_entries", "gauge"),
    ] {
        assert!(
            body.contains(&format!("# TYPE {name} {kind}")),
            "missing {kind} family {name} in:\n{body}"
        );
    }

    // Values consistent with the traffic above (>=: the registry is
    // process-cumulative and other tests in this binary run concurrently).
    let served = sample(body, "stuc_serve_requests_total").expect("serve counter sample");
    assert!(served >= 3.0, "served {served} < the 3 queries just posted");
    let goals = sample(body, "stuc_engine_evaluate_goal_total").expect("goal counter sample");
    assert!(goals >= 3.0, "goals {goals} < the 3 goals just evaluated");
    let hits = sample(body, "stuc_cache_lineage_hits_total").expect("hit counter sample");
    assert!(hits >= 1.0, "the repeated circuit goal must hit the cache");

    // Histogram samples render as cumulative buckets plus _sum/_count.
    assert!(
        body.contains("stuc_serve_request_seconds_bucket{le=\"+Inf\"}"),
        "histogram must end with an +Inf bucket:\n{body}"
    );
    // The /metrics request renders its body before observing itself, so
    // only the three queries are certain to be in the histogram.
    let count = sample(body, "stuc_serve_request_seconds_count").expect("histogram count");
    assert!(count >= 3.0, "request histogram missed requests: {count}");
}

#[test]
fn the_timings_switch_adds_a_stage_breakdown() {
    let server = spawn_server();
    let addr = server.addr();

    // The timed request goes first: a repeat would read the answer the
    // first run memoised and record no sweep.
    let timed = post_query(addr, "/query?timings=1", "?- Hop(x, y), Hop(y, z).");
    let plain = post_query(addr, "/query", "?- Hop(x, y), Hop(y, z).");
    server.shutdown();

    assert!(
        !plain.contains("wall_micros"),
        "timings must be opt-in (the golden transcript depends on it): {plain}"
    );
    let body = body_of(&timed);
    assert!(body.contains("\"trace_id\":"), "{body}");
    assert!(body.contains("\"wall_micros\":"), "{body}");
    // The circuit route runs the full pipeline; the lineage sweep must
    // appear as a named stage with a parseable lap.
    assert!(
        body.contains("\"stages\":[{\"stage\":\""),
        "no stage array in: {body}"
    );
    assert!(body.contains("\"stage\":\"sweep\""), "{body}");
    let micros = body
        .split("\"wall_micros\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|digits| digits.parse::<u64>().ok())
        .expect("wall_micros must be a bare integer");
    let _ = micros; // any u64 parses; the point is the field is well-formed
}

#[test]
fn the_slow_log_retains_queries_above_the_threshold() {
    // Zero threshold: every operation qualifies. The log is process-global,
    // so this only ever adds entries for concurrently-running tests.
    let _threshold = slowlog_lock();
    slowlog::global().set_threshold(Duration::ZERO);
    let server = spawn_server();
    let addr = server.addr();

    assert!(post_query(addr, "/query", "?- Train(x, y).").contains("200 OK"));
    let response = get(addr, "/debug/slow");
    server.shutdown();

    assert!(response.contains("200 OK"), "{response}");
    let body = body_of(&response);
    assert!(
        body.starts_with("{\"threshold_micros\":0,\"entries\":["),
        "{body}"
    );
    assert!(
        body.contains("\"what\":\"serve-query\""),
        "the query just posted must be retained: {body}"
    );
    assert!(body.contains("\"outcome\":\"slow\""), "{body}");
    assert!(body.contains("\"wall_micros\":"), "{body}");
}

#[test]
fn the_slow_log_retains_failed_evaluations_regardless_of_threshold() {
    // A huge threshold: no *success* would ever be retained…
    let _threshold = slowlog_lock();
    slowlog::global().set_threshold(Duration::from_secs(3600));
    let server = spawn_server();
    let addr = server.addr();

    // …but a request whose deadline expired in the queue is a failed
    // outlier and must land in the log no matter how fast it died.
    // (`deadline_ms=0` is anchored at accept time, so the trip is certain.)
    let response = post_query(addr, "/query?deadline_ms=0", "?- Train(x, y).");
    assert!(response.contains("504"), "{response}");

    let slow = get(addr, "/debug/slow");
    server.shutdown();
    slowlog::global().set_threshold(slowlog::DEFAULT_THRESHOLD);

    let body = body_of(&slow);
    assert!(
        body.contains("\"outcome\":\"deadline-exceeded\""),
        "failed evaluation missing from the slow log: {body}"
    );
    assert!(body.contains("\"what\":\"serve-queue\""), "{body}");
}
