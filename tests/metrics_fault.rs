//! `/metrics` under fault injection: arming every named failpoint — panics,
//! injected errors, slow-downs — must never poison the metrics registry.
//! After each fault scenario the full Prometheus exposition must still
//! render, parse, and contain every metric family it contained before the
//! fault (families only ever accumulate; a fault must not wedge a registry
//! lock or tear a family mid-registration).
//!
//! Runs only with `--features fault-injection` (the registry does not exist
//! otherwise); CI's chaos job picks it up alongside `tests/chaos.rs`.

#![cfg(feature = "fault-injection")]

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use stuc::fault::failpoint::{self, FailAction};
use stuc::obs::registry;
use stuc::query::cq::ConjunctiveQuery;
use stuc::serve::{ServeConfig, Server, ServiceState};
use stuc::{CancelHandle, Engine, EvalBudget, StucError};

/// The tests below read process-global metric families that every served
/// request also updates: they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// An 8-hop train line: long enough that every scenario below can use a
/// structurally distinct chain query (distinct lineage cache keys), so the
/// compile/decompose/publish failpoints are actually reached every time.
fn program() -> String {
    let mut src = String::new();
    for i in 0..8 {
        src.push_str(&format!("0.9 :: Train(\"n{}\", \"n{}\").\n", i, i + 1));
    }
    src.push_str("Hop(x, y) :- Train(x, y).\n");
    src
}

/// A chain goal of `len` hops — each length is a different query structure.
fn chain_goal(len: usize) -> String {
    let atoms: Vec<String> = (0..len)
        .map(|i| format!("Hop(x{}, x{})", i, i + 1))
        .collect();
    format!("?- {}.", atoms.join(", "))
}

fn exchange(addr: SocketAddr, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let mut response = String::new();
    // A fault may close the connection without a response; empty is fine.
    let _ = stream.read_to_string(&mut response);
    response
}

fn post_query(addr: SocketAddr, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    )
}

/// Strict-enough Prometheus text-format check: every line is a `# HELP`,
/// a `# TYPE` with a known kind, or a `name[{labels}] value` sample whose
/// value parses as a float. Returns the set of declared families.
fn parse_prometheus(text: &str) -> BTreeSet<String> {
    let mut families = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let family = parts.next().expect("TYPE line names a family");
            let kind = parts.next().expect("TYPE line names a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind in {line:?}"
            );
            families.insert(family.to_string());
            continue;
        }
        if line.starts_with("# HELP ") {
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line {line:?}");
        let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line {line:?} has no value");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "sample value does not parse in {line:?}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "malformed sample name in {line:?}"
        );
        // The sample must belong to some declared family (histograms emit
        // `_bucket`/`_sum`/`_count` suffixes on the family name).
        let belongs = families.iter().any(|f| {
            name == f
                || name == format!("{f}_bucket")
                || name == format!("{f}_sum")
                || name == format!("{f}_count")
        });
        assert!(belongs, "sample {name:?} precedes/lacks its # TYPE family");
    }
    families
}

#[test]
fn every_failpoint_leaves_the_metrics_registry_parseable() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = Server::spawn(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        ServiceState::from_program(Engine::new(), &program()).unwrap(),
    )
    .unwrap();
    let addr = server.addr();

    // Warm one query through so the engine/serve families all exist.
    let warm = post_query(addr, &chain_goal(2));
    assert!(warm.contains("200 OK"), "warm-up failed: {warm}");
    let scrape = exchange(addr, "GET /metrics HTTP/1.1\r\n\r\n");
    let baseline = parse_prometheus(scrape.split("\r\n\r\n").nth(1).unwrap_or(""));
    assert!(
        !baseline.is_empty(),
        "warm-up registered no metric families"
    );

    // Every planted failpoint, with an action that actually exercises its
    // failure path where the isolation contract allows it: injected errors
    // at fallible sites, panics where a boundary catches them, a sleep on
    // the acceptor (an acceptor panic would kill the listener for the
    // rest of the test).
    let scenarios: &[(&str, FailAction)] = &[
        ("graph-repair", FailAction::Error("injected".into())),
        ("graph-decompose", FailAction::Panic),
        ("circuit-plan-build", FailAction::Error("injected".into())),
        ("circuit-sweep", FailAction::Error("injected".into())),
        ("lineage-compile", FailAction::Error("injected".into())),
        ("cache-publish", FailAction::Panic),
        ("cache-evict", FailAction::Panic),
        ("serve-accept", FailAction::SleepMs(1)),
        ("serve-read", FailAction::Error("injected".into())),
        ("serve-write", FailAction::Panic),
    ];

    let mut seen = baseline;
    for (round, (name, action)) in scenarios.iter().enumerate() {
        {
            let _armed = failpoint::arm_guard(name, action.clone());
            // A structurally fresh chain per scenario: nothing is cached,
            // so decomposition/compilation/publish all run (and trip).
            let _ = post_query(addr, &chain_goal(3 + round));
        }
        // Disarmed again: the metrics endpoint itself must work, the text
        // must parse, and no family may have vanished.
        let text = exchange(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(text.contains("200 OK"), "/metrics failed after {name}");
        let body = text.split("\r\n\r\n").nth(1).unwrap_or("");
        let families = parse_prometheus(body);
        for family in &seen {
            assert!(
                families.contains(family),
                "family {family} vanished after failpoint {name}"
            );
        }
        seen = families;
    }

    // And the server still answers exact probabilities after all that.
    let after = post_query(addr, &chain_goal(2));
    assert!(after.contains("200 OK"), "post-chaos query failed: {after}");
    server.shutdown();

    // Direct registry render agrees with what the endpoint served.
    let direct = parse_prometheus(&registry().render_prometheus());
    for family in &seen {
        assert!(direct.contains(family));
    }
}

#[test]
fn with_budget_counts_one_trip_per_call_and_per_batch_slot() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let engine = Engine::new();
    let tid = stuc::core::workloads::path_tid(6, 0.5, 7);
    let chain = ConjunctiveQuery::parse("R(x, y), R(y, z)").unwrap();
    let edge = ConjunctiveQuery::parse("R(x, y)").unwrap();
    // A plain call first registers the engine families with their help.
    engine.evaluate(&tid, &chain).unwrap();
    let deadline = registry().counter("stuc_engine_deadline_exceeded_total", "");
    let cancelled = registry().counter("stuc_engine_cancelled_total", "");
    let checks = registry().histogram("stuc_engine_budget_check_seconds", "");
    let snapshot = || (deadline.get(), cancelled.get(), checks.count());

    // An expired deadline: one observation, one deadline trip.
    let (d, c, n) = snapshot();
    let expired = EvalBudget::with_deadline(Duration::ZERO);
    let result = engine.with_budget(&expired, || engine.evaluate(&tid, &chain));
    assert!(matches!(result, Err(StucError::DeadlineExceeded { .. })));
    assert_eq!(snapshot(), (d + 1, c, n + 1));

    // A raised cancel flag: one observation, one cancellation.
    let handle = CancelHandle::new();
    handle.cancel();
    let raised = EvalBudget::unlimited().cancelled_by(&handle);
    let result = engine.with_budget(&raised, || engine.evaluate(&tid, &chain));
    assert!(matches!(result, Err(StucError::Cancelled { .. })));
    assert_eq!(snapshot(), (d + 1, c + 1, n + 2));

    // A batch: one observation for the call, one trip per tripped slot —
    // the duplicate slot included.
    let batch = engine.with_budget(&expired, || {
        engine.evaluate_batch(&tid, &[chain.clone(), edge, chain.clone()])
    });
    assert_eq!(batch.failed(), 3);
    assert_eq!(snapshot(), (d + 4, c + 1, n + 3));

    // A call that finishes inside its budget trips nothing.
    let far = EvalBudget::with_deadline(Duration::from_secs(3600));
    engine
        .with_budget(&far, || engine.evaluate(&tid, &chain))
        .unwrap();
    assert_eq!(snapshot(), (d + 4, c + 1, n + 4));
}
