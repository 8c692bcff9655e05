//! Calls shared by several workloads: timed writes through
//! `Engine::apply_update`, and the serve-layer probe that prices a
//! workload's goals over HTTP against the same request answered in-process.

use std::time::Instant;
use stuc_core::engine::{Delta, Engine, Updatable, UpdateReport};
use stuc_core::serve::http::Request;
use stuc_core::serve::{ServeConfig, Server, ServiceState};
use stuc_data::tid::TidInstance;

use crate::replay::Counts;
use crate::stats::Tally;
use crate::trace::Tracer;

/// The three write kinds of the update histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    Reweight,
    Insert,
    Delete,
}

impl WriteKind {
    fn span(self) -> &'static str {
        match self {
            WriteKind::Reweight => "incr.reweight",
            WriteKind::Insert => "incr.insert",
            WriteKind::Delete => "incr.delete",
        }
    }
}

/// Applies `delta` through `Engine::apply_update` and returns its latency
/// in milliseconds. With a tracer, the call is a span named after its
/// kind, followed by an `incr.apply_delta` span replaying
/// `Updatable::apply_delta` on a clone of the pre-update instance, and
/// the report's counters are recorded.
pub fn write(
    engine: &Engine,
    tid: &mut TidInstance,
    delta: &Delta,
    kind: WriteKind,
    traced: Option<(&mut Tracer, &mut Counts)>,
) -> Result<f64, String> {
    let Some((tracer, counts)) = traced else {
        let start = Instant::now();
        engine.apply_update(tid, delta).map_err(|e| e.to_string())?;
        return Ok(start.elapsed().as_secs_f64() * 1e3);
    };
    let mut shadow = tid.clone();
    tracer.op("bench.write", |t| {
        let start = Instant::now();
        let report: UpdateReport = t
            .span(kind.span(), |_| engine.apply_update(tid, delta))
            .map_err(|e| e.to_string())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        t.span("incr.apply_delta", |_| shadow.apply_delta(delta))
            .map_err(|e| e.to_string())?;
        counts.push("incr.bags_touched", report.bags_touched as f64);
        counts.push("incr.gates_rebuilt", report.gates_rebuilt as f64);
        counts.push("incr.fallbacks", f64::from(u8::from(report.fell_back)));
        Ok(ms)
    })
}

/// Sends each body over HTTP to a one-worker server over `tid` and also
/// answers it in-process through `ServiceState::respond` on a second,
/// identically prepared state. `prewarm` bodies are sent to both first,
/// unmeasured. Counts a request as failed unless it answered 200.
pub fn serve(
    tracer: &mut Tracer,
    tid: &TidInstance,
    prewarm: &[String],
    bodies: &[String],
) -> Tally {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::spawn(
        config,
        ServiceState::new(Engine::new(), tid.clone(), Vec::new()),
    )
    .expect("probe server binds");
    let local = ServiceState::new(Engine::new(), tid.clone(), Vec::new());
    let request = |body: &str| Request {
        method: "POST".into(),
        path: "/query".into(),
        body: body.to_string(),
    };
    let mut tally = Tally::default();
    for body in prewarm {
        tally.record(crate::http::query(server.addr(), body).is_ok());
        tally.record(local.respond(&request(body)).status == 200);
    }
    for body in bodies {
        tracer.op("bench.serve_probe", |t| {
            let remote = t.span("serve.round_trip", |_| {
                crate::http::query(server.addr(), body)
            });
            let status = t.span("serve.respond", |_| local.respond(&request(body)).status);
            tally.record(remote.is_ok() && status == 200);
        });
    }
    server.shutdown();
    tally
}
