//! The live wire: a fresh server (and, for remote placement, fresh shard
//! hosts) per epoch, loaded by a closed loop of [`CLIENTS`] threads over
//! a pool of [`CLIENTS`] connections. Each epoch serves the workload's
//! whole fixed session sequence once.

use crate::host::{process_cpu, rss_peak_mib};
use crate::inputs::{fleet_key, with_protocol, Inputs, Services, Workload, SERVICES};
use crate::spans::{Span, SpanLog};
use referee_core::catalog::standard_catalog;
use referee_core::protocol::easy::EdgeCountProtocol;
use referee_core::protocol::referee::local_phase;
use referee_core::simnet::SessionId;
use referee_core::wirenet::{
    FleetClient, FleetServer, PlacementPolicy, RemotePlacement, ShardHost, WireSnapshot,
};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads, and connections in the client's pool.
pub const CLIENTS: usize = 2;

/// Shard workers of every server.
pub const SHARDS: usize = 2;

/// What one epoch measured.
pub struct Epoch {
    /// Spawn hosts and server, connect the pool.
    pub setup: Duration,
    /// The timed window: first session started to last verdict.
    pub wall: Duration,
    /// Process CPU time inside the timed window.
    pub cpu: Duration,
    /// The process's peak resident memory when the window closed.
    pub rss_peak_mib: f64,
    /// Per session, in sequence order: latency around the client call.
    pub latency_us: Vec<f64>,
    /// Sessions that errored or returned a wrong verdict.
    pub failed: usize,
    pub client: WireSnapshot,
    pub server: WireSnapshot,
    pub hosts: Vec<WireSnapshot>,
    /// `FleetServer::stitched_trace()` length after the sequence, when
    /// asked for (it is costly to build on remote placement).
    pub trace_events: Option<usize>,
    pub spans: Vec<Span>,
}

/// One client thread's `(session, latency µs, verdict ok)` records and
/// spans.
type ThreadLog = (Vec<(usize, f64, bool)>, Vec<Span>);

struct Stack {
    server: FleetServer,
    hosts: Vec<ShardHost>,
    client: FleetClient,
}

fn spawn(workload: Workload) -> io::Result<Stack> {
    let key = fleet_key();
    let mut hosts = Vec::new();
    let server = match workload {
        Workload::VerifyOneRound => FleetServer::spawn_sharded(key, SHARDS)?,
        Workload::CatalogMultiround => FleetServer::builder(key)
            .shards(SHARDS)
            .catalog(standard_catalog(crate::inputs::CATALOG_COINS))
            .spawn()?,
        Workload::RemotePlacement => {
            for _ in 0..SHARDS {
                hosts.push(ShardHost::spawn(key)?);
            }
            let placement = RemotePlacement::new(
                PlacementPolicy::balanced(SHARDS, &[0, 1]),
                hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr())),
            )?;
            FleetServer::builder(key).placement(placement).spawn()?
        }
    };
    let client = FleetClient::connect(server.addr(), CLIENTS, key)?;
    Ok(Stack { server, hosts, client })
}

/// Time one set-up (hosts, server, connected pool) and tear it down.
pub fn setup_once(workload: Workload) -> io::Result<Duration> {
    let t0 = Instant::now();
    let stack = spawn(workload)?;
    let setup = t0.elapsed();
    drop(stack.client);
    stack.server.stop();
    for h in stack.hosts {
        h.stop();
    }
    Ok(setup)
}

/// Run one session `i` on `client`: returns the latency around the
/// client call in µs and whether the verdict matched the oracle.
fn run_session(
    client: &FleetClient,
    inputs: &Inputs,
    services: &Services,
    i: usize,
    log: &mut SpanLog,
) -> (f64, bool) {
    let id = SessionId(i as u64);
    let session = log.enter("session", 0);
    let parent = session.as_ref().map_or(0, |s| s.id);
    let (latency, ok) = match inputs {
        Inputs::OneRound(cases) => {
            let case = &cases[i];
            let span = log.enter("protocol.local_phase", parent);
            let messages = local_phase(&EdgeCountProtocol, &case.g);
            log.exit(span);
            let arrivals = messages.into_iter().enumerate().map(|(j, m)| (j as u32 + 1, m));
            let span = log.enter("wirenet.verify_session", parent);
            let t0 = Instant::now();
            let verdict = client.verify_session(id, case.g.n(), arrivals);
            let latency = t0.elapsed();
            log.exit(span);
            (latency, verdict.is_ok_and(|d| d == case.digest))
        }
        Inputs::Catalog(cases) => {
            let case = &cases[i];
            let span = log.enter("wirenet.run_multiround_session_as", parent);
            let t0 = Instant::now();
            let verdict = with_protocol!(services, case.service, |p| client
                .run_multiround_session_as(id, SERVICES[case.service], p, &case.g, case.cap));
            let latency = t0.elapsed();
            log.exit(span);
            (latency, verdict.is_ok_and(|m| m == case.verdict))
        }
    };
    log.exit(session);
    (latency.as_secs_f64() * 1e6, ok)
}

/// Serve the whole sequence once on a fresh stack.
pub fn run_epoch(
    workload: Workload,
    inputs: &Inputs,
    services: &Services,
    trace_events: bool,
    spans: Option<Instant>,
) -> io::Result<Epoch> {
    let t0 = Instant::now();
    let stack = spawn(workload)?;
    let setup = t0.elapsed();

    let sessions = inputs.len();
    let cursor = AtomicUsize::new(0);
    let cpu0 = process_cpu();
    let w0 = Instant::now();
    let per_thread: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (cursor, client) = (&cursor, &stack.client);
                scope.spawn(move || {
                    let mut log =
                        SpanLog::new(spans.unwrap_or(w0), t as u64 + 1, spans.is_some());
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= sessions {
                            break;
                        }
                        let (latency, ok) = run_session(client, inputs, services, i, &mut log);
                        done.push((i, latency, ok));
                    }
                    (done, log.spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = w0.elapsed();
    let cpu = process_cpu() - cpu0;
    let rss_peak_mib = rss_peak_mib();

    let mut latency_us = vec![0.0; sessions];
    let mut failed = 0;
    let mut all_spans = Vec::new();
    for (done, s) in per_thread {
        for (i, latency, ok) in done {
            latency_us[i] = latency;
            failed += usize::from(!ok);
        }
        all_spans.extend(s);
    }
    let trace_events = trace_events.then(|| stack.server.stitched_trace().len());
    let client = stack.client.metrics();
    drop(stack.client);
    let server = stack.server.stop();
    let hosts = stack.hosts.into_iter().map(ShardHost::stop).collect();
    Ok(Epoch {
        setup,
        wall,
        cpu,
        rss_peak_mib,
        latency_us,
        failed,
        client,
        server,
        hosts,
        trace_events,
        spans: all_spans,
    })
}

/// Serve epochs back to back until `seconds` have passed (at least one).
pub fn run_pass(
    workload: Workload,
    inputs: &Inputs,
    services: &Services,
    seconds: f64,
    trace_events: bool,
    spans: Option<Instant>,
) -> io::Result<Vec<Epoch>> {
    let start = Instant::now();
    let mut epochs = Vec::new();
    while epochs.is_empty() || start.elapsed().as_secs_f64() < seconds {
        epochs.push(run_epoch(workload, inputs, services, trace_events, spans)?);
    }
    Ok(epochs)
}
