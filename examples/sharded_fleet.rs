//! Fleets refereed by the **sharded wire referee**: the one-round
//! verifier (EdgeCount) and multi-round Borůvka connectivity, each with
//! an honest phase and a tamper phase.
//!
//! * **One-round, honest:** a `FleetServer` in sharded mode (4 shard
//!   workers) assembles and verifies 1200 sessions streamed over 8
//!   multiplexed TCP connections. Every verdict carries a keyed digest
//!   of the assembled message vector, cross-checked against the locally
//!   computed vector — so the referee provably assembled *exactly* what
//!   each session sent. Small sessions run whole on shard 0; every 20th
//!   is large enough to split over all 4, its shard partials handed to
//!   the collector by value (the exact count is asserted).
//! * **Multi-round, honest:** a `FleetServer` in multi-round mode (4
//!   shard workers) runs the referee half of Borůvka for 600 sessions
//!   over 8 connections: round-stamped uplinks route to shard workers
//!   by ID range, per-round partials reach the collector by value, and
//!   each round's downlinks stream back before the next round fires.
//!   Every wire verdict is cross-checked against an in-process
//!   `run_multiround` run *and* the centralized BFS truth; the p99
//!   verdict latency is SLO-gated by `REFEREE_SLO_P99_US`.
//! * **Tamper phases:** one bit flipped in every third frame, after MAC
//!   computation, against a 2-shard server of each kind — every
//!   tampered frame is MAC-rejected, affected sessions fail closed, and
//!   zero corrupted sessions are accepted.
//!
//! Run: `cargo run --release --example sharded_fleet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{Percentiles, SloCheck};
use referee_one_round::prelude::*;
use referee_one_round::protocol::easy::EdgeCountProtocol;
use referee_one_round::protocol::multiround::{run_multiround, BoruvkaConnectivity};
use referee_one_round::protocol::referee::local_phase;
use referee_one_round::protocol::shard::{effective_shards, nonempty_shards, MIN_RANGE_NODES};
use referee_one_round::protocol::trace::{dump_if_armed, TraceSnapshot};
use referee_simnet::{Scheduler, SessionId};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, vector_digest, AuthKey, FleetClient,
    FleetServer, Stage, TamperConfig, WireSnapshot,
};

const SHARDS: usize = 4;
const CONNS: usize = 8;
const CAP: usize = 64;

/// Small graphs of `min_n..min_n + span` nodes, which every shard count
/// runs unsplit, and every 20th one large enough to split over all
/// [`SHARDS`] ranges.
fn fleet_graphs(count: usize, min_n: usize, span: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let large = SHARDS * MIN_RANGE_NODES;
    (0..count)
        .map(|i| match i % 20 {
            19 => generators::gnp(large + i % 7, 6.0 / large as f64, &mut rng),
            _ => generators::gnp(min_n + i % span, 0.2, &mut rng),
        })
        .collect()
}

/// The partials a [`SHARDS`]-shard server hands its collector over
/// honest sessions of `(n, rounds)`: one per non-collector range per
/// round, a session splitting over `effective_shards(n, SHARDS)` ranges.
fn partials(sessions: impl Iterator<Item = (usize, usize)>) -> usize {
    sessions
        .map(|(n, rounds)| rounds * (nonempty_shards(n, effective_shards(n, SHARDS)) - 1))
        .sum()
}

/// What an honest phase leaves behind: per-session results, wall time,
/// both sides' metrics and the stitched flight-recorder timeline.
struct Honest<T> {
    results: Vec<T>,
    wall: f64,
    client: WireSnapshot,
    server: WireSnapshot,
    trace: TraceSnapshot,
}

/// Drive `sessions` honest sessions through `server` over [`CONNS`]
/// connections, then stop the server.
fn honest_phase<T: Send>(
    server: FleetServer,
    key: AuthKey,
    sessions: usize,
    run: impl Fn(&FleetClient, usize) -> T + Sync,
) -> Honest<T> {
    let client = FleetClient::connect(server.addr(), CONNS, key).expect("connect");
    let t0 = std::time::Instant::now();
    let results = Scheduler::new(8, 8).run_indexed(sessions, |i| run(&client, i));
    let wall = t0.elapsed().as_secs_f64();
    let client_stats = client.metrics();
    // Kept so a tripped SLO gate can dump its own post-mortem.
    let mut trace = server.stitched_trace();
    trace.merge(&client.stitched_trace());
    let server_stats = server.stop();
    assert_eq!(server_stats.verdict_frames as usize, sessions);
    assert_eq!(server_stats.mac_rejects, 0);
    assert_eq!(client_stats.mac_rejects, 0);
    Honest { results, wall, client: client_stats, server: server_stats, trace }
}

/// Run `sessions` sessions against a 2-shard `server`, one connection
/// each, with every third frame corrupted on the wire. `accepted` runs
/// one session and returns `None` when it failed closed, otherwise
/// whether its accepted verdict is exact.
fn tamper_phase(
    server: FleetServer,
    key: AuthKey,
    sessions: usize,
    accepted: impl Fn(&FleetClient, usize) -> Option<bool>,
) {
    let client = FleetClient::connect(server.addr(), sessions, key)
        .expect("connect")
        .with_tamper(TamperConfig { flip_every: 3 });
    println!(
        "  tamper: {sessions} sessions, one connection each, 2 shards, \
         every 3rd frame corrupted on the wire"
    );
    let mut failed_closed = 0usize;
    let mut undetected = 0usize;
    for i in 0..sessions {
        match accepted(&client, i) {
            None => failed_closed += 1,
            // Only possible if no tampered frame hit this session's
            // connection — the verdict must then be exact.
            Some(exact) => undetected += usize::from(!exact),
        }
    }
    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert!(client_stats.tampered > 0, "tamper hook never fired");
    assert!(server_stats.mac_rejects > 0, "no corruption ever reached MAC verification");
    assert_eq!(undetected, 0, "a corrupted session was accepted");
    println!(
        "  {} frames tampered; {} connections poisoned by MAC verification; \
         {failed_closed}/{sessions} sessions failed closed ✓",
        client_stats.tampered, server_stats.mac_rejects
    );
    println!("  zero corrupted sessions accepted (0 undetected) ✓");
    println!("  server: {server_stats}");
}

fn one_round() {
    let sessions = 1200usize;
    let key = AuthKey::from_seed(2013);
    let graphs = fleet_graphs(sessions, 10, 24, 2013);
    let protocol = EdgeCountProtocol;

    let server = FleetServer::spawn_sharded(key, SHARDS).expect("bind loopback");
    println!(
        "one-round: {sessions} EdgeCount sessions over {CONNS} TCP connections, verified by \
         {SHARDS} referee shards at {}",
        server.addr()
    );
    let Honest { results: digests, wall, client: client_stats, server: server_stats, .. } =
        honest_phase(server, key, sessions, |client, i| {
            let g = &graphs[i];
            let arrivals = local_phase(&protocol, g)
                .into_iter()
                .enumerate()
                .map(|(j, m)| (j as u32 + 1, m));
            client
                .verify_session(SessionId(i as u64), g.n(), arrivals)
                .expect("honest session verifies")
        });
    for (i, digest) in digests.iter().enumerate() {
        let messages = local_phase(&protocol, &graphs[i]);
        assert_eq!(
            *digest,
            vector_digest(&key, &messages),
            "session {i}: the referee assembled a different vector than was sent"
        );
    }
    let want = partials(graphs.iter().map(|g| (g.n(), 1)));
    assert!(want > 0, "the large sessions split");
    assert_eq!(server_stats.partial_frames as usize, want);
    println!("  all {sessions} verdict digests match the locally computed vectors ✓");
    println!(
        "  {} cross-shard partials handed to the collector by value ({} per split session) ✓",
        server_stats.partial_frames,
        SHARDS - 1
    );
    println!("  client: {client_stats}");
    println!("  server: {server_stats}");
    println!("  wall {wall:.3}s ≈ {:.0} sessions/s verified by shards", sessions as f64 / wall);

    let server = FleetServer::spawn_sharded(key, 2).expect("bind loopback");
    tamper_phase(server, key, 64, |client, i| {
        let g = &graphs[i];
        let messages = local_phase(&protocol, g);
        let arrivals = messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
        let digest = client.verify_session(SessionId(i as u64), g.n(), arrivals).ok()?;
        Some(digest == vector_digest(&key, &messages))
    });
}

fn multi_round() {
    let sessions = 600usize;
    let key = AuthKey::from_seed(2026);
    let graphs = fleet_graphs(sessions, 6, 20, 2026);

    let server = FleetServer::spawn_multiround(key, SHARDS, boruvka_connectivity_service())
        .expect("bind loopback");
    println!(
        "\nmulti-round: {sessions} Borůvka sessions over {CONNS} TCP connections, \
         refereed by {SHARDS} shards at {}",
        server.addr()
    );
    let Honest { results: verdicts, wall, client: client_stats, server: server_stats, trace } =
        honest_phase(server, key, sessions, |client, i| {
            let out = client
                .run_multiround_session(
                    SessionId(i as u64),
                    &BoruvkaConnectivity,
                    &graphs[i],
                    CAP,
                )
                .expect("honest session completes");
            decode_bool_output(&out).expect("honest uplinks decode")
        });
    let mut rounds = Vec::new();
    for (i, (wire, g)) in verdicts.iter().zip(&graphs).enumerate() {
        let (local, stats) = run_multiround(&BoruvkaConnectivity, g, CAP);
        let local = local.expect("terminates").expect("decodes");
        assert_eq!(*wire, local, "session {i}: wire verdict diverged from in-process run");
        assert_eq!(*wire, algo::is_connected(g), "session {i}: verdict diverged from truth");
        rounds.push((g.n(), stats.rounds));
    }
    let want = partials(rounds.into_iter());
    assert!(want > 0, "the large sessions split");
    assert_eq!(server_stats.partial_frames as usize, want);
    assert!(server_stats.downlink_frames > 0);
    assert!(
        client_stats.frames_per_write() > 1.0,
        "coalescing write path must batch frames per write(2) under load, got {:.2}",
        client_stats.frames_per_write()
    );
    println!("  all {sessions} wire verdicts match run_multiround and centralized BFS ✓");
    println!(
        "  {} per-round cross-shard partial frames, {} downlink frames streamed ✓",
        server_stats.partial_frames, server_stats.downlink_frames
    );
    println!("  client: {client_stats}");
    println!("  server: {server_stats}");
    println!(
        "  wall {wall:.3}s ≈ {:.0} multi-round sessions/s refereed by shards",
        sessions as f64 / wall
    );

    // Announce→verdict latency per session, client-stamped; the SLO
    // gate is armed by REFEREE_SLO_P99_US / REFEREE_SLO_P999_US in CI.
    let verdict_hist = client_stats.stage(Stage::Verdict);
    let p = Percentiles::from_hist(verdict_hist).expect("sessions ran");
    println!("  latency: {verdict_hist}");
    let slo = SloCheck::from_env();
    if let Err(e) = slo.check("sharded_fleet multi-round", &p) {
        dump_if_armed("sharded_fleet_slo", &trace);
        panic!("{e}");
    }
    slo.enforce("sharded_fleet multi-round", &p);

    let server = FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service())
        .expect("bind loopback");
    tamper_phase(server, key, 64, |client, i| {
        let g = &graphs[i];
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP)
            .ok()?;
        Some(decode_bool_output(&out) == Ok(algo::is_connected(g)))
    });
}

fn main() {
    one_round();
    multi_round();
    println!("\nsharded fleet demo completed ✓");
}
