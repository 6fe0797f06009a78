//! A 1000-session fleet over real loopback TCP — the wirenet
//! acceptance demo.
//!
//! Phase 1: 1000 multiplexed sessions over 8 connections, outcomes
//! compared **bit-for-bit** against in-memory `PerfectTransport` runs of
//! the same sessions on the same graphs.
//!
//! Phase 2: deliberate wire corruption (one bit flipped in every third
//! frame, after MAC computation) — every tampered frame that reaches
//! the referee is rejected by MAC verification, zero undetected, and
//! every affected session fails closed instead of computing on garbage.
//!
//! Run: `cargo run --release --example wirenet_fleet`

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_bench::{Percentiles, SloCheck};
use referee_one_round::prelude::*;
use referee_one_round::protocol::combinators::OneRoundAsMultiRound;
use referee_one_round::protocol::easy::EdgeCountProtocol;
use referee_one_round::protocol::trace::dump_if_armed;
use referee_simnet::{
    AggregateMetrics, MultiRoundSession, OneRoundReport, PerfectTransport, SessionId,
};
use referee_wirenet::{AuthKey, FleetClient, FleetServer, TamperConfig};

fn fleet_graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(10 + i % 24, 0.2, &mut rng)).collect()
}

fn main() {
    let sessions = 1000usize;
    let conns = 8usize;
    let key = AuthKey::from_seed(2011);
    let graphs = fleet_graphs(sessions, 2011);
    let protocol = OneRoundAsMultiRound(EdgeCountProtocol);

    // ---- Phase 1: honest fleet, wire vs memory ------------------------
    let server = FleetServer::spawn(key).expect("bind loopback");
    let client = FleetClient::connect(server.addr(), conns, key).expect("connect");
    println!(
        "phase 1: {sessions} sessions multiplexed over {conns} TCP connections to {}",
        server.addr()
    );

    let scheduler = Scheduler::new(8, 8);
    let t0 = std::time::Instant::now();
    let wire: Vec<_> = scheduler.run_indexed(sessions, |i| {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        OneRoundReport::from(
            MultiRoundSession::new(&protocol, &graphs[i], 1)
                .with_session(id)
                .run(&mut transport),
        )
    });
    let wall = t0.elapsed().as_secs_f64();

    let mut expected_frames = 0u64;
    for (i, (report, g)) in wire.iter().zip(&graphs).enumerate() {
        let mut perfect = PerfectTransport::new();
        let memory =
            OneRoundReport::from(MultiRoundSession::new(&protocol, g, 1).run(&mut perfect));
        let (wire_out, memory_out) = (
            report.outcome.as_ref().expect("wire delivery"),
            memory.outcome.as_ref().expect("memory delivery"),
        );
        assert_eq!(wire_out, memory_out, "session {i}: wire ≠ memory");
        assert_eq!(
            report.metrics.stats.total_message_bits, memory.metrics.stats.total_message_bits,
            "session {i}: bit accounting differs"
        );
        expected_frames += g.n() as u64;
    }

    let client_stats = client.metrics();
    // Keep the stitched flight-recorder timeline around: if the SLO
    // gate below trips, the failure dumps its own post-mortem.
    let stitched = {
        let mut t = server.stitched_trace();
        t.merge(&client.stitched_trace());
        t
    };
    let server_stats = server.stop();
    assert_eq!(server_stats.frames_received, expected_frames);
    assert_eq!(server_stats.mac_rejects, 0);
    assert_eq!(client_stats.mac_rejects, 0);
    assert!(
        client_stats.frames_per_write() > 1.0,
        "coalescing write path must batch frames per write(2) under load, got {:.2}",
        client_stats.frames_per_write()
    );
    println!("  all {sessions} outcomes bit-for-bit identical to in-memory runs ✓");
    println!("  client: {client_stats}");
    println!("  server: {server_stats}");
    println!("  wall {wall:.3}s ≈ {:.0} sessions/s over real sockets", sessions as f64 / wall);

    // Per-session wire latency, with an optional SLO gate: CI arms it
    // via REFEREE_SLO_P99_US / REFEREE_SLO_P999_US and a tail-latency
    // regression fails the run.
    let mut agg = AggregateMetrics::default();
    for report in &wire {
        agg.absorb(&report.metrics, report.outcome.is_ok());
    }
    let p = Percentiles::from_hist(&agg.latency).expect("sessions ran");
    println!("  latency: {}", agg.latency);
    let slo = SloCheck::from_env();
    if let Err(e) = slo.check("wirenet_fleet phase 1", &p) {
        dump_if_armed("wirenet_fleet_slo", &stitched);
        panic!("{e}");
    }
    slo.enforce("wirenet_fleet phase 1", &p);

    // ---- Phase 2: wire corruption, all MAC-rejected -------------------
    let corrupt_sessions = 64usize;
    let server = FleetServer::spawn(key).expect("bind loopback");
    let client = FleetClient::connect(server.addr(), corrupt_sessions, key)
        .expect("connect")
        .with_tamper(TamperConfig { flip_every: 3 });
    println!(
        "\nphase 2: {corrupt_sessions} sessions, one connection each, \
         every 3rd frame corrupted on the wire"
    );

    let mut failed_closed = 0usize;
    for (i, g) in graphs.iter().take(corrupt_sessions).enumerate() {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        let report = OneRoundReport::from(
            MultiRoundSession::new(&protocol, g, 1).with_session(id).run(&mut transport),
        );
        match report.outcome {
            Err(_) => failed_closed += 1,
            Ok(out) => {
                // Only possible if no tampered frame hit this session's
                // connection — then the outcome must still be correct.
                assert_eq!(out.as_ref().unwrap(), &g.m(), "session {i} computed on garbage");
            }
        }
    }

    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert!(client_stats.tampered > 0, "tamper hook never fired");
    assert_eq!(
        server_stats.frames_sent, client_stats.frames_received,
        "the server must count as echoed exactly what it wrote"
    );
    assert!(server_stats.mac_rejects > 0, "no corruption ever reached MAC verification");
    println!(
        "  {} frames tampered; {} connections poisoned by MAC verification; \
         {failed_closed}/{corrupt_sessions} sessions failed closed ✓",
        client_stats.tampered, server_stats.mac_rejects
    );
    println!("  zero corrupted frames accepted (every echo was MAC-authenticated) ✓");
    println!("  server: {server_stats}");

    println!("\nwirenet fleet demo completed ✓");
}
