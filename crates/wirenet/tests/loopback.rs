//! Real-socket integration: fleets of `simnet` sessions driven over
//! loopback TCP, pinned bit-for-bit against in-memory runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{algo, generators, LabelledGraph};
use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{
    Envelope, MultiRoundSession, OneRoundReport, PerfectTransport, Scheduler, SessionId,
};
use referee_wirenet::{
    decode_frame, encode_frame, vector_digest, AuthKey, FleetClient, FleetServer, FrameKind,
    TamperConfig,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(8 + i % 20, 0.25, &mut rng)).collect()
}

/// One-round sessions multiplexed over 3 connections, driven from the
/// multi-threaded scheduler, must produce exactly the outcomes of
/// in-memory perfect-transport runs — and the server must have seen
/// every envelope, rejecting nothing.
#[test]
fn one_round_fleet_matches_in_memory() {
    let key = AuthKey::from_seed(11);
    let server = FleetServer::spawn(key).unwrap();
    let client = FleetClient::connect(server.addr(), 3, key).unwrap();
    let fleet = graphs(96, 42);

    let wire: Vec<_> = Scheduler::new(8, 4).run_indexed(fleet.len(), |i| {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &fleet[i], 1)
                .with_session(id)
                .run(&mut transport),
        )
    });

    let mut expected_frames = 0u64;
    for (i, (report, g)) in wire.iter().zip(&fleet).enumerate() {
        let mut perfect = PerfectTransport::new();
        let memory = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), g, 1)
                .run(&mut perfect),
        );
        assert_eq!(
            report.outcome.as_ref().unwrap().as_ref().unwrap(),
            memory.outcome.as_ref().unwrap().as_ref().unwrap(),
            "session {i} disagrees with the in-memory run"
        );
        assert_eq!(
            report.metrics.stats.total_message_bits,
            memory.metrics.stats.total_message_bits
        );
        expected_frames += g.n() as u64;
    }

    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert_eq!(server_stats.frames_received, expected_frames, "server missed envelopes");
    assert_eq!(server_stats.frames_sent, expected_frames, "server echoed short");
    assert_eq!(server_stats.mac_rejects, 0);
    assert_eq!(server_stats.decode_rejects, 0);
    assert_eq!(server_stats.connections, 3);
    assert_eq!(client_stats.frames_sent, expected_frames);
    assert_eq!(client_stats.frames_received, expected_frames);
    assert_eq!(client_stats.mac_rejects, 0);
}

/// Multi-round Borůvka over the wire: verdicts, round counts and
/// message-size stats all match the in-memory session, and match the
/// centralized truth.
#[test]
fn multi_round_fleet_matches_in_memory() {
    let key = AuthKey::from_seed(12);
    let server = FleetServer::spawn(key).unwrap();
    let client = FleetClient::connect(server.addr(), 2, key).unwrap();
    let fleet = graphs(24, 77);

    let wire: Vec<_> = Scheduler::new(4, 2).run_indexed(fleet.len(), |i| {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        MultiRoundSession::new(&BoruvkaConnectivity, &fleet[i], 64)
            .with_session(id)
            .run(&mut transport)
    });

    for (i, (report, g)) in wire.iter().zip(&fleet).enumerate() {
        let mut perfect = PerfectTransport::new();
        let memory = MultiRoundSession::new(&BoruvkaConnectivity, g, 64).run(&mut perfect);
        let wire_verdict = report.outcome.as_ref().unwrap().as_ref().unwrap().as_ref().unwrap();
        let memory_verdict =
            memory.outcome.as_ref().unwrap().as_ref().unwrap().as_ref().unwrap();
        assert_eq!(wire_verdict, memory_verdict, "session {i}");
        assert_eq!(*wire_verdict, algo::is_connected(g), "session {i} vs centralized");
        assert_eq!(report.stats, memory.stats, "session {i} stats");
    }

    let server_stats = server.stop();
    assert_eq!(server_stats.mac_rejects, 0);
    assert!(server_stats.frames_received > 0);
}

/// Deliberate wire corruption: with one session per connection and every
/// third frame tampered, every session's first tampered frame reaches
/// the server while its connection is alive and MUST be caught by MAC
/// verification (poisoning the connection); every session then fails
/// cleanly — no corrupted frame is ever accepted, nothing hangs.
#[test]
fn tampered_frames_are_all_mac_rejected() {
    let key = AuthKey::from_seed(13);
    let server = FleetServer::spawn(key).unwrap();
    let sessions = 8usize;
    let client = FleetClient::connect(server.addr(), sessions, key)
        .unwrap()
        .with_tamper(TamperConfig { flip_every: 3 });
    let fleet = graphs(sessions, 3);

    for (i, g) in fleet.iter().enumerate() {
        let id = SessionId(i as u64);
        let mut transport = client.transport(id);
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), g, 1)
                .with_session(id)
                .run(&mut transport),
        );
        assert!(
            report.outcome.is_err(),
            "session {i} survived a poisoned connection: {:?}",
            report.outcome
        );
    }

    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert!(client_stats.tampered >= sessions as u64, "tamper hook never fired");
    // Exactly one MAC reject per connection: the first tampered frame is
    // caught, the connection is poisoned, nothing after it is read.
    assert_eq!(server_stats.mac_rejects, sessions as u64);
    assert_eq!(server_stats.decode_rejects, 0);
    // Every frame the server *did* accept was untampered and echoed.
    assert_eq!(server_stats.frames_received, server_stats.frames_sent);
}

/// A key mismatch between the two ends is total — and since the
/// per-connection handshake, it fails at `connect`: the server's Hello
/// does not authenticate under the wrong base key, so the client closes
/// before a single data frame crosses the wire.
#[test]
fn key_mismatch_fails_closed() {
    let server = FleetServer::spawn(AuthKey::from_seed(14)).unwrap();
    let err = FleetClient::connect(server.addr(), 1, AuthKey::from_seed(15)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let server_stats = server.stop();
    assert_eq!(server_stats.frames_received, 0, "no data may flow under mismatched keys");
    assert_eq!(server_stats.frames_sent, 0, "nothing may be echoed unauthenticated");
}

/// Dropping a transport retires its demux lane: the session id becomes
/// reusable, so a long-lived client neither leaks lanes nor panics on
/// reuse.
#[test]
fn session_ids_are_reusable_after_transport_drop() {
    let key = AuthKey::from_seed(17);
    let server = FleetServer::spawn(key).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::grid(2, 4);
    for run in 0..3 {
        let id = SessionId(42);
        let mut transport = client.transport(id); // would panic if the lane leaked
        let report = OneRoundReport::from(
            MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
                .with_session(id)
                .run(&mut transport),
        );
        assert_eq!(report.outcome.unwrap().unwrap(), g.m(), "run {run}");
    }
    assert_eq!(server.stop().mac_rejects, 0);
}

/// A session driven over the wire with a mismatched session id on its
/// transport rejects as a demux fault (the session-id validation in the
/// runtime), rather than absorbing another session's traffic.
#[test]
fn cross_session_delivery_is_rejected() {
    let key = AuthKey::from_seed(16);
    let server = FleetServer::spawn(key).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::grid(2, 3);
    // Session believes it is id 5; transport is bound to id 9, so every
    // envelope comes back stamped 9 and the session must reject it.
    let mut transport = client.transport(SessionId(9));
    let report = OneRoundReport::from(
        MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
            .with_session(SessionId(5))
            .run(&mut transport),
    );
    let err = report.outcome.unwrap_err();
    assert!(format!("{err}").contains("demux"), "unexpected error: {err}");
    server.stop();
}

// ---------------------------------------------------------------------------
// Per-connection key derivation
// ---------------------------------------------------------------------------

/// Blocking raw-socket helper: accumulate bytes until one frame decodes
/// under `key`.
fn read_raw_frame(
    stream: &mut TcpStream,
    key: &AuthKey,
    buf: &mut Vec<u8>,
) -> (FrameKind, Envelope) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(Some(d)) = decode_frame(key, buf) {
            buf.drain(..d.consumed);
            return (d.kind, d.envelope);
        }
        let k = stream.read(&mut chunk).expect("read from server");
        assert!(k > 0, "server closed the connection");
        buf.extend_from_slice(&chunk[..k]);
    }
}

/// The satellite guarantee for `AuthKey::derive`: every connection runs
/// on a key derived at accept time (tweak = connection id), so a frame
/// MAC'd with one connection's key is *rejected* on a sibling
/// connection — a leaked per-connection key forges nothing elsewhere.
#[test]
fn derived_key_cannot_cross_connections() {
    let base = AuthKey::from_seed(21);
    let server = FleetServer::spawn(base).unwrap();

    let mut c1 = TcpStream::connect(server.addr()).unwrap();
    let mut b1 = Vec::new();
    let (kind, hello1) = read_raw_frame(&mut c1, &base, &mut b1);
    assert_eq!(kind, FrameKind::Hello);
    let k1 = base.derive(hello1.from as u64);

    let mut c2 = TcpStream::connect(server.addr()).unwrap();
    let mut b2 = Vec::new();
    let (kind, hello2) = read_raw_frame(&mut c2, &base, &mut b2);
    assert_eq!(kind, FrameKind::Hello);
    assert_ne!(hello1.from, hello2.from, "connection ids must be distinct");

    let env =
        Envelope { session: SessionId(1), round: 1, from: 1, to: 0, payload: Message::empty() };
    // Forgery: connection 1's key on connection 2. Must be MAC-rejected.
    c2.write_all(&encode_frame(&k1, &env)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().mac_rejects == 0 {
        assert!(Instant::now() < deadline, "forged frame never rejected");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The same key on its own connection still authenticates and echoes.
    c1.write_all(&encode_frame(&k1, &env)).unwrap();
    let (kind, echo) = read_raw_frame(&mut c1, &k1, &mut b1);
    assert_eq!(kind, FrameKind::Data);
    assert_eq!(echo, env);

    let stats = server.stop();
    assert_eq!(stats.mac_rejects, 1);
    assert_eq!(stats.frames_received, 1, "only the honest frame may be accepted");
}

// ---------------------------------------------------------------------------
// Sharded referee service
// ---------------------------------------------------------------------------

/// The acceptance bar: a sharded `FleetServer` (2 shard workers)
/// verifies 1000 sessions streamed by a multiplexed client, every
/// verdict carrying the digest of exactly the message vector the client
/// sent.
#[test]
fn sharded_referee_verifies_thousand_sessions() {
    let key = AuthKey::from_seed(23);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let client = FleetClient::connect(server.addr(), 8, key).unwrap();
    let fleet = graphs(1000, 99);

    let digests: Vec<u64> = Scheduler::new(8, 8).run_indexed(fleet.len(), |i| {
        let g = &fleet[i];
        let messages = local_phase(&EdgeCountProtocol, g);
        let arrivals = messages.into_iter().enumerate().map(|(j, m)| (j as u32 + 1, m));
        client.verify_session(SessionId(i as u64), g.n(), arrivals).expect("honest session")
    });
    for (i, digest) in digests.iter().enumerate() {
        let messages = local_phase(&EdgeCountProtocol, &fleet[i]);
        assert_eq!(*digest, vector_digest(&key, &messages), "session {i} digest mismatch");
    }

    let stats = server.stop();
    assert_eq!(stats.verdict_frames, 1000);
    // With 2 shards exactly one partial crosses shards per session.
    assert_eq!(stats.partial_frames, 1000);
    assert_eq!(stats.mac_rejects, 0);
    assert_eq!(stats.decode_rejects, 0);
    assert_eq!(stats.connections, 8);
}

/// The sharded referee reproduces the canonical verdicts over the wire:
/// a duplicated sender and an out-of-range sender both reject (and the
/// connection stays healthy for later sessions — verdicts are not
/// poison).
#[test]
fn sharded_referee_rejects_bad_sessions() {
    let key = AuthKey::from_seed(24);
    let server = FleetServer::spawn_sharded(key, 4).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::grid(3, 3);
    let n = g.n();
    let messages = local_phase(&EdgeCountProtocol, &g);
    let honest = || {
        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect::<Vec<_>>()
    };

    // Node 2's slot replaced by a duplicate of node 1 (still exactly n
    // arrivals, so the fault is judged server-side).
    let mut dup = honest();
    dup[1] = dup[0].clone();
    match client.verify_session(SessionId(1), n, dup) {
        Err(DecodeError::Inconsistent(_)) => {}
        other => panic!("duplicate must reject, got {other:?}"),
    }

    // Node 1's slot replaced by an out-of-range sender, delivered first
    // so shard 0 records it before anything else.
    let mut oor = honest();
    let mut w = BitWriter::new();
    w.write_bits(9, 6);
    oor[0] = (n as u32 + 7, Message::from_writer(w));
    match client.verify_session(SessionId(2), n, oor) {
        Err(DecodeError::OutOfRange(_)) => {}
        other => panic!("out-of-range must reject, got {other:?}"),
    }

    // The connection survived both rejections: an honest session on the
    // same socket still verifies.
    let digest = client.verify_session(SessionId(3), n, honest()).unwrap();
    assert_eq!(digest, vector_digest(&key, &messages));

    let stats = server.stop();
    assert_eq!(stats.verdict_frames, 3);
    assert_eq!(stats.mac_rejects, 0);
}

/// Wire tampering against the sharded service: every corrupted frame is
/// MAC-rejected at the router (poisoning its connection), tampered
/// sessions fail closed awaiting their verdict, and — the acceptance
/// criterion — zero corrupted sessions are ever accepted.
#[test]
fn sharded_tampering_yields_zero_undetected_corruption() {
    let key = AuthKey::from_seed(25);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let sessions = 8usize;
    let client = FleetClient::connect(server.addr(), sessions, key)
        .unwrap()
        .with_tamper(TamperConfig { flip_every: 3 });
    let fleet = graphs(sessions, 31);

    let mut undetected = 0usize;
    for (i, g) in fleet.iter().enumerate() {
        let messages = local_phase(&EdgeCountProtocol, g);
        let arrivals = messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
        match client.verify_session(SessionId(i as u64), g.n(), arrivals) {
            Err(_) => {} // failed closed
            Ok(digest) => {
                // Only reachable if no tampered frame hit this session's
                // connection before the verdict — the digest must then
                // pin the untampered vector.
                if digest != vector_digest(&key, &messages) {
                    undetected += 1;
                }
            }
        }
    }
    assert_eq!(undetected, 0, "a corrupted session was accepted");

    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert!(client_stats.tampered > 0, "tamper hook never fired");
    assert!(server_stats.mac_rejects > 0, "no corruption reached MAC verification");
}

// ---------------------------------------------------------------------------
// Bind configuration
// ---------------------------------------------------------------------------

/// The bind address is configurable per builder (cross-host readiness);
/// `127.0.0.1:0` stands in for a routable address so the test cannot
/// collide with anything. The env-var precedence (`REFEREE_WIRENET_BIND`)
/// is unit-tested in `fleet::tests::bind_resolution_precedence` with the
/// value passed as a parameter — tests run in parallel threads, so
/// mutating the process environment here would race other servers'
/// spawns.
#[test]
fn bind_address_is_configurable() {
    let key = AuthKey::from_seed(26);
    let server =
        FleetServer::builder(key).bind("127.0.0.1:0".parse().unwrap()).spawn().unwrap();
    assert!(server.addr().ip().is_loopback());
    // The handshake works on an explicitly bound server.
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    drop(client);
    server.stop();
}

/// Post-review hardening, part 1: faulty sessions cannot wedge the
/// client. Under-delivery errors immediately client-side; a substituted
/// sender (full count, but one node replaced by an out-of-range stray)
/// is judged fast server-side even though a shard's range never fills.
#[test]
fn incomplete_or_substituted_sessions_never_hang() {
    let key = AuthKey::from_seed(33);
    let server = FleetServer::spawn_sharded(key, 3).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::grid(3, 4);
    let n = g.n();
    let messages = local_phase(&EdgeCountProtocol, &g);

    // n − 1 arrivals: the referee would wait forever; the client must
    // reject before sending anything (no wedged session server-side).
    let short: Vec<_> = messages
        .iter()
        .cloned()
        .enumerate()
        .map(|(j, m)| (j as u32 + 1, m))
        .take(n - 1)
        .collect();
    match client.verify_session(SessionId(1), n, short) {
        Err(DecodeError::Inconsistent(msg)) => {
            assert!(msg.contains("needs exactly"), "{msg}")
        }
        other => panic!("under-delivery must error immediately, got {other:?}"),
    }
    assert_eq!(
        client.metrics().frames_sent,
        0,
        "a rejected call must not announce the session"
    );

    // n arrivals, but node 5's message replaced by a stray sender: the
    // stray poisons the session, so the verdict arrives although node
    // 5's shard never completes.
    let substituted: Vec<_> = messages
        .iter()
        .cloned()
        .enumerate()
        .map(|(j, m)| if j == 4 { (n as u32 + 9, m) } else { (j as u32 + 1, m) })
        .collect();
    match client.verify_session(SessionId(2), n, substituted) {
        Err(DecodeError::OutOfRange(_)) => {}
        other => panic!("substituted sender must reject fast, got {other:?}"),
    }
    server.stop();
}

/// Post-review hardening, part 2: sessions are keyed per connection, so
/// two clients (as cross-host fleets naturally do) may both use
/// SessionId(0) without colliding — and a judged id is reusable on its
/// own connection.
#[test]
fn session_ids_are_per_connection_and_reusable_after_verdict() {
    let key = AuthKey::from_seed(34);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let a = FleetClient::connect(server.addr(), 1, key).unwrap();
    let b = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::grid(2, 5);
    let messages = local_phase(&EdgeCountProtocol, &g);
    let arrivals = || {
        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect::<Vec<_>>()
    };
    let want = vector_digest(&key, &messages);

    // Same id on two different clients: both verify.
    assert_eq!(a.verify_session(SessionId(0), g.n(), arrivals()).unwrap(), want);
    assert_eq!(b.verify_session(SessionId(0), g.n(), arrivals()).unwrap(), want);
    // Reusing a judged id on the same client/connection: still fine.
    assert_eq!(a.verify_session(SessionId(0), g.n(), arrivals()).unwrap(), want);

    let stats = server.stop();
    assert_eq!(stats.verdict_frames, 3);
    assert_eq!(stats.decode_rejects, 0, "no honest announce may poison a connection");
}
