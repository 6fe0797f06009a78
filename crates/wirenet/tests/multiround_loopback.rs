//! The multi-round fleet mode over real loopback TCP: clients drive the
//! node half of Borůvka connectivity, the server's sharded referee runs
//! `referee_step` per round — verdicts pinned against in-process runs
//! and the centralized truth, tampering fails closed with zero
//! undetected corruption.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{algo, generators, LabelledGraph};
use referee_protocol::evidence::{verify_bundle, EvidenceBundle, ProvableError, SessionParams};
use referee_protocol::multiround::{run_multiround, BoruvkaConnectivity};
use referee_protocol::shard::replay::encode_resume;
use referee_protocol::{BitWriter, Message};
use referee_simnet::{Envelope, Scheduler, SessionId};
use referee_wirenet::placement::{link_key, register_frame, shard_key};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, decode_frame, encode_wire_frame, AuthKey,
    FleetClient, FleetServer, FrameKind, ShardHost, TamperConfig, WireError,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(6 + i % 18, 0.22, &mut rng)).collect()
}

const CAP: usize = 64;

/// Multi-round Borůvka sessions multiplexed over 4 connections against
/// a 4-shard multi-round server: every wire verdict equals the
/// in-process `run_multiround` verdict and the centralized truth, and
/// the server exchanged per-round partials and streamed downlinks.
#[test]
fn multiround_fleet_matches_in_process_runs() {
    let key = AuthKey::from_seed(51);
    let shards = 4usize;
    let server =
        FleetServer::spawn_multiround(key, shards, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 4, key).unwrap();
    let fleet = graphs(120, 71);

    let verdicts: Vec<bool> = Scheduler::new(8, 4).run_indexed(fleet.len(), |i| {
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, &fleet[i], CAP)
            .expect("honest session completes");
        decode_bool_output(&out).expect("honest uplinks decode")
    });

    for (i, (wire, g)) in verdicts.iter().zip(&fleet).enumerate() {
        let (local, _) = run_multiround(&BoruvkaConnectivity, g, CAP);
        let local = local.expect("terminates").expect("decodes");
        assert_eq!(*wire, local, "session {i} diverged from the in-process run");
        assert_eq!(*wire, algo::is_connected(g), "session {i} vs centralized");
    }

    let stats = server.stop();
    assert_eq!(stats.verdict_frames as usize, fleet.len());
    assert_eq!(stats.mac_rejects, 0);
    assert_eq!(stats.decode_rejects, 0);
    assert!(stats.partial_frames > 0, "rounds must exchange shard partials");
    assert!(stats.downlink_frames > 0, "continuing rounds must stream downlinks");
}

/// Trivial sizes ride the same wire path: the empty graph (the server
/// steps empty uplink vectors from the implied-empty-shard quorum), a
/// single node, and a two-node disconnected graph.
#[test]
fn multiround_fleet_handles_trivial_sizes() {
    let key = AuthKey::from_seed(52);
    let server = FleetServer::spawn_multiround(key, 3, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    for (i, (g, want)) in [
        (LabelledGraph::new(0), true),
        (LabelledGraph::new(1), true),
        (LabelledGraph::new(2), false),
        (generators::path(2), true),
    ]
    .into_iter()
    .enumerate()
    {
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, &g, CAP)
            .expect("honest session completes");
        assert_eq!(decode_bool_output(&out).unwrap(), want, "graph {i}");
    }
    let stats = server.stop();
    assert_eq!(stats.verdict_frames, 4);
    assert_eq!(stats.mac_rejects, 0);
}

/// Session ids are keyed per connection and reusable after their
/// verdict, exactly like the one-round service.
#[test]
fn multiround_session_ids_are_reusable() {
    let key = AuthKey::from_seed(53);
    let server = FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service()).unwrap();
    let a = FleetClient::connect(server.addr(), 1, key).unwrap();
    let b = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::cycle(9).unwrap();
    for client in [&a, &b] {
        for _ in 0..2 {
            let out = client
                .run_multiround_session(SessionId(7), &BoruvkaConnectivity, &g, CAP)
                .unwrap();
            assert!(decode_bool_output(&out).unwrap());
        }
    }
    let stats = server.stop();
    assert_eq!(stats.verdict_frames, 4);
    assert_eq!(stats.decode_rejects, 0, "honest reuse must not poison anything");
}

/// The acceptance adversary: every third outbound frame is corrupted
/// after MAC computation. Every tampered frame must die at the router's
/// MAC check; affected sessions fail closed; any session that *does*
/// verify saw only clean frames, so its verdict must equal the truth —
/// zero undetected corruption.
#[test]
fn multiround_tampering_yields_zero_undetected_corruption() {
    let key = AuthKey::from_seed(54);
    let server = FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service()).unwrap();
    let sessions = 8usize;
    let client = FleetClient::connect(server.addr(), sessions, key)
        .unwrap()
        .with_tamper(TamperConfig { flip_every: 3 });
    let fleet = graphs(sessions, 55);

    let mut failed_closed = 0usize;
    let mut undetected = 0usize;
    for (i, g) in fleet.iter().enumerate() {
        match client.run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP) {
            Err(_) => failed_closed += 1,
            Ok(out) => {
                let verdict = decode_bool_output(&out);
                if verdict != Ok(algo::is_connected(g)) {
                    undetected += 1;
                }
            }
        }
    }
    assert_eq!(undetected, 0, "a corrupted session was accepted");
    assert!(failed_closed > 0, "tampering every 3rd frame must hit most sessions");

    let client_stats = client.metrics();
    let server_stats = server.stop();
    assert!(client_stats.tampered > 0, "tamper hook never fired");
    assert!(server_stats.mac_rejects > 0, "no corruption reached MAC verification");
}

/// A zero-round cap mirrors `run_multiround`'s contract — no protocol
/// runs at all: the client errors before announcing anything, so the
/// server sees no session state.
#[test]
fn zero_round_cap_runs_nothing() {
    let key = AuthKey::from_seed(57);
    let server = FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::path(4);
    let err = client
        .run_multiround_session(SessionId(1), &BoruvkaConnectivity, &g, 0)
        .expect_err("a 0-round cap can never produce a verdict");
    assert!(format!("{err}").contains("0-round cap"), "{err}");
    assert_eq!(client.metrics().frames_sent, 0, "nothing may be announced");
    let stats = server.stop();
    assert_eq!(stats.frames_received, 0);
    assert_eq!(stats.verdict_frames, 0);
}

// ---------------------------------------------------------------------------
// Per-shard key separation on shard-host links
// ---------------------------------------------------------------------------

/// A minimal raw coordinator link for the shard-host tamper tests.
struct RawLink {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawLink {
    fn connect(addr: std::net::SocketAddr) -> RawLink {
        let stream = TcpStream::connect(addr).expect("connect to shard host");
        stream.set_read_timeout(Some(Duration::from_millis(20))).expect("read timeout");
        RawLink { stream, buf: Vec::new() }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write frame");
    }

    /// Read until one frame decodes under `key`, the peer hangs up, or
    /// the deadline passes. `Ok(None)` = silence, `Err(true)` = closed.
    fn read_frame(
        &mut self,
        key: &AuthKey,
        deadline: Duration,
    ) -> Result<Option<(FrameKind, Envelope)>, bool> {
        let until = Instant::now() + deadline;
        let mut scratch = [0u8; 4096];
        loop {
            match decode_frame(key, &self.buf) {
                Ok(Some(d)) => {
                    self.buf.drain(..d.consumed);
                    return Ok(Some((d.kind, d.envelope)));
                }
                Ok(None) => {}
                Err(_) => return Err(false), // undecodable under this key
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(true), // peer closed
                Ok(k) => self.buf.extend_from_slice(&scratch[..k]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if Instant::now() > until {
                        return Ok(None);
                    }
                }
                Err(_) => return Err(true),
            }
        }
    }
}

fn bits(v: u64, w: u32) -> Message {
    let mut wr = BitWriter::new();
    wr.write_bits(v, w);
    Message::from_writer(wr)
}

/// A frame MAC'd with shard A's key, replayed to a link registered as
/// shard B, is MAC-rejected and poisons the link — per-shard keys keep
/// siblings cryptographically apart even inside one fleet. The control
/// link (shard A under its own key) keeps working and ships its
/// partial.
#[test]
fn frame_under_sibling_shard_key_is_rejected() {
    let base = AuthKey::from_seed(61);
    let host = ShardHost::spawn(base).expect("bind shard host");
    let shards = 2usize;

    // Control: shard 0 registered and serving under its own key.
    let key_a = link_key(&base, 0, 1);
    let mut a = RawLink::connect(host.addr());
    a.send(&register_frame(&base, 0, shards, 1));
    let announce = Envelope {
        session: SessionId(7),
        round: 3, // announce epoch
        from: 1,  // coordinator client-connection id
        to: 0,
        payload: encode_resume(1, 1, 1),
    };
    a.send(&encode_wire_frame(&key_a, FrameKind::Announce, &announce));
    let data =
        Envelope { session: SessionId(7), round: 1, from: 1, to: 1, payload: bits(0b1011, 4) };
    a.send(&encode_wire_frame(&key_a, FrameKind::Data, &data));
    let (kind, env) = a
        .read_frame(&key_a, Duration::from_secs(5))
        .expect("link healthy")
        .expect("shard 0 emits its range partial");
    assert_eq!(kind, FrameKind::Partial);
    assert_eq!(env.round, 3, "quorum partial stamped with the announce epoch");

    // Attack: a link registered as shard 1 replays a frame MAC'd with
    // shard 0's key.
    let mut b = RawLink::connect(host.addr());
    b.send(&register_frame(&base, 1, shards, 1));
    b.send(&encode_wire_frame(&key_a, FrameKind::Data, &data));
    // The host must reject the MAC and hang up on the link.
    let outcome = b.read_frame(&link_key(&base, 1, 1), Duration::from_secs(5));
    assert_eq!(outcome, Err(true), "the tampering link must be closed");
    let stats = host.stop();
    assert!(stats.mac_rejects >= 1, "the cross-shard frame must be MAC-rejected");
}

/// A reconnected host replaying a pre-epoch partial fails closed: link
/// keys are generation-scoped, so anything a previous registration
/// generation MAC'd — and anything keyed with the raw (un-scoped)
/// shard key — is rejected by the current generation's verifier, which
/// is exactly the check the coordinator proxy runs on every partial.
#[test]
fn pre_epoch_partial_fails_closed() {
    let base = AuthKey::from_seed(62);
    let partial_env = Envelope {
        session: SessionId(9),
        round: 4 << 1,
        from: 0,
        to: 1,
        payload: bits(0x5a5a, 16),
    };
    // What a crashed generation-1 incarnation of shard 0 would replay…
    let stale = encode_wire_frame(&link_key(&base, 0, 1), FrameKind::Partial, &partial_env);
    // …must die under the post-reconnect generation-2 key:
    assert_eq!(decode_frame(&link_key(&base, 0, 2), &stale), Err(WireError::BadMac));
    // The un-scoped shard key authenticates no link traffic either.
    let unscoped = encode_wire_frame(&shard_key(&base, 0), FrameKind::Partial, &partial_env);
    assert_eq!(decode_frame(&link_key(&base, 0, 1), &unscoped), Err(WireError::BadMac));
    // And a live host enforces it end to end: register generation 2,
    // then replay the generation-1 frame — MAC-rejected, link closed.
    let host = ShardHost::spawn(base).expect("bind shard host");
    let mut link = RawLink::connect(host.addr());
    link.send(&register_frame(&base, 0, 1, 2));
    link.send(&stale);
    let outcome = link.read_frame(&link_key(&base, 0, 2), Duration::from_secs(5));
    assert_eq!(outcome, Err(true), "the stale-generation link must be closed");
    let stats = host.stop();
    assert!(stats.mac_rejects >= 1, "the pre-epoch frame must be MAC-rejected");
}

/// A multi-round session against the wrong kind of server fails closed
/// (the echo mailbox reflects the Announce, which the client rejects as
/// an unexpected frame) — never hangs.
#[test]
fn multiround_against_echo_server_fails_closed() {
    let key = AuthKey::from_seed(56);
    let server = FleetServer::spawn(key).unwrap(); // echo mailbox
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = generators::path(5);
    let err = client
        .run_multiround_session(SessionId(1), &BoruvkaConnectivity, &g, CAP)
        .expect_err("an echo server cannot referee");
    let _ = err; // any DecodeError is acceptable; the point is: no hang
    server.stop();
}

// ---------------------------------------------------------------------------
// Arrivals behind a shipped range
// ---------------------------------------------------------------------------

/// Drive one raw-socket session of `n = 6` against an 8-shard Borůvka
/// server: node 1 (shard 0's whole range) sends its round-1 uplink, then
/// `repeat` for the same slot, then nodes 2..=5 — node 6 never speaks.
/// The repeat lands after shard 0 shipped its round-1 partial. Returns
/// the connection id, the time to the verdict, its reject bit, and the
/// evidence bundles shipped ahead of it.
fn repeat_behind_shipped_range(
    seed: u64,
    repeat: Message,
) -> (u32, Duration, bool, Vec<EvidenceBundle>, FleetServer) {
    let base = AuthKey::from_seed(seed);
    let server =
        FleetServer::spawn_multiround(base, 8, boruvka_connectivity_service()).unwrap();
    let mut link = RawLink::connect(server.addr());
    let (kind, hello) = link
        .read_frame(&base, Duration::from_secs(5))
        .expect("handshake")
        .expect("the server greets first");
    assert_eq!(kind, FrameKind::Hello);
    let conn = hello.from;
    let key = base.derive(u64::from(conn));

    let session = SessionId(3);
    let announce = Envelope { session, round: 0, from: 0, to: 0, payload: bits(6, 32) };
    let opened = Instant::now();
    link.send(&encode_wire_frame(&key, FrameKind::Announce, &announce));
    let uplink = |from: u32, payload: Message| {
        encode_wire_frame(
            &key,
            FrameKind::Data,
            &Envelope { session, round: 1, from, to: 0, payload },
        )
    };
    link.send(&uplink(1, bits(0b101, 3)));
    link.send(&uplink(1, repeat));
    for from in 2..=5 {
        link.send(&uplink(from, bits(u64::from(from), 3)));
    }

    let mut bundles = Vec::new();
    let rejected = loop {
        let (kind, env) = link
            .read_frame(&key, Duration::from_secs(5))
            .expect("connection stays healthy")
            .expect("the session must be judged, not wedged");
        match kind {
            FrameKind::Evidence => {
                bundles.push(EvidenceBundle::decode(&env.payload).expect("bundle decodes"))
            }
            FrameKind::Verdict => break !env.payload.reader().read_bit().expect("verdict bit"),
            other => panic!("unexpected {other:?} frame awaiting the verdict"),
        }
    };
    (conn, opened.elapsed(), rejected, bundles, server)
}

/// A bit-identical repeat behind a shipped range fails the session fast
/// and leaves one unattributed `DuplicateSender` proof, cut from the
/// retained transcript of the shipped round.
#[test]
fn duplicate_behind_shipped_range_fails_fast_with_proof() {
    let (_, elapsed, rejected, bundles, server) =
        repeat_behind_shipped_range(71, bits(0b101, 3));
    assert!(rejected, "a duplicated sender must reject");
    assert!(elapsed < Duration::from_secs(2), "verdict took {elapsed:?}");
    assert_eq!(bundles.len(), 1);
    let logged = server.evidence();
    assert_eq!(logged, bundles, "the server holds exactly the shipped bundle");
    assert_eq!(logged[0].error, ProvableError::DuplicateSender);
    let cap = boruvka_connectivity_service().round_cap(6) as u32;
    let params = SessionParams { session: 3, n: 6, round_cap: cap };
    let att = verify_bundle(AuthKey::from_seed(71).mac_key(), &params, &logged[0])
        .expect("standalone verification");
    assert_eq!(att.culprit, None, "an identical duplicate accuses nobody");
    server.stop();
}

/// A different payload behind a shipped range is equivocation, proven
/// against the transcript the worker kept after shipping — and pinned
/// on the raw connection that sent both.
#[test]
fn equivocation_behind_shipped_range_is_attributed() {
    let (conn, elapsed, rejected, bundles, server) =
        repeat_behind_shipped_range(72, bits(0b110, 3));
    assert!(rejected, "an equivocating sender must reject");
    assert!(elapsed < Duration::from_secs(2), "verdict took {elapsed:?}");
    assert_eq!(bundles.len(), 1);
    assert_eq!(bundles[0].error, ProvableError::Equivocation);
    assert_eq!(bundles[0].accused, Some(conn));
    let cap = boruvka_connectivity_service().round_cap(6) as u32;
    let params = SessionParams { session: 3, n: 6, round_cap: cap };
    let att = verify_bundle(AuthKey::from_seed(72).mac_key(), &params, &bundles[0])
        .expect("standalone verification");
    assert_eq!(att.culprit, Some(conn));
    assert_eq!(server.evidence(), bundles);
    server.stop();
}
