//! The multi-round fleet mode over real loopback TCP: clients drive the
//! node half of Borůvka connectivity, the server's sharded referee runs
//! `referee_step` per round — verdicts pinned against in-process runs
//! and the centralized truth, tampering fails closed with zero
//! undetected corruption.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{algo, generators, LabelledGraph};
use referee_protocol::evidence::{verify_bundle, EvidenceBundle, ProvableError, SessionParams};
use referee_protocol::multiround::{run_multiround, BoruvkaConnectivity, RefereeStep};
use referee_protocol::shard::replay::encode_resume;
use referee_protocol::shard::{
    effective_shards, nonempty_shards, shard_range, ShardRange, MIN_RANGE_NODES,
};
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, Scheduler, SessionId};
use referee_wirenet::placement::{link_key, register_frame, shard_key};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, decode_frame, encode_runs,
    encode_wire_frame, trace_endpoint, AuthKey, FleetClient, FleetServer, FrameKind,
    RefereeStepper, RunDirection, ShardHost, TamperConfig, WireError, WireReferee,
    WireTimeouts,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(6 + i % 18, 0.22, &mut rng)).collect()
}

const CAP: usize = 64;

/// Multi-round Borůvka sessions multiplexed over 4 connections against
/// a 4-shard multi-round server: every wire verdict equals the
/// in-process `run_multiround` verdict and the centralized truth, and
/// the server streamed downlinks. Small sessions run unsplit; large
/// ones split over all 4 ranges and exchange one partial per
/// non-collector range per round.
#[test]
fn multiround_fleet_matches_in_process_runs() {
    let key = AuthKey::from_seed(51);
    let shards = 4usize;
    let server =
        FleetServer::spawn_multiround(key, shards, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 4, key).unwrap();
    let mut fleet = graphs(120, 71);
    let mut rng = StdRng::seed_from_u64(72);
    let large = (0..6).map(|i| generators::gnp(shards * MIN_RANGE_NODES + i, 0.01, &mut rng));
    fleet.extend(large);

    let verdicts: Vec<bool> = Scheduler::new(8, 4).run_indexed(fleet.len(), |i| {
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, &fleet[i], CAP)
            .expect("honest session completes");
        decode_bool_output(&out).expect("honest uplinks decode")
    });

    let mut partials = [0usize; 2]; // [small, large]
    for (i, (wire, g)) in verdicts.iter().zip(&fleet).enumerate() {
        let (local, stats) = run_multiround(&BoruvkaConnectivity, g, CAP);
        let local = local.expect("terminates").expect("decodes");
        assert_eq!(*wire, local, "session {i} diverged from the in-process run");
        assert_eq!(*wire, algo::is_connected(g), "session {i} vs centralized");
        let ranges = nonempty_shards(g.n(), effective_shards(g.n(), shards));
        partials[usize::from(i >= 120)] += stats.rounds * (ranges - 1);
    }

    let stats = server.stop();
    assert_eq!(stats.verdict_frames as usize, fleet.len());
    assert_eq!(stats.mac_rejects, 0);
    assert_eq!(stats.decode_rejects, 0);
    assert_eq!(partials[0], 0, "small sessions run unsplit");
    assert!(partials[1] > 0, "large sessions must exchange shard partials");
    assert_eq!(stats.partial_frames as usize, partials[1]);
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

/// A referee that never finishes: every round answers each node with
/// an empty downlink.
struct AlwaysContinue;

impl RefereeStepper for AlwaysContinue {
    fn step(&mut self, n: usize, _round: usize, _uplinks: &[Message]) -> RefereeStep<Message> {
        RefereeStep::Continue(vec![Message::empty(); n])
    }
}

impl WireReferee for AlwaysContinue {
    fn open(&self, _n: usize) -> Box<dyn RefereeStepper> {
        Box::new(AlwaysContinue)
    }

    fn round_cap(&self, _n: usize) -> usize {
        CAP
    }
}

/// `verify_session` is a 1-round session: against a service that
/// answers round 1 with downlinks instead of a verdict it returns the
/// client's cap error as soon as those downlinks arrive, well inside
/// the verdict deadline.
#[test]
fn verify_session_against_a_continuing_service_fails_fast() {
    let key = AuthKey::from_seed(58);
    let server = FleetServer::spawn_multiround(key, 2, Arc::new(AlwaysContinue)).unwrap();
    let timeouts =
        WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_secs(10) };
    let client = FleetClient::connect_with(server.addr(), 1, key, timeouts).unwrap();
    let arrivals = (1..=4u32).map(|v| (v, bits(u64::from(v), 8)));
    let t0 = Instant::now();
    let err = client
        .verify_session(SessionId(1), 4, arrivals)
        .expect_err("a service that never judges cannot verify");
    let elapsed = t0.elapsed();
    match &err {
        DecodeError::Invalid(m) => assert!(m.contains("1-round cap"), "{m}"),
        other => panic!("expected the client's cap error, got {other:?}"),
    }
    assert!(elapsed < Duration::from_secs(1), "waited {elapsed:?} for a verdict");
    drop(client);
    server.stop();
}

/// Every client session leaves the same trace at the client endpoint:
/// one `Announce` (payload `n`), one `Uplink` per round sent (payload:
/// the round) and exactly one `Verdict` (payload: the raw verdict's bit
/// length) — for a verify session, a multi-round Borůvka session and an
/// empty network alike.
#[test]
fn every_client_session_leaves_the_same_trace_shape() {
    let key = AuthKey::from_seed(59);
    let verifier = FleetServer::spawn_sharded(key, 2).unwrap();
    let multiround =
        FleetServer::spawn_multiround(key, 2, boruvka_connectivity_service()).unwrap();
    let vclient = FleetClient::connect(verifier.addr(), 1, key).unwrap();
    let mclient = FleetClient::connect(multiround.addr(), 1, key).unwrap();
    let client_events = |client: &FleetClient, session: u64| {
        let trace = client.stitched_trace();
        let mut events: Vec<_> = trace
            .session_events(session)
            .filter(|e| e.endpoint == trace_endpoint::CLIENT)
            .map(|e| (e.seq, e.kind, e.payload))
            .collect();
        events.sort();
        events.into_iter().map(|(_, kind, payload)| (kind, payload)).collect::<Vec<_>>()
    };
    let shape = |n: usize, rounds: usize, verdict_bits: usize| {
        let mut shape = vec![(TraceKind::Announce, n as u64)];
        shape.extend((1..=rounds as u64).map(|r| (TraceKind::Uplink, r)));
        shape.push((TraceKind::Verdict, verdict_bits as u64));
        shape
    };

    // Verify: one round; the digest verdict is `1` plus 64 digest bits.
    let arrivals = vec![(2, bits(2, 8)), (1, bits(1, 8)), (3, bits(3, 8))];
    vclient.verify_session(SessionId(1), 3, arrivals).expect("honest session verifies");
    assert_eq!(client_events(&vclient, 1), shape(3, 1, 65), "verify session");

    // Borůvka: one Uplink per round the in-process run takes; the raw
    // verdict is `1` plus the encoded output.
    let g = generators::grid(3, 3);
    let out = mclient
        .run_multiround_session(SessionId(2), &BoruvkaConnectivity, &g, CAP)
        .expect("honest session completes");
    let (_, stats) = run_multiround(&BoruvkaConnectivity, &g, CAP);
    assert_eq!(
        client_events(&mclient, 2),
        shape(9, stats.rounds, 1 + out.len_bits()),
        "Borůvka"
    );

    // The empty network: no uplinks, but round 1 is still its one wait.
    let out = mclient
        .run_multiround_session(SessionId(3), &BoruvkaConnectivity, &LabelledGraph::new(0), CAP)
        .expect("the empty network completes");
    assert_eq!(client_events(&mclient, 3), shape(0, 1, 1 + out.len_bits()), "empty network");

    verifier.stop();
    multiround.stop();
}

/// One payload meaning per trace kind, on the server too: across
/// several Borůvka sessions on one connection (so announce epochs run
/// ahead of rounds), each session's one server `Verdict` carries the
/// same verdict bit length as the client's, and every worker
/// `PartialEmit` carries a round the session ran.
#[test]
fn server_trace_payloads_match_the_client() {
    let key = AuthKey::from_seed(60);
    let server = FleetServer::spawn_multiround(key, 3, boruvka_connectivity_service()).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let fleet = [generators::grid(3, 3), generators::path(5), generators::cycle(6).unwrap()];
    for round in 0..2u64 {
        for (i, g) in fleet.iter().enumerate() {
            let session = round * fleet.len() as u64 + i as u64;
            client
                .run_multiround_session(SessionId(session), &BoruvkaConnectivity, g, CAP)
                .expect("honest session completes");
        }
    }
    // The server's trace holds its router's and workers' events only.
    let (client_trace, server_trace) = (client.stitched_trace(), server.stitched_trace());
    let payloads = |trace: &TraceSnapshot, session: u64, kind: TraceKind| {
        let events = trace.session_events(session).filter(|e| e.kind == kind);
        events.map(|e| e.payload).collect::<Vec<_>>()
    };
    for session in 0..2 * fleet.len() as u64 {
        let g = &fleet[session as usize % fleet.len()];
        let (_, stats) = run_multiround(&BoruvkaConnectivity, g, CAP);
        let client_verdict = payloads(&client_trace, session, TraceKind::Verdict);
        assert_eq!(client_verdict.len(), 1, "session {session}");
        let server_verdict = payloads(&server_trace, session, TraceKind::Verdict);
        assert_eq!(server_verdict, client_verdict, "session {session}");
        let emits = payloads(&server_trace, session, TraceKind::PartialEmit);
        assert!(!emits.is_empty(), "session {session}");
        for round in emits {
            assert!((1..=stats.rounds as u64).contains(&round), "session {session}: {round}");
        }
    }
    server.stop();
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

/// `entries` (ids increasing) as one round-`round` uplink run of
/// `session` addressed to `to`, MAC'd under `key`.
fn run_frame(
    key: &AuthKey,
    session: u64,
    round: u32,
    to: u32,
    entries: &[(u32, Message)],
) -> Vec<u8> {
    let mut runs = encode_runs(entries.iter().map(|(from, m)| (*from, m)));
    assert_eq!(runs.len(), 1, "one run");
    let run = runs.remove(0).envelope(SessionId(session), round, RunDirection::Uplink);
    encode_wire_frame(key, FrameKind::Data, &Envelope { to, ..run })
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
    // Node 1's uplink run for client connection 1.
    let data = run_frame(&key_a, 7, 1, 1, &[(1, bits(0b1011, 4))]);
    a.send(&data);
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
    b.send(&data);
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

/// The behind-a-shipped-range sessions: 8 ranges of `MIN_RANGE_NODES`
/// nodes on an 8-shard server, so the session splits 8 ways.
const SHIPPED_N: usize = 8 * MIN_RANGE_NODES;

/// Drive one raw-socket session of [`SHIPPED_N`] nodes against an
/// 8-shard Borůvka server: range 0 (nodes `1..=MIN_RANGE_NODES`) sends
/// its round-1 uplinks as one run, then `repeat` for node 1's slot as a
/// run of its own, then a run of every other node but the last, which
/// never speaks. The repeat
/// lands after range 0 shipped its round-1 partial (the server's trace
/// shows that emit ahead of the evidence). Returns the connection id,
/// the time to the verdict, its reject bit, and the evidence bundles
/// shipped ahead of it.
fn repeat_behind_shipped_range(
    seed: u64,
    repeat: Message,
) -> (u32, Duration, bool, Vec<EvidenceBundle>, FleetServer) {
    let n = SHIPPED_N;
    assert_eq!(effective_shards(n, 8), 8, "the session must split");
    assert_eq!(shard_range(n, 8, 0), ShardRange { lo: 1, hi: MIN_RANGE_NODES as u32 });
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
    let announce = Envelope { session, round: 0, from: 0, to: 0, payload: bits(n as u64, 32) };
    let opened = Instant::now();
    link.send(&encode_wire_frame(&key, FrameKind::Announce, &announce));
    let run = |entries: Vec<(u32, Message)>| run_frame(&key, session.0, 1, 0, &entries);
    let filler = |from: u32| (from, bits(u64::from(from % 8), 3));
    let range0 = std::iter::once((1, bits(0b101, 3)));
    link.send(&run(range0.chain((2..=MIN_RANGE_NODES as u32).map(filler)).collect()));
    link.send(&run(vec![(1, repeat)]));
    link.send(&run((MIN_RANGE_NODES as u32 + 1..n as u32).map(filler).collect()));

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
    let elapsed = opened.elapsed();
    // Range 0 emitted its round-1 partial before the repeat was proven.
    let trace = server.stitched_trace();
    let seq_of = |kind: TraceKind| {
        let mut events = trace.session_events(3);
        events
            .find(|e| e.kind == kind && e.endpoint == trace_endpoint::worker(0))
            .map(|e| e.seq)
    };
    let emitted = seq_of(TraceKind::PartialEmit).expect("range 0 shipped round 1");
    let proven = trace.session_events(3).find(|e| e.kind == TraceKind::Evidence);
    assert!(emitted < proven.expect("the repeat is proven").seq, "repeat behind the emit");
    (conn, elapsed, rejected, bundles, server)
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
    let cap = boruvka_connectivity_service().round_cap(SHIPPED_N) as u32;
    let params = SessionParams { session: 3, n: SHIPPED_N as u32, round_cap: cap };
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
    let cap = boruvka_connectivity_service().round_cap(SHIPPED_N) as u32;
    let params = SessionParams { session: 3, n: SHIPPED_N as u32, round_cap: cap };
    let att = verify_bundle(AuthKey::from_seed(72).mac_key(), &params, &bundles[0])
        .expect("standalone verification");
    assert_eq!(att.culprit, Some(conn));
    assert_eq!(server.evidence(), bundles);
    server.stop();
}
