//! Remote shard placement over real loopback sockets, pinned against
//! the in-process paths: for every shard count `k` in `1..=8` the
//! remote-shard verdicts equal `run_multiround_sharded` (multi-round)
//! and the one-round digests equal `vector_digest` — bit for bit,
//! including under a seeded shard-host kill/reconnect schedule — and
//! the tamper sweep accepts zero corrupted sessions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{algo, generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::referee::local_phase;
use referee_protocol::shard::multiround::{
    run_multiround_sharded, RoundPartialState, RoundShard,
};
use referee_protocol::shard::replay::{decode_resume, encode_resume};
use referee_protocol::shard::{effective_shards, MIN_RANGE_NODES};
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::placement::{link_key, register_frame};
use referee_wirenet::{
    boruvka_connectivity_service, decode_bool_output, decode_frame, decode_run,
    encode_wire_frame, trace_endpoint, vector_digest, AuthKey, FleetClient, FleetServer,
    FrameKind, HostId, PlacementPolicy, RemotePlacement, RunDirection, ShardHost, TamperConfig,
    WireTimeouts,
};
use std::collections::{BTreeSet, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CAP: usize = 64;

fn bits(v: u64, w: u32) -> Message {
    let mut wr = BitWriter::new();
    wr.write_bits(v, w);
    Message::from_writer(wr)
}

fn graphs(count: usize, seed: u64) -> Vec<LabelledGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|i| generators::gnp(4 + i % 14, 0.25, &mut rng)).collect()
}

/// Two shard hosts + a remote placement of `k` shards across them.
fn placed(key: AuthKey, k: usize) -> (Vec<ShardHost>, RemotePlacement) {
    let hosts: Vec<ShardHost> =
        (0..2).map(|_| ShardHost::spawn(key).expect("bind shard host")).collect();
    let policy = PlacementPolicy::balanced(k, &[0, 1]);
    let placement = RemotePlacement::new(
        policy,
        hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr())),
    )
    .expect("addresses cover the policy");
    (hosts, placement)
}

proptest! {
    // Each case spawns real sockets; keep the case count modest — the
    // k and seed spaces are still swept.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Multi-round: remote-shard verdicts equal the in-process
    /// `run_multiround_sharded` for arbitrary k in 1..=8 and seeds.
    #[test]
    fn remote_multiround_matches_in_process(k in 1usize..=8, seed in any::<u64>()) {
        let key = AuthKey::from_seed(seed ^ 0x5eed);
        let (hosts, placement) = placed(key, k);
        let server = FleetServer::builder(key)
            .placement(placement)
            .multiround(boruvka_connectivity_service())
            .spawn()
            .expect("bind coordinator");
        let client = FleetClient::connect(server.addr(), 2, key).expect("connect");
        for (i, g) in graphs(6, seed).iter().enumerate() {
            let out = client
                .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP)
                .expect("honest session completes");
            let wire = decode_bool_output(&out).expect("honest uplinks decode");
            let (local, _) = run_multiround_sharded(&BoruvkaConnectivity, g, k, CAP);
            prop_assert_eq!(wire, local.expect("terminates").expect("decodes"), "k={}", k);
            prop_assert_eq!(wire, algo::is_connected(g));
        }
        let stats = server.stop();
        prop_assert_eq!(stats.mac_rejects, 0);
        drop(hosts);
    }

    /// One-round: remote-shard digests equal `vector_digest` of the
    /// sent vectors for arbitrary k in 1..=8 and seeds.
    #[test]
    fn remote_one_round_matches_digests(k in 1usize..=8, seed in any::<u64>()) {
        let key = AuthKey::from_seed(seed ^ 0xd16e);
        let (hosts, placement) = placed(key, k);
        let server =
            FleetServer::builder(key).placement(placement).spawn().expect("bind coordinator");
        let client = FleetClient::connect(server.addr(), 2, key).expect("connect");
        for (i, g) in graphs(6, seed).iter().enumerate() {
            let messages = local_phase(&EdgeCountProtocol, g);
            let arrivals =
                messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
            let digest = client
                .verify_session(SessionId(i as u64), g.n(), arrivals)
                .expect("honest session verifies");
            prop_assert_eq!(digest, vector_digest(&key, &messages), "k={}", k);
        }
        let stats = server.stop();
        prop_assert_eq!(stats.mac_rejects, 0);
        drop(hosts);
    }
}

/// A seeded kill/reconnect schedule mid-fleet: one shard host is
/// repeatedly stopped and respawned (on fresh ports, the address book
/// re-pointed); journal replay must keep every verdict bit-for-bit
/// equal to the in-process sharded run. The victim is each host in
/// turn: host 0 serves shard 0, whose proxy also runs the collector, so
/// its kills exercise redial and replay on the collector's thread.
/// Small sessions run on shard 0 alone; the large ones split over all
/// four shards, so host 1 holds ranges of them too.
#[test]
fn kill_reconnect_schedule_preserves_verdicts() {
    for victim in [0u32, 1] {
        kill_reconnect_schedule(victim);
    }
}

fn kill_reconnect_schedule(victim: HostId) {
    let key = AuthKey::from_seed(4242);
    let k = 4usize;
    let (mut hosts, placement) = placed(key, k);
    let server = FleetServer::builder(key)
        .placement(placement.clone())
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let client = FleetClient::connect(server.addr(), 2, key).expect("connect");
    let mut fleet = graphs(50, 99);
    let mut rng = StdRng::seed_from_u64(98);
    fleet.extend((0..8).map(|i| generators::gnp(k * MIN_RANGE_NODES + i, 0.01, &mut rng)));
    assert!(fleet.iter().any(|g| effective_shards(g.n(), k) == k));

    let stop = Arc::new(AtomicBool::new(false));
    let chaos = {
        let stop = Arc::clone(&stop);
        let placement = placement.clone();
        let host = hosts.remove(victim as usize);
        std::thread::spawn(move || {
            let mut host = Some(host);
            let mut kills = 0usize;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(25));
                let h = host.take().expect("host present");
                h.stop(); // volatile shard state dies with it
                kills += 1;
                std::thread::sleep(Duration::from_millis(10));
                let fresh = ShardHost::spawn(key).expect("respawn");
                assert!(placement.update_host(victim, fresh.addr()));
                host = Some(fresh);
            }
            (host, kills)
        })
    };

    let mut verdicts = Vec::new();
    for (i, g) in fleet.iter().enumerate() {
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP)
            .expect("honest session completes despite kills");
        verdicts.push(decode_bool_output(&out).expect("decodes"));
    }
    stop.store(true, Ordering::SeqCst);
    let (survivor, kills) = chaos.join().expect("chaos thread");
    assert!(kills > 0, "host {victim}: the schedule must actually kill");

    for (i, (wire, g)) in verdicts.iter().zip(&fleet).enumerate() {
        let (local, _) = run_multiround_sharded(&BoruvkaConnectivity, g, k, CAP);
        assert_eq!(
            *wire,
            local.expect("terminates").expect("decodes"),
            "host {victim}: session {i} diverged under the kill schedule"
        );
    }
    let stats = server.stop();
    assert!(
        stats.shard_reconnects as u64 > k as u64,
        "host {victim}: kills must force redials: {}",
        stats.shard_reconnects
    );
    drop(survivor);
    drop(hosts);
}

/// What the router queued before a proxy's first dial completed leaves
/// on that dial, and is no replay: with the shard hosts coming up only
/// after the first sessions were announced, a kill-free run reads
/// `replayed_frames == 0` and traces no `Replay`, one dial per proxy,
/// and every verdict correct.
#[test]
fn first_dial_is_not_a_replay() {
    let key = AuthKey::from_seed(7272);
    let k = 2usize;
    // Nothing listens here: every dial fails until the hosts come up.
    let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let placement =
        RemotePlacement::new(PlacementPolicy::balanced(k, &[0, 1]), [(0, dead), (1, dead)])
            .expect("addresses cover the policy");
    let server = FleetServer::builder(key)
        .placement(placement.clone())
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let client = FleetClient::connect(server.addr(), 2, key).expect("connect");
    let mut rng = StdRng::seed_from_u64(7);
    let fleet: Vec<LabelledGraph> =
        (0..4).map(|i| generators::gnp(k * MIN_RANGE_NODES + i, 0.02, &mut rng)).collect();
    let hosts = std::thread::scope(|scope| {
        let runs: Vec<_> = fleet
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let client = &client;
                scope.spawn(move || {
                    let id = SessionId(i as u64);
                    client.run_multiround_session(id, &BoruvkaConnectivity, g, CAP)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        let hosts: Vec<ShardHost> =
            (0..2).map(|_| ShardHost::spawn(key).expect("bind shard host")).collect();
        for (h, host) in hosts.iter().enumerate() {
            assert!(placement.update_host(h as HostId, host.addr()));
        }
        for (run, g) in runs.into_iter().zip(&fleet) {
            let out = run.join().expect("session thread").expect("session completes");
            let (local, _) = run_multiround_sharded(&BoruvkaConnectivity, g, k, CAP);
            let local = local.expect("terminates").expect("decodes");
            assert_eq!(decode_bool_output(&out), Ok(local));
        }
        hosts
    });
    let replays = server.stitched_trace().events().iter().any(|e| e.kind == TraceKind::Replay);
    let stats = server.stop();
    assert_eq!(stats.replayed_frames, 0);
    assert!(!replays, "a first dial traces no replay");
    assert_eq!(stats.shard_reconnects, k as u64, "one dial per proxy");
    drop(hosts);
}

/// The tamper adversary against the remote topology: corrupted client
/// frames die at the router; zero corrupted sessions are accepted.
#[test]
fn remote_tamper_sweep_zero_undetected() {
    let key = AuthKey::from_seed(909);
    let (hosts, placement) = placed(key, 3);
    let server = FleetServer::builder(key)
        .placement(placement)
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let sessions = 10usize;
    let client = FleetClient::connect(server.addr(), sessions, key)
        .expect("connect")
        .with_tamper(TamperConfig { flip_every: 3 });
    let mut failed_closed = 0usize;
    let mut undetected = 0usize;
    for (i, g) in graphs(sessions, 17).iter().enumerate() {
        match client.run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP) {
            Err(_) => failed_closed += 1,
            Ok(out) => {
                if decode_bool_output(&out) != Ok(algo::is_connected(g)) {
                    undetected += 1;
                }
            }
        }
    }
    assert_eq!(undetected, 0, "a corrupted session was accepted");
    assert!(failed_closed > 0, "tampering every 3rd frame must hit most sessions");
    let stats = server.stop();
    assert!(stats.mac_rejects > 0, "corruption must die at the router MAC check");
    drop(hosts);
}

/// n = 0 and tiny sessions ride the remote path too (empty-range shards
/// are implied at the collector, never announced to hosts in
/// multi-round mode).
#[test]
fn remote_trivial_sizes() {
    let key = AuthKey::from_seed(31337);
    let (hosts, placement) = placed(key, 5);
    let server = FleetServer::builder(key)
        .placement(placement)
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
    for (i, (g, want)) in [
        (LabelledGraph::new(0), true),
        (LabelledGraph::new(1), true),
        (LabelledGraph::new(2), false),
        (generators::path(3), true),
    ]
    .into_iter()
    .enumerate()
    {
        let out = client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, &g, CAP)
            .expect("honest session completes");
        assert_eq!(decode_bool_output(&out).unwrap(), want, "graph {i}");
    }
    server.stop();
    drop(hosts);
}

/// How a fake shard host answers one announced session.
#[derive(Clone, Copy, Debug)]
enum HostPlay {
    /// A `Partial` whose payload does not decode.
    Undecodable,
    /// A well-formed partial for the round past the session's cap.
    PastCap,
    /// The honest range partial, once every uplink is in.
    Honest,
}

/// A fake shard host for a one-shard placement: it accepts the
/// coordinator's link, checks the `register_frame` handshake, then
/// answers the `i`-th announced session as `plays[i]` says, under the
/// link key — authenticated traffic from a host that is hostile.
fn fake_shard_host(key: AuthKey, plays: Vec<HostPlay>) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard host");
    let addr = listener.local_addr().expect("bound address");
    let host = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the proxy dials");
        stream.set_read_timeout(Some(Duration::from_millis(50))).expect("read timeout");
        let register = register_frame(&key, 0, 1, 1);
        let mut buf = vec![0u8; register.len()];
        stream.read_exact(&mut buf).expect("the proxy registers");
        assert_eq!(buf, register, "shard 0 of 1, generation 1");
        let link = link_key(&key, 0, 1);
        let mut sessions: HashMap<(u32, u64), (u32, RoundShard)> = HashMap::new();
        let mut plays = plays.into_iter();
        let mut scratch = [0u8; 4096];
        buf.clear();
        let until = Instant::now() + Duration::from_secs(60);
        while Instant::now() < until {
            match stream.read(&mut scratch) {
                Ok(0) => return, // the coordinator stopped
                Ok(got) => buf.extend_from_slice(&scratch[..got]),
                Err(_) => continue, // read timeout
            }
            while let Some(frame) = decode_frame(&link, &buf).expect("MAC'd under the link key")
            {
                buf.drain(..frame.consumed);
                let env = frame.envelope;
                let (conn, round, partial) = match frame.kind {
                    FrameKind::Announce => {
                        let (n, _, cap) = decode_resume(&env.payload).expect("resume layout");
                        let partial = match plays.next().expect("one play per session") {
                            HostPlay::Undecodable => bits(0b101, 3),
                            HostPlay::PastCap => RoundPartialState::new(n, cap + 1).encode(),
                            HostPlay::Honest => {
                                let shard = RoundShard::new(n, 1, 0, 1);
                                sessions.insert((env.from, env.session.0), (env.round, shard));
                                continue;
                            }
                        };
                        (env.from, env.round, partial)
                    }
                    FrameKind::Data => {
                        let Some((epoch, shard)) = sessions.get_mut(&(env.to, env.session.0))
                        else {
                            continue; // a hostile session's uplinks
                        };
                        let entries = decode_run(&env, RunDirection::Uplink).expect("a run");
                        for (from, payload) in entries {
                            shard.ingest(from, payload).expect("in range");
                        }
                        if !shard.is_complete() {
                            continue;
                        }
                        let epoch = *epoch;
                        let (_, shard) =
                            sessions.remove(&(env.to, env.session.0)).expect("present");
                        (env.to, epoch, shard.into_partial().encode())
                    }
                    _ => continue,
                };
                let reply = Envelope {
                    session: env.session,
                    round,
                    from: 0,
                    to: conn,
                    payload: partial,
                };
                stream
                    .write_all(&encode_wire_frame(&link, FrameKind::Partial, &reply))
                    .expect("reply");
            }
        }
    });
    (addr, host)
}

/// A shard host that passed the link MAC but ships an undecodable or a
/// past-cap partial fails its session closed with a typed verdict well
/// inside the client's deadline — never a starved wait, never unbounded
/// collector state — and the coordinator then serves an honest session.
#[test]
fn hostile_shard_host_partials_fail_closed_and_bounded() {
    let key = AuthKey::from_seed(1717);
    let plays = vec![HostPlay::Undecodable, HostPlay::PastCap, HostPlay::Honest];
    let (addr, host) = fake_shard_host(key, plays);
    let placement =
        RemotePlacement::new(PlacementPolicy::balanced(1, &[0]), [(0, addr)]).expect("cover");
    let server =
        FleetServer::builder(key).placement(placement).spawn().expect("bind coordinator");
    let deadline = Duration::from_secs(20);
    let timeouts = WireTimeouts { hello: Duration::from_secs(10), verdict: deadline };
    let client = FleetClient::connect_with(server.addr(), 1, key, timeouts).expect("connect");
    let g = generators::gnp(9, 0.3, &mut StdRng::seed_from_u64(5));
    let messages = local_phase(&EdgeCountProtocol, &g);
    let verify = |i: u64| {
        let arrivals = messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
        let started = Instant::now();
        let verdict = client.verify_session(SessionId(i), g.n(), arrivals);
        assert!(started.elapsed() < deadline / 2, "session {i} waited out the deadline");
        verdict
    };
    assert_eq!(verify(0), Err(DecodeError::Truncated), "undecodable partial");
    match verify(1) {
        Err(DecodeError::Invalid(_)) => {}
        other => panic!("a past-cap partial must be refused as Invalid, got {other:?}"),
    }
    assert_eq!(verify(2), Ok(vector_digest(&key, &messages)), "honest session");
    server.stop();
    host.join().expect("fake host exits cleanly");
}

/// Shard hosts trace each emitted partial with its round, not the
/// session's announce epoch: over eight Borůvka sessions (announce
/// epochs 1..=8, well past any session's round count), every shard-host
/// `PartialEmit` the coordinator stitched carries a round the session
/// ran.
#[test]
fn shard_host_partial_emits_carry_the_round() {
    let key = AuthKey::from_seed(4343);
    let (hosts, placement) = placed(key, 2);
    let server = FleetServer::builder(key)
        .placement(placement)
        .multiround(boruvka_connectivity_service())
        .spawn()
        .expect("bind coordinator");
    let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
    let fleet: Vec<LabelledGraph> = (0..8).map(|i| generators::path(4 + i % 3)).collect();
    for (i, g) in fleet.iter().enumerate() {
        client
            .run_multiround_session(SessionId(i as u64), &BoruvkaConnectivity, g, CAP)
            .expect("honest session completes");
    }
    // Hosts ship their trace on `Finish`, right behind each verdict.
    let is_host =
        |e: u32| (trace_endpoint::shard_host(0)..trace_endpoint::worker(0)).contains(&e);
    let emits = |session: u64| {
        let trace = server.stitched_trace();
        let payloads = trace
            .session_events(session)
            .filter(|e| e.kind == TraceKind::PartialEmit && is_host(e.endpoint))
            .map(|e| e.payload);
        payloads.collect::<Vec<_>>()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, g) in fleet.iter().enumerate() {
        let session = i as u64;
        while emits(session).is_empty() {
            assert!(Instant::now() < deadline, "session {session}: no host trace arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        let (_, stats) = run_multiround_sharded(&BoruvkaConnectivity, g, 2, CAP);
        for round in emits(session) {
            assert!((1..=stats.rounds as u64).contains(&round), "session {session}: {round}");
        }
    }
    server.stop();
    drop(hosts);
}

/// A shard host ships each flight-recorder event once, not once per
/// coordinator link: shards 0 and 1 of one placement, registered on one
/// host, each finish a session, and the `Trace` segments the two links
/// carry back hold disjoint event sequence numbers.
#[test]
fn shard_host_ships_each_trace_event_once() {
    let key = AuthKey::from_seed(6161);
    let host = ShardHost::spawn(key).expect("bind shard host");
    let mut links: Vec<(TcpStream, AuthKey)> = (0..2)
        .map(|index| {
            let mut stream = TcpStream::connect(host.addr()).expect("dial the host");
            stream.write_all(&register_frame(&key, index, 2, 1)).expect("register");
            (stream, link_key(&key, index, 1))
        })
        .collect();
    let mut spans = Vec::new();
    for (session, (stream, link)) in links.iter_mut().enumerate() {
        let control = |kind, payload| {
            let env = Envelope {
                session: SessionId(session as u64),
                round: 1,
                from: 1,
                to: 0,
                payload,
            };
            encode_wire_frame(link, kind, &env)
        };
        stream
            .write_all(&control(FrameKind::Announce, encode_resume(4, 1, 1)))
            .expect("announce");
        stream.write_all(&control(FrameKind::Finish, Message::empty())).expect("finish");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let (mut buf, mut scratch) = (Vec::new(), [0u8; 4096]);
        let segment = loop {
            let frame = decode_frame(link, &buf).expect("MAC'd under the link key");
            match frame {
                Some(frame) if frame.kind == FrameKind::Trace => {
                    break TraceSnapshot::decode(&frame.envelope.payload).expect("segment");
                }
                Some(frame) => drop(buf.drain(..frame.consumed)),
                None => {
                    let got = stream.read(&mut scratch).expect("the host ships its trace");
                    assert!(got > 0, "shard {session}: the host closed the link");
                    buf.extend_from_slice(&scratch[..got]);
                }
            }
        };
        let seqs: BTreeSet<u64> = segment.events().iter().map(|e| e.seq).collect();
        assert!(!seqs.is_empty(), "shard {session}: an empty segment ships nothing");
        spans.push(seqs);
    }
    assert!(spans[0].is_disjoint(&spans[1]), "events shipped twice: {spans:?}");
    host.stop();
}

/// Faulty arrivals are judged alike wherever the ranges live. For k in
/// {1, 2, 4}, on sessions that split k ways, an out-of-range sender and an equivocating sender give
/// the same verdict class through a remote-placement coordinator as
/// through an in-process server; the shard hosts cut as many evidence
/// bundles as the in-process workers; and each session's `Evidence`
/// events name the same accused connection in the coordinator's
/// stitched trace as in the server's.
#[test]
fn remote_placement_matches_in_process_on_faulty_arrivals() {
    let key = AuthKey::from_seed(5151);
    // Large enough that every k below splits k ways.
    let g = generators::grid(4, MIN_RANGE_NODES);
    let n = g.n();
    let messages = local_phase(&EdgeCountProtocol, &g);
    let honest: Vec<(u32, Message)> =
        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect();
    let mut out_of_range = honest.clone();
    out_of_range[0] = (n as u32 + 7, messages[0].clone());
    let mut equivocation = honest.clone();
    equivocation[1] = (1, bits(0x2a, 7));
    let faulty = [out_of_range, equivocation];
    let sessions = 1..=faulty.len() as u64;
    let accused = |trace: &TraceSnapshot, session: u64| {
        let events = trace.session_events(session).filter(|e| e.kind == TraceKind::Evidence);
        events.map(|e| e.payload).collect::<Vec<_>>()
    };
    // Session 0 is honest and shows the split: `partials` handed to the
    // collector. Sessions 1.. are the faulty ones.
    let run = |server: &FleetServer, partials: u64| {
        let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
        let digest = client.verify_session(SessionId(0), n, honest.clone());
        assert_eq!(digest, Ok(vector_digest(&key, &messages)));
        assert_eq!(server.metrics().partial_frames, partials, "the session must split");
        let verdicts = faulty.iter().zip(sessions.clone()).map(|(arrivals, session)| {
            let verdict = client.verify_session(SessionId(session), n, arrivals.clone());
            std::mem::discriminant(&verdict.expect_err("a faulty session fails"))
        });
        verdicts.collect::<Vec<_>>()
    };
    for k in [1, 2, 4] {
        assert_eq!(effective_shards(n, k), k);
        let server = FleetServer::spawn_sharded(key, k).expect("bind server");
        // In process, every range but the collector's hands one over.
        let local_verdicts = run(&server, k as u64 - 1);
        let local_trace = server.stitched_trace();
        let local_bundles = server.stop().evidence_bundles;
        assert_eq!(local_bundles, faulty.len() as u64, "k={k}: one bundle per faulty session");

        let (hosts, placement) = placed(key, k);
        let server =
            FleetServer::builder(key).placement(placement).spawn().expect("bind coordinator");
        // Under remote placement, the proxies forward every range's.
        let remote_verdicts = run(&server, k as u64);
        assert_eq!(remote_verdicts, local_verdicts, "k={k}: verdict classes");
        let host_bundles = || hosts.iter().map(|h| h.metrics().evidence_bundles).sum::<u64>();
        assert_eq!(host_bundles(), local_bundles, "k={k}: evidence bundles");
        // Hosts ship their trace on `Finish`, right behind each verdict.
        let deadline = Instant::now() + Duration::from_secs(10);
        for session in sessions.clone() {
            let want = accused(&local_trace, session);
            assert_eq!(want.len(), 1, "k={k} session {session}: {want:?}");
            while accused(&server.stitched_trace(), session) != want {
                let got = accused(&server.stitched_trace(), session);
                assert!(Instant::now() < deadline, "k={k} session {session}: {got:?}");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        server.stop();
        drop(hosts);
    }
}
