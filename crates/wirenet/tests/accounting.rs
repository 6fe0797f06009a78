//! One recording site per wire event. Every connection counts the
//! frames it writes, as the one drain counts the frames it reads, so
//! over a remote placement the coordinator's counts equal what its
//! client and its shard hosts counted from the other end; and a range
//! worker records its own emits under one rule for poison notices,
//! whether it runs in process or on a shard host.

use rand::rngs::StdRng;
use rand::SeedableRng;
use referee_graph::{generators, LabelledGraph};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::referee::local_phase;
use referee_protocol::shard::{effective_shards, MIN_RANGE_NODES};
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{DecodeError, Message};
use referee_simnet::SessionId;
use referee_wirenet::{
    trace_endpoint, vector_digest, AuthKey, FleetClient, FleetServer, PlacementPolicy,
    RemotePlacement, ShardHost, WireSnapshot,
};
use std::time::{Duration, Instant};

/// Two shard hosts and a 2-shard coordinator placed on them.
fn placed_server(key: AuthKey) -> (FleetServer, Vec<ShardHost>) {
    let hosts: Vec<ShardHost> =
        (0..2).map(|_| ShardHost::spawn(key).expect("bind shard host")).collect();
    let placement = RemotePlacement::new(
        PlacementPolicy::balanced(2, &[0, 1]),
        hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr())),
    )
    .expect("addresses cover the policy");
    let server = FleetServer::builder(key).placement(placement).spawn().expect("bind");
    (server, hosts)
}

fn arrivals(messages: &[Message]) -> impl Iterator<Item = (u32, Message)> + '_ {
    messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m))
}

/// Wait until `done` holds, panicking with `what()` after 10 s.
fn settle(mut done: impl FnMut() -> bool, what: impl Fn() -> String) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "never settled: {}", what());
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A clean run through two shard hosts, small sessions on host 0 and
/// sessions of more than `MIN_RANGE_NODES` split across both: once the
/// teardown traffic settles, every frame the coordinator wrote was read
/// by its client or a host, and every frame it read was written by one
/// of them. Every host wrote bytes.
#[test]
fn coordinator_frames_match_its_client_and_hosts() {
    let key = AuthKey::from_seed(250);
    let (server, hosts) = placed_server(key);
    let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
    let mut rng = StdRng::seed_from_u64(25);
    let sizes = [6, 300, 9, 260];
    assert!(sizes.iter().any(|&n| effective_shards(n, 2) == 2 && n > MIN_RANGE_NODES));
    for (i, n) in sizes.into_iter().enumerate() {
        let g = generators::gnp(n, (6.0 / n as f64).min(0.3), &mut rng);
        let messages = local_phase(&EdgeCountProtocol, &g);
        let digest = client.verify_session(SessionId(i as u64), n, arrivals(&messages));
        assert_eq!(digest, Ok(vector_digest(&key, &messages)), "session {i}");
    }
    let counts = || {
        let hs: Vec<WireSnapshot> = hosts.iter().map(ShardHost::metrics).collect();
        (client.metrics(), server.metrics(), hs)
    };
    let identities = |(c, s, hs): &(WireSnapshot, WireSnapshot, Vec<WireSnapshot>)| {
        let host_received: u64 = hs.iter().map(|h| h.frames_received).sum();
        let host_sent: u64 = hs.iter().map(|h| h.frames_sent).sum();
        (
            (s.frames_sent, c.frames_received + host_received),
            (s.frames_received, c.frames_sent + host_sent),
        )
    };
    let holds = |counts| {
        let (sent, received) = identities(&counts);
        sent.0 == sent.1 && received.0 == received.1
    };
    settle(|| holds(counts()), || format!("{:?}", identities(&counts())));
    let (c, s, hs) = counts();
    assert_eq!(c.frames_sent, 2 * 4, "an announce and one run per session");
    assert_eq!(c.frames_received, 4, "one verdict per session");
    for (i, h) in hs.iter().enumerate() {
        assert!(h.frames_sent > 0 && h.bytes_sent > 0, "host {i} wrote nothing: {h}");
    }
    // Host 0 holds every session, host 1 only the split ones.
    assert!(hs[0].frames_received > hs[1].frames_received, "{} vs {}", hs[0], hs[1]);
    assert_eq!((s.mac_rejects, s.decode_rejects, s.replayed_frames), (0, 0, 0));
    server.stop();
    drop(hosts);
}

/// The arrivals of `g`'s session with node 5 (range 0) left out and
/// node `dup` (range 1) sent twice, the repeat last: range 1 completes
/// and ships, so the repeat lands behind its partial and becomes a
/// poison notice, while range 0 starves.
fn duplicate_behind_a_split(messages: &[Message], dup: u32) -> Vec<(u32, Message)> {
    let mut sent: Vec<(u32, Message)> = arrivals(messages).filter(|(v, _)| *v != 5).collect();
    sent.push((dup, messages[dup as usize - 1].clone()));
    sent
}

/// `kind` events of `session` in `trace`, by endpoint.
fn events(trace: &TraceSnapshot, session: u64, kind: TraceKind) -> Vec<u32> {
    let events = trace.session_events(session).filter(|e| e.kind == kind);
    events.map(|e| e.endpoint).collect()
}

/// One notice rule in process and on shard hosts: a poison notice is
/// not a range emit. A duplicate behind a shipped range partial is
/// traced once as `Poison`, and only the range partial itself is traced
/// as `PartialEmit` and counted in `partial_frames`, whether range 1
/// runs on an in-process worker or on a shard host.
#[test]
fn a_duplicate_behind_a_split_follows_one_notice_rule() {
    let key = AuthKey::from_seed(251);
    let g: LabelledGraph = generators::gnp(300, 0.02, &mut StdRng::seed_from_u64(26));
    let n = g.n();
    assert_eq!(effective_shards(n, 2), 2);
    let messages = local_phase(&EdgeCountProtocol, &g);
    let dup = 200;
    let sent = duplicate_behind_a_split(&messages, dup);
    let verify = |server: &FleetServer| {
        let client = FleetClient::connect(server.addr(), 1, key).expect("connect");
        match client.verify_session(SessionId(1), n, sent.clone()) {
            Err(DecodeError::Inconsistent(_)) => {}
            other => panic!("a duplicate sender must fail the session, got {other:?}"),
        }
    };

    // In process: range 1's worker emits once and cuts the notice.
    let server = FleetServer::spawn_sharded(key, 2).expect("bind");
    verify(&server);
    let trace = server.stitched_trace();
    let s = server.stop();
    assert_eq!(s.partial_frames, 1, "in process: one range partial handed over");
    assert_eq!(events(&trace, 1, TraceKind::PartialEmit), [trace_endpoint::worker(1)]);
    assert_eq!(events(&trace, 1, TraceKind::Poison), [trace_endpoint::worker(1)]);

    // On hosts: host 1 emits once; the notice is cut by host 1, or by
    // proxy 1 if host 1's partial committed first. Each host ships its
    // trace on `Finish`, its `Announce` included.
    let (server, hosts) = placed_server(key);
    verify(&server);
    let shipped = || {
        let announced = events(&server.stitched_trace(), 1, TraceKind::Announce);
        (0..2).all(|i| announced.contains(&trace_endpoint::shard_host(i)))
    };
    settle(shipped, || format!("{:?}", server.stitched_trace()));
    let trace = server.stitched_trace();
    let emitted: u64 = hosts.iter().map(|h| h.metrics().partial_frames).sum();
    assert_eq!(emitted, 1, "on hosts: one range partial handed over");
    assert_eq!(events(&trace, 1, TraceKind::PartialEmit), [trace_endpoint::shard_host(1)]);
    let poison = events(&trace, 1, TraceKind::Poison);
    assert!(
        poison == [trace_endpoint::shard_host(1)] || poison == [trace_endpoint::proxy(1)],
        "{poison:?}"
    );
    server.stop();
    drop(hosts);
}
