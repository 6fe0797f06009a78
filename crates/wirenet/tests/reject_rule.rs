//! One reject rule at every wire endpoint. The echo mailbox, the catalog
//! router, a registered shard host and a client all read frames through
//! the reactor's one drain, so a frame MAC'd under the wrong key costs
//! exactly one `mac_rejects` and one `MacReject` trace event at that
//! endpoint's id, and closes the connection; an authenticated frame of a
//! kind the endpoint does not accept is counted received, rejected once,
//! and closes the connection too. So is an authenticated `Data` frame
//! whose run is malformed — at the router, a shard host and a client —
//! and the run decoder answers arbitrary authenticated bytes with a
//! typed error or a run its encoder reproduces, never a panic, with
//! allocation bounded by the payload.

use proptest::prelude::*;
use referee_protocol::shard::replay::encode_resume;
use referee_protocol::trace::{TraceKind, TraceSnapshot};
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::placement::{link_key, register_frame};
use referee_wirenet::{
    decode_frame, decode_run, encode_runs, encode_wire_frame, trace_endpoint, AuthKey,
    FleetClient, FleetServer, FrameKind, RunDirection, ShardHost, WireTimeouts, RUN_BYTES,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn env(session: u64, from: u32) -> Envelope {
    Envelope { session: SessionId(session), round: 1, from, to: 0, payload: Message::empty() }
}

/// Read one frame authenticated under `key` off a raw stream.
fn read_frame(
    stream: &mut TcpStream,
    key: &AuthKey,
    buf: &mut Vec<u8>,
) -> (FrameKind, Envelope) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(d) = decode_frame(key, buf).expect("frame authenticates") {
            buf.drain(..d.consumed);
            return (d.kind, d.envelope);
        }
        let k = stream.read(&mut chunk).expect("read from the endpoint");
        assert!(k > 0, "the endpoint closed the connection");
        buf.extend_from_slice(&chunk[..k]);
    }
}

/// The endpoint hangs up on `stream` within 5 s.
fn assert_closed(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(_) => {} // frames queued before the close
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the endpoint kept the connection open")
            }
            Err(_) => return, // reset
        }
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The endpoints of every `MacReject` event in `trace`.
fn mac_reject_endpoints(trace: &TraceSnapshot) -> Vec<u32> {
    trace
        .events()
        .iter()
        .filter(|e| e.kind == TraceKind::MacReject)
        .map(|e| e.endpoint)
        .collect()
}

/// The echo mailbox and the catalog router: after the Hello the
/// connection runs on `base.derive(id)`, so a base-keyed frame fails the
/// MAC.
#[test]
fn wrong_key_frame_is_rejected_once_at_each_server_role() {
    let key = AuthKey::from_seed(90);
    for (role, server) in [
        ("echo mailbox", FleetServer::spawn(key).unwrap()),
        ("catalog router", FleetServer::spawn_sharded(key, 2).unwrap()),
    ] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        let (kind, _) = read_frame(&mut stream, &key, &mut buf);
        assert_eq!(kind, FrameKind::Hello, "{role}");
        stream.write_all(&encode_wire_frame(&key, FrameKind::Data, &env(1, 1))).unwrap();
        wait_until("the MAC reject", || server.metrics().mac_rejects > 0);
        assert_closed(&mut stream);
        let endpoints = mac_reject_endpoints(&server.stitched_trace());
        assert_eq!(endpoints, [trace_endpoint::SERVER], "{role}");
        let stats = server.stop();
        assert_eq!(stats.mac_rejects, 1, "{role}");
        assert_eq!(stats.decode_rejects, 0, "{role}");
        assert_eq!(stats.frames_received, 0, "{role}");
    }
}

/// A reject discards the echoes its drain queued, and the echo
/// mailbox's counters say so: two valid `Data` frames and a tampered
/// one written in one burst are drained together, the MAC reject
/// closes the connection before anything is flushed, and the server's
/// `frames_sent` equals the echoes the client reads.
#[test]
fn echo_counts_only_what_it_writes() {
    let key = AuthKey::from_seed(96);
    let server = FleetServer::spawn(key).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut buf = Vec::new();
    let (kind, hello) = read_frame(&mut stream, &key, &mut buf);
    assert_eq!(kind, FrameKind::Hello);
    let conn_key = key.derive(u64::from(hello.from));
    let mut burst = Vec::new();
    for from in 1..=3 {
        burst.extend(encode_wire_frame(&conn_key, FrameKind::Data, &env(1, from)));
    }
    let last = burst.len() - 1;
    burst[last] ^= 0x01; // inside the third frame's MAC tag
    stream.write_all(&burst).unwrap();

    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the echo mailbox kept the connection open")
            }
            Err(_) => break, // reset
        }
    }
    let mut echoes = 0;
    while let Some(d) = decode_frame(&conn_key, &buf).expect("echoes authenticate") {
        assert_eq!(d.kind, FrameKind::Data);
        buf.drain(..d.consumed);
        echoes += 1;
    }
    wait_until("the MAC reject", || server.metrics().mac_rejects > 0);
    let stats = server.stop();
    assert_eq!(stats.mac_rejects, 1);
    assert_eq!(stats.frames_received, 2);
    assert_eq!(stats.frames_sent, echoes, "echoes counted vs echoes the client read");
}

/// A registered shard host: a frame under another registration
/// generation's link key fails the MAC. The host's trace reaches a
/// coordinator only as shipped segments, so a second registered link's
/// `Retire` fetches everything it recorded.
#[test]
fn wrong_key_frame_is_rejected_once_at_a_shard_host() {
    let key = AuthKey::from_seed(91);
    let host = ShardHost::spawn(key).unwrap();
    let mut stale = TcpStream::connect(host.addr()).unwrap();
    stale.write_all(&register_frame(&key, 0, 1, 1)).unwrap();
    let wrong = link_key(&key, 0, 2);
    stale.write_all(&encode_wire_frame(&wrong, FrameKind::Finish, &env(1, 1))).unwrap();
    wait_until("the MAC reject", || host.metrics().mac_rejects > 0);
    assert_closed(&mut stale);

    let mut probe = TcpStream::connect(host.addr()).unwrap();
    probe.write_all(&register_frame(&key, 0, 1, 3)).unwrap();
    let probe_key = link_key(&key, 0, 3);
    probe.write_all(&encode_wire_frame(&probe_key, FrameKind::Retire, &env(0, 9))).unwrap();
    let (kind, segment) = read_frame(&mut probe, &probe_key, &mut Vec::new());
    assert_eq!(kind, FrameKind::Trace);
    let trace = TraceSnapshot::decode(&segment.payload).unwrap();
    assert_eq!(mac_reject_endpoints(&trace), [trace_endpoint::shard_host(0)]);
    let stats = host.stop();
    assert_eq!(stats.mac_rejects, 1);
    assert_eq!(stats.decode_rejects, 0);
}

/// A client: a fake server sends a valid Hello, then a frame under the
/// base key instead of the connection's derived one. The client's pump
/// rejects it, traces it and fails the session on the closed connection.
#[test]
fn wrong_key_frame_is_rejected_once_at_a_client() {
    let key = AuthKey::from_seed(92);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&encode_wire_frame(&key, FrameKind::Hello, &env(0, 5))).unwrap();
        stream.write_all(&encode_wire_frame(&key, FrameKind::Verdict, &env(1, 0))).unwrap();
        // Hold the connection until the client hangs up.
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(k) if k > 0) {}
    });
    let timeouts =
        WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_secs(5) };
    let client = FleetClient::connect_with(addr, 1, key, timeouts).unwrap();
    let t0 = Instant::now();
    client
        .verify_session(SessionId(1), 1, [(1, Message::empty())])
        .expect_err("a poisoned connection cannot verify");
    assert!(t0.elapsed() < Duration::from_secs(4), "the reject must fail the session fast");
    let stats = client.metrics();
    assert_eq!(stats.mac_rejects, 1);
    assert_eq!(stats.decode_rejects, 0);
    assert_eq!(mac_reject_endpoints(&client.stitched_trace()), [trace_endpoint::CLIENT]);
    drop(client);
    fake.join().unwrap();
}

/// An authenticated `Partial` — a kind only shard-host links carry — at
/// the router is counted received, rejected once, and closes the
/// connection.
#[test]
fn router_counts_then_rejects_an_authenticated_wrong_kind_frame() {
    let key = AuthKey::from_seed(93);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut buf = Vec::new();
    let (_, hello) = read_frame(&mut stream, &key, &mut buf);
    let conn_key = key.derive(u64::from(hello.from));
    stream.write_all(&encode_wire_frame(&conn_key, FrameKind::Partial, &env(1, 0))).unwrap();
    wait_until("the reject", || server.metrics().decode_rejects > 0);
    assert_closed(&mut stream);
    let stats = server.stop();
    assert_eq!(stats.frames_received, 1);
    assert_eq!(stats.decode_rejects, 1);
    assert_eq!(stats.mac_rejects, 0);
}

/// Entries encoded the way a run lays them out, with none of the
/// encoder's checks: ids in the order given, any count.
fn raw_entries(entries: &[(u32, Message)]) -> Message {
    let mut w = BitWriter::new();
    for (id, m) in entries {
        w.write_gamma(u64::from(*id) + 1);
        w.write_gamma(m.len_bits() as u64 + 1);
        m.append_to(&mut w);
    }
    Message::from_writer(w)
}

fn bits(v: u64, width: u32) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(v, width);
    Message::from_writer(w)
}

/// Hand-made malformed runs, each as `(what, from, to, payload)` of a
/// round-1 `Data` frame: every way a run can lie.
fn malformed_runs() -> Vec<(&'static str, u32, u32, Message)> {
    let m = bits(0b101, 3);
    let big = Message::from_writer({
        let mut w = BitWriter::new();
        for _ in 0..RUN_BYTES / 2 + 8 {
            w.write_bits(0xa5, 8);
        }
        w
    });
    let mut truncated = BitWriter::new();
    truncated.write_gamma(2);
    truncated.write_gamma(21); // 20 bits promised…
    truncated.write_bits(0b10110, 5); // …5 delivered
    vec![
        ("empty", 1, 0, Message::empty()),
        ("zero count", 0, 0, raw_entries(&[(1, m.clone())])),
        ("downlink header", 0, 1, raw_entries(&[(1, m.clone())])),
        ("reordered ids", 2, 0, raw_entries(&[(3, m.clone()), (2, m.clone())])),
        ("repeated id", 2, 0, raw_entries(&[(2, m.clone()), (2, m.clone())])),
        ("count too high", 3, 0, raw_entries(&[(1, m.clone()), (2, m.clone())])),
        ("count too low", 1, 0, raw_entries(&[(1, m.clone()), (2, m.clone())])),
        ("truncated entry", 1, 0, Message::from_writer(truncated)),
        ("two entries past RUN_BYTES", 2, 0, raw_entries(&[(1, big.clone()), (2, big)])),
    ]
}

/// The router: each malformed uplink run on a live session is counted
/// received, rejected once, and closes its connection; no verdict
/// follows. A run addressed off the referee is rejected the same way.
#[test]
fn router_rejects_every_malformed_run_once() {
    let key = AuthKey::from_seed(97);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let mut cases = malformed_runs();
    cases.push(("addressed off the referee", 1, 5, raw_entries(&[(1, bits(1, 1))])));
    for (i, (what, from, to, payload)) in cases.iter().enumerate() {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut buf = Vec::new();
        let (_, hello) = read_frame(&mut stream, &key, &mut buf);
        let conn_key = key.derive(u64::from(hello.from));
        let session = SessionId(i as u64);
        let announce = Envelope { session, round: 0, from: 0, to: 0, payload: bits(8, 32) };
        stream
            .write_all(&encode_wire_frame(&conn_key, FrameKind::Announce, &announce))
            .unwrap();
        let run =
            Envelope { session, round: 1, from: *from, to: *to, payload: payload.clone() };
        stream.write_all(&encode_wire_frame(&conn_key, FrameKind::Data, &run)).unwrap();
        wait_until(what, || server.metrics().decode_rejects > i as u64);
        assert_closed(&mut stream);
    }
    let stats = server.stop();
    assert_eq!(stats.decode_rejects, cases.len() as u64);
    assert_eq!(stats.frames_received, 2 * cases.len() as u64, "announce + run, each counted");
    assert_eq!((stats.mac_rejects, stats.verdict_frames), (0, 0));
}

/// A registered shard host rejects a malformed uplink run from its
/// coordinator link under the same rule.
#[test]
fn shard_host_rejects_every_malformed_run_once() {
    let key = AuthKey::from_seed(98);
    let host = ShardHost::spawn(key).unwrap();
    let cases = malformed_runs();
    for (i, (what, from, _, payload)) in cases.iter().enumerate() {
        let mut link = TcpStream::connect(host.addr()).unwrap();
        link.write_all(&register_frame(&key, 0, 1, 1)).unwrap();
        let link_key = link_key(&key, 0, 1);
        // Client connection 7's session, at epoch 1.
        let session = SessionId(i as u64);
        let announce =
            Envelope { session, round: 1, from: 7, to: 0, payload: encode_resume(8, 1, 1) };
        link.write_all(&encode_wire_frame(&link_key, FrameKind::Announce, &announce)).unwrap();
        let run = Envelope { session, round: 1, from: *from, to: 7, payload: payload.clone() };
        link.write_all(&encode_wire_frame(&link_key, FrameKind::Data, &run)).unwrap();
        wait_until(what, || host.metrics().decode_rejects > i as u64);
        assert_closed(&mut link);
    }
    let stats = host.stop();
    assert_eq!(stats.decode_rejects, cases.len() as u64);
    assert_eq!(stats.mac_rejects, 0);
}

/// A client: a fake referee answers round 1 with a malformed downlink
/// run. The client's drain rejects it and the session fails fast.
#[test]
fn client_rejects_a_malformed_downlink_run() {
    let key = AuthKey::from_seed(99);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&encode_wire_frame(&key, FrameKind::Hello, &env(0, 5))).unwrap();
        let conn_key = key.derive(5);
        // Two downlinks for node 2 in one run: repeated ids.
        let m = bits(1, 1);
        let payload = raw_entries(&[(2, m.clone()), (2, m)]);
        let run = Envelope { session: SessionId(1), round: 1, from: 0, to: 2, payload };
        stream.write_all(&encode_wire_frame(&conn_key, FrameKind::Data, &run)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut sink = [0u8; 4096];
        while matches!(stream.read(&mut sink), Ok(k) if k > 0) {}
    });
    let timeouts =
        WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_secs(5) };
    let client = FleetClient::connect_with(addr, 1, key, timeouts).unwrap();
    let t0 = Instant::now();
    let g = referee_graph::generators::path(3);
    client
        .run_multiround_session(
            SessionId(1),
            &referee_protocol::multiround::BoruvkaConnectivity,
            &g,
            8,
        )
        .expect_err("a malformed downlink run fails the session");
    assert!(t0.elapsed() < Duration::from_secs(4), "the reject must fail the session fast");
    let stats = client.metrics();
    assert_eq!((stats.decode_rejects, stats.mac_rejects), (1, 0));
    drop(client);
    fake.join().unwrap();
}

/// A client: a fake referee answers round 1 with well-formed downlink
/// runs that break the round's rules — a round-2 run, a node past `n`,
/// node 2 in two runs. Each fails the session well before the verdict
/// deadline with its typed error, and no frame is rejected: the runs
/// decode, so the session's round wait judges them, not the drain.
#[test]
fn client_rejects_downlinks_that_break_the_round() {
    let key = AuthKey::from_seed(101);
    let m = bits(1, 1);
    // One well-formed downlink run of session 1.
    let run = |round: u32, entries: &[(u32, &Message)]| {
        let mut runs = encode_runs(entries.iter().copied());
        assert_eq!(runs.len(), 1);
        runs.remove(0).envelope(SessionId(1), round, RunDirection::Downlink)
    };
    // (what, the runs, Invalid rather than Inconsistent, what the error
    // says)
    let cases = [
        (
            "a round-2 run during round 1",
            vec![run(2, &[(1, &m)])],
            true,
            "round-2 downlink delivered during round 1",
        ),
        ("a run naming node n + 1", vec![run(1, &[(4, &m)])], true, "unexpected frame 0 → 4"),
        (
            "node 2 in two runs of one round",
            vec![run(1, &[(1, &m), (2, &m)]), run(1, &[(2, &m)])],
            false,
            "duplicate downlink for node 2",
        ),
    ];
    for (what, frames, invalid, says) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.write_all(&encode_wire_frame(&key, FrameKind::Hello, &env(0, 5))).unwrap();
            let conn_key = key.derive(5);
            // Answer once the round-1 uplinks arrive: the session's lane
            // is registered by then.
            let mut buf = Vec::new();
            while read_frame(&mut stream, &conn_key, &mut buf).0 != FrameKind::Data {}
            for run in &frames {
                stream.write_all(&encode_wire_frame(&conn_key, FrameKind::Data, run)).unwrap();
            }
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let mut sink = [0u8; 4096];
            while matches!(stream.read(&mut sink), Ok(k) if k > 0) {}
        });
        let timeouts =
            WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_secs(5) };
        let client = FleetClient::connect_with(addr, 1, key, timeouts).unwrap();
        let t0 = Instant::now();
        let g = referee_graph::generators::path(3);
        let err = client
            .run_multiround_session(
                SessionId(1),
                &referee_protocol::multiround::BoruvkaConnectivity,
                &g,
                8,
            )
            .expect_err(what);
        assert!(t0.elapsed() < Duration::from_secs(4), "{what}: must fail the session fast");
        match (invalid, &err) {
            (true, DecodeError::Invalid(msg)) | (false, DecodeError::Inconsistent(msg)) => {
                assert!(msg.contains(says), "{what}: {msg}")
            }
            _ => panic!("{what}: got {err:?}"),
        }
        let stats = client.metrics();
        assert_eq!((stats.decode_rejects, stats.mac_rejects), (0, 0), "{what}");
        drop(client);
        fake.join().unwrap();
    }
}

proptest! {
    /// Authenticated garbage: any payload under any header decodes to a
    /// typed error or to a run the encoder reproduces byte for byte —
    /// never a panic — and a decoded run holds at most one entry per two
    /// payload bits and no more message bits than the payload has.
    #[test]
    fn run_decoder_types_every_authenticated_payload(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        cut in 0usize..8,
        from in 0u32..6,
        to in 0u32..6,
        wide in any::<u32>(),
        widen in 0u8..3,
        downlink in any::<bool>(),
    ) {
        // Small header fields, or one of them anywhere in u32.
        let (from, to) = match widen {
            1 => (wide, to),
            2 => (from, wide),
            _ => (from, to),
        };
        let len_bits = (bytes.len() * 8).saturating_sub(cut);
        let mut bytes = bytes;
        if len_bits % 8 != 0 {
            // Canonical padding: the frame layer rejects anything else
            // before a run is ever decoded.
            let last = bytes.len() - 1;
            bytes[last] &= !(0xffu8 >> (len_bits % 8));
        }
        let payload = Message::from_bits(bytes, len_bits).expect("canonical");
        // Through the frame codec under a valid MAC first.
        let key = AuthKey::from_seed(100);
        let env = Envelope { session: SessionId(1), round: 1, from, to, payload };
        let frame = encode_wire_frame(&key, FrameKind::Data, &env);
        let env = decode_frame(&key, &frame).expect("authentic").expect("whole").envelope;
        let dir = if downlink { RunDirection::Downlink } else { RunDirection::Uplink };
        if let Ok(entries) = decode_run(&env, dir) {
            prop_assert!(!entries.is_empty() && entries.len() <= len_bits / 2);
            let carried: usize = entries.iter().map(|(_, m)| m.len_bits()).sum();
            prop_assert!(carried <= len_bits);
            let runs = encode_runs(entries.iter().map(|(id, m)| (*id, m)));
            prop_assert_eq!(runs.len(), 1);
            prop_assert_eq!(runs[0].count as usize, entries.len());
            prop_assert_eq!(&runs[0].payload, &env.payload);
        }
    }
}
