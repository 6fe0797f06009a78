//! Legacy announce compatibility: a **bare 32-bit-n** `Announce` (the
//! exact wire bytes pre-catalog clients sent) must keep selecting
//! catalog entry 0 and produce bit-for-bit the verdict a name-selected
//! entry-0 session gets — while malformed announces (truncated name,
//! name no catalog can hold, a network size past the server's limit)
//! fail closed instead of hanging.

use referee_protocol::combinators::OneRoundAsMultiRound;
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::{
    decode_frame, encode_bool_output, encode_wire_frame, AuthKey, FleetClient, FleetServer,
    FrameKind, ServiceCatalog, MAX_SERVICE_NAME_BYTES, MAX_SESSION_NODES,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const CAP: usize = 64;

fn encode_count(out: &Result<usize, DecodeError>) -> Message {
    let mut w = BitWriter::new();
    match out {
        Ok(v) => {
            w.push_bit(true);
            w.write_bits(*v as u64, 32);
        }
        Err(_) => w.push_bit(false),
    }
    Message::from_writer(w)
}

/// Entry 0 is Borůvka — the "legacy single-service deployment" a bare
/// announce must keep reaching; entry 1 exists so selection is real.
fn test_catalog() -> ServiceCatalog {
    ServiceCatalog::new().register("boruvka", BoruvkaConnectivity, encode_bool_output).register(
        "edge-count",
        OneRoundAsMultiRound(EdgeCountProtocol),
        encode_count,
    )
}

/// Blocking raw-socket read: accumulate bytes until one frame decodes,
/// or `None` once the server closes the connection.
fn read_raw_frame(
    stream: &mut TcpStream,
    key: &AuthKey,
    buf: &mut Vec<u8>,
) -> Option<(FrameKind, Envelope)> {
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(Some(d)) = decode_frame(key, buf) {
            buf.drain(..d.consumed);
            return Some((d.kind, d.envelope));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(_) => return None,
        }
    }
}

fn raw_connect(server: &FleetServer, base: &AuthKey) -> (TcpStream, AuthKey, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut buf = Vec::new();
    let (kind, hello) = read_raw_frame(&mut stream, base, &mut buf).expect("hello");
    assert_eq!(kind, FrameKind::Hello);
    let key = base.derive(u64::from(hello.from));
    (stream, key, buf)
}

/// Announce with an arbitrary raw payload and return the session's
/// verdict payload (n = 0 sessions are judged straight from announce).
fn announce_and_await_verdict(
    stream: &mut TcpStream,
    key: &AuthKey,
    buf: &mut Vec<u8>,
    session: u64,
    payload: Message,
) -> Message {
    let announce = Envelope { session: SessionId(session), round: 0, from: 0, to: 0, payload };
    stream.write_all(&encode_wire_frame(key, FrameKind::Announce, &announce)).unwrap();
    loop {
        let (kind, env) = read_raw_frame(stream, key, buf).expect("verdict before close");
        if kind == FrameKind::Verdict {
            assert_eq!(env.session.0, session);
            return env.payload;
        }
    }
}

fn bare_announce(n: u64) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(n, 32);
    Message::from_writer(w)
}

fn named_announce(n: u64, name: &str) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(n, 32);
    w.write_bits(name.len() as u64, 8);
    for b in name.bytes() {
        w.write_bits(u64::from(b), 8);
    }
    Message::from_writer(w)
}

/// The compat pin, raw wire level: a bare-n announce (exactly 32 bits,
/// the pre-catalog format) and a `"boruvka"`-named announce produce
/// **bit-for-bit** the same entry-0 verdict; and the high-level legacy
/// client API (`run_multiround_session`, no name) matches the named
/// entry-0 API on a real session.
#[test]
fn bare_n_announce_selects_entry_zero_bit_for_bit() {
    let base = AuthKey::from_seed(61);
    let server =
        FleetServer::builder(base).shards(2).catalog(test_catalog()).spawn().expect("bind");

    // Raw wire: n = 0 sessions are judged straight from the announce,
    // so the verdict isolates exactly the service-selection path.
    let (mut stream, key, mut buf) = raw_connect(&server, &base);
    let bare = announce_and_await_verdict(&mut stream, &key, &mut buf, 1, bare_announce(0));
    let named = announce_and_await_verdict(
        &mut stream,
        &key,
        &mut buf,
        2,
        named_announce(0, "boruvka"),
    );
    assert_eq!(
        (bare.len_bits(), bare.as_bytes()),
        (named.len_bits(), named.as_bytes()),
        "bare-n verdict differs from the named entry-0 verdict"
    );
    drop(stream);

    // High-level: the un-named legacy client API on a real graph equals
    // the name-selected entry-0 session bit for bit.
    let client = FleetClient::connect(server.addr(), 1, base).expect("connect");
    let g = referee_graph::generators::grid(3, 3);
    let legacy = client
        .run_multiround_session(SessionId(100), &BoruvkaConnectivity, &g, CAP)
        .expect("legacy session");
    let named = client
        .run_multiround_session_as(SessionId(101), "boruvka", &BoruvkaConnectivity, &g, CAP)
        .expect("named session");
    assert_eq!(
        (legacy.len_bits(), legacy.as_bytes()),
        (named.len_bits(), named.as_bytes()),
        "legacy client API diverged from named entry 0"
    );

    let stats = server.stop();
    assert_eq!(stats.mac_rejects, 0);
    assert_eq!(stats.decode_rejects, 0, "every announce above is well-formed");
}

/// A truncated name — length prefix promising more bytes than the
/// payload holds — is undecodable: the router rejects it and closes the
/// connection, exactly like any other malformed frame.
#[test]
fn truncated_name_announce_closes_the_connection() {
    let base = AuthKey::from_seed(62);
    let server =
        FleetServer::builder(base).shards(1).catalog(test_catalog()).spawn().expect("bind");
    let (mut stream, key, mut buf) = raw_connect(&server, &base);

    let mut w = BitWriter::new();
    w.write_bits(3, 32);
    w.write_bits(7, 8); // promises 7 name bytes...
    w.write_bits(u64::from(b'b'), 8); // ...delivers 1
    let announce = Envelope {
        session: SessionId(1),
        round: 0,
        from: 0,
        to: 0,
        payload: Message::from_writer(w),
    };
    stream.write_all(&encode_wire_frame(&key, FrameKind::Announce, &announce)).unwrap();

    assert!(
        read_raw_frame(&mut stream, &key, &mut buf).is_none(),
        "a malformed announce must close the connection, not answer"
    );
    let stats = server.stop();
    assert_eq!(stats.decode_rejects, 1);
}

/// Oversize names fail closed at both ends. The wire's 8-bit length
/// field tops out at [`MAX_SERVICE_NAME_BYTES`], so a longer name is
/// *unencodable* — the client API rejects it with a typed error before
/// anything is announced. A max-length name the catalog doesn't know
/// does reach the server and comes back as a typed error verdict, with
/// the connection still usable afterwards.
#[test]
fn oversize_name_announce_fails_closed_with_typed_verdict() {
    let base = AuthKey::from_seed(63);
    let server =
        FleetServer::builder(base).shards(1).catalog(test_catalog()).spawn().expect("bind");

    // Server side: the longest name the wire can carry, unknown to the
    // catalog — typed rejection verdict, not a hang or a close.
    let (mut stream, key, mut buf) = raw_connect(&server, &base);
    let unknown = "x".repeat(MAX_SERVICE_NAME_BYTES);
    let verdict =
        announce_and_await_verdict(&mut stream, &key, &mut buf, 1, named_announce(0, &unknown));
    // Typed rejection: leading 0 bit, then the 2-bit error class.
    let mut r = verdict.reader();
    assert!(!r.read_bit().unwrap(), "unknown max-length name must reject, got an Ok verdict");

    // The connection survived: a bare legacy announce still verifies.
    let ok = announce_and_await_verdict(&mut stream, &key, &mut buf, 2, bare_announce(0));
    let mut r = ok.reader();
    assert!(r.read_bit().unwrap(), "entry-0 session after the rejection must succeed");
    drop(stream);

    // Client side: one byte past the wire limit never leaves the
    // process — typed error, no session announced.
    let client = FleetClient::connect(server.addr(), 1, base).expect("connect");
    let g = referee_graph::generators::grid(2, 2);
    let oversize = "x".repeat(MAX_SERVICE_NAME_BYTES + 1);
    let err = client
        .run_multiround_session_as(SessionId(3), &oversize, &BoruvkaConnectivity, &g, CAP)
        .expect_err("an unencodable name must fail closed client-side");
    assert!(matches!(err, DecodeError::Invalid(_)), "typed rejection expected, got {err:?}");

    server.stop();
}

/// A client-claimed `n` must not size server memory: an announce past
/// [`MAX_SESSION_NODES`] — up to the 32-bit field's maximum — comes back
/// at once as a typed `Invalid` verdict, for the one-round digest
/// service and a catalog alike, and the connection keeps serving other
/// sessions afterwards.
#[test]
fn oversize_network_announce_fails_closed_with_typed_verdict() {
    let base = AuthKey::from_seed(64);
    let digest = FleetServer::spawn_sharded(base, 2).expect("bind");
    let catalog =
        FleetServer::builder(base).shards(2).catalog(test_catalog()).spawn().expect("bind");
    for server in [digest, catalog] {
        let (mut stream, key, mut buf) = raw_connect(&server, &base);
        for (session, n) in [(1, u64::from(u32::MAX)), (2, MAX_SESSION_NODES as u64 + 1)] {
            let verdict = announce_and_await_verdict(
                &mut stream,
                &key,
                &mut buf,
                session,
                bare_announce(n),
            );
            let mut r = verdict.reader();
            assert!(!r.read_bit().unwrap(), "n = {n} must reject, got an Ok verdict");
            assert_eq!(r.read_bits(2).unwrap(), 3, "n = {n}: expected the Invalid class");
        }
        // The connection survived: an n = 0 session is judged at once.
        let ok = announce_and_await_verdict(&mut stream, &key, &mut buf, 3, bare_announce(0));
        assert!(ok.reader().read_bit().unwrap(), "n = 0 session after the rejections");
        drop(stream);
        let stats = server.stop();
        assert_eq!(stats.decode_rejects, 2, "one reject per oversize announce");
    }
}
