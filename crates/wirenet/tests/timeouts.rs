//! Wire-deadline regression tests: a stalled or silent server must
//! surface as an **error within the configured deadline**, never as a
//! hang. The deadlines are client configuration ([`WireTimeouts`],
//! 10 s Hello / 30 s verdict by default), passed per
//! [`FleetClient::connect_with`], so these tests can narrow them to
//! prove the bound is real.

use referee_graph::{generators, LabelledGraph};
use referee_protocol::multiround::BoruvkaConnectivity;
use referee_protocol::{BitWriter, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::{encode_wire_frame, AuthKey, FleetClient, FrameKind, WireTimeouts};
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server that accepts but never speaks: `connect` must fail with
/// `TimedOut` once the (short) Hello deadline passes, instead of
/// blocking for the default 10 s.
#[test]
fn silent_server_trips_the_hello_deadline() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Never accepted, never spoken to — the TCP handshake still
    // completes out of the listen backlog, so the client reaches the
    // Hello wait.
    let timeouts =
        WireTimeouts { hello: Duration::from_millis(200), verdict: Duration::from_secs(30) };
    let t0 = Instant::now();
    let err = FleetClient::connect_with(addr, 1, AuthKey::from_seed(40), timeouts).unwrap_err();
    let elapsed = t0.elapsed();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut, "{err}");
    assert!(elapsed >= Duration::from_millis(200), "returned before the deadline");
    assert!(elapsed < Duration::from_secs(5), "deadline not honoured: {elapsed:?}");
    drop(listener);
}

/// A server that completes the Hello handshake like a real one (Hello
/// under the base key, naming connection 1) and then stalls: it
/// discards whatever arrives and answers nothing, but keeps the
/// connection open until the client closes it (or 20 s pass), so the
/// client cannot blame a dead socket. Returns the address and the
/// stalling thread, which ends once the client is dropped.
fn stalled_server(key: AuthKey) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let hello = Envelope {
            session: SessionId(0),
            round: 0,
            from: 1,
            to: 0,
            payload: Message::empty(),
        };
        stream.write_all(&encode_wire_frame(&key, FrameKind::Hello, &hello)).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let _ = std::io::copy(&mut stream, &mut std::io::sink());
    });
    (addr, stall)
}

/// A server that completes the Hello handshake and then stalls forever:
/// `verify_session` must error once the (short) verdict deadline
/// passes — the old fixed 30 s wait is now configurable, and the bound
/// is proven tight here.
#[test]
fn stalled_server_trips_the_verdict_deadline() {
    let key = AuthKey::from_seed(41);
    let (addr, stall) = stalled_server(key);

    let timeouts =
        WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_millis(300) };
    let client = FleetClient::connect_with(addr, 1, key, timeouts).unwrap();
    let msg = |v: u64| {
        let mut w = BitWriter::new();
        w.write_bits(v, 8);
        Message::from_writer(w)
    };
    let t0 = Instant::now();
    let err = client
        .verify_session(SessionId(1), 2, vec![(1, msg(1)), (2, msg(2))])
        .expect_err("a stalled server must not verify anything");
    let elapsed = t0.elapsed();
    assert!(format!("{err}").contains("deadline"), "expected a deadline error, got: {err}");
    assert!(elapsed >= Duration::from_millis(300), "returned before the deadline");
    assert!(elapsed < Duration::from_secs(10), "deadline not honoured: {elapsed:?}");
    drop(client);
    stall.join().unwrap();
}

/// The same stalled server bounds every multi-round session's round
/// wait: a Borůvka session (its round-1 downlinks never come) and an
/// empty network (its verdict never comes) each error once the
/// (short) deadline passes.
#[test]
fn stalled_server_trips_the_round_deadline() {
    let key = AuthKey::from_seed(42);
    let (addr, stall) = stalled_server(key);

    let timeouts =
        WireTimeouts { hello: Duration::from_secs(5), verdict: Duration::from_millis(300) };
    let client = FleetClient::connect_with(addr, 1, key, timeouts).unwrap();
    for (id, g) in [(1, generators::path(4)), (2, LabelledGraph::new(0))] {
        let t0 = Instant::now();
        let err = client
            .run_multiround_session(SessionId(id), &BoruvkaConnectivity, &g, 64)
            .expect_err("a stalled server must not judge anything");
        let elapsed = t0.elapsed();
        let n = g.n();
        assert!(
            format!("{err}").contains("deadline"),
            "n = {n}: expected a deadline error: {err}"
        );
        assert!(elapsed >= Duration::from_millis(300), "n = {n}: returned before the deadline");
        assert!(
            elapsed < Duration::from_secs(10),
            "n = {n}: deadline not honoured: {elapsed:?}"
        );
    }
    drop(client);
    stall.join().unwrap();
}
