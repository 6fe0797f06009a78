//! End-to-end accountability: misbehaving wire clients yield
//! self-contained [`EvidenceBundle`]s that any third party can verify
//! against nothing but the base key and the public session parameters —
//! and honest traffic never produces an accusation.
//!
//! The identity pinned here: uplinks travel as MAC'd runs, and an
//! evidence record is the referee's per-node projection of one — the
//! offending entry's per-node body, signed under exactly the
//! per-connection derived key that authenticated the run. Under the
//! honest-referee model that proves what a per-node frame would.

use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::evidence::{
    encode_record_body, verify_bundle, EvidenceBundle, EvidenceRecord, ProvableError,
    SessionParams,
};
use referee_protocol::referee::local_phase;
use referee_protocol::{BitWriter, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::{
    boruvka_connectivity_service, decode_frame, decode_run, encode_runs, encode_wire_frame,
    link_key, link_key_path, AuthKey, FleetClient, FleetServer, FrameKind, RunDirection,
    WIRE_VERSION,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

/// One round-`round` uplink run of `session` carrying `entries`, as a
/// frame MAC'd under `key`.
fn uplink_run(key: &AuthKey, session: u64, round: u32, entries: &[(u32, Message)]) -> Vec<u8> {
    let runs = encode_runs(entries.iter().map(|(from, m)| (*from, m)));
    assert_eq!(runs.len(), 1, "one run");
    let env = runs[0].clone().envelope(SessionId(session), round, RunDirection::Uplink);
    encode_wire_frame(key, FrameKind::Data, &env)
}

/// Complete the per-connection handshake on a raw socket: returns the
/// stream, the connection id the server assigned, and the derived
/// per-connection key everything else is MAC'd under.
fn raw_connect(server: &FleetServer, base: &AuthKey) -> (TcpStream, u32, AuthKey, Vec<u8>) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut buf = Vec::new();
    let (kind, hello) = read_raw_frame(&mut stream, base, &mut buf);
    assert_eq!(kind, FrameKind::Hello);
    let conn = hello.from;
    let key = base.derive(u64::from(conn));
    (stream, conn, key, buf)
}

/// The full client-API loop: equivocation, identical duplicate and
/// out-of-range sender each produce exactly one bundle that verifies
/// standalone against the base key; the identical duplicate accuses
/// nobody (an at-least-once network does that too); and a subsequent
/// honest session adds nothing — no framing.
#[test]
fn sharded_service_ships_verifiable_evidence() {
    let key = AuthKey::from_seed(90);
    let server = FleetServer::spawn_sharded(key, 2).unwrap();
    let client = FleetClient::connect(server.addr(), 1, key).unwrap();
    let g = referee_graph::generators::grid(2, 3);
    let n = g.n();
    let messages = local_phase(&EdgeCountProtocol, &g);
    let honest = || {
        messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m)).collect::<Vec<_>>()
    };

    // Session 10: node 1 speaks twice with *different* payloads.
    let mut equiv = honest();
    let mut w = BitWriter::new();
    w.write_bits(0x2a, 7);
    equiv[1] = (1, Message::from_writer(w));
    assert!(client.verify_session(SessionId(10), n, equiv).is_err());

    // Session 11: node 1's frame arrives twice, bit-identical.
    let mut dup = honest();
    dup[1] = dup[0].clone();
    assert!(client.verify_session(SessionId(11), n, dup).is_err());

    // Session 12: node 1's slot taken by an out-of-range stray.
    let mut oor = honest();
    oor[0] = (n as u32 + 7, messages[0].clone());
    assert!(client.verify_session(SessionId(12), n, oor).is_err());

    // Session 13: honest — must verify and must not grow the log.
    client.verify_session(SessionId(13), n, honest()).expect("honest session");

    let bundles = server.evidence();
    assert_eq!(bundles.len(), 3, "one bundle per misbehaving session");
    let find = |session: u64| {
        bundles
            .iter()
            .find(|b| b.records[0].parse().unwrap().session == session)
            .unwrap_or_else(|| panic!("no bundle for session {session}"))
    };
    let params = |session: u64| SessionParams { session, n: n as u32, round_cap: 1 };

    let equiv = find(10);
    assert_eq!(equiv.error, ProvableError::Equivocation);
    let att =
        verify_bundle(key.mac_key(), &params(10), equiv).expect("standalone verification");
    assert_eq!(att.culprit, equiv.accused);
    let culprit = att.culprit.expect("equivocation is attributable");

    let dup = find(11);
    assert_eq!(dup.error, ProvableError::DuplicateSender);
    let att = verify_bundle(key.mac_key(), &params(11), dup).expect("standalone verification");
    assert_eq!(att.culprit, None, "an identical duplicate must accuse nobody");
    assert_eq!(dup.accused, None);

    let oor = find(12);
    assert_eq!(oor.error, ProvableError::OutOfRangeSender);
    let att = verify_bundle(key.mac_key(), &params(12), oor).expect("standalone verification");
    assert_eq!(att.culprit, Some(culprit), "same connection, same proven principal");

    // A mutated bundle must not verify: flip one payload byte and the
    // MAC check kills it.
    let mut forged = equiv.clone();
    let last = forged.records[1].body.len() - 1;
    forged.records[1].body[last] ^= 1;
    assert!(verify_bundle(key.mac_key(), &params(10), &forged).is_err(), "forgery verified");

    // The bundles crossed the wire coordinator-ward too: the client
    // decoded the same three off its connection.
    let client_bundles = client.evidence();
    assert_eq!(client_bundles.len(), 3);
    for b in &client_bundles {
        let session = b.records[0].parse().unwrap().session;
        verify_bundle(key.mac_key(), &params(session), b).expect("client-side bundle verifies");
    }

    let stats = server.stop();
    assert_eq!(stats.evidence_bundles, 3);
}

/// The identity at the heart of attributability, pinned bit-for-bit on
/// a real socket: the record for an offending entry of a client's run
/// is that entry's per-node body, and its tag (signed via the
/// derived-key path `[conn]`) is a tag under the very key that
/// authenticated the run. A wrong-round uplink inside a run then comes
/// back as a bundle carrying exactly that record.
#[test]
fn evidence_record_is_the_per_node_projection_of_the_run() {
    let base = AuthKey::from_seed(91);
    let server = FleetServer::spawn_sharded(base, 2).unwrap();
    let (mut stream, conn, key, mut buf) = raw_connect(&server, &base);

    // Announce a size-4 one-round session.
    let mut w = BitWriter::new();
    w.write_bits(4, 32);
    let announce = Envelope {
        session: SessionId(7),
        round: 0,
        from: 0,
        to: 0,
        payload: Message::from_writer(w),
    };
    stream.write_all(&encode_wire_frame(&key, FrameKind::Announce, &announce)).unwrap();

    // An uplink run stamped round 3 — impossible in a one-round service.
    let mut w = BitWriter::new();
    w.write_bits(5, 6);
    let payload = Message::from_writer(w);
    let frame = uplink_run(&key, 7, 3, &[(2, payload.clone())]);
    // The run authenticates under the connection key and carries the
    // entry.
    let run = decode_frame(&key, &frame).unwrap().expect("one whole frame").envelope;
    assert_eq!(decode_run(&run, RunDirection::Uplink), Ok(vec![(2, payload.clone())]));

    // The record is the entry's per-node body, signed under the key
    // path [conn], which folds to that same connection key.
    let body = encode_record_body(WIRE_VERSION, FrameKind::Data as u8, 7, 3, 2, 0, &payload);
    let rec = EvidenceRecord::sign(base.mac_key(), vec![u64::from(conn)], body.clone());
    assert_eq!(rec.tag, key.tag(&body), "the record key is not the connection key");
    assert!(rec.verify(base.mac_key()));

    stream.write_all(&frame).unwrap();
    let bundle = loop {
        let (kind, env) = read_raw_frame(&mut stream, &key, &mut buf);
        if kind == FrameKind::Evidence {
            assert_eq!(env.from, conn, "evidence frame names the accused");
            break EvidenceBundle::decode(&env.payload).expect("bundle decodes");
        }
    };
    assert_eq!(bundle.error, ProvableError::WrongRound);
    assert_eq!(bundle.accused, Some(conn));
    assert_eq!(bundle.records.len(), 1);
    assert_eq!(bundle.records[0], rec, "the bundle carries the entry's per-node record");

    let params = SessionParams { session: 7, n: 4, round_cap: 1 };
    let att = verify_bundle(base.mac_key(), &params, &bundle).expect("standalone verification");
    assert_eq!(att.culprit, Some(conn));

    // The wrong stamp also poisons the round: the verdict follows at
    // once, carrying the rejection bit, although nodes 1, 3 and 4 never
    // speak.
    let verdict = loop {
        let (kind, env) = read_raw_frame(&mut stream, &key, &mut buf);
        if kind == FrameKind::Verdict {
            break env;
        }
    };
    assert_eq!(verdict.session, SessionId(7));
    assert!(!verdict.payload.reader().read_bit().unwrap(), "a wrong round must reject");

    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().evidence_bundles == 0 {
        assert!(Instant::now() < deadline, "server never logged the bundle");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.stop();
}

/// The placement key schedule composes with the evidence layer: a
/// frame captured under a superseded registration generation, paired
/// with a context record from the live generation, is a verifiable
/// [`ProvableError::StaleReplay`] — unattributable by design (anyone
/// who captured the old frame can replay it) — and the shape rules
/// refuse same-generation pairs, sibling-shard pairs, and swapped
/// order, so the fence cannot be abused to manufacture accusations.
#[test]
fn stale_generation_replay_is_provable_under_the_placement_schedule() {
    let base = AuthKey::from_seed(93);
    let (session, shard) = (21u64, 1usize);
    let uplink_body = |round: u32, from: u32, bits: u64| {
        let mut w = BitWriter::new();
        w.write_bits(bits, 9);
        encode_record_body(
            WIRE_VERSION,
            FrameKind::Data as u8,
            session,
            round,
            from,
            0,
            &Message::from_writer(w),
        )
    };

    // Pin the path ≡ key identity first: signing under the evidence
    // path is signing under `link_key` itself.
    let stale =
        EvidenceRecord::sign(base.mac_key(), link_key_path(shard, 1), uplink_body(1, 3, 5));
    assert_eq!(
        stale.tag,
        referee_protocol::mac::siphash24(link_key(&base, shard, 1).mac_key(), &stale.body),
        "link_key_path does not reproduce link_key's MAC"
    );

    let context =
        EvidenceRecord::sign(base.mac_key(), link_key_path(shard, 2), uplink_body(1, 4, 6));
    let bundle = EvidenceBundle {
        error: ProvableError::StaleReplay,
        accused: None,
        records: vec![stale.clone(), context.clone()],
    };
    let params = SessionParams { session, n: 6, round_cap: 4 };
    let att = verify_bundle(base.mac_key(), &params, &bundle).expect("stale replay verifies");
    assert_eq!(att.culprit, None, "a replay must accuse nobody");

    // Round-trip through the self-contained byte form.
    let reloaded = EvidenceBundle::from_bytes(&bundle.to_bytes()).expect("bytes round-trip");
    assert_eq!(reloaded, bundle);
    verify_bundle(base.mac_key(), &params, &reloaded).expect("reloaded bundle verifies");

    // Same generation on both records: nothing is stale.
    let peer =
        EvidenceRecord::sign(base.mac_key(), link_key_path(shard, 1), uplink_body(1, 4, 6));
    let same = EvidenceBundle {
        error: ProvableError::StaleReplay,
        accused: None,
        records: vec![stale.clone(), peer],
    };
    assert!(verify_bundle(base.mac_key(), &params, &same).is_err());

    // Context from a *sibling shard's* schedule: paths diverge before
    // the generation element, so the pair proves nothing.
    let sibling =
        EvidenceRecord::sign(base.mac_key(), link_key_path(shard + 1, 2), uplink_body(1, 4, 6));
    let cross = EvidenceBundle {
        error: ProvableError::StaleReplay,
        accused: None,
        records: vec![stale.clone(), sibling],
    };
    assert!(verify_bundle(base.mac_key(), &params, &cross).is_err());

    // Swapped order claims the *newer* record is the replay.
    let swapped = EvidenceBundle {
        error: ProvableError::StaleReplay,
        accused: None,
        records: vec![context, stale],
    };
    assert!(verify_bundle(base.mac_key(), &params, &swapped).is_err());
}

/// The multi-round service emits the same bundles: an out-of-range
/// uplink against a catalog server (announced with the legacy bare-`n`
/// payload, selecting entry 0) ships an `OutOfRangeSender` proof before
/// the session is judged.
#[test]
fn multiround_service_emits_out_of_range_evidence() {
    let base = AuthKey::from_seed(92);
    let server =
        FleetServer::spawn_multiround(base, 2, boruvka_connectivity_service()).unwrap();
    let (mut stream, conn, key, mut buf) = raw_connect(&server, &base);

    let mut w = BitWriter::new();
    w.write_bits(4, 32);
    let announce = Envelope {
        session: SessionId(5),
        round: 0,
        from: 0,
        to: 0,
        payload: Message::from_writer(w),
    };
    stream.write_all(&encode_wire_frame(&key, FrameKind::Announce, &announce)).unwrap();

    // Sender 9 of a 4-node session: provably out of range on its own.
    stream.write_all(&uplink_run(&key, 5, 1, &[(9, Message::empty())])).unwrap();

    let bundle = loop {
        let (kind, env) = read_raw_frame(&mut stream, &key, &mut buf);
        if kind == FrameKind::Evidence {
            break EvidenceBundle::decode(&env.payload).expect("bundle decodes");
        }
    };
    assert_eq!(bundle.error, ProvableError::OutOfRangeSender);
    assert_eq!(bundle.accused, Some(conn));
    let params = SessionParams { session: 5, n: 4, round_cap: 20 };
    let att = verify_bundle(base.mac_key(), &params, &bundle).expect("standalone verification");
    assert_eq!(att.culprit, Some(conn));

    drop(stream);
    server.stop();
}

/// A round-0 uplink can never be an honest multi-round uplink: the
/// service ships a `WrongRound` proof and, because the stamp poisons
/// the round being collected, judges the session at once instead of
/// absorbing the frame as a straggler.
#[test]
fn multiround_service_rejects_round_zero_uplink_fast() {
    let base = AuthKey::from_seed(94);
    let server =
        FleetServer::spawn_multiround(base, 2, boruvka_connectivity_service()).unwrap();
    let (mut stream, conn, key, mut buf) = raw_connect(&server, &base);

    let mut w = BitWriter::new();
    w.write_bits(4, 32);
    let announce = Envelope {
        session: SessionId(6),
        round: 0,
        from: 0,
        to: 0,
        payload: Message::from_writer(w),
    };
    stream.write_all(&encode_wire_frame(&key, FrameKind::Announce, &announce)).unwrap();
    let opened = Instant::now();
    stream.write_all(&uplink_run(&key, 6, 0, &[(2, Message::empty())])).unwrap();

    let mut bundles = Vec::new();
    let verdict = loop {
        let (kind, env) = read_raw_frame(&mut stream, &key, &mut buf);
        match kind {
            FrameKind::Evidence => {
                bundles.push(EvidenceBundle::decode(&env.payload).expect("bundle decodes"))
            }
            FrameKind::Verdict => break env,
            other => panic!("unexpected {other:?} frame awaiting the verdict"),
        }
    };
    assert!(opened.elapsed() < Duration::from_secs(2), "verdict took {:?}", opened.elapsed());
    assert!(!verdict.payload.reader().read_bit().unwrap(), "a round-0 uplink must reject");
    assert_eq!(bundles.len(), 1);
    assert_eq!(bundles[0].error, ProvableError::WrongRound);
    assert_eq!(bundles[0].accused, Some(conn));
    let params = SessionParams { session: 6, n: 4, round_cap: 20 };
    let att =
        verify_bundle(base.mac_key(), &params, &bundles[0]).expect("standalone verification");
    assert_eq!(att.culprit, Some(conn));

    drop(stream);
    server.stop();
}
