//! Accountable referee service under seeded byzantine clients, over
//! real loopback TCP — the attributable-misbehavior acceptance demo.
//!
//! For each shard count `k ∈ {1, 2, 4, 8}` the example runs one
//! sharded [`FleetServer`] per network size — a 6-node grid, which
//! every `k` runs unsplit on shard 0, and an `8 · MIN_RANGE_NODES`-node
//! grid, which `k` shards split `k` ways, so violations land in every
//! range — and throws two populations at it:
//!
//! - **honest sessions** driven through the ordinary [`FleetClient`]
//!   API — every one must verify, and none may ever be accused;
//! - **byzantine clients** speaking the raw wire protocol on their own
//!   sockets, each committing a seeded provable violation per session
//!   (equivocation or bit-identical duplicate by a seeded sender, or an
//!   out-of-range sender).
//!
//! The gates, enforced with `assert!` so CI fails loudly:
//!
//! 1. **Completeness** — every byzantine session ends with at least one
//!    [`EvidenceBundle`] that `verify_bundle` accepts, and every
//!    *attributable* violation (equivocation, out-of-range) is pinned
//!    on the byzantine connection that committed it.
//! 2. **No-framing** — across every seed and shard count, no bundle
//!    ever attributes an honest connection; identical duplicates
//!    (which an at-least-once network can produce without malice)
//!    accuse nobody.
//! 3. **Forgery rejection** — every emitted bundle, bit-flipped in
//!    body or tag, fails `verify_bundle`.
//!
//! Each bundle the server retains is also written to
//! `EVIDENCE_<k>_<i>.bin` (gamma-coded, self-contained) when
//! `REFEREE_EVIDENCE_DIR` names a directory — CI uploads these as
//! artifacts, and `verify_bundle` can re-check them offline with
//! nothing but the base key.
//!
//! Run: `cargo run --release --example byzantine_fleet`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use referee_one_round::protocol::easy::EdgeCountProtocol;
use referee_one_round::protocol::evidence::{
    verify_bundle, EvidenceBundle, ProvableError, SessionParams,
};
use referee_one_round::protocol::referee::local_phase;
use referee_one_round::protocol::shard::{
    effective_shards, nonempty_shards, shard_of, MIN_RANGE_NODES,
};
use referee_one_round::protocol::{BitWriter, Message};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::{
    decode_frame, encode_runs, encode_wire_frame, AuthKey, FleetClient, FleetServer, FrameKind,
    RunDirection,
};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 0xbad_c0de;
const BYZ_SESSIONS_PER_CONN: usize = 12;
const BYZ_CONNS: usize = 2;
const HONEST_SESSIONS: usize = 24;

/// Blocking raw-socket read: accumulate bytes until one frame decodes.
fn read_raw_frame(
    stream: &mut TcpStream,
    key: &AuthKey,
    buf: &mut Vec<u8>,
) -> (FrameKind, Envelope) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
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

fn msg(bits: u64, width: u32) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(bits, width);
    Message::from_writer(w)
}

/// One byzantine session: its id, the violation, the in-range sender
/// that committed it (0 for an out-of-range one) and the bundles the
/// server shipped back before the verdict.
type ByzSession = (u64, ProvableError, u32, Vec<EvidenceBundle>);

/// One byzantine client: raw handshake, then `BYZ_SESSIONS_PER_CONN`
/// sessions each committing one seeded violation. Returns the
/// connection id and its sessions.
fn run_byzantine_conn(
    server: &FleetServer,
    base: &AuthKey,
    n: usize,
    session0: u64,
    rng: &mut StdRng,
) -> (u32, Vec<ByzSession>) {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut buf = Vec::new();
    let (kind, hello) = read_raw_frame(&mut stream, base, &mut buf);
    assert_eq!(kind, FrameKind::Hello);
    let conn = hello.from;
    let key = base.derive(u64::from(conn));

    let mut outcomes = Vec::new();
    for s in 0..BYZ_SESSIONS_PER_CONN as u64 {
        let session = SessionId(session0 + s);
        let announce =
            Envelope { session, round: 0, from: 0, to: 0, payload: msg(n as u64, 32) };
        stream.write_all(&encode_wire_frame(&key, FrameKind::Announce, &announce)).unwrap();

        // Each uplink goes out as a run of one.
        let uplink = |from: u32, payload: Message| {
            let run = encode_runs([(from, &payload)]).remove(0);
            let env = run.envelope(session, 1, RunDirection::Uplink);
            encode_wire_frame(&key, FrameKind::Data, &env)
        };
        let sender = rng.gen_range(1..=n as u32);
        let (violation, sender) = match rng.gen_range(0u32..3) {
            0 => {
                // Equivocation: the sender speaks twice, differently.
                stream.write_all(&uplink(sender, msg(3, 5))).unwrap();
                stream.write_all(&uplink(sender, msg(9, 5))).unwrap();
                (ProvableError::Equivocation, sender)
            }
            1 => {
                // Bit-identical duplicate: provable, but accuses nobody.
                let frame = uplink(sender, msg(3, 5));
                stream.write_all(&frame).unwrap();
                stream.write_all(&frame).unwrap();
                (ProvableError::DuplicateSender, sender)
            }
            _ => {
                // Out-of-range sender.
                let stray = n as u32 + rng.gen_range(1u32..9);
                stream.write_all(&uplink(stray, msg(3, 5))).unwrap();
                (ProvableError::OutOfRangeSender, 0)
            }
        };

        // Every violation above poisons the session: the referee judges
        // fast, shipping evidence (FIFO per connection) ahead of the
        // verdict.
        let mut bundles = Vec::new();
        loop {
            let (kind, env) = read_raw_frame(&mut stream, &key, &mut buf);
            match kind {
                FrameKind::Evidence => {
                    bundles.push(EvidenceBundle::decode(&env.payload).expect("bundle decodes"));
                }
                FrameKind::Verdict => break,
                other => panic!("unexpected {other:?} frame awaiting the verdict"),
            }
        }
        outcomes.push((session.0, violation, sender, bundles));
    }
    (conn, outcomes)
}

fn main() {
    let evidence_dir = std::env::var("REFEREE_EVIDENCE_DIR").ok();
    let grids = [
        referee_one_round::graph::generators::grid(2, 3),
        referee_one_round::graph::generators::grid(8, MIN_RANGE_NODES),
    ];
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut total_bundles = 0usize;
    let mut total_attributed = 0usize;
    let mut dumped = 0usize;

    for &k in &[1usize, 2, 4, 8] {
        for g in &grids {
            let n = g.n();
            let messages = local_phase(&EdgeCountProtocol, g);
            let ranges = nonempty_shards(n, effective_shards(n, k));
            let key = AuthKey::from_seed(SEED ^ k as u64 ^ ((n as u64) << 8));
            let server = FleetServer::spawn_sharded(key, k).expect("bind loopback");

            // Byzantine population first (ids disjoint from the honest ids).
            let mut byz_conns = HashSet::new();
            let mut outcomes = Vec::new();
            for c in 0..BYZ_CONNS {
                let (conn, runs) = run_byzantine_conn(
                    &server,
                    &key,
                    n,
                    (1000 * (c as u64 + 1)) + k as u64 * 100_000,
                    &mut rng,
                );
                byz_conns.insert(conn);
                outcomes.extend(runs);
            }
            // Violations by a sender outside range 0 cross ranges: the
            // range that saw them poisons the collector's round.
            let crossing = outcomes
                .iter()
                .filter(|(_, _, v, _)| *v > 0 && shard_of(n, ranges, *v) > 0)
                .count();
            assert_eq!(crossing > 0, ranges > 1, "k={k} n={n}: {crossing} cross-range");

            // Honest population: every session must verify, each handing
            // the collector one partial per other range.
            let before = server.metrics();
            let client = FleetClient::connect(server.addr(), 2, key).expect("connect");
            for i in 0..HONEST_SESSIONS {
                let arrivals =
                    messages.iter().cloned().enumerate().map(|(j, m)| (j as u32 + 1, m));
                client
                    .verify_session(SessionId(i as u64), n, arrivals)
                    .unwrap_or_else(|e| panic!("honest session {i} rejected at k={k}: {e}"));
            }
            let honest = server.metrics().delta(&before);
            assert_eq!(honest.partial_frames as usize, HONEST_SESSIONS * (ranges - 1));

            // Gate 1: completeness. Every byzantine session produced at
            // least one bundle, every bundle verifies standalone, and the
            // attributable violations name the byzantine connection.
            for (session, violation, _, bundles) in &outcomes {
                assert!(
                    !bundles.is_empty(),
                    "k={k}: byzantine session {session} ({violation:?}) produced no evidence"
                );
                let params = SessionParams { session: *session, n: n as u32, round_cap: 1 };
                for bundle in bundles {
                    assert_eq!(bundle.error, *violation, "k={k} session {session}");
                    let att =
                        verify_bundle(key.mac_key(), &params, bundle).unwrap_or_else(|e| {
                            panic!("k={k} session {session}: bundle fails: {e}")
                        });
                    if violation.attributable() {
                        let culprit = att.culprit.expect("attributable violation");
                        assert!(
                            byz_conns.contains(&culprit),
                            "k={k} session {session}: accused {culprit} is not byzantine — \
                             FRAMING"
                        );
                        total_attributed += 1;
                    } else {
                        assert_eq!(att.culprit, None, "a duplicate must accuse nobody");
                    }
                }
                total_bundles += bundles.len();
            }

            // Gate 2: no-framing, server-side. Every retained bundle's
            // accused (if any) is a byzantine connection.
            let retained = server.evidence();
            for bundle in &retained {
                if let Some(accused) = bundle.accused {
                    assert!(
                        byz_conns.contains(&accused),
                        "k={k}: server log accuses honest connection {accused} — FRAMING"
                    );
                }
            }

            // Gate 3: forgery rejection. Bit-flip every bundle in body and
            // tag; both mutations must fail verification.
            for (session, _, _, bundles) in &outcomes {
                let params = SessionParams { session: *session, n: n as u32, round_cap: 1 };
                for bundle in bundles {
                    let mut body_flip = bundle.clone();
                    let last = body_flip.records[0].body.len() - 1;
                    body_flip.records[0].body[last] ^= 0x01;
                    assert!(
                        verify_bundle(key.mac_key(), &params, &body_flip).is_err(),
                        "k={k} session {session}: body-flipped bundle verified"
                    );
                    let mut tag_flip = bundle.clone();
                    tag_flip.records[0].tag ^= 0x8000_0000;
                    assert!(
                        verify_bundle(key.mac_key(), &params, &tag_flip).is_err(),
                        "k={k} session {session}: tag-flipped bundle verified"
                    );
                }
            }

            // Artifact dump: self-contained bundles, re-verifiable offline.
            if let Some(dir) = &evidence_dir {
                for bundle in &retained {
                    let path = format!("{dir}/EVIDENCE_{k}_{dumped}.bin");
                    std::fs::write(&path, bundle.to_bytes())
                        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                    dumped += 1;
                }
            }

            let stats = server.stop();
            println!(
                "k={k} n={n}: {ranges} ranges, {} byzantine sessions ({crossing} cross-range), \
                 {} honest sessions, {} bundles (server logged {}), 0 framings",
                outcomes.len(),
                HONEST_SESSIONS,
                outcomes.iter().map(|(_, _, _, b)| b.len()).sum::<usize>(),
                stats.evidence_bundles,
            );
            assert!(stats.evidence_bundles >= outcomes.len() as u64);
        }
    }

    println!(
        "byzantine_fleet: {total_bundles} bundles verified, {total_attributed} attributed, \
         {dumped} dumped, 0 framings / 100% completeness"
    );
}
