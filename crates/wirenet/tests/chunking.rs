//! Chunking is invisible: a session's arrivals cut into runs at
//! arbitrary points (ids strictly increasing within each run) are judged
//! exactly like the same arrivals sent as runs of one — the same verdict
//! class or output, and, in process, the same evidence class and
//! culprit — because the engine applies a run's entries one arrival at
//! a time. Both match the monolithic oracles: `assemble_from_arrivals`
//! for a one-round session's (or a Borůvka session's round-1) verdict,
//! `run_multiround_sharded` for a whole Borůvka session.
//!
//! Each script keeps its outcome independent of thread timing: a faulty
//! script carries one fault and leaves one node silent, so nothing but
//! the fault can judge the session, and the fault is applied before the
//! verdict exists. The arrival sequences cover honest sessions, a
//! duplicate, an equivocation, an out-of-range sender, a wrong round
//! stamp and a repeat behind a shipped range (in a split session the
//! last range ships before the repeat of its last node arrives), plus,
//! for Borůvka, a repeat of a round-1 uplink sent after round 1 was
//! judged. Under remote placement only verdicts are compared: whether a
//! straggler reaches its shard host or is answered by the proxy depends
//! on when the host's partial commits the proxy's journal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use referee_graph::{generators, LabelledGraph, VertexId};
use referee_protocol::easy::EdgeCountProtocol;
use referee_protocol::evidence::{EvidenceBundle, ProvableError};
use referee_protocol::multiround::{BoruvkaConnectivity, MultiRoundProtocol};
use referee_protocol::referee::{assemble_from_arrivals, local_phase};
use referee_protocol::service::error_class;
use referee_protocol::shard::multiround::run_multiround_sharded;
use referee_protocol::shard::MIN_RANGE_NODES;
use referee_protocol::{BitWriter, Message, NodeView};
use referee_simnet::{Envelope, SessionId};
use referee_wirenet::{
    boruvka_connectivity_service, decode_frame, decode_run, encode_bool_output, encode_runs,
    encode_wire_frame, vector_digest, AuthKey, FleetServer, FrameKind, PlacementPolicy,
    RemotePlacement, RunDirection, ShardHost,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const CAP: usize = 64;

/// One uplink as a raw client sends it: round stamp, sender, payload.
type Arrival = (u32, VertexId, Message);

/// A verdict: the service's output bits, or the 2-bit rejection class.
type Verdict = Result<Message, u64>;

/// What a session came to: its verdict and the evidence the client
/// received, as `(class, culprit)`.
#[derive(Debug, PartialEq)]
struct Outcome {
    verdict: Verdict,
    evidence: Vec<(ProvableError, Option<u32>)>,
}

/// The fault a script carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Honest,
    Duplicate,
    Equivocation,
    OutOfRange,
    WrongRound,
    /// Every node but node 1 in ascending order, then a repeat of node
    /// `n`: behind its shipped range once the session splits.
    Behind,
    /// Borůvka only: an honest round 1, then a repeat of a round-1
    /// uplink sent after round 1 was judged.
    Late,
}

/// One session's script: the graph, round 1's arrivals in send order,
/// and a straggler to send at the start of round 2.
struct Script {
    g: LabelledGraph,
    round1: Vec<Arrival>,
    late: Option<(VertexId, Message)>,
}

fn other(m: &Message) -> Message {
    if m.len_bits() > 0 {
        return m.with_bit_flipped(0);
    }
    let mut w = BitWriter::new();
    w.push_bit(true);
    Message::from_writer(w)
}

/// Build `fault`'s script over `uplinks` (node `v`'s round-1 uplink at
/// `v - 1`), seeded by `seed`.
fn script(g: LabelledGraph, uplinks: Vec<Message>, fault: Fault, seed: u64) -> Script {
    let n = g.n() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let up = |v: VertexId| (1, v, uplinks[v as usize - 1].clone());
    let mut order: Vec<VertexId> = (1..=n).collect();
    order.shuffle(&mut rng);
    if matches!(fault, Fault::Honest | Fault::Late) {
        let late = (fault == Fault::Late).then(|| {
            let v = rng.gen_range(1..=n);
            let m = &uplinks[v as usize - 1];
            (v, if rng.gen_bool(0.5) { m.clone() } else { other(m) })
        });
        return Script { round1: order.into_iter().map(up).collect(), late, g };
    }
    if fault == Fault::Behind {
        let mut round1: Vec<Arrival> = (2..=n).map(up).collect();
        let m = &uplinks[n as usize - 1];
        round1.push((1, n, if rng.gen_bool(0.5) { m.clone() } else { other(m) }));
        return Script { g, round1, late: None };
    }
    // One node stays silent; the fault lands at or after the victim's
    // own arrival.
    let silent = order.pop().expect("n ≥ 2");
    let mut round1: Vec<Arrival> = order.iter().map(|&v| up(v)).collect();
    let at = rng.gen_range(0..round1.len());
    let after = rng.gen_range(at + 1..=round1.len());
    let (_, victim, payload) = round1[at].clone();
    let extra = match fault {
        Fault::Duplicate => (1, victim, payload),
        Fault::Equivocation => (1, victim, other(&payload)),
        Fault::OutOfRange => {
            let stray = if rng.gen_bool(0.25) { 0 } else { n + rng.gen_range(1..9) };
            (1, stray, payload)
        }
        _ => {
            let stamp = if rng.gen_bool(0.5) { 0 } else { CAP as u32 + 1 };
            (stamp, silent, uplinks[silent as usize - 1].clone())
        }
    };
    round1.insert(after, extra);
    Script { g, round1, late: None }
}

/// Cut `arrivals` into runs: before every entry whose round differs or
/// whose id does not increase, and — with `cuts` — at random points, or
/// — without — before every entry (runs of one).
fn runs(
    arrivals: &[Arrival],
    cuts: &mut Option<StdRng>,
) -> Vec<(u32, Vec<(VertexId, Message)>)> {
    let mut out: Vec<(u32, Vec<(VertexId, Message)>)> = Vec::new();
    for (round, id, m) in arrivals {
        let join = match (out.last(), cuts.as_mut()) {
            (Some((r, entries)), Some(rng)) => {
                r == round
                    && entries.last().is_some_and(|(prev, _)| id > prev)
                    && rng.gen_bool(0.7)
            }
            _ => false,
        };
        if join {
            out.last_mut().expect("joined").1.push((*id, m.clone()));
        } else {
            out.push((*round, vec![(*id, m.clone())]));
        }
    }
    out
}

/// A raw client connection past the Hello handshake.
struct Raw {
    stream: TcpStream,
    key: AuthKey,
    buf: Vec<u8>,
}

impl Raw {
    fn connect(addr: SocketAddr, base: AuthKey) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
        let mut raw = Raw { stream, key: base, buf: Vec::new() };
        let (kind, hello) = raw.read();
        assert_eq!(kind, FrameKind::Hello);
        raw.key = base.derive(u64::from(hello.from));
        raw
    }

    fn write(&mut self, kind: FrameKind, env: &Envelope) {
        self.stream.write_all(&encode_wire_frame(&self.key, kind, env)).expect("write");
    }

    fn read(&mut self) -> (FrameKind, Envelope) {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(d) = decode_frame(&self.key, &self.buf).expect("frames authenticate") {
                self.buf.drain(..d.consumed);
                return (d.kind, d.envelope);
            }
            let k = self.stream.read(&mut chunk).expect("the session is judged, not wedged");
            assert!(k > 0, "the server closed the connection");
            self.buf.extend_from_slice(&chunk[..k]);
        }
    }

    fn send(&mut self, session: u64, arrivals: &[Arrival], cuts: &mut Option<StdRng>) {
        for (round, entries) in runs(arrivals, cuts) {
            let mut run = encode_runs(entries.iter().map(|(v, m)| (*v, m)));
            assert_eq!(run.len(), 1, "one run per chunk");
            let env = run.remove(0).envelope(SessionId(session), round, RunDirection::Uplink);
            self.write(FrameKind::Data, &env);
        }
    }

    /// Drive `script` as session `session` (announced bare, so entry 0
    /// of the server's catalog serves it), cutting runs with `cuts`.
    /// With `multi`, later rounds play Borůvka's node half honestly.
    fn drive(
        &mut self,
        session: u64,
        s: &Script,
        multi: bool,
        mut cuts: Option<StdRng>,
    ) -> Outcome {
        let (g, n) = (&s.g, s.g.n());
        let mut w = BitWriter::new();
        w.write_bits(n as u64, 32);
        let announce = Envelope {
            session: SessionId(session),
            round: 0,
            from: 0,
            to: 0,
            payload: Message::from_writer(w),
        };
        self.write(FrameKind::Announce, &announce);
        let p = BoruvkaConnectivity;
        let view = |v: VertexId| NodeView::new(n, v, g.neighbourhood(v));
        let mut states: Vec<_> = (1..=n as u32).map(|v| p.node_init(view(v))).collect();
        let mut inbox: Vec<Vec<(VertexId, Message)>> = vec![Vec::new(); n];
        if multi {
            for v in 1..=n as u32 {
                for (to, m) in p.node_send(&states[v as usize - 1], view(v), 1).0 {
                    inbox[to as usize - 1].push((v, m));
                }
            }
        }
        self.send(session, &s.round1, &mut cuts);
        let (mut round, mut evidence) = (1u32, Vec::new());
        let mut downlinks: Vec<Option<Message>> = vec![None; n];
        loop {
            let (kind, env) = self.read();
            match kind {
                FrameKind::Evidence => {
                    let b = EvidenceBundle::decode(&env.payload).expect("bundle decodes");
                    evidence.push((b.error, b.accused));
                }
                FrameKind::Verdict => {
                    let mut r = env.payload.reader();
                    let verdict = if r.read_bit().expect("verdict bit") {
                        let mut out = BitWriter::new();
                        r.copy_bits_into(&mut out, r.remaining()).expect("output bits");
                        Ok(Message::from_writer(out))
                    } else {
                        Err(r.read_bits(2).expect("class"))
                    };
                    return Outcome { verdict, evidence };
                }
                FrameKind::Data => {
                    assert!(multi, "a one-round service sends no downlinks");
                    assert_eq!(env.round, round);
                    for (to, m) in decode_run(&env, RunDirection::Downlink).expect("a run") {
                        downlinks[to as usize - 1] = Some(m);
                    }
                    if downlinks.iter().any(Option::is_none) {
                        continue;
                    }
                    // The round continues: nodes receive, then send.
                    for (i, down) in downlinks.iter_mut().enumerate() {
                        let v = i as u32 + 1;
                        inbox[i].sort_by_key(|&(from, _)| from);
                        let down = down.take().expect("filled");
                        p.node_receive(
                            &mut states[i],
                            view(v),
                            round as usize,
                            &inbox[i],
                            &down,
                        );
                        inbox[i].clear();
                    }
                    round += 1;
                    if let (2, Some((v, m))) = (round, &s.late) {
                        self.send(session, &[(1, *v, m.clone())], &mut None);
                    }
                    let mut uplinks = Vec::with_capacity(n);
                    for v in 1..=n as u32 {
                        let (links, up) =
                            p.node_send(&states[v as usize - 1], view(v), round as usize);
                        for (to, m) in links {
                            inbox[to as usize - 1].push((v, m));
                        }
                        uplinks.push((round, v, up));
                    }
                    self.send(session, &uplinks, &mut cuts);
                }
                other => panic!("unexpected {other:?} frame"),
            }
        }
    }
}

/// The monolithic oracle's verdict for `s`, or `None` when it has none
/// (a wrong round stamp: the monolithic assembler knows no rounds).
fn oracle(key: &AuthKey, s: &Script, multi: bool, k: usize) -> Option<Verdict> {
    if s.round1.iter().any(|(round, _, _)| *round != 1) {
        return None;
    }
    let n = s.g.n();
    let assembled = assemble_from_arrivals(n, s.round1.iter().map(|(_, v, m)| (*v, m.clone())));
    Some(match (assembled, multi) {
        (Err(e), _) => Err(error_class(&e)),
        (Ok(vector), false) => {
            let mut w = BitWriter::new();
            w.write_bits(vector_digest(key, &vector), 64);
            Ok(Message::from_writer(w))
        }
        (Ok(_), true) => {
            let (out, _) = run_multiround_sharded(&BoruvkaConnectivity, &s.g, k, CAP);
            Ok(encode_bool_output(&out.expect("Borůvka terminates")))
        }
    })
}

/// One case: `fault` over a graph of `n` nodes, driven chunked (cut by
/// `cut_seed`) and as runs of one against in-process servers at k = 1,
/// 2 and 4 and a 2-shard remote placement.
fn check(
    multi: bool,
    fault: Fault,
    n: usize,
    seed: u64,
    cut_seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::gnp(n, (6.0 / n as f64).min(0.3), &mut rng);
    let uplinks: Vec<Message> = if multi {
        let view = |v: VertexId| NodeView::new(n, v, g.neighbourhood(v));
        let p = BoruvkaConnectivity;
        (1..=n as u32).map(|v| p.node_send(&p.node_init(view(v)), view(v), 1).1).collect()
    } else {
        local_phase(&EdgeCountProtocol, &g)
    };
    let s = script(g, uplinks, fault, seed);
    let key = AuthKey::from_seed(seed ^ 0xc4c4);
    let spawn = |k: usize| match multi {
        true => FleetServer::spawn_multiround(key, k, boruvka_connectivity_service()),
        false => FleetServer::spawn_sharded(key, k),
    };
    for k in [1usize, 2, 4] {
        let server = spawn(k).expect("bind");
        let mut raw = Raw::connect(server.addr(), key);
        let chunked = raw.drive(1, &s, multi, Some(StdRng::seed_from_u64(cut_seed)));
        let ones = raw.drive(2, &s, multi, None);
        prop_assert_eq!(&chunked, &ones, "k={} {:?}", k, fault);
        if let Some(want) = oracle(&key, &s, multi, k) {
            prop_assert_eq!(&chunked.verdict, &want, "k={} {:?}: the oracle", k, fault);
        }
        let honest = matches!(fault, Fault::Honest);
        prop_assert_eq!(chunked.evidence.is_empty(), honest, "k={} {:?}", k, fault);
        server.stop();
    }
    let hosts: Vec<ShardHost> =
        (0..2).map(|_| ShardHost::spawn(key).expect("bind host")).collect();
    let addrs = hosts.iter().enumerate().map(|(i, h)| (i as u32, h.addr()));
    let placement = RemotePlacement::new(PlacementPolicy::balanced(2, &[0, 1]), addrs).unwrap();
    let builder = FleetServer::builder(key).placement(placement);
    let server = match multi {
        true => builder.multiround(boruvka_connectivity_service()).spawn(),
        false => builder.spawn(),
    }
    .expect("bind coordinator");
    let mut raw = Raw::connect(server.addr(), key);
    let chunked = raw.drive(1, &s, multi, Some(StdRng::seed_from_u64(cut_seed)));
    let ones = raw.drive(2, &s, multi, None);
    prop_assert_eq!(&chunked.verdict, &ones.verdict, "remote {:?}", fault);
    if let Some(want) = oracle(&key, &s, multi, 2) {
        prop_assert_eq!(&chunked.verdict, &want, "remote {:?}: the oracle", fault);
    }
    server.stop();
    drop(hosts);
    Ok(())
}

const FAULTS: [Fault; 7] = [
    Fault::Honest,
    Fault::Duplicate,
    Fault::Equivocation,
    Fault::OutOfRange,
    Fault::WrongRound,
    Fault::Behind,
    Fault::Late,
];

/// A session size: small (unsplit at every k) or ≥ 4 · `MIN_RANGE_NODES`
/// (split k ways at k = 2 and 4).
fn size(large: bool, extra: usize) -> usize {
    if large {
        4 * MIN_RANGE_NODES + extra % 9
    } else {
        3 + extra % 22
    }
}

proptest! {
    // Every case spawns four servers and two shard hosts.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn one_round_chunking_is_invisible(
        fault in 0usize..6,
        large in any::<bool>(),
        extra in any::<usize>(),
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        check(false, FAULTS[fault], size(large, extra), seed, cut_seed)?;
    }

    #[test]
    fn boruvka_chunking_is_invisible(
        fault in 0usize..7,
        large in any::<bool>(),
        extra in any::<usize>(),
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        check(true, FAULTS[fault], size(large, extra), seed, cut_seed)?;
    }
}
