//! The layer ladder: the workload's inputs replayed through each layer
//! below the live wire, from outside the program. Rung by rung:
//!
//! 1. `protocol` — direct protocol calls (node half and referee half);
//! 2. `simnet` — the same sessions through the sans-I/O runtime on a
//!    `PerfectTransport`, one worker, k = 2 shards for one-round;
//! 3. `frame` — every envelope the client would send or receive through
//!    the wire codec (`encode_frame_into` then `decode_frames`, MAC
//!    included);
//!
//! and the live wire measured by [`crate::live`]. Every rung's verdicts
//! must equal the oracle's.

use crate::inputs::{fleet_key, with_protocol, Inputs, Services, SERVICES};
use crate::spans::SpanLog;
use referee_core::graph::LabelledGraph;
use referee_core::protocol::easy::EdgeCountProtocol;
use referee_core::protocol::multiround::{MultiRoundProtocol, RefereeStep};
use referee_core::protocol::referee::local_phase;
use referee_core::protocol::service::CatalogEntry;
use referee_core::protocol::{BitWriter, Message, NodeView};
use referee_core::simnet::{Envelope, MixedLane, Scheduler, SessionId};
use referee_core::wirenet::frame::{decode_frames, encode_frame_into, FrameKind};
use referee_core::wirenet::vector_digest;
use std::time::{Duration, Instant};

/// Per-session costs of each rung (µs unless named otherwise) and the
/// counts the rungs observed.
#[derive(Debug, Default)]
pub struct Ladder {
    pub sessions: usize,
    /// Rung 1, whole: node half + referee half.
    pub protocol_us: f64,
    pub node_us: f64,
    pub referee_us: f64,
    /// `CatalogEntry::run_local` per session, by service (catalog only).
    pub replay_us: [f64; 3],
    pub simnet_us: f64,
    pub frame_us: f64,
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub frames_per_session: f64,
    pub bytes_per_session: f64,
    pub rounds_per_session: f64,
    pub max_uplink_bits: usize,
    /// Verdicts (or decoded frames) that differed from the oracle.
    pub mismatches: usize,
}

fn per_session(d: Duration, sessions: usize) -> f64 {
    d.as_secs_f64() * 1e6 / sessions as f64
}

/// One session's client-visible frames, in wire order.
type Frames = Vec<(FrameKind, Envelope)>;

fn envelope(session: usize, round: u32, from: u32, to: u32, payload: Message) -> Envelope {
    Envelope { session: SessionId(session as u64), round, from, to, payload }
}

/// Drive catalog session `session` by direct calls: the node half of `p`
/// and the catalog entry's referee stepper, round by round, as
/// `FleetClient::run_multiround_session_as` and the server split them.
/// Returns the encoded output and the rounds run, adds the time spent
/// in each half, and appends the session's frames to `frames`.
#[allow(clippy::too_many_arguments)]
fn drive_direct<P: MultiRoundProtocol>(
    p: &P,
    entry: &CatalogEntry,
    g: &LabelledGraph,
    cap: usize,
    session: usize,
    node: &mut Duration,
    referee: &mut Duration,
    frames: &mut Frames,
) -> (Option<Message>, usize) {
    let n = g.n();
    let mut announce = BitWriter::new();
    announce.write_bits(n as u64, 32);
    announce.write_bits(entry.name().len() as u64, 8);
    for b in entry.name().bytes() {
        announce.write_bits(u64::from(b), 8);
    }
    frames.push((
        FrameKind::Announce,
        envelope(session, 0, 0, 0, Message::from_writer(announce)),
    ));
    let view = |v: u32| NodeView::new(n, v, g.neighbourhood(v));
    let t0 = Instant::now();
    let mut states: Vec<P::NodeState> = (1..=n as u32).map(|v| p.node_init(view(v))).collect();
    *node += t0.elapsed();
    let t0 = Instant::now();
    let mut stepper = entry.open(n);
    *referee += t0.elapsed();
    for round in 1..=cap {
        let t0 = Instant::now();
        let mut inbox: Vec<Vec<(u32, Message)>> = vec![Vec::new(); n];
        let mut uplinks = Vec::with_capacity(n);
        for v in 1..=n as u32 {
            let (to_neighbours, uplink) =
                p.node_send(&states[(v - 1) as usize], view(v), round);
            for (target, m) in to_neighbours {
                inbox[(target - 1) as usize].push((v, m));
            }
            uplinks.push(uplink);
        }
        *node += t0.elapsed();
        for (i, u) in uplinks.iter().enumerate() {
            frames.push((
                FrameKind::Data,
                envelope(session, round as u32, i as u32 + 1, 0, u.clone()),
            ));
        }
        let t0 = Instant::now();
        let step = stepper.step(n, round, &uplinks);
        *referee += t0.elapsed();
        match step {
            RefereeStep::Done(out) => {
                let mut w = BitWriter::new();
                w.push_bit(true);
                out.append_to(&mut w);
                frames.push((
                    FrameKind::Verdict,
                    envelope(session, 0, 0, 0, Message::from_writer(w)),
                ));
                return (Some(out), round);
            }
            RefereeStep::Continue(downlinks) => {
                for (i, d) in downlinks.iter().enumerate() {
                    frames.push((
                        FrameKind::Data,
                        envelope(session, round as u32, 0, i as u32 + 1, d.clone()),
                    ));
                }
                let t0 = Instant::now();
                for v in 1..=n as u32 {
                    let i = (v - 1) as usize;
                    inbox[i].sort_by_key(|&(from, _)| from);
                    p.node_receive(&mut states[i], view(v), round, &inbox[i], &downlinks[i]);
                }
                *node += t0.elapsed();
            }
        }
    }
    (None, cap)
}

/// Rung 1 for one-round sessions: `local_phase`, then the wire
/// referee's verdict (the keyed digest of the assembled vector).
fn protocol_one_round(inputs: &Inputs, ladder: &mut Ladder) -> Vec<Frames> {
    let Inputs::OneRound(cases) = inputs else { unreachable!("one-round inputs") };
    let key = fleet_key();
    let (mut node, mut referee) = (Duration::ZERO, Duration::ZERO);
    let mut all = Vec::with_capacity(cases.len());
    for (s, case) in cases.iter().enumerate() {
        let t0 = Instant::now();
        let messages = local_phase(&EdgeCountProtocol, &case.g);
        node += t0.elapsed();
        let t0 = Instant::now();
        let digest = vector_digest(&key, &messages);
        referee += t0.elapsed();
        ladder.mismatches += usize::from(digest != case.digest);
        ladder.max_uplink_bits =
            messages.iter().map(Message::len_bits).fold(ladder.max_uplink_bits, usize::max);

        let n = case.g.n();
        let mut announce = BitWriter::new();
        announce.write_bits(n as u64, 32);
        let mut frames =
            vec![(FrameKind::Announce, envelope(s, 0, 0, 0, Message::from_writer(announce)))];
        frames.extend(
            messages
                .into_iter()
                .enumerate()
                .map(|(j, m)| (FrameKind::Data, envelope(s, 1, j as u32 + 1, 0, m))),
        );
        let mut verdict = BitWriter::new();
        verdict.push_bit(true);
        verdict.write_bits(digest, 64);
        frames.push((FrameKind::Verdict, envelope(s, 0, 0, 0, Message::from_writer(verdict))));
        all.push(frames);
    }
    ladder.node_us = per_session(node, cases.len());
    ladder.referee_us = per_session(referee, cases.len());
    ladder.rounds_per_session = 1.0;
    all
}

/// Rung 1 for catalog sessions, plus the catalog's own local replay
/// timed per service.
fn protocol_catalog(inputs: &Inputs, services: &Services, ladder: &mut Ladder) -> Vec<Frames> {
    let Inputs::Catalog(cases) = inputs else { unreachable!("catalog inputs") };
    let (mut node, mut referee) = (Duration::ZERO, Duration::ZERO);
    let mut rounds = 0;
    let mut all = Vec::with_capacity(cases.len());
    for (s, case) in cases.iter().enumerate() {
        let entry = services.catalog.get(SERVICES[case.service]).expect("standard service");
        let mut frames = Vec::new();
        let (verdict, r) = with_protocol!(services, case.service, |p| drive_direct(
            p,
            entry,
            &case.g,
            case.cap,
            s,
            &mut node,
            &mut referee,
            &mut frames
        ));
        rounds += r;
        ladder.mismatches += usize::from(verdict.as_ref() != Some(&case.verdict));
        ladder.max_uplink_bits = ladder.max_uplink_bits.max(case.stats.max_uplink_bits);
        all.push(frames);
    }
    ladder.node_us = per_session(node, cases.len());
    ladder.referee_us = per_session(referee, cases.len());
    ladder.rounds_per_session = rounds as f64 / cases.len() as f64;

    let mut replay = [(Duration::ZERO, 0usize); 3];
    for case in cases {
        let entry = services.catalog.get(SERVICES[case.service]).expect("standard service");
        let t0 = Instant::now();
        let (verdict, _) = entry.run_local(&case.g, case.cap).expect("local half");
        replay[case.service].0 += t0.elapsed();
        replay[case.service].1 += 1;
        ladder.mismatches += usize::from(verdict.as_ref() != Some(&case.verdict));
    }
    for (slot, (d, count)) in ladder.replay_us.iter_mut().zip(replay) {
        *slot = per_session(d, count.max(1));
    }
    all
}

/// Rung 2: the sans-I/O runtime, one worker, lossless transport.
fn simnet(inputs: &Inputs, services: &Services, ladder: &mut Ladder) -> Duration {
    let scheduler = Scheduler::new(1, 32);
    match inputs {
        Inputs::OneRound(cases) => {
            let graphs: Vec<LabelledGraph> = cases.iter().map(|c| c.g.clone()).collect();
            let t0 = Instant::now();
            let sweep = scheduler.sweep_one_round_sharded(
                &EdgeCountProtocol,
                &graphs,
                crate::live::SHARDS,
                None,
            );
            let took = t0.elapsed();
            for (report, g) in sweep.reports.iter().zip(&graphs) {
                ladder.mismatches +=
                    usize::from(!matches!(report.outcome, Ok(Ok(m)) if m == g.m()));
            }
            took
        }
        Inputs::Catalog(cases) => {
            let graphs: Vec<LabelledGraph> = cases.iter().map(|c| c.g.clone()).collect();
            let cap = cases.iter().map(|c| c.cap).max().unwrap_or(1);
            let lanes = [
                MixedLane::new(
                    SERVICES[0],
                    &referee_core::protocol::multiround::BoruvkaConnectivity,
                    referee_core::protocol::service::encode_bool_output,
                ),
                MixedLane::new(
                    SERVICES[1],
                    &referee_core::degeneracy::AdaptiveDegeneracyProtocol,
                    referee_core::protocol::service::encode_graph_output,
                ),
                MixedLane::new(
                    SERVICES[2],
                    &services.sketch,
                    referee_core::protocol::service::encode_bool_output,
                ),
            ];
            let t0 = Instant::now();
            let sweep = scheduler.sweep_mixed(&lanes, &graphs, cap, None);
            let took = t0.elapsed();
            for (report, case) in sweep.reports.iter().zip(cases) {
                let ok = report.service == SERVICES[case.service]
                    && matches!(&report.outcome, Ok(Some(m)) if *m == case.verdict);
                ladder.mismatches += usize::from(!ok);
            }
            took
        }
    }
}

/// Rung 3: every session's frames through the codec, MAC included.
fn frame(sessions: &[Frames], ladder: &mut Ladder) -> Duration {
    let key = fleet_key();
    let (mut encode, mut decode) = (Duration::ZERO, Duration::ZERO);
    let (mut frames, mut bytes) = (0usize, 0usize);
    let mut buf = Vec::new();
    for session in sessions {
        buf.clear();
        let t0 = Instant::now();
        for (kind, env) in session {
            encode_frame_into(&key, *kind, env, &mut buf);
        }
        encode += t0.elapsed();
        let t0 = Instant::now();
        let decoded = decode_frames(&key, &buf);
        decode += t0.elapsed();
        let ok = decoded.is_ok_and(|(d, used)| {
            used == buf.len()
                && d.len() == session.len()
                && d.iter()
                    .zip(session)
                    .all(|(f, (kind, env))| f.kind == *kind && f.envelope == *env)
        });
        ladder.mismatches += usize::from(!ok);
        frames += session.len();
        bytes += buf.len();
    }
    ladder.encode_ns_per_frame = encode.as_secs_f64() * 1e9 / frames as f64;
    ladder.decode_ns_per_frame = decode.as_secs_f64() * 1e9 / frames as f64;
    ladder.frames_per_session = frames as f64 / sessions.len() as f64;
    ladder.bytes_per_session = bytes as f64 / sessions.len() as f64;
    encode + decode
}

/// Passes over the ladder; each timing is the fastest pass's, since
/// interference from the rest of the host only ever adds time.
const PASSES: usize = 3;

/// Run every rung below the wire [`PASSES`] times, recording one span per
/// rung and pass in `log`.
pub fn run(inputs: &Inputs, services: &Services, log: &mut SpanLog) -> Ladder {
    let mut best = run_once(inputs, services, log);
    for _ in 1..PASSES {
        let next = run_once(inputs, services, log);
        for (b, n) in [
            (&mut best.protocol_us, next.protocol_us),
            (&mut best.node_us, next.node_us),
            (&mut best.referee_us, next.referee_us),
            (&mut best.simnet_us, next.simnet_us),
            (&mut best.frame_us, next.frame_us),
            (&mut best.encode_ns_per_frame, next.encode_ns_per_frame),
            (&mut best.decode_ns_per_frame, next.decode_ns_per_frame),
        ]
        .into_iter()
        .chain(best.replay_us.iter_mut().zip(next.replay_us))
        {
            *b = b.min(n);
        }
        best.mismatches += next.mismatches;
    }
    best
}

fn run_once(inputs: &Inputs, services: &Services, log: &mut SpanLog) -> Ladder {
    let mut ladder = Ladder { sessions: inputs.len(), ..Ladder::default() };
    let span = log.enter("ladder.protocol", 0);
    let frames = match inputs {
        Inputs::OneRound(_) => protocol_one_round(inputs, &mut ladder),
        Inputs::Catalog(_) => protocol_catalog(inputs, services, &mut ladder),
    };
    log.exit(span);
    ladder.protocol_us = ladder.node_us + ladder.referee_us;

    let span = log.enter("ladder.simnet", 0);
    let took = simnet(inputs, services, &mut ladder);
    log.exit(span);
    ladder.simnet_us = per_session(took, ladder.sessions);

    let span = log.enter("ladder.frame", 0);
    let took = frame(&frames, &mut ladder);
    log.exit(span);
    ladder.frame_us = per_session(took, ladder.sessions);
    ladder
}
