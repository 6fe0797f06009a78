//! The session state machine: protocol executions as explicit, pollable
//! state, with all I/O abstracted behind a [`Transport`].
//!
//! A session owns *both* sides of the referee model — the nodes' local
//! computations and the referee's global computation — but routes every
//! message between them through the transport. `step()` advances the
//! machine as far as currently-deliverable traffic allows and returns;
//! the caller (a scheduler, a test, an eventual async reactor) decides
//! when to poll again. Nothing here blocks, sleeps, or spawns.
//!
//! There is one machine, [`MultiRoundSession`]. A one-round protocol is
//! a multi-round protocol whose referee finishes in round 1, so a
//! one-round session is
//! `MultiRoundSession::new(&OneRoundAsMultiRound(p), g, 1)` (see
//! [`OneRoundAsMultiRound`](referee_protocol::combinators::OneRoundAsMultiRound)),
//! seen through its [`OneRoundReport`].
//!
//! Delivery semantics:
//!
//! * **Out-of-order arrivals** are fine: envelopes are round-stamped and
//!   buffered until their consumer phase runs (the early-message cache).
//! * **Duplicates** are fine *if identical*: at-least-once delivery is
//!   made idempotent by content comparison; the copy is counted as
//!   `stale`. A duplicate that *differs* from the recorded original
//!   **and arrives while its round is still open** is evidence of
//!   tampering and fails the session with
//!   [`DecodeError::Inconsistent`]; duplicates straggling in after
//!   their round committed are dropped uncompared (the original was
//!   already consumed, so they can no longer influence any outcome).
//! * **Stray round stamps** fail the session: an envelope stamped `0`
//!   or past the round cap can belong to no round of this session, so
//!   it is rejected with [`DecodeError::Invalid`] instead of being
//!   counted stale or parked — the future-round buffers stay bounded by
//!   the round cap.
//! * **Loss** is detected when the transport reports itself empty while
//!   the session still expects traffic — a session never hangs.
//! * **Corruption** is *not* detected here. Flipped bits flow unchanged
//!   into the protocol decoders, whose existing [`DecodeError`] rejection
//!   paths are the system's integrity layer. (Transports that cross real
//!   sockets add their own frame MACs — `wirenet` — but that happens
//!   below this boundary.)
//! * **Cross-session traffic** is a demux fault: an inbound envelope
//!   whose [`SessionId`] differs from the session's own fails the run
//!   with [`DecodeError::Invalid`] rather than being silently absorbed
//!   into the wrong protocol state.

use crate::clock::{real_clock, SharedClock};
use crate::metrics::SessionMetrics;
use crate::transport::{Envelope, SessionId, Transport, REFEREE};
use referee_graph::{LabelledGraph, VertexId};
use referee_protocol::multiround::{MultiRoundProtocol, MultiRoundStats, RefereeStep};
use referee_protocol::{DecodeError, Message, NodeView};
use std::collections::BTreeMap;

/// Result of one [`step`](MultiRoundSession::step) call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// More work remains; poll again.
    Running,
    /// The session has an outcome.
    Done,
}

/// The buffer rule both session engines share: a per-node slot vector
/// is allocated on first use, so a round that never needs it (the
/// downlinks and inboxes of the round a referee ends on, the link-seen
/// table of a protocol without link messages) costs nothing.
pub(crate) fn lazy_slots<T: Clone + Default>(slots: &mut Vec<T>, len: usize) -> &mut [T] {
    if slots.is_empty() {
        slots.resize(len, T::default());
    }
    slots
}

/// One round's mailboxes. `downlinks` and `inbox` follow
/// [`lazy_slots`].
struct RoundBuf {
    uplinks: Vec<Option<Message>>,
    uplinks_filled: usize,
    downlinks: Vec<Option<Message>>,
    downlinks_filled: usize,
    inbox: Vec<Vec<(VertexId, Message)>>,
    inbox_count: usize,
}

impl RoundBuf {
    fn new(n: usize) -> Self {
        RoundBuf {
            uplinks: vec![None; n],
            uplinks_filled: 0,
            downlinks: Vec::new(),
            downlinks_filled: 0,
            inbox: Vec::new(),
            inbox_count: 0,
        }
    }
}

enum MultiRoundPhase {
    NodeSend,
    AwaitUplinks,
    AwaitReceive,
    Finished,
}

/// A single execution of a [`MultiRoundProtocol`] as a state machine.
pub struct MultiRoundSession<'a, P: MultiRoundProtocol> {
    protocol: &'a P,
    graph: &'a LabelledGraph,
    session: SessionId,
    clock: SharedClock,
    max_rounds: usize,
    node_states: Vec<P::NodeState>,
    referee_state: P::RefereeState,
    round: u32,
    phase: MultiRoundPhase,
    /// The current round's mailboxes.
    current: RoundBuf,
    /// Mailboxes of later rounds, by round: the early-message cache that
    /// makes reordering across round boundaries harmless. The round-stamp
    /// rule bounds it to `max_rounds` entries.
    early: BTreeMap<u32, RoundBuf>,
    /// Node→node envelopes sent this round (recorded at send time: the
    /// session knows the ground truth of what was transmitted, so loss is
    /// distinguishable from "that neighbour simply did not send").
    links_expected: usize,
    /// Per-(node, round) duplicate-target detection in O(1) per send:
    /// `link_seen[target] == link_epoch` means this sender already
    /// messaged `target` in the current round ([`lazy_slots`], `n + 1`).
    link_seen: Vec<u64>,
    link_epoch: u64,
    /// Start of the current round: construction (or
    /// [`with_clock`](Self::with_clock)) for round 1, so its latency
    /// includes any wait before the first step; the send step for every
    /// later round.
    round_started: f64,
    outcome: Option<Result<Option<P::Output>, DecodeError>>,
    metrics: SessionMetrics,
    mr_stats: MultiRoundStats,
}

impl<'a, P: MultiRoundProtocol> MultiRoundSession<'a, P> {
    /// A fresh session; `max_rounds` is the safety stop, mirroring
    /// [`referee_protocol::multiround::run_multiround`].
    pub fn new(protocol: &'a P, graph: &'a LabelledGraph, max_rounds: usize) -> Self {
        let n = graph.n();
        let node_states: Vec<P::NodeState> = (1..=n as u32)
            .map(|v| protocol.node_init(NodeView::new(n, v, graph.neighbourhood(v))))
            .collect();
        let referee_state = protocol.referee_init(n);
        let clock = real_clock();
        MultiRoundSession {
            protocol,
            graph,
            session: SessionId::default(),
            round_started: clock.now(),
            clock,
            max_rounds,
            node_states,
            referee_state,
            round: 1,
            phase: MultiRoundPhase::NodeSend,
            current: RoundBuf::new(n),
            early: BTreeMap::new(),
            links_expected: 0,
            link_seen: Vec::new(),
            link_epoch: 0,
            outcome: None,
            metrics: SessionMetrics::new(n),
            mr_stats: MultiRoundStats {
                n,
                rounds: 0,
                max_uplink_bits: 0,
                max_downlink_bits: 0,
                max_link_bits: 0,
            },
        }
    }

    /// Tag this session's envelopes with `id` (multiplexing). Inbound
    /// envelopes carrying any *other* session id fail the run — they are
    /// evidence of a demultiplexing fault in the transport layer.
    pub fn with_session(mut self, id: SessionId) -> Self {
        self.session = id;
        self
    }

    /// Stamp latency metrics from `clock` instead of wall time.
    pub fn with_clock(mut self, clock: SharedClock) -> Self {
        self.round_started = clock.now();
        self.clock = clock;
        self
    }

    /// Advance as far as deliverable traffic allows.
    pub fn step(&mut self, transport: &mut impl Transport) -> Step {
        match self.phase {
            MultiRoundPhase::NodeSend => self.step_send(transport),
            MultiRoundPhase::AwaitUplinks => self.step_uplinks(transport),
            MultiRoundPhase::AwaitReceive => self.step_receive(transport),
            MultiRoundPhase::Finished => Step::Done,
        }
    }

    /// Drive to completion on `transport`.
    pub fn run(mut self, transport: &mut impl Transport) -> MultiRoundReport<P::Output> {
        while self.step(transport) == Step::Running {}
        self.into_report(transport)
    }

    /// The outcome, metrics and multi-round stats; call after `step`
    /// returns [`Step::Done`].
    pub fn into_report(mut self, transport: &impl Transport) -> MultiRoundReport<P::Output> {
        let outcome = self.outcome.take().expect("session not finished");
        self.metrics.transport.merge(&transport.counters());
        MultiRoundReport { outcome, metrics: self.metrics, stats: self.mr_stats }
    }

    /// The mailboxes of `round`, the current round or a later one.
    fn buf(&mut self, round: u32) -> &mut RoundBuf {
        if round == self.round {
            return &mut self.current;
        }
        let n = self.graph.n();
        self.early.entry(round).or_insert_with(|| RoundBuf::new(n))
    }

    /// Classify one arrival into its round buffer. Rounds older than the
    /// current one are committed history: their traffic is counted stale
    /// and dropped (idempotent at-least-once delivery). A stamp outside
    /// `1..=max_rounds` fails the session.
    fn classify(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let n = self.graph.n();
        if env.session != self.session {
            return Err(DecodeError::Invalid(format!(
                "envelope for session {} delivered to session {} (demux fault)",
                env.session, self.session
            )));
        }
        if env.round == 0 || env.round as usize > self.max_rounds {
            return Err(DecodeError::Invalid(format!(
                "round-{} envelope from {} to {} outside rounds 1..={}",
                env.round, env.from, env.to, self.max_rounds
            )));
        }
        if env.round < self.round {
            self.metrics.transport.stale += 1;
            return Ok(());
        }
        if env.from == REFEREE {
            // Downlink.
            if env.to == REFEREE || env.to as usize > n {
                return Err(DecodeError::OutOfRange(format!(
                    "downlink to unknown node {}",
                    env.to
                )));
            }
            let buf = self.buf(env.round);
            let slot = &mut lazy_slots(&mut buf.downlinks, n)[(env.to - 1) as usize];
            match slot {
                None => {
                    *slot = Some(env.payload);
                    buf.downlinks_filled += 1;
                }
                Some(existing) if *existing == env.payload => self.metrics.transport.stale += 1,
                Some(_) => {
                    return Err(DecodeError::Inconsistent(format!(
                        "conflicting duplicate downlink for node {}",
                        env.to
                    )))
                }
            }
            return Ok(());
        }
        if env.from as usize > n {
            return Err(DecodeError::OutOfRange(format!(
                "message from unknown node {} (n = {n})",
                env.from
            )));
        }
        if env.to == REFEREE {
            // Uplink.
            let buf = self.buf(env.round);
            let slot = &mut buf.uplinks[(env.from - 1) as usize];
            match slot {
                None => {
                    *slot = Some(env.payload);
                    buf.uplinks_filled += 1;
                }
                Some(existing) if *existing == env.payload => self.metrics.transport.stale += 1,
                Some(_) => {
                    return Err(DecodeError::Inconsistent(format!(
                        "conflicting duplicate uplink from node {}",
                        env.from
                    )))
                }
            }
            return Ok(());
        }
        // Node → node link message.
        if env.to as usize > n {
            return Err(DecodeError::OutOfRange(format!("message to unknown node {}", env.to)));
        }
        if !self.graph.has_edge(env.from, env.to) {
            return Err(DecodeError::Invalid(format!(
                "link message along non-edge {} → {}",
                env.from, env.to
            )));
        }
        let buf = self.buf(env.round);
        let inbox = &mut lazy_slots(&mut buf.inbox, n)[(env.to - 1) as usize];
        match inbox.iter().find(|(from, _)| *from == env.from) {
            Some((_, existing)) if *existing == env.payload => {
                self.metrics.transport.stale += 1
            }
            Some(_) => {
                return Err(DecodeError::Inconsistent(format!(
                    "conflicting duplicate link message {} → {}",
                    env.from, env.to
                )))
            }
            None => {
                inbox.push((env.from, env.payload));
                buf.inbox_count += 1;
            }
        }
        Ok(())
    }

    /// Pull envelopes until `ready` holds or the transport drains.
    /// Returns `Ok(true)` when ready, `Ok(false)` on starvation.
    fn pump(
        &mut self,
        transport: &mut impl Transport,
        ready: impl Fn(&RoundBuf, usize) -> bool,
    ) -> Result<bool, DecodeError> {
        loop {
            if ready(&self.current, self.links_expected) {
                return Ok(true);
            }
            let Some(env) = transport.recv() else {
                return Ok(false);
            };
            self.classify(env)?;
        }
    }

    fn step_send(&mut self, transport: &mut impl Transport) -> Step {
        let n = self.graph.n();
        if self.mr_stats.rounds >= self.max_rounds {
            return self.finish(Ok(None)); // round cap: referee never finished
        }
        let t0 = self.clock.now();
        if self.round > 1 {
            self.round_started = t0;
        }
        self.mr_stats.rounds += 1;
        self.links_expected = 0;
        for v in 1..=n as u32 {
            let view = NodeView::new(n, v, self.graph.neighbourhood(v));
            let (to_nbrs, uplink) = self.protocol.node_send(
                &self.node_states[(v - 1) as usize],
                view,
                self.round as usize,
            );
            self.mr_stats.max_uplink_bits =
                self.mr_stats.max_uplink_bits.max(uplink.len_bits());
            self.metrics.stats.total_message_bits += uplink.len_bits();
            transport.send(Envelope {
                session: self.session,
                round: self.round,
                from: v,
                to: REFEREE,
                payload: uplink,
            });
            self.link_epoch += 1;
            for (target, payload) in to_nbrs {
                if !self.graph.has_edge(v, target) {
                    return self.finish(Err(DecodeError::Invalid(format!(
                        "node {v} tried to message non-neighbour {target}"
                    ))));
                }
                // CONGEST carries one message per link per round; a
                // second send to the same target would be inseparable
                // from a transport duplicate at the receiver, so it is
                // rejected here rather than mis-accounted later.
                let seen = &mut lazy_slots(&mut self.link_seen, n + 1)[target as usize];
                if std::mem::replace(seen, self.link_epoch) == self.link_epoch {
                    return self.finish(Err(DecodeError::Invalid(format!(
                        "node {v} sent two messages to {target} in round {} \
                         (one message per link per round)",
                        self.round
                    ))));
                }
                self.mr_stats.max_link_bits =
                    self.mr_stats.max_link_bits.max(payload.len_bits());
                self.metrics.stats.total_message_bits += payload.len_bits();
                self.links_expected += 1;
                transport.send(Envelope {
                    session: self.session,
                    round: self.round,
                    from: v,
                    to: target,
                    payload,
                });
            }
        }
        self.metrics.stats.local_seconds += self.clock.now() - t0;
        self.phase = MultiRoundPhase::AwaitUplinks;
        Step::Running
    }

    fn step_uplinks(&mut self, transport: &mut impl Transport) -> Step {
        let n = self.graph.n();
        match self.pump(transport, |buf, _| buf.uplinks_filled == n) {
            Err(e) => return self.finish(Err(e)),
            Ok(false) => {
                return self.finish(Err(DecodeError::Inconsistent(format!(
                    "transport drained while referee awaited round-{} uplinks",
                    self.round
                ))))
            }
            Ok(true) => {}
        }
        // The uplinks move into the referee step and back into their
        // slots only if the round continues, where later duplicates are
        // still compared against them.
        let uplinks: Vec<Message> = self
            .current
            .uplinks
            .iter_mut()
            .map(|s| s.take().expect("uplink present"))
            .collect();
        let t0 = self.clock.now();
        let step = self.protocol.referee_step(
            &mut self.referee_state,
            n,
            self.round as usize,
            &uplinks,
        );
        self.metrics.stats.global_seconds += self.clock.now() - t0;
        match step {
            RefereeStep::Done(out) => self.finish(Ok(Some(out))),
            RefereeStep::Continue(downlinks) => {
                if downlinks.len() != n {
                    return self.finish(Err(DecodeError::Inconsistent(format!(
                        "referee produced {} downlinks for {n} nodes",
                        downlinks.len()
                    ))));
                }
                for (slot, uplink) in self.current.uplinks.iter_mut().zip(uplinks) {
                    *slot = Some(uplink);
                }
                for (i, payload) in downlinks.into_iter().enumerate() {
                    self.mr_stats.max_downlink_bits =
                        self.mr_stats.max_downlink_bits.max(payload.len_bits());
                    self.metrics.stats.total_message_bits += payload.len_bits();
                    transport.send(Envelope {
                        session: self.session,
                        round: self.round,
                        from: REFEREE,
                        to: (i + 1) as u32,
                        payload,
                    });
                }
                self.phase = MultiRoundPhase::AwaitReceive;
                Step::Running
            }
        }
    }

    fn step_receive(&mut self, transport: &mut impl Transport) -> Step {
        let n = self.graph.n();
        match self
            .pump(transport, |buf, links| buf.downlinks_filled == n && buf.inbox_count == links)
        {
            Err(e) => return self.finish(Err(e)),
            Ok(false) => {
                return self.finish(Err(DecodeError::Inconsistent(format!(
                    "transport drained while nodes awaited round-{} deliveries",
                    self.round
                ))))
            }
            Ok(true) => {}
        }
        let next = self.early.remove(&(self.round + 1)).unwrap_or_else(|| RoundBuf::new(n));
        let mut buf = std::mem::replace(&mut self.current, next);
        let inbox = lazy_slots(&mut buf.inbox, n);
        let t0 = self.clock.now();
        for v in 1..=n as u32 {
            let i = (v - 1) as usize;
            inbox[i].sort_by_key(|&(from, _)| from);
            let view = NodeView::new(n, v, self.graph.neighbourhood(v));
            let downlink = buf.downlinks[i].take().expect("downlink present");
            self.protocol.node_receive(
                &mut self.node_states[i],
                view,
                self.round as usize,
                &inbox[i],
                &downlink,
            );
        }
        self.metrics.stats.local_seconds += self.clock.now() - t0;
        self.metrics.round_seconds.push(self.clock.now() - self.round_started);
        self.round += 1;
        self.phase = MultiRoundPhase::NodeSend;
        Step::Running
    }

    fn finish(&mut self, outcome: Result<Option<P::Output>, DecodeError>) -> Step {
        // Close out the round timer if the session ended mid-round.
        if self.metrics.round_seconds.len() < self.mr_stats.rounds {
            self.metrics.round_seconds.push(self.clock.now() - self.round_started);
        }
        self.metrics.rounds = self.mr_stats.rounds;
        self.metrics.stats.max_message_bits = self
            .mr_stats
            .max_uplink_bits
            .max(self.mr_stats.max_downlink_bits)
            .max(self.mr_stats.max_link_bits);
        self.outcome = Some(outcome);
        self.phase = MultiRoundPhase::Finished;
        Step::Done
    }
}

/// Outcome of a one-round session: the [`From`] view of a cap-1
/// [`MultiRoundSession`] over
/// [`OneRoundAsMultiRound`](referee_protocol::combinators::OneRoundAsMultiRound).
#[derive(Debug)]
pub struct OneRoundReport<O> {
    /// The referee's output, or the decode/delivery failure that ended
    /// the session.
    pub outcome: Result<O, DecodeError>,
    /// Everything measured along the way.
    pub metrics: SessionMetrics,
}

impl<O> From<MultiRoundReport<O>> for OneRoundReport<O> {
    fn from(report: MultiRoundReport<O>) -> Self {
        OneRoundReport { outcome: cap1_outcome(report.outcome), metrics: report.metrics }
    }
}

/// The one-round view of a cap-1 engine outcome, shared by both
/// engines' one-round reports: a referee that did not finish in round 1
/// is a typed failure, never a panic.
pub(crate) fn cap1_outcome<O>(
    outcome: Result<Option<O>, DecodeError>,
) -> Result<O, DecodeError> {
    outcome.and_then(|out| {
        out.ok_or_else(|| DecodeError::Inconsistent("referee did not finish in round 1".into()))
    })
}

/// Outcome of a multi-round session.
#[derive(Debug)]
pub struct MultiRoundReport<O> {
    /// `Ok(Some(out))` when the referee finished, `Ok(None)` when the
    /// round cap was hit, `Err` on decode/delivery failure.
    pub outcome: Result<Option<O>, DecodeError>,
    /// Runtime metrics.
    pub metrics: SessionMetrics,
    /// Legacy-compatible per-link-class message-size stats.
    pub stats: MultiRoundStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TransportCounters;
    use crate::transport::PerfectTransport;
    use referee_graph::generators;
    use referee_protocol::combinators::OneRoundAsMultiRound;
    use referee_protocol::easy::EdgeCountProtocol;
    use referee_protocol::multiround::BoruvkaConnectivity;

    /// Delivers node 1's first uplink twice: as sent, then stamped
    /// `round`.
    struct Restamp {
        inner: PerfectTransport,
        round: u32,
        done: bool,
    }

    impl Restamp {
        fn new(round: u32) -> Self {
            Restamp { inner: PerfectTransport::new(), round, done: false }
        }
    }

    impl Transport for Restamp {
        fn send(&mut self, env: Envelope) {
            if !self.done && env.from == 1 && env.to == REFEREE {
                self.done = true;
                let stray = Envelope { round: self.round, ..env.clone() };
                self.inner.send(env);
                self.inner.send(stray);
            } else {
                self.inner.send(env);
            }
        }
        fn recv(&mut self) -> Option<Envelope> {
            self.inner.recv()
        }
        fn counters(&self) -> TransportCounters {
            self.inner.counters()
        }
    }

    #[test]
    fn stray_round_stamps_fail_a_one_round_session() {
        let g = generators::grid(3, 4);
        let protocol = OneRoundAsMultiRound(EdgeCountProtocol);
        for round in [0, 7, 1 << 31] {
            let report = OneRoundReport::from(
                MultiRoundSession::new(&protocol, &g, 1).run(&mut Restamp::new(round)),
            );
            let err = report.outcome.unwrap_err();
            assert!(
                matches!(&err, DecodeError::Invalid(m) if m.contains("outside rounds 1..=1")),
                "round {round}: {err}"
            );
        }
    }

    #[test]
    fn stray_round_stamp_fails_a_multi_round_session() {
        // A round-65 stray on a cap-64 Borůvka session can belong to no
        // round it will ever run.
        let g = generators::path(8);
        let report =
            MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).run(&mut Restamp::new(65));
        let err = report.outcome.unwrap_err();
        assert!(
            matches!(&err, DecodeError::Invalid(m) if m.contains("outside rounds 1..=64")),
            "{err}"
        );
    }

    #[test]
    fn unfinished_referee_is_a_typed_one_round_failure() {
        // Borůvka cannot finish on a path in one round: the one-round view
        // of the cap-1 engine reports it as `Inconsistent`, never a panic.
        let g = generators::path(8);
        let report = MultiRoundSession::new(&BoruvkaConnectivity, &g, 1)
            .run(&mut PerfectTransport::new());
        let err = OneRoundReport::from(report).outcome.unwrap_err();
        assert!(matches!(&err, DecodeError::Inconsistent(m) if m.contains("round 1")), "{err}");
    }
}
