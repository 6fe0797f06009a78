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
//! # Shards
//!
//! The referee's per-round wait runs as `k` mergeable shards
//! ([`with_shards`](MultiRoundSession::with_shards), default 1; the
//! paper's referee is `k = 1`). Every uplink lands in the
//! [`RoundShard`] owning its sender (the balanced ID partition of
//! `referee_protocol::shard`). Once a round's uplinks are all in, the
//! round runs its exchange:
//!
//! * shard 0 sits with the collector, so its partial is merged **by
//!   value** — it *becomes* the round's accumulator;
//! * shards `1..k` serialize their [`RoundPartialState`]s and ship them
//!   through the transport as same-round envelopes from the synthetic
//!   senders `n + 2..=n + k` (outside the node ID space), in an order
//!   scrambled by [`with_exchange_seed`](MultiRoundSession::with_exchange_seed);
//! * the collector merges each arriving partial into the accumulator
//!   and, once all `k − 1` are in, finishes it into the exact uplink
//!   vector `referee_step` expects.
//!
//! At `k = 1` nothing crosses the transport for the exchange, so a
//! session sends exactly the node and referee traffic of the protocol.
//! The round stamp travels on the envelope *and* inside each encoded
//! partial, so a partial replayed into another round fails the merge.
//! The frugality stats count node traffic only; exchange overhead is
//! reported as [`MultiRoundReport::exchange_bits`].
//!
//! # Delivery semantics
//!
//! * **Out-of-order arrivals** are fine: envelopes are round-stamped and
//!   buffered until their consumer phase runs (the early-message cache).
//! * **Duplicates** are fine *if identical*: at-least-once delivery is
//!   made idempotent by content comparison; the copy is counted as
//!   `stale`. A duplicate that *differs* from the recorded original
//!   fails the session with [`DecodeError::Inconsistent`] while its
//!   round is open.
//! * **Stragglers.** A late uplink is compared against its shard while
//!   the round collects, and against the merged uplink vector the
//!   referee stepped on (kept when the referee continues) until the
//!   round advances: identical is `stale`, conflicting fails the
//!   session. The only window without a comparison is while `k ≥ 2`
//!   partials are in flight, where a late uplink is dropped uncompared
//!   (its shard already shipped). Traffic of rounds the session has
//!   advanced past is committed history: counted stale, dropped.
//! * **Stray senders and stamps** fail the session: an envelope stamped
//!   `0` or past the round cap can belong to no round of this session
//!   ([`DecodeError::Invalid`]); a sender past `n` that is not a
//!   shipping shard of a round that has run its exchange is an unknown
//!   node ([`DecodeError::OutOfRange`]) — in particular `n + 1`, shard
//!   0's ID, never sends. The future-round buffers stay bounded by the
//!   round cap.
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
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use referee_graph::{LabelledGraph, VertexId};
use referee_protocol::multiround::{MultiRoundProtocol, MultiRoundStats, RefereeStep};
use referee_protocol::shard::multiround::{RoundPartialState, RoundShard};
use referee_protocol::shard::{shard_of, Arrival};
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

/// A per-node slot vector allocated on first use, so a round that never
/// needs it (the downlinks and inboxes of the round a referee ends on,
/// the link-seen table of a protocol without link messages) costs
/// nothing.
fn lazy_slots<T: Clone + Default>(slots: &mut Vec<T>, len: usize) -> &mut [T] {
    if slots.is_empty() {
        slots.resize(len, T::default());
    }
    slots
}

/// Where a round's uplinks are in the referee's wait.
enum Uplinks {
    /// Arriving: each lands in the shard owning its sender — shard 0,
    /// which sits with the collector, or one of shards `1..k`.
    Collecting { first: RoundShard, rest: Vec<RoundShard> },
    /// Shard 0's partial, merging the `k − 1` shipped ones.
    Merging(RoundPartialState),
    /// The uplink vector the referee stepped on.
    Committed(Vec<Message>),
}

/// One round's mailboxes. `partials`, `downlinks` and `inbox` follow
/// [`lazy_slots`].
struct Mailboxes {
    uplinks: Uplinks,
    uplinks_filled: usize,
    /// Exchange payloads absorbed, by shipping shard (`partials[i - 1]`
    /// for shard `i`), so re-deliveries compare by content.
    partials: Vec<Option<Message>>,
    merged: usize,
    downlinks: Vec<Option<Message>>,
    downlinks_filled: usize,
    inbox: Vec<Vec<(VertexId, Message)>>,
    inbox_count: usize,
}

impl Mailboxes {
    fn new(n: usize, k: usize, round: u32) -> Self {
        Mailboxes {
            uplinks: Uplinks::Collecting {
                first: RoundShard::new(n, k, 0, round),
                rest: (1..k).map(|i| RoundShard::new(n, k, i, round)).collect(),
            },
            uplinks_filled: 0,
            partials: Vec::new(),
            merged: 0,
            downlinks: Vec::new(),
            downlinks_filled: 0,
            inbox: Vec::new(),
            inbox_count: 0,
        }
    }
}

enum Phase {
    NodeSend,
    AwaitUplinks,
    AwaitReceive,
    Finished,
}

/// A single execution of a [`MultiRoundProtocol`] as a state machine,
/// its referee wait split across `k` shards (see the module docs).
pub struct MultiRoundSession<'a, P: MultiRoundProtocol> {
    protocol: &'a P,
    graph: &'a LabelledGraph,
    session: SessionId,
    clock: SharedClock,
    max_rounds: usize,
    k: usize,
    exchange_seed: u64,
    exchange_bits: usize,
    node_states: Vec<P::NodeState>,
    referee_state: P::RefereeState,
    round: u32,
    phase: Phase,
    /// The current round's mailboxes.
    current: Mailboxes,
    /// Mailboxes of later rounds, by round: the early-message cache that
    /// makes reordering across round boundaries harmless. The round-stamp
    /// rule bounds it to `max_rounds` entries.
    early: BTreeMap<u32, Mailboxes>,
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
    /// A fresh one-shard session; `max_rounds` is the safety stop,
    /// mirroring [`referee_protocol::multiround::run_multiround`].
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
            k: 1,
            exchange_seed: 0,
            exchange_bits: 0,
            node_states,
            referee_state,
            round: 1,
            phase: Phase::NodeSend,
            current: Mailboxes::new(n, 1, 1),
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

    /// Split the referee's wait across `shards` shards (clamped to at
    /// least 1). Call before the first step.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.k = shards.max(1);
        self.current = Mailboxes::new(self.graph.n(), self.k, self.round);
        self
    }

    /// Scramble the per-round order shards `1..k` ship their partials
    /// with `seed` — merge is commutative, and a seeded shuffle proves
    /// the exchange order immaterial on every run.
    pub fn with_exchange_seed(mut self, seed: u64) -> Self {
        self.exchange_seed = seed;
        self
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
            Phase::NodeSend => self.step_send(transport),
            Phase::AwaitUplinks => self.step_uplinks(transport),
            Phase::AwaitReceive => self.step_receive(transport),
            Phase::Finished => Step::Done,
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
        MultiRoundReport {
            outcome,
            metrics: self.metrics,
            stats: self.mr_stats,
            shards: self.k,
            exchange_bits: self.exchange_bits,
        }
    }

    /// The mailboxes of `round`, the current round or a later one.
    fn buf(&mut self, round: u32) -> &mut Mailboxes {
        if round == self.round {
            return &mut self.current;
        }
        let (n, k) = (self.graph.n(), self.k);
        self.early.entry(round).or_insert_with(|| Mailboxes::new(n, k, round))
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
            // Shards 1..k ship from n+2..=n+k; shard 0 (n+1) never
            // sends, and anything else is an unknown sender.
            if env.to == REFEREE
                && env.from as usize >= n + 2
                && env.from as usize <= n + self.k
            {
                return self.classify_partial(env);
            }
            return Err(unknown_sender(env.from, n));
        }
        if env.to == REFEREE {
            return self.classify_uplink(env);
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

    /// Absorb one node uplink (the straggler rule of the module docs).
    #[inline(always)]
    fn classify_uplink(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let (n, k) = (self.graph.n(), self.k);
        let buf = self.buf(env.round);
        let identical = match &mut buf.uplinks {
            Uplinks::Collecting { first, rest } => {
                let shard = if first.range().contains(env.from) {
                    first
                } else {
                    &mut rest[shard_of(n, k, env.from) - 1]
                };
                match shard.ingest(env.from, env.payload) {
                    Ok(Arrival::Fresh) => {
                        buf.uplinks_filled += 1;
                        return Ok(());
                    }
                    Ok(Arrival::Duplicate { identical }) => identical,
                    // Out-of-range senders were rejected by the caller; a
                    // routing error here is a bug in this session, surfaced
                    // loudly.
                    Ok(Arrival::OutOfRange) | Err(_) => {
                        return Err(DecodeError::Invalid(format!(
                            "misrouted arrival from node {}",
                            env.from
                        )))
                    }
                }
            }
            // The straggler's shard already shipped its partial.
            Uplinks::Merging(_) => true,
            Uplinks::Committed(uplinks) => uplinks[(env.from - 1) as usize] == env.payload,
        };
        if !identical {
            return Err(DecodeError::Inconsistent(format!(
                "conflicting duplicate uplink from node {}",
                env.from
            )));
        }
        self.metrics.transport.stale += 1;
        Ok(())
    }

    /// Absorb one cross-shard exchange partial from shard `from − n − 1`.
    fn classify_partial(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let n = self.graph.n();
        let idx = env.from as usize - n - 1;
        // Partials exist only once their round has run its exchange;
        // before that a shard sender is a forged node ID. Only the
        // current round can have exchanged.
        let buf = &mut self.current;
        if env.round != self.round || matches!(buf.uplinks, Uplinks::Collecting { .. }) {
            return Err(unknown_sender(env.from, n));
        }
        let seen = &mut lazy_slots(&mut buf.partials, self.k - 1)[idx - 1];
        match seen {
            Some(existing) if *existing == env.payload => {
                self.metrics.transport.stale += 1;
                return Ok(());
            }
            Some(_) => {
                return Err(DecodeError::Inconsistent(format!(
                    "conflicting duplicate partial from shard {idx}"
                )));
            }
            None => {}
        }
        // Every shipped partial is absorbed before the round commits, so
        // a fresh one finds the accumulator.
        let Uplinks::Merging(acc) = &mut buf.uplinks else {
            unreachable!("an unseen partial after commit")
        };
        let partial = RoundPartialState::decode(n, &env.payload)?;
        if partial.round() != env.round {
            return Err(DecodeError::Invalid(format!(
                "round-{} partial delivered in a round-{} envelope",
                partial.round(),
                env.round
            )));
        }
        acc.merge(partial)?;
        *seen = Some(env.payload);
        buf.merged += 1;
        Ok(())
    }

    /// Pull envelopes until `ready` holds or the transport drains.
    /// Returns `Ok(true)` when ready, `Ok(false)` on starvation.
    fn pump(
        &mut self,
        transport: &mut impl Transport,
        ready: impl Fn(&Mailboxes, usize) -> bool,
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
        self.phase = Phase::AwaitUplinks;
        Step::Running
    }

    /// Collect the round's uplinks, run the exchange, merge the shipped
    /// partials and step the referee on the merged uplink vector.
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
        self.exchange(transport);
        let shipped = self.k - 1;
        match self.pump(transport, |buf, _| buf.merged == shipped) {
            Err(e) => return self.finish(Err(e)),
            Ok(false) => {
                let missing = shipped - self.current.merged;
                return self.finish(Err(DecodeError::Inconsistent(format!(
                    "transport drained with {missing} of {shipped} round-{} shard partials \
                     missing",
                    self.round
                ))));
            }
            Ok(true) => {}
        }
        let Uplinks::Merging(acc) =
            std::mem::replace(&mut self.current.uplinks, Uplinks::Committed(Vec::new()))
        else {
            unreachable!("the exchange leaves the round merging")
        };
        let uplinks = match acc.finish() {
            Ok(u) => u,
            Err(e) => return self.finish(Err(e)),
        };
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
                // Late uplinks of this round compare against these.
                self.current.uplinks = Uplinks::Committed(uplinks);
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
                self.phase = Phase::AwaitReceive;
                Step::Running
            }
        }
    }

    /// The round's exchange: shard 0's partial becomes the accumulator,
    /// shards `1..k` ship theirs in a seeded order from `n + 1 + index`.
    fn exchange(&mut self, transport: &mut impl Transport) {
        let n = self.graph.n();
        let round = self.round;
        let Uplinks::Collecting { first, rest } =
            std::mem::replace(&mut self.current.uplinks, Uplinks::Committed(Vec::new()))
        else {
            unreachable!("the exchange runs once per round")
        };
        self.current.uplinks = Uplinks::Merging(first.into_partial());
        let mut shipped: Vec<(usize, RoundShard)> = (1..).zip(rest).collect();
        let seed = self.exchange_seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        shipped.shuffle(&mut StdRng::seed_from_u64(seed));
        for (idx, shard) in shipped {
            let payload = shard.into_partial().encode();
            self.exchange_bits += payload.len_bits();
            transport.send(Envelope {
                session: self.session,
                round,
                from: (n + 1 + idx) as u32,
                to: REFEREE,
                payload,
            });
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
        let (k, next_round) = (self.k, self.round + 1);
        let next =
            self.early.remove(&next_round).unwrap_or_else(|| Mailboxes::new(n, k, next_round));
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
        self.phase = Phase::NodeSend;
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
        self.phase = Phase::Finished;
        Step::Done
    }
}

fn unknown_sender(from: VertexId, n: usize) -> DecodeError {
    DecodeError::OutOfRange(format!("message from unknown node {from} (n = {n})"))
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
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized partials shipped in the exchange.
    pub exchange_bits: usize,
}

impl<O> From<MultiRoundReport<O>> for OneRoundReport<O> {
    /// A referee that did not finish in round 1 is a typed failure,
    /// never a panic.
    fn from(report: MultiRoundReport<O>) -> Self {
        OneRoundReport {
            outcome: report.outcome.and_then(|out| {
                out.ok_or_else(|| {
                    DecodeError::Inconsistent("referee did not finish in round 1".into())
                })
            }),
            metrics: report.metrics,
            shards: report.shards,
            exchange_bits: report.exchange_bits,
        }
    }
}

/// Outcome of a multi-round session.
#[derive(Debug)]
pub struct MultiRoundReport<O> {
    /// `Ok(Some(out))` when the referee finished, `Ok(None)` when the
    /// round cap was hit, `Err` on decode/delivery failure.
    pub outcome: Result<Option<O>, DecodeError>,
    /// Runtime metrics. The frugality stats count node traffic only,
    /// whatever the shard count.
    pub metrics: SessionMetrics,
    /// Legacy-compatible per-link-class message-size stats.
    pub stats: MultiRoundStats,
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized round partials shipped in the exchanges
    /// (all rounds; 0 at one shard, whose partial merges by value).
    pub exchange_bits: usize,
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

    /// On the first round-1 downlink, delivers `extra(uplinks, n)`
    /// first, where `uplinks` are the round-1 uplinks sent so far.
    struct BeforeFirstDownlink {
        inner: PerfectTransport,
        uplinks: Vec<Envelope>,
        extra: fn(&[Envelope], usize) -> Envelope,
        n: usize,
        done: bool,
    }

    impl BeforeFirstDownlink {
        fn new(n: usize, extra: fn(&[Envelope], usize) -> Envelope) -> Self {
            BeforeFirstDownlink {
                inner: PerfectTransport::new(),
                uplinks: Vec::new(),
                extra,
                n,
                done: false,
            }
        }
    }

    impl Transport for BeforeFirstDownlink {
        fn send(&mut self, env: Envelope) {
            if env.round == 1 && env.to == REFEREE && (1..=self.n as u32).contains(&env.from) {
                self.uplinks.push(env.clone());
            }
            if !self.done && env.from == REFEREE {
                self.done = true;
                self.inner.send((self.extra)(&self.uplinks, self.n));
            }
            self.inner.send(env);
        }
        fn recv(&mut self) -> Option<Envelope> {
            self.inner.recv()
        }
        fn counters(&self) -> TransportCounters {
            self.inner.counters()
        }
    }

    #[test]
    fn conflicting_straggler_fails_after_the_referee_step() {
        // Node 1's round-1 uplink, re-delivered with a flipped bit while
        // the round's downlinks are in flight: the session compares it
        // against the uplink vector the referee stepped on, at any k.
        let g = generators::path(8);
        for k in [1, 3] {
            let mut t = BeforeFirstDownlink::new(g.n(), |uplinks, _| {
                let mut twin = uplinks[0].clone();
                twin.payload = twin.payload.with_bit_flipped(0);
                twin
            });
            let report =
                MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_shards(k).run(&mut t);
            let err = report.outcome.unwrap_err();
            assert!(
                matches!(&err, DecodeError::Inconsistent(m)
                    if m.contains("conflicting duplicate uplink from node 1")),
                "k={k}: {err}"
            );
        }
    }

    #[test]
    fn shard_zero_never_sends() {
        // Shard 0's round-1 partial, encoded and re-delivered from its
        // synthetic ID n + 1 after the exchange: shard 0 merges by
        // value, so that ID is an unknown sender.
        let g = generators::path(9);
        let mut t = BeforeFirstDownlink::new(g.n(), |uplinks, n| {
            let mut shard = RoundShard::new(n, 3, 0, 1);
            let range = shard.range();
            for env in uplinks.iter().filter(|e| range.contains(e.from)) {
                shard.ingest(env.from, env.payload.clone()).unwrap();
            }
            Envelope {
                from: n as u32 + 1,
                payload: shard.into_partial().encode(),
                ..uplinks[0].clone()
            }
        });
        let report =
            MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).with_shards(3).run(&mut t);
        let err = report.outcome.unwrap_err();
        assert!(
            matches!(&err, DecodeError::OutOfRange(m) if m.contains("unknown node 10")),
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
