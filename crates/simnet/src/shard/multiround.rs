//! Sharded **multi-round** sessions: every round's referee wait split
//! across [`RoundShard`]s that exchange [`RoundPartialState`] summaries
//! *through the transport* before each `referee_step`.
//!
//! A [`ShardedMultiRoundSession`] runs the same protocol as a
//! [`MultiRoundSession`](crate::MultiRoundSession) but collects each
//! round's uplinks into `k` per-round shard states (routed by the
//! balanced ID partition of `referee_protocol::shard`) and then runs a
//! **cross-shard exchange phase**: every shard serializes its round
//! partial and ships it as an envelope addressed from a synthetic shard
//! ID (`n + 1 + index` — outside the node ID space, so shard traffic
//! and node traffic can never be confused), in an order scrambled by a
//! seed. The collector copes with out-of-order, duplicated and
//! corrupted partials exactly the way it copes with node traffic, and
//! the round stamp — carried both on the envelope and *inside* the
//! encoded partial — keeps every exchange pinned to its round: a
//! replayed partial from another round fails the merge instead of
//! rewriting history.
//!
//! Delivery semantics match [`MultiRoundSession`](crate::MultiRoundSession)
//! bit for bit on every lossless transport (pinned by tests): identical
//! duplicates are absorbed, conflicting ones fail the session while
//! their round is open (after the round's exchange they are committed
//! history, dropped uncompared), loss is starvation, corruption flows
//! to the decoders. Two stamps fail the session outright, so hostile
//! traffic can neither hide in nor grow the round buffers: a round
//! outside `1..=max_rounds` (`Invalid`), and a synthetic shard sender
//! whose round has not run its exchange yet — it cannot be one of the
//! session's own partials (`OutOfRange`). The frugality stats count
//! node traffic only; exchange overhead is reported separately in
//! [`ShardedMultiRoundReport::exchange_bits`].
//!
//! With `max_rounds = 1` and
//! [`OneRoundAsMultiRound`](referee_protocol::combinators::OneRoundAsMultiRound)
//! this is the sharded one-round session (see the [parent
//! module](crate::shard)).

use crate::clock::{real_clock, SharedClock};
use crate::metrics::SessionMetrics;
use crate::session::{lazy_slots, Step};
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

/// One round's mailboxes, the sharded analogue of the unsharded
/// session's round buffer: uplinks land directly in their owning shard,
/// exchange partials in the merge accumulator, downlinks and link
/// messages in the same slots as before. `downlinks` and `inbox` follow
/// [`lazy_slots`].
struct ShardRoundBuf {
    shards: Vec<Option<RoundShard>>,
    uplinks_filled: usize,
    /// Set once this round's shards emitted their partials: uplink
    /// stragglers arriving later are committed history.
    exchanged: bool,
    /// Partial envelopes already absorbed, by shard index (idempotent
    /// duplicate handling during the exchange).
    partial_seen: Vec<Option<Message>>,
    merged: usize,
    acc: RoundPartialState,
    downlinks: Vec<Option<Message>>,
    downlinks_filled: usize,
    inbox: Vec<Vec<(VertexId, Message)>>,
    inbox_count: usize,
}

impl ShardRoundBuf {
    fn new(n: usize, k: usize, round: u32) -> Self {
        ShardRoundBuf {
            shards: (0..k).map(|i| Some(RoundShard::new(n, k, i, round))).collect(),
            uplinks_filled: 0,
            exchanged: false,
            partial_seen: vec![None; k],
            merged: 0,
            acc: RoundPartialState::new(n, round),
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
    Exchange,
    CollectPartials,
    AwaitReceive,
    Finished,
}

/// A multi-round protocol execution whose referee wait is split across
/// `k` mergeable per-round shards (see the module docs).
pub struct ShardedMultiRoundSession<'a, P: MultiRoundProtocol> {
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
    current: ShardRoundBuf,
    /// Mailboxes of later rounds, by round: the early-message cache that
    /// makes cross-round reordering harmless, bounded to `max_rounds`
    /// entries by the round-stamp rule.
    early: BTreeMap<u32, ShardRoundBuf>,
    links_expected: usize,
    /// Duplicate-target detection per send, as in the unsharded session
    /// ([`lazy_slots`], `n + 1`).
    link_seen: Vec<u64>,
    link_epoch: u64,
    /// Start of the current round, timed as in the unsharded session:
    /// from construction for round 1, from the send step after that.
    round_started: f64,
    outcome: Option<Result<Option<P::Output>, DecodeError>>,
    metrics: SessionMetrics,
    mr_stats: MultiRoundStats,
}

impl<'a, P: MultiRoundProtocol> ShardedMultiRoundSession<'a, P> {
    /// A fresh session with `shards` referee shards (clamped to at
    /// least 1); `max_rounds` is the safety stop, as in
    /// [`MultiRoundSession`](crate::MultiRoundSession).
    pub fn new(
        protocol: &'a P,
        graph: &'a LabelledGraph,
        shards: usize,
        max_rounds: usize,
    ) -> Self {
        let n = graph.n();
        let node_states: Vec<P::NodeState> = (1..=n as u32)
            .map(|v| protocol.node_init(NodeView::new(n, v, graph.neighbourhood(v))))
            .collect();
        let referee_state = protocol.referee_init(n);
        let clock = real_clock();
        ShardedMultiRoundSession {
            protocol,
            graph,
            session: SessionId::default(),
            round_started: clock.now(),
            clock,
            max_rounds,
            k: shards.max(1),
            exchange_seed: 0,
            exchange_bits: 0,
            node_states,
            referee_state,
            round: 1,
            phase: Phase::NodeSend,
            current: ShardRoundBuf::new(n, shards.max(1), 1),
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

    /// Number of referee shards.
    pub fn shards(&self) -> usize {
        self.k
    }

    /// Tag this session's envelopes with `id` (multiplexing); inbound
    /// envelopes carrying any other id fail the run as a demux fault.
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

    /// Scramble the per-round order shards emit their partials with
    /// `seed` — merge is commutative, and a seeded shuffle proves the
    /// exchange order immaterial on every run.
    pub fn with_exchange_seed(mut self, seed: u64) -> Self {
        self.exchange_seed = seed;
        self
    }

    /// Advance as far as deliverable traffic allows.
    pub fn step(&mut self, transport: &mut impl Transport) -> Step {
        match self.phase {
            Phase::NodeSend => self.step_send(transport),
            Phase::AwaitUplinks => self.step_uplinks(transport),
            Phase::Exchange => self.step_exchange(transport),
            Phase::CollectPartials => self.step_collect_partials(transport),
            Phase::AwaitReceive => self.step_receive(transport),
            Phase::Finished => Step::Done,
        }
    }

    /// Drive to completion on `transport`.
    pub fn run(mut self, transport: &mut impl Transport) -> ShardedMultiRoundReport<P::Output> {
        while self.step(transport) == Step::Running {}
        self.into_report(transport)
    }

    /// The outcome, metrics and stats; call after `step` returns
    /// [`Step::Done`].
    pub fn into_report(
        mut self,
        transport: &impl Transport,
    ) -> ShardedMultiRoundReport<P::Output> {
        let outcome = self.outcome.take().expect("session not finished");
        self.metrics.transport.merge(&transport.counters());
        ShardedMultiRoundReport {
            outcome,
            metrics: self.metrics,
            stats: self.mr_stats,
            shards: self.k,
            exchange_bits: self.exchange_bits,
        }
    }

    /// The mailboxes of `round`, the current round or a later one.
    fn buf(&mut self, round: u32) -> &mut ShardRoundBuf {
        if round == self.round {
            return &mut self.current;
        }
        let (n, k) = (self.graph.n(), self.k);
        self.early.entry(round).or_insert_with(|| ShardRoundBuf::new(n, k, round))
    }

    /// Classify one arrival into its round buffer (see
    /// [`MultiRoundSession`](crate::MultiRoundSession) for the shared
    /// delivery semantics; shard partials are the addition here).
    fn classify(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let n = self.graph.n();
        let k = self.k;
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
            // Synthetic shard IDs n+1..=n+k address the cross-shard
            // exchange; anything beyond is an unknown sender.
            if env.to == REFEREE && (env.from as usize) <= n + k {
                return self.classify_partial(env);
            }
            return Err(DecodeError::OutOfRange(format!(
                "message from unknown node {} (n = {n})",
                env.from
            )));
        }
        if env.to == REFEREE {
            // Uplink: route straight into the owning shard.
            let buf = self.buf(env.round);
            if buf.exchanged {
                // Stragglers behind this round's exchange are committed
                // history — the shards already shipped their partials —
                // and are dropped uncompared.
                self.metrics.transport.stale += 1;
                return Ok(());
            }
            let shard = buf.shards[shard_of(n, k, env.from)]
                .as_mut()
                .expect("shards live until the exchange");
            return match shard.ingest(env.from, env.payload) {
                Ok(Arrival::Fresh) => {
                    buf.uplinks_filled += 1;
                    Ok(())
                }
                Ok(Arrival::Duplicate { identical: true }) => {
                    self.metrics.transport.stale += 1;
                    Ok(())
                }
                Ok(Arrival::Duplicate { identical: false }) => Err(DecodeError::Inconsistent(
                    format!("conflicting duplicate uplink from node {}", env.from),
                )),
                // Out-of-range was rejected above; a routing error here
                // is a bug in this session, surfaced loudly.
                Ok(Arrival::OutOfRange) | Err(_) => Err(DecodeError::Invalid(format!(
                    "misrouted arrival from node {}",
                    env.from
                ))),
            };
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

    /// Absorb one cross-shard exchange partial.
    fn classify_partial(&mut self, env: Envelope) -> Result<(), DecodeError> {
        let n = self.graph.n();
        let idx = env.from as usize - n - 1;
        // Partials exist only once their round has run its exchange;
        // before that a shard sender is a forged node ID. Only the
        // current round can have exchanged.
        if env.round != self.round || !self.current.exchanged {
            return Err(DecodeError::OutOfRange(format!(
                "message from unknown node {} (n = {n})",
                env.from
            )));
        }
        let buf = &mut self.current;
        match &buf.partial_seen[idx] {
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
        let partial = RoundPartialState::decode(n, &env.payload)?;
        if partial.round() != env.round {
            return Err(DecodeError::Invalid(format!(
                "round-{} partial delivered in a round-{} envelope",
                partial.round(),
                env.round
            )));
        }
        buf.partial_seen[idx] = Some(env.payload);
        buf.acc.merge(partial)?;
        buf.merged += 1;
        Ok(())
    }

    /// Pull envelopes until `ready` holds or the transport drains.
    fn pump(
        &mut self,
        transport: &mut impl Transport,
        ready: impl Fn(&ShardRoundBuf, usize) -> bool,
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
        self.phase = Phase::Exchange;
        Step::Running
    }

    fn step_exchange(&mut self, transport: &mut impl Transport) -> Step {
        // Emit every shard's round partial in a seeded order; all
        // partials cross the transport — exposed to the same faults as
        // node traffic — addressed from the synthetic shard IDs.
        let n = self.graph.n();
        let k = self.k;
        let round = self.round;
        let mut order: Vec<usize> = (0..k).collect();
        let seed = self.exchange_seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        for idx in order {
            let shard = self.current.shards[idx].take().expect("exchange runs once per round");
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
        self.current.exchanged = true;
        self.phase = Phase::CollectPartials;
        Step::Running
    }

    fn step_collect_partials(&mut self, transport: &mut impl Transport) -> Step {
        let n = self.graph.n();
        let k = self.k;
        match self.pump(transport, |buf, _| buf.merged == k) {
            Err(e) => return self.finish(Err(e)),
            Ok(false) => {
                let missing = k - self.current.merged;
                return self.finish(Err(DecodeError::Inconsistent(format!(
                    "transport drained with {missing} of {k} round-{} shard partials missing",
                    self.round
                ))));
            }
            Ok(true) => {}
        }
        let acc = std::mem::replace(&mut self.current.acc, RoundPartialState::new(0, 0));
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
        let next = self
            .early
            .remove(&next_round)
            .unwrap_or_else(|| ShardRoundBuf::new(n, k, next_round));
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

/// Outcome of a sharded multi-round session.
#[derive(Debug)]
pub struct ShardedMultiRoundReport<O> {
    /// `Ok(Some(out))` when the referee finished, `Ok(None)` when the
    /// round cap was hit, `Err` on decode/delivery failure.
    pub outcome: Result<Option<O>, DecodeError>,
    /// Runtime metrics. The frugality stats count node traffic only, so
    /// they match the unsharded session exactly.
    pub metrics: SessionMetrics,
    /// Per-link-class message-size stats, identical to the unsharded
    /// session's.
    pub stats: MultiRoundStats,
    /// Shard count the session ran with.
    pub shards: usize,
    /// Total bits of serialized round partials shipped in the exchanges
    /// (all rounds).
    pub exchange_bits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultyTransport};
    use crate::session::MultiRoundSession;
    use crate::transport::PerfectTransport;
    use referee_graph::{algo, generators};
    use referee_protocol::multiround::BoruvkaConnectivity;

    #[test]
    fn matches_unsharded_session_bit_for_bit() {
        for g in [
            generators::petersen(),
            generators::path(17),
            generators::path(4).disjoint_union(&generators::path(5)),
            generators::grid(3, 6),
            LabelledGraph::new(0),
            LabelledGraph::new(1),
        ] {
            let mut perfect = PerfectTransport::new();
            let mono = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).run(&mut perfect);
            let mono_out = mono.outcome.unwrap();
            for k in 1..=8usize {
                let mut t = PerfectTransport::new();
                let sharded = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, k, 64)
                    .with_exchange_seed(k as u64 * 131)
                    .run(&mut t);
                assert_eq!(sharded.outcome.unwrap(), mono_out, "k={k}, n={}", g.n());
                assert_eq!(sharded.stats, mono.stats, "k={k}: stats must be identical");
                assert_eq!(
                    sharded.metrics.stats.total_message_bits,
                    mono.metrics.stats.total_message_bits,
                    "k={k}: frugality accounting must ignore the exchange"
                );
                assert_eq!(sharded.shards, k);
                assert!(sharded.exchange_bits > 0, "partials always carry headers");
            }
        }
    }

    #[test]
    fn exchange_order_is_immaterial() {
        let g = generators::grid(4, 4);
        let mut outcomes = Vec::new();
        for seed in 0..12u64 {
            let mut t = PerfectTransport::new();
            let r = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, 5, 64)
                .with_exchange_seed(seed)
                .run(&mut t);
            outcomes.push(r.outcome.unwrap());
        }
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn dup_and_reorder_are_absorbed_bit_for_bit() {
        // No loss, no corruption: duplication and cross-round reordering
        // must be invisible — same verdict as the perfect run.
        for seed in 0..24u64 {
            let g = generators::gnp(
                10 + (seed % 7) as usize,
                0.22,
                &mut rand::rngs::StdRng::seed_from_u64(seed),
            );
            let mut perfect = PerfectTransport::new();
            let mono = MultiRoundSession::new(&BoruvkaConnectivity, &g, 64).run(&mut perfect);
            let cfg = FaultConfig {
                seed,
                loss: 0.0,
                duplication: 0.2,
                reorder: 0.3,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            let r = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, 3, 64)
                .with_exchange_seed(seed)
                .run(&mut t);
            assert_eq!(r.outcome.unwrap(), mono.outcome.unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn faulty_transport_never_fabricates() {
        // Under loss every completed run is exact; lost traffic rejects.
        let mut completed = 0usize;
        let mut rejected = 0usize;
        for seed in 0..60u64 {
            let g = generators::gnp(
                9 + (seed % 8) as usize,
                0.25,
                &mut rand::rngs::StdRng::seed_from_u64(seed ^ 0xabc),
            );
            let cfg = FaultConfig {
                seed,
                loss: 0.004,
                duplication: 0.1,
                reorder: 0.2,
                corruption: 0.0,
            };
            let mut t = FaultyTransport::new(PerfectTransport::new(), cfg);
            let r = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, 4, 64)
                .with_exchange_seed(seed)
                .run(&mut t);
            match r.outcome {
                Ok(out) => {
                    let verdict = out.expect("cap is generous").expect("honest bits decode");
                    assert_eq!(verdict, algo::is_connected(&g), "seed {seed} fabricated");
                    completed += 1;
                }
                Err(_) => rejected += 1,
            }
        }
        assert!(completed > 0, "some runs must survive 0.4% loss");
        assert!(rejected > 0, "some runs must lose an envelope");
    }

    #[test]
    fn lost_partial_is_detected_as_starvation() {
        // Drop every exchange envelope (synthetic shard senders): the
        // collector must starve loudly, never hang or fabricate.
        struct DropPartials<T: Transport>(T, usize);
        impl<T: Transport> Transport for DropPartials<T> {
            fn send(&mut self, env: Envelope) {
                if (env.from as usize) <= self.1 {
                    self.0.send(env);
                }
            }
            fn recv(&mut self) -> Option<Envelope> {
                self.0.recv()
            }
            fn counters(&self) -> crate::metrics::TransportCounters {
                self.0.counters()
            }
        }
        let g = generators::grid(3, 3);
        let mut t = DropPartials(PerfectTransport::new(), g.n());
        let r = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, 3, 64).run(&mut t);
        let err = r.outcome.unwrap_err();
        assert!(format!("{err}").contains("shard partials missing"), "{err}");
    }

    #[test]
    fn corrupted_partial_is_rejected() {
        // Flip one bit of every exchange payload — the round stamp's LSB
        // (bit 31) or a bit inside the embedded `n` field (bit 42): the
        // decoder (round mismatch or structural damage) must reject.
        struct CorruptPartials<T: Transport>(T, usize, usize);
        impl<T: Transport> Transport for CorruptPartials<T> {
            fn send(&mut self, mut env: Envelope) {
                if (env.from as usize) > self.1 {
                    env.payload = env.payload.with_bit_flipped(self.2);
                }
                self.0.send(env);
            }
            fn recv(&mut self) -> Option<Envelope> {
                self.0.recv()
            }
            fn counters(&self) -> crate::metrics::TransportCounters {
                self.0.counters()
            }
        }
        let g = generators::grid(3, 4);
        for bit in [31, 42] {
            let mut t = CorruptPartials(PerfectTransport::new(), g.n(), bit);
            let r = ShardedMultiRoundSession::new(&BoruvkaConnectivity, &g, 2, 64).run(&mut t);
            assert!(r.outcome.is_err(), "bit {bit}: corrupted partial must reject");
        }
    }
}
