//! Sharding for the **multi-round** referee: per-round mergeable uplink
//! assembly, so Borůvka-style [`MultiRoundProtocol`]s scale out the same
//! way the one-round wait does.
//!
//! The one-round [`RefereeShard`] splits §I.B's
//! "wait for one message per vertex" across balanced ID ranges. A
//! multi-round referee runs that wait once per round: before every
//! [`referee_step`](MultiRoundProtocol::referee_step) it must hold the
//! complete round-`r` uplink vector. This module is the same split,
//! round-stamped:
//!
//! * [`RoundShard`] — shard `i` of `k` ingests its ID range's uplinks
//!   **for one round** (any order; duplicates and strays classified
//!   exactly like the one-round shard).
//! * [`RoundPartialState`] — a shard's serializable per-round summary.
//!   `merge` is commutative and associative and refuses to mix rounds
//!   (or network sizes), so any merge tree over one round's shards
//!   reproduces the exact uplink vector `referee_step` would have seen —
//!   bit for bit, pinned by property tests.
//! * [`run_multiround_sharded`] — the driver: each round's uplinks are
//!   routed into `k` shards, the partials merge, the merged state
//!   finishes into the uplink vector, and the protocol's `referee_step`
//!   runs on it. [`run_multiround`](crate::multiround::run_multiround)
//!   is literally the `k = 1` special case of this function.
//!
//! The wire layout of a [`RoundPartialState`] is its round (32 bits)
//! followed by the one-round [`PartialState`] layout, so cross-shard
//! exchanges (simnet envelopes, wirenet `Partial` frames) carry the
//! round *inside* the authenticated payload — a partial can never be
//! replayed into a different round undetected.

use super::{shard_of, Arrival, PartialState, RefereeShard, ShardRange};
use crate::multiround::{MultiRoundProtocol, MultiRoundStats, RefereeStep};
use crate::{DecodeError, Message, NodeView};
use referee_graph::{LabelledGraph, VertexId};

/// One shard of a single round's referee wait: a
/// [`RefereeShard`] plus the round it collects for.
#[derive(Debug, Clone)]
pub struct RoundShard {
    round: u32,
    inner: RefereeShard,
}

impl RoundShard {
    /// Shard `index` of `shards` for round `round` of a size-`n` network.
    pub fn new(n: usize, shards: usize, index: usize, round: u32) -> RoundShard {
        RoundShard { round, inner: RefereeShard::new(n, shards, index) }
    }

    /// The round this shard collects uplinks for.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The ID range this shard owns.
    pub fn range(&self) -> ShardRange {
        self.inner.range()
    }

    /// Whether every node in the range has a recorded uplink.
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// Whether a fault was recorded (the round's verdict is already an
    /// error whatever else arrives).
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Absorb one round-`r` uplink (same classification contract as
    /// [`RefereeShard::ingest`](super::RefereeShard::ingest)).
    pub fn ingest(
        &mut self,
        sender: VertexId,
        payload: Message,
    ) -> Result<Arrival, DecodeError> {
        self.inner.ingest(sender, payload)
    }

    /// Record `sender` as duplicated for this round.
    pub fn note_duplicate(&mut self, sender: VertexId) {
        self.inner.note_duplicate(sender);
    }

    /// The uplink recorded for `sender` this round, if any (what an
    /// accountability layer signs as the original of an equivocation
    /// pair — see [`crate::evidence`]).
    pub fn message_for(&self, sender: VertexId) -> Option<&Message> {
        self.inner.message_for(sender)
    }

    /// The shard's per-round summary, ready to exchange and merge.
    pub fn into_partial(self) -> RoundPartialState {
        RoundPartialState { round: self.round, inner: self.inner.into_partial() }
    }
}

/// A mergeable, serializable summary of one round's uplinks, as absorbed
/// by one shard (or any merged set of one round's shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPartialState {
    round: u32,
    inner: PartialState,
}

impl RoundPartialState {
    /// An empty summary for round `round` of a size-`n` network.
    pub fn new(n: usize, round: u32) -> RoundPartialState {
        RoundPartialState { round, inner: PartialState::new(n) }
    }

    /// The network size this summary is for.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// The round this summary is for.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Distinct senders recorded so far.
    pub fn arrivals(&self) -> usize {
        self.inner.arrivals()
    }

    /// Whether a fault (out-of-range or duplicated sender) was recorded.
    pub fn poisoned(&self) -> bool {
        self.inner.poisoned()
    }

    /// Record an out-of-range sender directly (min-tracked).
    pub fn note_out_of_range(&mut self, sender: VertexId) {
        self.inner.note_out_of_range(sender);
    }

    /// Record a duplicated sender directly (min-tracked).
    pub fn note_duplicate(&mut self, sender: VertexId) {
        self.inner.note_duplicate(sender);
    }

    /// Fold `other` into `self` — commutative and associative up to the
    /// [`finish`](RoundPartialState::finish) verdict, like the one-round
    /// merge. Errors if the summaries describe different network sizes
    /// **or different rounds** (a cross-round merge would let a replayed
    /// partial rewrite history).
    pub fn merge(&mut self, other: RoundPartialState) -> Result<(), DecodeError> {
        if self.round != other.round {
            return Err(DecodeError::Inconsistent(format!(
                "cannot merge partial states for round {} and round {}",
                self.round, other.round
            )));
        }
        self.inner.merge(other.inner)
    }

    /// The canonical verdict for this round: out-of-range sender, then
    /// duplicate, then missing node — smallest offender first — else the
    /// complete ID-ordered uplink vector, exactly the input
    /// [`referee_step`](MultiRoundProtocol::referee_step) expects.
    pub fn finish(self) -> Result<Vec<Message>, DecodeError> {
        self.inner.finish()
    }

    /// Serialize: `round:32` followed by the one-round
    /// [`PartialState::encode`] layout.
    pub fn encode(&self) -> Message {
        let mut w = crate::BitWriter::new();
        w.write_bits(self.round as u64, 32);
        self.inner.encode_into(&mut w);
        Message::from_writer(w)
    }

    /// Deserialize a summary produced by
    /// [`encode`](RoundPartialState::encode), validating every field the
    /// one-round decoder validates; the round is returned in the summary
    /// for the caller to check against its own expectation.
    pub fn decode(expected_n: usize, msg: &Message) -> Result<RoundPartialState, DecodeError> {
        let mut r = msg.reader();
        let round = r.read_bits(32)? as u32;
        let inner = PartialState::decode_from(expected_n, &mut r)?;
        Ok(RoundPartialState { round, inner })
    }
}

/// Execute a multi-round protocol on `g` with the referee's per-round
/// wait split across `shards` mergeable shards (clamped to at least 1),
/// up to `max_rounds`. Returns `None` as output if the referee never
/// finished — the same contract as
/// [`run_multiround`](crate::multiround::run_multiround), which is the
/// one-shard special case of this function.
///
/// Every round: node sends run first; each uplink is routed to the
/// shard owning its sender ([`shard_of`]); the `k` per-round partials
/// merge (a left fold here — merge-shape invariance is pinned by
/// property tests) and finish into the exact uplink vector the
/// monolithic referee would have assembled; `referee_step` runs on it.
pub fn run_multiround_sharded<P: MultiRoundProtocol>(
    protocol: &P,
    g: &LabelledGraph,
    shards: usize,
    max_rounds: usize,
) -> (Option<P::Output>, MultiRoundStats) {
    let n = g.n();
    let k = shards.max(1);
    let mut node_states: Vec<P::NodeState> = (1..=n as u32)
        .map(|v| protocol.node_init(NodeView::new(n, v, g.neighbourhood(v))))
        .collect();
    let mut referee_state = protocol.referee_init(n);
    let mut stats = MultiRoundStats {
        n,
        rounds: 0,
        max_uplink_bits: 0,
        max_downlink_bits: 0,
        max_link_bits: 0,
    };

    for round in 1..=max_rounds {
        stats.rounds = round;
        // Phase 1: sends. Uplinks route straight into their owning shard.
        let mut round_shards: Vec<RoundShard> =
            (0..k).map(|i| RoundShard::new(n, k, i, round as u32)).collect();
        let mut inbox: Vec<Vec<(VertexId, Message)>> = vec![Vec::new(); n];
        for v in 1..=n as u32 {
            let view = NodeView::new(n, v, g.neighbourhood(v));
            let (to_nbrs, up) = protocol.node_send(&node_states[(v - 1) as usize], view, round);
            stats.max_uplink_bits = stats.max_uplink_bits.max(up.len_bits());
            round_shards[shard_of(n, k, v)]
                .ingest(v, up)
                .expect("honest uplink routed to its owning shard");
            for (target, msg) in to_nbrs {
                assert!(
                    g.has_edge(v, target),
                    "node {v} tried to message non-neighbour {target}"
                );
                stats.max_link_bits = stats.max_link_bits.max(msg.len_bits());
                inbox[(target - 1) as usize].push((v, msg));
            }
        }
        // Phase 2: cross-shard merge, then the referee step on the
        // reassembled uplink vector.
        let mut acc = RoundPartialState::new(n, round as u32);
        for shard in round_shards {
            acc.merge(shard.into_partial()).expect("same network size and round");
        }
        let uplinks = acc.finish().expect("every node uplinked exactly once");
        let downlinks = match protocol.referee_step(&mut referee_state, n, round, &uplinks) {
            RefereeStep::Done(out) => return (Some(out), stats),
            RefereeStep::Continue(d) => {
                assert_eq!(d.len(), n, "referee must answer every node");
                d
            }
        };
        for d in &downlinks {
            stats.max_downlink_bits = stats.max_downlink_bits.max(d.len_bits());
        }
        // Phase 3: receives.
        for v in 1..=n as u32 {
            let i = (v - 1) as usize;
            inbox[i].sort_by_key(|&(from, _)| from);
            let view = NodeView::new(n, v, g.neighbourhood(v));
            protocol.node_receive(&mut node_states[i], view, round, &inbox[i], &downlinks[i]);
        }
    }
    (None, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiround::{boruvka_connectivity, BoruvkaConnectivity, BoruvkaSpanningForest};
    use crate::BitWriter;
    use referee_graph::{algo, generators, LabelledGraph};

    fn msg(value: u64, width: u32) -> Message {
        let mut w = BitWriter::new();
        w.write_bits(value, width);
        Message::from_writer(w)
    }

    #[test]
    fn round_partials_round_trip_and_pin_their_round() {
        let mut s = RoundShard::new(6, 2, 1, 7);
        let r = s.range();
        for v in r.lo..=r.hi {
            s.ingest(v, msg(v as u64, 9)).unwrap();
        }
        assert!(s.is_complete());
        let p = s.into_partial();
        assert_eq!(p.round(), 7);
        let decoded = RoundPartialState::decode(6, &p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn cross_round_merge_is_rejected() {
        let mut a = RoundPartialState::new(4, 1);
        let b = RoundPartialState::new(4, 2);
        match a.merge(b) {
            Err(DecodeError::Inconsistent(m)) => assert!(m.contains("round"), "{m}"),
            other => panic!("cross-round merge must fail, got {other:?}"),
        }
    }

    #[test]
    fn truncations_never_decode() {
        let mut s = RoundShard::new(5, 1, 0, 3);
        for v in 1..=5u32 {
            s.ingest(v, msg(v as u64, 11)).unwrap();
        }
        let enc = s.into_partial().encode();
        for cut in 0..enc.len_bits() {
            let mut w = BitWriter::new();
            let mut rd = enc.reader();
            for _ in 0..cut {
                w.push_bit(rd.read_bit().unwrap());
            }
            assert!(RoundPartialState::decode(5, &Message::from_writer(w)).is_err());
        }
    }

    #[test]
    fn sharded_driver_matches_monolithic_boruvka() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(404);
        for _ in 0..10 {
            let g = generators::gnp(30, 0.08, &mut rng);
            let (mono, mono_stats) = boruvka_connectivity(&g);
            for k in 1..=8usize {
                let (out, stats) =
                    run_multiround_sharded(&BoruvkaConnectivity, &g, k, 4 * 8 + 8);
                let verdict = out.expect("terminates").expect("honest run decodes");
                assert_eq!(verdict, mono, "k={k}");
                assert_eq!(verdict, algo::is_connected(&g), "k={k} vs centralized");
                assert_eq!(stats.rounds, mono_stats.rounds, "k={k}");
                assert_eq!(stats.max_uplink_bits, mono_stats.max_uplink_bits, "k={k}");
                assert_eq!(stats.max_downlink_bits, mono_stats.max_downlink_bits, "k={k}");
                assert_eq!(stats.max_link_bits, mono_stats.max_link_bits, "k={k}");
            }
        }
    }

    #[test]
    fn sharded_driver_matches_monolithic_forest() {
        use rand::{rngs::StdRng, SeedableRng};
        let g = generators::gnp(24, 0.1, &mut StdRng::seed_from_u64(17));
        let (mono, _) = crate::multiround::run_multiround(&BoruvkaSpanningForest, &g, 64);
        for k in [2usize, 5, 8] {
            let (out, _) = run_multiround_sharded(&BoruvkaSpanningForest, &g, k, 64);
            assert_eq!(out.unwrap().unwrap(), mono.clone().unwrap().unwrap(), "k={k}");
        }
    }

    #[test]
    fn trivial_sizes_run_under_any_shard_count() {
        for k in [1usize, 3, 8] {
            let (out, _) =
                run_multiround_sharded(&BoruvkaConnectivity, &LabelledGraph::new(0), k, 16);
            assert!(out.unwrap().unwrap());
            let (out, _) =
                run_multiround_sharded(&BoruvkaConnectivity, &LabelledGraph::new(1), k, 16);
            assert!(out.unwrap().unwrap());
            let (out, _) =
                run_multiround_sharded(&BoruvkaConnectivity, &LabelledGraph::new(2), k, 16);
            assert!(!out.unwrap().unwrap());
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let g = generators::path(9);
        let (out, _) = run_multiround_sharded(&BoruvkaConnectivity, &g, 0, 40);
        assert!(out.unwrap().unwrap());
    }
}
