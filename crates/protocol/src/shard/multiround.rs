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
//! # The round core
//!
//! Runtimes whose arrivals come in any order, to ranges on other
//! threads or hosts, run the same rule as two sans-I/O state machines:
//! a round finalizes once it holds enough messages, and yields a
//! result, a provable error, or "continue".
//!
//! * [`RangeWait`] — one range's wait across rounds: each arrival fills
//!   the collecting round or is a [`Fault`] poisoning the round
//!   [`fault_round`] names; a complete or poisoned range ships its
//!   partial. `wirenet`'s workers, shard hosts and proxy run it.
//! * [`RoundMerge`] — the collector: it absorbs partials and poison
//!   notices of any round and names the round to judge next. `wirenet`'s
//!   worker 0 and every `simnet` session run it.
//!
//! The wire layout of a [`RoundPartialState`] is its round (32 bits)
//! followed by the one-round [`PartialState`] layout, so cross-shard
//! exchanges (simnet envelopes, wirenet `Partial` frames) carry the
//! round *inside* the authenticated payload — a partial can never be
//! replayed into a different round undetected.

use super::{shard_of, Arrival, PartialState, RefereeShard, ShardRange};
use crate::evidence::ProvableError;
use crate::multiround::{MultiRoundProtocol, MultiRoundStats, RefereeStep};
use crate::{DecodeError, Message, NodeView};
use referee_graph::{LabelledGraph, VertexId};
use std::collections::BTreeMap;

/// One shard of a single round's referee wait: a
/// [`RefereeShard`] plus the round it collects for.
#[derive(Debug, Clone)]
pub struct RoundShard {
    round: u32,
    inner: RefereeShard,
}

impl RoundShard {
    /// Shard `index` of `shards` for round `round` of a size-`n` network.
    #[inline]
    pub fn new(n: usize, shards: usize, index: usize, round: u32) -> RoundShard {
        RoundShard { round, inner: RefereeShard::new(n, shards, index) }
    }

    /// The round this shard collects uplinks for.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The ID range this shard owns.
    #[inline]
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
    #[inline(always)]
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
        self.inner.state.message_for(sender)
    }

    /// The shard's per-round summary, ready to exchange and merge.
    #[inline]
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

    /// The uplink recorded for `sender`, if any.
    pub fn message_for(&self, sender: VertexId) -> Option<&Message> {
        self.inner.message_for(sender)
    }

    /// The single-fault summary of round `round` that poisons it at the
    /// collector: `from` recorded as an out-of-range sender (0 or `> n`)
    /// or as a duplicate — see [`PartialState::poison_notice`]. Every
    /// deployment that reports a fault behind a shipped partial ships
    /// exactly this notice.
    pub fn poison_notice(n: usize, round: u32, from: VertexId) -> RoundPartialState {
        RoundPartialState { round, inner: PartialState::poison_notice(n, from) }
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
    #[inline]
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

/// The round a fault stamped `stamp` poisons, for a range collecting
/// round `collecting` under round cap `cap`: the stamped round if its
/// partial already shipped, else the collecting round (the last round,
/// once every round up to the cap has shipped).
pub fn fault_round(stamp: u32, collecting: u32, cap: u32) -> u32 {
    if (1..collecting).contains(&stamp) {
        stamp
    } else {
        collecting.min(cap)
    }
}

/// A provable violation one arrival at a [`RangeWait`] exhibits: the
/// class, the arrival's payload (handed back: the wait took it by
/// value), plus — for an [`Equivocation`](ProvableError::Equivocation)
/// — the recorded original the arrival conflicts with. An
/// accountability layer signs the arrival (and the original) into
/// evidence records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The violation's class.
    pub error: ProvableError,
    /// The recorded original of an equivocation pair.
    pub original: Option<Message>,
    /// The offending arrival's payload.
    pub arrival: Message,
}

/// What one arrival did at a [`RangeWait`] besides filling its range.
#[derive(Debug, Default)]
pub struct Ingested {
    /// A provable violation the arrival exhibits.
    pub fault: Option<Fault>,
    /// A poison notice for a round whose partial already shipped: the
    /// collector fails the session unless it already judged that round.
    pub notice: Option<RoundPartialState>,
}

/// One range's share of a session's multi-round uplink wait: the round
/// the range collects, under a round cap, plus a copy of the last round
/// it shipped, so an arrival behind that partial is still provable. A
/// deployment's range owners — in-process workers and remote shard
/// hosts alike — all run this state machine.
#[derive(Debug, Clone)]
pub struct RangeWait {
    n: usize,
    cap: u32,
    shard: RoundShard,
    /// The last shipped round's shard, still recording.
    shipped: Option<RoundShard>,
}

impl RangeWait {
    /// Shard `index` of `shards` of a size-`n` session, collecting from
    /// round `round` under round cap `cap`.
    pub fn new(n: usize, shards: usize, index: usize, round: u32, cap: u32) -> RangeWait {
        RangeWait { n, cap, shard: RoundShard::new(n, shards, index, round), shipped: None }
    }

    /// The session's network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The session's round cap.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Absorb one routed uplink from `from` stamped `round`, taking its
    /// payload by value. A fresh arrival fills its round (the payload
    /// moves in); anything else poisons the round
    /// [`fault_round`] names — in place when that is the collecting
    /// round, else through the returned notice. The [`Fault`] is
    /// provable, and hands the payload back, for an out-of-range
    /// sender, a stamp outside `1..=cap`,
    /// and a repeat within the collecting round or behind the last
    /// shipped partial (a duplicate if bit-identical, else an
    /// equivocation); an arrival behind an older round, or racing ahead,
    /// poisons without proof. A first arrival behind the last shipped
    /// partial (which shipped poisoned: its verdict is already an error)
    /// is recorded there and poisons nothing, so merged verdicts name the
    /// monolithic assembler's offender.
    ///
    /// Errors only for an in-range sender owned by another shard (a
    /// router bug, not wire data).
    pub fn ingest(
        &mut self,
        from: VertexId,
        round: u32,
        payload: Message,
    ) -> Result<Ingested, DecodeError> {
        let collecting = self.shard.round();
        let error = if from == 0 || from as usize > self.n {
            Some((ProvableError::OutOfRangeSender, None))
        } else if round == 0 || round > self.cap {
            Some((ProvableError::WrongRound, None))
        } else {
            let recording = if round == collecting {
                Some(&mut self.shard)
            } else {
                self.shipped.as_mut().filter(|s| s.round() == round)
            };
            match recording {
                Some(shard) => match shard.message_for(from) {
                    None => {
                        // In range and unrecorded: a fresh arrival.
                        shard.ingest(from, payload)?;
                        return Ok(Ingested::default());
                    }
                    Some(prev) if *prev == payload => {
                        Some((ProvableError::DuplicateSender, None))
                    }
                    Some(prev) => Some((ProvableError::Equivocation, Some(prev.clone()))),
                },
                None => None,
            }
        };
        let fault = error.map(|(error, original)| Fault { error, original, arrival: payload });
        let poisoned = fault_round(round, collecting, self.cap);
        let notice = if poisoned == collecting {
            self.shard.inner.state.note_fault(from);
            None
        } else {
            Some(RoundPartialState::poison_notice(self.n, poisoned, from))
        };
        Ok(Ingested { fault, notice })
    }

    /// The collecting round's partial, once the range is complete or
    /// poisoned (and the round within the cap); the wait then advances
    /// to the next round and keeps a copy of the shipped round.
    pub fn take_ready(&mut self) -> Option<RoundPartialState> {
        let s = &self.shard;
        if s.range().is_empty() || !(s.is_complete() || s.is_poisoned()) || s.round() > self.cap
        {
            return None;
        }
        let next = RoundShard::new(self.n, s.inner.shards(), s.inner.index(), s.round() + 1);
        let shipped = std::mem::replace(&mut self.shard, next);
        let partial = shipped.clone().into_partial();
        self.shipped = Some(shipped);
        Some(partial)
    }
}

/// The collector of a sharded multi-round referee: merges the range
/// partials of every round — in any order, from any mix of shards and
/// poison notices — and names the round the referee judges next.
///
/// The current round's accumulator is a plain field, so a collector
/// that only ever sees current-round partials allocates nothing of its
/// own; partials of later rounds wait in a per-round map.
#[derive(Debug, Clone)]
pub struct RoundMerge {
    quorum: usize,
    cap: usize,
    /// The current round's accumulator and its partial count.
    current: (RoundPartialState, usize),
    /// Accumulators of later rounds, with their partial counts.
    later: BTreeMap<u32, (RoundPartialState, usize)>,
}

impl RoundMerge {
    /// A collector for a size-`n` session whose rounds are complete at
    /// `quorum` partials, judging rounds `1..=cap`.
    pub fn new(n: usize, quorum: usize, cap: usize) -> RoundMerge {
        RoundMerge {
            quorum,
            cap,
            current: (RoundPartialState::new(n, 1), 0),
            later: BTreeMap::new(),
        }
    }

    /// The round the referee is judging.
    pub fn round(&self) -> u32 {
        self.current.0.round()
    }

    /// Partials absorbed into the current round.
    pub fn absorbed(&self) -> usize {
        self.current.1
    }

    /// Merge one partial into its round's accumulator. `Ok(false)` means
    /// the partial is an orphan — its round was already judged — and was
    /// dropped. A round past the cap is refused with
    /// [`DecodeError::Invalid`], so no source can grow the collector
    /// without bound; a partial that does not merge (another network
    /// size) is refused with the merge's error.
    pub fn absorb(&mut self, partial: RoundPartialState) -> Result<bool, DecodeError> {
        let round = partial.round();
        if round as usize > self.cap {
            return Err(DecodeError::Invalid(format!(
                "round-{round} partial past the {}-round cap",
                self.cap
            )));
        }
        if round < self.round() {
            return Ok(false);
        }
        let n = self.current.0.n();
        let (acc, absorbed) = if round == self.round() {
            &mut self.current
        } else {
            self.later.entry(round).or_insert_with(|| (RoundPartialState::new(n, round), 0))
        };
        acc.merge(partial)?;
        *absorbed += 1;
        Ok(true)
    }

    /// The partial to judge next, taken out of the collector: the
    /// current round's once its quorum is in or it is poisoned (no
    /// further partial can turn its `Err` verdict into an `Ok`), else a
    /// poisoned later round's, which already fixes the session's `Err`
    /// verdict. `None` while the current round waits. After judging
    /// the current round to `Continue`, call
    /// [`advance`](RoundMerge::advance).
    // Not an `Iterator`: `None` means "wait for more partials", not "done".
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<RoundPartialState> {
        let (acc, absorbed) = &self.current;
        if *absorbed >= self.quorum || acc.poisoned() {
            let empty = (RoundPartialState::new(acc.n(), acc.round()), 0);
            return Some(std::mem::replace(&mut self.current, empty).0);
        }
        let (&round, _) = self.later.iter().find(|(_, (p, _))| p.poisoned())?;
        self.later.remove(&round).map(|(p, _)| p)
    }

    /// Move on to the next round, picking up any partials that raced
    /// ahead into it.
    pub fn advance(&mut self) {
        let (round, n) = (self.round() + 1, self.current.0.n());
        self.current =
            self.later.remove(&round).unwrap_or_else(|| (RoundPartialState::new(n, round), 0));
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

    /// The documented partial layout, written field by field: `round:32`,
    /// `n:32`, out-of-range flag (+ `sender:32`), duplicate flag (+
    /// `sender:32`), `count:32`, then per arrival `sender:32 len:32`
    /// and the payload (here `msg(value, width)`, so `width` bits of
    /// `value`).
    fn layout(
        round: u32,
        n: usize,
        oor: Option<VertexId>,
        dup: Option<VertexId>,
        arrivals: &[(VertexId, u64, u32)],
    ) -> Message {
        let mut w = BitWriter::new();
        w.write_bits(round as u64, 32);
        w.write_bits(n as u64, 32);
        for marker in [oor, dup] {
            w.push_bit(marker.is_some());
            if let Some(v) = marker {
                w.write_bits(v as u64, 32);
            }
        }
        w.write_bits(arrivals.len() as u64, 32);
        for &(sender, value, width) in arrivals {
            w.write_bits(sender as u64, 32);
            w.write_bits(width as u64, 32);
            w.write_bits(value, width);
        }
        Message::from_writer(w)
    }

    #[test]
    fn encoding_pins_the_documented_layout() {
        // Both fault markers, and a hole inside the shard's window.
        let mut s = RoundShard::new(6, 2, 1, 9);
        s.ingest(6, msg(0x2b, 7)).unwrap();
        s.ingest(4, msg(1, 1)).unwrap();
        s.ingest(11, msg(0, 3)).unwrap();
        s.note_duplicate(4);
        let want = layout(9, 6, Some(11), Some(4), &[(4, 1, 1), (6, 0x2b, 7)]);
        let got = s.into_partial().encode();
        assert_eq!((got.len_bits(), got.as_bytes()), (want.len_bits(), want.as_bytes()));

        // Shards 2 and 0 of 4 over n = 10 (IDs 6..=8 and 1..=3), merged
        // in that order: the window spans 1..=8 with 4..=5 empty.
        let (n, k) = (10, 4);
        let mut acc = RoundPartialState::new(n, 3);
        for i in [2, 0] {
            let mut s = RoundShard::new(n, k, i, 3);
            let r = s.range();
            for v in r.lo..=r.hi {
                s.ingest(v, msg(v as u64 * 5, 6)).unwrap();
            }
            acc.merge(s.into_partial()).unwrap();
        }
        let arrivals: Vec<_> = [1, 2, 3, 6, 7, 8].map(|v| (v, v as u64 * 5, 6)).to_vec();
        let want = layout(3, n, None, None, &arrivals);
        let got = acc.encode();
        assert_eq!((got.len_bits(), got.as_bytes()), (want.len_bits(), want.as_bytes()));
        assert_eq!(RoundPartialState::decode(n, &got).unwrap(), acc);
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

    /// A full round `round` partial of shard `index` of 2 over `n = 4`.
    fn half(index: usize, round: u32) -> RoundPartialState {
        let mut s = RoundShard::new(4, 2, index, round);
        for v in s.range().lo..=s.range().hi {
            s.ingest(v, msg(v as u64, 4)).unwrap();
        }
        s.into_partial()
    }

    #[test]
    fn round_merge_refuses_rounds_past_the_cap() {
        let mut merge = RoundMerge::new(4, 2, 3);
        for round in [4, u32::MAX] {
            match merge.absorb(RoundPartialState::new(4, round)) {
                Err(DecodeError::Invalid(m)) => assert!(m.contains("3-round cap"), "{m}"),
                other => panic!("round {round} past the cap must be refused, got {other:?}"),
            }
        }
        assert_eq!(merge.absorb(half(0, 3)), Ok(true));
        assert!(merge.next().is_none(), "round 1 still waits for its quorum");
    }

    #[test]
    fn round_merge_judges_quorum_poison_and_orphans() {
        let mut merge = RoundMerge::new(4, 2, 3);
        assert_eq!(merge.absorb(half(1, 1)), Ok(true));
        assert!(merge.next().is_none());
        assert_eq!(merge.absorb(half(0, 1)), Ok(true));
        let judged = merge.next().expect("round 1 has its quorum");
        assert_eq!(judged.finish().unwrap(), (1..=4).map(|v| msg(v, 4)).collect::<Vec<_>>());
        merge.advance();
        assert_eq!(merge.round(), 2);
        // A notice for the judged round is an orphan.
        assert_eq!(merge.absorb(RoundPartialState::poison_notice(4, 1, 2)), Ok(false));
        // A poisoned later round is judged while round 2 waits.
        assert_eq!(merge.absorb(half(0, 2)), Ok(true));
        assert_eq!(merge.absorb(RoundPartialState::poison_notice(4, 3, 9)), Ok(true));
        let judged = merge.next().expect("a poisoned later round fixes the verdict");
        assert_eq!(judged.round(), 3);
        assert!(matches!(judged.finish(), Err(DecodeError::OutOfRange(_))));
        // A poisoned current round is judged without its quorum.
        assert_eq!(merge.absorb(RoundPartialState::poison_notice(4, 2, 3)), Ok(true));
        assert_eq!(merge.absorb(half(1, 3)), Ok(true));
        let judged = merge.next().expect("a poisoned round is judged at once");
        assert_eq!(judged.round(), 2);
        match judged.finish() {
            Err(DecodeError::Inconsistent(m)) => assert!(m.contains("node 3"), "{m}"),
            other => panic!("expected the duplicate verdict, got {other:?}"),
        }
    }

    #[test]
    fn range_wait_proves_repeats_behind_a_shipped_partial() {
        // Shard 1 of 2 over n = 4 owns 3..=4, cap 2.
        let mut wait = RangeWait::new(4, 2, 1, 1, 2);
        for v in [3, 4] {
            let ingested = wait.ingest(v, 1, msg(v as u64, 4)).unwrap();
            assert!(ingested.fault.is_none() && ingested.notice.is_none());
        }
        assert_eq!(wait.take_ready(), Some(half(1, 1)));
        assert_eq!(wait.take_ready(), None, "round 2 collects");
        let behind = wait.ingest(3, 1, msg(3, 4)).unwrap();
        assert_eq!(
            behind.fault,
            Some(Fault {
                error: ProvableError::DuplicateSender,
                original: None,
                arrival: msg(3, 4)
            })
        );
        assert_eq!(behind.notice, Some(RoundPartialState::poison_notice(4, 1, 3)));
        let behind = wait.ingest(4, 1, msg(0, 4)).unwrap();
        assert_eq!(
            behind.fault,
            Some(Fault {
                error: ProvableError::Equivocation,
                original: Some(msg(4, 4)),
                arrival: msg(0, 4)
            })
        );
        // Behind a partial that shipped poisoned, a first arrival is
        // recorded, not reported; its repeat is.
        let mut early = RangeWait::new(4, 2, 1, 1, 1);
        early.ingest(3, 1, msg(3, 4)).unwrap();
        early.ingest(3, 1, msg(3, 4)).unwrap();
        assert!(early.take_ready().expect("poisoned").poisoned());
        let first = early.ingest(4, 1, msg(4, 4)).unwrap();
        assert!(first.fault.is_none() && first.notice.is_none());
        let again = early.ingest(4, 1, msg(4, 4)).unwrap();
        assert_eq!(again.notice, Some(RoundPartialState::poison_notice(4, 1, 4)));
        // A stamp past the cap poisons the collecting round in place.
        let wrong = wait.ingest(3, 7, msg(3, 4)).unwrap();
        assert_eq!(
            wrong.fault,
            Some(Fault {
                error: ProvableError::WrongRound,
                original: None,
                arrival: msg(3, 4)
            })
        );
        assert!(wrong.notice.is_none());
        let poisoned = wait.take_ready().expect("a poisoned range ships at once");
        assert_eq!((poisoned.round(), poisoned.poisoned()), (2, true));
        // Every round has shipped: faults now poison the last one.
        let stray = wait.ingest(9, 2, msg(0, 1)).unwrap();
        assert_eq!(stray.notice, Some(RoundPartialState::poison_notice(4, 2, 9)));
        // Node 1 belongs to shard 0: a router bug, not a fault.
        let mut fresh = RangeWait::new(4, 2, 1, 1, 2);
        assert!(matches!(fresh.ingest(1, 1, msg(0, 1)), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn fault_rounds_follow_the_collecting_round() {
        assert_eq!(fault_round(2, 3, 5), 2, "behind: the stamped round");
        assert_eq!(fault_round(3, 3, 5), 3, "current: the collecting round");
        assert_eq!(fault_round(4, 3, 5), 3, "ahead: the collecting round");
        assert_eq!(fault_round(0, 3, 5), 3);
        assert_eq!(fault_round(9, 3, 5), 3);
        assert_eq!(fault_round(9, 6, 5), 5, "all shipped: the last round");
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
