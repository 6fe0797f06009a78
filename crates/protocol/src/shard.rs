//! The sharded referee: incremental, mergeable message assembly.
//!
//! §I.B observes that the referee "can wait until it has received one
//! message from every vertex (this only requires that the referee knows
//! the size of the network)". A single mailbox doing that wait is the
//! scale-out bottleneck of the whole system: every arrival funnels into
//! one assembly step. This module splits the wait across **shards**:
//!
//! * [`shard_of`]/[`shard_range`] — the balanced contiguous ID partition
//!   (the same arithmetic as §IV's partition argument in
//!   `referee_core::partition`): shard `i` of `k` owns a contiguous
//!   range of node IDs, every ID owned by exactly one shard.
//! * [`RefereeShard`] — ingests arrivals for its range only, in any
//!   order, classifying each as fresh, duplicate, or out of range.
//! * [`PartialState`] — a shard's serializable summary. `merge` is
//!   **commutative and associative**, so any merge tree over the shards
//!   of a partition — a left fold, a binary tree, whatever a cross-host
//!   topology dictates — yields the same [`finish`](PartialState::finish)
//!   verdict, bit for bit.
//!
//! The monolithic
//! [`assemble_from_arrivals`](crate::referee::assemble_from_arrivals)
//! is now a thin wrapper: one shard covering `1..=n`, finished
//! directly. Equivalence between any shard count and the monolithic
//! path is pinned by property tests.
//!
//! The [`multiround`] submodule lifts the same split to multi-round
//! protocols: a [`RoundShard`](multiround::RoundShard) collects one
//! round's uplinks for its range, and per-round
//! [`RoundPartialState`](multiround::RoundPartialState)s merge into the
//! exact input `referee_step` would have seen —
//! [`run_multiround`](crate::multiround::run_multiround) is the
//! one-shard special case of
//! [`run_multiround_sharded`](multiround::run_multiround_sharded).
//!
//! Two further submodules serve cross-host deployments of this split:
//! [`placement`] assigns shards to hosts (the same balanced-contiguous
//! arithmetic one level up, plus static maps and loss-remap), and
//! [`replay`] is the coordinator-side journal/resume machinery that
//! rebuilds a lost host's volatile shard state bit-for-bit.
//!
//! # Canonical verdicts
//!
//! A sequential assembler can report the *first* fault in arrival order;
//! a sharded one cannot (shards see disjoint sub-streams, merge order is
//! arbitrary). Verdicts are therefore **canonical** — independent of both
//! arrival order and merge shape:
//!
//! 1. an out-of-range sender, smallest offender first
//!    ([`DecodeError::OutOfRange`]);
//! 2. then a duplicated sender, smallest offender first
//!    ([`DecodeError::Inconsistent`]);
//! 3. then a missing node, smallest first ([`DecodeError::Inconsistent`]);
//! 4. otherwise the ID-indexed message vector `Γ^l(G)`.

pub mod multiround;
pub mod placement;
pub mod replay;

use crate::{BitReader, BitWriter, DecodeError, Message};
use referee_graph::VertexId;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// The contiguous node-ID range `lo..=hi` owned by one shard (1-based,
/// inclusive; empty when `lo > hi`, which happens for some shards when
/// `shards > n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First owned ID.
    pub lo: VertexId,
    /// Last owned ID.
    pub hi: VertexId,
}

impl ShardRange {
    /// Whether `v` belongs to this shard.
    pub fn contains(&self, v: VertexId) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Number of IDs owned.
    pub fn len(&self) -> usize {
        if self.lo > self.hi {
            0
        } else {
            (self.hi - self.lo + 1) as usize
        }
    }

    /// Whether the shard owns no IDs.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_empty() {
            write!(f, "∅")
        } else {
            write!(f, "{}..={}", self.lo, self.hi)
        }
    }
}

/// The shard owning node `v` under a balanced `shards`-way contiguous
/// partition of `1..=n`: `⌊(v−1)·shards / n⌋` — the same balanced-parts
/// arithmetic as §IV's partition-connectivity argument.
///
/// Panics if `v` is not in `1..=n` or `shards == 0` (route validated
/// traffic only; see [`route_arrival`] for raw arrivals).
pub fn shard_of(n: usize, shards: usize, v: VertexId) -> usize {
    assert!(shards >= 1, "need at least one shard");
    assert!(v >= 1 && v as usize <= n, "vertex {v} not in 1..={n}");
    ((v as usize - 1) * shards) / n
}

/// Where to route an *unvalidated* arrival: in-range senders go to their
/// [`shard_of`] owner; out-of-range senders (0 or `> n`, which any shard
/// records faithfully) go to shard 0.
pub fn route_arrival(n: usize, shards: usize, sender: VertexId) -> usize {
    if sender == 0 || sender as usize > n {
        0
    } else {
        shard_of(n, shards, sender)
    }
}

/// The ID range `{v : shard_of(n, shards, v) == index}` — the exact
/// preimage of [`shard_of`], so the ranges of `0..shards` partition
/// `1..=n` (pinned by tests).
pub fn shard_range(n: usize, shards: usize, index: usize) -> ShardRange {
    assert!(shards >= 1, "need at least one shard");
    assert!(index < shards, "shard {index} out of 0..{shards}");
    // ⌊(v−1)k/n⌋ ≥ i  ⇔  (v−1)k ≥ i·n  ⇔  v ≥ ⌈i·n/k⌉ + 1.
    let lo = (index * n).div_ceil(shards) + 1;
    let hi = ((index + 1) * n).div_ceil(shards);
    ShardRange { lo: lo as VertexId, hi: hi as VertexId }
}

/// How [`RefereeShard::ingest`] classified one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// First message from this sender.
    Fresh,
    /// The sender already has a recorded message. `identical` says
    /// whether the payloads agree — callers choose the policy (the
    /// monolithic assembler rejects *any* duplicate via
    /// [`RefereeShard::note_duplicate`]; the session runtime absorbs
    /// identical re-deliveries as at-least-once noise).
    Duplicate {
        /// Payload equals the recorded original.
        identical: bool,
    },
    /// Sender 0 or `> n`: recorded in the partial state, surfaces as the
    /// canonical [`DecodeError::OutOfRange`] verdict at finish.
    OutOfRange,
}

/// A mergeable, serializable summary of the arrivals one shard (or any
/// merged set of shards) has absorbed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialState {
    n: usize,
    /// Recorded messages, keyed by sender (all in `1..=n`).
    slots: BTreeMap<VertexId, Message>,
    /// Smallest out-of-range sender observed.
    oor_min: Option<VertexId>,
    /// Smallest duplicated sender observed.
    dup_min: Option<VertexId>,
}

fn min_opt(a: Option<VertexId>, b: Option<VertexId>) -> Option<VertexId> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

impl PartialState {
    /// An empty summary for a size-`n` network.
    pub fn new(n: usize) -> PartialState {
        PartialState { n, slots: BTreeMap::new(), oor_min: None, dup_min: None }
    }

    /// The network size this summary is for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Distinct senders recorded so far.
    pub fn arrivals(&self) -> usize {
        self.slots.len()
    }

    /// Whether a fault (out-of-range or duplicated sender) has been
    /// recorded — the finish verdict is already known to be an error.
    pub fn poisoned(&self) -> bool {
        self.oor_min.is_some() || self.dup_min.is_some()
    }

    /// Record an out-of-range sender directly (min-tracked). Routers use
    /// this when they observe a stray arrival *after* the shard that
    /// would have recorded it already shipped its partial.
    pub fn note_out_of_range(&mut self, sender: VertexId) {
        self.oor_min = min_opt(self.oor_min, Some(sender));
    }

    /// Record a duplicated sender directly (min-tracked). An arrival for
    /// a shard whose partial already shipped is by definition a
    /// duplicate (the shard only ships once its range is fully
    /// recorded), so routers report it here.
    pub fn note_duplicate(&mut self, sender: VertexId) {
        self.dup_min = min_opt(self.dup_min, Some(sender));
    }

    /// The single-fault summary for a straggler behind an
    /// already-merged range partial: by definition a duplicate (in
    /// range) or a stray (out of range). Every deployment that reports
    /// post-commit stragglers — the in-process shard worker, the
    /// placement proxy, the placement sim — merges exactly this notice,
    /// so the fail-fast verdict cannot drift between them.
    pub fn poison_notice(n: usize, sender: VertexId) -> PartialState {
        let mut p = PartialState::new(n);
        if sender == 0 || sender as usize > n {
            p.note_out_of_range(sender);
        } else {
            p.note_duplicate(sender);
        }
        p
    }

    /// Fold `other` into `self`. Commutative and associative up to the
    /// [`finish`](PartialState::finish) verdict: a sender recorded on
    /// both sides is a duplicate (which message survives is immaterial —
    /// the duplicate verdict overrides the output).
    ///
    /// Errors if the two summaries describe different network sizes.
    pub fn merge(&mut self, other: PartialState) -> Result<(), DecodeError> {
        if self.n != other.n {
            return Err(DecodeError::Inconsistent(format!(
                "cannot merge partial states for n = {} and n = {}",
                self.n, other.n
            )));
        }
        self.oor_min = min_opt(self.oor_min, other.oor_min);
        self.dup_min = min_opt(self.dup_min, other.dup_min);
        for (sender, msg) in other.slots {
            match self.slots.entry(sender) {
                Entry::Vacant(e) => {
                    e.insert(msg);
                }
                Entry::Occupied(_) => self.note_duplicate(sender),
            }
        }
        Ok(())
    }

    /// The canonical verdict (see the module docs): out-of-range sender,
    /// then duplicate, then missing node — smallest offender first — else
    /// the complete ID-ordered message vector.
    pub fn finish(self) -> Result<Vec<Message>, DecodeError> {
        if let Some(v) = self.oor_min {
            return Err(DecodeError::OutOfRange(format!(
                "message from unknown node {v} (n = {})",
                self.n
            )));
        }
        if let Some(v) = self.dup_min {
            return Err(DecodeError::Inconsistent(format!("duplicate message from node {v}")));
        }
        let mut out = Vec::with_capacity(self.n);
        let mut slots = self.slots.into_iter();
        for want in 1..=self.n as VertexId {
            match slots.next() {
                Some((got, msg)) if got == want => out.push(msg),
                // Keys ascend, so a mismatch means `want` never arrived.
                _ => {
                    return Err(DecodeError::Inconsistent(format!(
                        "no message from node {want}"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Serialize into a [`Message`] (the payload cross-shard exchange
    /// ships — over `simnet` envelopes or MAC'd `wirenet` frames).
    ///
    /// Layout (MSB-first): `n:32`, out-of-range flag:1 (+ sender:32),
    /// duplicate flag:1 (+ sender:32), arrival count:32, then per
    /// arrival in ascending sender order: sender:32, payload bit
    /// length:32, payload bits.
    pub fn encode(&self) -> Message {
        let mut w = BitWriter::new();
        self.encode_into(&mut w);
        Message::from_writer(w)
    }

    /// Append the [`encode`](PartialState::encode) layout to `w` — the
    /// single pass that envelopes like the round-stamped partial build on.
    fn encode_into(&self, w: &mut BitWriter) {
        w.write_bits(self.n as u64, 32);
        match self.oor_min {
            Some(v) => {
                w.push_bit(true);
                w.write_bits(v as u64, 32);
            }
            None => w.push_bit(false),
        }
        match self.dup_min {
            Some(v) => {
                w.push_bit(true);
                w.write_bits(v as u64, 32);
            }
            None => w.push_bit(false),
        }
        w.write_bits(self.slots.len() as u64, 32);
        for (sender, msg) in &self.slots {
            w.write_bits(*sender as u64, 32);
            w.write_bits(msg.len_bits() as u64, 32);
            msg.append_to(w);
        }
    }

    /// Deserialize a summary produced by [`encode`](PartialState::encode),
    /// validating every field: the network size must equal `expected_n`,
    /// senders must be strictly ascending and in range, fault markers in
    /// range, and the bit stream must end exactly at the last payload —
    /// anything else (including any truncation) is a [`DecodeError`].
    pub fn decode(expected_n: usize, msg: &Message) -> Result<PartialState, DecodeError> {
        PartialState::decode_from(expected_n, &mut msg.reader())
    }

    /// [`decode`](PartialState::decode) the rest of `r`, in place: the
    /// summary must end exactly where the reader does.
    fn decode_from(
        expected_n: usize,
        r: &mut BitReader<'_>,
    ) -> Result<PartialState, DecodeError> {
        let n = r.read_bits(32)? as usize;
        if n != expected_n {
            return Err(DecodeError::Inconsistent(format!(
                "partial state for n = {n}, expected n = {expected_n}"
            )));
        }
        let oor_min = if r.read_bit()? { Some(r.read_bits(32)? as VertexId) } else { None };
        let dup_min = if r.read_bit()? { Some(r.read_bits(32)? as VertexId) } else { None };
        if let Some(v) = oor_min {
            if v >= 1 && v as usize <= n {
                return Err(DecodeError::OutOfRange(format!(
                    "out-of-range marker names in-range node {v}"
                )));
            }
        }
        if let Some(v) = dup_min {
            if v == 0 || v as usize > n {
                return Err(DecodeError::OutOfRange(format!(
                    "duplicate marker names out-of-range node {v}"
                )));
            }
        }
        let count = r.read_bits(32)? as usize;
        if count > n {
            return Err(DecodeError::OutOfRange(format!("{count} arrivals for n = {n}")));
        }
        let mut slots = BTreeMap::new();
        let mut prev: VertexId = 0;
        for _ in 0..count {
            let sender = r.read_bits(32)? as VertexId;
            if sender <= prev || sender as usize > n {
                return Err(DecodeError::Invalid(format!(
                    "arrival senders must ascend within 1..={n}, got {sender} after {prev}"
                )));
            }
            prev = sender;
            let len_bits = r.read_bits(32)? as usize;
            let mut w = BitWriter::new();
            r.copy_bits_into(&mut w, len_bits)?;
            slots.insert(sender, Message::from_writer(w));
        }
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid(format!(
                "{} trailing bits after the last arrival",
                r.remaining()
            )));
        }
        Ok(PartialState { n, slots, oor_min, dup_min })
    }
}

/// One shard of the referee's wait: accepts arrivals for its ID range,
/// accumulating a [`PartialState`].
#[derive(Debug, Clone)]
pub struct RefereeShard {
    index: usize,
    shards: usize,
    range: ShardRange,
    state: PartialState,
}

impl RefereeShard {
    /// Shard `index` of `shards` over a size-`n` network.
    pub fn new(n: usize, shards: usize, index: usize) -> RefereeShard {
        RefereeShard {
            index,
            shards,
            range: shard_range(n, shards, index),
            state: PartialState::new(n),
        }
    }

    /// This shard's position in the partition.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shards in the partition.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The ID range this shard owns.
    pub fn range(&self) -> ShardRange {
        self.range
    }

    /// Whether every node in the shard's range has a recorded message
    /// (trivially true for empty ranges).
    pub fn is_complete(&self) -> bool {
        self.state.arrivals() == self.range.len()
    }

    /// Whether a fault has been recorded — the eventual verdict is
    /// already known to be an error, so waiting for more arrivals
    /// cannot change the outcome's `Ok`/`Err` shape.
    pub fn is_poisoned(&self) -> bool {
        self.state.poisoned()
    }

    /// The recorded message of `sender`, if any.
    pub fn message_for(&self, sender: VertexId) -> Option<&Message> {
        self.state.slots.get(&sender)
    }

    /// Absorb one arrival, classifying it (the caller picks the
    /// duplicate policy — see [`Arrival`]). Out-of-range senders are
    /// recorded no matter which shard they were routed to; an in-range
    /// sender owned by a *different* shard is a router bug and errors.
    pub fn ingest(
        &mut self,
        sender: VertexId,
        payload: Message,
    ) -> Result<Arrival, DecodeError> {
        if sender == 0 || sender as usize > self.state.n {
            self.state.note_out_of_range(sender);
            return Ok(Arrival::OutOfRange);
        }
        if !self.range.contains(sender) {
            return Err(DecodeError::Invalid(format!(
                "arrival from node {sender} routed to shard {}/{} owning {}",
                self.index, self.shards, self.range
            )));
        }
        match self.state.slots.entry(sender) {
            Entry::Vacant(e) => {
                e.insert(payload);
                Ok(Arrival::Fresh)
            }
            Entry::Occupied(e) => Ok(Arrival::Duplicate { identical: *e.get() == payload }),
        }
    }

    /// Record `sender` as duplicated (the monolithic assembler's policy
    /// for every [`Arrival::Duplicate`]).
    pub fn note_duplicate(&mut self, sender: VertexId) {
        self.state.note_duplicate(sender);
    }

    /// The shard's summary, ready to exchange and merge.
    pub fn into_partial(self) -> PartialState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(value: u64, width: u32) -> Message {
        let mut w = BitWriter::new();
        w.write_bits(value, width);
        Message::from_writer(w)
    }

    #[test]
    fn ranges_partition_the_ids() {
        for n in [0usize, 1, 2, 3, 7, 10, 64, 100] {
            for k in 1..=9usize {
                let mut owners = vec![0usize; n];
                for i in 0..k {
                    let r = shard_range(n, k, i);
                    for v in r.lo..=r.hi {
                        owners[(v - 1) as usize] += 1;
                        assert_eq!(shard_of(n, k, v), i, "n={n} k={k} v={v}");
                    }
                }
                assert!(owners.iter().all(|&c| c == 1), "n={n} k={k}: {owners:?}");
            }
        }
    }

    #[test]
    fn ranges_are_balanced() {
        // No shard owns more than ⌈n/k⌉ + 1 IDs (the rounding slack the
        // §IV bound already budgets for).
        for n in [5usize, 16, 97, 1000] {
            for k in [1usize, 2, 3, 8] {
                for i in 0..k {
                    assert!(shard_range(n, k, i).len() <= n.div_ceil(k) + 1);
                }
            }
        }
    }

    #[test]
    fn single_shard_assembles_in_any_order() {
        let mut shard = RefereeShard::new(3, 1, 0);
        for v in [2u32, 3, 1] {
            assert_eq!(shard.ingest(v, msg(v as u64, 8)).unwrap(), Arrival::Fresh);
        }
        assert!(shard.is_complete());
        let messages = shard.into_partial().finish().unwrap();
        assert_eq!(messages, vec![msg(1, 8), msg(2, 8), msg(3, 8)]);
    }

    #[test]
    fn merge_tree_shape_is_immaterial() {
        let n = 10usize;
        let k = 4usize;
        let ingest_all = || -> Vec<PartialState> {
            (0..k)
                .map(|i| {
                    let mut s = RefereeShard::new(n, k, i);
                    let r = s.range();
                    for v in r.lo..=r.hi {
                        s.ingest(v, msg(v as u64, 16)).unwrap();
                    }
                    s.into_partial()
                })
                .collect()
        };
        // Left fold 0→3.
        let mut fold = PartialState::new(n);
        for p in ingest_all() {
            fold.merge(p).unwrap();
        }
        // Reverse fold with a pre-merged pair ((3·2)·(1·0)).
        let mut parts = ingest_all();
        let mut right = parts.pop().unwrap();
        right.merge(parts.pop().unwrap()).unwrap();
        let mut left = parts.pop().unwrap();
        left.merge(parts.pop().unwrap()).unwrap();
        right.merge(left).unwrap();
        assert_eq!(fold.finish().unwrap(), right.finish().unwrap());
    }

    #[test]
    fn canonical_verdict_precedence() {
        // Out-of-range beats duplicate beats missing, smallest first.
        let mut s = RefereeShard::new(4, 1, 0);
        s.ingest(2, msg(2, 4)).unwrap();
        s.ingest(2, msg(2, 4)).unwrap();
        s.note_duplicate(2);
        s.ingest(9, msg(9, 4)).unwrap();
        s.ingest(7, msg(7, 4)).unwrap();
        match s.into_partial().finish() {
            Err(DecodeError::OutOfRange(m)) => assert!(m.contains("node 7"), "{m}"),
            other => panic!("expected smallest out-of-range verdict, got {other:?}"),
        }

        let mut s = RefereeShard::new(4, 1, 0);
        for v in 1..=4u32 {
            s.ingest(v, msg(v as u64, 4)).unwrap();
        }
        s.ingest(3, msg(0, 4)).unwrap();
        s.note_duplicate(3);
        match s.into_partial().finish() {
            Err(DecodeError::Inconsistent(m)) => {
                assert!(m.contains("duplicate message from node 3"), "{m}")
            }
            other => panic!("expected duplicate verdict, got {other:?}"),
        }

        let mut s = RefereeShard::new(4, 1, 0);
        s.ingest(1, msg(1, 4)).unwrap();
        s.ingest(4, msg(4, 4)).unwrap();
        match s.into_partial().finish() {
            Err(DecodeError::Inconsistent(m)) => {
                assert!(m.contains("no message from node 2"), "{m}")
            }
            other => panic!("expected missing verdict, got {other:?}"),
        }
    }

    #[test]
    fn misrouted_arrival_is_a_router_bug() {
        let mut s = RefereeShard::new(10, 2, 0);
        assert!(s.range().contains(5));
        assert!(!s.range().contains(6));
        assert!(matches!(s.ingest(6, msg(0, 1)), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn duplicate_classification_is_content_based() {
        let mut s = RefereeShard::new(2, 1, 0);
        assert_eq!(s.ingest(1, msg(7, 8)).unwrap(), Arrival::Fresh);
        assert_eq!(s.ingest(1, msg(7, 8)).unwrap(), Arrival::Duplicate { identical: true });
        assert_eq!(s.ingest(1, msg(8, 8)).unwrap(), Arrival::Duplicate { identical: false });
        assert_eq!(s.message_for(1), Some(&msg(7, 8)));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = RefereeShard::new(6, 2, 1);
        let r = s.range();
        for v in r.lo..=r.hi {
            s.ingest(v, msg(v as u64 * 3, 10)).unwrap();
        }
        s.ingest(0, Message::empty()).unwrap();
        s.ingest(99, Message::empty()).unwrap();
        s.note_duplicate(4);
        let p = s.into_partial();
        let decoded = PartialState::decode(6, &p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_rejects_wrong_n_and_garbage() {
        let p = PartialState::new(5);
        let enc = p.encode();
        assert!(matches!(PartialState::decode(6, &enc), Err(DecodeError::Inconsistent(_))));
        // Truncations never panic and never decode.
        let bits = enc.len_bits();
        for cut in 0..bits {
            let mut w = BitWriter::new();
            let mut rd = enc.reader();
            for _ in 0..cut {
                w.push_bit(rd.read_bit().unwrap());
            }
            assert!(PartialState::decode(5, &Message::from_writer(w)).is_err());
        }
    }

    #[test]
    fn empty_network_finishes_empty() {
        assert_eq!(PartialState::new(0).finish().unwrap(), Vec::<Message>::new());
        let shard = RefereeShard::new(0, 3, 2);
        assert!(shard.range().is_empty());
        assert!(shard.is_complete());
    }

    #[test]
    fn route_arrival_sends_strays_to_shard_zero() {
        assert_eq!(route_arrival(10, 4, 0), 0);
        assert_eq!(route_arrival(10, 4, 11), 0);
        assert_eq!(route_arrival(10, 4, 10), shard_of(10, 4, 10));
    }
}
