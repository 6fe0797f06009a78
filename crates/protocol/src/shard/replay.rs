//! Replay and resume for remotely-placed shards.
//!
//! A shard that lives on another host holds **volatile** state: the
//! rounds it is still collecting. If the host dies, that state dies
//! with it — but everything needed to rebuild it deterministically has
//! already passed through whoever routed the traffic. A
//! [`ShardJournal`] is that coordinator-side record: the uplinks routed
//! to one shard of one session, kept exactly until the shard's partial
//! for their round **commits** (is received and merged), then dropped.
//! On reconnect the coordinator replays the journal into a fresh shard,
//! which therefore re-emits bit-identical partials for every
//! uncommitted round — the property the cross-host chaos tests pin.
//!
//! The companion wire encoding, [`encode_resume`]/[`decode_resume`],
//! is the session announcement a coordinator sends a (re)registered
//! shard host: network size, the round to resume collecting at (1 for a
//! fresh session), and the session's round cap. One-round shards are
//! the `resume == 1`, single-round special case; a committed one-round
//! shard ([`ShardJournal::committed`]) is simply never re-announced.

use crate::{BitWriter, DecodeError, Message};
use referee_graph::VertexId;
use std::collections::BTreeMap;

/// How [`ShardJournal::record`] classified one routed uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recorded {
    /// The uplink belongs to an uncommitted round: journaled; forward
    /// it to the shard host.
    Forward,
    /// The uplink's round is already committed — its partial has
    /// merged, so the shard host no longer holds that round. The caller
    /// decides the policy: the wire proxy and the placement sim report
    /// the straggler as a poison notice for that round (it is by
    /// definition a duplicate or stray).
    Stale,
}

/// The coordinator-side replay record for one shard of one session.
#[derive(Debug, Clone)]
pub struct ShardJournal {
    n: usize,
    /// The earliest round whose partial has **not** committed — where a
    /// reconnecting shard host resumes collecting.
    resume_round: u32,
    /// Routed uplinks per uncommitted round, in routing order.
    buffered: BTreeMap<u32, Vec<(VertexId, Message)>>,
}

impl ShardJournal {
    /// A fresh journal for a size-`n` session (resume round 1).
    pub fn new(n: usize) -> ShardJournal {
        ShardJournal { n, resume_round: 1, buffered: BTreeMap::new() }
    }

    /// The network size this journal is for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The round a reconnecting shard host must resume collecting at.
    pub fn resume_round(&self) -> u32 {
        self.resume_round
    }

    /// Whether round 1 has committed — for a one-round shard, whether
    /// the shard's (only) range partial has merged.
    pub fn committed(&self) -> bool {
        self.resume_round > 1
    }

    /// Journaled uplinks not yet covered by a committed partial.
    pub fn buffered(&self) -> usize {
        self.buffered.values().map(Vec::len).sum()
    }

    /// Record one routed uplink. Out-of-range senders (0 or `> n`)
    /// poison whichever round the shard is currently collecting, so
    /// they are journaled under the resume round regardless of the
    /// round they claimed.
    pub fn record(&mut self, round: u32, sender: VertexId, payload: Message) -> Recorded {
        let round =
            if sender == 0 || sender as usize > self.n { self.resume_round } else { round };
        if round < self.resume_round {
            return Recorded::Stale;
        }
        self.buffered.entry(round).or_default().push((sender, payload));
        Recorded::Forward
    }

    /// The shard's partial for `round` merged: drop every journaled
    /// round up to and including it and advance the resume round. Late
    /// or repeated commits are idempotent.
    pub fn commit(&mut self, round: u32) {
        if round >= self.resume_round {
            self.resume_round = round + 1;
            self.buffered = self.buffered.split_off(&(round + 1));
        }
    }

    /// Every journaled uplink of every uncommitted round, rounds
    /// ascending, routing order within a round — exactly what to resend
    /// after [`encode_resume`]-announcing a reconnected shard host.
    pub fn replay(&self) -> impl Iterator<Item = (u32, VertexId, &Message)> {
        self.buffered
            .iter()
            .flat_map(|(round, ups)| ups.iter().map(move |(v, m)| (*round, *v, m)))
    }
}

/// Serialize a resume announcement: `n:32`, `resume_round:32`,
/// `round_cap:32` — what a coordinator sends a (re)registered shard
/// host to (re)open one session.
pub fn encode_resume(n: usize, resume_round: u32, round_cap: u32) -> Message {
    let mut w = BitWriter::new();
    w.write_bits(n as u64, 32);
    w.write_bits(resume_round as u64, 32);
    w.write_bits(round_cap as u64, 32);
    Message::from_writer(w)
}

/// Inverse of [`encode_resume`], validating the exact layout and that
/// the resume round is at least 1.
pub fn decode_resume(msg: &Message) -> Result<(usize, u32, u32), DecodeError> {
    let mut r = msg.reader();
    let n = r.read_bits(32)? as usize;
    let resume = r.read_bits(32)? as u32;
    let cap = r.read_bits(32)? as u32;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after resume announcement".into()));
    }
    if resume == 0 {
        return Err(DecodeError::Invalid("resume round must be at least 1".into()));
    }
    Ok((n, resume, cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(v: u64, w: u32) -> Message {
        let mut wr = BitWriter::new();
        wr.write_bits(v, w);
        Message::from_writer(wr)
    }

    #[test]
    fn records_forward_until_commit_then_stale() {
        let mut j = ShardJournal::new(4);
        assert_eq!(j.record(1, 2, msg(2, 8)), Recorded::Forward);
        assert_eq!(j.record(1, 3, msg(3, 8)), Recorded::Forward);
        assert_eq!(j.buffered(), 2);
        assert!(!j.committed());
        j.commit(1);
        assert!(j.committed());
        assert_eq!(j.buffered(), 0);
        assert_eq!(j.record(1, 2, msg(2, 8)), Recorded::Stale);
    }

    #[test]
    fn out_of_range_senders_journal_under_the_resume_round() {
        let mut j = ShardJournal::new(4);
        j.commit(2);
        // An out-of-range stray claiming an ancient round still poisons
        // the round the shard is on — it must be journaled, not staled.
        assert_eq!(j.record(1, 99, Message::empty()), Recorded::Forward);
        assert_eq!(j.record(1, 0, Message::empty()), Recorded::Forward);
        let replayed: Vec<(u32, VertexId)> = j.replay().map(|(r, v, _)| (r, v)).collect();
        assert_eq!(replayed, vec![(3, 99), (3, 0)]);
    }

    #[test]
    fn replay_is_round_ordered_and_commit_prunes() {
        let mut j = ShardJournal::new(6);
        j.record(2, 5, msg(5, 4));
        j.record(1, 4, msg(4, 4));
        j.record(1, 6, msg(6, 4));
        let order: Vec<(u32, VertexId)> = j.replay().map(|(r, v, _)| (r, v)).collect();
        assert_eq!(order, vec![(1, 4), (1, 6), (2, 5)]);
        j.commit(1);
        assert_eq!(j.resume_round(), 2);
        let order: Vec<(u32, VertexId)> = j.replay().map(|(r, v, _)| (r, v)).collect();
        assert_eq!(order, vec![(2, 5)]);
        // Commits are idempotent and never regress.
        j.commit(1);
        assert_eq!(j.resume_round(), 2);
    }

    #[test]
    fn resume_codec_round_trips_and_validates() {
        let enc = encode_resume(17, 5, 40);
        assert_eq!(decode_resume(&enc).unwrap(), (17, 5, 40));
        assert!(decode_resume(&encode_resume(0, 0, 0)).is_err(), "resume 0 is invalid");
        // Truncations never decode.
        let bits = enc.len_bits();
        for cut in 0..bits {
            let mut w = BitWriter::new();
            let mut rd = enc.reader();
            for _ in 0..cut {
                w.push_bit(rd.read_bit().unwrap());
            }
            assert!(decode_resume(&Message::from_writer(w)).is_err(), "cut {cut}");
        }
    }
}
