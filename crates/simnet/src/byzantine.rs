//! Seeded byzantine nodes: a [`Transport`] decorator that *signs* every
//! party uplink into a MAC'd transcript and makes masked nodes
//! misbehave in provable and unprovable ways.
//!
//! [`FaultyTransport`](crate::FaultyTransport) models a hostile
//! *network* — loss, duplication, reordering, corruption — whose
//! damage is detectable but attributable to nobody. [`Misbehaving`]
//! models hostile *parties*: each node's uplinks are authenticated
//! under a per-party key (`base.derive(EVIDENCE_DOMAIN).derive(party)`
//! — the path `[EVIDENCE_DOMAIN, party]` in
//! [`referee_protocol::evidence`] terms), every signed transmission is
//! retained as an [`EvidenceRecord`], and nodes selected by a seeded
//! byzantine mask equivocate, claim out-of-range senders, stamp wrong
//! rounds, splice old payloads into later rounds, emit malformed
//! (non-canonical) uplinks, withhold, over-deliver, or replay captured
//! traffic.
//!
//! The transcript is the accountability boundary: after the session
//! ends (however it ends), [`referee_protocol::evidence::prosecute`]
//! scans it and builds [`EvidenceBundle`]s that a third party verifies
//! with [`referee_protocol::evidence::verify_bundle`] against only the
//! session base key. The harness properties ride on two facts:
//!
//! * a byzantine node can only sign with *its own* key, so every
//!   attributable bundle names a masked node (**no framing**), and
//! * every provable injection leaves a MAC'd record in the transcript,
//!   so a session failure caused by one always yields a verifying
//!   bundle (**completeness**). Pure withholding
//!   ([`under_deliver`](ByzantineConfig::under_deliver)) is the
//!   documented exception: an absent message is not attributable
//!   without signed acknowledgements, so those failures yield no
//!   bundle — and accuse nobody.
//!
//! Referee-internal traffic (the sharded session's partial exchange:
//! same-round envelopes from the synthetic shard senders
//! `n + 2..=n + k`; shard 0 merges by value and never sends) is
//! deliberately **not** signed into the transcript:
//! it is the referee talking to itself, and recording it under party
//! keys would let an accuser re-cut legitimate exchange envelopes as
//! out-of-range-sender "proofs" against honest principals.

use crate::metrics::TransportCounters;
use crate::transport::{Envelope, Transport, REFEREE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use referee_graph::VertexId;
use referee_protocol::evidence::{
    encode_record_body, encode_record_body_raw, prosecute, EvidenceBundle, EvidenceRecord,
    SessionParams, EVIDENCE_DOMAIN, RECORD_KIND_DATA,
};
use referee_protocol::{MacKey, Message};
use std::collections::BTreeSet;

/// Wire-format version byte stamped into record bodies (matches the
/// frame layer's `WIRE_VERSION`, so simnet records and wire frames
/// share one layout).
pub const RECORD_VERSION: u8 = 2;

/// Per-node, per-uplink misbehavior probabilities (all in `[0, 1]`).
/// At most one action fires per uplink (first match in field order).
#[derive(Debug, Clone, Copy)]
pub struct ByzantineConfig {
    /// RNG seed; equal configs behave identically.
    pub seed: u64,
    /// P(a node is byzantine) — the seeded mask (see
    /// [`sample_mask`](ByzantineConfig::sample_mask)).
    pub byzantine: f64,
    /// P(send a second, conflicting payload for the same slot) —
    /// provable, attributable.
    pub equivocate: f64,
    /// P(also send under an out-of-range sender id) — provable,
    /// attributable.
    pub out_of_range: f64,
    /// P(also send a wrong-round copy) — provable, attributable.
    pub wrong_round: f64,
    /// P(splice a captured earlier payload into a later round) —
    /// provable, attributable (surfaces as a wrong-round record).
    pub splice: f64,
    /// P(replace the uplink with a non-canonical body) — provable,
    /// attributable; the referee can only discard the garbage, so the
    /// session starves.
    pub malform: f64,
    /// P(withhold the uplink entirely) — **not** provable: absence
    /// leaves no record.
    pub under_deliver: f64,
    /// P(deliver the identical uplink twice) — not attributable
    /// (at-least-once networks do this to honest traffic too).
    pub over_deliver: f64,
    /// P(re-deliver a captured earlier transmission, possibly an
    /// honest node's) — not attributable for the same reason.
    pub replay: f64,
}

impl ByzantineConfig {
    /// All probabilities zero: the decorator must be transparent.
    pub fn honest(seed: u64) -> Self {
        ByzantineConfig {
            seed,
            byzantine: 0.0,
            equivocate: 0.0,
            out_of_range: 0.0,
            wrong_round: 0.0,
            splice: 0.0,
            malform: 0.0,
            under_deliver: 0.0,
            over_deliver: 0.0,
            replay: 0.0,
        }
    }

    /// Provable misbehavior only — the configuration CI soaks gate on,
    /// where completeness must be 100%.
    pub fn provable(seed: u64) -> Self {
        ByzantineConfig {
            equivocate: 0.5,
            out_of_range: 0.3,
            wrong_round: 0.3,
            splice: 0.2,
            malform: 0.3,
            ..ByzantineConfig::honest(seed)
        }
    }

    /// Everything at once, withholding included.
    pub fn full(seed: u64) -> Self {
        ByzantineConfig {
            under_deliver: 0.2,
            over_deliver: 0.3,
            replay: 0.3,
            ..ByzantineConfig::provable(seed)
        }
    }

    /// The seeded byzantine mask for an `n`-node graph: each node is
    /// byzantine with probability [`byzantine`](ByzantineConfig::byzantine),
    /// drawn from a dedicated stream so the mask does not shift when
    /// action probabilities change.
    pub fn sample_mask(&self, n: usize) -> BTreeSet<VertexId> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6d61_736b_6d61_736b);
        (1..=n as VertexId).filter(|_| rng.gen_bool(self.byzantine)).collect()
    }
}

/// How many injections of each kind a [`Misbehaving`] wrapper
/// performed — the ground truth harness properties condition on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionCounts {
    /// Conflicting same-slot payloads sent.
    pub equivocate: u64,
    /// Out-of-range sender ids claimed.
    pub out_of_range: u64,
    /// Wrong-round copies sent.
    pub wrong_round: u64,
    /// Old payloads spliced into later rounds.
    pub splice: u64,
    /// Non-canonical bodies emitted.
    pub malform: u64,
    /// Uplinks withheld.
    pub under_deliver: u64,
    /// Identical double deliveries.
    pub over_deliver: u64,
    /// Captured transmissions re-delivered.
    pub replay: u64,
}

impl InjectionCounts {
    /// Injections that leave an attributable record in the transcript.
    pub fn provable(&self) -> u64 {
        self.equivocate + self.out_of_range + self.wrong_round + self.splice + self.malform
    }

    /// Every injection, provable or not.
    pub fn total(&self) -> u64 {
        self.provable() + self.under_deliver + self.over_deliver + self.replay
    }
}

/// A [`Transport`] decorator that authenticates party uplinks into a
/// MAC'd transcript and makes masked nodes misbehave (see the module
/// docs for the model and its guarantees).
#[derive(Debug)]
pub struct Misbehaving<T: Transport> {
    inner: T,
    cfg: ByzantineConfig,
    rng: StdRng,
    mask: BTreeSet<VertexId>,
    base: MacKey,
    params: SessionParams,
    transcript: Vec<EvidenceRecord>,
    injections: InjectionCounts,
    /// Captured delivered uplinks: splice and replay material.
    captured: Vec<(Envelope, EvidenceRecord)>,
}

impl<T: Transport> Misbehaving<T> {
    /// Wrap `inner`. `mask` holds the byzantine nodes; `base` is the
    /// session base key the transcript signs under; `params` describes
    /// the session a third-party verifier will check against.
    pub fn new(
        inner: T,
        cfg: ByzantineConfig,
        mask: BTreeSet<VertexId>,
        base: MacKey,
        params: SessionParams,
    ) -> Self {
        Misbehaving {
            inner,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            mask,
            base,
            params,
            transcript: Vec::new(),
            injections: InjectionCounts::default(),
            captured: Vec::new(),
        }
    }

    /// The byzantine mask this wrapper was built with.
    pub fn mask(&self) -> &BTreeSet<VertexId> {
        &self.mask
    }

    /// Every signed transmission so far, in emission order.
    pub fn transcript(&self) -> &[EvidenceRecord] {
        &self.transcript
    }

    /// Injection ground truth so far.
    pub fn injections(&self) -> InjectionCounts {
        self.injections
    }

    /// Session facts a verifier needs.
    pub fn params(&self) -> SessionParams {
        self.params
    }

    /// The session base key (the harness hands it to the third-party
    /// verifier; a real deployment would distribute it out of band).
    pub fn base_key(&self) -> MacKey {
        self.base
    }

    /// Run the independent prosecutor over the transcript.
    pub fn prosecute(&self) -> Vec<EvidenceBundle> {
        prosecute(&self.base, &self.params, &self.transcript)
    }

    /// The wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }

    fn party_path(party: VertexId) -> Vec<u64> {
        vec![EVIDENCE_DOMAIN, party as u64]
    }

    /// Sign `env` as `signer` and append the record to the transcript.
    fn record(&mut self, signer: VertexId, env: &Envelope) -> EvidenceRecord {
        let body = encode_record_body(
            RECORD_VERSION,
            RECORD_KIND_DATA,
            self.params.session,
            env.round,
            env.from,
            env.to,
            &env.payload,
        );
        let rec = EvidenceRecord::sign(&self.base, Self::party_path(signer), body);
        self.transcript.push(rec.clone());
        rec
    }

    /// A payload guaranteed different from `m` (bit-flip, or a 1-bit
    /// message when `m` is empty).
    fn conflicting_payload(m: &Message) -> Message {
        if m.len_bits() == 0 {
            Message::from_bits(vec![0x80], 1).expect("canonical 1-bit message")
        } else {
            m.with_bit_flipped(0)
        }
    }

    /// A signed record whose body is *not* a canonical bit string: a
    /// set padding bit when the payload has one, an excess byte
    /// otherwise. MAC-valid — only the key holder could have produced
    /// it — yet no honest encoder emits it.
    fn malformed_record(&mut self, signer: VertexId, env: &Envelope) -> EvidenceRecord {
        let len_bits = env.payload.len_bits();
        let mut bytes = env.payload.as_bytes().to_vec();
        if !len_bits.is_multiple_of(8) {
            *bytes.last_mut().expect("partial byte exists") |= 1;
        } else {
            bytes.push(0x80);
        }
        let body = encode_record_body_raw(
            RECORD_VERSION,
            RECORD_KIND_DATA,
            self.params.session,
            env.round,
            env.from,
            env.to,
            len_bits as u32,
            &bytes,
        );
        let rec = EvidenceRecord::sign(&self.base, Self::party_path(signer), body);
        self.transcript.push(rec.clone());
        rec
    }

    /// Sign a byzantine variant of `env` (as `signer`) and deliver it.
    fn inject(&mut self, signer: VertexId, env: Envelope) {
        self.record(signer, &env);
        self.inner.send(env);
    }
}

/// The one action (at most) applied to a byzantine uplink.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Action {
    None,
    Equivocate,
    OutOfRange,
    WrongRound,
    Splice,
    Malform,
    UnderDeliver,
    OverDeliver,
    Replay,
}

impl<T: Transport> Transport for Misbehaving<T> {
    fn send(&mut self, env: Envelope) {
        // Only party uplinks are signed (and only they can be
        // misbehaved with): the decision uses the *honest* envelope's
        // fields, before any mutation — referee-internal exchange
        // traffic passes through unsigned and untouched.
        let n = self.params.n;
        let is_uplink = env.to == REFEREE
            && env.from >= 1
            && env.from <= n
            && env.round >= 1
            && env.round <= self.params.round_cap;
        if !is_uplink {
            self.inner.send(env);
            return;
        }
        let signer = env.from;
        let record = self.record(signer, &env);

        let action = if self.mask.contains(&signer) {
            let dice = [
                (Action::Equivocate, self.cfg.equivocate),
                (Action::OutOfRange, self.cfg.out_of_range),
                (Action::WrongRound, self.cfg.wrong_round),
                (Action::Splice, self.cfg.splice),
                (Action::Malform, self.cfg.malform),
                (Action::UnderDeliver, self.cfg.under_deliver),
                (Action::OverDeliver, self.cfg.over_deliver),
                (Action::Replay, self.cfg.replay),
            ];
            dice.into_iter()
                .find(|&(_, p)| p > 0.0 && self.rng.gen_bool(p))
                .map_or(Action::None, |(a, _)| a)
        } else {
            Action::None
        };

        match action {
            Action::UnderDeliver => {
                // Withheld: signed but never delivered. The record the
                // node *would* have sent proves nothing by itself.
                self.injections.under_deliver += 1;
                self.transcript.pop();
                return;
            }
            Action::Malform => {
                // The honest record was never emitted; replace it with
                // the malformed one. Delivery is impossible — an
                // Envelope payload is canonical by construction — so
                // the referee starves, exactly like a real endpoint
                // discarding garbage after MAC verification.
                self.transcript.pop();
                self.injections.malform += 1;
                self.malformed_record(signer, &env);
                return;
            }
            _ => {}
        }

        self.captured.push((env.clone(), record));
        self.inner.send(env.clone());

        match action {
            Action::None | Action::UnderDeliver | Action::Malform => {}
            Action::Equivocate => {
                self.injections.equivocate += 1;
                let mut twin = env;
                twin.payload = Self::conflicting_payload(&twin.payload);
                self.inject(signer, twin);
            }
            Action::OutOfRange => {
                self.injections.out_of_range += 1;
                let mut twin = env;
                twin.from = n + 1 + self.rng.gen_range(0..4);
                self.inject(signer, twin);
            }
            Action::WrongRound => {
                self.injections.wrong_round += 1;
                let mut twin = env;
                twin.round = self.params.round_cap + 1 + self.rng.gen_range(0..8);
                self.inject(signer, twin);
            }
            Action::Splice => {
                self.injections.splice += 1;
                let idx = self.rng.gen_range(0..self.captured.len());
                let mut twin = self.captured[idx].0.clone();
                twin.from = signer;
                twin.round = self.params.round_cap + 1;
                self.inject(signer, twin);
            }
            Action::OverDeliver => {
                self.injections.over_deliver += 1;
                let (copy, rec) = (
                    self.captured.last().expect("just captured").0.clone(),
                    self.captured.last().expect("just captured").1.clone(),
                );
                self.transcript.push(rec);
                self.inner.send(copy);
            }
            Action::Replay => {
                self.injections.replay += 1;
                let idx = self.rng.gen_range(0..self.captured.len());
                let (copy, rec) = self.captured[idx].clone();
                self.transcript.push(rec);
                self.inner.send(copy);
            }
        }
    }

    fn recv(&mut self) -> Option<Envelope> {
        self.inner.recv()
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{MultiRoundSession, OneRoundReport};
    use crate::transport::{PerfectTransport, SessionId};
    use referee_graph::generators;
    use referee_protocol::combinators::OneRoundAsMultiRound;
    use referee_protocol::easy::EdgeCountProtocol;
    use referee_protocol::evidence::{verify_bundle, ProvableError};
    use referee_protocol::DecodeError;

    fn key(seed: u64) -> MacKey {
        let a = seed.to_le_bytes();
        let b = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes();
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&a);
        k[8..].copy_from_slice(&b);
        MacKey(k)
    }

    type RunOutcome = Result<Result<usize, DecodeError>, DecodeError>;

    /// One cap-1 EdgeCount session with `k` shards on a 3×4 grid behind
    /// [`Misbehaving`].
    fn run(
        cfg: ByzantineConfig,
        mask: BTreeSet<VertexId>,
        k: usize,
    ) -> (RunOutcome, Vec<EvidenceBundle>, InjectionCounts, MacKey, SessionParams) {
        let g = generators::grid(3, 4);
        let params = SessionParams { session: 77, n: g.n() as u32, round_cap: 1 };
        let base = key(cfg.seed);
        let mut t = Misbehaving::new(PerfectTransport::new(), cfg, mask, base, params);
        let report = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
            .with_shards(k)
            .with_session(SessionId(params.session))
            .run(&mut t);
        let report = OneRoundReport::from(report);
        (report.outcome, t.prosecute(), t.injections(), base, params)
    }

    #[test]
    fn honest_run_is_transparent_and_silent() {
        let (outcome, bundles, inj, _, _) = run(ByzantineConfig::honest(1), BTreeSet::new(), 3);
        assert_eq!(outcome.unwrap().unwrap(), generators::grid(3, 4).m());
        assert!(bundles.is_empty());
        assert_eq!(inj.total(), 0);
    }

    #[test]
    fn equivocation_fails_session_and_yields_attributing_bundle() {
        let cfg = ByzantineConfig { equivocate: 1.0, ..ByzantineConfig::honest(2) };
        // Node 1 misbehaves: its conflicting twin lands while later
        // uplinks are still outstanding, so the session must fail.
        let mask: BTreeSet<VertexId> = [1].into();
        let (outcome, bundles, inj, base, params) = run(cfg, mask, 4);
        assert!(outcome.is_err(), "conflicting duplicate must fail the session");
        assert_eq!(inj.equivocate as usize, 1);
        let atts: Vec<_> = bundles
            .iter()
            .map(|b| verify_bundle(&base, &params, b).expect("emitted bundles verify"))
            .collect();
        assert!(
            atts.iter().any(|a| a.error == ProvableError::Equivocation && a.culprit == Some(1)),
            "{atts:?}"
        );
    }

    #[test]
    fn withholding_fails_session_but_accuses_nobody() {
        let cfg = ByzantineConfig { under_deliver: 1.0, ..ByzantineConfig::honest(3) };
        let mask: BTreeSet<VertexId> = [5].into();
        let (outcome, bundles, inj, _, _) = run(cfg, mask, 2);
        assert!(outcome.is_err(), "a missing uplink starves the referee");
        assert!(inj.under_deliver >= 1);
        assert!(bundles.is_empty(), "absence is not attributable: {bundles:?}");
    }

    #[test]
    fn malformed_uplink_starves_and_is_provable() {
        let cfg = ByzantineConfig { malform: 1.0, ..ByzantineConfig::honest(4) };
        let mask: BTreeSet<VertexId> = [2].into();
        let (outcome, bundles, _, base, params) = run(cfg, mask, 1);
        assert!(outcome.is_err());
        let atts: Vec<_> =
            bundles.iter().map(|b| verify_bundle(&base, &params, b).unwrap()).collect();
        assert!(atts
            .iter()
            .any(|a| a.error == ProvableError::MalformedUplink && a.culprit == Some(2)));
    }

    #[test]
    fn stray_round_stamps_fail_the_session() {
        // Node 2's wrong-round and spliced twins are stamped past the
        // round cap: the session must fail rather than park them in a
        // future-round buffer.
        let mask: BTreeSet<VertexId> = [2].into();
        for cfg in [
            ByzantineConfig { wrong_round: 1.0, ..ByzantineConfig::honest(7) },
            ByzantineConfig { splice: 1.0, ..ByzantineConfig::honest(8) },
        ] {
            for k in [1, 3, 4] {
                let (outcome, _, inj, _, _) = run(cfg, mask.clone(), k);
                assert_eq!(inj.wrong_round + inj.splice, 1);
                assert!(matches!(outcome, Err(DecodeError::Invalid(_))), "k={k}: {outcome:?}");
            }
        }
    }

    #[test]
    fn forged_shard_sender_is_out_of_range() {
        // Node 2's twins claim senders n+1..=n+4: shard 0's ID, which
        // never sends, or a shipping shard's ID before the exchange —
        // forged node IDs either way, not partials.
        let cfg = ByzantineConfig { out_of_range: 1.0, ..ByzantineConfig::honest(9) };
        let mask: BTreeSet<VertexId> = [2].into();
        for k in [3, 4] {
            let (outcome, _, inj, _, _) = run(cfg, mask.clone(), k);
            assert_eq!(inj.out_of_range, 1);
            assert!(matches!(outcome, Err(DecodeError::OutOfRange(_))), "k={k}: {outcome:?}");
        }
    }

    #[test]
    fn exchange_partials_are_never_signed() {
        // With every node byzantine and all provable actions armed, the
        // transcript must still contain only records signed under party
        // paths — no record of the partial exchange, whose envelopes
        // come from the synthetic shard senders n+2..=n+k (and would be
        // frameable as "out-of-range sender").
        let g = generators::grid(2, 3);
        let params = SessionParams { session: 9, n: g.n() as u32, round_cap: 1 };
        let cfg = ByzantineConfig { byzantine: 1.0, ..ByzantineConfig::provable(5) };
        let mask = cfg.sample_mask(g.n());
        let mut t = Misbehaving::new(PerfectTransport::new(), cfg, mask, key(5), params);
        let _ = MultiRoundSession::new(&OneRoundAsMultiRound(EdgeCountProtocol), &g, 1)
            .with_shards(3)
            .with_session(SessionId(params.session))
            .run(&mut t);
        for rec in t.transcript() {
            assert_eq!(rec.path[0], EVIDENCE_DOMAIN);
            let party = rec.path[1] as u32;
            assert!((1..=params.n).contains(&party), "party {party}");
        }
    }

    #[test]
    fn mask_sampling_is_deterministic_and_probability_scaled() {
        let cfg = ByzantineConfig { byzantine: 0.3, ..ByzantineConfig::honest(6) };
        assert_eq!(cfg.sample_mask(50), cfg.sample_mask(50));
        assert!(ByzantineConfig::honest(6).sample_mask(50).is_empty());
        let all = ByzantineConfig { byzantine: 1.0, ..ByzantineConfig::honest(6) };
        assert_eq!(all.sample_mask(5).len(), 5);
    }
}
