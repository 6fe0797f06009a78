//! Attributable misbehavior: MAC'd transcripts, provable errors, and
//! self-contained evidence bundles.
//!
//! Fail-closed rejection (a MAC-reject and a dead session) proves that
//! *something* misbehaved but not *who*. This module turns detection
//! into accountability, in the style of accountable-MPC session
//! frameworks: every transmission a party signs is retained as an
//! [`EvidenceRecord`] — the exact authenticated bytes plus the
//! key-schedule derivation path of the key that signed them — and when
//! the referee observes a provable violation it packages the offending
//! records into a gamma-coded, self-contained [`EvidenceBundle`]. A
//! third party holding only the session base key and the public
//! [`SessionParams`] runs [`verify_bundle`] to check the accusation —
//! no live state, no trust in the accuser.
//!
//! # Record format
//!
//! A record's `body` has the layout of a per-node `wirenet` frame's
//! authenticated body (everything after the length prefix, before the
//! tag):
//!
//! ```text
//! [ver:1][kind:1][session:8][round:4][from:4][to:4][len_bits:4][payload]
//! ```
//!
//! all integers big-endian, and `tag = siphash24(key, body)` where
//! `key` is the base key folded through the record's derivation
//! [`path`](EvidenceRecord::path) (`base.derive(p₀).derive(p₁)…`).
//! On the wire, uplinks travel as runs (every node's entry of one
//! session round in one MAC'd frame), so a wire record is the
//! referee's per-node projection of an authenticated run: the one
//! entry the accusation concerns, re-signed under the key that
//! authenticated the run. Under the honest-referee model below that
//! proves what a per-node frame would, and a record round-trips
//! losslessly through a bundle.
//!
//! # Attribution and the no-framing argument
//!
//! The *principal* of a record is the last element of its derivation
//! path — the per-connection id in `wirenet` (path `[conn]`), the
//! per-party id in simnet (path `[EVIDENCE_DOMAIN, party]`). Only the
//! holder of the derived key can produce a MAC-valid record under that
//! path, so a verified bundle attributes the principal and nobody
//! else: an honest party signs at most one payload per `(session,
//! round)` uplink slot and always canonical, in-range, current-round
//! bodies, so no set of records signed by an honest party can satisfy
//! an attributable shape rule below. Replay and identical duplication
//! *can* be the network's (or a byzantine forwarder's) doing, which is
//! why [`ProvableError::DuplicateSender`] and
//! [`ProvableError::StaleReplay`] are documented facts with
//! `culprit == None` rather than accusations.
//!
//! The MAC is symmetric: both ends of a connection hold the derived
//! key, so a bundle proves "a holder of this key signed this" — the
//! accuser (the referee) could technically forge records against its
//! own clients. The model is therefore *honest-referee*: bundles let a
//! referee prove client misbehavior to a third party, not clients
//! prove referee misbehavior. Honest parties must also use fresh
//! session ids per run; reusing one across runs would make two honest
//! same-slot payloads indistinguishable from equivocation.

use crate::bits::BitWriter;
use crate::mac::{siphash24, MacKey};
use crate::message::Message;
use crate::DecodeError;
use std::collections::BTreeMap;

/// Domain-separation tweak prefixed to simnet per-party evidence key
/// paths, so party keys can never collide with `wirenet`'s
/// per-connection key paths (`[conn]`) or the placement schedule.
pub const EVIDENCE_DOMAIN: u64 = 0x4556_4944; // "EVID"

/// Size of the fixed record-body header: version, kind, session,
/// round, from, to, payload bit length.
pub const RECORD_HEADER_BYTES: usize = 1 + 1 + 8 + 4 + 4 + 4 + 4;

/// Record-body kind code for protocol data frames (matches
/// `wirenet::FrameKind::Data`). Every shape rule below concerns data
/// records; other kinds may appear as context but prove nothing here.
pub const RECORD_KIND_DATA: u8 = 0;

/// The referee / coordinator address in record `to` fields (matches
/// simnet's `REFEREE`): shape rules only fire on uplinks (`to == 0`),
/// never on referee downlinks (`from == 0`), so a downlink can never
/// be re-cut as an out-of-range-sender proof.
pub const RECORD_TO_REFEREE: u32 = 0;

/// Ceiling on a decoded record body — mirrors the frame layer's
/// `MAX_BODY_BYTES` plus header slack, rejecting absurd length
/// prefixes before allocating.
pub const MAX_RECORD_BYTES: usize = (1 << 20) + RECORD_HEADER_BYTES + 8;

/// Ceiling on records per bundle: every shape rule needs at most two.
pub const MAX_BUNDLE_RECORDS: usize = 8;

/// The provable-error taxonomy: violations whose proof fits in one or
/// two MAC'd records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ProvableError {
    /// Two MAC-valid data records with the same `(session, round,
    /// sender)` slot under the same key path but different payloads.
    /// Attributable: an honest party signs one payload per slot.
    Equivocation = 0,
    /// A MAC-valid data record whose payload is not a canonical bit
    /// string (padding bits set, or byte count inconsistent with the
    /// declared bit length). Attributable: honest encoders are
    /// canonical by construction.
    MalformedUplink = 1,
    /// A MAC-valid uplink claiming a sender id outside `1..=n`.
    /// Attributable: honest parties send their own in-range id.
    OutOfRangeSender = 2,
    /// A MAC-valid uplink for round `0` or a round beyond the
    /// service's round cap. Attributable: honest parties track the
    /// session round.
    WrongRound = 3,
    /// The same MAC-valid record delivered more than once. **Not**
    /// attributable (`culprit == None`): at-least-once transports
    /// legitimately re-deliver, so pinning this on the signer would
    /// frame honest senders behind a duplicating network.
    DuplicateSender = 4,
    /// A record MAC'd under a superseded generation of a rotating key
    /// schedule, paired with a context record proving a newer
    /// generation was live. **Not** attributable: anyone who captured
    /// the old frame can replay it.
    StaleReplay = 5,
}

impl ProvableError {
    /// Every error, in wire-code order.
    pub const ALL: [ProvableError; 6] = [
        ProvableError::Equivocation,
        ProvableError::MalformedUplink,
        ProvableError::OutOfRangeSender,
        ProvableError::WrongRound,
        ProvableError::DuplicateSender,
        ProvableError::StaleReplay,
    ];

    /// Whether a verified bundle of this kind names a culprit.
    pub fn attributable(self) -> bool {
        !matches!(self, ProvableError::DuplicateSender | ProvableError::StaleReplay)
    }

    /// Stable snake_case name for logs and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            ProvableError::Equivocation => "equivocation",
            ProvableError::MalformedUplink => "malformed_uplink",
            ProvableError::OutOfRangeSender => "out_of_range_sender",
            ProvableError::WrongRound => "wrong_round",
            ProvableError::DuplicateSender => "duplicate_sender",
            ProvableError::StaleReplay => "stale_replay",
        }
    }

    /// Inverse of `error as u8`; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<ProvableError> {
        ProvableError::ALL.get(code as usize).copied()
    }
}

/// The public session facts a third-party verifier must know: which
/// session the accusation concerns, how many parties it had, and the
/// highest legal uplink round. Everything else comes from the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionParams {
    /// Session id every record must carry.
    pub session: u64,
    /// Number of parties; legal senders are `1..=n`.
    pub n: u32,
    /// Highest legal uplink round; legal rounds are `1..=round_cap`.
    pub round_cap: u32,
}

/// The parsed header of a record body, plus the raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordFields {
    /// Wire-format version byte.
    pub ver: u8,
    /// Frame kind code ([`RECORD_KIND_DATA`] for uplinks).
    pub kind: u8,
    /// Session id.
    pub session: u64,
    /// Protocol round.
    pub round: u32,
    /// Claimed sender vertex.
    pub from: u32,
    /// Destination vertex ([`RECORD_TO_REFEREE`] for uplinks).
    pub to: u32,
    /// Declared payload bit length.
    pub len_bits: u32,
    /// Raw payload bytes exactly as signed.
    pub payload: Vec<u8>,
}

impl RecordFields {
    /// The payload as a canonical [`Message`], or `None` when the raw
    /// bytes are non-canonical (the [`ProvableError::MalformedUplink`]
    /// case: MAC-valid, yet no honest encoder produces it).
    pub fn message(&self) -> Option<Message> {
        Message::from_bits(self.payload.clone(), self.len_bits as usize).ok()
    }
}

/// Build a canonical record body from parsed fields — the inverse of
/// [`EvidenceRecord::parse`], in the per-node frame layout.
pub fn encode_record_body(
    ver: u8,
    kind: u8,
    session: u64,
    round: u32,
    from: u32,
    to: u32,
    payload: &Message,
) -> Vec<u8> {
    encode_record_body_raw(
        ver,
        kind,
        session,
        round,
        from,
        to,
        payload.len_bits() as u32,
        payload.as_bytes(),
    )
}

/// [`encode_record_body`] on raw payload bytes + an explicit bit
/// length — the hook misbehavior injectors use to sign bodies no
/// honest encoder would emit (non-canonical padding, short buffers).
#[allow(clippy::too_many_arguments)]
pub fn encode_record_body_raw(
    ver: u8,
    kind: u8,
    session: u64,
    round: u32,
    from: u32,
    to: u32,
    len_bits: u32,
    payload: &[u8],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    body.push(ver);
    body.push(kind);
    body.extend_from_slice(&session.to_be_bytes());
    body.extend_from_slice(&round.to_be_bytes());
    body.extend_from_slice(&from.to_be_bytes());
    body.extend_from_slice(&to.to_be_bytes());
    body.extend_from_slice(&len_bits.to_be_bytes());
    body.extend_from_slice(payload);
    body
}

/// Fold a derivation path over a base key: `base.derive(p₀)…derive(pₖ)`.
pub fn key_for_path(base: &MacKey, path: &[u64]) -> MacKey {
    path.iter().fold(*base, |k, &tweak| k.derive(tweak))
}

/// One authenticated transmission: the signed body, its tag, and the
/// key-schedule path identifying the signing key (and thereby the
/// principal — the path's last element).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Key derivation path from the session base key.
    pub path: Vec<u64>,
    /// Authenticated body bytes (see module docs for the layout).
    pub body: Vec<u8>,
    /// `siphash24(key_for_path(base, path), body)`.
    pub tag: u64,
}

impl EvidenceRecord {
    /// Sign `body` under `base` folded through `path`.
    pub fn sign(base: &MacKey, path: Vec<u64>, body: Vec<u8>) -> EvidenceRecord {
        let tag = siphash24(&key_for_path(base, &path), &body);
        EvidenceRecord { path, body, tag }
    }

    /// Check the tag against the session base key. Constant-time
    /// comparison is not needed: tags are public values on bundles.
    pub fn verify(&self, base: &MacKey) -> bool {
        siphash24(&key_for_path(base, &self.path), &self.body) == self.tag
    }

    /// The principal this record attributes to when a shape rule
    /// fires: the last path element, truncated to the id space.
    pub fn principal(&self) -> Option<u32> {
        self.path.last().map(|&p| p as u32)
    }

    /// Parse the body header. Fails only when the body cannot even
    /// carry a header — a malformed *payload* still parses (that is
    /// what makes [`ProvableError::MalformedUplink`] provable).
    pub fn parse(&self) -> Result<RecordFields, DecodeError> {
        if self.body.len() < RECORD_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let b = &self.body;
        let be32 = |s: &[u8]| u32::from_be_bytes(s.try_into().expect("4 bytes"));
        Ok(RecordFields {
            ver: b[0],
            kind: b[1],
            session: u64::from_be_bytes(b[2..10].try_into().expect("8 bytes")),
            round: be32(&b[10..14]),
            from: be32(&b[14..18]),
            to: be32(&b[18..22]),
            len_bits: be32(&b[22..26]),
            payload: b[RECORD_HEADER_BYTES..].to_vec(),
        })
    }
}

/// A self-contained accusation: the claimed error, the accused
/// principal (for attributable errors), and the records that prove it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceBundle {
    /// What violation the records prove.
    pub error: ProvableError,
    /// The accused principal; must be `None` exactly when
    /// [`ProvableError::attributable`] is false.
    pub accused: Option<u32>,
    /// The offending records (plus minimal context for two-record
    /// proofs). Order is part of the shape for [`ProvableError::StaleReplay`]:
    /// offender first, newer-generation context second.
    pub records: Vec<EvidenceRecord>,
}

impl EvidenceBundle {
    /// Gamma-coded canonical serialization.
    pub fn encode(&self) -> Message {
        let mut w = BitWriter::new();
        w.write_gamma(self.error as u64 + 1);
        match self.accused {
            None => w.write_bits(0, 1),
            Some(a) => {
                w.write_bits(1, 1);
                w.write_gamma(a as u64 + 1);
            }
        }
        w.write_gamma(self.records.len() as u64 + 1);
        for r in &self.records {
            w.write_gamma(r.path.len() as u64 + 1);
            for &p in &r.path {
                w.write_bits(p, 64);
            }
            w.write_gamma(r.body.len() as u64 + 1);
            for &b in &r.body {
                w.write_bits(b as u64, 8);
            }
            w.write_bits(r.tag, 64);
        }
        Message::from_writer(w)
    }

    /// Strict inverse of [`encode`](EvidenceBundle::encode): rejects
    /// unknown error codes, absurd lengths, and trailing bits.
    pub fn decode(msg: &Message) -> Result<EvidenceBundle, DecodeError> {
        let mut r = msg.reader();
        let code = r.read_gamma()? - 1;
        let error = ProvableError::from_code(
            u8::try_from(code)
                .map_err(|_| DecodeError::OutOfRange(format!("error code {code}")))?,
        )
        .ok_or_else(|| DecodeError::OutOfRange(format!("error code {code}")))?;
        let accused = if r.read_bits(1)? == 1 {
            let a = r.read_gamma()? - 1;
            Some(
                u32::try_from(a)
                    .map_err(|_| DecodeError::OutOfRange(format!("accused {a}")))?,
            )
        } else {
            None
        };
        let count = (r.read_gamma()? - 1) as usize;
        if count > MAX_BUNDLE_RECORDS {
            return Err(DecodeError::OutOfRange(format!("{count} records")));
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let path_len = (r.read_gamma()? - 1) as usize;
            if path_len > 16 {
                return Err(DecodeError::OutOfRange(format!("path length {path_len}")));
            }
            let mut path = Vec::with_capacity(path_len);
            for _ in 0..path_len {
                path.push(r.read_bits(64)?);
            }
            let body_len = (r.read_gamma()? - 1) as usize;
            if body_len > MAX_RECORD_BYTES {
                return Err(DecodeError::OutOfRange(format!("body length {body_len}")));
            }
            let mut body = Vec::with_capacity(body_len);
            for _ in 0..body_len {
                body.push(r.read_bits(8)? as u8);
            }
            let tag = r.read_bits(64)?;
            records.push(EvidenceRecord { path, body, tag });
        }
        if !r.is_exhausted() {
            return Err(DecodeError::Invalid("trailing bits after bundle".into()));
        }
        Ok(EvidenceBundle { error, accused, records })
    }

    /// Byte serialization for `EVIDENCE_*.bin` artifacts: a 4-byte
    /// big-endian bit count followed by the canonical payload bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let msg = self.encode();
        let mut out = Vec::with_capacity(4 + msg.as_bytes().len());
        out.extend_from_slice(&(msg.len_bits() as u32).to_be_bytes());
        out.extend_from_slice(msg.as_bytes());
        out
    }

    /// Inverse of [`to_bytes`](EvidenceBundle::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<EvidenceBundle, DecodeError> {
        if bytes.len() < 4 {
            return Err(DecodeError::Truncated);
        }
        let len_bits = u32::from_be_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        let msg = Message::from_bits(bytes[4..].to_vec(), len_bits)?;
        EvidenceBundle::decode(&msg)
    }
}

/// Why a bundle failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvidenceError {
    /// A record's tag does not verify under the session key schedule.
    BadMac {
        /// Index of the offending record within the bundle.
        index: usize,
    },
    /// A record names a different session than [`SessionParams`].
    WrongSession {
        /// Index of the offending record within the bundle.
        index: usize,
    },
    /// The records do not satisfy the claimed error's shape rule.
    Shape(String),
}

impl std::fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvidenceError::BadMac { index } => {
                write!(f, "record {index} fails MAC verification")
            }
            EvidenceError::WrongSession { index } => {
                write!(f, "record {index} names a different session")
            }
            EvidenceError::Shape(s) => write!(f, "shape rule violated: {s}"),
        }
    }
}

impl std::error::Error for EvidenceError {}

/// A verified accusation: what happened and (when the error is
/// attributable) who provably did it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// The proven violation.
    pub error: ProvableError,
    /// The proven culprit — the signing principal — or `None` for
    /// non-attributable facts (duplicates, stale replays).
    pub culprit: Option<u32>,
}

fn shape_err<T>(msg: impl Into<String>) -> Result<T, EvidenceError> {
    Err(EvidenceError::Shape(msg.into()))
}

/// Verify an evidence bundle against *only* the session key schedule
/// and public parameters — no live referee state.
///
/// Checks, in order: every record MAC-verifies under `base` folded
/// through its path, every record names `params.session`, and the
/// records satisfy the claimed [`ProvableError`]'s shape rule (see
/// each variant's docs). On success the returned [`Attribution`]'s
/// `culprit` is guaranteed consistent with `bundle.accused` — a bundle
/// accusing anyone other than the proven principal fails.
pub fn verify_bundle(
    base: &MacKey,
    params: &SessionParams,
    bundle: &EvidenceBundle,
) -> Result<Attribution, EvidenceError> {
    if bundle.records.is_empty() {
        return shape_err("no records");
    }
    if bundle.records.len() > MAX_BUNDLE_RECORDS {
        return shape_err("too many records");
    }
    let mut fields = Vec::with_capacity(bundle.records.len());
    for (index, rec) in bundle.records.iter().enumerate() {
        if rec.path.is_empty() {
            return shape_err(format!("record {index} has an empty key path"));
        }
        if !rec.verify(base) {
            return Err(EvidenceError::BadMac { index });
        }
        let f =
            rec.parse().map_err(|e| EvidenceError::Shape(format!("record {index}: {e}")))?;
        if f.session != params.session {
            return Err(EvidenceError::WrongSession { index });
        }
        fields.push(f);
    }

    let uplink = |f: &RecordFields, what: &str| -> Result<(), EvidenceError> {
        if f.kind != RECORD_KIND_DATA {
            return shape_err(format!("{what}: not a data record"));
        }
        if f.to != RECORD_TO_REFEREE {
            return shape_err(format!("{what}: not addressed to the referee"));
        }
        Ok(())
    };
    let in_range = |v: u32| v >= 1 && v <= params.n;
    let round_ok = |r: u32| r >= 1 && r <= params.round_cap;

    let culprit = match bundle.error {
        ProvableError::Equivocation => {
            let [a, b] = two(&fields)?;
            uplink(a, "first record")?;
            uplink(b, "second record")?;
            if (a.round, a.from) != (b.round, b.from) {
                return shape_err("records occupy different (round, sender) slots");
            }
            if !in_range(a.from) {
                return shape_err(
                    "sender out of range (an out-of-range proof, not equivocation)",
                );
            }
            if !round_ok(a.round) {
                return shape_err("round out of range (a wrong-round proof, not equivocation)");
            }
            if bundle.records[0].path != bundle.records[1].path {
                return shape_err("records signed under different key paths");
            }
            let (ma, mb) = match (a.message(), b.message()) {
                (Some(ma), Some(mb)) => (ma, mb),
                _ => return shape_err("non-canonical payload (a malformed-uplink proof)"),
            };
            if ma == mb {
                return shape_err("payloads are identical (a duplicate, not equivocation)");
            }
            bundle.records[0].principal()
        }
        ProvableError::MalformedUplink => {
            let f = one(&fields)?;
            uplink(f, "record")?;
            if f.message().is_some() {
                return shape_err("payload is canonical — nothing malformed to prove");
            }
            bundle.records[0].principal()
        }
        ProvableError::OutOfRangeSender => {
            let f = one(&fields)?;
            uplink(f, "record")?;
            if in_range(f.from) {
                return shape_err(format!("sender {} is in range 1..={}", f.from, params.n));
            }
            bundle.records[0].principal()
        }
        ProvableError::WrongRound => {
            let f = one(&fields)?;
            uplink(f, "record")?;
            if round_ok(f.round) {
                return shape_err(format!(
                    "round {} is in range 1..={}",
                    f.round, params.round_cap
                ));
            }
            bundle.records[0].principal()
        }
        ProvableError::DuplicateSender => {
            let [a, _b] = two(&fields)?;
            uplink(a, "record")?;
            let (ra, rb) = (&bundle.records[0], &bundle.records[1]);
            if ra.body != rb.body || ra.path != rb.path || ra.tag != rb.tag {
                return shape_err("records are not identical transmissions");
            }
            None
        }
        ProvableError::StaleReplay => {
            let [off, ctx] = two(&fields)?;
            uplink(off, "offending record")?;
            let (ro, rc) = (&bundle.records[0], &bundle.records[1]);
            let (po, pc) = (&ro.path, &rc.path);
            if po.len() != pc.len() || po.is_empty() {
                return shape_err("paths are not generation siblings");
            }
            if po[..po.len() - 1] != pc[..pc.len() - 1] {
                return shape_err("paths diverge before the generation element");
            }
            let (go, gc) = (po[po.len() - 1], pc[pc.len() - 1]);
            if go >= gc {
                return shape_err(format!(
                    "offender generation {go} is not older than context generation {gc}"
                ));
            }
            let _ = ctx;
            None
        }
    };

    if bundle.accused != culprit {
        return shape_err(format!(
            "bundle accuses {:?} but the records prove {:?}",
            bundle.accused, culprit
        ));
    }
    Ok(Attribution { error: bundle.error, culprit })
}

fn one(fields: &[RecordFields]) -> Result<&RecordFields, EvidenceError> {
    match fields {
        [f] => Ok(f),
        _ => shape_err(format!("expected 1 record, got {}", fields.len())),
    }
}

fn two(fields: &[RecordFields]) -> Result<[&RecordFields; 2], EvidenceError> {
    match fields {
        [a, b] => Ok([a, b]),
        _ => shape_err(format!("expected 2 records, got {}", fields.len())),
    }
}

/// Scan a transcript of signed records and build every bundle the
/// generic shape rules support — the independent "prosecutor" used by
/// the byzantine harnesses. It trusts nothing but the MACs: records
/// that fail verification or parsing are ignored, and only uplink
/// records for `params.session` are considered. Bundles come out in a
/// deterministic order (by slot, then error code).
///
/// [`ProvableError::StaleReplay`] needs key-rotation semantics the
/// generic scan cannot see; rotating layers (placement) build those
/// bundles at the rotation point instead.
pub fn prosecute(
    base: &MacKey,
    params: &SessionParams,
    transcript: &[EvidenceRecord],
) -> Vec<EvidenceBundle> {
    // (round, from, path) → distinct signed uplink records for the slot.
    type SlotKey = (u32, u32, Vec<u64>);
    let mut slots: BTreeMap<SlotKey, Vec<(usize, RecordFields)>> = BTreeMap::new();
    let mut bundles = Vec::new();
    for (i, rec) in transcript.iter().enumerate() {
        if rec.path.is_empty() || !rec.verify(base) {
            continue;
        }
        let Ok(f) = rec.parse() else { continue };
        if f.session != params.session
            || f.kind != RECORD_KIND_DATA
            || f.to != RECORD_TO_REFEREE
        {
            continue;
        }
        if f.message().is_none() {
            bundles.push(EvidenceBundle {
                error: ProvableError::MalformedUplink,
                accused: rec.principal(),
                records: vec![rec.clone()],
            });
            continue;
        }
        if f.from == 0 || f.from > params.n {
            bundles.push(EvidenceBundle {
                error: ProvableError::OutOfRangeSender,
                accused: rec.principal(),
                records: vec![rec.clone()],
            });
            continue;
        }
        if f.round == 0 || f.round > params.round_cap {
            bundles.push(EvidenceBundle {
                error: ProvableError::WrongRound,
                accused: rec.principal(),
                records: vec![rec.clone()],
            });
            continue;
        }
        slots.entry((f.round, f.from, rec.path.clone())).or_default().push((i, f));
    }
    for ((_, _, path), entries) in &slots {
        // First equivocation pair (distinct payloads) and first exact
        // duplicate pair in the slot, if any.
        let mut equiv: Option<(usize, usize)> = None;
        let mut dup: Option<(usize, usize)> = None;
        for (ai, (a, _)) in entries.iter().enumerate() {
            for (b, _) in entries.iter().skip(ai + 1) {
                let (ra, rb) = (&transcript[*a], &transcript[*b]);
                if ra.body == rb.body {
                    dup.get_or_insert((*a, *b));
                } else {
                    equiv.get_or_insert((*a, *b));
                }
            }
        }
        if let Some((a, b)) = equiv {
            bundles.push(EvidenceBundle {
                error: ProvableError::Equivocation,
                accused: Some(*path.last().expect("non-empty path") as u32),
                records: vec![transcript[a].clone(), transcript[b].clone()],
            });
        }
        if let Some((a, b)) = dup {
            bundles.push(EvidenceBundle {
                error: ProvableError::DuplicateSender,
                accused: None,
                records: vec![transcript[a].clone(), transcript[b].clone()],
            });
        }
    }
    bundles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitWriter;

    fn base() -> MacKey {
        MacKey(*b"evidence-base-ky")
    }

    fn params() -> SessionParams {
        SessionParams { session: 7, n: 5, round_cap: 3 }
    }

    fn payload(value: u64, width: u32) -> Message {
        let mut w = BitWriter::new();
        w.write_bits(value, width);
        Message::from_writer(w)
    }

    fn uplink(party: u32, round: u32, msg: &Message) -> EvidenceRecord {
        let body = encode_record_body(2, RECORD_KIND_DATA, 7, round, party, 0, msg);
        EvidenceRecord::sign(&base(), vec![EVIDENCE_DOMAIN, party as u64], body)
    }

    #[test]
    fn record_sign_verify_parse_round_trip() {
        let m = payload(0b1011, 4);
        let rec = uplink(3, 1, &m);
        assert!(rec.verify(&base()));
        let f = rec.parse().unwrap();
        assert_eq!((f.session, f.round, f.from, f.to), (7, 1, 3, 0));
        assert_eq!(f.message().unwrap(), m);
        assert_eq!(rec.principal(), Some(3));
    }

    #[test]
    fn equivocation_bundle_verifies_and_attributes_signer() {
        let b = EvidenceBundle {
            error: ProvableError::Equivocation,
            accused: Some(2),
            records: vec![uplink(2, 1, &payload(1, 3)), uplink(2, 1, &payload(5, 3))],
        };
        let att = verify_bundle(&base(), &params(), &b).unwrap();
        assert_eq!(att.culprit, Some(2));
        assert_eq!(att.error, ProvableError::Equivocation);
    }

    #[test]
    fn identical_payloads_are_not_equivocation() {
        let b = EvidenceBundle {
            error: ProvableError::Equivocation,
            accused: Some(2),
            records: vec![uplink(2, 1, &payload(1, 3)), uplink(2, 1, &payload(1, 3))],
        };
        assert!(matches!(verify_bundle(&base(), &params(), &b), Err(EvidenceError::Shape(_))));
    }

    #[test]
    fn out_of_range_and_wrong_round_verify() {
        let oor = EvidenceBundle {
            error: ProvableError::OutOfRangeSender,
            accused: Some(4),
            records: vec![{
                let body = encode_record_body(2, RECORD_KIND_DATA, 7, 1, 99, 0, &payload(1, 1));
                EvidenceRecord::sign(&base(), vec![EVIDENCE_DOMAIN, 4], body)
            }],
        };
        assert_eq!(verify_bundle(&base(), &params(), &oor).unwrap().culprit, Some(4));
        let wr = EvidenceBundle {
            error: ProvableError::WrongRound,
            accused: Some(1),
            records: vec![uplink(1, 9, &payload(1, 1))],
        };
        assert_eq!(verify_bundle(&base(), &params(), &wr).unwrap().culprit, Some(1));
    }

    #[test]
    fn malformed_uplink_is_provable_and_canonical_is_not() {
        // 3 declared bits with a padding bit set: MAC-valid, yet no
        // honest encoder produces it.
        let body = encode_record_body_raw(2, RECORD_KIND_DATA, 7, 1, 3, 0, 3, &[0b1010_0001]);
        let rec = EvidenceRecord::sign(&base(), vec![EVIDENCE_DOMAIN, 3], body);
        let b = EvidenceBundle {
            error: ProvableError::MalformedUplink,
            accused: Some(3),
            records: vec![rec],
        };
        assert_eq!(verify_bundle(&base(), &params(), &b).unwrap().culprit, Some(3));
        let canon = EvidenceBundle {
            error: ProvableError::MalformedUplink,
            accused: Some(3),
            records: vec![uplink(3, 1, &payload(1, 3))],
        };
        assert!(verify_bundle(&base(), &params(), &canon).is_err());
    }

    #[test]
    fn duplicate_and_stale_replay_never_accuse() {
        let r = uplink(2, 1, &payload(1, 3));
        let dup = EvidenceBundle {
            error: ProvableError::DuplicateSender,
            accused: None,
            records: vec![r.clone(), r.clone()],
        };
        assert_eq!(verify_bundle(&base(), &params(), &dup).unwrap().culprit, None);
        // Accusing anyone on a duplicate fails.
        let framed = EvidenceBundle { accused: Some(2), ..dup.clone() };
        assert!(verify_bundle(&base(), &params(), &framed).is_err());

        // Stale replay: offender signed under generation 1, context
        // under generation 3 of the same schedule.
        let body = encode_record_body(2, RECORD_KIND_DATA, 7, 1, 2, 0, &payload(1, 3));
        let off = EvidenceRecord::sign(&base(), vec![42, 1], body.clone());
        let ctx_body = encode_record_body(2, RECORD_KIND_DATA, 7, 2, 2, 0, &payload(2, 3));
        let ctx = EvidenceRecord::sign(&base(), vec![42, 3], ctx_body);
        let stale = EvidenceBundle {
            error: ProvableError::StaleReplay,
            accused: None,
            records: vec![off.clone(), ctx.clone()],
        };
        assert_eq!(verify_bundle(&base(), &params(), &stale).unwrap().culprit, None);
        // Generations reversed: not a stale replay.
        let rev = EvidenceBundle {
            error: ProvableError::StaleReplay,
            accused: None,
            records: vec![ctx, off],
        };
        assert!(verify_bundle(&base(), &params(), &rev).is_err());
    }

    #[test]
    fn bundle_codec_round_trips() {
        let b = EvidenceBundle {
            error: ProvableError::Equivocation,
            accused: Some(2),
            records: vec![uplink(2, 1, &payload(1, 3)), uplink(2, 1, &payload(5, 3))],
        };
        let enc = b.encode();
        assert_eq!(EvidenceBundle::decode(&enc).unwrap(), b);
        let bytes = b.to_bytes();
        assert_eq!(EvidenceBundle::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn forged_bundles_fail_verification() {
        let good = EvidenceBundle {
            error: ProvableError::Equivocation,
            accused: Some(2),
            records: vec![uplink(2, 1, &payload(1, 3)), uplink(2, 1, &payload(5, 3))],
        };
        verify_bundle(&base(), &params(), &good).unwrap();

        // Any body bit flip breaks the MAC.
        for idx in 0..good.records[0].body.len() * 8 {
            let mut forged = good.clone();
            forged.records[0].body[idx / 8] ^= 1 << (7 - idx % 8);
            assert!(
                verify_bundle(&base(), &params(), &forged).is_err(),
                "body bit {idx} forgery verified"
            );
        }
        // Tag tampering breaks the MAC.
        let mut forged = good.clone();
        forged.records[1].tag ^= 1;
        assert!(matches!(
            verify_bundle(&base(), &params(), &forged),
            Err(EvidenceError::BadMac { index: 1 })
        ));
        // Re-pointing the accusation at an honest party fails.
        let mut forged = good.clone();
        forged.accused = Some(1);
        assert!(verify_bundle(&base(), &params(), &forged).is_err());
        // Changing the claimed error fails the shape rule.
        let mut forged = good.clone();
        forged.error = ProvableError::DuplicateSender;
        forged.accused = None;
        assert!(verify_bundle(&base(), &params(), &forged).is_err());
        // Splicing a record signed under a different path fails.
        let mut forged = good.clone();
        forged.records[1] = uplink(3, 1, &payload(5, 3));
        assert!(verify_bundle(&base(), &params(), &forged).is_err());
        // Wrong session key: nothing verifies.
        assert!(verify_bundle(&MacKey([9; 16]), &params(), &good).is_err());
    }

    #[test]
    fn wrong_session_is_rejected() {
        let b = EvidenceBundle {
            error: ProvableError::WrongRound,
            accused: Some(1),
            records: vec![uplink(1, 9, &payload(1, 1))],
        };
        let other = SessionParams { session: 8, ..params() };
        assert!(matches!(
            verify_bundle(&base(), &other, &b),
            Err(EvidenceError::WrongSession { index: 0 })
        ));
    }

    #[test]
    fn prosecutor_finds_planted_violations_and_nothing_else() {
        let p = params();
        let mut transcript = Vec::new();
        // Honest traffic: each party's single round-1 uplink.
        for v in 1..=p.n {
            transcript.push(uplink(v, 1, &payload(v as u64, 3)));
        }
        // Party 2 equivocates; party 4's uplink is replayed verbatim.
        transcript.push(uplink(2, 1, &payload(6, 3)));
        transcript.push(transcript[3].clone());
        // Party 5 sends an out-of-range claim.
        let body = encode_record_body(2, RECORD_KIND_DATA, 7, 1, 77, 0, &payload(1, 1));
        transcript.push(EvidenceRecord::sign(&base(), vec![EVIDENCE_DOMAIN, 5], body));

        let bundles = prosecute(&base(), &p, &transcript);
        assert_eq!(bundles.len(), 3);
        let mut culprits = Vec::new();
        for b in &bundles {
            let att = verify_bundle(&base(), &p, b).unwrap();
            culprits.push((att.error, att.culprit));
        }
        culprits.sort();
        assert_eq!(
            culprits,
            vec![
                (ProvableError::Equivocation, Some(2)),
                (ProvableError::OutOfRangeSender, Some(5)),
                (ProvableError::DuplicateSender, None),
            ]
        );
    }

    #[test]
    fn prosecutor_is_silent_on_honest_transcripts() {
        let p = params();
        let transcript: Vec<_> =
            (1..=p.n).map(|v| uplink(v, 1, &payload(v as u64, 3))).collect();
        assert!(prosecute(&base(), &p, &transcript).is_empty());
    }

    #[test]
    fn error_codes_round_trip() {
        for e in ProvableError::ALL {
            assert_eq!(ProvableError::from_code(e as u8), Some(e));
        }
        assert_eq!(ProvableError::from_code(6), None);
        assert!(ProvableError::Equivocation.attributable());
        assert!(!ProvableError::DuplicateSender.attributable());
        assert!(!ProvableError::StaleReplay.attributable());
    }
}
