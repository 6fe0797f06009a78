//! The one-round verifier as a catalog service.
//!
//! [`FleetServer::spawn_sharded`](crate::FleetServer::spawn_sharded)
//! (and any builder given shards or a placement but no catalog) runs
//! the multi-round engine of [`crate::multiround`] with a one-entry
//! catalog: a **digest referee** whose round cap is 1 and whose
//! round-1 step answers with the keyed [`vector_digest`] of the
//! assembled uplink vector. In the paper's model a one-round protocol is
//! exactly a multi-round protocol that stops after round 1, so nothing
//! else is needed:
//!
//! * [`FleetClient::verify_session`](crate::FleetClient::verify_session)
//!   is a cap-1 session of the client's one session driver: it
//!   announces with the bare 32-bit payload, which selects catalog
//!   entry 0, and sends its arrivals as round 1's uplinks;
//! * the verdict is the engine's — `1` plus the 64-bit digest, or `0`
//!   plus the 2-bit rejection class — and the client cross-checks the
//!   digest against the vector it sent, so a referee that reordered,
//!   truncated or substituted anything is caught.
//!
//! Faulty sessions fail fast through the engine's round rules
//! (duplicates, out-of-range senders, wrong round stamps and arrivals
//! behind a shipped range all poison round 1). The module also holds
//! the evidence helpers every worker uses to turn such a violation into
//! a self-contained [`EvidenceBundle`].

use crate::auth::AuthKey;
use crate::metrics::WireMetrics;
use crate::multiround::{decode_mr_verdict, RefereeStepper, ServiceCatalog, WireReferee};
use referee_protocol::evidence::{
    encode_record_body, verify_bundle, EvidenceBundle, EvidenceRecord, ProvableError,
    SessionParams,
};
use referee_protocol::multiround::RefereeStep;
use referee_protocol::shard::multiround::Fault;
use referee_protocol::trace::TraceKind;
use referee_protocol::{BitWriter, DecodeError, Message};
use referee_simnet::{Envelope, SessionId};
use std::sync::Arc;

/// Domain-separation tweak for the message-vector digest key.
const DIGEST_TWEAK: u64 = 0x7368_6172_645f_6467; // "shard_dg"

/// Keyed digest of an assembled message vector: SipHash-2-4 under
/// `key.derive(DIGEST_TWEAK)` over every message's position, bit length
/// and canonical bytes. Both ends of a fleet compute it from the base
/// key, so a verdict's digest pins the *exact* vector the referee
/// assembled — any reordering, truncation or substitution changes it.
pub fn vector_digest(key: &AuthKey, messages: &[Message]) -> u64 {
    let mut buf = Vec::new();
    for (i, m) in messages.iter().enumerate() {
        buf.extend_from_slice(&(i as u32 + 1).to_be_bytes());
        buf.extend_from_slice(&(m.len_bits() as u32).to_be_bytes());
        buf.extend_from_slice(m.as_bytes());
    }
    key.derive(DIGEST_TWEAK).tag(&buf)
}

/// The one-round verifier as a [`WireReferee`]: round cap 1, and the
/// round-1 step outputs the 64-bit [`vector_digest`] of the uplinks.
struct DigestReferee {
    key: AuthKey,
}

impl WireReferee for DigestReferee {
    fn open(&self, _n: usize) -> Box<dyn RefereeStepper> {
        Box::new(DigestReferee { key: self.key })
    }

    fn round_cap(&self, _n: usize) -> usize {
        1
    }
}

impl RefereeStepper for DigestReferee {
    fn step(&mut self, _n: usize, _round: usize, uplinks: &[Message]) -> RefereeStep<Message> {
        let mut w = BitWriter::new();
        w.write_bits(vector_digest(&self.key, uplinks), 64);
        RefereeStep::Done(Message::from_writer(w))
    }
}

/// The catalog a server without one serves: the digest referee alone.
pub(crate) fn digest_catalog(key: AuthKey) -> ServiceCatalog {
    ServiceCatalog::single(Arc::new(DigestReferee { key }))
}

/// Decode a digest service's verdict payload into the digest, or the
/// rejection that ended the session.
pub(crate) fn decode_digest_verdict(msg: &Message) -> Result<u64, DecodeError> {
    let out = decode_mr_verdict(msg)?;
    let mut r = out.reader();
    let digest = r.read_bits(64)?;
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid("trailing bits after verdict digest".into()));
    }
    Ok(digest)
}

/// Re-sign one arrival as a transcript record: the referee's per-node
/// projection of the authenticated run that carried it. The record body
/// is the per-node frame layout (`[ver][kind][session][round][from][to]
/// [len_bits][payload]`, `to` = the referee), and the record key path
/// `[conn]` folds to the connection key the run was MAC'd under, so the
/// record is signed under exactly the key that authenticated the run
/// (pinned by tests). Under the honest-referee model of
/// `referee_protocol::evidence` this proves what a per-node frame did.
fn evidence_record_for(
    base: &AuthKey,
    conn: u32,
    env: &Envelope,
    payload: &Message,
) -> EvidenceRecord {
    let body = encode_record_body(
        crate::frame::WIRE_VERSION,
        crate::frame::FrameKind::Data as u8,
        env.session.0,
        env.round,
        env.from,
        env.to,
        payload,
    );
    EvidenceRecord::sign(base.mac_key(), vec![u64::from(conn)], body)
}

/// Sign `fault` — a violation the arrival it hands back (one entry of a
/// round-`round` run from node `from`, to the referee) on `conn`
/// exhibits at a range wait — into one self-verified evidence bundle,
/// accusing
/// `conn` when the error is attributable. The records are the arrival
/// itself, twice for a bit-identical repeat (a
/// [`DuplicateSender`](ProvableError::DuplicateSender): provable, but an
/// at-least-once network does that too, so it accuses nobody), and
/// after the recorded original for an
/// [`Equivocation`](ProvableError::Equivocation). `None` means the
/// arrival's fields fall outside the self-contained shape rules and
/// prove nothing to a third party — the accountability layer never
/// ships a bundle
/// `verify_bundle` would bounce. Also logs the bundle on `metrics` and
/// traces the emission.
pub(crate) fn build_evidence(
    base: &AuthKey,
    conn: u32,
    params: SessionParams,
    (round, from): (u32, u32),
    fault: Fault,
    endpoint: u32,
    metrics: &WireMetrics,
) -> Option<EvidenceBundle> {
    let Fault { error, original, arrival } = fault;
    let session = SessionId(params.session);
    let env = Envelope { session, round, from, to: 0, payload: arrival };
    let rec = evidence_record_for(base, conn, &env, &env.payload);
    let records = match (error, original) {
        (_, Some(original)) => vec![evidence_record_for(base, conn, &env, &original), rec],
        (ProvableError::DuplicateSender, None) => vec![rec.clone(), rec],
        (_, None) => vec![rec],
    };
    let accused = error.attributable().then_some(conn);
    let bundle = EvidenceBundle { error, accused, records };
    verify_bundle(base.mac_key(), &params, &bundle).ok()?;
    metrics.record_evidence(&bundle);
    let payload = u64::from(accused.unwrap_or(0));
    metrics.trace(params.session, endpoint, TraceKind::Evidence, payload);
    Some(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiround::encode_mr_verdict;

    #[test]
    fn verdict_codec_round_trips() {
        let digest_out = |d: u64| {
            let mut w = BitWriter::new();
            w.write_bits(d, 64);
            Message::from_writer(w)
        };
        for result in [
            Ok(0u64),
            Ok(u64::MAX),
            Ok(0xdead_beef),
            Err(DecodeError::Truncated),
            Err(DecodeError::OutOfRange("x".into())),
            Err(DecodeError::Inconsistent("y".into())),
            Err(DecodeError::Invalid("z".into())),
        ] {
            let payload = encode_mr_verdict(&result.clone().map(digest_out));
            // The one-round verdict layout: ok bit + 64-bit digest, or
            // reject bit + 2-bit class.
            assert_eq!(payload.len_bits(), if result.is_ok() { 65 } else { 3 });
            let decoded = decode_digest_verdict(&payload);
            match (&result, &decoded) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(a), Err(b)) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "{a:?} vs {b:?}"
                ),
                other => panic!("verdict round trip changed shape: {other:?}"),
            }
        }
    }

    #[test]
    fn digest_referee_answers_in_round_one() {
        let key = AuthKey::from_seed(3);
        let catalog = digest_catalog(key);
        let entry = catalog.by_index(0).expect("one entry");
        assert_eq!(entry.round_cap(17), 1);
        let uplinks = vec![Message::empty(), Message::empty()];
        match entry.open(2).step(2, 1, &uplinks) {
            RefereeStep::Done(out) => {
                let verdict = encode_mr_verdict(&Ok(out));
                assert_eq!(decode_digest_verdict(&verdict), Ok(vector_digest(&key, &uplinks)));
            }
            RefereeStep::Continue(_) => panic!("the digest referee must finish in round 1"),
        }
    }

    #[test]
    fn digest_pins_position_content_and_length() {
        let key = AuthKey::from_seed(4);
        let m = |v: u64, w: u32| {
            let mut wr = BitWriter::new();
            wr.write_bits(v, w);
            Message::from_writer(wr)
        };
        let base = vec![m(1, 8), m(2, 8)];
        let swapped = vec![m(2, 8), m(1, 8)];
        let padded = vec![m(1, 8), m(2, 9)];
        let d = vector_digest(&key, &base);
        assert_ne!(d, vector_digest(&key, &swapped), "order must matter");
        assert_ne!(d, vector_digest(&key, &padded), "bit length must matter");
        assert_ne!(d, vector_digest(&AuthKey::from_seed(5), &base), "key must matter");
        assert_eq!(d, vector_digest(&key, &base.clone()), "deterministic");
    }
}
