//! Shared plumbing for the reduction protocols.
//!
//! The diameter and triangle reductions bundle several `Γ^l` outputs into
//! one `Δ^l` message ("the message sent to the referee is the triple
//! (m⁰, mˢ, mᵗ)"). Since `Γ` messages are opaque bit strings of arbitrary
//! length, the bundle is serialized as Elias-gamma length prefixes
//! followed by the raw bits — an overhead of `O(log |m|)` bits per part,
//! which preserves frugality (the paper simply notes the bundle is "three
//! times as big"; our accounting is exact).

use referee_protocol::{BitWriter, DecodeError, Message};

/// Concatenate messages with self-delimiting length prefixes.
pub fn bundle(parts: &[Message]) -> Message {
    let mut w = BitWriter::new();
    for part in parts {
        // +1 so the empty message is encodable (gamma needs ≥ 1).
        w.write_gamma(part.len_bits() as u64 + 1);
        part.append_to(&mut w);
    }
    Message::from_writer(w)
}

/// Split a bundle back into exactly `count` messages.
pub fn unbundle(msg: &Message, count: usize) -> Result<Vec<Message>, DecodeError> {
    let mut r = msg.reader();
    let mut parts = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.read_gamma()? - 1;
        let mut w = BitWriter::new();
        r.copy_bits_into(&mut w, len as usize)?;
        parts.push(Message::from_writer(w));
    }
    if !r.is_exhausted() {
        return Err(DecodeError::Invalid(format!(
            "bundle has {} trailing bits",
            r.remaining()
        )));
    }
    Ok(parts)
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
    fn bundle_round_trip() {
        let parts = vec![msg(5, 3), Message::empty(), msg(u64::MAX, 64), msg(0, 1)];
        let b = bundle(&parts);
        assert_eq!(unbundle(&b, 4).unwrap(), parts);
    }

    #[test]
    fn bundle_size_overhead_is_logarithmic() {
        let part = msg(12345, 20);
        let b = bundle(&[part.clone(), part.clone(), part.clone()]);
        // 3 × (20 payload + gamma(21) = 9 bits) = 87
        assert_eq!(b.len_bits(), 3 * (20 + 9));
    }

    #[test]
    fn unbundle_wrong_count_fails() {
        let b = bundle(&[msg(1, 1), msg(2, 2)]);
        assert!(unbundle(&b, 1).is_err()); // trailing bits
        assert!(unbundle(&b, 3).is_err()); // truncated
    }

    #[test]
    fn empty_bundle() {
        let b = bundle(&[]);
        assert_eq!(b.len_bits(), 0);
        assert_eq!(unbundle(&b, 0).unwrap(), Vec::<Message>::new());
    }
}
