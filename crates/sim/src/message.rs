use std::fmt;

use rmt_sets::NodeId;

/// A protocol message body.
///
/// Payloads must report their encoded size so the simulator can account bit
/// complexity (experiment E6) without committing to a wire format.
pub trait Payload: Clone + PartialEq + fmt::Debug {
    /// The size of this payload on the wire, in bits.
    ///
    /// Estimates are fine as long as they are consistent across protocols
    /// being compared.
    ///
    /// The transport calls this once per admitted copy, so a payload that
    /// fans out to many neighbours as clones of one value should cache its
    /// size rather than recompute it per copy.
    fn encoded_bits(&self) -> usize;
}

impl Payload for u64 {
    fn encoded_bits(&self) -> usize {
        64
    }
}

/// A payload with a concrete byte codec, so it can cross a real socket.
///
/// The in-process schedulers never serialize payloads — [`Payload`] only
/// demands a size estimate. The networked backend (`rmt-netd`) moves real
/// bytes, so payloads it carries must round-trip through a self-delimiting
/// encoding. Decoding untrusted bytes must never panic: any malformed input
/// returns `Err` with a short description.
pub trait WirePayload: Payload {
    /// Appends this payload's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one payload from the front of `bytes`, returning it together
    /// with the number of bytes consumed.
    ///
    /// Implementations must tolerate arbitrary input: truncated, corrupt, or
    /// adversarial bytes yield a descriptive `Err`, never a panic.
    fn decode(bytes: &[u8]) -> Result<(Self, usize), String>;

    /// Encodes into a fresh buffer (convenience over [`encode`](Self::encode)).
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a buffer that must contain exactly one payload.
    fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let (value, used) = Self::decode(bytes)?;
        if used != bytes.len() {
            return Err(format!(
                "payload decode left {} trailing bytes",
                bytes.len() - used
            ));
        }
        Ok(value)
    }
}

impl WirePayload for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Result<(Self, usize), String> {
        let raw: [u8; 8] = bytes
            .get(..8)
            .and_then(|s| s.try_into().ok())
            .ok_or_else(|| format!("u64 payload needs 8 bytes, got {}", bytes.len()))?;
        Ok((u64::from_le_bytes(raw), 8))
    }
}

/// A message in flight: sender, recipient, body.
///
/// Channels are authenticated: the [`Runner`] constructs the `from` field
/// from the true sender for honest traffic and rejects adversarial traffic
/// claiming a sender outside the corrupted set, so a `from` field can be
/// trusted by recipients exactly as the model prescribes.
///
/// [`Runner`]: crate::Runner
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope<P> {
    /// The (authenticated) sender.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The message body.
    pub payload: P,
}

impl<P: Payload> Envelope<P> {
    /// Creates an envelope.
    pub fn new(from: NodeId, to: NodeId, payload: P) -> Self {
        Envelope { from, to, payload }
    }
}

/// The messages delivered to every node in one round, indexed by recipient.
///
/// A full-information adversary receives the whole structure each round.
#[derive(Clone, Debug)]
pub struct RoundInboxes<P> {
    inboxes: Vec<Vec<Envelope<P>>>,
}

impl<P: Payload> RoundInboxes<P> {
    /// Creates empty inboxes for `size` nodes.
    ///
    /// Public so schedulers outside this crate (`rmt-netd`'s socket loop)
    /// can assemble the per-round delivery structure the
    /// [`Adversary`](crate::Adversary) interface expects.
    pub fn new(size: usize) -> Self {
        RoundInboxes {
            inboxes: (0..size).map(|_| Vec::new()).collect(),
        }
    }

    /// Files a delivered envelope under its recipient.
    pub fn push(&mut self, env: Envelope<P>) {
        let idx = env.to.index();
        if idx >= self.inboxes.len() {
            self.inboxes.resize_with(idx + 1, Vec::new);
        }
        self.inboxes[idx].push(env);
    }

    /// Messages delivered to `v` this round.
    pub fn inbox(&self, v: NodeId) -> &[Envelope<P>] {
        self.inboxes.get(v.index()).map_or(&[], Vec::as_slice)
    }

    /// Total number of delivered messages.
    pub fn total(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum()
    }

    /// Returns `true` if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.inboxes.iter().all(Vec::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inboxes_group_by_recipient() {
        let mut r = RoundInboxes::new(2);
        r.push(Envelope::new(0.into(), 1.into(), 5u64));
        r.push(Envelope::new(2.into(), 1.into(), 6u64));
        r.push(Envelope::new(1.into(), 4.into(), 7u64)); // grows storage
        assert_eq!(r.inbox(1.into()).len(), 2);
        assert_eq!(r.inbox(4.into()).len(), 1);
        assert_eq!(r.inbox(0.into()).len(), 0);
        assert_eq!(r.inbox(9.into()).len(), 0);
        assert_eq!(r.total(), 3);
        assert!(!r.is_empty());
        assert!(RoundInboxes::<u64>::new(3).is_empty());
    }

    #[test]
    fn u64_payload_reports_bits() {
        assert_eq!(5u64.encoded_bits(), 64);
    }

    #[test]
    fn u64_wire_round_trip() {
        let v = 0xDEAD_BEEF_1234_5678u64;
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 8);
        assert_eq!(u64::from_bytes(&bytes), Ok(v));
    }

    #[test]
    fn u64_wire_decode_rejects_bad_input() {
        assert!(u64::from_bytes(&[1, 2, 3]).is_err());
        assert!(u64::from_bytes(&[0; 9]).is_err()); // trailing byte
        let (v, used) = u64::decode(&[0; 12]).unwrap();
        assert_eq!((v, used), (0, 8));
    }
}
