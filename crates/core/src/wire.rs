//! The byte-level description of knowledge: one varint codec for node lists,
//! views and adversary structures.
//!
//! The type-2 message `((u, γ(u), 𝒵_u), p)` crosses real sockets twice in
//! this workspace: inside the `rmt-session` batch frame (`SessionFrame`, the
//! wire of every session backend) and as the per-message
//! [`PkaPayload`](crate::protocols::rmt_pka::PkaPayload) that `rmt-netd`
//! moves. Both write a knowledge body with [`encode_knowledge`] and read it
//! with [`decode_knowledge`], so the format has one definition.
//!
//! Every integer is LEB128: one byte per 7 payload bits, so node ids,
//! indices and lengths below 128 cost one byte. A node list is its length
//! followed by its ids; a view is its node list followed by its edge count
//! and endpoint pairs; a structure is its count of maximal sets followed by
//! each set as a node list. Encoders write to a [`Sink`] — the bytes
//! themselves, or only their count ([`ByteCount`]), so sizing and encoding
//! share one definition. A value that caches its own encoded length writes
//! itself as one [`Sink::chunk`]: a count adds the cached length without
//! walking the value, a byte buffer writes the bytes and (in debug builds)
//! checks that the cache was right. Decoders are bounds- and
//! overflow-checked, validate every collection length against the bytes
//! left before allocating ([`read_len`]), and return `Err` — never panic —
//! on adversarial input.

use rmt_adversary::AdversaryStructure;
use rmt_graph::Graph;
use rmt_sets::{NodeId, NodeSet};

/// Where encoders write: a byte buffer, or a [`ByteCount`].
pub trait Sink {
    /// Appends one raw byte.
    fn byte(&mut self, b: u8);
    /// Appends the LEB128 encoding of `x`.
    fn varint(&mut self, x: u64);
    /// Appends what `write` writes, which is known to be `len` bytes.
    fn chunk(&mut self, len: usize, write: impl FnOnce(&mut Self))
    where
        Self: Sized;
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }

    fn varint(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.push(x as u8 | 0x80);
            x >>= 7;
        }
        self.push(x as u8);
    }

    fn chunk(&mut self, len: usize, write: impl FnOnce(&mut Self)) {
        let start = self.len();
        write(self);
        debug_assert_eq!(self.len() - start, len, "cached chunk length");
    }
}

/// A [`Sink`] that only counts the bytes it would have written.
#[derive(Debug)]
pub struct ByteCount(pub usize);

impl Sink for ByteCount {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }

    fn varint(&mut self, x: u64) {
        self.0 += (64 - x.leading_zeros() as usize).max(1).div_ceil(7);
    }

    fn chunk(&mut self, len: usize, _: impl FnOnce(&mut Self)) {
        self.0 += len;
    }
}

/// The number of bytes `encode` writes.
pub fn encoded_len(encode: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount(0);
    encode(&mut count);
    count.0
}

/// Reads one raw byte at `*pos`, advancing past it.
pub fn read_byte(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u8, String> {
    let byte = *bytes
        .get(*pos)
        .ok_or_else(|| format!("truncated input: {what} ends at offset {}", *pos))?;
    *pos += 1;
    Ok(byte)
}

/// Decodes one LEB128 `u64` at `*pos`, advancing past it. Truncated or
/// overlong input yields a descriptive `Err`.
pub fn read_u64(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, String> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(bytes, pos, what)?;
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(format!("overlong varint: {what} overflows u64"));
        }
        if shift > 63 {
            return Err(format!("overlong varint: {what} exceeds 10 bytes"));
        }
        x |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// [`read_u64`] restricted to the `u32` range (node ids, indices, slots).
pub fn read_u32(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u32, String> {
    let x = read_u64(bytes, pos, what)?;
    u32::try_from(x).map_err(|_| format!("varint out of range: {what} = {x} exceeds u32"))
}

/// A collection length, checked against the bytes actually left (each
/// element occupies at least `min_elem_bytes` on the wire) so a corrupt
/// length cannot force a giant allocation.
pub fn read_len(
    bytes: &[u8],
    pos: &mut usize,
    what: &str,
    min_elem_bytes: usize,
) -> Result<usize, String> {
    let n = read_u64(bytes, pos, what)? as usize;
    let remaining = bytes.len() - *pos;
    if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
        return Err(format!(
            "corrupt encoding: {what} claims {n} elements but only {remaining} bytes remain"
        ));
    }
    Ok(n)
}

/// Writes a node list: its length `len`, then the `len` ids of `nodes`.
pub fn encode_nodes(len: usize, nodes: impl IntoIterator<Item = NodeId>, out: &mut impl Sink) {
    out.varint(len as u64);
    for v in nodes {
        out.varint(u64::from(v.raw()));
    }
}

/// Reads a node list written by [`encode_nodes`], handing each id to
/// `push` in order.
pub fn decode_nodes(
    bytes: &[u8],
    pos: &mut usize,
    what: &str,
    mut push: impl FnMut(NodeId),
) -> Result<(), String> {
    for _ in 0..read_len(bytes, pos, what, 1)? {
        push(NodeId::new(read_u32(bytes, pos, what)?));
    }
    Ok(())
}

/// Writes a knowledge body `(u, γ(u), 𝒵_u)`: the node id, then the claim
/// part, which `claim` writes — [`encode_claim`] of a view and structure, or
/// a [`Claim`](crate::protocols::pka_decision::Claim)'s cached chunk of
/// the same bytes.
pub fn encode_knowledge<S: Sink>(node: NodeId, out: &mut S, claim: impl FnOnce(&mut S)) {
    out.varint(u64::from(node.raw()));
    claim(out);
}

/// Writes the claim part `(γ(u), 𝒵_u)` of a knowledge body.
pub fn encode_claim(view: &Graph, structure: &AdversaryStructure, out: &mut impl Sink) {
    encode_graph(view, out);
    encode_structure(structure, out);
}

/// Reads a knowledge body written by [`encode_knowledge`].
pub fn decode_knowledge(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<(NodeId, Graph, AdversaryStructure), String> {
    let node = NodeId::new(read_u32(bytes, pos, "knowledge node")?);
    let view = decode_graph(bytes, pos)?;
    let structure = decode_structure(bytes, pos)?;
    Ok((node, view, structure))
}

fn encode_graph(g: &Graph, out: &mut impl Sink) {
    encode_nodes(g.node_count(), g.nodes().iter(), out);
    out.varint(g.edge_count() as u64);
    for (u, v) in g.edges() {
        out.varint(u64::from(u.raw()));
        out.varint(u64::from(v.raw()));
    }
}

/// Rejects an edge whose endpoint is missing from the view's node list, and
/// a self-loop, which no [`Graph`] holds.
fn decode_graph(bytes: &[u8], pos: &mut usize) -> Result<Graph, String> {
    let mut g = Graph::new();
    decode_nodes(bytes, pos, "view node", |v| {
        g.add_node(v);
    })?;
    for _ in 0..read_len(bytes, pos, "view edge count", 2)? {
        let u = NodeId::new(read_u32(bytes, pos, "view edge endpoint")?);
        let v = NodeId::new(read_u32(bytes, pos, "view edge endpoint")?);
        if !g.contains_node(u) || !g.contains_node(v) {
            return Err(format!(
                "corrupt encoding: view edge ({u}, {v}) references a node absent from the view"
            ));
        }
        if u == v {
            return Err(format!(
                "corrupt encoding: view edge ({u}, {v}) is a self-loop"
            ));
        }
        g.add_edge(u, v);
    }
    Ok(g)
}

fn encode_structure(z: &AdversaryStructure, out: &mut impl Sink) {
    out.varint(z.maximal_sets().len() as u64);
    for set in z.maximal_sets() {
        encode_nodes(set.len(), set.iter(), out);
    }
}

fn decode_structure(bytes: &[u8], pos: &mut usize) -> Result<AdversaryStructure, String> {
    let n = read_len(bytes, pos, "structure set count", 1)?;
    let mut sets = Vec::with_capacity(n);
    for _ in 0..n {
        let mut set = NodeSet::new();
        decode_nodes(bytes, pos, "structure node", |v| {
            set.insert(v);
        })?;
        sets.push(set);
    }
    Ok(AdversaryStructure::from_sets(sets))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_across_the_range() {
        for x in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            out.varint(x);
            let mut count = ByteCount(0);
            count.varint(x);
            assert_eq!(out.len(), count.0, "len of {x}");
            let mut pos = 0;
            assert_eq!(read_u64(&out, &mut pos, "x"), Ok(x));
            assert_eq!(pos, out.len());
        }
    }

    #[test]
    fn a_chunk_is_counted_by_its_length_and_written_by_its_writer() {
        let mut count = ByteCount(1);
        count.chunk(3, |_| unreachable!("a count never walks a chunk"));
        assert_eq!(count.0, 4);
        let mut out = vec![9];
        out.chunk(2, |out| out.varint(300));
        assert_eq!(out, [9, 0xac, 0x02]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cached chunk length")]
    fn a_wrong_chunk_length_is_caught_when_written() {
        Vec::new().chunk(1, |out| out.varint(300));
    }

    #[test]
    fn small_ids_cost_one_byte() {
        let mut out = Vec::new();
        out.varint(19);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn a_self_loop_edge_is_rejected() {
        // Knowledge of node 0: view {0} with the edge (0, 0), no sets.
        let bytes = [0, 1, 0, 1, 0, 0, 0];
        let mut pos = 0;
        let err = decode_knowledge(&bytes, &mut pos).expect_err("a self-loop must not decode");
        assert!(err.contains("self-loop"), "{err}");
    }

    #[test]
    fn truncation_and_overflow_error_cleanly() {
        // Continuation bit set but input ends.
        let mut pos = 0;
        assert!(read_u64(&[0x80], &mut pos, "t").is_err());
        // 11 continuation bytes overflow the shift.
        let mut pos = 0;
        assert!(read_u64(&[0x80; 11], &mut pos, "t").is_err());
        // 10 bytes whose top payload exceeds the u64 range.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x7f);
        let mut pos = 0;
        assert!(read_u64(&bytes, &mut pos, "t").is_err());
        // u32 range check.
        let mut out = Vec::new();
        out.varint(u64::from(u32::MAX) + 1);
        let mut pos = 0;
        assert!(read_u32(&out, &mut pos, "t").is_err());
    }
}
