//! Property tests for the compact session codec: every frame round-trips
//! through its encoding byte-exactly, pack/expand are mutually inverse, the
//! frame-native relay equals its pack-of-expand definition, the size-only
//! `encoded_bits` equals the encoding's size (built, relayed and decoded
//! frames alike, whose claims and value runs carry cached sizes), and no
//! byte sequence —
//! arbitrary, truncated, or bit-flipped — can make the decoder panic or
//! allocate unboundedly. Frames cross real sockets in the `rmt-netd`
//! backend; the decoder's only legal failure mode is `Err`. The per-message
//! `PkaPayload` codec, which `rmt-netd` moves on its per-message runs and
//! which shares the knowledge encoders of `rmt_core::wire`, is held to the
//! same properties.

use std::sync::Arc;

use proptest::prelude::*;
use rmt_adversary::AdversaryStructure;
use rmt_core::protocols::pka_decision::Claim;
use rmt_core::protocols::rmt_pka::PkaPayload;
use rmt_graph::Graph;
use rmt_session::{SessionEntry, SessionFrame};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Payload, WirePayload};

/// The vendored proptest stub has no `u8` support; derive bytes from `u32`.
fn arb_byte() -> impl Strategy<Value = u8> {
    any::<u32>().prop_map(|x| x as u8)
}

fn arb_bytes(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(arb_byte(), 0..max)
}

/// Node ids drawn from a small range so trails share prefixes (exercising
/// the front-coder) while still hitting duplicates and gaps.
fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u32..24).prop_map(NodeId::new)
}

fn arb_trail() -> impl Strategy<Value = Vec<NodeId>> {
    proptest::collection::vec(arb_node(), 0..6)
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec(arb_node(), 0..6),
        proptest::collection::vec((arb_node(), arb_node()), 0..8),
    )
        .prop_map(|(nodes, edges)| {
            let mut g = Graph::new();
            for v in nodes {
                g.add_node(v);
            }
            for (u, v) in edges {
                if u != v {
                    g.add_edge(u, v);
                }
            }
            g
        })
}

fn arb_structure() -> impl Strategy<Value = AdversaryStructure> {
    proptest::collection::vec(proptest::collection::vec(arb_node(), 0..4), 0..4).prop_map(|sets| {
        AdversaryStructure::from_sets(
            sets.into_iter()
                .map(|ids| ids.into_iter().collect::<NodeSet>()),
        )
    })
}

/// An arbitrary *valid* frame: every entry references a trail that exists.
fn arb_frame() -> impl Strategy<Value = SessionFrame> {
    (
        proptest::collection::vec(arb_trail(), 1..5),
        proptest::collection::vec(
            (
                (any::<u32>(), 0u32..10_000, any::<u32>()),
                proptest::collection::vec(any::<u64>(), 1..5),
                (arb_node(), arb_graph(), arb_structure()),
            ),
            0..6,
        ),
    )
        .prop_map(|(trails, raw_entries)| {
            let n_trails = trails.len() as u32;
            let entries = raw_entries
                .into_iter()
                .map(
                    |((kind, first_slot, trail), values, (node, view, structure))| {
                        let trail = trail % n_trails;
                        if kind % 2 == 0 {
                            SessionEntry::Values {
                                trail,
                                first_slot,
                                values: values.into(),
                            }
                        } else {
                            SessionEntry::Knowledge {
                                node,
                                claim: Arc::new(Claim::new(view, structure)),
                                trail,
                            }
                        }
                    },
                )
                .collect();
            SessionFrame::from_parts(trails, entries)
        })
}

/// Per-message payloads for the pack/expand inverse property. Trails are
/// nonempty (as every protocol-generated trail is).
fn arb_payload_item() -> impl Strategy<Value = (u32, PkaPayload)> {
    (
        (0u32..8, any::<u32>(), any::<u64>()),
        proptest::collection::vec(arb_node(), 1..5),
        (arb_node(), arb_graph(), arb_structure()),
    )
        .prop_map(|((slot, kind, value), trail, (node, view, structure))| {
            if kind % 2 == 0 {
                (slot, PkaPayload::DealerValue { value, trail })
            } else {
                (
                    0,
                    PkaPayload::Knowledge {
                        node,
                        view,
                        structure,
                        trail,
                    },
                )
            }
        })
}

/// A per-message payload of either kind; trails may be empty.
fn arb_pka_payload() -> impl Strategy<Value = PkaPayload> {
    (
        (any::<u32>(), any::<u64>()),
        arb_trail(),
        (arb_node(), arb_graph(), arb_structure()),
    )
        .prop_map(|((kind, value), trail, (node, view, structure))| {
            if kind % 2 == 0 {
                PkaPayload::DealerValue { value, trail }
            } else {
                PkaPayload::Knowledge {
                    node,
                    view,
                    structure,
                    trail,
                }
            }
        })
}

/// Node ids from a tiny range, so a relay's inbox often holds trails that
/// end at their sender, contain the relay, or repeat across frames.
fn arb_tiny_node() -> impl Strategy<Value = NodeId> {
    (0u32..5).prop_map(NodeId::new)
}

/// A frame as a relay may receive it from `from`: trails over tiny ids
/// (each ending at `from` with probability ½), entries that now and then
/// reference a missing trail, value runs that may be empty, and first
/// slots close enough together for runs to coalesce.
fn arb_inbox_frame() -> impl Strategy<Value = (NodeId, SessionFrame)> {
    (
        (arb_tiny_node(), any::<u32>()),
        proptest::collection::vec(proptest::collection::vec(arb_tiny_node(), 0..4), 1..4),
        proptest::collection::vec(
            (
                (any::<u32>(), any::<u32>(), 0u32..6),
                proptest::collection::vec(0u64..4, 0..3),
                (arb_tiny_node(), arb_graph(), arb_structure()),
            ),
            0..5,
        ),
    )
        .prop_map(|((from, ends_at_from), mut trails, raw_entries)| {
            for (i, trail) in trails.iter_mut().enumerate() {
                if ends_at_from >> i & 1 == 1 {
                    trail.push(from);
                }
            }
            let n_trails = trails.len() as u32;
            let entries = raw_entries
                .into_iter()
                .map(
                    |((kind, idx, first_slot), values, (node, view, structure))| {
                        // One entry in 16 may point past the table.
                        let bound = n_trails + if kind % 16 == 0 { 2 } else { 0 };
                        let trail = idx % bound;
                        if kind / 16 % 3 == 0 {
                            SessionEntry::Knowledge {
                                node,
                                claim: Arc::new(Claim::new(view, structure)),
                                trail,
                            }
                        } else {
                            SessionEntry::Values {
                                trail,
                                first_slot,
                                values: values.into(),
                            }
                        }
                    },
                )
                .collect();
            (from, SessionFrame::from_parts(trails, entries))
        })
}

/// The relay's definition: expand every frame (counting the ones that fail),
/// keep the messages passing the per-message trail check, append `me`, pack.
fn reference_relay(me: NodeId, inbox: &[(NodeId, SessionFrame)]) -> (SessionFrame, u64) {
    let mut invalid = 0;
    let mut forwarded = Vec::new();
    for (from, frame) in inbox {
        let Ok(messages) = frame.expand() else {
            invalid += 1;
            continue;
        };
        for (slot, mut payload) in messages {
            let trail = payload.trail();
            if trail.last() == Some(from) && !trail.contains(&me) {
                match &mut payload {
                    PkaPayload::DealerValue { trail, .. } | PkaPayload::Knowledge { trail, .. } => {
                        trail.push(me)
                    }
                }
                forwarded.push((slot, payload));
            }
        }
    }
    (SessionFrame::pack(&forwarded), invalid)
}

/// A frame as sender `from` builds it: `pack` of messages over trails that
/// end at `from` (all but one in four), or, with `relayed`, `from`'s relay
/// of such a packed frame sent by `up`. Either way its rows are distinct.
fn sent_frame(
    from: NodeId,
    up: NodeId,
    relayed: bool,
    items: Vec<(u32, PkaPayload)>,
) -> SessionFrame {
    let sender = if relayed { up } else { from };
    let items: Vec<(u32, PkaPayload)> = items
        .into_iter()
        .enumerate()
        .map(|(i, (slot, mut payload))| {
            if i % 4 != 3 {
                match &mut payload {
                    PkaPayload::DealerValue { trail, .. } | PkaPayload::Knowledge { trail, .. } => {
                        trail.retain(|&v| v != sender);
                        trail.push(sender);
                    }
                }
            }
            (slot, payload)
        })
        .collect();
    let packed = SessionFrame::pack(&items);
    if relayed {
        SessionFrame::relay(from, [(up, &packed)], &mut 0)
    } else {
        packed
    }
}

/// An inbox of `pack`-built and relayed frames, one per sender, from
/// distinct senders: every frame has distinct rows and no sender repeats,
/// so a relay keeps every trail without interning it by content.
fn arb_distinct_inbox() -> impl Strategy<Value = Vec<(NodeId, SessionFrame)>> {
    (
        0u32..8,
        proptest::collection::vec(
            (
                (any::<u32>(), any::<u32>()),
                proptest::collection::vec(arb_payload_item(), 0..8),
            ),
            0..4,
        ),
    )
        .prop_map(|(base, frames)| {
            frames
                .into_iter()
                .enumerate()
                .map(|(i, ((relayed, up), items))| {
                    let from = NodeId::new((base + i as u32) % 8);
                    let up = NodeId::new((from.raw() + 1 + up % 7) % 8);
                    (from, sent_frame(from, up, relayed % 2 == 0, items))
                })
                .collect()
        })
}

/// Relays `inbox` as `me` and checks the result against
/// [`reference_relay`]: the same frame, bytes and dropped-frame count, and
/// a trail table recorded as distinct.
fn assert_relay_matches_reference(me: NodeId, inbox: &[(NodeId, SessionFrame)]) -> SessionFrame {
    let (expected, expected_invalid) = reference_relay(me, inbox);
    let mut invalid = 0;
    let relayed = SessionFrame::relay(me, inbox.iter().map(|(from, f)| (*from, f)), &mut invalid);
    assert_eq!(relayed.to_bytes(), expected.to_bytes());
    assert_eq!(relayed, expected);
    assert_eq!(invalid, expected_invalid);
    assert!(relayed.trails().is_distinct());
    relayed
}

/// Two messages from sender 1 over two trails, both ending at 1.
fn two_trail_frame() -> SessionFrame {
    SessionFrame::pack(&[
        (
            0,
            PkaPayload::DealerValue {
                value: 7,
                trail: vec![NodeId::new(0), NodeId::new(1)],
            },
        ),
        (
            0,
            PkaPayload::DealerValue {
                value: 7,
                trail: vec![NodeId::new(0), NodeId::new(2), NodeId::new(1)],
            },
        ),
    ])
}

#[test]
fn a_frame_delivered_twice_relays_each_trail_once() {
    let frame = two_trail_frame();
    assert!(frame.trails().is_distinct());
    let once = assert_relay_matches_reference(NodeId::new(3), &[(NodeId::new(1), frame.clone())]);
    let twice = assert_relay_matches_reference(
        NodeId::new(3),
        &[(NodeId::new(1), frame.clone()), (NodeId::new(1), frame)],
    );
    assert_eq!(twice.trails(), once.trails());
    assert_eq!(twice.expand().expect("expand").len(), 4);
}

#[test]
fn a_repeated_row_is_recorded_and_interned() {
    let row = vec![NodeId::new(0), NodeId::new(1)];
    let run = |trail, first_slot| SessionEntry::Values {
        trail,
        first_slot,
        values: vec![7].into(),
    };
    let frame = SessionFrame::from_parts(
        vec![row.clone(), vec![NodeId::new(1)], row],
        vec![run(0, 0), run(2, 1), run(1, 2)],
    );
    assert!(!frame.trails().is_distinct());
    let decoded = SessionFrame::from_bytes(&frame.to_bytes()).expect("decode");
    assert!(!decoded.trails().is_distinct());
    assert!(SessionFrame::from_bytes(&two_trail_frame().to_bytes())
        .expect("decode")
        .trails()
        .is_distinct());
    let relayed = assert_relay_matches_reference(NodeId::new(3), &[(NodeId::new(1), frame)]);
    // The repeated row is one output trail, and its runs coalesce.
    assert_eq!(relayed.trails().len(), 2);
    assert_eq!(relayed.entries().len(), 2);
}

#[test]
fn a_relay_output_relays_again() {
    let first =
        assert_relay_matches_reference(NodeId::new(3), &[(NodeId::new(1), two_trail_frame())]);
    let second = assert_relay_matches_reference(NodeId::new(4), &[(NodeId::new(3), first)]);
    assert_eq!(second.trails().len(), 2);
    assert_eq!(
        second
            .trails()
            .iter()
            .map(<[NodeId]>::len)
            .collect::<Vec<_>>(),
        [4, 5]
    );
}

proptest! {
    /// Every frame survives encode → decode unchanged, and decode reports
    /// exactly how many bytes it consumed.
    #[test]
    fn frame_round_trips(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        let (decoded, used) = SessionFrame::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded, frame);
        prop_assert_eq!(used, bytes.len());
    }

    /// pack → expand recovers the logical messages exactly (order, slots,
    /// payloads), modulo the documented slot-0 normalization of knowledge.
    #[test]
    fn pack_expand_is_identity(items in proptest::collection::vec(arb_payload_item(), 0..12)) {
        let frame = SessionFrame::pack(&items);
        let expanded = frame.expand().expect("packed frames always expand");
        prop_assert_eq!(expanded, items);
    }

    /// The model cost of a packed frame equals the per-message accounting of
    /// what it expands to.
    #[test]
    fn model_cost_matches_expansion(items in proptest::collection::vec(arb_payload_item(), 0..12)) {
        use rmt_sim::Payload;
        let frame = SessionFrame::pack(&items);
        let expanded = frame.expand().unwrap();
        let msgs = expanded.len() as u64;
        let bits: u64 = expanded.iter().map(|(_, p)| p.encoded_bits() as u64).sum();
        prop_assert_eq!(frame.model_cost(), (msgs, bits));
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in arb_bytes(192)) {
        let _ = SessionFrame::decode(&bytes);
        let _ = SessionFrame::from_bytes(&bytes);
    }

    /// Every truncation of a valid encoding fails cleanly — a session frame
    /// is self-delimiting, so no strict prefix is itself a frame.
    #[test]
    fn truncations_fail_cleanly(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(SessionFrame::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Single bit flips anywhere in a valid encoding either decode to *some*
    /// frame (whose re-encoding round-trips) or fail with an error — never
    /// a panic, never an out-of-bounds read or unbounded allocation.
    #[test]
    fn bit_flips_never_panic(frame in arb_frame(), byte_idx in any::<u32>(), bit in 0u32..8) {
        let mut bytes = frame.to_bytes();
        let idx = byte_idx as usize % bytes.len();
        bytes[idx] ^= 1u8 << bit;
        if let Ok((decoded, _)) = SessionFrame::decode(&bytes) {
            let again = decoded.to_bytes();
            let (twice, _) = SessionFrame::decode(&again).expect("re-encoding decodes");
            prop_assert_eq!(twice, decoded);
        }
        let _ = SessionFrame::from_bytes(&bytes);
    }

    /// The size-only wire accounting equals the encoding's actual size, for
    /// a built frame and for its decoded copy (whose claims and value runs
    /// count their sizes afresh).
    #[test]
    fn encoded_bits_counts_the_encoding(frame in arb_frame()) {
        let bytes = frame.to_bytes();
        prop_assert_eq!(frame.encoded_bits(), 8 * bytes.len());
        let decoded = SessionFrame::from_bytes(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded.encoded_bits(), 8 * bytes.len());
    }
}

/// A frame whose body spells three varints with a redundant `0x00`
/// continuation: a value-run count, a value and a knowledge-view node id.
/// It decodes, re-encodes to the minimal bytes, and is billed the minimal
/// size: cached sizes come from the decoded values, not from the span read.
#[test]
fn non_minimal_varints_bill_the_minimal_encoding() {
    #[rustfmt::skip]
    let body: Vec<u8> = vec![
        1, 0, 1, 0,                   // one trail: [0]
        2,                            // two entries
        0, 0, 0, 0x82, 0x00, 0x85, 0x00, 7, // values on trail 0 from slot 0: [5, 7]
        1, 0, 2, 0x80, 0x00, 1, 1, 0, 1, 0, 0, // knowledge of 0: view 0–1, no sets, trail 0
    ];
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&body);
    let decoded = SessionFrame::from_bytes(&bytes).expect("non-minimal varints decode");

    let mut view = Graph::new();
    view.add_edge(NodeId::new(0), NodeId::new(1));
    let minimal = SessionFrame::from_parts(
        vec![vec![NodeId::new(0)]],
        vec![
            SessionEntry::Values {
                trail: 0,
                first_slot: 0,
                values: vec![5, 7].into(),
            },
            SessionEntry::Knowledge {
                node: NodeId::new(0),
                claim: Arc::new(Claim::new(view, AdversaryStructure::from_sets([]))),
                trail: 0,
            },
        ],
    );
    assert_eq!(decoded, minimal);
    let reencoded = decoded.to_bytes();
    assert_eq!(reencoded, minimal.to_bytes());
    assert_eq!(reencoded.len(), bytes.len() - 3);
    assert_eq!(decoded.encoded_bits(), 8 * reencoded.len());
}

proptest! {
    /// Both payload kinds survive encode → decode unchanged, and decode
    /// reports exactly how many bytes it consumed.
    #[test]
    fn pka_payload_round_trips(payload in arb_pka_payload()) {
        let bytes = payload.to_bytes();
        let (decoded, used) = PkaPayload::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(decoded, payload);
        prop_assert_eq!(used, bytes.len());
    }

    /// Arbitrary garbage never panics the payload decoder.
    #[test]
    fn pka_arbitrary_bytes_never_panic(bytes in arb_bytes(192)) {
        let _ = PkaPayload::decode(&bytes);
        let _ = PkaPayload::from_bytes(&bytes);
    }

    /// Every truncation of a valid payload encoding fails cleanly: the
    /// format is self-delimiting, so no strict prefix is itself a payload.
    #[test]
    fn pka_truncations_fail_cleanly(payload in arb_pka_payload()) {
        let bytes = payload.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(PkaPayload::decode(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Single bit flips in a valid payload encoding either decode to *some*
    /// payload (whose re-encoding round-trips) or fail with an error —
    /// never a panic.
    #[test]
    fn pka_bit_flips_never_panic(payload in arb_pka_payload(), byte_idx in any::<u32>(), bit in 0u32..8) {
        let mut bytes = payload.to_bytes();
        let idx = byte_idx as usize % bytes.len();
        bytes[idx] ^= 1u8 << bit;
        if let Ok((decoded, _)) = PkaPayload::decode(&bytes) {
            let again = decoded.to_bytes();
            prop_assert_eq!(PkaPayload::from_bytes(&again), Ok(decoded));
        }
        let _ = PkaPayload::from_bytes(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The frame-native relay equals pack-of-expand with the trail check and
    /// extension applied per message: same frame, same bytes, same count of
    /// dropped frames — over inboxes with duplicate senders, missing trail
    /// indices and empty value runs.
    #[test]
    fn relay_is_pack_of_expand(
        me in arb_tiny_node(),
        inbox in proptest::collection::vec(arb_inbox_frame(), 0..4),
    ) {
        let (expected, expected_invalid) = reference_relay(me, &inbox);
        let mut invalid = 0;
        let relayed = SessionFrame::relay(me, inbox.iter().map(|(from, f)| (*from, f)), &mut invalid);
        let bytes = relayed.to_bytes();
        prop_assert_eq!(&bytes, &expected.to_bytes());
        prop_assert_eq!(relayed.encoded_bits(), 8 * bytes.len());
        prop_assert_eq!(relayed, expected);
        prop_assert_eq!(invalid, expected_invalid);
    }

    /// The relay equals pack-of-expand on inboxes that take no content
    /// interning: `pack`-built and relayed frames, whose rows are distinct,
    /// from distinct senders. Every frame involved records its rows as
    /// distinct.
    #[test]
    fn relay_of_distinct_senders_is_pack_of_expand(
        me in (0u32..8).prop_map(NodeId::new),
        inbox in arb_distinct_inbox(),
    ) {
        for (_, frame) in &inbox {
            prop_assert!(frame.trails().is_distinct());
        }
        let (expected, expected_invalid) = reference_relay(me, &inbox);
        let mut invalid = 0;
        let relayed = SessionFrame::relay(me, inbox.iter().map(|(from, f)| (*from, f)), &mut invalid);
        let bytes = relayed.to_bytes();
        prop_assert_eq!(&bytes, &expected.to_bytes());
        prop_assert_eq!(relayed.encoded_bits(), 8 * bytes.len());
        prop_assert!(relayed.trails().is_distinct());
        prop_assert_eq!(relayed, expected);
        prop_assert_eq!(invalid, expected_invalid);
    }
}
