//! RMT-PKA — the RMT Partial Knowledge Algorithm (Protocol 1).
//!
//! Two message types propagate along *trails* (simple paths recorded in the
//! message):
//!
//! * **type 1** `(x, p)` — a claimed dealer value with its propagation trail;
//! * **type 2** `((u, γ(u), 𝒵_u), p)` — node `u`'s initial knowledge.
//!
//! The dealer sends its value and its knowledge to its neighbours and
//! terminates; every other non-receiver node first announces its own
//! knowledge and then relays: on receiving `(a, p)` from `u` it discards the
//! message if `v ∈ p` or `tail(p) ≠ u` (so any forged trail contains at
//! least one corrupted node), otherwise forwards `(a, p‖v)` to all
//! neighbours. Trails are simple, so propagation quiesces within `n` rounds
//! — at the cost of exponentially many messages, which experiment E6
//! measures against Z-CPA.
//!
//! The receiver applies the same trail validation, accumulates everything
//! into a [`ReceiverState`] and decides via the dealer rule or the
//! full-message-set rule (see [`pka_decision`](crate::protocols::pka_decision)).
//!
//! **PPA** (full-knowledge path propagation) is this protocol on an instance
//! with [`ViewKind::Full`](rmt_graph::ViewKind::Full) views.

use rmt_adversary::AdversaryStructure;
use rmt_graph::Graph;
use rmt_sets::NodeId;
use rmt_sim::{Envelope, NodeContext, Payload, Protocol, WirePayload};

use crate::instance::Instance;
use crate::protocols::pka_decision::{DecisionConfig, ReceiverState};
use crate::protocols::Value;
use crate::wire::{self, Sink};

/// A message of RMT-PKA.
#[derive(Clone, Debug, PartialEq)]
pub enum PkaPayload {
    /// Type 1: the dealer's (claimed) value with its propagation trail.
    DealerValue {
        /// The claimed value x.
        value: Value,
        /// The propagation trail p (starting at the dealer, ending at the
        /// sender).
        trail: Vec<NodeId>,
    },
    /// Type 2: a node's (claimed) initial knowledge with its trail.
    Knowledge {
        /// The node the claim is about.
        node: NodeId,
        /// The claimed view γ(node).
        view: Graph,
        /// The claimed local structure 𝒵_node.
        structure: AdversaryStructure,
        /// The propagation trail p.
        trail: Vec<NodeId>,
    },
}

impl PkaPayload {
    /// The propagation trail of either message type.
    pub fn trail(&self) -> &[NodeId] {
        match self {
            PkaPayload::DealerValue { trail, .. } | PkaPayload::Knowledge { trail, .. } => trail,
        }
    }

    fn trail_mut(&mut self) -> &mut Vec<NodeId> {
        match self {
            PkaPayload::DealerValue { trail, .. } | PkaPayload::Knowledge { trail, .. } => trail,
        }
    }

    fn extended(&self, v: NodeId) -> PkaPayload {
        let mut out = self.clone();
        out.trail_mut().push(v);
        out
    }
}

/// Bits per node id in the model-layer accounting of
/// [`PkaPayload::encoded_bits`].
pub const MODEL_ID_BITS: usize = 32;

/// Bits per dealer value in the model-layer accounting of
/// [`PkaPayload::encoded_bits`].
pub const MODEL_VALUE_BITS: usize = 64;

/// The model-layer bits of a knowledge message `(u, γ(u), 𝒵_u)` without
/// its trail: the node id, each view node, both ends of each view edge and
/// each member of each maximal set, at [`MODEL_ID_BITS`] apiece.
/// [`Claim::model_bits`](crate::protocols::pka_decision::Claim::model_bits)
/// keeps it per claim.
pub fn knowledge_model_bits(view: &Graph, structure: &AdversaryStructure) -> usize {
    MODEL_ID_BITS
        + view.node_count() * MODEL_ID_BITS
        + view.edge_count() * 2 * MODEL_ID_BITS
        + structure
            .maximal_sets()
            .iter()
            .map(|m| m.len() * MODEL_ID_BITS)
            .sum::<usize>()
}

impl Payload for PkaPayload {
    fn encoded_bits(&self) -> usize {
        match self {
            PkaPayload::DealerValue { trail, .. } => MODEL_VALUE_BITS + MODEL_ID_BITS * trail.len(),
            PkaPayload::Knowledge {
                view,
                structure,
                trail,
                ..
            } => knowledge_model_bits(view, structure) + MODEL_ID_BITS * trail.len(),
        }
    }
}

/// Wire tag for [`PkaPayload::DealerValue`].
const TAG_DEALER_VALUE: u8 = 0;
/// Wire tag for [`PkaPayload::Knowledge`].
const TAG_KNOWLEDGE: u8 = 1;

/// A tag byte, then the message in the [`wire`] varint format: the value
/// or the knowledge body, then the trail as a node list. `rmt-netd` moves
/// these bytes; the in-process runners never encode.
impl WirePayload for PkaPayload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PkaPayload::DealerValue { value, .. } => {
                out.byte(TAG_DEALER_VALUE);
                out.varint(*value);
            }
            PkaPayload::Knowledge {
                node,
                view,
                structure,
                ..
            } => {
                out.byte(TAG_KNOWLEDGE);
                wire::encode_knowledge(*node, out, |out| wire::encode_claim(view, structure, out));
            }
        }
        let trail = self.trail();
        wire::encode_nodes(trail.len(), trail.iter().copied(), out);
    }

    fn decode(bytes: &[u8]) -> Result<(Self, usize), String> {
        let pos = &mut 0;
        let mut payload = match wire::read_byte(bytes, pos, "payload tag")? {
            TAG_DEALER_VALUE => PkaPayload::DealerValue {
                value: wire::read_u64(bytes, pos, "dealer value")?,
                trail: Vec::new(),
            },
            TAG_KNOWLEDGE => {
                let (node, view, structure) = wire::decode_knowledge(bytes, pos)?;
                PkaPayload::Knowledge {
                    node,
                    view,
                    structure,
                    trail: Vec::new(),
                }
            }
            tag => return Err(format!("unknown PkaPayload tag {tag}")),
        };
        let trail = payload.trail_mut();
        wire::decode_nodes(bytes, pos, "trail node", |v| trail.push(v))?;
        Ok((payload, *pos))
    }
}

/// A node's role in RMT-PKA.
#[derive(Clone, Debug)]
enum Role {
    Dealer { value: Value },
    Relay,
    Receiver(Box<ReceiverState>),
}

/// Trail validation of a message node `me` received from `from`: it is
/// kept iff `tail(trail) = from` and `me ∉ trail`, so a forged trail always
/// names a corrupted node.
///
/// The one rule every trail-carrying relay and receiver applies:
/// [`RmtPka`]'s, [`Ppa`](crate::protocols::ppa::Ppa)'s, and the session
/// engine's frame relay and receiver in `rmt-session`.
#[inline]
pub fn valid_arrival(trail: &[NodeId], from: NodeId, me: NodeId) -> bool {
    trail.last() == Some(&from) && !trail.contains(&me)
}

/// One player's RMT-PKA state machine.
#[derive(Clone, Debug)]
pub struct RmtPka {
    id: NodeId,
    dealer: NodeId,
    view: Graph,
    structure: AdversaryStructure,
    role: Role,
    decision: Option<Value>,
    /// Maximum trail length relays will forward (`None` = unbounded, the
    /// paper's protocol). See [`RmtPka::node_with_trail_bound`].
    trail_bound: Option<usize>,
}

impl RmtPka {
    /// Builds node `v` of `inst`; `input` is the dealer's value (used only
    /// when `v` is the dealer).
    pub fn node(inst: &Instance, v: NodeId, input: Value) -> Self {
        let view = inst.view(v).clone();
        let structure = inst.local_structure(v);
        let role = if v == inst.dealer() {
            Role::Dealer { value: input }
        } else if v == inst.receiver() {
            Role::Receiver(Box::new(ReceiverState::new(
                v,
                inst.dealer(),
                view.clone(),
                structure.clone(),
            )))
        } else {
            Role::Relay
        };
        RmtPka {
            id: v,
            dealer: inst.dealer(),
            view,
            structure,
            role,
            decision: (v == inst.dealer()).then_some(input),
            trail_bound: None,
        }
    }

    /// Builds node `v` with a **trail-length bound** `bound`: relays drop
    /// messages whose extended trail would exceed `bound` nodes.
    ///
    /// This is an *ablation* of the paper's protocol exploring its open
    /// efficiency question: the message count collapses from "all simple
    /// trails" to "trails of length ≤ bound", at the cost of completeness —
    /// the receiver can only assemble full message sets whose `G_M` paths
    /// fit the bound (safety is untouched: fewer messages means fewer
    /// candidate sets, and every accepted set still satisfies Theorem 4's
    /// argument). With `bound ≥ n` the protocol is exactly RMT-PKA.
    /// Experiment E11 sweeps the trade-off.
    pub fn node_with_trail_bound(inst: &Instance, v: NodeId, input: Value, bound: usize) -> Self {
        let mut node = RmtPka::node(inst, v, input);
        node.trail_bound = Some(bound);
        node
    }

    /// The receiver's accumulated state (receiver node only).
    pub fn receiver_state(&self) -> Option<&ReceiverState> {
        match &self.role {
            Role::Receiver(state) => Some(state),
            _ => None,
        }
    }

    fn my_knowledge_message(&self) -> PkaPayload {
        PkaPayload::Knowledge {
            node: self.id,
            view: self.view.clone(),
            structure: self.structure.clone(),
            trail: vec![self.id],
        }
    }
}

impl Protocol for RmtPka {
    type Payload = PkaPayload;
    type Decision = Value;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, PkaPayload)> {
        match &self.role {
            Role::Dealer { value } => {
                // Send the value and the dealer's knowledge, then terminate.
                let v1 = PkaPayload::DealerValue {
                    value: *value,
                    trail: vec![self.id],
                };
                let v2 = self.my_knowledge_message();
                ctx.neighbors
                    .iter()
                    .flat_map(|n| [(n, v1.clone()), (n, v2.clone())])
                    .collect()
            }
            Role::Relay => {
                let msg = self.my_knowledge_message();
                ctx.neighbors.iter().map(|n| (n, msg.clone())).collect()
            }
            // The receiver only listens (it has no propagation code).
            Role::Receiver(_) => Vec::new(),
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &[Envelope<PkaPayload>],
    ) -> Vec<(NodeId, PkaPayload)> {
        match &mut self.role {
            Role::Dealer { .. } => Vec::new(), // terminated after start
            Role::Relay => {
                let mut out = Vec::new();
                for env in inbox {
                    let trail = env.payload.trail();
                    if valid_arrival(trail, env.from, self.id)
                        && self.trail_bound.is_none_or(|b| trail.len() < b)
                    {
                        let fwd = env.payload.extended(self.id);
                        out.extend(ctx.neighbors.iter().map(|n| (n, fwd.clone())));
                    }
                }
                out
            }
            Role::Receiver(_) => {
                if self.decision.is_some() {
                    return Vec::new(); // output was produced; terminated
                }
                let valid: Vec<&Envelope<PkaPayload>> = inbox
                    .iter()
                    .filter(|e| valid_arrival(e.payload.trail(), e.from, self.id))
                    .collect();
                let Role::Receiver(state) = &mut self.role else {
                    unreachable!()
                };
                for env in valid {
                    match &env.payload {
                        PkaPayload::DealerValue { value, trail } => {
                            // Dealer propagation rule: the authenticated
                            // channel from the (honest) dealer is definitive.
                            if env.from == self.dealer && trail.as_slice() == [self.dealer] {
                                self.decision = Some(*value);
                                return Vec::new();
                            }
                            state.ingest_value(*value, trail);
                        }
                        PkaPayload::Knowledge {
                            node,
                            view,
                            structure,
                            ..
                        } => {
                            state.ingest_claim(*node, view.clone(), structure.clone());
                        }
                    }
                }
                if let Some(x) = state.decide(&DecisionConfig::default()) {
                    self.decision = Some(x);
                }
                Vec::new()
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn is_terminated(&self) -> bool {
        match self.role {
            // Relays never decide; they are done when traffic stops.
            Role::Relay => true,
            _ => self.decision.is_some(),
        }
    }
}

/// Runs RMT-PKA on an instance under a given adversary — convenience for
/// tests and experiments.
///
/// # Example
///
/// ```
/// use rmt_core::{gallery, protocols::rmt_pka::run_pka};
/// use rmt_graph::ViewKind;
/// use rmt_sets::NodeSet;
/// use rmt_sim::SilentAdversary;
///
/// let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
/// let out = run_pka(&inst, 42, SilentAdversary::new(NodeSet::singleton(1u32.into())));
/// assert_eq!(out.decision(inst.receiver()), Some(42));
/// ```
pub fn run_pka<A>(inst: &Instance, input: Value, adversary: A) -> rmt_sim::RunOutcome<RmtPka>
where
    A: rmt_sim::Adversary<PkaPayload>,
{
    rmt_sim::Runner::new(
        inst.graph().clone(),
        |v| RmtPka::node(inst, v, input),
        adversary,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::{generators, ViewKind};
    use rmt_sets::NodeSet;
    use rmt_sim::SilentAdversary;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    fn instance(g: Graph, z_sets: &[&[u32]], views: ViewKind, d: u32, r: u32) -> Instance {
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        Instance::new(g, z, views, d.into(), r.into()).unwrap()
    }

    #[test]
    fn honest_diamond_delivers() {
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let out = run_pka(&inst, 7, SilentAdversary::new(NodeSet::new()));
        assert_eq!(out.decision(3.into()), Some(7));
    }

    #[test]
    fn tolerated_silent_corruption_delivers() {
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let out = run_pka(&inst, 7, SilentAdversary::new(set(&[1])));
        assert_eq!(out.decision(3.into()), Some(7));
    }

    #[test]
    fn rmt_cut_instance_blocks_decision_under_silence() {
        let inst = instance(diamond(), &[&[1], &[2]], ViewKind::AdHoc, 0, 3);
        assert!(crate::cuts::find_rmt_cut(&inst, None).is_some());
        let out = run_pka(&inst, 7, SilentAdversary::new(set(&[1])));
        assert_eq!(out.decision(3.into()), None);
    }

    #[test]
    fn dealer_rule_fires_for_adjacent_receiver() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let inst = instance(g, &[&[1], &[2]], ViewKind::AdHoc, 0, 3);
        let out = run_pka(&inst, 7, SilentAdversary::new(set(&[1, 2])));
        assert_eq!(out.decision(3.into()), Some(7));
    }

    #[test]
    fn pka_solves_where_zcpa_fails() {
        // 6-cycle, D=0, R=3, 𝒵 = {{1,2}} (one whole side can fall, but only
        // that side). Z-CPA: R certifies only with neighbour sets ∉ 𝒵_R;
        // neighbours of R are {2,4}; with {1,2} silent R hears only from 4
        // and {4} ∈ 𝒵_R? No: 𝒵_R = traces of {1,2} on view {2,3,4} = {2}.
        // {4} ∉ 𝒵_R — Z-CPA would certify 4's relay... but 4 itself must
        // first decide via 5 with {5} ∉ 𝒵_5. Pick the sharper separation:
        // path-style knowledge lets PKA use trails where Z-CPA's
        // neighbour-local rule stalls on the longer 8-cycle with 𝒵 covering
        // a middle vertex pair.
        let g = generators::cycle(6);
        let z_sets: &[&[u32]] = &[&[1, 2]];
        let inst = instance(g, z_sets, ViewKind::AdHoc, 0, 3);
        // Sanity: solvable (no RMT-cut) and Z-CPA also solves it — the two
        // protocols agree here; the uniqueness *gap* instances are exercised
        // in the integration tests.
        assert!(crate::cuts::find_rmt_cut(&inst, None).is_none());
        let out = run_pka(&inst, 9, SilentAdversary::new(set(&[1, 2])));
        assert_eq!(out.decision(3.into()), Some(9));
    }

    #[test]
    fn relay_discards_trail_forgeries() {
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let mut relay = RmtPka::node(&inst, 1.into(), 0);
        let ctx = NodeContext {
            id: 1.into(),
            round: 2,
            neighbors: inst.graph().neighbors(1.into()).clone(),
        };
        // tail(p) ≠ sender: dropped.
        let bad_tail = Envelope::new(
            0.into(),
            1.into(),
            PkaPayload::DealerValue {
                value: 5,
                trail: vec![0.into(), 2.into()],
            },
        );
        assert!(relay.on_round(&ctx, &[bad_tail]).is_empty());
        // v ∈ p: dropped (would loop).
        let looped = Envelope::new(
            0.into(),
            1.into(),
            PkaPayload::DealerValue {
                value: 5,
                trail: vec![1.into(), 0.into()],
            },
        );
        assert!(relay.on_round(&ctx, &[looped]).is_empty());
        // Valid: forwarded to all neighbours with the trail extended.
        let ok = Envelope::new(
            0.into(),
            1.into(),
            PkaPayload::DealerValue {
                value: 5,
                trail: vec![0.into()],
            },
        );
        let out = relay.on_round(&ctx, &[ok]);
        assert_eq!(out.len(), inst.graph().degree(1.into()));
        assert_eq!(out[0].1.trail(), &[0.into(), 1.into()]);
    }

    #[test]
    fn unbounded_trail_bound_changes_nothing() {
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let baseline = run_pka(&inst, 7, SilentAdversary::new(NodeSet::new()));
        let bounded = rmt_sim::Runner::new(
            inst.graph().clone(),
            |v| RmtPka::node_with_trail_bound(&inst, v, 7, inst.graph().node_count()),
            SilentAdversary::new(NodeSet::new()),
        )
        .run();
        assert_eq!(baseline.decision(3.into()), bounded.decision(3.into()));
        assert_eq!(
            baseline.metrics.honest_messages,
            bounded.metrics.honest_messages
        );
    }

    #[test]
    fn tight_trail_bound_saves_messages_and_still_decides_on_short_instances() {
        // The diamond's paths have length 3 nodes, so bound 3 suffices and
        // strictly cuts traffic (length-3 relay trails are no longer grown).
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let baseline = run_pka(&inst, 7, SilentAdversary::new(set(&[1])));
        let bounded = rmt_sim::Runner::new(
            inst.graph().clone(),
            |v| RmtPka::node_with_trail_bound(&inst, v, 7, 3),
            SilentAdversary::new(set(&[1])),
        )
        .run();
        assert_eq!(bounded.decision(3.into()), Some(7));
        assert!(bounded.metrics.honest_messages <= baseline.metrics.honest_messages);
    }

    #[test]
    fn too_tight_a_bound_loses_completeness_but_not_safety() {
        // Bound 2: no relay ever forwards, so only dealer-adjacent receivers
        // could decide; here R abstains — safely.
        let inst = instance(diamond(), &[&[1]], ViewKind::AdHoc, 0, 3);
        let bounded = rmt_sim::Runner::new(
            inst.graph().clone(),
            |v| RmtPka::node_with_trail_bound(&inst, v, 7, 1),
            SilentAdversary::new(NodeSet::new()),
        )
        .run();
        assert_eq!(bounded.decision(3.into()), None);
    }

    #[test]
    fn payload_bits_scale_with_content() {
        let small = PkaPayload::DealerValue {
            value: 1,
            trail: vec![0.into()],
        };
        let big = PkaPayload::DealerValue {
            value: 1,
            trail: vec![0.into(), 1.into(), 2.into()],
        };
        assert!(big.encoded_bits() > small.encoded_bits());
        let info = PkaPayload::Knowledge {
            node: 0.into(),
            view: generators::complete(4),
            structure: AdversaryStructure::from_sets([set(&[1, 2])]),
            trail: vec![0.into()],
        };
        assert!(info.encoded_bits() > big.encoded_bits());
    }

    #[test]
    fn wire_round_trip_both_message_types() {
        let dealer = PkaPayload::DealerValue {
            value: 0xFEED_FACE_CAFE_BEEF,
            trail: vec![0.into(), 2.into(), 1.into()],
        };
        assert_eq!(PkaPayload::from_bytes(&dealer.to_bytes()), Ok(dealer));

        let knowledge = PkaPayload::Knowledge {
            node: 2.into(),
            view: diamond(),
            structure: AdversaryStructure::from_sets([set(&[1]), set(&[2, 3])]),
            trail: vec![2.into()],
        };
        assert_eq!(PkaPayload::from_bytes(&knowledge.to_bytes()), Ok(knowledge));
    }

    #[test]
    fn wire_decode_never_panics_on_malformed_input() {
        // Unknown tag.
        assert!(PkaPayload::from_bytes(&[9]).is_err());
        // Empty input.
        assert!(PkaPayload::from_bytes(&[]).is_err());
        // Every truncation of a valid encoding is a descriptive error.
        let full = PkaPayload::Knowledge {
            node: 1.into(),
            view: diamond(),
            structure: AdversaryStructure::from_sets([set(&[0, 3])]),
            trail: vec![1.into(), 0.into()],
        }
        .to_bytes();
        for cut in 0..full.len() {
            assert!(PkaPayload::from_bytes(&full[..cut]).is_err());
        }
        // A length field claiming more elements than bytes remain is caught
        // before any allocation.
        let mut bomb = vec![super::TAG_DEALER_VALUE];
        bomb.varint(7); // value
        bomb.varint(u64::from(u32::MAX)); // trail length
        let err = PkaPayload::from_bytes(&bomb).unwrap_err();
        assert!(err.contains("claims 4294967295 elements"), "{err}");
        // An edge referencing a node outside the view's node set is rejected.
        let mut forged = vec![super::TAG_KNOWLEDGE];
        forged.varint(0); // node
        forged.varint(1); // 1 view node
        forged.varint(0); //   v0
        forged.varint(1); // 1 edge
        forged.varint(0); //   (v0,
        forged.varint(5); //    v5) — absent
        forged.varint(0); // empty structure
        forged.varint(0); // empty trail
        let err = PkaPayload::from_bytes(&forged).unwrap_err();
        assert!(err.contains("absent from the view"), "{err}");
    }
}
