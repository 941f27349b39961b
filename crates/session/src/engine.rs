//! The batched session engine: [`SessionNode`] runs RMT-PKA for N payload
//! slots at once, exchanging [`SessionFrame`]s instead of per-message
//! payloads.
//!
//! Semantics are defined by expansion: a node receiving a frame behaves
//! exactly as the per-message protocol would on the frame's
//! [`expand`](SessionFrame::expand)ed logical messages, in order, and its
//! emissions are the per-recipient [`pack`](SessionFrame::pack) of what the
//! per-message protocol would have sent. At batch size 1 this makes a
//! session verdict- and (model-)counter-identical to the per-message
//! [`Runner`](rmt_sim::Runner) — the differential gate in
//! `tests/differential.rs` enforces it on the attack galleries.
//!
//! The implementation never materializes that expansion on received
//! frames. A relay's round is one [`SessionFrame::relay`] call: it rewrites
//! the inbox's trail tables (`trail ‖ me` for every trail passing the
//! per-message trail check) into one node buffer, interning by content
//! only the trails of a sender with several inbox frames or of a frame
//! that repeats a row; it shares each kept value run and claim (a fresh
//! run only where two runs coalesce), and `tests/codec_props.rs` pins it
//! to the pack-of-expand definition byte for byte. The receiver walks each
//! frame's `(slot, message)`s in place, in the order `expand` defines.
//!
//! A broadcast is one frame: the dealer's and each relay's round build a
//! single [`SessionFrame`] and hand every neighbour a clone of it, which
//! shares the frame's immutable body (and its cached wire size) instead of
//! copying it. Sizing a frame reads the cached lengths of its claims and
//! value runs (each counted once, the first time it is sized), so a relayed
//! entry costs O(1).
//!
//! Three amortizations make bigger batches cheaper per payload:
//!
//! * **knowledge once** — type-2 messages are payload-independent and flow
//!   once per session, not once per payload; each claim is allocated once,
//!   by the sender's `pack` (or by `decode` off a socket), and every relayed
//!   copy holds the same `Arc`. The receiver keeps one claim pool (a
//!   [`ReceiverState`] holding the claims, its own knowledge and the search
//!   counters) and ingests each claim into it once, while any slot is
//!   undecided; a payload slot holds only its type-1 table and decision;
//! * **trail sharing** — a frame's value runs reference one trail-table
//!   entry however many slots ride it;
//! * **decide caching** — the receiver's exponential decision search runs
//!   once per *equivalence class* of slots: every slot decides on the one
//!   pool of claims, so slots whose type-1 tables are equal up to value
//!   renaming must decide alike (the renaming maps sorted value positions;
//!   [`ReceiverState::decide_on`] treats values opaquely except for their
//!   sorted iteration order, so positions are preserved).

use std::collections::{BTreeMap, HashSet};

use rmt_core::protocols::pka_decision::{DecisionConfig, ReceiverState};
use rmt_core::protocols::rmt_pka::{valid_arrival, PkaPayload};
use rmt_core::Value;
use rmt_sets::NodeId;
use rmt_sim::{Envelope, NodeContext, Protocol};

use crate::codec::{Message, SessionFrame};
use crate::plan::{NodeKnowledge, SessionPlan};

/// Receiver-side counters of one session, for reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Decide calls answered from an equivalent slot's result this round.
    pub decide_cache_hits: u64,
    /// Decide calls actually executed (group representatives).
    pub decide_cache_misses: u64,
    /// (Exclusion set, claim selection) pairs examined by every decide
    /// call of the session.
    pub selections_examined: u64,
    /// Adversary-cover searches run by every decide call of the session.
    pub covers_checked: u64,
    /// `true` if any search ran into a budget (abstained conservatively).
    pub truncated: bool,
    /// Malformed claims dropped by the claim pool, each counted once.
    pub malformed_claims: u64,
}

/// One payload slot of the receiver: its type-1 table (value ↦ D–R paths
/// `trail ‖ R`) and its decision.
#[derive(Clone, Debug, Default)]
struct Slot {
    type1: BTreeMap<Value, HashSet<Vec<NodeId>>>,
    decision: Option<Value>,
}

/// The receiver's session state: the claim pool every slot decides on, the
/// slots, and the cross-slot decide cache.
#[derive(Clone, Debug)]
struct ReceiverRole {
    cfg: DecisionConfig,
    pool: ReceiverState,
    slots: Vec<Slot>,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Clone, Debug)]
enum Role {
    Dealer {
        values: Vec<Value>,
        knowledge: NodeKnowledge,
    },
    Relay {
        knowledge: NodeKnowledge,
    },
    Receiver(Box<ReceiverRole>),
}

/// One player of a batched session (a [`Protocol`] over [`SessionFrame`]s).
#[derive(Clone, Debug)]
pub struct SessionNode {
    id: NodeId,
    dealer: NodeId,
    role: Role,
    /// Model-layer accounting: per-round `(messages, bits)` of the
    /// *expanded* per-message traffic this node's frames carry, using the
    /// per-message protocol's bit estimate. Index 0 = initial sends.
    model_sent: Vec<(u64, u64)>,
    /// Frames dropped for referencing a missing trail (possible only for
    /// adversarial hand-built frames; honest and decoded frames never do).
    invalid_frames: u64,
}

impl SessionNode {
    /// Builds node `v` of a session transmitting `values` under `plan`.
    pub fn new(plan: &SessionPlan, v: NodeId, values: &[Value]) -> Self {
        let knowledge = plan.knowledge(v).clone();
        let role = if v == plan.dealer() {
            Role::Dealer {
                values: values.to_vec(),
                knowledge,
            }
        } else if v == plan.receiver() {
            Role::Receiver(Box::new(ReceiverRole {
                cfg: *plan.decision_config(),
                pool: ReceiverState::new(v, plan.dealer(), knowledge.view, knowledge.structure),
                slots: vec![Slot::default(); values.len()],
                cache_hits: 0,
                cache_misses: 0,
            }))
        } else {
            Role::Relay { knowledge }
        };
        SessionNode {
            id: v,
            dealer: plan.dealer(),
            role,
            model_sent: Vec::new(),
            invalid_frames: 0,
        }
    }

    /// The receiver's per-slot verdicts (receiver node only).
    pub fn receiver_verdicts(&self) -> Option<Vec<Option<Value>>> {
        match &self.role {
            Role::Receiver(r) => Some(r.slots.iter().map(|s| s.decision).collect()),
            _ => None,
        }
    }

    /// The receiver's search counters (receiver node only).
    pub fn receiver_stats(&self) -> Option<ReceiverStats> {
        match &self.role {
            Role::Receiver(r) => Some(ReceiverStats {
                decide_cache_hits: r.cache_hits,
                decide_cache_misses: r.cache_misses,
                selections_examined: r.pool.selections_examined,
                covers_checked: r.pool.covers_checked,
                truncated: r.pool.truncated,
                malformed_claims: r.pool.malformed_claims,
            }),
            _ => None,
        }
    }

    /// Per-round model-layer `(messages, bits)` this node sent.
    pub fn model_sent(&self) -> &[(u64, u64)] {
        &self.model_sent
    }

    /// Frames this node received and dropped for referencing a missing
    /// trail (the frames [`SessionFrame::expand`] rejects).
    pub fn invalid_frames(&self) -> u64 {
        self.invalid_frames
    }

    fn tally(&mut self, round: u32, frame: &SessionFrame, copies: u64) {
        let (msgs, bits) = frame.model_cost();
        let r = round as usize;
        if self.model_sent.len() <= r {
            self.model_sent.resize(r + 1, (0, 0));
        }
        self.model_sent[r].0 += msgs * copies;
        self.model_sent[r].1 += bits * copies;
    }
}

/// Position-wise pathset equality of two type-1 tables, value names renamed
/// away: slot A with values {7 ↦ P, 9 ↦ Q} matches slot B with
/// {3 ↦ P, 5 ↦ Q}.
fn type1_equal(
    a: &BTreeMap<Value, HashSet<Vec<NodeId>>>,
    b: &BTreeMap<Value, HashSet<Vec<NodeId>>>,
) -> bool {
    a.len() == b.len() && a.values().zip(b.values()).all(|(x, y)| x == y)
}

impl ReceiverRole {
    /// Runs the decision subroutine over the undecided slots, executing the
    /// exponential search once per equivalence class of renamed type-1
    /// tables.
    ///
    /// Soundness: every slot decides on the same claims, the pool's, and
    /// [`ReceiverState::decide_on`] is a pure function of (claims, type-1
    /// paths, budgets) apart from sticky effort counters. Its only
    /// value-dependence is the sorted iteration order of the type-1 map, so
    /// a decision at sorted position `k` of the representative maps to
    /// position `k` of each member.
    fn decide_pass(&mut self) {
        // (representative slot, its decision as a sorted-value position).
        let mut reps: Vec<(usize, Option<usize>)> = Vec::new();
        for i in 0..self.slots.len() {
            if self.slots[i].decision.is_some() {
                continue;
            }
            let cached = reps.iter().find_map(|&(rep, renamed)| {
                type1_equal(&self.slots[rep].type1, &self.slots[i].type1).then_some(renamed)
            });
            match cached {
                Some(renamed) => {
                    self.cache_hits += 1;
                    if let Some(k) = renamed {
                        let value = *self.slots[i]
                            .type1
                            .keys()
                            .nth(k)
                            .expect("renamed position within the type-1 table");
                        self.slots[i].decision = Some(value);
                    }
                }
                None => {
                    self.cache_misses += 1;
                    let slot = &mut self.slots[i];
                    let decided = self.pool.decide_on(&slot.type1, &self.cfg);
                    let renamed = decided.map(|x| {
                        slot.type1
                            .keys()
                            .position(|&v| v == x)
                            .expect("decided value was ingested")
                    });
                    slot.decision = decided;
                    reps.push((i, renamed));
                }
            }
        }
    }
}

impl Protocol for SessionNode {
    type Payload = SessionFrame;
    type Decision = Vec<Option<Value>>;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, SessionFrame)> {
        let frame = match &self.role {
            Role::Dealer { values, knowledge } => {
                // Per neighbour: every slot's value over the trail [D], then
                // the dealer's knowledge — the batched form of the
                // per-message dealer's [value, knowledge] send order.
                let mut items: Vec<(u32, PkaPayload)> = values
                    .iter()
                    .enumerate()
                    .map(|(slot, &value)| {
                        (
                            slot as u32,
                            PkaPayload::DealerValue {
                                value,
                                trail: vec![self.id],
                            },
                        )
                    })
                    .collect();
                items.push((
                    0,
                    PkaPayload::Knowledge {
                        node: self.id,
                        view: knowledge.view.clone(),
                        structure: knowledge.structure.clone(),
                        trail: vec![self.id],
                    },
                ));
                Some(SessionFrame::pack(&items))
            }
            Role::Relay { knowledge } => Some(SessionFrame::pack(&[(
                0,
                PkaPayload::Knowledge {
                    node: self.id,
                    view: knowledge.view.clone(),
                    structure: knowledge.structure.clone(),
                    trail: vec![self.id],
                },
            )])),
            // The receiver only listens.
            Role::Receiver(_) => None,
        };
        match frame {
            Some(frame) => {
                self.tally(ctx.round, &frame, ctx.neighbors.len() as u64);
                ctx.neighbors.iter().map(|n| (n, frame.clone())).collect()
            }
            None => Vec::new(),
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &[Envelope<SessionFrame>],
    ) -> Vec<(NodeId, SessionFrame)> {
        match &mut self.role {
            Role::Dealer { .. } => Vec::new(), // terminated after start
            Role::Relay { .. } => {
                // Forward every valid logical message with the trail
                // extended, in one frame sent to every neighbour.
                let frame = SessionFrame::relay(
                    self.id,
                    inbox.iter().map(|env| (env.from, &env.payload)),
                    &mut self.invalid_frames,
                );
                if frame.is_empty() {
                    return Vec::new();
                }
                self.tally(ctx.round, &frame, ctx.neighbors.len() as u64);
                ctx.neighbors.iter().map(|n| (n, frame.clone())).collect()
            }
            Role::Receiver(receiver) => {
                if receiver.slots.iter().all(|s| s.decision.is_some()) {
                    return Vec::new(); // all slots delivered; terminated
                }
                let me = self.id;
                let dealer = self.dealer;
                let mut changed = false;
                // Some slot is undecided. Once none is, later claims go
                // uncounted, as the per-message receiver stops reading
                // when it decides.
                let mut live = true;
                for env in inbox {
                    let Ok(msgs) = env.payload.messages() else {
                        self.invalid_frames += 1;
                        continue;
                    };
                    for (slot, message) in msgs {
                        if !valid_arrival(message.trail(), env.from, me) {
                            continue;
                        }
                        match message {
                            Message::Value { value, trail } => {
                                let Some(s) = receiver.slots.get_mut(slot as usize) else {
                                    continue; // out-of-range slot: ignorable noise
                                };
                                if s.decision.is_some() {
                                    continue;
                                }
                                // Dealer propagation rule: the authenticated
                                // channel from the dealer is definitive.
                                if env.from == dealer && trail == [dealer] {
                                    s.decision = Some(value);
                                    live = receiver.slots.iter().any(|s| s.decision.is_none());
                                    continue;
                                }
                                s.type1
                                    .entry(value)
                                    .or_default()
                                    .insert([trail, &[me]].concat());
                                changed = true;
                            }
                            Message::Knowledge { node, claim, .. } => {
                                // Knowledge is slot-independent: the pool
                                // ingests it once for every undecided slot,
                                // sharing the frame's claim.
                                if live {
                                    receiver.pool.ingest_shared_claim(node, claim);
                                }
                                changed = true;
                            }
                        }
                    }
                }
                if changed {
                    receiver.decide_pass();
                }
                Vec::new()
            }
        }
    }

    fn decision(&self) -> Option<Vec<Option<Value>>> {
        match &self.role {
            Role::Dealer { values, .. } => Some(values.iter().map(|&v| Some(v)).collect()),
            Role::Relay { .. } => None,
            Role::Receiver(r) => Some(r.slots.iter().map(|s| s.decision).collect()),
        }
    }

    fn is_terminated(&self) -> bool {
        match &self.role {
            Role::Dealer { .. } | Role::Relay { .. } => true,
            Role::Receiver(r) => r.slots.iter().all(|s| s.decision.is_some()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_core::gallery;
    use rmt_core::protocols::rmt_pka::run_pka;
    use rmt_graph::ViewKind;
    use rmt_sets::NodeSet;
    use rmt_sim::{Runner, SilentAdversary};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn run_session_runner(
        plan: &SessionPlan,
        values: &[Value],
        corrupted: NodeSet,
    ) -> rmt_sim::RunOutcome<SessionNode> {
        Runner::new(
            plan.graph().clone(),
            |v| SessionNode::new(plan, v, values),
            SilentAdversary::new(corrupted),
        )
        .run()
    }

    #[test]
    fn batched_session_delivers_every_slot() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let values = [7, 8, 9, 1000];
        let out = run_session_runner(&plan, &values, NodeSet::new());
        let verdicts = out
            .protocol(inst.receiver())
            .and_then(SessionNode::receiver_verdicts)
            .expect("receiver present");
        assert_eq!(verdicts, vec![Some(7), Some(8), Some(9), Some(1000)]);
    }

    #[test]
    fn batch_one_matches_per_message_protocol_exactly() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        for corrupted in [NodeSet::new(), set(&[1])] {
            let naive = run_pka(&inst, 7, SilentAdversary::new(corrupted.clone()));
            let session = run_session_runner(&plan, &[7], corrupted.clone());
            let verdicts = session
                .protocol(inst.receiver())
                .and_then(SessionNode::receiver_verdicts)
                .unwrap();
            assert_eq!(
                verdicts,
                vec![naive.decision(inst.receiver())],
                "corrupted {corrupted:?}"
            );
            // Model-layer accounting equals the per-message run's counters.
            let mut per_round: Vec<(u64, u64)> = Vec::new();
            for v in plan.graph().nodes() {
                if let Some(node) = session.protocol(v) {
                    for (r, &(m, b)) in node.model_sent().iter().enumerate() {
                        if per_round.len() <= r {
                            per_round.resize(r + 1, (0, 0));
                        }
                        per_round[r].0 += m;
                        per_round[r].1 += b;
                    }
                }
            }
            let msgs: u64 = per_round.iter().map(|&(m, _)| m).sum();
            let bits: u64 = per_round.iter().map(|&(_, b)| b).sum();
            assert_eq!(msgs, naive.metrics.honest_messages, "messages");
            assert_eq!(bits, naive.metrics.honest_bits, "bits");
            let naive_per_round: Vec<u64> = naive.metrics.honest_messages_per_round.clone();
            for (r, &(m, _)) in per_round.iter().enumerate() {
                assert_eq!(m, naive_per_round.get(r).copied().unwrap_or(0), "round {r}");
            }
        }
    }

    #[test]
    fn dealer_rule_decides_adjacent_receiver_per_slot() {
        // Diamond plus a direct D–R edge: every slot decides via the
        // authenticated dealer channel even with both relays corrupted.
        let mut g = rmt_graph::Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g.add_edge(0.into(), 3.into());
        let z = rmt_adversary::AdversaryStructure::from_sets([set(&[1, 2])]);
        let inst =
            rmt_core::Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).expect("instance");
        let plan = SessionPlan::build(&inst);
        let out = run_session_runner(&plan, &[5, 6], set(&[1, 2]));
        let verdicts = out
            .protocol(3.into())
            .and_then(SessionNode::receiver_verdicts)
            .unwrap();
        assert_eq!(verdicts, vec![Some(5), Some(6)]);
    }

    #[test]
    fn decide_cache_collapses_equivalent_slots() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let values: Vec<Value> = (0..16).collect();
        let out = run_session_runner(&plan, &values, NodeSet::new());
        let stats = out
            .protocol(inst.receiver())
            .and_then(SessionNode::receiver_stats)
            .unwrap();
        // All 16 slots receive the same trails (values renamed), so each
        // decide round runs one real search and serves 15 from the cache.
        assert!(stats.decide_cache_hits >= 15, "stats: {stats:?}");
        assert!(stats.decide_cache_misses >= 1);
        let verdicts = out
            .protocol(inst.receiver())
            .and_then(SessionNode::receiver_verdicts)
            .unwrap();
        assert_eq!(
            verdicts,
            values.iter().map(|&v| Some(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn wire_bits_amortize_with_batch_size() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let one = run_session_runner(&plan, &[7], NodeSet::new());
        let values: Vec<Value> = (0..64).collect();
        let many = run_session_runner(&plan, &values, NodeSet::new());
        let per_payload_one = one.metrics.honest_bits as f64;
        let per_payload_many = many.metrics.honest_bits as f64 / 64.0;
        assert!(
            per_payload_many * 5.0 < per_payload_one,
            "batch 64: {per_payload_many} bits/payload vs batch 1: {per_payload_one}"
        );
    }
}
