//! The physical-model seam shared by every scheduler.
//!
//! The paper's model has exactly two physical constraints — traffic flows
//! only along edges of the graph, and channels are authenticated (the
//! adversary cannot forge an honest sender) — plus the bookkeeping every
//! experiment relies on: message/bit accounting and the observable event
//! stream. [`Transport`] packages those for the one round loop of
//! [`Runner`], so every delivery policy — the synchronous one, `rmt-net`'s
//! faulty network and `rmt-netd`'s sockets — runs under *the same* model
//! with *the same* event emission order: a policy that delivers what it is
//! handed unchanged is observationally identical to the synchronous one
//! (the differential gates of `rmt-net` and `rmt-netd` check this byte for
//! byte).
//!
//! [`Runner`]: crate::Runner

use rmt_graph::Graph;
use rmt_obs::{RejectReason, RunEvent, RunObserver};
use rmt_sets::{NodeId, NodeSet};

use crate::message::{Envelope, Payload};
use crate::metrics::Metrics;
use crate::protocol::Protocol;

/// Slack added to the node count for the default round cap.
///
/// Every trail-bounded protocol in this workspace quiesces within
/// `node_count` delivery rounds — trails are simple paths, so no message
/// survives more hops than there are nodes. The extra slack covers the
/// bookkeeping rounds around that bound: the initial send phase, the final
/// empty-inflight round that detects quiescence, and a margin for protocols
/// that decide one round after their last delivery. See
/// [`default_max_rounds`].
pub const MAX_ROUNDS_SLACK: u32 = 4;

/// The default round cap of the synchronous schedulers:
/// `node_count + `[`MAX_ROUNDS_SLACK`].
///
/// Schedulers that stretch delivery beyond the synchronous `r + 1` bound
/// must scale this up accordingly — `rmt-net`'s `NetRunner` multiplies it by
/// `1 + max_delay` so a delay fault cannot silently truncate a run that
/// would have quiesced.
pub fn default_max_rounds(node_count: usize) -> u32 {
    node_count as u32 + MAX_ROUNDS_SLACK
}

/// Enforces the physical model on everything handed to a scheduler.
///
/// Honest sends are stamped with their true sender and silently limited to
/// graph edges (a protocol addressing a non-neighbour is a protocol bug, not
/// an attack — the message just does not exist). Adversarial envelopes are
/// *checked*: claiming an honest sender or a non-edge violates the model and
/// is rejected, counted, and reported to the observer.
pub struct Transport<'g> {
    graph: &'g Graph,
}

impl<'g> Transport<'g> {
    /// Wraps the communication graph.
    pub fn new(graph: &'g Graph) -> Self {
        Transport { graph }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Admits one honest node's outgoing `(recipient, payload)` pairs for
    /// `round`: stamps the authenticated sender, drops non-edges, accounts
    /// messages and bits, and emits a [`RunEvent::HonestSend`] per admitted
    /// message.
    pub fn admit_honest<P: Payload, O: RunObserver>(
        &self,
        round: u32,
        from: NodeId,
        sends: Vec<(NodeId, P)>,
        metrics: &mut Metrics,
        honest_this_round: &mut u64,
        observer: &mut O,
    ) -> Vec<Envelope<P>> {
        let mut out = Vec::new();
        for (to, payload) in sends {
            if self.graph.has_edge(from, to) {
                metrics.honest_messages += 1;
                *honest_this_round += 1;
                let bits = payload.encoded_bits() as u64;
                metrics.honest_bits += bits;
                if O::ACTIVE {
                    observer.on_event(&RunEvent::HonestSend {
                        round,
                        from: from.raw(),
                        to: to.raw(),
                        bits,
                        payload: format!("{payload:?}"),
                    });
                }
                out.push(Envelope::new(from, to, payload));
            }
        }
        out
    }

    /// Admits adversarial envelopes for `round`: envelopes claiming a sender
    /// outside `corrupted` (forgery on an authenticated channel) or a
    /// non-edge are rejected, counted in [`Metrics::rejected_adversarial`]
    /// and reported; valid ones are counted and emitted as
    /// [`RunEvent::AdversarialSend`].
    pub fn admit_adversarial<P: Payload, O: RunObserver>(
        &self,
        round: u32,
        corrupted: &NodeSet,
        envelopes: Vec<Envelope<P>>,
        metrics: &mut Metrics,
        observer: &mut O,
    ) -> Vec<Envelope<P>> {
        let mut out = Vec::new();
        for env in envelopes {
            let forged = !corrupted.contains(env.from);
            if !forged && self.graph.has_edge(env.from, env.to) {
                metrics.adversarial_messages += 1;
                if O::ACTIVE {
                    observer.on_event(&RunEvent::AdversarialSend {
                        round,
                        from: env.from.raw(),
                        to: env.to.raw(),
                        payload: format!("{:?}", env.payload),
                    });
                }
                out.push(env);
            } else {
                metrics.rejected_adversarial += 1;
                if O::ACTIVE {
                    observer.on_event(&RunEvent::RejectedSend {
                        round,
                        from: env.from.raw(),
                        to: env.to.raw(),
                        reason: if forged {
                            RejectReason::ForgedSender
                        } else {
                            RejectReason::NoSuchEdge
                        },
                    });
                }
            }
        }
        out
    }
}

/// Emits a [`RunEvent::Decision`] for every honest node that decided since
/// the last sweep, in ascending node order.
///
/// `decided` carries the sweep state across rounds (one flag per node
/// index). Only meaningful when the observer is active; the round loop
/// guards the call with `O::ACTIVE` so the inactive path stays event-free.
pub(crate) fn sweep_decisions<Q: Protocol, O: RunObserver>(
    graph: &Graph,
    protocols: &[Option<Q>],
    round: u32,
    decided: &mut [bool],
    observer: &mut O,
) {
    for v in graph.nodes() {
        if decided[v.index()] {
            continue;
        }
        if let Some(d) = protocols[v.index()].as_ref().and_then(Protocol::decision) {
            decided[v.index()] = true;
            observer.on_event(&RunEvent::Decision {
                round,
                node: v.raw(),
                value: format!("{d:?}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::generators;
    use rmt_obs::VecObserver;

    #[test]
    fn default_round_cap_is_node_count_plus_slack() {
        assert_eq!(default_max_rounds(6), 6 + MAX_ROUNDS_SLACK);
        assert_eq!(default_max_rounds(0), MAX_ROUNDS_SLACK);
    }

    #[test]
    fn honest_non_edges_vanish_silently() {
        let g = generators::path_graph(3);
        let t = Transport::new(&g);
        let mut metrics = Metrics::default();
        let mut per_round = 0u64;
        let mut obs = VecObserver::new();
        let out = t.admit_honest(
            0,
            NodeId::new(0),
            vec![(NodeId::new(1), 7u64), (NodeId::new(2), 8u64)], // 0–2 is no edge
            &mut metrics,
            &mut per_round,
            &mut obs,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(metrics.honest_messages, 1);
        assert_eq!(per_round, 1);
        assert_eq!(metrics.honest_bits, 64);
        assert_eq!(obs.events.len(), 1); // no event for the silent drop
    }

    #[test]
    fn adversarial_violations_are_rejected_with_reasons() {
        let g = generators::path_graph(3);
        let t = Transport::new(&g);
        let corrupted: NodeSet = [1u32].into_iter().collect();
        let mut metrics = Metrics::default();
        let mut obs = VecObserver::new();
        let out = t.admit_adversarial(
            1,
            &corrupted,
            vec![
                Envelope::new(0.into(), 1.into(), 5u64), // forged honest sender
                Envelope::new(1.into(), 1.into(), 5u64), // no self edge
                Envelope::new(1.into(), 2.into(), 5u64), // valid
            ],
            &mut metrics,
            &mut obs,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(metrics.adversarial_messages, 1);
        assert_eq!(metrics.rejected_adversarial, 2);
        let reasons: Vec<_> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                RunEvent::RejectedSend { reason, .. } => Some(*reason),
                _ => None,
            })
            .collect();
        assert_eq!(
            reasons,
            vec![RejectReason::ForgedSender, RejectReason::NoSuchEdge]
        );
    }
}
