//! PPA — the Path Propagation Algorithm, the classical *full-knowledge*
//! baseline (Pelc–Peleg '05 / PPS '14, adapted to RMT).
//!
//! Every node relays the dealer's value along trails exactly as RMT-PKA
//! does (same validation rules), but no knowledge (type-2) messages are
//! exchanged: the receiver knows the whole graph and the whole structure 𝒵
//! a priori and decides by the **credibility rule**:
//!
//! > decide `x` iff no admissible `Z ∈ 𝒵` covers *all* received trails
//! > carrying `x`.
//!
//! Soundness: if some received `x`-trail avoids every admissible `Z`, it in
//! particular avoids the actual corruption set, so it was relayed by honest
//! nodes only and `x = x_D`. Completeness: the rule eventually fires for
//! `x_D` iff no **pair cut** exists — no `Z₁ ∪ Z₂` with `Z₁, Z₂ ∈ 𝒵`
//! separating D from R ([`pair_cut_exists`]) — which is exactly the
//! full-knowledge specialization of the RMT-cut characterization (tested in
//! this module and swept in experiment E9).

use std::collections::BTreeMap;

use rmt_adversary::AdversaryStructure;
use rmt_graph::traversal;
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Envelope, NodeContext, Payload, Protocol};

use crate::instance::Instance;
use crate::protocols::rmt_pka::valid_arrival;
use crate::protocols::Value;

/// A PPA message: the claimed dealer value with its propagation trail.
#[derive(Clone, Debug, PartialEq)]
pub struct PpaPayload {
    /// The claimed value.
    pub value: Value,
    /// The propagation trail (starting at the dealer, ending at the sender).
    pub trail: Vec<NodeId>,
}

impl Payload for PpaPayload {
    fn encoded_bits(&self) -> usize {
        64 + 32 * self.trail.len()
    }
}

/// One player's PPA state machine.
#[derive(Clone, Debug)]
pub struct Ppa {
    id: NodeId,
    dealer: NodeId,
    receiver: NodeId,
    /// The receiver's a-priori knowledge (full-knowledge model).
    structure: AdversaryStructure,
    input: Option<Value>,
    /// Received D–R paths per value (receiver only).
    paths: BTreeMap<Value, Vec<NodeSet>>,
    decision: Option<Value>,
}

impl Ppa {
    /// Builds node `v` of `inst`. PPA assumes full knowledge; the instance's
    /// view assignment is ignored and 𝒵 itself is handed to the receiver.
    pub fn node(inst: &Instance, v: NodeId, input: Value) -> Self {
        Ppa {
            id: v,
            dealer: inst.dealer(),
            receiver: inst.receiver(),
            structure: inst.adversary().clone(),
            input: (v == inst.dealer()).then_some(input),
            paths: BTreeMap::new(),
            decision: (v == inst.dealer()).then_some(input),
        }
    }

    /// The credibility rule on the accumulated evidence.
    fn try_decide(&self) -> Option<Value> {
        for (&x, witness_paths) in &self.paths {
            let covered = |z: &NodeSet| witness_paths.iter().all(|p| !p.is_disjoint(z));
            let explained_away = self.structure.maximal_sets().iter().any(covered);
            // The trivial structure {∅} explains nothing away (∅ covers no
            // non-empty path set).
            if !explained_away && !witness_paths.is_empty() {
                return Some(x);
            }
        }
        None
    }
}

impl Protocol for Ppa {
    type Payload = PpaPayload;
    type Decision = Value;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, PpaPayload)> {
        match self.input {
            Some(value) if self.id == self.dealer => {
                let msg = PpaPayload {
                    value,
                    trail: vec![self.id],
                };
                ctx.neighbors.iter().map(|n| (n, msg.clone())).collect()
            }
            _ => Vec::new(),
        }
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &[Envelope<PpaPayload>],
    ) -> Vec<(NodeId, PpaPayload)> {
        if self.id == self.dealer {
            return Vec::new();
        }
        let mut out = Vec::new();
        for env in inbox {
            let trail = &env.payload.trail;
            if !valid_arrival(trail, env.from, self.id) {
                continue; // forged tail or loop: discard
            }
            if self.id == self.receiver {
                if self.decision.is_some() {
                    return Vec::new();
                }
                // Internal nodes of the D–R path (exclude D and R: they are
                // honest by assumption and never count toward covers).
                let internal: NodeSet = trail
                    .iter()
                    .copied()
                    .filter(|v| *v != self.dealer)
                    .collect();
                self.paths
                    .entry(env.payload.value)
                    .or_default()
                    .push(internal);
            } else {
                let mut fwd = env.payload.clone();
                fwd.trail.push(self.id);
                out.extend(ctx.neighbors.iter().map(|n| (n, fwd.clone())));
            }
        }
        if self.id == self.receiver && self.decision.is_none() {
            self.decision = self.try_decide();
        }
        out
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }

    fn is_terminated(&self) -> bool {
        self.id != self.receiver || self.decision.is_some()
    }
}

/// The classical full-knowledge obstruction: a **pair cut** is a D–R cut of
/// the form `Z₁ ∪ Z₂` with `Z₁, Z₂ ∈ 𝒵`. RMT with full knowledge is
/// solvable iff none exists — the full-knowledge specialization of the
/// RMT-cut (tested in `full_knowledge_rmt_cut_is_pair_cut`).
///
/// Polynomial in |𝒵|²: only maximal sets need checking (cuts are monotone).
///
/// # Example
///
/// ```
/// use rmt_core::{gallery, protocols::ppa};
/// use rmt_graph::ViewKind;
///
/// assert!(ppa::pair_cut_exists(&gallery::unsolvable_diamond(ViewKind::Full)));
/// // The staggered theta needs *three* members to cut — no pair suffices.
/// assert!(!ppa::pair_cut_exists(&gallery::staggered_theta(ViewKind::Full)));
/// ```
pub fn pair_cut_exists(inst: &Instance) -> bool {
    let (d, r) = (inst.dealer(), inst.receiver());
    if inst.graph().has_edge(d, r) {
        return false;
    }
    if !inst.endpoints_connected() {
        return true; // the empty pair cut
    }
    let max = inst.adversary().maximal_sets();
    let mut endpoints = NodeSet::new();
    endpoints.insert(d);
    endpoints.insert(r);
    let blocks =
        |c: &NodeSet| !traversal::connected_avoiding(inst.graph(), d, r, &c.difference(&endpoints));
    if max.is_empty() {
        return false; // only ∅ ∪ ∅, and the endpoints are connected
    }
    max.iter()
        .enumerate()
        .any(|(i, z1)| max[i..].iter().any(|z2| blocks(&z1.union(z2))))
}

/// Runs PPA on an instance under a given adversary.
pub fn run_ppa<A>(inst: &Instance, input: Value, adversary: A) -> rmt_sim::RunOutcome<Ppa>
where
    A: rmt_sim::Adversary<PpaPayload>,
{
    rmt_sim::Runner::new(
        inst.graph().clone(),
        |v| Ppa::node(inst, v, input),
        adversary,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sim::SilentAdversary;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn full(g: Graph, z_sets: &[&[u32]], d: u32, r: u32) -> Instance {
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        Instance::new(g, z, ViewKind::Full, d.into(), r.into()).unwrap()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn ppa_delivers_on_pair_cut_free_instances() {
        let inst = full(diamond(), &[&[1]], 0, 3);
        assert!(!pair_cut_exists(&inst));
        let out = run_ppa(&inst, 7, SilentAdversary::new(set(&[1])));
        assert_eq!(out.decision(3.into()), Some(7));
    }

    #[test]
    fn ppa_abstains_under_a_pair_cut() {
        let inst = full(diamond(), &[&[1], &[2]], 0, 3);
        assert!(pair_cut_exists(&inst));
        let out = run_ppa(&inst, 7, SilentAdversary::new(set(&[1])));
        assert_eq!(out.decision(3.into()), None);
    }

    #[test]
    fn ppa_is_safe_under_value_flipping() {
        // Corrupted relay 1 flips; R must still decide the true value via 2.
        let inst = full(diamond(), &[&[1]], 0, 3);
        let adv = rmt_sim::MapAdversary::new(
            set(&[1]),
            |v| Ppa::node(&inst, v, 7),
            |_, mut env: Envelope<PpaPayload>| {
                env.payload.value ^= 1;
                Some(env)
            },
        );
        let out = run_ppa(&inst, 7, adv);
        assert_eq!(out.decision(3.into()), Some(7));
    }

    #[test]
    fn full_knowledge_rmt_cut_is_pair_cut() {
        // Under full views the RMT-cut characterization degenerates to the
        // classical pair cut — sweep random instances.
        let mut rng = generators::seeded(77);
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let inst = crate::sampling::random_instance_nonadjacent(
                n,
                0.35,
                ViewKind::Full,
                3,
                2,
                &mut rng,
            );
            assert_eq!(
                crate::cuts::find_rmt_cut(&inst, None).is_some(),
                pair_cut_exists(&inst),
                "trial {trial}: {inst:?}"
            );
        }
    }

    #[test]
    fn ppa_agrees_with_pka_under_full_views() {
        // PPA and RMT-PKA(full views) must reach the same verdict under
        // silent corruptions.
        let mut rng = generators::seeded(78);
        for trial in 0..20 {
            let n = 5 + trial % 3;
            let inst = crate::sampling::random_instance_nonadjacent(
                n,
                0.4,
                ViewKind::Full,
                3,
                2,
                &mut rng,
            );
            let solvable = !pair_cut_exists(&inst);
            for t in inst.worst_case_corruptions() {
                let ppa = run_ppa(&inst, 7, SilentAdversary::new(t.clone()));
                let pka =
                    crate::protocols::rmt_pka::run_pka(&inst, 7, SilentAdversary::new(t.clone()));
                let (dp, dk) = (ppa.decision(inst.receiver()), pka.decision(inst.receiver()));
                if solvable {
                    // On solvable instances both must deliver.
                    assert_eq!(dp, Some(7), "trial {trial}, T = {t}");
                    assert_eq!(dk, Some(7), "trial {trial}, T = {t}");
                } else {
                    // On unsolvable instances both must at least be safe
                    // (outcomes may differ under a weak attack).
                    assert!(dp.is_none() || dp == Some(7), "trial {trial}");
                    assert!(dk.is_none() || dk == Some(7), "trial {trial}");
                }
            }
        }
    }

    #[test]
    fn pair_cut_edge_cases() {
        // Adjacent endpoints: never a pair cut.
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        assert!(!pair_cut_exists(&full(g, &[&[1], &[2]], 0, 3)));
        // Disconnected endpoints: the empty pair cut.
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        assert!(pair_cut_exists(&full(g, &[], 0, 4)));
        // Trivial structure on a connected graph: no pair cut.
        assert!(!pair_cut_exists(&full(generators::cycle(5), &[], 0, 2)));
    }
}
