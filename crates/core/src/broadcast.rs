//! Reliable Broadcast with an honest dealer — the setting Z-CPA was born in
//! (Koo '04, Pelc–Peleg '05, PPS '14), which the paper's Section 4 adapts to
//! RMT.
//!
//! In Broadcast *every* honest player must decide on the dealer's value, not
//! just one receiver. The obstruction is the original **𝒵-pp cut**
//! (Definition 10 of the paper's appendix): a cut `C` partitioning the rest
//! into `A ∋ D` and `B ≠ ∅` with `C = C₁ ∪ C₂`, `C₁ ∈ 𝒵`, and
//! `𝒩(u) ∩ C₂ ∈ 𝒵_u` for all `u ∈ B`. Because the RMT notion is the same
//! condition anchored at a specific receiver, Broadcast is solvable iff RMT
//! is solvable *for every receiver* — which this module exploits: the
//! polynomial decider is one Z-CPA fixpoint per worst-case corruption set,
//! checked against full coverage.

use rmt_sets::{NodeId, NodeSet};

use crate::cuts::zcpa_fixpoint_broadcast;
use crate::instance::Instance;
use crate::protocols::zcpa::{ExplicitOracle, ZCpa};
use crate::protocols::Value;

/// A witness that a (broadcast) 𝒵-pp cut exists: some honest node is left
/// undecided by the worst-case fixpoint for corruption `c1 ∈ 𝒵`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastCutWitness {
    /// The admissible part C₁ of the cut.
    pub c1: NodeSet,
    /// The decided honest nodes (the C₂ part of the proof's cut).
    pub c2: NodeSet,
    /// The honest nodes left undecided (the component B).
    pub undecided: NodeSet,
}

/// Broadcast instances reuse [`Instance`]; the receiver field is irrelevant
/// (any non-dealer node works) and only the dealer is consulted here.
///
/// Returns the set of honest nodes the worst-case Z-CPA fixpoint certifies
/// against corruption `corrupted` — the broadcast *coverage*.
pub fn coverage(inst: &Instance, corrupted: &NodeSet) -> NodeSet {
    zcpa_fixpoint_broadcast(inst, corrupted)
}

/// The worst-case corruption sets for broadcast: maximal sets of 𝒵 minus
/// the (honest) dealer.
pub fn worst_case_corruptions(inst: &Instance) -> Vec<NodeSet> {
    inst.adversary()
        .without_nodes(&NodeSet::singleton(inst.dealer()))
        .maximal_sets()
        .to_vec()
}

/// Polynomial decider for Definition 10: a 𝒵-pp cut exists iff some
/// worst-case corruption leaves an honest node undecided.
pub fn zpp_cut_exists(inst: &Instance) -> Option<BroadcastCutWitness> {
    let d = inst.dealer();
    let everyone: NodeSet = inst.graph().nodes().clone();
    let corruptions = {
        let mut c = worst_case_corruptions(inst);
        if c.is_empty() {
            c.push(NodeSet::new()); // the trivial structure still needs connectivity
        }
        c
    };
    for t in corruptions {
        let decided = coverage(inst, &t);
        let mut required = everyone.difference(&t);
        required.remove(d);
        if !required.is_subset(&decided) {
            return Some(BroadcastCutWitness {
                c1: t.clone(),
                c2: decided.clone(),
                undecided: required.difference(&decided),
            });
        }
    }
    None
}

/// `true` iff Broadcast (with honest dealer) is solvable on the instance's
/// graph/structure/views — no Definition-10 𝒵-pp cut.
///
/// # Example
///
/// ```
/// use rmt_core::{broadcast, gallery};
/// use rmt_graph::ViewKind;
///
/// // RMT to the diamond's receiver is fine with 𝒵 = {{1}} — and so is
/// // broadcasting to everyone, since every node is a solvable receiver.
/// assert!(broadcast::solvable(&gallery::tolerant_diamond(ViewKind::AdHoc)));
/// assert!(!broadcast::solvable(&gallery::unsolvable_diamond(ViewKind::AdHoc)));
/// ```
pub fn solvable(inst: &Instance) -> bool {
    zpp_cut_exists(inst).is_none()
}

/// Exhaustive Definition-10 decider over all cuts, for cross-validation:
/// `C` with partition sides `A ∋ D`, `B ≠ ∅`, `C₁ = C ∩ T` maximal-WLOG.
pub fn zpp_cut_by_enumeration(inst: &Instance) -> bool {
    let d = inst.dealer();
    let g = inst.graph();
    let mut candidates = g.nodes().clone();
    candidates.remove(d);
    for c in candidates.subsets() {
        // WLOG B is one far component or any union thereof; taking the whole
        // far side is hardest for the ∀u∈B condition, but any component
        // works — so check per component, sharing the partition logic (and
        // the masked traversal) with the point-to-point decider.
        for comp in rmt_graph::traversal::components_avoiding(g, &c) {
            if comp.contains(d) {
                continue;
            }
            if crate::cuts::zpp::zpp_admissible_partition(inst, &c, &comp, None).is_some() {
                return true;
            }
        }
    }
    false
}

/// Builds the Z-CPA node for *broadcast*: identical to the RMT node except
/// that every node (there is no distinguished receiver) relays on deciding.
pub fn zcpa_broadcast_node(inst: &Instance, v: NodeId, input: Value) -> ZCpa<ExplicitOracle> {
    let mut node = ZCpa::node(inst, v, input);
    node.set_broadcast_mode();
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sim::{Runner, SilentAdversary};

    fn adhoc(g: Graph, z_sets: &[&[u32]], d: u32) -> Instance {
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        // Receiver is irrelevant for broadcast; pick any non-dealer node.
        let r = g.nodes().iter().find(|v| v.raw() != d).unwrap();
        Instance::new(g, z, ViewKind::AdHoc, d.into(), r).unwrap()
    }

    #[test]
    fn broadcast_on_complete_graph_tolerates_a_minority_structure() {
        let inst = adhoc(generators::complete(5), &[&[1], &[2]], 0);
        assert!(solvable(&inst));
    }

    #[test]
    fn broadcast_fails_where_one_receiver_fails() {
        // Diamond with both relays individually corruptible: node 3 cannot
        // be certified, so broadcast is unsolvable.
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let inst = adhoc(g, &[&[1], &[2]], 0);
        let w = zpp_cut_exists(&inst).expect("cut exists");
        assert!(w.undecided.contains(3.into()));
    }

    #[test]
    fn deciders_agree_on_random_instances() {
        let mut rng = generators::seeded(808);
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let g = generators::gnp_connected(n, 0.4, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 3, 2, &mut rng);
            let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 1.into()).unwrap();
            assert_eq!(
                zpp_cut_exists(&inst).is_some(),
                zpp_cut_by_enumeration(&inst),
                "trial {trial}: {inst:?}"
            );
        }
    }

    #[test]
    fn simulated_broadcast_matches_coverage() {
        let mut rng = generators::seeded(809);
        for trial in 0..25 {
            let n = 5 + trial % 4;
            let g = generators::gnp_connected(n, 0.45, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 2, 2, &mut rng);
            let inst = Instance::new(g.clone(), z, ViewKind::AdHoc, 0.into(), 1.into()).unwrap();
            for t in worst_case_corruptions(&inst) {
                let predicted = coverage(&inst, &t);
                let out = Runner::new(
                    g.clone(),
                    |v| zcpa_broadcast_node(&inst, v, 9),
                    SilentAdversary::new(t.clone()),
                )
                .run();
                for v in g.nodes() {
                    if v == inst.dealer() || t.contains(v) {
                        continue;
                    }
                    assert_eq!(
                        out.decision(v) == Some(9),
                        predicted.contains(v),
                        "trial {trial}, T = {t}, node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn broadcast_solvable_iff_every_receiver_solvable() {
        // The RMT-per-receiver view of broadcast.
        let mut rng = generators::seeded(810);
        for trial in 0..25 {
            let n = 5 + trial % 3;
            let g = generators::gnp_connected(n, 0.4, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 3, 2, &mut rng);
            let inst =
                Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, 0.into(), 1.into()).unwrap();
            let broadcast_ok = solvable(&inst);
            let all_receivers_ok = g.nodes().iter().filter(|v| v.raw() != 0).all(|r| {
                let i = Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, 0.into(), r).unwrap();
                crate::cuts::zcpa_resilient(&i)
            });
            assert_eq!(broadcast_ok, all_receivers_ok, "trial {trial}");
        }
    }
}
