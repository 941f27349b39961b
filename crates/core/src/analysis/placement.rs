//! Knowledge placement: *which* players need extra knowledge?
//!
//! The paper characterizes the minimal view function γ (in the pointwise
//! subgraph order) that renders RMT solvable. The radius sweep
//! ([`minimal_knowledge_radius`](crate::analysis::minimal_knowledge_radius))
//! moves along the uniform chain of that order; this module explores the
//! non-uniform directions: starting from ad hoc knowledge, find a smallest
//! *set of nodes* that, upgraded to radius-`k` views, makes the RMT-cut
//! disappear. In a design phase this answers "where do we have to invest in
//! topology discovery?" — the practical by-product the paper points out.

use rmt_adversary::AdversaryStructure;
use rmt_graph::{Graph, ViewAssignment, ViewKind};
use rmt_sets::NodeSet;

use crate::cuts::find_rmt_cut;
use crate::instance::Instance;

/// Builds the instance where nodes in `upgraded` have radius-`k` views and
/// everyone else has ad hoc (star) views.
pub fn mixed_views_instance(
    g: &Graph,
    z: &AdversaryStructure,
    dealer: rmt_sets::NodeId,
    receiver: rmt_sets::NodeId,
    upgraded: &NodeSet,
    k: usize,
) -> Instance {
    let views = ViewAssignment::from_fn(g, |g, v| {
        if upgraded.contains(v) {
            ViewKind::Radius(k).view_of(g, v)
        } else {
            ViewKind::AdHoc.view_of(g, v)
        }
    });
    Instance::with_views(g.clone(), z.clone(), views, dealer, receiver)
        .expect("mixed views preserve instance validity")
}

/// Finds a minimum-cardinality set of nodes whose upgrade to radius-`k`
/// views makes RMT solvable, searching subsets in increasing size up to
/// `max_upgrades` nodes. Returns `None` if no such set exists within the
/// bound (or at all — upgrading everyone is the weakest useful test).
///
/// Exhaustive (the placement problem inherits the characterization's
/// hardness); intended for design-phase analysis of experiment-scale
/// networks.
pub fn minimal_upgrade_set(
    g: &Graph,
    z: &AdversaryStructure,
    dealer: rmt_sets::NodeId,
    receiver: rmt_sets::NodeId,
    k: usize,
    max_upgrades: usize,
) -> Option<NodeSet> {
    let candidates = g.nodes().clone();
    for size in 0..=max_upgrades.min(candidates.len()) {
        for upgraded in candidates.combinations(size) {
            let inst = mixed_views_instance(g, z, dealer, receiver, &upgraded, k);
            if find_rmt_cut(&inst, None).is_none() {
                return Some(upgraded);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gallery;

    #[test]
    fn staggered_theta_needs_exactly_one_upgrade() {
        // The theta's triple cut is refuted as soon as *some* node of the
        // receiver-side component sees both framed nodes. A single radius-2
        // upgrade suffices — and it must be a node whose ball covers the
        // framing.
        let (g, z) = gallery::staggered_theta_parts();
        let upgraded = minimal_upgrade_set(&g, &z, 0.into(), 9.into(), 2, 3)
            .expect("upgrades make the theta solvable");
        assert_eq!(
            upgraded.len(),
            1,
            "one well-placed upgrade is enough: {upgraded}"
        );
        // Verify the produced assignment really is solvable.
        let inst = mixed_views_instance(&g, &z, 0.into(), 9.into(), &upgraded, 2);
        assert!(find_rmt_cut(&inst, None).is_none());
    }

    #[test]
    fn empty_upgrade_set_means_already_solvable() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let upgraded = minimal_upgrade_set(
            inst.graph(),
            inst.adversary(),
            inst.dealer(),
            inst.receiver(),
            2,
            2,
        )
        .unwrap();
        assert!(upgraded.is_empty());
    }

    #[test]
    fn genuinely_unsolvable_instances_admit_no_upgrade() {
        // The unsolvable diamond has a pair cut: no amount of knowledge helps.
        let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
        assert_eq!(
            minimal_upgrade_set(
                inst.graph(),
                inst.adversary(),
                inst.dealer(),
                inst.receiver(),
                4,
                4,
            ),
            None
        );
    }

    #[test]
    fn mixed_views_respect_the_upgrade_set() {
        let (g, z) = gallery::staggered_theta_parts();
        let upgraded = NodeSet::singleton(9u32.into());
        let inst = mixed_views_instance(&g, &z, 0.into(), 9.into(), &upgraded, 2);
        // Upgraded node sees a radius-2 ball; others see stars.
        assert!(inst.view(9.into()).node_count() > inst.view(3.into()).node_count());
        assert_eq!(
            inst.view(3.into()).edge_count(),
            inst.graph().degree(3.into())
        );
    }
}
