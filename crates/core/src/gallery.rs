//! A gallery of named instances with known ground truth, used across tests,
//! examples and experiments.
//!
//! Each constructor documents *why* the instance behaves the way it does;
//! the claims are verified by this module's tests and re-verified wherever
//! the instances are used.

use rmt_adversary::AdversaryStructure;
use rmt_graph::{Graph, ViewKind};
use rmt_sets::NodeSet;

use crate::instance::Instance;

/// The canonical **unsolvable diamond**: dealer 0, parallel relays 1 and 2,
/// receiver 3, 𝒵 = {{1}, {2}}.
///
/// Either relay may fall, and `{1} ∪ {2}` is a D–R cut — a pair cut, so the
/// instance is unsolvable under *every* level of knowledge (Theorem 3 /
/// Theorem 8). It is the smallest witness for the lower-bound constructions
/// and the default target of the scenario-swap attack demos.
pub fn unsolvable_diamond(views: ViewKind) -> Instance {
    let mut g = Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([
        NodeSet::singleton(1u32.into()),
        NodeSet::singleton(2u32.into()),
    ]);
    Instance::new(g, z, views, 0.into(), 3.into()).expect("valid gallery instance")
}

/// The **tolerant diamond**: same graph, but only relay 1 is corruptible
/// (𝒵 = {{1}}). Solvable at every knowledge level; the smallest instance on
/// which all protocols deliver under the worst corruption.
pub fn tolerant_diamond(views: ViewKind) -> Instance {
    let mut g = Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([NodeSet::singleton(1u32.into())]);
    Instance::new(g, z, views, 0.into(), 3.into()).expect("valid gallery instance")
}

/// The **staggered theta** — the knowledge-gap witness.
///
/// Three internally disjoint D–R routes of staggered lengths:
///
/// ```text
///        1 ─ 2 ───────┐
///      /               \
///  D=0 ── 3 ─ 4 ─ 7 ── 9=R
///      \               /
///        5 ─ 6 ─ 8 ───┘
/// ```
///
/// with 𝒵 = {{1}, {4}, {6}} (one corruptible node per route, at staggered
/// distances). No *pair* of structure members cuts D from R, so the
/// instance is solvable with full knowledge; but the triple
/// `C = {1} ∪ {4, 6}` is a D–R cut whose C₂ = {4, 6} is *locally* plausible
/// to every radius-1 view of the receiver-side component B = {2, 7, 8, 9}
/// (node 7 attributes {4} to the member {4}, node 8 attributes {6} to {6},
/// and nobody sees both) — an RMT-cut in the ad hoc and radius-1 models.
/// At radius 2 the receiver's view contains both 4 and 6, no single member
/// explains the pair, and the cut dissolves:
///
/// * minimal knowledge radius = **2**;
/// * RMT-PKA with radius-2 views delivers where Z-CPA (ad hoc, radius-1
///   local rule) provably cannot — the strict uniqueness gap between the
///   partial-knowledge and ad hoc models, exercised in tests and E4.
pub fn staggered_theta(views: ViewKind) -> Instance {
    let (g, z) = staggered_theta_parts();
    Instance::new(g, z, views, 0.into(), 9.into()).expect("valid gallery instance")
}

/// The graph and structure of [`staggered_theta`], for callers that sweep
/// view kinds themselves.
pub fn staggered_theta_parts() -> (Graph, AdversaryStructure) {
    let mut g = Graph::new();
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 9), // route A (short, corruptible near D)
        (0, 3),
        (3, 4),
        (4, 7),
        (7, 9), // route B (corruptible in the middle)
        (0, 5),
        (5, 6),
        (6, 8),
        (8, 9), // route C (corruptible in the middle)
    ] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([
        NodeSet::singleton(1u32.into()),
        NodeSet::singleton(4u32.into()),
        NodeSet::singleton(6u32.into()),
    ]);
    (g, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{minimal_knowledge_radius, pka_attack_suite};
    use crate::cuts::{find_rmt_cut, zcpa_resilient};
    use crate::protocols::attacks::PKA_ATTACKS;
    use crate::protocols::ppa::pair_cut_exists;

    #[test]
    fn diamonds_have_the_documented_ground_truth() {
        assert!(find_rmt_cut(&unsolvable_diamond(ViewKind::AdHoc), None).is_some());
        assert!(find_rmt_cut(&unsolvable_diamond(ViewKind::Full), None).is_some());
        assert!(find_rmt_cut(&tolerant_diamond(ViewKind::AdHoc), None).is_none());
    }

    #[test]
    fn staggered_theta_has_no_pair_cut() {
        let inst = staggered_theta(ViewKind::Full);
        assert!(!pair_cut_exists(&inst));
        assert!(
            find_rmt_cut(&inst, None).is_none(),
            "solvable with full knowledge"
        );
    }

    #[test]
    fn staggered_theta_is_unsolvable_ad_hoc() {
        let inst = staggered_theta(ViewKind::AdHoc);
        let w = find_rmt_cut(&inst, None).expect("the triple cut is locally plausible");
        // The documented witness (or an equivalent one) is found.
        assert!(w.cut.len() >= 3);
        assert!(!zcpa_resilient(&inst), "Z-CPA cannot solve it either");
    }

    #[test]
    fn staggered_theta_minimal_radius_is_two() {
        let (g, z) = staggered_theta_parts();
        assert_eq!(
            minimal_knowledge_radius(&g, &z, 0.into(), 9.into(), 4),
            Some(2)
        );
    }

    #[test]
    fn pka_at_radius_two_beats_zcpa_ad_hoc() {
        // The strict gap: the *same* network and adversary, solvable by
        // RMT-PKA with radius-2 knowledge, unsolvable by any safe ad hoc
        // algorithm (in particular Z-CPA).
        let inst = staggered_theta(ViewKind::Radius(2));
        let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, 99, None);
        assert!(report.all_correct(), "{report:?}");
        assert!(!zcpa_resilient(&staggered_theta(ViewKind::AdHoc)));
    }
}
