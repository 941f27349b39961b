//! Threshold tolerance: how strong an adversary can an instance take?
//!
//! For the global threshold model this module computes the largest `t` for
//! which RMT remains solvable at a given knowledge level. Under *full*
//! knowledge the answer must reproduce Dolev's classical bound — RMT between
//! non-adjacent nodes is possible iff the D–R vertex connectivity exceeds
//! `2t` — which the tests verify against the max-flow connectivity from
//! `rmt-graph`: the classical theorem drops out of the general adversary
//! machinery as a special case.

use rmt_graph::{cuts as gcuts, Graph, ViewKind};
use rmt_sets::NodeId;

use crate::cuts::find_rmt_cut;
use crate::instance::Instance;

/// The largest global threshold `t ≤ max_t` under which
/// `(g, threshold(t), views, d, r)` admits no RMT-cut, or `None` if even
/// `t = 0` is unsolvable (i.e. D and R are disconnected).
///
/// Solvability is antitone in `t` (larger structures only add cuts), so a
/// linear scan from 0 is exact and returns the first failure minus one.
pub fn max_tolerable_threshold(
    g: &Graph,
    d: NodeId,
    r: NodeId,
    views: ViewKind,
    max_t: usize,
) -> Option<usize> {
    let mut best = None;
    for t in 0..=max_t {
        let z = rmt_adversary::threshold(g.nodes(), t);
        let inst = Instance::new(g.clone(), z, views, d, r).expect("valid threshold instance");
        if find_rmt_cut(&inst, None).is_none() {
            best = Some(t);
        } else {
            break;
        }
    }
    best
}

/// Dolev's bound for the full-knowledge threshold model: for non-adjacent
/// D, R with vertex connectivity κ, the maximum tolerable threshold is
/// `⌈κ/2⌉ − 1` (solvable iff κ > 2t); adjacent endpoints tolerate any `t`.
pub fn dolev_bound(g: &Graph, d: NodeId, r: NodeId) -> Option<usize> {
    match gcuts::vertex_connectivity(g, d, r) {
        None => Some(usize::MAX), // adjacent: the direct channel always works
        Some(0) => None,          // disconnected
        Some(k) => Some(k.div_ceil(2) - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::generators;

    #[test]
    fn full_knowledge_tolerance_matches_dolev_on_random_graphs() {
        let mut rng = generators::seeded(2101);
        for trial in 0..30 {
            let n = 5 + trial % 5;
            let g = generators::gnp_connected(n, 0.45, &mut rng);
            let d = NodeId::new(0);
            let r = NodeId::new(n as u32 - 1);
            if g.has_edge(d, r) {
                continue;
            }
            let expected = dolev_bound(&g, d, r).unwrap();
            let measured = max_tolerable_threshold(&g, d, r, ViewKind::Full, n)
                .expect("connected instances tolerate t = 0");
            assert_eq!(measured, expected, "trial {trial}: {g:?}");
        }
    }

    #[test]
    fn known_families() {
        // Cycle: κ = 2 → t = 0.
        let g = generators::cycle(6);
        assert_eq!(
            max_tolerable_threshold(&g, 0.into(), 3.into(), ViewKind::Full, 6),
            Some(0)
        );
        // Hypercube Q3 between antipodes: κ = 3 → t = 1.
        let g = generators::hypercube(3);
        assert_eq!(
            max_tolerable_threshold(&g, 0.into(), 7.into(), ViewKind::Full, 8),
            Some(1)
        );
        // K_{3,3} across the partition… adjacent; within one side: κ = 3 → t = 1.
        let g = generators::complete_bipartite(3, 3);
        assert_eq!(
            max_tolerable_threshold(&g, 0.into(), 1.into(), ViewKind::Full, 6),
            Some(1)
        );
    }

    #[test]
    fn less_knowledge_never_tolerates_more() {
        let mut rng = generators::seeded(2102);
        for trial in 0..15 {
            let n = 6 + trial % 3;
            let g = generators::gnp_connected(n, 0.5, &mut rng);
            let d = NodeId::new(0);
            let r = NodeId::new(n as u32 - 1);
            if g.has_edge(d, r) {
                continue;
            }
            let adhoc = max_tolerable_threshold(&g, d, r, ViewKind::AdHoc, n);
            let full = max_tolerable_threshold(&g, d, r, ViewKind::Full, n);
            assert!(
                adhoc <= full,
                "trial {trial}: adhoc {adhoc:?} vs full {full:?}"
            );
        }
    }

    #[test]
    fn disconnected_endpoints_tolerate_nothing() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        assert_eq!(
            max_tolerable_threshold(&g, 0.into(), 4.into(), ViewKind::Full, 3),
            None
        );
        assert_eq!(dolev_bound(&g, 0.into(), 4.into()), None);
    }
}
