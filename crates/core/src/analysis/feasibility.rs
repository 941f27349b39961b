//! Feasibility characterization and minimal-knowledge analysis.
//!
//! * [`characterize`] — the ground truth for an instance: RMT-cut witness
//!   (partial knowledge characterization, Theorems 3+5) and, for ad hoc
//!   reasoning, the 𝒵-pp cut witness (Theorems 7+8).
//! * [`minimal_knowledge_radius`] — the paper's "RMT under minimal
//!   knowledge" observation made executable: the smallest radius-k view
//!   assignment under which the instance becomes solvable.
//! * [`solvable_receivers`] — the network-design by-product: the exact set
//!   of receivers the dealer can reach reliably.

use rmt_adversary::AdversaryStructure;
use rmt_graph::{Graph, ViewKind};
use rmt_sets::{NodeId, NodeSet};

use crate::cuts::{find_rmt_cut, zpp_cut_by_fixpoint, RmtCutWitness, ZppCutWitness};
use crate::instance::Instance;

/// The ground-truth characterization of one instance.
#[derive(Clone, Debug)]
pub struct Characterization {
    /// RMT-cut witness, if one exists (partial knowledge model).
    pub rmt_cut: Option<RmtCutWitness>,
    /// 𝒵-pp cut witness, if one exists (ad hoc reasoning; present for every
    /// instance but only *characterizing* under ad hoc views).
    pub zpp_cut: Option<ZppCutWitness>,
}

impl Characterization {
    /// Whether safe resilient RMT is possible (no RMT-cut, Theorems 3+5).
    pub fn solvable(&self) -> bool {
        self.rmt_cut.is_none()
    }

    /// Whether Z-CPA solves the instance (no 𝒵-pp cut, Theorems 7+8).
    pub fn zcpa_solvable(&self) -> bool {
        self.zpp_cut.is_none()
    }
}

/// Computes both cut characterizations for an instance.
///
/// Exhaustive in the RMT-cut part — intended for instances with `n ≲ 16`.
///
/// # Example
///
/// ```
/// use rmt_core::{analysis, gallery};
/// use rmt_graph::ViewKind;
///
/// // The staggered theta at radius 2: solvable for RMT-PKA, while its ad
/// // hoc shadow (the 𝒵-pp cut) still blocks Z-CPA-style certification.
/// let c = analysis::characterize(&gallery::staggered_theta(ViewKind::Radius(2)));
/// assert!(c.solvable());
/// assert!(!c.zcpa_solvable());
/// ```
pub fn characterize(inst: &Instance) -> Characterization {
    Characterization {
        rmt_cut: find_rmt_cut(inst, None),
        zpp_cut: zpp_cut_by_fixpoint(inst, None),
    }
}

/// The smallest radius `k ≤ max_k` such that the instance
/// `(g, z, Radius(k), d, r)` admits no RMT-cut, or `None` if even `max_k`
/// (effectively full knowledge once `k` exceeds the diameter) does not
/// suffice.
///
/// Monotonicity of knowledge (larger views shrink 𝒵_B, removing cuts) makes
/// the answer well defined: this is the minimal γ of the paper's partial
/// order restricted to the radius-uniform chain.
///
/// # Example
///
/// ```
/// use rmt_core::{analysis, gallery};
///
/// let (g, z) = gallery::staggered_theta_parts();
/// assert_eq!(
///     analysis::minimal_knowledge_radius(&g, &z, 0.into(), 9.into(), 4),
///     Some(2)
/// );
/// ```
pub fn minimal_knowledge_radius(
    g: &Graph,
    z: &AdversaryStructure,
    d: NodeId,
    r: NodeId,
    max_k: usize,
) -> Option<usize> {
    for k in 0..=max_k {
        let inst = Instance::new(g.clone(), z.clone(), ViewKind::Radius(k), d, r)
            .expect("radius views always yield valid instances");
        if find_rmt_cut(&inst, None).is_none() {
            return Some(k);
        }
    }
    None
}

/// A cheap *sufficient* condition for unsolvability, usable as a pre-filter
/// before the exhaustive RMT-cut search: a corruptible articulation point
/// between D and R is a singleton RMT-cut (`C₁ = {v} ∈ 𝒵`, `C₂ = ∅`), and a
/// corruptible D–R *pair* of structure members is the classical pair cut.
///
/// Returns `true` only when the instance is certainly unsolvable; `false`
/// is inconclusive. Soundness is tested against [`characterize`].
pub fn quick_unsolvable(inst: &Instance) -> bool {
    let (d, r) = (inst.dealer(), inst.receiver());
    if inst.graph().has_edge(d, r) {
        return false;
    }
    if !inst.endpoints_connected() {
        return true;
    }
    // Corruptible articulation point separating D from R.
    let points = rmt_graph::connectivity::articulation_points(inst.graph());
    for v in &points {
        if v != d
            && v != r
            && inst.adversary().contains(&NodeSet::singleton(v))
            && rmt_graph::cuts::is_dr_cut(inst.graph(), d, r, &NodeSet::singleton(v))
        {
            return true;
        }
    }
    // Classical pair cut (always an RMT-cut regardless of knowledge).
    crate::protocols::ppa::pair_cut_exists(inst)
}

/// The set of receivers the dealer can reach with safe resilient RMT under
/// the given view kind — the exact subnetwork usable in a design phase.
pub fn solvable_receivers(
    g: &Graph,
    z: &AdversaryStructure,
    d: NodeId,
    views: ViewKind,
) -> NodeSet {
    g.nodes()
        .iter()
        .filter(|&r| {
            r != d
                && Instance::new(g.clone(), z.clone(), views, d, r)
                    .map(|inst| find_rmt_cut(&inst, None).is_none())
                    .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::generators;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn characterization_flags_both_cuts_on_the_bad_diamond() {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        let c = characterize(&inst);
        assert!(!c.solvable());
        assert!(!c.zcpa_solvable());
    }

    #[test]
    fn knowledge_radius_finds_a_finite_threshold() {
        // 6-cycle with 𝒵 = {{1},{4}}: ad hoc solvable? The joint structure
        // of B may conflate {1} and {4} scenarios at low radius; whatever
        // the threshold is, it must be monotone and agree with the direct
        // check at each k.
        let g = generators::cycle(6);
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[4])]);
        let k = minimal_knowledge_radius(&g, &z, 0.into(), 3.into(), 6);
        match k {
            Some(k) => {
                for probe in 0..k {
                    let inst = Instance::new(
                        g.clone(),
                        z.clone(),
                        ViewKind::Radius(probe),
                        0.into(),
                        3.into(),
                    )
                    .unwrap();
                    assert!(
                        find_rmt_cut(&inst, None).is_some(),
                        "radius {probe} too small"
                    );
                }
            }
            None => {
                let inst = Instance::new(g, z, ViewKind::Full, 0.into(), 3.into()).unwrap();
                assert!(find_rmt_cut(&inst, None).is_some());
            }
        }
    }

    #[test]
    fn quick_unsolvable_is_sound() {
        // Never claims unsolvability on a solvable instance.
        let mut rng = generators::seeded(4040);
        for trial in 0..40 {
            let n = 5 + trial % 5;
            let inst = crate::sampling::random_instance(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            if quick_unsolvable(&inst) {
                assert!(!characterize(&inst).solvable(), "trial {trial}: {inst:?}");
            }
        }
    }

    #[test]
    fn quick_unsolvable_catches_the_obvious_cases() {
        // Corruptible articulation point on a path.
        let g = generators::path_graph(3);
        let z = AdversaryStructure::from_sets([set(&[1])]);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 2.into()).unwrap();
        assert!(quick_unsolvable(&inst));
        // Pair cut on the diamond.
        assert!(quick_unsolvable(&crate::gallery::unsolvable_diamond(
            ViewKind::AdHoc
        )));
        // Inconclusive on the solvable diamond.
        assert!(!quick_unsolvable(&crate::gallery::tolerant_diamond(
            ViewKind::AdHoc
        )));
    }

    #[test]
    fn solvable_receivers_on_a_robust_graph() {
        // K5 with a single corruptible node: every receiver reachable.
        let g = generators::complete(5);
        let z = AdversaryStructure::from_sets([set(&[1])]);
        let ok = solvable_receivers(&g, &z, 0.into(), ViewKind::AdHoc);
        assert_eq!(ok, set(&[1, 2, 3, 4]));
    }

    #[test]
    fn solvable_receivers_excludes_cut_off_nodes() {
        // Path 0-1-2: node 2 sits behind corruptible 1.
        let g = generators::path_graph(3);
        let z = AdversaryStructure::from_sets([set(&[1])]);
        let ok = solvable_receivers(&g, &z, 0.into(), ViewKind::AdHoc);
        assert_eq!(ok, set(&[1])); // 1 is adjacent; 2 is cut off
    }
}
