//! The RMT-cut of Definition 3.
//!
//! `C = C₁ ∪ C₂` is an **RMT-cut** for (G, 𝒵, γ, D, R) iff `C` is a D–R cut
//! (partitioning V∖C with D and R on different sides, B the connected
//! component of R), `C₁ ∈ 𝒵`, and `C₂ ∩ V(γ(B)) ∈ 𝒵_B`.
//!
//! By Theorems 3 and 5 of the paper the existence of an RMT-cut is *exactly*
//! the unsolvability of safe reliable message transmission, so these
//! deciders are the ground truth the protocol experiments are checked
//! against.
//!
//! Because membership in 𝒵 and 𝒵_B is monotone, it is WLOG to examine, for
//! each maximal `T ∈ 𝒵`, the partition `C₁ = C ∩ T`, `C₂ = C ∖ T` (any
//! admissible C₁ is contained in some maximal T, and shrinking C₂ only makes
//! its condition easier). This turns the partition search into a linear scan
//! over the antichain of 𝒵.
//!
//! The search over cuts `C` here is exhaustive over subsets of V∖{D,R} —
//! the characterization is NP-hard in general, and this decider is the
//! differential ground truth. The separator-anchored decider in
//! [`anchored`](super::anchored) skips the non-cut bulk of that lattice and
//! is the one to use beyond `n ≈ 16`.

use std::cell::OnceCell;

use rmt_adversary::AdversaryStructure;
use rmt_graph::{traversal, Graph};
use rmt_obs::{Counter, Registry};
use rmt_sets::{NodeId, NodeSet};

use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;

/// A witness that an RMT-cut exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RmtCutWitness {
    /// The whole cut C = C₁ ∪ C₂.
    pub cut: NodeSet,
    /// The admissible part (C₁ ∈ 𝒵).
    pub c1: NodeSet,
    /// The part only locally plausible to B (C₂ ∩ V(γ(B)) ∈ 𝒵_B).
    pub c2: NodeSet,
    /// R's connected component B of G ∖ C.
    pub receiver_component: NodeSet,
}

/// Checks whether `c` is an RMT-cut, returning the partition witness.
///
/// Returns `None` if `c` is not a D–R cut or no admissible partition exists.
pub fn is_rmt_cut(inst: &Instance, cache: &KnowledgeCache, c: &NodeSet) -> Option<RmtCutWitness> {
    let b = receiver_side(inst.graph(), inst.dealer(), inst.receiver(), c)?;
    admissible_partition(inst.adversary(), cache, c, &b, None)
}

/// R's component `B` of `G ∖ C`, if `C` is a D–R cut.
pub(crate) fn receiver_side(
    graph: &Graph,
    dealer: NodeId,
    receiver: NodeId,
    c: &NodeSet,
) -> Option<NodeSet> {
    if c.contains(dealer) || c.contains(receiver) {
        return None;
    }
    // Masked BFS: no per-candidate graph clone.
    let b = traversal::component_of_avoiding(graph, receiver, c);
    (!b.contains(dealer)).then_some(b)
}

/// The Definition-3 partition search for a fixed receiver component `b`:
/// the first maximal `T ∈ z` with `C₁ = C ∩ T`, `C₂ = C ∖ T` and
/// `C₂ ∩ V(γ(B)) ∈ 𝒵_B`. Shared by [`is_rmt_cut`], the exhaustive decider
/// (which derives `b` from the candidate cut) and the anchored questions
/// (which enumerate `b` directly; the adversary cover passes the trivial
/// `z`), so the condition cannot drift between them.
pub(crate) fn admissible_partition(
    z: &AdversaryStructure,
    cache: &KnowledgeCache,
    c: &NodeSet,
    b: &NodeSet,
    partition_checks: Option<&Counter>,
) -> Option<RmtCutWitness> {
    let gamma_b = cache.joint_domain(b);
    let witness = |c1: NodeSet, c2: NodeSet| RmtCutWitness {
        cut: c.clone(),
        c1,
        c2,
        receiver_component: b.clone(),
    };
    for t in z.maximal_sets() {
        let c2 = c.difference(t);
        if let Some(counter) = partition_checks {
            counter.inc();
        }
        if cache.joint_contains(b, &c2.intersection(&gamma_b)) {
            return Some(witness(c.intersection(t), c2));
        }
    }
    // The trivial structure admits C₁ = ∅ only; handled above iff the
    // antichain is non-empty. Cover the trivial case explicitly.
    if z.maximal_sets().is_empty() && cache.joint_contains(b, &c.intersection(&gamma_b)) {
        return Some(witness(NodeSet::new(), c.clone()));
    }
    None
}

/// Finds an RMT-cut by exhaustive search, preferring smaller cuts (the
/// subset enumeration visits low-order combinations first).
///
/// With `reg`, the search effort is recorded there:
///
/// * `rmt_cut.candidates_examined` — candidate sets `C` tested;
/// * `rmt_cut.partition_checks` — `(C₁, C₂)` partitions membership-tested
///   against 𝒵_B (only reached when `C` is a D–R cut);
/// * `rmt_cut.search_ns` — wall time of the whole search (histogram);
///
/// plus a `rmt_cut.search` phase span when the registry carries a profiler.
///
/// # Example
///
/// ```
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let witness = cuts::find_rmt_cut(&gallery::unsolvable_diamond(ViewKind::AdHoc), None)
///     .expect("the diamond is unsolvable");
/// assert_eq!(witness.cut.len(), 2);
/// assert!(cuts::find_rmt_cut(&gallery::tolerant_diamond(ViewKind::AdHoc), None).is_none());
/// ```
pub fn find_rmt_cut(inst: &Instance, reg: Option<&Registry>) -> Option<RmtCutWitness> {
    exhaustive_rmt_cut(inst, reg.map(|reg| (reg, &SEARCH)))
}

/// The span, timer and counter names one exhaustive search records under.
pub(crate) struct ScanNames {
    phase: &'static str,
    timer: &'static str,
    candidates: &'static str,
    checks: &'static str,
}

/// The names of [`find_rmt_cut`]'s own search.
const SEARCH: ScanNames = ScanNames {
    phase: "rmt_cut.search",
    timer: "rmt_cut.search_ns",
    candidates: "rmt_cut.candidates_examined",
    checks: "rmt_cut.partition_checks",
};

/// The names of an anchored search's budget fallback, kept apart from the
/// anchored scan's own `rmt_cut.partition_checks` so each counts one search.
pub(crate) const FALLBACK: ScanNames = ScanNames {
    phase: "rmt_cut.fallback.search",
    timer: "rmt_cut.fallback.search_ns",
    candidates: "rmt_cut.fallback.candidates_examined",
    checks: "rmt_cut.fallback.partition_checks",
};

/// The exhaustive RMT-cut search behind [`find_rmt_cut`] and (under
/// [`FALLBACK`]'s names) the anchored deciders' budget fallback. It builds
/// a cache of its own, on the first D–R cut it meets.
pub(crate) fn exhaustive_rmt_cut(
    inst: &Instance,
    observed: Option<(&Registry, &ScanNames)>,
) -> Option<RmtCutWitness> {
    let cache = OnceCell::new();
    exhaustive_search(
        inst.graph(),
        inst.dealer(),
        inst.receiver(),
        observed,
        |c, b, checks| {
            let cache = cache.get_or_init(|| KnowledgeCache::new(inst));
            admissible_partition(inst.adversary(), cache, c, b, checks)
        },
    )
}

/// The one subset scan of the exhaustive cut searches: the subsets of
/// `V ∖ {D, R}` in order, each D–R cut `C` handed with its receiver
/// component `B` to `admissible` until that yields a witness. Serves the
/// exhaustive RMT-cut and 𝒵-pp deciders, and through them and the
/// receiver's adversary cover every anchored fallback
/// ([`anchored`](super::anchored)).
pub(crate) fn exhaustive_search<W>(
    graph: &Graph,
    dealer: NodeId,
    receiver: NodeId,
    observed: Option<(&Registry, &ScanNames)>,
    admissible: impl Fn(&NodeSet, &NodeSet, Option<&Counter>) -> Option<W>,
) -> Option<W> {
    let _phase = observed.and_then(|(reg, names)| reg.phase(names.phase));
    let _timer = observed.map(|(reg, names)| reg.timer(names.timer));
    let candidates_examined = observed.map(|(reg, names)| reg.counter(names.candidates));
    let partition_checks = observed.map(|(reg, names)| reg.counter(names.checks));
    // If D and R are adjacent no node cut exists at all.
    if graph.has_edge(dealer, receiver) {
        return None;
    }
    let mut candidates = graph.nodes().clone();
    candidates.remove(dealer);
    candidates.remove(receiver);
    candidates.subsets().find_map(|c| {
        if let Some(examined) = &candidates_examined {
            examined.inc();
        }
        let b = receiver_side(graph, dealer, receiver, &c)?;
        admissible(&c, &b, partition_checks.as_ref())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    /// Diamond: D=0, two parallel relays 1,2, R=3.
    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn one_corruptible_relay_is_not_an_rmt_cut() {
        // 𝒵 = {{1}}: only relay 1 can fall. {1} alone is not a cut; {1,2}
        // needs C₂ = {2} admissible for B = {3}, whose view sees 2 — and
        // {2} ∉ 𝒵_R. So no RMT-cut: RMT is solvable.
        let z = AdversaryStructure::from_sets([set(&[1])]);
        let inst = Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut(&inst, None).is_none());
    }

    #[test]
    fn two_corruptible_relays_give_an_rmt_cut() {
        // 𝒵 = {{1},{2}}: either relay can fall. C = {1,2}, C₁ = {1} ∈ 𝒵,
        // C₂ = {2}: R's local trace of 𝒵 contains {2}, so C₂ ∩ V(γ(B)) ∈ 𝒵_B.
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        let w = find_rmt_cut(&inst, None).expect("RMT-cut must exist");
        assert_eq!(w.cut, set(&[1, 2]));
        assert_eq!(w.receiver_component, set(&[3]));
        assert!(inst.adversary().contains(&w.c1));
    }

    #[test]
    fn full_knowledge_can_remove_the_cut() {
        // Same structure, but full topology knowledge: B = {3} now knows the
        // whole graph and the whole 𝒵, so 𝒵_B = 𝒵^{V}. C₂ = {2} with
        // C₁ = {1}: {2} ∈ 𝒵 — still a cut! Knowledge does not help here
        // because 𝒵 itself admits each relay.
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = Instance::new(diamond(), z, ViewKind::Full, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut(&inst, None).is_some());

        // But when 𝒵's sets span *both* sides of a cheating scenario that
        // only limited views would conflate, knowledge matters: on the
        // 6-cycle with 𝒵 = {{1},{4}} and D=0, R=3, the ad hoc B = {2,3,4}…
        let g = generators::cycle(6);
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[4])]);
        let adhoc =
            Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        let full = Instance::new(g, z, ViewKind::Full, 0.into(), 3.into()).unwrap();
        // Full knowledge: C = {1,4}, C₁ = {1}, C₂ = {4} ∈ 𝒵 ⊆ 𝒵_B: cut for
        // both. (Solvability here genuinely requires 2-connectivity beyond
        // 𝒵; this documents that the notions agree where they must.)
        assert_eq!(
            find_rmt_cut(&adhoc, None).is_some(),
            find_rmt_cut(&full, None).is_some()
        );
    }

    #[test]
    fn adjacent_endpoints_never_have_a_cut() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut(&inst, None).is_none());
    }

    #[test]
    fn trivial_structure_on_2_connected_graph_has_no_cut() {
        let g = generators::cycle(5);
        let inst = Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            2.into(),
        )
        .unwrap();
        assert!(find_rmt_cut(&inst, None).is_none());
    }

    #[test]
    fn observed_search_matches_and_counts() {
        let reg = rmt_obs::Registry::new();
        for z in [
            AdversaryStructure::from_sets([set(&[1])]),
            AdversaryStructure::from_sets([set(&[1]), set(&[2])]),
        ] {
            let inst = Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
            assert_eq!(find_rmt_cut(&inst, None), find_rmt_cut(&inst, Some(&reg)));
        }
        assert!(reg.counter("rmt_cut.candidates_examined").get() > 0);
        assert!(reg.counter("rmt_cut.partition_checks").get() > 0);
        assert_eq!(reg.histogram("rmt_cut.search_ns").count(), 2);
    }

    #[test]
    fn disconnected_endpoints_have_the_empty_rmt_cut() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            4.into(),
        )
        .unwrap();
        let w = find_rmt_cut(&inst, None).expect("empty cut separates");
        assert!(w.cut.is_empty());
    }
}
