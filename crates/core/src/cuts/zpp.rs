//! The RMT 𝒵-pp cut of Definition 7 and the Z-CPA fixpoint.
//!
//! `C` is an **RMT 𝒵-pp cut** iff it is a D–R cut admitting a partition
//! `C = C₁ ∪ C₂` with `C₁ ∈ 𝒵` and `𝒩(u) ∩ C₂ ∈ 𝒵_u` for every `u` in the
//! receiver-side part `B`. As with the RMT-cut, the partition search
//! reduces WLOG to `C₁ = C ∩ T` over maximal `T ∈ 𝒵`.
//!
//! Two deciders are provided and property-tested against each other:
//!
//! * [`zpp_cut_by_enumeration`] — exhaustive over cuts (exact, exponential);
//! * [`zpp_cut_by_fixpoint`] — polynomial in `n·|𝒵|`, built on the
//!   observation from the proofs of Theorems 7/8 that a 𝒵-pp cut exists iff
//!   the worst-case Z-CPA *decided-set fixpoint* fails to reach R for some
//!   maximal corruption set: against corruption `T`, the honest decided set
//!   is the least fixpoint of
//!   `decided ← decided ∪ { honest u | 𝒩(u) ∩ decided ∉ 𝒵_u }`
//!   seeded with D's honest neighbours, and a failing `T` yields the witness
//!   `C₁ = T`, `C₂ = decided`.
//!
//! Both only ask whether one set is in some 𝒵_u, never for 𝒵_u itself, so
//! they test membership with [`Instance::local_contains`] (`S ⊆ V(γ(u))`
//! and `S ∈ 𝒵`) instead of restricting all of 𝒵 to `u`'s view per check.

use rmt_obs::{Counter, Registry};
use rmt_sets::NodeSet;

use crate::instance::Instance;

use super::rmt_cut::{exhaustive_search, receiver_side};

/// A witness that an RMT 𝒵-pp cut exists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZppCutWitness {
    /// The whole cut C = C₁ ∪ C₂.
    pub cut: NodeSet,
    /// The admissible part (C₁ ∈ 𝒵).
    pub c1: NodeSet,
    /// The locally-plausible part (∀u ∈ B: 𝒩(u) ∩ C₂ ∈ 𝒵_u).
    pub c2: NodeSet,
}

/// Checks whether `c` is an RMT 𝒵-pp cut, returning the partition.
pub fn is_zpp_cut(inst: &Instance, c: &NodeSet) -> Option<ZppCutWitness> {
    let b = receiver_side(inst.graph(), inst.dealer(), inst.receiver(), c)?;
    zpp_admissible_partition(inst, c, &b, None)
}

/// The Definition-7 partition search for a fixed far-side node set `b`: the
/// first maximal `T ∈ 𝒵` with `C₁ = C ∩ T`, `C₂ = C ∖ T` and
/// `𝒩(u) ∩ C₂ ∈ 𝒵_u` for every `u ∈ b`. Shared by [`is_zpp_cut`], the
/// anchored decider (which enumerates `b` directly) and the broadcast
/// decider (where `b` ranges over all far components), so the condition
/// cannot drift between them.
pub(crate) fn zpp_admissible_partition(
    inst: &Instance,
    c: &NodeSet,
    b: &NodeSet,
    plausibility_checks: Option<&Counter>,
) -> Option<ZppCutWitness> {
    let locally_plausible = |c2: &NodeSet| {
        b.iter().all(|u| {
            let trace = inst.graph().neighbors(u).intersection(c2);
            inst.local_contains(u, &trace)
        })
    };
    let witness = |c1: NodeSet, c2: NodeSet| ZppCutWitness {
        cut: c.clone(),
        c1,
        c2,
    };
    for t in inst.adversary().maximal_sets() {
        if let Some(counter) = plausibility_checks {
            counter.inc();
        }
        let c2 = c.difference(t);
        if locally_plausible(&c2) {
            return Some(witness(c.intersection(t), c2));
        }
    }
    if inst.adversary().maximal_sets().is_empty() {
        if let Some(counter) = plausibility_checks {
            counter.inc();
        }
        if locally_plausible(c) {
            return Some(witness(NodeSet::new(), c.clone()));
        }
    }
    None
}

/// Exhaustive 𝒵-pp-cut search over all subsets of V∖{D,R}, by the one
/// subset scan of the exhaustive cut searches.
pub fn zpp_cut_by_enumeration(inst: &Instance) -> Option<ZppCutWitness> {
    let (g, d, r) = (inst.graph(), inst.dealer(), inst.receiver());
    exhaustive_search(g, d, r, None, |c, b, _| {
        zpp_admissible_partition(inst, c, b, None)
    })
}

/// The worst-case Z-CPA decided set against corruption set `corrupted`:
/// the least fixpoint of the certified-propagation rule assuming corrupted
/// nodes never help.
///
/// A node decides iff it is an honest neighbour of the dealer, or the set of
/// its already-decided *relaying* neighbours is **not** in its local
/// structure 𝒵_v — then at least one of them is honest in every admissible
/// scenario, certifying the value. In the RMT protocol the receiver outputs
/// instead of relaying, so it never certifies others (this matters only for
/// nodes downstream of R: R's own status is unaffected, because any node
/// that would need R's relay decides strictly after R).
pub fn zcpa_fixpoint(inst: &Instance, corrupted: &NodeSet) -> NodeSet {
    certified_fixpoint(inst, corrupted, Some(inst.receiver()), None)
}

/// [`zcpa_fixpoint`] with the fixpoint effort recorded in `reg`:
///
/// * `zcpa.sweeps` — full passes over the node set until stabilization;
/// * `zcpa.certification_checks` — membership tests of a certifier set
///   against a local structure 𝒵_u.
pub fn zcpa_fixpoint_observed(inst: &Instance, corrupted: &NodeSet, reg: &Registry) -> NodeSet {
    let _phase = reg.phase("zcpa.fixpoint");
    let stats = FixpointStats {
        sweeps: reg.counter("zcpa.sweeps"),
        certification_checks: reg.counter("zcpa.certification_checks"),
    };
    certified_fixpoint(inst, corrupted, Some(inst.receiver()), Some(&stats))
}

/// The broadcast variant of [`zcpa_fixpoint`]: no distinguished receiver,
/// every decided node relays (used by [`broadcast`](crate::broadcast)).
pub fn zcpa_fixpoint_broadcast(inst: &Instance, corrupted: &NodeSet) -> NodeSet {
    certified_fixpoint(inst, corrupted, None, None)
}

struct FixpointStats {
    sweeps: Counter,
    certification_checks: Counter,
}

fn certified_fixpoint(
    inst: &Instance,
    corrupted: &NodeSet,
    non_relaying: Option<rmt_sets::NodeId>,
    stats: Option<&FixpointStats>,
) -> NodeSet {
    let g = inst.graph();
    let d = inst.dealer();
    let mut decided: NodeSet = g.neighbors(d).difference(corrupted).iter().collect();
    let mut changed = true;
    while changed {
        changed = false;
        if let Some(s) = stats {
            s.sweeps.inc();
        }
        for u in g.nodes() {
            if u == d || decided.contains(u) || corrupted.contains(u) {
                continue;
            }
            let mut certifiers = g.neighbors(u).intersection(&decided);
            if let Some(r) = non_relaying {
                certifiers.remove(r);
            }
            if let Some(s) = stats {
                s.certification_checks.inc();
            }
            if !inst.local_contains(u, &certifiers) {
                decided.insert(u);
                changed = true;
            }
        }
    }
    decided
}

/// Polynomial 𝒵-pp-cut decider via the Z-CPA fixpoint (Theorems 7+8).
///
/// Returns a witness built from the first failing maximal corruption set:
/// `C₁ = T`, `C₂ = ` the decided honest nodes (they separate D from the
/// undecided region, and every undecided `u` has `𝒩(u) ∩ C₂ ∈ 𝒵_u` by
/// the fixpoint's stopping condition).
pub fn zpp_cut_by_fixpoint(inst: &Instance) -> Option<ZppCutWitness> {
    fixpoint_search(inst, None)
}

/// [`zpp_cut_by_fixpoint`] with decision effort recorded in `reg`:
/// everything [`zcpa_fixpoint_observed`] records, plus
///
/// * `zpp.corruption_sets_checked` — maximal corruption sets tried;
/// * `zpp.decide_ns` — wall time of the whole decision (histogram);
///
/// plus a `zpp.decide` phase span (with one `zcpa.fixpoint` child per
/// corruption set tried) when the registry carries a profiler.
pub fn zpp_cut_by_fixpoint_observed(inst: &Instance, reg: &Registry) -> Option<ZppCutWitness> {
    fixpoint_search(inst, Some(reg))
}

/// The fixpoint search behind [`zpp_cut_by_fixpoint`] and
/// [`zpp_cut_by_fixpoint_observed`]: the worst-case corruption sets in list
/// order, until one keeps R undecided.
fn fixpoint_search(inst: &Instance, reg: Option<&Registry>) -> Option<ZppCutWitness> {
    let _phase = reg.and_then(|reg| reg.phase("zpp.decide"));
    let _timer = reg.map(|reg| reg.timer("zpp.decide_ns"));
    let (d, r) = (inst.dealer(), inst.receiver());
    if inst.graph().has_edge(d, r) {
        return None;
    }
    if !inst.endpoints_connected() {
        // The empty set separates; it is vacuously a 𝒵-pp cut.
        return Some(ZppCutWitness {
            cut: NodeSet::new(),
            c1: NodeSet::new(),
            c2: NodeSet::new(),
        });
    }
    let sets_checked = reg.map(|reg| reg.counter("zpp.corruption_sets_checked"));
    for t in inst.worst_case_corruptions() {
        if let Some(checked) = &sets_checked {
            checked.inc();
        }
        let decided = match reg {
            Some(reg) => zcpa_fixpoint_observed(inst, &t, reg),
            None => zcpa_fixpoint(inst, &t),
        };
        if !decided.contains(r) {
            return Some(witness_from_failed_corruption(inst, &t, &decided));
        }
    }
    None
}

/// The 𝒵-pp-cut witness a failing corruption set yields: `C₁ = T`,
/// `C₂ = ` the decided honest nodes.
fn witness_from_failed_corruption(
    inst: &Instance,
    t: &NodeSet,
    decided: &NodeSet,
) -> ZppCutWitness {
    // Only the part of T that actually matters for separation needs
    // to be in the cut; T itself is admissible and sufficient.
    let mut cut = t.union(decided);
    cut.remove(inst.dealer());
    cut.remove(inst.receiver());
    ZppCutWitness {
        cut: cut.clone(),
        c1: t.clone(),
        c2: cut.difference(t),
    }
}

/// `true` iff the instance admits an RMT 𝒵-pp cut — i.e. (Theorems 7+8) iff
/// no safe RMT algorithm exists for the ad hoc instance.
///
/// Uses the polynomial fixpoint decider.
pub fn zpp_cut_exists(inst: &Instance) -> bool {
    zpp_cut_by_fixpoint(inst).is_some()
}

/// `true` iff Z-CPA certifies the receiver against **every** admissible
/// corruption (worst-case behaviour): the protocol-level notion of
/// resilience, computed analytically.
///
/// # Example
///
/// ```
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// assert!(cuts::zcpa_resilient(&gallery::tolerant_diamond(ViewKind::AdHoc)));
/// // The staggered theta is the gap witness: even Z-CPA cannot solve it
/// // ad hoc, although RMT-PKA solves it with radius-2 views.
/// assert!(!cuts::zcpa_resilient(&gallery::staggered_theta(ViewKind::AdHoc)));
/// ```
pub fn zcpa_resilient(inst: &Instance) -> bool {
    let r = inst.receiver();
    if inst.graph().has_edge(inst.dealer(), r) {
        return true;
    }
    inst.worst_case_corruptions()
        .iter()
        .all(|t| zcpa_fixpoint(inst, t).contains(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};

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

    fn adhoc(g: Graph, z: AdversaryStructure, d: u32, r: u32) -> Instance {
        Instance::new(g, z, ViewKind::AdHoc, d.into(), r.into()).unwrap()
    }

    #[test]
    fn diamond_with_one_fallible_relay_is_solvable() {
        let inst = adhoc(diamond(), AdversaryStructure::from_sets([set(&[1])]), 0, 3);
        assert!(zpp_cut_by_enumeration(&inst).is_none());
        assert!(zpp_cut_by_fixpoint(&inst).is_none());
        assert!(zcpa_resilient(&inst));
    }

    #[test]
    fn diamond_with_either_relay_fallible_is_unsolvable() {
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = adhoc(diamond(), z, 0, 3);
        let w = zpp_cut_by_enumeration(&inst).expect("cut exists");
        assert!(inst.adversary().contains(&w.c1));
        assert!(zpp_cut_by_fixpoint(&inst).is_some());
        assert!(!zcpa_resilient(&inst));
    }

    #[test]
    fn fixpoint_decided_set_grows_from_dealer() {
        let inst = adhoc(diamond(), AdversaryStructure::from_sets([set(&[1])]), 0, 3);
        let decided = zcpa_fixpoint(&inst, &set(&[1]));
        // Honest dealer neighbours decide; R certifies via {2} ∉ 𝒵_R.
        assert!(decided.contains(2.into()));
        assert!(decided.contains(3.into()));
        assert!(!decided.contains(1.into()));
    }

    #[test]
    fn fixpoint_witness_is_a_real_zpp_cut() {
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = adhoc(diamond(), z, 0, 3);
        let w = zpp_cut_by_fixpoint(&inst).unwrap();
        let confirmed = is_zpp_cut(&inst, &w.cut).expect("witness must verify");
        assert_eq!(confirmed.cut, w.cut);
    }

    #[test]
    fn deciders_agree_on_random_instances() {
        let mut rng = generators::seeded(2024);
        for trial in 0..60 {
            let n = 5 + (trial % 4);
            let g = generators::gnp_connected(n, 0.35, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 3, 2, &mut rng);
            let inst = adhoc(g, z, 0, (n as u32) - 1);
            let enumerated = zpp_cut_by_enumeration(&inst).is_some();
            let fixpoint = zpp_cut_by_fixpoint(&inst).is_some();
            assert_eq!(enumerated, fixpoint, "trial {trial}: {inst:?}");
            assert_eq!(fixpoint, !zcpa_resilient(&inst), "trial {trial}");
        }
    }

    #[test]
    fn observed_deciders_match_and_count() {
        let reg = rmt_obs::Registry::new();
        let mut rng = generators::seeded(7);
        for trial in 0..20 {
            let n = 5 + (trial % 3);
            let g = generators::gnp_connected(n, 0.4, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 3, 2, &mut rng);
            let inst = adhoc(g, z, 0, (n as u32) - 1);
            assert_eq!(
                zpp_cut_by_fixpoint(&inst),
                zpp_cut_by_fixpoint_observed(&inst, &reg),
                "trial {trial}"
            );
            for t in inst.worst_case_corruptions() {
                assert_eq!(
                    zcpa_fixpoint(&inst, &t),
                    zcpa_fixpoint_observed(&inst, &t, &reg)
                );
            }
        }
        assert!(reg.counter("zcpa.sweeps").get() > 0);
        assert!(reg.counter("zcpa.certification_checks").get() > 0);
        assert!(reg.counter("zpp.corruption_sets_checked").get() > 0);
        assert_eq!(reg.histogram("zpp.decide_ns").count(), 20);
    }

    #[test]
    fn dealer_adjacent_receiver_is_always_solvable() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = adhoc(g, z, 0, 3);
        assert!(zpp_cut_by_fixpoint(&inst).is_none());
        assert!(zcpa_resilient(&inst));
    }
}
