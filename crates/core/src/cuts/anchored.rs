//! Separator-anchored cut search: the fast exact deciders.
//!
//! The exhaustive deciders scan all `2^(n-2)` subsets of `V∖{D,R}` even
//! though almost none of them are D–R cuts. This module searches the same
//! space through its *structure* instead:
//!
//! 1. **Only receiver components matter.** Both cut conditions
//!    (Definitions 3 and 7) are monotone in the cut for a fixed receiver
//!    component `B`: if any cut `C` with `comp_R(G∖C) = B` admits a
//!    partition, then so does the minimal one, `C = N(B)` (shrinking `C`
//!    shrinks every trace tested against the downward-closed structures).
//!    A cut therefore exists **iff** some valid component
//!    `B ∋ R` (connected, `D ∉ N[B]`) makes `N(B)` admissible.
//! 2. **Separator anchors partition the components.** Every valid `B` is
//!    charged to exactly one minimal D–R separator — the D-side
//!    minimalization `S*(B) = N(comp_D(G ∖ N(B))) ⊆ N(B)` — so scanning,
//!    per anchor `S` from [`rmt_graph::separators`], the connected subsets
//!    of `S`'s receiver-side region whose neighbourhood contains `S`
//!    visits every candidate exactly once, with no cross-anchor
//!    deduplication ([`rmt_graph::separators::scan_anchor`]).
//! 3. **Anchors are scanned as they are generated.** The separator BFS
//!    ([`rmt_graph::separators::for_each_minimal_separator`]) hands each
//!    anchor to the scan as soon as it exists and stops at the first
//!    witness, so the separators after it are never generated. Each
//!    partition check is the [`KnowledgeCache`]'s cylinder test over the
//!    per-node parts.
//!
//! The searches are **budgeted** by [`AnchorBudget`]: generating more than
//! `max_separators` separators, or a per-anchor component scan past
//! `max_components_per_anchor`, sends the decider to the exhaustive scan —
//! so the verdict is exact in every case, and the exhaustive deciders
//! remain the differential ground truth (see
//! `crates/core/tests/anchored_differential.rs`).
//!
//! One private search, `anchored_search`, runs three questions — the
//! RMT-cut, the 𝒵-pp cut and the RMT-PKA receiver's adversary cover
//! (Definition 6: an RMT-cut with `C₁ = ∅` of `G_M`, tested against the
//! *claimed* views and structures) — for every entry point: plain,
//! `_observed`, the [`IncrementalEngine`](crate::engine::IncrementalEngine)
//! (which also carries a budget of its own) and the receiver's decision.
//! It scans the anchors on the calling thread in the order the separator
//! BFS generates them, until one yields a witness or a budget overflows,
//! and then applies the exhaustive fallback. Every
//! fallback runs the one subset scan of [`rmt_cut`](super::rmt_cut); the
//! cover's runs only up to 22 cut candidates, past which the receiver
//! abstains.
//!
//! Witnesses may differ from the exhaustive deciders' (the search order
//! differs), but they are always genuine: every returned witness verifies
//! via [`is_rmt_cut`](super::is_rmt_cut) / [`is_zpp_cut`](super::is_zpp_cut).

use std::cell::{Cell, OnceCell};
use std::ops::ControlFlow;

use rmt_adversary::AdversaryStructure;
use rmt_graph::separators::{for_each_minimal_separator, scan_anchor, AnchorScan, CutAnchor};
use rmt_graph::Graph;
use rmt_obs::{Counter, Registry};
use rmt_sets::{NodeId, NodeSet};

use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;

use super::rmt_cut::{
    admissible_partition, exhaustive_rmt_cut, exhaustive_search, RmtCutWitness, FALLBACK,
};
use super::zpp::{zpp_admissible_partition, zpp_cut_by_enumeration, ZppCutWitness};

/// Budgets bounding the anchored search. Exceeding either one triggers the
/// exact exhaustive fallback (counted as `*.exhaustive_fallbacks`), so the
/// budgets trade speed, never correctness.
///
/// Anchors are scanned as they are generated, so `max_separators` bounds
/// the separators *generated*, not the separators that exist: a witness
/// found at one of the first `max_separators` anchors is returned even if
/// more separators exist, and generating separator `max_separators + 1`
/// falls back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnchorBudget {
    /// Maximum number of minimal D–R separators to generate (and scan).
    pub max_separators: usize,
    /// Maximum connected subsets emitted per anchor scan.
    pub max_components_per_anchor: u64,
}

impl Default for AnchorBudget {
    fn default() -> Self {
        AnchorBudget {
            max_separators: 4096,
            max_components_per_anchor: 1 << 20,
        }
    }
}

/// Why the anchored scan stopped before its anchors ran out.
enum AnchorOutcome<W> {
    /// A witness was found at the current anchor.
    Witness(W),
    /// The current anchor's component budget ran out.
    Overflow,
}

/// The span, timer and counter names one question records under.
struct Names {
    span: &'static str,
    timer: &'static str,
    scan_span: &'static str,
    separators: &'static str,
    components: &'static str,
    checks: &'static str,
    fallbacks: &'static str,
}

/// What the anchored search needs from one of its questions.
trait Question {
    type Witness;
    const NAMES: Names;
    /// The graph searched, with its dealer and receiver.
    fn graph(&self) -> (&Graph, NodeId, NodeId);
    /// The witness if `cut = N(b)` admits a partition for receiver
    /// component `b`.
    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<Self::Witness>;
    /// The exhaustive decider a budget overflow falls back to.
    fn exhaustive(&self, reg: Option<&Registry>) -> Option<Self::Witness>;
}

/// "Is there an RMT-cut?" (Definition 3).
struct Rmt<'a> {
    inst: &'a Instance,
    /// The caller's cache; without one, `fresh` is built on first use, so a
    /// search that ends at the D–R adjacency check builds none.
    shared: Option<&'a KnowledgeCache>,
    fresh: OnceCell<KnowledgeCache>,
}

impl Rmt<'_> {
    fn cache(&self) -> &KnowledgeCache {
        self.shared
            .unwrap_or_else(|| self.fresh.get_or_init(|| KnowledgeCache::new(self.inst)))
    }
}

impl Question for Rmt<'_> {
    type Witness = RmtCutWitness;
    const NAMES: Names = Names {
        span: "rmt_cut.anchored",
        timer: "rmt_cut.anchored_ns",
        scan_span: "rmt_cut.anchored.scan",
        separators: "rmt_cut.separators_enumerated",
        components: "rmt_cut.components_enumerated",
        checks: "rmt_cut.partition_checks",
        fallbacks: "rmt_cut.exhaustive_fallbacks",
    };

    fn graph(&self) -> (&Graph, NodeId, NodeId) {
        (self.inst.graph(), self.inst.dealer(), self.inst.receiver())
    }

    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<RmtCutWitness> {
        admissible_partition(self.inst.adversary(), self.cache(), cut, b, checks)
    }

    /// The exhaustive scan records under the `rmt_cut.fallback.*` names.
    fn exhaustive(&self, reg: Option<&Registry>) -> Option<RmtCutWitness> {
        exhaustive_rmt_cut(self.inst, reg.map(|reg| (reg, &FALLBACK)))
    }
}

/// "Is there a 𝒵-pp cut?" (Definition 7).
struct Zpp<'a> {
    inst: &'a Instance,
}

impl Question for Zpp<'_> {
    type Witness = ZppCutWitness;
    const NAMES: Names = Names {
        span: "zpp.anchored",
        timer: "zpp.anchored_ns",
        scan_span: "zpp.anchored.scan",
        separators: "zpp.separators_enumerated",
        components: "zpp.components_enumerated",
        checks: "zpp.plausibility_checks",
        fallbacks: "zpp.exhaustive_fallbacks",
    };

    fn graph(&self) -> (&Graph, NodeId, NodeId) {
        (self.inst.graph(), self.inst.dealer(), self.inst.receiver())
    }

    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<ZppCutWitness> {
        zpp_admissible_partition(self.inst, cut, b, checks)
    }

    /// The exhaustive 𝒵-pp enumeration records nothing, observed or not.
    fn exhaustive(&self, _reg: Option<&Registry>) -> Option<ZppCutWitness> {
        zpp_cut_by_enumeration(self.inst)
    }
}

/// The most cut candidates `|V(G_M)| − 2` the adversary cover's exhaustive
/// fallback scans (`2^22` subsets); past it the receiver abstains.
const MAX_COVER_CANDIDATES: usize = 22;

/// "Is there an adversary cover?" (Definition 6): Definition 3's RMT-cut
/// with `C₁ = ∅`, asked of the receiver's `G_M` with the claimed views and
/// structures of its nodes in `cache`.
struct Cover<'a> {
    graph: &'a Graph,
    dealer: NodeId,
    receiver: NodeId,
    cache: &'a KnowledgeCache,
    /// Set when a budget overflow met more than [`MAX_COVER_CANDIDATES`]
    /// candidates, so no search answered.
    gated: Cell<bool>,
}

impl Question for Cover<'_> {
    type Witness = RmtCutWitness;
    const NAMES: Names = Names {
        span: "pka.cover",
        timer: "pka.cover_ns",
        scan_span: "pka.cover.scan",
        separators: "pka.cover.separators_enumerated",
        components: "pka.cover.components_enumerated",
        checks: "pka.cover.trace_checks",
        fallbacks: "pka.cover.exhaustive_fallbacks",
    };

    fn graph(&self) -> (&Graph, NodeId, NodeId) {
        (self.graph, self.dealer, self.receiver)
    }

    /// Definition 3's partition search under the trivial global structure,
    /// which leaves `C₁ = ∅`: `C ∩ V(γ(B)) ∈ 𝒵_B` over the claimed
    /// structures.
    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<RmtCutWitness> {
        if let Some(checks) = checks {
            checks.inc();
        }
        admissible_partition(&AdversaryStructure::trivial(), self.cache, cut, b, None)
    }

    /// The subset scan, behind the candidate gate; it records nothing.
    fn exhaustive(&self, _reg: Option<&Registry>) -> Option<RmtCutWitness> {
        if self.graph.nodes().len() > MAX_COVER_CANDIDATES + 2 {
            self.gated.set(true);
            return None;
        }
        exhaustive_search(self.graph, self.dealer, self.receiver, None, |c, b, _| {
            self.admissible(c, b, None)
        })
    }
}

/// The anchored search behind every entry point of this module, the
/// incremental engine and the receiver's cover: each anchor scanned as the
/// separator BFS generates it, until one yields a witness or a budget
/// overflows.
fn anchored_search<Q: Question>(
    q: &Q,
    budget: &AnchorBudget,
    reg: Option<&Registry>,
) -> Option<Q::Witness> {
    let names = &Q::NAMES;
    let _span = reg.and_then(|reg| reg.phase(names.span));
    let _timer = reg.map(|reg| reg.timer(names.timer));
    let (graph, dealer, receiver) = q.graph();
    if graph.has_edge(dealer, receiver) {
        return None;
    }
    let counters = reg.map(|reg| {
        [names.separators, names.components, names.checks].map(|name| reg.counter(name))
    });
    let outcome = {
        let _scan = reg.and_then(|reg| reg.phase(names.scan_span));
        for_each_minimal_separator(graph, dealer, receiver, budget.max_separators, |s| {
            let anchor = CutAnchor::new(graph, receiver, s.clone());
            let mut found = None;
            let stats = scan_anchor(
                graph,
                &anchor,
                receiver,
                budget.max_components_per_anchor,
                |b, cut| {
                    found = q.admissible(cut, b, counters.as_ref().map(|[_, _, checks]| checks));
                    found.is_none()
                },
            );
            if let Some([separators, components, _]) = &counters {
                separators.inc();
                components.add(stats.emitted);
            }
            match stats.outcome {
                AnchorScan::Exhausted => ControlFlow::Continue(()),
                AnchorScan::Stopped => ControlFlow::Break(AnchorOutcome::Witness(
                    found.expect("a scan stops only at a witness"),
                )),
                AnchorScan::BudgetExceeded => ControlFlow::Break(AnchorOutcome::Overflow),
            }
        })
    };
    match outcome {
        Ok(None) => None,
        Ok(Some(AnchorOutcome::Witness(witness))) => Some(witness),
        Ok(Some(AnchorOutcome::Overflow)) | Err(_) => {
            if let Some(reg) = reg {
                reg.counter(names.fallbacks).inc();
            }
            q.exhaustive(reg)
        }
    }
}

/// The anchored RMT-cut search over `cache`, or over a cache built for this
/// call once the search gets past the D–R adjacency check.
pub(crate) fn rmt_search(
    inst: &Instance,
    cache: Option<&KnowledgeCache>,
    budget: &AnchorBudget,
    reg: Option<&Registry>,
) -> Option<RmtCutWitness> {
    let q = Rmt {
        inst,
        shared: cache,
        fresh: OnceCell::new(),
    };
    anchored_search(&q, budget, reg)
}

/// The anchored 𝒵-pp-cut search.
pub(crate) fn zpp_search(
    inst: &Instance,
    budget: &AnchorBudget,
    reg: Option<&Registry>,
) -> Option<ZppCutWitness> {
    anchored_search(&Zpp { inst }, budget, reg)
}

/// The receiver's adversary-cover search (Definition 6) on `G_M`, whose
/// nodes' claimed knowledge `cache` holds, under the default
/// [`AnchorBudget`] and recording under `pka.cover.*`: a cover, if one was
/// found, and whether no search could answer (the anchored scan overran
/// its budget and `G_M` has more than 22 cut candidates, too many for the
/// subset scan).
pub(crate) fn cover_search(
    g_m: &Graph,
    dealer: NodeId,
    receiver: NodeId,
    cache: &KnowledgeCache,
    reg: Option<&Registry>,
) -> (Option<RmtCutWitness>, bool) {
    let q = Cover {
        graph: g_m,
        dealer,
        receiver,
        cache,
        gated: Cell::new(false),
    };
    let cover = anchored_search(&q, &AnchorBudget::default(), reg);
    (cover, q.gated.get())
}

/// Separator-anchored RMT-cut search with the default [`AnchorBudget`]:
/// same verdict as [`find_rmt_cut`](super::find_rmt_cut), orders of
/// magnitude less work on instances beyond `n ≈ 14`.
///
/// # Example
///
/// ```
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
/// let w = cuts::find_rmt_cut_anchored(&inst).expect("cut exists");
/// // Anchored witnesses always verify against the ground-truth checker.
/// let cache = rmt_core::KnowledgeCache::new(&inst);
/// assert!(cuts::is_rmt_cut(&inst, &cache, &w.cut).is_some());
/// ```
pub fn find_rmt_cut_anchored(inst: &Instance) -> Option<RmtCutWitness> {
    rmt_search(inst, None, &AnchorBudget::default(), None)
}

/// [`find_rmt_cut_anchored`] with the search effort recorded in `reg`:
///
/// * `rmt_cut.separators_enumerated` — anchors scanned;
/// * `rmt_cut.components_enumerated` — connected subsets emitted across
///   the anchor scans;
/// * `rmt_cut.partition_checks` — `(C₁, C₂)` partitions the anchored scan
///   tested against 𝒵_B (same meaning as the exhaustive decider's);
/// * `rmt_cut.exhaustive_fallbacks` — budget overflows that re-ran the
///   exhaustive decider, which then records the counters of
///   [`find_rmt_cut`](super::find_rmt_cut) under
///   `rmt_cut.fallback.*` (`candidates_examined`, `partition_checks`, the
///   `search_ns` histogram and the `search` span);
/// * `rmt_cut.anchored_ns` — wall time of the whole search (histogram).
pub fn find_rmt_cut_anchored_observed(inst: &Instance, reg: &Registry) -> Option<RmtCutWitness> {
    rmt_search(inst, None, &AnchorBudget::default(), Some(reg))
}

/// Separator-anchored 𝒵-pp-cut search with the default [`AnchorBudget`]:
/// same verdict as [`zpp_cut_by_enumeration`].
pub fn zpp_cut_by_enumeration_anchored(inst: &Instance) -> Option<ZppCutWitness> {
    zpp_search(inst, &AnchorBudget::default(), None)
}

/// [`zpp_cut_by_enumeration_anchored`] with the search effort recorded in
/// `reg`: `zpp.separators_enumerated`, `zpp.components_enumerated`,
/// `zpp.plausibility_checks`, `zpp.exhaustive_fallbacks` and the
/// `zpp.anchored_ns` wall-time histogram.
pub fn zpp_cut_by_enumeration_anchored_observed(
    inst: &Instance,
    reg: &Registry,
) -> Option<ZppCutWitness> {
    zpp_search(inst, &AnchorBudget::default(), Some(reg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::rmt_cut::receiver_side;
    use crate::cuts::{find_rmt_cut, is_rmt_cut, is_zpp_cut, zpp_cut_by_enumeration};
    use crate::sampling::{random_instance, random_instance_nonadjacent, threshold_instance};
    use crate::Instance;
    use rmt_adversary::{AdversaryStructure, RestrictedStructure};
    use rmt_graph::separators::minimal_separators;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sets::NodeSet;
    use std::sync::Arc;

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

    /// Claims for every node of `inst`: its view domain and a random
    /// structure of two sets inside it, as a receiver might be sent.
    fn random_claims(inst: &Instance, rng: &mut impl rand::Rng) -> KnowledgeCache {
        KnowledgeCache::from_parts(inst.graph().nodes().iter().map(|u| {
            let domain = inst.view_domain(u);
            let sets = [0, 1]
                .map(|_| -> NodeSet { domain.iter().filter(|_| rng.random_bool(0.5)).collect() });
            let z = AdversaryStructure::from_sets(sets);
            (u, Arc::new(RestrictedStructure::restrict(&z, domain)))
        }))
    }

    /// The cover question on `inst`'s graph with the claims in `cache`.
    fn cover<'a>(inst: &'a Instance, cache: &'a KnowledgeCache) -> Cover<'a> {
        Cover {
            graph: inst.graph(),
            dealer: inst.dealer(),
            receiver: inst.receiver(),
            cache,
            gated: Cell::new(false),
        }
    }

    /// A cover witness is a D–R cut `C` with `C₁ = ∅`, `B` R's component of
    /// `G ∖ C`, and `C ∩ V(γ(B))` in the claimed joint structure.
    fn is_cover(inst: &Instance, cache: &KnowledgeCache, w: &RmtCutWitness) -> bool {
        let Some(b) = receiver_side(inst.graph(), inst.dealer(), inst.receiver(), &w.cut) else {
            return false;
        };
        w.c1.is_empty()
            && w.c2 == w.cut
            && b == w.receiver_component
            && cache.joint_contains(&b, &w.cut.intersection(&cache.joint_domain(&b)))
    }

    #[test]
    fn anchored_agrees_with_exhaustive_on_the_diamonds() {
        for z in [
            AdversaryStructure::from_sets([set(&[1])]),
            AdversaryStructure::from_sets([set(&[1]), set(&[2])]),
        ] {
            let inst =
                crate::Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
            assert_eq!(
                find_rmt_cut_anchored(&inst).is_some(),
                find_rmt_cut(&inst, None).is_some()
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst).is_some(),
                zpp_cut_by_enumeration(&inst).is_some()
            );
        }
    }

    #[test]
    fn anchored_witnesses_verify_on_random_instances() {
        let mut rng = generators::seeded(0xA11C);
        let mut claims_rng = generators::seeded(0xC1A1);
        let mut covers = 0;
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            let cache = KnowledgeCache::new(&inst);
            let exhaustive = find_rmt_cut(&inst, None);
            let anchored = find_rmt_cut_anchored(&inst);
            assert_eq!(exhaustive.is_some(), anchored.is_some(), "trial {trial}");
            if let Some(w) = anchored {
                assert!(
                    is_rmt_cut(&inst, &cache, &w.cut).is_some(),
                    "trial {trial}: witness {w:?}"
                );
            }
            let anchored = zpp_cut_by_enumeration_anchored(&inst);
            assert_eq!(
                zpp_cut_by_enumeration(&inst).is_some(),
                anchored.is_some(),
                "trial {trial}"
            );
            if let Some(w) = anchored {
                assert!(is_zpp_cut(&inst, &w.cut).is_some(), "trial {trial}");
            }
            let claims = random_claims(&inst, &mut claims_rng);
            let q = cover(&inst, &claims);
            let anchored = anchored_search(&q, &AnchorBudget::default(), None);
            assert_eq!(
                q.exhaustive(None).is_some(),
                anchored.is_some(),
                "trial {trial}"
            );
            assert!(!q.gated.get());
            if let Some(w) = anchored {
                assert!(is_cover(&inst, &claims, &w), "trial {trial}: witness {w:?}");
                covers += 1;
            }
        }
        // Both verdicts occur.
        assert!(covers > 0 && covers < 40, "{covers}");
    }

    #[test]
    fn tiny_budgets_fall_back_to_the_exhaustive_verdict() {
        let budgets = [
            AnchorBudget {
                max_separators: 1,
                max_components_per_anchor: 1 << 20,
            },
            AnchorBudget {
                max_separators: 4096,
                max_components_per_anchor: 1,
            },
        ];
        let mut rng = generators::seeded(0xFA11);
        let mut claims_rng = generators::seeded(0xC1A2);
        let reg = Registry::new();
        for trial in 0..20 {
            let n = 5 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            let claims = random_claims(&inst, &mut claims_rng);
            let exhaustive_cover = cover(&inst, &claims).exhaustive(None).is_some();
            for budget in &budgets {
                assert_eq!(
                    anchored_search(&cover(&inst, &claims), budget, Some(&reg)).is_some(),
                    exhaustive_cover,
                    "trial {trial}, budget {budget:?}"
                );
                assert_eq!(
                    rmt_search(&inst, None, budget, None).is_some(),
                    find_rmt_cut(&inst, None).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
                assert_eq!(
                    zpp_search(&inst, budget, None).is_some(),
                    zpp_cut_by_enumeration(&inst).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
            }
        }
        // Some of the cover verdicts above came from its subset scan.
        assert!(reg.counter("pka.cover.exhaustive_fallbacks").get() > 0);
    }

    #[test]
    fn a_witness_within_the_separator_budget_needs_no_fallback() {
        let count = |reg: &Registry, name: &'static str| reg.counter(name).get();
        let mut rng = generators::seeded(0xB0D6);
        let mut checked = 0;
        for trial in 0..200 {
            let n = 6 + trial % 4;
            let g = generators::gnp_connected(n, 0.35, &mut rng);
            if g.has_edge(0.into(), (n as u32 - 1).into()) {
                continue;
            }
            let inst = threshold_instance(g, 1, ViewKind::Radius(2), 0, n as u32 - 1);
            let reg = Registry::new();
            let Some(witness) = find_rmt_cut_anchored_observed(&inst, &reg) else {
                continue;
            };
            // The witness sits at anchor k, and more separators exist.
            let k = count(&reg, "rmt_cut.separators_enumerated") as usize;
            let (g, d, r) = (inst.graph(), inst.dealer(), inst.receiver());
            let separators = minimal_separators(g, d, r, usize::MAX).unwrap().len();
            if k < 2 || separators <= k || count(&reg, "rmt_cut.exhaustive_fallbacks") > 0 {
                continue;
            }
            let within = AnchorBudget {
                max_separators: k,
                ..AnchorBudget::default()
            };
            let reg = Registry::new();
            assert_eq!(rmt_search(&inst, None, &within, Some(&reg)), Some(witness));
            assert_eq!(
                count(&reg, "rmt_cut.exhaustive_fallbacks"),
                0,
                "trial {trial}"
            );
            assert_eq!(count(&reg, "rmt_cut.separators_enumerated"), k as u64);
            // One separator short: the k-th is never scanned.
            let short = AnchorBudget {
                max_separators: k - 1,
                ..AnchorBudget::default()
            };
            let reg = Registry::new();
            assert_eq!(
                rmt_search(&inst, None, &short, Some(&reg)),
                find_rmt_cut(&inst, None),
                "trial {trial}"
            );
            assert_eq!(
                count(&reg, "rmt_cut.exhaustive_fallbacks"),
                1,
                "trial {trial}"
            );
            assert_eq!(count(&reg, "rmt_cut.separators_enumerated"), k as u64 - 1);
            checked += 1;
        }
        assert!(checked >= 3, "instances with a later witness: {checked}");
    }

    #[test]
    fn observed_variants_match_and_count() {
        let reg = rmt_obs::Registry::new();
        let mut rng = generators::seeded(0x0B5);
        for trial in 0..12 {
            let n = 5 + trial % 3;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            assert_eq!(
                find_rmt_cut_anchored(&inst),
                find_rmt_cut_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst),
                zpp_cut_by_enumeration_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
        }
        assert!(reg.counter("rmt_cut.separators_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.components_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.partition_checks").get() > 0);
        assert!(reg.counter("zpp.separators_enumerated").get() > 0);
        assert_eq!(reg.histogram("rmt_cut.anchored_ns").count(), 12);
    }

    #[test]
    fn observed_fallback_records_the_exhaustive_counters() {
        // Nine minimal separators on the 8-cycle: a zero-separator budget
        // overflows before any anchor is scanned, a one-component budget at
        // the first anchor scan.
        let starved = [
            AnchorBudget {
                max_separators: 0,
                max_components_per_anchor: 1 << 20,
            },
            AnchorBudget {
                max_separators: 4096,
                max_components_per_anchor: 1,
            },
        ];
        for t in [0, 1] {
            let inst =
                crate::sampling::threshold_instance(generators::cycle(8), t, ViewKind::AdHoc, 0, 4);
            let exhaustive = Registry::new();
            let expected = find_rmt_cut(&inst, Some(&exhaustive));
            for (i, budget) in starved.iter().enumerate() {
                let reg = Registry::new();
                let cache = KnowledgeCache::new(&inst);
                let got = rmt_search(&inst, Some(&cache), budget, Some(&reg));
                assert_eq!(got, expected, "t = {t}, budget {i}");
                assert_eq!(reg.counter("rmt_cut.exhaustive_fallbacks").get(), 1);
                // The fallback counts under its own names, so each counter
                // is exactly one search's, whatever the anchored scan did.
                for (fallback, own) in [
                    (
                        "rmt_cut.fallback.candidates_examined",
                        "rmt_cut.candidates_examined",
                    ),
                    (
                        "rmt_cut.fallback.partition_checks",
                        "rmt_cut.partition_checks",
                    ),
                ] {
                    assert_eq!(
                        reg.counter(fallback).get(),
                        exhaustive.counter(own).get(),
                        "t = {t}, budget {i}: {fallback}"
                    );
                }
                let reg = Registry::new();
                let got = zpp_search(&inst, budget, Some(&reg));
                assert_eq!(got, zpp_cut_by_enumeration(&inst), "t = {t}, budget {i}");
                assert_eq!(reg.counter("zpp.exhaustive_fallbacks").get(), 1);
            }
        }
    }

    #[test]
    fn profiled_decider_emits_well_nested_phase_spans() {
        let reg = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof = rmt_obs::Profiler::new(reg.clock());
        reg.attach_profiler(prof.clone());
        let mut rng = generators::seeded(0x0B5);
        let inst = random_instance_nonadjacent(6, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let expected = find_rmt_cut_anchored(&inst);
        assert_eq!(find_rmt_cut_anchored_observed(&inst, &reg), expected);
        let roots = rmt_obs::span_tree(&prof.events()).expect("well nested");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "rmt_cut.anchored");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["rmt_cut.anchored.scan"]);
        // Virtual clock: a second identical run replays identical timestamps.
        let reg2 = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof2 = rmt_obs::Profiler::new(reg2.clock());
        reg2.attach_profiler(prof2.clone());
        find_rmt_cut_anchored_observed(&inst, &reg2);
        assert_eq!(prof.events(), prof2.events());
        assert_eq!(reg.render(), reg2.render());
    }

    #[test]
    fn disconnected_endpoints_yield_the_empty_cut() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = crate::Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            4.into(),
        )
        .unwrap();
        // The empty-separator anchor's largest component is B = {4} itself,
        // whose neighbourhood is the empty cut.
        let w = find_rmt_cut_anchored(&inst).expect("empty cut separates");
        assert!(w.cut.is_empty());
        assert!(find_rmt_cut(&inst, None).is_some());
    }

    #[test]
    fn adjacent_endpoints_have_no_anchored_cut() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = crate::Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut_anchored(&inst).is_none());
        assert!(zpp_cut_by_enumeration_anchored(&inst).is_none());
    }
}
