//! The incremental decision engine: exact cut decisions under graph churn.
//!
//! A production deployment does not decide one frozen instance — links come
//! and go, nodes join, the adversary model gets re-estimated. Re-deciding
//! from scratch after every mutation rebuilds the whole [`KnowledgeCache`]:
//! one restriction of the global 𝒵 per node. On E17 at n = 26 (t = 4,
//! 14 950 maximal sets) a from-scratch re-decision took 4.6–7.6 ms against
//! 0.5–0.9 ms for the engine, which restricts only at the two endpoints of
//! an edge toggle (medians of 40 deltas, 2-vCPU VM).
//!
//! [`IncrementalEngine`] is an [`Instance`] plus a cache it keeps fresh:
//! each [`Delta`] shares 𝒵 with the previous instance
//! ([`Instance::with_graph`]) and rebuilds only the knowledge parts whose
//! view domain changed ([`KnowledgeCache::refresh`]; structure changes
//! rebuild everything).
//!
//! Decisions run the same anchored driver as the from-scratch deciders,
//! fed the engine's cache and budget, so
//! [`IncrementalEngine::decide_rmt`] / [`IncrementalEngine::decide_zpp`]
//! return **byte-identical** witnesses to
//! [`find_rmt_cut_anchored`](crate::cuts::find_rmt_cut_anchored) /
//! [`zpp_cut_by_enumeration_anchored`](crate::cuts::zpp_cut_by_enumeration_anchored)
//! on the mutated instance, and the `_observed` forms record the same
//! `rmt_cut.*` / `zpp.*` counters. The from-scratch deciders remain the
//! differential ground truth (`crates/core/tests/incremental_differential.rs`,
//! and E17 asserts the identity per delta). An engine that has applied no
//! delta is itself a from-scratch decider, so
//! `IncrementalEngine::from_instance(inst, views).with_budget(b)` is how a
//! search under a budget `b` other than [`AnchorBudget::default`] is run.
//!
//! The engine once also kept per-anchor scan certificates guarded by a
//! graph footprint. They were removed because they almost never hit: 0 hits
//! against 168 misses on E17's edge-churn stream, and a hit ratio of 0.0013
//! over a 20 s run of the benchmark's `churn` workload. Every edge toggle
//! touches the footprint of nearly every anchor, so the knowledge refresh is
//! the whole speedup.

use rmt_adversary::AdversaryStructure;
use rmt_graph::{Graph, ViewKind};
use rmt_obs::Registry;
use rmt_sets::NodeId;

use crate::cuts::anchored::{rmt_search, zpp_search, AnchorBudget};
use crate::cuts::rmt_cut::RmtCutWitness;
use crate::cuts::zpp::ZppCutWitness;
use crate::instance::{Instance, InstanceError};
use crate::knowledge::KnowledgeCache;

/// One instance mutation the engine can absorb incrementally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Add the edge `{u, v}` (endpoints are created if absent).
    AddEdge(NodeId, NodeId),
    /// Remove the edge `{u, v}` (a no-op if absent).
    RemoveEdge(NodeId, NodeId),
    /// Add an isolated node.
    AddNode(NodeId),
    /// Replace the global adversary structure.
    StructureChange(AdversaryStructure),
}

/// What one [`IncrementalEngine::apply`] invalidated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Per-node knowledge parts rebuilt by the cache refresh.
    pub parts_rebuilt: u64,
    /// `true` iff the delta forced a full rebuild (structure change).
    pub full_rebuild: bool,
}

/// An [`Instance`] plus a [`KnowledgeCache`] refreshed after every mutation,
/// so that re-deciding skips the full knowledge rebuild.
///
/// # Example
///
/// ```
/// use rmt_core::engine::{Delta, IncrementalEngine};
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
/// let mut engine = IncrementalEngine::from_instance(&inst, ViewKind::AdHoc);
/// assert!(engine.decide_rmt().is_some()); // cut exists
/// engine.apply(Delta::AddEdge(0.into(), 3.into())).unwrap();
/// assert!(engine.decide_rmt().is_none()); // adjacent endpoints: no cut
/// // Every decision equals the from-scratch anchored decider's.
/// assert_eq!(
///     engine.decide_rmt(),
///     cuts::find_rmt_cut_anchored(engine.instance())
/// );
/// ```
#[derive(Debug)]
pub struct IncrementalEngine {
    inst: Instance,
    views: ViewKind,
    budget: AnchorBudget,
    cache: KnowledgeCache,
}

impl IncrementalEngine {
    /// Builds an engine over a fresh instance. `views` is remembered so the
    /// view assignment can be re-derived after every mutation.
    pub fn new(
        graph: Graph,
        adversary: AdversaryStructure,
        views: ViewKind,
        dealer: NodeId,
        receiver: NodeId,
    ) -> Result<Self, InstanceError> {
        let inst = Instance::new(graph, adversary, views, dealer, receiver)?;
        Ok(IncrementalEngine::from_instance(&inst, views))
    }

    /// Builds an engine from an existing instance whose views were assigned
    /// uniformly with `views`.
    pub fn from_instance(inst: &Instance, views: ViewKind) -> Self {
        IncrementalEngine {
            cache: KnowledgeCache::new(inst),
            inst: inst.clone(),
            views,
            budget: AnchorBudget::default(),
        }
    }

    /// Replaces the anchor budget.
    pub fn with_budget(mut self, budget: AnchorBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The current instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Applies one mutation, rebuilding only the cached knowledge the delta
    /// touches.
    ///
    /// # Errors
    ///
    /// Returns the [`InstanceError`] if the mutated instance is ill-formed
    /// (e.g. a structure change whose support escapes the node set). The
    /// engine is left unchanged in that case.
    pub fn apply(&mut self, delta: Delta) -> Result<ApplyStats, InstanceError> {
        self.apply_inner(delta, None)
    }

    /// [`IncrementalEngine::apply`] with the invalidation recorded in `reg`:
    /// `cache.invalidate.parts` and `cache.invalidate.full`. Both are pure
    /// functions of the delta stream, so they are deterministic across runs
    /// and thread counts.
    pub fn apply_observed(
        &mut self,
        delta: Delta,
        reg: &Registry,
    ) -> Result<ApplyStats, InstanceError> {
        self.apply_inner(delta, Some(reg))
    }

    fn apply_inner(
        &mut self,
        delta: Delta,
        reg: Option<&Registry>,
    ) -> Result<ApplyStats, InstanceError> {
        let mut graph = self.inst.graph().clone();
        let mut new_structure = None;
        match delta {
            Delta::AddEdge(u, v) => {
                graph.add_edge(u, v);
            }
            Delta::RemoveEdge(u, v) => {
                graph.remove_edge(u, v);
            }
            Delta::AddNode(v) => {
                graph.add_node(v);
            }
            Delta::StructureChange(z) => new_structure = Some(z),
        }
        let full_rebuild = new_structure.is_some();
        self.inst = match new_structure {
            Some(z) => Instance::new(
                graph,
                z,
                self.views,
                self.inst.dealer(),
                self.inst.receiver(),
            )?,
            // Graph-only delta: share 𝒵 instead of cloning and revalidating
            // it — the dominant apply cost on large structures.
            None => self.inst.with_graph(graph, self.views)?,
        };
        let parts_rebuilt = if full_rebuild {
            self.cache.rebuild(&self.inst)
        } else {
            self.cache.refresh(&self.inst)
        };
        let stats = ApplyStats {
            parts_rebuilt,
            full_rebuild,
        };
        if let Some(reg) = reg {
            reg.counter("cache.invalidate.parts")
                .add(stats.parts_rebuilt);
            reg.counter("cache.invalidate.full")
                .add(stats.full_rebuild as u64);
        }
        Ok(stats)
    }

    /// Decides the RMT-cut question on the current instance over the
    /// refreshed cache. Byte-identical to
    /// [`find_rmt_cut_anchored`](crate::cuts::find_rmt_cut_anchored).
    pub fn decide_rmt(&mut self) -> Option<RmtCutWitness> {
        rmt_search(&self.inst, Some(&self.cache), &self.budget, None)
    }

    /// [`IncrementalEngine::decide_rmt`] recording the counters and spans of
    /// [`find_rmt_cut_anchored_observed`](crate::cuts::find_rmt_cut_anchored_observed)
    /// in `reg`.
    pub fn decide_rmt_observed(&mut self, reg: &Registry) -> Option<RmtCutWitness> {
        rmt_search(&self.inst, Some(&self.cache), &self.budget, Some(reg))
    }

    /// Decides the 𝒵-pp-cut question on the current instance. Byte-identical
    /// to
    /// [`zpp_cut_by_enumeration_anchored`](crate::cuts::zpp_cut_by_enumeration_anchored).
    pub fn decide_zpp(&mut self) -> Option<ZppCutWitness> {
        zpp_search(&self.inst, &self.budget, None)
    }

    /// [`IncrementalEngine::decide_zpp`] recording the counters and spans of
    /// [`zpp_cut_by_enumeration_anchored_observed`](crate::cuts::zpp_cut_by_enumeration_anchored_observed)
    /// in `reg`.
    pub fn decide_zpp_observed(&mut self, reg: &Registry) -> Option<ZppCutWitness> {
        zpp_search(&self.inst, &self.budget, Some(reg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{
        find_rmt_cut_anchored, find_rmt_cut_anchored_observed, zpp_cut_by_enumeration_anchored,
        zpp_cut_by_enumeration_anchored_observed,
    };
    use rmt_graph::generators;
    use rmt_sets::NodeSet;

    fn engine_and_mirror() -> (IncrementalEngine, Instance) {
        let g = generators::ring_with_chords(10, 2, &mut generators::seeded(0xE17));
        let z = rmt_adversary::threshold(g.nodes(), 2);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 5.into()).unwrap();
        (
            IncrementalEngine::from_instance(&inst, ViewKind::AdHoc),
            inst,
        )
    }

    #[test]
    fn decisions_match_from_scratch_over_a_mutation_stream() {
        let (mut engine, _) = engine_and_mirror();
        let deltas = [
            Delta::AddEdge(1.into(), 4.into()),
            Delta::RemoveEdge(1.into(), 4.into()),
            Delta::RemoveEdge(0.into(), 1.into()),
            Delta::AddNode(12.into()),
            Delta::AddEdge(12.into(), 3.into()),
            Delta::AddEdge(0.into(), 1.into()),
        ];
        assert_eq!(
            engine.decide_rmt(),
            find_rmt_cut_anchored(engine.instance())
        );
        for (i, delta) in deltas.into_iter().enumerate() {
            engine.apply(delta).unwrap();
            assert_eq!(
                engine.decide_rmt(),
                find_rmt_cut_anchored(engine.instance()),
                "rmt after delta {i}"
            );
            assert_eq!(
                engine.decide_zpp(),
                zpp_cut_by_enumeration_anchored(engine.instance()),
                "zpp after delta {i}"
            );
        }
    }

    #[test]
    fn structure_change_invalidates_everything() {
        let (mut engine, inst) = engine_and_mirror();
        engine.decide_rmt();
        let z1 = rmt_adversary::threshold(inst.graph().nodes(), 1);
        let stats = engine.apply(Delta::StructureChange(z1)).unwrap();
        assert!(stats.full_rebuild);
        assert_eq!(
            stats.parts_rebuilt,
            engine.instance().graph().nodes().len() as u64
        );
        assert_eq!(
            engine.decide_rmt(),
            find_rmt_cut_anchored(engine.instance())
        );
        assert_eq!(
            engine.decide_zpp(),
            zpp_cut_by_enumeration_anchored(engine.instance())
        );
    }

    #[test]
    fn ill_formed_delta_leaves_the_engine_unchanged() {
        let (mut engine, _) = engine_and_mirror();
        let before = engine.decide_rmt();
        // Structure support escapes the node set: rejected.
        let bad = AdversaryStructure::from_sets([NodeSet::singleton(99.into())]);
        assert!(engine.apply(Delta::StructureChange(bad)).is_err());
        assert_eq!(engine.decide_rmt(), before);
    }

    #[test]
    fn observed_apply_and_decide_record_counters() {
        let (mut engine, _) = engine_and_mirror();
        let reg = Registry::new();
        engine
            .apply_observed(Delta::AddEdge(2.into(), 6.into()), &reg)
            .unwrap();
        assert!(reg.counter("cache.invalidate.parts").get() > 0);
        let observed = engine.decide_rmt_observed(&reg);
        assert!(reg.counter("rmt_cut.separators_enumerated").get() > 0);
        // Plain and observed forms agree.
        let (mut twin, _) = engine_and_mirror();
        twin.apply(Delta::AddEdge(2.into(), 6.into())).unwrap();
        assert_eq!(twin.decide_rmt(), observed);
    }

    #[test]
    fn observed_decisions_count_like_the_from_scratch_deciders() {
        let (mut engine, _) = engine_and_mirror();
        let deltas = [
            Delta::AddEdge(1.into(), 4.into()),
            Delta::RemoveEdge(0.into(), 1.into()),
            Delta::AddEdge(2.into(), 7.into()),
        ];
        for (i, delta) in deltas.into_iter().enumerate() {
            engine.apply(delta).unwrap();
            let (inc, scratch) = (Registry::new(), Registry::new());
            assert_eq!(
                engine.decide_rmt_observed(&inc),
                find_rmt_cut_anchored_observed(engine.instance(), &scratch)
            );
            assert_eq!(
                engine.decide_zpp_observed(&inc),
                zpp_cut_by_enumeration_anchored_observed(engine.instance(), &scratch)
            );
            for name in [
                "rmt_cut.separators_enumerated",
                "rmt_cut.components_enumerated",
                "rmt_cut.partition_checks",
                "rmt_cut.exhaustive_fallbacks",
                "zpp.separators_enumerated",
                "zpp.components_enumerated",
                "zpp.plausibility_checks",
                "zpp.exhaustive_fallbacks",
            ] {
                assert_eq!(
                    inc.counter(name).get(),
                    scratch.counter(name).get(),
                    "delta {i}: {name}"
                );
            }
            assert!(inc.counter("zpp.separators_enumerated").get() > 0);
        }
    }
}
