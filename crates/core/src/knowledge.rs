//! Joint-knowledge computations over an instance.
//!
//! The cut deciders evaluate `𝒵_B = ⊕_{v∈B} 𝒵^{V(γ(v))}` for very many node
//! sets `B`. [`KnowledgeCache`] precomputes every player's restricted
//! structure once and answers joint-membership queries with the cylinder
//! characterization (see `rmt-adversary`), avoiding any antichain blow-up.
//!
//! Each part is one [`RestrictedStructure::restrict`] of 𝒵 to the node's
//! view domain. When that domain is itself in 𝒵 (ad hoc views with
//! `|N[v]| ≤ t` under a threshold 𝒵) the part is `{V(γ(v))}`, found by
//! one membership test without forming a single trace.
//!
//! The cache holds only these per-node parts and unions the joint domain
//! `V(γ(B))` from them on every query: a per-component memo of it answered
//! 99 % of its lookups on E17 and the `churn` benchmark, yet saved no time.
//! The
//! [`IncrementalEngine`](crate::engine::IncrementalEngine) keeps one cache
//! across mutations and refreshes only the parts a delta touches
//! ([`KnowledgeCache::refresh`]).

use std::sync::Arc;

use rmt_adversary::{JointView, RestrictedStructure};
use rmt_sets::{NodeId, NodeSet};

use crate::instance::Instance;

/// Precomputed per-node knowledge for fast joint queries.
#[derive(Clone, Debug)]
pub struct KnowledgeCache {
    /// v ↦ 𝒵^{V(γ(v))}, indexed by node id; shared, so a cache built from
    /// parts its caller keeps copies no structure.
    parts: Vec<Option<Arc<RestrictedStructure>>>,
}

impl KnowledgeCache {
    /// Builds the cache for an instance.
    pub fn new(inst: &Instance) -> Self {
        KnowledgeCache::from_parts(inst.graph().nodes().iter().map(|v| {
            let domain = inst.view_domain(v);
            (
                v,
                Arc::new(RestrictedStructure::restrict(inst.adversary(), domain)),
            )
        }))
    }

    /// Builds the cache from per-node parts `(v, 𝒵_v)`, each `𝒵_v` a
    /// structure over its view domain `V(γ(v))`: the knowledge a receiver
    /// holds as claims, where no [`Instance`] exists.
    pub(crate) fn from_parts(
        knowledge: impl IntoIterator<Item = (NodeId, Arc<RestrictedStructure>)>,
    ) -> Self {
        let mut parts = Vec::new();
        for (v, part) in knowledge {
            if parts.len() <= v.index() {
                parts.resize(v.index() + 1, None);
            }
            parts[v.index()] = Some(part);
        }
        KnowledgeCache { parts }
    }

    /// Reconciles the cache with `inst` after a topology mutation,
    /// rebuilding only what the mutation actually touched.
    ///
    /// For every node of `inst`, the cached part is kept iff its domain
    /// still equals the node's current view domain — valid because
    /// `𝒵^{V(γ(v))}` is a pure function of the (unchanged) global structure
    /// and that domain. Nodes removed from the graph lose their parts.
    ///
    /// Returns the number of parts rebuilt (added nodes included).
    /// **Precondition:** the global adversary structure of `inst` is the one
    /// this cache was built from; after a structure change call
    /// [`KnowledgeCache::rebuild`] instead.
    pub fn refresh(&mut self, inst: &Instance) -> u64 {
        let size = inst.graph().nodes().last().map_or(0, |v| v.index() + 1);
        if self.parts.len() < size {
            self.parts.resize(size, None);
        }
        let mut rebuilt = 0;
        for (index, slot) in self.parts.iter_mut().enumerate() {
            let v = NodeId::new(index as u32);
            if !inst.graph().nodes().contains(v) {
                *slot = None;
                continue;
            }
            let domain = inst.view_domain(v);
            let stale = match slot.as_ref() {
                Some(part) => part.domain() != &domain,
                None => true,
            };
            if stale {
                *slot = Some(Arc::new(RestrictedStructure::restrict(
                    inst.adversary(),
                    domain,
                )));
                rebuilt += 1;
            }
        }
        rebuilt
    }

    /// Rebuilds every part — the refresh path for adversary-structure
    /// changes, where no cached knowledge survives. Returns the number of
    /// parts rebuilt.
    pub fn rebuild(&mut self, inst: &Instance) -> u64 {
        *self = KnowledgeCache::new(inst);
        inst.graph().nodes().len() as u64
    }

    /// The restricted structure 𝒵^{V(γ(v))} of one player.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no cached knowledge (not a node of the instance).
    pub fn part(&self, v: NodeId) -> &RestrictedStructure {
        self.parts
            .get(v.index())
            .and_then(Option::as_deref)
            .unwrap_or_else(|| panic!("no knowledge cached for {v}"))
    }

    /// The domain V(γ(B)) = ∪_{v∈B} V(γ(v)).
    pub fn joint_domain(&self, b: &NodeSet) -> NodeSet {
        let mut out = NodeSet::new();
        for v in b {
            out.union_with(self.part(v).domain());
        }
        out
    }

    /// Membership in 𝒵_B = ⊕_{v∈B} 𝒵^{V(γ(v))}, via the cylinder test:
    /// `set ⊆ V(γ(B))` and `set ∩ V(γ(v)) ∈ 𝒵_v` for every `v ∈ B`, in one
    /// pass over `B`.
    pub fn joint_contains(&self, b: &NodeSet, set: &NodeSet) -> bool {
        let mut outside = set.clone();
        for v in b {
            let p = self.part(v);
            if !p.contains(&set.intersection(p.domain())) {
                return false;
            }
            outside.difference_with(p.domain());
        }
        outside.is_empty()
    }

    /// Materializes 𝒵_B as a [`JointView`] (for callers needing the antichain
    /// or repeated heavy queries).
    pub fn joint_view(&self, b: &NodeSet) -> JointView {
        b.iter().map(|v| self.part(v).clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::random_instance;
    use rand::Rng;
    use rmt_graph::{generators, ViewKind};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn instance() -> Instance {
        let g = generators::cycle(6);
        let z = rmt_adversary::threshold(g.nodes(), 2);
        Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap()
    }

    #[test]
    fn joint_domain_unions_view_domains() {
        let inst = instance();
        let cache = KnowledgeCache::new(&inst);
        // Stars of 1 and 2 on the 6-cycle: {0,1,2} ∪ {1,2,3}.
        assert_eq!(cache.joint_domain(&set(&[1, 2])), set(&[0, 1, 2, 3]));
    }

    /// The one-pass cylinder test against the materialized join, on the
    /// 6-cycle and on seeded random instances under ad hoc and radius-2
    /// views: several `B` per instance (∅ and all nodes among them), and
    /// every subset of the node set as a candidate, so candidates that
    /// escape `V(γ(B))` are tested too.
    #[test]
    fn joint_contains_matches_materialized_join() {
        let mut rng = generators::seeded(0x10C7);
        let mut cases = vec![(instance(), vec![set(&[1, 2, 4])])];
        for trial in 0..12 {
            let views = [ViewKind::AdHoc, ViewKind::Radius(2)][trial % 2];
            let inst = random_instance(5 + trial % 4, 0.4, views, 3, 2, &mut rng);
            let nodes = inst.graph().nodes().clone();
            let mut bs = vec![NodeSet::new(), nodes.clone()];
            for _ in 0..4 {
                bs.push(nodes.iter().filter(|_| rng.random_bool(0.4)).collect());
            }
            cases.push((inst, bs));
        }
        let mut escaping = 0;
        for (inst, bs) in &cases {
            let cache = KnowledgeCache::new(inst);
            for b in bs {
                let materialized = cache.joint_view(b).materialize();
                let domain = cache.joint_domain(b);
                assert_eq!(materialized.domain(), &domain, "B = {b}");
                for cand in inst.graph().nodes().subsets() {
                    escaping += u32::from(!cand.is_subset(&domain));
                    assert_eq!(
                        cache.joint_contains(b, &cand),
                        materialized.contains(&cand),
                        "B = {b}, candidate {cand}"
                    );
                }
            }
        }
        assert!(escaping > 0);
    }

    #[test]
    fn joint_knowledge_can_exceed_global_structure() {
        // Corollary 2 in action: the joint structure is a (possibly strict)
        // superset of the true restriction.
        let inst = instance();
        let cache = KnowledgeCache::new(&inst);
        let b = set(&[1, 4]); // disjoint stars: {0,1,2} and {3,4,5}
                              // {0, 2, 3, 5} has two nodes in each view domain... t = 2 traces: each
                              // trace has 2 nodes, admissible locally, so jointly admissible —
        let cand = set(&[0, 2, 3, 5]);
        assert!(cache.joint_contains(&b, &cand));
        // — although globally inadmissible (4 > t = 2).
        assert!(!inst.adversary().contains(&cand));
    }

    #[test]
    fn empty_b_admits_only_empty_set() {
        let inst = instance();
        let cache = KnowledgeCache::new(&inst);
        assert!(cache.joint_contains(&NodeSet::new(), &NodeSet::new()));
        assert!(!cache.joint_contains(&NodeSet::new(), &set(&[1])));
    }

    #[test]
    fn refresh_rebuilds_only_touched_parts() {
        let inst = instance();
        let mut cache = KnowledgeCache::new(&inst);
        let before = cache.clone();
        // Add the chord 0–3: under AdHoc views only 0 and 3 see new domains.
        let mut g = inst.graph().clone();
        g.add_edge(0.into(), 3.into());
        let inst2 = Instance::new(
            g,
            inst.adversary().clone(),
            ViewKind::AdHoc,
            0.into(),
            3.into(),
        )
        .unwrap();
        assert_eq!(cache.refresh(&inst2), 2);
        let fresh = KnowledgeCache::new(&inst2);
        for v in inst2.graph().nodes() {
            assert_eq!(cache.part(v), fresh.part(v), "{v}");
            // Untouched parts are the very structures built before.
            let kept = std::ptr::eq(cache.part(v), before.part(v));
            assert_eq!(kept, !set(&[0, 3]).contains(v), "{v}");
        }
        // A refresh against an unchanged instance is a no-op.
        assert_eq!(cache.refresh(&inst2), 0);
    }

    #[test]
    fn rebuild_matches_a_fresh_cache() {
        let inst = instance();
        let mut cache = KnowledgeCache::new(&inst);
        let z2 = rmt_adversary::threshold(inst.graph().nodes(), 1);
        let inst2 = Instance::new(
            inst.graph().clone(),
            z2,
            ViewKind::AdHoc,
            0.into(),
            3.into(),
        )
        .unwrap();
        assert_eq!(cache.rebuild(&inst2), 6);
        let fresh = KnowledgeCache::new(&inst2);
        for v in inst2.graph().nodes() {
            assert_eq!(cache.part(v), fresh.part(v), "{v}");
        }
    }
}
