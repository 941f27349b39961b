//! Joint-knowledge computations over an instance.
//!
//! The cut deciders evaluate `𝒵_B = ⊕_{v∈B} 𝒵^{V(γ(v))}` for very many node
//! sets `B`. [`KnowledgeCache`] precomputes every player's restricted
//! structure once and answers joint-membership queries with the cylinder
//! characterization (see `rmt-adversary`), avoiding any antichain blow-up.
//!
//! Since many candidate cuts induce the *same* receiver component `B`, the
//! cache additionally memoizes the joint domain `V(γ(B))` keyed on `B`'s
//! bitset: [`KnowledgeCache::joint_domain`] (and through it
//! [`KnowledgeCache::joint_contains`]) consults the memo first. The memo is
//! semantics-neutral shared state behind an `RwLock` — concurrent readers
//! never block each other after warm-up — and its effectiveness is reported
//! through [`KnowledgeCache::memo_hits`] / [`KnowledgeCache::memo_misses`].
//! One-worker observed anchored searches surface the per-call change of
//! these totals as the `rmt_cut.cache_hits` / `rmt_cut.cache_misses`
//! counters; a delta, because the
//! [`IncrementalEngine`](crate::engine::IncrementalEngine) keeps one cache
//! (refreshed per mutation, see [`KnowledgeCache::refresh`]) across calls.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use rmt_adversary::{JointView, RestrictedStructure};
use rmt_graph::Graph;
use rmt_sets::{NodeId, NodeSet};

use crate::instance::Instance;

/// What one [`KnowledgeCache::refresh`] (or full rebuild) invalidated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Per-node restricted structures rebuilt because their view domain
    /// changed (or the node was new).
    pub parts_rebuilt: u64,
    /// Joint-domain memo entries dropped because they touched a changed
    /// node.
    pub domains_dropped: u64,
}

/// Precomputed per-node knowledge for fast joint queries.
pub struct KnowledgeCache {
    /// v ↦ 𝒵^{V(γ(v))}, indexed by node id.
    parts: Vec<Option<RestrictedStructure>>,
    /// B ↦ V(γ(B)) memo shared by all queries on this cache.
    domains: RwLock<HashMap<NodeSet, NodeSet>>,
    /// Memo lookups answered from the map.
    hits: AtomicU64,
    /// Memo lookups that had to compute (and then inserted).
    misses: AtomicU64,
}

impl Clone for KnowledgeCache {
    fn clone(&self) -> Self {
        KnowledgeCache {
            parts: self.parts.clone(),
            domains: RwLock::new(self.domains.read().expect("domain memo lock").clone()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for KnowledgeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KnowledgeCache")
            .field("parts", &self.parts)
            .field(
                "memoized_domains",
                &self.domains.read().expect("domain memo lock").len(),
            )
            .finish()
    }
}

impl KnowledgeCache {
    /// Builds the cache for an instance.
    pub fn new(inst: &Instance) -> Self {
        let size = inst.graph().nodes().last().map_or(0, |v| v.index() + 1);
        let mut parts = vec![None; size];
        for v in inst.graph().nodes() {
            let domain = inst.view_domain(v);
            parts[v.index()] = Some(RestrictedStructure::restrict(inst.adversary(), domain));
        }
        KnowledgeCache {
            parts,
            domains: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Reconciles the cache with `inst` after a topology mutation,
    /// rebuilding only what the mutation actually touched.
    ///
    /// For every node of `inst`, the cached part is kept iff its domain
    /// still equals the node's current view domain — valid because
    /// `𝒵^{V(γ(v))}` is a pure function of the (unchanged) global structure
    /// and that domain. Joint-domain memo entries are dropped iff their key
    /// intersects a changed node, for the same reason. Nodes removed from
    /// the graph lose their parts.
    ///
    /// Returns the set of nodes whose knowledge changed (rebuilt, added, or
    /// removed) plus invalidation statistics. **Precondition:** the global
    /// adversary structure of `inst` is the one this cache was built from;
    /// after a structure change call [`KnowledgeCache::rebuild`] instead.
    pub fn refresh(&mut self, inst: &Instance) -> (NodeSet, InvalidationStats) {
        let size = inst.graph().nodes().last().map_or(0, |v| v.index() + 1);
        if self.parts.len() < size {
            self.parts.resize(size, None);
        }
        let mut changed = NodeSet::new();
        let mut stats = InvalidationStats::default();
        for (index, slot) in self.parts.iter_mut().enumerate() {
            let v = NodeId::new(index as u32);
            if !inst.graph().nodes().contains(v) {
                if slot.take().is_some() {
                    changed.insert(v);
                }
                continue;
            }
            let domain = inst.view_domain(v);
            let stale = match slot.as_ref() {
                Some(part) => part.domain() != &domain,
                None => true,
            };
            if stale {
                *slot = Some(RestrictedStructure::restrict(inst.adversary(), domain));
                changed.insert(v);
                stats.parts_rebuilt += 1;
            }
        }
        if !changed.is_empty() {
            let mut memo = self.domains.write().expect("domain memo lock");
            let before = memo.len();
            memo.retain(|b, _| b.is_disjoint(&changed));
            stats.domains_dropped = (before - memo.len()) as u64;
        }
        (changed, stats)
    }

    /// Rebuilds every part and empties the memo — the refresh path for
    /// adversary-structure changes, where no cached knowledge survives.
    /// Returns the same statistics shape as [`KnowledgeCache::refresh`].
    pub fn rebuild(&mut self, inst: &Instance) -> InvalidationStats {
        let dropped = self.domains.read().expect("domain memo lock").len() as u64;
        let rebuilt = KnowledgeCache::new(inst);
        let stats = InvalidationStats {
            parts_rebuilt: inst.graph().nodes().len() as u64,
            domains_dropped: dropped,
        };
        self.parts = rebuilt.parts;
        *self.domains.write().expect("domain memo lock") = HashMap::new();
        stats
    }

    /// The restricted structure 𝒵^{V(γ(v))} of one player.
    ///
    /// # Panics
    ///
    /// Panics if `v` has no cached knowledge (not a node of the instance).
    pub fn part(&self, v: NodeId) -> &RestrictedStructure {
        self.parts
            .get(v.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("no knowledge cached for {v}"))
    }

    /// The domain V(γ(B)) = ∪_{v∈B} V(γ(v)), memoized on `B`'s bitset.
    pub fn joint_domain(&self, b: &NodeSet) -> NodeSet {
        if let Some(domain) = self.domains.read().expect("domain memo lock").get(b) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return domain.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut out = NodeSet::new();
        for v in b {
            out.union_with(self.part(v).domain());
        }
        self.domains
            .write()
            .expect("domain memo lock")
            .insert(b.clone(), out.clone());
        out
    }

    /// Memo lookups served from the component-keyed domain memo.
    pub fn memo_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo lookups that computed the domain fresh.
    pub fn memo_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Membership in 𝒵_B = ⊕_{v∈B} 𝒵^{V(γ(v))}, via the cylinder test:
    /// `set ⊆ V(γ(B))` and `set ∩ V(γ(v)) ∈ 𝒵_v` for every `v ∈ B`.
    pub fn joint_contains(&self, b: &NodeSet, set: &NodeSet) -> bool {
        set.is_subset(&self.joint_domain(b))
            && b.iter().all(|v| {
                let p = self.part(v);
                p.contains(&set.intersection(p.domain()))
            })
    }

    /// Materializes 𝒵_B as a [`JointView`] (for callers needing the antichain
    /// or repeated heavy queries).
    pub fn joint_view(&self, b: &NodeSet) -> JointView {
        b.iter().map(|v| self.part(v).clone()).collect()
    }

    /// The joint *topology* view γ(B) for the same node set, from the
    /// instance's assignment.
    pub fn joint_graph(inst: &Instance, b: &NodeSet) -> Graph {
        inst.views().joint_view(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn joint_contains_matches_materialized_join() {
        let inst = instance();
        let cache = KnowledgeCache::new(&inst);
        let b = set(&[1, 2, 4]);
        let view = cache.joint_view(&b);
        let materialized = view.materialize();
        for cand in cache.joint_domain(&b).subsets() {
            assert_eq!(
                cache.joint_contains(&b, &cand),
                materialized.contains(&cand),
                "{cand}"
            );
        }
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
        let _ = cache.joint_domain(&set(&[0, 1])); // touches the delta
        let _ = cache.joint_domain(&set(&[4, 5])); // does not
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
        let (changed, stats) = cache.refresh(&inst2);
        assert_eq!(changed, set(&[0, 3]));
        assert_eq!(stats.parts_rebuilt, 2);
        assert_eq!(stats.domains_dropped, 1); // {0,1} out, {4,5} kept
        let fresh = KnowledgeCache::new(&inst2);
        for v in inst2.graph().nodes() {
            assert_eq!(cache.part(v), fresh.part(v), "{v}");
            assert_eq!(
                cache.joint_domain(&NodeSet::singleton(v)),
                fresh.joint_domain(&NodeSet::singleton(v))
            );
        }
        // A refresh against an unchanged instance is a no-op.
        let (changed, stats) = cache.refresh(&inst2);
        assert!(changed.is_empty());
        assert_eq!(stats, InvalidationStats::default());
    }

    #[test]
    fn rebuild_matches_a_fresh_cache() {
        let inst = instance();
        let mut cache = KnowledgeCache::new(&inst);
        let _ = cache.joint_domain(&set(&[1, 2]));
        let z2 = rmt_adversary::threshold(inst.graph().nodes(), 1);
        let inst2 = Instance::new(
            inst.graph().clone(),
            z2,
            ViewKind::AdHoc,
            0.into(),
            3.into(),
        )
        .unwrap();
        let stats = cache.rebuild(&inst2);
        assert_eq!(stats.parts_rebuilt, 6);
        assert_eq!(stats.domains_dropped, 1);
        let fresh = KnowledgeCache::new(&inst2);
        for v in inst2.graph().nodes() {
            assert_eq!(cache.part(v), fresh.part(v), "{v}");
        }
    }

    #[test]
    fn domain_memo_hits_on_repeats_and_stays_correct() {
        let inst = instance();
        let cache = KnowledgeCache::new(&inst);
        let fresh = KnowledgeCache::new(&inst);
        for b in [set(&[1, 2]), set(&[2, 4]), set(&[1, 2]), set(&[1, 2])] {
            // Memoized answers equal a never-memoizing baseline's.
            let mut expected = NodeSet::new();
            for v in &b {
                expected.union_with(fresh.part(v).domain());
            }
            assert_eq!(cache.joint_domain(&b), expected);
        }
        assert_eq!(cache.memo_misses(), 2);
        assert_eq!(cache.memo_hits(), 2);
        // Cloning keeps the memo content but resets the statistics.
        let cloned = cache.clone();
        assert_eq!(cloned.memo_hits(), 0);
        assert_eq!(cloned.joint_domain(&set(&[1, 2])), set(&[0, 1, 2, 3]));
        assert_eq!(cloned.memo_hits(), 1);
    }
}
