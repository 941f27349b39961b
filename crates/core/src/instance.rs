use rmt_adversary::AdversaryStructure;
use rmt_graph::{traversal, Graph, ViewAssignment, ViewKind};
use rmt_sets::{NodeId, NodeSet};
use std::sync::Arc;

/// An RMT instance 𝓘 = (G, 𝒵, γ, D, R).
///
/// * `G` — the synchronous network of authenticated channels;
/// * `𝒵` — the (global, actual) adversary structure;
/// * `γ` — the view function of the Partial Knowledge Model: each player `v`
///   knows the subgraph γ(v) and the trace 𝒵_v = 𝒵^{V(γ(v))};
/// * `D`, `R` — dealer and receiver.
///
/// The ad hoc model is the special case γ(v) = the star around `v`
/// ([`ViewKind::AdHoc`]); full knowledge is γ(v) = G.
///
/// # Example
///
/// ```
/// use rmt_core::Instance;
/// use rmt_graph::{generators, ViewKind};
///
/// let g = generators::cycle(5);
/// let z = rmt_adversary::threshold(g.nodes(), 1);
/// let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 2.into()).unwrap();
/// assert_eq!(inst.dealer(), 0.into());
/// // Node 1's ad hoc view covers {0,1,2}; the trace of the global threshold
/// // there admits any single node of the view.
/// assert!(inst.local_structure(1.into()).contains(&[2u32].into_iter().collect()));
/// ```
#[derive(Clone, Debug)]
pub struct Instance {
    graph: Graph,
    // Shared, not owned: 𝒵 can hold thousands of maximal sets, and graph-only
    // churn ([`Instance::with_graph`]) must not pay to copy an unchanged
    // structure.
    adversary: Arc<AdversaryStructure>,
    views: ViewAssignment,
    dealer: NodeId,
    receiver: NodeId,
}

/// Why an instance description was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstanceError {
    /// Dealer or receiver is not a node of the graph.
    EndpointMissing(NodeId),
    /// Dealer and receiver coincide.
    DealerIsReceiver,
    /// A maximal corruption set mentions a node outside the graph.
    StructureEscapesGraph(NodeSet),
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::EndpointMissing(v) => write!(f, "endpoint {v} is not in the graph"),
            InstanceError::DealerIsReceiver => write!(f, "dealer and receiver coincide"),
            InstanceError::StructureEscapesGraph(s) => {
                write!(f, "corruption set {s} mentions nodes outside the graph")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl Instance {
    /// Creates an instance with a uniform view kind.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the endpoints are invalid or the
    /// structure mentions unknown nodes.
    pub fn new(
        graph: Graph,
        adversary: AdversaryStructure,
        views: ViewKind,
        dealer: NodeId,
        receiver: NodeId,
    ) -> Result<Self, InstanceError> {
        let assignment = ViewAssignment::uniform(&graph, views);
        Instance::with_views(graph, adversary, assignment, dealer, receiver)
    }

    /// Creates an instance with an explicit (possibly non-uniform) view
    /// assignment.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the endpoints are invalid or the
    /// structure mentions unknown nodes.
    pub fn with_views(
        graph: Graph,
        adversary: AdversaryStructure,
        views: ViewAssignment,
        dealer: NodeId,
        receiver: NodeId,
    ) -> Result<Self, InstanceError> {
        if !graph.contains_node(dealer) {
            return Err(InstanceError::EndpointMissing(dealer));
        }
        if !graph.contains_node(receiver) {
            return Err(InstanceError::EndpointMissing(receiver));
        }
        if dealer == receiver {
            return Err(InstanceError::DealerIsReceiver);
        }
        if let Some(bad) = adversary
            .maximal_sets()
            .iter()
            .find(|m| !m.is_subset(graph.nodes()))
        {
            return Err(InstanceError::StructureEscapesGraph(bad.clone()));
        }
        Ok(Instance {
            graph,
            adversary: Arc::new(adversary),
            views,
            dealer,
            receiver,
        })
    }

    /// Rebuilds the instance around a mutated graph, **sharing** the
    /// adversary structure instead of cloning it.
    ///
    /// 𝒵 is reference-counted, so graph-only churn — the edge/node delta
    /// path of [`IncrementalEngine`](crate::engine::IncrementalEngine) —
    /// skips the structure copy, and when no node disappeared it also skips
    /// the per-set revalidation; both dominate apply latency once 𝒵 holds
    /// thousands of maximal sets. The views are recomputed uniformly with
    /// `kind` on the new graph.
    ///
    /// # Errors
    ///
    /// Returns an [`InstanceError`] if the endpoints left the graph or a
    /// removed node strands a corruption set outside it.
    pub fn with_graph(&self, graph: Graph, kind: ViewKind) -> Result<Self, InstanceError> {
        if !graph.contains_node(self.dealer) {
            return Err(InstanceError::EndpointMissing(self.dealer));
        }
        if !graph.contains_node(self.receiver) {
            return Err(InstanceError::EndpointMissing(self.receiver));
        }
        if !self.graph.nodes().is_subset(graph.nodes()) {
            if let Some(bad) = self
                .adversary
                .maximal_sets()
                .iter()
                .find(|m| !m.is_subset(graph.nodes()))
            {
                return Err(InstanceError::StructureEscapesGraph(bad.clone()));
            }
        }
        let views = ViewAssignment::uniform(&graph, kind);
        Ok(Instance {
            graph,
            adversary: Arc::clone(&self.adversary),
            views,
            dealer: self.dealer,
            receiver: self.receiver,
        })
    }

    /// The network graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The global adversary structure 𝒵.
    pub fn adversary(&self) -> &AdversaryStructure {
        &self.adversary
    }

    /// The view assignment γ.
    pub fn views(&self) -> &ViewAssignment {
        &self.views
    }

    /// The dealer D.
    pub fn dealer(&self) -> NodeId {
        self.dealer
    }

    /// The receiver R.
    pub fn receiver(&self) -> NodeId {
        self.receiver
    }

    /// γ(v): the subgraph player `v` knows.
    pub fn view(&self, v: NodeId) -> &Graph {
        self.views.view(v)
    }

    /// The domain V(γ(v)) of `v`'s knowledge.
    pub fn view_domain(&self, v: NodeId) -> NodeSet {
        self.view(v).nodes().clone()
    }

    /// 𝒵_v = 𝒵^{V(γ(v))}: the local adversary structure of `v`, as a plain
    /// monotone family over the view domain.
    ///
    /// Building it restricts every maximal set of 𝒵 and re-prunes the
    /// result. A caller that only asks whether one set is in 𝒵_v should
    /// use [`Instance::local_contains`], which answers without building it.
    pub fn local_structure(&self, v: NodeId) -> AdversaryStructure {
        self.adversary.restrict_sets(&self.view_domain(v))
    }

    /// `S ∈ 𝒵_v`, decided without building 𝒵_v: for monotone 𝒵,
    /// `S ∈ 𝒵^{A}` iff `S ⊆ A` and `S ∈ 𝒵`, with `A = V(γ(v))`.
    ///
    /// Proof: if `S = Z ∩ A` for some `Z ∈ 𝒵`, then `S ⊆ A` and `S ⊆ Z`, so
    /// `S ∈ 𝒵` by monotonicity; conversely, `S ⊆ A` and `S ∈ 𝒵` give
    /// `S = S ∩ A`. So `local_contains(v, s) == local_structure(v).contains(s)`
    /// for every `s`, at the cost of one subset test and one scan of 𝒵.
    pub fn local_contains(&self, v: NodeId, set: &NodeSet) -> bool {
        set.is_subset(self.view(v).nodes()) && self.adversary.contains(set)
    }

    /// The worst-case corruption sets to check resilience against: the
    /// maximal sets of 𝒵 with the (presumed honest) dealer and receiver
    /// removed, re-pruned to an antichain.
    ///
    /// Every admissible corruption avoiding D and R is a subset of one of
    /// these, and a protocol resilient against each of them is resilient
    /// against all admissible corruptions.
    pub fn worst_case_corruptions(&self) -> Vec<NodeSet> {
        let endpoints: NodeSet = [self.dealer, self.receiver].into_iter().collect();
        self.adversary
            .without_nodes(&endpoints)
            .maximal_sets()
            .to_vec()
    }

    /// `true` if the dealer and receiver are connected at all (otherwise the
    /// instance is trivially unsolvable).
    pub fn endpoints_connected(&self) -> bool {
        traversal::connected_avoiding(&self.graph, self.dealer, self.receiver, &NodeSet::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::generators;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn cycle_instance(t: usize) -> Instance {
        let g = generators::cycle(5);
        let z = rmt_adversary::threshold(g.nodes(), t);
        Instance::new(g, z, ViewKind::AdHoc, 0.into(), 2.into()).unwrap()
    }

    #[test]
    fn construction_validates_endpoints() {
        let g = generators::cycle(4);
        let z = AdversaryStructure::trivial();
        assert_eq!(
            Instance::new(g.clone(), z.clone(), ViewKind::Full, 9.into(), 1.into()).unwrap_err(),
            InstanceError::EndpointMissing(9.into())
        );
        assert_eq!(
            Instance::new(g.clone(), z.clone(), ViewKind::Full, 1.into(), 1.into()).unwrap_err(),
            InstanceError::DealerIsReceiver
        );
        let escaping = AdversaryStructure::from_sets([set(&[17])]);
        assert!(matches!(
            Instance::new(g, escaping, ViewKind::Full, 0.into(), 1.into()),
            Err(InstanceError::StructureEscapesGraph(_))
        ));
    }

    #[test]
    fn local_structure_is_the_trace_on_the_view() {
        let inst = cycle_instance(1);
        // Ad hoc view of node 1 on the 5-cycle: {0,1,2}.
        let z1 = inst.local_structure(1.into());
        assert!(z1.contains(&set(&[0])));
        assert!(!z1.contains(&set(&[0, 2]))); // two nodes exceed t=1 trace
        assert!(!z1.contains(&set(&[3]))); // outside the view
    }

    #[test]
    fn worst_case_corruptions_avoid_endpoints() {
        let inst = cycle_instance(2);
        let worst = inst.worst_case_corruptions();
        assert!(!worst.is_empty());
        for c in &worst {
            assert!(!c.contains(inst.dealer()));
            assert!(!c.contains(inst.receiver()));
            assert!(inst.adversary().contains(c));
        }
        // With t = 2 on a 5-cycle, the largest endpoint-free sets are the
        // 2-subsets of {1,3,4}.
        assert!(worst.contains(&set(&[3, 4])));
    }

    #[test]
    fn endpoints_connected_detects_isolation() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::Full,
            0.into(),
            4.into(),
        )
        .unwrap();
        assert!(!inst.endpoints_connected());
        assert!(cycle_instance(0).endpoints_connected());
    }
}
