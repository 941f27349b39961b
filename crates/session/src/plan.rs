//! [`SessionPlan`]: the per-(instance, dealer, receiver) state a batched
//! session precomputes **once** instead of once per payload.
//!
//! The per-message protocol rebuilds the same data for every transmitted
//! value: each node's view clone, each node's local adversary structure
//! (`Instance::local_structure` intersects the global structure with the
//! view — the expensive part), and the receiver's validation state. A
//! `SessionPlan` hoists all of that out of the per-payload path; a
//! [`Session`](crate::Session) then streams any number of payloads through
//! one set of protocol instances built from the plan.

use rmt_adversary::AdversaryStructure;
use rmt_core::protocols::pka_decision::DecisionConfig;
use rmt_core::Instance;
use rmt_graph::Graph;
use rmt_sets::NodeId;

/// One node's precomputed announcement content: what its type-2 knowledge
/// message carries, fixed for the whole session.
#[derive(Clone, Debug)]
pub struct NodeKnowledge {
    /// The node's view γ(v).
    pub view: Graph,
    /// The node's local structure 𝒵_v.
    pub structure: AdversaryStructure,
}

/// Precomputed routing/knowledge state for one (instance, dealer, receiver)
/// triple, shared by every payload of a session.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    graph: Graph,
    dealer: NodeId,
    receiver: NodeId,
    cfg: DecisionConfig,
    /// Indexed by `NodeId::index()`; `None` for gaps in the id space.
    knowledge: Vec<Option<NodeKnowledge>>,
}

impl SessionPlan {
    /// Precomputes the plan for `inst` with default decision budgets.
    pub fn build(inst: &Instance) -> Self {
        let graph = inst.graph().clone();
        let size = graph.nodes().last().map_or(0, |v| v.index() + 1);
        let mut knowledge: Vec<Option<NodeKnowledge>> = (0..size).map(|_| None).collect();
        for v in graph.nodes() {
            knowledge[v.index()] = Some(NodeKnowledge {
                view: inst.view(v).clone(),
                structure: inst.local_structure(v),
            });
        }
        SessionPlan {
            graph,
            dealer: inst.dealer(),
            receiver: inst.receiver(),
            cfg: DecisionConfig::default(),
            knowledge,
        }
    }

    /// The communication graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The dealer D.
    pub fn dealer(&self) -> NodeId {
        self.dealer
    }

    /// The receiver R.
    pub fn receiver(&self) -> NodeId {
        self.receiver
    }

    /// The receiver's decision budgets.
    pub fn decision_config(&self) -> &DecisionConfig {
        &self.cfg
    }

    /// Node `v`'s precomputed knowledge content.
    ///
    /// # Panics
    ///
    /// If `v` is not a node of the plan's graph.
    pub fn knowledge(&self, v: NodeId) -> &NodeKnowledge {
        self.knowledge
            .get(v.index())
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("node {v} is not in the session plan"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_core::gallery;
    use rmt_graph::ViewKind;

    #[test]
    fn plan_matches_instance_knowledge() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        assert_eq!(plan.dealer(), inst.dealer());
        assert_eq!(plan.receiver(), inst.receiver());
        assert_eq!(plan.graph(), inst.graph());
        for v in inst.graph().nodes() {
            let k = plan.knowledge(v);
            assert_eq!(&k.view, inst.view(v), "view of {v}");
            assert_eq!(k.structure, inst.local_structure(v), "structure of {v}");
        }
    }

    #[test]
    #[should_panic(expected = "not in the session plan")]
    fn unknown_node_panics() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let _ = plan.knowledge(99.into());
    }
}
