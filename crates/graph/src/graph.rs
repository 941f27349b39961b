use std::fmt;

use rmt_sets::{NodeId, NodeSet};

/// An undirected graph over a shared [`NodeId`] space with an explicit set of
/// present nodes.
///
/// Keeping the present set explicit (rather than renumbering) means that
/// subgraphs — views γ(v), induced graphs G_M, damaged graphs G∖C — all speak
/// about the *same* node identities, which is essential for the set algebra
/// of the RMT characterizations. Absent nodes simply have no incident edges.
///
/// Invariants:
/// * adjacency is symmetric;
/// * every edge endpoint is a present node;
/// * no self-loops.
///
/// # Example
///
/// ```
/// use rmt_graph::Graph;
/// use rmt_sets::NodeSet;
///
/// let mut g = Graph::new();
/// g.add_edge(0.into(), 5.into()); // nodes are added implicitly
/// assert_eq!(g.node_count(), 2);
/// assert!(g.has_edge(5.into(), 0.into()));
/// assert_eq!(g.neighbors(0.into()), &NodeSet::singleton(5.into()));
/// ```
#[derive(Clone, Default)]
pub struct Graph {
    nodes: NodeSet,
    adj: Vec<NodeSet>,
    edge_count: usize,
}

/// Equality is semantic — same present nodes, same edges — regardless of how
/// the graph was built. The adjacency vector's length is a storage artifact
/// (an induced subgraph keeps the parent's span, a graph rebuilt from a wire
/// encoding ends at its highest node), and must not distinguish graphs.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.edge_count == other.edge_count
            && self
                .nodes
                .iter()
                .all(|v| self.adj[v.index()] == other.adj[v.index()])
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph (no nodes, no edges).
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with present nodes `0..n` and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            nodes: NodeSet::universe(n),
            adj: vec![NodeSet::new(); n],
            edge_count: 0,
        }
    }

    /// The set of present nodes.
    pub fn nodes(&self) -> &NodeSet {
        &self.nodes
    }

    /// Number of present nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if `v` is present.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.contains(v)
    }

    /// Makes `v` present (with no edges if new). Returns `true` if it was
    /// absent.
    pub fn add_node(&mut self, v: NodeId) -> bool {
        if v.index() >= self.adj.len() {
            self.adj.resize(v.index() + 1, NodeSet::new());
        }
        self.nodes.insert(v)
    }

    /// Adds the undirected edge `{u, v}`, implicitly adding absent endpoints.
    /// Returns `true` if the edge was new.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`u == v`).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        assert_ne!(u, v, "self-loops are not allowed");
        self.add_node(u);
        self.add_node(v);
        let new = self.adj[u.index()].insert(v);
        self.adj[v.index()].insert(u);
        if new {
            self.edge_count += 1;
        }
        new
    }

    /// Removes the edge `{u, v}` if present. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let existed = u.index() < self.adj.len()
            && v.index() < self.adj.len()
            && self.adj[u.index()].remove(v);
        if existed {
            self.adj[v.index()].remove(u);
            self.edge_count -= 1;
        }
        existed
    }

    /// Returns `true` if the edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.adj.len() && self.adj[u.index()].contains(v)
    }

    /// The open neighbourhood 𝒩(v).
    ///
    /// # Panics
    ///
    /// Panics if `v` is absent.
    pub fn neighbors(&self, v: NodeId) -> &NodeSet {
        assert!(self.contains_node(v), "node {v} is not present");
        &self.adj[v.index()]
    }

    /// The degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Iterates over the edges as ordered pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.iter().flat_map(move |u| {
            self.adj[u.index()]
                .iter()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// The subgraph induced on `keep ∩ nodes` (same node identities).
    pub fn induced(&self, keep: &NodeSet) -> Graph {
        let nodes = self.nodes.intersection(keep);
        let mut adj = vec![NodeSet::new(); self.adj.len()];
        let mut edge_count = 0;
        for v in &nodes {
            let nbrs = self.adj[v.index()].intersection(&nodes);
            edge_count += nbrs.len();
            adj[v.index()] = nbrs;
        }
        Graph {
            nodes,
            adj,
            edge_count: edge_count / 2,
        }
    }

    /// The graph with the nodes of `removed` (and incident edges) deleted:
    /// `G ∖ C`.
    pub fn without_nodes(&self, removed: &NodeSet) -> Graph {
        self.induced(&self.nodes.difference(removed))
    }

    /// The union of two graphs over the shared id space: joint views
    /// γ(S) = (∪ V_v, ∪ E_v).
    pub fn union(&self, other: &Graph) -> Graph {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &Graph) {
        if other.adj.len() > self.adj.len() {
            self.adj.resize(other.adj.len(), NodeSet::new());
        }
        for v in &other.nodes {
            self.add_node(v);
        }
        let mut edge_count = 0;
        for (a, b) in self.adj.iter_mut().zip(&other.adj) {
            a.union_with(b);
        }
        for v in &self.nodes {
            edge_count += self.adj[v.index()].len();
        }
        self.edge_count = edge_count / 2;
    }

    /// Renders the graph in GraphViz DOT format (for the examples).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "graph {name} {{");
        for v in &self.nodes {
            let _ = writeln!(s, "  {};", v.raw());
        }
        for (u, v) in self.edges() {
            let _ = writeln!(s, "  {} -- {};", u.raw(), v.raw());
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph({} nodes, {} edges: {:?})",
            self.node_count(),
            self.edge_count(),
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_ignores_adjacency_span() {
        // An induced subgraph keeps the parent's adjacency span; a graph
        // rebuilt edge by edge ends at its highest node. Same nodes, same
        // edges — must be equal.
        let mut parent = Graph::with_nodes(6);
        parent.add_edge(0.into(), 1.into());
        parent.add_edge(4.into(), 5.into());
        let view = parent.induced(&set(&[0, 1]));
        let mut rebuilt = Graph::new();
        rebuilt.add_edge(0.into(), 1.into());
        assert_eq!(view, rebuilt);
        assert_eq!(rebuilt, view);
        // And a genuinely different edge set stays unequal.
        let mut other = Graph::new();
        other.add_node(0.into());
        other.add_node(1.into());
        assert_ne!(view, other);
    }

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn add_edge_adds_nodes_and_is_symmetric() {
        let mut g = Graph::new();
        assert!(g.add_edge(0.into(), 2.into()));
        assert!(!g.add_edge(2.into(), 0.into()));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0.into(), 2.into()) && g.has_edge(2.into(), 0.into()));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loops_rejected() {
        Graph::new().add_edge(1.into(), 1.into());
    }

    #[test]
    fn remove_edge_keeps_nodes() {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        assert!(g.remove_edge(1.into(), 0.into()));
        assert!(!g.remove_edge(1.into(), 0.into()));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0.into()), 0);
    }

    #[test]
    fn induced_subgraph_keeps_identities() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(3.into(), 4.into());
        let h = g.induced(&set(&[1, 2, 3, 4]));
        assert_eq!(h.nodes(), &set(&[1, 2, 3, 4]));
        assert!(h.has_edge(1.into(), 2.into()));
        assert!(h.has_edge(3.into(), 4.into()));
        assert!(!h.has_edge(0.into(), 1.into()));
        assert_eq!(h.edge_count(), 2);
    }

    #[test]
    fn without_nodes_is_complement_induced() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let h = g.without_nodes(&set(&[1]));
        assert_eq!(h.nodes(), &set(&[0, 2, 3]));
        assert_eq!(h.edge_count(), 0);
    }

    #[test]
    fn union_merges_views() {
        let mut a = Graph::new();
        a.add_edge(0.into(), 1.into());
        let mut b = Graph::new();
        b.add_edge(1.into(), 2.into());
        b.add_node(9.into());
        let u = a.union(&b);
        assert_eq!(u.nodes(), &set(&[0, 1, 2, 9]));
        assert_eq!(u.edge_count(), 2);
        assert_eq!(u.neighbors(1.into()), &set(&[0, 2]));
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 2.into());
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e.len(), 3);
        assert!(e.iter().all(|(u, v)| u < v));
    }

    #[test]
    fn dot_export_mentions_every_edge() {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 1"));
        assert!(dot.starts_with("graph g {"));
    }
}
