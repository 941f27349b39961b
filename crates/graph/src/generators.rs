//! Deterministic instance-family generators.
//!
//! All random generators take an explicit RNG (use [`seeded`] for
//! reproducibility) so every experiment in the workspace is replayable
//! bit-for-bit.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rmt_sets::NodeId;

use crate::graph::Graph;

/// A reproducible RNG for generators and experiment samplers.
pub fn seeded(seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed)
}

/// The complete graph K_n on nodes `0..n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for u in 0..n {
        for v in u + 1..n {
            g.add_edge(NodeId::new(u as u32), NodeId::new(v as u32));
        }
    }
    g
}

/// The path 0 – 1 – … – (n-1).
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for v in 1..n {
        g.add_edge(NodeId::new(v as u32 - 1), NodeId::new(v as u32));
    }
    g
}

/// The cycle 0 – 1 – … – (n-1) – 0.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = path_graph(n);
    g.add_edge(NodeId::new(0), NodeId::new(n as u32 - 1));
    g
}

/// The `w × h` grid; node `(x, y)` has id `y*w + x`.
pub fn grid(w: usize, h: usize) -> Graph {
    let mut g = Graph::with_nodes(w * h);
    let id = |x: usize, y: usize| NodeId::new((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_edge(id(x, y), id(x + 1, y));
            }
            if y + 1 < h {
                g.add_edge(id(x, y), id(x, y + 1));
            }
        }
    }
    g
}

/// The `w × h` king grid: the grid plus both diagonals in every cell, i.e.
/// nodes are adjacent iff they are within Chebyshev distance 1 (the moves of
/// a chess king).
///
/// Interior nodes have degree 8; the graph is locally dense enough for
/// certified propagation to sweep it under a global threshold `t = 1`, which
/// makes it the scaling family of experiment E6b.
pub fn king_grid(w: usize, h: usize) -> Graph {
    let mut g = grid(w, h);
    let id = |x: usize, y: usize| NodeId::new((y * w + x) as u32);
    for y in 0..h.saturating_sub(1) {
        for x in 0..w.saturating_sub(1) {
            g.add_edge(id(x, y), id(x + 1, y + 1));
            g.add_edge(id(x + 1, y), id(x, y + 1));
        }
    }
    g
}

/// Erdős–Rényi G(n, p).
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut g = Graph::with_nodes(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p) {
                g.add_edge(NodeId::new(u as u32), NodeId::new(v as u32));
            }
        }
    }
    g
}

/// G(n, p) forced connected: a uniformly random spanning tree (random walk
/// attachment) is laid down first, then each remaining pair gets an edge
/// with probability `p`.
pub fn gnp_connected(n: usize, p: f64, rng: &mut impl Rng) -> Graph {
    let mut g = Graph::with_nodes(n);
    // Random attachment tree over a random node order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    for i in 1..order.len() {
        let parent = order[rng.random_range(0..i)];
        g.add_edge(NodeId::new(order[i]), NodeId::new(parent));
    }
    for u in 0..n {
        for v in u + 1..n {
            let (u, v) = (NodeId::new(u as u32), NodeId::new(v as u32));
            if !g.has_edge(u, v) && rng.random_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A layered (generalized-butterfly-style) network: `layers` layers of
/// `width` nodes each, a dealer in front and a receiver behind, with each
/// pair of adjacent-layer nodes connected with probability `p` (plus a
/// matching edge to guarantee forward connectivity).
///
/// Node ids: dealer `0`; layer `l` node `i` is `1 + l*width + i`; receiver
/// is the last id. Returns `(graph, dealer, receiver)`.
pub fn layered(layers: usize, width: usize, p: f64, rng: &mut impl Rng) -> (Graph, NodeId, NodeId) {
    assert!(layers >= 1 && width >= 1);
    let d = NodeId::new(0);
    let r = NodeId::new((1 + layers * width) as u32);
    let mut g = Graph::with_nodes(2 + layers * width);
    let id = |l: usize, i: usize| NodeId::new((1 + l * width + i) as u32);
    for i in 0..width {
        g.add_edge(d, id(0, i));
        g.add_edge(id(layers - 1, i), r);
    }
    for l in 1..layers {
        for i in 0..width {
            g.add_edge(id(l - 1, i), id(l, i)); // guaranteed matching
            for j in 0..width {
                if i != j && rng.random_bool(p) {
                    g.add_edge(id(l - 1, i), id(l, j));
                }
            }
        }
    }
    (g, d, r)
}

/// The `d`-dimensional hypercube: nodes `0..2^d`, edges between ids at
/// Hamming distance 1.
///
/// # Panics
///
/// Panics if `d > 16` (the node count would exceed the experiment scale).
pub fn hypercube(d: usize) -> Graph {
    assert!(
        d <= 16,
        "hypercube dimension {d} is beyond experiment scale"
    );
    let n = 1usize << d;
    let mut g = Graph::with_nodes(n);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                g.add_edge(NodeId::new(v as u32), NodeId::new(u as u32));
            }
        }
    }
    g
}

/// The complete bipartite graph K_{a,b}: sides `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::with_nodes(a + b);
    for u in 0..a {
        for v in a..a + b {
            g.add_edge(NodeId::new(u as u32), NodeId::new(v as u32));
        }
    }
    g
}

/// A ring of `n` nodes with `chords` extra random chords (deduplicated).
pub fn ring_with_chords(n: usize, chords: usize, rng: &mut impl Rng) -> Graph {
    let mut g = cycle(n);
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < chords * 20 {
        attempts += 1;
        let u = rng.random_range(0..n as u32);
        let v = rng.random_range(0..n as u32);
        if u != v && g.add_edge(NodeId::new(u), NodeId::new(v)) {
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn complete_graph_counts() {
        let g = complete(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 2);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 7); // 2*2 horizontal + 3 vertical... 4+3
        assert!(g.has_edge(0.into(), 3.into()));
        assert!(g.has_edge(0.into(), 1.into()));
        assert!(!g.has_edge(2.into(), 3.into()));
    }

    #[test]
    fn king_grid_adds_diagonals() {
        let g = king_grid(3, 3);
        assert_eq!(g.node_count(), 9);
        // 12 grid edges + 2 diagonals per cell × 4 cells.
        assert_eq!(g.edge_count(), 20);
        assert!(g.has_edge(0.into(), 4.into())); // (0,0)-(1,1)
        assert!(g.has_edge(1.into(), 3.into())); // (1,0)-(0,1)
        assert_eq!(g.degree(4.into()), 8); // centre is a king
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = seeded(1);
        assert_eq!(gnp(6, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng).edge_count(), 15);
    }

    #[test]
    fn gnp_connected_is_connected() {
        let mut rng = seeded(7);
        for n in [2usize, 5, 12, 30] {
            let g = gnp_connected(n, 0.05, &mut rng);
            assert!(traversal::is_connected(&g), "n = {n}");
            assert_eq!(g.node_count(), n);
        }
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = gnp_connected(15, 0.2, &mut seeded(42));
        let b = gnp_connected(15, 0.2, &mut seeded(42));
        let c = gnp_connected(15, 0.2, &mut seeded(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn layered_network_connects_dealer_to_receiver() {
        let mut rng = seeded(3);
        let (g, d, r) = layered(3, 4, 0.3, &mut rng);
        assert_eq!(g.node_count(), 14);
        assert!(traversal::connected_avoiding(
            &g,
            d,
            r,
            &rmt_sets::NodeSet::new()
        ));
        assert_eq!(g.degree(d), 4);
        assert_eq!(g.degree(r), 4);
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(3);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 12);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 3);
        }
        assert!(g.has_edge(0.into(), 4.into()));
        assert!(!g.has_edge(0.into(), 3.into())); // Hamming distance 2
    }

    #[test]
    fn complete_bipartite_structure() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert!(!g.has_edge(0.into(), 1.into())); // same side
        assert!(g.has_edge(0.into(), 4.into()));
    }

    #[test]
    fn ring_with_chords_adds_chords() {
        let mut rng = seeded(9);
        let g = ring_with_chords(10, 3, &mut rng);
        assert_eq!(g.edge_count(), 13);
        assert!(traversal::is_connected(&g));
    }
}
