//! Property tests for graph invariants: components partition the node set,
//! cuts separate, Menger duality, the pruned path walk agrees with path
//! enumeration, the separator stream agrees with its collected list, and
//! view/joint-view laws.

use std::ops::ControlFlow;

use proptest::prelude::*;
use rmt_graph::{cuts, generators, paths, separators, traversal, Graph, ViewAssignment, ViewKind};
use rmt_sets::{NodeId, NodeSet};

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..10, 0.0f64..1.0, any::<u64>())
        .prop_map(|(n, p, seed)| generators::gnp(n, p, &mut generators::seeded(seed)))
}

fn arb_connected() -> impl Strategy<Value = Graph> {
    (2usize..10, 0.0f64..0.6, any::<u64>())
        .prop_map(|(n, p, seed)| generators::gnp_connected(n, p, &mut generators::seeded(seed)))
}

/// `(g, from, to, every from–to path, the accepted ones)`.
type WalkCase = (Graph, NodeId, NodeId, Vec<Vec<NodeId>>, Vec<Vec<NodeId>>);

/// A walk case: a random graph, endpoints `from`/`to` (equal, unreachable
/// or adjacent ones included), optionally a dead-end branch off `from` that
/// reaches no `to`, and the accepted subset of the `from`–`to` paths
/// (each kept with probability 0, ¼, ½, ¾ or — half the time — 1).
fn arb_walk_case() -> impl Strategy<Value = WalkCase> {
    (
        arb_graph(),
        (any::<u32>(), any::<u32>()),
        (any::<bool>(), any::<bool>()),
        0u32..8,
        any::<u64>(),
    )
        .prop_map(|(mut g, (a, b), (adjacent, dead_end), quarters, seed)| {
            use rand::Rng as _;
            let n = g.node_count() as u32;
            let (from, to) = (NodeId::new(a % n), NodeId::new(b % n));
            if adjacent && from != to {
                g.add_edge(from, to);
            }
            if dead_end {
                g.add_edge(from, NodeId::new(n));
                g.add_edge(NodeId::new(n), NodeId::new(n + 1));
            }
            let all = paths::simple_paths(&g, from, to, 100_000).unwrap();
            let mut rng = generators::seeded(seed);
            let rate = (f64::from(quarters) / 4.0).min(1.0);
            let accepted = all
                .iter()
                .filter(|_| rng.random_bool(rate))
                .cloned()
                .collect();
            (g, from, to, all, accepted)
        })
}

proptest! {
    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let comps = traversal::components(&g);
        let mut union = NodeSet::new();
        for c in &comps {
            prop_assert!(!c.is_empty());
            prop_assert!(union.is_disjoint(c));
            union.union_with(c);
        }
        prop_assert_eq!(&union, g.nodes());
        // No edges across components.
        for (u, v) in g.edges() {
            prop_assert!(comps.iter().any(|c| c.contains(u) && c.contains(v)));
        }
    }

    #[test]
    fn menger_duality(g in arb_connected()) {
        let d = NodeId::new(0);
        let r = g.nodes().last().unwrap();
        if d != r && !g.has_edge(d, r) {
            let k = cuts::vertex_connectivity(&g, d, r).unwrap();
            let cut = cuts::min_vertex_cut(&g, d, r).unwrap();
            prop_assert_eq!(cut.len(), k);
            if k > 0 {
                prop_assert!(cuts::is_dr_cut(&g, d, r, &cut));
            }
            // No smaller subset separates: every (k-1)-subset of any minimal
            // cut fails. (Checked via the enumeration on these small graphs.)
            for c in cuts::minimal_dr_cuts(&g, d, r) {
                prop_assert!(c.len() >= k);
            }
            // Path count lower-bounds: there are at least k vertex-disjoint
            // paths, so at least k simple paths.
            if k > 0 {
                let n_paths = paths::count_simple_paths(&g, d, r, 100_000).unwrap();
                prop_assert!(n_paths >= k);
            }
        }
    }

    #[test]
    fn enumerated_paths_are_valid_and_distinct(g in arb_connected()) {
        let d = NodeId::new(0);
        let r = g.nodes().last().unwrap();
        if d != r {
            let ps = paths::simple_paths(&g, d, r, 100_000).unwrap();
            let mut seen = std::collections::HashSet::new();
            for p in &ps {
                prop_assert!(paths::is_simple_path(&g, p));
                prop_assert_eq!(p.first(), Some(&d));
                prop_assert_eq!(p.last(), Some(&r));
                prop_assert!(seen.insert(p.clone()));
            }
        }
    }

    #[test]
    fn walk_agrees_with_enumeration((g, from, to, all, accepted) in arb_walk_case()) {
        let keep = |p: &[NodeId]| accepted.iter().any(|a| a == p);
        let mut seen = Vec::new();
        let walked = paths::every_simple_path(&g, from, to, |p| {
            seen.push(p.to_vec());
            keep(p)
        });
        prop_assert_eq!(walked, all.iter().all(|p| keep(p)));
        // The walk meets the paths in enumeration order, up to its stop.
        prop_assert_eq!(&seen[..], &all[..seen.len()]);
    }

    #[test]
    fn walk_calls_keep_at_most_once_past_the_accepted((g, from, to, _all, accepted) in arb_walk_case()) {
        let mut calls = 0usize;
        paths::every_simple_path(&g, from, to, |p| {
            calls += 1;
            accepted.iter().any(|a| a == p)
        });
        prop_assert!(calls <= accepted.len() + 1);
    }

    #[test]
    fn induced_then_union_recovers_subgraphs(g in arb_graph(), mask_seed in any::<u64>()) {
        let mut rng = generators::seeded(mask_seed);
        use rand::Rng as _;
        let keep: NodeSet = g.nodes().iter().filter(|_| rng.random_bool(0.5)).collect();
        let a = g.induced(&keep);
        let b = g.induced(&g.nodes().difference(&keep));
        let u = a.union(&b);
        prop_assert_eq!(u.nodes(), g.nodes());
        // The union lacks exactly the crossing edges.
        prop_assert!(u.edge_count() <= g.edge_count());
        for (x, y) in u.edges() {
            prop_assert!(g.has_edge(x, y));
        }
    }

    #[test]
    fn joint_view_covers_individual_views(g in arb_connected()) {
        let gamma = ViewAssignment::uniform(&g, ViewKind::AdHoc);
        let joint = gamma.joint_view(g.nodes());
        // Joint over all nodes reconstructs the whole graph in the ad hoc model.
        prop_assert_eq!(joint.nodes(), g.nodes());
        prop_assert_eq!(joint.edge_count(), g.edge_count());
        // Radius views grow monotonically with k.
        for v in g.nodes() {
            let v1 = ViewKind::Radius(1).view_of(&g, v);
            let v2 = ViewKind::Radius(2).view_of(&g, v);
            prop_assert!(v1.nodes().is_subset(v2.nodes()));
        }
    }

    #[test]
    fn ball_matches_bfs_distances(g in arb_graph(), k in 0usize..4) {
        for v in g.nodes() {
            let ball = traversal::ball(&g, v, k);
            let dist = traversal::distances(&g, v);
            for u in g.nodes() {
                let within = dist[u.index()].is_some_and(|d| d as usize <= k);
                prop_assert_eq!(ball.contains(u), within);
            }
        }
    }
}

proptest! {
    /// The separator stream is the collected list in order, complete and
    /// duplicate-free against the brute-force subset filter; stopping after
    /// k visits generates exactly k separators (a prefix of the list); and a
    /// budget of k fails iff more than k separators exist.
    #[test]
    fn separator_stream_matches_the_collected_list(g in arb_graph()) {
        let mut g = g;
        let (a, b) = (NodeId::new(0), NodeId::new(g.node_count() as u32 - 1));
        g.remove_edge(a, b);
        let all = separators::minimal_separators(&g, a, b, usize::MAX).unwrap();
        let mut streamed = Vec::new();
        let end = separators::for_each_minimal_separator(&g, a, b, usize::MAX, |s| {
            streamed.push(s.clone());
            ControlFlow::<()>::Continue(())
        });
        prop_assert_eq!(end, Ok(None));
        prop_assert_eq!(&streamed, &all);
        let mut sorted = all.clone();
        sorted.sort();
        let mut brute: Vec<NodeSet> = cuts::minimal_dr_cuts(&g, a, b).collect();
        brute.sort();
        prop_assert_eq!(sorted, brute);

        for k in 1..=all.len() {
            let mut visited = Vec::new();
            let end = separators::for_each_minimal_separator(&g, a, b, k, |s| {
                visited.push(s.clone());
                if visited.len() == k {
                    ControlFlow::Break(k)
                } else {
                    ControlFlow::Continue(())
                }
            });
            prop_assert_eq!(end, Ok(Some(k)));
            prop_assert_eq!(&visited[..], &all[..k]);
        }
        for k in 0..=all.len() + 1 {
            match separators::minimal_separators(&g, a, b, k) {
                Ok(list) => prop_assert!(k >= all.len() && list == all),
                Err(err) => prop_assert!(k < all.len() && err.budget == k),
            }
        }
    }
}
