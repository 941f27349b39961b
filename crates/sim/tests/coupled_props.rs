//! Figure 2 beyond the diamond: on random connected graphs, any D–R vertex
//! cut, split any way into `C₁` and `C₂`, leaves every node on R's side of
//! the cut unable to tell the coupled runs apart.

use proptest::prelude::*;
use rand::Rng;
use rmt_graph::{generators, traversal};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{testing::Flood, CoupledRunner};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flood nodes that differ only in the dealer's input: in both runs `C₁`
    /// replays its e′ instance and `C₂` its e instance, so by induction on
    /// rounds every node of R's component `B` of `G ∖ C` receives the same
    /// messages, in the same rounds and order, in e and in e′.
    #[test]
    fn receiver_side_views_coincide_across_any_cut(
        (n, p, seed) in (5usize..12, 0.2f64..0.6, any::<u64>()),
    ) {
        let mut rng = generators::seeded(seed);
        let g = generators::gnp_connected(n, p, &mut rng);
        let d = NodeId::new(0);
        // R: a node farthest from D; a vertex cut needs them non-adjacent.
        let dist = traversal::distances(&g, d);
        let r = g.nodes().iter().max_by_key(|v| dist[v.index()]).expect("graph is non-empty");
        if dist[r.index()] < Some(2) {
            continue;
        }
        // B: grown at random from R, never adjacent to D ...
        let mut near_d = g.neighbors(d).clone();
        near_d.insert(d);
        let mut b = NodeSet::singleton(r);
        for _ in 0..n {
            for u in &traversal::neighborhood(&g, &b).difference(&near_d) {
                if rng.random_bool(0.4) {
                    b.insert(u);
                }
            }
        }
        // ... so its boundary plus any other nodes but D is a D–R cut whose
        // receiver-side component is exactly B.
        let mut cut = traversal::neighborhood(&g, &b);
        for v in &g.nodes().difference(&b) {
            if v != d && rng.random_bool(0.2) {
                cut.insert(v);
            }
        }
        prop_assert!(!cut.contains(d));
        prop_assert_eq!(traversal::component_of_avoiding(&g, r, &cut), b.clone());
        let c1: NodeSet = cut.iter().filter(|_| rng.random_bool(0.5)).collect();
        let c2 = cut.difference(&c1);

        let flood = |x: u64| move |v: NodeId| Flood::new(v, (v == d).then_some(x));
        let out = CoupledRunner::new(g, c1.clone(), c2.clone(), flood(0), flood(1)).run();
        for v in &b {
            prop_assert!(out.views_equal(v), "node {v}, C₁ = {c1}, C₂ = {c2}, B = {b}");
        }
    }
}
