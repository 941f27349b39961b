//! Differential gate for the incremental decision engine: after every delta
//! of a random mutation stream, [`IncrementalEngine::decide_rmt`] /
//! [`IncrementalEngine::decide_zpp`] must return the **byte-identical**
//! witness of the from-scratch anchored deciders on the mutated instance —
//! certificate reuse must be unobservable in results. Budget-starved
//! engines must stay exact through their fallbacks too.

use proptest::prelude::*;
use rmt_core::cuts::{find_rmt_cut_anchored, zpp_cut_by_enumeration_anchored, AnchorBudget};
use rmt_core::engine::{Delta, IncrementalEngine};
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_graph::{generators, ViewKind};
use rmt_sets::NodeId;

fn cases() -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    ProptestConfig::with_cases(n)
}

fn view_of(sel: usize) -> ViewKind {
    [ViewKind::AdHoc, ViewKind::Full, ViewKind::Radius(2)][sel]
}

/// A delta stream as raw numbers: `(kind, u, v)` per step, decoded against
/// the current node count so streams stay well-formed as nodes appear.
fn stream() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..4, 0u32..12, 0u32..12), 1..10)
}

fn decode(step: (u32, u32, u32), n: u32, dealer: NodeId, receiver: NodeId) -> Option<Delta> {
    let (kind, u, v) = step;
    let (u, v) = (NodeId::new(u % n), NodeId::new(v % n));
    match kind {
        0 | 3 if u != v => Some(Delta::AddEdge(u, v)),
        1 if u != v => Some(Delta::RemoveEdge(u, v)),
        2 => Some(Delta::AddNode(NodeId::new(n))),
        _ => {
            // Degenerate pair: fall back to toggling an edge off the dealer
            // side, keeping the endpoints distinct.
            let w = if u == dealer || u == receiver {
                return None;
            } else {
                u
            };
            Some(Delta::RemoveEdge(dealer, w))
        }
    }
}

proptest! {
    #![proptest_config(cases())]

    /// Engine ≡ from-scratch anchored deciders after every delta, on random
    /// instances and mutation streams, across view kinds.
    #[test]
    fn incremental_equals_from_scratch(
        (n, seed, view_sel) in (6usize..10, 0u64..u64::MAX, 0usize..3),
        steps in stream(),
    ) {
        let view = view_of(view_sel);
        let mut rng = generators::seeded(seed);
        let inst = random_instance_nonadjacent(n, 0.35, view, 3, 2, &mut rng);
        let mut engine = IncrementalEngine::from_instance(&inst, view);
        prop_assert_eq!(engine.decide_rmt(), find_rmt_cut_anchored(engine.instance()));
        prop_assert_eq!(
            engine.decide_zpp(),
            zpp_cut_by_enumeration_anchored(engine.instance())
        );
        for step in steps {
            let nodes = engine.instance().graph().nodes().len() as u32;
            let Some(delta) = decode(step, nodes, inst.dealer(), inst.receiver()) else {
                continue;
            };
            engine.apply(delta.clone()).unwrap();
            prop_assert_eq!(
                engine.decide_rmt(),
                find_rmt_cut_anchored(engine.instance()),
                "rmt diverged after {:?}", delta
            );
            prop_assert_eq!(
                engine.decide_zpp(),
                zpp_cut_by_enumeration_anchored(engine.instance()),
                "zpp diverged after {:?}", delta
            );
        }
    }

    /// Budget-starved engines agree with equally starved from-scratch
    /// deciders, engines over a freshly built cache (the fallback paths are
    /// part of the byte-identity contract).
    #[test]
    fn starved_engine_matches_starved_decider(
        (n, seed) in (6usize..9, 0u64..u64::MAX),
        steps in stream(),
    ) {
        let budget = AnchorBudget { max_separators: 2, max_components_per_anchor: 4 };
        let mut rng = generators::seeded(seed);
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let mut engine =
            IncrementalEngine::from_instance(&inst, ViewKind::AdHoc).with_budget(budget);
        for step in steps {
            let nodes = engine.instance().graph().nodes().len() as u32;
            let Some(delta) = decode(step, nodes, inst.dealer(), inst.receiver()) else {
                continue;
            };
            engine.apply(delta).unwrap();
            let mut fresh = IncrementalEngine::from_instance(engine.instance(), ViewKind::AdHoc)
                .with_budget(budget);
            prop_assert_eq!(engine.decide_rmt(), fresh.decide_rmt());
            prop_assert_eq!(engine.decide_zpp(), fresh.decide_zpp());
        }
    }

    /// Structure changes mid-stream: the full-rebuild path stays exact.
    #[test]
    fn structure_churn_stays_exact(
        (n, seed) in (6usize..9, 0u64..u64::MAX),
        ts in proptest::collection::vec(0usize..4, 1..4),
    ) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance_nonadjacent(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let mut engine = IncrementalEngine::from_instance(&inst, ViewKind::AdHoc);
        engine.decide_rmt();
        for t in ts {
            let z = rmt_adversary::threshold(engine.instance().graph().nodes(), t);
            let stats = engine.apply(Delta::StructureChange(z)).unwrap();
            prop_assert!(stats.full_rebuild);
            prop_assert_eq!(engine.decide_rmt(), find_rmt_cut_anchored(engine.instance()));
            prop_assert_eq!(
                engine.decide_zpp(),
                zpp_cut_by_enumeration_anchored(engine.instance())
            );
        }
    }
}
