//! Property tests on the scheduler's physical model: authenticated
//! channels, edge-only delivery, metric consistency, and determinism.

use proptest::prelude::*;
use rmt_graph::generators;
use rmt_obs::{RunEvent, VecObserver};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{testing::Flood, Envelope, FnAdversary, Runner, SilentAdversary};

fn arb_setup() -> impl Strategy<Value = (usize, f64, u64)> {
    (3usize..12, 0.2f64..0.8, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Deliveries only ever arrive along edges, between real nodes, with
    /// non-decreasing rounds.
    #[test]
    fn deliveries_respect_the_topology((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::new();
        let out = Runner::new(
            g.clone(),
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::new()),
        )
        .run_observed(&mut obs);
        let deliveries: Vec<(u32, NodeId, NodeId)> = obs
            .events
            .iter()
            .filter_map(|ev| match ev {
                RunEvent::Delivery { round, from, to, .. } => {
                    Some((*round, NodeId::new(*from), NodeId::new(*to)))
                }
                _ => None,
            })
            .collect();
        prop_assert_eq!(deliveries.len() as u64, out.metrics.honest_messages);
        prop_assert!(deliveries.windows(2).all(|w| w[0].0 <= w[1].0));
        for (_, from, to) in deliveries {
            prop_assert!(g.has_edge(from, to));
        }
    }

    /// Per-round message counters sum to the total, and the per-round
    /// vector has one entry per executed round plus the initial sends.
    #[test]
    fn metrics_are_internally_consistent((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let out = Runner::new(
            g,
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::new()),
        )
        .run();
        let m = &out.metrics;
        let per_round: u64 = m.honest_messages_per_round.iter().sum();
        prop_assert_eq!(per_round, m.honest_messages);
        prop_assert_eq!(m.honest_messages_per_round.len() as u32, m.rounds + 1);
        prop_assert_eq!(m.honest_bits, m.honest_messages * 64);
        prop_assert_eq!(m.adversarial_messages, 0);
    }

    /// Runs are deterministic: identical inputs produce identical outcomes.
    #[test]
    fn runs_are_deterministic((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let corrupt = NodeSet::singleton(NodeId::new(1));
        let run = || {
            Runner::new(
                g.clone(),
                |v| Flood::new(v, (v.index() == 0).then_some(5)),
                SilentAdversary::new(corrupt.clone()),
            )
            .run()
        };
        let (a, b) = (run(), run());
        for v in g.nodes() {
            prop_assert_eq!(a.decision(v), b.decision(v));
        }
        prop_assert_eq!(&a.metrics, &b.metrics);
    }

    /// Adversarial envelopes violating the model (wrong sender or non-edge)
    /// are always rejected; valid ones always pass.
    #[test]
    fn adversarial_filtering_is_exact((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let corrupt = NodeSet::singleton(NodeId::new(1));
        let nbrs = g.neighbors(NodeId::new(1)).clone();
        let valid_targets = nbrs.len() as u64;
        let adv = FnAdversary::<u64, _>::new(corrupt, move |round, g2, _| {
            if round != 0 {
                return vec![];
            }
            let mut out = Vec::new();
            // One valid envelope per neighbour…
            for to in g2.neighbors(NodeId::new(1)) {
                out.push(Envelope::new(NodeId::new(1), to, 9u64));
            }
            // …and two invalid ones.
            out.push(Envelope::new(NodeId::new(0), NodeId::new(1), 9)); // forged sender
            out.push(Envelope::new(NodeId::new(1), NodeId::new(1), 9)); // self loop
            out
        });
        let out = Runner::new(g, |v| Flood::new(v, None), adv).run();
        prop_assert_eq!(out.metrics.adversarial_messages, valid_targets);
        prop_assert_eq!(out.metrics.rejected_adversarial, 2);
    }
}
