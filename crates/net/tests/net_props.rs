//! Property tests for the fault model and the event-queue scheduler.

use std::collections::HashMap;

use proptest::prelude::*;
use rmt_graph::generators;
use rmt_net::{
    FaultPlan, FaultRng, FaultStats, LinkPolicy, MessageAdversary, NetRunner, Partition, Salt,
};
use rmt_obs::{RunEvent, VecObserver};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{testing::Flood, Envelope, NodeContext, Protocol, Runner, SilentAdversary};

fn arb_policy() -> impl Strategy<Value = LinkPolicy> {
    (
        0.0f64..0.4,
        0.0f64..0.6,
        1u32..4,
        0.0f64..0.3,
        any::<bool>(),
    )
        .prop_map(|(drop, delay, max_delay, duplicate, reorder)| LinkPolicy {
            drop,
            delay,
            max_delay,
            duplicate,
            reorder,
        })
}

fn arb_setup() -> impl Strategy<Value = (usize, f64, u64)> {
    (4usize..10, 0.3f64..0.8, any::<u64>())
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        arb_policy(),
        proptest::collection::vec((0u32..8, 0u32..8, arb_policy()), 0..5),
        proptest::collection::vec((0u32..8, 0u32..6), 0..4),
        proptest::collection::vec(
            (0u32..4, 0u32..8, proptest::collection::vec(0u32..8, 0..5)),
            0..3,
        ),
    )
        .prop_map(|(seed, default_policy, links, crashes, partitions)| {
            let mut plan = FaultPlan::new(seed).with_default_policy(default_policy);
            for (f, t, p) in links {
                plan = plan.with_link(f.into(), t.into(), p);
            }
            for (v, r) in crashes {
                plan = plan.with_crash(v.into(), r);
            }
            for (from_round, len, side) in partitions {
                plan = plan.with_partition(Partition {
                    from_round,
                    to_round: from_round + len,
                    side: side.into_iter().collect(),
                });
            }
            plan
        })
}

fn flood_from_zero(v: NodeId) -> Flood {
    Flood::new(v, (v.index() == 0).then_some(5))
}

/// `Flood` that records, per round it runs from 1 on, the inbox it was
/// handed as `(sender, payload in Debug form)`.
struct Recording {
    inner: Flood,
    inboxes: Vec<(u32, Vec<(u32, String)>)>,
}

impl Protocol for Recording {
    type Payload = u64;
    type Decision = u64;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, u64)> {
        self.inner.start(ctx)
    }

    fn on_round(&mut self, ctx: &NodeContext, inbox: &[Envelope<u64>]) -> Vec<(NodeId, u64)> {
        let seen = inbox
            .iter()
            .map(|env| (env.from.raw(), format!("{:?}", env.payload)))
            .collect();
        self.inboxes.push((ctx.round, seen));
        self.inner.on_round(ctx, inbox)
    }

    fn decision(&self) -> Option<u64> {
        self.inner.decision()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The scheduler under an empty plan agrees with the synchronous
    /// `Runner` on any connected random graph: identical event streams,
    /// metrics and decisions, and zero fault statistics.
    #[test]
    fn empty_plan_matches_runner_everywhere((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let corrupt = NodeSet::singleton(NodeId::new(1));
        let mut obs_sync = VecObserver::new();
        let sync = Runner::new(g.clone(), flood_from_zero, SilentAdversary::new(corrupt.clone()))
            .run_observed(&mut obs_sync);
        let mut obs_net = VecObserver::new();
        let net = NetRunner::new(
            g.clone(),
            flood_from_zero,
            SilentAdversary::new(corrupt),
            FaultPlan::new(seed),
        )
        .run_observed(&mut obs_net);
        prop_assert_eq!(&obs_sync.events, &obs_net.events);
        prop_assert_eq!(&sync.metrics, &net.metrics);
        prop_assert_eq!(&net.faults, &FaultStats::default());
        for v in g.nodes() {
            prop_assert_eq!(sync.decision(v), net.decision(v));
        }
    }

    /// Under any faulty plan the event stream is a complete record of what
    /// each node saw: for every honest node and every round from 1 on in
    /// which it is not crashed, the inbox its `on_round` was handed equals,
    /// in order, that round's `Delivery` events addressed to it.
    #[test]
    fn honest_inboxes_equal_the_delivery_events((n, p, seed) in arb_setup(), plan in arb_plan()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::new();
        let out = NetRunner::new(
            g.clone(),
            |v| Recording { inner: flood_from_zero(v), inboxes: Vec::new() },
            SilentAdversary::new(NodeSet::singleton(NodeId::new(1))),
            plan.clone(),
        )
        .run_observed(&mut obs);
        let mut streamed: HashMap<(u32, u32), Vec<(u32, String)>> = HashMap::new();
        for ev in &obs.events {
            if let RunEvent::Delivery { round, from, to, payload } = ev {
                streamed.entry((*to, *round)).or_default().push((*from, payload.clone()));
            }
        }
        for v in g.nodes() {
            let Some(node) = out.protocol(v) else { continue };
            let rounds: Vec<u32> = node.inboxes.iter().map(|(r, _)| *r).collect();
            let live: Vec<u32> = (1..=out.metrics.rounds).filter(|&r| !plan.crashed(v, r)).collect();
            prop_assert_eq!(rounds, live);
            for (round, inbox) in &node.inboxes {
                let events = streamed.get(&(v.raw(), *round)).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(inbox.as_slice(), events, "node {}, round {}", v, round);
            }
        }
    }

    /// Faulty runs are a pure function of `(graph, plan)`: re-running
    /// produces bit-identical event streams, metrics, fault statistics and
    /// decisions.
    #[test]
    fn faulty_runs_replay_bit_identically(
        (n, p, seed) in arb_setup(),
        policy in arb_policy(),
        fault_seed in any::<u64>(),
    ) {
        let run = || {
            let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
            let plan = FaultPlan::new(fault_seed).with_default_policy(policy);
            let mut obs = VecObserver::new();
            let out = NetRunner::new(
                g,
                flood_from_zero,
                SilentAdversary::new(NodeSet::new()),
                plan,
            )
            .run_observed(&mut obs);
            let decided = out.decided();
            (obs.events, out.metrics, out.faults, decided)
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// Observation is transparent for the faulty scheduler too: the noop
    /// path and the observed path agree on metrics, faults and decisions.
    #[test]
    fn observed_faulty_runs_match_unobserved(
        (n, p, seed) in arb_setup(),
        policy in arb_policy(),
        fault_seed in any::<u64>(),
    ) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let plan = FaultPlan::new(fault_seed).with_default_policy(policy);
        let plain = NetRunner::new(
            g.clone(),
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan.clone(),
        )
        .run();
        let mut obs = VecObserver::new();
        let observed = NetRunner::new(
            g.clone(),
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run_observed(&mut obs);
        prop_assert_eq!(&plain.metrics, &observed.metrics);
        prop_assert_eq!(&plain.faults, &observed.faults);
        for v in g.nodes() {
            prop_assert_eq!(plain.decision(v), observed.decision(v));
        }
        prop_assert!(!obs.events.is_empty());
    }

    /// Drops only ever remove traffic: every fault statistic is consistent
    /// with the metrics (a lost message was still sent and paid for), and a
    /// fully partitioned network delivers nothing across the cut.
    #[test]
    fn fault_accounting_is_consistent(
        (n, p, seed) in arb_setup(),
        policy in arb_policy(),
        fault_seed in any::<u64>(),
    ) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let plan = FaultPlan::new(fault_seed).with_default_policy(policy);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        let sent = out.metrics.honest_messages + out.metrics.adversarial_messages;
        prop_assert!(out.faults.lost() <= sent);
        prop_assert!(out.faults.max_observed_delay <= 3); // arb_policy bound
        if policy.duplicate == 0.0 {
            prop_assert_eq!(out.faults.duplicated, 0);
        }
    }

    /// `FaultRng` is stateless: every draw is a pure function of
    /// `(seed, round, from, to, k, salt)`. Querying the same coordinates in
    /// reverse order, interleaved with arbitrary unrelated draws, yields
    /// bit-identical values — so a message's fate never depends on how much
    /// *other* traffic the network carried or in what order it was decided.
    #[test]
    fn fault_rng_decisions_depend_only_on_message_coordinates(
        seed in any::<u64>(),
        coords in proptest::collection::vec((0u32..64, 0u32..16, 0u32..16, 0u32..8), 1..40),
        noise in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            0..20,
        ),
    ) {
        let salts = [
            Salt::Drop,
            Salt::Duplicate,
            Salt::Delay(0),
            Salt::DelayAmount(1),
            Salt::Sequence(2),
        ];
        let rng = FaultRng::new(seed);
        let forward: Vec<Vec<u64>> = coords
            .iter()
            .map(|&(r, f, t, k)| salts.iter().map(|&s| rng.draw(r, f, t, k, s)).collect())
            .collect();
        // Fresh source, reverse visit order, unrelated draws in between:
        // a stateful generator would diverge, a stateless one cannot.
        let replay = FaultRng::new(seed);
        let mut backward: Vec<Vec<u64>> = coords
            .iter()
            .rev()
            .map(|&(r, f, t, k)| {
                for &(nr, nf, nt, nk) in &noise {
                    let _ = replay.draw(nr, nf, nt, nk, Salt::Drop);
                    let _ = replay.unit(nr, nf, nt, nk, Salt::Duplicate);
                }
                salts.iter().map(|&s| replay.draw(r, f, t, k, s)).collect()
            })
            .collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
        for &(r, f, t, k) in &coords {
            let u = rng.unit(r, f, t, k, Salt::Drop);
            prop_assert!((0.0..1.0).contains(&u));
            prop_assert_eq!(u, rng.unit(r, f, t, k, Salt::Drop));
        }
    }

    /// Every constructible plan round-trips through JSON, and the encoding
    /// is canonical (encode → decode → encode is a textual fixpoint).
    #[test]
    fn plans_round_trip_through_json(plan in arb_plan()) {
        let text = plan.to_json().encode();
        let back = FaultPlan::from_json_str(&text).expect("self-encoded plans decode");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.to_json().encode(), text);
    }

    /// A focused message adversary with budget covering all focus-touching
    /// traffic starves exactly its focus node: it never decides, and every
    /// lost message is billed to suppression.
    #[test]
    fn focused_suppression_starves_only_the_focus((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let target = NodeId::new(n as u32 - 1);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(seed),
        )
        .with_message_adversary(MessageAdversary::focused(
            10_000,
            NodeSet::singleton(target),
        ))
        .run();
        prop_assert_eq!(out.decision(target), None);
        prop_assert!(out.faults.suppressed > 0);
        prop_assert_eq!(out.faults.lost(), out.faults.suppressed);
    }

    /// A total partition isolates the two sides for its whole duration: if
    /// it never heals, no node across the cut ever decides.
    #[test]
    fn permanent_partition_blocks_the_far_side((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let side = NodeSet::singleton(NodeId::new(0));
        let plan = FaultPlan::new(seed).with_partition(Partition {
            from_round: 0,
            to_round: u32::MAX,
            side,
        });
        let out = NetRunner::new(
            g.clone(),
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        prop_assert_eq!(out.decision(0.into()), Some(5)); // its own input
        for v in g.nodes().iter().filter(|v| v.index() != 0) {
            prop_assert_eq!(out.decision(v), None);
        }
    }
}
