//! Observer transparency: instrumenting a run must not change it, and the
//! event stream must carry enough to reconstruct metrics and every inbox.

use std::collections::HashMap;

use proptest::prelude::*;
use rmt_graph::generators;
use rmt_obs::{
    diff_node_views, diff_traces, node_view, parse_jsonl, to_jsonl, DropReason, RunEvent,
    VecObserver,
};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{
    testing::Flood, CoupledRunner, Envelope, Metrics, NodeContext, Protocol, Runner,
    SilentAdversary,
};

/// `Flood` that records, per round from 1 on, the inbox it was handed as
/// `(sender, payload in Debug form)`.
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

fn arb_setup() -> impl Strategy<Value = (usize, f64, u64)> {
    (3usize..12, 0.2f64..0.8, any::<u64>())
}

/// An arbitrary network-fault event, covering every variant `rmt-net`'s
/// scheduler can emit.
fn arb_fault_event() -> impl Strategy<Value = RunEvent> {
    (0u32..4, 0u32..60, 0u32..32, 0u32..32, 0u32..8).prop_map(|(kind, round, from, to, c)| {
        match kind {
            0 => RunEvent::FaultDrop {
                round,
                from,
                to,
                reason: match c % 3 {
                    0 => DropReason::LinkDrop,
                    1 => DropReason::Partitioned,
                    _ => DropReason::SenderCrashed,
                },
            },
            1 => RunEvent::FaultDelay {
                round,
                from,
                to,
                delay: c + 1,
                deliver_round: round + 2 + c,
            },
            2 => RunEvent::FaultDuplicate {
                round,
                from,
                to,
                deliver_round: round + 1 + c,
            },
            _ => RunEvent::NodeCrashed { round, node: from },
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The no-op-observer path and the observed path produce byte-identical
    /// metrics and decisions: observation is transparent.
    #[test]
    fn observed_runs_match_unobserved_runs((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let corrupt = NodeSet::singleton(NodeId::new(1));
        let make = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(5));
        let plain = Runner::new(g.clone(), make, SilentAdversary::new(corrupt.clone())).run();
        let mut obs = VecObserver::default();
        let observed = Runner::new(g.clone(), make, SilentAdversary::new(corrupt))
            .run_observed(&mut obs);
        prop_assert_eq!(&plain.metrics, &observed.metrics);
        for v in g.nodes() {
            prop_assert_eq!(plain.decision(v), observed.decision(v));
        }
        prop_assert!(!obs.events.is_empty());
    }

    /// Metrics reconstructed from the event stream equal the metrics the
    /// run computed directly — the stream is a complete account.
    #[test]
    fn metrics_replay_from_events((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::default();
        let out = Runner::new(
            g,
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::new()),
        )
        .run_observed(&mut obs);
        let replayed = Metrics::from_events(&obs.events);
        prop_assert_eq!(&replayed, &out.metrics);
        // The satellite invariant, end to end: per-round counts sum to the
        // total both in the run's own accounting and in the replay.
        let per_round: u64 = out.metrics.honest_messages_per_round.iter().sum();
        prop_assert_eq!(per_round, out.metrics.honest_messages);
    }

    /// Observation transparency extends to the instrumented deciders: with
    /// a registry, the exhaustive and fixpoint deciders return the
    /// witnesses they return without one, and their extent counters stop
    /// exactly at the witness — the subset-enumeration position of the
    /// returned cut, the list position of the failing corruption set, or
    /// the whole scan on `None`. The same holds for the Z-CPA fixpoint on
    /// every worst-case corruption set (at least one sweep per call), the
    /// ⊕ fold of every node's knowledge and the PKA attack suite on a
    /// gallery instance.
    #[test]
    fn observed_deciders_match_plain_and_count_their_scan(
        (n, p, seed) in (5usize..9, 0.3f64..0.6, any::<u64>()),
    ) {
        use rmt_core::analysis::pka_attack_suite;
        use rmt_core::cuts::{find_rmt_cut, zcpa_fixpoint, zpp_cut_by_fixpoint};
        use rmt_core::protocols::attacks::PKA_ATTACKS;
        use rmt_core::{gallery, KnowledgeCache};
        use rmt_graph::ViewKind;
        let mut rng = generators::seeded(seed);
        let inst = rmt_core::sampling::random_instance(n, p, rmt_graph::ViewKind::AdHoc, 3, 2, &mut rng);
        let reg = rmt_obs::Registry::new();
        let rmt = find_rmt_cut(&inst, Some(&reg));
        prop_assert_eq!(&rmt, &find_rmt_cut(&inst, None));
        let zpp = zpp_cut_by_fixpoint(&inst, Some(&reg));
        prop_assert_eq!(&zpp, &zpp_cut_by_fixpoint(&inst, None));

        let (d, r) = (inst.dealer(), inst.receiver());
        let adjacent = inst.graph().has_edge(d, r);
        let mut candidates = inst.graph().nodes().clone();
        candidates.remove(d);
        candidates.remove(r);
        let examined = match (&rmt, adjacent) {
            (_, true) => 0,
            (Some(w), false) => candidates.subsets().position(|c| c == w.cut).expect("cut is a candidate") as u64 + 1,
            (None, false) => candidates.subset_count(),
        };
        prop_assert_eq!(reg.counter("rmt_cut.candidates_examined").get(), examined);
        let corruptions = inst.worst_case_corruptions();
        let checked = match (&zpp, adjacent || !inst.endpoints_connected()) {
            (_, true) => 0,
            (Some(w), false) => corruptions.iter().position(|t| *t == w.c1).expect("C₁ is a corruption set") as u64 + 1,
            (None, false) => corruptions.len() as u64,
        };
        prop_assert_eq!(reg.counter("zpp.corruption_sets_checked").get(), checked);
        prop_assert!(reg.counter("zcpa.sweeps").get() >= checked);
        // One timed section per decision, whatever the verdict.
        for name in ["rmt_cut.search_ns", "zpp.decide_ns"] {
            prop_assert_eq!(reg.histogram(name).count(), 1, "{}", name);
        }

        let fixpoints = rmt_obs::Registry::new();
        for (calls, t) in (1..).zip(&corruptions) {
            prop_assert_eq!(zcpa_fixpoint(&inst, t, Some(&fixpoints)), zcpa_fixpoint(&inst, t, None));
            prop_assert!(fixpoints.counter("zcpa.sweeps").get() >= calls);
        }

        let view = KnowledgeCache::new(&inst).joint_view(inst.graph().nodes());
        let joins = rmt_obs::Registry::new();
        let bound = 1 << 10;
        let observed = view.materialize_bounded_observed(bound, &joins);
        let plain = view.materialize_bounded(bound);
        prop_assert!(observed == plain, "observed fold differs from the plain fold");
        if plain.is_some() {
            prop_assert_eq!(joins.counter("join.folds").get(), view.parts().len() as u64);
        }

        let make = [gallery::unsolvable_diamond, gallery::tolerant_diamond, gallery::staggered_theta];
        let views = [ViewKind::AdHoc, ViewKind::Radius(2)];
        let shown = make[seed as usize % 3](views[(seed / 3) as usize % 2]);
        let suite = rmt_obs::Registry::new();
        prop_assert_eq!(
            pka_attack_suite(&shown, 7, &PKA_ATTACKS, seed, Some(&suite)),
            pka_attack_suite(&shown, 7, &PKA_ATTACKS, seed, None)
        );
    }

    /// Recorded events survive a JSONL round trip losslessly, and the
    /// encoding itself is a fixpoint (encode ∘ parse ∘ encode = encode).
    #[test]
    fn event_jsonl_round_trip((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::default();
        let _ = Runner::new(
            g,
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::singleton(NodeId::new(1))),
        )
        .run_observed(&mut obs);
        let json: Vec<_> = obs.events.iter().map(RunEvent::to_json).collect();
        let text = to_jsonl(&json);
        let parsed = parse_jsonl(&text).expect("own output parses");
        let decoded: Vec<RunEvent> = parsed
            .iter()
            .map(|v| RunEvent::from_json(v).expect("own encoding decodes"))
            .collect();
        prop_assert_eq!(&decoded, &obs.events);
        let reencoded = to_jsonl(&parsed);
        prop_assert_eq!(reencoded, text);
    }

    /// The fault events emitted by `rmt-net`'s scheduler ride the same
    /// codec: arbitrary fault-event streams — interleaved with an ordinary
    /// run's events — survive the JSONL round trip losslessly, and the
    /// encoding stays a fixpoint.
    #[test]
    fn fault_event_jsonl_round_trip(
        faults in proptest::collection::vec(arb_fault_event(), 1..40),
        (n, p, seed) in arb_setup(),
    ) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::default();
        let _ = Runner::new(
            g,
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::new()),
        )
        .run_observed(&mut obs);
        let mut events = faults;
        events.extend(obs.events);
        let json: Vec<_> = events.iter().map(RunEvent::to_json).collect();
        let text = to_jsonl(&json);
        let parsed = parse_jsonl(&text).expect("own output parses");
        let decoded: Vec<RunEvent> = parsed
            .iter()
            .map(|v| RunEvent::from_json(v).expect("own encoding decodes"))
            .collect();
        prop_assert_eq!(&decoded, &events);
        prop_assert_eq!(to_jsonl(&parsed), text);
    }
}

proptest! {
    // No config of its own: `PROPTEST_CASES` sets its case count.

    /// The event stream is a complete record of what each node saw: for
    /// every honest node and every round from 1 on, the inbox its
    /// `on_round` was handed equals, in order, that round's `Delivery`
    /// events addressed to it.
    #[test]
    fn honest_inboxes_equal_the_delivery_events((n, p, seed) in arb_setup()) {
        let g = generators::gnp_connected(n, p, &mut generators::seeded(seed));
        let mut obs = VecObserver::default();
        let out = Runner::new(
            g.clone(),
            |v| Recording {
                inner: Flood::new(v, (v.index() == 0).then_some(5)),
                inboxes: Vec::new(),
            },
            SilentAdversary::new(NodeSet::singleton(NodeId::new(1))),
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
            prop_assert_eq!(rounds, (1..=out.metrics.rounds).collect::<Vec<_>>());
            for (round, inbox) in &node.inboxes {
                let events = streamed.get(&(v.raw(), *round)).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(inbox.as_slice(), events, "node {}, round {}", v, round);
            }
        }
    }
}

/// The coupled diamond run: full traces differ (different corrupted sets and
/// component traffic) while the receiver's restricted view diff is empty —
/// Figure 2, checked mechanically on event streams.
#[test]
fn coupled_traces_differ_globally_but_not_at_the_receiver() {
    let mut g = rmt_graph::Graph::new();
    g.add_edge(0.into(), 1.into());
    g.add_edge(0.into(), 2.into());
    g.add_edge(1.into(), 3.into());
    g.add_edge(2.into(), 3.into());
    let set = |ids: &[u32]| ids.iter().copied().collect::<NodeSet>();
    let make_e = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(0));
    let make_e2 = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(1));
    let mut obs_e = VecObserver::default();
    let mut obs_e2 = VecObserver::default();
    let out = CoupledRunner::new(g, set(&[1]), set(&[2]), make_e, make_e2)
        .run_observed(&mut obs_e, &mut obs_e2);
    assert!(out.views_equal(3.into()));
    assert!(
        !diff_traces(&obs_e.events, &obs_e2.events).is_empty(),
        "the two executions are globally different"
    );
    assert!(
        diff_node_views(&obs_e.events, &obs_e2.events, 3).is_empty(),
        "yet the receiver cannot tell them apart"
    );
    assert!(!node_view(&obs_e.events, 3).is_empty());
}
