//! The fault-injecting scheduler.
//!
//! [`NetRunner`] is `rmt-sim`'s one round loop ([`Runner`]) over a faulty
//! delivery policy: instead of a single in-flight buffer swapped once per
//! round, admitted envelopes go through a priority queue keyed
//! `(deliver_round, seq, tie)`, so a [`FaultPlan`] can stretch, duplicate
//! or scramble delivery while the protocol and adversary interfaces — and
//! the physical model enforced by [`Transport`](rmt_sim::Transport) — stay
//! exactly those of the synchronous scheduler. With an empty plan the queue
//! degenerates to FIFO per round and the run is byte-identical to
//! [`Runner::new`]'s (event stream, metrics, termination); the
//! differential test in `tests/differential.rs` enforces this.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use rmt_graph::Graph;
use rmt_obs::{Clock, DropReason, NoopObserver, RunEvent, RunObserver};
use rmt_sets::NodeId;
use rmt_sim::{
    default_max_rounds, Adversary, Delivery, Envelope, Payload, Protocol, RunOutcome, Runner,
};

use crate::plan::{FaultPlan, LinkPolicy};
use crate::rng::{FaultRng, Salt};
use crate::suppress::MessageAdversary;

/// One enqueued message copy, ordered by `(deliver_round, seq, tie)`.
///
/// `seq` is the admission counter on in-order links and a seeded
/// pseudorandom draw on reordering links; `tie` is always the admission
/// counter, so ordering is total and deterministic either way.
struct Scheduled<P> {
    deliver_round: u32,
    seq: u64,
    tie: u64,
    env: Envelope<P>,
}

impl<P> Scheduled<P> {
    fn key(&self) -> (u32, u64, u64) {
        (self.deliver_round, self.seq, self.tie)
    }
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<P> Eq for Scheduled<P> {}

impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<P> Ord for Scheduled<P> {
    // Reversed so std's max-heap pops the smallest key first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// What the network did to the run's traffic.
///
/// Kept separate from [`Metrics`](rmt_sim::Metrics) so the metrics of a
/// faulty run stay directly comparable to a fault-free run of the same
/// workload (and so the empty-plan differential gate can require `Metrics`
/// equality outright).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages lost to a link's `drop` probability.
    pub dropped: u64,
    /// Messages lost to an active partition.
    pub partitioned: u64,
    /// Adversarial messages discarded because their sender had crashed.
    pub crashed_sender: u64,
    /// Message copies delivered late.
    pub delayed: u64,
    /// Extra copies injected by link duplication.
    pub duplicated: u64,
    /// Messages erased by the [`MessageAdversary`]'s per-round budget.
    pub suppressed: u64,
    /// The largest extra delay actually applied, in rounds.
    pub max_observed_delay: u32,
}

impl FaultStats {
    /// Total messages the network destroyed (all drop causes).
    pub fn lost(&self) -> u64 {
        self.dropped + self.partitioned + self.crashed_sender + self.suppressed
    }
}

/// The result of a faulty run: [`RunOutcome`] with the network's
/// [`FaultStats`] as its `faults`.
pub type NetOutcome<Q> = RunOutcome<Q, FaultStats>;

/// The fault-injecting scheduler: [`Runner`] over a [`FaultPlan`]
/// interpreted through an event queue.
///
/// The Byzantine [`Adversary`] composes with the faulty network: corrupted
/// nodes send through the same lossy links as honest ones, authenticity and
/// edge checks are still enforced by [`Transport`](rmt_sim::Transport)
/// *before* fault injection, and a crashed corrupted node falls silent like
/// a crashed honest one.
pub struct NetRunner<Q: Protocol, A>(Runner<Q, A, FaultNet<Q::Payload>>);

impl<Q, A> NetRunner<Q, A>
where
    Q: Protocol,
    A: Adversary<Q::Payload>,
{
    /// Creates a runner on `graph` under `plan`; honest nodes get protocol
    /// instances from `make`, nodes in `adversary.corrupted()` are driven by
    /// the adversary.
    ///
    /// The default round cap is
    /// [`default_max_rounds`]` * (1 + plan.max_delay())`: stretching every
    /// hop by the worst-case delay must not silently truncate a run that
    /// would have quiesced.
    pub fn new(graph: Graph, make: impl FnMut(NodeId) -> Q, adversary: A, plan: FaultPlan) -> Self {
        let max_rounds =
            default_max_rounds(graph.node_count()).saturating_mul(1 + plan.max_delay());
        let net = FaultNet {
            rng: FaultRng::new(plan.seed()),
            plan,
            suppressor: None,
            queue: BinaryHeap::new(),
            edge_index: HashMap::new(),
            next_tie: 0,
            faults: FaultStats::default(),
        };
        NetRunner(Runner::with_delivery(graph, make, adversary, net).with_max_rounds(max_rounds))
    }

    /// Attaches a [`MessageAdversary`]: each round it sees every admitted
    /// send (the full-information view) and erases its chosen victims, up
    /// to its budget, before the probabilistic fault pipeline runs.
    ///
    /// Composes with the [`FaultPlan`]: suppression and plan faults are
    /// accounted separately ([`FaultStats::suppressed`]).
    pub fn with_message_adversary(mut self, adversary: MessageAdversary) -> Self {
        self.0.delivery_mut().suppressor = Some(adversary);
        self
    }

    /// [`Runner::with_max_rounds`].
    pub fn with_max_rounds(self, max_rounds: u32) -> Self {
        NetRunner(self.0.with_max_rounds(max_rounds))
    }

    /// [`Runner::with_profiling`]; a `RoundEnd` event's `drops` field
    /// carries the messages the network destroyed that round.
    pub fn with_profiling(self, clock: Clock) -> Self {
        NetRunner(self.0.with_profiling(clock))
    }

    /// Executes the run to completion.
    pub fn run(self) -> NetOutcome<Q> {
        self.run_observed(&mut NoopObserver)
    }

    /// Executes the run to completion, streaming every observable step —
    /// including the network's fault decisions — through `observer`.
    pub fn run_observed<O: RunObserver>(self, observer: &mut O) -> NetOutcome<Q> {
        self.0.run_observed(observer)
    }
}

/// The faulty network: each round's admitted outbox goes through the
/// optional [`MessageAdversary`] and the [`FaultPlan`], and the surviving
/// copies wait in a queue for their delivery round.
struct FaultNet<P> {
    plan: FaultPlan,
    rng: FaultRng,
    suppressor: Option<MessageAdversary>,
    queue: BinaryHeap<Scheduled<P>>,
    /// Numbers the send round's messages per directed edge (the `k`
    /// coordinate of the fault draws).
    edge_index: HashMap<(NodeId, NodeId), u32>,
    /// The global admission counter.
    next_tie: u64,
    faults: FaultStats,
}

impl<P: Payload> Delivery<P> for FaultNet<P> {
    type Stats = FaultStats;

    fn crashed(&self, v: NodeId, round: u32) -> bool {
        self.plan.crashed(v, round)
    }

    fn start_round<O: RunObserver>(&mut self, round: u32, observer: &mut O) {
        if O::ACTIVE {
            for v in self.plan.crashes_at(round) {
                observer.on_event(&RunEvent::NodeCrashed {
                    round,
                    node: v.raw(),
                });
            }
        }
    }

    /// Runs the envelopes admitted in `round` through the fault pipeline
    /// and enqueues the surviving copies.
    ///
    /// Pipeline per envelope: message-adversary suppression (chosen over
    /// the whole round's admissions) first, then each probabilistic
    /// decision as an independent seeded draw keyed by the message's
    /// coordinates: crashed sender → partition → drop → duplicate →
    /// per-copy delay → enqueue.
    fn send<O: RunObserver>(&mut self, round: u32, outbox: Vec<Envelope<P>>, observer: &mut O) {
        let suppress = suppression_mask(self.suppressor.as_ref(), round, &outbox);
        self.edge_index.clear();
        for (idx, env) in outbox.into_iter().enumerate() {
            let (from, to) = (env.from, env.to);
            let slot = self.edge_index.entry((from, to)).or_insert(0);
            let k = *slot;
            *slot += 1;
            let (f, t) = (from.raw(), to.raw());
            let policy = *self.plan.policy(from, to);

            let lost = if suppress.get(idx).copied().unwrap_or(false) {
                Some((DropReason::Suppressed, &mut self.faults.suppressed))
            } else if self.plan.crashed(from, round) {
                Some((DropReason::SenderCrashed, &mut self.faults.crashed_sender))
            } else if self.plan.partitioned(from, to, round) {
                Some((DropReason::Partitioned, &mut self.faults.partitioned))
            } else if policy.drop > 0.0 && self.rng.unit(round, f, t, k, Salt::Drop) < policy.drop {
                Some((DropReason::LinkDrop, &mut self.faults.dropped))
            } else {
                None
            };
            if let Some((reason, count)) = lost {
                *count += 1;
                if O::ACTIVE {
                    observer.on_event(&RunEvent::FaultDrop {
                        round,
                        from: f,
                        to: t,
                        reason,
                    });
                }
                continue;
            }

            // The envelope moves into its last copy; only a duplicate clones.
            let coords = (round, f, t, k);
            let duplicated = policy.duplicate > 0.0
                && self.rng.unit(round, f, t, k, Salt::Duplicate) < policy.duplicate;
            if duplicated {
                self.enqueue(coords, 0, policy, env.clone(), observer);
            }
            self.enqueue(coords, u32::from(duplicated), policy, env, observer);
        }
    }

    fn due(&mut self, round: u32) -> Vec<Envelope<P>> {
        let mut due = Vec::new();
        while self.queue.peek().is_some_and(|s| s.deliver_round <= round) {
            due.push(self.queue.pop().expect("peeked").env);
        }
        due
    }

    fn is_idle<O: RunObserver>(&mut self, _round: u32, _observer: &mut O) -> bool {
        self.queue.is_empty()
    }

    fn lost(&self) -> u64 {
        self.faults.lost()
    }

    fn into_stats(self) -> FaultStats {
        self.faults
    }
}

impl<P> FaultNet<P> {
    /// Enqueues copy number `copy` of the message at `(round, from, to, k)`
    /// after its own seeded delay and (on reordering links) sequence draws.
    fn enqueue<O: RunObserver>(
        &mut self,
        (round, f, t, k): (u32, u32, u32, u32),
        copy: u32,
        policy: LinkPolicy,
        env: Envelope<P>,
        observer: &mut O,
    ) {
        let delay = if policy.delay > 0.0
            && policy.max_delay > 0
            && self.rng.unit(round, f, t, k, Salt::Delay(copy)) < policy.delay
        {
            1 + (self.rng.draw(round, f, t, k, Salt::DelayAmount(copy))
                % u64::from(policy.max_delay)) as u32
        } else {
            0
        };
        let deliver_round = round + 1 + delay;
        if delay > 0 {
            self.faults.delayed += 1;
            self.faults.max_observed_delay = self.faults.max_observed_delay.max(delay);
        }
        if copy > 0 {
            self.faults.duplicated += 1;
        }
        if O::ACTIVE {
            if copy > 0 {
                observer.on_event(&RunEvent::FaultDuplicate {
                    round,
                    from: f,
                    to: t,
                    deliver_round,
                });
            } else if delay > 0 {
                observer.on_event(&RunEvent::FaultDelay {
                    round,
                    from: f,
                    to: t,
                    delay,
                    deliver_round,
                });
            }
        }
        let tie = self.next_tie;
        self.next_tie += 1;
        let seq = if policy.reorder {
            self.rng.draw(round, f, t, k, Salt::Sequence(copy))
        } else {
            tie
        };
        self.queue.push(Scheduled {
            deliver_round,
            seq,
            tie,
            env,
        });
    }
}

/// Computes the message adversary's victim mask over a round's admitted
/// outbox (empty when no suppressor is active this round).
fn suppression_mask<P>(
    suppressor: Option<&MessageAdversary>,
    round: u32,
    outbox: &[Envelope<P>],
) -> Vec<bool> {
    let Some(adv) = suppressor else {
        return Vec::new();
    };
    if !adv.active(round) || outbox.is_empty() {
        return Vec::new();
    }
    let coords: Vec<(NodeId, NodeId)> = outbox.iter().map(|e| (e.from, e.to)).collect();
    let mut mask = vec![false; outbox.len()];
    for i in adv.choose(round, &coords) {
        mask[i] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{LinkPolicy, Partition};
    use rmt_graph::generators;
    use rmt_sets::NodeSet;
    use rmt_sim::testing::Flood;
    use rmt_sim::{SilentAdversary, Termination};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn flood_from_zero(v: NodeId) -> Flood {
        Flood::new(v, (v.index() == 0).then_some(7))
    }

    #[test]
    fn empty_plan_floods_like_the_synchronous_runner() {
        let g = generators::cycle(6);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(1),
        )
        .run();
        for v in 0..6u32 {
            assert_eq!(out.decision(v.into()), Some(7), "node {v}");
        }
        assert_eq!(out.faults, FaultStats::default());
        assert!(out.metrics.rounds <= 5);
    }

    #[test]
    fn total_loss_blocks_flooding() {
        let g = generators::path_graph(4);
        let plan = FaultPlan::new(3).with_default_policy(LinkPolicy {
            drop: 1.0,
            ..LinkPolicy::default()
        });
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        assert_eq!(out.decision(0.into()), Some(7)); // its own input
        assert_eq!(out.decision(1.into()), None);
        assert!(out.faults.dropped > 0);
    }

    #[test]
    fn delay_postpones_but_does_not_lose_messages() {
        let g = generators::path_graph(3);
        let plan = FaultPlan::new(5).with_default_policy(LinkPolicy {
            delay: 1.0,
            max_delay: 3,
            ..LinkPolicy::default()
        });
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        assert_eq!(out.decision(2.into()), Some(7));
        assert!(out.faults.delayed > 0);
        assert!(out.faults.max_observed_delay >= 1);
        assert!(out.metrics.rounds > 3, "delays must stretch the run");
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let g = generators::path_graph(2);
        let plan = FaultPlan::new(8).with_default_policy(LinkPolicy {
            duplicate: 1.0,
            ..LinkPolicy::default()
        });
        let mut obs = rmt_obs::VecObserver::new();
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run_observed(&mut obs);
        assert_eq!(out.decision(1.into()), Some(7));
        assert!(out.faults.duplicated > 0);
        // Node 1 got at least the original plus one copy of 0's message.
        let to_one = obs
            .events
            .iter()
            .filter(|ev| matches!(ev, RunEvent::Delivery { to: 1, .. }))
            .count();
        assert!(to_one >= 2);
    }

    #[test]
    fn crashed_source_never_speaks() {
        let g = generators::path_graph(3);
        let plan = FaultPlan::new(0).with_crash(0.into(), 0);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        assert_eq!(out.decision(1.into()), None);
        assert_eq!(out.decision(2.into()), None);
        // Crashed honest nodes are skipped, not dropped mid-flight.
        assert_eq!(out.faults.crashed_sender, 0);
        assert_eq!(out.metrics.honest_messages_per_round[0], 0);
    }

    #[test]
    fn late_crash_stops_relaying() {
        let g = generators::path_graph(4); // 0-1-2-3, node 1 dies before relaying
        let plan = FaultPlan::new(0).with_crash(1.into(), 1);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        assert_eq!(out.decision(0.into()), Some(7));
        assert_eq!(out.decision(2.into()), None);
        assert_eq!(out.decision(3.into()), None);
    }

    #[test]
    fn partition_heals_and_flooding_resumes() {
        // 0-1 | 2-3 partitioned for rounds 0..=1; Flood keeps announcing
        // while its value is fresh? No — Flood sends once. So seed the value
        // late enough: partition rounds 0..=0 only delays nothing for a path
        // where the crossing hop happens in round 1. Use a cycle so a second
        // route exists and verify the partition statistic fires.
        let g = generators::path_graph(4);
        let plan = FaultPlan::new(0).with_partition(Partition {
            from_round: 0,
            to_round: 50,
            side: set(&[0, 1]),
        });
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        assert_eq!(out.decision(1.into()), Some(7)); // same side
        assert_eq!(out.decision(2.into()), None); // across the cut
        assert!(out.faults.partitioned > 0);
    }

    #[test]
    fn crashed_corrupted_node_falls_silent() {
        let g = generators::path_graph(3); // corrupt 1, crash it at round 1
        let adv = rmt_sim::FnAdversary::<u64, _>::new(set(&[1]), |_, _, _| {
            vec![Envelope::new(1.into(), 2.into(), 9u64)]
        });
        let plan = FaultPlan::new(0).with_crash(1.into(), 1);
        let out = NetRunner::new(g, |v| Flood::new(v, None), adv, plan).run();
        // The round-0 injection goes through; later ones hit the crash.
        assert_eq!(out.decision(2.into()), Some(9));
        assert!(out.faults.crashed_sender > 0);
        assert!(out.metrics.adversarial_messages > out.faults.crashed_sender);
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let g = generators::cycle(8);
        let plan = FaultPlan::new(0xDECAF).with_default_policy(LinkPolicy {
            drop: 0.3,
            delay: 0.4,
            max_delay: 2,
            duplicate: 0.2,
            reorder: true,
        });
        let run = |g: Graph, plan: FaultPlan| {
            let mut obs = rmt_obs::VecObserver::new();
            let out = NetRunner::new(
                g,
                flood_from_zero,
                SilentAdversary::new(NodeSet::new()),
                plan,
            )
            .run_observed(&mut obs);
            (obs.events, out.metrics, out.faults)
        };
        let a = run(generators::cycle(8), plan.clone());
        let b = run(g, plan);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn profiled_faulty_runs_bill_drops_per_round() {
        let g = generators::path_graph(4);
        let plan = FaultPlan::new(3).with_default_policy(LinkPolicy {
            drop: 1.0,
            ..LinkPolicy::default()
        });
        let mut obs = rmt_obs::VecObserver::new();
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .with_profiling(Clock::virtual_ns(7))
        .run_observed(&mut obs);
        let (mut rounds_billed, mut drops_billed, mut msgs_billed) = (0u64, 0u64, 0u64);
        for ev in &obs.events {
            if let RunEvent::RoundEnd {
                ns,
                messages,
                drops,
                ..
            } = ev
            {
                rounds_billed += 1;
                drops_billed += drops;
                msgs_billed += messages;
                assert!(*ns > 0, "virtual clock always advances");
            }
        }
        assert!(rounds_billed > 0);
        assert_eq!(drops_billed, out.faults.lost());
        assert!(out.faults.dropped > 0);
        assert_eq!(msgs_billed, out.metrics.total_messages());
        // Unprofiled observed runs emit no RoundEnd (byte-identity gate).
        let mut plain = rmt_obs::VecObserver::new();
        let plan = FaultPlan::new(3).with_default_policy(LinkPolicy {
            drop: 1.0,
            ..LinkPolicy::default()
        });
        NetRunner::new(
            generators::path_graph(4),
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run_observed(&mut plain);
        assert!(!plain
            .events
            .iter()
            .any(|ev| matches!(ev, RunEvent::RoundEnd { .. })));
    }

    #[test]
    fn quiesced_runs_report_their_last_round() {
        let g = generators::cycle(6);
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(1),
        )
        .run();
        let Termination::Quiesced { round } = out.termination else {
            panic!("fault-free flood must quiesce, got {:?}", out.termination);
        };
        assert_eq!(round, out.metrics.rounds);
    }

    #[test]
    fn exhausted_round_cap_reports_stalled() {
        // Full delay keeps a message in flight past a tiny cap: the run is
        // cut off with traffic queued, which must surface as Stalled, not
        // as a silent non-decision.
        let g = generators::path_graph(4);
        let plan = FaultPlan::new(5).with_default_policy(LinkPolicy {
            delay: 1.0,
            max_delay: 6,
            ..LinkPolicy::default()
        });
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .with_max_rounds(2)
        .run();
        assert_eq!(out.termination, Termination::Stalled { round: 2 });
        assert_eq!(out.decision(3.into()), None);
    }

    #[test]
    fn focused_suppression_starves_the_focus_node() {
        // Path 0-1-2-3: every message into node 3 is suppressed, so 3 never
        // decides while everyone else floods normally.
        let g = generators::path_graph(4);
        let adv = MessageAdversary::focused(10, set(&[3]));
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(0),
        )
        .with_message_adversary(adv)
        .run();
        assert_eq!(out.decision(2.into()), Some(7));
        assert_eq!(out.decision(3.into()), None);
        assert!(out.faults.suppressed > 0);
        assert_eq!(out.faults.lost(), out.faults.suppressed);
        assert!(matches!(out.termination, Termination::Quiesced { .. }));
    }

    #[test]
    fn suppression_budget_is_per_round() {
        // Cycle of 6, unfocused budget 1: at most one message dies per send
        // round, and every suppression is visible in the event stream. With
        // full information even this minimal budget defeats flooding — the
        // adversary keeps erasing the frontier message.
        let g = generators::cycle(6);
        let mut obs = rmt_obs::VecObserver::new();
        let out = NetRunner::new(
            g,
            flood_from_zero,
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(0),
        )
        .with_message_adversary(MessageAdversary::new(1))
        .run_observed(&mut obs);
        let mut per_round: HashMap<u32, u64> = HashMap::new();
        for ev in &obs.events {
            if let RunEvent::FaultDrop {
                round,
                reason: DropReason::Suppressed,
                ..
            } = ev
            {
                *per_round.entry(*round).or_insert(0) += 1;
            }
        }
        assert!(per_round.values().all(|&n| n <= 1), "budget is per round");
        assert_eq!(per_round.values().sum::<u64>(), out.faults.suppressed);
        assert!(out.faults.suppressed >= 1);
        assert_eq!(out.decision(0.into()), Some(7)); // its own input
        assert!(
            (0..6u32).any(|v| out.decision(v.into()).is_none()),
            "the frontier-chasing adversary must starve someone"
        );
    }

    #[test]
    fn transparent_suppressor_changes_nothing() {
        let run = |suppressor: Option<MessageAdversary>| {
            let mut obs = rmt_obs::VecObserver::new();
            let mut r = NetRunner::new(
                generators::cycle(5),
                flood_from_zero,
                SilentAdversary::new(NodeSet::new()),
                FaultPlan::new(9).with_default_policy(LinkPolicy {
                    drop: 0.2,
                    ..LinkPolicy::default()
                }),
            );
            if let Some(s) = suppressor {
                r = r.with_message_adversary(s);
            }
            let out = r.run_observed(&mut obs);
            (obs.events, out.metrics, out.faults)
        };
        let plain = run(None);
        let zero = run(Some(MessageAdversary::new(0)));
        let windowless = run(Some(MessageAdversary::new(3).with_window(900, 1000)));
        assert_eq!(plain, zero);
        assert_eq!(plain, windowless);
    }

    #[test]
    fn round_cap_scales_with_max_delay() {
        // A corrupted node that chatters every round never lets the network
        // quiesce, so the run ends exactly at the default cap.
        let g = generators::path_graph(3);
        let chatter = rmt_sim::FnAdversary::<u64, _>::new(set(&[1]), |_, _, _| {
            vec![Envelope::new(1.into(), 2.into(), 9u64)]
        });
        let plan = FaultPlan::new(0).with_default_policy(LinkPolicy {
            delay: 1.0,
            max_delay: 4,
            ..LinkPolicy::default()
        });
        let out = NetRunner::new(g, |v| Flood::new(v, None), chatter, plan).run();
        assert_eq!(
            out.termination,
            Termination::Stalled {
                round: default_max_rounds(3) * 5
            }
        );
    }

    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A payload whose `Clone` is counted (per test thread).
    #[derive(Debug, PartialEq)]
    struct Counted(u32);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl rmt_sim::Payload for Counted {
        fn encoded_bits(&self) -> usize {
            32
        }
    }

    /// Every node sends a fresh payload to each neighbour in rounds 0..3,
    /// so any clone the run makes is the scheduler's.
    struct Chatter;

    impl Protocol for Chatter {
        type Payload = Counted;
        type Decision = ();

        fn start(&mut self, ctx: &rmt_sim::NodeContext) -> Vec<(NodeId, Counted)> {
            ctx.neighbors
                .iter()
                .map(|w| (w, Counted(ctx.round)))
                .collect()
        }

        fn on_round(
            &mut self,
            ctx: &rmt_sim::NodeContext,
            _inbox: &[Envelope<Counted>],
        ) -> Vec<(NodeId, Counted)> {
            if ctx.round < 3 {
                self.start(ctx)
            } else {
                Vec::new()
            }
        }

        fn decision(&self) -> Option<()> {
            None
        }
    }

    fn counted_run(plan: FaultPlan) -> (NetOutcome<Chatter>, u64) {
        CLONES.with(|c| c.set(0));
        let out = NetRunner::new(
            generators::cycle(5),
            |_| Chatter,
            SilentAdversary::new(NodeSet::new()),
            plan,
        )
        .run();
        (out, CLONES.with(std::cell::Cell::get))
    }

    #[test]
    fn empty_plan_moves_every_envelope() {
        let (out, clones) = counted_run(FaultPlan::new(1));
        assert!(out.metrics.honest_messages >= 30);
        assert_eq!(clones, 0);
    }

    #[test]
    fn duplication_clones_only_the_extra_copy() {
        let plan = FaultPlan::new(8).with_default_policy(LinkPolicy {
            duplicate: 1.0,
            ..LinkPolicy::default()
        });
        let (out, clones) = counted_run(plan);
        assert_eq!(out.faults.duplicated, out.metrics.honest_messages);
        assert_eq!(clones, out.faults.duplicated);
    }
}
