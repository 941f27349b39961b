use rmt_graph::Graph;
use rmt_obs::{Clock, NoopObserver, RunEvent, RunObserver};
use rmt_sets::{NodeId, NodeSet};

use crate::adversary::Adversary;
use crate::message::{Envelope, RoundInboxes};
use crate::metrics::Metrics;
use crate::protocol::{NodeContext, Protocol};
use crate::transport::{default_max_rounds, sweep_decisions, Transport};

/// Where admitted envelopes go and when they come back: the one thing in
/// which schedulers differ.
///
/// [`Runner`]'s round loop admits each round's sends through [`Transport`],
/// hands the round's whole outbox to the policy, and at the start of every
/// later round delivers what the policy says is due. [`Lockstep`] is the
/// paper's synchronous network; `rmt-net` implements a faulty one that
/// drops, delays, duplicates and reorders, and `rmt-netd` one that carries
/// every message between live nodes over a real socket.
pub trait Delivery<P> {
    /// The policy's account of what it did to the traffic, returned as
    /// [`RunOutcome::faults`].
    type Stats;

    /// Whether node `v` is crashed in `round`: a crashed node neither runs
    /// nor sends.
    fn crashed(&self, _v: NodeId, _round: u32) -> bool {
        false
    }

    /// Starts `round`, right after its [`RunEvent::RoundStart`]: emits a
    /// [`RunEvent::NodeCrashed`] for every node crashing at `round` and
    /// applies whatever else the policy schedules for it.
    fn start_round<O: RunObserver>(&mut self, _round: u32, _observer: &mut O) {}

    /// Accepts the envelopes admitted in send round `round`, in admission
    /// order.
    fn send<O: RunObserver>(&mut self, round: u32, outbox: Vec<Envelope<P>>, observer: &mut O);

    /// Hands over the envelopes due in `round`, in delivery order.
    fn due(&mut self, round: u32) -> Vec<Envelope<P>>;

    /// Whether nothing is left in flight before `round` starts; asked at
    /// the top of every round from 1 on below the round cap, and once more
    /// for the run's [`Termination`]. A policy whose traffic heals in
    /// wall-clock time may wait here, reporting what it sees to `observer`.
    fn is_idle<O: RunObserver>(&mut self, round: u32, observer: &mut O) -> bool;

    /// Whether the policy can no longer carry the run (say, its sockets
    /// timed out); the loop then ends the run as [`Termination::Stalled`].
    fn halted(&self) -> bool {
        false
    }

    /// Messages destroyed so far; each round's increase is billed as its
    /// `RoundEnd.drops`.
    fn lost(&self) -> u64 {
        0
    }

    /// Ends the run, returning the policy's account of it.
    fn into_stats(self) -> Self::Stats;
}

/// The synchronous network of the paper: everything admitted in round `r`
/// is delivered, in admission order, in round `r + 1`.
pub struct Lockstep<P> {
    inflight: Vec<Envelope<P>>,
}

impl<P> Default for Lockstep<P> {
    fn default() -> Self {
        Lockstep {
            inflight: Vec::new(),
        }
    }
}

impl<P> Delivery<P> for Lockstep<P> {
    type Stats = ();

    fn send<O: RunObserver>(&mut self, _round: u32, outbox: Vec<Envelope<P>>, _observer: &mut O) {
        self.inflight = outbox;
    }

    fn due(&mut self, _round: u32) -> Vec<Envelope<P>> {
        std::mem::take(&mut self.inflight)
    }

    fn is_idle<O: RunObserver>(&mut self, _round: u32, _observer: &mut O) -> bool {
        self.inflight.is_empty()
    }

    fn into_stats(self) {}
}

/// How a run ended.
///
/// The hunter needs to tell liveness loss apart from wrong delivery, so the
/// scheduler reports *why* it stopped instead of folding round-cap
/// exhaustion into a generic non-decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// The network quiesced: after `round`, no traffic was left in flight.
    Quiesced {
        /// The last round that executed.
        round: u32,
    },
    /// The round cap was exhausted with traffic still queued: the run was
    /// cut off, not finished.
    Stalled {
        /// The round at which the cap hit.
        round: u32,
    },
}

/// The round-based scheduler, over a [`Delivery`] policy (by default
/// [`Lockstep`], the synchronous network).
///
/// Round 0 runs every honest [`Protocol::start`]; every later round first
/// delivers what the policy says is due, then runs the honest nodes'
/// [`Protocol`] and the [`Adversary`] (full information) on that round's
/// inboxes. The runner enforces the physical model: traffic flows only
/// along edges of the graph, honest senders are stamped authentically, and
/// adversarial envelopes claiming an honest sender or a non-edge are
/// rejected (and counted in [`Metrics::rejected_adversarial`]).
///
/// The run stops at quiescence (nothing left in flight), after
/// `max_rounds` (default [`default_max_rounds`], enough for every
/// trail-bounded protocol in this workspace) or when the policy halts.
pub struct Runner<Q: Protocol, A, D = Lockstep<<Q as Protocol>::Payload>> {
    graph: Graph,
    protocols: Vec<Option<Q>>,
    adversary: A,
    delivery: D,
    max_rounds: u32,
    profile: Option<Clock>,
}

/// The result of a completed run.
pub struct RunOutcome<Q: Protocol, F = ()> {
    protocols: Vec<Option<Q>>,
    corrupted: NodeSet,
    /// Complexity metrics for the run (a message the network loses was
    /// still sent and is still counted).
    pub metrics: Metrics,
    /// What the delivery policy did to the traffic (`()` for [`Lockstep`]).
    pub faults: F,
    /// Whether the run quiesced or hit the round cap with traffic in flight.
    pub termination: Termination,
}

impl<Q, A> Runner<Q, A>
where
    Q: Protocol,
    A: Adversary<Q::Payload>,
{
    /// Creates a synchronous runner on `graph`; honest nodes get protocol
    /// instances from `make`, nodes in `adversary.corrupted()` are
    /// controlled by the adversary.
    pub fn new(graph: Graph, make: impl FnMut(NodeId) -> Q, adversary: A) -> Self {
        Runner::with_delivery(graph, make, adversary, Lockstep::default())
    }
}

impl<Q, A, D> Runner<Q, A, D>
where
    Q: Protocol,
    A: Adversary<Q::Payload>,
    D: Delivery<Q::Payload>,
{
    /// Creates a runner like [`Runner::new`] whose traffic goes through
    /// `delivery` instead of the synchronous network.
    pub fn with_delivery(
        graph: Graph,
        mut make: impl FnMut(NodeId) -> Q,
        adversary: A,
        delivery: D,
    ) -> Self {
        let size = graph.nodes().last().map_or(0, |v| v.index() + 1);
        let mut protocols: Vec<Option<Q>> = (0..size).map(|_| None).collect();
        for v in graph.nodes() {
            if !adversary.corrupted().contains(v) {
                protocols[v.index()] = Some(make(v));
            }
        }
        let max_rounds = default_max_rounds(graph.node_count());
        Runner {
            graph,
            protocols,
            adversary,
            delivery,
            max_rounds,
            profile: None,
        }
    }

    /// Overrides the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Enables per-round profiling: an observed run additionally emits one
    /// [`RunEvent::RoundEnd`] per round carrying the round's latency
    /// (stamped by `clock`), its wire deltas (messages and bits admitted
    /// that round) and the messages the delivery policy destroyed that
    /// round.
    ///
    /// Off by default so unprofiled observed runs emit byte-identical event
    /// streams to earlier releases. With a virtual clock
    /// ([`Clock::virtual_ns`]) the latencies themselves are deterministic.
    pub fn with_profiling(mut self, clock: Clock) -> Self {
        self.profile = Some(clock);
        self
    }

    /// The delivery policy, for a scheduler built on this loop to
    /// configure before the run.
    pub fn delivery_mut(&mut self) -> &mut D {
        &mut self.delivery
    }

    /// Executes the run to completion.
    pub fn run(self) -> RunOutcome<Q, D::Stats> {
        self.run_observed(&mut NoopObserver)
    }

    /// Executes the run to completion, streaming every observable step
    /// through `observer`.
    ///
    /// With the default [`NoopObserver`] (`ACTIVE = false`) this
    /// monomorphizes to exactly the uninstrumented scheduler — events are
    /// neither constructed nor dispatched — so [`Runner::run`] simply
    /// delegates here. The event stream is the run's one record of what
    /// each node was delivered (a [`RunEvent::Delivery`] per envelope, in
    /// the order its recipient receives them) and carries everything its
    /// [`Metrics`] need; see [`Metrics::from_events`].
    pub fn run_observed<O: RunObserver>(mut self, observer: &mut O) -> RunOutcome<Q, D::Stats> {
        let profile = if O::ACTIVE { self.profile.take() } else { None };
        let mut books = Books {
            metrics: Metrics::default(),
            decided: vec![false; self.protocols.len()],
            round_start_ns: profile.as_ref().map_or(0, Clock::now_ns),
            profile,
            billed: (0, 0, 0),
        };
        if O::ACTIVE {
            let corrupted: Vec<u32> = self.adversary.corrupted().iter().map(NodeId::raw).collect();
            observer.on_event(&RunEvent::RunStart {
                nodes: self.graph.node_count() as u32,
                corrupted,
            });
        }
        if !self.delivery.halted() {
            self.play_round(0, &mut books, observer);
        }
        let mut round = 0;
        while !self.delivery.halted()
            && round < self.max_rounds
            && !self.delivery.is_idle(round + 1, observer)
        {
            round += 1;
            books.metrics.rounds = round;
            self.play_round(round, &mut books, observer);
        }
        if O::ACTIVE {
            observer.on_event(&RunEvent::RunEnd { rounds: round });
        }

        let termination = if !self.delivery.halted() && self.delivery.is_idle(round + 1, observer) {
            Termination::Quiesced { round }
        } else {
            Termination::Stalled { round }
        };
        RunOutcome {
            protocols: self.protocols,
            corrupted: self.adversary.corrupted().clone(),
            metrics: books.metrics,
            faults: self.delivery.into_stats(),
            termination,
        }
    }

    /// Runs one round: delivers what is due (from round 1 on), runs the
    /// honest nodes and the adversary, admits their sends through
    /// [`Transport`] and hands the round's outbox to the delivery policy.
    fn play_round<O: RunObserver>(&mut self, round: u32, books: &mut Books, observer: &mut O) {
        if O::ACTIVE {
            observer.on_event(&RunEvent::RoundStart { round });
        }
        self.delivery.start_round(round, observer);
        let delivered = (round > 0).then(|| self.deliver(round, observer));

        let transport = Transport::new(&self.graph);
        let mut honest_this_round = 0u64;
        let mut outbox: Vec<Envelope<Q::Payload>> = Vec::new();
        for v in self.graph.nodes() {
            if self.delivery.crashed(v, round) {
                continue;
            }
            if let Some(proto) = self.protocols[v.index()].as_mut() {
                let ctx = NodeContext {
                    id: v,
                    round,
                    neighbors: self.graph.neighbors(v).clone(),
                };
                let sends = match &delivered {
                    None => proto.start(&ctx),
                    Some(inboxes) => proto.on_round(&ctx, inboxes.inbox(v)),
                };
                outbox.extend(transport.admit_honest(
                    round,
                    v,
                    sends,
                    &mut books.metrics,
                    &mut honest_this_round,
                    observer,
                ));
            }
        }
        let adversarial = match &delivered {
            None => self.adversary.start(&self.graph),
            Some(inboxes) => self.adversary.on_round(round, &self.graph, inboxes),
        };
        outbox.extend(transport.admit_adversarial(
            round,
            self.adversary.corrupted(),
            adversarial,
            &mut books.metrics,
            observer,
        ));
        self.delivery.send(round, outbox, observer);
        books
            .metrics
            .honest_messages_per_round
            .push(honest_this_round);
        if O::ACTIVE {
            sweep_decisions(
                &self.graph,
                &self.protocols,
                round,
                &mut books.decided,
                observer,
            );
        }
        books.end_round(round, self.delivery.lost(), observer);
    }

    /// Takes the envelopes due in `round` from the delivery policy and files
    /// them by recipient, emitting a [`RunEvent::Delivery`] for each.
    fn deliver<O: RunObserver>(
        &mut self,
        round: u32,
        observer: &mut O,
    ) -> RoundInboxes<Q::Payload> {
        let mut delivered = RoundInboxes::new(self.protocols.len());
        for env in self.delivery.due(round) {
            if O::ACTIVE {
                observer.on_event(&RunEvent::Delivery {
                    round,
                    from: env.from.raw(),
                    to: env.to.raw(),
                    payload: format!("{:?}", env.payload),
                });
            }
            delivered.push(env);
        }
        delivered
    }
}

/// What one run accumulates across its rounds.
struct Books {
    metrics: Metrics,
    /// One flag per node: has its decision been reported yet?
    decided: Vec<bool>,
    /// The profiling clock; `None` unless profiling an observed run.
    profile: Option<Clock>,
    round_start_ns: u64,
    /// `(messages, bits, lost)` already billed in `RoundEnd` events.
    billed: (u64, u64, u64),
}

impl Books {
    /// When profiling, emits one [`RunEvent::RoundEnd`] billing everything
    /// since the previous round boundary: latency from `round_start_ns` to
    /// now (which becomes the next boundary), plus message, bit and loss
    /// deltas against `billed`.
    fn end_round<O: RunObserver>(&mut self, round: u32, lost: u64, observer: &mut O) {
        let Some(clock) = &self.profile else {
            return;
        };
        let now = clock.now_ns();
        let (messages, bits) = (self.metrics.total_messages(), self.metrics.honest_bits);
        observer.on_event(&RunEvent::RoundEnd {
            round,
            ns: now.saturating_sub(self.round_start_ns),
            messages: messages - self.billed.0,
            bits: bits - self.billed.1,
            drops: lost - self.billed.2,
        });
        self.round_start_ns = now;
        self.billed = (messages, bits, lost);
    }
}

impl<Q: Protocol, F> RunOutcome<Q, F> {
    /// The decision of node `v`, if it is honest and has decided.
    pub fn decision(&self, v: NodeId) -> Option<Q::Decision> {
        self.protocols
            .get(v.index())
            .and_then(Option::as_ref)
            .and_then(Protocol::decision)
    }

    /// The final protocol state of honest node `v`.
    pub fn protocol(&self, v: NodeId) -> Option<&Q> {
        self.protocols.get(v.index()).and_then(Option::as_ref)
    }

    /// The corrupted set of the run.
    pub fn corrupted(&self) -> &NodeSet {
        &self.corrupted
    }

    /// All honest nodes that decided, with their decisions.
    pub fn decided(&self) -> Vec<(NodeId, Q::Decision)> {
        self.protocols
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                p.as_ref()
                    .and_then(Protocol::decision)
                    .map(|d| (NodeId::new(i as u32), d))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{MapAdversary, SilentAdversary};
    use crate::testing::Flood;
    use rmt_graph::generators;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn flood_from_zero(v: NodeId) -> Flood {
        Flood::new(v, (v.index() == 0).then_some(7))
    }

    #[test]
    fn flood_reaches_everyone_without_adversary() {
        let g = generators::cycle(6);
        let out = Runner::new(g, flood_from_zero, SilentAdversary::new(NodeSet::new())).run();
        for v in 0..6u32 {
            assert_eq!(out.decision(v.into()), Some(7), "node {v}");
        }
        // Cycle of 6: value reaches the antipode in 3 rounds, one more round
        // of sends, nothing in flight afterwards.
        assert!(out.metrics.rounds <= 5);
        assert_eq!(
            out.termination,
            Termination::Quiesced {
                round: out.metrics.rounds
            }
        );
        assert_eq!(out.metrics.honest_messages_per_round[0], 2);
    }

    #[test]
    fn silent_cut_blocks_flooding() {
        let g = generators::path_graph(4); // 0-1-2-3, corrupt 1
        let out = Runner::new(g, flood_from_zero, SilentAdversary::new(set(&[1]))).run();
        assert_eq!(out.decision(0.into()), Some(7));
        assert_eq!(out.decision(2.into()), None);
        assert_eq!(out.decision(3.into()), None);
        assert_eq!(out.decision(1.into()), None); // corrupted: no decision
        assert_eq!(out.corrupted(), &set(&[1]));
    }

    #[test]
    fn map_adversary_alters_relayed_value() {
        let g = generators::path_graph(3); // 0-1-2, corrupt 1, flip 7→9
        let adv = MapAdversary::new(set(&[1]), flood_from_zero, |_, mut env| {
            env.payload = 9u64;
            Some(env)
        });
        let out = Runner::new(g, flood_from_zero, adv).run();
        assert_eq!(out.decision(2.into()), Some(9));
        assert!(out.metrics.adversarial_messages > 0);
    }

    #[test]
    fn invalid_adversarial_traffic_is_rejected() {
        let g = generators::path_graph(3);
        let adv = crate::adversary::FnAdversary::<u64, _>::new(set(&[1]), |round, _, _| {
            if round == 0 {
                vec![
                    Envelope::new(0.into(), 1.into(), 5), // forged sender
                    Envelope::new(1.into(), 1.into(), 5), // no self edge
                    Envelope::new(1.into(), 2.into(), 5), // valid
                ]
            } else {
                vec![]
            }
        });
        let out = Runner::new(g, |v| Flood::new(v, None), adv).run();
        assert_eq!(out.metrics.rejected_adversarial, 2);
        assert_eq!(out.metrics.adversarial_messages, 1);
        assert_eq!(out.decision(2.into()), Some(5));
    }

    #[test]
    fn delivery_events_reach_each_recipient_in_round_order() {
        let g = generators::path_graph(3);
        let mut obs = rmt_obs::VecObserver::new();
        Runner::new(g, flood_from_zero, SilentAdversary::new(NodeSet::new()))
            .run_observed(&mut obs);
        let to = |node: u32| -> Vec<(u32, u32, String)> {
            obs.events
                .iter()
                .filter_map(|ev| match ev {
                    RunEvent::Delivery {
                        round,
                        from,
                        to,
                        payload,
                    } if *to == node => Some((*round, *from, payload.clone())),
                    _ => None,
                })
                .collect()
        };
        // Each node forwards the value once, the round it first hears it.
        let seven = |round, from| (round, from, "7".to_string());
        assert_eq!(to(0), vec![seven(2, 1)]);
        assert_eq!(to(1), vec![seven(1, 0), seven(3, 2)]);
        assert_eq!(to(2), vec![seven(2, 1)]);
    }

    #[test]
    fn profiling_emits_one_round_end_per_round_with_exact_wire_deltas() {
        let run = |profiled: bool| {
            let g = generators::cycle(6);
            let mut runner = Runner::new(g, flood_from_zero, SilentAdversary::new(NodeSet::new()));
            if profiled {
                runner = runner.with_profiling(Clock::virtual_ns(10));
            }
            let mut obs = rmt_obs::VecObserver::new();
            let out = runner.run_observed(&mut obs);
            (out, obs.events)
        };

        let (out, events) = run(true);
        let round_ends: Vec<(u64, u64, u64)> = events
            .iter()
            .filter_map(|ev| match ev {
                RunEvent::RoundEnd {
                    messages,
                    bits,
                    drops,
                    ..
                } => Some((*messages, *bits, *drops)),
                _ => None,
            })
            .collect();
        let round_starts = events
            .iter()
            .filter(|ev| matches!(ev, RunEvent::RoundStart { .. }))
            .count();
        assert_eq!(round_ends.len(), round_starts);
        let billed: u64 = round_ends.iter().map(|(m, _, _)| m).sum();
        let billed_bits: u64 = round_ends.iter().map(|(_, b, _)| b).sum();
        assert_eq!(billed, out.metrics.total_messages());
        assert_eq!(billed_bits, out.metrics.honest_bits);
        assert!(round_ends.iter().all(|(_, _, d)| *d == 0));
        // The virtual clock makes latencies deterministic run over run.
        let latencies = |evs: &[RunEvent]| -> Vec<u64> {
            evs.iter()
                .filter_map(|ev| match ev {
                    RunEvent::RoundEnd { ns, .. } => Some(*ns),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(latencies(&events), latencies(&run(true).1));

        // Unprofiled observed runs stay exactly as before: no RoundEnd.
        let (_, plain) = run(false);
        assert!(!plain
            .iter()
            .any(|ev| matches!(ev, RunEvent::RoundEnd { .. })));
        assert_eq!(plain.len(), events.len() - round_ends.len());
    }

    #[test]
    fn max_rounds_bounds_execution() {
        // A protocol that echoes forever on a 2-cycle would never quiesce;
        // flooding does, but verify the bound is respected with a tiny cap.
        let g = generators::cycle(8);
        let out = Runner::new(g, flood_from_zero, SilentAdversary::new(NodeSet::new()))
            .with_max_rounds(1)
            .run();
        assert_eq!(out.metrics.rounds, 1);
        assert_eq!(out.termination, Termination::Stalled { round: 1 });
        assert_eq!(out.decision(4.into()), None); // too far for one round
    }
}
