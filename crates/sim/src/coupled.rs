//! The two coupled runs of the paper's lower bounds (Figure 2; proofs of
//! Theorems 3 and 8), as one product protocol on the one round loop.
//!
//! Each node runs [`Coupled`]: its run-e instance `a[v]` and its run-e′
//! instance `b[v]` side by side. Messages carry a world tag that costs no
//! bits; a node splits its inbox by tag, feeds each half to its instance
//! of that world, and tags what it sends. A node of `C₁` (corrupted in e)
//! sends `b[v]`'s output under both tags, a node of `C₂` (corrupted in e′)
//! sends `a[v]`'s output under both tags. [`Runner`] with no corrupted node
//! on [`Lockstep`] then does all the scheduling, edge filtering and round
//! capping of both runs at once.
//!
//! [`Lockstep`]: crate::Lockstep

use std::convert::Infallible;
use std::fmt;

use rmt_graph::Graph;
use rmt_obs::{NoopObserver, RunEvent, RunObserver, VecObserver};
use rmt_sets::{NodeId, NodeSet};

use crate::adversary::SilentAdversary;
use crate::message::{Envelope, Payload};
use crate::protocol::{NodeContext, Protocol};
use crate::runner::{RunOutcome, Runner};

/// One of the two coupled runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum World {
    /// Run e: scenario-e parameters, corruption set `C₁`.
    E = 0,
    /// Run e′: scenario-e′ parameters, corruption set `C₂`.
    E2 = 1,
}

impl World {
    /// The prefix of a tagged payload's `Debug` form, which the per-world
    /// event streams strip.
    fn tag(self) -> &'static str {
        match self {
            World::E => "e:",
            World::E2 => "e′:",
        }
    }
}

/// A payload of one world.
#[derive(Clone, PartialEq)]
struct Tagged<P> {
    world: World,
    payload: P,
}

impl<P: fmt::Debug> fmt::Debug for Tagged<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.world.tag(), self.payload)
    }
}

impl<P: Payload> Payload for Tagged<P> {
    /// The tag is free: a world's traffic costs what its payloads cost.
    fn encoded_bits(&self) -> usize {
        self.payload.encoded_bits()
    }
}

/// One node of the product protocol: `inst[E] = a[v]`, `inst[E2] = b[v]`.
///
/// It never reports a decision to the round loop, whose sweep reports each
/// node once; instead it records, per run, the round in which that run's
/// instance first decided. It also logs what each run delivered to it.
struct Coupled<Q: Protocol> {
    inst: [Q; 2],
    /// The run in which this node is corrupted (`C₁` → e, `C₂` → e′).
    corrupt_in: Option<World>,
    decided: [Option<(u32, Q::Decision)>; 2],
    delivered: [Vec<(u32, Envelope<Q::Payload>)>; 2],
}

impl<Q: Protocol> Coupled<Q> {
    /// Records first decisions and tags this round's sends of both
    /// instances; a corrupted node replays, in both runs, the instance of
    /// the run in which it is honest.
    fn tag_sends(
        &mut self,
        round: u32,
        [a, b]: [Vec<(NodeId, Q::Payload)>; 2],
    ) -> Vec<(NodeId, Tagged<Q::Payload>)> {
        for (inst, decided) in self.inst.iter().zip(&mut self.decided) {
            if decided.is_none() {
                *decided = inst.decision().map(|d| (round, d));
            }
        }
        let (to_e, to_e2) = match self.corrupt_in {
            Some(World::E) => (b.clone(), b),
            Some(World::E2) => (a.clone(), a),
            None => (a, b),
        };
        let tag = |world, sends: Vec<_>| {
            sends
                .into_iter()
                .map(move |(to, payload)| (to, Tagged { world, payload }))
        };
        tag(World::E, to_e).chain(tag(World::E2, to_e2)).collect()
    }
}

impl<Q: Protocol> Protocol for Coupled<Q> {
    type Payload = Tagged<Q::Payload>;
    type Decision = Infallible;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, Self::Payload)> {
        let sends = [self.inst[0].start(ctx), self.inst[1].start(ctx)];
        self.tag_sends(ctx.round, sends)
    }

    fn on_round(
        &mut self,
        ctx: &NodeContext,
        inbox: &[Envelope<Self::Payload>],
    ) -> Vec<(NodeId, Self::Payload)> {
        let mut split: [Vec<Envelope<Q::Payload>>; 2] = Default::default();
        for env in inbox {
            let Tagged { world, payload } = env.payload.clone();
            split[world as usize].push(Envelope::new(env.from, env.to, payload));
        }
        let sends = [
            self.inst[0].on_round(ctx, &split[0]),
            self.inst[1].on_round(ctx, &split[1]),
        ];
        for (log, inbox) in self.delivered.iter_mut().zip(split) {
            log.extend(inbox.into_iter().map(|env| (ctx.round, env)));
        }
        self.tag_sends(ctx.round, sends)
    }

    fn decision(&self) -> Option<Infallible> {
        None
    }
}

/// The two-run lockstep executor behind the paper's indistinguishability
/// arguments (Figure 2; proofs of Theorems 3 and 8).
///
/// Two runs evolve simultaneously on the same graph:
///
/// * run **e**: scenario-`e` parameters (say dealer value 0, structure 𝒵),
///   corruption set `C₁`;
/// * run **e′**: scenario-`e′` parameters (dealer value 1, structure 𝒵′),
///   corruption set `C₂`.
///
/// Every node has *two* protocol instances — `a[v]` with scenario-e
/// parameters driven by e's messages, and `b[v]` with scenario-e′ parameters
/// driven by e′'s messages. The corrupted nodes copy their honest alter ego
/// from the other run: in e, `C₁` sends whatever `b[C₁]` sends (their honest
/// behaviour in e′); in e′, `C₂` sends whatever `a[C₂]` sends.
///
/// When `C₁ ∪ C₂` is a D–R cut this construction makes the receiver-side
/// component's deliveries **identical** in both runs, which
/// [`CoupledOutcome::views_equal`] checks and the impossibility experiments
/// assert.
///
/// Both runs are one [`Runner`] run of the product protocol described in
/// the module docs, so they share its round cap and quiescence rule.
pub struct CoupledRunner<Q: Protocol> {
    graph: Graph,
    /// `[C₁, C₂]`, indexed by [`World`].
    corrupted: [NodeSet; 2],
    nodes: Vec<Option<Coupled<Q>>>,
    max_rounds: u32,
}

/// The result of a coupled run pair.
pub struct CoupledOutcome<Q: Protocol> {
    run: RunOutcome<Coupled<Q>>,
    corrupted: [NodeSet; 2],
    /// Rounds executed (same for both runs by construction).
    pub rounds: u32,
}

impl<Q: Protocol> CoupledRunner<Q> {
    /// Creates the coupled pair.
    ///
    /// `make_e(v)` builds v's instance with scenario-e parameters, and
    /// `make_e2(v)` with scenario-e′ parameters, for **every** node — the
    /// corrupted sets select which instance feeds which run.
    ///
    /// # Panics
    ///
    /// Panics if `c1` and `c2` intersect (the construction needs the
    /// partition `C = C₁ ∪ C₂` of a cut).
    pub fn new(
        graph: Graph,
        c1: NodeSet,
        c2: NodeSet,
        mut make_e: impl FnMut(NodeId) -> Q,
        mut make_e2: impl FnMut(NodeId) -> Q,
    ) -> Self {
        assert!(c1.is_disjoint(&c2), "C₁ and C₂ must be disjoint");
        let size = graph.nodes().last().map_or(0, |v| v.index() + 1);
        let mut nodes: Vec<Option<Coupled<Q>>> = (0..size).map(|_| None).collect();
        for v in graph.nodes() {
            nodes[v.index()] = Some(Coupled {
                inst: [make_e(v), make_e2(v)],
                corrupt_in: [World::E, World::E2]
                    .into_iter()
                    .find(|&w| [&c1, &c2][w as usize].contains(v)),
                decided: [None, None],
                delivered: Default::default(),
            });
        }
        let max_rounds = crate::transport::default_max_rounds(graph.node_count());
        CoupledRunner {
            graph,
            corrupted: [c1, c2],
            nodes,
            max_rounds,
        }
    }

    /// Overrides the round limit.
    pub fn with_max_rounds(mut self, max_rounds: u32) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Executes both runs to completion.
    pub fn run(self) -> CoupledOutcome<Q> {
        self.run_observed(&mut NoopObserver, &mut NoopObserver)
    }

    /// Executes both runs to completion, streaming run e through `obs_e`
    /// and run e′ through `obs_e2`.
    ///
    /// Each observer sees its run exactly as [`Runner::run_observed`] would
    /// render a single run: corrupted nodes' sends appear as
    /// [`RunEvent::AdversarialSend`] (in e that is `C₁` replaying its
    /// e′-honest alter ego, and symmetrically in e′), honest traffic as
    /// [`RunEvent::HonestSend`], every delivery as [`RunEvent::Delivery`].
    /// Diffing the two streams restricted to the receiver's view is the
    /// mechanical Figure 2 check.
    ///
    /// An observed run buffers the product run's stream and then
    /// demultiplexes it: each event goes to the run its world tag names,
    /// and each run's [`RunEvent::Decision`]s are placed at the end of the
    /// round in which they were reached, in ascending node order.
    pub fn run_observed<O1, O2>(mut self, obs_e: &mut O1, obs_e2: &mut O2) -> CoupledOutcome<Q>
    where
        O1: RunObserver,
        O2: RunObserver,
    {
        let runner = Runner::new(
            self.graph.clone(),
            |v| self.nodes[v.index()].take().expect("one pair per node"),
            SilentAdversary::new(NodeSet::new()),
        )
        .with_max_rounds(self.max_rounds);
        let mut product = VecObserver::new();
        let run = if O1::ACTIVE || O2::ACTIVE {
            runner.run_observed(&mut product)
        } else {
            runner.run()
        };
        let outcome = CoupledOutcome {
            rounds: run.metrics.rounds,
            run,
            corrupted: self.corrupted,
        };
        if O1::ACTIVE {
            outcome.replay(World::E, self.graph.nodes(), &product.events, obs_e);
        }
        if O2::ACTIVE {
            outcome.replay(World::E2, self.graph.nodes(), &product.events, obs_e2);
        }
        outcome
    }
}

impl<Q: Protocol> CoupledOutcome<Q> {
    /// Renders `world`'s run from the product run's event stream: keeps the
    /// events tagged with `world` (tag stripped), reports the run's own
    /// corrupted set, turns a corrupted node's sends into adversarial ones
    /// and inserts the run's decisions at the end of their rounds.
    fn replay<O: RunObserver>(
        &self,
        world: World,
        nodes: &NodeSet,
        product: &[RunEvent],
        obs: &mut O,
    ) {
        let corrupted = &self.corrupted[world as usize];
        let mut decisions: Vec<(u32, u32, String)> = nodes
            .difference(corrupted)
            .iter()
            .filter_map(|v| {
                let (round, d) = self.run.protocol(v)?.decided[world as usize].as_ref()?;
                Some((*round, v.raw(), format!("{d:?}")))
            })
            .collect();
        // Stable: ascending node order within a round.
        decisions.sort_by_key(|d| d.0);
        let mut decisions = decisions.into_iter().peekable();
        let mut decide_before = |end: u32, obs: &mut O| {
            while let Some((round, node, value)) = decisions.next_if(|d| d.0 < end) {
                obs.on_event(&RunEvent::Decision { round, node, value });
            }
        };
        for event in product {
            let mut event = event.clone();
            match &mut event {
                RunEvent::RunStart { corrupted: c, .. } => {
                    *c = corrupted.iter().map(NodeId::raw).collect();
                }
                RunEvent::RoundStart { round } => decide_before(*round, obs),
                RunEvent::RunEnd { .. } => decide_before(u32::MAX, obs),
                RunEvent::HonestSend { payload, .. } | RunEvent::Delivery { payload, .. } => {
                    let Some(own) = payload.strip_prefix(world.tag()) else {
                        continue;
                    };
                    *payload = own.to_string();
                }
                _ => {}
            }
            match event {
                RunEvent::HonestSend {
                    round,
                    from,
                    to,
                    payload,
                    ..
                } if corrupted.contains(NodeId::new(from)) => {
                    obs.on_event(&RunEvent::AdversarialSend {
                        round,
                        from,
                        to,
                        payload,
                    });
                }
                event => obs.on_event(&event),
            }
        }
    }

    /// The decision of honest node `v` in run e (`None` if `v ∈ C₁`).
    pub fn decision_e(&self, v: NodeId) -> Option<Q::Decision> {
        self.decision(World::E, v)
    }

    /// The decision of honest node `v` in run e′ (`None` if `v ∈ C₂`).
    pub fn decision_e2(&self, v: NodeId) -> Option<Q::Decision> {
        self.decision(World::E2, v)
    }

    fn decision(&self, world: World, v: NodeId) -> Option<Q::Decision> {
        self.protocol(world, v)?.decision()
    }

    /// Honest node `v`'s protocol instance at the end of run e (`None` if
    /// `v ∈ C₁`).
    pub fn protocol_e(&self, v: NodeId) -> Option<&Q> {
        self.protocol(World::E, v)
    }

    /// Honest node `v`'s protocol instance at the end of run e′ (`None` if
    /// `v ∈ C₂`).
    pub fn protocol_e2(&self, v: NodeId) -> Option<&Q> {
        self.protocol(World::E2, v)
    }

    fn protocol(&self, world: World, v: NodeId) -> Option<&Q> {
        if self.corrupted[world as usize].contains(v) {
            return None;
        }
        Some(&self.run.protocol(v)?.inst[world as usize])
    }

    /// Messages delivered to `v` in run e, as `(round, envelope)`.
    pub fn delivered_e(&self, v: NodeId) -> &[(u32, Envelope<Q::Payload>)] {
        self.run
            .protocol(v)
            .map_or(&[], |node| &node.delivered[World::E as usize])
    }

    /// Messages delivered to `v` in run e′.
    pub fn delivered_e2(&self, v: NodeId) -> &[(u32, Envelope<Q::Payload>)] {
        self.run
            .protocol(v)
            .map_or(&[], |node| &node.delivered[World::E2 as usize])
    }

    /// `true` if node `v` received exactly the same messages, in the same
    /// rounds, in both runs — the indistinguishability the lower-bound
    /// constructions establish for the receiver-side component.
    pub fn views_equal(&self, v: NodeId) -> bool {
        self.delivered_e(v) == self.delivered_e2(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Flood;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    /// Path 0-1-2-3-4: D=0, R=4, cut {1} ∪ {3}? Take the classic two-path
    /// diamond instead: D=0, two internal 1,2 in parallel, R=3. C₁={1},
    /// C₂={2} is a cut partition; flooding from D cannot let R distinguish
    /// the runs.
    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn receiver_views_coincide_across_the_cut() {
        let make_e = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(0));
        let make_e2 = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(1));
        let out = CoupledRunner::new(diamond(), set(&[1]), set(&[2]), make_e, make_e2).run();
        // R = 3 sees identical deliveries: from 1 it gets the e′ value (1)
        // in run e and the e′ value in run e′; from 2 the e value in both.
        assert!(out.views_equal(3.into()));
        assert!(!out.delivered_e(3.into()).is_empty());
        // Flood (which is not a safe RMT protocol) decides inconsistently —
        // demonstrating exactly the attack the construction encodes.
        let d_e = out.decision_e(3.into());
        let d_e2 = out.decision_e2(3.into());
        assert_eq!(d_e, d_e2);
        assert!(d_e == Some(0) || d_e == Some(1));
    }

    #[test]
    fn corrupted_nodes_report_no_decision() {
        let make_e = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(0));
        let make_e2 = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(1));
        let out = CoupledRunner::new(diamond(), set(&[1]), set(&[2]), make_e, make_e2).run();
        assert_eq!(out.decision_e(1.into()), None);
        assert_eq!(out.decision_e2(2.into()), None);
        // The dealer itself decided its own value in each run.
        assert_eq!(out.decision_e(0.into()), Some(0));
        assert_eq!(out.decision_e2(0.into()), Some(1));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_corruption_sets_are_rejected() {
        let make = |v: NodeId| Flood::new(v, None);
        let _ = CoupledRunner::new(diamond(), set(&[1]), set(&[1]), make, make);
    }
}
