//! Z-CPA adapted to RMT (Section 4.1 of the paper).
//!
//! The dealer sends its value to its neighbours and terminates. A player
//! adjacent to the dealer decides on the dealer's value directly. Any other
//! player decides on `x` upon receiving `x` from a neighbour set
//! `N ∉ 𝒵_v` — then at least one certifier is honest in every admissible
//! scenario. On deciding, a player other than R relays once and terminates;
//! R outputs.
//!
//! Z-CPA is a *protocol scheme* (Definition 8): the membership check
//! `N ∉ 𝒵_v` is a black-box subroutine. [`MembershipOracle`] is that
//! subroutine's interface; the self-reduction of Theorem 9 plugs in a
//! simulation-based oracle (`reduction::PiSimulationOracle`) in place of the
//! explicit antichain lookup ([`ExplicitOracle`]).

use std::collections::BTreeMap;

use rmt_adversary::AdversaryStructure;
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Envelope, NodeContext, Protocol};

use crate::instance::Instance;
use crate::protocols::Value;

/// The black-box membership subroutine of the Z-CPA scheme.
///
/// `certifies(v, class, all_senders)` must return `true` iff
/// `class ∉ 𝒵_v` — i.e. the value relayed by `class` is certified because no
/// admissible corruption covers all of `class`. `all_senders` is the set of
/// all neighbours that relayed any value this far (the middle set `A` of the
/// derived star instance); explicit oracles ignore it, the Π-simulation
/// oracle needs it to build its runs.
pub trait MembershipOracle {
    /// The membership check `class ∉ 𝒵_v`.
    fn certifies(&mut self, v: NodeId, class: &NodeSet, all_senders: &NodeSet) -> bool;

    /// Number of membership queries answered (for the efficiency
    /// experiments).
    fn queries(&self) -> u64;
}

/// The explicit membership check: an antichain lookup in 𝒵_v.
#[derive(Clone, Debug)]
pub struct ExplicitOracle {
    local: AdversaryStructure,
    queries: u64,
}

impl ExplicitOracle {
    /// Creates the oracle for player `v` of `inst`.
    pub fn for_node(inst: &Instance, v: NodeId) -> Self {
        ExplicitOracle {
            local: inst.local_structure(v),
            queries: 0,
        }
    }

    /// Creates the oracle from an explicit local structure.
    pub fn new(local: AdversaryStructure) -> Self {
        ExplicitOracle { local, queries: 0 }
    }
}

impl MembershipOracle for ExplicitOracle {
    fn certifies(&mut self, _v: NodeId, class: &NodeSet, _all: &NodeSet) -> bool {
        self.queries += 1;
        !self.local.contains(class)
    }

    fn queries(&self) -> u64 {
        self.queries
    }
}

/// One player's Z-CPA state machine, generic over the membership subroutine.
#[derive(Clone, Debug)]
pub struct ZCpa<O> {
    id: NodeId,
    dealer: NodeId,
    receiver: NodeId,
    /// Dealer's input value (dealer only).
    input: Option<Value>,
    /// First value received per neighbour; `None` marks an equivocating
    /// (erroneous) neighbour excluded from certification.
    received: BTreeMap<NodeId, Option<Value>>,
    decision: Option<Value>,
    decided_at: Option<u32>,
    relayed: bool,
    broadcast: bool,
    oracle: O,
}

impl ZCpa<ExplicitOracle> {
    /// Builds the node `v` of `inst` with the explicit membership oracle.
    /// `input` is the dealer's value (used only when `v` is the dealer).
    pub fn node(inst: &Instance, v: NodeId, input: Value) -> Self {
        ZCpa::with_oracle(inst, v, input, ExplicitOracle::for_node(inst, v))
    }
}

impl<O: MembershipOracle> ZCpa<O> {
    /// Builds the node `v` of `inst` with a custom membership oracle (the
    /// protocol-scheme instantiation of Definition 8).
    pub fn with_oracle(inst: &Instance, v: NodeId, input: Value, oracle: O) -> Self {
        ZCpa {
            id: v,
            dealer: inst.dealer(),
            receiver: inst.receiver(),
            input: (v == inst.dealer()).then_some(input),
            received: BTreeMap::new(),
            decision: None,
            decided_at: None,
            relayed: false,
            broadcast: false,
            oracle,
        }
    }

    /// The round in which this node decided (0 for the dealer), if any.
    pub fn decided_at(&self) -> Option<u32> {
        self.decided_at
    }

    /// Switches the node to *broadcast* semantics: there is no distinguished
    /// receiver, so this node relays on deciding like everyone else (used by
    /// [`broadcast`](crate::broadcast)).
    pub fn set_broadcast_mode(&mut self) {
        self.broadcast = true;
    }

    /// The membership oracle (for query accounting).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    fn relay_sends(&mut self, ctx: &NodeContext, x: Value) -> Vec<(NodeId, Value)> {
        // R outputs instead of relaying (unless in broadcast mode); everyone
        // else relays exactly once.
        if self.relayed || (self.id == self.receiver && !self.broadcast) {
            return Vec::new();
        }
        self.relayed = true;
        ctx.neighbors.iter().map(|n| (n, x)).collect()
    }

    fn try_decide(&mut self) -> Option<Value> {
        // Group senders into value classes, skipping erroneous neighbours.
        let mut classes: BTreeMap<Value, NodeSet> = BTreeMap::new();
        let mut all = NodeSet::new();
        for (&from, val) in &self.received {
            if let Some(x) = val {
                classes.entry(*x).or_default().insert(from);
                all.insert(from);
            }
        }
        for (x, class) in &classes {
            if self.oracle.certifies(self.id, class, &all) {
                return Some(*x);
            }
        }
        None
    }
}

impl<O: MembershipOracle> Protocol for ZCpa<O> {
    type Payload = Value;
    type Decision = Value;

    fn start(&mut self, ctx: &NodeContext) -> Vec<(NodeId, Value)> {
        if self.id == self.dealer {
            let x = self.input.expect("dealer has an input");
            self.decision = Some(x);
            self.decided_at = Some(0);
            self.relayed = true;
            return ctx.neighbors.iter().map(|n| (n, x)).collect();
        }
        Vec::new()
    }

    fn on_round(&mut self, ctx: &NodeContext, inbox: &[Envelope<Value>]) -> Vec<(NodeId, Value)> {
        if self.decision.is_some() {
            return Vec::new();
        }
        for env in inbox {
            if env.from == self.dealer {
                // Rule 1: the dealer's value arrives on an authenticated
                // channel from the (honest) dealer.
                self.decision = Some(env.payload);
                self.decided_at = Some(ctx.round);
                let x = env.payload;
                return self.relay_sends(ctx, x);
            }
            match self.received.entry(env.from) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(Some(env.payload));
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    // A second, different message from the same neighbour is
                    // erroneous: honest players send once.
                    if *e.get() != Some(env.payload) {
                        e.insert(None);
                    }
                }
            }
        }
        if let Some(x) = self.try_decide() {
            self.decision = Some(x);
            self.decided_at = Some(ctx.round);
            return self.relay_sends(ctx, x);
        }
        Vec::new()
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }
}

/// Runs Z-CPA (explicit oracle) on an instance under a given adversary and
/// returns the receiver's decision — convenience for tests and experiments.
///
/// # Example
///
/// ```
/// use rmt_core::{gallery, protocols::zcpa::run_zcpa};
/// use rmt_graph::ViewKind;
/// use rmt_sets::NodeSet;
/// use rmt_sim::SilentAdversary;
///
/// let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
/// let out = run_zcpa(&inst, 7, SilentAdversary::new(NodeSet::new()));
/// assert_eq!(out.decision(inst.receiver()), Some(7));
/// ```
pub fn run_zcpa<A>(
    inst: &Instance,
    input: Value,
    adversary: A,
) -> rmt_sim::RunOutcome<ZCpa<ExplicitOracle>>
where
    A: rmt_sim::Adversary<Value>,
{
    rmt_sim::Runner::new(
        inst.graph().clone(),
        |v| ZCpa::node(inst, v, input),
        adversary,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sim::SilentAdversary;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    fn adhoc(g: Graph, z: AdversaryStructure, d: u32, r: u32) -> Instance {
        Instance::new(g, z, ViewKind::AdHoc, d.into(), r.into()).unwrap()
    }

    #[test]
    fn honest_run_delivers_on_solvable_instance() {
        let inst = adhoc(diamond(), AdversaryStructure::from_sets([set(&[1])]), 0, 3);
        let out = run_zcpa(&inst, 42, SilentAdversary::new(NodeSet::new()));
        assert_eq!(out.decision(3.into()), Some(42));
    }

    #[test]
    fn silent_corruption_within_tolerance_still_delivers() {
        let inst = adhoc(diamond(), AdversaryStructure::from_sets([set(&[1])]), 0, 3);
        let out = run_zcpa(&inst, 42, SilentAdversary::new(set(&[1])));
        // R hears 42 only from 2; {2} ∉ 𝒵_R (only {1} is admissible), so R
        // certifies and decides.
        assert_eq!(out.decision(3.into()), Some(42));
    }

    #[test]
    fn unsolvable_instance_blocks_certification() {
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = adhoc(diamond(), z, 0, 3);
        let out = run_zcpa(&inst, 42, SilentAdversary::new(set(&[1])));
        // {2} ∈ 𝒵_R now, so R cannot certify — and must not decide.
        assert_eq!(out.decision(3.into()), None);
    }

    #[test]
    fn equivocating_neighbour_is_excluded() {
        // Path 0-1-2 with corrupted 1 equivocating to 2: R=2 must not decide.
        let g = generators::path_graph(3);
        let z = AdversaryStructure::from_sets([set(&[1])]);
        let inst = adhoc(g, z, 0, 2);
        let adv = rmt_sim::FnAdversary::<Value, _>::new(set(&[1]), |round, _, _| {
            if round <= 1 {
                vec![
                    Envelope::new(1.into(), 2.into(), 7u64),
                    Envelope::new(1.into(), 2.into(), 8u64),
                ]
            } else {
                Vec::new()
            }
        });
        let out = run_zcpa(&inst, 42, adv);
        assert_eq!(out.decision(2.into()), None);
    }

    #[test]
    fn dealer_neighbour_decides_from_dealer_even_if_structure_is_huge() {
        let g = generators::complete(4);
        let z = AdversaryStructure::from_sets([set(&[1, 2, 3])]);
        let inst = adhoc(g, z, 0, 3);
        let out = run_zcpa(&inst, 9, SilentAdversary::new(set(&[1, 2])));
        assert_eq!(out.decision(3.into()), Some(9));
    }

    #[test]
    fn oracle_queries_are_counted() {
        let inst = adhoc(diamond(), AdversaryStructure::from_sets([set(&[1])]), 0, 3);
        let out = run_zcpa(&inst, 1, SilentAdversary::new(NodeSet::new()));
        let r = out.protocol(3.into()).unwrap();
        // R is not a dealer neighbour: it certified via the oracle.
        assert!(r.oracle().queries() >= 1);
    }

    #[test]
    fn simulation_agrees_with_fixpoint_on_random_instances() {
        let mut rng = generators::seeded(99);
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let g = generators::gnp_connected(n, 0.4, &mut rng);
            let z = crate::sampling::random_structure(g.nodes(), 3, 2, &mut rng);
            let inst = adhoc(g, z, 0, n as u32 - 1);
            for t in inst.worst_case_corruptions() {
                let analytic = crate::cuts::zcpa_fixpoint(&inst, &t, None);
                let out = run_zcpa(&inst, 5, SilentAdversary::new(t.clone()));
                let r = inst.receiver();
                assert_eq!(
                    analytic.contains(r),
                    out.decision(r) == Some(5),
                    "trial {trial}, T = {t}"
                );
            }
        }
    }
}
