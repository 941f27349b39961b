//! Differential test of the RMT-PKA receiver: a deliberately naive,
//! literal implementation of Definitions 4–6 (enumerate all valid message
//! sets; materialize 𝒵_B with the antichain ⊕ from `rmt-adversary`) is run
//! against the production decision engine on the receiver's *actual*
//! delivered messages under real attacks.
//!
//! The two implementations share no code path for the interesting parts:
//! the engine searches exclusions/selections with budgets and checks 𝒵_B
//! membership lazily; the reference enumerates subsets directly and folds
//! the join explicitly.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rmt_adversary::{AdversaryStructure, JointView, RestrictedStructure};
use rmt_core::protocols::attacks::{pka_adversary, PKA_ATTACKS};
use rmt_core::protocols::pka_decision::{DecisionConfig, ReceiverState};
use rmt_core::protocols::rmt_pka::{PkaPayload, RmtPka};
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_core::Instance;
use rmt_graph::{paths, traversal, Graph, ViewKind};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Adversary, Envelope, RoundInboxes, RunOutcome, Runner};

/// R's deliveries as `(round, envelope)`, in delivery order.
type Deliveries = Vec<(u32, Envelope<PkaPayload>)>;

/// A pass-through adversary that logs what one node is delivered. The
/// adversary has full information, so the runner already hands it every
/// node's inbox each round.
struct Tap {
    inner: Box<dyn Adversary<PkaPayload>>,
    node: NodeId,
    log: Rc<RefCell<Deliveries>>,
}

impl Adversary<PkaPayload> for Tap {
    fn corrupted(&self) -> &NodeSet {
        self.inner.corrupted()
    }

    fn start(&mut self, graph: &Graph) -> Vec<Envelope<PkaPayload>> {
        self.inner.start(graph)
    }

    fn on_round(
        &mut self,
        round: u32,
        graph: &Graph,
        delivered: &RoundInboxes<PkaPayload>,
    ) -> Vec<Envelope<PkaPayload>> {
        let inbox = delivered.inbox(self.node).iter().cloned();
        self.log.borrow_mut().extend(inbox.map(|env| (round, env)));
        self.inner.on_round(round, graph, delivered)
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }
}

/// Runs RMT-PKA with input 7 on `inst` under `adversary`, returning the
/// outcome and R's deliveries.
fn run_tapped(
    inst: &Instance,
    adversary: Box<dyn Adversary<PkaPayload>>,
) -> (RunOutcome<RmtPka>, Deliveries) {
    let log = Rc::new(RefCell::new(Vec::new()));
    let tap = Tap {
        inner: adversary,
        node: inst.receiver(),
        log: Rc::clone(&log),
    };
    let out = Runner::new(inst.graph().clone(), |v| RmtPka::node(inst, v, 7), tap).run();
    (out, log.take())
}

#[derive(Clone, Debug)]
struct Claim {
    node: NodeId,
    view: Graph,
    structure: AdversaryStructure,
}

/// Replays R's delivered messages through the paper's trail-validation rule
/// and collects the pools the decision subroutine sees.
fn collect_pools(
    inst: &Instance,
    log: &[(u32, Envelope<PkaPayload>)],
) -> (Vec<(u64, Vec<NodeId>)>, Vec<Claim>) {
    let me = inst.receiver();
    let mut type1 = Vec::new();
    let mut claims: Vec<Claim> = Vec::new();
    for (_, env) in log {
        let trail = env.payload.trail();
        if trail.last() != Some(&env.from) || trail.contains(&me) {
            continue;
        }
        match &env.payload {
            PkaPayload::DealerValue { value, trail } => {
                let mut p = trail.clone();
                p.push(me);
                if !type1.contains(&(*value, p.clone())) {
                    type1.push((*value, p));
                }
            }
            PkaPayload::Knowledge {
                node,
                view,
                structure,
                ..
            } => {
                // The same well-formedness filter the receiver applies.
                if *node == me
                    || !view.contains_node(*node)
                    || structure
                        .maximal_sets()
                        .iter()
                        .any(|m| !m.is_subset(view.nodes()))
                {
                    continue;
                }
                let candidate = Claim {
                    node: *node,
                    view: view.clone(),
                    structure: structure.clone(),
                };
                if !claims.iter().any(|c| {
                    c.node == candidate.node
                        && c.view == candidate.view
                        && c.structure == candidate.structure
                }) {
                    claims.push(candidate);
                }
            }
        }
    }
    (type1, claims)
}

/// The literal decision rule: try every value × every consistent claim
/// subset; full + cover-free decides.
fn reference_decide(
    inst: &Instance,
    type1: &[(u64, Vec<NodeId>)],
    claims: &[Claim],
) -> Option<u64> {
    let me = inst.receiver();
    let dealer = inst.dealer();
    let my_view = inst.view(me).clone();
    let my_structure = inst.local_structure(me);

    // Dealer rule.
    if type1
        .iter()
        .any(|(_, p)| p.as_slice() == [dealer, me] && inst.graph().has_edge(dealer, me))
    {
        // The direct message was validated on arrival; its value decides.
        return type1
            .iter()
            .find(|(_, p)| p.as_slice() == [dealer, me])
            .map(|(x, _)| *x);
    }

    let mut values: Vec<u64> = type1.iter().map(|(x, _)| *x).collect();
    values.sort_unstable();
    values.dedup();

    let n_claims = claims.len();
    assert!(n_claims <= 16, "reference enumeration is for tiny pools");
    for mask in 0u32..(1 << n_claims) {
        let chosen: Vec<&Claim> = (0..n_claims)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| &claims[i])
            .collect();
        // Consistency: at most one claim per node.
        let mut nodes = NodeSet::new();
        if !chosen.iter().all(|c| nodes.insert(c.node)) {
            continue;
        }
        let mut v_m = nodes.clone();
        v_m.insert(me);
        if !v_m.contains(dealer) {
            continue;
        }
        let mut joint = my_view.clone();
        for c in &chosen {
            joint.union_with(&c.view);
        }
        let g_m = joint.induced(&v_m);
        let Ok(all_paths) = paths::simple_paths(&g_m, dealer, me, 10_000) else {
            continue;
        };
        if all_paths.is_empty() {
            continue;
        }

        // Adversary cover via explicit ⊕ materialization.
        let mut candidates = v_m.clone();
        candidates.remove(dealer);
        candidates.remove(me);
        let knowledge = |u: NodeId| -> Option<(&Graph, &AdversaryStructure)> {
            if u == me {
                Some((&my_view, &my_structure))
            } else {
                chosen
                    .iter()
                    .find(|c| c.node == u)
                    .map(|c| (&c.view, &c.structure))
            }
        };
        let has_cover = candidates.subsets().any(|c| {
            let b = traversal::reachable_avoiding(&g_m, me, &c);
            if b.contains(dealer) {
                return false;
            }
            let view: JointView = b
                .iter()
                .filter_map(|u| {
                    knowledge(u).map(|(g, z)| {
                        RestrictedStructure::from_parts(
                            g.nodes().clone(),
                            z.maximal_sets().iter().cloned(),
                        )
                    })
                })
                .collect();
            let z_b = view.materialize();
            let gamma_b = z_b.domain().clone();
            z_b.contains(&c.intersection(&gamma_b))
        });
        if has_cover {
            continue;
        }

        for &x in &values {
            let received: Vec<&Vec<NodeId>> = type1
                .iter()
                .filter(|(v, _)| *v == x)
                .map(|(_, p)| p)
                .collect();
            if all_paths.iter().all(|p| received.contains(&p)) {
                return Some(x);
            }
        }
    }
    None
}

#[test]
fn engine_matches_the_literal_semantics_under_attacks() {
    let mut rng = rmt_graph::generators::seeded(4242);
    let mut compared = 0;
    for trial in 0..30 {
        let n = 5 + trial % 2; // tiny: the reference is exponential in claims
        let inst = random_instance_nonadjacent(n, 0.5, ViewKind::AdHoc, 2, 2, &mut rng);
        for (ai, &attack) in PKA_ATTACKS.iter().enumerate() {
            for t in inst.worst_case_corruptions() {
                let adv = pka_adversary(&inst, 7, t.clone(), attack, trial as u64 * 7 + ai as u64);
                let (out, log) = run_tapped(&inst, adv);
                let (type1, claims) = collect_pools(&inst, &log);
                if claims.len() > 12 {
                    continue; // keep the reference enumeration tractable
                }
                let reference = reference_decide(&inst, &type1, &claims);
                let engine = out.decision(inst.receiver());
                assert_eq!(
                    engine, reference,
                    "trial {trial}, attack {attack}, T = {t}: {inst:?}"
                );
                compared += 1;
            }
        }
    }
    assert!(compared > 20, "enough comparisons ran: {compared}");
}

/// The engine's verdict on one pool, from a fresh receiver: `None` when the
/// search ran into a budget (it may then abstain where the reference
/// decides).
fn engine_decide(
    inst: &Instance,
    type1: &[(u64, Vec<NodeId>)],
    claims: &[Claim],
) -> Option<Option<u64>> {
    let me = inst.receiver();
    let mut state = ReceiverState::new(
        me,
        inst.dealer(),
        inst.view(me).clone(),
        inst.local_structure(me),
    );
    for (x, path) in type1 {
        state.ingest_value(*x, &path[..path.len() - 1]);
    }
    for c in claims {
        state.ingest_claim(c.node, c.view.clone(), c.structure.clone());
    }
    let decided = state.decide(&DecisionConfig::default());
    (!state.truncated).then_some(decided)
}

proptest! {
    /// The receiver's exclusion-set search against the literal rule on
    /// every pool R held during an attacked run: each round prefix of its
    /// deliveries, and that prefix with one claim removed. Radius views
    /// report edges between other nodes, which leave G_M only when every
    /// node reporting them is excluded.
    #[test]
    fn search_matches_the_literal_semantics_on_every_round_prefix(
        seed in any::<u64>(),
        n in 5usize..=7,
        views in 0usize..3,
        removed in any::<usize>(),
    ) {
        let mut rng = rmt_graph::generators::seeded(seed);
        let views = [ViewKind::AdHoc, ViewKind::Radius(1), ViewKind::Radius(2)][views];
        let inst = random_instance_nonadjacent(n, 0.5, views, 2, 2, &mut rng);
        let cells = PKA_ATTACKS
            .iter()
            .flat_map(|&a| inst.worst_case_corruptions().into_iter().map(move |t| (a, t)));
        for (attack, t) in cells {
            let adv = pka_adversary(&inst, 7, t.clone(), attack, seed);
            let (_, log) = run_tapped(&inst, adv);
            let mut rounds: Vec<u32> = log.iter().map(|(r, _)| *r).collect();
            rounds.dedup();
            for round in rounds {
                let prefix = &log[..log.partition_point(|(r, _)| *r <= round)];
                let (type1, claims) = collect_pools(&inst, prefix);
                let mut pools = vec![claims.clone()];
                if !claims.is_empty() {
                    let mut fewer = claims;
                    fewer.remove(removed % fewer.len());
                    pools.push(fewer);
                }
                for claims in pools.iter().filter(|c| c.len() <= 12) {
                    if let Some(engine) = engine_decide(&inst, &type1, claims) {
                        prop_assert_eq!(
                            engine,
                            reference_decide(&inst, &type1, claims),
                            "attack {}, T = {}, round {}: {:?}", attack, t, round, inst
                        );
                    }
                }
            }
        }
    }
}
