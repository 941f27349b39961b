//! The scenario-swap (indistinguishability) attack — the executable form of
//! the impossibility proofs (Theorem 3, Theorem 8; Figure 2).
//!
//! Given an RMT-cut witness `C = C₁ ∪ C₂`, two runs are executed in
//! lockstep:
//!
//! * run **e** on the true instance (structure 𝒵, dealer value `x₀`) with
//!   corruption set `C₁`;
//! * run **e′** on the forged instance (structure 𝒵′, dealer value `x₁`)
//!   with corruption set `C₂`,
//!
//! where 𝒵′ = materialize(𝒵_B) ∪ {C₂}: the receiver-side component `B`
//! cannot distinguish 𝒵′ from 𝒵 (their traces on every `V(γ(v))`, `v ∈ B`,
//! coincide — that is exactly what the RMT-cut condition
//! `C₂ ∩ V(γ(B)) ∈ 𝒵_B` buys), and `C₂` is admissible in 𝒵′.
//!
//! Corrupted nodes mirror their honest alter ego from the twin run
//! ([`CoupledRunner`], which executes both runs as one product-protocol run
//! on the shared round loop). The theory predicts — and the experiments
//! assert — that every node of `B` receives identical messages in both
//! runs, so a *safe* protocol cannot decide in either. The report carries
//! R's per-round deliveries in both runs, which experiment E8 prints.

use rmt_adversary::AdversaryStructure;
use rmt_sets::NodeSet;

use crate::cuts::RmtCutWitness;
use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;
use crate::protocols::pka_decision::ReceiverState;
use crate::protocols::rmt_pka::{PkaPayload, RmtPka};
use crate::protocols::Value;
use rmt_sim::{CoupledRunner, Envelope};

/// Why the coupled attack could not be constructed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoupledAttackError {
    /// Materializing 𝒵_B exceeded the antichain bound.
    JointBlowup {
        /// The bound that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for CoupledAttackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoupledAttackError::JointBlowup { limit } => {
                write!(f, "materializing 𝒵_B exceeded {limit} maximal sets")
            }
        }
    }
}

impl std::error::Error for CoupledAttackError {}

/// The outcome of the scenario-swap attack.
#[derive(Clone, Debug)]
pub struct CoupledAttackReport {
    /// Whether the receiver's deliveries were identical in both runs (the
    /// indistinguishability the construction establishes).
    pub receiver_views_equal: bool,
    /// Whether *every* node of B had identical deliveries.
    pub component_views_equal: bool,
    /// R's decision in run e (true structure, value `x0`).
    pub decision_e: Option<Value>,
    /// R's decision in run e′ (forged structure, value `x1`).
    pub decision_e2: Option<Value>,
    /// `true` if either run decided a value different from its dealer's —
    /// a safety violation.
    pub safety_violation: bool,
    /// `true` if the attack *blocked* the protocol: no decision in run e.
    pub blocked: bool,
    /// Rounds executed (the same in both runs).
    pub rounds: u32,
    /// The messages delivered to R in run e, as `(round, envelope)`.
    pub delivered_e: Vec<(u32, Envelope<PkaPayload>)>,
    /// The messages delivered to R in run e′.
    pub delivered_e2: Vec<(u32, Envelope<PkaPayload>)>,
    /// R's receiver state at the end of run e, whose search counters
    /// [`ReceiverState::record_into`] reports.
    pub receiver_e: ReceiverState,
    /// R's receiver state at the end of run e′.
    pub receiver_e2: ReceiverState,
}

/// Executes the scenario-swap attack for an RMT-cut witness.
///
/// # Errors
///
/// Returns [`CoupledAttackError::JointBlowup`] if 𝒵_B cannot be materialized
/// within `join_limit` maximal sets.
pub fn run_coupled_attack(
    inst: &Instance,
    witness: &RmtCutWitness,
    x0: Value,
    x1: Value,
    join_limit: usize,
) -> Result<CoupledAttackReport, CoupledAttackError> {
    run_coupled_attack_observed(
        inst,
        witness,
        x0,
        x1,
        join_limit,
        &mut rmt_obs::NoopObserver,
        &mut rmt_obs::NoopObserver,
    )
}

/// [`run_coupled_attack`] with run e streamed through `obs_e` and run e′
/// through `obs_e2` (see [`CoupledRunner::run_observed`]).
///
/// The `rmt-trace` tool records both streams to JSONL and diffs them
/// restricted to the receiver's view, exhibiting Figure 2 mechanically.
#[allow(clippy::too_many_arguments)]
pub fn run_coupled_attack_observed<O1, O2>(
    inst: &Instance,
    witness: &RmtCutWitness,
    x0: Value,
    x1: Value,
    join_limit: usize,
    obs_e: &mut O1,
    obs_e2: &mut O2,
) -> Result<CoupledAttackReport, CoupledAttackError>
where
    O1: rmt_obs::RunObserver,
    O2: rmt_obs::RunObserver,
{
    let cache = KnowledgeCache::new(inst);
    let b = &witness.receiver_component;

    // 𝒵′ = materialize(𝒵_B) ∪ {C₂}.
    let z_b = cache
        .joint_view(b)
        .materialize_bounded(join_limit)
        .ok_or(CoupledAttackError::JointBlowup { limit: join_limit })?;
    let mut forged_sets: Vec<NodeSet> = z_b.structure().maximal_sets().to_vec();
    forged_sets.push(witness.c2.clone());
    let z_forged = AdversaryStructure::from_sets(forged_sets);

    let inst_forged = Instance::with_views(
        inst.graph().clone(),
        z_forged,
        inst.views().clone(),
        inst.dealer(),
        inst.receiver(),
    )
    .expect("forged instance shares the verified topology");

    let outcome = CoupledRunner::new(
        inst.graph().clone(),
        witness.c1.clone(),
        witness.c2.clone(),
        |v| RmtPka::node(inst, v, x0),
        |v| RmtPka::node(&inst_forged, v, x1),
    )
    .run_observed(obs_e, obs_e2);

    let r = inst.receiver();
    // R lies outside the cut, so it is honest in both runs.
    let receiver = |node: Option<&RmtPka>| {
        node.and_then(RmtPka::receiver_state)
            .expect("the receiver is honest in both runs")
            .clone()
    };
    let decision_e = outcome.decision_e(r);
    let decision_e2 = outcome.decision_e2(r);
    Ok(CoupledAttackReport {
        receiver_views_equal: outcome.views_equal(r),
        component_views_equal: b.iter().all(|v| outcome.views_equal(v)),
        decision_e,
        decision_e2,
        safety_violation: decision_e.is_some_and(|x| x != x0)
            || decision_e2.is_some_and(|x| x != x1),
        blocked: decision_e.is_none(),
        rounds: outcome.rounds,
        delivered_e: outcome.delivered_e(r).to_vec(),
        delivered_e2: outcome.delivered_e2(r).to_vec(),
        receiver_e: receiver(outcome.protocol_e(r)),
        receiver_e2: receiver(outcome.protocol_e2(r)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::find_rmt_cut;
    use rmt_graph::{Graph, ViewKind};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn bad_diamond() -> Instance {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap()
    }

    #[test]
    fn swap_attack_blocks_pka_on_the_bad_diamond() {
        let inst = bad_diamond();
        let witness = find_rmt_cut(&inst, None).expect("instance is unsolvable");
        let report = run_coupled_attack(&inst, &witness, 0, 1, 1 << 16).unwrap();
        assert!(report.receiver_views_equal, "{report:?}");
        assert!(report.component_views_equal, "{report:?}");
        assert!(!report.safety_violation, "{report:?}");
        assert!(report.blocked, "{report:?}");
        assert_eq!(report.decision_e, report.decision_e2);
    }

    #[test]
    fn join_limit_is_enforced() {
        let inst = bad_diamond();
        let witness = find_rmt_cut(&inst, None).unwrap();
        assert!(matches!(
            run_coupled_attack(&inst, &witness, 0, 1, 0),
            Err(CoupledAttackError::JointBlowup { limit: 0 })
        ));
    }
}
