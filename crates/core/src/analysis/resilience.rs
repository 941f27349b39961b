//! Attack-suite resilience and safety sweeps.
//!
//! A protocol is *resilient* for an instance if the receiver decides the
//! dealer's value under every admissible corruption and behaviour, and
//! *safe* if it never decides a wrong value in any instance. Behaviours are
//! not enumerable, so the sweep runs the implemented attack strategies over
//! every worst-case corruption set and reports three counters; the
//! *blocking* direction of the characterizations additionally uses the
//! scenario-swap construction
//! ([`coupled_attack`](crate::analysis::coupled_attack)).

use rmt_obs::Registry;
use rmt_sets::NodeSet;

use crate::instance::Instance;
use crate::protocols::attacks::{pka_adversary, zcpa_adversary, PkaAttack, ZcpaAttack};
use crate::protocols::rmt_pka::{run_pka, RmtPka};
use crate::protocols::zcpa::run_zcpa;
use crate::protocols::Value;

/// Aggregated outcome of an attack sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SuiteReport {
    /// Total (corruption set × attack) runs.
    pub runs: usize,
    /// Runs where the receiver decided the dealer's value.
    pub correct: usize,
    /// Runs where the receiver abstained.
    pub undecided: usize,
    /// Runs where the receiver decided a wrong value — safety violations;
    /// each entry records (corruption set, attack label).
    pub violations: Vec<(NodeSet, String)>,
}

impl SuiteReport {
    /// `true` if every run decided correctly (empirical resilience).
    pub fn all_correct(&self) -> bool {
        self.correct == self.runs
    }

    /// `true` if no run decided a wrong value (empirical safety).
    pub fn safe(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sweeps RMT-PKA over every worst-case corruption set × attack strategy.
///
/// With `reg`, each run's receiver search effort is added there
/// ([`ReceiverState::record_into`]: `pka.selections_examined`,
/// `pka.covers_checked`, `pka.truncations`).
///
/// [`ReceiverState::record_into`]: crate::protocols::pka_decision::ReceiverState::record_into
pub fn pka_attack_suite(
    inst: &Instance,
    input: Value,
    attacks: &[PkaAttack],
    seed: u64,
    reg: Option<&Registry>,
) -> SuiteReport {
    let mut report = SuiteReport::default();
    for t in inst.worst_case_corruptions() {
        for (i, &attack) in attacks.iter().enumerate() {
            let adv = pka_adversary(inst, input, t.clone(), attack, seed ^ i as u64);
            let out = run_pka(inst, input, adv);
            let state = out
                .protocol(inst.receiver())
                .and_then(RmtPka::receiver_state);
            if let (Some(reg), Some(state)) = (reg, state) {
                state.record_into(reg);
            }
            record(
                &mut report,
                out.decision(inst.receiver()),
                input,
                &t,
                &attack.to_string(),
            );
        }
    }
    report
}

/// Sweeps Z-CPA over every worst-case corruption set × attack strategy.
pub fn zcpa_attack_suite(inst: &Instance, input: Value, attacks: &[ZcpaAttack]) -> SuiteReport {
    let mut report = SuiteReport::default();
    for t in inst.worst_case_corruptions() {
        for &attack in attacks {
            let adv = zcpa_adversary(input, t.clone(), attack);
            let out = run_zcpa(inst, input, adv);
            record(
                &mut report,
                out.decision(inst.receiver()),
                input,
                &t,
                &attack.to_string(),
            );
        }
    }
    report
}

fn record(
    report: &mut SuiteReport,
    decision: Option<Value>,
    input: Value,
    t: &NodeSet,
    attack: &str,
) {
    report.runs += 1;
    match decision {
        Some(x) if x == input => report.correct += 1,
        Some(_) => report.violations.push((t.clone(), attack.to_string())),
        None => report.undecided += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::attacks::{PKA_ATTACKS, ZCPA_ATTACKS};
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{Graph, ViewKind};

    fn diamond_instance(z_sets: &[&[u32]]) -> Instance {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap()
    }

    #[test]
    fn solvable_instance_passes_the_whole_suite() {
        let inst = diamond_instance(&[&[1]]);
        let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, 1, None);
        assert!(report.all_correct(), "{report:?}");
        assert_eq!(report.runs, PKA_ATTACKS.len()); // one worst-case set
    }

    #[test]
    fn unsolvable_instance_is_safe_but_not_resilient() {
        let inst = diamond_instance(&[&[1], &[2]]);
        let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, 2, None);
        assert!(report.safe(), "{report:?}");
        assert!(!report.all_correct());
        assert!(report.undecided > 0);
    }

    #[test]
    fn zcpa_suite_matches_fixpoint_prediction() {
        let solvable = diamond_instance(&[&[1]]);
        assert!(zcpa_attack_suite(&solvable, 3, &ZCPA_ATTACKS).all_correct());
        let unsolvable = diamond_instance(&[&[1], &[2]]);
        let report = zcpa_attack_suite(&unsolvable, 3, &ZCPA_ATTACKS);
        assert!(report.safe());
        assert!(!report.all_correct());
    }
}
