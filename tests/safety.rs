//! Integration sweep for Theorem 4: RMT-PKA never decides a wrong value —
//! on solvable and unsolvable instances alike, under every implemented
//! attack including fictitious topology, and under randomized adversarial
//! noise.

use rand::Rng;
use rmt::core::analysis::pka_attack_suite;
use rmt::core::protocols::attacks::PKA_ATTACKS;
use rmt::core::protocols::rmt_pka::{run_pka, PkaPayload, RmtPka};
use rmt::core::sampling::random_instance;
use rmt::graph::{generators, Graph, ViewKind};
use rmt::sets::NodeSet;
use rmt::sim::{Envelope, FnAdversary};

#[test]
fn attack_suite_never_produces_a_wrong_decision() {
    let mut rng = generators::seeded(500);
    for trial in 0..25 {
        let n = 5 + trial % 4;
        let views = if trial % 2 == 0 {
            ViewKind::AdHoc
        } else {
            ViewKind::Radius(2)
        };
        let inst = random_instance(n, 0.4, views, 3, 2, &mut rng);
        let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, trial as u64, None);
        assert!(report.safe(), "trial {trial}: {:?}", report.violations);
    }
}

/// A chaos adversary spraying random forged values, trails and claims every
/// round. Safety must hold against arbitrary garbage, not just the scripted
/// strategies.
#[test]
fn randomized_garbage_is_harmless() {
    let mut rng = generators::seeded(501);
    for trial in 0..10 {
        let n = 6 + trial % 3;
        let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let input = 7;
        for t in inst.worst_case_corruptions() {
            let dealer = inst.dealer();
            let seed = trial as u64 * 31 + 7;
            let t_inner = t.clone();
            let adv = FnAdversary::new(t.clone(), move |round, graph: &Graph, _| {
                let mut rng = generators::seeded(seed ^ round as u64);
                let mut out = Vec::new();
                for c in &t_inner {
                    for nb in graph.neighbors(c) {
                        if rng.random_bool(0.7) {
                            let fake_mid =
                                rmt::sets::NodeId::new(rng.random_range(0..2 * n as u32));
                            let payload = PkaPayload::DealerValue {
                                value: rng.random_range(0..4),
                                trail: vec![dealer, fake_mid, c],
                            };
                            out.push(Envelope::new(c, nb, payload));
                        }
                    }
                }
                out
            });
            let out = run_pka(&inst, input, adv);
            let d = out.decision(inst.receiver());
            assert!(
                d.is_none() || d == Some(input),
                "trial {trial}, T = {t}: decided {d:?}"
            );
        }
    }
}

/// The safety property is unconditional: even on an instance where the
/// *entire* relay layer may be corrupted, the receiver abstains rather than
/// guessing.
#[test]
fn total_corruption_forces_abstention() {
    let mut g = Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let z =
        rmt::adversary::AdversaryStructure::from_sets([[1u32, 2].into_iter().collect::<NodeSet>()]);
    let inst = rmt::core::Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
    let report = pka_attack_suite(&inst, 9, &PKA_ATTACKS, 3, None);
    assert!(report.safe());
    assert_eq!(
        report.correct, 0,
        "nothing can be delivered through a fully corrupt cut"
    );
    let _ = RmtPka::node(&inst, 1.into(), 9); // constructor stays usable on such instances
}
