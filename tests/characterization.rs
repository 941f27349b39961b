//! Integration sweep: the cut characterizations against the protocols,
//! across random instances (the test-suite form of experiments E2/E5).

use rmt::adversary::AdversaryStructure;
use rmt::core::analysis::{pka_attack_suite, run_coupled_attack, zcpa_attack_suite};
use rmt::core::cuts::{find_rmt_cut, zcpa_resilient, zpp_cut_by_fixpoint};
use rmt::core::protocols::attacks::{PKA_ATTACKS, ZCPA_ATTACKS};
use rmt::core::sampling::{random_instance_nonadjacent, random_structure};
use rmt::core::Instance;
use rmt::graph::{generators, ViewKind};

/// Under ad hoc views the RMT-cut (Definition 3) and the RMT 𝒵-pp cut
/// (Definition 7) characterize the same unsolvability — the joint structure
/// 𝒵_B over star views decomposes into the per-node neighbourhood
/// conditions. Theorems 3+5 and 7+8 must therefore agree instance by
/// instance.
#[test]
fn adhoc_rmt_cut_equals_zpp_cut() {
    let mut rng = generators::seeded(404);
    for trial in 0..40 {
        let n = 5 + trial % 4;
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let rmt_cut = find_rmt_cut(&inst, None).is_some();
        let zpp = zpp_cut_by_fixpoint(&inst, None).is_some();
        assert_eq!(rmt_cut, zpp, "trial {trial}: {inst:?}");
    }
}

/// Knowledge monotonicity: if the instance is solvable with radius-k views
/// it stays solvable with radius-(k+1) views.
#[test]
fn solvability_is_monotone_in_knowledge() {
    let mut rng = generators::seeded(405);
    for trial in 0..15 {
        let g = generators::gnp_connected(7, 0.35, &mut rng);
        let z = random_structure(g.nodes(), 3, 2, &mut rng);
        let mut prev = false;
        for k in 0..4 {
            let inst = Instance::new(
                g.clone(),
                z.clone(),
                ViewKind::Radius(k),
                0.into(),
                6.into(),
            )
            .unwrap();
            let solvable = find_rmt_cut(&inst, None).is_none();
            assert!(!prev || solvable, "trial {trial}, radius {k}");
            prev = solvable;
        }
    }
}

/// Theorem 5 (operational): on RMT-cut-free instances RMT-PKA decides the
/// dealer's value under the whole attack suite. Theorem 3 (operational): on
/// instances with a cut, the scenario-swap attack provably blocks it.
#[test]
fn pka_matches_the_characterization() {
    let mut rng = generators::seeded(406);
    let mut solvable_seen = 0;
    let mut unsolvable_seen = 0;
    for trial in 0..20 {
        let n = 5 + trial % 3;
        let inst = random_instance_nonadjacent(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        match find_rmt_cut(&inst, None) {
            None => {
                solvable_seen += 1;
                let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, trial as u64, None);
                assert!(report.all_correct(), "trial {trial}: {report:?}");
            }
            Some(witness) => {
                unsolvable_seen += 1;
                let rep = run_coupled_attack(&inst, &witness, 0, 1, 1 << 14)
                    .expect("attack constructible");
                assert!(rep.receiver_views_equal, "trial {trial}");
                assert!(rep.blocked, "trial {trial}");
                assert!(!rep.safety_violation, "trial {trial}");
            }
        }
    }
    assert!(solvable_seen > 0);
    // Unsolvable instances are rarer under this sampler; the dedicated
    // diamond cases below always cover the branch.
    let _ = unsolvable_seen;
}

/// The canonical unsolvable diamond goes through the blocked branch.
#[test]
fn diamond_blocked_branch() {
    let mut g = rmt::graph::Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([
        rmt::sets::NodeSet::singleton(1u32.into()),
        rmt::sets::NodeSet::singleton(2u32.into()),
    ]);
    let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
    let witness = find_rmt_cut(&inst, None).unwrap();
    let rep = run_coupled_attack(&inst, &witness, 0, 1, 1 << 14).unwrap();
    assert!(rep.blocked && rep.receiver_views_equal && !rep.safety_violation);
}

/// Theorems 7+8 (operational): Z-CPA's simulated outcomes match the
/// analytic resilience verdict on random ad hoc instances.
#[test]
fn zcpa_matches_the_characterization() {
    let mut rng = generators::seeded(407);
    for trial in 0..25 {
        let n = 5 + trial % 4;
        let inst = random_instance_nonadjacent(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let resilient = zcpa_resilient(&inst);
        let report = zcpa_attack_suite(&inst, 7, &ZCPA_ATTACKS);
        assert!(report.safe(), "trial {trial}: {report:?}");
        if resilient {
            assert!(report.all_correct(), "trial {trial}: {report:?}");
        }
    }
}
