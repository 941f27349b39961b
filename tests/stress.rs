//! Randomized consistency sweeps: a thousand random instances through the
//! characterization/protocol equivalences and the safety property, RMT-PKA's
//! receiver search included (about 0.5 s in release, 5 s in debug).

use rmt::core::analysis::{pka_attack_suite, zcpa_attack_suite};
use rmt::core::cuts::{find_rmt_cut, zcpa_resilient, zpp_cut_by_enumeration, zpp_cut_by_fixpoint};
use rmt::core::protocols::attacks::{PKA_ATTACKS, ZCPA_ATTACKS};
use rmt::core::sampling::random_instance_nonadjacent;
use rmt::graph::{generators, ViewKind};

#[test]
fn soak_zpp_decider_equivalence() {
    let mut rng = generators::seeded(0x50AC);
    for trial in 0..600 {
        let n = 5 + trial % 6;
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 4, 3, &mut rng);
        assert_eq!(
            zpp_cut_by_enumeration(&inst).is_some(),
            zpp_cut_by_fixpoint(&inst).is_some(),
            "trial {trial}: {inst:?}"
        );
        assert_eq!(
            zpp_cut_by_fixpoint(&inst).is_some(),
            !zcpa_resilient(&inst),
            "trial {trial}"
        );
    }
}

#[test]
fn soak_pka_safety_and_resilience() {
    let mut rng = generators::seeded(0x50AD);
    for trial in 0..60 {
        let n = 5 + trial % 3;
        let views = [ViewKind::AdHoc, ViewKind::Radius(2), ViewKind::Full][trial % 3];
        let inst = random_instance_nonadjacent(n, 0.4, views, 3, 2, &mut rng);
        let report = pka_attack_suite(&inst, 7, &PKA_ATTACKS, trial as u64);
        assert!(report.safe(), "trial {trial}: {:?}", report.violations);
        if find_rmt_cut(&inst).is_none() {
            assert!(report.all_correct(), "trial {trial}: {report:?}");
        }
    }
}

#[test]
fn soak_zcpa_characterization() {
    let mut rng = generators::seeded(0x50AE);
    for trial in 0..400 {
        let n = 5 + trial % 6;
        let inst = random_instance_nonadjacent(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let report = zcpa_attack_suite(&inst, 7, &ZCPA_ATTACKS);
        assert!(report.safe(), "trial {trial}");
        if zcpa_resilient(&inst) {
            assert!(report.all_correct(), "trial {trial}: {report:?}");
        }
    }
}
