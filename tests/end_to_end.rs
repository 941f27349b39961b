//! End-to-end scenarios through the `rmt` facade crate — what a downstream
//! user's code looks like.
//!
//! Every test runs under a [`Watchdog`]: a hang (a stuck fixpoint, a
//! non-terminating protocol loop) aborts the process with the armed test's
//! name and its last progress note instead of wedging CI until the outer
//! timeout kills it without a diagnosis.

use std::time::Duration;

use rmt::adversary::AdversaryStructure;
use rmt::core::{analysis, cuts, protocols, Instance};
use rmt::graph::{generators, Graph, ViewKind};
use rmt::sets::NodeSet;
use rmt::sim::testing::Watchdog;
use rmt::sim::SilentAdversary;

fn set(ids: &[u32]) -> NodeSet {
    ids.iter().copied().collect()
}

const LIMIT: Duration = Duration::from_secs(120);

/// The full story on one instance: characterize, run both protocols,
/// cross-check the verdicts.
#[test]
fn full_pipeline_on_a_mesh() {
    let dog = Watchdog::arm("full_pipeline_on_a_mesh", LIMIT);
    let mut g = Graph::new();
    for (u, v) in [
        (0, 1),
        (1, 2),
        (2, 5),
        (0, 3),
        (3, 4),
        (4, 5),
        (0, 6),
        (6, 5),
    ] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([set(&[1]), set(&[3, 4])]);
    let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 5.into()).unwrap();

    let c = analysis::characterize(&inst);
    assert!(c.solvable());
    assert!(c.zcpa_solvable());

    for t in inst.worst_case_corruptions() {
        dog.note(format!("corruption {t}"));
        let pka = protocols::rmt_pka::run_pka(&inst, 42, SilentAdversary::new(t.clone()));
        assert_eq!(pka.decision(inst.receiver()), Some(42));
        let zcpa = protocols::zcpa::run_zcpa(&inst, 42, SilentAdversary::new(t.clone()));
        assert_eq!(zcpa.decision(inst.receiver()), Some(42));
    }
    dog.disarm();
}

/// Dealer adjacent to receiver: both protocols use the authenticated edge
/// regardless of how strong the adversary is elsewhere.
#[test]
fn adjacency_beats_any_structure() {
    let dog = Watchdog::arm("adjacency_beats_any_structure", LIMIT);
    let g = generators::complete(5);
    let z = AdversaryStructure::from_sets([set(&[1, 2, 3])]);
    let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 4.into()).unwrap();
    let worst = inst.worst_case_corruptions();
    for t in worst {
        dog.note(format!("corruption {t}"));
        let pka = protocols::rmt_pka::run_pka(&inst, 1, SilentAdversary::new(t.clone()));
        assert_eq!(pka.decision(inst.receiver()), Some(1));
    }
    dog.disarm();
}

/// The metrics surface: message/bit accounting is exposed to users and
/// Z-CPA is dramatically cheaper than RMT-PKA on the same instance.
#[test]
fn metrics_expose_the_efficiency_gap() {
    let dog = Watchdog::arm("metrics_expose_the_efficiency_gap", LIMIT);
    let mut rng = generators::seeded(9);
    let g = generators::ring_with_chords(12, 3, &mut rng);
    let inst = rmt::core::sampling::threshold_instance(g, 0, ViewKind::AdHoc, 0, 6);
    let zcpa = protocols::zcpa::run_zcpa(&inst, 3, SilentAdversary::new(NodeSet::new()));
    let pka = protocols::rmt_pka::run_pka(&inst, 3, SilentAdversary::new(NodeSet::new()));
    assert_eq!(zcpa.decision(inst.receiver()), Some(3));
    assert_eq!(pka.decision(inst.receiver()), Some(3));
    assert!(pka.metrics.honest_messages > zcpa.metrics.honest_messages);
    assert!(pka.metrics.honest_bits > zcpa.metrics.honest_bits);
    dog.disarm();
}

/// Minimal-knowledge analysis agrees with per-radius characterization and
/// the solvable-receivers design view is consistent with per-receiver
/// checks.
#[test]
fn design_phase_queries_are_consistent() {
    let dog = Watchdog::arm("design_phase_queries_are_consistent", LIMIT);
    let g = generators::grid(3, 3);
    let z = AdversaryStructure::from_sets([set(&[4]), set(&[1])]);
    let d = 0u32.into();
    let ok = analysis::solvable_receivers(&g, &z, d, ViewKind::AdHoc);
    for r in g.nodes() {
        if r == d {
            continue;
        }
        dog.note(format!("receiver {r}"));
        let inst = Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, d, r).unwrap();
        assert_eq!(
            ok.contains(r),
            cuts::find_rmt_cut(&inst, None).is_none(),
            "receiver {r}"
        );
    }
    dog.disarm();
}
