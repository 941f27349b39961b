//! E3 / T3 — safety of RMT-PKA (Theorem 4).
//!
//! Sweeps every implemented attack — including fictitious-topology lies —
//! over random instances (solvable and unsolvable alike) and every
//! worst-case corruption set, and counts the receiver's outcomes. The
//! paper's claim: the wrong-decision column is **zero**, unconditionally.

use rmt_bench::{Experiment, Table};
use rmt_core::analysis::pka_attack_suite;
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::attacks::{PkaAttack, PKA_ATTACKS};
use rmt_core::sampling::random_instance;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;

fn main() {
    let mut rng = seeded(0xE3);
    let mut exp = Experiment::new("e3_safety");
    exp.param("seed", "0xE3");
    exp.param("trials_per_attack", 50);
    let mut table = Table::new(
        "E3: safety sweep (receiver outcomes per attack, 50 random instances each)",
        &["attack", "runs", "correct", "undecided", "WRONG"],
    );
    let trials = 50;
    for attack in PKA_ATTACKS {
        let mut runs = 0;
        let mut correct = 0;
        let mut undecided = 0;
        let mut wrong = 0;
        for trial in 0..trials {
            let n = 5 + trial % 5;
            let views = if trial % 2 == 0 {
                ViewKind::AdHoc
            } else {
                ViewKind::Radius(2)
            };
            let inst = random_instance(n, 0.4, views, 3, 2, &mut rng);
            // Classify with the instrumented decider so the artifact's
            // counters record the search effort behind the sweep.
            if find_rmt_cut(&inst, Some(exp.registry())).is_some() {
                exp.registry().counter("e3.unsolvable_instances").inc();
            } else {
                exp.registry().counter("e3.solvable_instances").inc();
            }
            let report = pka_attack_suite(&inst, 7, &[attack], trial as u64, Some(exp.registry()));
            runs += report.runs;
            correct += report.correct;
            undecided += report.undecided;
            wrong += report.violations.len();
            for v in &report.violations {
                eprintln!("SAFETY VIOLATION under {attack}: {v:?} on {inst:?}");
            }
        }
        table.row(&[
            attack.to_string(),
            runs.to_string(),
            correct.to_string(),
            undecided.to_string(),
            wrong.to_string(),
        ]);
        let _: PkaAttack = attack;
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    println!("Shape check: WRONG = 0 everywhere (Theorem 4); undecided > 0 only where");
    println!("the adversary is strong enough to create an RMT-cut scenario.");
}
