//! E7 / T7 — the self-reduction of Theorem 9 and poly-time uniqueness of
//! Z-CPA (Corollary 10).
//!
//! Runs Z-CPA twice on each random ad hoc instance: once with the explicit
//! membership oracle, once with the Π-simulation oracle (the Decision
//! Protocol that answers `N ∉ 𝒵_v` by coupled runs of Π on derived star
//! instances). The theory predicts identical decisions on every node; the
//! experiment also reports the number of Π simulations and the wall-clock
//! overhead factor — polynomial, as the theorem promises.
//!
//! Both runs take microseconds, so one shot of each is mostly timer and
//! scheduler noise: each side is timed as the median of `REPS` runs, and the
//! overhead cell is the median of the per-trial ratios, which one outlier
//! trial cannot move.

use rmt_bench::{mean, median, timed, Experiment, Table};
use rmt_core::protocols::zcpa::ZCpa;
use rmt_core::reduction::PiSimulationOracle;
use rmt_core::sampling::random_instance;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;
use rmt_sim::{Runner, SilentAdversary};
use std::time::Duration;

/// Timed runs per side and trial; the median is the trial's time.
const REPS: usize = 5;

/// Runs `f` `REPS` times, returning the last result and the median time.
fn timed_median<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut times = Vec::with_capacity(REPS);
    let mut out = None;
    for _ in 0..REPS {
        let (o, t) = timed(&mut f);
        times.push(t);
        out = Some(o);
    }
    (out.expect("REPS > 0"), median(&mut times))
}

fn main() {
    let mut rng = seeded(0xE7);
    let mut exp = Experiment::new("e7_self_reduction");
    exp.param("seed", "0xE7");
    exp.param("trials_per_n", 20);
    let mut table = Table::new(
        "E7: Z-CPA explicit oracle vs Π-simulation oracle (20 instances per n)",
        &[
            "n",
            "decisions identical",
            "Π simulations (mean)",
            "queries (mean)",
            "overhead ×(median)",
        ],
    );
    for &n in &[6usize, 8, 10, 12] {
        let trials = 20;
        let mut identical = 0;
        let mut sims = Vec::new();
        let mut queries = Vec::new();
        let mut overheads = Vec::new();
        for trial in 0..trials {
            let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            // One random admissible silent corruption to make it interesting.
            let corrupt = inst
                .worst_case_corruptions()
                .into_iter()
                .nth(trial % 2)
                .unwrap_or_default();
            let (explicit, t_explicit) = timed_median(|| {
                Runner::new(
                    inst.graph().clone(),
                    |v| ZCpa::node(&inst, v, 7),
                    SilentAdversary::new(corrupt.clone()),
                )
                .run()
            });
            let (simulated, t_sim) = timed_median(|| {
                Runner::new(
                    inst.graph().clone(),
                    |v| {
                        ZCpa::with_oracle(
                            &inst,
                            v,
                            7,
                            PiSimulationOracle::for_node(&inst, v, 1 << 20),
                        )
                    },
                    SilentAdversary::new(corrupt.clone()),
                )
                .run()
            });
            let all_equal = inst
                .graph()
                .nodes()
                .iter()
                .all(|v| explicit.decision(v) == simulated.decision(v));
            if all_equal {
                identical += 1;
            } else {
                eprintln!("ORACLE MISMATCH on {inst:?}");
            }
            let (s, q): (u64, u64) = inst
                .graph()
                .nodes()
                .iter()
                .filter_map(|v| simulated.protocol(v))
                .map(|p| {
                    (p.oracle().simulations(), {
                        use rmt_core::protocols::zcpa::MembershipOracle as _;
                        p.oracle().queries()
                    })
                })
                .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
            sims.push(s as f64);
            queries.push(q as f64);
            overheads.push(t_sim.as_secs_f64() / t_explicit.as_secs_f64().max(1e-9));
        }
        table.row(&[
            n.to_string(),
            format!("{identical}/{trials}"),
            format!("{:.1}", mean(&sims)),
            format!("{:.1}", mean(&queries)),
            // Wall-clock-derived: the × suffix marks it as a ratio cell, so
            // `rmt-bench compare` treats drift as soft, not a verdict flip.
            format!("{:.1}×", median(&mut overheads)),
        ]);
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    println!("Shape check: decisions identical everywhere (the Decision Protocol answers");
    println!("every membership query correctly); simulations grow polynomially with n, so");
    println!("Z-CPA-with-Π stays fully polynomial — Corollary 10 in action.");
}
