//! E11 — ablation: bounding RMT-PKA's trail length.
//!
//! The paper leaves efficient *unique* partial-knowledge RMT open; the
//! obvious lever is to stop propagating long trails. This ablation sweeps
//! the bound L on random solvable instances and reports the success rate
//! under the worst silent corruption and the honest message cost — the
//! completeness/efficiency trade-off, quantified. (Safety is unaffected by
//! construction: fewer messages only remove candidate message sets.)

use rmt_bench::{fmt_duration, mean, parallel_map, timed, Experiment, Table};
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::rmt_pka::RmtPka;
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;
use rmt_sim::{Runner, SilentAdversary};

fn main() {
    let mut rng = seeded(0xE11);
    let trials = 40;
    let mut exp = Experiment::new("e11_trail_bound");
    exp.param("seed", "0xE11");
    exp.param("instances", trials as i64);
    let threads = exp.threads();
    // Collect solvable instances once.
    let mut instances = Vec::new();
    while instances.len() < trials {
        let n = 7 + instances.len() % 4;
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        if find_rmt_cut(&inst, Some(exp.registry())).is_none() {
            instances.push(inst);
        }
    }

    let mut table = Table::new(
        "E11: RMT-PKA trail-length ablation (40 solvable instances, worst silent corruption)",
        &["bound L", "success rate", "mean msgs", "msgs vs unbounded"],
    );
    let mut unbounded_mean = 0.0;
    for bound in [usize::MAX, 2, 3, 4, 5, 6] {
        // The instances are independent: sweep them on the worker pool.
        // `parallel_map` preserves input order, so successes and message
        // means aggregate identically for any thread count.
        let outcomes = parallel_map(instances.iter().collect(), threads, |inst| {
            let corruptions = inst.worst_case_corruptions();
            let worst = corruptions
                .iter()
                .max_by_key(|t| t.len())
                .cloned()
                .unwrap_or_default();
            let out = Runner::new(
                inst.graph().clone(),
                |v| {
                    if bound == usize::MAX {
                        RmtPka::node(inst, v, 7)
                    } else {
                        RmtPka::node_with_trail_bound(inst, v, 7, bound)
                    }
                },
                SilentAdversary::new(worst),
            )
            .run();
            (
                out.decision(inst.receiver()) == Some(7),
                out.metrics.honest_messages as f64,
            )
        });
        let runs = outcomes.len();
        let successes = outcomes.iter().filter(|(ok, _)| *ok).count();
        let msgs: Vec<f64> = outcomes.iter().map(|(_, m)| *m).collect();
        let m = mean(&msgs);
        if bound == usize::MAX {
            unbounded_mean = m;
        }
        table.row(&[
            if bound == usize::MAX {
                "∞ (paper)".to_string()
            } else {
                bound.to_string()
            },
            format!("{successes}/{runs}"),
            format!("{m:.0}"),
            if unbounded_mean > 0.0 {
                format!("{:.0}%", 100.0 * m / unbounded_mean)
            } else {
                "–".to_string()
            },
        ]);
    }
    table.print();

    // E11b: re-screen the solvable pool with the plain exhaustive decider.
    // It must return `None` on every instance (they were selected that way
    // through the observed decider), timed. Solvable instances are the
    // decider's worst case: `None` means the whole 2^(n−2) candidate space
    // was scanned.
    let mut screen = Table::new(
        "E11b: solvability screening, exhaustive decision engine",
        &["mode", "instances", "disagreements", "time"],
    );
    let (seq, t_seq) = timed(|| {
        instances
            .iter()
            .map(|inst| find_rmt_cut(inst, None))
            .collect::<Vec<_>>()
    });
    let disagreements = seq.iter().filter(|w| w.is_some()).count();
    assert_eq!(disagreements, 0, "screening diverged from the selection");
    screen.row(&[
        "sequential".to_string(),
        instances.len().to_string(),
        disagreements.to_string(),
        fmt_duration(t_seq),
    ]);
    screen.print();
    exp.record_table(&table);
    exp.record_table(&screen);
    exp.finish();
    println!("Shape check: success rate climbs to 100% as L grows (completeness needs all");
    println!("G_M paths); message cost climbs with it — the trade-off behind the paper's");
    println!("open question on efficient unique partial-knowledge RMT.");
}
