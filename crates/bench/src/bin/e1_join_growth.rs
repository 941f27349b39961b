//! E1 / T1 — growth and cost of the ⊕ (joint view) operation.
//!
//! The paper's ⊕ is exact on antichains but its output can grow
//! multiplicatively; the deciders therefore use the lazy cylinder test.
//! This experiment quantifies the blow-up: for k players with radius-style
//! overlapping domains over a universe of n nodes, it reports the
//! materialized antichain size and fold time versus the lazy-membership
//! query time.

use rand::Rng;
use rmt_adversary::{JointView, RestrictedStructure};
use rmt_bench::{fmt_duration, mean, timed, Experiment, Table};
use rmt_core::sampling::random_structure;
use rmt_graph::generators::seeded;
use rmt_sets::{NodeId, NodeSet};

fn main() {
    let mut exp = Experiment::new("e1_join_growth");
    exp.param("seed", "0xE1");
    exp.param("trials_per_config", 20);
    let mut table = Table::new(
        "E1: ⊕ join growth (universe n, k operands, antichain ≤ s sets of ≤ 3 nodes)",
        &[
            "n",
            "k",
            "s",
            "⊕ antichain (mean)",
            "fold time",
            "lazy query",
            "agreement",
        ],
    );
    let mut rng = seeded(0xE1);
    for &(n, k, s) in &[
        (8usize, 2usize, 3usize),
        (8, 4, 3),
        (8, 8, 3),
        (12, 4, 4),
        (12, 8, 4),
        (12, 12, 4),
        (16, 8, 5),
        (16, 16, 5),
    ] {
        let mut sizes = Vec::new();
        let mut fold_times = Vec::new();
        let mut query_times = Vec::new();
        let mut agree = true;
        for _ in 0..20 {
            let universe = NodeSet::universe(n);
            let z = random_structure(&universe, s, 3, &mut rng);
            // k overlapping window domains.
            let parts: Vec<RestrictedStructure> = (0..k)
                .map(|i| {
                    let base = (i * n / k) as u32;
                    let dom: NodeSet = (0..=n as u32 / 2)
                        .map(|j| NodeId::new((base + j) % n as u32))
                        .collect();
                    RestrictedStructure::restrict(&z, dom)
                })
                .collect();
            let view: JointView = parts.into_iter().collect();
            let (materialized, t_fold) = timed(|| {
                view.materialize_bounded_observed(usize::MAX, exp.registry())
                    .expect("unbounded materialization cannot blow up")
            });
            sizes.push(materialized.structure().maximal_sets().len() as f64);
            fold_times.push(t_fold.as_secs_f64());
            // Lazy queries on random candidates; cross-check agreement.
            let (ok, t_q) = timed(|| {
                let mut ok = true;
                for _ in 0..50 {
                    let cand: NodeSet = (0..n as u32)
                        .filter(|_| rng.random_bool(0.3))
                        .map(NodeId::new)
                        .collect();
                    ok &= view.contains(&cand) == materialized.contains(&cand);
                }
                ok
            });
            agree &= ok;
            query_times.push(t_q.as_secs_f64() / 50.0);
        }
        table.row(&[
            n.to_string(),
            k.to_string(),
            s.to_string(),
            format!("{:.1}", mean(&sizes)),
            fmt_duration(std::time::Duration::from_secs_f64(mean(&fold_times))),
            fmt_duration(std::time::Duration::from_secs_f64(mean(&query_times))),
            if agree {
                "✓".into()
            } else {
                "✗".to_string()
            },
        ]);
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    println!("Shape check: antichain size and fold time grow with k and s; the lazy");
    println!("cylinder query stays flat — matching the design choice in DESIGN.md §3.1.");
}
