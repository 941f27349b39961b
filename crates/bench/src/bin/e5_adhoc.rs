//! E5 / T5 — the ad hoc characterization (Theorems 7 + 8) and the CPA
//! correspondence.
//!
//! Three checks over random ad hoc instances:
//!
//! 1. the exhaustive 𝒵-pp-cut decider and the polynomial Z-CPA fixpoint
//!    decider agree instance-by-instance;
//! 2. the simulated Z-CPA protocol under the attack suite succeeds exactly
//!    where no 𝒵-pp cut exists (safe and unique in the ad hoc model);
//! 3. classic CPA (t+1 rule) and Z-CPA instantiated with the t-local
//!    threshold trace decide identically on every node.

use rand::Rng;
use rmt_bench::{Experiment, Table};
use rmt_core::analysis::zcpa_attack_suite;
use rmt_core::cuts::{zpp_cut_by_enumeration, zpp_cut_by_fixpoint};
use rmt_core::protocols::attacks::ZCPA_ATTACKS;
use rmt_core::protocols::cpa::{zcpa_threshold_node, CpaClassic};
use rmt_core::sampling::{random_instance_nonadjacent, random_structure};
use rmt_core::Instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Runner, SilentAdversary};

fn main() {
    let mut rng = seeded(0xE5);
    let trials = 60;
    let mut exp = Experiment::new("e5_adhoc");
    exp.param("seed", "0xE5");
    exp.param("trials", trials as i64);

    // 1 + 2: deciders agree; protocol matches the characterization.
    let mut agree = 0;
    let mut solvable = 0;
    let mut proto_match = 0;
    for trial in 0..trials {
        let n = 6 + trial % 4;
        let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let enumerated = zpp_cut_by_enumeration(&inst).is_some();
        let fixpoint = zpp_cut_by_fixpoint(&inst, Some(exp.registry())).is_some();
        if enumerated == fixpoint {
            agree += 1;
        } else {
            eprintln!("DECIDER MISMATCH on {inst:?}");
        }
        let report = zcpa_attack_suite(&inst, 7, &ZCPA_ATTACKS);
        if !fixpoint {
            solvable += 1;
            if report.all_correct() {
                proto_match += 1;
            } else {
                eprintln!("PROTOCOL MISMATCH (should solve) on {inst:?}: {report:?}");
            }
        } else if !report.safe() {
            eprintln!("SAFETY VIOLATION on {inst:?}: {report:?}");
        }
    }
    let mut t1 = Table::new(
        "E5a: ad hoc deciders and protocol vs characterization",
        &[
            "instances",
            "deciders agree",
            "solvable",
            "Z-CPA suite all-correct",
        ],
    );
    t1.row(&[
        trials.to_string(),
        format!("{agree}/{trials}"),
        solvable.to_string(),
        format!("{proto_match}/{solvable}"),
    ]);
    t1.print();

    // 3: CPA ≡ Z-CPA(threshold trace).
    let mut nodes_checked = 0u64;
    let mut nodes_equal = 0u64;
    for trial in 0..trials {
        let n = 6 + trial % 4;
        let g = generators::gnp_connected(n, 0.5, &mut rng);
        let t = 1 + trial % 2;
        let d = NodeId::new(0);
        let r = NodeId::new(n as u32 - 1);
        let z = random_structure(g.nodes(), 2, 2, &mut rng); // irrelevant to both
        let inst = Instance::new(g.clone(), z, ViewKind::AdHoc, d, r).unwrap();
        let corrupt: NodeSet = g
            .nodes()
            .iter()
            .filter(|v| *v != d && *v != r && rng.random_bool(0.2))
            .collect();
        let cpa = Runner::new(
            g.clone(),
            |v| CpaClassic::node(d, r, t, v, 11),
            SilentAdversary::new(corrupt.clone()),
        )
        .run();
        let zcpa = Runner::new(
            g.clone(),
            |v| zcpa_threshold_node(&inst, t, v, 11),
            SilentAdversary::new(corrupt),
        )
        .run();
        for v in g.nodes() {
            nodes_checked += 1;
            if cpa.decision(v) == zcpa.decision(v) {
                nodes_equal += 1;
            }
        }
    }
    let mut t2 = Table::new(
        "E5b: classic CPA ≡ Z-CPA(threshold trace)",
        &["node decisions compared", "identical"],
    );
    t2.row(&[
        nodes_checked.to_string(),
        format!("{nodes_equal}/{nodes_checked}"),
    ]);
    t2.print();
    exp.record_table(&t1);
    exp.record_table(&t2);
    exp.finish();

    println!("Shape check: full agreement in all three columns — the polynomial fixpoint");
    println!("decider, the exhaustive cut search, the protocol, and the CPA special case");
    println!("all realize the same Theorem 7+8 characterization.");
}
