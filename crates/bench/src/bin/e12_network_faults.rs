//! E12 — asynchronous robustness of RMT-PKA under network faults.
//!
//! The paper's model is perfectly synchronous; this experiment measures how
//! far its guarantees survive outside it. `rmt-net`'s deterministic fault
//! scheduler puts drop, delay, duplication, reordering, crash and partition
//! faults between sender and receiver while the Byzantine adversary keeps
//! attacking on top, and each cell of the sweep reports:
//!
//! * **WRONG** — receiver decisions differing from the dealer's value. The
//!   paper's safety argument (Theorem 4) never relies on timely delivery —
//!   trail validation is purely structural — so this column must be **0 in
//!   every cell**, faults or not.
//! * **decided** — liveness, which *does* rely on the synchronous model and
//!   is expected to degrade as the network gets worse.
//! * message cost and the fault tally, to see what the network actually did.
//!
//! Workload: the E2/E3 instance families (random partial-knowledge
//! instances, both view kinds), screened to solvable ones so "undecided"
//! always means "the network broke liveness", never "the instance was
//! unsolvable anyway".

use rmt_bench::{mean, parallel_map, Experiment, Table};
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::attacks::{pka_adversary, PkaAttack};
use rmt_core::protocols::rmt_pka::RmtPka;
use rmt_core::sampling::{random_instance, random_instance_nonadjacent};
use rmt_core::Instance;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;
use rmt_net::{FaultPlan, LinkPolicy, NetRunner, Partition};
use rmt_sets::{NodeId, NodeSet};

const INPUT: u64 = 7;

/// One fault scenario of the sweep.
struct Scenario {
    name: &'static str,
    build: fn(&Instance, u64) -> FaultPlan,
}

fn uniform(drop: f64, delay: f64, max_delay: u32, duplicate: f64, reorder: bool) -> LinkPolicy {
    LinkPolicy {
        drop,
        delay,
        max_delay,
        duplicate,
        reorder,
    }
}

/// A relay node that is neither dealer nor receiver (for crash/partition
/// scenarios); falls back to the receiver-adjacent end if none exists.
fn some_relay(inst: &Instance) -> NodeId {
    inst.graph()
        .nodes()
        .iter()
        .find(|&v| v != inst.dealer() && v != inst.receiver())
        .unwrap_or_else(|| inst.receiver())
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "baseline (no faults)",
        build: |_, seed| FaultPlan::new(seed),
    },
    Scenario {
        name: "drop 10%",
        build: |_, seed| {
            FaultPlan::new(seed).with_default_policy(uniform(0.10, 0.0, 0, 0.0, false))
        },
    },
    Scenario {
        name: "drop 30%",
        build: |_, seed| {
            FaultPlan::new(seed).with_default_policy(uniform(0.30, 0.0, 0, 0.0, false))
        },
    },
    Scenario {
        name: "delay p=.5 ≤2",
        build: |_, seed| FaultPlan::new(seed).with_default_policy(uniform(0.0, 0.5, 2, 0.0, false)),
    },
    Scenario {
        name: "delay p=1 ≤3 + reorder",
        build: |_, seed| FaultPlan::new(seed).with_default_policy(uniform(0.0, 1.0, 3, 0.0, true)),
    },
    Scenario {
        name: "duplicate 25%",
        build: |_, seed| {
            FaultPlan::new(seed).with_default_policy(uniform(0.0, 0.0, 0, 0.25, false))
        },
    },
    Scenario {
        name: "crash one relay @r1",
        build: |inst, seed| FaultPlan::new(seed).with_crash(some_relay(inst), 1),
    },
    Scenario {
        name: "receiver cut off r0–r1",
        build: |inst, seed| {
            FaultPlan::new(seed).with_partition(Partition {
                from_round: 0,
                to_round: 1,
                side: NodeSet::singleton(inst.receiver()),
            })
        },
    },
    Scenario {
        name: "drop 10% + delay + dup",
        build: |_, seed| {
            FaultPlan::new(seed).with_default_policy(uniform(0.10, 0.4, 2, 0.15, true))
        },
    },
];

fn main() {
    let mut rng = seeded(0xE12);
    let mut exp = Experiment::new("e12_network_faults");
    exp.param("seed", "0xE12");
    let threads = exp.threads();
    let trials = 16;
    exp.param("solvable_instances", trials as i64);
    exp.param("fault_seeds_per_cell", 3);

    // The E2/E3 instance families, screened to solvable instances so the
    // liveness column isolates the network's contribution.
    let mut instances: Vec<Instance> = Vec::new();
    let mut screened = 0usize;
    while instances.len() < trials {
        let n = 6 + screened % 4;
        let views = if screened.is_multiple_of(2) {
            ViewKind::AdHoc
        } else {
            ViewKind::Radius(2)
        };
        let inst = if screened.is_multiple_of(3) {
            random_instance(n, 0.4, views, 3, 2, &mut rng) // E3 family
        } else {
            random_instance_nonadjacent(n, 0.35, views, 3, 2, &mut rng) // E2 family
        };
        screened += 1;
        if find_rmt_cut(&inst, Some(exp.registry())).is_none() {
            instances.push(inst);
        }
    }
    exp.param("instances_screened", screened as i64);

    const ATTACKS: [PkaAttack; 2] = [PkaAttack::Silent, PkaAttack::FlipValue];
    const FAULT_SEEDS: [u64; 3] = [0xFA117, 0xFA118, 0xFA119];

    let mut table = Table::new(
        "E12: RMT-PKA under network faults (solvable E2/E3 instances, worst corruption, \
         Byzantine attacks on top)",
        &[
            "scenario",
            "runs",
            "WRONG",
            "decided",
            "mean msgs",
            "overhead",
            "lost",
            "delayed",
            "dup",
        ],
    );

    let mut baseline_msgs = 0.0;
    let mut total_wrong = 0usize;
    for scenario in SCENARIOS {
        // Each (instance, attack, fault seed) cell is independent: sweep the
        // grid on the worker pool. `parallel_map` preserves input order, so
        // every aggregate below is identical for any thread count.
        let grid: Vec<(usize, PkaAttack, u64)> = (0..instances.len())
            .flat_map(|i| {
                ATTACKS
                    .iter()
                    .flat_map(move |&a| FAULT_SEEDS.iter().map(move |&s| (i, a, s)))
            })
            .collect();
        let outcomes = parallel_map(grid, threads, |(i, attack, fault_seed)| {
            let inst = &instances[i];
            let corruptions = inst.worst_case_corruptions();
            let worst = corruptions
                .iter()
                .max_by_key(|t| t.len())
                .cloned()
                .unwrap_or_default();
            let out = NetRunner::new(
                inst.graph().clone(),
                |v| RmtPka::node(inst, v, INPUT),
                pka_adversary(inst, INPUT, worst, attack, fault_seed),
                (scenario.build)(inst, fault_seed),
            )
            .run();
            let decision = out.decision(inst.receiver());
            (
                decision.is_some_and(|d| d != INPUT),
                decision == Some(INPUT),
                out.metrics.honest_messages as f64,
                out.faults.lost(),
                out.faults.delayed,
                out.faults.duplicated,
            )
        });
        let runs = outcomes.len();
        let wrong = outcomes.iter().filter(|o| o.0).count();
        let decided = outcomes.iter().filter(|o| o.1).count();
        let msgs: Vec<f64> = outcomes.iter().map(|o| o.2).collect();
        let m = mean(&msgs);
        if scenario.name.starts_with("baseline") {
            baseline_msgs = m;
        }
        let lost: u64 = outcomes.iter().map(|o| o.3).sum();
        let delayed: u64 = outcomes.iter().map(|o| o.4).sum();
        let dup: u64 = outcomes.iter().map(|o| o.5).sum();
        total_wrong += wrong;
        table.row(&[
            scenario.name.to_string(),
            runs.to_string(),
            wrong.to_string(),
            format!("{decided}/{runs}"),
            format!("{m:.0}"),
            if baseline_msgs > 0.0 {
                format!("{:.0}%", 100.0 * m / baseline_msgs)
            } else {
                "–".to_string()
            },
            lost.to_string(),
            delayed.to_string(),
            dup.to_string(),
        ]);
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    assert_eq!(
        total_wrong, 0,
        "safety violation under network faults — Theorem 4's structural argument broke"
    );
    println!("Shape check: WRONG = 0 in every cell (safety is structural, not timing-based);");
    println!("the decided column degrades as the network gets worse — liveness is exactly");
    println!("what the synchronous model buys.");
}
