//! E8 / F1 + F2 — the paper's two figures as executable constructions.
//!
//! **Figure 1** (the family 𝒢′): builds star instances with varying middle
//! sets and structures, tabulating the solvability condition and Π's
//! behaviour on each.
//!
//! **Figure 2** (runs e₀ / e₁): executes the coupled scenario-swap attack on
//! the canonical unsolvable diamond and prints, from its report, the
//! receiver's per-round deliveries in both runs side by side — they are
//! identical, which is the whole point of the construction.

use rmt_adversary::AdversaryStructure;
use rmt_bench::{Experiment, Table};
use rmt_core::analysis::run_coupled_attack;
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::rmt_pka::PkaPayload;
use rmt_core::reduction::StarInstance;
use rmt_core::Instance;
use rmt_graph::{Graph, ViewKind};
use rmt_sets::NodeSet;
use rmt_sim::{Envelope, Runner, SilentAdversary};

fn set(ids: &[u32]) -> NodeSet {
    ids.iter().copied().collect()
}

fn main() {
    let mut exp = Experiment::new("e8_figures");
    figure_1(&mut exp);
    figure_2(&mut exp);
    exp.finish();
}

fn figure_1(exp: &mut Experiment) {
    let mut table = Table::new(
        "F1: the 𝒢′ star family (middle m, structure 𝒵′) — solvability and Π under worst silence",
        &[
            "m",
            "𝒵′ (maximal sets)",
            "solvable (no pp-cut)",
            "Π decides (worst T)",
        ],
    );
    let cases: Vec<(usize, Vec<NodeSet>)> = vec![
        (3, vec![set(&[1])]),
        (3, vec![set(&[1]), set(&[2, 3])]),
        (4, vec![set(&[1, 2])]),
        (4, vec![set(&[1, 2]), set(&[3, 4])]),
        (5, vec![set(&[1, 2]), set(&[3])]),
    ];
    for (m, sets) in cases {
        let z = AdversaryStructure::from_sets(sets.clone());
        let star = StarInstance::new((1..=m as u32).collect(), &z);
        let solvable = star.solvable();
        // Worst silent corruption: the largest maximal set.
        let worst = z
            .maximal_sets()
            .iter()
            .max_by_key(|s| s.len())
            .cloned()
            .unwrap_or_default();
        let out = Runner::new(
            star.graph().clone(),
            |v| star.pi_node(v, 9),
            SilentAdversary::new(worst),
        )
        .run();
        let decided = out.decision(star.receiver()) == Some(9);
        assert_eq!(solvable, decided, "Π must match the star characterization");
        table.row(&[
            m.to_string(),
            format!("{z}"),
            solvable.to_string(),
            decided.to_string(),
        ]);
    }
    table.print();
    exp.record_table(&table);
    println!("Shape check: Π succeeds exactly on the solvable members of 𝒢′ — the promise");
    println!("family the self-reduction (Theorem 9) quantifies over.\n");
}

fn figure_2(exp: &mut Experiment) {
    // The canonical unsolvable diamond: D=0, relays 1,2, R=3, 𝒵 = {{1},{2}}.
    let mut g = Graph::new();
    g.add_edge(0.into(), 1.into());
    g.add_edge(0.into(), 2.into());
    g.add_edge(1.into(), 3.into());
    g.add_edge(2.into(), 3.into());
    let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
    let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
    let witness = find_rmt_cut(&inst, Some(exp.registry())).expect("diamond is unsolvable");

    println!("## F2: coupled runs e₀/e₁ on the unsolvable diamond");
    println!(
        "witness RMT-cut: C = {}, C₁ = {}, C₂ = {}",
        witness.cut, witness.c1, witness.c2
    );

    let report = run_coupled_attack(&inst, &witness, 0, 1, 1 << 14).unwrap();
    println!(
        "receiver views equal: {} | component views equal: {} | decisions: e₀ → {:?}, e₁ → {:?} | safety violation: {}",
        report.receiver_views_equal,
        report.component_views_equal,
        report.decision_e,
        report.decision_e2,
        report.safety_violation
    );

    let mut table = Table::new(
        "F2 transcript: messages delivered to R per round (type only)",
        &[
            "round",
            "run e₀ (true 𝒵, x=0)",
            "run e₁ (forged 𝒵′, x=1)",
            "equal",
        ],
    );
    let describe = |msgs: &[(u32, Envelope<PkaPayload>)], round: u32| {
        msgs.iter()
            .filter(|(r, _)| *r == round)
            .map(|(_, env)| match &env.payload {
                PkaPayload::DealerValue { value, trail } => {
                    format!("val({value},|p|={})", trail.len())
                }
                PkaPayload::Knowledge { node, .. } => format!("info({node})"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    for round in 1..=report.rounds {
        let a = describe(&report.delivered_e, round);
        let b = describe(&report.delivered_e2, round);
        let eq = a == b;
        table.row(&[round.to_string(), a, b, eq.to_string()]);
    }
    table.print();
    exp.record_table(&table);
    println!("Shape check: every row equal — R provably cannot distinguish the two runs,");
    println!("so no safe protocol can decide (the Theorem 3 lower bound, executed).");
}
