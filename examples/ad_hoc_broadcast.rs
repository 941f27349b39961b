//! Z-CPA on a random ad hoc network: certified propagation round by round.
//!
//! ```text
//! cargo run --example ad_hoc_broadcast
//! ```

use rmt::core::{cuts, protocols::zcpa::run_zcpa, sampling};
use rmt::graph::{generators, ViewKind};
use rmt::sim::SilentAdversary;

fn main() {
    let mut rng = generators::seeded(7);
    let inst = sampling::random_instance(12, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
    println!(
        "network: {} nodes, {} edges; dealer {}, receiver {}",
        inst.graph().node_count(),
        inst.graph().edge_count(),
        inst.dealer(),
        inst.receiver()
    );
    println!("adversary structure: {}", inst.adversary());

    // The polynomial characterization (Theorems 7 + 8).
    match cuts::zpp_cut_by_fixpoint(&inst, None) {
        None => println!("no RMT 𝒵-pp cut: Z-CPA will certify the receiver"),
        Some(w) => println!("𝒵-pp cut exists (C₁ = {}, C₂ = {}): unsolvable", w.c1, w.c2),
    }

    // Worst-case analytic fixpoint vs the simulated protocol, per corruption.
    for t in inst.worst_case_corruptions() {
        let predicted = cuts::zcpa_fixpoint(&inst, &t, None);
        let out = run_zcpa(&inst, 9, SilentAdversary::new(t.clone()));
        let decided: Vec<String> = out
            .decided()
            .into_iter()
            .map(|(v, x)| format!("{v}:{x}"))
            .collect();
        println!(
            "corruption {t}: fixpoint predicts R {} | simulation: R decided {:?} | decided set [{}]",
            if predicted.contains(inst.receiver()) { "decides" } else { "stalls" },
            out.decision(inst.receiver()),
            decided.join(" ")
        );
        assert_eq!(
            predicted.contains(inst.receiver()),
            out.decision(inst.receiver()).is_some()
        );
    }
}
