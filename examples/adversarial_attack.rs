//! The scenario-swap (indistinguishability) attack, live: the executable
//! form of the Theorem 3 lower bound.
//!
//! On an unsolvable instance the attack runs two coupled executions whose
//! receiver-side views are provably identical, so a safe protocol cannot
//! decide in either — watch the transcripts coincide.
//!
//! ```text
//! cargo run --example adversarial_attack
//! ```

use rmt::adversary::AdversaryStructure;
use rmt::core::{analysis::run_coupled_attack, cuts::find_rmt_cut, Instance};
use rmt::graph::{Graph, ViewKind};
use rmt::sets::NodeSet;

fn main() {
    // The canonical unsolvable diamond: either relay may be corrupted.
    let mut g = Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let z = AdversaryStructure::from_sets([
        NodeSet::singleton(1u32.into()),
        NodeSet::singleton(2u32.into()),
    ]);
    let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();

    let witness = find_rmt_cut(&inst, None).expect("the diamond admits an RMT-cut");
    println!(
        "RMT-cut witness: C = {} (C₁ = {} ∈ 𝒵, C₂ = {} plausible to B = {})",
        witness.cut, witness.c1, witness.c2, witness.receiver_component
    );

    let report = run_coupled_attack(&inst, &witness, 0, 1, 1 << 16).unwrap();
    println!("\nrun e₀: true structure, dealer value 0, corrupted C₁ mirroring e₁");
    println!("run e₁: forged structure 𝒵′, dealer value 1, corrupted C₂ mirroring e₀");
    println!("receiver views identical: {}", report.receiver_views_equal);
    println!(
        "whole component views identical: {}",
        report.component_views_equal
    );
    println!(
        "receiver decisions: e₀ → {:?}, e₁ → {:?}",
        report.decision_e, report.decision_e2
    );
    println!("safety violation: {}", report.safety_violation);

    assert!(report.receiver_views_equal && !report.safety_violation && report.blocked);
    println!("\nThe receiver cannot distinguish the runs: deciding would be unsafe in one");
    println!("of them, so RMT-PKA (being safe) abstains — exactly Theorem 3.");
}
