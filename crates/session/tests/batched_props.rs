//! Batched verdicts against the per-message runner on random instances.
//!
//! Every slot of a batched session decides on the receiver's one claim
//! pool, with its own type-1 table. Under a silent adversary the traffic
//! does not depend on the payload, so each slot must decide its own value
//! exactly when a per-message run carrying that value decides, and nothing
//! otherwise: a slot never decides late, never abstains where the
//! per-message receiver decides, and never takes another slot's value.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rmt_core::protocols::rmt_pka::run_pka;
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_graph::ViewKind;
use rmt_session::{Session, SessionPlan};
use rmt_sets::NodeSet;
use rmt_sim::SilentAdversary;

proptest! {
    /// Random instance, random admissible corruption set (each node of a
    /// worst-case set kept with probability 3/4), silent attack, a batch of 1–8 distinct values in
    /// random order.
    #[test]
    fn batched_slots_decide_exactly_when_the_per_message_run_decides(
        seed in any::<u64>(),
        n in 5usize..=8,
        views in 0usize..3,
        corruption in (any::<usize>(), any::<u64>()),
        values in proptest::collection::vec(0u64..1000, 1..=8).prop_map(|values| {
            let mut seen = BTreeSet::new();
            values.into_iter().filter(|&v| seen.insert(v)).collect::<Vec<_>>()
        }),
    ) {
        let mut rng = rmt_graph::generators::seeded(seed);
        let views = [ViewKind::AdHoc, ViewKind::Radius(1), ViewKind::Radius(2)][views];
        let inst = random_instance_nonadjacent(n, 0.5, views, 3, 2, &mut rng);
        let worst = inst.worst_case_corruptions();
        let corrupted: NodeSet = match worst.len() {
            0 => NodeSet::new(),
            len => {
                let (pick, mask) = corruption;
                worst[pick % len]
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask >> (2 * i % 64) & 3 != 0)
                    .map(|(_, v)| v)
                    .collect()
            }
        };
        let plan = SessionPlan::build(&inst);
        let report = Session::new(&plan, values.clone())
            .run(SilentAdversary::new(corrupted.clone()));
        for (slot, &value) in values.iter().enumerate() {
            let naive = run_pka(&inst, value, SilentAdversary::new(corrupted.clone()))
                .decision(inst.receiver());
            prop_assert!(naive.is_none() || naive == Some(value));
            prop_assert_eq!(
                report.verdicts[slot], naive,
                "slot {} of {:?}, corrupted {:?}: {:?}", slot, values, corrupted, inst
            );
        }
    }
}
