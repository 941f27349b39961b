//! Differential suite for the separator-anchored cut deciders: anchored
//! and budget-starved (fallback) searches must all agree
//! with the exhaustive ground truth on the **verdict**, and every witness
//! they return must verify against the ground-truth cut checkers.
//!
//! The case count scales with `PROPTEST_CASES` (CI raises it for this
//! suite); the default keeps local runs fast.

use proptest::prelude::*;
use rmt_core::cuts::{
    find_rmt_cut, find_rmt_cut_anchored, is_rmt_cut, is_zpp_cut, zpp_cut_by_enumeration,
    zpp_cut_by_enumeration_anchored, AnchorBudget,
};
use rmt_core::engine::IncrementalEngine;
use rmt_core::sampling::{random_instance, random_instance_nonadjacent};
use rmt_core::{Instance, KnowledgeCache};
use rmt_graph::{generators, ViewKind};

/// Budgets that force the separator-enumeration and the per-anchor
/// component-scan fallback paths respectively.
const STARVED: [AnchorBudget; 2] = [
    AnchorBudget {
        max_separators: 1,
        max_components_per_anchor: 1 << 20,
    },
    AnchorBudget {
        max_separators: 4096,
        max_components_per_anchor: 1,
    },
];

fn cases() -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24);
    ProptestConfig::with_cases(n)
}

fn instance_params() -> impl Strategy<Value = (usize, u64, usize)> {
    // n ≤ 10 keeps the exhaustive ground truth affordable; the view selector
    // covers the ad hoc model, full knowledge and an intermediate radius.
    (5usize..11, 0u64..u64::MAX, 0usize..3)
}

fn view_of(sel: usize) -> ViewKind {
    [ViewKind::AdHoc, ViewKind::Full, ViewKind::Radius(2)][sel]
}

/// A from-scratch decider under `budget`: an engine over a freshly built
/// cache runs the same anchored search as the default-budget deciders.
fn starved(inst: &Instance, views: ViewKind, budget: &AnchorBudget) -> IncrementalEngine {
    IncrementalEngine::from_instance(inst, views).with_budget(*budget)
}

fn check_rmt(inst: &Instance, views: ViewKind) {
    let exhaustive = find_rmt_cut(inst, None);
    let anchored = find_rmt_cut_anchored(inst);
    assert_eq!(exhaustive.is_some(), anchored.is_some());
    if let Some(w) = &anchored {
        let cache = KnowledgeCache::new(inst);
        assert!(
            is_rmt_cut(inst, &cache, &w.cut).is_some(),
            "anchored witness fails ground-truth verification: {:?}",
            w
        );
    }
    for budget in &STARVED {
        assert_eq!(
            exhaustive.is_some(),
            starved(inst, views, budget).decide_rmt().is_some(),
            "budget = {:?}",
            budget
        );
    }
}

fn check_zpp(inst: &Instance, views: ViewKind) {
    let exhaustive = zpp_cut_by_enumeration(inst);
    let anchored = zpp_cut_by_enumeration_anchored(inst);
    assert_eq!(exhaustive.is_some(), anchored.is_some());
    if let Some(w) = &anchored {
        assert!(
            is_zpp_cut(inst, &w.cut).is_some(),
            "anchored witness fails ground-truth verification: {:?}",
            w
        );
    }
    for budget in &STARVED {
        assert_eq!(
            exhaustive.is_some(),
            starved(inst, views, budget).decide_zpp().is_some(),
            "budget = {:?}",
            budget
        );
    }
}

proptest! {
    #![proptest_config(cases())]

    /// Anchored RMT-cut search: verdict equals the exhaustive decider's,
    /// witnesses verify and the budget-starved fallback path stays
    /// verdict-exact.
    #[test]
    fn anchored_rmt_cut_agrees_with_exhaustive((n, seed, view) in instance_params()) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.4, view_of(view), 3, 2, &mut rng);
        check_rmt(&inst, view_of(view));
    }

    /// Same contract for the 𝒵-pp enumeration decider.
    #[test]
    fn anchored_zpp_cut_agrees_with_exhaustive((n, seed, view) in instance_params()) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.4, view_of(view), 3, 2, &mut rng);
        check_zpp(&inst, view_of(view));
    }

    /// Sparser instances reach richer separator structure (more anchors,
    /// larger regions) than the dense default.
    #[test]
    fn anchored_deciders_agree_on_sparse_instances((n, seed, view) in instance_params()) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.25, view_of(view), 4, 3, &mut rng);
        check_rmt(&inst, view_of(view));
        check_zpp(&inst, view_of(view));
    }
}

/// The exact instance family of experiment E2 (seed and sampler parameters
/// from `e2_characterization.rs`): the anchored deciders must reproduce the
/// committed characterization verdicts instance by instance.
#[test]
fn anchored_deciders_replay_the_e2_family() {
    for views in [ViewKind::AdHoc, ViewKind::Radius(2)] {
        let mut rng = generators::seeded(0xE2);
        for trial in 0..40usize {
            let n = 6 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, views, 3, 2, &mut rng);
            let exhaustive = find_rmt_cut(&inst, None);
            let anchored = find_rmt_cut_anchored(&inst);
            assert_eq!(
                exhaustive.is_some(),
                anchored.is_some(),
                "trial {trial}, views {views:?}"
            );
            if let Some(w) = &anchored {
                let cache = KnowledgeCache::new(&inst);
                assert!(is_rmt_cut(&inst, &cache, &w.cut).is_some());
            }
        }
    }
}
