//! The 𝒵-pp deciders at the scale of the `churn` workload's heavy side:
//! n = 20, t = 4 (4 845 maximal sets), ring + chords, ad hoc views, a few
//! chord toggles per instance. On every state:
//!
//! * the anchored enumeration and the Z-CPA fixpoint give the same verdict;
//! * every witness either decider returns verifies with [`is_zpp_cut`];
//! * [`IncrementalEngine::decide_zpp`] equals the from-scratch anchored
//!   decider.

use rand::Rng;
use rmt_core::cuts::{is_zpp_cut, zpp_cut_by_enumeration_anchored, zpp_cut_by_fixpoint};
use rmt_core::engine::{Delta, IncrementalEngine};
use rmt_core::sampling::threshold_instance;
use rmt_core::Instance;
use rmt_graph::{generators, ViewKind};
use rmt_sets::NodeId;

const N: usize = 20;
const T: usize = 4;

/// A ring + `chords` instance with dealer 0 and receiver N/2 non-adjacent.
fn heavy_instance(seed: u64, chords: usize) -> Instance {
    let mut rng = generators::seeded(seed);
    loop {
        let g = generators::ring_with_chords(N, chords, &mut rng);
        if !g.has_edge(NodeId::new(0), NodeId::new(N as u32 / 2)) {
            return threshold_instance(g, T, ViewKind::AdHoc, 0, N as u32 / 2);
        }
    }
}

/// Adds a random absent chord or removes a random present one (never a
/// ring edge, never the dealer–receiver pair).
fn toggle(inst: &Instance, rng: &mut impl Rng) -> Delta {
    let n = N as u32;
    let (d, r) = (inst.dealer(), inst.receiver());
    loop {
        let u = NodeId::new(rng.random_range(0..n));
        let v = NodeId::new(rng.random_range(0..n));
        let ring = (u.raw() + 1) % n == v.raw() || (v.raw() + 1) % n == u.raw();
        let dr = (u == d && v == r) || (u == r && v == d);
        if u == v || ring || dr {
            continue;
        }
        return if inst.graph().has_edge(u, v) {
            Delta::RemoveEdge(u, v)
        } else {
            Delta::AddEdge(u, v)
        };
    }
}

fn check(engine: &mut IncrementalEngine, label: &str) {
    let inst = engine.instance().clone();
    let anchored = zpp_cut_by_enumeration_anchored(&inst);
    let fixpoint = zpp_cut_by_fixpoint(&inst, None);
    assert_eq!(anchored.is_some(), fixpoint.is_some(), "{label}: verdicts");
    for w in anchored.iter().chain(&fixpoint) {
        assert!(is_zpp_cut(&inst, &w.cut).is_some(), "{label}: {}", w.cut);
    }
    assert_eq!(engine.decide_zpp(), anchored, "{label}: incremental");
}

/// One seeded instance and two chord toggles; one test per seed, so the
/// seeds run side by side.
fn toggle_walk(seed: u64) {
    let inst = heavy_instance(0x2023 + seed, 5);
    let mut engine = IncrementalEngine::from_instance(&inst, ViewKind::AdHoc);
    check(&mut engine, &format!("seed {seed}, start"));
    let mut rng = generators::seeded(0x70661e + seed);
    for step in 0..2 {
        let delta = toggle(engine.instance(), &mut rng);
        engine.apply(delta.clone()).unwrap();
        check(&mut engine, &format!("seed {seed}, step {step}: {delta:?}"));
    }
}

#[test]
fn heavy_zpp_deciders_agree_seed_0() {
    toggle_walk(0);
}

#[test]
fn heavy_zpp_deciders_agree_seed_1() {
    toggle_walk(1);
}

#[test]
fn heavy_zpp_deciders_agree_seed_2() {
    toggle_walk(2);
}
