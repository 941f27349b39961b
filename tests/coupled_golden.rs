//! Golden streams of the Figure 2 coupled runs.
//!
//! The fixtures under `tests/fixtures/figure2/` were recorded from the
//! coupled executor before it became a product protocol on `Runner`; every
//! per-world event stream below must still come out byte for byte:
//!
//! * the two JSONL streams `rmt-trace record` writes (RMT-PKA on the
//!   unsolvable diamond);
//! * the two streams of the `Flood` diamond, which carry `Decision` events;
//! * per-world stream digests and the attack report of every unsolvable
//!   instance experiment E2 attacks.

use rmt::core::analysis::{run_coupled_attack, run_coupled_attack_observed, CoupledAttackReport};
use rmt::core::cuts::{find_rmt_cut, find_rmt_cut_anchored};
use rmt::core::gallery;
use rmt::core::sampling::random_instance_nonadjacent;
use rmt::graph::{generators, Graph, ViewKind};
use rmt::obs::JsonlObserver;
use rmt::sets::{NodeId, NodeSet};
use rmt::sim::{testing::Flood, CoupledRunner};

fn fixture(name: &str) -> String {
    let path = format!(
        "{}/tests/fixtures/figure2/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn jsonl() -> JsonlObserver<Vec<u8>> {
    JsonlObserver::new(Vec::new())
}

fn text(obs: JsonlObserver<Vec<u8>>) -> String {
    String::from_utf8(obs.into_inner().expect("in-memory writes succeed")).expect("utf-8 JSONL")
}

/// FNV-1a over the stream's bytes: a stable digest for the E2 table.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn rmt_trace_record_streams_are_unchanged() {
    let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
    let witness = find_rmt_cut(&inst, None).expect("the diamond admits an RMT-cut");
    let (mut e0, mut e1) = (jsonl(), jsonl());
    run_coupled_attack_observed(&inst, &witness, 0, 1, 1 << 14, &mut e0, &mut e1)
        .expect("diamond join cannot blow up");
    assert_eq!(text(e0), fixture("trace_e0.jsonl"));
    assert_eq!(text(e1), fixture("trace_e1.jsonl"));
}

#[test]
fn flood_diamond_streams_are_unchanged() {
    let mut g = Graph::new();
    for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
        g.add_edge(u.into(), v.into());
    }
    let set = |ids: &[u32]| ids.iter().copied().collect::<NodeSet>();
    let make_e = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(0));
    let make_e2 = |v: NodeId| Flood::new(v, (v.index() == 0).then_some(1));
    let (mut e, mut e2) = (jsonl(), jsonl());
    CoupledRunner::new(g, set(&[1]), set(&[2]), make_e, make_e2).run_observed(&mut e, &mut e2);
    assert_eq!(text(e), fixture("flood_e.jsonl"));
    assert_eq!(text(e2), fixture("flood_e2.jsonl"));
}

fn fields(rep: &CoupledAttackReport) -> String {
    format!(
        "receiver_views_equal={} component_views_equal={} decision_e={:?} decision_e2={:?} \
         safety_violation={} blocked={}",
        rep.receiver_views_equal,
        rep.component_views_equal,
        rep.decision_e,
        rep.decision_e2,
        rep.safety_violation,
        rep.blocked
    )
}

/// Replays E2's instance stream (same seed, sampler and decider) and renders
/// one line per coupled attack it runs.
#[test]
fn e2_attack_streams_are_unchanged() {
    let mut rng = generators::seeded(0xE2);
    let mut lines = String::new();
    for views in [ViewKind::AdHoc, ViewKind::Radius(2)] {
        for trial in 0..40 {
            let n = 6 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, views, 3, 2, &mut rng);
            let Some(witness) = find_rmt_cut_anchored(&inst) else {
                continue;
            };
            let (mut e, mut e2) = (jsonl(), jsonl());
            let observed =
                run_coupled_attack_observed(&inst, &witness, 0, 1, 1 << 14, &mut e, &mut e2)
                    .expect("E2's attacks construct");
            let plain = run_coupled_attack(&inst, &witness, 0, 1, 1 << 14).unwrap();
            assert_eq!(fields(&observed), fields(&plain));
            let digest = |obs: JsonlObserver<Vec<u8>>| {
                let s = text(obs);
                format!("{}:{:016x}", s.lines().count(), fnv1a(&s))
            };
            lines.push_str(&format!(
                "{views} trial={trial} n={n} c1={} c2={} e={} e2={} {}\n",
                witness.c1,
                witness.c2,
                digest(e),
                digest(e2),
                fields(&observed),
            ));
        }
    }
    assert_eq!(lines, fixture("e2_attacks.txt"));
}
