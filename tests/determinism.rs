//! Tier-1 determinism gate: an E6-style workload whose per-instance
//! decisions are fanned out through [`parallel_map`] at 1, 2 and 8 workers
//! (plus whatever the environment resolves to), the way the E3/E11/E12
//! sweeps fan out instances, must produce identical witnesses, identical
//! simulator [`Metrics`] and identical machine-readable counter snapshots —
//! wall-clock histograms aside.
//!
//! Every decider runs on the calling thread; the thread count decides only
//! which worker runs which instance, and when. Each instance records into a
//! registry of its own, and the registries are merged in input order, as an
//! experiment merges per-cell registries into its artifact. This is the
//! end-to-end version of the per-decider differential suites in `rmt-core`:
//! it exercises the whole artifact path the `e*` binaries use.

use rmt_par::{configured_threads, parallel_map};

use rmt_core::cuts::{
    find_rmt_cut, find_rmt_cut_anchored_observed, zpp_cut_by_enumeration,
    zpp_cut_by_enumeration_anchored, zpp_cut_by_fixpoint,
};
use rmt_core::engine::{Delta, IncrementalEngine};
use rmt_core::protocols::zcpa::run_zcpa;
use rmt_core::sampling::{random_instance_nonadjacent, threshold_instance};
use rmt_core::{Instance, KnowledgeCache};
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_obs::{Clock, Json, Profiler, Registry};
use rmt_sets::NodeSet;
use rmt_sim::{Metrics, SilentAdversary};

/// The per-run record every thread count must reproduce exactly.
#[derive(Debug, Default, PartialEq)]
struct RunRecord {
    witnesses: Vec<String>,
    metrics: Vec<Metrics>,
    counters: String,
}

/// What one instance's decisions leave behind.
#[derive(Default)]
struct Cell {
    witnesses: Vec<String>,
    metrics: Vec<Metrics>,
    reg: Registry,
}

/// Family 1: rings with chords under a global threshold (E6's shape) —
/// every decider, plus an honest Z-CPA run.
fn ring_cell(inst: &Instance) -> Cell {
    let mut cell = Cell::default();
    let reg = &cell.reg;
    cell.witnesses = vec![
        format!("{:?}", find_rmt_cut(inst, Some(reg))),
        format!("{:?}", zpp_cut_by_fixpoint(inst, Some(reg))),
        format!("{:?}", zpp_cut_by_enumeration(inst)),
        format!("{:?}", find_rmt_cut_anchored_observed(inst, reg)),
        format!("{:?}", zpp_cut_by_enumeration_anchored(inst)),
    ];
    let out = run_zcpa(inst, 7, SilentAdversary::new(NodeSet::new()));
    assert_eq!(out.decision(inst.receiver()), Some(7));
    cell.metrics.push(out.metrics);
    cell
}

/// Family 2: random instances, including unsolvable ones (full scans), and
/// the full joint view through the bounded fold.
fn random_cell(inst: &Instance) -> Cell {
    let mut cell = Cell::default();
    let reg = &cell.reg;
    cell.witnesses = vec![
        format!("{:?}", find_rmt_cut(inst, Some(reg))),
        format!("{:?}", find_rmt_cut_anchored_observed(inst, reg)),
        format!("{:?}", zpp_cut_by_fixpoint(inst, Some(reg))),
    ];
    let view = KnowledgeCache::new(inst).joint_view(inst.graph().nodes());
    for bound in [2, usize::MAX] {
        let m = view.materialize_bounded_observed(bound, &cell.reg);
        cell.witnesses.push(format!(
            "{:?}",
            m.map(|r| r.structure().maximal_sets().to_vec())
        ));
    }
    cell
}

/// Family 3: the incremental engine over a seeded mutation stream; its
/// `family.*` / `cache.*` counters land in the same snapshot.
fn engine_cell(inst: &Instance) -> Cell {
    let mut cell = Cell::default();
    let mut engine = IncrementalEngine::from_instance(inst, ViewKind::AdHoc);
    let nodes: Vec<_> = inst.graph().nodes().iter().collect();
    let deltas = [
        Delta::AddEdge(nodes[0], nodes[3]),
        Delta::RemoveEdge(nodes[0], nodes[3]),
        Delta::AddEdge(nodes[2], nodes[5]),
        Delta::StructureChange(rmt_adversary::threshold(inst.graph().nodes(), 1)),
        Delta::AddEdge(nodes[1], nodes[4]),
    ];
    for delta in deltas {
        engine.apply_observed(delta, &cell.reg).unwrap();
        cell.witnesses
            .push(format!("{:?}", engine.decide_rmt_observed(&cell.reg)));
        cell.witnesses
            .push(format!("{:?}", engine.decide_zpp_observed(&cell.reg)));
    }
    cell
}

/// One family: its instances and the decisions run on each.
type Family = (Vec<Instance>, fn(&Instance) -> Cell);

/// The three families, drawn from their seeds in a fixed order.
fn families() -> [Family; 3] {
    let mut rng = seeded(0xDE7);
    let rings = [8usize, 10]
        .iter()
        .map(|&n| {
            let g = generators::ring_with_chords(n, n / 4, &mut rng);
            threshold_instance(g, 0, ViewKind::AdHoc, 0, (n / 2) as u32)
        })
        .collect();
    let randoms = (0..4u64)
        .map(|trial| {
            let mut rng = seeded(0xDE70 + trial);
            random_instance_nonadjacent(7, 0.35, ViewKind::AdHoc, 3, 2, &mut rng)
        })
        .collect();
    let mut rng = seeded(0xDE71);
    let stream = vec![random_instance_nonadjacent(
        8,
        0.35,
        ViewKind::AdHoc,
        3,
        2,
        &mut rng,
    )];
    [
        (rings, ring_cell),
        (randoms, random_cell),
        (stream, engine_cell),
    ]
}

/// Runs every family's per-instance decisions on up to `threads` workers
/// and folds the cells in input order.
fn run_workload(threads: usize) -> RunRecord {
    let reg = Registry::new();
    let mut record = RunRecord::default();
    for (instances, decide) in families() {
        for cell in parallel_map(instances, threads, |inst| decide(&inst)) {
            record.witnesses.extend(cell.witnesses);
            record.metrics.extend(cell.metrics);
            reg.merge_from(&cell.reg);
        }
    }
    record.counters = strip_wall_clock(reg.to_json()).encode();
    record
}

/// Drops `*_ns` histograms (wall time varies run to run); everything else in
/// the snapshot must be bit-for-bit reproducible.
fn strip_wall_clock(counters: Json) -> Json {
    match counters {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(name, _)| !name.ends_with("_ns"))
                .collect(),
        ),
        other => other,
    }
}

#[test]
fn workload_is_identical_for_every_thread_count() {
    let baseline = run_workload(1);
    assert!(
        !baseline.witnesses.is_empty() && !baseline.counters.is_empty(),
        "the workload must actually exercise the deciders"
    );
    // `configured_threads()` folds the CI matrix (RMT_THREADS=1 / 8) into
    // the tested set.
    for threads in [2, 8, configured_threads()] {
        let run = run_workload(threads);
        assert_eq!(baseline, run, "divergence at {threads} threads");
    }
}

#[test]
fn virtual_clock_snapshots_are_byte_identical_across_thread_counts() {
    // Under the virtual clock even the `*_ns` histograms — and the phase
    // span stream — are pure functions of the instrumentation call
    // sequence, so every run, on whichever worker, must reproduce the
    // first byte for byte.
    let snapshot = |seed: u64| {
        let reg = Registry::new().with_clock(Clock::virtual_ns(17));
        let prof = Profiler::new(reg.clock());
        reg.attach_profiler(prof.clone());
        let mut rng = seeded(seed);
        let inst = random_instance_nonadjacent(7, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let witnesses = vec![
            format!("{:?}", find_rmt_cut(&inst, Some(&reg))),
            format!("{:?}", find_rmt_cut_anchored_observed(&inst, &reg)),
            format!("{:?}", zpp_cut_by_fixpoint(&inst, Some(&reg))),
            format!("{:?}", prof.events()),
        ];
        // NO strip_wall_clock here: the full snapshot, timings included.
        (witnesses, reg.to_json().encode(), reg.render())
    };
    let seeds: Vec<u64> = (0xDE9..0xDE9 + 4).collect();
    let baseline = parallel_map(seeds.clone(), 1, snapshot);
    assert!(
        baseline[0].1.contains("_ns"),
        "the snapshot must include timing histograms"
    );
    for threads in [1, 2, 8, configured_threads()] {
        assert_eq!(
            baseline,
            parallel_map(seeds.clone(), threads, snapshot),
            "divergence at {threads} threads"
        );
    }
}

#[test]
fn wall_clock_histogram_counts_are_still_deterministic() {
    // The *_ns entries are excluded from the byte comparison, but their
    // *counts* (how many timed sections ran) are fixed: one per decision.
    let counts = |seed: u64| {
        let reg = Registry::new();
        let mut rng = seeded(seed);
        let inst = random_instance_nonadjacent(7, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let _ = find_rmt_cut(&inst, Some(&reg));
        let _ = zpp_cut_by_fixpoint(&inst, Some(&reg));
        (
            reg.histogram("rmt_cut.search_ns").count(),
            reg.histogram("zpp.decide_ns").count(),
        )
    };
    let seeds: Vec<u64> = (0xDE8..0xDE8 + 4).collect();
    for threads in [1, 8] {
        assert!(parallel_map(seeds.clone(), threads, counts)
            .iter()
            .all(|&c| c == (1, 1)));
    }
}
