//! The METRICS.md contract, both ways. An instrumented workload sweeps the
//! deciders, the knowledge join and the RMT-PKA decision engine; every name
//! in the resulting registry snapshot — and every phase-span name in the
//! profiler stream — must appear backticked in `METRICS.md`, and every name
//! a catalog row documents must be emitted by that workload or be listed in
//! [`NOT_EMITTED`] with the reason. Adding a metric without a catalog row,
//! or keeping a row for a metric no code emits, fails this test.

use rmt_adversary::AdversaryStructure;
use rmt_core::cuts::{
    find_rmt_cut, find_rmt_cut_anchored_observed, zpp_cut_by_enumeration_anchored_observed,
    zpp_cut_by_fixpoint, AnchorBudget,
};
use rmt_core::engine::{Delta, IncrementalEngine};
use rmt_core::protocols::attacks::PkaAttack;
use rmt_core::protocols::pka_decision::{DecisionConfig, ReceiverState};
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_core::{Instance, KnowledgeCache};
use rmt_graph::generators::seeded;
use rmt_graph::{Graph, ViewKind};
use rmt_hunt::{Behaviour, Family, HuntConfig, Hunter, InstanceSpec};
use rmt_netd::{run_session, ChaosPlan, NetdConfig};
use rmt_obs::{Clock, Profiler, Registry, RunEvent};
use rmt_sets::NodeSet;
use rmt_sim::testing::Flood;
use rmt_sim::SilentAdversary;

/// A solvable diamond (𝒵 = {{1}}): the receiver can actually decide, so the
/// decision-side counters get touched too.
fn solvable_diamond() -> Instance {
    let mut g = Graph::new();
    g.add_edge(0.into(), 1.into());
    g.add_edge(0.into(), 2.into());
    g.add_edge(1.into(), 3.into());
    g.add_edge(2.into(), 3.into());
    let z = AdversaryStructure::from_sets([NodeSet::singleton(1u32.into())]);
    Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).expect("well-formed")
}

/// Runs every instrumented code path against one registry + profiler and
/// returns the emitted metric and span names.
fn emitted_names() -> (Vec<&'static str>, Vec<String>) {
    let reg = Registry::new().with_clock(Clock::virtual_ns(1));
    let prof = Profiler::new(reg.clock());
    reg.attach_profiler(prof.clone());

    // Deciders, on a solvable diamond and on random instances (unsolvable
    // ones force full scans and the anchored→exhaustive fallback path).
    let mut instances = vec![solvable_diamond()];
    for trial in 0..3u64 {
        let mut rng = seeded(0xCA7 + trial);
        instances.push(random_instance_nonadjacent(
            7,
            0.35,
            ViewKind::AdHoc,
            3,
            2,
            &mut rng,
        ));
    }
    for inst in &instances {
        let _ = find_rmt_cut(inst, Some(&reg));
        let _ = find_rmt_cut_anchored_observed(inst, &reg);
        let _ = zpp_cut_by_fixpoint(inst, Some(&reg));
        let _ = zpp_cut_by_enumeration_anchored_observed(inst, &reg);
        let cache = KnowledgeCache::new(inst);
        let view = cache.joint_view(inst.graph().nodes());
        let _ = view.materialize_bounded_observed(usize::MAX, &reg);
    }

    // The incremental decision engine: an edge toggle plus a structure
    // change covers every `cache.invalidate.*` name; its decisions emit the
    // from-scratch anchored deciders' `rmt_cut.*` / `zpp.*` names.
    let mut engine = IncrementalEngine::from_instance(&instances[0], ViewKind::AdHoc);
    let _ = engine.decide_rmt_observed(&reg);
    let _ = engine.decide_zpp_observed(&reg);
    engine
        .apply_observed(Delta::AddEdge(0.into(), 3.into()), &reg)
        .expect("well-formed delta");
    let _ = engine.decide_rmt_observed(&reg);
    let z = engine.instance().adversary().clone();
    engine
        .apply_observed(Delta::StructureChange(z), &reg)
        .expect("well-formed delta");
    let _ = engine.decide_zpp_observed(&reg);
    // A zero-separator budget sends both anchored searches on the 8-cycle
    // to their exhaustive fallbacks before any anchor is scanned.
    let cycle = rmt_core::sampling::threshold_instance(
        rmt_graph::generators::cycle(8),
        1,
        ViewKind::AdHoc,
        0,
        4,
    );
    let mut starved =
        IncrementalEngine::from_instance(&cycle, ViewKind::AdHoc).with_budget(AnchorBudget {
            max_separators: 0,
            ..AnchorBudget::default()
        });
    let _ = starved.decide_rmt_observed(&reg);
    let _ = starved.decide_zpp_observed(&reg);

    // The RMT-PKA receiver decision engine: the dealer's and both relays'
    // claims let it decide, which runs the adversary cover.
    let inst = solvable_diamond();
    let mut state = ReceiverState::new(
        inst.receiver(),
        inst.dealer(),
        inst.graph().clone(),
        inst.adversary().clone(),
    );
    state.ingest_value(7, &[0.into(), 1.into()]);
    state.ingest_value(7, &[0.into(), 2.into()]);
    for relay in [0u32, 1, 2] {
        state.ingest_claim(relay.into(), inst.graph().clone(), inst.adversary().clone());
    }
    let _ = state.decide_observed(&DecisionConfig::default(), &reg);

    // The attack hunter: a tiny budget suffices — the hunt.* counters
    // register in `Hunter::new`, and a handful of candidates exercises the
    // execute/novelty/shrink paths.
    let hunt_inst = InstanceSpec {
        family: Family::E3,
        n: 6,
        view: ViewKind::AdHoc,
        seed: 11,
    }
    .build();
    let config = HuntConfig {
        seed: 0xCA7,
        candidates: 8,
        shrink_budget: 20,
        behaviours: vec![Behaviour::Pka(PkaAttack::Silent)],
    };
    let _ = Hunter::new(&reg).hunt(&hunt_inst, 7, &config);

    // The networked transport: a tiny loopback flood touches dials and
    // frame counters, then `record_into` registers every `netd.*` name.
    let outcome = run_session(
        rmt_graph::generators::cycle(4),
        |v| Flood::new(v, (v.index() == 0).then_some(5)),
        SilentAdversary::new(NodeSet::new()),
        &ChaosPlan::new(),
        NetdConfig::default(),
    )
    .expect("loopback session");
    outcome.stats.record_into(&reg);

    // The session layer: one small batched transmission registers every
    // `session.*` and `wire.*` name.
    let sess_inst = solvable_diamond();
    let plan = rmt_session::SessionPlan::build(&sess_inst);
    rmt_session::Session::new(&plan, vec![7, 8])
        .run_honest()
        .record_into(&reg);

    let spans = prof
        .events()
        .iter()
        .filter_map(|e| match e {
            RunEvent::SpanOpen { name, .. } => Some(name.clone()),
            _ => None,
        })
        .collect();
    (reg.metric_names(), spans)
}

/// Catalog rows the workload cannot reach, each with the reason.
const NOT_EMITTED: &[(&str, &str)] = &[
    (
        "e3.solvable_instances",
        "recorded by the e3_safety binary itself, not by library code",
    ),
    (
        "e3.unsolvable_instances",
        "recorded by the e3_safety binary itself, not by library code",
    ),
    (
        "pka.cover.exhaustive_fallbacks",
        "needs a G_M past the default budget's 4096 minimal separators, seconds per \
         decision in a debug build; pka_decision's cover_budget_forces_conservative_abstention \
         reaches it",
    ),
];

fn catalog() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/METRICS.md"))
        .expect("METRICS.md sits at the repo root")
}

/// The names the catalog's table rows document: each row's backticked
/// first cell.
fn documented_names(catalog: &str) -> Vec<&str> {
    catalog
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split_once('`'))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn every_emitted_metric_is_documented_in_metrics_md() {
    let catalog = catalog();
    let (metrics, spans) = emitted_names();

    // Sanity: the workload must actually exercise each subsystem, or the
    // catalog check would vacuously pass.
    for expected in [
        "rmt_cut.candidates_examined",
        "rmt_cut.search_ns",
        "rmt_cut.separators_enumerated",
        "zpp.corruption_sets_checked",
        "zcpa.sweeps",
        "pka.selections_examined",
        "pka.decide_ns",
        "join.folds",
        "family.candidate_sets",
        "family.kept_sets",
        "cache.invalidate.parts",
        "cache.invalidate.full",
        "hunt.candidates_executed",
        "hunt.shrink_steps",
        "netd.conn.dials",
        "netd.wire.frames_sent",
        "netd.wire.frames_received",
        "session.payloads",
        "session.decide_cache_hits",
        "wire.frame_bits",
        "wire.model_bits",
    ] {
        assert!(
            metrics.contains(&expected),
            "workload no longer emits {expected}; fix the test workload"
        );
    }
    assert!(
        spans.iter().any(|s| s == "rmt_cut.anchored.scan"),
        "workload no longer emits nested phase spans"
    );

    let mut undocumented: Vec<String> = metrics
        .iter()
        .map(|m| (*m).to_string())
        .chain(spans)
        .filter(|name| !catalog.contains(&format!("`{name}`")))
        .collect();
    undocumented.sort();
    undocumented.dedup();
    assert!(
        undocumented.is_empty(),
        "metric names emitted at runtime but missing from METRICS.md: {undocumented:?}\n\
         add a row (backticked name + meaning) to the catalog"
    );
}

#[test]
fn every_documented_metric_is_emitted() {
    let catalog = catalog();
    let (metrics, spans) = emitted_names();
    let documented = documented_names(&catalog);
    assert!(
        documented.len() > 50,
        "catalog rows not found: {documented:?}"
    );
    let emitted = |name: &str| metrics.contains(&name) || spans.iter().any(|s| s == name);
    let mut stale: Vec<&str> = documented
        .iter()
        .copied()
        .filter(|name| !emitted(name) && !NOT_EMITTED.iter().any(|(n, _)| n == name))
        .collect();
    stale.sort_unstable();
    assert!(
        stale.is_empty(),
        "METRICS.md rows no workload emits: {stale:?}\n\
         delete the row, extend the workload, or list the name in NOT_EMITTED with the reason"
    );
    // An exemption must name a documented metric the workload really
    // misses, so it cannot outlive either.
    for (name, _) in NOT_EMITTED {
        assert!(documented.contains(name), "{name} has no METRICS.md row");
        assert!(!emitted(name), "{name} is emitted now; drop its exemption");
    }
}
