//! The loopback differential gate.
//!
//! A fault-free socket-backed session must be *indistinguishable at the
//! model layer* from `rmt-net`'s deterministic `NetRunner` under an empty
//! `FaultPlan`: identical canonical event streams, identical per-node view
//! transcripts, identical decisions, and identical complexity metrics. The
//! deterministic runners are the oracle; the sockets are mechanism.

use std::time::Duration;

use rmt_core::protocols::rmt_pka::RmtPka;
use rmt_graph::{generators, Graph, ViewKind};
use rmt_hunt::{Family, InstanceSpec};
use rmt_net::{FaultPlan, NetRunner, Termination};
use rmt_netd::{run_session_observed, ChaosPlan, NetdConfig};
use rmt_obs::{node_view, render_trace, VecObserver};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::testing::{Flood, Watchdog};
use rmt_sim::{Envelope, FnAdversary, SilentAdversary};

/// Renders the first divergence between two event streams for diagnosis.
fn diff_events(label: &str, oracle: &VecObserver, netd: &VecObserver) {
    if oracle.events == netd.events {
        return;
    }
    let first = oracle
        .events
        .iter()
        .zip(netd.events.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| oracle.events.len().min(netd.events.len()));
    panic!(
        "{label}: event streams diverge at index {first}\n\
         oracle: {:?}\n\
         netd:   {:?}\n\n--- oracle trace ---\n{}\n--- netd trace ---\n{}",
        oracle.events.get(first),
        netd.events.get(first),
        render_trace(&oracle.events),
        render_trace(&netd.events),
    );
}

/// Runs one PKA instance on both backends and asserts full agreement.
fn assert_pka_identical(spec: InstanceSpec, input: u64) {
    let label = format!("{spec:?}");
    let inst = spec.build();
    let graph = inst.graph().clone();
    let n = graph.node_count();

    let mut oracle_obs = VecObserver::new();
    let oracle = NetRunner::new(
        graph.clone(),
        |v| RmtPka::node(&inst, v, input),
        SilentAdversary::new(NodeSet::new()),
        FaultPlan::new(spec.seed),
    )
    .run_observed(&mut oracle_obs);

    let mut netd_obs = VecObserver::new();
    let netd = run_session_observed(
        graph,
        |v| RmtPka::node(&inst, v, input),
        SilentAdversary::new(NodeSet::new()),
        &ChaosPlan::new(),
        NetdConfig {
            seed: spec.seed,
            ..NetdConfig::default()
        },
        &mut netd_obs,
    )
    .expect("session io");

    assert_eq!(netd.stall, None, "{label}: netd stalled on the wire");
    assert_eq!(
        netd.losses,
        0,
        "{label}: fault-free run lost messages (bp={} pd={} dec={} crash-diag={:?})",
        netd.stats
            .shed_backpressure
            .load(std::sync::atomic::Ordering::SeqCst),
        netd.stats
            .shed_peer_down
            .load(std::sync::atomic::Ordering::SeqCst),
        netd.stats
            .decode_errors
            .load(std::sync::atomic::Ordering::SeqCst),
        netd.diagnostics.len(),
    );
    diff_events(&label, &oracle_obs, &netd_obs);
    for v in 0..n as u32 {
        assert_eq!(
            node_view(&oracle_obs.events, v),
            node_view(&netd_obs.events, v),
            "{label}: node {v} view transcript diverges"
        );
        assert_eq!(
            oracle.decision(NodeId::new(v)),
            netd.decision(NodeId::new(v)),
            "{label}: node {v} decision diverges"
        );
    }
    assert_eq!(
        oracle.termination, netd.termination,
        "{label}: termination diverges"
    );
    assert_eq!(
        oracle.metrics.rounds, netd.metrics.rounds,
        "{label}: round counts diverge"
    );
    assert_eq!(
        oracle.metrics.honest_messages, netd.metrics.honest_messages,
        "{label}: message complexity diverges"
    );
    assert_eq!(
        oracle.metrics.honest_bits, netd.metrics.honest_bits,
        "{label}: bit complexity diverges"
    );
    assert_eq!(
        oracle.metrics.honest_messages_per_round, netd.metrics.honest_messages_per_round,
        "{label}: per-round message profile diverges"
    );
}

/// E2 family (non-adjacent dealer/receiver, ad-hoc knowledge): the flagship
/// paper workload, three seeds.
#[test]
fn pka_e2_loopback_matches_net_runner() {
    let dog = Watchdog::arm(
        "pka_e2_loopback_matches_net_runner",
        Duration::from_secs(120),
    );
    for seed in [0xBEEF, 0x5EED, 7] {
        dog.note(format!("E2 seed {seed:#x}"));
        let spec = InstanceSpec {
            family: Family::E2,
            n: 7,
            view: ViewKind::Radius(2),
            seed,
        };
        assert_pka_identical(spec, 41 + seed);
    }
    dog.disarm();
}

/// E3 family (denser random instances, full views), two seeds.
#[test]
fn pka_e3_loopback_matches_net_runner() {
    let dog = Watchdog::arm(
        "pka_e3_loopback_matches_net_runner",
        Duration::from_secs(120),
    );
    for seed in [3, 0xACE] {
        dog.note(format!("E3 seed {seed:#x}"));
        let spec = InstanceSpec {
            family: Family::E3,
            n: 8,
            view: ViewKind::Full,
            seed,
        };
        assert_pka_identical(spec, 1000 + seed);
    }
    dog.disarm();
}

/// An *active* adversary: corrupted node 2 floods forged values every round.
/// Exercises the adversarial-admission path and the virtualization of honest
/// sends addressed to a corrupted node (which has no task).
#[test]
fn flood_with_active_adversary_matches_net_runner() {
    let dog = Watchdog::arm(
        "flood_with_active_adversary_matches_net_runner",
        Duration::from_secs(120),
    );
    let graph: Graph = generators::cycle(6);
    let mut corrupted = NodeSet::new();
    corrupted.insert(NodeId::new(2));
    let make_adversary = || {
        FnAdversary::<u64, _>::new(corrupted.clone(), |round, g: &Graph, _| {
            if round > 2 {
                return Vec::new();
            }
            g.neighbors(NodeId::new(2))
                .iter()
                .map(|u| Envelope::new(NodeId::new(2), u, 666 + round as u64))
                .collect()
        })
    };

    let mut oracle_obs = VecObserver::new();
    let oracle = NetRunner::new(
        graph.clone(),
        |v| Flood::new(v, (v.index() == 0).then_some(99)),
        make_adversary(),
        FaultPlan::new(0),
    )
    .run_observed(&mut oracle_obs);

    let mut netd_obs = VecObserver::new();
    let netd = run_session_observed(
        graph.clone(),
        |v| Flood::new(v, (v.index() == 0).then_some(99)),
        make_adversary(),
        &ChaosPlan::new(),
        NetdConfig::default(),
        &mut netd_obs,
    )
    .expect("session io");

    assert_eq!(netd.stall, None, "netd stalled on the wire");
    diff_events("flood+adversary", &oracle_obs, &netd_obs);
    for v in graph.nodes().iter() {
        assert_eq!(
            oracle.decision(v),
            netd.decision(v),
            "node {} decision diverges",
            v.raw()
        );
    }
    assert_eq!(oracle.metrics.honest_messages, netd.metrics.honest_messages);
    assert_eq!(
        oracle.metrics.adversarial_messages,
        netd.metrics.adversarial_messages
    );
    assert!(matches!(netd.termination, Termination::Quiesced { .. }));
    dog.disarm();
}

/// A session cut off by its round cap (`NetdConfig::max_rounds`) stops
/// exactly where `NetRunner::with_max_rounds` does: identical events,
/// decisions and metrics, and both `Termination::Stalled` at the cap.
#[test]
fn capped_pka_session_matches_capped_net_runner() {
    let dog = Watchdog::arm(
        "capped_pka_session_matches_capped_net_runner",
        Duration::from_secs(120),
    );
    let spec = InstanceSpec {
        family: Family::E2,
        n: 7,
        view: ViewKind::Radius(2),
        seed: 0xBEEF,
    };
    let inst = spec.build();
    let graph = inst.graph().clone();
    let input = 41 + spec.seed;
    let oracle_run = |cap: Option<u32>, obs: &mut VecObserver| {
        let runner = NetRunner::new(
            graph.clone(),
            |v| RmtPka::node(&inst, v, input),
            SilentAdversary::new(NodeSet::new()),
            FaultPlan::new(spec.seed),
        );
        match cap {
            Some(k) => runner.with_max_rounds(k),
            None => runner,
        }
        .run_observed(obs)
    };
    let full = oracle_run(None, &mut VecObserver::new()).metrics.rounds;
    let cap = full - 1;
    assert!(cap >= 1, "the run must outlast round 1 to be cut off");

    let mut oracle_obs = VecObserver::new();
    let oracle = oracle_run(Some(cap), &mut oracle_obs);
    let mut netd_obs = VecObserver::new();
    let netd = run_session_observed(
        graph.clone(),
        |v| RmtPka::node(&inst, v, input),
        SilentAdversary::new(NodeSet::new()),
        &ChaosPlan::new(),
        NetdConfig {
            seed: spec.seed,
            max_rounds: Some(cap),
            ..NetdConfig::default()
        },
        &mut netd_obs,
    )
    .expect("session io");

    assert_eq!(netd.stall, None, "netd stalled on the wire");
    assert_eq!(netd.losses, 0);
    diff_events("capped E2", &oracle_obs, &netd_obs);
    for v in graph.nodes().iter() {
        assert_eq!(oracle.decision(v), netd.decision(v), "node {}", v.raw());
    }
    assert_eq!(oracle.metrics, netd.metrics);
    assert_eq!(oracle.termination, Termination::Stalled { round: cap });
    assert_eq!(netd.termination, oracle.termination);
    dog.disarm();
}
