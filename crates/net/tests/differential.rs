//! The differential gates of the fault-injecting scheduler.
//!
//! 1. **Transparency**: with an *empty* [`FaultPlan`] the `NetRunner` is
//!    byte-identical to `rmt-sim`'s synchronous `Runner` — same event
//!    stream (every delivery included), same [`Metrics`], same
//!    termination, same decisions — across the E2 instance family (random partial-knowledge
//!    instances running real RMT-PKA under every implemented Byzantine
//!    attack), plain, profiled (`RoundEnd` events included) and cut off by
//!    a round cap below quiescence.
//! 2. **Determinism**: a *faulty* run is a pure function of
//!    `(instance, plan)` — repeating a seed sweep at 1, 2 and 8 threads via
//!    `rmt-par` yields bit-identical event streams, metrics and fault
//!    statistics.

use rmt_core::protocols::attacks::{pka_adversary, PKA_ATTACKS};
use rmt_core::protocols::rmt_pka::RmtPka;
use rmt_core::sampling::random_instance_nonadjacent;
use rmt_core::Instance;
use rmt_graph::generators::seeded;
use rmt_graph::ViewKind;
use rmt_net::{FaultPlan, LinkPolicy, NetRunner, Termination};
use rmt_obs::{Clock, RunEvent, VecObserver};
use rmt_sets::NodeSet;
use rmt_sim::Runner;

/// The E2 workload: random non-adjacent partial-knowledge instances over
/// both view kinds.
fn e2_instances(count: usize, seed: u64) -> Vec<Instance> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|trial| {
            let n = 6 + trial % 4;
            let views = if trial.is_multiple_of(2) {
                ViewKind::AdHoc
            } else {
                ViewKind::Radius(2)
            };
            random_instance_nonadjacent(n, 0.35, views, 3, 2, &mut rng)
        })
        .collect()
}

/// How both schedulers of a paired run are configured.
#[derive(Clone, Copy, Debug)]
enum Setup {
    Plain,
    /// Profiled with a virtual clock: `RoundEnd` events join the stream.
    Profiled,
    /// Cut off by `with_max_rounds(k)`.
    Capped(u32),
}

/// Runs RMT-PKA on `inst` under `attack` through both schedulers (the
/// `NetRunner` under `plan`), both configured by `setup`, and returns the
/// paired observations.
#[allow(clippy::type_complexity)]
fn run_both(
    inst: &Instance,
    corrupted: NodeSet,
    attack: rmt_core::protocols::attacks::PkaAttack,
    plan: FaultPlan,
    setup: Setup,
) -> (
    (Vec<RunEvent>, rmt_sim::Metrics, Termination),
    (Vec<RunEvent>, rmt_sim::Metrics, Termination),
) {
    let input = 7;
    let mut obs_sync = VecObserver::new();
    let mut sync = Runner::new(
        inst.graph().clone(),
        |v| RmtPka::node(inst, v, input),
        pka_adversary(inst, input, corrupted.clone(), attack, 11),
    );
    let mut net = NetRunner::new(
        inst.graph().clone(),
        |v| RmtPka::node(inst, v, input),
        pka_adversary(inst, input, corrupted, attack, 11),
        plan,
    );
    match setup {
        Setup::Plain => {}
        Setup::Profiled => {
            sync = sync.with_profiling(Clock::virtual_ns(13));
            net = net.with_profiling(Clock::virtual_ns(13));
        }
        Setup::Capped(k) => {
            sync = sync.with_max_rounds(k);
            net = net.with_max_rounds(k);
        }
    }
    let sync = sync.run_observed(&mut obs_sync);
    let mut obs_net = VecObserver::new();
    let net = net.run_observed(&mut obs_net);

    (
        (obs_sync.events, sync.metrics, sync.termination),
        (obs_net.events, net.metrics, net.termination),
    )
}

#[test]
fn empty_plan_is_byte_identical_to_the_synchronous_runner_on_e2() {
    let mut checked = 0usize;
    for inst in e2_instances(6, 0xE12_D1FF) {
        // Instances without a worst-case corruption run adversary-free —
        // still a differential workload, just a benign one.
        let corrupted = inst
            .worst_case_corruptions()
            .first()
            .cloned()
            .unwrap_or_default();
        for attack in PKA_ATTACKS {
            let run = |setup| run_both(&inst, corrupted.clone(), attack, FaultPlan::new(99), setup);
            let plain = run(Setup::Plain);
            // One round short of quiescence: traffic is still in flight.
            let cap = plain.0 .1.rounds - 1;
            assert!(cap >= 1, "the run must outlast round 1 to be cut off");
            let setups = [Setup::Plain, Setup::Profiled, Setup::Capped(cap)];
            let runs = [plain, run(Setup::Profiled), run(Setup::Capped(cap))];
            for (setup, (sync, net)) in setups.into_iter().zip(runs) {
                assert_eq!(sync.0, net.0, "event streams diverge under {attack}");
                assert_eq!(sync.1, net.1, "metrics diverge under {attack}");
                assert_eq!(
                    sync.2, net.2,
                    "terminations diverge under {attack}, {setup:?}"
                );
                match setup {
                    // The compared streams carry R's deliveries.
                    Setup::Plain => assert!(sync.0.iter().any(|ev| matches!(
                        ev,
                        RunEvent::Delivery { to, .. } if *to == inst.receiver().raw()
                    ))),
                    Setup::Profiled => assert!(sync
                        .0
                        .iter()
                        .any(|ev| matches!(ev, RunEvent::RoundEnd { .. }))),
                    Setup::Capped(k) => assert_eq!(sync.2, Termination::Stalled { round: k }),
                }
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 20,
        "gate must exercise a real workload: {checked}"
    );
}

#[test]
fn empty_plan_preserves_all_decisions_on_e2() {
    let input = 7;
    for inst in e2_instances(6, 0xE12_DEC) {
        let corrupted = inst
            .worst_case_corruptions()
            .first()
            .cloned()
            .unwrap_or_default();
        let attack = PKA_ATTACKS[1]; // flip-value: actually perturbs traffic
        let sync = Runner::new(
            inst.graph().clone(),
            |v| RmtPka::node(&inst, v, input),
            pka_adversary(&inst, input, corrupted.clone(), attack, 5),
        )
        .run();
        let net = NetRunner::new(
            inst.graph().clone(),
            |v| RmtPka::node(&inst, v, input),
            pka_adversary(&inst, input, corrupted, attack, 5),
            FaultPlan::new(0),
        )
        .run();
        for v in inst.graph().nodes() {
            assert_eq!(sync.decision(v), net.decision(v), "node {v:?}");
        }
    }
}

/// One faulty run, fully serialized for bit comparison.
fn faulty_fingerprint(inst: &Instance, fault_seed: u64) -> String {
    let plan = FaultPlan::new(fault_seed).with_default_policy(LinkPolicy {
        drop: 0.15,
        delay: 0.3,
        max_delay: 2,
        duplicate: 0.1,
        reorder: true,
    });
    let corrupted = inst
        .worst_case_corruptions()
        .first()
        .cloned()
        .unwrap_or_default();
    let input = 7;
    let mut obs = VecObserver::new();
    let out = NetRunner::new(
        inst.graph().clone(),
        |v| RmtPka::node(inst, v, input),
        pka_adversary(inst, input, corrupted, PKA_ATTACKS[1], 5),
        plan,
    )
    .run_observed(&mut obs);
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        obs.events,
        out.metrics,
        out.faults,
        out.decided()
    )
}

#[test]
fn faulty_runs_are_deterministic_across_thread_counts() {
    let instances = e2_instances(4, 0xE127);
    let sweep = |threads: usize| -> Vec<String> {
        let work: Vec<(usize, u64)> = (0..instances.len())
            .flat_map(|i| (0..3u64).map(move |s| (i, 0xFA0 + s)))
            .collect();
        rmt_par::parallel_map(work, threads, |(i, seed)| {
            faulty_fingerprint(&instances[i], seed)
        })
    };
    let one = sweep(1);
    assert_eq!(one, sweep(2), "2 threads diverge from sequential");
    assert_eq!(one, sweep(8), "8 threads diverge from sequential");
    // And the sweep itself is non-trivial: faults actually fired somewhere.
    assert!(
        one.iter().any(|f| f.contains("dropped: ")),
        "fingerprints must include fault statistics"
    );
}
