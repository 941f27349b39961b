//! The batch-size-1 differential gate: a session carrying exactly one
//! payload must be *verdict- and model-counter-identical* to the
//! per-message `Runner` — on random instance galleries, across every
//! worst-case corruption set, under every attack in the gallery.
//!
//! This is the license for everything the session layer amortizes: if the
//! batched engine at B=1 is indistinguishable from the per-message
//! protocol, the per-message safety argument (and the hunt corpus built
//! against it) transfers to sessions wholesale.

use rmt_adversary::AdversaryStructure;
use rmt_core::protocols::attacks::{pka_adversary, PKA_ATTACKS};
use rmt_core::protocols::rmt_pka::{run_pka, PkaPayload, RmtPka};
use rmt_core::Instance;
use rmt_graph::{Graph, ViewKind};
use rmt_hunt::{Family, InstanceSpec};
use rmt_session::{Session, SessionAdversary, SessionPlan};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Adversary, Envelope, RoundInboxes};

const INPUT: u64 = 7;
const SEED: u64 = 0xE16;

fn specs() -> Vec<InstanceSpec> {
    let mut out = Vec::new();
    for family in [Family::E2, Family::E3] {
        for seed in [1, 2] {
            out.push(InstanceSpec {
                family,
                n: 8,
                view: ViewKind::AdHoc,
                seed,
            });
        }
    }
    out
}

/// Runs one (instance, corruption, attack) cell both ways and asserts the
/// session at batch size 1 reproduces the per-message run exactly.
fn assert_cell_identical(
    inst: &Instance,
    plan: &SessionPlan,
    cell: &str,
    run: impl Fn() -> (
        rmt_sim::RunOutcome<RmtPka>,
        rmt_session::SessionReport,
        rmt_session::ModelCounters,
    ),
) {
    let (naive, report, counters) = run();

    // Verdict identity — the acceptance criterion's WRONG=0 at batch 1.
    assert_eq!(
        report.verdicts,
        vec![naive.decision(inst.receiver())],
        "verdict mismatch: {cell}"
    );

    // Model-layer honest counters equal the per-message run's metrics.
    assert_eq!(
        report.model.messages, naive.metrics.honest_messages,
        "honest messages: {cell}"
    );
    assert_eq!(
        report.model.bits, naive.metrics.honest_bits,
        "honest bits: {cell}"
    );
    assert_eq!(report.wire.rounds, naive.metrics.rounds, "rounds: {cell}");
    for (r, &(m, _)) in report.model.per_round.iter().enumerate() {
        let expected = naive
            .metrics
            .honest_messages_per_round
            .get(r)
            .copied()
            .unwrap_or(0);
        assert_eq!(m, expected, "round {r} messages: {cell}");
    }

    // Adversarial model traffic equals the per-message adversary's, under
    // the same transport validity predicate.
    assert_eq!(
        counters.messages(),
        naive.metrics.adversarial_messages,
        "adversarial messages: {cell}"
    );
    assert_eq!(
        counters.rejected(),
        naive.metrics.rejected_adversarial,
        "rejected adversarial: {cell}"
    );

    // The receiver's search effort equals the per-message receiver's.
    let state = naive
        .protocol(inst.receiver())
        .and_then(RmtPka::receiver_state)
        .expect("per-message receiver");
    let receiver = &report.receiver;
    assert_eq!(
        receiver.selections_examined, state.selections_examined,
        "selections examined: {cell}"
    );
    assert_eq!(
        receiver.covers_checked, state.covers_checked,
        "covers checked: {cell}"
    );
    assert_eq!(receiver.truncated, state.truncated, "truncated: {cell}");
    assert_eq!(
        receiver.malformed_claims, state.malformed_claims,
        "malformed claims: {cell}"
    );

    assert_eq!(report.invalid_frames, 0, "invalid frames: {cell}");
    let _ = plan;
}

#[test]
fn batch_one_sessions_match_the_per_message_runner_under_attack() {
    let mut cells = 0usize;
    for spec in specs() {
        let inst = spec.build();
        let plan = SessionPlan::build(&inst);
        // Every maximal corruption set of the structure, every attack.
        for corrupted in inst.worst_case_corruptions().into_iter().take(3) {
            for attack in PKA_ATTACKS {
                let cell = format!(
                    "{:?} n={} seed={} corrupted={corrupted:?} attack={attack}",
                    spec.family, spec.n, spec.seed
                );
                assert_cell_identical(&inst, &plan, &cell, || {
                    let naive = run_pka(
                        &inst,
                        INPUT,
                        pka_adversary(&inst, INPUT, corrupted.clone(), attack, SEED),
                    );
                    let session_adv = SessionAdversary::new(vec![pka_adversary(
                        &inst,
                        INPUT,
                        corrupted.clone(),
                        attack,
                        SEED,
                    )]);
                    let counters = session_adv.counters();
                    let report = Session::new(&plan, vec![INPUT]).run(session_adv);
                    (naive, report, counters)
                });
                cells += 1;
            }
        }
    }
    assert!(cells >= 20, "gallery too small: {cells} cells");
}

#[test]
fn batched_sessions_agree_with_per_message_verdicts_per_slot() {
    // At batch size 4 under attack, each slot plays against its own
    // per-message adversary: slot 0 of the batch sees exactly the
    // per-message world; higher slots may only differ by *missing*
    // adversarial knowledge (dropped by the once-per-session policy), which
    // can cost liveness, never safety.
    let values = [7u64, 8, 9, 10];
    // One spec per family keeps this under attack-gallery × batch cost.
    for spec in specs().into_iter().step_by(2) {
        let inst = spec.build();
        let plan = SessionPlan::build(&inst);
        for corrupted in inst.worst_case_corruptions().into_iter().take(2) {
            for attack in PKA_ATTACKS {
                let adv = SessionAdversary::new(
                    values
                        .iter()
                        .map(|&v| pka_adversary(&inst, v, corrupted.clone(), attack, SEED))
                        .collect(),
                );
                let report = Session::new(&plan, values.to_vec()).run(adv);
                for (slot, verdict) in report.verdicts.iter().enumerate() {
                    if let Some(x) = verdict {
                        // Safety: a slot delivers its own value or nothing —
                        // never a forgery, and never another slot's value
                        // (slot 1's forged sibling 8 ^ 1 = 9 is slot 2's).
                        assert_eq!(
                            *x, values[slot],
                            "slot {slot} decided {x}: {attack} corrupted={corrupted:?}"
                        );
                    }
                }
            }
        }
    }
}

/// A corrupted neighbour `from` of R that opens the run by sending R three
/// malformed claims about itself and R, then stays silent: a view without
/// the claimant, a structure outside its view, and a claim about R.
struct MalformedClaims {
    corrupted: NodeSet,
    from: NodeId,
    to: NodeId,
}

impl Adversary<PkaPayload> for MalformedClaims {
    fn corrupted(&self) -> &NodeSet {
        &self.corrupted
    }

    fn start(&mut self, _graph: &Graph) -> Vec<Envelope<PkaPayload>> {
        let (c, r) = (self.from, self.to);
        let knowledge = |node, view, structure| {
            Envelope::new(
                c,
                r,
                PkaPayload::Knowledge {
                    node,
                    view,
                    structure,
                    trail: vec![c],
                },
            )
        };
        let mut without_claimant = Graph::new();
        without_claimant.add_edge(0.into(), r);
        let mut view = Graph::new();
        view.add_edge(c, r);
        let escaping = AdversaryStructure::from_sets([NodeSet::singleton(9.into())]);
        vec![
            knowledge(c, without_claimant, AdversaryStructure::trivial()),
            knowledge(c, view.clone(), escaping),
            knowledge(r, view, AdversaryStructure::trivial()),
        ]
    }

    fn on_round(
        &mut self,
        _round: u32,
        _graph: &Graph,
        _delivered: &RoundInboxes<PkaPayload>,
    ) -> Vec<Envelope<PkaPayload>> {
        Vec::new()
    }

    fn is_quiescent(&self) -> bool {
        true
    }
}

#[test]
fn malformed_claims_count_once_per_session_at_any_batch_size() {
    // Relay 1 of the tolerant diamond (𝒵 = {{1}}) is corrupted and sends R
    // three malformed claims in round 1. The receiver drops each one once,
    // whatever the batch size, and every slot still decides its own value.
    // With a D–R edge added, R decides every slot by the dealer rule before
    // it reads the claims, and counts none of them, as the per-message
    // receiver does.
    let diamond = rmt_core::gallery::tolerant_diamond(ViewKind::AdHoc);
    let mut graph = diamond.graph().clone();
    graph.add_edge(diamond.dealer(), diamond.receiver());
    let adjacent = Instance::new(
        graph,
        diamond.adversary().clone(),
        ViewKind::AdHoc,
        diamond.dealer(),
        diamond.receiver(),
    )
    .expect("instance");
    for (inst, malformed) in [(diamond, 3), (adjacent, 0)] {
        let plan = SessionPlan::build(&inst);
        let adversary = || MalformedClaims {
            corrupted: NodeSet::singleton(1.into()),
            from: 1.into(),
            to: inst.receiver(),
        };
        let naive = run_pka(&inst, 7, adversary());
        let state = naive
            .protocol(inst.receiver())
            .and_then(RmtPka::receiver_state)
            .expect("per-message receiver");
        assert_eq!(state.malformed_claims, malformed);
        assert_eq!(naive.decision(inst.receiver()), Some(7));
        for values in [vec![7], vec![7, 8, 9, 10]] {
            let slots: Vec<Box<dyn Adversary<PkaPayload>>> = values
                .iter()
                .map(|_| Box::new(adversary()) as Box<dyn Adversary<PkaPayload>>)
                .collect();
            let report = Session::new(&plan, values.clone()).run(SessionAdversary::new(slots));
            assert_eq!(
                report.receiver.malformed_claims,
                malformed,
                "batch {}",
                values.len()
            );
            assert_eq!(
                report.verdicts,
                values.iter().map(|&v| Some(v)).collect::<Vec<_>>()
            );
        }
    }
}
