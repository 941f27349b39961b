//! [`Session`]: stream many payloads through one precomputed
//! [`SessionPlan`] over the synchronous `Runner` (the fault-injecting
//! `NetRunner` and `rmt_netd::run_session` drive the same [`SessionNode`]s
//! over a faulty network and over sockets).
//!
//! A session builds its node set from the plan once, runs the batched
//! engine, and reports *two* cost ledgers side by side:
//!
//! * **wire** — what actually crossed the links: frames and their compact
//!   encoding's bits ([`Metrics`] from the scheduler, whose `honest_bits`
//!   bill the codec's real byte length);
//! * **model** — what the per-message protocol would have sent for the same
//!   traffic: the frames' [`model_cost`](SessionFrame::model_cost),
//!   payload-for-payload identical to the naive runner's accounting at
//!   batch size 1.
//!
//! The ratio of the two, per payload, is the amortization experiment E16
//! measures across batch sizes.

use rmt_core::Value;
use rmt_obs::Registry;
use rmt_sim::{Adversary, Metrics, Runner, SilentAdversary};

use crate::codec::SessionFrame;
use crate::engine::{ReceiverStats, SessionNode};
use crate::plan::SessionPlan;

/// Model-layer (per-message-equivalent) accounting of one session's honest
/// traffic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModelMetrics {
    /// Logical messages the session's frames carry.
    pub messages: u64,
    /// Their bits under the per-message protocol's estimate.
    pub bits: u64,
    /// Per-round `(messages, bits)`; index 0 = initial sends.
    pub per_round: Vec<(u64, u64)>,
}

/// Everything one session run produces.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The receiver's verdict per payload slot.
    pub verdicts: Vec<Option<Value>>,
    /// Wire-layer accounting: frames and compact-codec bits.
    pub wire: Metrics,
    /// Model-layer accounting: the expanded per-message equivalent.
    pub model: ModelMetrics,
    /// Receiver search counters (decide cache, truncation, effort).
    pub receiver: ReceiverStats,
    /// Frames honest nodes received and dropped for referencing a missing
    /// trail (the frames `SessionFrame::expand` rejects).
    pub invalid_frames: u64,
    /// The number of payloads transmitted.
    pub payloads: u64,
}

impl SessionReport {
    /// Wire bits per payload (the headline amortization figure).
    pub fn wire_bits_per_payload(&self) -> f64 {
        self.wire.honest_bits as f64 / self.payloads.max(1) as f64
    }

    /// Records the session's counters into `reg` under the `session.*`,
    /// `wire.*` and `pka.*` names catalogued in `METRICS.md`.
    pub fn record_into(&self, reg: &Registry) {
        reg.counter("session.payloads").add(self.payloads);
        reg.counter("session.frames").add(self.wire.honest_messages);
        reg.counter("session.rounds")
            .add(u64::from(self.wire.rounds));
        reg.counter("session.decide_cache_hits")
            .add(self.receiver.decide_cache_hits);
        reg.counter("session.decide_cache_misses")
            .add(self.receiver.decide_cache_misses);
        reg.counter("session.invalid_frames")
            .add(self.invalid_frames);
        reg.counter("pka.selections_examined")
            .add(self.receiver.selections_examined);
        reg.counter("pka.covers_checked")
            .add(self.receiver.covers_checked);
        reg.counter("pka.truncations")
            .add(u64::from(self.receiver.truncated));
        reg.counter("wire.frame_bits").add(self.wire.honest_bits);
        reg.counter("wire.model_messages").add(self.model.messages);
        reg.counter("wire.model_bits").add(self.model.bits);
    }

    fn collect<F>(plan: &SessionPlan, payloads: u64, wire: Metrics, protocol: F) -> SessionReport
    where
        F: Fn(rmt_sets::NodeId) -> Option<SessionNode>,
    {
        let mut model = ModelMetrics::default();
        let mut invalid_frames = 0u64;
        let mut verdicts = Vec::new();
        let mut receiver = ReceiverStats::default();
        for v in plan.graph().nodes() {
            let Some(node) = protocol(v) else { continue };
            invalid_frames += node.invalid_frames();
            for (r, &(m, b)) in node.model_sent().iter().enumerate() {
                if model.per_round.len() <= r {
                    model.per_round.resize(r + 1, (0, 0));
                }
                model.per_round[r].0 += m;
                model.per_round[r].1 += b;
                model.messages += m;
                model.bits += b;
            }
            if v == plan.receiver() {
                verdicts = node.receiver_verdicts().unwrap_or_default();
                receiver = node.receiver_stats().unwrap_or_default();
            }
        }
        SessionReport {
            verdicts,
            wire,
            model,
            receiver,
            invalid_frames,
            payloads,
        }
    }
}

/// A batched multi-payload transmission over a precomputed plan.
pub struct Session<'p> {
    plan: &'p SessionPlan,
    values: Vec<Value>,
}

impl<'p> Session<'p> {
    /// A session transmitting `values` (one payload slot each) over `plan`.
    pub fn new(plan: &'p SessionPlan, values: impl Into<Vec<Value>>) -> Self {
        Session {
            plan,
            values: values.into(),
        }
    }

    /// The payload values this session transmits.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Runs over the synchronous in-process scheduler.
    pub fn run<A: Adversary<SessionFrame>>(&self, adversary: A) -> SessionReport {
        let out = Runner::new(
            self.plan.graph().clone(),
            |v| SessionNode::new(self.plan, v, &self.values),
            adversary,
        )
        .run();
        SessionReport::collect(
            self.plan,
            self.values.len() as u64,
            out.metrics.clone(),
            |v| out.protocol(v).cloned(),
        )
    }

    /// Runs honestly (no corruptions) over the synchronous scheduler.
    pub fn run_honest(&self) -> SessionReport {
        self.run(SilentAdversary::new(rmt_sets::NodeSet::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_core::gallery;
    use rmt_core::protocols::rmt_pka::run_pka;
    use rmt_graph::ViewKind;
    use rmt_sets::NodeSet;

    #[test]
    fn report_carries_both_ledgers() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let report = Session::new(&plan, vec![7, 8, 9]).run_honest();
        assert_eq!(report.verdicts, vec![Some(7), Some(8), Some(9)]);
        assert_eq!(report.payloads, 3);
        // The wire ledger bills frames; the model ledger bills the expanded
        // messages — more numerous, and (batched) costlier in total.
        assert!(report.model.messages > report.wire.honest_messages);
        assert!(report.model.bits > report.wire.honest_bits);
        assert_eq!(report.invalid_frames, 0);
    }

    #[test]
    fn batch_one_wire_metrics_match_naive_counters() {
        // At batch size 1 the *model* ledger equals the per-message run's
        // metrics exactly (the wire ledger differs: compact codec bits).
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let naive = run_pka(&inst, 7, SilentAdversary::new(NodeSet::new()));
        let report = Session::new(&plan, vec![7]).run_honest();
        assert_eq!(report.verdicts, vec![naive.decision(inst.receiver())]);
        assert_eq!(report.model.messages, naive.metrics.honest_messages);
        assert_eq!(report.model.bits, naive.metrics.honest_bits);
        assert_eq!(report.wire.rounds, naive.metrics.rounds);
    }

    #[test]
    fn runs_over_the_fault_free_net_backend_identically() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let session = Session::new(&plan, vec![5, 6]);
        let sync = session.run_honest();
        let out = rmt_net::NetRunner::new(
            plan.graph().clone(),
            |v| SessionNode::new(&plan, v, session.values()),
            SilentAdversary::new(NodeSet::new()),
            rmt_net::FaultPlan::new(1),
        )
        .run();
        let payloads = session.values().len() as u64;
        let net = SessionReport::collect(&plan, payloads, out.metrics.clone(), |v| {
            out.protocol(v).cloned()
        });
        assert_eq!(net.verdicts, sync.verdicts);
        assert_eq!(net.wire, sync.wire);
        assert_eq!(net.model, sync.model);
    }

    #[test]
    fn counters_record_under_catalogued_names() {
        let inst = gallery::tolerant_diamond(ViewKind::AdHoc);
        let plan = SessionPlan::build(&inst);
        let report = Session::new(&plan, vec![7, 8]).run_honest();
        let reg = Registry::new();
        report.record_into(&reg);
        assert_eq!(reg.counter("session.payloads").get(), 2);
        assert_eq!(
            reg.counter("session.frames").get(),
            report.wire.honest_messages
        );
        assert_eq!(
            reg.counter("wire.frame_bits").get(),
            report.wire.honest_bits
        );
        assert_eq!(reg.counter("wire.model_bits").get(), report.model.bits);
        assert!(reg.counter("session.decide_cache_hits").get() >= 1);
        assert_eq!(
            reg.counter("pka.selections_examined").get(),
            report.receiver.selections_examined
        );
        assert!(report.receiver.covers_checked >= 1);
        assert_eq!(
            reg.counter("pka.covers_checked").get(),
            report.receiver.covers_checked
        );
        assert_eq!(reg.counter("pka.truncations").get(), 0);
    }
}
