//! The four workloads and their operations.
//!
//! Every call into the measured crates goes through their public API. In a
//! traced operation each layer call is wrapped in a span (see `trace.rs`);
//! layers whose work happens inside a run (codec, receiver decision, claim
//! joins) are re-timed on the data the run delivered, after the operation,
//! and their spans are flagged as replays.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use rmt_adversary::{JointView, RestrictedStructure};
use rmt_core::cuts::{
    find_rmt_cut_anchored, find_rmt_cut_anchored_observed, zpp_cut_by_enumeration_anchored,
    zpp_cut_by_enumeration_anchored_observed,
};
use rmt_core::engine::IncrementalEngine;
use rmt_core::protocols::attacks::pka_adversary;
use rmt_core::protocols::pka_decision::ReceiverState;
use rmt_core::protocols::rmt_pka::PkaPayload;
use rmt_core::{Instance, KnowledgeCache};
use rmt_graph::ViewKind;
use rmt_net::{FaultPlan, FaultStats, LinkPolicy, NetRunner};
use rmt_netd::{ChaosPlan, NetdConfig, NetdStats};
use rmt_obs::Registry;
use rmt_session::{ReceiverStats, SessionAdversary, SessionFrame, SessionNode, SessionPlan};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{Adversary, Metrics, Runner, SilentAdversary, WirePayload};

use crate::gen::{self, Cell, Family};
use crate::trace::{Recorder, Tap, TapLog};

/// Workload names, as passed to `--workload`.
pub const NAMES: [&str; 5] = ["stream", "faults", "adversarial", "churn", "netd"];

/// Bound on intermediate antichains when the benchmark materializes a joint
/// view to exercise the ⊕ join.
const FAMILY_BOUND: usize = 1 << 12;

/// Every `CHURN_COLD_EVERY`-th delta is re-decided from scratch and compared.
/// Coprime to the four-delta side pattern, so both instances are sampled.
const CHURN_COLD_EVERY: u64 = 5;

/// The churn instance delta `idx` applies to: three heavy deltas, then one
/// light. The imbalance keeps the latency median inside the heavy cluster
/// instead of on the boundary between the two instances.
fn churn_side(idx: u64) -> usize {
    usize::from(idx % 4 == 3)
}

/// Outcome of one operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpResult {
    /// Operation latency (excluding output checks and cold re-decisions).
    pub op_ns: u64,
    /// Payloads sent (sessions) or decisions requested (churn).
    pub payloads: u64,
    pub ok: u64,
    pub wrong: u64,
    pub undecided: u64,
    pub wire_bits: u64,
    pub invalid_frames: u64,
    /// Time of the from-scratch re-decision (churn, sampled deltas).
    pub cold_ns: u64,
}

/// Per-layer values of one traced operation (or of the traced set-up):
/// additive values and raw samples.
#[derive(Default)]
pub struct OpTrace {
    vals: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<u64>>,
    /// Self time per span name, over the spans the operation recorded.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl OpTrace {
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.vals.entry(key).or_insert(0.0) += v;
    }

    pub fn sample(&mut self, key: &'static str, v: u64) {
        self.samples.entry(key).or_default().push(v);
    }

    fn counters(&mut self, reg: &Registry, names: &[&'static str]) {
        for &name in names {
            self.add(name, reg.counter(name).get() as f64);
        }
    }

    pub fn to_json(&self) -> String {
        let vals: Vec<String> = self
            .vals
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| {
                let list: Vec<String> = v.iter().map(u64::to_string).collect();
                format!("\"{k}\":[{}]", list.join(","))
            })
            .collect();
        let self_ns: Vec<String> = self
            .self_ns
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!(
            "{{\"v\":{{{}}},\"s\":{{{}}},\"t\":{{{}}}}}",
            vals.join(","),
            samples.join(","),
            self_ns.join(",")
        )
    }
}

type Traced<'a> = Option<(&'a mut Recorder, &'a mut OpTrace)>;

/// Builds an operation's adversary, once per run of the operation.
type AdversaryFactory<'a> = Box<dyn Fn() -> Box<dyn Adversary<SessionFrame>> + 'a>;

/// A set-up workload, ready to run operations.
pub enum Workload {
    Sessions(Sessions),
    Churn(Box<Churn>),
}

impl Workload {
    /// Builds the instance pool and everything the loop needs, including the
    /// first decision. With `trace`, the layer calls of a session workload's
    /// set-up are timed into it (churn's set-up has no traced layer call).
    pub fn setup(name: &str, seed: u64, trace: Option<&mut OpTrace>) -> Workload {
        match name {
            "stream" => Workload::Sessions(Sessions::setup(Kind::Stream, seed, trace)),
            "faults" => Workload::Sessions(Sessions::setup(Kind::Faults, seed, trace)),
            "adversarial" => Workload::Sessions(Sessions::setup(Kind::Adversarial, seed, trace)),
            "netd" => Workload::Sessions(Sessions::setup(Kind::Netd, seed, trace)),
            "churn" => Workload::Churn(Box::new(Churn::setup(seed))),
            _ => unreachable!("workload names are validated"),
        }
    }

    /// Brings a freshly set-up workload to the state it has before
    /// operation `start` (only churn carries state across operations).
    pub fn fast_forward(&mut self, start: u64) {
        if let Workload::Churn(c) = self {
            for idx in 0..start {
                let delta = c.delta(idx);
                c.sides[churn_side(idx)]
                    .engine
                    .apply(delta)
                    .expect("edge toggles keep the instance well-formed");
            }
        }
    }

    /// Whether operation `idx` is traced in a traced run. Session operations
    /// are all traced (each also runs once untraced, for the overhead);
    /// churn traces blocks of four deltas and leaves the next block
    /// untraced, so both churn instances appear on both sides.
    pub fn traces(&self, idx: u64) -> bool {
        match self {
            Workload::Sessions(_) => true,
            Workload::Churn(_) => (idx / 4).is_multiple_of(2),
        }
    }

    /// A label naming the attack cell of operation `idx` (adversarial only),
    /// so that the supervisor can name the cells that failed.
    pub fn label(&self, idx: u64) -> Option<String> {
        match self {
            Workload::Sessions(s) if s.kind == Kind::Adversarial => {
                let cell = &s.cells[(idx % s.cells.len() as u64) as usize];
                let corrupted: Vec<String> =
                    cell.corrupted.iter().map(|v| v.raw().to_string()).collect();
                Some(format!(
                    "{} corrupted={{{}}} instance={}",
                    cell.attack,
                    corrupted.join(","),
                    cell.instance
                ))
            }
            _ => None,
        }
    }

    pub fn run_op(&mut self, idx: u64, trace: Traced<'_>) -> OpResult {
        match self {
            Workload::Sessions(s) => s.run_op(idx, trace),
            Workload::Churn(c) => c.run_op(idx, trace),
        }
    }
}

// ---------------------------------------------------------------------------
// Session workloads: stream, faults, adversarial, netd.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Batch-64 sessions over the synchronous `Runner`, silent attack.
    Stream,
    /// Batch-16 sessions over `NetRunner` with link faults, silent attack.
    Faults,
    /// Batch-1 sessions over `NetRunner` with link faults, one attack cell each.
    Adversarial,
    /// Batch-16 honest sessions over `rmt-netd` loopback TCP.
    Netd,
}

pub struct Sessions {
    kind: Kind,
    seed: u64,
    pool: Vec<Instance>,
    plans: Vec<SessionPlan>,
    cells: Vec<Cell>,
    /// Seeded visiting order of the pool.
    order: Vec<usize>,
}

/// What one session run produced, gathered from the final node states as
/// `rmt_session::SessionReport` does.
struct SessOut {
    verdicts: Vec<Option<u64>>,
    wire: Metrics,
    model_bits: u64,
    invalid_frames: u64,
    receiver: ReceiverStats,
    faults: Option<FaultStats>,
    netd: Option<Arc<NetdStats>>,
    /// When the scheduler returned.
    run_end: Instant,
}

fn collect<'o>(
    plan: &SessionPlan,
    node: impl Fn(NodeId) -> Option<&'o SessionNode>,
    wire: Metrics,
    run_end: Instant,
) -> SessOut {
    let mut out = SessOut {
        verdicts: Vec::new(),
        wire,
        model_bits: 0,
        invalid_frames: 0,
        receiver: ReceiverStats::default(),
        faults: None,
        netd: None,
        run_end,
    };
    for v in plan.graph().nodes() {
        let Some(n) = node(v) else { continue };
        out.invalid_frames += n.invalid_frames();
        out.model_bits += n.model_sent().iter().map(|&(_, b)| b).sum::<u64>();
        if v == plan.receiver() {
            out.verdicts = n.receiver_verdicts().unwrap_or_default();
            out.receiver = n.receiver_stats().unwrap_or_default();
        }
    }
    out
}

/// The link faults of the faults and adversarial workloads: delays (≤ 2
/// rounds), duplicates and reordering, no drops.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed).with_default_policy(LinkPolicy {
        drop: 0.0,
        delay: 0.1,
        max_delay: 2,
        duplicate: 0.05,
        reorder: true,
    })
}

impl Sessions {
    fn params(kind: Kind) -> (Family, usize, ViewKind, usize) {
        // (family, n, views, pool size)
        match kind {
            Kind::Stream | Kind::Faults => (Family::E2, 10, ViewKind::AdHoc, 128),
            Kind::Adversarial => (Family::E3, 8, ViewKind::Radius(2), 16),
            Kind::Netd => (Family::E2, 8, ViewKind::AdHoc, 16),
        }
    }

    fn batch(&self) -> usize {
        match self.kind {
            Kind::Stream => 64,
            Kind::Faults | Kind::Netd => 16,
            Kind::Adversarial => 1,
        }
    }

    fn setup(kind: Kind, seed: u64, mut trace: Option<&mut OpTrace>) -> Sessions {
        let (family, n, view, count) = Sessions::params(kind);
        let reg = Registry::new();
        let pool = gen::solvable_pool(gen::POOL_SEED, family, n, view, count, |inst| {
            let Some(tr) = trace.as_deref_mut() else {
                return gen::solvable(inst);
            };
            let t = Instant::now();
            let cut = find_rmt_cut_anchored_observed(inst, &reg);
            tr.sample("cuts.rmt_ns", t.elapsed().as_nanos() as u64);
            let t = Instant::now();
            black_box(KnowledgeCache::new(inst));
            tr.sample("knowledge.build_ns", t.elapsed().as_nanos() as u64);
            tr.add("cuts.decisions", 1.0);
            tr.add("cuts.no_cut", cut.is_none() as u64 as f64);
            cut.is_none()
        });
        let plans = pool
            .iter()
            .map(|inst| {
                let t = Instant::now();
                let plan = SessionPlan::build(inst);
                if let Some(tr) = trace.as_deref_mut() {
                    tr.sample("plan.build_ns", t.elapsed().as_nanos() as u64);
                }
                plan
            })
            .collect();
        if let Some(tr) = trace {
            tr.counters(&reg, CUT_COUNTERS);
        }
        let cells = if kind == Kind::Adversarial {
            gen::attack_cells(seed, &pool)
        } else {
            Vec::new()
        };
        let order = gen::permutation(seed, 0x0de7, pool.len());
        Sessions {
            kind,
            seed,
            pool,
            plans,
            cells,
            order,
        }
    }

    /// The inputs of operation `idx`: instance, payload values, and a
    /// factory for its adversary (called once per run of the operation).
    fn inputs(&self, idx: u64) -> (usize, Vec<u64>, AdversaryFactory<'_>, u64) {
        let mut rng = gen::rng_for(self.seed, 0x5e55 + self.kind as u64, idx);
        match self.kind {
            Kind::Stream | Kind::Faults => {
                let i = self.order[(idx % self.order.len() as u64) as usize];
                let corrupted =
                    gen::cycle_corruption(&self.pool[i], idx / self.order.len() as u64 + idx);
                let values = gen::payloads(self.batch(), &mut rng);
                let fault_seed: u64 = rand::Rng::random_range(&mut rng, 0..u64::MAX);
                let make = move || -> Box<dyn Adversary<SessionFrame>> {
                    Box::new(SilentAdversary::new(corrupted.clone()))
                };
                (i, values, Box::new(make), fault_seed)
            }
            Kind::Adversarial => {
                let cell = &self.cells[(idx % self.cells.len() as u64) as usize];
                let values = gen::payloads(1, &mut rng);
                let adv_seed: u64 = rand::Rng::random_range(&mut rng, 0..u64::MAX);
                let fault_seed: u64 = rand::Rng::random_range(&mut rng, 0..u64::MAX);
                let inst = &self.pool[cell.instance];
                let value = values[0];
                let make = move || -> Box<dyn Adversary<SessionFrame>> {
                    Box::new(SessionAdversary::new(vec![pka_adversary(
                        inst,
                        value,
                        cell.corrupted.clone(),
                        cell.attack,
                        adv_seed,
                    )]))
                };
                (cell.instance, values, Box::new(make), fault_seed)
            }
            Kind::Netd => {
                let i = self.order[(idx % self.order.len() as u64) as usize];
                let values = gen::payloads(self.batch(), &mut rng);
                let cfg_seed: u64 = rand::Rng::random_range(&mut rng, 0..u64::MAX);
                let make = || -> Box<dyn Adversary<SessionFrame>> {
                    Box::new(SilentAdversary::new(NodeSet::new()))
                };
                (i, values, Box::new(make), cfg_seed)
            }
        }
    }

    fn run<A: Adversary<SessionFrame>>(
        &self,
        i: usize,
        values: &[u64],
        adv: A,
        seed: u64,
    ) -> SessOut {
        let plan = &self.plans[i];
        let graph = plan.graph().clone();
        let make = |v| SessionNode::new(plan, v, values);
        match self.kind {
            Kind::Stream => {
                let out = Runner::new(graph, make, adv).run();
                let end = Instant::now();
                collect(plan, |v| out.protocol(v), out.metrics.clone(), end)
            }
            Kind::Faults | Kind::Adversarial => {
                let out = NetRunner::new(graph, make, adv, fault_plan(seed)).run();
                let end = Instant::now();
                let mut s = collect(plan, |v| out.protocol(v), out.metrics.clone(), end);
                s.faults = Some(out.faults.clone());
                s
            }
            Kind::Netd => {
                let cfg = NetdConfig {
                    seed,
                    ..NetdConfig::default()
                };
                let out = rmt_netd::run_session(graph, make, adv, &ChaosPlan::new(), cfg)
                    .expect("loopback sockets are available");
                let end = Instant::now();
                let mut s = collect(plan, |v| out.protocol(v), out.metrics.clone(), end);
                s.netd = Some(Arc::clone(&out.stats));
                s
            }
        }
    }

    fn check(&self, values: &[u64], out: &SessOut, op_ns: u64) -> OpResult {
        let mut r = OpResult {
            op_ns,
            payloads: values.len() as u64,
            wire_bits: out.wire.honest_bits,
            invalid_frames: out.invalid_frames,
            ..OpResult::default()
        };
        for (k, &x) in values.iter().enumerate() {
            match out.verdicts.get(k).copied().flatten() {
                Some(v) if v == x => r.ok += 1,
                Some(_) => r.wrong += 1,
                None => r.undecided += 1,
            }
        }
        r
    }

    fn run_op(&mut self, idx: u64, trace: Traced<'_>) -> OpResult {
        let (i, values, make_adv, seed) = self.inputs(idx);
        let t0 = Instant::now();
        let out = self.run(i, &values, make_adv(), seed);
        let base_ns = t0.elapsed().as_nanos() as u64;
        let Some((rec, tr)) = trace else {
            return self.check(&values, &out, base_ns);
        };
        let base = self.check(&values, &out, base_ns);

        // The traced twin: same inputs, a tap around the adversary.
        let log = Rc::new(RefCell::new(TapLog::default()));
        let tap = Tap {
            inner: make_adv(),
            log: Rc::clone(&log),
            watch: self.plans[i].receiver(),
        };
        let t0 = Instant::now();
        let out = self.run(i, &values, tap, seed);
        let t1 = Instant::now();
        let r = self.check(&values, &out, (t1 - t0).as_nanos() as u64);
        let log = Rc::try_unwrap(log)
            .ok()
            .expect("the run dropped its tap")
            .into_inner();
        let (prelude, round) = match self.kind {
            Kind::Stream => ("session.start", "sim.round"),
            Kind::Faults | Kind::Adversarial => ("session.start", "net.round"),
            Kind::Netd => ("netd.mesh", "netd.round"),
        };
        let op = rec.record("op", idx, None, t0, t1, false);
        if let Some(&first) = log.marks.first() {
            let s = rec.record(prelude, idx, Some(op), t0, first, false);
            tr.sample("prelude_ns", rec.spans[s].dur_ns());
            let mut ends: Vec<Instant> = log.marks[1..].to_vec();
            ends.push(out.run_end);
            let mut from = first;
            for to in ends {
                let s = rec.record(round, idx, Some(op), from, to, false);
                tr.sample("round_ns", rec.spans[s].dur_ns());
                from = to;
            }
        }
        tr.sample("op_ns", r.op_ns);
        tr.sample("base_ns", base.op_ns);
        tr.add("op.ns", r.op_ns as f64);
        tr.add("op.child_ns", rec.children_ns(op) as f64);

        // Counts, from the run's own reports.
        tr.add("ops", 1.0);
        tr.add("session.frames", out.wire.honest_messages as f64);
        tr.add("session.rounds", f64::from(out.wire.rounds));
        tr.add(
            "session.decide_cache_hits",
            out.receiver.decide_cache_hits as f64,
        );
        tr.add(
            "session.decide_cache_misses",
            out.receiver.decide_cache_misses as f64,
        );
        tr.add("session.invalid_frames", out.invalid_frames as f64);
        tr.add("wire.model_bits", out.model_bits as f64);
        tr.add("wire.frame_bits", out.wire.honest_bits as f64);
        tr.add("payloads", r.payloads as f64);
        if let Some(f) = &out.faults {
            tr.add("fault.delayed", f.delayed as f64);
            tr.add("fault.duplicated", f.duplicated as f64);
        }
        if let Some(stats) = &out.netd {
            let reg = Registry::new();
            stats.record_into(&reg);
            tr.counters(&reg, NETD_COUNTERS);
        }

        // Codec replay on every frame the run delivered.
        let frames = log.frames;
        let ta = Instant::now();
        let bytes: Vec<Vec<u8>> = frames.iter().map(WirePayload::to_bytes).collect();
        let tb = Instant::now();
        for b in &bytes {
            black_box(SessionFrame::from_bytes(b).is_ok());
        }
        let tc = Instant::now();
        for f in &frames {
            black_box(f.expand().is_ok());
        }
        let td = Instant::now();
        rec.record("codec.encode", idx, None, ta, tb, true);
        rec.record("codec.decode", idx, None, tb, tc, true);
        rec.record("codec.expand", idx, None, tc, td, true);
        tr.add("codec.frames", frames.len() as f64);
        tr.add("codec.encode_ns", (tb - ta).as_nanos() as f64);
        tr.add("codec.decode_ns", (tc - tb).as_nanos() as f64);
        tr.add("codec.expand_ns", (td - tc).as_nanos() as f64);
        for b in &bytes {
            tr.sample("codec.frame_bytes", b.len() as u64);
        }

        // Receiver-decision replay (payload slot 0).
        let reg = Registry::new();
        let claims = self.replay_decide(i, &log.watched, rec, tr, idx, &reg);
        tr.counters(&reg, &["pka.selections_examined", "pka.truncations"]);

        // The ⊕ join of the claims the receiver collected (adversarial only:
        // forged and fictitious claims are what its joins see).
        if self.kind == Kind::Adversarial && !claims.is_empty() {
            let reg = Registry::new();
            let view: JointView = claims.into_iter().collect();
            let t = Instant::now();
            black_box(view.materialize_bounded_observed(FAMILY_BOUND, &reg));
            rec.record("family.join", idx, None, t, Instant::now(), true);
            tr.counters(&reg, FAMILY_COUNTERS);
        }
        r
    }

    /// Feeds the envelopes delivered to the receiver into a fresh
    /// `ReceiverState` for payload slot 0, with the session engine's
    /// validation rules, and times every `decide_observed` call. Returns the
    /// first claim per claiming node, restricted to its claimed view.
    fn replay_decide(
        &self,
        i: usize,
        rounds: &[Vec<rmt_sim::Envelope<SessionFrame>>],
        rec: &mut Recorder,
        tr: &mut OpTrace,
        idx: u64,
        reg: &Registry,
    ) -> Vec<RestrictedStructure> {
        let plan = &self.plans[i];
        let (me, dealer) = (plan.receiver(), plan.dealer());
        let k = plan.knowledge(me);
        let cfg = *plan.decision_config();
        let mut state = ReceiverState::new(me, dealer, k.view.clone(), k.structure.clone());
        let mut claims: BTreeMap<NodeId, RestrictedStructure> = BTreeMap::new();
        let mut decided = false;
        let mut decide_ns = 0u64;
        for inbox in rounds {
            if decided {
                break;
            }
            let mut changed = false;
            for env in inbox {
                let Ok(msgs) = env.payload.expand() else {
                    continue;
                };
                for (slot, payload) in msgs {
                    let trail_ok =
                        payload.trail().last() == Some(&env.from) && !payload.trail().contains(&me);
                    if !trail_ok {
                        continue;
                    }
                    match payload {
                        PkaPayload::DealerValue { value, trail } if slot == 0 => {
                            if env.from == dealer && trail.as_slice() == [dealer] {
                                decided = true;
                            } else {
                                state.ingest_value(value, &trail);
                                changed = true;
                            }
                        }
                        PkaPayload::DealerValue { .. } => {}
                        PkaPayload::Knowledge {
                            node,
                            view,
                            structure,
                            ..
                        } => {
                            claims.entry(node).or_insert_with(|| {
                                RestrictedStructure::restrict(&structure, view.nodes().clone())
                            });
                            state.ingest_claim(node, view, structure);
                            changed = true;
                        }
                    }
                }
            }
            if changed && !decided {
                let t = Instant::now();
                decided = state.decide_observed(&cfg, reg).is_some();
                let s = rec.record("pka.decide", idx, None, t, Instant::now(), true);
                decide_ns += rec.spans[s].dur_ns();
            }
        }
        tr.sample("pka.decide_ns", decide_ns);
        claims.into_values().collect()
    }
}

const CUT_COUNTERS: &[&str] = &[
    "rmt_cut.separators_enumerated",
    "rmt_cut.components_enumerated",
    "rmt_cut.exhaustive_fallbacks",
    "zpp.separators_enumerated",
    "zpp.components_enumerated",
];

const FAMILY_COUNTERS: &[&str] = &[
    "family.joins_trie",
    "family.joins_explicit",
    "family.candidate_sets",
    "family.kept_sets",
];

const NETD_COUNTERS: &[&str] = &[
    "netd.wire.frames_sent",
    "netd.conn.dials",
    "netd.queue.shed_backpressure",
    "netd.heartbeat.sent",
];

// ---------------------------------------------------------------------------
// Churn.

struct ChurnSide {
    engine: IncrementalEngine,
    views: ViewKind,
    start_edges: usize,
}

pub struct Churn {
    seed: u64,
    sides: [ChurnSide; 2],
}

impl Churn {
    /// Heavy: ring + 5 chords, n = 20, t = 4, ad hoc views (a large threshold
    /// structure; every verdict is "cut"). Light: ring + 8 chords, n = 16,
    /// t = 1, radius-2 views (where "no cut" verdicts occur).
    fn setup(seed: u64) -> Churn {
        let side = |n: usize, chords: usize, t: usize, views: ViewKind| {
            let inst = gen::churn_instance(seed, n, chords, t, views);
            let start_edges = inst.graph().edge_count();
            let mut engine = IncrementalEngine::from_instance(&inst, views);
            black_box(engine.decide_rmt());
            black_box(engine.decide_zpp());
            ChurnSide {
                engine,
                views,
                start_edges,
            }
        };
        Churn {
            seed,
            sides: [
                side(20, 5, 4, ViewKind::AdHoc),
                side(16, 8, 1, ViewKind::Radius(2)),
            ],
        }
    }

    fn delta(&self, idx: u64) -> rmt_core::Delta {
        let s = &self.sides[churn_side(idx)];
        let inst = s.engine.instance();
        let mut rng = gen::rng_for(self.seed, 0xc4a2, idx);
        gen::edge_toggle(
            inst.graph(),
            s.start_edges,
            inst.dealer(),
            inst.receiver(),
            &mut rng,
        )
    }

    fn run_op(&mut self, idx: u64, trace: Traced<'_>) -> OpResult {
        let delta = self.delta(idx);
        let side = &mut self.sides[churn_side(idx)];
        let reg = Registry::new();
        let t0 = Instant::now();
        let (ta, tb);
        let (rmt, zpp) = if trace.is_some() {
            side.engine
                .apply_observed(delta, &reg)
                .expect("edge toggles keep the instance well-formed");
            ta = Instant::now();
            let rmt = side.engine.decide_rmt_observed(&reg);
            tb = Instant::now();
            (rmt, side.engine.decide_zpp_observed(&reg))
        } else {
            side.engine
                .apply(delta)
                .expect("edge toggles keep the instance well-formed");
            ta = t0;
            let rmt = side.engine.decide_rmt();
            tb = t0;
            (rmt, side.engine.decide_zpp())
        };
        let t1 = Instant::now();
        let mut r = OpResult {
            op_ns: (t1 - t0).as_nanos() as u64,
            payloads: 1,
            ok: 1,
            ..OpResult::default()
        };
        let mut trace = trace;
        if let Some((rec, tr)) = trace.as_mut() {
            let op = rec.record("op", idx, None, t0, t1, false);
            let a = rec.record("engine.apply", idx, Some(op), t0, ta, false);
            let b = rec.record("cuts.rmt", idx, Some(op), ta, tb, false);
            let c = rec.record("cuts.zpp", idx, Some(op), tb, t1, false);
            tr.sample("op_ns", r.op_ns);
            tr.sample("engine.apply_ns", rec.spans[a].dur_ns());
            tr.sample("cuts.rmt_ns", rec.spans[b].dur_ns());
            tr.sample("cuts.zpp_ns", rec.spans[c].dur_ns());
            tr.add("op.ns", r.op_ns as f64);
            tr.add("op.child_ns", rec.children_ns(op) as f64);
            tr.add("ops", 1.0);
            tr.add("cuts.decisions", 1.0);
            tr.add("cuts.no_cut", rmt.is_none() as u64 as f64);
            tr.counters(
                &reg,
                &[
                    "cache.invalidate.parts",
                    "cache.invalidate.domains",
                    "cache.cert_hits",
                    "cache.cert_misses",
                ],
            );
        }

        if idx.is_multiple_of(CHURN_COLD_EVERY) {
            // From scratch on the same graph: Instance::new plus both
            // anchored deciders; verdicts and witnesses must match.
            let inst = side.engine.instance();
            let (g, z) = (inst.graph().clone(), inst.adversary().clone());
            let (d, rcv) = (inst.dealer(), inst.receiver());
            let reg = Registry::new();
            let c0 = Instant::now();
            let fresh = Instance::new(g, z, side.views, d, rcv)
                .expect("edge toggles keep the instance well-formed");
            let ca = Instant::now();
            let (crmt, cb, czpp) = if trace.is_some() {
                let crmt = find_rmt_cut_anchored_observed(&fresh, &reg);
                let cb = Instant::now();
                (
                    crmt,
                    cb,
                    zpp_cut_by_enumeration_anchored_observed(&fresh, &reg),
                )
            } else {
                let crmt = find_rmt_cut_anchored(&fresh);
                (crmt, ca, zpp_cut_by_enumeration_anchored(&fresh))
            };
            let c1 = Instant::now();
            r.cold_ns = (c1 - c0).as_nanos() as u64;
            if crmt != rmt || czpp != zpp {
                r.ok = 0;
                r.wrong = 1;
            }
            if let Some((rec, tr)) = trace.as_mut() {
                let cold = rec.record("cold", idx, None, c0, c1, false);
                rec.record("cold.instance", idx, Some(cold), c0, ca, false);
                rec.record("cuts.rmt_cold", idx, Some(cold), ca, cb, false);
                rec.record("cuts.zpp_cold", idx, Some(cold), cb, c1, false);
                tr.sample("cold_ns", r.cold_ns);
                let k0 = Instant::now();
                let cache = KnowledgeCache::new(&fresh);
                let k1 = Instant::now();
                rec.record("knowledge.build", idx, None, k0, k1, true);
                tr.sample("knowledge.build_ns", (k1 - k0).as_nanos() as u64);
                if let Some(w) = &crmt {
                    let j0 = Instant::now();
                    black_box(
                        cache
                            .joint_view(&w.receiver_component)
                            .materialize_bounded_observed(FAMILY_BOUND, &reg),
                    );
                    rec.record("family.join", idx, None, j0, Instant::now(), true);
                }
                tr.add("cold.decisions", 1.0);
                tr.counters(&reg, CUT_COUNTERS);
                tr.counters(&reg, FAMILY_COUNTERS);
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(w: &Workload, n: u64) -> Vec<String> {
        match w {
            Workload::Sessions(s) => (0..n)
                .map(|idx| {
                    let (i, values, _, seed) = s.inputs(idx);
                    format!("{i} {values:?} {seed}")
                })
                .collect(),
            Workload::Churn(c) => (0..n).map(|idx| format!("{:?}", c.delta(idx))).collect(),
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_mix() {
        for name in ["stream", "adversarial", "churn"] {
            let a = Workload::setup(name, 7, None);
            let b = Workload::setup(name, 7, None);
            let c = Workload::setup(name, 8, None);
            assert_eq!(mix(&a, 12), mix(&b, 12), "{name}: same seed");
            assert_ne!(mix(&a, 12), mix(&c, 12), "{name}: other seed");
        }
    }

    #[test]
    fn adversarial_cells_cover_every_attack_and_corruption() {
        let Workload::Sessions(s) = Workload::setup("adversarial", 3, None) else {
            unreachable!()
        };
        let expected: usize = s
            .pool
            .iter()
            .map(|inst| 5 * inst.worst_case_corruptions().len().max(1))
            .sum();
        assert_eq!(s.cells.len(), expected);
    }

    #[test]
    fn churn_keeps_edge_count_within_one_of_the_start() {
        let mut w = Workload::setup("churn", 11, None);
        let Workload::Churn(c) = &mut w else {
            unreachable!()
        };
        for idx in 0..60 {
            let delta = c.delta(idx);
            let side = &mut c.sides[churn_side(idx)];
            side.engine.apply(delta).unwrap();
            let (d, r) = (
                side.engine.instance().dealer(),
                side.engine.instance().receiver(),
            );
            let edges = side.engine.instance().graph().edge_count();
            assert!(edges == side.start_edges || edges == side.start_edges + 1);
            assert!(!side.engine.instance().graph().has_edge(d, r));
        }
    }

    #[test]
    fn fast_forward_reproduces_the_churn_state() {
        let mut a = Workload::setup("churn", 5, None);
        for idx in 0..9 {
            a.run_op(idx, None);
        }
        let mut b = Workload::setup("churn", 5, None);
        b.fast_forward(9);
        assert_eq!(mix(&a, 20)[9..], mix(&b, 20)[9..]);
    }
}
