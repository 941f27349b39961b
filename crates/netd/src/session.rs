//! One RMT session over real sockets.
//!
//! A session is `rmt-sim`'s one round loop ([`Runner`]) over the `Sockets`
//! delivery policy, the way `rmt-net`'s `NetRunner` is the same loop over
//! its faulty network. The loop owns the *model*: it steps the protocols,
//! admits every send through the [`Transport`](rmt_sim::Transport) seam and
//! emits the canonical event stream. The policy owns the *mechanism*: it
//! gives each admitted message a global admission index, and every message
//! between two live node tasks is encoded by the sending task, crosses a
//! TCP socket and is decoded from the received bytes before delivery.
//! Delivery order is recovered by sorting arrivals on the admission index
//! each frame carries, which equals the tie-break order of `NetRunner` — so
//! a fault-free loopback session produces an event stream byte-identical
//! to `NetRunner` under an empty `FaultPlan` (the differential gate in
//! `tests/differential.rs` checks exactly this).
//!
//! Faults come from a [`ChaosPlan`] applied at round starts. Three kinds of
//! message loss exist, all explicit, none silent: a bounded queue sheds with
//! `Backpressure` (link up, in-flight window full) or `PeerDown` (link down,
//! queue at budget, or the retry budget exhausted), and a kill discards the
//! dead process's queued messages as `SenderCrashed`. Every loss surfaces as
//! a `FaultDrop` event and is counted. Messages queued behind a severed link
//! are *not* lost: the link replays its unacknowledged suffix on restore and
//! the session delivers them in the round after they finally arrive —
//! liveness is delayed, never silently destroyed.
//!
//! Sends to corrupted and currently-dead recipients short-circuit the
//! physical layer (the policy files them as arrivals directly): corrupted
//! nodes have no task — they exist only inside the [`Adversary`] — and a
//! dead recipient's delivery is a modelling decision (the network
//! delivered; the dead process just does not act), mirroring how the
//! deterministic schedulers treat crashed receivers. Adversarial envelopes
//! are likewise filed at the model layer.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rmt_graph::Graph;
use rmt_net::Termination;
use rmt_obs::{DropReason, NoopObserver, RunEvent, RunObserver};
use rmt_sets::{NodeId, NodeSet};
use rmt_sim::{
    default_max_rounds, Adversary, Delivery, Envelope, Metrics, Protocol, RunOutcome, Runner,
    WirePayload,
};

use crate::chaos::ChaosPlan;
use crate::link::{sink_over, Link, LinkEvent, NetdConfig, TxResult};
use crate::node::{node_task, NodeCmd, Report};
use crate::stats::NetdStats;

/// How long the coordinator waits for one round's messages to land.
const ROUND_TIMEOUT_MS: u64 = 10_000;

/// The result of one socket-backed session.
pub struct SessionOutcome<Q: Protocol> {
    /// The run's final protocol states and corrupted set.
    run: RunOutcome<Q, Wire>,
    /// Protocol-level complexity metrics, same accounting as the
    /// deterministic runners.
    pub metrics: Metrics,
    /// Whether the session quiesced or stalled.
    pub termination: Termination,
    /// Transport counters (dials, retries, sheds, retransmits, …).
    pub stats: Arc<NetdStats>,
    /// Connection-lifecycle events, kept out of the canonical stream so
    /// fault-free transcripts stay comparable across backends.
    pub diagnostics: Vec<RunEvent>,
    /// Messages destroyed by sheds (each also emitted as a `FaultDrop`).
    pub losses: u64,
    /// Human-readable diagnosis when the session stalled on the wire.
    pub stall: Option<String>,
}

impl<Q: Protocol> SessionOutcome<Q> {
    /// The decision of node `v`, if it is honest and has decided.
    pub fn decision(&self, v: NodeId) -> Option<Q::Decision> {
        self.run.decision(v)
    }

    /// The final protocol state of honest node `v`.
    pub fn protocol(&self, v: NodeId) -> Option<&Q> {
        self.run.protocol(v)
    }

    /// The corrupted set of the run.
    pub fn corrupted(&self) -> &NodeSet {
        self.run.corrupted()
    }
}

/// Runs one session without observation.
pub fn run_session<Q, A>(
    graph: Graph,
    make: impl FnMut(NodeId) -> Q,
    adversary: A,
    chaos: &ChaosPlan,
    cfg: NetdConfig,
) -> std::io::Result<SessionOutcome<Q>>
where
    Q: Protocol,
    Q::Payload: WirePayload + Send + 'static,
    A: Adversary<Q::Payload>,
{
    run_session_observed(graph, make, adversary, chaos, cfg, &mut NoopObserver)
}

/// Runs one session, streaming the canonical event stream through
/// `observer`. Connection-lifecycle events go to
/// [`SessionOutcome::diagnostics`] instead, so a fault-free observed run is
/// byte-comparable to the deterministic runners.
pub fn run_session_observed<Q, A, O>(
    graph: Graph,
    make: impl FnMut(NodeId) -> Q,
    adversary: A,
    chaos: &ChaosPlan,
    cfg: NetdConfig,
    observer: &mut O,
) -> std::io::Result<SessionOutcome<Q>>
where
    Q: Protocol,
    Q::Payload: WirePayload + Send + 'static,
    A: Adversary<Q::Payload>,
    O: RunObserver,
{
    let sockets = Sockets::connect(&graph, adversary.corrupted(), chaos, cfg)?;
    let max_rounds = sockets.max_rounds;
    let mut run = Runner::with_delivery(graph, make, adversary, sockets)
        .with_max_rounds(max_rounds)
        .run_observed(observer);
    let wire = std::mem::take(&mut run.faults);
    Ok(SessionOutcome {
        metrics: std::mem::take(&mut run.metrics),
        termination: run.termination,
        stats: wire.stats,
        diagnostics: wire.diagnostics,
        losses: wire.losses,
        stall: wire.stall,
        run,
    })
}

/// One node's transmission outcomes: `(recipient, admission, outcome)` per
/// message it was handed.
type TxReport = (NodeId, Vec<(NodeId, u64, TxResult)>);

/// What the physical layer did in one session.
#[derive(Default)]
struct Wire {
    stats: Arc<NetdStats>,
    diagnostics: Vec<RunEvent>,
    losses: u64,
    stall: Option<String>,
}

/// The socket runtime as a [`Delivery`] policy: one task per honest node,
/// one supervised link per direction of each honest–honest edge.
struct Sockets<P> {
    chaos: ChaosPlan,
    /// The session's round cap; the heal wait never runs past it.
    max_rounds: u32,
    dead: Vec<bool>,
    cmd_txs: BTreeMap<NodeId, Sender<NodeCmd<P>>>,
    tasks: Vec<JoinHandle<()>>,
    reports: Receiver<Report>,
    /// Messages that arrived (physically or virtually) and await the next
    /// round's delivery, keyed by admission index.
    arrivals: Vec<(u64, Envelope<P>)>,
    /// Queued messages still owed by some link: `admission → (from, to)`.
    outstanding: BTreeMap<u64, (NodeId, NodeId)>,
    /// Routes of admitted messages still in flight, for arrival validation.
    routes: HashMap<u64, (NodeId, NodeId)>,
    /// Admissions already arrived (defence against duplicate delivery).
    seen: HashSet<u64>,
    /// Admissions written to sockets this round; the round fence waits on
    /// them.
    expected: HashSet<u64>,
    next_admission: u64,
    round: u32,
    round_atomic: Arc<AtomicU32>,
    heal_budget: Duration,
    cfg: NetdConfig,
    wire: Wire,
}

impl<P: WirePayload + Send + 'static> Sockets<P> {
    /// Binds a listener per honest node, spawns the node tasks and their
    /// links, and waits for the full mesh before round 0 so startup latency
    /// cannot skew delivery rounds relative to the deterministic oracle. A
    /// mesh that does not form in time halts the run before round 0.
    fn connect(
        graph: &Graph,
        corrupted: &NodeSet,
        chaos: &ChaosPlan,
        cfg: NetdConfig,
    ) -> std::io::Result<Self> {
        let size = graph.nodes().last().map_or(0, |v| v.index() + 1);
        let honest: Vec<NodeId> = graph
            .nodes()
            .iter()
            .filter(|v| !corrupted.contains(*v))
            .collect();
        let wire = Wire::default();
        let round_atomic = Arc::new(AtomicU32::new(0));
        let session_id = cfg.seed ^ 0x6e65_7464; // "netd": disambiguates stray peers
        let (report_tx, report_rx) = mpsc::channel::<Report>();
        let sink = sink_over(report_tx.clone(), Report::Net);

        // Every honest node gets a listener up front so dial targets exist
        // before any task runs.
        let mut listeners: HashMap<NodeId, TcpListener> = HashMap::new();
        let mut addrs: HashMap<NodeId, SocketAddr> = HashMap::new();
        for &v in &honest {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.insert(v, l.local_addr()?);
            listeners.insert(v, l);
        }

        let mut expected_up = 0usize;
        let mut cmd_txs = BTreeMap::new();
        let mut tasks = Vec::new();
        for &v in &honest {
            let mut links: BTreeMap<NodeId, Arc<Link>> = BTreeMap::new();
            for u in graph.neighbors(v).iter() {
                if corrupted.contains(u) {
                    continue;
                }
                links.insert(
                    u,
                    Link::new(
                        v,
                        u,
                        session_id,
                        addrs[&u],
                        cfg.clone(),
                        Arc::clone(&wire.stats),
                        Arc::clone(&round_atomic),
                        Arc::clone(&sink),
                    ),
                );
                expected_up += 1;
            }
            let (tx, rx) = mpsc::channel();
            cmd_txs.insert(v, tx);
            let listener = listeners.remove(&v).expect("listener bound above");
            let reports = report_tx.clone();
            tasks.push(std::thread::spawn(move || {
                node_task(v, links, listener, session_id, rx, reports)
            }));
        }
        drop(report_tx);
        drop(sink);

        let max_rounds = cfg.max_rounds.unwrap_or_else(|| {
            let base = default_max_rounds(graph.node_count());
            if chaos.is_empty() {
                base
            } else {
                base.saturating_mul(2).saturating_add(chaos.horizon())
            }
        });
        let mut sockets = Sockets {
            chaos: chaos.clone(),
            max_rounds,
            dead: vec![false; size],
            cmd_txs,
            tasks,
            reports: report_rx,
            arrivals: Vec::new(),
            outstanding: BTreeMap::new(),
            routes: HashMap::new(),
            seen: HashSet::new(),
            expected: HashSet::new(),
            next_admission: 0,
            round: 0,
            round_atomic,
            heal_budget: Duration::from_millis(cfg.heal_wait_ms),
            cfg,
            wire,
        };

        let deadline = Instant::now() + Duration::from_millis(sockets.cfg.mesh_timeout_ms);
        let mut up = 0usize;
        while up < expected_up {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match sockets.reports.recv_timeout(timeout) {
                Ok(Report::Net(ev)) => {
                    if matches!(ev, LinkEvent::Conn(RunEvent::ConnUp { .. })) {
                        up += 1;
                    }
                    sockets.handle_net(ev, &mut NoopObserver);
                }
                Ok(_) => {}
                Err(_) => {
                    sockets.wire.stall = Some(format!(
                        "mesh formation timed out after {}ms: {up} of {expected_up} links up",
                        sockets.cfg.mesh_timeout_ms
                    ));
                    break;
                }
            }
        }
        Ok(sockets)
    }

    fn cmd(&self, v: NodeId, cmd: NodeCmd<P>) {
        if let Some(tx) = self.cmd_txs.get(&v) {
            let _ = tx.send(cmd);
        }
    }

    /// Whether `v` has a task that is not dead (corrupted nodes have none).
    fn is_live(&self, v: NodeId) -> bool {
        self.cmd_txs.contains_key(&v) && !self.dead[v.index()]
    }

    /// Absorbs one physical-layer event. Arrival validation is defensive:
    /// an admission must be in flight and not yet seen, and its frame must
    /// decode — anything else is counted and dropped, never delivered.
    fn handle_net<O: RunObserver>(&mut self, ev: LinkEvent, observer: &mut O) {
        match ev {
            LinkEvent::Received {
                from,
                to,
                admission,
                bytes,
                ..
            } => {
                if self.routes.get(&admission) != Some(&(from, to))
                    || self.seen.contains(&admission)
                {
                    self.wire.stats.decode_errors();
                    return;
                }
                match P::from_bytes(&bytes) {
                    Ok(payload) => {
                        self.seen.insert(admission);
                        self.expected.remove(&admission);
                        self.outstanding.remove(&admission);
                        self.arrivals
                            .push((admission, Envelope::new(from, to, payload)));
                    }
                    Err(_) => {
                        // A corrupt frame is a loss, not a crash.
                        self.wire.stats.decode_errors();
                        self.lose(admission, from, to, DropReason::LinkDrop, observer);
                    }
                }
            }
            LinkEvent::Shed {
                from,
                to,
                admissions,
                reason,
            } => {
                for admission in admissions {
                    self.lose(admission, from, to, reason, observer);
                }
            }
            LinkEvent::Conn(ev) => self.wire.diagnostics.push(ev),
        }
    }

    /// Books one admitted message as destroyed and emits its `FaultDrop`.
    fn lose<O: RunObserver>(
        &mut self,
        admission: u64,
        from: NodeId,
        to: NodeId,
        reason: DropReason,
        observer: &mut O,
    ) {
        self.expected.remove(&admission);
        self.outstanding.remove(&admission);
        self.routes.remove(&admission);
        self.wire.losses += 1;
        if O::ACTIVE {
            observer.on_event(&RunEvent::FaultDrop {
                round: self.round,
                from: from.raw(),
                to: to.raw(),
                reason,
            });
        }
    }

    /// Receives `want` transmission reports, handling physical-layer events
    /// inline.
    fn collect<O: RunObserver>(
        &mut self,
        want: usize,
        deadline: Instant,
        observer: &mut O,
    ) -> Result<Vec<TxReport>, String> {
        let mut got = Vec::with_capacity(want);
        while got.len() < want {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match self.reports.recv_timeout(timeout) {
                Ok(Report::TxStatus { node, results }) => got.push((node, results)),
                Ok(Report::Net(ev)) => self.handle_net(ev, observer),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "round {}: {} of {} node reports missing",
                        self.round,
                        want - got.len(),
                        want
                    ));
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("round {}: all node tasks gone", self.round));
                }
            }
        }
        got.sort_by_key(|&(node, _)| node);
        Ok(got)
    }

    /// Waits until every admission written to a socket this round has been
    /// received (or shed) on the far side.
    fn fence<O: RunObserver>(&mut self, observer: &mut O) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_millis(ROUND_TIMEOUT_MS);
        while !self.expected.is_empty() {
            let timeout = deadline.saturating_duration_since(Instant::now());
            match self.reports.recv_timeout(timeout) {
                Ok(Report::Net(ev)) => self.handle_net(ev, observer),
                Ok(_) => {} // no transmission reports are pending during a fence
                Err(RecvTimeoutError::Timeout) => return Err(self.stall_diagnosis()),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("round {}: all node tasks gone", self.round))
                }
            }
        }
        Ok(())
    }

    /// Paces the round loop against physical healing: while messages sit
    /// queued behind down links (`outstanding`), nothing has arrived, and
    /// the chaos schedule is exhausted, logical rounds are free to burn at
    /// CPU speed — far faster than a reconnect's backoff can complete. So
    /// the session waits here, draining physical-layer events, until a
    /// replay lands, the queue sheds, or the session-wide budget runs out.
    fn await_healing<O: RunObserver>(&mut self, observer: &mut O) {
        while !self.heal_budget.is_zero()
            && self.arrivals.is_empty()
            && !self.outstanding.is_empty()
        {
            let slice = self.heal_budget.min(Duration::from_millis(20));
            let start = Instant::now();
            match self.reports.recv_timeout(slice) {
                Ok(Report::Net(ev)) => self.handle_net(ev, observer),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.heal_budget = self.heal_budget.saturating_sub(start.elapsed());
        }
    }

    fn stall_diagnosis(&self) -> String {
        let mut missing: Vec<String> = self
            .expected
            .iter()
            .map(|adm| match self.routes.get(adm) {
                Some((from, to)) => format!("#{adm} v{} -> v{}", from.raw(), to.raw()),
                None => format!("#{adm} (route unknown)"),
            })
            .collect();
        missing.sort();
        format!(
            "round {} fence timed out after {}ms: {} message(s) written but never received [{}]; \
             {} queued behind down links",
            self.round,
            ROUND_TIMEOUT_MS,
            missing.len(),
            missing.join(", "),
            self.outstanding.len(),
        )
    }
}

impl<P: WirePayload + Send + 'static> Delivery<P> for Sockets<P> {
    type Stats = Wire;

    /// A killed node keeps its protocol state in the loop and resumes on
    /// restart: kill models a supervised process restart, not a fresh join.
    fn crashed(&self, v: NodeId, _round: u32) -> bool {
        self.dead[v.index()]
    }

    /// Applies the chaos plan's round-`round` entries: crash events first
    /// (ascending, matching `NetRunner`), then the physical commands.
    fn start_round<O: RunObserver>(&mut self, round: u32, observer: &mut O) {
        self.round = round;
        self.round_atomic.store(round, Ordering::Relaxed);
        for v in self.chaos.kills_at(round) {
            if !self.is_live(v) {
                continue;
            }
            if O::ACTIVE {
                observer.on_event(&RunEvent::NodeCrashed {
                    round,
                    node: v.raw(),
                });
            }
            self.dead[v.index()] = true;
            self.cmd(v, NodeCmd::Kill);
        }
        for v in self.chaos.restarts_at(round) {
            if !self.cmd_txs.contains_key(&v) || !self.dead[v.index()] {
                continue;
            }
            self.dead[v.index()] = false;
            self.cmd(v, NodeCmd::Restart);
            // Only `v`'s neighbours hold a link to it; the rest ignore this.
            for &u in self.cmd_txs.keys() {
                self.cmd(u, NodeCmd::Revive(v));
            }
        }
        for w in self.chaos.severs() {
            if w.from_round == round {
                self.cmd(w.a, NodeCmd::Sever(w.b));
                self.cmd(w.b, NodeCmd::Sever(w.a));
            }
            if round > 0 && w.to_round == round - 1 {
                self.cmd(w.a, NodeCmd::Restore(w.b));
                self.cmd(w.b, NodeCmd::Restore(w.a));
            }
        }
    }

    /// Numbers the round's admissions, transmits every message between two
    /// live tasks and files the rest as arrivals, then waits on the round
    /// fence. A timeout halts the run with its diagnosis.
    fn send<O: RunObserver>(&mut self, round: u32, outbox: Vec<Envelope<P>>, observer: &mut O) {
        let deadline = Instant::now() + Duration::from_millis(ROUND_TIMEOUT_MS);
        // Every live task gets a `Transmit`, empty or not, and must report
        // back: the round thus waits until each task has applied the
        // round's chaos commands, and replays that land meanwhile join this
        // round's arrivals instead of each getting a round of its own.
        let mut transmit: BTreeMap<NodeId, Vec<(NodeId, u64, P)>> = self
            .cmd_txs
            .keys()
            .filter(|&&v| self.is_live(v))
            .map(|&v| (v, Vec::new()))
            .collect();
        for env in outbox {
            let adm = self.next_admission;
            self.next_admission += 1;
            self.routes.insert(adm, (env.from, env.to));
            match transmit.get_mut(&env.from) {
                Some(items) if self.is_live(env.to) => {
                    self.outstanding.insert(adm, (env.from, env.to));
                    items.push((env.to, adm, env.payload));
                }
                _ => self.arrivals.push((adm, env)),
            }
        }
        let live = transmit.len();
        for (v, items) in transmit {
            self.cmd(v, NodeCmd::Transmit { round, items });
        }
        let outcome = self.collect(live, deadline, observer).and_then(|reports| {
            for (v, results) in reports {
                for (to, adm, result) in results {
                    match result {
                        TxResult::Sent => {
                            self.outstanding.remove(&adm);
                            if !self.seen.contains(&adm) {
                                self.expected.insert(adm);
                            }
                        }
                        TxResult::Queued => {} // stays in `outstanding`
                        TxResult::Shed(reason) => self.lose(adm, v, to, reason, observer),
                    }
                }
            }
            self.fence(observer)
        });
        if let Err(stall) = outcome {
            self.wire.stall = Some(stall);
        }
    }

    /// Everything that arrived before `round`, in admission order (the
    /// deterministic runners' tie-break order).
    fn due(&mut self, _round: u32) -> Vec<Envelope<P>> {
        self.arrivals.sort_by_key(|&(adm, _)| adm);
        let due = std::mem::take(&mut self.arrivals);
        due.into_iter()
            .map(|(adm, env)| {
                self.routes.remove(&adm);
                env
            })
            .collect()
    }

    fn is_idle<O: RunObserver>(&mut self, round: u32, observer: &mut O) -> bool {
        if self.arrivals.is_empty()
            && round <= self.max_rounds
            && !self.chaos.has_event_at_or_after(round)
        {
            self.await_healing(observer);
        }
        self.arrivals.is_empty() && self.outstanding.is_empty()
    }

    fn halted(&self) -> bool {
        self.wire.stall.is_some()
    }

    fn lost(&self) -> u64 {
        self.wire.losses
    }

    /// Stops and joins every task, draining the remaining physical-layer
    /// events into the diagnostics.
    fn into_stats(mut self) -> Wire {
        for tx in self.cmd_txs.values() {
            let _ = tx.send(NodeCmd::Shutdown);
        }
        self.cmd_txs.clear();
        while let Ok(report) = self.reports.try_recv() {
            if let Report::Net(LinkEvent::Conn(ev)) = report {
                self.wire.diagnostics.push(ev);
            }
        }
        for task in self.tasks.drain(..) {
            let _ = task.join();
        }
        self.wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::generators;
    use rmt_obs::VecObserver;
    use rmt_sim::testing::Flood;
    use rmt_sim::SilentAdversary;

    /// A mesh that cannot form in time halts the run before round 0: the
    /// session stalls with the mesh diagnosis and plays no round.
    #[test]
    fn mesh_timeout_stalls_before_round_zero() {
        let mut obs = VecObserver::new();
        let out = run_session_observed(
            generators::cycle(4),
            |v| Flood::new(v, (v.index() == 0).then_some(5)),
            SilentAdversary::new(NodeSet::new()),
            &ChaosPlan::new(),
            NetdConfig {
                mesh_timeout_ms: 0,
                ..NetdConfig::default()
            },
            &mut obs,
        )
        .expect("session io");
        let stall = out.stall.expect("eight links cannot come up in 0 ms");
        assert!(
            stall.starts_with("mesh formation timed out after 0ms: "),
            "{stall}"
        );
        assert_eq!(out.termination, Termination::Stalled { round: 0 });
        assert_eq!(out.metrics, Metrics::default());
        assert!(!obs
            .events
            .iter()
            .any(|e| matches!(e, RunEvent::RoundStart { .. })));
        assert_eq!(obs.events.last(), Some(&RunEvent::RunEnd { rounds: 0 }));
    }
}
