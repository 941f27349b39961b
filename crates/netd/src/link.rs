//! One supervised TCP link between two protocol nodes.
//!
//! Each undirected protocol edge `{u, v}` becomes exactly one TCP
//! connection, dialed by the smaller endpoint and accepted by the larger;
//! both endpoints hold a [`Link`] describing *their* outgoing direction.
//! A link owns three concerns:
//!
//! - **Supervision.** A writer/supervisor thread per link keeps the
//!   connection alive: the dialer side reconnects with jittered exponential
//!   backoff up to a retry budget, the acceptor side waits passively and
//!   declares the peer dead after an equivalent grace period. Lifecycle
//!   transitions surface as `ConnUp` / `ConnDown` / `ConnRetry` events on
//!   the diagnostics stream.
//! - **Bounded egress.** Sends while the link is down queue up to
//!   `queue_budget` messages, then shed with `DropReason::PeerDown`; sends
//!   while the link is up are bounded by the unacknowledged in-flight
//!   window — a full window *blocks* the sender (classic backpressure) up
//!   to `backpressure_wait_ms`, and only a window that never drains sheds
//!   with `DropReason::Backpressure`. No buffer in this module grows
//!   without bound.
//! - **Exactly-once delivery across reconnects.** Every message frame
//!   carries a per-direction sequence number; receivers acknowledge
//!   cumulatively and deduplicate, senders keep an unacked suffix and
//!   replay it after the `Hello{expect_seq}` exchange of a reconnect. A
//!   severed-then-restored link therefore loses nothing; only a kill (which
//!   discards the dead process's buffers) loses messages, and those are
//!   reported as shed rather than silently dropped.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rmt_obs::{DropReason, RunEvent};
use rmt_sets::NodeId;

use crate::frame::Frame;
use crate::stats::NetdStats;

/// Reconnect attempts before a dialer declares the peer dead.
const RETRY_LIMIT: u32 = 8;
/// First-retry backoff in milliseconds; doubles per attempt.
const BACKOFF_BASE_MS: u64 = 5;
/// Ceiling on a single backoff interval in milliseconds.
const BACKOFF_CAP_MS: u64 = 100;
/// Idle interval after which a heartbeat probe is sent.
const HEARTBEAT_PERIOD_MS: u64 = 100;
/// Inbound silence after which the connection is presumed dead.
const HEARTBEAT_TIMEOUT_MS: u64 = 2_000;

/// Transport knobs for every link of a session.
#[derive(Clone, Debug)]
pub struct NetdConfig {
    /// Bound on each link's egress queue (down) and in-flight window (up).
    pub queue_budget: usize,
    /// How long a send blocks on a full in-flight window before shedding
    /// with `Backpressure`.
    pub backpressure_wait_ms: u64,
    /// Session-wide budget for pacing rounds against physical healing:
    /// when traffic sits queued behind reconnecting links and no further
    /// chaos is scheduled, the round loop waits (against this budget) for
    /// the replay to arrive instead of burning logical rounds faster than
    /// wall-clock recovery can possibly complete.
    pub heal_wait_ms: u64,
    /// How long the coordinator waits for the initial full mesh.
    pub mesh_timeout_ms: u64,
    /// Round-cap override; defaults to the deterministic runners' cap plus
    /// the chaos horizon.
    pub max_rounds: Option<u32>,
    /// Seed for deterministic backoff jitter.
    pub seed: u64,
}

impl Default for NetdConfig {
    fn default() -> Self {
        NetdConfig {
            queue_budget: 64,
            backpressure_wait_ms: 2_000,
            heal_wait_ms: 2_000,
            mesh_timeout_ms: 10_000,
            max_rounds: None,
            seed: 0,
        }
    }
}

/// Outcome of handing one message to a link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxResult {
    /// Written to the socket; the coordinator should expect its arrival.
    Sent,
    /// Queued behind a down link; it will be (re)transmitted on reconnect.
    Queued,
    /// Shed by a bounded queue; it will never arrive.
    Shed(DropReason),
}

/// What the physical layer tells the coordinator, free of payload types.
#[derive(Debug)]
pub enum LinkEvent {
    /// A message frame arrived (deduplicated) and carries these raw bytes.
    Received {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Round the sender stamped on the frame.
        round: u32,
        /// Coordinator-assigned admission index.
        admission: u64,
        /// Encoded payload, exactly as sent.
        bytes: Vec<u8>,
    },
    /// Previously queued messages were dropped by a bounded queue.
    Shed {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Admission indices of the dropped messages.
        admissions: Vec<u64>,
        /// Why they were dropped.
        reason: DropReason,
    },
    /// A connection-lifecycle event for the diagnostics stream.
    Conn(RunEvent),
}

/// Shared sink for [`LinkEvent`]s. The `Mutex` makes the non-`Sync`
/// `mpsc::Sender` shareable across a link's threads.
pub type LinkSink = Arc<dyn Fn(LinkEvent) + Send + Sync>;

/// Builds a [`LinkSink`] over an `mpsc` sender.
pub fn sink_over<T: Send + 'static>(
    tx: Sender<T>,
    wrap: impl Fn(LinkEvent) -> T + Send + Sync + 'static,
) -> LinkSink {
    let tx = Mutex::new(tx);
    Arc::new(move |ev| {
        if let Ok(tx) = tx.lock() {
            let _ = tx.send(wrap(ev));
        }
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum LinkState {
    /// Not yet connected (or told to reconnect); the dialer is working on it.
    Connecting,
    /// Connection lost; the dialer retries, the acceptor waits.
    Down,
    /// Socket established, handshake done.
    Up,
    /// Retry budget exhausted; sheds everything until revived.
    GaveUp,
}

struct Inner {
    state: LinkState,
    /// Write half of the current connection (the reader holds its own clone).
    stream: Option<TcpStream>,
    /// Bumped per established connection so stale readers can tell they
    /// lost the race against a reconnect.
    epoch: u64,
    /// Messages awaiting a connection, bounded by `queue_budget`.
    pending: VecDeque<(u64, Frame)>,
    /// Sent but unacknowledged messages, bounded by `queue_budget`; replayed
    /// after a reconnect.
    unacked: VecDeque<(u64, u64, Frame)>,
    /// Last sequence number assigned to an outgoing message.
    next_seq: u64,
    /// Highest inbound sequence number processed (cumulative-ack floor).
    last_recv: u64,
    /// Reconnect attempts since the link last came up.
    attempt: u32,
    /// Last time any frame arrived on the current connection.
    last_inbound: Instant,
    /// Since when the link has been down (acceptor-side give-up timer).
    down_since: Instant,
    /// Heartbeat nonce generator.
    hb_nonce: u64,
    /// The local node is killed: no dialing, no accepting, shed everything.
    local_dead: bool,
    /// The link is severed by the chaos plan: no dialing, no accepting.
    severed: bool,
    /// Session teardown: all threads exit.
    shutdown: bool,
}

/// One direction of a supervised connection (see module docs).
pub struct Link {
    /// Local endpoint.
    pub me: NodeId,
    /// Remote endpoint.
    pub peer: NodeId,
    /// Whether this side dials (`me < peer`) or accepts.
    pub dialer: bool,
    session: u64,
    peer_addr: SocketAddr,
    cfg: NetdConfig,
    stats: Arc<NetdStats>,
    round: Arc<AtomicU32>,
    sink: LinkSink,
    inner: Mutex<Inner>,
    cond: Condvar,
}

impl Link {
    /// Creates the link in `Connecting` state. `spawn_writer` must be called
    /// on the returned `Arc` to start supervision.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        me: NodeId,
        peer: NodeId,
        session: u64,
        peer_addr: SocketAddr,
        cfg: NetdConfig,
        stats: Arc<NetdStats>,
        round: Arc<AtomicU32>,
        sink: LinkSink,
    ) -> Arc<Link> {
        let now = Instant::now();
        Arc::new(Link {
            me,
            peer,
            dialer: me < peer,
            session,
            peer_addr,
            cfg,
            stats,
            round,
            sink,
            inner: Mutex::new(Inner {
                state: LinkState::Connecting,
                stream: None,
                epoch: 0,
                pending: VecDeque::new(),
                unacked: VecDeque::new(),
                next_seq: 0,
                last_recv: 0,
                attempt: 0,
                last_inbound: now,
                down_since: now,
                hb_nonce: 0,
                local_dead: false,
                severed: false,
                shutdown: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Starts the writer/supervisor thread.
    pub fn spawn_writer(self: &Arc<Link>) -> JoinHandle<()> {
        let link = Arc::clone(self);
        std::thread::spawn(move || writer_loop(link))
    }

    fn emit_conn(&self, ev: RunEvent) {
        (self.sink)(LinkEvent::Conn(ev));
    }

    fn current_round(&self) -> u32 {
        self.round.load(Ordering::Relaxed)
    }

    /// Hands one message to the link. `admission` is the coordinator's
    /// global admission index; it rides in the frame so the receiver can
    /// reconstruct the deterministic delivery order.
    pub fn send_msg(&self, round: u32, admission: u64, payload: Vec<u8>) -> TxResult {
        let mut g = self.inner.lock().expect("link poisoned");
        if g.shutdown {
            return TxResult::Shed(DropReason::PeerDown);
        }
        g.next_seq += 1;
        let seq = g.next_seq;
        let frame = Frame::Msg {
            round,
            seq,
            admission,
            payload,
        };
        if g.state == LinkState::Up && !g.severed && !g.local_dead {
            // Backpressure: a full in-flight window blocks the sender until
            // acks drain it (the reader notifies the condvar) or the wait
            // budget runs out. Shedding on a healthy link is the last
            // resort, not the first response.
            let deadline = Instant::now() + Duration::from_millis(self.cfg.backpressure_wait_ms);
            while g.state == LinkState::Up
                && !g.severed
                && !g.local_dead
                && !g.shutdown
                && g.unacked.len() >= self.cfg.queue_budget
            {
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    self.stats.shed_backpressure();
                    return TxResult::Shed(DropReason::Backpressure);
                }
                let (g2, _) = self.cond.wait_timeout(g, timeout).expect("link poisoned");
                g = g2;
            }
            if g.shutdown {
                return TxResult::Shed(DropReason::PeerDown);
            }
        }
        if g.state == LinkState::Up && !g.severed && !g.local_dead {
            match write_frame(&mut g, &frame) {
                Ok(()) => {
                    self.stats.frames_sent();
                    g.unacked.push_back((seq, admission, frame));
                    return TxResult::Sent;
                }
                Err(e) => self.mark_down(&mut g, &format!("write failed: {e}")),
            }
        }
        // Link is down (or just went down): queue within budget.
        if g.state == LinkState::GaveUp {
            self.stats.shed_peer_down();
            return TxResult::Shed(DropReason::PeerDown);
        }
        if g.pending.len() + g.unacked.len() >= self.cfg.queue_budget {
            self.stats.shed_peer_down();
            return TxResult::Shed(DropReason::PeerDown);
        }
        g.pending.push_back((admission, frame));
        self.cond.notify_all();
        TxResult::Queued
    }

    /// Marks the connection lost and wakes the supervisor. Emits `ConnDown`.
    fn mark_down(&self, g: &mut MutexGuard<'_, Inner>, reason: &str) {
        if g.state != LinkState::Up {
            return;
        }
        if let Some(s) = g.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        g.state = LinkState::Down;
        g.attempt = 0;
        g.down_since = Instant::now();
        self.emit_conn(RunEvent::ConnDown {
            round: self.current_round(),
            from: self.me.raw(),
            to: self.peer.raw(),
            reason: reason.to_string(),
        });
        self.cond.notify_all();
    }

    /// Chaos: the local node dies. Streams close, queued messages are
    /// returned (the caller reports them shed), supervision pauses.
    pub fn kill_local(&self) -> Vec<u64> {
        let mut g = self.inner.lock().expect("link poisoned");
        g.local_dead = true;
        if let Some(s) = g.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        if g.state == LinkState::Up {
            g.state = LinkState::Down;
            self.emit_conn(RunEvent::ConnDown {
                round: self.current_round(),
                from: self.me.raw(),
                to: self.peer.raw(),
                reason: "local node killed".to_string(),
            });
        }
        g.attempt = 0;
        g.down_since = Instant::now();
        // A killed process loses both its untransmitted queue and its
        // retransmit buffer.
        let dropped: Vec<u64> = g.pending.drain(..).map(|(adm, _)| adm).collect();
        g.unacked.clear();
        self.cond.notify_all();
        dropped
    }

    /// Chaos: the local node comes back. Supervision resumes; protocol
    /// state and sequence numbers survived in-process.
    pub fn restart_local(&self) {
        let mut g = self.inner.lock().expect("link poisoned");
        g.local_dead = false;
        if g.state != LinkState::Up {
            g.state = LinkState::Connecting;
            g.attempt = 0;
            g.down_since = Instant::now();
        }
        self.cond.notify_all();
    }

    /// Chaos: the link is cut. Queued messages survive for the restore.
    pub fn sever(&self) {
        let mut g = self.inner.lock().expect("link poisoned");
        g.severed = true;
        self.mark_down(&mut g, "severed");
        self.cond.notify_all();
    }

    /// Chaos: the cut heals; the dialer reconnects and replays.
    pub fn restore(&self) {
        let mut g = self.inner.lock().expect("link poisoned");
        g.severed = false;
        if g.state != LinkState::Up {
            g.state = LinkState::Connecting;
            g.attempt = 0;
            g.down_since = Instant::now();
        }
        self.cond.notify_all();
    }

    /// The peer was restarted: forgive a `GaveUp` verdict and try again.
    pub fn revive(&self) {
        let mut g = self.inner.lock().expect("link poisoned");
        if g.state != LinkState::Up {
            g.state = LinkState::Connecting;
            g.attempt = 0;
            g.down_since = Instant::now();
        }
        self.cond.notify_all();
    }

    /// Session teardown: close the socket and stop every thread.
    pub fn close(&self) {
        let mut g = self.inner.lock().expect("link poisoned");
        g.shutdown = true;
        if let Some(s) = g.stream.take() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.cond.notify_all();
    }

    /// `true` while the connection is established.
    pub fn is_up(&self) -> bool {
        self.inner.lock().expect("link poisoned").state == LinkState::Up
    }

    /// Validates an inbound `Hello` against this link (acceptor side) and,
    /// if acceptable, answers it and installs the connection. Returns
    /// `false` when the connection must be refused (dead, severed, wrong
    /// direction, torn down).
    pub fn accept(self: &Arc<Link>, mut stream: TcpStream, peer_expect: u64) -> bool {
        if self.dialer {
            return false;
        }
        let reply = {
            let g = self.inner.lock().expect("link poisoned");
            if g.shutdown || g.local_dead || g.severed {
                return false;
            }
            Frame::Hello {
                session: self.session,
                from: self.me.raw(),
                to: self.peer.raw(),
                expect_seq: g.last_recv + 1,
            }
        };
        if reply.write_to(&mut stream).is_err() {
            return false;
        }
        install(self, stream, peer_expect)
    }
}

/// Writes `frame` to the current stream, if any.
fn write_frame(g: &mut MutexGuard<'_, Inner>, frame: &Frame) -> std::io::Result<()> {
    match g.stream.as_mut() {
        Some(s) => {
            s.write_all(&frame.to_bytes())?;
            s.flush()
        }
        None => Err(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "link has no stream",
        )),
    }
}

/// SplitMix64: cheap, deterministic per-(link, attempt) jitter.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Backoff before retry `attempt` (1-based): exponential with a cap,
/// jittered into `[50%, 150%)` deterministically from the seed.
fn backoff_ms(cfg: &NetdConfig, me: NodeId, peer: NodeId, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(16);
    let raw = BACKOFF_BASE_MS
        .saturating_mul(1u64 << shift)
        .min(BACKOFF_CAP_MS);
    let key =
        cfg.seed ^ (u64::from(me.raw()) << 40) ^ (u64::from(peer.raw()) << 20) ^ u64::from(attempt);
    let jitter = splitmix(key) % 1_000; // 0..1000 → 50%..150%
    raw.saturating_mul(500 + jitter) / 1_000
}

enum Action {
    Exit,
    Dial { attempt: u32 },
    GiveUp,
}

/// The supervisor: dials (dialer side), times out a silent peer, sends
/// heartbeats, flushes the pending queue, declares `GaveUp`.
fn writer_loop(link: Arc<Link>) {
    let period = Duration::from_millis(HEARTBEAT_PERIOD_MS);
    let hb_timeout = Duration::from_millis(HEARTBEAT_TIMEOUT_MS);
    // The acceptor side has no retry schedule; it waits as long as the
    // dialer's whole schedule could take before giving up.
    let accept_grace =
        Duration::from_millis((u64::from(RETRY_LIMIT) + 1) * BACKOFF_CAP_MS + HEARTBEAT_TIMEOUT_MS);
    loop {
        let action = {
            let mut g = link.inner.lock().expect("link poisoned");
            loop {
                if g.shutdown {
                    break Action::Exit;
                }
                if g.local_dead || g.severed || g.state == LinkState::GaveUp {
                    g = link.cond.wait(g).expect("link poisoned");
                    continue;
                }
                match g.state {
                    LinkState::Up => {
                        // Heartbeat bookkeeping; message writes happen
                        // directly in `send_msg`/`install`.
                        let (g2, timeout) =
                            link.cond.wait_timeout(g, period).expect("link poisoned");
                        g = g2;
                        if !timeout.timed_out() || g.state != LinkState::Up || g.shutdown {
                            continue;
                        }
                        if g.last_inbound.elapsed() > hb_timeout {
                            link.stats.heartbeats_missed();
                            link.mark_down(&mut g, "heartbeat timeout");
                            continue;
                        }
                        g.hb_nonce += 1;
                        let hb = Frame::Heartbeat { nonce: g.hb_nonce };
                        if let Err(e) = write_frame(&mut g, &hb) {
                            link.mark_down(&mut g, &format!("heartbeat write failed: {e}"));
                        } else {
                            link.stats.heartbeats_sent();
                        }
                        continue;
                    }
                    LinkState::Connecting | LinkState::Down if link.dialer => {
                        if g.attempt > RETRY_LIMIT {
                            break Action::GiveUp;
                        }
                        break Action::Dial { attempt: g.attempt };
                    }
                    LinkState::Connecting | LinkState::Down => {
                        if g.down_since.elapsed() > accept_grace {
                            break Action::GiveUp;
                        }
                        let (g2, _) = link
                            .cond
                            .wait_timeout(g, Duration::from_millis(20))
                            .expect("link poisoned");
                        g = g2;
                        continue;
                    }
                    LinkState::GaveUp => unreachable!("handled above"),
                }
            }
        };
        match action {
            Action::Exit => return,
            Action::Dial { attempt } => do_dial(&link, attempt),
            Action::GiveUp => do_give_up(&link),
        }
    }
}

/// One dial attempt, including its backoff sleep and handshake.
fn do_dial(link: &Arc<Link>, attempt: u32) {
    if attempt > 0 {
        let wait = backoff_ms(&link.cfg, link.me, link.peer, attempt);
        link.stats.retries();
        link.emit_conn(RunEvent::ConnRetry {
            round: link.current_round(),
            from: link.me.raw(),
            to: link.peer.raw(),
            attempt,
            backoff_ms: wait,
        });
        // Sleep on the condvar so kill/sever/shutdown interrupt the wait.
        let g = link.inner.lock().expect("link poisoned");
        let (g, _) = link
            .cond
            .wait_timeout(g, Duration::from_millis(wait))
            .expect("link poisoned");
        if g.shutdown || g.local_dead || g.severed || g.state == LinkState::Up {
            return;
        }
        drop(g);
    }
    link.stats.dials();
    let dialed = TcpStream::connect_timeout(&link.peer_addr, Duration::from_millis(1_000))
        .and_then(|mut stream| {
            stream.set_read_timeout(Some(Duration::from_millis(1_000)))?;
            let expect_seq = link.inner.lock().expect("link poisoned").last_recv + 1;
            Frame::Hello {
                session: link.session,
                from: link.me.raw(),
                to: link.peer.raw(),
                expect_seq,
            }
            .write_to(&mut stream)?;
            match Frame::read_from(&mut stream)? {
                Frame::Hello {
                    session,
                    from,
                    to,
                    expect_seq,
                } if session == link.session && from == link.peer.raw() && to == link.me.raw() => {
                    Ok((stream, expect_seq))
                }
                other => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("unexpected handshake reply: {other:?}"),
                )),
            }
        });
    match dialed {
        Ok((stream, peer_expect)) => {
            if !install(link, stream, peer_expect) {
                let mut g = link.inner.lock().expect("link poisoned");
                g.attempt += 1;
            }
        }
        Err(_) => {
            let mut g = link.inner.lock().expect("link poisoned");
            if g.state != LinkState::Up {
                g.attempt += 1;
            }
        }
    }
}

/// Installs an established, handshaken connection: trims the retransmit
/// buffer to what the peer still expects, replays the rest, flushes the
/// pending queue, and spawns the reader. Shared by dialer and acceptor.
fn install(link: &Arc<Link>, stream: TcpStream, peer_expect: u64) -> bool {
    let _ = stream.set_read_timeout(None);
    let _ = stream.set_nodelay(true);
    let reader_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut g = link.inner.lock().expect("link poisoned");
    if g.shutdown || g.local_dead || g.severed {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    if g.state == LinkState::Up {
        // A reconnect raced an existing connection; keep the old one.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    g.epoch += 1;
    let epoch = g.epoch;
    let attempt = g.attempt;
    g.state = LinkState::Up;
    g.stream = Some(stream);
    g.attempt = 0;
    g.last_inbound = Instant::now();
    if epoch > 1 {
        link.stats.reconnects();
    }
    // Drop what the peer already processed, replay the rest in order.
    while g
        .unacked
        .front()
        .is_some_and(|&(seq, _, _)| seq < peer_expect)
    {
        g.unacked.pop_front();
    }
    let replay: Vec<Frame> = g.unacked.iter().map(|(_, _, f)| f.clone()).collect();
    for frame in replay {
        if let Err(e) = write_frame(&mut g, &frame) {
            link.mark_down(&mut g, &format!("replay failed: {e}"));
            return false;
        }
        link.stats.retransmits();
    }
    // Flush everything queued while down; each flushed frame becomes
    // in-flight (unacked), still within the shared budget.
    while let Some((admission, frame)) = g.pending.pop_front() {
        if let Err(e) = write_frame(&mut g, &frame) {
            g.pending.push_front((admission, frame));
            link.mark_down(&mut g, &format!("flush failed: {e}"));
            return false;
        }
        link.stats.frames_sent();
        if let Frame::Msg { seq, .. } = frame {
            g.unacked.push_back((seq, admission, frame));
        }
    }
    link.emit_conn(RunEvent::ConnUp {
        round: link.current_round(),
        from: link.me.raw(),
        to: link.peer.raw(),
        attempt,
    });
    self_notify(link, &mut g);
    drop(g);
    let link = Arc::clone(link);
    std::thread::spawn(move || reader_loop(link, reader_half, epoch));
    true
}

fn self_notify(link: &Arc<Link>, _g: &mut MutexGuard<'_, Inner>) {
    link.cond.notify_all();
}

/// Exhausted retries (dialer) or grace (acceptor): shed the queue and go
/// quiet until revived.
fn do_give_up(link: &Arc<Link>) {
    let dropped: Vec<u64> = {
        let mut g = link.inner.lock().expect("link poisoned");
        if g.state == LinkState::Up || g.state == LinkState::GaveUp {
            return;
        }
        g.state = LinkState::GaveUp;
        g.pending.drain(..).map(|(adm, _)| adm).collect()
    };
    link.stats.gave_up();
    link.emit_conn(RunEvent::ConnDown {
        round: link.current_round(),
        from: link.me.raw(),
        to: link.peer.raw(),
        reason: "gave up after retry budget".to_string(),
    });
    if !dropped.is_empty() {
        for _ in &dropped {
            link.stats.shed_peer_down();
        }
        (link.sink)(LinkEvent::Shed {
            from: link.me,
            to: link.peer,
            admissions: dropped,
            reason: DropReason::PeerDown,
        });
    }
}

/// Reads frames off one established connection until it dies. Exactly one
/// reader exists per connection epoch; a stale reader (its epoch lost to a
/// reconnect) exits without touching link state.
fn reader_loop(link: Arc<Link>, mut stream: TcpStream, epoch: u64) {
    let reason = loop {
        match Frame::read_from(&mut stream) {
            Ok(Frame::Msg {
                round,
                seq,
                admission,
                payload,
            }) => {
                link.stats.frames_received();
                let fresh = {
                    let mut g = link.inner.lock().expect("link poisoned");
                    if g.epoch != epoch {
                        return; // a reconnect superseded this connection
                    }
                    g.last_inbound = Instant::now();
                    if seq <= g.last_recv {
                        false // duplicate from a replay
                    } else {
                        g.last_recv = seq;
                        let ack = Frame::Ack { cum_seq: seq };
                        let _ = write_frame(&mut g, &ack);
                        true
                    }
                };
                if fresh {
                    (link.sink)(LinkEvent::Received {
                        from: link.peer,
                        to: link.me,
                        round,
                        admission,
                        bytes: payload,
                    });
                }
            }
            Ok(Frame::Ack { cum_seq }) => {
                let mut g = link.inner.lock().expect("link poisoned");
                if g.epoch != epoch {
                    return;
                }
                g.last_inbound = Instant::now();
                while g.unacked.front().is_some_and(|&(seq, _, _)| seq <= cum_seq) {
                    g.unacked.pop_front();
                }
                self_notify(&link, &mut g);
            }
            Ok(Frame::Heartbeat { nonce }) => {
                let mut g = link.inner.lock().expect("link poisoned");
                if g.epoch != epoch {
                    return;
                }
                g.last_inbound = Instant::now();
                let _ = write_frame(&mut g, &Frame::HeartbeatAck { nonce });
            }
            Ok(Frame::HeartbeatAck { .. }) | Ok(Frame::Hello { .. }) => {
                let mut g = link.inner.lock().expect("link poisoned");
                if g.epoch != epoch {
                    return;
                }
                g.last_inbound = Instant::now();
            }
            Ok(Frame::Bye) => break "peer said goodbye".to_string(),
            Err(e) => break format!("read failed: {e}"),
        }
    };
    let mut g = link.inner.lock().expect("link poisoned");
    if g.epoch == epoch {
        link.mark_down(&mut g, &reason);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    fn test_cfg() -> NetdConfig {
        NetdConfig {
            queue_budget: 2,
            backpressure_wait_ms: 50,
            ..NetdConfig::default()
        }
    }

    fn make_link(
        me: u32,
        peer: u32,
        addr: SocketAddr,
        cfg: NetdConfig,
    ) -> (Arc<Link>, mpsc::Receiver<LinkEvent>, Arc<NetdStats>) {
        let (tx, rx) = mpsc::channel();
        let stats = Arc::new(NetdStats::new());
        let link = Link::new(
            NodeId::new(me),
            NodeId::new(peer),
            7,
            addr,
            cfg,
            Arc::clone(&stats),
            Arc::new(AtomicU32::new(0)),
            sink_over(tx, |ev| ev),
        );
        (link, rx, stats)
    }

    /// A dialer facing a peer that completes the handshake but never acks:
    /// the in-flight window fills, then sends shed with `Backpressure`.
    #[test]
    fn backpressure_sheds_when_window_full() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let silent_peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            // Handshake, then read forever without acking.
            let hello = Frame::read_from(&mut s).expect("hello");
            assert!(matches!(hello, Frame::Hello { session: 7, .. }));
            Frame::Hello {
                session: 7,
                from: 1,
                to: 0,
                expect_seq: 1,
            }
            .write_to(&mut s)
            .expect("reply");
            let mut sink = Vec::new();
            loop {
                match Frame::read_from(&mut s) {
                    Ok(f) => sink.push(f),
                    Err(_) => return sink,
                }
            }
        });
        let (link, _rx, stats) = make_link(0, 1, addr, test_cfg());
        let writer = link.spawn_writer();
        for _ in 0..200 {
            if link.is_up() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(link.is_up(), "dialer should establish");
        assert_eq!(link.send_msg(1, 10, vec![1]), TxResult::Sent);
        assert_eq!(link.send_msg(1, 11, vec![2]), TxResult::Sent);
        // Budget is 2 and nothing is acked: the third send sheds.
        assert_eq!(
            link.send_msg(1, 12, vec![3]),
            TxResult::Shed(DropReason::Backpressure)
        );
        assert_eq!(stats.shed_backpressure.load(Ordering::Relaxed), 1);
        link.close();
        writer.join().expect("writer");
        let seen = silent_peer.join().expect("peer");
        assert!(seen
            .iter()
            .any(|f| matches!(f, Frame::Msg { admission: 10, .. })));
    }

    /// With nobody listening, the dialer retries with backoff, then gives
    /// up; queued and subsequent sends shed with `PeerDown`.
    #[test]
    fn gave_up_sheds_peer_down() {
        // Bind then drop to get an address that refuses connections.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        let (link, rx, stats) = make_link(0, 1, addr, test_cfg());
        let writer = link.spawn_writer();
        assert_eq!(link.send_msg(0, 5, vec![9]), TxResult::Queued);
        // RETRY_LIMIT retries whose jittered backoffs sum to under 0.7 s:
        // give-up lands well within the deadline.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut shed = Vec::new();
        while Instant::now() < deadline {
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(LinkEvent::Shed {
                    admissions, reason, ..
                }) => {
                    assert_eq!(reason, DropReason::PeerDown);
                    shed = admissions;
                    break;
                }
                Ok(_) => continue,
                Err(_) => continue,
            }
        }
        assert_eq!(shed, vec![5], "queued message must be reported shed");
        assert_eq!(
            link.send_msg(1, 6, vec![1]),
            TxResult::Shed(DropReason::PeerDown)
        );
        assert!(stats.gave_up.load(Ordering::Relaxed) >= 1);
        assert!(stats.retries.load(Ordering::Relaxed) >= 1);
        link.close();
        writer.join().expect("writer");
    }

    /// Queue budget bounds the pending queue while down.
    #[test]
    fn pending_queue_is_bounded() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let (link, _rx, stats) = make_link(0, 1, addr, test_cfg());
        // No writer thread: state stays Connecting, everything queues.
        assert_eq!(link.send_msg(0, 1, vec![0]), TxResult::Queued);
        assert_eq!(link.send_msg(0, 2, vec![0]), TxResult::Queued);
        assert_eq!(
            link.send_msg(0, 3, vec![0]),
            TxResult::Shed(DropReason::PeerDown)
        );
        assert_eq!(stats.shed_peer_down.load(Ordering::Relaxed), 1);
        link.close();
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let cfg = NetdConfig {
            seed: 42,
            ..NetdConfig::default()
        };
        let a = backoff_ms(&cfg, NodeId::new(0), NodeId::new(1), 3);
        let b = backoff_ms(&cfg, NodeId::new(0), NodeId::new(1), 3);
        assert_eq!(a, b, "same seed, same jitter");
        for attempt in 1..12 {
            let ms = backoff_ms(&cfg, NodeId::new(0), NodeId::new(1), attempt);
            assert!(
                ms <= BACKOFF_CAP_MS * 3 / 2,
                "cap × 150% jitter bound, got {ms}"
            );
        }
    }
}
