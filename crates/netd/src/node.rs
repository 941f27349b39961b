//! One node's socket endpoint as an independent task.
//!
//! A node task owns no protocol state: the protocol runs in the session's
//! round loop. The task owns the listening socket of its node's address,
//! an acceptor thread for inbound connections, and one [`Link`] per honest
//! neighbour. It speaks to the session's `Sockets` delivery policy over
//! in-process channels: `Transmit` hands it the round's admitted messages,
//! the task encodes each via [`WirePayload`], writes it to its link and
//! reports the per-message outcomes, while the physical layer streams
//! [`LinkEvent`]s (arrivals decoded by the receiving side, sheds,
//! connection lifecycle) underneath. Chaos commands
//! (`Kill`/`Restart`/`Sever`/…) arrive on the same command channel, so a
//! node observes faults in a well-defined order relative to its
//! transmissions. A killed task keeps its port bound but refuses
//! connections until restarted.

use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use rmt_sets::NodeId;
use rmt_sim::WirePayload;

use rmt_obs::DropReason;

use crate::frame::Frame;
use crate::link::{Link, LinkEvent, TxResult};

/// Commands from the session to one node task.
pub(crate) enum NodeCmd<P> {
    /// Transmit admitted messages: `(recipient, admission index, payload)`.
    Transmit {
        /// The round the messages were admitted in.
        round: u32,
        /// The messages to put on the wire.
        items: Vec<(NodeId, u64, P)>,
    },
    /// Chaos: the process dies (state survives, connections do not).
    Kill,
    /// Chaos: the process comes back.
    Restart,
    /// Chaos: the link to `peer` is cut.
    Sever(NodeId),
    /// Chaos: the link to `peer` heals.
    Restore(NodeId),
    /// The peer was restarted; forgive a given-up link.
    Revive(NodeId),
    /// Session teardown.
    Shutdown,
}

/// Everything a node task (or its links) reports to the session.
pub(crate) enum Report {
    /// Outcome of each admitted message handed to the links.
    TxStatus {
        /// Reporting node.
        node: NodeId,
        /// `(recipient, admission, outcome)` per transmitted message.
        results: Vec<(NodeId, u64, TxResult)>,
    },
    /// A physical-layer event (arrival, shed, connection lifecycle).
    Net(LinkEvent),
}

/// Runs one node's endpoint until the session shuts it down.
pub(crate) fn node_task<P: WirePayload>(
    me: NodeId,
    links: BTreeMap<NodeId, Arc<Link>>,
    listener: TcpListener,
    session: u64,
    cmds: Receiver<NodeCmd<P>>,
    reports: Sender<Report>,
) {
    let shutdown = Arc::new(AtomicBool::new(false));
    let writer_handles: Vec<_> = links.values().map(|l| l.spawn_writer()).collect();
    let acceptor = {
        let links = links.clone();
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || acceptor_loop(listener, session, me, links, shutdown))
    };

    while let Ok(cmd) = cmds.recv() {
        match cmd {
            NodeCmd::Transmit { round, items } => {
                let mut results = Vec::with_capacity(items.len());
                for (to, admission, payload) in items {
                    let result = match links.get(&to) {
                        Some(link) => link.send_msg(round, admission, payload.to_bytes()),
                        // The session only routes messages to linked peers;
                        // anything else is unreachable by model.
                        None => TxResult::Shed(DropReason::PeerDown),
                    };
                    results.push((to, admission, result));
                }
                let _ = reports.send(Report::TxStatus { node: me, results });
            }
            NodeCmd::Kill => {
                for (peer, link) in &links {
                    let dropped = link.kill_local();
                    if !dropped.is_empty() {
                        let _ = reports.send(Report::Net(LinkEvent::Shed {
                            from: me,
                            to: *peer,
                            admissions: dropped,
                            reason: DropReason::SenderCrashed,
                        }));
                    }
                }
            }
            NodeCmd::Restart => {
                for link in links.values() {
                    link.restart_local();
                }
            }
            NodeCmd::Sever(peer) => {
                if let Some(link) = links.get(&peer) {
                    link.sever();
                }
            }
            NodeCmd::Restore(peer) => {
                if let Some(link) = links.get(&peer) {
                    link.restore();
                }
            }
            NodeCmd::Revive(peer) => {
                if let Some(link) = links.get(&peer) {
                    link.revive();
                }
            }
            NodeCmd::Shutdown => break,
        }
    }

    shutdown.store(true, Ordering::SeqCst);
    for link in links.values() {
        link.close();
    }
    for h in writer_handles {
        let _ = h.join();
    }
    let _ = acceptor.join();
}

/// Accepts inbound connections for one node and installs them on the
/// matching link after the `Hello` handshake. Killed nodes refuse inside
/// [`Link::accept`] (the listener stays bound, modelling a supervised
/// process whose port survives).
fn acceptor_loop(
    listener: TcpListener,
    session: u64,
    me: NodeId,
    links: BTreeMap<NodeId, Arc<Link>>,
    shutdown: Arc<AtomicBool>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = handshake_and_install(stream, session, me, &links);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Validates one inbound handshake and hands the stream to its link.
fn handshake_and_install(
    mut stream: TcpStream,
    session: u64,
    me: NodeId,
    links: &BTreeMap<NodeId, Arc<Link>>,
) -> Option<()> {
    stream.set_nonblocking(false).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(1_000)))
        .ok()?;
    match Frame::read_from(&mut stream) {
        Ok(Frame::Hello {
            session: s,
            from,
            to,
            expect_seq,
        }) if s == session && to == me.raw() => {
            let link = links.get(&NodeId::new(from))?;
            link.accept(stream, expect_seq);
            Some(())
        }
        // Wrong session, malformed, or a teardown probe: drop the socket.
        _ => None,
    }
}
