//! Socket-backed runtime for the RMT protocols.
//!
//! This crate is the third delivery policy behind `rmt-sim`'s one round
//! loop, after the synchronous `Lockstep` and `rmt-net`'s fault-injecting
//! `FaultNet`: the protocols still step in the `Runner`, while every honest
//! node gets an independent socket endpoint task that speaks
//! length-prefixed framed TCP over loopback, with everything a real
//! deployment needs to survive — supervised reconnect with jittered
//! exponential backoff ([`link`]), bounded per-peer send queues with
//! explicit backpressure, heartbeat-based liveness, sequence-numbered
//! frames with cumulative acks and replay-on-reconnect ([`frame`]), and a
//! declarative kill/restart/sever/restore [`ChaosPlan`] ([`chaos`]).
//!
//! The deterministic runners stay the differential oracle: a fault-free
//! loopback session yields verdicts, node-view transcripts, and an event
//! stream identical to `NetRunner` under an empty `FaultPlan`, because a
//! session ([`session`]) runs the same loop and reconstructs delivery order
//! from the global admission index each frame carries. Under chaos the
//! safety half of that oracle still holds — a run either decides the value
//! actually sent or does not decide — while liveness degrades gracefully
//! and *loudly*: every shed message is a counted `FaultDrop`, never a
//! silent loss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod frame;
pub mod link;
mod node;
pub mod session;
pub mod stats;

pub use chaos::{ChaosPlan, SeverWindow};
pub use daemon::Daemon;
pub use frame::{Frame, FrameError, MAX_FRAME_BYTES};
pub use link::{LinkEvent, NetdConfig, TxResult};
pub use session::{run_session, run_session_observed, SessionOutcome};
pub use stats::NetdStats;

// The termination verdict is shared with the deterministic fault runner.
pub use rmt_net::Termination;
