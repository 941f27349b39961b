//! Batched multi-payload sessions over a compact wire codec.
//!
//! The per-message RMT-PKA protocol pays its full routing cost — trails,
//! knowledge announcements, per-node state derivation — *per transmitted
//! value*. Real deployments transmit streams, and almost all of that cost
//! is payload-independent. This crate amortizes it:
//!
//! * [`SessionPlan`] precomputes, once per (instance, dealer, receiver)
//!   triple, everything the per-message protocol re-derives on every send:
//!   per-node views and local structures (the knowledge announcements) and
//!   the receiver's validation state.
//! * [`SessionNode`] (built from the plan) runs the protocol for N payload
//!   slots at once: knowledge flows once per session into the receiver's
//!   one claim pool, and all same-round messages on a link coalesce into
//!   one [`SessionFrame`].
//! * [`SessionFrame`] is the compact wire codec: varint ids, a front-coded
//!   per-frame trail table that value runs and knowledge entries reference
//!   by index, and the shared `rmt_sim::framing` length prefix. It
//!   round-trips losslessly to the per-message representation
//!   ([`SessionFrame::expand`]/[`SessionFrame::pack`]), so the per-message
//!   safety argument transfers. Those two are the reference semantics;
//!   honest nodes never run them on received frames: relays forward in
//!   frame form ([`SessionFrame::relay`] rewrites the trail table), and
//!   the receiver reads messages in place.
//! * [`Session`] drives a whole transmission over the synchronous `Runner`
//!   and reports wire-layer and model-layer cost side by side
//!   ([`SessionReport`]); the fault-injecting `NetRunner` and the socket
//!   daemon `rmt-netd` (`rmt_netd::run_session`) run the same
//!   [`SessionNode`]s.
//! * [`SessionAdversary`] lifts the per-message attack gallery to the frame
//!   layer, one inner adversary per slot.
//!
//! At batch size 1 a session is verdict-identical to — and model-counter
//! identical with — the per-message runner (enforced by the differential
//! gate in `tests/differential.rs`); at batch size B the wire cost per
//! payload drops by the amortization factors experiment E16 measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod codec;
pub mod engine;
pub mod plan;
pub mod session;

pub use adversary::{ModelCounters, SessionAdversary};
pub use codec::{SessionEntry, SessionFrame, TrailTable, ValueRun};
pub use engine::{ReceiverStats, SessionNode};
pub use plan::{NodeKnowledge, SessionPlan};
pub use session::{ModelMetrics, Session, SessionReport};
