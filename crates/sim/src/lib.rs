//! Synchronous round-based message-passing simulation with Byzantine
//! adversaries.
//!
//! The RMT paper's model is a synchronous network of authenticated channels
//! where an unbounded Byzantine adversary controls an admissible corruption
//! set with *full information*. This crate provides exactly that executable
//! model:
//!
//! * [`Protocol`] — the per-node deterministic state machine interface;
//! * [`Runner`] — the round loop every in-process scheduler shares: traffic
//!   flows only along edges, with the true sender identity (authenticated
//!   channels are enforced by construction), through a [`Delivery`] policy
//!   that decides when admitted messages arrive. The default, [`Lockstep`],
//!   is the synchronous network: messages sent in round `r` are delivered
//!   in round `r+1`. `rmt-net`'s `NetRunner` is the same loop over a faulty
//!   network;
//! * [`Adversary`] — full-information Byzantine control of the corrupted
//!   set, with building blocks ([`SilentAdversary`], [`FnAdversary`],
//!   [`MapAdversary`]) from which the protocol-specific attacks in
//!   `rmt-core` are assembled;
//! * [`CoupledRunner`] — the two-run lockstep executor that turns the
//!   indistinguishability arguments of the paper (Figure 2; proofs of
//!   Theorems 3 and 8) into running attacks. It has no loop of its own:
//!   both runs are one [`Runner`] run of a product protocol whose nodes
//!   hold their two instances and tag each message with its run;
//! * [`Metrics`] — message/bit/round accounting for the efficiency
//!   experiments.
//!
//! # Example
//!
//! A one-value flooding protocol on a path (full example in the tests):
//!
//! ```
//! use rmt_graph::generators;
//! use rmt_sets::NodeSet;
//! use rmt_sim::{testing::Flood, Runner, SilentAdversary};
//!
//! let g = generators::path_graph(4);
//! let outcome = Runner::new(
//!     g,
//!     |v| Flood::new(v, (v.index() == 0).then_some(7)),
//!     SilentAdversary::new(NodeSet::new()),
//! )
//! .run();
//! assert_eq!(outcome.decision(3.into()), Some(7));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod coupled;
pub mod framing;
mod message;
mod metrics;
mod protocol;
mod runner;
pub mod testing;
pub mod transport;

pub use adversary::{Adversary, FnAdversary, MapAdversary, SilentAdversary};
pub use coupled::{CoupledOutcome, CoupledRunner};
pub use message::{Envelope, Payload, RoundInboxes, WirePayload};
pub use metrics::Metrics;
pub use protocol::{NodeContext, Protocol};
pub use runner::{Delivery, Lockstep, RunOutcome, Runner, Termination};
pub use transport::{default_max_rounds, Transport, MAX_ROUNDS_SLACK};
