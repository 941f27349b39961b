//! Deterministic fault-injecting network layer for the RMT simulator.
//!
//! The paper's model is perfectly synchronous: a message sent in round `r`
//! arrives in round `r + 1`, always. This crate asks how far the protocols
//! survive *outside* that model by putting a faulty network between sender
//! and receiver while keeping everything else — protocols, Byzantine
//! adversaries, authenticity and edge enforcement — exactly as in `rmt-sim`:
//!
//! * [`FaultPlan`] / [`LinkPolicy`] / [`Partition`] — the declarative fault
//!   model: per-link drop, bounded delay, duplication and reordering
//!   probabilities, node crash-stops, transient partitions;
//! * [`FaultRng`] — the stateless SplitMix64-based decision source: every
//!   fault decision is a pure function of the message's coordinates, so runs
//!   are bit-reproducible from `(plan, protocol, adversary)`;
//! * [`NetRunner`] — [`rmt_sim::Runner`]'s round loop over a faulty
//!   delivery policy: delivery goes through a priority queue keyed
//!   `(deliver_round, seq)`, and with an *empty* plan the run is
//!   byte-identical to the synchronous scheduler (event stream, metrics,
//!   termination — enforced by the differential test suite);
//! * [`MessageAdversary`] — the budgeted message-adversary mode (after
//!   Albouy–Frey–Raynal–Taïani): each round it sees every admitted send and
//!   erases up to `d` adversarially chosen victims, composing with the
//!   probabilistic plan;
//! * [`NetOutcome`] / [`FaultStats`] / [`Termination`] — the run result: an
//!   [`rmt_sim::RunOutcome`] whose `faults` is the separate account of what
//!   the network did ([`Termination`], quiesced or stalled at the round
//!   cap, is `rmt-sim`'s, re-exported).
//!
//! Fault decisions are visible in the `rmt-obs` event stream as
//! `FaultDrop` / `FaultDelay` / `FaultDuplicate` / `NodeCrashed` events, so
//! traces of faulty runs replay and render like any other run.
//!
//! # Example
//!
//! Flooding survives a 30%-lossy network on a cycle (two disjoint routes):
//!
//! ```
//! use rmt_graph::generators;
//! use rmt_net::{FaultPlan, LinkPolicy, NetRunner};
//! use rmt_sets::NodeSet;
//! use rmt_sim::{testing::Flood, SilentAdversary};
//!
//! let plan = FaultPlan::new(1).with_default_policy(LinkPolicy {
//!     drop: 0.3,
//!     ..LinkPolicy::default()
//! });
//! let out = NetRunner::new(
//!     generators::cycle(6),
//!     |v| Flood::new(v, (v.index() == 0).then_some(42)),
//!     SilentAdversary::new(NodeSet::new()),
//!     plan,
//! )
//! .run();
//! assert_eq!(out.decision(3.into()), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod rng;
mod runner;
mod suppress;

pub use plan::{FaultPlan, LinkPolicy, Partition, PlanError};
/// Low-level JSON codec helpers (shared by downstream fixture formats,
/// e.g. `rmt-hunt`'s attack genomes).
pub mod codec {
    pub use crate::plan::{
        field, nodeset_from_json, nodeset_to_json, u32_from_json, u64_from_json, u64_to_json,
    };
}
pub use rmt_sim::Termination;
pub use rng::{FaultRng, Salt};
pub use runner::{FaultStats, NetOutcome, NetRunner};
pub use suppress::MessageAdversary;
