//! Reliable Message Transmission under partial knowledge and general
//! adversaries — the core library of the PODC 2016 reproduction.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates (`rmt-sets`, `rmt-adversary`, `rmt-graph`, `rmt-sim`):
//!
//! * [`Instance`] — the RMT instance 𝓘 = (G, 𝒵, γ, D, R) of the Partial
//!   Knowledge Model, with local structures 𝒵_v and joint knowledge 𝒵_B
//!   ([`knowledge`]);
//! * [`cuts`] — the **RMT-cut** (Definition 3) and **RMT 𝒵-pp cut**
//!   (Definition 7) deciders: the exact feasibility characterizations of
//!   Theorems 3+5 and 7+8;
//! * [`protocols`] — **RMT-PKA** (Protocol 1) with its full-message-set
//!   decision subroutine, **Z-CPA** for RMT as a protocol *scheme* with a
//!   pluggable membership oracle, the classic **CPA** baseline, and the
//!   Byzantine attack strategies;
//! * [`analysis`] — feasibility characterization, minimal-knowledge radius,
//!   attack-suite sweeps, and the executable scenario-swap lower bound;
//! * [`reduction`] — the 𝒢′ star family (Figure 1), the protocol Π, and the
//!   Π-simulation membership oracle realizing the self-reduction of
//!   Theorem 9 (poly-time uniqueness of Z-CPA, Corollary 10);
//! * [`sampling`] — reproducible random instance generators for tests and
//!   experiments;
//! * [`wire`] — the one varint byte codec for knowledge `(u, γ(u), 𝒵_u)`,
//!   shared by the per-message payload and the session frame.
//!
//! # Quickstart
//!
//! ```
//! use rmt_core::{analysis, protocols, Instance};
//! use rmt_graph::{generators, ViewKind};
//! use rmt_sets::NodeSet;
//! use rmt_sim::SilentAdversary;
//!
//! // A 5-cycle where one specific node may be Byzantine.
//! let g = generators::cycle(5);
//! let z = rmt_adversary::AdversaryStructure::from_sets(
//!     [NodeSet::singleton(1u32.into())],
//! );
//! let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 2.into()).unwrap();
//!
//! // The characterization says RMT is possible…
//! assert!(analysis::characterize(&inst).solvable());
//!
//! // …and RMT-PKA delivers even with node 1 refusing to cooperate.
//! let out = protocols::rmt_pka::run_pka(
//!     &inst,
//!     42,
//!     SilentAdversary::new(NodeSet::singleton(1u32.into())),
//! );
//! assert_eq!(out.decision(inst.receiver()), Some(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod broadcast;
pub mod cuts;
pub mod engine;
pub mod gallery;
mod instance;
pub mod knowledge;
pub mod models;
pub mod protocols;
pub mod reduction;
pub mod sampling;
pub mod textio;
pub mod wire;

pub use engine::{ApplyStats, Delta, IncrementalEngine};
pub use instance::{Instance, InstanceError};
pub use knowledge::KnowledgeCache;
pub use protocols::Value;
