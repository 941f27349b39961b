//! General adversary structures and the joint-view (⊕) operation.
//!
//! In the general adversary model of Hirt and Maurer, the adversary may
//! corrupt any set of players belonging to a *monotone* family 𝒵 ⊆ 2^V (the
//! **adversary structure**): if Z ∈ 𝒵 then every subset of Z is in 𝒵. This
//! crate provides:
//!
//! * [`AdversaryStructure`] — a monotone family represented by the antichain
//!   of its **maximal** sets (one sorted list, built by subsumption-checked
//!   insertion), with membership, union, intersection and monotone-closure
//!   operations;
//! * [`RestrictedStructure`] — a structure together with the *domain* it has
//!   been restricted to (the paper's ℰ^A = {Z ∩ A | Z ∈ ℰ}), the inputs and
//!   outputs of the ⊕ operation;
//! * [`RestrictedStructure::join`] — the paper's ⊕ operation (Definition 2),
//!   computed **exactly** on antichains;
//! * [`JointView`] — a lazy n-ary join ⊕ᵢ ℰᵢ^{Aᵢ} supporting O(k) membership
//!   tests without materializing the (potentially huge) joined antichain;
//! * [`threshold`] / [`local_threshold_trace`] — builders for the classical
//!   threshold adversary models as special cases.
//!
//! # The ⊕ operation
//!
//! Definition 2 of the paper:
//!
//! > ℰ^A ⊕ ℱ^B = { Z₁ ∪ Z₂ | Z₁ ∈ ℰ^A, Z₂ ∈ ℱ^B, Z₁ ∩ B = Z₂ ∩ A }
//!
//! We use the equivalent *cylinder* characterization (see
//! [`RestrictedStructure::join`] for the proof sketch, and the crate's
//! property tests for machine-checked evidence):
//!
//! > Z ∈ ℰ^A ⊕ ℱ^B  ⇔  Z ⊆ A∪B  ∧  Z∩A ∈ ℰ^A  ∧  Z∩B ∈ ℱ^B
//!
//! which yields an exact O(|ℰ|·|ℱ|) antichain algorithm and, for n-ary joins,
//! a membership test that needs no materialization at all.
//!
//! # Example
//!
//! ```
//! use rmt_adversary::RestrictedStructure;
//! use rmt_sets::NodeSet;
//!
//! // 𝒵 = sets of at most one of {0,1,2}.
//! let z = rmt_adversary::threshold(&NodeSet::universe(3), 1);
//! let a: NodeSet = [0u32, 1].into_iter().collect();
//! let b: NodeSet = [1u32, 2].into_iter().collect();
//! let za = RestrictedStructure::restrict(&z, a);
//! let zb = RestrictedStructure::restrict(&z, b);
//! let joint = za.join(&zb);
//! // {0,2} is admissible for the joint view (each trace has ≤ 1 node) even
//! // though it is not in 𝒵 — exactly the information loss Corollary 2 bounds.
//! let z02: NodeSet = [0u32, 2].into_iter().collect();
//! assert!(joint.contains(&z02));
//! assert!(!z.contains(&z02));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod join;
mod restricted;
mod structure;
mod threshold;

pub use join::JointView;
pub use restricted::RestrictedStructure;
pub use structure::AdversaryStructure;
pub use threshold::{local_threshold_trace, threshold};
