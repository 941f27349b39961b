//! The paper's cut notions and their deciders.
//!
//! * [`rmt_cut`] — the **RMT-cut** of Definition 3: the exact obstruction to
//!   RMT in the partial knowledge model (Theorems 3 and 5).
//! * [`zpp`] — the **RMT 𝒵-pp cut** of Definition 7: the obstruction in the
//!   ad hoc model (Theorems 7 and 8), decidable both by exhaustive cut
//!   enumeration and by the polynomial Z-CPA fixpoint.
//! * [`anchored`] — separator-anchored twins of the enumeration deciders:
//!   verdict-identical, but driven by the minimal-separator anchors of
//!   `rmt_graph::separators` instead of the `2^n` subset lattice, with a
//!   budgeted exhaustive fallback keeping the verdict exact. One driver per
//!   question serves every anchored entry point and the
//!   [`IncrementalEngine`](crate::engine::IncrementalEngine).
//!
//! Every decider runs on the calling thread: splitting one decision across
//! threads never beat one thread (EXPERIMENTS.md §E6c). Callers that decide
//! many instances fan them out with `rmt_par::parallel_map`.

pub mod anchored;
pub mod rmt_cut;
pub mod zpp;

pub use anchored::{
    find_rmt_cut_anchored, find_rmt_cut_anchored_observed, zpp_cut_by_enumeration_anchored,
    zpp_cut_by_enumeration_anchored_observed, AnchorBudget,
};
pub use rmt_cut::{find_rmt_cut, is_rmt_cut, RmtCutWitness};
pub use zpp::{
    is_zpp_cut, zcpa_fixpoint, zcpa_fixpoint_broadcast, zcpa_resilient, zpp_cut_by_enumeration,
    zpp_cut_by_fixpoint, ZppCutWitness,
};
