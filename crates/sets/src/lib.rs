//! Node identifiers, compact node-set bitsets, and subset enumeration.
//!
//! This crate is the set-algebra substrate of the `rmt` workspace. Every object
//! the RMT papers manipulate — corruption sets, cuts, views, components,
//! adversary structures — is ultimately a set of nodes, and the feasibility
//! characterizations require enumerating many of them. [`NodeSet`] is a
//! growable bitset tuned for those workloads:
//!
//! * set operations (`union`, `intersection`, `difference`) are word-parallel;
//! * values are kept in a normalized form (no trailing zero words) so that
//!   `Eq`/`Hash`/`Ord` behave like mathematical set equality;
//! * [`NodeSet::subsets`] and [`NodeSet::combinations`] drive the exhaustive
//!   cut and cover searches in `rmt-core`.
//!
//! # Example
//!
//! ```
//! use rmt_sets::{NodeId, NodeSet};
//!
//! let a: NodeSet = [0u32, 2, 5].into_iter().collect();
//! let b: NodeSet = [2u32, 3].into_iter().collect();
//! assert_eq!(a.intersection(&b), NodeSet::singleton(NodeId::new(2)));
//! assert!(a.intersection(&b).is_subset(&a));
//! assert_eq!(a.union(&b).len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod iter;
mod node;
mod nodeset;

pub use iter::{Combinations, Iter, Subsets};
pub use node::{NodeId, MAX_NODE_ID};
pub use nodeset::NodeSet;
