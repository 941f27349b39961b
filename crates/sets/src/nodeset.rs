use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::FromIterator;
use std::ops::{BitAnd, BitOr, BitXor, Sub};

use crate::iter::{Combinations, Iter, Subsets};
use crate::node::NodeId;

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s stored as a growable bitset.
///
/// `NodeSet` is the workhorse value type of the workspace: corruption sets,
/// cuts, neighbourhoods, components and view domains are all `NodeSet`s.
/// Values are kept *normalized* (no trailing zero words), so `Eq`, `Ord` and
/// `Hash` agree with mathematical set equality regardless of construction
/// history.
///
/// The order given by `Ord` is the numeric order of the characteristic
/// vector (sets are compared as binary numbers, highest element first). It is
/// an arbitrary but deterministic total order used to keep collections of
/// sets canonically sorted.
///
/// # Example
///
/// ```
/// use rmt_sets::NodeSet;
///
/// let mut s = NodeSet::new();
/// s.insert(3u32.into());
/// s.insert(100u32.into());
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(100u32.into()));
/// assert_eq!(s.to_string(), "{v3, v100}");
/// ```
#[derive(Clone, Default)]
pub struct NodeSet {
    /// Invariant: the last word, if any, is non-zero.
    words: Vec<u64>,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet { words: Vec::new() }
    }

    /// Creates an empty set with capacity for nodes `0..n` without
    /// reallocating.
    pub fn with_capacity(n: usize) -> Self {
        NodeSet {
            words: Vec::with_capacity(n.div_ceil(WORD_BITS)),
        }
    }

    /// Creates the set containing exactly one node.
    pub fn singleton(id: NodeId) -> Self {
        let mut s = NodeSet::new();
        s.insert(id);
        s
    }

    /// Creates the full universe `{0, 1, …, n-1}`.
    ///
    /// # Example
    ///
    /// ```
    /// use rmt_sets::NodeSet;
    /// assert_eq!(NodeSet::universe(130).len(), 130);
    /// ```
    pub fn universe(n: usize) -> Self {
        let mut words = vec![u64::MAX; n / WORD_BITS];
        let rem = n % WORD_BITS;
        if rem != 0 {
            words.push((1u64 << rem) - 1);
        }
        let mut s = NodeSet { words };
        s.normalize();
        s
    }

    /// Returns the number of nodes in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Returns `true` if `id` is a member.
    pub fn contains(&self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Inserts `id`; returns `true` if it was not already present.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `id`; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / WORD_BITS, id.index() % WORD_BITS);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        if had {
            self.normalize();
        }
        had
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Returns the smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.words.iter().enumerate().find_map(|(i, &w)| {
            (w != 0).then(|| NodeId::new((i * WORD_BITS + w.trailing_zeros() as usize) as u32))
        })
    }

    /// Returns the largest member, if any.
    pub fn last(&self) -> Option<NodeId> {
        let (i, &w) = self.words.iter().enumerate().next_back()?;
        Some(NodeId::new(
            (i * WORD_BITS + (WORD_BITS - 1 - w.leading_zeros() as usize)) as u32,
        ))
    }

    /// Returns the union `self ∪ other` as a new set.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place union: `self ← self ∪ other`.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Returns the intersection `self ∩ other` as a new set.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// In-place intersection: `self ← self ∩ other`.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        self.words.truncate(other.words.len());
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        self.normalize();
    }

    /// Returns the difference `self ∖ other` as a new set.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// In-place difference: `self ← self ∖ other`.
    pub fn difference_with(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
        self.normalize();
    }

    /// Returns the symmetric difference `self △ other` as a new set.
    pub fn symmetric_difference(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        if other.words.len() > out.words.len() {
            out.words.resize(other.words.len(), 0);
        }
        for (a, b) in out.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
        out.normalize();
        out
    }

    /// Returns `true` if `self ⊆ other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        if self.words.len() > other.words.len() {
            return false;
        }
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if the sets share no element.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Iterates over the members in ascending id order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.words)
    }

    /// Enumerates **all** subsets of this set, in an arbitrary but
    /// deterministic order that begins with the empty set and ends with the
    /// full set.
    ///
    /// This powers the exhaustive cut/cover searches in `rmt-core`.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 62 elements (the enumeration would not
    /// terminate in any reasonable time anyway).
    pub fn subsets(&self) -> Subsets {
        Subsets::new(self)
    }

    /// The number of subsets [`NodeSet::subsets`] enumerates: `2^len`.
    ///
    /// # Panics
    ///
    /// Panics if the set has more than 62 elements, like [`NodeSet::subsets`].
    pub fn subset_count(&self) -> u64 {
        let k = self.len();
        assert!(
            k <= 62,
            "subset enumeration over {k} elements is infeasible (max 62)"
        );
        1u64 << k
    }

    /// Enumerates the subsets of this set having exactly `k` elements.
    pub fn combinations(&self, k: usize) -> Combinations {
        Combinations::new(self, k)
    }

    /// Collects the members into a `Vec` in ascending order.
    pub fn to_vec(&self) -> Vec<NodeId> {
        self.iter().collect()
    }

    fn normalize(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl PartialEq for NodeSet {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Eq for NodeSet {}

impl Hash for NodeSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.words.hash(state);
    }
}

impl PartialOrd for NodeSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NodeSet {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare as big integers: longer (normalized) word vectors are
        // larger; equal lengths compare from the most significant word.
        self.words
            .len()
            .cmp(&other.words.len())
            .then_with(|| self.words.iter().rev().cmp(other.words.iter().rev()))
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|v| v.raw())).finish()
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut s = NodeSet::new();
        s.extend(iter);
        s
    }
}

impl FromIterator<u32> for NodeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        iter.into_iter().map(NodeId::new).collect()
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl BitOr for &NodeSet {
    type Output = NodeSet;
    fn bitor(self, rhs: &NodeSet) -> NodeSet {
        self.union(rhs)
    }
}

impl BitAnd for &NodeSet {
    type Output = NodeSet;
    fn bitand(self, rhs: &NodeSet) -> NodeSet {
        self.intersection(rhs)
    }
}

impl Sub for &NodeSet {
    type Output = NodeSet;
    fn sub(self, rhs: &NodeSet) -> NodeSet {
        self.difference(rhs)
    }
}

impl BitXor for &NodeSet {
    type Output = NodeSet;
    fn bitxor(self, rhs: &NodeSet) -> NodeSet {
        self.symmetric_difference(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId::new(5)));
        assert!(!s.insert(NodeId::new(5)));
        assert!(s.contains(NodeId::new(5)));
        assert!(!s.contains(NodeId::new(4)));
        assert!(s.remove(NodeId::new(5)));
        assert!(!s.remove(NodeId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn normalization_makes_eq_and_hash_structural() {
        use std::collections::hash_map::DefaultHasher;
        let mut a = NodeSet::new();
        a.insert(NodeId::new(200));
        a.remove(NodeId::new(200));
        a.insert(NodeId::new(1));
        let b = set(&[1]);
        assert_eq!(a, b);
        let hash = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn boolean_algebra_on_crossing_word_boundaries() {
        let a = set(&[0, 63, 64, 130]);
        let b = set(&[63, 64, 200]);
        assert_eq!(a.union(&b), set(&[0, 63, 64, 130, 200]));
        assert_eq!(a.intersection(&b), set(&[63, 64]));
        assert_eq!(a.difference(&b), set(&[0, 130]));
        assert_eq!(a.symmetric_difference(&b), set(&[0, 130, 200]));
    }

    #[test]
    fn operators_match_methods() {
        let a = set(&[1, 2, 3]);
        let b = set(&[3, 4]);
        assert_eq!(&a | &b, a.union(&b));
        assert_eq!(&a & &b, a.intersection(&b));
        assert_eq!(&a - &b, a.difference(&b));
        assert_eq!(&a ^ &b, a.symmetric_difference(&b));
    }

    #[test]
    fn subset_superset_disjoint() {
        let a = set(&[1, 2]);
        let b = set(&[1, 2, 70]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_subset(&a));
        assert!(a.is_disjoint(&set(&[3, 71])));
        assert!(!a.is_disjoint(&b));
        assert!(NodeSet::new().is_subset(&a));
    }

    #[test]
    fn first_last_len() {
        let a = set(&[7, 64, 129]);
        assert_eq!(a.first(), Some(NodeId::new(7)));
        assert_eq!(a.last(), Some(NodeId::new(129)));
        assert_eq!(a.len(), 3);
        assert_eq!(NodeSet::new().first(), None);
        assert_eq!(NodeSet::new().last(), None);
    }

    #[test]
    fn universe_has_expected_members() {
        let u = NodeSet::universe(65);
        assert_eq!(u.len(), 65);
        assert!(u.contains(NodeId::new(0)));
        assert!(u.contains(NodeId::new(64)));
        assert!(!u.contains(NodeId::new(65)));
        assert!(NodeSet::universe(0).is_empty());
    }

    #[test]
    fn iteration_is_sorted() {
        let a = set(&[130, 1, 64, 2]);
        let ids: Vec<u32> = a.iter().map(NodeId::raw).collect();
        assert_eq!(ids, vec![1, 2, 64, 130]);
    }

    #[test]
    fn ordering_is_total_and_numeric() {
        // {1} = 0b10 < {0,1} = 0b11 < {2} = 0b100
        assert!(set(&[1]) < set(&[0, 1]));
        assert!(set(&[0, 1]) < set(&[2]));
        assert!(set(&[63]) < set(&[64]));
        assert!(NodeSet::new() < set(&[0]));
    }

    #[test]
    fn display_formats_members() {
        assert_eq!(set(&[]).to_string(), "{}");
        assert_eq!(set(&[2, 0]).to_string(), "{v0, v2}");
        assert_eq!(format!("{:?}", set(&[2, 0])), "{0, 2}");
    }
}
