use std::collections::HashSet;
use std::fmt;

use rmt_sets::NodeSet;

/// A monotone family of node sets, represented by the antichain of its
/// maximal sets.
///
/// The family denoted by the structure is
/// `{ Z | Z ⊆ M for some stored maximal set M } ∪ {∅}`
/// — the empty set is always a member (the adversary may corrupt nobody), and
/// the *trivial* structure (empty antichain) denotes the family `{∅}`.
///
/// Invariants maintained by every constructor and operation:
/// * no stored set is a subset of another (antichain);
/// * the empty set is never stored (it is implied);
/// * stored sets are sorted in the canonical [`NodeSet`] order, so equal
///   families compare equal with `==`.
///
/// Every constructor builds that sorted list the same way, by
/// subsumption-checked insertion ([`AdversaryStructure::add_set`]). It is
/// the representation the deciders iterate and the one the ⊕ of Definition 2
/// is stated over; a set-trie build was measured slower on every workload
/// that reached it (EXPERIMENTS.md, §E17b).
///
/// # Example
///
/// ```
/// use rmt_adversary::AdversaryStructure;
/// use rmt_sets::NodeSet;
///
/// let z = AdversaryStructure::from_sets([
///     [0u32, 1].into_iter().collect::<NodeSet>(),
///     [0u32].into_iter().collect::<NodeSet>(), // pruned: ⊆ {0,1}
///     [2u32].into_iter().collect::<NodeSet>(),
/// ]);
/// assert_eq!(z.maximal_sets().len(), 2);
/// assert!(z.contains(&[1u32].into_iter().collect()));
/// assert!(!z.contains(&[1u32, 2].into_iter().collect()));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AdversaryStructure {
    /// Sorted antichain of non-empty maximal sets.
    max_sets: Vec<NodeSet>,
}

impl AdversaryStructure {
    /// The trivial structure `{∅}`: no node can ever be corrupted.
    pub fn trivial() -> Self {
        AdversaryStructure::default()
    }

    /// Builds the monotone closure of the given sets, pruning non-maximal
    /// ones: one [`AdversaryStructure::add_set`] per input set.
    pub fn from_sets<I: IntoIterator<Item = NodeSet>>(sets: I) -> Self {
        let mut z = AdversaryStructure::trivial();
        for set in sets {
            z.add_set(set);
        }
        z
    }

    /// Adds `set` (and implicitly all its subsets) to the family.
    ///
    /// Returns `true` if the family grew (i.e. `set` was not already a
    /// member).
    pub fn add_set(&mut self, set: NodeSet) -> bool {
        if set.is_empty() || self.contains(&set) {
            return false;
        }
        self.max_sets.retain(|m| !m.is_subset(&set));
        let pos = self.max_sets.binary_search(&set).unwrap_err();
        self.max_sets.insert(pos, set);
        true
    }

    /// Returns `true` if `set` is an admissible corruption set.
    pub fn contains(&self, set: &NodeSet) -> bool {
        set.is_empty() || self.max_sets.iter().any(|m| set.is_subset(m))
    }

    /// Returns `true` if the family is `{∅}`.
    pub fn is_trivial(&self) -> bool {
        self.max_sets.is_empty()
    }

    /// The antichain of maximal sets (sorted, without the implied ∅).
    pub fn maximal_sets(&self) -> &[NodeSet] {
        &self.max_sets
    }

    /// Iterates over the maximal sets.
    pub fn iter_maximal(&self) -> impl Iterator<Item = &NodeSet> {
        self.max_sets.iter()
    }

    /// The union of all maximal sets: every node that could possibly be
    /// corrupted.
    pub fn support(&self) -> NodeSet {
        let mut s = NodeSet::new();
        for m in &self.max_sets {
            s.union_with(m);
        }
        s
    }

    /// Union of monotone families: `Z ∈ self ∪ other` iff admissible for
    /// either.
    pub fn union(&self, other: &AdversaryStructure) -> AdversaryStructure {
        AdversaryStructure::from_sets(self.max_sets.iter().chain(&other.max_sets).cloned())
    }

    /// Intersection of monotone families: `Z` admissible for both.
    ///
    /// The maximal sets of the intersection are the maximal elements of the
    /// pairwise intersections of the operands' maximal sets (both families
    /// are downward closed).
    pub fn intersect(&self, other: &AdversaryStructure) -> AdversaryStructure {
        AdversaryStructure::from_sets(
            self.max_sets
                .iter()
                .flat_map(|a| other.max_sets.iter().map(move |b| a.intersection(b))),
        )
    }

    /// The restriction `𝒵^A = { Z ∩ A | Z ∈ 𝒵 }` as a plain structure.
    ///
    /// Because the family is downward closed, intersecting each maximal set
    /// with `A` and re-pruning yields exactly the restriction.
    pub fn restrict_sets(&self, domain: &NodeSet) -> AdversaryStructure {
        AdversaryStructure::from_sets(self.max_sets.iter().map(|m| m.intersection(domain)))
    }

    /// Enumerates every member of the family (the down-closure of the
    /// antichain), up to `limit` members.
    ///
    /// Intended for tests and small exhaustive analyses; the member count is
    /// exponential in general. Returns `None` if the limit was exceeded.
    pub fn enumerate_members(&self, limit: usize) -> Option<Vec<NodeSet>> {
        let mut seen: HashSet<NodeSet> = HashSet::new();
        seen.insert(NodeSet::new());
        for m in &self.max_sets {
            for sub in m.subsets() {
                seen.insert(sub);
                if seen.len() > limit {
                    return None;
                }
            }
        }
        let mut out: Vec<NodeSet> = seen.into_iter().collect();
        out.sort();
        Some(out)
    }

    /// The classical Q^k predicate of Hirt–Maurer: `true` iff **no** `k`
    /// members of the family cover `universe`.
    ///
    /// Q² and Q³ are the feasibility thresholds of general-adversary
    /// multiparty computation and broadcast on complete networks; for the
    /// threshold structure over `n` nodes, Qᵏ holds iff `k·t < n`.
    ///
    /// # Example
    ///
    /// ```
    /// use rmt_sets::NodeSet;
    ///
    /// let u = NodeSet::universe(7);
    /// let z = rmt_adversary::threshold(&u, 2);
    /// assert!(z.is_qk(&u, 2)); // 2·2 < 7
    /// assert!(z.is_qk(&u, 3)); // 3·2 < 7
    /// let z = rmt_adversary::threshold(&u, 3);
    /// assert!(z.is_qk(&u, 2));
    /// assert!(!z.is_qk(&u, 3)); // 3·3 ≥ 7
    /// ```
    pub fn is_qk(&self, universe: &NodeSet, k: usize) -> bool {
        !self.some_k_sets_cover(universe, k, &NodeSet::new())
    }

    fn some_k_sets_cover(&self, universe: &NodeSet, k: usize, covered: &NodeSet) -> bool {
        if universe.is_subset(covered) {
            return true;
        }
        if k == 0 {
            return false;
        }
        // Only maximal sets matter: any member is contained in one.
        self.max_sets
            .iter()
            .any(|m| self.some_k_sets_cover(universe, k - 1, &covered.union(m)))
    }

    /// Checks the internal antichain invariant. Exposed for tests.
    pub fn invariant_holds(&self) -> bool {
        self.max_sets.windows(2).all(|w| w[0] < w[1])
            && self.max_sets.iter().all(|m| !m.is_empty())
            && self.max_sets.iter().enumerate().all(|(i, a)| {
                self.max_sets
                    .iter()
                    .enumerate()
                    .all(|(j, b)| i == j || !a.is_subset(b))
            })
    }
}

impl fmt::Debug for AdversaryStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AdversaryStructure")
            .field(&self.max_sets)
            .finish()
    }
}

impl fmt::Display for AdversaryStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, m) in self.max_sets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "⟩")
    }
}

impl FromIterator<NodeSet> for AdversaryStructure {
    fn from_iter<I: IntoIterator<Item = NodeSet>>(iter: I) -> Self {
        AdversaryStructure::from_sets(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn structure(sets: &[&[u32]]) -> AdversaryStructure {
        AdversaryStructure::from_sets(sets.iter().map(|s| set(s)))
    }

    #[test]
    fn trivial_contains_only_empty() {
        let z = AdversaryStructure::trivial();
        assert!(z.is_trivial());
        assert!(z.contains(&NodeSet::new()));
        assert!(!z.contains(&set(&[0])));
        assert!(z.invariant_holds());
    }

    #[test]
    fn from_sets_prunes_to_antichain() {
        let z = structure(&[&[0, 1], &[0], &[1], &[2], &[0, 1]]);
        assert_eq!(z.maximal_sets(), &[set(&[0, 1]), set(&[2])]);
        assert!(z.invariant_holds());
    }

    #[test]
    fn membership_is_downward_closed() {
        let z = structure(&[&[0, 1, 2]]);
        for sub in set(&[0, 1, 2]).subsets() {
            assert!(z.contains(&sub));
        }
        assert!(!z.contains(&set(&[3])));
        assert!(!z.contains(&set(&[0, 3])));
    }

    #[test]
    fn add_set_reports_growth() {
        let mut z = structure(&[&[0, 1]]);
        assert!(!z.add_set(set(&[0]))); // already a member
        assert!(!z.add_set(NodeSet::new()));
        assert!(z.add_set(set(&[2])));
        assert!(z.add_set(set(&[0, 1, 2]))); // supersedes both
        assert_eq!(z.maximal_sets(), &[set(&[0, 1, 2])]);
    }

    #[test]
    fn add_set_follows_a_scripted_build() {
        let script = [
            set(&[0, 1]),
            set(&[0]),
            NodeSet::new(),
            set(&[2, 4]),
            set(&[0, 1, 2]),
            set(&[2]),
            set(&[3]),
            set(&[2, 4]),
        ];
        let mut z = AdversaryStructure::trivial();
        let grew: Vec<bool> = script.iter().map(|s| z.add_set(s.clone())).collect();
        assert_eq!(grew, [true, false, false, true, true, false, true, false]);
        assert!(z.contains(&set(&[1, 2])));
        assert!(z.contains(&NodeSet::new()));
        assert!(!z.contains(&set(&[3, 4])));
        let mut expected = vec![set(&[0, 1, 2]), set(&[2, 4]), set(&[3])];
        expected.sort();
        assert_eq!(z.maximal_sets(), expected.as_slice());
        assert!(z.maximal_sets().windows(2).all(|w| w[0] < w[1]));
        assert!(z.invariant_holds());
    }

    #[test]
    fn union_and_intersection_agree_with_membership() {
        let a = structure(&[&[0, 1], &[2]]);
        let b = structure(&[&[1, 2], &[0]]);
        let u = a.union(&b);
        let i = a.intersect(&b);
        for z in NodeSet::universe(3).subsets() {
            assert_eq!(u.contains(&z), a.contains(&z) || b.contains(&z), "{z}");
            assert_eq!(i.contains(&z), a.contains(&z) && b.contains(&z), "{z}");
        }
        assert!(u.invariant_holds() && i.invariant_holds());
    }

    #[test]
    fn restrict_sets_matches_definition() {
        let z = structure(&[&[0, 1, 3], &[2, 3]]);
        let a = set(&[0, 2, 3]);
        let r = z.restrict_sets(&a);
        // Definitional restriction: {Z ∩ A | Z ∈ 𝒵}; check by membership.
        for x in a.subsets() {
            let expected = z
                .enumerate_members(1 << 12)
                .unwrap()
                .iter()
                .any(|m| m.intersection(&a) == x);
            assert_eq!(r.contains(&x), expected, "{x}");
        }
    }

    #[test]
    fn support_is_union_of_maximal_sets() {
        let z = structure(&[&[0, 1], &[5]]);
        assert_eq!(z.support(), set(&[0, 1, 5]));
        assert!(AdversaryStructure::trivial().support().is_empty());
    }

    #[test]
    fn enumerate_members_counts_down_closure() {
        let z = structure(&[&[0, 1], &[2]]);
        // members: ∅,{0},{1},{0,1},{2} = 5
        assert_eq!(z.enumerate_members(100).unwrap().len(), 5);
        assert_eq!(z.enumerate_members(3), None);
    }

    #[test]
    fn qk_matches_the_threshold_formula() {
        for n in 3..9usize {
            let u = NodeSet::universe(n);
            for t in 0..n {
                let z = crate::threshold(&u, t);
                for k in 1..4usize {
                    assert_eq!(z.is_qk(&u, k), k * t < n, "n={n}, t={t}, k={k}");
                }
            }
        }
    }

    #[test]
    fn qk_on_non_threshold_structures() {
        // {0,1} and {2} cover {0,1,2} with two sets: not Q2 there…
        let z = structure(&[&[0, 1], &[2]]);
        assert!(!z.is_qk(&set(&[0, 1, 2]), 2));
        // …but Q2 over the larger universe {0,1,2,3}.
        assert!(z.is_qk(&set(&[0, 1, 2, 3]), 2));
        // The trivial structure is Qᵏ for any k over any non-empty universe.
        assert!(AdversaryStructure::trivial().is_qk(&set(&[0]), 5));
        assert!(!AdversaryStructure::trivial().is_qk(&NodeSet::new(), 1));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(AdversaryStructure::trivial().to_string(), "⟨⟩");
        let z = structure(&[&[0]]);
        assert_eq!(z.to_string(), "⟨{v0}⟩");
    }

    #[test]
    fn equal_families_compare_equal() {
        let a = structure(&[&[0, 1], &[2]]);
        let b = structure(&[&[2], &[0], &[0, 1]]);
        assert_eq!(a, b);
    }
}
