use rmt_sets::NodeSet;

use crate::structure::AdversaryStructure;

/// The global threshold structure: all sets of at most `t` nodes from
/// `universe`.
///
/// This is the classical Byzantine model of Lamport–Shostak–Pease as a
/// special case of the general adversary model: the antichain consists of the
/// `C(|universe|, t)` sets of size exactly `t` (or the whole universe when
/// `t ≥ |universe|`).
///
/// # Example
///
/// ```
/// use rmt_sets::NodeSet;
///
/// let z = rmt_adversary::threshold(&NodeSet::universe(4), 2);
/// assert_eq!(z.maximal_sets().len(), 6); // C(4,2)
/// assert!(z.contains(&[0u32, 3].into_iter().collect()));
/// assert!(!z.contains(&[0u32, 1, 2].into_iter().collect()));
/// ```
pub fn threshold(universe: &NodeSet, t: usize) -> AdversaryStructure {
    if t == 0 {
        return AdversaryStructure::trivial();
    }
    if t >= universe.len() {
        return AdversaryStructure::from_sets([universe.clone()]);
    }
    // Distinct sets of one size are pairwise incomparable: sorting them
    // yields the antichain `from_sets` would build, without its O(m²) scans.
    let mut sets: Vec<NodeSet> = universe.combinations(t).collect();
    sets.sort_unstable();
    AdversaryStructure::from_sorted_antichain(sets)
}

/// The trace of the `t`-locally-bounded structure on one neighbourhood:
/// all sets of at most `t` nodes from `neighbourhood`.
///
/// In Koo's t-locally bounded model the adversary may corrupt at most `t`
/// nodes in the neighbourhood of *every* node; what a node `v` can see of
/// that structure is exactly `threshold(𝒩(v), t)`. The Certified Propagation
/// Algorithm's classical `t+1`-equal-neighbours rule is Z-CPA's rule
/// `N ∉ 𝒵_v` instantiated with this trace (tested in `rmt-core`).
pub fn local_threshold_trace(neighbourhood: &NodeSet, t: usize) -> AdversaryStructure {
    threshold(neighbourhood, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threshold_is_trivial() {
        assert!(threshold(&NodeSet::universe(5), 0).is_trivial());
    }

    #[test]
    fn saturating_threshold_is_whole_universe() {
        let u = NodeSet::universe(3);
        let z = threshold(&u, 5);
        assert_eq!(z.maximal_sets(), std::slice::from_ref(&u));
        assert!(z.contains(&u));
    }

    #[test]
    fn membership_is_cardinality_bound() {
        let u = NodeSet::universe(6);
        let z = threshold(&u, 2);
        for s in u.subsets() {
            assert_eq!(z.contains(&s), s.len() <= 2, "{s}");
        }
        assert!(z.invariant_holds());
    }

    #[test]
    fn threshold_equals_the_from_sets_fold() {
        for n in 0..=12 {
            let u = NodeSet::universe(n);
            for t in 0..=n + 1 {
                // t ≥ |U| folds the single set U; t = 0 folds ∅ into {∅}.
                let folded = AdversaryStructure::from_sets(u.combinations(t.min(n)));
                let direct = threshold(&u, t);
                assert_eq!(direct, folded, "|U| = {n}, t = {t}");
                assert!(direct.invariant_holds(), "|U| = {n}, t = {t}");
            }
        }
    }

    #[test]
    fn local_trace_over_sparse_neighbourhood() {
        let nbhd: NodeSet = [3u32, 7, 9].into_iter().collect();
        let z = local_threshold_trace(&nbhd, 1);
        assert!(z.contains(&[7u32].into_iter().collect()));
        assert!(!z.contains(&[3u32, 9].into_iter().collect()));
        assert!(!z.contains(&[0u32].into_iter().collect()));
    }
}
