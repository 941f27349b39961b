use std::fmt;

use rmt_sets::NodeSet;

use crate::structure::AdversaryStructure;

/// An adversary structure together with the domain it is restricted to:
/// the paper's ℰ^A = { Z ∩ A | Z ∈ ℰ }.
///
/// Restricted structures are the operands and results of the ⊕ operation
/// ([`RestrictedStructure::join`]); tracking the domain explicitly is what
/// makes ⊕ well defined when different players contribute knowledge over
/// different node sets.
///
/// Invariant: every stored maximal set is a subset of the domain.
///
/// # Example
///
/// ```
/// use rmt_adversary::{AdversaryStructure, RestrictedStructure};
/// use rmt_sets::NodeSet;
///
/// let z = AdversaryStructure::from_sets([[0u32, 1, 2].into_iter().collect::<NodeSet>()]);
/// let a: NodeSet = [1u32, 2, 3].into_iter().collect();
/// let za = RestrictedStructure::restrict(&z, a.clone());
/// assert_eq!(za.domain(), &a);
/// assert!(za.contains(&[1u32, 2].into_iter().collect()));
/// assert!(!za.contains(&[3u32].into_iter().collect())); // 3 ∉ any Z ∩ A
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RestrictedStructure {
    domain: NodeSet,
    structure: AdversaryStructure,
}

impl RestrictedStructure {
    /// Restricts `structure` to `domain`, computing `structure^domain`.
    pub fn restrict(structure: &AdversaryStructure, domain: NodeSet) -> Self {
        RestrictedStructure {
            structure: structure.restrict_sets(&domain),
            domain,
        }
    }

    /// Builds a restricted structure directly from maximal-set candidates,
    /// all of which must lie inside `domain`.
    ///
    /// # Panics
    ///
    /// Panics if any candidate set contains a node outside `domain`.
    pub fn from_parts<I: IntoIterator<Item = NodeSet>>(domain: NodeSet, sets: I) -> Self {
        let structure = AdversaryStructure::from_sets(sets);
        for m in structure.maximal_sets() {
            assert!(
                m.is_subset(&domain),
                "maximal set {m} escapes the domain {domain}"
            );
        }
        RestrictedStructure { domain, structure }
    }

    /// The domain `A` of this ℰ^A.
    pub fn domain(&self) -> &NodeSet {
        &self.domain
    }

    /// The underlying monotone family (over the domain).
    pub fn structure(&self) -> &AdversaryStructure {
        &self.structure
    }

    /// Returns `true` if `set` is a member of ℰ^A.
    ///
    /// Members are by definition subsets of the domain.
    pub fn contains(&self, set: &NodeSet) -> bool {
        set.is_subset(&self.domain) && self.structure.contains(set)
    }

    /// The ⊕ operation of Definition 2, computed exactly on antichains.
    ///
    /// ## Why this is exact
    ///
    /// Membership in the join has the *cylinder* characterization
    ///
    /// > Z ∈ ℰ^A ⊕ ℱ^B ⇔ Z ⊆ A∪B ∧ Z∩A ∈ ℰ^A ∧ Z∩B ∈ ℱ^B.
    ///
    /// (⇐: take Z₁ = Z∩A, Z₂ = Z∩B; then Z₁∩B = Z∩A∩B = Z₂∩A and Z₁∪Z₂ = Z.
    /// ⇒: if Z = Z₁∪Z₂ with the agreement condition, then Z∩A =
    /// Z₁ ∪ (Z₂∩A) = Z₁ ∪ (Z₁∩B) = Z₁ ∈ ℰ^A, symmetrically for B.)
    ///
    /// Hence the join is the intersection of two downward-closed cylinders
    /// whose maximal sets are `Eᵢ ∪ (B∖A)` and `Fⱼ ∪ (A∖B)`, and the maximal
    /// sets of an intersection of monotone families are the maximal elements
    /// of the pairwise intersections.
    ///
    /// The antichain of the result can be as large as |ℰ|·|ℱ|; for n-ary
    /// joins where only membership is needed, prefer [`JointView`].
    ///
    /// [`JointView`]: crate::JointView
    pub fn join(&self, other: &RestrictedStructure) -> RestrictedStructure {
        let (left, right, domain) = self.cylinder_sets(other);
        let structure = AdversaryStructure::from_sets(
            left.iter()
                .flat_map(|l| right.iter().map(move |r| l.intersection(r))),
        );
        RestrictedStructure { domain, structure }
    }

    /// The number of candidate sets a `self ⊕ other` materialization prunes:
    /// the size of the cylinder pair grid (trivial structures contribute one
    /// cylinder set). Observed joins record it as `family.candidate_sets`.
    pub fn join_candidates(&self, other: &RestrictedStructure) -> usize {
        let left = if self.structure.is_trivial() {
            1
        } else {
            self.structure.maximal_sets().len()
        };
        let right = if other.structure.is_trivial() {
            1
        } else {
            other.structure.maximal_sets().len()
        };
        left * right
    }

    /// The maximal sets of the two cylinders whose intersection is
    /// `self ⊕ other`, plus the joined domain (see [`RestrictedStructure::join`]).
    fn cylinder_sets(&self, other: &RestrictedStructure) -> (Vec<NodeSet>, Vec<NodeSet>, NodeSet) {
        let a = &self.domain;
        let b = &other.domain;
        let domain = a.union(b);
        let b_minus_a = b.difference(a);
        let a_minus_b = a.difference(b);

        // Cylinder maximal sets. The trivial structure {∅} has the single
        // implied maximal set ∅, whose cylinder extension is B∖A (resp. A∖B).
        let left: Vec<NodeSet> = if self.structure.is_trivial() {
            vec![b_minus_a.clone()]
        } else {
            self.structure
                .maximal_sets()
                .iter()
                .map(|e| e.union(&b_minus_a))
                .collect()
        };
        let right: Vec<NodeSet> = if other.structure.is_trivial() {
            vec![a_minus_b.clone()]
        } else {
            other
                .structure
                .maximal_sets()
                .iter()
                .map(|f| f.union(&a_minus_b))
                .collect()
        };
        (left, right, domain)
    }

    /// Membership test for the join `self ⊕ other` **without** materializing
    /// it, using the cylinder characterization.
    pub fn join_contains(&self, other: &RestrictedStructure, set: &NodeSet) -> bool {
        set.is_subset(&self.domain.union(&other.domain))
            && self.contains(&set.intersection(&self.domain))
            && other.contains(&set.intersection(&other.domain))
    }
}

impl fmt::Debug for RestrictedStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RestrictedStructure")
            .field("domain", &self.domain)
            .field("structure", &self.structure)
            .finish()
    }
}

impl fmt::Display for RestrictedStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}^{}", self.structure, self.domain)
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
    fn restrict_clips_to_domain() {
        let z = structure(&[&[0, 1, 2], &[3]]);
        let r = RestrictedStructure::restrict(&z, set(&[1, 2, 3]));
        assert!(r.contains(&set(&[1, 2])));
        assert!(r.contains(&set(&[3])));
        assert!(!r.contains(&set(&[1, 3]))); // no Z ∈ 𝒵 traces to {1,3}
        assert!(!r.contains(&set(&[0]))); // outside the domain
    }

    #[test]
    fn from_parts_rejects_escaping_sets() {
        let ok = RestrictedStructure::from_parts(set(&[0, 1]), [set(&[0])]);
        assert!(ok.contains(&set(&[0])));
        let escape =
            std::panic::catch_unwind(|| RestrictedStructure::from_parts(set(&[0, 1]), [set(&[2])]));
        assert!(escape.is_err());
    }

    /// Brute-force ⊕ straight from Definition 2, for cross-checking.
    fn brute_join(e: &RestrictedStructure, f: &RestrictedStructure) -> Vec<NodeSet> {
        let mem = |r: &RestrictedStructure| -> Vec<NodeSet> {
            r.domain().subsets().filter(|z| r.contains(z)).collect()
        };
        let (a, b) = (e.domain(), f.domain());
        let mut out: Vec<NodeSet> = Vec::new();
        for z1 in mem(e) {
            for z2 in mem(f) {
                if z1.intersection(b) == z2.intersection(a) {
                    let u = z1.union(&z2);
                    if !out.contains(&u) {
                        out.push(u);
                    }
                }
            }
        }
        out.sort();
        out
    }

    fn members(r: &RestrictedStructure) -> Vec<NodeSet> {
        let mut v: Vec<NodeSet> = r.domain().subsets().filter(|z| r.contains(z)).collect();
        v.sort();
        v
    }

    #[test]
    fn join_matches_definition_2_brute_force() {
        let z = structure(&[&[0, 1, 3], &[2, 4], &[1, 2]]);
        let a = set(&[0, 1, 2]);
        let b = set(&[1, 2, 3, 4]);
        let e = RestrictedStructure::restrict(&z, a);
        let f = RestrictedStructure::restrict(&z, b);
        let joined = e.join(&f);
        assert_eq!(members(&joined), brute_join(&e, &f));
        assert!(joined.structure().invariant_holds());
    }

    #[test]
    fn join_on_disjoint_domains_is_cartesian() {
        let e = RestrictedStructure::from_parts(set(&[0, 1]), [set(&[0])]);
        let f = RestrictedStructure::from_parts(set(&[2, 3]), [set(&[2, 3])]);
        let j = e.join(&f);
        assert!(j.contains(&set(&[0, 2, 3])));
        assert!(!j.contains(&set(&[1])));
        assert_eq!(j.domain(), &set(&[0, 1, 2, 3]));
    }

    #[test]
    fn join_with_trivial_structure_adds_nothing_inside_overlap() {
        // ℰ = {∅} over {0,1}: nobody in {0,1} can be corrupted according to ℰ.
        let e = RestrictedStructure::from_parts(set(&[0, 1]), []);
        let f = RestrictedStructure::from_parts(set(&[1, 2]), [set(&[1, 2])]);
        let j = e.join(&f);
        // {1} ⊆ A must be in ℰ^A for any member touching 1 — it is not.
        assert!(!j.contains(&set(&[1])));
        assert!(j.contains(&set(&[2])));
        assert!(j.contains(&NodeSet::new()));
    }

    #[test]
    fn join_contains_agrees_with_materialized_join() {
        let z = structure(&[&[0, 2], &[1, 3], &[2, 3, 4]]);
        let e = RestrictedStructure::restrict(&z, set(&[0, 1, 2]));
        let f = RestrictedStructure::restrict(&z, set(&[2, 3, 4]));
        let j = e.join(&f);
        for cand in set(&[0, 1, 2, 3, 4]).subsets() {
            assert_eq!(j.contains(&cand), e.join_contains(&f, &cand), "{cand}");
        }
    }

    #[test]
    fn display_shows_domain() {
        let e = RestrictedStructure::from_parts(set(&[0]), [set(&[0])]);
        assert_eq!(e.to_string(), "⟨{v0}⟩^{v0}");
    }
}
