use std::fmt;

use rmt_sets::NodeSet;

use crate::restricted::RestrictedStructure;

/// A lazy n-ary join ⊕ᵢ ℰᵢ^{Aᵢ} of restricted adversary structures.
///
/// The paper defines the combined knowledge of a node set B as
/// `𝒵_B = ⊕_{v∈B} 𝒵^{V(γ(v))}`. Materializing this antichain can blow up
/// multiplicatively in |B| (we measure this in the `join_op` bench), but the
/// deciders in `rmt-core` only ever need *membership* tests against 𝒵_B.
/// Because ⊕ is associative, the fold satisfies
///
/// > Z ∈ ⊕ᵢ ℰᵢ^{Aᵢ}  ⇔  Z ⊆ ∪ᵢAᵢ  ∧  ∀i: Z ∩ Aᵢ ∈ ℰᵢ^{Aᵢ}
///
/// so a `JointView` answers membership in O(Σ|ℰᵢ|) set operations without
/// ever building the joined antichain. [`JointView::materialize`] folds the
/// exact binary join when the explicit antichain is required.
///
/// An empty `JointView` denotes the neutral element: the trivial structure
/// `{∅}` over the empty domain.
///
/// # Example
///
/// ```
/// use rmt_adversary::{JointView, RestrictedStructure};
/// use rmt_sets::NodeSet;
///
/// let z = rmt_adversary::threshold(&NodeSet::universe(4), 1);
/// let view = |ids: &[u32]| -> NodeSet { ids.iter().copied().collect() };
/// let joint: JointView = [view(&[0, 1]), view(&[1, 2]), view(&[2, 3])]
///     .into_iter()
///     .map(|d| RestrictedStructure::restrict(&z, d))
///     .collect();
/// // Each local trace of {0,2} has ≤ 1 node, so the joint view admits it.
/// assert!(joint.contains(&view(&[0, 2])));
/// assert!(!joint.contains(&view(&[1, 2])));
/// assert_eq!(joint.materialize().domain(), &NodeSet::universe(4));
/// ```
#[derive(Clone, Default)]
pub struct JointView {
    parts: Vec<RestrictedStructure>,
    domain: NodeSet,
}

impl JointView {
    /// Creates the neutral joint view (trivial structure over ∅).
    pub fn new() -> Self {
        JointView::default()
    }

    /// Adds one operand to the join.
    pub fn push(&mut self, part: RestrictedStructure) {
        self.domain.union_with(part.domain());
        self.parts.push(part);
    }

    /// The union of the operands' domains.
    pub fn domain(&self) -> &NodeSet {
        &self.domain
    }

    /// The operands, in insertion order.
    pub fn parts(&self) -> &[RestrictedStructure] {
        &self.parts
    }

    /// Membership test against the n-ary join, without materialization.
    pub fn contains(&self, set: &NodeSet) -> bool {
        set.is_subset(&self.domain)
            && self
                .parts
                .iter()
                .all(|p| p.contains(&set.intersection(p.domain())))
    }

    /// Folds the exact binary ⊕ to obtain the joined restricted structure.
    ///
    /// The result's antichain can be large; prefer [`JointView::contains`]
    /// where only membership is needed, or bound the fold with
    /// [`JointView::materialize_bounded`].
    pub fn materialize(&self) -> RestrictedStructure {
        self.materialize_bounded(usize::MAX)
            .expect("unbounded materialization cannot exceed usize::MAX sets")
    }

    /// Folds the exact binary ⊕, returning `None` if any intermediate
    /// antichain exceeds `max_antichain` maximal sets.
    pub fn materialize_bounded(&self, max_antichain: usize) -> Option<RestrictedStructure> {
        self.fold(max_antichain, None)
    }

    /// [`JointView::materialize_bounded`] with the fold effort recorded in
    /// `reg`:
    ///
    /// * `join.folds` — binary ⊕ applications;
    /// * `join.antichain_size` — size of each intermediate antichain
    ///   (histogram; its `max` is the peak blow-up of the fold);
    /// * `join.fold_ns` — wall time of the whole fold (histogram);
    /// * `family.candidate_sets` / `family.kept_sets` — pair-grid candidates
    ///   pruned by each binary ⊕ vs. maximal sets surviving subsumption.
    pub fn materialize_bounded_observed(
        &self,
        max_antichain: usize,
        reg: &rmt_obs::Registry,
    ) -> Option<RestrictedStructure> {
        self.fold(max_antichain, Some(reg))
    }

    /// The one ⊕ fold behind both `materialize_bounded` forms.
    fn fold(
        &self,
        max_antichain: usize,
        reg: Option<&rmt_obs::Registry>,
    ) -> Option<RestrictedStructure> {
        let _timer = reg.map(|reg| reg.timer("join.fold_ns"));
        let counters = reg.map(|reg| {
            (
                reg.counter("join.folds"),
                reg.histogram("join.antichain_size"),
                reg.counter("family.candidate_sets"),
                reg.counter("family.kept_sets"),
            )
        });
        let mut acc = RestrictedStructure::from_parts(NodeSet::new(), []);
        for p in &self.parts {
            if let Some((_, _, candidates, _)) = &counters {
                candidates.add(acc.join_candidates(p) as u64);
            }
            acc = acc.join(p);
            let len = acc.structure().maximal_sets().len();
            if let Some((folds, sizes, _, kept)) = &counters {
                folds.inc();
                kept.add(len as u64);
                sizes.record(len as u64);
            }
            if len > max_antichain {
                return None;
            }
        }
        Some(acc)
    }
}

impl fmt::Debug for JointView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JointView")
            .field("domain", &self.domain)
            .field("parts", &self.parts.len())
            .finish()
    }
}

impl FromIterator<RestrictedStructure> for JointView {
    fn from_iter<I: IntoIterator<Item = RestrictedStructure>>(iter: I) -> Self {
        let mut v = JointView::new();
        for p in iter {
            v.push(p);
        }
        v
    }
}

impl Extend<RestrictedStructure> for JointView {
    fn extend<I: IntoIterator<Item = RestrictedStructure>>(&mut self, iter: I) {
        for p in iter {
            self.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structure::AdversaryStructure;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn structure(sets: &[&[u32]]) -> AdversaryStructure {
        AdversaryStructure::from_sets(sets.iter().map(|s| set(s)))
    }

    #[test]
    fn empty_view_is_neutral() {
        let v = JointView::new();
        assert!(v.contains(&NodeSet::new()));
        assert!(!v.contains(&set(&[0])));
        let m = v.materialize();
        assert!(m.domain().is_empty());
        assert!(m.structure().is_trivial());
    }

    #[test]
    fn lazy_membership_equals_materialized_membership() {
        let z = structure(&[&[0, 1, 4], &[2, 3], &[1, 2]]);
        let domains = [set(&[0, 1, 2]), set(&[1, 2, 3]), set(&[3, 4])];
        let v: JointView = domains
            .iter()
            .map(|d| RestrictedStructure::restrict(&z, d.clone()))
            .collect();
        let m = v.materialize();
        for cand in set(&[0, 1, 2, 3, 4]).subsets() {
            assert_eq!(v.contains(&cand), m.contains(&cand), "{cand}");
        }
    }

    #[test]
    fn fold_order_does_not_matter() {
        let z = structure(&[&[0, 2], &[1, 3]]);
        let domains = [set(&[0, 1]), set(&[1, 2]), set(&[2, 3])];
        let forward: JointView = domains
            .iter()
            .map(|d| RestrictedStructure::restrict(&z, d.clone()))
            .collect();
        let backward: JointView = domains
            .iter()
            .rev()
            .map(|d| RestrictedStructure::restrict(&z, d.clone()))
            .collect();
        assert_eq!(
            forward.materialize().structure(),
            backward.materialize().structure()
        );
    }

    #[test]
    fn corollary_2_restriction_is_contained_in_join() {
        // 𝒵^{A∪B} ⊆ 𝒵^A ⊕ 𝒵^B for every structure and domains.
        let z = structure(&[&[0, 1, 2], &[3, 4], &[1, 4]]);
        let a = set(&[0, 1, 3]);
        let b = set(&[1, 2, 4]);
        let v: JointView = [a.clone(), b.clone()]
            .into_iter()
            .map(|d| RestrictedStructure::restrict(&z, d))
            .collect();
        let restriction = RestrictedStructure::restrict(&z, a.union(&b));
        for cand in a.union(&b).subsets() {
            if restriction.contains(&cand) {
                assert!(v.contains(&cand), "{cand} lost by ⊕");
            }
        }
    }

    #[test]
    fn materialize_bounded_enforces_limit() {
        let z = structure(&[&[0, 1], &[2, 3], &[0, 3], &[1, 2]]);
        let v: JointView = [set(&[0, 1, 2]), set(&[1, 2, 3]), set(&[0, 2, 3])]
            .into_iter()
            .map(|d| RestrictedStructure::restrict(&z, d))
            .collect();
        assert!(v.materialize_bounded(1).is_none());
        assert!(v.materialize_bounded(1 << 16).is_some());
    }

    #[test]
    fn observed_fold_matches_and_records_antichain_sizes() {
        let z = structure(&[&[0, 1], &[2, 3], &[0, 3], &[1, 2]]);
        let v: JointView = [set(&[0, 1, 2]), set(&[1, 2, 3]), set(&[0, 2, 3])]
            .into_iter()
            .map(|d| RestrictedStructure::restrict(&z, d))
            .collect();
        let reg = rmt_obs::Registry::new();
        let plain = v.materialize_bounded(1 << 16).unwrap();
        let observed = v.materialize_bounded_observed(1 << 16, &reg).unwrap();
        assert_eq!(plain.structure(), observed.structure());
        assert_eq!(reg.counter("join.folds").get(), 3);
        let sizes = reg.histogram("join.antichain_size");
        assert_eq!(sizes.count(), 3);
        assert!(sizes.max() >= plain.structure().maximal_sets().len() as u64);
        // A bounded-out fold still records the folds it performed.
        assert!(v.materialize_bounded_observed(1, &reg).is_none());
        assert!(reg.counter("join.folds").get() > 3);
    }
}
