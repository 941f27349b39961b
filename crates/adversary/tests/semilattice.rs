//! Property tests for the ⊕ operation: the paper's Theorems 1, 11, 13, 14
//! (semilattice laws, maximality) and Corollary 2, checked against brute
//! force on random structures over small domains. The antichain the
//! structures are built on is itself checked against a brute-force oracle:
//! insertion scripts, `from_sets` and membership over a 9-node universe.

use proptest::prelude::*;
use rmt_adversary::{AdversaryStructure, JointView, RestrictedStructure};
use rmt_sets::NodeSet;

const UNIVERSE: u32 = 7;

fn nodeset() -> impl Strategy<Value = NodeSet> {
    proptest::collection::btree_set(0u32..UNIVERSE, 0..=4)
        .prop_map(|s| s.into_iter().collect::<NodeSet>())
}

fn structure() -> impl Strategy<Value = AdversaryStructure> {
    proptest::collection::vec(nodeset(), 0..5).prop_map(AdversaryStructure::from_sets)
}

fn restricted() -> impl Strategy<Value = RestrictedStructure> {
    (structure(), nodeset()).prop_map(|(z, d)| RestrictedStructure::restrict(&z, d))
}

/// All subsets of the universe, for exhaustive membership comparison.
fn all_candidates() -> impl Iterator<Item = NodeSet> {
    NodeSet::universe(UNIVERSE as usize).subsets()
}

fn same_family(a: &RestrictedStructure, b: &RestrictedStructure) -> bool {
    all_candidates().all(|z| a.contains(&z) == b.contains(&z))
}

proptest! {
    /// Theorem 11: ⊕ is commutative.
    #[test]
    fn join_is_commutative(e in restricted(), f in restricted()) {
        prop_assert!(same_family(&e.join(&f), &f.join(&e)));
    }

    /// Theorem 13: ⊕ is associative.
    #[test]
    fn join_is_associative(e in restricted(), f in restricted(), h in restricted()) {
        let left = e.join(&f).join(&h);
        let right = e.join(&f.join(&h));
        prop_assert!(same_family(&left, &right));
    }

    /// Theorem 14: ⊕ is idempotent.
    #[test]
    fn join_is_idempotent(e in restricted()) {
        prop_assert!(same_family(&e.join(&e), &e));
    }

    /// Definition 2, brute force: the antichain join realizes exactly
    /// { Z₁ ∪ Z₂ | Z₁ ∈ ℰ^A, Z₂ ∈ ℱ^B, Z₁ ∩ B = Z₂ ∩ A }.
    #[test]
    fn join_matches_definition(e in restricted(), f in restricted()) {
        let joined = e.join(&f);
        let (a, b) = (e.domain().clone(), f.domain().clone());
        let members = |r: &RestrictedStructure| -> Vec<NodeSet> {
            r.domain().subsets().filter(|s| r.contains(s)).collect()
        };
        let mut brute: std::collections::HashSet<NodeSet> = std::collections::HashSet::new();
        for z1 in members(&e) {
            for z2 in members(&f) {
                if z1.intersection(&b) == z2.intersection(&a) {
                    brute.insert(z1.union(&z2));
                }
            }
        }
        for z in all_candidates() {
            prop_assert_eq!(joined.contains(&z), brute.contains(&z), "candidate {}", &z);
        }
    }

    /// Theorem 1 (maximality): any ℋ' over A∪B whose restrictions to A and B
    /// equal ℰ^A and ℱ^B is contained in ℰ^A ⊕ ℱ^B. We generate ℋ' as a
    /// random union of members and test the inclusion when the restriction
    /// conditions hold.
    #[test]
    fn theorem_1_maximality(z in structure(), a in nodeset(), b in nodeset(), h in structure()) {
        let e = RestrictedStructure::restrict(&z, a.clone());
        let f = RestrictedStructure::restrict(&z, b.clone());
        let joined = e.join(&f);
        let hp = RestrictedStructure::restrict(&h, a.union(&b));
        let restriction_matches = {
            let ha = RestrictedStructure::restrict(hp.structure(), a.clone());
            let hb = RestrictedStructure::restrict(hp.structure(), b.clone());
            same_family(&ha, &e) && same_family(&hb, &f)
        };
        if restriction_matches {
            for zc in all_candidates() {
                if hp.contains(&zc) {
                    prop_assert!(joined.contains(&zc), "ℋ' member {} not in join", zc);
                }
            }
        }
    }

    /// Corollary 2: 𝒵^{A∪B} ⊆ 𝒵^A ⊕ 𝒵^B.
    #[test]
    fn corollary_2(z in structure(), a in nodeset(), b in nodeset()) {
        let e = RestrictedStructure::restrict(&z, a.clone());
        let f = RestrictedStructure::restrict(&z, b.clone());
        let joined = e.join(&f);
        let restr = RestrictedStructure::restrict(&z, a.union(&b));
        for zc in all_candidates() {
            if restr.contains(&zc) {
                prop_assert!(joined.contains(&zc));
            }
        }
    }

    /// n-ary generalization used by `JointView`: membership in the fold is
    /// the conjunction of the per-operand trace memberships.
    #[test]
    fn joint_view_equals_fold(z in structure(), doms in proptest::collection::vec(nodeset(), 0..4)) {
        let view: JointView = doms
            .iter()
            .map(|d| RestrictedStructure::restrict(&z, d.clone()))
            .collect();
        let folded = view.materialize();
        for zc in all_candidates() {
            prop_assert_eq!(view.contains(&zc), folded.contains(&zc));
        }
    }

    /// Restriction is sound: Z ∈ 𝒵 implies Z∩A ∈ 𝒵^A, and antichain
    /// invariants survive every operation.
    #[test]
    fn restriction_soundness_and_invariants(z in structure(), a in nodeset(), w in nodeset()) {
        let r = RestrictedStructure::restrict(&z, a.clone());
        if z.contains(&w) {
            prop_assert!(r.contains(&w.intersection(&a)));
        }
        prop_assert!(z.invariant_holds());
        prop_assert!(r.structure().invariant_holds());
    }
}

/// The universe of the antichain-oracle cases: small enough to enumerate all
/// 512 subsets, large enough for long insertion scripts.
const ORACLE_UNIVERSE: u32 = 9;

fn oracle_sets(max: usize) -> impl Strategy<Value = Vec<NodeSet>> {
    let set = proptest::collection::btree_set(0u32..ORACLE_UNIVERSE, 0..=5)
        .prop_map(|s| s.into_iter().collect::<NodeSet>());
    proptest::collection::vec(set, 0..max)
}

/// The maximal elements of `sets`, brute force: the strictly sorted,
/// de-duplicated non-empty sets that no other element strictly contains.
fn brute_maximal(sets: &[NodeSet]) -> Vec<NodeSet> {
    let mut out: Vec<NodeSet> = sets
        .iter()
        .filter(|s| !s.is_empty() && !sets.iter().any(|o| s.is_subset(o) && *s != o))
        .cloned()
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Brute-force membership in the down-closure of `sets` (∅ always in).
fn brute_contains(sets: &[NodeSet], q: &NodeSet) -> bool {
    q.is_empty() || sets.iter().any(|s| q.is_subset(s))
}

proptest! {
    /// Insert scripts: `add_set` reports growth exactly when the set was not
    /// yet a member, and the antichain after every step is the brute-force
    /// maximal elements of the prefix inserted so far.
    #[test]
    fn insert_scripts_match_brute_force(script in oracle_sets(12)) {
        let mut z = AdversaryStructure::trivial();
        for (i, s) in script.iter().enumerate() {
            let was_member = z.contains(s);
            prop_assert_eq!(z.add_set(s.clone()), !was_member, "growth report inserting {}", s);
            prop_assert_eq!(z.maximal_sets(), brute_maximal(&script[..=i]).as_slice());
        }
    }

    /// `from_sets` keeps exactly the brute-force maximal elements, whatever
    /// the input order.
    #[test]
    fn from_sets_matches_brute_force(script in oracle_sets(12)) {
        let z = AdversaryStructure::from_sets(script.iter().cloned());
        prop_assert_eq!(z.maximal_sets(), brute_maximal(&script).as_slice());
        prop_assert_eq!(&AdversaryStructure::from_sets(script.iter().rev().cloned()), &z);
        prop_assert!(z.invariant_holds());
    }

    /// `contains` agrees with the brute-force down-closure on every subset
    /// of the universe.
    #[test]
    fn membership_matches_brute_force(script in oracle_sets(8)) {
        let z = AdversaryStructure::from_sets(script.iter().cloned());
        for q in NodeSet::universe(ORACLE_UNIVERSE as usize).subsets() {
            prop_assert_eq!(z.contains(&q), brute_contains(&script, &q), "membership of {}", q);
        }
    }
}
