//! Property tests on the core invariants: unconditional safety, fixpoint
//! monotonicity, knowledge monotonicity, joint-knowledge laws and the star
//! solvability condition — all against proptest-generated instances.

use proptest::prelude::*;
use rmt_core::cuts::{find_rmt_cut, zcpa_fixpoint};
use rmt_core::protocols::attacks::{pka_adversary, PKA_ATTACKS};
use rmt_core::protocols::rmt_pka::run_pka;
use rmt_core::reduction::StarInstance;
use rmt_core::sampling::{random_instance, random_structure};
use rmt_core::{Instance, KnowledgeCache};
use rmt_graph::{generators, ViewKind};
use rmt_sets::NodeSet;

fn instance_params() -> impl Strategy<Value = (usize, u64)> {
    (5usize..9, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 4, property-test form: for any generated instance, any
    /// worst-case corruption and any scripted attack, the receiver decides
    /// the dealer's value or nothing.
    #[test]
    fn pka_is_safe_everywhere((n, seed) in instance_params(), attack_idx in 0usize..PKA_ATTACKS.len()) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
        let attack = PKA_ATTACKS[attack_idx];
        for t in inst.worst_case_corruptions() {
            let adv = pka_adversary(&inst, 7, t.clone(), attack, seed);
            let d = run_pka(&inst, 7, adv).decision(inst.receiver());
            prop_assert!(d.is_none() || d == Some(7), "T = {}, attack {}", t, attack);
        }
    }

    /// The Z-CPA fixpoint is antitone in the corruption set: corrupting more
    /// nodes never certifies more honest nodes.
    #[test]
    fn fixpoint_is_antitone((n, seed) in instance_params(), extra in 1u32..5) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.45, ViewKind::AdHoc, 3, 2, &mut rng);
        for t in inst.worst_case_corruptions() {
            let mut smaller = t.clone();
            let removed = smaller.iter().nth(extra as usize % (t.len().max(1)));
            if let Some(v) = removed {
                smaller.remove(v);
                let with_more = zcpa_fixpoint(&inst, &t, None);
                let with_less = zcpa_fixpoint(&inst, &smaller, None);
                // Certified sets compare on the common honest ground.
                let common = with_more.difference(&smaller);
                prop_assert!(common.is_subset(&with_less), "T = {t}");
            }
        }
    }

    /// Knowledge monotonicity at the characterization level: enlarging every
    /// view (radius k → k+1) cannot create an RMT-cut.
    #[test]
    fn more_knowledge_never_hurts((n, seed) in instance_params(), k in 0usize..3) {
        let mut rng = generators::seeded(seed);
        let g = generators::gnp_connected(n, 0.4, &mut rng);
        let z = random_structure(g.nodes(), 3, 2, &mut rng);
        let at = |k| {
            let inst = Instance::new(g.clone(), z.clone(), ViewKind::Radius(k), 0.into(), (n as u32 - 1).into()).unwrap();
            find_rmt_cut(&inst, None).is_none()
        };
        prop_assert!(!at(k) || at(k + 1));
    }

    /// Joint-knowledge law: enlarging B only *constrains* the joint
    /// structure — any set admissible for B' ⊇ B stays admissible for B
    /// after restriction to B's domain.
    #[test]
    fn joint_knowledge_shrinks_with_more_views((n, seed) in instance_params()) {
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.5, ViewKind::AdHoc, 3, 2, &mut rng);
        let cache = KnowledgeCache::new(&inst);
        let nodes: Vec<_> = inst.graph().nodes().iter().collect();
        let b: NodeSet = nodes.iter().take(n / 2).copied().collect();
        let b_big: NodeSet = nodes.iter().take(n / 2 + 2).copied().collect();
        let dom = cache.joint_domain(&b);
        for cand in cache.joint_domain(&b_big).subsets().take(256) {
            if cache.joint_contains(&b_big, &cand) {
                prop_assert!(cache.joint_contains(&b, &cand.intersection(&dom)));
            }
        }
    }

    /// `Instance::local_contains` answers exactly what the built local
    /// structure answers, for every set: inside the view, reaching outside
    /// it, and ∅. `Radius(0)` views are `{v}` alone, so there even 𝒩(v)
    /// leaves the view.
    #[test]
    fn local_contains_equals_local_structure((n, seed) in instance_params(), view_sel in 0usize..5) {
        let view = [
            ViewKind::Full,
            ViewKind::AdHoc,
            ViewKind::Radius(0),
            ViewKind::Radius(1),
            ViewKind::Radius(2),
        ][view_sel];
        let mut rng = generators::seeded(seed);
        let inst = random_instance(n, 0.4, view, 4, 4, &mut rng);
        for v in inst.graph().nodes() {
            let local = inst.local_structure(v);
            for s in inst.graph().nodes().subsets() {
                prop_assert_eq!(
                    inst.local_contains(v, &s),
                    local.contains(&s),
                    "v = {}, S = {}, {:?}", v, s, view
                );
            }
        }
    }

    /// Star solvability (used by the self-reduction) equals the brute-force
    /// partition condition: no split of the middle into two admissible
    /// halves.
    #[test]
    fn star_solvability_matches_partition_brute_force(m in 2usize..6, seed in any::<u64>()) {
        let mut rng = generators::seeded(seed);
        let middle: NodeSet = (1..=m as u32).collect();
        let z = random_structure(&middle, 3, 3, &mut rng);
        let star = StarInstance::new(middle.clone(), &z);
        let brute = !middle.subsets().any(|c1| {
            let c2 = middle.difference(&c1);
            star.structure().contains(&c1) && star.structure().contains(&c2)
        });
        prop_assert_eq!(star.solvable(), brute, "𝒵′ = {}", star.structure());
    }
}
