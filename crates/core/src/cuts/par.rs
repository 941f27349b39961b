//! Parallel twins of the exhaustive and fixpoint cut deciders,
//! differentially tested against the sequential originals. (The anchored
//! deciders take a thread count through their own driver, in
//! [`anchored`](super::anchored).)
//!
//! Every decider here is **bit-identical** to its sequential counterpart for
//! any thread count (including the `None` cases):
//!
//! * the exhaustive searches ([`find_rmt_cut_par`],
//!   [`zpp_cut_by_enumeration_par`]) run [`rmt_par::search_min`] over the
//!   subset-index space of `V∖{D,R}`, and the least satisfying index is
//!   exactly the first hit of the ascending [`NodeSet::subsets`] scan the
//!   sequential deciders perform — so the returned cut, and therefore the
//!   whole witness (a pure function of the cut), is the same;
//! * the fixpoint decider ([`zpp_cut_by_fixpoint_par`]) searches the
//!   worst-case-corruption list for the least failing index the same way;
//! * the read-only [`KnowledgeCache`] is built once and shared by all
//!   workers.
//!
//! The `_observed` variants keep the metric names of the sequential
//! instrumented deciders and their **values** deterministic: search-extent
//! counters (`rmt_cut.candidates_examined`, `zpp.corruption_sets_checked`)
//! are derived from the winning index rather than from how far workers
//! overshot it, and per-candidate effort (partition checks, fixpoint sweeps)
//! is recorded into per-index shards that are merged into the caller's
//! [`Registry`] only for the indices the sequential scan would have visited
//! (`0..=winner`, or all of them on a `None` result).

use std::sync::Mutex;

use rmt_obs::{Counter, Registry};
use rmt_par::search_min;
use rmt_sets::NodeSet;

use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;

use super::rmt_cut::{is_rmt_cut, is_rmt_cut_counted, RmtCutWitness};
use super::zpp::{
    is_zpp_cut, witness_from_failed_corruption, zcpa_fixpoint, zcpa_fixpoint_observed,
    ZppCutWitness,
};

/// The cut-candidate base set V∖{D,R} shared by the exhaustive searches.
fn cut_candidates(inst: &Instance) -> NodeSet {
    let mut candidates = inst.graph().nodes().clone();
    candidates.remove(inst.dealer());
    candidates.remove(inst.receiver());
    candidates
}

/// Parallel [`find_rmt_cut`](super::find_rmt_cut): same witness (the
/// numerically least cut of the subset enumeration), searched on up to
/// `threads` OS threads sharing one read-only [`KnowledgeCache`].
pub fn find_rmt_cut_par(inst: &Instance, threads: usize) -> Option<RmtCutWitness> {
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let cache = KnowledgeCache::new(inst);
    let candidates = cut_candidates(inst);
    search_min(candidates.subset_count(), threads, 0, |idx| {
        is_rmt_cut(inst, &cache, &candidates.subset_at(idx))
    })
    .map(|(_, w)| w)
}

/// [`find_rmt_cut_par`] with the search effort recorded in `reg`, under the
/// metric names of
/// [`find_rmt_cut_observed`](super::find_rmt_cut_observed) and with the
/// same deterministic values (`search_ns` wall time aside).
pub fn find_rmt_cut_par_observed(
    inst: &Instance,
    reg: &Registry,
    threads: usize,
) -> Option<RmtCutWitness> {
    // Opened before the fan-out, closed after the join: span events stay at
    // thread-count-independent positions (worker shards carry no profiler).
    let _phase = reg.phase("rmt_cut.search");
    let _timer = reg.timer("rmt_cut.search_ns");
    let candidates_examined = reg.counter("rmt_cut.candidates_examined");
    let partition_checks = reg.counter("rmt_cut.partition_checks");
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let cache = KnowledgeCache::new(inst);
    let candidates = cut_candidates(inst);
    let total = candidates.subset_count();
    // (index, partition checks) shards; only cut candidates check partitions,
    // so the vector stays sparse even for large searches.
    let shards: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
    let found = search_min(total, threads, 0, |idx| {
        let checks = Counter::new();
        let w = is_rmt_cut_counted(inst, &cache, &candidates.subset_at(idx), Some(&checks));
        if checks.get() > 0 {
            shards.lock().expect("shard lock").push((idx, checks.get()));
        }
        w
    });
    let winner = found.as_ref().map(|(idx, _)| *idx);
    candidates_examined.add(winner.map_or(total, |w| w + 1));
    partition_checks.add(
        shards
            .into_inner()
            .expect("shard lock")
            .into_iter()
            .filter(|(idx, _)| winner.is_none_or(|w| *idx <= w))
            .map(|(_, checks)| checks)
            .sum(),
    );
    found.map(|(_, w)| w)
}

/// Parallel [`zpp_cut_by_enumeration`](super::zpp_cut_by_enumeration): same
/// witness, searched on up to `threads` OS threads.
pub fn zpp_cut_by_enumeration_par(inst: &Instance, threads: usize) -> Option<ZppCutWitness> {
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let candidates = cut_candidates(inst);
    search_min(candidates.subset_count(), threads, 0, |idx| {
        is_zpp_cut(inst, &candidates.subset_at(idx))
    })
    .map(|(_, w)| w)
}

/// Parallel [`zpp_cut_by_fixpoint`](super::zpp_cut_by_fixpoint): the
/// worst-case corruption sets are tried concurrently and the witness comes
/// from the **first** failing set in list order, as in the sequential scan.
pub fn zpp_cut_by_fixpoint_par(inst: &Instance, threads: usize) -> Option<ZppCutWitness> {
    let r = inst.receiver();
    if inst.graph().has_edge(inst.dealer(), r) {
        return None;
    }
    if !inst.endpoints_connected() {
        // The empty set separates; it is vacuously a 𝒵-pp cut.
        return Some(ZppCutWitness {
            cut: NodeSet::new(),
            c1: NodeSet::new(),
            c2: NodeSet::new(),
        });
    }
    let corruptions = inst.worst_case_corruptions();
    search_min(corruptions.len() as u64, threads, 1, |idx| {
        let t = &corruptions[idx as usize];
        let decided = zcpa_fixpoint(inst, t);
        (!decided.contains(r)).then(|| witness_from_failed_corruption(inst, t, &decided))
    })
    .map(|(_, w)| w)
}

/// [`zpp_cut_by_fixpoint_par`] with decision effort recorded in `reg`, under
/// the metric names of
/// [`zpp_cut_by_fixpoint_observed`](super::zpp_cut_by_fixpoint_observed):
/// each worker records its fixpoint runs into a private [`Registry`] shard
/// per corruption set, and the shards for the sets the sequential scan would
/// have visited are merged back into `reg` after the search.
pub fn zpp_cut_by_fixpoint_par_observed(
    inst: &Instance,
    reg: &Registry,
    threads: usize,
) -> Option<ZppCutWitness> {
    let _phase = reg.phase("zpp.decide");
    let _timer = reg.timer("zpp.decide_ns");
    let r = inst.receiver();
    if inst.graph().has_edge(inst.dealer(), r) {
        return None;
    }
    if !inst.endpoints_connected() {
        return Some(ZppCutWitness {
            cut: NodeSet::new(),
            c1: NodeSet::new(),
            c2: NodeSet::new(),
        });
    }
    let sets_checked = reg.counter("zpp.corruption_sets_checked");
    let corruptions = inst.worst_case_corruptions();
    let shards: Mutex<Vec<(u64, Registry)>> = Mutex::new(Vec::new());
    let found = search_min(corruptions.len() as u64, threads, 1, |idx| {
        let shard = Registry::new();
        let t = &corruptions[idx as usize];
        let decided = zcpa_fixpoint_observed(inst, t, &shard);
        shards.lock().expect("shard lock").push((idx, shard));
        (!decided.contains(r)).then(|| witness_from_failed_corruption(inst, t, &decided))
    });
    let winner = found.as_ref().map(|(idx, _)| *idx);
    sets_checked.add(winner.map_or(corruptions.len() as u64, |w| w + 1));
    for (idx, shard) in shards.into_inner().expect("shard lock") {
        if winner.is_none_or(|w| idx <= w) {
            reg.merge_from(&shard);
        }
    }
    found.map(|(_, w)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{find_rmt_cut, zpp_cut_by_enumeration, zpp_cut_by_fixpoint};
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    fn diamond() -> Graph {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        g
    }

    #[test]
    fn parallel_deciders_match_on_the_gallery_diamonds() {
        for z in [
            AdversaryStructure::from_sets([set(&[1])]),
            AdversaryStructure::from_sets([set(&[1]), set(&[2])]),
        ] {
            let inst = Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
            for threads in [1, 2, 8] {
                assert_eq!(find_rmt_cut(&inst), find_rmt_cut_par(&inst, threads));
                assert_eq!(
                    zpp_cut_by_enumeration(&inst),
                    zpp_cut_by_enumeration_par(&inst, threads)
                );
                assert_eq!(
                    zpp_cut_by_fixpoint(&inst),
                    zpp_cut_by_fixpoint_par(&inst, threads)
                );
            }
        }
    }

    #[test]
    fn parallel_observed_counters_match_sequential_totals() {
        let mut rng = generators::seeded(0x9A9);
        for trial in 0..12usize {
            let n = 5 + (trial % 3);
            let inst = crate::sampling::random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            let (reg_seq, reg_par) = (Registry::new(), Registry::new());
            assert_eq!(
                crate::cuts::find_rmt_cut_observed(&inst, &reg_seq),
                find_rmt_cut_par_observed(&inst, &reg_par, 4),
                "trial {trial}"
            );
            for name in ["rmt_cut.candidates_examined", "rmt_cut.partition_checks"] {
                assert_eq!(
                    reg_seq.counter(name).get(),
                    reg_par.counter(name).get(),
                    "trial {trial}: {name}"
                );
            }
            let (reg_seq, reg_par) = (Registry::new(), Registry::new());
            assert_eq!(
                crate::cuts::zpp_cut_by_fixpoint_observed(&inst, &reg_seq),
                zpp_cut_by_fixpoint_par_observed(&inst, &reg_par, 4),
                "trial {trial}"
            );
            for name in [
                "zpp.corruption_sets_checked",
                "zcpa.sweeps",
                "zcpa.certification_checks",
            ] {
                assert_eq!(
                    reg_seq.counter(name).get(),
                    reg_par.counter(name).get(),
                    "trial {trial}: {name}"
                );
            }
        }
    }

    #[test]
    fn disconnected_and_adjacent_edge_cases_match() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            4.into(),
        )
        .unwrap();
        assert_eq!(find_rmt_cut(&inst), find_rmt_cut_par(&inst, 4));
        assert_eq!(
            zpp_cut_by_fixpoint(&inst),
            zpp_cut_by_fixpoint_par(&inst, 4)
        );

        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert_eq!(find_rmt_cut_par(&inst, 4), None);
        assert_eq!(zpp_cut_by_enumeration_par(&inst, 4), None);
        assert_eq!(zpp_cut_by_fixpoint_par(&inst, 4), None);
    }
}
