//! Separator-anchored cut search: the fast exact deciders.
//!
//! The exhaustive deciders scan all `2^(n-2)` subsets of `V∖{D,R}` even
//! though almost none of them are D–R cuts. This module searches the same
//! space through its *structure* instead:
//!
//! 1. **Only receiver components matter.** Both cut conditions
//!    (Definitions 3 and 7) are monotone in the cut for a fixed receiver
//!    component `B`: if any cut `C` with `comp_R(G∖C) = B` admits a
//!    partition, then so does the minimal one, `C = N(B)` (shrinking `C`
//!    shrinks every trace tested against the downward-closed structures).
//!    A cut therefore exists **iff** some valid component
//!    `B ∋ R` (connected, `D ∉ N[B]`) makes `N(B)` admissible.
//! 2. **Separator anchors partition the components.** Every valid `B` is
//!    charged to exactly one minimal D–R separator — the D-side
//!    minimalization `S*(B) = N(comp_D(G ∖ N(B))) ⊆ N(B)` — so scanning,
//!    per anchor `S` from [`rmt_graph::separators`], the connected subsets
//!    of `S`'s receiver-side region whose neighbourhood contains `S`
//!    visits every candidate exactly once, with no cross-anchor
//!    deduplication ([`rmt_graph::separators::scan_anchor`]). The anchors
//!    are independent, so they can be scanned on several threads.
//! 3. **Everything is allocation-light.** Component extraction is masked
//!    BFS (no graph clones) and the [`KnowledgeCache`] memoizes
//!    `V(γ(B))` per component bitset.
//!
//! The searches are **budgeted**: if the separator enumeration or a
//! per-anchor component scan exceeds [`AnchorBudget`], the decider falls
//! back to the exhaustive scan — so the verdict is exact in every case,
//! and the exhaustive deciders remain the differential ground truth (see
//! `crates/core/tests/anchored_differential.rs`).
//!
//! One private driver runs both questions for every entry point — plain,
//! `_with` budget, `_observed`, `_par` and the
//! [`IncrementalEngine`](crate::engine::IncrementalEngine): it enumerates
//! the anchors, scans them through [`rmt_par::search_min`] (a plain
//! `find_map` at one worker), takes the least-index outcome and applies the
//! exhaustive fallback. So every entry point returns the same witness and
//! records the same counters at any thread count; only one-worker searches
//! add the knowledge-cache memo pair.
//!
//! Witnesses may differ from the exhaustive deciders' (the search order
//! differs), but they are always genuine: every returned witness verifies
//! via [`is_rmt_cut`](super::is_rmt_cut) / [`is_zpp_cut`](super::is_zpp_cut).

use std::sync::Mutex;

use rmt_graph::separators::{cut_anchors, scan_anchor, AnchorScan};
use rmt_obs::{Counter, Registry};
use rmt_par::search_min;
use rmt_sets::NodeSet;

use crate::instance::Instance;
use crate::knowledge::KnowledgeCache;

use super::par::{find_rmt_cut_par, find_rmt_cut_par_observed, zpp_cut_by_enumeration_par};
use super::rmt_cut::{admissible_partition, RmtCutWitness};
use super::zpp::{zpp_admissible_partition, ZppCutWitness};

/// Budgets bounding the anchored search. Exceeding either one triggers the
/// exact exhaustive fallback (counted as `*.exhaustive_fallbacks`), so the
/// budgets trade speed, never correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnchorBudget {
    /// Maximum number of minimal D–R separators to enumerate.
    pub max_separators: usize,
    /// Maximum connected subsets emitted per anchor scan.
    pub max_components_per_anchor: u64,
}

impl Default for AnchorBudget {
    fn default() -> Self {
        AnchorBudget {
            max_separators: 4096,
            max_components_per_anchor: 1 << 20,
        }
    }
}

/// Who scans the anchors.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Workers {
    /// The calling thread, in anchor order. Only this mode records the
    /// `rmt_cut.cache_hits` / `rmt_cut.cache_misses` pair: under concurrency
    /// its values would depend on worker interleaving.
    One,
    /// Up to this many threads. Every recorded value is independent of the
    /// thread count.
    Upto(usize),
}

/// How scanning one anchor ended, when it did not simply run dry (`None`).
enum AnchorOutcome<W> {
    /// A witness was found at this anchor.
    Witness(W),
    /// The per-anchor component budget ran out.
    Overflow,
}

/// The span, timer and counter names one question records under.
struct Names {
    span: &'static str,
    timer: &'static str,
    anchors_span: &'static str,
    scan_span: &'static str,
    separators: &'static str,
    components: &'static str,
    checks: &'static str,
    fallbacks: &'static str,
}

/// What the driver needs from one of the two anchored questions.
trait Question: Sync {
    type Witness: Send;
    const NAMES: Names;
    fn instance(&self) -> &Instance;
    /// The witness if `cut = N(b)` admits a partition for receiver
    /// component `b`.
    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<Self::Witness>;
    /// The exhaustive decider a budget overflow falls back to.
    fn exhaustive(&self, threads: usize, reg: Option<&Registry>) -> Option<Self::Witness>;
    /// The knowledge cache whose memo statistics a one-worker observed search
    /// reports, with the two counter names (hits, misses).
    fn memo(&self) -> Option<(&KnowledgeCache, [&'static str; 2])> {
        None
    }
}

/// "Is there an RMT-cut?" (Definition 3).
struct Rmt<'a> {
    inst: &'a Instance,
    cache: &'a KnowledgeCache,
}

impl Question for Rmt<'_> {
    type Witness = RmtCutWitness;
    const NAMES: Names = Names {
        span: "rmt_cut.anchored",
        timer: "rmt_cut.anchored_ns",
        anchors_span: "rmt_cut.anchored.anchors",
        scan_span: "rmt_cut.anchored.scan",
        separators: "rmt_cut.separators_enumerated",
        components: "rmt_cut.components_enumerated",
        checks: "rmt_cut.partition_checks",
        fallbacks: "rmt_cut.exhaustive_fallbacks",
    };

    fn instance(&self) -> &Instance {
        self.inst
    }

    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<RmtCutWitness> {
        admissible_partition(self.inst, self.cache, cut, b, checks).map(|(c1, c2)| RmtCutWitness {
            cut: cut.clone(),
            c1,
            c2,
            receiver_component: b.clone(),
        })
    }

    fn exhaustive(&self, threads: usize, reg: Option<&Registry>) -> Option<RmtCutWitness> {
        match reg {
            Some(reg) => find_rmt_cut_par_observed(self.inst, reg, threads),
            None => find_rmt_cut_par(self.inst, threads),
        }
    }

    fn memo(&self) -> Option<(&KnowledgeCache, [&'static str; 2])> {
        Some((self.cache, ["rmt_cut.cache_hits", "rmt_cut.cache_misses"]))
    }
}

/// "Is there a 𝒵-pp cut?" (Definition 7).
struct Zpp<'a> {
    inst: &'a Instance,
}

impl Question for Zpp<'_> {
    type Witness = ZppCutWitness;
    const NAMES: Names = Names {
        span: "zpp.anchored",
        timer: "zpp.anchored_ns",
        anchors_span: "zpp.anchored.anchors",
        scan_span: "zpp.anchored.scan",
        separators: "zpp.separators_enumerated",
        components: "zpp.components_enumerated",
        checks: "zpp.plausibility_checks",
        fallbacks: "zpp.exhaustive_fallbacks",
    };

    fn instance(&self) -> &Instance {
        self.inst
    }

    fn admissible(
        &self,
        cut: &NodeSet,
        b: &NodeSet,
        checks: Option<&Counter>,
    ) -> Option<ZppCutWitness> {
        zpp_admissible_partition(self.inst, cut, b, checks).map(|(c1, c2)| ZppCutWitness {
            cut: cut.clone(),
            c1,
            c2,
        })
    }

    /// The exhaustive 𝒵-pp enumeration records nothing, observed or not.
    fn exhaustive(&self, threads: usize, _reg: Option<&Registry>) -> Option<ZppCutWitness> {
        zpp_cut_by_enumeration_par(self.inst, threads)
    }
}

/// The anchored search behind every entry point of this module and the
/// incremental engine.
///
/// Observed counters are derived from the least-index outcome: per-anchor
/// effort is recorded into shards, and only the shards of the anchors the
/// one-worker scan visits (`0..=winner`, or all of them) are summed. Spans
/// open before the fan-out and close after the join, so the recorded values
/// and span positions do not depend on the thread count.
fn anchored_search<Q: Question>(
    q: &Q,
    budget: &AnchorBudget,
    workers: Workers,
    reg: Option<&Registry>,
) -> Option<Q::Witness> {
    let names = &Q::NAMES;
    let _span = reg.and_then(|reg| reg.phase(names.span));
    let _timer = reg.map(|reg| reg.timer(names.timer));
    let inst = q.instance();
    if inst.graph().has_edge(inst.dealer(), inst.receiver()) {
        return None;
    }
    let threads = match workers {
        Workers::One => 1,
        Workers::Upto(threads) => threads,
    };
    let fallback = || {
        if let Some(reg) = reg {
            reg.counter(names.fallbacks).inc();
        }
        q.exhaustive(threads, reg)
    };
    let anchors = {
        let _span = reg.and_then(|reg| reg.phase(names.anchors_span));
        cut_anchors(
            inst.graph(),
            inst.dealer(),
            inst.receiver(),
            budget.max_separators,
        )
    };
    let Ok(anchors) = anchors else {
        return fallback();
    };
    let _scan = reg.and_then(|reg| reg.phase(names.scan_span));
    // Per-call memo delta: the incremental engine's cache lives across calls.
    let memo = q
        .memo()
        .map(|(cache, counters)| (cache, counters, cache.memo_hits(), cache.memo_misses()));
    // (anchor index, components emitted, partition checks) shards.
    let shards: Mutex<Vec<(u64, u64, u64)>> = Mutex::new(Vec::new());
    let found = search_min(anchors.len() as u64, threads, 1, |idx| {
        let checks = reg.map(|_| Counter::new());
        let mut found = None;
        let stats = scan_anchor(
            inst.graph(),
            &anchors[idx as usize],
            inst.receiver(),
            budget.max_components_per_anchor,
            |b, cut| {
                found = q.admissible(cut, b, checks.as_ref());
                found.is_none()
            },
        );
        if let Some(checks) = checks {
            let shard = (idx, stats.emitted, checks.get());
            shards.lock().expect("shard lock").push(shard);
        }
        match stats.outcome {
            AnchorScan::Exhausted => None,
            AnchorScan::Stopped => found.map(AnchorOutcome::Witness),
            AnchorScan::BudgetExceeded => Some(AnchorOutcome::Overflow),
        }
    });
    if let Some(reg) = reg {
        let winner = found.as_ref().map(|(idx, _)| *idx);
        let (components, checks) = shards
            .into_inner()
            .expect("shard lock")
            .into_iter()
            .filter(|(idx, _, _)| winner.is_none_or(|w| *idx <= w))
            .fold((0, 0), |(e, c), (_, emitted, checks)| {
                (e + emitted, c + checks)
            });
        reg.counter(names.separators)
            .add(winner.map_or(anchors.len() as u64, |w| w + 1));
        reg.counter(names.components).add(components);
        reg.counter(names.checks).add(checks);
        if let (Workers::One, Some((cache, [hits, misses], hits0, misses0))) = (workers, memo) {
            reg.counter(hits).add(cache.memo_hits() - hits0);
            reg.counter(misses).add(cache.memo_misses() - misses0);
        }
    }
    match found {
        Some((_, AnchorOutcome::Witness(w))) => Some(w),
        Some((_, AnchorOutcome::Overflow)) => fallback(),
        None => None,
    }
}

/// The anchored RMT-cut search over a caller-held cache.
pub(crate) fn rmt_search(
    inst: &Instance,
    cache: &KnowledgeCache,
    budget: &AnchorBudget,
    workers: Workers,
    reg: Option<&Registry>,
) -> Option<RmtCutWitness> {
    anchored_search(&Rmt { inst, cache }, budget, workers, reg)
}

/// [`rmt_search`] over a cache built for this call.
fn rmt_search_fresh(
    inst: &Instance,
    budget: &AnchorBudget,
    workers: Workers,
    reg: Option<&Registry>,
) -> Option<RmtCutWitness> {
    rmt_search(inst, &KnowledgeCache::new(inst), budget, workers, reg)
}

/// The anchored 𝒵-pp-cut search.
pub(crate) fn zpp_search(
    inst: &Instance,
    budget: &AnchorBudget,
    workers: Workers,
    reg: Option<&Registry>,
) -> Option<ZppCutWitness> {
    anchored_search(&Zpp { inst }, budget, workers, reg)
}

/// Separator-anchored RMT-cut search with the default [`AnchorBudget`]:
/// same verdict as [`find_rmt_cut`](super::find_rmt_cut), orders of
/// magnitude less work on instances beyond `n ≈ 14`.
///
/// # Example
///
/// ```
/// use rmt_core::{cuts, gallery};
/// use rmt_graph::ViewKind;
///
/// let inst = gallery::unsolvable_diamond(ViewKind::AdHoc);
/// let w = cuts::find_rmt_cut_anchored(&inst).expect("cut exists");
/// // Anchored witnesses always verify against the ground-truth checker.
/// let cache = rmt_core::KnowledgeCache::new(&inst);
/// assert!(cuts::is_rmt_cut(&inst, &cache, &w.cut).is_some());
/// ```
pub fn find_rmt_cut_anchored(inst: &Instance) -> Option<RmtCutWitness> {
    find_rmt_cut_anchored_with(inst, &AnchorBudget::default())
}

/// [`find_rmt_cut_anchored`] with an explicit budget (tests use tiny
/// budgets to exercise the exhaustive fallback).
pub fn find_rmt_cut_anchored_with(inst: &Instance, budget: &AnchorBudget) -> Option<RmtCutWitness> {
    rmt_search_fresh(inst, budget, Workers::One, None)
}

/// [`find_rmt_cut_anchored`] with the search effort recorded in `reg`:
///
/// * `rmt_cut.separators_enumerated` — anchors scanned;
/// * `rmt_cut.components_enumerated` — connected subsets emitted across
///   the anchor scans;
/// * `rmt_cut.partition_checks` — `(C₁, C₂)` partitions tested against 𝒵_B
///   (same name and meaning as the exhaustive decider's);
/// * `rmt_cut.cache_hits` / `rmt_cut.cache_misses` — lookups in the
///   [`KnowledgeCache`] joint-domain memo during this call;
/// * `rmt_cut.exhaustive_fallbacks` — budget overflows that re-ran the
///   exhaustive decider;
/// * `rmt_cut.anchored_ns` — wall time of the whole search (histogram).
///
/// The cache hit/miss pair is recorded by one-worker searches only (this
/// function and
/// [`IncrementalEngine::decide_rmt_observed`](crate::engine::IncrementalEngine::decide_rmt_observed)):
/// under [`find_rmt_cut_anchored_par_observed`] its values would depend on
/// worker interleaving, and that decider guarantees thread-count-independent
/// counters.
pub fn find_rmt_cut_anchored_observed(inst: &Instance, reg: &Registry) -> Option<RmtCutWitness> {
    rmt_search_fresh(inst, &AnchorBudget::default(), Workers::One, Some(reg))
}

/// [`find_rmt_cut_anchored`] with the anchors scanned on up to `threads` OS
/// threads sharing one read-only [`KnowledgeCache`]. The anchors partition
/// the candidate space, so workers never duplicate work, and the witness
/// comes from the least anchor index with an outcome: the same witness for
/// every thread count.
pub fn find_rmt_cut_anchored_par(inst: &Instance, threads: usize) -> Option<RmtCutWitness> {
    rmt_search_fresh(inst, &AnchorBudget::default(), Workers::Upto(threads), None)
}

/// [`find_rmt_cut_anchored_par`] recording the counters, spans and timer of
/// [`find_rmt_cut_anchored_observed`] with the same values, except the
/// cache hit/miss pair, which it does not record.
pub fn find_rmt_cut_anchored_par_observed(
    inst: &Instance,
    reg: &Registry,
    threads: usize,
) -> Option<RmtCutWitness> {
    rmt_search_fresh(
        inst,
        &AnchorBudget::default(),
        Workers::Upto(threads),
        Some(reg),
    )
}

/// Separator-anchored 𝒵-pp-cut search with the default [`AnchorBudget`]:
/// same verdict as [`zpp_cut_by_enumeration`](super::zpp_cut_by_enumeration).
pub fn zpp_cut_by_enumeration_anchored(inst: &Instance) -> Option<ZppCutWitness> {
    zpp_cut_by_enumeration_anchored_with(inst, &AnchorBudget::default())
}

/// [`zpp_cut_by_enumeration_anchored`] with an explicit budget.
pub fn zpp_cut_by_enumeration_anchored_with(
    inst: &Instance,
    budget: &AnchorBudget,
) -> Option<ZppCutWitness> {
    zpp_search(inst, budget, Workers::One, None)
}

/// [`zpp_cut_by_enumeration_anchored`] with the search effort recorded in
/// `reg`: `zpp.separators_enumerated`, `zpp.components_enumerated`,
/// `zpp.plausibility_checks`, `zpp.exhaustive_fallbacks` and the
/// `zpp.anchored_ns` wall-time histogram.
pub fn zpp_cut_by_enumeration_anchored_observed(
    inst: &Instance,
    reg: &Registry,
) -> Option<ZppCutWitness> {
    zpp_search(inst, &AnchorBudget::default(), Workers::One, Some(reg))
}

/// [`zpp_cut_by_enumeration_anchored`] with the anchors scanned on up to
/// `threads` OS threads; same witness for every thread count.
pub fn zpp_cut_by_enumeration_anchored_par(
    inst: &Instance,
    threads: usize,
) -> Option<ZppCutWitness> {
    zpp_search(inst, &AnchorBudget::default(), Workers::Upto(threads), None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::{find_rmt_cut, is_rmt_cut, is_zpp_cut, zpp_cut_by_enumeration};
    use crate::sampling::{random_instance, random_instance_nonadjacent};
    use rmt_adversary::AdversaryStructure;
    use rmt_graph::{generators, Graph, ViewKind};
    use rmt_sets::NodeSet;

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
    fn anchored_agrees_with_exhaustive_on_the_diamonds() {
        for z in [
            AdversaryStructure::from_sets([set(&[1])]),
            AdversaryStructure::from_sets([set(&[1]), set(&[2])]),
        ] {
            let inst =
                crate::Instance::new(diamond(), z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
            assert_eq!(
                find_rmt_cut_anchored(&inst).is_some(),
                find_rmt_cut(&inst).is_some()
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst).is_some(),
                zpp_cut_by_enumeration(&inst).is_some()
            );
        }
    }

    #[test]
    fn anchored_witnesses_verify_on_random_instances() {
        let mut rng = generators::seeded(0xA11C);
        for trial in 0..40 {
            let n = 5 + trial % 4;
            let inst = random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            let cache = KnowledgeCache::new(&inst);
            let exhaustive = find_rmt_cut(&inst);
            let anchored = find_rmt_cut_anchored(&inst);
            assert_eq!(exhaustive.is_some(), anchored.is_some(), "trial {trial}");
            if let Some(w) = anchored {
                assert!(
                    is_rmt_cut(&inst, &cache, &w.cut).is_some(),
                    "trial {trial}: witness {w:?}"
                );
            }
            let anchored = zpp_cut_by_enumeration_anchored(&inst);
            assert_eq!(
                zpp_cut_by_enumeration(&inst).is_some(),
                anchored.is_some(),
                "trial {trial}"
            );
            if let Some(w) = anchored {
                assert!(is_zpp_cut(&inst, &w.cut).is_some(), "trial {trial}");
            }
        }
    }

    #[test]
    fn tiny_budgets_fall_back_to_the_exhaustive_verdict() {
        let budgets = [
            AnchorBudget {
                max_separators: 1,
                max_components_per_anchor: 1 << 20,
            },
            AnchorBudget {
                max_separators: 4096,
                max_components_per_anchor: 1,
            },
        ];
        let mut rng = generators::seeded(0xFA11);
        for trial in 0..20 {
            let n = 5 + trial % 4;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            for budget in &budgets {
                assert_eq!(
                    find_rmt_cut_anchored_with(&inst, budget).is_some(),
                    find_rmt_cut(&inst).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
                assert_eq!(
                    zpp_cut_by_enumeration_anchored_with(&inst, budget).is_some(),
                    zpp_cut_by_enumeration(&inst).is_some(),
                    "trial {trial}, budget {budget:?}"
                );
            }
        }
    }

    #[test]
    fn observed_variants_match_and_count() {
        let reg = rmt_obs::Registry::new();
        let mut rng = generators::seeded(0x0B5);
        for trial in 0..12 {
            let n = 5 + trial % 3;
            let inst = random_instance_nonadjacent(n, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
            assert_eq!(
                find_rmt_cut_anchored(&inst),
                find_rmt_cut_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
            assert_eq!(
                zpp_cut_by_enumeration_anchored(&inst),
                zpp_cut_by_enumeration_anchored_observed(&inst, &reg),
                "trial {trial}"
            );
        }
        assert!(reg.counter("rmt_cut.separators_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.components_enumerated").get() > 0);
        assert!(reg.counter("rmt_cut.cache_misses").get() > 0);
        assert!(reg.counter("zpp.separators_enumerated").get() > 0);
        assert_eq!(reg.histogram("rmt_cut.anchored_ns").count(), 12);
    }

    #[test]
    fn profiled_decider_emits_well_nested_phase_spans() {
        let reg = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof = rmt_obs::Profiler::new(reg.clock());
        reg.attach_profiler(prof.clone());
        let mut rng = generators::seeded(0x0B5);
        let inst = random_instance_nonadjacent(6, 0.35, ViewKind::AdHoc, 3, 2, &mut rng);
        let expected = find_rmt_cut_anchored(&inst);
        assert_eq!(find_rmt_cut_anchored_observed(&inst, &reg), expected);
        let roots = rmt_obs::span_tree(&prof.events()).expect("well nested");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "rmt_cut.anchored");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert!(kids.contains(&"rmt_cut.anchored.anchors"), "{kids:?}");
        // Virtual clock: a second identical run replays identical timestamps.
        let reg2 = rmt_obs::Registry::new().with_clock(rmt_obs::Clock::virtual_ns(1));
        let prof2 = rmt_obs::Profiler::new(reg2.clock());
        reg2.attach_profiler(prof2.clone());
        find_rmt_cut_anchored_observed(&inst, &reg2);
        assert_eq!(prof.events(), prof2.events());
        assert_eq!(reg.render(), reg2.render());
    }

    #[test]
    fn anchored_parallel_twins_match_sequential() {
        let mut rng = generators::seeded(0xA12);
        for trial in 0..12usize {
            let n = 5 + trial % 3;
            let inst = crate::sampling::random_instance_nonadjacent(
                n,
                0.35,
                ViewKind::AdHoc,
                3,
                2,
                &mut rng,
            );
            let seq_rmt = crate::cuts::find_rmt_cut_anchored(&inst);
            let seq_zpp = crate::cuts::zpp_cut_by_enumeration_anchored(&inst);
            for threads in [1, 2, 8] {
                assert_eq!(
                    seq_rmt,
                    find_rmt_cut_anchored_par(&inst, threads),
                    "trial {trial}, {threads} threads"
                );
                assert_eq!(
                    seq_zpp,
                    zpp_cut_by_enumeration_anchored_par(&inst, threads),
                    "trial {trial}, {threads} threads"
                );
            }
            let (reg_seq, reg_par) = (Registry::new(), Registry::new());
            assert_eq!(
                crate::cuts::find_rmt_cut_anchored_observed(&inst, &reg_seq),
                find_rmt_cut_anchored_par_observed(&inst, &reg_par, 4),
                "trial {trial}"
            );
            // Same deterministic counters as the sequential variant — the
            // cache hit/miss pair is sequential-only by design.
            for name in [
                "rmt_cut.separators_enumerated",
                "rmt_cut.components_enumerated",
                "rmt_cut.partition_checks",
                "rmt_cut.exhaustive_fallbacks",
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
    fn disconnected_endpoints_yield_the_empty_cut() {
        let mut g = generators::path_graph(2);
        g.add_node(4.into());
        let inst = crate::Instance::new(
            g,
            AdversaryStructure::trivial(),
            ViewKind::AdHoc,
            0.into(),
            4.into(),
        )
        .unwrap();
        // The empty-separator anchor's largest component is B = {4} itself,
        // whose neighbourhood is the empty cut.
        let w = find_rmt_cut_anchored(&inst).expect("empty cut separates");
        assert!(w.cut.is_empty());
        assert!(find_rmt_cut(&inst).is_some());
    }

    #[test]
    fn adjacent_endpoints_have_no_anchored_cut() {
        let mut g = diamond();
        g.add_edge(0.into(), 3.into());
        let z = AdversaryStructure::from_sets([set(&[1]), set(&[2])]);
        let inst = crate::Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).unwrap();
        assert!(find_rmt_cut_anchored(&inst).is_none());
        assert!(zpp_cut_by_enumeration_anchored(&inst).is_none());
    }
}
