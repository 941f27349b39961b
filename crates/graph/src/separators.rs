//! Minimal D–R separator enumeration without power-set scans.
//!
//! [`cuts::minimal_dr_cuts`](crate::cuts::minimal_dr_cuts) filters the whole
//! subset lattice — exact but hopeless beyond ~20 nodes. This module
//! implements the classical generate-and-minimalize scheme (Takata-style):
//! every minimal a–b separator has all its vertices adjacent to both the
//! a-side and b-side components, new separators are generated from old ones
//! by *pivoting* a vertex (absorbing its neighbourhood and re-minimalizing),
//! and the procedure started from the close separator of `a` visits every
//! minimal separator exactly once.
//!
//! [`for_each_minimal_separator`] is the one enumeration body: it hands each
//! separator to its caller as soon as the BFS generates it and stops
//! generating when the caller says so, so a cut search that finds its
//! witness at the first anchor pays for one separator, not for all of them.
//! [`minimal_separators`] collects the whole stream.
//!
//! The completeness of the implementation is property-tested against the
//! brute-force enumeration on random graphs.

use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;

use rmt_sets::{NodeId, NodeSet};

use crate::graph::Graph;
use crate::traversal;

/// Error returned when more than the given number of separators exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeparatorBudgetExceeded {
    /// The limit that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for SeparatorBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "more than {} minimal separators", self.budget)
    }
}

impl std::error::Error for SeparatorBudgetExceeded {}

use crate::traversal::neighborhood;

/// Double minimalization: given an a–b separator `s`, returns the minimal
/// a–b separator obtained by clamping to the b-side component's
/// neighbourhood and then the a-side component's neighbourhood.
fn minimalize(g: &Graph, a: NodeId, b: NodeId, s: &NodeSet) -> NodeSet {
    let c_b = traversal::reachable_avoiding(g, b, s);
    let s1 = neighborhood(g, &c_b);
    let c_a = traversal::reachable_avoiding(g, a, &s1);
    neighborhood(g, &c_a)
}

/// Generates the minimal a–b separators of `g` one at a time and hands each
/// to `visit` as soon as it is generated, in generation (BFS) order.
///
/// `visit` returns [`ControlFlow::Break`] to stop the enumeration: a caller
/// that finds what it looks for at the k-th separator has generated exactly
/// k of them. `budget` bounds the separators *generated*: generating
/// separator `budget + 1` ends the enumeration with
/// [`SeparatorBudgetExceeded`] before it is visited, so every separator
/// `visit` sees is one of the first `budget`.
///
/// Returns the break value, or `None` if every separator was visited.
///
/// # Errors
///
/// Returns [`SeparatorBudgetExceeded`] if more than `budget` separators
/// exist and `visit` did not stop before the `budget + 1`-th.
///
/// # Panics
///
/// Panics if `a` and `b` are equal or adjacent (no separator exists).
pub fn for_each_minimal_separator<B>(
    g: &Graph,
    a: NodeId,
    b: NodeId,
    budget: usize,
    mut visit: impl FnMut(&NodeSet) -> ControlFlow<B>,
) -> Result<Option<B>, SeparatorBudgetExceeded> {
    assert_ne!(a, b, "endpoints must differ");
    assert!(!g.has_edge(a, b), "adjacent endpoints have no separator");
    let mut generated = 0;
    let mut emit = |s: &NodeSet| {
        if generated == budget {
            return Err(SeparatorBudgetExceeded { budget });
        }
        generated += 1;
        Ok(visit(s))
    };
    if !traversal::connected_avoiding(g, a, b, &NodeSet::new()) {
        // Disconnected endpoints: the unique minimal separator is ∅.
        return Ok(emit(&NodeSet::new())?.break_value());
    }

    let mut seen: HashSet<NodeSet> = HashSet::new();
    let mut queue = VecDeque::new();

    let first = minimalize(g, a, b, g.neighbors(a));
    if let ControlFlow::Break(found) = emit(&first)? {
        return Ok(Some(found));
    }
    seen.insert(first.clone());
    queue.push_back(first);

    while let Some(s) = queue.pop_front() {
        for x in &s {
            // Pivot on x: absorb its neighbourhood into the separator and
            // re-minimalize toward b (skipping pivots adjacent to b, which
            // would swallow it).
            if g.neighbors(x).contains(b) {
                continue;
            }
            let enlarged = s.union(g.neighbors(x));
            let c_b = traversal::reachable_avoiding(g, b, &enlarged);
            if c_b.contains(a) || c_b.is_empty() {
                continue;
            }
            let candidate = minimalize(g, a, b, &neighborhood(g, &c_b));
            if !seen.insert(candidate.clone()) {
                continue;
            }
            if let ControlFlow::Break(found) = emit(&candidate)? {
                return Ok(Some(found));
            }
            queue.push_back(candidate);
        }
    }
    Ok(None)
}

/// Collects **all** minimal a–b separators of `g`, in the generation order
/// of [`for_each_minimal_separator`].
///
/// # Errors
///
/// Returns [`SeparatorBudgetExceeded`] if more than `budget` separators
/// exist.
///
/// # Panics
///
/// Panics if `a` and `b` are equal or adjacent (no separator exists).
///
/// # Example
///
/// ```
/// use rmt_graph::{generators, separators};
///
/// let g = generators::cycle(6);
/// let seps = separators::minimal_separators(&g, 0.into(), 3.into(), 100).unwrap();
/// assert_eq!(seps.len(), 4); // one node from {1,2} × one from {4,5}
/// ```
pub fn minimal_separators(
    g: &Graph,
    a: NodeId,
    b: NodeId,
    budget: usize,
) -> Result<Vec<NodeSet>, SeparatorBudgetExceeded> {
    let mut out = Vec::new();
    for_each_minimal_separator(g, a, b, budget, |s| {
        out.push(s.clone());
        ControlFlow::<()>::Continue(())
    })?;
    Ok(out)
}

/// One separator **anchor** for the cut-search deciders: a minimal a–b
/// separator together with the b-side component it leaves.
///
/// The anchored searches enumerate candidate receiver-side components `B`
/// (connected, `b ∈ B`, `a ∉ N[B]`) instead of candidate cuts. Every such
/// `B` is *charged to exactly one anchor*: the minimal separator
/// `S*(B) = N(comp_a(G ∖ N(B)))` — the a-side minimalization of `N(B)`. It
/// satisfies `S*(B) ⊆ N(B)` and `B ⊆ region(S*(B))`, so scanning each
/// anchor's region for connected supersets of `{b}` whose neighbourhood
/// contains the separator visits every candidate component exactly once
/// across all anchors ([`scan_anchor`]); the partition is property-tested
/// below.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutAnchor {
    /// The minimal a–b separator S.
    pub separator: NodeSet,
    /// The b-side component of `G ∖ S` (so `N(region) = S`).
    pub region: NodeSet,
}

impl CutAnchor {
    /// The anchor of the minimal a–b separator `separator`, whose region is
    /// `b`'s component of `G ∖ separator`.
    pub fn new(g: &Graph, b: NodeId, separator: NodeSet) -> Self {
        CutAnchor {
            region: traversal::component_of_avoiding(g, b, &separator),
            separator,
        }
    }
}

/// How one [`scan_anchor`] run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnchorScan {
    /// Every component charged to the anchor was visited.
    Exhausted,
    /// The visitor returned `false` (e.g. a witness was found).
    Stopped,
    /// The emission budget ran out before the scan finished.
    BudgetExceeded,
}

/// The result of one [`scan_anchor`] run: the outcome plus the number of
/// connected subsets the underlying enumeration emitted (visited components
/// are the subset of emissions whose neighbourhood contains the separator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnchorScanStats {
    /// How the scan ended.
    pub outcome: AnchorScan,
    /// Connected subsets of the region emitted by the enumeration.
    pub emitted: u64,
}

/// Visits every candidate component `B` charged to `anchor`: the connected
/// subsets of `anchor.region` containing `root` whose open neighbourhood
/// `C = N(B)` contains `anchor.separator`. The visitor receives `(B, C)`
/// — `C` is exactly the minimal cut with b-side component `B` — and returns
/// `false` to stop the scan (witness found).
///
/// Across the anchors of all minimal a–b separators each candidate component
/// is visited exactly once, which is what makes per-anchor scans an exact,
/// duplicate-free partition of the cut-search space (and an embarrassingly
/// parallel one). At most `max_emissions` connected subsets are enumerated;
/// beyond that the scan aborts with [`AnchorScan::BudgetExceeded`] and the
/// caller is expected to fall back to an exhaustive search.
pub fn scan_anchor<F>(
    g: &Graph,
    anchor: &CutAnchor,
    root: NodeId,
    max_emissions: u64,
    mut f: F,
) -> AnchorScanStats
where
    F: FnMut(&NodeSet, &NodeSet) -> bool,
{
    let mut emitted = 0u64;
    let mut outcome = AnchorScan::Exhausted;
    traversal::for_each_connected_subset(g, root, &anchor.region, |b| {
        if emitted >= max_emissions {
            outcome = AnchorScan::BudgetExceeded;
            return false;
        }
        emitted += 1;
        let cut = neighborhood(g, b);
        if anchor.separator.is_subset(&cut) && !f(b, &cut) {
            outcome = AnchorScan::Stopped;
            return false;
        }
        true
    });
    AnchorScanStats { outcome, emitted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts;
    use crate::generators;

    /// Every anchor of the a–b cut search, in generation order.
    fn anchors(g: &Graph, a: NodeId, b: NodeId) -> Vec<CutAnchor> {
        minimal_separators(g, a, b, 10_000)
            .unwrap()
            .into_iter()
            .map(|s| CutAnchor::new(g, b, s))
            .collect()
    }

    fn brute_force(g: &Graph, a: NodeId, b: NodeId) -> Vec<NodeSet> {
        let mut v: Vec<NodeSet> = cuts::minimal_dr_cuts(g, a, b).collect();
        v.sort();
        v
    }

    #[test]
    fn cycle_separators_by_hand() {
        let g = generators::cycle(6);
        let mut seps = minimal_separators(&g, 0.into(), 3.into(), 100).unwrap();
        seps.sort();
        assert_eq!(seps, brute_force(&g, 0.into(), 3.into()));
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut rng = generators::seeded(31337);
        let mut nontrivial = 0;
        for trial in 0..60 {
            let n = 5 + trial % 5;
            let g = generators::gnp_connected(n, 0.25, &mut rng);
            let (a, b) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            if g.has_edge(a, b) {
                continue;
            }
            let mut fast = minimal_separators(&g, a, b, 10_000).unwrap();
            fast.sort();
            let slow = brute_force(&g, a, b);
            assert_eq!(fast, slow, "trial {trial}: {g:?}");
            if slow.len() >= 2 {
                nontrivial += 1;
            }
        }
        assert!(
            nontrivial >= 5,
            "the sweep exercised nontrivial cases: {nontrivial}"
        );
    }

    #[test]
    fn every_result_is_a_minimal_separator() {
        let mut rng = generators::seeded(31338);
        let g = generators::gnp_connected(10, 0.3, &mut rng);
        let (a, b) = (NodeId::new(0), NodeId::new(9));
        if g.has_edge(a, b) {
            return;
        }
        for s in minimal_separators(&g, a, b, 10_000).unwrap() {
            assert!(cuts::is_dr_cut(&g, a, b, &s), "{s} separates");
            for v in &s {
                let mut smaller = s.clone();
                smaller.remove(v);
                assert!(
                    traversal::connected_avoiding(&g, a, b, &smaller),
                    "{s} minus {v} still separates — not minimal"
                );
            }
        }
    }

    /// Brute-force reference for the anchored scan: every candidate b-side
    /// component — connected, containing `b`, with `a` outside its closed
    /// neighbourhood.
    fn brute_candidate_components(g: &Graph, a: NodeId, b: NodeId) -> Vec<NodeSet> {
        let mut candidates = g.nodes().clone();
        candidates.remove(a);
        candidates
            .subsets()
            .filter(|s| {
                s.contains(b)
                    && traversal::component_of_avoiding(g, b, &g.nodes().difference(s)) == *s
                    && !neighborhood(g, s).contains(a)
            })
            .collect()
    }

    #[test]
    fn anchors_partition_the_candidate_components() {
        let mut rng = generators::seeded(90210);
        let mut nontrivial = 0;
        for trial in 0..50 {
            let n = 5 + trial % 5;
            let g = generators::gnp(n, 0.3, &mut rng);
            let (a, b) = (NodeId::new(0), NodeId::new(n as u32 - 1));
            if !g.contains_node(a) || !g.contains_node(b) || g.has_edge(a, b) {
                continue;
            }
            let anchors = anchors(&g, a, b);
            let mut visited = Vec::new();
            for anchor in &anchors {
                let stats = scan_anchor(&g, anchor, b, u64::MAX, |comp, cut| {
                    // The handed-out cut is the component's neighbourhood.
                    assert_eq!(*cut, neighborhood(&g, comp));
                    visited.push(comp.clone());
                    true
                });
                assert_eq!(stats.outcome, AnchorScan::Exhausted);
            }
            visited.sort();
            let before_dedup = visited.len();
            visited.dedup();
            assert_eq!(before_dedup, visited.len(), "trial {trial}: duplicates");
            let mut expected = brute_candidate_components(&g, a, b);
            expected.sort();
            assert_eq!(visited, expected, "trial {trial}: {g:?}");
            if expected.len() >= 2 && anchors.len() >= 2 {
                nontrivial += 1;
            }
        }
        assert!(nontrivial >= 5, "nontrivial cases exercised: {nontrivial}");
    }

    #[test]
    fn scan_anchor_budget_and_early_stop() {
        let g = generators::cycle(8);
        let anchors = anchors(&g, 0.into(), 4.into());
        let anchor = &anchors[0];
        let stats = scan_anchor(&g, anchor, 4.into(), 1, |_, _| true);
        assert_eq!(stats.outcome, AnchorScan::BudgetExceeded);
        assert_eq!(stats.emitted, 1);
        let stats = scan_anchor(&g, anchor, 4.into(), u64::MAX, |_, _| false);
        assert_eq!(stats.outcome, AnchorScan::Stopped);
    }

    #[test]
    fn disconnected_endpoints_have_the_empty_anchor() {
        let mut g = generators::path_graph(2);
        g.add_node(5.into());
        let anchors = anchors(&g, 0.into(), 5.into());
        assert_eq!(anchors.len(), 1);
        assert!(anchors[0].separator.is_empty());
        assert_eq!(anchors[0].region, NodeSet::singleton(5.into()));
    }

    #[test]
    fn budget_and_degenerate_cases() {
        let g = generators::complete_bipartite(2, 2); // many separators? 0-1 same side
        let seps = minimal_separators(&g, 0.into(), 1.into(), 100).unwrap();
        assert_eq!(seps.len(), 1); // the opposite side {2,3}
        let err = minimal_separators(&generators::cycle(8), 0.into(), 4.into(), 2).unwrap_err();
        assert_eq!(err.budget, 2);
        // Disconnected: the empty separator.
        let mut g = generators::path_graph(2);
        g.add_node(5.into());
        assert_eq!(
            minimal_separators(&g, 0.into(), 5.into(), 10).unwrap(),
            vec![NodeSet::new()]
        );
    }
}
