//! Simple paths: enumeration, and a walk that tests them all.
//!
//! RMT-PKA propagates the dealer's value along *every* simple path (message
//! trails). Its analysis (path counts, the reference oracle, E6) enumerates
//! D–R paths; the number of simple paths is exponential in general, so the
//! enumerators take an explicit budget and fail loudly instead of silently
//! truncating. The decision subroutine does not enumerate: fullness
//! (Definition 5) asks whether *every* D–R path was received, which
//! [`every_simple_path`] answers by a pruned walk that stops at the first
//! path not received and needs no budget.

use rmt_sets::{NodeId, NodeSet};

use crate::graph::Graph;
use crate::traversal;

/// Error returned when a path enumeration exceeds its budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathBudgetExceeded {
    /// The budget that was exceeded.
    pub budget: usize,
}

impl std::fmt::Display for PathBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simple-path enumeration exceeded budget of {}",
            self.budget
        )
    }
}

impl std::error::Error for PathBudgetExceeded {}

/// Enumerates all simple paths from `from` to `to`, in DFS order.
///
/// Each path is the full node sequence `from … to`.
///
/// # Errors
///
/// Returns [`PathBudgetExceeded`] if more than `budget` paths exist.
pub fn simple_paths(
    g: &Graph,
    from: NodeId,
    to: NodeId,
    budget: usize,
) -> Result<Vec<Vec<NodeId>>, PathBudgetExceeded> {
    let mut out = Vec::new();
    if !g.contains_node(from) || !g.contains_node(to) {
        return Ok(out);
    }
    let mut stack = vec![from];
    let mut on_path = NodeSet::singleton(from);
    // Iterator stack: which neighbours remain to try at each depth.
    let mut iters: Vec<Vec<NodeId>> = vec![g.neighbors(from).to_vec()];
    while let Some(frame) = iters.last_mut() {
        match frame.pop() {
            Some(next) => {
                if on_path.contains(next) {
                    continue;
                }
                if next == to {
                    let mut path = stack.clone();
                    path.push(to);
                    out.push(path);
                    if out.len() > budget {
                        return Err(PathBudgetExceeded { budget });
                    }
                    continue;
                }
                stack.push(next);
                on_path.insert(next);
                iters.push(g.neighbors(next).to_vec());
            }
            None => {
                iters.pop();
                if let Some(v) = stack.pop() {
                    on_path.remove(v);
                }
            }
        }
    }
    Ok(out)
}

/// Counts the simple paths from `from` to `to` up to `budget`.
///
/// # Errors
///
/// Returns [`PathBudgetExceeded`] if the count exceeds `budget`.
pub fn count_simple_paths(
    g: &Graph,
    from: NodeId,
    to: NodeId,
    budget: usize,
) -> Result<usize, PathBudgetExceeded> {
    simple_paths(g, from, to, budget).map(|p| p.len())
}

/// Calls `keep` on the simple paths from `from` to `to` and returns `true`
/// iff it accepts every one, stopping at the first path it rejects.
///
/// The paths are never listed. A DFS over simple-path prefixes extends a
/// prefix `p` to a neighbour `w` only if `to` is reachable from `w` in
/// `g − p`, so every branch it enters ends in a complete path: `keep` is
/// called at most (accepted paths + 1) times, and each path costs at most
/// one reachability search (`O(n + m)`) per node on it. No budget is
/// needed. The paths come in [`simple_paths`]' order; there are none when
/// `from == to` or an endpoint is absent (the walk then returns `true`).
pub fn every_simple_path(
    g: &Graph,
    from: NodeId,
    to: NodeId,
    mut keep: impl FnMut(&[NodeId]) -> bool,
) -> bool {
    if from == to || !g.contains_node(from) || !g.contains_node(to) {
        return true;
    }
    let mut path = vec![from];
    let mut on_path = NodeSet::singleton(from);
    // Per depth: the extensions of `path` still to try.
    let mut frontier = vec![extensions(g, &on_path, from, to)];
    while let Some(frame) = frontier.last_mut() {
        match frame.pop() {
            Some(w) if w == to => {
                path.push(to);
                let kept = keep(&path);
                path.pop();
                if !kept {
                    return false;
                }
            }
            Some(w) => {
                path.push(w);
                on_path.insert(w);
                frontier.push(extensions(g, &on_path, w, to));
            }
            None => {
                frontier.pop();
                if let Some(v) = path.pop() {
                    on_path.remove(v);
                }
            }
        }
    }
    true
}

/// The neighbours of `last`, the end of the prefix `on_path`, from which
/// `to` is reachable in `g − on_path` (the graph is undirected, so one
/// search from `to` answers for all of them).
fn extensions(g: &Graph, on_path: &NodeSet, last: NodeId, to: NodeId) -> Vec<NodeId> {
    let live = traversal::reachable_avoiding(g, to, on_path);
    g.neighbors(last)
        .iter()
        .filter(|&w| live.contains(w))
        .collect()
}

/// Returns `true` if `path` is a simple path in `g` (length ≥ 1, distinct
/// nodes, consecutive nodes adjacent).
pub fn is_simple_path(g: &Graph, path: &[NodeId]) -> bool {
    if path.is_empty() {
        return false;
    }
    let mut seen = NodeSet::new();
    for v in path {
        if !g.contains_node(*v) || !seen.insert(*v) {
            return false;
        }
    }
    path.windows(2).all(|w| g.has_edge(w[0], w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn path_graph_has_one_path() {
        let g = generators::path_graph(4);
        let p = simple_paths(&g, 0.into(), 3.into(), 10).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0], vec![0.into(), 1.into(), 2.into(), 3.into()]);
    }

    #[test]
    fn cycle_has_two_paths() {
        let g = generators::cycle(5);
        let p = simple_paths(&g, 0.into(), 2.into(), 10).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.iter().all(|path| is_simple_path(&g, path)));
    }

    #[test]
    fn complete_graph_path_count() {
        // K5, paths from 0 to 4: sum over k of P(3,k) = 1 + 3 + 6 + 6 = 16.
        let g = generators::complete(5);
        assert_eq!(count_simple_paths(&g, 0.into(), 4.into(), 100).unwrap(), 16);
    }

    #[test]
    fn budget_is_enforced() {
        let g = generators::complete(6);
        let err = simple_paths(&g, 0.into(), 5.into(), 3).unwrap_err();
        assert_eq!(err.budget, 3);
        assert!(err.to_string().contains("budget of 3"));
    }

    #[test]
    fn disconnected_or_absent_endpoints_yield_no_paths() {
        let mut g = generators::path_graph(2);
        g.add_node(5.into());
        assert!(simple_paths(&g, 0.into(), 5.into(), 10).unwrap().is_empty());
        assert!(simple_paths(&g, 0.into(), 9.into(), 10).unwrap().is_empty());
    }

    #[test]
    fn walk_prunes_dead_ends_and_stops_at_the_first_rejection() {
        // 0–1–3 and 0–2–3, plus a dead end 0–4–5 that reaches no 3.
        let mut g = Graph::new();
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 5)] {
            g.add_edge(NodeId::new(u), NodeId::new(v));
        }
        let mut seen = Vec::new();
        assert!(every_simple_path(&g, 0.into(), 3.into(), |p| {
            seen.push(p.to_vec());
            true
        }));
        assert_eq!(seen, simple_paths(&g, 0.into(), 3.into(), 10).unwrap());
        let mut calls = 0;
        assert!(!every_simple_path(&g, 0.into(), 3.into(), |_| {
            calls += 1;
            false
        }));
        assert_eq!(calls, 1);
        // No paths at all: vacuously true, `keep` never runs.
        assert!(every_simple_path(&g, 0.into(), 0.into(), |_| false));
        assert!(every_simple_path(&g, 0.into(), 9.into(), |_| false));
    }

    #[test]
    fn simple_path_validation() {
        let g = generators::cycle(4);
        assert!(is_simple_path(&g, &[0.into(), 1.into(), 2.into()]));
        assert!(!is_simple_path(&g, &[0.into(), 2.into()])); // not adjacent
        assert!(!is_simple_path(&g, &[0.into(), 1.into(), 0.into()])); // repeat
        assert!(!is_simple_path(&g, &[])); // empty
        assert!(is_simple_path(&g, &[3.into()])); // single node
    }
}
