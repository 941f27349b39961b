//! Analytic message-complexity predictors, cross-validated against the
//! simulator's metrics.
//!
//! For *honest* runs (silent adversary) both protocols are deterministic
//! enough to count exactly:
//!
//! * **Z-CPA**: the dealer sends `deg(D)` messages; every honest node that
//!   decides (the fixpoint set) relays once — except the receiver, which
//!   outputs instead. Exact closed form from the fixpoint.
//! * **RMT-PKA**: a message with trail `p` is sent by `tail(p)` to all its
//!   neighbours, and trails range over the simple paths that avoid the
//!   receiver as an intermediate node. Counting trails weighted by the
//!   tail's degree gives the exact type-1 count; type-2 repeats the count
//!   from every originator.
//!
//! The equalities are verified per-instance in this module's tests and give
//! experiment E6 its analytic backbone: the protocols' costs are not just
//! measured, they are *predicted*.

use rmt_graph::Graph;
use rmt_sets::{NodeId, NodeSet};

use crate::cuts::zcpa_fixpoint;
use crate::instance::Instance;

/// Exact honest-run (silent corruption) Z-CPA message count.
///
/// `corrupted` nodes send nothing; honest deciders (per the fixpoint) relay
/// once to all neighbours, the receiver excepted.
pub fn zcpa_honest_messages(inst: &Instance, corrupted: &NodeSet) -> u64 {
    let g = inst.graph();
    let dealer_sends = g.degree(inst.dealer()) as u64;
    let decided = zcpa_fixpoint(inst, corrupted, None);
    let relays: u64 = decided
        .iter()
        .filter(|v| *v != inst.receiver())
        .map(|v| g.degree(v) as u64)
        .sum();
    dealer_sends + relays
}

/// Error from the path-counting predictors when the trail space exceeds the
/// budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrailBudgetExceeded;

impl std::fmt::Display for TrailBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trail enumeration exceeded its budget")
    }
}

impl std::error::Error for TrailBudgetExceeded {}

/// Sum over all simple paths `p` starting at `origin` (of length ≥ 1 node),
/// never revisiting and never extending *into* `forbidden` nodes, of
/// `deg(tail(p))` — the number of copies the tail broadcasts.
///
/// This is the exact per-originator message count of trail propagation: the
/// originator sends `deg(origin)` copies of `(a, [origin])`, every valid
/// extension `p‖v` is re-broadcast by `v`, and trails stop growing at
/// `forbidden` nodes — the receiver never forwards, and neither does the
/// dealer (it terminates after its initial sends). The origin itself may be
/// a forbidden node (the dealer originates its own floods).
fn trail_copies(
    g: &Graph,
    origin: NodeId,
    forbidden: &NodeSet,
    budget: &mut u64,
) -> Result<u64, TrailBudgetExceeded> {
    fn rec(
        g: &Graph,
        v: NodeId,
        on_path: &mut NodeSet,
        forbidden: &NodeSet,
        budget: &mut u64,
    ) -> Result<u64, TrailBudgetExceeded> {
        if *budget == 0 {
            return Err(TrailBudgetExceeded);
        }
        *budget -= 1;
        // v broadcasts the current trail to all its neighbours…
        let mut total = g.degree(v) as u64;
        // …and every neighbour that accepts (not on the trail, not
        // forbidden) re-broadcasts the extended trail.
        for u in g.neighbors(v) {
            if !on_path.contains(u) && !forbidden.contains(u) {
                on_path.insert(u);
                total += rec(g, u, on_path, forbidden, budget)?;
                on_path.remove(u);
            }
        }
        Ok(total)
    }
    if !g.contains_node(origin) {
        return Ok(0);
    }
    let mut on_path = NodeSet::singleton(origin);
    rec(g, origin, &mut on_path, forbidden, budget)
}

/// Exact honest-run RMT-PKA message count (no corruption): the dealer's two
/// initial floods (value + knowledge) plus one knowledge flood per relay.
///
/// # Errors
///
/// Returns [`TrailBudgetExceeded`] if more than `budget` trail extensions
/// would have to be enumerated.
pub fn pka_honest_messages(inst: &Instance, budget: u64) -> Result<u64, TrailBudgetExceeded> {
    let g = inst.graph();
    let r = inst.receiver();
    let mut forbidden = NodeSet::singleton(r);
    forbidden.insert(inst.dealer()); // the dealer terminates after start
    let mut budget = budget;
    // Type 1 + the dealer's own type 2: two identical floods from D.
    let from_dealer = trail_copies(g, inst.dealer(), &forbidden, &mut budget)?;
    let mut total = 2 * from_dealer;
    // Each relay's knowledge flood (the receiver originates nothing).
    for v in g.nodes() {
        if v != inst.dealer() && v != r {
            total += trail_copies(g, v, &forbidden, &mut budget)?;
        }
    }
    Ok(total)
}

/// Exact per-node decision rounds of a worst-case (silent-corruption)
/// Z-CPA run, indexed by [`NodeId::index`]: the dealer decides at round 0,
/// dealer-neighbours at round 1, and every other honest node at the first
/// round its accumulated certifying class escapes 𝒵_v. `None` for corrupted
/// or never-certified nodes.
///
/// A decided node relays in its decision round and its value arrives one
/// round later; the receiver never relays. Matches the simulation exactly
/// (tested below), giving the round-complexity claims of Theorem 9's proof
/// ("at least one new player decides every round") an executable form.
pub fn zcpa_decision_rounds(inst: &Instance, corrupted: &NodeSet) -> Vec<Option<u32>> {
    let g = inst.graph();
    let (d, r) = (inst.dealer(), inst.receiver());
    let size = g.nodes().last().map_or(0, |v| v.index() + 1);
    let mut decided_at: Vec<Option<u32>> = vec![None; size];
    decided_at[d.index()] = Some(0);

    for round in 1..=g.node_count() as u32 + 2 {
        let mut progress = false;
        for u in g.nodes() {
            if u == d || corrupted.contains(u) || decided_at[u.index()].is_some() {
                continue;
            }
            if g.has_edge(u, d) {
                // The dealer's value arrived in round 1.
                if round == 1 {
                    decided_at[u.index()] = Some(1);
                    progress = true;
                }
                continue;
            }
            // Values received by `round`: senders decided (and relayed) by
            // round − 1; the receiver never relays.
            let class: NodeSet = g
                .neighbors(u)
                .iter()
                .filter(|&w| {
                    w != r
                        && !corrupted.contains(w)
                        && decided_at[w.index()].is_some_and(|s| s < round)
                })
                .collect();
            if !inst.local_contains(u, &class) {
                decided_at[u.index()] = Some(round);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    decided_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::rmt_pka::run_pka;
    use crate::protocols::zcpa::run_zcpa;
    use crate::sampling;
    use rmt_graph::{generators, ViewKind};
    use rmt_sim::SilentAdversary;

    #[test]
    fn zcpa_prediction_is_exact_on_random_instances() {
        let mut rng = generators::seeded(1001);
        for trial in 0..25 {
            let n = 5 + trial % 5;
            let inst = sampling::random_instance(n, 0.4, ViewKind::AdHoc, 3, 2, &mut rng);
            for t in inst.worst_case_corruptions() {
                let predicted = zcpa_honest_messages(&inst, &t);
                let out = run_zcpa(&inst, 7, SilentAdversary::new(t.clone()));
                assert_eq!(
                    out.metrics.honest_messages, predicted,
                    "trial {trial}, T = {t}: {inst:?}"
                );
            }
        }
    }

    #[test]
    fn pka_prediction_is_exact_on_random_instances() {
        let mut rng = generators::seeded(1002);
        for trial in 0..15 {
            let n = 5 + trial % 3;
            let inst = sampling::random_instance(n, 0.4, ViewKind::AdHoc, 2, 2, &mut rng);
            let predicted = pka_honest_messages(&inst, 1 << 22).unwrap();
            let out = run_pka(&inst, 7, SilentAdversary::new(rmt_sets::NodeSet::new()));
            assert_eq!(
                out.metrics.honest_messages, predicted,
                "trial {trial}: {inst:?}"
            );
        }
    }

    #[test]
    fn pka_prediction_on_the_diamond_by_hand() {
        // Diamond D=0, relays 1,2, R=3; trails never extend into D or R.
        // Dealer floods: [0] (deg 2), [0,1] (deg 2), [0,2] (deg 2) = 6
        // copies each for the value and the dealer's knowledge → 12.
        // Relay knowledge floods: [1] (deg 2) and [2] (deg 2) — extensions
        // into 0 or 3 are terminal → 4. Total 16.
        let inst = crate::gallery::tolerant_diamond(ViewKind::AdHoc);
        assert_eq!(pka_honest_messages(&inst, 1 << 16), Ok(16));
        let out = run_pka(&inst, 7, SilentAdversary::new(rmt_sets::NodeSet::new()));
        assert_eq!(out.metrics.honest_messages, 16);
    }

    #[test]
    fn decision_round_prediction_is_exact_per_node() {
        let mut rng = generators::seeded(1003);
        for trial in 0..20 {
            let n = 5 + trial % 5;
            let inst = sampling::random_instance(n, 0.45, ViewKind::AdHoc, 3, 2, &mut rng);
            for t in inst.worst_case_corruptions() {
                let predicted = zcpa_decision_rounds(&inst, &t);
                let out = run_zcpa(&inst, 7, SilentAdversary::new(t.clone()));
                for v in inst.graph().nodes() {
                    if t.contains(v) {
                        continue;
                    }
                    let sim = out.protocol(v).and_then(|p| p.decided_at());
                    assert_eq!(
                        sim,
                        predicted[v.index()],
                        "trial {trial}, T = {t}, node {v}: {inst:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn decision_rounds_track_distance_on_king_grids() {
        // On a king grid with t = 1 the certification wave moves one layer
        // per round after the first: round(v) ≥ BFS distance from the dealer.
        let g = generators::king_grid(4, 4);
        let inst = sampling::threshold_instance(g.clone(), 1, ViewKind::AdHoc, 0, 15);
        let rounds = zcpa_decision_rounds(&inst, &rmt_sets::NodeSet::new());
        let dist = rmt_graph::traversal::distances(&g, 0.into());
        for v in g.nodes() {
            if v == inst.dealer() {
                continue;
            }
            let r = rounds[v.index()].expect("honest run certifies everyone");
            assert!(r >= dist[v.index()].unwrap(), "node {v}");
        }
    }

    #[test]
    fn budget_is_enforced() {
        let inst = sampling::threshold_instance(generators::complete(8), 1, ViewKind::AdHoc, 0, 7);
        assert_eq!(pka_honest_messages(&inst, 3), Err(TrailBudgetExceeded));
    }
}
