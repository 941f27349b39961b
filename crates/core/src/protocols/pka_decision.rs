//! The receiver's decision subroutine of RMT-PKA (Protocol 1, subroutine
//! *decision*): full message sets (Definition 5) and adversary covers
//! (Definition 6).
//!
//! The receiver accumulates type-1 messages (value + propagation trail) and
//! type-2 messages (a node's claimed view γ(u) and local structure 𝒵_u).
//! Corrupted nodes can inject *conflicting* claims about the same node and
//! entirely fictitious nodes, so a candidate valid set M corresponds to a
//! *selection*: one claim per claimed node (conflicts arise only through
//! corrupted trails, so honest information always survives as one of the
//! options). For each selection the engine
//!
//! 1. builds `G_M` — the subgraph induced by the joint claimed view on the
//!    claiming node set `V_M` (plus the receiver's own knowledge);
//! 2. checks **fullness** (Definition 5): every D–R path of `G_M` must have
//!    arrived as a type-1 trail carrying `x`. One walk over the D–R paths
//!    ([`paths::every_simple_path`]) keeps the values that hold each path
//!    and stops as soon as none is left, so the paths are never listed;
//!    the first value left, in value order, is the candidate `x`;
//! 3. only for a full `x`, searches for an **adversary cover**
//!    (Definition 6): a D–R cut `C` of `G_M` with `C ∩ V(γ(B)) ∈ 𝒵_B`,
//!    where `B` is R's component of `G_M ∖ C` and `𝒵_B` is the joint of the
//!    *claimed* structures of `B` (evaluated with the cylinder membership
//!    test — never materialized). The cover does not depend on `x`, so
//!    running it second changes no answer; the first full, cover-free
//!    `(selection, x)` decides `x`.
//!
//! Everything is budgeted ([`DecisionConfig`]); exceeding a budget makes the
//! receiver *conservative* (it abstains rather than risking an unverified
//! decision), preserving safety unconditionally — the [`truncated`] flag
//! records that feasibility may have been under-reported.
//!
//! [`truncated`]: ReceiverState::truncated
//!
//! Deviation from the paper's presentation (documented in DESIGN.md): the
//! subroutine runs once per round instead of once per received message —
//! observationally equivalent in a synchronous model.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use rmt_adversary::AdversaryStructure;
use rmt_graph::separators::{self, AnchorScan};
use rmt_graph::{paths, traversal, Graph};
use rmt_obs::Registry;
use rmt_sets::{NodeId, NodeSet};

use crate::protocols::rmt_pka::knowledge_model_bits;
use crate::protocols::Value;
use crate::wire;

/// Budgets for the receiver's (exponential in the worst case) decision
/// search.
#[derive(Clone, Copy, Debug)]
pub struct DecisionConfig {
    /// Maximum number of claim selections examined per round.
    pub max_selections: usize,
    /// Maximum `|V_M| − 2` for the exhaustive adversary-cover search
    /// (the search visits `2^(|V_M|−2)` subsets). It bounds only that
    /// fallback, which runs when the anchored cover scan overruns its own
    /// budget; past it the receiver abstains and sets `truncated`.
    pub max_cover_candidates: usize,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            max_selections: 256,
            max_cover_candidates: 22,
        }
    }
}

/// One node's claimed knowledge, as carried by a type-2 message.
///
/// Claims are shared behind an `Arc`: a session frame builds each one once,
/// and every relayed copy and every receiver slot holds a reference. `Eq`
/// gives `Arc<Claim>`'s equality a pointer fast path, so a shared copy
/// dedups without comparing views.
///
/// A claim is immutable and remembers its encoded size: the first
/// [`encode`](Claim::encode) counts the [`wire::encode_claim`] bytes of its
/// view and structure, so every later frame that carries the claim is sized
/// without walking it again, and a claim that is never sized never counts.
/// Its [`model_bits`](Claim::model_bits) are kept the same way.
#[derive(Clone)]
pub struct Claim {
    view: Graph,
    structure: AdversaryStructure,
    /// The [`wire::encode_claim`] length of `view` and `structure`, counted
    /// on first use.
    wire_len: OnceLock<usize>,
    /// [`knowledge_model_bits`] of `view` and `structure`, counted on first
    /// use.
    model_bits: OnceLock<usize>,
}

impl Claim {
    /// The claim `(view, structure)`.
    pub fn new(view: Graph, structure: AdversaryStructure) -> Self {
        Claim {
            view,
            structure,
            wire_len: OnceLock::new(),
            model_bits: OnceLock::new(),
        }
    }

    /// The claimed view γ(u).
    pub fn view(&self) -> &Graph {
        &self.view
    }

    /// The claimed local structure 𝒵_u.
    pub fn structure(&self) -> &AdversaryStructure {
        &self.structure
    }

    /// The model-layer bits of a knowledge message carrying this claim,
    /// trail excluded ([`knowledge_model_bits`]); the message costs
    /// [`MODEL_ID_BITS`](crate::protocols::rmt_pka::MODEL_ID_BITS) more per
    /// trail node.
    pub fn model_bits(&self) -> usize {
        *self
            .model_bits
            .get_or_init(|| knowledge_model_bits(&self.view, &self.structure))
    }

    /// Writes [`wire::encode_claim`] of the view and structure as one
    /// chunk of the cached length.
    pub fn encode(&self, out: &mut impl wire::Sink) {
        let len = *self.wire_len.get_or_init(|| {
            wire::encoded_len(|out| wire::encode_claim(&self.view, &self.structure, out))
        });
        out.chunk(len, |out| {
            wire::encode_claim(&self.view, &self.structure, out)
        });
    }
}

/// Equality of view and structure; the cached size is derived.
impl PartialEq for Claim {
    fn eq(&self, other: &Self) -> bool {
        self.view == other.view && self.structure == other.structure
    }
}

impl Eq for Claim {}

/// Prints `Claim { view, structure }`; the cached size is derived.
impl fmt::Debug for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Claim")
            .field("view", &self.view)
            .field("structure", &self.structure)
            .finish()
    }
}

/// The receiver's accumulated messages and decision engine.
///
/// A clone shares the receiver's own knowledge, held as one `Arc<Claim>`,
/// so a session's per-slot states bump a reference count instead of
/// copying a view and a structure each.
#[derive(Clone, Debug)]
pub struct ReceiverState {
    me: NodeId,
    dealer: NodeId,
    /// The receiver's own view and structure, shared by every slot of a
    /// session.
    own: Arc<Claim>,
    /// Received dealer-value trails, as full D…R paths, grouped by value.
    type1: BTreeMap<Value, HashSet<Vec<NodeId>>>,
    /// Claims per node; conflicting claims are kept side by side.
    claims: BTreeMap<NodeId, Vec<Arc<Claim>>>,
    /// `true` once any search budget was exceeded (feasibility may be
    /// under-reported; safety is unaffected).
    pub truncated: bool,
    /// Claims dropped as self-inconsistent (structure escaping the view, or
    /// view not containing the node).
    pub malformed_claims: u64,
    /// Claim selections examined across all [`ReceiverState::decide`] calls.
    pub selections_examined: u64,
    /// Adversary-cover searches run across all [`ReceiverState::decide`]
    /// calls: one per selection that some value fills.
    pub covers_checked: u64,
}

impl ReceiverState {
    /// Creates the engine for receiver `me` with its own knowledge.
    pub fn new(
        me: NodeId,
        dealer: NodeId,
        my_view: Graph,
        my_structure: AdversaryStructure,
    ) -> Self {
        ReceiverState {
            me,
            dealer,
            own: Arc::new(Claim::new(my_view, my_structure)),
            type1: BTreeMap::new(),
            claims: BTreeMap::new(),
            truncated: false,
            malformed_claims: 0,
            selections_examined: 0,
            covers_checked: 0,
        }
    }

    /// Ingests a validated type-1 message: `trail` is the propagation trail
    /// (ending at the neighbour that delivered it); the stored D–R path is
    /// `trail ‖ me`.
    pub fn ingest_value(&mut self, value: Value, trail: &[NodeId]) {
        let mut path = trail.to_vec();
        path.push(self.me);
        self.type1.entry(value).or_default().insert(path);
    }

    /// The received type-1 messages: value ↦ stored D–R paths
    /// (`trail ‖ me`), in value order.
    pub fn type1(&self) -> &BTreeMap<Value, HashSet<Vec<NodeId>>> {
        &self.type1
    }

    /// Ingests a validated type-2 message: node `u` claims knowledge
    /// `(view, structure)`. A thin wrapper over
    /// [`ingest_shared_claim`](Self::ingest_shared_claim).
    pub fn ingest_claim(&mut self, u: NodeId, view: Graph, structure: AdversaryStructure) {
        self.ingest_shared_claim(u, &Arc::new(Claim::new(view, structure)));
    }

    /// Ingests a validated type-2 message by reference: a kept claim costs
    /// a reference-count bump, and a claim already held (the same
    /// allocation, or an equal one) is dropped.
    ///
    /// Self-inconsistent claims (the view does not contain `u`, or the
    /// structure mentions nodes outside the view) are detectably malformed
    /// and dropped.
    pub fn ingest_shared_claim(&mut self, u: NodeId, claim: &Arc<Claim>) {
        if u == self.me {
            // The receiver's own knowledge is authoritative; claims about it
            // are noise by construction.
            self.malformed_claims += 1;
            return;
        }
        if !claim.view.contains_node(u)
            || claim
                .structure
                .maximal_sets()
                .iter()
                .any(|m| !m.is_subset(claim.view.nodes()))
        {
            self.malformed_claims += 1;
            return;
        }
        let entry = self.claims.entry(u).or_default();
        if !entry.contains(claim) {
            entry.push(Arc::clone(claim));
        }
    }

    /// The number of distinct claims currently held for node `u`.
    pub fn claim_count(&self, u: NodeId) -> usize {
        self.claims.get(&u).map_or(0, Vec::len)
    }

    /// Runs the full-message-set propagation rule; `Some(x)` iff some valid,
    /// full, cover-free message set M with `value(M) = x` exists within the
    /// budgets.
    ///
    /// A candidate M is determined by (a) an *exclusion set* E of claiming
    /// nodes whose type-2 messages are left out of M — necessary because a
    /// corrupted node may report honest knowledge while lying about values,
    /// so the honest full set omits it — and (b) one claim per remaining
    /// node with conflicting claims. Exclusion sets are enumerated in
    /// increasing size (the honest run needs E = ∅, an attacked run
    /// |E| ≤ |T|), claim selections by a mixed-radix counter, all under the
    /// shared `max_selections` budget.
    pub fn decide(&mut self, cfg: &DecisionConfig) -> Option<Value> {
        if self.type1.is_empty() || !self.claims.contains_key(&self.dealer) {
            return None;
        }
        let all_nodes: Vec<NodeId> = self.claims.keys().copied().collect();
        let mut excludable: NodeSet = all_nodes.iter().copied().collect();
        excludable.remove(self.dealer); // D must be in V_M for paths to exist

        let mut truncated = false;
        let mut examined = 0usize;
        let mut covers = 0u64;
        let mut result = None;

        'search: for k in 0..=excludable.len() {
            for excluded in excludable.combinations(k) {
                let nodes: Vec<NodeId> = all_nodes
                    .iter()
                    .copied()
                    .filter(|u| !excluded.contains(*u))
                    .collect();
                let radices: Vec<usize> = nodes.iter().map(|u| self.claims[u].len()).collect();
                let mut counter = vec![0usize; nodes.len()];
                loop {
                    if examined >= cfg.max_selections {
                        truncated = true;
                        break 'search;
                    }
                    examined += 1;
                    let selection: Vec<(NodeId, &Claim)> = nodes
                        .iter()
                        .zip(&counter)
                        .map(|(&u, &i)| (u, &*self.claims[&u][i]))
                        .collect();
                    if let Some(x) =
                        self.examine_selection(&selection, cfg, &mut truncated, &mut covers)
                    {
                        result = Some(x);
                        break 'search;
                    }
                    // Advance the mixed-radix counter; done when it wraps.
                    let mut wrapped = true;
                    for (digit, &radix) in counter.iter_mut().zip(&radices) {
                        *digit += 1;
                        if *digit < radix {
                            wrapped = false;
                            break;
                        }
                        *digit = 0;
                    }
                    if wrapped {
                        break;
                    }
                }
            }
        }
        self.truncated |= truncated;
        self.selections_examined += examined as u64;
        self.covers_checked += covers;
        result
    }

    /// [`ReceiverState::decide`] with the search effort recorded in `reg`:
    ///
    /// * `pka.decide_ns` — wall time per call (histogram, stamped by the
    ///   registry's clock);
    /// * `pka.selections_examined` — claim selections examined;
    /// * `pka.covers_checked` — adversary-cover searches run (one per
    ///   selection that some value fills);
    /// * `pka.decisions` — calls that returned a value;
    /// * `pka.truncations` — calls that ran into a budget and abstained
    ///   conservatively;
    ///
    /// plus a `pka.decide` phase span when the registry carries a profiler.
    pub fn decide_observed(&mut self, cfg: &DecisionConfig, reg: &Registry) -> Option<Value> {
        let _phase = reg.phase("pka.decide");
        let _timer = reg.timer("pka.decide_ns");
        let before_examined = self.selections_examined;
        let before_covers = self.covers_checked;
        let before_truncated = self.truncated;
        let result = self.decide(cfg);
        reg.counter("pka.selections_examined")
            .add(self.selections_examined - before_examined);
        reg.counter("pka.covers_checked")
            .add(self.covers_checked - before_covers);
        if result.is_some() {
            reg.counter("pka.decisions").inc();
        }
        if self.truncated && !before_truncated {
            reg.counter("pka.truncations").inc();
        }
        result
    }

    /// Adds this receiver's search effort over its whole run to `reg`, under
    /// the counters [`decide_observed`](Self::decide_observed) keeps per
    /// call: `pka.selections_examined`, `pka.covers_checked`, and
    /// `pka.truncations` (1 if any search ran into a budget). For runs that
    /// call [`decide`](Self::decide) directly, as [`RmtPka`] does.
    ///
    /// [`RmtPka`]: crate::protocols::rmt_pka::RmtPka
    pub fn record_into(&self, reg: &Registry) {
        reg.counter("pka.selections_examined")
            .add(self.selections_examined);
        reg.counter("pka.covers_checked").add(self.covers_checked);
        reg.counter("pka.truncations")
            .add(u64::from(self.truncated));
    }

    /// Examines one claim selection: builds G_M, looks for a value whose
    /// paths make M full, and only then rejects M if an adversary cover
    /// exists (counted in `covers`).
    fn examine_selection(
        &self,
        selection: &[(NodeId, &Claim)],
        cfg: &DecisionConfig,
        truncated: &mut bool,
        covers: &mut u64,
    ) -> Option<Value> {
        // V_M: the claiming nodes plus the receiver itself (whose knowledge
        // R holds locally).
        let mut v_m: NodeSet = selection.iter().map(|(u, _)| *u).collect();
        v_m.insert(self.me);
        if !v_m.contains(self.dealer) {
            return None;
        }

        // γ(V_M) and the induced G_M.
        let mut joint = self.own.view.clone();
        for (_, claim) in selection {
            joint.union_with(&claim.view);
        }
        let g_m = joint.induced(&v_m);
        if !g_m.contains_node(self.dealer) || !g_m.contains_node(self.me) {
            return None;
        }

        // No D–R path in G_M: nothing to be full, no decision.
        if !traversal::reachable(&g_m, self.dealer).contains(self.me) {
            return None;
        }

        // Fullness: every D–R path of G_M must have arrived carrying x. The
        // walk drops each value missing a path and stops once none is left.
        let mut full: Vec<_> = self.type1.iter().collect();
        if !paths::every_simple_path(&g_m, self.dealer, self.me, |path| {
            full.retain(|(_, received)| received.contains(path));
            !full.is_empty()
        }) {
            return None;
        }
        let (&x, _) = *full.first()?;

        *covers += 1;
        if self.has_adversary_cover(&g_m, &v_m, selection, cfg, truncated) {
            return None;
        }
        Some(x)
    }

    /// Search for an adversary cover of M (Definition 6).
    ///
    /// It tries the separator-anchored scan first (see
    /// `rmt_core::cuts::anchored` for the charging argument): a cover exists
    /// iff some connected `B ∋ R` of `G_M` with `D ∉ N[B]` makes `C = N(B)`
    /// a cover, since the claimed structures are subset-closed so the cover
    /// condition is monotone in `C` for fixed `B`. Only if the anchored scan
    /// overruns its budget does the `2^|candidates|` subset scan run, and
    /// `max_cover_candidates` bounds only that fallback: a selection with
    /// more cut candidates (`|V_M| − 2`) abstains conservatively (reported
    /// as a cover, with `truncated` set) instead of running it.
    fn has_adversary_cover(
        &self,
        g_m: &Graph,
        v_m: &NodeSet,
        selection: &[(NodeId, &Claim)],
        cfg: &DecisionConfig,
        truncated: &mut bool,
    ) -> bool {
        if g_m.has_edge(self.dealer, self.me) {
            return false; // no D–R cut of G_M at all
        }
        // Claimed knowledge per node, for the joint-structure membership.
        let knowledge: BTreeMap<NodeId, (&Graph, &AdversaryStructure)> = selection
            .iter()
            .map(|(u, c)| (*u, (&c.view, &c.structure)))
            .chain(std::iter::once((
                self.me,
                (&self.own.view, &self.own.structure),
            )))
            .collect();

        if let Some(covered) = self.anchored_cover(g_m, &knowledge) {
            return covered;
        }
        let mut candidates = v_m.clone();
        candidates.remove(self.dealer);
        candidates.remove(self.me);
        if candidates.len() > cfg.max_cover_candidates {
            // Cannot verify the absence of a cover: abstain conservatively.
            *truncated = true;
            return true;
        }

        'cuts: for c in candidates.subsets() {
            let b = traversal::reachable_avoiding(g_m, self.me, &c);
            if b.contains(self.dealer) {
                continue; // not a cut of G_M
            }
            let trace = c.intersection(&claimed_domain(&b, &knowledge));
            if self.trace_inadmissible(&b, &trace, &knowledge) {
                continue 'cuts;
            }
            return true;
        }
        false
    }

    /// The anchored cover scan; `None` means a budget overflowed and the
    /// caller must fall back to the exhaustive subset scan.
    fn anchored_cover(
        &self,
        g_m: &Graph,
        knowledge: &BTreeMap<NodeId, (&Graph, &AdversaryStructure)>,
    ) -> Option<bool> {
        const MAX_SEPARATORS: usize = 2048;
        const MAX_COMPONENTS_PER_ANCHOR: u64 = 1 << 18;
        let anchors = separators::cut_anchors(g_m, self.dealer, self.me, MAX_SEPARATORS).ok()?;
        for anchor in &anchors {
            let mut covered = false;
            let stats = separators::scan_anchor(
                g_m,
                anchor,
                self.me,
                MAX_COMPONENTS_PER_ANCHOR,
                |b, cut| {
                    let trace = cut.intersection(&claimed_domain(b, knowledge));
                    if !self.trace_inadmissible(b, &trace, knowledge) {
                        covered = true;
                        return false;
                    }
                    true
                },
            );
            if covered {
                return Some(true);
            }
            if stats.outcome == AnchorScan::BudgetExceeded {
                return None;
            }
        }
        Some(false)
    }

    /// `true` iff some node of `B` refutes the trace — the cut is then *not*
    /// a cover; `false` means the trace is jointly admissible (cover found).
    fn trace_inadmissible(
        &self,
        b: &NodeSet,
        trace: &NodeSet,
        knowledge: &BTreeMap<NodeId, (&Graph, &AdversaryStructure)>,
    ) -> bool {
        // 𝒵_B membership via the cylinder test over claimed structures.
        b.iter().any(|u| {
            knowledge.get(&u).is_some_and(|(view, structure)| {
                !structure.contains(&trace.intersection(view.nodes()))
            })
        })
    }
}

/// γ(B) from the claimed views of B.
fn claimed_domain(
    b: &NodeSet,
    knowledge: &BTreeMap<NodeId, (&Graph, &AdversaryStructure)>,
) -> NodeSet {
    let mut gamma_b = NodeSet::new();
    for u in b {
        if let Some((view, _)) = knowledge.get(&u) {
            gamma_b.union_with(view.nodes());
        }
    }
    gamma_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_graph::ViewKind;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    /// Diamond D=0, relays 1,2, R=3 with ad hoc views and 𝒵 = {{1}}.
    fn setup(z_sets: &[&[u32]]) -> (ReceiverState, Graph, AdversaryStructure) {
        let mut g = Graph::new();
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 2.into());
        g.add_edge(1.into(), 3.into());
        g.add_edge(2.into(), 3.into());
        let z = AdversaryStructure::from_sets(
            z_sets
                .iter()
                .map(|s| s.iter().copied().collect::<NodeSet>()),
        );
        let me = NodeId::new(3);
        let my_view = ViewKind::AdHoc.view_of(&g, me);
        let my_structure = z.restrict_sets(my_view.nodes());
        (
            ReceiverState::new(me, 0.into(), my_view, my_structure),
            g,
            z,
        )
    }

    fn feed_honest(
        state: &mut ReceiverState,
        g: &Graph,
        z: &AdversaryStructure,
        x: Value,
        skip: &NodeSet,
    ) {
        // Claims from every non-receiver node not in `skip`.
        for u in g.nodes() {
            if u == state.me || skip.contains(u) {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        // Trails through honest relays.
        for relay in [1u32, 2] {
            if !skip.contains(relay.into()) {
                state.ingest_value(x, &[0.into(), relay.into()]);
            }
        }
    }

    #[test]
    fn full_honest_information_decides() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
        assert!(!state.truncated);
    }

    #[test]
    fn silent_tolerated_corruption_still_decides() {
        // Node 1 silent (𝒵 = {{1}}): G_M misses 1, the only cover candidate
        // is {2} which is not admissible for B = {3}.
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &set(&[1]));
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn cover_blocks_decision_when_both_relays_are_suspect() {
        // 𝒵 = {{1},{2}}: with node 1 silent, C = {2} is an adversary cover
        // of the received M — R must abstain.
        let (mut state, g, z) = setup(&[&[1], &[2]]);
        feed_honest(&mut state, &g, &z, 7, &set(&[1]));
        assert_eq!(state.decide(&DecisionConfig::default()), None);
    }

    #[test]
    fn exclusion_recovers_fullness_when_a_path_is_missing() {
        // All claims arrive but only the trail through 2 carries the value:
        // the M containing node 1's claim is not full, but the valid M that
        // *excludes* node 1 is full and cover-free ({2} ∉ 𝒵_R), so R decides
        // — the subset semantics of the full-message-set rule.
        let (mut state, g, z) = setup(&[&[1]]);
        for u in g.nodes() {
            if u == state.me {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(&g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn missing_path_blocks_when_exclusion_would_leave_a_cover() {
        // Same shape but 𝒵 = {{1},{2}}: excluding 1 leaves the cover {2},
        // keeping 1 breaks fullness — R must abstain either way.
        let (mut state, g, z) = setup(&[&[1], &[2]]);
        for u in g.nodes() {
            if u == state.me {
                continue;
            }
            let view = ViewKind::AdHoc.view_of(&g, u);
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u, view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), None);
    }

    #[test]
    fn conflicting_values_on_all_paths_block_decision() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        // Corrupted 1 also injected value 9 over its trail: the 9-set is not
        // full (missing the path through 2), the 7-set is full and decides.
        state.ingest_value(9, &[0.into(), 1.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn malformed_claims_are_dropped() {
        let (mut state, _, _) = setup(&[&[1]]);
        let mut bad_view = Graph::new();
        bad_view.add_edge(0.into(), 2.into()); // does not contain claimant 1
        state.ingest_claim(1.into(), bad_view, AdversaryStructure::trivial());
        assert_eq!(state.malformed_claims, 1);
        assert_eq!(state.claim_count(1.into()), 0);

        let mut view = Graph::new();
        view.add_edge(1.into(), 0.into());
        let escaping = AdversaryStructure::from_sets([set(&[9])]);
        state.ingest_claim(1.into(), view, escaping);
        assert_eq!(state.malformed_claims, 2);
    }

    #[test]
    fn shared_and_equal_claims_dedup_by_pointer_or_value() {
        let (mut state, g, z) = setup(&[&[1]]);
        let view = ViewKind::AdHoc.view_of(&g, 1.into());
        let structure = z.restrict_sets(view.nodes());
        let claim = Arc::new(Claim::new(view.clone(), structure.clone()));
        // The same allocation twice: one claim, shared with the caller.
        state.ingest_shared_claim(1.into(), &claim);
        state.ingest_shared_claim(1.into(), &claim);
        assert_eq!(state.claim_count(1.into()), 1);
        assert_eq!(Arc::strong_count(&claim), 2);
        // An equal claim in a fresh allocation (a decoded frame's) still
        // dedups, by value.
        state.ingest_shared_claim(1.into(), &Arc::new(Claim::new(view.clone(), structure)));
        assert_eq!(state.claim_count(1.into()), 1);
        // A different claim about the same node is kept beside it.
        state.ingest_shared_claim(
            1.into(),
            &Arc::new(Claim::new(view, AdversaryStructure::trivial())),
        );
        assert_eq!(state.claim_count(1.into()), 2);
    }

    #[test]
    fn conflicting_claims_enumerate_both_options() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        // A second, fake claim about node 2 with an absurd view: the honest
        // selection still exists and decides.
        let mut fake = Graph::new();
        fake.add_edge(2.into(), 9.into());
        fake.add_node(2.into());
        state.ingest_claim(2.into(), fake, AdversaryStructure::trivial());
        assert_eq!(state.claim_count(2.into()), 2);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
    }

    #[test]
    fn observed_decide_is_transparent_and_records_effort() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let mut twin = state.clone();
        let reg = Registry::new();
        let prof = rmt_obs::Profiler::new(rmt_obs::Clock::virtual_ns(1));
        reg.attach_profiler(prof.clone());
        let cfg = DecisionConfig::default();
        assert_eq!(state.decide_observed(&cfg, &reg), twin.decide(&cfg));
        assert_eq!(state.truncated, twin.truncated);
        assert_eq!(state.selections_examined, twin.selections_examined);
        assert_eq!(
            reg.counter("pka.selections_examined").get(),
            twin.selections_examined
        );
        assert_eq!(reg.counter("pka.decisions").get(), 1);
        assert_eq!(reg.counter("pka.truncations").get(), 0);
        assert_eq!(reg.histogram("pka.decide_ns").count(), 1);
        let roots = rmt_obs::span_tree(&prof.events()).expect("well nested");
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "pka.decide");
    }

    #[test]
    fn exhausted_selection_budget_sets_truncated() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let cfg = DecisionConfig {
            max_selections: 0,
            ..DecisionConfig::default()
        };
        assert_eq!(state.decide(&cfg), None);
        assert!(state.truncated);
    }

    #[test]
    fn cover_budget_forces_conservative_abstention() {
        // D = 0 and R = 1 joined by seven disjoint three-relay paths: 3^7 =
        // 2187 minimal D–R separators overrun the anchored scan's 2048, so
        // only the exhaustive fallback could answer, and its 21 candidates
        // exceed the budget of 0.
        let mut g = Graph::new();
        for path in 0..7u32 {
            let relays = [2 + 3 * path, 3 + 3 * path, 4 + 3 * path];
            g.add_edge(0.into(), relays[0].into());
            g.add_edge(relays[0].into(), relays[1].into());
            g.add_edge(relays[1].into(), relays[2].into());
            g.add_edge(relays[2].into(), 1.into());
        }
        let me = NodeId::new(1);
        let view_of = |u: NodeId| ViewKind::AdHoc.view_of(&g, u);
        let mut state =
            ReceiverState::new(me, 0.into(), view_of(me), AdversaryStructure::trivial());
        let claims: Vec<(NodeId, Claim)> = g
            .nodes()
            .iter()
            .filter(|&u| u != me)
            .map(|u| (u, Claim::new(view_of(u), AdversaryStructure::trivial())))
            .collect();
        let selection: Vec<(NodeId, &Claim)> = claims.iter().map(|(u, c)| (*u, c)).collect();
        let cfg = DecisionConfig {
            max_cover_candidates: 0,
            ..DecisionConfig::default()
        };
        // Unable to verify the absence of a cover, R abstains (safely).
        let mut truncated = false;
        assert!(state.has_adversary_cover(&g, g.nodes(), &selection, &cfg, &mut truncated));
        assert!(truncated);

        // Through `decide`: 7 fills the full selection, which abstains and
        // sets `truncated`. `decide` then tries smaller selections; the next
        // one leaves out relay 2 and with it a path, and its 3^6 = 729
        // separators are within the anchored scan's budget, so R decides on
        // it and the flag stays set. (`decide` cannot return `None` on the
        // gate alone: a graph big enough to overrun the anchored scan has
        // more selections than `max_selections` admits.)
        for (u, claim) in &claims {
            state.ingest_claim(*u, claim.view().clone(), claim.structure().clone());
        }
        for path in 0..7u32 {
            let trail = [0, 2 + 3 * path, 3 + 3 * path, 4 + 3 * path].map(NodeId::new);
            state.ingest_value(7, &trail);
        }
        assert_eq!(state.decide(&cfg), Some(7));
        assert!(state.truncated);
        assert_eq!(state.selections_examined, 2);
        assert_eq!(state.covers_checked, 2);
    }

    #[test]
    fn cover_budget_waits_for_the_anchored_scan() {
        // The diamond's two cut candidates exceed a budget of 0, but the
        // anchored scan answers alone: no cover, so R decides, untruncated.
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let cfg = DecisionConfig {
            max_cover_candidates: 0,
            ..DecisionConfig::default()
        };
        assert_eq!(state.decide(&cfg), Some(7));
        assert!(!state.truncated);
        assert_eq!(state.covers_checked, 1);
    }

    #[test]
    fn no_full_selection_never_runs_the_cover() {
        // Only D and relay 1 send claims, and the one trail arrives via
        // relay 2. The selection {D, 1} has the D–R path 0–1–3, which no
        // value holds; {D} alone has no D–R path. With no full value the
        // cover never runs, so its zero candidate budget cannot fire.
        let (mut state, g, z) = setup(&[&[1]]);
        for u in [0u32, 1] {
            let view = ViewKind::AdHoc.view_of(&g, u.into());
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u.into(), view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        let cfg = DecisionConfig {
            max_cover_candidates: 0,
            ..DecisionConfig::default()
        };
        assert_eq!(state.decide(&cfg), None);
        assert!(!state.truncated);
        assert_eq!(state.selections_examined, 2);
        assert_eq!(state.covers_checked, 0);
    }

    #[test]
    fn only_the_full_value_decides_even_when_larger() {
        // 9 arrives on both trails, 7 only via relay 1: the first selection
        // is full for 9 alone, which decides after one cover search.
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 9, &NodeSet::new());
        state.ingest_value(7, &[0.into(), 1.into()]);
        let reg = Registry::new();
        assert_eq!(
            state.decide_observed(&DecisionConfig::default(), &reg),
            Some(9)
        );
        assert_eq!(state.selections_examined, 1);
        assert_eq!(state.covers_checked, 1);
        assert_eq!(reg.counter("pka.covers_checked").get(), 1);
    }

    use rmt_graph::Graph;
}
