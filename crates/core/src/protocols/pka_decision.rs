//! The receiver's decision subroutine of RMT-PKA (Protocol 1, subroutine
//! *decision*): full message sets (Definition 5) and adversary covers
//! (Definition 6).
//!
//! The receiver accumulates type-1 messages (value + propagation trail) and
//! type-2 messages (a node's claimed view γ(u) and local structure 𝒵_u).
//! Corrupted nodes can inject *conflicting* claims about the same node and
//! entirely fictitious nodes, so a candidate valid set M corresponds to an
//! *exclusion set* E of claiming nodes left out of M and a *selection*: one
//! claim per kept node (conflicts arise only through corrupted trails, so
//! honest information always survives as one of the options). For each
//! pair the engine
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
//!    *claimed* structures of `B`. That is Definition 3's RMT-cut with
//!    `C₁ = ∅`, so the anchored cut search answers it as its third question
//!    ([`cuts::anchored`](crate::cuts::anchored)), over a
//!    [`KnowledgeCache`] of the selection's claims (membership by the
//!    cylinder test, never materialized). The cover does not depend on `x`,
//!    so running it second changes no answer; the first full, cover-free
//!    `(selection, x)` decides `x`.
//!
//! Which exclusion sets are examined follows from a monotonicity lemma
//! (DESIGN.md §3.3): with the kept nodes' claims fixed, growing E only
//! shrinks `G_M`, and a cover of `G_M` minus the newly excluded nodes
//! stays a cover. So a set that disconnects D from R or has a cover is
//! pruned with all its supersets, and a set that no value fills is
//! refined only by excluding a node that can remove a missing path. The
//! search is a depth-first hitting-set tree over exclusion sets, rooted at
//! each selection of the whole claim pool.
//!
//! Everything is budgeted: the examined (exclusion set, selection) pairs
//! by [`DecisionConfig`], the cover by the default
//! [`AnchorBudget`](crate::cuts::AnchorBudget) and, past it, a
//! 22-candidate gate on the exhaustive fallback. Exceeding a budget makes
//! the receiver *conservative* (it abstains rather than risking an
//! unverified decision), preserving safety unconditionally — the
//! [`truncated`] flag records that feasibility may have been
//! under-reported.
//!
//! [`truncated`]: ReceiverState::truncated
//!
//! Deviation from the paper's presentation (documented in DESIGN.md): the
//! subroutine runs once per round instead of once per received message —
//! observationally equivalent in a synchronous model.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

use rmt_adversary::{AdversaryStructure, RestrictedStructure};
use rmt_graph::{paths, traversal, Graph};
use rmt_obs::Registry;
use rmt_sets::{NodeId, NodeSet};

use crate::cuts::anchored::cover_search;
use crate::knowledge::KnowledgeCache;
use crate::protocols::rmt_pka::knowledge_model_bits;
use crate::protocols::Value;
use crate::wire;

/// The budget of the receiver's (exponential in the worst case) decision
/// search. The cover search keeps its own fixed budgets (see
/// [`cuts::anchored`](crate::cuts::anchored)).
#[derive(Clone, Copy, Debug)]
pub struct DecisionConfig {
    /// Maximum number of (exclusion set, claim selection) pairs examined
    /// per round.
    pub max_selections: usize,
}

impl Default for DecisionConfig {
    fn default() -> Self {
        DecisionConfig {
            max_selections: 256,
        }
    }
}

/// One node's claimed knowledge, as carried by a type-2 message.
///
/// Claims are shared behind an `Arc`: a session frame builds each one once,
/// and every relayed copy and the receiver's claim pool hold a reference. `Eq`
/// gives `Arc<Claim>`'s equality a pointer fast path, so a shared copy
/// dedups without comparing views.
///
/// A claim is immutable and remembers its encoded size: the first
/// [`encode`](Claim::encode) counts the [`wire::encode_claim`] bytes of its
/// view and structure, so every later frame that carries the claim is sized
/// without walking it again, and a claim that is never sized never counts.
/// Its [`model_bits`](Claim::model_bits) are kept the same way, and so is
/// its part of a cover search's [`KnowledgeCache`], which every selection
/// holding the claim shares.
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
    /// `structure` over the nodes of `view`, built on first use.
    part: OnceLock<Arc<RestrictedStructure>>,
}

impl Claim {
    /// The claim `(view, structure)`.
    pub fn new(view: Graph, structure: AdversaryStructure) -> Self {
        Claim {
            view,
            structure,
            wire_len: OnceLock::new(),
            model_bits: OnceLock::new(),
            part: OnceLock::new(),
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

    /// The claim as a [`KnowledgeCache`] part: the structure over the
    /// view's nodes, built once and shared by every cover search that
    /// reads the claim.
    fn part(&self) -> &Arc<RestrictedStructure> {
        self.part.get_or_init(|| {
            let domain = self.view.nodes().clone();
            Arc::new(RestrictedStructure::restrict(&self.structure, domain))
        })
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
/// The claims and the type-1 table are separable: [`decide_on`] decides
/// on a table held outside the state, so a batched session keeps one
/// state (its claim pool) and one table per payload slot. A clone shares
/// the receiver's own knowledge, held as one `Arc<Claim>`.
///
/// [`decide_on`]: ReceiverState::decide_on
#[derive(Clone, Debug)]
pub struct ReceiverState {
    me: NodeId,
    dealer: NodeId,
    /// The receiver's own view and structure.
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
    /// (Exclusion set, claim selection) pairs examined across all
    /// [`ReceiverState::decide`] calls.
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
    /// so the honest full set omits it — and (b) one claim per kept node.
    /// Each claim selection with nothing excluded (in mixed-radix order)
    /// roots a depth-first search over exclusion sets, in the manner of
    /// Reiter's hitting-set tree: each examined set is pruned when no
    /// superset can decide, decides, or names the nodes one of which every
    /// deciding superset excludes, and the search descends into each of
    /// them, smallest id first. A visited set keyed by (exclusion set, kept
    /// nodes' claims) examines no pair twice, and every examined pair
    /// counts against `max_selections`. DESIGN.md §3.3 proves that the
    /// search decides whenever some full, cover-free M exists, so only a
    /// budget can make it miss one.
    pub fn decide(&mut self, cfg: &DecisionConfig) -> Option<Value> {
        self.search_own(cfg, None)
    }

    /// [`decide`](Self::decide) on the type-1 table `type1` instead of the
    /// state's own: value ↦ D–R paths `trail ‖ me`, in value order, as
    /// [`ingest_value`](Self::ingest_value) stores them. The search reads
    /// the state's claims and adds its effort to the state's counters.
    pub fn decide_on(
        &mut self,
        type1: &BTreeMap<Value, HashSet<Vec<NodeId>>>,
        cfg: &DecisionConfig,
    ) -> Option<Value> {
        self.search(type1, cfg, None)
    }

    /// The search on the state's own type-1 table.
    fn search_own(&mut self, cfg: &DecisionConfig, reg: Option<&Registry>) -> Option<Value> {
        let type1 = std::mem::take(&mut self.type1);
        let result = self.search(&type1, cfg, reg);
        self.type1 = type1;
        result
    }

    /// [`decide_on`](Self::decide_on), with the search effort recorded in
    /// `reg` when one is given (see [`decide_observed`](Self::decide_observed)).
    fn search(
        &mut self,
        type1: &BTreeMap<Value, HashSet<Vec<NodeId>>>,
        cfg: &DecisionConfig,
        reg: Option<&Registry>,
    ) -> Option<Value> {
        if type1.is_empty() || !self.claims.contains_key(&self.dealer) {
            return self.tally(None, 0, 0, false, reg);
        }
        let claimed: Vec<(NodeId, &[Arc<Claim>])> = self
            .claims
            .iter()
            .map(|(&u, c)| (u, c.as_slice()))
            .collect();

        let mut truncated = false;
        let mut examined = 0usize;
        let mut covers = 0u64;
        let mut result = None;
        // A search node: each claimed node's claim index, `None` where the
        // node is excluded. Roots come from a mixed-radix counter over the
        // claims, the first one when the stack runs dry.
        let mut next_root = Some(vec![Some(0usize); claimed.len()]);
        let mut stack: Vec<Vec<Option<usize>>> = Vec::new();
        let mut visited: HashSet<Vec<Option<usize>>> = HashSet::new();
        while let Some(choice) = stack.pop().or_else(|| {
            let root = next_root.take()?;
            next_root = next_selection(&root, &claimed);
            Some(root)
        }) {
            if examined >= cfg.max_selections {
                truncated = true;
                break;
            }
            examined += 1;
            let selection: Vec<(NodeId, &Claim)> = claimed
                .iter()
                .zip(&choice)
                .filter_map(|(&(u, claims), i)| Some((u, &*claims[(*i)?])))
                .collect();
            match self.examine_selection(type1, &selection, reg, &mut truncated, &mut covers) {
                Outcome::Prune => {}
                Outcome::Decide(x) => {
                    result = Some(x);
                    break;
                }
                Outcome::Branch(nodes) => {
                    // Pushed largest id first, so the smallest is examined
                    // next. A root has no exclusion, so no child is a root.
                    for (i, &(u, _)) in claimed.iter().enumerate().rev() {
                        if choice[i].is_some() && nodes.contains(u) {
                            let mut child = choice.clone();
                            child[i] = None;
                            if visited.insert(child.clone()) {
                                stack.push(child);
                            }
                        }
                    }
                }
            }
        }
        self.tally(result, examined as u64, covers, truncated, reg)
    }

    /// Adds one search's effort to the state's counters, and to `reg` when
    /// one is given; returns the search's `result`.
    fn tally(
        &mut self,
        result: Option<Value>,
        examined: u64,
        covers: u64,
        truncated: bool,
        reg: Option<&Registry>,
    ) -> Option<Value> {
        if let Some(reg) = reg {
            reg.counter("pka.selections_examined").add(examined);
            reg.counter("pka.covers_checked").add(covers);
            if result.is_some() {
                reg.counter("pka.decisions").inc();
            }
            if truncated && !self.truncated {
                reg.counter("pka.truncations").inc();
            }
        }
        self.truncated |= truncated;
        self.selections_examined += examined;
        self.covers_checked += covers;
        result
    }

    /// [`ReceiverState::decide`] with the search effort recorded in `reg`:
    ///
    /// * `pka.decide_ns` — wall time per call (histogram, stamped by the
    ///   registry's clock);
    /// * `pka.selections_examined` — (exclusion set, claim selection) pairs
    ///   examined;
    /// * `pka.covers_checked` — adversary-cover searches run (one per
    ///   selection that some value fills);
    /// * `pka.decisions` — calls that returned a value;
    /// * `pka.truncations` — 1 for the call in which this state first ran
    ///   into a budget and abstained conservatively, so a state counts at
    ///   most once however many later calls also overrun;
    /// * `pka.cover.*` — the anchored search's counters, histogram and spans
    ///   for each cover search (see METRICS.md);
    ///
    /// plus a `pka.decide` phase span when the registry carries a profiler.
    pub fn decide_observed(&mut self, cfg: &DecisionConfig, reg: &Registry) -> Option<Value> {
        let _phase = reg.phase("pka.decide");
        let _timer = reg.timer("pka.decide_ns");
        self.search_own(cfg, Some(reg))
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

    /// Examines one claim selection, the kept nodes' claims of an
    /// exclusion set E, and says what the search does with E:
    ///
    /// * [`Outcome::Prune`] when D and R are disconnected in G_M, or a full
    ///   value is covered: no superset of E decides (DESIGN.md §3.3);
    /// * [`Outcome::Decide`] when the first full value has no cover;
    /// * [`Outcome::Branch`] when no value is full: for each value's first
    ///   missing D–R path, its interior nodes and, per edge that an
    ///   excludable node alone could remove, one of the kept nodes that
    ///   report it — every superset of E that kills the path excludes one
    ///   of them;
    /// * [`Outcome::Branch`] on every kept node but D, with `truncated` set,
    ///   when no cover search can answer.
    ///
    /// The cover is the anchored search's third question
    /// ([`cuts::anchored`](crate::cuts::anchored)), asked with the
    /// selection's claimed knowledge and only for a full value (counted in
    /// `covers`).
    fn examine_selection(
        &self,
        type1: &BTreeMap<Value, HashSet<Vec<NodeId>>>,
        selection: &[(NodeId, &Claim)],
        reg: Option<&Registry>,
        truncated: &mut bool,
        covers: &mut u64,
    ) -> Outcome {
        // V_M: the claiming nodes plus the receiver itself (whose knowledge
        // R holds locally).
        let mut v_m: NodeSet = selection.iter().map(|(u, _)| *u).collect();
        v_m.insert(self.me);

        // γ(V_M) and the induced G_M.
        let mut joint = self.own.view.clone();
        for (_, claim) in selection {
            joint.union_with(&claim.view);
        }
        let g_m = joint.induced(&v_m);
        if !g_m.contains_node(self.dealer)
            || !g_m.contains_node(self.me)
            || !traversal::reachable(&g_m, self.dealer).contains(self.me)
        {
            return Outcome::Prune;
        }

        // Fullness: every D–R path of G_M must have arrived carrying x. The
        // walk drops each value missing a path, collecting the nodes that
        // could remove that path, and stops once no value is left.
        let mut full: Vec<_> = type1.iter().collect();
        let mut branch = NodeSet::new();
        paths::every_simple_path(&g_m, self.dealer, self.me, |path| {
            let before = full.len();
            full.retain(|(_, received)| received.contains(path));
            if full.len() < before {
                self.path_killers(path, selection, &mut branch);
            }
            !full.is_empty()
        });
        let Some(&(&x, _)) = full.first() else {
            return Outcome::Branch(branch);
        };

        *covers += 1;
        // The claims of V_M, the receiver's own knowledge included.
        let cache = KnowledgeCache::from_parts(
            selection
                .iter()
                .copied()
                .chain(std::iter::once((self.me, &*self.own)))
                .map(|(u, claim)| (u, Arc::clone(claim.part()))),
        );
        match cover_search(&g_m, self.dealer, self.me, &cache, reg) {
            (_, true) => {
                // No search can rule a cover out: R abstains here, and a
                // superset may still decide.
                *truncated = true;
                let mut kept = v_m;
                kept.remove(self.dealer);
                kept.remove(self.me);
                Outcome::Branch(kept)
            }
            (Some(_), false) => Outcome::Prune,
            (None, false) => Outcome::Decide(x),
        }
    }

    /// Adds to `branch` nodes of `selection` one of which every exclusion
    /// set that removes the D–R path `path` from G_M leaves out: the path's
    /// interior nodes, and for each edge that neither R's own view nor D's
    /// claim reports, one kept node reporting it unless `branch` already
    /// holds one (an edge leaves G_M only when all its reporters do).
    fn path_killers(&self, path: &[NodeId], selection: &[(NodeId, &Claim)], branch: &mut NodeSet) {
        branch.extend(path[1..path.len() - 1].iter().copied());
        for edge in path.windows(2) {
            let (a, b) = (edge[0], edge[1]);
            if self.own.view.has_edge(a, b) {
                continue;
            }
            let reporters: Vec<NodeId> = selection
                .iter()
                .filter(|(_, claim)| claim.view.has_edge(a, b))
                .map(|&(u, _)| u)
                .collect();
            if reporters
                .iter()
                .all(|&u| u != self.dealer && !branch.contains(u))
            {
                branch.extend(reporters.first().copied());
            }
        }
    }
}

/// What the receiver's search does with one exclusion set
/// ([`ReceiverState::examine_selection`]).
enum Outcome {
    /// No superset of the set can decide.
    Prune,
    /// The set's message set is full for this value and has no cover.
    Decide(Value),
    /// Every superset that can decide excludes one of these nodes.
    Branch(NodeSet),
}

/// The claim selection after `choice` in mixed-radix order (the first
/// node's claim changing fastest), or `None` after the last.
fn next_selection(
    choice: &[Option<usize>],
    claimed: &[(NodeId, &[Arc<Claim>])],
) -> Option<Vec<Option<usize>>> {
    let mut next = choice.to_vec();
    for (digit, (_, claims)) in next.iter_mut().zip(claimed) {
        let i = digit.map_or(0, |i| i + 1);
        if i < claims.len() {
            *digit = Some(i);
            return Some(next);
        }
        *digit = Some(0);
    }
    None
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
    fn decide_on_an_outside_table_matches_decide() {
        // The same claims and trails, the trails once in the state and once
        // in a table held outside it: same verdict, same effort.
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let mut pool = state.clone();
        let table = std::mem::take(&mut pool.type1);
        let cfg = DecisionConfig::default();
        assert_eq!(pool.decide_on(&table, &cfg), state.decide(&cfg));
        assert_eq!(pool.selections_examined, state.selections_examined);
        assert_eq!(pool.covers_checked, state.covers_checked);
        // The pool's own table is empty, so it decides nothing on it.
        assert_eq!(pool.decide(&cfg), None);
    }

    #[test]
    fn exhausted_selection_budget_sets_truncated() {
        let (mut state, g, z) = setup(&[&[1]]);
        feed_honest(&mut state, &g, &z, 7, &NodeSet::new());
        let cfg = DecisionConfig { max_selections: 0 };
        assert_eq!(state.decide(&cfg), None);
        assert!(state.truncated);
    }

    /// D = 0 and R = 1 joined by `paths` disjoint paths of `relays` relays
    /// each, trivial structures and ad hoc views; every node claims its
    /// view and every path's trail carries 7.
    fn parallel_paths(paths: u32, relays: u32) -> ReceiverState {
        parallel_paths_withholding(paths, relays, None)
    }

    /// [`parallel_paths`] without the trail of path `withheld`.
    fn parallel_paths_withholding(paths: u32, relays: u32, withheld: Option<u32>) -> ReceiverState {
        let mut g = Graph::new();
        let relay = |path: u32, i: u32| NodeId::new(2 + relays * path + i);
        for path in 0..paths {
            g.add_edge(0.into(), relay(path, 0));
            for i in 1..relays {
                g.add_edge(relay(path, i - 1), relay(path, i));
            }
            g.add_edge(relay(path, relays - 1), 1.into());
        }
        let me = NodeId::new(1);
        let view_of = |u: NodeId| ViewKind::AdHoc.view_of(&g, u);
        let mut state =
            ReceiverState::new(me, 0.into(), view_of(me), AdversaryStructure::trivial());
        for u in g.nodes().iter().filter(|&u| u != me) {
            state.ingest_claim(u, view_of(u), AdversaryStructure::trivial());
        }
        for path in (0..paths).filter(|&path| Some(path) != withheld) {
            let mut trail = vec![NodeId::new(0)];
            trail.extend((0..relays).map(|i| relay(path, i)));
            state.ingest_value(7, &trail);
        }
        state
    }

    #[test]
    fn cover_budget_forces_conservative_abstention() {
        // Eight disjoint three-relay paths: 3^8 = 6561 minimal D–R
        // separators overrun the anchored scan's 4096, and the 24 cut
        // candidates exceed the exhaustive fallback's gate of 22. The full
        // selection therefore abstains and sets `truncated`. `decide` then
        // leaves out relay 2 and with it a path: 3^7 = 2187 separators fit
        // the budget, the anchored scan finds no cover, and R decides with
        // the flag still set.
        let mut state = parallel_paths(8, 3);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
        assert!(state.truncated);
        assert_eq!(state.selections_examined, 2);
        assert_eq!(state.covers_checked, 2);
    }

    #[test]
    fn cover_budget_waits_for_the_anchored_scan() {
        // Two disjoint twelve-relay paths: 24 cut candidates exceed the
        // fallback's gate, but 12^2 = 144 separators are well within the
        // anchored scan's budget, which answers alone: no cover, so R
        // decides, untruncated.
        let mut state = parallel_paths(2, 12);
        let reg = Registry::new();
        assert_eq!(
            state.decide_observed(&DecisionConfig::default(), &reg),
            Some(7)
        );
        assert!(!state.truncated);
        assert_eq!(state.covers_checked, 1);
        assert_eq!(reg.counter("pka.cover.separators_enumerated").get(), 144);
        assert_eq!(reg.counter("pka.cover.exhaustive_fallbacks").get(), 0);
        assert_eq!(reg.histogram("pka.cover_ns").count(), 1);
    }

    #[test]
    fn a_withheld_trail_excludes_only_its_own_path() {
        // Four disjoint three-relay paths, the trail of path 2 missing. The
        // empty exclusion misses that path, and only its relays can remove
        // it, so the search branches on them alone: its first relay is
        // examined next, the set is full and (trivial structures) has no
        // cover.
        let relays = 3;
        let mut state = parallel_paths_withholding(4, relays, Some(2));
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
        assert!(!state.truncated);
        assert!(state.selections_examined <= u64::from(relays) + 1);
        assert_eq!(state.covers_checked, 1);
    }

    #[test]
    fn an_edge_reported_only_by_an_excludable_node_is_a_branch() {
        // G: 0–1–2–3 and 0–4–3 with D = 0, R = 3, 𝒵 = {{2}, {4}}; both
        // trails carry 7. A fictitious node 5 claims the edge 1–3, which
        // adds the D–R path 0–1–3 that no trail holds. Leaving out relay 1
        // removes that path but leaves the cover {4} (B = {2, 3}); leaving
        // out 5, the only node reporting 1–3, leaves both real paths and no
        // cover, so R decides on the third set examined.
        let mut g = Graph::new();
        for (a, b) in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)] {
            g.add_edge(NodeId::new(a), NodeId::new(b));
        }
        let z = AdversaryStructure::from_sets([set(&[2]), set(&[4])]);
        let me = NodeId::new(3);
        let view_of = |u: NodeId| ViewKind::AdHoc.view_of(&g, u);
        let mut state = ReceiverState::new(
            me,
            0.into(),
            view_of(me),
            z.restrict_sets(view_of(me).nodes()),
        );
        for u in [0u32, 1, 2, 4] {
            let view = view_of(u.into());
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u.into(), view, structure);
        }
        let mut liar = Graph::new();
        liar.add_node(5.into());
        liar.add_edge(1.into(), 3.into());
        state.ingest_claim(5.into(), liar, AdversaryStructure::trivial());
        state.ingest_value(7, &[0.into(), 1.into(), 2.into()]);
        state.ingest_value(7, &[0.into(), 4.into()]);
        assert_eq!(state.decide(&DecisionConfig::default()), Some(7));
        assert!(!state.truncated);
        assert_eq!(state.selections_examined, 3);
        assert_eq!(state.covers_checked, 2);
    }

    #[test]
    fn no_full_selection_never_runs_the_cover() {
        // Only D and relay 1 send claims, and the one trail arrives via
        // relay 2. The selection {D, 1} has the D–R path 0–1–3, which no
        // value holds; {D} alone has no D–R path. With no full value the
        // cover never runs.
        let (mut state, g, z) = setup(&[&[1]]);
        for u in [0u32, 1] {
            let view = ViewKind::AdHoc.view_of(&g, u.into());
            let structure = z.restrict_sets(view.nodes());
            state.ingest_claim(u.into(), view, structure);
        }
        state.ingest_value(7, &[0.into(), 2.into()]);
        let reg = Registry::new();
        assert_eq!(
            state.decide_observed(&DecisionConfig::default(), &reg),
            None
        );
        assert!(!state.truncated);
        assert_eq!(state.selections_examined, 2);
        assert_eq!(state.covers_checked, 0);
        assert_eq!(reg.histogram("pka.cover_ns").count(), 0);
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
