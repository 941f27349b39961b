//! Seeded input generation. Everything the measured program receives is a
//! pure function of the workload seed (and, per operation, of the operation
//! index), so a worker restarted at operation `k` regenerates exactly the
//! inputs the killed worker would have seen.

use rand::Rng;
use rmt_core::cuts::find_rmt_cut_anchored;
use rmt_core::engine::Delta;
use rmt_core::protocols::attacks::{PkaAttack, PKA_ATTACKS};
use rmt_core::sampling::{random_instance, random_instance_nonadjacent, threshold_instance};
use rmt_core::Instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::{Graph, ViewKind};
use rmt_sets::{NodeId, NodeSet};

/// SplitMix64 finalizer: decorrelates (seed, salt, index) triples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for one purpose (`salt`) of one operation (`idx`).
pub fn rng_for(seed: u64, salt: u64, idx: u64) -> impl Rng {
    seeded(mix(mix(seed ^ mix(salt)) ^ idx))
}

/// Seed of the session workloads' instance pools. The pools are fixed, so
/// every run measures the same mixture of instances, whose costs differ by
/// orders of magnitude; the workload seed draws everything per operation
/// (pool order, corruption sets, payloads, attack and fault seeds).
pub const POOL_SEED: u64 = 0x00E2_00E3;

/// A seeded permutation of `0..n`.
pub fn permutation(seed: u64, salt: u64, n: usize) -> Vec<usize> {
    let mut rng = rng_for(seed, salt, 0);
    let mut out: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}

/// Instance-sampling family, as in the E2/E3 experiments.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// Non-adjacent endpoints, edge probability 0.35.
    E2,
    /// Unconstrained, edge probability 0.4.
    E3,
}

/// `count` solvable instances (no RMT-cut, so RMT-PKA must deliver under
/// every admissible corruption). `decide` is the solvability decision; the
/// setup tracer wraps it to time the cut layer.
pub fn solvable_pool(
    seed: u64,
    family: Family,
    n: usize,
    view: ViewKind,
    count: usize,
    mut decide: impl FnMut(&Instance) -> bool,
) -> Vec<Instance> {
    let mut rng = rng_for(seed, 0x9001, family as u64 * 1000 + n as u64);
    let mut pool = Vec::with_capacity(count);
    while pool.len() < count {
        let inst = match family {
            Family::E2 => random_instance_nonadjacent(n, 0.35, view, 3, 2, &mut rng),
            Family::E3 => random_instance(n, 0.4, view, 3, 2, &mut rng),
        };
        if decide(&inst) {
            pool.push(inst);
        }
    }
    pool
}

/// Solvability without instrumentation.
pub fn solvable(inst: &Instance) -> bool {
    find_rmt_cut_anchored(inst).is_none()
}

/// The `k`-th worst-case corruption set of `inst`, cyclically (empty if it
/// has none). Cycling instead of drawing makes every pass over the pool
/// cover the corruption sets evenly.
pub fn cycle_corruption(inst: &Instance, k: u64) -> NodeSet {
    let wcc = inst.worst_case_corruptions();
    if wcc.is_empty() {
        NodeSet::new()
    } else {
        wcc[(k % wcc.len() as u64) as usize].clone()
    }
}

/// `batch` payload values.
pub fn payloads(batch: usize, rng: &mut impl Rng) -> Vec<u64> {
    (0..batch)
        .map(|_| rng.random_range(0..1u64 << 40))
        .collect()
}

/// One attack cell of the adversarial workload.
#[derive(Clone, Debug)]
pub struct Cell {
    pub instance: usize,
    pub attack: PkaAttack,
    pub corrupted: NodeSet,
}

/// Every (instance, attack, worst-case corruption) cell, in a seeded order.
/// Solvability of the instance is the only screen.
pub fn attack_cells(seed: u64, pool: &[Instance]) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    for (i, inst) in pool.iter().enumerate() {
        let mut wcc = inst.worst_case_corruptions();
        if wcc.is_empty() {
            wcc.push(NodeSet::new());
        }
        for attack in PKA_ATTACKS {
            for c in &wcc {
                cells.push(Cell {
                    instance: i,
                    attack,
                    corrupted: c.clone(),
                });
            }
        }
    }
    permutation(seed, 0x9002, cells.len())
        .into_iter()
        .map(|i| cells[i].clone())
        .collect()
}

/// A ring-with-chords threshold instance whose dealer and receiver are not
/// adjacent (an adjacent pair decides trivially and would skip every layer).
pub fn churn_instance(seed: u64, n: usize, chords: usize, t: usize, view: ViewKind) -> Instance {
    let (d, r) = (0u32, (n / 2) as u32);
    let mut rng = rng_for(seed, 0x9003, n as u64);
    loop {
        let g = generators::ring_with_chords(n, chords, &mut rng);
        if !g.has_edge(NodeId::new(d), NodeId::new(r)) {
            return threshold_instance(g, t, view, d, r);
        }
    }
}

/// The next edge toggle for a ring-with-chords engine whose graph had
/// `start_edges` edges at set-up: at the start count add a random chord,
/// otherwise remove a random chord, so the count stays within
/// `start_edges..=start_edges + 1` and the ring is never cut. The stream
/// thus walks over ring + chords graphs of one density instead of drifting
/// denser or sparser. The dealer–receiver pair is never toggled.
pub fn edge_toggle(
    g: &Graph,
    start_edges: usize,
    d: NodeId,
    r: NodeId,
    rng: &mut impl Rng,
) -> Delta {
    let n = g.node_count() as u32;
    let ring = |u: NodeId, v: NodeId| (u.raw() + 1) % n == v.raw() || (v.raw() + 1) % n == u.raw();
    let dr = |u: NodeId, v: NodeId| (u == d && v == r) || (u == r && v == d);
    if g.edge_count() <= start_edges {
        loop {
            let u = NodeId::new(rng.random_range(0..n));
            let v = NodeId::new(rng.random_range(0..n));
            if u != v && !dr(u, v) && !g.has_edge(u, v) {
                return Delta::AddEdge(u, v);
            }
        }
    } else {
        let chords: Vec<(NodeId, NodeId)> = g.edges().filter(|&(u, v)| !ring(u, v)).collect();
        let (u, v) = chords[rng.random_range(0..chords.len())];
        Delta::RemoveEdge(u, v)
    }
}
