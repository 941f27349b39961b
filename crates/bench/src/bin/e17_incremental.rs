//! E17 — incremental re-decision under graph churn.
//!
//! A from-scratch anchored decision pays to rebuild the *entire* knowledge
//! cache — one `restrict` of the global 𝒵 per node — before scanning a
//! single anchor. The [`IncrementalEngine`] instead shares 𝒵 across deltas
//! (`Instance::with_graph`), rebuilds only the knowledge parts whose view
//! domain the delta changed (two per edge toggle under ad hoc views), then
//! runs the same anchored search over the refreshed cache. On structures
//! with thousands of maximal sets the cache rebuild dominates the whole
//! decision, so that refresh is the speedup.
//!
//! This experiment drives both paths over the same seeded edge-toggle stream
//! on the E6 ring+chords family and, per delta, **asserts the witnesses are
//! byte-identical** — the incremental machinery must be unobservable in
//! results. The incremental column times `apply` + `decide` (the full
//! churn-to-answer latency); the scratch column times `Instance::new` + the
//! anchored decider on the same mutated graph. The 𝒵-pp column times the
//! engine's `decide_zpp` alone, after the same `apply`, and each of its
//! witnesses is asserted equal to the from-scratch anchored 𝒵-pp decider's.
//! At the largest `n` the run asserts the median speedup is ≥ 5× (only
//! enforced when that `n` ≥ 24), and the sweep deliberately tops out at
//! n = 26 > 24: the regime the exhaustive decider (2^(n−2) subsets) cannot
//! reach at all.
//!
//! `--max-n N` bounds the sweep and `--deltas K` the stream length (CI runs
//! a small-n profile); `--json` writes `BENCH_E17.json`.

use rand::Rng;
use rmt_bench::{fmt_duration, median, timed, Experiment, Table};
use rmt_core::cuts::{find_rmt_cut_anchored, zpp_cut_by_enumeration_anchored};
use rmt_core::engine::{Delta, IncrementalEngine};
use rmt_core::sampling::threshold_instance;
use rmt_core::Instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_obs::Registry;
use rmt_sets::NodeId;

/// Reads `--flag N` from the process arguments.
fn arg(flag: &str, default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{flag} expects a number"));
        }
    }
    default
}

fn main() {
    let max_n = arg("--max-n", 26);
    let deltas = arg("--deltas", 40).max(1);
    let mut exp = Experiment::new("e17_incremental");
    exp.param("seed", "0xE17");
    exp.param("max_n", i64::try_from(max_n).unwrap_or(i64::MAX));
    exp.param("deltas", i64::try_from(deltas).unwrap_or(i64::MAX));

    let mut table = Table::new(
        "E17: incremental vs from-scratch anchored re-decision (ring+chords, edge churn)",
        &[
            "n",
            "t",
            "deltas",
            "cut",
            "no cut",
            "parts rebuilt",
            "incremental",
            "scratch",
            "speedup",
            "𝒵-pp incremental",
        ],
    );

    let mut largest: Option<(usize, f64)> = None;
    for &n in &[16usize, 20, 24, 26] {
        if n > max_n {
            break;
        }
        let mut rng = seeded(0xE17 + n as u64);
        let g = generators::ring_with_chords(n, n / 4, &mut rng);
        let t = 4usize;
        let inst = threshold_instance(g, t, ViewKind::AdHoc, 0, (n / 2) as u32);
        let (dealer, receiver) = (inst.dealer(), inst.receiver());

        let reg = Registry::new();
        let mut engine = IncrementalEngine::from_instance(&inst, ViewKind::AdHoc);

        let mut incremental = Vec::with_capacity(deltas);
        let mut scratch = Vec::with_capacity(deltas);
        let mut zpp = Vec::with_capacity(deltas);
        let (mut cuts, mut no_cuts) = (0u64, 0u64);
        let mut applied = 0usize;
        while applied < deltas {
            // A random edge toggle that never touches dealer–receiver
            // adjacency (adjacent pairs are trivially solvable and skip the
            // scan entirely — uninteresting churn).
            let u = NodeId::new(rng.random_range(0..n as u32));
            let v = NodeId::new(rng.random_range(0..n as u32));
            if u == v || (u == dealer && v == receiver) || (u == receiver && v == dealer) {
                continue;
            }
            let delta = if engine.instance().graph().has_edge(u, v) {
                Delta::RemoveEdge(u, v)
            } else {
                Delta::AddEdge(u, v)
            };
            let (verdict, t_inc) = timed(|| {
                engine
                    .apply_observed(delta.clone(), &reg)
                    .expect("edge toggles keep the instance well-formed");
                engine.decide_rmt_observed(&reg)
            });
            let (g, z) = (
                engine.instance().graph().clone(),
                engine.instance().adversary().clone(),
            );
            let (fresh, t_scr) = timed(|| {
                let inst = Instance::new(g.clone(), z.clone(), ViewKind::AdHoc, dealer, receiver)
                    .expect("edge toggles keep the instance well-formed");
                find_rmt_cut_anchored(&inst)
            });
            assert_eq!(
                verdict, fresh,
                "incremental diverged from scratch at n = {n} after {delta:?}"
            );
            let (zpp_verdict, t_zpp) = timed(|| engine.decide_zpp_observed(&reg));
            let fresh_inst = Instance::new(g, z, ViewKind::AdHoc, dealer, receiver)
                .expect("edge toggles keep the instance well-formed");
            assert_eq!(
                zpp_verdict,
                zpp_cut_by_enumeration_anchored(&fresh_inst),
                "incremental 𝒵-pp diverged from scratch at n = {n} after {delta:?}"
            );
            match verdict {
                Some(_) => cuts += 1,
                None => no_cuts += 1,
            }
            incremental.push(t_inc);
            scratch.push(t_scr);
            zpp.push(t_zpp);
            applied += 1;
        }

        let med_inc = median(&mut incremental);
        let med_scr = median(&mut scratch);
        let med_zpp = median(&mut zpp);
        let speedup = med_scr.as_secs_f64() / med_inc.as_secs_f64().max(1e-9);
        largest = Some((n, speedup));
        exp.registry().merge_from(&reg);
        table.row(&[
            n.to_string(),
            t.to_string(),
            deltas.to_string(),
            cuts.to_string(),
            no_cuts.to_string(),
            reg.counter("cache.invalidate.parts").get().to_string(),
            fmt_duration(med_inc),
            fmt_duration(med_scr),
            format!("{speedup:.1}×"),
            fmt_duration(med_zpp),
        ]);
    }
    table.print();
    exp.record_table(&table);
    exp.finish();

    if let Some((n, speedup)) = largest {
        if n >= 24 {
            assert!(
                speedup >= 5.0,
                "incremental re-decision must be ≥ 5× faster than from-scratch \
                 at n = {n} (measured {speedup:.1}×)"
            );
        }
    }
    println!("Shape check: every delta's incremental witness equals the from-scratch one;");
    println!("parts rebuilt stays near 2 per edge toggle while a from-scratch decision");
    println!("restricts 𝒵 at all n nodes — that refresh gap is the speedup.");
}
