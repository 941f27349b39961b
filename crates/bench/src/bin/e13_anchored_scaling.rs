//! E13 — separator-anchored cut search at scale.
//!
//! The exhaustive `find_rmt_cut` scans `2^(n−2)` candidate cuts; the
//! anchored decider scans connected receiver-side components hanging off
//! each minimal D–R separator (see `rmt_core::cuts::anchored`), which on
//! sparse families is *polynomially* many candidates. This experiment
//! pushes exact decisions on the E6 ring+chords family well past the
//! exhaustive decider's practical ceiling:
//!
//! * for every `n` where the exhaustive decider still runs (≤ the
//!   `--exhaustive-max-n` cap) the verdicts are **asserted equal** and the
//!   speedup reported;
//! * beyond the cap only the anchored deciders run, up to `--max-n`
//!   (default 24 ≥ 22) — still exact, per the differential suite;
//! * the sequential observed decider's counters (anchors, components,
//!   partition checks, memo hits) land in the artifact.
//!
//! `--max-n N` / `--exhaustive-max-n N` bound the sweep (CI runs a small-n
//! profile); `--json` writes `BENCH_E13.json`.

use rmt_bench::{fmt_duration, timed, Experiment, Table};
use rmt_core::cuts::{find_rmt_cut, find_rmt_cut_anchored};
use rmt_core::sampling::threshold_instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_obs::Registry;

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
    let max_n = arg("--max-n", 24);
    let exhaustive_max_n = arg("--exhaustive-max-n", 18).min(max_n);
    let mut exp = Experiment::new("e13_anchored_scaling");
    exp.param("seed", "0xE13");
    exp.param("max_n", i64::try_from(max_n).unwrap_or(i64::MAX));
    exp.param(
        "exhaustive_max_n",
        i64::try_from(exhaustive_max_n).unwrap_or(i64::MAX),
    );
    let mut rng = seeded(0xE13);

    let mut table = Table::new(
        "E13: exhaustive vs anchored find_rmt_cut (ring+chords, global threshold)",
        &[
            "n",
            "t",
            "subsets",
            "anchors",
            "components",
            "verdict",
            "exhaustive",
            "anchored",
            "speedup",
        ],
    );

    // Threshold 0 keeps the family solvable (full scans, the worst case for
    // both deciders); threshold 2 plants cuts on most draws (witness path).
    for &n in &[12usize, 14, 16, 18, 20, 22, 24] {
        if n > max_n {
            break;
        }
        let g = generators::ring_with_chords(n, n / 4, &mut rng);
        for t in [0usize, 2] {
            let inst = threshold_instance(g.clone(), t, ViewKind::AdHoc, 0, (n / 2) as u32);
            // Sequential observed run: per-(n, t) counters merged into the
            // artifact registry, and the local snapshot feeds the table.
            let local = Registry::new();
            let observed = rmt_core::cuts::find_rmt_cut_anchored_observed(&inst, &local);
            exp.registry().merge_from(&local);
            let anchors = local.counter("rmt_cut.separators_enumerated").get();
            let components = local.counter("rmt_cut.components_enumerated").get();

            let (anchored, t_anchored) = timed(|| find_rmt_cut_anchored(&inst));
            assert_eq!(anchored, observed, "observed diverged at n = {n}, t = {t}");
            let verdict = if anchored.is_some() { "cut" } else { "no cut" };

            let (exhaustive_cell, speedup_cell) = if n <= exhaustive_max_n {
                let (exhaustive, t_exh) = timed(|| find_rmt_cut(&inst, None));
                assert_eq!(
                    exhaustive.is_some(),
                    anchored.is_some(),
                    "verdict diverged at n = {n}, t = {t}"
                );
                let speedup = t_exh.as_secs_f64() / t_anchored.as_secs_f64().max(1e-9);
                (fmt_duration(t_exh), format!("{speedup:.1}×"))
            } else {
                ("—".into(), "—".into())
            };

            table.row(&[
                n.to_string(),
                t.to_string(),
                (1u64 << (n - 2)).to_string(),
                anchors.to_string(),
                components.to_string(),
                verdict.into(),
                exhaustive_cell,
                fmt_duration(t_anchored),
                speedup_cell,
            ]);
        }
    }
    table.print();
    exp.record_table(&table);
    exp.finish();
    println!("Shape check: the subsets column is the exhaustive decider's search space and");
    println!("doubles per row pair; the anchored components column grows polynomially on");
    println!("this sparse family, which is the whole point of the separator anchoring.");
}
