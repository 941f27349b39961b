//! E16 — session throughput: amortizing RMT-PKA's per-message routing cost
//! over batched multi-payload sessions.
//!
//! The per-message protocol pays its full cost — knowledge announcements,
//! per-trail headers, per-node derivation — once *per transmitted value*.
//! A session (`rmt-session`) precomputes the payload-independent part once,
//! floods knowledge once, and coalesces all same-round same-link messages
//! into one compact frame. This experiment measures what that buys on the
//! E6 scaling family (ring-with-chords, threshold structures), per batch
//! size:
//!
//! * **wire bits/payload** — compact-codec bits actually crossing links,
//!   divided by the number of payloads. The headline amortization figure.
//! * **naive bits/payload** — what the per-message protocol spends per
//!   value (its honest-run bit estimate; batch-independent by definition).
//! * **amortized** — naive over wire: how many × cheaper a session payload
//!   is than a per-message payload at this batch size.
//! * **time/session** — wall clock of one whole session through the
//!   synchronous scheduler: the median of `REPS` runs after one warm-up
//!   run. This is the layer-level view of the relay and codec cost the
//!   end-to-end `stream` benchmark sees.
//! * **time/payload** — time/session over the batch size.
//! * **WRONG** — session verdicts differing from the transmitted values.
//!   The differential gate pins batch 1 to the per-message runner exactly;
//!   here every cell must decide every slot correctly.
//!
//! Shape expectations (asserted): WRONG = 0 everywhere, and at n ≥ 12 the
//! batch-64 wire cost per payload undercuts batch-1 by ≥ 5× — the knowledge
//! flood dominates a single-payload session, and batching dilutes it.
//!
//! Flags: `--json` (write `BENCH_E16.json`), `--smoke` (skip the largest
//! instance for CI).

use std::time::Duration;

use rmt_bench::{fmt_duration, timed, Experiment, Table};
use rmt_core::protocols::rmt_pka::run_pka;
use rmt_core::sampling::threshold_instance;
use rmt_graph::generators::{self, seeded};
use rmt_graph::ViewKind;
use rmt_obs::Json;
use rmt_session::{Session, SessionPlan};
use rmt_sets::NodeSet;
use rmt_sim::SilentAdversary;

const BATCHES: &[usize] = &[1, 4, 16, 64];
/// Timed repetitions per (n, batch) row, after one untimed warm-up run.
const REPS: usize = 5;

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let mut exp = Experiment::new("e16_session_throughput");
    exp.param("seed", "0xE16");
    exp.param("smoke", smoke);
    exp.param("family", "E6 ring_with_chords, threshold n/2");

    let sizes: &[usize] = if smoke { &[8, 12] } else { &[8, 12, 16] };
    let mut table = Table::new(
        "E16: batched session wire cost vs the per-message protocol \
         (honest runs; naive bits are the per-message protocol's estimate \
         per payload, wire bits are the compact codec's actual bytes)",
        &[
            "n",
            "batch",
            "rounds",
            "frames",
            "wire bits/payload",
            "naive bits/payload",
            "amortized",
            "time/session",
            "time/payload",
            "WRONG",
        ],
    );

    let mut total_wrong = 0u64;
    let mut gate_ok = true;
    for &n in sizes {
        let mut rng = seeded(n as u64);
        let g = generators::ring_with_chords(n, n / 4, &mut rng);
        let inst = threshold_instance(g, 0, ViewKind::AdHoc, 0, n as u32 / 2);
        let naive = run_pka(&inst, 1000, SilentAdversary::new(NodeSet::new()));
        assert_eq!(
            naive.decision(inst.receiver()),
            Some(1000),
            "per-message baseline failed to transmit at n={n}"
        );
        let naive_bpp = naive.metrics.honest_bits as f64;
        let plan = SessionPlan::build(&inst);

        let mut batch1_bpp = f64::NAN;
        for &batch in BATCHES {
            let values: Vec<u64> = (0..batch as u64).map(|i| 1000 + i).collect();
            let run = || Session::new(&plan, values.clone()).run_honest();
            // The warm-up run's report is the row's: sessions are
            // deterministic, so every repetition reports the same.
            let report = run();
            let mut walls: Vec<Duration> = (0..REPS).map(|_| timed(run).1).collect();
            walls.sort_unstable();
            let session_wall = walls[REPS / 2];
            let wrong = report
                .verdicts
                .iter()
                .zip(&values)
                .filter(|(v, x)| **v != Some(**x))
                .count() as u64;
            total_wrong += wrong;
            let wire_bpp = report.wire_bits_per_payload();
            if batch == 1 {
                batch1_bpp = wire_bpp;
            }
            if batch == 64 && n >= 12 && wire_bpp * 5.0 > batch1_bpp {
                gate_ok = false;
            }
            table.row(&[
                n.to_string(),
                batch.to_string(),
                report.wire.rounds.to_string(),
                report.wire.honest_messages.to_string(),
                format!("{wire_bpp:.0}"),
                format!("{naive_bpp:.0}"),
                format!("{:.1}×", naive_bpp / wire_bpp),
                fmt_duration(session_wall),
                fmt_duration(session_wall / batch as u32),
                wrong.to_string(),
            ]);
            report.record_into(exp.registry());
            exp.record(Json::obj([
                ("n", Json::Int(n as i64)),
                ("batch", Json::Int(batch as i64)),
                ("rounds", Json::Int(i64::from(report.wire.rounds))),
                ("frames", Json::Int(report.wire.honest_messages as i64)),
                ("wire bits/payload", Json::Num(wire_bpp)),
                ("naive bits/payload", Json::Num(naive_bpp)),
                (
                    "amortized",
                    Json::obj([
                        ("ratio", Json::Num(naive_bpp / wire_bpp)),
                        (
                            "human",
                            Json::from(format!("{:.1}×", naive_bpp / wire_bpp).as_str()),
                        ),
                    ]),
                ),
                (
                    "time/session",
                    Json::obj([
                        (
                            "ns",
                            Json::Int(i64::try_from(session_wall.as_nanos()).unwrap_or(i64::MAX)),
                        ),
                        ("human", Json::from(fmt_duration(session_wall).as_str())),
                    ]),
                ),
                ("wrong", Json::Int(wrong as i64)),
            ]));
        }
    }
    table.print();
    exp.finish();

    assert_eq!(
        total_wrong, 0,
        "a session verdict diverged from its transmitted value"
    );
    assert!(
        gate_ok,
        "amortization gate: batch-64 wire bits/payload must undercut batch-1 by ≥ 5× at n ≥ 12"
    );
    println!("Shape check: WRONG = 0 in every cell, and per-payload wire cost falls");
    println!("monotonically with batch size — the knowledge flood and trail headers are");
    println!("paid once per session, so batch 64 amortizes them ≥ 5× below batch 1.");
}
