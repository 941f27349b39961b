//! E14 — coverage-guided attack synthesis and the suppression frontier.
//!
//! Two questions, one artifact:
//!
//! 1. **Where does liveness die under a message adversary?** For each
//!    solvable E2/E3 instance and each protocol, a budgeted
//!    [`MessageAdversary`] focused on the receiver erases up to `d` admitted
//!    sends per round. The frontier table charts decided-vs-`d`: safety
//!    (WRONG) must stay 0 in every cell — suppression is an omission fault
//!    and the protocols' safety arguments are structural — while the decided
//!    column collapses as `d` passes the receiver's effective in-degree.
//! 2. **Can a search find attacks we didn't write by hand?** A seeded
//!    [`Hunter`] per instance mutates attack genomes (Byzantine behaviour ×
//!    fault plan × suppression) under coverage feedback, shrinks every
//!    violation to a local minimum, and — with `--promote DIR` — writes the
//!    minimized fixtures into the corpus that `cargo test` replays forever.
//!
//! The whole run is deterministic for a fixed seed: same candidates, same
//! violations, byte-identical artifact modulo its timing fields (`wall`
//! and the `evaluations` row's time and rate). That row counts the
//! protocol runs of both parts — frontier runs, hunt candidates and shrink
//! steps — and their rate per second of wall time.
//!
//! Flags: `--json` (write `BENCH_E14.json`), `--smoke` (reduced budgets for
//! CI), `--promote DIR` (write corpus fixtures).

use std::time::Instant;

use rmt_bench::{fmt_duration, parallel_map, Experiment, Table};
use rmt_core::cuts::find_rmt_cut;
use rmt_core::protocols::attacks::{PkaAttack, ZcpaAttack};
use rmt_graph::ViewKind;
use rmt_hunt::{
    execute, AttackGenome, Behaviour, Family, Fixture, HuntConfig, Hunter, InstanceSpec, Verdict,
};
use rmt_net::MessageAdversary;
use rmt_obs::Json;
use rmt_sets::NodeSet;

const INPUT: u64 = 7;
const HUNT_SEED: u64 = 0xE14;

fn view_tag(view: ViewKind) -> String {
    match view {
        ViewKind::Full => "full".to_string(),
        ViewKind::AdHoc => "adhoc".to_string(),
        ViewKind::Radius(k) => format!("r{k}"),
    }
}

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let promote_dir = {
        let args: Vec<String> = std::env::args().skip(1).collect();
        args.iter()
            .position(|a| a == "--promote")
            .and_then(|i| args.get(i + 1))
            .map(std::path::PathBuf::from)
    };

    let mut exp = Experiment::new("e14_attack_search");
    exp.param("seed", "0xE14");
    exp.param("smoke", smoke);
    let threads = exp.threads();

    // Screen solvable instances from the E2/E3 families, keeping the
    // *spec* alongside each instance so found attacks can be pinned into
    // replayable fixtures. Screening uses the plain (unobserved) cut
    // search: the artifact's counters must not depend on how many
    // unsolvable candidates were discarded.
    let trials = if smoke { 4 } else { 8 };
    exp.param("solvable_instances", trials as i64);
    let mut specs: Vec<InstanceSpec> = Vec::new();
    let mut screened = 0u64;
    while specs.len() < trials {
        let spec = InstanceSpec {
            family: if screened.is_multiple_of(3) {
                Family::E3
            } else {
                Family::E2
            },
            n: 6 + (screened as usize) % 4,
            view: if screened.is_multiple_of(2) {
                ViewKind::AdHoc
            } else {
                ViewKind::Radius(2)
            },
            seed: 0xE14_0000 + screened,
        };
        screened += 1;
        if find_rmt_cut(&spec.build(), None).is_none() {
            specs.push(spec);
        }
    }
    exp.param("instances_screened", screened as i64);

    // ── Part 1: the suppression frontier ────────────────────────────────
    // Silent Byzantine behaviour isolates the message adversary's own
    // effect; the budget focuses on the receiver, the hardest target the
    // full-information view can pick.
    let budgets: &[u32] = &[0, 1, 2, 3];
    let mut frontier = Table::new(
        "E14: liveness vs per-round suppression budget d (receiver-focused message \
         adversary, silent Byzantine nodes, solvable E2/E3 instances)",
        &[
            "protocol",
            "d",
            "runs",
            "WRONG",
            "decided",
            "stalled",
            "suppressed",
        ],
    );
    let evaluating = Instant::now();
    let mut frontier_runs = 0u64;
    let mut total_wrong = 0u64;
    let mut frontier_rows: Vec<Json> = Vec::new();
    for behaviour in [
        Behaviour::Pka(PkaAttack::Silent),
        Behaviour::Zcpa(ZcpaAttack::Silent),
    ] {
        for &d in budgets {
            let grid: Vec<usize> = (0..specs.len()).collect();
            let outcomes = parallel_map(grid, threads, |i| {
                let spec = &specs[i];
                let inst = spec.build();
                let mut genome = AttackGenome::bare(behaviour);
                if d > 0 {
                    genome.suppression = Some(MessageAdversary::focused(
                        d,
                        NodeSet::singleton(inst.receiver()),
                    ));
                }
                let report = execute(&inst, INPUT, &genome);
                (report.verdict, report.faults.suppressed)
            });
            let runs = outcomes.len();
            frontier_runs += runs as u64;
            let wrong = outcomes.iter().filter(|o| o.0 == Verdict::Wrong).count();
            let decided = outcomes.iter().filter(|o| o.0 == Verdict::Safe).count();
            let stalled = outcomes.iter().filter(|o| o.0 == Verdict::Stalled).count();
            let suppressed: u64 = outcomes.iter().map(|o| o.1).sum();
            total_wrong += wrong as u64;
            frontier.row(&[
                behaviour.protocol().to_string(),
                d.to_string(),
                runs.to_string(),
                wrong.to_string(),
                format!("{decided}/{runs}"),
                stalled.to_string(),
                suppressed.to_string(),
            ]);
            frontier_rows.push(Json::obj([
                ("kind", Json::from("frontier")),
                ("protocol", Json::from(behaviour.protocol())),
                ("d", Json::Int(i64::from(d))),
                ("runs", Json::Int(runs as i64)),
                ("wrong", Json::Int(wrong as i64)),
                ("decided", Json::Int(decided as i64)),
                ("stalled", Json::Int(stalled as i64)),
                ("suppressed", Json::Int(suppressed as i64)),
            ]));
        }
    }
    frontier.print();
    for row in frontier_rows {
        exp.record(row);
    }

    // ── Part 2: the coverage-guided hunt ────────────────────────────────
    let config = HuntConfig {
        seed: HUNT_SEED,
        candidates: if smoke { 18 } else { 48 },
        shrink_budget: if smoke { 40 } else { 100 },
        behaviours: vec![
            Behaviour::Pka(PkaAttack::Silent),
            Behaviour::Zcpa(ZcpaAttack::Silent),
        ],
    };
    exp.param("hunt_candidates_per_instance", i64::from(config.candidates));
    exp.param("hunt_shrink_budget", i64::from(config.shrink_budget));

    let hunter = Hunter::new(exp.registry());
    let mut hunts = Table::new(
        "E14: coverage-guided hunts (one per instance; violations are shrunk to \
         local minima and deduplicated)",
        &[
            "instance",
            "executed",
            "novel",
            "safe",
            "WRONG",
            "stalled",
            "violations",
            "min complexity",
        ],
    );
    let mut suppression_violations = 0u64;
    let mut promoted = 0u64;
    for spec in &specs {
        let inst = spec.build();
        let report = hunter.hunt(&inst, INPUT, &config);
        total_wrong += u64::from(report.tally.1);
        let min_complexity = report
            .violations
            .iter()
            .map(|v| v.genome.complexity())
            .min();
        let name = format!(
            "{}_{}_{}_{:04x}",
            spec.family.as_str(),
            spec.n,
            view_tag(spec.view),
            spec.seed & 0xFFFF
        );
        hunts.row(&[
            name.clone(),
            report.executed.to_string(),
            report.novel.to_string(),
            report.tally.0.to_string(),
            report.tally.1.to_string(),
            report.tally.2.to_string(),
            report.violations.len().to_string(),
            min_complexity.map_or("–".to_string(), |c| c.to_string()),
        ]);
        exp.record(Json::obj([
            ("kind", Json::from("hunt")),
            ("instance", Json::from(name.as_str())),
            ("executed", Json::Int(i64::from(report.executed))),
            ("novel", Json::Int(i64::from(report.novel))),
            ("safe", Json::Int(i64::from(report.tally.0))),
            ("wrong", Json::Int(i64::from(report.tally.1))),
            ("stalled", Json::Int(i64::from(report.tally.2))),
            ("violations", Json::Int(report.violations.len() as i64)),
            (
                "min_complexity",
                min_complexity.map_or(Json::Null, |c| Json::Int(c as i64)),
            ),
        ]));
        for (i, violation) in report.violations.iter().enumerate() {
            if violation
                .genome
                .suppression
                .as_ref()
                .is_some_and(|s| s.budget() > 0)
            {
                suppression_violations += 1;
            }
            if let Some(dir) = &promote_dir {
                let fixture = Fixture {
                    name: format!("{name}_{}_{i:02}", violation.verdict.as_str()),
                    spec: spec.clone(),
                    input: INPUT,
                    genome: violation.genome.clone(),
                    verdict: violation.verdict,
                };
                let path = fixture.save(dir).expect("writing corpus fixture");
                println!("promoted {}", path.display());
                promoted += 1;
            }
        }
    }
    hunts.print();
    exp.record_table(&hunts);

    let counter = |name: &'static str| exp.registry().counter(name).get();
    let evaluations =
        frontier_runs + counter("hunt.candidates_executed") + counter("hunt.shrink_steps");
    let elapsed = evaluating.elapsed();
    let per_s = evaluations as f64 / elapsed.as_secs_f64();
    println!(
        "E14: {evaluations} protocol runs in {} ({per_s:.1} runs/s)",
        fmt_duration(elapsed)
    );
    exp.record(Json::obj([
        ("kind", Json::from("evaluations")),
        ("evaluations", Json::Int(evaluations as i64)),
        (
            "time",
            Json::obj([
                ("ns", Json::Int(elapsed.as_nanos() as i64)),
                ("human", Json::from(fmt_duration(elapsed).as_str())),
            ]),
        ),
        (
            "per second",
            Json::obj([
                ("ratio", Json::Num(per_s)),
                ("human", Json::from(format!("{per_s:.1}/s").as_str())),
            ]),
        ),
    ]));
    if promote_dir.is_some() {
        exp.param("promoted", promoted as i64);
    }

    exp.finish();

    assert_eq!(
        total_wrong, 0,
        "safety violation found — a receiver decided a value the dealer never sent"
    );
    assert!(
        suppression_violations > 0,
        "expected the hunt to find at least one liveness violation under a nonzero \
         suppression budget"
    );
    println!(
        "Shape check: WRONG = 0 everywhere (suppression is an omission fault; safety is \
         structural). The hunt found {suppression_violations} minimized suppression-driven \
         liveness violations; the frontier shows decided collapsing as d grows."
    );
}
