//! `rmt-trace` — record, render and diff structured run traces.
//!
//! ```text
//! rmt-trace record [DIR]             # coupled e₀/e₁ runs → DIR/trace_e0.jsonl, DIR/trace_e1.jsonl
//! rmt-trace record-faults [DIR]      # faulty run on the diamond → DIR/trace_faulty.jsonl
//! rmt-trace show FILE [--node N]     # render a trace (full, or one node's local view)
//! rmt-trace diff A B [--node N]      # positional diff of two traces (optionally one node's view)
//! ```
//!
//! `record` executes the scenario-swap attack (Figure 2) on the canonical
//! unsolvable diamond and streams both coupled runs to JSON Lines. The
//! paper's indistinguishability argument then becomes a shell one-liner:
//! `rmt-trace diff` on the two files reports plenty of global differences
//! (the dealer sends 0 in e₀ and 1 in e₁), while `--node 3` — the receiver —
//! reports none.
//!
//! `record-faults` runs RMT-PKA on the honest diamond through `rmt-net`'s
//! deterministic fault scheduler (lossy, delaying, duplicating links) and
//! streams the run — including the network's `FaultDrop`/`FaultDelay`/
//! `FaultDuplicate` decisions — to one JSONL file. `show` renders fault
//! events in the full trace; per-node views deliberately omit them (a node
//! cannot observe what the network withheld).
//!
//! `record-profile` runs the anchored RMT-cut decider and an RMT-PKA round
//! loop with the phase profiler attached, merging decider phase spans,
//! per-round `RoundEnd` latency/wire records and protocol events into one
//! JSONL stream. `profile` renders any recorded trace as a span tree (a
//! text flamegraph), a per-round latency/traffic table and a per-link wire
//! bill — sections without data are skipped, so `profile` is also useful
//! on plain `record` output.

use std::process::ExitCode;

use rmt::adversary::AdversaryStructure;
use rmt::core::analysis::run_coupled_attack_observed;
use rmt::core::cuts::find_rmt_cut;
use rmt::core::Instance;
use rmt::graph::{Graph, ViewKind};
use rmt::obs::{
    diff_node_views, diff_traces, parse_jsonl, render_node_view, render_round_profile,
    render_span_tree, render_trace, span_tree, Clock, JsonlObserver, Profiler, Registry, RunEvent,
    RunObserver, WireStats,
};
use rmt::sets::{NodeId, NodeSet};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(args.get(1).map(String::as_str).unwrap_or(".")),
        Some("record-faults") => record_faults(args.get(1).map(String::as_str).unwrap_or(".")),
        Some("record-profile") => record_profile(args.get(1).map(String::as_str).unwrap_or(".")),
        Some("profile") => match args.get(1) {
            Some(path) => profile(path),
            None => usage("profile needs a trace file"),
        },
        Some("show") => match (args.get(1), parse_node_flag(&args)) {
            (Some(path), Ok(node)) => show(path, node),
            (_, Err(e)) => usage(&e),
            (None, _) => usage("show needs a trace file"),
        },
        Some("diff") => match (args.get(1), args.get(2), parse_node_flag(&args)) {
            (Some(a), Some(b), Ok(node)) => diff(a, b, node),
            (_, _, Err(e)) => usage(&e),
            _ => usage("diff needs two trace files"),
        },
        _ => usage("missing subcommand"),
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: rmt-trace record [DIR]");
    eprintln!("       rmt-trace record-faults [DIR]");
    eprintln!("       rmt-trace record-profile [DIR]");
    eprintln!("       rmt-trace show FILE [--node N]");
    eprintln!("       rmt-trace diff A B [--node N]");
    eprintln!("       rmt-trace profile FILE");
    ExitCode::FAILURE
}

fn parse_node_flag(args: &[String]) -> Result<Option<NodeId>, String> {
    match args.iter().position(|a| a == "--node") {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(|v| v.parse::<u32>()) {
            Some(Ok(raw)) => Ok(Some(NodeId::new(raw))),
            _ => Err("--node needs an integer node id".into()),
        },
    }
}

/// The canonical unsolvable diamond of Figure 2: D=0, relays 1 and 2, R=3,
/// 𝒵 = {{1},{2}} under ad hoc knowledge.
fn diamond() -> Instance {
    let mut g = Graph::new();
    g.add_edge(0.into(), 1.into());
    g.add_edge(0.into(), 2.into());
    g.add_edge(1.into(), 3.into());
    g.add_edge(2.into(), 3.into());
    let sets: [NodeSet; 2] = [
        NodeSet::singleton(1u32.into()),
        NodeSet::singleton(2u32.into()),
    ];
    let z = AdversaryStructure::from_sets(sets);
    Instance::new(g, z, ViewKind::AdHoc, 0.into(), 3.into()).expect("diamond is well-formed")
}

fn record(dir: &str) -> ExitCode {
    let inst = diamond();
    let witness = find_rmt_cut(&inst, None).expect("the diamond admits an RMT-cut");
    println!(
        "recording coupled runs on the unsolvable diamond (C₁ = {}, C₂ = {})",
        witness.c1, witness.c2
    );

    let path_e0 = std::path::Path::new(dir).join("trace_e0.jsonl");
    let path_e1 = std::path::Path::new(dir).join("trace_e1.jsonl");
    let open = |p: &std::path::Path| match std::fs::File::create(p) {
        Ok(f) => Ok(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {}: {e}", p.display());
            Err(ExitCode::FAILURE)
        }
    };
    let mut obs_e0 = match open(&path_e0) {
        Ok(w) => JsonlObserver::new(w),
        Err(c) => return c,
    };
    let mut obs_e1 = match open(&path_e1) {
        Ok(w) => JsonlObserver::new(w),
        Err(c) => return c,
    };

    let report =
        run_coupled_attack_observed(&inst, &witness, 0, 1, 1 << 14, &mut obs_e0, &mut obs_e1)
            .expect("diamond join cannot blow up");
    for (obs, path) in [(obs_e0, &path_e0), (obs_e1, &path_e1)] {
        match obs.into_inner() {
            Ok(mut w) => {
                use std::io::Write as _;
                if let Err(e) = w.flush() {
                    eprintln!("cannot flush {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!("wrote {}", path.display());
            }
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "receiver views equal: {} | decisions: e₀ → {:?}, e₁ → {:?} | safety violation: {}",
        report.receiver_views_equal, report.decision_e, report.decision_e2, report.safety_violation
    );
    println!("try: rmt-trace diff trace_e0.jsonl trace_e1.jsonl            (runs differ)");
    println!("     rmt-trace diff trace_e0.jsonl trace_e1.jsonl --node 3  (R can't tell)");
    ExitCode::SUCCESS
}

fn record_faults(dir: &str) -> ExitCode {
    use rmt::core::protocols::rmt_pka::RmtPka;
    use rmt::net::{FaultPlan, LinkPolicy, NetRunner};
    use rmt::sim::SilentAdversary;

    let inst = diamond();
    let plan = FaultPlan::new(0xFA17).with_default_policy(LinkPolicy {
        drop: 0.2,
        delay: 0.4,
        max_delay: 2,
        duplicate: 0.15,
        ..LinkPolicy::default()
    });
    println!("recording RMT-PKA on the honest diamond through a faulty network");
    println!("(drop 20%, delay 40% ≤2 rounds, duplicate 15%; fault seed 0xFA17)");

    let path = std::path::Path::new(dir).join("trace_faulty.jsonl");
    let mut obs = match std::fs::File::create(&path) {
        Ok(f) => JsonlObserver::new(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let out = NetRunner::new(
        inst.graph().clone(),
        |v| RmtPka::node(&inst, v, 1),
        SilentAdversary::new(NodeSet::new()),
        plan,
    )
    .run_observed(&mut obs);
    match obs.into_inner() {
        Ok(mut w) => {
            use std::io::Write as _;
            if let Err(e) = w.flush() {
                eprintln!("cannot flush {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "receiver decision: {:?} | rounds: {} | lost: {} | delayed: {} | duplicated: {}",
        out.decision(inst.receiver()),
        out.metrics.rounds,
        out.faults.lost(),
        out.faults.delayed,
        out.faults.duplicated,
    );
    println!("try: rmt-trace show trace_faulty.jsonl           (fault decisions rendered)");
    println!("     rmt-trace show trace_faulty.jsonl --node 3  (the node-local view hides them)");
    ExitCode::SUCCESS
}

fn record_profile(dir: &str) -> ExitCode {
    use rmt::core::cuts::find_rmt_cut_anchored_observed;
    use rmt::core::protocols::rmt_pka::RmtPka;
    use rmt::sim::{Runner, SilentAdversary};

    let inst = diamond();
    let clock = Clock::wall();
    let reg = Registry::new().with_clock(clock.clone());
    let prof = Profiler::new(reg.clock());
    reg.attach_profiler(prof.clone());
    let witness = find_rmt_cut_anchored_observed(&inst, &reg);
    println!(
        "profiled the anchored decider on the diamond: {}",
        witness
            .as_ref()
            .map_or("no RMT-cut".to_string(), |w| format!(
                "RMT-cut C₁ = {}, C₂ = {}",
                w.c1, w.c2
            ))
    );

    let path = std::path::Path::new(dir).join("trace_profile.jsonl");
    let mut obs = match std::fs::File::create(&path) {
        Ok(f) => JsonlObserver::new(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("cannot create {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // Decider phase spans lead the stream; the profiled protocol run —
    // per-round RoundEnd latency/wire records included — follows.
    let spans = prof.events();
    for ev in &spans {
        obs.on_event(ev);
    }
    let out = Runner::new(
        inst.graph().clone(),
        |v| RmtPka::node(&inst, v, 1),
        SilentAdversary::new(NodeSet::new()),
    )
    .with_profiling(clock)
    .run_observed(&mut obs);
    match obs.into_inner() {
        Ok(mut w) => {
            use std::io::Write as _;
            if let Err(e) = w.flush() {
                eprintln!("cannot flush {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("wrote {}", path.display());
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "receiver decision: {:?} | rounds: {} | decider spans: {}",
        out.decision(inst.receiver()),
        out.metrics.rounds,
        spans.len() / 2,
    );
    println!("decider counters:");
    println!("{}", reg.render());
    println!("try: rmt-trace profile trace_profile.jsonl");
    ExitCode::SUCCESS
}

fn profile(path: &str) -> ExitCode {
    let events = match load(path) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut printed = false;
    match span_tree(&events) {
        Ok(roots) if !roots.is_empty() => {
            println!("phase spans:");
            print!("{}", render_span_tree(&roots));
            printed = true;
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("malformed span stream in {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if events
        .iter()
        .any(|e| matches!(e, RunEvent::RoundEnd { .. }))
    {
        if printed {
            println!();
        }
        println!("round profile:");
        print!("{}", render_round_profile(&events));
        printed = true;
    }
    let wire = WireStats::from_events(&events);
    if wire.total().messages > 0 {
        if printed {
            println!();
        }
        println!("wire bill:");
        print!("{}", wire.render());
        printed = true;
    }
    if !printed {
        println!("no profiling data in {path} (no spans, rounds or wire traffic)");
    }
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Vec<RunEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let values = parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    values
        .iter()
        .map(RunEvent::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

fn show(path: &str, node: Option<NodeId>) -> ExitCode {
    let events = match load(path) {
        Ok(ev) => ev,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match node {
        None => print!("{}", render_trace(&events)),
        Some(v) => print!("{}", render_node_view(&events, v.raw())),
    }
    ExitCode::SUCCESS
}

fn diff(a: &str, b: &str, node: Option<NodeId>) -> ExitCode {
    let (left, right) = match (load(a), load(b)) {
        (Ok(l), Ok(r)) => (l, r),
        (l, r) => {
            for e in [l.err(), r.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let diffs = match node {
        None => diff_traces(&left, &right),
        Some(v) => diff_node_views(&left, &right, v.raw()),
    };
    let scope = match node {
        None => "full traces".to_string(),
        Some(v) => format!("view of {v}"),
    };
    if diffs.is_empty() {
        println!("identical ({scope}): {a} == {b}");
        ExitCode::SUCCESS
    } else {
        println!("{} difference(s) ({scope}): {a} vs {b}", diffs.len());
        for d in &diffs {
            println!("{d}");
        }
        ExitCode::FAILURE
    }
}
