//! Benchmark worker: sets up one workload, then runs its operations in a
//! closed loop (one client, next operation only after the previous one
//! completed) for a given number of seconds, printing one line per
//! operation. `perfbench/run.py` supervises it: it enforces the
//! per-operation deadline, restarts the worker after a kill, and turns the
//! lines into metrics.
//!
//! Lines on stdout:
//!
//! * `TS <json>` — traced set-up record (traced runs only);
//! * `READY <setup_ns> <reps> <cal_ns>` — median set-up time and median
//!   calibration time of the set-up phase; the loop starts now;
//! * `AT <idx> <label>` — the attack cell operation `idx` is about to run
//!   (adversarial only);
//! * `OP <idx> <ns> <panicked> <payloads> <ok> <wrong> <undecided> <wire_bits> <invalid_frames> <cold_ns>`;
//! * `TR <idx> <json>` — per-layer record of a traced operation;
//! * `CAL <ns>` — one run of the calibration kernel;
//! * `END <loop_ns> <vmhwm_kb> <base_kb>` — peak and pre-set-up resident set.

mod gen;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use trace::Recorder;
use workloads::{OpResult, OpTrace, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    start_op: u64,
    setup_reps: usize,
    trace_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 1.0,
        trace: false,
        start_op: 0,
        setup_reps: 1,
        trace_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--start-op" => args.start_op = value.parse().map_err(|_| bad())?,
            "--setup-reps" => args.setup_reps = value.parse::<usize>().map_err(|_| bad())?.max(1),
            "--trace-dir" => args.trace_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// A `/proc/self/status` field in kB (`VmHWM`: peak resident set size,
/// `VmRSS`: current).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// A fixed CPU and memory kernel that uses none of the measured crates.
/// Its time tracks the speed of the machine at that moment, which on shared
/// hosts drifts by tens of percent over minutes, mostly in the memory
/// system: xorshift keys into a `BTreeSet` and a sort, then a pointer chase
/// through an 8 MiB single-cycle permutation.
struct Calibration {
    chase: Vec<u32>,
}

impl Calibration {
    fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot.
        let n = 1usize << 21;
        let mut chase: Vec<u32> = (0..n as u32).collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..n).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            chase.swap(i, (x % i as u64) as usize);
        }
        Calibration { chase }
    }

    /// One run of the kernel, in ns.
    fn run(&self) -> u64 {
        let t = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut keys: Vec<u64> = (0..1 << 14)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let set: BTreeSet<u64> = keys.iter().map(|&k| k % 100_000).collect();
        keys.sort_unstable();
        let mut at = 0u32;
        for _ in 0..10_000 {
            at = self.chase[at as usize];
        }
        black_box((set.len(), keys[keys.len() / 2], at));
        t.elapsed().as_nanos() as u64
    }
}

/// How often the loop runs the calibration kernel.
const CAL_PERIOD: Duration = Duration::from_millis(200);

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Panics inside an operation are caught and counted; keep their report
    // to one line on stderr.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("rmt-perfbench: operation panicked: {info}");
    }));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let cal = Calibration::new();
    // The benchmark's own memory, reported so that the peak can be taken
    // net of it.
    let base_kb = status_kb("VmRSS:");

    // Set-up, repeated; the median is the set-up time and the state of the
    // last repetition is kept.
    let mut setup_ns = Vec::with_capacity(args.setup_reps);
    let mut setup_cal_ns = Vec::with_capacity(args.setup_reps);
    let mut workload = None;
    for _ in 0..args.setup_reps {
        setup_cal_ns.push(cal.run());
        let t = Instant::now();
        let w = Workload::setup(&args.workload, args.seed, None);
        setup_ns.push(t.elapsed().as_nanos() as u64);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up repetition");
    if args.trace {
        let mut st = OpTrace::default();
        workload = Workload::setup(&args.workload, args.seed, Some(&mut st));
        writeln!(out, "TS {}", st.to_json()).expect("stdout");
    }
    workload.fast_forward(args.start_op);
    setup_ns.sort_unstable();
    setup_cal_ns.sort_unstable();
    writeln!(
        out,
        "READY {} {} {}",
        setup_ns[setup_ns.len() / 2],
        setup_ns.len(),
        setup_cal_ns[setup_cal_ns.len() / 2]
    )
    .expect("stdout");
    out.flush().expect("stdout");

    let mut rec = Recorder::new();
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let loop_start = Instant::now();
    let mut next_cal = loop_start;
    let mut idx = args.start_op;
    while loop_start.elapsed() < budget {
        if Instant::now() >= next_cal {
            writeln!(out, "CAL {}", cal.run()).expect("stdout");
            next_cal += CAL_PERIOD;
        }
        if let Some(label) = workload.label(idx) {
            writeln!(out, "AT {idx} {label}").expect("stdout");
            out.flush().expect("stdout");
        }
        let traced = args.trace && workload.traces(idx);
        let mut tr = OpTrace::default();
        let first_span = rec.spans.len();
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if traced {
                workload.run_op(idx, Some((&mut rec, &mut tr)))
            } else {
                workload.run_op(idx, None)
            }
        }));
        let ns = t0.elapsed().as_nanos() as u64;
        let (panicked, r) = match result {
            Ok(r) => (0, r),
            Err(_) => (1, OpResult::default()),
        };
        let op_ns = if panicked == 1 { ns } else { r.op_ns };
        writeln!(
            out,
            "OP {idx} {op_ns} {panicked} {} {} {} {} {} {} {}",
            r.payloads, r.ok, r.wrong, r.undecided, r.wire_bits, r.invalid_frames, r.cold_ns
        )
        .expect("stdout");
        if traced && panicked == 0 {
            tr.self_ns = rec.self_times(first_span);
            writeln!(out, "TR {idx} {}", tr.to_json()).expect("stdout");
        }
        out.flush().expect("stdout");
        idx += 1;
    }
    let loop_ns = loop_start.elapsed().as_nanos() as u64;
    if let (true, Some(dir)) = (args.trace, &args.trace_dir) {
        let path = dir.join(format!(
            "spans-{}-{}-{}.jsonl",
            args.workload, args.seed, args.start_op
        ));
        if let Err(e) = rec.write_jsonl(&path) {
            eprintln!("rmt-perfbench: cannot write {}: {e}", path.display());
        }
    }
    writeln!(out, "END {loop_ns} {} {base_kb}", status_kb("VmHWM:")).expect("stdout");
    out.flush().expect("stdout");
}
