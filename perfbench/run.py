#!/usr/bin/env python3
"""Closed-loop benchmark of the rmt workspace.

    python3 perfbench/run.py --workload <stream|adversarial|churn|netd> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the worker (perfbench/, a Cargo package
of its own) into $CARGO_TARGET_DIR (default .bench_build), runs the
workload's operations in a child process for --seconds, and prints a report
followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1 the
per-layer metrics (both listed in BENCHMARK.json). The supervisor gives every
operation a fixed deadline; an operation that misses it, or kills the worker
(panic outside the operation guard, allocation failure under the memory
cap), is counted as failed and the worker is restarted at the next
operation. The exit code is non-zero when a verdict is wrong, when a
session frame failed to expand on a workload without Byzantine nodes, or
when the benchmark itself cannot run.
"""

import argparse
import json
import math
import os
import resource
import selectors
import signal
import statistics
import subprocess
import sys
import time

# Per-operation deadline (s), chosen well above the slowest operation seen
# on each workload; the forge-trails runaway (NOTES.md) is the one that
# reaches it.
DEADLINE_S = {"stream": 2.0, "faults": 2.0, "adversarial": 1.0, "churn": 2.0, "netd": 5.0}
# Set-up repetitions in the first worker; set-up time is their median.
SETUP_REPS = 11
# Address-space cap for the worker, so a runaway operation aborts instead of
# exhausting the machine's memory.
WORKER_AS_BYTES = 2 << 30
# Reference time of the calibration kernel (see end_to_end).
CAL_REF_NS = 2_000_000
# Worker threads for the deciders (the load generator itself is one thread).
RMT_THREADS = 1
# Per-layer counts (and count-like samples) cover only the traced operations
# below this index, so two runs of one seed report identical counts however
# many operations their time budget allowed.
COUNT_WINDOW = 32
WINDOW_SAMPLES = ("codec.frame_bytes",)
# Workloads whose runs have no Byzantine node, so every frame must expand.
CLEAN_WIRE = ("stream", "faults", "netd")

# Span names of layers re-timed after the operation on the data it delivered.
REPLAY_PREFIXES = ("codec.", "pka.", "family.", "knowledge.")

# Which end-to-end metric each layer should move, and where (printed with the
# traced report).
LAYER_NOTES = [
    ("knowledge", "knowledge.build", "setup_s (all); op_latency_ms + cold_decide_ms.p50 (churn heavy)"),
    ("engine", "engine.apply", "op_latency_ms (churn); cert hits are 0 on E17, so removing certificates should move nothing"),
    ("cuts", "cuts.rmt / cuts.zpp", "decisions_per_s, cold_decide_ms.p50 (churn; light for no-cut); flat on stream/netd"),
    ("family", "family.join", "churn heavy; adversarial (claim joins)"),
    ("pka_decision", "pka.decide", "op_latency_ms (adversarial most); stream little (decide-cache hits)"),
    ("session.plan", "plan.build", "setup_s (stream, adversarial, netd)"),
    ("session.engine", "session.start", "payloads_per_s (stream)"),
    ("session.codec", "codec.*", "payloads_per_s (stream, netd); failed_ratio (adversarial, frames near MAX_FRAME_BYTES)"),
    ("sim.runner", "sim.round", "op_latency_ms (stream)"),
    ("net.runner", "net.round", "op_latency_ms (faults, adversarial)"),
    ("netd", "netd.mesh / netd.round", "op_latency_ms, payloads_per_s (netd)"),
]

PER_LAYER = [
    ("knowledge.build_ms", "ms"),
    ("cache.invalidate.parts", "count"),
    ("cache.invalidate.domains", "count"),
    ("engine.apply_ms", "ms"),
    ("cache.cert_hit_ratio", "ratio"),
    ("cuts.rmt_ms", "ms"),
    ("cuts.zpp_ms", "ms"),
    ("cuts.no_cut_share", "ratio"),
    ("rmt_cut.separators_enumerated", "count"),
    ("rmt_cut.components_enumerated", "count"),
    ("rmt_cut.exhaustive_fallbacks", "count"),
    ("zpp.separators_enumerated", "count"),
    ("zpp.components_enumerated", "count"),
    ("family.joins_trie", "count"),
    ("family.joins_explicit", "count"),
    ("family.kept_ratio", "ratio"),
    ("pka.decide_ms", "ms"),
    ("pka.selections_examined", "count"),
    ("pka.truncations", "count"),
    ("plan.build_ms", "ms"),
    ("session.frames", "count"),
    ("session.rounds", "count"),
    ("session.decide_cache_hit_ratio", "ratio"),
    ("session.invalid_frames", "count"),
    ("wire.amortization", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.expand_us", "us"),
    ("codec.frame_bytes.p50", "bytes"),
    ("codec.frame_bytes.max", "bytes"),
    ("round_ms.p50", "ms"),
    ("rounds_per_op", "count"),
    ("fault.delayed", "count"),
    ("fault.duplicated", "count"),
    ("netd.mesh_ms", "ms"),
    ("netd.wire.frames_sent", "count"),
    ("netd.conn.dials", "count"),
    ("netd.queue.shed_backpressure", "count"),
    ("netd.heartbeat.sent", "count"),
    ("wire_bits_per_payload", "bits"),
    ("cold_decide_ms.p50", "ms"),
    ("wrong_ratio", "ratio"),
    ("undecided_ratio", "ratio"),
    ("failed_ratio", "ratio"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_ms", "ms"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def quantile(values, q):
    """Nearest-rank quantile; values may contain math.inf (failed ops)."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def build(root):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "crates", "core", "Cargo.toml")):
        fail("the rmt workspace sources (crates/) are missing; run from the repository root")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target,
               CARGO_HOME=os.path.join(target, "cargo-home"))
    r = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"building the worker failed (exit {r.returncode})")
    return os.path.join(target, "release", "rmt-perfbench"), target


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_AS_BYTES, WORKER_AS_BYTES))


class Worker:
    """One worker process and a line reader with timeouts."""

    def __init__(self, cmd, env, stderr):
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=stderr, env=env,
                                     preexec_fn=limit_memory)
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        self.buf = b""

    def readline(self, timeout):
        """A line, None on timeout, or "" at end of stream."""
        end = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = end - time.monotonic()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return ""
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.sel.close()


def run_workload(exe, target, args):
    deadline = DEADLINE_S[args.workload]
    trace_dir = os.path.join(target, "perfbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    env = dict(os.environ, RMT_THREADS=str(RMT_THREADS), MALLOC_ARENA_MAX="2")
    stderr_path = os.path.join(trace_dir, f"worker-{args.workload}-{args.seed}.stderr")
    res = {
        "ops": {},          # idx -> dict
        "traces": [],       # (idx, record)
        "setup": None,      # traced set-up record
        "setup_ns": None,
        "setup_cal_ns": None,  # calibration time during set-up
        "rss_kb": [],       # peak minus pre-set-up RSS, per worker that finished
        "loop_s": 0.0,
        "lost_s": 0.0,      # time of failed operations
        "restarts": 0,
        "labels": {},       # idx -> attack cell (adversarial)
        "cal_ns": [],       # calibration kernel times
    }
    next_op, remaining, first = 0, float(args.seconds), True
    with open(stderr_path, "wb") as errf:
        while remaining > 0:
            cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", f"{remaining:.6f}", "--trace", str(args.trace),
                   "--start-op", str(next_op), "--setup-reps", str(SETUP_REPS if first else 1),
                   "--trace-dir", trace_dir]
            w = Worker(cmd, env, errf)
            try:
                while True:  # set-up
                    line = w.readline(120.0)
                    if not line:
                        fail(f"worker set-up failed or timed out (see {stderr_path})")
                    if line.startswith("TS "):
                        res["setup"] = json.loads(line[3:])
                    elif line.startswith("READY "):
                        if first:
                            f = line.split()
                            res["setup_ns"], res["setup_cal_ns"] = int(f[1]), int(f[3])
                        break
                t_go = last = time.monotonic()
                current = next_op
                while True:
                    line = w.readline(max(0.0, deadline - (time.monotonic() - last)))
                    now = time.monotonic()
                    if line is None or line == "":
                        # Deadline missed, or the worker died inside an op.
                        cause = "deadline" if line is None else "crash"
                        lost = deadline if line is None else now - last
                        res["ops"][current] = {"ns": math.inf, "failed": cause,
                                               "payloads": 0, "ok": 0, "wrong": 0,
                                               "undecided": 0, "wire_bits": 0,
                                               "invalid": 0, "cold_ns": 0}
                        res["lost_s"] += lost
                        res["loop_s"] += now - t_go
                        remaining -= now - t_go
                        next_op = current + 1
                        res["restarts"] += 1
                        break
                    if line.startswith("OP "):
                        f = line.split()
                        idx = int(f[1])
                        op = {"ns": int(f[2]), "failed": "panic" if f[3] == "1" else None,
                              "payloads": int(f[4]), "ok": int(f[5]), "wrong": int(f[6]),
                              "undecided": int(f[7]), "wire_bits": int(f[8]),
                              "invalid": int(f[9]), "cold_ns": int(f[10])}
                        if op["failed"]:
                            res["lost_s"] += op["ns"] / 1e9
                            op["ns"] = math.inf
                        res["ops"][idx] = op
                        current, last = idx + 1, now
                    elif line.startswith("CAL "):
                        res["cal_ns"].append(int(line.split()[1]))
                    elif line.startswith("AT "):
                        _, idx, label = line.split(" ", 2)
                        res["labels"][int(idx)] = label
                    elif line.startswith("TR "):
                        _, idx, rec = line.split(" ", 2)
                        res["traces"].append((int(idx), json.loads(rec)))
                    elif line.startswith("END "):
                        f = line.split()
                        res["rss_kb"].append(int(f[2]) - int(f[3]))
                        res["loop_s"] += now - t_go
                        remaining = 0
                        break
            finally:
                w.stop()
            first = False
    return res


def end_to_end(res, workload):
    ops = list(res["ops"].values())
    attempted = len(ops)
    failed = sum(1 for o in ops if o["failed"])
    payloads = sum(o["payloads"] for o in ops if not o["failed"])
    ok = sum(o["ok"] for o in ops)
    wrong = sum(o["wrong"] for o in ops)
    undecided = sum(o["undecided"] for o in ops)
    cold_s = sum(o["cold_ns"] for o in ops) / 1e9
    # Throughput counts the time of operations that completed: the time lost
    # to failed operations is reported through failed_ratio instead, and the
    # output checks and calibration runs are not the program's time.
    busy = max(1e-9, res["loop_s"] - res["lost_s"] - cold_s - sum(res["cal_ns"]) / 1e9)
    lat = [o["ns"] / 1e6 for o in ops]
    cold = [o["cold_ns"] / 1e6 for o in ops if o["cold_ns"]]
    rss = res["rss_kb"]
    raw = {
        "setup_s": (res["setup_ns"] / 1e9, "s"),
        "throughput_per_s": (ok / busy, "1/s"),
        "op_latency_ms.p50": (quantile(lat, 0.5), "ms"),
        "op_latency_ms.p90": (quantile(lat, 0.9), "ms"),
    }
    # Times are scaled to the reference speed at which the calibration kernel
    # takes CAL_REF_NS: the host's speed drifts by tens of percent over
    # minutes, and the kernel, which uses none of the measured code, drifts
    # with it.
    scale = CAL_REF_NS / median(res["cal_ns"]) if res["cal_ns"] else 1.0
    m = {k: (v / scale if unit == "1/s" else v * scale, unit) for k, (v, unit) in raw.items()}
    # Set-up is scaled by the kernel runs interleaved with its repetitions.
    m["setup_s"] = (raw["setup_s"][0] * CAL_REF_NS / res["setup_cal_ns"], "s")
    m["peak_rss_mb"] = (max(rss) / 1024 if rss else 0.0, "MB")
    extra = {
        "wrong_ratio": (wrong / max(1, payloads), "ratio"),
        "failed_ratio": (failed / max(1, attempted), "ratio"),
    }
    if workload == "churn":
        extra["cold_decide_ms.p50"] = (quantile(cold, 0.5) * scale, "ms")
    else:
        wire = sum(o["wire_bits"] for o in ops if not o["failed"])
        extra["wire_bits_per_payload"] = (wire / max(1, payloads), "bits")
        extra["undecided_ratio"] = (undecided / max(1, payloads), "ratio")
    invalid = sum(o["invalid"] for o in ops)
    return m, extra, raw, attempted, failed, wrong, invalid


def per_layer(res, workload, extra):
    setup = res["setup"] or {"v": {}, "s": {}}
    win, alls, samples, self_ns = {}, {}, {}, {}
    win_ops = 0
    for idx, rec in res["traces"]:
        in_window = idx < COUNT_WINDOW
        for k, v in rec["v"].items():
            alls[k] = alls.get(k, 0.0) + v
            if in_window:
                win[k] = win.get(k, 0.0) + v
        win_ops += in_window
        for k, v in rec["s"].items():
            if in_window or k not in WINDOW_SAMPLES:
                samples.setdefault(k, []).extend(v)
        for k, v in rec["t"].items():
            self_ns[k] = self_ns.get(k, 0) + v
    for k, v in setup["s"].items():
        samples.setdefault(k, []).extend(v)

    def per_op(key):
        return win.get(key, 0.0) / max(1, win_ops)

    def ratio(a, b):
        return a / b if b else 0.0

    def ms(key):
        return median(samples.get(key, [])) / 1e6

    sv = setup["v"]
    decisions = sv.get("cuts.decisions", 0.0) + win.get("cuts.decisions", 0.0)
    observed = sv.get("cuts.decisions", 0.0) + win.get("cold.decisions", 0.0)
    frames = alls.get("codec.frames", 0.0)
    fbytes = samples.get("codec.frame_bytes", [])
    if workload == "churn":
        untraced = [o["ns"] for i, o in res["ops"].items() if (i // 4) % 2 == 1 and not o["failed"]]
        base = median(untraced) / 1e6
    else:
        base = ms("base_ns")
    counted = lambda k: sv.get(k, 0.0) + win.get(k, 0.0)
    m = {
        "knowledge.build_ms": ms("knowledge.build_ns"),
        "cache.invalidate.parts": per_op("cache.invalidate.parts"),
        "cache.invalidate.domains": per_op("cache.invalidate.domains"),
        "engine.apply_ms": ms("engine.apply_ns"),
        "cache.cert_hit_ratio": ratio(win.get("cache.cert_hits", 0.0),
                                      win.get("cache.cert_hits", 0.0) + win.get("cache.cert_misses", 0.0)),
        "cuts.rmt_ms": ms("cuts.rmt_ns"),
        "cuts.zpp_ms": ms("cuts.zpp_ns"),
        "cuts.no_cut_share": ratio(counted("cuts.no_cut"), decisions),
        "rmt_cut.separators_enumerated": ratio(counted("rmt_cut.separators_enumerated"), observed),
        "rmt_cut.components_enumerated": ratio(counted("rmt_cut.components_enumerated"), observed),
        "rmt_cut.exhaustive_fallbacks": counted("rmt_cut.exhaustive_fallbacks"),
        "zpp.separators_enumerated": ratio(counted("zpp.separators_enumerated"), observed),
        "zpp.components_enumerated": ratio(counted("zpp.components_enumerated"), observed),
        "family.joins_trie": per_op("family.joins_trie"),
        "family.joins_explicit": per_op("family.joins_explicit"),
        "family.kept_ratio": ratio(win.get("family.kept_sets", 0.0), win.get("family.candidate_sets", 0.0)),
        "pka.decide_ms": ms("pka.decide_ns"),
        "pka.selections_examined": per_op("pka.selections_examined"),
        "pka.truncations": per_op("pka.truncations"),
        "plan.build_ms": ms("plan.build_ns"),
        "session.frames": per_op("session.frames"),
        "session.rounds": per_op("session.rounds"),
        "session.decide_cache_hit_ratio": ratio(win.get("session.decide_cache_hits", 0.0),
                                                win.get("session.decide_cache_hits", 0.0)
                                                + win.get("session.decide_cache_misses", 0.0)),
        "session.invalid_frames": win.get("session.invalid_frames", 0.0),
        "wire.amortization": ratio(win.get("wire.model_bits", 0.0), win.get("wire.frame_bits", 0.0)),
        "codec.encode_us": ratio(alls.get("codec.encode_ns", 0.0), frames) / 1e3,
        "codec.decode_us": ratio(alls.get("codec.decode_ns", 0.0), frames) / 1e3,
        "codec.expand_us": ratio(alls.get("codec.expand_ns", 0.0), frames) / 1e3,
        "codec.frame_bytes.p50": float(quantile(fbytes, 0.5)) if fbytes else 0.0,
        "codec.frame_bytes.max": float(max(fbytes)) if fbytes else 0.0,
        "round_ms.p50": ms("round_ns"),
        "rounds_per_op": per_op("session.rounds"),
        "fault.delayed": per_op("fault.delayed"),
        "fault.duplicated": per_op("fault.duplicated"),
        "netd.mesh_ms": ms("prelude_ns") if workload == "netd" else 0.0,
        "netd.wire.frames_sent": per_op("netd.wire.frames_sent"),
        "netd.conn.dials": per_op("netd.conn.dials"),
        "netd.queue.shed_backpressure": per_op("netd.queue.shed_backpressure"),
        "netd.heartbeat.sent": per_op("netd.heartbeat.sent"),
        "wire_bits_per_payload": extra.get("wire_bits_per_payload", (0.0,))[0],
        "cold_decide_ms.p50": extra.get("cold_decide_ms.p50", (0.0,))[0],
        "wrong_ratio": extra["wrong_ratio"][0],
        "undecided_ratio": extra.get("undecided_ratio", (0.0,))[0],
        "failed_ratio": extra["failed_ratio"][0],
        "unattributed_share": ratio(alls.get("op.ns", 0.0) - alls.get("op.child_ns", 0.0),
                                    alls.get("op.ns", 0.0)),
        "trace_overhead_ms": ms("op_ns") - base,
    }
    return m, self_ns, alls.get("op.ns", 0.0)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(DEADLINE_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # A terminated benchmark still stops its worker (the finally clauses run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    exe, target = build(root)
    res = run_workload(exe, target, args)
    e2e, extra, raw, attempted, failed, wrong, invalid = end_to_end(res, args.workload)
    if attempted == 0:
        fail("no operation completed")
    clean_wire = args.workload not in CLEAN_WIRE or invalid == 0
    correct = wrong == 0 and clean_wire

    w = args.workload
    print(f"# workload {w}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# calibration kernel median {median(res['cal_ns']) / 1e6:.4f} ms over {len(res['cal_ns'])} runs")
    print(f"# closed loop, 1 client; RMT_THREADS={RMT_THREADS} (nproc {os.cpu_count()}); "
          f"deadline {DEADLINE_S[w]} s/op; {attempted} ops, {failed} failed, "
          f"{res['restarts']} worker restarts")
    causes = [o["failed"] for o in res["ops"].values() if o["failed"]]
    if causes:
        print(f"# failed ops: " + ", ".join(f"{c} {causes.count(c)}" for c in sorted(set(causes)))
              + f"; {res['lost_s']:.2f} s lost of {res['loop_s']:.2f} s")
        cells = sorted({res["labels"][i] for i, o in res["ops"].items()
                        if o["failed"] and i in res["labels"]})
        for cell in cells:
            print(f"#   failed cell: {cell}")
    if args.trace == 0:
        names = dict(e2e, **extra)
        if w == "churn":
            names["decisions_per_s"] = names["throughput_per_s"]
        else:
            names["payloads_per_s"] = names["throughput_per_s"]
        for k in sorted(names):
            v, unit = names[k]
            print(f"{k:28s} {v:14.6g} {unit}")
        if w in CLEAN_WIRE:
            print(f"{'session.invalid_frames':28s} {invalid:14d} count")
        print("# as measured, before scaling to the reference speed: "
              + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in raw.items()))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        m, self_ns, op_ns = per_layer(res, w, extra)
        print("# per-layer self time (ms total; share of traced op time; replays re-timed after the op)")
        for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1]):
            if name.startswith(REPLAY_PREFIXES):
                share = "replay"
            elif name.startswith("cold"):
                share = "output check, outside the op"
            else:
                share = f"{ns / max(1.0, op_ns):7.1%}"
            print(f"  {name:22s} {ns / 1e6:12.3f} {share}")
        print("# layer -> end-to-end metric it should move")
        for layer, spans, note in LAYER_NOTES:
            print(f"  {layer:15s} [{spans}] -> {note}")
        for name, unit in PER_LAYER:
            print(f"{name:32s} {m[name]:14.6g} {unit}")
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in PER_LAYER}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.stdout.flush()
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
