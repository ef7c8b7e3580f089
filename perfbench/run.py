#!/usr/bin/env python3
"""apcert benchmark: build once, certify many.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload runs in one process: it makes its inputs from the seed, runs the
build phase `setup_reps` times (setup_s is the median), then drives a closed
loop with one client for S seconds: each op is issued after the previous one
returns, and every answer is checked before the next op is sent. With
--trace 0 nothing is wrapped and the end-to-end metrics are printed. With
--trace 1 the run builds once with the layer wrappers of tracing.py installed,
then alternates rounds of traced and untraced ops, and prints the per-layer metrics
together with the tracing overhead. `--workload all` runs every workload in a
child process of its own, one after another.

Times are scaled to a reference host speed. The host is shared and its speed
drifts by up to 2x within seconds, so after every build and after every block
of about 0.1 s of ops the run times a fixed calibration kernel that calls no
apcert code, and scales what it measured by K_REF over the kernel's time.
A change to the program moves the ops, never the kernel.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any failed operation (a build or an op that
raises, or an answer that fails its check) prints correct=false and exits
with 1. The run imports apcert from src/ next to this directory and exits with
2 without a result when those sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_right
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "apcert")
TRACE_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("kfold-certify", "subsetsum-certify", "unbounded-stream", "dense-decide")

# Ops between two calibration probes: a block ends after BLOCK_S seconds or
# BLOCK_CAP correct answers, whichever comes first.
BLOCK_S = 0.1
BLOCK_CAP = 1 << 14
# Seconds the calibration kernel takes on the reference host (Python 3.11.7,
# 2 vCPUs, unloaded); a reported time is what the run measured times K_REF
# over the kernel's time next to it.
K_REF = 300e-6
_TABLE = list(range(0, 1 << 16, 7))


def _kernel() -> int:
    # dict updates, integer arithmetic and bisect over a list: the kind of
    # work the apcert query paths do
    d: dict[int, int] = {}
    acc = 0
    for i in range(600):
        k = (i * 2654435761) & 0xFFFF
        d[k] = d.get(k, 0) + i
        acc ^= bisect_right(_TABLE, k)
    return acc


def probe() -> float:
    """Seconds of one calibration kernel, the least of three (the first
    also warms the cache, and a preempted one is discarded)."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Histogram:
    """Latency counts in log-spaced bins 0.2% wide from 0.1 us to about
    40 minutes: its memory does not grow with the number of ops. A quantile
    interpolates inside its bin, so it is exact to 0.2%."""

    LO = 1e-7
    STEP = math.log(1.002)
    BINS = 12_000

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BINS))
        self.n = 0

    def add(self, x: float) -> None:
        b = int(math.log(x / self.LO) / self.STEP) if x > self.LO else 0
        self.counts[min(b, self.BINS - 1)] += 1
        self.n += 1

    def merge(self, other: "Histogram") -> None:
        for b, c in enumerate(other.counts):
            if c:
                self.counts[b] += c
        self.n += other.n

    def quantile(self, q: float) -> float:
        target = q * self.n
        cum = 0
        for b, c in enumerate(self.counts):
            if c and cum + c >= target:
                return self.LO * math.exp((b + (target - cum) / c) * self.STEP)
            cum += c
        raise ValueError("empty histogram")


def _import_program():
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        sys.stderr.write(f"perfbench: apcert sources not found under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import apcert

    if os.path.dirname(os.path.abspath(apcert.__file__)) != PKG:
        sys.stderr.write(f"perfbench: imported apcert from {apcert.__file__}, not {PKG}\n")
        raise SystemExit(2)


def _environment() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    lines = 0
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                lines += sum(1 for _ in fh)
    return (
        f"python {platform.python_version()} ({platform.python_implementation()}) | "
        f"nproc {len(os.sched_getaffinity(0))} | numpy {numpy_version} | "
        f"{platform.system()} {platform.machine()} | src/apcert {lines} lines"
    )


def _query_loop(wl, seconds: float, rec=None):
    """Closed loop, one client, for `seconds`. With a recorder, rounds of one
    op per instance alternate between traced and untraced (the first round
    traced), and the loop goes on until `wl.count_ops` traced ops are done.

    An op that raises or whose answer fails its check is a failure. Latencies
    of correct answers wait in a fixed block buffer until the block's probe,
    then go scaled into one histogram per label (traced ops into one of their
    own), so the harness's memory does not grow with the number of ops and
    peak_rss_mb stays a property of the program."""
    stream = wl.ops()
    n_live = len(wl.built)
    hists: dict[str, Histogram] = {}
    traced_hist = Histogram()
    buf_lat = array("d", bytes(8 * BLOCK_CAP))
    buf_hist: list = [None] * BLOCK_CAP
    count_prefix: list = []
    failed = 0
    failures: list[str] = []
    k = 0
    raw_busy = busy = 0.0
    gc.collect()
    deadline = perf_counter() + seconds
    done = False
    while not done:
        n = 0
        b0 = perf_counter()
        block_end = b0 + BLOCK_S
        while True:
            op = next(stream)
            traced = rec is not None and (k // n_live) % 2 == 0
            if traced:
                rec.install()
                rec.phase, rec.op_id = "op", k
                rec.enter("op")
            t0 = perf_counter()
            try:
                label, reason = wl.execute(op)
            except Exception as exc:  # counts as a wrong answer, never as a skip
                label, reason = op[0].label, f"raised {exc!r}"
            t1 = perf_counter()
            if traced:
                rec.leave()
                rec.uninstall()
                if len(count_prefix) < wl.count_ops:
                    count_prefix.append(op)
                    if len(count_prefix) == wl.count_ops:
                        rec.freeze_counts()
            if reason is None:
                hist = traced_hist if traced else hists.get(label)
                if hist is None:
                    hist = hists[label] = Histogram()
                buf_lat[n] = t1 - t0
                buf_hist[n] = hist
                n += 1
            else:
                failed += 1
                if len(failures) < 16:
                    failures.append(f"{label}: {reason}")
            k += 1
            if t1 >= deadline and (rec is None or len(count_prefix) >= wl.count_ops):
                done = True
                break
            if t1 >= block_end or n == BLOCK_CAP:
                break
        scale = K_REF / probe()
        raw_busy += t1 - b0
        busy += (t1 - b0) * scale
        for i in range(n):
            buf_hist[i].add(buf_lat[i] * scale)
    return {
        "attempted": k, "failed": failed, "failures": failures, "busy": busy,
        "raw_busy": raw_busy, "hists": hists, "traced_hist": traced_hist,
        "count_prefix": count_prefix,
    }


def _merged(hists) -> Histogram:
    out = Histogram()
    for h in hists:
        out.merge(h)
    return out


def _setup(wl, reps: int):
    """Build every instance `reps` times. Returns (scaled seconds per rep,
    scaled seconds of each build by label, raw over scaled seconds,
    failures); it stops at the first failed build. Each build is scaled by
    the mean of the probes before and after it."""
    times, per_label, failures = [], {}, []
    raw = scaled = 0.0
    for _ in range(reps):
        wl.release()
        gc.collect()
        total = 0.0
        k0 = probe()
        for label, values, param in wl.inputs:
            dt, failure = wl.build_instance(label, values, param)
            k1 = probe()
            s = dt * K_REF / ((k0 + k1) / 2)
            k0 = k1
            total += s
            raw += dt
            scaled += s
            per_label.setdefault(label, []).append(s)
            if failure is not None:
                failures.append(failure)
                return times, per_label, raw / scaled, failures
        times.append(total)
    return times, per_label, raw / scaled, failures


def _sanity(wl, build_by_label: dict, op_by_label: dict) -> str:
    parts = []
    for desc, kind, label, lo, hi in wl.references:
        got = build_by_label.get(label) if kind == "build" else op_by_label.get(label)
        if got is None:
            parts.append(f"{desc}: not measured")
            continue
        ratio = got / hi if got > hi else (got / lo if got < lo else 1.0)
        flag = "" if 1 / 3 <= ratio <= 3 else " BEYOND 3x"
        unit, scale = ("s", 1) if kind == "build" else ("us", 1e6)
        ref = f"{lo * scale:g}" if lo == hi else f"{lo * scale:g}-{hi * scale:g}"
        parts.append(f"{desc} {got * scale:.4g} {unit} vs ~{ref} {unit} ({ratio:.2f}x){flag}")
    return "; ".join(parts)


def timed_run(wl, seconds: float):
    times, build_times, setup_slow, failures = _setup(wl, wl.setup_reps)
    builds = sum(len(v) for v in build_times.values())
    if failures:
        return {}, builds, len(failures), failures, []
    q = _query_loop(wl, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    final = wl.final_checks()
    attempted = builds + q["attempted"]
    failed = q["failed"] + len(final)
    if failed:
        return {}, attempted, failed, q["failures"] + final, []
    lat = _merged(q["hists"].values())
    n = lat.n
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (n / q["busy"], "1/s"),
        "op_p50_us": (lat.quantile(0.5) * 1e6, "us"),
        "op_p99_us": (lat.quantile(0.99) * 1e6, "us"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    build_by_label = {label: statistics.median(v) for label, v in build_times.items()}
    op_by_label = {label: h.quantile(0.5) for label, h in q["hists"].items()}
    notes = [
        f"setup: {wl.setup_reps} reps, scaled build seconds "
        + ", ".join(f"{t:.4f}" for t in times),
        f"ops: {q['attempted']} in {q['raw_busy']:.3f} s; p50 and p99 over {n} correct "
        f"answers ({n - math.ceil(0.99 * n)} above p99)",
        f"host speed: measured times were {setup_slow:.3f}x (set-up) and "
        f"{q['raw_busy'] / q['busy']:.3f}x (ops) the reference-speed figures reported",
        "p50 by instance: " + ", ".join(
            f"{label} {v * 1e6:.1f} us" for label, v in sorted(op_by_label.items())),
        "sanity vs ROADMAP re-anchor: " + _sanity(wl, build_by_label, op_by_label),
    ]
    if n < 1000:
        notes.append("WARNING: fewer than 1000 answers, so op_p99_us leaves fewer than "
                     "ten samples above it")
    return metrics, attempted, 0, [], notes


def traced_run(wl, seconds: float, trace_path: str):
    import tracing

    rec = tracing.Recorder()
    if rec.missing:
        raise SystemExit("perfbench: wrap targets not found, so their per-layer metrics "
                         "cannot be measured: " + ", ".join(rec.missing))
    rec.phase = rec.op_id = "build"
    rec.install()
    try:
        _, build_times, _, failures = _setup(wl, 1)
    finally:
        rec.uninstall()
    builds = sum(len(v) for v in build_times.values())
    if failures:
        return {}, builds, len(failures), failures, []
    q = _query_loop(wl, seconds, rec)
    final = wl.final_checks()
    attempted = builds + q["attempted"]
    failed = q["failed"] + len(final)
    if failed:
        return {}, attempted, failed, q["failures"] + final, []
    n_traced = q["traced_hist"].n
    metrics = rec.metrics(wl.exact_counts(q["count_prefix"]), n_traced, len(q["count_prefix"]))
    traced_p50 = q["traced_hist"].quantile(0.5) * 1e6
    plain_p50 = _merged(q["hists"].values()).quantile(0.5) * 1e6
    metrics["trace.op_p50_us"] = (traced_p50, "us")
    metrics["trace.untraced_op_p50_us"] = (plain_p50, "us")
    metrics["trace.overhead_us"] = (traced_p50 - plain_p50, "us")
    rec.write(trace_path, {"workload": wl.name, "seed": wl.seed})
    notes = [
        f"traced {n_traced} of {q['attempted']} ops; exact counts over the first "
        f"{len(q['count_prefix'])} traced ops",
        f"tracing overhead {traced_p50 - plain_p50:.2f} us on op_p50 "
        f"({traced_p50:.2f} traced vs {plain_p50:.2f} untraced, both at reference speed)",
        f"spans written to {os.path.relpath(trace_path, ROOT)} "
        f"({len(rec.spans)} kept, {rec.dropped} dropped)",
    ]
    return metrics, attempted, 0, [], notes


def run_one(args) -> int:
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    print(f"# apcert benchmark | workload {wl.name} | seed {args.seed} | "
          f"seconds {args.seconds} | trace {args.trace}")
    print(f"# env: {_environment()}")
    for line in wl.describe():
        print(f"# input {line}")
    try:
        if args.trace:
            path = os.path.join(TRACE_DIR, f"trace-{wl.name}-seed{args.seed}.jsonl")
            metrics, attempted, failed, failures, notes = traced_run(wl, args.seconds, path)
        else:
            metrics, attempted, failed, failures, notes = timed_run(wl, args.seconds)
    except workloads.WrongAnswer as exc:
        metrics, attempted, failed, failures, notes = {}, 1, 1, [str(exc)], []
    for note in notes:
        print(f"# {note}")
    for f in failures:
        print(f"# FAILED: {f}")
    print(f"{wl.name} fail_ratio {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted, builds included)")
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        sys.stdout.write("".join(line + "\n" for line in (lines[:-1] if result else lines)))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
        if result is None:
            status = status or 1
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
