#!/usr/bin/env python3
"""Build the lgs benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ together with the lgs
sources under src/ into .bench_build/perfbench (Release); later calls
rebuild only what changed.  Workloads: exchange, central, stream,
stream-paced (see main.cpp).  --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics, and writes the span tree as Chrome
trace-event JSON under .bench_build/perfbench/out/.

The last line of standard output is the result object.  The exit status
is non-zero when the build fails, the arguments are bad, or any
correctness check fails.  --selftest builds and runs the benchmark's own
tests instead.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cmd, timeout, stdout):
    """Run `cmd` in its own process group; on timeout kill the whole group
    (compilers included) and wait for it.  Returns (exit status, stdout)."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Configure and compile (incrementally); tool output goes to stderr.
    Returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", BUILD, "-j", jobs]):
        if run(step, BUILD_TIMEOUT_S, sys.stderr)[0] != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    started = time.monotonic()
    try:
        built = build()
    except (subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run([os.path.join(BUILD, "perfbench_selftest")],
                   RUN_TIMEOUT_S, None)[0]

    out_dir = os.path.relpath(os.path.join(BUILD, "out"))
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", out_dir]
    # A first run in a fresh checkout also pays for the build.
    budget = min(RUN_TIMEOUT_S, 890 - (time.monotonic() - started))
    try:
        status, out = run(cmd, max(budget, 1), subprocess.PIPE)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.splitlines()
    sys.stdout.write(out)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: no result line", file=sys.stderr)
        return status or 1
    declared = declared_metrics(args.trace == "1")
    reported = {k: v.get("unit") for k, v in result["metrics"].items()}
    if declared is not None and reported != declared:
        print(f"perfbench: metrics {reported} differ from BENCHMARK.json "
              f"{declared}", file=sys.stderr)
        return 1
    return status


def declared_metrics(per_layer):
    """{name: unit} of the metrics BENCHMARK.json declares for the mode."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return None
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if per_layer else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
