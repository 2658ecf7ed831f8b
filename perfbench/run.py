#!/usr/bin/env python3
"""End-to-end benchmark of the dpg library.

Builds the benchmark (perfbench/CMakeLists.txt, Release) from the library
sources of this checkout, runs one workload, and passes the benchmark
program's output through. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload rmat17-sssp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke     # scale-11 self-check of every workload

Seed 7 is held out: develop with other seeds; a claimed gain must also hold
on seed 7.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the checkout root). Exits non-zero without a result line when
the library sources are missing or the build or run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmat17-sssp", "rmat17-dense", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (first use) and builds the benchmark program; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dpg.hpp")):
        log(f"library sources not found under {os.path.join(ROOT, 'src')}")
        return None
    bdir = build_dir()
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return None
    exe = os.path.join(bdir, "dpg_perfbench")
    return exe if os.path.isfile(exe) else None


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_program(exe, args):
    """Runs the benchmark program; returns (exit code, stdout text)."""
    try:
        r = subprocess.run([exe] + args + ["--git-sha", git_sha()], stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, ""
    return r.returncode, r.stdout


def smoke(exe):
    """Runs every workload small, traced and untraced, and checks every
    metric name, unit and oracle against BENCHMARK.json."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace),
                    "--smoke"]
            code, out = run_program(exe, args)
            where = f"{w} trace={trace}"
            if code != 0 or not out.strip():
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected[trace]))}, "
                                f"unit mismatch {sorted(k for k in got if k in expected[trace] and got[k] != expected[trace][k])}")
            for k, v in result["metrics"].items():
                if not math.isfinite(v["value"]) or (trace == 0 and v["value"] <= 0):
                    problems.append(f"{where}: {k} = {v['value']}")
            log(f"{where}: {result['attempted']} ops, {result['failed']} failed, "
                f"{len(got)} metrics")
    for p in problems:
        log(f"SMOKE FAILURE: {p}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at small scale and check names, units, oracles")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    exe = build()
    if exe is None:
        return 2
    if args.smoke:
        return smoke(exe)
    code, out = run_program(exe, ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0:
        log(f"benchmark program failed with exit code {code}")
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
