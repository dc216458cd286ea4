#!/usr/bin/env python3
"""Build and run the repository benchmark.

Single run (the form the result line is defined for):

    python3 perfbench/run.py --workload fleet_tcp --seed 1 --seconds 35 --trace 0

`--workload all` runs fleet_tcp and dense_serve in turn.
`--repeat N` runs N seeds (from `--seed` upward) per workload and prints
each end-to-end metric's median and quartiles, and the quartile spread
as a share of the median against the bound in BENCHMARK.json, so a later
change can re-prove that the benchmark is steady.

Run from the repository root. The program is built from source with
`cargo build --release --offline` into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr, so the last stdout line of
a single run is the benchmark's result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fleet_tcp", "dense_serve"]
# The seed baselines are recorded with, and the one held out for
# checking a claimed gain on inputs it was not tuned on.
BASELINE_SEED = 1
HOLDOUT_SEED = 9001
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark binary; returns its path or None."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return None
    binary = target / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary


def run_once(binary, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def bounds():
    path = HERE.parent / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def repeat(binary, workload, seeds, seconds):
    """Runs `seeds` and prints median, quartiles and spread per metric."""
    values = {}
    failed = 0
    for seed in seeds:
        started = time.monotonic()
        code, text = run_once(binary, workload, seed, seconds, 0, capture=True)
        wall = time.monotonic() - started
        if code != 0 or not text:
            print(f"{workload} seed {seed}: exit {code}", file=sys.stderr)
            return 1
        result = json.loads(text.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in sorted(result["metrics"].items())), flush=True)
    spec = bounds()
    print(f"\n{workload}: {len(seeds)} runs, {failed} failed operations")
    print(f"{'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    status = 0
    for name, vals in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec.get(name, {}).get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            status = 1
        print(f"{name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '-':>6}  {verdict}")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=BASELINE_SEED)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many seeds and report medians and quartiles")
    args = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        if args.repeat:
            seeds = range(args.seed, args.seed + args.repeat)
            status |= repeat(binary, workload, list(seeds), args.seconds)
        else:
            code, _ = run_once(binary, workload, args.seed, args.seconds, args.trace, capture=False)
            status |= code
    return status


if __name__ == "__main__":
    sys.exit(main())
