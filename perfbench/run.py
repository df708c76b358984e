#!/usr/bin/env python3
"""Builds perfbench from the sources beside it and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload publish --seed 1 --seconds 10 --trace 0

The binary is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). The run prints a human-readable report,
then, as its last line, one JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (0 for a layer the workload does
not exercise). The exit code is 0 only when every correctness check
passed; a build or run failure exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} failed: {err}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")
    return build_dir / "perfbench"


def commit_id():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    declared = {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir),
               "--commit", commit_id()]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stdout[-4000:])
        fail(f"{args.workload} exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = measured.get(name)
        if value is None:
            if not args.trace:
                fail(f"end-to-end metric {name} was not measured")
            value = 0.0  # the layer does no work on this workload
        if not math.isfinite(value) or (not args.trace and value <= 0):
            fail(f"metric {name} = {value} is not a positive finite number")
        metrics[name] = {"value": value, "unit": metric["unit"]}

    meta = raw.get("meta", {})
    print(f"# {args.workload} seed {args.seed}: nproc {meta.get('nproc')}, "
          f"commit {meta.get('commit')}, "
          f"formation threads {meta.get('formation_threads')}")
    for name, hash_value in raw.get("hashes", {}).items():
        print(f"# EC-structure hash {name}: {hash_value}")
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value']:>16.6g}  {m['unit']}")

    correct = bool(raw["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
