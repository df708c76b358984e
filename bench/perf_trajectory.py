#!/usr/bin/env python3
"""Aggregates perfbench result lines into a before/after BENCH_*.json row.

Each input file holds the stdout of one run of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

whose last line is the run's JSON result, preceded by the
"# W seed S: nproc N, commit C, ..." line. Pass one --row per side,
each naming its label, its commit, and its run files in the order they
ran; the i-th runs of the first two rows form pair i. Example:

    python3 bench/perf_trajectory.py --workload serve_anatomy \\
        --row parent <commit> runs/parent_s*.txt \\
        --row change <commit> runs/change_s*.txt \\
        --out BENCH_serve_anatomy.json

For every end-to-end metric of BENCHMARK.json each row gives its median
and quartiles, and a comparison of the first two rows of the call gives
the wins of each side over their pairs (ties count for neither,
"better" per BENCHMARK.json) and whether the second row's gain clears
the gain rule: wins on at least nine tenths of the pairs and a median
gap above the first row's interquartile range.

The file keeps its history: when --out exists, its rows and comparisons
are kept as they are and the call's rows are appended after them, the
call's comparison naming the indices of the two rows it compares.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^# (\S+) seed (\d+): nproc (\d+), commit (\S+),")


def read_run(path, workload):
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        sys.exit(f"{path}: empty")
    result = json.loads(lines[-1])
    header = [m for m in map(HEADER.match, lines) if m]
    if len(header) != 1 or header[0].group(1) != workload:
        sys.exit(f"{path}: no single '# {workload} seed' line")
    return {"seed": int(header[0].group(2)),
            "nproc": int(header[0].group(3)),
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--row", nargs="+", action="append", required=True,
                        metavar="LABEL COMMIT FILE",
                        help="label, commit, then the run files in run order")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["end_to_end"]
    rows = []
    for row in args.row:
        if len(row) < 3:
            sys.exit("--row needs a label, a commit and at least one file")
        runs = [read_run(path, args.workload) for path in row[2:]]
        rows.append({"label": row[0], "commit": row[1], "runs": runs})

    nprocs = {run["nproc"] for row in rows for run in row["runs"]}
    if len(nprocs) != 1:
        sys.exit(f"runs come from hosts with different nproc: {nprocs}")
    nproc = nprocs.pop()

    out_path = Path(args.out)
    if out_path.exists():
        out = json.loads(out_path.read_text())
        if out["workload"] != args.workload or out["nproc"] != nproc:
            sys.exit(f"{out_path} holds {out['workload']} runs on "
                     f"{out['nproc']} CPUs, not {args.workload} on {nproc}")
    else:
        out = {
            "workload": args.workload,
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       "--seed <seed> --seconds "
                       f"{spec['run_seconds']} --trace 0",
            "nproc": nproc,
            "rows": [],
            "comparisons": [],
        }
    first = len(out["rows"])
    for row in rows:
        runs = row["runs"]
        entry = {
            "label": row["label"],
            "commit": row["commit"],
            "seeds": [run["seed"] for run in runs],
            "all_correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {},
        }
        for metric in metrics_spec:
            values = [run["metrics"][metric["name"]] for run in runs]
            q1, median, q3 = quartiles(values)
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1,
                "q3": q3, "runs": values}
        out["rows"].append(entry)

    if len(rows) >= 2:
        base, new = rows[0]["runs"], rows[1]["runs"]
        if [r["seed"] for r in base] != [r["seed"] for r in new]:
            sys.exit("the first two rows must list the same seeds in order")
        comparison = {"rows": [first, first + 1], "pairs": len(base),
                      "metrics": {}}
        for metric in metrics_spec:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(sign * (n["metrics"][name] - b["metrics"][name]) > 0
                       for b, n in zip(base, new))
            losses = sum(sign * (n["metrics"][name] - b["metrics"][name]) < 0
                         for b, n in zip(base, new))
            b_stats = out["rows"][first]["metrics"][name]
            n_stats = out["rows"][first + 1]["metrics"][name]
            gap = sign * (n_stats["median"] - b_stats["median"])
            iqr = b_stats["q3"] - b_stats["q1"]
            comparison["metrics"][name] = {
                "wins": wins, "losses": losses,
                "median_change": n_stats["median"] / b_stats["median"] - 1.0
                if b_stats["median"] else None,
                "gain_clears_rule": wins * 10 >= 9 * len(base) and gap > iqr,
            }
        out["comparisons"].append(comparison)

    out_path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
