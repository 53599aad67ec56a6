#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads audit-small,mc-curve --seeds 1-10 \
        --out .bench_out/spread.json

For every end-to-end metric of every workload: the median of the runs and
the spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``. A metric is steady when its spread
stays below a third of its bound in BENCHMARK.json (set-up time is
exempt). Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list 1,5,9")
    parser.add_argument("--out", default=None, help="also write the runs and spreads as JSON")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "correct": line["correct"], "attempted": line["attempted"],
                         "failed": line["failed"],
                         **{k: v["value"] for k, v in line["metrics"].items()}})
            print(json.dumps(runs[-1]), flush=True)
        stats = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            stats[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / median, "bound": bound}
            steady = "exempt" if name == "setup_s" else (
                "steady" if (q3 - q1) / median < bound / 3 else "NOT steady")
            print(f"{workload} {name}: median {median:.4f} spread {(q3 - q1) / median:.4f} "
                  f"(bound {bound}) {steady}")
        summary[workload] = {"runs": runs, "stats": stats}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
