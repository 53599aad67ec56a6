#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark harness.

    python3 bench/selfcheck.py        # from the root of the checkout, ~1 minute

Checks that BENCHMARK.json names exactly the workloads and metrics the
harness emits; that every workload runs at tiny sizes, untraced and
traced, and prints every metric with its unit on its last line; and
that an output with one injected wrong value is counted as a failure
while the untouched output is not. Exits nonzero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workload names")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
           "end_to_end metrics differ from metrics.END_TO_END")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
           "per_layer metrics differ from metrics.PER_LAYER")


def check_runs() -> None:
    for workload in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            expect(proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}")
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(line)}")
            expect(line["correct"] is True, f"{workload} trace={trace}: wrong output")
            expect(line["attempted"] >= 1, f"{workload}: nothing attempted")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metric names or units differ")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{workload}: non-numeric metric")
            print(f"ok {workload} trace={trace}: attempted={line['attempted']} "
                  f"failed={line['failed']}")


def _bump_gap(report: bytes) -> bytes:
    payload = json.loads(report)
    for check in payload["checks"]:
        if check["name"] == "additive_gap_lower":
            check["rhs"] *= 1.01
    return json.dumps(payload).encode()


# One wrong value per workload, injected into the first job's output.
INJECT = {
    "audit-small": lambda value, report: (value, _bump_gap(report)),
    "audit-large": lambda value, report: (value, _bump_gap(report)),
    "mc-curve": lambda value, report: ((value[0] + 0.01,) + value[1:], report),
    "scaling": lambda rows, report: (
        [dataclasses.replace(rows[0], gamma=rows[0].gamma * 1.01)] + rows[1:], report),
}


def check_injection() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import child
    import workloads

    for workload in WORKLOADS:
        work = os.path.join(ROOT, ".bench_out", "work", f"{workload}-selfcheck")
        job = workloads.build(workload, 7, True, work)[0]
        output = job.run()
        clean = child.judge([(job, output, None)], {})
        expect(clean["wrong"] == 0, f"{workload}: untouched output judged wrong: "
               f"{clean['failures']}")
        bad = child.judge([(job, INJECT[workload](*output), None)], {})
        expect(bad["wrong"] == 1, f"{workload}: injected wrong value was not caught")
        print(f"ok {workload}: injected wrong value in {job.id} counted as a failure")


def main() -> int:
    check_benchmark_json()
    check_injection()
    check_runs()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
