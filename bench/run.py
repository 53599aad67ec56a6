#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one line of JSON results.

    python3 bench/run.py --workload audit-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; chaingap is imported from its
``src`` directory, never from an installed copy, and the command fails
with exit code 2 if that directory is missing. Every workload process
gets one BLAS thread. Set-up time is the median over several fresh
processes: ``SETUP_PROBES`` that only set up, plus the measuring one.
``wall_s`` is the median over passes of the job list's time divided by
the host's speed in that pass, as ``child.SpeedProbe`` measures it;
``setup_s`` is divided by the median speed of the measuring run, which
starts within seconds of the set-up samples.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0`` and per-layer metrics with ``--trace 1``. A job fails when it
raises (a typed refusal or a crash) or when its output disagrees with the
reference; ``correct`` is false only for crashes and wrong outputs, so a
refused valid input counts in ``failed`` without hiding the other numbers.
Full results, with the machine record, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

BLAS_THREADS = 1  # fixed: extra OpenBLAS threads spin on these sizes and add noise
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0
HERE = os.path.dirname(os.path.abspath(__file__))


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: str, args, extra, timeout: float) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--t0", repr(t0), *extra]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs; for selfcheck.py, not for measurement")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "chaingap", "__init__.py")):
        print("bench: run from the root of a chaingap checkout (src/chaingap not found)",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")

    setup = [run_child(root, args, ["--setup-only"], PROBE_TIMEOUT_S)["setup_s"]
             for _ in range(0 if args.trace else SETUP_PROBES)]
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans-out", os.path.join(out_dir, f"spans-{tag}.jsonl")]
    result = run_child(root, args, extra, CHILD_TIMEOUT_S)
    setup.append(result["setup_s"])

    tally = result["tally"]
    failed = tally["refused"] + tally["crashed"] + tally["wrong"]
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"wall_s": statistics.median(w / v for w, v in zip(result["wall_s"],
                                                                     result["speed"])),
                  "setup_s": statistics.median(setup) / statistics.median(result["speed"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    line = {
        "correct": tally["crashed"] == 0 and tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": line, "setup_samples_s": setup, "child": result}, fh, indent=1)

    for job_id, (kind, detail) in sorted(tally["failures"].items()):
        print(f"failed job {job_id}: {kind}: {detail}")
    if result.get("absent"):
        print(f"absent functions (reported as 0): {', '.join(result['absent'])}")
    summary = (f"{args.workload}: passes={len(result['wall_s'])} jobs/pass={result['jobs']} "
               f"error_rate={failed / tally['attempted']:.4f} fraction")
    if not args.trace:
        summary += "".join(f" {k}={v['value']:.4f} {v['unit']}" for k, v in metrics.items())
        summary += (f" raw_wall_s={statistics.median(result['wall_s']):.4f} s"
                    f" host_speed={statistics.median(result['speed']):.3f}")
    print(summary)
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
