#!/usr/bin/env python3
"""Record the sha256 of every job's rendered report into digests.json.

    python3 bench/record_digests.py     # from the root of the checkout

Runs each workload's job list once with ``DIGEST_SEED`` and one BLAS
thread, as the benchmark does. The benchmark then reports how many
reports still match (``experiments.render_report.digest_match``) and how
many drifted (``.digest_mismatch``). Jobs whose inputs do not depend on
the seed are compared on every seed; the others only on DIGEST_SEED.
Re-record only when a change of output bytes is intended and named.
"""

import hashlib
import json
import os
import sys

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from metrics import WORKLOADS  # noqa: E402

DIGEST_SEED = 1


def main() -> int:
    digests = {}
    for name in WORKLOADS:
        work = os.path.join(ROOT, ".bench_out", "work", f"{name}-digests")
        for job in workloads.build(name, DIGEST_SEED, False, work):
            try:
                _, report = job.run()
            except Exception as exc:  # refused jobs have no report to record
                print(f"{job.id}: no report ({type(exc).__name__})")
                continue
            digests[job.id] = hashlib.sha256(report).hexdigest()
    path = os.path.join(HERE, "digests.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"seed": DIGEST_SEED, "jobs": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
