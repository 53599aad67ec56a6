"""One workload process: set up, run the job list for a fixed time, check it.

Started by run.py with the BLAS thread count fixed in its environment and
``src`` on PYTHONPATH. Closed loop, one client: jobs run one after
another, and the job list repeats until ``--seconds`` have passed. With
``--trace 1`` the passes alternate untraced and traced, so the same run
yields both the tracing overhead and the per-layer spans. Every pass
runs a host-speed probe between jobs (``SpeedProbe``), so that pass
times can be compared at a fixed reference speed.

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from metrics import PER_LAYER
from tracing import LAYERS, Tracer


def require_checkout_package(root: str) -> None:
    """Refuse to measure any chaingap but the one in this checkout's src."""
    import chaingap

    here = os.path.realpath(os.path.join(root, "src", "chaingap"))
    if os.path.dirname(os.path.realpath(chaingap.__file__)) != here:
        raise SystemExit(f"chaingap imported from {chaingap.__file__}, not from {here}")


def machine_record(seed: int, root: str) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass

    def cache(level):
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
            try:
                with open(os.path.join(base, index, "level"), encoding="utf-8") as fh:
                    if fh.read().strip() != str(level):
                        continue
                with open(os.path.join(base, index, "size"), encoding="utf-8") as fh:
                    return fh.read().strip()
            except OSError:
                continue
        return "unknown"

    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            commit = fh.read().strip()
        if commit.startswith("ref: "):
            ref_path = os.path.join(root, ".git", commit[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_per_instance": cache(2),
        "l3_per_instance": cache(3),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
        "commit": commit,
    }


class SpeedProbe:
    """A fixed piece of work that measures how fast the host runs right now.

    This VM's speed drifts by a third or more over seconds to minutes, in
    CPU time as much as in wall time, so raw pass times of the same code
    spread widely from run to run. The probe runs between timed jobs and
    does the kind of work its workload spends its time on (``PROBES`` in
    workloads.py):

    - ``mixed``: numpy scalar calls from a Python loop, then an SVD and a
      product of a 96x96 matrix;
    - ``dense``: an SVD of a 192x192 matrix, for the large dense SVDs.

    It never calls chaingap, so a change to the program cannot move it;
    only the host's speed can.
    """

    # Fixed units, one per kind: the probe's typical time between jobs on
    # the baseline machine (README). Changing one rescales every wall_s.
    REFERENCE_S = {"mixed": 1.25e-3, "dense": 3.0e-3}

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.reference_s = self.REFERENCE_S[kind]
        self.cdf = np.cumsum(np.full(32, 1.0 / 32.0))
        self.matrix = rng.random((96, 96) if kind == "mixed" else (192, 192))

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.kind == "mixed":
            acc = 0.0
            for key in range(8):
                u = np.random.Generator(np.random.Philox(key=key)).random(8)
                for x in u:
                    acc += min(int(np.searchsorted(self.cdf, x, side="right")), 31)
            self.matrix @ self.matrix
        np.linalg.svd(self.matrix, compute_uv=False)
        return time.perf_counter() - t0


PROBE_SHARE = 0.03  # probe time per unit of job time in an untraced pass


def run_pass(jobs, tracer=None, probe=None):
    """Run every job once; returns (wall_s, cpu_s, speed, [(job, output, error)]).

    ``wall_s`` and ``cpu_s`` cover the jobs alone. With a probe, it runs
    after each job until its time adds up to ``PROBE_SHARE`` of the jobs'
    time so far, so the probes sample the pass evenly in time, and
    ``speed`` is their mean time over the probe's reference time (above 1
    on a host slower than the reference); without one, ``speed`` is None.
    """
    from chaingap.errors import ChainError

    outcomes = []
    wall = cpu = probe_s = 0.0
    probes = 0
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcomes.append((job, job.run(), None))
        except ChainError as exc:
            outcomes.append((job, None, ("refused", f"{type(exc).__name__}: {exc}")))
        except Exception as exc:  # a crash is recorded as a failed job, never fatal
            outcomes.append((job, None, ("crashed", f"{type(exc).__name__}: {exc}")))
        wall += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        while probe is not None and (probes == 0 or probe_s < PROBE_SHARE * wall):
            probe_s += probe()
            probes += 1
    speed = probe_s / probes / probe.reference_s if probe is not None else None
    return wall, cpu, speed, outcomes


def judge(outcomes, digests) -> dict:
    """Check every output against its reference; count failures and digests."""
    tally = {"attempted": 0, "refused": 0, "crashed": 0, "wrong": 0,
             "digest_match": 0, "digest_mismatch": 0, "failures": {}}
    for job, output, error in outcomes:
        tally["attempted"] += 1
        if error is None:
            value, report = output
            try:
                problems = job.check(value, report)
            except Exception as exc:  # an output the check cannot read is wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                tally["wrong"] += 1
                error = ("wrong", "; ".join(problems))
            want = digests.get(job.id)
            if want is not None:
                match = hashlib.sha256(report).hexdigest() == want
                tally["digest_match" if match else "digest_mismatch"] += 1
        else:
            tally[error[0]] += 1
        if error is not None:
            tally["failures"][job.id] = list(error)
    return tally


def load_digests(path: str, seed: int, jobs) -> dict:
    """Stored report digests that apply to this seed's jobs."""
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        stored = json.load(fh)
    same_seed = stored["seed"] == seed
    return {job.id: stored["jobs"][job.id] for job in jobs
            if job.id in stored["jobs"] and (same_seed or not job.seeded)}


def layer_metrics(tracer) -> dict:
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(tracer.self_times())
    values.update(tracer.counts)
    steps = values["empirical.delta_monte_carlo.steps"]
    own = values["empirical.delta_monte_carlo.self_s"]
    values["empirical.delta_monte_carlo.steps_per_s"] = steps / own if own > 0 else 0.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    root = os.getcwd()

    require_checkout_package(root)
    import workloads

    work = os.path.join(root, ".bench_out", "work")
    jobs = workloads.build(args.workload, args.seed, args.tiny,
                           os.path.join(work, args.workload + ("-tiny" if args.tiny else "")))
    warmup = workloads.build(args.workload, args.seed, True,
                             os.path.join(work, args.workload + "-warmup"))
    probe = SpeedProbe(workloads.PROBES[args.workload])
    for _ in range(3):
        probe()
    run_pass(warmup)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digests = load_digests(os.path.join(os.path.dirname(__file__), "digests.json"),
                           args.seed, jobs)
    tracer = Tracer() if args.trace else None
    untraced, traced, layers = [], [], []
    tally = None
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                wall, cpu, speed, outcomes = run_pass(jobs, tracer, probe)
            finally:
                tracer.uninstall()
            traced.append(wall / speed)
            values = layer_metrics(tracer)
            values["trace.unattributed_s"] = wall - sum(values[f"{x}.self_s"] for x in LAYERS)
            layers.append(values)
        else:
            wall, cpu, speed, outcomes = run_pass(jobs, probe=probe)
            untraced.append((wall, cpu, speed))
        verdict = judge(outcomes, digests)
        if tally is None:
            tally = verdict
        else:
            for key in ("attempted", "refused", "crashed", "wrong"):
                tally[key] += verdict[key]
            tally["failures"].update(verdict["failures"])
        done = time.perf_counter() - start >= args.seconds
        if done and (tracer is None or traced):
            break

    result = {
        "setup_s": setup_s,
        "wall_s": [w for w, _, _ in untraced],
        "cpu_s": [c for _, c, _ in untraced],
        "speed": [v for _, _, v in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": len(jobs),
        "tally": tally,
        "machine": machine_record(args.seed, root),
    }
    if tracer is not None:
        per_layer = {name: statistics.median(pass_[name] for pass_ in layers)
                     for name in layers[0]}
        per_layer["process.cpu_s"] = statistics.median(c for _, c, _ in untraced)
        per_layer["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(w / v for w, _, v in untraced) - 1.0)
        per_layer["experiments.render_report.digest_match"] = verdict["digest_match"]
        per_layer["experiments.render_report.digest_mismatch"] = verdict["digest_mismatch"]
        per_layer["jobs.refused"] = verdict["refused"]
        result["per_layer"] = per_layer
        result["absent"] = tracer.absent
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                for name, s, e, parent, job in tracer.spans:
                    fh.write(json.dumps({"name": name, "start": s, "end": e,
                                         "parent": parent, "job": job}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
