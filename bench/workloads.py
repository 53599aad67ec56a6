"""The four benchmark workloads: seeded inputs, timed jobs and their checks.

``build(name, seed, tiny, work_dir)`` generates a workload's inputs (this
is set-up work) and returns its job list. A job's ``run`` is the timed
call into chaingap and returns ``(value, report_bytes)``; its
``check(value, report_bytes)`` compares them with an independent
reference (see ``reference.py``) and returns a list of problems, empty
when the output is right.
``tiny=True`` gives the same jobs at small sizes, used for the warm-up
call and by ``selfcheck.py``.

Why these four workloads:

- audit-small: the battery-audit script's traffic. Many small chains,
  Python overhead dominates; bounds (exact Cheeger) and empirical
  (deviation curves) do the work. Includes skewed-mu birth-death chains
  that the dense null-space stationary solve cannot handle yet.
- audit-large: a few mid-size chains through the command line; O(N^2)
  Python loops (canonical paths, Cheeger search) and O(N^3) BLAS
  (deviation curve powers). The only workload through the cli layer.
- mc-curve: Monte Carlo Delta_n, one Python step per draw; empirical
  only, on both sampling routes (inverse CDF and alias tables).
- scaling: the paper's scaling tables; large dense SVDs (spectral),
  flag detection in build_chain, and the closed forms (families).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import chaingap as cg
from chaingap import cli, experiments
from chaingap.empirical import DeltaCurve, DeltaPoint

import reference as ref
from metrics import WORKLOADS


@dataclass
class Job:
    id: str
    run: Callable[[], tuple[Any, bytes]]
    check: Callable[[Any, bytes], list[str]]
    seeded: bool  # inputs depend on the seed (report digests are per seed)


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _memo(fn):
    """Compute a reference once per job list, on first use (after timing)."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


# ---------------------------------------------------------------------------
# Input generators


def dense_matrix(n: int, rng) -> np.ndarray:
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


def sparse_nonreversible_matrix(n: int, rng) -> np.ndarray:
    """Hold 0.2, step around a cycle 0.5, jump along a random map 0.3.

    The cycle makes the chain irreducible and the hold aperiodic; the
    random functional graph breaks detailed balance and skews mu by at
    most a few orders of magnitude.
    """
    x = np.arange(n)
    P = np.zeros((n, n))
    np.add.at(P, (x, x), 0.2)
    np.add.at(P, (x, (x + 1) % n), 0.5)
    np.add.at(P, (x, rng.integers(0, n, size=n)), 0.3)
    return P


def birth_death_matrix(n: int, up: float = 0.9) -> np.ndarray:
    """Reflecting walk on 0..n-1 with drift: mu(x) is proportional to 9^x."""
    P = np.zeros((n, n))
    for x in range(n):
        P[x, min(x + 1, n - 1)] += up
        P[x, max(x - 1, 0)] += 1.0 - up
    return P


def circulant_steps(N: int, rng) -> list[tuple[int, float]]:
    """Hold, +1 and one random jump; irreducible and aperiodic for any draw."""
    jump = int(rng.integers(2, N - 1))
    hold, plus, _ = 0.1 + 0.7 * rng.dirichlet([2.0, 2.0, 2.0])
    return [(0, float(hold)), (1, float(plus)), (jump, float(1.0 - hold - plus))]


def circle_anchor(name: str) -> float | None:
    """Exact gap of the battery's circle walks, e.g. circle-drift-8-lazy."""
    parts = name.split("-")
    if parts[0] != "circle":
        return None
    kind, n = parts[1], int(parts[2])
    gap = {
        "sym": 1.0 - math.cos(2.0 * math.pi / n),
        "drift": math.sin(math.pi / n),
        "shift": 2.0 * math.sin(math.pi / n),
    }[kind]
    return 0.5 * gap if parts[-1] == "lazy" else gap


# ---------------------------------------------------------------------------
# audit-small


def _audit_job(job_id, *, chain=None, matrix=None, group_walk=False, anchor=None,
               seeded=False) -> Job:
    """inequality_audit, then delta_bounds_audit to ceil(50 tau), then a JSON report."""
    P = chain.transition if chain is not None else matrix

    def run():
        c = cg.build_chain(matrix) if matrix is not None else chain
        audit = cg.inequality_audit(c, group_walk=group_walk)
        _, tau = cg.spectral_gap(c)
        if math.isfinite(tau):
            audit = audit.merged(cg.delta_bounds_audit(c, math.ceil(50.0 * tau)))
        return c, experiments.render_report(audit, "json").encode("utf-8")

    @_memo
    def expected():
        mu = ref.gth_stationary(P)
        return mu, ref.weighted_gap(P, mu)

    def check(c, report):
        mu_ref, gap_ref = expected()
        report = json.loads(report)
        problems = ref.audit_problems(report, gap_ref)
        if matrix is not None:
            err = float(np.max(np.abs(c.stationary - mu_ref) / mu_ref))
            if err > ref.MU_REL:
                problems.append(f"stationary law off by relative {err:.3e}")
        gamma = ref.report_gap(report) or 0.0
        if anchor is not None and abs(gamma - anchor) > ref.ANCHOR_REL * anchor:
            problems.append(f"circle anchor: gap {gamma!r} != {anchor!r}")
        return problems

    return Job(job_id, run, check, seeded)


def audit_small(seed, tiny, work_dir):
    rng = _rng(seed, "audit-small")
    battery = cg.reference_battery(n_random=2, random_size=4) if tiny else cg.reference_battery()
    jobs = [
        _audit_job(f"battery:{item.name}", chain=item.chain, group_walk=item.group_walk,
                   anchor=circle_anchor(item.name))
        for item in battery
    ]
    sizes = (5, 6) if tiny else range(10, 21)
    for n in sizes:
        jobs.append(_audit_job(f"dense-{n}", matrix=dense_matrix(n, rng), seeded=True))
    for n in sizes:
        jobs.append(_audit_job(f"sparse-{n}", matrix=sparse_nonreversible_matrix(n, rng),
                               seeded=True))
    # Skewed mu (mu_min ~ 9^-(n-1)): valid chains that the seed refuses at 8, 12, 20.
    for n in (6, 8) if tiny else (6, 8, 12, 20):
        jobs.append(_audit_job(f"birth-death-{n}", matrix=birth_death_matrix(n)))
    return jobs


# ---------------------------------------------------------------------------
# audit-large


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _write_spec(work_dir, name, payload) -> str:
    path = os.path.join(work_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _cli_audit_job(job_id, spec_path, report_path, n_max, P, seeded) -> Job:
    argv = ["audit", "--spec", spec_path, "--n-max", str(n_max),
            "--format", "json", "--out", report_path]

    def run():
        if os.path.exists(report_path):  # never read a previous pass's report
            os.remove(report_path)
        code, _ = _cli(argv)
        with open(report_path, "rb") as fh:
            return code, fh.read()

    gap_ref = _memo(lambda: ref.weighted_gap(P))

    def check(code, report):
        problems = [] if code == 0 else [f"chaingap audit exited {code}"]
        return problems + ref.audit_problems(json.loads(report), gap_ref())

    return Job(job_id, run, check, seeded)


def _cli_cheeger_job(job_id, spec_path, restarts, seed, P) -> Job:
    argv = ["cheeger", "--spec", spec_path, "--trials", str(restarts), "--seed", str(seed)]

    def run():
        code, text = _cli(argv)
        return (code, json.loads(text)), text.encode("utf-8")

    mu = np.full(len(P), 1.0 / len(P))
    gap_ref = _memo(lambda: ref.weighted_gap(P, mu))

    def check(value, report):
        code, result = value
        problems = [] if code == 0 else [f"chaingap cheeger exited {code}"]
        subset, xi = result["argmin_set"], float(result["xi"])
        if mu[subset].sum() > 0.5 + 1e-12:
            problems.append("certificate set has more than half the mass")
        actual = ref.bottleneck_ratio(P, mu, subset)
        if abs(actual - xi) > 1e-12 + 1e-9 * actual:
            problems.append(f"xi {xi!r} is not the ratio {actual!r} of its set")
        if not gap_ref() <= 32.0 * xi * (1.0 + 1e-12):
            problems.append(f"gamma {gap_ref()!r} > 32 xi = {32.0 * xi!r}")
        return problems

    return Job(job_id, run, check, True)


def audit_large(seed, tiny, work_dir):
    rng = _rng(seed, "audit-large")
    # 201/200 states, not 401/400: at 400 one pass took ~10 s, so a 15 s run
    # held only two passes and wall_s spread 8% over ten seeds.
    n_cdg, n_sparse, deck, n_circ, n_max, restarts = (
        (41, 40, 4, 24, 10, 2) if tiny else (201, 200, 5, 40, 100, 10))
    sparse = sparse_nonreversible_matrix(n_sparse, rng)
    drift = float(rng.uniform(0.3, 0.7))
    circ_steps = [(1, drift), (-1, 1.0 - drift)]
    specs = {
        f"cdg-{n_cdg}": ({"family": "cdg", "N": n_cdg}, ref.doubling_matrix(n_cdg), False),
        f"sparse-{n_sparse}": ({"family": "explicit", "matrix": sparse.tolist()}, sparse, True),
        f"card-{deck}": ({"family": "cardshuffle", "N": deck}, ref.card_matrix(deck), False),
    }
    jobs = []
    for name, (payload, P, seeded) in specs.items():
        spec_path = _write_spec(work_dir, name, payload)
        report_path = os.path.join(work_dir, f"{name}.audit.json")
        jobs.append(_cli_audit_job(f"cli-audit:{name}", spec_path, report_path, n_max, P, seeded))
    circ_path = _write_spec(work_dir, f"circulant-{n_circ}",
                            {"family": "circulant", "N": n_circ, "steps": circ_steps})
    jobs.append(_cli_cheeger_job(f"cli-cheeger:circulant-{n_circ}", circ_path, restarts, seed,
                                 ref.circulant_matrix(n_circ, circ_steps)))
    return jobs


# ---------------------------------------------------------------------------
# mc-curve


def _mc_job(job_id, chain, P, n, reps, seed) -> Job:
    def run():
        exact, g = cg.delta_exact(chain, n)
        est, stderr = cg.delta_monte_carlo(chain, g, n, reps, seed)
        curve = DeltaCurve((DeltaPoint(n=n, delta_exact=exact, delta_mc=est, mc_stderr=stderr),))
        return (exact, est, stderr), experiments.render_report(curve, "json").encode("utf-8")

    mu = np.full(len(P), 1.0 / len(P))
    delta_ref = _memo(lambda: ref.delta(P, mu, n))

    def check(value, report):
        exact, est, stderr = value
        problems = []
        if abs(exact - delta_ref()) > ref.DELTA_ABS:
            problems.append(f"Delta_{n} {exact!r} differs from reference {delta_ref()!r}")
        if not (abs(est - exact) <= 4.0 * stderr or est == exact):
            problems.append(f"MC {est!r} +- {stderr!r} misses exact {exact!r} by > 4 stderr")
        return problems

    return Job(job_id, run, check, True)


def mc_curve(seed, tiny, work_dir):
    rng = _rng(seed, "mc-curve")
    # 32 states sample by inverse CDF, 128 by alias tables (ALIAS_THRESHOLD = 64).
    sizes, ns, reps = ((8, 70), (2, 4), 500) if tiny else ((32, 128), (2, 8, 32), 5000)
    jobs = []
    for N in sizes:
        steps = circulant_steps(N, rng)
        chain = cg.circulant_chain(N, steps)
        P = ref.circulant_matrix(N, steps)
        for n in ns:
            jobs.append(_mc_job(f"mc:circulant-{N}:n={n}", chain, P, n, reps, seed))
    return jobs


# ---------------------------------------------------------------------------
# scaling


def _scan_job(job_id, template, sizes, check_rows) -> Job:
    def run():
        rows = cg.scan(template, sizes)
        stable = [dataclasses.replace(r, wall_ms=0.0) for r in rows]  # wall_ms is a timing
        return rows, experiments.render_report(stable, "json").encode("utf-8")

    return Job(job_id, run, check_rows, False)


def _slope_check(label, lo, hi):
    def check(rows, report):
        slope = ref.loglog_slope([r.N for r in rows], [r.tau for r in rows])
        return [] if lo <= slope <= hi else [f"{label} slope {slope:.4f} outside [{lo}, {hi}]"]
    return check


def _gap_checks(matrices):
    """Dense-route rows against the reference SVD gap, for the sizes given."""
    gaps = _memo(lambda: {n: ref.weighted_gap(P) for n, P in matrices.items()})

    def check(rows, report):
        problems = []
        for r in rows:
            if r.N in gaps():
                problems += ref.gap_problem(f"N={r.N}", r.gamma, gaps()[r.N])
        return problems
    return check


def scaling(seed, tiny, work_dir):
    circle = cg.ChainSpec(family="circulant", N=4, steps=((0, 0.5), (1, 0.5)))
    torus = {label: cg.ChainSpec(family="torus", N=4, d=2, probs=cg.up_right_probs(alpha))
             for label, alpha in (("half", 0.5), ("irr", 1.0 / math.sqrt(2.0)))}
    circle_sizes = [8, 16, 32] if tiny else [8, 16, 32, 64, 128, 256, 512, 1024]
    torus_sizes = [128, 256, 512] if tiny else [256, 512, 1024, 2048, 4096]
    primes = [101, 211] if tiny else [101, 211, 401, 809, 1601]
    decks = [3, 4, 5, 6]
    trials = 200 if tiny else 2000

    def circle_check(rows, report):
        problems = []
        for r in rows:
            exact = math.sin(math.pi / r.N)
            if abs(r.gamma - exact) > ref.ANCHOR_REL * exact:
                problems.append(f"circle N={r.N}: gap {r.gamma!r} != sin(pi/N) = {exact!r}")
        return problems

    doubling_ref = _gap_checks({n: ref.doubling_matrix(n) for n in primes[:2]})

    def doubling_check(rows, report):
        ratios = [r.tau / math.log(r.N) for r in rows]
        spread = max(ratios) / min(ratios)
        problems = [] if spread <= 3.0 else [f"doubling tau/ln N spread {spread:.3f} > 3"]
        return problems + doubling_ref(rows, report)

    card_ref = _gap_checks({n: ref.card_matrix(n) for n in (3, 4, 5)})
    card_slope = _slope_check("card", 2.5, 3.5)

    def card_check(rows, report):
        problems = [f"card N={r.N}: tau {r.tau!r} > 41 N^3" for r in rows if r.tau > 41 * r.N**3]
        return problems + card_slope(rows, report) + card_ref(rows, report)

    L_grid = [1.0, 2.0, 4.0, 8.0]

    def ensemble_run():
        rows = cg.random_steps_ensemble(499, 2, [0.5, 0.5], trials, L_grid, seed)
        return rows, experiments.render_report(rows, "json").encode("utf-8")

    def ensemble_check(rows, report):
        fractions = [r.fraction for r in rows]
        problems = []
        if any(b > a for a, b in zip(fractions, fractions[1:])):
            problems.append(f"ensemble fractions not monotone: {fractions}")
        problems += [f"fraction {r.fraction} > 3 L^-1.5 at L={r.L}"
                     for r in rows if r.fraction > 3.0 * r.L**-1.5]
        return problems

    return [
        _scan_job("scan:circle", circle, circle_sizes, circle_check),
        _scan_job("scan:torus-half", torus["half"], torus_sizes,
                  _slope_check("torus drift 1/2", 1.9, 2.1)),
        _scan_job("scan:torus-irr", torus["irr"], torus_sizes,
                  _slope_check("torus drift 1/sqrt(2)", 1.183, 1.483)),
        _scan_job("scan:doubling", cg.ChainSpec(family="cdg", N=3), primes, doubling_check),
        _scan_job("scan:card", cg.ChainSpec(family="cardshuffle", N=3), decks, card_check),
        Job("ensemble:499", ensemble_run, ensemble_check, True),
    ]


# The speed probe that matches each workload's main cost (child.SpeedProbe):
# the large dense SVDs in scaling; Python-level numpy calls mixed with small
# dense algebra everywhere else. A mixed probe made scaling's spread worse.
PROBES = {
    "audit-small": "mixed",
    "audit-large": "mixed",
    "mc-curve": "mixed",
    "scaling": "dense",
}

BUILDERS = {
    "audit-small": audit_small,
    "audit-large": audit_large,
    "mc-curve": mc_curve,
    "scaling": scaling,
}


def build(name: str, seed: int, tiny: bool, work_dir: str) -> list[Job]:
    os.makedirs(work_dir, exist_ok=True)
    return BUILDERS[name](seed, tiny, work_dir)
