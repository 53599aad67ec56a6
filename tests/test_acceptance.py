"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

import chaingap as cg
from chaingap.experiments import ExperimentRow

MARGIN = 1e-9


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{label}]: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label} {suffix}"


@pytest.fixture(scope="module")
def battery():
    return cg.reference_battery()


def test_criterion_01_closed_form_anchors():
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 64):
        _, tau = cg.spectral_gap(cg.circulant_chain(n, [(0, 0.5), (1, 0.5)]))
        exact = 1.0 / math.sin(math.pi / n)
        worst = max(worst, abs(tau - exact) / exact)
        _, tau = cg.spectral_gap(cg.circulant_chain(n, [(1, 0.5), (-1, 0.5)]))
        exact = 1.0 / (1.0 - math.cos(2.0 * math.pi / n))
        worst = max(worst, abs(tau - exact) / exact)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "closed-form circle anchors",
        worst <= 1e-9 and elapsed < 1.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_circulant_formula_vs_svd():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst = 0.0
    done = 0
    while done < 50:
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(4, n) + 1))
        steps_a = rng.choice(n, size=k, replace=False)
        if math.gcd(int(n), *[int(a) for a in steps_a]) != 1:
            continue
        probs = rng.dirichlet(np.ones(k))
        if probs.min() <= 1e-6:
            continue
        steps = list(zip(steps_a.tolist(), (probs / probs.sum()).tolist()))
        _, tau_formula = cg.ChainSpec("circulant", n, steps=tuple(steps)).closed_form()
        gap_svd = cg.weighted_singular_spectrum(cg.circulant_chain(n, steps)).gap
        worst = max(worst, abs(gap_svd - 1.0 / tau_formula) * tau_formula)
        done += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "circulant formula vs dense SVD (50 random step sets)",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_deviation_bounds_on_battery(battery):
    start = time.perf_counter()
    worst_margin = math.inf
    worst_name = ""
    for item in battery:
        _, tau = cg.spectral_gap(item.chain)
        audit = cg.delta_bounds_audit(item.chain, n_max=math.ceil(50.0 * tau))
        for check in audit.checks:
            if check.applicable and check.margin < worst_margin:
                worst_margin = check.margin
                worst_name = f"{item.name}:{check.name}"
    elapsed = time.perf_counter() - start
    _report(
        3,
        "empirical-average deviation bounds on the battery",
        worst_margin >= -MARGIN and elapsed < 120.0,
        f"worst margin {worst_margin:.3g} at {worst_name}, {elapsed:.1f}s",
    )


def test_criterion_04_inequality_audit_on_battery(battery):
    start = time.perf_counter()
    worst_margin = math.inf
    worst_name = ""
    all_ok = True
    for item in battery:
        audit = cg.inequality_audit(
            item.chain, eps=1.0 / 6.0, k_max=10, group_walk=item.group_walk
        )
        all_ok &= audit.all_pass
        for check in audit.checks:
            if check.applicable and check.margin < worst_margin:
                worst_margin = check.margin
                worst_name = f"{item.name}:{check.name}"
    elapsed = time.perf_counter() - start
    _report(
        4,
        "inequality audit (a)-(i) on the battery",
        all_ok and worst_margin >= -MARGIN and elapsed < 120.0,
        f"worst margin {worst_margin:.3g} at {worst_name}, {elapsed:.1f}s",
    )


def test_criterion_05_monte_carlo_consistency():
    start = time.perf_counter()
    chains = {
        "flip": cg.build_chain([[0.0, 1.0], [1.0, 0.0]]),
        "uniform": cg.build_chain(np.full((5, 5), 0.2)),
        "lazy-biased-8": cg.circulant_chain(8, [(0, 0.5), (1, 0.5)]),
    }
    ok = True
    details = []
    for name, chain in chains.items():
        for n in (2, 8):
            exact, g = cg.delta_exact(chain, n)
            estimate, stderr = cg.delta_monte_carlo(chain, g, n=n, reps=20000, seed=20240)
            good = abs(estimate - exact) <= 4.0 * stderr or estimate == exact
            ok &= good
            details.append(f"{name}@n={n}: |{estimate:.4f}-{exact:.4f}|<=4*{stderr:.2e}")
    elapsed = time.perf_counter() - start
    _report(5, "Monte Carlo vs exact deviation", ok and elapsed < 30.0,
            f"{elapsed:.1f}s")


def test_criterion_06_torus_scaling_slopes():
    start = time.perf_counter()
    sizes = [64, 128, 256, 512, 1024]
    rows = []
    alpha = 1.0 / math.sqrt(2.0)
    for n in sizes:
        gamma, _ = cg.ChainSpec("torus", n, 2, probs=cg.up_right_probs(alpha)).closed_form()
        rows.append(ExperimentRow("torus", "irr", n, gamma, 1.0 / gamma, "closed_form", 0.0))
    slope_irr = cg.fit_scaling(rows).slope

    rows = []
    for n in sizes:
        gamma, _ = cg.ChainSpec("torus", n, 2, probs=cg.up_right_probs(0.5)).closed_form()
        rows.append(ExperimentRow("torus", "half", n, gamma, 1.0 / gamma, "closed_form", 0.0))
    slope_half = cg.fit_scaling(rows).slope
    elapsed = time.perf_counter() - start
    ok = 1.183 <= slope_irr <= 1.483 and 1.9 <= slope_half <= 2.1 and elapsed < 60.0
    _report(
        6,
        "torus slopes (quadratic-irrational vs rational drift)",
        ok,
        f"slope(1/sqrt2)={slope_irr:.3f}, slope(1/2)={slope_half:.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_doubling_chain_log_scaling():
    start = time.perf_counter()
    ratios, closed_err = [], 0.0
    for n in (101, 211, 401, 809, 1601):
        spectrum = cg.weighted_singular_spectrum(cg.cdg_chain(n))
        ratios.append(spectrum.relaxation / math.log(n))
        closed_gap, _ = cg.ChainSpec("cdg", n).closed_form()
        closed_err = max(closed_err, abs(closed_gap - spectrum.gap) / spectrum.gap)
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - start
    _report(
        7,
        "doubling chain tau ~ log N at primes",
        spread <= 3.0 and closed_err <= 1e-13 and elapsed < 300.0,
        f"max/min of tau/ln N = {spread:.3f}, closed form within {closed_err:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_card_shuffle_cubic():
    start = time.perf_counter()
    sizes = list(range(3, 9))
    rows = cg.scan(cg.ChainSpec("cardshuffle", 3), sizes)
    assert [r.method for r in rows] == ["closed_form"] * len(sizes)
    bound_ok = all(r.tau <= 41.0 * r.N**3 for r in rows)
    slope = cg.fit_scaling(rows[:4]).slope
    elapsed = time.perf_counter() - start
    _report(
        8,
        "card shuffle: tau <= 41 N^3 and cubic slope",
        bound_ok and 2.5 <= slope <= 3.5 and elapsed < 180.0,
        f"slope={slope:.3f}, sizes={sizes}, {elapsed:.1f}s",
    )


def test_criterion_09_random_step_ensemble_tail():
    start = time.perf_counter()
    rows = cg.random_steps_ensemble(
        N=499, k=2, p=[0.5, 0.5], trials=2000, L_grid=[1, 2, 4, 8], seed=499
    )
    fractions = [r.fraction for r in rows]
    monotone = all(b <= a for a, b in zip(fractions, fractions[1:]))
    bounded = all(r.fraction <= 3.0 * r.L**-1.5 for r in rows)
    elapsed = time.perf_counter() - start
    _report(
        9,
        "random step sets: tau tail bound",
        monotone and bounded and elapsed < 60.0,
        f"fractions={['%.4f' % f for f in fractions]}, {elapsed:.1f}s",
    )


def test_criterion_10_laziness_scaling(battery):
    start = time.perf_counter()
    chosen = [item for item in battery if item.name in
              ("flip", "uniform-5", "circle-sym-8", "circle-shift-16", "doubling-11")]
    assert len(chosen) == 5
    worst = 0.0
    for item in chosen:
        gamma, _ = cg.spectral_gap(item.chain)
        for theta in (0.25, 0.5, 0.9):
            scaled, _ = cg.spectral_gap(cg.lazy(item.chain, theta))
            worst = max(worst, abs(scaled - (1.0 - theta) * gamma) / ((1.0 - theta) * gamma))
    elapsed = time.perf_counter() - start
    _report(
        10,
        "gap scales exactly with laziness",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
