"""Independent reference values that the benchmark checks outputs against.

Written from the definitions with plain numpy, sharing no code with
chaingap: the stationary law by the GTH elimination (subtraction-free,
so entrywise accurate even for very skewed laws), the gap as the second
smallest singular value of D^{1/2} (I - P) D^{-1/2}, the worst-case
deviation Delta_n from explicit matrix powers, and the bottleneck ratio
of a given subset.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

# Tolerances of the correctness gate.
GAP_REL = 1e-7        # program gap vs reference SVD gap
GAP_ABS = 1e-10
ANCHOR_REL = 1e-9     # closed-form circle anchors vs their exact formulas
MU_REL = 1e-6         # solved stationary law vs GTH, entrywise relative
DELTA_ABS = 1e-9      # exact Delta_n vs explicit-power reference
CHECK_SLACK = 1e-9    # the audits' own slack on every inequality


def gth_stationary(P) -> np.ndarray:
    """Stationary law of an irreducible chain by Grassmann-Taksar-Heyman."""
    A = np.array(P, dtype=float)
    n = len(A)
    for k in range(n - 1, 0, -1):
        s = A[k, :k].sum()
        A[:k, k] /= s
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


def _conjugate(M, mu):
    d = np.sqrt(mu)
    return d[:, None] * M / d[None, :]


def weighted_gap(P, mu=None) -> float:
    P = np.asarray(P, dtype=float)
    mu = gth_stationary(P) if mu is None else mu
    values = np.linalg.svd(_conjugate(np.eye(len(P)) - P, mu), compute_uv=False)
    return float(np.sort(values)[1])


def delta(P, mu, n: int) -> float:
    """Delta_n from M_n = (1/n^2) sum_{|k|<n} (n - |k|) H_k on mu-perp."""
    S = _conjugate(np.asarray(P, dtype=float), mu)
    size = len(S)
    M = n * np.eye(size)
    power = np.eye(size)
    for k in range(1, n):
        power = power @ S
        M += (n - k) * (power + power.T)
    d = np.sqrt(mu)[:, None]
    proj = np.eye(size) - d @ d.T
    top = float(np.linalg.eigvalsh(proj @ (M / n**2) @ proj)[-1])
    return min(math.sqrt(max(top, 0.0)), 1.0)


def bottleneck_ratio(P, mu, subset) -> float:
    """Q(A, A^c) / mu(A) for the given state subset A."""
    inside = np.zeros(len(mu), dtype=bool)
    inside[list(subset)] = True
    flow = (mu[inside, None] * np.asarray(P)[np.ix_(inside, ~inside)]).sum()
    return float(flow / mu[inside].sum())


def circulant_matrix(N: int, steps) -> np.ndarray:
    P = np.zeros((N, N))
    for a, p in steps:
        for x in range(N):
            P[x, (x + a) % N] += p
    return P


def doubling_matrix(N: int) -> np.ndarray:
    P = np.zeros((N, N))
    for x in range(N):
        for e in (-1, 0, 1):
            P[x, (2 * x + e) % N] += 1.0 / 3.0
    return P


def card_matrix(N: int) -> np.ndarray:
    """Stay, swap the top two, or move the bottom card to the top."""
    decks = sorted(permutations(range(N)))
    rank = {deck: i for i, deck in enumerate(decks)}
    P = np.zeros((len(decks), len(decks)))
    for deck, i in rank.items():
        for moved in (deck, (deck[1], deck[0]) + deck[2:], (deck[-1],) + deck[:-1]):
            P[i, rank[moved]] += 1.0 / 3.0
    return P


def loglog_slope(sizes, taus) -> float:
    return float(np.polyfit(np.log(sizes), np.log(taus), 1)[0])


def gap_problem(label: str, got: float, want: float) -> list[str]:
    if abs(got - want) > GAP_ABS + GAP_REL * abs(want):
        return [f"{label}: gap {got!r} differs from reference {want!r}"]
    return []


def report_gap(report: dict) -> float | None:
    """The gap gamma an audit report used: the right side of additive_gap_lower."""
    for check in report["checks"]:
        if check["name"] == "additive_gap_lower":
            return float(check["rhs"])
    return None


def audit_problems(report: dict, gap_ref: float) -> list[str]:
    """Every applicable check of an audit report holds, and its gap is right.

    The relation is re-evaluated from lhs and rhs rather than trusting the
    report's own pass flags.
    """
    problems = []
    for check in report["checks"]:
        if not check["applicable"]:
            continue
        lhs, rhs = float(check["lhs"]), float(check["rhs"])
        margin = rhs - lhs if check["relation"] == "<=" else lhs - rhs
        if not margin >= -CHECK_SLACK:
            problems.append(f"check {check['name']} fails: {lhs!r} {check['relation']} {rhs!r}")
    if not report["all_pass"]:
        problems.append("report says all_pass is false")
    gamma = report_gap(report)
    if gamma is None:
        problems.append("report has no additive_gap_lower check to read the gap from")
    else:
        problems += gap_problem("audit", gamma, gap_ref)
    return problems
