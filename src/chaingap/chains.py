"""Construction, validation, and algebraic transforms of finite Markov chains.

A chain is a validated row-stochastic matrix together with a stationary
distribution mu and structure flags (irreducible / reversible / normal).
All transforms here are pure: they return new immutable chains and never
mutate their inputs, so values are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import tolerances as tol
from .errors import ChainError, NotIrreducible, NotStochastic

__all__ = [
    "Distribution",
    "FiniteChain",
    "StructureFlags",
    "build_chain",
    "adjoint",
    "reversibilize",
    "lazy",
    "structure_flags",
    "mu_inner",
    "mu_norm",
    "period",
]


@dataclass(frozen=True)
class Distribution:
    """A probability vector over states: entries >= 0, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all(np.isfinite(w)):
            raise ValueError("distribution must be a finite 1-d vector")
        if w.min() < -tol.ROW_SUM:
            raise ValueError(f"negative probability {w.min():.3e}")
        if abs(w.sum() - 1.0) > tol.ROW_SUM:
            raise ValueError(f"probabilities sum to {w.sum()!r}, not 1")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class StructureFlags:
    irreducible: bool
    reversible: bool
    normal: bool
    laziness: float  # min_x P(x, x); gates the lazy-only inequalities


@dataclass(frozen=True)
class FiniteChain:
    """A finite-state Markov chain with cached stationary distribution.

    Attributes:
        transition: row-stochastic matrix P (read-only array).
        stationary: a stationary distribution mu (the unique one when
            ``unique_stationary`` is true).
        labels: optional state names.
        irreducible: positive-entry digraph is strongly connected.
        reversible: detailed balance w.r.t. mu holds entrywise.
        normal: P commutes with its mu-adjoint.
        unique_stationary: kernel of (P^T - I) is one-dimensional.
    """

    transition: np.ndarray
    stationary: np.ndarray
    labels: tuple[str, ...] | None
    irreducible: bool
    reversible: bool
    normal: bool
    unique_stationary: bool

    @property
    def size(self) -> int:
        return self.transition.shape[0]

    def edge_measure(self) -> np.ndarray:
        """Q(x, y) = mu(x) P(x, y), the joint law of one stationary step."""
        return self.stationary[:, None] * self.transition

    def __repr__(self) -> str:  # arrays are noisy; keep it scannable
        return (
            f"FiniteChain(size={self.size}, irreducible={self.irreducible}, "
            f"reversible={self.reversible}, normal={self.normal})"
        )


def mu_inner(f: np.ndarray, g: np.ndarray, mu: np.ndarray) -> complex:
    """Weighted inner product sum_x f(x) conj(g(x)) mu(x)."""
    return np.sum(np.asarray(f) * np.conj(np.asarray(g)) * mu)


def mu_norm(f: np.ndarray, mu: np.ndarray) -> float:
    return float(np.sqrt(np.real(mu_inner(f, f, mu))))


def _check_stochastic(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transition matrix must be square, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("transition matrix has non-finite entries")
    low, high = matrix.min(), matrix.max()
    if low < -tol.ROW_SUM or high > 1.0 + tol.ROW_SUM:
        raise NotStochastic(f"entries outside [0, 1]: min={low:.3e}, max={high:.3e}")
    rows = matrix.sum(axis=1)
    worst = np.abs(rows - 1.0).max()
    if worst > tol.ROW_SUM:
        raise NotStochastic(f"row sums deviate from 1 by {worst:.3e}")


def _is_strongly_connected(matrix: np.ndarray) -> bool:
    graph = csr_matrix(matrix > 0)
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    return n_comp == 1


def period(chain: FiniteChain) -> int:
    """Period of an irreducible chain (gcd of directed cycle lengths)."""
    if not chain.irreducible:
        raise NotIrreducible("period is defined for irreducible chains")
    P = chain.transition
    n = chain.size
    nbrs = [np.nonzero(P[x] > 0)[0] for x in range(n)]
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if int(v) not in dist:
                    dist[int(v)] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    g = 0
    for u in range(n):
        for v in nbrs[u]:
            g = math.gcd(g, dist[u] + 1 - dist[int(v)])
    return abs(g) if g != 0 else 1


def _closed_class_stationary(matrix: np.ndarray) -> np.ndarray:
    """A stationary distribution of a reducible chain: uniform mixture of the
    stationary laws of its closed communicating classes."""
    graph = csr_matrix(matrix > 0)
    n_comp, member = connected_components(graph, directed=True, connection="strong")
    closed = []
    for c in range(n_comp):
        idx = np.nonzero(member == c)[0]
        if np.all(matrix[np.ix_(idx, np.setdiff1d(np.arange(len(matrix)), idx))] == 0):
            closed.append(idx)
    if not closed:
        raise ChainError("no closed communicating class found")
    mu = np.zeros(len(matrix))
    for idx in closed:
        sub = matrix[np.ix_(idx, idx)]
        mu[idx] = _solve_stationary(sub)[0] / len(closed)
    return mu


def _solve_stationary(matrix: np.ndarray) -> tuple[np.ndarray, bool]:
    """Stationary vector via dense null-space solve of (P^T - I).

    Returns (mu, unique). Falls back to averaged power iteration if the
    SVD-based solve degenerates, and to the closed-class construction when
    the kernel has dimension > 1.
    """
    n = matrix.shape[0]
    kernel = null_space(matrix.T - np.eye(n))
    dim = kernel.shape[1]
    if dim == 1:
        v = kernel[:, 0]
        if v.sum() < 0:
            v = -v
        v = np.clip(v, 0.0, None)
        s = v.sum()
        if s <= 0:
            raise ChainError("degenerate stationary solve")
        return v / s, True
    if dim > 1:
        return _closed_class_stationary(matrix), False
    # dim == 0 should not happen (1 is always an eigenvalue); power-iterate.
    mu = np.full(n, 1.0 / n)
    acc = mu.copy()
    for k in range(2, 100_000):
        mu = mu @ matrix
        acc += (mu - acc) / k
        if np.abs(acc @ matrix - acc).max() < tol.ROW_SUM:
            return acc / acc.sum(), True
    raise ChainError("stationary distribution did not converge")


def _mu_adjoint(matrix: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """P*(x, y) = mu(y) P(y, x) / mu(x); the time reversal of the chain."""
    return (mu[None, :] * matrix.T) / mu[:, None]


def _is_reversible(matrix: np.ndarray, mu: np.ndarray) -> bool:
    q = mu[:, None] * matrix
    return float(np.abs(q - q.T).max()) <= tol.DETAILED_BALANCE


def _is_normal(matrix: np.ndarray, mu: np.ndarray) -> bool:
    if np.any(mu <= 0):
        return False
    adj = _mu_adjoint(matrix, mu)
    comm = adj @ matrix - matrix @ adj
    bound = tol.NORMALITY * (1.0 + float(np.abs(matrix).max()))
    return float(np.abs(comm).max()) <= bound


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def build_chain(
    matrix: Iterable,
    labels: Sequence[str] | None = None,
    *,
    stationary: np.ndarray | None = None,
    assume: dict | None = None,
) -> FiniteChain:
    """Validate a transition matrix and assemble a FiniteChain.

    The stationary distribution is found by a dense null-space solve of
    (P^T - I) normalized to sum 1; irreducibility is strong connectivity
    of the positive-entry digraph. Reducible inputs are representable
    (the flag is set false, and a valid stationary law is still attached)
    but spectral operations will refuse them.

    Family constructors may pass ``stationary`` and ``assume`` when those
    facts are known analytically, bypassing the numerical detection.

    Raises:
        NotStochastic: negative entries or row sums off 1 beyond tolerance.
    """
    P = np.array(matrix, dtype=float)
    _check_stochastic(P)
    n = P.shape[0]
    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} states")

    assume = dict(assume or {})
    irreducible = assume.get("irreducible")
    if irreducible is None:
        irreducible = _is_strongly_connected(P)

    if stationary is not None:
        mu = Distribution(stationary).weights.copy()
        unique = bool(irreducible)
    else:
        mu, unique = _solve_stationary(P)
    resid = float(np.abs(mu @ P - mu).max())
    if resid > tol.STATIONARY:
        raise ChainError(f"stationarity residual {resid:.3e} exceeds tolerance")
    if irreducible and mu.min() <= 0:
        raise ChainError("irreducible chain produced a zero stationary mass")

    reversible = assume.get("reversible")
    if reversible is None:
        reversible = _is_reversible(P, mu)
    normal = assume.get("normal")
    if normal is None:
        normal = irreducible and _is_normal(P, mu)

    return FiniteChain(
        transition=_freeze(P),
        stationary=_freeze(mu),
        labels=labels,
        irreducible=bool(irreducible),
        reversible=bool(reversible),
        normal=bool(normal),
        unique_stationary=unique,
    )


def adjoint(chain: FiniteChain) -> FiniteChain:
    """Time reversal: the mu-adjoint chain P*(x, y) = mu(y) P(y, x) / mu(x).

    P* is row-stochastic with the same stationary law, and the adjoint of
    the adjoint recovers the original chain.
    """
    if not chain.irreducible:
        raise NotIrreducible("adjoint requires mu > 0 everywhere")
    rev = _mu_adjoint(chain.transition, chain.stationary)
    # Edge reversal preserves strong connectivity, detailed balance, and normality.
    return replace(chain, transition=_freeze(rev))


def reversibilize(chain: FiniteChain, kind: str) -> FiniteChain:
    """Additive (P + P*)/2 or multiplicative P P* reversibilization.

    Both are reversible with the same stationary law. The multiplicative
    chain can be reducible (a permutation chain collapses to the identity),
    so its connectivity is recomputed.
    """
    if not chain.irreducible:
        raise NotIrreducible("reversibilization requires mu > 0 everywhere")
    P = chain.transition
    star = _mu_adjoint(P, chain.stationary)
    if kind == "additive":
        return build_chain(
            0.5 * (P + star),
            chain.labels,
            stationary=chain.stationary,
            assume={"irreducible": True, "reversible": True, "normal": True},
        )
    if kind == "multiplicative":
        M = P @ star
        irr = _is_strongly_connected(M)
        return build_chain(
            M,
            chain.labels,
            stationary=chain.stationary,
            assume={"irreducible": irr, "reversible": True, "normal": True},
        )
    raise ValueError(f"kind must be 'additive' or 'multiplicative', got {kind!r}")


def lazy(chain: FiniteChain, hold: float) -> FiniteChain:
    """The chain theta*I + (1 - theta)*P that holds with probability theta.

    Scales the generator by (1 - theta), so every singular value of L,
    and in particular the gap, scales by exactly (1 - theta).
    """
    if not 0.0 <= hold < 1.0:
        raise ValueError(f"hold probability must be in [0, 1), got {hold}")
    if hold == 0.0:
        return chain
    P = hold * np.eye(chain.size) + (1.0 - hold) * chain.transition
    # Self-loops change neither connectivity, detailed balance, normality,
    # nor the kernel of the generator.
    return replace(chain, transition=_freeze(P))


def structure_flags(chain: FiniteChain) -> StructureFlags:
    """Recompute flags from scratch, plus the minimum holding probability."""
    P = chain.transition
    mu = chain.stationary
    return StructureFlags(
        irreducible=_is_strongly_connected(P),
        reversible=_is_reversible(P, mu),
        normal=bool(np.all(mu > 0)) and _is_normal(P, mu),
        laziness=float(P.diagonal().min()),
    )
