"""Construction and validation of finite Markov chains.

A chain is a validated row-stochastic matrix together with a stationary
distribution mu. Each structure fact has one rule here. One pass over
the communicating classes sets ``irreducible`` (one class) and
``unique_stationary`` (one closed class), whether mu is solved or
given. ``reversible`` is not stored: the property tests detailed balance
against mu each time it is read. The one transform, ``lazy``, is pure:
it returns a new immutable chain and never mutates its input, so values
are safe to share across threads. The audit's reversibilized gaps are
taken in spectral's conjugated coordinates, where the mu-adjoint P* is a
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from . import tolerances as tol
from .errors import ChainError, NotIrreducible, NotStochastic

__all__ = [
    "FiniteChain",
    "build_chain",
    "lazy",
    "period",
]


@dataclass(frozen=True)
class FiniteChain:
    """A finite-state Markov chain with cached stationary distribution.

    Attributes:
        transition: row-stochastic matrix P (read-only array).
        stationary: a stationary distribution mu (the unique one when
            ``unique_stationary`` is true).
        irreducible: positive-entry digraph is strongly connected.
        unique_stationary: exactly one communicating class is closed, so
            the kernel of (P^T - I) is one-dimensional.

    A group walk with uniform mu also carries ``_blocks``, a zero-argument
    callable returning a generator of the blocks K of P in stacks of one
    size: P is unitarily equivalent to the direct sum of the blocks, each
    repeated, and of the constants' 1 x 1 block, which is left out. The
    blocks are real, or complex 1 x 1 characters lambda_m on a circulant
    or torus walk, one of each conjugate pair (lambda_{-m} is
    conj(lambda_m)). empirical._deviations reads it. It is None on every
    other chain, and is not compared.
    """

    transition: np.ndarray
    stationary: np.ndarray
    irreducible: bool
    unique_stationary: bool
    _blocks: Callable[[], Iterator[np.ndarray]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return self.transition.shape[0]

    @property
    def reversible(self) -> bool:
        """Detailed balance w.r.t. mu holds entrywise; recomputed on every read."""
        return _is_reversible(self.transition, self.stationary)

    def edge_measure(self) -> np.ndarray:
        """Q(x, y) = mu(x) P(x, y), the joint law of one stationary step."""
        return self.stationary[:, None] * self.transition

    def __repr__(self) -> str:  # arrays are noisy; keep it scannable
        return (
            f"FiniteChain(size={self.size}, irreducible={self.irreducible}, "
            f"unique_stationary={self.unique_stationary})"
        )


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


def _classes(matrix: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, member, closed) for the communicating classes of P.

    The classes are the strong components of the positive-entry digraph;
    ``member`` maps each state to its class, and ``closed`` lists the
    classes that no positive entry leaves. A lone class is closed.
    """
    count, member = connected_components(csr_matrix(matrix > 0), directed=True, connection="strong")
    if count == 1:
        return count, member, np.zeros(1, dtype=member.dtype)
    leaves = ((matrix > 0) & (member[:, None] != member[None, :])).any(axis=1)
    return count, member, np.setdiff1d(np.arange(count), member[leaves])


def _bfs_tree(graph: csr_matrix, source: int) -> tuple[list[int], list[int], list[int]]:
    """BFS (order, pred, depth) from ``source``; unreached states are not in order."""
    order, pred = breadth_first_order(graph, source, directed=True, return_predecessors=True)
    order, pred = order.tolist(), pred.tolist()
    depth = [0] * graph.shape[0]
    for v in order[1:]:
        depth[v] = depth[pred[v]] + 1
    return order, pred, depth


def period(chain: FiniteChain) -> int:
    """Period of an irreducible chain (gcd of directed cycle lengths).

    That gcd is also the gcd of depth(u) + 1 - depth(v) over the edges
    (u, v), with the depths of one BFS tree.
    """
    if not chain.irreducible:
        raise NotIrreducible("period is defined for irreducible chains")
    pattern = chain.transition > 0
    depth = np.array(_bfs_tree(csr_matrix(pattern, dtype=float), 0)[2])
    heads, tails = np.nonzero(pattern)
    g = int(np.gcd.reduce(depth[heads] + 1 - depth[tails]))
    return g or 1


# States eliminated per block in _gth, and the back-substitution's rescaling point.
_GTH_BLOCK = 64
_GTH_RESCALE = 2.0**256


def _gth(matrix: np.ndarray) -> np.ndarray:
    """Stationary law of an irreducible stochastic matrix by GTH elimination.

    Grassmann, Taksar & Heyman (Oper. Res. 33, 1985): censor the chain
    to states 0..k-1 one state at a time, taking each pivot as the row
    sum of the entries below the diagonal instead of 1 - P(k, k). No
    subtraction ever occurs, so every entry of mu comes out to high
    relative accuracy however small it is (O'Cinneide, Numer. Math. 65,
    1993). States are eliminated in blocks of _GTH_BLOCK: each
    elimination updates at once only the rows and columns of its own
    block, and the states left below the block take the block's combined
    update afterwards as one product of two nonnegative panels.
    """
    A = np.array(matrix, dtype=float)
    n = len(A)
    for end in range(n, 1, -_GTH_BLOCK):
        begin = max(end - _GTH_BLOCK, 0)
        for k in range(end - 1, max(begin, 1) - 1, -1):
            row = A[k, :k]
            col = A[:k, k] / row.sum()
            A[:k, k] = col
            A[begin:k, :k] += np.outer(col[begin:], row)
            A[:begin, begin:k] += np.outer(col[:begin], row[begin:])
        A[:begin, :begin] += A[:begin, begin:end] @ A[begin:end, :begin]
    # Back-substitution; rescale by powers of two (exact) before the
    # running values can overflow, so a mu spanning more than the double
    # range underflows at its small end instead of turning into NaN.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
        if pi[k] > _GTH_RESCALE:
            pi[: k + 1] = np.ldexp(pi[: k + 1], -np.frexp(pi[k])[1])
    return pi / pi.sum()


def _is_reversible(matrix: np.ndarray, mu: np.ndarray) -> bool:
    # Relative to each edge, so a one-way cycle among low-mass states is not
    # hidden by its small measure; below the smallest normal double mu has
    # no relative accuracy left, so the scale stops shrinking there.
    q = mu[:, None] * matrix
    diff = np.abs(q - q.T)
    if diff.max() > tol.DETAILED_BALANCE:  # Q <= 1: already fails relative to Q
        return False
    return bool(np.all(diff <= tol.DETAILED_BALANCE * np.maximum(q, np.finfo(float).tiny)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _checked_distribution(weights) -> np.ndarray:
    """A given stationary law, checked as a probability vector, clipped, renormalized."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not np.all(np.isfinite(w)):
        raise ValueError("distribution must be a finite 1-d vector")
    if w.min() < -tol.ROW_SUM:
        raise ValueError(f"negative probability {w.min():.3e}")
    if abs(w.sum() - 1.0) > tol.ROW_SUM:
        raise ValueError(f"probabilities sum to {w.sum()!r}, not 1")
    w = np.clip(w, 0.0, None)
    return w / w.sum()


def build_chain(matrix: Iterable, *, stationary: np.ndarray | None = None) -> FiniteChain:
    """Validate a transition matrix and assemble a FiniteChain.

    The communicating classes (strong components of the positive-entry
    digraph) decide the flags, whether mu is solved or given: irreducible
    is one class, and mu is unique when exactly one class is closed.
    Without ``stationary``, mu is the GTH law of each closed class, mixed
    uniformly when there are several, so its entries are relatively
    accurate however small. Reducible inputs are representable (the flag
    is set false, and a valid stationary law is still attached) but
    spectral operations will refuse them.

    Family constructors pass ``stationary`` when they know mu
    analytically; it is checked like a solved one.

    Raises:
        NotStochastic: negative entries or row sums off 1 beyond tolerance.
        ChainError: the stationarity residual exceeds tolerance, or an
            irreducible chain's mu underflows to zero somewhere.
        ValueError: a given ``stationary`` is not a probability vector.
    """
    P = np.array(matrix, dtype=float)
    _check_stochastic(P)
    count, member, closed = _classes(P)
    if stationary is None:
        mu = np.zeros(len(P))
        for c in closed:
            idx = np.nonzero(member == c)[0]
            mu[idx] = _gth(P[np.ix_(idx, idx)]) / len(closed)
    else:
        mu = _checked_distribution(stationary)
    resid = float(np.abs(mu @ P - mu).max())
    if not resid <= tol.STATIONARY:  # also refuses a NaN residual
        raise ChainError(f"stationarity residual {resid:.3e} exceeds tolerance")
    if count == 1 and mu.min() <= 0:
        raise ChainError("irreducible chain produced a zero stationary mass")
    return FiniteChain(
        transition=_freeze(P),
        stationary=_freeze(mu),
        irreducible=count == 1,
        unique_stationary=len(closed) == 1,
    )


def lazy(chain: FiniteChain, hold: float) -> FiniteChain:
    """The chain theta*I + (1 - theta)*P that holds with probability theta.

    Scales the generator by (1 - theta), so every singular value of L,
    and in particular the gap, scales by exactly (1 - theta). A chain's
    blocks K become theta I + (1 - theta) K.
    """
    if not 0.0 <= hold < 1.0:
        raise ValueError(f"hold probability must be in [0, 1), got {hold}")
    if hold == 0.0:
        return chain
    P = hold * np.eye(chain.size) + (1.0 - hold) * chain.transition
    # Self-loops change neither the communicating classes nor mu, so the
    # flags carry over.
    blocks = chain._blocks and partial(_lazy_blocks, chain._blocks, hold)
    return replace(chain, transition=_freeze(P), _blocks=blocks)


def _lazy_blocks(blocks: Callable[[], Iterator[np.ndarray]], hold: float):
    """The stacks of ``blocks()``, each K mapped to hold I + (1 - hold) K."""
    for stack in blocks():
        yield hold * np.eye(stack.shape[-1]) + (1.0 - hold) * stack

