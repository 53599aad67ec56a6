from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import chaingap as cg
from chaingap.chains import _is_reversible


# Spec files whose closed form would need an array past DENSE_LIMIT**2 entries.
OVERSIZE_SPECS = {
    "circulant": {"family": "circulant", "N": cg.tolerances.DENSE_LIMIT**2 + 1,
                  "steps": [[0, 0.5], [1, 0.5]]},
    "cardshuffle": {"family": "cardshuffle", "N": 11},  # 11! orderings
    "cdg": {"family": "cdg", "N": 2**61 - 1},  # ord 61: passes the orbit-block cap
    "torus": {"family": "torus", "N": 2, "d": 40,
              "probs": {"hold": 0, "plus": [1] + [0] * 39, "minus": [0] * 40}},
}


def mu_adjoint(matrix, mu):
    """P*(x, y) = mu(y) P(y, x) / mu(x); the time reversal of the chain."""
    return (mu[None, :] * matrix.T) / mu[:, None]


def is_normal(matrix, mu):
    """P commutes with its mu-adjoint, up to 1e-10 * (1 + max|P|).

    A mu with a zero entry has no adjoint and is never normal here. A
    subnormal mu can defeat the test, so structure_flags counts detailed
    balance as normal before it asks.
    """
    if np.any(mu <= 0):
        return False
    adj = mu_adjoint(matrix, mu)
    comm = adj @ matrix - matrix @ adj
    return float(np.abs(comm).max()) <= 1e-10 * (1.0 + float(np.abs(matrix).max()))


@dataclass(frozen=True)
class StructureFlags:
    irreducible: bool
    reversible: bool
    normal: bool
    laziness: float  # min_x P(x, x)


def structure_flags(chain):
    """Flags recomputed from the matrix and mu, independently of build_chain's
    class pass: irreducible is one strong component of the positive entries."""
    P = chain.transition
    mu = chain.stationary
    irreducible = connected_components(P > 0, directed=True, connection="strong")[0] == 1
    reversible = _is_reversible(P, mu)
    return StructureFlags(
        irreducible=irreducible,
        reversible=reversible,
        normal=irreducible and (reversible or is_normal(P, mu)),
        laziness=float(P.diagonal().min()),
    )


@st.composite
def stochastic_matrices(draw, min_size=2, max_size=6):
    """Strictly positive row-stochastic matrices (irreducible, aperiodic)."""
    n = draw(st.integers(min_size, max_size))
    rows = draw(
        st.lists(
            st.lists(
                st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    m = np.array(rows)
    return m / m.sum(axis=1, keepdims=True)


def birth_death_matrix(n, up):
    """Reflecting walk on 0..n-1 stepping up with probability ``up``.

    Detailed balance gives mu(x) proportional to (up / (1 - up))^x, so an
    up-probability of 0.9 spreads mu over a factor 9^(n-1): the skewed-mu
    test case for the stationary solve.
    """
    P = np.zeros((n, n))
    for x in range(n):
        P[x, min(x + 1, n - 1)] += up
        P[x, max(x - 1, 0)] += 1.0 - up
    return P


def birth_death_law(n, up):
    """The exact detailed-balance law of birth_death_matrix(n, up)."""
    w = (up / (1.0 - up)) ** np.arange(n)
    return w / w.sum()


@st.composite
def birth_death_chains(draw, min_size=2, max_size=60):
    """(n, up) for skewed-mu birth-death chains."""
    n = draw(st.integers(min_size, max_size))
    up = draw(st.floats(0.55, 0.95, allow_nan=False, allow_infinity=False))
    return n, up


def cyclic_classes_matrix(d, m, weights):
    """Walk on Z_d x Z_m stepping (1, s), s drawn from ``weights`` on Z_m.

    Every step advances the first coordinate, so the chain has period d.
    It is a random walk on an abelian group, hence doubly stochastic and
    normal; positive weights on s = 0 and s = 1 make it irreducible, and
    m = 1 is the plain d-cycle.
    """
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    states = d * m
    P = np.zeros((states, states))
    for a in range(d):
        for b in range(m):
            for s in range(m):
                P[a * m + b, ((a + 1) % d) * m + (b + s) % m] += w[s]
    return P


def bipartite_walk_matrix(weights):
    """Random walk on the complete bipartite graph with edge weights ``weights``.

    ``weights`` is an a x b positive array; the walk crosses between the two
    sides at every step (period 2) and is reversible with mu proportional
    to the weighted degrees, so skewed weights give a skewed mu.
    """
    W = np.asarray(weights, dtype=float)
    a, b = W.shape
    A = np.zeros((a + b, a + b))
    A[:a, a:] = W
    A[a:, :a] = W.T
    return A / A.sum(axis=1, keepdims=True)


@st.composite
def periodic_matrices(draw):
    """Irreducible normal chains with period >= 2: cyclic classes or bipartite."""
    weight = st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):
        d = draw(st.integers(2, 5))
        m = draw(st.integers(1, 6))
        return cyclic_classes_matrix(d, m, draw(st.lists(weight, min_size=m, max_size=m)))
    a = draw(st.integers(1, 6))
    b = draw(st.integers(1, 6))
    scale = draw(st.floats(1.0, 1e4, allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(weight, min_size=b, max_size=b), min_size=a, max_size=a))
    W = np.array(rows)
    W[0] *= scale  # one heavy vertex skews mu
    return bipartite_walk_matrix(W)


@pytest.fixture(scope="session")
def flip():
    return cg.build_chain([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture(scope="session")
def uniform5():
    return cg.build_chain(np.full((5, 5), 0.2))


@pytest.fixture(scope="session")
def shift4():
    return cg.circulant_chain(4, [(1, 1.0)])


@pytest.fixture(scope="session")
def battery():
    return cg.reference_battery()
