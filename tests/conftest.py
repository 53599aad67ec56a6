import numpy as np
import pytest
from hypothesis import strategies as st

import chaingap as cg


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
