"""Spectral gap as the second-smallest singular value of the generator.

The gap gamma of a chain is the second-smallest singular value of
L = I - P under the mu-weighted inner product; the relaxation time is
tau = 1/gamma. The weighting is realized by the similarity
M -> D^{1/2} M D^{-1/2} with D = diag(mu) (``_conjugated``, the only
place it happens): the ordinary singular values of the conjugated L are
the weighted ones (the substitution u = D^{1/2} f turns mu-norms into
Euclidean norms). This dense SVD is the one route for every chain,
normal or not: the eigenvalues of P say little about a nonreversible
chain, and even on normal chains, where the singular values are the
|1 - lambda_j|, the SVD is the faster and the more accurate.

With B = D^{1/2} P D^{-1/2}, the mu-adjoint P* conjugates to B^T. So the
audit's comparison gaps, those of the additive (P + P*)/2 and
multiplicative P P* reversibilizations and of the pseudo-spectral gap's
(P*)^k P^k, are each 1 - lambda_2 of a symmetric matrix built from B
alone; no adjoint chain is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgesdd, dgesdd_lwork, dsyevr, dsyevr_lwork

from . import tolerances as tol
from .chains import FiniteChain
from .errors import MultipleInvariantMeasures, NotIrreducible

__all__ = [
    "SingularSpectrum",
    "PseudoGapBound",
    "weighted_singular_spectrum",
    "relaxation_time",
    "spectral_gap",
    "pseudo_spectral_gap",
]


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of the weighted generator, sorted ascending.

    ``relaxation`` is ``inf`` when the gap falls below the zero threshold
    of ``relaxation_time``. ``method`` names the route (``weighted_svd``).
    ``mu_min`` records the conditioning of the diagonal similarity.
    """

    values: np.ndarray
    gap: float
    relaxation: float
    method: str
    mu_min: float


@dataclass(frozen=True)
class PseudoGapBound:
    """Truncated-supremum lower bound on the pseudo-spectral gap."""

    value: float
    k: int
    k_max: int


def _require_spectral(chain: FiniteChain) -> None:
    if chain.size < 2:
        raise ValueError("spectral gap needs at least two states")
    if not chain.unique_stationary:
        raise MultipleInvariantMeasures(
            "more than one closed communicating class; gap is ill-posed"
        )
    if not chain.irreducible:
        raise NotIrreducible("spectral operations require an irreducible chain")


def _conjugated(matrix: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """D^{1/2} M D^{-1/2}: the only place the mu-weighting happens."""
    d = np.sqrt(mu)
    return d[:, None] * matrix / d[None, :]


def _symmetric_gap(S: np.ndarray) -> float:
    """1 - lambda_2 of a symmetric matrix.

    Calls dsyevr as scipy's eigvalsh does (lower triangle, the queried
    workspace), so the eigenvalues are eigvalsh's to the bit, without its
    wrapper's cost on the small matrices of an audit.
    """
    work, iwork, _ = dsyevr_lwork(len(S), lower=1)
    w, _, _, _, info = dsyevr(S, compute_v=0, lower=1, lwork=int(work), liwork=int(iwork))
    if info != 0:
        raise LinAlgError(f"dsyevr failed (info={info})")
    return 1.0 - float(w[-2])


def relaxation_time(gap: float, sigma_max: float) -> float:
    """tau = 1/gap, or inf when gap <= ZERO_SV * max(1, sigma_max).

    The one rule for "is this gap zero?": every route (dense SVD, closed
    form, ensemble) turns its gap into tau here. The floor is a
    resolution limit, so an irreducible chain whose gap sits below it
    also gets inf.
    """
    if gap <= tol.ZERO_SV * max(1.0, sigma_max):
        return np.inf
    return 1.0 / gap


def weighted_singular_spectrum(chain: FiniteChain) -> SingularSpectrum:
    """All singular values of L = I - P under the mu-inner product.

    Computed as the ordinary singular values of D^{1/2} L D^{-1/2}.
    The smallest is zero (constants span the kernel) and the gap is the
    second smallest.
    """
    _require_spectral(chain)
    L = np.eye(chain.size) - chain.transition
    # dgesdd as scipy's svdvals calls it (queried workspace, full_matrices
    # set), so the values are svdvals' to the bit, without its wrapper's cost
    work, _ = dgesdd_lwork(chain.size, chain.size, compute_uv=0, full_matrices=1)
    _, values, _, info = dgesdd(
        _conjugated(L, chain.stationary), compute_uv=0, lwork=int(work), full_matrices=1
    )
    if info != 0:
        raise LinAlgError(f"dgesdd failed (info={info})")
    values = np.sort(values)
    values.setflags(write=False)
    gap = float(values[1])
    return SingularSpectrum(
        values=values,
        gap=gap,
        relaxation=relaxation_time(gap, float(values[-1])),
        method="weighted_svd",
        mu_min=float(chain.stationary.min()),
    )


def spectral_gap(chain: FiniteChain) -> tuple[float, float]:
    """(gamma, tau) for the chain; tau is inf on a degenerate kernel."""
    spectrum = weighted_singular_spectrum(chain)
    return spectrum.gap, spectrum.relaxation


def _reversibilized_gaps(chain: FiniteChain) -> tuple[float, float]:
    """Gaps 1 - lambda_2 of the additive (P + P*)/2 and multiplicative P P*.

    In conjugated coordinates these are (B + B^T)/2 and B B^T. The
    multiplicative chain may be reducible (a permutation collapses to the
    identity, gap 0), and that is a value here, not a refusal.
    """
    _require_spectral(chain)
    B = _conjugated(chain.transition, chain.stationary)
    return _symmetric_gap(0.5 * (B + B.T)), _symmetric_gap(B @ B.T)


def pseudo_spectral_gap(chain: FiniteChain, k_max: int = 10) -> PseudoGapBound:
    """max over 1 <= k <= k_max of gap((P*)^k P^k) / k.

    A truncated version of the supremum over all k, hence a lower bound
    on the pseudo-spectral gap; the report carries the k achieving the
    max. gap() here is the classical 1 - lambda_2 of the reversible
    chain (P*)^k P^k. Every eigenvalue of (B^k)^T B^k lies in [0, 1], so
    a best value that relaxation_time counts as zero at scale 1 is
    eigensolver noise: it is reported as 0 at k = 1.
    """
    _require_spectral(chain)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    B = _conjugated(chain.transition, chain.stationary)
    best, best_k = -np.inf, 1
    C = np.eye(chain.size)
    for k in range(1, k_max + 1):
        C = C @ B  # B^k; (P*)^k P^k conjugates to (B^k)^T B^k
        val = _symmetric_gap(C.T @ C) / k
        if val > best:
            best, best_k = val, k
    if relaxation_time(best, 1.0) == np.inf:
        best, best_k = 0.0, 1
    return PseudoGapBound(value=best, k=best_k, k_max=k_max)
