"""Spectral gap as the second-smallest singular value of the generator.

The gap gamma of a chain is the second-smallest singular value of
L = I - P under the mu-weighted inner product; the relaxation time is
tau = 1/gamma. The weighting is realized by the similarity
B = D^{1/2} L D^{-1/2} with D = diag(mu), whose ordinary singular values
are the weighted ones (the substitution u = D^{1/2} f turns mu-norms
into Euclidean norms). Normal chains (P commuting with its adjoint) get
a cheaper, better-conditioned route through the eigenvalues of P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig, eigvalsh, svdvals

from . import tolerances as tol
from .chains import FiniteChain, _mu_adjoint
from .errors import MultipleInvariantMeasures, NotIrreducible, NotNormal, NotReversible

__all__ = [
    "SingularSpectrum",
    "PseudoGapBound",
    "weighted_singular_spectrum",
    "gap_spectrum",
    "relaxation_time",
    "spectral_gap",
    "self_adjoint_gap",
    "normal_gap",
    "pseudo_spectral_gap",
]


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of the weighted generator, sorted ascending.

    ``relaxation`` is ``inf`` when the gap falls below the zero threshold
    of ``relaxation_time``. ``eigenvalues`` is only
    populated on the normal-chain route, sorted by |1 - lambda|.
    ``mu_min`` records the conditioning of the diagonal similarity.
    """

    values: np.ndarray
    gap: float
    relaxation: float
    method: str  # weighted_svd | normal_eigen
    mu_min: float
    eigenvalues: np.ndarray | None = None

    def to_json(self) -> dict:
        """The ``gap`` report payload; ``render_report`` writes its non-finite values."""
        payload = {
            "values": [float(v) for v in self.values],
            "gap": float(self.gap),
            "relaxation": float(self.relaxation),
            "method": self.method,
            "mu_min": float(self.mu_min),
        }
        if self.eigenvalues is not None:
            payload["eigenvalues"] = [
                {"re": float(z.real), "im": float(z.imag)} for z in self.eigenvalues
            ]
        return payload


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
    d = np.sqrt(mu)
    return d[:, None] * matrix / d[None, :]


def relaxation_time(gap: float, sigma_max: float) -> float:
    """tau = 1/gap, or inf when gap <= ZERO_SV * max(1, sigma_max).

    The one rule for "is this gap zero?": every route (dense, normal
    eigen, closed form, ensemble) turns its gap into tau here. The floor
    is a resolution limit, so an irreducible chain whose gap sits below
    it also gets inf.
    """
    if gap <= tol.ZERO_SV * max(1.0, sigma_max):
        return np.inf
    return 1.0 / gap


def _spectrum_from_values(
    values: np.ndarray, method: str, mu_min: float, eigenvalues=None
) -> SingularSpectrum:
    values = np.sort(values)
    gap = float(values[1])
    values.setflags(write=False)
    return SingularSpectrum(
        values=values,
        gap=gap,
        relaxation=relaxation_time(gap, float(values[-1])),
        method=method,
        mu_min=mu_min,
        eigenvalues=eigenvalues,
    )


def weighted_singular_spectrum(chain: FiniteChain) -> SingularSpectrum:
    """All singular values of L = I - P under the mu-inner product.

    Computed as the ordinary singular values of D^{1/2} L D^{-1/2}.
    The smallest is zero (constants span the kernel) and the gap is the
    second smallest.
    """
    _require_spectral(chain)
    L = np.eye(chain.size) - chain.transition
    B = _conjugated(L, chain.stationary)
    values = svdvals(B)
    return _spectrum_from_values(
        values, "weighted_svd", float(chain.stationary.min())
    )


def normal_gap(chain: FiniteChain) -> SingularSpectrum:
    """Gap of a normal chain via the eigenvalues of P.

    When P commutes with its adjoint, the singular values of the
    generator are exactly |1 - lambda_j| over the eigenvalues of P, so
    the gap is the second smallest of those.
    """
    if not chain.normal:
        raise NotNormal("normal_gap requires P P* = P* P")
    _require_spectral(chain)
    S = _conjugated(chain.transition, chain.stationary)
    lam = eig(S, right=False)
    order = np.argsort(np.abs(1.0 - lam), kind="stable")
    lam = lam[order]
    lam.setflags(write=False)
    return _spectrum_from_values(
        np.abs(1.0 - lam),
        "normal_eigen",
        float(chain.stationary.min()),
        eigenvalues=lam,
    )


def gap_spectrum(chain: FiniteChain) -> SingularSpectrum:
    """Singular spectrum by the route the chain admits.

    Normal chains take the eigenvalue route, all others the weighted
    SVD; this is the only place that chooses between them.
    """
    return normal_gap(chain) if chain.normal else weighted_singular_spectrum(chain)


def spectral_gap(chain: FiniteChain) -> tuple[float, float]:
    """(gamma, tau) for the chain; tau is inf on a degenerate kernel."""
    spectrum = gap_spectrum(chain)
    return spectrum.gap, spectrum.relaxation


def self_adjoint_gap(chain: FiniteChain) -> float:
    """Classical gap 1 - lambda_2 of a reversible chain.

    lambda_2 is the second-largest eigenvalue of the symmetric matrix
    D^{1/2} P D^{-1/2}. Used on the additive/multiplicative
    reversibilizations; reducible inputs are fine here (the identity
    chain legitimately has gap 0).
    """
    if not chain.reversible:
        raise NotReversible("self_adjoint_gap requires detailed balance")
    S = _conjugated(chain.transition, chain.stationary)
    w = eigvalsh(0.5 * (S + S.T))
    return float(1.0 - w[-2])


def pseudo_spectral_gap(chain: FiniteChain, k_max: int = 10) -> PseudoGapBound:
    """max over 1 <= k <= k_max of gap((P*)^k P^k) / k.

    A truncated version of the supremum over all k, hence a lower bound
    on the pseudo-spectral gap; the report carries the k achieving the
    max. gap() here is the classical 1 - lambda_2 of the reversible
    chain (P*)^k P^k.
    """
    _require_spectral(chain)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    P = chain.transition
    mu = chain.stationary
    star = _mu_adjoint(P, mu)
    best, best_k = -np.inf, 1
    pk = np.eye(chain.size)
    sk = np.eye(chain.size)
    for k in range(1, k_max + 1):
        pk = pk @ P
        sk = sk @ star
        S = _conjugated(sk @ pk, mu)
        lam2 = eigvalsh(0.5 * (S + S.T))[-2]
        val = (1.0 - float(lam2)) / k
        if val > best:
            best, best_k = val, k
    return PseudoGapBound(value=max(best, 0.0), k=best_k, k_max=k_max)
