"""Exception types shared across the package, and the one integer rule."""

import operator


def _whole(value, name: str) -> int:
    """value as an int, a Python or numpy integer; anything else (4.0 or True
    too) is refused with ValueError. The one rule for every seed, count and size."""
    if not isinstance(value, bool):  # operator.index(True) is 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class ChainError(Exception):
    """Base class for all chain-related errors."""


class NotStochastic(ChainError):
    """Matrix has a negative entry or a row sum off 1 beyond tolerance."""


class NotIrreducible(ChainError):
    """Operation requires a strongly connected chain with mu > 0 everywhere."""


class MultipleInvariantMeasures(ChainError):
    """More than one closed class, so (P^T - I) has a kernel of dimension > 1;
    spectral quantities are ill-posed."""


class TooLarge(ChainError):
    """Requested dense construction exceeds the state-count cap."""


class TooLargeForEnumeration(ChainError):
    """Exact subset enumeration refused beyond the configured state count."""


class InvalidSteps(ChainError):
    """Circulant step set is empty, non-distinct mod N, or has bad probabilities."""


class BadTestFunction(ChainError):
    """Monte Carlo test function is not mean-zero with unit mu-norm."""


class NotPrime(ChainError):
    """Ensemble experiment requires a prime modulus."""


class InsufficientData(ChainError):
    """Not enough finite data points for a least-squares fit."""


class MixingCapExceeded(ChainError):
    """Aperiodic chain failed to mix within the step cap (raise, never report infinity)."""
