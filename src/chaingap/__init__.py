"""Spectral gaps of finite Markov chains via singular values of the generator.

The gap of a chain is the second-smallest singular value of I - P in the
stationary-weighted inner product, and tau = 1/gap is the time scale on
which empirical averages of test functions converge. The package
computes these exactly for dense chains and, through
ChainSpec.closed_form(), without a dense chain for every family with a
size: from character sums for the circulant and torus walks on
(Z/NZ)^d, from orbit blocks for the doubling chain, and from the blocks
of the irreducible representations of S_N for the card shuffle. It
evaluates the worst-case deviation of length-n running averages, and
audits the standard comparison inequalities (reversibilizations, mixing
time, Cheeger constant, canonical paths, pseudo-spectral gap).

All values are immutable and all operations are pure functions, so
everything here is safe to share across threads and to parallelize over
experiment grids.
"""

from .audit import BoundAudit, BoundCheck
from .battery import BatteryChain, random_dense_chain, reference_battery
from .chains import (
    FiniteChain,
    build_chain,
    lazy,
    period,
)
from .bounds import (
    CheegerResult,
    MixingResult,
    PathBoundResult,
    cheeger_exact,
    cheeger_search,
    inequality_audit,
    mixing_time,
    path_bound,
)
from .empirical import (
    DeltaCurve,
    DeltaPoint,
    delta_bounds_audit,
    delta_curve,
    delta_exact,
    delta_monte_carlo,
)
from .experiments import (
    EnsembleRow,
    ExperimentRow,
    ScalingFit,
    emit_report,
    fit_scaling,
    random_steps_ensemble,
    scan,
)
from .families import (
    ChainSpec,
    TorusProbs,
    card_chain,
    cdg_chain,
    circulant_chain,
    parse_prob,
    torus_chain,
    up_right_probs,
)
from .spectral import (
    PseudoGapBound,
    SingularSpectrum,
    relaxation_time,
    pseudo_spectral_gap,
    spectral_gap,
    weighted_singular_spectrum,
)
from . import errors, tolerances

__all__ = [name for name in dir() if not name.startswith("_")]
