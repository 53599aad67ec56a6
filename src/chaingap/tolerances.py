"""Central numerical tolerances.

The thresholds that decide what a chain is (stochastic, stationary,
reversible), when a gap is zero, how much slack an audit grants and
which sizes are refused live here, so that one place documents what
"equal" means for each kind of quantity. A few literals stay local to
their code: the 1e-15 tie and improvement windows of the Cheeger
enumeration and search in ``bounds``, the 1e-12 rise that
``bounds._check_monotone`` allows along the worst-case TV curve, and
the 1e-10 mean-zero and unit-norm checks on a test function in
``empirical``.
"""

# Row sums of a transition matrix, and sums of probability vectors.
ROW_SUM = 1e-12

# Stationarity residual max|mu P - mu|.
STATIONARY = 1e-10

# Detailed balance on the edge measure Q(x, y) = mu(x) P(x, y), relative to
# the smaller of Q(x, y) and Q(y, x), floored at the smallest normal double.
DETAILED_BALANCE = 1e-12

# A singular value sigma counts as zero when sigma <= ZERO_SV * max(1, sigma_max);
# spectral.relaxation_time is the only place that applies it.
ZERO_SV = 1e-8

# Slack granted to every inequality check in the audits.
AUDIT_MARGIN = 1e-9

# Eigenvalues of the empirical-deviation Gram operator below this are
# treated as exact zeros before the square root (eigensolver noise is
# ~1e-15 and would otherwise surface as sqrt-scale artifacts ~1e-8).
DELTA_SQ_FLOOR = 1e-13

# Cap on subset size for exact Cheeger enumeration (2**20 subsets).
CHEEGER_ENUM_LIMIT = 20

# State-count cap for the family constructors that allocate a dense N x N
# matrix (circulant, torus, doubling); card_chain caps its deck size instead.
DENSE_LIMIT = 6000
