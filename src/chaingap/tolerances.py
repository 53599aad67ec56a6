"""Central numerical tolerances.

Every module takes its thresholds from here so that a single place
documents what "equal" means for each kind of quantity.
"""

# Row sums of a transition matrix, and sums of probability vectors.
ROW_SUM = 1e-12

# Stationarity residual max|mu P - mu|.
STATIONARY = 1e-10

# Detailed balance, entrywise on the edge measure Q(x, y) = mu(x) P(x, y).
DETAILED_BALANCE = 1e-12

# Commutator test for normality, relative to 1 + max|P|.
NORMALITY = 1e-10

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
