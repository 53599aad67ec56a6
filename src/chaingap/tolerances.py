"""Central numerical tolerances.

The thresholds that decide what a chain is (stochastic, stationary,
reversible), when a gap is zero, how much slack an audit grants, which
sizes are refused and how many entries a block holds live here, so that
one place documents what "equal" means for each kind of quantity. A few
literals stay local to their code: the 1e-15 tie and improvement
windows of the Cheeger enumeration and search in ``bounds``, the 1e-12
rise that ``bounds._check_monotone`` allows along the worst-case TV
curve, the 1e-10 mean-zero and unit-norm checks on a test function
in ``empirical``, and the 1e-8 screen margin of
``families._doubling_gap``, whose docstring derives it.
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

# The one size rule. No family allocates an array of more than DENSE_LIMIT**2
# entries, the largest dense matrix: the constructors refuse more than
# DENSE_LIMIT states, and the closed forms more than DENSE_LIMIT**2 frequencies
# on an axis (or N^(d-1) on a torus's other axes). The doubling closed form
# also caps its longest orbit block at DENSE_LIMIT states. The card closed
# form refuses more than DENSE_LIMIT**2 orderings, N! in all its blocks, so
# decks of up to 10 cards; card_chain, by the states rule, up to 7.
DENSE_LIMIT = 6000

# The one block budget, read here by each blocked loop when it runs. No
# Monte Carlo draw buffer holds more than this many entries (512 KiB of
# float64), nor do the Philox rounds that fill a block's draws, or a chunk
# of deviation powers with its sums, grams and temporary, between them.
# families._character_gap forms the rows of its frequency grid that its
# row bound cannot rule out (a row wider than this alone), _doubling_weights
# batches the orbit blocks that _doubling_blocks stacks densely (the gap
# reads only their weights, p a block), and empirical._grams forms every
# stack's chunks of powers, one stack of one block on a dense chain, with
# their running sums, grams and one temporary (or the audit's Cholesky probe
# and its factor), in blocks of this many entries;
# experiments._ensemble_taus draws as many walks as fill one such block;
# bounds.cheeger_exact scores at most this many pairs of half-subsets per
# GEMM (a block of H half-subsets of this many over 2^h, against the L
# half-subsets whose mass can pass the cap) and rescores at most this many
# masks at once.
BLOCK_ENTRIES = 1 << 16
