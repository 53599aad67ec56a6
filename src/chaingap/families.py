"""Constructors and closed-form shortcuts for the example chain families.

Families: jump walks on the discrete circle (circulant transition
matrices), local walks on d-dimensional tori, the doubling-with-noise
chain x -> 2x + {-1, 0, 1} mod N, and the three-move card shuffle on the
symmetric group. Circulant and torus chains are both walks on (Z/NZ)^d:
one constructor builds them, and ChainSpec.closed_form() gets their gaps
from the character sums, far past the dense-matrix limit. The sums gather
from one table of N-th roots of unity; a lower bound on each row of the
frequency grid, summed from the table's real parts, picks the few rows
that can hold the gap, and only those are formed, in blocks of 2^16
frequencies. The random-steps ensemble sends whole blocks of walks
through the same kernel, of which closed_form() is the batch of one, one
walk for each class of step sets that are unit multiples of each other.
The doubling chain maps each character to a multiple of another, so
closed_form() gets its gap from one cyclic weighted shift
per orbit of m -> 2m mod N: LAPACK's banded eigensolver on folded
pentadiagonal bands screens the blocks by their Gram matrices and takes
the gap from the Golub-Kahan matrices of the few that can hold it, in
O(p^2) time and O(p) memory a block. The card shuffle is a walk on S_N:
closed_form() gets its gap from one block per irreducible
representation, in Young's orthogonal form, up to 10 cards, and
card_chain (up to 7) stays as the dense oracle. Only explicit chains
have no closed form. One generator per group walk yields these blocks
from its closed form's kernel (_character_blocks, 1 x 1 complex, for
circulant and torus walks, from the grid rows of _row_lambdas;
_doubling_blocks, dense stacks of the weights of _doubling_weights;
_card_blocks, from the Young forms), and the gap and Delta_n read the
same values: every family chain is built with its blocks, and empirical
takes its Delta_n curve from them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import permutations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dsbevx

from . import tolerances as tol
from .chains import FiniteChain, build_chain
from .errors import InvalidSteps, TooLarge, _whole
from .spectral import relaxation_time

__all__ = [
    "ChainSpec",
    "TorusProbs",
    "circulant_chain",
    "torus_chain",
    "up_right_probs",
    "cdg_chain",
    "card_chain",
    "parse_prob",
]

_TINY = np.finfo(float).tiny


def _require_entries(entries: int, what: str) -> None:
    """Refuse with TooLarge an array longer than the largest dense matrix,
    DENSE_LIMIT**2 entries; the dense constructors and the closed forms call
    it before their first array."""
    if entries > tol.DENSE_LIMIT**2:
        raise TooLarge(f"{entries} {what} exceed the {tol.DENSE_LIMIT**2}-entry cap")


def _dense_zeros(states: int) -> np.ndarray:
    """The states x states zero matrix, refused before allocation past the cap."""
    _require_entries(states * states, "matrix entries")
    return np.zeros((states, states))


# ---------------------------------------------------------------------------
# Walks on the abelian group (Z/NZ)^d


def _abelian_chain(N: int, axes, hold: float = 0.0) -> FiniteChain:
    """Explicit N^d-state walk stepping a * e_j with probability p.

    ``axes[j]`` lists the (a, p) pairs of axis j; ``hold`` is the
    probability of staying put. States are in row-major order. The walk
    is doubly stochastic, so mu is uniform, and normal. The chain carries
    its characters as 1 x 1 blocks (_character_blocks), built with it
    from the closed form's kernel.
    """
    d = len(axes)
    states = N**d
    P = _dense_zeros(states)
    idx = np.arange(states)
    coords = np.stack(np.unravel_index(idx, (N,) * d))
    P[idx, idx] += hold
    for axis, steps in enumerate(axes):
        for a, p in steps:
            if p == 0:
                continue
            shifted = coords.copy()
            shifted[axis] = (shifted[axis] + a) % N
            P[idx, np.ravel_multi_index(tuple(shifted), (N,) * d)] += p
    chain = build_chain(P, stationary=np.full(states, 1.0 / states))
    return replace(chain, _blocks=tuple(_character_blocks(N, axes, hold)))


def _roots_of_unity(N: int, axes) -> np.ndarray:
    """The table e^{2 pi i r / N}, r = 0..N-1, that every character sum gathers from.

    np.exp forms r = 0..N//2 only; r = N/2 (N even) is -1, and each
    r > N//2 is the exact conjugate of N - r. So the table is symmetric
    bit for bit, table[N - r] = conj(table[r]) up to the sign of a zero:
    a character sum at -m has the bits of the conjugate of its sum at m,
    with the same |1 - lambda|, as the half grid of _row_lambdas
    assumes.

    An axis has N frequencies and the other axes N^(d-1) together; past
    DENSE_LIMIT**2 either is refused before anything is allocated.
    """
    _require_entries(N ** max(1, len(axes) - 1), "character sums")
    half = np.exp(2j * np.pi * np.arange(N // 2 + 1) / N)
    if N % 2 == 0:
        half[N // 2] = -1.0
    return np.concatenate((half, half[(N + 1) // 2 - 1 : 0 : -1].conj()))


def _axis_sums(table: np.ndarray, a: np.ndarray, p: np.ndarray, m) -> np.ndarray:
    """sum_r p[:, r] * table[(m a[:, r]) mod N], added in step order from zero.

    One axis's character sums for a batch of walks: a and p are the
    residues and probabilities of its steps, shape (B, k), and m is a
    row of frequencies shared by the batch or a (B, 1) column of one
    frequency a walk. table is _roots_of_unity's, or its real parts: p
    is real, so the real part of p * root is fl(p cos) under any
    complex-multiply loop, complex addition adds the parts separately,
    and the real table gives the real parts of the complex sums' bits.
    """
    N = table.size
    out = np.zeros(np.broadcast_shapes((a.shape[0], 1), np.shape(m)), dtype=table.dtype)
    for r in range(a.shape[1]):
        out += p[:, r, None] * table[(m * a[:, r, None]) % N]
    return out


def _tail_sums(table: np.ndarray, axes, batch: int) -> np.ndarray:
    """The sums of axes 2..d over their N^(d-1) frequencies in row-major order,
    shape (batch, N^(d-1)), added axis by axis; a single zero for one axis."""
    tail = np.zeros((batch, 1), dtype=table.dtype)
    for a, p in axes[1:]:
        t = _axis_sums(table, a, p, np.arange(table.size))
        tail = (tail[:, :, None] + t[:, None, :]).reshape(batch, -1)
    return tail


def _character_gap(N: int, axes, hold: float = 0.0) -> list[tuple[float, float]]:
    """(gap, tau) of each walk in a batch of _abelian_chain walks, from their character sums.

    ``axes[j]`` is a pair (a, p) of arrays of shape (B, k_j): the residues
    and probabilities of axis j's steps in each of B walks that share N,
    the axis count and ``hold``. The characters lambda_m are the grid rows
    of _row_lambdas, and gamma = min over nonzero m of |1 - lambda_m|.
    Needs no dense matrix, so it runs far beyond the explicit-chain limit,
    and it forms only the rows m_1 of the (N//2 + 1) x N^(d-1) frequency
    grid that can hold the minimum; one axis forms lambda = first, each
    row a single entry, and every walk of the batch goes through the same
    array operations.

    Each value in row (b, m_1) is fl|fl(1 - fl(first + tail))|, at least
    its real part: hypot(x, y) >= |x| under any faithful rounding, and
    complex addition and subtraction round each component alone. So the
    row's values are bounded below by low = fl(fl(1 - Re first[b, m_1])
    - max_w Re tail[b, w]), up to the rounding. Re first is summed from
    the real parts of the roots (_axis_sums), the bits of the complex
    sum's real part, so the screen forms no complex first; the complex
    tail, needed by every formed row, is formed whole. Let S be the
    largest S_hi (below) in the batch; it exceeds 1 + max |first| +
    max |tail|, and every value. The two roundings in a value and the two
    in low move them apart by at most 5 S eps / 2, so a row holding a
    computed value v has low <= v + 5 S eps / 2 < fl(v + 8 S eps).

    Each walk's least-low row with m_1 >= 1 is formed first. Its minimum
    U is a computed value, so at least the gap; every other row with
    low <= fl(U + 8 S eps) is formed next, and a row left out has no
    value at or below U. A formed row's complex first[b, m_1] is the
    first axis's sum at that one frequency, and the row's values come
    from the operations of the full grid (first + tail, 1 - ., abs), in
    blocks of at most tol.BLOCK_ENTRIES entries (a single row excepted);
    every operation is elementwise and min is exact, so gamma keeps the
    bits of the minimum over every frequency.

    sigma_max is read only by relaxation_time's floor ZERO_SV *
    max(1, sigma_max), which grows with it. No computed value exceeds
    S_hi = (1 + hold + sum p)(1 + 4 (K + d + 8) eps), K steps in all:
    the K + d + 6 or so roundings on the way to a value, the roots
    table's included, each grow a modulus by at most a factor 1 + eps.
    When relaxation_time gives one tau at sigma_max = 0 and at S_hi, that
    is tau. Otherwise the gap lies within about twice the floor, and the
    walk's whole grid is formed for its exact sigma_max.
    """
    roots = _roots_of_unity(N, axes)
    a, p = axes[0]
    batch, rows = a.shape[0], N // 2 + 1
    tail = _tail_sums(roots, axes, batch) if len(axes) > 1 else None
    eps = np.finfo(float).eps
    K = sum(steps.shape[1] for steps, _ in axes)
    s_hi = 1.0 + hold + sum(probs.sum(axis=1) for _, probs in axes)
    s_hi *= 1.0 + 4 * (K + len(axes) + 8) * eps
    low = 1.0 - (hold + _axis_sums(roots.real, a, p, np.arange(rows)))
    if tail is not None:
        low -= tail.real.max(axis=1)[:, None]
    grid = (roots, a, p, hold, tail)
    walk = np.arange(batch)
    least = low[:, 1:].argmin(axis=1) + 1
    gap = _row_minima(grid, walk, least)
    keep = low <= (gap + 8 * s_hi.max() * eps)[:, None]
    keep[walk, least] = False
    b, m = np.divmod(np.flatnonzero(keep), rows)
    np.minimum.at(gap, b, _row_minima(grid, b, m))

    gap = gap.tolist()
    taus = [relaxation_time(g, s) for g, s in zip(gap, s_hi.tolist())]
    # a finite tau at S_hi is tau at every sigma_max below it
    unsure = [i for i, t in enumerate(taus) if t == np.inf and relaxation_time(gap[i], 0.0) != t]
    if unsure:
        b = np.repeat(unsure, rows)
        sigma_max = np.zeros(batch)
        for start, vals in _row_values(grid, b, np.tile(np.arange(rows), len(unsure))):
            np.maximum.at(sigma_max, b[start : start + len(vals)], vals.max(axis=1))
        for i in unsure:
            taus[i] = relaxation_time(gap[i], float(sigma_max[i]))
    return list(zip(gap, taus))


def _row_lambdas(grid, walks, rows):
    """Yield (start, lambda) for the grid rows (walks[k], rows[k]), k >= start.

    grid is (roots, a, p, hold, tail): the roots table, the first axis's
    steps and the other axes' sums (_tail_sums, None for one axis). Walk b
    has lambda_m = hold + sum_j sum_r p[b, r] e^{2 pi i m_j a[b, r] / N},
    each term gathered from the table at the exact residue (m_j a) mod N
    (_axis_sums); row (b, m_1) holds hold plus the first axis's sum at
    m_1, added to each of the N^(d-1) tail sums, or alone for one axis.
    The table is conjugate-symmetric bit for bit (_roots_of_unity), so
    the computed lambda_{-m} is the conjugate of the computed lambda_m,
    and the rows m_1 = 0..N//2 hold every value of |1 - lambda|. Each
    yield is a fresh (count, width) block of at most tol.BLOCK_ENTRIES
    entries, or a single row.
    """
    roots, a, p, hold, tail = grid
    per = max(1, tol.BLOCK_ENTRIES // (1 if tail is None else tail.shape[1]))
    for start in range(0, walks.size, per):
        b, m = walks[start : start + per], rows[start : start + per]
        first = hold + _axis_sums(roots, a[b], p[b], m[:, None])
        if tail is None:
            lam = first
        else:
            lam = tail[b]
            lam += first
        yield start, lam


def _row_values(grid, walks, rows):
    """Yield (start, |1 - lambda|) for the blocks of _row_lambdas."""
    for start, lam in _row_lambdas(grid, walks, rows):
        yield start, np.abs(np.subtract(1.0, lam, out=lam))


def _row_minima(grid, walks, rows) -> np.ndarray:
    """The least |1 - lambda| in each grid row (walks[k], rows[k]), leaving out m = 0."""
    out = np.empty(walks.size)
    for start, vals in _row_values(grid, walks, rows):
        vals[rows[start : start + len(vals)] == 0, 0] = np.inf  # the trivial character m = 0
        vals.min(axis=1, out=out[start : start + len(vals)])
    return out


def _character_blocks(N: int, axes, hold: float):
    """Yield the nontrivial characters of _abelian_chain(N, axes, hold) as one stack of 1 x 1 blocks.

    The characters chi_m(x) = e^{2 pi i m.x / N} are an orthonormal
    eigenbasis of the walk, P chi_m = lambda_m chi_m, so P is unitarily
    similar to the diagonal of the lambda_m; chi_0, the constants, is
    left out. The values are the half grid m_1 = 0..N//2 of _row_lambdas,
    the very bits _character_gap reads. lambda_{-m} = conj(lambda_m), and
    the stack holds one character of each pair {m, -m}: m itself when its
    row-major index is at most that of -m.
    """
    axes = [_batch_of_one(steps) for steps in axes]
    roots = _roots_of_unity(N, axes)
    m = np.arange(N // 2 + 1)
    grid = (roots, *axes[0], hold, _tail_sums(roots, axes, 1) if len(axes) > 1 else None)
    lam = np.concatenate([v for _, v in _row_lambdas(grid, np.zeros_like(m), m)])
    rows, width = lam.shape
    negated = np.zeros(1, dtype=np.int64)  # the row-major index of -m over the other axes
    for _ in axes[1:]:
        negated = (negated[:, None] * N + (-np.arange(N)) % N).ravel()
    index = np.arange(rows * width).reshape(rows, width)
    keep = index <= (-m % N)[:, None] * width + negated
    keep[0, 0] = False  # the trivial character
    yield lam[keep].reshape(-1, 1, 1)


def _batch_of_one(steps) -> tuple[np.ndarray, np.ndarray]:
    """The (a, p) arrays of one walk's (a, p) steps, as _character_gap takes them."""
    return np.array([[a for a, _ in steps]]), np.array([[p for _, p in steps]])


def _normalize_steps(N: int, steps) -> list[tuple[int, float]]:
    if _whole(N, "N") < 2:
        raise InvalidSteps("modulus must be >= 2")
    out = []
    seen = set()
    for a, p in steps:
        a = _whole(a, "a step residue") % N
        p = float(p)
        if a in seen:
            raise InvalidSteps(f"step {a} repeated after reduction mod {N}")
        if not (math.isfinite(p) and p > 0):
            raise InvalidSteps(f"step probability must be positive and finite, got {p}")
        seen.add(a)
        out.append((a, p))
    if not out:
        raise InvalidSteps("empty step set")
    total = sum(p for _, p in out)
    if abs(total - 1.0) > tol.ROW_SUM:
        raise InvalidSteps(f"step probabilities sum to {total!r}")
    return sorted(out)


def circulant_chain(N: int, steps) -> FiniteChain:
    """Walk on Z/NZ jumping by a_r with probability p_r.

    Steps must be distinct residues mod N with positive probabilities
    summing to 1. The chain is doubly stochastic (mu uniform) and its
    transition matrix is circulant, hence normal; it is irreducible
    exactly when gcd of the steps with N is 1.
    """
    return _abelian_chain(N, [_normalize_steps(N, steps)])


@dataclass(frozen=True)
class TorusProbs:
    """Hold probability p0 and per-axis step probabilities p(+i), p(-i)."""

    hold: float
    plus: tuple[float, ...]
    minus: tuple[float, ...]

    def __post_init__(self):
        plus = tuple(float(p) for p in self.plus)
        minus = tuple(float(p) for p in self.minus)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "hold", float(self.hold))
        if len(plus) != len(minus):
            raise ValueError("plus and minus must list one probability per axis")
        if not plus:
            raise ValueError("at least one axis required")
        allp = (self.hold,) + plus + minus
        if not all(math.isfinite(p) for p in allp):
            raise ValueError(f"non-finite probability in {allp}")
        if min(allp) < 0:
            raise ValueError("negative probability")
        if abs(sum(allp) - 1.0) > tol.ROW_SUM:
            raise ValueError(f"probabilities sum to {sum(allp)!r}")

    @property
    def d(self) -> int:
        return len(self.plus)


def up_right_probs(alpha: float) -> TorusProbs:
    """d=2 walk stepping right with probability alpha, up with 1 - alpha."""
    return TorusProbs(hold=0.0, plus=(float(alpha), 1.0 - float(alpha)), minus=(0.0, 0.0))


def _torus_axes(N: int, d: int, probs: TorusProbs) -> list[list[tuple[int, float]]]:
    """The (a, p) steps of each torus axis: +1 with p(+i), -1 with p(-i)."""
    if _whole(N, "N") < 2 or _whole(d, "d") < 1:
        raise ValueError("need N >= 2 and d >= 1")
    if probs.d != d:
        raise ValueError(f"probs describe {probs.d} axes, chain has {d}")
    return [[(1, p), (-1, m)] for p, m in zip(probs.plus, probs.minus)]


def torus_chain(N: int, d: int, probs: TorusProbs) -> FiniteChain:
    """Explicit N^d-state walk taking +-e_i steps; row-major state order."""
    return _abelian_chain(N, _torus_axes(N, d, probs), probs.hold)


# ---------------------------------------------------------------------------
# Doubling-with-noise chain on Z/NZ


def _require_odd_modulus(N: int) -> None:
    if _whole(N, "N") < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {N}")


def cdg_chain(N: int) -> FiniteChain:
    """The chain x -> 2x + e mod N with e uniform on {-1, 0, 1}.

    Requires odd N >= 3 (so that doubling is a bijection and the chain
    is doubly stochastic). Irreducible for every odd N: n steps reach a
    full interval of width 2^{n+1} - 1 around 2^n x. The chain carries
    its blocks (_doubling_blocks), built with it from the weights of the
    closed form.
    """
    _require_odd_modulus(N)
    P = _dense_zeros(N)
    x = np.arange(N)
    for e in (-1, 0, 1):
        P[x, (2 * x + e) % N] += 1.0 / 3.0
    chain = build_chain(P, stationary=np.full(N, 1.0 / N))
    return replace(chain, _blocks=tuple(_doubling_blocks(N)))


def _doubling_weights(N: int):
    """Yield the weights of the nontrivial blocks K of cdg_chain(N), as (b, p) batches.

    On the characters chi_m(x) = e^{2 pi i m x / N} the chain acts as
    P chi_m = c_m chi_{2m}, with c_m = (1 + 2 cos(2 pi m / N)) / 3 the
    (real) character of the noise law. So P is unitarily similar to the
    direct sum over the orbits m, 2m, ..., 2^{r-1} m of the real r x r
    blocks K, the cyclic shift weighted by c along the orbit
    (K e_j = c_j e_{j+1}); the orbit of m = 0, the constants, is left out.
    Row k of a batch is one block's c_0, ..., c_{p-1}. c_m is computed
    from min(m, N - m), so c_{-m} = c_m bitwise: the orbit of -m has the
    same block and is skipped, and an orbit that holds -m = 2^p m has
    weights of period p, so the half-turn e_j -> e_{j+p}, which commutes
    with K, splits its block into two p x p cyclic blocks whose wrap
    weight c_{p-1} is +c and -c. A batch holds the blocks of at most
    tol.BLOCK_ENTRIES dense entries (a single block excepted), and only
    one batch of orbits is built at a time. The longest orbit has
    ord_N(2) states; past DENSE_LIMIT it is refused before anything is
    allocated, as is N past DENSE_LIMIT**2 (the labels are N-long arrays).
    """
    _require_odd_modulus(N)
    _require_entries(N, "frequencies")
    powers = [1, 2]  # 2^j mod N up to j = ord_N(2), where it is 1 again
    while powers[-1] != 1:
        if len(powers) > tol.DENSE_LIMIT:
            raise TooLarge(f"ord_{N}(2) exceeds dense limit {tol.DENSE_LIMIT}")
        powers.append(2 * powers[-1] % N)
    order = len(powers) - 1
    # label m by the least min(x, N - x) over its orbit, by pointer jumping,
    # so that the orbits of m and -m share one label; label 0 is m = 0 alone
    m = np.arange(N)
    label, jump, span = np.minimum(m, N - m), 2 * m % N, 1
    while span < order:
        label = np.minimum(label, label[jump])
        jump, span = jump[jump], 2 * span
    reps, counts = np.unique(label, return_counts=True)
    reps, periods = reps[1:], counts[1:] // 2  # the orbits of +-m hold 2p states
    for p in np.unique(periods).tolist():
        starts = reps[periods == p]
        per_batch = max(1, tol.BLOCK_ENTRIES // (p * p))
        for lo in range(0, starts.size, per_batch):
            # m 2^j mod N, j = 0..p; below N^2 <= DENSE_LIMIT**4 < 2^63
            orbit = starts[lo : lo + per_batch, None] * np.array(powers[: p + 1]) % N
            half_turn = orbit[:, p] != orbit[:, 0]  # 2^p m = -m
            phase = np.minimum(orbit[:, :p], N - orbit[:, :p])
            c = (1.0 + 2.0 * np.cos(2.0 * np.pi * phase / N)) / 3.0
            c = np.concatenate([c, c[half_turn]])
            c[orbit.shape[0] :, -1] *= -1.0  # the wrap weight of the odd half
            for at in range(0, c.shape[0], per_batch):
                yield c[at : at + per_batch]


def _doubling_blocks(N: int):
    """Yield the blocks K of _doubling_weights(N) as dense (b, p, p) stacks."""
    for weights in _doubling_weights(N):
        p = weights.shape[1]
        diag = np.arange(p)
        blocks = np.zeros((weights.shape[0], p, p))
        blocks[:, (diag + 1) % p, diag] = weights  # K e_j = c_j e_{j+1}
        yield blocks


def _folded_bands(diag, coupling) -> np.ndarray:
    """The lower bands (kd = 2) of a batch of symmetric cyclic tridiagonals.

    Row k of coupling joins j and j + 1 mod n by coupling[k, j], and row k
    of diag is the diagonal. Under the order 0, n-1, 1, n-2, 2, ... each
    edge joins positions at most 2 apart, so the matrix is pentadiagonal.
    Edges that meet one entry add up: for n = 2 both edges join 0 and 1,
    and for n = 1 the self-loop and its mirror both land on the diagonal.
    Entry k of the (b, n, 3) result holds A[j + i, j] at [j, i], the
    transpose of the band (ldab = 3) that dsbevx takes.
    """
    b, n = coupling.shape
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = n - 1 - np.arange(n // 2)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    ends = np.stack([pos, np.roll(pos, -1)])  # the positions of j and j + 1
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    loop = hi == lo
    bands = np.zeros((b, n, 3))
    bands[:, pos, 0] = diag
    np.add.at(bands, (slice(None), lo, hi - lo), coupling)
    np.add.at(bands, (slice(None), lo[loop], 0), coupling[:, loop])
    return bands


def _band_eigenvalues(band: np.ndarray, lo=0.0, hi=0.0, index: int = 0) -> np.ndarray:
    """Eigenvalues of a _folded_bands entry by dsbevx, which overwrites it.

    With index > 0 the index-th least (1-based) alone; otherwise every one
    in (lo, hi], none when the Sturm counts at lo and hi agree. abstol =
    2 * tiny, the value LAPACK gives for the most accurate bisection.
    """
    il, select = (index, 2) if index else (1, 1)  # range "I" reads il = iu, "V" lo and hi
    # positional: ldab, compute_v = 0, range, lower = 1, abstol, mmax = 1, overwrite
    w, _, found, _, info = dsbevx(band.T, lo, hi, il, il, 3, 0, select, 1, 2.0 * _TINY, 1, 1)
    if info != 0 or (index and found != 1):
        raise LinAlgError(f"dsbevx failed (info={info}, m={found})")
    return w[:found]


def _golub_kahan_min(weights: np.ndarray) -> float:
    """sigma_min(I - K) of one block, from its Golub-Kahan band.

    [[0, I - K], [(I - K)^T, 0]] has the eigenvalues +-sigma_i of I - K.
    In the order s_0, r_1, s_1, r_2, ..., s_{p-1}, r_0 of the columns s_j
    and rows r_j of I - K it is the zero-diagonal 2p-cycle
    s_j -(-c_j)- r_{j+1} -(1)- s_{j+1}, and its eigenvalue p + 1 is
    sigma_min; |.| because the computed +-sigma_min pair straddles 0.
    """
    p = weights.size
    coupling = np.empty((1, 2 * p))
    coupling[0, 0::2] = -weights
    coupling[0, 1::2] = 1.0
    return abs(float(_band_eigenvalues(_folded_bands(0.0, coupling)[0], index=p + 1)[0]))


def _doubling_gap(N: int) -> tuple[float, float]:
    """(gap, tau) of cdg_chain(N) from the weights of _doubling_weights.

    I - P is unitarily similar to the direct sum of the blocks I - K, so
    gamma is the least sigma_min(I - K) over the nonzero orbits, and
    sigma_max the largest over them (the orbit of 0 gives 0). A block
    costs O(p^2) time and O(p) memory, in dsbevx calls on folded bands.

    The Gram band T = (I - K)^T (I - K) (diagonal 1 + c_j^2, couplings
    -c_j) gives sigma_max = sqrt(lambda_p(T)), to eps relative as it is
    the norm. Its lambda_1 = sigma_min^2 only screens, as squaring loses
    the relative accuracy of a small sigma_min. The first block asks for
    lambda_1 and lambda_p by index; they start the running least lambda_1
    and top lambda_p. Every later block asks only for its eigenvalues in
    (-1, least + delta], delta = 1e-8, and in (top, 8] (T is positive
    semidefinite, ||T|| <= 4); the Sturm counts mostly find none. The gap
    is the least _golub_kahan_min over the candidates, the blocks whose
    lambda_1 is at most the final least + delta.

    A dsbevx eigenvalue lies within e = p(n) eps ||A|| of the exact one of
    its band, and a Sturm count is exact for a band that close; p(n) is a
    modest function of n <= 2 DENSE_LIMIT (take n). So e_T <= 4 n eps
    (||T|| <= 4, and each rounded 1 + c_j^2 adds 2 eps) and e_GK <= 2 n eps
    (||GK|| = sigma_max <= 1 + max|c| <= 2): 2 e_T + 8 e_GK + 4 e_GK^2 <
    7e-11 < delta. The running cut never falls below the final one, so a
    block B that is not a candidate has lambda_1(B) > least + delta - e_T.
    With A the candidate that holds least, sigma_B^2 > sigma_A^2 + delta -
    2 e_T. Were B's computed sigma at most A's, sigma_B - e_GK <= sigma_A
    + e_GK, so sigma_B^2 <= sigma_A^2 + 8 e_GK + 4 e_GK^2 (sigma_A <= 2),
    against the margin. So gamma keeps the bits of the least Golub-Kahan
    value over every block. Likewise top is within e_T of the largest
    lambda_p.
    """
    hits, least, top = [], np.inf, -np.inf
    for weights in _doubling_weights(N):
        p = weights.shape[1]
        bands = _folded_bands(1.0 + weights * weights, -weights)
        for w, band, spare in zip(weights, bands, bands.copy()):
            if least == np.inf:  # the first block sets both thresholds
                low = _band_eigenvalues(band, index=1)
                high = _band_eigenvalues(spare, index=p)
            else:
                low = _band_eigenvalues(band, -1.0, least + 1e-8)
                high = _band_eigenvalues(spare, top, 8.0)
            if low.size:
                least = min(least, float(low[0]))
                hits.append((float(low[0]), w))
            if high.size:
                top = float(high[-1])
    gap = min(_golub_kahan_min(w) for lam, w in hits if lam <= least + 1e-8)
    return gap, relaxation_time(gap, math.sqrt(top))


# ---------------------------------------------------------------------------
# Card shuffle on S_N


def _require_deck(N: int) -> int:
    """N!, the orderings of an N-card deck. Refuses fewer than 3 cards with
    ValueError, and more than DENSE_LIMIT**2 orderings through
    _require_entries; the product stops at the first k! past the cap, so a
    huge deck is refused at once."""
    if _whole(N, "N") < 3:
        raise ValueError(f"a deck needs at least 3 cards, got {N}")
    orderings = 1
    for k in range(2, N + 1):
        orderings *= k
        _require_entries(orderings, f"orderings of {k} cards")
    return orderings


def card_chain(N: int) -> FiniteChain:
    """Three-move shuffle of an N-card deck, one state per permutation.

    With probability 1/3 each: do nothing, swap the top two cards, or
    move the bottom card to the top. States are deck orderings indexed
    by lexicographic (Lehmer-code) rank, top card first. Doubly
    stochastic since every move permutes the deck. The dense oracle of
    _card_gap: past DENSE_LIMIT states (N > 7) it is refused before the
    decks are listed. The chain carries its blocks (_card_blocks), built
    with it from the Young forms of the closed form.
    """
    size = _require_deck(N)
    P = _dense_zeros(size)
    decks = list(permutations(range(N)))  # lexicographic == Lehmer rank order
    rank = {deck: i for i, deck in enumerate(decks)}
    for deck in decks:
        i = rank[deck]
        P[i, i] += 1.0 / 3.0
        P[i, rank[(deck[1], deck[0]) + deck[2:]]] += 1.0 / 3.0
        P[i, rank[(deck[-1],) + deck[:-1]]] += 1.0 / 3.0
    chain = build_chain(P, stationary=np.full(size, 1.0 / size))
    return replace(chain, _blocks=tuple(_card_blocks(N)))


def _young_orthogonal_form(N: int):
    """Yield each partition lambda of N with rho_lambda(t_k), k = 0..N-2, in
    Young's orthogonal form (James & Kerber 1981; Diaconis 1988, ch. 3).

    The basis of rho_lambda is the standard tableaux of shape lambda, each
    held as its word, the row of each entry 0..N-1, in lexicographic order.
    t_k swaps the entries k and k+1. With a the axial distance, the content
    (column - row) of k+1 less that of k,
    rho(t_k) e_T = e_T / a + sqrt(1 - 1/a^2) e_{t_k T}; |a| = 1 when k and
    k+1 share a row or a column, and then the second term is zero. Each
    factor is the arrays (diag, off, swap) of _apply_factor: at most two
    nonzeros per row.
    """
    level = [((), ())]  # (word, row lengths) of every standard tableau so far
    for _ in range(N):
        level = [
            (word + (r,), rows[:r] + (length + 1,) + rows[r + 1 :])
            for word, rows in level
            for r, length in enumerate(rows + (0,))
            if r == 0 or rows[r - 1] > length
        ]
    shapes: dict[tuple, list] = {}
    for word, rows in level:
        shapes.setdefault(rows, []).append(word)
    place = N ** np.arange(N - 1, -1, -1)  # a word as a base-N number keeps its order
    for shape, words in shapes.items():
        W = np.array(words)
        d, keys, basis = len(words), W @ place, np.arange(len(words))
        column = np.zeros_like(W)
        for k in range(1, N):
            column[:, k] = (W[:, :k] == W[:, k : k + 1]).sum(axis=1)
        content = column - W
        factors = []
        for k in range(N - 1):
            a = (content[:, k + 1] - content[:, k]).astype(float)
            swapped = W.copy()
            swapped[:, [k, k + 1]] = W[:, [k + 1, k]]
            partner = np.minimum(np.searchsorted(keys, swapped @ place), d - 1)
            swap = np.where(np.abs(a) == 1.0, basis, partner)
            factors.append((1.0 / a, np.sqrt(1.0 - 1.0 / a**2), swap))
        yield shape, factors


def _apply_factor(factor, M: np.ndarray) -> np.ndarray:
    """rho(t_k) M from the factor's two nonzeros per row, in O(d^2)."""
    diag, off, swap = factor
    return diag[:, None] * M + off[:, None] * M[swap]


def _card_blocks(N: int):
    """Yield K_lambda for each partition lambda != (N) of N, each as a stack of one.

    A move permutes positions, deck -> deck o pi, with pi the identity,
    t_0 (swap the top two cards) or c = t_{N-2} o ... o t_0 (bottom card
    to the top), each with probability 1/3; K_lambda = (I + rho(t_0) +
    rho(c)) / 3. rho(c) is formed by applying each rho(t_k) in turn, with
    no dense d x d product. The walk is invariant under the right action
    of S_N and mu is uniform, so P is unitarily equivalent to the direct
    sum of the K_lambda, each repeated d_lambda times; K_(N) = 1 is the
    constants and is left out.
    """
    for shape, factors in _young_orthogonal_form(N):
        if len(shape) == 1:
            continue
        eye = np.eye(factors[0][0].size)
        swap = cycle = _apply_factor(factors[0], eye)
        for factor in factors[1:]:
            cycle = _apply_factor(factor, cycle)
        yield ((eye + swap + cycle) / 3.0)[None]


def _card_gap(N: int) -> tuple[float, float]:
    """(gap, tau) of card_chain(N) from one block per irreducible representation of S_N.

    I - P is unitarily equivalent to the direct sum of the blocks
    I - K_lambda of _card_blocks, each repeated d_lambda times, and the
    zero of the trivial block. gamma is the least sigma_min(I - K_lambda)
    over lambda != (N), and sigma_max the largest. The blocks hold
    sum d_lambda^2 = N! entries together, so a deck with N! past
    DENSE_LIMIT**2 (N > 10) is refused before any array.
    """
    _require_deck(N)
    gap, sigma_max = np.inf, 0.0
    for block in _card_blocks(N):
        values = np.linalg.svd(np.eye(block.shape[1]) - block, compute_uv=False)
        sigma_max = max(sigma_max, float(values.max()))
        gap = min(gap, float(values.min()))
    return gap, relaxation_time(gap, sigma_max)


# ---------------------------------------------------------------------------
# Serializable family descriptions


def parse_prob(value) -> float:
    """A probability given as a number or a small exact expression.

    Strings may use rationals and square roots, e.g. "1/2", "1/sqrt(2)",
    "sqrt(1/2)", "sqrt(2)/2", "1 - 1/sqrt(2)", so that irrational
    parameters are stated exactly and evaluated once to double precision.
    A bool, a division by zero, a value past the double range ("1e400")
    and a chained division ("1/2/4") are ValueErrors.
    """
    if isinstance(value, bool):
        raise ValueError(f"a probability must be a number or a string, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).replace(" ", "")
    if not text:
        raise ValueError("empty probability expression")

    def term(expr: str) -> float:
        depth = 0  # split at the first "/" outside every sqrt( )
        for i, c in enumerate(expr):
            depth += (c == "(") - (c == ")")
            if c == "/" and depth == 0:
                return _atom(expr[:i]) / _atom(expr[i + 1 :])
        return _atom(expr)

    def _atom(expr: str) -> float:
        if expr.startswith("sqrt(") and expr.endswith(")"):
            return math.sqrt(float(Fraction(expr[5:-1])))
        if "/" in expr:
            raise ValueError(f"chained division in probability {value!r}")
        return float(Fraction(expr))

    try:
        # at most one top-level +/- between two terms, e.g. "1-1/sqrt(2)"
        for i in range(1, len(text)):
            if text[i] in "+-" and text[i - 1] not in "(+-*/eE":
                left, op, right = text[:i], text[i], text[i + 1 :]
                return term(left) + (1 if op == "+" else -1) * term(right)
        return term(text)
    except ZeroDivisionError:
        raise ValueError(f"probability {value!r} divides by zero") from None
    except OverflowError:
        raise ValueError(f"probability {value!r} overflows a double") from None


def _integer(value, name: str) -> int:
    """A JSON integer; a bool or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _array(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return value


def _matrix_rows(value) -> tuple[tuple[float, ...], ...]:
    """An explicit matrix's rows as float tuples, all of one length.

    A row of JSON ints and floats converts at once; any other row goes
    through _real entry by entry, which names the entry it refuses.
    """
    rows = []
    for i, row in enumerate(_array(value, "explicit 'matrix'")):
        row = _array(row, "a matrix row")
        if set(map(type, row)) <= {int, float}:
            rows.append(tuple(map(float, row)))
        else:
            rows.append(tuple(_real(v, "a matrix entry") for v in row))
        if len(row) != len(rows[0]):
            raise ValueError(
                f"explicit 'matrix' is ragged: row {i} has {len(row)} entries, "
                f"row 0 has {len(rows[0])}"
            )
    return tuple(rows)


@dataclass(frozen=True)
class ChainSpec:
    """Serializable chain description, the JSON surface of the CLI.

    JSON fields: "family" (explicit | circulant | torus | cdg |
    cardshuffle) plus per-family parameters:

        circulant:   {"N": int, "steps": [[a, p], ...]}
        torus:       {"N": int, "d": int,
                      "probs": {"hold": p, "plus": [...], "minus": [...]}}
        cdg:         {"N": int}
        cardshuffle: {"N": int}
        explicit:    {"matrix": [[...], ...]}

    Probabilities may be numbers or exact strings (see parse_prob). Other
    keys are ignored; a malformed field is refused with a ValueError. N
    and d are checked by errors._whole when a spec is made, from JSON or
    not, and held as Python ints.
    """

    family: str
    N: int | None = None
    d: int | None = None
    steps: tuple[tuple[int, float], ...] | None = None
    probs: TorusProbs | None = None
    matrix: tuple | None = None

    FAMILIES = ("explicit", "circulant", "torus", "cdg", "cardshuffle")

    def __post_init__(self):
        for name in ("N", "d"):  # sizes are Python ints from the start
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _whole(value, name))

    @staticmethod
    def from_json(payload: dict) -> "ChainSpec":
        if not isinstance(payload, dict):
            raise ValueError("a chain spec must be a JSON object")
        family = payload.get("family")
        if family not in ChainSpec.FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {ChainSpec.FAMILIES}")
        if family == "explicit":
            return ChainSpec(family=family, matrix=_matrix_rows(payload.get("matrix")))
        N = _integer(payload.get("N"), f"{family} 'N'")
        if family == "circulant":
            steps = []
            for step in _array(payload.get("steps"), "circulant 'steps'"):
                if not (isinstance(step, list) and len(step) == 2):
                    raise ValueError(f"a circulant step must be a pair [a, p], got {step!r}")
                steps.append((_integer(step[0], "a step residue"), parse_prob(step[1])))
            if not steps:
                raise ValueError("circulant family requires 'steps'")
            return ChainSpec(family=family, N=N, steps=tuple(steps))
        if family == "torus":
            raw = payload.get("probs")
            if not isinstance(raw, dict):
                raise ValueError("torus family requires 'probs' as a JSON object")
            probs = TorusProbs(
                hold=parse_prob(raw.get("hold", 0.0)),
                plus=tuple(parse_prob(p) for p in _array(raw.get("plus"), "'probs.plus'")),
                minus=tuple(parse_prob(p) for p in _array(raw.get("minus"), "'probs.minus'")),
            )
            d = _integer(payload.get("d", probs.d), "torus 'd'")
            return ChainSpec(family=family, N=N, d=d, probs=probs)
        return ChainSpec(family=family, N=N)

    def to_json(self) -> dict:
        """The fields that are set, tuples as lists and probs as a dict of its fields."""
        def plain(value):
            if isinstance(value, TorusProbs):
                return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
            return [plain(v) for v in value] if isinstance(value, (tuple, list)) else value

        return {k: plain(v) for k, v in vars(self).items() if v is not None}

    def with_size(self, N: int) -> "ChainSpec":
        """Template instantiation: same family/parameters at another N."""
        if self.family == "explicit":
            raise ValueError("explicit chains have no size parameter")
        return replace(self, N=N)

    def params_digest(self) -> str:
        """Stable digest of everything but N, for experiment row keys."""
        payload = self.to_json()
        payload.pop("N", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def build(self) -> FiniteChain:
        if self.family == "explicit":
            return build_chain(np.array(self.matrix))
        if self.family == "circulant":
            return circulant_chain(self.N, self.steps)
        if self.family == "torus":
            return torus_chain(self.N, self.d, self.probs)
        if self.family == "cdg":
            return cdg_chain(self.N)
        return card_chain(self.N)

    def closed_form(self) -> tuple[float, float] | None:
        """(gap, tau) without the dense chain, or None for an explicit chain.

        Circulant and torus walks from their character sums, the doubling
        chain from its blocks on the orbits of m -> 2m (_doubling_gap), the
        card shuffle from one block per irreducible representation of S_N
        (_card_gap). The one closed-form route: scan and the CLI call it,
        and the random-steps ensemble batches its walks through the same
        kernel.
        """
        if self.family == "circulant":
            axes = [_batch_of_one(_normalize_steps(self.N, self.steps))]
            return _character_gap(self.N, axes)[0]
        if self.family == "torus":
            axes = [_batch_of_one(s) for s in _torus_axes(self.N, self.d, self.probs)]
            return _character_gap(self.N, axes, self.probs.hold)[0]
        if self.family == "cdg":
            return _doubling_gap(self.N)
        if self.family == "cardshuffle":
            return _card_gap(self.N)
        return None
