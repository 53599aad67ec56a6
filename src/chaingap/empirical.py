"""Exact and Monte Carlo evaluation of the empirical-average deviation.

For a stationary chain and a test function g with mu g = 0 and unit
mu-norm, the worst-case L2 size of the running average
(1/n) sum g(X_i) defines Delta_n. Under stationarity

    E[((1/n) sum_{i<n} g(X_i))^2] = <g, M_n g>_mu,

    M_n = (1/n^2) sum_{|k| < n} (n - |k|) H_|k|,   H_k = (P^k + (P^k)*)/2,

so Delta_n^2 is the largest eigenvalue of M_n restricted to the
mu-orthogonal complement of the constants, over real g. Every chain is
read as stacks of blocks, and one loop forms the grams of every stack
(_grams): a chunk of consecutive powers at a time, one matrix product a
power, the running sums in the additions' own order and the grams of
the chunk's n, at most 2^16 entries a chunk, so the chunking moves no
bit. A dense chain is one stack of one block, the conjugated
(symmetric-coordinates) P, whose constants the grams deflate to
eigenvalue -1; only the top eigenvalue is computed, so a curve from
delta_curve costs one product per power and one top-eigenvalue solve
per n. delta_curve and delta_exact also take the eigenvector (the
maximizer).

The bound audit reports three n, so it solves only a few: n_max,
h = n_max // 2 and every n <= tau/3 (Delta_1 = 1 needs none). Every
other n gets proved bounds in the same pass over the powers: a Cholesky
factorization of a shifted gram that runs to completion proves the
computed top eigenvalue below a target (Rump, BIT 46, 2006), and a
Rayleigh quotient with the top vector at h bounds it below. The targets
and that vector are steered by the grams at h and n_max from
binary-lifted sums, O(log n_max) products. A check's worst n is decided
when every other n is excluded by its bounds; else the whole curve is
solved. The reported values are delta_curve's, bit for bit, either way.

The group walks carry their blocks K (families): real orbit blocks for
the doubling chain, one block per irreducible representation for the
card shuffle, and the 1 x 1 complex characters lambda_m for circulant
and torus walks. mu is uniform and P is unitarily equivalent to the
direct sum of the blocks, so M_n splits into the same blocks, and
Delta_n is taken from the grams of the blocks, the constants' left out,
with no N x N array. Their maximizers still come from the dense stack,
and every route reports the block value (_deviations).

Every randomized routine keys numpy's Philox4x64-10 with the one seed
rule (seed mod 2^64, stream), so any integer seed runs and a seed in
[0, 2^64) keys what Philox(key=np.uint64(seed)) keys. Monte Carlo
replicate r is stream r, and its words are laid out as numpy's Generator
consumes them: word 0 is the start uniform (w >> 11) 2^-53; the next
ceil((n-1)/2) words split, low half first, into the 32-bit bucket draws
h of the alias tables, each (h * size) >> 32 by Lemire's method; then
come the n - 1 coin words. Philox is counter-based: word 4(c - 1) + i
of a stream is word i of ten rounds applied to the counter (c, 0, 0, 0)
under the key (Salmon et al., SC 2011), so while a replicate needs at
most 48 words the words of a block of replicates come from those rounds
in numpy integer arithmetic; past that, from numpy's Philox re-keyed per
replicate, which then costs less. Both sources give the same word array,
decoded in one place. A replicate whose bucket draws include one that
Lemire's method rejects ((h * size) mod 2^32 < 2^32 mod size, never at a
power-of-two size) is drawn again from numpy's generator, so every draw
is numpy's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevx

from . import tolerances as tol
from .audit import BoundAudit, make_check, skipped_check
from .chains import FiniteChain
from .errors import BadTestFunction, _whole
from .spectral import _conjugated, _require_spectral, spectral_gap

__all__ = [
    "DeltaPoint",
    "DeltaCurve",
    "delta_exact",
    "delta_curve",
    "delta_monte_carlo",
    "delta_bounds_audit",
]

# Philox4x64 round multipliers and key increments (Salmon et al., SC 2011)
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = 0xFFFFFFFF

# The unit roundoff of float64 and its least normal number
_U = 2.0**-53
_TINY = 2.0**-1022

# A replicate's Philox words come from rounds in numpy integer arithmetic,
# for a block of replicates at once, while it needs at most this many
# counters (4 words each); past that, re-keying numpy's own Philox for each
# replicate is cheaper. The rounds cost about 0.3 us a counter, re-keying
# and one random_raw call 2.5-5 us a replicate (one thread of a 2-core
# x86-64 Xeon, timings spread by the host); the two cross between 12 and
# 17 counters.
_ROUND_COUNTERS = 12


@dataclass(frozen=True)
class DeltaPoint:
    n: int
    delta_exact: float
    delta_mc: float | None = None
    mc_stderr: float | None = None
    maximizer: np.ndarray | None = None


@dataclass(frozen=True)
class DeltaCurve:
    """Exact deviation values over a range of n, with optional MC columns."""

    entries: tuple[DeltaPoint, ...]


def _deviations(chain: FiniteChain, ns, maximizer: bool):
    """Yield (n, Delta_n, g) for the sorted distinct n >= 1 in ns.

    n^2 Delta_n^2 is the top eigenvalue of n^2 M_n = n I + A + A^T on the
    mean-zero functions, A = sum_{k<n} (n - k) P^k in the conjugated
    coordinates. Every chain is a sequence of stacks of blocks K (_stacks),
    and n^2 Delta_n^2 is the largest top eigenvalue over the blocks of
    n I + A_K + A_K^H, A_K formed from K as A is from P, in one loop over
    the stacks (_grams). A dense chain is one stack of one block, the
    conjugated B = D^{1/2} P D^{-1/2}, whose constant direction the grams
    deflate. A group walk's blocks touch no N x N array, and they are
    exact: mu is uniform, so the conjugation is the identity, and
    P = U (sum of the blocks, each repeated) U^H with U unitary.
    n^2 M_n = n I + A + A^H (P real, so A^T = A^H), and A is a polynomial
    in P, so U^H A U = sum of the A_K and, K^H being the block of
    P^H = P^T, U^H (n^2 M_n) U = sum of the n I + A_K + A_K^H: M_n splits
    with K and K^H, over complex blocks as over real ones, and the
    constants' block, left out, is the deflated direction. Real g
    suffices, since the top eigenvalue of the real symmetric n^2 M_n has a
    real eigenvector. A 1 x 1 character block gives
    n + 2 Re sum_{k<n} (n - k) lambda^k, and lambda_{-m} = conj(lambda_m)
    gives the same, so one character of each conjugate pair stands for
    both. M_n(K^T) = M_n(K)^T has the same eigenvalues, so whether a real
    block acts on columns or rows does not matter, and a half-turn that
    commutes with K commutes with M_n(K), so splitting a block by it keeps
    the spectrum. g, the maximizing test function when maximizer is true,
    else None, always comes from the dense stack; on a block chain its
    dense value is dropped for the block value, so delta_curve,
    delta_exact and the bound audit report the same bits.
    """
    stacks, d = _stacks(chain)
    tops, vectors = _curve_tops(stacks, d, ns, maximizer and d is not None)
    if maximizer and d is None:
        stacks, d = _dense_stack(chain)
        vectors = _curve_tops(stacks, d, ns, True)[1]
    for n, value, u in zip(ns, _tops_to_deltas(tops, ns), vectors):
        yield n, value, None if u is None else u / d


def _dense_stack(chain: FiniteChain):
    """([B[None]], d): the one stack of the one block B = D^{1/2} P D^{-1/2}, and d = sqrt(mu)."""
    return [_conjugated(chain.transition, chain.stationary)[None]], np.sqrt(chain.stationary)


def _stacks(chain: FiniteChain):
    """(stacks, d): the stacks of blocks that give Delta_n, and the direction their grams deflate.

    A group walk's stacks with d = None, or the dense stack with
    d = sqrt(mu) (_dense_stack).
    """
    return _dense_stack(chain) if chain._blocks is None else (chain._blocks, None)


def _tops_to_deltas(tops, ns) -> list:
    """Delta_n from the top eigenvalue of n^2 M_n on sqrt(mu)-perp, for each n in ns.

    M_1 is the identity there, so Delta_1 = 1; an eigenvalue of M_n below
    tol.DELTA_SQ_FLOOR is a zero, and Delta_n is at most 1. Every step is
    elementwise and correctly rounded, so a value does not depend on the
    others beside it. The values are numpy float64 scalars, and a root
    that rounded past 1 is the float 1.0.
    """
    ns = np.asarray(ns)
    top = np.asarray(tops, dtype=float) / (ns * ns)
    top[ns == 1] = 1.0
    top[top < tol.DELTA_SQ_FLOOR] = 0.0
    root = np.sqrt(top)
    values = list(root)
    for i in np.flatnonzero(root > 1.0):
        values[i] = 1.0
    return values


def _grams(stacks, d, ns):
    """Yield (stack, first, grams) for each stack and each chunk of ns.

    grams[i, b] is the gram n I + A_K + A_K^H of block b of the stack at
    n = ns[first + i], deflated when d is given (_finish); stack counts
    the stacks from 0. Each stack K, of one block size, real or complex,
    runs its own powers and running sums S_k = K + ... + K^k and
    SS_k = S_1 + ... + S_k, A_K = SS_{n-1}, a chunk of consecutive k at a
    time (_chunk_sums), and no power past max(ns) - 1 is formed. The
    power, S and SS a chunk ends on stay in the last rows of their
    arrays, where the next chunk reads them in place: the power rows
    alternate between two arrays, and a chunk's grams go to the one its
    powers did not fill. These four arrays and one more of their size (a
    temporary of the grams, or the probe's copy and factor in
    delta_bounds_audit, half the grams at a time) hold no more than
    tol.BLOCK_ENTRIES entries, one row each excepted (_chunk_powers). The
    grams are views that the next chunk overwrites.
    """
    ns = np.asarray(ns)
    if not len(ns):
        return
    top_k = int(ns[-1]) - 1
    for stack, K in enumerate(stacks):
        per = _chunk_powers(K)
        work = np.empty((4, min(per, max(top_k, 1))) + K.shape, dtype=K.dtype)
        powers, s, ss = work[:2], work[2], work[3]
        s[-1] = ss[-1] = 0.0  # S_0 = SS_0 = 0
        powers[1, -1] = np.eye(K.shape[-1])  # K^0, for the first product
        first = 0  # the first n not yet taken
        if ns[0] == 1:
            _finish(powers[0, :1], ss[-1:], ns[:1], d)
            yield stack, 0, powers[0, :1]
            first = 1
        for chunk, k0 in enumerate(range(1, top_k + 1, per)):
            count = min(per, top_k + 1 - k0)
            now, spare = powers[chunk % 2], powers[1 - chunk % 2]
            _chunk_sums(K, spare[-1], now[:count], s, ss)
            stop = int(np.searchsorted(ns, k0 + count, side="right"))
            if stop > first:
                taken = ns[first:stop]
                picks = taken - (k0 + 1)  # ss[j] = SS_{k0 + j}
                if picks[-1] - picks[0] == len(picks) - 1:
                    picks = slice(picks[0], picks[-1] + 1)
                _finish(spare[: len(taken)], ss[picks], taken, d)
                yield stack, first, spare[: len(taken)]
                first = stop


def _chunk_sums(K: np.ndarray, power: np.ndarray, rows: np.ndarray, s, ss) -> None:
    """rows[j] = K^(k0 + j) from power = K^(k0 - 1), and ss[j] = SS_{k0 + j}, for one chunk.

    S and SS run on from S_{k0 - 1} in s[-1] and SS_{k0 - 1} in ss[-1],
    with the additions of a one-k-at-a-time loop in its order, and leave
    the chunk's last S in s[-1] (its last SS in ss[-1] when the chunk is
    full). A chunk with no more rows than entries a row adds one row a
    call, beside its products. Otherwise np.cumsum along the first axis,
    one inner-loop call per entry of a row, takes the sums in the same
    order, the carry first added into the first row, which is then no
    longer needed: the chunk has at least two rows.
    """
    matmul, add = np.matmul, np.add
    if len(rows) <= rows[0].size:
        carry, prev = s[-1], ss[-1]
        for row, out in zip(rows, ss):
            power = matmul(power, K, row)
            add(carry, power, carry)
            prev = add(prev, carry, out)
        return
    for row in rows:
        power = matmul(power, K, row)
    count = len(rows)
    add(s[-1], rows[0], rows[0])
    np.cumsum(rows, axis=0, out=s[:count])
    add(ss[-1], s[0], s[0])
    np.cumsum(s[:count], axis=0, out=ss[:count])


def _finish(grams: np.ndarray, ss: np.ndarray, ns: np.ndarray, d) -> None:
    """grams[i] = n I + SS + SS^H from ss[i] = SS_{n-1}, n = ns[i], deflated when d is given.

    grams is a C-contiguous (count, M, m, m) stack, and ss may be grams
    itself (numpy then adds from a copy). Each gram S + S^H is
    Hermitian to the bit. With d = sqrt(mu) (a dense stack, M = 1), d is a
    left and right eigenvector of B with eigenvalue 1, and subtracting
    (d^T G d + n^2) d d^T from G = n^2 M_n moves the constant direction to
    -n^2, below the rest of the spectrum, which is nonnegative; so the top
    eigenvalue belongs to sqrt(mu)-perp. The deflation rounds
    (shift d_i) d_j and (shift d_j) d_i apart, so a dense gram is
    symmetric only to a few ulps of the shift; its upper triangle is the
    one solved (_dense_top). Every entry takes the same operations
    whatever the count, so the stacking moves no bit.
    """
    np.add(ss, ss.conj().swapaxes(-1, -2), out=grams)
    m = grams.shape[-1]
    grams.reshape(grams.shape[:2] + (m * m,), copy=False)[..., :: m + 1] += ns[:, None, None]
    if d is not None:
        dense = grams[:, 0]
        shift = np.vecdot(d @ dense, d) + ns * ns
        dense -= (shift[:, None] * d)[:, :, None] * d


def _chunk_powers(K: np.ndarray) -> int:
    """How many powers of the stack K a chunk of _grams holds: five arrays of that many rows
    fill tol.BLOCK_ENTRIES."""
    return max(1, tol.BLOCK_ENTRIES // (5 * K.size))


def _dense_top(gram: np.ndarray, maximizer: bool):
    """(top, u): the top eigenvalue of gram's upper triangle by dsyevx, and
    its eigenvector u when maximizer is true, else None."""
    size = len(gram)
    w, vec, found, _, info = dsyevx(gram, compute_v=int(maximizer), range="I", il=size, iu=size)
    if info == 0 and found == 1:
        return float(w[0]), (vec[:, 0] if maximizer else None)
    # dsyevx finds no eigenvalue (m = 0, info = 0) when the top one is
    # degenerate across the whole spectrum, as for I - 2 d d^T
    w, vec = np.linalg.eigh(gram)
    return float(w[-1]), vec[:, -1]


def _solved(grams: np.ndarray, d, maximizer: bool = False):
    """(tops, vectors) of a (count, M, m, m) stack of grams from _grams.

    tops[i, b] is the computed top eigenvalue of block b of gram i: a
    1 x 1 block's real entry, which is what eigvalsh returns for it; a
    dense gram's from _dense_top, one dsyevx call a gram, with vectors[i]
    its top eigenvector when maximizer is true; eigvalsh's on any other
    block. vectors is None but for a dense stack.
    """
    if d is not None:
        tops, vectors = zip(*(_dense_top(gram, maximizer) for gram in grams[:, 0]))
        return np.array(tops)[:, None], vectors
    if grams.shape[-1] == 1:
        return grams[..., 0, 0].real, None
    return np.linalg.eigvalsh(grams)[..., -1], None


def _curve_tops(stacks, d, ns, maximizer: bool = False):
    """(tops, vectors): the top eigenvalue of n^2 M_n on sqrt(mu)-perp for each n in ns, the
    largest over the stacks' blocks (_solved), and the dense top vectors when maximizer is
    true (else Nones)."""
    tops = np.full(len(ns), -np.inf)
    vectors = [None] * len(ns)
    for _, first, grams in _grams(stacks, d, ns):
        found, found_vectors = _solved(grams, d, maximizer)
        section = tops[first : first + len(grams)]
        np.maximum(section, found.max(axis=1), out=section)
        if maximizer:
            vectors[first : first + len(grams)] = found_vectors
    return tops, vectors


def _curve_values(stacks, d, n_max: int) -> np.ndarray:
    """Delta_1, ..., Delta_{n_max} from the stacks, bit for bit delta_curve's."""
    ns = np.arange(1, n_max + 1)
    return np.array(_tops_to_deltas(_curve_tops(stacks, d, ns)[0], ns))


def _deviation_values(chain: FiniteChain, n_max: int) -> np.ndarray:
    """Delta_1, ..., Delta_{n_max}, bit for bit delta_curve's, without maximizers."""
    return _curve_values(*_stacks(chain), n_max)


def delta_exact(chain: FiniteChain, n: int) -> tuple[float, np.ndarray]:
    """Worst-case L2 deviation of the length-n empirical average.

    Returns (Delta_n, g) where g attains the supremum: mu g = 0 and
    ||g||_mu = 1, with the start drawn from mu.
    """
    _require_spectral(chain)
    n = _whole(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    _, value, g = next(_deviations(chain, [n], True))
    return value, g


def _curve_ns(chain: FiniteChain, n_list) -> list[int]:
    """The sorted distinct n of n_list, refused when there are none or one is below 1."""
    _require_spectral(chain)
    ns = sorted({_whole(n, "n") for n in n_list})
    if not ns:
        raise ValueError("the n list is empty")
    if ns[0] < 1:
        raise ValueError("all n must be >= 1")
    return ns


def delta_curve(chain: FiniteChain, n_list) -> DeltaCurve:
    """Batch of delta_exact sharing one power accumulation; n >= 1, at least one."""
    ns = _curve_ns(chain, n_list)
    pts = []
    for n, value, g in _deviations(chain, ns, True):
        g.setflags(write=False)
        pts.append(DeltaPoint(n=n, delta_exact=value, maximizer=g))
    return DeltaCurve(entries=tuple(pts))


def _alias_tables(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias tables (accept, alias) of every row of P, in lockstep.

    Each row keeps a stack of its small (scaled < 1) and of its large
    entries, both in index order, and every step pops both tops of every
    row that has both: the pops, pushes and updates of a one-row-at-a-time
    build, so the tables do not depend on the lockstep.
    """
    rows, size = P.shape
    scaled = P * size
    accept = np.zeros((rows, size))
    alias = np.zeros((rows, size), dtype=np.int64)
    is_small = scaled < 1.0
    small = np.argsort(~is_small, axis=1, kind="stable")  # small entries first
    large = np.argsort(is_small, axis=1, kind="stable")  # large entries first
    n_small = is_small.sum(axis=1)
    n_large = size - n_small
    live = np.flatnonzero((n_small > 0) & (n_large > 0))
    while len(live):
        top_s, top_l = n_small[live] - 1, n_large[live] - 1
        s, l = small[live, top_s], large[live, top_l]
        accept[live, s] = scaled[live, s]
        alias[live, s] = l
        scaled[live, l] = scaled[live, l] - (1.0 - scaled[live, s])
        # l becomes small and takes the place of s, or stays on top of large
        moved = scaled[live, l] < 1.0
        small[live[moved], top_s[moved]] = l[moved]
        n_large[live[moved]] -= 1
        n_small[live[~moved]] -= 1
        live = live[(n_small[live] > 0) & (n_large[live] > 0)]
    for stack, count in ((large, n_large), (small, n_small)):
        left = np.arange(size) < count[:, None]
        accept[np.nonzero(left)[0], stack[left]] = 1.0
    return accept, alias


def _require_reps(reps: int) -> None:
    if _whole(reps, "reps") < 2:
        raise ValueError("reps must be >= 2: the standard error needs two replicates")


def _philox_key(seed: int, stream: int = 0) -> np.ndarray:
    """The Philox key (seed mod 2^64, stream) of every randomized routine.

    Any integer seed runs, and a seed in [0, 2^64) keys the stream of
    Philox(key=np.uint64(seed)); anything else is refused with ValueError
    (_whole). The key is a uint64 array because numpy casts a tuple of
    Python ints through float64.
    """
    return np.array([_whole(seed, "seed") % (1 << 64), stream], dtype=np.uint64)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products a * b, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> 32
    b0, b1 = b & _LOW32, b >> 32
    high = b1 * a1
    b1 *= a0  # the cross products a0 b1 and a1 b0
    cross = b0 * a1
    b0 *= a0
    b0 >>= 32
    high += b1 >> 32
    high += cross >> 32
    b1 &= _LOW32
    cross &= _LOW32
    b0 += b1
    b0 += cross  # the middle column: below 3 * 2^32
    b0 >>= 32
    high += b0
    return high, b * a


def _philox_words(seed: int, first: int, count: int, counters: int) -> np.ndarray:
    """Words 0 .. 4 counters - 1 of Philox streams first .. first + count - 1.

    Row j holds what np.random.Philox(key=_philox_key(seed, first + j))
    returns from random_raw(4 * counters), from the rounds of the module
    docstring in numpy integer arithmetic. The lanes are (replicate,
    counter) arrays, broadcast until the rounds fill them.
    """
    key0 = int(_philox_key(seed)[0])
    key1 = np.arange(first, first + count, dtype=np.uint64)[:, None]
    x0 = np.arange(1, counters + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    for j in range(10):
        high0, low0 = _mulhilo(_PHILOX_MUL[0], x0)
        high1, low1 = _mulhilo(_PHILOX_MUL[1], x2)
        x0 = high1 ^ x1 ^ ((key0 + j * _PHILOX_WEYL[0]) % (1 << 64))
        x2 = high0 ^ x3 ^ (key1 + (j * _PHILOX_WEYL[1]) % (1 << 64))
        x1, x3 = low1, low0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(count, 4 * counters)


def _rekeyed_words(seed: int, first: int, count: int, counters: int) -> np.ndarray:
    """_philox_words' array, from numpy's own Philox re-keyed for each stream."""
    key = _philox_key(seed)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = np.random.Philox()
    words = np.empty((count, 4 * counters), dtype=np.uint64)
    for r in range(count):
        key[1] = first + r
        bitgen.state = fresh  # what a fresh Philox(key=key) holds
        words[r] = bitgen.random_raw(4 * counters)
    return words


def _unit(words: np.ndarray, out: np.ndarray) -> None:
    """Generator.random's double of each 64-bit word, into out."""
    np.multiply(words >> 11, 2.0**-53, out=out)


def _lemire(h: np.ndarray, bound) -> tuple[np.ndarray, np.ndarray]:
    """(draw, rejected): numpy's bounded integer in [0, bound) from each 32-bit word h.

    Lemire's method (ACM TOMACS 29, 2019), as numpy's Generator takes a
    draw below bound <= 2^32 from one 32-bit word: the draw is
    (h * bound) >> 32, and numpy rejects it, taking the next word instead,
    when (h * bound) mod 2^32 < 2^32 mod bound. bound is an int or a
    uint64 array that broadcasts against h.
    """
    product = np.multiply(h, bound, dtype=np.uint64)
    return product >> 32, (product & _LOW32) < (1 << 32) % bound


def _replicate_draws(seed: int, first: int, count: int, steps: int, buckets: int):
    """(u0, bucket, coin) of replicates first .. first + count - 1, bit for bit.

    Replicate r draws as rng = np.random.Generator(np.random.Philox(
    key=_philox_key(seed, r))) would: u0 = rng.random(), then
    bucket = rng.integers(0, buckets, size=steps), then
    coin = rng.random(steps). Its words, laid out as the module
    docstring says, come from _philox_words while it needs at most
    _ROUND_COUNTERS counters, else from _rekeyed_words, as many replicates
    at a time as keep the rounds within tol.BLOCK_ENTRIES entries. A
    replicate with a rejected bucket draw is drawn again from rng.
    """
    half = (steps + 1) // 2  # two 32-bit bucket draws per word
    counters = -(-(1 + half + steps) // 4)
    source = _philox_words if counters <= _ROUND_COUNTERS else _rekeyed_words
    per = max(1, tol.BLOCK_ENTRIES // (16 * counters))  # the rounds hold about 16 lanes of words
    u0 = np.empty(count)
    coin = np.empty((count, steps))
    bucket = np.empty((count, steps), dtype=np.int64)
    for start in range(0, count, per):
        stop = min(start + per, count)
        words = source(seed, first + start, stop - start, counters)
        _unit(words[:, 0], u0[start:stop])
        _unit(words[:, 1 + half : 1 + half + steps], coin[start:stop])
        # the 32-bit draws, low half of each word first: the words' little-endian halves
        h = words[:, 1 : 1 + half].astype("<u8", copy=False).view("<u4")[:, :steps]
        bucket[start:stop], rejected = _lemire(h, buckets)  # a dense chain has < 2^32 states
        rejected = rejected.any(axis=1)
        for r in (start + np.flatnonzero(rejected)).tolist():
            rng = np.random.Generator(np.random.Philox(key=_philox_key(seed, first + r)))
            rng.random()  # u0 comes before any bucket draw
            bucket[r] = rng.integers(0, buckets, size=steps)
            rng.random(out=coin[r])
    return u0, bucket, coin


def _monte_carlo(chain: FiniteChain, points, reps: int, seed: int):
    """Yield delta_monte_carlo's (estimate, stderr) for each (n, g) in points.

    The start CDF and the step sampler, Walker alias tables (Walker, ACM
    TOMS 3, 1977), are built once for all the points.
    """
    _require_spectral(chain)
    _require_reps(reps)
    size = chain.size
    mu = chain.stationary
    mu_cdf = np.cumsum(mu)
    accept, alias = _alias_tables(chain.transition)
    for n, g in points:
        g = np.asarray(g, dtype=float)
        if g.shape != (size,) or not np.isfinite(g).all():
            raise BadTestFunction(f"test function must be {size} finite values, one a state")
        if abs(g @ mu) > 1e-10:
            raise BadTestFunction("test function must have mu-average 0")
        if abs(np.sqrt(g * g @ mu) - 1.0) > 1e-10:
            raise BadTestFunction("test function must have unit mu-norm")
        n = _whole(n, "n")
        if n < 1:
            raise ValueError("n must be >= 1")
        steps = n - 1
        block = max(1, tol.BLOCK_ENTRIES // max(steps, 1))
        squares = np.empty(reps)
        for first in range(0, reps, block):
            count = min(block, reps - first)
            u0, bucket, coin = _replicate_draws(seed, first, count, steps, size)
            x = np.minimum(np.searchsorted(mu_cdf, u0, side="right"), size - 1)
            acc = g[x]
            for i in range(steps):
                b = bucket[:, i]
                x = np.where(coin[:, i] < accept[x, b], b, alias[x, b])
                acc = acc + g[x]
            # float_power calls libm pow like a scalar ``** 2``; an array ``** 2``
            # squares instead, which differs in the last bit about once in a thousand.
            squares[first : first + count] = np.float_power(acc / n, 2.0)
            u0 = bucket = coin = b = None  # b views bucket: free the draws before the next block's
        mean_sq = float(squares.mean())  # fixed summation order: reduction-order independent
        if mean_sq <= 0.0:
            yield 0.0, 0.0
        else:
            se_mean = float(squares.std(ddof=1)) / np.sqrt(reps)
            estimate = float(np.sqrt(mean_sq))
            yield estimate, float(se_mean / (2.0 * estimate))


def delta_monte_carlo(
    chain: FiniteChain, g: np.ndarray, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of ||mu_n g||_L2 over stationary trajectories.

    Each replicate draws X_0 exactly from mu and steps through the chain;
    the estimate is sqrt(mean((mu_n g)^2)) with a delta-method standard
    error. Deterministic given the seed: replicate r draws from numpy's
    Philox stream keyed (seed mod 2^64, r), bit for bit as numpy's
    Generator would, with the word layout of the module docstring, so
    results do not depend on scheduling. Replicates advance in lockstep,
    one numpy step for a whole block of them, in blocks small enough that
    no buffer holds more than 2^16 entries (a single replicate's n - 1
    draws excepted); a block's words are made a few replicates at a time,
    holding no more than 2^16 entries between them.
    Each replicate draws and sums in the same order as a one-at-a-time
    walk, so neither the lockstep nor the block size moves a bit of the
    result.

    Raises:
        BadTestFunction: g is not one finite value a state, or not
            mean-zero with unit mu-norm (to 1e-10).
        ValueError: n or reps is not an integer, n < 1, or reps < 2.
    """
    return next(_monte_carlo(chain, [(n, g)], reps, seed))


def _top_bounds(stacks, d, ns, targets, probe=None):
    """Bounds on the computed top eigenvalue of n^2 M_n for each n of ns, in one pass (_grams).

    The computed top is the one _deviations rounds to Delta_n, the largest
    over the stacks of their blocks' tops (_solved). n = 1 is not formed:
    n^2 M_1 is the identity on sqrt(mu)-perp, whose top is 1, and
    _tops_to_deltas takes Delta_1 = 1 whatever the top. A stack's grams at
    n are certified below targets[i] when the target is positive
    (_certified); those the certificate does not clear, and all grams when
    the target is NaN, are solved as _deviations solves them, as the gram
    is in hand. A stack of 1 x 1 blocks is read, not certified.

    Returns (exact, bound, low). exact[i] is the largest top solved over
    the stacks (-inf when none was), bound[i] the target when some stack
    was certified (else -inf): so the computed top is exact[i] when
    exact[i] >= bound[i], and lies in [exact[i], bound[i]] otherwise.
    low[i] is a lower bound for n <= last from probe = (stack, block, v,
    last), the Rayleigh quotient of v on that block's gram
    (_rayleigh_lower), and -inf elsewhere.
    """
    ns = np.asarray(ns)
    exact = np.full(len(ns), -np.inf)
    bound = np.full(len(ns), -np.inf)
    low = np.full(len(ns), -np.inf)
    skip = int(ns[0] == 1)
    exact[:skip] = 1.0
    for stack, first, grams in _grams(stacks, d, ns[skip:]):
        first += skip
        rows = slice(first, first + len(grams))
        if grams.shape[-1] == 1:
            tops = _solved(grams, d)[0]
        else:
            solve = ~_certified(grams, targets[rows])
            np.maximum(bound[rows], np.where(solve, -np.inf, targets[rows]), out=bound[rows])
            tops = np.full(grams.shape[:2], -np.inf)
            if solve.any():
                tops[solve] = _solved(grams[solve], d)[0]
        np.maximum(exact[rows], tops.max(axis=1), out=exact[rows])
        if probe is not None and probe[0] == stack:
            _, block, v, last = probe
            take = int(np.searchsorted(ns[rows], last, side="right"))
            section = low[first : first + take]
            np.maximum(section, _rayleigh_lower(grams[:take, block], v), out=section)
    return exact, bound, low


def _certified(grams, targets) -> np.ndarray:
    """Whether a floating-point Cholesky proves every block's computed top below its row's target.

    grams is a (count, M, m, m) stack; row i is certified when targets[i]
    > 0 and, for each of its blocks G, LAPACK's Cholesky of
    A = fl(s I - G^T), s = fl(t - c), runs to completion, with t =
    targets[i], u = 2^-53 and, from the computed Z = ||G||_F >= ||G||_2,

        c = 4 (m + 2)^2 (u (|t| + Z) + 2^-1022).

    Proof that the computed top of G is then below t. A Cholesky that
    runs to completion has R^H R = A + E with |E| <= g |R^H| |R|,
    g = gamma_{m+2} = (m + 2) u / (1 - (m + 2) u), whatever the order of
    its inner products (Demmel; Higham, Accuracy and Stability, 2nd ed.,
    Thm 10.3, with the complex inner product's gamma_{m+2}); the bound
    needs no definiteness. As Rump does ("Verification of positive
    definiteness", BIT 46, 2006), bound ||E||_2 <= g sum_j ||r_j||^2 and
    sum_j ||r_j||^2 = tr(A + E) <= tr(A) + g sum_j ||r_j||^2, so
    lambda_min(A) >= -g tr(A) / (1 - g), with tr(A) <= (1 + u) m (|s| +
    Z). Underflow adds at most a few 2^-1074 an operation, which the
    2^-1022 term covers. A differs from s I - G^T only by the rounding of
    its diagonal (at most u (|s| + Z)), and s from t - c by u |t|. The
    Cholesky reads A's lower triangle, that of -G^T: on the dense gram
    that is the symmetric matrix of G's upper triangle, the one dsyevx
    reads; on a block, Hermitian to the bit, it is conj(G), which has G's
    eigenvalues. So lambda_max of that matrix is
    below t - c + (m (m + 2) + 2) u (|t| + Z) (1 + 4 (m + 2) u). The
    solver's top is within p(m) eps ||G||_2 = 2 m u Z of it (p(m) = m, as
    _doubling_gap takes it), and within 6 u Z more on the dense gram,
    whose lower triangle, read by the eigh fallback, differs from the
    upper by the deflation's rounding: 2 gamma_2 |shift| d_i d_j + u
    (|G_ij| + |G_ji|) an entry, |shift| <= 2 ||G||_2, ||d|| = 1. The sum,
    (m^2 + 4 m + 8) u (|t| + Z) and a little, is under half of c, and the
    half left covers the rounding of Z and of c itself. So the computed
    top is below t: a target the certificate clears is a proved bound,
    whatever steered its choice. The probe works on half the rows at a
    time, so its copy and the factor together hold no more than the
    grams.
    """
    count, _, m, _ = grams.shape
    ok = np.zeros(count, dtype=bool)
    rows = np.flatnonzero(targets > 0)
    half = max(1, -(-len(rows) // 2))
    diag = np.arange(m)
    for part in (rows[:half], rows[half:]):
        if not len(part):
            continue
        t = targets[part][:, None]
        probe = grams[part]  # the probe's copy, negated and transposed in place
        z = np.sqrt(np.vecdot(probe, probe).real.sum(axis=-1))
        shift = t - 4.0 * (m + 2) ** 2 * (_U * (np.abs(t) + z) + _TINY)
        probe = np.negative(probe, out=probe).swapaxes(-1, -2)
        probe[..., diag, diag] += shift[..., None]
        try:
            np.linalg.cholesky(probe)
            ok[part] = True
        except np.linalg.LinAlgError:
            for i, one in zip(part, probe):
                try:
                    np.linalg.cholesky(one)
                    ok[i] = True
                except np.linalg.LinAlgError:
                    pass
    return ok


def _rayleigh_lower(grams, v) -> np.ndarray:
    """A lower bound on the computed top eigenvalue of each gram of a (count, m, m) stack, from v.

    r = fl(v^H G v) / fl(v^H v) is a Rayleigh quotient up to rounding,
    and the top eigenvalue of the matrix a solver reads is at least the
    exact quotient. The returned r - 8 (m + 8) u (Z + |r|), u = 2^-53,
    Z = ||G||_F, covers: the matvec and the dot product, gamma_{2m+2}
    |v|^T |G| |v| <= gamma_{2m+2} Z ||v||^2 (complex products included);
    fl(v^H v) = ||v||^2 (1 + theta), |theta| <= gamma_m, which moves r by
    2 gamma_m |r|; the dense gram's triangles, which differ by at most
    (8 gamma_2 + 2 u) Z in this form (see _certified); the solver's
    2 m u Z; and the few roundings of the bound, each under 4 u of its
    terms. That is (4 m + 28) u (Z + |r|) and a little, under half the
    slack taken.
    """
    m = grams.shape[-1]
    r = np.vecdot(v, grams @ v).real / np.vecdot(v, v).real
    z = np.sqrt(np.vecdot(grams, grams).real.sum(axis=-1))
    return r - 8.0 * (m + 8) * _U * (z + np.abs(r))


def _window_maxima(values: np.ndarray, count: int) -> np.ndarray:
    """max(values[..., n - 1 : 2n]) for n = 1 .. count, from a sparse table.

    At step j, span[..., i] = max(values[..., i : i + 2^j]), and the n + 1
    entries of window n are covered by span[n - 1] and span[2n - 2^j] for
    the n with 2^j <= n + 1 < 2^(j+1), that is 2^j - 1 <= n <= 2^(j+1) - 2.
    A maximum rounds nothing, so the bits are those of any other order.
    """
    out = np.empty(values.shape[:-1] + (count,))
    span = values
    half, first = 1, 1  # half = 2^(j-1); first = 2^j - 1, the level's least n
    while first <= count:
        span = np.maximum(span[..., :-half], span[..., half:])
        last = min(2 * first, count)
        ends = span[..., 2 * (first - half) : 2 * (last - half) + 1 : 2]
        np.maximum(span[..., first - 1 : last], ends, out=out[..., first - 1 : last])
        half, first = 2 * half, 2 * first + 1
    return out


def _first_worst(margin: np.ndarray, known: np.ndarray) -> int | None:
    """The first index of least margin, or None when that cannot be decided.

    margin is exact where known and a lower bound elsewhere. The first
    least known margin is the first least of all when every other margin
    lies strictly above it; else None.
    """
    if known.all():
        return int(np.argmin(margin))
    exact = np.where(known, margin, np.inf)
    worst = int(np.argmin(exact))
    if known[worst] and np.all(margin[~known] > exact[worst]):
        return worst
    return None


def _doubled(sums):
    """(2m, K^2m, S_2m, SS_2m) from sums = (m, K^m, S_m, SS_m) (_lifted_sums)."""
    m, power, s, ss = sums
    if m == 0:
        return sums
    return 2 * m, power @ power, s + power @ s, ss + m * s + power @ ss


def _stepped(sums, K):
    """(m + 1, K^(m+1), S_(m+1), SS_(m+1)) from sums = (m, K^m, S_m, SS_m) (_lifted_sums)."""
    m, power, s, ss = sums
    power = K if m == 0 else power @ K
    s = s + power
    return m + 1, power, s, ss + s


def _lifted_sums(K: np.ndarray, k: int):
    """(k, K^k, S_k, SS_k) for a matrix or a stack of blocks K, by binary lifting.

    S_k = K + ... + K^k and SS_k = S_1 + ... + S_k are the sums that
    _grams carries one power at a time; here they take
    O(log k) products. S_{m+i} = S_m + K^m S_i, so S_2m = S_m + K^m S_m and
    SS_2m = SS_m + m S_m + K^m SS_m, and one step is S_{m+1} = S_m +
    K^(m+1), SS_{m+1} = SS_m + S_{m+1}; the bits of k, from the top, say
    when to step after a doubling. The roundings are not those of the
    power-at-a-time sums, so the values only steer. K^0 is None.
    """
    sums = (0, None, np.zeros_like(K), np.zeros_like(K))
    for bit in bin(k)[2:]:
        sums = _doubled(sums)
        if bit == "1":
            sums = _stepped(sums, K)
    return sums


def _lifted_grams(stacks, d, h: int, n_max: int):
    """Yield (stack, grams): each stack's grams at n = h and n = n_max from lifted sums.

    grams is a (2, M, m, m) stack, finished from SS_{h-1} and SS_{n_max-1}
    (_lifted_sums) as _grams finishes its sums (_finish). n_max is 2h or
    2h + 1, so SS_{n_max-1} is one doubling of the sums at h - 1 and one
    or two steps.
    """
    ns = np.array([h, n_max])
    for stack, K in enumerate(stacks):
        sums = _lifted_sums(K, h - 1)
        later = _doubled(sums)
        while later[0] < n_max - 1:
            later = _stepped(later, K)
        grams = np.stack((sums[3], later[3]))
        _finish(grams, grams, ns, d)
        yield stack, grams


def _steering(stacks, d, h: int, n_max: int):
    """(tops, probe): the steering values of _deviation_bounds, from lifted sums.

    tops holds the top eigenvalues of n^2 M_n at n = h and n = n_max
    (_lifted_grams), the largest over the stacks, each solved as
    _top_bounds solves it. probe is (stack, block, v, h), v the top
    eigenvector of the block larger than 1 x 1 whose top wins at h (the
    dense gram's, from the same dsyevx call as its top), or None when
    every block is 1 x 1.
    """
    tops = np.full(2, -np.inf)
    probe, best = None, -np.inf
    for stack, grams in _lifted_grams(stacks, d, h, n_max):
        (top_h, vectors), (top_n, _) = _solved(grams[:1], d, True), _solved(grams[1:], d)
        np.maximum(tops, [top_h.max(), top_n.max()], out=tops)
        block = int(np.argmax(top_h[0]))
        if grams.shape[-1] > 1 and top_h[0, block] > best:
            best, gram = top_h[0, block], grams[0, block]
            if vectors is not None:
                v = vectors[0]
            elif gram.dtype.kind == "f":
                v = _dense_top(gram, True)[1]
            else:
                v = np.linalg.eigh(gram)[1][:, -1]
            probe = (stack, block, v, h)
    return tops, probe


def _deviation_bounds(chain: FiniteChain, n_max: int, tau: float):
    """(lo, hi): bounds on Delta_1 .. Delta_{n_max}, _deviation_values' bits where lo == hi.

    One read of the chain's stacks (_stacks) serves the steering and the
    pass. A group walk whose stacks are all 1 x 1 or fit one chunk of
    powers (_chunk_powers) is solved whole: a 1 x 1 gram is its own top,
    and one batched eigvalsh call on a stack that small costs less than
    certifying its grams one chunk at a time. A dense stack is never
    solved whole, as one dsyevx call a gram costs more than the bounds.

    The anchors n = 1, h = n_max // 2, n_max and every n <= tau/3 are
    solved (n = 1 by M_1 = I). Every other n aims at a target: the
    Delta_n that would leave it no worse than the anchors on a check,
    sqrt(4 tau / n) - m_u with m_u the least upper-check margin at n = 1,
    h and n_max, and for h < n <= 2h at most Delta_h, so that the window
    at h reads Delta_h. The steering values of Delta_h and Delta_{n_max},
    and the probe v, the top eigenvector at h, come from binary-lifted
    sums (_steering), in O(log n_max) products; they agree with the pass's
    values to about 1e-12, well inside the shading of the target by 2^-30
    that makes a bound at it clear the check strictly. One pass over the
    powers (_top_bounds) then solves each anchor and certifies every other
    n's grams below its target or solves them, and bounds each n <= h
    below by v's Rayleigh quotient. _tops_to_deltas is monotone, each of
    its steps being (a division by n^2, a floor to 0, a correctly rounded
    sqrt, a clamp at 1), so it maps bounds on the computed top to bounds
    on Delta_n. Every reported value comes from the pass: the steering
    values only choose the targets, and correctness rests on the certified
    bounds.
    """
    stacks, d = _stacks(chain)
    if d is None and all(K.shape[-1] == 1 or _chunk_powers(K) >= n_max - 1 for K in stacks):
        values = _curve_values(stacks, d, n_max)
        return values, values
    ns = np.arange(1, n_max + 1)
    h = max(n_max // 2, 1)
    anchors = ns <= tau / 3.0
    anchors[[0, h - 1, n_max - 1]] = True
    targets = np.full(n_max, np.nan)
    probe = None
    if not anchors.all():
        tops, probe = _steering(stacks, d, h, n_max)
        delta_h, delta_n = _tops_to_deltas(tops, [h, n_max])
        upper = np.sqrt(4.0 * tau / ns)
        aim = upper - min(upper[0] - 1.0, upper[h - 1] - delta_h, upper[-1] - delta_n)
        aim[h : 2 * h] = np.minimum(aim[h : 2 * h], delta_h)
        targets = np.square(ns * aim) * (1.0 - 2.0**-30)
        targets[anchors | (aim <= 0.0)] = np.nan
    exact, bound, low = _top_bounds(stacks, d, ns, targets, probe)
    known = exact >= bound
    lo = _tops_to_deltas(np.where(known, exact, np.maximum(exact, low)), ns)
    hi = _tops_to_deltas(np.where(known, exact, bound), ns)
    return np.array(lo), np.array(hi)


def _deviation_checks(lo: np.ndarray, hi: np.ndarray, tau: float):
    """The three checks of delta_bounds_audit from bounds on its Delta_n, or None if undecided.

    Each worst n is the first of least margin among the n whose value the
    bounds fix (lo == hi), when every other n's margin, from its bounds,
    lies strictly above it (_first_worst); a window max is fixed when the
    maxima of the window's lower and upper bounds agree. Rounding is
    monotone, so a margin from a bound is a bound on the margin. With
    lo == hi everywhere these are the checks of the full curve.
    """
    n_max = len(lo)
    ns = np.arange(1, n_max + 1)
    checks = []
    upper = np.sqrt(4.0 * tau / ns)
    worst = _first_worst(upper - hi, lo == hi)
    if worst is None:
        return None
    checks.append(make_check(f"avg_dev_upper[n={ns[worst]}]", hi[worst], upper[worst], "<="))

    floor_ns = ns[ns <= tau / 3.0]
    if len(floor_ns) == 0:
        checks.append(skipped_check("avg_dev_floor", "no n <= tau/3"))
    else:
        vals = lo[: len(floor_ns)]
        worst = _first_worst(vals, vals == hi[: len(floor_ns)])
        if worst is None:
            return None
        checks.append(
            make_check(f"avg_dev_floor[n={floor_ns[worst]}]", vals[worst], 1.0 / 132.0, ">=")
        )

    if n_max < 2:
        checks.append(skipped_check("avg_dev_window_lower", "n_max < 2"))
    else:
        wn = np.arange(1, n_max // 2 + 1)
        lhs, lhs_hi = _window_maxima(np.stack((lo, hi)), len(wn))
        rhs = tau / (2.0 * wn + 3.0 * tau)
        worst = _first_worst(lhs - rhs, lhs == lhs_hi)
        if worst is None:
            return None
        checks.append(
            make_check(f"avg_dev_window_lower[n={wn[worst]}]", lhs[worst], rhs[worst], ">=")
        )
    return tuple(checks)


def delta_bounds_audit(chain: FiniteChain, n_max: int) -> BoundAudit:
    """Check the deviation-vs-relaxation-time inequalities up to n_max.

    Verifies, against the exact evaluator, that for all 1 <= n <= n_max
    the deviation is at most sqrt(4 tau / n); that it stays above 1/132
    for every n <= tau/3; and that for every n with 2n <= n_max the
    window max over n <= k <= 2n is at least tau / (2n + 3 tau). Each
    inequality is reported once with its worst margin (and the first n
    where that occurs). An infinite tau gives three skipped checks, never
    a raise.

    Delta_n is solved exactly only where a check can report it; every
    other n is bounded by a Cholesky certificate and a Rayleigh quotient
    (_deviation_bounds). When the bounds leave a check undecided, the
    whole curve is solved (_deviation_values), so the report is always
    that of the full curve, bit for bit.
    """
    n_max = _whole(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gamma, tau = spectral_gap(chain)
    if not np.isfinite(tau):
        names = ("avg_dev_upper", "avg_dev_floor", "avg_dev_window_lower")
        return BoundAudit(tuple(skipped_check(n, "relaxation time infinite") for n in names))
    checks = _deviation_checks(*_deviation_bounds(chain, n_max, tau), tau)
    if checks is None:
        values = _deviation_values(chain, n_max)
        checks = _deviation_checks(values, values, tau)
    return BoundAudit(checks)
