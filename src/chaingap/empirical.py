"""Exact and Monte Carlo evaluation of the empirical-average deviation.

For a stationary chain and a test function g with mu g = 0 and unit
mu-norm, the worst-case L2 size of the running average
(1/n) sum g(X_i) defines Delta_n. Under stationarity

    E[((1/n) sum_{i<n} g(X_i))^2] = <g, M_n g>_mu,

    M_n = (1/n^2) sum_{|k| < n} (n - |k|) H_|k|,   H_k = (P^k + (P^k)*)/2,

so Delta_n^2 is the largest eigenvalue of M_n restricted to the
mu-orthogonal complement of the constants, over real g. The powers
accumulate incrementally in the conjugated (symmetric) coordinates, the
constants are deflated to eigenvalue -1, and only the top eigenvalue is
computed, so a whole curve costs one matrix product per power and one
top-eigenvalue solve per n. The grams of consecutive n are formed as one
stack of at most 2^16 entries, temporary included, with the operations
of a gram formed alone, so the stacking moves no bit. delta_curve and
delta_exact also take the eigenvector (the maximizer); the bound audit
takes eigenvalues only, and its values equal delta_curve's bit for bit.

The group walks carry their blocks K (families): real orbit blocks for
the doubling chain, one block per irreducible representation for the
card shuffle, and the 1 x 1 complex characters lambda_m for circulant
and torus walks. mu is uniform and P is unitarily equivalent to the
direct sum of the blocks, so M_n splits into the same blocks, and
Delta_n is taken from the grams of the blocks, the constants' left out,
with no N x N array; a chunk of consecutive powers is formed at a time,
and its running sums by cumsum in the additions' own order. Their
maximizers still come from the dense gram, and every route reports the
block value (_deviations).

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
from .errors import BadTestFunction
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
    coordinates (_dense_deviations). A chain that carries blocks K takes
    the block route (_block_tops): n^2 Delta_n^2 is the largest top
    eigenvalue over the blocks of n I + A_K + A_K^H, A_K formed from K as A
    is from P, and no N x N array is touched. This is exact: mu is
    uniform, so the conjugation is the identity, and P = U (sum of the
    blocks, each repeated) U^H with U unitary. n^2 M_n = n I + A + A^H
    (P real, so A^T = A^H), and A is a polynomial in P, so
    U^H A U = sum of the A_K and, K^H being the block of P^H = P^T,
    U^H (n^2 M_n) U = sum of the n I + A_K + A_K^H: M_n splits with K and
    K^H, over complex blocks as over real ones, and the constants' block,
    left out, is the deflated direction. Real g suffices, since the top
    eigenvalue of the real symmetric n^2 M_n has a real eigenvector. A 1 x 1
    character block gives n + 2 Re sum_{k<n} (n - k) lambda^k, and
    lambda_{-m} = conj(lambda_m) gives the same, so one character of each
    conjugate pair stands for both. M_n(K^T) = M_n(K)^T has the same
    eigenvalues, so whether a real block acts on columns or rows does not
    matter, and a half-turn that commutes with K commutes with M_n(K), so
    splitting a block by it keeps the spectrum. g, the maximizing test
    function when maximizer is true, else None, always comes from the
    dense gram; on a block chain its dense value is dropped for the block
    value, so delta_curve, delta_exact and the bound audit report the
    same bits.
    """
    if chain._blocks is None:
        yield from _dense_deviations(chain, ns, maximizer)
        return
    deltas = _tops_to_deltas(_block_tops(chain._blocks, ns), ns)
    dense = _dense_deviations(chain, ns, True) if maximizer else ((n, 0.0, None) for n in ns)
    for (n, _, g), value in zip(dense, deltas):
        yield n, value, g


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


def _block_tops(blocks, ns) -> list[float]:
    """The top eigenvalue of n^2 M_n on sqrt(mu)-perp for each n in ns, from the blocks.

    ``blocks()`` yields stacks of blocks K of one size, real or complex.
    Each stack runs its own powers and running sums, as _dense_deviations
    does for P, a chunk of consecutive k at a time: one matmul per k puts
    K^k into the chunk's array, behind the carried S_{k0-1}, and a cumsum
    turns them into S_{k0-1}, ..., S_k; the carried SS_{k0-1} in front,
    a second cumsum gives SS_{k0-1}, ..., SS_k, SS_j = S_1 + ... + S_j.
    Each sum takes the additions of a one-k-at-a-time loop, in the same
    order. The grams n I + A_K + A_K^H, A_K = SS_{n-1}, of every requested
    n in the chunk go to one eigvalsh call. The chunk's array, its grams
    and their one temporary hold no more than tol.BLOCK_ENTRIES entries
    (a single power excepted), and no power past max(ns) - 1 is formed. A
    stack is done before the next is built.
    """
    ns = np.asarray(ns)
    top_k = int(ns[-1]) - 1
    best = np.full(len(ns), -np.inf)
    for K in blocks():
        diag = np.arange(K.shape[-1])
        bk = np.zeros_like(K)
        bk[:, diag, diag] = 1.0
        ssum = np.zeros_like(K)  # S_{k0-1}
        sum_of_sums = np.zeros_like(K)  # SS_{k0-1}
        per = max(1, tol.BLOCK_ENTRIES // (3 * K.size) - 1)
        run = np.empty((min(per, top_k) + 1,) + K.shape, dtype=K.dtype)
        first = 0  # the first n not yet taken
        for k0 in range(1, max(top_k, 1) + 1, per):
            count = min(per, top_k + 1 - k0)
            rows = run[: count + 1]
            power = bk
            for j in range(1, count + 1):
                power = np.matmul(power, K, out=rows[j])
            np.copyto(bk, power)
            rows[0] = ssum
            np.cumsum(rows, axis=0, out=rows)
            ssum[...] = rows[count]
            rows[0] = sum_of_sums
            np.cumsum(rows, axis=0, out=rows)
            sum_of_sums[...] = rows[count]
            stop = int(np.searchsorted(ns, k0 + count, side="right"))
            chunk = ns[first:stop]
            grams = rows[chunk - k0]  # rows[j] = SS_{k0-1+j}
            grams += grams.conj().swapaxes(-1, -2)
            grams[..., diag, diag] += chunk[:, None, None]
            top = np.linalg.eigvalsh(grams)[..., -1].max(axis=1)
            np.maximum(best[first:stop], top, out=best[first:stop])
            first = stop
    return best.tolist()


def _dense_deviations(chain: FiniteChain, ns, maximizer: bool):
    """_deviations from the dense N x N grams.

    Works in the conjugated coordinates B = D^{1/2} P D^{-1/2}, where
    d = sqrt(mu) is a left and right eigenvector of B with eigenvalue 1.
    There n^2 M_n = n I + A + A^T with A = sum_{k<n} (n - k) B^k, which is
    the running sum of the running sums S_j = B + ... + B^j, j < n: every
    term is nonnegative, so nothing cancels. Subtracting
    (d^T (n^2 M_n) d + n^2) d d^T moves the constant direction to -n^2,
    below the rest of the spectrum, which is nonnegative; so the top
    eigenvalue belongs to sqrt(mu)-perp and is the only one computed.

    The grams of consecutive requested n are formed as one stack, with no
    more than tol.BLOCK_ENTRIES entries in the stack and its one temporary
    (a single gram excepted), and every entry takes the same elementwise
    operations as a gram formed alone, so the stacking moves no bit. g is
    the maximizing test function when maximizer is true, else None.
    """
    d = np.sqrt(chain.stationary)
    size = len(d)
    b1 = _conjugated(chain.transition, chain.stationary)
    bk = np.eye(size)
    spare = np.empty_like(bk)
    ssum = np.zeros_like(bk)  # S_k
    sum_of_sums = np.zeros_like(bk)  # S_1 + ... + S_k
    k = 0  # powers accumulated so far
    per = max(1, tol.BLOCK_ENTRIES // (2 * size * size))
    stack = np.empty((min(per, len(ns)), size, size))
    for first in range(0, len(ns), per):
        chunk = np.array(ns[first : first + per])
        grams = stack[: len(chunk)]
        for gram, n in zip(grams, chunk):
            while k < n - 1:
                k += 1
                np.matmul(bk, b1, out=spare)
                bk, spare = spare, bk
                ssum += bk
                sum_of_sums += ssum
            np.add(sum_of_sums, sum_of_sums.T, out=gram)
        grams.reshape(len(chunk), -1)[:, :: size + 1] += chunk[:, None]
        shift = np.vecdot(d @ grams, d) + chunk * chunk
        grams -= (shift[:, None] * d)[:, :, None] * d
        tops, vectors = [], []
        for gram in grams:
            w, vec, found, _, info = dsyevx(
                gram, compute_v=int(maximizer), range="I", il=size, iu=size
            )
            if info == 0 and found == 1:
                top, u = float(w[0]), (vec[:, 0] if maximizer else None)
            else:
                # dsyevx finds no eigenvalue (m = 0, info = 0) when the top one
                # is degenerate across the whole spectrum, as for I - 2 d d^T
                w, vec = np.linalg.eigh(gram)
                top, u = float(w[-1]), vec[:, -1]
            tops.append(top)
            vectors.append(u)
        for n, value, u in zip(chunk.tolist(), _tops_to_deltas(tops, chunk), vectors):
            yield n, value, u / d if maximizer else None


def _deviation_values(chain: FiniteChain, n_max: int) -> np.ndarray:
    """Delta_1, ..., Delta_{n_max}, bit for bit delta_curve's, without maximizers."""
    return np.array([value for _, value, _ in _deviations(chain, range(1, n_max + 1), False)])


def delta_exact(chain: FiniteChain, n: int) -> tuple[float, np.ndarray]:
    """Worst-case L2 deviation of the length-n empirical average.

    Returns (Delta_n, g) where g attains the supremum: mu g = 0 and
    ||g||_mu = 1, with the start drawn from mu.
    """
    _require_spectral(chain)
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    _, value, g = next(_deviations(chain, [n], True))
    return value, g


def _curve_ns(chain: FiniteChain, n_list) -> list[int]:
    """The sorted distinct n of n_list, refused when there are none or one is below 1."""
    _require_spectral(chain)
    ns = sorted({int(n) for n in n_list})
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
    if reps < 2:
        raise ValueError("reps must be >= 2: the standard error needs two replicates")


def _philox_key(seed: int, stream: int = 0) -> np.ndarray:
    """The Philox key (seed mod 2^64, stream) of every randomized routine.

    Any integer seed runs, and a seed in [0, 2^64) keys the stream of
    Philox(key=np.uint64(seed)). The key is a uint64 array because numpy
    casts a tuple of Python ints through float64.
    """
    return np.array([seed % (1 << 64), stream], dtype=np.uint64)


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
        if abs(g @ mu) > 1e-10:
            raise BadTestFunction("test function must have mu-average 0")
        if abs(np.sqrt(g * g @ mu) - 1.0) > 1e-10:
            raise BadTestFunction("test function must have unit mu-norm")
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
        BadTestFunction: g is not mean-zero with unit mu-norm (to 1e-10).
        ValueError: n < 1, or reps < 2.
    """
    return next(_monte_carlo(chain, [(n, g)], reps, seed))


def delta_bounds_audit(chain: FiniteChain, n_max: int) -> BoundAudit:
    """Check the deviation-vs-relaxation-time inequalities up to n_max.

    Verifies, against the exact evaluator, that for all 1 <= n <= n_max
    the deviation is at most sqrt(4 tau / n); that it stays above 1/132
    for every n <= tau/3; and that for every n with 2n <= n_max the
    window max over n <= k <= 2n is at least tau / (2n + 3 tau). Each
    inequality is reported once with its worst margin (and the n where
    that occurs). An infinite tau gives three skipped checks, never a raise.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gamma, tau = spectral_gap(chain)
    if not np.isfinite(tau):
        names = ("avg_dev_upper", "avg_dev_floor", "avg_dev_window_lower")
        return BoundAudit(tuple(skipped_check(n, "relaxation time infinite") for n in names))
    delta = _deviation_values(chain, n_max)
    ns = np.arange(1, n_max + 1)

    checks = []
    upper = np.sqrt(4.0 * tau / ns)
    worst = int(np.argmin(upper - delta))
    checks.append(
        make_check(f"avg_dev_upper[n={ns[worst]}]", delta[worst], upper[worst], "<=")
    )

    floor_ns = ns[ns <= tau / 3.0]
    if len(floor_ns) == 0:
        checks.append(skipped_check("avg_dev_floor", "no n <= tau/3"))
    else:
        vals = delta[: len(floor_ns)]
        worst = int(np.argmin(vals))
        checks.append(
            make_check(f"avg_dev_floor[n={floor_ns[worst]}]", vals[worst], 1.0 / 132.0, ">=")
        )

    if n_max < 2:
        checks.append(skipped_check("avg_dev_window_lower", "n_max < 2"))
    else:
        # lhs[n - 1] = max(delta[n - 1 : 2n]) from a sparse table: at step j,
        # span[i] = max(delta[i : i + 2^j]), and the n + 1 entries of window n
        # are covered by two such spans when 2^j <= n + 1 < 2^(j+1)
        wn = np.arange(1, n_max // 2 + 1)
        level = np.frexp(wn + 1)[1] - 1
        lhs = np.empty(len(wn))
        span = delta
        for j in range(1, int(level[-1]) + 1):
            half = 1 << (j - 1)
            span = np.maximum(span[:-half], span[half:])
            at = level == j
            lhs[at] = np.maximum(span[wn[at] - 1], span[2 * (wn[at] - half)])
        rhs = tau / (2.0 * wn + 3.0 * tau)
        worst = int(np.argmin(lhs - rhs))  # the first n of least margin
        checks.append(
            make_check(f"avg_dev_window_lower[n={wn[worst]}]", lhs[worst], rhs[worst], ">=")
        )
    return BoundAudit(tuple(checks))
