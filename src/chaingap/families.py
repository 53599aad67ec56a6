"""Constructors and closed-form shortcuts for the example chain families.

Families: jump walks on the discrete circle (circulant transition
matrices), local walks on d-dimensional tori, the doubling-with-noise
chain x -> 2x + {-1, 0, 1} mod N, and the three-move card shuffle on the
symmetric group. Circulant and torus chains are both walks on (Z/NZ)^d:
one constructor builds them, and ChainSpec.closed_form() gets their gaps
from the character sums, far past the dense-matrix limit. The sums gather
from one table of N-th roots of unity and are reduced in blocks of 2^16
frequencies; the random-steps ensemble sends whole blocks of walks through
the same kernel, of which closed_form() is the batch of one. The doubling
chain maps each character to a multiple of another, so closed_form()
gets its gap from one small block per orbit of m -> 2m mod N. The card
shuffle is a walk on S_N: closed_form() gets its gap from one block per
irreducible representation, in Young's orthogonal form, up to 10 cards,
and card_chain (up to 7) stays as the dense oracle. Only explicit
chains have no closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import tolerances as tol
from .chains import FiniteChain, build_chain
from .errors import InvalidSteps, TooLarge
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
    is doubly stochastic, so mu is uniform, and normal.
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
    return build_chain(P, stationary=np.full(states, 1.0 / states))


def _character_gap(N: int, axes, hold: float = 0.0) -> list[tuple[float, float]]:
    """(gap, tau) of each walk in a batch of _abelian_chain walks, from their character sums.

    ``axes[j]`` is a pair (a, p) of arrays of shape (B, k_j): the residues
    and probabilities of axis j's steps in each of B walks that share N,
    the axis count and ``hold``. Walk b has
    lambda_m = hold + sum_j sum_r p[b, r] e^{2 pi i m_j a[b, r] / N}, each
    term gathered from one table of the N-th roots of unity at the exact
    residue (m_j a) mod N, and gamma = min over nonzero m of |1 - lambda_m|.
    Needs no dense matrix, so it runs far beyond the explicit-chain limit.
    lambda_{-m} is the conjugate of lambda_m, so the first coordinate runs
    over 0..N//2 only. The frequency grid is reduced in blocks of at most
    tol.BLOCK_ENTRIES entries, whole walks at a time while a walk fits, into
    two reused buffers; min and max are exact, so the blocks move no bit.
    An axis has N frequencies and the other axes N^(d-1) together; past
    DENSE_LIMIT**2 either is refused before anything is allocated.
    """
    _require_entries(N ** max(1, len(axes) - 1), "character sums")
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    terms = []
    for j, (a, p) in enumerate(axes):
        m = np.arange(N // 2 + 1 if j == 0 else N)
        t = np.zeros((a.shape[0], m.size), dtype=complex)
        for r in range(a.shape[1]):
            t += p[:, r, None] * roots[(m * a[:, r, None]) % N]
        terms.append(t)
    first = hold + terms[0]
    batch, rows = first.shape
    tail = np.zeros((batch, 1), dtype=complex)  # the other axes' sums, row-major
    for t in terms[1:]:
        tail = (tail[:, :, None] + t[:, None, :]).reshape(batch, -1)
    width = tail.shape[1]
    per_row = max(1, min(rows, tol.BLOCK_ENTRIES // width))
    per_walk = max(1, tol.BLOCK_ENTRIES // (rows * width)) if per_row == rows else 1
    lam = np.empty((min(per_walk, batch), per_row, width), dtype=complex)
    vals = np.empty(lam.shape)
    gap, sigma_max = np.full(batch, np.inf), np.zeros(batch)
    for b in range(0, batch, per_walk):
        walks = slice(b, b + per_walk)
        for r in range(0, rows, per_row):
            block = first[walks, r : r + per_row, None]
            walks_b, rows_b = block.shape[:2]
            lam_b, vals_b = lam[:walks_b, :rows_b], vals[:walks_b, :rows_b]
            np.add(block, tail[walks, None, :], out=lam_b)
            np.abs(np.subtract(1.0, lam_b, out=lam_b), out=vals_b)
            np.maximum(sigma_max[walks], vals_b.max(axis=(1, 2)), out=sigma_max[walks])
            if r == 0:
                vals_b[:, 0, 0] = np.inf  # the trivial character m = 0
            np.minimum(gap[walks], vals_b.min(axis=(1, 2)), out=gap[walks])
    return [(g, relaxation_time(g, s)) for g, s in zip(gap.tolist(), sigma_max.tolist())]


def _batch_of_one(steps) -> tuple[np.ndarray, np.ndarray]:
    """The (a, p) arrays of one walk's (a, p) steps, as _character_gap takes them."""
    return np.array([[a for a, _ in steps]]), np.array([[p for _, p in steps]])


def _normalize_steps(N: int, steps) -> list[tuple[int, float]]:
    if N < 2:
        raise InvalidSteps("modulus must be >= 2")
    out = []
    seen = set()
    for a, p in steps:
        a = int(a) % N
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
    if N < 2 or d < 1:
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
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {N}")


def cdg_chain(N: int) -> FiniteChain:
    """The chain x -> 2x + e mod N with e uniform on {-1, 0, 1}.

    Requires odd N >= 3 (so that doubling is a bijection and the chain
    is doubly stochastic). Irreducible for every odd N: n steps reach a
    full interval of width 2^{n+1} - 1 around 2^n x.
    """
    _require_odd_modulus(N)
    P = _dense_zeros(N)
    x = np.arange(N)
    for e in (-1, 0, 1):
        P[x, (2 * x + e) % N] += 1.0 / 3.0
    return build_chain(P, stationary=np.full(N, 1.0 / N))


def _doubling_gap(N: int) -> tuple[float, float]:
    """(gap, tau) of cdg_chain(N) from small blocks on the orbits of m -> 2m.

    On the characters chi_m(x) = e^{2 pi i m x / N} the chain acts as
    P chi_m = c_m chi_{2m}, with c_m = (1 + 2 cos(2 pi m / N)) / 3 the
    (real) character of the noise law. So I - P is unitarily similar to
    the direct sum over the orbits m, 2m, ..., 2^{r-1} m of the real
    r x r blocks I - K, K the cyclic shift weighted by c along the orbit,
    and gamma is the least sigma_min(I - K) over the nonzero orbits.
    c_m is computed from min(m, N - m), so c_{-m} = c_m bitwise: the
    orbit of -m has the same block and is skipped, and an orbit that
    holds -m = 2^p m has weights of period p, so the half-turn
    e_j -> e_{j+p} splits its block into two p x p cyclic blocks whose
    wrap weight is +c and -c. Blocks of one size go to the SVD together,
    at most tol.BLOCK_ENTRIES entries at a time, twice that when every orbit
    splits (the blocks of one orbit excepted). The longest orbit has
    ord_N(2) states; past DENSE_LIMIT it is refused before anything is
    allocated, as is N past DENSE_LIMIT**2 (the labels are N-long arrays).
    """
    _require_odd_modulus(N)
    _require_entries(N, "frequencies")
    order, x = 1, 2  # order = ord_N(2)
    while x != 1:
        if order == tol.DENSE_LIMIT:
            raise TooLarge(f"ord_{N}(2) exceeds dense limit {tol.DENSE_LIMIT}")
        order, x = order + 1, 2 * x % N
    # label m by the least min(x, N - x) over its orbit, by pointer jumping,
    # so that the orbits of m and -m share one label; label 0 is m = 0 alone
    m = np.arange(N)
    label, jump, span = np.minimum(m, N - m), 2 * m % N, 1
    while span < order:
        label = np.minimum(label, label[jump])
        jump, span = jump[jump], 2 * span
    reps, counts = np.unique(label, return_counts=True)
    reps, periods = reps[1:], counts[1:] // 2  # the orbits of +-m hold 2p states
    gap, sigma_max = np.inf, 0.0
    for p in np.unique(periods).tolist():
        starts, diag = reps[periods == p], np.arange(p)
        per_batch = max(1, tol.BLOCK_ENTRIES // (p * p))
        for lo in range(0, starts.size, per_batch):
            orbit = np.empty((min(per_batch, starts.size - lo), p + 1), dtype=np.int64)
            orbit[:, 0] = starts[lo : lo + per_batch]
            for j in range(1, p + 1):
                orbit[:, j] = 2 * orbit[:, j - 1] % N
            half_turn = orbit[:, p] != orbit[:, 0]  # 2^p m = -m
            phase = np.minimum(orbit[:, :p], N - orbit[:, :p])
            c = (1.0 + 2.0 * np.cos(2.0 * np.pi * phase / N)) / 3.0
            c = np.concatenate([c, c[half_turn]])
            c[orbit.shape[0] :, -1] *= -1.0  # the wrap weight of the odd half
            blocks = np.zeros((c.shape[0], p, p))
            blocks[:, diag, diag] = 1.0
            blocks[:, (diag + 1) % p, diag] -= c  # K e_j = c_j e_{j+1}
            values = np.linalg.svd(blocks, compute_uv=False)
            gap = min(gap, float(values.min()))
            sigma_max = max(sigma_max, float(values.max()))
    return gap, relaxation_time(gap, sigma_max)


# ---------------------------------------------------------------------------
# Card shuffle on S_N


def _require_deck(N: int) -> int:
    """N!, the orderings of an N-card deck. Refuses fewer than 3 cards with
    ValueError, and more than DENSE_LIMIT**2 orderings through
    _require_entries; the product stops at the first k! past the cap, so a
    huge deck is refused at once."""
    if N < 3:
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
    decks are listed.
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
    return build_chain(P, stationary=np.full(size, 1.0 / size))


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
    """Yield (lambda, I - K_lambda) for each partition lambda of N.

    A move permutes positions, deck -> deck o pi, with pi the identity,
    t_0 (swap the top two cards) or c = t_{N-2} o ... o t_0 (bottom card
    to the top), each with probability 1/3; K_lambda = (I + rho(t_0) +
    rho(c)) / 3. rho(c) is formed by applying each rho(t_k) in turn, with
    no dense d x d product.
    """
    for shape, factors in _young_orthogonal_form(N):
        eye = np.eye(factors[0][0].size)
        swap = cycle = _apply_factor(factors[0], eye)
        for factor in factors[1:]:
            cycle = _apply_factor(factor, cycle)
        yield shape, eye - (eye + swap + cycle) / 3.0


def _card_gap(N: int) -> tuple[float, float]:
    """(gap, tau) of card_chain(N) from one block per irreducible representation of S_N.

    The walk is invariant under the right action of S_N and mu is uniform,
    so I - P is unitarily equivalent to the direct sum of the blocks
    I - K_lambda of _card_blocks, each repeated d_lambda times. gamma is
    the least sigma_min(I - K_lambda) over lambda != (N), whose 1 x 1
    block is the zero singular value, and sigma_max is taken over every
    block. The blocks hold sum d_lambda^2 = N! entries together, so a deck
    with N! past DENSE_LIMIT**2 (N > 10) is refused before any array.
    """
    _require_deck(N)
    gap, sigma_max = np.inf, 0.0
    for shape, block in _card_blocks(N):
        values = np.linalg.svd(block, compute_uv=False)
        sigma_max = max(sigma_max, float(values.max()))
        if len(shape) > 1:
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
    keys are ignored; a malformed field is refused with a ValueError.
    """

    family: str
    N: int | None = None
    d: int | None = None
    steps: tuple[tuple[int, float], ...] | None = None
    probs: TorusProbs | None = None
    matrix: tuple | None = None

    FAMILIES = ("explicit", "circulant", "torus", "cdg", "cardshuffle")

    @staticmethod
    def from_json(payload: dict) -> "ChainSpec":
        if not isinstance(payload, dict):
            raise ValueError("a chain spec must be a JSON object")
        family = payload.get("family")
        if family not in ChainSpec.FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {ChainSpec.FAMILIES}")
        if family == "explicit":
            rows = _array(payload.get("matrix"), "explicit 'matrix'")
            matrix = tuple(
                tuple(_real(v, "a matrix entry") for v in _array(row, "a matrix row"))
                for row in rows
            )
            return ChainSpec(family=family, matrix=matrix)
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
        return replace(self, N=int(N))

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
