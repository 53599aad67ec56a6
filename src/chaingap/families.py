"""Constructors and closed-form shortcuts for the example chain families.

Families: jump walks on the discrete circle (circulant transition
matrices), local walks on d-dimensional tori, the doubling-with-noise
chain x -> 2x + {-1, 0, 1} mod N, and the three-move card shuffle on the
symmetric group. Circulant and torus chains are both walks on (Z/NZ)^d:
one constructor builds them, and ChainSpec.closed_form() gets their gaps
from the character sums, far past the dense-matrix limit. The doubling
chain maps each character to a multiple of another, so closed_form()
gets its gap from one small block per orbit of m -> 2m mod N; only the
card shuffle has no closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
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


def _character_gap(N: int, axes, hold: float = 0.0) -> tuple[float, float]:
    """(gap, tau) of the _abelian_chain walk from its character sums.

    lambda_m = hold + sum_j sum_{(a, p) in axes[j]} p e^{2 pi i m_j a / N}
    and gamma = min over nonzero m of |1 - lambda_m|. Needs no dense
    matrix, so it runs far beyond the explicit-chain limit. lambda_{-m} is
    the conjugate of lambda_m, so the first coordinate runs over 0..N//2
    only; frequencies are evaluated in blocks of about 2^22. An axis has N
    frequencies and the other axes N^(d-1) together; past DENSE_LIMIT**2
    either is refused before anything is allocated.
    """
    _require_entries(N ** max(1, len(axes) - 1), "character sums")
    m = np.arange(N)
    terms = []
    for steps in axes:
        t = np.zeros(N, dtype=complex)
        for a, p in steps:
            t += p * np.exp(2j * np.pi * ((m * a) % N) / N)  # exact reduction: small phase
        terms.append(t)
    tail = np.zeros(1, dtype=complex)  # the other axes' sums, row-major
    for t in terms[1:]:
        tail = np.add.outer(tail, t).ravel()
    first = hold + terms[0][: N // 2 + 1]
    rows_per_block = max(1, (1 << 22) // tail.size)
    gap, sigma_max = np.inf, 0.0
    for start in range(0, first.size, rows_per_block):
        lam = first[start : start + rows_per_block, None] + tail[None, :]
        vals = np.abs(np.subtract(1.0, lam, out=lam))
        del lam  # free the block before the next one is built
        sigma_max = max(sigma_max, float(vals.max()))
        if start == 0:
            vals[0, 0] = np.inf  # the trivial character m = 0
        gap = min(gap, float(vals.min()))
    return gap, relaxation_time(gap, sigma_max)


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
    about 2^22 entries at a time. The longest orbit has ord_N(2) states;
    past DENSE_LIMIT it is refused before anything is allocated, as is N
    past DENSE_LIMIT**2 (the labels are N-long arrays).
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
        per_batch = max(1, (1 << 21) // (p * p))
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


def card_chain(N: int) -> FiniteChain:
    """Three-move shuffle of an N-card deck, one state per permutation.

    With probability 1/3 each: do nothing, swap the top two cards, or
    move the bottom card to the top. States are deck orderings indexed
    by lexicographic (Lehmer-code) rank, top card first. Doubly
    stochastic since every move permutes the deck.
    """
    if not 3 <= N <= 7:
        raise TooLarge(f"deck size must be in [3, 7], got {N}")
    decks = list(permutations(range(N)))  # lexicographic == Lehmer rank order
    rank = {deck: i for i, deck in enumerate(decks)}
    size = len(decks)
    P = np.zeros((size, size))
    for deck in decks:
        i = rank[deck]
        P[i, i] += 1.0 / 3.0
        P[i, rank[(deck[1], deck[0]) + deck[2:]]] += 1.0 / 3.0
        P[i, rank[(deck[-1],) + deck[:-1]]] += 1.0 / 3.0
    return build_chain(P, stationary=np.full(size, 1.0 / size))


# ---------------------------------------------------------------------------
# Serializable family descriptions


def parse_prob(value) -> float:
    """A probability given as a number or a small exact expression.

    Strings may use rationals and square roots, e.g. "1/2", "1/sqrt(2)",
    "sqrt(2)/2", "1 - 1/sqrt(2)", so that irrational parameters are
    stated exactly and evaluated once to double precision.
    """
    if isinstance(value, (int, float)):
        return float(value)
    text = str(value).replace(" ", "")
    if not text:
        raise ValueError("empty probability expression")

    def term(expr: str) -> float:
        num, _, den = expr.partition("/")
        return _atom(num) / (_atom(den) if den else 1.0)

    def _atom(expr: str) -> float:
        if expr.startswith("sqrt(") and expr.endswith(")"):
            return math.sqrt(float(Fraction(expr[5:-1])))
        return float(Fraction(expr))

    # at most one top-level +/- between two terms, e.g. "1-1/sqrt(2)"
    for i in range(1, len(text)):
        if text[i] in "+-" and text[i - 1] not in "(+-*/eE":
            left, op, right = text[:i], text[i], text[i + 1 :]
            return term(left) + (1 if op == "+" else -1) * term(right)
    return term(text)


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
        out: dict = {"family": self.family}
        if self.family == "explicit":
            out["matrix"] = [list(row) for row in self.matrix]
        elif self.family == "circulant":
            out["N"] = self.N
            out["steps"] = [[a, p] for a, p in self.steps]
        elif self.family == "torus":
            out["N"] = self.N
            out["d"] = self.d
            out["probs"] = {
                "hold": self.probs.hold,
                "plus": list(self.probs.plus),
                "minus": list(self.probs.minus),
            }
        else:
            out["N"] = self.N
        return out

    def with_size(self, N: int) -> "ChainSpec":
        """Template instantiation: same family/parameters at another N."""
        if self.family == "explicit":
            raise ValueError("explicit chains have no size parameter")
        return ChainSpec(
            family=self.family,
            N=int(N),
            d=self.d,
            steps=self.steps,
            probs=self.probs,
        )

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
        """(gap, tau) from the characters of Z/NZ, or None for card and explicit chains.

        Circulant and torus walks from their character sums, the doubling
        chain from its blocks on the orbits of m -> 2m (_doubling_gap).
        The one closed-form route: scan, the CLI and the ensemble all call it.
        """
        if self.family == "circulant":
            return _character_gap(self.N, [_normalize_steps(self.N, self.steps)])
        if self.family == "torus":
            return _character_gap(self.N, _torus_axes(self.N, self.d, self.probs), self.probs.hold)
        if self.family == "cdg":
            return _doubling_gap(self.N)
        return None
