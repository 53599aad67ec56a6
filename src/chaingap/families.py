"""Constructors and closed-form shortcuts for the example chain families.

Families: jump walks on the discrete circle (circulant transition
matrices), local walks on d-dimensional tori, the doubling-with-noise
chain x -> 2x + {-1, 0, 1} mod N, and the three-move card shuffle on the
symmetric group. Circulant and torus chains are normal, so their gaps
have closed forms in terms of the character sums; those shortcuts scale
far past the dense-matrix limit.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
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
    "circulant_tau",
    "torus_chain",
    "torus_gap_closed_form",
    "up_right_probs",
    "cdg_chain",
    "card_chain",
    "parse_prob",
]


def _dense_zeros(states: int) -> np.ndarray:
    """The states x states zero matrix, refused before allocation past the cap."""
    if states > tol.DENSE_LIMIT:
        raise TooLarge(f"{states} states exceeds dense limit {tol.DENSE_LIMIT}")
    return np.zeros((states, states))


# ---------------------------------------------------------------------------
# Circulant walks on Z/NZ


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
        if p <= 0:
            raise InvalidSteps(f"step probability must be positive, got {p}")
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
    steps = _normalize_steps(N, steps)
    P = _dense_zeros(N)
    x = np.arange(N)
    for a, p in steps:
        P[x, (x + a) % N] = p
    g = N
    for a, _ in steps:
        g = math.gcd(g, a)
    reversible = all(dict(steps).get((N - a) % N, 0.0) == p for a, p in steps)
    return build_chain(
        P,
        stationary=np.full(N, 1.0 / N),
        assume={"irreducible": g == 1, "reversible": reversible, "normal": True},
    )


def circulant_eigenvalues(N: int, steps) -> np.ndarray:
    """lambda_j = sum_r p_r exp(2 pi i j a_r / N) for j = 0..N-1."""
    steps = _normalize_steps(N, steps)
    j = np.arange(N)
    lam = np.zeros(N, dtype=complex)
    for a, p in steps:
        lam += p * np.exp(2j * np.pi * j * a / N)
    return lam


def circulant_tau(N: int, steps) -> float:
    """Relaxation time of the circulant walk in O(N k) arithmetic.

    tau = max over nonzero frequencies j of 1 / |1 - lambda_j|; infinite
    when some nonzero frequency puts |1 - lambda_j| at numerical zero
    (the walk is trapped in a proper subgroup).
    """
    moduli = np.abs(1.0 - circulant_eigenvalues(N, steps)[1:])
    return relaxation_time(float(moduli.min()), float(moduli.max()))


# ---------------------------------------------------------------------------
# Local walks on the torus (Z/NZ)^d


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
        if min(allp) < 0:
            raise ValueError("negative probability")
        if abs(sum(allp) - 1.0) > tol.ROW_SUM:
            raise ValueError(f"probabilities sum to {sum(allp)!r}")

    @property
    def d(self) -> int:
        return len(self.plus)

    def movable(self) -> bool:
        return all(p + m > 0 for p, m in zip(self.plus, self.minus))


def up_right_probs(alpha: float) -> TorusProbs:
    """d=2 walk stepping right with probability alpha, up with 1 - alpha."""
    return TorusProbs(hold=0.0, plus=(float(alpha), 1.0 - float(alpha)), minus=(0.0, 0.0))


def torus_chain(N: int, d: int, probs: TorusProbs) -> FiniteChain:
    """Explicit N^d-state walk taking +-e_i steps; row-major state order."""
    if N < 2 or d < 1:
        raise ValueError("need N >= 2 and d >= 1")
    if probs.d != d:
        raise ValueError(f"probs describe {probs.d} axes, chain has {d}")
    states = N**d
    P = _dense_zeros(states)
    if not probs.movable():
        warnings.warn("some axis has p(+i) + p(-i) = 0; the chain is not irreducible")

    idx = np.arange(states)
    coords = np.stack(np.unravel_index(idx, (N,) * d))
    if probs.hold > 0:
        P[idx, idx] += probs.hold
    for axis in range(d):
        for sign, p in ((1, probs.plus[axis]), (-1, probs.minus[axis])):
            if p == 0:
                continue
            shifted = coords.copy()
            shifted[axis] = (shifted[axis] + sign) % N
            target = np.ravel_multi_index(tuple(shifted), (N,) * d)
            P[idx, target] += p
    # mod-2 wrapping identifies +e_i and -e_i, so every axis is symmetric there
    reversible = N == 2 or probs.plus == probs.minus
    return build_chain(
        P,
        stationary=np.full(states, 1.0 / states),
        assume={
            "irreducible": probs.movable(),
            "reversible": reversible,
            "normal": True,
        },
    )


def torus_gap_closed_form(
    N: int, d: int, probs: TorusProbs
) -> tuple[float, tuple[int, ...]]:
    """Exact gap of the torus walk from its character sums; O(d N^d) work.

    gamma = min over nonzero frequency vectors m of |1 - lambda_m| with
    lambda_m = p0 + sum_j (p_j e^{2 pi i m_j / N} + p_{-j} e^{-2 pi i m_j / N}).
    Needs no dense matrix, so it runs far beyond the explicit-chain limit.
    Returns (gamma, argmin m) with lexicographic tie-breaking. For d = 2
    the scan covers only half the frequency grid (conjugate frequencies
    share |1 - lambda|).
    """
    gap, freq, _ = _torus_scan(N, d, probs)
    return gap, freq


def _torus_scan(N: int, d: int, probs: TorusProbs) -> tuple[float, tuple[int, ...], float]:
    """torus_gap_closed_form plus sigma_max, the largest |1 - lambda_m|.

    Frequencies are evaluated in blocks of about 2^22 at a time.
    """
    if N < 2 or d < 1:
        raise ValueError("need N >= 2 and d >= 1")
    if probs.d != d:
        raise ValueError(f"probs describe {probs.d} axes, chain has {d}")
    m = np.arange(N)
    unit = np.exp(2j * np.pi * m / N)
    axis_terms = [
        probs.plus[j] * unit + probs.minus[j] * np.conj(unit) for j in range(d)
    ]

    if d == 2:
        first_range = np.arange(N // 2 + 1)
    else:
        first_range = np.arange(N)

    best_val = np.inf
    best_freq: tuple[int, ...] = ()
    sigma_max = 0.0
    tail_shape = (N,) * (d - 1)
    tail_size = N ** (d - 1)
    rows_per_block = max(1, (1 << 22) // tail_size)
    tail = np.zeros(tail_shape, dtype=complex)
    for j in range(1, d):
        shape = [1] * (d - 1)
        shape[j - 1] = N
        tail = tail + axis_terms[j].reshape(shape)
    tail_flat = tail.reshape(-1)

    for start in range(0, len(first_range), rows_per_block):
        rows = first_range[start : start + rows_per_block]
        lam = (probs.hold + axis_terms[0][rows])[:, None] + tail_flat[None, :]
        vals = np.abs(1.0 - lam)
        sigma_max = max(sigma_max, float(vals.max()))
        if rows[0] == 0:
            vals[0, 0] = np.inf
        flat = int(np.argmin(vals))
        val = float(vals.flat[flat])
        if val < best_val:
            best_val = val
            r, c = divmod(flat, tail_size)
            best_freq = (int(rows[r]),) + tuple(
                int(x) for x in np.unravel_index(c, tail_shape)
            )
    return best_val, best_freq, sigma_max


# ---------------------------------------------------------------------------
# Doubling-with-noise chain on Z/NZ


def cdg_chain(N: int) -> FiniteChain:
    """The chain x -> 2x + e mod N with e uniform on {-1, 0, 1}.

    Requires odd N >= 3 (so that doubling is a bijection and the chain
    is doubly stochastic). Irreducible for every odd N: n steps reach a
    full interval of width 2^{n+1} - 1 around 2^n x.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {N}")
    P = _dense_zeros(N)
    x = np.arange(N)
    for e in (-1, 0, 1):
        P[x, (2 * x + e) % N] += 1.0 / 3.0
    return build_chain(P, stationary=np.full(N, 1.0 / N), assume={"irreducible": True})


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
        raise TooLarge(f"deck size must be in [3, 7], got {N} ({math.factorial(N)} states)")
    decks = list(permutations(range(N)))  # lexicographic == Lehmer rank order
    rank = {deck: i for i, deck in enumerate(decks)}
    size = len(decks)
    P = np.zeros((size, size))
    for deck in decks:
        i = rank[deck]
        P[i, i] += 1.0 / 3.0
        P[i, rank[(deck[1], deck[0]) + deck[2:]]] += 1.0 / 3.0
        P[i, rank[(deck[-1],) + deck[:-1]]] += 1.0 / 3.0
    labels = ["".join(str(c) for c in deck) for deck in decks] if N <= 5 else None
    return build_chain(
        P,
        labels,
        stationary=np.full(size, 1.0 / size),
        assume={"irreducible": True, "reversible": False, "normal": False},
    )


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
        explicit:    {"matrix": [[...], ...], "labels": optional}

    Probabilities may be numbers or exact strings (see parse_prob).
    """

    family: str
    N: int | None = None
    d: int | None = None
    steps: tuple[tuple[int, float], ...] | None = None
    probs: TorusProbs | None = None
    matrix: tuple | None = None
    labels: tuple[str, ...] | None = None

    FAMILIES = ("explicit", "circulant", "torus", "cdg", "cardshuffle")

    @staticmethod
    def from_json(payload: dict) -> "ChainSpec":
        family = payload.get("family")
        if family not in ChainSpec.FAMILIES:
            raise ValueError(f"unknown family {family!r}; expected one of {ChainSpec.FAMILIES}")
        if family == "explicit":
            matrix = payload.get("matrix")
            if matrix is None:
                raise ValueError("explicit family requires 'matrix'")
            labels = payload.get("labels")
            return ChainSpec(
                family=family,
                matrix=tuple(tuple(float(v) for v in row) for row in matrix),
                labels=tuple(labels) if labels else None,
            )
        N = payload.get("N")
        if N is None:
            raise ValueError(f"family {family!r} requires 'N'")
        if family == "circulant":
            raw = payload.get("steps")
            if not raw:
                raise ValueError("circulant family requires 'steps'")
            steps = tuple((int(a), parse_prob(p)) for a, p in raw)
            return ChainSpec(family=family, N=int(N), steps=steps)
        if family == "torus":
            raw = payload.get("probs")
            if raw is None:
                raise ValueError("torus family requires 'probs'")
            probs = TorusProbs(
                hold=parse_prob(raw.get("hold", 0.0)),
                plus=tuple(parse_prob(p) for p in raw["plus"]),
                minus=tuple(parse_prob(p) for p in raw["minus"]),
            )
            d = int(payload.get("d", probs.d))
            return ChainSpec(family=family, N=int(N), d=d, probs=probs)
        return ChainSpec(family=family, N=int(N))

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.family == "explicit":
            out["matrix"] = [list(row) for row in self.matrix]
            if self.labels:
                out["labels"] = list(self.labels)
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
            return build_chain(np.array(self.matrix), self.labels)
        if self.family == "circulant":
            return circulant_chain(self.N, self.steps)
        if self.family == "torus":
            return torus_chain(self.N, self.d, self.probs)
        if self.family == "cdg":
            return cdg_chain(self.N)
        return card_chain(self.N)

    def closed_form(self) -> tuple[float, float] | None:
        """(gap, tau) without a dense matrix, where the family admits one."""
        if self.family == "circulant":
            moduli = np.abs(1.0 - circulant_eigenvalues(self.N, self.steps)[1:])
            sigma_max = float(moduli.max())
            # 1/tau rather than the minimum modulus: the two can differ in
            # the last bit, and reports have always carried 1/tau.
            gap = 1.0 / relaxation_time(float(moduli.min()), sigma_max)
        elif self.family == "torus":
            gap, _, sigma_max = _torus_scan(self.N, self.d, self.probs)
        else:
            return None
        return gap, relaxation_time(gap, sigma_max)

    def closed_form_gap(self) -> float | None:
        """The gap of closed_form(), or None."""
        closed = self.closed_form()
        return None if closed is None else closed[0]
