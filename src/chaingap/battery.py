"""The reference battery of chains used by the audits and the test suite.

A fixed, seeded collection spanning the interesting structure classes:
two-state flip, uniform chains, symmetric / drifting / deterministic
circle walks with their half-lazy variants, small torus walks, the
doubling chain, the card shuffle, and a block of dense random chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import FiniteChain, build_chain, lazy
from .families import card_chain, cdg_chain, circulant_chain, torus_chain, up_right_probs

__all__ = ["BatteryChain", "reference_battery"]

RANDOM_CHAIN_SEED = 0x8812
CIRCLE_SIZES = (3, 4, 8, 16)


@dataclass(frozen=True)
class BatteryChain:
    name: str
    chain: FiniteChain
    group_walk: bool = False  # walk on a group, for the doubling-bound report


def flip_chain() -> FiniteChain:
    return build_chain([[0.0, 1.0], [1.0, 0.0]])


def uniform_chain(n: int) -> FiniteChain:
    """All rows equal to the uniform law: i.i.d. samples in one step."""
    return build_chain(np.full((n, n), 1.0 / n))


def _random_dense_chain(size: int, rng: np.random.Generator) -> FiniteChain:
    """Strictly positive rows (hence irreducible and aperiodic)."""
    m = rng.uniform(0.05, 1.0, size=(size, size))
    return build_chain(m / m.sum(axis=1, keepdims=True))


def reference_battery(n_random: int = 20, random_size: int = 8) -> list[BatteryChain]:
    out = [
        BatteryChain("flip", flip_chain()),
        BatteryChain("uniform-2", uniform_chain(2)),
        BatteryChain("uniform-5", uniform_chain(5)),
    ]
    for n in CIRCLE_SIZES:
        walks = {
            "sym": circulant_chain(n, [(1, 0.5), (-1, 0.5)]),
            "drift": circulant_chain(n, [(0, 0.5), (1, 0.5)]),
            "shift": circulant_chain(n, [(1, 1.0)]),
        }
        for kind, chain in walks.items():
            out.append(BatteryChain(f"circle-{kind}-{n}", chain))
            out.append(BatteryChain(f"circle-{kind}-{n}-lazy", lazy(chain, 0.5)))
    for n in (2, 4):
        out.append(BatteryChain(f"torus-{n}", torus_chain(n, 2, up_right_probs(0.5))))
    for n in (5, 11):
        out.append(BatteryChain(f"doubling-{n}", cdg_chain(n)))
    for n in (3, 4):
        out.append(BatteryChain(f"card-{n}", card_chain(n), group_walk=True))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(RANDOM_CHAIN_SEED)))
    for i in range(n_random):
        out.append(BatteryChain(f"random-{i}", _random_dense_chain(random_size, rng)))
    return out
