#!/usr/bin/env python3
"""Reproduce the relaxation-time scaling tables at desk scale.

Four experiments, each emitting a CSV into --out-dir and printing a fit:

  circle   lazy-right walk on Z/NZ: tau = 1/sin(pi/N), slope ~ 1
  torus    up/right walk on (Z/NZ)^2: slope ~ 2 for drift 1/2,
           slope ~ 4/3 for drift 1/sqrt(2) (closed-form scan, N up to 1024;
           each size forms only the frequency rows near m_1 = 0 that can
           hold the gap)
  doubling x -> 2x + {-1,0,1} mod prime N: tau/ln N roughly constant
           (closed-form scan from banded eigensolves of the blocks on the
           orbits of m -> 2m: 4099 has two blocks of 2049 states, about
           0.2 s; the Mersenne primes 8191 and 131071 blocks of 13 and 17)
  card     three-move shuffle on S_N: tau <= 41 N^3, cubic slope fitted
           on N = 3..6 (closed-form scan from one block per irreducible
           representation of S_N, N = 3..10; N = 10 takes about 0.75 s)
"""

import argparse
import math
import os
import sys

import chaingap as cg


def run_circle(out_dir):
    template = cg.ChainSpec.from_json(
        {"family": "circulant", "N": 4, "steps": [[0, 0.5], [1, 0.5]]}
    )
    rows = cg.scan(template, [8, 16, 32, 64, 128, 256, 512, 1024])
    fit = cg.fit_scaling(rows)
    cg.emit_report(rows, os.path.join(out_dir, "circle_lazy_right.csv"))
    print(f"circle lazy-right: slope {fit.slope:.4f} (expected ~1), r2 {fit.r_squared:.6f}")


def run_torus(out_dir):
    sizes = [64, 128, 256, 512, 1024]
    for label, alpha in (("half", 0.5), ("irr", 1.0 / math.sqrt(2.0))):
        template = cg.ChainSpec(family="torus", N=4, d=2, probs=cg.up_right_probs(alpha))
        rows = cg.scan(template, sizes)
        fit = cg.fit_scaling(rows)
        cg.emit_report(rows, os.path.join(out_dir, f"torus_{label}.csv"))
        expect = "2" if label == "half" else "4/3"
        print(f"torus drift={label}: slope {fit.slope:.4f} (expected ~{expect})")


def run_doubling(out_dir):
    primes = [101, 211, 401, 809, 1601, 4099, 8191, 131071]
    rows = cg.scan(cg.ChainSpec(family="cdg", N=3), primes)
    cg.emit_report(rows, os.path.join(out_dir, "doubling.csv"))
    ratios = [r.tau / math.log(r.N) for r in rows]
    print(
        f"doubling chain: tau/ln N in [{min(ratios):.3f}, {max(ratios):.3f}], "
        f"spread {max(ratios) / min(ratios):.3f} (expected <= 3)"
    )


def run_card(out_dir):
    rows = cg.scan(cg.ChainSpec(family="cardshuffle", N=3), range(3, 11))
    for r in rows:
        ok = "ok" if r.tau <= 41 * r.N**3 else "VIOLATED"
        print(f"card N={r.N}: tau {r.tau:.2f} <= 41N^3 = {41 * r.N ** 3} {ok}")
    fit = cg.fit_scaling(rows[:4])
    cg.emit_report(rows, os.path.join(out_dir, "card.csv"))
    print(f"card shuffle: slope {fit.slope:.4f} (expected ~3)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument(
        "--only", choices=("circle", "torus", "doubling", "card"), default=None
    )
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.only in (None, "circle"):
        run_circle(args.out_dir)
    if args.only in (None, "torus"):
        run_torus(args.out_dir)
    if args.only in (None, "doubling"):
        run_doubling(args.out_dir)
    if args.only in (None, "card"):
        run_card(args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
