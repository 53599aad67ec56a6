"""Command-line interface.

Subcommands: gap, delta, cheeger, path-bound, audit, scan, ensemble.
Chains come in as JSON chain-spec files (see families.ChainSpec);
results go to stdout and, with --out, to a file, both written by
experiments.render_report. gap, cheeger and path-bound report JSON
only; audit, delta, scan and ensemble print CSV and write --out in
--format (csv or json). The randomized commands (delta, cheeger,
ensemble) take --seed and are bit-reproducible. Sizes are capped by
tolerances.DENSE_LIMIT alone: a chain or closed form past it is refused
with TooLarge, except that gap reports closed_form_gap alone for a chain
too large to build whose closed form is not.

Exit codes: 0 on success; 1 when an audit check fails; 2 when the input
is refused (a bad spec, file or option, or a chain the computation does
not apply to), with one line "chaingap: <Type>: <message>" on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn

from .bounds import _require_iters, cheeger_exact, cheeger_search, inequality_audit, path_bound
from .chains import FiniteChain
from .empirical import (
    DeltaCurve, DeltaPoint, _curve_ns, _deviations, _monte_carlo, _require_reps,
    delta_bounds_audit, delta_curve,
)
from .errors import ChainError, TooLarge
from .experiments import emit_report, random_steps_ensemble, render_report, scan
from .families import ChainSpec
from .spectral import weighted_singular_spectrum
from . import tolerances as tol


def _load_spec(path: str) -> ChainSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ChainSpec.from_json(json.load(fh))


def _chain(args) -> tuple[ChainSpec, FiniteChain]:
    """The --spec file's spec and its built chain."""
    spec = _load_spec(args.spec)
    return spec, spec.build()


def _write(args, result, stdout_fmt: str) -> None:
    """Print the result as stdout_fmt and write --out as --format."""
    sys.stdout.write(render_report(result, stdout_fmt))
    if args.out:
        emit_report(result, args.out, args.format)


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def cmd_gap(args) -> int:
    """The dense spectrum's fields plus closed_form_gap where the family has
    one; a chain past the dense cap with a closed form reports that alone."""
    spec = _load_spec(args.spec)
    closed = spec.closed_form()
    try:
        chain = spec.build()
    except TooLarge:
        if closed is None:
            raise
        payload = {}
    else:
        payload = dict(vars(weighted_singular_spectrum(chain)))  # a copy of the spectrum's fields
    if closed is not None:
        payload["closed_form_gap"] = closed[0]
    _write(args, payload, "json")
    return 0


def cmd_delta(args) -> int:
    if args.trials:
        if args.seed is None:
            _usage("--trials draws trajectories; give an explicit --seed")
        _require_reps(args.trials)
    _, chain = _chain(args)
    ns = range(1, args.n_max + 1)
    if args.trials:
        curve = delta_curve(chain, ns)
        points = [(e.n, e.maximizer) for e in curve.entries]
        mc = _monte_carlo(chain, points, args.trials, args.seed)
        curve = DeltaCurve(entries=tuple(
            DeltaPoint(n=e.n, delta_exact=e.delta_exact, delta_mc=est, mc_stderr=se)
            for e, (est, se) in zip(curve.entries, mc)
        ))
    else:
        # the report has no maximizer column, so only the draws need one
        exact = _deviations(chain, _curve_ns(chain, ns), False)
        curve = DeltaCurve(entries=tuple(DeltaPoint(n, value) for n, value, _ in exact))
    _write(args, curve, "csv")
    return 0


def cmd_cheeger(args) -> int:
    _require_iters(args.trials)
    _, chain = _chain(args)
    if chain.size <= tol.CHEEGER_ENUM_LIMIT:
        result = cheeger_exact(chain)
    else:
        if args.seed is None:
            _usage(f"search beyond {tol.CHEEGER_ENUM_LIMIT} states is randomized; give --seed")
        result = cheeger_search(chain, iters=args.trials, seed=args.seed)
    _write(args, result, "json")
    return 0


def cmd_path_bound(args) -> int:
    _, chain = _chain(args)
    _write(args, path_bound(chain), "json")
    return 0


def cmd_audit(args) -> int:
    spec, chain = _chain(args)
    audit = inequality_audit(
        chain,
        eps=args.eps,
        k_max=args.k_max,
        group_walk=spec.family == "cardshuffle",
    )
    if args.n_max:
        audit = audit.merged(delta_bounds_audit(chain, args.n_max))
    _write(args, audit, "csv")
    return 0 if audit.all_pass else 1


def cmd_scan(args) -> int:
    rows = scan(_load_spec(args.spec), _parse_ints(args.n_list))
    _write(args, rows, "csv")
    return 0


def cmd_ensemble(args) -> int:
    if args.seed is None:
        _usage("ensemble sampling is randomized; give --seed")
    k = args.k
    if not 1 <= k <= args.n:
        _usage(f"--k must lie in 1..{args.n}: the steps are distinct residues mod --n")
    p = _parse_floats(args.p) if args.p else [1.0 / k] * k
    rows = random_steps_ensemble(
        N=args.n,
        k=k,
        p=p,
        trials=args.trials,
        L_grid=_parse_floats(args.l_grid),
        seed=args.seed,
    )
    _write(args, rows, "csv")
    return 0


def _usage(message: str) -> NoReturn:
    """Refuse an option combination the way argparse does: exit status 2."""
    print(f"chaingap: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaingap",
        description="Spectral gaps, relaxation times, and deviation bounds "
        "for finite Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the result to this file")
        if name in ("gap", "cheeger", "path-bound"):
            p.set_defaults(format="json")  # their only report form
        else:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="format of the --out file (default: %(default)s)")
        if name in ("delta", "cheeger", "ensemble"):
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed; required by anything randomized")
        return p

    p = add("gap", cmd_gap, "singular spectrum, gap, and relaxation time")
    p.add_argument("--spec", required=True, help="chain-spec JSON file")

    p = add("delta", cmd_delta, "exact deviation curve, optionally with Monte Carlo")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-max", type=int, required=True, help="evaluate n = 1..n_max")
    p.add_argument("--trials", type=int, default=0, help="Monte Carlo replicates per n")

    limit = tol.CHEEGER_ENUM_LIMIT
    p = add("cheeger", cmd_cheeger, f"bottleneck ratio (exact up to {limit} states)")
    p.add_argument("--spec", required=True)
    p.add_argument("--trials", type=int, default=50,
                   help=f"search restarts beyond {limit} states (default: %(default)s)")

    p = add("path-bound", cmd_path_bound, "canonical-path congestion bound")
    p.add_argument("--spec", required=True)

    p = add("audit", cmd_audit, "run every applicable inequality check")
    p.add_argument("--spec", required=True)
    p.add_argument("--eps", type=float, default=1.0 / 6.0, help="mixing-time accuracy")
    p.add_argument("--k-max", type=int, default=10, help="pseudo-gap truncation")
    p.add_argument("--n-max", type=int, default=0, help="also audit deviation bounds to n_max")

    p = add("scan", cmd_scan, "gamma/tau table for a family over a size grid")
    p.add_argument("--spec", required=True, help="family template JSON")
    p.add_argument("--n-list", required=True, help="comma-separated sizes, e.g. 4,8,16")

    p = add("ensemble", cmd_ensemble, "tail fractions of tau over random step sets")
    p.add_argument("--n", type=int, required=True, help="prime modulus")
    p.add_argument("--k", type=int, required=True, help="number of steps")
    p.add_argument("--p", help="comma-separated step probabilities (default uniform)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--l-grid", default="1,2,4,8", help="comma-separated L values")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ChainError, ValueError, OSError) as exc:
        print(f"chaingap: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
