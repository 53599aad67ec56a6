#!/usr/bin/env python3
"""Run every inequality check on the whole reference battery.

For each chain: the two-sided bound audit (reversibilizations, mixing
time, Cheeger, paths, pseudo-gap) and the empirical-average deviation
bounds up to ceil(horizon * tau). Prints one line per chain with the
worst margin, writes a JSON report, and exits nonzero if any applicable
check fails.
"""

import argparse
import math
import sys

import chaingap as cg


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=1.0 / 6.0)
    parser.add_argument("--k-max", type=int, default=10)
    parser.add_argument("--horizon", type=float, default=50.0,
                        help="deviation bounds checked up to ceil(horizon * tau)")
    parser.add_argument("--out", default="battery_audit.json")
    args = parser.parse_args(argv)

    report = {}
    all_ok = True
    for item in cg.reference_battery():
        audit = cg.inequality_audit(
            item.chain, eps=args.eps, k_max=args.k_max, group_walk=item.group_walk
        )
        _, tau = cg.spectral_gap(item.chain)
        if math.isfinite(tau):
            audit = audit.merged(
                cg.delta_bounds_audit(item.chain, math.ceil(args.horizon * tau))
            )
        margins = [c.margin for c in audit.checks if c.applicable]
        status = "ok" if audit.all_pass else "FAIL"
        print(
            f"{item.name:24s} tau={tau:10.3f} checks={len(audit.checks):2d} "
            f"worst margin={min(margins):10.3g} {status}"
        )
        report[item.name] = audit
        all_ok &= audit.all_pass

    cg.emit_report(report, args.out, "json")
    print(f"report written to {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
