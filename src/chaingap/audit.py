"""Structured pass/fail records for inequality checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tolerances as tol

__all__ = ["BoundCheck", "BoundAudit", "make_check", "skipped_check"]


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality: ``lhs relation rhs`` with slack margin.

    ``margin`` is how far the inequality holds (negative means violated);
    a check passes when margin >= -AUDIT_MARGIN. Gated checks that did
    not apply are recorded with ``applicable=False`` rather than dropped.
    """

    name: str
    lhs: float
    rhs: float
    relation: str  # "<=" or ">="
    margin: float
    applicable: bool
    passed: bool


def make_check(name: str, lhs: float, rhs: float, relation: str) -> BoundCheck:
    if relation == "<=":
        margin = rhs - lhs
    elif relation == ">=":
        margin = lhs - rhs
    else:
        raise ValueError(f"relation must be '<=' or '>=', got {relation!r}")
    return BoundCheck(
        name=name,
        lhs=float(lhs),
        rhs=float(rhs),
        relation=relation,
        margin=float(margin),
        applicable=True,
        passed=bool(margin >= -tol.AUDIT_MARGIN),
    )


def skipped_check(name: str, reason: str) -> BoundCheck:
    return BoundCheck(
        name=f"{name} [skipped: {reason}]",
        lhs=math.nan,
        rhs=math.nan,
        relation="<=",
        margin=math.nan,
        applicable=False,
        passed=True,
    )


@dataclass(frozen=True)
class BoundAudit:
    checks: tuple[BoundCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def merged(self, other: "BoundAudit") -> "BoundAudit":
        return BoundAudit(self.checks + other.checks)

    def to_table(self) -> str:
        """Human-readable fixed-width table, one line per check."""
        lines = [
            f"{'check':44s} {'lhs':>13s} {'rel':3s} {'rhs':>13s} "
            f"{'margin':>10s} {'status':6s}"
        ]
        for c in self.checks:
            if not c.applicable:
                lines.append(f"{c.name:44s} {'-':>13s} {'-':3s} {'-':>13s} {'-':>10s} n/a")
                continue
            status = "ok" if c.passed else "FAIL"
            lines.append(
                f"{c.name:44s} {c.lhs:13.6g} {c.relation:3s} {c.rhs:13.6g} "
                f"{c.margin:10.3g} {status:6s}"
            )
        return "\n".join(lines)
