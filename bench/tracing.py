"""Spans around calls into chaingap's public functions, for the traced run.

Nothing here is active unless a ``Tracer`` is installed. Installing it
replaces every module binding of each listed function (``chaingap.spectral_gap``
and ``chaingap.bounds.spectral_gap`` alike) with a wrapper that records a
span and a few counts computed from the arguments and the result, so the
counts repeat exactly from run to run. Uninstalling puts the original
functions back.

A span is (name, start, end, parent, job). A span's self time is its
duration minus the durations of its direct children; summing self time
by name gives the per-function rows and by module prefix the per-layer
rows.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict


def _arg(bound, name, default=None):
    return bound.arguments.get(name, default)


def _size(bound, name="chain"):
    return _arg(bound, name).size


# (module, function, span name, counts(bound_args, result) -> {count: value})
# A function that a later version of the package no longer has is reported
# as absent, not as an error.
TARGETS = (
    ("chains", "build_chain", "chains.build_chain",
     lambda b, r: {"calls": 1, "solve_calls": int(_arg(b, "stationary") is None)}),
    ("chains", "adjoint", "chains.transforms", None),
    ("chains", "reversibilize", "chains.transforms", None),
    ("chains", "lazy", "chains.transforms", None),
    ("spectral", "weighted_singular_spectrum", "spectral.weighted_singular_spectrum",
     lambda b, r: {"calls": 1, "dense_n3": _size(b) ** 3}),
    ("spectral", "normal_gap", "spectral.normal_gap", None),
    ("spectral", "self_adjoint_gap", "spectral.self_adjoint_gap", None),
    ("spectral", "pseudo_spectral_gap", "spectral.pseudo_spectral_gap", None),
    ("spectral", "spectral_gap", "spectral.spectral_gap", None),
    ("empirical", "delta_curve", "empirical.delta_curve",
     lambda b, r: {"powers": max((e.n for e in r.entries), default=1) - 1}),
    ("empirical", "delta_exact", "empirical.delta_exact",
     lambda b, r: {"powers": int(_arg(b, "n")) - 1}),
    ("empirical", "delta_monte_carlo", "empirical.delta_monte_carlo",
     lambda b, r: {"steps": int(_arg(b, "reps")) * int(_arg(b, "n"))}),
    ("empirical", "delta_bounds_audit", "empirical.delta_bounds_audit", None),
    ("bounds", "cheeger_exact", "bounds.cheeger_exact",
     lambda b, r: {"subsets": 2 ** _size(b)}),
    ("bounds", "cheeger_search", "bounds.cheeger_search",
     lambda b, r: {"starts": _size(b) + max(int(_arg(b, "iters", 50)), 0)}),
    ("bounds", "path_bound", "bounds.path_bound",
     lambda b, r: {"pairs": _size(b) * (_size(b) - 1)}),
    ("bounds", "mixing_time", "bounds.mixing_time", None),
    ("bounds", "inequality_audit", "bounds.inequality_audit",
     lambda b, r: {"checks": len(r.checks)}),
    ("families", "circulant_chain", "families.construct", None),
    ("families", "torus_chain", "families.construct", None),
    ("families", "cdg_chain", "families.construct", None),
    ("families", "card_chain", "families.construct", None),
    ("families", "circulant_tau", "families.closed_form", None),
    ("families", "circulant_eigenvalues", "families.closed_form",
     lambda b, r: {"frequencies": len(r)}),
    ("families", "torus_gap_closed_form", "families.closed_form",
     lambda b, r: {"frequencies": (int(_arg(b, "N")) // 2 + 1) * int(_arg(b, "N"))
                   if int(_arg(b, "d")) == 2 else int(_arg(b, "N")) ** int(_arg(b, "d"))}),
    ("experiments", "scan", "experiments.scan", None),
    ("experiments", "random_steps_ensemble", "experiments.random_steps_ensemble", None),
    ("experiments", "render_report", "experiments.render_report",
     lambda b, r: {"bytes": len(r.encode("utf-8"))}),
    ("experiments", "emit_report", "experiments.render_report", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("chains", "spectral", "empirical", "bounds", "families", "experiments", "cli")


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.job = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, original, span_name, counter):
        signature = inspect.signature(original)
        from chaingap.errors import ChainError

        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append((span_name, 0.0, 0.0, parent, self.job))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except ChainError:
                self.counts[f"{span_name}.refused"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (span_name, start, end, parent, self.job)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = counter(bound, result)
                except (TypeError, AttributeError, KeyError):
                    counts = {}  # a changed signature or result loses the count, not the job
                for key, value in counts.items():
                    self.counts[f"{span_name}.{key}"] += value
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "chaingap" or name.startswith("chaingap."))]
        self.absent = []
        for module_name, func_name, span_name, counter in TARGETS:
            home = sys.modules.get(f"chaingap.{module_name}")
            original = getattr(home, func_name, None) if home else None
            if original is None:
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(original, span_name, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Self time summed by span name and by layer (module prefix)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            own = (end - start) - covered
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        return out
