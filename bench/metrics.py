"""Names and units of every metric the benchmark reports.

End-to-end metrics come from untraced runs; per-layer metrics from
traced runs. ``selfcheck.py`` checks that BENCHMARK.json lists exactly
these.
"""

WORKLOADS = ("audit-small", "audit-large", "mc-curve", "scaling")

END_TO_END = {
    "wall_s": "s",         # median time to finish the job list, at reference host speed
    "setup_s": "s",        # median time from process start to the first job, likewise
    "peak_rss_mb": "MiB",  # peak resident memory of the workload process
}

_SELF = "s"
PER_LAYER = {
    **{f"{layer}.self_s": _SELF for layer in
       ("chains", "spectral", "empirical", "bounds", "families", "experiments", "cli")},
    "chains.build_chain.self_s": _SELF,
    "chains.build_chain.calls": "count",
    "chains.build_chain.solve_calls": "count",
    "chains.build_chain.refused": "count",
    "chains.transforms.self_s": _SELF,
    "spectral.weighted_singular_spectrum.self_s": _SELF,
    "spectral.weighted_singular_spectrum.calls": "count",
    "spectral.weighted_singular_spectrum.dense_n3": "count",
    "spectral.normal_gap.self_s": _SELF,
    "spectral.self_adjoint_gap.self_s": _SELF,
    "spectral.pseudo_spectral_gap.self_s": _SELF,
    "spectral.spectral_gap.self_s": _SELF,
    "empirical.delta_curve.self_s": _SELF,
    "empirical.delta_curve.powers": "count",
    "empirical.delta_exact.self_s": _SELF,
    "empirical.delta_monte_carlo.self_s": _SELF,
    "empirical.delta_monte_carlo.steps": "count",
    "empirical.delta_monte_carlo.steps_per_s": "1/s",
    "empirical.delta_bounds_audit.self_s": _SELF,
    "bounds.cheeger_exact.self_s": _SELF,
    "bounds.cheeger_exact.subsets": "count",
    "bounds.cheeger_search.self_s": _SELF,
    "bounds.cheeger_search.starts": "count",
    "bounds.path_bound.self_s": _SELF,
    "bounds.path_bound.pairs": "count",
    "bounds.mixing_time.self_s": _SELF,
    "bounds.inequality_audit.self_s": _SELF,
    "bounds.inequality_audit.checks": "count",
    "families.construct.self_s": _SELF,
    "families.closed_form.self_s": _SELF,
    "families.closed_form.frequencies": "count",
    "experiments.scan.self_s": _SELF,
    "experiments.random_steps_ensemble.self_s": _SELF,
    "experiments.render_report.self_s": _SELF,
    "experiments.render_report.bytes": "bytes",
    "experiments.render_report.digest_match": "count",
    "experiments.render_report.digest_mismatch": "count",
    "cli.main.self_s": _SELF,
    "jobs.refused": "count",           # typed refusals of valid inputs, per pass
    "process.cpu_s": "s",              # CPU time of one untraced pass
    "trace.overhead_frac": "fraction", # traced / untraced wall_s - 1, both speed-scaled
    "trace.unattributed_s": _SELF,     # traced pass time outside every span
}
