"""Per-layer metrics computed from a traced run.

Counts come from the tracer's call counts and from observers on a few
layer entry points; times are self times (a function's duration minus
its traced children) summed over the layer, or, where the name says so,
the inclusive time of one entry point. The cli metrics come from a
separate ``-X importtime`` child (run.py).
"""

from __future__ import annotations

UNITS = {
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "angular.calls": "count",
    "angular.self_s": "s",
    "detmodel.pmf_calls": "count",
    "detmodel.scalar_calls": "count",
    "detmodel.pmf_bins": "count",
    "detmodel.detection_params_calls": "count",
    "detmodel.self_s": "s",
    "detmodel.ns_per_bin": "ns",
    "fidelity.optimize_calls": "count",
    "fidelity.threshold_scans": "count",
    "fidelity.scans_per_optimize": "count",
    "fidelity.self_s": "s",
    "fitkit.fits": "count",
    "fitkit.objective_evals": "count",
    "fitkit.evals_per_fit": "count",
    "fitkit.nm_iterations": "count",
    "fitkit.ms_per_objective": "ms",
    "fitkit.self_s": "s",
    "fitkit.converged_frac": "fraction",
    "mcsim.trials": "count",
    "mcsim.chunks": "count",
    "mcsim.self_s": "s",
    "mcsim.rate_equation.ns_per_trial": "ns",
    "ccd.frames": "count",
    "ccd.us_per_frame": "us",
    "ccd.synthesize_s": "s",
    "ccd.readout_s": "s",
    "ccd.correlation_s": "s",
    "ccd.threshold_train_s": "s",
    "ccd.format_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.gap_frac": "fraction",
}


def _pmf_bins(args, kwargs, result, duration, counters):
    counters["detmodel.pmf_bins"] += len(result[0]) + len(result[1])


def _simulate(args, kwargs, result, duration, counters):
    config = kwargs["config"] if "config" in kwargs else args[2]
    mode = config.mode.value
    counters["mcsim.trials"] += config.trials
    counters[f"mcsim.{mode}.trials"] += config.trials
    counters[f"mcsim.{mode}.s"] += duration


def _fit(args, kwargs, result, duration, counters):
    counters["fitkit.nm_iterations"] += result.iterations
    counters["fitkit.converged"] += bool(result.converged)


def add_observers(tracer) -> None:
    """Register the counter hooks; call before ``tracer.install``."""
    tracer.observers.update({
        "detmodel.pmf_arrays": _pmf_bins,
        "mcsim.simulate_histogram": _simulate,
        "fitkit.fit_histograms": _fit,
    })


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(tracer) -> dict:
    """Every per-layer metric except the cli and overhead ones."""
    calls, total, counters = tracer.calls, tracer.total_s, tracer.counters
    self_s = tracer.layer_self_s()
    layer_calls = tracer.layer_calls()
    optimize = calls["fidelity.optimize_at"]
    fits = calls["fitkit.fit_histograms"]
    evals = calls["fitkit._objective"]
    frames = calls["ccd.synthesize_frame"]
    values = {
        "specfun.calls": layer_calls["specfun"],
        "specfun.self_s": self_s["specfun"],
        "angular.calls": layer_calls["angular"],
        "angular.self_s": self_s["angular"],
        "detmodel.pmf_calls": calls["detmodel.pmf_arrays"],
        "detmodel.scalar_calls": calls["detmodel.p_dark"] + calls["detmodel.p_bright"],
        "detmodel.pmf_bins": counters["detmodel.pmf_bins"],
        "detmodel.detection_params_calls": calls["detmodel.detection_params"],
        "detmodel.self_s": self_s["detmodel"],
        # inclusive pmf_arrays time per tabulated bin (both states)
        "detmodel.ns_per_bin": 1e9 * _ratio(total["detmodel.pmf_arrays"],
                                            counters["detmodel.pmf_bins"]),
        "fidelity.optimize_calls": optimize,
        "fidelity.threshold_scans": calls["fidelity.best_threshold"],
        "fidelity.scans_per_optimize": _ratio(calls["fidelity.best_threshold"], optimize),
        "fidelity.self_s": self_s["fidelity"],
        "fitkit.fits": fits,
        "fitkit.objective_evals": evals,
        "fitkit.evals_per_fit": _ratio(evals, fits),
        "fitkit.nm_iterations": counters["fitkit.nm_iterations"],
        "fitkit.ms_per_objective": 1e3 * _ratio(total["fitkit._objective"], evals),
        "fitkit.self_s": self_s["fitkit"],
        "fitkit.converged_frac": _ratio(counters["fitkit.converged"], fits),
        "mcsim.trials": counters["mcsim.trials"],
        "mcsim.chunks": calls["mcsim._chunk_counts"],
        "mcsim.self_s": self_s["mcsim"],
        "ccd.frames": frames,
        # inclusive register-batch time per synthesized frame
        "ccd.us_per_frame": 1e6 * _ratio(total["ccd.simulate_register_batch"], frames),
        "ccd.synthesize_s": total["ccd.synthesize_frame"],
        "ccd.readout_s": total["ccd.read_register"],
        "ccd.correlation_s": total["ccd.conditional_correlations"],
        "ccd.threshold_train_s": total["ccd.equal_error_threshold"],
        "ccd.format_s": total["ccd.format_readouts_csv"],
        "trace.gap_frac": _ratio(tracer.self_s["job"], total["job"]),
    }
    # inclusive simulate_histogram time per trial, rate-equation sampler
    values["mcsim.rate_equation.ns_per_trial"] = 1e9 * _ratio(
        counters["mcsim.rate_equation.s"], counters["mcsim.rate_equation.trials"])
    return {name: float(value) for name, value in values.items()}
