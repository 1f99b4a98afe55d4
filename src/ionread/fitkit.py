"""Maximum-likelihood recovery of detection parameters from histograms.

Given dark-prepared and bright-prepared count histograms of one species
at a known detection time, the fitter recovers the collection efficiency
eta, the saturation s, and the combined polarization impurity. The two
impure fractions enter the leak rate through one weighted sum, so only a
single combined parameter is fitted and split evenly between them. An
optional state-independent Poisson background with mean lambda_bg can be
convolved into both model distributions.

The loss is the joint multinomial negative log-likelihood of both
histograms under the closed-form count distributions. Optimization is a
deterministic Nelder-Mead simplex over log-transformed parameters from a
fixed multi-start grid, followed by a tight polish of the best start.
The result is flagged non-converged when the optimum sits on a parameter
bound or when near-optimal starts disagree (the classic symptom of an
unidentifiable direction, e.g. fitting from a dark histogram alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import Scheme
from .detmodel import (
    DetectionConfig,
    IonSpecies,
    PhotonHistogram,
    count_pmfs,
    detection_params,
    histogram_cutoff,
    pmf_arrays,
)
from .errors import DomainError

_LOG_BOUNDS = {
    "eta": (math.log(1e-9), 0.0),
    "s": (math.log(1e-9), math.log(1e4)),
    "p_impure": (math.log(1e-12), math.log(0.9)),
    "lambda_bg": (math.log(1e-9), math.log(100.0)),
}
_MIN_COUNTS = 100


@dataclass(frozen=True)
class FitResult:
    eta: float
    s: float
    p_impure: float
    lambda_bg: float | None
    neg_log_likelihood: float
    converged: bool
    iterations: int


def _counts(hist: PhotonHistogram, name: str) -> np.ndarray:
    values = np.asarray(hist.values, dtype=np.float64)
    total = values.sum()
    if total <= 0:
        raise DomainError(f"{name} histogram has no counts; the fit is degenerate")
    # raw counts need enough statistics; a normalized frequency vector
    # (total 1) has had its count information erased and is accepted as is
    if abs(total - 1.0) > 1e-6 and total < _MIN_COUNTS:
        raise DomainError(
            f"{name} histogram holds {total:g} counts, fewer than the {_MIN_COUNTS} required"
        )
    return values


def _background_pmf(lambda_bg: float) -> np.ndarray:
    # a bright ion that cannot leak counts Poisson photons
    counts = np.arange(histogram_cutoff(lambda_bg) + 1)
    return count_pmfs(counts, lambda_bg, 0.0, 0.0)[1]


def model_distributions(
    species: IonSpecies,
    tau_d: float,
    eta: float,
    s: float,
    p_impure: float,
    lambda_bg: float | None = None,
    n_top: int | None = None,
    scheme: Scheme = Scheme.P32,
):
    """Dark and bright model pmfs on 0..n_top for one parameter point."""
    config = DetectionConfig(
        scheme=scheme,
        s=s,
        delta=0.0,
        tau_d=tau_d,
        eta=eta,
        p_pi=p_impure / 2.0,
        p_minus=p_impure / 2.0,
    )
    leak = detection_params(species, config)
    cutoff = histogram_cutoff(leak.lambda0 + (lambda_bg or 0.0))
    top = max(n_top if n_top is not None else 0, cutoff)
    dark, bright = pmf_arrays(leak, eta, top)
    if lambda_bg is not None and lambda_bg > 0.0:
        bg = _background_pmf(lambda_bg)
        dark = np.convolve(dark, bg)[: top + 1]
        bright = np.convolve(bright, bg)[: top + 1]
    return dark, bright


def _nll(counts: np.ndarray | None, pmf: np.ndarray) -> float:
    if counts is None:
        return 0.0
    p = np.clip(pmf[: len(counts)], 1e-300, None)
    return float(-(counts * np.log(p)).sum())


def _objective(x, names, fixed, species, tau_d, dark_c, bright_c, n_top, scheme):
    params = dict(fixed)
    for name, xi in zip(names, x):
        lo, hi = _LOG_BOUNDS[name]
        if not (lo <= xi <= hi) or not math.isfinite(xi):
            return math.inf
        params[name] = math.exp(xi)
    try:
        dark_m, bright_m = model_distributions(
            species,
            tau_d,
            params["eta"],
            params["s"],
            params["p_impure"],
            params.get("lambda_bg"),
            n_top=n_top,
            scheme=scheme,
        )
    except DomainError:
        return math.inf
    return _nll(dark_c, dark_m) + _nll(bright_c, bright_m)


def _start_grid(species, tau_d, bright_c, fit_background, scheme):
    if bright_c is not None:
        total = bright_c.sum()
        lam_est = max(float((np.arange(len(bright_c)) * bright_c).sum() / total), 0.5)
    else:
        lam_est = 5.0
    gamma = species.gamma_p32 if scheme is Scheme.P32 else species.gamma_p12
    starts = []
    for s0 in (0.05, 0.3, 2.0):
        eta_center = lam_est * (1.0 + s0) / (s0 * (gamma / 2.0) * tau_d)
        for mult in (0.5, 1.0, 2.0):
            eta0 = min(max(eta_center * mult, 1e-8), 1.0)
            for p0 in (1e-4, 1e-3, 1e-2):
                start = {"eta": eta0, "s": s0, "p_impure": p0}
                if fit_background:
                    start["lambda_bg"] = 0.2
                starts.append(start)
    return starts


def fit_histograms(
    dark_hist: PhotonHistogram,
    bright_hist: PhotonHistogram | None,
    species: IonSpecies,
    tau_d: float,
    fit_background: bool = False,
    scheme: Scheme = Scheme.P32,
) -> FitResult:
    """Joint maximum-likelihood fit of dark and bright histograms.

    Histograms may hold raw counts (at least 100 in total per histogram)
    or normalized frequencies; the estimates are identical either way,
    only the reported likelihood rescales. bright_hist may be None to
    attempt a dark-only fit; the polarization impurity is then
    completely unconstrained, so such fits report converged=False. An
    all-zero histogram is rejected outright.
    """
    # imported here: scipy.optimize takes ~0.4 s to import and only fits use it
    from scipy.optimize import minimize

    if not tau_d > 0:
        raise DomainError(f"detection time must be > 0, got {tau_d}")
    scheme = Scheme(scheme)
    dark_c = _counts(dark_hist, "dark")
    bright_c = _counts(bright_hist, "bright") if bright_hist is not None else None
    n_top = max(len(dark_c), 0 if bright_c is None else len(bright_c)) - 1

    names = ["eta", "s", "p_impure"] + (["lambda_bg"] if fit_background else [])
    fixed = {} if fit_background else {"lambda_bg": None}
    args = (names, fixed, species, tau_d, dark_c, bright_c, n_top, scheme)

    # fatol is absolute while the NLL scales with the histogram weight, so
    # tie both stopping floors to the total weight (counts or frequencies)
    weight = float(dark_c.sum() + (0.0 if bright_c is None else bright_c.sum()))
    polish_fatol = min(max(1e-11 * weight, 1e-12), 1e-4)

    results = []
    iterations = 0
    for start in _start_grid(species, tau_d, bright_c, fit_background, scheme):
        x0 = np.array([math.log(start[name]) for name in names])
        res = minimize(
            _objective,
            x0,
            args=args,
            method="Nelder-Mead",
            options={"xatol": 1e-5, "fatol": 100.0 * polish_fatol, "maxiter": 600},
        )
        iterations += int(res.nit)
        results.append(res)

    best_idx = min(range(len(results)), key=lambda i: (results[i].fun, i))
    polish = minimize(
        _objective,
        results[best_idx].x,
        args=args,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": polish_fatol, "maxiter": 4000},
    )
    iterations += int(polish.nit)
    best_x = polish.x
    best_fun = float(polish.fun)

    # identifiability: starts that tie the optimum must land on the same
    # parameters; a flat direction leaves them scattered over decades
    agree = True
    for res in results:
        if res.fun <= best_fun + 1e-6 * max(abs(best_fun), 1.0):
            for xi, xb in zip(res.x, best_x):
                if abs(math.exp(xi) - math.exp(xb)) > 0.5 * max(abs(math.exp(xb)), 1e-12):
                    agree = False
    on_bound = any(
        min(xi - _LOG_BOUNDS[name][0], _LOG_BOUNDS[name][1] - xi) < 1e-3
        for name, xi in zip(names, best_x)
    )
    converged = bool(polish.success) and agree and not on_bound and math.isfinite(best_fun)
    if bright_c is None:
        converged = False

    params = {name: math.exp(xi) for name, xi in zip(names, best_x)}
    return FitResult(
        eta=params["eta"],
        s=params["s"],
        p_impure=params["p_impure"],
        lambda_bg=params.get("lambda_bg") if fit_background else None,
        neg_log_likelihood=best_fun,
        converged=converged,
        iterations=iterations,
    )


def format_fit_result(result: FitResult) -> str:
    """Structured key: value text block."""
    lines = [
        "eta: %.9g" % result.eta,
        "s: %.9g" % result.s,
        "p_impure: %.9g" % result.p_impure,
        "lambda_bg: %s" % ("none" if result.lambda_bg is None else "%.9g" % result.lambda_bg),
        "neg_log_likelihood: %.9g" % result.neg_log_likelihood,
        "converged: %s" % ("true" if result.converged else "false"),
        "iterations: %d" % result.iterations,
    ]
    return "\n".join(lines) + "\n"


def model_vs_data_rows(
    result: FitResult,
    dark_hist: PhotonHistogram,
    bright_hist: PhotonHistogram | None,
    species: IonSpecies,
    tau_d: float,
    scheme: Scheme = Scheme.P32,
):
    """Per-bin data counts next to the fitted model's expected counts."""
    dark_c = np.asarray(dark_hist.values, dtype=np.float64)
    bright_c = (
        np.asarray(bright_hist.values, dtype=np.float64) if bright_hist is not None else None
    )
    n_top = max(len(dark_c), 0 if bright_c is None else len(bright_c)) - 1
    dark_m, bright_m = model_distributions(
        species,
        tau_d,
        result.eta,
        result.s,
        result.p_impure,
        result.lambda_bg,
        n_top=n_top,
        scheme=scheme,
    )
    rows = []
    for n in range(n_top + 1):
        dc = float(dark_c[n]) if n < len(dark_c) else 0.0
        bc = float(bright_c[n]) if bright_c is not None and n < len(bright_c) else 0.0
        rows.append(
            {
                "n": n,
                "dark_count": dc,
                "dark_model": float(dark_m[n]) * dark_c.sum(),
                "bright_count": bc,
                "bright_model": (
                    float(bright_m[n]) * bright_c.sum() if bright_c is not None else 0.0
                ),
            }
        )
    return rows


def format_model_csv(rows) -> str:
    lines = ["n,dark_count,dark_model,bright_count,bright_model"]
    for row in rows:
        lines.append(
            "%d,%.9g,%.9g,%.9g,%.9g"
            % (
                row["n"],
                row["dark_count"],
                row["dark_model"],
                row["bright_count"],
                row["bright_model"],
            )
        )
    return "\n".join(lines) + "\n"
