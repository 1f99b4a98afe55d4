"""Maximum-likelihood recovery of detection parameters from histograms.

Given dark-prepared and bright-prepared count histograms of one species
at a known detection time, the fitter recovers the collection efficiency
eta, the saturation s, and the combined polarization impurity. The two
impure fractions enter the leak rate through one weighted sum, so only a
single combined parameter is fitted and split evenly between them. An
optional state-independent Poisson background with mean lambda_bg can be
convolved into both model distributions.

The loss is the joint multinomial negative log-likelihood of both
histograms under the closed-form count distributions. The fit runs in
x = log(eta, s, p_impure) (plus log lambda_bg), where the parameter
bounds _LOG_BOUNDS are a box, by projected Fisher scoring (Bertsekas,
SIAM J. Control Optim. 20 (1982) 221) from a moment start: a coordinate
within _ACTIVE_TOL of a bound that its gradient pushes it toward moves
onto that bound, the Fisher system is solved on the others, and the
trial point is clipped into the box and backtracked until the NLL falls. Each point is
scored through ``detection_params``. The pmfs depend on it only through
lambda0, a1 = alpha1/eta and a2 = alpha2/eta, so the gradient and the
expected Fisher matrix are taken in log(lambda0, a1, a2) in closed form,
since dP(n+1, x)/dx = pois(n; x) for integer n, and chained to x through
the closed-form Jacobian of that map at zero detuning.

A parameter the histograms cannot identify is held, and the result is
flagged non-converged: a dark-only fit holds p_impure at its start, and
under p12 the leak rates do not depend on p_impure, which is held at
``_P12_P_IMPURE``. The result is also non-converged when a fitted
parameter ends on a bound or when scoring stalls, meets a singular
Fisher matrix or runs out of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._text import _record, _table
from .angular import Scheme, branching_ratios
from .detmodel import (
    MAX_BINS,
    DetectionConfig,
    IonSpecies,
    PhotonHistogram,
    _leak_fractions,
    _scheme_constants,
    count_pmfs,
    detection_params,
    histogram_cutoff,
)
from .errors import DomainError, _count, _enum, _instance, _real
from .specfun import log_poisson

_LOG_BOUNDS = {
    "eta": (math.log(1e-9), 0.0),
    "s": (math.log(1e-9), math.log(1e4)),
    "p_impure": (math.log(1e-12), math.log(0.9)),
    "lambda_bg": (math.log(1e-9), math.log(100.0)),
}
_MIN_COUNTS = 100
# p12 leak rates do not depend on the polarization impurity, so a p12 fit
# reports this fixed value for it, with converged=False
_P12_P_IMPURE = 1e-3
_LAMBDA_BG_START = 0.2
# scoring stops once the next step moves no log coordinate by more than
# _STEP_TOL or promises an NLL decrease below _NLL_RTOL of the NLL; both
# are unchanged when every histogram weight is scaled by one factor
_STEP_TOL = 1e-9
_NLL_RTOL = 1e-14
_MAX_STEPS = 100
# a coordinate this close to a bound counts as on it (log units)
_ACTIVE_TOL = 1e-6


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
    values = np.asarray(_instance(hist, PhotonHistogram, f"the {name} histogram").values, dtype=np.float64)
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


def _model(species, scheme, tau_d, eta, s, p_impure, lambda_bg, n_top):
    """Dark and bright model pmfs on 0..top and their derivatives in log(lambda0, a1, a2[, lambda_bg]).

    top = max(n_top, histogram_cutoff(lambda0 + lambda_bg)); a lambda_bg of
    None or 0 convolves no background and gives (3, top + 1) derivative
    arrays, a positive one (4, top + 1). Raises DomainError outside the
    model's domain: alpha1/eta >= 1, or a table above MAX_BINS.
    """
    # zero detuning, with p_impure split evenly
    config = DetectionConfig(scheme=scheme, s=s, delta=0.0, tau_d=tau_d, eta=eta,
                             p_pi=p_impure / 2.0, p_minus=p_impure / 2.0)
    leak = detection_params(species, config)
    a1, a2 = _leak_fractions(leak, eta)
    lambda0 = leak.lambda0
    top = max(n_top, histogram_cutoff(lambda0 + (lambda_bg or 0.0)))
    if top > MAX_BINS:
        raise DomainError(f"a model table at lambda0 = {lambda0:.9g} needs counts up to {top}, "
                          f"above the cap of {MAX_BINS}")
    n = np.arange(top + 1.0)
    dark, bright = count_pmfs(n, lambda0, a1, a2)
    d_dark, d_bright = _leak_jacobians(n, lambda0, a1, a2, dark, bright)
    if lambda_bg:
        # a bright ion that cannot leak counts Poisson photons
        counts = n[: histogram_cutoff(lambda_bg) + 1]
        bg = count_pmfs(counts, lambda_bg, 0.0, 0.0)[1]
        d_bg = (counts - lambda_bg) * bg

        def smear(pmf, jac):
            rows = [np.convolve(row, bg)[: top + 1] for row in jac]
            rows.append(np.convolve(pmf, d_bg)[: top + 1])
            return np.convolve(pmf, bg)[: top + 1], np.array(rows)

        dark, d_dark = smear(dark, d_dark)
        bright, d_bright = smear(bright, d_bright)
    return dark, bright, d_dark, d_bright


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
    _real(p_impure, "p_impure", 0)
    if lambda_bg is not None:
        _real(lambda_bg, "lambda_bg", 0)
    n_top = 0 if n_top is None else _count(n_top, "n_top")
    return _model(species, scheme, tau_d, eta, s, p_impure, lambda_bg, n_top)[:2]


class _LeakMap:
    """Closed-form inverse of ``detection_params``, for the moment start.

    At zero detuning, with sat = 1 + s, k1 = (gamma/2 Delta1)^2 and
    k2 = (gamma/2 Delta2)^2: lambda0 = tau_d eta s (gamma/2) / sat and
    a1 = m1 k1 sat / eta, so s = lambda0 a1 / (tau_d (gamma/2) m1 k1) and
    eta = m1 k1 sat / a1. Under p32, a2 = k2 mbar sat p / ((1-p) eta)
    with mbar = (m2_pi + m2_minus)/2, so p/(1-p) = (a2/a1) m1 k1 /
    (k2 mbar); under p12, a2 = m2_pi k2 sat / eta does not depend on p.
    The map works on logs, so no finite input overflows.
    """

    def __init__(self, species: IonSpecies, scheme: Scheme, tau_d: float):
        gamma, detuning_1, detuning_2 = _scheme_constants(species, scheme)
        ratios = branching_ratios(species.nuclear_spin, scheme)
        self.p32 = scheme is Scheme.P32
        m2 = (ratios.m2_pi + ratios.m2_minus) / 2.0 if self.p32 else ratios.m2_pi
        try:
            self.log_photons = math.log(tau_d * gamma / 2.0)
            self.log_c1 = math.log(ratios.m1 * (gamma / (2.0 * detuning_1)) ** 2)
            self.log_c2 = math.log(m2 * (gamma / (2.0 * detuning_2)) ** 2)
        except (OverflowError, ValueError):  # a product beyond the float range, or rounded to 0
            raise DomainError(f"the leak parameters of species {species.name!r} under the {scheme.value} "
                              f"scheme leave the float range") from None

    def natural(self, log_lambda0: float, log_a1: float, log_a2: float) -> dict:
        """log(eta, s, p_impure) at log(lambda0, a1, a2), keyed as _LOG_BOUNDS."""
        log_s = log_lambda0 + log_a1 - self.log_photons - self.log_c1
        log_eta = self.log_c1 + np.logaddexp(0.0, log_s) - log_a1
        if self.p32:
            log_p = -np.logaddexp(0.0, log_a1 - log_a2 + self.log_c2 - self.log_c1)
        else:
            log_p = math.log(_P12_P_IMPURE)
        return {"eta": float(log_eta), "s": float(log_s), "p_impure": float(log_p)}


@dataclass(frozen=True)
class _Problem:
    """One fit: data, model settings and the free coordinates.

    The point x = log(eta, s, p_impure[, lambda_bg]) is x0 with the
    entries at the indices ``free`` replaced by the free coordinates u;
    ``lower`` and ``upper`` are _LOG_BOUNDS on u.
    """

    species: IonSpecies
    scheme: Scheme
    tau_d: float
    dark_c: np.ndarray
    bright_c: np.ndarray | None
    n_top: int
    x0: np.ndarray
    free: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def point(self, u):
        x = self.x0.copy()
        x[self.free] = u
        return x


def _leak_jacobians(n, lambda0, a1, a2, dark, bright):
    """d(dark)/d and d(bright)/d log(lambda0, a1, a2) as (3, bins) arrays.

    The leak terms are what ``count_pmfs`` adds to the unleaked parts
    exp(-a1 lambda0) delta_n0 and exp(-a2 lambda0) pois(n; lambda0); each
    derivative of P(n+1, x) reduces to a multiple of pois(n; lambda0).
    """
    log_pois = log_poisson(n, lambda0)
    pois = np.exp(log_pois)
    stay_dark = np.where(n == 0, math.exp(-a1 * lambda0), 0.0)
    stay_bright = np.exp(log_pois - a2 * lambda0)
    leak_dark = dark - stay_dark
    leak_bright = bright - stay_bright
    zero = np.zeros_like(pois)
    d_dark = np.array([
        a1 * lambda0 * (pois - dark),
        leak_dark * (1.0 + a1 * (n + 1.0) / (1.0 - a1) - a1 * lambda0)
        - a1 * lambda0 * (stay_dark + a1 / (1.0 - a1) * pois),
        zero,
    ])
    d_bright = np.array([
        stay_bright * (n - lambda0),
        zero,
        leak_bright * (1.0 - a2 * (n + 1.0) / (1.0 + a2))
        - a2 * lambda0 / (1.0 + a2) * stay_bright,
    ])
    return d_dark, d_bright


def _objective(u, problem: _Problem):
    """NLL, its gradient and the expected Fisher matrix at free coordinates u.

    A point outside the model's domain (see ``_model``) gives
    (inf, None, None). Called as a module global: the benchmark tracer
    hooks it by name.
    """
    x = problem.point(u)
    eta, s, p_impure = np.exp(x[:3]).tolist()
    lambda_bg = math.exp(x[3]) if len(x) == 4 else None
    try:
        dark, bright, d_dark, d_bright = _model(problem.species, problem.scheme, problem.tau_d,
                                                eta, s, p_impure, lambda_bg, problem.n_top)
    except DomainError:
        return math.inf, None, None
    # d log(lambda0, a1, a2, lambda_bg) / dx at zero detuning, with sigma = s/(1+s)
    sigma = s / (1.0 + s)
    chain = np.array([
        [1.0, 1.0 - sigma, 0.0, 0.0],
        [-1.0, sigma, 0.0, 0.0],
        [-1.0, sigma, 1.0 / (1.0 - p_impure) if problem.scheme is Scheme.P32 else 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])[: len(x), problem.free]
    nll = 0.0
    grad = np.zeros(len(u))
    fisher = np.zeros((len(u), len(u)))
    for counts, pmf, jac in ((problem.dark_c, dark, d_dark), (problem.bright_c, bright, d_bright)):
        if counts is None:
            continue
        jac = chain.T @ jac
        p = np.clip(pmf, 1e-300, None)
        nll -= float(counts @ np.log(p[: len(counts)]))
        grad -= jac[:, : len(counts)] @ (counts / p[: len(counts)])
        fisher += counts.sum() * (jac / p) @ jac.T
    return nll, grad, fisher


def _score(u, problem: _Problem):
    """Projected Fisher scoring with step halving from u: (u, nll, steps, converged)."""
    nll, grad, fisher = _objective(u, problem)
    steps = 0
    while math.isfinite(nll) and steps < _MAX_STEPS:
        # a coordinate near the bound that the gradient pushes it toward
        # moves onto that bound; the Fisher step is solved on the others
        step = np.where(grad > 0.0, problem.lower, problem.upper) - u
        free = np.abs(step) > _ACTIVE_TOL
        try:
            step[free] = np.linalg.solve(fisher[free][:, free], -grad[free])
        except np.linalg.LinAlgError:
            break
        decrease = -float(grad @ step)
        if not (np.isfinite(step).all() and decrease >= 0.0):
            break
        if np.abs(step).max() <= _STEP_TOL or decrease <= _NLL_RTOL * abs(nll):
            return u, nll, steps, True
        while np.abs(step).max() > _STEP_TOL:
            trial_u = np.clip(u + step, problem.lower, problem.upper)
            trial = _objective(trial_u, problem)
            if trial[0] < nll:
                break
            step = step / 2.0
        else:
            break
        u = trial_u
        nll, grad, fisher = trial
        steps += 1
    return u, nll, steps, False


def _setup(dark_c, bright_c, species, tau_d, fit_background, scheme):
    """The fit's _Problem and its moment start u0.

    lambda0 starts at the bright mean (5 without one), a1 at the value
    that gives the dark zero-bin frequency, and a2 at a1; the start is
    then clipped 0.01 inside _LOG_BOUNDS. p_impure is held under p12 and
    in a dark-only fit.
    """
    if bright_c is not None:
        lambda0 = max(float(np.arange(len(bright_c)) @ bright_c / bright_c.sum()), 0.5)
    else:
        lambda0 = 5.0
    zero = dark_c[0] / dark_c.sum()
    log_a1 = math.log(min(max(-math.log(zero) / lambda0 if zero > 0 else 1.0, 1e-12), 0.5))
    logs = _LeakMap(species, scheme, tau_d).natural(math.log(lambda0), log_a1, log_a1)
    logs["lambda_bg"] = math.log(_LAMBDA_BG_START)
    names = ["eta", "s", "p_impure"] + (["lambda_bg"] if fit_background else [])
    lower, upper = np.array([_LOG_BOUNDS[name] for name in names]).T
    x0 = np.clip([logs[name] for name in names], lower + 0.01, upper - 0.01)
    free = np.arange(len(names))
    if scheme is Scheme.P12 or bright_c is None:
        free = np.delete(free, 2)
    n_top = max(len(dark_c), 0 if bright_c is None else len(bright_c)) - 1
    problem = _Problem(species, scheme, tau_d, dark_c, bright_c, n_top, x0, free,
                       lower[free], upper[free])
    return problem, x0[free]


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
    completely unconstrained, so such fits report converged=False, as do
    p12 fits, whose model does not depend on the impurity. An all-zero
    histogram is rejected outright, and so is a detection time at whose
    start point the likelihood is not finite. ``iterations`` counts
    scoring steps.
    """
    _real(tau_d, "detection time", 0, ends="()")
    _instance(species, IonSpecies, "species")
    _instance(fit_background, bool, "fit_background")
    scheme = _enum(Scheme, scheme, "scheme")
    dark_c = _counts(dark_hist, "dark")
    bright_c = _counts(bright_hist, "bright") if bright_hist is not None else None
    problem, u0 = _setup(dark_c, bright_c, species, tau_d, fit_background, scheme)
    u, nll, steps, converged = _score(u0, problem)
    if not math.isfinite(nll):
        raise DomainError(
            f"the histograms have no finite likelihood at the fit's start for tau_d = {tau_d:.9g} s;"
            " check that tau_d matches them"
        )
    eta, s, p_impure, *lambda_bg = np.exp(problem.point(u)).tolist()
    inside = (problem.lower + 1e-3 <= u) & (u <= problem.upper - 1e-3)
    converged = bool(converged and inside.all() and 2 in problem.free)
    return FitResult(eta, s, p_impure, lambda_bg[0] if lambda_bg else None, nll, converged, steps)


def format_fit_result(result: FitResult) -> str:
    """Structured key: value text block."""
    _instance(result, FitResult, "fit result")
    return _record(dict(eta=result.eta, s=result.s, p_impure=result.p_impure, lambda_bg=result.lambda_bg,
                        neg_log_likelihood=result.neg_log_likelihood, converged=result.converged,
                        iterations=result.iterations))


def format_model_csv(
    result: FitResult,
    dark_hist: PhotonHistogram,
    bright_hist: PhotonHistogram | None,
    species: IonSpecies,
    tau_d: float,
    scheme: Scheme = Scheme.P32,
) -> str:
    """Per-bin data counts next to the fitted model's expected counts, as CSV."""
    # a dark-only fit has an empty bright histogram, whose columns read 0
    _instance(result, FitResult, "fit result")
    hists = [np.asarray(() if h is None else _instance(h, PhotonHistogram, "histogram").values, dtype=np.float64)
             for h in (dark_hist, bright_hist)]
    bins = max(map(len, hists))
    models = model_distributions(species, tau_d, result.eta, result.s, result.p_impure,
                                 result.lambda_bg, n_top=bins - 1, scheme=scheme)
    columns = [np.arange(bins)]
    for counts, model in zip(hists, models):
        columns += [np.pad(counts, (0, bins - len(counts))), model[:bins] * counts.sum()]
    return "".join(_table("n,dark_count,dark_model,bright_count,bright_model", columns))
