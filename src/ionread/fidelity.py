"""Detection fidelity and its optimization over light level and threshold.

State discrimination by thresholding: declare "dark" when the count n is
at or below a threshold d, "bright" when strictly greater. The fidelity
of a single readout is the worse of the two correct-identification
probabilities,

    F = min( sum_{n<=d} p_dark(n), 1 - sum_{n<=d} p_bright(n) ).

Longer detection (larger lambda0) separates the Poisson peaks but gives
the dark ion more chances to leak bright, so F has an interior optimum in
lambda0 at fixed leak strengths. The optimizer fixes the leak ratios at
their zero-power floors (saturation -> 0, detuning 0), scans lambda0 on a
coarse grid under 3*ln(eta/alpha1), refines by golden section, and scans
the threshold exhaustively at each light level.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detmodel import (
    DetectionConfig,
    IonSpecies,
    LeakParams,
    _cutoffs,
    count_pmfs,
    detection_params,
    pmf_arrays,
)
from .errors import DomainError, _count, _instance, _real

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class DiscriminationResult:
    """Outcome of one threshold choice at one light level.

    d is the largest count still declared dark, dark_fidelity the
    probability a dark ion stays at or below d, bright_fidelity the
    probability a bright ion exceeds d, and fidelity their minimum.
    """

    d: int
    lambda0_opt: float
    fidelity: float
    dark_fidelity: float
    bright_fidelity: float


def _cdf_pair(dark, bright):
    """Cumulative sums of the pmfs along the count axis, capped at 1."""
    return (
        np.minimum(np.cumsum(dark, axis=-1), 1.0),
        np.minimum(np.cumsum(bright, axis=-1), 1.0),
    )


def _first_best(dark_cum, bright_cum, lambda0: float) -> DiscriminationResult:
    # argmax keeps the first maximum, as a strict-improvement scan over d would
    fid = np.minimum(dark_cum, 1.0 - bright_cum)
    d = int(np.argmax(fid))
    return DiscriminationResult(
        d=d,
        lambda0_opt=float(lambda0),
        fidelity=float(fid[d]),
        dark_fidelity=float(dark_cum[d]),
        bright_fidelity=float(1.0 - bright_cum[d]),
    )


def best_threshold(params: LeakParams, eta: float) -> DiscriminationResult:
    """Exhaustive threshold scan over d in [0, n_max] at fixed lambda0."""
    return _first_best(*_cdf_pair(*pmf_arrays(params, eta)), params.lambda0)


def floor_leak_ratios(species: IonSpecies, scheme) -> tuple[float, float]:
    """(alpha1, alpha2) at zero saturation and zero detuning.

    These are the unavoidable leak strengths of the scheme: saturation and
    detuning only increase them. Polarization impurity is taken as zero,
    so the upper-level scheme has alpha2 = 0 while the deliberately
    driven lower-level scheme keeps its intrinsic alpha2.
    """
    config = DetectionConfig(scheme=scheme, s=0.0, delta=0.0, tau_d=1.0, eta=1.0)
    lp = detection_params(species, config)
    return lp.alpha1, lp.alpha2


def _lambda0_bound(alpha1: float, eta: float) -> float:
    a1 = _real(alpha1, "alpha1", 0) / _real(eta, "collection efficiency", 0, 1, "(]")
    if not 0 < a1 < 1:
        raise DomainError(f"optimization needs 0 < alpha1/eta < 1, got {a1}")
    return 3.0 * math.log(1.0 / a1)


def optimize_at(
    alpha1: float,
    alpha2: float,
    eta: float,
    *,
    grid_points: int = 200,
    rel_tol: float = 1e-4,
) -> DiscriminationResult:
    """Best fidelity over lambda0 in (0, 3*ln(eta/alpha1)] at fixed leaks.

    Coarse grid to localize the peak, golden-section refinement of
    lambda0 to the requested relative width, threshold re-optimized at
    every light level evaluated. Deterministic.
    """
    _count(grid_points, "grid_points", 3)
    hi = _lambda0_bound(alpha1, eta)
    LeakParams(hi, alpha1, alpha2)  # validates the leak ratios

    def eval_at(lam0: float) -> DiscriminationResult:
        return best_threshold(LeakParams(lam0, alpha1, alpha2), eta)

    # the whole grid as one 2-D evaluation, each row scanned only up to
    # its own histogram_cutoff, as best_threshold would scan it
    step = hi / grid_points
    grid = step * np.arange(1, grid_points + 1)
    cutoffs = _cutoffs(grid).astype(np.int64)
    counts = np.arange(cutoffs.max() + 1)
    dark_cum, bright_cum = _cdf_pair(
        *count_pmfs(counts, grid[:, None], alpha1 / eta, alpha2 / eta)
    )
    fid = np.minimum(dark_cum, 1.0 - bright_cum)
    fid[counts > cutoffs[:, None]] = -np.inf
    k = int(np.argmax(fid.max(axis=1)))
    row = slice(0, cutoffs[k] + 1)
    best = _first_best(dark_cum[k, row], bright_cum[k, row], grid[k])

    a = float(grid[k - 1]) if k > 0 else step * 0.5
    b = float(grid[k + 1]) if k + 1 < grid_points else hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = eval_at(x1)
    f2 = eval_at(x2)
    while (b - a) > rel_tol * max(1.0, best.lambda0_opt):
        if f1.fidelity >= f2.fidelity:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = eval_at(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = eval_at(x2)
        cand = f1 if f1.fidelity >= f2.fidelity else f2
        if cand.fidelity > best.fidelity:
            best = cand
    return best


def optimize_detection(species: IonSpecies, scheme, eta: float) -> DiscriminationResult:
    """Best achievable fidelity of a species/scheme at collection eta.

    Applies the zero-power idealization (leak ratios at their floors) and
    jointly maximizes over the light level and the integer threshold.
    """
    alpha1, alpha2 = floor_leak_ratios(species, scheme)
    return optimize_at(alpha1, alpha2, eta)


class ApproxFidelity(NamedTuple):
    """Leading-order estimate: error dominated by dark ions leaking early."""

    fidelity: float
    lambda0: float


def approx_fidelity(eta: float, alpha1: float) -> ApproxFidelity:
    """F ~ 1 - (alpha1/eta)*ln(eta/alpha1) at lambda0 ~ ln(eta/alpha1)."""
    _real(eta, "eta", 0, ends="()")
    _real(alpha1, "alpha1", 0, eta, "()")
    # eta/alpha1 overflows only where alpha1/eta is below the smallest float
    log_term = math.log(eta / alpha1) if eta / alpha1 < math.inf else math.log(eta) - math.log(alpha1)
    return ApproxFidelity(fidelity=1.0 - (alpha1 / eta) * log_term, lambda0=log_term)


def max_clock_fidelity(gamma: float, omega_hfp: float) -> float:
    """Ceiling on direct readout of the field-insensitive hyperfine pair.

    Off-resonant coupling of the detection light to the other excited
    hyperfine level caps the fidelity at 1 - (4/9)*(gamma/(2*omega_hfp))^2
    regardless of light level. Arguments are angular frequencies in rad/s
    (any common unit works since only the ratio enters).
    """
    try:
        ceiling = 1.0 - (4.0 / 9.0) * (_real(gamma, "gamma", 0, ends="()")
                                       / (2.0 * _real(omega_hfp, "omega_hfp", 0, ends="()"))) ** 2
    except OverflowError:  # the square left the float range
        ceiling = -math.inf
    return _real(ceiling, f"the clock ceiling of gamma {gamma} and omega_hfp {omega_hfp}")


def fidelity_curve(species: IonSpecies, scheme, eta_grid) -> list[dict]:
    """Optimal infidelity versus collection efficiency, one row per eta.

    Each row carries the numeric optimum next to the leading-order
    estimate so the quality of the approximation is visible across the
    whole efficiency range.
    """
    alpha1, alpha2 = floor_leak_ratios(species, scheme)
    rows = []
    for eta in _instance(eta_grid, Iterable, "eta_grid"):
        best = optimize_at(alpha1, alpha2, eta)
        approx = approx_fidelity(eta, alpha1)
        rows.append(
            {
                "eta": eta,
                "infidelity_numeric": 1.0 - best.fidelity,
                "infidelity_approx": 1.0 - approx.fidelity,
                "lambda0_opt": best.lambda0_opt,
                "d_opt": best.d,
            }
        )
    return rows


def format_curve_csv(rows) -> str:
    """CSV table with the documented fixed header."""
    lines = ["eta,infidelity_numeric,infidelity_approx,lambda0_opt,d_opt"]
    for row in _instance(rows, list, "curve rows"):
        lines.append(
            "%.9g,%.9g,%.9g,%.9g,%d"
            % (
                row["eta"],
                row["infidelity_numeric"],
                row["infidelity_approx"],
                row["lambda0_opt"],
                row["d_opt"],
            )
        )
    return "\n".join(lines) + "\n"
