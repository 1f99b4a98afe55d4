"""Acceptance gate: the eleven headline behaviors, one pass/fail line each.

Each test prints `criterion NN: PASS|FAIL - <label>` so a plain pytest run
doubles as the acceptance report. Tolerances are stated inline; fixtures
(seeds, trial counts) are frozen and must not drift.
"""

import math
import statistics

import numpy as np
import pytest
from scipy.integrate import quad

from ionread.angular import Scheme, branching_ratios
from ionread.ccd import (
    CcdParams,
    conditional_correlations,
    crosstalk_ratio,
    simulate_register_batch,
    snr,
)
from ionread.detmodel import (
    DetectionConfig,
    LeakParams,
    detection_params,
    get_species,
    histogram_cutoff,
    pmf_arrays,
)
from ionread.fidelity import (
    approx_fidelity,
    floor_leak_ratios,
    max_clock_fidelity,
    optimize_detection,
)
from ionread.fitkit import fit_histograms
from ionread.mcsim import InitialState, McConfig, McMode, simulate_histogram

from test_angular import cg_branching_products
from test_specfun import poisson_pmf

TWO_PI = 2.0 * math.pi


def report(number: int, label: str):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {label}")
                raise
            print(f"criterion {number:2d}: PASS - {label}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "branching ratios, closed forms vs angular-momentum products")
def test_criterion_01_branching_ratios():
    p32 = branching_ratios(0.5, Scheme.P32)
    assert (p32.m1, p32.m2_pi, p32.m2_minus) == (2 / 9, 1 / 9, 1 / 9)
    p12 = branching_ratios(0.5, Scheme.P12)
    assert (p12.m1, p12.m2_pi, p12.m2_minus) == (2 / 9, 2 / 9, 2 / 9)
    for twice in range(1, 10, 2):
        spin = twice / 2.0
        closed = branching_ratios(spin, Scheme.P32)
        products = cg_branching_products(spin)
        for c, p in zip((closed.m1, closed.m2_pi, closed.m2_minus), products):
            assert abs(c - p) <= 1e-12, (spin, c, p)


@report(2, "leak floor alpha1 = (2/9)(gamma/2Delta1)^2 ~ 1.07e-6")
def test_criterion_02_leak_floor():
    alpha1, _ = floor_leak_ratios(get_species("cd111"), Scheme.P32)
    closed = (2.0 / 9.0) * (60e6 / (2.0 * 13.7e9)) ** 2
    assert alpha1 == pytest.approx(closed, rel=1e-9)
    assert abs(alpha1 - 1.07e-6) / 1.07e-6 <= 0.05
    assert abs(alpha1 - 1.1e-6) / 1.1e-6 <= 0.05


@report(3, "fidelity optimization point checks at eta=0.001 and 0.3")
def test_criterion_03_fidelity_points():
    cd = get_species("cd111")
    low = optimize_detection(cd, Scheme.P32, 1e-3)
    assert abs(low.fidelity - 0.995) <= 1e-3
    assert 5.0 <= low.lambda0_opt <= 6.0
    high = optimize_detection(cd, Scheme.P32, 0.3)
    assert 0.99995 <= high.fidelity <= 0.99998


@report(4, "summary-table reproduction, nine fidelities within 0.3 pp")
def test_criterion_04_table_reproduction():
    printed = {
        ("cd111", 1e-3): 96.7, ("yb171", 1e-3): 99.33, ("hg199", 1e-3): 99.43,
        ("cd111", 1e-2): 99.65, ("yb171", 1e-2): 99.93, ("hg199", 1e-2): 99.943,
        ("cd111", 0.3): 99.988, ("yb171", 0.3): 99.998, ("hg199", 0.3): 99.998,
    }
    for (name, eta), expect in printed.items():
        res = optimize_detection(get_species(name), Scheme.P12, eta)
        assert abs(100.0 * res.fidelity - expect) <= 0.3, (name, eta)


@report(5, "clock-state ceiling 0.999375 exactly")
def test_criterion_05_clock_ceiling():
    assert max_clock_fidelity(TWO_PI * 60e6, TWO_PI * 800e6) == 0.999375


@report(6, "leading-order infidelity within 2x of numeric, both decreasing")
def test_criterion_06_approximation_quality():
    cd = get_species("cd111")
    alpha1, _ = floor_leak_ratios(cd, Scheme.P32)
    numeric = []
    approx = []
    for eta in (1e-3, 1e-2, 1e-1, 0.3):
        numeric.append(1.0 - optimize_detection(cd, Scheme.P32, eta).fidelity)
        approx.append(1.0 - approx_fidelity(eta, alpha1).fidelity)
    for n, a in zip(numeric, approx):
        assert 0.5 <= a / n <= 2.0, (n, a)
    assert all(b < a for a, b in zip(numeric, numeric[1:]))
    assert all(b < a for a, b in zip(approx, approx[1:]))


@report(7, "Monte Carlo vs closed forms, TV <= 0.002, modes mutually agree")
def test_criterion_07_oracle_equivalence():
    eta = 0.01
    lambda0 = 12.0
    trials = 10**6
    top = histogram_cutoff(lambda0)

    def freq(hist):
        out = np.zeros(top + 1)
        values = np.asarray(hist.values[: top + 1], dtype=float)
        out[: len(values)] = values / hist.trials
        return out

    for a in (0.0, 0.01, 0.05, 0.2):
        params = LeakParams(lambda0, a * eta, a * eta)
        dark_pmf, bright_pmf = pmf_arrays(params, eta, top)
        analytic = {InitialState.DARK: dark_pmf, InitialState.BRIGHT: bright_pmf}
        for initial in (InitialState.DARK, InitialState.BRIGHT):
            rate = simulate_histogram(params, eta, McConfig(
                trials=trials, seed=22, mode=McMode.RATE_EQUATION,
                initial=initial))
            tv = 0.5 * float(np.abs(freq(rate) - analytic[initial]).sum())
            assert tv <= 0.002, (a, initial, tv)
            photon = simulate_histogram(params, eta, McConfig(
                trials=trials, seed=23, mode=McMode.PHOTON_LEVEL,
                initial=initial))
            mutual = 0.5 * float(np.abs(freq(rate) - freq(photon)).sum())
            assert mutual <= 3 * 0.002, (a, initial, mutual)


@report(8, "closed forms match defining-convolution quadrature to 1e-10")
def test_criterion_08_analytic_self_consistency():
    from ionread.detmodel import p_bright, p_dark

    rng = np.random.Generator(np.random.Philox(80816))
    for _ in range(20):
        lambda0 = float(rng.uniform(1.0, 40.0))
        a = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.3))))
        b = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.3))))
        params = LeakParams(lambda0, a, b)
        for n in range(histogram_cutoff(lambda0) + 1):
            dark_quad, _ = quad(
                lambda lam: poisson_pmf(n, lam) * a * math.exp((lam - lambda0) * a),
                0.0, lambda0, epsabs=1e-14, epsrel=1e-12, limit=300)
            dark_quad += math.exp(-a * lambda0) * (1.0 if n == 0 else 0.0)
            assert abs(p_dark(n, params, 1.0) - dark_quad) < 1e-10
            bright_quad, _ = quad(
                lambda lam: poisson_pmf(n, lam) * b * math.exp(-b * lam),
                0.0, lambda0, epsabs=1e-14, epsrel=1e-12, limit=300)
            bright_quad += math.exp(-b * lambda0) * poisson_pmf(n, lambda0)
            assert abs(p_bright(n, params, 1.0) - bright_quad) < 1e-10


@report(9, "crosstalk ratio and correlated three-ion register")
def test_criterion_09_crosstalk():
    ratio = crosstalk_ratio(214.5e-9, 4e-6)
    assert abs(ratio - 7e-4) <= 0.5e-4

    positions = [(3, 3), (10, 3), (17, 3)]
    leak = LeakParams(12.0, 1e-3, 1e-3)
    thresholds = [213.5, 251.5, 228.5]  # trained equal-error, frozen
    readouts = simulate_register_batch(
        20000, positions, [12.0] * 3, leak, 1.0, CcdParams(), 0.016,
        thresholds, 777, states="random")
    rep = conditional_correlations(readouts)
    adjacent = [rep.deviation[i][j] for i, j in ((0, 1), (1, 0), (1, 2), (2, 1))]
    mean_adj = statistics.fmean(adjacent)
    assert 0.012 - 0.004 <= mean_adj <= 0.012 + 0.004
    fidelities = [
        sum(1 for r in readouts if r.bits[ion] == r.truth[ion]) / len(readouts)
        for ion in range(3)
    ]
    assert abs(statistics.fmean(fidelities) - 0.98) <= 0.005

    null = simulate_register_batch(
        20000, positions, [12.0] * 3, leak, 1.0, CcdParams(), 0.0,
        thresholds, 777, states="random")
    null_rep = conditional_correlations(null)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            z = null_rep.deviation[i][j] / null_rep.stderr[i][j]
            assert abs(z) < 3.0, (i, j, z)


@report(10, "imager SNR limits and monotonicities")
def test_criterion_10_snr_model():
    for lambda0 in (1.0, 12.0, 100.0):
        r0 = snr(lambda0, CcdParams(gain_g=100.0, readout_rms_r=0.0,
                                    roi_super_pixels=49))
        big_g = snr(lambda0, CcdParams(gain_g=1e9, readout_rms_r=2.0,
                                       roi_super_pixels=49))
        assert abs(r0 - math.sqrt(lambda0)) / math.sqrt(lambda0) <= 1e-6
        assert abs(big_g - math.sqrt(lambda0)) / math.sqrt(lambda0) <= 1e-6
    grid_g = [50.0, 100.0, 200.0, 400.0]
    grid_r = [0.5, 1.0, 2.0, 4.0]
    grid_k = [16, 49, 98, 196]
    for r in grid_r:
        for k in grid_k:
            vals = [snr(12.0, CcdParams(gain_g=g, readout_rms_r=r,
                                        roi_super_pixels=k)) for g in grid_g]
            assert all(b > a for a, b in zip(vals, vals[1:]))
    for g in grid_g:
        for k in grid_k:
            vals = [snr(12.0, CcdParams(gain_g=g, readout_rms_r=r,
                                        roi_super_pixels=k)) for r in grid_r]
            assert all(b < a for a, b in zip(vals, vals[1:]))
    for g in grid_g:
        for r in grid_r:
            vals = [snr(12.0, CcdParams(gain_g=g, readout_rms_r=r,
                                        roi_super_pixels=k)) for k in grid_k]
            assert all(b < a for a, b in zip(vals, vals[1:]))


@report(11, "fit round trip at reference parameters, deterministic")
def test_criterion_11_fit_roundtrip():
    cd = get_species("cd111")
    truth = dict(eta=1.4e-3, s=0.25, p_impure=1.5e-3)
    config = DetectionConfig(
        scheme=Scheme.P32, s=truth["s"], delta=0.0, tau_d=150e-6,
        eta=truth["eta"], p_pi=truth["p_impure"] / 2,
        p_minus=truth["p_impure"] / 2)
    leak = detection_params(cd, config)
    dark = simulate_histogram(leak, truth["eta"], McConfig(
        trials=20000, seed=9, mode=McMode.RATE_EQUATION,
        initial=InitialState.DARK))
    bright = simulate_histogram(leak, truth["eta"], McConfig(
        trials=20000, seed=1009, mode=McMode.RATE_EQUATION,
        initial=InitialState.BRIGHT))
    first = fit_histograms(dark, bright, cd, 150e-6)
    second = fit_histograms(dark, bright, cd, 150e-6)
    assert first == second
    assert first.converged
    assert abs(first.eta - truth["eta"]) / truth["eta"] <= 0.05
    assert abs(first.s - truth["s"]) / truth["s"] <= 0.10
    assert abs(first.p_impure - truth["p_impure"]) / truth["p_impure"] <= 0.25
