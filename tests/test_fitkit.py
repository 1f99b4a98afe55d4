import math

import numpy as np
import pytest

from ionread.detmodel import HistKind, PhotonHistogram, get_species
from ionread.errors import DomainError
from ionread.fitkit import (
    fit_histograms,
    format_fit_result,
    model_distributions,
    model_vs_data_rows,
)
from ionread.mcsim import InitialState, McConfig, McMode, simulate_histogram
from ionread.detmodel import DetectionConfig, detection_params
from ionread.angular import Scheme

CD = get_species("cd111")
TAU_D = 150e-6
TRUTH = dict(eta=1.4e-3, s=0.25, p_impure=1.5e-3)


def truth_leak():
    config = DetectionConfig(
        scheme=Scheme.P32, s=TRUTH["s"], delta=0.0, tau_d=TAU_D,
        eta=TRUTH["eta"], p_pi=TRUTH["p_impure"] / 2,
        p_minus=TRUTH["p_impure"] / 2)
    return detection_params(CD, config)


def mc_pair(trials, dark_seed, bright_seed):
    leak = truth_leak()
    dark = simulate_histogram(leak, TRUTH["eta"], McConfig(
        trials=trials, seed=dark_seed, mode=McMode.RATE_EQUATION,
        initial=InitialState.DARK))
    bright = simulate_histogram(leak, TRUTH["eta"], McConfig(
        trials=trials, seed=bright_seed, mode=McMode.RATE_EQUATION,
        initial=InitialState.BRIGHT))
    return dark, bright


def with_background(hist, lambda_bg, seed):
    """Per-trial Poisson background added to every simulated count."""
    rng = np.random.default_rng(seed)
    per_trial = np.repeat(np.arange(len(hist.values)), hist.values)
    shifted = per_trial + rng.poisson(lambda_bg, per_trial.size)
    values = np.bincount(shifted)
    return PhotonHistogram(values=tuple(int(v) for v in values),
                           kind=HistKind.SIMULATED, trials=hist.trials)


def analytic_pair(n_top=80, lambda_bg=None):
    dark, bright = model_distributions(
        CD, TAU_D, TRUTH["eta"], TRUTH["s"], TRUTH["p_impure"],
        lambda_bg=lambda_bg, n_top=n_top)
    mk = lambda v: PhotonHistogram(values=tuple(v / v.sum()),
                                   kind=HistKind.ANALYTIC)
    return mk(dark), mk(bright)


class TestValidation:
    def test_empty_dark(self):
        dark = PhotonHistogram(values=(0.0, 0.0), kind=HistKind.MEASURED)
        _, bright = mc_pair(200, 1, 2)
        with pytest.raises(DomainError, match="dark"):
            fit_histograms(dark, bright, CD, TAU_D)

    def test_zero_bright_named(self):
        dark, _ = mc_pair(200, 1, 2)
        bright = PhotonHistogram(values=(0.0, 0.0, 0.0), kind=HistKind.MEASURED)
        with pytest.raises(DomainError, match="bright"):
            fit_histograms(dark, bright, CD, TAU_D)

    def test_underpowered_histogram(self):
        dark, bright = mc_pair(50, 1, 2)
        with pytest.raises(DomainError, match="100"):
            fit_histograms(dark, bright, CD, TAU_D)


class TestNoiseless:
    def test_recovers_truth(self):
        dark, bright = analytic_pair()
        res = fit_histograms(dark, bright, CD, TAU_D)
        assert res.converged
        assert abs(res.eta - TRUTH["eta"]) / TRUTH["eta"] < 1e-4
        assert abs(res.s - TRUTH["s"]) / TRUTH["s"] < 1e-4
        assert abs(res.p_impure - TRUTH["p_impure"]) / TRUTH["p_impure"] < 1e-3

    def test_truth_nll_within_three_log_units(self):
        dark, bright = analytic_pair()
        res = fit_histograms(dark, bright, CD, TAU_D)
        d_pmf, b_pmf = model_distributions(
            CD, TAU_D, TRUTH["eta"], TRUTH["s"], TRUTH["p_impure"],
            n_top=len(dark.values) - 1)
        truth_nll = -float(
            np.asarray(dark.values) @ np.log(np.clip(d_pmf, 1e-300, None))
            + np.asarray(bright.values) @ np.log(np.clip(b_pmf, 1e-300, None)))
        assert truth_nll >= res.neg_log_likelihood - 1e-9
        assert truth_nll - res.neg_log_likelihood <= 3.0


@pytest.fixture(scope="module")
def fitted():
    dark, bright = mc_pair(20000, 9, 1009)
    return fit_histograms(dark, bright, CD, TAU_D)


@pytest.fixture(scope="module")
def contaminated():
    dark, bright = mc_pair(20000, 7001, 7002)
    return (with_background(dark, 0.3, 7101),
            with_background(bright, 0.3, 7102))


class TestRoundtrip:
    def test_eta_within_5_percent(self, fitted):
        assert abs(fitted.eta - TRUTH["eta"]) / TRUTH["eta"] < 0.05

    def test_s_within_10_percent(self, fitted):
        assert abs(fitted.s - TRUTH["s"]) / TRUTH["s"] < 0.10

    def test_p_impure_within_25_percent(self, fitted):
        assert (abs(fitted.p_impure - TRUTH["p_impure"]) / TRUTH["p_impure"]
                < 0.25)

    def test_converged_and_bg_off(self, fitted):
        assert fitted.converged
        assert fitted.lambda_bg is None
        assert fitted.iterations > 0

    def test_deterministic(self, fitted):
        dark, bright = mc_pair(20000, 9, 1009)
        again = fit_histograms(dark, bright, CD, TAU_D)
        assert again == fitted


class TestConventionInvariance:
    def test_counts_vs_frequencies(self):
        dark, bright = mc_pair(20000, 9, 1009)
        as_freq = lambda h: PhotonHistogram(values=[v / h.total for v in h.values],
                                            kind=HistKind.MEASURED)
        res_counts = fit_histograms(dark, bright, CD, TAU_D)
        res_freq = fit_histograms(as_freq(dark), as_freq(bright), CD, TAU_D)
        for field in ("eta", "s", "p_impure"):
            a, b = getattr(res_counts, field), getattr(res_freq, field)
            assert abs(a - b) / a < 1e-4, field
        # likelihoods differ by exactly the total-count scale factor:
        # each of the two histograms drops from 20000 weight to 1
        ratio = res_freq.neg_log_likelihood / res_counts.neg_log_likelihood
        assert ratio == pytest.approx(2.0 / 40000.0, rel=1e-3)


class TestDegeneracy:
    def test_dark_only_not_converged(self):
        dark, _ = mc_pair(20000, 9, 1009)
        res = fit_histograms(dark, None, CD, TAU_D)
        assert not res.converged
        # the dark histogram alone still pins the leak rate and the
        # saturation through lambda0, so eta and s come out sane
        assert abs(res.eta - TRUTH["eta"]) / TRUTH["eta"] < 0.2
        assert abs(res.s - TRUTH["s"]) / TRUTH["s"] < 0.3


class TestBackground:
    def test_recovers_lambda_bg(self, contaminated):
        dark, bright = contaminated
        res = fit_histograms(dark, bright, CD, TAU_D, fit_background=True)
        assert res.converged
        assert res.lambda_bg is not None
        assert abs(res.lambda_bg - 0.3) / 0.3 < 0.30

    def test_residuals_pile_up_at_one_without_flag(self, contaminated):
        dark, bright = contaminated
        res = fit_histograms(dark, bright, CD, TAU_D, fit_background=False)
        d_pmf, _ = model_distributions(CD, TAU_D, res.eta, res.s, res.p_impure)
        data = np.zeros(len(d_pmf))
        data[: len(dark.values)] = dark.values
        residual = data - dark.trials * d_pmf
        # background shifts the dark point mass from n=0 into n=1, which
        # no leak-only parameter point can absorb
        assert int(np.argmax(residual[:6])) == 1
        others = np.delete(residual[:6], 1)
        assert residual[1] > 3 * np.abs(others).max()


class TestReporting:
    def test_format_fields(self):
        dark, bright = analytic_pair()
        res = fit_histograms(dark, bright, CD, TAU_D)
        text = format_fit_result(res)
        for key in ("eta:", "s:", "p_impure:", "lambda_bg:",
                    "neg_log_likelihood:", "converged:", "iterations:"):
            assert key in text
        assert "converged: true" in text

    def test_model_rows_csv_shape(self):
        dark, bright = mc_pair(20000, 9, 1009)
        res = fit_histograms(dark, bright, CD, TAU_D)
        rows = model_vs_data_rows(res, dark, bright, CD, TAU_D)
        assert len(rows) == max(len(dark.values), len(bright.values))
        model_dark_total = sum(r["dark_model"] for r in rows)
        assert model_dark_total == pytest.approx(dark.trials, rel=0.01)
