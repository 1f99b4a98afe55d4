import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ionread
from ionread import fitkit
from ionread.cli import run_command
from ionread.detmodel import PhotonHistogram, get_species
from ionread.errors import DomainError
from ionread.fitkit import (
    fit_histograms,
    format_fit_result,
    format_model_csv,
    model_distributions,
)
from ionread.mcsim import InitialState, McConfig, McMode, simulate_histogram
from ionread.detmodel import DetectionConfig, detection_params
from ionread.angular import Scheme

CD = get_species("cd111")
TAU_D = 150e-6
TRUTH = dict(eta=1.4e-3, s=0.25, p_impure=1.5e-3)


def truth_leak(scheme=Scheme.P32, truth=TRUTH):
    config = DetectionConfig(
        scheme=scheme, s=truth["s"], delta=0.0, tau_d=TAU_D,
        eta=truth["eta"], p_pi=truth["p_impure"] / 2,
        p_minus=truth["p_impure"] / 2)
    return detection_params(CD, config)


def mc_pair(trials, dark_seed, bright_seed, scheme=Scheme.P32, truth=TRUTH):
    leak = truth_leak(scheme, truth)
    dark = simulate_histogram(leak, truth["eta"], McConfig(
        trials=trials, seed=dark_seed, mode=McMode.RATE_EQUATION,
        initial=InitialState.DARK))
    bright = simulate_histogram(leak, truth["eta"], McConfig(
        trials=trials, seed=bright_seed, mode=McMode.RATE_EQUATION,
        initial=InitialState.BRIGHT))
    return dark, bright


def with_background(hist, lambda_bg, seed):
    """Per-trial Poisson background added to every simulated count."""
    rng = np.random.default_rng(seed)
    per_trial = np.repeat(np.arange(len(hist.values)), hist.values)
    shifted = per_trial + rng.poisson(lambda_bg, per_trial.size)
    values = np.bincount(shifted)
    return PhotonHistogram(values=tuple(int(v) for v in values), trials=hist.trials)


def analytic_pair(n_top=80, lambda_bg=None):
    dark, bright = model_distributions(
        CD, TAU_D, TRUTH["eta"], TRUTH["s"], TRUTH["p_impure"],
        lambda_bg=lambda_bg, n_top=n_top)
    mk = lambda v: PhotonHistogram(values=tuple(v / v.sum()))
    return mk(dark), mk(bright)


class TestValidation:
    def test_empty_dark(self):
        dark = PhotonHistogram(values=(0.0, 0.0))
        _, bright = mc_pair(200, 1, 2)
        with pytest.raises(DomainError, match="dark"):
            fit_histograms(dark, bright, CD, TAU_D)

    def test_zero_bright_named(self):
        dark, _ = mc_pair(200, 1, 2)
        bright = PhotonHistogram(values=(0.0, 0.0, 0.0))
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
        as_freq = lambda h: PhotonHistogram(values=[v / h.total for v in h.values])
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
        lines = format_model_csv(res, dark, bright, CD, TAU_D).splitlines()
        assert lines[0] == "n,dark_count,dark_model,bright_count,bright_model"
        columns = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        bins = max(len(dark.values), len(bright.values))
        assert columns.shape == (5, bins)
        assert columns[0].tolist() == list(range(bins))
        for counts, data in ((dark.values, columns[1]), (bright.values, columns[3])):
            assert data.tolist() == list(counts) + [0.0] * (bins - len(counts))
        assert columns[2].sum() == pytest.approx(dark.trials, rel=0.01)


class TestScoringInternals:
    @pytest.mark.parametrize("case", ["p32", "background", "dark_only", "p12_tied"])
    def test_gradient_matches_central_differences(self, case, contaminated):
        scheme = Scheme.P12 if case == "p12_tied" else Scheme.P32
        dark, bright = (contaminated if case == "background"
                        else mc_pair(20000, 9, 1009, scheme))
        if case == "dark_only":
            bright = None
        problem, u0 = fitkit._setup(
            fitkit._counts(dark, "dark"),
            None if bright is None else fitkit._counts(bright, "bright"),
            CD, TAU_D, case == "background", scheme)
        # off the optimum, so that every gradient component is sizable
        u = u0 + 0.05
        _, grad, _ = fitkit._objective(u, problem)
        h = 1e-5
        central = np.array([
            (fitkit._objective(u + h * e, problem)[0]
             - fitkit._objective(u - h * e, problem)[0]) / (2 * h)
            for e in np.eye(len(u))])
        assert len(u) == {"background": 4, "p32": 3}.get(case, 2)
        assert np.abs(central - grad).max() <= 1e-6 * np.abs(grad).min()
        # the objective scores the same table that model_distributions returns
        x = problem.point(u)
        eta, s, p_impure = np.exp(x[:3]).tolist()
        lambda_bg = math.exp(x[3]) if case == "background" else None
        pmfs = model_distributions(CD, TAU_D, eta, s, p_impure, lambda_bg,
                                   n_top=problem.n_top, scheme=scheme)
        nll = 0.0
        for counts, pmf in zip((problem.dark_c, problem.bright_c), pmfs):
            if counts is not None:
                nll -= float(counts @ np.log(np.clip(pmf, 1e-300, None)[: len(counts)]))
        assert fitkit._objective(u, problem)[0] == nll

    @pytest.mark.parametrize("eta_scale", [1.0, 100.0])
    def test_objective_tabulates_log_poisson_once(self, monkeypatch, eta_scale):
        # the pmfs and their derivatives come from one kernel table; at 100x
        # eta, lambda0 ~ 790 and the table passes 1,024 counts (Loader's form)
        from ionread import specfun

        log_poisson = specfun.log_poisson
        calls = []

        def counted(n, mean):
            calls.append(np.size(n))
            return log_poisson(n, mean)

        monkeypatch.setattr(specfun, "log_poisson", counted)
        dark, bright = analytic_pair()
        problem, u0 = fitkit._setup(fitkit._counts(dark, "dark"), fitkit._counts(bright, "bright"),
                                    CD, TAU_D, False, Scheme.P32)
        calls.clear()
        nll, grad, fisher = fitkit._objective(u0 + np.log([eta_scale, 1.0, 1.0]), problem)
        assert math.isfinite(nll) and np.isfinite(grad).all() and np.isfinite(fisher).all()
        assert len(calls) == 1
        assert (calls[0] > 1024) == (eta_scale > 1.0)

    @pytest.mark.parametrize("scheme", [Scheme.P32, Scheme.P12])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_inverse_map_round_trip(self, scheme, data):
        natural = {name: math.exp(data.draw(st.floats(*fitkit._LOG_BOUNDS[name]), label=name))
                   for name in ("eta", "s", "p_impure")}
        leak = detection_params(CD, DetectionConfig(
            scheme=scheme, s=natural["s"], delta=0.0, tau_d=TAU_D, eta=natural["eta"],
            p_pi=natural["p_impure"] / 2, p_minus=natural["p_impure"] / 2))
        logs = fitkit._LeakMap(CD, scheme, TAU_D).natural(*np.log(
            [leak.lambda0, leak.alpha1 / natural["eta"], leak.alpha2 / natural["eta"]]))
        # under p12 the leak rates do not depend on p_impure
        names = ("eta", "s", "p_impure") if scheme is Scheme.P32 else ("eta", "s")
        for name in names:
            assert math.exp(logs[name]) == pytest.approx(natural[name], rel=1e-10), name

    @pytest.mark.parametrize("broken", ["singular", "nan", "no_decrease"])
    def test_bad_fisher_step_not_converged(self, monkeypatch, broken):
        objective = fitkit._objective
        nlls = []

        def patched(u, problem):
            nll, grad, fisher = objective(u, problem)
            nlls.append(nll)
            if broken == "no_decrease":
                # every trial point scores the start's NLL, so step halving
                # runs down to _STEP_TOL without a decrease
                return nlls[0], grad, fisher
            if fisher is not None:
                fisher = 0.0 * fisher if broken == "singular" else np.full_like(fisher, np.nan)
            return nll, grad, fisher

        monkeypatch.setattr(fitkit, "_objective", patched)
        dark, bright = analytic_pair()
        res = fit_histograms(dark, bright, CD, TAU_D)
        if broken == "no_decrease":
            assert len(nlls) > 2  # the start, then trial points ever closer to it
            assert res.neg_log_likelihood == nlls[0]
        assert not res.converged
        assert res.iterations == 0
        assert all(math.isfinite(v) for v in (res.eta, res.s, res.p_impure,
                                               res.neg_log_likelihood))


class TestBounds:
    def test_constrained_optimum_on_p_impure_bound(self):
        # a calibration draw whose p_impure estimate runs to its 1e-12 bound
        truth = dict(eta=0.0012742395194455932, s=0.25957596212057915,
                     p_impure=0.0014634068747623966)
        dark, bright = mc_pair(20000, 3942845130, 3615214040, truth=truth)
        res = fit_histograms(dark, bright, CD, TAU_D)
        assert not res.converged
        assert res.p_impure == pytest.approx(1e-12, rel=1e-6)
        assert res.neg_log_likelihood <= 49252.406

        def nll(eta, s):
            n_d, n_b = len(dark.values), len(bright.values)
            d_pmf, b_pmf = model_distributions(CD, TAU_D, eta, s, res.p_impure,
                                               n_top=max(n_d, n_b) - 1)
            return -float(np.asarray(dark.values) @ np.log(np.clip(d_pmf[:n_d], 1e-300, None))
                          + np.asarray(bright.values) @ np.log(np.clip(b_pmf[:n_b], 1e-300, None)))

        # the free parameters sit at the optimum along the bound
        best = nll(res.eta, res.s)
        for de in (-1, 0, 1):
            for ds in (-1, 0, 1):
                assert nll(res.eta * (1 + 1e-4 * de), res.s * (1 + 1e-4 * ds)) >= best, (de, ds)

    def test_spike_histograms_take_few_steps(self):
        rng = np.random.default_rng(5)
        hists = []
        for _ in range(4):
            values = np.zeros(200)
            at = rng.choice(200, 8, replace=False)
            values[at] = rng.integers(50, 501, 8)
            hists.append(PhotonHistogram(values=tuple(values)))
        # the second dark/bright pair of random spikes, which no parameter point fits
        res = fit_histograms(hists[2], hists[3], CD, 1e-3)
        assert res.iterations <= 40
        assert all(math.isfinite(v) for v in (res.eta, res.s, res.p_impure,
                                               res.neg_log_likelihood))


class TestP12:
    def test_p_impure_held_not_converged(self):
        dark, bright = mc_pair(20000, 9, 1009, Scheme.P12)
        res = fit_histograms(dark, bright, CD, TAU_D, scheme=Scheme.P12)
        assert not res.converged
        assert all(math.isfinite(v) for v in (res.eta, res.s, res.p_impure,
                                               res.neg_log_likelihood))
        assert res.p_impure == pytest.approx(fitkit._P12_P_IMPURE, rel=1e-12)
        assert abs(res.eta - TRUTH["eta"]) / TRUTH["eta"] <= 0.05
        assert abs(res.s - TRUTH["s"]) / TRUTH["s"] <= 0.10


def run_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(ionread.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env=env)


class TestImports:
    def test_fit_loads_no_module_after_model_call(self, tmp_path):
        proc = run_python(
            "import sys\n"
            "from ionread.detmodel import PhotonHistogram, get_species\n"
            "from ionread.fitkit import fit_histograms, model_distributions\n"
            "cd = get_species('cd111')\n"
            "dark, bright = model_distributions(cd, 150e-6, 1.4e-3, 0.25, 1.5e-3, n_top=80)\n"
            "hist = lambda v: PhotonHistogram(values=tuple(v / v.sum()))\n"
            "before = set(sys.modules)\n"
            "assert fit_histograms(hist(dark), hist(bright), cd, 150e-6).converged\n"
            "print(sorted(set(sys.modules) - before), 'scipy.optimize' in sys.modules)\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[] False\n"

    def test_readme_fit_never_loads_scipy_optimize(self, tmp_path):
        (tmp_path / "det.json").write_text(
            '{"species": "cd111", "scheme": "p32", "s": 0.25, "tau_d_us": 150.0,'
            ' "eta": 0.0014, "p_pi": 0.00075, "p_minus": 0.00075}')
        (tmp_path / "det_bright.json").write_text(
            (tmp_path / "det.json").read_text()[:-1] + ', "initial": "bright"}')
        for config, seed, out in (("det.json", 9, "dark.csv"),
                                  ("det_bright.json", 1009, "bright.csv")):
            assert run_command(["mc", "--config", str(tmp_path / config), "--trials", "20000",
                                "--seed", str(seed), "--out", str(tmp_path / out)]) == 0
        (tmp_path / "fit.json").write_text(
            '{"dark_csv": "dark.csv", "bright_csv": "bright.csv",'
            ' "species": "cd111", "scheme": "p32", "tau_d_us": 150.0}')
        proc = run_python(
            "import sys\n"
            "from ionread.cli import run_command\n"
            "code = run_command(['fit', '--config', 'fit.json'])\n"
            "print('scipy.optimize' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n",
            tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "False\n"
        assert "converged: true" in proc.stdout
