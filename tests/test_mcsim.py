import math

import numpy as np
import pytest

from ionread.detmodel import (
    LeakParams,
    histogram_cutoff,
    p_dark,
    pmf_arrays,
)
from ionread.errors import ConfigError, DomainError
from ionread.mcsim import (
    CHUNK,
    InitialState,
    McConfig,
    McMode,
    format_histogram_csv,
    parse_histogram_csv,
    read_histogram_csv,
    simulate_histogram,
)


def analytic_tv(hist, params, eta, initial):
    """TV distance between a simulated histogram and the closed forms."""
    top = max(len(hist.values) - 1, histogram_cutoff(params.lambda0))
    dark, bright = pmf_arrays(params, eta, top)
    target = dark if initial is InitialState.DARK else bright
    freq = np.zeros(top + 1)
    freq[: len(hist.values)] = np.asarray(hist.values) / hist.trials
    return 0.5 * float(np.abs(freq - target).sum())


class TestConfig:
    def test_valid(self):
        cfg = McConfig(trials=10, seed=1, mode=McMode.RATE_EQUATION,
                       initial=InitialState.DARK)
        assert cfg.trials == 10

    @pytest.mark.parametrize("trials", [0, -5])
    def test_bad_trials(self, trials):
        with pytest.raises((DomainError, ValueError)):
            McConfig(trials=trials, seed=1, mode=McMode.RATE_EQUATION,
                     initial=InitialState.DARK)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        params = LeakParams(9.0, 2e-3, 1e-3)
        cfg = McConfig(trials=30000, seed=314, mode=McMode.RATE_EQUATION,
                       initial=InitialState.BRIGHT)
        a = simulate_histogram(params, 0.2, cfg)
        b = simulate_histogram(params, 0.2, cfg)
        assert a.values == b.values
        assert a.trials == b.trials == 30000

    def test_seed_changes_histogram(self):
        params = LeakParams(9.0, 2e-3, 1e-3)
        base = dict(trials=30000, mode=McMode.RATE_EQUATION,
                    initial=InitialState.BRIGHT)
        a = simulate_histogram(params, 0.2, McConfig(seed=314, **base))
        b = simulate_histogram(params, 0.2, McConfig(seed=315, **base))
        assert a.values != b.values

    def test_chunked_equals_single_pass(self):
        # trial count straddling several chunks must give the same result
        # as the same seed at a count below one chunk, prefix-wise there is
        # no guarantee, but splitting must not depend on accumulation order
        params = LeakParams(6.0, 1e-2, 0.0)
        cfg = McConfig(trials=CHUNK * 2 + 123, seed=77,
                       mode=McMode.RATE_EQUATION, initial=InitialState.DARK)
        a = simulate_histogram(params, 0.1, cfg)
        b = simulate_histogram(params, 0.1, cfg)
        assert a.values == b.values


class TestAgainstAnalytic:
    def test_bright_no_leak_poisson_mean(self):
        params = LeakParams(12.0, 0.0, 0.0)
        cfg = McConfig(trials=200000, seed=5, mode=McMode.RATE_EQUATION,
                       initial=InitialState.BRIGHT)
        hist = simulate_histogram(params, 1.0, cfg)
        ns = np.arange(len(hist.values))
        mean = float(ns @ np.asarray(hist.values)) / hist.trials
        assert abs(mean - 12.0) <= 4.0 * math.sqrt(12.0 / cfg.trials)

    def test_dark_no_leak_all_zero(self):
        params = LeakParams(12.0, 0.0, 0.0)
        for mode in (McMode.RATE_EQUATION, McMode.PHOTON_LEVEL):
            cfg = McConfig(trials=5000, seed=6, mode=mode,
                           initial=InitialState.DARK)
            hist = simulate_histogram(params, 0.3, cfg)
            assert hist.values[0] == 5000
            assert all(v == 0 for v in hist.values[1:])

    @pytest.mark.parametrize("a", [0.0, 0.01, 0.05, 0.2])
    def test_tv_against_closed_form(self, a):
        params = LeakParams(12.0, a * 0.01, 0.0)
        cfg = McConfig(trials=10**6, seed=22, mode=McMode.RATE_EQUATION,
                       initial=InitialState.DARK)
        hist = simulate_histogram(params, 0.01, cfg)
        assert analytic_tv(hist, params, 0.01, InitialState.DARK) <= 0.002

    @pytest.mark.parametrize("a", [0.05, 0.001])
    def test_point_mass_rate(self, a):
        params = LeakParams(12.0, a, 0.0)
        trials = 400000
        cfg = McConfig(trials=trials, seed=99, mode=McMode.RATE_EQUATION,
                       initial=InitialState.DARK)
        hist = simulate_histogram(params, 1.0, cfg)
        point = math.exp(-a * 12.0)
        exact = p_dark(0, params, 1.0)
        observed = hist.values[0] / trials
        sigma = math.sqrt(exact * (1 - exact) / trials)
        # the zero bin is the no-leak point mass plus the (positive,
        # O(a)) chance a leaked trial still emitted nothing
        assert abs(observed - exact) <= 5 * sigma
        assert observed >= point - 5 * sigma
        assert exact - point <= 1.2 * a

    def test_modes_agree(self):
        params = LeakParams(8.0, 5e-4, 5e-4)
        eta = 0.01
        trials = 10**6
        hists = {}
        for mode in (McMode.RATE_EQUATION, McMode.PHOTON_LEVEL):
            for initial in (InitialState.DARK, InitialState.BRIGHT):
                cfg = McConfig(trials=trials, seed=1234, mode=mode,
                               initial=initial)
                hists[mode, initial] = simulate_histogram(params, eta, cfg)
        for initial in (InitialState.DARK, InitialState.BRIGHT):
            a = hists[McMode.RATE_EQUATION, initial]
            b = hists[McMode.PHOTON_LEVEL, initial]
            top = max(len(a.values), len(b.values))
            fa = np.zeros(top)
            fb = np.zeros(top)
            fa[: len(a.values)] = np.asarray(a.values) / trials
            fb[: len(b.values)] = np.asarray(b.values) / trials
            tv = 0.5 * float(np.abs(fa - fb).sum())
            # multinomial TV noise at 1e6 trials over ~40 occupied bins
            assert tv <= 3 * 0.002, (initial, tv)

    def test_bright_leak_shortens_counts(self):
        lean = LeakParams(12.0, 0.0, 0.0)
        leaky = LeakParams(12.0, 0.0, 0.1)
        cfg = McConfig(trials=100000, seed=17, mode=McMode.RATE_EQUATION,
                       initial=InitialState.BRIGHT)
        h0 = simulate_histogram(lean, 1.0, cfg)
        h1 = simulate_histogram(leaky, 1.0, cfg)
        mean0 = float(np.arange(len(h0.values)) @ np.asarray(h0.values)) / cfg.trials
        mean1 = float(np.arange(len(h1.values)) @ np.asarray(h1.values)) / cfg.trials
        assert mean1 < mean0 - 1.0

    def test_leak_fraction_validity_guard(self):
        params = LeakParams(12.0, 1.5, 0.0)
        cfg = McConfig(trials=10, seed=1, mode=McMode.RATE_EQUATION,
                       initial=InitialState.DARK)
        with pytest.raises(DomainError):
            simulate_histogram(params, 1.0, cfg)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        params = LeakParams(7.0, 1e-3, 1e-3)
        cfg = McConfig(trials=20000, seed=8, mode=McMode.PHOTON_LEVEL,
                       initial=InitialState.BRIGHT)
        hist = simulate_histogram(params, 0.05, cfg)
        path = tmp_path / "hist.csv"
        path.write_text(format_histogram_csv(hist))
        back = read_histogram_csv(path)
        assert back.values == hist.values
        assert back.trials == hist.trials

    def test_no_metadata_line_takes_trials_from_the_column_sum(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("n,count\n0,60\n2,40\n")
        back = read_histogram_csv(path)
        assert back.values == (60.0, 0.0, 40.0)
        assert back.trials == 100 and back.meta == {}

    def test_format_shape(self):
        params = LeakParams(5.0, 0.0, 0.0)
        cfg = McConfig(trials=1000, seed=3, mode=McMode.RATE_EQUATION,
                       initial=InitialState.BRIGHT)
        hist = simulate_histogram(params, 1.0, cfg)
        text = format_histogram_csv(hist)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# trials=1000 seed=")
        assert lines[1] == "n,count"
        for row in lines[2:]:
            n, count = row.split(",")
            assert int(n) >= 0 and int(count) >= 0

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "n,count\n",
            "# trials=10\nn,count\nx,1\n",
            "# trials=10\nn,count\n0,-3\n",
            "# trials=10\nn,count\n0,5\n0,5\n",
            "# trials=abc\nn,count\n0,10\n",
            "# trials=10 seed=abc\nn,count\n0,10\n",
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ConfigError):
            parse_histogram_csv(text)
