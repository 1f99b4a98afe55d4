import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ionread.angular import Scheme
from ionread.detmodel import LeakParams, get_species, histogram_cutoff, pmf_arrays
from ionread.errors import DomainError
from ionread.fidelity import (
    DiscriminationResult,
    _cdf_pair,
    _grid_optimum,
    approx_fidelity,
    best_threshold,
    fidelity_curve,
    floor_leak_ratios,
    format_curve_csv,
    max_clock_fidelity,
    optimize_at,
    optimize_detection,
)
from ionread.specfun import _cutoffs

TWO_PI = 2.0 * math.pi

# printed summary-table fidelities, percent, rows = species, cols = eta
PRINTED_P12 = {
    "cd111": {1e-3: 96.7, 1e-2: 99.65, 0.3: 99.988},
    "yb171": {1e-3: 99.33, 1e-2: 99.93, 0.3: 99.998},
    "hg199": {1e-3: 99.43, 1e-2: 99.943, 0.3: 99.998},
}


def fidelity_at(d: int, params: LeakParams, eta: float) -> DiscriminationResult:
    """Both one-sided fidelities and their minimum at threshold d, summed
    from pmf_arrays on 0..d: the per-threshold oracle of the scans."""
    dark, bright = pmf_arrays(params, eta, d)
    dark_fid = min(math.fsum(dark), 1.0)
    bright_fid = max(min(1.0 - math.fsum(bright), 1.0), 0.0)
    return DiscriminationResult(
        d=d,
        lambda0_opt=params.lambda0,
        fidelity=min(dark_fid, bright_fid),
        dark_fidelity=dark_fid,
        bright_fidelity=bright_fid,
    )


class TestFidelityAt:
    def test_no_leak_threshold_zero(self):
        params = LeakParams(5.6, 0.0, 0.0)
        res = fidelity_at(0, params, 1.0)
        assert res.dark_fidelity == 1.0
        assert res.bright_fidelity == pytest.approx(1.0 - math.exp(-5.6), rel=1e-12)
        assert res.fidelity == res.bright_fidelity

    def test_minimum_of_both_sides(self):
        params = LeakParams(12.0, 0.02, 0.02)
        res = fidelity_at(3, params, 1.0)
        assert res.fidelity == min(res.dark_fidelity, res.bright_fidelity)
        assert 0.0 < res.fidelity < 1.0

    def test_cd_headline_point(self):
        a1, a2 = floor_leak_ratios(get_species("cd111"), Scheme.P32)
        params = LeakParams(5.6, a1, a2)
        res = fidelity_at(0, params, 1e-3)
        assert res.fidelity == pytest.approx(0.995, abs=1e-3)

    def test_interior_threshold_matches_scan(self):
        params = LeakParams(12.0, 0.01, 0.01)
        best = best_threshold(params, 1.0)
        assert best.d >= 1
        top = histogram_cutoff(12.0)
        scan = max(
            (fidelity_at(d, params, 1.0) for d in range(top + 1)),
            key=lambda r: r.fidelity,
        )
        assert best.fidelity == pytest.approx(scan.fidelity, abs=0)
        assert best.d == scan.d


class TestOptimizeDetection:
    def test_cd_p32_low_collection(self):
        res = optimize_detection(get_species("cd111"), Scheme.P32, 1e-3)
        assert abs(res.fidelity - 0.995) <= 1e-3
        assert 5.0 <= res.lambda0_opt <= 6.0

    def test_cd_p32_high_collection(self):
        res = optimize_detection(get_species("cd111"), Scheme.P32, 0.3)
        assert 0.99995 <= res.fidelity <= 0.99998

    def test_cd_p12_low_collection(self):
        res = optimize_detection(get_species("cd111"), Scheme.P12, 1e-3)
        assert abs(res.fidelity - 0.967) <= 3e-3

    def test_deterministic(self):
        a = optimize_detection(get_species("yb171"), Scheme.P12, 0.01)
        b = optimize_detection(get_species("yb171"), Scheme.P12, 0.01)
        assert a == b

    def test_eta_errors(self):
        for eta in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                optimize_detection(get_species("cd111"), Scheme.P32, eta)

    def test_local_optimality_in_lambda0(self):
        species = get_species("cd111")
        a1, a2 = floor_leak_ratios(species, Scheme.P32)
        res = optimize_detection(species, Scheme.P32, 0.01)
        for factor in (0.95, 1.05):
            perturbed = LeakParams(res.lambda0_opt * factor, a1, a2)
            alt = best_threshold(perturbed, 0.01)
            assert alt.fidelity <= res.fidelity + 1e-6

    def test_table_reproduction(self):
        for name, cols in PRINTED_P12.items():
            species = get_species(name)
            for eta, printed in cols.items():
                res = optimize_detection(species, Scheme.P12, eta)
                dev_pp = abs(res.fidelity * 100.0 - printed)
                assert dev_pp <= 0.3, (name, eta, res.fidelity, printed)


class TestMonotonicity:
    @given(st.integers(min_value=0, max_value=12))
    def test_one_sided_fidelities_move_oppositely(self, d):
        a1, a2 = 2e-3, 1e-3
        grid = [4.0, 8.0, 12.0, 20.0, 30.0]
        rows = [fidelity_at(d, LeakParams(lam, a1, a2), 1.0) for lam in grid]
        for lo, hi in zip(rows, rows[1:]):
            assert hi.dark_fidelity <= lo.dark_fidelity + 1e-12
            assert hi.bright_fidelity >= lo.bright_fidelity - 1e-12


class TestApproxFidelity:
    def test_cd_floor_point(self):
        approx = approx_fidelity(1e-3, 1.066e-6)
        assert approx.fidelity == pytest.approx(0.9927, abs=5e-4)
        assert approx.lambda0 == pytest.approx(math.log(1e-3 / 1.066e-6), rel=1e-12)

    def test_vanishing_leak_limit(self):
        assert approx_fidelity(1.0, 1e-300).fidelity == pytest.approx(1.0, abs=1e-290)

    def test_domain(self):
        with pytest.raises(DomainError):
            approx_fidelity(1e-3, 1e-3)
        with pytest.raises(DomainError):
            approx_fidelity(1e-3, 2e-3)
        with pytest.raises(DomainError):
            approx_fidelity(0.0, 1e-6)
        with pytest.raises(DomainError):
            approx_fidelity(math.inf, 1e-3)

    def test_tracks_numeric_within_factor_two(self):
        species = get_species("cd111")
        a1, _ = floor_leak_ratios(species, Scheme.P32)
        for eta in (1e-3, 1e-2, 1e-1, 0.3):
            numeric = optimize_detection(species, Scheme.P32, eta)
            approx = approx_fidelity(eta, a1)
            ratio = (1.0 - approx.fidelity) / (1.0 - numeric.fidelity)
            assert 0.5 <= ratio <= 2.0, (eta, ratio)


class TestClockCeiling:
    def test_cd_value_exact(self):
        f = max_clock_fidelity(TWO_PI * 60e6, TWO_PI * 800e6)
        assert f == 0.999375
        assert round(f * 100, 2) == 99.94

    def test_unit_ratio(self):
        assert max_clock_fidelity(2.0, 1.0) == pytest.approx(5.0 / 9.0, rel=1e-15)

    def test_vanishing_linewidth(self):
        assert max_clock_fidelity(1e-12, 1.0) == pytest.approx(1.0, abs=1e-20)

    def test_domain(self):
        with pytest.raises(DomainError):
            max_clock_fidelity(0.0, 1.0)
        with pytest.raises(DomainError):
            max_clock_fidelity(1.0, -2.0)
        with pytest.raises(DomainError):
            max_clock_fidelity(math.inf, 1.0)


class TestFidelityCurve:
    def test_rows_and_consistency(self):
        species = get_species("cd111")
        grid = [1e-3, 1e-2, 0.1, 0.3]
        rows = fidelity_curve(species, Scheme.P32, grid)
        assert [r["eta"] for r in rows] == grid
        # infidelity falls by decades as collection improves
        inf = [r["infidelity_numeric"] for r in rows]
        assert all(b <= a for a, b in zip(inf, inf[1:]))
        assert inf[0] / inf[-1] > 50
        single = optimize_detection(species, Scheme.P32, 1e-3)
        assert rows[0]["infidelity_numeric"] == 1.0 - single.fidelity
        assert rows[0]["lambda0_opt"] == single.lambda0_opt
        assert rows[0]["d_opt"] == single.d

    def test_csv_header(self):
        rows = fidelity_curve(get_species("cd111"), Scheme.P32, [0.1])
        text = format_curve_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "eta,infidelity_numeric,infidelity_approx,lambda0_opt,d_opt"
        assert len(lines) == 2

    def test_bad_eta_rejected(self):
        with pytest.raises(DomainError):
            fidelity_curve(get_species("cd111"), Scheme.P32, [0.1, 0.0])


class TestOptimizeAt:
    def test_direct_leak_optimization(self):
        res = optimize_at(1.0655868719708028e-6, 0.0, 1e-3)
        assert res.d == 0
        assert res.lambda0_opt == pytest.approx(5.37076296, abs=2e-4)
        assert res.fidelity == pytest.approx(0.995349006, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha1,alpha2,eta",
        [(1.0655868719708028e-6, 0.0, 1e-3), (2e-5, 3e-6, 0.01), (0.02, 0.05, 1.0)],
    )
    def test_grid_matches_per_level_scans(self, alpha1, alpha2, eta):
        # the grid step alone, before the golden section; each grid row
        # must scan exactly as best_threshold does
        points = 40
        res, _, _ = _grid_optimum(alpha1, alpha2, eta, points)
        hi = 3.0 * math.log(1.0 / (alpha1 / eta))  # as optimize_at bounds it
        scans = [
            best_threshold(LeakParams(hi / points * (i + 1), alpha1, alpha2), eta)
            for i in range(points)
        ]
        ref = max(scans, key=lambda r: r.fidelity)
        assert (res.d, res.lambda0_opt) == (ref.d, ref.lambda0_opt)
        assert res.fidelity == pytest.approx(ref.fidelity, rel=0, abs=1e-14)

    @pytest.mark.parametrize("alpha1,eta", [(1.0655868719708028e-6, 1e-3), (2e-5, 0.01), (0.02, 1.0), (1e-9, 1.0)])
    def test_grid_cutoffs_match_scalar_helper(self, alpha1, eta):
        hi = 3.0 * math.log(1.0 / (alpha1 / eta))
        grid = hi / 200 * np.arange(1, 201)
        assert _cutoffs(grid).tolist() == [histogram_cutoff(lam0) for lam0 in grid]


class TestCdfPair:
    @example(math.log(1e6), math.log(0.02), math.log(0.3))
    @example(math.log(1e6), math.log(1e-6), math.log(1e-6))
    @example(math.log(1e-3), math.log(0.3), math.log(0.3))
    @given(
        st.floats(min_value=math.log(1e-3), max_value=math.log(1e6)),
        st.floats(min_value=math.log(1e-6), max_value=math.log(0.3)),
        st.floats(min_value=math.log(1e-6), max_value=math.log(0.3)),
    )
    def test_cdfs_nondecreasing_and_capped(self, log_lambda0, log_a1, log_a2):
        params = LeakParams(math.exp(log_lambda0), math.exp(log_a1), math.exp(log_a2))
        for cdf in _cdf_pair(*pmf_arrays(params, 1.0)):
            assert np.all(np.diff(cdf) >= 0.0)
            assert np.all(cdf <= 1.0)
