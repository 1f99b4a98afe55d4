"""The numpy-only special functions: validated scalar wrappers and the
vectorized forms the count-distribution kernel combines."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ionread.errors import DomainError
from ionread.specfun import (
    log_poisson,
    log_poisson_pmf,
    log_upper_tails,
    poisson_pmf,
    poisson_table,
    reg_inc_gamma,
    tail_window,
)


class TestRegIncGamma:
    def test_a1_is_one_minus_exp(self):
        assert reg_inc_gamma(1, 2.0) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-14)

    def test_zero_x_is_zero(self):
        assert reg_inc_gamma(5, 0.0) == 0.0

    def test_a3_x2_against_quadrature(self):
        # oracle: scipy.integrate.quad of e^{-y} y^2 / 2! on [0, 2]
        # gives 0.3233235838169365
        assert reg_inc_gamma(3, 2.0) == pytest.approx(0.3233235838169365, rel=1e-12)

    def test_matches_quadrature_grid(self):
        from scipy.integrate import quad

        for a in (1, 2, 4, 7, 15, 31):
            for x in (0.1, 1.0, 3.5, a / 2.0, float(a), a + 10.0):
                exact, err = quad(
                    lambda y: math.exp(-y + (a - 1) * math.log(y) - math.lgamma(a)),
                    0.0,
                    x,
                    epsabs=1e-14,
                    epsrel=1e-13,
                    limit=200,
                )
                assert reg_inc_gamma(a, x) == pytest.approx(exact, rel=1e-10, abs=1e-13)

    @given(st.integers(min_value=1, max_value=50))
    def test_saturates_to_one(self, a):
        x = a + 40.0 * math.sqrt(a)
        assert abs(reg_inc_gamma(a, x) - 1.0) <= 1e-12

    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
    )
    def test_recurrence(self, a, x):
        lhs = reg_inc_gamma(a + 1, x)
        term = 0.0 if x == 0.0 else math.exp(-x + a * math.log(x) - math.lgamma(a + 1))
        assert lhs == pytest.approx(reg_inc_gamma(a, x) - term, abs=1e-11)

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    def test_monotone_in_x(self, a, x, dx):
        assert reg_inc_gamma(a, x + dx) >= reg_inc_gamma(a, x) - 1e-15

    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=200.0))
    def test_in_unit_interval(self, a, x):
        p = reg_inc_gamma(a, x)
        assert -1e-12 <= p <= 1.0 + 1e-12

    @given(
        st.integers(min_value=1, max_value=3000),
        st.floats(min_value=0.0, max_value=4000.0),
    )
    def test_log_form_matches_scalar(self, a, x):
        # the array form, one table for the counts 0..a-1, evaluates the
        # same P(a, x) as the scalar wrapper, whose table starts near a-1
        lo, top, fwd = tail_window(0, a - 1, x, x)
        got = log_upper_tails(poisson_table(lo, top, x)[1], fwd)[a - 1]
        p = reg_inc_gamma(a, x)
        assert math.exp(got) == pytest.approx(p, rel=1e-13, abs=1e-300)

    def test_rejects_bad_a(self):
        with pytest.raises(DomainError):
            reg_inc_gamma(0, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma(-2, 1.0)
        with pytest.raises(DomainError):
            reg_inc_gamma(2.5, 1.0)

    def test_rejects_bad_x(self):
        with pytest.raises(DomainError):
            reg_inc_gamma(3, -0.5)
        with pytest.raises(DomainError):
            reg_inc_gamma(3, math.inf)
        with pytest.raises(DomainError):
            reg_inc_gamma(3, math.nan)


class TestPoissonPmf:
    def test_zero_count(self):
        for lam in (0.3, 1.0, 12.0, 500.0):
            assert poisson_pmf(0, lam) == pytest.approx(math.exp(-lam), rel=1e-13)

    def test_degenerate_mean_zero(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_normalization_at_12(self):
        total = math.fsum(poisson_pmf(n, 12.0) for n in range(201))
        assert abs(total - 1.0) <= 1e-12

    @given(st.floats(min_value=0.01, max_value=900.0))
    def test_normalization_truncated(self, mean):
        top = int(mean + 12.0 * math.sqrt(mean) + 30.0)
        total = math.fsum(poisson_pmf(n, mean) for n in range(top + 1))
        assert abs(total - 1.0) <= 1e-12

    def test_no_overflow_huge_n(self):
        val = poisson_pmf(10**6, 1000.0)
        assert val == 0.0 or val > 0.0
        assert math.isfinite(log_poisson_pmf(10**6, 1000.0))
        # the peak region of a large mean stays finite too
        assert math.isfinite(poisson_pmf(10**6, 10.0**6))

    @given(st.integers(min_value=0, max_value=5000), st.floats(min_value=0.0, max_value=5000.0))
    def test_array_form_matches_scalar(self, n, mean):
        counts = np.arange(n + 1, dtype=np.float64)
        assert log_poisson(counts, mean)[n] == log_poisson_pmf(n, mean)

    def test_rejects_negative_mean(self):
        with pytest.raises(DomainError):
            poisson_pmf(2, -1.0)

    def test_rejects_negative_n(self):
        with pytest.raises(DomainError):
            poisson_pmf(-1, 1.0)
