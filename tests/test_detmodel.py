import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.integrate import quad

from ionread.angular import Scheme
from ionread.detmodel import (
    BUILTIN_SPECIES,
    DetectionConfig,
    HistKind,
    IonSpecies,
    LeakParams,
    PhotonHistogram,
    analytic_histograms,
    count_pmfs,
    dark_leak_density,
    dark_point_mass,
    detection_params,
    get_species,
    histogram_cutoff,
    p_bright,
    p_dark,
    pmf_arrays,
    species_from_dict,
)
from ionread.errors import ConfigError, DomainError
from ionread.specfun import poisson_pmf, reg_inc_gamma

TWO_PI = 2.0 * math.pi

REF_CONFIG = DetectionConfig(
    scheme=Scheme.P32,
    s=0.25,
    delta=0.0,
    tau_d=150e-6,
    eta=1.4e-3,
    p_pi=7.5e-4,
    p_minus=7.5e-4,
)


def quad_p_dark(n, lambda0, a):
    """Defining convolution: point mass at zero detected photons plus the
    exponential leak-time density pushed through the Poisson kernel."""
    point = math.exp(-a * lambda0) * (1.0 if n == 0 else 0.0)
    integral, _ = quad(
        lambda lam: poisson_pmf(n, lam) * a * math.exp((lam - lambda0) * a),
        0.0,
        lambda0,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
    )
    return point + integral


def quad_p_bright(n, lambda0, b):
    point = math.exp(-b * lambda0) * poisson_pmf(n, lambda0)
    integral, _ = quad(
        lambda lam: poisson_pmf(n, lam) * b * math.exp(-b * lam),
        0.0,
        lambda0,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
    )
    return point + integral


class TestIonSpecies:
    def test_builtin_registry(self):
        assert set(BUILTIN_SPECIES) == {"cd111", "yb171", "hg199"}
        cd = get_species("cd111")
        assert cd.nuclear_spin == 0.5
        assert cd.gamma_p32 == pytest.approx(TWO_PI * 60e6, rel=1e-15)
        assert cd.omega_hfs == pytest.approx(TWO_PI * 14.5e9, rel=1e-15)
        assert cd.omega_hfp32 == pytest.approx(TWO_PI * 0.8e9, rel=1e-15)
        assert cd.wavelength_p32_nm == 214.5
        yb = get_species("yb171")
        assert yb.gamma_p12 == pytest.approx(TWO_PI * 23e6, rel=1e-15)
        assert yb.gamma_p32 is None
        hg = get_species("hg199")
        assert hg.omega_hfs == pytest.approx(TWO_PI * 40.5e9, rel=1e-15)

    def test_unknown_species_names_known(self):
        with pytest.raises(DomainError, match="cd111"):
            get_species("xe999")

    def test_species_file_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            species_from_dict("x1", {"nuclear_spin": 0.5, "omega_hfs_ghz": 10, "bogus": 3})

    def test_species_file_missing_required(self):
        with pytest.raises(ConfigError, match="omega_hfs_ghz"):
            species_from_dict("x1", {"nuclear_spin": 0.5})

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(DomainError):
            IonSpecies.from_frequencies("bad", 0.5, omega_hfs_ghz=-1.0)

    @pytest.mark.parametrize("spin,omega_hfs,missing", [(0.5, None, "omega_hfs"),
                                                        (None, 1e9, "nuclear_spin")])
    def test_missing_required_field_rejected(self, spin, omega_hfs, missing):
        with pytest.raises(DomainError, match=missing):
            IonSpecies("x", spin, omega_hfs, gamma_p32=1e8, omega_hfp32=1e9)


class TestDetectionConfig:
    def test_valid(self):
        assert REF_CONFIG.eta == 1.4e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s=-0.1),
            dict(tau_d=0.0),
            dict(tau_d=-1e-6),
            dict(eta=0.0),
            dict(eta=1.2),
            dict(eta=-0.5),
            dict(p_pi=0.6, p_minus=0.5),
            dict(p_pi=-0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        base = dict(scheme=Scheme.P32, s=0.25, delta=0.0, tau_d=150e-6, eta=1e-3,
                    p_pi=0.0, p_minus=0.0)
        base.update(kwargs)
        with pytest.raises(DomainError):
            DetectionConfig(**base)


class TestDetectionParams:
    def test_reference_lambda0(self):
        leak = detection_params(get_species("cd111"), REF_CONFIG)
        # closed-form oracle: tau_d*eta*s*(gamma/2)/(1+s) evaluated once
        # by hand and frozen; the printed headline value is ~7.9
        assert leak.lambda0 == pytest.approx(7.916813487046278, rel=1e-12)
        assert leak.lambda0 == pytest.approx(7.9, abs=0.05)

    def test_cd_alpha1_floor(self):
        config = DetectionConfig(
            scheme=Scheme.P32, s=1e-9, delta=0.0, tau_d=150e-6, eta=1.0,
            p_pi=0.0, p_minus=0.0,
        )
        leak = detection_params(get_species("cd111"), config)
        # (2/9)(gamma/2 Delta1)^2 at gamma/2pi=60 MHz, Delta1/2pi=13.7 GHz
        closed = (2.0 / 9.0) * (60e6 / (2 * 13.7e9)) ** 2
        assert leak.alpha1 == pytest.approx(closed, rel=1e-6)
        assert abs(leak.alpha1 - 1.07e-6) / 1.07e-6 < 0.05

    def test_pure_polarization_kills_alpha2(self):
        config = DetectionConfig(
            scheme=Scheme.P32, s=0.3, delta=0.0, tau_d=100e-6, eta=0.01,
            p_pi=0.0, p_minus=0.0,
        )
        leak = detection_params(get_species("cd111"), config)
        assert leak.alpha2 == 0.0

    @given(st.floats(min_value=0.05, max_value=20.0))
    def test_tau_homogeneity(self, scale):
        base = detection_params(get_species("cd111"), REF_CONFIG)
        scaled_config = DetectionConfig(
            scheme=Scheme.P32, s=0.25, delta=0.0, tau_d=150e-6 * scale,
            eta=1.4e-3, p_pi=7.5e-4, p_minus=7.5e-4,
        )
        scaled = detection_params(get_species("cd111"), scaled_config)
        assert scaled.lambda0 == pytest.approx(base.lambda0 * scale, rel=1e-12)
        assert scaled.alpha1 == pytest.approx(base.alpha1, rel=1e-12)
        assert scaled.alpha2 == pytest.approx(base.alpha2, rel=1e-12)

    @pytest.mark.parametrize("name", ["cd111", "yb171", "hg199"])
    def test_p12_bright_leak_dominates(self, name):
        config = DetectionConfig(
            scheme=Scheme.P12, s=0.5, delta=0.0, tau_d=100e-6, eta=0.01,
            p_pi=0.0, p_minus=0.0,
        )
        leak = detection_params(get_species(name), config)
        assert leak.alpha2 > leak.alpha1 > 0.0

    def test_p32_fields_missing(self):
        config = DetectionConfig(
            scheme=Scheme.P32, s=0.25, delta=0.0, tau_d=150e-6, eta=1e-3,
            p_pi=0.0, p_minus=0.0,
        )
        with pytest.raises(DomainError):
            detection_params(get_species("yb171"), config)

    def test_p12_needs_spin_half(self):
        fake = IonSpecies.from_frequencies(
            "fake", 1.5, omega_hfs_ghz=10.0, gamma_p12_mhz=20.0,
            omega_hfp12_ghz=1.0, wavelength_p12_nm=300.0,
        )
        config = DetectionConfig(
            scheme=Scheme.P12, s=0.25, delta=0.0, tau_d=150e-6, eta=1e-3,
            p_pi=0.0, p_minus=0.0,
        )
        with pytest.raises(DomainError):
            detection_params(fake, config)

    def test_detuning_reduces_rate(self):
        detuned = DetectionConfig(
            scheme=Scheme.P32, s=0.25, delta=TWO_PI * 30e6, tau_d=150e-6,
            eta=1.4e-3, p_pi=0.0, p_minus=0.0,
        )
        on_res = detection_params(get_species("cd111"), REF_CONFIG)
        off_res = detection_params(get_species("cd111"), detuned)
        assert off_res.lambda0 < on_res.lambda0


class TestDarkLeakDensity:
    def test_total_probability(self):
        params = LeakParams(12.0, 0.05, 0.0)
        integral, _ = quad(lambda lam: dark_leak_density(lam, params, 1.0), 1e-12, 12.0,
                           epsabs=1e-13, epsrel=1e-12)
        total = integral + dark_point_mass(params, 1.0)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_zero_alpha(self):
        params = LeakParams(12.0, 0.0, 0.0)
        assert dark_leak_density(5.0, params, 1.0) == 0.0
        assert dark_point_mass(params, 1.0) == 1.0

    def test_value_at_endpoint(self):
        params = LeakParams(12.0, 0.05, 0.0)
        assert dark_leak_density(12.0, params, 1.0) == pytest.approx(0.05, rel=1e-14)

    def test_domain(self):
        params = LeakParams(12.0, 0.05, 0.0)
        with pytest.raises(DomainError):
            dark_leak_density(0.0, params, 1.0)
        with pytest.raises(DomainError):
            dark_leak_density(12.5, params, 1.0)


class TestCountDistributions:
    def test_dark_no_leak_is_delta(self):
        params = LeakParams(12.0, 0.0, 0.0)
        assert p_dark(0, params, 1.0) == 1.0
        assert p_dark(3, params, 1.0) == 0.0

    def test_dark_zero_bin_value(self):
        params = LeakParams(12.0, 0.05, 0.0)
        p0 = p_dark(0, params, 1.0)
        closed = math.exp(-0.6) * (1.0 + (0.05 / 0.95) * reg_inc_gamma(1, 0.95 * 12.0))
        assert p0 == pytest.approx(closed, rel=1e-12)
        # headline number quoted to five figures
        assert p0 == pytest.approx(0.57766, abs=2e-4)

    def test_bright_no_leak_is_poisson(self):
        params = LeakParams(12.0, 0.0, 0.0)
        for n in (0, 1, 7, 20):
            assert p_bright(n, params, 1.0) == poisson_pmf(n, 12.0)

    def test_normalization(self):
        params = LeakParams(12.0, 0.05, 0.05)
        top = histogram_cutoff(12.0)
        dark = math.fsum(p_dark(n, params, 1.0) for n in range(top + 1))
        bright = math.fsum(p_bright(n, params, 1.0) for n in range(top + 1))
        assert abs(dark - 1.0) <= 1e-9
        assert abs(bright - 1.0) <= 1e-9

    def test_normalization_large_rate(self):
        params = LeakParams(2000.0, 0.01, 0.01)
        top = histogram_cutoff(2000.0)
        dark = math.fsum(p_dark(n, params, 1.0) for n in range(top + 1))
        bright = math.fsum(p_bright(n, params, 1.0) for n in range(top + 1))
        assert abs(dark - 1.0) <= 1e-9
        assert abs(bright - 1.0) <= 1e-9

    @pytest.mark.parametrize("lambda0", [1e5, 1e6])
    @pytest.mark.parametrize("a1,a2", [(0.0, 0.0), (1e-6, 1e-6), (1e-3, 1e-3)])
    def test_kernel_normalized_at_huge_rate(self, lambda0, a1, a2):
        counts = np.arange(histogram_cutoff(lambda0) + 1)
        for pmf in count_pmfs(counts, lambda0, a1, a2):
            assert np.all(np.isfinite(pmf))
            assert abs(math.fsum(pmf) - 1.0) <= 1e-9

    @pytest.mark.parametrize("lambda0,a1", [(1e3, 0.79), (1e4, 0.35), (1e6, 0.04)])
    def test_kernel_normalized_past_gammainc(self, lambda0, a1):
        # P(n+1, (1-a1)*lambda0) is far below 1e-308 where the dark pmf lives
        for pmf in pmf_arrays(LeakParams(lambda0, a1, 0.0), 1.0):
            assert np.all(np.isfinite(pmf))
            assert abs(math.fsum(pmf) - 1.0) <= 1e-9

    @given(
        st.floats(min_value=math.log(1e-3), max_value=math.log(1e4)),
        st.floats(min_value=0.0, max_value=0.999),
        st.floats(min_value=0.0, max_value=0.3),
    )
    @example(math.log(1e5), 0.5, 0.3)
    @example(math.log(1e6), 0.01, 0.0)
    @example(math.log(1e6), 0.35, 1e-3)
    @example(math.log(1e6), 0.9, 0.3)
    def test_kernel_normalized_over_domain(self, log_lambda0, a1, a2):
        lambda0 = math.exp(log_lambda0)
        counts = np.arange(histogram_cutoff(lambda0) + 1)
        for pmf in count_pmfs(counts, lambda0, a1, a2):
            assert np.all(np.isfinite(pmf))
            assert abs(math.fsum(pmf) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n,lambda0,a1,a2", [
        (11230, 1e4, 1e-6, 0.0),
        (11230, 1e4, 0.35, 0.0),
        (1150, 1e3, 0.79, 0.0),
        (60, 12.0, 0.05, 0.05),
        (11230, 1e4, 0.0, 1e-3),
    ])
    def test_deep_tail_bins_match_mpmath(self, n, lambda0, a1, a2):
        # 40-digit closed forms; gammainc(n+1, 0, x) is P(n+1, x)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            lam, a, b = mpmath.mpf(lambda0), mpmath.mpf(a1), mpmath.mpf(a2)
            dark = (mpmath.exp(-a * lam) * a / (1 - a) ** (n + 1)
                    * mpmath.gammainc(n + 1, 0, (1 - a) * lam, regularized=True))
            bright = (mpmath.exp(-(1 + b) * lam) * lam**n / mpmath.factorial(n)
                      + b / (1 + b) ** (n + 1) * mpmath.gammainc(n + 1, 0, (1 + b) * lam, regularized=True))
        got_dark, got_bright = count_pmfs(np.arange(n + 1), lambda0, a1, a2)
        assert got_dark[n] == pytest.approx(float(dark), rel=1e-12, abs=0.0)
        assert got_bright[n] == pytest.approx(float(bright), rel=1e-12, abs=0.0)

    def test_far_tail_bin_is_zero(self):
        # an underflowed P far past the cutoff is negligible, not an error
        assert p_dark(10**6, LeakParams(12.0, 0.05, 0.0), 1.0) == 0.0

    def test_quadrature_oracle_20_random_tuples(self):
        rng = np.random.Generator(np.random.Philox(20260816))
        for _ in range(20):
            lambda0 = float(rng.uniform(1.0, 40.0))
            a = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.3))))
            b = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.3))))
            params = LeakParams(lambda0, a, b)
            top = histogram_cutoff(lambda0)
            for n in range(top + 1):
                assert abs(p_dark(n, params, 1.0) - quad_p_dark(n, lambda0, a)) < 1e-10
                assert abs(p_bright(n, params, 1.0) - quad_p_bright(n, lambda0, b)) < 1e-10

    def test_bright_zero_bin_quadrature(self):
        params = LeakParams(12.0, 0.0, 0.05)
        assert abs(p_bright(0, params, 1.0) - quad_p_bright(0, 12.0, 0.05)) < 1e-10

    def test_eta_scales_fractions(self):
        # alpha/eta is the only combination that enters; doubling both
        # alpha and eta leaves the distribution unchanged
        p_a = p_dark(2, LeakParams(9.0, 0.02, 0.0), 0.5)
        p_b = p_dark(2, LeakParams(9.0, 0.04, 0.0), 1.0)
        assert p_a == pytest.approx(p_b, rel=1e-14)

    def test_leak_fraction_validity_guard(self):
        params = LeakParams(12.0, 1.5, 0.0)
        with pytest.raises(DomainError):
            p_dark(0, params, 1.0)

    @given(
        st.floats(min_value=1.0, max_value=40.0),
        st.floats(min_value=1e-6, max_value=0.05),
        st.floats(min_value=1e-6, max_value=0.05),
    )
    def test_cdf_dominance_low_leak(self, lambda0, a1, a2):
        # dark counts are stochastically smaller than bright ones in the
        # low-leak regime; numerically the property fails only once BOTH
        # expected leak numbers a*lambda0 pass ~1.41, so restrict to
        # products <= 1 (the loose published envelope has crossings)
        assume(a1 * lambda0 <= 1.0 and a2 * lambda0 <= 1.0)
        params = LeakParams(lambda0, a1, a2)
        top = histogram_cutoff(lambda0)
        dark, bright = pmf_arrays(params, 1.0, top)
        cum_d = np.cumsum(dark)
        cum_b = np.cumsum(bright)
        assert np.all(cum_d >= cum_b - 1e-12)


class TestHistograms:
    def test_analytic_histograms_sum_to_one(self):
        params = LeakParams(12.0, 0.05, 0.02)
        dark, bright = analytic_histograms(params, 1.0)
        assert dark.kind is HistKind.ANALYTIC
        assert math.fsum(dark.values) == pytest.approx(1.0, abs=1e-12)
        assert math.fsum(bright.values) == pytest.approx(1.0, abs=1e-12)

    def test_analytic_matches_pmf_interior(self):
        params = LeakParams(8.0, 0.01, 0.01)
        dark, bright = analytic_histograms(params, 1.0)
        pd, pb = pmf_arrays(params, 1.0, len(dark.values) - 1)
        assert np.allclose(dark.values[:-1], pd[:-1], rtol=0, atol=1e-15)
        assert np.allclose(bright.values[:-1], pb[:-1], rtol=0, atol=1e-15)

    def test_histogram_validation(self):
        with pytest.raises(DomainError):
            PhotonHistogram(values=(), kind=HistKind.ANALYTIC)
        with pytest.raises(DomainError):
            PhotonHistogram(values=(0.5, -0.1), kind=HistKind.MEASURED)
        with pytest.raises(DomainError):
            PhotonHistogram(values=(0.5, 0.4), kind=HistKind.ANALYTIC)
        with pytest.raises(DomainError):
            PhotonHistogram(values=(3.0, 4.0), kind=HistKind.SIMULATED, trials=10)

    def test_cutoff_monotone(self):
        assert histogram_cutoff(1.0) < histogram_cutoff(100.0)
        assert histogram_cutoff(12.0) >= 12 + int(12 * math.sqrt(12.0)) + 30
