"""Closed-form branching ratios against products of Wigner symbols.

``sympy.physics.wigner`` is the Racah oracle: it evaluates 3-j and 6-j
symbols exactly, so the squared dipole strengths built from them are exact
rationals and the leakage products compare with the closed forms with ==.
"""

from fractions import Fraction
from functools import lru_cache

import pytest
from sympy import Rational
from sympy.physics.wigner import wigner_3j, wigner_6j

from ionread.angular import Scheme, branching_ratios
from ionread.errors import DomainError

SPINS = (0.5, 1.5, 2.5, 3.5, 4.5)
HALF = Rational(1, 2)


def _half_integer(value):
    return Rational(round(2 * value), 2)


def _strength(f, fp, mf, mfp, q, spin, j_exc):
    """Squared dipole strength |F, f> <-> |F', f'> of the S_1/2 <-> P_J' line,
    up to the factors that depend on the line alone."""
    return ((2 * f + 1) * (2 * fp + 1) * wigner_6j(j_exc, fp, spin, f, HALF, 1) ** 2
            * wigner_3j(f, 1, fp, mf, q, -mfp) ** 2)


@lru_cache(maxsize=None)
def _cycling_norm(spin, j_exc):
    """Total decay strength of the cycling level: F' = I+3/2 at its top
    sublevel for P_3/2, F' = 0 for P_1/2."""
    top = spin + j_exc if j_exc == 3 * HALF else 0
    return sum(_strength(f, top, top - q, top, q, spin, j_exc)
               for f in (spin - HALF, spin + HALF) for q in (-1, 0, 1))


def cg_squared(f_ground, f_excited, m_ground, m_excited, q, nuclear_spin, scheme):
    """Normalized squared strength C(F, F'; f, f') for polarization q, exact.

    The cycling level's decay strengths sum to 1. Forbidden combinations,
    q != f' - f among them, give 0.
    """
    spin = _half_integer(nuclear_spin)
    j_exc = 3 * HALF if Scheme(scheme) is Scheme.P32 else HALF
    args = [_half_integer(v) for v in (f_ground, f_excited, m_ground, m_excited, q)]
    value = _strength(*args, spin, j_exc) / _cycling_norm(spin, j_exc)
    return Fraction(int(value.p), int(value.q))


def cg_branching_products(nuclear_spin):
    """The three leakage strengths assembled from squared transition
    strengths: one off-resonant excitation leg times the decay legs that
    land the ion in the other qubit manifold."""
    p32 = Scheme.P32
    up = nuclear_spin + 0.5
    dn = nuclear_spin - 0.5
    exc_dark = cg_squared(dn, up, dn, dn + 1, 1, nuclear_spin, p32)
    dec_bright = sum(
        cg_squared(up, up, m, dn + 1, (dn + 1) - m, nuclear_spin, p32)
        for m in (dn + 1, dn)
        if abs(m) <= up
    )
    m1 = exc_dark * dec_bright
    exc_pi = cg_squared(up, up, up, up, 0, nuclear_spin, p32)
    dec_pi = cg_squared(dn, up, dn, up, 1, nuclear_spin, p32)
    m2_pi = exc_pi * dec_pi
    exc_minus = cg_squared(up, up, up, up - 1, -1, nuclear_spin, p32)
    dec_minus = cg_squared(dn, up, up - 1, up - 1, 0, nuclear_spin, p32)
    m2_minus = exc_minus * dec_minus
    return m1, m2_pi, m2_minus


def exact_closed_forms(twice_spin):
    """m1, m2_pi and m2_minus of the P3/2 scheme as exact rationals in I."""
    spin = Fraction(twice_spin, 2)
    return (
        4 * spin * (3 + 2 * spin) / (9 * (1 + 2 * spin) ** 2),
        4 * spin / (9 + 18 * spin),
        16 * spin / (9 * (1 + 2 * spin) ** 3),
    )


class TestCgSquared:
    @pytest.mark.parametrize("spin", SPINS)
    def test_cycling_strength_is_one(self, spin):
        up = spin + 0.5
        top = spin + 1.5
        assert cg_squared(up, top, up, up + 1, 1, spin, Scheme.P32) == 1

    def test_m1_product_example(self):
        m1, _, _ = cg_branching_products(0.5)
        assert m1 == Fraction(2, 9)

    @pytest.mark.parametrize("spin", SPINS)
    def test_outputs_in_unit_interval(self, spin):
        p32 = Scheme.P32
        up = spin + 0.5
        for f_exc in (spin + 1.5, up, spin - 0.5):
            for q in (-1, 0, 1):
                val = cg_squared(up, f_exc, up, up + q, q, spin, p32)
                assert 0 <= val <= 1

    def test_p12_channels(self):
        # lower-scheme dipole channels all carry strength 1/3
        assert cg_squared(1, 1, 1, 1, 0, 0.5, Scheme.P12) == Fraction(1, 3)
        assert cg_squared(1, 0, 1, 0, -1, 0.5, Scheme.P12) == Fraction(1, 3)


class TestBranchingRatios:
    def test_spin_half_p32(self):
        br = branching_ratios(0.5, Scheme.P32)
        assert (br.m1, br.m2_pi, br.m2_minus) == (
            pytest.approx(2 / 9, abs=1e-16),
            pytest.approx(1 / 9, abs=1e-16),
            pytest.approx(1 / 9, abs=1e-16),
        )

    def test_spin_half_p12(self):
        br = branching_ratios(0.5, Scheme.P12)
        assert br.m1 == br.m2_pi == br.m2_minus == pytest.approx(2 / 9, abs=1e-16)

    def test_spin_three_half_m1(self):
        assert branching_ratios(1.5, Scheme.P32).m1 == pytest.approx(0.25, abs=1e-16)

    @pytest.mark.parametrize("spin", SPINS)
    def test_closed_forms_match_cg_products(self, spin):
        br = branching_ratios(spin, Scheme.P32)
        m1, m2_pi, m2_minus = cg_branching_products(spin)
        assert abs(br.m1 - m1) <= 1e-12
        assert abs(br.m2_pi - m2_pi) <= 1e-12
        assert abs(br.m2_minus - m2_minus) <= 1e-12

    def test_closed_forms_equal_cg_products_exactly(self):
        for twice in range(1, 20):
            assert cg_branching_products(twice / 2) == exact_closed_forms(twice), twice

    def test_bit_identical_to_exact_rationals(self):
        # each float is the exact rational rounded once
        for twice in range(1, 2000):
            br = branching_ratios(twice / 2, Scheme.P32)
            exact = tuple(float(x) for x in exact_closed_forms(twice))
            assert (br.m1, br.m2_pi, br.m2_minus) == exact, twice

    @pytest.mark.parametrize("spin", SPINS)
    def test_ratios_in_unit_interval(self, spin):
        br = branching_ratios(spin, Scheme.P32)
        for v in (br.m1, br.m2_pi, br.m2_minus):
            assert 0.0 <= v <= 1.0

    def test_p12_needs_spin_half(self):
        with pytest.raises(DomainError):
            branching_ratios(1.5, Scheme.P12)

    def test_nonpositive_spin_rejected(self):
        with pytest.raises(DomainError):
            branching_ratios(0.0, Scheme.P32)
        with pytest.raises(DomainError):
            branching_ratios(-0.5, Scheme.P32)

    def test_integer_spin_accepted(self):
        # integer nuclear spins are legitimate; manifolds become half-odd
        br = branching_ratios(1.0, Scheme.P32)
        assert 0.0 < br.m1 < 1.0
        assert br.m1 == pytest.approx(4 * 1 * (3 + 2) / (9 * (1 + 2) ** 2), abs=1e-15)

    def test_quarter_spin_rejected(self):
        with pytest.raises(DomainError):
            branching_ratios(0.75, Scheme.P32)

    @pytest.mark.parametrize("spin", [float("nan"), float("inf"), 0.5000000000001, "0.5", [0.5], True])
    def test_invalid_spin_rejected(self, spin):
        with pytest.raises(DomainError, match="nuclear spin"):
            branching_ratios(spin, Scheme.P32)
