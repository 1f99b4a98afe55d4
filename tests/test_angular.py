import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ionread.angular import Scheme, branching_ratios, cg_squared, wigner_3j, wigner_6j
from ionread.errors import DomainError

SPINS = (0.5, 1.5, 2.5, 3.5, 4.5)


class TestWigner3j:
    def test_triangle_violation_is_zero(self):
        assert wigner_3j(1, 1, 3, 0, 0, 0) == 0.0

    def test_projection_sum_violation_is_zero(self):
        assert wigner_3j(1, 1, 1, 1, 1, 1) == 0.0

    def test_special_case_110(self):
        # 3j(j, j, 0; m, -m, 0) = (-1)^(j-m) / sqrt(2j+1)
        assert wigner_3j(1, 1, 0, 0, 0, 0) == pytest.approx(-1.0 / math.sqrt(3), rel=1e-15)

    def test_orthogonality_sum(self):
        for q in (-1.0, 0.0, 1.0):
            total = 0.0
            for twice_j3 in (1, 3):
                j3 = twice_j3 / 2.0
                for twice_m3 in range(-twice_j3, twice_j3 + 1, 2):
                    m3 = twice_m3 / 2.0
                    total += (2 * j3 + 1) * wigner_3j(0.5, 1, j3, 0.5, q, m3) ** 2
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_sympy_grid(self):
        spw = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        rng = random.Random(4)
        checked = 0
        while checked < 40:
            tj = [rng.randrange(0, 7) / 2.0 for _ in range(3)]
            tm = [
                rng.choice([m / 2.0 for m in range(-int(2 * j), int(2 * j) + 1, 2)])
                for j in tj
            ]
            try:
                mine = wigner_3j(*tj, *tm)
            except DomainError:
                continue
            ref = float(spw.wigner_3j(*[Rational(round(2 * v), 2) for v in tj + tm]))
            assert mine == pytest.approx(ref, abs=1e-14)
            checked += 1

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=12),
    )
    def test_column_permutation_symmetry(self, tj1, tj2, tj3_offset):
        j1, j2 = tj1 / 2.0, tj2 / 2.0
        lo, hi = abs(tj1 - tj2), tj1 + tj2
        tj3 = lo + 2 * (tj3_offset % ((hi - lo) // 2 + 1))
        j3 = tj3 / 2.0
        m1 = -j1 if j1 else 0.0
        m2 = min(j2, j3 - abs(m1)) if j3 >= abs(m1) else j2
        m2 = math.floor(2 * m2) / 2.0
        if abs(m2 - j2) % 1 != 0:
            m2 -= 0.5
        if abs(m2) > j2:
            m2 = j2
        m3 = -(m1 + m2)
        if abs(m3) > j3 or (2 * j3 + 2 * m3) % 2 != 0:
            return
        base = wigner_3j(j1, j2, j3, m1, m2, m3)
        even = wigner_3j(j2, j3, j1, m2, m3, m1)
        odd = wigner_3j(j2, j1, j3, m2, m1, m3)
        sign = (-1.0) ** round(j1 + j2 + j3)
        assert even == pytest.approx(base, abs=1e-14)
        assert odd == pytest.approx(sign * base, abs=1e-14)
        flipped = wigner_3j(j1, j2, j3, -m1, -m2, -m3)
        assert flipped == pytest.approx(sign * base, abs=1e-14)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            wigner_3j(-1, 1, 1, 0, 0, 0)


class TestWigner6j:
    def test_triangle_violation_is_zero(self):
        assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0

    def test_one_zero_argument_closed_form(self):
        # {a, b, c; 0, c, b} = (-1)^(a+b+c) / sqrt((2b+1)(2c+1))
        a, b, c = 1.0, 0.5, 1.5
        expect = (-1.0) ** round(a + b + c) / math.sqrt((2 * b + 1) * (2 * c + 1))
        assert wigner_6j(a, b, c, 0, c, b) == pytest.approx(expect, rel=1e-15)
        assert wigner_6j(1, 0.5, 1.5, 0, 1.5, 0.5) == pytest.approx(
            -1.0 / (2.0 * math.sqrt(2.0)), rel=1e-15
        )

    @pytest.mark.parametrize(
        "sextet",
        [
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (0.5, 1, 1, 0.5, 0.5, 1, 1, 1, 1),
            (2, 1, 1, 1, 1, 2, 1, 2, 1),
        ],
    )
    def test_biedenharn_elliott(self, sextet):
        a, b, c, d, e, f, p, q, r = sextet
        big_r = a + b + c + d + e + f + p + q + r
        total = 0.0
        for k in range(0, 29):
            x = k / 2.0
            try:
                term = ((-1.0) ** round(big_r + x)) * (2 * x + 1)
                term *= wigner_6j(a, b, x, c, d, p)
                term *= wigner_6j(c, d, x, e, f, q)
                term *= wigner_6j(e, f, x, b, a, r)
            except DomainError:
                continue
            total += term
        rhs = wigner_6j(p, q, r, e, a, d) * wigner_6j(p, q, r, f, b, c)
        assert total == pytest.approx(rhs, abs=1e-12)

    def test_matches_sympy_grid(self):
        spw = pytest.importorskip("sympy.physics.wigner")
        from sympy import Rational

        rng = random.Random(11)
        checked = 0
        while checked < 25:
            tj1, tj2 = rng.randrange(0, 6), rng.randrange(0, 6)
            tj3 = rng.choice(range(abs(tj1 - tj2), tj1 + tj2 + 1, 2))
            tj5 = rng.randrange(0, 6)
            if not range(abs(tj1 - tj5), tj1 + tj5 + 1, 2):
                continue
            tj6 = rng.choice(range(abs(tj1 - tj5), tj1 + tj5 + 1, 2))
            lo = max(abs(tj2 - tj6), abs(tj5 - tj3))
            hi = min(tj2 + tj6, tj5 + tj3)
            opts = [t for t in range(lo, hi + 1) if (t + tj2 + tj6) % 2 == 0]
            if not opts:
                continue
            tj4 = rng.choice(opts)
            js = [t / 2.0 for t in (tj1, tj2, tj3, tj4, tj5, tj6)]
            mine = wigner_6j(*js)
            ref = float(spw.wigner_6j(*[Rational(t, 2) for t in (tj1, tj2, tj3, tj4, tj5, tj6)]))
            assert mine == pytest.approx(ref, abs=1e-14)
            checked += 1

    def test_negative_magnitude_rejected(self):
        with pytest.raises(DomainError):
            wigner_6j(1, 1, 1, -1, 1, 1)


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


class TestCgSquared:
    @pytest.mark.parametrize("spin", SPINS)
    def test_cycling_strength_is_one(self, spin):
        up = spin + 0.5
        top = spin + 1.5
        assert cg_squared(up, top, up, up + 1, 1, spin, Scheme.P32) == 1.0

    def test_q_mismatch_is_zero(self):
        assert cg_squared(1, 2, 1, 1, 1, 0.5, Scheme.P32) == 0.0
        assert cg_squared(1, 2, 0, 1, 0, 0.5, Scheme.P32) == 0.0

    def test_bad_q_rejected(self):
        with pytest.raises(DomainError):
            cg_squared(1, 2, 0, 2, 2, 0.5, Scheme.P32)

    def test_parity_violation_rejected(self):
        with pytest.raises(DomainError):
            cg_squared(1, 2, 0.5, 1, 1, 0.5, Scheme.P32)

    def test_m1_product_example(self):
        m1, _, _ = cg_branching_products(0.5)
        assert m1 == pytest.approx(2.0 / 9.0, abs=1e-15)

    @pytest.mark.parametrize("spin", SPINS)
    def test_outputs_in_unit_interval(self, spin):
        p32 = Scheme.P32
        up = spin + 0.5
        for f_exc in (spin + 1.5, up, spin - 0.5):
            for q in (-1, 0, 1):
                val = cg_squared(up, f_exc, up, up + q, q, spin, p32)
                assert -1e-15 <= val <= 1.0 + 1e-12

    def test_p12_channels(self):
        # lower-scheme dipole channels all carry strength 1/3
        assert cg_squared(1, 1, 1, 1, 0, 0.5, Scheme.P12) == pytest.approx(1 / 3, rel=1e-15)
        assert cg_squared(1, 0, 1, 0, -1, 0.5, Scheme.P12) == pytest.approx(1 / 3, rel=1e-15)


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
