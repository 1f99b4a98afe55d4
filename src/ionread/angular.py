"""Wigner symbols and hyperfine dipole transition strengths.

Angular momenta are accepted as ordinary numbers (int, float, Fraction)
that must be non-negative multiples of 1/2. Internally every j and m is
carried as a doubled integer and the Racah sums are evaluated in exact
rational arithmetic, so a symbol is an exact rational times a single
square root taken at the very end. That makes the squared transition
strengths exact rationals, which is what the branching-ratio closed forms
are checked against.

Conventions: wigner_3j(j1, j2, j3, m1, m2, m3) is the 3-j symbol with the
phase convention that makes (j, j, 0; m, -m, 0) = (-1)^(j-m)/sqrt(2j+1),
and wigner_6j takes its six arguments row by row.

The readout model couples an S_1/2 ground manifold (L=0, J=1/2) to either
the P_3/2 or the P_1/2 excited manifold of an ion with nuclear spin I.
``cg_squared`` evaluates the squared dipole coupling between hyperfine
levels |F, f> -> |F', f'> for polarization q in {-1, 0, +1}, normalized so
the total decay strength out of the cycling excited level is 1. For the
P_3/2 scheme the stretch decay channel is unique, so the cycling
transition itself carries strength exactly 1; for the P_1/2 scheme each of
the three allowed decay channels of the F'=0 level carries strength 1/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DomainError


class Scheme(str, Enum):
    """Which excited fine-structure level the detection laser addresses."""

    P32 = "p32"
    P12 = "p12"


def _twice(value, name: str = "angular momentum") -> int:
    """Convert j given in units of hbar to an exact doubled integer."""
    try:
        frac = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a number, got {value!r}") from exc
    doubled = frac * 2
    if doubled.denominator != 1:
        raise DomainError(f"{name} must be a multiple of 1/2, got {value}")
    return int(doubled)


def _fraction_to_float(value: Fraction) -> float:
    return value.numerator / value.denominator


def _triangle_ok(ta: int, tb: int, tc: int) -> bool:
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def _delta_sq(ta: int, tb: int, tc: int) -> Fraction:
    """Squared triangle coefficient, exact; assumes the triangle holds."""
    return Fraction(
        factorial((ta + tb - tc) // 2)
        * factorial((ta - tb + tc) // 2)
        * factorial((-ta + tb + tc) // 2),
        factorial((ta + tb + tc) // 2 + 1),
    )


def _three_j_signed_sq(tj1, tj2, tj3, tm1, tm2, tm3) -> tuple[int, Fraction]:
    """(sign, squared value) of a 3-j symbol from doubled integers."""
    if tm1 + tm2 + tm3 != 0:
        return 0, Fraction(0)
    if not _triangle_ok(tj1, tj2, tj3):
        return 0, Fraction(0)
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0, Fraction(0)

    a = (tj1 + tj2 - tj3) // 2
    b = (tj1 - tm1) // 2
    c = (tj2 + tm2) // 2
    d = (tj3 - tj2 + tm1) // 2
    e = (tj3 - tj1 - tm2) // 2
    kmin = max(0, -d, -e)
    kmax = min(a, b, c)
    if kmax < kmin:
        return 0, Fraction(0)

    racah_sum = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            factorial(k)
            * factorial(a - k)
            * factorial(b - k)
            * factorial(c - k)
            * factorial(d + k)
            * factorial(e + k)
        )
        racah_sum += Fraction(-1 if k & 1 else 1, denom)
    if racah_sum == 0:
        return 0, Fraction(0)

    norm = _delta_sq(tj1, tj2, tj3) * Fraction(
        factorial((tj1 + tm1) // 2)
        * factorial((tj1 - tm1) // 2)
        * factorial((tj2 + tm2) // 2)
        * factorial((tj2 - tm2) // 2)
        * factorial((tj3 + tm3) // 2)
        * factorial((tj3 - tm3) // 2)
    )
    phase = -1 if ((tj1 - tj2 - tm3) // 2) % 2 else 1
    sign = phase if racah_sum > 0 else -phase
    return sign, norm * racah_sum * racah_sum


def _six_j_signed_sq(tj1, tj2, tj3, tj4, tj5, tj6) -> tuple[int, Fraction]:
    """(sign, squared value) of a 6-j symbol from doubled integers."""
    triads = (
        (tj1, tj2, tj3),
        (tj1, tj5, tj6),
        (tj4, tj2, tj6),
        (tj4, tj5, tj3),
    )
    for triad in triads:
        if not _triangle_ok(*triad):
            return 0, Fraction(0)

    t1 = (tj1 + tj2 + tj3) // 2
    t2 = (tj1 + tj5 + tj6) // 2
    t3 = (tj4 + tj2 + tj6) // 2
    t4 = (tj4 + tj5 + tj3) // 2
    q1 = (tj1 + tj2 + tj4 + tj5) // 2
    q2 = (tj2 + tj3 + tj5 + tj6) // 2
    q3 = (tj3 + tj1 + tj6 + tj4) // 2
    kmin = max(t1, t2, t3, t4)
    kmax = min(q1, q2, q3)
    if kmax < kmin:
        return 0, Fraction(0)

    racah_sum = Fraction(0)
    for k in range(kmin, kmax + 1):
        denom = (
            factorial(k - t1)
            * factorial(k - t2)
            * factorial(k - t3)
            * factorial(k - t4)
            * factorial(q1 - k)
            * factorial(q2 - k)
            * factorial(q3 - k)
        )
        term = Fraction(factorial(k + 1), denom)
        racah_sum += -term if k & 1 else term
    if racah_sum == 0:
        return 0, Fraction(0)

    norm = Fraction(1)
    for triad in triads:
        norm *= _delta_sq(*triad)
    sign = 1 if racah_sum > 0 else -1
    return sign, norm * racah_sum * racah_sum


def _parity_check(tj: int, tm: int, label: str) -> None:
    if (tj + tm) % 2 != 0:
        raise DomainError(
            f"projection parity violated for {label}: j and m must differ by an integer"
        )


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """3-j symbol (j1 j2 j3; m1 m2 m3).

    Returns 0 when a selection rule fails (triangle, projection sum, or
    |m| > j). Inconsistent parity between any j and its m is a domain
    error rather than a zero, since it indicates caller confusion.
    """
    tjs = [_twice(j, f"j{i + 1}") for i, j in enumerate((j1, j2, j3))]
    tms = [_twice(m, f"m{i + 1}") for i, m in enumerate((m1, m2, m3))]
    for i, tj in enumerate(tjs):
        if tj < 0:
            raise DomainError(f"j{i + 1} must be >= 0, got {tj / 2}")
        _parity_check(tj, tms[i], f"(j{i + 1}, m{i + 1})")
    sign, squared = _three_j_signed_sq(*tjs, *tms)
    return sign * math.sqrt(_fraction_to_float(squared))


def wigner_6j(j1, j2, j3, j4, j5, j6) -> float:
    """6-j symbol {j1 j2 j3; j4 j5 j6}.

    Returns 0 when any of the four triangle conditions fails; a triad
    whose sum is not an integer is a domain error.
    """
    tjs = [_twice(j, f"j{i + 1}") for i, j in enumerate((j1, j2, j3, j4, j5, j6))]
    for i, tj in enumerate(tjs):
        if tj < 0:
            raise DomainError(f"j{i + 1} must be >= 0, got {tj / 2}")
    triad_indices = ((0, 1, 2), (0, 4, 5), (3, 1, 5), (3, 4, 2))
    for idx in triad_indices:
        if sum(tjs[i] for i in idx) % 2 != 0:
            names = ", ".join(f"j{i + 1}" for i in idx)
            raise DomainError(f"triad ({names}) must sum to an integer")
    sign, squared = _six_j_signed_sq(*tjs)
    return sign * math.sqrt(_fraction_to_float(squared))


# Fixed quantum numbers of the alkali-like readout level structure:
# ground S_1/2 (L=0, J=1/2), excited P_J' (L'=1), electron spin 1/2.
_T_SPIN = 1
_T_J_GROUND = 1
_T_L_GROUND = 0
_T_L_EXCITED = 2


def _t_j_excited(scheme: Scheme) -> int:
    return 3 if scheme is Scheme.P32 else 1


@lru_cache(maxsize=None)
def _line_strength(tf, tfp, tmf, tmfp, tq, ti, scheme: Scheme) -> Fraction:
    """Unnormalized squared dipole strength |F,f> -> |F',f'>, exact."""
    tjp = _t_j_excited(scheme)
    _, fine_sq = _six_j_signed_sq(
        _T_L_EXCITED, tjp, _T_SPIN, _T_J_GROUND, _T_L_GROUND, 2
    )
    _, hyper_sq = _six_j_signed_sq(tjp, tfp, ti, tf, _T_J_GROUND, 2)
    _, geom_sq = _three_j_signed_sq(tf, 2, tfp, tmf, tq, -tmfp)
    degeneracy = (_T_J_GROUND + 1) * (tjp + 1) * (tf + 1) * (tfp + 1)
    return degeneracy * fine_sq * hyper_sq * geom_sq


@lru_cache(maxsize=None)
def _cycling_norm(ti: int, scheme: Scheme) -> Fraction:
    """Total decay strength out of the cycling excited level, exact.

    Summing the unnormalized strengths over every ground state and
    polarization reachable from one excited state gives the same constant
    for each excited state (the total decay rate is level independent), so
    this single sum fixes the normalization of the whole scheme.
    """
    if scheme is Scheme.P32:
        tfp, tmfp = ti + 3, ti + 3
    else:
        tfp, tmfp = 0, 0
    total = Fraction(0)
    for tf in (ti - 1, ti + 1):
        if tf < 0:
            continue
        for tq in (-2, 0, 2):
            tmf = tmfp - tq
            if abs(tmf) > tf:
                continue
            total += _line_strength(tf, tfp, tmf, tmfp, tq, ti, scheme)
    if total == 0:
        raise DomainError(f"no cycling decay channel exists for I={ti / 2}")
    return total


def _validated_spin(nuclear_spin, scheme: Scheme) -> int:
    ti = _twice(nuclear_spin, "nuclear spin")
    if scheme is Scheme.P12:
        if ti != 1:
            raise DomainError(
                f"the P1/2 scheme requires nuclear spin 1/2, got {ti / 2}"
            )
    elif ti <= 0:
        raise DomainError(
            f"the P3/2 scheme requires nuclear spin > 0, got {ti / 2}"
        )
    return ti


def _cg_squared_exact(tf, tfp, tmf, tmfp, tq, ti, scheme: Scheme) -> Fraction:
    if tmfp != tmf + tq:
        return Fraction(0)
    strength = _line_strength(tf, tfp, tmf, tmfp, tq, ti, scheme)
    return strength / _cycling_norm(ti, scheme)


def cg_squared(f_ground, f_excited, m_ground, m_excited, q, nuclear_spin, scheme) -> float:
    """Normalized squared dipole strength C(F, F'; f, f') for polarization q.

    F, f label the S_1/2 hyperfine ground state and F', f' the excited
    state of the chosen scheme; q = f' - f must be -1, 0, or +1.
    Forbidden combinations (selection rules, q mismatch) return 0. The
    value is symmetric under exchanging the roles of the two states, so it
    serves for both excitation and decay.
    """
    scheme = Scheme(scheme)
    ti = _validated_spin(nuclear_spin, scheme)
    tf = _twice(f_ground, "F")
    tfp = _twice(f_excited, "F'")
    tmf = _twice(m_ground, "f")
    tmfp = _twice(m_excited, "f'")
    tq = _twice(q, "q")
    if tq not in (-2, 0, 2):
        raise DomainError(f"polarization q must be -1, 0, or +1, got {q}")
    if tf < 0 or tfp < 0:
        raise DomainError("F and F' must be >= 0")
    _parity_check(tf, tmf, "(F, f)")
    _parity_check(tfp, tmfp, "(F', f')")
    return _fraction_to_float(_cg_squared_exact(tf, tfp, tmf, tmfp, tq, ti, scheme))


@dataclass(frozen=True)
class BranchingRatios:
    """Leakage branching ratios of a detection scheme.

    m1 weights dark -> bright leakage. m2_pi and m2_minus weight
    bright -> dark optical pumping driven by the pi and sigma-minus
    polarization impurities; in the P1/2 scheme all polarizations are
    applied on purpose and both directions share the single ratio 2/9, so
    the same value is packed into all relevant fields.
    """

    m1: float
    m2_pi: float
    m2_minus: float


@lru_cache(maxsize=None)
def _branching_fractions(ti: int, scheme: Scheme) -> tuple[Fraction, Fraction, Fraction]:
    if scheme is Scheme.P12:
        ratio = Fraction(2, 9)
        return ratio, ratio, ratio
    spin = Fraction(ti, 2)
    m1 = 4 * spin * (3 + 2 * spin) / (9 * (1 + 2 * spin) ** 2)
    m2_pi = 4 * spin / (9 + 18 * spin)
    m2_minus = 16 * spin / (9 * (1 + 2 * spin) ** 3)
    return m1, m2_pi, m2_minus


def branching_ratios(nuclear_spin, scheme) -> BranchingRatios:
    """Closed-form leakage branching ratios for nuclear spin I.

    P3/2 scheme: m1 = 4I(3+2I)/(9(1+2I)^2), m2_pi = 4I/(9+18I),
    m2_minus = 16I/(9(1+2I)^3), each a product of a squared excitation
    strength and the matching squared decay strengths of ``cg_squared``.
    P1/2 scheme (I = 1/2 only): every ratio is 2/9. Cached per
    (nuclear spin, scheme): the fit asks once per objective evaluation.
    """
    try:
        return _cached_ratios(nuclear_spin, scheme)
    except TypeError:  # an unhashable argument, refused below
        return _cached_ratios.__wrapped__(nuclear_spin, scheme)


@lru_cache(maxsize=64)
def _cached_ratios(nuclear_spin, scheme) -> BranchingRatios:
    scheme = Scheme(scheme)
    ti = _validated_spin(nuclear_spin, scheme)
    m1, m2_pi, m2_minus = _branching_fractions(ti, scheme)
    return BranchingRatios(
        _fraction_to_float(m1), _fraction_to_float(m2_pi), _fraction_to_float(m2_minus)
    )
