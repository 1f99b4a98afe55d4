"""Hyperfine leakage branching ratios of the two detection schemes.

The readout model couples an S_1/2 ground manifold (J=1/2) to either the
P_3/2 or the P_1/2 excited manifold of an ion with nuclear spin I. An
off-resonant excitation followed by a decay can move the ion from one
qubit manifold to the other. Each such path is weighted by a branching
ratio: the squared dipole strength of the excitation leg times the summed
squared strengths of the decay legs that change the manifold, normalized
so that the cycling excited level decays with total strength 1.

These products of Wigner symbols have closed forms in I, so no symbol is
evaluated here. With the doubled spin ti = 2I, each ratio is an integer
numerator over an integer denominator, and Python rounds that true
division correctly: every float equals the exact rational rounded once.
The tests check the closed forms, as exact rationals, against products of
``sympy.physics.wigner`` symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import DomainError, _enum, _real


class Scheme(str, Enum):
    """Which excited fine-structure level the detection laser addresses."""

    P32 = "p32"
    P12 = "p12"


def _twice_spin(value) -> int:
    """The doubled nuclear spin 2I, for I a finite, non-negative multiple of 1/2.

    The check is exact: a spin 1e-13 away from a multiple of 1/2 is refused.
    """
    doubled = 2 * _real(value, "nuclear spin", 0)
    if not (doubled < math.inf and doubled == math.floor(doubled)):
        raise DomainError(
            f"nuclear spin must be a finite, non-negative multiple of 1/2, got {value!r}"
        )
    return int(doubled)


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


@lru_cache(maxsize=64)
def _ratios(ti: int, scheme: Scheme) -> BranchingRatios:
    if scheme is Scheme.P12:
        return BranchingRatios(2 / 9, 2 / 9, 2 / 9)
    return BranchingRatios(
        2 * ti * (3 + ti) / (9 * (1 + ti) ** 2),
        2 * ti / (9 * (1 + ti)),
        8 * ti / (9 * (1 + ti) ** 3),
    )


def branching_ratios(nuclear_spin, scheme) -> BranchingRatios:
    """Closed-form leakage branching ratios for nuclear spin I.

    P3/2 scheme (I > 0): m1 = 4I(3+2I)/(9(1+2I)^2), m2_pi = 4I/(9+18I),
    m2_minus = 16I/(9(1+2I)^3), each one integer division in ti = 2I. m1
    starts from the dark state's sigma-plus excitation to F' = I+1/2,
    m2_pi and m2_minus from the bright stretch state's pi and sigma-minus
    excitations. P1/2 scheme (I = 1/2 only): every ratio is 2/9. Cached
    per (2I, scheme): the fit asks once per objective evaluation.
    """
    scheme = _enum(Scheme, scheme, "scheme")
    ti = _twice_spin(nuclear_spin)
    if scheme is Scheme.P12 and ti != 1:
        raise DomainError(f"the P1/2 scheme requires nuclear spin 1/2, got {nuclear_spin}")
    if ti == 0:
        raise DomainError(f"the P3/2 scheme requires nuclear spin > 0, got {nuclear_spin}")
    return _ratios(ti, scheme)
