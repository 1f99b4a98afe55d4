"""Settings types and the imager's two scalar laws, on the standard library alone.

The CLI's key tables read the Monte Carlo modes, the initial states and
the imager fields when it loads, and ``crosstalk`` needs only its ratio,
so these live here, away from numpy. ``mcsim`` and ``ccd`` import them
back: ``mcsim.McMode`` and ``ccd.CcdParams`` are the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError


class McMode(str, Enum):
    RATE_EQUATION = "rate_equation"
    PHOTON_LEVEL = "photon_level"


class InitialState(str, Enum):
    DARK = "dark"
    BRIGHT = "bright"


@dataclass(frozen=True)
class CcdParams:
    """Imager settings; roi_super_pixels is the k of the SNR law and of each simulated ROI box."""

    gain_g: float = 100.0
    readout_rms_r: float = 2.0
    roi_super_pixels: int = 49
    offset: float = 20.0
    counts_per_photon: float = 100.0
    psf_sigma: float = 1.0
    gain_dist: str = "exponential"

    def __post_init__(self):
        for name, bound in (("gain_g", "> 0"), ("readout_rms_r", ">= 0"), ("offset", ">= 0"),
                            ("counts_per_photon", "> 0"), ("psf_sigma", "> 0")):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0 <= v < math.inf
                                           and (v > 0 or bound == ">= 0")):
                raise DomainError(f"{name} must be finite and {bound}, got {v!r}")
        k = self.roi_super_pixels
        if isinstance(k, bool) or not (isinstance(k, int) and k >= 1):
            raise DomainError(f"roi_super_pixels must be a positive integer, got {k!r}")
        if self.gain_dist not in ("exponential", "fixed"):
            raise DomainError(
                f"gain_dist must be 'exponential' or 'fixed', got {self.gain_dist!r}"
            )


def snr(lambda0: float, params: CcdParams) -> float:
    """Signal-to-noise of a mean-lambda0 signal read through k super-pixels."""
    if isinstance(lambda0, bool) or not (isinstance(lambda0, (int, float)) and 0 <= lambda0 < math.inf):
        raise DomainError(f"lambda0 must be finite and >= 0, got {lambda0!r}")
    if lambda0 == 0:
        return 0.0
    noise_sq = lambda0 + (params.roi_super_pixels * params.readout_rms_r / params.gain_g) ** 2
    return lambda0 / math.sqrt(noise_sq)


def crosstalk_ratio(wavelength: float, spacing: float) -> float:
    """Fluorescence intensity of one ion at its neighbor's position,
    relative to the drive intensity: 3*wavelength^2/(4*pi*spacing^2).
    Both lengths in the same unit, finite and > 0, and the ratio must be
    a finite positive number."""
    for name, v in (("wavelength", wavelength), ("spacing", spacing)):
        if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0 < v < math.inf):
            raise DomainError(f"{name} must be finite and > 0, got {v!r}")
    try:
        ratio = 3.0 * wavelength**2 / (4.0 * math.pi * spacing**2)
    except (OverflowError, ZeroDivisionError):  # a square left the float range
        ratio = math.nan
    if not 0 < ratio < math.inf:
        raise DomainError(f"the crosstalk ratio of wavelength {wavelength} and spacing {spacing} "
                          f"is not a finite positive number")
    return ratio
