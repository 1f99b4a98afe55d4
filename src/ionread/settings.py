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

from .errors import DomainError, _count, _instance, _real


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
        for name, ends in (("gain_g", "()"), ("readout_rms_r", "[]"), ("offset", "[]"),
                           ("counts_per_photon", "()"), ("psf_sigma", "()")):
            _real(getattr(self, name), name, 0, ends=ends)
        _count(self.roi_super_pixels, "roi_super_pixels", 1)
        if not isinstance(self.gain_dist, str) or self.gain_dist not in ("exponential", "fixed"):
            raise DomainError(
                f"gain_dist must be 'exponential' or 'fixed', got {self.gain_dist!r}"
            )


def snr(lambda0: float, params: CcdParams) -> float:
    """Signal-to-noise of a mean-lambda0 signal read through k super-pixels."""
    if _real(lambda0, "lambda0", 0) == 0:
        return 0.0
    k = _instance(params, CcdParams, "imager settings").roi_super_pixels
    try:
        noise_sq = lambda0 + (k * params.readout_rms_r / params.gain_g) ** 2
    except OverflowError:  # readout noise beyond the float range drowns any signal
        noise_sq = math.inf
    return lambda0 / math.sqrt(noise_sq)


def crosstalk_ratio(wavelength: float, spacing: float) -> float:
    """Fluorescence intensity of one ion at its neighbor's position,
    relative to the drive intensity: 3*wavelength^2/(4*pi*spacing^2).
    Both lengths in the same unit, finite and > 0, and the ratio must be
    a finite positive number."""
    _real(wavelength, "wavelength", 0, ends="()")
    _real(spacing, "spacing", 0, ends="()")
    try:
        ratio = 3.0 * wavelength**2 / (4.0 * math.pi * spacing**2)
    except (OverflowError, ZeroDivisionError):  # a square left the float range
        ratio = math.nan
    return _real(ratio, f"the crosstalk ratio of wavelength {wavelength} and spacing {spacing}", 0, ends="()")
