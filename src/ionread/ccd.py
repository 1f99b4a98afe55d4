"""Intensified-imager model: gain chain, readout noise, ROI readout,
synthetic multi-ion frames, and crosstalk statistics.

The signal chain per detected photon: the photocathode electron is
amplified and deposited on the (binned) pixel grid around the ion's
image, blurred by a Gaussian point-spread function. The deposit is the
integrated counts per incident photon (about 100 in practice); its
single-photon statistics are exponential by default, matching avalanche
gain, or can be pinned to a constant. Each super-pixel readout then adds
a constant pedestal plus Gaussian noise of rms r, clamps at zero, and
rounds to integer counts.

The SNR of a k-super-pixel region follows lambda0/sqrt(lambda0+(k*r/g)^2):
shot noise plus the k readouts' noise referred back through the gain g.
g enters only this noise bookkeeping; the deposit scale is set by
counts_per_photon (the two are not assumed to decompose).

Crosstalk between neighboring ions is modeled by routing a fraction eps
of each ion's detected photons onto each adjacent ion's image position
(drifty imaging smears light into the neighbor's region), in addition to
whatever PSF spill the geometry already produces.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .detmodel import LeakParams, analytic_histograms
from .errors import ConfigError, DomainError

_FRAME_SALT = 0xF0A3_11CE


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
        if not self.gain_g > 0:
            raise DomainError(f"gain_g must be > 0, got {self.gain_g}")
        if not self.readout_rms_r >= 0:
            raise DomainError(f"readout_rms_r must be >= 0, got {self.readout_rms_r}")
        if not (isinstance(self.roi_super_pixels, int) and self.roi_super_pixels >= 1):
            raise DomainError(
                f"roi_super_pixels must be a positive integer, got {self.roi_super_pixels!r}"
            )
        if not self.offset >= 0:
            raise DomainError(f"offset must be >= 0, got {self.offset}")
        if not self.counts_per_photon > 0:
            raise DomainError(f"counts_per_photon must be > 0, got {self.counts_per_photon}")
        if not self.psf_sigma > 0:
            raise DomainError(f"psf_sigma must be > 0, got {self.psf_sigma}")
        if self.gain_dist not in ("exponential", "fixed"):
            raise DomainError(
                f"gain_dist must be 'exponential' or 'fixed', got {self.gain_dist!r}"
            )

    def to_meta(self) -> dict:
        return dict(vars(self))


def snr(lambda0: float, params: CcdParams) -> float:
    """Signal-to-noise of a mean-lambda0 signal read through k super-pixels."""
    if not (isinstance(lambda0, (int, float)) and lambda0 >= 0):
        raise DomainError(f"lambda0 must be >= 0, got {lambda0!r}")
    if lambda0 == 0:
        return 0.0
    noise_sq = lambda0 + (params.roi_super_pixels * params.readout_rms_r / params.gain_g) ** 2
    return lambda0 / math.sqrt(noise_sq)


@dataclass(frozen=True)
class Roi:
    """Axis-aligned super-pixel box, inclusive of x0/y0, width*height pixels."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.x0 < 0 or self.y0 < 0:
            raise DomainError(f"ROI must have positive size and non-negative origin: {self}")

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def overlaps(self, other: "Roi") -> bool:
        return not (
            self.x0 + self.width <= other.x0
            or other.x0 + other.width <= self.x0
            or self.y0 + self.height <= other.y0
            or other.y0 + other.height <= self.y0
        )


def default_rois(positions, frame_width: int, frame_height: int,
                 size: int = math.isqrt(CcdParams.roi_super_pixels)):
    """Size x size boxes centered on the given (x, y) super-pixel positions.

    Boxes must fit inside the frame and must not overlap.
    """
    half = size // 2
    rois = []
    for i, (x, y) in enumerate(positions):
        x0, y0 = int(x) - half, int(y) - half
        if x0 < 0 or y0 < 0 or x0 + size > frame_width or y0 + size > frame_height:
            raise ConfigError(f"ROI around positions[{i}] = ({x},{y}) leaves the {frame_width}x{frame_height} frame")
        rois.append(Roi(x0=x0, y0=y0, width=size, height=size))
    _check_disjoint(rois)
    return rois


def _check_disjoint(rois) -> None:
    for (i, a), (j, b) in combinations(enumerate(rois), 2):
        if a.overlaps(b):
            raise ConfigError(f"ROIs for ions {i} and {j} overlap")


def _frame_size(positions, side: int, frame_width, frame_height) -> tuple[int, int]:
    """Frame dimensions; a None one makes room for side x side boxes around the ions."""
    margin = side // 2 + 1
    if frame_width is None:
        frame_width = max(int(x) for x, _ in positions) + margin
    if frame_height is None:
        frame_height = max(int(y) for _, y in positions) + margin
    return frame_width, frame_height


@dataclass
class CcdFrame:
    pixels: np.ndarray  # shape (height, width), integer counts
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise DomainError(f"frame must be a 2-d grid, got shape {arr.shape}")
        if np.any(arr < 0):
            raise DomainError("frame pixel values must be >= 0")
        self.pixels = arr.astype(np.int64)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class RegisterReadout:
    """Per-ion background-subtracted ROI sums and their thresholded bits."""

    roi_sums: tuple
    thresholds: tuple
    bits: tuple
    truth: tuple | None = None

    def __post_init__(self):
        if len(self.roi_sums) != len(self.thresholds) or len(self.roi_sums) != len(self.bits):
            raise DomainError("roi_sums, thresholds and bits must have equal length")
        for s, t, b in zip(self.roi_sums, self.thresholds, self.bits):
            if b != (1 if s > t else 0):
                raise DomainError("bits must equal (roi_sum > threshold)")
        if self.truth is not None and len(self.truth) != len(self.bits):
            raise DomainError("truth length must match bits")

    @property
    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


def _frame_rng(seed: int, index: int = 0) -> np.random.Generator:
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    key = np.array([seed, (_FRAME_SALT << 32) + index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@lru_cache(maxsize=256)
def _state_cdf(state: int, lambda0: float, alpha1: float, alpha2: float, eta: float):
    hist = analytic_histograms(LeakParams(lambda0, alpha1, alpha2), eta)[state]
    cdf = np.cumsum(hist.values)
    cdf /= cdf[-1]
    return cdf


def _parse_states(states, n_ions: int):
    if isinstance(states, str):
        if not re.fullmatch(r"[01]+", states):
            raise DomainError(f"state string must be over 0/1, got {states!r}")
        bits = tuple(int(c) for c in states)
    else:
        bits = tuple(int(b) for b in states)
        if any(b not in (0, 1) for b in bits):
            raise DomainError(f"states must be 0/1, got {states!r}")
    if len(bits) != n_ions:
        raise DomainError(f"{len(bits)} states for {n_ions} ion positions")
    return bits


def synthesize_frame(
    states,
    positions: Sequence,
    per_ion_lambda0: Sequence,
    leak: LeakParams,
    eta: float,
    ccd: CcdParams,
    crosstalk_eps: float,
    seed: int,
    *,
    frame_width: int | None = None,
    frame_height: int | None = None,
    rng: np.random.Generator | None = None,
) -> CcdFrame:
    """One synthetic exposure of a linear register of ions.

    states selects dark/bright per ion; per_ion_lambda0 gives each ion's
    mean detected photon number (replacing leak.lambda0, whose alpha
    fields apply to every ion); eps routes that fraction of each ion's
    photons to each adjacent ion's position. The default frame makes room
    for the sqrt(ccd.roi_super_pixels)-sided ROI box around every ion.
    """
    n_ions = len(positions)
    if n_ions == 0:
        raise DomainError("at least one ion position is required")
    if len(per_ion_lambda0) != n_ions:
        raise DomainError(f"{len(per_ion_lambda0)} light levels for {n_ions} ions")
    if not 0.0 <= crosstalk_eps < 0.5:
        raise DomainError(f"crosstalk_eps must be in [0, 0.5), got {crosstalk_eps}")
    bits = _parse_states(states, n_ions)
    side = math.isqrt(ccd.roi_super_pixels)
    frame_width, frame_height = _frame_size(positions, side, frame_width, frame_height)
    if rng is None:
        rng = _frame_rng(seed)

    centers = np.array(positions, dtype=np.float64)
    deposits = np.zeros((frame_height, frame_width), dtype=np.float64)
    for i, (lam0, bit) in enumerate(zip(per_ion_lambda0, bits)):
        cdf = _state_cdf(bit, float(lam0), leak.alpha1, leak.alpha2, eta)
        n_phot = int(np.searchsorted(cdf, rng.random(), side="right"))
        if n_phot == 0:
            continue
        # destination ion index per photon: stay, or hop to a neighbor
        dest = np.full(n_phot, i)
        u = rng.random(n_phot)
        if i > 0:
            dest[u < crosstalk_eps] = i - 1
        if i + 1 < n_ions:
            dest[(u >= crosstalk_eps) & (u < 2 * crosstalk_eps)] = i + 1
        px = np.rint(centers[dest, 0] + rng.normal(0.0, ccd.psf_sigma, n_phot)).astype(np.int64)
        py = np.rint(centers[dest, 1] + rng.normal(0.0, ccd.psf_sigma, n_phot)).astype(np.int64)
        if ccd.gain_dist == "exponential":
            amounts = rng.exponential(ccd.counts_per_photon, n_phot)
        else:
            amounts = np.full(n_phot, float(ccd.counts_per_photon))
        inside = (px >= 0) & (px < frame_width) & (py >= 0) & (py < frame_height)
        np.add.at(deposits, (py[inside], px[inside]), amounts[inside])

    noise = rng.normal(0.0, ccd.readout_rms_r, deposits.shape) if ccd.readout_rms_r > 0 else 0.0
    raw = deposits + ccd.offset + noise
    pixels = np.rint(np.clip(raw, 0.0, None)).astype(np.int64)
    meta = dict(ccd.to_meta(), seed=seed, crosstalk_eps=crosstalk_eps, states="".join(map(str, bits)))
    return CcdFrame(pixels=pixels, meta=meta)


def read_register(frame: CcdFrame, rois: Sequence[Roi], thresholds: Sequence[float], truth=None) -> RegisterReadout:
    """Background-subtracted ROI sums thresholded into a bitstring.

    The pedestal is taken from the frame metadata and one offset per
    super-pixel is subtracted; a sum strictly above its threshold reads as
    bright.
    """
    if len(rois) != len(thresholds):
        raise DomainError(f"{len(rois)} ROIs but {len(thresholds)} thresholds")
    for i, roi in enumerate(rois):
        if roi.x0 + roi.width > frame.width or roi.y0 + roi.height > frame.height:
            raise DomainError(f"ROI {i} exceeds the {frame.width}x{frame.height} frame")
    _check_disjoint(rois)
    offset = float(frame.meta.get("offset", 0.0))
    sums = []
    for roi in rois:
        block = frame.pixels[roi.y0 : roi.y0 + roi.height, roi.x0 : roi.x0 + roi.width]
        sums.append(float(block.sum()) - roi.pixel_count * offset)
    bits = tuple(1 if s > t else 0 for s, t in zip(sums, thresholds))
    return RegisterReadout(
        roi_sums=tuple(sums),
        thresholds=tuple(float(t) for t in thresholds),
        bits=bits,
        truth=None if truth is None else tuple(truth),
    )


def simulate_register_batch(
    trials: int,
    positions: Sequence,
    per_ion_lambda0: Sequence,
    leak: LeakParams,
    eta: float,
    ccd: CcdParams,
    crosstalk_eps: float,
    thresholds: Sequence[float],
    seed: int,
    *,
    states="random",
    frame_width: int | None = None,
    frame_height: int | None = None,
):
    """Synthesize and read trials frames; returns the list of readouts.

    states is either the literal "random" (independent fair coin per ion
    per trial) or a fixed bit pattern applied to every trial. Each trial
    has its own counter-derived stream, so results do not depend on
    evaluation order. Each ion is read through a square ROI box of
    ccd.roi_super_pixels super-pixels, so that count must be a perfect
    square.
    """
    if not (isinstance(trials, int) and trials >= 1):
        raise DomainError(f"trials must be a positive integer, got {trials!r}")
    side = math.isqrt(ccd.roi_super_pixels)
    if side * side != ccd.roi_super_pixels:
        raise DomainError(f"roi_super_pixels must be a perfect square, got {ccd.roi_super_pixels}")
    n_ions = len(positions)
    frame_width, frame_height = _frame_size(positions, side, frame_width, frame_height)
    rois = default_rois(positions, frame_width, frame_height, size=side)
    fixed = None if states == "random" else _parse_states(states, n_ions)
    readouts = []
    for t in range(trials):
        rng = _frame_rng(seed, t)
        bits = tuple(int(b) for b in rng.integers(0, 2, n_ions)) if fixed is None else fixed
        frame = synthesize_frame(
            bits,
            positions,
            per_ion_lambda0,
            leak,
            eta,
            ccd,
            crosstalk_eps,
            seed,
            frame_width=frame_width,
            frame_height=frame_height,
            rng=rng,
        )
        readouts.append(read_register(frame, rois, thresholds, truth=bits))
    return readouts


def equal_error_threshold(dark_sums, bright_sums) -> float:
    """Discriminator level misidentifying equal fractions of each class.

    Scans the midpoints between adjacent observed values and returns the
    one minimizing |dark error - bright error|, breaking ties toward the
    smaller combined error and then the lower threshold. Deterministic.
    """
    dark = np.sort(np.asarray(dark_sums, dtype=np.float64))
    bright = np.sort(np.asarray(bright_sums, dtype=np.float64))
    if len(dark) == 0 or len(bright) == 0:
        raise DomainError("both training samples must be non-empty")
    merged = np.unique(np.concatenate([dark, bright]))
    if len(merged) == 1:
        return float(merged[0])
    candidates = (merged[:-1] + merged[1:]) / 2.0
    best = None
    for t in candidates:
        e_dark = float(np.mean(dark > t))
        e_bright = float(np.mean(bright <= t))
        key = (abs(e_dark - e_bright), e_dark + e_bright, t)
        if best is None or key < best[0]:
            best = (key, t)
    return float(best[1])


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise conditional-probability deviations of register bits.

    deviation[i][j] = |P(bit_i=1 | bit_j=1) - P(bit_i=1)| for i != j;
    stderr[i][j] is the null (independent-bits) standard error of that
    estimator; defined[i][j] is False when bit_j=1 never occurred, in
    which case the deviation is NaN rather than zero.
    """

    n_trials: int
    marginals: tuple
    cond_probs: tuple
    deviation: tuple
    stderr: tuple
    cond_counts: tuple
    defined: tuple

    @property
    def n_ions(self) -> int:
        return len(self.marginals)

    def adjacent_deviations(self) -> list:
        """Deviations of ordered pairs (i, j) with |i-j| = 1, defined only."""
        out = []
        for i in range(self.n_ions):
            for j in range(self.n_ions):
                if abs(i - j) == 1 and self.defined[i][j]:
                    out.append(self.deviation[i][j])
        return out

    def format_csv(self) -> str:
        lines = ["i,j,p_i,p_i_given_j,deviation,stderr,n_cond,defined"]
        for i in range(self.n_ions):
            for j in range(self.n_ions):
                if i == j:
                    continue
                lines.append(
                    "%d,%d,%.9g,%.9g,%.9g,%.9g,%d,%d"
                    % (
                        i,
                        j,
                        self.marginals[i],
                        self.cond_probs[i][j],
                        self.deviation[i][j],
                        self.stderr[i][j],
                        self.cond_counts[j],
                        1 if self.defined[i][j] else 0,
                    )
                )
        return "\n".join(lines) + "\n"


def conditional_correlations(readouts) -> CorrelationReport:
    """Measure inter-ion readout correlations from a batch of readouts.

    Requires at least two ions and 100 readouts. Entries conditioned on
    an event that never occurred are flagged undefined (NaN), since
    absence of evidence is not evidence of independence.
    """
    if len(readouts) < 100:
        raise DomainError(f"need at least 100 readouts, got {len(readouts)}")
    bits = np.array([r.bits for r in readouts], dtype=np.int64)
    n_trials, n_ions = bits.shape
    if n_ions < 2:
        raise DomainError(f"need at least 2 ions, got {n_ions}")
    marginals = bits.mean(axis=0)
    cond_counts = bits.sum(axis=0)
    deviation = [[float("nan")] * n_ions for _ in range(n_ions)]
    stderr = [[float("nan")] * n_ions for _ in range(n_ions)]
    cond_probs = [[float("nan")] * n_ions for _ in range(n_ions)]
    defined = [[False] * n_ions for _ in range(n_ions)]
    for j in range(n_ions):
        nj = int(cond_counts[j])
        if nj == 0:
            continue
        sel = bits[bits[:, j] == 1]
        for i in range(n_ions):
            if i == j:
                continue
            p_cond = float(sel[:, i].mean())
            p_marg = float(marginals[i])
            deviation[i][j] = abs(p_cond - p_marg)
            cond_probs[i][j] = p_cond
            var = p_marg * (1.0 - p_marg) * max(1.0 / nj - 1.0 / n_trials, 0.0)
            stderr[i][j] = math.sqrt(var)
            defined[i][j] = True
    return CorrelationReport(
        n_trials=n_trials,
        marginals=tuple(float(m) for m in marginals),
        cond_probs=tuple(tuple(row) for row in cond_probs),
        deviation=tuple(tuple(row) for row in deviation),
        stderr=tuple(tuple(row) for row in stderr),
        cond_counts=tuple(int(c) for c in cond_counts),
        defined=tuple(tuple(row) for row in defined),
    )


def crosstalk_ratio(wavelength: float, spacing: float) -> float:
    """Fluorescence intensity of one ion at its neighbor's position,
    relative to the drive intensity: 3*wavelength^2/(4*pi*spacing^2).
    Both lengths in the same unit."""
    if not wavelength > 0:
        raise DomainError(f"wavelength must be > 0, got {wavelength}")
    if not spacing > 0:
        raise DomainError(f"spacing must be > 0, got {spacing}")
    return 3.0 * wavelength**2 / (4.0 * math.pi * spacing**2)


def format_readouts_csv(readouts) -> str:
    lines = ["trial,ion,roi_sum,bit"]
    for t, r in enumerate(readouts):
        for i, (s, b) in enumerate(zip(r.roi_sums, r.bits)):
            lines.append("%d,%d,%.9g,%d" % (t, i, s, b))
    return "\n".join(lines) + "\n"


def write_pgm(path, frame: CcdFrame) -> None:
    """16-bit binary graymap with the frame metadata in a comment line."""
    meta = " ".join(f"{k}={v}" for k, v in sorted(frame.meta.items()))
    clipped = np.clip(frame.pixels, 0, 65535).astype(">u2")
    header = f"P5\n# {meta}\n{frame.width} {frame.height}\n65535\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(clipped.tobytes())


def read_pgm(path) -> CcdFrame:
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ConfigError("not a binary PGM file")
    meta = {}
    pos = 2
    tokens = []
    while len(tokens) < 3:
        # skip whitespace, collect header tokens, capture comments
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            end = data.index(b"\n", pos)
            comment = data[pos + 1 : end].decode("ascii").strip()
            for part in comment.split():
                if "=" in part:
                    k, _, v = part.partition("=")
                    meta[k] = v
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 65535:
        raise ConfigError(f"expected 16-bit graymap (maxval 65535), got {maxval}")
    pos += 1  # single whitespace after maxval
    pixels = np.frombuffer(data[pos : pos + 2 * width * height], dtype=">u2")
    if pixels.size != width * height:
        raise ConfigError("PGM pixel payload is truncated")
    return CcdFrame(pixels=pixels.reshape(height, width).astype(np.int64), meta=meta)
