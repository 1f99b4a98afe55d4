"""Intensified-imager model: gain chain, readout noise, simulated ROI
readout of a multi-ion register, and crosstalk statistics.

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
counts_per_photon (the two are not assumed to decompose). ``CcdParams``,
this law (``snr``) and ``crosstalk_ratio`` are defined in the numpy-free
``settings`` module and imported here.

Crosstalk between neighboring ions is modeled by routing a fraction eps
of each ion's detected photons onto each adjacent ion's image position
(drifty imaging smears light into the neighbor's region), in addition to
whatever PSF spill the geometry already produces.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from ._text import _table
from .detmodel import LeakParams, _leak_fractions, pmf_arrays
from .errors import ConfigError, DomainError, _count, _instance, _is_real, _real
from .mcsim import _keyed_rng
from .settings import CcdParams, crosstalk_ratio, snr  # noqa: F401 (the last two re-exported)

# Trials per keyed block of the register stream. BLOCK, the salt and the
# draw order (random states, then _sampler's draws) are the stream version:
# change the salt whenever the other two change, so no key spans two layouts.
BLOCK = 64
_STREAM_SALT = 0x5EED_0002


MAX_PIXELS = 2**22  # pixels from (0, 0) to the far ROI corner, a 2048 x 2048 frame; the sampler indexes fewer
MAX_READOUTS = 2**20  # trials x ions of one register batch, held as columns and as CSV rows
# Iteration turns this many trials into Python objects at a time.
_ITER_TRIALS = 1024


def _positions(positions) -> list:
    """positions as a list of (x, y) pairs of finite numbers."""
    try:
        pairs = [(x, y) for x, y in positions]
    except (TypeError, ValueError):  # not a sequence of pairs
        raise DomainError(f"positions must be a sequence of (x, y) pairs, got {positions!r}") from None
    return [(_real(x, f"positions[{i}]"), _real(y, f"positions[{i}]")) for i, (x, y) in enumerate(pairs)]


def _boxes(positions, side: int) -> np.ndarray:
    """The (ions, 2) origins of the side x side boxes centred on positions. Refuses no positions, over
    MAX_PIXELS pixels from (0, 0) to the far ROI corner, a box reaching below pixel 0 and overlapping boxes."""
    if len(positions) == 0:
        raise DomainError("at least one ion position is required")
    # Python ints, so a coordinate past int64 is refused before numpy sees it
    origins = [(int(x) - side // 2, int(y) - side // 2) for x, y in positions]
    width, height = (max(o[axis] for o in origins) + side for axis in (0, 1))
    if min(width, height) < 1 or width * height > MAX_PIXELS:
        raise ConfigError(f"positions put the far ROI corner at ({width}, {height}), not 1 to {MAX_PIXELS} pixels")
    for i, ((x, y), origin) in enumerate(zip(positions, origins)):
        if min(origin) < 0:
            raise ConfigError(f"ROI around positions[{i}] = ({x},{y}) reaches below pixel 0")
    origins = np.array(origins, dtype=np.int64)
    for i in range(len(origins) - 1):
        near = (np.abs(origins[i + 1 :] - origins[i]) < side).all(axis=1)
        if near.any():
            raise ConfigError(f"ROIs for ions {i} and {i + 1 + int(near.argmax())} overlap")
    return origins


@dataclass(slots=True, eq=False)
class RegisterBatch:
    """Per-trial, per-ion background-subtracted ROI sums, their thresholded
    bits and the true states (None when unknown), as (trials, ions) columns.

    len() counts trials; batch[k] is trial k's per-ion row and a slice is a
    smaller batch. Iteration yields one row per trial with list columns,
    converting _ITER_TRIALS trials at a time.
    """

    roi_sums: np.ndarray
    bits: np.ndarray
    truth: np.ndarray | None

    def __len__(self) -> int:
        return len(self.roi_sums)

    def __getitem__(self, key) -> RegisterBatch:
        return RegisterBatch(self.roi_sums[key], self.bits[key], None if self.truth is None else self.truth[key])

    def __iter__(self):
        for start in range(0, len(self), _ITER_TRIALS):
            part = self[start : start + _ITER_TRIALS]
            truth = repeat(None) if part.truth is None else part.truth.tolist()
            yield from map(RegisterBatch, part.roi_sums.tolist(), part.bits.tolist(), truth)


@lru_cache(maxsize=64)
def _count_cdfs(per_ion_lambda0: tuple, alpha1: float, alpha2: float, eta: float):
    """Stacked count CDFs, row 2*i+b for ion i in state b, each shifted up by its row number
    so one searchsorted of row + u serves every row; and the offsets of each row and the end."""
    cdfs = []
    for lam0 in per_ion_lambda0:
        for pmf in pmf_arrays(LeakParams(lam0, alpha1, alpha2), eta):
            cdf = np.cumsum(pmf)
            cdfs.append(cdf / cdf[-1] + len(cdfs))
    return np.concatenate(cdfs), np.cumsum([0] + [len(cdf) for cdf in cdfs])


def _parse_states(states, n_ions: int):
    if isinstance(states, str):  # a 0/1 string: one character per ion
        states = [int(c) if c in ("0", "1") else c for c in states]
    bits = tuple(_count(b, "each state", 0, 2) for b in _instance(states, Iterable, "states"))
    if len(bits) != n_ions:
        raise DomainError(f"{len(bits)} states for {n_ions} ion positions")
    return bits


def _sampler(positions, per_ion_lambda0, leak, eta, ccd, crosstalk_eps, origins, side):
    """expose(rng, bits): the pixel values of the side x side boxes at origins in one exposure per row of bits.

    per_ion_lambda0 is the light level of each ion; leak supplies only the
    leak ratios alpha1 and alpha2. bits is a (trials, ions) 0/1 array; the
    result has one column per pixel of the boxes, box by box, each box
    row-major. A photon outside every box is lost. Draws, in this order: a
    uniform per ion for its photon count; per photon a uniform for its
    destination (eps to each neighbor), x then y PSF offsets, and an
    exponential gain; the readout noise of every read pixel.
    """
    n_ions = len(positions)
    per_ion_lambda0 = [_real(v, "per_ion_lambda0", 0)
                       for v in _instance(per_ion_lambda0, Iterable, "per_ion_lambda0")]
    if len(per_ion_lambda0) != n_ions:
        raise DomainError(f"{len(per_ion_lambda0)} light levels for {n_ions} ions")
    _real(crosstalk_eps, "crosstalk_eps", 0, 0.5, "[)")
    centers = np.array(positions, dtype=np.float64)
    stack, starts = _count_cdfs(tuple(float(v) for v in per_ion_lambda0), leak.alpha1, leak.alpha2, eta)
    # the column of each pixel of the boxes' span, -1 outside every box; pixel (px, py) is py * width + px - shift
    (x_lo, y_lo), (x_hi, y_hi) = origins.min(axis=0).tolist(), (origins.max(axis=0) + side).tolist()
    width, shift = x_hi - x_lo, y_lo * (x_hi - x_lo) + x_lo
    pixels = np.arange(side)
    read = (width * (origins[:, 1, None, None] + pixels[:, None]) + origins[:, 0, None, None] + pixels - shift).ravel()
    column = np.full((y_hi - y_lo) * width, -1)
    column[read] = np.arange(read.size)

    def expose(rng, bits):
        trials = len(bits)
        rows = 2 * np.arange(n_ions) + bits
        # rounding row + u up to row + 1 must not step past the row's last bin
        found = np.searchsorted(stack, rows + rng.random(rows.shape), side="right")
        counts = np.minimum(found, starts[rows + 1] - 1) - starts[rows]
        src = np.repeat(np.tile(np.arange(n_ions), trials), counts.ravel())
        trial = np.repeat(np.arange(trials), counts.sum(axis=1))
        u = rng.random(src.size)
        dest = (src - ((u < crosstalk_eps) & (src > 0))
                + ((u >= crosstalk_eps) & (u < 2 * crosstalk_eps) & (src + 1 < n_ions)))
        px, py = np.rint(centers[dest].T + rng.normal(0.0, ccd.psf_sigma, (2, src.size))).astype(np.int64)
        if ccd.gain_dist == "exponential":
            amounts = rng.exponential(ccd.counts_per_photon, src.size)
        else:
            amounts = np.full(src.size, float(ccd.counts_per_photon))
        inside = (px >= x_lo) & (px < x_hi) & (py >= y_lo) & (py < y_hi)
        col = column[py[inside] * width + px[inside] - shift]
        hit = col >= 0
        raw = np.bincount(trial[inside][hit] * read.size + col[hit],
                          weights=amounts[inside][hit], minlength=trials * read.size)
        # over no photons bincount returns int64 zeros, so the in-place steps need a float buffer
        raw = raw.reshape(trials, read.size).astype(np.float64, copy=False)
        raw += ccd.offset
        if ccd.readout_rms_r > 0:
            raw += rng.normal(0.0, ccd.readout_rms_r, raw.shape)
        np.clip(raw, 0.0, None, out=raw)
        return np.rint(raw, out=raw)

    return expose


def _thresholds(thresholds, n_rois: int) -> np.ndarray:
    """One threshold per ROI, as an array; a NaN one would read its ion as always dark."""
    values = list(_instance(thresholds, Iterable, "thresholds"))
    if len(values) != n_rois:
        raise DomainError(f"{n_rois} ROIs but {len(values)} thresholds")
    try:
        thresholds = np.array([float(t) if _is_real(t) else math.nan for t in values])
    except OverflowError:  # an int beyond the float range
        thresholds = np.full(n_rois, math.nan)
    if np.isnan(thresholds).any():
        raise DomainError(f"thresholds must be numbers, not NaN: {values}")
    return thresholds


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
):
    """Synthesize and read trials exposures into one RegisterBatch.

    states is either the literal "random" (independent fair coin per ion
    per trial) or a fixed bit pattern applied to every trial. Trials are
    drawn in blocks of BLOCK from one generator re-keyed by (seed, block
    index) for each block, so a seed gives the same readouts within a
    stream version. Each ion is read through a square ROI box of
    ccd.roi_super_pixels super-pixels, so that count must be a perfect
    square; only the ROI pixels are drawn. per_ion_lambda0 is the light
    level of each ion; leak supplies only the leak ratios. Refused: no
    positions, over MAX_PIXELS pixels from (0, 0) to the far ROI corner, a
    box reaching below pixel 0, and overlapping boxes.
    """
    _count(trials, "trials", 1)
    positions = _positions(positions)
    if trials * len(positions) > MAX_READOUTS:
        raise ConfigError(f"{trials} trials of {len(positions)} ions exceed the cap of {MAX_READOUTS} readouts")
    _count(seed, "seed", 0, 2**64)
    _leak_fractions(leak, eta)
    side = math.isqrt(_instance(ccd, CcdParams, "imager settings").roi_super_pixels)
    if side * side != ccd.roi_super_pixels:
        raise DomainError(f"roi_super_pixels must be a perfect square, got {ccd.roi_super_pixels}")
    n_ions = len(positions)
    thresholds = _thresholds(thresholds, n_ions)
    fixed = None if isinstance(states, str) and states == "random" else _parse_states(states, n_ions)
    expose = _sampler(positions, per_ion_lambda0, leak, eta, ccd, crosstalk_eps, _boxes(positions, side), side)
    sums = np.empty((trials, n_ions))
    truth = np.empty((trials, n_ions), dtype=np.int64)
    rng = None
    # imager settings near the float range can overflow a sum, or a photon's position past int64
    # (it lands outside every ROI either way): such sums are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for block, start in enumerate(range(0, trials, BLOCK)):
            states = truth[start : start + BLOCK]
            rng = _keyed_rng(seed, _STREAM_SALT, block, rng)
            states[...] = rng.integers(0, 2, states.shape) if fixed is None else fixed
            sums[start : start + BLOCK] = expose(rng, states).reshape(len(states), n_ions, -1).sum(axis=2)
        sums -= ccd.roi_super_pixels * ccd.offset
    if not np.isfinite(sums).all():
        raise DomainError(f"ROI sums leave the float range at offset {ccd.offset}, counts_per_photon "
                          f"{ccd.counts_per_photon} and readout_rms_r {ccd.readout_rms_r}")
    return RegisterBatch(sums, (sums > thresholds).astype(int), truth)


def equal_error_threshold(dark_sums, bright_sums) -> float:
    """Discriminator level misidentifying equal fractions of each class.

    Scans the midpoints between adjacent observed values and returns the
    one minimizing |dark error - bright error|, breaking ties toward the
    smaller combined error and then the lower threshold. Deterministic.
    Both samples must be non-empty, finite 1-d sequences of numbers.
    """
    try:
        samples = np.asarray(dark_sums), np.asarray(bright_sums)
    except ValueError as exc:  # ragged nesting
        raise DomainError(f"training samples must be 1-d sequences of numbers: {exc}") from None
    if not all(s.ndim == 1 and s.dtype.kind in "iuf" for s in samples):
        raise DomainError("training samples must be 1-d sequences of numbers")
    dark, bright = (np.sort(s.astype(np.float64)) for s in samples)
    if len(dark) == 0 or len(bright) == 0:
        raise DomainError("both training samples must be non-empty")
    if not (np.isfinite(dark).all() and np.isfinite(bright).all()):
        raise DomainError("training samples must be finite, not NaN or infinite")
    # the distinct values by a neighbour mask: np.unique would import numpy.ma
    merged = np.sort(np.concatenate([dark, bright]))
    merged = merged[np.concatenate([[True], merged[1:] != merged[:-1]])]
    if len(merged) == 1:
        return float(merged[0])
    candidates = (merged[:-1] + merged[1:]) / 2.0
    e_dark = (len(dark) - np.searchsorted(dark, candidates, side="right")) / len(dark)
    e_bright = np.searchsorted(bright, candidates, side="right") / len(bright)
    # lexsort's last key is the primary one; it is stable, so equal keys keep scan order
    best = np.lexsort((candidates, e_dark + e_bright, np.abs(e_dark - e_bright)))[0]
    return float(candidates[best])


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

    def format_csv(self) -> str:
        """One row per ordered pair of distinct ions, i-major."""
        i, j = np.nonzero(~np.eye(self.n_ions, dtype=bool))
        pairs = [np.asarray(m, np.float64)[i, j] for m in (self.cond_probs, self.deviation, self.stderr)]
        return "".join(_table("i,j,p_i,p_i_given_j,deviation,stderr,n_cond,defined", [
            i, j, np.asarray(self.marginals, np.float64)[i], *pairs,
            np.asarray(self.cond_counts, np.int64)[j], np.asarray(self.defined, bool)[i, j]]))


def _check_report(n_trials: int, n_ions: int) -> None:
    """The correlation report's preconditions: at least 100 readouts, of at least 2 ions."""
    if n_trials < 100:
        raise DomainError(f"need at least 100 readouts, got {n_trials}")
    if n_ions < 2:
        raise DomainError(f"need at least 2 ions, got {n_ions}")


def conditional_correlations(batch: RegisterBatch) -> CorrelationReport:
    """Measure inter-ion readout correlations from the bits of a register batch.

    Requires at least two ions and 100 readouts. Entries conditioned on
    an event that never occurred are flagged undefined (NaN), since
    absence of evidence is not evidence of independence.
    """
    bits = np.asarray(_instance(batch, RegisterBatch, "batch").bits, dtype=np.int64)
    _check_report(len(batch), bits.shape[1] if bits.ndim == 2 else 0)  # the readout count first
    n_trials, n_ions = bits.shape
    marginals = bits.mean(axis=0)
    cond_counts = bits.sum(axis=0)
    # entry [i, j] conditions ion i on bit_j = 1
    defined = (cond_counts > 0) & ~np.eye(n_ions, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond_probs = np.where(defined, (bits.T @ bits) / cond_counts, np.nan)
        var = (marginals * (1.0 - marginals))[:, None] * np.maximum(1.0 / cond_counts - 1.0 / n_trials, 0.0)
        stderr = np.where(defined, np.sqrt(var), np.nan)
    return CorrelationReport(
        n_trials=n_trials,
        marginals=tuple(marginals.tolist()),
        cond_probs=tuple(map(tuple, cond_probs.tolist())),
        deviation=tuple(map(tuple, np.abs(cond_probs - marginals[:, None]).tolist())),
        stderr=tuple(map(tuple, stderr.tolist())),
        cond_counts=tuple(cond_counts.tolist()),
        defined=tuple(map(tuple, defined.tolist())),
    )


def _as_printed(sums):
    """The sums as int64 if every one prints the same as an integer as it does as a float, else as given."""
    if not np.all(np.abs(sums) < 1e9):
        return sums
    whole = sums.astype(np.int64)
    # integral sums below 1e9 print the same as integers, except a -0.0 ("-0")
    return whole if np.array_equal(whole, sums) and not np.signbit(sums[whole == 0]).any() else sums


def _readout_chunks(batch: RegisterBatch):
    """The readouts CSV as its header, then chunks of _CSV_ROWS rows."""
    sums = _as_printed(batch.roi_sums)
    # the trial and ion columns as broadcast views, which allocate no (trials, ions) array
    trial = np.broadcast_to(np.arange(sums.shape[0])[:, None], sums.shape)
    ion = np.broadcast_to(np.arange(sums.shape[1]), sums.shape)
    return _table("trial,ion,roi_sum,bit", [trial, ion, sums, batch.bits])


def format_readouts_csv(batch: RegisterBatch) -> str:
    """trial,ion,roi_sum,bit rows, trial-major, formatted _CSV_ROWS rows at a time."""
    return "".join(_readout_chunks(batch))
