"""Poisson log-pmf and upper tails for the photon-count distributions, numpy only.

For integer n the regularized lower incomplete gamma function P(n+1, x)
is the Poisson upper tail sum_{k>n} pois(k; x), so both special
functions the count distributions need are sums over one Poisson
log-pmf table:

- ``log_poisson`` takes log(k!) from a ``math.lgamma`` table below
  ``_TABLE`` counts and from Loader's saddle-point form above it,
  log pois(k; x) = -stirlerr(k) - bd0(k, x) - log(2 pi k)/2 (C. Loader,
  "Fast and accurate computation of binomial probabilities", 2000);
- ``log_upper_tails`` is exact on both sides of the median: where the
  forward CDF is <= 1/2 the tail is log1p(-CDF), elsewhere a reverse
  sum of the pmf scaled by e^700, and a reverse ``np.logaddexp.accumulate``
  of the log-pmf, which cannot underflow, where even that sum would;
- ``tail_window`` sizes the table, padded past its last needed count
  until the pmf has fallen by 2^-60 and cut where nothing is needed.

``detmodel`` alone imports this module: its kernel builds the table with
``log_poisson`` and combines the tails in log space, for the pmfs and
their derivatives alike.

Tested range: the kernel's pmfs are finite and sum to 1 within 1e-9 for
lambda0 up to 1e6 and leak fractions 0 <= a1 < 1, a2 >= 0, and the
dark leak term matches a 40-digit mpmath sum in its deep tail.
"""

from __future__ import annotations

import math

import numpy as np

from .detmodel import _cutoffs

# log(k!) is tabulated for k < _TABLE and taken from Loader's form above
_TABLE = 1024
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(_TABLE)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# the padding beyond the last needed count: the pmf falls below 2^-60 of it
_PAD_LOG = 60.0 * math.log(2.0)
# the reverse sums scale the pmf by e^_SCALE (their total stays below e^_SCALE)
# and fall back to log-sums where a scaled tail drops below _TINY
_SCALE = 700.0
_TINY = 2.0**-960
# below mean - _FLOOR_SIGMAS*sqrt(mean) - _FLOOR_SIGMAS the Poisson CDF is under 1e-300
_FLOOR_SIGMAS = 38.0


def _stirlerr(k):
    """log(k!) - log(sqrt(2 pi k) (k/e)^k) for k >= _TABLE (Loader's series)."""
    kk = k * k
    return (1.0 / 12 - (1.0 / 360 - (1.0 / 1260 - (1.0 / 1680 - 1.0 / 1188 / kk) / kk) / kk) / kk) / k


def _bd0(k, mean):
    """k*log(k/mean) + mean - k without cancellation (Loader's deviance)."""
    out = np.asarray(k * (np.log(k) - np.log(mean)) + mean - k)
    near = np.abs(k - mean) < 0.1 * (k + mean)
    if near.any():
        k, mean = (np.broadcast_to(v, out.shape)[near] for v in (k, mean))
        v = (k - mean) / (k + mean)
        series = (k - mean) * v
        term = 2.0 * k * v
        v *= v
        # |v| < 0.1, so ten odd powers reach 1e-20 of the leading term
        for j in range(3, 23, 2):
            term *= v
            series += term / j
        out[near] = series
    return out


def log_poisson(n, mean):
    """log of the Poisson pmf at counts n, -inf where the pmf is zero.

    n holds non-negative integer counts; mean is a scalar >= 0 or an
    array of means > 0 that broadcasts against n.
    """
    n = np.asarray(n, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if mean.ndim == 0 and float(mean) == 0.0:
        return np.where(n == 0.0, 0.0, -np.inf)
    log_mean = math.log(mean) if mean.ndim == 0 else np.log(mean)
    # max and min rather than an n < _TABLE mask: a third of the time on a small table
    if n.max(initial=0.0) < _TABLE:
        return n * log_mean - mean - _LOG_FACTORIAL[n.astype(np.intp)]
    big = np.maximum(n, _TABLE)
    loader = -_stirlerr(big) - _bd0(big, mean) - (_HALF_LOG_2PI + 0.5 * np.log(big))
    if n.min() >= _TABLE:
        return loader
    table = n * log_mean - mean - _LOG_FACTORIAL[np.minimum(n, _TABLE - 1).astype(np.intp)]
    return np.where(n < _TABLE, table, loader)


def tail_window(n_min: int, n_max: int, mean_min: float, mean_max: float) -> tuple[int, int, int]:
    """(lo, top, fwd): the count range lo..top of the table that the upper
    tails at counts n_min..n_max need, for means in [mean_min, mean_max].

    The table starts at 0, or where the forward CDF of every mean is
    below 1e-300, or at n_min when every requested count lies above every
    median. It ends at n_max when every requested count lies below every
    median, and otherwise past max(n_max, histogram cutoff), where every
    pmf has fallen by 2^-60. Only its first fwd columns can lie at or
    below a median (the median is below mean + 1); fwd covers the whole
    table when it ends at n_max.
    """
    lo = n_min
    if 0 < n_min <= mean_max + 1.0:
        lo = min(n_min, int(max(0.0, mean_min - _FLOOR_SIGMAS * (math.sqrt(mean_min) + 1.0))))
    if n_max <= mean_min - 2.0:
        top = n_max
    else:
        base = max(n_max, int(_cutoffs(mean_max)))
        ratio = math.inf if mean_max == 0.0 else math.log(base + 2.0) - math.log(mean_max)
        top = base + max(1, math.ceil(_PAD_LOG / ratio))
    # mean_max may overflow to inf, at a2*lambda0 beyond the float range
    return lo, top, min(top + 1, int(min(mean_max, top)) + 2) - lo if lo <= mean_max + 1.0 else 0


def log_upper_tails(lp, fwd: int):
    """log P(k+1, mean) = log sum_{j>k} pois(j; mean) at every column k of a table.

    lp is the Poisson log-pmf on the counts of ``tail_window``, one mean
    per row along the last axis, and fwd the column count it returned.
    A column whose forward CDF is <= 1/2 takes log1p(-CDF). The others
    take a reverse sum of the pmf scaled by e^_SCALE, and a reverse
    ``np.logaddexp.accumulate`` where that sum underflows.
    """
    cols = lp.shape[-1]
    out = np.empty_like(lp)
    if fwd < cols:
        # rev[..., i] is the scaled sum over j > cols - 2 - i, written into columns cols-2..0
        rev = out[..., : cols - 1][..., ::-1]
        np.add(lp[..., :0:-1], _SCALE, out=rev)
        np.exp(rev, out=rev)
        np.add.accumulate(rev, axis=-1, out=rev)
        lost = 0  # leading entries of rev whose scaled sum underflowed, log-summed instead
        if min(rev[..., 0].flat) < _TINY:
            lost = int(np.count_nonzero((rev < _TINY).reshape(-1, cols - 1).any(axis=0)))
            rev[..., :lost] = np.logaddexp.accumulate(lp[..., : cols - 1 - lost : -1], axis=-1)
        kept = rev[..., lost:]
        np.log(kept, out=kept)
        kept -= _SCALE
        out[..., cols - 1] = -np.inf
    if fwd > 0:
        cdf = np.add.accumulate(np.exp(lp[..., :fwd]), axis=-1)
        np.log1p(np.negative(cdf), out=out[..., :fwd], where=cdf <= 0.5)
    return out
