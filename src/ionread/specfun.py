"""Special functions for the photon-count distributions, on scipy.special.

Two families are needed: the regularized lower incomplete gamma function
of integer order and the Poisson pmf. ``log_poisson`` and
``log_reg_inc_gamma`` are the unvalidated array forms that
``detmodel.count_pmfs`` combines in log space; the scalar functions
validate their arguments and evaluate the same expressions. scipy.special
is imported on first use, which keeps ``import ionread`` cheap.

Tested range: the kernel's pmfs are finite and sum to 1 within 1e-9 at
lambda0 = 1e5 and 1e6 for leak fractions 0, 1e-6 and 1e-3. Near counts of
1e6 both gammainc and the log-gamma form of the Poisson pmf carry relative
errors of 1e-10 to 1e-9 (the dark pmf at lambda0 = 1e6, alpha1/eta = 0.01
sums to 1 - 1.8e-9). P(n+1, x) underflows under the dark leak term once
(alpha1/eta)*sqrt(lambda0) exceeds about 25 (lambda0 >= 1e3); the kernel
raises DomainError there.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def log_poisson(n, mean):
    """log of the Poisson pmf at counts n, -inf where the pmf is zero."""
    from scipy.special import gammaln, xlogy

    return xlogy(n, mean) - mean - gammaln(n + 1.0)


def log_reg_inc_gamma(a, x):
    """log P(a, x) of the regularized lower incomplete gamma function."""
    from scipy.special import gammainc

    with np.errstate(divide="ignore"):
        return np.log(gammainc(a, x))


def _count(n, what: str = "count") -> int:
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {n!r}")
    return n


def reg_inc_gamma(a, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), integer a >= 1.

    P(a, x) = (1/(a-1)!) * integral_0^x exp(-t) t^(a-1) dt, so P(a, 0) = 0
    and P(a, inf) = 1. For integer order this equals the probability that a
    Poisson variable with mean x is >= a.
    """
    if _count(a, "gamma order") < 1:
        raise DomainError(f"gamma order must be >= 1, got {a}")
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise DomainError(f"gamma argument must be a real number, got {x!r}")
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"gamma argument must be finite and >= 0, got {x}")
    from scipy.special import gammainc

    return float(gammainc(a, x))


def log_poisson_pmf(n, mean: float) -> float:
    """log of the Poisson pmf at count n; -inf where the pmf is zero."""
    n = _count(n)
    mean = float(mean)
    if not math.isfinite(mean) or mean < 0.0:
        raise DomainError(f"Poisson mean must be finite and >= 0, got {mean}")
    return float(log_poisson(n, mean))


def poisson_pmf(n, mean: float) -> float:
    """Poisson pmf exp(-mean) mean^n / n!, computed in log space."""
    return float(np.exp(log_poisson_pmf(n, mean)))
