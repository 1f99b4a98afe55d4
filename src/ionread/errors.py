"""Exception types shared across the package, and the numpy-free input checks that raise them.

Every number a public constructor or entry point takes passes ``_real``,
or ``_count`` for an integer: a bool is no number, and NaN, the
infinities and an int beyond the float range are refused alike.
"""

import math
import numbers


class IonReadError(Exception):
    """Base class for every error raised deliberately by this package."""


class DomainError(IonReadError, ValueError):
    """A function was called outside its mathematical or physical domain.

    The message always names the violated constraint so batch drivers can
    surface it verbatim.
    """


class ConfigError(IonReadError, ValueError):
    """A configuration document or CLI argument failed validation."""


def _enum(kind, value, what: str):
    """value as a member of the enum kind, or a DomainError naming the accepted values."""
    try:
        return kind(value)
    except ValueError:
        accepted = ", ".join(repr(member.value) for member in kind)
        raise DomainError(f"{what} must be one of {accepted}, got {value!r}") from None


def _instance(value, kind, what: str):
    """value, if it is an instance of kind; else a DomainError naming what."""
    if isinstance(value, kind):
        return value
    names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
    raise DomainError(f"{what} must be a {names}, got {type(value).__name__}")


def _is_real(value) -> bool:
    """The type test of a real input: a real number, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """The type test of an integer input: an integral number, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value, what: str, lo=-math.inf, hi=math.inf, ends: str = "[]"):
    """value, unchanged, if it is a finite real number from lo to hi, each
    end closed or open as ends spells it; else a DomainError naming what."""
    try:
        # the type tests in order of cost: a float or an int is the common case
        x = (value if type(value) is float else
             float(value) if type(value) is int or _is_real(value) else math.nan)
    except OverflowError:  # an int beyond the float range
        x = math.nan
    # strictly inside, or on a closed end; x - x is 0 for a finite x and NaN otherwise
    if (lo < x < hi or lo <= x <= hi and (x > lo or ends[0] == "[") and (x < hi or ends[1] == "]")) and x - x == 0:
        return value
    lower = f" and {'>' if ends[0] == '(' else '>='} {lo}" if lo > -math.inf else ""
    bounds = f"in {ends[0]}{lo}, {hi}{ends[1]}" if hi < math.inf else f"finite{lower}"
    raise DomainError(f"{what} must be {bounds}, got {value!r}")


def _count(n, what: str = "count", lo: int = 0, hi=math.inf) -> int:
    """n, unchanged, if it is an integer from lo up to but not including hi;
    else a DomainError naming what."""
    if (type(n) is int or _is_integer(n)) and lo <= n < hi:
        return n
    bounds = f"in [{lo}, {hi})" if hi < math.inf else f">= {lo}"
    raise DomainError(f"{what} must be an integer {bounds}, got {n!r}")
