"""Exception types shared across the package, and the numpy-free input checks that raise them."""


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


def _count(n, what: str = "count") -> int:
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"{what} must be a non-negative integer, got {n!r}")
    return n
