"""Exception hierarchy with machine-readable error codes.

Codes are kebab-case strings surfaced verbatim by the CLI as
``error: <code>: <message>``.  Every layer imports this module, so the
integer, real, sequence and memory rules of every argument live here too.
"""
import collections.abc
import math
import numbers
import os


class SarfimaError(Exception):
    """Base class; carries a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class ValidationError(SarfimaError):
    """Bad inputs: malformed specs, invalid bandwidths, guard violations."""


class NumericError(SarfimaError):
    """Numerical failure: quadrature self-check, non-PSD covariance, ..."""


def _check_integer(value, low, code: str, what: str, high: int = None) -> int:
    """``value`` as a plain int; raise ``code`` unless it is an integer (not a
    bool, float or str) with low <= value < high, where None is no bound.
    Called before any cache lookup, so that 12.0 or True is rejected, not
    served from the entry of the equal int; a numpy integer is accepted."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        number = int(value)
        if (low is None or number >= low) and (high is None or number < high):
            return number
    rule = " and ".join(f"{op} {bound}" for op, bound in ((">=", low), ("<", high)) if bound is not None)
    raise ValidationError(code, f"{what} must be an integer {rule}".rstrip() + f", got {_shown(value)}")


def _check_real(value, code: str, what: str) -> float:
    """``value`` as a float; raise ``code`` unless it is a real number (not a
    bool or str) that is finite and inside the float range, so that an int
    past the range ends in the code, not in an ``OverflowError``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValidationError(code, f"{what} must be a finite real number, got {_shown(value)}")


def _check_sequence(value, code: str, what: str, kind=None) -> tuple:
    """``value`` as a tuple; raise ``code`` unless it is an iterable that is
    not a str, bytes or mapping (a 1-d numpy array counts) and, when ``kind``
    is given, every item is a ``kind`` instance."""
    try:
        if isinstance(value, (str, bytes, collections.abc.Mapping)):
            raise TypeError
        items = tuple(value)
    except TypeError:   # not iterable, or a 0-d numpy array
        raise ValidationError(code, f"{what} must be a sequence, got {_shown(value)}") from None
    for item in items if kind is not None else ():
        if not isinstance(item, kind):
            raise ValidationError(code, f"each of {what} must be of type {kind.__name__}, got {_shown(item)}")
    return items


def _shown(value) -> str:
    """``repr(value)``, except that an integer of more than 64 bits (about
    20 digits) is shown by its digit count, taken from its bit length:
    ``str`` refuses an int of more than 4300 digits."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        bits = abs(int(value)).bit_length()
        if bits > 64:
            digits = int(bits * math.log10(2)) + 1   # exact, or one too many
            return f"{'a negative' if value < 0 else 'an'} integer of about {digits} digits"
    return repr(value)


def _check_fits(need: int, what: str, hint: str = ""):
    """Raise ``too-large`` unless ``need`` bytes fit in physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        gib = need / 2 ** 30 if need < 2 ** 1023 else math.inf   # an int past the float range
        raise ValidationError("too-large", f"{what} needs {gib:.3g} GiB; "
                              f"physical memory is {have / 2 ** 30:.3g} GiB{hint}")
