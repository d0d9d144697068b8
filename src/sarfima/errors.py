"""Exception hierarchy with machine-readable error codes.

Codes are kebab-case strings surfaced verbatim by the CLI as
``error: <code>: <message>``.  Every layer imports this module, so the
integer rule of the library boundary lives here too.
"""
import numbers


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


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)   # not bool, float or str


def _check_integer(value, low: int, code: str, what: str):
    """Raise ``code`` unless ``value`` is an integer >= ``low``.  Called
    before any cache lookup, so that 12.0 or True is rejected, not served
    from the entry of the equal int."""
    if not (_is_integer(value) and value >= low):
        raise ValidationError(code, f"{what} must be an integer >= {low}, got {value!r}")
