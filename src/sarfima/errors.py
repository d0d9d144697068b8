"""Exception hierarchy with machine-readable error codes.

Codes are kebab-case strings surfaced verbatim by the CLI as
``error: <code>: <message>``.
"""


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
