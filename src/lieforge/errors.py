"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "LieForgeError",
    "ContractViolation",
    "DegenerateParametersError",
    "NullFirstComponentError",
    "GenerationFailedError",
    "SingularSystemError",
    "SystemSizeError",
    "FormatVersionError",
    "DocumentIntegrityError",
]


class LieForgeError(Exception):
    """Base class for all package-specific errors."""


class ContractViolation(LieForgeError, ValueError):
    """An argument violates a documented precondition (shape, dtype, range)."""


class DegenerateParametersError(LieForgeError):
    """Parameter matrix rank is not N-1; the draw can be retried."""


class NullFirstComponentError(LieForgeError):
    """Left null vector has |n_1| below the cutoff in generic mode; retryable."""


class GenerationFailedError(LieForgeError):
    """All resampling attempts were exhausted.

    ``last_error`` holds the failure from the final attempt.
    """

    def __init__(self, message: str, last_error: Exception | None = None):
        super().__init__(message)
        self.last_error = last_error


class SingularSystemError(LieForgeError):
    """The oracle's Sylvester equation has no well-separated unique solution."""


class SystemSizeError(LieForgeError):
    """A system would exceed a size guard: the oracle's, or available memory
    for an N^3 adjoint stack or structure tensor."""


class FormatVersionError(LieForgeError):
    """Serialized document declares an unsupported format version."""


class DocumentIntegrityError(LieForgeError):
    """Serialized document is malformed or violates a stored invariant."""
